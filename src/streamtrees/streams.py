"""Synthetic drift streams.

Every generator is a stateful, seeded instance source: ``next_instance()``
yields one labeled Instance, and identical construction parameters (seed
included) give bitwise-identical sequences. The sequence does not depend on
how callers interleave their pulls from different streams.

Every generator is an ``ArrayStream``: it samples blocks of 1024 rows with
PCG64 and keeps each block as arrays read through one cursor. A row is a
numeric generator's values (``SeaGenerator``, ``HyperplaneGenerator``:
float64 ``[1024, d]``) or a nominal generator's cells (``StaggerGenerator``,
``AbruptDriftGenerator``: the row-major index of each values tuple, int64),
beside int64 labels. ``next_instance`` hands out Instances built in C from
the rest of the current block through a C-level iterator, and
``next_arrays(n)`` hands out the next ``n`` rows as arrays; any
interleaving of the two reads the same sequence. Rows within one block come
as read-only views of it, so a reader can keep them without a copy.
``Rows`` holds such a chunk of rows for the chunk step.

A nominal stream hands out shared Instances: every Instance of one (value
tuple, class) pair it builds is the same object, built the first time the
pair is built. A stream keeps at most ``_MAX_INTERNED`` = 16,384 of them and
empties that cache before a build that could take it past the bound.
Instances are immutable, so sharing is invisible to learners, and equal
values route the same way through a tree.

A ``RecurrentConceptDriftStream`` fills its blocks with runs of rows read
from its two sub-streams by ``next_arrays``, up to one block ahead of its
own caller, so a sub-stream object must not be read anywhere else. It
evaluates its sigmoid only inside a drift window, within 15 widths of a
concept centre; between windows it reads whole runs of rows from one
sub-stream and draws no uniforms. Its Instances are its own, shared as any
nominal stream's when its sub-streams are nominal.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from itertools import chain, repeat
from typing import Iterator

import numpy as np

from .schema import Instance, Schema, new_instance

_BLOCK = 1024
# the most cells an AbruptDriftGenerator table or a HyperplaneGenerator block may
# have; the testbench's largest are 5**5 = 3125 and 1024 * 10, 8 bytes a cell
_MAX_CELLS = 2**20
# the most Instances a nominal stream keeps to hand out again; the testbench's
# largest table has 5**5 cells * 5 classes = 15,625 (cell, class) keys
_MAX_INTERNED = 2**14


def make_rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(seed))


def gamma11(rng: np.random.Generator, n: int) -> np.ndarray:
    """n draws from Gamma(1,1), sampled as -ln(U), U uniform on (0, 1]."""
    u = rng.random(n)
    return -np.log1p(-u).clip(min=1e-300)


# --------------------------------------------------------------------------
# categorical joint-distribution table and the drift operator
# --------------------------------------------------------------------------

@dataclass
class CellTable:
    """P(X) as per-attribute value probabilities plus a class per value cell.

    ``class_assignment`` is a flat array over the v1*...*vn attribute-value
    combinations, indexed with row-major strides (attribute 0 slowest).
    """

    attribute_value_probs: list[np.ndarray]
    class_assignment: np.ndarray
    class_count: int

    def __post_init__(self) -> None:
        cells = 1
        for p in self.attribute_value_probs:
            if abs(float(p.sum()) - 1.0) > 1e-9 or (p <= 0).any():
                raise ValueError("attribute probabilities must be positive and sum to 1")
            cells *= len(p)
        if len(self.class_assignment) != cells:
            raise ValueError(f"class assignment covers {len(self.class_assignment)} cells, need {cells}")

    @property
    def n_cells(self) -> int:
        return len(self.class_assignment)

    @staticmethod
    def random(rng: np.random.Generator, n_attributes: int, n_values: int, class_count: int) -> "CellTable":
        probs = []
        for _ in range(n_attributes):
            g = gamma11(rng, n_values)
            probs.append(g / g.sum())
        cells = n_values**n_attributes
        assignment = rng.integers(0, class_count, size=cells, dtype=np.int64)
        return CellTable(probs, assignment, class_count)


def apply_drift(table: CellTable, magnitude: float, rng: np.random.Generator) -> CellTable:
    """Reassign the class of round(magnitude * n_cells) uniformly chosen cells.

    Each selected cell gets a uniformly drawn class different from its current
    one; attribute-value probabilities are untouched. Rounding is half-up.
    """
    if not 0.0 <= magnitude <= 1.0:
        raise ValueError(f"drift magnitude {magnitude} outside [0, 1]")
    n_cells = table.n_cells
    n_change = int(math.floor(magnitude * n_cells + 0.5))
    assignment = table.class_assignment.copy()
    if n_change:
        chosen = rng.choice(n_cells, size=n_change, replace=False)
        draws = rng.integers(0, table.class_count - 1, size=n_change)
        # chosen holds no cell twice, so one gathered assignment is exact
        old = assignment[chosen]
        assignment[chosen] = np.where(draws < old, draws, draws + 1)
    return CellTable([p.copy() for p in table.attribute_value_probs], assignment, table.class_count)


# --------------------------------------------------------------------------
# generators
# --------------------------------------------------------------------------

class _InstanceCache(dict):
    """The Instances of a nominal stream, one per ``cell * class_count + label`` key.

    A key's Instance is built the first time it is asked for, with int
    values, an int label and weight 1.0, and every later ask hands out the
    same object. The cache is emptied before a build that could take it past
    ``_MAX_INTERNED`` entries.
    """

    def __init__(self, schema: Schema):
        super().__init__()
        self._class_count = schema.class_count
        self._sizes = [attr.n_values for attr in reversed(schema.attributes)]

    def __missing__(self, key: int) -> Instance:
        cell, label = divmod(key, self._class_count)
        values = []
        for n in self._sizes:
            cell, v = divmod(cell, n)
            values.append(v)
        instance = self[key] = new_instance((tuple(reversed(values)), label, 1.0))
        return instance

    def block(self, cells: np.ndarray, labels: np.ndarray) -> list[Instance]:
        """The Instance of each (cell, label) pair; a hit runs no Python code."""
        if len(self) > _MAX_INTERNED - len(cells):
            self.clear()
        return list(map(self.__getitem__, (cells * self._class_count + labels).tolist()))


class ArrayStream:
    """An endless stream whose blocks stay arrays, read through one cursor.

    ``_sample`` gives a block: rows ``x`` and labels int64, where ``x`` holds
    a numeric stream's values, float64 ``[_BLOCK, d]``, or a nominal
    stream's cells, int64: a cell is the row-major index of a values tuple
    (attribute 0 slowest). Rows before the cursor ``_at`` are handed out, as
    arrays or as Instances. ``next_instance`` is the ``__next__`` of a
    C-level iterator that chains what ``_make_block`` returns, so handing
    out an instance runs no Python code: when it runs out, the rest of the
    block is built into Instances in one go and the cursor moves to the
    block's end. ``next_arrays`` first moves the cursor back over the
    Instances built but not yet handed out, and drops them.
    """

    def __init__(self, schema: Schema) -> None:
        self.schema = schema
        self._cache = None if schema.numeric_attrs else _InstanceCache(schema)
        self._x = self._labels = np.zeros(0)
        self._at = 0
        # the iterator over the Instances built last, which the chain reads
        self._built = iter(())
        self._instances = chain.from_iterable(iter(self._make_block, None))
        self.next_instance = self._instances.__next__

    def _sample(self) -> tuple[np.ndarray, np.ndarray]:
        raise NotImplementedError

    def build(self, x: np.ndarray, labels: np.ndarray) -> list[Instance]:
        """The Instances of rows ``x`` and ``labels``, as ``next_instance``
        hands them out: a nominal stream's shared ones, else new ones of
        weight 1.0, built in C."""
        if self._cache is not None:
            return self._cache.block(x, labels)
        return list(map(new_instance, zip(zip(*x.T.tolist()), labels.tolist(), repeat(1.0))))

    def _next_block(self) -> None:
        self._x, self._labels = self._sample()
        self._x.flags.writeable = self._labels.flags.writeable = False
        self._at = 0

    def _make_block(self) -> Iterator[Instance]:
        if self._at == len(self._labels):
            self._next_block()
        at, self._at = self._at, len(self._labels)
        self._built = iter(self.build(self._x[at:], self._labels[at:]))
        return self._built

    def next_arrays(self, n: int) -> tuple[np.ndarray, np.ndarray]:
        """The next ``n`` rows: ``x`` and labels int64, views of the block
        when they lie in one, else joined copies."""
        unread = self._built.__length_hint__()
        if unread:
            self._at -= unread
            deque(self._built, 0)  # the chain finds them gone and asks for the rest
        xs, labels = [], []
        while n:
            if self._at == len(self._labels):
                self._next_block()
            at = self._at
            self._at = end = min(at + n, len(self._labels))
            n -= end - at
            xs.append(self._x[at:end])
            labels.append(self._labels[at:end])
        if len(labels) == 1:
            return xs[0], labels[0]
        return np.concatenate(xs), np.concatenate(labels)


class Rows:
    """A chunk of a stream's rows as ``next_arrays`` gives them: ``x`` and
    ``labels``. A generator's rows are valid by construction, so a counter
    takes them as they are. Row ``k`` reads back as the ``Instance`` the
    stream's ``next_instance`` would have handed out (for a nominal stream,
    its shared one); only the rows that go through the tree or into an
    eidetic buffer are built into Instances."""

    def __init__(self, stream: ArrayStream, x: np.ndarray, labels: np.ndarray):
        self.stream = stream
        self.x = x
        self.labels = labels

    def __len__(self) -> int:
        return len(self.labels)

    def __getitem__(self, k: int) -> Instance:
        return self.instances(slice(k, k + 1))[0]

    def instances(self, at) -> list[Instance]:
        """The Instances of rows ``at`` (an index array or a slice)."""
        return self.stream.build(self.x[at], self.labels[at])


class AbruptDriftGenerator(ArrayStream):
    """Nominal stream with an instantaneous switch of P(Y|X) at the drift point.

    A starting cell table is drawn (Gamma(1,1) value probabilities, uniform
    class per cell) and a post-drift table derived from it via ``apply_drift``.
    In recurrent mode the two tables alternate every ``drift_point``
    instances; otherwise the post table takes over for good at t >=
    drift_point. A table holds a class for each of its ``n_values **
    n_attributes`` value cells; more than 2**20 cells are rejected before any
    is allocated.
    """

    def __init__(
        self,
        n_attributes: int = 5,
        n_values: int = 5,
        class_count: int = 5,
        magnitude: float = 1.0,
        drift_point: int = 150_000,
        recurrent: bool = False,
        seed: int = 1,
    ):
        if drift_point < 1:
            raise ValueError("drift_point must be >= 1")
        cells = n_values**n_attributes
        if cells > _MAX_CELLS:
            raise ValueError(f"{n_values}**{n_attributes} = {cells} cells exceed "
                             f"the limit of {_MAX_CELLS} cells")
        super().__init__(Schema.uniform_nominal(n_attributes, n_values, class_count))
        self.magnitude = magnitude
        self.drift_point = drift_point
        self.recurrent = recurrent
        self._rng = make_rng(seed)
        self.table_before = CellTable.random(self._rng, n_attributes, n_values, class_count)
        self.table_after = apply_drift(self.table_before, magnitude, self._rng)
        self._cum = [np.cumsum(p) for p in self.table_before.attribute_value_probs]
        self._t = 0

    def _sample(self) -> tuple[np.ndarray, np.ndarray]:
        u = self._rng.random((_BLOCK, self.schema.n_attributes))
        cells = np.zeros(_BLOCK, dtype=np.int64)
        for i, cum in enumerate(self._cum):
            values = np.searchsorted(cum, u[:, i], side="right")
            cells = cells * len(cum) + np.minimum(values, len(cum) - 1)
        ts = np.arange(self._t, self._t + _BLOCK)
        if self.recurrent:
            after = (ts // self.drift_point) % 2 == 1
        else:
            after = ts >= self.drift_point
        labels = np.where(
            after,
            self.table_after.class_assignment[cells],
            self.table_before.class_assignment[cells],
        )
        self._t += _BLOCK
        return cells, labels


# STAGGER concept definitions, attributes (size, color, shape) each with
# three values: size {small, medium, large}, color {red, green, blue},
# shape {square, circular, triangular}.
SMALL, MEDIUM, LARGE = 0, 1, 2
RED, GREEN, BLUE = 0, 1, 2
SQUARE, CIRCULAR, TRIANGULAR = 0, 1, 2


class StaggerGenerator(ArrayStream):
    """Three ternary attributes, binary class from one of three boolean rules."""

    def __init__(self, function: int = 1, seed: int = 1):
        if function not in (1, 2, 3):
            raise ValueError(f"STAGGER function must be 1..3, got {function}")
        super().__init__(Schema.uniform_nominal(3, 3, 2))
        self.function = function
        self._rng = make_rng(seed)

    def _sample(self) -> tuple[np.ndarray, np.ndarray]:
        vals = self._rng.integers(0, 3, size=(_BLOCK, 3))
        size, color, shape = vals[:, 0], vals[:, 1], vals[:, 2]
        if self.function == 1:
            labels = (size == SMALL) & (color == RED)
        elif self.function == 2:
            labels = (color == GREEN) | (shape == CIRCULAR)
        else:
            labels = (size == MEDIUM) | (size == LARGE)
        return (size * 3 + color) * 3 + shape, labels.astype(np.int64)


SEA_THRESHOLDS = {1: 0.8, 2: 0.9, 3: 0.7, 4: 0.95}


class SeaGenerator(ArrayStream):
    """Three numeric attributes on [0,1]; class 1 when x0 + x1 <= threshold."""

    def __init__(self, function: int = 1, noise: float = 0.0, seed: int = 1):
        if function not in SEA_THRESHOLDS:
            raise ValueError(f"SEA function must be 1..4, got {function}")
        if not 0.0 <= noise < 1.0:
            raise ValueError(f"noise fraction {noise} outside [0, 1)")
        super().__init__(Schema.unit_numeric(3))
        self.function = function
        self.threshold = SEA_THRESHOLDS[function]
        self.noise = noise
        self._rng = make_rng(seed)

    def _sample(self) -> tuple[np.ndarray, np.ndarray]:
        x = self._rng.random((_BLOCK, 3))
        labels = (x[:, 0] + x[:, 1] <= self.threshold).astype(np.int64)
        if self.noise > 0.0:
            flips = self._rng.random(_BLOCK) < self.noise
            labels = labels ^ flips
        return x, labels


class HyperplaneGenerator(ArrayStream):
    """Rotating hyperplane in [0,1]^d; k weights drift by t per instance.

    Label is 1 when sum(w_i x_i) >= sum(w_i) / 2. Each drifting weight moves
    by ``magnitude`` per instance along a direction that reverses with
    probability ``sigma``.
    """

    def __init__(
        self,
        n_attributes: int = 10,
        drift_attributes: int = 2,
        magnitude: float = 0.0,
        sigma: float = 0.1,
        noise: float = 0.0,
        seed: int = 1,
    ):
        if _BLOCK * n_attributes > _MAX_CELLS:
            raise ValueError(f"{n_attributes} attributes make blocks of over {_MAX_CELLS} cells")
        if drift_attributes > n_attributes:
            raise ValueError("drift_attributes cannot exceed n_attributes")
        if not 0.0 <= noise < 1.0:
            raise ValueError(f"noise fraction {noise} outside [0, 1)")
        if not 0.0 <= sigma <= 1.0:
            raise ValueError(f"sigma {sigma} outside [0, 1]")
        if not math.isfinite(magnitude):
            raise ValueError(f"drift magnitude {magnitude} is not finite")
        super().__init__(Schema.unit_numeric(n_attributes))
        self.n_attributes = n_attributes
        self.drift_attributes = drift_attributes
        self.magnitude = magnitude
        self.sigma = sigma
        self.noise = noise
        self._rng = make_rng(seed)
        self._weights = self._rng.random(n_attributes)
        self._directions = np.ones(drift_attributes)

    def _sample(self) -> tuple[np.ndarray, np.ndarray]:
        d, k = self.n_attributes, self.drift_attributes
        x = self._rng.random((_BLOCK, d))
        w = np.tile(self._weights, (_BLOCK, 1))
        if k and self.magnitude:
            flips = self._rng.random((_BLOCK, k)) < self.sigma
            signs = np.where(flips, -1.0, 1.0)
            signs[0] *= self._directions
            dirs = np.cumprod(signs, axis=0)
            steps = np.cumsum(dirs * self.magnitude, axis=0)
            w[:, :k] += steps
            self._weights = w[-1].copy()
            self._directions = dirs[-1]
        sums = (w * x).sum(axis=1)
        labels = (sums >= w.sum(axis=1) / 2.0).astype(np.int64)
        if self.noise > 0.0:
            flips = self._rng.random(_BLOCK) < self.noise
            labels = labels ^ flips
        return x, labels


class RecurrentConceptDriftStream(ArrayStream):
    """Sigmoid mixture of two sub-streams with drift recurring every period.

    Concept centers sit at ``position + m * period``; around center m the
    probability of drawing from the incoming stream follows
    1 / (1 + exp(-4 (t - center) / width)). Odd transitions lead back to the
    first stream, so the concept alternates indefinitely.
    """

    def __init__(self, base=None, drift=None, position: int = 200_000, period: int = 200_000,
                 width: int = 100, seed: int = 1):
        if base is None or drift is None:
            raise ValueError("RecurrentConceptDriftStream needs both -s and -d sub-streams")
        if base.schema != drift.schema:
            raise ValueError("sub-streams must share a schema")
        if position < 1 or period < 1 or width < 1:
            raise ValueError("position, period and width must be >= 1")
        super().__init__(base.schema)
        self.base = base
        self.drift = drift
        self.position = position
        self.period = period
        self.width = width
        self._rng = make_rng(seed)
        self._t = 0

    def prob_drift_stream(self, t: int) -> float:
        """Probability that instance t comes from the second (drift) stream."""
        m = max(0, round((t - self.position) / self.period))
        center = self.position + m * self.period
        z = 4.0 * (t - center) / self.width
        if z > 60:
            sig = 1.0
        elif z < -60:
            sig = 0.0
        else:
            sig = 1.0 / (1.0 + math.exp(-z))
        return sig if m % 2 == 0 else 1.0 - sig

    def _sample(self) -> tuple[np.ndarray, np.ndarray]:
        t0 = self._t
        self._t += _BLOCK
        # prob_drift_stream over the block: outside a drift window (|z| > 60)
        # it is exactly 0 or 1, so those instances need no sigmoid and no draw;
        # rint rounds half to even as round() does, and with integer operands
        # below 2**53 m and z come out as prob_drift_stream computes them
        ts = np.arange(t0, t0 + _BLOCK)
        m = np.maximum(np.rint((ts - self.position) / self.period), 0.0)
        z = 4.0 * (ts - (self.position + m * self.period)) / self.width
        from_drift = (z > 60) == (m % 2 == 0)
        window = np.flatnonzero(np.abs(z) <= 60).tolist()
        probs = [self.prob_drift_stream(t0 + i) for i in window]
        # one uniform per instance with 0 < p < 1, drawn in instance order;
        # PCG64 doubles concatenate across calls, so the sequence drawn does
        # not depend on how the blocks cut it
        draws = iter(self._rng.random(sum(0.0 < p < 1.0 for p in probs)).tolist())
        for i, p in zip(window, probs):
            from_drift[i] = p >= 1.0 or (p > 0.0 and next(draws) < p)
        # each run of rows from one sub-stream is read whole
        bounds = [0, *(np.flatnonzero(from_drift[1:] != from_drift[:-1]) + 1).tolist(), _BLOCK]
        runs = [(self.drift if from_drift[start] else self.base).next_arrays(end - start)
                for start, end in zip(bounds, bounds[1:])]
        if len(runs) == 1:
            return runs[0]
        xs, labels = zip(*runs)
        return np.concatenate(xs), np.concatenate(labels)
