"""Incremental decision tree driven by the Hoeffding split test.

A leaf is one object, a ``NodeStatistics`` on its schema's shared attribute
layout: it keeps attribute-value-class counts (``n[attr][value][class]``) and
per-class Gaussian columns with one count per class, not instances, and is
evaluated for a split whenever its counter has advanced by ``GRACE_PERIOD``.
Each behavior the base algorithm leaves open is a flag on :class:`StrategyConfig`:

- ``eidetic``: keep a replay buffer so fresh children start from exact
  recounts instead of zeroed statistics (the default "amnesiac" children).
  A leaf's ``ReplayBuffer`` keeps its entries in learn order in typed
  columns and allocates no object per entry: every entry's values laid end
  to end in one array (one byte a value on a nominal schema of at most 256
  values per attribute, a float64 on any schema with a numeric attribute),
  a label column, and the weights as runs of equal consecutive weights. An
  entry costs about 4 bytes on STAGGER's three nominal attributes
  unweighted and 13.5 under Poisson weighting, and 85 on ten numeric
  attributes. New instances enter through ``LearningLeaf.learn``, which
  buffers only positive weights. A split replays its leaf's buffer in one
  counted pass (``_replay``), to the statistics and child buffers that
  learning each entry at its child would give: each child learns exactly
  what its parent learned. (On an all-nominal or all-numeric tree, the
  chunk step of ``chunks.py`` learns runs of unit-weight instances in bulk,
  to the same statistics and buffer entries.) Buffers are unbounded and
  grow with the stream; desk-scale runs only.
- ``used_attribute_policy``: what a leaf does with a nominal attribute already
  used on its path. ``exclude`` (the default) leaves it out of the split
  evaluation; under ``resplit`` it may win again, and its split leaves one
  reachable child with clean counts; under ``eviscerate`` its win clears the
  leaf's statistics and class distribution in place instead.
- ``infogain_mode``: score candidates by the latest computed gain (with the
  Hoeffding n taken from the leaf counter) or by the running mean of gains
  across evaluations (with n = number of evaluations).
- ``counter_mode``: drive evaluation cadence and the Hoeffding n off the
  instance count or off the accumulated class weight, which includes mass
  inherited from the parent at creation.
"""

from __future__ import annotations

import math
import operator
from array import array
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .schema import Instance, Schema

INSTANTANEOUS = "instantaneous_over_examples"
AVERAGED = "averaged_over_evaluations"
NODE_TIME = "node_time"
WEIGHT_SEEN = "weight_seen"

NO_SPLIT = "no_split"
SPLIT = "split"
# a used attribute's win is the action used_attribute_policy names, RESPLIT or
# EVISCERATE; under EXCLUDE no used attribute is a candidate
RESPLIT = "resplit"
EVISCERATE = "eviscerate"
EXCLUDE = "exclude"

_NUMERIC_SPLIT_POINTS = 10
_SQRT2 = math.sqrt(2.0)

# n_min and the split confidence of Domingos & Hulten, "Mining high-speed data
# streams" (KDD 2000): fixed values, while tau, which a preset varies, is a
# flag. Read at call time, so a test may patch them.
GRACE_PERIOD = 200
SPLIT_DELTA = 1e-7

# the largest weight train accepts: a float sum of weights this size needs
# more than 2**970 of them to overflow, so no leaf's mass can reach inf
MAX_WEIGHT = 2.0**53


@dataclass(frozen=True)
class StrategyConfig:
    eidetic: bool = False
    used_attribute_policy: str = EXCLUDE
    infogain_mode: str = INSTANTANEOUS
    counter_mode: str = WEIGHT_SEEN
    tau: float = 0.05

    def __post_init__(self) -> None:
        if self.used_attribute_policy not in (EXCLUDE, RESPLIT, EVISCERATE):
            raise ValueError(f"bad used_attribute_policy {self.used_attribute_policy!r}")
        if self.infogain_mode not in (INSTANTANEOUS, AVERAGED):
            raise ValueError(f"bad infogain_mode {self.infogain_mode!r}")
        if self.counter_mode not in (NODE_TIME, WEIGHT_SEEN):
            raise ValueError(f"bad counter_mode {self.counter_mode!r}")
        if not self.tau >= 0.0:  # also rejects NaN, which would disable tie-breaking
            raise ValueError("tau must be >= 0")


# --------------------------------------------------------------------------
# merit primitives
# --------------------------------------------------------------------------

def entropy(mass, total: float) -> float:
    """Base-2 entropy of a non-negative mass vector whose sum is ``total``;
    zero mass gives 0."""
    if total <= 0.0:
        return 0.0
    h = 0.0
    for m in mass:
        if m > 0.0:
            p = m / total
            if p > 0.0:  # a tiny mass over a huge total can underflow to 0
                h -= p * math.log2(p)
    return h


def hoeffding_bound(value_range: float, delta: float, n: float) -> float:
    """Confidence radius sqrt(R^2 ln(1/delta) / (2n))."""
    if value_range < 0.0:
        raise ValueError("range must be non-negative")
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must be in (0, 1)")
    if n <= 0:
        raise ValueError("no observations: n must be positive")
    return math.sqrt(value_range * value_range * math.log(1.0 / delta) / (2.0 * n))


class NodeStatistics:
    """A leaf's attribute observers, which only ``observe`` updates (and, in
    bulk, the chunk step's write-back and a split's replay, with
    ``observe``'s float order): nominal counts and per-class Gaussians, on
    the schema's own ``nominal_attrs`` and ``numeric_attrs``. Numeric
    attribute ``i`` is column ``j = schema.numeric_column[i]``: class ``c``
    has Welford's ``means[c][j]`` and ``m2s[c][j]``, and ``lo[j]``/``hi[j]``
    bound the values seen. Every numeric attribute sees the same weights, so
    ``counts[c]`` is one count per class.
    """

    __slots__ = ("schema", "nominal", "nominal_attrs", "numeric_attrs",
                 "counts", "means", "m2s", "lo", "hi")

    def __init__(self, schema: Schema):
        self.schema = schema
        self.nominal_attrs = schema.nominal_attrs
        self.numeric_attrs = schema.numeric_attrs
        c = schema.class_count
        self.nominal = nominal = [None] * schema.n_attributes
        for i in schema.nominal_attrs:
            nominal[i] = [[0.0] * c for _ in range(schema.attributes[i].n_values)]
        m = len(schema.numeric_attrs)
        if not m:  # observe returns before the columns and no split reads them
            self.counts = self.means = self.m2s = self.lo = self.hi = ()
            return
        self.counts = [0.0] * c
        self.means = [[0.0] * m for _ in range(c)]
        self.m2s = [[0.0] * m for _ in range(c)]
        self.lo = [math.inf] * m
        self.hi = [-math.inf] * m

    def observe(self, values, label: int, weight: float) -> None:
        if weight <= 0.0:
            return
        nominal = self.nominal
        for i in self.nominal_attrs:
            nominal[i][values[i]][label] += weight
        numeric_attrs = self.numeric_attrs
        if not numeric_attrs:
            return
        count = self.counts[label] + weight
        self.counts[label] = count
        means, m2s = self.means[label], self.m2s[label]
        lo, hi = self.lo, self.hi
        for j, i in enumerate(numeric_attrs):
            v = values[i]
            mean = means[j]
            delta = v - mean
            mean += weight * delta / count
            means[j] = mean
            m2s[j] += weight * delta * (v - mean)
            if v < lo[j]:
                lo[j] = v
            if v > hi[j]:
                hi[j] = v


def _runs(keys):
    """The start and the length of each run of equal entries of ``keys``."""
    first = np.empty(len(keys), bool)
    first[0] = True
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    starts = np.flatnonzero(first)
    lengths = np.empty_like(starts)
    np.subtract(starts[1:], starts[:-1], out=lengths[:-1])
    lengths[-1] = len(keys) - starts[-1]
    return starts, lengths


def welford(x, key, counts, means, m2s, weights=None) -> None:
    """``observe``'s Gaussian update of the rows ``key`` of ``counts``
    (shape (k,)), ``means`` and ``m2s`` (shape (k, columns)), in place, by
    the rows of ``x``: row r joins chain ``key[r]`` with weight
    ``weights[r]`` (1.0 each when None), the rows of a chain in order. Each
    chain takes its i-th row in one numpy step, with ``observe``'s
    expressions, so every float is the one ``observe`` makes."""
    order = np.argsort(key, kind="stable")
    key = key[order]
    starts, lengths = _runs(key)
    n, chains = len(key), len(starts)
    # chains longest first, so that the chains still running at step i
    # are a prefix; each step's values are then one contiguous block
    by_length = np.argsort(-lengths, kind="stable")
    place = np.empty(chains, np.int64)
    place[by_length] = np.arange(chains)
    within = np.arange(n) - np.repeat(starts, lengths)
    at = np.repeat(place, lengths)
    # step i's block starts after the chains running at earlier steps
    running = np.bincount(within)
    blocks = np.cumsum(running) - running
    to = blocks[within] + at
    values = np.empty_like(x)
    values[to] = x[order]
    chain_key = key[starts[by_length]]
    # observe's count = counts[label] + weight, once per row, in order
    steps = np.zeros((len(running) + 1, chains))
    steps[0] = counts[chain_key]
    if weights is None:
        steps[within + 1, at] = 1.0
    else:
        stepped = np.empty(n)
        stepped[to] = steps[within + 1, at] = weights[order]
    np.cumsum(steps, axis=0, out=steps)
    mean = means[chain_key]
    m2 = m2s[chain_key]
    # observe: delta = v - mean; mean += weight * delta / count;
    # m2 += weight * delta * (v - mean); weight * delta is delta at weight
    # 1.0. The steps write into two scratch rows instead of allocating
    deltas, terms = np.empty((2, *mean.shape))
    end = 0
    for i, a in enumerate(running.tolist(), 1):
        v = values[end:end + a]
        step_mean, delta, term = mean[:a], deltas[:a], terms[:a]
        np.subtract(v, step_mean, out=delta)
        if weights is not None:
            delta *= stepped[end:end + a, None]
        end += a
        np.divide(delta, steps[i, :a, None], out=term)
        step_mean += term
        np.subtract(v, step_mean, out=term)
        term *= delta
        m2[:a] += term
    means[chain_key] = mean
    m2s[chain_key] = m2
    counts[chain_key] = steps[lengths[by_length], np.arange(chains)]


def _gain_with_split(leaf, parent_entropy, attribute):
    """Information gain of splitting on one attribute, and the best numeric cut.

    The parent entropy comes from the leaf's class distribution (parent-derived
    mass included), child distributions from the observed statistics only, so
    gains can go negative after a drift. Attributes with no observed weight,
    or with all observed mass on a single value, gain exactly 0.
    """
    counts = leaf.nominal[attribute]
    if counts is not None:
        totals = [sum(row) for row in counts]
        total = sum(totals)
        # masses are non-negative, so a zero total has no positive row either
        if sum(1 for t in totals if t > 0.0) <= 1:
            return 0.0, None
        weighted = 0.0
        for row, t in zip(counts, totals):
            if t > 0.0:
                weighted += t * entropy(row, t)
        return parent_entropy - weighted / total, None

    j = leaf.schema.numeric_column[attribute]
    lo, hi = leaf.lo[j], leaf.hi[j]
    counts = leaf.counts
    total = sum(counts)
    if total <= 0.0 or hi <= lo:
        return 0.0, None
    # each class's (count, mean, sd): sd is 0.0 with no spread, and a class with
    # no mass gets mean +inf, so its left mass is 0.0 at every cut
    gaussians = []
    for count, means, m2s in zip(counts, leaf.means, leaf.m2s):
        if count <= 0.0:
            gaussians.append((count, math.inf, 0.0))
            continue
        var = m2s[j] / count
        gaussians.append((count, means[j], 0.0 if var <= 1e-12 else math.sqrt(var)))
    erf = math.erf
    best_gain = -math.inf
    best = None
    step = (hi - lo) / (_NUMERIC_SPLIT_POINTS + 1)
    for k in range(1, _NUMERIC_SPLIT_POINTS + 1):
        t = lo + k * step
        left = [
            count * 0.5 * (1.0 + erf((t - mean) / sd / _SQRT2)) if sd
            else count if mean <= t else 0.0
            for count, mean, sd in gaussians
        ]
        right = list(map(operator.sub, counts, left))
        wl = sum(left)
        wr = total - wl
        if wl <= 1e-12 or wr <= 1e-12:
            continue
        weighted = (wl * entropy(left, wl) + wr * entropy(right, wr)) / total
        gain = parent_entropy - weighted
        if gain > best_gain:
            best_gain = gain
            best = (t, left, right)
    if best is None:
        return 0.0, None
    return best_gain, best


# --------------------------------------------------------------------------
# nodes
# --------------------------------------------------------------------------

class Position:
    """One place in a tree, holding the node there: a root or a split's child."""

    __slots__ = ("mainline",)

    def __init__(self, mainline):
        self.mainline = mainline


class SplitNode:
    """Internal node: multiway on a nominal attribute or binary on a threshold."""

    __slots__ = ("attr", "threshold", "children")

    def __init__(self, attr: int, threshold: float | None, children: list):
        self.attr = attr
        self.threshold = threshold
        self.children = children

    def branch(self, values):
        """The child that a values tuple reaches, or for an ``(n,
        attributes)`` array of rows, the child each row reaches."""
        rows = values.__class__ is np.ndarray
        value = values[:, self.attr] if rows else values[self.attr]
        if self.threshold is None:
            return value.astype(np.intp) if rows else value
        left = value <= self.threshold
        return np.where(left, 0, 1) if rows else 0 if left else 1


def walk(position: Position, values) -> list:
    """The positions from ``position`` down to the leaf ``values`` reach."""
    path = [position]
    node = position.mainline
    while node.__class__ is SplitNode:
        # SplitNode.branch inlined: the call per level cost ~5% of VFDT throughput
        if node.threshold is None:
            position = node.children[values[node.attr]]
        else:
            position = node.children[0 if values[node.attr] <= node.threshold else 1]
        path.append(position)
        node = position.mainline
    return path


def _unsigned(top: int) -> str:
    """The smallest unsigned array typecode that holds 0 to ``top``."""
    return "B" if top < 1 << 8 else "H" if top < 1 << 16 else "I" if top < 1 << 32 else "Q"


class ReplayBuffer:
    """An eidetic leaf's entries, in learn order, in typed columns:
    ``values``, every entry's values laid end to end (the smallest unsigned
    type that holds every value of an all-nominal schema, float64 on any
    other), ``labels`` (the smallest unsigned type that holds every label),
    and the weights as runs of equal consecutive weights, each run's weight
    in ``weights`` and its first entry in ``runs``. ``len`` is the entry
    count."""

    __slots__ = ("values", "labels", "weights", "runs")

    def __init__(self, schema: Schema):
        if schema.numeric_attrs:
            self.values = array("d")
        else:
            self.values = array(_unsigned(max(attr.n_values for attr in schema.attributes) - 1))
        self.labels = array(_unsigned(schema.class_count - 1))
        self.weights = array("d")
        self.runs = array("Q")

    def __len__(self) -> int:
        return len(self.labels)

    def append(self, values, label: int, weight: float) -> None:
        weights = self.weights
        # array.append costs about three list appends: once per run only
        if not weights or weight != weights[-1]:
            self.runs.append(len(self.labels))
            weights.append(weight)
        self.values.extend(values)
        self.labels.append(label)

    def columns(self, width: int):
        """The entries as arrays: their values ``(n, width)`` and labels,
        views of the columns, and their weights, None when all are 1.0."""
        n = len(self)
        values = np.frombuffer(self.values, self.values.typecode).reshape(n, width)
        labels = np.frombuffer(self.labels, self.labels.typecode)
        if len(self.weights) == 1 and self.weights[0] == 1.0:
            return values, labels, None
        runs = np.frombuffer(self.runs, np.uint64).astype(np.intp)
        weights = np.repeat(np.frombuffer(self.weights), np.diff(runs, append=n))
        return values, labels, weights


def extend_buffers(buffers: list, cuts, values, labels, weights=None) -> None:
    """Append rows ``cuts[j]`` to ``cuts[j + 1]`` of ``values``, an ``(n,
    attributes)`` array, ``labels`` and ``weights`` (1.0 each when None) to
    ``buffers[j]``, as ``ReplayBuffer.append`` would one row at a time. The
    buffers share a schema, so the rows take their columns' types once."""
    if not len(labels):
        return
    values = np.ascontiguousarray(values, buffers[0].values.typecode)
    labels = np.ascontiguousarray(labels, buffers[0].labels.typecode)
    # array.frombytes takes byte views; a row is ``row`` bytes, a label ``size``
    row, size = values.strides[0], labels.itemsize
    values, labels = memoryview(values).cast("B"), memoryview(labels).cast("B")
    if weights is not None:
        # each row whose weight differs from the row before, and each block's first
        starts = np.empty(len(weights), bool)
        np.not_equal(weights[1:], weights[:-1], out=starts[1:])
        starts[[a for a, b in zip(cuts, cuts[1:]) if a < b]] = True
    for buffer, a, b in zip(buffers, cuts, cuts[1:]):
        if a == b:
            continue
        n, runs = len(buffer.labels), buffer.weights
        if weights is None:
            if not runs or runs[-1] != 1.0:
                buffer.runs.append(n)
                runs.append(1.0)
        else:
            new = np.flatnonzero(starts[a:b])
            if runs and runs[-1] == weights[a]:
                new = new[1:]  # the first rows continue the buffer's last run
            buffer.runs.frombytes((new + n).astype(np.uint64).tobytes())
            runs.frombytes(weights[new + a].tobytes())
        buffer.values.frombytes(values[a * row:b * row])
        buffer.labels.frombytes(labels[a * size:b * size])


class LearningLeaf(NodeStatistics):
    """Leaf accumulating statistics; the only place learning happens. It is
    its own ``NodeStatistics``, updated through the inherited ``observe``.
    An eidetic leaf's ``buffer`` is its ``ReplayBuffer``; an amnesiac
    leaf's is None."""

    __slots__ = (
        "class_dist",
        "total_weight",
        "node_time",
        "counter_at_last_eval",
        "used_attributes",
        "buffer",
        "eval_count",
        "gain_sums",
    )

    def __init__(self, schema: Schema, class_dist=None, used_attributes=frozenset(), eidetic=False):
        super().__init__(schema)
        self.class_dist = list(class_dist) if class_dist is not None else [0.0] * schema.class_count
        self.total_weight = sum(self.class_dist)
        self.node_time = 0
        self.counter_at_last_eval = 0.0
        self.used_attributes = frozenset(used_attributes)
        self.buffer = ReplayBuffer(schema) if eidetic else None
        self.eval_count = 0
        self.gain_sums = [0.0] * schema.n_attributes

    def learn(self, values, label: int, weight: float) -> None:
        """Add one new instance, and buffer it when eidetic.

        A weight <= 0 adds nothing and is not buffered; ``node_time``
        counts new instances, so ``learn_at_leaf`` bumps it.
        """
        if weight <= 0.0:
            return
        self.observe(values, label, weight)
        self.class_dist[label] += weight
        self.total_weight += weight
        if self.buffer is not None:
            self.buffer.append(values, label, weight)

    def is_pure(self) -> bool:
        seen = 0
        for m in self.class_dist:
            if m > 0.0:
                seen += 1
                if seen > 1:
                    return False
        return True

    def eviscerate(self) -> None:
        """Clear statistics and class distribution in place.

        The leaf becomes a fresh leaf on the same path: it keeps only its used
        attributes and whether it buffers instances.
        """
        self.__init__(self.schema, None, self.used_attributes, self.buffer is not None)


@dataclass
class SplitDecision:
    best_attribute: int | None  # None stands for the null split
    best_merit: float
    second_merit: float
    epsilon: float
    action: str
    threshold: float | None = None
    child_dists: tuple | None = None  # numeric splits: (left, right) class masses


def _leaf_counter(leaf: LearningLeaf, config: StrategyConfig) -> float:
    """The leaf's count under ``counter_mode``: instances seen, or class weight."""
    return leaf.node_time if config.counter_mode == NODE_TIME else leaf.total_weight


def evaluate_split(leaf: LearningLeaf, config: StrategyConfig) -> SplitDecision:
    """Score all candidate attributes against the null split.

    Attributes used on the leaf's path (nominal only) are candidates unless
    ``used_attribute_policy`` is ``exclude``, and the action when one wins is
    the policy's level; the null split carries merit 0 and loses merit ties
    to real attributes. One pass over the attributes scores each and keeps
    the best and the runner-up; of equal merits the earlier attribute ranks
    first.
    """
    schema = leaf.schema
    policy = config.used_attribute_policy
    used = leaf.used_attributes
    parent_entropy = entropy(leaf.class_dist, leaf.total_weight)
    leaf.eval_count += 1
    averaged = config.infogain_mode == AVERAGED
    sums = leaf.gain_sums
    best = second = None  # (attr, merit, split_info)
    for attr in range(schema.n_attributes):
        if policy == EXCLUDE and attr in used:
            continue
        merit, split_info = _gain_with_split(leaf, parent_entropy, attr)
        if averaged:
            sums[attr] += merit
            merit = sums[attr] / leaf.eval_count
        if best is None or merit > best[1]:
            best, second = (attr, merit, split_info), best
        elif second is None or merit > second[1]:
            second = (attr, merit, split_info)
    n = leaf.eval_count if averaged else _leaf_counter(leaf, config)
    eps = hoeffding_bound(math.log2(schema.class_count), SPLIT_DELTA, n)

    if best is None or best[1] < 0.0:
        # the null split outranks every attribute
        second_merit = best[1] if best is not None else 0.0
        return SplitDecision(None, 0.0, second_merit, eps, NO_SPLIT)

    # the null split, at merit 0, is the runner-up unless an attribute beats it
    second_merit = max(second[1], 0.0) if second is not None else 0.0

    attr, merit, split_info = best
    decision = SplitDecision(attr, merit, second_merit, eps, NO_SPLIT)
    if split_info is not None:
        decision.threshold = split_info[0]
        decision.child_dists = (split_info[1], split_info[2])
    if merit - second_merit > eps or eps < config.tau:
        decision.action = policy if attr in used else SPLIT
    return decision


def perform_split(leaf: LearningLeaf, decision: SplitDecision, config: StrategyConfig,
                  new_position):
    """Turn the leaf into a split node, or clear it for an evisceration.

    The SplitNode comes in its installed shape: each child leaf wrapped by
    ``new_position``. Fresh children start with zeroed statistics and a class
    distribution read off the parent's counts for their branch (amnesiac
    default); in eidetic mode the leaf's buffer is replayed instead
    (``_replay``), so child statistics are exact. Returns the new SplitNode,
    or None when the leaf was eviscerated in place.
    """
    if decision.action == NO_SPLIT:
        raise ValueError("cannot perform a no_split decision")
    if decision.action == EVISCERATE:
        leaf.eviscerate()
        return None

    attr = decision.best_attribute
    if leaf.nominal[attr] is not None:
        dists, used, threshold = leaf.nominal[attr], leaf.used_attributes | {attr}, None
    else:
        dists, used, threshold = decision.child_dists, leaf.used_attributes, decision.threshold
    eidetic = leaf.buffer is not None
    # LearningLeaf copies the distribution it starts from
    children = [LearningLeaf(leaf.schema, None if eidetic else dist, used, eidetic) for dist in dists]
    node = SplitNode(attr, threshold, [new_position(child) for child in children])
    if eidetic and len(leaf.buffer):
        _replay(leaf.buffer, node, children)
    for child in children:
        child.counter_at_last_eval = _leaf_counter(child, config)
    return node


def _sums(bins, weights, size: int):
    """The weights of each of ``size`` bins, added in entry order from 0.0
    (``np.bincount`` adds them so), as floats. Weights of 1.0 (None) are
    counted: whole numbers add exactly in any order."""
    if weights is None:
        return np.bincount(bins, minlength=size).astype(float)
    return np.bincount(bins, weights, size)


def _replay(buffer: ReplayBuffer, node: SplitNode, children: list) -> None:
    """Teach ``node``'s fresh ``children`` the entries of its leaf's
    ``buffer``, to the floats and buffers that ``learn`` at each entry's
    child, entry by entry, would give. Every entry is routed at once, and
    every sum is ``_sums``'s, which adds each bin's weights in entry order
    from 0.0, as ``learn`` does; the Gaussians are ``welford``'s, ``lo``
    and ``hi`` keep the first of equal extremes, as ``observe``'s strict
    comparisons do, and each child's buffer takes its entries from the
    leaf's columns in learn order."""
    schema = children[0].schema
    c, k = schema.class_count, len(children)
    x, labels, weights = buffer.columns(schema.n_attributes)
    branch = node.branch(x)
    key = branch * c + labels
    dists = _sums(key, weights, k * c).reshape(k, c).tolist()
    totals = _sums(branch, weights, k).tolist()
    nominal = schema.nominal_attrs
    # a child's nominal rows are its attributes' value rows end to end, the
    # a-th nominal attribute's from firsts[a], each class_count cells wide
    firsts = [0, *accumulate(schema.attributes[i].n_values for i in nominal)]
    if nominal:
        # one bincount for every nominal attribute
        cells = np.take(x, nominal, axis=1).astype(np.intp)
        cells += firsts[:-1]
        cells += (branch * firsts[-1])[:, None]
        cells *= c
        cells += labels[:, None]
        repeated = None if weights is None else np.repeat(weights, len(nominal))
        tables = _sums(cells.ravel(), repeated, k * firsts[-1] * c).reshape(k, firsts[-1], c).tolist()
    numeric = schema.numeric_attrs
    if numeric:
        m = len(numeric)
        counts, means, m2s = np.zeros(k * c), np.zeros((k * c, m)), np.zeros((k * c, m))
        xs = np.take(x, numeric, axis=1)
        welford(xs, key, counts, means, m2s, weights)
        counts = counts.reshape(k, c).tolist()
        means = means.reshape(k, c, m).tolist()
        m2s = m2s.reshape(k, c, m).tolist()
        columns = np.arange(m)
    # stable, and a radix sort on the smallest type that holds every branch
    order = np.argsort(branch.astype(_unsigned(k - 1)), kind="stable")
    cuts = [0, *np.cumsum(np.bincount(branch, minlength=k)).tolist()]
    for j, child in enumerate(children):
        child.class_dist = dists[j]
        child.total_weight = totals[j]
        for i, a, b in zip(nominal, firsts, firsts[1:]):
            child.nominal[i] = tables[j][a:b]
        if numeric and cuts[j] < cuts[j + 1]:
            child.counts = counts[j]
            child.means = means[j]
            child.m2s = m2s[j]
            # argmin and argmax find the first of equal values, 0.0 and -0.0 alike
            rows = np.take(xs, order[cuts[j]:cuts[j + 1]], axis=0)
            child.lo = rows[rows.argmin(axis=0), columns].tolist()
            child.hi = rows[rows.argmax(axis=0), columns].tolist()
    extend_buffers([child.buffer for child in children], cuts, np.take(x, order, axis=0), labels[order],
                   None if weights is None else weights[order])


def learn_at_leaf(position: Position, values, label: int, weight: float, config: StrategyConfig,
                  new_position) -> None:
    """Learn one new instance at the leaf in ``position``, and split it once
    the grace period is up: the learn step of both trees, and the one place a
    split is installed. The SplitNode from ``perform_split``, its children
    wrapped by ``new_position``, takes the leaf's place in ``position``; an
    evisceration clears the leaf in place."""
    leaf = position.mainline
    leaf.node_time += 1
    leaf.learn(values, label, weight)
    counter = _leaf_counter(leaf, config)
    if counter - leaf.counter_at_last_eval < GRACE_PERIOD:
        return
    leaf.counter_at_last_eval = counter
    if leaf.is_pure():
        return
    decision = evaluate_split(leaf, config)
    if decision.action == NO_SPLIT:
        return
    node = perform_split(leaf, decision, config, new_position)
    if node is not None:
        position.mainline = node


def check_shape(schema: Schema, instance: Instance) -> None:
    """Raise ValueError when the value count or the label does not fit the schema,
    the label is not an integer, the weight is negative, NaN or above
    ``MAX_WEIGHT``, a nominal value is not an integer in ``[0, n_values)``,
    or a numeric value is NaN or infinite."""
    try:
        label = operator.index(instance.class_label)
    except TypeError:
        label = -1  # a float label like 1.0 would index nothing: out of range
    values = instance.values
    if len(values) != schema.n_attributes or not 0 <= label < schema.class_count:
        raise ValueError(
            f"instance does not match schema: {len(values)} values, "
            f"label {instance.class_label!r}"
        )
    if not 0.0 <= instance.weight <= MAX_WEIGHT:  # also rejects NaN
        raise ValueError(f"instance weight must be in [0, 2**53], got {instance.weight!r}")
    attributes = schema.attributes
    for i in schema.nominal_attrs:
        v = values[i]
        if v.__class__ is not int:
            try:
                v = operator.index(v)
            except TypeError:
                raise ValueError(f"nominal attribute {i} must be an integer, got {values[i]!r}") from None
        if not 0 <= v < attributes[i].n_values:
            raise ValueError(f"nominal attribute {i} must be in [0, {attributes[i].n_values}), got {v!r}")
    numeric = schema.numeric_attrs
    # finite values sum to a finite float unless the sum overflows, so only a
    # sum that is not finite needs a look at each value
    if numeric and not math.isfinite(
            sum(values if len(numeric) == len(values) else map(values.__getitem__, numeric))):
        for i in numeric:
            if not math.isfinite(values[i]):
                raise ValueError(f"numeric attribute {i} must be finite, got {values[i]!r}")


def argmax_label(dist) -> int:
    """The index of the first largest mass."""
    return dist.index(max(dist))


# --------------------------------------------------------------------------
# the classifier
# --------------------------------------------------------------------------

class HoeffdingTreeClassifier:
    """Single-pass decision tree: route, count, split when confident."""

    def __init__(self, schema: Schema, config: StrategyConfig | None = None):
        self.schema = schema
        self.config = config if config is not None else StrategyConfig()
        self.root = Position(LearningLeaf(schema, eidetic=self.config.eidetic))
        # the instance predict_label routed last, and its leaf's position;
        # the next train of that same object reuses the route
        self._routed: Instance | None = None
        self._position: Position | None = None

    def train(self, instance: Instance) -> None:
        routed, self._routed = self._routed, None
        check_shape(self.schema, instance)
        values, label, weight = instance
        position = self._position if routed is instance else walk(self.root, values)[-1]
        learn_at_leaf(position, values, label, weight, self.config, Position)

    def predict_label(self, instance: Instance) -> int:
        self._position = position = walk(self.root, instance.values)[-1]
        self._routed = instance
        return argmax_label(position.mainline.class_dist)

    def dump(self) -> str:
        return dump(self.root)

    def leaves(self):
        return [position.mainline for position, _, _ in positions(self.root)
                if position.mainline.__class__ is not SplitNode]


def describe(node) -> str:
    """The dump line of a split node or a leaf, shared by both trees' dumps."""
    if node.__class__ is SplitNode:
        test = "nominal" if node.threshold is None else f"<= {node.threshold:.6g}"
        return f"split attr={node.attr} test={test}"
    dist = "[" + ", ".join(f"{m:g}" for m in node.class_dist) + "]"
    used = ",".join(str(a) for a in sorted(node.used_attributes)) or "-"
    return (f"leaf dist={dist} node_time={node.node_time} "
            f"weight_seen={node.total_weight:g} used={used}")


def positions(root: Position):
    """Each position under ``root``, depth first, as ``(position, depth,
    alternate_root)``: a position, then its split's children in order, then
    the alternate an adaptive-tree position holds, which roots a subtree."""
    stack = [(root, 0, False)]
    while stack:
        item = stack.pop()
        yield item
        position, depth, _ = item
        alternate = getattr(position, "alternate", None)
        if alternate is not None:
            stack.append((alternate, depth + 1, True))
        node = position.mainline
        if node.__class__ is SplitNode:
            stack += [(child, depth + 1, False) for child in reversed(node.children)]


def dump(root: Position, suffix=None) -> str:
    """Both trees' dump: a line per position, numbered depth first, with
    ``suffix(position)`` after each when given."""
    lines = []
    for k, (position, depth, alternate_root) in enumerate(positions(root)):
        line = describe(position.mainline) + ("" if suffix is None else suffix(position))
        lines.append(f"{'  ' * depth}[{k}]{' ALT-root' if alternate_root else ''} {line}")
    return "\n".join(lines) + "\n"
