import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from streamtrees.schema import NominalAttribute, NumericAttribute, Schema, Instance
from streamtrees.specparse import build_stream
from streamtrees.streams import (
    CIRCULAR,
    GREEN,
    LARGE,
    MEDIUM,
    RED,
    SMALL,
    AbruptDriftGenerator,
    CellTable,
    HyperplaneGenerator,
    SEA_THRESHOLDS,
    RecurrentConceptDriftStream,
    SeaGenerator,
    StaggerGenerator,
    _BLOCK,
    _MAX_INTERNED,
    apply_drift,
    make_rng,
)
from streamtrees.tree import check_shape


def take(stream, n):
    """The next n instances of a stream or a reference stream, in order."""
    return [stream.next_instance() for _ in range(n)]


def stagger_concept(function, size, color, shape):
    """The three STAGGER rules, written out one instance at a time."""
    if function == 1:
        return int(size == SMALL and color == RED)
    if function == 2:
        return int(color == GREEN or shape == CIRCULAR)
    return int(size == MEDIUM or size == LARGE)


# --------------------------------------------------------------------------
# schema / instance plumbing
# --------------------------------------------------------------------------

def test_schema_invariants():
    with pytest.raises(ValueError):
        Schema((), 2)
    with pytest.raises(ValueError):
        Schema((NominalAttribute(3),), 1)
    with pytest.raises(ValueError):
        NominalAttribute(1)
    schema = Schema.uniform_nominal(3, 4, 5)
    assert schema.n_attributes == 3 and schema.attributes[1].n_values == 4 and schema.class_count == 5


def test_check_instance():
    # nominal value ranges are not checked yet: see the xfail tests in test_tree.py
    schema = Schema((NominalAttribute(3), NumericAttribute()), 2)
    check_shape(schema, Instance((2, 0.5), 1))
    check_shape(schema, Instance((2, 0.5), np.int64(1)))
    for bad in (
        Instance((2, 0.5), 2),
        Instance((2, 0.5), -1),
        Instance((2, 0.5), 1.0),
        Instance((2, 0.5), 0, weight=-1.0),
        Instance((2, 0.5), 0, weight=math.nan),
        Instance((2,), 0),
    ):
        with pytest.raises(ValueError):
            check_shape(schema, bad)


# --------------------------------------------------------------------------
# cell tables and the drift operator
# --------------------------------------------------------------------------

def class_of(table, values) -> int:
    """The class of a value cell, looked up with row-major strides (attribute 0 slowest)."""
    idx = 0
    for p, v in zip(table.attribute_value_probs, values):
        idx = idx * len(p) + int(v)
    return int(table.class_assignment[idx])


def test_cell_table_shape_and_invariants():
    rng = make_rng(5)
    table = CellTable.random(rng, 3, 3, 5)
    assert table.n_cells == 27
    for probs in table.attribute_value_probs:
        assert probs.sum() == pytest.approx(1.0, abs=1e-9)
        assert (probs > 0).all()
    assert set(np.unique(table.class_assignment)) <= set(range(5))


def test_apply_drift_zero_magnitude_changes_nothing():
    rng = make_rng(5)
    table = CellTable.random(rng, 3, 3, 5)
    drifted = apply_drift(table, 0.0, rng)
    assert (drifted.class_assignment == table.class_assignment).all()


def test_apply_drift_full_magnitude_changes_every_cell():
    rng = make_rng(9)
    table = CellTable.random(rng, 2, 2, 3)
    drifted = apply_drift(table, 1.0, rng)
    assert (drifted.class_assignment != table.class_assignment).all()
    # attribute probabilities untouched
    for before, after in zip(table.attribute_value_probs, drifted.attribute_value_probs):
        assert (before == after).all()


def test_apply_drift_half_magnitude_changes_14_of_27_cells():
    # round-half-up of 0.5 * 27 = 13.5 is 14
    rng = make_rng(5)
    table = CellTable.random(rng, 3, 3, 5)
    drifted = apply_drift(table, 0.5, rng)
    assert int((drifted.class_assignment != table.class_assignment).sum()) == 14


@pytest.mark.parametrize(
    "n,v", [(2, 2), (2, 3), (3, 2), (4, 2), (2, 4), (3, 3), (3, 4), (4, 3), (4, 4)]
)
def test_apply_drift_exact_counts_exhaustive(n, v):
    rng = make_rng(n * 10 + v)
    table = CellTable.random(rng, n, v, 3)
    cells = v**n
    for magnitude in (0.0, 0.25, 0.5, 0.75, 1.0):
        drifted = apply_drift(table, magnitude, make_rng(77))
        expected = int(np.floor(magnitude * cells + 0.5))
        assert int((drifted.class_assignment != table.class_assignment).sum()) == expected


def apply_drift_loop(table, magnitude, rng):
    """apply_drift as one Python step per chosen cell, drawing the same numbers."""
    n_change = int(math.floor(magnitude * table.n_cells + 0.5))
    assignment = table.class_assignment.copy()
    if n_change:
        chosen = rng.choice(table.n_cells, size=n_change, replace=False)
        draws = rng.integers(0, table.class_count - 1, size=n_change)
        for cell, d in zip(chosen, draws):
            old = assignment[cell]
            assignment[cell] = d if d < old else d + 1
    return assignment


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
@pytest.mark.parametrize("magnitude", [0.0, 0.3, 1.0])
def test_apply_drift_matches_per_cell_loop(seed, magnitude):
    table = CellTable.random(make_rng(seed), 5, 5, 2 + seed % 4)
    drifted = apply_drift(table, magnitude, make_rng(100 + seed))
    reference = apply_drift_loop(table, magnitude, make_rng(100 + seed))
    assert drifted.class_assignment.dtype == reference.dtype
    assert (drifted.class_assignment == reference).all()


def test_apply_drift_rejects_out_of_range():
    rng = make_rng(1)
    table = CellTable.random(rng, 2, 2, 2)
    with pytest.raises(ValueError):
        apply_drift(table, 1.1, rng)
    with pytest.raises(ValueError):
        apply_drift(table, -0.1, rng)


# --------------------------------------------------------------------------
# abrupt drift generator
# --------------------------------------------------------------------------

def test_abrupt_generator_deterministic():
    a = AbruptDriftGenerator(3, 3, 5, 1.0, 200, recurrent=True, seed=2)
    b = AbruptDriftGenerator(3, 3, 5, 1.0, 200, recurrent=True, seed=2)
    assert take(a, 10_000) == take(b, 10_000)


def test_abrupt_generator_label_flips_at_drift_point():
    gen = AbruptDriftGenerator(2, 2, 3, magnitude=1.0, drift_point=100, seed=9)
    for cell in range(4):
        values = (cell >> 1, cell & 1)
        assert class_of(gen.table_before, values) != class_of(gen.table_after, values)
    for t, inst in enumerate(take(gen, 300)):
        table = gen.table_after if t >= 100 else gen.table_before
        assert inst.class_label == class_of(table, inst.values)


def test_recurrent_mode_alternates_with_period():
    gen = AbruptDriftGenerator(2, 2, 3, magnitude=1.0, drift_point=50, recurrent=True, seed=9)
    for t, inst in enumerate(take(gen, 1200)):
        table = gen.table_after if (t // 50) % 2 == 1 else gen.table_before
        assert inst.class_label == class_of(table, inst.values)


def test_abrupt_generator_streams_match_tables():
    gen = AbruptDriftGenerator(2, 3, 4, magnitude=1.0, drift_point=500, seed=4)
    for t, inst in enumerate(take(gen, 1200)):
        table = gen.table_after if t >= 500 else gen.table_before
        assert inst.class_label == class_of(table, inst.values)


def test_empirical_value_frequencies_within_3_sigma():
    gen = AbruptDriftGenerator(3, 4, 2, magnitude=1.0, drift_point=10**9, seed=11)
    n = 100_000
    values = np.array([inst.values for inst in take(gen, n)])
    for attr, probs in enumerate(gen.table_before.attribute_value_probs):
        emp = np.bincount(values[:, attr], minlength=len(probs)) / n
        se = np.sqrt(probs * (1 - probs) / n)
        assert (np.abs(emp - probs) <= 3 * se + 1e-12).all()


# --------------------------------------------------------------------------
# classic generators
# --------------------------------------------------------------------------

def test_stagger_matches_published_concepts():
    for function in (1, 2, 3):
        gen = StaggerGenerator(function=function, seed=3)
        for inst in take(gen, 3000):
            assert inst.class_label == stagger_concept(function, *inst.values)


def test_stagger_function_1_red_small_positive():
    # (size=small, color=red, any shape) is positive under function 1
    for shape in (0, 1, 2):
        assert stagger_concept(1, 0, 0, shape) == 1
    assert stagger_concept(1, 1, 0, 0) == 0


def test_sea_thresholds_and_ranges():
    gen = SeaGenerator(function=2, seed=4)
    for inst in take(gen, 3000):
        assert all(0.0 <= v <= 1.0 for v in inst.values)
        assert inst.class_label == int(inst.values[0] + inst.values[1] <= 0.9)


def test_sea_noise_flips_labels():
    clean = take(SeaGenerator(function=1, noise=0.0, seed=8), 20_000)
    noisy = take(SeaGenerator(function=1, noise=0.2, seed=8), 20_000)
    flipped = sum(
        a.class_label != int(a.values[0] + a.values[1] <= 0.8) for a in noisy
    )
    assert 0 == sum(c.class_label != int(c.values[0] + c.values[1] <= 0.8) for c in clean)
    assert abs(flipped / 20_000 - 0.2) < 0.02


def test_hyperplane_deterministic_and_balanced():
    a = HyperplaneGenerator(10, 10, 0.001, seed=2)
    b = HyperplaneGenerator(10, 10, 0.001, seed=2)
    xs = take(a, 30_000)
    assert xs == take(b, 30_000)
    rate = sum(i.class_label for i in xs) / len(xs)
    assert 0.35 < rate < 0.65
    assert all(0.0 <= v <= 1.0 for v in xs[0].values)


def test_hyperplane_rejects_bad_drift_count():
    with pytest.raises(ValueError):
        HyperplaneGenerator(n_attributes=5, drift_attributes=6)


# --------------------------------------------------------------------------
# recurrent wrapper
# --------------------------------------------------------------------------

def _wrapper(position=2000, period=2000, width=100):
    return RecurrentConceptDriftStream(
        StaggerGenerator(2, seed=2), StaggerGenerator(3, seed=3),
        position=position, period=period, width=width, seed=1,
    )


def test_wrapper_sigmoid_profile():
    w = _wrapper()
    assert w.prob_drift_stream(0) == 0.0
    assert w.prob_drift_stream(2000) == pytest.approx(0.5)
    assert w.prob_drift_stream(3000) == pytest.approx(1.0, abs=1e-12)
    # second transition leads back to the base stream
    assert w.prob_drift_stream(4000) == pytest.approx(0.5)
    assert w.prob_drift_stream(5000) == pytest.approx(0.0, abs=1e-12)


def test_wrapper_concepts_alternate():
    w = _wrapper()
    insts = take(w, 8000)
    def err_against(function, chunk):
        return sum(i.class_label != stagger_concept(function, *i.values) for i in chunk) / len(chunk)
    assert err_against(2, insts[:1500]) == 0.0
    assert err_against(3, insts[2500:3500]) == 0.0
    assert err_against(2, insts[4500:5500]) == 0.0


def test_wrapper_deterministic():
    assert take(_wrapper(), 5000) == take(_wrapper(), 5000)


def test_wrapper_requires_matching_schemas():
    with pytest.raises(ValueError):
        RecurrentConceptDriftStream(
            StaggerGenerator(1, seed=1), SeaGenerator(1, seed=1), 100, 100, 10
        )


# --------------------------------------------------------------------------
# nominal streams hand out one shared Instance per distinct draw
# --------------------------------------------------------------------------

@pytest.mark.parametrize(
    "make",
    [lambda: StaggerGenerator(2, seed=3), lambda: AbruptDriftGenerator(3, 3, 4, 1.0, 700, True, seed=3)],
    ids=["stagger", "abrupt"],
)
def test_equal_nominal_draws_are_one_object(make):
    drawn = take(make(), 3 * _BLOCK)
    first = {}
    for inst in drawn:
        assert first.setdefault((inst.values, inst.class_label), inst) is inst
    assert len(first) < len(drawn)  # some draws were repeats


def test_instance_cache_never_exceeds_its_bound():
    # 2**20 cells, so almost every draw is a new (cell, class) key
    gen = AbruptDriftGenerator(20, 2, 2, magnitude=0.0, drift_point=10**9, seed=5)
    largest = 0
    for _ in range(3 * _MAX_INTERNED // _BLOCK):
        take(gen, _BLOCK)
        assert len(gen._cache) <= _MAX_INTERNED
        largest = max(largest, len(gen._cache))
    assert largest > _MAX_INTERNED - _BLOCK  # the cache filled up to the bound, then was emptied


# --------------------------------------------------------------------------
# reference oracle: the per-instance generators the block streams replaced
# --------------------------------------------------------------------------

class ReferenceStream:
    """Hands out one instance at a time from a list that ``_arrays`` refills.

    Each subclass keeps a generator's sampling as it was written before the
    streams built and handed out whole blocks in C; instances are built one
    row at a time with ``Instance(tuple(row), int(y))``.
    """

    def __init__(self):
        self._buffer, self._pos = [], 0

    def next_instance(self):
        if self._pos >= len(self._buffer):
            rows, labels = self._arrays()
            self._buffer = [Instance(tuple(row), int(y)) for row, y in zip(rows.tolist(), labels.tolist())]
            self._pos = 0
        inst = self._buffer[self._pos]
        self._pos += 1
        return inst


class ReferenceAbrupt(ReferenceStream):
    def __init__(self, n_attributes, n_values, class_count, magnitude, drift_point,
                 recurrent=False, seed=1):
        super().__init__()
        self.drift_point, self.recurrent, self._t = drift_point, recurrent, 0
        self._rng = make_rng(seed)
        self.table_before = CellTable.random(self._rng, n_attributes, n_values, class_count)
        self.table_after = apply_drift(self.table_before, magnitude, self._rng)
        self._cum = [np.cumsum(p) for p in self.table_before.attribute_value_probs]

    def _arrays(self):
        n_attr = len(self._cum)
        u = self._rng.random((1024, n_attr))
        values = np.empty((1024, n_attr), dtype=np.int64)
        for i, cum in enumerate(self._cum):
            values[:, i] = np.searchsorted(cum, u[:, i], side="right")
            np.clip(values[:, i], 0, len(cum) - 1, out=values[:, i])
        cells = np.zeros(1024, dtype=np.int64)
        for i, cum in enumerate(self._cum):
            cells = cells * len(cum) + values[:, i]
        ts = np.arange(self._t, self._t + 1024)
        after = (ts // self.drift_point) % 2 == 1 if self.recurrent else ts >= self.drift_point
        labels = np.where(
            after, self.table_after.class_assignment[cells], self.table_before.class_assignment[cells]
        )
        self._t += 1024
        return values, labels


class ReferenceStagger(ReferenceStream):
    def __init__(self, function, seed):
        super().__init__()
        self.function, self._rng = function, make_rng(seed)

    def _arrays(self):
        vals = self._rng.integers(0, 3, size=(1024, 3))
        labels = [stagger_concept(self.function, *row) for row in vals.tolist()]
        return vals, np.array(labels)


class ReferenceSea(ReferenceStream):
    def __init__(self, function, noise, seed):
        super().__init__()
        self.threshold, self.noise, self._rng = SEA_THRESHOLDS[function], noise, make_rng(seed)

    def _arrays(self):
        x = self._rng.random((1024, 3))
        labels = (x[:, 0] + x[:, 1] <= self.threshold).astype(int)
        if self.noise > 0.0:
            labels = labels ^ (self._rng.random(1024) < self.noise)
        return x, labels


class ReferenceHyperplane(ReferenceStream):
    def __init__(self, n_attributes, drift_attributes, magnitude, sigma, noise, seed):
        super().__init__()
        self.d, self.k, self.magnitude, self.sigma, self.noise = (
            n_attributes, drift_attributes, magnitude, sigma, noise
        )
        self._rng = make_rng(seed)
        self._weights = self._rng.random(n_attributes)
        self._directions = np.ones(drift_attributes)

    def _arrays(self):
        x = self._rng.random((1024, self.d))
        w = np.tile(self._weights, (1024, 1))
        if self.k and self.magnitude:
            signs = np.where(self._rng.random((1024, self.k)) < self.sigma, -1.0, 1.0)
            signs[0] *= self._directions
            dirs = np.cumprod(signs, axis=0)
            w[:, : self.k] += np.cumsum(dirs * self.magnitude, axis=0)
            self._weights, self._directions = w[-1].copy(), dirs[-1]
        labels = ((w * x).sum(axis=1) >= w.sum(axis=1) / 2.0).astype(int)
        if self.noise > 0.0:
            labels = labels ^ (self._rng.random(1024) < self.noise)
        return x, labels


class ReferenceRecurrent:
    """The sigmoid evaluated, and a sub-stream read, once per instance."""

    def __init__(self, base, drift, position, period, width, seed):
        self.base, self.drift = base, drift
        self.position, self.period, self.width = position, period, width
        self._rng = make_rng(seed)
        self._t, self._u, self._upos = 0, np.empty(0), 0

    def prob_drift_stream(self, t):
        m = max(0, round((t - self.position) / self.period))
        z = 4.0 * (t - (self.position + m * self.period)) / self.width
        sig = 1.0 if z > 60 else 0.0 if z < -60 else 1.0 / (1.0 + math.exp(-z))
        return sig if m % 2 == 0 else 1.0 - sig

    def next_instance(self):
        p = self.prob_drift_stream(self._t)
        self._t += 1
        if 0.0 < p < 1.0:
            if self._upos >= len(self._u):
                self._u, self._upos = self._rng.random(1024), 0
            pick_drift = float(self._u[self._upos]) < p
            self._upos += 1
        else:
            pick_drift = p >= 1.0
        return self.drift.next_instance() if pick_drift else self.base.next_instance()


def assert_same_stream(stream, reference, n=3 * 1024 + 517):
    got, want = take(stream, n), take(reference, n)
    assert got == want
    for g, w in zip(got, want):
        assert type(g) is Instance and type(g.class_label) is int and type(g.weight) is float
        assert type(g.values) is tuple
        assert [type(v) for v in g.values] == [type(v) for v in w.values]


@pytest.mark.parametrize(
    "stream,reference,args",
    [
        (AbruptDriftGenerator, ReferenceAbrupt, (3, 4, 5, 0.5, 1500)),
        (AbruptDriftGenerator, ReferenceAbrupt, (3, 4, 5, 0.5, 700, True)),
        (StaggerGenerator, ReferenceStagger, (1,)),
        (StaggerGenerator, ReferenceStagger, (3,)),
        (SeaGenerator, ReferenceSea, (2, 0.0)),
        (SeaGenerator, ReferenceSea, (4, 0.15)),
        (HyperplaneGenerator, ReferenceHyperplane, (5, 0, 0.0, 0.1, 0.0)),
        (HyperplaneGenerator, ReferenceHyperplane, (10, 4, 0.01, 0.1, 0.1)),
    ],
)
def test_block_streams_match_per_instance_reference(stream, reference, args):
    assert_same_stream(stream(*args, seed=3), reference(*args, seed=3))


def test_build_stream_abrupt_recurrent_matches_reference():
    built = build_stream("AbruptDriftGenerator -d Recurrent -n 3 -z 3 -v 4 -o 1.0 -b 900 -r 7")
    assert_same_stream(built, ReferenceAbrupt(3, 3, 4, 1.0, 900, recurrent=True, seed=7))


def _recurrent(classes, position, period, width, nested=False):
    Recurrent, Stagger = classes
    drift = Stagger(3, seed=3)
    if nested:
        drift = Recurrent(drift, Stagger(1, seed=8), 600, 450, 25, seed=9)
    return Recurrent(Stagger(2, seed=2), drift, position, period, width, seed=1)


@pytest.mark.parametrize(
    "position,period,width,nested",
    [
        (2000, 2000, 100, False),  # the testbench row, scaled down
        (1500, 1000, 20, False),  # position inside a block, windows apart
        (700, 300, 40, False),  # windows overlap: period < 30 * width
        (5, 1, 1, False),  # a concept change on every instance
        (1300, 800, 30, True),  # a recurrent stream as a sub-stream
    ],
)
def test_recurrent_stream_matches_per_instance_reference(position, period, width, nested):
    stream = _recurrent((RecurrentConceptDriftStream, StaggerGenerator), position, period, width, nested)
    reference = _recurrent((ReferenceRecurrent, ReferenceStagger), position, period, width, nested)
    assert_same_stream(stream, reference)
    # both draw the same uniforms up to the next block boundary and over the two blocks after it
    assert take(stream, 1024 - 517) == take(reference, 1024 - 517)
    assert take(stream, 2 * 1024) == take(reference, 2 * 1024)


@settings(max_examples=60, deadline=None)
@given(pulls=st.lists(st.booleans(), max_size=5000))
def test_interleaved_pulls_leave_each_sequence_unchanged(pulls):
    def pair():
        return _recurrent((RecurrentConceptDriftStream, StaggerGenerator), 900, 700, 40), SeaGenerator(
            3, noise=0.1, seed=4
        )

    a, b = pair()
    got = ([], [])
    for first in pulls:
        got[0 if first else 1].append((a if first else b).next_instance())
    fresh_a, fresh_b = pair()
    assert got[0] == take(fresh_a, len(got[0]))
    assert got[1] == take(fresh_b, len(got[1]))
