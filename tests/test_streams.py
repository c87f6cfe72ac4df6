import numpy as np
import pytest

from streamtrees.schema import NominalAttribute, NumericAttribute, Schema, Instance, check_instance
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
    RecurrentConceptDriftStream,
    SeaGenerator,
    StaggerGenerator,
    apply_drift,
    make_rng,
)


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
    assert schema.n_attributes == 3 and schema.n_values(1) == 4 and schema.class_count == 5


def test_check_instance():
    schema = Schema((NominalAttribute(3), NumericAttribute()), 2)
    check_instance(schema, Instance((2, 0.5), 1))
    with pytest.raises(ValueError):
        check_instance(schema, Instance((3, 0.5), 1))
    with pytest.raises(ValueError):
        check_instance(schema, Instance((2, 0.5), 2))
    with pytest.raises(ValueError):
        check_instance(schema, Instance((2, 0.5), 0, weight=-1.0))
    with pytest.raises(ValueError):
        check_instance(schema, Instance((2,), 0))


# --------------------------------------------------------------------------
# cell tables and the drift operator
# --------------------------------------------------------------------------

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
    assert a.take(10_000) == b.take(10_000)


def test_abrupt_generator_label_flips_at_drift_point():
    gen = AbruptDriftGenerator(2, 2, 3, magnitude=1.0, drift_point=100, seed=9)
    for cell in range(4):
        values = (cell >> 1, cell & 1)
        assert gen.table_at(99).class_of(values) != gen.table_at(100).class_of(values)


def test_recurrent_mode_alternates_with_period():
    gen = AbruptDriftGenerator(2, 2, 3, magnitude=1.0, drift_point=50, recurrent=True, seed=9)
    for t in (0, 10, 60, 149):
        assert gen.table_at(t) is gen.table_at(t + 100)
    assert gen.table_at(10) is not gen.table_at(60)


def test_abrupt_generator_streams_match_tables():
    gen = AbruptDriftGenerator(2, 3, 4, magnitude=1.0, drift_point=500, seed=4)
    for t, inst in enumerate(gen.take(1200)):
        assert inst.class_label == gen.table_at(t).class_of(inst.values)


def test_empirical_value_frequencies_within_3_sigma():
    gen = AbruptDriftGenerator(3, 4, 2, magnitude=1.0, drift_point=10**9, seed=11)
    n = 100_000
    values = np.array([inst.values for inst in gen.take(n)])
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
        for inst in gen.take(3000):
            assert inst.class_label == stagger_concept(function, *inst.values)


def test_stagger_function_1_red_small_positive():
    # (size=small, color=red, any shape) is positive under function 1
    for shape in (0, 1, 2):
        assert stagger_concept(1, 0, 0, shape) == 1
    assert stagger_concept(1, 1, 0, 0) == 0


def test_sea_thresholds_and_ranges():
    gen = SeaGenerator(function=2, seed=4)
    for inst in gen.take(3000):
        assert all(0.0 <= v <= 1.0 for v in inst.values)
        assert inst.class_label == int(inst.values[0] + inst.values[1] <= 0.9)


def test_sea_noise_flips_labels():
    clean = SeaGenerator(function=1, noise=0.0, seed=8).take(20_000)
    noisy = SeaGenerator(function=1, noise=0.2, seed=8).take(20_000)
    flipped = sum(
        a.class_label != int(a.values[0] + a.values[1] <= 0.8) for a in noisy
    )
    assert 0 == sum(c.class_label != int(c.values[0] + c.values[1] <= 0.8) for c in clean)
    assert abs(flipped / 20_000 - 0.2) < 0.02


def test_hyperplane_deterministic_and_balanced():
    a = HyperplaneGenerator(10, 10, 0.001, seed=2)
    b = HyperplaneGenerator(10, 10, 0.001, seed=2)
    xs = a.take(30_000)
    assert xs == b.take(30_000)
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
    insts = w.take(8000)
    def err_against(function, chunk):
        return sum(i.class_label != stagger_concept(function, *i.values) for i in chunk) / len(chunk)
    assert err_against(2, insts[:1500]) == 0.0
    assert err_against(3, insts[2500:3500]) == 0.0
    assert err_against(2, insts[4500:5500]) == 0.0


def test_wrapper_deterministic():
    assert _wrapper().take(5000) == _wrapper().take(5000)


def test_wrapper_requires_matching_schemas():
    with pytest.raises(ValueError):
        RecurrentConceptDriftStream(
            StaggerGenerator(1, seed=1), SeaGenerator(1, seed=1), 100, 100, 10
        )
