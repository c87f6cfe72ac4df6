import math
import tracemalloc

import numpy as np
import pytest

import streamtrees.tree as tree_module
from streamtrees.hat import HatConfig, HoeffdingAdaptiveTreeClassifier
from streamtrees.schema import Instance, NumericAttribute, Schema
from streamtrees.specparse import build_stream
from streamtrees.tree import (
    AVERAGED,
    EVISCERATE,
    NO_SPLIT,
    NODE_TIME,
    RESPLIT,
    SPLIT,
    HoeffdingTreeClassifier,
    LearningLeaf,
    Position,
    SplitNode,
    StrategyConfig,
    entropy,
    evaluate_split,
    _gain_with_split,
    hoeffding_bound,
    learn_at_leaf,
    perform_split,
    walk,
)


def weighted_entropy_oracle(rows):
    """Brute-force H(parent) - sum w_j H(child_j) over explicit count rows."""
    def h(counts):
        total = sum(counts)
        if total == 0:
            return 0.0
        return -sum(c / total * math.log2(c / total) for c in counts if c > 0)
    parent = [sum(col) for col in zip(*rows)]
    total = sum(parent)
    children = sum(sum(r) / total * h(r) for r in rows if sum(r) > 0)
    return h(parent) - children


def info_gain(leaf, class_dist, attribute):
    """Information gain of splitting on one attribute, parent entropy from class_dist."""
    return _gain_with_split(leaf, entropy(class_dist, sum(class_dist)), attribute)[0]


def observed_mass(leaf, attr):
    """Class weight a nominal attribute's observer has seen since leaf creation."""
    return sum(sum(row) for row in leaf.nominal[attr])


def fill_leaf(schema, pairs):
    """Build a leaf from (values, label) or (values, label, weight) tuples.

    Counts each tuple in ``node_time`` as the learn step does, without
    evaluating a split.
    """
    leaf = LearningLeaf(schema)
    for entry in pairs:
        values, label = entry[0], entry[1]
        weight = entry[2] if len(entry) > 2 else 1.0
        leaf.node_time += 1
        leaf.learn(values, label, weight)
    return leaf


# --------------------------------------------------------------------------
# merit primitives
# --------------------------------------------------------------------------

def test_entropy_values():
    assert entropy([0.5, 0.5], 1.0) == 1.0
    assert entropy([1.0, 0.0], 1.0) == 0.0
    assert entropy([0.5, 0.25, 0.25], 1.0) == pytest.approx(1.5, abs=1e-12)
    assert entropy([0.0, 0.0], 0.0) == 0.0
    assert entropy([], 0.0) == 0.0


def test_hoeffding_bound_values():
    assert hoeffding_bound(1.0, 0.05, 100) == pytest.approx(0.12239, abs=5e-6)
    # quadrupling n halves epsilon
    assert hoeffding_bound(1.0, 0.05, 100) == pytest.approx(
        2 * hoeffding_bound(1.0, 0.05, 400), abs=1e-12
    )
    assert hoeffding_bound(0.0, 0.3, 10) == 0.0


def test_hoeffding_bound_preconditions():
    with pytest.raises(ValueError, match="observations"):
        hoeffding_bound(1.0, 0.05, 0)
    with pytest.raises(ValueError):
        hoeffding_bound(1.0, 0.0, 10)
    with pytest.raises(ValueError):
        hoeffding_bound(-1.0, 0.5, 10)


def test_info_gain_perfect_separator():
    schema = Schema.uniform_nominal(2, 2, 2)
    leaf = fill_leaf(schema, [((0, 0), 0)] * 50 + [((1, 1), 1)] * 50)
    assert info_gain(leaf, leaf.class_dist, 0) == pytest.approx(1.0, abs=1e-12)


def test_info_gain_constant_attribute_is_exactly_zero():
    schema = Schema.uniform_nominal(2, 2, 2)
    leaf = fill_leaf(schema, [((0, 0), 0)] * 10 + [((0, 1), 1)] * 10)
    assert info_gain(leaf, leaf.class_dist, 0) == 0.0


def test_info_gain_unobserved_attribute_is_zero():
    schema = Schema.uniform_nominal(1, 3, 2)
    leaf = LearningLeaf(schema)
    assert info_gain(leaf, leaf.class_dist, 0) == 0.0


def test_info_gain_against_bruteforce_oracle():
    # counts: value0 -> (8, 2), value1 -> (2, 8)
    schema = Schema.uniform_nominal(2, 2, 2)
    pairs = []
    for count, value, label in [(8, 0, 0), (2, 0, 1), (2, 1, 0), (8, 1, 1)]:
        pairs += [((value, 0), label)] * count
    leaf = fill_leaf(schema, pairs)
    gain = info_gain(leaf, leaf.class_dist, 0)
    assert gain == pytest.approx(0.2781, abs=5e-5)
    assert gain == pytest.approx(weighted_entropy_oracle([[8, 2], [2, 8]]), abs=1e-12)


def test_info_gain_goes_negative_when_inherited_mass_is_purer():
    # leaf created with a pure inherited distribution, then mixed observations
    schema = Schema.uniform_nominal(2, 2, 2)
    leaf = LearningLeaf(schema, class_dist=[1000.0, 0.0])
    for values, label in [((0, 0), 0), ((0, 1), 1), ((1, 0), 1), ((1, 1), 0)] * 50:
        leaf.learn(values, label, 1.0)
    assert info_gain(leaf, leaf.class_dist, 0) < 0.0
    assert info_gain(leaf, leaf.class_dist, 1) < 0.0


def test_numeric_info_gain_threshold():
    schema = Schema((NumericAttribute(),), 2)
    leaf = LearningLeaf(schema)
    for i in range(200):
        x = i / 200.0
        leaf.learn((x,), int(x >= 0.5), 1.0)
    gain = info_gain(leaf, leaf.class_dist, 0)
    assert gain > 0.5  # near-perfect split exists around 0.5


# --------------------------------------------------------------------------
# training behavior
# --------------------------------------------------------------------------

def test_pure_accumulation_counts():
    schema = Schema.uniform_nominal(2, 3, 3)
    tree = HoeffdingTreeClassifier(schema)
    for _ in range(10):
        tree.train(Instance((0, 1), 0))
    leaf = tree.root.mainline
    assert leaf.class_dist == [10.0, 0.0, 0.0]
    assert leaf.node_time == 10


def test_weighted_instance_updates_mass_not_node_time():
    schema = Schema.uniform_nominal(1, 2, 2)
    tree = HoeffdingTreeClassifier(schema)
    tree.train(Instance((0,), 1, weight=3.0))
    assert tree.root.mainline.total_weight == 3.0
    assert tree.root.mainline.node_time == 1


def test_split_evaluations_follow_grace_cadence():
    # in averaged mode eval_count counts evaluations directly
    schema = Schema.uniform_nominal(2, 2, 2)
    config = StrategyConfig(infogain_mode=AVERAGED, counter_mode=NODE_TIME)
    tree = HoeffdingTreeClassifier(schema, config)
    assert tree_module.GRACE_PERIOD == 200
    for i in range(399):
        tree.train(Instance((i % 2, (i // 2) % 2), i % 2))
    assert tree.root.mainline.eval_count == 1
    tree.train(Instance((1, 0), 0))
    assert tree.root.mainline.eval_count == 2


def test_pure_leaf_never_evaluates(monkeypatch):
    monkeypatch.setattr(tree_module, "GRACE_PERIOD", 100)
    schema = Schema.uniform_nominal(2, 2, 2)
    config = StrategyConfig(infogain_mode=AVERAGED, counter_mode=NODE_TIME)
    tree = HoeffdingTreeClassifier(schema, config)
    for i in range(1000):
        tree.train(Instance((i % 2, 0), 0))
    assert tree.root.mainline.eval_count == 0
    assert isinstance(tree.root.mainline, LearningLeaf)


def test_predict_fresh_tree_falls_back_to_class_zero():
    schema = Schema.uniform_nominal(1, 2, 4)
    tree = HoeffdingTreeClassifier(schema)
    assert tree.predict_label(Instance((0,), 0)) == 0
    assert walk(tree.root, (1,))[-1].mainline.class_dist == [0.0] * 4


def test_predict_majority_and_routing():
    schema = Schema.uniform_nominal(2, 2, 2)
    tree = HoeffdingTreeClassifier(schema)
    for _ in range(100):
        tree.train(Instance((0, 0), 1))
    assert tree.predict_label(Instance((1, 1), 0)) == 1
    # force a split and check routing reaches the right child distribution
    for _ in range(5000):
        tree.train(Instance((0, 0), 0))
        tree.train(Instance((0, 1), 1))
    assert isinstance(tree.root.mainline, SplitNode)
    dist_left = walk(tree.root, (0, 0))[-1].mainline.class_dist
    dist_right = walk(tree.root, (0, 1))[-1].mainline.class_dist
    assert dist_left.index(max(dist_left)) == 0
    assert dist_right.index(max(dist_right)) == 1


def test_argmax_tie_breaks_to_lowest_index():
    schema = Schema.uniform_nominal(1, 2, 3)
    tree = HoeffdingTreeClassifier(schema)
    tree.train(Instance((0,), 2))
    tree.train(Instance((0,), 1))
    assert tree.predict_label(Instance((0,), 0)) == 1


# --------------------------------------------------------------------------
# split decisions
# --------------------------------------------------------------------------

def _two_attr_leaf(separator_strength):
    """Attribute 0 separates classes with given strength; attribute 1 is noise."""
    schema = Schema.uniform_nominal(2, 2, 2)
    pairs = []
    n = 400
    for i in range(n):
        label = i % 2
        v0 = label if i % 100 < separator_strength else 1 - label
        pairs.append(((v0, (i // 2) % 2), label))
    return fill_leaf(schema, pairs)


def test_clear_gap_splits():
    leaf = _two_attr_leaf(100)  # attribute 0 is perfect
    decision = evaluate_split(leaf, StrategyConfig())
    assert decision.action == SPLIT
    assert decision.best_attribute == 0
    assert decision.best_merit >= decision.second_merit


def test_small_gap_with_large_epsilon_does_not_split():
    schema = Schema.uniform_nominal(2, 2, 2)
    # weak separator on 30 instances: gain gap well under epsilon(30) = 0.73
    pairs = []
    for i in range(30):
        label = i % 2
        v0 = label if i % 10 < 6 else 1 - label
        pairs.append(((v0, (i // 2) % 2), label))
    leaf = fill_leaf(schema, pairs)
    decision = evaluate_split(leaf, StrategyConfig(counter_mode=NODE_TIME, tau=0.0))
    assert decision.epsilon > decision.best_merit - decision.second_merit
    assert decision.action == NO_SPLIT


def test_tie_split_when_epsilon_below_tau():
    schema = Schema.uniform_nominal(2, 2, 2)
    # two identical perfect separators: zero gap, splits only via the tie rule
    pairs = [((0, 0), 0)] * 5000 + [((1, 1), 1)] * 5000
    leaf = fill_leaf(schema, pairs)
    decision = evaluate_split(leaf, StrategyConfig())
    assert decision.epsilon < StrategyConfig().tau
    assert decision.action == SPLIT
    assert decision.best_attribute == 0  # lowest index wins the tie


def test_null_split_wins_when_all_gains_negative():
    schema = Schema.uniform_nominal(1, 2, 2)
    leaf = LearningLeaf(schema, class_dist=[5000.0, 0.0])
    for values, label in [((0,), 0), ((0,), 1), ((1,), 0), ((1,), 1)] * 500:
        leaf.learn(values, label, 1.0)
    decision = evaluate_split(leaf, StrategyConfig())
    assert decision.best_attribute is None
    assert decision.action == NO_SPLIT


def test_used_attribute_wins_at_zero_gain_under_drift():
    """All unused attributes negative, used attribute exactly zero: resplit."""
    schema = Schema.uniform_nominal(2, 2, 2)
    leaf = LearningLeaf(schema, class_dist=[5000.0, 0.0], used_attributes={0})
    # observed: attribute 0 constant (path-fixed), attribute 1 uninformative,
    # labels mixed, so the inherited-pure parent makes attr 1's gain negative
    for values, label in [((1, 0), 0), ((1, 1), 1), ((1, 0), 1), ((1, 1), 0)] * 1000:
        leaf.learn(values, label, 1.0)
    assert info_gain(leaf, leaf.class_dist, 1) < 0.0
    resplit_decision = evaluate_split(leaf, StrategyConfig(used_attribute_policy="resplit"))
    assert resplit_decision.action == RESPLIT
    assert resplit_decision.best_attribute == 0
    assert resplit_decision.best_merit == 0.0
    evisc_decision = evaluate_split(leaf, StrategyConfig(used_attribute_policy="eviscerate"))
    assert evisc_decision.action == EVISCERATE
    # under the default policy the used attribute is no candidate at all
    plain = evaluate_split(leaf, StrategyConfig())
    assert plain.action == NO_SPLIT


# --------------------------------------------------------------------------
# performing splits
# --------------------------------------------------------------------------

def test_amnesiac_children_start_with_zero_statistics():
    schema = Schema.uniform_nominal(2, 2, 2)
    pairs = [((0, i % 2), 0) for i in range(300)] + [((1, i % 2), 1) for i in range(300)]
    leaf = fill_leaf(schema, pairs)
    decision = evaluate_split(leaf, StrategyConfig())
    node = perform_split(leaf, decision, StrategyConfig(), Position)
    assert isinstance(node, SplitNode)
    assert len(node.children) == 2
    for j, position in enumerate(node.children):
        child = position.mainline
        assert observed_mass(child, 0) == 0.0
        assert observed_mass(child, 1) == 0.0
        # class distribution derived from the parent's counts for this branch
        assert child.class_dist == leaf.nominal[decision.best_attribute][j]


def assert_children_match_replay_recount(class_count, label_of):
    """Buffer 900 weighted instances in one eidetic leaf, split it, and check
    each child against a brute-force recount of the instances routed to it.

    ``label_of[v]`` is the label of every instance whose attribute 0 is ``v``.
    """
    schema = Schema.uniform_nominal(2, 3, class_count)
    config = StrategyConfig(eidetic=True)
    leaf = LearningLeaf(schema, eidetic=True)
    position = Position(leaf)
    # zero, fractional and integer weights; dyadic, so every sum is exact
    weights = (0.0, 0.5, 1.0, 2.0, 0.25, 0.0, 3.0)
    instances = []
    with pytest.MonkeyPatch.context() as mp:
        # a grace period past the stream's end: the learn step buffers, never splits
        mp.setattr(tree_module, "GRACE_PERIOD", 10_000)
        for i in range(900):
            inst = Instance((i % 3, (i // 3) % 3), label_of[i % 3], weights[(i // 9) % len(weights)])
            instances.append(inst)
            learn_at_leaf(position, *inst, config, Position)
            assert position.mainline is leaf
    assert leaf.node_time == 900
    assert 0.0 not in [weight for _, _, weight in leaf.buffered()]
    decision = evaluate_split(leaf, config)
    assert decision.action == SPLIT
    node = perform_split(leaf, decision, config, Position)
    attr = decision.best_attribute
    for j, position in enumerate(node.children):
        child = position.mainline
        routed = [inst for inst in instances if inst.values[attr] == j and inst.weight > 0.0]
        # brute-force recount of n_ijk and the class mass of the routed instances
        for a in range(2):
            for v in range(3):
                for c in range(class_count):
                    expected = 0.0
                    for inst in routed:
                        if inst.values[a] == v and inst.class_label == c:
                            expected += inst.weight
                    assert child.nominal[a][v][c] == expected
        mass = [0.0] * class_count
        for inst in routed:
            mass[inst.class_label] += inst.weight
        assert child.class_dist == mass
        assert child.total_weight == sum(mass)
        assert child.node_time == 0
        # the child's columns hold the routed instances, in learn order
        assert list(child.buffered()) == [tuple(inst) for inst in routed]
    return leaf


def test_eidetic_children_match_replay_recount():
    leaf = assert_children_match_replay_recount(2, (1, 0, 0))
    assert type(leaf.buffer_labels) is bytearray


def test_eidetic_children_match_replay_recount_past_256_classes():
    # labels past 255 do not fit a bytearray: the label column is a list
    leaf = assert_children_match_replay_recount(300, (299, 150, 0))
    assert type(leaf.buffer_labels) is list


def test_eidetic_buffer_shares_a_nominal_streams_values():
    stream = build_stream("AbruptDriftGenerator -o 1.0 -z 3 -n 3 -v 2 -b 100000 -r 1")
    tree = HoeffdingTreeClassifier(stream.schema, StrategyConfig(eidetic=True))
    for _ in range(5_000):
        instance = stream.next_instance()
        tree.train(instance)
        leaf = walk(tree.root, instance.values)[-1].mainline
        assert leaf.buffer[-1] is instance.values
        assert leaf.buffer_labels[-1] == instance.class_label
        assert leaf.buffer_weights[-1] == instance.weight
    assert len(tree.leaves()) > 1
    # one values tuple per drawn cell, however many entries buffer it
    assert len({id(values) for leaf in tree.leaves() for values in leaf.buffer}) <= 27


def test_eidetic_buffer_costs_at_most_12_bytes_per_entry():
    # a values slot and a label byte cost about 9.3 bytes an entry; one
    # tuple per entry and its list slot cost 72
    stream = build_stream("STAGGERGenerator -i 2 -f 2")
    tracemalloc.start()
    try:
        tree = HoeffdingTreeClassifier(stream.schema, StrategyConfig(eidetic=True))
        for _ in range(20_000):
            tree.train(stream.next_instance())
        leaves = tree.leaves()
        entries = sum(len(leaf.buffer) for leaf in leaves)
        before = tracemalloc.get_traced_memory()[0]
        for leaf in leaves:
            for column in (leaf.buffer, leaf.buffer_labels, leaf.buffer_weights, leaf.buffer_runs):
                del column[:]
        freed = before - tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(leaves) > 1
    assert entries == 20_000
    assert 0 < freed <= 12 * entries


def test_resplit_routes_all_traffic_to_the_path_child():
    schema = Schema.uniform_nominal(2, 3, 2)
    leaf = LearningLeaf(schema, class_dist=[3000.0, 0.0], used_attributes={0})
    for i in range(4000):
        leaf.learn((1, i % 3), i % 2, 1.0)
    decision = evaluate_split(leaf, StrategyConfig(used_attribute_policy="resplit"))
    assert decision.action == RESPLIT
    node = perform_split(leaf, decision, StrategyConfig(used_attribute_policy="resplit"), Position)
    assert len(node.children) == 3
    # every instance at this leaf had value 1, so only child 1 is reachable
    assert node.branch((1, 0)) == 1
    reachable = node.children[1].mainline
    assert sum(reachable.class_dist) == pytest.approx(4000.0)
    assert sum(node.children[0].mainline.class_dist) == 0.0
    assert sum(node.children[2].mainline.class_dist) == 0.0
    assert 0 in reachable.used_attributes


def test_eviscerate_clears_everything_in_place():
    schema = Schema.uniform_nominal(2, 2, 2)
    leaf = LearningLeaf(schema, class_dist=[5000.0, 100.0], used_attributes={0})
    for i in range(1000):
        leaf.learn((1, (i // 2) % 2), i % 2, 1.0)
    decision = evaluate_split(leaf, StrategyConfig(used_attribute_policy="eviscerate"))
    assert decision.action == EVISCERATE
    result = perform_split(leaf, decision, StrategyConfig(used_attribute_policy="eviscerate"), Position)
    assert result is None
    assert leaf.class_dist == [0.0, 0.0]
    assert leaf.total_weight == 0.0
    assert leaf.node_time == 0
    assert observed_mass(leaf, 1) == 0.0
    # all-zero distribution falls back to class 0
    schema_tree = HoeffdingTreeClassifier(schema, StrategyConfig(used_attribute_policy="eviscerate"))
    schema_tree.root = Position(leaf)
    assert schema_tree.predict_label(Instance((1, 0), 1)) == 0


both_trees = pytest.mark.parametrize("make_tree", [
    lambda schema: HoeffdingTreeClassifier(schema, StrategyConfig(eidetic=True)),
    lambda schema: HoeffdingAdaptiveTreeClassifier(schema, HatConfig(eidetic=True)),
], ids=["vfdt", "hat"])


def _trained_on_300(make_tree, row="STAGGERGenerator -i 2 -f 2"):
    stream = build_stream(row)
    tree = make_tree(stream.schema)
    for _ in range(300):
        tree.train(stream.next_instance())
    return tree, stream


# 1e308 is finite, but four of them summed in a leaf overflow to inf
@pytest.mark.parametrize("weight", [-1.0, math.nan, math.inf, 1e308, math.nextafter(2.0**53, math.inf)])
@both_trees
def test_train_rejects_bad_weight_without_changing_state(make_tree, weight):
    tree, stream = _trained_on_300(make_tree)
    before = tree.dump()
    values, label, _ = stream.next_instance()
    bad = Instance(values, label, weight)
    tree.predict_label(bad)
    with pytest.raises(ValueError, match="weight"):
        tree.train(bad)
    assert tree.dump() == before
    # weight 0 stays legal: Poisson weighting draws it; so does the largest weight
    tree.train(Instance(values, label, 0.0))
    tree.train(Instance(values, label, 2.0**53))


@both_trees
def test_train_rejects_float_label_without_changing_state(make_tree):
    tree, stream = _trained_on_300(make_tree)
    before = tree.dump()
    values, label, _ = stream.next_instance()
    bad = Instance(values, float(label))
    tree.predict_label(bad)
    with pytest.raises(ValueError, match="label"):
        tree.train(bad)
    assert tree.dump() == before
    # a numpy integer label stays legal
    tree.train(Instance(values, np.int64(label)))


# Each bad value must raise before any state changes.
@pytest.mark.parametrize("row, value", [
    ("STAGGERGenerator -i 2 -f 2", -1),
    ("STAGGERGenerator -i 2 -f 2", 3),  # equal to n_values
    ("STAGGERGenerator -i 2 -f 2", 1.0),
    ("SEAGenerator -i 2 -f 2", math.nan),
    ("SEAGenerator -i 2 -f 2", math.inf),
    ("SEAGenerator -i 2 -f 2", -math.inf),
], ids=["nominal-minus-1", "nominal-n_values", "nominal-float", "numeric-nan", "numeric-inf",
        "numeric-minus-inf"])
@both_trees
def test_train_rejects_bad_value_without_changing_state(make_tree, row, value):
    tree, stream = _trained_on_300(make_tree, row)
    before = tree.dump()
    values, label, _ = stream.next_instance()
    with pytest.raises(ValueError):
        tree.train(Instance((value,) + tuple(values[1:]), label))
    assert tree.dump() == before


@both_trees
def test_train_accepts_finite_values_whose_sum_overflows(make_tree):
    """The value check sums the numeric values first; a sum that overflows
    is looked at value by value, and finite values pass."""
    tree, stream = _trained_on_300(make_tree, "SEAGenerator -i 2 -f 2")
    before = tree.dump()
    values, label, _ = stream.next_instance()
    tree.train(Instance((1e308, 1e308) + tuple(values[2:]), label))
    assert tree.dump() != before


def test_train_rejects_schema_mismatch():
    schema = Schema.uniform_nominal(2, 2, 2)
    tree = HoeffdingTreeClassifier(schema)
    with pytest.raises(ValueError, match="schema"):
        tree.train(Instance((0,), 0))
    with pytest.raises(ValueError, match="schema"):
        tree.train(Instance((0, 1), 2))
    with pytest.raises(ValueError, match="schema"):
        tree.train(Instance((0, 1), -1))


def test_config_validation():
    with pytest.raises(ValueError, match="used_attribute_policy 'reuse'"):
        StrategyConfig(used_attribute_policy="reuse")
    with pytest.raises(ValueError):
        StrategyConfig(infogain_mode="bogus")
    # the grace period and split confidence are constants, not fields
    with pytest.raises(TypeError, match="grace_period"):
        StrategyConfig(grace_period=0)
    with pytest.raises(TypeError, match="delta"):
        StrategyConfig(delta=0.001)
    with pytest.raises(ValueError):
        StrategyConfig(tau=-0.1)
    with pytest.raises(ValueError, match="tau"):
        StrategyConfig(tau=float("nan"))


# --------------------------------------------------------------------------
# whole-tree behavior on streams
# --------------------------------------------------------------------------

def test_learns_stagger_concept():
    stream = build_stream("STAGGERGenerator -i 2 -f 2")
    tree = HoeffdingTreeClassifier(stream.schema)
    errors = 0
    n = 30_000
    for _ in range(n):
        inst = stream.next_instance()
        errors += tree.predict_label(inst) != inst.class_label
        tree.train(inst)
    assert errors / n < 0.1


def test_learns_numeric_sea_concept():
    stream = build_stream("SEAGenerator -f 2 -i 2")
    tree = HoeffdingTreeClassifier(stream.schema)
    errors = 0
    n = 30_000
    for _ in range(n):
        inst = stream.next_instance()
        errors += tree.predict_label(inst) != inst.class_label
        tree.train(inst)
    assert errors / n < 0.12


def test_count_conservation_at_leaves():
    stream = build_stream("AbruptDriftGenerator -o 1.0 -z 3 -n 3 -v 3 -b 100000 -r 5")
    tree = HoeffdingTreeClassifier(stream.schema)
    for _ in range(20_000):
        tree.train(stream.next_instance())
    for leaf in tree.leaves():
        totals = {observed_mass(leaf, a) for a in range(3)}
        assert len(totals) == 1  # same observed mass on every nominal attribute
        observed = totals.pop()
        # class_dist = inherited + observed
        assert sum(leaf.class_dist) == pytest.approx(observed + (sum(leaf.class_dist) - observed))
        assert observed <= sum(leaf.class_dist) + 1e-9


def test_debug_dump_golden():
    # root evaluates at node_time 200 with a perfect gain gap and splits; each
    # child starts from 100 inherited counts and sees 200 more instances
    schema = Schema.uniform_nominal(2, 2, 2)
    tree = HoeffdingTreeClassifier(schema, StrategyConfig(counter_mode=NODE_TIME))
    for i in range(300):
        tree.train(Instance((0, i % 2), 0))
        tree.train(Instance((1, (i + 1) % 2), 1))
    expected = (
        "[0] split attr=0 test=nominal\n"
        "  [1] leaf dist=[300, 0] node_time=200 weight_seen=300 used=0\n"
        "  [2] leaf dist=[0, 300] node_time=200 weight_seen=300 used=0\n"
    )
    assert tree.dump() == expected


def test_stationary_streams_identical_with_and_without_resplit():
    """Resplitting never manifests on a drift-free stream."""
    row = "AbruptDriftGenerator -o 0.0 -z 3 -n 3 -v 3 -b 1000000 -r 7"
    s1, s2 = build_stream(row), build_stream(row)
    plain = HoeffdingTreeClassifier(s1.schema, StrategyConfig())
    resplit = HoeffdingTreeClassifier(s2.schema, StrategyConfig(used_attribute_policy="resplit"))
    for _ in range(100_000):
        i1, i2 = s1.next_instance(), s2.next_instance()
        assert plain.predict_label(i1) == resplit.predict_label(i2)
        plain.train(i1)
        resplit.train(i2)
    assert plain.dump() == resplit.dump()
