import dataclasses
import math
import re
import tracemalloc

import pytest

from streamtrees.hat import (
    HatConfig,
    HoeffdingAdaptiveTreeClassifier,
    VOTE_MULTI,
    VOTE_MULTI_NO_SINGLE_LEAVES,
    VOTE_NONE,
    VOTE_SINGLE,
)
from streamtrees.schema import Instance, Schema
from streamtrees.specparse import build_stream
from streamtrees.tree import (
    NODE_TIME,
    HoeffdingTreeClassifier,
    LearningLeaf,
    NodeStatistics,
    SplitNode,
    StrategyConfig,
)

from test_detectors import NeverFireDetector
from test_streams import take


class NeverFireHat(HoeffdingAdaptiveTreeClassifier):
    """An adaptive tree whose detectors never fire: it must learn the base tree."""

    def _new_detector(self):
        return NeverFireDetector()


class _CountingHat(HoeffdingAdaptiveTreeClassifier):
    """Counts the promotions ``_promote`` makes, premature ones included."""

    promotions = 0

    def _promote(self, nd):
        super()._promote(nd)
        self.promotions += 1


class FireOnceDetector:
    """Fires on the nth element, then behaves like a plain estimator."""

    def __init__(self, fire_at=1):
        self.fire_at = fire_at
        self.count = 0
        self.total = 0.0

    def add_element(self, x):
        self.count += 1
        self.total += x
        return self.count == self.fire_at

    def estimate(self):
        if self.count == 0:
            raise ValueError("empty")
        return self.total / self.count

    @property
    def width(self):
        return self.count


class FixedEstimator:
    """Detector stand-in with a pinned estimate and width."""

    def __init__(self, estimate, width):
        self._estimate = estimate
        self._width = width

    def add_element(self, x):
        return False

    def estimate(self):
        return self._estimate

    @property
    def width(self):
        return self._width


ALL_MODES = (VOTE_NONE, VOTE_SINGLE, VOTE_MULTI, VOTE_MULTI_NO_SINGLE_LEAVES)


def _structure(dump: str) -> str:
    """An adaptive-tree dump without its detector fields: the base tree's dump format."""
    return re.sub(r" det_width=\d+ det_est=\S+", "", dump)


def _schema():
    return Schema.uniform_nominal(2, 2, 2)


def _leaves(hat) -> list:
    """Every mainline leaf in the tree, alternates' leaves included."""
    leaves = []
    stack = [hat._root]
    while stack:
        node = stack.pop()
        if node.alternate is not None:
            stack.append(node.alternate)
        if isinstance(node.mainline, SplitNode):
            stack.extend(node.mainline.children)
        else:
            leaves.append(node.mainline)
    return leaves


def _count_alternates(hat) -> int:
    """Alternates hanging anywhere in the tree, nested ones included, by a tree walk."""
    count = 0
    stack = [hat._root]
    while stack:
        node = stack.pop()
        if node.alternate is not None:
            count += 1
            stack.append(node.alternate)
        if isinstance(node.mainline, SplitNode):
            stack.extend(node.mainline.children)
    return count


# --------------------------------------------------------------------------
# reduction to the base tree
# --------------------------------------------------------------------------

@pytest.mark.parametrize(
    "base", [StrategyConfig(), StrategyConfig(counter_mode=NODE_TIME)], ids=["weight_seen", "node_time"]
)
@pytest.mark.parametrize(
    "row",
    [
        "RecurrentConceptDriftStream -x 5000 -y 5000 -z 100 -s (STAGGERGenerator -i 2 -f 2) -d (STAGGERGenerator -i 3 -f 3)",
        "AbruptDriftGenerator -c -o 1.0 -z 3 -n 3 -v 3 -r 2 -b 10000 -d Recurrent",
        "SEAGenerator -f 2 -i 2",
    ],
)
def test_never_fire_hat_equals_vfdt_exactly(row, base):
    s1, s2 = build_stream(row), build_stream(row)
    vfdt = HoeffdingTreeClassifier(s1.schema, base)
    hat = NeverFireHat(s2.schema, HatConfig(**dataclasses.asdict(base)))
    for _ in range(20_000):
        i1, i2 = s1.next_instance(), s2.next_instance()
        assert vfdt.predict_label(i1) == hat.predict_label(i2)
        vfdt.train(i1)
        hat.train(i2)
    assert vfdt.dump() == _structure(hat.dump())


def test_never_fire_hat_grows_no_alternates():
    stream = build_stream("STAGGERGenerator -i 5 -f 2")
    hat = NeverFireHat(stream.schema, HatConfig())
    for _ in range(20_000):
        hat.train(stream.next_instance())
    assert _count_alternates(hat) == 0


# --------------------------------------------------------------------------
# alternate lifecycle
# --------------------------------------------------------------------------

def test_forced_fire_sprouts_exactly_one_alternate():
    hat = HoeffdingAdaptiveTreeClassifier(_schema(), HatConfig())
    hat._root.detector = FireOnceDetector(fire_at=3)
    for i in range(10):
        hat.train(Instance((i % 2, 0), i % 2))
    assert hat._root.alternate is not None
    assert _count_alternates(hat) == 1
    first_alt = hat._root.alternate
    # later fires must not stack a second alternate
    hat._root.detector = FireOnceDetector(fire_at=1)
    hat.train(Instance((0, 0), 0))
    assert _count_alternates(hat) == 1


def test_detector_fire_restarts_stale_alternate():
    hat = HoeffdingAdaptiveTreeClassifier(_schema(), HatConfig())
    node = hat._root
    node.alternate = hat._new_node()
    # stale alternate: error estimate no better than the mainline's
    node.alternate.detector = FixedEstimator(0.9, 500)
    node.detector = FireOnceDetector(fire_at=1)
    stale = node.alternate
    hat.train(Instance((0, 0), 0))
    assert node.alternate is not stale  # restarted fresh


def test_detector_fire_keeps_superior_alternate():
    hat = HoeffdingAdaptiveTreeClassifier(_schema(), HatConfig())
    node = hat._root
    node.alternate = hat._new_node()
    node.alternate.detector = FixedEstimator(0.05, 500)
    node.detector = FireOnceDetector(fire_at=1)
    keeper = node.alternate
    hat.train(Instance((0, 0), 1))
    assert node.alternate is keeper


# --------------------------------------------------------------------------
# replacement decisions
# --------------------------------------------------------------------------

def _width_for_bound(bound, delta=0.05):
    return int(math.ceil(math.log(1.0 / delta) / (2.0 * bound**2)))


def test_maybe_replace_clear_separation_promotes():
    hat = _CountingHat(_schema(), HatConfig())
    node = hat._root
    node.alternate = hat._new_node()
    w = _width_for_bound(0.02)
    node.detector = FixedEstimator(0.40, w)
    node.alternate.detector = FixedEstimator(0.05, w)
    assert hat._maybe_replace(node) is True
    assert node.alternate is None
    assert hat.promotions == 1


def test_maybe_replace_overlapping_bounds_holds():
    hat = _CountingHat(_schema(), HatConfig())
    node = hat._root
    node.alternate = hat._new_node()
    w = _width_for_bound(0.05)
    node.detector = FixedEstimator(0.31, w)
    node.alternate.detector = FixedEstimator(0.30, w)
    assert hat._maybe_replace(node) is False
    assert node.alternate is not None
    assert hat.promotions == 0


def test_maybe_replace_discards_significantly_worse_alternate():
    hat = HoeffdingAdaptiveTreeClassifier(_schema(), HatConfig())
    node = hat._root
    node.alternate = hat._new_node()
    w = _width_for_bound(0.02)
    node.detector = FixedEstimator(0.05, w)
    node.alternate.detector = FixedEstimator(0.40, w)
    assert hat._maybe_replace(node) is False
    assert node.alternate is None  # freed for a future detection


def test_maybe_replace_waits_for_an_alternate_window():
    # an alternate whose own alternate was just promoted has a fresh, empty detector
    hat = _CountingHat(_schema(), HatConfig())
    node = hat._root
    node.alternate = alt = hat._new_node()
    node.detector = FixedEstimator(0.4, 100)
    assert alt.detector.width == 0
    assert hat._maybe_replace(node) is False
    assert node.alternate is alt
    assert hat.promotions == 0


class _CadenceHat(HoeffdingAdaptiveTreeClassifier):
    """Counts the instances each node object trains on, and checks that every
    replacement test falls on a multiple of the interval of its alternate's count."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.trained = {}  # node object -> calls of _train_subtree on it
        self.inherited = set()  # alternates a promotion handed down to a new parent
        self.checks = self.inherited_checks = self.nested_promotions = 0

    def _train_subtree(self, hnode, instance, depth, path=None):
        self.trained[hnode] = self.trained.get(hnode, 0) + 1
        super()._train_subtree(hnode, instance, depth, path)

    def _maybe_replace(self, nd):
        assert self.trained[nd.alternate] % self.config.replacement_check_interval == 0
        self.checks += 1
        self.inherited_checks += nd.alternate in self.inherited
        return super()._maybe_replace(nd)

    def _promote(self, nd):
        grand = nd.alternate.alternate
        if grand is not None:
            self.nested_promotions += 1
            self.inherited.add(grand)
        super()._promote(nd)


def test_replacement_test_runs_every_interval_of_the_alternates_own_instances():
    stream = build_stream(
        "RecurrentConceptDriftStream -x 5000 -y 5000 -z 100 "
        "-s (STAGGERGenerator -i 2 -f 2) -d (STAGGERGenerator -i 3 -f 3)"
    )
    config = HatConfig(voting_mode=VOTE_MULTI, alternate_depth_cap=10, replacement_check_interval=7)
    hat = _CadenceHat(stream.schema, config)
    for _ in range(30_000):
        inst = stream.next_instance()
        hat.predict_label(inst)
        hat.train(inst)
    assert hat.checks > 0
    # a promoted alternate that had its own hands it down with its count
    assert hat.nested_promotions > 0
    assert hat.inherited_checks > 0


def test_promotion_preserves_subtree_structure():
    """The promoted subtree is identical to the alternate just before."""
    stream = build_stream("STAGGERGenerator -i 4 -f 3")
    hat = HoeffdingAdaptiveTreeClassifier(stream.schema, HatConfig())
    node = hat._root
    node.alternate = hat._new_node()
    for _ in range(6000):  # let the alternate grow real structure
        inst = stream.next_instance()
        hat._train_subtree(node.alternate, inst, 1)
    assert isinstance(node.alternate.mainline, SplitNode)
    snapshot = HoeffdingAdaptiveTreeClassifier(stream.schema, HatConfig())
    snapshot._root = node.alternate
    before = _structure(snapshot.dump())
    hat._promote(node)
    snapshot._root = node
    after = _structure(snapshot.dump())
    assert after == before


def test_premature_root_replacement_on_first_alternate_split():
    config = HatConfig(replace_root_on_alternate_split=True, tau=0.2)
    stream = build_stream("STAGGERGenerator -i 4 -f 2")
    hat = _CountingHat(stream.schema, config)
    hat._root.alternate = hat._new_node()
    promos_before = hat.promotions
    alt = hat._root.alternate
    for _ in range(20_000):
        hat.train(stream.next_instance())
        if hat.promotions > promos_before:
            break
    assert hat.promotions > promos_before
    # the promoted subtree is the alternate that just split
    assert isinstance(hat._root.mainline, SplitNode)


def test_premature_subtree_replacement_on_first_alternate_split():
    config = HatConfig(replace_subtree_on_alternate_split=True)
    stream = build_stream("STAGGERGenerator -i 4 -f 2")
    hat = _CountingHat(stream.schema, config)
    # grow a mainline split so a non-root node exists
    for _ in range(30_000):
        hat.train(stream.next_instance())
    assert isinstance(hat._root.mainline, SplitNode)
    child = hat._root.mainline.children[0]
    child.alternate = hat._new_node()
    # force the alternate's own error to look terrible so only the premature
    # path can promote it
    promos_before = hat.promotions
    alt = child.alternate
    for _ in range(30_000):
        hat.train(stream.next_instance())
        if hat.promotions > promos_before:
            break
    assert hat.promotions > promos_before  # replaced upon its first split


# --------------------------------------------------------------------------
# voting
# --------------------------------------------------------------------------

def _hat_with_alternate(mode, mainline_dist, alt_dist, alt_split=False):
    schema = Schema.uniform_nominal(1, 2, 2)
    hat = HoeffdingAdaptiveTreeClassifier(schema, HatConfig(voting_mode=mode))
    hat._root.mainline.class_dist = list(mainline_dist)
    hat._root.mainline.total_weight = sum(mainline_dist)
    alt = hat._new_node()
    alt.mainline.class_dist = list(alt_dist)
    alt.mainline.total_weight = sum(alt_dist)
    if alt_split:
        left = LearningLeaf(schema, list(alt_dist))
        right = LearningLeaf(schema, list(alt_dist))
        alt.mainline = SplitNode(0, None, [hat._new_position(left), hat._new_position(right)])
    hat._root.alternate = alt
    return hat


def test_vote_without_alternates_matches_base_predict_in_all_modes():
    stream = build_stream("STAGGERGenerator -i 7 -f 1")
    insts = take(stream, 3000)
    reference = None
    for mode in ALL_MODES:
        s = build_stream("STAGGERGenerator -i 7 -f 1")
        hat = NeverFireHat(s.schema, HatConfig(voting_mode=mode))
        for inst in insts:
            hat.train(inst)
        preds = [hat.predict_label(i) for i in insts]
        if reference is None:
            reference = preds
        assert preds == reference


def test_vote_symmetric_opposites_tie_to_class_zero():
    hat = _hat_with_alternate(VOTE_MULTI, [10.0, 0.0], [0.0, 10.0])
    inst = Instance((0,), 0)
    dist = hat._vote(inst)
    assert dist == pytest.approx([1.0, 1.0])
    assert hat.predict_label(inst) == 0


def test_vote_excluding_single_leaves_skips_leaf_alternates():
    hat = _hat_with_alternate(VOTE_MULTI_NO_SINGLE_LEAVES, [10.0, 0.0], [0.0, 10.0])
    inst = Instance((0,), 0)
    assert hat._vote(inst) == [10.0, 0.0]  # mainline alone
    assert hat.predict_label(inst) == 0
    # once the alternate has structure it votes again
    hat2 = _hat_with_alternate(VOTE_MULTI_NO_SINGLE_LEAVES, [10.0, 0.0], [0.0, 10.0], alt_split=True)
    assert hat2._vote(inst) == pytest.approx([1.0, 1.0])


def test_single_mode_uses_shallowest_alternate_only():
    hat = _hat_with_alternate(VOTE_SINGLE, [8.0, 2.0], [0.0, 10.0])
    inst = Instance((0,), 0)
    assert hat._vote(inst) == pytest.approx([0.8, 1.2])
    assert hat.predict_label(inst) == 1


def _deepest_alternate(hat) -> int:
    """Most alternate edges on any path from the root, by a tree walk."""
    deepest = 0
    stack = [(hat._root, 0)]
    while stack:
        node, depth = stack.pop()
        deepest = max(deepest, depth)
        if node.alternate is not None:
            stack.append((node.alternate, depth + 1))
        if isinstance(node.mainline, SplitNode):
            stack.extend((child, depth) for child in node.mainline.children)
    return deepest


def _deepest_over_run(mode, **flags) -> int:
    """Deepest alternate seen every 500 instances of a recurrent STAGGER run."""
    stream = build_stream(
        "RecurrentConceptDriftStream -x 25000 -y 25000 -z 100 "
        "-s (STAGGERGenerator -i 2 -f 2) -d (STAGGERGenerator -i 3 -f 3)"
    )
    hat = HoeffdingAdaptiveTreeClassifier(stream.schema, HatConfig(voting_mode=mode, **flags))
    deepest = 0
    for i in range(1, 60_001):
        hat.train(stream.next_instance())
        if i % 500 == 0:
            deepest = max(deepest, _deepest_alternate(hat))
    return deepest


@pytest.mark.parametrize("mode", ALL_MODES)
def test_default_cap_never_nests(mode):
    assert _deepest_over_run(mode) == 1


@pytest.mark.parametrize("cap", [1, 2, 3])
@pytest.mark.parametrize("mode", ALL_MODES)
def test_alternate_depth_cap_is_reached_and_never_exceeded(mode, cap):
    assert _deepest_over_run(mode, alternate_depth_cap=cap) == cap


def test_forest_has_no_shared_nodes():
    stream = build_stream(
        "AbruptDriftGenerator -c -o 1.0 -z 3 -n 3 -v 3 -r 2 -b 20000 -d Recurrent"
    )
    hat = HoeffdingAdaptiveTreeClassifier(
        stream.schema, HatConfig(voting_mode=VOTE_MULTI, alternate_depth_cap=10)
    )
    for _ in range(100_000):
        hat.train(stream.next_instance())
    seen = set()
    stack = [hat._root]
    while stack:
        node = stack.pop()
        assert id(node) not in seen  # a forest: no cycles, no sharing
        seen.add(id(node))
        if node.alternate is not None:
            stack.append(node.alternate)
        if isinstance(node.mainline, SplitNode):
            stack.extend(node.mainline.children)


# --------------------------------------------------------------------------
# leaves
# --------------------------------------------------------------------------

def _every_leaf(learner):
    """A tree's leaves, or an adaptive tree's mainline and alternate leaves."""
    if isinstance(learner, HoeffdingTreeClassifier):
        return learner.leaves()
    leaves, stack = [], [learner._root]
    while stack:
        node = stack.pop()
        if node.alternate is not None:
            stack.append(node.alternate)
        if isinstance(node.mainline, SplitNode):
            stack.extend(node.mainline.children)
        else:
            leaves.append(node.mainline)
    return leaves


@pytest.mark.parametrize("eidetic", [False, True], ids=["amnesiac", "eidetic"])
@pytest.mark.parametrize(
    "row",
    [
        "RecurrentConceptDriftStream -x 3000 -y 3000 -z 100 -s (STAGGERGenerator -i 2 -f 2) -d (STAGGERGenerator -i 3 -f 3)",
        "HyperplaneGenerator -k 10 -t 0.001 -i 2",
    ],
    ids=["nominal", "numeric"],
)
@pytest.mark.parametrize("algorithm", ["vfdt", "hat"])
def test_each_leaf_is_one_object_on_its_schemas_layout(algorithm, row, eidetic):
    """A grown tree's every leaf is its own statistics, and holds the schema's
    attribute layout rather than a copy of it."""
    stream = build_stream(row)
    schema = stream.schema
    if algorithm == "vfdt":
        learner = HoeffdingTreeClassifier(schema, StrategyConfig(eidetic=eidetic))
    else:
        learner = HoeffdingAdaptiveTreeClassifier(schema, HatConfig(eidetic=eidetic))
    for inst in take(stream, 8000):
        learner.predict_label(inst)
        learner.train(inst)
    leaves = _every_leaf(learner)
    assert len(leaves) > 1
    for leaf in leaves:
        assert type(leaf) is LearningLeaf and isinstance(leaf, NodeStatistics)
        assert not hasattr(leaf, "stats") and not hasattr(leaf, "__dict__")
        assert leaf.schema is schema
        assert leaf.nominal_attrs is schema.nominal_attrs
        assert leaf.numeric_attrs is schema.numeric_attrs
        assert (leaf.buffer is not None) == eidetic


# --------------------------------------------------------------------------
# weighting
# --------------------------------------------------------------------------

def test_poisson_zero_fraction_matches_exp_minus_one():
    hat = HoeffdingAdaptiveTreeClassifier(_schema(), HatConfig(poisson_weighting=True), seed=0)
    draws = [hat._poisson_weight() for _ in range(100_000)]
    zero_fraction = sum(1 for w in draws if w == 0.0) / len(draws)
    assert abs(zero_fraction - math.exp(-1)) < 0.01
    mean = sum(draws) / len(draws)
    assert abs(mean - 1.0) < 0.02


def test_poisson_weighting_keeps_node_time_on_instances(monkeypatch):
    monkeypatch.setattr("streamtrees.tree.GRACE_PERIOD", 10_000)  # keep the root a leaf
    config = HatConfig(poisson_weighting=True)
    hat = NeverFireHat(_schema(), config, seed=1)
    for i in range(1000):
        hat.train(Instance((i % 2, 0), i % 2))
    leaf = hat._root.mainline
    assert isinstance(leaf, LearningLeaf)
    assert leaf.node_time == 1000  # instances counted, never weights
    assert leaf.total_weight != 1000.0  # mass follows the Poisson draws
    assert abs(leaf.total_weight - 1000.0) < 150.0


def test_eidetic_poisson_buffers_no_zero_weight():
    # Poisson(1) draws 0 for about 37% of leaf updates; such an update adds
    # nothing to a leaf, so replaying it would add nothing either
    stream = build_stream("STAGGERGenerator -i 2 -f 2")
    config = HatConfig(eidetic=True, poisson_weighting=True)
    hat = HoeffdingAdaptiveTreeClassifier(stream.schema, config, seed=0)
    for _ in range(50_000):
        instance = stream.next_instance()
        hat.predict_label(instance)
        hat.train(instance)
    leaves = _leaves(hat)
    assert len(leaves) > 1
    assert sum(len(leaf.buffer) for leaf in leaves) > 40_000
    for leaf in leaves:
        entries = list(leaf.buffered())
        assert len(entries) == len(leaf.buffer)
        assert 0.0 not in [weight for _, _, weight in entries]
        # an eidetic leaf's mass is exactly its buffer's (integer weights)
        mass = [0.0] * stream.schema.class_count
        for _, label, weight in entries:
            mass[label] += weight
        assert leaf.class_dist == mass


def test_eidetic_poisson_buffer_costs_at_most_24_bytes_per_entry():
    # a values slot, a label byte and, for the ~57% of entries whose weight
    # differs from the one before, a run's weight slot and 8-byte start cost
    # about 18.8 bytes an entry; a weight float of its own per entry, or run
    # starts kept as Python ints, would add 15 or more
    stream = build_stream("STAGGERGenerator -i 2 -f 2")
    config = HatConfig(eidetic=True, poisson_weighting=True)
    tracemalloc.start()
    try:
        hat = HoeffdingAdaptiveTreeClassifier(stream.schema, config, seed=1)
        for _ in range(50_000):
            hat.train(stream.next_instance())
        leaves = _leaves(hat)
        entries = sum(len(leaf.buffer) for leaf in leaves)
        before = tracemalloc.get_traced_memory()[0]
        for leaf in leaves:
            for column in (leaf.buffer, leaf.buffer_labels, leaf.buffer_weights, leaf.buffer_runs):
                del column[:]
        freed = before - tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(leaves) > 1
    assert entries > 40_000
    assert 0 < freed <= 24 * entries


def test_hat_dump_marks_alternates():
    hat = _hat_with_alternate(VOTE_SINGLE, [3.0, 1.0], [0.0, 2.0])
    dump = hat.dump()
    assert "ALT-root" in dump
    assert "det_width" in dump


def test_train_rejects_schema_mismatch():
    hat = HoeffdingAdaptiveTreeClassifier(_schema(), HatConfig())
    with pytest.raises(ValueError, match="schema"):
        hat.train(Instance((0, 1, 0), 0))
    with pytest.raises(ValueError, match="schema"):
        hat.train(Instance((0, 1), 5))


def test_config_validation():
    with pytest.raises(ValueError):
        HatConfig(voting_mode="everything")
    with pytest.raises(ValueError):
        HatConfig(replacement_check_interval=0)
    for cap in (0, -1):
        with pytest.raises(ValueError, match="alternate_depth_cap"):
            HatConfig(alternate_depth_cap=cap)


def test_hat_with_resplitting_flag_keeps_adapting():
    """Resplits inside the adaptive tree interact with alternates cleanly."""
    stream = build_stream(
        "AbruptDriftGenerator -c -o 1.0 -z 2 -n 2 -v 2 -r 3 -b 30000 -d Recurrent"
    )
    config = HatConfig(used_attribute_policy="resplit")
    hat = HoeffdingAdaptiveTreeClassifier(stream.schema, config)
    errs = 0
    for _ in range(120_000):
        inst = stream.next_instance()
        errs += hat.predict_label(inst) != inst.class_label
        hat.train(inst)
    assert errs / 120_000 < 0.1


def test_hat_with_evisceration_flag_keeps_adapting():
    stream = build_stream(
        "AbruptDriftGenerator -c -o 1.0 -z 2 -n 2 -v 2 -r 3 -b 30000 -d Recurrent"
    )
    config = HatConfig(used_attribute_policy="eviscerate")
    hat = HoeffdingAdaptiveTreeClassifier(stream.schema, config)
    errs = 0
    for _ in range(120_000):
        inst = stream.next_instance()
        errs += hat.predict_label(inst) != inst.class_label
        hat.train(inst)
    assert errs / 120_000 < 0.1


def test_hat_adapts_on_recurrent_stagger_shortened():
    stream = build_stream(
        "RecurrentConceptDriftStream -x 40000 -y 40000 -z 100 "
        "-s (STAGGERGenerator -i 2 -f 2) -d (STAGGERGenerator -i 3 -f 3)"
    )
    hat = HoeffdingAdaptiveTreeClassifier(stream.schema, HatConfig())
    vfdt_stream = build_stream(
        "RecurrentConceptDriftStream -x 40000 -y 40000 -z 100 "
        "-s (STAGGERGenerator -i 2 -f 2) -d (STAGGERGenerator -i 3 -f 3)"
    )
    vfdt = HoeffdingTreeClassifier(vfdt_stream.schema, StrategyConfig())
    hat_errs = vfdt_errs = 0
    for _ in range(120_000):
        inst = stream.next_instance()
        hat_errs += hat.predict_label(inst) != inst.class_label
        hat.train(inst)
        inst2 = vfdt_stream.next_instance()
        vfdt_errs += vfdt.predict_label(inst2) != inst2.class_label
        vfdt.train(inst2)
    assert hat_errs < vfdt_errs  # drift adaptation must beat the static tree
    assert hat_errs / 120_000 < 0.05
