"""Property harness for the invariants that hold across configurations."""

import math
import operator
from functools import cache

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from streamtrees.hat import HatConfig, HoeffdingAdaptiveTreeClassifier, VOTE_MULTI
from streamtrees.schema import NominalAttribute, NumericAttribute, Schema
from streamtrees.specparse import build_generator, build_stream, parse_stream_spec
from streamtrees.streams import AbruptDriftGenerator
from streamtrees.tree import (
    _NUMERIC_SPLIT_POINTS,
    _SQRT2,
    RESPLIT,
    SPLIT,
    HoeffdingTreeClassifier,
    LearningLeaf,
    NodeStatistics,
    SplitDecision,
    SplitNode,
    StrategyConfig,
    _gain_with_split,
    argmax_label,
    entropy,
    evaluate_split,
    hoeffding_bound,
    perform_split,
    walk,
)
from test_detectors import assert_matches_reference
from test_streams import take
from test_tree import observed_mass

CASES = settings(max_examples=1000, deadline=None)


def info_gain(leaf, class_dist, attribute):
    """Information gain of splitting on one attribute, parent entropy from class_dist."""
    return _gain_with_split(leaf, entropy(class_dist, sum(class_dist)), attribute)[0]


def _rng(seed):
    return np.random.Generator(np.random.PCG64(seed))


@CASES
@given(
    r=st.floats(min_value=0.01, max_value=8.0),
    delta=st.floats(min_value=1e-9, max_value=0.5),
    n=st.integers(min_value=1, max_value=10**7),
    factor=st.integers(min_value=2, max_value=100),
)
def test_hoeffding_bound_monotonicity(r, delta, n, factor):
    base = hoeffding_bound(r, delta, n)
    assert hoeffding_bound(r, delta, n * factor) < base  # decreasing in n
    assert hoeffding_bound(r * factor, delta, n) > base  # increasing in R
    assert hoeffding_bound(r, delta / factor, n) > base  # increasing in 1/delta


@CASES
@given(
    seed=st.integers(min_value=0, max_value=10**6),
    n_attrs=st.integers(min_value=1, max_value=4),
    n_values=st.integers(min_value=2, max_value=4),
    classes=st.integers(min_value=2, max_value=4),
    constant=st.data(),
)
def test_constant_attribute_gain_is_exactly_zero(seed, n_attrs, n_values, classes, constant):
    schema = Schema.uniform_nominal(n_attrs, n_values, classes)
    attr = constant.draw(st.integers(min_value=0, max_value=n_attrs - 1))
    fixed = constant.draw(st.integers(min_value=0, max_value=n_values - 1))
    inherited = constant.draw(
        st.one_of(st.none(), st.lists(st.floats(0, 100), min_size=classes, max_size=classes))
    )
    rng = _rng(seed)
    leaf = LearningLeaf(schema, class_dist=inherited)
    for _ in range(rng.integers(1, 60)):
        values = tuple(
            fixed if a == attr else int(rng.integers(0, n_values)) for a in range(n_attrs)
        )
        leaf.learn(values, int(rng.integers(0, classes)), float(rng.random()) + 0.01)
    assert info_gain(leaf, leaf.class_dist, attr) == 0.0


@CASES
@given(
    seed=st.integers(min_value=0, max_value=10**6),
    n_attrs=st.integers(min_value=2, max_value=4),
    n_values=st.integers(min_value=2, max_value=4),
    classes=st.integers(min_value=2, max_value=4),
)
def test_count_conservation_across_attributes(seed, n_attrs, n_values, classes):
    """Every fully-observed nominal attribute holds the same observed mass,
    equal to the total instance weight since leaf creation."""
    schema = Schema.uniform_nominal(n_attrs, n_values, classes)
    rng = _rng(seed)
    leaf = LearningLeaf(schema)
    total = 0.0
    for _ in range(rng.integers(1, 80)):
        values = tuple(int(v) for v in rng.integers(0, n_values, n_attrs))
        weight = float(rng.random() * 3)
        leaf.learn(values, int(rng.integers(0, classes)), weight)
        total += weight
    for attr in range(n_attrs):
        assert abs(observed_mass(leaf, attr) - total) < 1e-9
    assert abs(sum(leaf.class_dist) - total) < 1e-9


class PerAttributeObserver:
    """Reference numeric observer with a count of its own per (attribute, class).

    ``numeric[i][c]`` is ``[count, mean, M2]`` and ``minmax[i]`` is
    ``[min, max]``, each updated attribute by attribute with Welford's
    statements in the order ``NodeStatistics.observe`` must keep.
    """

    def __init__(self, schema):
        c = schema.class_count
        self.nominal = [
            [[0.0] * c for _ in range(attr.n_values)] if isinstance(attr, NominalAttribute)
            else None
            for attr in schema.attributes
        ]
        self.numeric = [
            None if table is not None else [[0.0, 0.0, 0.0] for _ in range(c)]
            for table in self.nominal
        ]
        self.minmax = [None if table is not None else [math.inf, -math.inf]
                       for table in self.nominal]

    def observe(self, values, label, weight):
        if weight <= 0.0:
            return
        for i, v in enumerate(values):
            if self.nominal[i] is not None:
                self.nominal[i][v][label] += weight
                continue
            obs = self.numeric[i][label]
            count = obs[0] + weight
            delta = v - obs[1]
            mean = obs[1] + weight * delta / count
            obs[0] = count
            obs[1] = mean
            obs[2] += weight * delta * (v - mean)
            mm = self.minmax[i]
            if v < mm[0]:
                mm[0] = v
            if v > mm[1]:
                mm[1] = v


def class_gaussians(observers):
    """(count, mean, sd) of each class's Gaussian; a class with no mass gets mean +inf."""
    out = []
    for count, mean, m2 in observers:
        if count <= 0.0:
            out.append((count, math.inf, 0.0))
            continue
        var = m2 / count
        out.append((count, mean, 0.0 if var <= 1e-12 else math.sqrt(var)))
    return out


def numeric_gain_oracle(observers, minmax, parent_entropy):
    """Best gain and (threshold, left, right) over the cut points, per-attribute layout."""
    lo, hi = minmax
    total = sum(obs[0] for obs in observers)
    if total <= 0.0 or hi <= lo:
        return 0.0, None
    gaussians = class_gaussians(observers)
    counts = [g[0] for g in gaussians]
    best_gain = -math.inf
    best = None
    step = (hi - lo) / (_NUMERIC_SPLIT_POINTS + 1)
    for k in range(1, _NUMERIC_SPLIT_POINTS + 1):
        t = lo + k * step
        left = [
            count * 0.5 * (1.0 + math.erf((t - mean) / sd / _SQRT2)) if sd
            else count if mean <= t else 0.0
            for count, mean, sd in gaussians
        ]
        right = list(map(operator.sub, counts, left))
        wl = sum(left)
        wr = total - wl
        if wl <= 1e-12 or wr <= 1e-12:
            continue
        gain = parent_entropy - (wl * entropy(left, wl) + wr * entropy(right, wr)) / total
        if gain > best_gain:
            best_gain = gain
            best = (t, left, right)
    if best is None:
        return 0.0, None
    return best_gain, best


@CASES
@given(
    seed=st.integers(min_value=0, max_value=10**6),
    kinds=st.lists(st.one_of(st.none(), st.integers(min_value=2, max_value=4)),
                   min_size=1, max_size=6),
    classes=st.integers(min_value=2, max_value=4),
    n=st.integers(min_value=0, max_value=120),
    inherited=st.floats(min_value=0.0, max_value=50.0),
)
def test_column_statistics_equal_per_attribute_oracle(seed, kinds, classes, n, inherited):
    """Per-class columns with one shared count are bit-equal to per-attribute
    observers, on mixed schemas (``None`` marks a numeric attribute) and
    zero, fractional and Poisson-like integer weights."""
    schema = Schema(
        tuple(NumericAttribute() if k is None else NominalAttribute(k) for k in kinds), classes
    )
    rng = _rng(seed)
    stats = NodeStatistics(schema)
    oracle = PerAttributeObserver(schema)
    class_dist = [inherited] + [0.0] * (classes - 1)
    for _ in range(n):
        # a few repeated values give ties, constant attributes and zero spread
        values = tuple(
            int(rng.integers(0, k)) if k is not None
            else float(rng.integers(0, 3)) if rng.random() < 0.2
            else float(rng.normal(0.0, 10.0))
            for k in kinds
        )
        label = int(rng.integers(0, classes))
        weight = (0.0, float(rng.random()), float(rng.poisson(1.0)))[int(rng.integers(0, 3))]
        stats.observe(values, label, weight)
        oracle.observe(values, label, weight)
        if weight > 0.0:
            class_dist[label] += weight

    assert stats.nominal == oracle.nominal
    numeric = tuple(i for i, k in enumerate(kinds) if k is None)
    assert stats.numeric_attrs == numeric
    parent_entropy = entropy(class_dist, sum(class_dist))
    for i in numeric:
        j = schema.numeric_column[i]
        for c in range(classes):
            count, mean, m2 = oracle.numeric[i][c]
            assert stats.counts[c] == count
            assert stats.means[c][j] == mean
            assert stats.m2s[c][j] == m2
        assert [stats.lo[j], stats.hi[j]] == oracle.minmax[i]
        gain, split = _gain_with_split(stats, parent_entropy, i)
        want_gain, want_split = numeric_gain_oracle(oracle.numeric[i], oracle.minmax[i],
                                                    parent_entropy)
        assert gain == want_gain
        assert split == want_split  # threshold and both child masses


@CASES
@given(
    seed=st.integers(min_value=0, max_value=10**6),
    n_values=st.integers(min_value=2, max_value=5),
    classes=st.integers(min_value=2, max_value=3),
)
def test_resplit_routes_everything_to_the_path_child(seed, n_values, classes):
    schema = Schema.uniform_nominal(2, n_values, classes)
    rng = _rng(seed)
    fixed = int(rng.integers(0, n_values))
    # inherited mass is pure, observations are label noise: unused attributes
    # show negative gain, the used attribute exactly zero, so a resplit wins
    leaf = LearningLeaf(schema, class_dist=[8000.0] + [0.0] * (classes - 1),
                        used_attributes={0})
    for _ in range(4000):
        leaf.learn((fixed, int(rng.integers(0, n_values))), int(rng.integers(0, classes)), 1.0)
    decision = evaluate_split(leaf, StrategyConfig(used_attribute_policy="resplit"))
    if decision.action != RESPLIT:
        return  # noise can hand the win to the unused attribute; nothing to check
    node = perform_split(leaf, decision, StrategyConfig(used_attribute_policy="resplit"))
    for _ in range(50):
        values = (fixed, int(rng.integers(0, n_values)))
        assert node.branch(values) == fixed
    for j, child in enumerate(node.children):
        if j != fixed:
            assert sum(child.class_dist) == 0.0


@CASES
@given(
    seed=st.integers(min_value=0, max_value=10**6),
    classes=st.integers(min_value=2, max_value=6),
    scale=st.floats(min_value=1e-6, max_value=1e6),
)
def test_argmax_invariant_to_positive_scaling(seed, classes, scale):
    rng = _rng(seed)
    dist = [float(m) for m in rng.random(classes)]
    scaled = [m * scale for m in dist]
    assert argmax_label(dist) == argmax_label(scaled)


def argmax_loop(dist):
    """The first index of the largest mass, one comparison at a time."""
    best = 0
    for i in range(1, len(dist)):
        if dist[i] > dist[best]:
            best = i
    return best


@CASES
@given(dist=st.lists(st.sampled_from([0.0, -0.0, 0.5, 1.0, 1e-300, 2.0, 7.25]),
                     min_size=1, max_size=8))
def test_argmax_label_is_the_first_largest_mass(dist):
    # drawn from few masses, so most lists hold ties, the maximum's among them
    assert argmax_label(dist) == argmax_loop(dist)


# dyadic weights, so every sum is exact; 0 is learned but never buffered
BUFFER_WEIGHTS = st.sampled_from([0.0, 0.25, 0.5, 1.0, 2.0, 3.0])


@st.composite
def buffered_sequences(draw):
    """A mixed schema and a sequence of (values, label, weight) to learn.

    Weights repeat in runs and change, and some are 0."""
    kinds = draw(st.lists(st.one_of(st.none(), st.integers(min_value=2, max_value=4)),
                          min_size=1, max_size=4))
    classes = draw(st.integers(min_value=2, max_value=4))
    schema = Schema(
        tuple(NumericAttribute() if k is None else NominalAttribute(k) for k in kinds), classes
    )
    entry = st.tuples(
        st.tuples(*(st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0]) if k is None
                    else st.integers(min_value=0, max_value=k - 1) for k in kinds)),
        st.integers(min_value=0, max_value=classes - 1),
        BUFFER_WEIGHTS,
    )
    runs = draw(st.lists(st.tuples(entry, st.integers(min_value=1, max_value=4)), max_size=20))
    # a drawn entry repeated a few times makes a run of equal weights
    return schema, [e for e, times in runs for e in [e] * times]


def leaf_state(leaf):
    """Everything a leaf has learned, buffer included."""
    return (leaf.nominal, leaf.counts, leaf.means, leaf.m2s, leaf.lo, leaf.hi,
            leaf.class_dist, leaf.total_weight, leaf.used_attributes, list(leaf.buffered()))


@CASES
@given(case=buffered_sequences(), data=st.data())
def test_buffered_replays_positive_weights_in_learn_order(case, data):
    schema, entries = case
    leaf = LearningLeaf(schema, eidetic=True)
    for values, label, weight in entries:
        leaf.learn(values, label, weight)
    positive = [entry for entry in entries if entry[2] > 0.0]
    assert list(leaf.buffered()) == positive
    assert len(leaf.buffer) == len(positive)

    # split on a drawn attribute: each child equals a fresh leaf fed the
    # entries routed to it directly
    attr = data.draw(st.integers(min_value=0, max_value=schema.n_attributes - 1))
    threshold = None if schema.numeric_column[attr] is None else data.draw(st.sampled_from([0.3, 0.5]))
    masses = ([0.0] * schema.class_count,) * 2  # unused by eidetic children
    decision = SplitDecision(attr, 1.0, 0.0, 0.0, SPLIT, threshold, masses)
    node = perform_split(leaf, decision, StrategyConfig(eidetic=True))
    used = leaf.used_attributes | ({attr} if threshold is None else set())
    fresh = [LearningLeaf(schema, None, used, eidetic=True) for _ in node.children]
    for values, label, weight in entries:
        fresh[node.branch(values)].learn(values, label, weight)
    assert [leaf_state(child) for child in node.children] == [leaf_state(f) for f in fresh]


@CASES
@given(
    seed=st.integers(min_value=0, max_value=10**6),
    generator=st.sampled_from(["stagger", "sea", "abrupt", "hyperplane"]),
)
def test_stream_determinism(seed, generator):
    text = {
        "stagger": f"STAGGERGenerator -i {seed} -f {seed % 3 + 1}",
        "sea": f"SEAGenerator -i {seed} -f {seed % 4 + 1}",
        "abrupt": f"AbruptDriftGenerator -o 1.0 -z 3 -n 2 -v 2 -r {seed} -b 200",
        "hyperplane": f"HyperplaneGenerator -k 2 -t 0.001 -i {seed}",
    }[generator]
    spec = parse_stream_spec(text)
    a = take(build_generator(spec), 300)
    b = take(build_generator(spec), 300)
    assert a == b


@CASES
@given(seed=st.integers(min_value=0, max_value=10**6))
def test_tree_training_determinism(seed):
    def run():
        gen = AbruptDriftGenerator(2, 3, 2, 1.0, 400, seed=seed)
        tree = HoeffdingTreeClassifier(gen.schema)
        preds = []
        for _ in range(800):
            inst = gen.next_instance()
            preds.append(tree.predict_label(inst))
            tree.train(inst)
        return preds, tree.dump()
    assert run() == run()


@CASES
@given(
    seed=st.integers(min_value=0, max_value=10**6),
    n_attrs=st.integers(min_value=2, max_value=3),
    n_values=st.integers(min_value=2, max_value=3),
    classes=st.integers(min_value=2, max_value=3),
)
def test_drift_free_resplit_agreement(seed, n_attrs, n_values, classes):
    """With no drift, enabling resplits changes neither structure nor output."""
    def run(policy):
        gen = AbruptDriftGenerator(n_attrs, n_values, classes, 0.0, 10**9, seed=seed)
        tree = HoeffdingTreeClassifier(gen.schema, StrategyConfig(used_attribute_policy=policy))
        preds = []
        for _ in range(1200):
            inst = gen.next_instance()
            preds.append(tree.predict_label(inst))
            tree.train(inst)
        return preds, tree.dump()
    assert run("exclude") == run("resplit")


@CASES
@given(
    seed=st.integers(min_value=0, max_value=10**6),
    phases=st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=5),
    phase_length=st.integers(min_value=1, max_value=400),
    uniform=st.booleans(),
    delta=st.floats(min_value=1e-4, max_value=0.5),
    check_interval=st.integers(min_value=1, max_value=70),
)
def test_adwin_matches_per_insert_reference(
    seed, phases, phase_length, uniform, delta, check_interval
):
    """The batch-folding detector equals per-insert compression bit for bit."""
    rng = _rng(seed)
    xs = []
    for p in phases:
        draws = rng.random(phase_length)
        xs.extend(float(x) for x in (draws * p if uniform else draws < p))
    assert_matches_reference(xs, delta, check_interval)


# streams that grow trees of several levels, the STAGGER one with recurrent
# drift so that the adaptive tree holds alternates
GROWN_STREAMS = {
    "stagger": "RecurrentConceptDriftStream -x 3000 -y 3000 -z 100 "
               "-s (STAGGERGenerator -i 2 -f 2) -d (STAGGERGenerator -i 3 -f 3)",
    "hyperplane": "HyperplaneGenerator -k 10 -t 0.001 -i 2",
}


@cache
def grown_tree(learner, stream_name):
    """``(schema, starts, thresholds)`` of a tree grown on 8,000 instances:
    every position a walk may start from (the root, and for the adaptive
    tree every alternate's root too) and every split threshold in it."""
    stream = build_stream(GROWN_STREAMS[stream_name])
    if learner == "vfdt":
        tree = HoeffdingTreeClassifier(stream.schema, StrategyConfig(tau=0.2))
    else:
        tree = HoeffdingAdaptiveTreeClassifier(
            stream.schema, HatConfig(tau=0.2, voting_mode=VOTE_MULTI, alternate_depth_cap=3))
    for inst in take(stream, 8000):
        tree.predict_label(inst)
        tree.train(inst)
    root = tree.root if learner == "vfdt" else tree._root
    starts, thresholds, stack = [root], set(), [root]
    while stack:
        position = stack.pop()
        alternate = getattr(position, "alternate", None)
        if alternate is not None:
            starts.append(alternate)
            stack.append(alternate)
        node = position.mainline
        if node.__class__ is SplitNode:
            stack.extend(node.children)
            if node.threshold is not None:
                thresholds.add(node.threshold)
    return stream.schema, starts, sorted(thresholds)


@pytest.mark.parametrize("stream_name", GROWN_STREAMS)
@pytest.mark.parametrize("learner", ["vfdt", "hat"])
@CASES
@given(data=st.data())
def test_walk_visits_the_positions_branch_picks(learner, stream_name, data):
    """From every start, ``walk`` returns exactly the positions that following
    ``children[branch(values)]`` visits, thresholds themselves included."""
    schema, starts, thresholds = grown_tree(learner, stream_name)
    assert len(starts[0].mainline.children) > 1
    if learner == "hat" and stream_name == "stagger":
        assert len(starts) > 1
    numeric = st.floats(0.0, 1.0)
    if thresholds:
        numeric = st.one_of(numeric, st.sampled_from(thresholds))
    values = tuple(
        data.draw(st.integers(0, attr.n_values - 1) if isinstance(attr, NominalAttribute) else numeric)
        for attr in schema.attributes
    )
    for start in starts:
        visited = [start]
        while visited[-1].mainline.__class__ is SplitNode:
            node = visited[-1].mainline
            visited.append(node.children[node.branch(values)])
        path = walk(start, values)
        assert len(path) == len(visited)
        assert all(a is b for a, b in zip(path, visited))
