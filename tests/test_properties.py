"""Property harness for the invariants that hold across configurations."""

import math
import operator
from functools import cache, partial
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from streamtrees.chunks import NominalCounter, NumericCounter, counter_for
from streamtrees.evaluate import CHUNK, prequential_run
from streamtrees.hat import _VOTE_MODES, VOTE_MULTI, HatConfig, HoeffdingAdaptiveTreeClassifier
from streamtrees.hatchunks import HatCounter
from streamtrees.schema import Instance, NominalAttribute, NumericAttribute, Schema
from streamtrees.specparse import build_generator, build_stream, parse_stream_spec
from streamtrees.streams import AbruptDriftGenerator, ArrayStream
from streamtrees.tree import (
    _NUMERIC_SPLIT_POINTS,
    _SQRT2,
    RESPLIT,
    SPLIT,
    HoeffdingTreeClassifier,
    LearningLeaf,
    NodeStatistics,
    Position,
    SplitDecision,
    MAX_WEIGHT,
    SplitNode,
    StrategyConfig,
    _gain_with_split,
    argmax_label,
    entropy,
    evaluate_split,
    hoeffding_bound,
    perform_split,
    positions,
    walk,
)
from test_detectors import assert_matches_reference
from test_golden_outputs import GOLDEN_ROWS, NESTED_ROW
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
    node = perform_split(leaf, decision, StrategyConfig(used_attribute_policy="resplit"), Position)
    for _ in range(50):
        values = (fixed, int(rng.integers(0, n_values)))
        assert node.branch(values) == fixed
    for j, position in enumerate(node.children):
        if j != fixed:
            assert sum(position.mainline.class_dist) == 0.0


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
    node = perform_split(leaf, decision, StrategyConfig(eidetic=True), Position)
    used = leaf.used_attributes | ({attr} if threshold is None else set())
    fresh = [LearningLeaf(schema, None, used, eidetic=True) for _ in node.children]
    for values, label, weight in entries:
        fresh[node.branch(values)].learn(values, label, weight)
    assert [leaf_state(child.mainline) for child in node.children] == [leaf_state(f) for f in fresh]


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


# --------------------------------------------------------------------------
# the chunk step against a per-instance twin
# --------------------------------------------------------------------------

NOMINAL_GOLDEN_ROWS = [row for row in GOLDEN_ROWS if "Hyperplane" not in row]
NUMERIC_GOLDEN_ROWS = [row for row in GOLDEN_ROWS if "Hyperplane" in row]
VFDT_CONFIGS = st.builds(
    StrategyConfig,
    eidetic=st.booleans(),
    used_attribute_policy=st.sampled_from(["exclude", "resplit", "eviscerate"]),
    infogain_mode=st.sampled_from(["instantaneous_over_examples", "averaged_over_evaluations"]),
    counter_mode=st.sampled_from(["node_time", "weight_seen"]),
    tau=st.sampled_from([0.05, 0.15]),
)
CALL_SIZES = st.lists(
    st.one_of(st.sampled_from([1, 500, CHUNK - 1, CHUNK, CHUNK + 1]), st.integers(1, 3000)),
    min_size=1, max_size=4)


def per_instance_run(learner, stream, n_instances, snapshot_every):
    """The prequential loop, one predict_label and train per instance."""
    errors = window = 0
    series = []
    for i in range(1, n_instances + 1):
        inst = stream.next_instance()
        if inst is None:
            raise RuntimeError(f"stream exhausted after {i - 1} instances")
        wrong = learner.predict_label(inst) != inst.class_label
        errors += wrong
        learner.train(inst)
        if snapshot_every:
            window += wrong
            if i % snapshot_every == 0:
                series.append((i, window / snapshot_every))
                window = 0
    return errors / n_instances, series


# every field a leaf learns into; the buffer columns are read through buffered()
_LEAF_FIELDS = ("class_dist", "total_weight", "node_time", "counter_at_last_eval", "eval_count",
                "gain_sums", "nominal", "counts", "means", "m2s", "lo", "hi")


def tree_state(tree):
    """The dump and, leaf by leaf, the repr of every learned field and of
    the buffer: a last-bit difference in any float, or an int where a float
    should be, shows."""
    leaves = [
        (repr([getattr(leaf, name) for name in _LEAF_FIELDS]), sorted(leaf.used_attributes),
         None if leaf.buffer is None else repr(list(leaf.buffered())))
        for leaf in tree.leaves()
    ]
    return tree.dump(), leaves


def hat_state(hat):
    """The dump, the sprout count and, position by position (alternates
    included), the repr of every detector field, each alternate's instance
    count and every learned leaf field."""
    state = [hat.dump(), hat._n_sprouts]
    for position, _, _ in positions(hat._root):
        det = position.detector
        state.append((repr(det._rows), repr(det.total_sum), det.total_count, det._ticks, position.instances))
        if position.mainline.__class__ is not SplitNode:
            leaf = position.mainline
            state.append((repr([getattr(leaf, name) for name in _LEAF_FIELDS]), sorted(leaf.used_attributes)))
    return state


class _Twins:
    """A tree run by ``prequential_run`` (chunked) and its per-instance twin,
    each on its own copy of one stream; ``make(schema)`` builds a tree."""

    def __init__(self, row, config, seed=0, streams=None, make=None):
        self.streams = [build_stream(row, seed), build_stream(row, seed)] if streams is None else streams
        schema = self.streams[0].schema
        if make is None:
            make = partial(HoeffdingTreeClassifier, config=config)
        self.trees = [make(schema), make(schema)]
        self.state = hat_state if isinstance(self.trees[0], HoeffdingAdaptiveTreeClassifier) else tree_state

    def run(self, n, snapshot_every=500):
        """Run both trees on ``n`` more instances; the chunked run must hand
        every one of them to its counter's ``step``, or the two runs would
        be one loop compared with itself."""
        kind = type(counter_for(self.trees[0]))
        stepped = []
        step = kind.step
        with mock.patch.object(kind, "step", lambda counter, chunk: stepped.append(len(chunk)) or step(counter, chunk)):
            chunked = prequential_run(self.trees[0], self.streams[0], n, snapshot_every)
        assert sum(stepped) == n
        twin = per_instance_run(self.trees[1], self.streams[1], n, snapshot_every)
        assert (chunked.final_error, chunked.error_series) == twin
        return chunked

    def train(self, instances):
        for tree, stream in zip(self.trees, self.streams):
            for inst in instances or [stream.next_instance() for _ in range(3)]:
                tree.predict_label(inst)
                tree.train(inst)

    def assert_equal(self):
        assert self.state(self.trees[0]) == self.state(self.trees[1])


@settings(max_examples=40, deadline=None)
@given(config=VFDT_CONFIGS, row=st.sampled_from(GOLDEN_ROWS),
       seed=st.integers(0, 3), sizes=CALL_SIZES)
def test_chunk_step_matches_per_instance_twin(config, row, seed, sizes):
    """Whatever the flags, row (nominal or numeric), seed and call split,
    the chunked run and the per-instance twin give the same errors, series,
    trees and buffers."""
    twins = _Twins(row, config, seed)
    twins.run(3000)
    for n in sizes:
        twins.run(n)
    twins.assert_equal()


class _ListStream:
    """Hands out a list of instances, then None, or raises ``then``. It is
    no generator, so a run on it goes one instance at a time."""

    def __init__(self, schema, instances, then=None):
        self.schema = schema
        self._it = iter(instances)
        self._then = then

    def next_instance(self):
        inst = next(self._it, None)
        if inst is None and self._then is not None:
            raise self._then
        return inst


def _twin_lists(row, n, then=None):
    """Two list streams of the first ``n`` instances of a row."""
    stream = build_stream(row)
    instances = [stream.next_instance() for _ in range(n)]
    return [_ListStream(stream.schema, instances, then) for _ in range(2)]


class _FixedRows(ArrayStream):
    """A generator that serves the rows of ``instances`` (valid, of weight
    1.0) as arrays or as instances, over and over; a chunked run reads it
    as it reads any generator."""

    def __init__(self, schema, instances):
        super().__init__(schema)
        x = np.array([inst.values for inst in instances])
        if not schema.numeric_attrs:
            x = np.ravel_multi_index(x.T, [attr.n_values for attr in schema.attributes])
        self._rows = x, np.array([inst.class_label for inst in instances], np.int64)

    def _sample(self):
        return self._rows


def test_chunk_step_after_fractional_weight_history():
    """Leaves with fractional counts take their instances one at a time."""
    row = NOMINAL_GOLDEN_ROWS[1]
    twins = _Twins(row, StrategyConfig(eidetic=True))
    stream = build_stream(row, 7)
    twins.train([Instance(*inst[:2], 0.5) for inst in take(stream, 1000)])
    twins.run(3 * CHUNK + 1)
    twins.assert_equal()
    assert len(twins.trees[0].leaves()) > 1


@pytest.mark.parametrize("then", [None, KeyError("stream failed")], ids=["exhausted", "raises"])
def test_chunk_step_when_the_stream_ends_mid_chunk(then):
    """A stream that is no generator never reaches a counter: a run on it
    learns one instance at a time up to where it ends or raises, as the
    loop does."""
    row = NOMINAL_GOLDEN_ROWS[0]
    n = CHUNK + 1000
    streams = _twin_lists(row, n, then=then)
    twins = _Twins(row, StrategyConfig(eidetic=True), streams=streams)
    errors = []
    for tree, stream, run in zip(twins.trees, streams, (prequential_run, per_instance_run)):
        with mock.patch.object(NominalCounter, "step", side_effect=AssertionError("counted")):
            with pytest.raises((RuntimeError, KeyError)) as caught:
                run(tree, stream, 2 * CHUNK, 100)
        errors.append((type(caught.value), str(caught.value)))
    assert errors[0] == errors[1]
    assert errors[0][0] is (RuntimeError if then is None else KeyError)
    twins.assert_equal()


def test_chunk_step_with_train_calls_between_runs():
    twins = _Twins(NOMINAL_GOLDEN_ROWS[1], StrategyConfig(used_attribute_policy="resplit", eidetic=True))
    for n in (2500, 1, CHUNK + 1, 700):
        twins.run(n)
        twins.train(None)
    twins.assert_equal()
    assert len(twins.trees[0].leaves()) > 1


def test_chunk_step_leaves_no_route_behind():
    vfdt = _Twins(NOMINAL_GOLDEN_ROWS[1], StrategyConfig())
    hat = _hat_twins(NOMINAL_GOLDEN_ROWS[0], HatConfig(voting_mode=VOTE_MULTI, alternate_depth_cap=10))
    for twins in (vfdt, hat):
        twins.run(CHUNK + 5)
        tree = twins.trees[0]
        assert tree._routed is None
        assert not any(isinstance(value, (NominalCounter, NumericCounter)) for value in vars(tree).values())
        # training on without a prediction first routes afresh, as the twin
        # does, and the next run starts from the tree as trained
        twins.train(None)
        twins.assert_equal()
        twins.run(700)
        twins.assert_equal()


HAT_CONFIGS = st.builds(
    HatConfig,
    used_attribute_policy=st.sampled_from(["exclude", "resplit", "eviscerate"]),
    infogain_mode=st.sampled_from(["instantaneous_over_examples", "averaged_over_evaluations"]),
    counter_mode=st.sampled_from(["node_time", "weight_seen"]),
    tau=st.sampled_from([0.05, 0.15]),
    voting_mode=st.sampled_from(_VOTE_MODES),
    alternate_depth_cap=st.sampled_from([1, 10]),
    replace_root_on_alternate_split=st.booleans(),
    replace_subtree_on_alternate_split=st.booleans(),
)
HAT_CALL_SIZES = st.lists(st.sampled_from([1, 500, CHUNK - 1, CHUNK + 1]), min_size=1, max_size=4)


def _hat_twins(row, config, seed=0, streams=None):
    return _Twins(row, config, seed, streams, make=partial(HoeffdingAdaptiveTreeClassifier, config=config, seed=seed))


@settings(max_examples=40, deadline=None)
@given(config=HAT_CONFIGS, row=st.sampled_from(NOMINAL_GOLDEN_ROWS + [NESTED_ROW]),
       seed=st.integers(0, 3), sizes=HAT_CALL_SIZES)
def test_hat_chunk_step_matches_per_instance_twin(config, row, seed, sizes):
    """The adaptive tree's chunk step against the per-instance loop, across
    drift: the same errors and series, and the same dump, leaf fields,
    detector fields, alternate instance counts and sprouts, whatever the
    flags, row, seed and call split."""
    twins = _hat_twins(row, config, seed)
    assert type(counter_for(twins.trees[0])) is HatCounter
    twins.run(6000)
    for n in sizes:
        twins.run(n)
    twins.assert_equal()


def test_hat_chunk_step_adds_votes_in_path_order():
    """Shares of 1/3 and 2/3 sum to 1.5 or to 1.4999999999999998 depending
    on the order of the two additions, so a tie between two classes goes
    the way ``_vote``'s order sends it: the root's alternate first, then
    the alternate of the root's child, on a mainline leaf of [1, 1]."""
    schema = Schema.uniform_nominal(2, 2, 2)

    def grown():
        hat = HoeffdingAdaptiveTreeClassifier(schema, HatConfig(voting_mode=VOTE_MULTI))
        leaf = partial(LearningLeaf, schema)
        root = hat._root
        root.mainline = SplitNode(0, None, [hat._new_position(leaf([1.0, 1.0])), hat._new_position(leaf([1.0, 1.0]))])
        root.alternate = hat._new_position(leaf([1.0, 2.0]))
        root.mainline.children[0].alternate = hat._new_position(leaf([2.0, 1.0]))
        return hat

    instances = [Instance((0, 0), 0)] + [Instance((1, 1), 1)] * 9
    twins = _Twins(None, None, streams=[_FixedRows(schema, instances) for _ in range(2)], make=lambda _: grown())
    assert twins.run(len(instances), 1).error_series[0] == (1, 0.0)
    twins.assert_equal()


@pytest.mark.parametrize("config", [
    HatConfig(voting_mode=VOTE_MULTI, alternate_depth_cap=10),
    HatConfig(voting_mode="single_alternate", counter_mode="node_time", used_attribute_policy="eviscerate"),
], ids=["vote-nested", "single-node_time-eviscerate"])
def test_hat_chunk_step_with_train_calls_between_runs(config):
    """A tree trained directly between runs is read afresh: the counter kept
    from the last run no longer fits it."""
    twins = _hat_twins(NOMINAL_GOLDEN_ROWS[0], config)
    for n in (6000, 1, CHUNK + 1, 700, 500, 500):
        twins.run(n)
        twins.train(None)
    twins.assert_equal()
    assert twins.trees[0]._n_sprouts > 0


def _sparse_error_instances(seed):
    """Instances labelled by ``v0 and v1`` over three binary attributes,
    with labels flipped in stretches like ``test_detectors``'s
    ``sparse_error_stream``: a clean start, 1% flips, a burst of flips, a
    long clean stretch, then 0.2% flips. A grown tree's detectors take
    windows that go quiet, then bursts of errors."""
    rng = np.random.Generator(np.random.PCG64(seed))
    flipped = np.concatenate([np.zeros(700, bool), rng.random(1500) < 0.01, np.ones(300, bool),
                              np.zeros(2500, bool), rng.random(1000) < 0.002])
    values = rng.integers(0, 2, (len(flipped), 3))
    labels = (values[:, 0] & values[:, 1]) ^ flipped
    return [Instance(tuple(v), label) for v, label in zip(values.tolist(), labels.tolist())]


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("config", [
    HatConfig(voting_mode=VOTE_MULTI, alternate_depth_cap=1),
    HatConfig(alternate_depth_cap=10),
], ids=["vote", "nested"])
def test_hat_chunk_step_on_quiet_windows_and_bursts(config, seed):
    """Where most detector windows hold a few errors or none, most checks
    are cleared without a scan, in bulk in the chunk step and one by one in
    the per-instance loop; after every call the two trees are the same,
    detector rows, sums and ticks included."""
    instances = _sparse_error_instances(seed)
    schema = Schema.uniform_nominal(3, 2, 2)
    twins = _hat_twins(None, config, seed, [_FixedRows(schema, instances) for _ in range(2)])
    left = len(instances)
    sizes = [500, 1, CHUNK - 1, 33, CHUNK + 1, 700]
    while left:
        n = min(sizes[0], left)
        sizes.append(sizes.pop(0))
        twins.run(n, 100)
        twins.assert_equal()
        left -= n
    assert twins.trees[0]._n_sprouts > 0


@pytest.mark.parametrize("make", [
    HoeffdingTreeClassifier,
    partial(HoeffdingAdaptiveTreeClassifier, config=HatConfig(voting_mode=VOTE_MULTI)),
], ids=["vfdt", "hat"])
def test_chunk_step_after_fractional_nominal_cells(make):
    """Whole class counts over fractional nominal cells: the two halves of
    a unit weight on two values. Such a leaf takes its instances through
    the tree."""
    row = NOMINAL_GOLDEN_ROWS[1]
    twins = _Twins(row, StrategyConfig(), make=make)
    for values, label, _ in take(build_stream(row, 7), 300):
        other = ((values[0] + 1) % 3,) + values[1:]
        twins.train([Instance(values, label, 0.5), Instance(other, label, 0.5)])
    tree = twins.trees[0]
    leaves = [position.mainline for position, _, _ in positions(getattr(tree, "root", None) or tree._root)
              if position.mainline.__class__ is not SplitNode]
    assert all(float(m).is_integer() for leaf in leaves for m in leaf.class_dist)
    assert any(not cell.is_integer() for leaf in leaves for table in leaf.nominal for row in table for cell in row)
    twins.run(3 * CHUNK)
    twins.assert_equal()


def test_hat_counter_for_each_adaptive_tree():
    """The counter takes a plain adaptive tree on a nominal schema;
    drawn weights, replay buffers, a numeric schema, a subclass and a
    recorder on the object take each instance through the tree."""
    nominal, numeric = build_stream(NOMINAL_GOLDEN_ROWS[0]).schema, build_stream(NUMERIC_GOLDEN_ROWS[0]).schema
    assert type(counter_for(HoeffdingAdaptiveTreeClassifier(nominal))) is HatCounter
    for hat in (HoeffdingAdaptiveTreeClassifier(nominal, HatConfig(poisson_weighting=True)),
                HoeffdingAdaptiveTreeClassifier(nominal, HatConfig(eidetic=True)),
                HoeffdingAdaptiveTreeClassifier(numeric),
                type("Sub", (HoeffdingAdaptiveTreeClassifier,), {})(nominal)):
        assert counter_for(hat) is None
    hat = HoeffdingAdaptiveTreeClassifier(nominal)
    hat.predict_label = hat.predict_label
    assert counter_for(hat) is None


@pytest.mark.parametrize("config", [
    StrategyConfig(counter_mode="node_time"),
    StrategyConfig(eidetic=True),
    StrategyConfig(eidetic=True, counter_mode="node_time", used_attribute_policy="resplit"),
], ids=["node_time", "eidetic", "eidetic-node_time-resplit"])
@pytest.mark.parametrize("row", NUMERIC_GOLDEN_ROWS + ["SEAGenerator -i 2 -f 2"])
def test_numeric_chunk_step_in_500_instance_calls(row, config):
    twins = _Twins(row, config)
    for _ in range(40):
        twins.run(500)
    twins.assert_equal()
    assert len(twins.trees[0].leaves()) > 1


def test_numeric_chunk_step_keeps_the_first_of_equal_zero_bounds():
    """0.0 and -0.0 are equal, so observe's strict ``v < lo`` and ``v > hi``
    keep whichever reached a bound first, and so does the chunk step."""
    rng = _rng(5)
    instances = []
    for _ in range(1500):
        # attribute 0 has zeros at its low end, attribute 1 at its high end
        a, b = (float(rng.choice([0.0, -0.0])) if rng.random() < 0.2 else sign * float(rng.random())
                for sign in (1.0, -1.0))
        instances.append(Instance((a, b), int(a > 0.5)))
    schema = Schema.unit_numeric(2)
    twins = _Twins(None, StrategyConfig(), streams=[_FixedRows(schema, instances) for _ in range(2)])
    for _ in range(3):
        twins.run(500)
    twins.assert_equal()
    zeros = [bound for leaf in twins.trees[0].leaves() for bound in (leaf.lo[0], leaf.hi[1]) if bound == 0.0]
    assert {math.copysign(1.0, bound) for bound in zeros} == {1.0, -1.0}


def test_numeric_chunk_step_adds_in_learn_order_above_2_53():
    """Past 2**53 a float sum stops growing by 1.0 at a time, though adding
    k at once would move it: the chunk step's running sums add in learn
    order, one 1.0 at a time, as the per-instance loop does."""
    row = NUMERIC_GOLDEN_ROWS[0]
    twins = _Twins(row, StrategyConfig(eidetic=True))
    heavy = build_stream(row, 9).next_instance()
    twins.train([Instance(heavy.values, heavy.class_label, 2.0**53)])
    for _ in range(3):
        twins.run(500)
    twins.assert_equal()
    assert max(twins.trees[0].root.mainline.class_dist) == 2.0**53


@pytest.mark.parametrize("row", [NOMINAL_GOLDEN_ROWS[0], NUMERIC_GOLDEN_ROWS[0]])
def test_a_predict_label_recorder_sees_every_instance(row):
    """A learner with its own predict_label or train runs one instance at a
    time, so a recorder or a tracer on a VFDT sees every instance."""
    stream = build_stream(row)
    tree = HoeffdingTreeClassifier(stream.schema)
    seen = []
    predict = tree.predict_label
    tree.predict_label = lambda inst: seen.append(inst) or predict(inst)
    prequential_run(tree, stream, 2 * CHUNK + 5)
    assert len(seen) == 2 * CHUNK + 5


# learners that never reach a counter: a VFDT with a label recorder on the
# object, an adaptive tree on a numeric row, and a VFDT on a list stream
ONE_AT_A_TIME = st.one_of(
    st.tuples(st.just("recorder"), st.sampled_from(GOLDEN_ROWS)),
    st.tuples(st.just("numeric-hat"), st.sampled_from(NUMERIC_GOLDEN_ROWS)),
    st.tuples(st.just("list"), st.sampled_from(GOLDEN_ROWS)),
)


@settings(max_examples=40, deadline=None)
@given(kind_row=ONE_AT_A_TIME, seed=st.integers(0, 3), sizes=CALL_SIZES,
       snapshot_every=st.sampled_from([0, 1, 7, 500, CHUNK + 1]))
def test_one_at_a_time_step_matches_per_instance_twin(kind_row, seed, sizes, snapshot_every):
    """A run that steps one instance at a time, in chunks, gives the
    per-instance loop's errors, series and tree, whatever the call split
    and the window, windows across chunk and call boundaries included."""
    kind, row = kind_row
    streams = [build_stream(row, seed) for _ in range(2)]
    schema = streams[0].schema
    if kind == "numeric-hat":
        trees = [HoeffdingAdaptiveTreeClassifier(schema, seed=seed) for _ in range(2)]
    else:
        trees = [HoeffdingTreeClassifier(schema) for _ in range(2)]
    if kind == "recorder":
        labels = []
        predict = trees[0].predict_label
        trees[0].predict_label = lambda inst: labels.append(predict(inst)) or labels[-1]
    if kind == "list":
        instances = take(streams[0], sum(sizes))
        streams = [_ListStream(schema, instances) for _ in range(2)]
    counted = AssertionError("counted")
    with (mock.patch.object(NominalCounter, "step", side_effect=counted),
          mock.patch.object(NumericCounter, "step", side_effect=counted),
          mock.patch.object(HatCounter, "step", side_effect=counted)):
        for n in sizes:
            result = prequential_run(trees[0], streams[0], n, snapshot_every)
            assert (result.final_error, result.error_series) == per_instance_run(trees[1], streams[1], n,
                                                                                 snapshot_every)
    state = hat_state if kind == "numeric-hat" else tree_state
    assert state(trees[0]) == state(trees[1])
    if kind == "recorder":
        assert len(labels) == sum(sizes)


# --------------------------------------------------------------------------
# generators' arrays against the per-instance loop
# --------------------------------------------------------------------------

ARRAY_ROWS = [NUMERIC_GOLDEN_ROWS[0], "SEAGenerator -i 2 -f 2 -n 0.1", *NOMINAL_GOLDEN_ROWS,
              "RecurrentConceptDriftStream -x 3000 -y 3000 -z 100 -s (SEAGenerator -i 2 -f 2) "
              "-d (SEAGenerator -i 3 -f 3)"]
ARRAY_CALLS = [3000] + [1, 500, CHUNK - 1, CHUNK + 1] * 2


@pytest.mark.parametrize("config", [
    StrategyConfig(),
    StrategyConfig(eidetic=True),
    StrategyConfig(counter_mode="node_time"),
], ids=["default", "eidetic", "node_time"])
@pytest.mark.parametrize("row", ARRAY_ROWS)
def test_array_chunks_match_the_per_instance_loop(row, config):
    """A VFDT fed a generator's arrays (numeric values, or nominal cells)
    and the per-instance loop give the same errors, series, dump and leaf
    fields, call by call, and every instance is read as arrays."""
    streams = [build_stream(row) for _ in range(2)]
    reads = []
    next_arrays = streams[0].next_arrays
    streams[0].next_arrays = lambda n: reads.append(n) or next_arrays(n)
    trees = [HoeffdingTreeClassifier(streams[0].schema, config) for _ in range(2)]
    for n in ARRAY_CALLS:
        arrays = prequential_run(trees[0], streams[0], n, 100)
        assert (arrays.final_error, arrays.error_series) == per_instance_run(trees[1], streams[1], n, 100)
    assert sum(reads) == sum(ARRAY_CALLS)
    assert tree_state(trees[0]) == tree_state(trees[1])
    assert len(trees[0].leaves()) > 1


@pytest.mark.parametrize("row", [ARRAY_ROWS[1], *NOMINAL_GOLDEN_ROWS, ARRAY_ROWS[-1]],
                         ids=["sea", "stagger-mixture", "abrupt", "sea-mixture"])
def test_a_next_instance_wrapper_on_a_generator_sees_every_instance(row):
    """A generator whose ``next_instance`` is replaced on the object (a
    tracer) is read through that wrapper, instance by instance, and never
    as arrays: numeric, nominal and mixture alike."""
    stream, twin = build_stream(row), build_stream(row)
    seen = []
    next_instance = stream.next_instance
    stream.next_instance = lambda: seen.append(1) or next_instance()

    def no_arrays(n):
        raise AssertionError("read as arrays")

    stream.next_arrays = no_arrays
    tree, twin_tree = HoeffdingTreeClassifier(stream.schema), HoeffdingTreeClassifier(stream.schema)
    assert type(counter_for(tree)) in (NominalCounter, NumericCounter)
    result = prequential_run(tree, stream, 2 * CHUNK + 5, 500)
    assert len(seen) == 2 * CHUNK + 5
    assert (result.final_error, result.error_series) == per_instance_run(twin_tree, twin, 2 * CHUNK + 5, 500)
    assert tree_state(tree) == tree_state(twin_tree)


# --------------------------------------------------------------------------
# a rejected instance changes nothing
# --------------------------------------------------------------------------

MIXED = Schema((NominalAttribute(3), NumericAttribute(), NominalAttribute(2), NumericAttribute()), 3)
_NOMINAL, _NUMERIC = MIXED.nominal_attrs, MIXED.numeric_attrs


def _history(seed, n):
    """n valid instances on ``MIXED``, some of them weighted."""
    rng = _rng(seed)
    history = []
    for _ in range(n):
        values = tuple(int(rng.integers(attr.n_values)) if isinstance(attr, NominalAttribute)
                       else float(rng.normal(0.0, 1.0)) for attr in MIXED.attributes)
        label = int(values[0] + (values[1] > 0) + values[2]) % MIXED.class_count
        if rng.random() < 0.1:
            label = int(rng.integers(MIXED.class_count))
        weight = float(rng.choice([1.0, 1.0, 1.0, 0.5, 2.0, 0.0]))
        history.append(Instance(values, label, weight))
    return history


def _with_value_at(values, i, value):
    return values[:i] + (value,) + values[i + 1:]


@st.composite
def bad_instances(draw):
    """A valid instance with one thing wrong, and whether it can be
    predicted (routed) before ``train`` rejects it."""
    values = tuple(draw(st.integers(0, attr.n_values - 1)) if isinstance(attr, NominalAttribute)
                   else draw(st.floats(-5.0, 5.0)) for attr in MIXED.attributes)
    label, weight = draw(st.integers(0, MIXED.class_count - 1)), 1.0
    kind = draw(st.sampled_from(["numeric", "nominal", "label", "weight", "length"]))
    routable = True
    if kind == "numeric":
        values = _with_value_at(values, draw(st.sampled_from(_NUMERIC)),
                                draw(st.sampled_from([math.nan, math.inf, -math.inf])))
    elif kind == "nominal":
        i = draw(st.sampled_from(_NOMINAL))
        n = MIXED.attributes[i].n_values
        values = _with_value_at(values, i, draw(st.one_of(
            st.sampled_from([-1, n, n + 7]), st.floats(0.0, n - 1.0), st.none())))
        routable = False
    elif kind == "label":
        label = draw(st.one_of(st.sampled_from([-1, MIXED.class_count, MIXED.class_count + 4]),
                               st.floats(0.0, 2.0), st.none(), st.just("1")))
    elif kind == "weight":
        weight = draw(st.one_of(st.floats(max_value=-1e-300), st.just(math.nan),
                                st.floats(min_value=math.nextafter(MAX_WEIGHT, math.inf))))
    else:
        values = values[:-1] if draw(st.booleans()) else values + (0.5,)
        routable = False
    return Instance(values, label, weight), routable


@pytest.mark.parametrize("make", [
    lambda eidetic: HoeffdingTreeClassifier(MIXED, StrategyConfig(tau=0.2, eidetic=eidetic)),
    lambda eidetic: HoeffdingAdaptiveTreeClassifier(
        MIXED, HatConfig(tau=0.2, eidetic=eidetic, voting_mode=VOTE_MULTI), seed=3),
], ids=["vfdt", "hat"])
@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**16), n=st.integers(0, 700), eidetic=st.booleans(), bad=bad_instances(),
       predict_first=st.booleans())
def test_train_rejects_a_bad_instance_without_changing_state(make, seed, n, eidetic, bad, predict_first):
    """After any valid history, ``train`` on an instance with one bad field
    (a NaN or infinite numeric value; an out-of-range, float or None
    nominal value; a non-int or out-of-range label; a negative, NaN or
    too-large weight; too few or too many values) raises ValueError and
    leaves the tree as it was, and as a twin that never saw it, after
    more valid training too."""
    bad, routable = bad
    history = _history(seed, n + 5)
    tree, twin = make(eidetic), make(eidetic)
    state = hat_state if isinstance(tree, HoeffdingAdaptiveTreeClassifier) else tree_state
    for inst in history[:n]:
        for t in (tree, twin):
            t.predict_label(inst)
            t.train(inst)
    before = state(tree)
    if predict_first and routable:
        tree.predict_label(bad)
    with pytest.raises(ValueError):
        tree.train(bad)
    assert state(tree) == before
    for inst in history[n:]:
        for t in (tree, twin):
            t.predict_label(inst)
            t.train(inst)
    assert state(tree) == state(twin)
