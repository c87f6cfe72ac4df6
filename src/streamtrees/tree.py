"""Incremental decision tree driven by the Hoeffding split test.

A leaf is one object, a ``NodeStatistics`` on its schema's shared attribute
layout: it keeps attribute-value-class counts (``n[attr][value][class]``) and
per-class Gaussian columns with one count per class, not instances, and is
evaluated for a split whenever its counter has advanced by ``GRACE_PERIOD``.
Each behavior the base algorithm leaves open is a flag on :class:`StrategyConfig`:

- ``eidetic``: keep a replay buffer so fresh children start from exact
  recounts instead of zeroed statistics (the default "amnesiac" children).
  A leaf buffers in learn order in three columns and allocates no object per
  instance: ``buffer`` is a list of the values tuples, ``buffer_labels`` a
  ``bytearray`` of the labels (a list above 256 classes), and the weights
  are kept as runs of equal consecutive weights, one weight per run in
  ``buffer_weights`` and the entry index where it starts in the
  ``array('Q')`` ``buffer_runs``. An entry costs about 9 bytes unweighted
  and 19 under Poisson weighting; ``LearningLeaf.buffered`` reads the
  entries back. New and replayed instances enter through
  ``LearningLeaf.learn`` alone, which buffers only positive weights: replay
  then teaches each child exactly what its parent learned. Buffers are
  unbounded and grow with the stream; desk-scale runs only.
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
from itertools import chain, islice, repeat

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
    """A leaf's attribute observers, which only ``observe`` updates: nominal
    counts and per-class Gaussians, on the schema's own ``nominal_attrs`` and
    ``numeric_attrs``. Numeric attribute ``i`` is column ``j =
    schema.numeric_column[i]``: class ``c`` has Welford's ``means[c][j]`` and
    ``m2s[c][j]``, and ``lo[j]``/``hi[j]`` bound the values seen. Every numeric
    attribute sees the same weights, so ``counts[c]`` is one count per class.
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

class SplitNode:
    """Internal node: multiway on a nominal attribute or binary on a threshold."""

    __slots__ = ("attr", "threshold", "children")

    def __init__(self, attr: int, threshold: float | None, children: list):
        self.attr = attr
        self.threshold = threshold
        self.children = children

    def branch(self, values) -> int:
        if self.threshold is None:
            return values[self.attr]
        return 0 if values[self.attr] <= self.threshold else 1


class LearningLeaf(NodeStatistics):
    """Leaf accumulating statistics; the only place learning happens. It is
    its own ``NodeStatistics``, updated through the inherited ``observe``."""

    __slots__ = (
        "class_dist",
        "total_weight",
        "node_time",
        "counter_at_last_eval",
        "used_attributes",
        "buffer",
        "buffer_labels",
        "buffer_weights",
        "buffer_runs",
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
        # the replay columns, None when amnesiac: values tuples, labels, and
        # the weight and first entry index of each run of equal weights
        if eidetic:
            self.buffer = []
            self.buffer_labels = bytearray() if schema.class_count <= 256 else []
            self.buffer_weights = []
            self.buffer_runs = array("Q")
        else:
            self.buffer = self.buffer_labels = self.buffer_weights = self.buffer_runs = None
        self.eval_count = 0
        self.gain_sums = [0.0] * schema.n_attributes

    def learn(self, values, label: int, weight: float) -> None:
        """Add one instance, new or replayed, and buffer it when eidetic.

        The only way into a leaf. A weight <= 0 adds nothing and is not
        buffered; ``node_time`` counts new instances, so ``learn_at_leaf`` bumps it.
        """
        if weight <= 0.0:
            return
        self.observe(values, label, weight)
        self.class_dist[label] += weight
        self.total_weight += weight
        buffer = self.buffer
        if buffer is not None:
            weights = self.buffer_weights
            # array.append costs about three list appends: once per run only
            if not weights or weight != weights[-1]:
                self.buffer_runs.append(len(buffer))
                weights.append(weight)
            buffer.append(values)
            self.buffer_labels.append(label)

    def buffered(self):
        """The buffered ``(values, label, weight)`` entries, in learn order."""
        runs = self.buffer_runs
        lengths = map(operator.sub, chain(islice(runs, 1, None), (len(self.buffer),)), runs)
        weights = chain.from_iterable(map(repeat, self.buffer_weights, lengths))
        return zip(self.buffer, self.buffer_labels, weights)

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


def perform_split(leaf: LearningLeaf, decision: SplitDecision, config: StrategyConfig):
    """Turn the leaf into a split node, or clear it for an evisceration.

    Fresh children start with zeroed statistics and a class distribution read
    off the parent's counts for their branch (amnesiac default); in eidetic
    mode the buffered instances are replayed instead so child statistics are
    exact. Returns the new SplitNode, or None when the leaf was eviscerated
    in place.
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
    node = SplitNode(attr, threshold, children)
    if eidetic:
        for values, label, weight in leaf.buffered():
            children[node.branch(values)].learn(values, label, weight)
    for child in children:
        child.counter_at_last_eval = _leaf_counter(child, config)
    return node


def learn_at_leaf(leaf: LearningLeaf, values, label: int, weight: float, config: StrategyConfig):
    """Learn one new instance at a leaf, then split it once the grace period is up.

    This is the learn step of both trees. Returns the SplitNode that replaces
    the leaf, or None when the leaf stays (an evisceration clears it in place).
    """
    leaf.node_time += 1
    leaf.learn(values, label, weight)
    counter = _leaf_counter(leaf, config)
    if counter - leaf.counter_at_last_eval < GRACE_PERIOD:
        return None
    leaf.counter_at_last_eval = counter
    if leaf.is_pure():
        return None
    decision = evaluate_split(leaf, config)
    if decision.action == NO_SPLIT:
        return None
    return perform_split(leaf, decision, config)


def check_shape(schema: Schema, instance: Instance) -> None:
    """Raise ValueError when the value count or the label does not fit the schema,
    the label is not an integer, or the weight is negative or NaN."""
    try:
        label = operator.index(instance.class_label)
    except TypeError:
        label = -1  # a float label like 1.0 would index nothing: out of range
    if len(instance.values) != schema.n_attributes or not 0 <= label < schema.class_count:
        raise ValueError(
            f"instance does not match schema: {len(instance.values)} values, "
            f"label {instance.class_label!r}"
        )
    if not instance.weight >= 0.0:
        raise ValueError(f"instance weight must be >= 0, got {instance.weight!r}")


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
        self.root = LearningLeaf(schema, eidetic=self.config.eidetic)
        # the instance predict_label routed last, and its (leaf, parent, slot);
        # the next train of that same object reuses the route
        self._routed: Instance | None = None
        self._route = None

    def _sort_to_leaf(self, values):
        node = self.root
        parent = None
        slot = 0
        while node.__class__ is SplitNode:
            parent = node
            # SplitNode.branch inlined: the call per level cost ~5% of VFDT throughput
            if node.threshold is None:
                slot = values[node.attr]
            else:
                slot = 0 if values[node.attr] <= node.threshold else 1
            node = node.children[slot]
        return node, parent, slot

    def train(self, instance: Instance) -> None:
        routed, self._routed = self._routed, None
        check_shape(self.schema, instance)
        values, label, weight = instance
        if routed is instance:
            leaf, parent, slot = self._route
        else:
            leaf, parent, slot = self._sort_to_leaf(values)
        new_node = learn_at_leaf(leaf, values, label, weight, self.config)
        if new_node is not None:
            if parent is None:
                self.root = new_node
            else:
                parent.children[slot] = new_node

    def predict_label(self, instance: Instance) -> int:
        self._route = route = self._sort_to_leaf(instance.values)
        self._routed = instance
        return argmax_label(route[0].class_dist)

    def dump(self) -> str:
        lines: list[str] = []
        _dump_node(self.root, 0, lines, [0])
        return "\n".join(lines) + "\n"

    def leaves(self):
        out = []
        stack = [self.root]
        while stack:
            node = stack.pop()
            if node.__class__ is SplitNode:
                stack.extend(node.children)
            else:
                out.append(node)
        return out


def describe(node) -> str:
    """The dump line of a split node or a leaf, shared by both trees' dumps."""
    if node.__class__ is SplitNode:
        test = "nominal" if node.threshold is None else f"<= {node.threshold:.6g}"
        return f"split attr={node.attr} test={test}"
    dist = "[" + ", ".join(f"{m:g}" for m in node.class_dist) + "]"
    used = ",".join(str(a) for a in sorted(node.used_attributes)) or "-"
    return (f"leaf dist={dist} node_time={node.node_time} "
            f"weight_seen={node.total_weight:g} used={used}")


def _dump_node(node, depth: int, lines: list, counter: list) -> None:
    lines.append(f"{'  ' * depth}[{counter[0]}] {describe(node)}")
    counter[0] += 1
    if node.__class__ is SplitNode:
        for child in node.children:
            _dump_node(child, depth + 1, lines, counter)
