"""Adaptive tree: a Hoeffding tree with a change detector at every node.

A node whose detector fires starts a fresh alternate subtree that trains in
parallel on the same instances. The alternate replaces the mainline once its
windowed error is lower with non-overlapping confidence bounds, and is
discarded if it proves significantly worse. ``train`` runs that test itself,
every ``replacement_check_interval`` instances the alternate trains on, a
count each alternate keeps itself; no public call promotes. ``dump`` shows
each node's detector width and estimate.
Every contested behavior is a flag on :class:`HatConfig`:

- ``alternate_depth_cap``: how many alternate edges a path may hold, i.e.
  whether alternates nest. A node sprouts an alternate only while it hangs
  fewer than ``alternate_depth_cap`` alternate edges below the root; the
  default of 1 means alternates never sprout alternates of their own.
- ``voting_mode``: whether unpromoted alternates contribute to predictions
  (none / the shallowest one on the path / all of them / all except alternates
  that are still single leaves).
- ``poisson_weighting``: draw each leaf update's weight from Poisson(1).
- ``replace_root_on_alternate_split`` / ``replace_subtree_on_alternate_split``:
  promote an alternate the moment it performs its own first split, skipping
  the error comparison, at the root / below the root respectively.

``HatConfig`` is a ``StrategyConfig`` plus these flags, and leaves learn and
split through the base tree's ``learn_at_leaf`` with that config, so every
base-tree flag and constant acts exactly as it does in the base tree, on the
same one-object leaves. Each node is a ``_HatNode``, a base-tree ``Position``
that also holds a detector and an alternate, so both trees route through
``tree.walk``. Every node's detector is an ``AdwinDetector`` built by
``_new_detector``; its two parameters and the replacement test's confidence
are fixed constants, not flags. A subclass whose ``_new_detector`` returns
a detector that never fires learns exactly what the base tree learns.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .detectors import AdwinDetector
from .schema import Instance, Schema
from .tree import (
    LearningLeaf,
    Position,
    SplitNode,
    StrategyConfig,
    argmax_label,
    check_shape,
    dump,
    hoeffding_bound,
    learn_at_leaf,
    walk,
)
# perfbench/spans.py times splits by patching these names in this module too
from .tree import evaluate_split, perform_split  # noqa: F401

VOTE_NONE = "none"
VOTE_SINGLE = "single_alternate"
VOTE_MULTI = "multiple_alternates"
VOTE_MULTI_NO_SINGLE_LEAVES = "multiple_excluding_single_leaves"

_VOTE_MODES = (VOTE_NONE, VOTE_SINGLE, VOTE_MULTI, VOTE_MULTI_NO_SINGLE_LEAVES)

# the alternate-replacement test's confidence (Bifet & Gavaldà, IDA 2009)
REPLACEMENT_DELTA = 0.05

@dataclass(frozen=True)
class HatConfig(StrategyConfig):
    voting_mode: str = VOTE_NONE
    poisson_weighting: bool = False
    replace_root_on_alternate_split: bool = False
    replace_subtree_on_alternate_split: bool = False
    replacement_check_interval: int = 300
    alternate_depth_cap: int = 1

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.voting_mode not in _VOTE_MODES:
            raise ValueError(f"bad voting_mode {self.voting_mode!r}")
        if self.replacement_check_interval < 1:
            raise ValueError("replacement_check_interval must be >= 1")
        if self.alternate_depth_cap < 1:
            raise ValueError("alternate_depth_cap must be >= 1")


class _HatNode(Position):
    """A tree position that also holds the drift detector and an optional alternate.

    The detector doubles as the node's windowed error estimator; an alternate
    subtree's root detector plays the same role for the replacement test.
    """

    __slots__ = ("alternate", "detector", "instances")

    def __init__(self, mainline, detector):
        super().__init__(mainline)
        self.alternate: _HatNode | None = None
        self.detector = detector
        self.instances = 0  # the instances it has trained on as an alternate


class HoeffdingAdaptiveTreeClassifier:
    """Hoeffding tree wrapped with per-node drift detection and alternates."""

    def __init__(self, schema: Schema, config: HatConfig | None = None, seed: int = 0):
        self.schema = schema
        self.config = config if config is not None else HatConfig()
        self._rng = np.random.Generator(np.random.PCG64(seed))
        self._poisson_buf: list[float] = []
        self._root = self._new_node()
        # the instance predict routed last, and the mainline path of
        # _HatNodes it walked from the root; the next train of that same
        # object reuses the path
        self._routed: Instance | None = None
        self._path: list | None = None
        self._n_sprouts = 0

    # -- construction helpers ------------------------------------------------

    def _new_detector(self):
        """The one place a node's detector is built."""
        return AdwinDetector()

    def _new_position(self, leaf) -> _HatNode:
        """A new node holding ``leaf``: the root, an alternate, or a split's child."""
        return _HatNode(leaf, self._new_detector())

    def _new_node(self) -> _HatNode:
        return self._new_position(LearningLeaf(self.schema, eidetic=self.config.eidetic))

    def _poisson_weight(self) -> float:
        if not self._poisson_buf:
            self._poisson_buf = self._rng.poisson(1.0, 1024).astype(float).tolist()
        return self._poisson_buf.pop()

    # -- training --------------------------------------------------------------

    def train(self, instance: Instance) -> None:
        routed, self._routed = self._routed, None
        check_shape(self.schema, instance)
        path = self._path if routed is instance else None
        self._train_subtree(self._root, instance, 0, path)

    def _train_subtree(self, hnode: _HatNode, instance: Instance, depth: int,
                       path: list | None = None) -> None:
        """Train the subtree under hnode, which hangs ``depth`` alternate edges below the root.

        ``path`` is hnode's mainline path for this instance when the caller
        has already routed it.
        """
        if path is None:
            path = walk(hnode, instance.values)
        leaf_node = path[-1]
        bit = 1 if argmax_label(leaf_node.mainline.class_dist) != instance.class_label else 0
        cfg = self.config
        for nd in path:
            if nd.detector.add_element(bit) and depth < cfg.alternate_depth_cap:
                # sprout an alternate, or restart one the change invalidates
                # because it is not already tracking better than the mainline;
                # a detector that just fired keeps a non-empty window
                alt = nd.alternate
                if alt is None or (
                    alt.detector.width > 0
                    and alt.detector.estimate() >= nd.detector.estimate()
                ):
                    nd.alternate = self._new_node()
                    self._n_sprouts += 1
            alt = nd.alternate
            if alt is None:
                continue
            # premature replacement applies while the alternate is one leaf
            promote_on_split = alt.mainline.__class__ is not SplitNode and (
                cfg.replace_root_on_alternate_split if nd is self._root
                else cfg.replace_subtree_on_alternate_split)
            at_check = self._instances_to_check(alt) == 1
            self._train_subtree(alt, instance, depth + 1)
            alt.instances += 1
            # after a promotion everything deeper on the old path is discarded,
            # and the promoted subtree already trained on this instance
            if promote_on_split and alt.mainline.__class__ is SplitNode:
                self._promote(nd)
                return
            if at_check and self._maybe_replace(nd):
                return
        values, label, weight = instance
        if self._draws_weights():
            weight *= self._poisson_weight()
        learn_at_leaf(leaf_node, values, label, weight, cfg, self._new_position)

    def _draws_weights(self) -> bool:
        """Whether each leaf update's weight is drawn from Poisson(1).

        The one reader of ``poisson_weighting``, which ``chunks.counter_for``
        asks too: each setting is read in one function
        (``test_each_learner_setting_is_read_in_one_function``)."""
        return self.config.poisson_weighting

    # -- replacement -----------------------------------------------------------

    def _instances_to_check(self, alt: _HatNode) -> int:
        """The instances ``alt`` trains on up to and including the one that
        makes its next replacement check."""
        interval = self.config.replacement_check_interval
        return interval - alt.instances % interval

    def _maybe_replace(self, nd: _HatNode) -> bool:
        """Promote nd's alternate when its error is lower beyond both bounds.

        A significantly worse alternate is discarded instead, freeing the
        slot for a future detection. nd's detector has just taken this
        instance, so its window is never empty; the alternate's is empty
        right after the alternate promoted its own alternate.
        """
        alt = nd.alternate
        wm, wa = nd.detector.width, alt.detector.width
        if wa <= 0:
            return False
        em, ea = nd.detector.estimate(), alt.detector.estimate()
        bm = hoeffding_bound(1.0, REPLACEMENT_DELTA, wm)
        ba = hoeffding_bound(1.0, REPLACEMENT_DELTA, wa)
        if ea + ba < em - bm:
            self._promote(nd)
            return True
        if em + bm < ea - ba:
            nd.alternate = None
        return False

    def _promote(self, nd: _HatNode) -> None:
        """Install the alternate, with its own alternate, in place of the mainline subtree."""
        alt = nd.alternate
        nd.mainline = alt.mainline
        nd.alternate = alt.alternate
        nd.detector = self._new_detector()

    # -- prediction ------------------------------------------------------------

    def _alternate_votes(self, path: list, values, out: list) -> None:
        """Append the leaf distribution of each alternate off ``path`` that votes,
        then walk each alternate's own path the same way.

        Only ``_train_subtree`` reads ``alternate_depth_cap``: alternates
        sprout only within it, so the walk needs no cap of its own.
        """
        mode = self.config.voting_mode
        if mode == VOTE_NONE:
            return
        for node in path:
            alt = node.alternate
            if alt is not None:
                alt_path = walk(alt, values)
                if mode != VOTE_MULTI_NO_SINGLE_LEAVES or alt.mainline.__class__ is SplitNode:
                    out.append(alt_path[-1].mainline.class_dist)
                if mode == VOTE_SINGLE:
                    return  # the shallowest alternate on the mainline path votes alone
                self._alternate_votes(alt_path, values, out)

    def _vote(self, instance: Instance) -> list:
        """The voted class distribution: the mainline leaf's own ``class_dist``,
        not a copy, when no alternate votes."""
        values = instance.values
        self._path = path = walk(self._root, values)
        self._routed = instance
        mainline = path[-1].mainline.class_dist
        contributions: list = []
        self._alternate_votes(path, values, contributions)
        if not contributions:
            return mainline
        # each distribution normalised to 1 and summed; the mainline's seeds the sum
        total = sum(mainline)
        combined = [m / total for m in mainline] if total > 0.0 else [0.0] * len(mainline)
        for dist in contributions:
            total = sum(dist)
            if total > 0.0:
                for i, m in enumerate(dist):
                    combined[i] += m / total
        return combined

    def predict_label(self, instance: Instance) -> int:
        return argmax_label(self._vote(instance))

    # -- introspection -----------------------------------------------------------

    def dump(self) -> str:
        return dump(self._root, self._detector_fields)

    @staticmethod
    def _detector_fields(hnode: _HatNode) -> str:
        width = hnode.detector.width
        est = f"{hnode.detector.estimate():.4f}" if width > 0 else "-"
        return f" det_width={width} det_est={est}"
