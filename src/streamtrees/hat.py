"""Adaptive tree: a Hoeffding tree with a change detector at every node.

A node whose detector fires starts a fresh alternate subtree that trains in
parallel on the same instances. The alternate replaces the mainline once its
windowed error is lower with non-overlapping confidence bounds (checked every
``replacement_check_interval`` instances), and is discarded if it proves
significantly worse. Every contested behavior is a flag on
:class:`HatConfig`:

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
base-tree flag, ``counter_mode`` included, acts exactly as it does in the
base tree.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .detectors import AdwinDetector, NeverFireDetector
from .schema import Instance, Schema, new_instance
from .tree import (
    LearningLeaf,
    SplitNode,
    StrategyConfig,
    argmax_label,
    check_shape,
    describe,
    learn_at_leaf,
)
# perfbench/spans.py times splits by patching these names in this module too
from .tree import evaluate_split, perform_split  # noqa: F401

VOTE_NONE = "none"
VOTE_SINGLE = "single_alternate"
VOTE_MULTI = "multiple_alternates"
VOTE_MULTI_NO_SINGLE_LEAVES = "multiple_excluding_single_leaves"

_VOTE_MODES = (VOTE_NONE, VOTE_SINGLE, VOTE_MULTI, VOTE_MULTI_NO_SINGLE_LEAVES)

_NO_ROUTES: dict = {}  # read only: predict fills a fresh routes dict each time


@dataclass(frozen=True)
class HatConfig(StrategyConfig):
    voting_mode: str = VOTE_NONE
    poisson_weighting: bool = False
    replace_root_on_alternate_split: bool = False
    replace_subtree_on_alternate_split: bool = False
    replacement_check_interval: int = 300
    replacement_delta: float = 0.05
    alternate_depth_cap: int = 1
    detector: str = "adwin"
    detector_delta: float = 0.002
    detector_check_interval: int = 32

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.voting_mode not in _VOTE_MODES:
            raise ValueError(f"bad voting_mode {self.voting_mode!r}")
        if self.detector not in ("adwin", "neverfire"):
            raise ValueError(f"bad detector {self.detector!r}")
        if self.replacement_check_interval < 1:
            raise ValueError("replacement_check_interval must be >= 1")
        if not 0.0 < self.replacement_delta < 1.0:
            raise ValueError("replacement_delta must be in (0, 1)")
        if self.alternate_depth_cap < 1:
            raise ValueError("alternate_depth_cap must be >= 1")
        if self.detector_check_interval < 1:
            raise ValueError("detector_check_interval must be >= 1")
        if not 0.0 < self.detector_delta < 1.0:
            raise ValueError("detector_delta must be in (0, 1)")


class _HatNode:
    """Mainline payload plus the drift detector and an optional alternate.

    The detector doubles as the node's windowed error estimator; an alternate
    subtree's root detector plays the same role for the replacement test.
    """

    __slots__ = ("mainline", "alternate", "detector", "alt_instances")

    def __init__(self, mainline, detector):
        self.mainline = mainline
        self.alternate: _HatNode | None = None
        self.detector = detector
        self.alt_instances = 0


class HoeffdingAdaptiveTreeClassifier:
    """Hoeffding tree wrapped with per-node drift detection and alternates."""

    def __init__(self, schema: Schema, config: HatConfig | None = None, seed: int = 0):
        self.schema = schema
        self.config = config if config is not None else HatConfig()
        self._rng = np.random.Generator(np.random.PCG64(seed))
        self._poisson_buf: list[float] = []
        self._root = self._new_node()
        # the instance predict routed last, and the mainline path it walked from
        # each subtree root, alternates included; the next train of that same
        # object reuses them
        self._routed: Instance | None = None
        self._routes: dict = {}
        self._n_promotions = 0
        self._n_sprouts = 0

    # -- construction helpers ------------------------------------------------

    def _new_detector(self):
        if self.config.detector == "neverfire":
            return NeverFireDetector()
        return AdwinDetector(
            delta=self.config.detector_delta,
            check_interval=self.config.detector_check_interval,
        )

    def _new_node(self) -> _HatNode:
        leaf = LearningLeaf(self.schema, eidetic=self.config.eidetic)
        return _HatNode(leaf, self._new_detector())

    def _poisson_weight(self) -> float:
        if not self._poisson_buf:
            self._poisson_buf = self._rng.poisson(1.0, 1024).astype(float).tolist()
        return self._poisson_buf.pop()

    # -- training --------------------------------------------------------------

    def train(self, instance: Instance) -> None:
        routed, self._routed = self._routed, None
        check_shape(self.schema, instance)
        self._train_subtree(self._root, instance, 0, self._routes if routed is instance else _NO_ROUTES)

    def _route(self, hnode: _HatNode, values):
        """Mainline path of _HatNodes from hnode down to its leaf."""
        path = [hnode]
        m = hnode.mainline
        while m.__class__ is SplitNode:
            # SplitNode.branch inlined, as in tree._sort_to_leaf
            if m.threshold is None:
                hnode = m.children[values[m.attr]]
            else:
                hnode = m.children[0 if values[m.attr] <= m.threshold else 1]
            path.append(hnode)
            m = hnode.mainline
        return path

    def _train_subtree(self, hnode: _HatNode, instance: Instance, depth: int,
                       routes: dict = _NO_ROUTES) -> None:
        """Train the subtree under hnode, which hangs ``depth`` alternate edges below the root.

        ``routes`` maps subtree roots to their paths as routed before this
        train; no subtree's mainline changes before its own training starts.
        """
        path = routes.get(hnode) or self._route(hnode, instance.values)
        leaf_node = path[-1]
        bit = 1.0 if argmax_label(leaf_node.mainline.class_dist) != instance.class_label else 0.0
        cfg = self.config
        for nd in path:
            if nd.detector.add_element(bit) and depth < cfg.alternate_depth_cap:
                # sprout an alternate, or restart one the change invalidates
                # because it is not already tracking better than the mainline
                alt = nd.alternate
                if alt is None or (
                    alt.detector.width > 0 and nd.detector.width > 0
                    and alt.detector.estimate() >= nd.detector.estimate()
                ):
                    nd.alternate = self._new_node()
                    nd.alt_instances = 0
                    self._n_sprouts += 1
            alt = nd.alternate
            if alt is None:
                continue
            alt_was_leaf = alt.mainline.__class__ is not SplitNode
            self._train_subtree(alt, instance, depth + 1, routes)
            nd.alt_instances += 1
            node_is_root = nd is self._root
            promoted = False
            if alt_was_leaf and alt.mainline.__class__ is SplitNode:
                if (node_is_root and cfg.replace_root_on_alternate_split) or (
                    not node_is_root and cfg.replace_subtree_on_alternate_split
                ):
                    self._promote(nd)
                    promoted = True
            if not promoted and nd.alt_instances % cfg.replacement_check_interval == 0:
                promoted = self.maybe_replace(nd)
            if promoted:
                # everything deeper on the old path is discarded, and the
                # promoted subtree already trained on this instance
                return
        self._learn_at_leaf(leaf_node, instance)

    def _learn_at_leaf(self, leaf_node: _HatNode, instance: Instance) -> None:
        if self.config.poisson_weighting:
            values, label, weight = instance
            instance = new_instance((values, label, weight * self._poisson_weight()))
        new_node = learn_at_leaf(leaf_node.mainline, instance, self.config)
        if new_node is not None:
            new_node.children = [_HatNode(child, self._new_detector()) for child in new_node.children]
            leaf_node.mainline = new_node

    # -- replacement -----------------------------------------------------------

    def maybe_replace(self, nd: _HatNode) -> bool:
        """Promote the alternate when its error is lower beyond both bounds.

        A significantly worse alternate is discarded instead, freeing the
        slot for a future detection.
        """
        self._routed = None  # a promotion changes the paths predict walked
        alt = nd.alternate
        if alt is None:
            return False
        wm, wa = nd.detector.width, alt.detector.width
        if wm <= 0 or wa <= 0:
            return False
        em, ea = nd.detector.estimate(), alt.detector.estimate()
        log_term = math.log(1.0 / self.config.replacement_delta)
        bm = math.sqrt(log_term / (2.0 * wm))
        ba = math.sqrt(log_term / (2.0 * wa))
        if ea + ba < em - bm:
            self._promote(nd)
            return True
        if em + bm < ea - ba:
            nd.alternate = None
            nd.alt_instances = 0
        return False

    def _promote(self, nd: _HatNode) -> None:
        """Install the alternate in place of the mainline subtree."""
        alt = nd.alternate
        nd.mainline = alt.mainline
        nd.alternate = alt.alternate
        nd.detector = self._new_detector()
        nd.alt_instances = alt.alt_instances
        self._n_promotions += 1

    # -- prediction ------------------------------------------------------------

    def _alternate_votes(self, path: list, values, out: list, routes: dict, depth: int) -> None:
        """Append the leaf distribution of each alternate off ``path`` that votes.

        ``path`` hangs ``depth`` alternate edges below the root. Each
        alternate's path goes into ``routes``.
        """
        mode = self.config.voting_mode
        if mode == VOTE_NONE:
            return
        # no alternate hangs alternate_depth_cap or more edges below the root
        nested = depth + 1 < self.config.alternate_depth_cap
        for node in path:
            alt = node.alternate
            if alt is not None:
                alt_path = routes[alt] = self._route(alt, values)
                if mode != VOTE_MULTI_NO_SINGLE_LEAVES or alt.mainline.__class__ is SplitNode:
                    out.append(alt_path[-1].mainline.class_dist)
                if mode == VOTE_SINGLE:
                    return  # the shallowest alternate on the mainline path votes alone
                if nested:
                    self._alternate_votes(alt_path, values, out, routes, depth + 1)

    def _vote(self, instance: Instance) -> list:
        """The voted class distribution: the mainline leaf's own ``class_dist``,
        not a copy, when no alternate votes."""
        values = instance.values
        path = self._route(self._root, values)
        routes = {self._root: path}
        mainline = path[-1].mainline.class_dist
        contributions: list = []
        self._alternate_votes(path, values, contributions, routes, 0)
        self._routed, self._routes = instance, routes
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

    def predict(self, instance: Instance) -> list:
        """Class distribution, with alternates contributing per voting_mode."""
        return list(self._vote(instance))

    def predict_label(self, instance: Instance) -> int:
        return argmax_label(self._vote(instance))

    # -- introspection -----------------------------------------------------------

    def dump(self, include_detectors: bool = True) -> str:
        lines: list[str] = []
        self._dump_node(self._root, 0, lines, [0], include_detectors, "")
        return "\n".join(lines) + "\n"

    def _dump_node(self, hnode: _HatNode, depth: int, lines, counter, include_detectors, marker):
        det = ""
        if include_detectors:
            width = hnode.detector.width
            est = f"{hnode.detector.estimate():.4f}" if width > 0 else "-"
            det = f" det_width={width} det_est={est}"
        m = hnode.mainline
        lines.append(f"{'  ' * depth}[{counter[0]}]{marker} {describe(m)}{det}")
        counter[0] += 1
        if m.__class__ is SplitNode:
            for child in m.children:
                self._dump_node(child, depth + 1, lines, counter, include_detectors, "")
        if hnode.alternate is not None:
            self._dump_node(hnode.alternate, depth + 1, lines, counter, include_detectors, " ALT-root")
