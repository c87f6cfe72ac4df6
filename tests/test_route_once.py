"""Routing once per instance: ``predict_label`` then ``train`` of one object.

Each learner remembers where ``predict_label`` routed an instance and reuses
that route when the same object is trained next. The oracle here is a twin
learner that is only ever trained: whatever the call order, both twins must
end with the same tree.
"""

import gc
from array import array

import pytest

from streamtrees.hat import (
    HatConfig,
    HoeffdingAdaptiveTreeClassifier,
    VOTE_MULTI,
    VOTE_MULTI_NO_SINGLE_LEAVES,
    VOTE_NONE,
    VOTE_SINGLE,
)
from streamtrees.specparse import build_stream
from streamtrees.tree import HoeffdingTreeClassifier, StrategyConfig

DRIFTING = "AbruptDriftGenerator -c -o 1.0 -z 3 -n 3 -v 3 -r 2 -b 5000 -d Recurrent"
NUMERIC = "SEAGenerator -f 2 -i 2"


def _drive_twins(row, make, n):
    """Run a train-only twin next to one driven through every call order."""
    s1, s2 = build_stream(row), build_stream(row)
    plain, routed = make(s1.schema), make(s2.schema)
    previous = s2.next_instance()
    s1.next_instance()
    for i in range(n):
        x1, x2 = s1.next_instance(), s2.next_instance()
        order = i % 3
        routed.predict_label(x2)
        if order == 1:
            # a different instance is predicted between this one's predict and train
            routed.predict_label(previous)
        plain.train(x1)
        routed.train(x2)
        if order == 2:
            # the same object trained twice
            plain.train(x1)
            routed.train(x2)
        previous = x2
    assert plain.dump() == routed.dump()


@pytest.mark.parametrize("row", [DRIFTING, NUMERIC])
@pytest.mark.parametrize("eidetic", [False, True], ids=["amnesiac", "eidetic"])
def test_vfdt_routed_twin_matches_train_only_twin(row, eidetic):
    config = StrategyConfig(eidetic=eidetic)
    _drive_twins(row, lambda schema: HoeffdingTreeClassifier(schema, config), 20_000)


class _CountingHat(HoeffdingAdaptiveTreeClassifier):
    """Counts every promotion, and the ones ``_maybe_replace`` makes; any
    others were premature."""

    promotions = 0
    replacements = 0

    def _promote(self, nd):
        super()._promote(nd)
        self.promotions += 1

    def _maybe_replace(self, nd):
        promoted = super()._maybe_replace(nd)
        self.replacements += promoted
        return promoted


# premature replacement at the root and below it, with alternates that split
# soon: a wide tie threshold here, and a grace period of 50 from the fixture below
PREMATURE = dict(replace_root_on_alternate_split=True, replace_subtree_on_alternate_split=True,
                 tau=0.2, voting_mode=VOTE_MULTI, alternate_depth_cap=10)


@pytest.fixture(autouse=True)
def _premature_grace_period(request, monkeypatch):
    if "premature" in request.node.name:
        monkeypatch.setattr("streamtrees.tree.GRACE_PERIOD", 50)


HAT_CONFIGS = {
    **{
        mode: HatConfig(voting_mode=mode, alternate_depth_cap=10)
        for mode in (VOTE_NONE, VOTE_SINGLE, VOTE_MULTI, VOTE_MULTI_NO_SINGLE_LEAVES)
    },
    "premature-unweighted": HatConfig(**PREMATURE),
    "premature-poisson": HatConfig(poisson_weighting=True, **PREMATURE),
}


@pytest.mark.parametrize("config", HAT_CONFIGS.values(), ids=HAT_CONFIGS.keys())
def test_hat_routed_twin_matches_train_only_twin(config):
    twins = []

    def make(schema):
        twins.append(_CountingHat(schema, config, seed=1))
        return twins[-1]

    _drive_twins(DRIFTING, make, 20_000)
    # a promotion inside train changes the paths predict walked
    for hat in twins:
        assert hat.promotions > 0
        if config.replace_root_on_alternate_split:
            assert hat.promotions > hat.replacements


LEARNERS = {
    "vfdt": lambda schema: HoeffdingTreeClassifier(schema, StrategyConfig()),
    "vfdt-eidetic": lambda schema: HoeffdingTreeClassifier(schema, StrategyConfig(eidetic=True)),
    **{
        f"hat-{name}": lambda schema, config=config: HoeffdingAdaptiveTreeClassifier(
            schema, config, seed=1)
        for name, config in HAT_CONFIGS.items()
    },
}


def _with_repeats(n):
    """n instances of the drifting stream; every third draw is handed out twice in a row."""
    stream = build_stream(DRIFTING)
    out = []
    while len(out) < n:
        x = stream.next_instance()
        out.append(x)
        if len(out) % 3 == 0:
            out.append(x)
    return stream.schema, out[:n]


@pytest.mark.parametrize("make", LEARNERS.values(), ids=LEARNERS.keys())
def test_one_object_on_consecutive_steps_matches_train_only_twin(make):
    schema, xs = _with_repeats(20_000)
    plain, routed = make(schema), make(schema)
    for x in xs:
        routed.predict_label(x)
        routed.train(x)
        plain.train(x)
    assert plain.dump() == routed.dump()


@pytest.mark.parametrize("make", LEARNERS.values(), ids=LEARNERS.keys())
def test_predict_then_train_of_the_next_step_matches_train_only_twin(make):
    # predict(a) then train(b): whenever b is a, the route predict took is reused
    schema, xs = _with_repeats(20_000)
    plain, routed = make(schema), make(schema)
    reused = 0
    for a, b in zip(xs, xs[1:]):
        routed.predict_label(a)
        routed.train(b)
        plain.train(b)
        reused += b is a
    assert reused > len(xs) // 4
    assert plain.dump() == routed.dump()


def test_eidetic_buffers_hold_no_tracked_entries():
    # the collector visits no object per entry: a buffer's columns are
    # arrays, which refer to nothing but their type
    stream = build_stream(DRIFTING)
    tree = HoeffdingTreeClassifier(stream.schema, StrategyConfig(eidetic=True))
    for _ in range(5_000):
        x = stream.next_instance()
        tree.predict_label(x)
        tree.train(x)
    buffers = [leaf.buffer for leaf in tree.leaves()]
    assert sum(map(len, buffers)) == 5_000
    for buffer in buffers:
        for name in ("values", "labels", "weights", "runs"):
            assert gc.get_referents(getattr(buffer, name)) == [array], name
