"""The benchmark's hooks into the program.

``perfbench/`` times the program by patching its entry points by name, and
reads a finished cell's tree through the trees' fields. A rename breaks its
traced run, and a leaf that overrode ``NodeStatistics.observe`` would read
zero ``tree.observe`` calls while every run still checked ``correct``.
"""

import importlib
from pathlib import Path

import pytest

from streamtrees.chunks import NumericCounter, counter_for
from streamtrees.evaluate import prequential_run
from streamtrees.hat import HatConfig, HoeffdingAdaptiveTreeClassifier
from streamtrees.hatchunks import HatCounter
from streamtrees.specparse import build_stream
from streamtrees.tree import (
    HoeffdingTreeClassifier,
    LearningLeaf,
    NodeStatistics,
    SplitNode,
    StrategyConfig,
)

from test_properties import hat_state, per_instance_run, tree_state
from test_streams import take

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture(scope="module")
def bench():
    """perfbench's ``spans``, ``run`` and ``workloads`` modules."""
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(PERFBENCH))
        yield tuple(importlib.import_module(name) for name in ("spans", "run", "workloads"))


def test_every_layer_target_resolves(bench):
    spans, _, _ = bench
    for owner, attribute, name in spans.layer_targets():
        assert callable(getattr(owner, attribute, None)), name
    # a leaf updates its statistics through the method the traced run patches
    assert "observe" not in vars(LearningLeaf)
    assert LearningLeaf.observe is NodeStatistics.observe


def test_tree_counts_reads_an_eidetic_tree(bench):
    _, run, _ = bench
    stream = build_stream("HyperplaneGenerator -k 10 -t 0.001 -i 2")
    tree = HoeffdingTreeClassifier(stream.schema, StrategyConfig(eidetic=True))
    for inst in take(stream, 6000):
        tree.train(inst)
    counts = run.tree_counts(tree)
    # every unit-weight instance sits in exactly one leaf's buffer
    assert counts == {"leaves": len(tree.leaves()), "buffered": 6000, "alternates": 0}
    assert counts["leaves"] > 1


def test_tree_counts_reads_an_adaptive_tree_with_an_alternate(bench):
    _, run, _ = bench
    stream = build_stream(
        "RecurrentConceptDriftStream -x 3000 -y 3000 -z 100 "
        "-s (STAGGERGenerator -i 2 -f 2) -d (STAGGERGenerator -i 3 -f 3)"
    )
    hat = HoeffdingAdaptiveTreeClassifier(stream.schema, HatConfig())
    for inst in take(stream, 8000):
        hat.predict_label(inst)
        hat.train(inst)
    leaves, alternates, stack = 0, 0, [hat._root]
    while stack:
        node = stack.pop()
        alternates += node.alternate is not None
        if node.mainline.__class__ is SplitNode:
            stack.extend(node.mainline.children)
        else:
            leaves += 1
    assert alternates > 0
    counts = run.tree_counts(hat)
    assert counts == {"leaves": leaves, "buffered": 0, "alternates": hat._n_sprouts}
    assert hat._n_sprouts >= alternates


def test_traced_cell_counts_every_leaf_update(bench):
    spans, run, workloads = bench
    originals = [getattr(owner, attribute) for owner, attribute, _ in spans.layer_targets()]
    tracer = spans.Tracer()
    with spans.patched(tracer, spans.layer_targets()):
        # the workload's error gate is sized for full-length cells, so a short
        # cell's verdict is not read
        cell, _ = run.run_cell(workloads.WORKLOADS["vfdt-hyperplane"], 0, 5000, tracer)
    assert cell["instances"] == 5000 and len(cell["window_ms"]) == 10
    assert tracer.calls("tree.train") == 5000
    # an amnesiac tree learns each instance at one leaf, and replays nothing
    assert tracer.calls("tree.observe") == 5000
    assert tracer.calls("tree.evaluate_split") > 0
    assert [getattr(owner, attribute) for owner, attribute, _ in spans.layer_targets()] == originals


def test_pinned_vfdt_hyperplane_cell_matches_its_per_instance_twin(bench):
    """The benchmark's digest check records predicted labels, which runs its
    cell one instance at a time; this twin checks the chunked path of the
    same cell, window by window, down to every leaf float."""
    _, _, workloads = bench
    workload = workloads.WORKLOADS["vfdt-hyperplane"]
    (stream, chunked), (twin_stream, twin) = (workload.build(workloads.PINNED_VARIANT) for _ in range(2))
    assert type(counter_for(chunked)) is NumericCounter
    windows = workload.check_instances // workloads.WINDOW
    assert windows == 80
    for _ in range(windows):
        error = prequential_run(chunked, stream, workloads.WINDOW).final_error
        assert error == per_instance_run(twin, twin_stream, workloads.WINDOW, 0)[0]
    assert tree_state(chunked) == tree_state(twin)
    assert len(chunked.leaves()) > 10


def test_pinned_hat_stagger_vote_cell_matches_its_per_instance_twin(bench):
    """The same twin for the adaptive tree's cell: its chunked windows
    against the per-instance loop, down to every detector field."""
    _, _, workloads = bench
    workload = workloads.WORKLOADS["hat-stagger-vote"]
    (stream, chunked), (twin_stream, twin) = (workload.build(workloads.PINNED_VARIANT) for _ in range(2))
    assert type(counter_for(chunked)) is HatCounter
    for _ in range(80):
        error = prequential_run(chunked, stream, workloads.WINDOW).final_error
        assert error == per_instance_run(twin, twin_stream, workloads.WINDOW, 0)[0]
    assert hat_state(chunked) == hat_state(twin)
    assert chunked._n_sprouts > 0
