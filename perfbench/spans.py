"""In-memory spans around the calls into each streamtrees module.

A span is (id, parent id, name, start, end), timed with ``perf_counter``.
Per-call functions such as ``NodeStatistics.observe`` run millions of times
in one cell, so only the first ``MAX_KEPT_SPANS`` spans are kept whole; every
span, kept or not, adds to its name's totals: calls, inclusive seconds, the
seconds its child spans cover, its number of child spans, and how many calls
returned ``True``. A span's self time is its inclusive time minus its
children's.

The wrappers live here, in the benchmark; nothing in ``src`` is traced. A
wrapper costs about a microsecond, part inside the span it times and part
outside it, in its caller's self time. Next to per-call functions of one to
a few microseconds that would distort every share, so ``corrected_self``
subtracts both parts, as measured on a traced no-op by ``measure_overhead``.
"""

from __future__ import annotations

import itertools
import json
import statistics
from contextlib import contextmanager
from time import perf_counter

MAX_KEPT_SPANS = 20_000

CALLS, INCLUSIVE, CHILDREN, CHILD_SPANS, TRUE_RESULTS = range(5)


class Tracer:
    def __init__(self) -> None:
        self.totals: dict[str, list] = {}
        self.kept: list[tuple] = []
        self.dropped = 0
        self._open = [[0, 0.0, 0]]  # [span id, child seconds, child spans]; the bottom is the root
        self._ids = itertools.count(1)

    def wrap(self, name: str, fn):
        """Return ``fn`` timed as a span called ``name``."""
        total = self.totals.setdefault(name, [0, 0.0, 0.0, 0, 0])
        open_frames = self._open
        kept = self.kept
        next_id = self._ids.__next__

        def traced(*args, **kwargs):
            parent = open_frames[-1]
            frame = [next_id(), 0.0, 0]
            open_frames.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                open_frames.pop()
                duration = end - start
                parent[1] += duration
                parent[2] += 1
                total[CALLS] += 1
                total[INCLUSIVE] += duration
                total[CHILDREN] += frame[1]
                total[CHILD_SPANS] += frame[2]
                if len(kept) < MAX_KEPT_SPANS:
                    kept.append((frame[0], parent[0], name, start, end))
                else:
                    self.dropped += 1
            if result is True:
                total[TRUE_RESULTS] += 1
            return result

        return traced

    def calls(self, name: str) -> int:
        return self.totals.get(name, (0,))[CALLS]

    def inclusive(self, name: str) -> float:
        return self.totals[name][INCLUSIVE] if name in self.totals else 0.0

    def corrected_self(self, name: str, overhead: tuple[float, float]) -> float:
        """Self seconds less the wrapper cost inside this span and its children's outside."""
        if name not in self.totals:
            return 0.0
        inside, outside = overhead
        t = self.totals[name]
        return max(0.0, t[INCLUSIVE] - t[CHILDREN] - t[CALLS] * inside - t[CHILD_SPANS] * outside)

    def true_results(self, name: str) -> int:
        return self.totals[name][TRUE_RESULTS] if name in self.totals else 0

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "fields": ["id", "parent", "name", "start", "end"],
                    "spans": self.kept,
                    "dropped": self.dropped,
                    "totals": {
                        name: {"calls": t[CALLS], "inclusive_s": t[INCLUSIVE],
                               "self_s": t[INCLUSIVE] - t[CHILDREN]}
                        for name, t in self.totals.items()
                    },
                },
                fh,
            )


def measure_overhead(repeats: int = 5, n: int = 20_000) -> tuple[float, float]:
    """Seconds one traced call adds (inside its span, outside it), as medians.

    The machine's speed drifts during a run, so callers measure this after
    every cell and take the median of those measurements.
    """

    def noop():
        return None

    inside, outside = [], []
    for _ in range(repeats):
        tracer = Tracer()
        traced = tracer.wrap("noop", noop)
        start = perf_counter()
        for _ in range(n):
            noop()
        bare = perf_counter() - start
        start = perf_counter()
        for _ in range(n):
            traced()
        total = perf_counter() - start
        spanned = tracer.inclusive("noop")
        inside.append((spanned - bare) / n)
        outside.append((total - spanned) / n)
    return max(0.0, statistics.median(inside)), statistics.median(outside)


def median_overhead(samples: list[tuple[float, float]]) -> tuple[float, float]:
    return (statistics.median(s[0] for s in samples), statistics.median(s[1] for s in samples))


@contextmanager
def patched(tracer: Tracer, targets):
    """Replace each ``(owner, attribute, span name)`` with its traced form.

    Modules and classes get their attribute back on exit. ``tree.py`` and
    ``hat.py`` each bind ``evaluate_split`` and ``perform_split`` by name, so
    both modules are patched for either to be timed.
    """
    saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in targets]
    try:
        for (owner, attr, name), (_, _, original) in zip(targets, saved):
            setattr(owner, attr, tracer.wrap(name, original))
        yield
    finally:
        for owner, attr, original in saved:
            setattr(owner, attr, original)


def layer_targets():
    """The class- and module-level calls into streamtrees that get spans."""
    from streamtrees import detectors, hat, tree

    return [
        (tree.NodeStatistics, "observe", "tree.observe"),
        (tree, "evaluate_split", "tree.evaluate_split"),
        (hat, "evaluate_split", "tree.evaluate_split"),
        (tree, "perform_split", "tree.perform_split"),
        (hat, "perform_split", "tree.perform_split"),
        (detectors.AdwinDetector, "add_element", "detectors.add_element"),
        (detectors.AdwinDetector, "__init__", "detectors.created"),
    ]


def wrap_cell(tracer: Tracer, stream, learner) -> None:
    """Give one cell's stream and learner traced entry points."""
    from streamtrees import HoeffdingAdaptiveTreeClassifier

    layer = "hat" if isinstance(learner, HoeffdingAdaptiveTreeClassifier) else "tree"
    stream.next_instance = tracer.wrap("streams.next_instance", stream.next_instance)
    learner.train = tracer.wrap(f"{layer}.train", learner.train)
    learner.predict_label = tracer.wrap(f"{layer}.predict_label", learner.predict_label)
