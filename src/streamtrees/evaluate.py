"""Prequential evaluation and the win/loss statistics used in comparison tables.

The two statistics attached to every comparison are an exact one-tailed
binomial test on the win counts and a one-sided 95% Clopper-Pearson lower
confidence bound on the win proportion, both computed over non-tied rows.
The bound is found by bisection on the binomial tail: it is the p at which
P(Binomial(wins + losses, p) >= wins) reaches ``ALPHA`` = 0.05.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

from .chunks import counter_for
from .streams import ArrayStream, Rows


# --------------------------------------------------------------------------
# exact binomial sign test
# --------------------------------------------------------------------------

def binomial_test(wins: int, losses: int) -> float:
    """One-tailed P(X >= wins) for X ~ Binomial(wins + losses, 1/2).

    Ties must already be excluded. wins + losses == 0 gives p = 1. This is
    ``_binomial_tail`` at p = 1/2, summed in exact integers.
    """
    if wins < 0 or losses < 0:
        raise ValueError("wins and losses must be non-negative")
    n = wins + losses
    if n == 0:
        return 1.0
    total = sum(math.comb(n, k) for k in range(wins, n + 1))
    return total / (2**n)


# --------------------------------------------------------------------------
# one-sided Clopper-Pearson lower bound
# --------------------------------------------------------------------------

ALPHA = 0.05  # the tables print a 95% lower bound


def _binomial_tail(n: int, k: int, p: float) -> float:
    """P(X >= k) for X ~ Binomial(n, p), 0 < p < 1; terms come from log space to stay finite."""
    log_p, log_q = math.log(p), math.log1p(-p)
    lg_n = math.lgamma(n + 1)
    return sum(
        math.exp(lg_n - math.lgamma(j + 1) - math.lgamma(n - j + 1) + j * log_p + (n - j) * log_q)
        for j in range(k, n + 1)
    )


def ci_lower(wins: int, losses: int) -> float:
    """One-sided (1 - ALPHA) Clopper-Pearson lower bound on the win proportion.

    This is the ALPHA-quantile of Beta(wins, losses + 1); zero when wins == 0.
    Its CDF at p is P(Binomial(wins + losses, p) >= wins), the tail that
    ``binomial_test`` sums at p = 1/2, so the bound bisects on that tail.
    """
    if wins < 0 or losses < 0:
        raise ValueError("wins and losses must be non-negative")
    n = wins + losses
    if n == 0:
        raise ValueError("need at least one non-tied comparison")
    if wins == 0:
        return 0.0
    if losses == 0:
        return ALPHA ** (1.0 / n)
    lo, hi = 0.0, 1.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if _binomial_tail(n, wins, mid) < ALPHA:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-13:
            break
    return 0.5 * (lo + hi)


# --------------------------------------------------------------------------
# prequential (interleaved test-then-train) runs
# --------------------------------------------------------------------------

@dataclass
class PrequentialResult:
    final_error: float
    error_series: list[tuple[int, float]]
    wall_time: float


# instances a chunked run pulls from the stream at a time
CHUNK = 2048


def prequential_run(learner, stream, n_instances: int, snapshot_every: int = 0) -> PrequentialResult:
    """Predict each instance before training on it; cumulative error out.

    ``error_series`` holds one point per disjoint window of ``snapshot_every``
    instances: (index of the last instance in the window, mean error inside
    the window). snapshot_every = 0 disables the series.

    The run is one loop over chunks of ``CHUNK`` instances, in which the
    learner steps a chunk and returns whether each prediction was wrong.
    There are two kinds of step, and this is the one place that picks one.
    A ``HoeffdingTreeClassifier`` on an all-nominal or all-numeric schema,
    and a ``HoeffdingAdaptiveTreeClassifier`` on an all-nominal one that
    neither draws Poisson weights nor keeps replay buffers, step a
    generator's (``streams.ArrayStream``) rows on their own schema, as
    arrays, through the counter ``chunks.counter_for`` gives them: the same
    predictions and the same tree. A generator's rows are valid by
    construction, so they go unchecked. Any other stream, a generator whose
    ``next_instance`` is set on the object (a tracer), and any other
    learner, a subclass or a learner with its own ``predict_label`` or
    ``train`` set on the object (a tracer, a recorder) included, step one
    instance at a time through ``next_instance``, ``predict_label`` and
    ``train``. Every deferred count of a counter is written back on the way
    out, also when the run raises.
    """
    if n_instances < 1:
        raise ValueError("n_instances must be >= 1")
    if snapshot_every < 0:
        raise ValueError("snapshot_every must be >= 0")
    t0 = time.perf_counter()
    counter = counter_for(learner)
    if counter is not None and not (isinstance(stream, ArrayStream) and stream.schema == learner.schema
                                    and stream.next_instance == stream._instances.__next__):
        counter = None
    errors = 0
    window_errors = 0
    series: list[tuple[int, float]] = []
    done = 0
    try:
        while done < n_instances:
            n = min(CHUNK, n_instances - done)
            if counter is None:
                wrong = _instance_step(learner, stream, done, n)
            else:
                wrong = counter.step(Rows(stream, *stream.next_arrays(n)))
            errors += sum(wrong)
            if snapshot_every:
                start = 0
                for end in range(snapshot_every - done % snapshot_every, n + 1, snapshot_every):
                    window_errors += sum(wrong[start:end])
                    series.append((done + end, window_errors / snapshot_every))
                    window_errors = 0
                    start = end
                window_errors += sum(wrong[start:])
            done += n
    finally:
        if counter is not None:
            counter.flush()
    wall = time.perf_counter() - t0
    return PrequentialResult(errors / n_instances, series, wall)


def _instance_step(learner, stream, done: int, n: int) -> list:
    """Read, predict and learn ``n`` instances one at a time, each learned
    before the next is read; returns whether each prediction was wrong.
    ``done`` is the number of instances the run learned before them."""
    predict = learner.predict_label
    train = learner.train
    next_instance = stream.next_instance
    wrong = []
    for i in range(done, done + n):
        inst = next_instance()
        if inst is None:
            raise RuntimeError(f"stream exhausted after {i} instances")
        wrong.append(predict(inst) != inst.class_label)
        train(inst)
    return wrong


def averaged_series(series_list: list[list[tuple[int, float]]]) -> list[tuple[int, float]]:
    """Pointwise mean of several error series (same snapshot grid required)."""
    if not series_list:
        raise ValueError("need at least one series")
    length = len(series_list[0])
    for s in series_list:
        if len(s) != length:
            raise ValueError(f"series length mismatch: {len(s)} != {length}")
    out = []
    for k in range(length):
        idx = series_list[0][k][0]
        for s in series_list:
            if s[k][0] != idx:
                raise ValueError("series indices misaligned")
        out.append((idx, sum(s[k][1] for s in series_list) / len(series_list)))
    return out


# --------------------------------------------------------------------------
# pairwise comparison tables
# --------------------------------------------------------------------------

TIE_DECIMALS = 5  # errors equal after rounding to the tables' printed precision tie


@dataclass
class ComparisonReport:
    rows: list[tuple[str, float, float, str]]  # (stream, error_a, error_b, outcome)
    wins_a: int
    wins_b: int
    ties: int
    p_value: float
    ci_lower: float
    meta: dict = field(default_factory=dict)


def compare(errors_a: list[float], errors_b: list[float], labels: list[str], meta: dict | None = None) -> ComparisonReport:
    """Row-wise win/tie/loss comparison; B is the strategy (rightmost) column."""
    if not len(errors_a) == len(errors_b) == len(labels):
        raise ValueError("errors_a, errors_b and labels must have equal length")
    rows = []
    wins_a = wins_b = ties = 0
    for label, ea, eb in zip(labels, errors_a, errors_b):
        ra, rb = round(ea, TIE_DECIMALS), round(eb, TIE_DECIMALS)
        if ra == rb:
            outcome = "tie"
            ties += 1
        elif rb < ra:
            outcome = "B"
            wins_b += 1
        else:
            outcome = "A"
            wins_a += 1
        rows.append((label, ea, eb, outcome))
    p = binomial_test(wins_b, wins_a)
    ci = ci_lower(wins_b, wins_a) if wins_a + wins_b > 0 else 0.0
    return ComparisonReport(rows, wins_a, wins_b, ties, p, ci, meta or {})


def comparison_markdown(report: ComparisonReport, name_a: str, name_b: str) -> str:
    lines = [
        f"| Stream | {name_a} | {name_b} |",
        "| --- | --- | --- |",
    ]
    for label, ea, eb, outcome in report.rows:
        fa, fb = f"{ea:.5f}", f"{eb:.5f}"
        if outcome == "tie":
            fa, fb = f"*{fa}*", f"*{fb}*"
        elif outcome == "A":
            fa = f"**{fa}**"
        else:
            fb = f"**{fb}**"
        lines.append(f"| {label} | {fa} | {fb} |")
    lines.append(f"| Unique Wins | {report.wins_a} | {report.wins_b} |")
    p = "< 0.00001" if report.p_value < 1e-5 else f"{report.p_value:.5f}"
    lines.append(f"| Test Statistics | p-value: {p} | Confidence Interval: {report.ci_lower:.5f} --- 1 |")
    if report.meta:
        meta = ", ".join(f"{k}={v}" for k, v in sorted(report.meta.items()))
        lines.append("")
        lines.append(f"({meta})")
    return "\n".join(lines) + "\n"


def comparison_csv(report: ComparisonReport) -> str:
    lines = ["stream,error_a,error_b,outcome"]
    for label, ea, eb, outcome in report.rows:
        lines.append(f'"{label}",{ea:.5f},{eb:.5f},{outcome}')
    lines.append("")
    lines.append(f"wins_a,{report.wins_a}")
    lines.append(f"wins_b,{report.wins_b}")
    lines.append(f"ties,{report.ties}")
    lines.append(f"p_value,{report.p_value:.6g}")
    lines.append(f"ci_lower,{report.ci_lower:.5f}")
    return "\n".join(lines) + "\n"
