import hashlib
import math

import pytest

from streamtrees.evaluate import (
    averaged_series,
    binomial_test,
    ci_lower,
    compare,
    comparison_csv,
    comparison_markdown,
    prequential_run,
)
from streamtrees.schema import Instance
from streamtrees.streams import StaggerGenerator


# --------------------------------------------------------------------------
# oracles
# --------------------------------------------------------------------------

def enumeration_binomial_oracle(wins: int, losses: int) -> float:
    """Count outcome vectors with >= wins successes over all 2^n of them."""
    n = wins + losses
    hits = sum(1 for mask in range(2**n) if bin(mask).count("1") >= wins)
    return hits / 2**n


def integer_beta_cdf(a: int, b: int, x: float) -> float:
    """Beta CDF for integer shapes via the binomial-sum identity."""
    n = a + b - 1
    return sum(math.comb(n, j) * x**j * (1.0 - x) ** (n - j) for j in range(a, n + 1))


def bisection_ci_oracle(wins: int, losses: int, alpha: float = 0.05) -> float:
    if wins == 0:
        return 0.0
    lo, hi = 0.0, 1.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if integer_beta_cdf(wins, losses + 1, mid) < alpha:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


# --------------------------------------------------------------------------
# binomial sign test
# --------------------------------------------------------------------------

def test_binomial_published_footers():
    assert binomial_test(24, 0) < 1e-5
    assert binomial_test(32, 0) < 1e-5
    assert binomial_test(23, 1) < 1e-5
    assert abs(binomial_test(19, 10) - 0.06802) < 5e-6
    assert abs(binomial_test(17, 8) - 0.05388) < 5e-6
    assert abs(binomial_test(26, 6) - 0.00027) < 5e-6
    assert abs(binomial_test(20, 7) - 0.00958) < 5e-6


def test_binomial_edge_cases():
    assert binomial_test(0, 0) == 1.0
    assert binomial_test(0, 5) == 1.0
    assert binomial_test(5, 0) == 0.5**5
    with pytest.raises(ValueError):
        binomial_test(-1, 2)


def test_binomial_matches_enumeration_oracle():
    for n in range(0, 13):
        for wins in range(n + 1):
            assert binomial_test(wins, n - wins) == pytest.approx(
                enumeration_binomial_oracle(wins, n - wins), abs=1e-15
            )


def test_binomial_monotone_in_wins():
    for n in (5, 12, 29):
        values = [binomial_test(w, n - w) for w in range(n + 1)]
        assert all(a >= b for a, b in zip(values, values[1:]))


# --------------------------------------------------------------------------
# Clopper-Pearson lower bound
# --------------------------------------------------------------------------

def test_ci_published_footers():
    assert abs(ci_lower(24, 0) - 0.88265) < 5e-5
    assert abs(ci_lower(19, 10) - 0.48573) < 5e-5
    assert abs(ci_lower(23, 1) - 0.81711) < 5e-5
    assert abs(ci_lower(26, 6) - 0.66313) < 5e-5
    assert abs(ci_lower(20, 7) - 0.5677) < 5e-5


def test_ci_edges():
    assert ci_lower(0, 7) == 0.0
    assert ci_lower(24, 0) == pytest.approx(0.05 ** (1 / 24), abs=1e-12)
    with pytest.raises(ValueError):
        ci_lower(0, 0)


def test_ci_matches_bisection_oracle_to_1e6():
    for n in range(1, 33):
        for wins in range(n + 1):
            got = ci_lower(wins, n - wins)
            want = bisection_ci_oracle(wins, n - wins)
            assert abs(got - want) < 1e-6, (wins, n - wins)


# sha256 of the printed footer of every (wins, losses) pair with 1 <= n <= 100,
# recorded from the continued-fraction incomplete beta the bound once used
FOOTER_DIGEST = "208c93aa341bf965bd6ff71d4accfb750dff2eec341dbe9c85cf0a6c97fbec92"


def test_printed_footers_match_recorded_digest():
    h = hashlib.sha256()
    for n in range(1, 101):
        for w in range(n + 1):
            line = f"{w},{n - w},{binomial_test(w, n - w):.6g},{ci_lower(w, n - w):.5f}\n"
            h.update(line.encode())
    assert h.hexdigest() == FOOTER_DIGEST
    # large n: the tail neither overflows nor underflows
    assert abs(ci_lower(5000, 5000) - 0.49172650440377197) < 1e-12
    assert abs(ci_lower(10, 9990) - 0.0005426375753074808) < 1e-12


# --------------------------------------------------------------------------
# prequential running
# --------------------------------------------------------------------------

class _PerfectOracle:
    def __init__(self):
        self.trained = 0

    def predict_label(self, inst):
        return inst.class_label

    def train(self, inst):
        self.trained += 1


class _ConstantLearner:
    def __init__(self, label=0):
        self.label = label

    def predict_label(self, inst):
        return self.label

    def train(self, inst):
        pass


class _ListStream:
    def __init__(self, instances):
        self._it = iter(instances)

    def next_instance(self):
        return next(self._it, None)


def test_prequential_perfect_oracle_has_zero_error():
    stream = StaggerGenerator(function=1, seed=3)
    oracle = _PerfectOracle()
    res = prequential_run(oracle, stream, 5000)
    assert res.final_error == 0.0
    assert oracle.trained == 5000


def test_prequential_constant_learner_on_balanced_stream():
    # labels alternate deterministically, so the constant learner sits at 0.5
    insts = [Instance((0,), i % 2) for i in range(100_000)]
    res = prequential_run(_ConstantLearner(0), _ListStream(insts), 100_000)
    assert abs(res.final_error - 0.5) < 0.01


def test_prequential_series_shape():
    stream = StaggerGenerator(function=2, seed=1)
    res = prequential_run(_ConstantLearner(1), stream, 150_000, snapshot_every=1000)
    assert len(res.error_series) == 150
    assert res.error_series[0][0] == 1000
    assert res.error_series[-1][0] == 150_000
    assert all(0.0 <= e <= 1.0 for _, e in res.error_series)


@pytest.mark.parametrize(
    "n_instances,snapshot_every,name", [(0, 0, "n_instances"), (1000, -100, "snapshot_every")]
)
def test_prequential_rejects_bad_counts(n_instances, snapshot_every, name):
    with pytest.raises(ValueError, match=name):
        prequential_run(_ConstantLearner(), StaggerGenerator(2, seed=9), n_instances, snapshot_every)


def test_prequential_exhaustion_reported():
    insts = [Instance((0,), 0)] * 10
    with pytest.raises(RuntimeError, match="exhausted"):
        prequential_run(_ConstantLearner(), _ListStream(insts), 11)


def test_prequential_determinism():
    r1 = prequential_run(_ConstantLearner(), StaggerGenerator(2, seed=9), 20_000, 500)
    r2 = prequential_run(_ConstantLearner(), StaggerGenerator(2, seed=9), 20_000, 500)
    assert r1.final_error == r2.final_error
    assert r1.error_series == r2.error_series


# --------------------------------------------------------------------------
# series averaging
# --------------------------------------------------------------------------

def test_averaged_series_identity_and_mean():
    s = [(1000, 0.2), (2000, 0.4)]
    same = averaged_series([s] * 10)
    assert [i for i, _ in same] == [1000, 2000]
    assert [e for _, e in same] == pytest.approx([0.2, 0.4])
    t = [(1000, 0.4), (2000, 0.2)]
    mean = averaged_series([s, t])
    assert [i for i, _ in mean] == [1000, 2000]
    assert [e for _, e in mean] == pytest.approx([0.3, 0.3])


def test_averaged_series_length_checks():
    with pytest.raises(ValueError):
        averaged_series([[(1000, 0.1)], [(1000, 0.1), (2000, 0.2)]])
    with pytest.raises(ValueError):
        averaged_series([])
    out = averaged_series([[(1000, 0.1), (2000, 0.3)]] * 3)
    assert len(out) == 2


# --------------------------------------------------------------------------
# comparisons
# --------------------------------------------------------------------------

def test_compare_all_ties():
    report = compare([0.1, 0.2], [0.1, 0.2], ["a", "b"])
    assert (report.wins_a, report.wins_b, report.ties) == (0, 0, 2)
    assert report.p_value == 1.0
    assert report.ci_lower == 0.0


def test_compare_rounding_tie_at_5dp():
    report = compare([0.123456], [0.123461], ["row"])
    assert report.ties == 1  # both round to 0.12346


def test_compare_matches_published_footer_counts():
    # 24 B-wins, 0 A-wins, 8 ties over 32 rows
    errors_a = [0.5] * 24 + [0.3] * 8
    errors_b = [0.4] * 24 + [0.3] * 8
    report = compare(errors_a, errors_b, [f"s{i}" for i in range(32)])
    assert (report.wins_a, report.wins_b, report.ties) == (0, 24, 8)
    assert report.p_value < 1e-5
    assert abs(report.ci_lower - 0.88265) < 5e-5


def test_compare_length_mismatch():
    with pytest.raises(ValueError):
        compare([0.1], [0.1, 0.2], ["a", "b"])


def test_comparison_renderers_contain_footer():
    report = compare([0.5, 0.4], [0.4, 0.4], ["s1", "s2"])
    md = comparison_markdown(report, "A", "B")
    assert "Unique Wins" in md and "Confidence Interval" in md
    csv = comparison_csv(report)
    assert "wins_b,1" in csv and "p_value," in csv
