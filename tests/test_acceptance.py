"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines as they complete. The heavy sweeps (3, 4, 5, 7) take tens of minutes
on two cores.
"""

import math
import subprocess
import sys

import numpy as np
import pytest

from streamtrees.detectors import AdwinDetector
from streamtrees.evaluate import binomial_test, ci_lower, compare
from streamtrees.experiments import ALTVOTE_ROWS, RECURRENT_STAGGER, preset, run_grid
from streamtrees.hat import HatConfig, HoeffdingAdaptiveTreeClassifier
from streamtrees.specparse import build_stream
from streamtrees.tree import (
    HoeffdingTreeClassifier,
    NodeStatistics,
    SplitNode,
    StrategyConfig,
)

from test_hat import NeverFireHat
from test_streams import take

JOBS = 2


def report(criterion: int, passed: bool, detail: str) -> None:
    print(f"\n[criterion {criterion}] {'PASS' if passed else 'FAIL'} - {detail}")
    assert passed, f"criterion {criterion}: {detail}"


# --------------------------------------------------------------------------
# 1. statistical footer exactness
# --------------------------------------------------------------------------

def test_criterion_1_statistical_footers():
    checks = [
        (24, 0, None, 0.88265),
        (19, 10, 0.06802, 0.48573),
        (17, 8, 0.05388, None),
        (23, 1, None, 0.81711),
        (26, 6, 0.00027, 0.66313),
        (20, 7, 0.00958, 0.5677),
    ]
    worst = 0.0
    for wins, losses, p_expected, ci_expected in checks:
        if p_expected is not None:
            worst = max(worst, abs(binomial_test(wins, losses) - p_expected))
        if ci_expected is not None:
            worst = max(worst, abs(ci_lower(wins, losses) - ci_expected))
    ok = worst <= 5e-5 and binomial_test(24, 0) < 1e-5 and binomial_test(23, 1) < 1e-5
    report(1, ok, f"six published footers reproduced, worst deviation {worst:.2e}")


# --------------------------------------------------------------------------
# 2. oracle suites
# --------------------------------------------------------------------------

def test_criterion_2_oracle_suites():
    # exact binomial test vs brute-force enumeration of all outcome vectors
    for n in range(0, 21):
        tally = [0] * (n + 2)
        for mask in range(2**n):
            tally[bin(mask).count("1")] += 1
        suffix = 0
        cumulative = [0] * (n + 2)
        for wins in range(n, -1, -1):
            suffix += tally[wins]
            cumulative[wins] = suffix
        for wins in range(n + 1):
            assert binomial_test(wins, n - wins) == cumulative[wins] / 2**n, (wins, n)

    # Clopper-Pearson lower bound vs bisection on the binomial-sum Beta CDF
    def beta_cdf(a, b, x):
        m = a + b - 1
        return sum(math.comb(m, j) * x**j * (1 - x) ** (m - j) for j in range(a, m + 1))

    worst_ci = 0.0
    for n in range(1, 33):
        for wins in range(1, n + 1):
            lo, hi = 0.0, 1.0
            for _ in range(60):
                mid = 0.5 * (lo + hi)
                if beta_cdf(wins, n - wins + 1, mid) < 0.05:
                    lo = mid
                else:
                    hi = mid
            worst_ci = max(worst_ci, abs(ci_lower(wins, n - wins) - 0.5 * (lo + hi)))
    assert worst_ci < 1e-6

    # eidetic replay: every leaf's statistics equal a recount of the routed stream
    def recount_check(row):
        stream = build_stream(row)
        config = StrategyConfig(eidetic=True, tau=0.2)
        tree = HoeffdingTreeClassifier(stream.schema, config)
        instances = take(stream, 5000)
        for inst in instances:
            tree.train(inst)
        checked = 0
        for leaf in tree.leaves():
            routed = []
            for inst in instances:
                node = tree.root.mainline
                while isinstance(node, SplitNode):
                    node = node.children[node.branch(inst.values)].mainline
                if node is leaf:
                    routed.append(inst)
            fresh = NodeStatistics(stream.schema)
            dist = [0.0] * stream.schema.class_count
            for inst in routed:
                fresh.observe(inst.values, inst.class_label, inst.weight)
                dist[inst.class_label] += inst.weight
            assert leaf.nominal == fresh.nominal
            for field in ("counts", "means", "m2s", "lo", "hi"):
                assert getattr(leaf, field) == getattr(fresh, field), field
            assert leaf.class_dist == dist
            checked += 1
        assert checked >= 2

    recount_check("AbruptDriftGenerator -o 1.0 -z 3 -n 3 -v 2 -r 3 -b 2500")
    recount_check("SEAGenerator -f 2 -i 5")

    # adaptive window equals a list-backed suffix oracle, element by element
    for seed in (0, 1, 2):
        rng = np.random.Generator(np.random.PCG64(seed))
        xs = np.concatenate([(rng.random(1000) < 0.3), (rng.random(1000) < 0.7)]).astype(float)
        with pytest.MonkeyPatch.context() as mp:
            # a looser confidence than the fixed one, checked at every insertion
            mp.setattr(AdwinDetector, "DELTA", 0.01)
            mp.setattr(AdwinDetector, "CHECK_INTERVAL", 1)
            det = AdwinDetector()
            window = []
            for x in xs:
                window.append(float(x))
                det.add_element(float(x))
                window = window[len(window) - det.width:]
                assert abs(det.estimate() - sum(window) / len(window)) < 1e-6

    report(2, True, f"enumeration, beta-bisection (worst {worst_ci:.1e}), eidetic replay, window oracles all exact")


# --------------------------------------------------------------------------
# 3. resplitting on recurrent STAGGER
# --------------------------------------------------------------------------

def test_criterion_3_stagger_resplit_ratio():
    cfg = preset("resplit-vfdt")
    cfg.streams = [RECURRENT_STAGGER]
    cfg.seeds = 5
    cfg.parallelism = JOBS
    results = run_grid(cfg)
    hits = 0
    ratios = []
    for variant in range(5):
        base = results[("vfdt", RECURRENT_STAGGER, variant)].final_error
        resplit = results[("vfdt-resplit", RECURRENT_STAGGER, variant)].final_error
        ratios.append((base, resplit))
        if resplit <= 0.1 * base:
            hits += 1
    detail = "; ".join(f"seed{i}: {b:.5f} -> {r:.5f}" for i, (b, r) in enumerate(ratios))
    report(3, hits >= 4, f"resplit error <= 0.1x base on {hits}/5 seeds ({detail})")


# --------------------------------------------------------------------------
# 4. the inherent-amnesia recovery figure
# --------------------------------------------------------------------------

def test_criterion_4_amnesia_recovery_gap():
    cfg = preset("amnesia-figure")
    cfg.parallelism = JOBS
    results = run_grid(cfg)
    stream_text = cfg.streams[0]

    def tail_mean(learner):
        tails = []
        for variant in range(cfg.seeds):
            series = results[(learner, stream_text, variant)].error_series
            window = [err for idx, err in series if 250_000 < idx <= 300_000]
            assert len(window) == 50
            tails.append(sum(window) / len(window))
        return sum(tails) / len(tails)

    vfdt_tail = tail_mean("vfdt")
    eidetic_tail = tail_mean("vfdt-eidetic")
    gap = eidetic_tail - vfdt_tail
    report(4, gap >= 0.05,
           f"post-drift window error: vfdt {vfdt_tail:.4f} vs eidetic {eidetic_tail:.4f} (gap {gap:.4f} >= 0.05)")


# --------------------------------------------------------------------------
# 5. combined strategies sweep
# --------------------------------------------------------------------------

def test_criterion_5_combined_sweep():
    cfg = preset("combined-vfdt")
    cfg.parallelism = JOBS
    assert len(cfg.streams) >= 14
    results = run_grid(cfg)
    errors_a = [results[("vfdt-stripped", s, 0)].final_error for s in cfg.streams]
    errors_b = [results[("vfdt-combined", s, 0)].final_error for s in cfg.streams]
    rep = compare(errors_a, errors_b, cfg.streams)
    ok = rep.wins_a <= 2 and rep.p_value < 0.05
    report(5, ok,
           f"combined wins {rep.wins_b}, loses {rep.wins_a}, ties {rep.ties} over "
           f"{len(cfg.streams)} rows; p = {rep.p_value:.2e}")


# --------------------------------------------------------------------------
# 6. adaptive tree reduces exactly to the base tree
# --------------------------------------------------------------------------

def test_criterion_6_hat_reduction_exact():
    rows = [
        RECURRENT_STAGGER,
        "AbruptDriftGenerator -c -o 1.0 -z 3 -n 3 -v 3 -r 2 -b 50000 -d Recurrent",
        "RecurrentConceptDriftStream -x 50000 -y 50000 -z 100 -s (SEAGenerator -f 2 -i 2) -d (SEAGenerator -f 3 -i 3)",
    ]
    for row in rows:
        s1, s2 = build_stream(row), build_stream(row)
        vfdt = HoeffdingTreeClassifier(s1.schema, StrategyConfig())
        hat = NeverFireHat(s2.schema, HatConfig())
        for i in range(100_000):
            i1, i2 = s1.next_instance(), s2.next_instance()
            p1, p2 = vfdt.predict_label(i1), hat.predict_label(i2)
            assert p1 == p2, f"{row}: diverged at instance {i}"
            vfdt.train(i1)
            hat.train(i2)
    report(6, True, "never-fire HAT == VFDT for 100,000 instances on 3 streams (exact)")


# --------------------------------------------------------------------------
# 7. alternate voting directions
# --------------------------------------------------------------------------

def test_criterion_7_alternate_voting_directions():
    cfg = preset("altvote-hat")
    cfg.parallelism = JOBS
    results = run_grid(cfg)
    low_dim = [r for r in ALTVOTE_ROWS if ("-z 2 " in r or "-z 3 " in r) or "STAGGER" in r]
    high_dim = [r for r in ALTVOTE_ROWS if "-z 4 -n 4 -v 4" in r or "-z 5 -n 5 -v 5" in r]
    assert len(low_dim) == 7 and len(high_dim) == 2

    vote_wins = sum(
        results[("hat-single-vote", r, 0)].final_error < results[("hat", r, 0)].final_error
        for r in low_dim
    )
    base_wins_high = all(
        results[("hat", r, 0)].final_error < results[("hat-single-vote", r, 0)].final_error
        for r in high_dim
    )
    ok = vote_wins > len(low_dim) / 2 and base_wins_high
    report(7, ok,
           f"single-alternate voting wins {vote_wins}/{len(low_dim)} low-dimension rows; "
           f"baseline wins both high-dimension rows: {base_wins_high}")


# --------------------------------------------------------------------------
# 8. Poisson(1) zero-weight fraction
# --------------------------------------------------------------------------

def test_criterion_8_poisson_zero_fraction():
    hat = HoeffdingAdaptiveTreeClassifier(
        build_stream("STAGGERGenerator -i 1 -f 1").schema,
        HatConfig(poisson_weighting=True), seed=0,
    )
    draws = [hat._poisson_weight() for _ in range(100_000)]
    fraction = sum(1 for w in draws if w == 0.0) / len(draws)
    gap = abs(fraction - math.exp(-1))
    report(8, gap <= 0.01, f"zero-weight fraction {fraction:.4f} vs 1/e = {math.exp(-1):.4f}")


# --------------------------------------------------------------------------
# 9. the property-testing harness
# --------------------------------------------------------------------------

def test_criterion_9_property_suite():
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "tests/test_properties.py", "-q"],
        capture_output=True, text=True,
    )
    tail = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else proc.stderr[-200:]
    report(9, proc.returncode == 0, f"1000-case property harness: {tail}")
