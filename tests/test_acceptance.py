"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines; the whole suite is deterministic (fixed seeds everywhere).
"""

import math
import time

import numpy as np
import pytest

from votedist import exact, model, montecarlo, worstcase
from votedist.metric import reduce_to_line, swap_labels
from votedist.model import LineElection
from votedist.verification import (
    canonicalization_suites,
    displacement_suites,
    random_beta,
    random_election,
    random_euclidean_election,
)

from conftest import two_block_election

SQRT2 = math.sqrt(2.0)
TIGHT_VALUE = (1.0 + SQRT2) ** 2 / (1.0 + 2.0 * SQRT2)
SIDE_NAMES = {-1: model.LEFT, 0: model.INDIFFERENT, 1: model.RIGHT}


def report(criterion: str, ok: bool, detail: str = ""):
    line = f"[acceptance] {criterion}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def test_01_worst_case_at_beta_one():
    start = time.perf_counter()
    sol = worstcase.solve_worst_case(1.0)
    elapsed = time.perf_counter() - start
    ok = (
        abs(sol.value - 1.5224) <= 1e-3
        and abs(sol.q_b - 1.0 / (2.0 + SQRT2)) <= 1e-3
        and abs(sol.x_b) <= 1e-3
        and abs(sol.x_d - (2.0 + SQRT2) / 2.0) <= 1e-3
        and elapsed < 10.0
    )
    report(
        "01 worst case at beta=1",
        ok,
        f"value={sol.value:.6f} witness=({sol.q_b:.6f},{sol.x_b:.6f},{sol.x_d:.6f}) "
        f"in {elapsed:.2f}s",
    )


def test_02_worst_case_at_beta_zero_is_supremum():
    sol = worstcase.solve_worst_case(0.0)
    report(
        "02 worst case at beta=0",
        sol.value >= 2.99 and not sol.attained,
        f"value={sol.value:.6f} attained={sol.attained}",
    )


def test_03_curve_minimum():
    start = time.perf_counter()
    betas = np.linspace(0.0, 1.0, 200)
    rows = worstcase.sweep_beta(betas)
    elapsed = time.perf_counter() - start
    values = [r.value for r in rows]
    k = int(np.argmin(values))
    ok = (
        abs(values[k] - 1.414) <= 0.02
        and abs(betas[k] - 0.705) <= 0.02
        and elapsed < 300.0
    )
    report(
        "03 curve minimum over 200 betas",
        ok,
        f"min={values[k]:.5f} at beta={betas[k]:.4f} in {elapsed:.1f}s",
    )


def test_04_single_voter_expected_distortion():
    worst_gap = 0.0
    values = []
    for eps in (0.5, 0.1, 0.01, 0.001):
        got = exact.expected_distortion(LineElection([1.0 + eps]), 1.0)
        want = (2.0 + 2.0 * eps) / (1.0 + 2.0 * eps)
        worst_gap = max(worst_gap, abs(got.expected_distortion - want))
        values.append(got.expected_distortion)
    approaching_two = all(a < b for a, b in zip(values, values[1:])) and (
        2.0 - values[-1] < 0.003
    )
    ok = worst_gap <= 1e-12 and approaching_two
    report(
        "04 single-voter family",
        ok,
        f"max|err|={worst_gap:.2e}, last={values[-1]:.6f} -> 2",
    )


def test_05_vote_count_threshold():
    value = worstcase.vote_count_threshold(0.1)
    report("05 vote-count threshold at alpha=0.1", 147.5 <= value <= 148.5, f"{value:.4f}")


def test_06_two_block_family():
    e = two_block_election(0.01)
    rep = exact.expected_distortion(e, 0.0)
    exact_right_win = rep.win_prob_right == 1.0 and rep.win_prob_left == 0.0
    dist_ok = abs(rep.expected_distortion - 2.8447) <= 1e-4

    tight = exact.expected_distortion(two_block_election(0.001, total=1000), 0.0)
    limit_ok = abs(tight.expected_distortion - 3.0) <= 0.02
    report(
        "06 two-block family at beta=0",
        exact_right_win and dist_ok and limit_ok,
        f"D(0.01)={rep.expected_distortion:.5f}, D(0.001)={tight.expected_distortion:.5f}",
    )


def test_07_oracle_equivalence():
    rng = np.random.default_rng(7001)
    start = time.perf_counter()
    worst_p = worst_d = 0.0
    for _ in range(500):
        e = random_election(rng, max_voters=12)
        beta = random_beta(rng)
        win = exact.win_probabilities(e, beta)
        rep = exact.expected_distortion(e, beta)
        oracle_win, oracle_dbar = exact.enumerate_oracle(e, beta)
        worst_p = max(worst_p, abs(win.p_left - oracle_win.p_left))
        worst_d = max(worst_d, abs(rep.expected_distortion - oracle_dbar))
    elapsed = time.perf_counter() - start
    ok = worst_p <= 1e-12 and worst_d <= 1e-12 and elapsed < 60.0
    report(
        "07 oracle equivalence on 500 elections",
        ok,
        f"max|dp|={worst_p:.2e} max|dD|={worst_d:.2e} in {elapsed:.1f}s",
    )


def test_08_displacement_certificates():
    results = displacement_suites(trials=1000, seed=8001)
    ok = all(r.ok for r in results)
    detail = ", ".join(f"{r.name}:{r.trials - r.failures}/{r.trials}" for r in results)
    report("08 displacement certificates (1000 per move kind)", ok, detail)


def test_09_canonical_forms():
    results = canonicalization_suites(trials=500, seed=9001)
    ok = all(r.ok for r in results)
    detail = ", ".join(f"{r.name}:{r.trials - r.failures}/{r.trials}" for r in results)
    report("09 canonical forms (500 each)", ok, detail)


def test_10_metric_reduction():
    rng = np.random.default_rng(10001)
    worst_participation = worst_win = 0.0
    monotone = True
    for _ in range(500):
        beta = random_beta(rng)
        m = random_euclidean_election(rng, max_voters=12)
        red = reduce_to_line(m, beta)
        working = swap_labels(m) if red.swapped else m
        side, p = model.voter_arrays(*working.distances(), beta)
        for s, q, x in zip(side, p, red.election.positions):
            line_prof = model.profile(x, beta)
            if line_prof.preferred != SIDE_NAMES[s]:
                monotone = False
            worst_participation = max(
                worst_participation,
                abs(line_prof.participation - q),
            )
        win_m = exact.win_probabilities(working, beta)
        win_l = exact.win_probabilities(red.election, beta)
        worst_win = max(worst_win, abs(win_m.p_left - win_l.p_left))
        rep_m = exact.expected_distortion(working, beta)
        rep_l = exact.expected_distortion(red.election, beta)
        if rep_l.dist_left < rep_m.dist_left - 1e-9:
            monotone = False
        if rep_l.expected_distortion < rep_m.expected_distortion - 1e-9:
            monotone = False
    ok = worst_participation <= 1e-12 and worst_win <= 1e-12 and monotone
    report(
        "10 metric reduction on 500 planar elections",
        ok,
        f"max|dp|={worst_participation:.2e} max|dwin|={worst_win:.2e} monotone={monotone}",
    )


def test_11_expected_distortion_bound_spot_check():
    dstar = worstcase.solve_worst_case(1.0).value
    bound = 1.2 * dstar
    elections = worstcase.generate_gate_elections(0.1, 1.0, 200, seed=11001)
    checks = worstcase.verify_distortion_bound(0.1, 1.0, elections)
    statuses = [c.status for c in checks]
    ok = all(s == "pass" for s in statuses)
    min_slack = min(c.slack for c in checks if c.slack is not None)
    report(
        "11 expected-distortion bound on 200 gate elections",
        ok,
        f"bound={bound:.4f} min_slack={min_slack:.4f} statuses={set(statuses)}",
    )


def test_12_interval_coverage():
    e = LineElection([-0.3, 0.2, 0.45, 0.8, 1.3, 1.9])
    beta = 0.8
    confidence = 0.9
    p_exact = exact.win_probabilities(e, beta).p_left
    hits = 0
    for seed in range(100):
        est = montecarlo.simulate(
            e, beta, montecarlo.McConfig(samples=400, seed=seed, confidence=confidence)
        )
        if abs(est.p_left_hat - p_exact) <= est.half_width_p:
            hits += 1
    ok = hits / 100 >= confidence - 0.05
    report("12 interval coverage over 100 seeds", ok, f"coverage={hits}%")
