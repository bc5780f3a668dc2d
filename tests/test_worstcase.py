import math

import numpy as np
import pytest
from click.testing import CliRunner

from votedist import exact, model, worstcase
from votedist.cli import main
from votedist.displace import canonicalize_expected_winner
from votedist.model import LEFT, LineElection
from votedist.verification import random_beta, random_leading_election
from votedist.worstcase import (
    binding_xd,
    generate_gate_elections,
    solve_worst_case,
    solve_worst_case_margin,
    sweep_beta,
    sweep_csv,
    two_point_distortion,
    verify_distortion_bound,
    vote_count_threshold,
    witness_election,
)

SQRT2 = math.sqrt(2.0)
TIGHT_Q = 1.0 / (2.0 + SQRT2)
TIGHT_XD = (2.0 + SQRT2) / 2.0
TIGHT_VALUE = (1.0 + SQRT2) ** 2 / (1.0 + 2.0 * SQRT2)
EPS = np.finfo(float).eps


def reference_positive_beta_values(odds, x_b, beta, margin):
    """The objective with two powers per grid point, before factoring x_d.

    ``odds`` is ``(1 - q_b) / q_b`` on each row, so that ``q_b`` near 1 keeps
    its ``1 - q_b`` exact.
    """
    rr, xx = np.meshgrid(odds, x_b, indexing="ij")
    qq = 1.0 / (1.0 + rr)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        base = (1.0 + margin) * rr / (1.0 - 2.0 * xx) ** beta
        xd = np.maximum(1.0, 0.5 * (1.0 + base ** (1.0 / beta)))
        num = qq * xx + qq * rr * xd
        den = qq * (1.0 - xx) + qq * rr * (xd - 1.0)
        vals = num / den
    vals = np.where(np.isfinite(xd) & np.isfinite(vals) & (den > 0), vals, -np.inf)
    return vals, xd


_GOLDEN_RATIO = (1.0 + math.sqrt(5.0)) / 2.0


def golden_max(beta, margin):
    """Reference: golden-section search over ``s`` for each positive beta.

    Returns ``(value, q_b, x_b, x_d)``.  It assumes the value is unimodal in
    ``s`` and runs on the solver's bracket, ``[lo, 56 ln 2]``: each step keeps
    ``1 / _GOLDEN_RATIO`` of it, until the widest is under ``eps`` and ``A = e^s``
    moves by less than its rounding, after 85 steps (Kiefer, *Sequential minimax search
    for a maximum*, 1953).
    """
    s_max = 56.0 * math.log(2.0)
    hi = np.full(beta.shape, s_max)
    lo = np.clip((math.log1p(margin) - 55.0 * math.log(2.0)) / beta, -s_max, s_max)
    c, d = hi - (hi - lo) / _GOLDEN_RATIO, lo + (hi - lo) / _GOLDEN_RATIO
    fc, fd = worstcase._best_x_b(c, beta, margin)[0], worstcase._best_x_b(d, beta, margin)[0]
    for _ in range(math.ceil(math.log(2.0 * s_max / EPS, _GOLDEN_RATIO))):
        left = fc >= fd
        hi, lo = np.where(left, d, hi), np.where(left, lo, c)
        p = np.where(left, hi - (hi - lo) / _GOLDEN_RATIO, lo + (hi - lo) / _GOLDEN_RATIO)
        fp = worstcase._best_x_b(p, beta, margin)[0]
        c, d = np.where(left, p, d), np.where(left, c, p)
        fc, fd = np.where(left, fp, fd), np.where(left, fc, fp)
    excess, q_b, x_b, x_d = worstcase._best_x_b(np.where(fc >= fd, c, d), beta, margin)
    return tuple(v.astype(float) for v in (1.0 + excess, q_b, x_b, x_d))


class TestTwoPointDistortion:
    def test_tight_point(self):
        assert two_point_distortion(TIGHT_Q, 0.0, TIGHT_XD) == pytest.approx(
            TIGHT_VALUE, abs=1e-12
        )

    def test_all_mass_near(self):
        for x_b in (0.0, 0.2, 0.4):
            assert two_point_distortion(1.0, x_b, 5.0) == pytest.approx(
                x_b / (1.0 - x_b)
            )

    def test_majority_flip_shape(self):
        assert two_point_distortion(0.51, 0.5, 1.0) == pytest.approx(
            0.745 / 0.255, abs=1e-12
        )

    @pytest.mark.parametrize(
        "q,xb,xd",
        [(-0.1, 0.0, 2.0), (1.1, 0.0, 2.0), (0.5, 0.6, 2.0), (0.5, 0.0, 0.9), (0.0, 0.0, 1.0),
         (0.5, 0.1, math.nan), (0.5, 0.1, math.inf)],
    )
    def test_domain_errors(self, q, xb, xd):
        with pytest.raises(ValueError):
            two_point_distortion(q, xb, xd)


class TestBindingXd:
    def test_tight_point(self):
        assert binding_xd(TIGHT_Q, 0.0, 1.0) == pytest.approx(TIGHT_XD, abs=1e-12)

    def test_no_far_mass(self):
        assert binding_xd(1.0, 0.3, 1.0) == 1.0

    def test_balanced_full_separation(self):
        assert binding_xd(0.5, 0.0, 1.0) == 1.0

    def test_midpoint_mass_is_hopeless(self):
        assert binding_xd(0.3, 0.5, 1.0) == math.inf

    def test_beta_zero_rejected(self):
        with pytest.raises(ValueError):
            binding_xd(0.5, 0.0, 0.0)

    @pytest.mark.parametrize(
        "q,xb,beta,margin,message",
        [(0.0, 0.0, 1.0, 0.0, "q_b"), (1.1, 0.0, 1.0, 0.0, "q_b"), (0.5, -0.1, 1.0, 0.0, "x_b"),
         (0.5, 0.6, 1.0, 0.0, "x_b"), (0.5, 0.0, 1.0, -2.0, "margin"),
         (0.5, 0.0, 0.5, math.nan, "margin"), (0.5, 0.0, 1.0, math.inf, "margin")],
    )
    def test_domain_errors(self, q, xb, beta, margin, message):
        with pytest.raises(ValueError, match=message):
            binding_xd(q, xb, beta, margin)

    def test_constraint_satisfied_at_binding_point(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            q = float(rng.uniform(0.05, 1.0))
            xb = float(rng.uniform(0.0, 0.49))
            beta = float(rng.uniform(0.05, 1.0))
            xd = binding_xd(q, xb, beta)
            have = (1.0 - 2.0 * xb) ** beta * q
            need = (1.0 - q) / (2.0 * xd - 1.0) ** beta
            assert have >= need - 1e-9


class TestSolve:
    def test_beta_one(self):
        sol = solve_worst_case(1.0)
        assert abs(sol.value - TIGHT_VALUE) <= 2.0 * np.spacing(TIGHT_VALUE)
        assert abs(sol.q_b - TIGHT_Q) <= 1e-12
        assert sol.x_b == pytest.approx(0.0, abs=1e-6)
        assert abs(sol.x_d - TIGHT_XD) <= 1e-12
        assert sol.attained

    def test_beta_zero_supremum(self):
        sol = solve_worst_case(0.0)
        assert sol.value == 3.0
        assert not sol.attained
        assert (sol.q_b, sol.x_b, sol.x_d) == (0.5, 0.5, 1.0)

    def test_interior_minimum_region(self):
        # The minimum of the curve: sqrt 2 at beta = 1/sqrt 2, with the
        # witness q_b = 1/2, x_b = 1 - 1/sqrt 2, x_d = 1 + 1/sqrt 2.
        sol = solve_worst_case(1.0 / SQRT2)
        assert abs(sol.value - SQRT2) <= 2.0 * np.spacing(SQRT2)
        assert abs(sol.q_b - 0.5) <= 1e-12
        assert abs(sol.x_b - (1.0 - 1.0 / SQRT2)) <= 1e-12
        assert sol.x_d == pytest.approx(1.0 + 1.0 / SQRT2, abs=1e-6)

    def test_clamped_regime_reaches_the_optimum(self):
        # Where x_d = 1 binds, a 2-D grid over (q_b, x_b) printed
        # 2.43510704193 at beta = 0.075, below this feasible point.
        q, xb = 0.563131408552, 0.483062435603
        assert two_point_distortion(q, xb, binding_xd(q, xb, 0.075)) >= 2.43520102
        assert solve_worst_case(0.075).value >= 2.43520102

    def test_solution_feasible_and_locally_maximal(self):
        for sol in sweep_beta([0.3, 0.705, 1.0]):
            beta = sol.beta
            have = (1.0 - 2.0 * sol.x_b) ** beta * sol.q_b
            need = (1.0 - sol.q_b) / (2.0 * sol.x_d - 1.0) ** beta
            assert have >= need - 1e-9
            for dq in (-1e-6, 0.0, 1e-6):
                for dx in (-1e-6, 0.0, 1e-6):
                    q = min(1.0, max(1e-9, sol.q_b + dq))
                    xb = min(0.5 - 1e-12, max(0.0, sol.x_b + dx))
                    value = two_point_distortion(q, xb, binding_xd(q, xb, beta))
                    assert value <= sol.value + 1e-12

    def test_curve_dominates_random_elections(self, rng):
        # Soundness: no election whose expected winner is suboptimal beats
        # the solved worst case at its beta.
        cases = []
        for _ in range(60):
            beta = round(random_beta(rng), 3)
            cases.append((beta, random_leading_election(rng, beta, LEFT)))
        dstar = {s.beta: s.value for s in sweep_beta(sorted({beta for beta, _ in cases}))}
        for beta, e in cases:
            assert model.winner_distortion(e, beta) <= dstar[beta] + 1e-6

    @pytest.mark.parametrize("epsilon", [0.0, 0.01, 1.0, 1e3, 1e6, 1e9, 1e300])
    def test_matches_the_golden_search(self, epsilon):
        # The candidates against 85 golden-section steps over the same bracket.
        for betas in (np.linspace(0.0, 1.0, 401)[1:], np.linspace(0.0025, 1.0, 401),
                      np.geomspace(1e-12, 1.0, 400)):
            got = np.array([s.value for s in worstcase._solve(betas, epsilon)])
            want = golden_max(betas, epsilon)[0]
            assert np.all(np.abs(got - want) <= 4.0 * np.spacing(want))

    def test_newton_solves_take_few_steps(self, monkeypatch):
        # Each solve checks its bracket with two evaluations, then makes one
        # per step; counted, not timed, so the guard is machine-independent.
        calls = {}
        for name in ("_chi_one", "_chi_a"):
            def counted(s, beta, log_m, _chi=getattr(worstcase, name), _name=name):
                calls[_name] = calls.get(_name, 0) + 1
                return _chi(s, beta, log_m)

            monkeypatch.setattr(worstcase, name, counted)
        worstcase._solve(np.linspace(0.0, 1.0, 401), 0.0)
        assert sorted(calls) == ["_chi_a", "_chi_one"]
        assert all(n - 2 <= 10 for n in calls.values()), calls

    def test_newton_raises_at_its_step_cap(self, monkeypatch):
        # Out of steps, a solve names its beta and epsilon instead of
        # returning its last point.
        assert worstcase._NEWTON_CAP == 59
        monkeypatch.setattr(worstcase, "_NEWTON_CAP", 1)
        with pytest.raises(RuntimeError, match=r"beta = 0\.3, epsilon = 0\.01 did not converge"):
            solve_worst_case_margin(0.3, 0.01)

    def test_witness_is_canonical_fixed_point(self):
        sol = solve_worst_case(1.0)
        witness = witness_election(sol, total=400)
        assert model.expected_winner(witness, 1.0) == model.LEFT
        form = canonicalize_expected_winner(witness, 1.0)
        assert form.applied
        assert form.election.positions == witness.positions
        assert model.winner_distortion(witness, 1.0) <= sol.value + 1e-3


class TestSeparableObjective:
    """The closed-form best x_b against the unfactored objective on x_b grids.

    The unfactored form rounds the base of the ``1/beta`` power a few times,
    and its odds ``e^(beta s) / (1 + margin)`` carry the rounding of the
    exponent, ``eps (|beta s| + log(1 + margin))`` relative.  The power
    multiplies that by ``1/beta``, so at the same point the two agree to
    ``(8 + |beta s| + log(1 + margin)) eps / beta`` relative.
    """

    @staticmethod
    def assert_best(s, x_grid, beta, margin):
        excess, q_b, x_b, x_d = worstcase._best_x_b(s, beta, margin)
        assert excess.shape == q_b.shape == x_b.shape == x_d.shape == s.shape
        got = 1.0 + excess
        tol = (8.0 + np.abs(beta * s) + math.log1p(margin)) * EPS / beta
        odds = np.exp(beta * s - math.log1p(margin))
        grid, _ = reference_positive_beta_values(odds, x_grid, beta, margin)
        # Where rounding x_b pushes u past the odds the excess would read below
        # 0; the limit q_b -> 1 (value 1) stands there, and nothing beats it.
        limit = q_b == 1.0
        assert np.all((excess[limit] == 0.0) & (x_b[limit] == 0.5) & (x_d[limit] == 1.0))
        assert np.all(excess >= 0.0) and np.all(np.isfinite(x_d))
        # No x_b of the grid beats the closed form ...
        assert np.all(grid.max(axis=1) <= got * (1.0 + tol))
        # ... and the unfactored form reads the same at the returned x_b.
        inner = ~limit & (x_b < 0.5)
        at, xd_at = reference_positive_beta_values(odds[inner], x_b[inner], beta, margin)
        assert np.all(np.abs(np.diag(at) - got[inner]) <= tol[inner] * got[inner])
        assert np.all(np.abs(np.diag(xd_at) - x_d[inner]) <= tol[inner] * x_d[inner])

    @pytest.mark.parametrize("beta", [0.0025, 0.05, 0.37, 0.705, 1.0])
    @pytest.mark.parametrize("margin", [0.0, 0.01, 1e9])
    def test_random_grids(self, rng, beta, margin):
        # Dense in u = 1 - 2 x_b on both scales: uniform, and geometric down
        # to u = 1e-16, where the optimum sits when A is tiny.  The s range
        # reaches past the search bracket, 56 ln 2 either side.
        x_grid = np.concatenate(
            [np.linspace(0.0, 0.5, 2001), 0.5 * (1.0 - np.logspace(-16, -3, 600))]
        )
        for _ in range(3):
            self.assert_best(np.sort(rng.uniform(-45.0, 45.0, 48)), x_grid, beta, margin)

    @pytest.mark.parametrize("beta", [0.0025, 0.37, 1.0])
    @pytest.mark.parametrize("margin", [0.0, 1e9])
    def test_edge_grids(self, beta, margin):
        s = np.array([-45.0, -38.8, -1e-9, 0.0, 1e-9, 38.8, 45.0])
        self.assert_best(s, np.array([0.0, 0.25, 0.5 - 1e-9, 0.5]), beta, margin)
        self.assert_best(np.linspace(-45.0, 45.0, 128), np.linspace(0.0, 0.5, 128), beta, margin)

    def test_edges_masked_as_before(self):
        # s = -inf is q = 1 and A = 0: the limit x_b = 1/2, x_d = 1 and value
        # 1, where the unfactored form reads 0/0.
        for beta in (0.0025, 0.5, 1.0):
            for margin in (0.0, 1e9):
                got = worstcase._best_x_b(np.array([-math.inf]), beta, margin)
                assert tuple(float(v[0]) for v in got) == (0.0, 1.0, 0.5, 1.0)
        # A large A puts x_b at 0 and x_d at (1 + A) / 2.
        excess, q_b, x_b, x_d = worstcase._best_x_b(np.array([40.0]), 0.5, 0.0)
        assert x_b[0] == 0.0
        assert x_d[0] == pytest.approx(0.5 * (1.0 + math.exp(40.0)), rel=1e-12)
        assert q_b[0] == pytest.approx(1.0 / (1.0 + math.exp(20.0)), rel=1e-12)
        assert 0.0 < excess[0] < 1e-16

    def test_zero_beta_matches_meshgrid(self):
        # At beta = 0, x_d = 1 and the constraint reads
        # q_b >= (1 + eps) / (2 + eps).  The closed-form supremum bounds the
        # objective over a grid of that region with x_b < 1/2, and the grid
        # approaches it.
        for eps in (0.0, 0.01, 1.0):
            sol = solve_worst_case_margin(0.0, eps)
            qq, xx = np.meshgrid(
                np.linspace(sol.q_b, 1.0, 401), np.linspace(0.0, 0.5, 401)[:-1],
                indexing="ij",
            )
            vals = (qq * xx + (1.0 - qq)) / (qq * (1.0 - xx))
            assert sol.value - 1e-2 <= vals.max() <= sol.value


class TestMargin:
    def test_zero_margin_matches(self):
        plain = solve_worst_case(1.0)
        margin = solve_worst_case_margin(1.0, 0.0)
        assert margin.value == pytest.approx(plain.value, abs=1e-9)

    def test_small_margin_shaves_a_little(self):
        base = solve_worst_case(1.0).value
        squeezed = solve_worst_case_margin(1.0, 0.01).value
        assert squeezed < base
        assert base - squeezed < 0.02

    def test_huge_margin_forces_triviality(self):
        assert solve_worst_case_margin(1.0, 1e9).value == pytest.approx(1.0, abs=1e-3)

    def test_negative_margin_rejected(self):
        with pytest.raises(ValueError):
            solve_worst_case_margin(1.0, -0.5)

    @pytest.mark.parametrize("epsilon", [math.nan, math.inf])
    def test_non_finite_margin_rejected(self, epsilon):
        with pytest.raises(ValueError, match="epsilon"):
            solve_worst_case_margin(1.0, epsilon)

    @pytest.mark.parametrize("epsilon", [0.0, 0.01, 1.0, 1e9])
    def test_beta_zero_closed_form(self, epsilon):
        sol = solve_worst_case_margin(0.0, epsilon)
        assert sol.value == (3.0 + epsilon) / (1.0 + epsilon)
        assert sol.q_b == (1.0 + epsilon) / (2.0 + epsilon)
        assert (sol.x_b, sol.x_d, sol.attained) == (0.5, 1.0, False)

    @pytest.mark.parametrize("beta", [0.0025, 0.01, 0.1, 0.5, 1.0])
    def test_huge_margin_still_solves(self, beta):
        # q_b = 1 reads 1 in the limit x_b -> 1/2, so no beta raises or
        # returns less, even where every finite s rounds to 1 or below.
        for epsilon in (1e9, 1e300):
            assert solve_worst_case_margin(beta, epsilon).value >= 1.0

    @pytest.mark.parametrize(
        "beta, epsilon, floor", [(0.01, 1000.0, 1.0017877146), (0.0025, 1e9, 1.0 + 1.8e-9)]
    )
    def test_band_next_to_q_one_is_found(self, beta, epsilon, floor):
        # A grid over q_b returned 1 at both: at beta = 0.01 with x_d = 8.99e307,
        # where q_b = 0.99909, x_b = 0.4999955, x_d = 6.043 meets the lead with
        # ratio 1001 and reads 1.0017877; at beta = 0.0025 the band lies
        # within 1e-8 of q_b = 1.
        sol = solve_worst_case_margin(beta, epsilon)
        assert sol.value >= floor
        x_d = binding_xd(sol.q_b, sol.x_b, beta, epsilon)
        assert two_point_distortion(sol.q_b, sol.x_b, x_d) == pytest.approx(sol.value, rel=1e-12)

    @pytest.mark.parametrize("epsilon", [0.0, 1.0, 1e3])
    def test_small_beta_approaches_the_beta_zero_supremum(self, epsilon):
        sol = solve_worst_case_margin(1e-12, epsilon)
        assert sol.value == pytest.approx((3.0 + epsilon) / (1.0 + epsilon), rel=1e-9)

    def test_value_falls_as_the_margin_grows(self):
        # A larger margin only shrinks the feasible set.
        betas = [0.005, 0.05, 0.2, 1.0]
        curves = [
            [s.value for s in worstcase._solve(betas, epsilon)]
            for epsilon in (0.0, 1.0, 1e3, 1e6, 1e9)
        ]
        for looser, tighter in zip(curves, curves[1:]):
            assert all(t <= v for v, t in zip(looser, tighter))


class TestSweep:
    def test_endpoints_and_unimodality(self):
        betas = [k / 20 for k in range(21)]
        rows = sweep_beta(betas)
        values = [r.value for r in rows]
        assert values[0] >= 2.99
        assert values[-1] == pytest.approx(TIGHT_VALUE, abs=1e-3)
        k_min = values.index(min(values))
        assert all(values[i] >= values[i + 1] - 1e-6 for i in range(k_min))
        assert all(values[i] <= values[i + 1] + 1e-6 for i in range(k_min, 20))

    @pytest.mark.parametrize("epsilon", [0.0, 0.01, 1.0, 1e3, 1e6, 1e9])
    def test_witnesses_are_feasible(self, epsilon):
        # Each witness, re-evaluated through the scalar binding x_d, reads
        # the value the solver returned, and none sits at an overflowing x_d.
        for sol in worstcase._solve(np.linspace(0.0025, 1.0, 401), epsilon):
            assert sol.x_d <= 1e300
            x_d = binding_xd(sol.q_b, sol.x_b, sol.beta, epsilon)
            value = two_point_distortion(sol.q_b, sol.x_b, x_d)
            assert value == pytest.approx(sol.value, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("beta", [0.0025, 0.02, 0.075, 0.3, 0.5, 0.705, 1.0])
    def test_no_grid_point_beats_the_solution(self, beta):
        # Dense grids of the unfactored objective over the whole box and
        # over a box of +-1e-3 around the witness.
        sol = solve_worst_case(beta)
        boxes = [
            ((1e-9, 1.0), (0.0, 0.5)),
            ((max(1e-9, sol.q_b - 1e-3), min(1.0, sol.q_b + 1e-3)),
             (max(0.0, sol.x_b - 1e-3), min(0.5, sol.x_b + 1e-3))),
        ]
        for q_box, x_box in boxes:
            q, x_b = np.linspace(*q_box, 400), np.linspace(*x_box, 400)
            vals, _ = reference_positive_beta_values((1.0 - q) / q, x_b, beta, 0.0)
            assert vals.max() <= sol.value * (1.0 + 1e-12)

    def test_csv_schema(self):
        rows = sweep_beta([0.0, 1.0])
        text = sweep_csv(rows)
        lines = text.strip().split("\n")
        assert lines[0] == "beta,dstar,q_b,x_b,x_d,attained"
        assert len(lines) == 3
        assert lines[1].startswith("0,") and lines[1].endswith(",false")
        assert lines[2].startswith("1,") and lines[2].endswith(",true")

    @pytest.mark.parametrize(
        "beta, fmt, text",
        [
            ("1", "csv", "beta,dstar,q_b,x_b,x_d,attained\n"
             "1,1.52240774993,0.292893218813,0,1.70710678119,true\n"),
            ("1", "report", "beta      1\ndstar     1.52240774993\nq_b       0.292893218813\n"
             "x_b       0\nx_d       1.70710678119\nattained  true\n"),
            ("0", "csv", "beta,dstar,q_b,x_b,x_d,attained\n"
             "0,3,0.5,0.5,1,false\n"),
            ("0", "report", "beta      0\ndstar     3\nq_b       0.5\n"
             "x_b       0.5\nx_d       1\nattained  false\n"),
        ],
    )
    def test_worstcase_command_output(self, beta, fmt, text):
        result = CliRunner().invoke(main, ["worstcase", "--beta", beta, "--format", fmt])
        assert result.exit_code == 0
        assert result.output == text


class TestVoteThreshold:
    def test_reference_value(self):
        assert vote_count_threshold(0.1) == pytest.approx(147.84975, abs=1e-4)

    def test_unit_alpha(self):
        assert vote_count_threshold(1.0) == pytest.approx(
            8.0 / (1.0 - SQRT2) ** 2, abs=1e-9
        )

    def test_decreasing_on_small_alpha(self):
        alphas = [0.01 + 0.49 * k / 30 for k in range(31)]
        values = [vote_count_threshold(a) for a in alphas]
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_blows_up_near_zero(self):
        assert vote_count_threshold(1e-6) > 1e9

    def test_rejects_nonpositive_and_pole(self):
        with pytest.raises(ValueError):
            vote_count_threshold(0.0)
        with pytest.raises(ValueError):
            vote_count_threshold((1.0 + math.sqrt(5.0)) / 2.0)

    @pytest.mark.parametrize(
        "alpha",
        [math.nan, math.inf, -1.0, 1e200, 1e-200, 1.01e50, 0.99e-100, _GOLDEN_RATIO],
    )
    def test_invalid_or_extreme_alpha_names_alpha(self, alpha):
        with pytest.raises(ValueError, match="alpha"):
            vote_count_threshold(alpha)

    @pytest.mark.parametrize("alpha", [1e-100, 1e-60, 1e-3, 0.1, 3.0, 1e40, 1e50])
    def test_accurate_across_the_domain(self, alpha):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(50):
            a = mpmath.mpf(alpha)
            exact = (a + 1) ** 3 / (a**2 * (a - mpmath.sqrt(a + 1)) ** 2)
            assert vote_count_threshold(alpha) == pytest.approx(float(exact), rel=1e-14)


class TestVoteMoments:
    # The vote gate reads the means of the vote counts from model.expected_votes.
    def test_deterministic_voters(self):
        assert model.expected_votes(LineElection([0.0, 0.0]), 1.0)[0] == 2.0

    def test_single_coin_voter(self):
        assert model.expected_votes(LineElection([1.5]), 1.0)[1] == pytest.approx(0.5)

    def test_matches_pmf_moments(self, rng):
        from votedist.verification import random_election

        for _ in range(30):
            e = random_election(rng)
            beta = random_beta(rng)
            mean_left, _ = model.expected_votes(e, beta)
            probs = [
                model.profile(x, beta).participation
                for x in e.positions
                if model.profile(x, beta).preferred == model.LEFT
            ]
            pmf = exact.vote_pmf(probs)
            mean = float(np.dot(np.arange(len(pmf)), pmf))
            assert mean_left == pytest.approx(mean, abs=1e-12)


class TestBoundVerifier:
    def test_small_elections_skip_on_threshold(self):
        checks = verify_distortion_bound(0.1, 1.0, [LineElection([1.5])])
        assert checks[0].status == "skipped"
        assert "threshold" in checks[0].reason

    def test_left_optimal_skipped(self):
        # Enormous left-leaning election passes the vote gate but has the
        # wrong optimal candidate.
        e = LineElection([0.0] * 400 + [1.2] * 200)
        sc_left, sc_right = model.social_costs(e)
        assert sc_right > sc_left
        checks = verify_distortion_bound(0.55, 1.0, [e])
        assert checks[0].status == "skipped"
        assert "optimal" in checks[0].reason

    def test_tied_costs_skipped(self):
        # Mirrored blocks clear the vote gate with costs tied exactly, where
        # distortion_pair names left optimal: right is not strictly optimal.
        e = LineElection([0.1] * 400 + [0.9] * 400)
        sc_left, sc_right = model.social_costs(e)
        assert sc_right == sc_left
        assert min(model.expected_votes(e, 1.0)) >= vote_count_threshold(0.1)
        checks = verify_distortion_bound(0.1, 1.0, [e])
        assert checks[0].status == "skipped"
        assert checks[0].reason == "right candidate is not strictly optimal"

    def test_exact_path_passes(self):
        # alpha high enough that a 12-voter election clears the gate.
        alpha = 3.5
        threshold = vote_count_threshold(alpha)
        assert threshold < 7
        e = LineElection([0.0] * 7 + [1.01] * 8)
        assert min(model.expected_votes(e, 1.0)) >= threshold
        checks = verify_distortion_bound(alpha, 1.0, [e])
        assert checks[0].bound == (1.0 + 2.0 * alpha) * TIGHT_VALUE
        assert checks[0].status == "pass"
        assert checks[0].method == "exact"
        assert checks[0].slack >= 0.0

    def test_negative_gate_count_rejected(self):
        with pytest.raises(ValueError, match="count must be >= 0"):
            generate_gate_elections(0.1, 1.0, -1, 3)
        assert generate_gate_elections(0.1, 1.0, 0, 3) == []

    @pytest.mark.parametrize("seed", [-1, 1.5])
    def test_gate_seed_must_be_a_non_negative_integer(self, seed):
        with pytest.raises(ValueError, match=f"^seed must be (>= 0|an integer), got {seed}$"):
            generate_gate_elections(0.1, 1.0, 1, seed)

    @pytest.mark.parametrize(
        "alpha, beta, count, message",
        [
            (1e-5, 2.0, -1, r"beta must lie in \[0, 1\], got 2.0"),
            (0.0, 1.0, -1, r"alpha must lie in \[1e-100, 1e50\], got 0.0"),
            (1e-100, 1.0, -1, r"alpha = 1e-100 needs 1e\+200 expected votes per candidate"),
            (1e-5, 1.0, -1, r"alpha = 1e-05 needs 1.00004e\+10 expected votes"),
            (1.618, 1.0, -1, r"alpha = 1.618 needs 1.24265e\+10 expected votes"),
            (0.001, 1.0, -1, "count must be >= 0, got -1"),
        ],
    )
    def test_gate_inputs_are_checked_in_order_before_any_voter(
        self, monkeypatch, alpha, beta, count, message
    ):
        # Gate elections at alpha 1e-5 or 1.618 would hold about 1e10 voters.
        def refuse(*args, **kwargs):
            raise AssertionError("the gate generator allocated its voters")

        monkeypatch.setattr(np, "repeat", refuse)
        with pytest.raises(ValueError, match=message):
            generate_gate_elections(alpha, beta, count, 3)

    def test_generated_gate_elections_are_checked_exactly(self):
        elections = generate_gate_elections(0.1, 1.0, 8, seed=5)
        for e in elections:
            assert min(model.expected_votes(e, 1.0)) >= vote_count_threshold(0.1)
            sc_left, sc_right = model.social_costs(e)
            assert sc_right < sc_left
            assert len(set(e.positions)) <= 8
        checks = verify_distortion_bound(0.1, 1.0, elections)
        assert all(c.status == "pass" for c in checks)
        assert all(c.method == "exact" for c in checks)
        for c, e in zip(checks, elections):
            assert c.dbar == exact.expected_distortion(e, 1.0).expected_distortion
            assert c.slack == c.bound - c.dbar

    def test_elections_above_a_million_voters_are_checked_exactly(self, monkeypatch):
        from votedist import montecarlo

        def no_simulation(*args, **kwargs):
            raise AssertionError("the bound audit must not simulate")

        monkeypatch.setattr(montecarlo, "simulate", no_simulation)
        e = LineElection(np.repeat([0.1, 0.3, 1.6], [300_000, 250_000, 450_001]))
        assert len(e) > 1_000_000
        (check,) = verify_distortion_bound(0.1, 1.0, [e])
        assert check.method == "exact"
        assert check.status == "pass"
        assert check.dbar == exact.expected_distortion(e, 1.0).expected_distortion
