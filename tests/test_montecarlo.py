import math

import numpy as np
import pytest

from votedist import exact, model
from votedist.model import LineElection
from votedist.montecarlo import McConfig, _groups, hoeffding_half_width, simulate


def reference_groups(e, beta):
    """``_groups`` as one row-wise unique over (side, participation) pairs."""
    side, p = model.voter_arrays(*e.distances(), beta)
    voting = side != 0
    keys, counts = np.unique(
        np.column_stack([side[voting], p[voting]]), axis=0, return_counts=True
    )
    return [(int(s), float(q), int(m)) for (s, q), m in zip(keys, counts)]


class TestConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(samples=0, seed=1),
            dict(samples=10, seed=1, confidence=0.0),
            dict(samples=10, seed=1, confidence=1.0),
            dict(samples=10, seed=1, confidence=math.nan),
            dict(samples=10, seed=-1),
            dict(samples=10, seed=1.5),
        ],
    )
    def test_rejects_bad_config(self, kwargs):
        with pytest.raises(ValueError, match="seed" if kwargs["seed"] != 1 else None):
            McConfig(**kwargs)
        if kwargs["seed"] == 1:
            # The half-width is defined for the same sampling plans.
            with pytest.raises(ValueError):
                hoeffding_half_width(kwargs["samples"], kwargs.get("confidence", 0.95))


class TestHalfWidth:
    def test_single_sample_formula(self):
        for confidence in (0.5, 0.9, 0.999):
            expected = math.sqrt(math.log(2.0 / (1.0 - confidence)) / 2.0)
            assert hoeffding_half_width(1, confidence) == pytest.approx(expected)

    def test_doubling_samples_halves_squared_width(self):
        for n in (1, 10, 1000):
            t1 = hoeffding_half_width(n, 0.95)
            t2 = hoeffding_half_width(2 * n, 0.95)
            assert t2**2 == pytest.approx(t1**2 / 2.0, rel=1e-12)


class TestSimulate:
    def test_deterministic_given_seed(self):
        e = LineElection([-0.5, 0.3, 0.8, 1.4])
        cfg = McConfig(samples=5000, seed=123)
        assert simulate(e, 0.7, cfg) == simulate(e, 0.7, cfg)

    def test_draws_from_one_stream_per_seed(self):
        # One right voter with p = 1/2: one binomial draw per sample, then
        # the tie coins, all from the first stream spawned from the seed.
        stream = np.random.SeedSequence(123).spawn(1)[0]
        rng = np.random.Generator(np.random.Philox(stream))
        right = rng.binomial(1, 0.5, size=5000)
        coin = rng.integers(0, 2, size=5000).astype(bool)
        wins = np.count_nonzero((right == 0) & coin)
        est = simulate(LineElection([1.5]), 1.0, McConfig(samples=5000, seed=123))
        assert est.p_left_hat == wins / 5000
        other = simulate(LineElection([1.5]), 1.0, McConfig(samples=5000, seed=124))
        assert other != est

    def test_groups_left_first_participation_ascending(self):
        # The draw order of simulate; the scalar profile is the reference.
        e = LineElection([1.5, 0.2, -0.5, 0.5, 0.2, 3.0, 0.0, 1.5, -0.5])
        for beta in (0.0, 1.0):
            counts = {}
            for x in e.positions:
                prof = model.profile(x, beta)
                if prof.preferred != model.INDIFFERENT:
                    key = (-1 if prof.preferred == model.LEFT else 1, prof.participation)
                    counts[key] = counts.get(key, 0) + 1
            expected = [(side, p, m) for (side, p), m in sorted(counts.items())]
            assert _groups(e, beta) == expected

    def test_groups_match_the_row_wise_unique(self, rng):
        # Repeated sites make groups of several voters on both sides.
        for _ in range(300):
            n_sites = int(rng.integers(1, 8))
            sites = rng.choice([-0.5, 0.0, 0.5, 1.0, 1.5], n_sites)
            sites = np.where(rng.random(n_sites) < 0.5, sites, rng.uniform(-1, 2, n_sites))
            e = LineElection(np.repeat(sites, rng.integers(1, 5, size=n_sites)))
            beta = float(rng.choice([0.0, 1.0, rng.uniform(0.05, 1.0)]))
            assert _groups(e, beta) == reference_groups(e, beta)

    def test_single_far_voter_hits_exact_value(self):
        est = simulate(LineElection([1.5]), 1.0, McConfig(samples=200_000, seed=7))
        assert abs(est.p_left_hat - 0.25) <= est.half_width_p
        assert abs(est.expected_distortion_hat - 1.5) <= est.half_width_d

    def test_matches_exact_engine_within_interval(self):
        e = LineElection([-0.4, 0.1, 0.45, 0.7, 1.2, 2.0])
        beta = 0.6
        exact_report = exact.expected_distortion(e, beta)
        est = simulate(e, beta, McConfig(samples=40_000, seed=11, confidence=0.999))
        assert abs(est.p_left_hat - exact_report.win_prob_left) <= est.half_width_p
        assert (
            abs(est.expected_distortion_hat - exact_report.expected_distortion)
            <= est.half_width_d
        )

    def test_estimates_in_range(self):
        est = simulate(LineElection([0.2, 1.7]), 0.9, McConfig(samples=1000, seed=5))
        assert 0.0 <= est.p_left_hat <= 1.0
        assert est.expected_distortion_hat >= 1.0

    def test_rejects_infinite_distortion(self):
        with pytest.raises(ValueError):
            simulate(LineElection([0.0, 0.0]), 1.0, McConfig(samples=10, seed=1))

    def test_unanimous_left(self):
        # The voter at 0 always votes and nobody prefers the right candidate.
        e = LineElection([-0.5, 0.0, 0.1])
        est = simulate(e, 1.0, McConfig(samples=2000, seed=0))
        assert est.p_left_hat == 1.0
        assert est.expected_distortion_hat == 1.0

    def test_all_indifferent_is_a_coin_flip(self):
        est = simulate(LineElection([0.5, 0.5]), 1.0, McConfig(samples=2000, seed=0))
        assert 0.0 < est.p_left_hat < 1.0
        assert abs(est.p_left_hat - 0.5) <= est.half_width_p

    def test_single_deterministic_right_voter(self):
        est = simulate(LineElection([0.51]), 0.0, McConfig(samples=2000, seed=0))
        assert est.p_left_hat == 0.0

    def test_coverage_sane(self):
        # Smoke-sized version of the coverage guarantee; the acceptance suite
        # runs the full 100-seed check.
        e = LineElection([-0.3, 0.2, 0.6, 1.1, 1.8])
        beta = 0.8
        p_exact = exact.win_probabilities(e, beta).p_left
        hits = 0
        for seed in range(20):
            est = simulate(e, beta, McConfig(samples=400, seed=seed, confidence=0.9))
            if abs(est.p_left_hat - p_exact) <= est.half_width_p:
                hits += 1
        assert hits >= 17
