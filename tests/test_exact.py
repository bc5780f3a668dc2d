import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from votedist import exact, model
from votedist.exact import enumerate_oracle, expected_distortion, vote_pmf, win_probabilities
from votedist.metric import MetricElection
from votedist.model import LineElection, mirror
from votedist.verification import random_beta, random_election

probability_lists = st.lists(
    st.floats(min_value=0.0, max_value=1.0), min_size=0, max_size=12
)


class TestVotePMF:
    def test_fair_binomial(self):
        np.testing.assert_allclose(vote_pmf([0.5, 0.5]), [0.25, 0.5, 0.25], atol=1e-15)

    def test_empty_product(self):
        np.testing.assert_array_equal(vote_pmf([]), [1.0])

    def test_two_term_convolution(self):
        np.testing.assert_allclose(vote_pmf([1 / 3, 1.0]), [0.0, 2 / 3, 1 / 3], atol=1e-15)

    @pytest.mark.parametrize("bad", [-0.1, 1.1])
    def test_rejects_out_of_range(self, bad):
        with pytest.raises(ValueError):
            vote_pmf([0.5, bad])

    @given(probability_lists)
    def test_mass_sums_to_one(self, probs):
        pmf = vote_pmf(probs)
        assert len(pmf) == len(probs) + 1
        assert np.all(pmf >= 0.0) and np.all(pmf <= 1.0)
        assert abs(pmf.sum() - 1.0) <= 1e-12

    @given(probability_lists)
    def test_mean_matches_expected_votes(self, probs):
        pmf = vote_pmf(probs)
        mean = float(np.dot(np.arange(len(pmf)), pmf))
        assert mean == pytest.approx(sum(probs), abs=1e-12)


class TestWinProbabilities:
    def test_mirror_pair_is_even(self):
        win = win_probabilities(LineElection([0.25, 0.75]), 1.0)
        assert win.p_left == pytest.approx(0.5, abs=1e-15)

    def test_single_far_voter(self):
        win = win_probabilities(LineElection([1.5]), 1.0)
        assert win == pytest.approx((0.25, 0.75), abs=1e-15)

    def test_sure_left_versus_coinflip_right(self):
        win = win_probabilities(LineElection([0.0, 1.5]), 1.0)
        assert win == pytest.approx((0.75, 0.25), abs=1e-15)

    def test_probabilities_sum_to_one(self, rng):
        for _ in range(50):
            e = random_election(rng)
            win = win_probabilities(e, random_beta(rng))
            assert abs(win.p_left + win.p_right - 1.0) <= 1e-12

    def test_mirror_swaps_exactly(self):
        # Dyadic positions reflect without rounding, so the swap is bitwise.
        e = LineElection([-0.75, 0.25, 0.375, 1.5, 2.0])
        for beta in (0.0, 0.5, 1.0):
            win = win_probabilities(e, beta)
            win_m = win_probabilities(mirror(e), beta)
            assert win_m.p_left == win.p_right
            assert win_m.p_right == win.p_left

    def test_extra_voter_at_zero_helps_left(self, rng):
        for _ in range(30):
            e = random_election(rng, max_voters=8)
            beta = random_beta(rng)
            boosted = LineElection(e.positions + (0.0,))
            assert (
                win_probabilities(boosted, beta).p_left
                >= win_probabilities(e, beta).p_left - 1e-12
            )


class TestExpectedDistortion:
    def test_single_far_voter(self):
        report = expected_distortion(LineElection([1.5]), 1.0)
        assert report.expected_distortion == pytest.approx(1.5, abs=1e-15)

    def test_unanimous_left_cluster(self):
        e = LineElection([0.2, 0.2, 0.2])
        report = expected_distortion(e, 1.0)
        _, dbar = enumerate_oracle(e, 1.0)
        assert report.expected_distortion == pytest.approx(dbar, abs=1e-12)
        assert report.expected_distortion >= 1.0

    def test_always_at_least_one(self, rng):
        for _ in range(50):
            e = random_election(rng)
            report = expected_distortion(e, random_beta(rng))
            assert report.expected_distortion >= 1.0 - 1e-15

    def test_never_calls_the_scalar_profile(self, monkeypatch):
        # The scalar profile is only a reference; both election kinds must be
        # evaluated through the voter arrays.
        line = LineElection([-0.4, 0.1, 0.5, 0.7, 1.5])
        metric = MetricElection([(0.4, 0.8), (1.5, 0.6), (1.0, 1.0)])
        expected = [expected_distortion(e, 0.6) for e in (line, metric)]

        def forbidden(x, beta):
            raise AssertionError("model.profile called")

        monkeypatch.setattr(model, "profile", forbidden)
        assert [expected_distortion(e, 0.6) for e in (line, metric)] == expected


class TestEnumerateOracle:
    def test_single_far_voter(self):
        win, dbar = enumerate_oracle(LineElection([1.5]), 1.0)
        assert win == pytest.approx((0.25, 0.75), abs=1e-15)
        assert dbar == pytest.approx(1.5, abs=1e-15)

    def test_mirror_pair(self):
        win, _ = enumerate_oracle(LineElection([0.25, 0.75]), 1.0)
        assert win.p_left == pytest.approx(0.5, abs=1e-15)

    def test_deterministic_majority(self):
        win, dbar = enumerate_oracle(LineElection([0.0, 0.51, 0.51]), 0.0)
        assert win == (0.0, 1.0)
        assert dbar == pytest.approx(1.98 / 1.02, abs=1e-12)

    def test_size_cap(self):
        with pytest.raises(ValueError):
            enumerate_oracle(LineElection([0.1] * 21), 1.0)

    def test_agrees_with_pmf_engine(self, rng):
        for _ in range(60):
            e = random_election(rng, max_voters=10)
            beta = random_beta(rng)
            win = win_probabilities(e, beta)
            report = expected_distortion(e, beta)
            oracle_win, oracle_dbar = enumerate_oracle(e, beta)
            assert win.p_left == pytest.approx(oracle_win.p_left, abs=1e-12)
            assert report.expected_distortion == pytest.approx(oracle_dbar, abs=1e-12)
