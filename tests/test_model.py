import copy
import dataclasses
import inspect
import math
import pickle
import re
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from votedist import exact, model
from votedist.metric import MetricElection
from votedist.model import (
    INDIFFERENT,
    LEFT,
    RIGHT,
    TIE,
    LineElection,
    distortion_pair,
    expected_votes,
    expected_winner,
    mirror,
    participation_probability,
    profile,
    region_of,
    social_costs,
    voter_arrays,
    winner_distortion,
)

from conftest import hexed_lists, two_block_election

finite_positions = st.floats(
    min_value=-50, max_value=50, allow_nan=False, allow_infinity=False
)
betas = st.floats(min_value=0.0, max_value=1.0)
edge_betas = st.one_of(st.sampled_from([0.0, 1.0]), betas)
special = st.sampled_from([0.0, 0.5, 1.0])
# Past 2**53 both line distances round to the same float (see voter_arrays).
array_positions = st.lists(
    st.one_of(special, st.floats(min_value=-1e6, max_value=1e6)), min_size=1, max_size=20
)
distance = st.one_of(special, st.floats(min_value=0.0, max_value=1e6))
distance_pairs = st.lists(
    st.tuples(distance, distance).filter(lambda pair: pair != (0.0, 0.0)),
    min_size=1,
    max_size=20,
)
SIDES = {LEFT: -1, INDIFFERENT: 0, RIGHT: 1}


def assert_matches_reference(side, p, reference, beta):
    """Sides exactly; participation bit-equal at beta 0 and 1, else within 1 ulp.

    numpy's ``**`` and Python's ``pow`` may round apart by one ulp.
    """
    assert side.tolist() == [s for s, _ in reference]
    for got, (_, want) in zip(p.tolist(), reference):
        if beta in (0.0, 1.0):
            assert got == want
        else:
            assert abs(got - want) <= math.ulp(want)


class TestParticipationProbability:
    @pytest.mark.parametrize(
        "d_near,d_far,beta,expected",
        [
            (0.0, 1.0, 1.0, 1.0),
            (0.5, 0.5, 1.0, 0.0),
            (0.5, 1.5, 1.0, 0.5),
            (0.5, 0.5, 0.0, 0.0),
            (0.2, 0.9, 0.0, 1.0),
        ],
    )
    def test_values(self, d_near, d_far, beta, expected):
        assert participation_probability(d_near, d_far, beta) == pytest.approx(
            expected, abs=1e-15
        )

    def test_rejects_negative_distance(self):
        for d_near, d_far in ((-0.1, 1.0), (0.1, -1.0), (0.2, math.nan), (0.2, math.inf)):
            with pytest.raises(ValueError, match=r"^d_(near|far) must lie in \[0, inf\), got "):
                participation_probability(d_near, d_far, 1.0)

    def test_rejects_double_zero(self):
        with pytest.raises(ValueError):
            participation_probability(0.0, 0.0, 1.0)

    def test_rejects_bad_beta(self):
        for bad in (-0.01, 1.01):
            with pytest.raises(ValueError):
                participation_probability(0.1, 0.2, bad)

    @given(
        st.floats(min_value=0, max_value=100),
        st.floats(min_value=0, max_value=100),
        betas,
    )
    def test_bounded(self, a, b, beta):
        if a == 0 and b == 0:
            return
        p = participation_probability(min(a, b), max(a, b), beta)
        assert 0.0 <= p <= 1.0

    @given(
        st.floats(min_value=0.01, max_value=10),
        st.floats(min_value=0, max_value=10),
        st.floats(min_value=0, max_value=10),
        betas,
    )
    def test_indifference_monotonicity(self, d_near, bump1, bump2, beta):
        # Fixed d_near: a farther alternative can only raise participation.
        lo, hi = sorted([bump1, bump2])
        p_lo = participation_probability(d_near, d_near + lo, beta)
        p_hi = participation_probability(d_near, d_near + hi, beta)
        assert p_hi >= p_lo - 1e-12

    @given(
        st.floats(min_value=0.01, max_value=10),
        st.floats(min_value=0.01, max_value=10),
        st.floats(min_value=0, max_value=10),
        betas,
    )
    def test_alienation_monotonicity(self, gap, near1, near2, beta):
        # Fixed distance gap: moving away from both candidates cannot raise
        # participation.
        lo, hi = sorted([near1, near2])
        p_close = participation_probability(lo, lo + gap, beta)
        p_far = participation_probability(hi, hi + gap, beta)
        assert p_far <= p_close + 1e-12


class TestProfile:
    def test_left_voter(self):
        prof = profile(-1.0, 1.0)
        assert prof.preferred == LEFT
        assert prof.participation == pytest.approx(1 / 3, abs=1e-15)

    @pytest.mark.parametrize("beta", [0.0, 0.3, 1.0])
    def test_midpoint_always_abstains(self, beta):
        assert profile(0.5, beta) == model.VoterProfile(INDIFFERENT, 0.0)

    def test_full_participation_at_beta_zero(self):
        assert profile(0.3, 0.0) == model.VoterProfile(LEFT, 1.0)

    @given(finite_positions, betas)
    def test_matches_distance_form(self, x, beta):
        if x == 0.5:
            return
        d_near = min(abs(x), abs(x - 1.0))
        d_far = max(abs(x), abs(x - 1.0))
        assert profile(x, beta).participation == participation_probability(
            d_near, d_far, beta
        )


class TestVoterArrays:
    @given(array_positions, edge_betas)
    def test_line_matches_profile(self, positions, beta):
        side, p = voter_arrays(*LineElection(positions).distances(), beta)
        reference = [profile(x, beta) for x in positions]
        assert_matches_reference(
            side, p, [(SIDES[r.preferred], r.participation) for r in reference], beta
        )

    @given(distance_pairs, edge_betas)
    def test_pairs_match_participation_probability(self, pairs, beta):
        d_left, d_right = np.array(pairs).T
        side, p = voter_arrays(d_left, d_right, beta)
        reference = [
            (
                (a > b) - (a < b),
                participation_probability(min(a, b), max(a, b), beta),
            )
            for a, b in pairs
        ]
        assert_matches_reference(side, p, reference, beta)

    @pytest.mark.parametrize("beta", [0.0, 0.4, 1.0])
    def test_indifferent_never_votes(self, beta):
        side, p = voter_arrays([0.5, 2.0], [0.5, 2.0], beta)
        assert side.tolist() == [0, 0] and p.tolist() == [0.0, 0.0]

    def test_far_line_voter_has_no_turnout(self):
        side, p = voter_arrays(*LineElection([-1e20]).distances(), 0.0)
        assert (side[0], p[0]) == (0, 0.0)
        assert profile(-1e20, 0.0).participation == 0.0

    @pytest.mark.parametrize(
        "d_left,d_right,beta",
        [
            ([-0.1], [1.0], 1.0),
            ([0.0], [0.0], 1.0),
            ([np.nan], [1.0], 1.0),
            ([0.2], [0.9], 1.5),
        ],
    )
    def test_rejects_bad_input(self, d_left, d_right, beta):
        message = "distances must be nonnegative and not both zero" if beta == 1.0 else "beta must"
        with pytest.raises(ValueError, match=f"^{message}"):
            voter_arrays(d_left, d_right, beta)

    def test_empty_input_passes(self):
        side, p = voter_arrays([], [], 0.5)
        assert (side.shape, p.shape) == ((0,), (0,))


class TestOrderIndependence:
    def test_mirrored_halves_tie_in_any_order(self):
        # Each voter's mirror image 1 - x, added in shuffled order: an exact
        # tie, which order-dependent summation misses by more than the
        # tie tolerance.
        rng = np.random.default_rng(5)
        x = rng.uniform(-1.0, 0.49, size=100_000)
        e = LineElection(np.concatenate([x, rng.permutation(1.0 - x)]))
        assert expected_winner(e, 1.0) == TIE

    @given(st.lists(finite_positions, min_size=1, max_size=30), betas, st.randoms())
    def test_shuffling_keeps_sums_bit_identical(self, positions, beta, random):
        shuffled = list(positions)
        random.shuffle(shuffled)
        e, s = LineElection(positions), LineElection(shuffled)
        assert expected_votes(s, beta) == expected_votes(e, beta)
        assert social_costs(s) == social_costs(e)


class TestTieTolerance:
    def test_tie_in_real_arithmetic_reads_tie_at_scale(self):
        # 16,384 left voters at 0 vote surely.  16,661 right voters at
        # x = 1 + 277/32768 vote with p = 16384/16661 each (both distances
        # and their sum and difference are exact floats): 16,384 expected
        # votes a side in real arithmetic.  The rounded p sum to one ulp
        # less, 1.8e-12, which the absolute tolerance alone calls a win.
        e = LineElection([0.0] * 16_384 + [1.0 + 277 / 32_768] * 16_661)
        votes_left, votes_right = expected_votes(e, 1.0)
        assert votes_left == 16_384.0
        assert votes_left - votes_right > model.WINNER_TIE_TOL
        assert expected_winner(e, 1.0) == TIE
        assert expected_winner(mirror(e), 1.0) == TIE

    def test_a_real_margin_still_decides(self):
        # One more right voter: a lead of almost a whole vote.
        e = LineElection([0.0] * 16_384 + [1.0 + 277 / 32_768] * 16_662)
        assert expected_winner(e, 1.0) == RIGHT
        assert expected_winner(mirror(e), 1.0) == LEFT

    def test_tolerance_scales_with_the_total(self):
        assert model._winner(1e6, 1e6 + 1e-9) == TIE
        assert model._winner(1e6, 1e6 + 1e-8) == RIGHT
        assert model._winner(1.0, 1.0 + 0.5e-12) == TIE
        assert model._winner(1.0, 1.0 + 1e-11) == RIGHT


class TestRegions:
    @pytest.mark.parametrize(
        "x,region",
        [(-0.1, "A"), (0.0, "B"), (0.49, "B"), (0.5, "C"), (0.99, "C"), (1.0, "D"), (7.0, "D"),
         (-0.0, "B"), (math.nextafter(0.5, 0.0), "B"), (math.nextafter(0.5, 1.0), "C"),
         (math.nextafter(1.0, 0.0), "C")],
    )
    def test_classification(self, x, region):
        assert region_of(x) == region

    @pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, x):
        with pytest.raises(ValueError, match=r"^x must lie in \(-inf, inf\), got "):
            region_of(x)
        with pytest.raises(ValueError, match=r"^x must lie in \(-inf, inf\), got "):
            profile(x, 1.0)


class TestSocialCosts:
    def test_symmetric_pair(self):
        assert social_costs(LineElection([0.0, 1.0])) == (1.0, 1.0)

    def test_two_block(self):
        sc_left, sc_right = social_costs(two_block_election(0.01))
        assert sc_left == pytest.approx(26.01, abs=1e-9)
        assert sc_right == pytest.approx(73.99, abs=1e-9)

    def test_single_voter(self):
        assert social_costs(LineElection([1.5])) == (1.5, 0.5)

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @pytest.mark.parametrize(
        "make, voters",
        [(LineElection, [1e308, 1e308]), (MetricElection, [(1e308, 1e308)] * 2)],
        ids=["line", "metric"],
    )
    def test_sums_beyond_the_float_range_are_rejected(self, make, voters):
        with pytest.raises(ValueError, match="social costs exceed the float range"):
            social_costs(make(voters))


class TestExpectedVotesAndWinner:
    def test_both_at_left(self):
        assert expected_votes(LineElection([0.0, 0.0]), 1.0) == (2.0, 0.0)

    def test_single_far_voter(self):
        left, right = expected_votes(LineElection([1.5]), 1.0)
        assert left == 0.0
        assert right == pytest.approx(0.5, abs=1e-15)

    def test_mirror_pair(self):
        left, right = expected_votes(LineElection([0.25, 0.75]), 1.0)
        assert left == pytest.approx(right, abs=1e-15)

    def test_two_block_full_participation(self):
        assert expected_winner(two_block_election(0.01), 0.0) == RIGHT

    def test_tie_surfaced(self):
        assert expected_winner(LineElection([0.25, 0.75]), 1.0) == TIE

    def test_left_wins(self):
        assert expected_winner(LineElection([0.0, 1.5]), 1.0) == LEFT

    def test_winner_distortion_requires_winner(self):
        with pytest.raises(ValueError):
            winner_distortion(LineElection([0.25, 0.75]), 1.0)

    def test_candidate_distortion_names_a_candidate(self):
        with pytest.raises(ValueError, match="^candidate must be 'left' or 'right', got 'tie'$"):
            model._candidate_distortion(LineElection([0.25, 1.5]), TIE)


class TestDistortionPair:
    def test_both_zero(self):
        assert distortion_pair(0.0, 0.0) == (LEFT, 1.0, 1.0)

    def test_zero_optimum(self):
        assert distortion_pair(0.0, 5.0) == (LEFT, 1.0, math.inf)
        assert distortion_pair(5.0, 0.0) == (RIGHT, math.inf, 1.0)

    @pytest.mark.parametrize(
        "costs", [(-1.0, 2.0), (2.0, -0.0001), (math.nan, 1.0), (math.inf, math.inf)]
    )
    def test_negative_cost_rejected(self, costs):
        with pytest.raises(ValueError, match=r"^sc_(left|right) must lie in \[0, inf\), got "):
            distortion_pair(*costs)

    @given(
        st.floats(min_value=0.001, max_value=100),
        st.floats(min_value=0.001, max_value=100),
    )
    def test_optimal_has_distortion_one(self, a, b):
        _, dist_left, dist_right = distortion_pair(a, b)
        assert min(dist_left, dist_right) == 1.0
        assert max(dist_left, dist_right) >= 1.0


class TestDistortionReport:
    def test_single_voter_report(self):
        report = exact.expected_distortion(LineElection([1.5]), 1.0)
        assert (report.win_prob_left, report.win_prob_right) == (0.25, 0.75)
        assert report.expected_distortion == pytest.approx(1.5, abs=1e-12)
        assert report.optimal == RIGHT
        assert report.dist_left == pytest.approx(3.0)

    def test_symmetric_election(self):
        report = exact.expected_distortion(LineElection([0.0, 1.0]), 1.0)
        assert (report.win_prob_left, report.win_prob_right) == (0.5, 0.5)
        assert report.expected_distortion == 1.0

    def test_two_block_deterministic_loss(self):
        e = two_block_election(0.01)
        report = exact.expected_distortion(e, 0.0)
        assert (report.win_prob_left, report.win_prob_right) == (0.0, 1.0)
        assert report.expected_distortion == pytest.approx(73.99 / 26.01, abs=1e-9)

    def test_rejects_unnormalized_probabilities(self):
        e = LineElection([1.5])
        measured = (*social_costs(e), *expected_votes(e, 1.0))
        for win_probs, message in (
            ((0.6, 0.6), r"win probabilities must sum to 1, got \(0.6, 0.6\)"),
            ((math.nan, 0.5), r"win_prob_left must lie in \[0, inf\], got nan"),
            ((0.5, math.nan), r"win_prob_right must lie in \[0, inf\], got nan"),
        ):
            with pytest.raises(ValueError, match=f"^{message}$"):
                model.DistortionReport(*measured, *win_probs)

    def test_takes_the_six_measured_values_and_derives_five(self):
        names = [f.name for f in dataclasses.fields(model.DistortionReport)]
        assert names == [
            "sc_left", "sc_right", "optimal", "dist_left", "dist_right",
            "expected_votes_left", "expected_votes_right", "expected_winner",
            "win_prob_left", "win_prob_right", "expected_distortion",
        ]
        assert list(inspect.signature(model.DistortionReport).parameters) == [
            "sc_left", "sc_right", "expected_votes_left", "expected_votes_right",
            "win_prob_left", "win_prob_right",
        ]
        report = model.DistortionReport(1.0, 3.0, 2.0, 1.0, 0.75, 0.25)
        assert (report.optimal, report.dist_left, report.dist_right) == (LEFT, 1.0, 3.0)
        assert (report.expected_winner, report.expected_distortion) == (LEFT, 1.5)

    def test_win_probability_above_one_is_reported(self):
        # The scalar PMF of this election sums to a hair above 1: the right
        # candidate's win probability reads 1 + 2**-52 (the exact value is
        # within 1e-18 of 1).  The report must build, so no range check of at
        # most 1 may reject it.
        e = LineElection([1.0009564974905343, 1.000951988904219, 1.0001579287884301,
                          1.0002630311704748, 1.0002451052101407, 1.0006241833177185])
        report = exact.expected_distortion(e, 1.0)
        assert report.win_prob_right == 1.0000000000000002
        assert report.expected_distortion == 1.0000000000000007

    def test_infinite_branch_with_zero_probability_ignored(self):
        # Every voter on the left candidate: the right branch is infinitely
        # bad but never wins.
        report = exact.expected_distortion(LineElection([0.0, 0.0]), 1.0)
        assert (report.win_prob_left, report.win_prob_right) == (1.0, 0.0)
        assert report.dist_right == math.inf
        assert report.expected_distortion == 1.0


class TestMirror:
    @given(st.lists(finite_positions, min_size=1, max_size=8), betas)
    def test_swaps_costs_votes_and_winner(self, positions, beta):
        e = LineElection(positions)
        m = mirror(e)
        sc = social_costs(e)
        assert social_costs(m) == pytest.approx((sc[1], sc[0]), rel=1e-12, abs=1e-12)
        ev = expected_votes(e, beta)
        vm = expected_votes(m, beta)
        assert vm[0] == pytest.approx(ev[1], rel=1e-9, abs=1e-12)
        assert vm[1] == pytest.approx(ev[0], rel=1e-9, abs=1e-12)

    def test_winner_swaps(self):
        e = LineElection([0.0, 1.5])
        assert expected_winner(e, 1.0) == LEFT
        assert expected_winner(mirror(e), 1.0) == RIGHT


class TestValidation:
    def test_empty_election_rejected(self):
        with pytest.raises(ValueError):
            LineElection([])

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            LineElection([0.2, math.nan])
        with pytest.raises(ValueError):
            LineElection([math.inf])


class TestReplace:
    @given(
        st.lists(finite_positions, min_size=1, max_size=8),
        st.dictionaries(st.integers(0, 7), finite_positions, max_size=4),
    )
    def test_equals_a_fresh_election(self, positions, moves):
        e = LineElection(positions)
        moves = {i: x for i, x in moves.items() if i < len(positions)}
        want = list(positions)
        for i, x in moves.items():
            want[i] = x
        moved = e.replace(moves)
        assert moved == LineElection(want)
        assert moved.positions == tuple(float(x) for x in want)
        assert e.positions == tuple(float(x) for x in positions)

    def test_moves_numpy_scalars_to_floats(self):
        moved = LineElection([0.1, 0.2]).replace({1: np.float64(0.7)})
        assert type(moved.positions[1]) is float

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_nonfinite_by_index(self, bad):
        e = LineElection([0.1, 0.2, 0.3])
        with pytest.raises(ValueError, match="voter 2 has non-finite position"):
            e.replace({0: 0.4, 2: bad})


    @pytest.mark.parametrize(
        "key, message",
        [
            (True, "voter must be an integer, got True"),
            (None, "voter must be an integer, got None"),
            (1.0, "voter must be an integer, got 1.0"),
            ("1", "voter must be an integer, got '1'"),
            (-1, "voter must be >= 0, got -1"),
            (3, "voter must be < 3, got 3"),
            (5, "voter must be < 3, got 5"),
        ],
    )
    def test_rejects_a_key_that_is_not_a_voter(self, key, message):
        # A list index True is voter 1 and an array index True is every voter.
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            LineElection([0.1, 0.2, 0.3]).replace({0: 0.4, key: 2.0})

    def test_numpy_integer_keys_name_voters(self):
        moved = LineElection([0.1, 0.2, 0.3]).replace({np.int64(1): 2.0, np.uint8(2): 0.5})
        assert moved.positions == (0.1, 2.0, 0.5)

    @pytest.mark.parametrize("v", [-0.0, 0.0, 0.5, 1.0, 2.0**53, -(2.0**53), 0.1])
    def test_carried_lists_are_a_fresh_elections(self, v):
        # A moved election keeps nothing its parent measured, and measures
        # itself as a fresh election of its positions does.
        e = LineElection([-1.5, 0.25, 0.5, 0.75, 3.0])
        kept = hexed_lists(e._distance_lists)
        for moves in ({0: v}, {1: v, 4: v}, dict.fromkeys(range(len(e)), v)):
            moved = e.replace(moves)
            assert list(vars(moved)) == ["array"]
            social_costs(moved)
            again = moved.replace({2: v})
            assert list(vars(again)) == ["array"]
            for election in (moved, again):
                fresh = LineElection(election.array.copy())
                assert hexed_lists(election._distance_lists) == hexed_lists(
                    fresh._distance_lists
                )
                assert hexed_lists([social_costs(election)]) == hexed_lists([social_costs(fresh)])
                for beta in (0.0, 1.0, 0.3):
                    sides = model._sides(election, beta)
                    assert hexed_lists(sides) == hexed_lists(model._sides(fresh, beta))
        assert hexed_lists(e._distance_lists) == kept


def two_pass_scalar_sides(d_left, d_right, beta):
    """``model._scalar_sides`` as it was, with a second pass that splits the
    voters by side, copied verbatim as the reference of the one-pass loop."""
    prefers_right, ratios = [], []
    for dl, dr in zip(d_left, d_right):
        total = dl + dr
        if not (dl >= 0.0 and dr >= 0.0 and total > 0.0):
            raise ValueError("distances must be nonnegative and not both zero")
        if dl != dr:
            prefers_right.append(dl > dr)
            ratios.append(abs(dl - dr) / total)
    if beta == 0.0:
        p = [1.0] * len(ratios)
    else:
        p = (np.array(ratios) ** beta).tolist()
    left = [q for q, r in zip(p, prefers_right) if not r]
    right = [q for q, r in zip(p, prefers_right) if r]
    return left, right


class TestScalarSides:
    """The one-pass list path gives the two-pass reference's floats."""

    @settings(deadline=None)
    # Metric pairs off the triangle inequality too: only the sides are read.
    @given(st.one_of(array_positions.map(LineElection),
                     distance_pairs.map(lambda d: MetricElection._trusted(np.array(d)))),
           edge_betas)
    @example(LineElection([0.5, -1.0, 0.5, 2.0, 0.25]), 0.0)
    @example(LineElection([0.5, -1.0, 0.5, 2.0, 0.25]), 1.0)
    @example(MetricElection([(1.0, 1.0), (0.2, 1.1), (3.0, 2.5), (0.5, 0.5)]), 0.6)
    def test_matches_the_two_pass_reference(self, e, beta):
        lists = e._distance_lists
        assert hexed_lists(model._scalar_sides(*lists, beta)) == hexed_lists(
            two_pass_scalar_sides(*lists, beta)
        )

    def test_random_lists_with_indifferent_voters(self):
        rng = np.random.default_rng(28)
        for _ in range(200):
            n = int(rng.integers(1, model.SCALAR_LIMIT + 1))
            d_left = rng.uniform(0.0, 3.0, n)
            d_right = np.where(rng.random(n) < 0.3, d_left, rng.uniform(0.0, 3.0, n))
            for beta in (0.0, 1.0, float(rng.uniform(0.0, 1.0))):
                args = d_left.tolist(), d_right.tolist(), beta
                want = two_pass_scalar_sides(*args)
                assert hexed_lists(model._scalar_sides(*args)) == hexed_lists(want)

    @pytest.mark.parametrize(
        "pair", [(-1.0, 2.0), (2.0, -1.0), (0.0, 0.0), (math.nan, 1.0), (1.0, math.nan)]
    )
    @pytest.mark.parametrize("beta", [0.0, 0.5, 1.0])
    def test_invalid_distance_raises_as_the_reference(self, pair, beta):
        d_left, d_right = [0.4, pair[0], 0.3], [0.8, pair[1], 0.3]
        for sides in (model._scalar_sides, two_pass_scalar_sides):
            with pytest.raises(ValueError, match="^distances must be nonnegative and not both"):
                sides(d_left, d_right, beta)

    @pytest.mark.parametrize(
        "e", [LineElection([-1.0, 0.25, 0.5, 3.0]), MetricElection([(0.5, 0.75), (2.0, 1.0)])]
    )
    def test_a_second_beta_reads_no_stale_sides(self, e):
        for beta in (0.3, 1.0, 0.3, 0.0, 0.0, 0.7, 1.0):
            fresh = type(e)(e.array.copy())
            assert hexed_lists(model._sides(e, beta)) == hexed_lists(model._sides(fresh, beta))
            assert vars(e)["_sides_at"][0] == beta


@dataclass(frozen=True)
class FrozenLine:
    """What LineElection was: a frozen dataclass over a tuple of positions."""

    positions: tuple


class TestArrayStorage:
    def test_arrays_are_read_only(self):
        e = LineElection([0.1, -0.2, 1.7])
        with pytest.raises(ValueError):
            e.array[0] = 0.5
        for d in e.distances():
            with pytest.raises(ValueError):
                d[0] = 0.0
        with pytest.raises(ValueError):
            e.replace({1: 0.3}).array[1] = 0.0

    def test_election_is_immutable(self):
        e = LineElection([0.1])
        with pytest.raises(AttributeError):
            e.array = np.array([0.2])
        with pytest.raises(AttributeError):
            del e.array

    def test_copies_and_pickles_stay_read_only(self):
        e = LineElection([0.1, -0.2])
        e.distances()
        for twin in (pickle.loads(pickle.dumps(e)), copy.deepcopy(e), copy.copy(e)):
            assert twin == e
            assert not twin.array.flags.writeable
            assert not twin.distances()[0].flags.writeable

    def test_input_is_copied(self):
        x = np.array([0.1, 0.2])
        e = LineElection(x)
        x[0] = 9.0
        assert e.positions == (0.1, 0.2)
        assert e.replace({0: 0.3}).positions == (0.3, 0.2) and e.positions == (0.1, 0.2)

    def test_distances_are_computed_once(self):
        e = LineElection([-1.0, 0.25, 3.0])
        first, again = e.distances(), e.distances()
        assert first[0] is again[0] and first[1] is again[1]
        np.testing.assert_array_equal(first[0], [1.0, 0.25, 3.0])
        np.testing.assert_array_equal(first[1], [2.0, 0.75, 2.0])

    def test_social_costs_are_computed_once(self):
        e = LineElection([-1.0, 0.25, 3.0])
        m = MetricElection([(0.5, 0.75), (2.0, 1.0)])
        for election, costs in ((e, (4.25, 4.75)), (m, (2.5, 1.75))):
            first, again = social_costs(election), social_costs(election)
            assert first is again
            assert first == costs

    def test_positions_are_built_on_first_access(self):
        e = LineElection([0.5, 2])
        assert "positions" not in vars(e)
        assert e.positions == (0.5, 2.0) and all(type(x) is float for x in e.positions)
        assert e.positions is e.positions

    def test_first_non_finite_voter_is_named(self):
        with pytest.raises(ValueError, match=r"^voter 1 has non-finite position inf$"):
            LineElection([0.1, math.inf, math.nan])
        with pytest.raises(ValueError, match="shape"):
            LineElection([[0.1, 0.2]])

    @given(array_positions, array_positions)
    def test_value_semantics_are_those_of_the_dataclass(self, a, b):
        ea, eb = LineElection(a), LineElection(b)
        ra, rb = FrozenLine(tuple(map(float, a))), FrozenLine(tuple(map(float, b)))
        assert (ea == eb) == (ra == rb)
        assert (ea != eb) == (ra != rb)
        assert hash(ea) == hash(ra)
        assert repr(ea) == repr(ra).replace("FrozenLine", "LineElection")
        assert ea == LineElection(np.array(a)) == LineElection(x for x in a)
        assert ea != tuple(a) and ea != ra

    def test_mirror_is_bit_exact(self):
        x = np.random.default_rng(3).uniform(-2.0, 3.0, 500)
        assert mirror(LineElection(x)).positions == tuple(1.0 - v for v in x.tolist())
