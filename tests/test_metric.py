import itertools
import math
import pickle
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from votedist import exact, model
from votedist.exact import expected_distortion
from votedist.metric import (
    MetricElection,
    distance_ratio,
    reduce_to_line,
    swap_labels,
)
from votedist.verification import random_beta, random_euclidean_election


class TestValidation:
    def test_triangle_violation_rejected(self):
        with pytest.raises(ValueError):
            MetricElection([(0.2, 0.3)])

    def test_negative_distance_rejected(self):
        with pytest.raises(ValueError):
            MetricElection([(-0.1, 1.5)])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            MetricElection([])

    def test_boundary_pair_accepted(self):
        MetricElection([(0.25, 0.75), (0.0, 1.0), (1.0, 0.0)])


class TestDistanceRatio:
    @pytest.mark.parametrize("pair,expected", [((1, 1), 1.0), ((0, 1), 0.0), ((3, 1), 3.0)])
    def test_values(self, pair, expected):
        assert distance_ratio(pair) == expected

    def test_at_right_candidate(self):
        assert distance_ratio((1.0, 0.0)) == math.inf

    def test_double_zero_undefined(self):
        with pytest.raises(ValueError):
            distance_ratio((0.0, 0.0))


class TestMetricReport:
    def test_unanimous_at_left(self):
        report = expected_distortion(MetricElection([(0.0, 1.0)] * 4), 1.0)
        assert report.dist_left == 1.0
        assert report.win_prob_left == 1.0
        assert report.expected_distortion == 1.0

    def test_single_equidistant_voter(self):
        report = expected_distortion(MetricElection([(1.0, 1.0)]), 1.0)
        assert report.win_prob_left == pytest.approx(0.5)
        assert report.expected_distortion == pytest.approx(1.0)
        assert report.expected_winner == model.TIE

    def test_matches_direct_geometry(self, rng):
        # Distances computed from actual plane coordinates feed both the
        # report and a by-hand evaluation over all 2**6 turnout outcomes.
        pts = rng.uniform(-1.0, 2.0, size=(6, 2))
        pairs = [(math.hypot(x, y), math.hypot(x - 1.0, y)) for x, y in pts]
        m = MetricElection(pairs)
        report = expected_distortion(m, 0.8)
        assert report.sc_left == pytest.approx(sum(p[0] for p in pairs), abs=1e-12)
        assert report.sc_right == pytest.approx(sum(p[1] for p in pairs), abs=1e-12)
        p = [
            model.participation_probability(min(pair), max(pair), 0.8) for pair in pairs
        ]
        lean = [1 if d_left < d_right else -1 for d_left, d_right in pairs]
        p_left = 0.0
        for voted in itertools.product((False, True), repeat=len(pairs)):
            prob = math.prod(q if v else 1.0 - q for q, v in zip(p, voted))
            lead = sum(s for s, v in zip(lean, voted) if v)
            p_left += prob * (1.0 if lead > 0 else 0.5 if lead == 0 else 0.0)
        assert report.win_prob_left == pytest.approx(p_left, abs=1e-12)


class TestReduceToLine:
    def test_equidistant_voter_goes_to_midpoint(self):
        red = reduce_to_line(MetricElection([(1.0, 1.0), (0.4, 1.1)]))
        assert red.election.positions[0] == pytest.approx(0.5)

    def test_voter_at_left_stays_at_left(self):
        m = MetricElection([(0.0, 1.0), (1.3, 0.3), (1.2, 0.45)])
        sc_left, sc_right = model.social_costs(m)
        assert sc_right < sc_left
        red = reduce_to_line(m)
        assert not red.swapped
        assert red.election.positions[0] == 0.0

    def test_far_ratio_crosses_to_d(self):
        # Ratio 3 exceeds the distortion bar, so the voter lands at 3/2 with
        # its participation intact.
        m = MetricElection([(3.0, 1.0), (0.0, 1.0), (0.0, 1.0), (0.1, 1.05)])
        sc_left, sc_right = model.social_costs(m)
        assert sc_left / sc_right < 3.0 and sc_left < sc_right  # swap will fire
        red = reduce_to_line(m)
        assert red.swapped
        # After the swap the voter's pair is (1, 3): ratio 1/3, position 1/4.
        assert red.election.positions[0] == pytest.approx(0.25)

    def test_voter_at_right_candidate_maps_to_one(self):
        m = MetricElection([(1.0, 0.0), (0.3, 0.8), (0.9, 0.2)])
        red = reduce_to_line(m)
        assert not red.swapped
        assert red.election.positions[0] == 1.0

    def test_swap_reported_when_left_optimal(self):
        m = MetricElection([(0.1, 0.9), (0.2, 1.4)])
        red = reduce_to_line(m)
        assert red.swapped

    def test_preserves_profiles_and_win_probabilities(self, rng):
        for _ in range(60):
            beta = random_beta(rng)
            m = random_euclidean_election(rng)
            red = reduce_to_line(m)
            working = swap_labels(m) if red.swapped else m
            side, p = model.voter_arrays(*working.distances(), beta)
            line_side, line_p = model.voter_arrays(*red.election.distances(), beta)
            np.testing.assert_array_equal(line_side, side)
            np.testing.assert_allclose(line_p, p, rtol=0.0, atol=1e-12)
            win_m = exact.win_probabilities(working, beta)
            win_l = exact.win_probabilities(red.election, beta)
            assert win_l.p_left == pytest.approx(win_m.p_left, abs=1e-12)

    def test_distortion_never_shrinks(self, rng):
        for _ in range(60):
            beta = random_beta(rng)
            m = random_euclidean_election(rng)
            red = reduce_to_line(m)
            working = swap_labels(m) if red.swapped else m
            report_m = expected_distortion(working, beta)
            report_l = exact.expected_distortion(red.election, beta)
            assert report_l.dist_left >= report_m.dist_left - 1e-9
            assert (
                report_l.expected_distortion
                >= report_m.expected_distortion - 1e-9
            )


@dataclass(frozen=True)
class FrozenPairs:
    """What MetricElection was: a frozen dataclass over a tuple of pairs."""

    pairs: tuple


valid_pairs = st.lists(
    st.tuples(st.floats(0.0, 1e6), st.floats(0.0, 1e6)).filter(
        lambda pair: pair[0] + pair[1] >= 1.0
    ),
    min_size=1,
    max_size=12,
)


def reference_reduction(m, beta):
    """The per-voter construction, one distance_ratio call per pair."""
    sc_left, sc_right = model.social_costs(m)
    swapped = sc_left < sc_right
    pairs = [(b, a) for a, b in m.pairs] if swapped else list(m.pairs)
    if swapped:
        sc_left, sc_right = sc_right, sc_left
    dist_left = math.inf if sc_right == 0.0 else sc_left / sc_right
    positions = []
    for pair in pairs:
        ratio = distance_ratio(pair)
        if math.isinf(ratio):
            positions.append(1.0)
        elif ratio <= dist_left:
            positions.append(ratio / (ratio + 1.0))
        else:
            positions.append(ratio / (ratio - 1.0))
    return tuple(positions), swapped


class TestArrayStorage:
    def test_arrays_are_read_only(self):
        m = MetricElection([(0.5, 0.5), (3.0, 2.0)])
        assert m.array.shape == (2, 2)
        with pytest.raises(ValueError):
            m.array[0, 0] = 1.0
        for d in m.distances():
            with pytest.raises(ValueError):
                d[0] = 1.0
        with pytest.raises(ValueError):
            swap_labels(m).array[0, 0] = 1.0

    def test_pickles_stay_read_only(self):
        m = MetricElection([(0.5, 0.5), (3.0, 2.0)])
        twin = pickle.loads(pickle.dumps(m))
        assert twin == m and not twin.array.flags.writeable

    def test_distances_are_computed_once(self):
        m = MetricElection([(0.5, 0.5), (3.0, 2.0)])
        first, again = m.distances(), m.distances()
        assert first[0] is again[0] and first[1] is again[1]
        np.testing.assert_array_equal(first[1], [0.5, 2.0])

    def test_pairs_are_built_on_first_access(self):
        m = MetricElection(np.array([[1, 2], [0.5, 0.5]]))
        assert "pairs" not in vars(m)
        assert m.pairs == ((1.0, 2.0), (0.5, 0.5))
        assert all(type(d) is float for pair in m.pairs for d in pair)

    @pytest.mark.parametrize(
        "pairs,message",
        [
            ([(1, 1), (0.2, 0.3), (-1, 5), (math.nan, 1)], "voter 1 violates the triangle"),
            ([(1, 1), (-0.1, 0.3), (0.2, 0.3)], "voter 1 has negative distances"),
            ([(1, 1), (math.inf, -1.0)], "voter 1 has non-finite distances"),
            ([(1, 1), (1, 2, 3)], None),
        ],
    )
    def test_first_bad_voter_is_named(self, pairs, message):
        with pytest.raises(ValueError, match=message):
            MetricElection(pairs)

    @given(valid_pairs, valid_pairs)
    def test_value_semantics_are_those_of_the_dataclass(self, a, b):
        ma, mb = MetricElection(a), MetricElection(b)
        ra, rb = FrozenPairs(tuple(a)), FrozenPairs(tuple(b))
        assert (ma == mb) == (ra == rb)
        assert hash(ma) == hash(ra)
        assert repr(ma) == repr(ra).replace("FrozenPairs", "MetricElection")
        assert ma == MetricElection(np.array(a)) == MetricElection(iter(a))

    @given(valid_pairs, st.floats(0.0, 1.0))
    def test_reduction_matches_the_per_voter_construction(self, pairs, beta):
        m = MetricElection(pairs)
        red = reduce_to_line(m)
        assert (red.election.positions, red.swapped) == reference_reduction(m, beta)

    def test_reduction_of_planar_elections_is_bit_exact(self, rng):
        for _ in range(50):
            m = random_euclidean_election(rng, max_voters=40)
            red = reduce_to_line(m)
            assert (red.election.positions, red.swapped) == reference_reduction(m, 1.0)
        at_right = MetricElection([(1.0, 0.0), (0.2, 0.9), (1.5, 0.6)])
        assert reduce_to_line(at_right).election.positions[0] == 1.0

    @given(valid_pairs)
    def test_swap_labels_swaps_every_pair(self, pairs):
        assert swap_labels(MetricElection(pairs)).pairs == tuple((b, a) for a, b in pairs)
