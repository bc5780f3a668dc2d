import contextlib
import dataclasses
import math
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import votedist
from votedist import exact, model
from votedist.exact import enumerate_oracle, expected_distortion, vote_pmf, win_probabilities
from votedist.metric import MetricElection
from votedist.model import LineElection, mirror
from votedist.verification import random_beta, random_election

probability_lists = st.lists(
    st.floats(min_value=0.0, max_value=1.0), min_size=0, max_size=12
)
# Long enough to reach the product tree, with sure and indifferent voters.
long_probability_lists = st.lists(
    st.one_of(st.sampled_from([0.0, 0.5, 1.0]), st.floats(min_value=0.0, max_value=1.0)),
    min_size=0,
    max_size=300,
)

EPS = np.finfo(float).eps

#: Engine settings under test: as shipped, and the array path and the
#: product tree for every size.
ENGINES = {
    "default": {},
    "tree": {"SCALAR_LIMIT": 0},
}


@contextlib.contextmanager
def engine(name):
    saved = {k: getattr(model, k) for k in ENGINES[name]}
    for k, v in ENGINES[name].items():
        setattr(model, k, v)
    try:
        yield
    finally:
        for k, v in saved.items():
            setattr(model, k, v)


def reference_pmf(probabilities):
    """The sequential product ``vote_pmf`` used before the product tree."""
    pmf = np.array([1.0])
    for p in probabilities:
        p = float(p)
        nxt = np.zeros(len(pmf) + 1)
        nxt[:-1] = pmf * (1.0 - p)
        nxt[1:] += pmf * p
        pmf = nxt
    return pmf


def probability_mix(rng, n):
    """Probabilities of several shapes: spread, tiny, near one, with sure voters."""
    kind = rng.integers(4)
    if kind == 0:
        return rng.uniform(0.0, 1.0, n)
    if kind == 1:
        return rng.uniform(0.0, 1e-3, n)
    if kind == 2:
        return 1.0 - rng.uniform(0.0, 1e-3, n)
    return rng.choice([0.0, 1.0, 0.2, 0.7, 0.5], n)


class TestVotePMF:
    def test_fair_binomial(self):
        np.testing.assert_allclose(vote_pmf([0.5, 0.5]), [0.25, 0.5, 0.25], atol=1e-15)

    def test_empty_product(self):
        np.testing.assert_array_equal(vote_pmf([]), [1.0])

    def test_two_term_convolution(self):
        np.testing.assert_allclose(vote_pmf([1 / 3, 1.0]), [0.0, 2 / 3, 1 / 3], atol=1e-15)

    @pytest.mark.parametrize("bad", [-0.1, 1.1, float("nan")])
    def test_rejects_out_of_range(self, bad):
        # Below and above the scalar limit; the error names the voter.
        for n in (2, 100):
            probs = [0.5] * n
            probs[n // 2] = bad
            with pytest.raises(ValueError, match=f"probability {n // 2} out of range"):
                vote_pmf(probs)

    def test_small_pmf_is_the_scalar_product_of_the_sorted_voters(self, rng):
        # Sure voters shift the PMF outside the product; factors of p = 0 and
        # p = 1 multiply exactly, so it reads the same bits either way.
        special = [0.0, 1.0, 5e-324, 2.2e-308, 1.0 - EPS / 2]
        for _ in range(1000):
            n = int(rng.integers(0, model.SCALAR_LIMIT + 1))
            probs = np.where(rng.random(n) < 0.4, rng.choice(special, n), rng.random(n))
            expected = exact._scalar_product(sorted(probs.tolist()))
            assert vote_pmf(probs).tolist() == expected

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


class TestProductTree:
    @pytest.mark.parametrize("name", ENGINES)
    def test_agrees_with_oracle(self, name, rng):
        elections = [random_election(rng, max_voters=14) for _ in range(40)]
        elections.append(LineElection(rng.uniform(-2.0, 3.0, size=20)))
        with engine(name):
            for e in elections:
                beta = random_beta(rng)
                oracle_win, oracle_dbar = enumerate_oracle(e, beta)
                win = win_probabilities(e, beta)
                report = expected_distortion(e, beta)
                assert win.p_left == pytest.approx(oracle_win.p_left, abs=1e-12)
                assert report.expected_distortion == pytest.approx(oracle_dbar, abs=1e-12)

    @pytest.mark.parametrize("name", ENGINES)
    def test_agrees_with_sequential_product(self, name, rng):
        sizes = list(range(0, 70)) + [100, 127, 128, 129, 257, 1000, 1500, 2000]
        with engine(name):
            for n in sizes:
                probs = probability_mix(rng, n)
                np.testing.assert_allclose(
                    vote_pmf(probs), reference_pmf(probs), rtol=0.0, atol=1e-12
                )

    @pytest.mark.parametrize("name", ENGINES)
    @settings(max_examples=60, deadline=None)
    @given(probs=long_probability_lists, random=st.randoms())
    def test_valid_pmf_and_order_free(self, name, probs, random):
        shuffled = list(probs)
        random.shuffle(shuffled)
        with engine(name):
            pmf = vote_pmf(probs)
            assert np.array_equal(vote_pmf(shuffled), pmf)
        assert len(pmf) == len(probs) + 1
        assert np.all(pmf >= 0.0)
        assert abs(math.fsum(pmf) - 1.0) <= max(1, len(probs)) * EPS

    @pytest.mark.parametrize("n", [10**4, 10**5])
    def test_mass_at_scale(self, n, rng):
        pmf = vote_pmf(rng.uniform(0.0, 1.0, n))
        assert np.all(pmf >= 0.0)
        assert abs(math.fsum(pmf) - 1.0) <= n * EPS

    def test_sure_voters_leave_exact_zeros(self):
        # 30 sure votes, 20 sure abstentions and 60 coin flips: only the
        # counts 30..90 are possible, and every other entry is exactly 0.
        pmf = vote_pmf([1.0] * 30 + [0.0] * 20 + [0.5] * 60)
        assert not pmf[:30].any() and not pmf[91:].any()
        np.testing.assert_allclose(
            pmf[30:91], [math.comb(60, k) / 2.0**60 for k in range(61)], atol=1e-15
        )

    def test_matches_high_precision(self, rng):
        mpmath = pytest.importorskip("mpmath")
        probs = rng.uniform(0.0, 1.0, 200)
        with mpmath.workdps(50):
            pmf = [mpmath.mpf(1)]
            for p in map(mpmath.mpf, probs.tolist()):
                q = 1 - p
                pmf = [a * q + b * p for a, b in zip(pmf + [0], [0] + pmf)]
            want = np.array([float(x) for x in pmf])
        for name in ENGINES:
            with engine(name):
                np.testing.assert_allclose(vote_pmf(probs), want, rtol=0.0, atol=1e-14)


def reference_win_right(left, right):
    """P(right wins) from sequential PMFs, in nonnegative sums only."""
    pmf_left, pmf_right = reference_pmf(left), reference_pmf(right)
    m = max(len(pmf_left), len(pmf_right))
    l = np.pad(pmf_left, (0, m - len(pmf_left)))
    r = np.pad(pmf_right, (0, m - len(pmf_right)))
    left_below = np.concatenate(([0.0], np.cumsum(l)[:-1]))  # P(L < k)
    return float(np.dot(r, left_below + 0.5 * l))


def lopsided_election(rng, n):
    """Dyadic positions, n leaning left and fewer leaning right."""
    left = rng.integers(-64, 26, size=n) / 64.0
    right = rng.integers(38, 128, size=int(rng.integers(1, n // 2))) / 64.0
    return LineElection(np.concatenate([left, right]))


class TestSmallWinProbabilities:
    def test_binomial_tail_to_full_relative_accuracy(self):
        mpmath = pytest.importorskip("mpmath")
        # 400 sure left votes against 600 right voters at p = 0.2 (demo 03).
        e = LineElection([0.0] * 400 + [0.6] * 600)
        side, p = model.voter_arrays(*e.distances(), 1.0)
        with mpmath.workdps(60):
            q = mpmath.mpf(float(p[side > 0][0]))
            term = lambda k: mpmath.binomial(600, k) * q**k * (1 - q) ** (600 - k)
            tail = mpmath.fsum(term(k) for k in range(401, 601)) + term(400) / 2
        win = win_probabilities(e, 1.0)
        assert win.p_right == pytest.approx(float(tail), rel=1e-11)
        assert 1e-136 < win.p_right < 1e-134
        assert win.p_left == 1.0

    @pytest.mark.parametrize("name", ENGINES)
    def test_matches_sequential_product_in_relative_terms(self, name, rng):
        smallest = 1.0
        with engine(name):
            for _ in range(15):
                e = lopsided_election(rng, int(rng.integers(60, 300)))
                beta = random_beta(rng)
                side, p = model.voter_arrays(*e.distances(), beta)
                want = reference_win_right(p[side < 0], p[side > 0])
                win = win_probabilities(e, beta)
                assert win.p_right == pytest.approx(want, rel=1e-10, abs=1e-300)
                smallest = min(smallest, want)
        assert smallest < 1e-12

    def test_order_free(self, rng):
        for _ in range(5):
            e = lopsided_election(rng, 200)
            win = win_probabilities(e, 0.8)
            shuffled = LineElection(rng.permutation(np.array(e.positions)))
            assert win.p_right < exact.TILT_BELOW
            assert win_probabilities(shuffled, 0.8) == win

    def test_mirror_swaps_exactly(self, rng):
        for _ in range(5):
            e = lopsided_election(rng, 200)
            win = win_probabilities(e, 0.8)
            win_m = win_probabilities(mirror(e), 0.8)
            assert win.p_right < exact.TILT_BELOW
            assert (win_m.p_left, win_m.p_right) == (win.p_right, win.p_left)


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

    def test_evaluates_the_voters_once(self, monkeypatch, rng):
        elections = [
            LineElection(rng.uniform(-1.0, 2.0, size=n)) for n in (1, 7, 40, 41, 900)
        ] + [MetricElection([(0.4, 0.8), (1.5, 0.6), (1.0, 1.0)])]
        for e in elections:
            for beta in (0.0, 0.37, 1.0):
                composed = model.distortion_report(e, beta, win_probabilities(e, beta))
                calls = []

                def counted(*args, _f=model._sides):
                    calls.append(1)
                    return _f(*args)

                monkeypatch.setattr(model, "_sides", counted)
                assert expected_distortion(e, beta) == composed  # bit for bit
                monkeypatch.undo()
                assert len(calls) == 1

    @settings(max_examples=200, deadline=None)
    @given(
        # Half the sizes stay within the scalar engine, half reach the tree.
        size=st.one_of(st.integers(1, 40), st.integers(41, 299)),
        seed=st.integers(0, 2**32 - 1),
        beta=st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 1.0)),
    )
    def test_mirror_swaps_every_field_bit_for_bit(self, size, seed, beta):
        # Multiples of 2^-10 in [-2, 3] reflect through 1/2 without rounding,
        # so the mirrored report must be the report with its sides swapped.
        # Equal social costs name left as optimal on both sides of the mirror.
        steps = np.random.default_rng(seed).integers(-2048, 3073, size)
        e = LineElection(steps / 1024.0)
        report = expected_distortion(e, beta)
        side = {model.LEFT: model.RIGHT, model.RIGHT: model.LEFT}
        tied = report.sc_left == report.sc_right
        swapped = dataclasses.replace(
            report,
            sc_left=report.sc_right,
            sc_right=report.sc_left,
            optimal=report.optimal if tied else side[report.optimal],
            dist_left=report.dist_right,
            dist_right=report.dist_left,
            expected_votes_left=report.expected_votes_right,
            expected_votes_right=report.expected_votes_left,
            expected_winner=side.get(report.expected_winner, report.expected_winner),
            win_prob_left=report.win_prob_right,
            win_prob_right=report.win_prob_left,
        )

        def bits(r):
            return [struct.pack("<d", v) if isinstance(v, float) else v for v in vars(r).values()]

        assert bits(expected_distortion(mirror(e), beta)) == bits(swapped)


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


# Voters at the candidates, at the midpoint, beyond 2**53 (where x - 1 is
# rounded, to x itself from 2**54 on) and near the float limit.
SPECIAL_POSITIONS = [0.0, 0.5, 1.0, 2.0**53, -(2.0**53), 2.0**53 + 2.0, 3.0 * 2**60, -1e300]
SPECIAL_PAIRS = [(0.0, 1.0), (1.0, 0.0), (1.0, 1.0), (0.5, 0.5), (2.0**53, 2.0**53 + 1.0),
                 (1e300, 1e300)]


@st.composite
def small_elections(draw):
    """Line or metric elections of 1 to SCALAR_LIMIT voters, with duplicates."""
    n = draw(st.integers(1, model.SCALAR_LIMIT))
    if draw(st.booleans()):
        voter = st.sampled_from(SPECIAL_POSITIONS) | st.floats(-3.0, 4.0)
        kind = LineElection
    else:
        near = st.tuples(st.floats(0.0, 4.0), st.floats(0.0, 4.0)).map(
            lambda d: (d[0], max(d[1], 1.0 - d[0]))
        )
        voter = st.sampled_from(SPECIAL_PAIRS) | near
        kind = MetricElection
    distinct = draw(st.lists(voter, min_size=1, max_size=n))
    picks = draw(st.lists(st.integers(0, len(distinct) - 1), min_size=n, max_size=n))
    return kind([distinct[i] for i in picks])


def array_path(e, beta):
    """Costs, votes, winner, win probabilities and report by the array path."""
    side, p = model.voter_arrays(*e.distances(), beta)
    left, right = p[side < 0], p[side > 0]
    costs = tuple(math.fsum(d.tolist()) for d in e.distances())
    votes = model._votes(left, right)
    win = exact._win_from_sides(left, right)
    return costs, votes, model._winner(*votes), win, model._report(e, votes, win)


def hexed(values):
    return [v.hex() if isinstance(v, float) else v for v in values]


class TestListPath:
    """Elections of at most SCALAR_LIMIT voters are evaluated in Python
    floats; every result is the array path's, bit for bit."""

    @settings(max_examples=200, deadline=None)
    @given(
        e=small_elections(),
        beta=st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 1.0)),
    )
    def test_agrees_with_the_array_path_bit_for_bit(self, e, beta):
        costs, votes, winner, win, report = array_path(e, beta)
        assert isinstance(model._sides(e, beta)[0], list)
        assert hexed(model.social_costs(e)) == hexed(costs)
        assert hexed(model.expected_votes(e, beta)) == hexed(votes)
        assert model.expected_winner(e, beta) == winner
        assert hexed(win_probabilities(e, beta)) == hexed(win)
        assert hexed(vars(expected_distortion(e, beta)).values()) == hexed(
            vars(report).values()
        )

    @pytest.mark.parametrize("beta", [-0.1, 1.5, math.nan])
    def test_invalid_beta_reads_the_same(self, beta):
        small = LineElection([0.2, 1.5])
        with pytest.raises(ValueError) as on_lists:
            model._sides(small, beta)
        with pytest.raises(ValueError) as on_arrays:
            model.voter_arrays(*small.distances(), beta)
        assert str(on_lists.value) == str(on_arrays.value)
        large = LineElection([0.2, 1.5] * model.SCALAR_LIMIT)
        for evaluate in (model.expected_votes, win_probabilities, expected_distortion):
            for e in (small, large):
                with pytest.raises(ValueError, match=r"^beta must lie in \[0, 1\]"):
                    evaluate(e, beta)

    @pytest.mark.parametrize(
        "pair", [(-1.0, 2.0), (2.0, -1.0), (0.0, 0.0), (math.nan, 1.0), (1.0, math.nan)]
    )
    def test_invalid_distance_reads_the_same(self, pair):
        # Elections check their voters; only an unchecked one reaches the
        # evaluation with a distance pair that is not one.
        for n in (1, model.SCALAR_LIMIT, model.SCALAR_LIMIT + 1):
            e = MetricElection._trusted(np.array([(0.4, 0.8)] * (n - 1) + [pair]))
            with pytest.raises(ValueError) as on_arrays:
                model.voter_arrays(*e.distances(), 0.5)
            with pytest.raises(ValueError) as evaluated:
                expected_distortion(e, 0.5)
            assert str(evaluated.value) == str(on_arrays.value)


# Evaluates a 20,000-voter planar election and prints every report field.
_REPORT_SCRIPT = """
import numpy as np
from votedist.exact import expected_distortion
from votedist.metric import MetricElection

rng = np.random.default_rng(20261018)
x, y = rng.uniform(-1.0, 2.0, 20_000), rng.uniform(-1.5, 1.5, 20_000)
e = MetricElection(np.column_stack([np.hypot(x, y), np.hypot(x - 1.0, y)]))
for beta in (0.7, 1.0):
    for name, value in vars(expected_distortion(e, beta)).items():
        print(name, value.hex() if isinstance(value, float) else value)
"""


def test_report_does_not_depend_on_the_blas_thread_count():
    # A BLAS dot product of 10**4 terms is split across threads, and the
    # split moves its last bits; the engine's reductions run in one thread.
    src = str(Path(votedist.__file__).resolve().parents[1])
    outputs = []
    for threads in ("1", "2"):
        env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": threads,
               "OMP_NUM_THREADS": threads, "MKL_NUM_THREADS": threads}
        run = subprocess.run([sys.executable, "-c", _REPORT_SCRIPT], env=env,
                             capture_output=True, text=True, check=True)
        outputs.append(run.stdout)
    assert outputs[0] == outputs[1]
    assert outputs[0].count("\n") == 22
