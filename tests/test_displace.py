import dataclasses
import functools
import hashlib
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from votedist import displace, exact, model, verification, worstcase
from votedist.displace import (
    CanonicalForm,
    ValidityCertificate,
    canonicalize_expected_distortion,
    canonicalize_expected_winner,
    certify_expected_displacement,
    certify_winner_displacement,
    map_a_to_b,
    map_c_to_d,
    merge_d_geometric,
    merge_same_region,
    move_a_to_zero,
    move_bc_pair,
)
from votedist.model import LEFT, RIGHT, TIE, LineElection
from votedist.verification import (
    SuiteResult,
    canonicalization_suites,
    displacement_suites,
    random_beta,
    random_leading_election,
)


def participation(x, beta):
    return model.profile(x, beta).participation


# The pairwise merges that the closed-form region collapse replaced, by move
# kind, copied verbatim as the reference the one-step limits are checked
# against.
REFERENCE_MEETS = {
    "same_region_merge": lambda a, b: 0.5 * (a + b),
    "D_geometric_merge": lambda a, b: 0.5 * (
        math.sqrt((2.0 * a - 1.0) * (2.0 * b - 1.0)) + 1.0
    ),
}


def reference_collapse(chain, member, kind, limit):
    """The old ``_Chain.collapse``: merge the two extreme members again and
    again until they come within 1e-12, then snap all members to the
    midpoint of the extremes.  The merges run on a list of positions and the
    election is built once, at the end, without recorded steps: the
    reference is compared by its final positions alone."""
    meet = REFERENCE_MEETS[kind]
    x = list(chain.current.positions)
    for _ in range(100_000):
        members = [i for i, v in enumerate(x) if member(v)]
        if len(members) < 2:
            break
        lo = min(members, key=x.__getitem__)
        hi = max(members, key=x.__getitem__)
        if x[hi] - x[lo] <= 1e-12:
            point = 0.5 * (x[lo] + x[hi])
            for i in members:
                x[i] = point
            break
        x[lo] = x[hi] = meet(x[lo], x[hi])
    else:
        raise AssertionError("reference merge loop did not converge")
    chain.current = LineElection(x)


def reference_bc_pair(e, i, j):
    """The old ``displace._bc_pair``, on an election and two voter indices."""
    xi, xj = e.positions[i], e.positions[j]
    if xi <= 1.0 - xj:
        return {i: xi + xj - 0.5, j: 0.5}
    return {i: xi - 1.0 + xj, j: 1.0}


class ReferenceChain(displace._Chain):
    """``_Chain`` with the old ``collapse`` method, which applied the merge."""

    def collapse(self, member, kind, limit):
        members = [i for i, x in enumerate(self.current.positions) if member(x)]
        xs = [self.current.positions[i] for i in members]
        if len(set(xs)) < 2:
            return
        t = min(max(limit(xs), min(xs)), max(xs))  # rounding stays in the span
        self.apply(kind, {i: t for i in members})


def reference_canonical_form(canonicalize, e, beta, certify=True):
    """The chain ``canonicalize`` ran before each move kind became one step.

    The per-voter A, B-C and C-to-D loops are copied verbatim: one certified
    step per A voter, per B-C pair and per C-to-D crossing, the crossings
    re-reading the bar after each one.  ``e`` must be in the configuration
    ``canonicalize`` reduces.  Without ``certify`` every election measures
    alike, so the chain's certificates pass and say nothing.
    """
    unmeasured = lambda x: (None, 0.0)
    _bc_pair = reference_bc_pair
    if canonicalize is canonicalize_expected_winner:
        measure = (lambda x: displace._measure_winner(x, beta)) if certify else unmeasured
        chain = ReferenceChain(e, measure, winner_preserving=True)

        for i, x in enumerate(chain.current.positions):
            if x < 0.0:
                chain.apply("A_to_zero", {i: 0.0})

        c_voters = [i for i, x in enumerate(chain.current.positions) if 0.5 < x < 1.0]
        c_voters.sort(key=lambda i: -chain.current.positions[i])
        b_voters = [i for i, x in enumerate(chain.current.positions) if 0.0 <= x < 0.5]
        b_voters.sort(key=lambda i: chain.current.positions[i])
        for k, j in enumerate(c_voters):
            i = b_voters[k % len(b_voters)]
            chain.apply("BC_pair", _bc_pair(chain.current, i, j))

        chain.collapse(lambda x: 0.0 <= x <= 0.5, "same_region_merge", displace._midpoint_limit)
        chain.collapse(lambda x: x >= 1.0, "same_region_merge", displace._midpoint_limit)
        return chain.finish()

    measure = (lambda x: displace._measure_expected(x, beta)) if certify else unmeasured
    chain = ReferenceChain(e, measure, winner_preserving=False)

    for i, x in enumerate(chain.current.positions):
        if x < 0.0:
            chain.apply("A_to_B_map", {i: displace._a_to_b(x)})

    c_voters = [j for j, x in enumerate(chain.current.positions) if 0.5 < x < 1.0]
    c_voters.sort(key=lambda j: chain.current.positions[j])
    for j in c_voters:
        x = chain.current.positions[j]
        if x / (1.0 - x) >= model._candidate_distortion(chain.current, LEFT):
            chain.apply("C_to_D_map", {j: displace._c_to_d(x)})

    chain.collapse(lambda x: x >= 1.0, "D_geometric_merge", displace._geometric_limit)
    return chain.finish()


# The sequential sampler that drew each candidate with one generator call
# per region count and per region, and built and evaluated every candidate,
# copied verbatim (with its configuration table, its region test, and the
# module's names qualified) as the reference for the law of the elections
# ``verification.random_leading_election`` accepts.
REFERENCE_CONFIGURATIONS = {
    LEFT: (((0, 3), (1, 5), (0, 3), (1, 5)),
           ((-1.5, -1e-9), (0.0, 0.5), (0.5 + 1e-9, 1.0), (1.0, 3.0))),
    RIGHT: (((0, 3), (0, 3), (0, 3), (1, 6)),
            ((-1.0, -1e-9), (0.25, 0.5), (0.5 + 1e-9, 1.0), (1.0, 2.0))),
}


def reference_meets(e, require):
    return all(len(model._indices_in(e.positions, r)) >= require.count(r) for r in set(require))


def reference_configured_election(rng, beta, winner, require):
    counts, spans = REFERENCE_CONFIGURATIONS[winner]
    for _ in range(verification._MAX_TRIES):
        sizes = [int(rng.integers(lo, hi)) for lo, hi in counts]
        drawn = [rng.uniform(lo, hi, size=n) for (lo, hi), n in zip(spans, sizes)]
        e = LineElection(np.concatenate(drawn))
        sc_left, sc_right = model.social_costs(e)
        # The cheap cost test first: a third of left-leading draws fail it.
        if sc_right < sc_left and model.expected_winner(e, beta) == winner:
            if reference_meets(e, require):
                return e
    raise RuntimeError(f"no {winner}-leading election in {verification._MAX_TRIES} draws")


def reference_raised_election(rng, beta, winner, require):
    """The sampler's draw spelled out: one bounded integer over the box of
    region sizes whose lows are raised to ``require``'s counts, decoded
    digit by digit with region D's size the fastest, then one uniform per
    voter scaled into its region's span and clamped to the largest float
    below the span's upper end."""
    counts, spans = REFERENCE_CONFIGURATIONS[winner]
    lows = [max(lo, require.count(r)) for (lo, _), r in zip(counts, "ABCD")]
    radices = [hi - lo for lo, (_, hi) in zip(lows, counts)]
    for _ in range(verification._MAX_TRIES):
        k = int(rng.integers(math.prod(radices)))
        sizes = [0, 0, 0, 0]
        for r in (3, 2, 1, 0):
            k, digit = divmod(k, radices[r])
            sizes[r] = lows[r] + digit
        u = np.split(rng.random(sum(sizes)), np.cumsum(sizes)[:-1])
        x = np.concatenate([
            np.minimum(lo + (hi - lo) * part, math.nextafter(hi, lo))
            for (lo, hi), part in zip(spans, u)
        ])
        if exact_rule_accepts(x.tolist(), beta, winner):
            return LineElection(x)
    raise RuntimeError(f"no {winner}-leading election in {verification._MAX_TRIES} draws")


class TopUniforms:
    """A generator stub for the sampler: its uniforms are all the largest
    float below 1, and its bounded integers count up modulo the bound."""

    k = -1

    def integers(self, n):
        self.k = (self.k + 1) % n
        return self.k

    def random(self, size):
        return np.full(size, math.nextafter(1.0, 0.0))


def region_sizes(e):
    return tuple(len(model._indices_in(e.positions, r)) for r in "ABCD")


def chi_square_homogeneity(a, b):
    """The p-value of the two-sample chi-square test that count vectors
    ``a`` and ``b`` (over the same cells) come from one law."""
    cells = [(x, y) for x, y in zip(a, b) if x + y]
    n_a, n_b = sum(a), sum(b)
    stat = sum((x * n_b - y * n_a) ** 2 / (n_a * n_b * (x + y)) for x, y in cells)
    # The upper tail of chi-square with len(cells) - 1 degrees of freedom,
    # from the series of the lower regularized gamma function.
    k, z = (len(cells) - 1) / 2, stat / 2
    if k == 0 or z == 0:
        return 1.0
    term = math.exp(k * math.log(z) - z - math.lgamma(k + 1))
    lower, n = 0.0, 0
    while term > 1e-17 * lower:
        lower += term
        n += 1
        term *= z / (k + n)
    return max(0.0, 1.0 - lower)


def exact_rule_accepts(x, beta, winner):
    """The sampler's accept rule on positions ``x``."""
    e = LineElection(x)
    sc_left, sc_right = model.social_costs(e)
    return sc_right < sc_left and model.expected_winner(e, beta) == winner


# Every ``require`` the suites pass to the samplers.
SUITE_REQUIRES = ((), ("A",), ("B", "C"), ("B", "B"), ("C",), ("D", "D"))

# Region boundaries, and dyadic rationals, whose mirror images are exact.
BOUNDARIES = st.sampled_from([0.0, 0.5, 1.0])
DYADIC = st.integers(-2 * 2**50, 3 * 2**50).map(lambda k: k / 2**50) | BOUNDARIES
# A voter 2**-60 to 2**-20 right of the midpoint, which makes the right
# candidate optimal and the leader of a mirrored election by a hair.
HAIR = st.integers(20, 60).map(lambda k: 0.5 + 2.0**-k)


@st.composite
def near_tie_positions(draw):
    """1-17 positions in [-2, 3]; half of them mirrored pairs ``x, 1 - x``,
    whose costs and votes tie exactly, and one voter to tip the tie."""
    if draw(st.booleans()):
        return draw(st.lists(st.floats(-2.0, 3.0), min_size=1, max_size=17))
    xs = draw(st.lists(DYADIC, min_size=1, max_size=8))
    xs += [1.0 - x for x in xs] + [draw(HAIR)]
    return draw(st.permutations(xs))


def suite_elections(trials, seed):
    """The elections ``canonicalization_suites(trials, seed)`` reduces."""
    rng = np.random.default_rng(seed)
    for _ in range(trials):
        beta = random_beta(rng)
        yield canonicalize_expected_winner, random_leading_election(rng, beta, LEFT), beta
    for _ in range(trials):
        beta = random_beta(rng)
        yield canonicalize_expected_distortion, random_leading_election(rng, beta, RIGHT), beta


@functools.cache
def suite_forms(seed):
    """``suite_elections(500, seed)``, each with its canonical form."""
    return tuple(
        (canonicalize, e, beta, canonicalize(e, beta))
        for canonicalize, e, beta in suite_elections(500, seed)
    )


def certificate_fields(cert):
    return (cert.winner_before, cert.winner_after, cert.metric_before,
            cert.metric_after, cert.winner_preserving)


# The moves ``displacement_suites`` applies, by their names in ``displace``.
SUITE_MOVES = ("move_a_to_zero", "move_bc_pair", "merge_same_region",
               "map_a_to_b", "map_c_to_d", "merge_d_geometric")


def displacement_draws(trials, seed):
    """The elections and picked voters ``displacement_suites(trials, seed)``
    moves, in the order it moves them."""
    draws = []
    with pytest.MonkeyPatch.context() as mp:
        for name in SUITE_MOVES:
            def recorded(e, *picked, _move=getattr(displace, name)):
                draws.append((e.positions, picked))
                return _move(e, *picked)

            mp.setattr(displace, name, recorded)
        displacement_suites(trials, seed)
    return draws


def audit_digests(chains=50):
    """Digests of the sampler streams, the displacement draws and the
    canonicalization chains.

    The streams are the elections both samplers draw, at one seed, for each
    ``require``; the moves are the elections and picked voters of
    ``displacement_suites(chains, 1)``; the chains are the steps, final
    elections and certificates of the chains ``canonicalization_suites(chains,
    seed)`` runs.
    """
    rng = np.random.default_rng(20261018)
    streams = hashlib.sha256()
    for require in ((), ("A",), ("B", "C"), ("D", "D"), ("C",)):
        for winner in (LEFT, RIGHT):
            for _ in range(3):
                e = random_leading_election(rng, random_beta(rng), winner, require)
                streams.update(e.array.astype("<f8").tobytes())
    moves = repr(displacement_draws(chains, 1)).encode()
    digests = {"streams": streams.hexdigest(), "moves": hashlib.sha256(moves).hexdigest()}
    for seed in (1, 2, 9001):
        forms = hashlib.sha256()
        for canonicalize, e, beta in suite_elections(chains, seed):
            form = canonicalize(e, beta)
            certs = [certificate_fields(c) for c in form.certificates]
            forms.update(repr((form.steps, form.election.positions, certs)).encode())
        digests[seed] = forms.hexdigest()
    return digests


class TestMoveAToZero:
    def test_basic(self):
        assert move_a_to_zero(LineElection([-1.0, 0.2]), 0).positions == (0.0, 0.2)

    def test_boundary_lands_exactly_at_zero(self):
        assert move_a_to_zero(LineElection([-1e-4, 0.2]), 0).positions[0] == 0.0

    def test_region_checked(self):
        with pytest.raises(ValueError):
            move_a_to_zero(LineElection([0.1, 1.2]), 0)


class TestMoveBCPair:
    def test_close_up_case(self):
        e = move_bc_pair(LineElection([0.1, 0.7]), 0, 1)
        assert e.positions == pytest.approx((0.3, 0.5), abs=1e-15)

    def test_push_out_case(self):
        e = move_bc_pair(LineElection([0.4, 0.9]), 0, 1)
        assert e.positions == pytest.approx((0.3, 1.0), abs=1e-15)

    @given(
        st.floats(min_value=0.0, max_value=0.4999),
        st.floats(min_value=0.5001, max_value=0.9999),
    )
    def test_social_costs_unchanged(self, xi, xj):
        before = LineElection([xi, xj, 1.4])
        after = move_bc_pair(before, 0, 1)
        sc_b = model.social_costs(before)
        sc_a = model.social_costs(after)
        assert sc_a[0] == pytest.approx(sc_b[0], abs=1e-12)
        assert sc_a[1] == pytest.approx(sc_b[1], abs=1e-12)

    def test_rejects_indifferent_partner(self):
        with pytest.raises(ValueError):
            move_bc_pair(LineElection([0.1, 0.5]), 0, 1)

    def test_rejects_wrong_regions(self):
        with pytest.raises(ValueError):
            move_bc_pair(LineElection([0.7, 0.1]), 0, 1)


class TestMergeSameRegion:
    def test_midpoint(self):
        e = merge_same_region(LineElection([0.1, 0.3]), 0, 1)
        assert e.positions == (0.2, 0.2)

    def test_equal_positions_noop(self):
        e = merge_same_region(LineElection([1.4, 1.4]), 0, 1)
        assert e.positions == (1.4, 1.4)

    def test_rejects_mixed_regions(self):
        with pytest.raises(ValueError):
            merge_same_region(LineElection([0.1, 1.4]), 0, 1)
        with pytest.raises(ValueError):
            merge_same_region(LineElection([-0.5, -0.1]), 0, 1)


class TestParticipationPreservingMaps:
    def test_a_to_b_values(self):
        assert map_a_to_b(LineElection([-1.0]), 0).positions[0] == pytest.approx(1 / 3)
        assert map_a_to_b(LineElection([-10.0]), 0).positions[0] == pytest.approx(10 / 21)

    def test_a_to_b_continuity_at_zero(self):
        x = map_a_to_b(LineElection([-1e-9]), 0).positions[0]
        assert 0.0 <= x < 1e-8

    def test_c_to_d_values(self):
        assert map_c_to_d(LineElection([0.75]), 0).positions[0] == pytest.approx(1.5)
        assert map_c_to_d(LineElection([0.6]), 0).positions[0] == pytest.approx(3.0)

    def test_c_to_d_fixed_point_at_one(self):
        x = map_c_to_d(LineElection([1.0 - 1e-9]), 0).positions[0]
        assert x == pytest.approx(1.0, abs=1e-8)

    def test_c_to_d_rejects_midpoint(self):
        with pytest.raises(ValueError):
            map_c_to_d(LineElection([0.5]), 0)

    @given(st.floats(min_value=-50.0, max_value=-1e-6), st.floats(min_value=0.0, max_value=1.0))
    def test_a_to_b_preserves_participation_and_preference(self, x, beta):
        moved = map_a_to_b(LineElection([x]), 0).positions[0]
        assert 0.0 <= moved < 0.5
        assert participation(moved, beta) == pytest.approx(
            participation(x, beta), abs=1e-12
        )

    @given(
        st.floats(min_value=0.5 + 1e-6, max_value=1.0 - 1e-6),
        st.floats(min_value=0.0, max_value=1.0),
    )
    def test_c_to_d_preserves_participation_and_preference(self, x, beta):
        moved = map_c_to_d(LineElection([x]), 0).positions[0]
        assert moved >= 1.0
        assert participation(moved, beta) == pytest.approx(
            participation(x, beta), abs=1e-12
        )


class TestMergeDGeometric:
    def test_formula(self):
        e = merge_d_geometric(LineElection([1.5, 3.0]), 0, 1)
        t = 0.5 * (math.sqrt(10.0) + 1.0)
        assert e.positions == pytest.approx((t, t))

    def test_equal_positions_noop(self):
        e = merge_d_geometric(LineElection([2.0, 2.0]), 0, 1)
        assert e.positions == (2.0, 2.0)

    @given(
        st.floats(min_value=1.0, max_value=40.0),
        st.floats(min_value=1.0, max_value=40.0),
        st.floats(min_value=0.0, max_value=1.0),
    )
    def test_joint_vote_mass_shift(self, xi, xj, beta):
        # Both-vote probability is preserved exactly; mass can only move from
        # "one vote" to "no votes".
        t = merge_d_geometric(LineElection([xi, xj]), 0, 1).positions[0]
        assert min(xi, xj) <= t <= max(xi, xj)
        p_i, p_j = participation(xi, beta), participation(xj, beta)
        p_t = participation(t, beta)
        assert p_t * p_t == pytest.approx(p_i * p_j, abs=1e-12)
        assert (1 - p_t) ** 2 >= (1 - p_i) * (1 - p_j) - 1e-12

    def test_region_checked(self):
        with pytest.raises(ValueError):
            merge_d_geometric(LineElection([0.9, 1.5]), 0, 1)


class TestCertificates:
    def test_passed_logic(self):
        good = ValidityCertificate(LEFT, LEFT, 1.5, 1.6, winner_preserving=True)
        assert good.passed
        worse = ValidityCertificate(LEFT, LEFT, 1.5, 1.4, winner_preserving=True)
        assert not worse.passed
        flipped = ValidityCertificate(LEFT, RIGHT, 1.5, 1.6, winner_preserving=True)
        assert not flipped.passed
        drift = ValidityCertificate(LEFT, LEFT, 1.5, 1.5 - 1e-10, winner_preserving=True)
        assert drift.passed

    def test_winner_certificate_requires_a_winner(self):
        tied = LineElection([0.25, 0.75])
        with pytest.raises(ValueError):
            certify_winner_displacement(tied, tied, 1.0)

    def test_all_move_kinds_certify_on_random_elections(self):
        for result in displacement_suites(trials=120, seed=99):
            assert result.ok, result


class TestCanonicalizeExpectedWinner:
    def test_pass_through_when_not_configured(self):
        e = LineElection([1.5])  # right is the expected winner here
        form = canonicalize_expected_winner(e, 1.0)
        assert form == CanonicalForm(e, False, (), ())

    def test_already_two_point_is_fixed(self):
        e = LineElection([0.1, 0.1, 2.0, 2.0])
        assert model.expected_winner(e, 1.0) == LEFT
        assert model.social_costs(e)[1] < model.social_costs(e)[0]
        form = canonicalize_expected_winner(e, 1.0)
        assert form.applied
        assert form.election.positions == e.positions

    def test_structure_and_monotonicity(self, rng):
        for _ in range(40):
            beta = random_beta(rng)
            e = random_leading_election(rng, beta, LEFT)
            form = canonicalize_expected_winner(e, beta)
            assert form.applied
            distinct = set(form.election.positions)
            assert len(distinct) <= 2
            assert all(0.0 <= x <= 0.5 or x >= 1.0 for x in distinct)
            assert model.winner_distortion(form.election, beta) >= (
                model.winner_distortion(e, beta) - 1e-9
            )
            assert all(c.passed for c in form.certificates)

    def test_suite(self):
        for result in canonicalization_suites(trials=40, seed=5):
            assert result.ok, result


class TestCanonicalizationSuites:
    """The suites read both metrics off the end-to-end certificate."""

    @pytest.mark.parametrize("suites", [displacement_suites, canonicalization_suites])
    @pytest.mark.parametrize("trials", [0, -4])
    def test_trials_below_one_rejected(self, suites, trials):
        with pytest.raises(ValueError, match="trials must be >= 1"):
            suites(trials, 1)

    @pytest.mark.parametrize("suites", [displacement_suites, canonicalization_suites])
    @pytest.mark.parametrize("seed", [-1, 1.5])
    def test_seed_must_be_a_non_negative_integer(self, suites, seed):
        with pytest.raises(ValueError, match=f"^seed must be (>= 0|an integer), got {seed}$"):
            suites(1, seed)

    def test_certificate_holds_the_re_evaluated_metrics(self):
        for seed in (1, 2, 9001):
            for canonicalize, e, beta in suite_elections(50, seed):
                form = canonicalize(e, beta)
                cert = form.certificates[-1]
                elections = (e, form.election)
                if canonicalize is canonicalize_expected_winner:
                    metrics = [model.winner_distortion(x, beta) for x in elections]
                else:
                    metrics = [
                        exact.expected_distortion(x, beta).expected_distortion
                        for x in elections
                    ]
                assert [cert.metric_before, cert.metric_after] == metrics

    @pytest.mark.parametrize("seed", [1, 2, 9001])
    def test_results(self, seed):
        assert canonicalization_suites(50, seed) == [
            SuiteResult("canonical_winner_form", 50, 0),
            SuiteResult("canonical_expected_form", 50, 0),
        ]

    def test_audit_digests_are_unchanged(self):
        # Any change to a sampler draw, a chain step or a certificate
        # changes a digest.
        assert audit_digests() == {
            "streams": "2c591f45642f1b557cb926e3d246c740d177ed273063c127a019d8f2cea6310b",
            "moves": "2200bc54eadcf2cc92f11588a8f9a7a3f0ae6ceebba5182ceb0538c3eef35b7f",
            1: "3cb9180418acb59a7a81ffcf515d2a76e245025594284e57e800e3e9418e0800",
            2: "860776a157c001e5568c298ce9f3921009e6cffe95e4bf32fe8a30d35c45536e",
            9001: "f4e1c5bb0cf314598524f799338a9b5bacfb543ea1e5b5c8ba1196eb748659d4",
        }

    def test_chain_certificates_match_the_public_certifiers(self):
        for canonicalize, e, beta in suite_elections(20, 9001):
            form = canonicalize(e, beta)
            certify = (
                certify_winner_displacement
                if canonicalize is canonicalize_expected_winner
                else certify_expected_displacement
            )
            chain = [e]
            for step in form.steps:
                chain.append(chain[-1].replace(dict(zip(step.voters, step.targets))))
            assert chain[-1] == form.election
            pairs = list(zip(chain, chain[1:])) + [(e, form.election)]
            assert list(form.certificates) == [certify(a, b, beta) for a, b in pairs]

    def test_no_re_evaluation(self, monkeypatch):
        calls = {"expected_distortion": 0, "winner_distortion": 0, "_sides": 0}
        for module, name in (
            (exact, "expected_distortion"), (model, "winner_distortion"), (model, "_sides")
        ):
            def counted(*args, _f=getattr(module, name), _name=name):
                calls[_name] += 1
                return _f(*args)

            monkeypatch.setattr(module, name, counted)
        canonicalization_suites(50, 1)
        # Each election of a chain is measured once: 50 origins and 106
        # steps, at most three per chain.  182 when each A voter and each
        # C-to-D crossing was a step of its own; 364 when every certificate
        # measured both of its elections.  Both chains take one ``_sides`` per
        # election they measure; 453 when each origin was measured again to
        # decide whether the chain applies.
        assert calls == {"expected_distortion": 156, "winner_distortion": 0, "_sides": 353}


def regressed(e, *picked):
    """A winner-preserving move that always regresses on a left-leading
    election: every voter lands on the right candidate, who becomes the
    expected winner.  (No election reliably regresses the expected-distortion
    moves: their elections may already have expected distortion 1.)"""
    return LineElection([1.0])


def flip_to_right(positions):
    """A B-C pairing that regresses: every voter moves deep into region D,
    so the expected winner flips to right."""
    return {i: 2.0 for i in range(len(positions))}


class TestSuitesCountFailures:
    """A regressing move or a bad canonical form counts as a failure."""

    @pytest.mark.parametrize(
        "name, move",
        [("A_to_zero", "move_a_to_zero"), ("BC_pair", "move_bc_pair"),
         ("same_region_merge", "merge_same_region")],
    )
    def test_displacement_suite_counts_a_regressing_move(self, monkeypatch, name, move):
        monkeypatch.setattr(displace, move, regressed)
        results = displacement_suites(6, 1)
        assert [r.name for r in results] == [
            "A_to_zero", "BC_pair", "same_region_merge",
            "A_to_B_map", "C_to_D_map", "D_geometric_merge",
        ]
        assert {r.name: r.failures for r in results} == {
            r.name: 6 if r.name == name else 0 for r in results
        }

    def test_canonicalization_suites_count_regressions_and_bad_forms(self, monkeypatch):
        real = displace.canonicalize_expected_distortion

        def left_in_a(e, beta):
            # The real chain, with voter 0 left behind in region A.
            form = real(e, beta)
            return dataclasses.replace(form, election=form.election.replace({0: -1.0}))

        monkeypatch.setattr(displace, "_bc_pairing", flip_to_right)
        monkeypatch.setattr(displace, "canonicalize_expected_distortion", left_in_a)
        assert canonicalization_suites(6, 1) == [
            SuiteResult("canonical_winner_form", 6, 6),
            SuiteResult("canonical_expected_form", 6, 6),
        ]

        def with_voters_beyond(real, count):
            # The real chain, with ``count`` voters added at new D positions:
            # a third distinct position in the two-point winner form, a
            # second D position in the expected form.
            def canonicalize(e, beta):
                form = real(e, beta)
                top = max(form.election.positions)
                more = tuple(top + k for k in range(1, count + 1))
                return dataclasses.replace(
                    form, election=LineElection(form.election.positions + more)
                )
            return canonicalize

        monkeypatch.undo()
        for name, count in (("canonicalize_expected_winner", 1),
                            ("canonicalize_expected_distortion", 2)):
            monkeypatch.setattr(displace, name, with_voters_beyond(getattr(displace, name), count))
        assert canonicalization_suites(6, 1) == [
            SuiteResult("canonical_winner_form", 6, 6),
            SuiteResult("canonical_expected_form", 6, 6),
        ]

    def test_winner_forms_are_checked_against_the_worst_case(self, monkeypatch):
        # A two-point winner form cannot beat D*(beta); at seed 2 the largest
        # form reaches 0.854 of it, so a D* read 20% low flags the suite.
        real = worstcase._solve

        def low(betas, epsilon):
            return [dataclasses.replace(s, value=0.8 * s.value) for s in real(betas, epsilon)]

        assert canonicalization_suites(50, 2)[0] == SuiteResult("canonical_winner_form", 50, 0)
        monkeypatch.setattr(worstcase, "_solve", low)
        winner, expected = canonicalization_suites(50, 2)
        assert winner.name == "canonical_winner_form" and winner.failures > 0
        assert expected == SuiteResult("canonical_expected_form", 50, 0)


class TestConfiguredSampler:
    """The sampler draws its region sizes from the box that ``require``
    leaves, keeps the law of the elections the sequential loop accepted,
    and accepts by the exact rule alone."""

    # The (winner, require) pairs whose box ``require`` raises a lower end of.
    RAISED = [
        (winner, require)
        for winner, (counts, _) in REFERENCE_CONFIGURATIONS.items()
        for require in SUITE_REQUIRES
        if any(require.count(r) > lo for r, (lo, _) in zip("ABCD", counts))
    ]

    def test_pick_is_rng_choice(self):
        rng, ref = np.random.default_rng(7), np.random.default_rng(7)
        for k in range(5_000):
            items = list(range(100, 100 + k % 13 + 1)) if k % 50 else list(range(k + 1))
            assert verification._pick(rng, items) == ref.choice(items)
            assert rng.bit_generator.state == ref.bit_generator.state

    @pytest.mark.parametrize("winner", [LEFT, RIGHT])
    def test_draws_decode_one_integer_over_the_raised_box(self, winner):
        betas = (0.0, 1.0, 0.37, random_beta)
        for seed in range(60):
            rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
            for k, require in enumerate(SUITE_REQUIRES):
                beta = betas[(seed + k) % len(betas)]
                if beta is random_beta:
                    beta = random_beta(rng)
                    assert random_beta(ref) == beta
                e = verification.random_leading_election(rng, beta, winner, require)
                expected = reference_raised_election(ref, beta, winner, require)
                assert e.array.tobytes() == expected.array.tobytes()
                assert rng.bit_generator.state == ref.bit_generator.state

    @pytest.mark.parametrize("winner, require", RAISED, ids=[f"{w}-{''.join(r)}" for w, r in RAISED])
    def test_accepted_law_is_the_sequential_loops(self, winner, require):
        # The region-size histograms of 240 accepted elections from each
        # sampler, at the same betas, pass a two-sample chi-square test.
        betas = [random_beta(np.random.default_rng(99)) for _ in range(240)]
        rng, ref = np.random.default_rng(1), np.random.default_rng(2)
        new = [region_sizes(verification.random_leading_election(rng, b, winner, require))
               for b in betas]
        old = [region_sizes(reference_configured_election(ref, b, winner, require))
               for b in betas]
        for r in range(4):
            cells = range(7)
            a = [sum(s[r] == c for s in new) for c in cells]
            b = [sum(s[r] == c for s in old) for c in cells]
            assert chi_square_homogeneity(a, b) > 1e-3, ("ABCD"[r], a, b)

    @pytest.mark.parametrize("winner", [LEFT, RIGHT])
    def test_every_accepted_election_meets_require(self, winner):
        rng = np.random.default_rng(11)
        for require in SUITE_REQUIRES:
            for _ in range(100):
                beta = random_beta(rng)
                e = verification.random_leading_election(rng, beta, winner, require)
                assert reference_meets(e, require)
                assert exact_rule_accepts(list(e.positions), beta, winner)

    @pytest.mark.parametrize("winner", [LEFT, RIGHT])
    def test_voters_at_the_top_of_their_spans_stay_in_their_regions(self, winner):
        # Every uniform is the largest float below 1, which rounds onto the
        # upper end of the C span (1.0) and of the right-leading B span (0.5)
        # when scaled; the candidates walk the size box in order.
        for require in SUITE_REQUIRES:
            rng = TopUniforms()
            box = verification._size_box(winner, require)
            for beta in (0.0, 0.5, 1.0):
                e = verification.random_leading_election(rng, beta, winner, require)
                assert region_sizes(e) == box[rng.k]

    @pytest.mark.parametrize(
        "winner, require, message",
        [
            (LEFT, ("E",), "unknown region 'E'"),
            (RIGHT, ("B", "x"), "unknown region 'x'"),
            (LEFT, ("A", "A", "A"), "3 voters in region A, but a left-leading election draws at most 2"),
            (RIGHT, ("D",) * 6, "6 voters in region D, but a right-leading election draws at most 5"),
            (TIE, (), "winner must be 'left' or 'right', got 'tie'"),
        ],
    )
    def test_impossible_require_is_rejected_before_drawing(self, winner, require, message):
        rng = np.random.default_rng(3)
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match=message):
            verification.random_leading_election(rng, 0.5, winner, require)
        assert rng.bit_generator.state == state

    def test_exhaustion_raises_after_max_tries(self, monkeypatch):
        monkeypatch.setattr(verification, "_accepts", lambda *args: False)
        with pytest.raises(RuntimeError, match="no left-leading election in 4000 draws"):
            verification.random_leading_election(np.random.default_rng(3), 0.5, LEFT, ())

    def test_draw_exhaustion_raises_after_max_tries(self, monkeypatch):
        # No C voter may cross, so the C-to-D suite never finds a voter to move.
        monkeypatch.setattr(displace, "_crossers", lambda e: [])
        monkeypatch.setattr(verification, "_MAX_TRIES", 50)
        message = "no right-leading election in 50 draws had voters to move"
        with pytest.raises(RuntimeError, match=message):
            displacement_suites(1, 1)

    @pytest.mark.parametrize("beta", [-0.1, 1.5, math.nan])
    @pytest.mark.parametrize("winner", [LEFT, RIGHT])
    def test_invalid_beta_raises_as_in_the_sequential_loop(self, winner, beta):
        for sampler in (verification.random_leading_election, reference_configured_election):
            with pytest.raises(ValueError, match="beta must lie in"):
                sampler(np.random.default_rng(1), beta, winner, ())

    @settings(max_examples=200, deadline=None)
    @given(near_tie_positions(), st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0))
    @example([-0.5, 1.25], 1.0)  # the costs tie exactly, right leads the votes
    def test_accept_rule_is_the_exact_rule(self, x, beta):
        for winner in (LEFT, RIGHT):
            assert verification._accepts(x, beta, winner) == exact_rule_accepts(x, beta, winner)


class TestCanonicalizeExpectedDistortion:
    def test_single_voter_already_canonical(self):
        e = LineElection([1.2])
        form = canonicalize_expected_distortion(e, 1.0)
        assert form.applied
        assert form.steps == ()
        assert form.election.positions == e.positions

    def test_pass_through_when_left_leads(self):
        e = LineElection([0.0, 0.0, 1.5])
        form = canonicalize_expected_distortion(e, 1.0)
        assert not form.applied

    def test_mixed_example_lands_in_b_plus_single_d(self):
        e = LineElection([-1.0, 0.75, 1.5, 3.0])
        assert model.expected_winner(e, 1.0) == RIGHT
        before = exact.expected_distortion(e, 1.0).expected_distortion
        form = canonicalize_expected_distortion(e, 1.0)
        assert form.applied
        positions = form.election.positions
        assert all(not (x < 0.0 or 0.5 < x < 1.0) for x in positions)
        d_points = {x for x in positions if x >= 1.0}
        assert len(d_points) == 1
        after = exact.expected_distortion(form.election, 1.0).expected_distortion
        assert after >= before - 1e-9

    def test_d_point_is_geometric_mean_limit(self):
        e = LineElection([-1.0, 0.75, 1.5, 3.0])
        form = canonicalize_expected_distortion(e, 1.0)
        # D voters 1.5, 3 and the mapped 0.75 -> 1.5 fuse at the point whose
        # odds factor is the geometric mean of theirs.
        expected = 0.5 * (1.0 + (2.0 * 1.5 - 1.0) ** (2 / 3) * (2.0 * 3.0 - 1.0) ** (1 / 3))
        d_point = max(form.election.positions)
        assert d_point == pytest.approx(expected, abs=1e-9)

    def test_structure_on_random_elections(self, rng):
        for _ in range(25):
            beta = random_beta(rng)
            e = random_leading_election(rng, beta, RIGHT)
            before = exact.expected_distortion(e, beta).expected_distortion
            form = canonicalize_expected_distortion(e, beta)
            assert form.applied
            positions = form.election.positions
            assert all(x >= 0.0 for x in positions)
            assert len({x for x in positions if x >= 1.0}) <= 1
            # Any interior-C voter left behind must genuinely be unmovable:
            # its cost ratio sits below the final distortion bar.
            sc_left, sc_right = model.social_costs(form.election)
            for x in positions:
                if 0.5 < x < 1.0:
                    assert x / (1.0 - x) < sc_left / sc_right
            after = exact.expected_distortion(form.election, beta).expected_distortion
            assert after >= before - 1e-9

    def test_low_ratio_c_voter_blocks_and_is_kept(self):
        # Crossing a C voter whose cost ratio is below the left candidate's
        # distortion provably lowers the expected distortion (the crossing
        # scales the voter's cost pair in ratio x/(1-x), a mediant pull).
        # Canonicalization must keep such a voter rather than regress.
        e = LineElection([1.05, 0.6])
        assert model.expected_winner(e, 1.0) == RIGHT
        cert = certify_expected_displacement(e, map_c_to_d(e, 1), 1.0)
        assert not cert.passed
        assert cert.metric_after < cert.metric_before - 1e-3

        form = canonicalize_expected_distortion(e, 1.0)
        assert form.applied
        assert 0.6 in form.election.positions
        after = exact.expected_distortion(form.election, 1.0).expected_distortion
        before = exact.expected_distortion(e, 1.0).expected_distortion
        assert after >= before - 1e-9


class TestClosedFormCollapse:
    @pytest.mark.parametrize("seed", [2, 5, 9001])
    def test_matches_pairwise_merge_loop(self, seed):
        worst = 0.0
        for canonicalize, e, beta, form in suite_forms(seed):
            assert len(form.steps) <= 4
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(ReferenceChain, "collapse", reference_collapse)
                reference = reference_canonical_form(canonicalize, e, beta, certify=False)
            for x, y in zip(form.election.positions, reference.election.positions):
                worst = max(worst, abs(x - y))
        assert worst <= 1e-12

    @pytest.mark.parametrize(
        "canonicalize, winner",
        [(canonicalize_expected_winner, LEFT), (canonicalize_expected_distortion, RIGHT)],
    )
    def test_voter_order_is_irrelevant(self, rng, canonicalize, winner):
        for _ in range(40):
            beta = random_beta(rng)
            single = random_leading_election(rng, beta, winner)
            # Doubling every voter adds ties that an index-ordered merge
            # would break by position in the list.
            for e in (single, LineElection(single.positions * 2)):
                form = canonicalize(e, beta)
                perm = rng.permutation(len(e))
                shuffled = LineElection([e.positions[k] for k in perm])
                moved = canonicalize(shuffled, beta)
                assert moved.applied and form.applied
                assert moved.election.positions == tuple(
                    form.election.positions[k] for k in perm
                )

    @pytest.mark.parametrize(
        "canonicalize, e, kind",
        [
            (canonicalize_expected_winner, LineElection([0.1, 0.1 + 5e-13, 2.0, 2.0]),
             "same_region_merge"),
            (canonicalize_expected_distortion, LineElection([1.2, 1.2 + 5e-13]),
             "D_geometric_merge"),
        ],
    )
    def test_tiny_spread_is_one_certified_step(self, canonicalize, e, kind):
        form = canonicalize(e, 1.0)
        assert form.applied
        assert [step.kind for step in form.steps] == [kind]
        assert form.steps[0].voters == (0, 1)
        assert len(form.certificates) == 2  # the step, then end to end
        assert all(c.passed for c in form.certificates)
        assert form.election.positions[0] == form.election.positions[1]

    @pytest.mark.parametrize(
        "canonicalize, e",
        [
            (canonicalize_expected_winner, LineElection([0.1, 0.1, 2.0, 2.0])),
            (canonicalize_expected_distortion, LineElection([1.2, 1.2, 1.2])),
        ],
    )
    def test_identical_voters_take_no_step(self, canonicalize, e):
        form = canonicalize(e, 1.0)
        assert form.applied
        assert form.steps == ()
        assert len(form.certificates) == 1
        assert form.election.positions == e.positions


class TestOneStepPerMoveKind:
    """Each move kind is one certified step, landing where the per-voter
    chain of :func:`reference_canonical_form` lands."""

    WINNER_KINDS = ["A_to_zero", "BC_pair", "same_region_merge", "same_region_merge"]
    EXPECTED_KINDS = ["A_to_B_map", "C_to_D_map", "D_geometric_merge"]

    @pytest.mark.parametrize("seed", [2, 5, 9001])
    def test_matches_per_voter_chain(self, seed):
        for canonicalize, e, beta, form in suite_forms(seed):
            # Doubling every voter gives tied positions and cost ratios.
            doubled = LineElection(e.positions * 2)
            for election, form in ((e, form), (doubled, canonicalize(doubled, beta))):
                reference = reference_canonical_form(canonicalize, election, beta)
                assert form.election.array.tobytes() == reference.election.array.tobytes()
                assert repr(form.certificates[-1]) == repr(reference.certificates[-1])
                assert len(form.steps) <= len(reference.steps)

    def test_small_elections_reuse_b_voters(self):
        # The suite samplers never draw more interior-C voters than B voters
        # (counting A voters, which land on 0), so the pairing's cyclic reuse
        # of B voters is searched for here: 0-1 A, 1-2 B, 2-4 interior-C
        # voters close to 1/2 and 1-2 D voters, at most 8 voters.
        rng = np.random.default_rng(20261018)
        reused = 0
        for _ in range(5000):
            beta = float(rng.choice([0.3, 0.6, 1.0]))
            counts = rng.integers([0, 1, 2, 1], [2, 3, 5, 3])
            spans = ((-0.5, 0.0), (0.0, 0.5), (0.5, 0.6), (1.0, 3.0))
            drawn = [rng.uniform(lo, hi, size=n) for (lo, hi), n in zip(spans, counts)]
            e = LineElection(np.concatenate(drawn))
            sc_left, sc_right = model.social_costs(e)
            if len(e) > 8 or not sc_right < sc_left:
                continue
            if model.expected_winner(e, beta) != LEFT:
                continue
            n_b = sum(1 for x in e.positions if x < 0.5)
            if sum(1 for x in e.positions if 0.5 < x < 1.0) <= n_b:
                continue
            reused += 1
            form = canonicalize_expected_winner(e, beta)
            assert all(c.passed for c in form.certificates)
            reference = reference_canonical_form(canonicalize_expected_winner, e, beta)
            assert all(c.passed for c in reference.certificates)
            assert form.election.array.tobytes() == reference.election.array.tobytes()
            assert repr(form.certificates[-1]) == repr(reference.certificates[-1])
        assert reused >= 200

    # Voter counts and position spans in regions A, B, C and D of 1,000
    # drawn voters, each taken twice so the pairing meets ties.
    LARGE = {
        "winner": (canonicalize_expected_winner, (100, 450, 150, 300),
                   ((-1.0, 0.0), (0.0, 0.5), (0.5, 1.0), (1.0, 3.0))),
        # More interior-C than B voters: the pairing reuses B voters.
        "winner_reuse": (canonicalize_expected_winner, (50, 250, 400, 300),
                         ((-0.3, 0.0), (0.0, 0.05), (0.5, 0.55), (2.0, 3.0))),
        "expected": (canonicalize_expected_distortion, (150, 100, 250, 500),
                     ((-1.0, 0.0), (0.25, 0.5), (0.5, 1.0), (1.0, 2.5))),
    }

    @pytest.mark.parametrize("beta", [0.5, 1.0])
    @pytest.mark.parametrize("case", sorted(LARGE))
    def test_large_election_takes_one_step_per_kind(self, rng, beta, case):
        canonicalize, counts, spans = self.LARGE[case]
        drawn = [rng.uniform(lo, hi, size=n) for n, (lo, hi) in zip(counts, spans)]
        e = LineElection(np.tile(np.concatenate(drawn), 2))
        assert len(e) == 2_000
        kinds = (
            self.WINNER_KINDS
            if canonicalize is canonicalize_expected_winner
            else self.EXPECTED_KINDS
        )
        form = canonicalize(e, beta)
        assert form.applied
        assert [step.kind for step in form.steps] == kinds
        assert len(form.certificates) == len(form.steps) + 1
        assert all(c.passed for c in form.certificates)
        reference = reference_canonical_form(canonicalize, e, beta, certify=False)
        assert form.election == reference.election
        if case == "expected":
            # Some C voters cross and some stay below the bar.
            assert 0 < len(form.steps[1].voters) < sum(0.5 < x < 1.0 for x in e.positions)
            assert any(0.5 < x < 1.0 for x in form.election.positions)

        perm = rng.permutation(len(e))
        shuffled = canonicalize(LineElection(e.array[perm]), beta)
        assert shuffled.election == LineElection(form.election.array[perm])
        assert [step.kind for step in shuffled.steps] == kinds
        assert repr(shuffled.certificates[-1]) == repr(form.certificates[-1])


class TestMediantIdentity:
    @given(
        st.floats(min_value=0.001, max_value=1000),
        st.floats(min_value=0.001, max_value=1000),
        st.floats(min_value=0.001, max_value=1000),
        st.floats(min_value=0.001, max_value=1000),
    )
    def test_mediant_pulls_ratio_down(self, a, b, c, d):
        # Meta-check of the arithmetic the certificates lean on: a mediant
        # lies strictly between its two parent ratios.  Exact rationals: in
        # floats, a / b and c / d can differ while the mediant rounds onto
        # one of them (a = 0.0010000000000000002, b = c = d = 0.001).
        a, b, c, d = map(Fraction, (a, b, c, d))
        if a / b <= c / d:
            return
        mediant = (a + c) / (b + d)
        assert mediant < a / b
        assert mediant > c / d
