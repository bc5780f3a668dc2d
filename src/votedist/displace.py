"""Valid displacements: voter moves that cannot improve an election.

A displacement relocates one or two voters.  It is *valid* for the
expected-winner analysis when it preserves the expected winner and does not
decrease that winner's distortion, and valid for the expected-distortion
analysis when it does not decrease the expected distortion.  The moves here
are the constructive ones:

* ``move_a_to_zero``     -- an A voter jumps to the left candidate;
* ``move_bc_pair``       -- a B voter and a C voter shift by equal and
                             opposite amounts until the C voter reaches 1/2
                             or 1;
* ``merge_same_region``  -- two voters in [0, 1/2] (region B or the
                             midpoint) or two in D meet at their midpoint;
* ``map_a_to_b``         -- an A voter crosses to the mirror point in B with
                             the exact same participation probability;
* ``map_c_to_d``         -- the analogous C-to-D crossing;
* ``merge_d_geometric``  -- two D voters meet where the odds factors
                             ``2x - 1`` average geometrically, preserving the
                             probability that both vote.

A voter index must be an integer (not a bool) from 0 to ``len(e) - 1``, and
a pair merge takes two different voters; anything else raises
``ValueError`` naming ``i`` or ``j``.

Every move can be certified numerically on a concrete election:
``certify_winner_displacement`` and ``certify_expected_displacement`` compare
the relevant quantity before and after, computed exactly; the audit
certifies many small moves at once from one batch of reports, with the same
rules and the same certificates.  The two
``canonicalize_*`` procedures crush an election into its extremal shape.
Each is a fixed table of certified steps, at most 4 for the winner form and
3 for the expected form, run by one loop that measures each election once
and raises ``CertificateError`` on any certified regression (a bug, not a
property of the input).  Each region collapses to the limit of its pairwise
merges.  The C-to-D crossings are found in closed form: a crossing keeps the
voter's ratio ``x/(1-x)`` and scales its cost pair by ``1/(2x-1)``, so the
bar (the left candidate's distortion) moves to a mediant that rises toward
that ratio but never past it.  In ascending order every voter at or above
the starting bar crosses, and none below it can.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Iterable

from . import exact, model
from .model import LEFT, RIGHT, TIE, LineElection

__all__ = [
    "CERTIFICATE_TOL",
    "CertificateError",
    "Displacement",
    "ValidityCertificate",
    "CanonicalForm",
    "certify_winner_displacement",
    "certify_expected_displacement",
    "move_a_to_zero",
    "move_bc_pair",
    "merge_same_region",
    "map_a_to_b",
    "map_c_to_d",
    "merge_d_geometric",
    "canonicalize_expected_winner",
    "canonicalize_expected_distortion",
]

#: Certified quantities may drift below their predecessor by at most this.
CERTIFICATE_TOL = 1e-9


class CertificateError(RuntimeError):
    """A displacement chain produced a certified regression."""


@dataclass(frozen=True)
class Displacement:
    """One applied move: its kind, the voters touched, their new positions."""

    kind: str
    voters: tuple[int, ...]
    targets: tuple[float, ...]


@dataclass(frozen=True)
class ValidityCertificate:
    """Before/after record for one displacement.

    ``metric`` is the distortion of the expected winner for winner-preserving
    moves and the expected distortion otherwise.
    """

    winner_before: str
    winner_after: str
    metric_before: float
    metric_after: float
    winner_preserving: bool

    @property
    def passed(self) -> bool:
        if self.winner_preserving and self.winner_after != self.winner_before:
            return False
        return model._within(-self.metric_after, -self.metric_before, CERTIFICATE_TOL)


@dataclass(frozen=True)
class CanonicalForm:
    """Result of a canonicalization.

    ``certificates`` holds one entry per step plus a final end-to-end
    certificate comparing input to output.  ``applied`` follows from them:
    it is False, and there are no certificates, when the election was not
    in the configuration the procedure reduces (it is then returned
    unchanged).
    """

    election: LineElection
    applied: bool = field(init=False)
    steps: tuple[Displacement, ...]
    certificates: tuple[ValidityCertificate, ...]

    def __post_init__(self):
        object.__setattr__(self, "applied", bool(self.certificates))


def _winner_metric(winner: str, dist_left: float, dist_right: float) -> tuple[str, float]:
    """The expected winner and its distortion (``nan`` on a tie)."""
    return winner, (dist_left if winner == LEFT else dist_right if winner == RIGHT else math.nan)


def _measure_winner(e: LineElection, beta: float) -> tuple[str, float]:
    """:func:`_winner_metric` of ``e`` at ``beta``."""
    winner = model.expected_winner(e, beta)
    _, dist_left, dist_right = model.distortion_pair(*model.social_costs(e))
    return _winner_metric(winner, dist_left, dist_right)


def _expected_metric(report: model.DistortionReport) -> tuple[str, float]:
    """The expected winner and the expected distortion of a report."""
    return report.expected_winner, report.expected_distortion


def _measure_expected(e: LineElection, beta: float) -> tuple[str, float]:
    """:func:`_expected_metric` of ``e`` at ``beta``, exact at any size."""
    return _expected_metric(exact.expected_distortion(e, beta))


def _certificate(
    before: tuple, after: tuple, preserving: bool, failure: str | None = None
) -> ValidityCertificate:
    """The certificate of two ``(winner, metric)`` measurements; with a
    ``failure`` message, a regression raises ``CertificateError`` instead.
    A winner-preserving move cannot be certified from a tie."""
    (w_before, m_before), (w_after, m_after) = before, after
    if preserving and w_before == TIE:
        raise ValueError("cannot certify winner preservation from a tied election")
    cert = ValidityCertificate(w_before, w_after, m_before, m_after, preserving)
    if failure is not None and not cert.passed:
        raise CertificateError(f"{failure}: {cert}")
    return cert


def certify_winner_displacement(
    before: LineElection, after: LineElection, beta: float
) -> ValidityCertificate:
    """Certificate that a move kept the expected winner and its distortion."""
    return _certificate(*(_measure_winner(x, beta) for x in (before, after)), True)


def certify_expected_displacement(
    before: LineElection, after: LineElection, beta: float
) -> ValidityCertificate:
    """Certificate that a move did not decrease the expected distortion."""
    return _certificate(*(_measure_expected(x, beta) for x in (before, after)), False)


def _certify_moves(
    befores: list[LineElection], afters: list[LineElection], betas: list[float], preserving: bool
) -> list[ValidityCertificate]:
    """The certificates the public certifiers give each move ``befores[i]`` to
    ``afters[i]`` at ``betas[i]``, from one batch of reports
    (``exact._reports``), for elections of at most ``model.SCALAR_LIMIT``
    voters.  ``preserving`` picks the winner certificate."""
    reports = exact._reports([*befores, *afters], [*betas, *betas])
    if preserving:
        measured = [_winner_metric(r.expected_winner, r.dist_left, r.dist_right) for r in reports]
    else:
        measured = [_expected_metric(r) for r in reports]
    k = len(befores)
    return [_certificate(b, a, preserving) for b, a in zip(measured[:k], measured[k:])]


def _voter(e: LineElection, name: str, index: int, region: str | None = None) -> tuple[int, float]:
    """The argument ``name``, a voter index of ``e``, as an int, and the
    voter's position, which must lie in ``region`` when one is given."""
    index = model._check_count(name, index)
    if index >= len(e):
        raise ValueError(f"{name} must be < {len(e)}, got {index}")
    x = e.positions[index]
    if region is not None and (got := model.region_of(x)) != region:
        raise ValueError(f"voter {index} at {x} is in region {got}, expected {region}")
    return index, x


def _two_voters(e: LineElection, i: int, j: int, region: str | None = None) -> tuple:
    """:func:`_voter` of ``i`` and of ``j``, which must be two voters."""
    (i, xi), (j, xj) = _voter(e, "i", i, region), _voter(e, "j", j, region)
    if i == j:
        raise ValueError(f"j must differ from i, got {j} for both")
    return (i, xi), (j, xj)


def move_a_to_zero(e: LineElection, i: int) -> LineElection:
    """Move voter ``i`` from region A onto the left candidate."""
    i, _ = _voter(e, "i", i, "A")
    return e.replace({i: 0.0})


def move_bc_pair(e: LineElection, i: int, j: int) -> LineElection:
    """Shift a B voter and an interior-C voter by equal, opposite amounts.

    When the B voter is at most as far from the left candidate as the C voter
    is from the right one, the pair closes up until the C voter sits at 1/2;
    otherwise until the C voter sits at 1.  Either way both social costs are
    untouched, and the left candidate's expected-vote lead cannot shrink.
    """
    (i, xi), (j, xj) = _voter(e, "i", i, "B"), _voter(e, "j", j, "C")
    if xj == 0.5:
        raise ValueError(f"voter {j} is exactly indifferent; no pair move applies")
    return e.replace(dict(zip((i, j), _bc_pair(xi, xj))))


def _bc_pair(xi: float, xj: float) -> tuple[float, float]:
    """Where a B voter at ``xi`` and a C voter at ``xj`` land."""
    if xi <= 1.0 - xj:
        return xi + xj - 0.5, 0.5
    return xi - 1.0 + xj, 1.0


def merge_same_region(e: LineElection, i: int, j: int) -> LineElection:
    """Move two voters of [0, 1/2] or two of region D to their midpoint.

    [0, 1/2] is region B and the midpoint, where the pair moves leave C
    voters.  On either span both distances are linear in the position, so
    both social costs are kept.  The left candidate's lead cannot shrink: on
    [0, 1/2] its participation ``(1 - 2x)^beta`` is concave and the right
    candidate's is 0, and in D the right candidate's ``(2x - 1)^-beta`` is
    convex.
    Canonicalization applies the k-voter limit of these merges, the mean.
    """
    (i, xi), (j, xj) = _two_voters(e, i, j)
    low, high = min(xi, xj), max(xi, xj)
    if not (0.0 <= low and high <= 0.5 or low >= 1.0):
        raise ValueError(f"voters {i} and {j} must share [0, 1/2] or region D, got {xi} and {xj}")
    m = 0.5 * (xi + xj)
    return e.replace({i: m, j: m})


def map_a_to_b(e: LineElection, i: int) -> LineElection:
    """Carry an A voter to the unique B point with equal participation.

    A voter at ``x < 0`` votes with probability ``(1 / (1 - 2x)) ** beta``;
    the point ``-x / (1 - 2x)`` in B yields exactly the same probability for
    every ``beta``, while both social costs drop.
    """
    i, x = _voter(e, "i", i, "A")
    return e.replace({i: _a_to_b(x)})


def _a_to_b(x: float) -> float:
    return -x / (1.0 - 2.0 * x)


def map_c_to_d(e: LineElection, j: int) -> LineElection:
    """Carry an interior-C voter to the unique D point with equal participation.

    The image of ``x`` is ``x / (2x - 1)``, the mirror of the A-to-B map.
    Exactly indifferent voters (x = 1/2) are rejected; they have no preferred
    candidate whose vote probability could be preserved.

    Unlike the A-to-B crossing, this move is *conditionally* valid: it scales
    the voter's cost pair up in the ratio ``x / (1 - x)``, so it cannot lower
    the expected distortion exactly when that ratio is at least the left
    candidate's distortion.  Below that threshold the move provably lowers
    the left candidate's distortion (win probabilities are untouched), and a
    certificate will fail.  The move keeps the ratio and scales the cost
    pair by ``1/(2x-1)``, so the bar moves to a mediant that rises toward the
    ratio but never past it: :func:`canonicalize_expected_distortion` crosses,
    in one step, exactly the voters whose ratio reaches the starting bar.
    """
    j, x = _voter(e, "j", j, "C")
    if x == 0.5:
        raise ValueError(f"voter {j} is exactly indifferent; no D image exists")
    return e.replace({j: _c_to_d(x)})


def _c_to_d(x: float) -> float:
    return x / (2.0 * x - 1.0)


def _crossers(e: LineElection) -> list[int]:
    """The interior-C voters of ``e`` that may cross to D: those whose cost
    ratio ``x/(1-x)`` reaches the left candidate's distortion, the bar."""
    bar, pos = model._candidate_distortion(e, LEFT), e.positions
    return [j for j in model._indices_in(pos, "C") for x in (pos[j],) if x / (1.0 - x) >= bar]


def merge_d_geometric(e: LineElection, i: int, j: int) -> LineElection:
    """Merge two D voters at the geometric mean of their odds factors.

    Both land at ``t = (sqrt((2 x_i - 1)(2 x_j - 1)) + 1) / 2``, which lies
    between them.  The probability that both vote is exactly preserved;
    probability mass moves only from "exactly one votes" to "neither votes".
    Canonicalization applies the k-voter limit of these merges, which keep
    the product of the odds factors: ``(1 + (prod (2 x - 1)) ** (1/k)) / 2``.
    """
    (i, xi), (j, xj) = _two_voters(e, i, j, "D")
    t = 0.5 * (math.sqrt((2.0 * xi - 1.0) * (2.0 * xj - 1.0)) + 1.0)
    return e.replace({i: t, j: t})


def _midpoint_limit(xs: list[float]) -> float:
    """Limit of repeated midpoint merges: the mean."""
    return math.fsum(xs) / len(xs)


def _geometric_limit(xs: list[float]) -> float:
    """Limit of repeated geometric D merges: the geometric mean of the odds."""
    log_odds = math.fsum(math.log(2.0 * x - 1.0) for x in xs)
    return 0.5 * (1.0 + math.exp(log_odds / len(xs)))


def _collapse(
    positions: tuple[float, ...],
    members: list[int],
    limit: Callable[[list[float]], float],
) -> dict[int, float]:
    """Move the ``members`` to the limit of their pairwise merges (none if equal)."""
    xs = [positions[i] for i in members]
    if len(set(xs)) < 2:
        return {}
    t = min(max(limit(xs), min(xs)), max(xs))  # rounding stays in the span
    return {i: t for i in members}


def _bc_pairing(positions: tuple[float, ...]) -> dict[int, float]:
    """Where the pair moves leave the B and interior-C voters.

    C voters are taken farthest from 1/2 first, each paired with the next
    B voter from the left candidate outward, reusing B voters cyclically
    from their moved positions.
    """
    c_voters = model._indices_in(positions, "C")
    c_voters.sort(key=lambda j: -positions[j])
    b_voters = model._indices_in(positions, "B")
    b_voters.sort(key=lambda i: positions[i])
    if c_voters and not b_voters:
        # Unreachable when left leads on expected votes: an interior-C voter
        # gives the right candidate positive expected votes, so the left
        # candidate needs a B voter to lead at all.
        raise ValueError("no B voter available to pair against region C")
    moved: dict[int, float] = {}
    for k, j in enumerate(c_voters):
        i = b_voters[k % len(b_voters)]
        moved[i], moved[j] = _bc_pair(moved.get(i, positions[i]), positions[j])
    return dict(sorted(moved.items()))


def _canonical_form(
    e: LineElection, beta: float, leader: str, measure: Callable, preserving: bool, steps: Iterable
) -> CanonicalForm:
    """Run a table of ``(kind, step)`` pairs as one certified chain.

    Applies only when the right candidate is strictly optimal and ``leader``
    is the expected winner of ``e``; otherwise ``e`` passes through with
    ``applied=False``.  Each ``step`` maps the current election to the
    positions it assigns, and an empty dict records no step.  Each election
    is measured once, when reached: each step's certificate pairs the last
    two measurements, and the end-to-end one the first and the last.
    """
    beta = model.check_beta(beta)
    sc_left, sc_right = model.social_costs(e)
    if not sc_right < sc_left or (origin := measure(e, beta))[0] != leader:
        return CanonicalForm(e, (), ())
    last, done, certificates = origin, [], []
    for kind, step in steps:
        assignments = step(e)
        if not assignments:
            continue
        e = e.replace(assignments)
        done.append(Displacement(kind, tuple(assignments), tuple(assignments.values())))
        before, last = last, measure(e, beta)
        failure = f"displacement {kind} of {len(assignments)} voters regressed"
        certificates.append(_certificate(before, last, preserving, failure))
    certificates.append(_certificate(origin, last, preserving, "end-to-end certificate failed"))
    return CanonicalForm(e, tuple(done), tuple(certificates))


# The steps read the helpers when called, so that a patched helper is used.
_WINNER_STEPS = (
    ("A_to_zero", lambda e: {i: 0.0 for i in model._indices_in(e.positions, "A")}),
    ("BC_pair", lambda e: _bc_pairing(e.positions)),
    # [0, 1/2], where merge_same_region applies: region B and the midpoint.
    ("same_region_merge", lambda e: _collapse(
        e.positions, [i for i, x in enumerate(e.positions) if 0.0 <= x <= 0.5], _midpoint_limit
    )),
    ("same_region_merge",
     lambda e: _collapse(e.positions, model._indices_in(e.positions, "D"), _midpoint_limit)),
)

_EXPECTED_STEPS = (
    ("A_to_B_map",
     lambda e: {i: _a_to_b(e.positions[i]) for i in model._indices_in(e.positions, "A")}),
    ("C_to_D_map", lambda e: {j: _c_to_d(e.positions[j]) for j in _crossers(e)}),
    ("D_geometric_merge",
     lambda e: _collapse(e.positions, model._indices_in(e.positions, "D"), _geometric_limit)),
)


def canonicalize_expected_winner(e: LineElection, beta: float) -> CanonicalForm:
    """Reduce an election to two points without lowering D(expected winner).

    Applies only when the left candidate is strictly the expected winner and
    the right candidate is strictly optimal; anything else passes through
    with ``applied=False``.  In one step each, region A empties onto 0, the
    interior of C onto {1/2, 1} by B-C pair moves, and everything in [0, 1/2]
    and in [1, inf) collapses to its mean: at most four steps, leaving two
    distinct positions, one in B (or at 1/2) and one in D.
    """
    return _canonical_form(e, beta, LEFT, _measure_winner, True, _WINNER_STEPS)


def canonicalize_expected_distortion(e: LineElection, beta: float) -> CanonicalForm:
    """Empty region A, drain C where valid, fuse D; never lowering D-bar.

    Applies when the right candidate is strictly optimal and strictly the
    expected winner; anything else passes through with ``applied=False``.
    All A voters cross at once to their participation-preserving B images.
    An interior-C voter may cross to its D image only when its cost ratio
    ``x / (1 - x)`` is at least the left candidate's current distortion;
    crossing below that bar would lower the expected distortion (see
    :func:`map_c_to_d`).  A crossing moves the bar to a mediant that rises
    toward the crosser's ratio but never past it, so crossing one by one in
    ascending order would move every voter at or above the post-A bar and
    none below it.  That set crosses in one step.  Finally the D mass
    contracts in one step to the limit of its geometric merges: at most
    three certified steps at any size, each certificate exact.

    On return, region A and the movable part of C are empty, D holds at most
    one distinct position, and any interior-C voter left behind sits strictly
    below the final bar.  Voters exactly at 1/2 always stay put: they never
    vote and no crossing is defined for them.
    """
    return _canonical_form(e, beta, RIGHT, _measure_expected, False, _EXPECTED_STEPS)
