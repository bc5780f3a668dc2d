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
* ``merge_same_region``  -- two voters in the same region (B or D) meet at
                             their midpoint;
* ``map_a_to_b``         -- an A voter crosses to the mirror point in B with
                             the exact same participation probability;
* ``map_c_to_d``         -- the analogous C-to-D crossing;
* ``merge_d_geometric``  -- two D voters meet where the odds factors
                             ``2x - 1`` average geometrically, preserving the
                             probability that both vote.

Every move can be certified numerically on a concrete election:
``certify_winner_displacement`` and ``certify_expected_displacement`` compare
the relevant quantity before and after, computed exactly.  The two
``canonicalize_*`` procedures crush an election into its extremal shape in
at most one certified step per move kind, measuring each election once, and
raise ``CertificateError`` on any certified regression (a bug, not a
property of the input).  Each region collapses to the limit of its pairwise
merges.  The C-to-D crossings are found in closed form: a crossing keeps the
voter's ratio ``x/(1-x)`` and scales its cost pair by ``1/(2x-1)``, so the
bar (the left candidate's distortion) moves to a mediant that rises toward
that ratio but never past it.  In ascending order every voter at or above
the starting bar crosses, and none below it can.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

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
        return self.metric_after >= self.metric_before - CERTIFICATE_TOL


@dataclass(frozen=True)
class CanonicalForm:
    """Result of a canonicalization.

    ``applied`` is False when the election was not in the configuration the
    procedure reduces (it is then returned unchanged).  ``certificates``
    holds one entry per step plus a final end-to-end certificate comparing
    input to output.
    """

    election: LineElection
    applied: bool
    steps: tuple[Displacement, ...]
    certificates: tuple[ValidityCertificate, ...]


def _measure_winner(e: LineElection, beta: float) -> tuple[str, float]:
    """The expected winner and its distortion (``nan`` on a tie)."""
    w = model.expected_winner(e, beta)
    return w, (model._candidate_distortion(e, w) if w != TIE else math.nan)


def _measure_expected(e: LineElection, beta: float) -> tuple[str, float]:
    """The expected winner and the expected distortion, exact at any size."""
    report = exact.expected_distortion(e, beta)
    return report.expected_winner, report.expected_distortion


def _certificate(before: tuple, after: tuple, preserving: bool) -> ValidityCertificate:
    (w_before, m_before), (w_after, m_after) = before, after
    return ValidityCertificate(w_before, w_after, m_before, m_after, preserving)


def certify_winner_displacement(
    before: LineElection, after: LineElection, beta: float
) -> ValidityCertificate:
    """Certificate that a move kept the expected winner and its distortion."""
    measured = _measure_winner(before, beta)
    if measured[0] == TIE:
        raise ValueError("cannot certify winner preservation from a tied election")
    return _certificate(measured, _measure_winner(after, beta), True)


def certify_expected_displacement(
    before: LineElection, after: LineElection, beta: float
) -> ValidityCertificate:
    """Certificate that a move did not decrease the expected distortion."""
    return _certificate(*(_measure_expected(x, beta) for x in (before, after)), False)


def _require_region(e: LineElection, i: int, wanted: str) -> float:
    x = e.positions[i]
    got = model.region_of(x)
    if got != wanted:
        raise ValueError(f"voter {i} at {x} is in region {got}, expected {wanted}")
    return x


def move_a_to_zero(e: LineElection, i: int) -> LineElection:
    """Move voter ``i`` from region A onto the left candidate."""
    _require_region(e, i, "A")
    return e.replace({i: 0.0})


def move_bc_pair(e: LineElection, i: int, j: int) -> LineElection:
    """Shift a B voter and an interior-C voter by equal, opposite amounts.

    When the B voter is at most as far from the left candidate as the C voter
    is from the right one, the pair closes up until the C voter sits at 1/2;
    otherwise until the C voter sits at 1.  Either way both social costs are
    untouched, and the left candidate's expected-vote lead cannot shrink.
    """
    xi = _require_region(e, i, "B")
    xj = _require_region(e, j, "C")
    if xj == 0.5:
        raise ValueError(f"voter {j} is exactly indifferent; no pair move applies")
    return e.replace(dict(zip((i, j), _bc_pair(xi, xj))))


def _bc_pair(xi: float, xj: float) -> tuple[float, float]:
    """Where a B voter at ``xi`` and a C voter at ``xj`` land."""
    if xi <= 1.0 - xj:
        return xi + xj - 0.5, 0.5
    return xi - 1.0 + xj, 1.0


def merge_same_region(e: LineElection, i: int, j: int) -> LineElection:
    """Move two voters of the same region (B or D) to their midpoint.

    Canonicalization applies the k-voter limit of these merges, the mean.
    """
    ri = model.region_of(e.positions[i])
    rj = model.region_of(e.positions[j])
    if ri != rj or ri not in ("B", "D"):
        raise ValueError(
            f"voters {i} and {j} must share region B or D, got {ri} and {rj}"
        )
    m = 0.5 * (e.positions[i] + e.positions[j])
    return e.replace({i: m, j: m})


def map_a_to_b(e: LineElection, i: int) -> LineElection:
    """Carry an A voter to the unique B point with equal participation.

    A voter at ``x < 0`` votes with probability ``(1 / (1 - 2x)) ** beta``;
    the point ``-x / (1 - 2x)`` in B yields exactly the same probability for
    every ``beta``, while both social costs drop.
    """
    return e.replace({i: _a_to_b(_require_region(e, i, "A"))})


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
    x = _require_region(e, j, "C")
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
    xi = _require_region(e, i, "D")
    xj = _require_region(e, j, "D")
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


class _Chain:
    """Bookkeeping for a certified sequence of displacements.

    Each election is measured once by ``measure``, when reached; each step's
    certificate pairs the last two measurements, and the end-to-end one the
    first and the last.
    """

    def __init__(self, e: LineElection, measure: Callable, winner_preserving: bool):
        self.current = e
        self.measure = measure
        self.winner_preserving = winner_preserving
        self.steps: list[Displacement] = []
        self.certificates: list[ValidityCertificate] = []
        self.origin = self.last = measure(e)

    def _certify(self, what: str, before: tuple) -> None:
        """Certify the last measurement against ``before``."""
        cert = _certificate(before, self.last, self.winner_preserving)
        self.certificates.append(cert)
        if not cert.passed:
            raise CertificateError(f"{what}: {cert}")

    def apply(self, kind: str, assignments: dict[int, float]) -> None:
        """Record and certify one step; an empty ``assignments`` is no step."""
        if not assignments:
            return
        nxt = self.current.replace(assignments)
        self.steps.append(
            Displacement(kind, tuple(assignments), tuple(assignments.values()))
        )
        before, self.last = self.last, self.measure(nxt)
        self._certify(f"displacement {kind} of {len(assignments)} voters regressed", before)
        self.current = nxt

    def finish(self) -> CanonicalForm:
        self._certify("end-to-end certificate failed", self.origin)
        return CanonicalForm(
            election=self.current,
            applied=True,
            steps=tuple(self.steps),
            certificates=tuple(self.certificates),
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
    beta = model.check_beta(beta)
    sc_left, sc_right = model.social_costs(e)
    if not sc_right < sc_left:
        return CanonicalForm(e, applied=False, steps=(), certificates=())
    chain = _Chain(e, lambda x: _measure_winner(x, beta), winner_preserving=True)
    if chain.origin[0] != LEFT:
        return CanonicalForm(e, applied=False, steps=(), certificates=())

    chain.apply("A_to_zero", {i: 0.0 for i in model._indices_in(e.positions, "A")})
    chain.apply("BC_pair", _bc_pairing(chain.current.positions))
    pos = chain.current.positions
    # [0, 1/2] is region B plus the midpoint, where the pair moves leave C voters.
    b_and_midpoint = [i for i, x in enumerate(pos) if 0.0 <= x <= 0.5]
    for members in (b_and_midpoint, model._indices_in(pos, "D")):
        merge = _collapse(chain.current.positions, members, _midpoint_limit)
        chain.apply("same_region_merge", merge)
    return chain.finish()


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
    beta = model.check_beta(beta)
    sc_left, sc_right = model.social_costs(e)
    if not sc_right < sc_left:
        return CanonicalForm(e, applied=False, steps=(), certificates=())
    chain = _Chain(e, lambda x: _measure_expected(x, beta), winner_preserving=False)
    if chain.origin[0] != RIGHT:
        return CanonicalForm(e, applied=False, steps=(), certificates=())

    pos = e.positions
    chain.apply("A_to_B_map", {i: _a_to_b(pos[i]) for i in model._indices_in(pos, "A")})
    pos = chain.current.positions
    chain.apply("C_to_D_map", {j: _c_to_d(pos[j]) for j in _crossers(chain.current)})
    pos = chain.current.positions
    merge = _collapse(pos, model._indices_in(pos, "D"), _geometric_limit)
    chain.apply("D_geometric_merge", merge)
    return chain.finish()
