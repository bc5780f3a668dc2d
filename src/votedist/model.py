"""Core model: two candidates on a line, voters who may abstain.

The two candidates sit at 0 (``left``) and 1 (``right``); voters are points
on the real line.  A voter with distances ``d_near <= d_far`` to her
preferred and non-preferred candidate casts a sincere vote with probability

    ((d_far - d_near) / (d_near + d_far)) ** beta

and abstains otherwise.  ``beta`` in [0, 1] tunes how strongly the relative
distance suppresses turnout: ``beta = 0`` means everyone with a strict
preference votes, ``beta = 1`` is the fully relative-distance model.  A voter
exactly halfway between the candidates has no sincere vote to cast and never
participates, for every ``beta`` including 0.

Social cost of a candidate is the summed voter distance to it; a candidate's
distortion is its social cost divided by the optimal candidate's.  The
expected winner maximizes the expected number of cast votes, and the expected
distortion weights each candidate's distortion by its probability of winning
the majority contest (ties broken by a fair coin).

A voter is fully described by her distance pair to the two candidates; a
line election's pairs are ``(|x|, |x - 1|)``, and metric elections
(:mod:`votedist.metric`) list theirs directly, so both kinds share every
evaluation path.  An election holds its voters as one validated, read-only
float64 array (``array``); the tuple views ``positions`` and ``pairs`` are
built only when read.

An election is evaluated along one of two paths, chosen by its size alone.
Above ``SCALAR_LIMIT`` voters it takes the array path: :func:`voter_arrays`
turns the distance arrays into numpy arrays of preferred sides and
participation probabilities.  Up to ``SCALAR_LIMIT`` voters numpy's per-call
cost would exceed the arithmetic, so distances, sides and totals are
computed in Python floats, and only the power that gives each participation
probability is one numpy call.  The operations are the same, so both paths
give the same floats bit for bit.

Everything here is an immutable value or a pure function; all types are safe
to share across threads.
"""

from __future__ import annotations

import math
import operator
import sys
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np

if TYPE_CHECKING:
    from .metric import MetricElection

__all__ = [
    "LEFT",
    "RIGHT",
    "TIE",
    "INDIFFERENT",
    "WINNER_TIE_TOL",
    "WINNER_TIE_EPS",
    "LineElection",
    "VoterProfile",
    "DistortionReport",
    "check_beta",
    "participation_probability",
    "profile",
    "voter_arrays",
    "region_of",
    "social_costs",
    "expected_votes",
    "expected_winner",
    "distortion_pair",
    "winner_distortion",
    "mirror",
]

LEFT = "left"
RIGHT = "right"
TIE = "tie"
INDIFFERENT = "indifferent"

_EPS = sys.float_info.epsilon

#: Elections of at most this many voters are evaluated in Python floats, here
#: and in :mod:`votedist.exact`, whose scalar PMF it also bounds.  On 2 cores
#: (Python 3.11, numpy 2.4.6) the scalar PMF beats the product tree up to
#: about 48 voters; with the PMFs fixed, evaluation in floats beats the
#: array path by 5-10% up to about 100 voters, so the PMF sets the limit.
SCALAR_LIMIT = 40

#: Absolute tolerance below which expected vote counts are reported as a tie.
WINNER_TIE_TOL = 1e-12

#: Tie tolerance relative to the total expected votes, in machine epsilons.
#: A participation probability comes from its distance pair through three
#: rounded operations (difference, sum, quotient; 1.5 eps of relative error)
#: and a power within one ulp (1 eps), and ``fsum`` rounds each total once
#: (0.5 eps).  Two totals equal in real arithmetic thus differ by at most
#: 3 eps times their sum once computed; 4 leaves room for second-order terms.
#: The bound takes the distance pairs as given: a distance that is itself
#: rounded, such as a line voter's ``|x - 1|``, moves p further, and without
#: bound in relative terms for voters near the midpoint, where the
#: difference of the two distances cancels.
WINNER_TIE_EPS = 4.0


def check_beta(beta: float) -> float:
    """Validate the participation parameter and return it as a float."""
    beta = float(beta)
    if not 0.0 <= beta <= 1.0:
        raise ValueError(f"beta must lie in [0, 1], got {beta}")
    return beta


def _check_count(name: str, value: int, least: int = 0) -> int:
    """Validate an integer input (a seed, a count or a size) named ``name``:
    an integer but not a bool, at least ``least``; return it as an int."""
    try:
        if isinstance(value, bool):
            raise TypeError
        index = operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None
    if index < least:
        raise ValueError(f"{name} must be >= {least}, got {value!r}")
    return index


class _VoterArray:
    """One read-only float64 array of voters (``array``), with value semantics.

    Subclasses give the shape of one voter's row (``_ROW``), check the array
    (``_check``) and name their tuple view of it (``_VIEW``), built on first
    access; equality, hashing and ``repr`` match a frozen dataclass with that
    one field.  Distances and social costs are computed once per election.
    """

    def __init__(self, values: Iterable):
        if not isinstance(values, (np.ndarray, list, tuple)):
            values = list(values)
        a = np.array(values, dtype=float)
        if not len(a):
            raise ValueError("an election needs at least one voter")
        if a.shape[1:] != self._ROW:
            raise ValueError(f"expected voter rows of shape {self._ROW}, got {a.shape}")
        self._check(a)
        self._store(a)

    def _store(self, values: np.ndarray) -> None:
        values.flags.writeable = False
        self.__dict__["array"] = values

    @classmethod
    def _trusted(cls, values: np.ndarray):
        """Election over an array its caller has already validated."""
        e = object.__new__(cls)
        e._store(values)
        return e

    def distances(self) -> tuple[np.ndarray, np.ndarray]:
        """Every voter's distance to the left and to the right candidate."""
        return self._distances

    @cached_property
    def _distance_lists(self) -> tuple[list[float], list[float]]:
        return tuple(d.tolist() for d in self._distances)

    @cached_property
    def _social_costs(self) -> tuple[float, float]:
        if len(self) <= SCALAR_LIMIT:
            d_left, d_right = self._distance_lists
        else:
            d_left, d_right = (d.tolist() for d in self._distances)
        try:
            return math.fsum(d_left), math.fsum(d_right)
        except OverflowError:
            raise ValueError("the social costs exceed the float range") from None

    def __len__(self) -> int:
        return len(self.array)

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        a, b = self.array, other.array
        return a.shape == b.shape and bool((a == b).all())

    def __hash__(self) -> int:
        return hash((getattr(self, self._VIEW),))

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self._VIEW}={getattr(self, self._VIEW)!r})"

    def __reduce__(self):  # pickle and copy rebuild through the constructor
        return type(self), (self.array,)

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} is immutable")

    __delattr__ = __setattr__


class LineElection(_VoterArray):
    """Voter positions on the line, in units of the candidate gap.

    Candidates are implicit: ``left`` at 0 and ``right`` at 1.  Positions may
    be any finite reals; at least one voter is required.  ``array`` has shape
    ``(n,)``; ``positions`` is the tuple of floats, built on first access.
    """

    _VIEW = "positions"
    _ROW = ()

    @staticmethod
    def _check(x: np.ndarray) -> None:
        if not np.isfinite(x).all():
            i = int(np.flatnonzero(~np.isfinite(x))[0])
            raise ValueError(f"voter {i} has non-finite position {float(x[i])!r}")

    @cached_property
    def positions(self) -> tuple[float, ...]:
        return tuple(self.array.tolist())

    @cached_property
    def _distances(self) -> tuple[np.ndarray, np.ndarray]:
        d = np.abs(np.array([self.array, self.array - 1.0]))
        d.flags.writeable = False
        return d[0], d[1]

    @cached_property
    def _distance_lists(self) -> tuple[list[float], list[float]]:
        return _line_distances(self.array.tolist())

    def replace(self, assignments: dict[int, float]) -> "LineElection":
        """Copy of the election with the given voters moved to new positions.

        Only the moved voters are validated; the others were checked when
        this election was built.
        """
        x = self.array.copy()
        for i, v in assignments.items():
            v = float(v)
            if not math.isfinite(v):
                raise ValueError(f"voter {i} has non-finite position {v!r}")
            x[i] = v
        return LineElection._trusted(x)


def _line_distances(x: list[float]) -> tuple[list[float], list[float]]:
    """Distances of positions ``x`` to the left and the right candidate."""
    return [abs(v) for v in x], [abs(v - 1.0) for v in x]


@dataclass(frozen=True)
class VoterProfile:
    """A voter's preferred candidate and participation probability.

    ``preferred`` is ``left``, ``right`` or ``indifferent``; an indifferent
    voter always has participation 0.
    """

    preferred: str
    participation: float


@dataclass(frozen=True)
class DistortionReport:
    """Full evaluation of one election at one ``beta``.

    Distortions are at least 1, with ``inf`` when the optimal candidate has
    zero social cost and the other does not.  ``expected_winner`` is ``tie``
    when the expected vote counts agree within the tie tolerance of
    :func:`expected_winner`.
    """

    sc_left: float
    sc_right: float
    optimal: str
    dist_left: float
    dist_right: float
    expected_votes_left: float
    expected_votes_right: float
    expected_winner: str
    win_prob_left: float
    win_prob_right: float
    expected_distortion: float


def participation_probability(d_near: float, d_far: float, beta: float) -> float:
    """Probability that a voter with these candidate distances casts a vote.

    Parameters
    ----------
    d_near, d_far : float
        Distances to the preferred and the other candidate.  Must be
        finite, nonnegative and not both zero.
    beta : float
        Participation parameter in [0, 1].

    Returns
    -------
    float
        ``(|d_near - d_far| / (d_near + d_far)) ** beta``; equidistant voters
        get 0 for every ``beta``, including 0.
    """
    beta = check_beta(beta)
    if not (0 <= d_near < math.inf and 0 <= d_far < math.inf):
        raise ValueError("distances must be nonnegative and finite")
    if d_near == 0 and d_far == 0:
        raise ValueError("distances must not both be zero")
    if d_near == d_far:
        return 0.0
    if beta == 0.0:
        return 1.0
    return (abs(d_far - d_near) / (d_near + d_far)) ** beta


def profile(x: float, beta: float) -> VoterProfile:
    """Preference and participation of a voter at position ``x``.

    The scalar reference for :func:`voter_arrays`, which the engines use.
    """
    if not math.isfinite(x):
        raise ValueError(f"position must be finite, got {x!r}")
    d_left = abs(x)
    d_right = abs(x - 1.0)
    if x == 0.5:
        return VoterProfile(INDIFFERENT, 0.0)
    preferred = LEFT if x < 0.5 else RIGHT
    p = participation_probability(min(d_left, d_right), max(d_left, d_right), beta)
    return VoterProfile(preferred, p)


def voter_arrays(d_left, d_right, beta: float) -> tuple[np.ndarray, np.ndarray]:
    """Preferred side and participation probability of every voter.

    The array path of the engines, for elections above ``SCALAR_LIMIT``
    voters.  Takes the voters' distances to the left and the right
    candidate, as from ``election.distances()``.  ``side`` is -1 (left), +1 (right) or 0
    (indifferent); ``p`` is :func:`participation_probability`, so an
    indifferent voter gets 0 for every ``beta``, including 0.  Line voters
    so far out that both distances round to the same float (``|x| >= 2**53``)
    come out indifferent; :func:`profile` gives them a side, also with p = 0.
    """
    beta = check_beta(beta)
    d_left = np.asarray(d_left, dtype=float)
    d_right = np.asarray(d_right, dtype=float)
    total = d_left + d_right
    # Plain ufunc reductions: np.all or ndarray.min would cost more than the
    # rest of the call on a small election.
    lowest = np.minimum.reduce
    near = lowest(np.minimum(d_left, d_right), axis=None, initial=np.inf)
    if not (near >= 0.0 and lowest(total, axis=None, initial=np.inf) > 0.0):
        raise ValueError("distances must be nonnegative and not both zero")
    diff = d_left - d_right
    side = np.sign(diff).astype(int)
    if beta == 0.0:
        p = np.abs(side).astype(float)
    else:
        p = (np.abs(diff) / total) ** beta
    return side, p


# Regions A, B, C and D as half-open intervals [lo, hi) of positions.  C
# holds only its interior (1/2, 1), as 1/2 is indifferent: no float lies
# strictly between 1/2 and its successor.  :func:`region_of` puts 1/2 in C.
_REGIONS = {
    "A": (-math.inf, 0.0),
    "B": (0.0, 0.5),
    "C": (math.nextafter(0.5, 1.0), 1.0),
    "D": (1.0, math.inf),
}


def region_of(x: float) -> str:
    """Classify a position into region A, B, C or D.

    The line splits at the candidates and their midpoint; boundaries follow
    the half-open convention A = (-inf, 0), B = [0, 1/2), C = [1/2, 1),
    D = [1, inf).
    """
    if not math.isfinite(x):
        raise ValueError(f"position must be finite, got {x!r}")
    for region, (lo, hi) in _REGIONS.items():
        if lo <= x < hi:
            return region
    return "C"  # the midpoint


def _indices_in(positions: Sequence[float], region: str) -> list[int]:
    """Indices of the finite ``positions`` in ``region`` of ``_REGIONS``."""
    lo, hi = _REGIONS[region]
    return [i for i, x in enumerate(positions) if lo <= x < hi]


# Line and metric elections both expose ``distances()``; the functions below
# take either.  Sums use ``math.fsum``, which rounds the exact sum once, so no
# result or verdict depends on the order of the voters.  It is fed lists,
# which it reads faster than arrays.


def _sides(
    e: LineElection | MetricElection, beta: float
) -> tuple[list[float], list[float]] | tuple[np.ndarray, np.ndarray]:
    """Participation probabilities of the voters preferring left, and right.

    Picks the evaluation path: lists of Python floats from
    :func:`_scalar_sides` for an election of at most ``SCALAR_LIMIT`` voters,
    arrays from :func:`voter_arrays` above it.
    """
    if len(e) > SCALAR_LIMIT:
        side, p = voter_arrays(*e.distances(), beta)
        return p[side < 0], p[side > 0]
    return _scalar_sides(*e._distance_lists, check_beta(beta))


def _scalar_sides(
    d_left: list[float], d_right: list[float], beta: float
) -> tuple[list[float], list[float]]:
    """:func:`_sides` on the lists of the voters' distances, for a checked beta.

    Repeats each rounded operation of :func:`voter_arrays` and calls numpy
    for the power alone, so both give the same floats in the same voter
    order, and raise the same errors.
    """
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


def social_costs(e: LineElection | MetricElection) -> tuple[float, float]:
    """Summed voter distances to the left and right candidate."""
    return e._social_costs


def expected_votes(e: LineElection | MetricElection, beta: float) -> tuple[float, float]:
    """Expected number of cast votes for each candidate."""
    return _votes(*_sides(e, beta))


def _votes(left, right) -> tuple[float, float]:
    """Summed participation of each side, given as by :func:`_sides`."""
    if isinstance(left, np.ndarray):
        left, right = left.tolist(), right.tolist()
    return math.fsum(left), math.fsum(right)


def _winner(votes_left: float, votes_right: float) -> str:
    tol = max(WINNER_TIE_TOL, WINNER_TIE_EPS * _EPS * (votes_left + votes_right))
    if abs(votes_left - votes_right) <= tol:
        return TIE
    return LEFT if votes_left > votes_right else RIGHT


def expected_winner(e: LineElection | MetricElection, beta: float) -> str:
    """Candidate with the larger expected vote count, or ``tie``.

    Counts within ``max(WINNER_TIE_TOL, WINNER_TIE_EPS * eps * (L + R))`` of
    each other are reported as a tie rather than broken silently, so counts
    that tie in real arithmetic, given the voters' distance pairs, read
    ``tie`` at any size; callers pick their own tie policy.
    """
    return _winner(*expected_votes(e, beta))


def distortion_pair(sc_left: float, sc_right: float) -> tuple[str, float, float]:
    """Optimal candidate and both distortions for the given social costs.

    Degenerate costs follow fixed conventions: both zero means both
    distortions are 1; a zero-cost optimum against a positive cost yields an
    infinite distortion for the other candidate.  An exact cost tie reports
    ``left`` as optimal (both distortions are 1, so the label is cosmetic).
    """
    if not (0 <= sc_left < math.inf and 0 <= sc_right < math.inf):
        raise ValueError("social costs must be nonnegative and finite")
    if sc_left == 0.0 and sc_right == 0.0:
        return LEFT, 1.0, 1.0
    optimal = LEFT if sc_left <= sc_right else RIGHT
    sc_opt = min(sc_left, sc_right)
    if sc_opt == 0.0:
        return optimal, (1.0 if optimal == LEFT else math.inf), (
            1.0 if optimal == RIGHT else math.inf
        )
    return optimal, sc_left / sc_opt, sc_right / sc_opt


def _report(
    e: LineElection | MetricElection,
    votes: tuple[float, float],
    win_probs: Sequence[float],
) -> DistortionReport:
    """The full report of ``e`` given its expected votes and win probabilities.

    ``win_probs`` is the pair (P(left wins), P(right wins)); it must sum to
    1.  The expected distortion weights each candidate's distortion by its
    win probability, with zero-probability candidates contributing nothing
    even when their distortion is infinite.  The expected winner comes from
    the same expected vote counts the report lists.
    """
    p_left, p_right = float(win_probs[0]), float(win_probs[1])
    if not (p_left >= 0 and p_right >= 0 and abs(p_left + p_right - 1.0) <= 1e-9):
        raise ValueError(f"win probabilities must sum to 1, got {win_probs!r}")
    sc_left, sc_right = social_costs(e)
    optimal, dist_left, dist_right = distortion_pair(sc_left, sc_right)
    ev_left, ev_right = votes
    dbar = 0.0
    if p_left > 0.0:
        dbar += p_left * dist_left
    if p_right > 0.0:
        dbar += p_right * dist_right
    # The win probabilities may sum to a hair below or above 1; a weighted
    # mean of the two distortions lies between them.
    dbar = min(max(dbar, min(dist_left, dist_right)), max(dist_left, dist_right))
    return DistortionReport(
        sc_left=sc_left,
        sc_right=sc_right,
        optimal=optimal,
        dist_left=dist_left,
        dist_right=dist_right,
        expected_votes_left=ev_left,
        expected_votes_right=ev_right,
        expected_winner=_winner(ev_left, ev_right),
        win_prob_left=p_left,
        win_prob_right=p_right,
        expected_distortion=dbar,
    )


def winner_distortion(e: LineElection | MetricElection, beta: float) -> float:
    """Distortion of the expected winner.

    Raises if the expected vote counts tie; there is then no single winner to
    take the distortion of.
    """
    w = expected_winner(e, beta)
    if w == TIE:
        raise ValueError("expected vote counts tie; no unique expected winner")
    return _candidate_distortion(e, w)


def _candidate_distortion(e: LineElection | MetricElection, candidate: str) -> float:
    """Distortion of the ``left`` or the ``right`` candidate."""
    if candidate not in (LEFT, RIGHT):
        raise ValueError(f"candidate must be {LEFT!r} or {RIGHT!r}, got {candidate!r}")
    _, dist_left, dist_right = distortion_pair(*social_costs(e))
    return dist_left if candidate == LEFT else dist_right


def mirror(e: LineElection) -> LineElection:
    """Reflect every voter through the midpoint (x -> 1 - x).

    Swaps the roles of the two candidates: social costs, expected vote counts
    and win probabilities all trade places under this map.
    """
    return LineElection(1.0 - e.array)
