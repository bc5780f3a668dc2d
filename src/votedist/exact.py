"""Exact win probabilities via the vote-count distribution.

Each candidate's vote count is a sum of independent Bernoulli indicators
(one per voter preferring it), i.e. a Poisson-binomial variable.  The PMF is
built by iterative convolution, which is exact in double precision and fast
enough for tens of thousands of voters.  Majority ties resolve by a fair
coin, folded into the win probability as half the tie mass rather than
simulated.

``enumerate_oracle`` recomputes the same quantities by brute force over all
2**n participation outcomes; it exists purely as an independent check for
small elections.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, NamedTuple

import numpy as np

from . import model
from .model import LEFT, RIGHT, DistortionReport, LineElection

if TYPE_CHECKING:
    from .metric import MetricElection

__all__ = [
    "WinProbabilities",
    "vote_pmf",
    "win_probabilities",
    "expected_distortion",
    "enumerate_oracle",
]

ENUMERATION_LIMIT = 20


class WinProbabilities(NamedTuple):
    p_left: float
    p_right: float


def vote_pmf(probabilities: Iterable[float]) -> np.ndarray:
    """Exact PMF of the number of successes among independent Bernoulli trials.

    Returns an array of length ``len(probabilities) + 1`` whose k-th entry is
    the probability of exactly k votes.  Zero-probability voters are kept;
    they just contribute a deterministic zero.
    """
    pmf = np.array([1.0])
    for i, p in enumerate(probabilities):
        p = float(p)
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"probability {i} out of range: {p!r}")
        nxt = np.zeros(len(pmf) + 1)
        nxt[:-1] = pmf * (1.0 - p)
        nxt[1:] += pmf * p
        pmf = nxt
    return pmf


def _win_probs(pmf_left: np.ndarray, pmf_right: np.ndarray) -> "WinProbabilities":
    # P(L > R) + P(L = R) / 2 and its mirror image, fair-coin ties.  Both
    # sides are computed by the same symmetric expression (rather than one as
    # the other's complement) so that exchanging the candidates exchanges the
    # results bit for bit; the pair then sums to 1 only up to rounding.
    m = max(len(pmf_left), len(pmf_right))
    l = np.zeros(m)
    r = np.zeros(m)
    l[: len(pmf_left)] = pmf_left
    r[: len(pmf_right)] = pmf_right
    r_below = np.concatenate(([0.0], np.cumsum(r)[:-1]))  # P(R < k)
    l_below = np.concatenate(([0.0], np.cumsum(l)[:-1]))  # P(L < k)
    p_eq = float(np.dot(l, r))
    p_left = float(np.dot(l, r_below)) + 0.5 * p_eq
    p_right = float(np.dot(r, l_below)) + 0.5 * p_eq
    return WinProbabilities(p_left, p_right)


def win_probabilities(
    e: LineElection | MetricElection, beta: float
) -> WinProbabilities:
    """Exact probability that each candidate wins the majority contest.

    ``e`` is a line or a metric election; indifferent voters never vote.
    """
    side, p = model.voter_arrays(*e.distances(), beta)
    return _win_probs(vote_pmf(p[side < 0]), vote_pmf(p[side > 0]))


def expected_distortion(
    e: LineElection | MetricElection, beta: float
) -> DistortionReport:
    """Full report with exact win probabilities and expected distortion."""
    return model.distortion_report(e, beta, win_probabilities(e, beta))


def enumerate_oracle(
    e: LineElection, beta: float
) -> tuple[WinProbabilities, float]:
    """Brute-force win probabilities and expected distortion.

    Enumerates all 2**n participation outcomes, multiplying per-voter
    probabilities and applying the majority rule with fair-coin ties.  Capped
    at 20 voters.  Kept deliberately independent of :func:`vote_pmf` so the
    two paths check each other.
    """
    beta = model.check_beta(beta)
    n = len(e)
    if n > ENUMERATION_LIMIT:
        raise ValueError(f"enumeration capped at {ENUMERATION_LIMIT} voters, got {n}")

    profiles = [model.profile(x, beta) for x in e.positions]
    p = np.array([prof.participation for prof in profiles])
    is_left = np.array([prof.preferred == LEFT for prof in profiles])
    is_right = np.array([prof.preferred == RIGHT for prof in profiles])

    # One pass per voter keeps memory at O(2^n) instead of O(n 2^n).
    masks = np.arange(1 << n, dtype=np.int64)
    outcome_prob = np.ones(1 << n)
    count_left = np.zeros(1 << n, dtype=np.int16)
    count_right = np.zeros(1 << n, dtype=np.int16)
    for i in range(n):
        voted = ((masks >> i) & 1).astype(bool)
        outcome_prob *= np.where(voted, p[i], 1.0 - p[i])
        if is_left[i]:
            count_left += voted
        elif is_right[i]:
            count_right += voted

    p_left_win = np.where(
        count_left > count_right, 1.0, np.where(count_left == count_right, 0.5, 0.0)
    )
    p_left = float(np.dot(outcome_prob, p_left_win))

    sc_left, sc_right = model.social_costs(e)
    _, dist_left, dist_right = model.distortion_pair(sc_left, sc_right)
    # Per-outcome distortion; spelled with selects so inf * 0 never arises.
    dist_of_outcome = np.select(
        [p_left_win == 1.0, p_left_win == 0.0],
        [dist_left, dist_right],
        default=0.5 * dist_left + 0.5 * dist_right,
    )
    weighted = np.where(outcome_prob > 0.0, outcome_prob * dist_of_outcome, 0.0)
    dbar = float(np.sum(weighted))
    return WinProbabilities(p_left, 1.0 - p_left), dbar
