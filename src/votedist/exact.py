"""Exact win probabilities via the vote-count distribution.

Each candidate's vote count is a sum of independent Bernoulli indicators
(one per voter preferring it), i.e. a Poisson-binomial variable, whose PMF
is the coefficient vector of the product of the voters' polynomials
``(1 - p) + p z``.  Majority ties resolve by a fair coin, folded into the
win probability as half the tie mass rather than simulated.

Method.  :func:`vote_pmf` sorts the probabilities and multiplies the
factors in a balanced product tree (the DC-FFT method of Biscarri, Zhao and
Brunner, CSDA 2018): level k holds the PMFs of runs of ``2**k`` neighbouring
voters and multiplies neighbouring rows pairwise by batched real FFTs, one
numpy call per level; the FFT's small negative noise is clipped to 0.  Sure
voters (p = 0 or 1) only shift the PMF and stay out of the tree, so the
entries they rule out are exactly 0.  Up to ``model.SCALAR_LIMIT`` unsure
voters the factors are multiplied one at a time in Python floats instead.
Sorting makes the result bit-identical under any order of the voters.  The
win probabilities are sums of products of the two PMFs, each taken by one
``np.add.reduce``.  A BLAS dot product would split a sum of more than about
10**4 terms across threads, so its last bits would depend on the thread
count; the reduction runs in one thread in a fixed order.

Complexity.  Level k costs O(n k), so the whole tree is O(n log^2 n) time
and O(n) memory.  Measured
on 2 shared cores (Python 3.11, numpy 2.4.6), best of 3 on uniform voters:
:func:`expected_distortion` takes 0.04-0.06 s at n = 1e5 and 0.6-0.7 s at
n = 1e6, where the process peaks at about 145 MB of RSS.

Error.  An FFT level of length N adds an absolute error of order
``eps * log2(N)`` to each entry; later products with rows that are
nonnegative and sum to 1 do not enlarge that error, and clipping only moves
an entry toward its true, nonnegative value.  The PMF is thus accurate to
O(eps log^2 n) per entry in absolute terms, while entries far out in the
tails lose their relative accuracy.  Measured: within 3e-15 of the
sequential product for n <= 2000, and within 1e-16 of 50-digit arithmetic
at n = 200.  So :func:`win_probabilities` recomputes a win
probability below ``TILT_BELOW`` from an exponentially tilted PMF, which
keeps it accurate in relative terms down to underflow, and takes the other
as its complement.

Crossover.  ``model.SCALAR_LIMIT`` selects the path of the whole
evaluation by the number of voters.  Up to it, an election goes from its
distances to each side's PMF in Python floats, the PMF being the scalar
product.  Above it, :func:`vote_pmf` builds each side's PMF, with the tree
for a side of more than the limit, and a small win probability is
recomputed under the tilt.  Both paths turn the two PMFs into win
probabilities by the same function, which takes lists or arrays, so they
agree bit for bit.  The limit is where the scalar PMF stops beating
the tree, about 48 voters on the same machine; evaluation in floats alone
would pay up to about 100.  There is no crossover inside the tree: on the
same machine, shifted multiply-adds for the narrow levels timed within the
run-to-run noise (about 15%) of the FFT at every width from 3 to 33, at
n = 1e3 to 1e5, so every level uses the FFT.

There is no size limit: evaluation, the displacement certificates and the
bound audit (:func:`votedist.worstcase.verify_distortion_bound`) are exact at
any size.  :mod:`votedist.montecarlo` is kept as an independent estimator.

``enumerate_oracle`` recomputes the same quantities by brute force over all
2**n participation outcomes; it exists purely as an independent check for
small elections.
"""

from __future__ import annotations

import math
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

#: Below this, a win probability from the product tree is recomputed under
#: an exponential tilt.  Above it the tree's absolute error, 1.4e-14 on
#: 10**4 voters a side, is at most about 1e-11 of the value.
TILT_BELOW = 1e-3

#: Bracket cap and bisection steps of the tilt's saddle-point search.
_MAX_TILT = 512.0
_TILT_STEPS = 24


class WinProbabilities(NamedTuple):
    p_left: float
    p_right: float


def vote_pmf(probabilities: Iterable[float]) -> np.ndarray:
    """Exact PMF of the number of successes among independent Bernoulli trials.

    Returns an array of length ``len(probabilities) + 1`` whose k-th entry is
    the probability of exactly k votes.  Zero-probability voters are kept;
    they just contribute a deterministic zero.  The probabilities are sorted
    first, so the result does not depend on their order, bit for bit.
    """
    if not isinstance(probabilities, np.ndarray):
        probabilities = np.fromiter(probabilities, float)
    p = np.sort(probabilities, axis=None).astype(float, copy=False)
    # Sorting puts NaN last, so the two ends check every entry.
    if len(p) and not (p[0] >= 0.0 and p[-1] <= 1.0):
        flat = np.ravel(probabilities)
        i = int(np.flatnonzero(~((flat >= 0.0) & (flat <= 1.0)))[0])
        raise ValueError(f"probability {i} out of range: {flat[i]!r}")
    n = len(p)
    # Sure voters (p = 0 or 1, sorted to the two ends) only shift the PMF;
    # keeping them out of the tree keeps the entries they rule out exactly 0.
    start = int(np.searchsorted(p, 0.0, side="right"))
    stop = int(np.searchsorted(p, 1.0, side="left"))
    unsure = p[start:stop]
    pmf = np.zeros(n + 1)
    pmf[n - stop : n - start + 1] = (
        _scalar_product(unsure.tolist())
        if len(unsure) <= model.SCALAR_LIMIT
        else _tree_product(unsure)
    )
    return pmf


def _scalar_product(p: list[float]) -> list[float]:
    # One factor at a time in Python floats: below SCALAR_LIMIT voters
    # numpy's per-call cost would exceed the arithmetic.
    pmf = [1.0]
    for x in p:
        q = 1.0 - x
        pmf = [a * q + b * x for a, b in zip(pmf + [0.0], [0.0] + pmf)]
    return pmf


def _tree_product(p: np.ndarray) -> np.ndarray:
    # Level k holds the PMFs of runs of 2**k neighbouring voters, as rows of
    # width 2**k + 1; each level multiplies rows 2i and 2i + 1 in one batch.
    from numpy import fft

    n = len(p)
    rows = np.empty((n, 2))
    rows[:, 0] = 1.0 - p
    rows[:, 1] = p
    while len(rows) > 1:
        m, w = rows.shape
        if m % 2:
            # An odd row out is paired with the constant polynomial 1.
            one = np.zeros((1, w))
            one[0, 0] = 1.0
            rows = np.concatenate([rows, one])
        # A cyclic product of length 2w - 2 (a power of two) folds the top
        # coefficient, a product of two leading entries, onto the constant one.
        size = 2 * (w - 1)
        # Each array is dropped once the next is built, so that at most two
        # of a level's arrays are alive at once.
        top = rows[0::2, -1] * rows[1::2, -1]
        spectra = fft.rfft(rows, size, axis=1)
        del rows
        product = spectra[0::2] * spectra[1::2]
        del spectra
        cyclic = fft.irfft(product, size, axis=1)
        del product
        cyclic[:, 0] -= top
        rows = np.concatenate([cyclic, top[:, None]], axis=1)
        np.maximum(rows, 0.0, out=rows)
    return rows[0, : n + 1]


def _win_probs(
    pmf_left: list[float] | np.ndarray, pmf_right: list[float] | np.ndarray
) -> "WinProbabilities":
    # P(L > R) + P(L = R) / 2 and its mirror image, fair-coin ties, for PMFs
    # given as lists or arrays.  Both sides are computed by the same
    # symmetric expression (rather than one as the other's complement) so
    # that exchanging the candidates exchanges the results bit for bit; the
    # pair then sums to 1 only up to rounding.
    m = max(len(pmf_left), len(pmf_right))
    # Row 0 is L, row 1 is R, each after a leading 0, so that one running sum
    # gives P(X < k) in columns 0..m - 1 and the PMF sits in columns 1..m.
    padded = np.zeros((2, m + 1))
    padded[0, 1 : len(pmf_left) + 1] = pmf_left
    padded[1, 1 : len(pmf_right) + 1] = pmf_right
    pmf = padded[:, 1:]
    below = np.add.accumulate(padded, axis=1)[:, :-1]
    # Rows: P(L = R = k), P(L = k > R), P(R = k > L); written in place, as
    # each numpy call costs more than the arithmetic on a few voters.
    products = np.empty((3, m))
    np.multiply(pmf[0], pmf[1], out=products[0])
    np.multiply(pmf, below[::-1], out=products[1:])
    p_eq, p_left, p_right = np.add.reduce(products, axis=1).tolist()
    return WinProbabilities(p_left + 0.5 * p_eq, p_right + 0.5 * p_eq)


def win_probabilities(
    e: LineElection | MetricElection, beta: float
) -> WinProbabilities:
    """Exact probability that each candidate wins the majority contest.

    ``e`` is a line or a metric election; indifferent voters never vote.
    """
    return _win_from_sides(*model._sides(e, beta))


def _win_from_sides(left, right) -> WinProbabilities:
    """Win probabilities of the two sides' participation, as from ``model._sides``.

    Lists get their PMFs by the scalar product in Python floats, arrays by
    :func:`vote_pmf`; both end in :func:`_win_probs`.
    """
    if isinstance(left, list):
        return _win_probs(_scalar_product(sorted(left)), _scalar_product(sorted(right)))
    win = _win_probs(vote_pmf(left), vote_pmf(right))
    if max(len(left), len(right)) > model.SCALAR_LIMIT:
        # The product tree is accurate in absolute terms only: a small win
        # probability is recomputed to full relative accuracy, and the other
        # one is its complement.
        if win.p_left < min(win.p_right, TILT_BELOW):
            p_left = _trailing_win(left, right)
            win = WinProbabilities(p_left, 1.0 - p_left)
        elif win.p_right < min(win.p_left, TILT_BELOW):
            p_right = _trailing_win(right, left)
            win = WinProbabilities(1.0 - p_right, p_right)
    return win


def _trailing_win(trail: np.ndarray, lead: np.ndarray) -> float:
    """P(T > L) + P(T = L) / 2 for the vote counts of two voter groups.

    Exact, and accurate in relative terms however small.  Tilting the joint
    law by ``exp(theta (T - L))`` keeps the voters independent: a trailing
    voter's p becomes ``p e^theta / (1 - p + p e^theta)``, a leading voter's
    the same with ``-theta``, and

        P(T - L = d) = M(theta) e^(-theta d) P_theta(T - L = d),

    with ``log M(theta) = sum log(1 - p + p e^(+-theta))``.  At the theta
    where both tilted means agree (the saddle point, found by bisection) the
    terms d >= 0 sit at the centre of the tilted law, where the tree's
    absolute error is small against them.  ``T - L + len(lead)`` counts the
    trailing votes and the leading abstentions, so one PMF gives the tilted
    law of ``T - L``.
    """
    # The bisection compares sums in the order of the voters; sorting them
    # first keeps theta, and so the result, the same under any voter order.
    trail, lead = np.sort(trail), np.sort(lead)

    def tilted(theta: float) -> tuple[np.ndarray, np.ndarray]:
        up = trail * math.exp(theta)
        down = lead * math.exp(-theta)
        return up / (1.0 - trail + up), (1.0 - lead) / (1.0 - lead + down)

    def trails(theta: float) -> bool:
        votes, abstains = tilted(theta)
        return votes.sum() + abstains.sum() < len(lead)

    lo, hi = 0.0, 1.0
    while hi < _MAX_TILT and trails(hi):
        lo, hi = hi, 2.0 * hi
    for _ in range(_TILT_STEPS):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if trails(mid) else (lo, mid)
    theta = hi
    votes, abstains = tilted(theta)
    tilted_pmf = vote_pmf(np.concatenate([votes, abstains]))[len(lead) :]
    weights = np.exp(-theta * np.arange(len(tilted_pmf)))
    weights[0] = 0.5
    with np.errstate(divide="ignore"):  # log(0) = -inf at p = 0 or 1
        log_m = math.fsum(
            np.logaddexp(np.log1p(-trail), np.log(trail) + theta).tolist()
        ) + math.fsum(np.logaddexp(np.log1p(-lead), np.log(lead) - theta).tolist())
    return math.exp(log_m) * float(np.add.reduce(weights * tilted_pmf))


def expected_distortion(
    e: LineElection | MetricElection, beta: float
) -> DistortionReport:
    """Full report with exact win probabilities and expected distortion."""
    left, right = model._sides(e, beta)  # once for both uses
    return model._report(e, model._votes(left, right), _win_from_sides(left, right))


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
    p_left = float(np.add.reduce(outcome_prob * p_left_win))

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
