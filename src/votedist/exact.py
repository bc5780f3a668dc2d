"""Exact win probabilities via the vote-count distribution.

Each candidate's vote count is a sum of independent Bernoulli indicators
(one per voter preferring it), i.e. a Poisson-binomial variable, whose PMF
is the coefficient vector of the product of the voters' polynomials
``(1 - p) + p z``.  Majority ties resolve by a fair coin, folded into the
win probability as half the tie mass rather than simulated.

Method.  :func:`vote_pmf` sorts the probabilities and multiplies the
factors in a balanced product tree (the DC-FFT method of Biscarri, Zhao and
Brunner, CSDA 2018).  A level holds rows of one width ``2**j + 1``, each the
PMF of a group of voters from its offset (the count of its first entry) on,
and multiplies neighbouring rows pairwise by batched real FFTs, one numpy
call per level; the FFT's small negative noise is clipped to 0.  The first
level, over rows ``[1 - p, p]``, is the length-2 FFT in closed form, rounded
as the FFT rounds it.  Windows: a row of m voters needs only the entries
within ``t = sqrt(m ln(2**80) / 2)`` of its mean (Hoeffding, 1963, with
delta = 2**-80 on each side), so once that is fewer than the product's
``2w - 1``, a level keeps ``2**j + 1 >= 2t + 3`` entries around each row's
mean and adds the cut to the row's offset.  No row is cut while the
product holds at most 256 unsure voters, so up to that size the result is
the plain tree's, bit for bit.  Blocks: a run of at least ``_BLOCK_MIN`` equal probabilities (found
by one comparison of neighbours in the sorted array) enters as one
Binomial(m, p) row on its window, built from the mode outwards by the ratio
``(m - k) / (k + 1) * p / (1 - p)`` of neighbouring entries and normalized
by its ``fsum``; it joins the first level as wide as it is.  Building a
block by repeated squaring with the FFT product instead took 0.7-8.5 times
as long at m = 300 to 1e6 and lost the tails' relative accuracy.  Sure
voters (p = 0 or 1) only shift the PMF and stay out of the product, so the
entries they rule out are exactly 0, as are the entries outside the last
window.  Up to ``model.SCALAR_LIMIT`` unsure voters the factors are
multiplied one at a time in Python floats instead.  Sorting makes the
result bit-identical under any order of the voters.  The win probabilities
are sums of products of the two PMFs, each taken by one ``np.add.reduce``.
A BLAS dot product would split a sum of more than about 10**4 terms across
threads, so its last bits would depend on the thread count; the reduction
runs in one thread in a fixed order.

Complexity.  A level below the first window costs O(n log w).  Above it, a
level of rows of m voters costs O(n log(m) / sqrt(m)), so those levels sum
to O(n), and a block of m voters costs O(sqrt(m)): after the sort the
product takes O(n) time and memory.  Measured on 2 shared cores (Python
3.11, numpy 2.4.6), best of 3 on uniform voters in two sessions:
:func:`vote_pmf` takes 2.4-3.8 ms at n = 1e4 and 26-28 ms at n = 1e5, and
:func:`expected_distortion` 0.30-0.47 s at n = 1e6, against 0.62-0.85 s
for the plain tree.

Error.  An FFT level of length N adds an absolute error of order
``eps * log2(N)`` to each entry; later products with rows that are
nonnegative and sum to 1 do not enlarge that error, and clipping only moves
an entry toward its true, nonnegative value.  The PMF is thus accurate to
O(eps log^2 n) per entry in absolute terms, while entries far out in the
tails lose their relative accuracy.  Measured: within ``eps * log2(n)**2``
of an 80-bit sequential product for n <= 2e4 (at most 1.5e-14, for
probabilities below 1e-3), and within 1e-16 of 50-digit arithmetic at
n = 200.  Two more terms belong in an error bound: each window drops at
most 2 * 2**-80 of its row's mass, once per row and level; and a block's
entry k carries a relative error of at most about
``3 (|k - mode| + sd + 1) eps`` from the ratios multiplied out from its
mode (measured against 40-digit arithmetic: at most 3e-17 in absolute
terms, and 7e-13 relative at the edge of the window of m = 1e6), plus one
rounding of its normalization.  So :func:`win_probabilities` recomputes a
win probability below ``TILT_BELOW`` from an exponentially tilted PMF,
which keeps it accurate in relative terms down to underflow, and takes the
other as its complement.

Crossover.  ``model.SCALAR_LIMIT`` selects the path of the whole
evaluation by the number of voters.  Up to it, an election goes from its
distances to each side's PMF in Python floats, the PMF being the scalar
product.  Above it, :func:`vote_pmf` builds each side's PMF, with the tree
for a side of more than the limit, and a small win probability is
recomputed under the tilt.  Both paths turn the two PMFs into win
probabilities by the same function, which takes lists or arrays, so they
agree bit for bit.  The limit is where the scalar PMF stops beating
the tree, about 48 voters on the same machine; evaluation in floats alone
would pay up to about 100.  Inside the tree, the first level is not within
noise: its batched length-2 FFT took 0.37 ms per 1e4 voters, the closed
form 0.06 ms.  At every later width, from 3 to 33, shifted
multiply-adds timed within the run-to-run noise (about 15%) of the FFT at
n = 1e3 to 1e5, so those levels use the FFT.

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

#: ln(1/delta) of the windows' Hoeffding bound, delta = 2**-80 on each side:
#: a window then drops at most 2**-79 of its row's mass, 2**-26 of the half
#: ulp of 1, so even 10**6 cuts stay below the FFT's own rounding, while the
#: window is only about 10.5 sqrt(m) entries wide for m voters.
_LOG_INV_DELTA = 80.0 * math.log(2.0)

#: Runs of at least this many equal probabilities enter as one binomial row.
#: The measured crossover: on 10**4 and 10**5 voters in runs of m, blocks
#: took 1.4-1.9 times the per-voter product at m = 640-800 and 0.3-0.8 times
#: at m = 1024-4096.  (Runs of 512 also won, as their window is half as wide,
#: but the runs just above them lost.)
_BLOCK_MIN = 1024


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
    # keeping them out of the product keeps the entries they rule out exactly 0.
    start = int(np.searchsorted(p, 0.0, side="right"))
    stop = int(np.searchsorted(p, 1.0, side="left"))
    unsure = p[start:stop]
    pmf = np.zeros(n + 1)
    if len(unsure) <= model.SCALAR_LIMIT:
        pmf[n - stop : n - start + 1] = _scalar_product(unsure.tolist())
    else:
        row, offset = _product(unsure)
        first = n - stop + offset
        row = row[: n - start + 1 - first]  # the rest lies above every voter
        pmf[first : first + len(row)] = row
    return pmf


def _scalar_product(p: list[float]) -> list[float]:
    # One factor at a time in Python floats: below SCALAR_LIMIT voters
    # numpy's per-call cost would exceed the arithmetic.
    pmf = [1.0]
    for x in p:
        q = 1.0 - x
        pmf = [a * q + b * x for a, b in zip(pmf + [0.0], [0.0] + pmf)]
    return pmf


def _window(m: int) -> int:
    # Rows of m voters keep 2**j + 1 entries around their mean, with
    # 2**j >= 2 t + 2: the integers within t of the mean, and one to spare
    # for rounding the mean to the window's centre.
    t = math.sqrt(m * _LOG_INV_DELTA / 2.0)
    return 1 + (1 << (math.ceil(2.0 * t + 2.0) - 1).bit_length())


def _product(p: np.ndarray) -> tuple[np.ndarray, int]:
    """PMF of the unsure voters of the sorted ``p``, as (entries, first index).

    Rows hold the PMFs of groups of voters, all of one width ``2**j + 1``;
    each level multiplies rows 2i and 2i + 1 in one batch.  Runs of at least
    ``_BLOCK_MIN`` equal probabilities enter as one binomial row each, once
    the level's width reaches theirs.  ``offsets`` holds each row's first
    index.
    """
    from numpy import fft

    changes = p[1:] != p[:-1]
    blocks: list[tuple[np.ndarray, int, int]] = []
    if len(p) - np.count_nonzero(changes) >= _BLOCK_MIN:  # else no run is long enough
        p, blocks = _split_runs(p, np.flatnonzero(changes) + 1)
    rows = np.empty((len(p), 2))
    rows[:, 0] = 1.0 - p
    rows[:, 1] = p
    offsets = np.zeros(len(rows), np.intp)
    most = 1  # no row holds more voters
    while True:
        w = rows.shape[1]
        if blocks and len(blocks[0][0]) <= w:
            joining = [b for b in blocks if len(b[0]) <= w]
            blocks = blocks[len(joining) :]
            padded = np.zeros((len(joining), w))
            for i, (row, _, _) in enumerate(joining):
                padded[i, : len(row)] = row
            rows = np.concatenate([rows, padded])
            offsets = np.concatenate([offsets, [offset for _, offset, _ in joining]])
            most = max([most] + [m for _, _, m in joining])
        if len(rows) <= 1:
            if not blocks:
                break
            # Widen the lone row to the narrowest block, with zeros.
            rows = np.pad(rows, ((0, 0), (0, len(blocks[0][0]) - w)))
            continue
        if len(rows) % 2:
            # An odd row out is paired with the constant polynomial 1.
            one = np.zeros((1, w))
            one[0, 0] = 1.0
            rows = np.concatenate([rows, one])
            offsets = np.append(offsets, 0)
        if w == 2:
            rows = _first_level(rows)
        else:
            # A cyclic product of length 2w - 2 (a power of two) folds the top
            # coefficient, a product of two leading entries, onto the constant
            # one.  Each array is dropped once the next is built, so that at
            # most two of a level's arrays are alive at once.
            top = rows[0::2, -1] * rows[1::2, -1]
            size = 2 * (w - 1)
            spectra = fft.rfft(rows, size, axis=1)
            del rows
            product = spectra[0::2] * spectra[1::2]
            del spectra
            cyclic = fft.irfft(product, size, axis=1)
            del product
            cyclic[:, 0] -= top
            rows = np.concatenate([cyclic, top[:, None]], axis=1)
            del cyclic
        most *= 2
        width = min(2 * w - 1, _window(most))
        offsets = offsets[0::2] + offsets[1::2]
        if width < 2 * w - 1:
            # Keep the window around each row's mean, inside the product.
            centre = np.add.reduce(rows * np.arange(2 * w - 1), axis=1)
            start = np.rint(centre - (width - 1) / 2)
            np.minimum(np.maximum(start, 0.0, out=start), 2 * w - 1 - width, out=start)
            start = start.astype(np.intp)
            rows = rows[np.arange(len(rows))[:, None], start[:, None] + np.arange(width)]
            offsets += start
        np.maximum(rows, 0.0, out=rows)
    return rows[0], int(offsets[0])


def _first_level(rows: np.ndarray) -> np.ndarray:
    """Products of rows 2i and 2i + 1 of width 2, as the length-2 FFT rounds them.

    That FFT's spectrum of a row is its sum and difference, and its inverse
    halves the sum and the difference of the two spectral products; the
    cyclic product's wrapped top entry is then taken off the constant one.
    """
    a, b = rows[0::2], rows[1::2]
    top = a[:, 1] * b[:, 1]
    s = (a[:, 0] + a[:, 1]) * (b[:, 0] + b[:, 1])
    d = (a[:, 0] - a[:, 1]) * (b[:, 0] - b[:, 1])
    product = np.empty((len(top), 3))
    product[:, 0] = (s + d) / 2 - top
    product[:, 1] = (s - d) / 2
    product[:, 2] = top
    return product


def _split_runs(
    p: np.ndarray, cuts: np.ndarray
) -> tuple[np.ndarray, list[tuple[np.ndarray, int, int]]]:
    # The voters outside long runs, and one binomial row per long run,
    # narrowest first; ``cuts`` are the indices where the sorted p changes.
    bounds = np.concatenate(([0], cuts, [len(p)]))
    lengths = np.diff(bounds)
    long = lengths >= _BLOCK_MIN
    blocks = [_binomial_row(int(m), float(p[i])) for i, m in zip(bounds[:-1][long], lengths[long])]
    blocks.sort(key=lambda block: len(block[0]))
    return p[np.repeat(~long, lengths)], blocks


def _binomial_row(m: int, p: float) -> tuple[np.ndarray, int, int]:
    """Binomial(m, p) on its window, as (row, offset, m)."""
    width = _window(m)
    if width > m + 1:
        width, offset = 1 + (1 << (m - 1).bit_length()), 0
    else:
        offset = min(max(round(m * p - (width - 1) / 2), 0), m + 1 - width)
    hi = min(offset + width, m + 1) - 1
    mode = min(max(int((m + 1) * p), offset), hi)
    # From the mode outwards by the ratio of neighbouring entries,
    # pmf[k + 1] / pmf[k] = (m - k) / (k + 1) * p / (1 - p).
    odds = p / (1.0 - p)
    up = np.arange(mode, hi, dtype=float)
    down = np.arange(mode, offset, -1, dtype=float)
    row = np.zeros(width)
    row[mode - offset] = 1.0
    row[mode - offset + 1 : hi - offset + 1] = np.cumprod((m - up) / (up + 1.0) * odds)
    row[: mode - offset][::-1] = np.cumprod(down / (m - down + 1.0) / odds)
    row /= math.fsum(row.tolist())
    return row, offset, m


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
