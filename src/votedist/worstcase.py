"""Worst-case distortion of the expected winner, swept over beta.

Any election maximizing the expected winner's distortion can be assumed to
hold all voters at two points: ``q_b`` (as a fraction of the electorate) at
``x_b`` in region B and the rest at ``x_d`` in region D, with the left
candidate still leading on expected votes:

    maximize (q_b x_b + (1 - q_b) x_d) / (q_b (1 - x_b) + (1 - q_b)(x_d - 1))
    subject to (1 - 2 x_b)^beta q_b >= (1 - q_b) / (2 x_d - 1)^beta

Past the feasibility boundary the objective only falls as ``x_d`` grows (the
ratio exceeds 1, and pushing equal mass into numerator and denominator drags
it toward 1), so ``x_d`` sits at its binding value.  The best ``x_b`` then
has a closed form (:func:`_best_x_b`): ``u = 1 - 2 x_b`` is
``u* = min(r / (1 + w), A, 1)`` with ``A = e^s``, the odds
``r = e^(beta s) / (1 + margin)`` and ``w = sqrt(1 + 1/A)``.  That leaves the
value ``V(s)`` of one variable, and its maximum is one of five candidates
(:func:`_candidates`), picked for every beta at once in float64 and evaluated
in long double (:func:`_worst`):

* the interior stationary point ``s = log(beta^2 / (1 - beta^2))``: while
  ``u* = r / (1 + w)`` the excess over 1 is ``2r / (A (1 + w)^2 - r)``, and
  ``log(A (1 + w)^2 / r)`` has slope ``1/w - beta``, which increases in ``s``;
* the root of ``phi(s) = r - 1 - beta - beta e^-s``, where ``u* = 1``: the
  excess there has the slope sign of ``-phi``, and ``phi`` increases;
* the root of ``psi(s) = e^((beta - 1) s) (beta (1 + A) - A) / (1 + margin) - 1``,
  where ``u* = A``: the excess has the slope sign of ``psi``, which decreases
  for ``beta < 1``;
* the two ends of the bracket.

The set is complete.  Each regime of ``u*`` holds the maximum of V only at
a stationary point of its own formula or at an end of its stretch of ``s``.
Where ``u*`` moves between the interior and a corner the two formulas meet
with the ``u``-derivative 0, so V is smooth there and such a point is
stationary in both.  The corners meet only at ``s = 0``, as ``u* = 1`` needs
``A >= 1`` and ``u* = A`` needs ``A <= 1``.  That kink is never the maximum:
``phi(0) = 1 / (1 + margin) - 1 - 2 beta < 0``, so V rises to the right of it.
The conditions are monotone, so each regime has at most one stationary point,
and each root comes from Newton steps that cannot pass it (:func:`_newton`);
V need not be unimodal.

At ``beta = 0`` everyone with a strict preference votes, so ``x_d = 1`` and
the supremum 3 is approached at ``q_b = 1/2`` as ``x_b -> 1/2``; the solver
reports it in closed form with ``attained=False``.

The module also provides the expected-vote threshold above which the
expected distortion of a large election stays within a ``(1 + 2 alpha)``
factor of the worst case, and a checker that audits that bound on concrete
elections.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence

import numpy as np

from . import exact, model
from .model import LineElection

__all__ = [
    "WorstCaseSolution",
    "BoundCheck",
    "two_point_distortion",
    "binding_xd",
    "solve_worst_case",
    "solve_worst_case_margin",
    "vote_count_threshold",
    "sweep_beta",
    "sweep_csv",
    "witness_election",
    "check_gate_inputs",
    "generate_gate_elections",
    "verify_distortion_bound",
]

_GOLDEN = (1.0 + math.sqrt(5.0)) / 2.0

#: Candidate elections drawn before gate generation gives up.
_GATE_ATTEMPTS = 10_000


class WorstCaseSolution(NamedTuple):
    """Maximizer of the two-point program at one beta.

    ``attained=False`` marks the limit ``x_b -> 1/2``, reported as ``x_b = 1/2``
    and ``x_d = 1``, which no election realizes: midpoint voters never vote.
    """

    beta: float
    q_b: float
    x_b: float
    x_d: float
    value: float
    attained: bool


def two_point_distortion(q_b: float, x_b: float, x_d: float) -> float:
    """Left candidate's distortion when mass q_b sits at x_b and 1 - q_b at x_d.

    The electorate is normalized to total mass 1.
    """
    q_b = model._check_real("q_b", q_b, 0.0, 1.0)
    x_b = model._check_real("x_b", x_b, 0.0, 0.5)
    x_d = model._check_real("x_d", x_d, 1.0, math.inf, hi_open=True)
    num = q_b * x_b + (1.0 - q_b) * x_d
    den = q_b * (1.0 - x_b) + (1.0 - q_b) * (x_d - 1.0)
    if den <= 0.0:
        raise ValueError("two-point election has zero social cost for the right candidate")
    return num / den


def binding_xd(q_b: float, x_b: float, beta: float, margin: float = 0.0) -> float:
    """Smallest x_d at which the left candidate still leads on expected votes.

    Solving the vote-lead constraint for ``x_d`` at equality gives
    ``(1 + ((1 - q_b) / ((1 - 2 x_b)^beta q_b))^(1/beta)) / 2``, clamped up to
    1 where the constraint is already slack there.  Returns ``inf`` at
    ``x_b = 1/2`` with ``q_b < 1``: midpoint voters never vote, so no finite
    ``x_d`` restores the lead.  ``margin`` strengthens the required lead to a
    factor ``1 + margin`` (finite, ``>= 0``).  ``beta`` lies in (0, 1]: at 0
    the constraint does not involve ``x_d``.
    """
    beta = model._check_real("beta", beta, 0.0, 1.0, lo_open=True)
    q_b = model._check_real("q_b", q_b, 0.0, 1.0, lo_open=True)
    x_b = model._check_real("x_b", x_b, 0.0, 0.5)
    margin = model._check_real("margin", margin, 0.0, math.inf, hi_open=True)
    if q_b == 1.0:
        return 1.0
    left_rate = (1.0 - 2.0 * x_b) ** beta * q_b
    if left_rate == 0.0:
        return math.inf
    base = (1.0 + margin) * (1.0 - q_b) / left_rate
    try:
        xd = 0.5 * (1.0 + base ** (1.0 / beta))
    except OverflowError:
        return math.inf
    return max(1.0, xd)


def _best_x_b(s, beta, margin, dtype=np.longdouble):
    """``(excess, q_b, x_b, x_d)`` at the best ``x_b`` for each ``s = log A`` in ``s``.

    With ``A = ((1 + margin)(1 - q_b) / q_b)^(1/beta)`` the odds ``(1 - q_b) / q_b``
    are ``r = e^(beta s) / (1 + margin)``, and with ``u = 1 - 2 x_b`` and the
    binding ``x_d`` (``(1 + A / u) / 2`` up to ``u = A``, 1 beyond) the value is
    ``1 + excess``, ``excess = 2u (r - u) / (u (1 + u) + r max(A - u, 0))``.  Below
    ``A`` its ``u``-derivative has the sign of ``r^2 A - 2 r A u - u^2``, positive at 0
    and falling, so the best ``u`` is ``min(r / (1 + sqrt(1 + 1/A)), A, 1)``.  ``x_b``
    is a float rounded down and ``x_d`` binds for it.  An excess below 0 (that ``u``
    under the float spacing next to 1/2) or undefined (``s = -inf``) gives way to the
    limit ``q_b -> 1``: excess 0 at ``q_b = 1``, ``x_b = 1/2``, ``x_d = 1``.

    Everything but ``x_b`` is computed, and returned, in ``dtype``.  The
    default, long double, carries 11 more bits than a float on x86, so the
    rounding of ``r``, ``A`` and the quotient stays far below a float's
    spacing, and rounding ``1 + excess`` once gives the float nearest the
    objective at the returned witness.  Where long double is a plain double,
    the value can be an ulp or two off.  :func:`_worst` passes ``np.float64``
    only to choose among candidates.
    """
    s = np.asarray(s, dtype=dtype)
    r = np.exp(beta * s - np.log1p(dtype(margin)))
    a = np.exp(s)
    with np.errstate(divide="ignore", invalid="ignore"):
        u = np.minimum(np.minimum(r / (1.0 + np.sqrt(1.0 + 1.0 / a)), a), 1.0)
        x_b = (0.5 * (1.0 - u)).astype(float)
        x_b = np.where(1.0 - 2.0 * x_b.astype(dtype) < u, np.nextafter(x_b, 0.0), x_b)
        u = 1.0 - 2.0 * x_b.astype(dtype)
        x_d = np.maximum(1.0, 0.5 * (1.0 + a / u))
        excess = 2.0 * u * (r - u) / (u * (1.0 + u) + r * np.maximum(a - u, 0.0))
    limit = ~(excess >= 0.0)
    found = (excess, 1.0 / (1.0 + r), x_b, x_d)
    return tuple(np.where(limit, at, v) for at, v in zip((0.0, 1.0, 0.5, 1.0), found))


#: Right end of every bracket in ``s``: past it the excess is under ``2^-55``.
_S_MAX = 56.0 * math.log(2.0)

#: Newton steps a root solve may take before it raises: the halvings that
#: shrink the widest bracket, ``2 _S_MAX``, to float resolution.
_NEWTON_CAP = math.ceil(math.log2(2.0 * _S_MAX / np.finfo(float).eps))


def _chi_one(s, beta, log_m):
    """``log(r / (1 + beta + beta e^-s))`` and its slope: increasing and concave.

    Its sign is that of ``phi(s) = r - 1 - beta - beta e^-s``, the stationarity
    condition of the corner ``u = 1``.
    """
    e = beta * np.exp(-s)
    return beta * s - log_m - np.log1p(beta + e), beta + e / (1.0 + beta + e)


def _chi_a(s, beta, log_m):
    """``log(e^((beta - 1) s) (beta - (1 - beta) A) / (1 + margin))`` and its
    slope: decreasing and concave where the logarithm is defined.

    Its sign is that of ``psi(s) = e^((beta - 1) s) (beta (1 + A) - A) / (1 + margin) - 1``,
    the stationarity condition of the corner ``u = A``.
    """
    a = (1.0 - beta) * np.exp(s)
    rest = beta - a
    # log(rest), through log1p near 1 where beta - 1 is small and exact.
    log_rest = np.where(rest > 0.5, np.log1p(beta - 1.0 - a), np.log(rest))
    return (beta - 1.0) * s - log_m + log_rest, beta - 1.0 - a / rest


def _newton(chi, start, far, beta, margin):
    """Root of ``chi`` on each bracket from ``start``, where ``chi < 0``, to ``far``,
    where ``chi >= 0``; ``start`` where the two ends do not bracket a root.

    ``chi`` is monotone and concave, so from a point where it is negative each
    Newton step lands between that point and the root: the iterates move toward
    the root and never pass it.  In floats a solve stops once ``chi`` no longer
    reads negative or a step moves ``s`` by at most 4 ulps; a step that rounding
    throws out of the bracket is replaced by the bracket's midpoint.  A solve
    that has not stopped after ``_NEWTON_CAP`` steps raises ``RuntimeError``
    naming its beta and ``margin``, rather than return its last point.
    """
    log_m = math.log1p(margin)
    # chi evaluates a log on both sides of a np.where, so a branch it throws
    # away can divide by zero; what it keeps is the same either way.
    with np.errstate(divide="ignore", invalid="ignore"):
        bracketed = (chi(start, beta, log_m)[0] < 0.0) & (chi(far, beta, log_m)[0] >= 0.0)
        root = start.copy()
        x, far, beta = start[bracketed], far[bracketed], beta[bracketed]
        low, done = x.copy(), np.zeros(x.shape, dtype=bool)
        for _ in range(_NEWTON_CAP):
            value, slope = chi(x, beta, log_m)
            step = -value / slope
            done |= ~(value < 0.0) | (np.abs(step) <= 4.0 * np.spacing(np.abs(x)))
            if done.all():
                root[bracketed] = x
                return root
            low = np.where(done, low, x)
            ahead = x + step
            inside = (ahead - low) * (far - ahead) > 0.0
            x = np.where(done, x, np.where(inside, ahead, 0.5 * (low + far)))
    raise RuntimeError(
        f"worst-case root solve at beta = {float(beta[~done][0])!r}, epsilon = {margin!r} "
        f"did not converge within {_NEWTON_CAP} Newton steps"
    )


def _candidates(beta, margin):
    """Per positive beta, the five points in ``s`` among which the maximum lies.

    The bracket is ``[lo, hi]``: ``hi = 56 ln 2``, and ``lo`` is where ``r`` falls
    below ``2^-55`` (or ``-hi``).  Outside it no point beats the bracket's best by
    a quarter ulp of 1: as ``u <= min(A, 1)`` the excess is at most ``2 / (A - 1)``,
    under ``2^-55`` for ``s >= 56 ln 2``, and at most ``2r``, under ``2^-54`` left of
    ``lo``; for ``s <= -56 ln 2`` that ``2r`` is within ``4A = 2^-54`` of what ``u = A``
    reads at ``-56 ln 2``.  The columns are the interior point, the roots of
    :func:`_chi_one` on ``[max(lo, 0), hi]`` and of :func:`_chi_a` on
    ``[lo, min(hi, 0)]``, ``lo`` and ``hi``, each clipped into the bracket.
    Each root solve starts where its ``chi`` is negative, at a closed-form bound
    on the root: ``r = 1 + beta`` (``phi`` is below 0 there) for the corner
    ``u = 1``, and for the corner ``u = A`` the smaller of the points where
    ``e^((beta - 1) s) beta = 1 + margin`` and ``beta e^-s = 2 - beta + margin``
    (``psi`` is below 0 at both).
    """
    log_m = math.log1p(margin)
    hi = np.full(beta.shape, _S_MAX)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        lo = np.clip((log_m - 55.0 * math.log(2.0)) / beta, -_S_MAX, _S_MAX)
        interior = 2.0 * np.log(beta) - np.log1p(-beta * beta)
        start_one = (log_m + np.log1p(beta)) / beta
        start_a = np.fmin(
            (np.log(beta) - log_m) / (1.0 - beta), np.log(beta / (2.0 - beta + margin))
        )
    one = _newton(_chi_one, np.clip(start_one, np.maximum(lo, 0.0), hi), hi, beta, margin)
    corner_a = _newton(_chi_a, np.clip(start_a, lo, hi), lo, beta, margin)
    s = np.stack([interior, one, corner_a, lo, hi], axis=1)
    return np.clip(s, lo[:, None], hi[:, None])


#: Gap, relative to ``1 + excess``, under which :func:`_worst` does not trust
#: its float64 pass to order two candidates.
_PICK_TOL = 1e-9


def _worst(beta, margin):
    """``(value, q_b, x_b, x_d)`` for each positive beta: the best of its candidates.

    The module docstring says why the ``(betas, 5)`` candidates hold the
    maximum.  A float64 :func:`_best_x_b` over all of them picks each row's
    best, and a long double one evaluates only the picks: long double ``exp``
    costs tens of times float64's.  In float64, ``r`` and ``A`` carry at most
    ``|beta s| + log(1 + margin) + 2`` ulps, under ``2^-42`` on the bracket,
    and the excess moves by a few times ``1 + excess`` as much; on the grids
    of the tests the two passes differ by at most ``4e-16 (1 + excess)``.  A
    row whose runner-up at another ``s`` comes within ``_PICK_TOL (1 + top)``
    of its top is picked by an argmax over all five in long double instead.
    Both passes map an excess below 0 or undefined to 0, so elsewhere they
    agree on the pick, and the result is that of the five-candidate long
    double argmax, bit for bit.
    """
    s = _candidates(beta, margin)
    beta = beta[:, None]
    excess = _best_x_b(s, beta, margin, np.float64)[0]
    best = np.argmax(excess, axis=1)[:, None]
    top, pick = (np.take_along_axis(v, best, axis=1) for v in (excess, s))
    runner_up = np.where(s == pick, -np.inf, excess).max(axis=1, keepdims=True)
    close = model._within(top - runner_up, 0.0, _PICK_TOL * (1.0 + top))[:, 0]
    if close.any():
        tied = np.argmax(_best_x_b(s[close], beta[close], margin)[0], axis=1)[:, None]
        pick[close] = np.take_along_axis(s[close], tied, axis=1)
    excess, q_b, x_b, x_d = _best_x_b(pick, beta, margin)
    return tuple(v[:, 0].astype(float) for v in (1.0 + excess, q_b, x_b, x_d))


def _solve(betas, epsilon: float) -> list[WorstCaseSolution]:
    """Solutions at every beta: one :func:`_worst` call for beta > 0, the closed form at 0."""
    betas = np.array([model.check_beta(b) for b in betas], dtype=float)
    epsilon = model._check_real("epsilon", epsilon, 0.0, math.inf, hi_open=True)
    zero = ((3.0 + epsilon) / (1.0 + epsilon), (1.0 + epsilon) / (2.0 + epsilon), 0.5, 1.0)
    value, q_b, x_b, x_d = columns = [np.full(betas.shape, v) for v in zero]
    positive = betas > 0.0
    for column, found in zip(columns, _worst(betas[positive], epsilon)):
        column[positive] = found
    rows = (v.tolist() for v in (betas, q_b, x_b, x_d, value, x_b < 0.5))
    return list(map(WorstCaseSolution._make, zip(*rows)))


def solve_worst_case_margin(beta: float, epsilon: float) -> WorstCaseSolution:
    """Worst case subject to a strengthened expected-vote lead.

    The left candidate must lead the right's expected votes by a factor of at
    least ``1 + epsilon`` (finite, ``>= 0``); ``epsilon = 0`` recovers
    :func:`solve_worst_case`.  At ``beta = 0`` the supremum is
    ``(3 + epsilon) / (1 + epsilon)``, at ``q_b = (1 + epsilon) / (2 + epsilon)``.
    """
    return _solve([beta], epsilon)[0]


def solve_worst_case(beta: float) -> WorstCaseSolution:
    """Maximum distortion of the expected winner at this beta."""
    return solve_worst_case_margin(beta, 0.0)


def sweep_beta(betas: Sequence[float]) -> list[WorstCaseSolution]:
    """One worst-case solution per beta, in the given order, all solved at once."""
    return _solve(betas, 0.0)


def sweep_csv(solutions: Sequence[WorstCaseSolution]) -> str:
    """Render solutions as CSV with the stable schema: one ``%.12g`` format per row."""
    rows = [
        "%.12g,%.12g,%.12g,%.12g,%.12g,%s"
        % (beta, value, q_b, x_b, x_d, "true" if attained else "false")
        for beta, q_b, x_b, x_d, value, attained in solutions
    ]
    return "\n".join(["beta,dstar,q_b,x_b,x_d,attained", *rows]) + "\n"


def witness_election(solution: WorstCaseSolution, total: int = 400) -> LineElection:
    """Concrete two-point election realizing (approximately) a solution.

    Rounds ``q_b * total`` up until the left candidate genuinely leads on
    expected votes, so the witness is always in the configuration the solver
    models.
    """
    total = model._check_count("total", total, 1)
    m_b = math.ceil(solution.q_b * total)
    while m_b <= total:
        e = LineElection([solution.x_b] * m_b + [solution.x_d] * (total - m_b))
        if model.expected_winner(e, solution.beta) == model.LEFT:
            return e
        m_b += 1
    raise ValueError("no rounding of the witness keeps the left candidate leading")


def vote_count_threshold(alpha: float) -> float:
    """Expected votes per candidate needed for the (1 + 2 alpha) guarantee.

    Evaluates ``(alpha + 1)^3 / (alpha^2 (alpha - sqrt(alpha + 1))^2)``.
    Undefined at ``alpha = (1 + sqrt(5)) / 2`` where the second denominator
    factor vanishes.  Alpha must lie in ``[1e-100, 1e50]``: there every power
    above is a normal float, and outside it the threshold would be below
    1e-50 or above 1e200, of no use to an audit.
    """
    alpha = model._check_real("alpha", alpha, 1e-100, 1e50)
    gap = alpha - math.sqrt(alpha + 1.0)
    if gap == 0.0:
        raise ValueError(f"threshold undefined at alpha = {_GOLDEN} (division by zero)")
    return (alpha + 1.0) ** 3 / (alpha**2 * gap**2)


#: Absolute slack of the bound check, for the rounding of an expected distortion.
_BOUND_TOL = 1e-12


@dataclass(frozen=True)
class BoundCheck:
    """Outcome of auditing the expected-distortion bound on one election.

    It stores what it measured: the ``bound`` (a real, kept as a float) and
    exactly one of ``dbar``, the exact expected distortion, and ``reason``,
    the failed precondition.  ``status`` (``pass`` if
    ``dbar <= bound + _BOUND_TOL``, else ``fail``, or ``skipped``),
    ``slack = bound - dbar`` and ``method`` (``exact``) derive from them;
    the last two are None when skipped.
    """

    dbar: Optional[float]
    bound: float
    reason: Optional[str] = None

    def __post_init__(self):
        if (self.dbar is None) == (self.reason is None):
            raise ValueError(f"a check holds exactly one of dbar and reason, got {self!r}")
        object.__setattr__(self, "bound", model._check_real("bound", self.bound))

    @property
    def status(self) -> str:
        if self.reason is not None:
            return "skipped"
        return "pass" if model._within(self.dbar, self.bound, _BOUND_TOL) else "fail"

    @property
    def slack(self) -> Optional[float]:
        return None if self.reason is not None else self.bound - self.dbar

    @property
    def method(self) -> Optional[str]:
        return None if self.reason is not None else "exact"


def verify_distortion_bound(
    alpha: float, beta: float, elections: Sequence[LineElection]
) -> list[BoundCheck]:
    """Check expected distortion <= (1 + 2 alpha) * worst case, per election.

    The worst case is :func:`solve_worst_case` at ``beta``.  Each election
    is evaluated once, exactly, by
    :func:`votedist.exact.expected_distortion`, at any size.  Elections whose
    expected vote counts fall below :func:`vote_count_threshold` or whose
    right candidate is not strictly optimal (a tie included) are reported as
    skipped, not failed.
    """
    beta = model.check_beta(beta)
    threshold = vote_count_threshold(alpha)
    bound = (1.0 + 2.0 * alpha) * solve_worst_case(beta).value

    checks = []
    for e in elections:
        report = exact.expected_distortion(e, beta)
        if min(report.expected_votes_left, report.expected_votes_right) < threshold:
            check = BoundCheck(None, bound, f"expected votes below threshold {threshold:.6g}")
        elif not report.sc_right < report.sc_left:
            check = BoundCheck(None, bound, "right candidate is not strictly optimal")
        else:
            check = BoundCheck(report.expected_distortion, bound)
        checks.append(check)
    return checks


#: The largest vote-count threshold gate elections are built for.  Alpha =
#: 0.001 needs 1.0e6; two of its gate elections hold 6.5M and 4.5M voters.
_MAX_GATE_THRESHOLD = 2e6


def check_gate_inputs(alpha: float, beta: float, count: int) -> tuple[float, float]:
    """Check ``beta``, alpha's range, alpha's threshold against
    ``_MAX_GATE_THRESHOLD`` and ``count``, an integer >= 0, in that order,
    raising ``ValueError`` at the first fault; return ``beta`` and the
    threshold."""
    beta = model.check_beta(beta)
    threshold = vote_count_threshold(alpha)
    if not threshold <= _MAX_GATE_THRESHOLD:
        raise ValueError(
            f"alpha = {alpha} needs {threshold:.6g} expected votes per candidate; "
            f"gate elections are built for at most {_MAX_GATE_THRESHOLD:g}"
        )
    model._check_count("count", count)
    return beta, threshold


def generate_gate_elections(
    alpha: float, beta: float, count: int, seed: int
) -> list[LineElection]:
    """Random elections clearing the vote-count gate, right candidate optimal.

    Each election is a small cloud of B sites plus one D site, with
    multiplicities scaled so both expected vote counts exceed
    :func:`vote_count_threshold` and the right candidate is strictly optimal.
    """
    seed = model._check_count("seed", seed)
    beta, threshold = check_gate_inputs(alpha, beta, count)
    rng = np.random.default_rng(seed)
    out: list[LineElection] = []
    for _ in range(_GATE_ATTEMPTS):
        if len(out) == count:
            break
        n_sites = int(rng.integers(2, 7))
        sites = rng.uniform(0.0, 0.45, size=n_sites)
        weights = rng.dirichlet(np.ones(n_sites))
        x_d = float(rng.uniform(1.2, 2.5))
        margin = float(rng.uniform(1.05, 1.5))

        p_b = (1.0 - 2.0 * sites) ** beta
        mean_p_b = float(np.dot(weights, p_b))
        m_b_total = math.ceil(threshold * margin / mean_p_b)
        m_b = np.maximum(1, np.rint(weights * m_b_total).astype(int))

        p_d = (2.0 * x_d - 1.0) ** (-beta)
        lead = float(np.dot(m_b, 1.0 - 2.0 * sites))
        m_d = max(
            math.ceil(threshold * margin / p_d),
            math.ceil(lead * float(rng.uniform(1.05, 2.0))),
        )

        positions = np.concatenate([np.repeat(sites, m_b), np.full(m_d, x_d)])
        e = LineElection(positions)
        sc_left, sc_right = model.social_costs(e)
        if min(model.expected_votes(e, beta)) >= threshold and sc_right < sc_left:
            out.append(e)
    if len(out) < count:
        raise RuntimeError(
            f"generated only {len(out)} of {count} elections in {_GATE_ATTEMPTS} tries"
        )
    return out
