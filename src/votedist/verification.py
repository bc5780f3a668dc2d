"""Randomized audit suites for the displacement and bound machinery.

Each suite draws seeded random elections in the configuration a move needs,
applies the move, and certifies it numerically; canonicalization audits
check the shape of each form, whose chain certified it end to end.  The same
generators back the test suite and the ``verify`` command, so a shipped
binary can re-run the whole audit from a single seed.

One sampler, :func:`random_leading_election`, draws every configured
election: the right candidate strictly optimal, a given ``winner`` leading
on expected votes, and the regions in ``require`` occupied.  A candidate
costs two generator calls: one bounded integer picks its region sizes from
the box whose lower ends are raised to the counts ``require`` asks for, and
one array of uniforms places its voters in their regions' spans, each voter
strictly below its span's upper end.  So every candidate occupies
the regions ``require`` asks for by construction, and the sampler draws
until the exact rule (``fsum`` costs and the tie-aware expected winner)
accepts one; only that candidate is built as an election.  A ``winner``
other than left or right, or a ``require`` with an unknown region or a
count the configuration cannot draw, is rejected before the first draw.

Each move of :func:`displacement_suites` is drawn as ``(winner, require,
pick)``, again while ``pick`` finds no voter the move may take: a C-to-D
crossing needs one of ``displace._crossers``.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from . import displace, model, worstcase
from .metric import MetricElection
from .model import LEFT, RIGHT, LineElection

__all__ = [
    "SuiteResult",
    "random_election",
    "random_beta",
    "random_leading_election",
    "random_euclidean_election",
    "displacement_suites",
    "canonicalization_suites",
    "bound_suite",
]


@dataclass(frozen=True)
class SuiteResult:
    """Aggregate outcome of one randomized audit."""

    name: str
    trials: int
    failures: int
    note: str = ""

    @property
    def ok(self) -> bool:
        return self.failures == 0


def random_beta(rng: np.random.Generator) -> float:
    """Draw beta from a mix of the endpoints and the interior."""
    u = rng.random()
    if u < 0.15:
        return 0.0
    if u < 0.3:
        return 1.0
    return float(rng.uniform(0.05, 1.0))


# The span an unconstrained random election draws its voters from.
_SPAN = (-2.0, 3.0)


def random_election(rng: np.random.Generator, max_voters: int = 12) -> LineElection:
    """Unconstrained random election with 1..max_voters voters in ``_SPAN``."""
    n = int(rng.integers(1, model._check_count("max_voters", max_voters, 1) + 1))
    return LineElection(rng.uniform(*_SPAN, size=n))


# For each winner, the voter counts drawn in regions A, B, C and D (at least
# the first tuple, below the second) and the span of their positions.
_CONFIGURATIONS = {
    LEFT: (((0, 1, 0, 1), (3, 5, 3, 5)),
           ((-1.5, -1e-9), (0.0, 0.5), (0.5 + 1e-9, 1.0), (1.0, 3.0))),
    RIGHT: (((0, 0, 0, 1), (3, 3, 3, 6)),
            ((-1.0, -1e-9), (0.25, 0.5), (0.5 + 1e-9, 1.0), (1.0, 2.0))),
}


def _pick(rng: np.random.Generator, items: Sequence):
    """One of ``items``, uniformly: the draw ``rng.choice(items)`` makes,
    leaving the same generator state, without converting ``items`` to an
    array."""
    return items[int(rng.integers(len(items)))]


# Draws a sampler makes before it gives up.
_MAX_TRIES = 4000


@functools.cache
def _size_box(winner: str, require: tuple) -> tuple[tuple[int, ...], ...]:
    """The region sizes a ``winner``-leading candidate that meets ``require``
    may have: every size vector of the box whose lows are raised to the
    counts ``require`` asks for, listed with region D's size varying fastest.

    Raises ``ValueError`` for a ``winner`` other than left and right, for a
    label that is not a region, or for a count above the most voters the
    configuration draws in its region.
    """
    unknown = sorted(set(require) - set(model._REGIONS))
    if unknown:
        raise ValueError(f"unknown region {unknown[0]!r} in require; regions are A, B, C and D")
    if winner not in _CONFIGURATIONS:
        raise ValueError(f"winner must be {LEFT!r} or {RIGHT!r}, got {winner!r}")
    (lows, highs), _ = _CONFIGURATIONS[winner]
    ranges = []
    for region, lo, hi in zip(model._REGIONS, lows, highs):
        count = require.count(region)
        if count >= hi:
            raise ValueError(
                f"require asks for {count} voters in region {region}, but a "
                f"{winner}-leading election draws at most {hi - 1}"
            )
        ranges.append(range(max(lo, count), hi))
    return tuple(itertools.product(*ranges))


def random_leading_election(
    rng: np.random.Generator, beta: float, winner: str, require: tuple[str, ...] = ()
) -> LineElection:
    """Random election that ``winner`` leads on expected votes, right optimal.

    ``winner`` is ``left`` or ``right``.  ``require`` lists region labels
    that must be occupied, with multiplicity (interior occupancy for C).

    Each candidate costs two generator calls.  The first is one bounded
    integer, which picks the region sizes uniformly from :func:`_size_box`.
    The second draws one uniform per voter, scaled into its region's span as
    ``rng.uniform`` scales it and clamped to the largest float below the
    span's upper end: a scaled uniform can round onto that end, which lies
    outside the region for the C span (1.0) and the right-leading B span
    (0.5).  So each candidate has the region sizes drawn and meets
    ``require``, and :func:`_accepts` decides the rest.

    Sizes uniform on the raised box are sizes uniform on the whole box
    conditioned on meeting ``require``, and the positions do not depend on
    the sizes, so raising the box leaves the law of the accepted elections
    as it is.
    """
    beta = model.check_beta(beta)
    box = _size_box(winner, tuple(require))
    spans = [(lo, hi - lo, math.nextafter(hi, lo)) for lo, hi in _CONFIGURATIONS[winner][1]]
    for _ in range(_MAX_TRIES):
        sizes = _pick(rng, box)
        u = iter(rng.random(sum(sizes)).tolist())
        x = [v if (v := lo + width * next(u)) < top else top
             for (lo, width, top), n in zip(spans, sizes) for _ in range(n)]
        if _accepts(x, beta, winner):
            return LineElection(x)
    raise RuntimeError(f"no {winner}-leading election in {_MAX_TRIES} draws")


def _accepts(x: list[float], beta: float, winner: str) -> bool:
    """The sampler's accept rule on positions ``x``, for a checked ``beta``.

    Right is strictly optimal and ``winner`` is the expected winner, each
    read from the same floats and by the same operations as ``social_costs``
    and ``expected_winner`` of ``LineElection(x)`` at up to
    ``model.SCALAR_LIMIT`` voters.
    """
    d_left, d_right = model._line_distances(x)
    if not math.fsum(d_right) < math.fsum(d_left):
        return False
    return model._winner(*model._votes(*model._scalar_sides(d_left, d_right, beta))) == winner


def random_euclidean_election(
    rng: np.random.Generator, max_voters: int = 12
) -> MetricElection:
    """Random planar election; candidates 1 apart, voters scattered around."""
    n = int(rng.integers(1, model._check_count("max_voters", max_voters, 1) + 1))
    pts = np.column_stack(
        [rng.uniform(-1.0, 2.0, size=n), rng.uniform(-1.5, 1.5, size=n)]
    )
    pairs = [
        (math.hypot(x, y), math.hypot(x - 1.0, y))
        for x, y in pts
    ]
    return MetricElection(pairs)


def _one_of_each(*regions: str):
    """Pick of one voter of each of ``regions``, in order."""
    return lambda rng, e: tuple(_pick(rng, model._indices_in(e.positions, r)) for r in regions)


def _two(rng: np.random.Generator, idx: list[int]) -> tuple[int, int]:
    """Two distinct voters of ``idx``."""
    i, j = rng.choice(idx, size=2, replace=False)
    return int(i), int(j)


def _pick_b_or_d_pair(rng: np.random.Generator, e: LineElection) -> tuple[int, int]:
    d_voters = model._indices_in(e.positions, "D")
    if len(d_voters) >= 2 and rng.random() < 0.5:
        return _two(rng, d_voters)
    return _two(rng, model._indices_in(e.positions, "B"))


def _pick_crossing(rng: np.random.Generator, e: LineElection) -> tuple[int] | None:
    """One interior-C voter whose crossing to D is valid, or ``None``: below
    the bar a crossing lowers the expected distortion (see ``map_c_to_d``)."""
    valid = displace._crossers(e)
    return (_pick(rng, valid),) if valid else None


def _draw(rng: np.random.Generator, beta: float, winner: str, require: tuple, pick):
    """A random election in a move's configuration and the voters it moves.

    Draws :func:`random_leading_election` of ``winner`` and ``require``
    again while ``pick(rng, election)`` returns ``None``.
    """
    for _ in range(_MAX_TRIES):
        e = random_leading_election(rng, beta, winner, require)
        picked = pick(rng, e)
        if picked is not None:
            return e, picked
    raise RuntimeError(f"no {winner}-leading election in {_MAX_TRIES} draws had voters to move")


def displacement_suites(trials: int, seed: int) -> list[SuiteResult]:
    """Certify every move kind on ``trials`` random elections each."""
    seed = model._check_count("seed", seed)
    trials = model._check_count("trials", trials, 1)
    rng = np.random.default_rng(seed)
    win = displace.certify_winner_displacement
    dbar = displace.certify_expected_displacement
    # Each move with its certificate and its draw: (winner, require, pick).
    moves = (
        ("A_to_zero", displace.move_a_to_zero, win, (LEFT, ("A",), _one_of_each("A"))),
        ("BC_pair", displace.move_bc_pair, win, (LEFT, ("B", "C"), _one_of_each("B", "C"))),
        ("same_region_merge", displace.merge_same_region, win,
         (LEFT, ("B", "B"), _pick_b_or_d_pair)),
        ("A_to_B_map", displace.map_a_to_b, dbar, (RIGHT, ("A",), _one_of_each("A"))),
        ("C_to_D_map", displace.map_c_to_d, dbar, (RIGHT, ("C",), _pick_crossing)),
        ("D_geometric_merge", displace.merge_d_geometric, dbar,
         (RIGHT, ("D", "D"), lambda rng, e: _two(rng, model._indices_in(e.positions, "D")))),
    )
    results = []
    for name, move, certify, draw in moves:
        failures = 0
        for _ in range(trials):
            beta = random_beta(rng)
            before, picked = _draw(rng, beta, *draw)
            if not certify(before, move(before, *picked), beta).passed:
                failures += 1
        results.append(SuiteResult(name, trials, failures))
    return results


#: Relative slack of the D* check, in float spacings: D* reads within 2
#: spacings of the supremum, and a form's distortion within 2 of its own.
_DSTAR_ULPS = 8


def _winner_forms_ok(forms: list[displace.CanonicalForm], betas: list[float]) -> list[bool]:
    """Per form: two points in B and D, and a left distortion within D*(beta).

    A winner form is a two-point election that left leads and right costs
    less, so its left distortion is at most the worst case.  D* comes from one
    :func:`worstcase._solve` over the suite's betas; the slack is relative.
    """
    ok = []
    for form, worst in zip(forms, worstcase._solve(betas, 0.0)):
        positions = form.election.positions
        ok.append(
            len(set(positions)) <= 2
            and all(0.0 <= x <= 0.5 or x >= 1.0 for x in positions)
            and model._candidate_distortion(form.election, LEFT)
            <= worst.value * (1.0 + _DSTAR_ULPS * model._EPS)
        )
    return ok


def _expected_forms_ok(forms: list[displace.CanonicalForm], betas: list[float]) -> list[bool]:
    """Per form: no A voter, one D position, and no valid C-to-D crossing.

    Interior-C voters may remain only when crossing them would lower the
    expected distortion, i.e. their cost ratio sits below the final bar.
    """
    ok = []
    for form in forms:
        positions = form.election.positions
        ok.append(
            not model._indices_in(positions, "A")
            and len({positions[i] for i in model._indices_in(positions, "D")}) <= 1
            and not displace._crossers(form.election)
        )
    return ok


def canonicalization_suites(trials: int, seed: int) -> list[SuiteResult]:
    """Run both canonicalizations on random configured elections.

    A form fails if its chain raises, if it was not applied, or if its shape
    (and, for the winner form, its distortion against D*) is wrong.
    """
    seed = model._check_count("seed", seed)
    trials = model._check_count("trials", trials, 1)
    rng = np.random.default_rng(seed)
    suites = (
        ("canonical_winner_form", LEFT,
         displace.canonicalize_expected_winner, _winner_forms_ok),
        ("canonical_expected_form", RIGHT,
         displace.canonicalize_expected_distortion, _expected_forms_ok),
    )
    results = []
    for name, winner, canonicalize, forms_ok in suites:
        failures, forms, betas = 0, [], []
        for _ in range(trials):
            beta = random_beta(rng)
            e = random_leading_election(rng, beta, winner)
            try:
                forms.append(canonicalize(e, beta))
                betas.append(beta)
            except displace.CertificateError:
                failures += 1
        failures += sum(
            1 for form, ok in zip(forms, forms_ok(forms, betas)) if not (form.applied and ok)
        )
        results.append(SuiteResult(name, trials, failures))
    return results


def bound_suite(alpha: float, beta: float, count: int, seed: int) -> SuiteResult:
    """Audit the (1 + 2 alpha) expected-distortion bound on gate elections."""
    elections = worstcase.generate_gate_elections(alpha, beta, count, seed)
    checks = worstcase.verify_distortion_bound(alpha, beta, elections)
    bad = sum(1 for c in checks if c.status == "fail")
    skipped = sum(1 for c in checks if c.status == "skipped")
    note = f"skipped={skipped}" if skipped else ""
    return SuiteResult("expected_distortion_bound", count, bad, note)
