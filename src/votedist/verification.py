"""Randomized audit suites for the displacement and bound machinery.

Each suite draws seeded random elections in the configuration a move needs,
applies the move, and certifies it numerically; canonicalization audits
check the shape of each form, whose chain certified it end to end.  The same
generators back the test suite and the ``verify`` command, so a shipped
binary can re-run the whole audit from a single seed.

One sampler, :func:`_sample`, draws every configured election, one per
beta of a suite: the right candidate strictly optimal, a given ``winner``
leading on expected votes, and the regions in ``require`` occupied;
:func:`random_leading_election` is a sample of one.  It draws by rejection,
in rounds: each trial still open gets a block of candidates, and a round
draws and measures the candidates of every open trial in one array pass.
A candidate's region sizes come from the box whose lower ends are raised to
the counts ``require`` asks for, and its voters lie in their regions'
spans, each strictly below its span's upper end, so every candidate
occupies the regions ``require`` asks for by construction.  The exact rule
(``fsum`` costs and the tie-aware expected winner) accepts each trial's
first passing candidate; a float filter only skips candidates that
certainly fail.  Only that candidate is built as an election.  A
``winner`` other than left or right, or a ``require`` with an unknown
region or a count the configuration cannot draw, is rejected before the
first draw.

Each move of :func:`displacement_suites` is drawn as ``(winner, require,
pick)``: a suite draws its trials' betas, samples them, and picks each
trial's voters; a trial where ``pick`` finds no voter the move may take (a
C-to-D crossing needs one of ``displace._crossers``) is sampled again.
Moves and certificates draw nothing from the generator.  Then one batch
measures every election before and after its move
(``displace._certify_moves``), and each certificate is the one the public
certifier gives.
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


# Draws a sampler makes for one election before it gives up.
_MAX_TRIES = 4000

# Candidates a sampler round draws for each trial still open.
_BLOCK = 4


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
    The election is :func:`_sample`'s for the one beta.
    """
    return _sample(rng, [beta], winner, require)[0]


def _sample(
    rng: np.random.Generator, betas: Sequence[float], winner: str, require: tuple[str, ...] = ()
) -> list[LineElection]:
    """One :func:`random_leading_election` per beta, drawn in rounds.

    A round gives each trial still open ``_BLOCK`` candidates, rows of one
    array, and draws them in two generator calls.  The first is one bounded
    integer per candidate, which picks its region sizes uniformly from
    :func:`_size_box`.  The second draws a row of uniforms per candidate,
    one per slot of the largest election the box holds: slot ``j`` lies in
    region ``r`` by the candidate's cumulative region sizes, and its uniform
    is scaled into the region's span as ``rng.uniform`` scales it and
    clamped to the largest float below the span's upper end (a scaled
    uniform can round onto that end, which lies outside the region for the
    C span, 1.0, and the right-leading B span, 0.5).  Unused slots hold 1/2,
    which is indifferent.  So each candidate has the region sizes drawn and
    meets ``require``.

    One ``model._batch_sides`` measures every candidate of the round, and
    :func:`_may_pass` skips those that certainly fail.  Every other
    candidate goes through :func:`_passes`, in its trial's draw order, and
    the first one that passes is the trial's election.  A trial that sees
    ``_MAX_TRIES`` candidates without one raises ``RuntimeError``.

    Each trial's election is the first accepted one among its own i.i.d.
    candidates at its beta, as a loop over one trial at a time would accept.
    Sizes uniform on the raised box are sizes uniform on the whole box
    conditioned on meeting ``require``, and the positions do not depend on
    the sizes, so raising the box leaves the law of the accepted elections
    as it is.
    """
    betas = np.array([model.check_beta(beta) for beta in betas])
    box = _size_box(winner, tuple(require))
    ends = np.cumsum(box, axis=1)
    n = int(ends[:, -1].max())
    # Per region A-D and for the unused slots: the span's low end, width and top.
    spans = _CONFIGURATIONS[winner][1]
    low = np.array([lo for lo, _ in spans] + [0.5])
    width = np.array([hi - lo for lo, hi in spans] + [0.0])
    top = np.array([math.nextafter(hi, lo) for lo, hi in spans] + [0.5])
    elections: list = [None] * len(betas)
    tries, open_trials = 0, np.arange(len(betas))
    while len(open_trials):
        if tries == _MAX_TRIES:
            raise RuntimeError(f"no {winner}-leading election in {_MAX_TRIES} draws")
        # Every open trial has seen ``tries`` candidates.
        block = min(_BLOCK, _MAX_TRIES - tries)
        tries += block
        trial = np.repeat(open_trials, block)
        row_ends = ends[rng.integers(len(box), size=len(trial))]
        u = rng.random((len(trial), n))
        region = (np.arange(n) >= row_ends[:, :, None]).sum(axis=1)
        x = np.minimum(low[region] + width[region] * u, top[region])
        d_left, d_right, _, sides = model._batch_sides(x, betas[trial])
        kept = np.flatnonzero(_may_pass(d_left, d_right, sides, winner))
        rows = zip(kept.tolist(), trial[kept].tolist(), row_ends[kept, -1].tolist(),
                   d_left[kept].tolist(), d_right[kept].tolist(), sides[kept].tolist())
        for row, t, size, dl, dr, (left, right) in rows:
            if elections[t] is None and _passes(dl[:size], dr[:size], left, right, winner):
                elections[t] = LineElection._trusted(x[row, :size].copy())
        open_trials = np.array([t for t in open_trials.tolist() if elections[t] is None], dtype=int)
    return elections


def _may_pass(
    d_left: np.ndarray, d_right: np.ndarray, sides: np.ndarray, winner: str
) -> np.ndarray:
    """Per row of ``model._batch_sides``, whether :func:`_passes` may accept it.

    A float row sum of ``n`` nonnegative terms lies within ``(n - 1) eps / 2``
    of the exact sum, relative to it, and ``fsum`` rounds the exact sum
    once.  So a right cost that is not below the left one, or a ``winner``
    who trails on expected votes, by more than ``n * eps`` times the two
    sums fails the exact rule too.  The filter never accepts a row, and a
    voter at 1/2 adds the same distance to both costs and no votes.
    """
    slack = d_left.shape[1] * model._EPS
    costs = np.stack([d_left.sum(axis=1), d_right.sum(axis=1)], axis=1)
    votes = sides.sum(axis=2)
    rival = 1 if winner == LEFT else 0
    trail = votes[:, rival] - votes[:, 1 - rival]
    return (model._within(costs[:, 1] - costs[:, 0], 0.0, slack * costs.sum(axis=1))
            & model._within(trail, 0.0, slack * votes.sum(axis=1)))


def _passes(
    d_left: list[float], d_right: list[float], left: list[float], right: list[float], winner: str
) -> bool:
    """The sampler's accept rule on one measured candidate.

    Takes the voters' distances to the left and the right candidate and the
    participation of each side (zeros, for other voters, add nothing to a
    sum).  Right is strictly optimal and ``winner`` is the expected winner,
    each read from the same floats and by the same operations as
    ``social_costs`` and ``expected_winner`` of the candidate's election.
    """
    costs = model._fsum_costs(d_left, d_right)
    return costs[1] < costs[0] and model._winner(*model._votes(left, right)) == winner


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
    """Two distinct voters of ``idx``, uniform over the ordered pairs: the
    second is drawn from the others, by skipping the first's index."""
    i, j = int(rng.integers(len(idx))), int(rng.integers(len(idx) - 1))
    return idx[i], idx[j + (j >= i)]


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


def _draw(rng: np.random.Generator, betas: list[float], winner: str, require: tuple, pick):
    """Random elections in a move's configuration, one per beta, and the
    voters each move takes, as two lists.

    Samples every trial (:func:`_sample` of ``winner`` and ``require``),
    then picks its voters, ``pick(rng, election)``, trial by trial; a trial
    whose pick is ``None`` is sampled again at its beta in the next call.
    """
    drawn: list = [None] * len(betas)
    todo = list(range(len(betas)))
    for _ in range(_MAX_TRIES):
        for i, e in zip(todo, _sample(rng, [betas[i] for i in todo], winner, require)):
            picked = pick(rng, e)
            if picked is not None:
                drawn[i] = e, picked
        todo = [i for i in todo if drawn[i] is None]
        if not todo:
            elections, picks = zip(*drawn)
            return list(elections), list(picks)
    raise RuntimeError(f"no {winner}-leading election in {_MAX_TRIES} draws had voters to move")


def displacement_suites(trials: int, seed: int) -> list[SuiteResult]:
    """Certify every move kind on ``trials`` random elections each.

    Each move kind draws its trials' betas, samples and moves its trials,
    then certifies them in one batch: its ``trials`` elections before and
    after the move are measured in one array pass, with the public
    certifiers' results.
    """
    seed = model._check_count("seed", seed)
    trials = model._check_count("trials", trials, 1)
    rng = np.random.default_rng(seed)
    # Each move, whether its certificate is the winner-preserving one, and
    # its draw: (winner, require, pick).
    moves = (
        ("A_to_zero", displace.move_a_to_zero, True, (LEFT, ("A",), _one_of_each("A"))),
        ("BC_pair", displace.move_bc_pair, True, (LEFT, ("B", "C"), _one_of_each("B", "C"))),
        ("same_region_merge", displace.merge_same_region, True,
         (LEFT, ("B", "B"), _pick_b_or_d_pair)),
        ("A_to_B_map", displace.map_a_to_b, False, (RIGHT, ("A",), _one_of_each("A"))),
        ("C_to_D_map", displace.map_c_to_d, False, (RIGHT, ("C",), _pick_crossing)),
        ("D_geometric_merge", displace.merge_d_geometric, False,
         (RIGHT, ("D", "D"), lambda rng, e: _two(rng, model._indices_in(e.positions, "D")))),
    )
    results = []
    for name, move, preserving, draw in moves:
        betas = [random_beta(rng) for _ in range(trials)]
        befores, picks = _draw(rng, betas, *draw)
        afters = [move(before, *picked) for before, picked in zip(befores, picks)]
        certificates = displace._certify_moves(befores, afters, betas, preserving)
        results.append(SuiteResult(name, trials, sum(not c.passed for c in certificates)))
    return results


#: Relative slack of the D* check, in float spacings: D* reads within 2
#: spacings of the supremum, and a form's distortion within 2 of its own.
_DSTAR_ULPS = 8


def _winner_forms_ok(forms: list[displace.CanonicalForm], betas: list[float]) -> list[bool]:
    """Per form: two points in B and D, and a left distortion within D*(beta).

    A winner form is a two-point election that left leads and right costs
    less, so its left distortion is at most the worst case.  D* comes from one
    :func:`worstcase.sweep_beta` over the suite's betas; the slack is relative.
    """
    ok = []
    for form, worst in zip(forms, worstcase.sweep_beta(betas)):
        positions = form.election.positions
        limit = worst.value * (1.0 + _DSTAR_ULPS * model._EPS)
        ok.append(
            len(set(positions)) <= 2
            and all(0.0 <= x <= 0.5 or x >= 1.0 for x in positions)
            and model._within(model._candidate_distortion(form.election, LEFT), limit, 0.0)
        )
    return ok


def _expected_forms_ok(forms: list[displace.CanonicalForm], betas: list[float]) -> list[bool]:
    """Per form: no A voter, one D position, and no valid C-to-D crossing.

    Interior-C voters may remain only when crossing them would lower the
    expected distortion.  Each one is crossed with :func:`displace.map_c_to_d`,
    independently of the canonicalizer's ``displace._crossers``: a crossing
    keeps the win probabilities, so it lowers the expected distortion exactly
    when it lowers the left candidate's distortion.
    """
    ok = []
    for form in forms:
        e, positions = form.election, form.election.positions
        below_bar = math.nextafter(model._candidate_distortion(e, LEFT), -math.inf)
        crossings = (displace.map_c_to_d(e, j) for j in model._indices_in(positions, "C"))
        ok.append(
            not model._indices_in(positions, "A")
            and len({positions[i] for i in model._indices_in(positions, "D")}) <= 1
            and all(
                model._within(model._candidate_distortion(c, LEFT), below_bar, 0.0)
                for c in crossings
            )
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
        drawn = [random_beta(rng) for _ in range(trials)]
        for beta, e in zip(drawn, _sample(rng, drawn, winner)):
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
