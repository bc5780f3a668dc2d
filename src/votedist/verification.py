"""Randomized audit suites for the displacement and bound machinery.

Each suite draws seeded random elections in the configuration a move needs,
applies the move, and certifies it numerically; canonicalization audits
check the shape of each form, whose chain certified it end to end.  The same
generators back the test suite and the ``verify`` command, so a shipped
binary can re-run the whole audit from a single seed.

The configured samplers draw candidate elections until one meets the
configuration.  A candidate costs two generator calls, its region sizes and
then its voters' uniforms, which give the same elections and leave the same
generator state as drawing each region with ``rng.uniform``.  The exact rule
(``fsum`` costs and the tie-aware expected winner) runs on the candidate's
position list, and only the candidate it accepts is built as an election.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import displace, model, worstcase
from .metric import MetricElection
from .model import LEFT, RIGHT, LineElection

__all__ = [
    "SuiteResult",
    "random_election",
    "random_beta",
    "random_left_leading_election",
    "random_right_leading_election",
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


def random_election(
    rng: np.random.Generator, max_voters: int = 12, lo: float = -2.0, hi: float = 3.0
) -> LineElection:
    """Unconstrained random election with 1..max_voters voters."""
    n = int(rng.integers(1, max_voters + 1))
    return LineElection(rng.uniform(lo, hi, size=n))


# Whether a position lies in region A, B, C or D of ``model.region_of``; for
# C only its interior, as 1/2 is indifferent.
_IN_REGION = {
    "A": lambda x: x < 0.0,
    "B": lambda x: 0.0 <= x < 0.5,
    "C": lambda x: 0.5 < x < 1.0,
    "D": lambda x: x >= 1.0,
}


# For each winner, the voter counts drawn in regions A, B, C and D (at least
# the first array, below the second) and the span of their positions.
_CONFIGURATIONS = {
    LEFT: ((np.array([0, 1, 0, 1]), np.array([3, 5, 3, 5])),
           ((-1.5, -1e-9), (0.0, 0.5), (0.5 + 1e-9, 1.0), (1.0, 3.0))),
    RIGHT: ((np.array([0, 0, 0, 1]), np.array([3, 3, 3, 6])),
            ((-1.0, -1e-9), (0.25, 0.5), (0.5 + 1e-9, 1.0), (1.0, 2.0))),
}


# Draws a sampler makes before it gives up.
_MAX_TRIES = 4000
_MAX_VALID_C_TRIES = 2000


def _configured_election(
    rng: np.random.Generator, beta: float, winner: str, require: tuple
) -> LineElection:
    """Random election that ``winner`` leads on expected votes, right optimal.

    Each candidate costs two generator calls: the four region sizes, then one
    uniform per voter, scaled into its region's span as ``rng.uniform``
    scales it.  :func:`_accepts` decides on the position list.
    """
    beta = model.check_beta(beta)
    (lows, highs), spans = _CONFIGURATIONS[winner]
    for _ in range(_MAX_TRIES):
        sizes = rng.integers(lows, highs).tolist()
        u = iter(rng.random(sum(sizes)).tolist())
        x = [lo + (hi - lo) * next(u) for (lo, hi), n in zip(spans, sizes) for _ in range(n)]
        if _accepts(x, beta, winner, require):
            return LineElection(x)
    raise RuntimeError(f"no {winner}-leading election in {_MAX_TRIES} draws")


def _meets(x: list[float], require: tuple) -> bool:
    """Whether positions ``x`` occupy the regions of ``require``, with multiplicity."""
    return all(sum(map(_IN_REGION[r], x)) >= require.count(r) for r in set(require))


def _accepts(x: list[float], beta: float, winner: str, require: tuple) -> bool:
    """The sampler's accept rule on positions ``x``, for a checked ``beta``.

    ``x`` meets ``require``, right is strictly optimal and ``winner`` is the
    expected winner, each read from the same floats and by the same
    operations as ``social_costs`` and ``expected_winner`` of
    ``LineElection(x)`` at up to ``model.SCALAR_LIMIT`` voters.
    """
    if not _meets(x, require):
        return False
    d_left, d_right = model._line_distances(x)
    if not math.fsum(d_right) < math.fsum(d_left):
        return False
    return model._winner(*model._votes(*model._scalar_sides(d_left, d_right, beta))) == winner


def random_left_leading_election(
    rng: np.random.Generator, beta: float, require: tuple[str, ...] = ()
) -> LineElection:
    """Random election where left leads expected votes but right is optimal.

    ``require`` lists region labels that must be occupied, with multiplicity
    (interior occupancy for C).
    """
    return _configured_election(rng, beta, LEFT, require)


def random_right_leading_election(
    rng: np.random.Generator, beta: float, require: tuple[str, ...] = ()
) -> LineElection:
    """Random election where the right candidate is optimal and leads on votes."""
    return _configured_election(rng, beta, RIGHT, require)


def random_euclidean_election(
    rng: np.random.Generator, max_voters: int = 12
) -> MetricElection:
    """Random planar election; candidates 1 apart, voters scattered around."""
    n = int(rng.integers(1, max_voters + 1))
    pts = np.column_stack(
        [rng.uniform(-1.0, 2.0, size=n), rng.uniform(-1.5, 1.5, size=n)]
    )
    pairs = [
        (math.hypot(x, y), math.hypot(x - 1.0, y))
        for x, y in pts
    ]
    return MetricElection(pairs)


def _indices_in(e: LineElection, region: str) -> list[int]:
    """Voters in a region; for C only its interior, as 1/2 is indifferent."""
    inside = _IN_REGION[region]
    return [i for i, x in enumerate(e.positions) if inside(x)]


def displacement_suites(trials: int, seed: int) -> list[SuiteResult]:
    """Certify every move kind on ``trials`` random elections each."""
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    rng = np.random.default_rng(seed)

    def pick_one(region, config):
        def sampler(beta):
            e = config(rng, beta, require=(region,))
            idx = _indices_in(e, region)
            return e, (int(rng.choice(idx)),)

        return sampler

    def pick_two(region, config):
        def sampler(beta):
            e = config(rng, beta, require=(region, region))
            idx = _indices_in(e, region)
            i, j = rng.choice(idx, size=2, replace=False)
            return e, (int(i), int(j))

        return sampler

    def pick_bc(beta):
        e = random_left_leading_election(rng, beta, require=("B", "C"))
        i = int(rng.choice(_indices_in(e, "B")))
        j = int(rng.choice(_indices_in(e, "C")))
        return e, (i, j)

    def pick_valid_c(beta):
        # The C-to-D crossing is only guaranteed valid for voters whose cost
        # ratio x/(1-x) reaches the left candidate's distortion; draw from
        # that domain (crossing below it demonstrably lowers the expected
        # distortion, see map_c_to_d).
        for _ in range(_MAX_VALID_C_TRIES):
            e = random_right_leading_election(rng, beta, require=("C",))
            bar, x = model._candidate_distortion(e, LEFT), e.array
            ok = [j for j in _indices_in(e, "C") if x[j] / (1.0 - x[j]) >= bar]
            if ok:
                return e, (int(rng.choice(ok)),)
        raise RuntimeError("could not sample a valid C-to-D instance")

    def pick_b_or_d_pair(beta):
        e = random_left_leading_election(rng, beta, require=("B", "B"))
        region = "B"
        if len(_indices_in(e, "D")) >= 2 and rng.random() < 0.5:
            region = "D"
        i, j = rng.choice(_indices_in(e, region), size=2, replace=False)
        return e, (int(i), int(j))

    left, right = random_left_leading_election, random_right_leading_election
    win = displace.certify_winner_displacement
    dbar = displace.certify_expected_displacement
    moves = (
        ("A_to_zero", pick_one("A", left), displace.move_a_to_zero, win),
        ("BC_pair", pick_bc, displace.move_bc_pair, win),
        ("same_region_merge", pick_b_or_d_pair, displace.merge_same_region, win),
        ("A_to_B_map", pick_one("A", right), displace.map_a_to_b, dbar),
        ("C_to_D_map", pick_valid_c, displace.map_c_to_d, dbar),
        ("D_geometric_merge", pick_two("D", right), displace.merge_d_geometric, dbar),
    )
    results = []
    for name, sampler, move, certify in moves:
        failures = 0
        for _ in range(trials):
            beta = random_beta(rng)
            before, picked = sampler(beta)
            if not certify(before, move(before, *picked), beta).passed:
                failures += 1
        results.append(SuiteResult(name, trials, failures))
    return results


def _winner_form_ok(form: displace.CanonicalForm) -> bool:
    positions = form.election.positions
    if len(set(positions)) > 2:
        return False
    return all(0.0 <= x <= 0.5 or x >= 1.0 for x in positions)


def _expected_form_ok(form: displace.CanonicalForm) -> bool:
    positions = form.election.positions
    if any(x < 0.0 for x in positions):
        return False
    if len({x for x in positions if x >= 1.0}) > 1:
        return False
    # Interior-C voters may remain only when crossing them would lower the
    # expected distortion, i.e. their cost ratio sits below the final bar.
    bar = model._candidate_distortion(form.election, LEFT)
    return all(
        x / (1.0 - x) < bar for x in positions if 0.5 < x < 1.0
    )


def canonicalization_suites(trials: int, seed: int) -> list[SuiteResult]:
    """Run both canonicalizations on random configured elections."""
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    rng = np.random.default_rng(seed)
    suites = (
        ("canonical_winner_form", random_left_leading_election,
         displace.canonicalize_expected_winner, _winner_form_ok),
        ("canonical_expected_form", random_right_leading_election,
         displace.canonicalize_expected_distortion, _expected_form_ok),
    )
    results = []
    for name, sampler, canonicalize, form_ok in suites:
        failures = 0
        for _ in range(trials):
            beta = random_beta(rng)
            e = sampler(rng, beta)
            try:
                form = canonicalize(e, beta)
            except displace.CertificateError:
                failures += 1
                continue
            if not (form.applied and form_ok(form)):
                failures += 1
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
