"""Elections in arbitrary metric spaces, and their reduction to the line.

A metric election keeps only what the analysis ever uses: each voter's
distance pair to the two candidates, with the candidate separation
normalized to 1 (so ``d_left + d_right >= 1`` by the triangle inequality).
Any such pair list is realizable in some metric space.  Through
``MetricElection.distances`` a metric election goes straight into the
engines, e.g. ``exact.expected_distortion(m, beta)``.

``reduce_to_line`` builds a line election in which every voter keeps her
preferred candidate and her exact participation probability, while both the
expected winner's distortion and the expected distortion can only grow.  The
map splits voters by their distance ratio against the left candidate's
distortion: ratios up to it land at ``ratio / (ratio + 1)``, larger ratios at
``ratio / (ratio - 1)``, and voters co-located with the right candidate at 1.
"""

from __future__ import annotations

import math
from functools import cached_property
from typing import Iterable, NamedTuple

import numpy as np

from . import model
from .model import LineElection

__all__ = [
    "MetricElection",
    "LineReduction",
    "distance_ratio",
    "reduce_to_line",
    "swap_labels",
]

#: Slack for the triangle-inequality check, absorbing distance round-off.
TRIANGLE_TOL = 1e-12


class MetricElection(model._VoterArray):
    """Per-voter distance pairs (d_left, d_right), separation normalized to 1.

    ``array`` has shape ``(n, 2)``; ``pairs`` is the tuple of float pairs,
    built on first access.
    """

    _VIEW = "pairs"
    _ROW = (2,)

    @staticmethod
    def _check(a: np.ndarray) -> None:
        # min propagates NaN, so three reductions cover every check; only
        # when one fails are the voters scanned, in order, for the first.
        if a.min() >= 0.0 and a.max() < math.inf and a.sum(1).min() >= 1.0 - TRIANGLE_TOL:
            return
        for i, (d_left, d_right) in enumerate(a.tolist()):
            if not (math.isfinite(d_left) and math.isfinite(d_right)):
                raise ValueError(f"voter {i} has non-finite distances")
            if d_left < 0 or d_right < 0:
                raise ValueError(f"voter {i} has negative distances")
            if d_left + d_right < 1.0 - TRIANGLE_TOL:
                raise ValueError(
                    f"voter {i} violates the triangle inequality: "
                    f"{d_left} + {d_right} < 1"
                )

    @cached_property
    def pairs(self) -> tuple[tuple[float, float], ...]:
        return tuple(map(tuple, self.array.tolist()))

    @cached_property
    def _distances(self) -> tuple[np.ndarray, np.ndarray]:
        return self.array[:, 0], self.array[:, 1]


class LineReduction(NamedTuple):
    """Line image of a metric election.

    ``swapped`` records that candidate labels were exchanged first because
    the left candidate was optimal in the input; positions then refer to the
    relabeled election.
    """

    election: LineElection
    swapped: bool


def distance_ratio(pair: tuple[float, float]) -> float:
    """Ratio d_left / d_right; inf for voters co-located with the right candidate."""
    d_left, d_right = pair
    if d_right == 0.0:
        if d_left == 0.0:
            raise ValueError("both distances are zero")
        return math.inf
    return d_left / d_right


def swap_labels(m: MetricElection) -> MetricElection:
    """Exchange the two candidates by swapping every distance pair."""
    return MetricElection._trusted(m.array[:, ::-1].copy())


def reduce_to_line(m: MetricElection) -> LineReduction:
    """Line election preserving every voter's preference and participation.

    If the left candidate is optimal the labels are swapped first, so the
    construction always works against a right-optimal election (``swapped``
    reports this).  The split threshold is the left candidate's distortion
    computed from the full social costs, which abstention does not affect.
    Each voter's position is :func:`distance_ratio` mapped as in the module
    docstring, computed for all voters at once.  The map keeps each voter's
    ratio ``d_left / d_right``, which fixes her participation at every beta,
    so it takes no beta.
    """
    sc_left, sc_right = model.social_costs(m)
    swapped = sc_left < sc_right
    if swapped:
        m = swap_labels(m)
        sc_left, sc_right = sc_right, sc_left
    _, dist_left, _ = model.distortion_pair(sc_left, sc_right)

    d_left, d_right = m.distances()
    # Both branches are evaluated for every voter.  As with distance_ratio,
    # the ratio is inf at the right candidate and where it overflows, and
    # such voters land at 1; the pairs rule out 0 / 0.
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        ratio = d_left / d_right
        positions = np.where(
            ratio <= dist_left, ratio / (ratio + 1.0), ratio / (ratio - 1.0)
        )
    positions[np.isinf(ratio)] = 1.0
    return LineReduction(LineElection(positions), swapped)
