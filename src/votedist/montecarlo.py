"""Sampling estimates with distribution-free confidence half-widths.

An estimator independent of :mod:`votedist.exact`, which evaluates every
election exactly at any size; ``votedist simulate`` offers it as a
cross-check.  It reads only a voter's distance pair, so it takes line and
metric elections alike.  Win probability and expected distortion are
estimated by simulating the election, with two-sided half-widths from the
exponential tail bound for bounded variables:

    t = sqrt(ln(2 / (1 - confidence)) / (2 * samples))

for the probability estimate, scaled by the distortion range for the
distortion estimate.  Draws come from one counter-based Philox stream
spawned from the seed, so results are bit-reproducible given the seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import model
from .metric import MetricElection
from .model import LineElection

__all__ = [
    "McConfig",
    "McEstimate",
    "hoeffding_half_width",
    "simulate",
]


@dataclass(frozen=True)
class McConfig:
    """Sampling plan: sample count, seed, confidence level."""

    samples: int
    seed: int
    confidence: float = 0.95

    def __post_init__(self):
        model._check_count("seed", self.seed)
        hoeffding_half_width(self.samples, self.confidence)  # raises on an invalid plan


@dataclass(frozen=True)
class McEstimate:
    """Point estimates with confidence half-widths."""

    p_left_hat: float
    expected_distortion_hat: float
    half_width_p: float
    half_width_d: float


def hoeffding_half_width(samples: int, confidence: float) -> float:
    """Two-sided half-width for the mean of ``samples`` variables in [0, 1].

    ``samples`` must be an integer of at least 1 and ``confidence`` lie in
    (0, 1).
    """
    samples = model._check_count("samples", samples, 1)
    if not 0.0 < confidence < 1.0:
        raise ValueError("confidence must lie in (0, 1)")
    return math.sqrt(math.log(2.0 / (1.0 - confidence)) / (2.0 * samples))


def _groups(e: LineElection | MetricElection, beta: float) -> list[tuple[int, float, int]]:
    # Voters sharing (side, participation) are exchangeable, so their joint
    # vote count can be drawn as one binomial.  The groups come left side
    # before right and participation ascending, which fixes the order of the
    # draws.
    side, p = model.voter_arrays(*e.distances(), beta)
    groups = []
    for s in (-1, 1):
        values, counts = np.unique(p[side == s], return_counts=True)
        groups += [(s, float(q), int(m)) for q, m in zip(values, counts)]
    return groups


def simulate(e: LineElection | MetricElection, beta: float, cfg: McConfig) -> McEstimate:
    """Estimate win probability and expected distortion by simulation.

    Each sample realizes every voter's participation independently and
    applies the majority rule with a fair-coin tie.  Elections where either
    distortion is infinite are rejected; their expected distortion is not a
    bounded variable and has no finite-width interval.
    """
    beta = model.check_beta(beta)
    sc_left, sc_right = model.social_costs(e)
    _, dist_left, dist_right = model.distortion_pair(sc_left, sc_right)
    if math.isinf(dist_left) or math.isinf(dist_right):
        raise ValueError("cannot simulate an election with infinite distortion")

    stream = np.random.SeedSequence(cfg.seed).spawn(1)[0]
    rng = np.random.Generator(np.random.Philox(stream))
    count_left = np.zeros(cfg.samples, dtype=np.int64)
    count_right = np.zeros(cfg.samples, dtype=np.int64)
    for side, p, m in _groups(e, beta):
        drawn = rng.binomial(m, p, size=cfg.samples)
        if side < 0:
            count_left += drawn
        else:
            count_right += drawn
    coin = rng.integers(0, 2, size=cfg.samples).astype(bool)
    left_won = (count_left > count_right) | ((count_left == count_right) & coin)

    p_left_hat = int(np.count_nonzero(left_won)) / cfg.samples
    dbar_hat = float(np.where(left_won, dist_left, dist_right).sum()) / cfg.samples
    t = hoeffding_half_width(cfg.samples, cfg.confidence)
    return McEstimate(
        p_left_hat=p_left_hat,
        expected_distortion_hat=dbar_hat,
        half_width_p=t,
        half_width_d=t * (max(dist_left, dist_right) - 1.0),
    )
