"""Planted faults: which of ``verify --seed 1``'s move and form suites catch
a one-line fault in a displacement helper.

Each row replaces one private helper of ``displace`` with a faulty copy
(the mutation-testing idea of DeMillo, Lipton and Sayward, *Hints on test
data selection*, 1978) and runs the suites that ``verify --seed 1`` runs:
``displacement_suites(200, 1)`` and ``canonicalization_suites(50, 2)``.  It
asserts the set of suites that flag the fault, and that the canonical forms
called the faulty helper: the step tables look their helpers up when called.

A row that no suite flags is a known blind spot.  A certificate checks that
the metric does not fall, not what the move keeps, and most wrong moves
still raise the metric or keep it level; these rows stay blind until each
move's invariant is checked.
"""

import math

import pytest

from votedist import displace, model, verification
from votedist.model import LEFT


def scaled_bar(factor):
    """``displace._crossers`` with its bar, the left candidate's
    distortion, multiplied by ``factor``."""
    def crossers(e):
        bar, pos = factor * model._candidate_distortion(e, LEFT), e.positions
        return [j for j in model._indices_in(pos, "C") if pos[j] / (1.0 - pos[j]) >= bar]
    return crossers


BLIND = frozenset()

FAULTS = [
    ("a_to_b_image", "_a_to_b", lambda x: -x / (1.0 - 1.9 * x), BLIND),
    ("c_to_d_image", "_c_to_d", lambda x: 1.01 * x / (2.0 * x - 1.0), BLIND),
    ("bc_pair_push_out", "_bc_pair",
     lambda xi, xj: (xi + xj - 0.5, 0.5) if xi <= 1.0 - xj else (xi - 0.99 + xj, 1.0), BLIND),
    ("d_collapse_to_mean", "_geometric_limit", lambda xs: math.fsum(xs) / len(xs), BLIND),
    ("collapse_to_mid_range", "_midpoint_limit", lambda xs: 0.5 * (min(xs) + max(xs)),
     {"canonical_winner_form"}),
    ("low_bar", "_crossers", scaled_bar(0.9), {"C_to_D_map", "canonical_expected_form"}),
    # A bar set too high leaves a valid form that is not maximal.  The form's
    # check crosses each C voter left behind with the public ``map_c_to_d``,
    # so it sees the 1.1 bar; the strict bar leaves no such voter in these
    # trials.  ``C_to_D_map`` draws its voters from the faulty ``_crossers``.
    ("high_bar", "_crossers", scaled_bar(1.1), {"canonical_expected_form"}),
    ("strict_bar", "_crossers", scaled_bar(1.0 + 1e-6), BLIND),
]


@pytest.mark.parametrize(
    "helper, fault, flagged", [row[1:] for row in FAULTS], ids=[row[0] for row in FAULTS]
)
def test_planted_fault_is_flagged_by(monkeypatch, helper, fault, flagged):
    calls = []

    def counted(*args):
        calls.append(args)
        return fault(*args)

    monkeypatch.setattr(displace, helper, counted)
    results = verification.displacement_suites(200, 1)
    moved = len(calls)
    results += verification.canonicalization_suites(50, 2)
    assert len(calls) > moved
    assert {r.name for r in results if r.failures} == flagged
