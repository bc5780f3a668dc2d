"""Hunting for expected distortion above 2 at beta = 1 (and not finding it).

For large electorates the expected distortion stays within a small factor of
the expected-winner worst case (about 1.522 at beta = 1); tiny electorates
can do worse, with the single voter at 1 + eps approaching 2.  This script
searches random small elections and canonicalized variants for anything
beating 2.  It reports the maximum found rather than asserting: whether 2 is
a true ceiling for every election size is, as far as this package knows, an
open question.
"""

import numpy as np

from votedist import LineElection, canonicalize_expected_distortion, expected_distortion

BETA = 1.0
rng = np.random.default_rng(2024)

best_value = 0.0
best_election = None
for trial in range(4000):
    n = int(rng.integers(1, 7))
    positions = np.concatenate(
        [
            rng.uniform(0.0, 0.5, size=int(rng.integers(0, 3))),
            rng.uniform(1.0, 1.0 + 10 ** rng.uniform(-4, 0.5), size=n),
        ]
    )
    e = LineElection(positions)
    value = expected_distortion(e, BETA).expected_distortion
    if value > best_value:
        best_value, best_election = value, e
    form = canonicalize_expected_distortion(e, BETA)
    if form.applied:
        value = expected_distortion(form.election, BETA).expected_distortion
        if value > best_value:
            best_value, best_election = value, form.election

print(f"best expected distortion found over 4000 random trials: {best_value:.10f}")
print("witness:", ", ".join(f"{x:.8f}" for x in best_election.positions))
print("above 2?", "yes" if best_value > 2.0 else "no")

print("\nthe single-voter family for comparison:")
for eps in (1e-2, 1e-4, 1e-6):
    value = expected_distortion(LineElection([1.0 + eps]), BETA).expected_distortion
    print(f"  eps = {eps:g}: {value:.10f}")
print("\nnothing above 2 turned up; the ceiling remains a conjecture, not a proven fact")
