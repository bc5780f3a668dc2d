"""Any metric election reduces to a line election that is at least as bad.

Scatters voters in the plane around two candidates one unit apart, then maps
each voter to the line by her distance ratio.  Preferences and participation
probabilities carry over exactly, so win probabilities match to machine
precision, while both distortion measures can only grow.
"""

import math

import numpy as np

from votedist import expected_distortion
from votedist.metric import MetricElection, reduce_to_line, swap_labels

rng = np.random.default_rng(5)
points = np.column_stack([rng.uniform(-0.8, 1.8, 9), rng.uniform(-1.2, 1.2, 9)])
pairs = [(math.hypot(x, y), math.hypot(x - 1.0, y)) for x, y in points]
m = MetricElection(pairs)

BETA = 1.0
reduction = reduce_to_line(m, BETA)
working = swap_labels(m) if reduction.swapped else m

print("planar voters (d_left, d_right) -> line position")
for pair, pos in zip(working.pairs, reduction.election.positions):
    print(f"  ({pair[0]:6.3f}, {pair[1]:6.3f}) -> {pos:8.4f}")
if reduction.swapped:
    print("  (candidate labels were swapped so the right candidate is optimal)")

before = expected_distortion(working, BETA)  # metric elections go in directly
after = expected_distortion(reduction.election, BETA)
print(f"\n{'':>22} {'metric':>12} {'line image':>12}")
print(f"{'P(left wins)':>22} {before.win_prob_left:12.9f} {after.win_prob_left:12.9f}")
print(f"{'distortion of left':>22} {before.dist_left:12.6f} {after.dist_left:12.6f}")
print(
    f"{'expected distortion':>22} {before.expected_distortion:12.6f} "
    f"{after.expected_distortion:12.6f}"
)
print("\nwin probabilities agree exactly; distortions only moved up")
