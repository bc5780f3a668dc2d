"""Crushing an election into its extremal shape, one certified step per move kind.

Starts from a scattered election in which the left candidate leads on
expected votes while the right candidate is optimal, then walks the
displacement chain: region A empties onto 0 in one step, region C drains onto
{1/2, 1} in one step of paired B-C moves, and each of B and D collapses to
its mean in one step.  Each certificate is checked on the spot: the expected
winner never changes and its distortion never decreases.
"""

from votedist import LineElection, canonicalize_expected_winner, winner_distortion
from votedist.model import expected_winner, social_costs

BETA = 0.9
e = LineElection([-1.2, -0.3, 0.05, 0.1, 0.32, 0.6, 0.85, 2.0, 2.3, 2.8, 3.2])

sc_left, sc_right = social_costs(e)
print("start   :", ", ".join(f"{x:+.4f}" for x in e.positions))
print(
    f"expected winner = {expected_winner(e, BETA)}, optimal = "
    f"{'right' if sc_right < sc_left else 'left'}, "
    f"D(winner) = {winner_distortion(e, BETA):.6f}\n"
)

form = canonicalize_expected_winner(e, BETA)
for step, cert in zip(form.steps, form.certificates):
    targets = ", ".join(f"{t:+.4f}" for t in step.targets)
    print(
        f"{step.kind:>18} voters {step.voters} -> ({targets})   "
        f"D(winner) {cert.metric_before:.6f} -> {cert.metric_after:.6f}"
    )

final = form.election
print("\nfinal   :", ", ".join(f"{x:+.4f}" for x in final.positions))
print(f"distinct positions: {sorted(set(final.positions))}")
print(f"D(winner): {winner_distortion(final, BETA):.6f} (never decreased)")
