"""
The treated-bidder paradox, measured
====================================

Five iid uniform bidders, treatment = a personal reserve at the Myerson
price 1/2. Treating more bidders lowers eager revenue at every step until
the last one, where it jumps above the baseline. A naive A/B test of
k=1..4 against k=0 would reject a change that is strictly better at full
rollout.
"""

from reservelab import (Mechanism, paired_treatment_deltas, rev_e_k_closed_uniform,
                        sweep_theoretical, uniform_dist)

TRIALS = 400_000
uniform = uniform_dist()

# --- Closed form first: the dip and the jump are in the exact numbers ---

print("closed-form eager revenue, n=5 uniform bidders, k treated at 1/2:")
for k in range(6):
    marker = " <- jump" if k == 5 else ""
    print(f"  k={k}: {rev_e_k_closed_uniform(5, k):.7f}{marker}")
print()

# --- Monte Carlo sweep reproduces it within statistical error ---

res = sweep_theoretical(uniform, 5, [Mechanism.EAGER], trials=TRIALS, seed=2)
print(f"monte carlo, {TRIALS} trials, common random numbers across k:")
print("  k   mean        stderr     closed      pull")
for row in res.rows:
    pull = (row.mean - row.reference) / row.stderr
    print(f"  {row.x:.0f}  {row.mean:.6f}  {row.stderr:.6f}  "
          f"{row.reference:.6f}  {pull:+.2f} se")
print()

# --- Paired differences: the drops are tiny but unmistakable ---

deltas = paired_treatment_deltas(uniform, 5, Mechanism.EAGER, trials=TRIALS, seed=3)
print("paired adjacent differences (same draws, nested treated sets):")
for d in deltas:
    z = d.mean / d.stderr
    print(f"  k {d.k_from} -> {d.k_to}: mean={d.mean:+.6f} "
          f"stderr={d.stderr:.7f}  z={z:+.1f}")
print("  four significant decreases, then one large increase at full rollout")
print()

# --- Lazy reserves have no such trap: revenue is linear in k ---

res = sweep_theoretical(uniform, 5, [Mechanism.LAZY], trials=TRIALS, seed=4)
print("same sweep under the lazy rule (reference = linear interpolation):")
for row in res.rows:
    print(f"  k={row.x:.0f}: mean={row.mean:.6f}  linear={row.reference:.6f}")
print("  each treated bidder contributes independently, so partial rollouts")
print("  extrapolate honestly under lazy reserves")
