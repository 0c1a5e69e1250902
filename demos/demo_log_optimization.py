"""
Reserve optimization on a bid log
=================================

Builds a synthetic log, then runs the whole optimizer family on it: the
per-bidder lazy search against its bruteforce oracle, monopoly reserves,
the exact eager search, and coordinate ascent. Ends with the factor-2
relationship between the two optima.
"""

from reservelab import (Mechanism, ReserveVector, eager_coordinate_ascent,
                        empirical_revenue, gen_iid, monopoly_reserves, optimal_eager_exact,
                        optimal_lazy, optimal_lazy_bruteforce, sample_log, uniform_dist)

# --- A log of 200 auctions, 3 iid uniform bidders on [0, 10] ---

log = sample_log(gen_iid(uniform_dist(0.0, 10.0), 3), count=200, seed=42)
zero_rev = empirical_revenue(log, ReserveVector.zero(), Mechanism.LAZY)
print(f"log: {len(log)} auctions, bidders {log.bidder_ids}")
print(f"revenue with no reserves at all: {zero_rev:.4f} per auction\n")

# --- The lazy search and its oracle agree to the last bit ---

fast = optimal_lazy(log)
slow = optimal_lazy_bruteforce(log)
print("optimal lazy reserves (one line search per bidder):")
for b in log.bidder_ids:
    print(f"  {b}: {fast.reserves.get(b):.4f}")
print(f"search revenue    : {fast.expected_revenue!r}")
print(f"bruteforce revenue: {slow.expected_revenue!r}")
print(f"bit-identical: {fast.expected_revenue == slow.expected_revenue}\n")

# --- Monopoly reserves ignore competition; compare the two vectors ---

mono = monopoly_reserves(log)
print("monopoly reserves (each bidder priced alone):")
for b in log.bidder_ids:
    print(f"  {b}: {mono.reserves.get(b):.4f}")
print(f"eager revenue at monopoly reserves: {mono.expected_revenue:.4f}\n")

# --- Exact eager optimum, feasible here because the grid is small enough ---

small = sample_log(gen_iid(uniform_dist(0.0, 10.0), 3), count=12, seed=7)
opt_l = optimal_lazy(small)
opt_e = optimal_eager_exact(small)
print(f"small log ({len(small)} auctions): OPT_lazy={opt_l.expected_revenue:.4f} "
      f"OPT_eager={opt_e.expected_revenue:.4f}")

# the two optima can never be more than a factor 2 apart, and running the
# eager auction with the lazy-optimal reserves recovers at least half of
# the eager optimum
recipe = empirical_revenue(small, opt_l.reserves, Mechanism.EAGER)
print(f"eager run with the lazy-optimal reserves: {recipe:.4f} "
      f"(>= OPT_eager/2 = {opt_e.expected_revenue / 2:.4f})\n")

# --- Coordinate ascent: local search from any starting point ---

ascent = eager_coordinate_ascent(small, init=opt_l.reserves, max_rounds=20)
print(f"coordinate ascent from the lazy reserves: {ascent.expected_revenue:.4f} "
      f"(exact optimum {opt_e.expected_revenue:.4f})")
