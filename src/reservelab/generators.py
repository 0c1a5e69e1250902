"""Joint bid generators and exact analyses of the adversarial constructions.

Four constructions stress the lazy/eager comparison from different sides:

  high_low           n iid bidders, bid n w.p. 1/n^2 else 1 (plus tie-break
                     noise): eager with reserves (1, n, ..., n) earns nearly
                     twice the best lazy revenue as n grows.
  correlated pair    equal-revenue bidder shadowed by a (1-eps) copy, plus a
                     rare (0, M) profile: lazy with reserves (0, M) earns
                     nearly twice the best eager revenue.
  symmetric one-high exchangeable but not independent: exactly one uniformly
                     chosen bidder bids H, the rest bid L.
  geometric pair     two always-equal bidders on a doubling grid: per-bidder
                     monopoly reserves collapse revenue by an unbounded
                     factor versus charging nothing.

Each generator draws whole logs as matrices for speed; exact analyses live
next to their constructions and are the oracles the acceptance gates use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .distributions import ContinuousDist, _integrate, equal_revenue_dist
from .logs import BidLog
from .mechanics import BidProfile, Mechanism, ReserveVector, run_auction


@dataclass(frozen=True)
class JointGenerator:
    """Draws (count, n) bid matrices over a fixed bidder set, deterministically per seed."""

    bidder_ids: tuple[str, ...]
    draw: Callable[[np.random.Generator, int], np.ndarray]


def numbered_ids(n: int) -> tuple[str, ...]:
    """b00, b01, ...: the bidder ids of the generated logs, zero-padded to sort numerically."""
    width = max(2, len(str(n - 1)))
    return tuple(f"b{i:0{width}d}" for i in range(n))


def sample_log(gen: JointGenerator, count: int, seed: int) -> BidLog:
    """Materialize `count` profiles from the generator as a BidLog (which refuses 0)."""
    return BidLog.from_matrix(gen.draw(np.random.default_rng(seed), count), gen.bidder_ids)


def _two_or_more(n: int) -> None:
    if n < 2:
        raise ValueError("n must be >= 2")


def gen_high_low(n: int, epsilon: float = 1e-9) -> JointGenerator:
    """n iid bidders; each bids n w.p. 1/n^2, else 1, plus uniform [0, epsilon] noise.

    The default noise is below micro precision, so a log the CLI writes (bids
    rounded to micros) has only the bids 1 and n, tied within each level. The
    optima differ: at n = 5, 20k auctions, seed 1, the empirical lazy optimum
    is 1.0578 on the sampled log and 1.6090 on the quantized one.
    """
    _two_or_more(n)
    if not 0 < epsilon < math.inf:
        raise ValueError(f"epsilon must be finite and > 0, got {epsilon!r}")
    q = 1.0 / n ** 2

    def draw(rng: np.random.Generator, count: int) -> np.ndarray:
        level = np.where(rng.random((count, n)) < q, float(n), 1.0)
        return level + epsilon * rng.random((count, n))

    return JointGenerator(numbered_ids(n), draw)


def _correlated_pair_zero_mass(M: float, epsilon: float) -> float:
    """ln(M)/M, the mass of the (0, M) profile, once M and epsilon pass the checks."""
    if M <= math.e:
        raise ValueError("M must be > e")
    if not 0 < epsilon < 1:
        raise ValueError("epsilon must be in (0, 1)")
    return math.log(M) / M


def gen_correlated_equal_revenue(M: float, epsilon: float) -> JointGenerator:
    """Two correlated bidders: w.p. ln(M)/M the profile is (0, M); otherwise
    bidder 0 draws from the truncated equal-revenue distribution on [1, M]
    and bidder 1 bids exactly (1 - epsilon) times that."""
    p_zero = _correlated_pair_zero_mass(M, epsilon)
    eqrev = equal_revenue_dist(M)

    def draw(rng: np.random.Generator, count: int) -> np.ndarray:
        zero_branch = rng.random(count) < p_zero
        b1 = eqrev.ppf(rng.random(count))
        out = np.column_stack([b1, (1.0 - epsilon) * b1])
        out[zero_branch, 0] = 0.0
        out[zero_branch, 1] = M
        return out

    return JointGenerator(numbered_ids(2), draw)


def gen_symmetric_one_high(n: int, H: float, L: float) -> JointGenerator:
    """Exchangeable, not independent: one uniformly chosen bidder bids H, the rest L."""
    _two_or_more(n)
    if not math.inf > H > L >= 0:
        raise ValueError(f"H and L must be finite with H > L >= 0, got {H!r} and {L!r}")

    def draw(rng: np.random.Generator, count: int) -> np.ndarray:
        out = np.full((count, n), float(L))
        out[np.arange(count), rng.integers(n, size=count)] = float(H)
        return out

    return JointGenerator(numbered_ids(n), draw)


def geometric_pair_atoms(K: int, epsilon: float) -> tuple[np.ndarray, np.ndarray]:
    """Common-bid atoms of the geometric pair: values and probabilities."""
    if not 2 <= K <= 1024:  # past 1024 the top atom 2^(K-1) overflows a float
        raise ValueError(f"K must be in [2, 1024], got {K!r}")
    if not (epsilon > 0 and math.isfinite(2.0 ** (K - 1) + epsilon)):
        raise ValueError(f"epsilon must be > 0 with 2^(K-1) + epsilon finite, got {epsilon!r}")
    values = np.array([2.0 ** (k - 1) for k in range(1, K)] + [2.0 ** (K - 1) + epsilon])
    probs = np.array([2.0 ** (-k) for k in range(1, K)] + [2.0 ** (1 - K)])
    return values, probs


def gen_geometric_pair(K: int, epsilon: float) -> JointGenerator:
    """Two bidders with always-equal bids on a doubling grid.

    The common bid is 2^(k-1) w.p. 2^-k for k = 1..K-1, and 2^(K-1)+epsilon
    w.p. 2^(1-K). Probabilities telescope to 1.
    """
    values, probs = geometric_pair_atoms(K, epsilon)

    def draw(rng: np.random.Generator, count: int) -> np.ndarray:
        v = rng.choice(values, size=count, p=probs)
        return np.column_stack([v, v])

    return JointGenerator(numbered_ids(2), draw)


def gen_iid(dist: ContinuousDist, n: int) -> JointGenerator:
    """n independent bidders, each drawing from the same continuous distribution."""
    if n < 1:
        raise ValueError("n must be >= 1")

    def draw(rng: np.random.Generator, count: int) -> np.ndarray:
        return dist.sample(rng, (count, n))

    return JointGenerator(numbered_ids(n), draw)


def gen_hardness_instance(vertices: Sequence, edges: Sequence[tuple], L: float, H: float) -> BidLog:
    """Bid log whose exact eager optimum encodes maximum independent set.

    One bidder per vertex. Per edge (u, v): an auction where u and v both bid
    L and everyone else is absent. Per vertex u: an auction where u alone
    bids H. Requires L < H < 2L; then the optimal eager revenue totals
    L*(|E| + |V|) + (H - L)*alpha(G) with alpha the independence number.
    """
    if not L < H < 2 * L:
        raise ValueError(f"need L < H < 2L, got L={L}, H={H}")
    verts = list(vertices)
    width = max(2, len(str(len(verts) - 1)))
    name = [f"v{i:0{width}d}" for i in range(len(verts))]
    profiles = [BidProfile(f"edge_{i:0{width}d}_{j:0{width}d}",
                           {name[i]: float(L), name[j]: float(L)})
                for i, j in _edge_positions(verts, edges)]
    profiles += [BidProfile(f"node_{i:0{width}d}", {name[i]: float(H)}) for i in range(len(verts))]
    return BidLog(profiles)


def _edge_positions(verts: Sequence, edges: Sequence[tuple]) -> list[tuple[int, int]]:
    """Each edge as the sorted positions of its ends in verts, once the graph is checked."""
    index = {u: i for i, u in enumerate(verts)}
    if len(index) != len(verts):
        raise ValueError("duplicate vertices")
    pairs = {}
    for u, v in edges:
        if u not in index or v not in index or u == v:
            raise ValueError(f"bad edge ({u!r}, {v!r})")
        pair = tuple(sorted((index[u], index[v])))
        if pair in pairs:
            raise ValueError(f"duplicate edge ({u!r}, {v!r})")
        pairs[pair] = None
    return list(pairs)


def independent_set_number(n_vertices: int, edges: Sequence[tuple[int, int]]) -> int:
    """alpha(G) by bitmask brute force; vertices are 0..n_vertices-1, edges checked as
    gen_hardness_instance checks them. Guarded to <= 20 vertices."""
    if n_vertices > 20:
        raise ValueError("brute force limited to 20 vertices")
    edge_masks = [(1 << u) | (1 << v) for u, v in _edge_positions(range(n_vertices), edges)]
    return max(subset.bit_count() for subset in range(1 << n_vertices)
               if not any((subset & m) == m for m in edge_masks))


# ---------------------------------------------------------------------------
# Exact analyses. These are the oracles behind the lower-bound ratio checks;
# everything is evaluated in the epsilon -> 0 limit where the noise only
# breaks ties (uniformly, by symmetry).

@dataclass(frozen=True)
class HighLowAnalysis:
    n: int
    eager_revenue: float          # reserves (1, n, ..., n)
    optimal_lazy_revenue: float
    lazy_per_bidder_reserve: float
    ratio: float


def high_low_exact(n: int) -> HighLowAnalysis:
    """Exact expected revenues for the high-low construction, noise -> 0.

    Eager with reserves (1, n, ..., n): every profile with a high bidder
    among 2..n sells at n, otherwise bidder 1 is the lone survivor and pays
    1. The lazy optimum decouples per bidder with candidates {1, n} (0 is
    equivalent to 1 since every bid is >= 1); contributions are enumerated
    over h = number of high competitors ~ Binomial(n-1, 1/n^2), splitting
    ties uniformly among equal bids.
    """
    _two_or_more(n)
    q = 1.0 / n ** 2
    h = np.arange(n)
    none_high = (1.0 - q) ** (n - 1)
    # Binomial(n - 1, q) pmf by the recurrence p[h] = p[h - 1] * (n - h) / h * q / (1 - q):
    # no binomial coefficient, which would overflow a float past n of about 1030
    pmf = none_high * np.cumprod(np.concatenate(([1.0], (n - h[1:]) / h[1:] * q / (1.0 - q))))
    eager = n * (1.0 - none_high) + none_high

    inv = 1.0 / (h + 1.0)
    # reserve n: sell only when high; winner among h+1 highs pays n
    c_high = n * q * float(np.dot(pmf, inv))
    # reserve 1 (= 0): always sell when winning; pay the second-highest bid
    c_low = n * q * float(np.dot(pmf[1:], inv[1:])) + q * none_high + (1.0 - q) * none_high / n
    per_bidder = max(c_low, c_high)
    lazy = n * per_bidder
    return HighLowAnalysis(n, eager, lazy, 1.0 if c_low >= c_high else float(n),
                           eager / lazy)


@dataclass(frozen=True)
class EqualRevenuePairAnalysis:
    M: float
    epsilon: float
    lazy_revenue: float           # lazy at reserves (0, M)
    best_eager_revenue: float
    best_eager_reserves: tuple[float, float]
    ratio: float


def _equal_revenue_pair_expectations(M: float, epsilon: float):
    """Expected revenue functions (lazy, eager) for the correlated pair, by quadrature."""
    p_zero = _correlated_pair_zero_mass(M, epsilon)
    atom = 1.0 / M

    def branch_b(payment, breakpoints):
        # pieces between the payment's kinks and jumps, where it is smooth
        pts = sorted({1.0, M, *(float(b) for b in breakpoints if 1.0 < b < M)})
        return math.fsum([*(_integrate(lambda b: payment(b) / b ** 2, lo, hi)
                            for lo, hi in zip(pts, pts[1:])), atom * float(payment(M))])

    def lazy_rev(r1: float, r2: float) -> float:
        # (0, M) branch: top bidder is the M side
        a = r2 if r2 <= M else 0.0

        def pay(b):
            return np.where(b >= r1, np.maximum(r1, (1.0 - epsilon) * b), 0.0)

        return p_zero * a + (1.0 - p_zero) * branch_b(pay, [r1, r1 / (1.0 - epsilon)])

    def eager_rev(r1: float, r2: float) -> float:
        a = r2 if r2 <= M else 0.0
        t2 = r2 / (1.0 - epsilon)

        def pay(b):
            s2 = (1.0 - epsilon) * b >= r2
            return np.where(b >= r1, np.where(s2, np.maximum(r1, (1.0 - epsilon) * b), r1),
                            np.where(s2, r2, 0.0))

        return p_zero * a + (1.0 - p_zero) * branch_b(pay, [r1, t2, r1 / (1.0 - epsilon)])

    return lazy_rev, eager_rev


def equal_revenue_pair_analysis(M: float, epsilon: float) -> EqualRevenuePairAnalysis:
    """Lazy-at-(0, M) revenue versus the best eager revenue over a reserve grid.

    The eager search runs r2 over a 160-point log grid on [1, M] plus 0, M and
    (1 - eps) M, and r1 over a 25-point one. (1 - eps) M is the largest r2 the shadow
    bidder's atom bid clears: the revenue drops just above it, and the maximum sits there.
    """
    lazy_rev, eager_rev = _equal_revenue_pair_expectations(M, epsilon)
    lazy = lazy_rev(0.0, M)
    r2_grid = np.concatenate([[0.0], np.logspace(0.0, math.log10(M), 160),
                              [(1.0 - epsilon) * M, M]])
    r1_grid = np.concatenate([[0.0], np.logspace(0.0, math.log10(M), 25)])
    best = (-math.inf, (0.0, 0.0))
    for r1 in r1_grid:
        for r2 in r2_grid:
            rev = eager_rev(float(r1), float(r2))
            if rev > best[0]:
                best = (rev, (float(r1), float(r2)))
    return EqualRevenuePairAnalysis(M, epsilon, lazy, best[0], best[1], lazy / best[0])


@dataclass(frozen=True)
class GeometricPairAnalysis:
    K: int
    epsilon: float
    zero_reserve_revenue: float
    monopoly_reserve: float
    monopoly_revenue: float
    ratio: float


def geometric_pair_analysis(K: int, epsilon: float) -> GeometricPairAnalysis:
    """Exact atom enumeration: zero reserves versus per-bidder monopoly reserves.

    Every atom value r satisfies r * P(bid >= r) = 1 except the top one,
    which earns 1 + epsilon * 2^(1-K); the monopoly reserve is therefore the
    top atom, and with both bidders reserved there the auction only sells at
    the top atom. Zero reserves sell every profile at the common bid. The
    mechanisms agree on both reserve vectors (equal bids, equal reserves).
    """
    values, probs = geometric_pair_atoms(K, epsilon)
    # monopoly reserve: argmax r * P(bid >= r), ties toward the smallest value
    suffix = np.cumsum(probs[::-1])[::-1]
    objective = values * suffix
    r_m = float(values[int(np.argmax(objective))])
    zero = ReserveVector.zero()
    mono = ReserveVector({"b0": r_m, "b1": r_m})
    rev_zero = rev_mono = 0.0
    for v, p in zip(values, probs):
        profile = BidProfile("x", {"b0": float(v), "b1": float(v)})
        rev_zero += p * run_auction(profile, zero, Mechanism.LAZY).payment
        rev_mono += p * run_auction(profile, mono, Mechanism.LAZY).payment
    return GeometricPairAnalysis(K, epsilon, rev_zero, r_m, rev_mono, rev_zero / rev_mono)
