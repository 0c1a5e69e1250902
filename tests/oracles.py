"""Reference implementations that the fast searches and evaluators are checked against."""

import functools
import itertools
import math

import numpy as np

from reservelab.distributions import ContinuousDist
from reservelab.generators import equal_revenue_pair_analysis
from reservelab.mechanics import BidProfile, run_auction
from reservelab.vectorized import eager_payments


def global_candidates(bids: np.ndarray) -> np.ndarray:
    """{0} plus every distinct bid of `bids` (T, n), ascending: one grid shared by all
    bidders, which the per-bidder grids of the eager searches must match."""
    return np.unique(np.concatenate([[0.0], bids[np.isfinite(bids)]]))


def own_set_sizes(bids: np.ndarray) -> list[int]:
    """Per bidder of `bids` (T, n), the size of {0} plus its distinct bids."""
    return [len(np.unique(np.append(col[np.isfinite(col)], 0.0))) for col in bids.T]


def eager_totals(bids: np.ndarray, R: np.ndarray, weights: np.ndarray | None = None) -> np.ndarray:
    """Summed eager revenue over all auctions of `bids` (T, n) for each reserve row in R
    (B, n), each payment times its auction's weight if `weights` (T,) is given: the eager
    kernel's payments, in blocks of about 1 << 12 elements.

    Sums run left to right in auction order, so a row's total does not depend
    on how the rows are batched.
    """
    step = max(1, (1 << 12) // max(bids.size, 1))
    scale = 1.0 if weights is None else weights
    totals = np.empty(len(R))
    for i in range(0, len(R), step):
        pay = eager_payments(bids, R[i:i + step, None, :]) * scale
        totals[i:i + step] = np.add.accumulate(pay, axis=1)[:, -1]
    return totals


def argmax_over_grid(cands, n: int, score, chunk: int) -> np.ndarray:
    """The vector of itertools.product(cands, repeat=n) with the highest score.

    `score` maps a (B, n) block of vectors to (B,) scores; blocks of `chunk`
    vectors arrive in product order and only a strictly better score replaces
    the incumbent, so ties break toward the lexicographically smallest vector.
    """
    best_score, best_vec = -math.inf, None
    vectors = itertools.product(cands, repeat=n)
    while block := list(itertools.islice(vectors, chunk)):
        R = np.array(block)
        scores = score(R)
        i = int(np.argmax(scores))
        if scores[i] > best_score:
            best_score, best_vec = float(scores[i]), R[i].copy()
    return best_vec


def expected_revenue_product(dist, reserves, mechanism) -> float:
    """Expected revenue by enumerating profiles in lexicographic bidder/atom order
    through the scalar mechanics, summed by math.fsum."""
    ids = dist.bidder_ids()
    terms = []
    for combo in itertools.product(*(dist.bidders[b].atoms for b in ids)):
        prob = math.prod(p for _, p in combo)
        profile = BidProfile("x", {b: v for b, (v, _) in zip(ids, combo)})
        terms.append(prob * run_auction(profile, reserves, mechanism).payment)
    return math.fsum(terms)


def profile_arrays(dist):
    """A product law's support profiles as a (S, n) matrix in itertools.product order,
    one profile at a time, and each profile's probability by math.prod."""
    ids = dist.bidder_ids()
    combos = list(itertools.product(*(dist.bidders[b].atoms for b in ids)))
    values = np.array([[v for v, _ in combo] for combo in combos])
    probs = np.array([math.prod(p for _, p in combo) for combo in combos])
    return values, probs


def symmetrized_weighted_log(rows, delta: float, weights=None):
    """The law of `rows` (each n bids, -inf where absent; weighted by `weights`, else
    equally) made symmetric across bidders, as a weighted log: every row under every
    column order, and each of those under every tie order, the bidder at place r of
    the order bidding its bid plus r * delta. A row's weight splits evenly over the
    (n!)^2 pairs of orders, and equal bid vectors merge into one auction that sums
    their weights, in order of first appearance. Returns the bids and weights."""
    n = len(rows[0])
    if weights is None:
        weights = [1.0 / len(rows)] * len(rows)
    orders = list(itertools.permutations(range(n)))
    merged = {}
    for row, weight in zip(rows, weights):
        share = weight / len(orders) ** 2
        for columns in orders:
            for ties in orders:
                bids = tuple(row[c] + delta * r for c, r in zip(columns, ties))
                merged.setdefault(bids, []).append(share)
    return (np.array(list(merged)).reshape(-1, n),
            np.array([math.fsum(shares) for shares in merged.values()]))


def high_low_weighted_log(n: int, delta: float):
    """The high-low law (each of n bidders bids n w.p. 1/n^2, else 1) with its noise
    -> 0, as a symmetrized weighted log: one row per count k of high bidders, with
    probability C(n, k) q^k (1 - q)^(n - k). Every level profile in {1, n}^n then
    appears under every tie order, with each profile's probability split evenly over
    the n! orders, so every tie goes to each tied bidder equally often."""
    q = 1.0 / n ** 2
    rows = [[float(n)] * k + [1.0] * (n - k) for k in range(n + 1)]
    weights = [math.comb(n, k) * q ** k * (1.0 - q) ** (n - k) for k in range(n + 1)]
    return symmetrized_weighted_log(rows, delta, weights)


@functools.cache
def criterion_09_analysis():
    """equal_revenue_pair_analysis(1e4, 1e-6), criterion 09's correlated pair, computed once
    per test process: it takes about a second, and three generator tests read it too."""
    return equal_revenue_pair_analysis(1e4, 1e-6)


def piecewise_density_dist():
    """Density 1.8 on [0, .5) and 0.2 on [.5, 1]: phi drops at the break, so the law is
    not regular."""
    def cdf(v):
        if v < 0:
            return 0.0
        if v < 0.5:
            return 1.8 * v
        return min(1.0, 0.9 + 0.2 * (v - 0.5))

    def pdf(v):
        if 0 <= v < 0.5:
            return 1.8
        if 0.5 <= v <= 1:
            return 0.2
        return 0.0

    def ppf(u):
        u = np.asarray(u)
        return np.where(u < 0.9, u / 1.8, 0.5 + (u - 0.9) / 0.2)

    return ContinuousDist(name="piecewise", lo=0.0, hi=1.0,
                          cdf=cdf, pdf=pdf, ppf=ppf)


def equal_revenue_pair_cell_logs(M: float, epsilon: float, K: int):
    """Criterion 09's correlated pair as two weighted logs that bound it. W.p. ln(M)/M the
    bids are (0, M); otherwise bidder 0 bids b from the equal-revenue law on [1, M] (mass
    1/b^2 db, plus 1/M at M) and bidder 1 bids (1 - epsilon) b. The law's [1, M) mass is
    cut into K log-spaced cells, each moved to its lower end in one log and its upper end
    in the other. Both rules pay non-decreasing amounts in b at any reserves, so the logs'
    revenues bound the law's from below and above at every reserve vector, and so do
    their optima. Returns (lower bids, upper bids, weights)."""
    p_zero = math.log(M) / M
    edges = np.logspace(0.0, math.log10(M), K + 1)
    edges[[0, -1]] = 1.0, M
    weights = np.concatenate([[p_zero], (1.0 - p_zero) * (1.0 / edges[:-1] - 1.0 / edges[1:]),
                              [(1.0 - p_zero) / M]])

    def log_at(b):
        b = np.append(b, M)
        return np.vstack([[0.0, M], np.column_stack([b, (1.0 - epsilon) * b])])

    return log_at(edges[:-1]), log_at(edges[1:]), weights
