"""Reserve-price optimization from bid logs.

The lazy problem decouples per bidder: bidder i's reserve only matters on the
auctions she would win at zero reserves, and there her lazy revenue is

    R_i(r) = r * k_i(r) + s_i(r)

with k_i(r) = #{auctions in Q_i : top >= r > second} and s_i(r) = sum of
seconds >= r: the eager revenue of the log [top, second] over Q_i with the
rival at reserve 0. exact_lazy_search runs the eager line search below on it
once per bidder; optimal_lazy_bruteforce re-simulates every candidate
directly and exists as an independent check.

The eager problem has no such decoupling (it is as hard as maximum
independent set), but one reserve at a time it is easy. With the others
fixed, every auction's eager payment is piecewise linear in bidder j's
reserve, so one sort of b_j plus prefix sums gives the total at every
candidate, for a block of reserve rows at once (_eager_line_totals). These
fast totals lie within a proven rounding bound of the auction-order sums of
_eager_totals_for_rows, so re-scoring only the candidates within that bound
of the best finds the first ordered argmax, as re-simulating every candidate
would (_best_on_lines). optimal_eager_exact enumerates the first n - 1
reserves of the candidate grid in product order and line-searches the last,
which moves fastest in that order; a block of prefixes replaces the best so
far only when strictly better, so ties break toward the lexicographically
smallest vector, exactly as in a full enumeration. eager_coordinate_ascent
is the scalable local search built from the same line search. A log with
auction weights is the same problem, which is how product laws are searched.

All optimizers report expected_revenue through the same exact evaluator
(empirical_totals, whose revenue fsum empirical_revenue divides by the log's
length), so two routes that agree on the reserves agree on the revenue bit for
bit. The result keeps both fsums, so a caller needs no second kernel run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import SearchSpaceTooLarge
from .logs import BidLog
from .mechanics import Mechanism, ReserveVector
from .vectorized import ABSENT, _top_two, eager_payments, lazy_order, payments

# bid x reserve-row elements per eager kernel call in the searches, and prefix x auction
# (or candidate) elements per line-search block: 32 kB per float64 array, small enough
# that each block reuses the heap memory the last one freed
_SEARCH_BATCH = 1 << 12
# candidates re-simulated together by optimal_lazy_bruteforce
_BRUTEFORCE_CHUNK = 256


@dataclass(frozen=True)
class OptimizationResult:
    reserves: ReserveVector
    expected_revenue: float
    # the exact fsums behind expected_revenue: total payment and welfare over the log
    total_revenue: float
    total_welfare: float
    # eager_coordinate_ascent only: rounds run, and False when it stopped at max_rounds
    rounds: int | None = None
    converged: bool | None = None


def empirical_totals(log: BidLog, reserves: ReserveVector,
                     mechanism: Mechanism) -> tuple[float, float]:
    """Total payment and total welfare over the log's auctions, each an exact fsum."""
    pay, wel = payments(log.to_matrix(), reserves.row(log.bidder_ids), mechanism,
                        return_welfare=True)
    return math.fsum(pay.tolist()), math.fsum(wel.tolist())


def empirical_revenue(log: BidLog, reserves: ReserveVector, mechanism: Mechanism) -> float:
    """Mean payment per auction over the log. The one evaluator everything reports through."""
    if len(log) == 0:
        raise ValueError("empty log")
    return empirical_totals(log, reserves, mechanism)[0] / len(log)


def _result(log: BidLog, row: np.ndarray, mechanism: Mechanism) -> OptimizationResult:
    """Reserves from a row in bidder_ids order, with their totals under `mechanism` and
    the empirical revenue empirical_revenue reports for them."""
    if len(log) == 0:
        raise ValueError("empty log")
    reserves = ReserveVector(dict(zip(log.bidder_ids, (float(x) for x in row))))
    revenue, welfare = empirical_totals(log, reserves, mechanism)
    return OptimizationResult(reserves, revenue / len(log), revenue, welfare)


def optimal_lazy(log: BidLog) -> OptimizationResult:
    """Exact optimal lazy reserves by exact_lazy_search: per bidder, the smallest
    candidate with the highest auction-order lazy total over the auctions she wins."""
    return _result(log, exact_lazy_search(log.to_matrix()), Mechanism.LAZY)


def optimal_lazy_bruteforce(log: BidLog) -> OptimizationResult:
    """Optimal lazy reserves by direct re-simulation of every candidate.

    Same per-bidder decoupling, no incremental bookkeeping: for each candidate
    r the revenue over Q_i is summed from scratch. Slower than optimal_lazy
    by a factor of the candidate count; kept as an independent route to the
    same argmax and revenue.
    """
    winner, top, second = lazy_order(log.to_matrix())
    chosen = np.zeros(len(log.bidder_ids))
    for j in range(len(log.bidder_ids)):
        mask = winner == j
        if not mask.any():
            continue
        tops = top[mask]
        seconds = second[mask]
        cands = _distinct(np.concatenate([[0.0], tops, seconds]))
        best_r, best_rev = 0.0, -math.inf
        for lo in range(0, len(cands), _BRUTEFORCE_CHUNK):
            c = cands[lo:lo + _BRUTEFORCE_CHUNK, None]
            rev = np.where(tops[None, :] >= c, np.maximum(c, seconds[None, :]), 0.0).sum(axis=1)
            i = int(np.argmax(rev))
            if rev[i] > best_rev:  # first strict max across chunks = smallest candidate on ties
                best_r, best_rev = float(c[i, 0]), float(rev[i])
        chosen[j] = best_r
    return _result(log, chosen, Mechanism.LAZY)


def monopoly_reserves(log: BidLog, mechanism: Mechanism = Mechanism.EAGER) -> OptimizationResult:
    """Per-bidder monopoly reserves: maximize r * #{own bids >= r} independently.

    Candidates are the bidder's own distinct bid values, ties toward the
    smallest. This ignores competition entirely; expected_revenue reports what
    the vector earns on the log under `mechanism` (eager by default), since
    the monopoly objective itself is not auction revenue.
    """
    bids = log.to_matrix()
    chosen = np.empty(len(log.bidder_ids))
    for j in range(len(log.bidder_ids)):
        vals = bids[:, j]
        vals = np.sort(vals[np.isfinite(vals)])
        cands = _distinct(vals)
        n_at_least = len(vals) - np.searchsorted(vals, cands, side="left")
        rev = cands * n_at_least
        chosen[j] = cands[np.argmax(rev)]  # first max = smallest candidate
    return _result(log, chosen, mechanism)


def _distinct(values: np.ndarray) -> np.ndarray:
    """The distinct values, ascending: np.unique's sort and mask, without loading numpy.ma."""
    values = np.sort(values, axis=None)
    return values[np.concatenate([[True], values[1:] != values[:-1]])]


def _global_candidates(log: BidLog) -> np.ndarray:
    bids = log.to_matrix()
    return _distinct(np.concatenate([[0.0], bids[np.isfinite(bids)]]))


def _eager_totals_for_rows(bids: np.ndarray, R: np.ndarray,
                           weights: np.ndarray | None = None) -> np.ndarray:
    """Summed eager revenue over all auctions for each reserve row in R (B, n), each
    payment times its auction's weight if `weights` (T,) is given.

    Sums run left to right in auction order, so a row's total does not depend
    on how the rows are batched.
    """
    step = max(1, _SEARCH_BATCH // max(bids.size, 1))
    scale = 1.0 if weights is None else weights
    totals = np.empty(len(R))
    for i in range(0, len(R), step):
        pay = eager_payments(bids, R[i:i + step, None, :]) * scale
        totals[i:i + step] = np.add.accumulate(pay, axis=1)[:, -1]
    return totals


def _eager_line_totals(bids: np.ndarray, rows: np.ndarray, j: int, cands: np.ndarray,
                       weights: np.ndarray | None = None):
    """Eager totals along bidder j's reserve line, for a (B, n) block of reserve rows.

    Returns (totals, tol, repeats): totals[p, k] (B, |cands|) is the log's
    eager revenue with reserve j at cands[k] (ascending) and the others at
    rows[p], each auction's payment times its weight when `weights` (T,) is
    given; it lies within tol[p] / 2 (tol is (B,)) of what
    _eager_totals_for_rows returns for that row. repeats[p, k] marks a
    candidate whose every auction pays exactly what it pays at cands[k - 1],
    so both rows' ordered totals are bit-identical.

    With the other reserves fixed, an auction's payment depends on r = r_j in
    three ways: C0 when j drops out (b_j < r, or j is absent), C1 when j
    survives and loses, and max(r, a) when j survives and wins, where a <= b_j
    is the top surviving rival's bid (0 with no rival). One sort of b_j,
    shared by every row, and per-row prefix sums read at np.searchsorted
    positions give every total, with the sums over a from a histogram of a
    by candidate interval:

        sum_{b_j<r} C0 + sum_{b_j>=r, loses} C1
        + r * (#{wins: a<r} - #{wins: b_j<r}) + sum_{wins: a>=r} a
    """
    B, (T, n), C = len(rows), bids.shape, len(cands)
    # rivals only, in their own columns so that the tie rule holds
    surviving = (np.where(b >= r[:, None], b, ABSENT) if k != j else np.full((B, T), ABSENT)
                 for k, (b, r) in enumerate(zip(bids.T, rows.T)))
    winner, top, second = _top_two(surviving)
    rival = np.isfinite(top)
    r_w = np.take_along_axis(rows, winner, axis=1)
    b = bids[:, j]
    present = np.isfinite(b)
    wins = present & ((b > top) | ((b == top) & (j < winner)))
    c0 = np.where(rival, np.maximum(r_w, second), 0.0)
    c1 = np.where(present & ~wins, np.maximum(r_w, np.maximum(second, b)), 0.0)
    a = np.where(rival, top, 0.0)
    w = np.ones(T) if weights is None else weights

    # in b_j order: weighted C0, C1 and wins, then the unweighted wins and moves
    order = np.argsort(b, kind="stable")
    b_below = np.searchsorted(b[order], cands, side="left")
    cum = np.zeros((5, B, T + 1))
    for dst, x in zip(cum, (c0 * w, c1 * w, wins * w, wins, wins | (c1 != c0))):
        dst[:, 1:] = x[:, order]
    np.cumsum(cum, axis=2, out=cum)
    (c0_b, c1_b, wins_b, n_wins_b, moves_b), (_, c1_all, wins_all, _, _) = \
        cum[:, :, b_below], cum[:, :, -1:]
    # wins by the candidate interval holding a: bin k + 1 holds cands[k] <= a < cands[k + 1]
    bins = (np.searchsorted(cands, a, side="right") + (C + 1) * np.arange(B)[:, None])[wins]
    hist = np.stack([np.bincount(bins, weights=x[wins], minlength=B * (C + 1))
                     for x in (np.broadcast_to(w, (B, T)), a * w, np.ones((B, T)))])
    a_cum = np.cumsum(hist.reshape(3, B, C + 1), axis=2)
    # over the wins with a < r: weighted count, weighted sum of a, count
    (a_wins, a_sum, a_count), a_all = a_cum[:, :, :C], a_cum[1, :, -1:]
    paying_r = a_wins - wins_b  # surviving wins that pay the reserve itself
    totals = c0_b + (c1_all - c1_b) + cands * paying_r + (a_all - a_sum)

    # Every row's T weighted payments are >= 0 and sum to at most `scale`. Summed in
    # auction order they lie within T u * scale of the exact total, and the prefix
    # sums above within about (2T + 8) u * scale (u = eps / 2), so the two totals
    # of one row differ by less than tol / 2.
    scale = cum[0, :, -1] + c1_all[:, 0] + a_all[:, 0] + cands[-1] * wins_all[:, 0]
    tol = 4 * (T + 4) * np.finfo(float).eps * scale
    # no win pays r, and every auction j leaves between the two candidates pays C1 == C0
    repeats = np.concatenate([np.zeros((B, 1), bool), (moves_b[:, 1:] == moves_b[:, :-1])
                              & (a_count[:, 1:] == n_wins_b[:, 1:])], axis=1)
    return totals, tol, repeats


def _best_on_lines(bids: np.ndarray, rows: np.ndarray, j: int, cands: np.ndarray,
                   weights: np.ndarray | None = None) -> tuple[np.ndarray, float]:
    """The first row, in (row, candidate) order, with the highest ordered total when
    reserve j of each row takes each candidate; and that total.

    The ordered argmax, any row tying it and the fast maximum each lie within
    their tol / 2 of their ordered totals, so all lie within the block's largest
    tol of the fast maximum; a repeat ties the row before it. So only that
    shortlist, without repeats, is re-scored by _eager_totals_for_rows.
    """
    fast, tol, repeats = _eager_line_totals(bids, rows, j, cands, weights)
    p, k = np.nonzero((fast >= fast.max() - tol.max()) & ~repeats)  # row-major order
    R = rows[p]
    R[:, j] = cands[k]
    totals = _eager_totals_for_rows(bids, R, weights)
    i = int(np.argmax(totals))  # first max
    return R[i], float(totals[i])


def exact_lazy_search(bids: np.ndarray, weights: np.ndarray | None = None) -> np.ndarray:
    """Per bidder of `bids` (T, n), the smallest of {0} and the top/second values of
    the auctions Q she wins at zero reserves with the highest ordered lazy total
    over Q, each payment times its weight if `weights` (T,) is given; 0 if Q is
    empty. On Q the log [top, second] with the rival at reserve 0 pays lazily (she
    wins ties; once she drops out the rival is alone and pays 0), so one eager line
    search per bidder is exact."""
    winner, top, second = lazy_order(bids)
    w = np.ones(len(top)) if weights is None else weights
    best = np.zeros(bids.shape[1])
    for i in range(len(best)):
        mine = winner == i
        if mine.any():
            pair = np.stack([top[mine], second[mine]], axis=1)
            cands = _distinct(np.concatenate([[0.0], pair.ravel()]))
            best[i] = _best_on_lines(pair, np.zeros((1, 2)), 0, cands, w[mine])[0][0]
    return best


def exact_eager_search(bids: np.ndarray, cands: np.ndarray,
                       weights: np.ndarray | None = None) -> np.ndarray:
    """The first vector of itertools.product(cands, repeat=n) with the highest ordered
    eager total over `bids` (T, n), weighted by `weights` (T,) if given.

    Blocks of prefixes (reserves 0..n-2), in product order and within
    _SEARCH_BATCH elements per array, each line-search reserve n - 1.
    """
    (T, n), C = bids.shape, len(cands)
    prefixes = C ** (n - 1)
    step = max(1, _SEARCH_BATCH // max(T, C + 1))
    best, best_total = None, -math.inf
    for lo in range(0, prefixes, step):
        index = np.arange(lo, min(lo + step, prefixes))
        rows = np.zeros((len(index), n))
        for k in range(n - 2, -1, -1):  # base-C digits of the prefix index, last fastest
            index, digit = np.divmod(index, C)
            rows[:, k] = cands[digit]
        row, total = _best_on_lines(bids, rows, n - 1, cands, weights)
        if total > best_total:
            best, best_total = row, total
    return best


def optimal_eager_exact(log: BidLog, max_product_size: int = 1_000_000) -> OptimizationResult:
    """Exact eager optimum over the product of per-bidder candidate sets.

    Every bidder's candidates are {0} plus all distinct bid values in the log.
    Refuses (SearchSpaceTooLarge) when the product exceeds max_product_size.
    The search scores every vector of the product by its auction-order sum
    but simulates few: it enumerates the first n - 1 reserves and
    line-searches the last, which is exact because each line's fast totals
    are re-scored within their rounding bound (see the module docstring).
    Ties break toward the lexicographically smallest reserve vector.
    """
    cands = _global_candidates(log)
    n = len(log.bidder_ids)
    size = len(cands) ** n
    if size > max_product_size:
        raise SearchSpaceTooLarge(
            f"{len(cands)}^{n} = {size} candidate vectors exceed max_product_size={max_product_size}")
    return _result(log, exact_eager_search(log.to_matrix(), cands), Mechanism.EAGER)


def eager_coordinate_ascent(log: BidLog, init: ReserveVector | None = None,
                            max_rounds: int = 50) -> OptimizationResult:
    """Local search for eager reserves: cycle bidders, re-optimize one reserve at a time.

    Bidders are cycled in ascending bidder_id order; each step searches the
    full candidate set ({0} plus all distinct log bids) for that bidder and
    moves only on strict improvement, preferring the smallest improving
    candidate. Each step is _best_on_lines on the current row, O((T +
    |candidates|) log T), and moves exactly as a re-simulation of every
    candidate would. Stops after a full round improves total revenue by a
    relative factor below 1e-12 (converged), or after max_rounds rounds; the
    result reports the rounds run and whether it converged. Revenue never
    decreases, so the result is at least as good as the starting point.
    """
    if init is None:
        init = ReserveVector.zero()
    cands = _global_candidates(log)
    bids = log.to_matrix()
    n = len(log.bidder_ids)
    current = init.row(log.bidder_ids)
    current_total = float(_eager_totals_for_rows(bids, current[None, :])[0])

    rounds, converged = 0, False
    while rounds < max_rounds and not converged:
        rounds += 1
        round_start = current_total
        for j in range(n):
            row, total = _best_on_lines(bids, current[None, :], j, cands)
            if total > current_total:
                current, current_total = row, total
        converged = current_total - round_start <= 1e-12 * max(1.0, abs(round_start))

    return replace(_result(log, current, Mechanism.EAGER), rounds=rounds, converged=converged)
