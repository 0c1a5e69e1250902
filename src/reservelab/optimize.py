"""Reserve-price optimization from bid logs.

The lazy problem decouples per bidder: bidder i's reserve only matters on the
auctions she would win at zero reserves, and there her lazy revenue is

    R_i(r) = r * k_i(r) + s_i(r)

with k_i(r) = #{auctions in Q_i : top >= r > second} and s_i(r) = sum of
seconds >= r: the eager revenue of the log [second, top] over Q_i with the
rival at reserve 0, as a tie pays the top whichever bidder wins it.
exact_lazy_search runs exact_eager_search on it once per bidder;
optimal_lazy_bruteforce re-simulates every candidate of {0}, the tops and the
seconds directly, its totals summed in auction order as the search's are, and
exists as an independent check.

The eager problem has no such decoupling (it is as hard as maximum
independent set), but one reserve at a time it is easy. With the others
fixed, every auction's eager payment is piecewise linear in bidder j's
reserve, so one sort of b_j plus prefix sums gives the total at every
candidate, for a block of reserve rows at once (_eager_line_totals). No
reserve changes that sort, so a search sorts each bidder's bids once
(_sort_line) and every line of that bidder reuses it. These fast totals lie
within a proven rounding bound of the auction-order sums of
_eager_totals_for_rows, so re-scoring only the candidates within that bound
of the best finds the first ordered argmax, as re-simulating every candidate
would (_best_on_lines). The re-scoring reads the line's own per-auction
payments (C0, C1 and max(c, a)), which are the eager kernel's own selections,
so each re-scored total equals _eager_totals_for_rows' bit for bit and no
kernel runs inside a search.

Every eager search draws bidder j's reserve from j's own set S_j, {0} plus
j's distinct bids (own_candidates): a grid of prod |S_j|, about T^n vectors,
where one set of every bid in the log gives about (nT)^n. This loses no
optimum. Fix the other reserves and let b' < b be consecutive members of
S_j. For every r_j in (b', b], j survives in the same auctions, and each
payment there is either constant or max(r_j, a), both non-decreasing in r_j.
So a first argmax strictly inside (b', b) would force the total to be flat
on (b', b]. But b' is then also an argmax, because where j bids b' it either
raises the second price or wins and pays b' >= C0, and b' comes earlier in
product order. Above j's largest bid m, j never enters, which never beats
r_j = m. Payments are each >=, so ordered float sums keep these comparisons,
and so do non-negative weights. The one thing rounding can change is a
total that rises on (b', b] in exact arithmetic but rounds flat: the grid of
every bid may then pick a reserve inside (b', b) where this one picks b, at
the same total. The argument covers the lazy line, this eager line on the log
[second, top], where bidder i's own bids are the tops, and monopoly_reserves'
r * #{own bids >= r}, whose count is constant on (b', b]. So every search takes
its candidates from own_candidates.

optimal_eager_exact enumerates the first n - 1 reserves in product order
(mixed radix, the last digit fastest) and line-searches the last, which
moves fastest in that order; a block of prefixes replaces the best so far
only when strictly better, so ties break toward the lexicographically
smallest vector, exactly as in a full enumeration. The fastest prefix digits,
columns h..n-2, cycle through every combination within each block, so their
survivors' top two (vectorized._top_surviving) is one table per search, and a
block scans only its outer columns 0..h-1 and merges the two (_merge_top_two).
The merge is exact: max and min never round, and bids >= 0 make a 0 for no
second merge as -inf would. The inner winner wins only where its top is
strictly higher, so a tie stays with the smaller column, as in one scan, and
rows stay in product order. eager_coordinate_ascent is the scalable local
search built from the same line search, with every bidder's sort made once;
a step's rivals are the scan with reserve j at +inf. A log with auction
weights is the same problem, which is how product laws are searched.

All optimizers report expected_revenue through the same exact evaluator
(empirical_totals, whose revenue fsum empirical_revenue divides by the log's
length), so two routes that agree on the reserves agree on the revenue bit for
bit. The result keeps both fsums, so a caller needs no second kernel run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import SearchSpaceTooLarge
from .logs import BidLog
from .mechanics import Mechanism, ReserveVector
from .vectorized import _merge_top_two, _top_surviving, eager_payments, lazy_order, payments

# bid x reserve-row elements per eager kernel call and per re-scored shortlist chunk, and
# prefix x auction (or candidate) elements per line-search block and per exact search's
# inner rival table: 32 kB per float64 array, small enough that each block reuses the
# heap memory the last one freed
_SEARCH_BATCH = 1 << 12
# candidates re-simulated together by optimal_lazy_bruteforce
_BRUTEFORCE_CHUNK = 256
# most candidate vectors an exact eager search enumerates unless told otherwise
MAX_PRODUCT_SIZE = 1_000_000


@dataclass(frozen=True)
class OptimizationResult:
    reserves: ReserveVector
    expected_revenue: float
    # the exact fsums behind expected_revenue: total payment and welfare over the log
    total_revenue: float
    total_welfare: float
    # the rule the totals are under
    mechanism: Mechanism
    # what the eager searches did, as their docstrings list; empty for the others
    counters: dict


def empirical_totals(log: BidLog, reserves: ReserveVector,
                     mechanism: Mechanism) -> tuple[float, float]:
    """Total payment and total welfare over the log's auctions, each an exact fsum."""
    pay, wel = payments(log.to_matrix(), reserves.row(log.bidder_ids), mechanism,
                        return_welfare=True)
    return math.fsum(pay.tolist()), math.fsum(wel.tolist())


def empirical_revenue(log: BidLog, reserves: ReserveVector, mechanism: Mechanism) -> float:
    """Mean payment per auction over the log. The one evaluator everything reports through."""
    return empirical_totals(log, reserves, mechanism)[0] / len(log)


def _result(log: BidLog, row: np.ndarray, mechanism: Mechanism,
            **counters) -> OptimizationResult:
    """Reserves from a row in bidder_ids order, with their totals under `mechanism`, the
    empirical revenue empirical_revenue reports for them and the search's counters."""
    reserves = ReserveVector(dict(zip(log.bidder_ids, (float(x) for x in row))))
    revenue, welfare = empirical_totals(log, reserves, mechanism)
    return OptimizationResult(reserves, revenue / len(log), revenue, welfare, mechanism, counters)


def optimal_lazy(log: BidLog) -> OptimizationResult:
    """Exact optimal lazy reserves by exact_lazy_search: per bidder, the smallest
    candidate with the highest auction-order lazy total over the auctions she wins."""
    return _result(log, exact_lazy_search(log.to_matrix()), Mechanism.LAZY)


def optimal_lazy_bruteforce(log: BidLog) -> OptimizationResult:
    """Optimal lazy reserves by direct re-simulation of every candidate.

    Same per-bidder decoupling, no incremental bookkeeping: for each candidate
    r the revenue over Q_i is summed from scratch, in auction order, as the
    search ranks its candidates. Slower than optimal_lazy
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
            pay = np.where(tops[None, :] >= c, np.maximum(c, seconds[None, :]), 0.0)
            # in auction order, as the search sums: a pairwise .sum() can rank a tie the other way
            rev = np.add.accumulate(pay, axis=1)[:, -1]
            i = int(np.argmax(rev))
            if rev[i] > best_rev:  # first strict max across chunks = smallest candidate on ties
                best_r, best_rev = float(c[i, 0]), float(rev[i])
        chosen[j] = best_r
    return _result(log, chosen, Mechanism.LAZY)


def monopoly_reserves(log: BidLog, mechanism: Mechanism = Mechanism.EAGER) -> OptimizationResult:
    """Per-bidder monopoly reserves: maximize r * #{own bids >= r} independently.

    Candidates are the bidder's own_candidates, ties toward the smallest; their 0
    earns 0. This ignores competition entirely; expected_revenue reports what
    the vector earns on the log under `mechanism` (eager by default), since
    the monopoly objective itself is not auction revenue.
    """
    bids = log.to_matrix()
    chosen = np.empty(len(log.bidder_ids))
    for j, cands in enumerate(own_candidates(bids.T)):
        vals = np.sort(bids[:, j])  # an absent -inf sorts below every candidate
        rev = cands * (len(vals) - np.searchsorted(vals, cands, side="left"))
        chosen[j] = cands[np.argmax(rev)]  # first max = smallest candidate
    return _result(log, chosen, mechanism)


def _distinct(values: np.ndarray) -> np.ndarray:
    """The distinct values, ascending: np.unique's sort and mask, without loading numpy.ma."""
    values = np.sort(values, axis=None)
    return values[np.concatenate([[True], values[1:] != values[:-1]])]


def own_candidates(columns) -> list[np.ndarray]:
    """Per bidder, {0} plus the distinct finite values of its array in `columns` (a log's
    bids.T, or each bidder's atoms), ascending: the reserves the eager searches try for it
    (see the module docstring)."""
    return [_distinct(np.concatenate([[0.0], c[np.isfinite(c)]])) for c in map(np.asarray, columns)]


def check_grid_size(sizes, max_product_size: int) -> None:
    """Refuse (SearchSpaceTooLarge) a grid of per-bidder sets of `sizes` whose product, its
    number of vectors, exceeds max_product_size."""
    size = math.prod(sizes)
    if size > max_product_size:
        raise SearchSpaceTooLarge(f"{' x '.join(map(str, sizes))} = {size} candidate vectors "
                                  f"exceed max_product_size={max_product_size}")


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


def _sort_line(b: np.ndarray, cands: np.ndarray):
    """What no reserve changes on bidder j's line: the stable order of j's bids b (T,)
    and, per candidate (ascending), how many of them lie below it. A search computes it
    once per bidder and hands it to every line of that bidder."""
    order = np.argsort(b, kind="stable")
    return order, np.searchsorted(b[order], cands, side="left")


def _line_payments(bids: np.ndarray, rows: np.ndarray, j: int, rivals):
    """Per auction (B, T) of each reserve row, what bidder j's line pays (see
    _eager_line_totals): C0, C1, the auctions j wins if it survives, and a. `rivals` is
    the survivors' top two over j's rivals: vectorized._top_surviving of the rows with
    reserve j at +inf, so that j never survives and its column keeps the tie rule."""
    winner, top, second = rivals
    rival = np.isfinite(top)
    r_w = np.take_along_axis(rows, winner, axis=1)
    b = bids[:, j]
    present = np.isfinite(b)
    wins = present & ((b > top) | ((b == top) & (j < winner)))
    c0 = np.where(rival, np.maximum(r_w, second), 0.0)
    c1 = np.where(present & ~wins, np.maximum(r_w, np.maximum(second, b)), 0.0)
    return c0, c1, wins, np.where(rival, top, 0.0)


def _eager_line_totals(cands: np.ndarray, pays, line, weights: np.ndarray | None = None):
    """Eager totals along bidder j's reserve line, for a block of B reserve rows.

    Returns (totals, tol, repeats): totals[p, k] (B, |cands|) is the log's
    eager revenue with reserve j at cands[k] (ascending) and the others at
    row p, each auction's payment times its weight when `weights` (T,) is
    given; it lies within tol[p] / 2 (tol is (B,)) of what
    _eager_totals_for_rows returns for that row. repeats[p, k] marks a
    candidate whose every auction pays exactly what it pays at cands[k - 1],
    so both rows' ordered totals are bit-identical. `pays` is the rows'
    _line_payments and `line` _sort_line's for (b_j, cands).

    With the other reserves fixed, an auction's payment depends on r = r_j in
    three ways: C0 when j drops out (b_j < r, or j is absent), C1 when j
    survives and loses, and max(r, a) when j survives and wins, where a <= b_j
    is the top surviving rival's bid (0 with no rival). One sort of b_j,
    shared by every row and every line of the search, and per-row prefix sums
    read at np.searchsorted positions give every total, with the sums over a
    from a histogram of the wins' a by candidate interval:

        sum_{b_j<r} C0 + sum_{b_j>=r, loses} C1
        + r * (#{wins: a<r} - #{wins: b_j<r}) + sum_{wins: a>=r} a
    """
    c0, c1, wins, a = pays
    order, b_below = line
    (B, T), C = c0.shape, len(cands)
    w = np.ones(T) if weights is None else weights

    # in b_j order: weighted C0, C1 and wins, then the unweighted wins and moves
    cum = np.zeros((5, B, T + 1))
    for dst, x in zip(cum, (c0 * w, c1 * w, wins * w, wins, wins | (c1 != c0))):
        dst[:, 1:] = x[:, order]
    np.cumsum(cum, axis=2, out=cum)
    (c0_b, c1_b, wins_b, n_wins_b, moves_b), (_, c1_all, wins_all, _, _) = \
        cum[:, :, b_below], cum[:, :, -1:]
    # wins by the candidate interval holding a: bin k + 1 holds cands[k] <= a < cands[k + 1]
    p, t = np.nonzero(wins)
    a_won, w_won = a[p, t], w[t]
    bins = np.searchsorted(cands, a_won, side="right") + (C + 1) * p
    hist = np.stack([np.bincount(bins, weights=x, minlength=B * (C + 1))
                     for x in (w_won, a_won * w_won, None)])
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


def _best_on_lines(bids: np.ndarray, rows: np.ndarray, j: int, cands: np.ndarray, line,
                   rivals, weights: np.ndarray | None = None) -> tuple[np.ndarray, float]:
    """The first row, in (row, candidate) order, with the highest ordered total when
    reserve j of each row takes each candidate; and that total. `line` and `rivals`
    are as _eager_line_totals and _line_payments take them.

    The ordered argmax, any row tying it and the fast maximum each lie within
    their tol / 2 of their ordered totals, so all lie within the block's largest
    tol of the fast maximum; a repeat ties the row before it. So only that
    shortlist, without repeats, is re-scored, by _rescored_totals from the line's own
    per-auction payments. Those are the eager kernel's own selections, so each
    re-scored total is bit-identical to _eager_totals_for_rows' for that row.
    """
    pays = _line_payments(bids, rows, j, rivals)
    fast, tol, repeats = _eager_line_totals(cands, pays, line, weights)
    p, k = np.nonzero((fast >= fast.max() - tol.max()) & ~repeats)  # row-major order
    totals = _rescored_totals(bids[:, j], pays, p, cands[k], weights)
    i = int(np.argmax(totals))  # first max
    row = rows[p[i]].copy()
    row[j] = cands[k[i]]
    return row, float(totals[i])


def _rescored_totals(b: np.ndarray, pays, p: np.ndarray, c: np.ndarray,
                     weights: np.ndarray | None = None) -> np.ndarray:
    """Ordered totals of reserve rows p (K,) of a line with reserve j at c (K,), from the
    line's _line_payments `pays` and j's bids b (T,): C0 where b < c (or j is absent),
    max(c, a) where j survives and wins, C1 where it survives and loses; each times its
    auction's weight if `weights` (T,) is given, summed in auction order, in chunks of
    rows as _eager_totals_for_rows sums."""
    step = max(1, _SEARCH_BATCH // len(b))
    totals = np.empty(len(p))
    for lo in range(0, len(p), step):
        c_lo = c[lo:lo + step, None]
        c0, c1, wins, a = (x[p[lo:lo + step]] for x in pays)
        pay = np.where(b >= c_lo, np.where(wins, np.maximum(c_lo, a), c1), c0)
        if weights is not None:
            pay *= weights
        totals[lo:lo + step] = np.add.accumulate(pay, axis=1)[:, -1]
    return totals


def exact_lazy_search(bids: np.ndarray, weights: np.ndarray | None = None) -> np.ndarray:
    """Per bidder of `bids` (T, n), the smallest of its own_candidates over the tops of
    the auctions Q she wins at zero reserves, {0} plus those tops, with the highest
    ordered lazy total over Q, each payment times its weight if `weights` (T,) is
    given; 0 if Q is empty. On Q the log [second, top] with the rival at reserve 0
    pays lazily (a tie pays the top either way; once she drops out the rival pays 0),
    so exact_eager_search of {0} for the rival and her own bids there is exact."""
    winner, top, second = lazy_order(bids)
    best = np.zeros(bids.shape[1])
    for i in range(len(best)):
        mine = winner == i
        if mine.any():
            pair = np.stack([second[mine], top[mine]], axis=1)
            sets = [np.zeros(1)] + own_candidates([top[mine]])
            best[i] = exact_eager_search(pair, sets, None if weights is None else weights[mine])[1]
    return best


def _product_rows(sets: list[np.ndarray], lo: int, hi: int) -> np.ndarray:
    """Vectors lo..hi - 1 of itertools.product(*sets), as a (hi - lo, len(sets)) array:
    mixed-radix digits of the index, the last fastest."""
    index = np.arange(lo, hi)
    rows = np.empty((len(index), len(sets)))
    for k in range(len(sets) - 1, -1, -1):
        index, digit = np.divmod(index, len(sets[k]))
        rows[:, k] = sets[k][digit]
    return rows


def _inner_split(sizes: list[int], step: int) -> int:
    """The first inner prefix column h: columns h..n-2 of a grid of per-bidder set `sizes`
    are the fastest prefix digits whose every combination fits a block of `step` prefixes.
    n - 1 when not even one column fits, and for n = 1."""
    h = len(sizes) - 1
    while h > 0 and math.prod(sizes[h - 1:-1]) <= step:
        h -= 1
    return h


def _prefix_blocks(bids: np.ndarray, sets: list[np.ndarray], step: int):
    """The (B, n) reserve rows of blocks of at most `step` prefixes (reserves 0..n-2) of
    itertools.product(*sets), in product order with reserve n - 1 at 0, each with the
    survivors' top two over columns 0..n-2 as _line_payments takes it.

    The inner columns h..n-2 (_inner_split) cycle through the same combinations in
    every block, so their survivors' top two, scanned with column n - 1 at +inf so that
    h = n - 1 needs no case of its own, is one table per search; a block scans only its
    outer columns 0..h-1 and merges them with the table (see the module docstring).
    """
    T, n = bids.shape
    sizes = [len(s) for s in sets]
    h = _inner_split(sizes, step)
    inner, outer = math.prod(sizes[h:-1]), math.prod(sizes[:h])
    inner_rows = _product_rows(sets[h:-1] + [np.full(1, np.inf)], 0, inner)[:, None]
    winner, top, second = _top_surviving(bids[:, h:], inner_rows)
    table = winner + h, top, second  # winners in bidder columns
    per_block = step // inner
    for lo in range(0, outer, per_block):
        hi = min(lo + per_block, outer)
        rows = np.zeros(((hi - lo) * inner, n))
        rows[:, :-1] = _product_rows(sets[:-1], lo * inner, hi * inner)
        if h == 0:
            yield rows, table
        else:
            outer_two = _top_surviving(bids[:, :h], rows[::inner, None, None, :h])
            yield rows, tuple(x.reshape(-1, T) for x in _merge_top_two(outer_two, table))


def exact_eager_search(bids: np.ndarray, sets: list[np.ndarray],
                       weights: np.ndarray | None = None) -> np.ndarray:
    """The first vector of itertools.product(*sets) with the highest ordered eager total
    over `bids` (T, n), weighted by `weights` (T,) if given; sets[j] holds bidder j's
    candidates, ascending.

    Blocks of prefixes (_prefix_blocks), in product order and within _SEARCH_BATCH
    elements per array, each line-search reserve n - 1 over sets[n - 1], whose bids
    are sorted once for all of them.
    """
    T, n = bids.shape
    step = max(1, _SEARCH_BATCH // max(T, len(sets[-1]) + 1))
    line = _sort_line(bids[:, -1], sets[-1])
    best, best_total = None, -math.inf
    for rows, rivals in _prefix_blocks(bids, sets, step):
        row, total = _best_on_lines(bids, rows, n - 1, sets[-1], line, rivals, weights)
        if total > best_total:
            best, best_total = row, total
    return best


def optimal_eager_exact(log: BidLog,
                        max_product_size: int = MAX_PRODUCT_SIZE) -> OptimizationResult:
    """Exact eager optimum over the product of per-bidder candidate sets.

    Bidder j's candidates are {0} plus j's own distinct bids, which hold the
    optimum of any larger grid (see the module docstring). Refuses
    (SearchSpaceTooLarge) when the product of the set sizes exceeds
    max_product_size. The search scores every vector of the product by its
    auction-order sum but simulates few: it enumerates the first n - 1
    reserves and line-searches the last, which is exact because each line's
    fast totals are re-scored within their rounding bound. Ties break toward
    the lexicographically smallest reserve vector. Its counters are `candidates`
    (each bidder's count, in bidder_ids order), `vectors` (their product) and
    `lines` (the product of all but the last, the line-searched bidder).
    """
    bids = log.to_matrix()
    sets = own_candidates(bids.T)
    sizes = [len(s) for s in sets]
    check_grid_size(sizes, max_product_size)
    return _result(log, exact_eager_search(bids, sets), Mechanism.EAGER, candidates=sizes,
                   vectors=math.prod(sizes), lines=math.prod(sizes[:-1]))


def eager_coordinate_ascent(log: BidLog, init: ReserveVector | None = None,
                            max_rounds: int = 50) -> OptimizationResult:
    """Local search for eager reserves: cycle bidders, re-optimize one reserve at a time.

    Bidders are cycled in ascending bidder_id order; each step searches that
    bidder's own candidates ({0} plus its distinct bids, which hold the best
    of any larger set: see the module docstring) and moves only on strict
    improvement, preferring the smallest improving candidate. Each step is
    _best_on_lines on the current row, O((T + |candidates|) log T), and moves
    exactly as a re-simulation of each of those candidates would. Stops after a full
    round improves total revenue by a relative factor below 1e-12
    (converged), or after max_rounds rounds. Its counters are `candidates` (each
    bidder's count, in bidder_ids order), `rounds` (rounds run) and `converged`
    (False when it stopped at max_rounds). Revenue never decreases, so the result
    is at least as good as the starting point.
    """
    if init is None:
        init = ReserveVector.zero()
    bids = log.to_matrix()
    sets = own_candidates(bids.T)
    n = len(log.bidder_ids)
    current = init.row(log.bidder_ids)
    current_total = float(_eager_totals_for_rows(bids, current[None, :])[0])
    lines = [_sort_line(b, s) for b, s in zip(bids.T, sets)]

    rounds, converged = 0, False
    while rounds < max_rounds and not converged:
        rounds += 1
        round_start = current_total
        for j in range(n):
            rivals = _top_surviving(bids, np.where(np.arange(n) == j, np.inf, current)[None, None])
            row, total = _best_on_lines(bids, current[None, :], j, sets[j], lines[j], rivals)
            if total > current_total:
                current, current_total = row, total
        converged = current_total - round_start <= 1e-12 * max(1.0, abs(round_start))

    return _result(log, current, Mechanism.EAGER, candidates=[len(s) for s in sets],
                   rounds=rounds, converged=converged)
