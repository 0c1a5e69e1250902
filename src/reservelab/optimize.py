"""Reserve-price optimization from bid logs.

The lazy problem decouples per bidder: bidder i's reserve only matters on the
auctions she would win at zero reserves, and there her lazy revenue is

    R_i(r) = r * k_i(r) + s_i(r)

with k_i(r) = #{auctions in Q_i : top >= r > second} and s_i(r) = sum of
seconds >= r. optimal_lazy maximizes R_i by a single ascending scan over the
distinct top/second values; optimal_lazy_bruteforce re-simulates every
candidate directly and exists as an independent check. The eager problem has
no such decoupling (it is as hard as maximum independent set), so the exact
optimizer is an exhaustive product search behind a size bound, with a
coordinate-ascent local search as the scalable alternative.

Each ascent step is a line search over one bidder's reserve with the others
fixed. Along that line every auction's eager payment is piecewise linear in
the reserve, so one sort of the bidder's bids plus prefix sums gives the
total at every candidate in O((T + |candidates|) log T). The few candidates
whose fast total lies within a proven rounding bound of the best are then
re-scored by the batched kernel's ordered sums, which make the choice, so
the ascent takes the same path as a full re-simulation of every candidate.

All optimizers report expected_revenue through the same exact evaluator
(empirical_revenue), so two routes that agree on the reserves agree on the
revenue bit for bit.
"""

from __future__ import annotations

import enum
import itertools
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import SearchSpaceTooLarge
from .logs import BidLog
from .mechanics import Mechanism, ReserveVector
from .vectorized import ABSENT, _top_two, eager_payments, lazy_order, payments

# bid x reserve-row elements per eager kernel call in the searches: about 0.5 MB of float64
_SEARCH_BATCH = 1 << 16


class CandidateSource(enum.Enum):
    """Where a chosen reserve value sits in the log's bid order statistics."""

    ZERO = "zero"
    FIRST_BID = "first_bid"
    SECOND_BID = "second_bid"


@dataclass(frozen=True)
class BidderDiagnostic:
    candidate_count: int
    source: CandidateSource


@dataclass(frozen=True)
class OptimizationResult:
    reserves: ReserveVector
    expected_revenue: float
    per_bidder_diagnostics: dict[str, BidderDiagnostic]
    # eager_coordinate_ascent only: rounds run, and False when it stopped at max_rounds
    rounds: int | None = None
    converged: bool | None = None


def _reserve_row(log: BidLog, reserves: ReserveVector) -> np.ndarray:
    return np.array([reserves.get(b) for b in log.bidder_ids])


def empirical_totals(log: BidLog, reserves: ReserveVector,
                     mechanism: Mechanism) -> tuple[float, float]:
    """Total payment and total welfare over the log's auctions, each an exact fsum."""
    pay, wel = payments(log.to_matrix(), _reserve_row(log, reserves), mechanism,
                        return_welfare=True)
    return math.fsum(pay.tolist()), math.fsum(wel.tolist())


def empirical_revenue(log: BidLog, reserves: ReserveVector, mechanism: Mechanism) -> float:
    """Mean payment per auction over the log. The one evaluator everything reports through."""
    if len(log) == 0:
        raise ValueError("empty log")
    return empirical_totals(log, reserves, mechanism)[0] / len(log)


def _log_tops(log: BidLog) -> set[float]:
    return set(lazy_order(log.to_matrix())[1].tolist())


def _classify(value: float, top_values) -> CandidateSource:
    # a candidate is always 0 or some auction's top/second bid; tops win the label
    if value == 0.0:
        return CandidateSource.ZERO
    if value in top_values:
        return CandidateSource.FIRST_BID
    return CandidateSource.SECOND_BID


def optimal_lazy(log: BidLog) -> OptimizationResult:
    """Exact optimal lazy reserves by the per-bidder ascending scan.

    For each bidder the candidates are {0} plus the distinct top/second values
    over the auctions she wins at zero reserves; the scan keeps (k, s) so that
    arriving at a value v it holds k = k_i(v), s = s_i(v), evaluates R_i(v),
    and only then applies v's own entry updates (a top at v leaves the count,
    a second at v enters it and leaves the sum). Ties break toward the
    smallest reserve. Bidders who never win at zero reserves keep reserve 0.
    """
    winner, top, second = lazy_order(log.to_matrix())
    chosen: dict[str, float] = {}
    diags: dict[str, BidderDiagnostic] = {}
    for j, bidder in enumerate(log.bidder_ids):
        mask = winner == j
        if not mask.any():
            chosen[bidder] = 0.0
            diags[bidder] = BidderDiagnostic(1, CandidateSource.ZERO)
            continue
        tops = top[mask]
        seconds = second[mask]
        # entry stream: +1/-1 flags keyed by value; is_top True drops k, a second raises k and leaves s
        values = np.concatenate([tops, seconds])
        is_top = np.concatenate([np.ones(len(tops), bool), np.zeros(len(seconds), bool)])
        order = np.argsort(values, kind="stable")
        values, is_top = values[order], is_top[order]

        k = 0
        s = math.fsum(seconds.tolist())
        best_r, best_rev = 0.0, s  # candidate r = 0
        i = 0
        m = len(values)
        while i < m:
            v = values[i]
            if v > 0.0:
                rev = v * k + s
                if rev > best_rev:
                    best_r, best_rev = v, rev
            while i < m and values[i] == v:
                if is_top[i]:
                    k -= 1
                else:
                    k += 1
                    s -= v
                i += 1
        chosen[bidder] = float(best_r)
        n_candidates = len(np.unique(values)) + (0.0 not in values)
        diags[bidder] = BidderDiagnostic(int(n_candidates),
                                         _classify(chosen[bidder], set(tops.tolist())))
    reserves = ReserveVector(chosen)
    return OptimizationResult(reserves, empirical_revenue(log, reserves, Mechanism.LAZY), diags)


def optimal_lazy_bruteforce(log: BidLog, chunk: int = 256) -> OptimizationResult:
    """Optimal lazy reserves by direct re-simulation of every candidate.

    Same per-bidder decoupling, no incremental bookkeeping: for each candidate
    r the revenue over Q_i is summed from scratch. Slower than optimal_lazy
    by a factor of the candidate count; kept as an independent route to the
    same argmax and revenue.
    """
    winner, top, second = lazy_order(log.to_matrix())
    chosen: dict[str, float] = {}
    diags: dict[str, BidderDiagnostic] = {}
    for j, bidder in enumerate(log.bidder_ids):
        mask = winner == j
        if not mask.any():
            chosen[bidder] = 0.0
            diags[bidder] = BidderDiagnostic(1, CandidateSource.ZERO)
            continue
        tops = top[mask]
        seconds = second[mask]
        cands = np.unique(np.concatenate([[0.0], tops, seconds]))  # ascending
        best_r, best_rev = 0.0, -math.inf
        for lo in range(0, len(cands), chunk):
            c = cands[lo:lo + chunk, None]
            rev = np.where(tops[None, :] >= c, np.maximum(c, seconds[None, :]), 0.0).sum(axis=1)
            i = int(np.argmax(rev))
            if rev[i] > best_rev:  # first strict max across chunks = smallest candidate on ties
                best_r, best_rev = float(c[i, 0]), float(rev[i])
        chosen[bidder] = best_r
        diags[bidder] = BidderDiagnostic(len(cands), _classify(best_r, set(tops.tolist())))
    reserves = ReserveVector(chosen)
    return OptimizationResult(reserves, empirical_revenue(log, reserves, Mechanism.LAZY), diags)


def monopoly_reserves(log: BidLog, mechanism: Mechanism = Mechanism.EAGER) -> OptimizationResult:
    """Per-bidder monopoly reserves: maximize r * #{own bids >= r} independently.

    Candidates are the bidder's own distinct bid values, ties toward the
    smallest. This ignores competition entirely; expected_revenue reports what
    the vector earns on the log under `mechanism` (eager by default), since
    the monopoly objective itself is not auction revenue.
    """
    bids = log.to_matrix()
    log_tops = _log_tops(log)
    chosen: dict[str, float] = {}
    diags: dict[str, BidderDiagnostic] = {}
    for j, bidder in enumerate(log.bidder_ids):
        vals = bids[:, j]
        vals = np.sort(vals[np.isfinite(vals)])
        cands = np.unique(vals)
        n_at_least = len(vals) - np.searchsorted(vals, cands, side="left")
        rev = cands * n_at_least
        i = int(np.argmax(rev))  # first max = smallest candidate
        chosen[bidder] = float(cands[i])
        diags[bidder] = BidderDiagnostic(len(cands), _classify(chosen[bidder], log_tops))
    reserves = ReserveVector(chosen)
    return OptimizationResult(reserves, empirical_revenue(log, reserves, mechanism), diags)


def _global_candidates(log: BidLog) -> np.ndarray:
    bids = log.to_matrix()
    vals = bids[np.isfinite(bids)]
    return np.unique(np.concatenate([[0.0], vals]))


def _eager_totals_for_rows(bids: np.ndarray, R: np.ndarray) -> np.ndarray:
    """Summed eager revenue over all auctions for each reserve row in R (B, n).

    Sums run left to right in auction order, so a row's total does not depend
    on how the rows are batched.
    """
    step = max(1, _SEARCH_BATCH // max(bids.size, 1))
    totals = np.empty(len(R))
    for i in range(0, len(R), step):
        pay = eager_payments(bids, R[i:i + step, None, :])
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


def _eager_result(log: BidLog, cands: np.ndarray, row: np.ndarray) -> OptimizationResult:
    log_tops = _log_tops(log)
    chosen = dict(zip(log.bidder_ids, (float(x) for x in row)))
    diags = {b: BidderDiagnostic(len(cands), _classify(chosen[b], log_tops))
             for b in log.bidder_ids}
    reserves = ReserveVector(chosen)
    return OptimizationResult(reserves, empirical_revenue(log, reserves, Mechanism.EAGER), diags)


def optimal_eager_exact(log: BidLog, max_product_size: int = 1_000_000) -> OptimizationResult:
    """Exhaustive eager optimum over the product of per-bidder candidate sets.

    Every bidder's candidates are {0} plus all distinct bid values in the log.
    Refuses (SearchSpaceTooLarge) when the product exceeds max_product_size.
    Ties break toward the lexicographically smallest reserve vector.
    """
    cands = _global_candidates(log)
    n = len(log.bidder_ids)
    size = len(cands) ** n
    if size > max_product_size:
        raise SearchSpaceTooLarge(
            f"{len(cands)}^{n} = {size} candidate vectors exceed max_product_size={max_product_size}")
    bids = log.to_matrix()
    best = argmax_over_grid(cands.tolist(), n, lambda R: _eager_totals_for_rows(bids, R),
                            1 << 14)
    return _eager_result(log, cands, best)


def _eager_line_totals(bids: np.ndarray, current: np.ndarray, j: int, cands: np.ndarray):
    """Eager totals along bidder j's reserve line, by one sort and prefix sums.

    Returns (totals, tol, repeats) over the ascending candidates: totals[k] is
    the log's eager revenue with reserve j at cands[k] and the others at
    `current`, within tol / 2 of what _eager_totals_for_rows returns for that
    row; repeats[k] marks a candidate whose every auction pays exactly what it
    pays at cands[k - 1], so both rows' ordered totals are bit-identical.

    With the other reserves fixed, an auction's payment depends on r = r_j in
    three ways: C0 when j drops out (b_j < r, or j is absent), C1 when j
    survives and loses, and max(r, a) when j survives and wins, where a <= b_j
    is the top surviving rival's bid (0 with no rival). Sorting b_j and the a
    of j's wins makes every total a handful of prefix sums read at
    np.searchsorted positions, O((T + |cands|) log T) in all:

        sum_{b_j<r} C0 + sum_{b_j>=r, loses} C1
        + r * (#{wins: a<r} - #{wins: b_j<r}) + sum_{wins: a>=r} a
    """
    surviving = [np.where(b >= r, b, ABSENT) for b, r in zip(bids.T, current)]
    surviving[j] = np.full(len(bids), ABSENT)  # rivals only; column numbers keep the tie rule
    winner, top, second = _top_two(surviving)
    rival = np.isfinite(top)
    r_w = current[winner]
    b = bids[:, j]
    present = np.isfinite(b)
    wins = present & ((b > top) | ((b == top) & (j < winner)))
    c0 = np.where(rival, np.maximum(r_w, second), 0.0)
    c1 = np.where(present & ~wins, np.maximum(r_w, np.maximum(second, b)), 0.0)
    a = np.sort(np.where(rival, top, 0.0)[wins])

    order = np.argsort(b, kind="stable")
    b_below = np.searchsorted(b[order], cands, side="left")
    a_below = np.searchsorted(a, cands, side="left")
    c0_cum, c1_cum, a_cum = (np.concatenate([[0.0], np.cumsum(x)])
                             for x in (c0[order], c1[order], a))
    wins_cum, moves_cum = (np.concatenate([[0], np.cumsum(x[order])])
                           for x in (wins, wins | (c1 != c0)))
    paying_r = a_below - wins_cum[b_below]  # surviving wins that pay the reserve itself
    totals = (c0_cum[b_below] + (c1_cum[-1] - c1_cum[b_below])
              + cands * paying_r + (a_cum[-1] - a_cum[a_below]))

    # Every candidate's T payments are >= 0 and sum to at most `scale`. Summed in
    # auction order they lie within (T - 1) u * scale of the exact total, and the
    # prefix sums above within about (2T + 4) u * scale (u = eps / 2), so the two
    # totals of one candidate differ by less than tol / 2.
    scale = c0_cum[-1] + c1_cum[-1] + a_cum[-1] + cands[-1] * wins_cum[-1]
    tol = 4 * (len(b) + 4) * np.finfo(float).eps * scale
    # no win pays r, and every auction j leaves between the two candidates pays C1 == C0
    moved = moves_cum[b_below]
    repeats = np.concatenate([[False], (moved[1:] == moved[:-1]) & (paying_r[1:] == 0)])
    return totals, tol, repeats


def eager_coordinate_ascent(log: BidLog, init: ReserveVector | None = None,
                            max_rounds: int = 50) -> OptimizationResult:
    """Local search for eager reserves: cycle bidders, re-optimize one reserve at a time.

    Bidders are cycled in ascending bidder_id order; each step searches the
    full candidate set ({0} plus all distinct log bids) for that bidder and
    moves only on strict improvement, preferring the smallest improving
    candidate. Each step is the sorted line search of _eager_line_totals,
    O((T + |candidates|) log T); the candidates whose fast total is within its
    rounding bound of the best are re-scored by _eager_totals_for_rows, whose
    auction-order sums decide the move exactly as a re-simulation of every
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
    current = np.array([init.get(b) for b in log.bidder_ids])
    current_total = float(_eager_totals_for_rows(bids, current[None, :])[0])

    rounds, converged = 0, False
    while rounds < max_rounds and not converged:
        rounds += 1
        round_start = current_total
        for j in range(n):
            # the auction-order argmax is within tol of the fast maximum, and a
            # repeat ties the candidate below it, so it is never the first argmax
            fast, tol, repeats = _eager_line_totals(bids, current, j, cands)
            shortlist = cands[(fast >= fast.max() - tol) & ~repeats]
            R = np.tile(current, (len(shortlist), 1))
            R[:, j] = shortlist
            totals = _eager_totals_for_rows(bids, R)
            i = int(np.argmax(totals))  # first max = smallest candidate
            if totals[i] > current_total:
                current = R[i].copy()
                current_total = float(totals[i])
        converged = current_total - round_start <= 1e-12 * max(1.0, abs(round_start))

    return replace(_eager_result(log, cands, current), rounds=rounds, converged=converged)
