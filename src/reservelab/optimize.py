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

All optimizers report expected_revenue through the same exact evaluator
(empirical_revenue), so two routes that agree on the reserves agree on the
revenue bit for bit.
"""

from __future__ import annotations

import enum
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import SearchSpaceTooLarge
from .logs import BidLog
from .mechanics import Mechanism, ReserveVector
from .vectorized import eager_payments, lazy_order, payments

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


def eager_coordinate_ascent(log: BidLog, init: ReserveVector | None = None,
                            max_rounds: int = 50) -> OptimizationResult:
    """Local search for eager reserves: cycle bidders, re-optimize one reserve at a time.

    Bidders are cycled in ascending bidder_id order; each step scans the full
    candidate set ({0} plus all distinct log bids) for that bidder and moves
    only on strict improvement, preferring the smallest improving candidate.
    Stops after a full round improves total revenue by a relative factor
    below 1e-12, or after max_rounds rounds. Revenue never decreases, so the
    result is at least as good as the starting point.
    """
    if init is None:
        init = ReserveVector.zero()
    cands = _global_candidates(log)
    bids = log.to_matrix()
    n = len(log.bidder_ids)
    current = np.array([init.get(b) for b in log.bidder_ids])
    current_total = float(_eager_totals_for_rows(bids, current[None, :])[0])

    for _ in range(max_rounds):
        round_start = current_total
        for j in range(n):
            R = np.tile(current, (len(cands), 1))
            R[:, j] = cands
            totals = _eager_totals_for_rows(bids, R)
            i = int(np.argmax(totals))  # first max = smallest candidate
            if totals[i] > current_total:
                current = R[i].copy()
                current_total = float(totals[i])
        gain = current_total - round_start
        if gain <= 1e-12 * max(1.0, abs(round_start)):
            break

    return _eager_result(log, cands, current)
