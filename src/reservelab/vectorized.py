"""Batch implementations of the auction mechanics on numpy arrays.

Bids are a (T, n) float array, one row per auction, one column per bidder in
ascending bidder_id order; -inf marks a bidder absent from an auction.
Reserves are a single (n,) row applied to every auction, a (T, n) array, or carry
a leading batch axis of reserve rows: (B, 1, n) or (B, T, n) reserves give (B, T)
payments, one row per reserve row (nested_payments' lazy branch and the tests'
eager oracle; no search runs a kernel). Semantics match mechanics.run_lazy /
run_eager exactly (same weak inequalities, same smallest-column tie-break); the
scalar functions stay the reference and the test suite cross-checks the two.

The eager survivors' top two is one scan, _top_surviving, which the eager
searches' rivals call too; two groups' top two merge through _merge_top_two.

nested_payments evaluates nested treated sets: the bidders in columns < k hold
their reserves, the rest hold 0, for every k = 0..n at once. Lazy fixes the winner
before any reserve is checked, so the lazy kernel takes the n + 1 reserve rows as one
batch on one bid order. Under eager the sets grow one column at a time, so top-two
scans over the columns (treated prefix, untreated suffix), merged at each k by
_merge_top_two, give every k's outcome from selections alone, equal to one kernel
call per k; the suffix scan read backwards is already in k order.

reserve_can_bind states when a reserve can change an auction's price at all; the
sweeps send only those auctions to a kernel. second_bid is lazy_order's second bid alone,
for callers that need no winner: both sweeps read it once and pay it in every auction
reserve_can_bind leaves out.
"""

from __future__ import annotations

import numpy as np

from .mechanics import Mechanism

ABSENT = -np.inf


def _top_two(columns):
    """One pass over bid columns in ascending bidder order. Per auction: the
    first highest column, its bid, and the highest other bid (0 if none)."""
    columns = iter(columns)
    top = next(columns, None)
    if top is None:
        raise ValueError("no bidders")
    winner = np.zeros(np.shape(top), dtype=np.intp)
    second = np.full(np.shape(top), ABSENT)
    for j, col in enumerate(columns, start=1):
        winner[col > top] = j  # strict: a tie stays with the smaller column
        second = np.maximum(second, np.minimum(top, col))
        top = np.maximum(top, col)
    return winner, top, np.where(np.isfinite(second), second, 0.0)  # single participant: 0


def _merge_top_two(first, then):
    """The top two over two groups of bid columns, from each group's (winner, top, second),
    arrays broadcast together. Winner labels are columns numbered alike, or reserves:
    `then`'s wins only where its top is strictly higher, so a tie stays with `first` (the
    smaller columns, for _top_two's tie rule). Exact: max and min never round, and with
    bids >= 0 a group's 0 for no second merges as its -inf would."""
    (w0, t0, s0), (w1, t1, s1) = first, then
    second = np.maximum(np.maximum(s0, s1), np.minimum(t0, t1))  # made first: fewer arrays live
    return np.where(t1 > t0, w1, w0), np.maximum(t0, t1), second


def _top_surviving(bids: np.ndarray, reserves: np.ndarray):
    """_top_two over the bids (T, m) that clear their column's reserve, `reserves` broadcast
    as the kernels take them: per auction of every reserve row, the first highest
    survivor's column, its bid and the highest other survivor's (0 if none)."""
    return _top_two(np.where(b >= reserves[..., j], b, ABSENT)  # absent never survives
                    for j, b in enumerate(np.asarray(bids, dtype=float).T))


def lazy_order(bids: np.ndarray):
    """The reserve-independent lazy step: per auction, the zero-reserve winner
    column, the top bid and the second-highest bid (0 with one participant)."""
    return _top_two(np.asarray(bids, dtype=float).T)


def second_bid(bids: np.ndarray) -> np.ndarray:
    """lazy_order(bids)[2] alone, bit for bit: per auction the second-highest bid (0 with
    one participant), from one top/second pass over contiguous bidder columns that tracks
    no winner. The operands are _top_two's, in its order."""
    columns = np.ascontiguousarray(np.asarray(bids, dtype=float).T)  # (n, T)
    if len(columns) == 0:
        raise ValueError("no bidders")
    top = columns[0].copy()  # a Fortran-order input's columns are its own memory
    second = np.full(top.shape, ABSENT)
    low = np.empty(top.shape)
    for col in columns[1:]:
        np.maximum(second, np.minimum(top, col, out=low), out=second)
        np.maximum(top, col, out=top)
    return np.where(np.isfinite(second), second, 0.0)  # single participant: 0


def reserve_can_bind(second: np.ndarray, reserves) -> np.ndarray:
    """Indices of the auctions whose price some reserve can change: second bid
    (second_bid's, equal to lazy_order's, 0 with one participant) below the largest of
    `reserves` and 0, the reserve an untreated bidder holds. Every other auction pays its
    second bid under both rules: no reserve lies above that bid, so none removes either of
    the top two bidders or raises the price."""
    return np.flatnonzero(second < max(float(np.max(reserves)), 0.0))


def _at(reserves: np.ndarray, winner: np.ndarray) -> np.ndarray:
    """The winner's reserve in every auction, over the winner array's shape."""
    full = np.broadcast_to(reserves, winner.shape + reserves.shape[-1:])
    return np.take_along_axis(full, winner[..., None], axis=-1)[..., 0]


def _outcome(sold, top, r_w, second, return_welfare: bool):
    payment = np.where(sold, np.maximum(r_w, second), 0.0)
    if not return_welfare:
        return payment
    return payment, np.where(sold, top, 0.0)


def lazy_payments(bids: np.ndarray, reserves: np.ndarray,
                  return_welfare: bool = False):
    """Per-auction payments under lazy reserves. Optionally also welfare. The winner is
    fixed before any reserve is checked, so one lazy_order serves every reserve row of a
    batch, and each row's outcome is selections on it."""
    winner, top, second = lazy_order(bids)
    reserves = np.asarray(reserves, dtype=float)
    winner = np.broadcast_to(winner, np.broadcast_shapes(reserves.shape[:-1], winner.shape))
    r_w = _at(reserves, winner)
    return _outcome(top >= r_w, top, r_w, second, return_welfare)


def eager_payments(bids: np.ndarray, reserves: np.ndarray,
                   return_welfare: bool = False):
    """Per-auction payments under eager reserves. Optionally also welfare."""
    reserves = np.asarray(reserves, dtype=float)
    winner, top, second = _top_surviving(bids, reserves)  # sole survivor: second 0, pays reserve
    return _outcome(np.isfinite(top), top, _at(reserves, winner), second, return_welfare)


def payments(bids: np.ndarray, reserves: np.ndarray, mechanism: Mechanism,
             return_welfare: bool = False):
    fn = lazy_payments if mechanism is Mechanism.LAZY else eager_payments
    return fn(bids, reserves, return_welfare)


def _running_top_two(bids: np.ndarray, reserves: np.ndarray):
    """Top two of bids[:t] for t = 0..m, over (m, T) rows in scan order with the (m,) reserve
    of each row: the (m + 1, T) top bid, the reserve of a bidder holding it and the
    second-highest bid; an empty prefix has top and second -inf."""
    top = np.full((len(bids) + 1,) + bids.shape[1:], ABSENT)
    second = top.copy()
    r_top = np.zeros(top.shape)
    for t, (b, r) in enumerate(zip(bids, reserves)):
        np.copyto(r_top[t + 1], np.where(b > top[t], r, r_top[t]))
        np.maximum(second[t], np.minimum(top[t], b), out=second[t + 1])
        np.maximum(top[t], b, out=top[t + 1])
    return top, r_top, second


def nested_payments(bids: np.ndarray, reserves: np.ndarray,
                    mechanism: Mechanism) -> np.ndarray:
    """(T, n + 1) payments: column k has the bidders in columns < k at `reserves` (one (n,)
    row) and the others at 0, exactly as payments() with that reserve array.

    Lazy is one lazy_payments call on the (n + 1, 1, n) batch of those reserve rows.
    Eager scans the columns once from each end, prefix top-two of the treated bids that
    clear their reserve and suffix top-two of the untreated bids >= 0, and merges the
    two at each k. Which of several tied top bidders wins does not matter there: a tie
    makes the second bid equal the top, every survivor's reserve is at most its bid, so
    the payment is the top bid.
    Exact on any rows; the sweeps pass only those reserve_can_bind selects.
    """
    bids = np.asarray(bids, dtype=float)
    reserves = np.asarray(reserves, dtype=float)
    n = bids.shape[1]
    if mechanism is Mechanism.LAZY:
        treated = np.arange(n) < np.arange(n + 1)[:, None]  # row k: the columns < k
        return lazy_payments(bids, np.where(treated, reserves, 0.0)[:, None, :]).T
    cols = np.ascontiguousarray(bids.T)  # (n, T): each scan step reads one bidder's bids
    # row k of the prefix scan: the treated columns < k; row n - k of the suffix scan
    # (row k of its reversed view): the untreated columns >= k
    p_top, p_res, p_second = _running_top_two(
        np.where(cols >= reserves[:, None], cols, ABSENT), reserves)
    s_top, _, s_second = (a[::-1] for a in _running_top_two(
        np.where(cols >= 0.0, cols, ABSENT)[::-1], np.zeros(n)))
    r_w, top, second = _merge_top_two((0.0, s_top, s_second), (p_res, p_top, p_second))
    return _outcome(np.isfinite(top), top, r_w,
                    np.where(np.isfinite(second), second, 0.0), False).T
