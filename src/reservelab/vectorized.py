"""Batch implementations of the auction mechanics on numpy arrays.

Bids are a (T, n) float array, one row per auction, one column per bidder in
ascending bidder_id order; -inf marks a bidder absent from an auction.
Reserves are a single (n,) row applied to every auction, a (T, n) array, or
carry a leading batch axis of reserve rows: (B, 1, n) or (B, T, n) reserves
give (B, T) payments, one row of per-auction payments per reserve row.
Semantics match mechanics.run_lazy / run_eager exactly (same weak
inequalities, same smallest-column tie-break); the scalar functions stay the
reference and the test suite cross-checks the two.
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


def lazy_order(bids: np.ndarray):
    """The reserve-independent lazy step: per auction, the zero-reserve winner
    column, the top bid and the second-highest bid (0 with one participant)."""
    return _top_two(np.asarray(bids, dtype=float).T)


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
    """Per-auction payments under lazy reserves. Optionally also welfare."""
    winner, top, second = lazy_order(bids)
    reserves = np.asarray(reserves, dtype=float)
    winner = np.broadcast_to(winner, np.broadcast_shapes(reserves.shape[:-1], winner.shape))
    r_w = _at(reserves, winner)
    return _outcome(top >= r_w, top, r_w, second, return_welfare)


def eager_payments(bids: np.ndarray, reserves: np.ndarray,
                   return_welfare: bool = False):
    """Per-auction payments under eager reserves. Optionally also welfare."""
    reserves = np.asarray(reserves, dtype=float)
    surviving = (np.where(b >= r, b, ABSENT)  # absent never survives
                 for b, r in zip(np.asarray(bids, dtype=float).T, np.moveaxis(reserves, -1, 0)))
    winner, top, second = _top_two(surviving)  # sole survivor: second 0, pays reserve
    return _outcome(np.isfinite(top), top, _at(reserves, winner), second, return_welfare)


def payments(bids: np.ndarray, reserves: np.ndarray, mechanism: Mechanism,
             return_welfare: bool = False):
    fn = lazy_payments if mechanism is Mechanism.LAZY else eager_payments
    return fn(bids, reserves, return_welfare)
