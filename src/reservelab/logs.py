"""Bid logs: an immutable (T, n) bid matrix over a sorted bidder universe."""

from __future__ import annotations

from collections import Counter
from typing import Iterable, Sequence

import numpy as np

from .mechanics import BidProfile
from .vectorized import ABSENT


class BidLog:
    """Ordered auctions held as one read-only (T, n) bid matrix, -inf where absent.

    Rows follow auction_ids, which are distinct; columns follow bidder_ids, the
    sorted universe of every bidder appearing anywhere in the log. There is an auction, no
    id is empty, every bid is finite and >= 0, and every auction has at least one bidder:
    _store refuses any other log, so no consumer checks these again.
    """

    __slots__ = ("_bids", "bidder_ids", "auction_ids")

    def __init__(self, profiles: Iterable[BidProfile]):
        profiles = tuple(profiles)
        ids = sorted({b for p in profiles for b in p.bids})
        bids = np.array([[p.bids.get(b, ABSENT) for b in ids] for p in profiles], dtype=float)
        self._store(bids, ids, [p.auction_id for p in profiles])

    def _store(self, bids: np.ndarray, bidder_ids: Iterable[str], auction_ids: Iterable[str]):
        auction_ids, bidder_ids = tuple(auction_ids), tuple(bidder_ids)
        if not auction_ids:
            raise ValueError("log has no auctions")
        if bids.shape != (len(auction_ids), len(bidder_ids)):
            raise ValueError(f"bid matrix of shape {bids.shape} for {len(auction_ids)} "
                             f"auction ids and {len(bidder_ids)} bidder ids")
        for what, ids in (("auction_id", auction_ids), ("bidder_id", bidder_ids)):
            if "" in (distinct := set(ids)):
                raise ValueError(f"empty {what}")
            if len(distinct) != len(ids):
                raise ValueError(f"duplicate {what} {Counter(ids).most_common(1)[0][0]!r}")
        present = bids != ABSENT
        if not (~present | np.isfinite(bids) & (bids >= 0)).all():
            raise ValueError("bids must be finite and >= 0, or -inf for an absent bidder")
        if not present.any(axis=1).all():
            raise ValueError("every auction needs at least one bidder")
        keep = sorted(np.flatnonzero(present.any(axis=0)).tolist(), key=bidder_ids.__getitem__)
        bids = bids[:, keep]  # a copy: callers keep no handle on the stored matrix
        bids.flags.writeable = False
        for name, value in zip(self.__slots__, (bids, tuple(bidder_ids[j] for j in keep),
                                                auction_ids)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"BidLog is immutable; cannot set {name!r}")

    def __len__(self) -> int:
        return self._bids.shape[0]

    def __eq__(self, other) -> bool:
        return (isinstance(other, BidLog) and self.bidder_ids == other.bidder_ids
                and self.auction_ids == other.auction_ids
                and np.array_equal(self._bids, other._bids))

    def to_matrix(self) -> np.ndarray:
        """(T, n) read-only bid matrix, columns in bidder_ids order, -inf where absent."""
        return self._bids

    @property
    def profiles(self) -> tuple[BidProfile, ...]:
        """The auctions as scalar BidProfiles, built on each access."""
        ids = self.bidder_ids
        return tuple(BidProfile(aid, {ids[j]: bid for j, bid in enumerate(row) if bid != ABSENT})
                     for aid, row in zip(self.auction_ids, self._bids.tolist()))

    @staticmethod
    def from_matrix(bids: np.ndarray, bidder_ids: Sequence[str],
                    auction_ids: Iterable[str] | None = None) -> "BidLog":
        """Log over a (T, n) matrix whose columns are bidder_ids; -inf entries are absent
        bidders. Columns are sorted by id and all-absent ones dropped. auction_ids
        default to a00000, a00001, ..."""
        bids = np.asarray(bids, dtype=float)
        if auction_ids is None:
            width = max(5, len(str(len(bids) - 1)))
            auction_ids = (f"a{i:0{width}d}" for i in range(len(bids)))
        log = object.__new__(BidLog)
        log._store(bids, bidder_ids, auction_ids)
        return log
