"""Single-item second-price auctions with personalized reserve prices.

Two ways to apply a vector of per-bidder reserves:

* LAZY: pick the highest bidder first, then check her reserve. If she clears
  it she pays max(own reserve, second-highest bid overall); otherwise the item
  goes unsold, even if a lower bidder would have cleared her own reserve.
* EAGER: drop every bidder below her reserve first, then run the second-price
  auction among the survivors. The winner pays max(own reserve, highest
  surviving competitor's bid); a sole survivor pays her reserve.

Conventions, fixed once here and relied on everywhere else:
  - clearing a reserve is the weak inequality bid >= reserve;
  - ties break toward the lexicographically smallest bidder_id;
  - the second-highest bid is 0 when only one bidder participates;
  - comparisons are exact float comparisons, no epsilon.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Mapping, Optional


class Mechanism(enum.Enum):
    LAZY = "lazy"
    EAGER = "eager"


@dataclass(frozen=True)
class BidProfile:
    """Bids for one auction: bidder_id -> bid for the participating bidders."""

    auction_id: str
    bids: Mapping[str, float]

    def __post_init__(self):
        if not self.bids:
            raise ValueError(f"auction {self.auction_id!r}: empty bid profile")
        for bidder, bid in self.bids.items():
            if not isinstance(bid, (int, float)) or isinstance(bid, bool):
                raise ValueError(f"auction {self.auction_id!r}: bid for {bidder!r} is not a number")
            if math.isnan(bid) or math.isinf(bid) or bid < 0:
                raise ValueError(f"auction {self.auction_id!r}: bid {bid!r} for {bidder!r} must be finite and >= 0")


@dataclass(frozen=True)
class ReserveVector:
    """Per-bidder reserve prices; bidders not listed have reserve 0.

    +inf is tolerated as an "exclude this bidder" sentinel.
    """

    reserves: Mapping[str, float] = field(default_factory=dict)

    def __post_init__(self):
        for bidder, r in self.reserves.items():
            if math.isnan(r) or r < 0:
                raise ValueError(f"reserve {r!r} for {bidder!r} must be >= 0")

    def get(self, bidder: str) -> float:
        return self.reserves.get(bidder, 0.0)

    @staticmethod
    def zero() -> "ReserveVector":
        return ReserveVector({})


@dataclass(frozen=True)
class AuctionOutcome:
    """Result of running one auction.

    welfare is the winning bid (value delivered), 0 when unsold. Always
    payment <= welfare, and an unsold auction has payment = welfare = 0.
    """

    winner: Optional[str]
    payment: float
    welfare: float
    mechanism: Mechanism


def _top_bidder(bids: Mapping[str, float]) -> str:
    # first strict max over ids in sorted order = smallest id among tied
    best = None
    best_bid = -math.inf
    for bidder in sorted(bids):
        if bids[bidder] > best_bid:
            best, best_bid = bidder, bids[bidder]
    return best


def _second_highest(bids: Mapping[str, float], excluding: str) -> float:
    rest = [b for bidder, b in bids.items() if bidder != excluding]
    return max(rest) if rest else 0.0


def run_lazy(profile: BidProfile, reserves: ReserveVector) -> AuctionOutcome:
    """Run the auction applying reserves lazily (winner chosen before the reserve check)."""
    j = _top_bidder(profile.bids)
    if profile.bids[j] < reserves.get(j):
        return AuctionOutcome(None, 0.0, 0.0, Mechanism.LAZY)
    payment = max(reserves.get(j), _second_highest(profile.bids, j))
    return AuctionOutcome(j, payment, profile.bids[j], Mechanism.LAZY)


def run_eager(profile: BidProfile, reserves: ReserveVector) -> AuctionOutcome:
    """Run the auction applying reserves eagerly (bidders below reserve dropped first)."""
    survivors = {b: v for b, v in profile.bids.items() if v >= reserves.get(b)}
    if not survivors:
        return AuctionOutcome(None, 0.0, 0.0, Mechanism.EAGER)
    j = _top_bidder(survivors)
    competitor = _second_highest(survivors, j)  # 0 for a sole survivor
    payment = max(reserves.get(j), competitor)
    return AuctionOutcome(j, payment, survivors[j], Mechanism.EAGER)


def run_auction(profile: BidProfile, reserves: ReserveVector, mechanism: Mechanism) -> AuctionOutcome:
    if mechanism is Mechanism.LAZY:
        return run_lazy(profile, reserves)
    return run_eager(profile, reserves)


def critical_bid(profile: BidProfile, reserves: ReserveVector, bidder: str,
                 mechanism: Mechanism) -> Optional[float]:
    """Smallest bid with which `bidder` would win, others' bids held fixed.

    Winning at the threshold itself can depend on the id tie-break, but the
    infimum of winning bids is exact:
      LAZY:  max(own reserve, highest other participant's bid)
      EAGER: max(own reserve, highest other SURVIVING participant's bid)
    Returns None when no finite bid can win (reserve is +inf).
    """
    if bidder not in profile.bids:
        raise ValueError(f"bidder {bidder!r} does not participate in auction {profile.auction_id!r}")
    r = reserves.get(bidder)
    if math.isinf(r):
        return None
    if mechanism is Mechanism.LAZY:
        others = [b for bdr, b in profile.bids.items() if bdr != bidder]
    else:
        others = [b for bdr, b in profile.bids.items()
                  if bdr != bidder and b >= reserves.get(bdr)]
    return max([r] + others) if others else r
