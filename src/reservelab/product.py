"""Finite-support product distributions and the trim-lift construction.

A ProductDist assigns each bidder an independent finite-support distribution.
expected_revenue_product evaluates an auction's expected revenue exactly by
enumerating the full profile space (at most _MAX_PROFILES profiles) and
summing with math.fsum, so two evaluations that agree pointwise agree bit for
bit. optimal_reserves_product treats the law as a log of its profiles
weighted by probability and runs the searches of reservelab.optimize.

trim_lift turns a lazy-reserve setup into an eager-equivalent one: processing
bidders from the highest reserve down, the mass of D_i below r_i is collapsed
to an atom at 0 ("trim"), and the reserves of the not-yet-processed bidders
are lifted to the best mass point that was removed. After the transformation,
no bidder who fails her own reserve can outbid a bidder who clears hers, so
lazy and eager coincide on every profile; the expected lazy revenue never
drops at any intermediate step.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .errors import SearchSpaceTooLarge
from .mechanics import Mechanism, ReserveVector
from .optimize import (MAX_PRODUCT_SIZE, check_grid_size, exact_eager_search,
                       exact_lazy_search, own_candidates)
from .vectorized import payments


@dataclass(frozen=True)
class FiniteDist:
    """Finite-support distribution: ((value, prob), ...) with distinct values >= 0."""

    atoms: tuple[tuple[float, float], ...]

    def __post_init__(self):
        if not self.atoms:
            raise ValueError("distribution needs at least one atom")
        values = [v for v, _ in self.atoms]
        if len(set(values)) != len(values):
            raise ValueError("atom values must be distinct")
        if any(v < 0 or math.isinf(v) or math.isnan(v) for v in values):
            raise ValueError("atom values must be finite and >= 0")
        if any(p <= 0 for _, p in self.atoms):
            raise ValueError("atom probabilities must be > 0")
        total = math.fsum(p for _, p in self.atoms)
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"atom probabilities sum to {total}, not 1")
        object.__setattr__(self, "atoms", tuple(sorted(self.atoms)))

    def values(self) -> tuple[float, ...]:
        return tuple(v for v, _ in self.atoms)

    def trimmed(self, reserve: float) -> "FiniteDist":
        """Collapse all mass strictly below `reserve` into an atom at 0."""
        below = math.fsum(p for v, p in self.atoms if v < reserve)
        if below <= 0:
            return self
        # mass below the reserve puts it above 0, so no kept atom sits at 0
        return FiniteDist(((0.0, below), *((v, p) for v, p in self.atoms if v >= reserve)))


@dataclass(frozen=True)
class ProductDist:
    """Independent bidders with finite-support marginals, keyed by bidder_id."""

    bidders: Mapping[str, FiniteDist]

    def __post_init__(self):
        if not self.bidders:
            raise ValueError("product distribution needs at least one bidder")
        object.__setattr__(self, "bidders", dict(sorted(self.bidders.items())))

    def bidder_ids(self) -> tuple[str, ...]:
        return tuple(self.bidders)

    def support_size(self) -> int:
        return math.prod(len(d.atoms) for d in self.bidders.values())


_MAX_PROFILES = 1_000_000  # largest profile space expected_revenue_product enumerates


def expected_revenue_product(dist: ProductDist, reserves: ReserveVector,
                             mechanism: Mechanism) -> float:
    """Exact expected revenue by full profile enumeration.

    Each profile's probability times its payment, summed by math.fsum: the
    kernels pay what the scalar mechanics pay and fsum is correctly rounded,
    so the result does not depend on the order of the profiles.
    """
    if dist.support_size() > _MAX_PROFILES:
        raise SearchSpaceTooLarge(
            f"{dist.support_size()} profiles exceed max_profiles={_MAX_PROFILES}")
    values, probs = _profile_arrays(dist)
    row = reserves.row(dist.bidder_ids())
    return math.fsum((probs * payments(values, row, mechanism)).tolist())


def _profile_arrays(dist: ProductDist):
    """All support profiles as a (S, n) matrix plus their probabilities.

    Profiles come in itertools.product order over the bidders' atoms; each
    probability multiplies its atoms' probabilities left to right, as math.prod does.
    """
    atoms = [np.array(dist.bidders[b].atoms) for b in dist.bidder_ids()]  # (m_i, 2) each
    values = np.stack([g.ravel() for g in np.meshgrid(*(a[:, 0] for a in atoms),
                                                      indexing="ij")], axis=1)
    probs = functools.reduce(np.multiply.outer, (a[:, 1] for a in atoms)).ravel()
    return values, probs


def optimal_reserves_product(dist: ProductDist,
                             mechanism: Mechanism) -> tuple[ReserveVector, float]:
    """Exact optimal reserves for a finite-support product distribution.

    The law is searched as a log of its support profiles weighted by
    probability, each payment sum in profile order. Bidder j's candidates are
    {0} plus j's own atoms (optimize.own_candidates), which hold the optimum of
    any larger grid (see the reservelab.optimize docstring). Eager returns the
    first vector of the product of those sets, in product order, with the
    highest sum (optimize.exact_eager_search); lazy, per bidder, the smallest candidate
    with the highest sum over the profiles she wins at zero reserves
    (optimize.exact_lazy_search). The revenue comes from
    expected_revenue_product. A grid of more than optimize.MAX_PRODUCT_SIZE
    vectors is refused (SearchSpaceTooLarge) for both rules before any profile
    is enumerated; it also caps the support size.
    """
    ids = dist.bidder_ids()
    sets = own_candidates(d.values() for d in dist.bidders.values())
    check_grid_size([len(s) for s in sets], MAX_PRODUCT_SIZE)
    values, probs = _profile_arrays(dist)
    if mechanism is Mechanism.EAGER:
        best = exact_eager_search(values, sets, probs)
    else:
        best = exact_lazy_search(values, probs)
    reserves = ReserveVector(dict(zip(ids, (float(x) for x in best))))
    return reserves, expected_revenue_product(dist, reserves, mechanism)


def trim_lift(dist: ProductDist,
              lazy_reserves: ReserveVector) -> tuple[ProductDist, ReserveVector]:
    """Rewrite (distributions, lazy reserves) so eager equals lazy, revenue preserved or better.

    Bidders are processed in order of non-increasing reserve (ties by id).
    For bidder i, the replacement point x is the atom of D_i strictly below
    r_i that maximizes the exact conditional lazy revenue E[Rev | b_i = x],
    the current state's revenue with D_i replaced by a point mass at x
    (x = 0 if nothing lies below r_i; ties toward the
    smallest atom); D_i is then trimmed at r_i and every unprocessed reserve
    is lifted to at least x.

    Returns the trimmed product distribution and the lifted reserves. On the
    result, lazy and eager revenues agree exactly and are >= the lazy revenue
    of the input pair.
    """
    ids = dist.bidder_ids()
    dists = dict(dist.bidders)
    r = {b: lazy_reserves.get(b) for b in ids}
    order = sorted(ids, key=lambda b: (-r[b], b))
    for pos, bidder in enumerate(order):
        reserve = r[bidder]
        current = ReserveVector(dict(r))
        below = [v for v in dists[bidder].values() if v < reserve]  # ascending
        # E[Rev | b_i = v] at its highest; max keeps the first, smallest, of equal keys
        x = max(below, default=0.0, key=lambda v: expected_revenue_product(
            ProductDist({**dists, bidder: FiniteDist(((v, 1.0),))}), current, Mechanism.LAZY))
        dists[bidder] = dists[bidder].trimmed(reserve)
        for later in order[pos + 1:]:
            r[later] = max(r[later], x)
    return ProductDist(dists), ReserveVector(r)
