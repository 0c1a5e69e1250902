"""Finite-support product distributions and the trim-lift construction.

A ProductDist assigns each bidder an independent finite-support distribution.
expected_revenue_product evaluates an auction's expected revenue exactly by
enumerating the full profile space (at most _MAX_PROFILES profiles), always walking
profiles in the same deterministic order so two evaluations that agree
pointwise agree bit for bit.

trim_lift turns a lazy-reserve setup into an eager-equivalent one: processing
bidders from the highest reserve down, the mass of D_i below r_i is collapsed
to an atom at 0 ("trim"), and the reserves of the not-yet-processed bidders
are lifted to the best mass point that was removed. After the transformation,
no bidder who fails her own reserve can outbid a bidder who clears hers, so
lazy and eager coincide on every profile; the expected lazy revenue never
drops at any intermediate step.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .errors import SearchSpaceTooLarge
from .mechanics import BidProfile, Mechanism, ReserveVector, run_auction
from .optimize import argmax_over_grid
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
        kept = [(v, p) for v, p in self.atoms if v >= reserve]
        if below <= 0:
            return self
        merged = {0.0: below}
        for v, p in kept:
            merged[v] = merged.get(v, 0.0) + p
        return FiniteDist(tuple(merged.items()))


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
        size = 1
        for d in self.bidders.values():
            size *= len(d.atoms)
        return size


_MAX_PROFILES = 1_000_000  # largest profile space expected_revenue_product enumerates
_MAX_PRODUCT_SIZE = 1_000_000  # most candidate vectors optimal_reserves_product searches


def expected_revenue_product(dist: ProductDist, reserves: ReserveVector,
                             mechanism: Mechanism) -> float:
    """Exact expected revenue by full profile enumeration.

    Profiles are enumerated in lexicographic bidder/atom order and payments
    come from the scalar mechanics, so the result is a deterministic sum.
    """
    if dist.support_size() > _MAX_PROFILES:
        raise SearchSpaceTooLarge(
            f"{dist.support_size()} profiles exceed max_profiles={_MAX_PROFILES}")
    ids = dist.bidder_ids()
    terms = []
    for combo in itertools.product(*(dist.bidders[b].atoms for b in ids)):
        prob = math.prod(p for _, p in combo)
        profile = BidProfile("x", {b: v for b, (v, _) in zip(ids, combo)})
        terms.append(prob * run_auction(profile, reserves, mechanism).payment)
    return math.fsum(terms)


def _profile_arrays(dist: ProductDist):
    """All support profiles as a (S, n) matrix plus their probabilities."""
    ids = dist.bidder_ids()
    combos = list(itertools.product(*(dist.bidders[b].atoms for b in ids)))
    values = np.array([[v for v, _ in combo] for combo in combos])
    probs = np.array([math.prod(p for _, p in combo) for combo in combos])
    return values, probs


def optimal_reserves_product(dist: ProductDist,
                             mechanism: Mechanism) -> tuple[ReserveVector, float]:
    """Exact optimal reserves for a finite-support product distribution.

    Searches the product of per-bidder candidate grids ({0} plus the union of
    all atom values; the objective is piecewise linear in each reserve with
    breakpoints only at atoms, so the grid contains an exact optimum). Ties
    break toward the lexicographically smallest vector. The returned revenue
    comes from expected_revenue_product at the argmax. A grid of more than
    _MAX_PRODUCT_SIZE vectors is refused (SearchSpaceTooLarge) before any
    profile is enumerated; each bidder's atoms are candidates, so the same
    bound caps the support size.
    """
    ids = dist.bidder_ids()
    n = len(ids)
    cands = sorted({0.0} | {v for d in dist.bidders.values() for v in d.values()})
    if len(cands) ** n > _MAX_PRODUCT_SIZE:
        raise SearchSpaceTooLarge(f"{len(cands)}^{n} = {len(cands) ** n} candidate vectors "
                                  f"exceed max_product_size={_MAX_PRODUCT_SIZE}")
    values, probs = _profile_arrays(dist)

    best_vec = argmax_over_grid(
        cands, n, lambda R: payments(values, R[:, None, :], mechanism) @ probs,
        max(1, 200_000 // len(probs)))
    reserves = ReserveVector(dict(zip(ids, (float(x) for x in best_vec))))
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
        below = [v for v in dists[bidder].values() if v < reserve]
        if below:
            current = ReserveVector(dict(r))
            best_x, best_rev = None, -math.inf
            for v in below:  # ascending; strict > keeps the smallest on ties
                point = ProductDist({**dists, bidder: FiniteDist(((v, 1.0),))})
                rev = expected_revenue_product(point, current, Mechanism.LAZY)
                if rev > best_rev:
                    best_x, best_rev = v, rev
            x = best_x
        else:
            x = 0.0
        dists[bidder] = dists[bidder].trimmed(reserve)
        for later in order[pos + 1:]:
            r[later] = max(r[later], x)
    return ProductDist(dists), ReserveVector(r)
