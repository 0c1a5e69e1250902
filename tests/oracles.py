"""Reference implementations that the fast searches and evaluators are checked against."""

import itertools
import math

import numpy as np

from reservelab.mechanics import BidProfile, run_auction


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


def expected_revenue_product(dist, reserves, mechanism) -> float:
    """Expected revenue by enumerating profiles in lexicographic bidder/atom order
    through the scalar mechanics, summed by math.fsum."""
    ids = dist.bidder_ids()
    terms = []
    for combo in itertools.product(*(dist.bidders[b].atoms for b in ids)):
        prob = math.prod(p for _, p in combo)
        profile = BidProfile("x", {b: v for b, (v, _) in zip(ids, combo)})
        terms.append(prob * run_auction(profile, reserves, mechanism).payment)
    return math.fsum(terms)


def profile_arrays(dist):
    """A product law's support profiles as a (S, n) matrix in itertools.product order,
    one profile at a time, and each profile's probability by math.prod."""
    ids = dist.bidder_ids()
    combos = list(itertools.product(*(dist.bidders[b].atoms for b in ids)))
    values = np.array([[v for v, _ in combo] for combo in combos])
    probs = np.array([math.prod(p for _, p in combo) for combo in combos])
    return values, probs
