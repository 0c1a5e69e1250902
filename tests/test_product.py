"""Finite product distributions, exact revenue enumeration, and trim_lift."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from oracles import argmax_over_grid
from reservelab import product
from reservelab.errors import SearchSpaceTooLarge
from reservelab.mechanics import Mechanism, ReserveVector
from reservelab.optimize import exact_eager_search, exact_lazy_search, own_candidates
from reservelab.product import (FiniteDist, ProductDist, expected_revenue_product,
                                optimal_reserves_product, trim_lift)
from reservelab.vectorized import ABSENT, payments

D1 = FiniteDist(((1.0, 0.5), (3.0, 0.5)))
D2 = FiniteDist(((2.0, 1.0),))
PAIR = ProductDist({"b1": D1, "b2": D2})


def test_finite_dist_validation():
    with pytest.raises(ValueError):
        FiniteDist(())
    with pytest.raises(ValueError):
        FiniteDist(((1.0, 0.5), (1.0, 0.5)))
    with pytest.raises(ValueError):
        FiniteDist(((-1.0, 1.0),))
    with pytest.raises(ValueError):
        FiniteDist(((math.inf, 1.0),))
    with pytest.raises(ValueError):
        FiniteDist(((1.0, 0.0), (2.0, 1.0)))
    with pytest.raises(ValueError):
        FiniteDist(((1.0, 0.3), (2.0, 0.3)))


def test_finite_dist_sorts_atoms():
    d = FiniteDist(((3.0, 0.25), (1.0, 0.75)))
    assert d.atoms == ((1.0, 0.75), (3.0, 0.25))
    assert d.values() == (1.0, 3.0)


def test_trimmed_collapses_low_mass():
    assert D1.trimmed(3.0).atoms == ((0.0, 0.5), (3.0, 0.5))
    # nothing below the cut: same object back
    assert D1.trimmed(1.0) is D1
    assert D1.trimmed(0.5) is D1


def test_trimmed_merges_zero_atom():
    d = FiniteDist(((0.0, 0.2), (1.0, 0.3), (4.0, 0.5)))
    t = d.trimmed(2.0)
    assert t.atoms == ((0.0, 0.5), (4.0, 0.5))


def test_product_dist_validation():
    with pytest.raises(ValueError):
        ProductDist({})
    p = ProductDist({"z": D2, "a": D1})
    assert p.bidder_ids() == ("a", "z")
    assert p.support_size() == 2


def test_expected_revenue_worked_example():
    r = ReserveVector({"b1": 3.0, "b2": 0.0})
    assert expected_revenue_product(PAIR, r, Mechanism.LAZY) == 2.0
    trimmed = ProductDist({"b1": D1.trimmed(3.0), "b2": D2})
    r2 = ReserveVector({"b1": 3.0, "b2": 1.0})
    assert expected_revenue_product(trimmed, r2, Mechanism.EAGER) == 2.0


def test_expected_revenue_zero_reserves_is_mean_second():
    zero = ReserveVector({})
    for mech in Mechanism:
        assert expected_revenue_product(PAIR, zero, mech) == 1.5


def test_expected_revenue_refuses_large_support():
    eight = FiniteDist(tuple((float(v), 0.125) for v in range(8)))
    wide = ProductDist({f"b{i}": eight for i in range(7)})  # 8^7 > 10^6 profiles
    with pytest.raises(SearchSpaceTooLarge):
        expected_revenue_product(wide, ReserveVector({}), Mechanism.LAZY)


def test_optimal_reserves_single_bidder():
    d = ProductDist({"solo": FiniteDist(((2.0, 0.5), (5.0, 0.5)))})
    for mech in Mechanism:
        reserves, rev = optimal_reserves_product(d, mech)
        assert reserves.get("solo") == 5.0
        assert rev == 2.5


def test_optimal_reserves_tie_prefers_lex_smallest():
    point = FiniteDist(((1.0, 1.0),))
    d = ProductDist({"a": point, "b": point})
    for mech in Mechanism:
        reserves, rev = optimal_reserves_product(d, mech)
        assert rev == 1.0
        assert (reserves.get("a"), reserves.get("b")) == (0.0, 0.0)


def test_optimal_reserves_refuses_large_grid(monkeypatch):
    # 13 two-atom bidders, each with {0} and its atoms: 3^13 candidate vectors exceed
    # the bound, 2^13 profiles do not
    wide = ProductDist({f"b{i:02d}": D1 for i in range(13)})

    def enumerate_profiles(dist):
        raise AssertionError("profiles enumerated before the size check")

    monkeypatch.setattr(product, "_profile_arrays", enumerate_profiles)
    want = " x ".join(["3"] * 13) + " = 1594323 candidate vectors exceed max_product_size=1000000"
    for mech in Mechanism:
        with pytest.raises(SearchSpaceTooLarge, match=f"^{want}$"):
            optimal_reserves_product(wide, mech)


def random_product(rng, max_bidders=3, max_atoms=4):
    n = int(rng.integers(1, max_bidders + 1))
    bidders = {}
    for i in range(n):
        m = int(rng.integers(1, max_atoms + 1))
        values = rng.choice(np.arange(0.0, 8.0, 0.5), size=m, replace=False)
        weights = rng.integers(1, 6, size=m)
        total = int(weights.sum())
        atoms = tuple((float(v), int(w) / total) for v, w in zip(values, weights))
        bidders[f"b{i}"] = FiniteDist(atoms)
    return ProductDist(bidders)


def test_profile_arrays_equal_the_enumeration():
    rng = np.random.default_rng(13)
    for _ in range(300):
        dist = random_product(rng, max_bidders=5, max_atoms=5)
        for got, want in zip(product._profile_arrays(dist), oracles.profile_arrays(dist)):
            assert got.dtype == want.dtype and np.array_equal(got, want)


def random_reserves(rng, dist):
    r = {}
    for b, d in dist.bidders.items():
        hi = max(d.values())
        r[b] = float(rng.choice([0.0, hi / 2, hi, hi + 1.0]))
    return ReserveVector(r)


def test_eager_optimum_dominates_lazy_optimum():
    rng = np.random.default_rng(7)
    for _ in range(40):
        dist = random_product(rng)
        _, rev_l = optimal_reserves_product(dist, Mechanism.LAZY)
        _, rev_e = optimal_reserves_product(dist, Mechanism.EAGER)
        assert rev_e >= rev_l - 1e-9


def weighted_optima(bids, weights):
    """OPT_L and OPT_E of a weighted log, from exact_lazy_search and exact_eager_search
    over each bidder's own bids, each revenue an fsum of weighted payments."""
    def revenue(reserves, mechanism):
        return math.fsum((weights * payments(bids, reserves, mechanism)).tolist())
    return (revenue(exact_lazy_search(bids, weights), Mechanism.LAZY),
            revenue(exact_eager_search(bids, own_candidates(bids.T), weights), Mechanism.EAGER))


@st.composite
def symmetric_rows(draw):
    """One or two rows of n = 2..4 bids on three levels or absent, each with a bid."""
    n = draw(st.integers(2, 4))
    row = st.lists(st.sampled_from([0.0, 1.0, 2.0, ABSENT]), min_size=n, max_size=n)
    return draw(st.lists(row.filter(lambda r: max(r) > ABSENT), min_size=1, max_size=2))


@settings(max_examples=100, deadline=None)
@given(symmetric_rows())
def test_eager_optimum_dominates_lazy_optimum_for_symmetric_bidders(rows):
    """The paper's other dominance case: for symmetric bidders (every row under every
    column order) with symmetric tie-breaking (each tie order equally often, as bids
    offset by delta per rank), OPT_E >= OPT_L. The offsets move each revenue by under
    n * delta."""
    delta = 1e-6
    bids, weights = oracles.symmetrized_weighted_log(rows, delta)
    lazy, eager = weighted_optima(bids, weights)
    assert eager >= lazy - len(rows[0]) * delta


def test_symmetry_without_a_tie_split_lets_lazy_win():
    # every column order of (2, 3) and (1, 1), but (1, 1) always goes to the first
    # column: lazy reserves (1, 3) earn (2 + 3 + 2 * 1) / 4, eager at best 1.5
    bids, weights = oracles.symmetrized_weighted_log([(2.0, 3.0), (1.0, 1.0)], 0.0)
    assert weights.tolist() == [0.25, 0.25, 0.5]
    assert weighted_optima(bids, weights) == (1.75, 1.5)


def test_optimum_beats_midpoint_perturbations():
    # the atom grid is lossless: nudging any coordinate off-grid cannot help
    rng = np.random.default_rng(11)
    for _ in range(10):
        dist = random_product(rng)
        for mech in Mechanism:
            reserves, rev = optimal_reserves_product(dist, mech)
            cands = sorted({0.0} | {v for d in dist.bidders.values()
                                    for v in d.values()})
            for b in dist.bidder_ids():
                base = dict((k, reserves.get(k)) for k in dist.bidder_ids())
                for lo, hi in zip(cands, cands[1:]):
                    base[b] = (lo + hi) / 2
                    perturbed = expected_revenue_product(
                        dist, ReserveVector(base), mech)
                    assert perturbed <= rev + 1e-12


def test_trim_lift_worked_example():
    r = ReserveVector({"b1": 3.0, "b2": 0.0})
    out_dist, out_r = trim_lift(PAIR, r)
    assert out_dist.bidders["b1"].atoms == ((0.0, 0.5), (3.0, 0.5))
    assert out_dist.bidders["b2"].atoms == D2.atoms
    assert out_r.get("b1") == 3.0
    assert out_r.get("b2") == 1.0
    rev = expected_revenue_product(out_dist, out_r, Mechanism.LAZY)
    assert rev == 2.0


def test_trim_lift_zero_reserves_noop():
    zero = ReserveVector({b: 0.0 for b in PAIR.bidder_ids()})
    out_dist, out_r = trim_lift(PAIR, zero)
    assert out_dist.bidders == PAIR.bidders
    assert all(out_r.get(b) == 0.0 for b in PAIR.bidder_ids())


def test_trim_lift_chain_random():
    # the two inequality links compare different enumerations, so a real-
    # arithmetic tie may round one ulp apart; allow that much and no more
    def leq(a, b):
        return a <= b + 1e-12 * max(1.0, abs(a))

    rng = np.random.default_rng(23)
    for _ in range(60):
        dist = random_product(rng)
        r = random_reserves(rng, dist)
        out_dist, out_r = trim_lift(dist, r)
        rev_l_before = expected_revenue_product(dist, r, Mechanism.LAZY)
        rev_l_after = expected_revenue_product(out_dist, out_r, Mechanism.LAZY)
        rev_e_after = expected_revenue_product(out_dist, out_r, Mechanism.EAGER)
        rev_e_lifted = expected_revenue_product(dist, out_r, Mechanism.EAGER)
        assert leq(rev_l_before, rev_l_after)
        assert rev_l_after == rev_e_after
        assert leq(rev_e_after, rev_e_lifted)


def test_expected_revenue_equals_scalar_enumeration():
    rng = np.random.default_rng(29)
    for _ in range(60):
        dist = random_product(rng, max_bidders=4)
        top = max(v for d in dist.bidders.values() for v in d.values())
        vectors = [random_reserves(rng, dist),
                   ReserveVector({b: float(rng.uniform(0.0, 8.0)) for b in dist.bidder_ids()}),
                   ReserveVector({b: top + 0.5 for b in dist.bidder_ids()})]
        for reserves in vectors:
            for mech in Mechanism:
                assert (expected_revenue_product(dist, reserves, mech)
                        == oracles.expected_revenue_product(dist, reserves, mech))


_POOL = [0.0, 1.0, 2.0, 3.0, 5.0]  # few values, so atoms are shared between bidders


@st.composite
def product_laws(draw):
    """One to four bidders on shared atoms, sometimes plus a bidder "z" who never wins:
    its only atom is 0 and it sorts last, so it loses every tie."""
    bidders = {}
    for i in range(draw(st.integers(1, 4))):
        values = draw(st.lists(st.sampled_from(_POOL), min_size=1, max_size=3, unique=True))
        weights = draw(st.lists(st.integers(1, 4), min_size=len(values), max_size=len(values)))
        bidders[f"b{i}"] = FiniteDist(tuple((v, w / sum(weights))
                                            for v, w in zip(values, weights)))
    if draw(st.booleans()):
        bidders["z"] = FiniteDist(((0.0, 1.0),))
    return ProductDist(bidders)


def _ordered_totals(values, probs, mech):
    """Each reserve row's payments times probabilities, summed in profile order."""
    return lambda R: np.add.accumulate(payments(values, R[:, None, :], mech) * probs,
                                       axis=1)[:, -1]


@settings(max_examples=150, deadline=None)
@example(ProductDist({"b0": FiniteDist(((0.0, 1 / 3), (1.0, 1 / 3), (2.0, 1 / 3))),
                      "b1": FiniteDist(((0.0, 2 / 3), (1.0, 1 / 3)))}))
@given(product_laws())
def test_search_returns_the_grid_vector(dist):
    """Eager: the first grid vector with the highest ordered total over all profiles.
    Lazy: per bidder, the first grid value with the highest ordered total over the
    profiles she wins at zero reserves (the example: (1, 1) and (2, 1) both earn 7/9,
    and the whole-law sum ranks (2, 1) one ulp higher)."""
    ids = dist.bidder_ids()
    values, probs = product._profile_arrays(dist)
    cands = oracles.global_candidates(values).tolist()
    winner = np.argmax(values, axis=1)  # first max: ties go to the smaller column
    lazy = []
    for i in range(len(ids)):
        mine = winner == i
        totals = _ordered_totals(values[mine], probs[mine], Mechanism.LAZY)

        def score(r, i=i, totals=totals):  # bidder i at r, everyone else at 0
            R = np.zeros((len(r), len(ids)))
            R[:, i] = r[:, 0]
            return totals(R)
        lazy.append(argmax_over_grid(cands, 1, score, 1 << 12)[0] if mine.any() else 0.0)
    want = {Mechanism.LAZY: lazy,
            Mechanism.EAGER: argmax_over_grid(cands, len(ids), _ordered_totals(
                values, probs, Mechanism.EAGER), 1 << 12).tolist()}
    for mech in Mechanism:
        reserves, rev = optimal_reserves_product(dist, mech)
        assert [reserves.get(b) for b in ids] == want[mech]
        assert rev == expected_revenue_product(dist, reserves, mech)
