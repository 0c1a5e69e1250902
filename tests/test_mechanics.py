"""Exact scalar mechanics: worked examples, conventions, incentive properties."""

import math

import numpy as np
import pytest

from reservelab.mechanics import (BidProfile, Mechanism, ReserveVector, critical_bid,
                                  run_auction, run_eager, run_lazy)

THREE = BidProfile("t", {"A": 7.0, "B": 5.0, "C": 3.0})


def test_worked_example_first_reserves():
    r = ReserveVector({"A": 8.0, "B": 1.0, "C": 2.0})
    lazy = run_lazy(THREE, r)
    assert lazy.winner is None and lazy.payment == 0.0 and lazy.welfare == 0.0
    eager = run_eager(THREE, r)
    assert eager.winner == "B" and eager.payment == 3.0 and eager.welfare == 5.0


def test_worked_example_second_reserves():
    r = ReserveVector({"A": 2.0, "B": 6.0, "C": 1.0})
    lazy = run_lazy(THREE, r)
    assert lazy.winner == "A" and lazy.payment == 5.0
    eager = run_eager(THREE, r)
    assert eager.winner == "A" and eager.payment == 3.0 and eager.welfare == 7.0


def test_zero_reserves_plain_second_price():
    for mech in Mechanism:
        out = run_auction(THREE, ReserveVector.zero(), mech)
        assert out.winner == "A" and out.payment == 5.0 and out.welfare == 7.0


def test_tie_breaks_to_smallest_id():
    p = BidProfile("t", {"B": 5.0, "A": 5.0})
    for mech in Mechanism:
        out = run_auction(p, ReserveVector.zero(), mech)
        assert out.winner == "A" and out.payment == 5.0


def test_single_bidder_conventions():
    p = BidProfile("t", {"A": 4.0})
    assert run_lazy(p, ReserveVector.zero()).payment == 0.0  # second-highest is 0
    assert run_eager(p, ReserveVector({"A": 3.0})).payment == 3.0  # sole survivor pays reserve
    assert run_lazy(p, ReserveVector({"A": 3.0})).payment == 3.0


def test_reserve_met_weakly():
    p = BidProfile("t", {"A": 4.0, "B": 1.0})
    r = ReserveVector({"A": 4.0})
    assert run_lazy(p, r).winner == "A"
    assert run_eager(p, r).winner == "A"
    r2 = ReserveVector({"A": math.nextafter(4.0, math.inf)})
    assert run_lazy(p, r2).winner is None
    assert run_eager(p, r2).winner == "B"


def test_infinite_reserve_excludes_bidder():
    r = ReserveVector({"A": math.inf})
    assert run_eager(THREE, r).winner == "B"
    assert run_lazy(THREE, r).winner is None


def test_profile_validation():
    with pytest.raises(ValueError):
        BidProfile("t", {})
    with pytest.raises(ValueError):
        BidProfile("t", {"A": -1.0})
    with pytest.raises(ValueError):
        BidProfile("t", {"A": math.nan})
    with pytest.raises(ValueError):
        BidProfile("t", {"A": math.inf})


def test_reserve_validation():
    with pytest.raises(ValueError):
        ReserveVector({"A": -0.5})
    with pytest.raises(ValueError):
        ReserveVector({"A": math.nan})
    assert ReserveVector({"A": math.inf}).get("A") == math.inf
    assert ReserveVector.zero().get("anyone") == 0.0


def test_reserve_row_is_in_the_given_bidder_order():
    row = ReserveVector({"B": 2, "A": math.inf}).row(["C", "A", "B"])
    assert row.dtype == float and row.tolist() == [0.0, math.inf, 2.0]


def test_critical_bid_fixtures():
    r = ReserveVector({"A": 8.0, "B": 1.0, "C": 2.0})
    assert critical_bid(THREE, r, "A", Mechanism.LAZY) == 8.0
    assert critical_bid(THREE, ReserveVector.zero(), "B", Mechanism.EAGER) == 7.0
    assert critical_bid(THREE, r, "B", Mechanism.EAGER) == 3.0  # A is eliminated


def test_critical_bid_edge_cases():
    with pytest.raises(ValueError):
        critical_bid(THREE, ReserveVector.zero(), "Z", Mechanism.LAZY)
    assert critical_bid(THREE, ReserveVector({"B": math.inf}), "B", Mechanism.LAZY) is None
    solo = BidProfile("t", {"A": 2.0})
    assert critical_bid(solo, ReserveVector({"A": 1.5}), "A", Mechanism.EAGER) == 1.5


def random_instance(rng):
    """Random profile and reserves mixing discrete and continuous values."""
    n = int(rng.integers(1, 6))
    ids = [f"b{i}" for i in range(n)]
    bids = {}
    for b in ids:
        if rng.random() < 0.5:
            bids[b] = float(rng.integers(0, 6))
        else:
            bids[b] = float(np.round(rng.uniform(0, 6), 3))
    reserves = {}
    for b in ids:
        u = rng.random()
        if u < 0.3:
            reserves[b] = 0.0
        elif u < 0.6:
            reserves[b] = float(rng.integers(0, 7))
        elif u < 0.95:
            reserves[b] = float(np.round(rng.uniform(0, 7), 3))
        else:
            reserves[b] = math.inf
    return BidProfile("t", bids), ReserveVector(reserves)


def test_payment_is_winner_critical_bid():
    rng = np.random.default_rng(11)
    for _ in range(500):
        p, r = random_instance(rng)
        for mech in Mechanism:
            out = run_auction(p, r, mech)
            if out.winner is not None:
                assert out.payment == critical_bid(p, r, out.winner, mech)


def test_equal_reserves_mechanisms_coincide():
    rng = np.random.default_rng(12)
    for _ in range(500):
        p, _ = random_instance(rng)
        level = float(rng.choice([0.0, 1.0, 2.5, 4.0]))
        r = ReserveVector({b: level for b in p.bids})
        lazy, eager = run_lazy(p, r), run_eager(p, r)
        assert (lazy.winner, lazy.payment, lazy.welfare) == (eager.winner, eager.payment, eager.welfare)


def test_welfare_dominance_eager_over_lazy():
    rng = np.random.default_rng(13)
    for _ in range(500):
        p, r = random_instance(rng)
        assert run_eager(p, r).welfare >= run_lazy(p, r).welfare


def test_individual_rationality():
    rng = np.random.default_rng(14)
    for _ in range(500):
        p, r = random_instance(rng)
        for mech in Mechanism:
            out = run_auction(p, r, mech)
            assert out.payment <= out.welfare
            if out.winner is None:
                assert out.payment == 0.0 and out.welfare == 0.0
            else:
                assert out.welfare == p.bids[out.winner]


def _with_bid(p, bidder, value):
    bids = dict(p.bids)
    bids[bidder] = value
    return BidProfile(p.auction_id, bids)


def test_incentive_compatibility_random():
    rng = np.random.default_rng(15)
    for _ in range(500):
        p, r = random_instance(rng)
        for mech in Mechanism:
            out = run_auction(p, r, mech)
            if out.winner is None:
                continue
            j, pay = out.winner, out.payment
            up = run_auction(_with_bid(p, j, pay + 0.25), r, mech)
            assert up.winner == j and up.payment == pay
            if pay > 0:
                down = run_auction(_with_bid(p, j, pay * 0.75), r, mech)
                assert down.winner != j
