"""The numpy kernels must agree with the scalar mechanics everywhere."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reservelab.logs import BidLog
from reservelab.mechanics import BidProfile, Mechanism, ReserveVector, run_auction
from reservelab.vectorized import (ABSENT, eager_payments, lazy_order, lazy_payments,
                                   nested_payments, payments, second_bid)


def random_log(rng, n_bidders=None, n_auctions=None, absent_prob=0.3):
    n = n_bidders or int(rng.integers(1, 6))
    T = n_auctions or int(rng.integers(1, 40))
    ids = [f"b{i}" for i in range(n)]
    profiles = []
    for t in range(T):
        bids = {}
        for b in ids:
            if rng.random() < absent_prob and len(bids) < n - 1:
                continue
            bids[b] = float(rng.choice([0.0, 1.0, 2.0, 3.0, round(rng.uniform(0, 5), 2)]))
        if not bids:
            bids[ids[0]] = 1.0
        profiles.append(BidProfile(f"a{t}", bids))
    return BidLog(profiles)


def scalar_payments(log, reserve_rows, mechanism):
    out = []
    for t, p in enumerate(log.profiles):
        rv = ReserveVector({b: float(reserve_rows[t][j])
                            for j, b in enumerate(log.bidder_ids) if b in p.bids})
        out.append(run_auction(p, rv, mechanism).payment)
    return np.array(out)


def test_kernels_match_scalar_reference():
    rng = np.random.default_rng(21)
    for _ in range(60):
        log = random_log(rng)
        bids = log.to_matrix()
        T, n = bids.shape
        shared = rng.choice([0.0, 0.5, 1.0, 2.0, 3.5], size=n)
        per_auction = rng.choice([0.0, 0.5, 1.0, 2.0, 3.5], size=(T, n))
        # a batch of reserve rows, some excluding bidders with +inf
        batch = rng.choice([0.0, 1.0, 2.0, 3.0, math.inf], size=(4, n))
        for mech in Mechanism:
            got = payments(bids, shared, mech)
            want = scalar_payments(log, np.tile(shared, (T, 1)), mech)
            assert np.array_equal(got, want)
            got2 = payments(bids, per_auction, mech)
            want2 = scalar_payments(log, per_auction, mech)
            assert np.array_equal(got2, want2)
            got3 = payments(bids, batch[:, None, :], mech)
            got4 = payments(bids, np.repeat(batch[:, None, :], T, axis=1), mech)
            assert got3.shape == got4.shape == (len(batch), T)
            for b, row in enumerate(batch):
                want3 = scalar_payments(log, np.tile(row, (T, 1)), mech)
                assert np.array_equal(got3[b], payments(bids, row, mech))
                assert np.array_equal(got3[b], want3)
                assert np.array_equal(got4[b], want3)


def test_welfare_matches_scalar():
    rng = np.random.default_rng(22)
    for _ in range(30):
        log = random_log(rng)
        bids = log.to_matrix()
        n = bids.shape[1]
        res = rng.choice([0.0, 1.0, 2.5], size=n)
        for mech, kernel in ((Mechanism.LAZY, lazy_payments), (Mechanism.EAGER, eager_payments)):
            pay, wel = kernel(bids, res, return_welfare=True)
            for t, p in enumerate(log.profiles):
                rv = ReserveVector({b: float(res[j]) for j, b in enumerate(log.bidder_ids)
                                    if b in p.bids})
                out = run_auction(p, rv, mech)
                assert pay[t] == out.payment and wel[t] == out.welfare


def test_absent_bidders_never_win():
    # one present bidder per row; the rest are -inf
    bids = np.array([[2.0, ABSENT], [ABSENT, 3.0]])
    pay = eager_payments(bids, np.array([1.0, 1.0]))
    assert pay.tolist() == [1.0, 1.0]  # sole survivors pay their reserves
    pay = lazy_payments(bids, np.array([5.0, 5.0]))
    assert pay.tolist() == [0.0, 0.0]  # both miss their reserves


def test_list_reserves_accepted():
    bids = np.array([[4.0, 2.0]])
    assert lazy_payments(bids, [3.0, 0.0]).tolist() == [3.0]
    assert eager_payments(bids, [3.0, 0.0]).tolist() == [3.0]


def test_infinite_reserve_column():
    bids = np.array([[7.0, 5.0, 3.0]])
    res = np.array([math.inf, 1.0, 2.0])
    assert lazy_payments(bids, res).tolist() == [0.0]
    assert eager_payments(bids, res).tolist() == [3.0]


def test_lazy_order():
    bids = np.array([[3.0, 5.0, 5.0], [2.0, ABSENT, ABSENT], [ABSENT, 1.0, 4.0]])
    winner, top, second = lazy_order(bids)
    assert winner.tolist() == [1, 0, 2]  # ties to the smallest column
    assert top.tolist() == [5.0, 2.0, 4.0]
    assert second.tolist() == [5.0, 0.0, 1.0]  # a single participant's second is 0
    assert bids[0, 1] == 5.0  # the input is left alone
    with pytest.raises(ValueError, match="^no bidders$"):
        lazy_order(np.empty((3, 0)))


def test_nested_payments_by_hand():
    # bids 4, 5, 5, 2; reserves 4, 6, 4.5, 0; column k joins the treated set at k + 1
    bids = np.array([[4.0, 5.0, 5.0, 2.0]])
    reserves = np.array([4.0, 6.0, 4.5, 0.0])
    # eager, k = 0 and 1: columns 1 and 2 tie at 5 (column 0 clears its 4); k = 2: column 1
    # misses its 6, so column 2 wins at the second bid 4; k = 3 and 4: column 2 now holds
    # 4.5 and pays it
    eager = nested_payments(bids, reserves, Mechanism.EAGER)
    lazy = nested_payments(bids, reserves, Mechanism.LAZY)
    assert eager.tolist() == [[5.0, 5.0, 4.0, 4.5, 4.5]]
    # the tie goes to column 1, which misses its 6 once treated (k >= 2)
    assert lazy.tolist() == [[5.0, 5.0, 0.0, 0.0, 0.0]]
    for k in range(5):
        row = np.where(np.arange(4) < k, reserves, 0.0)
        assert eager_payments(bids, row).tolist() == [eager[0, k]]
        assert lazy_payments(bids, row).tolist() == [lazy[0, k]]


_LEVELS = [0.0, 0.5, 1.0, 2.0, 3.0]  # few levels, so bids tie with each other and with reserves


@st.composite
def nested_cases(draw):
    """A (T, n) bid matrix of few levels, so bids tie with each other and with reserves,
    with absent bids, T = 0 allowed and a row nobody joins forced in when T allows; and
    one (n,) reserve row of those levels and +inf."""
    n = draw(st.integers(1, 6))
    T = draw(st.integers(0, 12))
    bids = np.array(draw(st.lists(st.sampled_from(_LEVELS + [ABSENT]),
                                  min_size=T * n, max_size=T * n))).reshape(T, n)
    if T >= 1:
        bids[draw(st.integers(0, T - 1))] = ABSENT
    reserves = np.array(draw(st.lists(st.sampled_from(_LEVELS + [math.inf]),
                                      min_size=n, max_size=n)))
    return bids, reserves


@settings(max_examples=300, deadline=None)
@given(nested_cases())
def test_nested_payments_equal_one_kernel_call_per_k_property(case):
    """Column k of nested_payments is payments() with the columns < k at their reserves
    and the rest at 0, bit for bit, under both rules: for the drawn reserves, all 0 and
    all +inf."""
    bids, drawn = case
    T, n = bids.shape
    for reserves in (drawn, np.zeros(n), np.full(n, math.inf)):
        for mechanism in Mechanism:
            got = nested_payments(bids, reserves, mechanism)
            assert got.shape == (T, n + 1)
            for k in range(n + 1):
                row = np.where(np.arange(n) < k, reserves, 0.0)
                assert got[:, k].tobytes() == payments(bids, row, mechanism).tobytes()


@st.composite
def second_bid_cases(draw):
    """A (T, n) bid matrix of few levels, so bids tie, with absent bids: rows of one
    participant and rows nobody joins are forced in when T allows."""
    n = draw(st.integers(1, 12))
    T = draw(st.integers(0, 50))
    bids = np.array(draw(st.lists(st.sampled_from(_LEVELS + [ABSENT]),
                                  min_size=T * n, max_size=T * n))).reshape(T, n)
    if T >= 2:
        bids[0] = ABSENT
        bids[1] = ABSENT
        bids[1, draw(st.integers(0, n - 1))] = draw(st.sampled_from(_LEVELS))
    return bids


def _assert_second_bid_is_lazy_orders(bids):
    kept = bids.copy()
    got = second_bid(bids)
    assert got.dtype == np.float64 and got.shape == bids.shape[:1]
    assert got.tobytes() == lazy_order(bids)[2].tobytes()
    assert np.array_equal(bids, kept)  # the input is left alone


@settings(max_examples=300, deadline=None)
@given(second_bid_cases())
def test_second_bid_is_lazy_orders_second_bid_property(bids):
    _assert_second_bid_is_lazy_orders(bids)
    _assert_second_bid_is_lazy_orders(np.asfortranarray(bids))  # columns already contiguous
    wide = np.column_stack([bids, np.full(len(bids), 4.0)])
    _assert_second_bid_is_lazy_orders(wide[:, :-1])  # a strided column slice


def test_second_bid_by_hand():
    bids = np.array([[3.0, 5.0, 5.0], [2.0, ABSENT, ABSENT], [ABSENT, 1.0, 4.0],
                     [ABSENT, ABSENT, ABSENT], [0.0, 0.0, ABSENT]])
    assert second_bid(bids).tolist() == [5.0, 0.0, 1.0, 0.0, 0.0]
    assert second_bid([[7.0]]).tolist() == [0.0]  # a lone bidder: 0
    with pytest.raises(ValueError, match="no bidders"):
        second_bid(np.zeros((3, 0)))


@st.composite
def kernel_cases(draw):
    """A small log with ties and absent bidders, and per-auction reserves with +inf."""
    n = draw(st.integers(1, 5))
    T = draw(st.integers(1, 12))
    bids = np.array(draw(st.lists(st.lists(st.sampled_from(_LEVELS + [ABSENT]),
                                           min_size=n, max_size=n), min_size=T, max_size=T)))
    bids[np.arange(T), draw(st.lists(st.integers(0, n - 1), min_size=T, max_size=T))] = 1.0
    reserves = np.array(draw(st.lists(st.sampled_from(_LEVELS + [math.inf]),
                                      min_size=T * n, max_size=T * n))).reshape(T, n)
    log = BidLog.from_matrix(bids, [f"b{j}" for j in range(n)])
    keep = [int(b[1:]) for b in log.bidder_ids]  # from_matrix drops all-absent columns
    return log, reserves[:, keep]


@settings(max_examples=150, deadline=None)
@given(kernel_cases())
def test_kernels_match_scalar_reference_property(case):
    log, reserves = case
    for mech in Mechanism:
        pay, wel = payments(log.to_matrix(), reserves, mech, return_welfare=True)
        for t, p in enumerate(log.profiles):
            rv = ReserveVector({b: float(reserves[t, j]) for j, b in enumerate(log.bidder_ids)})
            want = run_auction(p, rv, mech)
            assert (pay[t], wel[t]) == (want.payment, want.welfare)
