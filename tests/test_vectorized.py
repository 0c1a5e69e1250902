"""The numpy kernels must agree with the scalar mechanics everywhere."""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from reservelab.logs import BidLog
from reservelab.mechanics import BidProfile, Mechanism, ReserveVector, run_auction
from reservelab.vectorized import (ABSENT, eager_payments, lazy_order, lazy_payments, lazy_select,
                                   nested_payments, payments)


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


def test_lazy_select_reuses_one_order():
    bids = np.array([[3.0, 5.0, 5.0], [2.0, ABSENT, ABSENT], [ABSENT, 1.0, 4.0]])
    order = lazy_order(bids)
    for row in ([0.0, 0.0, 0.0], [1.0, 5.5, 4.0], [math.inf, 2.0, 3.5]):
        assert lazy_select(order, row).tolist() == lazy_payments(bids, row).tolist()


_LEVELS = [0.0, 0.5, 1.0, 2.0, 3.0]  # few levels, so bids tie with each other and with reserves


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
