"""Reserve optimizers: fixtures, oracle equivalence, hardness identities."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reservelab.errors import SearchSpaceTooLarge
from reservelab.generators import gen_hardness_instance, independent_set_number
from reservelab.logs import BidLog
from reservelab.mechanics import BidProfile, Mechanism, ReserveVector, run_eager
from reservelab.optimize import (_eager_line_totals, _eager_totals_for_rows,
                                 _global_candidates, _result,
                                 eager_coordinate_ascent, empirical_revenue,
                                 monopoly_reserves, optimal_eager_exact, optimal_lazy,
                                 optimal_lazy_bruteforce)
from reservelab.vectorized import ABSENT, payments


def log_of(rows):
    """rows: list of dicts bidder -> bid."""
    return BidLog([BidProfile(f"a{i}", bids) for i, bids in enumerate(rows)])


def total_revenue(log, reserves, mechanism):
    pay = payments(log.to_matrix(), [reserves.get(b) for b in log.bidder_ids], mechanism)
    return math.fsum(pay.tolist())


def single_bidder_log(values):
    return log_of([{"A": float(v)} for v in values])


def random_log(rng, max_bidders=6, max_auctions=200, value_pool=None):
    n = int(rng.integers(1, max_bidders + 1))
    T = int(rng.integers(1, max_auctions + 1))
    ids = [f"b{i}" for i in range(n)]
    if value_pool is None:
        discrete = rng.integers(0, 8, size=(T, n)).astype(float)
        continuous = np.round(rng.uniform(0, 8, size=(T, n)), 2)
        pick = rng.random((T, n)) < 0.5
        values = np.where(pick, discrete, continuous)
    else:
        values = rng.choice(value_pool, size=(T, n))
    profiles = []
    for t in range(T):
        present = rng.random(n) < 0.8
        if not present.any():
            present[int(rng.integers(0, n))] = True
        profiles.append(BidProfile(f"a{t}", {ids[j]: float(values[t, j])
                                             for j in range(n) if present[j]}))
    return BidLog(profiles)


def test_lazy_scan_fixture():
    log = log_of([{"b1": 10.0, "b2": 4.0}, {"b1": 6.0, "b2": 4.0}, {"b1": 3.0, "b2": 2.0}])
    res = optimal_lazy(log)
    assert res.reserves.get("b1") == 6.0 and res.reserves.get("b2") == 0.0
    assert res.expected_revenue == 4.0  # 12 over 3 auctions


def test_lazy_single_auction_fixture():
    res = optimal_lazy(log_of([{"A": 7.0, "B": 5.0}]))
    assert res.reserves.get("A") == 7.0
    assert res.expected_revenue == 7.0


def test_lazy_never_winning_bidder_keeps_zero():
    log = log_of([{"A": 9.0, "B": 1.0}])
    res = optimal_lazy(log)
    assert res.reserves.get("B") == 0.0


def test_lazy_ties_prefer_smallest_reserve():
    # r=0 and r=4 both give revenue 4; the scan must keep 0
    log = log_of([{"A": 4.0, "B": 4.0}])
    res = optimal_lazy(log)
    assert res.reserves.get("A") == 0.0
    bf = optimal_lazy_bruteforce(log)
    assert bf.reserves.get("A") == 0.0


def test_scan_equals_bruteforce_random():
    # revenues must agree exactly; the chosen reserves may differ only on
    # genuine ties, where both picks re-evaluate to the same revenue
    rng = np.random.default_rng(41)
    for _ in range(80):
        log = random_log(rng, max_auctions=60)
        a = optimal_lazy(log)
        b = optimal_lazy_bruteforce(log)
        assert a.expected_revenue == b.expected_revenue
        if a.reserves != b.reserves:
            assert empirical_revenue(log, b.reserves, Mechanism.LAZY) == a.expected_revenue


def test_lazy_beats_zero_reserves():
    rng = np.random.default_rng(42)
    for _ in range(40):
        log = random_log(rng, max_auctions=60)
        res = optimal_lazy(log)
        assert res.expected_revenue >= empirical_revenue(log, ReserveVector.zero(),
                                                         Mechanism.LAZY)


def test_candidate_sufficiency():
    # moving an optimal reserve off the candidate grid never helps
    rng = np.random.default_rng(43)
    for _ in range(20):
        log = random_log(rng, max_bidders=4, max_auctions=30)
        res = optimal_lazy(log)
        for bidder in log.bidder_ids:
            r0 = res.reserves.get(bidder)
            for shift in (0.0071, 0.4, 1.9):
                tweaked = dict(res.reserves.reserves)
                tweaked[bidder] = r0 + shift
                rev = empirical_revenue(log, ReserveVector(tweaked), Mechanism.LAZY)
                assert rev <= res.expected_revenue


def test_monopoly_fixtures():
    assert monopoly_reserves(single_bidder_log([1, 1, 1, 5])).reserves.get("A") == 5.0
    assert monopoly_reserves(single_bidder_log([2, 3])).reserves.get("A") == 2.0
    assert monopoly_reserves(single_bidder_log([1, 2, 4])).reserves.get("A") == 2.0


def test_monopoly_tie_prefers_smallest():
    # r=1 and r=2 both give 2
    assert monopoly_reserves(single_bidder_log([1, 2])).reserves.get("A") == 1.0


def test_monopoly_reports_revenue_under_mechanism():
    log = log_of([{"A": 4.0, "B": 3.0}, {"A": 2.0, "B": 1.0}])
    for mech in Mechanism:
        res = monopoly_reserves(log, mech)
        assert res.expected_revenue == empirical_revenue(log, res.reserves, mech)


def test_eager_exact_triangle():
    log = gen_hardness_instance([0, 1, 2], [(0, 1), (1, 2), (0, 2)], 2.0, 3.0)
    res = optimal_eager_exact(log)
    assert total_revenue(log, res.reserves, Mechanism.EAGER) == 13.0  # 2*(3+3) + alpha(K3)


def test_eager_exact_path():
    log = gen_hardness_instance([0, 1, 2], [(0, 1), (1, 2)], 2.0, 3.0)
    res = optimal_eager_exact(log)
    assert total_revenue(log, res.reserves, Mechanism.EAGER) == 12.0  # 2*(2+3) + alpha(path)


def test_eager_exact_edgeless():
    log = gen_hardness_instance([0, 1, 2, 3], [], 2.0, 3.0)
    res = optimal_eager_exact(log)
    assert total_revenue(log, res.reserves, Mechanism.EAGER) == 12.0  # all-H reserves, 4 * 3
    assert all(res.reserves.get(b) == 3.0 for b in log.bidder_ids)


def test_eager_exact_single_bidder_is_monopoly():
    rng = np.random.default_rng(44)
    for _ in range(20):
        log = single_bidder_log(rng.choice([0.0, 1.0, 2.0, 3.5, 5.0],
                                           size=int(rng.integers(1, 10))))
        exact = optimal_eager_exact(log)
        mono = monopoly_reserves(log, Mechanism.EAGER)
        assert exact.expected_revenue == mono.expected_revenue
        assert exact.reserves == mono.reserves


def test_eager_exact_size_bound():
    log = random_log(np.random.default_rng(45), max_bidders=6, max_auctions=50)
    with pytest.raises(SearchSpaceTooLarge):
        optimal_eager_exact(log, max_product_size=10)


def test_eager_exact_lex_smallest_tie():
    # both bidders bidding 2 always: reserves (0,0), (0,2), (2,0), (2,2) all earn 2
    log = log_of([{"A": 2.0, "B": 2.0}])
    res = optimal_eager_exact(log)
    assert (res.reserves.get("A"), res.reserves.get("B")) == (0.0, 0.0)


def test_ascent_triangle_from_all_low():
    log = gen_hardness_instance([0, 1, 2], [(0, 1), (1, 2), (0, 2)], 2.0, 3.0)
    init = ReserveVector({b: 2.0 for b in log.bidder_ids})
    res = eager_coordinate_ascent(log, init=init)
    assert total_revenue(log, res.reserves, Mechanism.EAGER) == 13.0


def test_ascent_never_decreases_from_lazy_init():
    rng = np.random.default_rng(46)
    for _ in range(15):
        log = random_log(rng, max_bidders=4, max_auctions=40)
        lazy = optimal_lazy(log)
        start = empirical_revenue(log, lazy.reserves, Mechanism.EAGER)
        res = eager_coordinate_ascent(log, init=lazy.reserves)
        assert res.expected_revenue >= start


def test_ascent_bounded_by_exact():
    rng = np.random.default_rng(47)
    pool = np.array([0.0, 1.0, 2.0, 4.0])
    for _ in range(15):
        log = random_log(rng, max_bidders=3, max_auctions=12, value_pool=pool)
        exact = optimal_eager_exact(log)
        asc = eager_coordinate_ascent(log)
        assert asc.expected_revenue <= exact.expected_revenue + 1e-12


def test_eager_totals_sum_scalar_payments_in_auction_order():
    rng = np.random.default_rng(49)
    for _ in range(4):
        log = random_log(rng, max_bidders=4, max_auctions=60)
        n = len(log.bidder_ids)
        # enough rows that the search splits them over several kernel calls
        R = rng.choice([0.0, 1.0, 2.5, 4.0, 6.0, math.inf], size=(1500, n))
        got = _eager_totals_for_rows(log.to_matrix(), R)
        for row, total in zip(R[::37], got[::37]):
            rv = ReserveVector(dict(zip(log.bidder_ids, row.tolist())))
            want = 0.0
            for p in log.profiles:
                want += run_eager(p, rv).payment
            assert total == want


def reference_ascent(log, init=None, max_rounds=50):
    """Coordinate ascent that re-simulates every candidate row of every step."""
    cands = _global_candidates(log)
    bids = log.to_matrix()
    current = np.array([(init or ReserveVector.zero()).get(b) for b in log.bidder_ids])
    current_total = float(_eager_totals_for_rows(bids, current[None, :])[0])
    rounds, converged = 0, False
    for _ in range(max_rounds):
        rounds += 1
        round_start = current_total
        for j in range(len(log.bidder_ids)):
            R = np.tile(current, (len(cands), 1))
            R[:, j] = cands
            totals = _eager_totals_for_rows(bids, R)
            i = int(np.argmax(totals))
            if totals[i] > current_total:
                current = R[i].copy()
                current_total = float(totals[i])
        if current_total - round_start <= 1e-12 * max(1.0, abs(round_start)):
            converged = True
            break
    return replace(_result(log, current, Mechanism.EAGER), rounds=rounds, converged=converged)


def check_line_search(log, current):
    """Every candidate's fast total against the ordered sums, and the shortlist's argmax."""
    bids, cands = log.to_matrix(), _global_candidates(log)
    for j in range(len(log.bidder_ids)):
        fast, tol, repeats = _eager_line_totals(bids, current, j, cands)
        R = np.tile(current, (len(cands), 1))
        R[:, j] = cands
        exact = _eager_totals_for_rows(bids, R)
        assert np.all(np.abs(fast - exact) <= tol / 2)
        k = np.flatnonzero(repeats)
        assert np.array_equal(exact[k], exact[k - 1])  # a repeat ties the row below, bit for bit
        shortlist = np.flatnonzero((fast >= fast.max() - tol) & ~repeats)
        assert shortlist[np.argmax(exact[shortlist])] == np.argmax(exact)


def test_line_search_matches_ordered_totals():
    rng = np.random.default_rng(50)
    pools = (None, np.array([0.0, 1.0, 2.0, 4.0]), np.array([0.5, 3.0]))
    seen_n = set()
    for it in range(120):
        log = random_log(rng, max_bidders=(1, 2, 3, 6)[it % 4], max_auctions=80,
                         value_pool=pools[it % 3])
        n = len(log.bidder_ids)
        seen_n.add(n)
        levels = np.concatenate([_global_candidates(log), [math.inf]])
        check_line_search(log, np.zeros(n))
        check_line_search(log, rng.choice(levels, size=n))
    assert {1, 2} <= seen_n


_LEVELS = [0.0, 0.5, 1.0, 2.0, 3.0]  # few levels, so bids tie with each other and with reserves


@st.composite
def line_cases(draw):
    """A small log with ties and absent bidders, and a current reserve row with +inf."""
    n = draw(st.integers(1, 4))
    T = draw(st.integers(1, 12))
    bids = np.array(draw(st.lists(st.lists(st.sampled_from(_LEVELS + [ABSENT]),
                                           min_size=n, max_size=n), min_size=T, max_size=T)))
    bids[np.arange(T), draw(st.lists(st.integers(0, n - 1), min_size=T, max_size=T))] = 1.0
    log = BidLog.from_matrix(bids, [f"b{j}" for j in range(n)])
    current = draw(st.lists(st.sampled_from(_LEVELS + [math.inf]),
                            min_size=len(log.bidder_ids), max_size=len(log.bidder_ids)))
    return log, np.array(current)


@settings(max_examples=150, deadline=None)
@given(line_cases())
def test_line_search_matches_ordered_totals_property(case):
    check_line_search(*case)


def test_ascent_matches_reference_loop():
    rng = np.random.default_rng(51)
    pools = (None, np.array([0.0, 1.0, 2.0, 4.0]), np.array([0.5, 3.0]))
    for it in range(40):
        log = random_log(rng, max_bidders=5, max_auctions=60, value_pool=pools[it % 3])
        levels = [0.0, 1.0, 2.5, math.inf]
        inits = [None, ReserveVector({b: float(rng.choice(levels)) for b in log.bidder_ids})]
        for init in inits:
            for max_rounds in (1, 50):
                got = eager_coordinate_ascent(log, init, max_rounds)
                want = reference_ascent(log, init, max_rounds)
                assert got.reserves == want.reserves
                assert got.expected_revenue == want.expected_revenue
                assert (got.rounds, got.converged) == (want.rounds, want.converged)


def test_line_search_near_tie_keeps_ordered_argmax():
    # b0's totals at r = 0.6 (0.6 + 1.1 + 0.6 + 0.6) and r = 0.9 (0.9 + 1.1 + 0 + 0.9) differ
    # by 1.1e-16 in exact arithmetic, below the rounding error: the auction-order sums rank
    # 0.6 first and the prefix sums 0.9, so only the re-scored shortlist keeps 0.6
    log = BidLog.from_matrix(np.array([[1.1, 0.2], [1.1, 1.1], [0.6, 1.1], [0.9, 0.1]]),
                             ["b0", "b1"])
    bids, cands = log.to_matrix(), _global_candidates(log)
    fast = _eager_line_totals(bids, np.zeros(2), 0, cands)[0]
    R = np.zeros((len(cands), 2))
    R[:, 0] = cands
    exact = _eager_totals_for_rows(bids, R)
    assert cands[np.argmax(exact)] == 0.6 and cands[np.argmax(fast)] == 0.9
    check_line_search(log, np.zeros(2))
    got = eager_coordinate_ascent(log, max_rounds=1)
    assert got.reserves.get("b0") == 0.6
    assert got.reserves == reference_ascent(log, max_rounds=1).reserves
    assert eager_coordinate_ascent(log) == reference_ascent(log)


def test_hardness_identity_small_graphs():
    rng = np.random.default_rng(48)
    for _ in range(12):
        n = int(rng.integers(2, 6))
        possible = [(u, v) for u in range(n) for v in range(u + 1, n)]
        take = rng.random(len(possible)) < 0.5
        edges = [e for e, t in zip(possible, take) if t]
        log = gen_hardness_instance(list(range(n)), edges, 2.0, 3.0)
        res = optimal_eager_exact(log)
        alpha = independent_set_number(n, edges)
        assert total_revenue(log, res.reserves, Mechanism.EAGER) == 2.0 * (len(edges) + n) + alpha


def test_empty_log_rejected():
    with pytest.raises(ValueError):
        empirical_revenue(BidLog([]), ReserveVector.zero(), Mechanism.LAZY)
