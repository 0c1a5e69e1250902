"""Reserve optimizers: fixtures, oracle equivalence, hardness identities."""

import itertools
import math
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reservelab.errors import SearchSpaceTooLarge
from reservelab.generators import gen_hardness_instance, independent_set_number
from reservelab.logs import BidLog
from reservelab.mechanics import BidProfile, Mechanism, ReserveVector, run_eager
from reservelab import optimize, vectorized
from reservelab.optimize import (OptimizationResult, _best_on_lines, _eager_line_totals,
                                 _inner_split, _line_payments, _prefix_blocks, _product_rows,
                                 _rescored_totals, _result, _sort_line,
                                 eager_coordinate_ascent, empirical_revenue,
                                 exact_eager_search, exact_lazy_search, monopoly_reserves,
                                 optimal_eager_exact, optimal_lazy, optimal_lazy_bruteforce,
                                 own_candidates)
from reservelab.product import FiniteDist, ProductDist, optimal_reserves_product
from reservelab.vectorized import ABSENT, _top_surviving, lazy_order, payments

from oracles import argmax_over_grid, eager_totals, global_candidates, own_set_sizes


def log_of(rows):
    """rows: list of dicts bidder -> bid."""
    return BidLog([BidProfile(f"a{i}", bids) for i, bids in enumerate(rows)])


def total_revenue(log, reserves, mechanism):
    pay = payments(log.to_matrix(), [reserves.get(b) for b in log.bidder_ids], mechanism)
    return math.fsum(pay.tolist())


def single_bidder_log(values):
    return log_of([{"A": float(v)} for v in values])


def line_of(bids, rows, j, cands):
    """(line, rivals) as a search hands them to bidder j's line over reserve rows (B, n):
    _sort_line of (b_j, cands), and the survivors' top two over j's rivals, one scan of
    the rows with reserve j at +inf."""
    rivals = _top_surviving(bids, np.where(np.arange(bids.shape[1]) == j, np.inf, rows)[:, None])
    return _sort_line(bids[:, j], cands), rivals


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
    # r=0 and r=4 both give revenue 4; the search must keep 0
    log = log_of([{"A": 4.0, "B": 4.0}])
    res = optimal_lazy(log)
    assert res.reserves.get("A") == 0.0
    bf = optimal_lazy_bruteforce(log)
    assert bf.reserves.get("A") == 0.0


def test_bruteforce_ranks_candidates_by_their_auction_order_sums():
    # A = 0.2 and A = 0.3 tie in exact arithmetic; summed in auction order A = 0.3 totals
    # 0.31999999999999995 over the ten auctions and A = 0.2 totals 0.32, but a pairwise
    # sum ranks them the other way, so the oracle would pick 0.2 and the search 0.3
    log = log_of([{"A": a, "B": b} for a, b in [
        (0.1, 0.7), (0.3, 0.3), (0.3, 0.1), (0.7, 0.2), (0.2, 0.1), (0.3, 0.2), (0.2, 0.1),
        (0.2, 0.7), (0.3, 0.1), (0.7, 0.3)]])
    search, oracle = optimal_lazy(log), optimal_lazy_bruteforce(log)
    assert search.reserves == oracle.reserves == ReserveVector({"A": 0.3, "B": 0.7})
    assert search.expected_revenue == oracle.expected_revenue == 0.31999999999999995


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


def test_eager_exact_counts_each_bidders_own_bids():
    # A bids {1, 2, 5}, B bids {2} and once 0: grids of 4 and 2 candidates, 8 vectors
    log = log_of([{"A": 1.0, "B": 2.0}, {"A": 2.0}, {"A": 5.0, "B": 0.0}])
    assert optimal_eager_exact(log, max_product_size=8).counters == {
        "candidates": [4, 2], "vectors": 8, "lines": 4}
    with pytest.raises(SearchSpaceTooLarge,
                       match=r"^4 x 2 = 8 candidate vectors exceed max_product_size=7$"):
        optimal_eager_exact(log, max_product_size=7)


def test_results_record_their_rule_and_counters():
    """Each result names the rule its revenue is under and carries its search's counters:
    none for the lazy and monopoly searches."""
    log = log_of([{"A": 1.0, "B": 2.0}, {"A": 2.0}, {"A": 5.0, "B": 0.0}])
    runs = [(optimal_lazy(log), Mechanism.LAZY, ""),
            (optimal_lazy_bruteforce(log), Mechanism.LAZY, ""),
            (monopoly_reserves(log), Mechanism.EAGER, ""),
            *((monopoly_reserves(log, m), m, "") for m in Mechanism),
            (optimal_eager_exact(log), Mechanism.EAGER, "candidates lines vectors"),
            (eager_coordinate_ascent(log), Mechanism.EAGER, "candidates converged rounds")]
    for result, mechanism, keys in runs:
        assert result.mechanism is mechanism and sorted(result.counters) == keys.split()
        assert result.expected_revenue == empirical_revenue(log, result.reserves, mechanism)
    assert [f.name for f in fields(OptimizationResult)] == [
        "reserves", "expected_revenue", "total_revenue", "total_welfare", "mechanism", "counters"]


def test_eager_exact_lex_smallest_tie():
    # both bidders bidding 2 always: reserves (0,0), (0,2), (2,0), (2,2) all earn 2
    log = log_of([{"A": 2.0, "B": 2.0}])
    res = optimal_eager_exact(log)
    assert (res.reserves.get("A"), res.reserves.get("B")) == (0.0, 0.0)


def grid_search(bids, cands, weights=None):
    """The exhaustive search the line search replaced: every grid vector's ordered total."""
    return argmax_over_grid(cands.tolist(), bids.shape[1],
                            lambda R: eager_totals(bids, R, weights), 1 << 14)


_LEVELS = [0.0, 0.5, 1.0, 2.0, 3.0]  # few levels, so bids tie with each other and with reserves
_WEIGHTS = [0.1, 0.25, 1 / 3, 1.0, 2.5]
# exact_cases' search block sizes: the default, one that splits the prefixes, one prefix
_BATCHES = [optimize._SEARCH_BATCH, 40, 1]


@st.composite
def exact_cases(draw):
    """A log with absent cells whose grid of every bid is under 1e4 vectors, auction
    weights or None, and a search block size: the default, or small enough to split the
    prefixes. The bids are integers, or in the tie-heavy family a few levels (halves
    and integers, so unweighted sums stay exact) that most bidders share."""
    n = draw(st.integers(1, 4))
    T = draw(st.integers(1, 15))
    if draw(st.booleans()):
        top = int(10 ** (4 / n) + 1e-9) - 1  # {0..top}^n holds at most 1e4 vectors
        values = st.integers(0, draw(st.integers(1, min(top, 30)))).map(float)
    else:
        values = st.sampled_from(_LEVELS[:draw(st.integers(1, len(_LEVELS)))])
    bids = np.array(draw(st.lists(st.lists(values | st.just(ABSENT), min_size=n, max_size=n),
                                  min_size=T, max_size=T)))
    bids[np.arange(T), draw(st.lists(st.integers(0, n - 1), min_size=T, max_size=T))] = 1.0
    weights = draw(st.none() | st.lists(st.sampled_from(_WEIGHTS), min_size=T, max_size=T))
    batch = draw(st.sampled_from(_BATCHES))
    return (BidLog.from_matrix(bids, [f"b{j}" for j in range(n)]),
            None if weights is None else np.array(weights), batch)


@settings(max_examples=250, deadline=None)
@given(exact_cases())
def test_eager_exact_returns_the_grid_vector(case):
    """Each bidder's own bids find the vector, not just the total, that the grid of
    every bid in the log finds."""
    log, weights, batch = case
    bids = log.to_matrix()
    want = grid_search(bids, global_candidates(bids), weights)
    with pytest.MonkeyPatch.context() as m:
        m.setattr(optimize, "_SEARCH_BATCH", batch)
        got = optimal_eager_exact(log, max_product_size=10 ** 4)
        assert exact_eager_search(bids, own_candidates(bids.T), weights).tolist() == want.tolist()
    if weights is None:
        assert [got.reserves.get(b) for b in log.bidder_ids] == want.tolist()
    assert got.expected_revenue == empirical_revenue(log, got.reserves, Mechanism.EAGER)
    assert got.counters["candidates"] == own_set_sizes(bids)


@settings(max_examples=150, deadline=None)
@given(exact_cases(), st.data())
def test_a_line_over_own_bids_equals_the_line_over_every_bid(case, data):
    """One eager_coordinate_ascent step, _best_on_lines over bidder j's own candidates,
    moves to the row and total that re-simulating every candidate of the grid of every
    bid finds, from any reserve row."""
    log, weights, _ = case
    bids = log.to_matrix()
    cands = global_candidates(bids)
    n = len(log.bidder_ids)
    row = np.array(data.draw(st.lists(st.sampled_from(cands.tolist() + [math.inf]),
                                      min_size=n, max_size=n)))
    for j, own in enumerate(own_candidates(bids.T)):
        R = np.tile(row, (len(cands), 1))
        R[:, j] = cands
        totals = eager_totals(bids, R, weights)
        i = int(np.argmax(totals))
        got, total = _best_on_lines(bids, row[None, :], j, own,
                                    *line_of(bids, row[None, :], j, own), weights)
        assert got.tolist() == R[i].tolist() and total == totals[i]


def test_own_bids_can_split_a_tie_that_only_rounding_makes():
    # Auction order puts 1e17 first, whose float spacing is 16: A's line totals
    # 1e17 + r round to 1e17 + 16 for r = 9 (C's bid) and r = 10 (A's own), though the
    # exact totals differ. The grid of every bid takes 9; A's own bids take 10, at the
    # same total.
    bids = np.array([[ABSENT, 1e17, 1e17], [10.0, ABSENT, ABSENT], [ABSENT, ABSENT, 9.0]])
    own = own_candidates(bids.T)[0]
    rows = np.zeros((1, 3))
    row, total = _best_on_lines(bids, rows, 0, own, *line_of(bids, rows, 0, own))
    cands = global_candidates(bids)
    R = np.zeros((len(cands), 3))
    R[:, 0] = cands
    totals = eager_totals(bids, R)
    assert cands[np.argmax(totals)] == 9.0 and row[0] == 10.0
    assert total == totals.max() == 1e17 + 16


@settings(max_examples=200, deadline=None)
@given(exact_cases())
def test_lazy_returns_the_grid_vector(case):
    # integer and half bids make every unweighted sum exact, so the per-bidder search
    # must find the full grid's first vector with the highest lazy total
    log, _, batch = case
    bids = log.to_matrix()
    want = argmax_over_grid(
        global_candidates(bids).tolist(), bids.shape[1],
        lambda R: np.add.accumulate(payments(bids, R[:, None, :], Mechanism.LAZY),
                                    axis=1)[:, -1], 1 << 14)
    with pytest.MonkeyPatch.context() as m:
        m.setattr(optimize, "_SEARCH_BATCH", batch)
        got = optimal_lazy(log)
    assert [got.reserves.get(b) for b in log.bidder_ids] == want.tolist()
    assert got.expected_revenue == empirical_revenue(log, got.reserves, Mechanism.LAZY)


@settings(max_examples=100, deadline=None)
@given(exact_cases())
def test_lazy_lines_search_each_bidders_winning_tops(case):
    """exact_lazy_search runs exact_eager_search once per bidder that wins an auction at
    zero reserves, on the log [second, top] of the auctions it wins, with their weights,
    over {0} for the rival and {0} plus the distinct tops of those auctions for the
    bidder, unweighted and weighted: its own candidates in that log."""
    log, weights, _ = case
    bids = log.to_matrix()
    winner, top, second = lazy_order(bids)
    mine = [winner == i for i in range(bids.shape[1]) if (winner == i).any()]
    want = [[[0.0], np.unique(np.append(top[q], 0.0)).tolist()] for q in mine]
    for w in (None, np.ones(len(bids)) if weights is None else weights):
        searches = []

        def recording(pair, sets, pair_weights=None):
            searches.append((pair, [s.tolist() for s in sets], pair_weights))
            return exact_eager_search(pair, sets, pair_weights)

        with pytest.MonkeyPatch.context() as m:
            m.setattr(optimize, "exact_eager_search", recording)
            exact_lazy_search(bids, w)
        assert [sets for _, sets, _ in searches] == want
        for (pair, _, pair_weights), q in zip(searches, mine):
            assert pair.tolist() == np.stack([second[q], top[q]], axis=1).tolist()
            if w is None:
                assert pair_weights is None
            else:
                assert pair_weights.tolist() == w[q].tolist()


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
        # enough rows that the oracle splits them over several kernel calls
        R = rng.choice([0.0, 1.0, 2.5, 4.0, 6.0, math.inf], size=(1500, n))
        weights = rng.random(len(log))
        got = eager_totals(log.to_matrix(), R)
        got_w = eager_totals(log.to_matrix(), R, weights)
        for row, total, total_w in zip(R[::37], got[::37], got_w[::37]):
            rv = ReserveVector(dict(zip(log.bidder_ids, row.tolist())))
            want = want_w = 0.0
            for p, w in zip(log.profiles, weights):
                want += run_eager(p, rv).payment
                want_w += run_eager(p, rv).payment * w
            assert total == want and total_w == want_w


def test_row_totals_do_not_depend_on_the_block(monkeypatch):
    """_rescored_totals sums its (row, candidate) pairs in chunks of _SEARCH_BATCH elements;
    every total has the same bits whatever the chunk, weighted or not."""
    rng = np.random.default_rng(52)
    log = random_log(rng, max_bidders=4, max_auctions=60)
    bids, n = log.to_matrix(), len(log.bidder_ids)
    rows = rng.choice([0.0, 1.0, 2.5, 4.0, 6.0, math.inf], size=(20, n))
    cands = np.append(global_candidates(bids), math.inf)
    p, c = rng.integers(0, len(rows), 300), rng.choice(cands, 300)
    for j in range(n):
        pays = _line_payments(bids, rows, j, line_of(bids, rows, j, cands)[1])
        for weights in (None, rng.random(len(log))):
            whole = _rescored_totals(bids[:, j], pays, p, c, weights)
            for lo, hi in ((0, 1), (7, 8), (5, 123), (100, 300)):
                part = _rescored_totals(bids[:, j], pays, p[lo:hi], c[lo:hi], weights)
                assert part.tobytes() == whole[lo:hi].tobytes()
            with monkeypatch.context() as m:
                m.setattr(optimize, "_SEARCH_BATCH", 1)  # one pair per chunk
                again = _rescored_totals(bids[:, j], pays, p, c, weights)
            assert again.tobytes() == whole.tobytes()


def reference_ascent(log, init=None, max_rounds=50):
    """Coordinate ascent that re-simulates every candidate row of every step, each
    reserve from {0} plus every bid in the log."""
    bids = log.to_matrix()
    cands = global_candidates(bids)
    current = np.array([(init or ReserveVector.zero()).get(b) for b in log.bidder_ids])
    current_total = float(eager_totals(bids, current[None, :])[0])
    rounds, converged = 0, False
    for _ in range(max_rounds):
        rounds += 1
        round_start = current_total
        for j in range(len(log.bidder_ids)):
            R = np.tile(current, (len(cands), 1))
            R[:, j] = cands
            totals = eager_totals(bids, R)
            i = int(np.argmax(totals))
            if totals[i] > current_total:
                current = R[i].copy()
                current_total = float(totals[i])
        if current_total - round_start <= 1e-12 * max(1.0, abs(round_start)):
            converged = True
            break
    return _result(log, current, Mechanism.EAGER, candidates=own_set_sizes(bids), rounds=rounds,
                   converged=converged)


def check_line_search(log, current, weights=None):
    """Every candidate's fast total against the ordered sums, for one reserve row or a
    (B, n) block of them, and the block's first ordered argmax from the shortlist."""
    bids = log.to_matrix()
    cands = global_candidates(bids)
    rows = np.atleast_2d(current)
    for j in range(len(log.bidder_ids)):
        line, rivals = line_of(bids, rows, j, cands)
        fast, tol, repeats = _eager_line_totals(cands, _line_payments(bids, rows, j, rivals),
                                                line, weights)
        R = np.repeat(rows, len(cands), axis=0)  # (row, candidate) order
        R[:, j] = np.tile(cands, len(rows))
        exact = eager_totals(bids, R, weights).reshape(fast.shape)
        assert np.all(np.abs(fast - exact) <= tol[:, None] / 2)
        p, k = np.nonzero(repeats)
        # a repeat ties the row below, bit for bit
        assert np.array_equal(exact[p, k], exact[p, k - 1])
        row, total = _best_on_lines(bids, rows, j, cands, line, rivals, weights)
        i = int(np.argmax(exact))
        assert total == exact.flat[i] and np.array_equal(row, R[i])


def test_line_search_matches_ordered_totals():
    rng = np.random.default_rng(50)
    pools = (None, np.array([0.0, 1.0, 2.0, 4.0]), np.array([0.5, 3.0]))
    seen_n = set()
    for it in range(120):
        log = random_log(rng, max_bidders=(1, 2, 3, 6)[it % 4], max_auctions=80,
                         value_pool=pools[it % 3])
        n = len(log.bidder_ids)
        seen_n.add(n)
        levels = np.concatenate([global_candidates(log.to_matrix()), [math.inf]])
        check_line_search(log, np.zeros(n))
        check_line_search(log, rng.choice(levels, size=n))
        check_line_search(log, rng.choice(levels, size=(5, n)))
        check_line_search(log, rng.choice(levels, size=(3, n)), rng.random(len(log)))
    assert {1, 2} <= seen_n


@st.composite
def line_cases(draw):
    """A small log with ties and absent bidders, a block of one to three reserve rows
    with +inf, and auction weights or None."""
    n = draw(st.integers(1, 4))
    T = draw(st.integers(1, 12))
    bids = np.array(draw(st.lists(st.lists(st.sampled_from(_LEVELS + [ABSENT]),
                                           min_size=n, max_size=n), min_size=T, max_size=T)))
    bids[np.arange(T), draw(st.lists(st.integers(0, n - 1), min_size=T, max_size=T))] = 1.0
    log = BidLog.from_matrix(bids, [f"b{j}" for j in range(n)])
    n = len(log.bidder_ids)
    rows = draw(st.lists(st.lists(st.sampled_from(_LEVELS + [math.inf]), min_size=n, max_size=n),
                         min_size=1, max_size=3))
    weights = draw(st.none() | st.lists(st.sampled_from(_WEIGHTS), min_size=T, max_size=T))
    return log, np.array(rows), None if weights is None else np.array(weights)


@settings(max_examples=150, deadline=None)
@given(line_cases())
def test_line_search_matches_ordered_totals_property(case):
    check_line_search(*case)


@settings(max_examples=150, deadline=None)
@given(line_cases())
def test_rescored_totals_equal_the_kernel_sums(case):
    """Every (row, candidate) of every bidder's line, re-scored from the line's own
    payments, totals to eager_totals' auction-order sum of the kernel's
    payments, bit for bit."""
    log, rows, weights = case
    bids = log.to_matrix()
    cands = global_candidates(bids)
    p, k = (x.ravel() for x in np.indices((len(rows), len(cands))))
    for j in range(bids.shape[1]):
        pays = _line_payments(bids, rows, j, line_of(bids, rows, j, cands)[1])
        got = _rescored_totals(bids[:, j], pays, p, cands[k], weights)
        R = rows[p]
        R[:, j] = cands[k]
        assert got.tobytes() == eager_totals(bids, R, weights).tobytes()


@st.composite
def prefix_cases(draw):
    """A small log with ties and absent bidders, and per-bidder ascending reserve sets,
    some holding +inf; every set but the last holds at least two reserves, so each
    split h has a block size that puts it there."""
    n = draw(st.integers(1, 5))
    T = draw(st.integers(1, 8))
    bids = np.array(draw(st.lists(st.lists(st.sampled_from(_LEVELS[:3] + [ABSENT]),
                                           min_size=n, max_size=n), min_size=T, max_size=T)))
    levels = _LEVELS[:3] + [math.inf]
    sets = [np.array(sorted(draw(st.sets(st.sampled_from(levels), min_size=2 if j < n - 1 else 1,
                                         max_size=3)))) for j in range(n)]
    return bids, sets


@settings(max_examples=200, deadline=None)
@given(prefix_cases())
def test_merged_rivals_equal_one_scan(case):
    """At every split h = 0..n-1 (h = n - 1 and n = 1 included), each block's rivals, the
    inner table merged with its outer columns' top two, equal one _top_two scan over
    every rival's survivors bit for bit, in winner, top and second; the blocks' rows are
    the prefixes in product order."""
    bids, sets = case
    T, n = bids.shape
    sizes = [len(s) for s in sets]
    for h in range(n):
        step = math.prod(sizes[h:-1])
        assert _inner_split(sizes, step) == h
        blocks = list(_prefix_blocks(bids, sets, step))
        rows = np.concatenate([r for r, _ in blocks])
        want_rows = np.zeros((math.prod(sizes[:-1]), n))
        want_rows[:, :-1] = _product_rows(sets[:-1], 0, len(want_rows))
        assert rows.tobytes() == want_rows.tobytes()
        for rows, rivals in blocks:
            want = line_of(bids, rows, n - 1, sets[-1])[1]
            assert [x.tobytes() for x in rivals] == [x.tobytes() for x in want]


def test_exact_cases_batches_reach_every_split():
    """The block sizes exact_cases draws put the inner split at h = 0, strictly between 0
    and n - 1, and at n - 1, on logs of the shapes it draws."""
    splits = set()
    for batch, n, T, size in itertools.product(_BATCHES, range(2, 5), range(1, 16), range(2, 7)):
        h = _inner_split([size] * n, max(1, batch // max(T, size + 1)))
        splits.add("first" if h == 0 else "last" if h == n - 1 else "between")
    assert splits == {"first", "between", "last"}


def test_searches_run_no_kernel_inside(monkeypatch):
    """Every line re-scores its shortlist from its own payments, and the ascent takes its
    starting total from its first line: the exact search on the Petersen hardness log, the
    eager product-law search and the ascent each run one eager kernel, on their result's
    reserve row."""
    calls = []

    def counting(*args, _original=vectorized.eager_payments):
        calls.append(np.shape(args[1]))
        return _original(*args)

    monkeypatch.setattr(vectorized, "eager_payments", counting)
    edges = ([(i, (i + 1) % 5) for i in range(5)] + [(i, i + 5) for i in range(5)]
             + [(5 + i, 5 + (i + 2) % 5) for i in range(5)])
    petersen = gen_hardness_instance(list(range(10)), edges, 2.0, 3.0)
    assert optimal_eager_exact(petersen).total_revenue == 2 * 25 + 4
    assert calls == [(10,)]
    law = ProductDist({f"b{i}": FiniteDist(((1.0 + i, 0.5), (2.5, 0.25), (4.0 - i, 0.25)))
                       for i in range(3)})
    optimal_reserves_product(law, Mechanism.EAGER)
    assert calls == [(10,), (3,)]
    eager_coordinate_ascent(petersen)
    assert calls == [(10,), (3,), (10,)]


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
                assert got.counters == want.counters


def test_line_search_near_tie_keeps_ordered_argmax():
    # b0's totals at r = 0.6 (0.6 + 1.1 + 0.6 + 0.6) and r = 0.9 (0.9 + 1.1 + 0 + 0.9) differ
    # by 1.1e-16 in exact arithmetic, below the rounding error: the auction-order sums rank
    # 0.6 first and the prefix sums 0.9, so only the re-scored shortlist keeps 0.6
    log = BidLog.from_matrix(np.array([[1.1, 0.2], [1.1, 1.1], [0.6, 1.1], [0.9, 0.1]]),
                             ["b0", "b1"])
    bids = log.to_matrix()
    cands = global_candidates(bids)
    rows = np.zeros((1, 2))
    line, rivals = line_of(bids, rows, 0, cands)
    fast = _eager_line_totals(cands, _line_payments(bids, rows, 0, rivals), line)[0][0]
    R = np.zeros((len(cands), 2))
    R[:, 0] = cands
    exact = eager_totals(bids, R)
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
