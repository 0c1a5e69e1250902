"""Adversarial joint-bid generators and their exact revenue analyses."""

import math

import numpy as np
import pytest

from reservelab.distributions import uniform_dist
from reservelab.generators import (EqualRevenuePairAnalysis, JointGenerator,
                                   _equal_revenue_pair_expectations,
                                   equal_revenue_pair_analysis,
                                   gen_correlated_equal_revenue, gen_geometric_pair,
                                   gen_hardness_instance, gen_high_low, gen_iid,
                                   gen_symmetric_one_high, geometric_pair_analysis,
                                   geometric_pair_atoms, high_low_exact,
                                   independent_set_number, sample_log)
from reservelab.mechanics import Mechanism
from reservelab.optimize import exact_eager_search, exact_lazy_search, own_candidates
from reservelab.vectorized import payments

from oracles import criterion_09_analysis, equal_revenue_pair_cell_logs, high_low_weighted_log


def test_sample_log_deterministic():
    gen = gen_high_low(4)
    a = sample_log(gen, 30, seed=99)
    b = sample_log(gen, 30, seed=99)
    c = sample_log(gen, 30, seed=100)
    assert a == b
    assert a != c
    with pytest.raises(ValueError):
        sample_log(gen, 0, seed=1)


def test_high_low_support():
    n = 5
    eps = 1e-9
    gen = gen_high_low(n, eps)
    assert gen.bidder_ids == ("b00", "b01", "b02", "b03", "b04")
    bids = gen.draw(np.random.default_rng(3), 4000)
    assert bids.shape == (4000, n)
    low = (bids >= 1.0) & (bids <= 1.0 + eps)
    high = (bids >= n) & (bids <= n + eps)
    assert (low | high).all()
    q = 1.0 / n ** 2
    se = math.sqrt(q * (1 - q) / bids.size)
    assert abs(high.mean() - q) < 4 * se
    with pytest.raises(ValueError):
        gen_high_low(1)
    with pytest.raises(ValueError):
        gen_high_low(3, 0.0)


def test_correlated_equal_revenue_structure():
    M, eps = 100.0, 1e-3
    gen = gen_correlated_equal_revenue(M, eps)
    bids = gen.draw(np.random.default_rng(8), 20000)
    zero = bids[:, 0] == 0.0
    assert (bids[zero, 1] == M).all()
    other = bids[~zero]
    assert ((other[:, 0] >= 1.0) & (other[:, 0] <= M)).all()
    # the shadow bid is exactly (1 - eps) times the leader, same float op
    assert (other[:, 1] == (1.0 - eps) * other[:, 0]).all()
    p = math.log(M) / M
    assert abs(zero.mean() - p) < 4 * math.sqrt(p * (1 - p) / len(bids))
    with pytest.raises(ValueError):
        gen_correlated_equal_revenue(2.0, eps)
    with pytest.raises(ValueError):
        gen_correlated_equal_revenue(M, 1.0)


def test_symmetric_one_high():
    gen = gen_symmetric_one_high(4, H=3.0, L=2.0)
    bids = gen.draw(np.random.default_rng(1), 500)
    assert ((bids == 3.0).sum(axis=1) == 1).all()
    assert ((bids == 2.0).sum(axis=1) == 3).all()
    with pytest.raises(ValueError):
        gen_symmetric_one_high(1, 3.0, 2.0)
    with pytest.raises(ValueError):
        gen_symmetric_one_high(4, 2.0, 2.0)


def test_geometric_pair_atoms():
    values, probs = geometric_pair_atoms(4, 0.5)
    assert values.tolist() == [1.0, 2.0, 4.0, 8.5]
    assert probs.tolist() == [0.5, 0.25, 0.125, 0.125]
    assert probs.sum() == 1.0


def test_geometric_pair_draws():
    gen = gen_geometric_pair(5, 0.01)
    bids = gen.draw(np.random.default_rng(2), 2000)
    assert (bids[:, 0] == bids[:, 1]).all()
    values, _ = geometric_pair_atoms(5, 0.01)
    assert np.isin(bids[:, 0], values).all()
    with pytest.raises(ValueError):
        gen_geometric_pair(1, 0.01)


def test_geometric_pair_refuses_a_top_atom_past_the_float_range():
    # 2^(K-1) overflows a float at K = 1025
    for build in (geometric_pair_atoms, gen_geometric_pair):
        with pytest.raises(ValueError, match=r"K must be in \[2, 1024\]"):
            build(1025, 0.5)
    values, probs = geometric_pair_atoms(1024, 0.5)
    assert values[-1] == 2.0 ** 1023 + 0.5 and probs.sum() == 1.0
    gen_geometric_pair(1024, 0.5)
    assert geometric_pair_analysis(1024, 0.5).ratio == 1.0


@pytest.mark.parametrize("epsilon", [0.0, -3.5, -5.0, math.nan, math.inf, 1e308])
def test_geometric_pair_refuses_an_epsilon_that_breaks_the_grid(epsilon):
    # -3.5 put the "top" atom at 0.5, below 1 and 2; 1e308 overflows it at K = 1024
    for build in (geometric_pair_atoms, gen_geometric_pair):
        with pytest.raises(ValueError, match="epsilon must be > 0"):
            build(1024 if epsilon == 1e308 else 3, epsilon)


def test_iid_generator():
    gen = gen_iid(uniform_dist(), 3)
    bids = gen.draw(np.random.default_rng(4), 100)
    assert bids.shape == (100, 3)
    assert ((bids >= 0) & (bids < 1)).all()
    with pytest.raises(ValueError):
        gen_iid(uniform_dist(), 0)


def test_hardness_instance_structure():
    log = gen_hardness_instance(["x", "y", "z"], [("x", "y"), ("y", "z"), ("x", "z")],
                                L=2.0, H=3.0)
    assert len(log.profiles) == 6
    edge = [p for p in log.profiles if len(p.bids) == 2]
    node = [p for p in log.profiles if len(p.bids) == 1]
    assert len(edge) == 3 and len(node) == 3
    assert all(set(p.bids.values()) == {2.0} for p in edge)
    assert all(set(p.bids.values()) == {3.0} for p in node)


def test_hardness_instance_validation():
    with pytest.raises(ValueError):
        gen_hardness_instance([0, 1], [(0, 1)], L=2.0, H=4.0)  # H = 2L
    with pytest.raises(ValueError):
        gen_hardness_instance([0, 1], [(0, 1), (1, 0)], L=2.0, H=3.0)
    with pytest.raises(ValueError):
        gen_hardness_instance([0, 1], [(0, 0)], L=2.0, H=3.0)
    with pytest.raises(ValueError):
        gen_hardness_instance([0, 1], [(0, 2)], L=2.0, H=3.0)
    with pytest.raises(ValueError):
        gen_hardness_instance([0, 0], [], L=2.0, H=3.0)


def test_independent_set_number():
    assert independent_set_number(3, [(0, 1), (1, 2), (0, 2)]) == 1
    assert independent_set_number(3, [(0, 1), (1, 2)]) == 2
    assert independent_set_number(4, []) == 4
    assert independent_set_number(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]) == 2
    with pytest.raises(ValueError):
        independent_set_number(21, [])


@pytest.mark.parametrize("analysis, generator, err", [
    (lambda: high_low_exact(0), lambda: gen_high_low(0), "n must be >= 2"),
    (lambda: high_low_exact(1), lambda: gen_high_low(1), "n must be >= 2"),
    (lambda: equal_revenue_pair_analysis(0.5, 0.1),
     lambda: gen_correlated_equal_revenue(0.5, 0.1), "M must be > e"),
    (lambda: equal_revenue_pair_analysis(1e4, 1.5),
     lambda: gen_correlated_equal_revenue(1e4, 1.5), r"epsilon must be in \(0, 1\)"),
    (lambda: independent_set_number(3, [(0, 5)]),
     lambda: gen_hardness_instance(range(3), [(0, 5)], 2.0, 3.0), r"bad edge \(0, 5\)"),
    (lambda: independent_set_number(3, [(1, 1)]),
     lambda: gen_hardness_instance(range(3), [(1, 1)], 2.0, 3.0), r"bad edge \(1, 1\)"),
    (lambda: independent_set_number(3, [(0, 1), (1, 0)]),
     lambda: gen_hardness_instance(range(3), [(0, 1), (1, 0)], 2.0, 3.0),
     r"duplicate edge \(1, 0\)")],
    ids=["high-low-0", "high-low-1", "pair-M", "pair-epsilon", "edge-off-graph", "loop",
         "repeated-edge"])
def test_each_exact_analysis_refuses_what_its_generator_refuses(analysis, generator, err):
    for make in (analysis, generator):
        with pytest.raises(ValueError, match=f"^{err}$"):
            make()


def test_high_low_exact_values():
    a = high_low_exact(50)
    assert abs(a.ratio - 1.9329099535899688) < 1e-12
    assert abs(a.eager_revenue - 1.9512376728406415) < 1e-12
    assert a.lazy_per_bidder_reserve == 1.0
    assert all(type(v) is float for v in (a.eager_revenue, a.optimal_lazy_revenue, a.ratio))


def test_high_low_ratio_climbs_toward_two():
    ratios = [high_low_exact(n).ratio for n in (50, 100, 200)]
    assert all(r >= 1.7 for r in ratios)
    assert ratios[0] < ratios[1] < ratios[2] < 2.0


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_high_low_analysis_equals_the_searches_on_its_weighted_log(n):
    """Criterion 08 a second way, on the law as a weighted log of its level profiles and
    tie orders (oracles.high_low_weighted_log). Each tie order lifts a bid by under
    n * delta, so each revenue moves by less than that."""
    delta = 1e-7
    bids, weights = high_low_weighted_log(n, delta)
    assert math.fsum(weights.tolist()) == pytest.approx(1.0, rel=1e-15)

    def revenue(reserves, mechanism):
        return math.fsum((weights * payments(bids, np.asarray(reserves), mechanism)).tolist())

    a = high_low_exact(n)
    eager = revenue([1.0] + [float(n)] * (n - 1), Mechanism.EAGER)
    assert abs(eager - a.eager_revenue) <= n * delta
    lazy = revenue(exact_lazy_search(bids, weights), Mechanism.LAZY)
    assert abs(lazy - a.optimal_lazy_revenue) <= n * delta
    best = exact_eager_search(bids, [np.array([0.0, 1.0, float(n)])] * n, weights)
    assert abs(revenue(best, Mechanism.EAGER) - a.eager_revenue) <= n * delta


def test_equal_revenue_pair_analysis():
    a = criterion_09_analysis()
    assert isinstance(a, EqualRevenuePairAnalysis)
    assert abs(a.lazy_revenue - 19.411266472002126) < 1e-9
    assert abs(a.best_eager_revenue - 11.208388186585855) < 1e-9
    assert a.best_eager_reserves[0] == 1.0
    assert a.ratio >= 1.7


def test_equal_revenue_pair_analysis_reaches_the_atom_edge():
    # r2 = (1 - eps) M is the largest reserve the shadow bidder's atom bid clears; just
    # above it the eager revenue drops by about 1, so a grid that skips it misses the optimum
    M, eps = 1e4, 1e-6
    _, eager_rev = _equal_revenue_pair_expectations(M, eps)
    edge = eager_rev(1.0, (1.0 - eps) * M)
    assert eager_rev(1.0, (1.0 - eps) * M * (1.0 + 1e-12)) < edge - 0.9
    assert criterion_09_analysis().best_eager_revenue >= edge


def test_equal_revenue_pair_analysis_lies_between_its_cell_laws():
    """Criterion 09 a second way, with no quadrature. The law with its [1, M) mass on 600
    log-spaced cells, each at its lower or upper end (oracles.equal_revenue_pair_cell_logs),
    bounds every revenue from below and above. So lazy at (0, M) on the two logs brackets
    the analysis's lazy revenue; the upper log's exact eager optimum bounds the law's from
    above and the lower log's from below, which the analysis's grid must reach; and lazy on
    the lower log over eager on the upper one is a certified lower bound on the ratio.
    The slack covers the analysis's quadrature rounding."""
    M, eps = 1e4, 1e-6
    low, high, weights = equal_revenue_pair_cell_logs(M, eps, 600)
    assert math.fsum(weights.tolist()) == pytest.approx(1.0, rel=1e-15)

    def revenue(bids, reserves, mechanism):
        return math.fsum((weights * payments(bids, np.asarray(reserves), mechanism)).tolist())

    lazy = [revenue(b, [0.0, M], Mechanism.LAZY) for b in (low, high)]
    eager = [revenue(b, exact_eager_search(b, own_candidates(b.T), weights), Mechanism.EAGER)
             for b in (low, high)]
    a = criterion_09_analysis()
    slack = 1e-12 * a.lazy_revenue
    assert lazy[0] - slack <= a.lazy_revenue <= lazy[1] + slack
    assert eager[0] - slack <= a.best_eager_revenue <= eager[1] + slack
    assert lazy[0] / eager[1] >= 1.7


def test_geometric_pair_analysis():
    g = geometric_pair_analysis(10, 0.001)
    # zero reserves sell every profile at the common bid: (K+1)/2 + eps*2^(1-K)
    assert abs(g.zero_reserve_revenue - (5.5 + 0.001 * 2.0 ** -9)) < 1e-12
    assert g.monopoly_reserve == 2.0 ** 9 + 0.001
    assert abs(g.monopoly_revenue - (2.0 ** 9 + 0.001) * 2.0 ** -9) < 1e-12
    assert g.ratio > 5.49
    g16 = geometric_pair_analysis(16, 0.001)
    assert g16.monopoly_reserve == 2.0 ** 15 + 0.001
    assert g16.ratio > 8.49
    assert g16.ratio > g.ratio


@pytest.mark.parametrize("K", [10, 16])
def test_geometric_pair_analysis_equals_the_payment_kernels_on_its_weighted_log(K):
    """Criterion 10 a second way. The analysis sums scalar run_auction payments over the
    atoms; here the K-row log of bids [v, v], weighted by p, runs through
    vectorized.payments under both rules, at zero reserves and at the monopoly reserve
    taken by an fsum argmax of r * P(bid >= r) over the atoms (first max)."""
    epsilon = 1e-3
    values, probs = geometric_pair_atoms(K, epsilon)
    objective = [r * math.fsum(probs[values >= r].tolist()) for r in values.tolist()]
    r_m = values[objective.index(max(objective))]
    bids = np.column_stack([values, values])
    g = geometric_pair_analysis(K, epsilon)
    assert g.monopoly_reserve == r_m
    for mechanism in Mechanism:
        rev_zero, rev_mono = (math.fsum((probs * payments(bids, np.array([r, r]), mechanism))
                                        .tolist()) for r in (0.0, r_m))
        assert g.zero_reserve_revenue == pytest.approx(rev_zero, rel=1e-14, abs=0)
        assert g.monopoly_revenue == pytest.approx(rev_mono, rel=1e-14, abs=0)
        assert g.ratio == pytest.approx(rev_zero / rev_mono, rel=1e-14, abs=0)
