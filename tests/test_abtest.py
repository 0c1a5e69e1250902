"""Treatment simulation: closed forms, quadrature references, and paired sweeps."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reservelab import abtest
from reservelab.abtest import (SweepResult, SweepRow, _myerson_row, empirical_treatment_sweep,
                               expected_second_highest, paired_treatment_deltas,
                               rev_e_k_closed_uniform, rev_e_k_quadrature, rev_l_k_closed,
                               simulate_treatment, sweep_theoretical)
from reservelab.distributions import (ContinuousDist, equal_revenue_dist, exponential_dist,
                                      is_regular, uniform_dist)
from reservelab.errors import DomainError
from reservelab.logs import BidLog
from reservelab.mechanics import Mechanism, ReserveVector
from reservelab.optimize import empirical_revenue
from reservelab.vectorized import ABSENT, payments

UNIFORM = uniform_dist()


def test_closed_uniform_tuple():
    base = (5 + 2.0 ** -5 - 1.0) / 6.0
    expected = [2.0 / 3.0, 0.665625, 0.6640625, base - 2.0 ** -5 / 3.0, 0.65625, 0.671875]
    got = [rev_e_k_closed_uniform(5, k) for k in range(6)]
    assert got[1] == expected[1]
    assert got[2] == expected[2]
    assert got[4] == expected[4]
    assert got[5] == expected[5]
    assert abs(got[0] - expected[0]) < 1e-15
    assert abs(got[3] - expected[3]) < 1e-15
    with pytest.raises(ValueError):
        rev_e_k_closed_uniform(5, 6)
    with pytest.raises(ValueError):
        rev_e_k_closed_uniform(5, -1)


def test_closed_uniform_dip_then_jump():
    vals = [rev_e_k_closed_uniform(5, k) for k in range(6)]
    assert all(b < a for a, b in zip(vals[:5], vals[1:5]))
    assert vals[5] > vals[0]


def test_lazy_interpolation():
    rev0 = 2.0 / 3.0
    revn = rev_e_k_closed_uniform(5, 5)
    assert abs(rev_l_k_closed(5, 2, rev0, revn) - 0.66875) < 1e-15
    assert rev_l_k_closed(5, 0, rev0, revn) == rev0
    assert rev_l_k_closed(5, 5, rev0, revn) == revn
    with pytest.raises(ValueError):
        rev_l_k_closed(5, 7, rev0, revn)


def test_quadrature_matches_closed_form():
    for n in (2, 5, 8):
        for k in range(n + 1):
            q = rev_e_k_quadrature(UNIFORM, n, k)
            c = rev_e_k_closed_uniform(n, k)
            assert abs(q - c) <= 1e-6


def test_exponential_quadrature_matches_monte_carlo():
    # the exponential density underflows far in the tail; the quadrature must not divide by it
    expo = exponential_dist(1.0)
    for mech in Mechanism:
        res = sweep_theoretical(expo, 4, [mech], trials=200_000, seed=8)
        for r in res.rows:
            assert abs(r.mean - r.reference) < 4.0 * r.stderr


def test_expected_second_highest():
    # uniform: (n-1)/(n+1); two exponentials: E[min] = 1/2
    assert abs(expected_second_highest(UNIFORM, 5) - 2.0 / 3.0) < 1e-10
    assert abs(expected_second_highest(exponential_dist(1.0), 2) - 0.5) < 1e-10
    assert expected_second_highest(UNIFORM, 1) == 0.0
    with pytest.raises(DomainError):
        expected_second_highest(equal_revenue_dist(10.0), 3)


def test_simulate_treatment_validation():
    with pytest.raises(ValueError):
        simulate_treatment(UNIFORM, 5, 0.5, Mechanism.EAGER, 0, seed=1)
    for bad in (1.5, -0.1):
        with pytest.raises(ValueError, match="fraction"):
            simulate_treatment(UNIFORM, 5, bad, Mechanism.EAGER, 10, seed=1)


def test_simulate_treatment_deterministic():
    a = simulate_treatment(UNIFORM, 5, 0.6, Mechanism.EAGER, 20_000, seed=12)
    b = simulate_treatment(UNIFORM, 5, 0.6, Mechanism.EAGER, 20_000, seed=12)
    c = simulate_treatment(UNIFORM, 5, 0.6, Mechanism.EAGER, 20_000, seed=13)
    assert a == b
    assert a.mean != c.mean
    assert a.x == 0.6 and a.trials == 20_000 and a.stderr > 0


def test_stderr_exact_at_large_means():
    # 1e6 payments near 1e9 with spread ~0.24: a sum of squares minus count * mean^2
    # cancels to noise; merged per-chunk deviations keep the stderr of the unshifted draws.
    # No reserves: the bidder split's k = 0 row and an auction split of fraction 0. The
    # sweep's block mean sums a column of a 2-D block in order, not pairwise: about 1e-5
    # of rounding at 1e9, so its mean is held to 1e-13 relative, the auction split's to 1e-6
    plain = uniform_dist()
    shifted = uniform_dist(1e9, 1e9 + 1.0)
    for estimate, mean_tol in (
            (lambda d: sweep_theoretical(d, 2, [Mechanism.LAZY], 1_000_000, 3).rows[0], 1e-4),
            (lambda d: simulate_treatment(d, 2, 0.0, Mechanism.LAZY, 1_000_000, 3), 1e-6)):
        small, big = estimate(plain), estimate(shifted)
        assert abs(small.stderr - math.sqrt(1.0 / 18.0) / 1000.0) < 0.01 * small.stderr
        assert abs(big.stderr - small.stderr) < 1e-3 * small.stderr
        assert abs(big.mean - 1e9 - small.mean) < mean_tol


def test_sweep_matches_references():
    for mech in Mechanism:
        res = sweep_theoretical(UNIFORM, 5, [mech], trials=200_000, seed=31)
        assert [r.x for r in res.rows] == [0.0, 1.0, 2.0, 3.0, 4.0, 5.0]
        for row in res.rows:
            assert abs(row.mean - row.reference) <= 3.0 * row.stderr


def test_closed_form_reference_only_for_the_unit_uniform():
    # uniform(0, 1.000004) printed as uniform(0,1) and took the unit closed form
    near = uniform_dist(0.0, 1.000004)
    assert near.name == "uniform(0,1.000004)" and UNIFORM.name == "uniform(0,1)"
    res = sweep_theoretical(near, 5, [Mechanism.EAGER], trials=1000, seed=1)
    assert res.descriptor == "theoretical(uniform(0,1.000004),n=5)"
    assert res.rows[2].reference == rev_e_k_quadrature(near, 5, 2)
    assert abs(res.rows[2].reference - rev_e_k_closed_uniform(5, 2)) > 2e-6
    unit = sweep_theoretical(UNIFORM, 5, [Mechanism.EAGER], trials=1000, seed=1)
    assert [r.reference for r in unit.rows] == [rev_e_k_closed_uniform(5, k) for k in range(6)]


def test_narrow_support_far_from_zero_is_judged_regular():
    # 1e-9 of the width rounds away against lo = 1e9: the regularity grid started at lo
    # itself and virtual_value refused it. phi(v) = 2v - hi > 0 on the whole support, so
    # the Myerson reserve is lo and every bidder clears it
    shifted = uniform_dist(1e9, 1e9 + 1.0)
    assert shifted.name == "uniform(1e+09,1000000001)"
    assert is_regular(shifted)
    assert _myerson_row(shifted, 2).tolist() == [1e9, 1e9]
    row = simulate_treatment(shifted, 2, 1.0, Mechanism.EAGER, 100, seed=1)
    assert math.isfinite(row.mean) and math.isfinite(row.stderr)
    res = sweep_theoretical(shifted, 2, [Mechanism.EAGER], 100, seed=1)
    assert all(math.isfinite(r.mean) and math.isfinite(r.stderr) and math.isfinite(r.reference)
               for r in res.rows)


def _reference_bidder_chunks(dist, n, mechanism, trials, seed, ks, r_full, ranked=False):
    """The per-k kernel loop: (c, len(ks)) payments per chunk of draws, the bidders in
    columns < k treated, or with `ranked` those of rank < k in a fresh uniform ranking per
    auction (drawn after the values), the treated set the bidder split once used."""
    ks = list(ks)
    rng = np.random.default_rng(seed)
    remaining = trials
    while remaining > 0:
        c = min(abtest._CHUNK, remaining)
        remaining -= c
        values = dist.sample(rng, (c, n))
        ranks = (np.argsort(np.argsort(rng.random((c, n)), axis=1), axis=1) if ranked
                 else np.arange(n))
        out = np.empty((c, len(ks)))
        for j, k in enumerate(ks):
            reserves = np.where(ranks < k, r_full, 0.0)
            out[:, j] = payments(values, reserves, mechanism)
        yield out


def _reference_simulate(dist, n, p, mechanism, trials, seed):
    """simulate_treatment's auction-split loop as first written, merging raw payments."""
    r_full = _myerson_row(dist, n)
    stats = (0, 0.0, 0.0)
    rng = np.random.default_rng(seed)
    done = 0
    while done < trials:
        c = min(abtest._CHUNK, trials - done)
        values = dist.sample(rng, (c, n))
        treated = rng.random(c) < p
        reserves = np.where(treated[:, None], r_full[None, :], 0.0)
        stats = abtest._merge_moments(stats, payments(values, reserves, mechanism))
        done += c
    return SweepRow(p, mechanism, *abtest._mean_stderr(*stats, 1.0), trials)


def _reference_all_k(n, mechanism, trials, seed, diff=False, dist=UNIFORM, ranked=False):
    """Per-k (or adjacent-k difference) means and stderrs of the per-k kernel loop,
    merging raw payments."""
    stats = (0, 0.0, 0.0)
    for block in _reference_bidder_chunks(dist, n, mechanism, trials, seed, range(n + 1),
                                          _myerson_row(dist, n), ranked):
        stats = abtest._merge_moments(stats, np.diff(block, axis=1) if diff else block)
    count, means, m2s = stats
    return [abtest._mean_stderr(count, mean, m2, 1.0) for mean, m2 in zip(means, m2s)]


_ORACLE_TRIALS = abtest._CHUNK + 1  # two chunks, the second of one auction

_GRID = [-0.5, 0.0, 0.25, 0.5, 1.0]  # coarse, so bids tie with each other and with reserves


@st.composite
def chunk_cases(draw):
    """A chunk of tied values (one negative level, some absent bids), a reserve row with
    0, +inf and bid levels, the mechanisms in some order and an rng seed."""
    n = draw(st.integers(1, 12))
    c = draw(st.integers(1, 25))
    values = np.array(draw(st.lists(st.sampled_from(_GRID + [ABSENT]),
                                    min_size=c * n, max_size=c * n))).reshape(c, n)
    r_full = np.array(draw(st.lists(st.sampled_from([0.0, 0.25, 0.5, math.inf]),
                                    min_size=n, max_size=n)))
    mechanisms = draw(st.permutations(list(Mechanism)))
    return values, r_full, mechanisms, draw(st.integers(0, 2 ** 32 - 1))


@settings(max_examples=200, deadline=None)
@given(chunk_cases())
def test_bidder_arms_equal_the_per_k_kernels_property(case):
    values, r_full, mechanisms, seed = case
    c, n = values.shape
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(abtest, "_SLICE", 7)  # several all-k passes per chunk
        got = abtest._bidder_arms(mechanisms, r_full)(np.random.default_rng(seed), values)
    want = np.stack([payments(values, np.where(np.arange(n) < k, r_full, 0.0), mech)
                     for mech in mechanisms for k in range(n + 1)], axis=1)
    assert np.array_equal(got, want)


def _second_bids(bids):
    """Each row's second-highest bid, 0 with fewer than two present: by a full sort."""
    second = np.sort(bids, axis=1)[:, -2]
    return np.where(np.isfinite(second), second, 0.0)


# Rows at the edges of the rule "a reserve can bind only below the second bid": with the
# largest reserve 1/2, a second bid equal to it, just under it, between the reserves, a
# lone bidder, negative values and an auction nobody joins
_EDGE_BIDS = np.array([[0.5, 0.5, 0.1], [1.0, 0.5, 0.25], [0.75, 0.4999, 0.6],
                       [0.75, 0.3, 0.1], [0.5, 0.25, 0.25], [0.75, ABSENT, ABSENT],
                       [ABSENT, 0.3, ABSENT], [-0.5, 0.75, 0.6], [0.75, -0.5, ABSENT],
                       [-0.5, ABSENT, ABSENT], [-0.5, -0.25, 0.6], [ABSENT, ABSENT, ABSENT],
                       [0.6, 0.6, 0.6], [0.0, 0.0, ABSENT]])
_EDGE_RESERVES = [np.array([0.25, 0.5, 0.5]), np.array([0.0, math.inf, 0.5]),
                  np.array([0.5, 0.0, 0.0]), np.zeros(3)]


@pytest.mark.parametrize("r_full", _EDGE_RESERVES, ids=["0.25-0.5-0.5", "inf", "one", "none"])
def test_bidder_arms_at_the_binding_edges_equal_the_per_k_kernels(r_full):
    n = _EDGE_BIDS.shape[1]
    mechanisms = list(Mechanism)
    for cols in itertools.permutations(range(n)):  # so each bidder is treated first somewhere
        bids, r = _EDGE_BIDS[:, list(cols)], r_full[list(cols)]
        got = abtest._bidder_arms(mechanisms, r)(np.random.default_rng(0), bids)
        want = np.stack([payments(bids, np.where(np.arange(n) < k, r, 0.0), mech)
                         for mech in mechanisms for k in range(n + 1)], axis=1)
        assert np.array_equal(got, want)


@pytest.mark.parametrize("r_full", _EDGE_RESERVES, ids=["0.25-0.5-0.5", "inf", "one", "none"])
@pytest.mark.parametrize("mech", list(Mechanism))
def test_empirical_sweep_at_the_binding_edges_equals_per_draw_reference(r_full, mech):
    # a log holds no negative bid and no empty auction: the other edge rows
    bids = _EDGE_BIDS[((_EDGE_BIDS >= 0) | (_EDGE_BIDS == ABSENT)).all(axis=1)
                      & (_EDGE_BIDS > ABSENT).any(axis=1)]
    ids = ("b0", "b1", "b2")
    log = BidLog.from_matrix(bids, ids)
    reserves = ReserveVector(dict(zip(ids, r_full.tolist())))
    fractions = [0.0, 1 / 3, 2 / 3, 1.0]
    res = empirical_treatment_sweep(log, reserves, fractions, mech, 12, seed=3)
    want, _ = _per_draw_sweep(log, reserves, fractions, mech, 12, seed=3)
    assert [(r.mean, r.stderr) for r in res.rows] == want


def test_bidder_split_kernels_see_only_the_auctions_where_a_reserve_can_bind(monkeypatch):
    # uniform(0,1), n = 10, Myerson reserve 1/2: a reserve can bind only where the second bid
    # is below 1/2, in about (n + 1) / 2 ** n = 1.1 % of auctions
    n, trials, seed = 10, 20_000, 4
    seen, original = {mech: [] for mech in Mechanism}, abtest.nested_payments

    def recording(bids, reserves, mechanism):
        seen[mechanism].append(np.array(bids))
        return original(bids, reserves, mechanism)

    monkeypatch.setattr(abtest, "nested_payments", recording)
    sweep_theoretical(UNIFORM, n, list(Mechanism), trials, seed)
    values = UNIFORM.sample(np.random.default_rng(seed), (trials, n))  # the sweep's one chunk
    want = values[_second_bids(values) < 0.5]
    assert 0 < len(want) < 0.02 * trials
    for mech in Mechanism:
        assert np.array_equal(np.concatenate(seen[mech]), want)


def test_eager_empirical_sweep_reruns_only_the_auctions_where_a_reserve_can_bind(monkeypatch):
    log, reserves = _sweep_case(12)
    bids = log.to_matrix()
    second = _second_bids(bids)
    calls = []

    def recording(rows, row, mechanism):
        calls.append((np.array(rows), row.copy()))
        return payments(rows, row, mechanism)

    monkeypatch.setattr(abtest, "payments", recording)
    empirical_treatment_sweep(log, reserves, _FRACTIONS, Mechanism.EAGER, 40, seed=5)
    assert calls
    for rows, row in calls:
        assert np.array_equal(rows, bids[second < row.max()])
    assert any(len(rows) < len(bids) for rows, _ in calls)


def _no_kernel(*args, **kwargs):
    raise AssertionError("a payment kernel call")


def test_bidder_split_estimates_make_no_kernel_call(monkeypatch):
    monkeypatch.setattr(abtest, "payments", _no_kernel)
    for mech in Mechanism:
        sweep_theoretical(UNIFORM, 4, [mech], 1000, seed=1)
        paired_treatment_deltas(UNIFORM, 4, mech, 1000, seed=1)


@pytest.mark.parametrize("n", [1, 3, 10])
@pytest.mark.parametrize("mech", list(Mechanism))
def test_sweep_and_paired_deltas_equal_the_per_k_reference(n, mech):
    res = sweep_theoretical(UNIFORM, n, [mech], _ORACLE_TRIALS, seed=21)
    lazy_ends = ((n - 1) / (n + 1), rev_e_k_closed_uniform(n, n))
    want = [SweepRow(float(k), mech, mean, se, _ORACLE_TRIALS,
                     rev_e_k_closed_uniform(n, k) if mech is Mechanism.EAGER
                     else rev_l_k_closed(n, k, *lazy_ends))
            for k, (mean, se) in enumerate(_reference_all_k(n, mech, _ORACLE_TRIALS, 21))]
    assert list(res.rows) == want
    descriptor = f"theoretical({UNIFORM.name},n={n})"
    assert res.to_tsv() == SweepResult(tuple(want), 21, descriptor).to_tsv()
    deltas = paired_treatment_deltas(UNIFORM, n, mech, _ORACLE_TRIALS, seed=22)
    assert list(deltas) == [abtest.PairedDelta(k, k + 1, mean, se) for k, (mean, se)
                            in enumerate(_reference_all_k(n, mech, _ORACLE_TRIALS, 22, diff=True))]


@pytest.mark.parametrize("n", [1, 3, 10])
@pytest.mark.parametrize("mech", list(Mechanism))
def test_bidder_split_off_scale_1_agrees_with_raw_moments(n, mech):
    # sweeps and paired deltas merge payment / scale; off scale 1 that moves only rounding
    dist = exponential_dist(3.0)
    rows = sweep_theoretical(dist, n, [mech], _ORACLE_TRIALS, seed=21).rows
    deltas = paired_treatment_deltas(dist, n, mech, _ORACLE_TRIALS, seed=22)
    for got, want in ((rows, _reference_all_k(n, mech, _ORACLE_TRIALS, 21, dist=dist)),
                      (deltas, _reference_all_k(n, mech, _ORACLE_TRIALS, 22, True, dist))):
        assert len(got) == len(want)
        for g, (mean, se) in zip(got, want):
            assert g.mean == pytest.approx(mean, rel=1e-12)
            assert g.stderr == pytest.approx(se, rel=1e-9)


@pytest.mark.parametrize("dist", [UNIFORM, exponential_dist(1.0)], ids=["uniform", "exp"])
@pytest.mark.parametrize("n", [2, 5])
@pytest.mark.parametrize("mech", list(Mechanism))
def test_first_k_columns_estimate_what_a_random_ranking_does(dist, n, mech):
    # iid draws with one common reserve are exchangeable, so treating columns < k has the
    # law of treating a uniformly random k-subset per auction: the two estimates agree
    # within noise on every row (independent seeds, so their variances add)
    trials = 200_000
    rows = sweep_theoretical(dist, n, [mech], trials, seed=41).rows
    ranked = _reference_all_k(n, mech, trials, 42, dist=dist, ranked=True)
    assert len(rows) == len(ranked) == n + 1
    for row, (mean, se) in zip(rows, ranked):
        assert abs(row.mean - mean) <= 5.0 * math.hypot(row.stderr, se)


def test_uniform_lazy_endpoints_closed_form_matches_quadrature():
    """The closed uniform(0,1) lazy endpoints are within 1e-15 of quadrature and print alike."""
    for n in range(1, 41):
        refs = abtest._references(UNIFORM, n, Mechanism.LAZY)
        closed = refs[0], refs[-1]
        quad = (expected_second_highest(UNIFORM, n), rev_e_k_quadrature(UNIFORM, n, n))
        for c, q in zip(closed, quad):
            assert abs(c - q) <= 1e-15 * abs(q)
        tsvs = [SweepResult(tuple(SweepRow(float(k), Mechanism.LAZY, 0.5, 0.01, 10,
                                           rev_l_k_closed(n, k, *ends))
                                  for k in range(n + 1)), 1, "t").to_tsv()
                for ends in (closed, quad)]
        assert tsvs[0] == tsvs[1]


@pytest.mark.parametrize("dist", [UNIFORM, exponential_dist(3.0)], ids=["unit", "scale-1/3"])
@pytest.mark.parametrize("mech", list(Mechanism))
def test_simulate_treatment_equals_the_reference_loops(dist, mech):
    # moments merged in the law's unit keep the bits of raw ones at scale 1, and agree
    # with them to rounding elsewhere
    for n, p in ((3, 0.4), (1, 0.7)):
        got = simulate_treatment(dist, n, p, mech, _ORACLE_TRIALS, seed=23)
        want = _reference_simulate(dist, n, p, mech, _ORACLE_TRIALS, 23)
        if dist.scale == 1.0:
            assert got == want
        assert (got.x, got.trials) == (want.x, want.trials)
        assert got.mean == pytest.approx(want.mean, rel=1e-12)
        assert got.stderr == pytest.approx(want.stderr, rel=1e-9)


def _auction_split_estimates(dist):
    row = simulate_treatment(dist, 3, 0.5, Mechanism.EAGER, 20_000, seed=31)
    return [(row.mean, row.stderr)]


def _sweep_estimates(dist):
    res = sweep_theoretical(dist, 3, [Mechanism.EAGER, Mechanism.LAZY], 20_000, seed=31)
    return [(r.mean, r.stderr) for r in res.rows]


def _paired_delta_estimates(dist):
    return [(d.mean, d.stderr)
            for d in paired_treatment_deltas(dist, 3, Mechanism.EAGER, 20_000, seed=31)]


@pytest.mark.parametrize("rate", [1e-300, 1e-160, 1e200, 1e300])
@pytest.mark.parametrize("estimate", [_auction_split_estimates, _sweep_estimates,
                                      _paired_delta_estimates],
                         ids=["auction-split", "sweep", "paired-deltas"])
def test_estimates_at_extreme_scales_are_the_unit_laws_scaled(estimate, rate):
    # squared raw payments underflowed to a stderr of 0, or overflowed to nan, at these rates
    unit, scaled = exponential_dist(1.0), exponential_dist(rate)
    want = estimate(unit)
    got = estimate(scaled)
    assert len(got) == len(want)
    for (mean, se), (unit_mean, unit_se) in zip(got, want):
        assert 0.0 < se < math.inf
        # abs=0: approx's default abs of 1e-12 accepts any value near 1e-200
        assert mean == pytest.approx(unit_mean * scaled.scale, rel=1e-9, abs=0)
        assert se == pytest.approx(unit_se * scaled.scale, rel=1e-9, abs=0)


def test_paired_deltas_detect_dip_and_jump():
    deltas = paired_treatment_deltas(UNIFORM, 5, Mechanism.EAGER,
                                     trials=300_000, seed=17)
    assert [d.k_from for d in deltas] == [0, 1, 2, 3, 4]
    for d in deltas[:4]:  # each treated addition strictly hurts until the last
        assert d.mean + 3.0 * d.stderr < 0.0
    assert deltas[4].mean - 3.0 * deltas[4].stderr > 0.0


def test_paired_deltas_validation():
    with pytest.raises(ValueError):
        paired_treatment_deltas(UNIFORM, 5, Mechanism.EAGER, trials=0, seed=1)


def piecewise_density_dist():
    """Two-slab density on [0, 1] whose virtual value is non-monotone."""
    def cdf(v):
        if v < 0:
            return 0.0
        if v < 0.5:
            return 1.8 * v
        return min(1.0, 0.9 + 0.2 * (v - 0.5))

    def pdf(v):
        if 0 <= v < 0.5:
            return 1.8
        if 0.5 <= v <= 1:
            return 0.2
        return 0.0

    def ppf(u):
        u = np.asarray(u)
        return np.where(u < 0.9, u / 1.8, 0.5 + (u - 0.9) / 0.2)

    return ContinuousDist(name="piecewise", lo=0.0, hi=1.0,
                          cdf=cdf, pdf=pdf, ppf=ppf)


def test_non_regular_dist_refused():
    with pytest.raises(DomainError):
        simulate_treatment(piecewise_density_dist(), 3, 0.5, Mechanism.EAGER, 100, seed=1)
    with pytest.raises(DomainError):
        sweep_theoretical(piecewise_density_dist(), 3, [Mechanism.EAGER],
                          trials=100, seed=1)


def test_sweep_refuses_a_non_finite_row():
    # uniform(0,1)'s cdf and pdf, so the references are finite, but draws above u = 0.5 are
    # 1e308: the second-highest payments of k = 0 sum to inf
    big = ContinuousDist(name="big-tail", lo=0.0, hi=1.0, cdf=UNIFORM.cdf, pdf=UNIFORM.pdf,
                         ppf=lambda u: np.where(np.asarray(u) > 0.5, 1e308, u))
    with pytest.raises(DomainError, match="k=0: mean inf"):
        sweep_theoretical(big, 2, [Mechanism.LAZY, Mechanism.EAGER], trials=1000, seed=1)


def test_law_with_values_below_zero_refused():
    # the kernels never sell to a negative value, but the references integrate over it
    below = uniform_dist(-2.0, 10.0)
    for estimate in (
            lambda: simulate_treatment(below, 2, 0.5, Mechanism.EAGER, 100, seed=1),
            lambda: sweep_theoretical(below, 2, [Mechanism.LAZY], trials=100, seed=1),
            lambda: paired_treatment_deltas(below, 2, Mechanism.EAGER, 100, seed=1)):
        with pytest.raises(DomainError, match="below 0"):
            estimate()


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_law_with_a_draw_that_is_not_finite_refused(bad):
    # the kernels read nan as a bid that clears no reserve: a nan half gave a k = 0 mean of
    # 0.042 against the reference 0.333, with no error
    law = ContinuousDist(name="holed", lo=0.0, hi=1.0, cdf=UNIFORM.cdf, pdf=UNIFORM.pdf,
                         ppf=lambda u: np.where(np.asarray(u) > 0.5, bad, u))
    for estimate in (
            lambda: simulate_treatment(law, 2, 0.5, Mechanism.EAGER, 1000, seed=1),
            lambda: sweep_theoretical(law, 2, [Mechanism.LAZY, Mechanism.EAGER], 1000, seed=1),
            lambda: paired_treatment_deltas(law, 2, Mechanism.EAGER, 1000, seed=1)):
        with pytest.raises(DomainError, match="holed: a draw is not a finite number"):
            estimate()


def test_auction_split_linear_in_fraction():
    def at(p):
        return simulate_treatment(UNIFORM, 3, p, Mechanism.EAGER, 200_000, seed=29)

    lo, mid, hi = at(0.0), at(0.5), at(1.0)
    assert abs(lo.mean - 0.5) < 4 * lo.stderr  # E[second of 3 uniforms]
    assert abs(hi.mean - rev_e_k_closed_uniform(3, 3)) < 4 * hi.stderr
    blend = 0.5 * (lo.mean + hi.mean)
    se = math.sqrt(mid.stderr ** 2 + 0.25 * (lo.stderr ** 2 + hi.stderr ** 2))
    assert abs(mid.mean - blend) < 4 * se
    assert mid.x == 0.5 and mid.trials == 200_000


def test_empirical_sweep_endpoints():
    rng = np.random.default_rng(44)
    bids = rng.uniform(0.0, 10.0, size=(40, 4))
    log = BidLog.from_matrix(bids, ("b0", "b1", "b2", "b3"))
    reserves = ReserveVector({b: 5.0 for b in ("b0", "b1", "b2", "b3")})
    res = empirical_treatment_sweep(log, reserves, [0.0, 0.5, 1.0],
                                    Mechanism.EAGER, assignments_per_point=8, seed=3)
    lo, mid, hi = res.rows
    assert abs(lo.mean - empirical_revenue(log, ReserveVector({}), Mechanism.EAGER)) < 1e-12
    assert lo.stderr < 1e-12
    assert abs(hi.mean - empirical_revenue(log, reserves, Mechanism.EAGER)) < 1e-12
    assert hi.stderr < 1e-12
    assert mid.stderr >= 0.0


def test_empirical_sweep_single_subset_points_have_zero_stderr():
    rng = np.random.default_rng(7)
    log = BidLog.from_matrix(rng.uniform(0.0, 10.0, size=(1000, 5)),
                             ("b0", "b1", "b2", "b3", "b4"))
    reserves = ReserveVector({b: 4.0 + i for i, b in enumerate(log.bidder_ids)})
    for mech in Mechanism:
        res = empirical_treatment_sweep(log, reserves, [0.0, 0.5, 1.0], mech,
                                        assignments_per_point=120, seed=2)
        lo, mid, hi = res.rows
        assert lo.stderr == 0.0 and hi.stderr == 0.0 and mid.stderr > 0.0
        assert abs(lo.mean - empirical_revenue(log, ReserveVector({}), mech)) < 1e-12
        assert abs(hi.mean - empirical_revenue(log, reserves, mech)) < 1e-12


def _per_draw_sweep(log, reserves, fractions, mechanism, assignments, seed):
    """The empirical sweep as its definition: one full-log kernel call per draw.
    Returns the (mean, stderr) rows and the distinct treated subsets drawn."""
    bids = log.to_matrix()
    n = len(log.bidder_ids)
    r_full = np.array([reserves.get(b) for b in log.bidder_ids])
    rng = np.random.default_rng(seed)
    rows, distinct = [], set()
    for f in fractions:
        revs, subsets = np.empty(assignments), set()
        for a in range(assignments):
            subset = rng.choice(n, size=round(f * n), replace=False)
            subsets.add(tuple(sorted(subset.tolist())))
            row = np.zeros(n)
            row[subset] = r_full[subset]
            revs[a] = float(np.mean(payments(bids, row, mechanism)))
        if len(subsets) == 1:
            rows.append((float(revs[0]), 0.0))
        else:
            rows.append((float(np.mean(revs)),
                         float(np.std(revs, ddof=1) / math.sqrt(assignments))))
        distinct |= subsets
    return rows, distinct


_FRACTIONS = [0.0, 0.1, 0.35, 0.5, 0.9, 1.0]


def _sweep_case(n):
    """A T x n log with absent bids (one bidder in every auction) and one +inf reserve."""
    rng = np.random.default_rng(n)
    bids = rng.uniform(0.0, 10.0, size=(300, n))
    bids[rng.random((300, n)) < 0.3] = ABSENT
    bids[:, 0] = rng.uniform(0.0, 10.0, size=300)
    ids = tuple(f"b{i:02d}" for i in range(n))
    reserves = {b: float(rng.uniform(2.0, 8.0)) for b in ids}
    reserves[ids[1]] = math.inf
    return BidLog.from_matrix(bids, ids), ReserveVector(reserves)


@pytest.mark.parametrize("n", [3, 12])
@pytest.mark.parametrize("mech", list(Mechanism))
def test_empirical_sweep_equals_per_draw_reference(n, mech):
    log, reserves = _sweep_case(n)
    res = empirical_treatment_sweep(log, reserves, _FRACTIONS, mech, 40, seed=5)
    want, _ = _per_draw_sweep(log, reserves, _FRACTIONS, mech, 40, seed=5)
    assert [(r.mean, r.stderr) for r in res.rows] == want
    assert [(r.x, r.trials) for r in res.rows] == [(f, 40) for f in _FRACTIONS]


@pytest.mark.parametrize("n", [3, 12])
def test_empirical_sweep_evaluates_each_distinct_subset_once(n, monkeypatch):
    log, reserves = _sweep_case(n)
    _, distinct = _per_draw_sweep(log, reserves, _FRACTIONS, Mechanism.EAGER, 40, seed=5)
    rows = []

    def counting(bids, row, mechanism):
        rows.append(tuple(row.tolist()))
        return payments(bids, row, mechanism)

    monkeypatch.setattr(abtest, "payments", counting)
    empirical_treatment_sweep(log, reserves, _FRACTIONS, Mechanism.EAGER, 40, seed=5)
    assert len(rows) == len(set(rows)) == len(distinct)


def test_lazy_empirical_sweep_orders_the_log_once(monkeypatch):
    log, reserves = _sweep_case(12)
    want = empirical_treatment_sweep(log, reserves, _FRACTIONS, Mechanism.LAZY, 40, seed=5)
    orders, original = [], abtest.lazy_order

    def counting(bids):
        orders.append(bids.shape)
        return original(bids)

    monkeypatch.setattr(abtest, "lazy_order", counting)
    monkeypatch.setattr(abtest, "payments", _no_kernel)
    assert empirical_treatment_sweep(log, reserves, _FRACTIONS, Mechanism.LAZY, 40, seed=5) == want
    assert orders == [(300, 12)]


def test_empirical_sweep_validation():
    bids = np.ones((3, 2))
    log = BidLog.from_matrix(bids, ("a", "b"))
    r = ReserveVector({})
    with pytest.raises(ValueError):
        empirical_treatment_sweep(log, r, [], Mechanism.LAZY, 4, seed=1)
    with pytest.raises(ValueError):
        empirical_treatment_sweep(log, r, [0.5], Mechanism.LAZY, 0, seed=1)
    with pytest.raises(ValueError):
        empirical_treatment_sweep(log, r, [1.5], Mechanism.LAZY, 4, seed=1)


def test_tsv_rendering():
    rows = (SweepRow(0.0, Mechanism.LAZY, 1.25, 0.01, 100, None),
            SweepRow(1.0, Mechanism.EAGER, 1.5, 0.02, 100, 1.49))
    text = SweepResult(rows, seed=9, descriptor="demo").to_tsv()
    lines = text.strip().split("\n")
    assert lines[0] == "# seed=9"
    assert lines[1] == "# source=demo"
    assert lines[2] == "x\tmechanism\tmean\tstderr\ttrials\treference"
    assert lines[3].split("\t") == ["0", "lazy", "1.25", "0.01", "100", ""]
    assert lines[4].split("\t") == ["1", "eager", "1.5", "0.02", "100", "1.49"]
