"""Acceptance suite: one test per release criterion, one printed verdict line each.

Run with `pytest tests/test_acceptance.py -v`; the PASS/FAIL lines print
through the capture so they are visible either way.
"""

import math

import numpy as np

from reservelab.abtest import (paired_treatment_deltas, rev_e_k_closed_uniform,
                               rev_e_k_quadrature, sweep_theoretical)
from reservelab.cli import main
from reservelab.distributions import uniform_dist
from reservelab.generators import (gen_hardness_instance, geometric_pair_analysis,
                                   high_low_exact, independent_set_number)
from reservelab.logs import BidLog
from reservelab.mechanics import (BidProfile, Mechanism, ReserveVector, run_auction,
                                  run_eager, run_lazy)
from reservelab.optimize import (empirical_revenue, optimal_eager_exact, optimal_lazy,
                                 optimal_lazy_bruteforce)
from reservelab.product import (FiniteDist, ProductDist, expected_revenue_product,
                                optimal_reserves_product, trim_lift)
from reservelab.vectorized import payments

from oracles import criterion_09_analysis


def report(capsys, num: int, label: str, failures: list):
    with capsys.disabled():
        verdict = "PASS" if not failures else f"FAIL ({failures[0]})"
        print(f"criterion {num:02d} {label}: {verdict}")
    assert not failures, f"criterion {num}: {failures[:3]}"


def total_revenue(log: BidLog, reserves: ReserveVector, mechanism: Mechanism) -> float:
    pay = payments(log.to_matrix(), [reserves.get(b) for b in log.bidder_ids], mechanism)
    return math.fsum(pay.tolist())


def test_criterion_01_worked_example_revenues(capsys):
    failures = []
    profile = BidProfile("a1", {"A": 7.0, "B": 5.0, "C": 3.0})
    high = ReserveVector({"A": 8.0, "B": 1.0, "C": 2.0})
    mixed = ReserveVector({"A": 2.0, "B": 6.0, "C": 1.0})
    for reserves, want_lazy, want_eager, tag in ((high, 0.0, 3.0, "(8,1,2)"),
                                                 (mixed, 5.0, 3.0, "(2,6,1)")):
        got_l = run_lazy(profile, reserves).payment
        got_e = run_eager(profile, reserves).payment
        if got_l != want_lazy:
            failures.append(f"lazy at {tag}: {got_l} != {want_lazy}")
        if got_e != want_eager:
            failures.append(f"eager at {tag}: {got_e} != {want_eager}")
    report(capsys, 1, "worked-example revenues exact", failures)


def random_mixed_log(rng, max_bidders=6, max_auctions=200) -> BidLog:
    n = int(rng.integers(1, max_bidders + 1))
    T = int(rng.integers(1, max_auctions + 1))
    ids = [f"b{i}" for i in range(n)]
    pool = [1.5, 2.5, 5.0]
    profiles = []
    for t in range(T):
        k = int(rng.integers(1, n + 1))
        bidders = rng.choice(n, size=k, replace=False)
        bids = {}
        for i in bidders:
            kind = rng.integers(3)
            if kind == 0:
                bid = float(rng.integers(1, 8))
            elif kind == 1:
                bid = round(float(rng.uniform(0.0, 10.0)), 2)
            else:
                bid = float(rng.choice(pool))
            bids[ids[i]] = bid
        profiles.append(BidProfile(f"a{t}", bids))
    return BidLog(tuple(profiles))


def test_criterion_02_lazy_scan_oracle_equivalence(capsys):
    rng = np.random.default_rng(2024)
    failures = []
    for i in range(500):
        log = random_mixed_log(rng)
        fast = optimal_lazy(log).expected_revenue
        slow = optimal_lazy_bruteforce(log).expected_revenue
        if fast != slow:
            failures.append(f"log {i}: search {fast!r} != bruteforce {slow!r}")
    report(capsys, 2, "lazy search equals bruteforce on 500 random logs", failures)


def random_small_pool_log(rng) -> BidLog:
    n = int(rng.integers(1, 5))
    values = np.round(np.linspace(0.5, 9.5, 19), 2)
    pool = rng.choice(values, size=int(rng.integers(2, 9)), replace=False)
    T = int(rng.integers(1, 26))
    ids = [f"b{i}" for i in range(n)]
    profiles = []
    for t in range(T):
        k = int(rng.integers(1, n + 1))
        bidders = rng.choice(n, size=k, replace=False)
        profiles.append(BidProfile(
            f"a{t}", {ids[i]: float(rng.choice(pool)) for i in bidders}))
    return BidLog(tuple(profiles))


def test_criterion_03_factor_two_sandwich(capsys):
    rng = np.random.default_rng(303)
    failures = []
    for i in range(200):
        log = random_small_pool_log(rng)
        lazy = optimal_lazy(log)
        eager = optimal_eager_exact(log)
        opt_l, opt_e = lazy.expected_revenue, eager.expected_revenue
        if not opt_l <= 2.0 * opt_e + 1e-9:
            failures.append(f"log {i}: OPT_L {opt_l} > 2 OPT_E {opt_e}")
        if not opt_e <= 2.0 * opt_l + 1e-9:
            failures.append(f"log {i}: OPT_E {opt_e} > 2 OPT_L {opt_l}")
        recipe = empirical_revenue(log, lazy.reserves, Mechanism.EAGER)
        if not recipe >= opt_e / 2.0 - 1e-9:
            failures.append(f"log {i}: eager at lazy reserves {recipe} < OPT_E/2")
    report(capsys, 3, "factor-2 sandwich on 200 small logs", failures)


def test_criterion_04_hardness_identity(capsys):
    rng = np.random.default_rng(404)
    failures = []
    for i in range(50):
        n = int(rng.integers(1, 6))
        all_edges = [(u, v) for u in range(n) for v in range(u + 1, n)]
        mask = rng.random(len(all_edges)) < 0.5
        edges = [e for e, keep in zip(all_edges, mask) if keep]
        log = gen_hardness_instance(range(n), edges, L=2.0, H=3.0)
        result = optimal_eager_exact(log)
        got = total_revenue(log, result.reserves, Mechanism.EAGER)
        want = 2.0 * (len(edges) + n) + independent_set_number(n, edges)
        if got != want:
            failures.append(f"graph {i} (n={n}, m={len(edges)}): {got} != {want}")
    report(capsys, 4, "hardness-reduction identity on 50 random graphs", failures)


def random_three_bidder_product(rng) -> ProductDist:
    bidders = {}
    for i in range(3):
        m = int(rng.integers(1, 5))
        values = rng.choice(np.arange(0.0, 8.0, 0.5), size=m, replace=False)
        weights = rng.integers(1, 6, size=m)
        total = int(weights.sum())
        bidders[f"b{i}"] = FiniteDist(tuple(
            (float(v), int(w) / total) for v, w in zip(values, weights)))
    return ProductDist(bidders)


def test_criterion_05_independence_dominance(capsys):
    rng = np.random.default_rng(505)
    failures = []
    for i in range(100):
        dist = random_three_bidder_product(rng)
        _, rev_l = optimal_reserves_product(dist, Mechanism.LAZY)
        _, rev_e = optimal_reserves_product(dist, Mechanism.EAGER)
        if not rev_e >= rev_l - 1e-9:
            failures.append(f"dist {i}: eager opt {rev_e} < lazy opt {rev_l}")
        r = ReserveVector({b: float(rng.choice([0.0, 2.0, 4.0, 7.0]))
                           for b in dist.bidder_ids()})
        out_dist, out_r = trim_lift(dist, r)
        before = expected_revenue_product(dist, r, Mechanism.LAZY)
        after_l = expected_revenue_product(out_dist, out_r, Mechanism.LAZY)
        after_e = expected_revenue_product(out_dist, out_r, Mechanism.EAGER)
        lifted_e = expected_revenue_product(dist, out_r, Mechanism.EAGER)
        # 1e-12 relative slack: the inequality links compare two different
        # enumerations, which can round a genuine tie one ulp apart
        if not before <= after_l + 1e-12 * max(1.0, abs(before)):
            failures.append(f"dist {i}: trim dropped revenue {before} -> {after_l}")
        if after_l != after_e:
            failures.append(f"dist {i}: lazy {after_l} != eager {after_e} after trim")
        if not after_e <= lifted_e + 1e-12 * max(1.0, abs(after_e)):
            failures.append(f"dist {i}: lift chain broken {after_e} > {lifted_e}")
    report(capsys, 5, "independence dominance and trim-lift chain", failures)


def test_criterion_06_uniform_five_bidder_paradox(capsys):
    failures = []
    published = (0.6666667, 0.665625, 0.6640625, 0.6614583, 0.65625, 0.671875)
    closed = [rev_e_k_closed_uniform(5, k) for k in range(6)]
    for k, (got, want) in enumerate(zip(closed, published)):
        if abs(got - want) > 5e-8:
            failures.append(f"closed form k={k}: {got} vs {want}")
    uniform = uniform_dist()
    eager = sweep_theoretical(uniform, 5, [Mechanism.EAGER], trials=1_000_000, seed=606)
    for row in eager.rows:
        if abs(row.mean - row.reference) > 3.0 * row.stderr:
            failures.append(f"eager MC k={row.x}: {row.mean} vs {row.reference} "
                            f"se {row.stderr}")
    deltas = paired_treatment_deltas(uniform, 5, Mechanism.EAGER,
                                     trials=1_000_000, seed=607)
    for d in deltas[:4]:
        if not d.mean + 3.0 * d.stderr < 0.0:
            failures.append(f"decrease {d.k_from}->{d.k_to} not detected")
    if not deltas[4].mean - 3.0 * deltas[4].stderr > 0.0:
        failures.append("jump at k=5 not detected")
    lazy = sweep_theoretical(uniform, 5, [Mechanism.LAZY], trials=1_000_000, seed=608)
    for row in lazy.rows:
        if abs(row.mean - row.reference) > 3.0 * row.stderr:
            failures.append(f"lazy MC k={row.x}: {row.mean} vs {row.reference}")
    report(capsys, 6, "five-bidder uniform dip and jump", failures)


def test_criterion_07_quadrature_cross_check(capsys):
    failures = []
    uniform = uniform_dist()
    for n in (2, 5, 8):
        for k in range(n + 1):
            q = rev_e_k_quadrature(uniform, n, k)
            c = rev_e_k_closed_uniform(n, k)
            if abs(q - c) > 1e-6:
                failures.append(f"n={n} k={k}: quad {q} vs closed {c}")
    report(capsys, 7, "quadrature matches closed form within 1e-6", failures)


def test_criterion_08_high_low_eager_advantage(capsys):
    failures = []
    ratios = []
    for n in (50, 100, 200):
        a = high_low_exact(n)
        ratios.append(a.ratio)
        if a.ratio < 1.7:
            failures.append(f"n={n}: ratio {a.ratio} < 1.7")
        if not a.ratio < 2.0:
            failures.append(f"n={n}: ratio {a.ratio} not below the limit 2")
    if not ratios[0] < ratios[1] < ratios[2]:
        failures.append(f"ratios not increasing: {ratios}")
    report(capsys, 8, "high-low family: eager/lazy ratio >= 1.7 rising to 2", failures)


def test_criterion_09_correlated_lazy_advantage(capsys):
    failures = []
    a = criterion_09_analysis()
    if a.ratio < 1.7:
        failures.append(f"lazy/eager ratio {a.ratio} < 1.7")
    report(capsys, 9, "correlated pair: lazy/eager ratio >= 1.7", failures)


def test_criterion_10_monopoly_reserves_can_hurt(capsys):
    failures = []
    g10 = geometric_pair_analysis(10, 1e-3)
    g16 = geometric_pair_analysis(16, 1e-3)
    if g10.ratio < 3.0:
        failures.append(f"K=10 ratio {g10.ratio} < 3")
    if not g16.ratio > g10.ratio:
        failures.append(f"ratio does not grow: K=16 {g16.ratio} vs K=10 {g10.ratio}")
    report(capsys, 10, "zero-reserve/monopoly ratio >= 3 and growing", failures)


def test_criterion_11_pipeline_tables(capsys, tmp_path):
    failures = []
    gen_out = tmp_path / "gen"
    code = main(["gen", "--generator", "iid",
                 "--params", '{"dist": "uniform", "n": 5, "lo": 0.0, "hi": 10.0}',
                 "--count", "100000", "--seed", "1111", "--out", str(gen_out)])
    if code != 0:
        failures.append(f"gen exit {code}")
    log_path = gen_out / "log.csv"

    lift_out = tmp_path / "lift"
    code = main(["lift-tables", "--input", str(log_path), "--out", str(lift_out)])
    if code != 0:
        failures.append(f"lift-tables exit {code}")
    for name in ("lift_revenue.tsv", "lift_welfare.tsv"):
        lines = (lift_out / name).read_text().strip().split("\n")
        if len(lines) != 3 or not lines[0].startswith("slot\tbasis\t"):
            failures.append(f"{name}: malformed table")
            continue
        basis = [ln.split("\t")[1] for ln in lines[1:]]
        if basis != ["raw", "normalized"]:
            failures.append(f"{name}: bases {basis}")
        cells = lines[2].split("\t")[2:]
        if len(cells) != 4 or any(not _is_float(c) for c in cells):
            failures.append(f"{name}: bad normalized row {cells}")

    opt_out = tmp_path / "opt"
    code = main(["optimize", "--task", "lazy", "--input", str(log_path),
                 "--out", str(opt_out)])
    if code != 0:
        failures.append(f"optimize exit {code}")
    sweep_out = tmp_path / "sweep"
    code = main(["sweep", "--mode", "empirical", "--input", str(log_path),
                 "--reserves", str(opt_out / "reserves.csv"),
                 "--assignments", "120", "--mechanism", "lazy", "--seed", "99",
                 "--out", str(sweep_out)])
    if code != 0:
        failures.append(f"sweep exit {code}")
    rows = []
    for ln in (sweep_out / "sweep.tsv").read_text().splitlines()[3:]:
        parts = ln.split("\t")
        rows.append((float(parts[0]), float(parts[2]), float(parts[3])))
    if len(rows) != 6:
        failures.append(f"sweep rows {len(rows)} != 6")
    for (x0, m0, s0), (x1, m1, s1) in zip(rows, rows[1:]):
        if not m1 >= m0 - 3.0 * math.hypot(s0, s1):
            failures.append(f"lazy sweep decreases from f={x0} to f={x1}: {m0} -> {m1}")
    report(capsys, 11, "log pipeline tables well formed, lazy sweep monotone", failures)


def _is_float(tok: str) -> bool:
    try:
        float(tok)
    except ValueError:
        return False
    return True


def random_incentive_instance(rng):
    n = int(rng.integers(1, 6))
    ids = [f"b{i}" for i in range(n)]
    bids = {}
    for i in ids:
        if rng.random() < 0.5:
            bids[i] = float(rng.integers(0, 8))
        else:
            bids[i] = round(float(rng.uniform(0.0, 10.0)), 2)
    reserves = {}
    for i in ids:
        u = rng.random()
        if u < 0.15:
            reserves[i] = 0.0
        elif u < 0.2:
            reserves[i] = math.inf
        elif u < 0.6:
            reserves[i] = float(rng.integers(0, 9))
        else:
            reserves[i] = round(float(rng.uniform(0.0, 11.0)), 2)
    return BidProfile("a", bids), ReserveVector(reserves)


def test_criterion_12_incentive_suite(capsys):
    rng = np.random.default_rng(1212)
    failures = []
    for i in range(10_000):
        profile, reserves = random_incentive_instance(rng)
        for mech in Mechanism:
            out = run_auction(profile, reserves, mech)
            if out.winner is None:
                continue
            bid = profile.bids[out.winner]
            pay = out.payment
            if not 0.0 <= pay <= bid:
                failures.append(f"case {i} {mech.value}: payment {pay} out of [0, {bid}]")
                break
            up = dict(profile.bids)
            up[out.winner] = pay + 1.0
            res_up = run_auction(BidProfile("a", up), reserves, mech)
            if res_up.winner != out.winner or res_up.payment != pay:
                failures.append(f"case {i} {mech.value}: raising the bid above "
                                f"{pay} changed the outcome")
                break
            if pay > 0.0:
                down = dict(profile.bids)
                down[out.winner] = pay * 0.5
                res_down = run_auction(BidProfile("a", down), reserves, mech)
                if res_down.winner == out.winner:
                    failures.append(f"case {i} {mech.value}: bidding below the "
                                    f"payment {pay} still wins")
                    break
        if failures:
            break
    report(capsys, 12, "incentive compatibility and rationality, 1e4 cases", failures)
