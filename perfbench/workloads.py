"""The benchmark's workloads: timed operations on reservelab and their output checks.

Every call into the program goes through a module attribute at call time
(`RL.cli.main`, `RL.product.trim_lift`, ...), so the traced run sees the
wrappers layers.py installs on those names.
"""

from __future__ import annotations

import functools
import json
import math
import os
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

import reservelab as RL
import reservelab.cli  # noqa: F401  (binds RL.cli)


class OpFailed(Exception):
    pass


@dataclass
class Op:
    name: str
    stage: Optional[str]                      # end-to-end metric this op's time adds to
    run: Callable[[str], object]              # run(rep_dir) -> value handed to check
    artifacts: tuple[str, ...]                # rep-relative data files compared across reps
    check: Callable[[str, object], list[str]]  # (rep_dir, value) -> failure messages
    probe: bool = False                       # known-defect probe: reported, not counted
    trials: int = 0                           # Monte-Carlo trials x mechanisms; makes the
                                              # stage a rate (trials per second)


def cli(*argv: str) -> None:
    code = RL.cli.main(list(argv))
    if code != 0:
        raise OpFailed(f"reservelab {argv[0]} exited {code}")


def cli_op(name, stage, argv_fn, artifacts, check, probe=False, trials=0) -> Op:
    return Op(name, stage, lambda rep: cli(*argv_fn(rep)), tuple(artifacts), check, probe,
              trials)


# ---------------------------------------------------------------------------
# Readers the checks use. They do not go through reservelab, so a parser bug
# cannot hide itself.

def read_log(path: str) -> dict[str, dict[str, float]]:
    """auction_id -> {bidder_id: bid}, in file order, from a CSV or JSONL log."""
    out: dict[str, dict[str, float]] = {}
    with open(path, encoding="utf-8") as fh:
        if path.endswith(".csv"):
            if next(fh).rstrip("\n") != "auction_id,bidder_id,bid":
                raise OpFailed(f"{path}: bad header")
            recs = (line.rstrip("\n").split(",") for line in fh)
        else:
            recs = ((o["auction_id"], o["bidder_id"], o["bid"]) for o in map(json.loads, fh))
        for aid, bidder, bid in recs:
            out.setdefault(aid, {})[bidder] = float(bid)
    return out


def read_reserves(path: str) -> dict[str, float]:
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if lines[0] != "bidder_id,reserve":
        raise OpFailed(f"{path}: bad header")
    return {b: float(tok) for b, tok in (ln.split(",") for ln in lines[1:])}


def read_summary(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def read_sweep(path: str) -> list[tuple[float, str, float, float, Optional[float]]]:
    """(x, mechanism, mean, stderr, reference or None) per row of a sweep.tsv."""
    rows = []
    with open(path, encoding="utf-8") as fh:
        for ln in fh.read().splitlines()[3:]:
            x, mech, mean, se, _trials, ref = ln.split("\t")
            rows.append((float(x), mech, float(mean), float(se), float(ref) if ref else None))
    return rows


def scalar_total(log: dict[str, dict[str, float]], reserves: dict[str, float], mech) -> float:
    """Summed payments over the log by the scalar reference `reservelab.mechanics`."""
    m = RL.mechanics
    rv = m.ReserveVector(reserves)
    return math.fsum(m.run_auction(m.BidProfile(aid, bids), rv, mech).payment
                     for aid, bids in log.items())


def rel_close(a: float, b: float, tol: float = 1e-9) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


def z_failures(path: str, label: str) -> list[str]:
    bad = []
    for x, mech, mean, se, ref in read_sweep(path):
        if ref is None or not se > 0:
            bad.append(f"{label}: row x={x:g} {mech} has no reference or a zero stderr")
        elif abs(mean - ref) / se > 5.0:
            bad.append(f"{label}: row x={x:g} {mech} |z| = {abs(mean - ref) / se:.2f} > 5")
    return bad


def max_abs_z(paths: list[str]) -> float:
    zs = [abs(mean - ref) / se for p in paths if os.path.exists(p)
          for _, _, mean, se, ref in read_sweep(p) if ref is not None and se > 0]
    return max(zs, default=0.0)


def distinct_candidates(log: dict[str, dict[str, float]]) -> int:
    """Size of the eager search's per-bidder candidate set: {0} plus every distinct bid."""
    return len({0.0} | {v for bids in log.values() for v in bids.values()})


def dump(rep: str, name: str, obj) -> None:
    """Serialize a library result with full float digits, for the determinism check."""
    with open(os.path.join(rep, name), "w", encoding="utf-8") as fh:
        json.dump(obj, fh, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------------------
# Workloads

UNIFORM_0_10 = {"dist": "uniform", "lo": 0, "hi": 10}


def log_pipeline(seed: int) -> list[Op]:
    """gen -> optimize lazy -> lift-tables -> empirical sweep on a 100k x 5 uniform log."""
    params = json.dumps(dict(UNIFORM_0_10, n=5))
    T, n = 100_000, 5
    j = os.path.join

    @functools.lru_cache(maxsize=1)  # read once for the gen and sweep checks
    def log_of(rep):
        return read_log(j(rep, "gen", "log.csv"))

    def check_gen(rep, _):
        log = log_of(rep)
        bad = [] if len(log) == T else [f"log has {len(log)} auctions, want {T}"]
        if any(len(b) != n or not all(0.0 <= v <= 10.0 for v in b.values()) for b in log.values()):
            bad.append("log rows are not 5 bids in [0, 10]")
        return bad

    def check_optimize(rep, _):
        s = read_summary(j(rep, "opt", "summary.json"))
        if not s["expected_revenue"] >= s["revenue_zero_reserve"]:
            return [f"lazy optimum {s['expected_revenue']} < zero-reserve {s['revenue_zero_reserve']}"]
        return []

    def check_lift(rep, _):
        bad = []
        for name in ("lift_revenue.tsv", "lift_welfare.tsv"):
            with open(j(rep, "lift", name), encoding="utf-8") as fh:
                lines = fh.read().strip().split("\n")
            if len(lines) != 3 or not lines[0].startswith("slot\tbasis\t"):
                bad.append(f"{name}: malformed table")
                continue
            if [ln.split("\t")[1] for ln in lines[1:]] != ["raw", "normalized"]:
                bad.append(f"{name}: bad basis column")
            cells = lines[2].split("\t")[2:]
            try:
                [float(c) for c in cells]
            except ValueError:
                bad.append(f"{name}: non-numeric normalized row {cells}")
            if len(cells) != 4:
                bad.append(f"{name}: normalized row has {len(cells)} cells")
        if bad:
            return bad
        # the lift report's lazy:rstar_l delta is the optimizer's revenue minus rev0
        s = read_summary(j(rep, "opt", "summary.json"))
        with open(j(rep, "lift", "lift_revenue.tsv"), encoding="utf-8") as fh:
            raw = fh.read().split("\n")[1].split("\t")
        want = s["expected_revenue"] - s["revenue_zero_reserve"]
        if not abs(float(raw[2]) - want) <= 1e-9 * s["revenue_zero_reserve"]:
            bad.append(f"lift delta_lazy_rstar_l {raw[2]} != optimizer gain {want}")
        return bad

    def check_sweep(rep, _):
        bad = []
        s = read_summary(j(rep, "opt", "summary.json"))
        rows = read_sweep(j(rep, "sweep", "sweep.tsv"))
        if len(rows) != 12:
            return [f"sweep has {len(rows)} rows, want 12"]
        by = {(x, mech): mean for x, mech, mean, _, _ in rows}
        for mech in ("lazy", "eager"):
            if not rel_close(by[(0.0, mech)], s["revenue_zero_reserve"]):
                bad.append(f"{mech} f=0 row {by[(0.0, mech)]} != rev0 {s['revenue_zero_reserve']}")
        if not rel_close(by[(1.0, "lazy")], s["expected_revenue"]):
            bad.append(f"lazy f=1 row {by[(1.0, 'lazy')]} != lazy:rstar_l {s['expected_revenue']}")
        # vectorized kernels against the scalar reference on 1000 seeded rows
        log = log_of(rep)
        reserves = read_reserves(j(rep, "opt", "reserves.csv"))
        ids = sorted(reserves)
        aids = list(log)
        pick = np.random.default_rng(seed).choice(len(aids), size=1000, replace=False)
        sub = {aids[i]: log[aids[i]] for i in sorted(pick)}
        bids = np.array([[b[k] for k in ids] for b in sub.values()])
        row = np.array([reserves[k] for k in ids])
        m = RL.mechanics
        for mech in (m.Mechanism.LAZY, m.Mechanism.EAGER):
            fast = RL.vectorized.payments(bids, row, mech).tolist()
            ref = [m.run_auction(m.BidProfile(a, b), m.ReserveVector(reserves), mech).payment
                   for a, b in sub.items()]
            if fast != ref:
                bad.append(f"vectorized {mech.value} payments differ from mechanics.run_auction")
        return bad

    return [
        cli_op("gen", "gen_s", lambda r: [
            "gen", "--generator", "iid", "--params", params, "--count", str(T),
            "--seed", str(seed), "--out", j(r, "gen")], ["gen/log.csv"], check_gen),
        cli_op("optimize_lazy", "optimize_lazy_s", lambda r: [
            "optimize", "--task", "lazy", "--input", j(r, "gen", "log.csv"),
            "--out", j(r, "opt")], ["opt/reserves.csv"], check_optimize),
        cli_op("lift_tables", "lift_tables_s", lambda r: [
            "lift-tables", "--input", j(r, "gen", "log.csv"), "--out", j(r, "lift")],
            ["lift/lift_revenue.tsv", "lift/lift_welfare.tsv"], check_lift),
        cli_op("sweep_empirical", "sweep_empirical_s", lambda r: [
            "sweep", "--mode", "empirical", "--input", j(r, "gen", "log.csv"),
            "--reserves", j(r, "opt", "reserves.csv"), "--mechanism", "both",
            "--assignments", "120", "--seed", str(seed), "--out", j(r, "sweep")],
            ["sweep/sweep.tsv"], check_sweep),
    ]


# Petersen graph: 10 vertices, 15 edges, independence number 4. 3^10 eager vectors.
PETERSEN_EDGES = ([(i, (i + 1) % 5) for i in range(5)] + [(i, i + 5) for i in range(5)]
                  + [(5 + i, 5 + (i + 2) % 5) for i in range(5)])
HARDNESS = {"vertices": list(range(10)), "edges": [list(e) for e in PETERSEN_EDGES],
            "L": 2, "H": 3}
EAGER_LOCAL_SIZES = (250, 500, 1000)
# Fixed round count: rounds-to-convergence varies with the seed (4 to 6 at T = 500),
# which would make the run's work depend on it. Each round is one full line search
# per bidder, the cost the growth exponent measures.
EAGER_LOCAL_ROUNDS = 3
PRODUCT_BATCH = 8


def product_batch(seed: int):
    """Seeded 4-bidder, 4-atom product laws. Each law draws 8 distinct atom values and
    gives bidder i the window of 4 starting at value 2i (cyclically), so bidders share
    atoms (ties) and every eager search covers exactly 9^4 vectors whatever the seed."""
    p = RL.product
    rng = np.random.default_rng([seed, 5])
    out = []
    for _ in range(PRODUCT_BATCH):
        values = (rng.choice(8000, size=8, replace=False) + 1) / 1000.0
        bidders = {}
        for i in range(4):
            w = rng.integers(1, 6, size=4)
            atoms = [values[(2 * i + t) % 8] for t in range(4)]
            bidders[f"b{i}"] = p.FiniteDist(tuple(
                (float(v), int(x) / int(w.sum())) for v, x in zip(atoms, w)))
        out.append(p.ProductDist(bidders))
    return out


def eager_search(seed: int) -> list[Op]:
    """Eager local search at three log sizes, exact eager search, product-law search."""
    j = os.path.join
    m = RL.mechanics
    dists = product_batch(seed)
    ops = []

    def gen_check(path, auctions, bidders):
        def check(rep, _):
            log = read_log(j(rep, path))
            if len(log) != auctions or any(len(b) > bidders for b in log.values()):
                return [f"{path}: {len(log)} auctions, want {auctions} of <= {bidders} bidders"]
            return []
        return check

    def revenue_check(log_path, out_dir):
        """Reported revenue equals the scalar reference on the written reserves."""
        def check(rep, _):
            s = read_summary(j(rep, out_dir, "summary.json"))
            log = read_log(j(rep, log_path))
            got = scalar_total(log, read_reserves(j(rep, out_dir, "reserves.csv")),
                               m.Mechanism.EAGER) / len(log)
            bad = []
            if not rel_close(got, s["expected_revenue"]):
                bad.append(f"{out_dir}: reported {s['expected_revenue']} != scalar {got}")
            if not s["expected_revenue"] >= s["revenue_zero_reserve"]:
                bad.append(f"{out_dir}: revenue below the zero-reserve start")
            return bad
        return check

    uniform5 = json.dumps(dict(UNIFORM_0_10, n=5))
    for T in EAGER_LOCAL_SIZES:
        log_path = f"gen_T{T}/log.jsonl"
        ops.append(cli_op(f"gen_T{T}", None, lambda r, T=T: [
            "gen", "--generator", "iid", "--params", uniform5, "--count", str(T),
            "--seed", str(seed), "--format", "jsonl", "--out", j(r, f"gen_T{T}")],
            [log_path], gen_check(log_path, T, 5)))
        ops.append(cli_op(f"eager_local_T{T}", "eager_local_s", lambda r, T=T, p=log_path: [
            "optimize", "--task", "eager-local", "--max-rounds", str(EAGER_LOCAL_ROUNDS),
            "--input", j(r, p), "--out", j(r, f"local_T{T}")],
            [f"local_T{T}/reserves.csv"], revenue_check(log_path, f"local_T{T}")))

    def check_exact_small(rep, _):
        bad = revenue_check("gen_T30/log.csv", "exact_T30")(rep, None)
        exact = read_summary(j(rep, "exact_T30", "summary.json"))["expected_revenue"]
        local = RL.optimize.eager_coordinate_ascent(
            RL.logio.parse_log(j(rep, "gen_T30", "log.csv"))).expected_revenue
        if not exact >= local - 1e-12 * abs(local):
            bad.append(f"eager-exact {exact} < eager-local {local} on the T=30 log")
        return bad

    ops.append(cli_op("gen_T30", None, lambda r: [
        "gen", "--generator", "iid", "--params", json.dumps(dict(UNIFORM_0_10, n=3)),
        "--count", "30", "--seed", str(seed), "--out", j(r, "gen_T30")],
        ["gen_T30/log.csv"], gen_check("gen_T30/log.csv", 30, 3)))
    ops.append(cli_op("eager_exact_T30", "eager_exact_s", lambda r: [
        "optimize", "--task", "eager-exact", "--input", j(r, "gen_T30", "log.csv"),
        "--out", j(r, "exact_T30")], ["exact_T30/reserves.csv"], check_exact_small))

    def check_hardness(rep, _):
        log = read_log(j(rep, "hardness", "log.csv"))
        got = scalar_total(log, read_reserves(j(rep, "exact_hardness", "reserves.csv")),
                           m.Mechanism.EAGER)
        L, H, edges = HARDNESS["L"], HARDNESS["H"], PETERSEN_EDGES
        alpha = RL.generators.independent_set_number(10, edges)
        want = L * (len(edges) + 10) + (H - L) * alpha
        return [] if got == want else [f"hardness revenue {got} != L(|E|+|V|) + (H-L)a = {want}"]

    ops.append(cli_op("gen_hardness", None, lambda r: [
        "gen", "--generator", "hardness", "--params", json.dumps(HARDNESS),
        "--out", j(r, "hardness")], ["hardness/log.csv"], gen_check("hardness/log.csv", 25, 2)))
    ops.append(cli_op("eager_exact_hardness", "eager_exact_s", lambda r: [
        "optimize", "--task", "eager-exact", "--input", j(r, "hardness", "log.csv"),
        "--out", j(r, "exact_hardness")], ["exact_hardness/reserves.csv"], check_hardness))

    def run_product(rep):
        p = RL.product
        results = []
        for d in dists:
            lazy_r, lazy_rev = p.optimal_reserves_product(d, m.Mechanism.LAZY)
            eager_r, eager_rev = p.optimal_reserves_product(d, m.Mechanism.EAGER)
            out_d, out_r = p.trim_lift(d, lazy_r)
            results.append((lazy_r, lazy_rev, eager_r, eager_rev, out_d, out_r))
        dump(rep, "product.json", [
            [dict(lr.reserves), lv, dict(er.reserves), ev,
             {b: list(fd.atoms) for b, fd in od.bidders.items()}, dict(orr.reserves)]
            for lr, lv, er, ev, od, orr in results])
        return results

    def check_product(rep, results):
        # criterion 5: eager optimum >= lazy optimum; trim-lift keeps lazy revenue,
        # makes lazy == eager, and the lifted reserves on the original law do no worse
        p, bad = RL.product, []
        for i, (d, (lazy_r, lazy_rev, _, eager_rev, out_d, out_r)) in enumerate(zip(dists, results)):
            if not eager_rev >= lazy_rev - 1e-9:
                bad.append(f"law {i}: eager opt {eager_rev} < lazy opt {lazy_rev}")
            before = p.expected_revenue_product(d, lazy_r, m.Mechanism.LAZY)
            after_l = p.expected_revenue_product(out_d, out_r, m.Mechanism.LAZY)
            after_e = p.expected_revenue_product(out_d, out_r, m.Mechanism.EAGER)
            lifted_e = p.expected_revenue_product(d, out_r, m.Mechanism.EAGER)
            if not before <= after_l + 1e-12 * max(1.0, abs(before)):
                bad.append(f"law {i}: trim dropped revenue {before} -> {after_l}")
            if after_l != after_e:
                bad.append(f"law {i}: lazy {after_l} != eager {after_e} after trim")
            if not after_e <= lifted_e + 1e-12 * max(1.0, abs(after_e)):
                bad.append(f"law {i}: lift chain broken {after_e} > {lifted_e}")
        return bad

    ops.append(Op("product_search", "product_search_s", run_product, ("product.json",),
                  check_product))
    return ops


MC_SIZES = (2, 5, 10)
MC_TRIALS = 1_000_000


def mc_sweep(seed: int) -> list[Op]:
    """Theoretical Monte-Carlo sweeps at three bidder counts, paired deltas, exponential probe."""
    j = os.path.join
    m = RL.mechanics
    uniform01 = RL.distributions.uniform_dist(0.0, 1.0)
    ops = []
    for n in MC_SIZES:
        def check(rep, _, n=n):
            path = j(rep, f"sweep_n{n}", "sweep.tsv")
            rows = read_sweep(path)
            if len(rows) != 2 * (n + 1):
                return [f"n={n}: {len(rows)} rows, want {2 * (n + 1)}"]
            return z_failures(path, f"n={n}")
        ops.append(cli_op(f"sweep_uniform_n{n}", "mc_trials_per_s", lambda r, n=n: [
            "sweep", "--mode", "theoretical", "--dist", "uniform", "--n", str(n),
            "--trials", str(MC_TRIALS), "--mechanism", "both", "--seed", str(seed),
            "--out", j(r, f"sweep_n{n}")], [f"sweep_n{n}/sweep.tsv"], check,
            trials=2 * MC_TRIALS))

    def run_paired(rep):
        deltas = RL.abtest.paired_treatment_deltas(uniform01, 5, m.Mechanism.EAGER, MC_TRIALS, seed)
        dump(rep, "paired.json", [[d.k_from, d.k_to, d.mean, d.stderr] for d in deltas])
        return deltas

    def check_paired(rep, deltas):
        bad = []
        closed = RL.abtest.rev_e_k_closed_uniform
        for d in deltas:
            want = closed(5, d.k_to) - closed(5, d.k_from)
            if not d.stderr > 0 or abs(d.mean - want) / d.stderr > 5.0:
                bad.append(f"paired delta {d.k_from}->{d.k_to}: {d.mean} vs closed form {want}")
        return bad

    ops.append(Op("paired_deltas", "paired_deltas_s", run_paired, ("paired.json",), check_paired))
    ops.append(cli_op("probe_exponential", None, lambda r: [
        "sweep", "--mode", "theoretical", "--dist", "exponential", "--n", "5",
        "--seed", str(seed), "--out", j(r, "probe")], ["probe/sweep.tsv"],
        lambda rep, _: z_failures(j(rep, "probe", "sweep.tsv"), "exponential"), probe=True))
    return ops


WORKLOADS = {"log_pipeline": log_pipeline, "eager_search": eager_search, "mc_sweep": mc_sweep}
