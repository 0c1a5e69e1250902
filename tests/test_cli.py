"""End-to-end runs of the command-line pipeline, in process."""

import json
import math
import sys
import warnings
from dataclasses import fields

import pytest

from reservelab import abtest, vectorized
from reservelab.cli import _READS, RunConfig, main
from reservelab.distributions import ContinuousDist
from reservelab.logio import (compute_lift_report, lift_revenue_tsv, lift_welfare_tsv,
                              parse_log, read_reserves)
from reservelab.logs import BidLog
from reservelab.mechanics import BidProfile, run_eager
from reservelab.optimize import optimal_lazy

IID_PARAMS = '{"dist": "uniform", "n": 3, "lo": 0.0, "hi": 10.0}'
TRIANGLE = '{"vertices": [0, 1, 2], "edges": [[0, 1], [1, 2], [0, 2]], "L": 2, "H": 3}'
PATH3 = '{"vertices": [0, 1, 2], "edges": [[0, 1], [1, 2]], "L": 2, "H": 3}'


def run_gen(tmp_path, sub="gen", seed="7", count="60"):
    out = tmp_path / sub
    code = main(["gen", "--generator", "iid", "--params", IID_PARAMS,
                 "--count", count, "--seed", seed, "--out", str(out)])
    assert code == 0
    return out / "log.csv"


def test_gen_then_optimize_lazy(tmp_path):
    log_path = run_gen(tmp_path)
    out = tmp_path / "opt"
    code = main(["optimize", "--task", "lazy", "--input", str(log_path),
                 "--out", str(out)])
    assert code == 0
    log = parse_log(str(log_path))
    want = optimal_lazy(log)
    summary = json.loads((out / "summary.json").read_text())
    assert summary["command"] == "optimize"
    assert summary["expected_revenue"] == want.expected_revenue
    assert summary["auctions"] == 60 and summary["bidders"] == 3
    got = read_reserves(str(out / "reserves.csv"))
    # reserve CSV is quantized to micros; revenue must survive the round trip
    rt = {b: got.get(b) for b in log.bidder_ids}
    rl = {b: want.reserves.get(b) for b in log.bidder_ids}
    assert all(abs(rt[b] - rl[b]) <= 5e-7 for b in rt)


def test_gen_then_optimize_eager_local(tmp_path):
    log_path = run_gen(tmp_path)
    log = parse_log(str(log_path))
    summaries, reserve_files = [], []
    for max_rounds in ("2", "3"):
        out = tmp_path / f"local{max_rounds}"
        assert main(["optimize", "--task", "eager-local", "--max-rounds", max_rounds,
                     "--input", str(log_path), "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        reserves = read_reserves(str(out / "reserves.csv"))
        scalar = math.fsum(run_eager(p, reserves).payment for p in log.profiles) / len(log)
        assert summary["expected_revenue"] == scalar
        assert summary["expected_revenue"] > summary["revenue_zero_reserve"]
        summaries.append(summary)
        reserve_files.append((out / "reserves.csv").read_bytes())
    # round 3 improves nothing on this log: two rounds stop short, three converge
    assert [(s["rounds"], s["converged"]) for s in summaries] == [(2, False), (3, True)]
    assert reserve_files[0] == reserve_files[1]


def test_hardness_instances_exact_totals(tmp_path):
    for params, total in ((TRIANGLE, 13.0), (PATH3, 12.0)):
        out = tmp_path / params[-9:-1].replace('"', "").replace(" ", "")
        code = main(["optimize", "--task", "eager-exact", "--generator", "hardness",
                     "--params", params, "--out", str(out)])
        assert code == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["total_revenue"] == total


@pytest.mark.parametrize("command, runs", [(["optimize", "--task", "lazy"], 2),
                                           (["optimize", "--task", "monopoly"], 2),
                                           (["lift-tables"], 5)],
                         ids=["optimize-lazy", "optimize-monopoly", "lift-tables"])
def test_commands_run_no_full_log_kernel_twice(tmp_path, monkeypatch, command, runs):
    """optimize reads total_revenue from the optimizer's result, and lift-tables reads
    the (lazy, rstar_l) and (eager, monopoly) cells from the optimizers' results, so
    each vectorized.payments call computes a total that no other call computes."""
    log_path = run_gen(tmp_path)
    calls = []
    real = vectorized.payments

    def counted(*args, **kwargs):
        calls.append(args[2])
        return real(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.startswith("reservelab") and getattr(module, "payments", None) is real:
            monkeypatch.setattr(module, "payments", counted)
    assert main([*command, "--input", str(log_path), "--out", str(tmp_path / "out")]) == 0
    assert len(calls) == runs, calls


def test_exit_code_bad_config(tmp_path, capsys):
    assert main(["gen", "--generator", "bogus", "--count", "5",
                 "--out", str(tmp_path)]) == 2
    assert "error:" in capsys.readouterr().err
    assert main(["gen", "--config", str(tmp_path / "missing.json")]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{oops")
    assert main(["gen", "--config", str(bad)]) == 2
    unknown = tmp_path / "unknown.json"
    unknown.write_text('{"wibble": 1}')
    assert main(["gen", "--config", str(unknown)]) == 2
    assert main(["gen", "--generator", "iid", "--params", IID_PARAMS,
                 "--out", str(tmp_path)]) == 2  # no count
    assert main(["optimize", "--task", "lazy",
                 "--input", str(tmp_path / "nope.csv")]) == 2
    assert main(["gen", "--generator", "iid", "--params", IID_PARAMS, "--count",
                 "5", "--seed", "-3", "--out", str(tmp_path)]) == 2


@pytest.mark.parametrize("fmt", ["csv", "jsonl"])
def test_gen_of_an_empty_graph_exits_2_and_writes_no_log(tmp_path, capsys, fmt):
    """A graph with no vertices is a log with no auctions, which parse_log would refuse.
    The refused run removes the --out directories it created; one that existed before stays."""
    params = '{"vertices": [], "edges": [], "L": 2, "H": 3}'
    for out in (tmp_path / "out", tmp_path / "a" / "b", tmp_path):
        assert main(["gen", "--generator", "hardness", "--params", params, "--format", fmt,
                     "--out", str(out)]) == 2
        assert "no auctions" in capsys.readouterr().err
        assert not (out / f"log.{fmt}").exists()
    assert list(tmp_path.iterdir()) == []


def test_exit_code_bad_data(tmp_path, capsys):
    log = tmp_path / "log.csv"
    log.write_text("auction_id,bidder_id,bid\na1,b1,nan\n")
    code = main(["optimize", "--task", "lazy", "--input", str(log),
                 "--out", str(tmp_path)])
    assert code == 3
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("name, text, err", [
    ("log.csv", b"auction_id,bidder_id,bid\na1,b1,\xff\n", "line 2: invalid UTF-8 byte 0xff"),
    ("log.jsonl", b'{"auction_id": "a1", "bidder_id": "b1", "bid": "\xe9"}\n',
     "line 1: invalid UTF-8 byte 0xe9"),
    ("log.jsonl", b'{"auction_id": "a1", "bidder_id": "b1", "bid": "1\\n"}\n',
     "line 1: bad bid '1\\n'"),
    ("reserves.csv", b"bidder_id,reserve\nb1,\xff\n", "line 2: invalid UTF-8 byte 0xff")],
    ids=["csv", "jsonl", "jsonl-bid", "reserves"])
def test_undecodable_files_and_bad_bids_exit_3(tmp_path, capsys, name, text, err):
    (tmp_path / name).write_bytes(text)
    if name == "reserves.csv":
        argv = ["sweep", "--mode", "empirical", "--input", str(run_gen(tmp_path)),
                "--reserves", str(tmp_path / name)]
    else:
        argv = ["optimize", "--task", "lazy", "--input", str(tmp_path / name)]
    assert main(argv + ["--out", str(tmp_path / "out")]) == 3
    assert capsys.readouterr().err.startswith(f"error: {err}")


def test_unwritable_out_exits_2_naming_the_path(tmp_path, capsys):
    blocker = tmp_path / "blocker"
    blocker.write_text("a file, not a directory\n")
    out = str(blocker / "x")
    assert main(["gen", "--generator", "iid", "--params", IID_PARAMS, "--count", "5",
                 "--out", out]) == 2
    assert capsys.readouterr().err == f"error: {out}: Not a directory\n"


def test_unreadable_input_exits_2_naming_the_path(tmp_path, capsys):
    assert main(["optimize", "--task", "lazy", "--input", str(tmp_path), "--format", "csv",
                 "--out", str(tmp_path / "opt")]) == 2
    assert capsys.readouterr().err == f"error: {tmp_path}: Is a directory\n"


@pytest.mark.parametrize("argv, code, err", [
    (["optimize", "--task", "lazy", "--input", "<bad>"], 3,
     "error: line 2: invalid UTF-8 byte 0xff (invalid start byte)"),
    (["optimize", "--task", "eager-exact", "--input", "<log>", "--max-product-size", "1000"], 4,
     "refusing: 181^3 = 5929741 candidate vectors exceed max_product_size=1000"),
    (["sweep", "--dist", "equal_revenue", "--params", '{"M": 100.0}', "--n", "2",
      "--trials", "10"], 3,
     "error: equal_revenue(100): not regular, refusing a Myerson reserve source"),
    (["lift-tables", "--input", "<log>", "--input", "<missing>"], 2,
     "error: <missing>: No such file or directory"),
    (["gen", "--generator", "hardness",
      "--params", '{"vertices": [], "edges": [], "L": 2, "H": 3}'], 2,
     "error: cannot write a log with no auctions: parse_log refuses it"),
], ids=["optimize-undecodable", "eager-exact-too-large", "sweep-not-regular",
        "lift-tables-missing-input", "gen-empty-graph"])
def test_a_run_failing_after_its_flags_pass_leaves_no_out(tmp_path, capsys, argv, code, err):
    # main makes --out before the handler runs, and removes it when the handler fails
    (tmp_path / "bad.csv").write_bytes(b"auction_id,bidder_id,bid\na1,b1,\xff\n")
    paths = {"<log>": str(run_gen(tmp_path)), "<bad>": str(tmp_path / "bad.csv"),
             "<missing>": str(tmp_path / "missing.csv")}
    capsys.readouterr()
    assert main([paths.get(a, a) for a in argv] + ["--out", str(tmp_path / "a" / "b")]) == code
    assert capsys.readouterr().err == err.replace("<missing>", paths["<missing>"]) + "\n"
    assert not (tmp_path / "a").exists()


def test_exit_code_search_too_large(tmp_path, capsys):
    out = tmp_path / "gen"
    assert main(["gen", "--generator", "iid", "--params",
                 '{"dist": "uniform", "n": 6, "lo": 0.0, "hi": 10.0}',
                 "--count", "40", "--seed", "1", "--out", str(out)]) == 0
    code = main(["optimize", "--task", "eager-exact", "--input", str(out / "log.csv"),
                 "--max-product-size", "1000", "--out", str(tmp_path / "opt")])
    assert code == 4
    assert capsys.readouterr().err.startswith("refusing:")


def test_exit_code_domain_error(tmp_path):
    code = main(["sweep", "--mode", "theoretical", "--dist", "equal_revenue",
                 "--params", '{"M": 100.0}', "--n", "2", "--trials", "10",
                 "--out", str(tmp_path)])
    assert code == 3


def test_config_file_and_flag_precedence(tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"generator": "iid",
                               "params": {"dist": "uniform", "n": 2},
                               "count": 10, "seed": 5}))
    out_a = tmp_path / "a"
    assert main(["gen", "--config", str(cfg), "--out", str(out_a)]) == 0
    summary = json.loads((out_a / "summary.json").read_text())
    assert summary["config"]["seed"] == 5
    out_b = tmp_path / "b"
    assert main(["gen", "--config", str(cfg), "--seed", "9",
                 "--out", str(out_b)]) == 0
    summary = json.loads((out_b / "summary.json").read_text())
    assert summary["config"]["seed"] == 9


def test_gen_rerun_byte_identical(tmp_path):
    a = run_gen(tmp_path, "one")
    b = run_gen(tmp_path, "two")
    assert a.read_bytes() == b.read_bytes()


def test_gen_jsonl_round_trip(tmp_path):
    csv_path = run_gen(tmp_path, "csv")
    out = tmp_path / "jsonl"
    assert main(["gen", "--generator", "iid", "--params", IID_PARAMS,
                 "--count", "60", "--seed", "7", "--format", "jsonl",
                 "--out", str(out)]) == 0
    assert parse_log(str(out / "log.jsonl")) == parse_log(str(csv_path))


def test_sweep_theoretical_table(tmp_path):
    out = tmp_path / "sweep"
    code = main(["sweep", "--mode", "theoretical", "--dist", "uniform",
                 "--n", "5", "--trials", "4000", "--seed", "3",
                 "--mechanism", "both", "--out", str(out)])
    assert code == 0
    lines = (out / "sweep.tsv").read_text().strip().split("\n")
    assert lines[2] == "x\tmechanism\tmean\tstderr\ttrials\treference"
    rows = [ln.split("\t") for ln in lines[3:]]
    assert len(rows) == 12
    assert [r[0] for r in rows] == ["0", "1", "2", "3", "4", "5"] * 2
    assert [r[1] for r in rows] == ["lazy"] * 6 + ["eager"] * 6
    assert all(r[5] != "" for r in rows)
    summary = json.loads((out / "summary.json").read_text())
    assert summary["rows"] == 12


def test_sweep_rerun_byte_identical(tmp_path):
    outs = []
    for sub in ("s1", "s2"):
        out = tmp_path / sub
        assert main(["sweep", "--mode", "theoretical", "--dist", "uniform",
                     "--n", "3", "--trials", "2000", "--seed", "11",
                     "--out", str(out)]) == 0
        outs.append((out / "sweep.tsv").read_bytes())
    assert outs[0] == outs[1]


def test_sweep_empirical(tmp_path):
    log_path = run_gen(tmp_path)
    opt = tmp_path / "opt"
    assert main(["optimize", "--task", "lazy", "--input", str(log_path),
                 "--out", str(opt)]) == 0
    out = tmp_path / "es"
    code = main(["sweep", "--mode", "empirical", "--input", str(log_path),
                 "--reserves", str(opt / "reserves.csv"), "--grid", "0,0.5,1",
                 "--assignments", "5", "--mechanism", "eager", "--seed", "2",
                 "--out", str(out)])
    assert code == 0
    lines = (out / "sweep.tsv").read_text().strip().split("\n")
    rows = [ln.split("\t") for ln in lines[3:]]
    assert [r[0] for r in rows] == ["0", "0.5", "1"]
    assert all(r[1] == "eager" for r in rows)


@pytest.mark.parametrize("rows", ["zz,0.5\n", "b00,0.5\nzz,0.5\n"])
def test_sweep_empirical_refuses_reserves_of_unknown_bidders(tmp_path, capsys, rows):
    log_path = run_gen(tmp_path)
    reserves = tmp_path / "reserves.csv"
    reserves.write_text("bidder_id,reserve\n" + rows)
    out = tmp_path / "es"
    assert main(["sweep", "--mode", "empirical", "--input", str(log_path),
                 "--reserves", str(reserves), "--out", str(out)]) == 3
    assert "bidders not in the log: zz" in capsys.readouterr().err
    assert not out.exists()


def test_lift_tables(tmp_path):
    a = run_gen(tmp_path, "ga", seed="1")
    b = run_gen(tmp_path, "gb", seed="2")
    out = tmp_path / "lift"
    code = main(["lift-tables", "--input", str(a), "--input", str(b),
                 "--out", str(out)])
    assert code == 0
    for name in ("lift_revenue.tsv", "lift_welfare.tsv"):
        lines = (out / name).read_text().strip().split("\n")
        assert lines[0].startswith("slot\tbasis\t")
        assert len(lines) == 5  # two slots, raw + normalized each
        assert lines[1].split("\t")[1] == "raw"


def test_lift_tables_refuses_an_empty_input_list(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"input": []}')
    out = tmp_path / "lift"
    assert main(["lift-tables", "--config", str(cfg), "--out", str(out)]) == 2
    assert "want at least one --input path" in capsys.readouterr().err
    assert not out.exists()


def test_lift_tables_zero_normalizer(tmp_path):
    log = tmp_path / "flat.csv"
    log.write_text("auction_id,bidder_id,bid\n"
                   "a1,b1,5\na1,b2,5\na2,b1,5\na2,b2,5\n")
    out = tmp_path / "lift"
    assert main(["lift-tables", "--input", str(log), "--out", str(out)]) == 0
    text = (out / "lift_revenue.tsv").read_text()
    assert "normalization_unavailable" in text


def test_lift_tables_golden_text():
    lifted = BidLog([BidProfile("a1", {"b1": 10.0, "b2": 4.0, "b3": 1.5}),
                     BidProfile("a2", {"b1": 6.0, "b2": 4.25}),
                     BidProfile("a3", {"b1": 3.0, "b3": 2.0}),
                     BidProfile("a4", {"b2": 7.5, "b3": 0.5})])
    flat = BidLog([BidProfile("a1", {"b1": 5.0, "b2": 5.0}),
                   BidProfile("a2", {"b1": 5.0, "b2": 5.0})])
    kept = BidLog([BidProfile("a1", {"b1": 5.0, "b2": 1.0})])  # revenue lift, no welfare loss
    reports = [compute_lift_report(lifted, "lifted"), compute_lift_report(flat, "flat"),
               compute_lift_report(kept, "kept")]
    header = ("slot\tbasis\tdelta_lazy_rstar_l\tdelta_eager_rstar_l\t"
              "delta_lazy_monopoly\tdelta_eager_monopoly\n")
    assert lift_revenue_tsv(reports) == header + (
        "lifted\traw\t2.1875\t2.1875\t1.3125\t1.6875\n"
        "lifted\tnormalized\t1\t1\t0.6\t0.7714285714\n"
        "flat\traw\t0\t0\t0\t0\n"
        "flat\tnormalization_unavailable\t\t\t\t\n"
        "kept\traw\t4\t4\t4\t4\n"
        "kept\tnormalized\t1\t1\t1\t1\n")
    assert lift_welfare_tsv(reports) == header + (
        "lifted\traw\t0.75\t0.25\t0.75\t0.25\n"
        "lifted\tnormalized\t1\t0.3333333333\t1\t0.3333333333\n"
        "flat\traw\t0\t0\t0\t0\n"
        "flat\tnormalization_unavailable\t\t\t\t\n"
        "kept\traw\t0\t0\t0\t0\n"
        "kept\tnormalization_unavailable\t\t\t\t\n")


def test_optimize_needs_one_source(tmp_path):
    log_path = run_gen(tmp_path)
    assert main(["optimize", "--task", "lazy", "--input", str(log_path),
                 "--generator", "iid", "--params", IID_PARAMS, "--count", "5",
                 "--out", str(tmp_path / "x")]) == 2
    assert main(["optimize", "--task", "lazy",
                 "--out", str(tmp_path / "y")]) == 2
    assert main(["optimize", "--input", str(log_path),
                 "--out", str(tmp_path / "z")]) == 2  # missing task


@pytest.mark.parametrize("dist, params, code", [
    ("uniform", '{"lo": 0.0, "hi": 2.0}', 0),
    ("uniform", '{"lo": 0.0, "hi": 1e-13}', 0),  # the Myerson bracket scales with the law
    ("exponential", '{"rate": 2.0}', 0),
    ("equal_revenue", '{"M": 50.0}', 3),  # no Myerson reserve: a clean domain error
])
def test_sweep_theoretical_each_dist(tmp_path, capsys, dist, params, code):
    out = tmp_path / dist
    assert main(["sweep", "--mode", "theoretical", "--dist", dist, "--params", params,
                 "--n", "3", "--trials", "3000", "--seed", "4", "--out", str(out)]) == code
    if code == 0:
        rows = (out / "sweep.tsv").read_text().strip().split("\n")[3:]
        assert len(rows) == 8 and all(r.split("\t")[5] != "" for r in rows)
    else:
        assert capsys.readouterr().err.startswith("error:")


def _sweep_rows(out):
    return (out / "sweep.tsv").read_text().split("\n")[3:-1]


@pytest.mark.parametrize("n", [1, 3])
@pytest.mark.parametrize("dist", ["uniform", "exponential"])
def test_sweep_both_is_lazy_then_eager(tmp_path, n, dist):
    # one Monte-Carlo pass scores both rules on the draws each would have made alone
    rows = {}
    for mech in ("both", "lazy", "eager"):
        assert main(["sweep", "--mode", "theoretical", "--dist", dist, "--n", str(n),
                     "--trials", "3000", "--seed", "4", "--mechanism", mech,
                     "--out", str(tmp_path / mech)]) == 0
        rows[mech] = _sweep_rows(tmp_path / mech)
    assert len(rows["both"]) == 2 * (n + 1)
    assert rows["both"] == rows["lazy"] + rows["eager"]


def test_sweep_both_draws_each_block_once(tmp_path, monkeypatch):
    calls = []
    sample = ContinuousDist.sample

    def counted(self, rng, size):
        calls.append(size)
        return sample(self, rng, size)

    monkeypatch.setattr(ContinuousDist, "sample", counted)
    monkeypatch.setattr(abtest, "_CHUNK", 1000)
    assert main(["sweep", "--mode", "theoretical", "--dist", "uniform", "--n", "3",
                 "--trials", "2500", "--mechanism", "both", "--out", str(tmp_path)]) == 0
    assert calls == [(1000, 3), (1000, 3), (500, 3)]


@pytest.mark.parametrize("rate", ["3e-307", "1e-305", "1e-300", "1e-6", "1e6", "1e12", "1e300"])
def test_sweep_exponential_references_at_any_scale(tmp_path, rate):
    # quadrature in raw x gave a negative or biased reference far from scale 1; below rate
    # 1e-304 its x = scale * u overflowed to inf, and the integrand read inf * 0 = nan
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["sweep", "--mode", "theoretical", "--dist", "exponential",
                     "--params", f'{{"rate": {rate}}}', "--n", "3", "--trials", "20000",
                     "--seed", "4", "--out", str(tmp_path)]) == 0
    for row in _sweep_rows(tmp_path):
        _, _, mean, se, _, ref = row.split("\t")
        assert float(se) > 0  # squared raw payments under- or overflowed to 0 or nan
        assert abs(float(mean) - float(ref)) <= 5.0 * float(se)


def test_sweep_of_a_uniform_law_near_the_float_limit(tmp_path):
    # raw payments of uniform(0, 1e308) summed to inf: inf means, once refused with exit 3
    assert main(["sweep", "--mode", "theoretical", "--dist", "uniform", "--params",
                 '{"lo": 0, "hi": 1e308}', "--n", "2", "--trials", "1000", "--mechanism", "both",
                 "--out", str(tmp_path)]) == 0
    for row in _sweep_rows(tmp_path):
        _, _, mean, se, _, ref = row.split("\t")
        assert 0 < float(se) < math.inf and abs(float(mean) - float(ref)) <= 5.0 * float(se)


def test_sweep_rejects_nonpositive_n(tmp_path, capsys):
    for n in ("0", "-2"):
        assert main(["sweep", "--mode", "theoretical", "--dist", "uniform", "--n", n,
                     "--trials", "10", "--out", str(tmp_path)]) == 2
        assert "n must be" in capsys.readouterr().err


def test_single_log_commands_refuse_repeated_input(tmp_path, capsys):
    log_path = run_gen(tmp_path)
    opt = tmp_path / "opt"
    assert main(["optimize", "--task", "lazy", "--input", str(log_path),
                 "--out", str(opt)]) == 0
    for second in (str(log_path), str(tmp_path / "missing.csv")):
        assert main(["optimize", "--task", "lazy", "--input", str(log_path),
                     "--input", second, "--out", str(tmp_path / "o2")]) == 2
        assert main(["sweep", "--mode", "empirical", "--input", str(log_path),
                     "--input", second, "--reserves", str(opt / "reserves.csv"),
                     "--out", str(tmp_path / "s2")]) == 2
        assert "error:" in capsys.readouterr().err
    assert not (tmp_path / "o2").exists() and not (tmp_path / "s2").exists()


SWEEP2 = ["sweep", "--n", "2", "--trials", "10", "--dist"]
GEN5 = ["gen", "--count", "5", "--generator"]


@pytest.mark.parametrize("argv, config, field", [
    (["gen", "--generator", "iid", "--params", IID_PARAMS], {"count": "10"}, "count"),
    (["gen", "--generator", "iid", "--count", "5",
      "--params", '{"dist": "uniform", "n": "2"}'], None, "n"),
    (["gen", "--generator", "iid", "--count", "5", "--params", "[1, 2]"], None, "params"),
    (["optimize", "--task", "eager-local", "--max-rounds", "0"], None, "max_rounds"),
    (["optimize", "--task", "eager-local", "--max-rounds", "-1"], None, "max_rounds"),
    # a config value reaches logio unless load_config checks it: log.CSV, then exit 2
    (["gen", "--generator", "iid", "--params", IID_PARAMS, "--count", "5"],
     {"format": "CSV"}, "format"),
    (["gen", "--generator", "iid", "--params", IID_PARAMS, "--count", "5"],
     {"format": "xml"}, "format"),
    # json reads NaN and Infinity: a traceback, a log without its (0, M) profiles, exit 3
    (["sweep", "--dist", "equal_revenue", "--params", '{"M": NaN}', "--n", "2",
      "--trials", "100"], None, "M"),
    (["gen", "--generator", "correlated_equal_revenue",
      "--params", '{"M": Infinity, "epsilon": 0.1}', "--count", "5"], None, "M"),
    (["sweep", "--dist", "exponential", "--params", '{"rate": Infinity}', "--n", "2",
      "--trials", "100"], None, "rate"),
    (["sweep", "--dist", "uniform", "--params", '{"lo": 0, "hi": Infinity}', "--n", "2",
      "--trials", "100"], None, "hi"),
    (["gen", "--generator", "geometric_pair", "--params", '{"K": 1100, "epsilon": 0.5}',
      "--count", "5"], None, "K"),  # 2.0 ** (K - 1) overflowed
    # the largest draw, 53 ln 2 / rate, overflowed in the ppf: a RuntimeWarning, then exit 3
    *[(["sweep", "--dist", "exponential", "--params", f'{{"rate": {rate}}}', "--n", "2",
        "--trials", "100"], None, "rate") for rate in ("1e-308", "1e-307", "2e-307")],
    # the "top" atom 4 - 3.5 lay below 1 and 2: exit 0; at -5 BidLog's message, no name
    *[(["gen", "--generator", "geometric_pair", "--params", f'{{"K": 3, "epsilon": {eps}}}',
        "--count", "5"], None, "epsilon") for eps in ("-3.5", "-5")],
    # an infinite epsilon or H, or a NaN epsilon, made a log whose BidLog message names
    # no parameter
    *[(GEN5 + ["high_low", "--params", f'{{"n": 3, "epsilon": {eps}}}'], None, "epsilon")
      for eps in ("Infinity", "NaN")],
    *[(GEN5 + ["symmetric_one_high", "--params", f'{{"n": 3, "H": {h}, "L": 1}}'], None, "H")
      for h in ("Infinity", "NaN")],
])
def test_bad_config_values_exit_2_naming_the_field(tmp_path, capsys, argv, config, field):
    if config is not None:
        (tmp_path / "cfg.json").write_text(json.dumps(config))
        argv = argv + ["--config", str(tmp_path / "cfg.json")]
    assert main(argv + ["--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and field in err.split() and err.count("\n") == 1
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv, key", [
    (SWEEP2 + ["exponential", "--params", '{"rate": true}'], "rate"),
    (SWEEP2 + ["uniform", "--params", '{"lo": false, "hi": true}'], "lo"),
    (GEN5 + ["high_low", "--params", '{"n": 3, "epsilon": true}'], "epsilon"),
    (GEN5 + ["symmetric_one_high", "--params", '{"n": 3, "H": true, "L": false}'], "H"),
    (["gen", "--generator", "hardness",
      "--params", '{"vertices": [0, 1], "edges": [[0, 1]], "L": true, "H": 1.5}'], "L"),
    (GEN5 + ["geometric_pair", "--params", '{"K": 3, "epsilon": true}'], "epsilon"),
])
def test_boolean_params_exit_2_naming_the_key(tmp_path, capsys, argv, key):
    # each ran as the number 1 or 0: exponential(1), uniform(0,1), a log with exit 0
    assert main(argv + ["--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and key in err.split() and err.count("\n") == 1
    assert not (tmp_path / "out").exists()


def exit_code(argv):
    """main's return value, or the code argparse exits with."""
    try:
        return main(argv)
    except SystemExit as e:
        return e.code


@pytest.mark.parametrize("argv, code", [
    (["gen", "--generator", "iid", "--params", IID_PARAMS, "--count", "5", "--trials", "7"], 2),
    (["gen", "--generator", "iid", "--params", IID_PARAMS, "--count", "5",
      "--mechanism", "lazy"], 2),
    (["optimize", "--task", "lazy", "--generator", "iid", "--params", IID_PARAMS,
      "--count", "5", "--trials", "7"], 2),
    (["lift-tables", "--generator", "iid", "--params", IID_PARAMS, "--count", "5",
      "--mechanism", "eager"], 2),
    (["lift-tables", "--generator", "iid", "--params", IID_PARAMS, "--count", "5",
      "--trials", "3"], 2),
    (["sweep", "--dist", "uniform", "--n", "2", "--trials", "10", "--generator", "iid"], 2),
    (["sweep", "--dist", "uniform", "--n", "2", "--trials", "10", "--count", "5"], 2),
    (["sweep", "--dist", "uniform", "--n", "2", "--trials", "10"], 0),
    (["optimize", "--task", "monopoly", "--mechanism", "lazy", "--generator", "iid",
      "--params", IID_PARAMS, "--count", "5"], 0),
])
def test_each_command_takes_only_the_flags_it_reads(tmp_path, capsys, argv, code):
    out = tmp_path / "out"
    assert exit_code(argv + ["--out", str(out)]) == code
    if code == 2:
        assert "unrecognized arguments" in capsys.readouterr().err
        assert not out.exists()
    elif argv[0] == "optimize":
        assert json.loads((out / "summary.json").read_text())["mechanism"] == "lazy"


@pytest.mark.parametrize("argv, key", [
    (["sweep", "--dist", "uniform", "--n", "2", "--trials", "10",
      "--params", '{"lo": 0, "hi": 1, "bogus": 3}'], "bogus"),
    (["gen", "--generator", "iid", "--count", "5",
      "--params", '{"dist": "uniform", "n": 2, "rate": 2}'], "rate"),
    (["gen", "--generator", "hardness",
      "--params", TRIANGLE[:-1] + ', "extra": 1}'], "extra"),
])
def test_unknown_params_keys_exit_2(tmp_path, capsys, argv, key):
    assert main(argv + ["--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and key in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_sweep_of_a_law_with_positive_virtual_value_uses_its_low_end(tmp_path):
    # phi(v) = 2v - 10 > 0 on [6, 10]: the Myerson reserve is lo, which every bid clears
    out = tmp_path / "out"
    assert main(["sweep", "--dist", "uniform", "--params", '{"lo": 6, "hi": 10}', "--n", "2",
                 "--trials", "1000", "--out", str(out)]) == 0
    rows = [r.split("\t") for r in (out / "sweep.tsv").read_text().strip().split("\n")[3:]]
    assert len(rows) == 6 and all(math.isfinite(float(x)) for r in rows for x in r[2:])
    assert len({(r[2], r[3]) for r in rows}) == 1  # no reserve binds: every k earns alike


@pytest.fixture
def paths(tmp_path):
    log_path = run_gen(tmp_path)
    assert main(["optimize", "--task", "lazy", "--input", str(log_path),
                 "--out", str(tmp_path / "opt")]) == 0
    return {"log": str(log_path), "reserves": str(tmp_path / "opt" / "reserves.csv")}


THEORETICAL = ["sweep", "--dist", "uniform", "--n", "2", "--trials", "10"]
EMPIRICAL = ["sweep", "--mode", "empirical", "--input", "{log}", "--reserves", "{reserves}"]


@pytest.mark.parametrize("argv, flag", [
    (["optimize", "--task", "lazy", "--mechanism", "eager"], "--mechanism"),
    (["optimize", "--task", "lazy", "--max-rounds", "3"], "--max-rounds"),
    (["optimize", "--task", "eager-exact", "--max-rounds", "3"], "--max-rounds"),
    (["optimize", "--task", "eager-local", "--max-product-size", "5"], "--max-product-size"),
    (["optimize", "--task", "monopoly", "--max-product-size", "5"], "--max-product-size"),
    (THEORETICAL + ["--grid", "0,0.5"], "--grid"),
    (THEORETICAL + ["--assignments", "3"], "--assignments"),
    (THEORETICAL + ["--reserves", "{reserves}"], "--reserves"),
    (THEORETICAL + ["--input", "{log}"], "--input"),
    (THEORETICAL + ["--format", "jsonl"], "--format"),
    (EMPIRICAL + ["--params", '{{"lo": 0}}'], "--params"),
    (EMPIRICAL + ["--dist", "uniform"], "--dist"),
    (EMPIRICAL + ["--n", "7"], "--n"),
    (EMPIRICAL + ["--trials", "7"], "--trials"),
])
def test_flags_the_task_or_mode_does_not_read_exit_2(tmp_path, capsys, paths, argv, flag):
    argv = [a.format(**paths) for a in argv]
    if argv[0] == "optimize":
        argv += ["--input", paths["log"]]
    capsys.readouterr()
    out = tmp_path / "out"
    assert main(argv + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and flag in err.split() and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("argv, flags", [
    (["optimize", "--task", "lazy", "--input", "{log}", "--seed", "5", "--count", "7",
      "--params", '{{"a": 1}}'], ("--count", "--params", "--seed")),
    (["optimize", "--task", "lazy", "--generator", "iid",
      "--params", '{{"dist": "uniform", "n": 3}}', "--count", "50", "--format", "jsonl"],
     ("--format",)),
    (["lift-tables", "--input", "{log}", "--seed", "3"], ("--seed",)),
    (["lift-tables", "--generator", "iid", "--params", "{iid}", "--count", "5",
      "--format", "csv"], ("--format",)),
    (["gen", "--generator", "hardness", "--params", "{triangle}", "--count", "9",
      "--seed", "4"], ("--count", "--seed")),
])
def test_flags_the_input_source_does_not_read_exit_2(tmp_path, capsys, paths, argv, flags):
    argv = [a.format(iid=IID_PARAMS, triangle=TRIANGLE, **paths) for a in argv]
    capsys.readouterr()
    out = tmp_path / "out"
    assert main(argv + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert all(flag in err.replace(",", " ").split() for flag in flags)
    assert not out.exists()


@pytest.mark.parametrize("flag", ["--config", "--input", "--reserves"])
def test_missing_file_exits_2_naming_the_path(tmp_path, capsys, paths, flag):
    missing = str(tmp_path / "missing.csv")
    argv = {"--config": ["gen", "--config", missing],
            "--input": ["optimize", "--task", "lazy", "--input", missing],
            "--reserves": [a.format(log=paths["log"], reserves=missing) for a in EMPIRICAL]}
    capsys.readouterr()
    out = tmp_path / "out"
    assert main(argv[flag] + ["--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {missing}: No such file or directory\n"
    assert not out.exists()


@pytest.mark.parametrize("argv, key, want", [
    (["optimize", "--input", "{log}"], "task",
     "task must be one of ('lazy', 'monopoly', 'eager-exact', 'eager-local'), got 'bogus'"),
    (["sweep"], "mode", "mode must be one of ('theoretical', 'empirical'), got 'bogus'"),
])
def test_unknown_task_or_mode_in_a_config_exits_2(tmp_path, capsys, paths, argv, key, want):
    (tmp_path / "cfg.json").write_text(json.dumps({key: "bogus"}))
    capsys.readouterr()
    argv = [a.format(**paths) for a in argv] + ["--config", str(tmp_path / "cfg.json")]
    assert main(argv + ["--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == f"error: {want}\n"


@pytest.mark.parametrize("argv, want", [
    (["sweep"], "sweep --mode theoretical needs --dist, --n"),
    (["sweep", "--mode", "empirical", "--grid", "0,1"],
     "sweep --mode empirical needs --input, --reserves"),
    (["gen", "--generator", "iid", "--params", IID_PARAMS], "gen --generator iid needs --count"),
    (["lift-tables", "--generator", "iid", "--params", IID_PARAMS],
     "lift-tables --generator iid needs --count"),
])
def test_a_run_missing_a_flag_it_needs_exits_2_naming_it(tmp_path, capsys, argv, want):
    out = tmp_path / "out"
    assert main(argv + ["--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {want}\n"
    assert not out.exists()


@pytest.mark.parametrize("argv, keys", [
    (["optimize", "--task", "lazy", "--input", "{log}"], "format input out task"),
    (["optimize", "--task", "monopoly", "--input", "{log}", "--format", "csv"],
     "format input mechanism out task"),
    (["optimize", "--task", "eager-local", "--generator", "iid", "--params", "{iid}",
      "--count", "20"], "count generator max_rounds out params seed task"),
    (["optimize", "--task", "eager-exact", "--generator", "hardness", "--params", "{triangle}"],
     "generator max_product_size out params task"),
    (["gen", "--generator", "iid", "--params", "{iid}", "--count", "5"],
     "count format generator out params seed"),
    (["lift-tables", "--input", "{log}", "--input", "{log}"], "format input out"),
    (THEORETICAL, "dist mechanism mode n out params seed trials"),
    (EMPIRICAL, "assignments format grid input mechanism mode out reserves seed"),
])
def test_summary_config_lists_the_flags_the_run_read(tmp_path, paths, argv, keys):
    argv = [a.format(iid=IID_PARAMS, triangle=TRIANGLE, **paths) for a in argv]
    out = tmp_path / "out"
    assert main(argv + ["--out", str(out)]) == 0
    config = json.loads((out / "summary.json").read_text())["config"]
    assert sorted(config) == keys.split()
    assert config["out"] == str(out)
    unset = [k for k in ("format", "grid") if k in config and f"--{k}" not in argv]
    assert all(config[k] is None for k in unset)  # read but unset: recorded as null


@pytest.mark.parametrize("grid, code", [([True, "0.5"], 2), (["0", "1"], 2), ([0, 0.5], 0)])
def test_a_config_grid_takes_only_json_numbers(tmp_path, capsys, paths, grid, code):
    (tmp_path / "cfg.json").write_text(json.dumps({"grid": grid}))
    argv = [a.format(**paths) for a in EMPIRICAL] + ["--config", str(tmp_path / "cfg.json")]
    out = tmp_path / "out"
    assert main(argv + ["--assignments", "3", "--out", str(out)]) == code
    if code == 2:
        assert capsys.readouterr().err == f"error: bad grid {grid!r}\n"
        assert not out.exists()
    else:
        assert [r.split("\t")[0] for r in _sweep_rows(out)] == ["0", "0.5"] * 2


def test_sweep_refuses_a_law_with_values_below_zero(tmp_path, capsys):
    # the kernels never sell to a negative value, but the references integrate over it
    out = tmp_path / "out"
    assert main(["sweep", "--mode", "theoretical", "--dist", "uniform",
                 "--params", '{"lo": -2, "hi": 10}', "--n", "2", "--trials", "1000000",
                 "--out", str(out)]) == 3
    assert capsys.readouterr().err == "error: uniform(-2,10): support reaches below 0; " \
                                      "values must be >= 0\n"
    assert not out.exists()


@pytest.mark.parametrize("dist", ["[1]", '{"a": 1}'])
def test_iid_dist_that_is_not_a_name_exits_2(tmp_path, capsys, dist):
    out = tmp_path / "out"
    assert main(["gen", "--generator", "iid", "--params", f'{{"dist": {dist}, "n": 2}}',
                 "--count", "3", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: unknown distribution ") and err.count("\n") == 1
    assert not out.exists()


def test_config_keys_of_other_tasks_and_modes_are_not_refused(tmp_path, paths):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"mechanism": "eager", "max_rounds": 3, "grid": [0, 1],
                               "assignments": 3, "trials": 10}))
    assert main(["optimize", "--task", "lazy", "--config", str(cfg), "--input", paths["log"],
                 "--out", str(tmp_path / "opt2")]) == 0
    assert main(["sweep", "--dist", "uniform", "--n", "2", "--config", str(cfg),
                 "--out", str(tmp_path / "sweep")]) == 0
    # one pipeline file: gen samples (count, seed) and ignores input; optimize the reverse
    pipeline = tmp_path / "pipeline.json"
    pipeline.write_text(json.dumps({"input": paths["log"], "seed": 4, "count": 20}))
    assert main(["gen", "--generator", "iid", "--params", IID_PARAMS, "--config", str(pipeline),
                 "--out", str(tmp_path / "gen2")]) == 0
    assert len(parse_log(str(tmp_path / "gen2" / "log.csv"))) == 20
    assert main(["optimize", "--task", "lazy", "--input", paths["log"],
                 "--config", str(pipeline), "--out", str(tmp_path / "opt3")]) == 0


def test_every_config_key_is_read_by_some_variant():
    read = set()
    for _, base, choices in _READS.values():
        read.update(base, *(names for variants in choices.values()
                            for names in variants.values()))
    assert read == {f.name for f in fields(RunConfig)} - {"out"}


@pytest.mark.parametrize("dist, params", [
    ("exponential", '{"rate": 2}'),  # the quadrature rounds to -8.3e-17
    ("exponential", '{"rate": 0.5}'),  # -5.6e-16
    ("uniform", '{"lo": 6, "hi": 10}'),  # phi(r) > 0 at r = lo: the quadrature reads 6
])
def test_one_bidder_eager_sweep_references_zero_untreated(tmp_path, dist, params):
    # k = 0: the lone bidder faces no reserve and pays the absent second bid, exactly 0
    out = tmp_path / "out"
    assert main(["sweep", "--dist", dist, "--params", params, "--n", "1",
                 "--mechanism", "eager", "--trials", "100", "--out", str(out)]) == 0
    rows = [r.split("\t") for r in (out / "sweep.tsv").read_text().strip().split("\n")[3:]]
    assert [r[0] for r in rows] == ["0", "1"] and rows[0][2:] == ["0", "0", "100", "0"]
