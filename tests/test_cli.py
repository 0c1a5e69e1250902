"""End-to-end runs of the command-line pipeline, in process."""

import json
import math

import pytest

from reservelab.cli import main
from reservelab.logio import (compute_lift_report, lift_revenue_tsv, lift_welfare_tsv,
                              parse_log, read_reserves)
from reservelab.logs import BidLog
from reservelab.mechanics import BidProfile, Mechanism, run_eager
from reservelab.optimize import empirical_revenue, optimal_lazy

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


def test_exit_code_bad_data(tmp_path, capsys):
    log = tmp_path / "log.csv"
    log.write_text("auction_id,bidder_id,bid\na1,b1,nan\n")
    code = main(["optimize", "--task", "lazy", "--input", str(log),
                 "--out", str(tmp_path)])
    assert code == 3
    assert "error:" in capsys.readouterr().err


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


def test_lift_report_delta_difference(tmp_path):
    log = parse_log(str(run_gen(tmp_path)))
    rep = compute_lift_report(log, "x")
    for source in ("rstar_l", "monopoly"):
        rv = rep.reserves[source]
        direct = (empirical_revenue(log, rv, Mechanism.EAGER)
                  - empirical_revenue(log, rv, Mechanism.LAZY))
        assert rep.delta_difference(source) == direct


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


@pytest.mark.parametrize("argv, config, field", [
    (["gen", "--generator", "iid", "--params", IID_PARAMS], {"count": "10"}, "count"),
    (["gen", "--generator", "iid", "--count", "5",
      "--params", '{"dist": "uniform", "n": "2"}'], None, "n"),
    (["gen", "--generator", "iid", "--count", "5", "--params", "[1, 2]"], None, "params"),
    (["optimize", "--task", "eager-local", "--max-rounds", "0"], None, "max_rounds"),
    (["optimize", "--task", "eager-local", "--max-rounds", "-1"], None, "max_rounds"),
])
def test_bad_config_values_exit_2_naming_the_field(tmp_path, capsys, argv, config, field):
    if config is not None:
        (tmp_path / "cfg.json").write_text(json.dumps(config))
        argv = argv + ["--config", str(tmp_path / "cfg.json")]
    assert main(argv + ["--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and field in err.split() and "Traceback" not in err
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


@pytest.mark.filterwarnings("ignore:overflow encountered", "ignore:invalid value encountered")
@pytest.mark.parametrize("dist, params", [
    ("exponential", '{"rate": 1e-300}'),  # nan stderrs, negative references
    ("uniform", '{"lo": 0, "hi": 1e308}'),  # inf means
])
def test_theoretical_sweep_refuses_non_finite_output(tmp_path, capsys, dist, params):
    out = tmp_path / "out"
    assert main(["sweep", "--mode", "theoretical", "--dist", dist, "--params", params,
                 "--n", "2", "--trials", "1000", "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "k=0" in err
    assert not (out / "sweep.tsv").exists()
