"""reservelab benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Each repetition of the workload is a fresh
subprocess (perfbench/workload.py) against the sources in `src/`; nothing is
installed. Another repetition starts only while the run so far, plus one more
repetition as long as the last, stays within --seconds; there is always at
least one. A traced run makes exactly two: one untraced, then one traced,
so their wall times give the tracing overhead. Set-up time is the median
over at least five fresh processes: the repetitions, topped up with
processes that only import reservelab and build the workload's inputs.

Every data artifact (log, reserves, TSVs, serialized library results) must be
byte-identical across the repetitions of a run; a mismatch fails the
operation.

stdout: a human-readable report, then, as the last line, one JSON object with
the keys correct, attempted, failed and metrics. With --trace 0 the metrics
are BENCHMARK.json's end_to_end list; with --trace 1 its per_layer list. The
full report (every workload metric, every per-layer metric, per-op samples
and check outcomes) is also written to
.perfbench_runs/<workload>-seed<N>-trace<T>/report.json.

Exits 2 without a result line when the program or the workload cannot run.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from typing import Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("log_pipeline", "eager_search", "mc_sweep")
DEADLINE_S = 170.0  # a run must end within 180 s
SETUP_SAMPLES = 5

E2E_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB", "ops_failed_frac": "frac",
             "gen_s": "s", "optimize_lazy_s": "s", "lift_tables_s": "s",
             "sweep_empirical_s": "s", "eager_local_s": "s", "eager_exact_s": "s",
             "product_search_s": "s", "mc_trials_per_s": "1/s", "paired_deltas_s": "s"}


def fail(msg: str) -> int:
    print(f"perfbench: {msg}", file=sys.stderr)
    return 2


def child(args: list[str], timeout: float) -> dict:
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    # one thread per numeric library: a single-process client on a shared machine
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    proc = subprocess.run([sys.executable, os.path.join(HERE, "workload.py"), *args],
                          cwd=ROOT, env=env, stdout=subprocess.PIPE, timeout=timeout)
    lines = proc.stdout.decode("utf-8", "replace").strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"workload process exited {proc.returncode}")
    return json.loads(lines[-1])


def outcomes(reps: list[dict]) -> dict[str, list[Optional[str]]]:
    """Per op, per repetition: None when it ran, passed its check and reproduced the
    artifacts of the op's first successful repetition; otherwise why not."""
    out: dict[str, list] = {}
    first_digests: dict[str, list] = {}
    for rep in reps:
        for op in rep["ops"]:
            name = op["name"]
            if op["error"] is not None:
                verdict = op["error"]
            elif name in first_digests and op["digests"] != first_digests[name]:
                verdict = "artifacts differ from the first repetition"
            else:
                first_digests.setdefault(name, op["digests"])
                verdict = "; ".join(op["failures"]) or None
            out.setdefault(name, []).append(verdict)
    return out


def end_to_end(reps: list[dict], verdicts: dict) -> dict:
    """Workload metrics from per-op medians over the untraced repetitions. The probe
    is kept out of wall_s, so fixing it cannot read as a regression, but it counts
    in ops_failed_frac."""
    ops = reps[0]["ops"]
    med = {op["name"]: statistics.median(r["ops"][i]["time"] for r in reps)
           for i, op in enumerate(ops)}
    out = {"wall_s": sum(med[op["name"]] for op in ops if not op["probe"])}
    every = [v for vs in verdicts.values() for v in vs]
    out["ops_failed_frac"] = sum(v is not None for v in every) / len(every)
    stage_time: dict[str, float] = {}
    stage_trials: dict[str, int] = {}
    for op in ops:
        if op["stage"] is not None:
            stage_time[op["stage"]] = stage_time.get(op["stage"], 0.0) + med[op["name"]]
            stage_trials[op["stage"]] = stage_trials.get(op["stage"], 0) + op["trials"]
    for stage, seconds in stage_time.items():
        out[stage] = stage_trials[stage] / seconds if stage_trials[stage] else seconds
    out["peak_rss_mb"] = max(r["peak_rss_mb"] for r in reps)
    return out


def report_lines(args, reps, e2e, verdicts, layers) -> list[str]:
    out = [f"reservelab benchmark: workload={args.workload} seed={args.seed} "
           f"trace={args.trace} repetitions={len(reps)}"]
    untraced = len(reps) - args.trace
    out.append("end-to-end (medians over untraced repetitions; n = samples):")
    for name, value in e2e.items():
        n = max(SETUP_SAMPLES, len(reps)) if name == "setup_s" else untraced
        out.append(f"  {name:<22} {value:>14.6g} {E2E_UNITS[name]:<6} n={n}")
    out.append("operations (seconds per repetition; outcome):")
    for i, op in enumerate(reps[0]["ops"]):
        times = " ".join(f"{r['ops'][i]['time']:.3f}" for r in reps)
        outcome = "; ".join(v for v in verdicts[op["name"]] if v) or "ok"
        tag = " [probe: reported, not counted in failed]" if op["probe"] else ""
        out.append(f"  {op['name']:<22} {times:<16} {outcome}{tag}")
    if layers:
        out.append("per-layer (traced repetition):")
        for name, (value, unit) in layers.items():
            out.append(f"  {name:<46} {value:>14.6g} {unit}")
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description="reservelab benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()
    started = time.monotonic()

    if not os.path.isfile(os.path.join(ROOT, "src", "reservelab", "__init__.py")):
        return fail("no program to measure: src/reservelab is missing")
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)

    out_dir = os.path.join(ROOT, ".perfbench_runs",
                           f"{args.workload}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(out_dir, ignore_errors=True)
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    reps: list[dict] = []
    try:
        while True:
            traced = args.trace == 1 and len(reps) == 1
            rep_dir = os.path.join(out_dir, f"rep{len(reps)}")
            t0 = time.monotonic()
            reps.append(child(common + ["--rep-dir", rep_dir] + ["--trace"] * traced,
                              DEADLINE_S - (t0 - started)))
            length = time.monotonic() - t0
            if traced or (not args.trace
                          and time.monotonic() - started + length > args.seconds):
                break
        setups = [r["setup_s"] for r in reps]
        while len(setups) < SETUP_SAMPLES:
            setups.append(child(common + ["--setup-only"],
                                DEADLINE_S - (time.monotonic() - started))["setup_s"])
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError, KeyError) as e:
        return fail(f"workload {args.workload} did not complete: {e}")

    verdicts = outcomes(reps)
    untraced = reps[:1] if args.trace else reps
    e2e = {"setup_s": statistics.median(setups), **end_to_end(untraced, verdicts)}
    layers = {}
    if args.trace:
        walls = [sum(op["time"] for op in r["ops"] if not op["probe"]) for r in reps]
        layers = {name: (value, reps[1]["per_layer_units"][name])
                  for name, value in reps[1]["per_layer"].items()}
        layers["trace_overhead_frac"] = (walls[1] / walls[0] - 1.0, "frac")
        os.replace(os.path.join(out_dir, "rep1", "spans.json"),
                   os.path.join(out_dir, "spans.json"))
    for k in range(len(reps)):
        shutil.rmtree(os.path.join(out_dir, f"rep{k}"), ignore_errors=True)

    probes = {op["name"] for op in reps[0]["ops"] if op["probe"]}
    counted = [v for name, vs in verdicts.items() if name not in probes for v in vs]
    failed = sum(v is not None for v in counted)
    lines = report_lines(args, reps, e2e, verdicts, layers)
    with open(os.path.join(out_dir, "report.json"), "w", encoding="utf-8") as fh:
        json.dump({"workload": args.workload, "seed": args.seed, "trace": args.trace,
                   "attempted": len(counted), "failed": failed, "setup_samples": setups,
                   "end_to_end": {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in e2e.items()},
                   "per_layer": {k: {"value": v, "unit": u} for k, (v, u) in layers.items()},
                   "outcomes": verdicts,
                   "op_times": {op["name"]: [r["ops"][i]["time"] for r in reps]
                                for i, op in enumerate(reps[0]["ops"])}}, fh, indent=1)
        fh.write("\n")

    source = {k: v for k, (v, _) in layers.items()} if args.trace else e2e
    chosen = spec["per_layer"] if args.trace else spec["end_to_end"]
    missing = [m["name"] for m in chosen if m["name"] not in source]
    if missing:
        return fail(f"metrics not measured: {missing}")
    print("\n".join(lines))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(counted),
        "failed": failed,
        "metrics": {m["name"]: {"value": source[m["name"]], "unit": m["unit"]} for m in chosen},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
