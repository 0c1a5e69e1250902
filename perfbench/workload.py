"""One repetition of one workload, in a fresh process: timed operations, checks, tracing.

run.py starts this from the repository root with `src` on PYTHONPATH:

    python3 perfbench/workload.py --workload NAME --seed N --rep-dir DIR [--trace]
    python3 perfbench/workload.py --workload NAME --seed N --setup-only

The process is a single closed-loop client: it calls the CLI entry point
(`reservelab.cli.main`) and a few library functions in-process, one after
another, with no threads. Every repetition is a fresh process, as every
`reservelab` command is, so repetitions are alike and none runs warm.

The last line of stdout is one JSON object: the set-up time, each operation's
time, error, check failures and artifact digests, the peak RSS, and with
--trace the per-layer metrics of this repetition.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()  # set-up is timed from here: imports plus input building

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from typing import Optional  # noqa: E402

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import layers  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS, Op, OpFailed  # noqa: E402


def run_op(op: Op, rep: str, tracer: Optional[spans.Tracer], index: int):
    """Time one op. Returns (seconds, error or None, value handed to the check)."""
    gc.collect()
    err, value = None, None
    if tracer is not None:
        tracer.trace_id, tracer.enabled = index, True
    t0 = time.perf_counter()
    try:
        if tracer is not None:
            with tracer.span(f"op.{op.name}"):
                value = op.run(rep)
        else:
            value = op.run(rep)
    except (Exception, SystemExit) as e:  # an op failure is a result, not a crash
        err = f"{type(e).__name__}: {e}"
        if not isinstance(e, OpFailed):
            traceback.print_exc(file=sys.stderr)
    dt = time.perf_counter() - t0
    if tracer is not None:
        tracer.enabled = False
    return dt, err, value


def digest(path: str) -> Optional[str]:
    if not os.path.exists(path):
        return None
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def check(op: Op, rep: str, value) -> list[str]:
    try:
        return op.check(rep, value)
    except Exception as e:
        traceback.print_exc(file=sys.stderr)
        return [f"check raised {type(e).__name__}: {e}"]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--rep-dir")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    ops = WORKLOADS[args.workload](args.seed)
    setup_s = time.perf_counter() - T_START
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    rep = os.path.abspath(args.rep_dir)
    os.makedirs(rep, exist_ok=True)
    tracer = None
    if args.trace:
        tracer = spans.Tracer()
        layers.install_tracing(tracer)
    results = [run_op(op, rep, tracer, i) for i, op in enumerate(ops)]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # before checks

    out_ops = []
    for op, (dt, err, value) in zip(ops, results):
        failures = [] if err is not None else check(op, rep, value)
        digests = [digest(os.path.join(rep, rel)) for rel in op.artifacts]
        if err is None and None in digests:
            failures.append("missing artifact")
        out_ops.append({"name": op.name, "stage": op.stage, "probe": op.probe,
                        "trials": op.trials, "time": dt, "error": err,
                        "failures": failures, "digests": digests})
    result = {"setup_s": setup_s, "peak_rss_mb": peak_rss_mb, "ops": out_ops}
    if tracer is not None:
        result["per_layer"] = layers.per_layer(spans.aggregate(tracer.spans),
                                               {op.name: r[0] for op, r in zip(ops, results)},
                                               rep)
        result["per_layer_units"] = dict(layers.PER_LAYER)
        with open(os.path.join(rep, "spans.json"), "w", encoding="utf-8") as fh:
            json.dump([s._asdict() for s in tracer.spans], fh)
            fh.write("\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
