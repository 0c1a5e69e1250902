"""Per-layer tracing: which reservelab functions get spans, and the metrics drawn from them.

Wrappers go on the names the calling modules bind (`reservelab.cli.parse_log`,
`reservelab.logio.optimal_lazy`, ...) and on the module's own global, so calls
from inside a module are seen too. Nothing under `src/` is edited.
"""

from __future__ import annotations

import math
import os

import numpy as np

import spans
from workloads import EAGER_LOCAL_SIZES, MC_SIZES, distinct_candidates, max_abs_z, read_log


def _file_counts(path) -> tuple[int, int]:
    """(data rows, bytes) of a log or reserve file; CSV headers are not rows."""
    with open(path, "rb") as fh:
        data = fh.read()
    return data.count(b"\n") - (not data.startswith(b"{")), len(data)


def _arg(args, kwargs, i, key):
    return args[i] if len(args) > i else kwargs[key]


def _kernel_rows(args, kwargs, _result):
    """auction x reserve-row evaluations: the broadcast of bids and reserves, minus the bidder axis."""
    shape = np.broadcast_shapes(np.shape(args[0]), np.shape(_arg(args, kwargs, 1, "reserves")))
    return (math.prod(shape[:-1]),)


def install_tracing(tracer: spans.Tracer) -> None:
    import reservelab
    from reservelab import (abtest, cli, distributions, generators, logio, logs, optimize,
                            product, vectorized)
    modules = [reservelab, abtest, cli, distributions, generators, logio, logs, optimize,
               product, vectorized]

    def counts_of(pos, key):
        return lambda a, k, r: _file_counts(_arg(a, k, pos, key))

    def by_mechanism(base, pos):
        return lambda a, k: f"{base}.{_arg(a, k, pos, 'mechanism').value}"

    # (module, function, span name or None for "<module>.<function>", work counts)
    functions = [
        (cli, "main", None, None),
        (logio, "parse_log", None, counts_of(0, "path")),
        (logio, "write_log", None, counts_of(1, "path")),
        (logio, "read_reserves", None, counts_of(0, "path")),
        (logio, "write_reserves", None, counts_of(1, "path")),
        (logio, "quantize_log", None, None),
        (logio, "compute_lift_report", None, None),
        (logio, "lift_revenue_tsv", None, None),
        (logio, "lift_welfare_tsv", None, None),
        (generators, "sample_log", None, None),
        (generators, "gen_iid", None, None),
        (generators, "gen_hardness_instance", None, None),
        (vectorized, "lazy_payments", "vectorized.lazy", _kernel_rows),
        (vectorized, "eager_payments", "vectorized.eager", _kernel_rows),
        (vectorized, "payments", None, None),
        (optimize, "optimal_lazy", None, None),
        (optimize, "monopoly_reserves", None, None),
        (optimize, "empirical_revenue", None, None),
        (optimize, "optimal_eager_exact", None, None),
        (optimize, "eager_coordinate_ascent",
         lambda a, k: f"optimize.eager_local.T{len(_arg(a, k, 0, 'log'))}", None),
        (product, "optimal_reserves_product", by_mechanism("product.optimal_reserves_product", 1),
         None),
        (product, "trim_lift", None, None),
        (product, "expected_revenue_product", None, None),
        (abtest, "empirical_treatment_sweep", by_mechanism("abtest.empirical_treatment_sweep", 3),
         None),
        (abtest, "sweep_theoretical", None, None),
        (abtest, "paired_treatment_deltas", None, None),
        (abtest, "rev_e_k_quadrature", None, None),
        (abtest, "expected_second_highest", None, None),
        (abtest, "rev_e_k_closed_uniform", None, None),
        (abtest, "simulate_treatment", None, None),
        (distributions, "myerson_reserve", None, None),
    ]
    for mod, attr, name, work in functions:
        original = getattr(mod, attr)
        wrapper = tracer.wrap(original, name or f"{mod.__name__.split('.')[-1]}.{attr}", work)
        if spans.rebind(modules, original, wrapper) == 0:
            raise RuntimeError(f"no binding of {mod.__name__}.{attr} to trace")
    # only abtest's binding: distributions' own regularity grid calls phi 10^4 times per sweep
    spans.rebind([abtest], distributions.virtual_value,
                 tracer.wrap(distributions.virtual_value, "distributions.virtual_value"))
    for cls, attr, name in ((logs.BidLog, "to_matrix", "logs.to_matrix"),
                            (logs.BidLog, "from_matrix", "logs.from_matrix"),
                            (distributions.ContinuousDist, "sample", "distributions.sample")):
        raw = cls.__dict__[attr]
        if isinstance(raw, staticmethod):
            setattr(cls, attr, staticmethod(tracer.wrap(raw.__func__, name)))
        else:
            setattr(cls, attr, tracer.wrap(raw, name))


# ---------------------------------------------------------------------------
# Per-layer metrics from one traced repetition.

PER_LAYER = [
    # name, unit; README.md says which are span times, exact counts or computed values
    ("cli.main.self_s", "s"),
    ("logio.parse_log.self_s", "s"),
    ("logio.parse_log.calls", "count"),
    ("logio.parse_log.rows_per_s", "1/s"),
    ("logio.write_log.self_s", "s"),
    ("logio.write_log.rows_per_s", "1/s"),
    ("logio.quantize_log.self_s", "s"),
    ("logio.bytes_read", "bytes"),
    ("logio.bytes_written", "bytes"),
    ("logs.from_matrix.self_s", "s"),
    ("logs.to_matrix.self_s", "s"),
    ("logs.to_matrix.calls", "count"),
    ("generators.sample_log.self_s", "s"),
    ("vectorized.lazy.calls", "count"),
    ("vectorized.lazy.self_s", "s"),
    ("vectorized.eager.calls", "count"),
    ("vectorized.eager.self_s", "s"),
    ("vectorized.auction_rows_per_s", "1/s"),
    ("optimize.optimal_lazy.self_s", "s"),
    ("optimize.monopoly_reserves.self_s", "s"),
    ("optimize.empirical_revenue.calls", "count"),
    ("optimize.eager_local.T250_s", "s"),
    ("optimize.eager_local.T500_s", "s"),
    ("optimize.eager_local.T1000_s", "s"),
    ("optimize.eager_local.growth_exponent", "1"),
    ("optimize.eager_local.candidates", "count"),
    ("optimize.optimal_eager_exact.self_s", "s"),
    ("optimize.optimal_eager_exact.vectors_per_s", "1/s"),
    ("product.optimal_reserves_product.lazy_s", "s"),
    ("product.optimal_reserves_product.eager_s", "s"),
    ("product.trim_lift.self_s", "s"),
    ("product.expected_revenue_product.calls", "count"),
    ("abtest.empirical_treatment_sweep.lazy_s", "s"),
    ("abtest.empirical_treatment_sweep.eager_s", "s"),
    ("abtest.sweep_theoretical.self_s", "s"),
    ("abtest.paired_treatment_deltas.self_s", "s"),
    ("abtest.rev_e_k_quadrature.self_s", "s"),
    ("abtest.rev_e_k_quadrature.calls", "count"),
    ("abtest.expected_second_highest.self_s", "s"),
    ("abtest.exponential_probe_s", "s"),
    ("abtest.max_abs_z", "z"),
    ("distributions.sample.self_s", "s"),
    ("distributions.virtual_value.calls", "count"),
]


def per_layer(agg: dict, op_times: dict[str, float], rep: str) -> dict[str, float]:
    """PER_LAYER values of one traced repetition; `rep` holds its artifacts."""
    def g(name):
        return agg.get(name, spans.SpanStats(0, 0.0, 0.0, ()))

    def rate(work, seconds):
        return work / seconds if seconds > 0 else 0.0

    def work(name, i=0):
        w = g(name).work
        return w[i] if w else 0

    out = {}
    for name in ("cli.main", "logio.parse_log", "logio.write_log", "logio.quantize_log",
                 "logs.from_matrix", "logs.to_matrix", "generators.sample_log",
                 "vectorized.lazy", "vectorized.eager", "optimize.optimal_lazy",
                 "optimize.monopoly_reserves", "optimize.optimal_eager_exact",
                 "product.trim_lift", "abtest.sweep_theoretical",
                 "abtest.paired_treatment_deltas", "abtest.rev_e_k_quadrature",
                 "abtest.expected_second_highest", "distributions.sample"):
        out[f"{name}.self_s"] = g(name).self_s
    for name in ("logio.parse_log", "logs.to_matrix", "vectorized.lazy", "vectorized.eager",
                 "optimize.empirical_revenue", "product.expected_revenue_product",
                 "abtest.rev_e_k_quadrature", "distributions.virtual_value"):
        out[f"{name}.calls"] = g(name).calls
    out["logio.parse_log.rows_per_s"] = rate(work("logio.parse_log"),
                                             g("logio.parse_log").self_s)
    out["logio.write_log.rows_per_s"] = rate(work("logio.write_log"),
                                             g("logio.write_log").self_s)
    out["logio.bytes_read"] = work("logio.parse_log", 1) + work("logio.read_reserves", 1)
    out["logio.bytes_written"] = work("logio.write_log", 1) + work("logio.write_reserves", 1)
    out["vectorized.auction_rows_per_s"] = rate(
        work("vectorized.lazy") + work("vectorized.eager"),
        g("vectorized.lazy").self_s + g("vectorized.eager").self_s)
    for T in EAGER_LOCAL_SIZES:
        out[f"optimize.eager_local.T{T}_s"] = g(f"optimize.eager_local.T{T}").total_s
    t500, t1000 = out["optimize.eager_local.T500_s"], out["optimize.eager_local.T1000_s"]
    out["optimize.eager_local.growth_exponent"] = (math.log2(t1000 / t500)
                                                   if t500 > 0 and t1000 > 0 else 0.0)
    for mech in ("lazy", "eager"):
        out[f"product.optimal_reserves_product.{mech}_s"] = \
            g(f"product.optimal_reserves_product.{mech}").total_s
        out[f"abtest.empirical_treatment_sweep.{mech}_s"] = \
            g(f"abtest.empirical_treatment_sweep.{mech}").total_s
    out["abtest.exponential_probe_s"] = op_times.get("probe_exponential", 0.0)

    # values computed from the repetition's artifacts, not from spans
    j = os.path.join
    cands = [distinct_candidates(read_log(j(rep, f"gen_T{T}", "log.jsonl")))
             for T in EAGER_LOCAL_SIZES if os.path.exists(j(rep, f"gen_T{T}", "log.jsonl"))]
    out["optimize.eager_local.candidates"] = sum(cands)
    vectors = 0
    for path in ("gen_T30/log.csv", "hardness/log.csv"):
        if os.path.exists(j(rep, path)):
            log = read_log(j(rep, path))
            width = len({b for bids in log.values() for b in bids})
            vectors += distinct_candidates(log) ** width
    out["optimize.optimal_eager_exact.vectors_per_s"] = rate(
        vectors, g("optimize.optimal_eager_exact").self_s)
    out["abtest.max_abs_z"] = max_abs_z([j(rep, f"sweep_n{n}", "sweep.tsv") for n in MC_SIZES])
    return {name: out[name] for name, _ in PER_LAYER}
