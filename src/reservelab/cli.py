"""Command-line pipeline: generate logs, optimize reserves, emit lift tables and sweeps.

Configuration comes from an optional JSON file (--config) with every flag
overriding the matching key. Outputs land in --out: data artifacts
(log/reserve CSVs, TSV tables) are byte-identical across reruns of the same
config and seed; summary.json additionally records the wall-clock runtime.

Exit codes: 0 success, 2 bad configuration, 3 bad data, 4 refused search size.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import asdict, dataclass, field, fields as dataclass_fields
from typing import Optional, get_type_hints

from .abtest import SweepResult, SweepRow, empirical_treatment_sweep, sweep_theoretical
from .distributions import ContinuousDist, equal_revenue_dist, exponential_dist, uniform_dist
from .errors import ConfigError, DomainError, LogParseError, SearchSpaceTooLarge
from .generators import (gen_correlated_equal_revenue, gen_geometric_pair,
                         gen_hardness_instance, gen_high_low, gen_iid,
                         gen_symmetric_one_high, sample_log)
from .logio import (compute_lift_report, lift_revenue_tsv, lift_welfare_tsv,
                    parse_log, quantize_log, read_reserves, write_log, write_reserves)
from .logs import BidLog
from .mechanics import Mechanism, ReserveVector
from .optimize import (eager_coordinate_ascent, empirical_revenue, empirical_totals,
                       monopoly_reserves, optimal_eager_exact, optimal_lazy)

TASKS = ("lazy", "monopoly", "eager-exact", "eager-local")
DEFAULT_GRID = (0.0, 0.2, 0.4, 0.6, 0.8, 1.0)


@dataclass
class RunConfig:
    input: Optional[str | list] = None  # path, or list of paths for lift-tables
    generator: Optional[str] = None
    params: dict = field(default_factory=dict)
    count: Optional[int] = None
    seed: int = 0
    format: Optional[str] = None
    out: str = "."
    mechanism: str = "both"
    task: Optional[str] = None
    max_product_size: int = 1_000_000
    max_rounds: int = 50
    trials: int = 100_000
    mode: str = "theoretical"
    dist: Optional[str] = None
    n: Optional[int] = None
    reserves: Optional[str] = None
    grid: Optional[str | list] = None
    assignments: int = 200


_CONFIG_KEYS = {f.name for f in dataclass_fields(RunConfig)}
_FIELD_TYPES = get_type_hints(RunConfig)  # checked on load; no field takes a bool
_MIN_INT = {"seed": 0, **dict.fromkeys(("count", "max_product_size", "max_rounds", "trials",
                                        "n", "assignments"), 1)}


def load_config(config_path: Optional[str], overrides: dict) -> RunConfig:
    data: dict = {}
    if config_path is not None:
        if not os.path.exists(config_path):
            raise ConfigError(f"config file not found: {config_path}")
        with open(config_path, "r", encoding="utf-8") as fh:
            try:
                loaded = json.load(fh)
            except json.JSONDecodeError as e:
                raise ConfigError(f"config is not valid JSON: {e.msg}") from None
        if not isinstance(loaded, dict):
            raise ConfigError("config must be a JSON object")
        data.update(loaded)
    data.update({k: v for k, v in overrides.items() if v is not None})
    unknown = set(data) - _CONFIG_KEYS
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    cfg = RunConfig(**data)
    for name, want in _FIELD_TYPES.items():
        value = getattr(cfg, name)
        if isinstance(value, bool) or not isinstance(value, want):
            raise ConfigError(f"{name} has the wrong JSON type: {value!r}")
        if name in _MIN_INT and value is not None and value < _MIN_INT[name]:
            raise ConfigError(f"{name} must be an integer >= {_MIN_INT[name]}, got {value!r}")
    if cfg.mechanism not in ("lazy", "eager", "both"):
        raise ConfigError(f"mechanism must be lazy, eager or both, got {cfg.mechanism!r}")
    return cfg


def _mechanisms(cfg: RunConfig) -> list[Mechanism]:
    if cfg.mechanism == "both":
        return [Mechanism.LAZY, Mechanism.EAGER]
    return [Mechanism(cfg.mechanism)]


_DISTS = {"uniform": uniform_dist, "exponential": exponential_dist,
          "equal_revenue": equal_revenue_dist}


def make_dist(name: str, params: dict) -> ContinuousDist:
    """The named distribution, built with the params as keyword arguments."""
    if name not in _DISTS:
        raise ConfigError(f"unknown distribution {name!r}; "
                          f"want uniform, exponential or equal_revenue")
    try:
        return _DISTS[name](**params)
    except (TypeError, ValueError) as e:
        raise ConfigError(f"bad parameters for distribution {name!r}: {e}") from None


_GENERATORS = {
    "high_low": gen_high_low,
    "correlated_equal_revenue": gen_correlated_equal_revenue,
    "symmetric_one_high": gen_symmetric_one_high,
    "geometric_pair": gen_geometric_pair,
}


def materialize_log(cfg: RunConfig) -> BidLog:
    """Build a BidLog from the generator and its params; bids quantized to micros."""
    name, params = cfg.generator, dict(cfg.params)
    if name == "hardness":
        try:
            log = gen_hardness_instance(**params)
        except (TypeError, ValueError) as e:
            raise ConfigError(f"bad hardness parameters: {e}") from None
        return quantize_log(log)
    if name == "iid":
        dist_name = params.pop("dist", None)
        n = params.pop("n", None)
        if dist_name is None or isinstance(n, bool) or not isinstance(n, int) or n < 1:
            raise ConfigError(f"iid generator needs params {{dist, n, ...}} with n an integer "
                              f">= 1, got dist={dist_name!r}, n={n!r}")
        gen = gen_iid(make_dist(dist_name, params), n)
    elif name in _GENERATORS:
        try:
            gen = _GENERATORS[name](**params)
        except (TypeError, ValueError) as e:
            raise ConfigError(f"bad parameters for generator {name!r}: {e}") from None
    else:
        raise ConfigError(f"unknown generator {name!r}; want one of "
                          f"{sorted(_GENERATORS) + ['iid', 'hardness']}")
    if cfg.count is None:
        raise ConfigError("generator input needs a positive count")
    return quantize_log(sample_log(gen, cfg.count, cfg.seed))


def _input_paths(cfg: RunConfig) -> list[str]:
    """The --input paths, each checked to exist."""
    paths = cfg.input if isinstance(cfg.input, list) else [cfg.input]
    for path in paths:
        if not isinstance(path, str):
            raise ConfigError(f"bad input {cfg.input!r}")
        if not os.path.exists(path):
            raise ConfigError(f"input file not found: {path}")
    return paths


def _single_input_path(cfg: RunConfig) -> str:
    """The one --input path of a command that reads a single log."""
    paths = _input_paths(cfg)
    if len(paths) != 1:
        raise ConfigError(f"want exactly one --input path, got {len(paths)}")
    return paths[0]


def _input_log(cfg: RunConfig) -> tuple[BidLog, str]:
    """Resolve the single input source to a log and a slot name."""
    has_input = cfg.input is not None
    if has_input == (cfg.generator is not None):
        raise ConfigError("exactly one input source required: --input or --generator")
    if has_input:
        path = _single_input_path(cfg)
        return parse_log(path, cfg.format), os.path.basename(path)
    return materialize_log(cfg), f"{cfg.generator}(seed={cfg.seed})"


def _write_summary(cfg: RunConfig, command: str, outputs: list[str],
                   extra: dict, started: float) -> str:
    path = os.path.join(cfg.out, "summary.json")
    doc = {"command": command, "config": asdict(cfg), "outputs": sorted(outputs),
           "runtime_seconds": time.monotonic() - started}
    doc.update(extra)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True, default=str)
        fh.write("\n")
    return path


def cmd_gen(cfg: RunConfig) -> str:
    """Materialize a generator to a log file. Returns the log path."""
    started = time.monotonic()
    if cfg.generator is None:
        raise ConfigError("gen needs --generator")
    if cfg.input is not None:
        raise ConfigError("gen takes no --input")
    log = materialize_log(cfg)
    fmt = cfg.format or "csv"
    os.makedirs(cfg.out, exist_ok=True)
    path = os.path.join(cfg.out, f"log.{fmt}")
    write_log(log, path, fmt)
    _write_summary(cfg, "gen", [path],
                   {"auctions": len(log), "bidders": len(log.bidder_ids)}, started)
    return path


def cmd_optimize(cfg: RunConfig):
    """Run one reserve-optimization task; writes reserves.csv and summary.json."""
    started = time.monotonic()
    if cfg.task not in TASKS:
        raise ConfigError(f"task must be one of {TASKS}, got {cfg.task!r}")
    log, slot = _input_log(cfg)
    if cfg.task == "lazy":
        mech = Mechanism.LAZY
        result = optimal_lazy(log)
    elif cfg.task == "monopoly":
        mech = Mechanism.EAGER if cfg.mechanism == "both" else Mechanism(cfg.mechanism)
        result = monopoly_reserves(log, mech)
    elif cfg.task == "eager-exact":
        mech = Mechanism.EAGER
        result = optimal_eager_exact(log, cfg.max_product_size)
    else:
        mech = Mechanism.EAGER
        result = eager_coordinate_ascent(log, max_rounds=cfg.max_rounds)
    os.makedirs(cfg.out, exist_ok=True)
    reserve_path = os.path.join(cfg.out, "reserves.csv")
    write_reserves(result.reserves, reserve_path)
    extra = {
        "task": cfg.task,
        "slot": slot,
        "mechanism": mech.value,
        "auctions": len(log),
        "bidders": len(log.bidder_ids),
        "revenue_zero_reserve": empirical_revenue(log, ReserveVector.zero(), mech),
        "expected_revenue": result.expected_revenue,
        "total_revenue": empirical_totals(log, result.reserves, mech)[0],
    }
    if cfg.task == "eager-local":
        extra.update(rounds=result.rounds, converged=result.converged)
    summary = _write_summary(cfg, "optimize", [reserve_path], extra, started)
    return result, reserve_path, summary


def cmd_lift_tables(cfg: RunConfig):
    """Revenue-lift and welfare-loss tables, one slot per input log."""
    started = time.monotonic()
    if cfg.input is not None and cfg.generator is None:
        reports = [compute_lift_report(parse_log(path, cfg.format), os.path.basename(path))
                   for path in _input_paths(cfg)]
    else:  # a generator, or the error for both or neither source
        reports = [compute_lift_report(*_input_log(cfg))]
    os.makedirs(cfg.out, exist_ok=True)
    rev_path = os.path.join(cfg.out, "lift_revenue.tsv")
    wel_path = os.path.join(cfg.out, "lift_welfare.tsv")
    with open(rev_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(lift_revenue_tsv(reports))
    with open(wel_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(lift_welfare_tsv(reports))
    _write_summary(cfg, "lift-tables", [rev_path, wel_path],
                   {"slots": [r.slot for r in reports]}, started)
    return reports, rev_path, wel_path


def _parse_grid(grid) -> list[float]:
    if grid is None:
        return list(DEFAULT_GRID)
    if isinstance(grid, str):
        grid = [tok for tok in grid.split(",") if tok.strip() != ""]
    try:
        values = [float(x) for x in grid]
    except (TypeError, ValueError):
        raise ConfigError(f"bad grid {grid!r}") from None
    if not values:
        raise ConfigError(f"bad grid {grid!r}")
    return values


def cmd_sweep(cfg: RunConfig):
    """Treatment-size sweep, theoretical (distribution) or empirical (log + reserves)."""
    started = time.monotonic()
    mechanisms = _mechanisms(cfg)
    if cfg.mode == "theoretical":
        if cfg.dist is None or cfg.n is None:
            raise ConfigError("theoretical sweep needs --dist and --n")
        dist = make_dist(cfg.dist, cfg.params)
        results = [sweep_theoretical(dist, cfg.n, mech, cfg.trials, cfg.seed)
                   for mech in mechanisms]
    elif cfg.mode == "empirical":
        if cfg.input is None or cfg.reserves is None:
            raise ConfigError("empirical sweep needs --input and --reserves")
        path = _single_input_path(cfg)
        if not os.path.exists(cfg.reserves):
            raise ConfigError(f"reserve file not found: {cfg.reserves}")
        log = parse_log(path, cfg.format)
        reserves = read_reserves(cfg.reserves)
        grid = _parse_grid(cfg.grid)
        results = [empirical_treatment_sweep(log, reserves, grid, mech,
                                             cfg.assignments, cfg.seed)
                   for mech in mechanisms]
    else:
        raise ConfigError(f"mode must be theoretical or empirical, got {cfg.mode!r}")
    rows: list[SweepRow] = []
    for res in results:
        rows.extend(res.rows)
    combined = SweepResult(tuple(rows), cfg.seed, results[0].descriptor)
    os.makedirs(cfg.out, exist_ok=True)
    path = os.path.join(cfg.out, "sweep.tsv")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(combined.to_tsv())
    _write_summary(cfg, "sweep", [path], {"rows": len(rows)}, started)
    return combined, path


def _build_parser() -> argparse.ArgumentParser:
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--config", help="JSON config file; flags override its keys")
    shared.add_argument("--input", action="append", help="input log path")
    shared.add_argument("--params", help="generator/distribution parameters as JSON")
    shared.add_argument("--seed", type=int, help="PRNG seed")
    shared.add_argument("--format", choices=["csv", "jsonl"], help="log file format")
    shared.add_argument("--out", help="output directory")
    generated = argparse.ArgumentParser(add_help=False)
    generated.add_argument("--generator", help="generator name (gen_* family)")
    generated.add_argument("--count", type=int, help="auctions to generate")

    parser = argparse.ArgumentParser(prog="reservelab",
                                     description="Second-price auction reserve toolkit")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("gen", parents=[shared, generated],
                   help="materialize a generator to a log file")
    p_opt = sub.add_parser("optimize", parents=[shared, generated],
                           help="compute reserve prices")
    p_opt.add_argument("--task", choices=list(TASKS))
    p_opt.add_argument("--max-product-size", type=int, dest="max_product_size")
    p_opt.add_argument("--max-rounds", type=int, dest="max_rounds")
    sub.add_parser("lift-tables", parents=[shared, generated],
                   help="revenue-lift and welfare-loss tables")
    p_sweep = sub.add_parser("sweep", parents=[shared], help="treated-share revenue sweep")
    for p in (p_opt, p_sweep):  # optimize: the monopoly task's scoring rule
        p.add_argument("--mechanism", choices=["lazy", "eager", "both"])
    p_sweep.add_argument("--trials", type=int, help="Monte-Carlo trials")
    p_sweep.add_argument("--mode", choices=["theoretical", "empirical"])
    p_sweep.add_argument("--dist", help="distribution name for theoretical mode")
    p_sweep.add_argument("--n", type=int, help="bidders per auction (theoretical)")
    p_sweep.add_argument("--reserves", help="reserve CSV for empirical mode")
    p_sweep.add_argument("--grid", help="comma-separated treated fractions")
    p_sweep.add_argument("--assignments", type=int, help="subsets per sweep point")
    return parser


_COMMANDS = {"gen": cmd_gen, "optimize": cmd_optimize,
             "lift-tables": cmd_lift_tables, "sweep": cmd_sweep}


def main(argv=None) -> int:
    ns = _build_parser().parse_args(argv)
    overrides = {k: v for k, v in vars(ns).items()
                 if k in _CONFIG_KEYS and v is not None}
    try:
        if "params" in overrides and isinstance(overrides["params"], str):
            try:
                overrides["params"] = json.loads(overrides["params"])
            except json.JSONDecodeError as e:
                raise ConfigError(f"--params is not valid JSON: {e.msg}") from None
        cfg = load_config(ns.config, overrides)
        _COMMANDS[ns.command](cfg)
        return 0
    except LogParseError as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except SearchSpaceTooLarge as e:
        print(f"refusing: {e}", file=sys.stderr)
        return 4
    except ConfigError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except DomainError as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
