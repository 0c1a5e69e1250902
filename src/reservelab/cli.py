"""Command-line pipeline: generate logs, optimize reserves, emit lift tables and sweeps.

Configuration comes from an optional JSON file (--config) with every flag
overriding the matching key. Once the flags pass, main makes --out, the subcommand
writes its data artifacts there (byte-identical across reruns of the same config and
seed), and main writes summary.json, which also records the wall-clock runtime.

Exit codes: 0 success, 2 bad configuration, 3 bad data, 4 refused search size.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import dataclass, field, fields as dataclass_fields
from typing import Optional, get_type_hints

from .abtest import SweepResult, SweepRow, empirical_treatment_sweep, sweep_theoretical
from .distributions import ContinuousDist, equal_revenue_dist, exponential_dist, uniform_dist
from .errors import ConfigError, DomainError, LogParseError, SearchSpaceTooLarge
from .generators import (gen_correlated_equal_revenue, gen_geometric_pair,
                         gen_hardness_instance, gen_high_low, gen_iid,
                         gen_symmetric_one_high, sample_log)
from .logio import (LOG_FORMATS, compute_lift_report, lift_revenue_tsv, lift_welfare_tsv,
                    parse_log, quantize_log, read_reserves, write_log, write_reserves)
from .logs import BidLog
from .mechanics import Mechanism, ReserveVector
from .optimize import (MAX_PRODUCT_SIZE, eager_coordinate_ascent, empirical_revenue,
                       monopoly_reserves, optimal_eager_exact, optimal_lazy)

DEFAULT_GRID = (0.0, 0.2, 0.4, 0.6, 0.8, 1.0)


def _flag(default, help: str, **check):
    """A RunConfig field with its --help text and checks: `least` (an integer's least value),
    `choices`, and `needed` (a run that reads the flag cannot do without it)."""
    factory = {"default_factory": dict} if default is dict else {"default": default}
    return field(metadata={"help": help, **check}, **factory)


@dataclass
class RunConfig:
    input: Optional[str | list] = _flag(None, "input log path", needed=True)  # lift-tables: a list
    generator: Optional[str] = _flag(None, "generator name (gen_* family)")
    params: dict = _flag(dict, "generator/distribution parameters as JSON")
    count: Optional[int] = _flag(None, "auctions to generate", least=1, needed=True)
    seed: int = _flag(0, "PRNG seed", least=0)
    format: Optional[str] = _flag(None, "log file format", choices=LOG_FORMATS)
    out: str = _flag(".", "output directory")
    mechanism: str = _flag("both", "payment rule", choices=("lazy", "eager", "both"))
    task: Optional[str] = _flag(None, "reserve-optimization task")
    max_product_size: int = _flag(MAX_PRODUCT_SIZE, "largest eager-exact search", least=1)
    max_rounds: int = _flag(50, "eager-local rounds", least=1)
    trials: int = _flag(100_000, "Monte-Carlo trials", least=1)
    mode: str = _flag("theoretical", "sweep mode")
    dist: Optional[str] = _flag(None, "distribution name for theoretical mode", needed=True)
    n: Optional[int] = _flag(None, "bidders per auction (theoretical)", least=1, needed=True)
    reserves: Optional[str] = _flag(None, "reserve CSV for empirical mode", needed=True)
    grid: Optional[str | list] = _flag(None, "comma-separated treated fractions")
    assignments: int = _flag(200, "subsets per sweep point", least=1)


_FLAGS = {f.name: f.metadata for f in dataclass_fields(RunConfig)}
_FIELD_TYPES = get_type_hints(RunConfig)  # checked on load; no field takes a bool


def load_config(config_path: Optional[str], overrides: dict) -> RunConfig:
    data: dict = {}
    if config_path is not None:
        with open(config_path, "r", encoding="utf-8") as fh:
            try:
                loaded = json.load(fh)
            except json.JSONDecodeError as e:
                raise ConfigError(f"config is not valid JSON: {e.msg}") from None
        if not isinstance(loaded, dict):
            raise ConfigError("config must be a JSON object")
        data.update(loaded)
    data.update({k: v for k, v in overrides.items() if v is not None})
    unknown = set(data) - set(_FLAGS)
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    cfg = RunConfig(**data)
    for name, want in _FIELD_TYPES.items():
        value, check = getattr(cfg, name), _FLAGS[name]
        if isinstance(value, bool) or not isinstance(value, want):
            raise ConfigError(f"{name} has the wrong JSON type: {value!r}")
        if "least" in check and value is not None and value < check["least"]:
            raise ConfigError(f"{name} must be an integer >= {check['least']}, got {value!r}")
        if "choices" in check and value not in (None, *check["choices"]):
            raise ConfigError(f"{name} must be one of {check['choices']}, got {value!r}")
    for key, value in cfg.params.items():  # no law or generator takes a bool either
        if isinstance(value, bool):
            raise ConfigError(f"{key} has the wrong JSON type: {value!r}")
    return cfg


def _variant(command: str, cfg: RunConfig, choice: str, variants: dict) -> tuple[str, str]:
    """The variant a run picks for a choice, and the flags that picked it; ConfigError if
    it picks none of `variants` (for the source: neither or both of --input and --generator)."""
    if choice != "source":
        value = getattr(cfg, choice)
        if value not in variants:
            raise ConfigError(f"{choice} must be one of {tuple(variants)}, got {value!r}")
        return value, f"--{choice} {value}"
    given = [v for v, on in (("input", cfg.input is not None),
                             ("hardness", cfg.generator == "hardness"),
                             ("generator", cfg.generator not in (None, "hardness")))
             if on and v in variants]
    if len(given) != 1:
        raise ConfigError("exactly one input source required: --input or --generator"
                          if "input" in variants else f"{command} needs --generator")
    return given[0], "--input" if given == ["input"] else f"--generator {cfg.generator}"


def _refuse_unread_flags(command: str, flags, cfg: RunConfig) -> set[str]:
    """The flags the run reads. Raise ConfigError for a source, task or mode the command
    does not take, naming the given flags the run's source, task or mode does not read,
    or naming the `needed` flags its variants add that are unset."""
    _, base, choices = _READS[command]
    picked = {choice: _variant(command, cfg, choice, variants)
              for choice, variants in choices.items()}
    read = {"out", *base}
    for choice, (value, _) in picked.items():
        read |= set(choices[choice][value])
    for choice, variants in choices.items():
        value, named = picked[choice]
        offered = {f for names in variants.values() for f in names}
        unread = sorted((offered - read) & set(flags))
        unset = [f for f in variants[value] if _FLAGS[f].get("needed") and getattr(cfg, f) is None]
        for verb, names in (("does not read", unread), ("needs", unset)):
            if names:
                names = ", ".join("--" + f.replace("_", "-") for f in names)
                raise ConfigError(f"{command} {named} {verb} {names}")
    return read


def _mechanisms(cfg: RunConfig) -> list[Mechanism]:
    if cfg.mechanism == "both":
        return [Mechanism.LAZY, Mechanism.EAGER]
    return [Mechanism(cfg.mechanism)]


_DISTS = {"uniform": uniform_dist, "exponential": exponential_dist,
          "equal_revenue": equal_revenue_dist}


def make_dist(name: str, params: dict) -> ContinuousDist:
    """The named distribution, built with the params as keyword arguments."""
    if not isinstance(name, str) or name not in _DISTS:
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
    "hardness": gen_hardness_instance,  # a fixed log, not a sampler
}


def materialize_log(cfg: RunConfig) -> BidLog:
    """Build a BidLog from the generator and its params; bids quantized to micros."""
    name, params = cfg.generator, dict(cfg.params)
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
                          f"{sorted(_GENERATORS) + ['iid']}")
    return quantize_log(gen if isinstance(gen, BidLog) else sample_log(gen, cfg.count, cfg.seed))


def _input_logs(cfg: RunConfig, single: bool):
    """Yield each input log with its slot name: the --input logs in order, else the generated
    one. With `single`, a second --input is refused before any log is parsed."""
    if cfg.input is None:
        yield materialize_log(cfg), f"{cfg.generator}(seed={cfg.seed})"
        return
    paths = cfg.input if isinstance(cfg.input, list) else [cfg.input]
    if not paths or not all(isinstance(path, str) for path in paths):
        raise ConfigError(f"want at least one --input path, got {cfg.input!r}")
    if single and len(paths) != 1:
        raise ConfigError(f"want exactly one --input path, got {len(paths)}")
    for path in paths:
        yield parse_log(path, cfg.format), os.path.basename(path)


def _write_text(cfg: RunConfig, name: str, text: str) -> str:
    """Write a text artifact into --out; returns its path."""
    path = os.path.join(cfg.out, name)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
    return path


def cmd_gen(cfg: RunConfig) -> tuple[list[str], dict]:
    """Materialize a generator to a log file."""
    log = materialize_log(cfg)
    fmt = cfg.format or "csv"
    path = os.path.join(cfg.out, f"log.{fmt}")
    write_log(log, path, fmt)
    return [path], {"auctions": len(log), "bidders": len(log.bidder_ids)}


def cmd_optimize(cfg: RunConfig) -> tuple[list[str], dict]:
    """Run one reserve-optimization task; writes reserves.csv."""
    [(log, slot)] = _input_logs(cfg, single=True)
    if cfg.task == "lazy":
        result = optimal_lazy(log)
    elif cfg.task == "monopoly":
        result = monopoly_reserves(log, Mechanism.EAGER if cfg.mechanism == "both"
                                   else Mechanism(cfg.mechanism))
    elif cfg.task == "eager-exact":
        result = optimal_eager_exact(log, cfg.max_product_size)
    else:
        result = eager_coordinate_ascent(log, max_rounds=cfg.max_rounds)
    reserve_path = os.path.join(cfg.out, "reserves.csv")
    write_reserves(result.reserves, reserve_path)
    return [reserve_path], {
        "task": cfg.task,
        "slot": slot,
        "mechanism": result.mechanism.value,
        "auctions": len(log),
        "bidders": len(log.bidder_ids),
        "revenue_zero_reserve": empirical_revenue(log, ReserveVector.zero(), result.mechanism),
        "expected_revenue": result.expected_revenue,
        "total_revenue": result.total_revenue,
        **result.counters,
    }


def cmd_lift_tables(cfg: RunConfig) -> tuple[list[str], dict]:
    """Revenue-lift and welfare-loss tables, one slot per input log."""
    reports = [compute_lift_report(log, slot) for log, slot in _input_logs(cfg, single=False)]
    paths = [_write_text(cfg, "lift_revenue.tsv", lift_revenue_tsv(reports)),
             _write_text(cfg, "lift_welfare.tsv", lift_welfare_tsv(reports))]
    return paths, {"slots": [r.slot for r in reports]}


def _parse_grid(grid) -> list[float]:
    if grid is None:
        return list(DEFAULT_GRID)
    if isinstance(grid, str):
        grid = [tok for tok in grid.split(",") if tok.strip() != ""]
    elif any(isinstance(x, (bool, str)) for x in grid):  # float() would read true or "0.5"
        raise ConfigError(f"bad grid {grid!r}")
    try:
        values = [float(x) for x in grid]
    except (TypeError, ValueError):
        raise ConfigError(f"bad grid {grid!r}") from None
    if not values:
        raise ConfigError(f"bad grid {grid!r}")
    return values


def cmd_sweep(cfg: RunConfig) -> tuple[list[str], dict]:
    """Treatment-size sweep, theoretical (distribution) or empirical (log + reserves)."""
    mechanisms = _mechanisms(cfg)
    if cfg.mode == "theoretical":
        dist = make_dist(cfg.dist, cfg.params)
        results = [sweep_theoretical(dist, cfg.n, mechanisms, cfg.trials, cfg.seed)]
    else:
        [(log, _)] = _input_logs(cfg, single=True)
        reserves = read_reserves(cfg.reserves)
        unknown = sorted(set(reserves.reserves) - set(log.bidder_ids))
        if unknown:
            raise DomainError(f"{cfg.reserves}: bidders not in the log: {', '.join(unknown)}")
        grid = _parse_grid(cfg.grid)
        results = [empirical_treatment_sweep(log, reserves, grid, mech,
                                             cfg.assignments, cfg.seed)
                   for mech in mechanisms]
    rows: list[SweepRow] = []
    extra: dict = {}
    for res in results:
        rows.extend(res.rows)
        extra.update(res.counters)
    combined = SweepResult(tuple(rows), cfg.seed, results[0].descriptor)
    extra["rows"] = len(rows)
    if cfg.mode == "theoretical":
        extra["max_abs_z"] = combined.max_abs_z()
    return [_write_text(cfg, "sweep.tsv", combined.to_tsv())], extra


# What each subcommand reads: its handler (whose docstring is its help), the flags every run
# reads besides --out, and for each choice that picks a variant, the flags each value adds. The
# input source is --input, a sampled --generator, or hardness. argparse gives a subcommand the
# union of its flags; a given flag the run's source, task or mode does not read exits 2, as does
# a run that picks no variant of a choice (or two input sources) or leaves unset a `needed` flag
# its variant adds. Keys of a --config file are never refused, so one file serves the pipeline.
_SOURCES = {"input": ("input", "format"), "generator": ("generator", "params", "count", "seed"),
            "hardness": ("generator", "params")}
_READS = {
    "gen": (cmd_gen, ("format",), {"source": {k: _SOURCES[k] for k in ("generator", "hardness")}}),
    "optimize": (cmd_optimize, ("task",),
                 {"source": _SOURCES,
                  "task": {"lazy": (), "monopoly": ("mechanism",),
                           "eager-exact": ("max_product_size",),
                           "eager-local": ("max_rounds",)}}),
    "lift-tables": (cmd_lift_tables, (), {"source": _SOURCES}),
    "sweep": (cmd_sweep, ("mode", "mechanism", "seed"),
              {"mode": {"theoretical": ("params", "dist", "n", "trials"),
                        "empirical": ("input", "format", "reserves", "grid", "assignments")}}),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="reservelab",
                                     description="Second-price auction reserve toolkit")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (handler, base, choices) in _READS.items():
        p = sub.add_parser(command, help=handler.__doc__, description=handler.__doc__)
        p.add_argument("--config", help="JSON config file; flags override its keys")
        offered = ["out", *base, *(f for v in choices.values() for fs in v.values() for f in fs)]
        for name in dict.fromkeys(offered):  # a choice's flag offers its variants' names
            check = _FLAGS[name]
            p.add_argument("--" + name.replace("_", "-"), dest=name, help=check["help"],
                           type=int if "least" in check else None,
                           choices=choices.get(name, check.get("choices")),
                           action="append" if name == "input" else None)
    return parser


def main(argv=None) -> int:
    """Make --out, run one subcommand and write summary.json from the outputs it returns.

    A failed run removes the directories of --out it created and left empty (os.rmdir
    only: a file, or a directory that existed before the run, is never removed).
    """
    ns = _build_parser().parse_args(argv)
    overrides = {k: v for k, v in vars(ns).items()
                 if k in _FLAGS and v is not None}
    fresh = []  # the directories of --out that do not exist yet, deepest first
    try:
        if "params" in overrides and isinstance(overrides["params"], str):
            try:
                overrides["params"] = json.loads(overrides["params"])
            except json.JSONDecodeError as e:
                raise ConfigError(f"--params is not valid JSON: {e.msg}") from None
        cfg = load_config(ns.config, overrides)
        path = os.path.abspath(cfg.out)
        while not os.path.exists(path):
            fresh.append(path)
            path = os.path.dirname(path)
        read = _refuse_unread_flags(ns.command, overrides, cfg)
        os.makedirs(cfg.out, exist_ok=True)
        started = time.monotonic()
        outputs, extra = _READS[ns.command][0](cfg)
        summary = {"command": ns.command, "config": {k: getattr(cfg, k) for k in read}, **extra,
                   "outputs": sorted(outputs), "runtime_seconds": time.monotonic() - started}
        _write_text(cfg, "summary.json",
                    json.dumps(summary, indent=2, sort_keys=True, default=str) + "\n")
        return 0
    except SearchSpaceTooLarge as e:
        print(f"refusing: {e}", file=sys.stderr)
        return 4
    except (LogParseError, DomainError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as e:  # a bad configuration, or a path that cannot be read or written
        named = isinstance(e, OSError) and e.filename is not None
        print(f"error: {e.filename}: {e.strerror}" if named else f"error: {e}", file=sys.stderr)
        return 2
    finally:
        for path in fresh:  # a successful run wrote summary.json, so only a failed one empties them
            try:
                os.rmdir(path)
            except OSError:
                break


if __name__ == "__main__":
    sys.exit(main())
