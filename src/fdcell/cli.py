"""Command-line front end: config parsing, runs, sweeps, comparisons.

This module only parses: each config key, flag and FDCELL_SEED value is
converted to its type here, and RunConfig.validated() alone decides
whether it is in range (only --jobs, which is not a RunConfig field, is
checked here). Every config-file error names its file and line.

Exit codes: 0 success; 1 runtime failure (placement, I/O during a
run); 2 missing config file; 3 config schema violation (unknown key,
unparsable value, bad flag combination); 4 out-of-range config value.
Codes 2-4 are all configuration failures, kept distinct so scripts can
tell what to fix.
"""

from __future__ import annotations

import argparse
import csv
import os
import sys
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigError, PlacementError
from .sim import (
    SCENARIOS,
    VARIANTS,
    RunConfig,
    aggregate,
    config_dict,
    dump_trace,
    gain_pct,
    persist,
    run_variant,
)

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_MISSING_FILE = 2
EXIT_SCHEMA = 3
EXIT_RANGE = 4

DEFAULT_SWEEP = (75.0, 85.0, 95.0, 105.0, None)

# which run each variant's gain is measured against
BASELINE_OF = {
    "HD": None,
    "RR_HD": None,
    "FD": "HD",
    "FD_FDUE": "HD",
    "FD_EnergyAware": "HD",
    "RR_FD": "RR_HD",
}


class SchemaError(ConfigError):
    """Unknown key or unparsable value."""


class RangeError(ConfigError):
    """Well-formed value outside the permitted range."""


@dataclass
class ExperimentSpec:
    base: RunConfig
    sweep_cancellation: tuple = DEFAULT_SWEEP
    variants: tuple = ("HD", "FD")
    output_dir: str = "runs"


# config keys that set one RunConfig field, and the type each value parses
# to; RunConfig.validated() owns every range
FIELD_KEYS = {
    "scenario": str.strip, "variant": str.strip,
    "slots": int, "drops": int, "seed": int, "ues_per_cell": int,
    "bandwidth_hz": float, "beta": float, "bs_power_dbm": float,
    "ue_power_dbm": float, "energy_kappa": float,
}


def _parse(key: str, raw: str, kind):
    try:
        return kind(raw)
    except ValueError as e:
        raise SchemaError(f"{key} expects {'an integer' if kind is int else 'a number'}, "
                          f"got {raw!r}") from e


def _checked(cfg: RunConfig) -> RunConfig:
    """cfg.validated(), with its ConfigError raised as a RangeError."""
    try:
        return cfg.validated()
    except ConfigError as e:
        raise RangeError(str(e)) from e


def parse_cancellation(token: str):
    t = token.strip().lower()
    if t in ("inf", "infinite", "none", "perfect"):
        return None
    v = _parse("cancellation", token, float)
    return _checked(RunConfig(cancellation_db=v)).cancellation_db


def apply_key(spec: ExperimentSpec, key: str, raw: str) -> ExperimentSpec:
    """One `key = value` assignment of the documented schema."""
    if key in FIELD_KEYS:
        value = _parse(key, raw, FIELD_KEYS[key])
        spec.base = _checked(replace(spec.base, **{key: value}))
    elif key == "variants":
        vs = tuple(v.strip() for v in raw.split(",") if v.strip())
        if not vs:
            raise SchemaError("variants list is empty")
        for v in vs:
            if v not in VARIANTS:
                raise SchemaError(f"unknown variant {v!r}")
        spec.variants = vs
    elif key == "cancellation":
        vals = tuple(parse_cancellation(t) for t in raw.split(",") if t.strip())
        if not vals:
            raise SchemaError("cancellation list is empty")
        spec.sweep_cancellation = vals
        spec.base = replace(spec.base, cancellation_db=vals[0])
    elif key == "out":
        spec.output_dir = raw.strip()
    else:
        raise SchemaError(f"unknown config key {key!r}")
    return spec


def parse_config(path: str, spec: ExperimentSpec | None = None) -> ExperimentSpec:
    """Apply a `key = value` config file on top of spec (default: all defaults)."""
    if not os.path.exists(path):
        raise FileNotFoundError(path)
    spec = ExperimentSpec(base=RunConfig()) if spec is None else spec
    with open(path) as f:
        for lineno, line in enumerate(f, 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise SchemaError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
            key, raw = line.split("=", 1)
            try:
                spec = apply_key(spec, key.strip(), raw)
            except ConfigError as e:
                raise type(e)(f"{path}:{lineno}: {e}") from e
    return spec


# (scenario, variants) per preset; every preset sweeps DEFAULT_SWEEP
PRESETS = {
    # indoor throughput-gain grid and its mode-share companion
    "table2": ("Indoor", ("HD", "FD")),
    "table4": ("Indoor", ("HD", "FD")),
    # indoor energy-efficiency grid including the mitigation variants
    "table5": ("Indoor", ("HD", "FD", "FD_FDUE", "FD_EnergyAware")),
    # outdoor throughput and energy grids
    "table7": ("Outdoor", ("HD", "FD")),
    "table9": ("Outdoor", ("HD", "FD")),
}


def apply_preset(spec: ExperimentSpec, name: str) -> ExperimentSpec:
    if name not in PRESETS:
        raise SchemaError(f"unknown preset {name!r}; choose from {sorted(PRESETS)}")
    scenario, spec.variants = PRESETS[name]
    spec.sweep_cancellation = DEFAULT_SWEEP
    spec.base = replace(spec.base, scenario=scenario, cancellation_db=DEFAULT_SWEEP[0])
    return spec


def _spec_from_args(args) -> ExperimentSpec:
    """defaults < preset < config file < command-line flags.

    FDCELL_SEED applies only when no seed is given anywhere.
    """
    if args.jobs < 1:
        raise RangeError(f"--jobs must be >= 1, got {args.jobs}")
    spec = ExperimentSpec(base=RunConfig(seed=None))
    if args.preset:
        spec = apply_preset(spec, args.preset)
    if args.config:
        spec = parse_config(args.config, spec)
    for key in ("scenario", "variant", "slots", "drops", "seed"):
        v = getattr(args, key, None)
        if v is not None:
            spec = apply_key(spec, key, str(v))
    if getattr(args, "cancellation", None) is not None:
        spec = apply_key(spec, "cancellation", args.cancellation)
    if getattr(args, "out", None) is not None:
        spec.output_dir = args.out
    if spec.base.seed is None:
        try:
            spec = apply_key(spec, "seed", os.environ.get("FDCELL_SEED") or "0")
        except ConfigError as e:
            raise type(e)(f"FDCELL_SEED: {e}") from e
    return spec


def _canc_label(c) -> str:
    return "Inf" if c is None else f"{c:g}"


def cmd_run(spec: ExperimentSpec, jobs: int = 1, trace: str | None = None) -> int:
    """One variant; trace names a file for drop 0's per-slot decision log."""
    cfg = spec.base.validated()
    results = run_variant(cfg, jobs=jobs)
    if trace:
        dump_trace(results[0], trace)
    metrics = aggregate(cfg, results)
    persist(metrics, spec.output_dir, config=config_dict(cfg))
    m = metrics
    print(f"{cfg.scenario} {cfg.variant}@{_canc_label(cfg.cancellation_db)}: "
          f"DL {m.dl.mean_tput_bps / 1e6:.2f} Mbps, UL {m.ul.mean_tput_bps / 1e6:.2f} Mbps, "
          f"modes FD/HD/idle {m.frac_fd:.2f}/{m.frac_hd:.2f}/{m.frac_idle:.2f}")
    print(f"wrote {spec.output_dir}/metrics.csv")
    # the allocator counters summed over the drops, kept off stdout
    d = m.diagnostics
    print(f"allocator: certified {d['certified']}, fallbacks {d['fallbacks']}, "
          f"non-converged {d['nonconverged_slots']}, SP outer {d['outer_iterations']} / "
          f"Newton {d['inner_iterations']} iterations, cap rounds {d['cap_rounds']}",
          file=sys.stderr)
    return EXIT_OK


def cmd_sweep(spec: ExperimentSpec, jobs: int = 1) -> int:
    """Variant x cancellation grid with gains against the matching baseline."""
    runs = {}      # (variant, canc) -> drop results
    grid = []
    for variant in spec.variants:
        cancs = [None] if BASELINE_OF[variant] is None else list(spec.sweep_cancellation)
        for canc in cancs:
            grid.append((variant, canc))
    # baselines first so gains can be computed in one pass
    grid.sort(key=lambda vc: 0 if BASELINE_OF[vc[0]] is None else 1)
    all_metrics = []
    for variant, canc in grid:
        cfg = replace(spec.base, variant=variant, cancellation_db=canc).validated()
        results = run_variant(cfg, jobs=jobs)
        runs[(variant, canc)] = results
        base_name = BASELINE_OF[variant]
        baseline = runs.get((base_name, None)) if base_name else None
        m = aggregate(cfg, results, baseline)
        all_metrics.append(m)
        sub = os.path.join(spec.output_dir, f"{variant}_{_canc_label(canc)}")
        persist(m, sub, config=config_dict(cfg))
    persist(all_metrics, spec.output_dir, config=config_dict(spec.base))

    print(f"{spec.base.scenario} sweep, {spec.base.drops} drops x {spec.base.slots} slots")
    header = "variant          " + "".join(f"{_canc_label(c):>10}" for c in spec.sweep_cancellation)
    print(header)
    for variant in spec.variants:
        if BASELINE_OF[variant] is None:
            continue
        for direction in ("dl", "ul"):
            cells = []
            for canc in spec.sweep_cancellation:
                m = next((x for x in all_metrics if x.variant == variant and x.cancellation_db == canc), None)
                d = getattr(m, direction) if m else None
                cells.append(f"{d.gain_pct:9.1f}%" if d and d.gain_pct is not None else "        -")
            print(f"{variant:<12} {direction.upper():>3} " + "".join(cells))
    print(f"wrote {spec.output_dir}/metrics.csv")
    return EXIT_OK


def _read_cdf_rates(run_dir: str):
    """Per-UE rates from the cdf_*.csv files under one run directory."""
    out = {}
    for name in sorted(os.listdir(run_dir)):
        if not (name.startswith("cdf_") and name.endswith(".csv")):
            continue
        dl, ul = [], []
        with open(os.path.join(run_dir, name)) as f:
            for row in csv.DictReader(f):
                dl.append(float(row["dl_bps"]))
                ul.append(float(row["ul_bps"]))
        out[name[4:-4]] = (np.array(dl), np.array(ul))
    if not out:
        raise FileNotFoundError(f"no cdf_*.csv files in {run_dir}")
    return out


def cmd_compare(fd_dir: str, hd_dir: str) -> int:
    """Recompute gains from persisted per-UE rates, without rerunning.

    The baseline is the alphabetically first cdf_*.csv of hd_dir; its
    path is printed first.
    """
    fd = _read_cdf_rates(fd_dir)
    hd = _read_cdf_rates(hd_dir)
    base_name, base = next(iter(hd.items()))
    print(f"baseline: {os.path.join(hd_dir, f'cdf_{base_name}.csv')}")
    for name, rates in sorted(fd.items()):
        # aggregate's rule: no gain against a baseline of zero mean rate
        dl, ul = (gain_pct(r, b) for r, b in zip(rates, base))
        print(f"{name}: DL gain {_gain_str(dl)}  UL gain {_gain_str(ul)}")
    return EXIT_OK


def _gain_str(gain: float | None) -> str:
    return "-" if gain is None else f"{gain:+.1f}%"


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="fdcell",
        description="Multi-cell full-duplex scheduling simulator",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", help="key = value config file")
        p.add_argument("--preset", help="|".join(sorted(PRESETS)))
        p.add_argument("--scenario", choices=SCENARIOS)
        p.add_argument("--variant", choices=VARIANTS)
        p.add_argument("--cancellation", help="dB value, comma list, or 'inf'")
        p.add_argument("--slots", type=int)
        p.add_argument("--drops", type=int)
        p.add_argument("--seed", type=int)
        p.add_argument("--out", help="output directory")
        p.add_argument("--jobs", type=int, default=1, help="parallel drops")

    p_run = sub.add_parser("run", help="simulate one variant")
    add_common(p_run)
    p_run.add_argument("--trace", metavar="FILE", help="write drop 0's per-slot decisions")
    p_sweep = sub.add_parser("sweep", help="variant x cancellation grid")
    add_common(p_sweep)
    p_cmp = sub.add_parser("compare", help="recompute gains from saved runs")
    p_cmp.add_argument("fd_dir")
    p_cmp.add_argument("hd_dir")
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "compare":
            return cmd_compare(args.fd_dir, args.hd_dir)
        spec = _spec_from_args(args)
        if args.command == "run":
            return cmd_run(spec, jobs=args.jobs, trace=args.trace)
        return cmd_sweep(spec, jobs=args.jobs)
    except FileNotFoundError as e:
        print(f"error: missing file: {e}", file=sys.stderr)
        return EXIT_MISSING_FILE
    except SchemaError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_SCHEMA
    except RangeError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_RANGE
    except ConfigError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_SCHEMA
    except (PlacementError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
