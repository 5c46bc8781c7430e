#!/usr/bin/env python3
"""fdcell benchmark: host time per simulated slot and scheduling quality.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Each workload is one scenario x variant
with two fixed drop sets. One pass over a set drives the public API the
way ``fdcell run`` does (``run_variant`` with one job, ``aggregate``,
``persist`` into a temporary directory). The timed set (drops of
``--seed``) repeats until the time is spent; the reference set (drops
of REF_SEED) runs once and gives the quality metrics. Every pass is
checked (see ``check_pass``); a drop that raises or fails a check is a
failed operation. The last stdout line is the result object; the line
before it holds the environment, the output digests and the pass times.

``--trace 0`` reports the end-to-end metrics with tracing off.
``--trace 1`` alternates untraced and traced passes of the timed set and
reports the per-layer metrics from the traced ones; their output
digests must equal the untraced ones. See README.md in this directory.
"""

from __future__ import annotations

import os
import sys

# BLAS threads and the seed override must be settled before numpy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("FDCELL_SEED", None)

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from dataclasses import asdict, dataclass  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402

import tracer  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, ".work")

MIN_PASSES = 3
SETUP_REPEATS = 7


@dataclass(frozen=True)
class Workload:
    scenario: str
    variant: str
    cancellation_db: float | None
    drops: int          # timed drop set: drops 0..drops-1 of --seed
    slots: int
    ref_drops: int      # quality drop set: drops 0..ref_drops-1 of REF_SEED
    ref_slots: int


# Why each workload is here: see README.md in this directory.
WORKLOADS = {
    "indoor_fd95": Workload("Indoor", "FD", 95.0, 24, 5, 2, 60),
    "indoor_ea75": Workload("Indoor", "FD_EnergyAware", 75.0, 16, 5, 2, 60),
    "outdoor_hd": Workload("Outdoor", "HD", None, 32, 6, 3, 100),
    "indoor_rr85": Workload("Indoor", "RR_FD", 85.0, 32, 60, 8, 500),
}
TINY = dict(drops=2, slots=4, ref_drops=1, ref_slots=4)
# The quality metrics spread by up to 50% from seed to seed at any drop
# count a run can afford (energy per drop is heavy-tailed), so they are
# read on a pinned drop set where they are exact; see README.md.
REF_SEED = 0

SETUP_CODE = """
import fdcell.sim as sim
from fdcell.channel import build_gains, {kind}_params
from fdcell.topology import {Kind}Config, build_{kind}
topo_rng, chan_rng, _ = sim.drop_rngs({seed}, 0)
build_gains(build_{kind}({Kind}Config(), topo_rng), {kind}_params(), chan_rng)
"""


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def setup_probe(scenario, seed):
    """Wall time of a fresh interpreter that imports fdcell.sim and builds
    the scenario's network (topology + gains) once."""
    kind = scenario.lower()
    code = SETUP_CODE.format(kind=kind, Kind=scenario, seed=seed)
    t0 = perf_counter()
    subprocess.run([sys.executable, "-c", code], env=child_env(), cwd=ROOT, check=True)
    return perf_counter() - t0


def environment():
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


class SlotClock:
    """Cuts each pass at every PF update, i.e. at the end of every slot.

    The only probe of an untraced pass: one clock read per slot, after
    ``fdcell.sim.update_state``. A pass of D drops x S slots splits into
    D*S + 1 intervals (the first slot of a drop carries its network
    build, the last interval aggregate and persist). The work in each
    interval is the same in every pass of a run, so the shortest copy of
    each interval is its cost without interference from the host.
    """

    def __init__(self, sim):
        self.ticks = []
        update_state = sim.update_state

        def timed_update_state(*args, **kwargs):
            out = update_state(*args, **kwargs)
            self.ticks.append(perf_counter())
            return out

        sim.update_state = timed_update_state

    def start(self):
        self.ticks.clear()
        self.ticks.append(perf_counter())

    def intervals(self):
        return np.diff(self.ticks + [perf_counter()])


def run_pass(sim, cfg, clock):
    """One pass over the drop set, clocked from run_variant to persist."""
    with tempfile.TemporaryDirectory(dir=WORK) as out:
        clock.start()
        results = sim.run_variant(cfg, jobs=1)
        metrics = sim.aggregate(cfg, results)
        digests = sim.persist(metrics, out, config=sim.config_dict(cfg))
        intervals = clock.intervals()
    return intervals, results, metrics, digests


@dataclass
class Pass:
    traced: bool
    drops: int
    failed: int
    intervals: np.ndarray | None = None
    results: list | None = None
    metrics: object = None
    digests: dict | None = None

    @property
    def wall_s(self):
        return None if self.intervals is None else float(self.intervals.sum())


def checked_pass(sim, cfg, clock, ref_digests, tr=None):
    """Run one pass (under the tracer ``tr`` if given) and check it.

    A pass that raises counts all its drops as failed.
    """
    p = Pass(traced=tr is not None, drops=cfg.drops, failed=cfg.drops)
    try:
        if tr is None:
            p.intervals, p.results, p.metrics, p.digests = run_pass(sim, cfg, clock)
        else:
            with tr.installed():
                p.intervals, p.results, p.metrics, p.digests = run_pass(sim, cfg, clock)
        p.failed = check_pass(cfg, p.results, p.metrics, p.digests, ref_digests)
    except Exception:
        traceback.print_exc()
    return p


def quality(metrics):
    return {
        "tput_dl_mbps": metrics.dl.mean_tput_bps / 1e6,
        "tput_ul_mbps": metrics.ul.mean_tput_bps / 1e6,
        "edge5_dl_mbps": metrics.dl.edge5_bps / 1e6,
        "edge5_ul_mbps": metrics.ul.edge5_bps / 1e6,
        "ee_dl_mbit_per_j": metrics.dl.ee_bits_per_joule / 1e6,
        "ee_ul_mbit_per_j": metrics.ul.ee_bits_per_joule / 1e6,
    }


def check_pass(cfg, results, metrics, digests, ref_digests):
    """Number of drops of the pass that fail an output check.

    Per drop: the energy recomputed from the decision trace equals the
    slot-loop ledger exactly, and the mode fractions sum to 1. A failure
    of the pooled metrics (non-finite or negative quality value, mode
    fractions, missing files, digests that differ from the reference
    pass) fails every drop of the pass.
    """
    bad = 0
    for r in results:
        ok = r.slots == cfg.slots
        ok = ok and r.energy_from_trace() == (r.energy_dl_j, r.energy_ul_j)
        ok = ok and abs(sum(r.mode_fractions()) - 1.0) <= 1e-12
        bad += not ok
    pooled = len(results) == cfg.drops
    pooled = pooled and all(math.isfinite(v) and v >= 0 for v in quality(metrics).values())
    pooled = pooled and abs(metrics.frac_fd + metrics.frac_hd + metrics.frac_idle - 1.0) <= 1e-12
    pooled = pooled and "metrics.csv" in digests and any(k.startswith("cdf_") for k in digests)
    pooled = pooled and (ref_digests is None or digests == ref_digests)
    return bad if pooled else cfg.drops


def layer_metrics(summary, slots, drops, passes, diag, overhead_pct):
    """Per-layer numbers from the traced passes, per slot unless noted."""
    incl, own, calls, values = summary.incl, summary.self_, summary.calls, summary.values
    alloc = values.get("power_alloc.alloc", [])
    nonempty = sum(1 for used, _ in alloc if used)
    fallbacks = sum(f for _, f in alloc)
    ms = 1e3
    return {
        "network.build_ms": (incl.get("network.topology", 0) + incl.get("network.gains", 0)) * ms / drops,
        "scheduler.select_ms": incl.get("scheduler.select", 0) * ms / slots,
        "scheduler.select_self_ms": own.get("scheduler.select", 0) * ms / slots,
        "scheduler.select_calls": calls.get("scheduler.select", 0) / slots,
        "scheduler.rr_ms": incl.get("scheduler.rr", 0) * ms / slots,
        "scheduler.update_ms": incl.get("scheduler.update", 0) * ms / slots,
        "power_alloc.alloc_ms": incl.get("power_alloc.alloc", 0) * ms / slots,
        "power_alloc.self_ms": summary.layer_self("power_alloc") * ms / slots,
        "power_alloc.build_ms": incl.get("power_alloc.build", 0) * ms / slots,
        "power_alloc.build_calls": calls.get("power_alloc.build", 0) / slots,
        "power_alloc.sp_ms": incl.get("power_alloc.sp", 0) * ms / slots,
        "power_alloc.sp_calls": calls.get("power_alloc.sp", 0) / slots,
        "power_alloc.trim_ms": incl.get("power_alloc.trim", 0) * ms / slots,
        "power_alloc.trim_calls": calls.get("power_alloc.trim", 0) / slots,
        "power_alloc.fallback_frac": fallbacks / nonempty if nonempty else 0.0,
        "power_alloc.pruned": diag["pruned"] / slots,
        "power_alloc.nonconverged_slots": diag["nonconverged_slots"] / slots,
        "gp_core.newton_ms": incl.get("gp_core.newton", 0) * ms / slots,
        "gp_core.newton_calls": calls.get("gp_core.newton", 0) / slots,
        "gp_core.newton_iters": sum(values.get("gp_core.newton", [])) / slots,
        "sinr_rate.eval_ms": incl.get("sinr_rate.eval", 0) * ms / slots,
        "sinr_rate.eval_calls": calls.get("sinr_rate.eval", 0) / slots,
        "sinr_rate.validate_ms": incl.get("sinr_rate.validate", 0) * ms / slots,
        "sim.loop_self_ms": (own.get(tracer.DROP, 0) + own.get(tracer.SLOT, 0)) * ms / slots,
        "sim.slot_ms_p99": float(np.percentile(summary.slot_s, 99)) * ms,
        "sim.aggregate_ms": incl.get("sim.aggregate", 0) * ms / passes,
        "sim.persist_ms": incl.get("sim.persist", 0) * ms / passes,
        "trace.overhead_pct": overhead_pct,
    }


def load_units():
    """Metric units as declared in BENCHMARK.json, keyed by metric name."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help=f"smoke-test size: {TINY}")
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "fdcell", "sim.py")):
        print(f"error: no fdcell sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import fdcell.sim as sim

    units = load_units()
    wl = WORKLOADS[args.workload]
    size = TINY if args.tiny else asdict(wl)

    def config(seed, drops, slots):
        return sim.RunConfig(scenario=wl.scenario, variant=wl.variant,
                             cancellation_db=wl.cancellation_db,
                             seed=seed, drops=drops, slots=slots).validated()

    cfg = config(args.seed, size["drops"], size["slots"])
    ref_cfg = config(REF_SEED, size["ref_drops"], size["ref_slots"])
    os.makedirs(WORK, exist_ok=True)
    # warm lazy imports and first-call paths outside the timed region
    sim.run_drop(config(args.seed, 1, 2), 0)

    clock = SlotClock(sim)
    start = perf_counter()
    ref = None
    if not args.trace:
        ref = checked_pass(sim, ref_cfg, clock, None)
    setup_times = []
    passes = []
    digests = None
    summary = tracer.Summary()
    diag = {"pruned": 0, "nonconverged_slots": 0}
    traced_self_s = 0.0
    spans_out = []
    while True:
        # set-up probes spread over the run, so a slow phase of the host
        # does not hit all of them
        if not args.trace and len(setup_times) < SETUP_REPEATS:
            setup_times.append(setup_probe(cfg.scenario, args.seed))
        tr = tracer.Tracer() if args.trace and len(passes) % 2 == 1 else None
        p = checked_pass(sim, cfg, clock, digests, tr)
        passes.append(p)
        if p.failed == 0:
            digests = digests or p.digests
            if tr is not None:
                traced_self_s += summary.add(tr.spans)
                base = len(spans_out)
                spans_out.extend([n, t0, t1, par + base if par >= 0 else -1, v]
                                 for n, t0, t1, par, v in tr.spans)
                for r in p.results:
                    for k in diag:
                        diag[k] += r.diagnostics.get(k, 0)
        p.results = p.metrics = None
        typical = statistics.median([q.wall_s for q in passes if q.wall_s is not None] or [0.0])
        if len(passes) >= MIN_PASSES and perf_counter() - start + typical > args.seconds:
            break

    while not args.trace and len(setup_times) < SETUP_REPEATS:
        setup_times.append(setup_probe(cfg.scenario, args.seed))

    done = passes + ([ref] if ref else [])
    attempted = sum(q.drops for q in done)
    failed = sum(q.failed for q in done)
    n_slots = cfg.drops * cfg.slots

    def slot_ms(traced):
        # shortest copy of every interval: interference only ever adds time
        ivs = [q.intervals for q in passes if q.traced == traced and q.failed == 0]
        return float(np.min(ivs, axis=0).sum()) * 1e3 / n_slots if ivs else None

    values = {}
    if args.trace:
        n_traced = sum(1 for q in passes if q.traced and q.failed == 0)
        if n_traced and slot_ms(False):
            overhead = (slot_ms(True) / slot_ms(False) - 1.0) * 100.0
            values = layer_metrics(summary, n_traced * n_slots, n_traced * cfg.drops,
                                   n_traced, diag, overhead)
    elif ref.failed == 0 and slot_ms(False):
        values = {
            "setup_s": statistics.median(setup_times),
            "slot_ms": slot_ms(False),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            **quality(ref.metrics),
        }

    trace_file = None
    if args.trace:
        trace_file = os.path.join(WORK, f"trace_{args.workload}_seed{args.seed}.json")
        with open(trace_file, "w") as f:
            json.dump({"columns": ["name", "start", "end", "parent", "value"],
                       "spans": spans_out}, f)
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "config": sim.config_dict(cfg),
        "env": environment(),
        "digests": digests,
        "reference": None if ref is None else {
            "config": sim.config_dict(ref_cfg), "digests": ref.digests,
            "wall_s": ref.wall_s, "failed": ref.failed},
        "passes": [{"traced": q.traced, "wall_s": q.wall_s, "failed": q.failed} for q in passes],
        "setup_s": setup_times,
        "traced_self_s": traced_self_s,
        "trace_file": trace_file and os.path.relpath(trace_file, ROOT),
    }
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": failed == 0 and bool(values),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
