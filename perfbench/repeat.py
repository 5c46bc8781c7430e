#!/usr/bin/env python3
"""Repeat the benchmark over seeds and summarize the spread of each metric.

    python3 perfbench/repeat.py --workload indoor_fd95 --seeds 1-10 [--trace 1] [--out F.json]

Runs ``perfbench/run.py`` once per seed, one run at a time, with the
``run_seconds`` of BENCHMARK.json. For every metric it prints the
median, the quartiles (``statistics.quantiles(n=4)``) and the spread
(Q3 - Q1) / median next to the metric's bound. ``--out`` writes the
runs and the summary as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seed_list(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarize(runs, bounds):
    out = {}
    for name in runs[0]["metrics"]:
        vals = [r["metrics"][name]["value"] for r in runs]
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
        out[name] = {
            "unit": runs[0]["metrics"][name]["unit"],
            "median": med,
            "q1": q1,
            "q3": q3,
            "spread": (q3 - q1) / med if med else None,
            "bound": bounds.get(name),
        }
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out")
    args = ap.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    runs = []
    for seed in args.seeds:
        cmd = spec["command"] + [
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace),
        ]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        result["seed"] = seed
        result["detail"] = json.loads(lines[-2])["detail"]
        runs.append(result)
        print(f"seed {seed}: correct={result['correct']} failed={result['failed']}/"
              f"{result['attempted']}", file=sys.stderr)

    summary = summarize(runs, bounds)
    print(f"{args.workload} trace={args.trace} seeds={args.seeds[0]}-{args.seeds[-1]}")
    for name, s in summary.items():
        spread = "-" if s["spread"] is None else f"{s['spread']:.4f}"
        bound = "" if s["bound"] is None else f"  bound {s['bound']}"
        print(f"  {name:32s} {s['median']:14.6g} {s['unit']:10s} "
              f"q1 {s['q1']:.6g} q3 {s['q3']:.6g} spread {spread}{bound}")
    if args.out:
        head = json.dumps({"workload": args.workload, "trace": args.trace,
                           "summary": summary}, indent=1)
        lines = ",\n  ".join(json.dumps(r, separators=(",", ":")) for r in runs)
        with open(args.out, "w") as f:
            f.write(head[:-2] + ',\n "runs": [\n  ' + lines + "\n ]\n}\n")
    return 0 if all(r["correct"] for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
