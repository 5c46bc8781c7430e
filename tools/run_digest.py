#!/usr/bin/env python3
"""Byte-identity digest of the simulator's outputs over a grid of runs.

    python3 tools/run_digest.py                  # print the digest
    python3 tools/run_digest.py --check          # compare with run_digest.txt
    python3 tools/run_digest.py > tools/run_digest.txt   # regenerate it

Run from the root of a checkout; the code under ``src/`` is imported.
For each scenario x variant x cancellation C it runs drops 0..DROPS-1 of
every seed in SEEDS, SLOTS slots each, through ``sim.run_drop``, and
prints one sha256 over what the drops return: the delivered bits, the
two energies, the four per-slot traces and the allocator counters. The
last line hashes all the lines above it. Two checkouts whose lines are
equal simulate every cell of the grid bit for bit alike; a change meant
to keep the outputs compares its lines with those of its parent.

Each cell also runs through ``sim.run_variant``, which advances the
DROPS drops of a seed in lockstep. The script exits 1, naming the cell,
if any drop's sha256 there differs from its ``run_drop`` one.

The first line is a header naming the Python, numpy and BLAS versions,
because float bits depend on them. ``--check`` compares the printed
lines with the committed ``tools/run_digest.txt``: it exits 0 when every
line matches and 1, naming each differing cell, when some do not. If
the file's header differs from this platform's, the lines are not
comparable: it says so and exits 3 without running the grid. A change
that is meant to alter outputs regenerates the file in the same commit.
"""

from __future__ import annotations

import os
import sys

# BLAS threads are fixed before numpy loads, so the digest does not
# depend on the host's core count.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402

import numpy as np  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from fdcell import sim  # noqa: E402

CANCELLATIONS = (75.0, 95.0, None)      # None is perfect cancellation (C = inf)
SEEDS = (0, 1, 2)
DROPS = 3
SLOTS = 30
DIGEST_FILE = os.path.join(HERE, "run_digest.txt")
NOT_COMPARABLE = 3


def drop_digest(h, res: sim.DropResult) -> None:
    """Feed one drop's outputs into the sha256 object h (or hashlib.sha256())."""
    for a in (res.bits_dl, res.bits_ul, res.trace_dl_ue, res.trace_ul_ue,
              res.trace_p_dl, res.trace_p_ul):
        h.update(a.dtype.str.encode())
        h.update(np.ascontiguousarray(a).tobytes())
    h.update(np.array([res.energy_dl_j, res.energy_ul_j], dtype=np.float64).tobytes())
    h.update(json.dumps(res.diagnostics, sort_keys=True).encode())


def sha(res: sim.DropResult) -> str:
    h = hashlib.sha256()
    drop_digest(h, res)
    return h.hexdigest()


def header() -> str:
    """The versions the digest's float bits depend on, as one comment line."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):     # an older numpy has no dict form
        blas = "unknown"
    return f"# python {platform.python_version()}, numpy {np.__version__}, blas {blas}"


def cell_of(line: str) -> str:
    """The cell a digest line names: everything before its hash."""
    return line.rsplit(None, 1)[0]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help=f"compare with {os.path.relpath(DIGEST_FILE)}")
    args = parser.parse_args(argv)
    expected = None
    if args.check:
        with open(DIGEST_FILE) as f:
            committed, *rows = f.read().splitlines()
        if committed != header():
            print(f"not comparable on this platform: {os.path.basename(DIGEST_FILE)} holds\n"
                  f"  {committed}\nand this host is\n  {header()}")
            return NOT_COMPARABLE
        expected = {cell_of(row): row for row in rows}
    print(header(), flush=True)
    lines = []
    total = hashlib.sha256()
    for scenario in sim.SCENARIOS:
        for variant in sim.VARIANTS:
            for canc in CANCELLATIONS:
                c = "inf" if canc is None else f"{canc:g}"
                cell = f"{scenario:8s}{variant:15s}C={c:4s}"
                h = hashlib.sha256()
                for seed in SEEDS:
                    cfg = sim.RunConfig(scenario=scenario, variant=variant,
                                        cancellation_db=canc, slots=SLOTS,
                                        drops=DROPS, seed=seed).validated()
                    alone = [sim.run_drop(cfg, d) for d in range(DROPS)]
                    for res in alone:
                        drop_digest(h, res)
                    lockstep = sim.run_variant(cfg)
                    if [sha(r) for r in lockstep] != [sha(r) for r in alone]:
                        print(f"{cell}seed {seed}: lockstep drops differ from run_drop", flush=True)
                        return 1
                line = f"{cell}{h.hexdigest()}"
                total.update(line.encode())
                lines.append(line)
                print(line, flush=True)
    lines.append(f"{'total':27s}{total.hexdigest()}")
    print(lines[-1])
    if expected is None:
        return 0
    got = {cell_of(line): line for line in lines}
    differ = [cell for cell in {**expected, **got} if expected.get(cell) != got.get(cell)]
    name = os.path.basename(DIGEST_FILE)
    if differ:
        print(f"{len(differ)} of {len(expected)} lines differ from {name}:")
        for cell in differ:
            print(f"  {cell}")
        return 1
    print(f"all {len(expected)} lines match {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
