#!/usr/bin/env python3
"""Byte-identity digest of the simulator's outputs over a grid of runs.

    python3 tools/run_digest.py

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
"""

from __future__ import annotations

import os
import sys

# BLAS threads are fixed before numpy loads, so the digest does not
# depend on the host's core count.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import hashlib  # noqa: E402
import json  # noqa: E402

import numpy as np  # noqa: E402

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from fdcell import sim  # noqa: E402

CANCELLATIONS = (75.0, 95.0, None)      # None is perfect cancellation (C = inf)
SEEDS = (0, 1, 2)
DROPS = 3
SLOTS = 30


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


def main() -> int:
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
                print(line, flush=True)
    print(f"{'total':27s}{total.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
