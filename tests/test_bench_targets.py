"""The benchmark tracer's patch targets exist under their current names,
return what the tracer reads from them, and are called where it expects."""

import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

import fdcell.sim as sim

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_tracer_targets_resolve():
    # the tracer patches (module, attribute) pairs by name; a rename in the
    # package would otherwise only show up as a failing traced benchmark run
    spec = importlib.util.spec_from_file_location("_fdcell_bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.TARGETS
    missing = [
        (mod_name, attr)
        for mod_name, attr, _, _ in tracer.TARGETS
        if not callable(getattr(importlib.import_module(mod_name), attr, None))
    ]
    assert missing == []


def test_minimize_box_returns_iteration_count():
    # the tracer records fdcell.power_alloc.minimize_box's out[2] as the
    # Newton iterations of a call
    minimize_box = importlib.import_module("fdcell.power_alloc").minimize_box

    def fgh(y):
        return float(y @ y), 2.0 * y, lambda: 2.0 * np.eye(len(y))

    out = minimize_box(fgh, np.array([1.0, -2.0]), np.full(2, -3.0), np.full(2, 3.0))
    assert len(out) == 3
    assert type(out[2]) is int and out[2] >= 1


def counting(calls, name, fn):
    """fn, adding one to calls[name] per call."""

    def counted(*args, **kwargs):
        calls[name] += 1
        return fn(*args, **kwargs)

    return counted


# per variant: the selector run_drop calls, and whether the allocator runs
SLOT_LOOP_CALLS = {
    "RR_FD": ("round_robin_select", False),
    "FD": ("select_ues", True),
    "HD": ("hd_select_ues", True),
}


@pytest.mark.parametrize("variant", sorted(SLOT_LOOP_CALLS))
def test_slot_loop_calls_each_layer_once_per_slot(variant, monkeypatch):
    # the benchmark's slot clock cuts at every sim.update_state call and the
    # tracer times each layer through sim's namespace: inlining one of these
    # calls would blind the clock or zero a traced layer
    selector, allocates = SLOT_LOOP_CALLS[variant]
    names = ["update_state", selector, "validate", "slot_rates"]
    if allocates:
        names.append("allocate_with_fallback")
    calls = dict.fromkeys(names, 0)

    for name in names:
        monkeypatch.setattr(sim, name, counting(calls, name, getattr(sim, name)))
    cfg = sim.RunConfig(variant=variant, cancellation_db=85.0, slots=5, drops=1, ues_per_cell=2)
    sim.run_drop(cfg, 0)
    assert calls == dict.fromkeys(names, cfg.slots)


@pytest.mark.parametrize("scenario", ["Indoor", "Outdoor"])
def test_run_drop_builds_network_once_per_drop(scenario, monkeypatch):
    # the tracer's network.build_ms times the topology and gain builders
    # through sim's namespace: inlining or renaming either reads as zero
    names = ["build_indoor" if scenario == "Indoor" else "build_outdoor", "build_gains"]
    calls = dict.fromkeys(names, 0)

    for name in names:
        monkeypatch.setattr(sim, name, counting(calls, name, getattr(sim, name)))
    cfg = sim.RunConfig(scenario=scenario, variant="RR_FD", slots=2, drops=2, ues_per_cell=2)
    for drop in range(cfg.drops):
        sim.run_drop(cfg, drop)
    assert calls == dict.fromkeys(names, cfg.drops)
