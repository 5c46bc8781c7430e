"""The benchmark tracer's patch targets exist under their current names,
return what the tracer reads from them, and are called where it expects."""

import ast
import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

import fdcell.sim as sim
from conftest import make_decision, toy_gains
from fdcell.scheduler import init_state

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
RUN = TRACER.with_name("run.py")


def load_tracer():
    """perfbench/tracer.py, loaded from its path."""
    spec = importlib.util.spec_from_file_location("_fdcell_bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_tracer_targets_resolve():
    # the tracer patches (module, attribute) pairs by name; a rename in the
    # package would otherwise only show up as a failing traced benchmark run
    tracer = load_tracer()
    assert tracer.TARGETS
    missing = [
        (mod_name, attr)
        for mod_name, attr, _, _ in tracer.TARGETS
        if not callable(getattr(importlib.import_module(mod_name), attr, None))
    ]
    assert missing == []


def test_alloc_value_reads_allocator_output():
    # the tracer's power_alloc.alloc value reads allocate_with_fallback's
    # return: a change to its shape would otherwise only show up as a
    # failing traced benchmark run
    alloc_value = load_tracer()._alloc_value
    g = toy_gains([[1e-8, 1e-8]])
    st = init_state(g.n_ues, g.bandwidth_hz)
    assert alloc_value(sim.allocate_with_fallback(st, make_decision(g), g)) == (False, 0)
    out = sim.allocate_with_fallback(st, make_decision(g, dl=[0]), g)
    assert alloc_value(out) == (True, out[1]["fallbacks"])


def setup_code() -> str:
    """run.py's SETUP_CODE, read from its source: importing run.py would
    set the BLAS thread variables and drop FDCELL_SEED for this process."""
    for node in ast.parse(RUN.read_text()).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "SETUP_CODE" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{RUN} defines no SETUP_CODE")


@pytest.mark.parametrize("scenario", ["Indoor", "Outdoor"])
def test_setup_probe_code_runs(scenario):
    # setup_s times this code in a fresh interpreter; a rename of what it
    # imports would otherwise only show up as a failing benchmark run
    code = setup_code().format(kind=scenario.lower(), Kind=scenario, seed=1)
    exec(compile(code, str(RUN), "exec"), {})


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


@pytest.mark.parametrize("variant", sorted(SLOT_LOOP_CALLS))
def test_lockstep_loop_calls_each_layer_once_per_lockstep_slot(variant, monkeypatch):
    # run_variant advances its 3 drops as one lockstep chunk: the layers the
    # benchmark clocks and traces run once per slot of the chunk, entered
    # through sim's namespace, and the allocator once per drop and slot
    selector, allocates = SLOT_LOOP_CALLS[variant]
    names = ["update_state", selector, "validate", "slot_rates"]
    if allocates:
        names.append("allocate_with_fallback")
    calls = dict.fromkeys(names, 0)

    for name in names:
        monkeypatch.setattr(sim, name, counting(calls, name, getattr(sim, name)))
    cfg = sim.RunConfig(variant=variant, cancellation_db=85.0, slots=5, drops=3, ues_per_cell=2)
    assert sim._lockstep_chunks(cfg.drops, sim._lockstep_width(cfg)) == [range(cfg.drops)]
    assert len(sim.run_variant(cfg)) == cfg.drops
    expected = dict.fromkeys(names, cfg.slots)
    if allocates:
        expected["allocate_with_fallback"] = cfg.drops * cfg.slots
    assert calls == expected


def test_lockstep_chunk_builds_at_most_lockstep_networks(monkeypatch):
    # a chunk holds its drops' gain tables through its slots: no more
    # networks than LOCKSTEP_BYTES hold are built before the first PF
    # update, or between two chunks' slots; a budget just short of 4
    # drops keeps the run small
    events = []

    def logged(name, fn):
        def call(*args, **kwargs):
            events.append(name)
            return fn(*args, **kwargs)

        return call

    for name in ("build_gains", "update_state"):
        monkeypatch.setattr(sim, name, logged(name, getattr(sim, name)))
    cfg = sim.RunConfig(variant="RR_FD", slots=2, ues_per_cell=2)
    monkeypatch.setattr(sim, "LOCKSTEP_BYTES", 4 * sim._drop_gain_bytes(cfg) - 1)
    width = sim._lockstep_width(cfg)
    assert width == 3
    cfg.drops = 2 * width + 1
    sim.run_variant(cfg)
    assert events.count("build_gains") == cfg.drops
    assert events.index("update_state") <= width
    builds = "".join("b" if e == "build_gains" else "u" for e in events).split("u")
    assert max(len(run) for run in builds) <= width


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
