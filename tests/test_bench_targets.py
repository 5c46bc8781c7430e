"""The benchmark tracer's patch targets exist under their current names
and return what the tracer reads from them."""

import importlib
import importlib.util
from pathlib import Path

import numpy as np

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
