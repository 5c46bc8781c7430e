"""The benchmark tracer's patch targets exist under their current names."""

import importlib
import importlib.util
from pathlib import Path

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
