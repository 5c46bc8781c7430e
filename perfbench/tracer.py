"""In-memory span tracer for the fdcell benchmark.

The tracer patches the public functions of each layer in the namespace
where their caller looks them up (``fdcell.sim.select_ues``, not
``fdcell.scheduler.select_ues``), so no file under ``src/`` changes.
Each call records one span ``[name, start, end, parent, value]``;
``value`` is a count the call returns, such as the Newton iterations of
``minimize_box``. Per-slot spans are derived afterwards from the slot
loop's own calls (see ``_add_slot_spans``). A layer's self time is the
duration of its spans minus the part covered by their child spans.
"""

from __future__ import annotations

import importlib
from contextlib import contextmanager
from time import perf_counter

import numpy as np

SLOT = "sim.slot"
DROP = "sim.run_drop"
SLOT_START = "scheduler.init"      # the last call before the slot loop
SLOT_END = "scheduler.update"      # the last call of every slot


def _alloc_value(out):
    """(selection was non-empty, fallbacks) from allocate_with_fallback."""
    diag = out[1]
    return (diag["status"] != "idle", diag["fallbacks"])


# (module, attribute, span name, value taken from the return value)
TARGETS = (
    ("fdcell.sim", "run_drop", DROP, None),
    ("fdcell.sim", "aggregate", "sim.aggregate", None),
    ("fdcell.sim", "persist", "sim.persist", None),
    ("fdcell.sim", "build_indoor", "network.topology", None),
    ("fdcell.sim", "build_outdoor", "network.topology", None),
    ("fdcell.sim", "build_gains", "network.gains", None),
    ("fdcell.sim", "init_state", SLOT_START, None),
    ("fdcell.sim", "select_ues", "scheduler.select", None),
    ("fdcell.sim", "hd_select_ues", "scheduler.select", None),
    ("fdcell.sim", "round_robin_select", "scheduler.rr", None),
    ("fdcell.sim", "update_state", SLOT_END, None),
    ("fdcell.sim", "allocate_with_fallback", "power_alloc.alloc", _alloc_value),
    ("fdcell.sim", "validate", "sinr_rate.validate", None),
    ("fdcell.sim", "slot_rates", "sinr_rate.eval", None),
    ("fdcell.scheduler", "slot_link_terms", "sinr_rate.eval", None),
    ("fdcell.scheduler", "slot_rates", "sinr_rate.eval", None),
    ("fdcell.power_alloc", "build_power_problem", "power_alloc.build", None),
    ("fdcell.power_alloc", "solve_power_sp", "power_alloc.sp", None),
    ("fdcell.power_alloc", "trim_to_se_cap", "power_alloc.trim", None),
    ("fdcell.power_alloc", "slot_sinrs", "sinr_rate.eval", None),
    ("fdcell.power_alloc", "slot_rates", "sinr_rate.eval", None),
    ("fdcell.power_alloc", "minimize_box", "gp_core.newton", lambda out: out[2]),
)


class Tracer:
    """Span recorder; ``installed()`` patches the targets for its duration."""

    def __init__(self):
        self.spans = []
        self._stack = []

    def _wrap(self, fn, name, value_of):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            i = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(i)
            start = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[i] = [name, start, end, parent, None]
            if value_of is not None:
                spans[i][4] = value_of(out)
            return out

        return traced

    @contextmanager
    def installed(self):
        saved = []
        try:
            for mod_name, attr, name, value_of in TARGETS:
                mod = importlib.import_module(mod_name)
                fn = getattr(mod, attr)
                saved.append((mod, attr, fn))
                setattr(mod, attr, self._wrap(fn, name, value_of))
            yield self
        finally:
            for mod, attr, fn in reversed(saved):
                setattr(mod, attr, fn)


def _add_slot_spans(spans):
    """Split every run_drop span into one child span per simulated slot.

    Slot t runs from the end of the previous slot's PF update (the end
    of ``init_state`` for the first slot) to the end of its own update;
    the run_drop children inside that interval move under the slot.
    """
    children = {}
    for i, s in enumerate(spans):
        children.setdefault(s[3], []).append(i)
    for d, s in enumerate(list(spans)):
        if s[0] != DROP:
            continue
        kids = children.get(d, [])
        marks = [spans[k][2] for k in kids if spans[k][0] in (SLOT_START, SLOT_END)]
        for lo, hi in zip(marks, marks[1:]):
            slot = len(spans)
            spans.append([SLOT, lo, hi, d, None])
            for k in kids:
                if spans[k][1] >= lo and spans[k][2] <= hi:
                    spans[k][3] = slot


def self_times(spans):
    """Duration of each span minus the durations of its direct children."""
    own = np.array([s[2] - s[1] for s in spans])
    out = own.copy()
    for s in spans:
        if s[3] >= 0:
            out[s[3]] -= s[2] - s[1]
    return own, out


class Summary:
    """Totals per span name over one or more traced passes."""

    def __init__(self):
        self.incl = {}
        self.self_ = {}
        self.calls = {}
        self.values = {}
        self.slot_s = []

    def add(self, spans):
        _add_slot_spans(spans)
        own, mine = self_times(spans)
        for i, s in enumerate(spans):
            name = s[0]
            self.incl[name] = self.incl.get(name, 0.0) + own[i]
            self.self_[name] = self.self_.get(name, 0.0) + mine[i]
            self.calls[name] = self.calls.get(name, 0) + 1
            if s[4] is not None:
                self.values.setdefault(name, []).append(s[4])
            if name == SLOT:
                self.slot_s.append(own[i])
        return float(mine.sum())

    def layer_self(self, layer):
        return sum(v for k, v in self.self_.items() if k.split(".")[0] == layer)
