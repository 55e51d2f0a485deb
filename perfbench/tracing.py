"""Per-layer spans around the calls into degjc's modules.

The wrappers are installed by the benchmark; the program itself is not
instrumented.  The modules import each other's functions by name (the CLI
calls ``concurrence_trace`` through ``degjc.cli``, the oracle calls
``build_hamiltonian`` through ``degjc.oracle``), so each wrapper replaces
the original wherever any degjc module holds it.

A span records its layer key, start, end and the span that caused it.  A
call into a layer that is already on the stack (``concurrence_at_half_period``
calling ``concurrence_closed``) runs unwrapped, so it is counted once.
"""

import sys
import time
from collections import defaultdict

import numpy as np

# (module, function, layer key)
TARGETS = (
    ("degjc.oracle", "build_hamiltonian", "oracle.eigensolve"),
    ("degjc.oracle", "concurrence_trace", "oracle.trace"),
    ("degjc.oracle", "field_components", "oracle.fields"),
    ("degjc.oracle", "two_qubit_reduced", "oracle.reduce"),
    ("degjc.oracle", "field_field_reduced", "oracle.witness_state"),
    ("degjc.oracle", "four_party_purities", "oracle.witness_state"),
    ("degjc.entanglement", "wootters_concurrence", "entanglement.concurrence"),
    ("degjc.entanglement", "negativity", "entanglement.negativity"),
    ("degjc.closedform", "modulation_factor", "closedform.eval"),
    ("degjc.closedform", "concurrence_closed", "closedform.eval"),
    ("degjc.closedform", "concurrence_at_half_period", "closedform.eval"),
    ("degjc.closedform", "esd_concurrence_closed", "closedform.eval"),
    ("degjc.closedform", "evolve_spin_coherent", "closedform.eval"),
    ("degjc.specialfn", "laguerre", "specialfn.laguerre"),
    ("degjc.specialfn", "laguerre_roots", "specialfn.roots"),
    ("degjc.cli", "write_csv", "cli.csv"),
)

MAX_SPANS = 200_000  # spans kept for the trace file; totals count every call

# per-layer metric: (unit, how it is read from the tracer's totals)
METRICS = {
    "oracle.eigensolve_s": ("s", "time", "oracle.eigensolve"),
    "oracle.eigensolve_calls": ("count", "calls", "oracle.eigensolve"),
    "oracle.eigensolve_dim_max": ("count", "max", "oracle.eigensolve_dim"),
    "oracle.trace_s": ("s", "time", "oracle.trace"),
    "oracle.traces": ("count", "calls", "oracle.trace"),
    "oracle.phase_points": ("count", "calls", "oracle.reduce"),
    "oracle.maps_self_s": ("s", "self", "oracle.trace"),
    "oracle.doubling_s": ("s", "sum", "oracle.doubling_s"),
    "oracle.fields_s": ("s", "time", "oracle.fields"),
    "oracle.reduce_s": ("s", "time", "oracle.reduce"),
    "oracle.witness_state_s": ("s", "time", "oracle.witness_state"),
    "oracle.witness_points": ("count", "sum", "oracle.witness_points"),
    "entanglement.concurrence_s": ("s", "time", "entanglement.concurrence"),
    "entanglement.negativity_s": ("s", "time", "entanglement.negativity"),
    "entanglement.negativity_dim_max": ("count", "max", "entanglement.negativity_dim"),
    "entanglement.negativity_bytes": ("bytes", "max", "entanglement.negativity_bytes"),
    "closedform.eval_s": ("s", "time", "closedform.eval"),
    "closedform.points": ("count", "sum", "closedform.points"),
    "specialfn.laguerre_s": ("s", "time", "specialfn.laguerre"),
    "specialfn.roots_s": ("s", "time", "specialfn.roots"),
    "specialfn.roots_calls": ("count", "calls", "specialfn.roots"),
    "cli.csv_s": ("s", "time", "cli.csv"),
    "cli.csv_bytes": ("bytes", "sum", "cli.csv_bytes"),
}


def patch(targets, make_wrapper):
    """Replace each ``(module, function, *extra)`` of ``targets`` by
    ``make_wrapper(original, function, *extra)`` wherever a degjc module
    holds it; returns the list ``unpatch`` restores."""
    installed = []
    for module_name, func_name, *extra in targets:
        module = sys.modules.get(module_name)
        original = getattr(module, func_name, None) if module else None
        if original is None:
            continue
        wrapper = make_wrapper(original, func_name, *extra)
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == "degjc" or name.startswith("degjc.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)
                    installed.append((mod, attr, original))
    return installed


def unpatch(installed):
    for mod, attr, original in reversed(installed):
        setattr(mod, attr, original)


class _Frame:
    __slots__ = ("key", "index", "start", "child", "eigensolves", "doubling_start")

    def __init__(self, key, index, start):
        self.key = key
        self.index = index
        self.start = start
        self.child = 0.0
        self.eigensolves = 0
        self.doubling_start = None


class Tracer:
    def __init__(self):
        self.origin = time.perf_counter()
        self.spans = []
        self.dropped = 0
        self.stack = []
        self.time = defaultdict(float)
        self.self_time = defaultdict(float)
        self.calls = defaultdict(int)
        self.sums = defaultdict(float)
        self.maxes = defaultdict(float)
        self._installed = []

    # -- installation -----------------------------------------------------

    def install(self):
        self._installed = patch(TARGETS, self._wrap)

    def uninstall(self):
        unpatch(self._installed)
        self._installed = []

    def _wrap(self, original, func_name, key):
        tracer = self

        def wrapper(*args, **kwargs):
            if any(f.key == key for f in tracer.stack):
                return original(*args, **kwargs)
            frame = tracer._enter(key)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer._exit(frame)
            tracer._note(func_name, key, args, kwargs, result)
            return result

        wrapper.__wrapped__ = original
        wrapper.__name__ = original.__name__
        return wrapper

    # -- spans --------------------------------------------------------------

    def _enter(self, key):
        start = time.perf_counter()
        parent = self.stack[-1].index if self.stack else -1
        index = len(self.spans)
        if index < MAX_SPANS:
            self.spans.append([key, start - self.origin, None, parent])
        else:
            index = -1
            self.dropped += 1
        frame = _Frame(key, index, start)
        if key == "oracle.eigensolve":
            trace = next((f for f in reversed(self.stack) if f.key == "oracle.trace"), None)
            if trace is not None:
                trace.eigensolves += 1
                if trace.eigensolves == 2:  # the doubled-cutoff re-run starts here
                    trace.doubling_start = start
        self.stack.append(frame)
        return frame

    def _exit(self, frame):
        end = time.perf_counter()
        self.stack.pop()
        duration = end - frame.start
        if frame.index >= 0:
            self.spans[frame.index][2] = end - self.origin
        self.time[frame.key] += duration
        self.self_time[frame.key] += duration - frame.child
        self.calls[frame.key] += 1
        if self.stack:
            self.stack[-1].child += duration
        if frame.doubling_start is not None:
            self.sums["oracle.doubling_s"] += end - frame.doubling_start

    def _note(self, func_name, key, args, kwargs, result):
        """Sizes and counts read from the arguments and results."""
        if func_name == "build_hamiltonian":
            trunc = kwargs.get("trunc", args[1] if len(args) > 1 else None)
            dim = 2 * (trunc.ncut + 1)
            self.maxes["oracle.eigensolve_dim"] = max(self.maxes["oracle.eigensolve_dim"], dim)
        elif func_name == "field_field_reduced":
            self.sums["oracle.witness_points"] += 1
        elif func_name == "negativity":
            da, db = kwargs.get("dims", args[1] if len(args) > 1 else (0, 0))
            dim = da * db
            self.maxes["entanglement.negativity_dim"] = max(
                self.maxes["entanglement.negativity_dim"], dim)
            self.maxes["entanglement.negativity_bytes"] = max(
                self.maxes["entanglement.negativity_bytes"], dim * dim * 16)
        elif func_name == "write_csv":
            self.sums["cli.csv_bytes"] += len(result)
        elif key == "closedform.eval":
            first = result[0] if isinstance(result, tuple) else result
            self.sums["closedform.points"] += int(np.size(first))

    # -- results --------------------------------------------------------------

    def metrics(self, rounds, scale):
        """Every per-layer metric, per traced round; maxima are not divided
        and times are multiplied by ``scale``."""
        out = {}
        for name, (unit, kind, key) in METRICS.items():
            if kind == "time":
                value = scale * self.time[key] / rounds
            elif kind == "self":
                value = scale * self.self_time[key] / rounds
            elif kind == "calls":
                value = self.calls[key] / rounds
            elif kind == "sum":
                value = self.sums[key] / rounds * (scale if unit == "s" else 1.0)
            else:
                value = self.maxes[key]
            out[name] = {"value": value, "unit": unit}
        return out

    def dump(self):
        return {"spans": [s for s in self.spans if s[2] is not None], "dropped": self.dropped,
                "columns": ["layer", "start_s", "end_s", "parent"]}
