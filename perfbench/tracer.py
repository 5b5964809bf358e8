"""Span tracing from outside the package, and the per-layer metrics.

The tracer wraps the public functions of each layer as the importing modules
bind them (``hull.integrate``, ``weierstrass.welding``,
``real_line.integrate_until``, ...) plus ``DrivingSpec.__call__`` and
``FrameDriving.__call__``.  No file of the package changes: ``instrument``
patches module attributes and ``Instrumentation.undo`` restores them.

Every span has a name, a start, an end and a parent.  A span's self time is
its duration minus the time its child spans cover; the stack computes it as
spans close.  Layer calls are kept as individual spans.  The hot leaves
(driving evaluations, frame-driving evaluations, ODE field and guard
evaluations), of which a batch makes up to a few hundred thousand, are kept
as aggregates keyed by (name, variant, parent name, nearest kept ancestor):
a count, the summed duration and the summed self time.
"""

from __future__ import annotations

import functools
import inspect
import json
import time
from dataclasses import dataclass, field

import numpy as np

import loewner
from loewner import acceptance, cli, driving, hull, imaginary, ode, real_line, sharp, weierstrass

LAYER_MODULES = (real_line, imaginary, hull, weierstrass)
BINDING_MODULES = (loewner, driving, ode, real_line, imaginary, hull, weierstrass, acceptance, cli, sharp)
ODE_FUNCTIONS = ("integrate", "integrate_until")


class Tracer:
    """In-memory span recorder for one single-threaded process."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[dict] = []
        self.aggregates: dict[tuple, list] = {}
        self._stack: list[list] = []  # [name, start, child_time, id, anchor]
        self._next_id = 0

    def enter(self, name: str, keep: bool = True) -> list:
        parent = self._stack[-1] if self._stack else None
        anchor = None if parent is None else (parent[3] if parent[3] is not None else parent[4])
        span_id = None
        if keep:
            span_id = self._next_id
            self._next_id += 1
        frame = [name, 0.0, 0.0, span_id, anchor]
        self._stack.append(frame)
        frame[1] = self.clock()
        return frame

    def exit(self, frame: list, variant: str = "", attrs: dict | None = None):
        end = self.clock()
        top = self._stack.pop()
        if top is not frame:
            raise RuntimeError(f"span {frame[0]} closed out of order (open: {top[0]})")
        name, start, child, span_id, anchor = frame
        dur = end - start
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[2] += dur
        parent_name = None if parent is None else parent[0]
        if span_id is None:
            key = (name, variant, parent_name, anchor)
            agg = self.aggregates.get(key)
            if agg is None:
                self.aggregates[key] = [1, dur, dur - child]
            else:
                agg[0] += 1
                agg[1] += dur
                agg[2] += dur - child
        else:
            self.spans.append({
                "id": span_id, "name": name, "parent": anchor, "parent_name": parent_name,
                "start": start, "end": end, "self": dur - child, "attrs": attrs or {},
            })

    def write(self, path):
        aggregates = [
            {"name": k[0], "variant": k[1], "parent_name": k[2], "parent": k[3],
             "count": v[0], "busy": v[1], "self": v[2]}
            for k, v in self.aggregates.items()
        ]
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "aggregates": aggregates}, fh)


def layer_of(name):
    return None if name is None else name.split(".", 1)[0]


def _traced(tracer: Tracer, fn, name: str, attrs_fn=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        frame = tracer.enter(name)
        out = None
        try:
            out = fn(*args, **kwargs)
            return out
        finally:
            attrs = attrs_fn(args, kwargs, out) if attrs_fn is not None and out is not None else None
            tracer.exit(frame, attrs=attrs)

    return wrapper


def _leaf(tracer: Tracer, fn, name: str):
    def wrapper(*args):
        frame = tracer.enter(name, keep=False)
        try:
            return fn(*args)
        finally:
            tracer.exit(frame)

    return wrapper


def _traced_ode(tracer: Tracer, fn, name: str):
    sig = inspect.signature(fn)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        bound = sig.bind(*args, **kwargs)
        a = bound.arguments
        a["field"] = _leaf(tracer, a["field"], "ode.field")
        if a.get("guard") is not None:
            a["guard"] = _leaf(tracer, a["guard"], "ode.guard")
        if a.get("guards"):
            a["guards"] = [(_leaf(tracer, g, "ode.guard"), kind) for g, kind in a["guards"]]
        frame = tracer.enter(name)
        path = None
        try:
            path = fn(*bound.args, **bound.kwargs)
            return path
        finally:
            attrs = None
            if path is not None:
                attrs = {"steps": int(path.nsteps), "rejected": int(path.nrejected)}
            tracer.exit(frame, attrs=attrs)

    return wrapper


def _trace_attrs(args, kwargs, out):
    return {"cells": int(out.points.size - 1)}


def _simplicity_attrs(args, kwargs, out):
    params = inspect.signature(hull.simplicity_diagnostic).bind(*args, **kwargs).arguments
    return {"cells": int(round(params["T"] / params["dt"])), "simple": bool(out.simple)}


ATTRS = {"hull.trace": _trace_attrs, "hull.simplicity_diagnostic": _simplicity_attrs}


@dataclass
class Instrumentation:
    patches: list = field(default_factory=list)  # (owner, attribute, original)

    def set(self, owner, attr, value):
        self.patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def undo(self):
        for owner, attr, original in reversed(self.patches):
            setattr(owner, attr, original)
        self.patches.clear()


def _rebind(inst: Instrumentation, original, wrapper, skip=()):
    for mod in BINDING_MODULES:
        if mod in skip:
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                inst.set(mod, attr, wrapper)


def instrument(tracer: Tracer) -> Instrumentation:
    """Wrap every layer boundary; call ``undo()`` on the result to restore."""
    inst = Instrumentation()

    spec_call = driving.DrivingSpec.__call__

    def driving_call(self, t):
        frame = tracer.enter("driving.call", keep=False)
        try:
            return spec_call(self, t)
        finally:
            tracer.exit(frame, variant=f"{self.family}:{'scalar' if np.ndim(t) == 0 else 'vector'}")

    inst.set(driving.DrivingSpec, "__call__", driving_call)
    xi_call = real_line.FrameDriving.__call__
    inst.set(real_line.FrameDriving, "__call__", _leaf(tracer, xi_call, "real_line.frame_xi"))

    # ode's own bindings stay unwrapped, so integrate -> integrate_until is one span
    for fname in ODE_FUNCTIONS:
        original = getattr(ode, fname)
        _rebind(inst, original, _traced_ode(tracer, original, f"ode.{fname}"), skip=(ode,))

    for mod in LAYER_MODULES:
        layer = mod.__name__.rsplit(".", 1)[1]
        for fname in mod.__all__:
            original = getattr(mod, fname)
            if not inspect.isfunction(original):
                continue
            name = f"{layer}.{fname}"
            _rebind(inst, original, _traced(tracer, original, name, ATTRS.get(name)))

    criteria = [
        (n, cname, _traced(tracer, fn, "bench.task")) for n, cname, fn in acceptance.CRITERIA
    ]
    inst.set(acceptance, "CRITERIA", criteria)
    return inst


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------


def _spans(tracer, name, outer=False):
    out = [s for s in tracer.spans if s["name"] == name]
    if outer:
        out = [s for s in out if layer_of(s["parent_name"]) != layer_of(name)]
    return out


def _dur(spans):
    return float(sum(s["end"] - s["start"] for s in spans))


def _self(spans):
    return float(sum(s["self"] for s in spans))


def _leaves(tracer, name, variant_suffix="", outer=True):
    count, busy = 0, 0.0
    for (lname, variant, parent_name, _), (n, b, _s) in tracer.aggregates.items():
        if lname != name or not variant.endswith(variant_suffix):
            continue
        if outer and layer_of(parent_name) == layer_of(name):
            continue
        count += n
        busy += b
    return count, busy


def _ratio(a, b, scale=1.0):
    return scale * a / b if b else 0.0


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer metrics of one traced batch, by name: (value, unit)."""
    m = {}
    calls, busy = _leaves(tracer, "driving.call")
    scalar_calls, _ = _leaves(tracer, "driving.call", ":scalar")
    w_calls, w_busy = _leaves(tracer, "driving.call", "weierstrass_partial:scalar")
    m["driving.calls"] = (calls, "count")
    m["driving.scalar_calls"] = (scalar_calls, "count")
    m["driving.busy_s"] = (busy, "s")
    m["driving.us_per_call"] = (_ratio(busy, calls, 1e6), "us")
    m["driving.weierstrass_scalar_us"] = (_ratio(w_busy, w_calls, 1e6), "us")

    ode_spans = [s for f in ODE_FUNCTIONS for s in _spans(tracer, f"ode.{f}", outer=True)]
    steps = sum(s["attrs"].get("steps", 0) for s in ode_spans)
    evals, field_s = _leaves(tracer, "ode.field", outer=False)
    m["ode.calls"] = (len(ode_spans), "count")
    m["ode.steps"] = (steps, "count")
    m["ode.rejected"] = (sum(s["attrs"].get("rejected", 0) for s in ode_spans), "count")
    m["ode.field_evals"] = (evals, "count")
    m["ode.evals_per_step"] = (_ratio(evals, steps), "ratio")
    m["ode.busy_s"] = (_dur(ode_spans), "s")
    m["ode.field_s"] = (field_s, "s")
    m["ode.self_s"] = (_self(ode_spans), "s")

    scans = _spans(tracer, "real_line.capture_scan")
    m["real_line.capture_scan.calls"] = (len(scans), "count")
    m["real_line.capture_scan.self_s"] = (_self(scans), "s")
    m["real_line.frame_xi_calls"] = (_leaves(tracer, "real_line.frame_xi", outer=False)[0], "count")
    m["real_line.capture_bracket.busy_s"] = (_dur(_spans(tracer, "real_line.capture_bracket")), "s")
    m["real_line.solve_real_loewner.calls"] = (len(_spans(tracer, "real_line.solve_real_loewner")), "count")

    outer_imag = [
        s for s in tracer.spans
        if layer_of(s["name"]) == "imaginary" and layer_of(s["parent_name"]) != "imaginary"
    ]
    m["imaginary.calls"] = (len(outer_imag), "count")
    m["imaginary.busy_s"] = (_dur(outer_imag), "s")

    traces = _spans(tracer, "hull.trace")
    cells = [s["attrs"].get("cells", 0) for s in traces]
    simp = _spans(tracer, "hull.simplicity_diagnostic")
    welds = _spans(tracer, "hull.welding")
    m["hull.trace.calls"] = (len(traces), "count")
    m["hull.trace.cells"] = (sum(cells), "count")
    m["hull.trace.map_evals"] = (sum(n * (n - 1) // 2 for n in cells), "count")
    m["hull.trace.busy_s"] = (_dur(traces), "s")
    m["hull.simplicity.self_s"] = (_self(simp), "s")
    m["hull.simplicity.pair_evals"] = (sum((s["attrs"].get("cells", 0) + 1) ** 2 for s in simp), "count")
    # every curve the benchmark checks is simple by a theorem, so each
    # touching verdict is a false positive of the diagnostic
    m["hull.simplicity.flagged"] = (sum(1 for s in simp if s["attrs"].get("simple") is False), "count")
    m["hull.welding.calls"] = (len(welds), "count")
    m["hull.welding.self_s"] = (_self(welds), "s")

    m["weierstrass.pipeline.self_s"] = (_self(_spans(tracer, "weierstrass.quasislit_pipeline")), "s")
    m["weierstrass.norm_check.busy_s"] = (_dur(_spans(tracer, "weierstrass.norm_bound_check")), "s")
    m["weierstrass.comparison.busy_s"] = (_dur(_spans(tracer, "weierstrass.comparison_constant")), "s")

    batch = _spans(tracer, "bench.batch")
    tasks = _spans(tracer, "bench.task")
    checks = _spans(tracer, "bench.check")
    m["bench.check_s"] = (_dur(checks), "s")
    m["bench.uncovered_s"] = (_dur(batch) - _dur(tasks) - _dur(checks), "s")
    return m
