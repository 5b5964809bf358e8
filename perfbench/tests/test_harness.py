"""Tracer arithmetic, the tail statistic, and agreement with BENCHMARK.json."""

import json
from pathlib import Path

import run
import workloads as W
from loewner import DrivingSpec, hull, ode, weierstrass
from tracer import Tracer, instrument, layer_metrics

BENCHMARK = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


class FakeClock:
    def __init__(self, ticks):
        self.ticks = iter(ticks)

    def __call__(self):
        return next(self.ticks)


def test_self_time_subtracts_children():
    tr = Tracer(clock=FakeClock([0.0, 1.0, 3.0, 4.0, 4.5, 10.0]))
    outer = tr.enter("hull.welding")
    child = tr.enter("ode.integrate")
    tr.exit(child)
    leaf = tr.enter("driving.call", keep=False)
    tr.exit(leaf, variant="x:scalar")
    tr.exit(outer)
    spans = {s["name"]: s for s in tr.spans}
    assert spans["ode.integrate"]["self"] == 2.0
    assert spans["ode.integrate"]["parent"] == spans["hull.welding"]["id"]
    assert spans["hull.welding"]["self"] == 10.0 - 2.0 - 0.5
    assert tr.aggregates[("driving.call", "x:scalar", "hull.welding", 0)] == [1, 0.5, 0.5]


def test_tail_has_ten_samples_beyond():
    assert run.tail(list(range(11)))[0] == 0
    assert run.tail(list(range(30)))[0] == 19
    assert run.tail([3.0, 1.0, 2.0])[0] == 3.0


def test_instrument_counts_and_restores():
    originals = (DrivingSpec.__call__, hull.integrate, weierstrass.welding, hull.trace)
    tr = Tracer()
    inst = instrument(tr)
    try:
        spec = DrivingSpec("constant", {"value": 0.0}, 1.0)
        hull.welding(spec, 1.0, [0.2, 0.5], dt=1e-2, check_simple=False)
        hull.trace(spec, 1.0, 0.1)
    finally:
        inst.undo()
    assert (DrivingSpec.__call__, hull.integrate, weierstrass.welding, hull.trace) == originals
    m = layer_metrics(tr)
    assert m["hull.welding.calls"][0] == 1
    assert m["ode.calls"][0] == 1
    assert m["ode.field_evals"][0] > m["ode.steps"][0] > 0
    assert m["driving.calls"][0] > 0
    assert m["hull.trace.calls"][0] == 1
    assert m["hull.trace.cells"][0] == 10
    assert m["hull.trace.map_evals"][0] == 45


def test_metric_names_match_benchmark_json():
    spec = json.loads(BENCHMARK.read_text())
    assert [w["name"] for w in spec["workloads"]] == list(W.WORKLOADS)
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert e2e == run.END_TO_END
    layer = run.per_layer(Tracer(), 0.0, 0.0, [])
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {k: u for k, (_, u) in layer.items()}


def test_ode_wrapper_keeps_integrate_results():
    field = lambda t, y: -y
    plain = ode.integrate(field, 1.0, (0.0, 1.0))
    tr = Tracer()
    inst = instrument(tr)
    try:
        traced = hull.integrate(field, 1.0, (0.0, 1.0))
    finally:
        inst.undo()
    assert traced.terminal_value == plain.terminal_value
    assert tr.spans[0]["attrs"] == {"steps": plain.nsteps, "rejected": plain.nrejected}
