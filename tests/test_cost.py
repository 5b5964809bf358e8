"""Cost pins: exact work counts of fixed calls.

Work counts are exact and repeat from process to process, while wall times
swing by tens of per cent, so a change in the work a call does shows here
without any timing.  The counts are taken from the test side by rebinding,
with no hook in the library:

- ``runs``: adaptive stepper runs (``ode._Stepper`` instances);
- ``steps``: calls of ``ode._Stepper.step``;
- ``evals``: evaluations of the field each stepper was built with;
- ``map_points``: map-point applications of the zipper's inverse slit map,
  the point count of every ``hull._inverse_slit_map`` call.

To re-pin, run this file: a failing assertion prints the new counts.  A
change that moves a count states the old and the new counts in CHANGES.md,
and a rise needs a stated reason.  The step and evaluation counts follow
the adaptive stepper's accept/reject decisions, which depend on the last
bits of every float the driving and the field return, so another libm or
numpy build may need them re-pinned, as the frozen ``verify`` detail
strings would.
"""

from collections import Counter

import pytest

from loewner import DrivingSpec, hull, ode
from loewner.acceptance import criterion_welding_symmetry
from loewner.weierstrass import WeierstrassParams, quasislit_pipeline


@pytest.fixture
def counts(monkeypatch):
    c = Counter(runs=0, steps=0, evals=0, map_points=0)
    init, step, kernel = ode._Stepper.__init__, ode._Stepper.step, hull._inverse_slit_map

    def counted_init(self, field, *args, **kwargs):
        def counted_field(*a):
            c["evals"] += 1
            return field(*a)

        c["runs"] += 1
        init(self, counted_field, *args, **kwargs)

    def counted_step(self, *args, **kwargs):
        c["steps"] += 1
        return step(self, *args, **kwargs)

    def counted_kernel(x, *args):
        c["map_points"] += x.size
        return kernel(x, *args)

    monkeypatch.setattr(ode._Stepper, "__init__", counted_init)
    monkeypatch.setattr(ode._Stepper, "step", counted_step)
    monkeypatch.setattr(hull, "_inverse_slit_map", counted_kernel)
    return c


def pipeline_map_points(n):
    """The zipper work of one pipeline on n cells: the full trace (map k acts
    on the n - k + 1 points born at or after cell k, n(n + 1)/2 in all) and the
    dt/2 refinement read at the n coarse times (the seed of coarse cell j, at
    fine cell 2j + 1, passes 2j + 2 maps: n(n + 1) in all)."""
    return n * (n + 1) // 2 + n * (n + 1)


# The seed-7 batch of the benchmark's weld workload: (b, N, c), run at
# T = 1, dt = 2e-3 with the ratio bound.  Each pipeline's one stepper run is
# the comparison flow behind C2 = comparison_constant(c C(b)).
WELD_SEED_7 = [
    ((9.0, 2, 0.490625), dict(runs=1, steps=63, evals=517)),
    ((9.0, 3, 0.396875), dict(runs=1, steps=61, evals=505)),
    ((16.0, 2, 0.396875), dict(runs=1, steps=62, evals=511)),
    ((16.0, 3, 0.471875), dict(runs=1, steps=64, evals=529)),
]


@pytest.mark.parametrize("params, want", WELD_SEED_7,
                         ids=[f"b{b:g}-N{N}" for (b, N, _), _ in WELD_SEED_7])
def test_weld_pipeline_counts(params, want, counts):
    v = quasislit_pipeline(WeierstrassParams(*params), T=1.0, dt=2e-3, compute_ratio_bound=True)
    assert v.ratio1_contained
    assert dict(counts) == dict(want, map_points=pipeline_map_points(500))


def test_weld_batch_totals(counts):
    for params, _ in WELD_SEED_7:
        quasislit_pipeline(WeierstrassParams(*params), T=1.0, dt=2e-3, compute_ratio_bound=True)
    assert dict(counts) == dict(runs=4, steps=250, evals=2062, map_points=1_503_000)


def test_welding_criterion_counts(counts):
    # criterion 10 welds the zero driving without the simplicity check: it
    # pushes real points only, and runs no stepper and no inverse map
    assert criterion_welding_symmetry().passed
    assert dict(counts) == dict(runs=0, steps=0, evals=0, map_points=0)


def test_full_trace_map_points(counts):
    hull.trace(DrivingSpec("constant", {"value": 0.0}, 1.0), 1.0, 1e-2)
    assert dict(counts) == dict(runs=0, steps=0, evals=0, map_points=100 * 101 // 2)
