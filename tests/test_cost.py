"""Cost pins: exact work counts of fixed calls.

Work counts are exact and repeat from process to process, while wall times
swing by tens of per cent, so a change in the work a call does shows here
without any timing.  The counts are taken from the test side by rebinding,
with no hook in the library:

- ``runs``: adaptive stepper runs (``ode._Stepper`` instances);
- ``steps``: calls of ``ode._Stepper.step``;
- ``evals``: evaluations of the field each stepper was built with;
- ``map_points``: map-point applications of the zipper's inverse slit map,
  the point count of every ``hull._inverse_slit_map`` call;
- ``quads``: calls of the adaptive quadrature ``quadrature.quad``;
- ``integrand``: evaluations of the integrands passed to it (one float each);
- ``simpson`` and ``gauss``: calls of the fixed rules on arrays,
  ``quadrature.cumulative_simpson`` and ``quadrature._gauss_panel``.

The quadrature counts rebind the names in the modules that import them.

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

from loewner import DrivingSpec, acceptance, hull, imaginary, ode, quadrature, real_line
from loewner.weierstrass import WeierstrassParams, quasislit_pipeline

KEYS = ("runs", "steps", "evals", "map_points", "quads", "integrand", "simpson", "gauss")


def pins(**want):
    """The full count dict: ``want`` and a zero for every other count."""
    return dict(dict.fromkeys(KEYS, 0), **want)


@pytest.fixture
def counts(monkeypatch):
    c = Counter(pins())
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

    def counted_quad(f, *args):
        def counted_integrand(x):
            c["integrand"] += 1
            return f(x)

        c["quads"] += 1
        return quadrature.quad(counted_integrand, *args)

    def counted_rule(key, rule):
        def counted(*args):
            c[key] += 1
            return rule(*args)

        return counted

    monkeypatch.setattr(ode._Stepper, "__init__", counted_init)
    monkeypatch.setattr(ode._Stepper, "step", counted_step)
    monkeypatch.setattr(hull, "_inverse_slit_map", counted_kernel)
    for module in (real_line, imaginary):
        monkeypatch.setattr(module, "quad", counted_quad)
    monkeypatch.setattr(real_line, "cumulative_simpson",
                        counted_rule("simpson", quadrature.cumulative_simpson))
    monkeypatch.setattr(real_line, "_gauss_panel", counted_rule("gauss", quadrature._gauss_panel))
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
    assert dict(counts) == pins(**want, map_points=pipeline_map_points(500))


def test_weld_batch_totals(counts):
    for params, _ in WELD_SEED_7:
        quasislit_pipeline(WeierstrassParams(*params), T=1.0, dt=2e-3, compute_ratio_bound=True)
    assert dict(counts) == pins(runs=4, steps=250, evals=2062, map_points=1_503_000)


def test_welding_criterion_counts(counts):
    # criterion 10 welds the zero driving without the simplicity check: it
    # pushes real points only, and runs no stepper and no inverse map
    assert acceptance.run_one(10).passed
    assert dict(counts) == pins()


# The other criteria.  Criteria 5 and 11 make none of the counted calls:
# the sharp example is closed form, and criterion 11's cost is the Hölder lag
# scan and the offset increments on fixed grids.
CRITERION_PINS = {
    1: pins(runs=1, steps=44, evals=271),
    2: pins(runs=9, steps=18, evals=177),
    3: pins(runs=248, steps=12_456, evals=76_106),
    4: pins(simpson=40, gauss=60),
    5: pins(),
    6: pins(runs=9, steps=946, evals=6987),
    7: pins(runs=34, steps=168, evals=1042, quads=2, integrand=42),
    8: pins(quads=39, integrand=25_641),
    9: pins(map_points=13_507_500),
    11: pins(),
    12: pins(runs=5, steps=378, evals=2333, map_points=2_626_750),
}


@pytest.mark.parametrize("number", sorted(CRITERION_PINS))
def test_criterion_counts(number, counts):
    assert acceptance.run_one(number).passed
    assert dict(counts) == CRITERION_PINS[number]


# The seed-7 batch of the benchmark's capture workload: one-sided capture
# scans of sqrt_approach drivings (the c = 5 reference, six captured values
# of c and two empty ones) and two square-root gap classifications.
CAPTURE_SEED_7_C = [5.0, 4.306555274840873, 4.753975364187561, 5.324599722178583,
                    5.611755777284147, 5.829081437575935, 6.223759987533591,
                    2.595833215329806, 3.480501696074358]
CAPTURE_SEED_7_GAP = [0.29694255791685337, 3.189824907045927]


def test_capture_batch_counts(counts):
    for c in CAPTURE_SEED_7_C:
        real_line.capture_scan(DrivingSpec("sqrt_approach", {"c": c}, 1.0), 1.0, mirrored=False)
    for C in CAPTURE_SEED_7_GAP:
        imaginary.classify_sqrt_gap(C, 1.0)
    assert dict(counts) == pins(runs=334, steps=26_431, evals=161_422)


def test_full_trace_map_points(counts):
    hull.trace(DrivingSpec("constant", {"value": 0.0}, 1.0), 1.0, 1e-2)
    assert dict(counts) == pins(map_points=100 * 101 // 2)
