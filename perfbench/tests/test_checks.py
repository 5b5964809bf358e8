"""Every oracle check of the benchmark can fail.

Each check gets one real output, which it must accept, and deliberately
wrong versions of it, each of which must make the task count as failed.

Run with: python3 -m pytest perfbench/tests
"""

import copy
import dataclasses

import numpy as np
import pytest

import run
import workloads as W
from loewner import DrivingSpec, acceptance, hull, imaginary, real_line, weierstrass
from loewner.errors import NumericalError


def _task_fails(task) -> bool:
    return bool(run._run_task(task, None).failures)


def _fixed(output, check):
    return W.Task("fixed", lambda: output, check)


@pytest.fixture(scope="module")
def weld_case():
    b, N, c = 9.0, 2, 0.3
    out = weierstrass.quasislit_pipeline(
        weierstrass.WeierstrassParams(b=b, N=N, c=c), T=W.WELD_T, dt=W.WELD_DT,
        compute_ratio_bound=True,
    )
    return b, N, c, out


def _weld_variant(out, **changes):
    wrong = copy.deepcopy(out)
    table = changes.pop("table", None)
    if table:
        wrong.welding_table = dataclasses.replace(wrong.welding_table, **table)
    for k, v in changes.items():
        setattr(wrong, k, v)
    return wrong


def test_weld_check(weld_case):
    b, N, c, out = weld_case
    check = lambda o: W.check_weld(b, N, c, o)
    assert not _task_fails(_fixed(out, check))
    wt = out.welding_table
    swapped = wt.left.copy()
    swapped[[2, 3]] = swapped[[3, 2]]
    wrong = [
        _weld_variant(out, simple=False),
        _weld_variant(out, ratio1_contained=False),
        _weld_variant(out, a_bound=out.a_bound * (1 + 1e-9)),
        _weld_variant(out, table={"lambda_T": wt.lambda_T + 1e-6}),
        _weld_variant(out, table={"left": swapped}),
        _weld_variant(out, table={"right": wt.right - 10.0}),
        _weld_variant(out, welding_table=None),
    ]
    for w in wrong:
        assert _task_fails(_fixed(w, check))


def test_zero_trace_check():
    curve = hull.trace(DrivingSpec("constant", {"value": 0.0}, 1.0), 1.0, 1e-2)
    assert not _task_fails(_fixed(curve, W.check_zero_trace))
    bad = copy.deepcopy(curve)
    bad.points[5] += 1e-5
    assert _task_fails(_fixed(bad, W.check_zero_trace))


def test_ray_trace_check():
    alpha, n = 0.3, 1000
    curve = hull.trace(W.ray_spec(alpha, n), 1.0, 1.0 / n)
    check = lambda o: W.check_ray_trace(alpha, 1.0 / n, o)
    assert not _task_fails(_fixed(curve, check))
    rotated = copy.deepcopy(curve)
    rotated.points = rotated.points * np.exp(0.01j)
    mirrored = copy.deepcopy(curve)
    mirrored.points = -np.conj(mirrored.points)
    broken = copy.deepcopy(curve)
    broken.points[-1] = np.nan
    for w in (rotated, mirrored, broken):
        assert _task_fails(_fixed(w, check))


def test_simplicity_checks():
    rep = hull.SimplicityReport(simple=True, min_separation=0.01, pair=(0, 9), refinement_scale=1e-3)
    assert not _task_fails(_fixed(rep, W.check_simple))
    assert not _task_fails(_fixed(rep, W.check_brownian_simplicity))
    flagged = dataclasses.replace(rep, simple=False, touch_pair=(3, 40))
    assert _task_fails(_fixed(flagged, W.check_simple))
    for bad in (dataclasses.replace(rep, min_separation=np.nan),
                dataclasses.replace(rep, refinement_scale=0.0)):
        assert _task_fails(_fixed(bad, W.check_brownian_simplicity))


def test_brownian_trace_check():
    spec = DrivingSpec("brownian", {"kappa": 2.0}, 1.0, seed=3)
    curve = hull.trace(spec, 1.0, 1e-2)
    assert not _task_fails(_fixed(curve, W.check_brownian_trace))
    below = copy.deepcopy(curve)
    below.points[7] = below.points[7].real - 1e-9j
    shifted = copy.deepcopy(curve)
    shifted.points = shifted.points + 0.1
    broken = copy.deepcopy(curve)
    broken.points[3] = np.inf
    for w in (below, shifted, broken):
        assert _task_fails(_fixed(w, W.check_brownian_trace))


def test_scan_check():
    c = 5.0
    scan = real_line.capture_scan(W.sqrt_spec(c), 1.0, mirrored=False)
    check = lambda o: W.check_scan(c, o)
    assert not _task_fails(_fixed(scan, check))
    lo, hi = scan.interval
    for interval in ((lo, hi + 2e-3), (lo, hi - 2e-3), (0.01, hi), None):
        assert _task_fails(_fixed(dataclasses.replace(scan, interval=interval), check))
    empty = real_line.capture_scan(W.sqrt_spec(3.0), 1.0, mirrored=False)
    assert not _task_fails(_fixed(empty, lambda o: W.check_scan(3.0, o)))
    assert _task_fails(_fixed(dataclasses.replace(empty, interval=(1e-6, 1.0)),
                              lambda o: W.check_scan(3.0, o)))


@pytest.mark.parametrize("C", [1.5, 2.5])
def test_gap_check(C):
    res = imaginary.classify_sqrt_gap(C, 1.0)
    assert not _task_fails(_fixed(res, lambda o: W.check_gap(C, o)))
    flipped = dataclasses.replace(res, status="not_vanishing" if C < 2 else "vanishing")
    assert _task_fails(_fixed(flipped, lambda o: W.check_gap(C, o)))


def test_criteria_check():
    ok = [acceptance.CriterionResult(n, name, True, "", 0.1) for n, name, _ in acceptance.CRITERIA]
    assert not any(W.check_criteria(ok))
    failed = list(ok)
    failed[2] = dataclasses.replace(ok[2], passed=False, detail="endpoint shifted")
    assert [bool(f) for f in W.check_criteria(failed)] == [i == 2 for i in range(12)]
    assert W.check_criteria(ok[:-1])[-1]


def test_raising_task_and_raising_check_fail():
    def boom():
        raise ValueError("no")

    assert _task_fails(W.Task("raises", boom, lambda o: []))
    assert _task_fails(W.Task("check raises", lambda: None, lambda o: o.missing))


def test_batches_are_seeded_and_fixed_in_mix():
    for name in ("weld", "zipper", "capture"):
        a, b, c = W.build(name, 1), W.build(name, 1), W.build(name, 2)
        assert [t.name for t in a] == [t.name for t in c]
        assert [t.info for t in a] == [t.info for t in b]
        assert [t.info for t in a] != [t.info for t in c]
    assert W.build("verify", 1) == []


def test_weld_grid_is_inside_the_margins():
    lo, hi = W.WELD_C_RANGE
    assert len(W.WELD_C_GRID) == 16 and all(lo < c < hi for c in W.WELD_C_GRID)
    for a, b in ((t.info, u.info) for t, u in zip(W.build("weld", 1), W.build("weld", 2))):
        assert a["c"] in W.WELD_C_GRID and b["c"] in W.WELD_C_GRID


@pytest.mark.xfail(raises=NumericalError, strict=True,
                   reason="known defect: the welding collision guard fires on a rejected trial stage")
def test_welding_of_a_simple_weierstrass_curve():
    """The curve is simple by theorem (inside both hypothesis margins), yet
    hull.welding raises a collision for this amplitude; see WELD_C_GRID."""
    spec = weierstrass.WeierstrassParams(b=9.0, N=3, c=0.28403724793324314).spec(1.0)
    hull.welding(spec, 1.0, np.linspace(0.05, 0.9, 12), dt=W.WELD_DT, check_simple=False)
