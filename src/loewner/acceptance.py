"""Quantitative acceptance suite.

Each criterion is a callable returning ``(passed, detail)``; :func:`run_one`
times it and names it by its slug in :data:`CRITERIA`, and the pytest module
and the ``loewner verify`` subcommand both run the criteria through it.
Expected values are frozen from independent oracles: closed forms where
they exist, phase-line root analysis for the capture intervals, geometric
series for the Weierstrass sums, and the explicit ramp solution for the
vanishing transition.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .driving import DrivingSpec
from .errors import ConfigError, PreconditionError
from .hull import (
    _refined_points,
    capacity_estimate,
    endpoint_experiment,
    forward_map_grid,
    trace,
    welding,
)
from .imaginary import (
    classify_sqrt_gap,
    gap_duality_check,
    growth_floor,
    ramp_ode_terminal,
    solve_frame_imaginary,
)
from .real_line import FrameMap, capture_scan, reconstruct_captured_pair
from .sharp import SharpOscillation
from .weierstrass import WeierstrassParams, norm_bound_check, offset_ratio_check

__all__ = ["CriterionResult", "CRITERIA", "run_all", "run_one"]


@dataclass
class CriterionResult:
    number: int
    name: str
    passed: bool
    detail: str
    seconds: float

    def line(self) -> str:
        """The PASS/FAIL line that ``loewner verify`` prints."""
        mark = "PASS" if self.passed else "FAIL"
        return f"[{mark}] {self.number:2d} {self.name}: {self.detail} ({self.seconds:.1f}s)"


# -- 1 -----------------------------------------------------------------------


def criterion_forward_map() -> tuple[bool, str]:
    """Closed-form forward map for the trivial driving."""
    spec = DrivingSpec("constant", {"value": 0.0}, 1.0)
    ts = np.array([0.25, 0.5, 1.0])
    xs = np.linspace(-3.0, 3.0, 28)
    ys = np.linspace(0.05, 3.0, 12)
    zs = np.array(
        [x + 1j * y for x in xs for y in ys if abs(x) > 0.15 or y > 2.0 + 0.15]
    )[:334]
    g = forward_map_grid(spec, ts, zs)
    worst = 0.0
    n_pts = 0
    for i, t in enumerate(ts):
        ref = np.sqrt(zs**2 + 4.0 * t)
        ref = np.where(ref.imag < 0, -ref, ref)
        worst = max(worst, float(np.max(np.abs(g[i] - ref))))
        n_pts += zs.size
    return worst <= 1e-7, f"max |g - sqrt(z^2+4t)| = {worst:.2e} over {n_pts} points (tol 1e-7)"


# -- 2 -----------------------------------------------------------------------


def criterion_capacity() -> tuple[bool, str]:
    """Capacity normalisation c(t) = 2t across the driving zoo."""
    zoo = [
        DrivingSpec("sqrt_approach", {"c": 2.0}, 1.0),
        DrivingSpec("weierstrass_partial", {"c": 0.3, "b": 9.0, "N": 4}, 1.0, normalize=True),
        DrivingSpec("brownian", {"kappa": 1.0}, 1.0, normalize=True, seed=11),
    ]
    worst_rel = 0.0
    for spec in zoo:
        for t in (0.25, 0.5, 1.0):
            est, _ = capacity_estimate(spec, t, 250.0)
            worst_rel = max(worst_rel, abs(est - 2.0 * t) / (2.0 * t))
    return worst_rel <= 0.01, f"worst relative capacity error {worst_rel:.2e} (tol 1%)"


# -- 3 -----------------------------------------------------------------------

# Phase-line oracle for the frame equation dx/ds = x - 4/(c - x) with a
# constant driving c: stationary points are the roots of x^2 - c x + 4.
# For c < 4 there is no real root and every solution escapes; for c >= 4
# initial values in [x_minus, c) stay bounded, so the captured set of the
# original equation is (0, (c + sqrt(c^2 - 16))/2].  Frozen endpoints:
#   c = 4 -> 2.0,  c = 5 -> 4.0,  c = 6 -> 3 + sqrt(5) = 5.23606797749979.
_CAPTURE_ENDPOINTS = {4.0: 2.0, 5.0: 4.0, 6.0: 5.23606797749979}


def criterion_capture_transition() -> tuple[bool, str]:
    details = []
    ok = True
    for c in (3.0, 3.9):
        scan = capture_scan(DrivingSpec("sqrt_approach", {"c": c}, 1.0), 1.0, mirrored=False)
        empty = scan.interval is None
        ok &= empty
        details.append(f"c={c}: {'empty' if empty else scan.interval}")
    for c, endpoint in _CAPTURE_ENDPOINTS.items():
        oracle = (c + np.sqrt(c * c - 16.0)) / 2.0
        assert abs(oracle - endpoint) < 1e-12
        scan = capture_scan(DrivingSpec("sqrt_approach", {"c": c}, 1.0), 1.0, mirrored=False)
        err = np.inf if scan.interval is None else abs(scan.interval[1] - endpoint)
        ok &= err <= 1e-3
        details.append(f"c={c}: endpoint err {err:.1e}")
    return ok, "; ".join(details) + " (tol 1e-3)"


# -- 4 -----------------------------------------------------------------------


def criterion_reconstruction() -> tuple[bool, str]:
    """Round trip density -> captured pair, 20 randomized mixtures."""
    rng = np.random.default_rng(42)
    worst_res = 0.0
    worst_term = 0.0
    for _ in range(20):
        k = int(rng.integers(1, 4))
        A = rng.uniform(0.2, 2.0, size=k)
        beta = rng.uniform(1.0, 1.8, size=k)

        def phi(s, A=A, beta=beta):
            s = np.asarray(s, dtype=float)
            return np.exp(-np.multiply.outer(s, beta)) @ A

        rec = reconstruct_captured_pair(phi, FrameMap(T=1.0, lambda_T=1.0))
        worst_res = max(worst_res, rec.residual)
        worst_term = max(worst_term, rec.terminal_gap)
    ok = worst_res <= 1e-6 and worst_term <= 1e-6
    return ok, f"max residual {worst_res:.2e}, max terminal gap {worst_term:.2e} (tol 1e-6)"


# -- 5 -----------------------------------------------------------------------


def criterion_sharp_oscillation() -> tuple[bool, str]:
    rep15 = SharpOscillation(1.5).band_report()
    rep30 = SharpOscillation(3.0).band_report()
    ok = (
        1.45 <= rep15["running_min"] <= 1.55
        and 4.0 <= rep15["running_max"] <= 4.35
        and 3.9 <= rep30["running_max"] <= 4.1
    )
    return ok, (
        f"a=1.5: min {rep15['running_min']:.4f} in [1.45,1.55], "
        f"max {rep15['running_max']:.4f} in [4.0,4.35]; "
        f"a=3: max {rep30['running_max']:.4f} in [3.9,4.1]"
    )


# -- 6 -----------------------------------------------------------------------


def criterion_imaginary_transition() -> tuple[bool, str]:
    ok = True
    details = []
    for C in (0.0, 1.0, 1.9, 2.0, 2.1, 3.0):
        r = classify_sqrt_gap(C, 1.0)
        want_vanish = C < 2.0
        got_vanish = r.status == "vanishing"
        run_agrees = (r.run.status == "vanishing") == want_vanish
        ok &= (got_vanish == want_vanish) and run_agrees
        details.append(f"C={C}:{r.status[:4]}")
    ramp_err = abs(ramp_ode_terminal(2.0, 1e-6, 1.0) - np.sqrt(2.0))
    ok &= ramp_err <= 0.02
    details.append(f"ramp limit err {ramp_err:.1e} (tol 0.02)")
    return ok, "; ".join(details)


# -- 7 -----------------------------------------------------------------------


def criterion_growth_floor() -> tuple[bool, str]:
    e_low = lambda s: np.sqrt(2.0) + 0.0 * np.asarray(s)
    e_bd = lambda s: 2.0 + 0.0 * np.asarray(s)
    _, cls_low = solve_frame_imaginary(e_low, np.sqrt(2.0))
    _, cls_bd = solve_frame_imaginary(e_bd, 0.5)
    L_low = growth_floor(e_low, 7.0)
    L_bd = growth_floor(e_bd, 7.0)
    ok = (
        cls_low.status == "vanishing"
        and cls_bd.status == "not_vanishing_certified"
        and abs(L_low.value - (-7.0)) <= 1e-8
        and abs(L_bd.value) <= 1e-8
    )
    return ok, (
        f"sqrt(2): {cls_low.status}, L+S = {L_low.value + 7.0:.1e}; "
        f"2: {cls_bd.status}, L = {L_bd.value:.1e} (tol 1e-8)"
    )


# -- 8 -----------------------------------------------------------------------


def criterion_gap_duality() -> tuple[bool, str]:
    tg = np.linspace(0.0, 8.0, 9)
    # the constant pairs (xi, x_hat) = (5, 4) and (4, 2) have the gaps 1 and 2
    d1 = gap_duality_check(lambda s: 5.0 + 0.0 * np.asarray(s), lambda s: 1.0, tg)
    d2 = gap_duality_check(lambda s: 4.0 + 0.0 * np.asarray(s), lambda s: 2.0, tg)
    osc = SharpOscillation(1.5)
    tg3 = np.linspace(0.0, 40.0, 21)
    d3 = gap_duality_check(osc.xi, osc.gap, tg3, domain_end=osc.horizon)
    ok = d1.max_deviation <= 1e-10 and d2.max_deviation <= 1e-10 and d3.max_deviation <= 1e-4
    return ok, (
        f"constant pairs {max(d1.max_deviation, d2.max_deviation):.1e} (tol 1e-10); "
        f"sharp pair {d3.max_deviation:.1e} (tol 1e-4)"
    )


# -- 9 -----------------------------------------------------------------------


def criterion_trace_fidelity() -> tuple[bool, str]:
    zero = DrivingSpec("constant", {"value": 0.0}, 1.0)
    c = trace(zero, 1.0, 1e-3)
    err0 = float(np.max(np.abs(c.points - 2j * np.sqrt(c.times))))
    ok = err0 <= 1e-6
    details = [f"trivial driving err {err0:.1e} (tol 1e-6)"]
    # displacement is measured past the first ten coarse cells: the startup
    # points carry an O(sqrt(dt)) imprint of the tip seed whose ratio
    # between refinements is noisy even though each point converges
    for spec, label in (
        (DrivingSpec("sqrt_approach", {"c": 3.0}, 1.0), "sqrt(3)"),
        (DrivingSpec("weierstrass_partial", {"c": 0.05, "b": 100.0, "N": 4}, 1.0, normalize=True), "weier"),
    ):
        dts = (1e-3, 5e-4, 2.5e-4)
        curves = [trace(spec, 1.0, dt) for dt in dts[:2]]
        # the finest trace is read at the times of the middle one only
        w = _refined_points(spec, 1.0, dts[1], curves[1].times[1:])
        halved = [curves[1].points[::2], np.concatenate([[complex(spec(0.0))], w])]
        t_min = 10.0 * max(dts)
        ds = []
        for coarse, fine in zip(curves, halved):
            mask = coarse.times >= t_min
            ds.append(float(np.max(np.abs(coarse.points - fine)[mask])))
        factor = ds[0] / ds[1]
        ok &= factor >= 1.3
        details.append(f"{label} self-convergence factor {factor:.2f} (>= 1.3)")
    return ok, "; ".join(details)


# -- 10 ----------------------------------------------------------------------


def criterion_welding_symmetry() -> tuple[bool, str]:
    zero = DrivingSpec("constant", {"value": 0.0}, 1.0)
    wt = welding(zero, 1.0, np.linspace(0.05, 0.9, 18), dt=1e-3, check_simple=False)
    odd = float(np.max(np.abs(wt.left + wt.right)))
    r1 = max(abs(wt.ratio1_range[0] - 1.0), abs(wt.ratio1_range[1] - 1.0))
    r2 = max(abs(wt.ratio2_range[0] - 1.0), abs(wt.ratio2_range[1] - 1.0))
    ok = odd <= 1e-6 and r1 <= 1e-6 and r2 <= 1e-6
    return ok, f"|phi(x)+x| = {odd:.1e}, |ratio1-1| = {r1:.1e}, |ratio2-1| = {r2:.1e} (tol 1e-6)"


# -- 11 ----------------------------------------------------------------------


def criterion_weierstrass_bounds() -> tuple[bool, str]:
    worst_norm = 0.0
    worst_offset = 0.0
    for b in (9.0, 16.0, 25.0, 100.0):
        for N in (1, 2, 4, 8):
            p = WeierstrassParams(b=b, N=N, c=1.0)
            rn = norm_bound_check(p)
            ro = offset_ratio_check(p, 1.0, range(2, 9))
            worst_norm = max(worst_norm, rn.ratio)
            worst_offset = max(worst_offset, ro.max_ratio / ro.bound)
    ok = worst_norm < 1.0 and worst_offset < 1.0
    return ok, f"worst norm ratio {worst_norm:.3f}, worst offset ratio {worst_offset:.3f} (< 1)"


# -- 12 ----------------------------------------------------------------------


def criterion_endpoint_experiment() -> tuple[bool, str]:
    ee = endpoint_experiment(DrivingSpec("sqrt_approach", {"c": 5.5}, 1.0), 1.0, dt=2e-3)
    neg_ok = False
    try:
        endpoint_experiment(DrivingSpec("sqrt_approach", {"c": 3.0}, 1.0), 1.0)
    except PreconditionError:
        neg_ok = True
    ok = ee.decreasing and ee.band_ok and neg_ok
    return ok, (
        f"endpoint stats {np.array2string(ee.endpoint_stats, precision=4)} decreasing={ee.decreasing}; "
        f"gap band min {ee.band_min_observed:.4f} >= {ee.band_floor:.4f}; "
        f"negative control {'raised' if neg_ok else 'MISSED'}"
    )


CRITERIA: list[tuple[int, str, Callable[[], tuple[bool, str]]]] = [
    (1, "forward-map", criterion_forward_map),
    (2, "capacity", criterion_capacity),
    (3, "capture-transition", criterion_capture_transition),
    (4, "reconstruction", criterion_reconstruction),
    (5, "sharp-oscillation", criterion_sharp_oscillation),
    (6, "imaginary-transition", criterion_imaginary_transition),
    (7, "growth-floor", criterion_growth_floor),
    (8, "gap-duality", criterion_gap_duality),
    (9, "trace-fidelity", criterion_trace_fidelity),
    (10, "welding", criterion_welding_symmetry),
    (11, "weierstrass-bounds", criterion_weierstrass_bounds),
    (12, "endpoint-experiment", criterion_endpoint_experiment),
]


def run_one(number: int) -> CriterionResult:
    """Run criterion ``number``, timed and named by its slug; an unknown number
    is a usage error."""
    for n, name, fn in CRITERIA:
        if n == number:
            t0 = time.perf_counter()
            passed, detail = fn()
            return CriterionResult(n, name, bool(passed), detail, time.perf_counter() - t0)
    raise ConfigError(f"no acceptance criterion {number}: the criteria are numbered 1-{len(CRITERIA)}")


def run_all() -> list[CriterionResult]:
    return [run_one(n) for n, _, _ in CRITERIA]
