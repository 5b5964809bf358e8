"""The benchmark's workloads: seeded task batches and their oracle checks.

Each workload builds a fixed batch of tasks from the workload seed.  The seed
varies amplitudes, Brownian paths and angles, never the task mix, so the cost
of a batch stays comparable across seeds.  Every task calls the public
library API once and is checked by a function of this module that compares
the output with a closed form, a theorem, or a frozen acceptance oracle, never
with another code path of the library.

A check returns a list of failure messages; an empty list means the output is
correct.  Checks are module-level functions so the benchmark's own tests can
feed them deliberately wrong outputs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from loewner import DrivingSpec, acceptance, hull, imaginary, real_line, weierstrass

WORKLOADS = ("weld", "zipper", "capture", "verify")

# A run repeats the batch floor(seconds / NOMINAL_BATCH_S) times, at least
# once, so the work in a run is set by --seconds alone and a change and its
# parent do the same work.  At --seconds 20 that is 3 batches of weld, zipper
# and capture and 2 of verify, 12 to 28 s of batches on the reference machine
# (2 cores, x86-64, Python 3.11, numpy 2.4, scipy 1.17), whose speed varies by
# up to 40 % from minute to minute.  Batches are kept small enough for
# repetitions, so that per-task medians can drop the machine's slow spells
# (run.batch_time); verify's fixed 12 criteria allow only two.
NOMINAL_BATCH_S = {"weld": 6.0, "zipper": 6.0, "capture": 6.0, "verify": 7.0}


@dataclass
class Task:
    """One call into the library with the check that judges its output."""

    name: str
    run: Callable[[], Any]
    check: Callable[[Any], list]
    info: dict = field(default_factory=dict)


@dataclass
class TaskResult:
    name: str
    seconds: float
    check_seconds: float
    failures: list
    info: dict = field(default_factory=dict)


def _rng(seed: int, workload: str) -> np.random.Generator:
    return np.random.default_rng([seed, WORKLOADS.index(workload)])


def _stratified(rng: np.random.Generator, lo: float, hi: float, k: int) -> list:
    """k seeded values, one in each of k equal parts of (lo, hi).

    Spreading the draws keeps the batch cost nearly independent of the seed
    where a task's cost depends on its parameter.
    """
    return [float(v) for v in lo + (np.arange(k) + rng.uniform(size=k)) * (hi - lo) / k]


# ---------------------------------------------------------------------------
# weld: Weierstrass quasislit pipeline with welding and the ratio bound
# ---------------------------------------------------------------------------

WELD_MIX = ((9.0, 2), (9.0, 3), (16.0, 2), (16.0, 3))
WELD_C_RANGE = (0.2, 0.5)  # inside both hypothesis margins for b in {9, 16}
WELD_T = 1.0
WELD_DT = 2e-3
# Amplitudes are drawn from the midpoints of 16 equal parts of WELD_C_RANGE,
# not from the continuous range: for isolated amplitudes (b = 9, N = 3,
# c = 0.284037... at this dt; b = 9, N = 2, c = 0.34262 at dt = 1e-3)
# hull.welding raises a collision on a curve that is simple by theorem, because
# its collision guard fires on a trial stage of a step the integrator would
# reject.  Every (b, N, c) of this grid ran clean at WELD_DT; the defect is kept
# visible by an expected-failure test in tests/test_checks.py.
WELD_C_GRID = tuple(
    round(WELD_C_RANGE[0] + (WELD_C_RANGE[1] - WELD_C_RANGE[0]) * (k + 0.5) / 16, 6)
    for k in range(16)
)


def weierstrass_lambda_T(b: float, N: int, c: float, T: float) -> float:
    """Normalised c W_b^N(T) - c W_b^N(0), summed term by term."""
    return c * sum((np.cos(b**n * T) - 1.0) * b ** (-n / 2.0) for n in range(1, N + 1))


def weierstrass_bounds(b: float, c: float) -> tuple[float, float]:
    """(liminf-side bound a, norm-side bound) from their closed forms."""
    sb = np.sqrt(b)
    sp = np.sqrt(np.pi)
    a = c * (sp + 1.0 / sp) * np.sqrt(2.0) / (sb - 1.0)
    norm = c * (b / (sb - 1.0) + 2.0 / (1.0 - 1.0 / sb))
    return a, norm


def check_weld(b: float, N: int, c: float, out) -> list:
    fails = []
    a, norm = weierstrass_bounds(b, c)
    if abs(out.a_bound - a) > 1e-12 * a or abs(out.b_bound - norm) > 1e-12 * norm:
        fails.append(f"margin bounds {out.a_bound}, {out.b_bound} != closed forms {a}, {norm}")
    if out.simple is not True:
        fails.append("verdict is not simple inside the hypothesis margins")
    wt = out.welding_table
    if wt is None:
        return fails + ["no welding table"]
    lam_T = weierstrass_lambda_T(b, N, c, WELD_T)
    if abs(wt.lambda_T - lam_T) > 1e-12 * max(1.0, abs(lam_T)):
        fails.append(f"lambda(T) = {wt.lambda_T} != closed form {lam_T}")
    left, right = np.asarray(wt.left), np.asarray(wt.right)
    if not (np.all(left < lam_T) and np.all(right > lam_T)):
        fails.append("prime ends do not straddle lambda(T)")
    if not (np.all(np.diff(left) > 0) and np.all(np.diff(right) < 0)):
        fails.append("prime ends are not monotone in s")
    if out.ratio1_contained is not True:
        fails.append("ratio1 leaves the barrier bound M0")
    return fails


def _weld(seed: int) -> list:
    rng = _rng(seed, "weld")
    tasks = []
    for b, N in WELD_MIX:
        c = WELD_C_GRID[int(rng.integers(len(WELD_C_GRID)))]
        p = weierstrass.WeierstrassParams(b=b, N=N, c=c)
        tasks.append(Task(
            name=f"pipeline-b{b:g}-N{N}",
            run=lambda p=p: weierstrass.quasislit_pipeline(
                p, T=WELD_T, dt=WELD_DT, compute_ratio_bound=True
            ),
            check=lambda out, b=b, N=N, c=c: check_weld(b, N, c, out),
            info={"b": b, "N": N, "c": c},
        ))
    return tasks


# ---------------------------------------------------------------------------
# zipper: trace composition and the simplicity check at n ~ 1k, 2k, 4k cells
# ---------------------------------------------------------------------------

ZIPPER_CELLS = (1000, 2000, 4000)
ZIPPER_KAPPAS = (1.0, 2.0, 3.0)
# At n = 4000 one simplicity check takes a fifth of the batch, so only the
# kappa = 2 path of the recorded baseline is checked there.
SIMPLICITY_4K_KAPPA = 2.0
RAY_ALPHA_RANGE = (0.15, 0.45)
# Past t = RAY_T_MIN the distance of the sampled c sqrt(t) trace from its ray
# is O(dt); its constant measured at most 3.8 over alpha in [0.1, 0.49].
RAY_T_MIN = 0.01
RAY_DIST_PER_DT = 8.0
ZERO_TOL = 1e-6


def ray_constant(alpha: float) -> float:
    """c with lambda = c sqrt(t) tracing the straight ray at angle alpha pi."""
    return 2.0 * (1.0 - 2.0 * alpha) / np.sqrt(alpha * (1.0 - alpha))


def ray_spec(alpha: float, n: int) -> DrivingSpec:
    times = np.linspace(0.0, 1.0, 2 * n + 1)
    values = ray_constant(alpha) * np.sqrt(times)
    return DrivingSpec("sampled", {"times": times, "values": values}, 1.0)


def check_zero_trace(curve) -> list:
    err = float(np.max(np.abs(curve.points - 2j * np.sqrt(curve.times))))
    return [] if err <= ZERO_TOL else [f"|gamma - 2i sqrt(t)| = {err:.2e} > {ZERO_TOL}"]


def check_ray_trace(alpha: float, dt: float, curve) -> list:
    pts = np.asarray(curve.points)
    if not np.all(np.isfinite(pts)):
        return ["non-finite trace points"]
    late = np.asarray(curve.times) >= RAY_T_MIN
    rot = pts[late] * np.exp(-1j * np.pi * alpha)
    dist = float(np.max(np.abs(rot.imag)))
    fails = []
    if dist > RAY_DIST_PER_DT * dt:
        fails.append(f"distance from the ray {dist:.2e} > {RAY_DIST_PER_DT} dt")
    if np.any(rot.real <= 0):
        fails.append("trace points on the wrong side of the origin")
    return fails


def check_simple(report) -> list:
    return [] if report.simple else [f"straight ray reported not simple (pair {report.touch_pair})"]


def check_brownian_trace(curve) -> list:
    pts = np.asarray(curve.points)
    if not np.all(np.isfinite(pts)):
        return ["non-finite trace points"]
    fails = []
    if np.any(pts.imag < 0):
        fails.append("trace leaves the closed upper half-plane")
    if pts[0] != 0:
        fails.append(f"trace starts at {pts[0]}, not at lambda(0) = 0")
    return fails


def check_brownian_simplicity(report) -> list:
    """Sanity of the report; the verdict itself is recorded, not judged.

    SLE with kappa <= 4 is simple, but at these cell counts the diagnostic
    flags a near-return as touching for some kappa = 2 and kappa = 3 paths,
    so the verdict is counted (``hull.simplicity.flagged``) rather than
    failed; see the benchmark README.
    """
    sep, scale = report.min_separation, report.refinement_scale
    if not (np.isfinite(sep) and sep > 0 and np.isfinite(scale) and scale > 0):
        return [f"degenerate report: separation {sep}, refinement scale {scale}"]
    return []


def _zipper(seed: int) -> list:
    rng = _rng(seed, "zipper")
    zero = DrivingSpec("constant", {"value": 0.0}, 1.0)
    tasks = []
    for n in ZIPPER_CELLS:
        dt = 1.0 / n
        tasks.append(Task(
            name=f"zero-trace-n{n}",
            run=lambda dt=dt: hull.trace(zero, 1.0, dt),
            check=check_zero_trace,
            info={"n": n},
        ))
        alpha = float(rng.uniform(*RAY_ALPHA_RANGE))
        spec = ray_spec(alpha, n)
        tasks.append(Task(
            name=f"ray-trace-n{n}",
            run=lambda spec=spec, dt=dt: hull.trace(spec, 1.0, dt),
            check=lambda out, alpha=alpha, dt=dt: check_ray_trace(alpha, dt, out),
            info={"n": n, "alpha": alpha},
        ))
        if n < ZIPPER_CELLS[-1]:  # at n = 4000 the ray check would add a fifth to the batch
            tasks.append(Task(
                name=f"ray-simplicity-n{n}",
                run=lambda spec=spec, dt=dt: hull.simplicity_diagnostic(spec, 1.0, dt),
                check=check_simple,
                info={"n": n, "alpha": alpha},
            ))
    # kappa-major order spreads tasks of one size over the batch, so a slow
    # spell of the machine does not fall on all of them
    for kappa in ZIPPER_KAPPAS:
        for n in ZIPPER_CELLS:
            dt = 1.0 / n
            path_seed = int(rng.integers(2**31))
            spec = DrivingSpec("brownian", {"kappa": kappa}, 1.0, seed=path_seed)
            info = {"n": n, "kappa": kappa, "path_seed": path_seed}
            tasks.append(Task(
                name=f"brownian-trace-k{kappa:g}-n{n}",
                run=lambda spec=spec, dt=dt: hull.trace(spec, 1.0, dt),
                check=check_brownian_trace,
                info=info,
            ))
            if n == ZIPPER_CELLS[-1] and kappa != SIMPLICITY_4K_KAPPA:
                continue
            tasks.append(Task(
                name=f"brownian-simplicity-k{kappa:g}-n{n}",
                run=lambda spec=spec, dt=dt: hull.simplicity_diagnostic(spec, 1.0, dt),
                check=check_brownian_simplicity,
                info=info,
            ))
    return tasks


# ---------------------------------------------------------------------------
# capture: frame-equation scans and the imaginary vanishing transition
# ---------------------------------------------------------------------------

CAPTURE_C_RANGE = (4.2, 6.5)
EMPTY_C_RANGE = (2.5, 3.9)
VANISH_C_RANGE = (0.2, 1.9)
KEEP_C_RANGE = (2.1, 3.5)
REFERENCE_C = 5.0  # the one-sided c = 5 scan of the recorded baseline
ENDPOINT_TOL = 1e-3


def capture_endpoint(c: float) -> float:
    """Phase-line oracle: the stationary point (c + sqrt(c^2 - 16)) / 2."""
    return (c + np.sqrt(c * c - 16.0)) / 2.0


def sqrt_spec(c: float) -> DrivingSpec:
    return DrivingSpec("sqrt_approach", {"c": c}, 1.0)


def check_scan(c: float, scan) -> list:
    if c < 4.0:
        return [] if scan.interval is None else [f"c={c:.4f} < 4 captured {scan.interval}"]
    if scan.interval is None:
        return [f"c={c:.4f} >= 4 captured nothing"]
    lo, hi = scan.interval
    fails = []
    err = abs(hi - capture_endpoint(c))
    if err > ENDPOINT_TOL:
        fails.append(f"upper endpoint error {err:.2e} > {ENDPOINT_TOL}")
    if not 0.0 < lo <= ENDPOINT_TOL:
        fails.append(f"lower endpoint {lo} is not in (0, {ENDPOINT_TOL}]")
    return fails


def check_gap(C: float, result) -> list:
    want = C < 2.0
    got = result.status == "vanishing"
    return [] if got == want else [f"C={C:.4f} classified {result.status!r}"]


def _capture(seed: int) -> list:
    rng = _rng(seed, "capture")
    # captured scans are more than half of the batch, so the task median and
    # tail fall on scans rather than on the millisecond-scale tasks
    cs = [REFERENCE_C] + _stratified(rng, *CAPTURE_C_RANGE, 6) + _stratified(rng, *EMPTY_C_RANGE, 2)
    tasks = []
    for i, c in enumerate(cs):
        spec = sqrt_spec(c)
        label = "c5-reference" if i == 0 else ("captured" if c >= 4.0 else "empty")
        tasks.append(Task(
            name=f"scan-{label}",
            run=lambda spec=spec: real_line.capture_scan(spec, 1.0, mirrored=False),
            check=lambda out, c=c: check_scan(c, out),
            info={"c": c},
        ))
    Cs = _stratified(rng, *VANISH_C_RANGE, 1) + _stratified(rng, *KEEP_C_RANGE, 1)
    for C in Cs:
        tasks.append(Task(
            name=f"sqrt-gap-{'vanish' if C < 2.0 else 'keep'}",
            run=lambda C=C: imaginary.classify_sqrt_gap(C, 1.0),
            check=lambda out, C=C: check_gap(C, out),
            info={"C": C},
        ))
    return tasks


# ---------------------------------------------------------------------------
# verify: the 12 acceptance criteria through acceptance.run_all()
# ---------------------------------------------------------------------------


def check_criteria(results) -> list:
    """One failure list per criterion number 1..12, in order."""
    by_number = {r.number: r for r in results}
    out = []
    for number, name, _ in acceptance.CRITERIA:
        r = by_number.get(number)
        if r is None:
            out.append([f"criterion {number} ({name}) missing from run_all()"])
        else:
            out.append([] if r.passed else [f"criterion {number} failed: {r.detail}"])
    return out


# ---------------------------------------------------------------------------
# batches
# ---------------------------------------------------------------------------

_BATCHES = {"weld": _weld, "zipper": _zipper, "capture": _capture}


def build(workload: str, seed: int) -> list:
    """The workload's batch: the tasks it runs, in order (verify has none)."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    return _BATCHES[workload](seed) if workload in _BATCHES else []
