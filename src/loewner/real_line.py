"""Real Loewner equation and the square-root capture frame.

The real Loewner equation dX/dt = 2/(X - lambda(t)) captures the initial
point X0 at time T when X - lambda reaches zero exactly at T.  Rescaling by
the remaining square root and changing to logarithmic time,

    x(s) = (lambda(T) - X(t)) / sqrt(T - t),   t = T (1 - e^{-2s}),

turns capture at T into global existence of a positive solution of

    dx/ds = x - 4 / (xi - x),        xi(s) = (lambda(T) - lambda(t)) / sqrt(T - t),

so the infinite-time frame equation is what all capture machinery runs on.
Captured solutions correspond one-to-one with positive decay densities phi
(phi in L^1, phi > 0, e^{2s} phi -> infinity) through

    x = Phi = e^s * integral_s^inf phi,    xi = Phi + 4 / (Phi - dPhi/ds),

and that correspondence powers the reconstruction round trip below.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from scipy import integrate as sp_integrate

from .driving import (
    DrivingSpec,
    _inverse_frame,
    default_scale_ladder,
    local_scaling_exponents,
)
from .errors import (
    DomainError,
    NumericalError,
    PreconditionError,
    ReconstructionError,
)
from .ode import SINGULARITY_FLOOR, IntegratorConfig, SolutionPath, _Stepper, integrate_until
from .sharp import SharpOscillation

__all__ = [
    "FrameMap",
    "CaptureReport",
    "solve_real_loewner",
    "frame_for",
    "from_frame_driving",
    "solve_frame_equation",
    "density_flags",
    "tail_integral",
    "profile_from_density",
    "driving_from_profile",
    "reconstruct_captured_pair",
    "no_capture_certificate",
    "capture_scan",
    "scaling_bound_diagnostic",
    "sharp_oscillation",
    "speed_condition_report",
]

# transformed-time horizon at which a bounded positive frame solution is
# certified captured (original time then sits within e^{-2s} of T)
CAPTURE_HORIZON_S = 25.0
# a frame solution alive at its horizon counts as captured while it stays at
# least this far inside (0, xi)
CAPTURE_BAND_FLOOR = 1e-9
# the batch frame classifier retires a start when x falls to the zero floor
# (escape through zero) or xi - x to the singular floor (capture before T)
FRAME_ZERO_FLOOR = 1e-10
FRAME_SING_FLOOR = 1e-6
# transformed-time horizon of the capture scan's batch run
SCAN_HORIZON_S = 60.0
# density quadratures run on [0, DENSITY_S_MAX]; an exponential fitted on
# the last decade models the tail beyond it
DENSITY_S_MAX = 45.0
# slack of the finite-ladder estimates a_hat, b_hat against the oscillation bound
SCALING_MARGIN = 0.25
# a rescaled driving cannot be recovered from lambda once T - t is no
# longer resolved against T; freeze beyond this.  The rescaling of
# C sqrt(T - t) returns C within 3.5e-5 (relative) up to s = 14 and
# drifts to 2.6e-3 at s = 16 and 1.9e-2 at s = 17.
FRAME_FREEZE_S = 14.0
# math.exp overflows (and raises) just above this
_EXP_MAX = 709.0
# smallest capture_scan refine_tol: the refinement horizon 4/refine_tol is
# then 4e12, far past where a run parks at its fixed point or exits, and a
# finer bisection would resolve endpoints of order one below double precision
REFINE_TOL_MIN = 1e-12


# ---------------------------------------------------------------------------
# frame map and driving transforms
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FrameMap:
    """Bookkeeping between original time t in [0, T) and frame time s >= 0.

    direction is +1 when lambda(T) is approached from below (a running
    maximum at T), -1 for the mirrored case.
    """

    T: float
    lambda_T: float
    direction: int = 1

    def __post_init__(self):
        if self.T <= 0:
            raise DomainError("frame horizon T must be positive")
        if self.direction not in (1, -1):
            raise DomainError("direction must be +1 or -1")

    def s_of_t(self, t):
        t = np.asarray(t, dtype=float)
        rem = np.maximum(self.T - t, 0.0)
        with np.errstate(divide="ignore"):
            s = -0.5 * np.log(rem / self.T)
        return s if s.shape else float(s)

    def t_of_s(self, s):
        s = np.asarray(s, dtype=float)
        t = self.T * -np.expm1(-2.0 * s)
        return t if t.shape else float(t)


def frame_for(spec: DrivingSpec, T: Optional[float] = None, direction: int = 1) -> FrameMap:
    T = spec.T if T is None else float(T)
    if T > spec.T:
        raise DomainError("frame horizon exceeds the driving domain")
    return FrameMap(T=T, lambda_T=float(spec(T)), direction=direction)


class FrameDriving:
    """The transformed driving xi(s) of a DrivingSpec under a FrameMap.

    Exact closed forms are used for families where the transform is
    analytic; otherwise the generic quotient is evaluated and frozen beyond
    ``FRAME_FREEZE_S`` where T - t is no longer resolvable in doubles.
    """

    def __init__(self, spec: DrivingSpec, frame: FrameMap):
        if frame.T > spec.T * (1 + 1e-12):
            raise DomainError("frame horizon exceeds the driving domain")
        self.spec = spec
        self.frame = frame
        self._mode = "generic"
        d, T = frame.direction, frame.T
        lam_T = frame.lambda_T
        fam, p = spec.family, spec.params
        if fam == "constant":
            self._amp = float(d * (lam_T - spec(0.0)) / np.sqrt(T))
            self._mode = "exp" if self._amp != 0.0 else "zero"
        elif fam == "linear":
            lam0 = spec(0.0)
            k = float(p["slope"])
            if abs(lam_T - (lam0 + k * T)) <= 1e-12 * max(1.0, abs(lam_T)):
                self._amp = float(d * k * np.sqrt(T))
                self._mode = "decay"
        elif fam == "sqrt_approach":
            if (
                abs(T - spec.T) <= 1e-12 * spec.T
                and abs(lam_T - spec(spec.T)) <= 1e-12 * max(1.0, abs(lam_T))
            ):
                self._const = d * float(p["c"])
                self._mode = "const"
        elif fam == "sharp_example":
            osc: SharpOscillation = spec._sharp
            nat_lam_T = np.sqrt(spec.T) * osc.xi(0.0)
            if (
                abs(T - spec.T) <= 1e-12 * spec.T
                and abs(lam_T - nat_lam_T) <= 1e-9 * max(1.0, abs(nat_lam_T))
                and d == 1
            ):
                self._osc = osc
                self._mode = "sharp"
        if self._mode == "generic":
            self._generic = _rescaled(lambda t: d * (lam_T - spec(t)), T)

    def __call__(self, s):
        if isinstance(s, float):
            # the float lane of the closed forms; math.exp raises where
            # np.exp overflows to inf, so the array path keeps that range
            mode = self._mode
            if mode == "zero":
                return 0.0
            if mode == "const":
                return self._const
            if mode == "decay" and s > -_EXP_MAX:
                return self._amp * math.exp(-s)
            if mode == "exp" and s < _EXP_MAX:
                return self._amp * math.exp(s)
        s = np.asarray(s, dtype=float)
        scalar = not s.shape
        out = self._eval(np.atleast_1d(s))
        return float(out[0]) if scalar else out

    def _eval(self, s: np.ndarray) -> np.ndarray:
        if self._mode == "zero":
            return np.zeros_like(s)
        if self._mode == "const":
            return np.full_like(s, self._const)
        if self._mode == "decay":
            return self._amp * np.exp(-s)
        if self._mode == "exp":
            return self._amp * np.exp(s)
        if self._mode == "sharp":
            return np.asarray(self._osc.xi(s), dtype=float)
        return self._generic(s)


def _quad(f: Callable, a: float, b: float, limit: int) -> tuple[float, float]:
    """scipy's adaptive quadrature of f over [a, b]: (value, error estimate).

    scipy reports a doubtful result (roundoff, a badly behaved or divergent
    integrand, the subdivision limit) by an IntegrationWarning and returns
    the value anyway; here that report raises NumericalError instead, and
    so does a value or error estimate that overflowed.
    """
    out = sp_integrate.quad(f, a, b, limit=limit, full_output=1)
    if len(out) > 3:  # full_output appends scipy's message when the result is doubtful
        raise NumericalError(f"quadrature over [{a!r}, {b!r}] failed: {' '.join(out[3].split())}")
    if not (math.isfinite(out[0]) and math.isfinite(out[1])):
        raise NumericalError(f"quadrature over [{a!r}, {b!r}] overflowed: {out[0]!r} +- {out[1]!r}")
    return out[0], out[1]


def _rescaled(f: Callable, T: float) -> Callable:
    """eta(s) = f(T - T e^{-2s}) e^{s} / sqrt(T), frozen past FRAME_FREEZE_S.

    The square-root rescaling shared by the real side (f = lambda(T) -
    lambda) and the imaginary side (f = theta).
    """

    def eta(s):
        sc = np.minimum(np.asarray(s, dtype=float), FRAME_FREEZE_S)
        t = T - T * np.exp(-2.0 * sc)
        out = np.asarray(f(t), dtype=float) * np.exp(sc) / np.sqrt(T)
        return out if out.shape else float(out)

    return eta


def from_frame_driving(xi: Callable, frame: FrameMap) -> Callable:
    """Invert the frame transform: lambda(t) on [0, T] from xi(s)."""

    def lam(t):
        return _inverse_frame(xi, frame.T, frame.lambda_T, frame.direction, t)

    return lam


# ---------------------------------------------------------------------------
# direct integration of the real equation
# ---------------------------------------------------------------------------


@dataclass
class CaptureReport:
    """Classification of one initial point of the real Loewner equation."""

    initial: float
    status: str  # captured | escaped | undecided
    capture_time: Optional[float]
    certificate: str  # event_bisection | singular_floor | fixed_point_band | horizon_exhausted
    horizon_used: float

    def to_record(self) -> dict:
        return {
            "initial": self.initial,
            "status": self.status,
            "capture_time": self.capture_time,
            "certificate": self.certificate,
            "horizon_used": self.horizon_used,
        }


def solve_real_loewner(
    spec: DrivingSpec,
    x0: float,
    horizon: float,
) -> tuple[SolutionPath, CaptureReport]:
    """Integrate dX/dt = 2/(X - lambda(t)) with guarded capture detection.

    The capture guard is the squared gap (X - lambda)^2 - floor^2; squaring
    keeps the guard's time derivative O(1) at square-root-type captures, so
    the bisected event time is certified to the configured bracket.
    """
    lam0 = float(spec(0.0))
    if x0 == lam0:
        raise DomainError("x0 coincides with lambda(0): already on the singularity")
    horizon = min(float(horizon), spec.T)
    floor2 = SINGULARITY_FLOOR**2

    def fieldf(t, x):
        return 2.0 / (x - spec(t))

    def guard(t, x):
        return (x - spec(t)) ** 2 - floor2

    path = integrate_until(fieldf, float(x0), (0.0, horizon), guard, guard_kind="capture")
    ev = path.event
    if ev is not None and ev.kind == "capture" and ev.time > 0.0:
        report = CaptureReport(x0, "captured", ev.time, "event_bisection", horizon)
    elif ev is not None and ev.kind in ("capture", "blow_up"):
        # x0 != lambda(0), so a capture at t = 0 is a step underflow at the
        # start promoted by the guard, no more decided than a blow-up
        report = CaptureReport(x0, "undecided", None, "horizon_exhausted", path.terminal_time)
    else:
        report = CaptureReport(x0, "escaped", None, "horizon_exhausted", horizon)
    return path, report


# ---------------------------------------------------------------------------
# the frame equation dx/ds = x - 4/(xi - x)
# ---------------------------------------------------------------------------


@dataclass
class FrameRun:
    path: SolutionPath
    classification: str  # captured-candidate | escaped-zero | escaped-singular | undecided
    exit_s: Optional[float]


def solve_frame_equation(
    xi: Callable,
    x0: float,
    s_horizon: float = CAPTURE_HORIZON_S,
) -> FrameRun:
    """Integrate the frame equation and classify the exit.

    escaped-zero:     x reached 0 (the original solution passed lambda(T)
                      strictly before T and escapes);
    escaped-singular: xi - x reached the singularity floor (capture strictly
                      before T);
    captured-candidate: x stayed at least CAPTURE_BAND_FLOOR inside (0, xi)
                      to the horizon, certifying capture at T numerically.
    """
    xi0 = float(np.asarray(xi(0.0)))
    if not (0.0 < x0 < xi0):
        raise DomainError(f"x0={x0} outside (0, xi(0))=(0, {xi0})")
    floor2 = SINGULARITY_FLOOR**2

    def fieldf(s, x):
        return x - 4.0 / (xi(s) - x)

    def g_zero(s, x):
        return x

    def g_sing(s, x):
        return (float(np.asarray(xi(s))) - x) ** 2 - floor2

    path = integrate_until(
        fieldf,
        float(x0),
        (0.0, s_horizon),
        None,
        guards=[(g_zero, "vanish"), (g_sing, "capture")],
    )
    ev = path.event
    if ev is not None and ev.kind == "vanish":
        return FrameRun(path, "escaped-zero", ev.time)
    if ev is not None and ev.kind == "capture":
        return FrameRun(path, "escaped-singular", ev.time)
    if ev is not None and ev.kind == "blow_up":
        return FrameRun(path, "undecided", ev.time)
    x_end = float(np.asarray(path.terminal_value))
    xi_end = float(np.asarray(xi(path.terminal_time)))
    if CAPTURE_BAND_FLOOR <= x_end <= xi_end - CAPTURE_BAND_FLOOR:
        return FrameRun(path, "captured-candidate", None)
    return FrameRun(path, "undecided", None)


# ---------------------------------------------------------------------------
# decay densities and the capture correspondence
# ---------------------------------------------------------------------------


def _tail_fit(phi: Callable, s_max: float) -> tuple[float, float]:
    """Fit phi ~ A e^{-beta s} on the last decade; return (tail integral, beta)."""
    lo = 0.9 * s_max
    ss = np.linspace(lo, s_max, 33)
    vals = np.asarray(phi(ss), dtype=float)
    if np.any(vals <= 0):
        return 0.0, np.inf
    coef = np.polyfit(ss, np.log(vals), 1)
    beta = -coef[0]
    if beta < 1e-3:  # no usable decay; integrate the tail explicitly
        tail, _ = sp_integrate.quad(phi, s_max, np.inf, limit=200)
        return tail, beta
    return float(vals[-1] / beta), float(beta)


def tail_integral(phi: Callable, s_grid):
    """I(s) = integral_s^inf phi for each s in s_grid (vectorised).

    Composite-Simpson on a 20001-point grid of [0, DENSITY_S_MAX] plus an
    exponential tail model fitted on the last decade.  Returns (values,
    error_estimate).
    """
    s_grid = np.atleast_1d(np.asarray(s_grid, dtype=float))
    if not np.all((s_grid >= 0) & (s_grid <= DENSITY_S_MAX)):  # NaN fails too
        raise DomainError(f"tail integral grid outside [0, {DENSITY_S_MAX}]")
    fine = np.linspace(0.0, DENSITY_S_MAX, 20001)
    fv = np.asarray(phi(fine), dtype=float)
    if not np.all(np.isfinite(fv)):
        raise DomainError(f"density not finite on [0, {DENSITY_S_MAX}]")
    cum = sp_integrate.cumulative_simpson(fv, x=fine, initial=0.0)
    tail, _ = _tail_fit(phi, DENSITY_S_MAX)
    total = cum[-1] + tail
    I_fine = total - cum
    # error estimate: half-resolution comparison plus a tail-model allowance
    cum_half = sp_integrate.cumulative_simpson(fv[::2], x=fine[::2], initial=0.0)
    err = float(abs(cum[-1] - cum_half[-1])) + abs(tail) * 1e-6 + 1e-15
    # snap to the nearest node and correct with an exact short panel: plain
    # linear interpolation of the cumulative loses ~h^2 accuracy
    idx = np.clip(np.searchsorted(fine, s_grid), 0, fine.size - 1)
    vals = I_fine[idx] + _gauss_panel(phi, s_grid, fine[idx])
    return vals, err


def density_flags(phi: Callable) -> dict:
    """Membership flags for the admissible density class.

    positive:           phi > 0 on a 2001-point grid of [0, 40]
    integrable:         fitted tail decay rate > 0
    super_exponential:  e^{2s} phi(s) increasing over the last decade
                        (equivalently decay strictly slower than e^{-2s})
    """
    ss = np.linspace(0.0, 40.0, 2001)
    vals = np.asarray(phi(ss), dtype=float)
    positive = bool(np.all(vals > 0.0) and np.all(np.isfinite(vals)))
    _, beta = _tail_fit(phi, 40.0) if positive else (0.0, np.inf)
    integrable = bool(positive and beta > 1e-3)
    if positive:
        grow = np.exp(2.0 * ss[-64:]) * vals[-64:]
        super_exp = bool(grow[-1] > 1.02 * grow[0]) and beta < 2.0
    else:
        super_exp = False
    return {
        "positive": positive,
        "integrable": integrable,
        "super_exponential": super_exp,
        "tail_rate": beta,
        "ok": positive and integrable and super_exp,
    }


def profile_from_density(phi: Callable, s_grid):
    """Phi(s) = e^s * integral_s^inf phi (the solution profile of a density).

    Returns (values, quadrature_error_estimate).  Flags of the density class
    are the caller's business via :func:`density_flags`.
    """
    s_grid = np.atleast_1d(np.asarray(s_grid, dtype=float))
    I, err = tail_integral(phi, s_grid)
    return np.exp(s_grid) * I, err


def driving_from_profile(Phi, grid=None, dPhi=None):
    """xi = Phi + 4/(Phi - dPhi/ds), pointwise on a grid.

    ``Phi`` may be an array of values on ``grid`` or a callable.  When no
    derivative is supplied it is estimated by central differences on the
    grid interior (one-sided at the ends).
    """
    if callable(Phi):
        if grid is None:
            raise DomainError("a grid is required with a callable profile")
        Phi_v = np.asarray(Phi(np.asarray(grid, dtype=float)), dtype=float)
    else:
        Phi_v = np.asarray(Phi, dtype=float)
    if dPhi is None:
        if grid is None:
            raise DomainError("a grid is required to differentiate the profile")
        g = np.asarray(grid, dtype=float)
        dPhi_v = np.gradient(Phi_v, g, edge_order=2)
    elif callable(dPhi):
        dPhi_v = np.asarray(dPhi(np.asarray(grid, dtype=float)), dtype=float)
    else:
        dPhi_v = np.asarray(dPhi, dtype=float)
    denom = Phi_v - dPhi_v
    bad = np.nonzero(denom <= 0.0)[0]
    if bad.size:
        where = bad[0] if grid is None else np.asarray(grid, dtype=float)[bad[0]]
        raise DomainError(f"profile minus derivative nonpositive at grid point {where}")
    return Phi_v + 4.0 / denom


_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(7)


def _gauss_panel(f, a, b):
    """7-point Gauss-Legendre on [a, b], vectorised over panel arrays."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    vals = np.zeros_like(mid)
    for xk, wk in zip(_GL_NODES, _GL_WEIGHTS):
        vals += wk * np.asarray(f(mid + half * xk), dtype=float)
    return vals * half


@dataclass
class Reconstruction:
    """Captured pair (lambda, X) rebuilt from a decay density."""

    t: np.ndarray
    lam: np.ndarray
    X: np.ndarray
    frame: FrameMap
    residual: float
    residual_argmax: float
    terminal_gap: float
    derivative_check: float
    quad_error: float


def reconstruct_captured_pair(phi: Callable, frame: FrameMap) -> Reconstruction:
    """Rebuild the captured pair (lambda, X) generated by a decay density.

        X(t)      = lambda(T) - sqrt(T) * integral_{s(t)}^inf phi,
        lambda(t) = X(t) - 4 (T - t) / (sqrt(T) phi(s(t))),

    and verify that the pair satisfies the real Loewner equation.  The
    residual is gap-scaled, |dX/dt * (X - lambda) / 2 - 1|, with dX/dt taken
    from small-interval Gauss quadrature of phi (exact differentiation of
    the defining integral); the raw residual degenerates near T where both
    sides of the equation blow up.  A residual above 1e-6 raises.
    """
    flags = density_flags(phi)
    if not flags["ok"]:
        raise PreconditionError(f"density fails admissibility flags: {flags}")
    T, lam_T, d = frame.T, frame.lambda_T, frame.direction

    # the grid is carried as the exact remaining time rem = T - t: forming
    # rem from a rounded t loses all digits in the corner at T; 872 bulk and
    # 128 corner points make a 1000-point grid
    rem_bulk = T - np.linspace(0.0, 0.99 * T, 872)
    rem_corner = T * np.geomspace(0.01, 1e-16, 128)
    rem = np.unique(np.concatenate([rem_bulk, rem_corner]))[::-1]  # decreasing
    t = T - rem
    s = -0.5 * np.log(rem / T)

    I, qerr = tail_integral(phi, s)
    gap = np.sqrt(T) * I  # lambda(T) - X(t), direction-free magnitude
    X = lam_T - d * gap
    phis = np.asarray(phi(s), dtype=float)
    lam = X - d * 4.0 * rem / (np.sqrt(T) * phis)

    # residual of the defining ODE, gap-scaled
    h = np.minimum(1e-4 * T, rem * 3e-4)
    h = np.minimum(h, np.maximum(t / 2.0, 1e-13 * T))
    h = np.maximum(h, 1e-13 * T)
    s_lo = -0.5 * np.log(np.minimum(rem + h, T) / T)
    s_hi = -0.5 * np.log(np.maximum(rem - h, 1e-17 * T) / T)
    dX = d * np.sqrt(T) * _gauss_panel(phi, s_lo, s_hi) / (2.0 * h)
    resid = np.abs(dX * (X - lam) / 2.0 - 1.0)
    ok = (t > 1e-6 * T) & (rem > 1e-9 * T)
    residual = float(np.max(resid[ok]))
    argmax = float(t[ok][int(np.argmax(resid[ok]))])
    if residual > 1e-6:
        raise ReconstructionError(
            f"Loewner residual {residual:.3e} exceeds 1.0e-06 at t={argmax}"
        )

    # profile/derivative identity cross-check: Phi - dPhi = e^s phi
    s_chk = np.linspace(0.0, 12.0, 481)
    Phi_chk, _ = profile_from_density(phi, s_chk)
    dPhi_chk = np.gradient(Phi_chk, s_chk, edge_order=2)
    ident = np.exp(s_chk) * np.asarray(phi(s_chk), dtype=float)
    deriv_dev = float(np.max(np.abs((Phi_chk - dPhi_chk) - ident) / np.maximum(ident, 1e-30)))

    term_gap = float(abs(X[-1] - lam_T)) if t[-1] < T else 0.0
    ts = np.concatenate([t, [T]])
    Xs = np.concatenate([X, [lam_T]])
    lams = np.concatenate([lam, [lam_T]])
    return Reconstruction(
        t=ts,
        lam=lams,
        X=Xs,
        frame=frame,
        residual=residual,
        residual_argmax=argmax,
        terminal_gap=term_gap,
        derivative_check=deriv_dev,
        quad_error=qerr,
    )


# ---------------------------------------------------------------------------
# no-capture certificate
# ---------------------------------------------------------------------------


def _descent_floor(x):
    """G(x): guaranteed descent rate of frame solutions below driving x."""
    x = np.asarray(x, dtype=float)
    return np.where(x >= 2.0, 4.0 - x, 4.0 / np.maximum(x, 1e-300))


@dataclass
class NoCaptureCertificate:
    holds: bool
    integral: float
    error: float
    threshold: float
    t1: float
    t2: float


def no_capture_certificate(xi: Callable, t1: float, t2: float) -> NoCaptureCertificate:
    """Certify that no frame solution starting at or before t1 is captured.

    Holds when integral_{t1}^{t2} G(xi) >= xi(t1) with G(x) = 4 - x for
    x >= 2 and 4/x for 0 <= x <= 2: any positive solution would be driven
    to zero over [t1, t2].  The quadrature error is folded into the
    comparison so exact-equality cases are not lost to roundoff; a
    quadrature that scipy flags as doubtful raises NumericalError.
    """
    if not t2 > t1 >= 0:
        raise DomainError("need t2 > t1 >= 0")

    def integrand(s):
        v = float(np.asarray(xi(s)))
        if v < 0:
            raise DomainError(f"driving negative at s={s}")
        return float(_descent_floor(v))

    integral, err = _quad(integrand, t1, t2, 400)
    threshold = float(np.asarray(xi(t1)))
    holds = bool(integral >= threshold - err - 1e-12)
    return NoCaptureCertificate(holds, integral, err, threshold, t1, t2)


# ---------------------------------------------------------------------------
# capture scan
# ---------------------------------------------------------------------------

def _classify_frame_batch(
    xi: Callable,
    x0s: np.ndarray,
    s_horizon: float,
    rel_tol: float = 1e-8,
    stationary_tol: float = 1e-12,
):
    """Vectorised frame-equation classification with component freezing.

    Returns (status codes, exit times, terminal values).  Codes: 0 survived
    to the horizon, 1 escaped through zero (``FRAME_ZERO_FLOOR``), 2 exited
    at the singular floor (``FRAME_SING_FLOOR``), 3 stalled undecided.  Components parked at an attracting
    fixed point (drift below ``stationary_tol`` inside the band) are
    certified early: explicit stepping is stability-capped there, so waiting
    out a long horizon step by step would dominate the cost for nothing.
    """
    y = np.asarray(x0s, dtype=float).copy()
    code = np.zeros(y.size, dtype=int)
    s_exit = np.full(y.size, np.nan)
    cfg = IntegratorConfig(rel_tol=rel_tol, abs_tol=1e-12, min_step=1e-13, max_steps=2_000_000)

    def field(s, x):
        return x - 4.0 / (float(xi(s)) - x)

    # the stepper carries the live components only; an exit rebuilds it on
    # the survivors with the current step size
    live = np.arange(y.size)
    st = _Stepper(field, 0.0, y, s_horizon, cfg)
    nsteps = 0
    while st.t < s_horizon:
        if st.step() == "underflow":
            # stalled: the stiffest components (smallest gap) exit singular
            # when at the floor and the others go on with a fresh stepper;
            # a stall with no live component at the floor leaves them all
            # undecided rather than mislabelled
            gap = float(xi(st.t)) - st.y
            if gap.min() > 10 * FRAME_SING_FLOOR:
                code[live] = 3
                s_exit[live] = st.t
                break
            stiff = gap == gap.min()  # the field's stiffness is 4 / gap^2
            code[live[stiff]] = 2
            s_exit[live[stiff]] = st.t
            live = live[~stiff]
            if not live.size:
                break
            st = _Stepper(field, st.t, st.y[~stiff], s_horizon, cfg)
            continue
        nsteps += 1
        y[live] = st.y
        xiv = float(xi(st.t))
        out = np.where(st.y <= FRAME_ZERO_FLOOR, 1, np.where(xiv - st.y <= FRAME_SING_FLOOR, 2, 0))
        if np.any(out):
            code[live] = out
            s_exit[live[out > 0]] = st.t
            keep = out == 0
            live = live[keep]
            if not live.size:
                break
            h = st.h
            st = _Stepper(field, st.t, st.y[keep], s_horizon, cfg)
            st.h = h
        if nsteps % 8 == 0:
            parked = (
                (np.abs(st.k1) <= stationary_tol * np.maximum(1.0, np.abs(st.y)))
                & (st.y >= CAPTURE_BAND_FLOOR)
                & (xiv - st.y >= 10 * FRAME_SING_FLOOR)
            )
            if np.all(parked):
                break
    return code, s_exit, y


@dataclass
class ScanResult:
    """Interval estimate of the set of points captured exactly at T."""

    T: float
    members: np.ndarray
    interval: Optional[tuple[float, float]]
    mirrored_interval: Optional[tuple[float, float]]
    reports: list
    undecided: np.ndarray
    cell: float
    endpoint_refined: bool
    notes: str = ""

    def write_csv(self, path):
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["x0", "status", "capture_time", "certificate"])
            for r in sorted(self.reports, key=lambda r: r.initial):
                ct = "" if r.capture_time is None else repr(r.capture_time)
                w.writerow([repr(r.initial), r.status, ct, r.certificate])


def _scan_one_side(
    spec: DrivingSpec,
    T: float,
    grid: Optional[np.ndarray],
    refine: bool,
    refine_tol: float,
):
    lam_T = float(spec(T))
    member_tol = 1e-4 * T  # a capture this close to T counts as one at T
    lam_0 = float(spec(0.0))
    # record precheck: capture from above requires lambda(T) to be a record
    probe = np.linspace(0.0, T, 4097)
    lam_max = float(np.max(spec(probe[:-1])))
    scale = max(1.0, abs(lam_T))
    if lam_T < lam_max - 1e-7 * scale:
        return np.array([]), None, [], np.array([]), 0.0, "lambda(T) is not a running maximum; no capture at T from above"

    frame = FrameMap(T=T, lambda_T=lam_T, direction=1)
    xi = FrameDriving(spec, frame)
    xi0 = float(xi(0.0))
    if xi0 <= 0:
        return np.array([]), None, [], np.array([]), 0.0, "degenerate frame driving"

    if grid is None:
        n = 129
        xf = np.linspace(xi0 * (1 - 1e-3), xi0 * 1e-3, n)  # frame initial values
        grid = lam_T - np.sqrt(T) * xf
    grid = np.asarray(grid, dtype=float)
    if np.any(grid <= lam_0):
        raise DomainError("scan grid must lie strictly above lambda(0)")
    cell = float(np.max(np.diff(np.sort(grid)))) if grid.size > 1 else 0.0

    x_frame = (lam_T - grid) / np.sqrt(T)
    runnable = (x_frame > 0) & (x_frame < xi0)
    reports = []
    member_mask = np.zeros(grid.size, dtype=bool)
    undecided = []
    code = np.full(grid.size, -1)
    s_exit = np.full(grid.size, np.nan)
    x_end = np.full(grid.size, np.nan)
    if np.any(runnable):
        code[runnable], s_exit[runnable], x_end[runnable] = _classify_frame_batch(
            xi, x_frame[runnable], SCAN_HORIZON_S
        )

    for i, X0 in enumerate(grid):
        if not runnable[i]:
            reports.append(CaptureReport(float(X0), "escaped", None, "horizon_exhausted", SCAN_HORIZON_S))
            continue
        if code[i] == 0:
            xi_end = float(xi(SCAN_HORIZON_S))
            if CAPTURE_BAND_FLOOR <= x_end[i] <= xi_end - CAPTURE_BAND_FLOOR:
                reports.append(
                    CaptureReport(float(X0), "captured", T, "fixed_point_band", SCAN_HORIZON_S)
                )
                member_mask[i] = True
            else:
                reports.append(CaptureReport(float(X0), "undecided", None, "horizon_exhausted", SCAN_HORIZON_S))
                undecided.append(X0)
        elif code[i] == 1:
            reports.append(CaptureReport(float(X0), "escaped", None, "horizon_exhausted", SCAN_HORIZON_S))
        elif code[i] == 3:
            reports.append(CaptureReport(float(X0), "undecided", None, "horizon_exhausted", SCAN_HORIZON_S))
            undecided.append(X0)
        else:
            t_cap = frame.t_of_s(float(s_exit[i]))
            member = abs(t_cap - T) <= member_tol
            reports.append(
                CaptureReport(float(X0), "captured", float(t_cap), "singular_floor", SCAN_HORIZON_S)
            )
            member_mask[i] = member

    members = np.sort(grid[member_mask])
    interval = None
    if members.size:
        lo, hi = float(members[0]), float(members[-1])
        if refine:
            s_ext = max(SCAN_HORIZON_S, 4.0 / refine_tol)

            def captured_at(X0: float) -> bool:
                xf = (lam_T - X0) / np.sqrt(T)
                if not (0.0 < xf < xi0):
                    return False
                # tight tolerance so the parked-at-fixed-point exit can
                # distinguish genuine capture from a slow parabolic escape
                c, se, xe = _classify_frame_batch(
                    xi, np.array([xf]), s_ext, rel_tol=1e-11, stationary_tol=1e-9
                )
                if c[0] == 2:  # capture strictly before T: member only within tol
                    return abs(FrameMap(T, lam_T).t_of_s(float(se[0])) - T) <= member_tol
                return c[0] == 0 and xe[0] >= CAPTURE_BAND_FLOOR

            # the base-scan endpoint may over-include by a parked-escape
            # misread; walk inward to a certified member before bisecting
            desc = members[::-1]
            inside_hi = next((float(m) for m in desc[:8] if captured_at(float(m))), None)
            if inside_hi is not None:
                hi = _refine_edge(captured_at, inside_hi, hi + cell + refine_tol, refine_tol)
            lo_tol = max(refine_tol, cell / 2.0)  # bottom edge: stiff starts, keep coarse
            inside_lo = next((float(m) for m in members[:8] if captured_at(float(m))), None)
            if inside_lo is not None:
                lo_out = max(lam_0 + 1e-6 * (lam_T - lam_0), lo - cell - lo_tol)
                lo = -_refine_edge(lambda v: captured_at(-v), -inside_lo, -lo_out, lo_tol)
        interval = (lo, hi)
    return members, interval, reports, np.asarray(undecided), cell, ""


def _refine_edge(pred, inside: float, outside: float, tol: float) -> float:
    """Bisect the boundary of {pred} between a point inside and one outside."""
    if pred(outside):
        return outside
    if not pred(inside):
        return inside
    lo, hi = inside, outside
    while abs(hi - lo) > tol:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:  # adjacent doubles: tol is below their spacing
            break
        if pred(mid):
            lo = mid
        else:
            hi = mid
    return lo


def capture_scan(
    spec: DrivingSpec,
    T: float,
    grid=None,
    refine: bool = True,
    refine_tol: float = 1e-4,
    mirrored: bool = True,
) -> ScanResult:
    """Interval estimate of {X0 : capture time of X0 equals T}.

    Grid points are classified through the frame equation (one vectorised
    integration to ``SCAN_HORIZON_S``), members are those captured exactly
    at T within 1e-4 T, and the interval endpoints are refined
    by bisection at an extended horizon: near a parabolic frame fixed point
    the boundary resolves only like 1/s, so the refinement horizon scales
    with 1/refine_tol.  Endpoints inherit a one-cell uncertainty; whether
    the interval is open or closed at the far end is not decidable
    numerically.  ``refine_tol`` must be a finite number of at least
    ``REFINE_TOL_MIN``.
    """
    if not REFINE_TOL_MIN <= refine_tol < np.inf:
        raise DomainError(
            f"refine_tol must be a finite number >= {REFINE_TOL_MIN}, got {refine_tol!r}"
        )
    members, interval, reports, undecided, cell, note = _scan_one_side(
        spec, T, grid, refine, refine_tol
    )
    mirrored_interval = None
    if mirrored:
        # the mirrored side always scans its own default grid: user grids
        # describe the upper side only
        m_members, m_interval, m_reports, m_und, _, m_note = _scan_one_side(
            spec.reflected(), T, None, refine, refine_tol
        )
        if m_interval is not None:
            mirrored_interval = (-m_interval[1], -m_interval[0])
        for r in m_reports:
            r.initial = -r.initial
        reports = reports + m_reports
        if m_note and not note:
            note = f"mirrored side: {m_note}"
    return ScanResult(
        T=T,
        members=members,
        interval=interval,
        mirrored_interval=mirrored_interval,
        reports=reports,
        undecided=undecided,
        cell=cell,
        endpoint_refined=refine,
        notes=note,
    )


# ---------------------------------------------------------------------------
# oscillation-band diagnostic for captured drivings
# ---------------------------------------------------------------------------


@dataclass
class ScalingBoundReport:
    applicable: bool
    same_sign: Optional[bool]
    a_hat: Optional[float]
    b_hat: Optional[float]
    bound_value: Optional[float]
    bound_holds: Optional[bool]
    attainable_bound_value: Optional[float]
    attainable_bound_holds: Optional[bool]
    margin: float
    note: str = ""


def scaling_bound_diagnostic(
    spec: DrivingSpec,
    T: float,
    scan: Optional[ScanResult] = None,
) -> ScalingBoundReport:
    """Check the oscillation bound forced on drivings captured at T.

    With a = liminf and b = limsup of |lambda(T)-lambda(t)|/sqrt(T-t), a
    captured driving must oscillate: when |a| < 4, |b| >= max(4, |a|+4/|a|)
    is asserted (within ``SCALING_MARGIN``, on the default scale ladder).
    The sharp attainable bound, which drops to 4 for 2 < |a| < 4, is
    reported alongside; the piecewise construction of
    :func:`sharp_oscillation` attains it, so violations of the primary bound
    in that regime indicate sharpness rather than error.
    """
    if scan is None:
        scan = capture_scan(spec, T, refine=False, mirrored=True)
    has_members = scan.interval is not None or scan.mirrored_interval is not None
    if not has_members:
        return ScalingBoundReport(
            applicable=False, same_sign=None, a_hat=None, b_hat=None,
            bound_value=None, bound_holds=None, attainable_bound_value=None,
            attainable_bound_holds=None, margin=SCALING_MARGIN,
            note="no capture at T: diagnostic vacuous",
        )
    rep = local_scaling_exponents(spec, T)
    q = rep.signed_quotients
    same_sign = bool(np.min(q) >= -1e-9 or np.max(q) <= 1e-9)
    a, b = rep.a_hat, rep.b_hat
    if a < 4.0 - SCALING_MARGIN:
        bound = max(4.0, a + 4.0 / a) if a > 0 else np.inf
        attain = (a + 4.0 / a) if a <= 2.0 else 4.0
        return ScalingBoundReport(
            applicable=True, same_sign=same_sign, a_hat=a, b_hat=b,
            bound_value=bound, bound_holds=bool(b >= bound - SCALING_MARGIN),
            attainable_bound_value=attain,
            attainable_bound_holds=bool(b >= attain - SCALING_MARGIN),
            margin=SCALING_MARGIN,
        )
    return ScalingBoundReport(
        applicable=True, same_sign=same_sign, a_hat=a, b_hat=b,
        bound_value=None, bound_holds=None,
        attainable_bound_value=None, attainable_bound_holds=None,
        margin=SCALING_MARGIN, note="|a_hat| >= 4: bound vacuous",
    )


# ---------------------------------------------------------------------------
# sharp oscillating example and slow-approach report
# ---------------------------------------------------------------------------


def sharp_oscillation(a: float, k_max: int = 40, n_dense: int = 20000):
    """Explicit captured pair whose driving attains the oscillation bound.

    Returns (osc, report, s_dense, x_dense, xi_dense); the branch follows
    from ``a``.  See :class:`loewner.sharp.SharpOscillation` for the
    construction and
    ``report`` for the band estimates at the distinguished sampling points.
    """
    osc = SharpOscillation(a=a, k_max=k_max)
    report = osc.band_report()
    s = np.linspace(0.0, osc.horizon * (1 - 1e-9), n_dense)
    return osc, report, s, np.asarray(osc.x(s)), np.asarray(osc.xi(s))


@dataclass
class SpeedConditionReport:
    liminf_side: float
    limsup_side: float
    products: np.ndarray
    quotients_over_h: np.ndarray
    scales: np.ndarray
    h_diverges: bool


def speed_condition_report(spec: DrivingSpec, T: float, h: Callable, scales=None) -> SpeedConditionReport:
    """Finite-scale estimates of the rate-weighted scaling quotients at T.

    Reports min over the finest scales of R(d) * h(d) and max of R(d)/h(d)
    where R(d) = (lambda(T) - lambda(T-d)) / sqrt(d).  No inequality between
    the two sides is asserted; both estimates are diagnostic.
    """
    if scales is None:
        scales = default_scale_ladder(T)
    d = np.asarray(scales, dtype=float)
    hv = np.asarray([float(h(x)) for x in d])
    if np.any(hv <= 0):
        raise PreconditionError("rate function must be positive on the ladder")
    h_diverges = bool(hv[-1] > hv[0])  # ladder decreases toward 0
    R = (spec(T) - spec(T - d)) / np.sqrt(d)
    tail = slice(d.size // 2, None)
    return SpeedConditionReport(
        liminf_side=float(np.min((R * hv)[tail])),
        limsup_side=float(np.max((R / hv)[tail])),
        products=R * hv,
        quotients_over_h=R / hv,
        scales=d,
        h_diverges=h_diverges,
    )
