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

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .driving import DrivingSpec
from .errors import DomainError, PreconditionError, ReconstructionError
from .ode import SINGULARITY_FLOOR, IntegratorConfig, SolutionPath, _bisect_event, _Stepper, integrate_until
from .quadrature import _gauss_panel, cumulative_simpson, quad
from .sharp import SharpOscillation

__all__ = [
    "FrameMap",
    "CaptureReport",
    "solve_real_loewner",
    "solve_frame_equation",
    "density_flags",
    "profile_from_density",
    "driving_from_profile",
    "reconstruct_captured_pair",
    "no_capture_certificate",
    "capture_scan",
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
# relative tolerance of the batch frame classifier and of solve_frame_equation
_FRAME_REL_TOL = 1e-8
# transformed-time horizon of the capture scan's batch run
SCAN_HORIZON_S = 60.0
# density quadratures run on [0, DENSITY_S_MAX]; an exponential fitted on
# the last decade models the tail beyond it
DENSITY_S_MAX = 45.0
# smallest capture_scan refine_tol: the refinement horizon 4/refine_tol is
# then 4e12, far past where a run parks at its fixed point or exits, and a
# finer bisection would resolve endpoints of order one below double precision
REFINE_TOL_MIN = 1e-12


# ---------------------------------------------------------------------------
# frame map and driving transforms
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FrameMap:
    """Bookkeeping between original time t in [0, T) and frame time s >= 0."""

    T: float
    lambda_T: float

    def __post_init__(self):
        if self.T <= 0:
            raise DomainError("frame horizon T must be positive")

    def t_of_s(self, s):
        s = np.asarray(s, dtype=float)
        t = self.T * -np.expm1(-2.0 * np.minimum(s, 1e3))
        return t if t.shape else float(t)


class FrameDriving:
    """The transformed driving xi(s) = (lambda(T) - lambda(t)) / sqrt(T - t).

    ``frame`` is FrameMap(T, spec(T)), T the driving's horizon by default.
    Exact closed forms are used where the transform is analytic: ``const``
    (constant, and sqrt_approach at its own horizon) and ``sharp``
    (sharp_example at its own horizon).  Otherwise xi is the driving's
    exact increment ``spec._drop(T, tau) / sqrt(tau)`` with tau = T - t =
    T e^{-2s}, which keeps its relative accuracy at every s; tau is held at
    the smallest normal double where T e^{-2s} would underflow, and s is
    capped at 1e3 first, so that -2 s cannot overflow.  ``const``
    is the constant value of xi, or None.  ``at`` (xi at one float time,
    which is what a call with a float returns) and ``_eval`` (the array
    path) are chosen once at construction.
    """

    def __init__(self, spec: DrivingSpec, T: Optional[float] = None):
        T = spec.T if T is None else float(T)
        if T > spec.T * (1 + 1e-12):
            raise DomainError("frame horizon exceeds the driving domain")
        self.spec = spec
        self.frame = FrameMap(T, float(spec(T)))
        own_T = abs(T - spec.T) <= 1e-12 * spec.T
        fam, p = spec.family, spec.params
        self.const: Optional[float] = None
        if fam == "constant":
            self.const = 0.0
        elif fam == "sqrt_approach" and own_T:
            self.const = float(p["c"])

        if self.const is not None:
            c = self.const
            self._eval = lambda s: np.full_like(s, c)
            self.at = lambda s: c
        elif fam == "sharp_example" and own_T:
            osc: SharpOscillation = spec._sharp
            self._eval = lambda s: np.asarray(osc.xi(s), dtype=float)
            self.at = osc.xi
        else:
            def drop_eval(s):
                tau = np.maximum(T * np.exp(-2.0 * np.minimum(s, 1e3)), np.finfo(float).tiny)
                return spec._drop(T, tau) / np.sqrt(tau)

            self._eval = drop_eval
            self.at = lambda s: float(drop_eval(np.array([s]))[0])

    def __call__(self, s):
        if isinstance(s, float):
            return self.at(s)
        s = np.asarray(s, dtype=float)
        scalar = not s.shape
        out = self._eval(np.atleast_1d(s))
        return float(out[0]) if scalar else out


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
    """Classify one start by the capture scan's one-start run and name the exit.

    escaped-zero:     x fell to FRAME_ZERO_FLOOR (the original solution
                      passed lambda(T) strictly before T and escapes);
    escaped-singular: xi - x fell to FRAME_SING_FLOOR (capture before T);
    captured-candidate: the run reached the horizon or parked, ending at
                      least CAPTURE_BAND_FLOOR inside (0, xi): capture at T.
    Anything else is undecided.  ``xi`` is a FrameDriving or any callable
    of s.  An exit at an accepted step is bisected within that step to the
    floor crossing, which is ``exit_s`` and the path's last row (the path's
    ``nfev`` includes the bisection); an exit by a stall is the stall's time.
    """
    xi0 = float(np.asarray(xi(0.0)))
    if not (0.0 < x0 < xi0):
        raise DomainError(f"x0={x0} outside (0, xi(0))=(0, {xi0})")
    code, s_exit, path = _classify_frame_one(xi, x0, s_horizon)
    if code in (1, 2):
        cfg, at, field = _frame_field(xi, _FRAME_REL_TOL)
        if code == 1:
            def above_floor(s, x):
                return x - FRAME_ZERO_FLOOR
        else:
            def above_floor(s, x):
                return at(s) - x - FRAME_SING_FLOOR
        ts, xs = path.times, path.values
        # a stall leaves the last accepted state above its floor
        g_lo = above_floor(ts[-2], xs[-2]) if ts.size > 1 else 0.0
        if g_lo > 0.0 >= above_floor(ts[-1], xs[-1]):
            s_cross, _, _, x_cross, nfev = _bisect_event(
                field, ts[-2], xs[-2], g_lo, ts[-1], above_floor, cfg
            )
            s_exit = ts[-1] = float(s_cross)
            xs[-1] = x_cross
            path.nfev += nfev
    if code != 0:
        return FrameRun(path, {1: "escaped-zero", 2: "escaped-singular", 3: "undecided"}[code], s_exit)
    xi_end = float(np.asarray(xi(path.terminal_time)))
    if CAPTURE_BAND_FLOOR <= path.terminal_value <= xi_end - CAPTURE_BAND_FLOOR:
        return FrameRun(path, "captured-candidate", None)
    return FrameRun(path, "undecided", None)


# ---------------------------------------------------------------------------
# decay densities and the capture correspondence
# ---------------------------------------------------------------------------


def _tail_fit(phi: Callable, s_max: float) -> tuple[float, float]:
    """Fit phi ~ A e^{-beta s} on the last decade; return (tail integral, beta).

    Without a usable decay the tail is integrated explicitly, and a
    quadrature that QUADPACK flags as doubtful raises NumericalError.
    """
    lo = 0.9 * s_max
    ss = np.linspace(lo, s_max, 33)
    vals = np.asarray(phi(ss), dtype=float)
    if np.any(vals <= 0):
        return 0.0, np.inf
    coef = np.polyfit(ss, np.log(vals), 1)
    beta = -coef[0]
    if beta < 1e-3:  # no usable decay; integrate the tail explicitly
        tail, _ = quad(phi, s_max, np.inf, 200)
        return tail, beta
    return float(vals[-1] / beta), float(beta)


def _tail_reader(phi: Callable) -> tuple[Callable, float]:
    """The tail integral I(s) = integral_s^inf phi, formed once per density.

    Composite-Simpson on a 20001-point grid of [0, DENSITY_S_MAX] plus an
    exponential tail model fitted on the last decade.  Returns (read,
    error_estimate); read(s_grid) gives I on any grid in [0, DENSITY_S_MAX]
    (vectorised) from the one sampling, cumulative sum and tail fit.
    """
    fine = np.linspace(0.0, DENSITY_S_MAX, 20001)
    fv = np.asarray(phi(fine), dtype=float)
    if not np.all(np.isfinite(fv)):
        raise DomainError(f"density not finite on [0, {DENSITY_S_MAX}]")
    cum = cumulative_simpson(fv, fine)
    tail, _ = _tail_fit(phi, DENSITY_S_MAX)
    total = cum[-1] + tail
    I_fine = total - cum
    # error estimate: half-resolution comparison plus a tail-model allowance
    cum_half = cumulative_simpson(fv[::2], fine[::2])
    err = float(abs(cum[-1] - cum_half[-1])) + abs(tail) * 1e-6 + 1e-15

    def read(s_grid):
        s_grid = np.atleast_1d(np.asarray(s_grid, dtype=float))
        if not np.all((s_grid >= 0) & (s_grid <= DENSITY_S_MAX)):  # NaN fails too
            raise DomainError(f"tail integral grid outside [0, {DENSITY_S_MAX}]")
        # snap to the nearest node and correct with an exact short panel:
        # plain linear interpolation of the cumulative loses ~h^2 accuracy
        idx = np.clip(np.searchsorted(fine, s_grid), 0, fine.size - 1)
        return I_fine[idx] + _gauss_panel(phi, s_grid, fine[idx])

    return read, err


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
    read_tail, err = _tail_reader(phi)
    I = read_tail(s_grid)  # checks the grid before exp can overflow on it
    return np.exp(s_grid) * I, err


def driving_from_profile(Phi, grid):
    """xi = Phi + 4/(Phi - dPhi/ds), pointwise on a grid.

    ``Phi`` may be an array of values on ``grid`` or a callable.  The
    derivative is estimated by central differences on the grid interior
    (one-sided at the ends).
    """
    g = np.asarray(grid, dtype=float)
    Phi_v = np.asarray(Phi(g) if callable(Phi) else Phi, dtype=float)
    denom = Phi_v - np.gradient(Phi_v, g, edge_order=2)
    bad = np.nonzero(denom <= 0.0)[0]
    if bad.size:
        raise DomainError(f"profile minus derivative nonpositive at grid point {g[bad[0]]}")
    return Phi_v + 4.0 / denom


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
    T, lam_T = frame.T, frame.lambda_T

    # the grid is carried as the exact remaining time rem = T - t: forming
    # rem from a rounded t loses all digits in the corner at T; 872 bulk and
    # 128 corner points make a 1000-point grid
    rem_bulk = T - np.linspace(0.0, 0.99 * T, 872)
    rem_corner = T * np.geomspace(0.01, 1e-16, 128)
    rem = np.unique(np.concatenate([rem_bulk, rem_corner]))[::-1]  # decreasing
    t = T - rem
    s = -0.5 * np.log(rem / T)

    # one sampling, cumulative sum and tail fit serve this grid and the
    # cross-check below
    read_tail, qerr = _tail_reader(phi)
    I = read_tail(s)
    X = lam_T - np.sqrt(T) * I  # sqrt(T) I = lambda(T) - X(t)
    phis = np.asarray(phi(s), dtype=float)
    lam = X - 4.0 * rem / (np.sqrt(T) * phis)

    # residual of the defining ODE, gap-scaled
    h = np.minimum(1e-4 * T, rem * 3e-4)
    h = np.minimum(h, np.maximum(t / 2.0, 1e-13 * T))
    h = np.maximum(h, 1e-13 * T)
    s_lo = -0.5 * np.log(np.minimum(rem + h, T) / T)
    s_hi = -0.5 * np.log(np.maximum(rem - h, 1e-17 * T) / T)
    dX = np.sqrt(T) * _gauss_panel(phi, s_lo, s_hi) / (2.0 * h)
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
    Phi_chk = np.exp(s_chk) * read_tail(s_chk)  # profile_from_density(phi, s_chk)
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
    quadrature that QUADPACK flags as doubtful raises NumericalError.
    """
    if not t2 > t1 >= 0:
        raise DomainError("need t2 > t1 >= 0")

    def integrand(s):
        v = float(np.asarray(xi(s)))
        if v < 0:
            raise DomainError(f"driving negative at s={s}")
        return float(_descent_floor(v))

    integral, err = quad(integrand, t1, t2, 400)
    threshold = float(np.asarray(xi(t1)))
    holds = bool(integral >= threshold - err - 1e-12)
    return NoCaptureCertificate(holds, integral, err, threshold, t1, t2)


# ---------------------------------------------------------------------------
# capture scan
# ---------------------------------------------------------------------------

def _frame_field(xi: Callable, rel_tol: float):
    """The frame classifiers' integrator config, xi's float evaluator and field:
    a FrameDriving is read through ``at`` (a constant one makes the field
    autonomous), and any other callable of s is its own evaluator."""
    cfg = IntegratorConfig(rel_tol=rel_tol, abs_tol=1e-12, min_step=1e-13, max_steps=2_000_000)
    at = getattr(xi, "at", xi)
    if isinstance(xi, FrameDriving) and xi.const is not None:
        c = xi.const

        def field(s, x):
            return x - 4.0 / (c - x)
    else:

        def field(s, x):
            return x - 4.0 / (at(s) - x)

    return cfg, at, field


def _classify_frame_batch(
    xi: Callable,
    x0s: np.ndarray,
    s_horizon: float,
    rel_tol: float = _FRAME_REL_TOL,
    stationary_tol: float = 1e-12,
):
    """Vectorised frame-equation classification with component freezing.

    Returns (status codes, exit times, terminal values, accepted steps,
    field evaluations).  Codes: 0 survived to the horizon, 1 escaped
    through zero (``FRAME_ZERO_FLOOR``), 2 exited at the singular floor
    (``FRAME_SING_FLOOR``), 3 stalled undecided.  Components parked at an
    attracting fixed point (drift below ``stationary_tol`` inside the band)
    are certified early: explicit stepping is stability-capped there, so
    waiting out a long horizon step by step would dominate the cost for
    nothing.  A one-start batch is ``_classify_frame_one``, and equals the
    same start run in a wider batch.
    """
    y = np.asarray(x0s, dtype=float).copy()
    if y.size == 1:
        code, s_exit, path = _classify_frame_one(xi, y[0], s_horizon, rel_tol, stationary_tol)
        return np.array([code]), np.array([s_exit]), np.array([path.terminal_value]), path.nsteps, path.nfev

    cfg, at, field = _frame_field(xi, rel_tol)
    code = np.zeros(y.size, dtype=int)
    s_exit = np.full(y.size, np.nan)
    # the stepper carries the live components only; an exit rebuilds it on
    # the survivors with the current step size.  y holds the start of each
    # component until it exits or stalls, and its last state after that.
    live = np.arange(y.size)
    st = _Stepper(field, 0.0, y, s_horizon, cfg)
    nsteps = nfev = 0
    while st.t < s_horizon:
        if st.step() == "underflow":
            # stalled: the stiffest components (smallest gap) exit singular
            # when at the floor and the others go on with a fresh stepper;
            # a stall with no live component at the floor leaves them all
            # undecided rather than mislabelled
            gap = at(st.t) - st.y
            if gap.min() > 10 * FRAME_SING_FLOOR:
                code[live] = 3
                s_exit[live] = st.t
                break
            stiff = gap == gap.min()  # the field's stiffness is 4 / gap^2
            code[live[stiff]] = 2
            s_exit[live[stiff]] = st.t
            y[live[stiff]] = st.y[stiff]
            live = live[~stiff]
            if not live.size:
                break
            nfev += st.nfev
            st = _Stepper(field, st.t, st.y[~stiff], s_horizon, cfg)
            continue
        nsteps += 1
        xiv = at(st.t)
        # (xiv - y rounds monotonically in y, so its least value is xiv - max y)
        if np.minimum.reduce(st.y) <= FRAME_ZERO_FLOOR or xiv - np.maximum.reduce(st.y) <= FRAME_SING_FLOOR:
            out = np.where(st.y <= FRAME_ZERO_FLOOR, 1, np.where(xiv - st.y <= FRAME_SING_FLOOR, 2, 0))
            code[live] = out
            s_exit[live[out > 0]] = st.t
            y[live] = st.y
            keep = out == 0
            live = live[keep]
            if not live.size:
                break
            h = st.h
            nfev += st.nfev
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
    if live.size:
        y[live] = st.y
    return code, s_exit, y, nsteps, nfev + st.nfev


def _classify_frame_one(
    xi: Callable, x0, s_horizon: float, rel_tol: float = _FRAME_REL_TOL, stationary_tol: float = 1e-12
):
    """``_classify_frame_batch`` on one start: (code, exit time, path).

    The run takes the stepper's float lane with scalar exit and park tests;
    the path holds its accepted steps and counts.
    """
    cfg, at, field = _frame_field(xi, rel_tol)
    st = _Stepper(field, 0.0, x0, s_horizon, cfg)
    times, values = [st.t], [st.y]
    code, s_exit, nsteps = 0, np.nan, 0
    while st.t < s_horizon:
        if st.step() == "underflow":
            code, s_exit = (3 if at(st.t) - st.y > 10 * FRAME_SING_FLOOR else 2), st.t
            break
        nsteps += 1
        times.append(st.t)
        values.append(st.y)
        xiv = at(st.t)
        if st.y <= FRAME_ZERO_FLOOR:
            code, s_exit = 1, st.t
            break
        if xiv - st.y <= FRAME_SING_FLOOR:
            code, s_exit = 2, st.t
            break
        if (
            nsteps % 8 == 0
            and abs(st.k1) <= stationary_tol * max(1.0, abs(st.y))
            and st.y >= CAPTURE_BAND_FLOOR
            and xiv - st.y >= 10 * FRAME_SING_FLOOR
        ):
            break
    times, values = np.array(times, dtype=float), np.array(values, dtype=float)
    return code, s_exit, SolutionPath(times, values, None, nsteps, st.nrejected, st.nfev)


@dataclass
class ScanResult:
    """Interval estimate of the set of points captured exactly at T."""

    T: float
    members: np.ndarray
    interval: Optional[tuple[float, float]]
    mirrored_interval: Optional[tuple[float, float]]
    reports: list
    cell: float
    notes: str = ""
    nsteps: int = 0  # accepted frame steps, base batch and refinement probes
    nprobes: int = 0  # one-start refinement runs
    nfev: int = 0  # frame field evaluations, base batch and refinement probes


def _scan_one_side(
    spec: DrivingSpec,
    T: float,
    grid: Optional[np.ndarray],
    refine: bool,
    refine_tol: float,
) -> ScanResult:
    """The scan of the upper side; ``capture_scan`` adds the mirrored one."""

    def nothing(note):
        return ScanResult(T, np.array([]), None, None, [], 0.0, note)

    xi = FrameDriving(spec, T)
    frame, lam_T = xi.frame, xi.frame.lambda_T
    member_tol = 1e-4 * T  # a capture this close to T counts as one at T
    lam_0 = float(spec(0.0))
    # record precheck: capture from above requires lambda(T) to be a record
    probe = np.linspace(0.0, T, 4097)
    lam_max = float(np.max(spec(probe[:-1])))
    scale = max(1.0, abs(lam_T))
    if lam_T < lam_max - 1e-7 * scale:
        return nothing("lambda(T) is not a running maximum; no capture at T from above")

    xi0 = float(xi(0.0))
    if xi0 <= 0:
        return nothing("degenerate frame driving")

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
    code = np.full(grid.size, -1)
    s_exit = np.full(grid.size, np.nan)
    x_end = np.full(grid.size, np.nan)
    nsteps = nfev = 0
    probe_cost = []  # (steps, field evaluations) of each refinement probe
    if np.any(runnable):
        code[runnable], s_exit[runnable], x_end[runnable], nsteps, nfev = _classify_frame_batch(
            xi, x_frame[runnable], SCAN_HORIZON_S
        )

    xi_end = xi.at(SCAN_HORIZON_S)
    for i, X0 in enumerate(grid):
        if code[i] == 2:
            t_cap = frame.t_of_s(float(s_exit[i]))
            member_mask[i] = abs(t_cap - T) <= member_tol
            reports.append(
                CaptureReport(float(X0), "captured", float(t_cap), "singular_floor", SCAN_HORIZON_S)
            )
        elif code[i] == 0 and CAPTURE_BAND_FLOOR <= x_end[i] <= xi_end - CAPTURE_BAND_FLOOR:
            member_mask[i] = True
            reports.append(CaptureReport(float(X0), "captured", T, "fixed_point_band", SCAN_HORIZON_S))
        else:
            # code -1 (not runnable) and 1 escape; a survivor outside the band and 3 are undecided
            status = "escaped" if code[i] in (-1, 1) else "undecided"
            reports.append(CaptureReport(float(X0), status, None, "horizon_exhausted", SCAN_HORIZON_S))

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
                c, se, path = _classify_frame_one(xi, xf, s_ext, rel_tol=1e-11, stationary_tol=1e-9)
                probe_cost.append((path.nsteps, path.nfev))
                if c == 2:  # capture strictly before T: member only within tol
                    return abs(frame.t_of_s(se) - T) <= member_tol
                return c == 0 and path.terminal_value >= CAPTURE_BAND_FLOOR

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
    return ScanResult(
        T, members, interval, None, reports, cell,
        nsteps=nsteps + sum(n for n, _ in probe_cost), nprobes=len(probe_cost),
        nfev=nfev + sum(nf for _, nf in probe_cost),
    )


def _refine_edge(pred, inside: float, outside: float, tol: float) -> float:
    """Bisect the boundary of {pred} between a point inside and one outside.

    ``inside`` must satisfy ``pred``: the caller has certified it, and
    ``pred`` is deterministic, so it is not probed again.
    """
    if pred(outside):
        return outside
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
    scan = _scan_one_side(spec, T, grid, refine, refine_tol)
    if mirrored:
        # the mirrored side always scans its own default grid: user grids
        # describe the upper side only
        m = _scan_one_side(spec.reflected(), T, None, refine, refine_tol)
        if m.interval is not None:
            scan.mirrored_interval = (-m.interval[1], -m.interval[0])
        for r in m.reports:
            r.initial = -r.initial
        scan.reports = scan.reports + m.reports
        if m.notes and not scan.notes:
            scan.notes = f"mirrored side: {m.notes}"
        scan.nsteps += m.nsteps
        scan.nprobes += m.nprobes
        scan.nfev += m.nfev
    return scan
