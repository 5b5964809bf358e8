"""Imaginary Loewner equation, its transformed flows, and vanishing tests.

Writing g = X + iY, the point evolution splits into the planar system

    dX/dt = 2 (X - lambda) / ((X - lambda)^2 + Y^2),
    dY/dt = -2 Y / ((X - lambda)^2 + Y^2),

and with theta = X - lambda the height obeys dY/dt = -2Y/(theta^2 + Y^2)
on its own.  A driving theta >= 0 "vanishes at T" when some positive
solution reaches 0 exactly at T.  The same square-root rescaling and
logarithmic time change as on the real side produce

    dy/ds = y - 4 y / (eta^2 + y^2)          (height flow)
    dw/ds = w - 4 w / (eta^2 + eta w)        (difference flow)

where eta is the rescaled gap; vanishing at T becomes e^{-s} y -> 0.  The
height flow carries a clean certificate: a solution is vanishing iff it
stays below 2, and touching 2 with positive drive forces exponential
growth.  The difference flow governs gaps between real solutions sharing a
driving and has no such threshold; its non-vanishing certificate is the
differential inequality dw/w >= 1 - 4/(eta (eta + w)) > 0.

Deciding vanishing numerically near the threshold cannot be done from the
magnitude of Y alone: solutions on both sides collapse below any floor by
time T.  Classification therefore runs in the transformed frame, chasing
either the threshold certificate or a decisive decay trend, extending the
horizon until one of them lands (or a hard cap is reached).  Both frame
flows run in u = log y, where the drive du/ds = 1 - 4/(eta^2 + y^2) (or
1 - 4/(eta^2 + eta w)) lies in [1 - 4/eta^2, 1]: under a small gap y decays
at the stiff rate 4/eta^2, while u falls at a bounded one.  Each horizon is
one run from s = 0 whose one guard is u crossing log(2 + THRESHOLD_MARGIN);
only a gap touching 0 sends u to -infinity in finite s, and that run stops
short of its horizon (vanishing).  An original-time start at or below
``SINGULARITY_FLOOR`` goes straight to the frame, with witness T.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from .driving import DrivingSpec
from .errors import DomainError, NumericalError
from .ode import SINGULARITY_FLOOR, Event, IntegratorConfig, SolutionPath, integrate_until
from .quadrature import bisect_root, quad

__all__ = [
    "VanishClassification",
    "solve_planar",
    "solve_imaginary",
    "solve_frame_imaginary",
    "solve_frame_difference",
    "ramp_ode_terminal",
    "growth_floor",
    "driving_from_gap",
    "gap_duality_check",
    "classify_sqrt_gap",
]

THRESHOLD_MARGIN = 1e-6     # strictness above the level-2 certificate
VANISH_THRESHOLD = 1e-12    # e^{-s} y below this with the right trends
TREND_WINDOW = 5.0
FRAME_HORIZON_S = 40.0      # first horizon of the frame flows
S_CAP = 2000.0              # last horizon the trend classifiers extend to
# the difference flow is certified non-vanishing once w clears its lower
# comparison curve max(0, 4/eta - eta) by this much on the trailing window
COMPARISON_MARGIN = 1e-3
# the transformed flows cap the step so trailing trend windows always hold
# enough samples (below abs_tol the error control would let steps explode)
_FLOW_CONFIG = IntegratorConfig(max_step=0.5)
# the log field: below _DRIVE_FLOOR, 4/(...) leaves double range; a drive
# within _DRIVE_ROUNDING of 0 is rounding, and is 0 so that a start on a
# (repelling) fixed point stays there.  The state u reaches the field only
# through math.exp, which returns a Python float even when the stepper
# replays a failed attempt on numpy operands; np.float64 constants keep the
# field's arithmetic numpy's, so np.errstate decides a zero division (with
# Python floats it would raise ZeroDivisionError on the replay as well)
_DRIVE_FLOOR = 4.0 / np.finfo(float).max
_DRIVE_ROUNDING = 4.0 * np.finfo(float).eps
_ZERO, _ONE, _FOUR, _NEG_INF = (np.float64(v) for v in (0.0, 1.0, 4.0, -np.inf))


@dataclass
class VanishClassification:
    status: str  # vanishing | not_vanishing_certified | undecided
    certificate: str  # y_crossed_2 | closed_form | comparison | horizon
    witness_time: Optional[float] = None


# ---------------------------------------------------------------------------
# planar point evolution
# ---------------------------------------------------------------------------


def solve_planar(
    spec: DrivingSpec,
    z0: complex,
    horizon: float,
) -> tuple[SolutionPath, Optional[object]]:
    """Evolve one complex point; capture when |z - lambda| hits the floor.

    The height Y is strictly decreasing; capture requires the full gap
    (X - lambda)^2 + Y^2 to collapse, which the squared guard tracks with an
    O(1) slope.
    """
    z0 = complex(z0)
    if z0.imag < 0:
        raise DomainError("initial point must lie in the closed upper half-plane")
    if z0.imag == 0 and z0.real == float(spec(0.0)):
        raise DomainError("initial point coincides with lambda(0)")
    floor2 = SINGULARITY_FLOOR**2

    def fieldf(t, u):
        dx = u[0] - spec(t)
        D = dx * dx + u[1] * u[1]
        return np.array([2.0 * dx / D, -2.0 * u[1] / D])

    def guard(t, u):
        dx = u[0] - spec(t)
        return dx * dx + u[1] * u[1] - floor2

    horizon = min(float(horizon), spec.T)
    path = integrate_until(
        fieldf, np.array([z0.real, z0.imag]), (0.0, horizon), guard, guard_kind="capture"
    )
    ev = path.event
    if ev is not None and ev.kind == "horizon":
        # capture exactly at the horizon: the guard crossing sits below time
        # resolution and the final singular step can commit a noisy small
        # value, so points landing within 1e-3 of the singular point are
        # reported captured (finer classification is not supported there)
        X, Y = path.values[-1]
        g = guard(path.terminal_time, np.array([X, Y]))
        scale = max(1.0, abs(z0))
        if np.hypot(X - float(spec(path.terminal_time)), Y) <= 1e-3 * scale:
            ev = Event("capture", path.terminal_time, float(abs(g)), 0.0)
            path.event = ev
    return path, ev


# ---------------------------------------------------------------------------
# transformed flows with trend classification
# ---------------------------------------------------------------------------


def _log_field(eta, kind):
    """du/ds = 1 - 4/(eta^2 + e^{2u}) (height) or 1 - 4/(eta^2 + eta e^u) (difference).

    The drive is 1 where e^{2u} or eta e^u leaves double range, and -inf where
    a zero gap makes 4/(...) leave it (u collapses there; the stepper shrinks
    the step until the run stops).  Any other floating-point failure is numpy's.
    """
    height = kind == "height"

    def f(s, u):
        e = eta(s)
        try:
            g = math.exp(2.0 * u) if height else e * math.exp(u)
        except OverflowError:
            return _ONE
        d = e * e + g
        if e == 0.0 and d < _DRIVE_FLOOR:
            return _NEG_INF
        r = 1.0 - _FOUR / d
        return r if abs(r) > _DRIVE_ROUNDING else _ZERO

    return f


def _classify_flow(
    eta: Callable,
    y0: float,
    kind: str,  # "height" or "difference"
    s_horizon: float,
) -> tuple[SolutionPath, VanishClassification]:
    if not 0.0 < y0 < np.inf:
        raise DomainError(f"initial value must be positive and finite, got {y0!r}")
    if not s_horizon <= S_CAP:  # NaN fails too
        raise DomainError(f"horizon must be at most S_CAP = {S_CAP}, got {s_horizon!r}")
    if not float(np.asarray(eta(0.0))) >= 0:
        raise DomainError("gap driving must be nonnegative")
    field, u0, target = _log_field(eta, kind), math.log(y0), max(s_horizon, 10.0)
    # a height start at or above the threshold never vanishes (its drive is positive)
    above = kind == "height" and y0 >= 2.0 + THRESHOLD_MARGIN
    u_top = math.log(2.0 + THRESHOLD_MARGIN)
    guard = (lambda s, u: u - u_top) if kind == "height" else None
    cls = None
    while cls is None:
        path = integrate_until(field, u0, (0.0, target), guard, _FLOW_CONFIG)
        ev = path.event
        if above or (ev is not None and ev.kind == "threshold"):
            cls = VanishClassification("not_vanishing_certified", "y_crossed_2",
                                       0.0 if above else ev.time)
        elif path.terminal_time < target:
            # the run stopped short of its span: u collapsed under a zero gap
            cls = VanishClassification("vanishing", "horizon", path.terminal_time)
        else:
            cls = _window_verdict(path, eta, kind)
            if cls is None and target >= S_CAP:
                cls = VanishClassification("undecided", "horizon", None)
            target = min(S_CAP, 2.0 * target)
    return replace(path, values=np.exp(path.values)), cls


def _window_verdict(path: SolutionPath, eta, kind) -> Optional[VanishClassification]:
    """Decide from the trailing window of a path in u, or return None to keep extending."""
    s_end = path.terminal_time
    mask = path.times >= s_end - TREND_WINDOW
    if np.count_nonzero(mask) < 4:
        return None
    ss = path.times[mask]
    uu = np.asarray(path.values[mask], dtype=float)
    yy = np.exp(uu)
    scaled = np.exp(uu - ss)

    if kind == "difference":
        ev = np.asarray(eta(ss), dtype=float)
        lower = np.maximum(0.0, 4.0 / np.maximum(ev, 1e-300) - ev)
        growing = yy[-1] > yy[0] * (1 + 1e-12)
        if np.all(yy >= lower + COMPARISON_MARGIN) and growing:
            return VanishClassification("not_vanishing_certified", "comparison", float(ss[0]))

    decaying = scaled[-1] < VANISH_THRESHOLD and scaled[-1] <= scaled[0]
    y_not_growing = yy[-1] <= yy[0] * (1 + 1e-9) + 1e-12
    if decaying and y_not_growing:
        return VanishClassification("vanishing", "horizon", float(path.terminal_time))
    return None


def solve_frame_imaginary(
    eta: Callable,
    y0: float,
    s_horizon: float = FRAME_HORIZON_S,
) -> tuple[SolutionPath, VanishClassification]:
    """Height flow dy/ds = y - 4y/(eta^2 + y^2) with trend classification.

    Certificates: crossing 2 (strictly, so the stationary boundary case at
    exactly 2 with zero gap is not misread) certifies non-vanishing; a
    trailing window with e^{-s} y below threshold, decreasing, and y itself
    not growing is classified vanishing.  A growing subthreshold solution
    extends the horizon, up to ``S_CAP``, until the threshold certificate
    can fire; an ``s_horizon`` above ``S_CAP`` raises DomainError.
    """
    return _classify_flow(eta, y0, "height", s_horizon)


def solve_frame_difference(
    eta: Callable,
    w0: float,
    s_horizon: float = FRAME_HORIZON_S,
) -> tuple[SolutionPath, VanishClassification]:
    """Difference flow dw/ds = w - 4w/(eta^2 + eta w).

    There is no level-2 certificate here (the flow admits unbounded
    vanishing solutions); non-vanishing is certified from the differential
    inequality dw/w >= 1 - 4/(eta(eta+w)) >= delta > 0, checked as
    w >= max(0, 4/eta - eta) + COMPARISON_MARGIN uniformly on a growing
    trailing window.  ``s_horizon`` is at most ``S_CAP``, as for the height
    flow.
    """
    e_samples = np.asarray(eta(np.linspace(0.0, min(s_horizon, 50.0), 501)), dtype=float)
    if np.any(e_samples <= 0):
        raise DomainError("difference flow requires strictly positive gap driving")
    return _classify_flow(eta, w0, "difference", s_horizon)


# ---------------------------------------------------------------------------
# original-time imaginary equation
# ---------------------------------------------------------------------------


def solve_imaginary(
    theta: Callable,
    y0: float,
    T: float,
    frame_eta: Callable,
) -> tuple[SolutionPath, VanishClassification]:
    """Integrate dY/dt = -2Y/(theta^2 + Y^2) and classify vanishing by T.

    A floor crossing strictly before T is decisive.  Near T it is not:
    solutions on both sides of the vanishing transition collapse below any
    floor, so the ambiguous band is reclassified in the transformed frame
    by the rescaled gap ``frame_eta``(s) = theta(T - T e^{-2s}) e^{s} /
    sqrt(T), which the caller gives in a form that keeps its accuracy as
    T - t falls below the resolution of T.
    """
    if y0 <= 0:
        raise DomainError("initial height must be positive")
    floor2 = SINGULARITY_FLOOR**2

    def fieldf(t, y):
        th = float(np.asarray(theta(t)))
        return -2.0 * y / (th * th + y * y)

    def guard(t, y):
        return y * y - floor2

    # a start at or below the floor cannot cross the squared guard, and a
    # state below abs_tol crawls at steps of about theta^2: the frame decides
    if y0 > SINGULARITY_FLOOR:
        path = integrate_until(fieldf, float(y0), (0.0, T), guard, guard_kind="vanish")
    else:
        path = SolutionPath(np.array([0.0]), np.array([float(y0)]))
    ev = path.event
    hit_time = ev.time if ev is not None and ev.kind in ("vanish", "blow_up") else None
    if hit_time is not None and hit_time < T * (1 - 1e-6):
        return path, VanishClassification("vanishing", "horizon", hit_time)

    terminal = float(np.asarray(path.terminal_value))
    # solutions on both sides of the transition collapse near T, and a final
    # step landing exactly on a singular endpoint can commit a noisy small
    # value, so anything small near T is handed to the frame
    ambiguous = hit_time is not None or terminal <= 1e-3 * max(1.0, y0)
    if not ambiguous:
        return path, VanishClassification("not_vanishing_certified", "horizon", T)

    _, cls = solve_frame_imaginary(frame_eta, y0 / np.sqrt(T))
    if cls.status == "vanishing":
        witness = hit_time if hit_time is not None else T
        return path, VanishClassification("vanishing", cls.certificate, witness)
    if cls.status == "not_vanishing_certified":
        return path, VanishClassification("not_vanishing_certified", cls.certificate, T)
    return path, VanishClassification("undecided", "horizon", None)


# ---------------------------------------------------------------------------
# explicit ramp solution and the vanishing transition
# ---------------------------------------------------------------------------


def ramp_ode_terminal(c: float, eps: float, T: float) -> float:
    """Terminal value y(T) of dy/dt = 2y/(y^2 + c t), y(0) = eps.

    Treating t as a function of y makes the equation linear; the implicit
    solutions

        c != 4:  t = (y^2 - eps^{2 - c/2} y^{c/2}) / (4 - c)
        c == 4:  t = y^2 log(y/eps) / 2

    are solved for y by bracketed root finding.  As eps -> 0 the terminal
    value tends to sqrt(T (4 - c)) below c = 4 and to 0 at or above it.
    """
    if c < 0 or eps <= 0 or T <= 0:
        raise DomainError("need c >= 0, eps > 0, T > 0")

    if c == 4.0:
        def t_of_y(y):
            return 0.5 * y * y * np.log(y / eps)
    else:
        def t_of_y(y):
            return (y * y - eps ** (2 - c / 2) * y ** (c / 2)) / (4.0 - c)

    y_lo = eps
    y_hi = (np.sqrt((4.0 - c) * T) + eps + 1.0) if c < 4.0 else 2.0 * eps
    for _ in range(400):
        if t_of_y(y_hi) > T:
            break
        y_hi *= 2.0
    else:
        raise NumericalError(f"no bracket found for the ramp solution (c={c})")
    try:
        return bisect_root(lambda u: t_of_y(u) - T, y_lo, y_hi)
    except NumericalError as exc:
        raise NumericalError(f"ramp root finding failed for c={c}, eps={eps}: {exc}") from exc


@dataclass
class TransitionResult:
    C: float
    T: float
    status: str  # vanishing | not_vanishing | boundary_not_vanishing
    witness_y0: Optional[float]
    run: VanishClassification


def classify_sqrt_gap(C: float, T: float) -> TransitionResult:
    """Vanishing classification of the gap theta(t) = C sqrt(T - t).

    The transition sits at C = 2: below it the explicit initial height
    sqrt(T (4 - C^2)) vanishes exactly at T, at and above it no positive
    solution vanishes.  Each label is backed by an integration run (the
    rescaled gap is the constant C, passed analytically).
    """
    if C < 0:
        raise DomainError("need C >= 0")

    def theta(t):
        return C * np.sqrt(np.maximum(T - np.asarray(t, dtype=float), 0.0))

    eta_const = lambda s: C + 0.0 * np.asarray(s)
    if C < 2.0:
        w = float(np.sqrt(T * (4.0 - C * C)))
        _, cls = solve_imaginary(theta, w, T, frame_eta=eta_const)
        status = "vanishing"
        if cls.status == "vanishing":
            cls = VanishClassification("vanishing", "closed_form", cls.witness_time)
        return TransitionResult(C, T, status, w, cls)
    y0 = np.sqrt(T)  # any positive probe height
    _, cls = solve_imaginary(theta, y0, T, frame_eta=eta_const)
    status = "boundary_not_vanishing" if C == 2.0 else "not_vanishing"
    return TransitionResult(C, T, status, None, cls)


# ---------------------------------------------------------------------------
# growth floor of the height flow
# ---------------------------------------------------------------------------


@dataclass
class GrowthFloor:
    value: float
    error: float
    diverged: bool  # gap touched zero: the floor is -infinity


def growth_floor(eta: Callable, t: float) -> GrowthFloor:
    """L(t) = integral_0^t (1 - 4/eta(s)^2) ds for a finite t >= 0.

    Along any solution of the height flow, log y(t) - log y(0) >= L(t), so
    L -> -infinity is necessary for vanishing.  A gap touching zero (at most
    1e-12 on a 4097-point grid) makes the integrand -infinity; this is
    reported as ``diverged``.  A NaN gap raises DomainError, and a
    quadrature that QUADPACK flags as doubtful raises NumericalError.
    """
    if not 0.0 <= t < np.inf:
        raise DomainError(f"growth floor time must be a finite number >= 0, got {t!r}")
    samples = np.asarray(eta(np.linspace(0.0, t, 4097)), dtype=float)
    if np.any(np.isnan(samples)):
        raise DomainError("growth floor gap is NaN")
    if np.any(samples <= 1e-12):
        return GrowthFloor(-np.inf, 0.0, True)

    def integrand(s):
        e = float(np.asarray(eta(s)))
        return 1.0 - 4.0 / (e * e)

    val, err = quad(integrand, 0.0, t, 400)
    return GrowthFloor(float(val), float(err), False)


# ---------------------------------------------------------------------------
# gap <-> driving correspondence
# ---------------------------------------------------------------------------


def driving_from_gap(
    eta: Callable,
    t_grid,
    domain_end: Optional[float] = None,
) -> np.ndarray:
    """Reconstruct the frame driving from a captured solution's gap:

        xi(t) = eta(t) + integral_0^inf 4 e^{-s} / eta(t + s) ds.

    The integrand decays at least like e^{-s}/min(eta); integration runs to
    s = 50 (or to the end of the represented domain) and the remainder uses
    a log-linear decay fit on the last decade of the window.  A quadrature
    that QUADPACK flags as doubtful raises NumericalError.
    """
    t_grid = np.atleast_1d(np.asarray(t_grid, dtype=float))
    out = np.empty_like(t_grid)
    for i, t in enumerate(t_grid):
        span = 50.0 if domain_end is None else min(50.0, domain_end - t)
        if span <= 1.0:
            raise DomainError(f"gap domain too short at t={t}")

        def integrand(s):
            e = float(np.asarray(eta(t + s)))
            if e <= 0:
                raise DomainError(f"gap not positive at s={t + s}")
            return 4.0 * np.exp(-s) / e

        val, _ = quad(integrand, 0.0, span, 800)
        # tail continuation from a decay fit over the last decade
        ss = np.linspace(0.9 * span, span, 17)
        gs = np.array([integrand(x) for x in ss])
        if np.any(gs <= 0):
            raise DomainError("gap integrand not positive on the tail window")
        slope = np.polyfit(ss, np.log(gs), 1)[0]
        if slope >= -0.05:
            raise DomainError("gap integral tail does not decay")
        tail = gs[-1] / (-slope)
        out[i] = float(np.asarray(eta(t))) + val + tail
    return out


@dataclass
class DualityReport:
    max_deviation: float
    argmax_t: float
    t: np.ndarray
    reconstructed: np.ndarray
    driving: np.ndarray


def gap_duality_check(
    xi: Callable,
    eta: Callable,
    t_grid,
    domain_end: Optional[float] = None,
) -> DualityReport:
    """Verify xi == H(eta) for the gap eta = xi - x_hat of a captured solution x_hat of xi."""
    t_grid = np.atleast_1d(np.asarray(t_grid, dtype=float))
    rec = driving_from_gap(eta, t_grid, domain_end=domain_end)
    target = np.asarray(xi(t_grid), dtype=float)
    dev = np.abs(rec - target)
    k = int(np.argmax(dev))
    return DualityReport(float(dev[k]), float(t_grid[k]), t_grid, rec, target)
