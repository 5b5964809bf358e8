"""Adaptive embedded Runge-Kutta integration with guarded event detection.

The fields integrated in this package are smooth away from a singular set
(capture of the Loewner equation, vanishing of the imaginary part), so the
engine is a Dormand-Prince 5(4) pair with PI step control and first-same-
as-last reuse.  What is bespoke is the exit discipline:

* guards are evaluated at every accepted step and crossings are refined by
  bisection (re-integrating over the shrinking bracket) until the time
  bracket is below ``abs_tol``;
* a step-size underflow next to a singular denominator is never allowed to
  produce NaNs: with a guard armed and nearly crossed it is promoted to the
  guard's event, with the state near zero it becomes a ``vanish`` event,
  otherwise a ``blow_up`` event.

Guards that vanish like a square root at the singular time (capture and
vanishing gaps) should be passed in squared form, e.g. ``gap**2 - floor**2``;
the squared gap has an O(1) time derivative at the crossing, which is what
makes the residual and bracket guarantees attainable in double precision.

States may be scalars or 1-d arrays, real or complex.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import ConfigError, DomainError, NumericalError

__all__ = ["IntegratorConfig", "Event", "SolutionPath", "integrate", "integrate_until"]

# distance to the singular set at which the solvers' guards report an exit
SINGULARITY_FLOOR = 1e-9


@dataclass(frozen=True)
class IntegratorConfig:
    rel_tol: float = 1e-10
    abs_tol: float = 1e-10
    max_step: float = np.inf
    min_step: float = 1e-14
    max_steps: int = 10_000_000

    def __post_init__(self):
        if not (0 < self.min_step <= self.max_step):
            raise ConfigError("need 0 < min_step <= max_step")
        if self.rel_tol <= 0 or self.abs_tol <= 0:
            raise ConfigError("tolerances must be positive")


DEFAULT_CONFIG = IntegratorConfig()

EVENT_KINDS = ("capture", "vanish", "threshold", "blow_up", "horizon")


@dataclass(frozen=True)
class Event:
    kind: str
    time: float
    residual: float
    bracket: float = 0.0


@dataclass
class SolutionPath:
    times: np.ndarray
    values: np.ndarray
    event: Optional[Event] = None
    nsteps: int = 0
    nrejected: int = 0
    nfev: int = 0  # field evaluations, event bisection included

    @property
    def terminal_time(self) -> float:
        return float(self.times[-1])

    @property
    def terminal_value(self):
        v = self.values[-1]
        return v.item() if np.ndim(v) == 0 or (np.ndim(v) == 1 and v.size == 1) else v


# Dormand-Prince 5(4) tableau; row i of _AM weighs the stages before stage i
_C = (0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0)
_AM = np.zeros((7, 7))
_AM[np.tril_indices(7, -1)] = (
    1 / 5,
    3 / 40, 9 / 40,
    44 / 45, -56 / 15, 32 / 9,
    19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729,
    9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656,
    35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84,
)
_A_ROWS = tuple(_AM[i, :i] for i in range(7))
_B5 = _AM[6]  # the 5th-order weights are the last stage's input row (FSAL)
_B4 = np.array(
    [5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200, 187 / 2100, 1 / 40]
)
_ERR = _B5 - _B4

# the smallest step, relative to |t|, that still moves t in double precision
_TIME_RESOLUTION = 8 * np.finfo(float).eps


class _Stepper:
    """One integration run; owns the adaptive loop state.

    Scalar states run as 1-element arrays through the same code as batch
    states.  The stage derivatives of an attempt fill the rows of one
    array ``K`` whose row 0 is the FSAL derivative at the current point;
    ``nfev`` counts every field evaluation, failed ones included.
    """

    def __init__(self, field, t0, y0, t1, cfg: IntegratorConfig):
        self.f = field
        self.t = float(t0)
        self.t1 = float(t1)
        self.cfg = cfg
        y = np.atleast_1d(np.asarray(y0))
        if y.dtype.kind not in "fc":
            y = y.astype(float)
        self.scalar = np.ndim(y0) == 0
        self.y = y.copy()
        self.scale0 = max(1.0, float(np.max(np.abs(y))))
        self.nfev = 0
        k1 = self._eval(self.t, self.y)
        if k1 is None:
            raise DomainError(f"field not finite at the initial point t={t0}")
        self.K = np.empty((7, y.size), dtype=np.result_type(y, k1, np.float64))
        self.K[0] = k1
        self.k1 = self.K[0]
        self.err_prev = 1.0
        self.h = self._initial_step()
        self.nsteps = 0
        self.nrejected = 0

    def _eval(self, t, y):
        out = self.f(t, y[0] if self.scalar else y)
        self.nfev += 1
        if type(out) is not np.ndarray or out.ndim != 1:
            out = np.atleast_1d(np.asarray(out))
        if not np.isfinite(out).all():
            return None
        return out

    def _norm(self, err, y_old, y_new):
        r = err / (self.cfg.abs_tol + self.cfg.rel_tol * np.maximum(np.abs(y_old), np.abs(y_new)))
        return math.sqrt(np.vdot(r, r).real / r.size)

    def _initial_step(self):
        span = self.t1 - self.t
        sc = self.cfg.abs_tol + self.cfg.rel_tol * np.abs(self.y)
        d0 = np.sqrt(np.mean(np.abs(self.y / sc) ** 2))
        d1 = np.sqrt(np.mean(np.abs(self.k1 / sc) ** 2))
        h0 = 1e-6 * span if d1 == 0 else 0.01 * d0 / d1
        return float(np.clip(h0, 1e-8 * span, min(span, self.cfg.max_step)))

    def _min_step_at(self, t):
        return max(self.cfg.min_step, _TIME_RESOLUTION * max(abs(t), 1e-3))

    def step(self, h_cap=np.inf):
        """Advance one accepted step; returns "ok" or "underflow"."""
        cfg = self.cfg
        if self.t1 - self.t <= self._min_step_at(self.t):
            # the remaining sliver of the span is below time resolution:
            # snap to the endpoint rather than reporting an underflow
            self.t = self.t1
            return "ok"
        K, t, y = self.K, self.t, self.y
        while True:
            h_free = min(self.h, self.t1 - t, cfg.max_step)
            if h_free <= self._min_step_at(t):
                return "underflow"
            h = min(h_free, h_cap)
            for i in range(1, 7):
                yi = y + h * (_A_ROWS[i] @ K[:i])
                ki = self._eval(t + _C[i] * h, yi)
                if ki is None:
                    break
                K[i] = ki
            else:
                # stage 7 input is the 5th-order solution
                enorm = self._norm(h * (_ERR @ K), y, yi)
                if enorm <= 1.0:
                    # PI controller (accepted)
                    fac = 0.9 * (enorm + 1e-16) ** -0.14 * (self.err_prev + 1e-16) ** 0.04
                    self.h = h * min(max(fac, 0.2), 10.0)
                    self.err_prev = max(enorm, 1e-16)
                    self.t = t + h
                    self.y = yi
                    K[0] = K[6]  # FSAL: self.k1 is this row
                    self.nsteps += 1
                    if self.nsteps + self.nrejected > cfg.max_steps:
                        raise NumericalError("max_steps exceeded")
                    return "ok"
                if math.isfinite(enorm):
                    self.h = h * min(max(0.9 * enorm**-0.2, 0.1), 0.9)
                    self.nrejected += 1
                    continue
            # a stage or the error norm is not finite
            self.h = h / 2
            self.nrejected += 1

    def state(self):
        return self.t, (self.y[0] if self.scalar else self.y.copy())


def _advance(field, t0, y0, t1, cfg) -> _Stepper:
    """Integrate without recording; used by event bisection."""
    st = _Stepper(field, t0, y0, t1, cfg)
    while st.t < t1:
        if st.step() == "underflow":
            break
    return st


def _classify_underflow(t, y, guards, guard_vals, scale0, cfg):
    if guards:
        j = int(np.argmin(np.abs(guard_vals)))
        if abs(guard_vals[j]) <= max(100 * cfg.abs_tol, 1e-8):
            return Event(guards[j][1], t, float(abs(guard_vals[j])), 0.0)
    ymin = float(np.min(np.abs(np.atleast_1d(y))))
    if ymin <= 1e-4 * scale0:
        return Event("vanish", t, ymin, 0.0)
    return Event("blow_up", t, ymin, 0.0)


def _bisect_event(field, t_lo, y_lo, g_lo, t_hi, guard, cfg):
    """Shrink [t_lo, t_hi] around the first sign change of guard."""
    tol_w = max(0.25 * cfg.abs_tol, _TIME_RESOLUTION * max(1.0, abs(t_hi)))
    g_mid = g_lo
    nfev = 0
    for _ in range(90):
        if t_hi - t_lo <= tol_w:
            break
        t_mid = 0.5 * (t_lo + t_hi)
        if t_mid <= t_lo or t_mid >= t_hi:
            break
        st = _advance(field, t_lo, y_lo, t_mid, cfg)
        nfev += st.nfev
        y_mid = st.state()[1]
        g_mid = guard(t_mid, y_mid)
        if np.sign(g_mid) == np.sign(g_lo) and g_mid != 0.0:
            t_lo, y_lo, g_lo = t_mid, y_mid, g_mid
        else:
            t_hi = t_mid
    return 0.5 * (t_lo + t_hi), float(abs(g_mid)), t_hi - t_lo, y_lo, nfev


def integrate(
    field: Callable,
    y0,
    span,
    cfg: Optional[IntegratorConfig] = None,
    *,
    t_stops: Optional[Sequence[float]] = None,
) -> SolutionPath:
    """Integrate y' = field(t, y) over span = (t0, t1).

    The path terminates at t1 (no event) or at a singular exit, which is
    always classified (vanish near zero state, blow_up otherwise), never a
    silent NaN.  ``t_stops`` forces the stepper to land on the given times.
    """
    return integrate_until(field, y0, span, None, cfg, t_stops=t_stops)


def integrate_until(
    field: Callable,
    y0,
    span,
    guard,
    cfg: Optional[IntegratorConfig] = None,
    *,
    guard_kind: str = "threshold",
    guards: Optional[Sequence[tuple]] = None,
    t_stops: Optional[Sequence[float]] = None,
) -> SolutionPath:
    """Integrate until the first sign change of a guard.

    ``guard(t, y)`` is continuous along trajectories; its first sign change
    is refined by bisection to a time bracket of width <= abs_tol and
    reported as an Event of kind ``guard_kind``.  Several guards may be
    passed as ``guards=[(fn, kind), ...]``; the earliest crossing wins.
    Without a crossing the path runs to the end of the span and carries a
    ``horizon`` event.
    """
    cfg = cfg or DEFAULT_CONFIG
    t0, t1 = float(span[0]), float(span[1])
    if not t1 > t0:
        raise DomainError(f"empty span {span}")
    glist = list(guards) if guards else []
    if guard is not None:
        glist.insert(0, (guard, guard_kind))
    for _, kind in glist:
        if kind not in EVENT_KINDS:
            raise ConfigError(f"unknown event kind {kind!r}")

    stops = sorted(float(s) for s in (t_stops if t_stops is not None else []) if t0 < s <= t1)
    st = _Stepper(field, t0, y0, t1, cfg)
    try:
        g_prev = [g(t0, y0) for g, _ in glist]
    except Exception as exc:
        raise ConfigError(f"guard not evaluable at the initial point: {exc}") from exc
    if any(not np.isfinite(g) for g in g_prev):
        raise ConfigError("guard not finite at the initial point")

    times = [t0]
    values = [st.state()[1]]
    h_cap = (t1 - t0) / 50.0 if glist else np.inf
    event = None
    bisect_nfev = 0
    stop_i = 0

    def land_tol(t):
        return max(10 * cfg.min_step, 2 * _TIME_RESOLUTION * max(1.0, abs(t)))

    while st.t < t1:
        cap = h_cap
        if stop_i < len(stops):
            gap_to_stop = stops[stop_i] - st.t
            if gap_to_stop <= land_tol(st.t):
                stop_i += 1
                continue
            cap = min(cap, gap_to_stop)
        t_prev, y_prev = st.state()
        status = st.step(h_cap=cap)
        if status == "underflow":
            g_now = [g(*st.state()) for g, _ in glist]
            event = _classify_underflow(
                st.t, st.state()[1], glist, g_now, st.scale0, cfg
            )
            if times[-1] != st.t:
                times.append(st.t)
                values.append(st.state()[1])
            break
        t_now, y_now = st.state()
        if stop_i < len(stops) and abs(t_now - stops[stop_i]) <= land_tol(t_now):
            stop_i += 1
        fired = None
        for j, (g, kind) in enumerate(glist):
            g_now = g(t_now, y_now)
            if g_now == 0.0 or (np.sign(g_now) != np.sign(g_prev[j]) and g_prev[j] != 0.0):
                fired = (j, g, kind)
                break
            g_prev[j] = g_now
        if fired is not None:
            j, g, kind = fired
            t_ev, resid, width, y_ev, bisect_nfev = _bisect_event(
                field, t_prev, y_prev, g_prev[j], t_now, g, cfg
            )
            event = Event(kind, t_ev, resid, width)
            times.append(t_ev)
            values.append(y_ev)
            break
        times.append(t_now)
        values.append(y_now)

    if times[-1] != st.t and event is None:
        times.append(st.t)
        values.append(st.state()[1])
    if event is None and glist:
        g_end = glist[0][0](*st.state())
        event = Event("horizon", st.t, float(abs(g_end)), 0.0)

    return SolutionPath(
        times=np.asarray(times),
        values=np.asarray(values),
        event=event,
        nsteps=st.nsteps,
        nrejected=st.nrejected,
        nfev=st.nfev + bisect_nfev,
    )
