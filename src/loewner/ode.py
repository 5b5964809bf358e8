"""Adaptive embedded Runge-Kutta integration with guarded event detection.

The fields integrated in this package are smooth away from a singular set
(capture of the Loewner equation, vanishing of the imaginary part), so the
engine is a Dormand-Prince 5(4) pair with PI step control and first-same-
as-last reuse.  What is bespoke is the exit discipline:

* a guard is evaluated at every accepted step and a crossing is refined by
  bisection (re-integrating over the shrinking bracket) until the time
  bracket is below ``abs_tol``;
* a step-size underflow next to a singular denominator is never allowed to
  produce NaNs: with the guard armed and nearly crossed it is promoted to the
  guard's event, with the state near zero it becomes a ``vanish`` event,
  otherwise a ``blow_up`` event.

Guards that vanish like a square root at the singular time (capture and
vanishing gaps) should be passed in squared form, e.g. ``gap**2 - floor**2``;
the squared gap has an O(1) time derivative at the crossing, which is what
makes the residual and bracket guarantees attainable in double precision.

States may be scalars or 1-d arrays, real or complex.  A real scalar runs
on the stepper's float lane: Python floats and an unrolled step, which
equals the array lane's step on a batch of copies of the start bit for bit
at a fraction of its per-step overhead.  An attempt that fails on the float
lane is replayed on numpy operands, so ``np.errstate`` governs both lanes
alike.
"""

from __future__ import annotations

import math
import sys
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
_B5 = _AM[6]  # the 5th-order weights are the last stage's input row (FSAL)
_B4 = np.array(
    [5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200, 187 / 2100, 1 / 40]
)
_ERR = _B5 - _B4
# the array lane's stage and error weights as columns
_ARRAY_WEIGHTS = (tuple(_AM[i, :i, None] for i in range(7)), _ERR[:, None])
# the float lane's tableau as named floats: _Aij weighs stage j in stage i's input
(
    (),
    (_A21,),
    (_A31, _A32),
    (_A41, _A42, _A43),
    (_A51, _A52, _A53, _A54),
    (_A61, _A62, _A63, _A64, _A65),
    (_A71, _A72, _A73, _A74, _A75, _A76),
) = (tuple(_AM[i, :i].tolist()) for i in range(7))
_E1, _E2, _E3, _E4, _E5, _E6, _E7 = _ERR.tolist()
_C2, _C3, _C4, _C5, _C6, _C7 = _C[1:]

# the smallest step, relative to |t|, that still moves t in double precision
_TIME_RESOLUTION = 8 * sys.float_info.epsilon

# one global lookup each in the lanes' attempts
_isfinite, _add_rows, _all = math.isfinite, np.add.reduce, np.logical_and.reduce


def _float_stage(k):
    """A float-lane stage that failed the quick test: k as a float, or None if it fails.

    An ``np.float64`` (a float subclass) converts directly, which is much
    cheaper than through an array.  A complex value fails: a Python float
    raised to a fractional power is complex where numpy's is NaN.
    """
    if isinstance(k, float):
        k = float(k)
    elif isinstance(k, complex):
        return None
    else:
        k = float(np.reshape(k, ()))
    return k if math.isfinite(k) else None


class _Stepper:
    """One integration run; owns the adaptive loop state.

    A real scalar state whose field is real runs on the float lane: the
    state and the stage derivatives are Python floats, and an attempt is
    straight-line code over the named stages k1..k7.  Any other state runs
    as a 1-d array whose stage derivatives fill the rows of one array ``K``.
    Each stage input and the error estimate add the tableau products in
    tableau order, zero weights included (dropping one can flip the sign of
    a zero), and numpy adds the at most 7 rows of an axis-0 sum in order, so
    a float-lane run equals a batch of copies of its start bit for bit.
    Both lanes share the step loop, the PI controller and ``_norm``.

    Python floats ignore ``np.errstate``: they overflow to inf silently and
    raise ZeroDivisionError where numpy returns inf.  So a float-lane attempt
    that fails (a stage, the solution or the error estimate is not finite,
    or the field raises ZeroDivisionError or OverflowError) is replayed as
    the array lane's attempt on a one-element copy, which by the invariant
    above repeats it bit for bit on numpy operands: numpy then raises, warns
    or fails the attempt exactly as it would for a batch.  ``nfev`` counts
    every field evaluation, failed ones included, and a replayed attempt
    once.
    """

    def __init__(self, field, t0, y0, t1, cfg: IntegratorConfig):
        self.f = field
        self.t = float(t0)
        self.t1 = float(t1)
        self.cfg = cfg
        y = np.array(y0)
        if y.dtype.kind not in "fc":
            y = y.astype(float)
        self.scalar = y.ndim == 0
        k1 = np.asarray(field(self.t, y[()]))
        self.nfev = 1
        if not np.isfinite(k1).all():
            raise DomainError(f"field not finite at the initial point t={t0}")
        self.float_lane = self.scalar and y.dtype.kind == "f" and k1.size == 1 and k1.dtype.kind != "c"
        if self.float_lane:
            self.y = float(y)
            self.K = [float(k1.reshape(()))]
        else:
            self.y = np.atleast_1d(y)
            self.K = np.empty((7, self.y.size), dtype=np.result_type(y, k1, np.float64))
            self.K[0] = k1
        self.scale0 = max(1.0, float(np.max(np.abs(y))))
        self.err_prev = 1.0
        self.h = self._initial_step()
        self.nsteps = 0
        self.nrejected = 0

    @property
    def k1(self):
        return self.K[0]

    def _float_attempt(self, t, y, h):
        """One attempt on the float lane: (5th-order solution, error estimate, k7), or None.

        None means the attempt failed: a stage, the solution or the error
        estimate is not finite.  The stages after a failed one are not
        evaluated, and a failed attempt counts no field evaluation: its
        replay (``_replay``) counts them.
        """
        f, k1 = self.f, self.K[0]
        k2 = f(t + _C2 * h, y + h * (_A21 * k1))
        if type(k2) is not float or not _isfinite(k2):
            k2 = _float_stage(k2)
            if k2 is None:
                return None
        k3 = f(t + _C3 * h, y + h * (_A31 * k1 + _A32 * k2))
        if type(k3) is not float or not _isfinite(k3):
            k3 = _float_stage(k3)
            if k3 is None:
                return None
        k4 = f(t + _C4 * h, y + h * (_A41 * k1 + _A42 * k2 + _A43 * k3))
        if type(k4) is not float or not _isfinite(k4):
            k4 = _float_stage(k4)
            if k4 is None:
                return None
        k5 = f(t + _C5 * h, y + h * (_A51 * k1 + _A52 * k2 + _A53 * k3 + _A54 * k4))
        if type(k5) is not float or not _isfinite(k5):
            k5 = _float_stage(k5)
            if k5 is None:
                return None
        k6 = f(t + _C6 * h, y + h * (_A61 * k1 + _A62 * k2 + _A63 * k3 + _A64 * k4 + _A65 * k5))
        if type(k6) is not float or not _isfinite(k6):
            k6 = _float_stage(k6)
            if k6 is None:
                return None
        # stage 7's input is the 5th-order solution (FSAL)
        y5 = y + h * (_A71 * k1 + _A72 * k2 + _A73 * k3 + _A74 * k4 + _A75 * k5 + _A76 * k6)
        k7 = f(t + _C7 * h, y5)
        if type(k7) is not float or not _isfinite(k7):
            k7 = _float_stage(k7)
            if k7 is None:
                return None
        err = h * (_E1 * k1 + _E2 * k2 + _E3 * k3 + _E4 * k4 + _E5 * k5 + _E6 * k6 + _E7 * k7)
        if not (_isfinite(y5) and _isfinite(err)):
            return None
        self.nfev += 6
        return y5, err, k7

    def _replay(self, t, y, h):
        """Replay a failed float-lane attempt as the array lane's attempt on [y].

        The array lane's attempt on a one-element copy equals the float
        lane's bit for bit, on numpy operands: numpy's rules (``np.errstate``)
        decide whether the failure raises, warns or makes the attempt fail,
        as they do for a batch.  Returns what ``_float_attempt`` returns.
        """
        K = np.empty((7, 1))
        K[0] = self.K[0]
        stages = self._array_attempt(t, np.array([y]), h, K)
        if stages is None:
            return None
        y5, err, k7 = stages
        return float(y5[0]), float(err[0]), float(k7[0])

    def _array_attempt(self, t, y, h, K):
        """One attempt on the array lane, filling the rows of K; as ``_float_attempt``."""
        rows, err_weights = _ARRAY_WEIGHTS
        for i in range(1, 7):
            # numpy adds the rows of an axis-0 sum in order
            yi = y + h * _add_rows(rows[i] * K[:i], axis=0)
            self.nfev += 1
            ki = self.f(t + _C[i] * h, yi[0] if self.scalar else yi)
            if type(ki) is not np.ndarray or ki.ndim != 1:
                ki = np.atleast_1d(np.asarray(ki))
            if not _all(np.isfinite(ki)):
                return None
            K[i] = ki
        return yi, h * _add_rows(err_weights * K, axis=0), K[6]

    def _norm(self, err, y_old, y_new):
        cfg = self.cfg
        if self.float_lane:
            r = err / (cfg.abs_tol + cfg.rel_tol * max(abs(y_old), abs(y_new)))
            return math.sqrt(r * r)
        r = err / (cfg.abs_tol + cfg.rel_tol * np.maximum(np.abs(y_old), np.abs(y_new)))
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
        t, y = self.t, self.y
        min_step = self._min_step_at(t)
        if self.t1 - t <= min_step:
            # the remaining sliver of the span is below time resolution:
            # snap to the endpoint rather than reporting an underflow
            self.t = self.t1
            return "ok"
        while True:
            h_free = min(self.h, self.t1 - t, cfg.max_step)
            if h_free <= min_step:
                return "underflow"
            h = min(h_free, h_cap)
            # (a bound method kept on the instance would make every stepper a
            # reference cycle, freed only by the cyclic garbage collector)
            if self.float_lane:
                try:
                    stages = self._float_attempt(t, y, h)
                except (ZeroDivisionError, OverflowError):
                    stages = None
                if stages is None:
                    stages = self._replay(t, y, h)
            else:
                stages = self._array_attempt(t, y, h, self.K)
            if stages is not None:
                y5, err, k7 = stages
                enorm = self._norm(err, y, y5)
                if enorm <= 1.0:
                    # PI controller (accepted)
                    fac = 0.9 * (enorm + 1e-16) ** -0.14 * (self.err_prev + 1e-16) ** 0.04
                    self.h = h * min(max(fac, 0.2), 10.0)
                    self.err_prev = max(enorm, 1e-16)
                    self.t = t + h
                    self.y = y5
                    self.K[0] = k7  # FSAL
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
        if self.float_lane:
            return self.t, self.y
        return self.t, (self.y[0] if self.scalar else self.y.copy())


def _advance(field, t0, y0, t1, cfg) -> _Stepper:
    """Integrate without recording; used by event bisection."""
    st = _Stepper(field, t0, y0, t1, cfg)
    while st.t < t1:
        if st.step() == "underflow":
            break
    return st


def _classify_underflow(t, y, guard, guard_kind, scale0, cfg):
    if guard is not None:
        g = abs(guard(t, y))
        if g <= max(100 * cfg.abs_tol, 1e-8):
            return Event(guard_kind, t, float(g), 0.0)
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
    t_stops: Optional[Sequence[float]] = None,
) -> SolutionPath:
    """Integrate until the first sign change of a guard.

    ``guard(t, y)`` is continuous along trajectories; its first sign change
    is refined by bisection to a time bracket of width <= abs_tol and
    reported as an Event of kind ``guard_kind``.  Without a crossing the
    path runs to the end of the span and carries a ``horizon`` event; with
    no guard (None) it carries none.
    """
    cfg = cfg or DEFAULT_CONFIG
    t0, t1 = float(span[0]), float(span[1])
    if not t1 > t0:
        raise DomainError(f"empty span {span}")
    if guard is not None and guard_kind not in EVENT_KINDS:
        raise ConfigError(f"unknown event kind {guard_kind!r}")

    stops = sorted(float(s) for s in (t_stops if t_stops is not None else []) if t0 < s <= t1)
    st = _Stepper(field, t0, y0, t1, cfg)
    g_prev = None
    if guard is not None:
        try:
            g_prev = guard(t0, y0)
        except Exception as exc:
            raise ConfigError(f"guard not evaluable at the initial point: {exc}") from exc
        if not np.isfinite(g_prev):
            raise ConfigError("guard not finite at the initial point")

    times = [t0]
    values = [st.state()[1]]
    h_cap = (t1 - t0) / 50.0 if guard is not None else np.inf
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
            event = _classify_underflow(*st.state(), guard, guard_kind, st.scale0, cfg)
            if times[-1] != st.t:
                times.append(st.t)
                values.append(st.state()[1])
            break
        t_now, y_now = st.state()
        if stop_i < len(stops) and abs(t_now - stops[stop_i]) <= land_tol(t_now):
            stop_i += 1
        if guard is not None:
            g_now = guard(t_now, y_now)
            if g_now == 0.0 or (np.sign(g_now) != np.sign(g_prev) and g_prev != 0.0):
                t_ev, resid, width, y_ev, bisect_nfev = _bisect_event(
                    field, t_prev, y_prev, g_prev, t_now, guard, cfg
                )
                event = Event(guard_kind, t_ev, resid, width)
                times.append(t_ev)
                values.append(y_ev)
                break
            g_prev = g_now
        times.append(t_now)
        values.append(y_now)

    if times[-1] != st.t and event is None:
        times.append(st.t)
        values.append(st.state()[1])
    if event is None and guard is not None:
        event = Event("horizon", st.t, float(abs(guard(*st.state()))), 0.0)

    return SolutionPath(
        times=np.asarray(times),
        values=np.asarray(values),
        event=event,
        nsteps=st.nsteps,
        nrejected=st.nrejected,
        nfev=st.nfev + bisect_nfev,
    )
