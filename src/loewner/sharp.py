"""Piecewise-cosine captured solutions whose driving oscillates sharply.

For an amplitude parameter ``a`` in (0, 4) we build an explicit positive
solution ``x`` of the transformed real Loewner equation

    dx/ds = x - 4 / (xi - x)

by prescribing ``x`` as a slowing cosine train on a quadratically stretching
partition and recovering the driving through ``xi = x + 4/(x - dx/ds)``.
Along the distinguished sampling points of the construction (interval
midpoints and the right knots) the driving approaches the band limits

    a <= 2:  inf -> a,       sup -> a + 4/a,
    a  > 2:  sup -> 4        (inf tends to a value in (2, 4)).

The construction is analytic piecewise, so derivatives are exact.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError

__all__ = ["SharpOscillation"]


def _knots_low(a: float, ks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # branch for a <= 2
    base = ks * (ks + 1) * np.pi / 2.0
    alpha = base + np.pi - np.pi / (ks + 1)
    beta = base + np.pi - np.pi / (ks + 2)
    return alpha, beta


def _knots_high(a: float, ks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # branch for 2 < a < 4
    r = (a - 2.0) / (4.0 - a)
    base = ks * (ks + 1) * np.pi / 2.0
    alpha = base + r * np.pi * ks / (ks + 1)
    beta = base + r * np.pi * (ks + 1) / (ks + 2)
    return alpha, beta


@dataclass
class SharpOscillation:
    """Explicit captured solution/driving pair with oscillating driving.

    Parameters
    ----------
    a:
        Target lower oscillation value, 0 < a < 4.
    branch:
        1 for the a <= 2 construction, 2 for 2 < a < 4.  ``None`` selects
        automatically by the value of ``a``.
    k_max:
        Last partition index; the construction covers roughly
        ``k_max^2 * pi / 2`` units of transformed time.

    Times are exposed relative to the start knot ``alpha[k_start]``, i.e.
    ``x(0)`` is the value at the first usable knot.  The first few knots of
    the low branch are skipped when the 1/log amplitude would push ``x``
    near zero.
    """

    a: float
    branch: int | None = None
    k_max: int = 40
    k_start: int = field(init=False)
    origin: float = field(init=False)

    def __post_init__(self):
        if not (0.0 < self.a < 4.0):
            raise DomainError(f"amplitude parameter a={self.a} outside (0, 4)")
        if self.branch is None:
            self.branch = 1 if self.a <= 2.0 else 2
        if self.branch not in (1, 2):
            raise DomainError(f"branch must be 1 or 2, got {self.branch}")
        if self.branch == 2 and self.a <= 2.0:
            raise DomainError("branch 2 requires a > 2")
        if self.k_max < 3:
            raise DomainError("k_max must be at least 3")

        ks = np.arange(0, self.k_max + 2, dtype=float)
        if self.branch == 1:
            alpha, beta = _knots_low(self.a, ks)
        else:
            alpha, beta = _knots_high(self.a, ks)
        # skip leading knots where the amplitude envelope is too large for
        # x and x - dx/ds to stay positive (low branch: amplitude 1/log t)
        k0 = 1
        if self.branch == 1:
            while k0 < self.k_max - 2:
                margin = (1.0 + 1.0 / (k0 + 1)) / np.log(alpha[k0])
                if margin <= 0.9 * self.a:
                    break
                k0 += 1
        self.k_start = k0
        self.origin = alpha[k0]
        self._alpha = alpha
        self._beta = beta
        self._alpha_list = alpha.tolist()
        self._beta_list = beta.tolist()

    # -- raw (unshifted) evaluation -------------------------------------

    def _pieces(self, t: np.ndarray):
        """Return (k, in_first) for each absolute time t."""
        k = np.searchsorted(self._alpha, t, side="right") - 1
        k = np.clip(k, self.k_start, self.k_max)
        in_first = t < self._beta[k]
        return k, in_first

    def _x_raw(self, t):
        """(x, dx/ds) at absolute times t.

        A float t takes a scalar lane (bisect on the knot lists, math.cos and
        math.sin, np.log kept) in the same operations as the array path, so
        it returns what the 1-element array call returns.
        """
        scalar = isinstance(t, float)
        if scalar:
            k = min(max(bisect_right(self._alpha_list, t) - 1, self.k_start), self.k_max)
            first = t < self._beta_list[k]
            alpha, beta, cos, sin = self._alpha_list, self._beta_list, math.cos, math.sin
        else:
            k, first = self._pieces(t)
            alpha, beta, cos, sin = self._alpha, self._beta, np.cos, np.sin
        if self.branch == 1:
            lg = float(np.log(t)) if scalar else np.log(t)  # math.log can differ in the last bit
            env, denv = 1.0 / lg, -1.0 / (t * (lg * lg))
        else:
            env, denv = 1.0 / t, -1.0 / (t * t)
        center = self.a if self.branch == 1 else 2.0
        if self.branch == 1:
            w_fast = (k + 1.0) * (k + 2.0)
        else:
            w_fast = (4.0 - self.a) / (self.a - 2.0) * (k + 1.0) * (k + 2.0)
        w_slow = 1.0 / (k + 1.0)

        th1 = w_fast * (t - alpha[k])
        th2 = w_slow * (t - beta[k])
        x1 = center + env * cos(th1)
        d1 = -env * w_fast * sin(th1) + denv * cos(th1)
        x2 = center - env * cos(th2)
        d2 = env * w_slow * sin(th2) - denv * cos(th2)
        if scalar:
            return (x1, d1) if first else (x2, d2)
        return np.where(first, x1, x2), np.where(first, d1, d2)

    # -- public API (times relative to the start knot) -------------------

    @property
    def horizon(self) -> float:
        """Length of transformed time covered by the partition."""
        return float(self._alpha[self.k_max + 1] - self.origin)

    def _eval(self, s, clamp: bool) -> tuple:
        """_x_raw at relative times s, clamped to the horizon when asked."""
        if isinstance(s, float):
            return self._x_raw(float((min(s, self.horizon) if clamp else s) + self.origin))
        s = np.asarray(s, dtype=float)
        return self._x_raw((np.minimum(s, self.horizon) if clamp else s) + self.origin)

    def x(self, s):
        val, _ = self._eval(s, clamp=False)
        return val if getattr(val, "shape", ()) else float(val)

    def xi(self, s):
        """Driving xi = x + 4/(x - dx/ds); clamped to the last knot value
        beyond the partition horizon."""
        x, dx = self._eval(s, clamp=True)
        val = x + 4.0 / (x - dx)
        return val if getattr(val, "shape", ()) else float(val)

    # -- distinguished sampling points ------------------------------------

    def midpoint_times(self) -> np.ndarray:
        """Midpoints of the fast-cosine intervals, relative time."""
        ks = np.arange(self.k_start, self.k_max + 1)
        return (self._alpha[ks] + self._beta[ks]) / 2.0 - self.origin

    def right_knot_times(self) -> np.ndarray:
        """Right knots beta_k (evaluated on the slow piece), relative time."""
        ks = np.arange(self.k_start, self.k_max + 1)
        return self._beta[ks] - self.origin

    def band_report(self) -> dict:
        """Oscillation-band estimates of xi at the distinguished points.

        ``running_min``/``running_max`` are the values at the final
        partition index; both distinguished sequences converge monotonically
        to the band limits, so the last term is the sharpest finite-horizon
        estimate.  Early-partition transients (which overshoot the band)
        are reported separately via the full sequences.
        """
        mids = self.xi(self.midpoint_times())
        # evaluate beta_k on the slow side: nudge into [beta_k, alpha_{k+1})
        knots = self.xi(np.nextafter(self.right_knot_times(), np.inf))
        return {
            "a": self.a,
            "branch": self.branch,
            "k_start": self.k_start,
            "k_max": self.k_max,
            "running_min": float(mids[-1]),
            "running_max": float(knots[-1]),
            "midpoint_values": mids,
            "right_knot_values": knots,
            "target_min": self.a if self.branch == 1 else None,
            "target_max": self.a + 4.0 / self.a if self.branch == 1 else 4.0,
        }
