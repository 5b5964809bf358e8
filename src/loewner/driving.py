"""Driving functions: the parametric zoo, sampled paths, and local analysis.

A :class:`DrivingSpec` is an immutable, deterministic description of a
continuous real function on ``[0, T]`` used to drive a Loewner evolution.
Evaluation is pure and vectorised; Brownian paths are generated once at
construction from a fixed seed and interpolated linearly, so two specs with
the same configuration agree bit for bit.  Their values are built in place
in one array, and specs with the same grid step and length share one
read-only time grid, held in a weak table while some spec uses it.

Analysis helpers estimate the 1/2-Hölder norm (a grid lower bound) and the
local square-root scaling exponents used by the capture diagnostics.
"""

from __future__ import annotations

import json
import math
import numbers
import sys
import weakref
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import ConfigError, DomainError
from .sharp import SharpOscillation

__all__ = [
    "DrivingSpec",
    "ScalingReport",
    "holder_half_norm",
    "local_scaling_exponents",
    "spec_from_config",
    "spec_to_config",
]

FAMILIES = (
    "constant",
    "linear",
    "sqrt_approach",
    "weierstrass_partial",
    "brownian",
    "sampled",
    "sharp_example",
    "composite",
)

# family: (required parameters, optional parameters)
_PARAM_KEYS = {
    "constant": ({"value"}, set()),
    "linear": ({"slope"}, {"intercept"}),
    "sqrt_approach": ({"c"}, set()),
    "weierstrass_partial": ({"c", "b", "N"}, set()),
    "brownian": (set(), {"kappa", "grid_step"}),
    "sampled": ({"times", "values"}, set()),
    "sharp_example": ({"a"}, {"branch", "k_max"}),
    "composite": ({"base"}, {"t_offset", "scale"}),
}
_NON_SCALAR_KEYS = {"times", "values", "branch", "base"}
# the families whose value is linear in all of their parameters
_NEGATABLE = ("constant", "linear", "sqrt_approach")

DEFAULT_BROWNIAN_STEP_FRACTION = 2.0**-16
# at most ceil(T/grid_step) = 2^23 Brownian steps: 64 MB of path values
MAX_BROWNIAN_STEPS = 2**23

# (step, n) -> the read-only time grid of the Brownian specs that hold it
_TIME_GRIDS = weakref.WeakValueDictionary()


def _time_grid(step: float, n: int) -> np.ndarray:
    """The shared grid linspace(0, step (n - 1), n), built on first use."""
    grid = _TIME_GRIDS.get((step, n))
    if grid is None:
        grid = np.linspace(0.0, step * (n - 1), n)
        grid.flags.writeable = False
        _TIME_GRIDS[step, n] = grid
    return grid


@dataclass(frozen=True, eq=False)
class DrivingSpec:
    """A named, evaluable driving function on [0, T].

    family:    one of ``FAMILIES``
    params:    family parameters (see ``_PARAM_KEYS``)
    T:         right endpoint of the time domain, > 0
    normalize: subtract the value at 0 so that spec(0) == 0 exactly
    seed:      RNG seed, required by the brownian family
    """

    family: str
    params: dict
    T: float
    normalize: bool = False
    seed: Optional[int] = None
    _grid_t: np.ndarray = field(init=False, repr=False, default=None)
    _grid_v: np.ndarray = field(init=False, repr=False, default=None)
    _sharp: SharpOscillation = field(init=False, repr=False, default=None)
    _base: "DrivingSpec" = field(init=False, repr=False, default=None)
    _offset: float = field(init=False, repr=False, default=0.0)
    _bn: np.ndarray = field(init=False, repr=False, default=None)  # weierstrass b**n
    _bw: np.ndarray = field(init=False, repr=False, default=None)  # weierstrass b**(-n/2)

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ConfigError(f"unknown driving family {self.family!r}")
        if not (_is_real(self.T) and 0.0 < self.T < np.inf):
            raise DomainError(f"domain end T={self.T!r} must be a positive finite number")
        object.__setattr__(self, "T", float(self.T))
        required, optional = _PARAM_KEYS[self.family]
        for kind, keys in (("unknown", set(self.params) - required - optional),
                           ("missing", required - set(self.params))):
            if keys:
                raise ConfigError(
                    f"{kind} parameter(s) {sorted(keys)} for family {self.family!r}"
                )
        for key, value in self.params.items():
            if key not in _NON_SCALAR_KEYS and not _is_real(value):
                raise ConfigError(f"parameter {key!r} must be a number, got {value!r}")
        if self.seed is not None and not _is_real(self.seed, numbers.Integral):
            raise ConfigError(f"seed must be an integer, got {self.seed!r}")
        self._prepare()
        if self.normalize:
            object.__setattr__(self, "_offset", float(self._raw(np.zeros(1))[0]))

    # -- construction helpers ------------------------------------------------

    def _prepare(self):
        fam, p = self.family, self.params
        if fam == "brownian":
            if self.seed is None:
                raise ConfigError("brownian family requires a seed")
            kappa = float(p.get("kappa", 1.0))
            if not 0.0 <= kappa < np.inf:  # NaN fails too
                raise DomainError(f"kappa must be a nonnegative finite number, got {kappa!r}")
            step = float(p.get("grid_step", DEFAULT_BROWNIAN_STEP_FRACTION * self.T))
            if not 0.0 < step < np.inf:
                raise DomainError(f"grid_step must be a positive finite number, got {step!r}")
            if step < self.T / MAX_BROWNIAN_STEPS:  # too many steps, found without forming T/step
                raise DomainError(
                    f"T = {self.T!r} and grid_step = {step!r} give more Brownian steps "
                    f"than MAX_BROWNIAN_STEPS = {MAX_BROWNIAN_STEPS}"
                )
            n = int(np.ceil(self.T / step)) + 1
            # the path is v[0] = 0 and the partial sums of the scaled increments
            v = np.empty(n)
            v[0] = 0.0
            incr = v[1:]
            np.random.default_rng(self.seed).standard_normal(out=incr)
            np.multiply(incr, np.sqrt(kappa * step), out=incr)
            np.cumsum(incr, out=incr)
            object.__setattr__(self, "_grid_t", _time_grid(step, n))
            object.__setattr__(self, "_grid_v", v)
        elif fam == "sampled":
            t = np.asarray(p["times"], dtype=float)
            v = np.asarray(p["values"], dtype=float)
            if t.ndim != 1 or t.shape != v.shape or t.size < 2:
                raise ConfigError("sampled family needs matching 1-d times/values")
            if np.any(np.diff(t) <= 0):
                raise ConfigError("sampled times must be strictly increasing")
            if t[0] > 0.0 or t[-1] < self.T:
                raise DomainError("sampled grid must cover [0, T]")
            object.__setattr__(self, "_grid_t", t)
            object.__setattr__(self, "_grid_v", v)
        elif fam == "sharp_example":
            osc = SharpOscillation(
                a=float(p["a"]),
                branch=p.get("branch"),
                k_max=int(p.get("k_max", 40)),
            )
            object.__setattr__(self, "_sharp", osc)
        elif fam == "composite":
            base = p["base"]
            if isinstance(base, dict):
                base = spec_from_config(base)
            if not isinstance(base, DrivingSpec):
                raise ConfigError("composite base must be a DrivingSpec or config")
            r = float(p.get("t_offset", 0.0))
            if not (0.0 <= r < base.T):
                raise DomainError(f"composite t_offset {r} outside [0, base.T)")
            if self.T > base.T - r + 1e-12 * base.T:
                raise DomainError("composite domain exceeds the base domain")
            object.__setattr__(self, "_base", base)
        elif fam == "weierstrass_partial":
            b = float(p["b"])
            if b <= 1.0:
                raise DomainError("weierstrass frequency ratio b must exceed 1")
            check_weierstrass_order(p["N"])
            bn = b ** np.arange(1, int(p["N"]) + 1)
            object.__setattr__(self, "_bn", bn)
            object.__setattr__(self, "_bw", bn**-0.5)

    # -- evaluation ------------------------------------------------------

    def _raw(self, t: np.ndarray) -> np.ndarray:
        fam, p = self.family, self.params
        if fam == "constant":
            return np.full_like(t, float(p["value"]))
        if fam == "linear":
            return float(p["slope"]) * t + float(p.get("intercept", 0.0))
        if fam == "sqrt_approach":
            c = float(p["c"])
            rem = np.maximum(self.T - t, 0.0)
            return c * (np.sqrt(self.T) - np.sqrt(rem))
        if fam == "weierstrass_partial":
            return float(p["c"]) * np.cos(np.multiply.outer(t, self._bn)) @ self._bw
        if fam in ("brownian", "sampled"):
            return np.interp(t, self._grid_t, self._grid_v)
        if fam == "sharp_example":
            # lambda_T = sqrt(T) xi(0) pins lambda(0) = 0
            osc = self._sharp
            return _inverse_frame(osc.xi, self.T, np.sqrt(self.T) * osc.xi(0.0), t)
        if fam == "composite":
            r = float(p.get("t_offset", 0.0))
            scale = float(p.get("scale", 1.0))
            return scale * self._base(t + r)
        raise AssertionError(fam)

    def _raw_float(self, t: float) -> float:
        """_raw at one float time: a composite passes it on to its base as a float."""
        p = self.params
        if self.family == "composite":
            return float(p.get("scale", 1.0)) * self._base(t + float(p.get("t_offset", 0.0)))
        return float(self._raw(np.array([t]))[0])

    def __call__(self, t):
        """Evaluate the driving function at scalar or array times."""
        if isinstance(t, float):
            # the float lane; written so that a NaN time fails the range test
            if not -1e-12 * self.T <= t <= self.T * (1 + 1e-12):
                raise DomainError(f"time outside [0, {self.T}]: {t}..{t}")
            return self._raw_float(min(max(t, 0.0), self.T)) - self._offset
        arr = np.asarray(t, dtype=float)
        scalar = arr.ndim == 0
        # written so that a NaN time fails the range test
        if not (np.all(arr >= -1e-12 * self.T) and np.all(arr <= self.T * (1 + 1e-12))):
            raise DomainError(
                f"time outside [0, {self.T}]: {np.min(arr)}..{np.max(arr)}"
            )
        arr = np.clip(np.atleast_1d(arr), 0.0, self.T)
        out = np.asarray(self._raw(arr), dtype=float) - self._offset
        return float(out[0]) if scalar else out

    def _drop(self, T: float, tau) -> np.ndarray:
        """lambda(T) - lambda(T - tau) for an array tau, formed without T - tau.

        Subtracting the values at T and T - tau loses relative accuracy like
        eps T / tau; each family's form here does not.  The ``normalize``
        offset cancels, and tau is not range-checked.
        """
        fam, p = self.family, self.params
        tau = np.asarray(tau, dtype=float)
        if fam == "constant":
            return np.zeros_like(tau)
        if fam == "linear":
            return float(p["slope"]) * tau
        if fam == "sqrt_approach":
            R = max(self.T - T, 0.0)
            return float(p["c"]) * tau / (np.sqrt(R + tau) + np.sqrt(R))
        if fam == "weierstrass_partial":
            # cos A - cos B = -2 sin((A + B)/2) sin((A - B)/2), A = b^n T, B = b^n (T - tau)
            half = self._bn / 2.0
            sines = np.sin(np.multiply.outer(2.0 * T - tau, half)) * np.sin(np.multiply.outer(tau, half))
            return -2.0 * float(p["c"]) * sines @ self._bw
        if fam == "composite":
            r = float(p.get("t_offset", 0.0))
            return float(p.get("scale", 1.0)) * self._base._drop(T + r, tau)
        if fam == "sharp_example" and T == self.T:
            return np.sqrt(tau) * np.asarray(self._sharp.xi(0.5 * np.log(T / tau)), dtype=float)
        if fam in ("brownian", "sampled"):
            gt, gv = self._grid_t, self._grid_v
            k = max(int(np.searchsorted(gt, T)), 1)  # the cell (gt[k-1], gt[k]] holds T
            slope = (gv[k] - gv[k - 1]) / (gt[k] - gt[k - 1])
            inside = tau <= T - gt[k - 1]
            return np.where(inside, slope * tau, np.interp(T, gt, gv) - np.interp(T - tau, gt, gv))
        return self._raw(np.array([T])) - self._raw(T - tau)

    # -- derived specs -----------------------------------------------------

    def reflected(self) -> "DrivingSpec":
        """The driving t -> -lambda(t).

        A family that is linear in its parameters stays in its family with
        the parameters negated, so that the analytic frame forms of
        ``real_line.FrameDriving`` still apply; any other family becomes a
        composite with scale -1.  Negation is exact, so the values equal the
        composite's: bit for bit for ``constant`` and ``sqrt_approach``, and
        for ``linear`` up to the sign of a zero value (a sum that cancels
        rounds to +0.0 whatever the signs of its terms).
        """
        if self.family in _NEGATABLE:
            params = {k: -v for k, v in self.params.items()}
            return DrivingSpec(self.family, params, self.T, self.normalize, self.seed)
        return DrivingSpec(
            family="composite",
            params={"base": self, "t_offset": 0.0, "scale": -1.0},
            T=self.T,
            normalize=self.normalize,
        )


def _is_real(value, kind=numbers.Real) -> bool:
    return isinstance(value, kind) and not isinstance(value, bool)


def check_weierstrass_order(N) -> None:
    """Raise DomainError unless the partial-sum order N is an integral value >= 1."""
    if not (_is_real(N) and float(N).is_integer() and N >= 1):
        raise DomainError(f"weierstrass order N={N!r} must be an integer >= 1")


def _inverse_frame(xi, T: float, lambda_T: float, t):
    """lambda(t) = lambda_T - sqrt(T - t) xi(s(t)), s = -log((T - t)/T)/2.

    The inverse of the square-root frame transform of :mod:`loewner.real_line`,
    with lambda(T) = lambda_T; scalar in, float out.
    """
    t = np.asarray(t, dtype=float)
    rem = np.maximum(T - t, 0.0)
    out = np.full_like(t, lambda_T)
    inside = rem > 0
    if np.any(inside):
        s = -0.5 * np.log(rem[inside] / T)
        out[inside] = lambda_T - np.sqrt(rem[inside]) * np.asarray(xi(s), dtype=float)
    return out if out.shape else float(out)


# -- analysis ---------------------------------------------------------------


def holder_half_norm(spec: DrivingSpec, grid) -> float:
    """Grid lower bound of the 1/2-Hölder norm.

    Maximises ``|lambda(t') - lambda(t)| / sqrt(t' - t)`` over all grid
    pairs; monotone nondecreasing under grid refinement.

    The pairs are scanned by lag k = 1, 2, ... on the sorted grid.  With
    ``spread = max(v) - min(v)``, ``top`` the lag's largest |v_j - v_i| and
    r a lower bound on its roots, the scan stops at the first lag with
    ``spread / r <= best`` and skips one with ``top / r <= best``, trying
    first ``lo = sqrt(k h1 (1 - 8 eps))``, h1 the smallest lag-1 step, and
    then the lag's own ``sqrt(dt.min())``; only a lag that neither decides
    forms its quotients.  A lag right after one that raised ``best`` skips
    ``top``.  The result is the all-pairs maximum bit for bit: each exact
    lag-k step is a sum of k lag-1 steps of at least h1/(1 + u) (u = eps/2),
    so each rounded root of the lag is at least sqrt(k h1) (1 - 3u) and the
    rounded lo at most sqrt(k h1) (1 - 5u).  That needs normal floats, so lo
    is NaN, deciding nothing, unless h1 is at least 4 times the smallest
    normal float.  Both bounds grow with k, and rounded subtraction, root
    and division are monotone.
    """
    t = np.unique(np.asarray(grid, dtype=float))
    if t.size < 2:
        raise DomainError("Hölder norm needs at least two distinct grid points")
    v = np.asarray(spec(t))
    n, spread = t.size, float(np.max(v) - np.min(v))
    h1 = float(np.min(t[1:] - t[:-1]))
    normal = h1 >= 4.0 * sys.float_info.min
    shrunk = h1 * (1.0 - 8.0 * sys.float_info.epsilon) if normal else math.nan
    dv_work, dt_work = np.empty(n - 1), np.empty(n - 1)
    best, raised = 0.0, False
    for k in range(1, n):
        lo = math.sqrt(k * shrunk)
        if spread / lo <= best:
            break
        dv = np.subtract(v[k:], v[:-k], out=dv_work[: n - k])
        np.abs(dv, out=dv)
        if not raised:
            top = float(dv.max())
            if top / lo <= best:
                continue
        dt = np.subtract(t[k:], t[:-k], out=dt_work[: n - k])
        root = math.sqrt(float(dt.min()))
        if spread / root <= best:
            break
        if raised or top / root > best:
            q = float(np.divide(dv, np.sqrt(dt, out=dt), out=dv).max())
            best, raised = max(best, q), q > best
    return best


@dataclass(frozen=True)
class ScalingReport:
    """Finite-scale estimates of the square-root scaling at a time t.

    a_hat/b_hat are the min/max of |lambda(t) - lambda(t - d)|/sqrt(d)
    over the scale ladder; they estimate (but do not equal) the one-sided
    liminf/limsup.  ``signed_quotients`` keeps the signs for record and
    direction diagnostics.
    """

    t: float
    a_hat: float
    b_hat: float
    scales_used: np.ndarray
    signed_quotients: np.ndarray


def default_scale_ladder(t: float) -> np.ndarray:
    """Geometric ladder d_k = (t/4) * 2^-k, k = 0..20."""
    return (t / 4.0) * 2.0 ** -np.arange(0, 21)


def local_scaling_exponents(spec: DrivingSpec, t: float, scales=None) -> ScalingReport:
    if not 0.0 < t <= spec.T * (1 + 1e-12):  # NaN fails too
        raise DomainError(f"time {t} outside (0, {spec.T}]")
    if scales is None:
        scales = default_scale_ladder(t)
    d = np.asarray(scales, dtype=float)
    if d.size == 0:
        raise DomainError("empty scale list")
    if np.any(np.diff(d) >= 0) or np.any(d >= t) or np.any(d <= 0):
        raise DomainError("scales must be strictly decreasing and inside (0, t)")
    q = spec._drop(t, d) / np.sqrt(d)
    absq = np.abs(q)
    return ScalingReport(
        t=float(t),
        a_hat=float(np.min(absq)),
        b_hat=float(np.max(absq)),
        scales_used=d,
        signed_quotients=q,
    )


# -- serialization -----------------------------------------------------------

_CONFIG_KEYS = {"family", "params", "T", "normalize", "seed"}


def spec_to_config(spec: DrivingSpec) -> dict:
    params = dict(spec.params)
    if spec.family == "composite" and isinstance(params.get("base"), DrivingSpec):
        params["base"] = spec_to_config(params["base"])
    if spec.family == "sampled":
        params["times"] = [float(x) for x in params["times"]]
        params["values"] = [float(x) for x in params["values"]]
    cfg = {
        "family": spec.family,
        "params": params,
        "T": spec.T,
        "normalize": spec.normalize,
    }
    if spec.seed is not None:
        cfg["seed"] = spec.seed
    return cfg


def spec_from_config(cfg: dict) -> DrivingSpec:
    """Strict parser: unknown keys are rejected, never silently dropped."""
    if not isinstance(cfg, dict):
        raise ConfigError("driving config must be a JSON object")
    unknown = set(cfg) - _CONFIG_KEYS
    if unknown:
        raise ConfigError(f"unknown driving config key(s): {sorted(unknown)}")
    # a missing family, params or T fails the checks below like a bad one
    if not isinstance(cfg.get("params"), dict):
        raise ConfigError("driving config params must be a JSON object")
    try:
        return DrivingSpec(
            family=cfg.get("family"),
            params=dict(cfg["params"]),
            T=cfg.get("T"),
            normalize=bool(cfg.get("normalize", False)),
            seed=cfg.get("seed"),
        )
    except DomainError as exc:
        raise ConfigError(f"driving config out of domain: {exc}") from exc


def spec_from_json(text: str) -> DrivingSpec:
    try:
        cfg = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON driving config: {exc}") from exc
    return spec_from_config(cfg)
