"""Driving functions: the parametric zoo, sampled paths, and local analysis.

A :class:`DrivingSpec` is an immutable, deterministic description of a
continuous real function on ``[0, T]`` used to drive a Loewner evolution.
Evaluation is pure and vectorised; Brownian paths are generated once at
construction from a fixed seed and interpolated linearly, so two specs with
the same configuration agree bit for bit.

Analysis helpers estimate the 1/2-Hölder norm (a grid lower bound) and the
local square-root scaling exponents used by the capture diagnostics.
"""

from __future__ import annotations

import json
import numbers
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
    "shift",
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

DEFAULT_BROWNIAN_STEP_FRACTION = 2.0**-16


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
            if kappa < 0:
                raise DomainError("kappa must be nonnegative")
            step = float(p.get("grid_step", DEFAULT_BROWNIAN_STEP_FRACTION * self.T))
            n = int(np.ceil(self.T / step)) + 1
            rng = np.random.default_rng(self.seed)
            incr = rng.standard_normal(n - 1) * np.sqrt(kappa * step)
            grid_t = np.linspace(0.0, step * (n - 1), n)
            grid_v = np.concatenate([[0.0], np.cumsum(incr)])
            object.__setattr__(self, "_grid_t", grid_t)
            object.__setattr__(self, "_grid_v", grid_v)
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
            return _inverse_frame(osc.xi, self.T, np.sqrt(self.T) * osc.xi(0.0), 1, t)
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

    # -- derived specs -----------------------------------------------------

    def shifted(self, r: float, normalize: Optional[bool] = None) -> "DrivingSpec":
        return shift(self, r, normalize=normalize)

    def reflected(self) -> "DrivingSpec":
        """The driving t -> -lambda(t)."""
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


def _inverse_frame(xi, T: float, lambda_T: float, direction: int, t):
    """lambda(t) = lambda_T - direction sqrt(T - t) xi(s(t)), s = -log((T - t)/T)/2.

    The inverse of the square-root frame transform of :mod:`loewner.real_line`,
    with lambda(T) = lambda_T; scalar in, float out.
    """
    t = np.asarray(t, dtype=float)
    rem = np.maximum(T - t, 0.0)
    out = np.full_like(t, lambda_T)
    inside = rem > 0
    if np.any(inside):
        s = -0.5 * np.log(rem[inside] / T)
        out[inside] = lambda_T - direction * np.sqrt(rem[inside]) * np.asarray(xi(s), dtype=float)
    return out if out.shape else float(out)


def shift(spec: DrivingSpec, r: float, normalize: Optional[bool] = None) -> DrivingSpec:
    """The driving t -> lambda(t + r) on [0, T - r]."""
    if not (0.0 <= r < spec.T):
        raise DomainError(f"shift offset {r} outside [0, T)")
    return DrivingSpec(
        family="composite",
        params={"base": spec, "t_offset": float(r), "scale": 1.0},
        T=spec.T - r,
        normalize=spec.normalize if normalize is None else normalize,
    )


# -- analysis ---------------------------------------------------------------


def holder_half_norm(spec: DrivingSpec, grid) -> float:
    """Grid lower bound of the 1/2-Hölder norm.

    Maximises ``|lambda(t') - lambda(t)| / sqrt(t' - t)`` over all grid
    pairs; monotone nondecreasing under grid refinement.

    The pairs are scanned by lag k = 1, 2, ... on the sorted grid, and the
    scan stops at the first lag whose smallest step dt satisfies
    ``spread / sqrt(dt) <= best``, with ``spread = max(v) - min(v)``.  The
    stop is exact, so the result is the all-pairs maximum bit for bit: the
    steps only grow with the lag, and rounding is monotone, so every later
    pair has |fl(v_j - v_i)| <= fl(spread) and a root no smaller than
    fl(sqrt(dt)), hence a quotient no larger than best.
    """
    t = np.unique(np.asarray(grid, dtype=float))
    if t.size < 2:
        raise DomainError("Hölder norm needs at least two distinct grid points")
    v = np.asarray(spec(t))
    spread = float(np.max(v) - np.min(v))
    best = 0.0
    for k in range(1, t.size):
        dt = t[k:] - t[:-k]
        if spread / np.sqrt(dt.min()) <= best:
            break
        best = max(best, float(np.max(np.abs(v[k:] - v[:-k]) / np.sqrt(dt))))
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


def default_scale_ladder(t: float, K: int = 20) -> np.ndarray:
    """Geometric ladder d_k = (t/4) * 2^-k, k = 0..K."""
    return (t / 4.0) * 2.0 ** -np.arange(0, K + 1)


def local_scaling_exponents(spec: DrivingSpec, t: float, scales=None) -> ScalingReport:
    if scales is None:
        scales = default_scale_ladder(t)
    d = np.asarray(scales, dtype=float)
    if d.size == 0:
        raise DomainError("empty scale list")
    if np.any(np.diff(d) >= 0) or np.any(d >= t) or np.any(d <= 0):
        raise DomainError("scales must be strictly decreasing and inside (0, t)")
    lam_t = spec(t)
    q = (lam_t - spec(t - d)) / np.sqrt(d)
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
