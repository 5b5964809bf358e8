"""Weierstrass driving functions: certified partial sums, norm bounds, and
the quasislit verification pipeline.

The driving is c W_b with W_b(t) = sum_{n>=1} cos(b^n t) / b^{n/2}, b > 1.
Partial sums W_b^N carry a certified geometric tail bound, the 1/2-Hölder
norm obeys ||W_b||_{1/2} <= b/(sqrt(b)-1) + 2/(1 - 1/sqrt(b)) = C(b), and
probing increments at the period-aligned offsets t_m = 2 pi / b^{m-1}
bounds the one-sided liminf by (sqrt(pi) + 1/sqrt(pi)) sqrt(2)/(sqrt(b)-1).
Together the two bounds bracket the local square-root oscillation of the
driving between a small liminf and a sqrt(b)-sized limsup, which is the
regime where the trace is a simple (quasislit) curve for small c.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .driving import DrivingSpec, holder_half_norm
from .errors import DomainError, NumericalError, PreconditionError
from .hull import SimplicityReport, WeldingTable, simplicity_diagnostic, welding
from .ode import DEFAULT_CONFIG, IntegratorConfig, integrate
from .real_line import capture_bracket

__all__ = [
    "WeierstrassParams",
    "norm_constant",
    "offset_constant",
    "partial_sum",
    "norm_bound_check",
    "offset_ratio_check",
    "comparison_constant",
    "quasislit_pipeline",
    "write_sweep_csv",
]


@dataclass(frozen=True)
class WeierstrassParams:
    b: float  # frequency ratio > 1
    N: int    # partial-sum order >= 1
    c: float = 1.0  # amplitude >= 0

    def __post_init__(self):
        if not self.b > 1.0:
            raise DomainError("frequency ratio b must exceed 1")
        if self.N < 1:
            raise DomainError("partial-sum order N must be >= 1")
        if self.c < 0:
            raise DomainError("amplitude must be nonnegative")

    @property
    def tail_bound(self) -> float:
        """Certified sup bound on |c W_b - c W_b^N|."""
        rb = self.b**-0.5
        return self.c * rb ** (self.N + 1) / (1.0 - rb)

    def spec(self, T: float, normalize: bool = True) -> DrivingSpec:
        return DrivingSpec(
            family="weierstrass_partial",
            params={"c": self.c, "b": self.b, "N": self.N},
            T=T,
            normalize=normalize,
        )


def norm_constant(b: float) -> float:
    """C(b) = b/(sqrt(b)-1) + 2/(1 - 1/sqrt(b)), the Hölder-norm bound."""
    sb = np.sqrt(b)
    return b / (sb - 1.0) + 2.0 / (1.0 - 1.0 / sb)


def offset_constant(b: float) -> float:
    """(sqrt(pi) + 1/sqrt(pi)) sqrt(2) / (sqrt(b) - 1), the liminf bound."""
    sp = np.sqrt(np.pi)
    return (sp + 1.0 / sp) * np.sqrt(2.0) / (np.sqrt(b) - 1.0)


def partial_sum(p: WeierstrassParams, t) -> tuple[np.ndarray, float]:
    """(c W_b^N(t), certified tail bound)."""
    t = np.asarray(t, dtype=float)
    n = np.arange(1, p.N + 1)
    bn = p.b**n
    vals = p.c * np.cos(np.multiply.outer(t, bn)) @ (bn**-0.5)
    return vals, p.tail_bound


@dataclass
class NormBoundReport:
    bound: float
    estimate: float
    ratio: float
    ok: bool


def norm_bound_check(
    p: WeierstrassParams,
    grid: Optional[np.ndarray] = None,
) -> NormBoundReport:
    """Grid estimate of ||c W_b^N||_{1/2} checked against c C(b).

    The estimate is a lower bound (pair maximum over the grid), so a
    violation indicates an implementation bug, never under-resolution.  The
    default grid spans one slow-mode period.
    """
    if grid is None:
        window = 2.0 * np.pi / p.b + 1.0
        grid = np.linspace(0.0, window, 4001)
    spec = p.spec(T=float(np.max(grid)) + 1e-9, normalize=False)
    est = holder_half_norm(spec, grid)
    bound = p.c * norm_constant(p.b)
    if est > bound:
        k = "norm estimate exceeds the proven bound"
        raise NumericalError(f"{k}: {est} > {bound} (b={p.b}, N={p.N})")
    return NormBoundReport(bound=bound, estimate=est, ratio=est / bound, ok=True)


@dataclass
class OffsetRatioReport:
    bound: float
    ratios: np.ndarray
    ms: np.ndarray
    min_ratio: float
    max_ratio: float
    ok: bool


def offset_ratio_check(
    p: WeierstrassParams,
    T: float,
    m_range: Sequence[int],
) -> OffsetRatioReport:
    """Increment ratios at the period-aligned offsets t_m = 2 pi / b^{m-1}.

    Checks |c W^N(T) - c W^N(T - t_m)| / sqrt(t_m) < c (sqrt(pi) +
    1/sqrt(pi)) sqrt(2)/(sqrt(b)-1) for every admissible m; the minimum over
    m witnesses the smallness of the one-sided liminf at T.
    """
    ms = np.asarray(sorted(set(int(m) for m in m_range)))
    t_m = 2.0 * np.pi / p.b ** (ms - 1.0)
    if np.any(t_m > T):
        raise PreconditionError(f"offsets exceed T: increase m or T (t_m={t_m.max()})")
    vT, _ = partial_sum(p, np.asarray([T]))
    vtm, _ = partial_sum(p, T - t_m)
    ratios = np.abs(vT[0] - vtm) / np.sqrt(t_m)
    bound = p.c * offset_constant(p.b)
    ok = bool(np.all(ratios < bound))
    if not ok:
        raise NumericalError(
            f"offset ratio bound violated: max {ratios.max()} >= {bound} (b={p.b}, N={p.N})"
        )
    return OffsetRatioReport(
        bound=bound,
        ratios=ratios,
        ms=ms,
        min_ratio=float(np.min(ratios)),
        max_ratio=float(np.max(ratios)),
        ok=ok,
    )


def comparison_constant(
    K: float,
    n_ladder: int = 6,
    cfg: Optional[IntegratorConfig] = None,
) -> float:
    """Lower barrier constant from the comparison flow.

    Integrates dX/du = 2/(X + K sqrt(1 - u)) on [0, 1] from a ladder of
    initial values l > 0 and returns the infimum of X(1): by scaling, a
    solution separated from a driving with Hölder bound K at time t keeps a
    gap of at least this constant times sqrt(T - t) at time T.
    """
    cfg = cfg or DEFAULT_CONFIG
    best = np.inf
    for l in np.geomspace(1e-6, 1.0, n_ladder):
        def fieldf(u, x):
            return 2.0 / (x + K * np.sqrt(max(1.0 - u, 0.0)))

        path = integrate(fieldf, float(l), (0.0, 1.0), cfg)
        best = min(best, float(np.asarray(path.terminal_value)))
    if not best > 0:
        raise NumericalError("comparison flow produced a nonpositive barrier")
    return best


@dataclass
class QuasislitVerdict:
    params: WeierstrassParams
    a_bound: float
    b_bound: float
    margin_small: float      # 2 - a_bound
    margin_oscillation: float  # a_bound + 4/a_bound - b_bound
    simplicity: SimplicityReport
    welding_table: Optional[WeldingTable]
    ratio_bound: Optional[float]  # M0 = (C1 + 2)/C2
    ratio1_contained: Optional[bool]
    simple: bool


def quasislit_pipeline(
    p: WeierstrassParams,
    T: float = 1.0,
    dt: float = 1e-3,
    n_weld: int = 12,
    compute_ratio_bound: bool = False,
    run_welding: bool = True,
) -> QuasislitVerdict:
    """Hypothesis margins, trace simplicity, and welding statistics.

    Preconditions (error when a margin is nonpositive): the liminf-side
    bound a = c (sqrt(pi)+1/sqrt(pi)) sqrt(2)/(sqrt(b)-1) must satisfy
    a < 2, and the norm-side bound bb = c C(b) must satisfy
    bb < a + 4/a.  Since x + 4/x decreases below 2, the true oscillation
    exponents then satisfy the same inequalities.  With
    ``compute_ratio_bound`` the welding ratio is checked against
    M0 = (C1 + 2)/C2 built from the barrier runs.
    """
    a_bound = p.c * offset_constant(p.b)
    b_bound = p.c * norm_constant(p.b)
    m_small = 2.0 - a_bound
    m_osc = (a_bound + 4.0 / a_bound) - b_bound if a_bound > 0 else np.inf
    if m_small <= 0 or m_osc <= 0:
        raise PreconditionError(
            f"hypothesis margins nonpositive: 2 - a_bound = {m_small:.4g}, "
            f"a_bound + 4/a_bound - b_bound = {m_osc:.4g}"
        )
    norm_bound_check(p)
    offset_ratio_check(p, T, range(2, 9))

    spec = p.spec(T)
    simp = simplicity_diagnostic(spec, T, dt)
    table = None
    m0 = None
    contained = None
    if simp.simple and run_welding:
        s_grid = np.linspace(0.05 * T, 0.9 * T, n_weld)
        table = welding(spec, T, s_grid, dt=dt, check_simple=False)
        if compute_ratio_bound:
            C1 = capture_bracket(spec, T, b_bound * 1.001).ratio_max
            C2 = comparison_constant(b_bound)
            m0 = (max(C1, b_bound) + 2.0) / C2
            r1 = np.asarray(table.ratio1)
            contained = bool(np.all((r1 >= 1.0 / m0) & (r1 <= m0)))
    return QuasislitVerdict(
        params=p,
        a_bound=a_bound,
        b_bound=b_bound,
        margin_small=m_small,
        margin_oscillation=m_osc,
        simplicity=simp,
        welding_table=table,
        ratio_bound=m0,
        ratio1_contained=contained,
        simple=simp.simple,
    )


def write_sweep_csv(path, rows: Sequence[dict]):
    """Sweep rows with fields b, N, c, check, margin, verdict."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["b", "N", "c", "check", "margin", "verdict"])
        for r in rows:
            w.writerow([repr(r["b"]), r["N"], repr(r["c"]), r["check"],
                        repr(r["margin"]), r["verdict"]])
