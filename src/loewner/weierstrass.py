"""Weierstrass driving functions: norm bounds, offset ratios, and the
quasislit verification pipeline.

The driving is c W_b with W_b(t) = sum_{n>=1} cos(b^n t) / b^{n/2}, b > 1.
The partial sum c W_b^N is the ``weierstrass_partial`` family of
:class:`~loewner.driving.DrivingSpec` (``WeierstrassParams.spec``), the
one place where it is evaluated, and ``WeierstrassParams.tail_bound``
certifies its geometric truncation error.  The 1/2-Hölder norm obeys
||W_b||_{1/2} <= b/(sqrt(b)-1) + 2/(1 - 1/sqrt(b)) = C(b), and probing
increments at the period-aligned offsets t_m = 2 pi / b^{m-1}
bounds the one-sided liminf by (sqrt(pi) + 1/sqrt(pi)) sqrt(2)/(sqrt(b)-1).
Together the two bounds bracket the local square-root oscillation of the
driving between a small liminf and a sqrt(b)-sized limsup, which is the
regime where the trace is a simple (quasislit) curve for small c.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .driving import DrivingSpec, check_weierstrass_order, holder_half_norm
from .errors import DomainError, NumericalError, PreconditionError
from .hull import SimplicityReport, WeldingTable, capture_bracket, simplicity_diagnostic, welding
from .ode import integrate

__all__ = [
    "WeierstrassParams",
    "norm_constant",
    "offset_constant",
    "norm_bound_check",
    "offset_ratio_check",
    "comparison_constant",
    "quasislit_pipeline",
]


@dataclass(frozen=True)
class WeierstrassParams:
    b: float  # frequency ratio > 1
    N: int    # partial-sum order >= 1
    c: float = 1.0  # amplitude > 0

    def __post_init__(self):
        if not 1.0 < self.b < np.inf:
            raise DomainError(f"frequency ratio b must be a finite number above 1, got {self.b!r}")
        check_weierstrass_order(self.N)
        # both bounds scale with c and the offset bound is strict: c = 0 fails it
        if not 0.0 < self.c < np.inf:
            raise DomainError(f"amplitude c must be a positive finite number, got {self.c!r}")

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


@dataclass
class NormBoundReport:
    bound: float
    estimate: float
    ratio: float
    ok: bool


def norm_bound_check(p: WeierstrassParams) -> NormBoundReport:
    """Grid estimate of ||c W_b^N||_{1/2} checked against c C(b).

    The estimate is a lower bound (pair maximum over the grid), so a
    violation (``ok`` False) indicates an implementation bug, never
    under-resolution.  The grid has 4001 points on [0, 2 pi / b + 1], one
    slow-mode period.  The report is returned either way; the caller acts
    on ``ok``.
    """
    grid = np.linspace(0.0, 2.0 * np.pi / p.b + 1.0, 4001)
    spec = p.spec(T=float(np.max(grid)) + 1e-9, normalize=False)
    est = holder_half_norm(spec, grid)
    bound = p.c * norm_constant(p.b)
    return NormBoundReport(bound=bound, estimate=est, ratio=est / bound, ok=bool(est <= bound))


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
    m witnesses the smallness of the one-sided liminf at T.  ``ok`` says
    whether every ratio is below the bound; the report is returned either way.
    """
    ms = np.asarray(sorted(set(int(m) for m in m_range)))
    t_m = 2.0 * np.pi / p.b ** (ms - 1.0)
    if np.any(t_m > T):
        raise PreconditionError(f"offsets exceed T: increase m or T (t_m={t_m.max()})")
    spec = p.spec(T, normalize=False)
    ratios = np.abs(spec(T) - spec(T - t_m)) / np.sqrt(t_m)
    bound = p.c * offset_constant(p.b)
    return OffsetRatioReport(
        bound=bound,
        ratios=ratios,
        ms=ms,
        min_ratio=float(np.min(ratios)),
        max_ratio=float(np.max(ratios)),
        ok=bool(np.all(ratios < bound)),
    )


def comparison_constant(K: float) -> float:
    """Lower barrier constant from the comparison flow.

    Integrates dX/du = 2/(X + K sqrt(1 - u)) on [0, 1] from X(0) = 1e-6 and
    returns X(1), the infimum over the initial values in [1e-6, 1]: by the
    comparison principle X(1) increases with X(0).  By scaling, a solution
    separated from a driving with Hölder bound K at time t keeps a gap of at
    least this constant times sqrt(T - t) at time T.
    """
    def fieldf(u, x):
        return 2.0 / (x + K * np.sqrt(max(1.0 - u, 0.0)))

    best = float(np.asarray(integrate(fieldf, 1e-6, (0.0, 1.0)).terminal_value))
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
) -> QuasislitVerdict:
    """Hypothesis margins, trace simplicity, and welding statistics.

    Preconditions (error when a margin is nonpositive): the liminf-side
    bound a = c (sqrt(pi)+1/sqrt(pi)) sqrt(2)/(sqrt(b)-1) must satisfy
    a < 2, and the norm-side bound bb = c C(b) must satisfy
    bb < a + 4/a.  Since x + 4/x decreases below 2, the true oscillation
    exponents then satisfy the same inequalities.  With
    ``compute_ratio_bound`` the welding ratio is checked against
    M0 = (C1 + 2)/C2.  C1 is at least the largest square-root increment
    on the capture bracket's grid, and the bracket checks the upper barrier
    on the zipper cells of step dt; C2 comes from the comparison flow.
    """
    a_bound = float(p.c * offset_constant(p.b))
    b_bound = float(p.c * norm_constant(p.b))
    m_small = 2.0 - a_bound
    m_osc = (a_bound + 4.0 / a_bound) - b_bound if a_bound > 0 else np.inf
    if m_small <= 0 or m_osc <= 0:
        raise PreconditionError(
            f"hypothesis margins nonpositive: 2 - a_bound = {m_small:.4g}, "
            f"a_bound + 4/a_bound - b_bound = {m_osc:.4g}"
        )
    rn = norm_bound_check(p)
    if not rn.ok:
        k = "norm estimate exceeds the proven bound"
        raise NumericalError(f"{k}: {rn.estimate} > {rn.bound} (b={p.b}, N={p.N})")
    ro = offset_ratio_check(p, T, range(2, 9))
    if not ro.ok:
        raise NumericalError(
            f"offset ratio bound violated: max {ro.max_ratio} >= {ro.bound} (b={p.b}, N={p.N})"
        )

    spec = p.spec(T)
    simp = simplicity_diagnostic(spec, T, dt)
    table = None
    m0 = None
    contained = None
    if simp.simple:
        s_grid = np.linspace(0.05 * T, 0.9 * T, n_weld)
        table = welding(spec, T, s_grid, dt=dt, check_simple=False)
        if compute_ratio_bound:
            C1 = capture_bracket(spec, T, b_bound * 1.001, dt=dt).ratio_max
            C2 = comparison_constant(b_bound)
            m0 = float((max(C1, b_bound) + 2.0) / C2)
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

