"""Forward conformal maps, capacity, trace reconstruction, and welding.

The forward map g_t sends the complement of the growing hull onto the upper
half-plane with the hydrodynamic expansion g_t(z) = z + c(t)/z + ..., and
the capacity normalisation pins c(t) = 2t.  The trace is rebuilt backwards
by composing elementary inverse slit maps: a cell of duration dt driven at
the constant value u is inverted by

    h(w) = u + sqrt((w - u)^2 - 4 dt),

with the square-root branch chosen into the closed upper half-plane.  The
tip of cell n is the image of the cell's own singular point, so

    gamma(t_n) = h_1 o h_2 o ... o h_{n-1}(u_n + 2i sqrt(dt)).

The composition is evaluated for all n simultaneously (one triangular
vectorised sweep) at O(n^2) map evaluations per curve.  The curve is held
as two float arrays X and Y, and each map forms its root in real arithmetic
(numpy's complex sqrt calls libm's csqrt one element at a time, some 20
times the cost of a real sqrt): with d = X - u, the argument
zeta = (w - u)^2 - 4 dt has zeta/2 = a + ib, a = (d^2 - Y^2)/2 - 2 dt and
b = d Y, and the upper root is sign(b) t + i|b|/t for a >= 0 and
b/t + i t for a < 0, where t = sqrt(|zeta|/2 + |a|); zeta = 0 gives the root
0.  A map with a < 0 at every point forms the second branch alone.  A root
on the real axis keeps the side of u that w was on (left when d < 0),
which the sign of b carries since Y >= 0; such on-axis roots are counted
as the trace's ``nudges``.

Welding: for a simple trace, g_T sends each curve point to two real prime
ends.  Each point is seeded on the slit of its cell and carried through
the later cells by the forward maps x -> u + sign(x - u) sqrt((x - u)^2 + 4 dt),
giving the welding pairs (left(s), right(s)), which converge at O(dt), and
the associated quasisymmetry statistics.  The capture bracket pushes the
barrier start lambda(T) + C1 sqrt(T) through every cell by the same maps.
These pushes run point by point on Python floats, at about 0.15 us per
point and cell against about 11 us per cell for one numpy pass over any
batch up to a few hundred points: a welding grid below about 64 points
(the pipeline's 12, the CLI's 16) is faster this way, 5.6 times at 12,
and the bracket's single point some 50 times.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import sqrt
from typing import Optional, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .driving import DrivingSpec, local_scaling_exponents
from .errors import DomainError, NumericalError, PreconditionError
from .ode import SINGULARITY_FLOOR, integrate
from .real_line import FrameDriving, solve_frame_equation

__all__ = [
    "forward_map_grid",
    "capacity_estimate",
    "TraceCurve",
    "trace",
    "simplicity_diagnostic",
    "WeldingTable",
    "welding",
    "BracketResult",
    "capture_bracket",
    "continuity_diagnostic",
    "endpoint_experiment",
]


# ---------------------------------------------------------------------------
# forward maps
# ---------------------------------------------------------------------------


def forward_map_grid(
    spec: DrivingSpec,
    t_checkpoints: Sequence[float],
    zs: Sequence[complex],
) -> np.ndarray:
    """g_t(z) on a grid of times and points, one vectorised integration.

    All points must stay away from the hull over the whole time range
    (:func:`loewner.imaginary.solve_planar` follows one point that may be
    captured and reports its capture time); a collapsing gap raises rather
    than returning poisoned values.  Every checkpoint
    must be a finite time in [0, spec.T]; the rows at t = 0 are ``zs``.
    """
    ts = np.asarray(t_checkpoints, dtype=float)
    for t in ts:
        if not 0.0 <= t <= spec.T:
            raise DomainError(f"checkpoint t={float(t)!r} outside the driving domain [0, {spec.T!r}]")
    ts = np.sort(ts)
    zs = np.asarray(zs, dtype=complex)
    if np.any(zs.imag < 0):
        raise DomainError("points must lie in the closed upper half-plane")

    def fieldf(t, u):
        dz = u - spec(t)
        if np.min(np.abs(dz)) < 100 * SINGULARITY_FLOOR:
            raise NumericalError(
                "a grid point approached the singularity; remove near-hull points"
            )
        return 2.0 / dz

    out = np.tile(zs, (ts.size, 1))
    if ts.size and ts[-1] > 0.0:
        path = integrate(fieldf, zs, (0.0, float(ts[-1])), t_stops=ts)
        for i, t in enumerate(ts):
            k = int(np.argmin(np.abs(path.times - t)))
            out[i] = path.values[k]
    return out


def capacity_estimate(
    spec: DrivingSpec,
    t: float,
    R: float,
) -> tuple[float, float]:
    """Estimate the capacity coefficient c(t) from far-field probes.

    Averages Re[z (g_t(z) - z)] over the probes {iR, R e^{i pi/4},
    R e^{3i pi/4}}; the symmetric probe set cancels the 1/z correction, so
    the returned error bound scales like 1/R^2.  Raises when the estimate
    misses the normalisation c(t) = 2t by more than the bound.
    """
    if t == 0.0:
        return 0.0, 0.0  # nothing has grown
    lam_scale = float(np.max(np.abs(spec(np.linspace(0.0, t, 257)))))
    hull_scale = 2.0 * np.sqrt(t) + lam_scale
    if R < 10.0 * max(1.0, hull_scale):
        raise PreconditionError(f"probe radius {R} too small for hull scale {hull_scale}")
    zs = R * np.array([1j, np.exp(1j * np.pi / 4), np.exp(3j * np.pi / 4)])
    g = forward_map_grid(spec, [t], zs)[0]
    est = float(np.mean((zs * (g - zs)).real))
    bound = 50.0 * max(1.0, hull_scale) ** 3 / R**2 + 1e-7
    if abs(est - 2.0 * t) > bound:
        raise NumericalError(
            f"capacity estimate {est} misses 2t = {2 * t} beyond the bound {bound}"
        )
    return est, bound


# ---------------------------------------------------------------------------
# trace reconstruction
# ---------------------------------------------------------------------------


# at most ceil(T/dt) = 2^23 zipper cells: 200 MB of edges, durations and driving values
MAX_CELLS = 2**23

_HALF = np.array(0.5)  # a 0-d operand, which numpy dispatches faster than a float
_HALF.flags.writeable = False

# the prime ends of one welding side span at least this fraction of their
# largest size (2^20 eps), or they are rounding noise and no welding map
_WELD_NOISE = 2.0**20 * np.finfo(float).eps


def _cells(spec: DrivingSpec, T: float, dt: float):
    """Edges, durations and driving values u_k of the zipper cells (see trace)."""
    if not (0.0 < T < np.inf and 0.0 < dt < np.inf):
        raise DomainError(f"T and dt must be positive finite numbers, got T={T!r}, dt={dt!r}")
    if T > spec.T * (1 + 1e-12):
        raise DomainError("zipper horizon exceeds the driving domain")
    if dt < T / MAX_CELLS:  # ceil(T/dt) > MAX_CELLS, without forming T/dt
        raise DomainError(
            f"T = {T!r} and dt = {dt!r} give more zipper cells than MAX_CELLS = {MAX_CELLS}"
        )
    edges = np.arange(0.0, T + dt * 0.5, dt)
    if edges[-1] < T - 1e-12 * T:
        edges = np.append(edges, T)
    edges[-1] = min(edges[-1], T)
    hs = np.diff(edges)
    u = np.asarray(spec(edges[1:]))
    return edges, hs, u


def _inverse_slit_map(x, y, u, h4, work) -> int:
    """Map the points w = x + iy in place by w -> u + sqrt((w - u)^2 - h4).

    ``h4`` is 4h for a cell of duration h; ``u`` and ``h4`` may be floats or
    0-d arrays (which numpy dispatches faster).  The root is taken in the
    closed upper half-plane and formed in real arithmetic.  With d = x - u,
    zeta/2 = a + ib where a = ((d^2 - y^2) - 4h)/2 and b = d y; m = |zeta|/2,
    t = sqrt(m + |a|) is the larger root component and q = b / t the
    smaller one:

        a >= 0:  root = sign(b) t + i |q|
        a <  0:  root = q + i t.

    When every a is negative (a NaN fails this test) the kernel forms only
    the second branch, t = sqrt(m - a), which equals sqrt(m + |a|) bit for
    bit; t > 0 there, so no root lies on the axis.  Otherwise it selects per
    point.  zeta = 0 (t = 0) gives the root 0.  An on-axis root (Im = 0,
    Re != 0) keeps the prime-end side of w: y >= 0, so the sign of b is the
    sign of d, and the root lies left of u exactly when d < 0.  ``work``
    holds four float scratch arrays and one bool array, each as long as x.
    Returns the number of on-axis roots.  Division by t = 0 must be
    silenced by the caller (``np.errstate(invalid="ignore")``).
    """
    a, b, t, q, neg = work
    np.subtract(x, u, out=x)  # x holds d until the root overwrites it
    np.multiply(x, x, out=a)
    np.multiply(y, y, out=t)
    np.subtract(a, t, out=a)
    np.subtract(a, h4, out=a)
    np.multiply(a, _HALF, out=a)
    np.multiply(x, y, out=b)
    np.multiply(a, a, out=t)
    np.multiply(b, b, out=q)
    np.add(t, q, out=t)
    np.sqrt(t, out=t)  # t holds m = |zeta|/2
    if np.maximum.reduce(a) < 0.0:  # one branch: every root is q + i t with t > 0
        np.subtract(t, a, out=y)
        np.sqrt(y, out=y)
        np.divide(b, y, out=x)
        np.add(x, u, out=x)
        return 0
    np.abs(a, out=q)
    np.add(t, q, out=t)
    np.sqrt(t, out=t)
    np.divide(b, t, out=q)
    np.less(a, 0.0, out=neg)
    np.abs(q, out=y)
    np.copyto(y, t, where=neg)
    np.copysign(t, b, out=x)
    np.copyto(x, q, where=neg)
    np.add(x, u, out=x)
    if np.minimum.reduce(y) > 0.0:  # the common case: every root strictly above the axis
        return 0
    at_zero = t == 0.0
    y[at_zero] = 0.0  # zeta = 0 left q = 0/0 in y; its root is 0, so w = u
    return int(np.count_nonzero((y == 0.0) & ~at_zero))


def _compose(
    u: np.ndarray, hs: np.ndarray, y, seeds: Optional[np.ndarray] = None
) -> tuple[np.ndarray, int]:
    """w_k = h_1 o ... o h_k(u_k + iy) for every cell k, and the nudge count.

    Each seed passes through its own cell map first; at y = 0 that map
    sends u_k to the tip u_k + 2i sqrt(h_k) of cell k.  The curve is kept
    as two float arrays and swept backwards map by map through
    :func:`_inverse_slit_map`, which reuses one set of work buffers; the
    nudge count is the number of on-axis roots met on the way.

    ``seeds``, a sorted array of cell indices, composes only those cells'
    points: map k acts on the seeds with index >= k, a suffix of the
    sweep's arrays.  A cell may be seeded more than once, and ``y`` may give
    one height per seed.  Every operation is element-wise and correctly
    rounded, so each returned point equals the full sweep's bit for bit
    (the nudge count covers the seeds only).  Each map reads u_k and 4h_k
    as 0-d views.
    """
    n = u.size
    seeds = np.arange(n) if seeds is None else np.asarray(seeds)
    first = np.searchsorted(seeds, np.arange(n)).tolist()  # first seed >= k
    x = np.asarray(u[seeds], dtype=float)  # fancy indexing copies u
    ys = np.empty(seeds.size)
    ys[...] = y
    h4 = 4.0 * hs
    work = [np.empty(seeds.size) for _ in range(4)] + [np.empty(seeds.size, dtype=bool)]
    nudges = 0
    with np.errstate(invalid="ignore"):
        for k in range(n - 1, -1, -1):
            m = first[k]
            if m < seeds.size:
                nudges += _inverse_slit_map(
                    x[m:], ys[m:], u[k, ...], h4[k, ...], [b[m:] for b in work]
                )
    w = x.astype(complex)
    w.imag = ys
    return w, nudges


@dataclass
class TraceCurve:
    times: np.ndarray
    points: np.ndarray
    cell_step: float
    nudges: int = 0


def trace(
    spec: DrivingSpec,
    T: float,
    dt: float,
) -> TraceCurve:
    """Reconstruct the trace by composing elementary inverse slit maps.

    Cell k covers [t_{k-1}, t_k] and is driven at u_k = lambda(t_k), the
    right endpoint.  The point gamma(t_n) is the composition
    h_1 o ... o h_{n-1} applied to the tip u_n + 2i sqrt(h_n) of cell n.  A
    short final cell is used when dt does not divide T.
    """
    edges, hs, u = _cells(spec, T, dt)
    w, nudges = _compose(u, hs, 0.0)
    times = edges
    points = np.concatenate([[complex(spec(0.0))], w])
    if not np.all(np.isfinite(points)):
        raise NumericalError("trace composition produced non-finite points")
    return TraceCurve(
        times=times,
        points=points,
        cell_step=float(dt),
        nudges=nudges,
    )


def _refined_points(spec: DrivingSpec, T: float, dt: float, times) -> np.ndarray:
    """The points of ``trace(spec, T, dt / 2)`` at ``times``, edges of the dt grid past 0.

    Every edge of the dt grid is an edge of the dt/2 grid, and when dt does
    not divide T the short last cells of both end at T, so only the dt/2
    cells that end at ``times`` are composed (:func:`_compose` with
    ``seeds``), about half the refinement's map evaluations.  Each point
    equals the full refined trace's bit for bit.
    """
    edges, hs, u = _cells(spec, T, dt / 2.0)
    w, _ = _compose(u, hs, 0.0, np.searchsorted(edges, times) - 1)
    if not np.all(np.isfinite(w)):
        raise NumericalError("trace composition produced non-finite points")
    return w


@dataclass
class SimplicityReport:
    simple: bool
    min_separation: float
    pair: Optional[tuple[int, int]]
    refinement_scale: float
    touch_pair: Optional[tuple[int, int]] = None


def simplicity_diagnostic(
    spec: DrivingSpec,
    T: float,
    dt: float,
) -> SimplicityReport:
    """Flag self-touching traces.

    A pair of non-adjacent points (index gap above 5) is suspicious when
    closer than 3 times the local refinement displacement (the pointwise
    distance between the dt and dt/2 traces, maximised over a 32-point
    window).  Genuine touching also requires the curve to leave and come
    back: the arc between the two indices must extend 10 times farther
    than the pair distance, which separates a slowing tip (points bunch
    while the arc stays short) from an actual return.

    The dt/2 trace is read only at the times of the dt grid
    (:func:`_refined_points`).  The pair scan runs over row chunks in
    row-major order on squared distances of the real and imaginary parts;
    the pairs within a relative 1e-12 of the chunk minimum or of
    the squared threshold are re-measured as |p_i - p_j|, so the minimum,
    its pair and the candidate order (the first 200 per chunk are tested
    for a return) are those of the exact distances.
    """
    c1 = trace(spec, T, dt)
    pts = c1.points
    n = pts.size
    disp = np.concatenate([[0.0], np.abs(pts[1:] - _refined_points(spec, T, dt, c1.times[1:]))])
    scale = float(np.maximum(np.max(disp), 1e-12))
    # local refinement scale: max of disp[i - 16 : i + 16]
    win = 16
    padded = np.concatenate([np.full(win, -np.inf), disp, np.full(win - 1, -np.inf)])
    local = np.maximum(sliding_window_view(padded, 2 * win).max(axis=1), 1e-12)
    # d^2 < max(lim_i, lim_j) holds for every pair with d < thresh
    lim = (3.0 * local) ** 2 * (1.0 + 1e-12)

    X, Y = pts.real.copy(), pts.imag.copy()
    best = np.inf
    pair = None
    touch_pair = None
    # rows go in chunks of about 2e6 pairs, and the first 200 candidates of a
    # chunk are tested for a return; each chunk is formed in blocks of about
    # 65k pairs, which stay in cache
    chunk = min(n, max(1, 2_000_000 // n))
    block = min(chunk, max(1, 65_536 // n))
    d2_buf, dy_buf = np.empty((block, n)), np.empty((block, n))
    rows = np.arange(block)
    for i0 in range(0, n, chunk):
        i1 = min(i0 + chunk, n)
        tested = 0
        for b0 in range(i0, i1, block):
            b1 = min(b0 + block, i1)
            r = rows[: b1 - b0]
            d2 = np.subtract(X[b0:b1, None], X[None, :], out=d2_buf[: b1 - b0])
            dy = np.subtract(Y[b0:b1, None], Y[None, :], out=dy_buf[: b1 - b0])
            np.multiply(d2, d2, out=d2)
            np.multiply(dy, dy, out=dy)
            np.add(d2, dy, out=d2)
            for off in range(-5, 6):  # the band |i - j| <= 5
                j = r + (b0 + off)
                inside = (j >= 0) & (j < n)
                d2[r[inside], j[inside]] = np.inf
            m2 = float(d2.min())
            # a pair at exact distance below best has d^2 below this bound;
            # the absolute slack covers squares that underflow to subnormals
            if m2 < best * best * (1.0 + 1e-12) + 1e-300:
                ci, cj = np.divmod(np.flatnonzero(d2 <= m2 * (1.0 + 1e-12) + 1e-300), n)
                d = np.abs(pts[b0 + ci] - pts[cj])
                k = int(np.argmin(d))
                if d[k] < best:
                    best = float(d[k])
                    pair = (b0 + int(ci[k]), int(cj[k]))
            if touch_pair is None and tested < 200:
                ci, cj = np.nonzero(d2 < np.maximum(lim[b0:b1, None], lim[None, :], out=dy))
                ci += b0
                d = np.abs(pts[ci] - pts[cj])
                cand = np.flatnonzero(d < 3.0 * np.maximum(local[ci], local[cj]))[: 200 - tested]
                tested += cand.size
                for i, j, dij in zip(ci[cand].tolist(), cj[cand].tolist(), d[cand].tolist()):
                    lo, hi = min(i, j), max(i, j)
                    arc = float(np.max(np.abs(pts[lo : hi + 1] - pts[lo])))
                    if arc > 10.0 * dij:
                        touch_pair = (i, j)
                        break
    return SimplicityReport(
        simple=touch_pair is None,
        min_separation=best,
        pair=pair,
        refinement_scale=scale,
        touch_pair=touch_pair,
    )


# ---------------------------------------------------------------------------
# welding and the capture bracket: real points pushed forward
# ---------------------------------------------------------------------------


def _push_forward(x, sides, first, u, hs):
    """Carry real points through the zipper cells in place.

    Row r of the 2-d array x holds points on side sides[r] of the driving
    (-1.0 left, +1.0 right), and column j starts at cell first[j].  Each
    point goes on alone, as a Python float, through every later cell k by
    x -> u_k + side sqrt((x - u_k)^2 + 4 h_k), the exact forward slit map on
    the real line.  Each operation is correctly rounded, so a point does not
    depend on which others are pushed with it.  Returns the smallest
    (k, row, column) of a point met on the wrong side of u_k
    (side (x - u_k) <= 0), or None when every point stays on its side; x is
    left unspecified after a crossing.  Python floats ignore
    ``np.errstate``: an overflow gives inf silently.
    """
    us, h4 = u.tolist(), (4.0 * hs).tolist()
    n = len(us)
    crossing = None
    rows = x.tolist()
    for row, (side, points) in enumerate(zip(sides, rows)):
        for col, (p, k0) in enumerate(zip(points, first)):
            for k in range(k0, n):
                uk = us[k]
                d = p - uk
                if side * d <= 0:
                    if crossing is None or (k, row, col) < crossing:
                        crossing = (k, row, col)
                    break
                p = uk + side * sqrt(d * d + h4[k])
            points[col] = p
    x[...] = rows
    return crossing


@dataclass
class WeldingTable:
    s_grid: np.ndarray
    left: np.ndarray
    right: np.ndarray
    ratio1: np.ndarray
    lambda_T: float
    ratio1_range: tuple[float, float]
    ratio2_range: tuple[float, float]


def welding(
    spec: DrivingSpec,
    T: float,
    s_grid: Sequence[float],
    dt: float = 1e-3,
    check_simple: bool = True,
) -> WeldingTable:
    """Extract the conformal welding of the zipper trace (cell step dt).

    A time s in the cell [t_j, t_{j+1}] of :func:`trace` is seeded after
    that cell at c(s) -/+ 2 sqrt(t_{j+1} - s), with the centre c(s) sliding
    linearly from u_j to u_{j+1}: the seeds are continuous in s across cell
    edges and exact for constant driving.  Each later cell k maps them by
    x -> u_k + sign(x - u_k) sqrt((x - u_k)^2 + 4 h_k); a point on the wrong
    side of u_k (a one-cell jump of at least 2 sqrt(h_k)) raises, since the
    discrete curve is not simple there.  ratio1 = (left - lambda(T)) /
    (lambda(T) - right) per row; the three-point statistic uses equally
    spaced triples through a monotone interpolant of the welding map, so
    the grid needs at least 3 points.
    """
    s_grid = np.sort(np.asarray(s_grid, dtype=float))
    edges, hs, u = _cells(spec, T, dt)
    if s_grid.size < 3 or s_grid[0] < 0 or s_grid[-1] >= edges[-1]:
        raise DomainError("welding grid must have at least 3 points in [0, T)")
    if check_simple:
        rep = simplicity_diagnostic(spec, T, dt)
        if not rep.simple:
            raise PreconditionError(
                f"trace failed the simplicity diagnostic (pair {rep.pair})"
            )
    lam_T = float(spec(T))

    # row 0 holds the left prime ends, row 1 the right ones; a point seeded
    # in cell j is pushed from cell j + 1 on
    cell = np.searchsorted(edges, s_grid, side="right") - 1
    side = np.array([[-1.0], [1.0]])
    rest = edges[cell + 1] - s_grid
    jump = np.diff(u, append=u[-1])
    x = u[cell] + jump[cell] * (1.0 - rest / hs[cell]) + side * 2.0 * np.sqrt(rest)
    crossing = _push_forward(x, (-1.0, 1.0), (cell + 1).tolist(), u, hs)
    if crossing is not None:
        k, row, col = crossing
        raise NumericalError(
            f"welding {('left', 'right')[row]} point of s = {s_grid[col]} crossed "
            f"the driving in cell {k}: the discrete curve is not simple there"
        )
    left, right = x
    if np.any(left >= lam_T) or np.any(right <= lam_T):
        raise NumericalError("welding images crossed lambda(T); grid too close to T?")

    ratio1 = (left - lam_T) / (lam_T - right)

    span = left[-1] - left[0]
    for name, d, ends in (("left", span, left), ("right", right[0] - right[-1], right)):
        if d <= _WELD_NOISE * max(abs(ends[0]), abs(ends[-1])):
            raise NumericalError(f"welding map is degenerate: the {name} prime ends span "
                                 f"{float(d)!r}, within rounding of their size")

    # three-point quasisymmetry on the interpolated welding map; the prime
    # ends stay in the order of s while one-cell jumps are below sqrt(h)
    h = span * np.array([1 / 64, 1 / 32, 1 / 16, 1 / 8])
    v = np.linspace(left[0], left[-1] - 2 * h, 33)[..., None] + h[:, None] * np.arange(3)
    phi = np.interp(v, left, right)
    num, den = phi[..., 1] - phi[..., 0], phi[..., 2] - phi[..., 1]
    q = num[den != 0] / den[den != 0]
    if q.size == 0:
        raise NumericalError("welding map is degenerate: every three-point denominator is 0")
    return WeldingTable(
        s_grid=s_grid,
        left=left,
        right=right,
        ratio1=ratio1,
        lambda_T=lam_T,
        ratio1_range=(float(np.min(ratio1)), float(np.max(ratio1))),
        ratio2_range=(float(q.min()), float(q.max())),
    )


@dataclass
class BracketResult:
    x0: float
    X_T: float
    gap0: float
    gap_T: float
    bound: float
    ratio_max: float


def capture_bracket(
    spec: DrivingSpec,
    T: float,
    C1: float,
    dt: float = 1e-3,
) -> BracketResult:
    """Start at lambda(T) + C1 sqrt(T) and verify X(T) - lambda(T) < (C1+2) sqrt(T).

    Requires |lambda(T) - lambda(t)| / sqrt(T - t) < C1 on [0, T), verified
    on a grid clustered at T, from the driving's exact increments.  A small
    relative slack admits drivings that attain the bound exactly.  X(T) is
    the start pushed through every zipper cell of step dt by the exact
    forward slit maps, which is exact for constant driving and O(dt) from
    the Loewner flow otherwise.
    """
    _, hs, u = _cells(spec, T, dt)
    lam_T = float(spec(T))
    dts = T * np.concatenate([np.linspace(1e-4, 1.0, 256), np.geomspace(1e-4, 1e-8, 256)])
    ratios = np.abs(spec._drop(T, dts)) / np.sqrt(dts)
    ratio_max = float(np.max(ratios))
    if ratio_max > C1 + 1e-6 * max(1.0, C1):
        bad = float(T - dts[int(np.argmax(ratios))])
        raise PreconditionError(
            f"|lambda(T)-lambda(t)|/sqrt(T-t) = {ratio_max:.6g} > C1 = {C1} at t = {bad}"
        )
    x0 = lam_T + C1 * np.sqrt(T)
    x = np.array([[x0]])
    if _push_forward(x, (1.0,), (0,), u, hs) is not None:
        raise NumericalError("bracket solution unexpectedly captured")
    X_T = float(x[0, 0])
    gap_T = X_T - lam_T
    bound = (C1 + 2.0) * np.sqrt(T)
    if not gap_T < bound:
        raise NumericalError(f"bracket bound violated: gap {gap_T} >= {bound}")
    return BracketResult(x0, X_T, C1 * np.sqrt(T), gap_T, bound, ratio_max)


# ---------------------------------------------------------------------------
# boundary-continuity diagnostic
# ---------------------------------------------------------------------------


@dataclass
class ContinuityReport:
    y_ladder: np.ndarray
    sup_distances: np.ndarray  # between consecutive ladder levels
    cauchy_trend: bool
    values: np.ndarray  # shape (len(ladder), n_times)


def continuity_diagnostic(
    spec: DrivingSpec,
    T: float,
    y_ladder: Sequence[float],
    dt: float = 1e-3,
) -> ContinuityReport:
    """Probe the continuity of t -> inverse image of lambda(t) + i y.

    For each ladder height y the composition is seeded at lambda(t_n) + iy
    (the n-th cell map applied first); the trace is the y -> 0 limit.  The
    sup distance between consecutive ladder levels decreasing is the Cauchy
    trend that signals a continuous trace.  Every level shares every map,
    so the levels go through one sweep, laid out point-major: the seeds of
    cell k at all heights sit together.
    """
    y_ladder = np.asarray(y_ladder, dtype=float)
    if np.any(np.diff(y_ladder) >= 0) or np.any(y_ladder <= 0):
        raise DomainError("ladder must be strictly decreasing and positive")
    _, hs, u = _cells(spec, T, dt)
    n, levels = u.size, y_ladder.size
    w, _ = _compose(u, hs, np.tile(y_ladder, n), np.repeat(np.arange(n), levels))
    vals = np.ascontiguousarray(w.reshape(n, levels).T)
    sup = np.max(np.abs(np.diff(vals, axis=0)), axis=1)
    trend = bool(np.all(np.diff(sup) < 1e-12)) if sup.size > 1 else True
    return ContinuityReport(y_ladder, sup, trend, vals)


# ---------------------------------------------------------------------------
# endpoint experiment for steep square-root approaches
# ---------------------------------------------------------------------------


@dataclass
class EndpointExperiment:
    a_hat: float
    b_hat: float
    dts: np.ndarray
    endpoint_stats: np.ndarray
    decreasing: bool
    band_floor: float
    band_min_observed: float
    band_ok: bool


def endpoint_experiment(
    spec: DrivingSpec,
    T: float,
    dt: float = 2e-3,
    scales=None,
) -> EndpointExperiment:
    """Probe trace-endpoint behaviour for steep square-root approaches.

    Hypotheses (checked, error on failure): the scaling estimates at T
    satisfy a_hat >= 5 and b_hat < a_hat + 4/a_hat.  The experiment
    traces at dt, dt/2 and dt/4 and tracks

        e(dt) = min(|Im gamma(T)|, distance from gamma(T) to the earlier
                trace),

    which should decrease under refinement when the endpoint returns to the
    real line or to the curve.  It also verifies the persistent-gap band:
    frame solutions started in ((b + sqrt(b^2-16))/2, a) stay there and keep
    xi - x >= a - (b + sqrt(b^2-16))/2 - 0.05 after a burn-in to s = 5.
    """
    rep = local_scaling_exponents(spec, T, scales)
    a_hat, b_hat = rep.a_hat, rep.b_hat
    if a_hat < 5.0:
        raise PreconditionError(f"a_hat = {a_hat:.4f} < required 5.0")
    if not b_hat < a_hat + 4.0 / a_hat:
        raise PreconditionError(f"b_hat = {b_hat:.4f} >= a_hat + 4/a_hat")

    dts = dt / 2.0 ** np.arange(3)
    stats = []
    for d in dts:
        c = trace(spec, T, float(d))
        tip = c.points[-1]
        earlier = c.points[c.times <= 0.9 * T]
        dist = float(np.min(np.abs(tip - earlier)))
        stats.append(min(abs(tip.imag), dist))
    stats = np.asarray(stats)
    decreasing = bool(np.all(np.diff(stats) < 0))

    # persistent-gap band check through the frame equation
    r_b = (b_hat + np.sqrt(max(b_hat**2 - 16.0, 0.0))) / 2.0
    xi = FrameDriving(spec, T)
    floor = a_hat - r_b - 0.05
    band_min = np.inf
    for x0 in np.linspace(r_b + 0.1 * (a_hat - r_b), a_hat - 0.1 * (a_hat - r_b), 5):
        run = solve_frame_equation(xi, float(x0), 25.0)
        ss = run.path.times
        xs = np.asarray(run.path.values, dtype=float)
        late = ss >= 5.0
        if not np.any(late):
            continue
        eta_min = float(np.min(np.asarray(xi(ss[late])) - xs[late]))
        band_min = min(band_min, eta_min)
    return EndpointExperiment(
        a_hat=a_hat,
        b_hat=b_hat,
        dts=dts,
        endpoint_stats=stats,
        decreasing=decreasing,
        band_floor=floor,
        band_min_observed=float(band_min),
        band_ok=bool(band_min >= floor),
    )
