import numpy as np
import pytest

from loewner import DomainError, DrivingSpec, NumericalError, PreconditionError, hull
from loewner.hull import (
    MAX_CELLS,
    SimplicityReport,
    _cells,
    _compose,
    _inverse_slit_map,
    _push_forward,
    _refined_points,
    capacity_estimate,
    capture_bracket,
    continuity_diagnostic,
    endpoint_experiment,
    forward_map_grid,
    simplicity_diagnostic,
    trace,
    welding,
)
from loewner.ode import integrate
from loewner.real_line import capture_scan, solve_real_loewner
from loewner.weierstrass import WeierstrassParams, norm_constant

ZERO = DrivingSpec("constant", {"value": 0.0}, 2.0)


def sqrt_spec(c, T=1.0):
    return DrivingSpec("sqrt_approach", {"c": c}, T)


class TestForwardMap:
    def test_grid_matches_closed_form(self):
        zs = np.array([1 + 0.5j, -2 + 1j, 0.3 + 2j, 5 + 0.1j])
        g = forward_map_grid(ZERO, [0.25, 1.0], zs)
        for i, t in enumerate((0.25, 1.0)):
            ref = np.sqrt(zs**2 + 4 * t)
            ref = np.where(ref.imag < 0, -ref, ref)
            assert np.max(np.abs(g[i] - ref)) < 1e-8

    @pytest.mark.parametrize("ts, bad", [
        ([-0.5, 0.5], "-0.5"),  # returned the points as g at t = -0.5
        ([0.5, 2.5], "2.5"),  # raised about an internal stage time
        ([0.5, np.nan], "nan"),
    ])
    def test_checkpoint_outside_the_domain_named(self, ts, bad):
        with pytest.raises(DomainError, match=f"checkpoint t={bad} outside"):
            forward_map_grid(ZERO, ts, [1 + 1j])

    def test_checkpoints_at_zero_are_the_points(self):
        zs = np.array([1 + 0.5j, -2 + 1j])
        assert np.array_equal(forward_map_grid(ZERO, [0.0], zs), [zs])
        g = forward_map_grid(ZERO, [0.0, 0.25], zs)
        assert np.array_equal(g[0], zs)
        assert np.array_equal(g[1], forward_map_grid(ZERO, [0.25], zs)[0])


class TestCapacity:
    def test_trivial_driving(self):
        est, bound = capacity_estimate(ZERO, 0.5, 100.0)
        assert est == pytest.approx(1.0, abs=1e-3)

    def test_nothing_grown_at_time_zero(self):
        est, bound = capacity_estimate(ZERO, 0.0, 100.0)
        assert est == 0.0 and bound == 0.0

    def test_radius_precondition(self):
        with pytest.raises(PreconditionError):
            capacity_estimate(ZERO, 1.0, 5.0)

    def test_additivity_with_shift(self):
        spec = sqrt_spec(2.0)
        t1, t2 = 0.3, 0.4
        full, _ = capacity_estimate(spec, t1 + t2, 250.0)
        first, _ = capacity_estimate(spec, t1, 250.0)
        shifted = DrivingSpec("composite", {"base": spec, "t_offset": t1, "scale": 1.0}, 1.0 - t1)
        rest, _ = capacity_estimate(shifted, t2, 250.0)
        assert full == pytest.approx(first + rest, abs=5e-3)


class TestTrace:
    def test_vertical_slit_exact(self):
        for dt in (1e-2, 1e-3):
            c = trace(ZERO, 1.0, dt)
            assert np.max(np.abs(c.points - 2j * np.sqrt(c.times))) < 1e-9

    def test_constant_driving_semigroup(self):
        # cells with a common driving value compose to the closed form
        # independently of the cell size
        u = 1.3
        spec = DrivingSpec("constant", {"value": u}, 1.0)
        for dt in (0.05, 0.01):
            c = trace(spec, 1.0, dt)
            ref = u + 2j * np.sqrt(c.times)
            assert np.max(np.abs(c.points - ref)) < 1e-10

    @pytest.mark.parametrize("zipper", [
        lambda dt: trace(ZERO, 1.0, dt),
        lambda dt: welding(ZERO, 1.0, [0.1, 0.2, 0.3], dt=dt, check_simple=False),
        lambda dt: capture_bracket(ZERO, 1.0, 1.0, dt=dt),
        lambda dt: continuity_diagnostic(ZERO, 1.0, [0.1], dt=dt),
    ], ids=["trace", "welding", "bracket", "continuity"])
    @pytest.mark.parametrize("dt", [2.0**-60, 1e-300, 5e-324])
    def test_cell_limit_raises_before_allocating(self, zipper, dt):
        # only counts far above the limit, which numpy could not allocate
        # either: a count just above it would take hundreds of MB if the
        # check were lost
        with pytest.raises(DomainError, match=f"MAX_CELLS = {MAX_CELLS}"):
            zipper(dt)

    def test_truncated_last_cell(self):
        c = trace(ZERO, 1.0, 0.3)
        assert c.times[-1] == pytest.approx(1.0)
        assert abs(c.points[-1] - 2j) < 1e-9

    def test_first_point_is_origin_value(self):
        spec = sqrt_spec(3.0)
        c = trace(spec, 1.0, 1e-2)
        assert c.points[0] == pytest.approx(spec(0.0), abs=1e-12)
        assert np.min(c.points.imag) >= -1e-9

    def test_boundary_family_endpoint_sinks(self):
        # at the capture threshold the endpoint approaches the real line
        # under refinement; below it the endpoint stays high
        ims4 = [abs(trace(sqrt_spec(4.0), 1.0, dt).points[-1].imag)
                for dt in (2e-3, 1e-3, 5e-4)]
        ims3 = [abs(trace(sqrt_spec(3.0), 1.0, dt).points[-1].imag)
                for dt in (2e-3, 1e-3, 5e-4)]
        assert ims4[0] > ims4[1] > ims4[2]
        assert min(ims3) > 1.0

    def test_real_footprint_matches_capture_scan(self):
        # the real extent of the curve reaches the right endpoint of the
        # set of points captured at T, and no further (within O(sqrt(dt)))
        spec = sqrt_spec(5.0)
        scan = capture_scan(spec, 1.0, mirrored=False)
        c = trace(spec, 1.0, 5e-4)
        extent = float(np.max(c.points.real))
        assert abs(extent - scan.interval[1]) < 0.1
        zero_scan = capture_scan(DrivingSpec("constant", {"value": 0.0}, 1.0), 1.0)
        assert zero_scan.interval is None
        c0 = trace(DrivingSpec("constant", {"value": 0.0}, 1.0), 1.0, 1e-3)
        assert np.max(np.abs(c0.points.real)) < 1e-9


def complex_slit_root(x, y, u, h):
    """Reference root: numpy's complex sqrt flipped into the upper half-plane,
    with an on-axis root put on the side of u that w was on."""
    seg = np.asarray(x, dtype=float) + 1j * np.asarray(y, dtype=float) - u
    s = np.sqrt(seg * seg - 4.0 * h)
    s = np.where(s.imag < 0.0, -s, s)
    on_axis = (s.imag == 0.0) & (s.real != 0.0)
    s = np.where(on_axis & (np.sign(seg.real) < 0), -s, s)
    return u + s, int(np.count_nonzero(on_axis))


def planar_slit_root(x, y, u, h):
    x, y = np.array(x, dtype=float), np.array(y, dtype=float)
    work = [np.empty(x.size) for _ in range(4)] + [np.empty(x.size, dtype=bool)]
    with np.errstate(invalid="ignore"):
        nudges = _inverse_slit_map(x, y, u, 4.0 * h, work)
    return x + 1j * y, nudges


class TestPlanarKernel:
    U, H = 0.3, 0.25  # the slit of the cell has its base at u +/- 2 sqrt(h) = u +/- 1

    @pytest.mark.parametrize("d, y", [
        ([1.0, -1.0], [0.0, 0.0]),  # zeta = 0
        ([0.0, 0.0, 0.0, 0.5, -0.5], [0.0, 0.5, 2.0, 0.0, 0.0]),  # zeta < 0
        ([3.0, 0.2, 1e-9, 40.0], [0.5, 2.0, 3.0, 1e-6]),  # Im zeta > 0, both branches
        ([-3.0, -0.2, -1e-9, -40.0], [0.5, 2.0, 3.0, 1e-6]),  # Im zeta < 0
        ([2.0, 5.0, -2.0], [0.0, 0.0, 0.0]),  # on the axis, both sides of u
    ])
    def test_root_matches_the_complex_reference(self, d, y):
        x = self.U + np.asarray(d)
        got, nudges = planar_slit_root(x, y, self.U, self.H)
        ref, ref_nudges = complex_slit_root(x, y, self.U, self.H)
        assert np.all(np.isfinite(got)) and np.all(got.imag >= 0.0)
        assert np.max(np.abs(got - ref)) <= 4e-16 * np.max(np.abs(ref) + 1.0)
        assert nudges == ref_nudges

    # a = ((d^2 - y^2) - 4h)/2 < 0 at every point: the one-branch path
    ONE_BRANCH = ([0.0, 0.5, -0.5, 0.9, -0.2, 1e-9, 0.0, 2.0],
                  [0.0, 0.0, 0.0, 0.1, 1.5, 3.0, 1e-300, 2.0])

    @pytest.mark.parametrize("extra", [
        ([], []),
        ([3.0], [0.5]),  # one a >= 0 point: the select path
        ([2.0], [0.0]),  # one a >= 0 point on the axis, a nudge
        ([1.0], [0.0]),  # zeta = 0
    ], ids=["one-branch", "select", "select-on-axis", "select-zeta-zero"])
    def test_batch_equals_each_point_alone(self, extra):
        d = np.concatenate([self.ONE_BRANCH[0], extra[0]])
        y = np.concatenate([self.ONE_BRANCH[1], extra[1]])
        a = ((d * d - y * y) - 4.0 * self.H) / 2.0
        assert (np.max(a) < 0.0) == (len(extra[0]) == 0)
        x = self.U + d
        got, nudges = planar_slit_root(x, y, self.U, self.H)
        alone = [planar_slit_root(x[i : i + 1], y[i : i + 1], self.U, self.H) for i in range(x.size)]
        assert np.array_equal(got.real, [w.real[0] for w, _ in alone])
        assert np.array_equal(got.imag, [w.imag[0] for w, _ in alone])
        assert nudges == sum(nd for _, nd in alone)

    @pytest.mark.parametrize("spec", [
        DrivingSpec("brownian", {"kappa": 2.0}, 1.0, seed=100),
        DrivingSpec("weierstrass_partial", {"c": 0.3, "b": 9.0, "N": 3}, 1.0),
        sqrt_spec(5.5),
    ], ids=["brownian", "weierstrass", "sqrt_approach"])
    @pytest.mark.parametrize("n", [1000, 2000])
    def test_trace_matches_the_complex_composition(self, spec, n):
        _, hs, u = _cells(spec, 1.0, 1.0 / n)
        w, nudges = u + 0j, 0
        for k in range(u.size - 1, -1, -1):
            w[k:], nd = complex_slit_root(w[k:].real, w[k:].imag, u[k], hs[k])
            nudges += nd
        c = trace(spec, 1.0, 1.0 / n)
        assert np.max(np.abs(c.points[1:] - w)) <= 1e-12
        assert c.nudges == nudges


def reference_simplicity(spec, T, dt):
    """simplicity_diagnostic as it stood before its refinement points were
    composed alone and its pair scan moved to squared distances: two full
    traces, a Python window loop and complex distances."""
    c1 = trace(spec, T, dt)
    c2 = trace(spec, T, dt / 2.0)
    pts = c1.points
    disp = np.abs(pts - c2.points[np.searchsorted(c2.times, c1.times)])
    scale = float(np.maximum(np.max(disp), 1e-12))
    n = pts.size
    win = 16
    local = np.array([np.max(disp[max(0, i - win) : i + win]) for i in range(n)])
    local = np.maximum(local, 1e-12)
    best, pair, touch_pair = np.inf, None, None
    chunk = max(1, int(2e6) // max(n, 1))
    for i0 in range(0, n, chunk):
        i1 = min(i0 + chunk, n)
        d = np.abs(pts[i0:i1, None] - pts[None, :])
        jj = np.arange(n)[None, :]
        ii = np.arange(i0, i1)[:, None]
        d[np.abs(ii - jj) <= 5] = np.inf
        thresh = 3.0 * np.maximum(local[i0:i1, None], local[None, :])
        k = int(np.argmin(d))
        if d.flat[k] < best:
            best = float(d.flat[k])
            pair = (i0 + k // n, k % n)
        if touch_pair is None:
            for ci, cj in np.argwhere(d < thresh)[:200]:
                i, j = i0 + int(ci), int(cj)
                lo, hi = min(i, j), max(i, j)
                arc = float(np.max(np.abs(pts[lo : hi + 1] - pts[lo])))
                if arc > 10.0 * float(d[ci, cj]):
                    touch_pair = (i, j)
                    break
    return SimplicityReport(touch_pair is None, best, pair, scale, touch_pair)


def ray_spec(c, n):
    """lambda = c sqrt(t) sampled on a grid twice as fine as the cells: a straight ray."""
    times = np.linspace(0.0, 1.0, 2 * n + 1)
    return DrivingSpec("sampled", {"times": times, "values": c * np.sqrt(times)}, 1.0)


def brownian(kappa, seed):
    return DrivingSpec("brownian", {"kappa": kappa}, 1.0, seed=seed)


SIMPLICITY_CASES = [
    (ZERO, 0.7, 0.3),
    (ray_spec(1.2, 1000), 1.0, 1e-3),
    (sqrt_spec(2.0), 1.0, 2e-3),
    (sqrt_spec(3.9), 1.0, 2e-3),
    (DrivingSpec("weierstrass_partial", {"c": 0.05, "b": 100.0, "N": 4}, 1.0, normalize=True),
     1.0, 1e-3),
    (brownian(1.0, 100), 1.0, 1e-3),
    (brownian(2.0, 100), 1.0, 1e-3),
    (brownian(3.0, 105), 1.0, 1e-3),
    # the first 200 candidates of its chunk fail the return test; a later one passes it
    (brownian(6.0, 101), 1.0, 1e-3),
    (brownian(8.0, 100), 1.0, 1e-3),
    (brownian(8.0, 102), 1.0, 1e-3),
    # n = 2000: the scan runs in three chunks of rows
    (brownian(2.0, 100), 1.0, 5e-4),
    (brownian(6.0, 100), 1.0, 5e-4),
]
SIMPLICITY_IDS = ["zero-T0.7-dt0.3", "ray", "sqrt-c2", "sqrt-c3.9", "weierstrass-b100",
                  "brownian-k1", "brownian-k2", "brownian-k3", "brownian-k6", "brownian-k8-s100",
                  "brownian-k8-s102", "brownian-k2-n2000", "brownian-k6-n2000"]


class TestSimplicity:
    @pytest.mark.parametrize("spec, T, dt", [
        (ZERO, 0.7, 0.3),
        (sqrt_spec(3.0), 1.0, 3e-3),
        (brownian(2.0, 101), 1.0, 1e-3),
        (brownian(6.0, 101), 0.9, 7e-4),
        (DrivingSpec("weierstrass_partial", {"c": 0.3, "b": 9.0, "N": 3}, 1.0), 1.0, 2e-3),
    ], ids=["zero", "sqrt", "brownian", "brownian-short-last-cell", "weierstrass"])
    def test_seeded_composition_is_the_refined_trace_at_the_coarse_times(self, spec, T, dt):
        c1, c2 = trace(spec, T, dt), trace(spec, T, dt / 2.0)
        w = _refined_points(spec, T, dt, c1.times[1:])
        ref = c2.points[np.searchsorted(c2.times, c1.times[1:])]
        assert w.size == c1.times.size - 1
        assert np.array_equal(w.real, ref.real) and np.array_equal(w.imag, ref.imag)

    def test_all_seeds_are_the_full_sweep(self):
        _, hs, u = _cells(brownian(3.0, 102), 1.0, 2e-3)
        w, nudges = _compose(u, hs, 0.0)
        ws, seeded = _compose(u, hs, 0.0, np.arange(u.size))
        assert np.array_equal(w, ws) and nudges == seeded

    @pytest.mark.parametrize("spec, T, dt", SIMPLICITY_CASES, ids=SIMPLICITY_IDS)
    def test_report_equals_the_reference_implementation(self, spec, T, dt):
        assert simplicity_diagnostic(spec, T, dt) == reference_simplicity(spec, T, dt)

    def test_space_filling_path_is_not_simple(self):
        # SLE_8 is space-filling (Rohde-Schramm, Ann. Math. 161, 2005): a
        # positive control for the verdict
        rep = simplicity_diagnostic(brownian(8.0, 102), 1.0, 1e-3)
        assert rep.simple is False
        assert rep.touch_pair is not None and rep.min_separation < rep.refinement_scale

    def test_step_that_does_not_divide_the_horizon(self):
        # the dt and dt/2 traces end in short cells of different lengths;
        # both end at T, where the refinement pairs them
        rep = simplicity_diagnostic(ZERO, 0.7, 0.3)
        assert rep.simple and rep.refinement_scale < 1e-9

    @pytest.mark.parametrize("c", [2.0, 3.0, 3.9])
    def test_subcritical_flagged_simple(self, c):
        rep = simplicity_diagnostic(sqrt_spec(c), 1.0, 2e-3)
        assert rep.simple

    def test_weierstrass_small_amplitude_simple(self):
        spec = DrivingSpec("weierstrass_partial", {"c": 0.05, "b": 100.0, "N": 4},
                           1.0, normalize=True)
        assert simplicity_diagnostic(spec, 1.0, 1e-3).simple


def numpy_push(x, sides, first, u, hs):
    """The reference push: one numpy pass per cell over the points born by then.

    Cell k maps the columns with first[j] <= k, and the first crossing is
    the first one in row-major order within the first cell that has one.
    """
    side = np.asarray(sides)[:, None]
    live = np.searchsorted(first, np.arange(u.size), side="right")
    for k in range(u.size):
        d = x[:, : live[k]] - u[k]
        crossed = side * d <= 0
        if np.any(crossed):
            row, col = np.argwhere(crossed)[0]
            return k, int(row), int(col)
        x[:, : live[k]] = u[k] + side * np.sqrt(d * d + 4.0 * hs[k])
    return None


@pytest.fixture
def both_pushes(monkeypatch):
    """Run every push of ``hull`` on the float push and on the numpy reference.

    Each call asserts the same crossing and, without one, the same points
    bit for bit; the fixture's list collects the crossings.
    """
    crossings = []

    def push(x, sides, first, u, hs):
        ref = x.copy()
        want = numpy_push(ref, sides, first, u, hs)
        got = _push_forward(x, sides, first, u, hs)
        assert got == want
        assert got is not None or x.tobytes() == ref.tobytes()
        crossings.append(got)
        return got

    monkeypatch.setattr(hull, "_push_forward", push)
    return crossings


def welding_outcome(*args, **kw):
    """The welding table's arrays and ratio ranges, or the error message."""
    try:
        wt = welding(*args, check_simple=False, **kw)
    except NumericalError as exc:
        return str(exc)
    return (wt.left.tobytes(), wt.right.tobytes(), wt.ratio1.tobytes(),
            wt.ratio1_range, wt.ratio2_range, wt.lambda_T)


def jumpy_spec(rng):
    """A sampled driving with a few large seeded jumps."""
    times = np.sort(np.concatenate([[0.0, 1.0], rng.uniform(0.0, 1.0, int(rng.integers(3, 12)))]))
    values = np.cumsum(rng.normal(0.0, rng.choice([0.05, 0.3, 1.0, 3.0]), times.size))
    return DrivingSpec("sampled", {"times": times.tolist(), "values": values.tolist()}, 1.0)


class TestPushForward:
    """The float push against the numpy per-cell pass it replaced."""

    WELD_MIX = [(9.0, 2), (9.0, 3), (16.0, 2), (16.0, 3)]

    @pytest.mark.parametrize("b, N", WELD_MIX)
    @pytest.mark.parametrize("c", [0.209375, 0.340625, 0.490625])
    def test_pipeline_welding_equals_the_numpy_push(self, b, N, c, monkeypatch):
        spec = WeierstrassParams(b=b, N=N, c=c).spec(1.0)
        args = (spec, 1.0, np.linspace(0.05, 0.9, 12))
        got = welding_outcome(*args, dt=2e-3)
        monkeypatch.setattr(hull, "_push_forward", numpy_push)
        assert got == welding_outcome(*args, dt=2e-3)
        assert not isinstance(got, str)

    @pytest.mark.parametrize("spec", [
        WeierstrassParams(b=9.0, N=3, c=0.3).spec(1.0),
        DrivingSpec("constant", {"value": 0.0}, 1.0),
        brownian(1.0, 100),
    ], ids=["weierstrass", "zero", "brownian"])
    @pytest.mark.parametrize("m", [3, 12, 18, 64, 256])
    def test_welding_grids_equal_the_numpy_push(self, spec, m, monkeypatch):
        args = (spec, 1.0, np.linspace(0.05, 0.9, m))
        got = welding_outcome(*args, dt=2e-3)
        monkeypatch.setattr(hull, "_push_forward", numpy_push)
        assert got == welding_outcome(*args, dt=2e-3)

    def test_crossings_on_jumpy_drivings_equal_the_numpy_push(self, both_pushes):
        rng = np.random.default_rng(41)
        for _ in range(60):
            spec = jumpy_spec(rng)
            s = np.sort(rng.uniform(0.0, 0.99, int(rng.integers(3, 30))))
            welding_outcome(spec, 1.0, s, dt=float(rng.choice([1e-2, 5e-3, 2e-3])))
        crossed = [c for c in both_pushes if c is not None]
        assert len(both_pushes) == 60 and len(crossed) >= 15
        assert {row for _, row, _ in crossed} == {0, 1}
        assert any(col > 0 for _, _, col in crossed)

    # ten cells of duration 0.01; left points are at -1 and -0.1, born in cells 0 and 3
    HS = np.full(10, 0.01)

    def push_both(self, x, sides, first, u):
        ref = np.array(x, dtype=float)
        want = numpy_push(ref, sides, first, np.asarray(u, dtype=float), self.HS)
        got = np.array(x, dtype=float)
        crossing = _push_forward(got, sides, first, np.asarray(u, dtype=float), self.HS)
        assert crossing == want
        return crossing

    def test_a_later_column_crossing_at_an_earlier_cell_comes_first(self):
        # column 0 crosses at cell 8, column 1 (pushed after it) at cell 5
        u = [0.0] * 5 + [-0.5, 0.0, 0.0, -5.0, 0.0]
        assert self.push_both([[-1.0, -0.1]], (-1.0,), [0, 3], u) == (5, 0, 1)

    def test_the_right_row_crossing_first_is_reported(self):
        # the driving jumps above the right prime ends at cell 4 and below the
        # left ones at cell 6; the left row is pushed first
        u = [0.0] * 4 + [5.0, 0.0, -5.0, 0.0, 0.0, 0.0]
        assert self.push_both([[-1.0, -0.5], [1.0, 0.5]], (-1.0, 1.0), [0, 1], u) == (4, 1, 0)

    def test_a_point_on_the_driving_crosses(self):
        # side (x - u_k) <= 0 includes x = u_k, as the numpy test did
        assert self.push_both([[0.0]], (1.0,), [0], [0.0] * 10) == (0, 0, 0)

    def test_points_born_after_the_last_cell_stay(self):
        x = np.array([[-1.0, -0.25], [1.0, 0.25]])
        assert _push_forward(x, (-1.0, 1.0), [0, 10], np.zeros(10), self.HS) is None
        assert x[0, 1] == -0.25 and x[1, 1] == 0.25
        assert x[1, 0] == pytest.approx(np.sqrt(1.0 + 0.4))


class TestWelding:
    def test_trivial_driving_antisymmetric(self):
        wt = welding(DrivingSpec("constant", {"value": 0.0}, 1.0), 1.0,
                     np.linspace(0.05, 0.9, 12), dt=1e-3, check_simple=False)
        assert np.max(np.abs(wt.left + 2.0 * np.sqrt(1 - wt.s_grid))) < 1e-8
        assert np.max(np.abs(wt.left + wt.right)) < 1e-8
        assert max(abs(wt.ratio1_range[0] - 1), abs(wt.ratio1_range[1] - 1)) < 1e-8
        assert max(abs(wt.ratio2_range[0] - 1), abs(wt.ratio2_range[1] - 1)) < 1e-8

    def test_reflection_mirrors_table(self):
        spec = sqrt_spec(1.0)
        s = np.linspace(0.1, 0.8, 8)
        wt = welding(spec, 1.0, s, dt=1e-3, check_simple=False)
        wr = welding(spec.reflected(), 1.0, s, dt=1e-3, check_simple=False)
        assert np.max(np.abs(wt.left + wr.right)) < 1e-8
        assert np.max(np.abs(wt.right + wr.left)) < 1e-8

    def test_prime_ends_straddle_terminal_value(self):
        spec = sqrt_spec(1.5)
        wt = welding(spec, 1.0, np.linspace(0.1, 0.8, 8), dt=1e-3, check_simple=False)
        lam_T = spec(1.0)
        assert np.all(wt.left < lam_T) and np.all(wt.right > lam_T)
        assert np.all(np.diff(wt.left) > 0)   # left images increase with s
        assert np.all(np.diff(wt.right) < 0)

    def test_slit_welding_converges_to_the_ode_flow(self):
        # oracle: the prime ends seeded at lambda(s) -/+ 2 sqrt(delta) after a
        # micro-cell of duration delta and flowed under dX/dt = 2/(X - lambda)
        spec = WeierstrassParams(b=9.0, N=2, c=0.3).spec(1.0)
        s = np.linspace(0.05, 0.9, 12)
        delta = 1e-4 / 100
        start = np.concatenate([s, s]) + delta
        lam = spec(s)
        x0 = np.concatenate([lam - 2 * np.sqrt(delta), lam + 2 * np.sqrt(delta)])
        field = lambda t, x: np.where(start <= t, 2.0 / (x - spec(min(t, 1.0))), 0.0)
        ode_ends = integrate(field, x0, (float(start.min()), 1.0)).values[-1]
        errs = []
        for dt in (1e-3, 1e-4):
            wt = welding(spec, 1.0, s, dt=dt, check_simple=False)
            errs.append(np.max(np.abs(np.concatenate([wt.left, wt.right]) - ode_ends)))
        assert errs[1] < 1e-4
        assert errs[0] > 5 * errs[1]

    def test_simple_curve_welds_without_a_crossing(self):
        # a collision guard on the ODE's trial stages once raised here
        spec = WeierstrassParams(b=9.0, N=3, c=0.28403724793324314).spec(1.0)
        wt = welding(spec, 1.0, np.linspace(0.05, 0.9, 12), dt=2e-3, check_simple=False)
        assert np.all(np.diff(wt.left) > 0) and np.all(np.diff(wt.right) < 0)
        assert np.all(wt.left < spec(1.0)) and np.all(wt.right > spec(1.0))

    def test_points_just_below_a_cell_edge_weld(self):
        # a point seeded at the top of its cell must not be cut off by the
        # driving jump to the next cell
        spec = WeierstrassParams(b=9.0, N=3, c=0.28403724793324314).spec(1.0)
        edges = np.arange(25, 450, 25) * 2e-3
        s = np.sort(np.concatenate([edges - 1e-9, edges]))
        wt = welding(spec, 1.0, s, dt=2e-3, check_simple=False)
        assert np.all(np.diff(wt.left) > 0) and np.all(np.diff(wt.right) < 0)
        assert np.all(wt.left < spec(1.0)) and np.all(wt.right > spec(1.0))

    def test_driving_jump_past_a_prime_end_raises(self):
        jump = DrivingSpec("sampled", {"times": [0, 0.5, 0.5 + 1e-6, 1],
                                       "values": [0, 0, -5, -5]}, 1.0)
        with pytest.raises(NumericalError, match="left point of s = 0.05 crossed"):
            welding(jump, 1.0, np.linspace(0.05, 0.9, 12), dt=1e-2, check_simple=False)

    def test_degenerate_welding_map_raises_numerical_error(self):
        # the steep falls of this driving send all 12 left prime ends to one
        # float: they span nothing, and every three-point denominator is 0
        fall = DrivingSpec("sampled", {
            "times": [0, 0.1291, 0.3137, 0.7971, 0.8628, 1],
            "values": [-0.7374, -0.6218, -3.2034, -7.7438, -8.2438, -11.1589]}, 1.0)
        with pytest.raises(NumericalError, match="welding map is degenerate"):
            welding(fall, 1.0, np.linspace(0.026, 0.884, 12), dt=5e-3, check_simple=False)

    def test_grid_domain_checked(self):
        with pytest.raises(DomainError):
            welding(ZERO, 1.0, [1.5], check_simple=False)
        with pytest.raises(DomainError, match="at least 3 points"):
            welding(ZERO, 1.0, [0.2, 0.5], check_simple=False)


SYMMETRY_CASES = [(kappa, seed) for kappa in (1.0, 2.0, 6.0) for seed in (100, 101)]


class TestExactSymmetries:
    """Reflection and Brownian scaling act on the zipper exactly: negation and
    powers of two change no rounding, so the traces and the simplicity
    reports transform bit for bit."""

    @pytest.mark.parametrize("kappa, seed", SYMMETRY_CASES)
    def test_reflection_conjugates_the_trace(self, kappa, seed):
        spec = brownian(kappa, seed)
        c, r = trace(spec, 1.0, 2**-10), trace(spec.reflected(), 1.0, 2**-10)
        assert np.array_equal(r.points, -np.conj(c.points)) and r.nudges == c.nudges

    @pytest.mark.parametrize("kappa, seed", SYMMETRY_CASES)
    def test_brownian_scaling_doubles_the_trace(self, kappa, seed):
        # lambda(4t) has the law of 2 lambda(t): with 4 times the grid step
        # every increment doubles, and with 4 times the cell step every root
        def spec(T, step):
            return DrivingSpec("brownian", {"kappa": kappa, "grid_step": step}, T, seed=seed)

        small, big, dt = spec(1.0, 2**-14), spec(4.0, 2**-12), 2**-10
        c, C = trace(small, 1.0, dt), trace(big, 4.0, 4 * dt)
        assert np.array_equal(C.times, 4 * c.times)
        assert np.array_equal(C.points, 2 * c.points) and C.nudges == c.nudges
        s, S = simplicity_diagnostic(small, 1.0, dt), simplicity_diagnostic(big, 4.0, 4 * dt)
        assert (S.simple, S.pair, S.touch_pair) == (s.simple, s.pair, s.touch_pair)
        assert S.min_separation == 2 * s.min_separation
        assert S.refinement_scale == 2 * s.refinement_scale


class TestCaptureBracket:
    @pytest.fixture(autouse=True)
    def check_push(self, both_pushes):
        """Every bracket push here equals the numpy reference bit for bit."""

    def test_trivial_driving(self):
        br = capture_bracket(DrivingSpec("constant", {"value": 0.0}, 1.0), 1.0, 0.1)
        assert br.x0 == pytest.approx(0.1)
        assert br.gap_T == pytest.approx(np.sqrt(4.01), abs=1e-6)
        assert br.gap_T < 2.1

    def test_boundary_hoelder_constant(self):
        br = capture_bracket(sqrt_spec(4.0), 1.0, 4.0)
        assert br.gap0 == pytest.approx(4.0)
        assert br.gap_T < 6.0

    def test_longer_horizon(self):
        br = capture_bracket(DrivingSpec("constant", {"value": 0.0}, 4.0), 4.0, 1.0)
        assert br.x0 == pytest.approx(2.0)
        assert br.gap_T == pytest.approx(np.sqrt(20.0), abs=1e-6)
        assert br.gap_T < 6.0

    def test_hypothesis_violation_reported(self):
        with pytest.raises(PreconditionError):
            capture_bracket(sqrt_spec(4.0), 1.0, 3.0)

    @pytest.mark.parametrize("b, N, c", [(9.0, 2, 0.35), (9.0, 3, 0.284), (16.0, 3, 0.45)])
    def test_slit_bracket_converges_to_the_ode_flow(self, b, N, c):
        # oracle: dX/dt = 2/(X - lambda) from the bracket start, as the
        # Weierstrass pipeline sets it up
        spec = WeierstrassParams(b=b, N=N, c=c).spec(1.0)
        C1 = c * norm_constant(b) * 1.001
        path, rep = solve_real_loewner(spec, float(spec(1.0)) + C1, 1.0)
        assert rep.status == "escaped"
        X_T = float(path.terminal_value)
        errs = [abs(capture_bracket(spec, 1.0, C1, dt=dt).X_T - X_T) for dt in (2e-3, 1e-3)]
        assert errs[1] < 1e-4
        assert errs[0] > 1.5 * errs[1]

    def test_driving_hidden_from_the_grid_breaks_the_barrier(self):
        # zero at T and on every point of the precondition grid, tents in
        # between: the grid sees no increment, yet the flow from 0.1 ends
        # beyond (C1 + 2) sqrt(T) = 2.1 (solve_real_loewner gives 2.29504,
        # the zipper 2.29537 at dt = 1e-3)
        dts = np.concatenate([np.linspace(1e-4, 1.0, 256), np.geomspace(1e-4, 1e-8, 256)])
        grid = np.unique(np.append(1.0 - dts, 1.0))
        mids = 0.5 * (grid[:-1] + grid[1:])
        times = np.insert(grid, np.arange(1, grid.size), mids)
        values = np.insert(np.zeros(grid.size), np.arange(1, grid.size),
                           0.5 * np.sqrt(0.01 + 4.0 * mids))
        spec = DrivingSpec("sampled", {"times": times.tolist(), "values": values.tolist()}, 1.0)
        with pytest.raises(NumericalError, match="bracket bound violated"):
            capture_bracket(spec, 1.0, 0.1)

    def test_crossing_the_driving_raises(self):
        # a spike over the cell edge t = 0.5 that falls between the points
        # of the precondition grid jumps past the barrier point
        spike = DrivingSpec("sampled", {"times": [0, 0.499, 0.4991, 0.5009, 0.501, 1],
                                        "values": [0, 0, 10, 10, 0, 0]}, 1.0)
        with pytest.raises(NumericalError, match="unexpectedly captured"):
            capture_bracket(spike, 1.0, 1.0, dt=1e-2)


class TestContinuityDiagnostic:
    def test_trivial_driving_cauchy(self):
        ladder = [0.1 / 4**k for k in range(5)]
        rep = continuity_diagnostic(DrivingSpec("constant", {"value": 0.0}, 1.0),
                                    1.0, ladder, dt=2e-3)
        assert rep.cauchy_trend
        # levels differ on the scale of the ladder gaps
        gaps = -np.diff(rep.y_ladder)
        assert np.all(rep.sup_distances <= 2.0 * np.sqrt(gaps) + 1e-6)

    @pytest.mark.parametrize("dt", [1e-3, 2e-3, 3e-3])
    def test_trivial_driving_levels_are_exact(self, dt):
        # under lambda = 0 the maps compose in closed form: cell n seeded at
        # height y ends at i sqrt(y^2 + 4 t_n), t_n the right edge of cell n
        ladder = np.array([0.1 / 4**k for k in range(5)])
        rep = continuity_diagnostic(ZERO, 1.0, ladder, dt=dt)
        t_n = _cells(ZERO, 1.0, dt)[0][1:]
        exact = np.sqrt(ladder[:, None] ** 2 + 4.0 * t_n)
        assert np.all(rep.values.real == 0.0)
        assert np.max(np.abs(rep.values.imag - exact) / exact) < 1e-13

    def test_steep_approach_cauchy(self):
        ladder = [0.1 / 4**k for k in range(5)]
        rep = continuity_diagnostic(sqrt_spec(5.0), 1.0, ladder, dt=2e-3)
        assert rep.cauchy_trend

    def test_boundary_family_reported_only(self):
        ladder = [0.1 / 4**k for k in range(4)]
        rep = continuity_diagnostic(sqrt_spec(4.0), 1.0, ladder, dt=2e-3)
        assert rep.sup_distances.size == 3  # diagnostic output, no verdict asserted

    def test_ladder_validation(self):
        with pytest.raises(DomainError):
            continuity_diagnostic(ZERO, 1.0, [0.1, 0.2])

    @pytest.mark.parametrize("spec", [sqrt_spec(5.0), brownian(3.0, 104), ray_spec(1.2, 500)],
                             ids=["sqrt_approach", "brownian", "ray"])
    def test_one_sweep_equals_the_per_level_compositions(self, spec):
        ladder = [0.1 / 4**k for k in range(5)]
        rep = continuity_diagnostic(spec, 1.0, ladder, dt=2e-3)
        _, hs, u = _cells(spec, 1.0, 2e-3)
        assert rep.values.shape == (len(ladder), u.size)
        for y, row in zip(ladder, rep.values):
            w, _ = _compose(u, hs, y)
            assert np.array_equal(row.real, w.real) and np.array_equal(row.imag, w.imag)


class TestEndpointExperiment:
    def test_steep_approach(self):
        ee = endpoint_experiment(sqrt_spec(5.5), 1.0, dt=2e-3)
        assert ee.decreasing
        assert ee.band_ok and ee.band_min_observed >= ee.band_floor
        # criterion 12's figure: the frame runs keep steps in the s >= 5
        # window, so parking or path recording has not emptied it
        assert f"{ee.band_min_observed:.4f}" == "0.8625"

    def test_perturbed_steep_approach(self):
        # small smooth perturbation keeps the hypotheses and the verdict
        t = np.linspace(0.0, 1.0, 4001)
        vals = 5.2 * (1.0 - np.sqrt(1.0 - t)) + 0.02 * np.sin(8 * np.pi * t) * (1 - t)
        spec = DrivingSpec("sampled", {"times": t.tolist(), "values": vals.tolist()}, 1.0)
        # a sampled driving is piecewise linear below its grid step, so the
        # scaling ladder must stop above it
        scales = 0.25 * 2.0 ** -np.arange(0, 9)
        ee = endpoint_experiment(spec, 1.0, dt=2e-3, scales=scales)
        assert ee.a_hat >= 5.0 and ee.b_hat < ee.a_hat + 4.0 / ee.a_hat
        assert ee.decreasing

    def test_negative_control(self):
        with pytest.raises(PreconditionError):
            endpoint_experiment(sqrt_spec(3.0), 1.0)
