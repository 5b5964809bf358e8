import numpy as np
import pytest

from loewner import DomainError, DrivingSpec, NumericalError, PreconditionError, shift
from loewner.hull import (
    _cells,
    _inverse_slit_map,
    capacity_estimate,
    continuity_diagnostic,
    endpoint_experiment,
    forward_map,
    forward_map_grid,
    simplicity_diagnostic,
    trace,
    welding,
)
from loewner.ode import integrate
from loewner.real_line import capture_scan
from loewner.weierstrass import WeierstrassParams

ZERO = DrivingSpec("constant", {"value": 0.0}, 2.0)


def sqrt_spec(c, T=1.0):
    return DrivingSpec("sqrt_approach", {"c": c}, T)


class TestForwardMap:
    def test_real_point(self):
        r = forward_map(ZERO, 1.0, 1.0)
        assert r.value == pytest.approx(np.sqrt(5.0), abs=1e-8)

    def test_capture_exactly_at_horizon(self):
        r = forward_map(ZERO, 1.0, 2j)
        assert r.event is not None and r.event.kind == "capture"
        assert r.event.time == pytest.approx(1.0, abs=1e-6)

    def test_point_above_slit_tip(self):
        r = forward_map(ZERO, 1.0, 3j)
        assert r.value == pytest.approx(1j * np.sqrt(5.0), abs=1e-8)

    def test_near_slit_point_not_captured(self):
        r = forward_map(ZERO, 1.0, 1.0 + 1e-4j)
        assert r.event is None and abs(r.value) > 2.0

    def test_grid_matches_closed_form(self):
        zs = np.array([1 + 0.5j, -2 + 1j, 0.3 + 2j, 5 + 0.1j])
        g = forward_map_grid(ZERO, [0.25, 1.0], zs)
        for i, t in enumerate((0.25, 1.0)):
            ref = np.sqrt(zs**2 + 4 * t)
            ref = np.where(ref.imag < 0, -ref, ref)
            assert np.max(np.abs(g[i] - ref)) < 1e-8


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
        rest, _ = capacity_estimate(shift(spec, t1), t2, 250.0)
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

    def test_truncated_last_cell(self):
        c = trace(ZERO, 1.0, 0.3)
        assert c.times[-1] == pytest.approx(1.0)
        assert abs(c.points[-1] - 2j) < 1e-9

    def test_midpoint_sampling_converges_to_same_curve(self):
        spec = sqrt_spec(2.0)
        right = trace(spec, 1.0, 2.5e-4)
        mid = trace(spec, 1.0, 2.5e-4, midpoint=True)
        coarse = np.max(np.abs(trace(spec, 1.0, 2e-3).points
                               - trace(spec, 1.0, 1e-3).points[::2]))
        assert np.max(np.abs(right.points - mid.points)) < 4.0 * coarse

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

    def test_csv_export(self, tmp_path):
        c = trace(ZERO, 0.5, 0.05)
        out = tmp_path / "trace.csv"
        c.write_csv(out)
        assert out.read_text().splitlines()[0] == "t,re,im,cell_step"


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
        nudges = _inverse_slit_map(x, y, u, h, work)
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


class TestSimplicity:
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

    def test_grid_domain_checked(self):
        with pytest.raises(DomainError):
            welding(ZERO, 1.0, [1.5], check_simple=False)
        with pytest.raises(DomainError, match="at least 3 points"):
            welding(ZERO, 1.0, [0.2, 0.5], check_simple=False)

    def test_csv_export(self, tmp_path):
        wt = welding(DrivingSpec("constant", {"value": 0.0}, 1.0), 1.0,
                     np.linspace(0.1, 0.8, 5), dt=1e-3, check_simple=False)
        out = tmp_path / "weld.csv"
        wt.write_csv(out)
        assert out.read_text().splitlines()[0] == "s,left,right,ratio1"


class TestContinuityDiagnostic:
    def test_trivial_driving_cauchy(self):
        ladder = [0.1 / 4**k for k in range(5)]
        rep = continuity_diagnostic(DrivingSpec("constant", {"value": 0.0}, 1.0),
                                    1.0, ladder, dt=2e-3)
        assert rep.cauchy_trend
        # levels differ on the scale of the ladder gaps
        gaps = -np.diff(rep.y_ladder)
        assert np.all(rep.sup_distances <= 2.0 * np.sqrt(gaps) + 1e-6)

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


class TestEndpointExperiment:
    def test_steep_approach(self):
        ee = endpoint_experiment(sqrt_spec(5.5), 1.0, dt=2e-3, halvings=2)
        assert ee.decreasing
        assert ee.band_ok and ee.band_min_observed >= ee.band_floor

    def test_perturbed_steep_approach(self):
        # small smooth perturbation keeps the hypotheses and the verdict
        t = np.linspace(0.0, 1.0, 4001)
        vals = 5.2 * (1.0 - np.sqrt(1.0 - t)) + 0.02 * np.sin(8 * np.pi * t) * (1 - t)
        spec = DrivingSpec("sampled", {"times": t.tolist(), "values": vals.tolist()}, 1.0)
        # a sampled driving is piecewise linear below its grid step, so the
        # scaling ladder must stop above it
        scales = 0.25 * 2.0 ** -np.arange(0, 9)
        ee = endpoint_experiment(spec, 1.0, dt=2e-3, halvings=2, scales=scales)
        assert ee.a_hat >= 5.0 and ee.b_hat < ee.a_hat + 4.0 / ee.a_hat
        assert ee.decreasing

    def test_negative_control(self):
        with pytest.raises(PreconditionError):
            endpoint_experiment(sqrt_spec(3.0), 1.0)
