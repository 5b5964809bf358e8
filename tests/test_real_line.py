import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loewner import DomainError, DrivingSpec, NumericalError, PreconditionError, local_scaling_exponents
from loewner.driving import _inverse_frame
from loewner.real_line import (
    FRAME_ZERO_FLOOR,
    REFINE_TOL_MIN,
    SCAN_HORIZON_S,
    FrameDriving,
    FrameMap,
    capture_scan,
    density_flags,
    driving_from_profile,
    no_capture_certificate,
    profile_from_density,
    reconstruct_captured_pair,
    solve_frame_equation,
    solve_real_loewner,
    _classify_frame_batch,
    _refine_edge,
)
from loewner.ode import _Stepper
from loewner.weierstrass import comparison_constant
from loewner.sharp import SharpOscillation


def sqrt_spec(c, T=1.0):
    return DrivingSpec("sqrt_approach", {"c": c}, T)


ZOO = [
    DrivingSpec("constant", {"value": 0.0}, 1.0),
    DrivingSpec("linear", {"slope": 1.0}, 1.0),
    sqrt_spec(3.0),
    DrivingSpec("weierstrass_partial", {"c": 0.2, "b": 9.0, "N": 4}, 1.0, normalize=True),
    DrivingSpec("brownian", {"kappa": 2.0}, 1.0, normalize=True, seed=13),
]


class TestFrame:
    def test_time_change_bijection(self):
        # t_of_s inverts s = -log((T - t)/T)/2
        fr = FrameMap(T=2.0, lambda_T=1.0)
        t = np.linspace(0.0, 2.0 * (1 - 1e-9), 100)
        assert np.allclose(fr.t_of_s(-0.5 * np.log((2.0 - t) / 2.0)), t, atol=1e-12)
        s = np.linspace(0.0, 10.0, 50)
        assert np.allclose(-0.5 * np.log((2.0 - fr.t_of_s(s)) / 2.0), s, atol=1e-9)

    def test_huge_frame_times_do_not_overflow(self):
        # -2 s overflows past s = 8.99e307; both transforms cap s at 1e3,
        # far past where e^{-2s} underflows, so the values are unchanged
        s = np.array([400.0, 9.0e307, np.finfo(float).max])
        assert np.array_equal(FrameMap(T=2.0, lambda_T=1.0).t_of_s(s), np.full(3, 2.0))
        xi = FrameDriving(DrivingSpec("linear", {"slope": 1.0}, 1.0))
        assert np.array_equal(xi(s), np.full(3, np.sqrt(np.finfo(float).tiny)))
        assert xi.at(9.0e307) == xi.at(400.0)

    def test_sqrt_approach_maps_to_constant(self):
        for c, T in ((4.0, 1.0), (2.5, 3.0)):
            spec = sqrt_spec(c, T)
            xi = FrameDriving(spec)
            s = np.linspace(0.0, 30.0, 64)
            assert np.allclose(xi(s), c, atol=1e-12)

    def test_zero_maps_to_zero(self):
        spec = DrivingSpec("constant", {"value": 0.0}, 1.0)
        xi = FrameDriving(spec)
        assert np.allclose(xi(np.linspace(0, 20, 40)), 0.0, atol=1e-14)

    def test_linear_maps_to_decaying_exponential(self):
        spec = DrivingSpec("linear", {"slope": 1.0}, 1.0)
        xi = FrameDriving(spec)
        s = np.linspace(0.0, 10.0, 30)
        assert np.allclose(xi(s), np.exp(-s), atol=1e-12)

    @pytest.mark.parametrize("C, T", [(2.0, 1.0), (2.0, 3.0), (1.0, 0.37)])
    def test_generic_rescaling_resolves_up_to_the_freeze(self, C, T):
        # a composite driving has no closed form, so the generic quotient
        # runs; rescaling C sqrt(T - t) must give back C at every s, also
        # far past s = 14, where T - t is no longer resolved against T
        spec = DrivingSpec("composite", {"base": sqrt_spec(C, T)}, T)
        xi = FrameDriving(spec)
        assert xi.const is None
        s = np.linspace(0.0, 30.0, 601)
        assert np.max(np.abs(xi(s) - C)) <= 1e-12 * C

    @pytest.mark.parametrize("spec", [
        DrivingSpec("weierstrass_partial", {"c": 0.3, "b": 9.0, "N": 3}, 1.0),
        DrivingSpec("brownian", {"kappa": 2.0}, 0.7, seed=101),
    ], ids=["weierstrass", "brownian"])
    def test_generic_quotient_against_50_digit_values(self, spec):
        # lambda in 50-digit arithmetic: the partial sum, or the linear
        # interpolant of the path's double grid values
        with mpmath.workdps(50):
            if spec.family == "brownian":
                gt, gv = spec._grid_t, spec._grid_v

                def lam(t):
                    i = min(int(np.searchsorted(gt, float(t), side="right")), gt.size - 1) - 1
                    return gv[i] + (t - gt[i]) * (mpmath.mpf(gv[i + 1]) - gv[i]) / (gt[i + 1] - gt[i])
            else:
                p = spec.params

                def lam(t):
                    return sum(p["c"] * mpmath.cos(mpmath.mpf(p["b"]) ** n * t) / mpmath.sqrt(p["b"]) ** n
                               for n in range(1, p["N"] + 1))

            T = mpmath.mpf(spec.T)
            s = np.linspace(0.0, 30.0, 61)
            tau = [T * mpmath.exp(-2 * mpmath.mpf(x)) for x in s]
            want = np.array([float((lam(T) - lam(T - d)) / mpmath.sqrt(d)) for d in tau])
        got = FrameDriving(spec)(s)
        assert np.max(np.abs(got - want) / np.abs(want)) <= 1e-10

    @pytest.mark.parametrize("spec, T", [
        pytest.param(DrivingSpec("linear", {"slope": 1.0}, 1.0), None, id="linear"),
        pytest.param(DrivingSpec("linear", {"slope": -2.0, "intercept": 0.3}, 2.0), 1.3,
                     id="linear-inner-T"),
        pytest.param(DrivingSpec("constant", {"value": 2.0}, 1.0), None, id="constant"),
        pytest.param(sqrt_spec(4.0), None, id="sqrt_approach"),
        pytest.param(sqrt_spec(2.5, 3.0), None, id="sqrt_approach-T3"),
        pytest.param(DrivingSpec("sharp_example", {"a": 1.5, "k_max": 14}, 1.0), None, id="sharp"),
        pytest.param(DrivingSpec("sharp_example", {"a": 3.0, "k_max": 14}, 2.5), None, id="sharp-T2.5"),
    ])
    def test_closed_forms_equal_the_generic_quotient(self, spec, T):
        # a composite wrapper has the same values and no closed form, so
        # its frame driving is the generic quotient of the same driving
        xi = FrameDriving(spec, T)
        generic = FrameDriving(DrivingSpec("composite", {"base": spec}, spec.T), T)
        assert generic.const is None
        s = np.linspace(0.0, 30.0, 601)
        scale = np.max(np.abs(xi(s)))
        assert np.max(np.abs(xi(s) - generic(s))) <= 1e-12 * scale

    @pytest.mark.parametrize("spec", [
        sqrt_spec(4.0), DrivingSpec("sharp_example", {"a": 1.5, "k_max": 14}, 1.0),
    ], ids=["sqrt_approach", "sharp"])
    def test_inner_horizon_takes_the_generic_quotient(self, spec):
        # the closed forms of sqrt_approach and sharp_example hold at the
        # driving's own horizon only
        xi = FrameDriving(spec, 0.6 * spec.T)
        generic = FrameDriving(DrivingSpec("composite", {"base": spec}, spec.T), 0.6 * spec.T)
        assert xi.const is None
        s = np.linspace(0.0, 20.0, 201)
        assert np.array_equal(xi(s), generic(s))
        assert xi.frame == FrameMap(0.6 * spec.T, float(spec(0.6 * spec.T)))

    @pytest.mark.parametrize("const, spec, closed_form", [
        pytest.param(0.0, ZOO[0], lambda s: 0.0, id="zero"),
        pytest.param(4.0, sqrt_spec(4.0), lambda s: 4.0, id="const"),
        pytest.param(None, DrivingSpec("sharp_example", {"a": 1.5}, 1.0), None, id="sharp"),
        pytest.param(None, ZOO[3], None, id="generic"),
    ])
    def test_float_lane_matches_the_array_path(self, const, spec, closed_form):
        xi = FrameDriving(spec)
        assert xi.const == const
        for s in np.linspace(0.0, 30.0, 301).tolist():
            v = xi(s)
            assert type(v) is float
            assert abs(v - xi(np.array([s]))[0]) <= 4 * np.finfo(float).eps * max(1.0, abs(v))
        # the float evaluator is the float lane: the closed forms, and
        # otherwise a value equal to the array path's, also around s = 354,
        # past which T e^{-2s} underflows and tau is held
        ss = [0.0, 0.5, 13.9, 14.1, 30.0, 353.0, 354.5, 356.0, 700.0, 800.0]
        if closed_form is not None:
            ss += [-s for s in ss[1:]]
        for s in ss:
            want = float(xi(np.array([s]))[0]) if closed_form is None else closed_form(s)
            assert type(xi.at(s)) is float
            for got in (xi.at(s), xi(s), xi(np.float64(s))):
                assert np.array_equal(got, want) and np.signbit(got) == np.signbit(want)

    def test_sharp_float_lane_is_the_oscillation_float_lane(self):
        spec = DrivingSpec("sharp_example", {"a": 1.5}, 1.0)
        xi = FrameDriving(spec)
        assert xi.at == spec._sharp.xi
        for s in np.linspace(0.0, 3000.0, 2001).tolist():
            assert xi.at(s) == xi(np.array([s]))[0]

    def test_numpy_float_takes_the_float_lane(self, monkeypatch):
        spec = sqrt_spec(4.0)
        xi = FrameDriving(spec)

        def array_path(s):
            raise AssertionError("array path taken")

        monkeypatch.setattr(xi, "_eval", array_path)
        assert xi(np.float64(2.5)) == 4.0

    @pytest.mark.parametrize("spec", ZOO, ids=[s.family for s in ZOO])
    def test_roundtrip_through_frame(self, spec):
        xi = FrameDriving(spec)
        t = np.linspace(0.0, spec.T - 1e-6, 400)
        lam_back = _inverse_frame(xi, xi.frame.T, xi.frame.lambda_T, t)
        assert np.max(np.abs(lam_back - spec(t))) < 1e-8

    @pytest.mark.parametrize("a, T", [(1.5, 1.0), (3.0, 2.5)])
    def test_sharp_driving_is_the_inverse_frame_transform(self, a, T):
        # the sharp_example family is the inverse frame transform of xi with
        # lambda(T) = sqrt(T) xi(0), which pins lambda(0) = 0
        spec = DrivingSpec("sharp_example", {"a": a, "k_max": 14}, T)
        osc = spec._sharp

        def lam(t):
            return _inverse_frame(osc.xi, T, np.sqrt(T) * osc.xi(0.0), t)

        t = np.concatenate([np.linspace(0.0, T, 257), T - T * np.geomspace(1e-3, 1e-15, 13)])
        assert np.array_equal(spec(t), lam(t))
        assert spec(T) == lam(T) and spec(0.0) == lam(0.0) == 0.0


class TestRealEquation:
    def test_escape_closed_form(self):
        spec = DrivingSpec("constant", {"value": 0.0}, 10.0)
        path, rep = solve_real_loewner(spec, 1.0, 10.0)
        assert rep.status == "escaped"
        assert path.terminal_value == pytest.approx(np.sqrt(41.0), abs=1e-8)

    def test_capture_at_unit_time(self):
        # constant frame driving 4 has the stationary point 2, so the
        # original initial value lambda(1) - 2 = 2 is captured exactly at 1
        path, rep = solve_real_loewner(sqrt_spec(4.0), 2.0, 1.0)
        assert rep.status == "captured"
        assert rep.capture_time == pytest.approx(1.0, abs=1e-6)
        assert rep.certificate == "event_bisection"

    @pytest.mark.parametrize("x0", [0.5, 1.0, 2.0])
    def test_subcritical_every_start_escapes(self, x0):
        spec = sqrt_spec(3.0)
        path, rep = solve_real_loewner(spec, x0, 1.0)
        assert rep.status == "escaped"
        assert path.terminal_value - spec(1.0) > 0

    def test_underflow_at_the_start_is_not_a_capture(self):
        # a start off lambda(0) cannot be captured at t = 0; the step
        # underflow there leaves the start undecided
        _, rep = solve_real_loewner(sqrt_spec(5.0), 1e-7, 1.0)
        assert rep.status == "undecided"
        assert rep.certificate == "horizon_exhausted"
        assert rep.capture_time is None
        _, rep = solve_real_loewner(sqrt_spec(5.0), 2e-6, 1.0)
        assert rep.status == "captured"
        assert rep.capture_time == pytest.approx(1.0, abs=1e-6)

    def test_start_on_singularity_rejected(self):
        with pytest.raises(DomainError):
            solve_real_loewner(sqrt_spec(3.0), 0.0, 1.0)

    def test_capture_implies_record(self):
        spec = sqrt_spec(5.0)
        _, rep = solve_real_loewner(spec, 2.0, 1.0)
        assert rep.status == "captured"
        t = np.linspace(0.0, rep.capture_time * (1 - 1e-9), 500)
        assert np.all(spec(rep.capture_time) >= spec(t) - 1e-9)


class TestFrameEquation:
    def test_attracting_point_from_inside(self):
        xi = lambda s: 5.0 + 0.0 * np.asarray(s)
        run = solve_frame_equation(xi, 2.0, 25.0)
        assert run.classification == "captured-candidate"
        assert float(np.asarray(run.path.terminal_value)) == pytest.approx(4.0, abs=1e-6)

    def test_below_unstable_root_escapes_to_zero(self):
        xi = lambda s: 5.0 + 0.0 * np.asarray(s)
        run = solve_frame_equation(xi, 0.5, 25.0)
        assert run.classification == "escaped-zero"
        # the exit step is bisected to the floor crossing, which for a
        # constant xi = 5 is at s = [(5 - x)/((x - 1)(x - 4)) integrated
        # from the floor to 0.5] = [-4/3 log|x - 1| + 1/3 log|x - 4|]
        f = FRAME_ZERO_FLOOR
        exact = (-4.0 * math.log(0.5) + math.log(3.5) + 4.0 * math.log1p(-f) - math.log(4.0 - f)) / 3.0
        assert run.exit_s == pytest.approx(exact, abs=1e-8)
        assert run.path.terminal_time == run.exit_s
        assert 0.0 < run.path.terminal_value - f < 1e-12

    def test_singular_exit_is_bisected_to_the_drop(self):
        # xi drops below x at s = 1, so the step that passes s = 1 exits
        # at the singular floor and is bisected to the drop
        xi = lambda s: np.where(np.asarray(s) < 1.0, 5.0, 3.0)[()]  # noqa: E731
        run = solve_frame_equation(xi, 4.5, 10.0)
        assert run.classification == "escaped-singular"
        assert run.path.times[-2] < run.exit_s == run.path.terminal_time
        assert run.exit_s == pytest.approx(1.0, abs=1e-12)

    def test_parabolic_stationary_point(self):
        xi = lambda s: 4.0 + 0.0 * np.asarray(s)
        run = solve_frame_equation(xi, 2.0, 25.0)
        assert run.classification == "captured-candidate"
        assert float(np.asarray(run.path.terminal_value)) == pytest.approx(2.0, abs=1e-9)

    def test_initial_value_domain(self):
        xi = lambda s: 4.0 + 0.0 * np.asarray(s)
        with pytest.raises(DomainError):
            solve_frame_equation(xi, 5.0, 10.0)

    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 10_000))
    def test_comparison_orders_solutions(self, seed):
        # xi1 >= xi2 pointwise forces x1 >= x2 from a common start
        rng = np.random.default_rng(seed)
        knots = np.linspace(0.0, 6.0, 7)
        base = rng.uniform(4.5, 6.0, knots.size)
        bump = rng.uniform(0.0, 1.0, knots.size)
        xi2 = lambda s: np.interp(s, knots, base)
        xi1 = lambda s: np.interp(s, knots, base + bump)
        r1 = solve_frame_equation(xi1, 2.0, 6.0)
        r2 = solve_frame_equation(xi2, 2.0, 6.0)
        n = min(r1.path.times.size, r2.path.times.size)
        t_common = np.linspace(0.0, min(r1.path.terminal_time, r2.path.terminal_time), 50)
        x1 = np.interp(t_common, r1.path.times, np.asarray(r1.path.values, dtype=float))
        x2 = np.interp(t_common, r2.path.times, np.asarray(r2.path.values, dtype=float))
        assert np.all(x1 >= x2 - 1e-7)


class TestDensityOperators:
    def test_profile_closed_forms(self):
        phi = lambda s: np.exp(-1.5 * np.asarray(s))
        vals, err = profile_from_density(phi, [0.0, 1.0])
        assert vals[0] == pytest.approx(1.0 / 1.5, abs=1e-8)
        assert vals[1] == pytest.approx(np.exp(-0.5) / 1.5, abs=1e-8)
        phi3 = lambda s: np.exp(-3.0 * np.asarray(s))
        vals3, _ = profile_from_density(phi3, [0.0, 2.0])
        assert vals3[1] == pytest.approx(np.exp(-2.0 * 2.0) / 3.0, abs=1e-8)

    def test_critical_decay_fails_membership(self):
        flags = density_flags(lambda s: np.exp(-2.0 * np.asarray(s)))
        assert flags["positive"] and not flags["super_exponential"] and not flags["ok"]

    def test_non_integrable_tail_raises(self):
        # a density with no decay: the tail fit finds none and integrates
        # the tail explicitly, which diverges
        flat = lambda s: np.ones_like(np.asarray(s, dtype=float))  # noqa: E731
        with pytest.raises(NumericalError, match="divergent"):
            profile_from_density(flat, [0.0])

    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 10_000))
    def test_tail_transform_is_linear(self, seed):
        rng = np.random.default_rng(seed)
        b1, b2 = rng.uniform(0.5, 1.8, 2)
        a = rng.uniform(0.2, 3.0)
        f1 = lambda s: np.exp(-b1 * np.asarray(s))
        f2 = lambda s: np.exp(-b2 * np.asarray(s))
        fsum = lambda s: f1(s) + f2(s)
        grid = np.linspace(0.0, 5.0, 11)
        v1, _ = profile_from_density(f1, grid)
        v2, _ = profile_from_density(f2, grid)
        vs, _ = profile_from_density(fsum, grid)
        va, _ = profile_from_density(lambda s: a * f1(s), grid)
        assert np.max(np.abs(vs - (v1 + v2))) < 1e-8
        assert np.max(np.abs(va - a * v1)) < 1e-8

    def test_driving_from_profile_arithmetic(self):
        g = np.linspace(0.0, 5.0, 501)
        assert np.allclose(driving_from_profile(np.full_like(g, 2.0), g), 4.0)
        assert np.allclose(driving_from_profile(np.full_like(g, 4.0), g), 5.0)
        Phi = np.exp(-0.5 * g) / 1.5  # profile of the 1.5-decay density
        xi = driving_from_profile(Phi, g)
        # derivative is second order in the grid step; the 4/(Phi - dPhi)
        # term amplifies its error where the profile has decayed
        assert xi[0] == pytest.approx(2.0 / 3.0 + 4.0 / 1.0, abs=1e-4)
        assert xi[250] == pytest.approx(Phi[250] + 4.0 / (1.5 * Phi[250]), rel=1e-5)

    def test_nonpositive_denominator_named(self):
        g = np.linspace(0.0, 2.0, 101)
        with pytest.raises(DomainError):
            driving_from_profile(np.exp(2.0 * g), g)  # Phi - Phi' = -Phi < 0


class TestReconstruction:
    def test_known_pair_stationary_two(self):
        rec = reconstruct_captured_pair(
            lambda s: 2.0 * np.exp(-np.asarray(s)), FrameMap(T=1.0, lambda_T=4.0)
        )
        t = rec.t[:-1]
        assert np.max(np.abs(rec.lam[:-1] - (4 - 4 * np.sqrt(1 - t)))) < 1e-7
        assert np.max(np.abs(rec.X[:-1] - (4 - 2 * np.sqrt(1 - t)))) < 1e-7
        assert rec.residual < 1e-6
        assert rec.lam[-1] == rec.X[-1] == 4.0

    def test_known_pair_stationary_four(self):
        rec = reconstruct_captured_pair(
            lambda s: 4.0 * np.exp(-np.asarray(s)), FrameMap(T=1.0, lambda_T=5.0)
        )
        t = rec.t[:-1]
        assert np.max(np.abs(rec.lam[:-1] - (5 - 5 * np.sqrt(1 - t)))) < 1e-7
        assert np.max(np.abs(rec.X[:-1] - (5 - 4 * np.sqrt(1 - t)))) < 1e-7

    def test_profile_derivative_identity_cross_check(self):
        rec = reconstruct_captured_pair(
            lambda s: 2.0 * np.exp(-np.asarray(s)) + np.exp(-1.3 * np.asarray(s)),
            FrameMap(T=1.0, lambda_T=1.0),
        )
        assert rec.derivative_check < 1e-4  # central differences on the grid

    def test_inadmissible_density_rejected(self):
        with pytest.raises(PreconditionError):
            reconstruct_captured_pair(
                lambda s: np.exp(-2.5 * np.asarray(s)), FrameMap(T=1.0, lambda_T=0.0)
            )


class TestNoCaptureCertificate:
    def test_exact_equality_boundary(self):
        xi3 = lambda s: 3.0 + 0.0 * np.asarray(s)
        assert no_capture_certificate(xi3, 0.0, 3.0).holds
        xi1 = lambda s: 1.0 + 0.0 * np.asarray(s)
        assert no_capture_certificate(xi1, 0.0, 0.25).holds

    def test_negative_descent_never_certifies(self):
        xi5 = lambda s: 5.0 + 0.0 * np.asarray(s)
        assert not no_capture_certificate(xi5, 0.0, 17.0).holds

    def test_negative_driving_rejected(self):
        with pytest.raises(DomainError):
            no_capture_certificate(lambda s: -1.0 + 0.0 * np.asarray(s), 0.0, 1.0)

    @pytest.mark.parametrize("c", [1.0, 2.0, 3.0, 3.5])
    def test_soundness_against_scan(self, c):
        spec = sqrt_spec(c)
        xi = FrameDriving(spec)
        descent = 4.0 - c if c >= 2 else 4.0 / c
        t2 = 1.01 * c / descent
        assert no_capture_certificate(xi, 0.0, t2).holds
        scan = capture_scan(spec, 1.0, refine=False, mirrored=False)
        assert scan.interval is None


class TestCaptureScan:
    def test_supercritical_intervals(self):
        # phase-line oracle: captured set is (0, (c + sqrt(c^2-16))/2]
        for c, hi in ((5.0, 4.0), (6.0, 3.0 + np.sqrt(5.0))):
            scan = capture_scan(sqrt_spec(c), 1.0, mirrored=False)
            assert scan.interval is not None
            assert scan.interval[1] == pytest.approx(hi, abs=1e-3)
            assert scan.interval[0] < 0.02
            assert scan.mirrored_interval is None

    def test_subcritical_empty(self):
        scan = capture_scan(sqrt_spec(3.0), 1.0)
        assert scan.interval is None and scan.mirrored_interval is None

    def test_grid_below_origin_rejected(self):
        with pytest.raises(DomainError):
            capture_scan(sqrt_spec(5.0), 1.0, grid=np.array([-1.0, 1.0]), mirrored=False)

    def test_singular_floor_exits_are_labelled_as_such(self):
        # starts within 1e-9 of lambda(0) exit the frame batch at the
        # singular floor at s = 0; no bisection refines a batch exit
        grid = np.array([1e-10, 1e-9])
        scan = capture_scan(sqrt_spec(5.0), 1.0, grid=grid, refine=False, mirrored=False)
        assert [r.certificate for r in scan.reports] == ["singular_floor"] * 2

    @pytest.mark.parametrize("grid", [[1e-12, 1.0, 4.5], [1e-10, 1e-7, 1.0]])
    def test_a_stalled_start_does_not_decide_the_others(self, grid):
        # the start nearest lambda(0) underflows the shared step at s = 0;
        # every point must get the verdict it gets when scanned alone
        def verdicts(g):
            scan = capture_scan(sqrt_spec(5.0), 1.0, grid=g, refine=False, mirrored=False)
            return [(r.status, r.capture_time, r.certificate) for r in scan.reports]

        assert verdicts(grid) == [verdicts([x])[0] for x in grid]

    @pytest.mark.parametrize("tol", [0.0, -1.0, np.nan, np.inf, 1e-300, 0.5 * REFINE_TOL_MIN])
    def test_refine_tol_outside_its_range_rejected(self, tol):
        with pytest.raises(DomainError, match="refine_tol"):
            capture_scan(sqrt_spec(5.0), 1.0, refine_tol=tol, mirrored=False)

    def test_edge_bisection_stops_at_adjacent_doubles(self):
        # the spacing of doubles near 4e4 is 7.3e-12, above the tolerance
        edge = _refine_edge(lambda x: x <= 4e4 + 0.3, 3e4, 5e4, REFINE_TOL_MIN)
        assert edge == pytest.approx(4e4 + 0.3, abs=1e-11)

    # (interval, mirrored interval), computed before the stage sums were put in tableau order
    FROZEN = {
        3.0: (None, None),
        4.3: ((4.2999999999999995e-06, 2.938975048828125), None),
        5.0: ((4.9999999999999996e-06, 3.9999560607910154), None),
        5.5: ((5.5e-06, 4.637431405639649), None),
        6.2: ((6.2e-06, 5.468506793212891), None),
    }

    @pytest.mark.parametrize("c", sorted(FROZEN))
    def test_intervals_are_frozen(self, c):
        scan = capture_scan(sqrt_spec(c), 1.0)
        assert (scan.interval, scan.mirrored_interval) == self.FROZEN[c]

    def test_composite_wrapper_scans_like_its_closed_form(self):
        # the composite has no closed form: its frame driving is the
        # generic quotient, exact to s = 4e4 where the refinement probes run
        spec = sqrt_spec(5.0)
        want = capture_scan(spec, 1.0, mirrored=False)
        got = capture_scan(DrivingSpec("composite", {"base": spec}, 1.0), 1.0, mirrored=False)
        assert np.max(np.abs(np.subtract(got.interval, want.interval))) <= 1e-4  # refine_tol

    def test_scan_reports_its_cost(self):
        # the base batch plus 13 one-start refinement probes
        scan = capture_scan(sqrt_spec(5.0), 1.0, mirrored=False)
        # the counts are those of the stepper before its float lane was
        # unrolled: the same steps and field evaluations
        assert (scan.nprobes, scan.nsteps, scan.nfev) == (13, 3905, 23782)
        bare = capture_scan(sqrt_spec(5.0), 1.0, refine=False, mirrored=False)
        assert bare.nprobes == 0 and 0 < bare.nsteps < scan.nsteps
        assert 6 * bare.nsteps < bare.nfev < scan.nfev

    def test_mirrored_side_keeps_the_closed_form(self):
        # the reflection of sqrt_approach(-5) is sqrt_approach(5), whose
        # frame driving is the constant 5; as a composite it took the
        # generic quotient and minutes of refinement
        scan = capture_scan(sqrt_spec(-5.0), 1.0)
        up = capture_scan(sqrt_spec(5.0), 1.0, mirrored=False)
        assert scan.interval is None
        assert scan.mirrored_interval == (-up.interval[1], -up.interval[0])
        assert (scan.nsteps, scan.nprobes, scan.nfev) == (up.nsteps, up.nprobes, up.nfev)

    @pytest.mark.parametrize("c", [4.3, 5.0, 6.2])
    @pytest.mark.parametrize("tols", [
        pytest.param((SCAN_HORIZON_S, 1e-8, 1e-12), id="scan"),
        pytest.param((4e4, 1e-11, 1e-9), id="refinement"),
    ])
    def test_one_start_equals_its_two_lane_batch(self, c, tols):
        # a one-start batch runs on the stepper's float lane with scalar
        # exit tests; starts below the repelling fixed point escape through
        # zero, the others park at the attracting one, and the last one
        # stalls at the singular floor at s = 0
        s_horizon, rel_tol, stationary_tol = tols
        xi = FrameDriving(sqrt_spec(c))
        low = (c - np.sqrt(c * c - 16.0)) / 2.0
        named = {0: "captured-candidate", 1: "escaped-zero", 2: "escaped-singular", 3: "undecided"}
        for x0 in (0.5 * low, 0.999 * low, 1.001 * low, 0.5 * c, c - 1e-3, c - 1e-12):
            one = _classify_frame_batch(xi, np.array([x0]), s_horizon, rel_tol, stationary_tol)
            two = _classify_frame_batch(xi, np.array([x0, x0]), s_horizon, rel_tol, stationary_tol)
            for a, b in zip(one[:3], two[:3]):
                assert np.array_equal(np.repeat(a, 2), b, equal_nan=True)
            assert one[3:] == two[3:]
            if (rel_tol, stationary_tol) == (1e-8, 1e-12):
                # solve_frame_equation is the same run at these base
                # tolerances, named (the surviving starts park inside the
                # band), with its accepted steps recorded
                run = solve_frame_equation(xi, x0, s_horizon)
                code, s_exit = int(one[0][0]), float(one[1][0])
                assert run.classification == named[code]
                assert run.path.nsteps == one[3]
                assert run.path.times.size == run.path.nsteps + 1
                if code == 1:
                    # the exit step is bisected: exit_s lies inside the last
                    # step, and the floor is crossed there
                    assert run.path.times[-2] < run.exit_s <= s_exit
                    assert run.exit_s == run.path.terminal_time
                    assert one[2][0] <= FRAME_ZERO_FLOOR < run.path.terminal_value
                    assert run.path.terminal_value - FRAME_ZERO_FLOOR < 1e-12
                    assert run.path.nfev > one[4]
                else:
                    assert run.exit_s == (None if code == 0 else s_exit)
                    assert run.path.terminal_value == one[2][0]
                    assert run.path.nfev == one[4]

    @pytest.mark.parametrize("run", [
        pytest.param(lambda xi: _classify_frame_batch(xi, np.array([2.0]), SCAN_HORIZON_S),
                     id="frame-one-start"),
        pytest.param(lambda xi: solve_frame_equation(xi, 2.0), id="solve_frame_equation"),
        pytest.param(lambda xi: solve_real_loewner(ZOO[3], 0.7, 1.0), id="solve_real_loewner"),
        pytest.param(lambda xi: comparison_constant(2.0), id="comparison_constant"),
    ])
    def test_scalar_integrations_take_the_float_lane(self, run, monkeypatch):
        # a fall-back to the 1-element array lane gives the same numbers at
        # about ten times the cost per step, so only the lane shows it
        lanes = []
        init = _Stepper.__init__

        def recording(self, *args):
            init(self, *args)
            lanes.append(self.float_lane)

        monkeypatch.setattr(_Stepper, "__init__", recording)
        run(FrameDriving(sqrt_spec(5.0)))
        assert lanes and all(lanes)


class TestScalingBoundDiagnostic:
    """A driving captured at T whose liminf exponent a is below 4 must
    oscillate: its limsup exponent b >= max(4, a + 4/a).  a and b are the
    smallest and largest |quotient| of ``local_scaling_exponents``; the
    finite ladder gets a slack of 0.25."""

    def test_supercritical_vacuous_above_four(self):
        # c = 5 captures with a = b = 5 >= 4, where the bound says nothing
        rep = local_scaling_exponents(sqrt_spec(5.0), 1.0)
        assert rep.a_hat >= 4.0 and np.all(rep.signed_quotients > 0)

    def test_subcritical_not_applicable(self):
        # c = 3 captures no point, so the bound does not apply
        scan = capture_scan(sqrt_spec(3.0), 1.0, refine=False)
        assert scan.interval is None and scan.mirrored_interval is None

    def test_sharp_example_satisfies_bound(self):
        spec = DrivingSpec("sharp_example", {"a": 1.5}, 1.0)
        scan = capture_scan(spec, 1.0, refine=False, mirrored=False)
        assert scan.interval is not None
        rep = local_scaling_exponents(spec, 1.0)
        a, b = rep.a_hat, rep.b_hat
        assert a < 4.0 and np.all(rep.signed_quotients > 0)
        assert b >= max(4.0, a + 4.0 / a) - 0.25


class TestSharpOscillation:
    def test_low_branch_bands(self):
        osc = SharpOscillation(1.5, k_max=40)
        rep = osc.band_report()
        s = np.linspace(0.0, osc.horizon * (1 - 1e-9), 20000)
        xs, xis = osc.x(s), osc.xi(s)
        assert 1.45 <= rep["running_min"] <= 1.55
        assert 4.0 <= rep["running_max"] <= 4.35
        assert np.all(xs > 0)  # captured solutions stay positive
        assert np.all(xis - xs > 0)

    def test_high_branch_reaches_four(self):
        rep = SharpOscillation(3.0, k_max=40).band_report()
        assert 3.9 <= rep["running_max"] <= 4.1

    @pytest.mark.parametrize("a", [1.5, 2.0, 3.0])
    def test_float_time_equals_the_array_call(self, a):
        # a float time takes the scalar lane; it must return the 1-element
        # array call bit for bit, on both pieces, at the knots and past the horizon
        osc = SharpOscillation(a, k_max=20)
        knots = np.concatenate([osc._alpha, osc._beta]) - osc.origin
        knots = knots[knots >= 0.0]
        ss = np.concatenate([
            np.random.default_rng(3).uniform(0.0, 1.2 * osc.horizon, 400),
            knots, np.nextafter(knots, np.inf), np.nextafter(knots, -np.inf),
            [0.0, osc.horizon, 2.0 * osc.horizon],
        ])
        for f in (osc.x, osc.xi, osc.gap):
            lane = [f(float(s)) for s in ss]
            assert all(type(v) is float for v in lane)
            assert np.array_equal(lane, [f(np.array([s]))[0] for s in ss])
            assert np.array_equal(lane, f(ss))

    @pytest.mark.parametrize("a", [1.5, 3.0])
    def test_gap_is_xi_minus_x(self, a):
        # one evaluation gives the gap 4/(x - dx/ds); inside the horizon it
        # is xi - x up to the rounding of that subtraction
        osc = SharpOscillation(a, k_max=20)
        ss = np.linspace(0.0, osc.horizon, 2001)
        gap, xi = osc.gap(ss), osc.xi(ss)
        assert np.all(gap > 0)
        assert np.max(np.abs(gap - (xi - osc.x(ss))) / xi) < 4 * np.finfo(float).eps

    def test_boundary_arithmetic(self):
        # at a = 2 the two bound formulas coincide: a + 4/a = 4 = max(4, a+4/a)
        a = 2.0
        assert a + 4.0 / a == 4.0 == max(4.0, a + 4.0 / a)
        rep = SharpOscillation(2.0, k_max=20).band_report()
        assert rep["branch"] == 1

    def test_amplitude_domain(self):
        with pytest.raises(DomainError):
            SharpOscillation(4.0)
        with pytest.raises(DomainError):
            SharpOscillation(0.0)


class TestSpeedCondition:
    """Rate-weighted quotients R(d) h(d) and R(d)/h(d), h(d) = log(1/d), on
    the finer half of the ``local_scaling_exponents`` ladder."""

    @staticmethod
    def sides(spec, T):
        rep = local_scaling_exponents(spec, T)
        d, R = rep.scales_used, rep.signed_quotients
        hv = np.log(1.0 / d)
        tail = slice(d.size // 2, None)
        return np.min((R * hv)[tail]), np.max((R / hv)[tail])

    def test_sqrt_approach_diverging_products(self):
        # R = c = 2 on every scale: R h grows without bound along the ladder
        lo, hi = self.sides(sqrt_spec(2.0), 1.0)
        assert lo > 10.0 and 0.0 < hi < 2.0

    def test_zero_driving(self):
        lo, hi = self.sides(DrivingSpec("constant", {"value": 0.0}, 1.0), 1.0)
        assert lo == 0.0 and hi == 0.0

    @pytest.mark.parametrize("scales", [[0.1, 0.2], [1.0, 0.5], [0.5, 0.0], [1.5, 0.5]])
    def test_ladder_is_checked(self, scales):
        # strictly decreasing and inside (0, T)
        with pytest.raises(DomainError):
            local_scaling_exponents(sqrt_spec(2.0), 1.0, scales)

    def test_brownian_runs_as_diagnostic(self):
        spec = DrivingSpec("brownian", {"kappa": 6.0}, 1.0, normalize=True, seed=2)
        t = np.linspace(0.01, 1.0, 4097)
        T_star = float(t[np.argmax(spec(t))])
        lo, hi = self.sides(spec, T_star)
        assert np.isfinite(lo) and np.isfinite(hi)
