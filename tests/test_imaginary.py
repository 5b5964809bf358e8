import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate as sp_integrate

from loewner import DomainError, DrivingSpec, NumericalError, PreconditionError
from loewner.imaginary import (
    classify_sqrt_gap,
    driving_from_gap,
    dual_vanishing_probe,
    gap_duality_check,
    growth_floor,
    ramp_ode_terminal,
    solve_frame_difference,
    solve_frame_imaginary,
    solve_imaginary,
    solve_planar,
    vanishing_spread,
)
from loewner.imaginary import _FLOW_CONFIG, _log_field
from loewner.ode import integrate
from loewner.sharp import SharpOscillation


def const(v):
    return lambda s: v + 0.0 * np.asarray(s, dtype=float)


def sqrt_gap(C, T=1.0):
    return lambda t: C * np.sqrt(np.maximum(T - np.asarray(t, dtype=float), 0.0))


ZERO = DrivingSpec("constant", {"value": 0.0}, 2.0)


class TestPlanar:
    def test_vertical_capture_times(self):
        # points i y are captured when y^2 = 4t
        for y0, t_cap in ((1.0, 0.25), (2.0, 1.0)):
            _, ev = solve_planar(ZERO, 1j * y0, 2.0)
            assert ev.kind == "capture"
            assert ev.time == pytest.approx(t_cap, abs=1e-8)

    def test_closed_form_point(self):
        path, ev = solve_planar(ZERO, 1 + 1j, 0.5)
        assert ev.kind == "horizon"
        X, Y = path.values[-1]
        ref = np.sqrt((1 + 1j) ** 2 + 4 * 0.5)
        assert complex(X, Y) == pytest.approx(ref, abs=1e-10)
        # conserved quantities of the closed form: X^2 - Y^2 - 4t, XY
        assert X * X - Y * Y - 2.0 == pytest.approx(0.0, abs=1e-10)
        assert X * Y == pytest.approx(1.0, abs=1e-10)

    def test_height_strictly_decreasing(self):
        path, _ = solve_planar(ZERO, 0.5 + 2j, 1.0)
        Y = path.values[:, 1]
        assert np.all(np.diff(Y) < 0)

    def test_lower_half_plane_rejected(self):
        with pytest.raises(DomainError):
            solve_planar(ZERO, 1 - 1j, 1.0)


class TestImaginaryEquation:
    def test_zero_gap_vanishes_at_one(self):
        path, cls = solve_imaginary(const(0.0), 2.0, 1.0, frame_eta=const(0.0))
        assert cls.status == "vanishing"
        assert cls.witness_time == pytest.approx(1.0, abs=1e-8)

    @pytest.mark.parametrize("y0", [0.1, 1.0, 3.0])
    def test_critical_gap_never_vanishes(self, y0):
        _, cls = solve_imaginary(sqrt_gap(2.0), y0, 1.0, frame_eta=const(2.0))
        assert cls.status == "not_vanishing_certified"

    def test_subcritical_witness_vanishes(self):
        y0 = np.sqrt(1.0 * (4.0 - 1.5**2))
        _, cls = solve_imaginary(sqrt_gap(1.5), y0, 1.0, frame_eta=const(1.5))
        assert cls.status == "vanishing"
        assert cls.witness_time == pytest.approx(1.0, abs=1e-6)

    @pytest.mark.parametrize("y0", [1e-9, 5e-10, 1e-12, 1.6479316931752282e-239])
    def test_start_at_the_floor_goes_to_the_frame(self, y0):
        # the original-time guard cannot fire from here, and the run crawled
        # at steps of about theta^2; the frame decides, with witness T
        T = 1e-3
        _, cls = solve_imaginary(sqrt_gap(1e-3, T), y0, T, frame_eta=const(1e-3))
        assert (cls.status, cls.witness_time) == ("vanishing", T)

    def test_planar_consistency(self):
        # the height of the planar flow solves the scalar equation driven
        # by the gap theta = X - lambda; for the trivial driving theta is
        # the closed form Re sqrt(z^2 + 4t)
        z0 = 0.7 + 1.5j
        path, _ = solve_planar(ZERO, z0, 0.4)
        ts, Ys = path.times, path.values[:, 1]

        def theta(t):
            w = np.sqrt(z0**2 + 4.0 * np.asarray(t, dtype=float))
            return np.abs(w.real)

        def eta(s):  # theta(T - T e^{-2s}) e^{s} / sqrt(T)
            s = np.asarray(s, dtype=float)
            return theta(-0.4 * np.expm1(-2.0 * s)) * np.exp(s) / np.sqrt(0.4)

        path2, _ = solve_imaginary(theta, 1.5, 0.4, frame_eta=eta)
        Y2 = np.interp(ts, path2.times, np.asarray(path2.values, dtype=float))
        # linear interpolation between accepted steps limits the comparison
        assert np.max(np.abs(Y2 - Ys)) < 1e-5
        assert abs(Y2[-1] - Ys[-1]) < 1e-8  # terminal states agree tightly


class TestFrameFlows:
    def test_stationary_height(self):
        path, cls = solve_frame_imaginary(const(np.sqrt(2.0)), np.sqrt(2.0))
        assert cls.status == "vanishing"
        assert float(np.asarray(path.terminal_value)) == pytest.approx(np.sqrt(2.0), abs=1e-8)

    @pytest.mark.parametrize("y0", [1e-6, 0.5, 1.0, 1.9, 1.999999])
    def test_zero_gap_collapses_at_the_closed_form_time(self, y0):
        # eta = 0: z = y^2 obeys dz/ds = 2z - 8, so y reaches 0 at
        # s* = log(4/(4 - y0^2))/2, where u = log y falls to -infinity
        _, cls = solve_frame_imaginary(const(0.0), y0)
        assert cls.status == "vanishing"
        s_star = 0.5 * np.log(4.0 / (4.0 - y0 * y0))
        assert cls.witness_time == pytest.approx(s_star, rel=1e-5, abs=1e-12)

    def test_threshold_crossing_certificate(self):
        path, cls = solve_frame_imaginary(const(2.0), 0.5)
        assert cls.status == "not_vanishing_certified"
        assert cls.certificate == "y_crossed_2"
        # crossing time from separating the autonomous flow:
        # ds = (4/y^3 + 1/y) dy integrated from 0.5 to 2
        s_exact = (-2.0 / 4.0 + 2.0 / 0.25) + np.log(4.0)
        assert cls.witness_time == pytest.approx(s_exact, abs=1e-4)

    def test_decaying_height(self):
        _, cls = solve_frame_imaginary(const(1.5), 0.5)
        assert cls.status == "vanishing"

    def test_certified_growth_floor_after_crossing(self):
        # for eta = 2, z = y^2 - 4 obeys dz/ds = 2 y^4/(4 + y^2) >= 2 z, so
        # past the crossing s* the solution dominates sqrt(z(s*) e^{2(s - s*)} + 4);
        # the path ends at s*, so the run is continued from its last state
        path, cls = solve_frame_imaginary(const(2.0), 0.5)
        s_star, y_star = cls.witness_time, float(path.values[-1])
        assert s_star == path.terminal_time
        more = integrate(_log_field(const(2.0), "height"), np.log(y_star),
                         (s_star, s_star + 5.0), _FLOW_CONFIG)
        ss, ys = more.times[1:], np.exp(more.values[1:])
        assert ss.size >= 4
        floor = np.sqrt((y_star**2 - 4.0) * np.exp(2.0 * (ss - s_star)) + 4.0)
        assert np.all(ys >= floor)

    def test_difference_flow_examples(self):
        _, cls = solve_frame_difference(const(2.0), 1.0)
        assert cls.status == "not_vanishing_certified" and cls.certificate == "comparison"
        _, cls = solve_frame_difference(const(1.0), 1.0)
        assert cls.status == "vanishing"
        _, cls = solve_frame_difference(const(3.0), 4.0 / 3.0 - 0.05)
        assert cls.status == "not_vanishing_certified"

    def test_difference_flow_requires_positive_gap(self):
        with pytest.raises(DomainError):
            solve_frame_difference(const(0.0), 1.0)

    def test_difference_flow_tracks_solution_gaps(self):
        # two captured frame solutions of the constant driving 5: the gap
        # w = x_upper - x_lower solves the difference flow with the gap
        # driving eta = 5 - x_upper = 1.  Integrate both fields onto the
        # same stop times so interpolation error does not enter.
        stops = np.linspace(0.5, 10.0, 20)
        lower = integrate(lambda s, x: x - 4.0 / (5.0 - x), 2.0, (0.0, 10.0),
                          t_stops=stops)
        diff = integrate(lambda s, w: w - 4.0 * w / (1.0 + w), 2.0, (0.0, 10.0),
                         t_stops=stops)
        x_at = np.array([lower.values[np.argmin(np.abs(lower.times - s))] for s in stops])
        w_at = np.array([diff.values[np.argmin(np.abs(diff.times - s))] for s in stops])
        assert np.max(np.abs((4.0 - x_at) - w_at)) < 1e-8

    @settings(max_examples=10, deadline=None)
    @given(st.integers(0, 10_000))
    def test_comparison_for_sqrt_pairs(self, seed):
        rng = np.random.default_rng(seed)
        C1 = rng.uniform(0.5, 1.9)
        C2 = rng.uniform(0.1, C1)
        y0 = np.sqrt(4.0 - C1 * C1)
        _, cls1 = solve_imaginary(sqrt_gap(C1), y0, 1.0, frame_eta=const(C1))
        _, cls2 = solve_imaginary(sqrt_gap(C2), y0, 1.0, frame_eta=const(C2))
        assert cls1.status == "vanishing"
        assert cls2.status == "vanishing"

    @settings(max_examples=10, deadline=None)
    @given(st.integers(0, 10_000))
    def test_comparison_for_piecewise_linear_pairs(self, seed):
        # eta1 >= eta2, eta1 vanishing (kept below 2) forces eta2 vanishing
        rng = np.random.default_rng(seed)
        knots = np.linspace(0.0, 50.0, 9)
        upper = rng.uniform(0.5, 1.8, knots.size)
        lower = upper * rng.uniform(0.3, 1.0, knots.size)
        eta1 = lambda s: np.interp(s, knots, upper)
        eta2 = lambda s: np.interp(s, knots, lower)
        y0 = 0.5
        _, cls1 = solve_frame_imaginary(eta1, y0)
        _, cls2 = solve_frame_imaginary(eta2, y0)
        assert cls1.status == "vanishing" and cls2.status == "vanishing"


# a constant gap decides both flows through their fixed points alone:
# height   du/ds = 1 - 4/(eta^2 + y^2):  vanishing iff eta < 2 and y0 < sqrt(4 - eta^2)
# difference  du/ds = 1 - 4/(eta^2 + eta w):  vanishing iff w0 < 4/eta - eta
# Both fixed points repel, so starts within 1e-6 (relative) of one are left
# out: there the verdict follows rounding.
ORACLE_STARTS = [1e-6, 0.01, 0.3, 0.5, 1.0, 1.5, 1.9, 1.999, 2.5, 10.0, 1e3, 1e4]


def _off_the_fixed_point(y0, fixed):
    return not fixed > 0 or abs(y0 - fixed) > 1e-6 * fixed


class TestClosedFormOracle:
    @pytest.mark.parametrize("eta", [0.0, 0.001, 0.5, 1.0, np.sqrt(2.0), 1.9, 2.1, 3.0])
    def test_height_flow(self, eta):
        fixed = np.sqrt(4.0 - eta * eta) if eta < 2.0 else 0.0
        for y0 in filter(lambda y: _off_the_fixed_point(y, fixed), ORACLE_STARTS):
            _, cls = solve_frame_imaginary(const(eta), y0)
            want = "vanishing" if y0 < fixed else "not_vanishing_certified"
            assert (y0, cls.status) == (y0, want)

    @pytest.mark.parametrize("eta", [0.001, 0.3, 1.0, np.sqrt(2.0), 1.9, 2.5, 5.0])
    def test_difference_flow(self, eta):
        fixed = 4.0 / eta - eta
        for w0 in filter(lambda w: _off_the_fixed_point(w, fixed), ORACLE_STARTS):
            _, cls = solve_frame_difference(const(eta), w0)
            want = "vanishing" if w0 < fixed else "not_vanishing_certified"
            assert (w0, cls.status) == (w0, want)

    def test_start_on_the_fixed_point_stays_there(self):
        # sqrt(4 - eta^2) is the closed-form vanishing start of the gap
        # C sqrt(T - t) in the frame; both fixed points repel, so a drive of
        # rounding size there must not carry the start off
        for eta in np.linspace(0.02, 1.98, 99):
            for flow, fixed in ((solve_frame_imaginary, np.sqrt(4.0 - eta * eta)),
                                (solve_frame_difference, 4.0 / eta - eta)):
                path, cls = flow(const(eta), fixed)
                assert (eta, cls.status, np.ptp(path.values)) == (eta, "vanishing", 0.0)


def ramp_by_integration(c, eps, T):
    """y(T) of dy/dt = 2y/(y^2 + c t), y(0) = eps, by the adaptive stepper:
    the cross-check of the implicit solution ramp_ode_terminal solves."""
    path = integrate(lambda t, u: 2.0 * u / (u * u + c * t), eps, (0.0, T))
    return float(np.asarray(path.terminal_value))


class TestRampTerminal:
    def test_zero_rate_closed_form(self):
        y = ramp_ode_terminal(0.0, 0.3, 1.0)
        assert type(y) is float
        assert y == pytest.approx(np.sqrt(4.09), abs=1e-8)
        assert abs(ramp_by_integration(0.0, 0.3, 1.0) - y) < 1e-7

    def test_monotone_limit_below_threshold(self):
        ys = [ramp_ode_terminal(2.0, e, 1.0) for e in (1e-2, 1e-4, 1e-6)]
        errs = [abs(y - np.sqrt(2.0)) for y in ys]
        assert ys[0] > ys[1] > ys[2] > np.sqrt(2.0)
        assert errs[0] > errs[1] > errs[2]

    def test_critical_rate_against_fixed_point_oracle(self):
        # oracle: iterate y <- sqrt(2 / (10 + log y)) for log(eps) = -10
        y = 0.5
        for _ in range(80):
            y = np.sqrt(2.0 / (10.0 + np.log(y)))
        r = ramp_ode_terminal(4.0, np.exp(-10.0), 1.0)
        assert r == pytest.approx(y, abs=1e-10)
        assert abs(ramp_by_integration(4.0, np.exp(-10.0), 1.0) - r) < 1e-5

    def test_domain(self):
        with pytest.raises(DomainError):
            ramp_ode_terminal(-1.0, 0.1, 1.0)


class TestTransition:
    @pytest.mark.parametrize("C,expected", [
        (0.0, "vanishing"), (1.0, "vanishing"), (1.9, "vanishing"),
        (2.0, "boundary_not_vanishing"), (2.1, "not_vanishing"), (3.0, "not_vanishing"),
    ])
    def test_labels(self, C, expected):
        r = classify_sqrt_gap(C, 1.0)
        assert r.status == expected
        assert (r.run.status == "vanishing") == (expected == "vanishing")

    def test_witness_value(self):
        r = classify_sqrt_gap(1.5, 1.0)
        assert r.witness_y0 == pytest.approx(np.sqrt(4.0 - 2.25), abs=1e-12)


class TestGrowthFloor:
    def test_closed_forms(self):
        assert growth_floor(const(np.sqrt(2.0)), 3.0).value == pytest.approx(-3.0, abs=1e-10)
        assert growth_floor(const(2.0), 3.0).value == pytest.approx(0.0, abs=1e-12)
        assert growth_floor(const(2.0 * np.sqrt(2.0)), 3.0).value == pytest.approx(1.5, abs=1e-10)

    def test_zero_touching_gap_diverges(self):
        g = growth_floor(lambda s: np.maximum(1.0 - np.asarray(s), 0.0), 2.0)
        assert g.diverged and g.value == -np.inf

    @pytest.mark.parametrize("t", [-1.0, -1e-300, np.nan, np.inf])
    def test_time_outside_its_domain_raises(self, t):
        # the integral runs over [0, t]: a negative t was integrated backwards
        with pytest.raises(DomainError):
            growth_floor(const(1.0), t)

    def test_zero_time_is_zero(self):
        g = growth_floor(const(1.0), 0.0)
        assert g.value == 0.0 and not g.diverged

    @pytest.mark.parametrize("v", [0.5, 1.0, 1.5, np.sqrt(2.0)])
    def test_divergence_necessary_for_vanishing(self, v):
        _, cls = solve_frame_imaginary(const(v), min(0.5, v))
        assert cls.status == "vanishing"
        assert growth_floor(const(v), 40.0).value < -5.0


class TestGapDuality:
    def test_constant_gaps_exact(self):
        assert driving_from_gap(const(2.0), [0.0])[0] == pytest.approx(4.0, abs=1e-10)
        assert driving_from_gap(const(np.sqrt(2.0)), [0.0])[0] == pytest.approx(
            3.0 * np.sqrt(2.0), abs=1e-10
        )

    def test_decaying_gap_against_quadrature_oracle(self):
        eta = lambda s: 2.0 + np.exp(-np.asarray(s, dtype=float))
        oracle, _ = sp_integrate.quad(lambda s: 4.0 * np.exp(-s) / (2.0 + np.exp(-s)), 0, np.inf)
        got = driving_from_gap(eta, [0.0])[0]
        assert got == pytest.approx(3.0 + oracle, abs=1e-8)
        assert got == pytest.approx(3.0 + 4.0 * np.log(1.5), abs=1e-8)  # closed form

    def test_constant_pairs(self):
        tg = np.linspace(0.0, 6.0, 7)
        d = gap_duality_check(const(5.0), const(4.0), tg)
        assert d.max_deviation < 1e-10
        d = gap_duality_check(const(4.0), const(2.0), tg)
        assert d.max_deviation < 1e-10

    def test_sharp_pair(self):
        osc = SharpOscillation(1.5, k_max=40)
        d = gap_duality_check(osc.xi, osc.x, np.linspace(0.0, 30.0, 16),
                              domain_end=osc.horizon)
        assert d.max_deviation < 1e-4

    def test_divergent_tail_rejected(self):
        with pytest.raises(DomainError):
            driving_from_gap(lambda s: np.exp(-2.0 * np.asarray(s, dtype=float)), [0.0])

    def test_non_integrable_gap_raises(self):
        # 4 e^{-s} / (s - 1/3)^2 is not integrable at s = 1/3
        with pytest.raises(NumericalError, match="quadrature over"):
            driving_from_gap(lambda s: (np.asarray(s, dtype=float) - 1.0 / 3.0) ** 2, [0.0])


class TestSpreadAndProbe:
    def test_spread_stationary_plus_decaying(self):
        rep = vanishing_spread(const(np.sqrt(2.0)), [0.5, 1.0, np.sqrt(2.0)])
        assert all(r.status == "vanishing" for r in rep.rows)
        assert rep.max_small_gap < 1e-6
        assert rep.small_terminal_max < 1e-6
        assert rep.rows[-1].terminal_value == pytest.approx(np.sqrt(2.0), abs=1e-6)

    def test_spread_pair_collapses_together(self):
        rep = vanishing_spread(const(1.5), [0.2, 0.4])
        assert all(r.status == "vanishing" for r in rep.rows)
        assert np.max(rep.pairwise_gaps) < 1e-6

    def test_spread_vacuous_when_not_vanishing(self):
        rep = vanishing_spread(const(2.0), [0.5, 1.0])
        assert all(r.status == "not_vanishing_certified" for r in rep.rows)
        assert rep.max_small_gap is None

    def test_dual_probe_consistent(self):
        pr = dual_vanishing_probe(const(1.0))
        assert pr.dual_vanishing_w0 is not None and pr.consistent

    def test_dual_probe_vacuous_above_two(self):
        pr = dual_vanishing_probe(const(2.5))
        assert pr.dual_vanishing_w0 is None

    def test_dual_probe_needs_positive_bound(self):
        with pytest.raises(PreconditionError):
            dual_vanishing_probe(lambda s: np.maximum(1.0 - np.asarray(s), 0.0))
