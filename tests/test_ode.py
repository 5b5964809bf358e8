import numpy as np
import pytest

from loewner import (
    ConfigError,
    DrivingSpec,
    IntegratorConfig,
    integrate,
    integrate_until,
)
from loewner.ode import DEFAULT_CONFIG, _Stepper

# the Dormand-Prince 5(4) pair as printed (J. Comput. Appl. Math. 6, 1980)
DP_C = [0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0]
DP_A = [
    [],
    [1 / 5],
    [3 / 40, 9 / 40],
    [44 / 45, -56 / 15, 32 / 9],
    [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729],
    [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656],
    [35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84],
]
DP_B5 = [35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0]
DP_B4 = [5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200, 187 / 2100, 1 / 40]


def textbook_step(f, t, y, h):
    """One DP5(4) attempt with list sums.

    Returns the 5th-order solution, the error estimate and the scale
    h sum |e_j k_j| against which the estimate, a cancelling sum, is rounded.
    """
    ks = []
    for c, row in zip(DP_C, DP_A):
        yi = y + h * sum((a * k for a, k in zip(row, ks)), 0.0 * y)
        ks.append(f(t + c * h, yi))
    y5 = y + h * sum(b * k for b, k in zip(DP_B5, ks))
    err = h * sum((b5 - b4) * k for b5, b4, k in zip(DP_B5, DP_B4, ks))
    err_scale = h * sum(abs(b5 - b4) * np.abs(k) for b5, b4, k in zip(DP_B5, DP_B4, ks))
    return y5, err, err_scale


class TestClosedForms:
    def test_sqrt_growth(self):
        # y' = 2/y, y(0) = 1: y = sqrt(1 + 4t)
        p = integrate(lambda t, y: 2.0 / y, 1.0, (0.0, 2.0))
        assert p.terminal_value == pytest.approx(3.0, abs=1e-8)

    def test_exponential(self):
        p = integrate(lambda t, y: y, 1.0, (0.0, 1.0))
        assert p.terminal_value == pytest.approx(np.e, abs=1e-8)

    def test_vanishing_exit_classified(self):
        # y' = -2/y from 2: y = sqrt(4 - 4t) hits zero at t = 1
        p = integrate(lambda t, y: -2.0 / y, 2.0, (0.0, 2.0))
        assert p.event is not None and p.event.kind == "vanish"
        assert p.event.time == pytest.approx(1.0, abs=1e-8)

    def test_unflagged_singularity_is_blow_up(self):
        lam = DrivingSpec("sqrt_approach", {"c": 4.0}, 1.0)
        p = integrate(lambda t, y: 2.0 / (y - lam(t)), 2.0, (0.0, 1.0))
        assert p.event is not None and p.event.kind == "blow_up"
        assert np.all(np.isfinite(p.values))


class TestGuards:
    def test_threshold_crossing(self):
        p = integrate_until(lambda t, y: 2.0 / y, 1.0, (0.0, 5.0), lambda t, y: y - 3.0)
        assert p.event.kind == "threshold"
        assert p.event.time == pytest.approx(2.0, abs=1e-8)
        assert p.event.bracket <= 1e-10

    def test_horizon_when_never_crossing(self):
        p = integrate_until(lambda t, y: 0.0 * y, 1.0, (0.0, 2.0), lambda t, y: y - 2.0)
        assert p.event.kind == "horizon" and p.event.time == 2.0

    def test_real_loewner_no_capture(self):
        p = integrate_until(
            lambda t, y: 2.0 / y, 1.0, (0.0, 10.0), lambda t, y: y * y - 1e-18
        )
        assert p.event.kind == "horizon"
        assert p.terminal_value == pytest.approx(np.sqrt(41.0), abs=1e-8)

    def test_guard_shift_never_earlier_on_decreasing_guard(self):
        # gap-type guard decreasing through zero: raising it by eps delays
        def run(eps):
            p = integrate_until(
                lambda t, y: -2.0 / y, 2.0, (0.0, 2.0),
                lambda t, y: (y * y - 0.25) + eps,
            )
            return p.event.time

        times = [run(e) for e in (0.0, 1e-3, 1e-2, 1e-1)]
        assert all(b >= a - 1e-12 for a, b in zip(times, times[1:]))

    def test_guard_not_evaluable(self):
        with pytest.raises(ConfigError):
            integrate_until(lambda t, y: y, 1.0, (0.0, 1.0), lambda t, y: float("nan"))


class TestAccuracyControls:
    def test_self_convergence_under_tightening(self):
        for field, y0, span, ref in (
            (lambda t, y: 2.0 / y, 1.0, (0.0, 2.0), 3.0),
            (lambda t, y: y, 1.0, (0.0, 1.0), np.e),
        ):
            loose = IntegratorConfig(rel_tol=1e-8, abs_tol=1e-8)
            tight = IntegratorConfig(rel_tol=4e-9, abs_tol=4e-9)
            ya = integrate(field, y0, span, loose).terminal_value
            yb = integrate(field, y0, span, tight).terminal_value
            assert abs(ya - yb) < 10 * 4e-9 * max(1.0, abs(ref))

    def test_vector_and_complex_states(self):
        zs = np.array([1 + 1j, 2 + 0.5j, -1 + 2j])
        p = integrate(lambda t, z: 2.0 / z, zs, (0.0, 1.0))
        ref = np.sqrt(zs**2 + 4.0)
        ref = np.where(ref.imag < 0, -ref, ref)
        assert np.max(np.abs(p.values[-1] - ref)) < 1e-8

    def test_t_stops_are_landed(self):
        p = integrate(lambda t, y: y, 1.0, (0.0, 1.0), t_stops=[0.3, 0.7])
        for s in (0.3, 0.7):
            k = np.argmin(np.abs(p.times - s))
            assert abs(p.times[k] - s) < 1e-12
            assert abs(p.values[k] - np.exp(s)) < 1e-8

    def test_no_nan_in_outputs(self):
        p = integrate(lambda t, y: -2.0 / y, 1.0, (0.0, 1.0))
        assert np.all(np.isfinite(p.values)) and np.all(np.isfinite(p.times))


class TestStepper:
    @pytest.mark.parametrize("field, y0", [
        pytest.param(lambda t, y: np.sin(3.0 * t) - 2.0 * y * y, np.float64(0.8), id="scalar"),
        pytest.param(lambda t, y: np.cos(t * np.arange(1, 130)) - 0.5 * y,
                     np.linspace(-1.0, 2.0, 129), id="vector129"),
        pytest.param(lambda t, z: 2.0 / z + 1j * t, np.array([1 + 1j, 2 + 0.5j, -1 + 2j]),
                     id="complex"),
    ])
    def test_one_attempt_matches_the_textbook_step(self, field, y0):
        t0, h = 0.3, 0.05
        st = _Stepper(field, t0, y0, 1.0, DEFAULT_CONFIG)
        st.h = h
        seen = []
        norm = st._norm
        st._norm = lambda err, y_old, y_new: seen.append((err, y_new)) or norm(err, y_old, y_new)
        st.step()
        err, y_new = seen[0]
        y_ref, err_ref, err_scale = textbook_step(field, t0, y0, h)
        assert np.all(np.abs(y_new - y_ref) <= 1e-14 * np.abs(y_ref))
        assert np.all(np.abs(err - err_ref) <= 1e-14 * err_scale)

    def test_field_evaluations_counted(self):
        p = integrate(lambda t, y: y, 1.0, (0.0, 1.0))
        assert p.nsteps > 0
        assert p.nfev == 1 + 6 * (p.nsteps + p.nrejected)

    def test_event_bisection_evaluations_counted(self):
        p = integrate_until(lambda t, y: 2.0 / y, 1.0, (0.0, 5.0), lambda t, y: y - 3.0)
        assert p.event.kind == "threshold"
        assert p.nfev > 1 + 6 * (p.nsteps + p.nrejected)


def weierstrass_field(b, N, c):
    spec = DrivingSpec("weierstrass_partial", {"c": c, "b": b, "N": N}, 1.0, normalize=True)
    return lambda t, x: 2.0 / (x - spec(t))


def assert_same_run(solo, pair):
    """A float-lane run equals each lane of its two-lane batch bit for bit."""
    assert np.array_equal(solo.times, pair.times)
    assert np.array_equal(solo.values, pair.values[:, 0])
    assert np.array_equal(solo.values, pair.values[:, 1])
    assert (solo.nsteps, solo.nrejected, solo.nfev) == (pair.nsteps, pair.nrejected, pair.nfev)


class TestFloatLane:
    @pytest.mark.parametrize("field, x0, span", [
        pytest.param(weierstrass_field(9.0, 3, 0.3), 0.7, (0.0, 1.0), id="weierstrass-9-3"),
        pytest.param(weierstrass_field(16.0, 2, 0.3), 0.4, (0.0, 1.0), id="weierstrass-16-2"),
        pytest.param(lambda t, y: np.sin(3.0 * t) - 2.0 * y * y, 0.8, (0.0, 20.0), id="logistic"),
        pytest.param(lambda t, y: -2.0 / y, 2.0, (0.0, 2.0), id="vanishing"),
    ])
    def test_integrate_equals_the_two_lane_batch(self, field, x0, span):
        solo = integrate(field, x0, span)
        assert_same_run(solo, integrate(field, np.array([x0, x0]), span))
        assert solo.nsteps > 10
        stops = [span[0] + 0.3 * (span[1] - span[0]), span[0] + 0.7 * (span[1] - span[0])]
        assert_same_run(
            integrate(field, x0, span, t_stops=stops),
            integrate(field, np.array([x0, x0]), span, t_stops=stops),
        )

    def test_integrate_until_equals_the_two_lane_batch(self):
        field = lambda t, y: 2.0 / y  # noqa: E731
        guard = lambda t, y: np.max(y) - 3.0  # noqa: E731
        solo = integrate_until(field, 1.0, (0.0, 5.0), guard)
        pair = integrate_until(field, np.array([1.0, 1.0]), (0.0, 5.0), guard)
        assert solo.event == pair.event and solo.event.kind == "threshold"
        assert_same_run(solo, pair)

    def test_rejected_steps_equal_the_two_lane_batch(self):
        # relaxation towards a square wave: each jump of the wave makes the
        # controller reject steps until h has shrunk past it
        field = lambda t, y: (int(5.0 * t) % 2) - y  # noqa: E731
        solo = integrate(field, 2.0, (0.0, 3.0))
        assert solo.nrejected > 10
        assert_same_run(solo, integrate(field, np.array([2.0, 2.0]), (0.0, 3.0)))

    def test_a_non_finite_stage_halves_the_step(self):
        # the field fails past t = 0.3: from h = 0.5 the 4th stage
        # (t + 0.8 h = 0.4) fails, so the attempt stops after 3 evaluations
        # and the retry at h = 0.25 meets the loose tolerance.  On a
        # division by zero a Python float raises ZeroDivisionError, and a
        # negative one to a fractional power is complex, where numpy's
        # result is inf or NaN: the float lane must still count as the
        # array lane does
        jumps = (lambda y: np.inf, lambda y: 1.0 / (y - y), lambda y: (-y) ** 0.5)
        loose = IntegratorConfig(rel_tol=1e-3, abs_tol=1e-3)
        for jump in jumps:
            field = lambda t, y: y + (jump(y) if t > 0.3 else 0.0)  # noqa: E731
            with np.errstate(divide="ignore", invalid="ignore"):
                for y0 in (1.0, np.array([1.0, 1.0])):
                    st = _Stepper(field, 0.0, y0, 1.0, loose)
                    st.h = 0.5
                    assert st.step() == "ok"
                    assert (st.t, st.nrejected, st.nsteps, st.nfev) == (0.25, 1, 1, 1 + 3 + 6)
                # run to the end, both lanes stall against the barrier alike
                solo = integrate(field, 1.0, (0.0, 1.0))
                assert solo.event.kind == "blow_up" and solo.nrejected > 10
                assert_same_run(solo, integrate(field, np.array([1.0, 1.0]), (0.0, 1.0)))

    def test_scalar_state_takes_the_float_lane(self):
        st = _Stepper(lambda t, y: -y, 0.0, 1.0, 1.0, DEFAULT_CONFIG)
        assert st.float_lane and type(st.y) is float
        st.step()
        assert type(st.state()[1]) is float
        # a complex scalar, or a real scalar with a complex field, runs as an array
        assert not _Stepper(lambda t, y: -y, 0.0, 1.0 + 1j, 1.0, DEFAULT_CONFIG).float_lane
        st = _Stepper(lambda t, y: 1j * y, 0.0, 1.0, 1.0, DEFAULT_CONFIG)
        assert not st.float_lane
        st.step()
        assert st.state()[1].imag > 0

    @pytest.mark.parametrize("y0", [1.0, np.array([1.0, 1.0])], ids=["float", "array"])
    def test_overflow_raises_under_errstate(self, y0):
        # the first stage input is about 2e291, whose square overflows; a
        # Python float would carry the inf on silently
        field = lambda t, y: y * y * 1e300  # noqa: E731
        with np.errstate(over="raise"), pytest.raises(FloatingPointError):
            integrate(field, y0, (0.0, 1.0))
        # past t = 0.1 the field is near the top of the double range: the
        # tableau sums of the stage inputs and of the solution overflow
        # while every stage stays finite
        field = lambda t, y: 1.7e308 if t > 0.1 else 1.0  # noqa: E731
        with np.errstate(over="raise"), pytest.raises(FloatingPointError):
            integrate(field, y0, (0.0, 1.0))

    @pytest.mark.parametrize("y0", [1.0, np.array([1.0, 1.0])], ids=["float", "array"])
    def test_overflow_at_a_later_stage_follows_errstate(self, y0):
        # the initial step passes; past t = 0.1 the field jumps by 1e200 and
        # a stage of a later step overflows, where a Python float gives inf
        field = lambda t, y: y * y * (1e200 if t > 0.1 else 1.0) * 1e-3  # noqa: E731
        with np.errstate(over="raise"), pytest.raises(FloatingPointError):
            integrate(field, y0, (0.0, 1.0))
        with np.errstate(all="ignore"):
            p = integrate(field, y0, (0.0, 1.0))
        assert p.event.kind == "blow_up"
        assert (p.nsteps, p.nrejected, p.nfev) == (20, 113, 446)


class TestConfigValidation:
    def test_bad_tolerances(self):
        with pytest.raises(ConfigError):
            IntegratorConfig(rel_tol=0.0)

    def test_bad_steps(self):
        with pytest.raises(ConfigError):
            IntegratorConfig(min_step=1.0, max_step=0.5)
