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


class TestConfigValidation:
    def test_bad_tolerances(self):
        with pytest.raises(ConfigError):
            IntegratorConfig(rel_tol=0.0)

    def test_bad_steps(self):
        with pytest.raises(ConfigError):
            IntegratorConfig(min_step=1.0, max_step=0.5)
