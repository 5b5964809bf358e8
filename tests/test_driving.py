import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loewner import (
    ConfigError,
    DomainError,
    DrivingSpec,
    holder_half_norm,
    local_scaling_exponents,
    shift,
    spec_from_config,
    spec_to_config,
)


def sqrt_spec(c, T=1.0):
    return DrivingSpec("sqrt_approach", {"c": c}, T)


class TestEval:
    def test_sqrt_approach_endpoints(self):
        s = sqrt_spec(4.0)
        assert s(0.0) == 0.0
        assert s(1.0) == pytest.approx(4.0, abs=1e-14)
        assert s(0.75) == pytest.approx(2.0, abs=1e-14)

    def test_weierstrass_geometric_series(self):
        # at t = 0 the sum is geometric: sum 2^-n -> 1/(sqrt(4)-1) = 1
        s = DrivingSpec("weierstrass_partial", {"c": 1.0, "b": 4.0, "N": 60}, 1.0)
        assert s(0.0) == pytest.approx(1.0, abs=1e-15)

    def test_sampled_linear_interpolation(self):
        s = DrivingSpec("sampled", {"times": [0.0, 1.0], "values": [0.0, 2.0]}, 1.0)
        assert s(0.5) == pytest.approx(1.0, abs=1e-15)

    def test_domain_error(self):
        with pytest.raises(DomainError):
            sqrt_spec(1.0)(1.5)

    @pytest.mark.parametrize("spec", [
        DrivingSpec("constant", {"value": 0.0}, 1.0),
        DrivingSpec("weierstrass_partial", {"c": 0.3, "b": 9.0, "N": 3}, 1.0),
    ], ids=["constant", "weierstrass"])
    @pytest.mark.parametrize("t", [np.nan, np.array([0.5, np.nan])], ids=["scalar", "array"])
    def test_nan_time_rejected(self, spec, t):
        with pytest.raises(DomainError):
            spec(t)

    def test_normalize_pins_origin(self):
        s = DrivingSpec("weierstrass_partial", {"c": 1.0, "b": 4.0, "N": 8}, 1.0,
                        normalize=True)
        assert s(0.0) == 0.0

    @pytest.mark.parametrize("family,params,seed", [
        ("constant", {"value": 0.7}, None),
        ("linear", {"slope": 2.0, "intercept": 0.1}, None),
        ("sqrt_approach", {"c": 3.0}, None),
        ("weierstrass_partial", {"c": 0.3, "b": 9.0, "N": 4}, None),
        ("brownian", {"kappa": 2.0}, 5),
        ("sharp_example", {"a": 1.5}, None),
    ])
    def test_continuity_under_refinement(self, family, params, seed):
        s = DrivingSpec(family, params, 1.0, seed=seed)
        t = np.linspace(0.0, 1.0, 2000)
        gaps = np.abs(np.diff(np.asarray(s(t))))
        t2 = np.linspace(0.0, 1.0, 16000)
        gaps2 = np.abs(np.diff(np.asarray(s(t2))))
        assert np.max(gaps2) < np.max(gaps) + 1e-12
        assert np.max(gaps2) < 0.6  # no jumps at this resolution


class TestBrownian:
    def test_deterministic_per_seed(self):
        t = np.linspace(0.0, 1.0, 257)
        a = DrivingSpec("brownian", {"kappa": 6.0}, 1.0, seed=7)
        b = DrivingSpec("brownian", {"kappa": 6.0}, 1.0, seed=7)
        c = DrivingSpec("brownian", {"kappa": 6.0}, 1.0, seed=8)
        assert np.array_equal(a(t), b(t))
        assert not np.array_equal(a(t), c(t))

    def test_seed_required(self):
        with pytest.raises(ConfigError):
            DrivingSpec("brownian", {"kappa": 1.0}, 1.0)


class TestHolderNorm:
    def test_sqrt_profile_attains_constant(self):
        # lambda = 3 sqrt(t): the quotient is exactly 3 against t = 0
        t = np.linspace(0.0, 1.0, 400)
        s = DrivingSpec("sampled", {"times": t.tolist(),
                                    "values": (3.0 * np.sqrt(t)).tolist()}, 1.0)
        assert holder_half_norm(s, t) == pytest.approx(3.0, abs=1e-12)

    def test_zero(self):
        s = DrivingSpec("constant", {"value": 0.0}, 1.0)
        assert holder_half_norm(s, np.linspace(0, 1, 100)) == 0.0

    def test_weierstrass_below_proven_bound(self):
        s = DrivingSpec("weierstrass_partial", {"c": 1.0, "b": 16.0, "N": 8}, 2.0)
        grid = np.linspace(0.0, 1.5, 3000)
        est = holder_half_norm(s, grid)
        assert est <= 16.0 / 3.0 + 2.0 / 0.75  # = 8.0

    def test_degenerate_grid(self):
        s = sqrt_spec(1.0)
        with pytest.raises(DomainError):
            holder_half_norm(s, [0.5])

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.floats(0.0, 1.0), min_size=2, max_size=40, unique=True),
           st.lists(st.floats(0.0, 1.0), min_size=1, max_size=20, unique=True))
    def test_monotone_under_refinement(self, grid, extra):
        s = DrivingSpec("weierstrass_partial", {"c": 0.5, "b": 9.0, "N": 3}, 1.0)
        g1 = np.asarray(sorted(grid))
        g2 = np.unique(np.concatenate([g1, np.asarray(extra)]))
        if g1.size < 2:
            return
        assert holder_half_norm(s, g1) <= holder_half_norm(s, g2) + 1e-12


class TestScalingExponents:
    def test_sqrt_approach_exact_at_T(self):
        rep = local_scaling_exponents(sqrt_spec(3.0), 1.0)
        assert rep.a_hat == pytest.approx(3.0, abs=1e-8)
        assert rep.b_hat == pytest.approx(3.0, abs=1e-8)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(3, 18), st.floats(1.5, 4.0))
    def test_sqrt_approach_any_ladder(self, K, base):
        scales = 0.2 * base ** -np.arange(1, K)
        rep = local_scaling_exponents(sqrt_spec(2.5), 1.0, scales)
        # resolution floor: forming T - t at offset d loses eps*T/d digits
        tol = 1e-8 + 4.0 * 2.5 * np.finfo(float).eps / scales[-1]
        assert abs(rep.a_hat - 2.5) < tol and abs(rep.b_hat - 2.5) < tol

    def test_smooth_function_scales_to_zero(self):
        s = DrivingSpec("linear", {"slope": 1.0}, 1.0)
        rep = local_scaling_exponents(s, 0.5, 4.0 ** -np.arange(1, 12) * 0.5)
        assert rep.a_hat == pytest.approx(np.sqrt(rep.scales_used[-1]), rel=1e-6)
        assert rep.a_hat < 1e-3

    def test_empty_scales_rejected(self):
        with pytest.raises(DomainError):
            local_scaling_exponents(sqrt_spec(1.0), 0.5, [])

    def test_sharp_example_quotients_match_frame_values(self):
        # the construction satisfies lambda(T) - lambda(t) = sqrt(T-t) xi(s),
        # so driving-side quotients at the distinguished times equal the
        # frame driving exactly.  Only the first partition indices are
        # representable in t-space: T - t = e^{-2s} underflows below the
        # resolution of T past s ~ 17, so the asymptotic band (a, a + 4/a)
        # is a frame-side statement only (see the sharp-oscillation tests).
        spec = DrivingSpec("sharp_example", {"a": 1.5, "k_max": 14}, 1.0)
        osc = spec._sharp
        s_pts = np.concatenate([osc.midpoint_times()[:2], osc.right_knot_times()[:2]])
        s_pts = np.sort(s_pts)  # scales e^{-2s} are then strictly decreasing
        scales = np.exp(-2.0 * s_pts)
        rep = local_scaling_exponents(spec, 1.0, scales)
        expected = np.asarray(osc.xi(s_pts))
        assert np.max(np.abs(rep.signed_quotients - expected)) < 1e-6
        assert rep.a_hat < 4.0 < rep.b_hat  # oscillation visible already


class TestShift:
    def test_linear_shift_value(self):
        s = DrivingSpec("linear", {"slope": 1.0}, 1.0)
        assert shift(s, 0.25)(0.0) == pytest.approx(0.25, abs=1e-15)

    def test_zero_shift_identity(self):
        s = sqrt_spec(2.0)
        sh = shift(s, 0.0)
        t = np.linspace(0, 1, 50)
        assert np.allclose(sh(t), s(t), atol=1e-14)

    def test_domain_end(self):
        assert shift(sqrt_spec(4.0), 0.5).T == pytest.approx(0.5)

    def test_offset_out_of_range(self):
        with pytest.raises(DomainError):
            shift(sqrt_spec(4.0), 1.0)


class TestSerialization:
    def test_roundtrip(self):
        s = DrivingSpec("brownian", {"kappa": 6.0, "grid_step": 1e-3}, 1.0,
                        normalize=True, seed=3)
        cfg = spec_to_config(s)
        assert set(cfg) == {"family", "params", "T", "normalize", "seed"}
        s2 = spec_from_config(cfg)
        t = np.linspace(0, 1, 100)
        assert np.array_equal(s(t), s2(t))

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            spec_from_config({"family": "constant", "params": {"value": 0},
                              "T": 1.0, "bogus": 1})

    def test_unknown_param_rejected(self):
        with pytest.raises(ConfigError):
            DrivingSpec("constant", {"value": 0.0, "slope": 1.0}, 1.0)

    def test_unknown_family_rejected(self):
        with pytest.raises(ConfigError):
            DrivingSpec("mystery", {}, 1.0)
