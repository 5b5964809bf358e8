import gc

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
    spec_from_config,
    spec_to_config,
)
from loewner.driving import _TIME_GRIDS
from loewner.weierstrass import WeierstrassParams, norm_bound_check


def shift(spec, r, normalize=None):
    """The driving t -> lambda(t + r) on [0, T - r], as a composite spec."""
    return DrivingSpec("composite", {"base": spec, "t_offset": r, "scale": 1.0}, spec.T - r,
                       normalize=spec.normalize if normalize is None else normalize)


def sqrt_spec(c, T=1.0):
    return DrivingSpec("sqrt_approach", {"c": c}, T)


def all_pairs_norm(spec, grid):
    """The Hölder quotient maximised over every pair of grid points, one row
    of pairs (a point against every later one) at a time: O(n) memory."""
    t = np.unique(np.asarray(grid, dtype=float))
    v = np.asarray(spec(t))
    return max(float(np.max(np.abs(v[i + 1:] - v[i]) / np.sqrt(t[i + 1:] - t[i])))
               for i in range(t.size - 1))


UNIFORM = np.linspace(0.0, 1.0, 1001)
RANDOM = np.sort(np.random.default_rng(7).uniform(0.0, 1.0, 4001))
W93 = DrivingSpec("weierstrass_partial", {"c": 0.5, "b": 9.0, "N": 3}, 1.0)
# a unit rise over 500 points packed into [0.5, 0.5 + 1e-6], between two
# sparse points: the largest quotient is the cluster's widest pair, at lag
# 499, while every lag below it also has a step of about 0.5, so a stop
# taken from the widest step of a lag would end the scan at lag 2
RAMP_TIMES = np.concatenate([[0.0], 0.5 + np.linspace(0.0, 1e-6, 500), [1.0]])
RAMP_VALUES = np.concatenate([[0.0], np.linspace(0.0, 1.0, 500), [1.0]])

# criterion 11's (b, N) at c = 1, the (b, N, c) of the six pipeline cases,
# and the four (b, N) of the benchmark's weld batch at the ends of its
# amplitude grid
NORM_CHECK_SPECS = [(b, N, 1.0) for b in (9.0, 16.0, 25.0, 100.0) for N in (1, 2, 4, 8)] + [
    (9.0, 2, 0.35), (9.0, 3, 0.284), (16.0, 2, 0.3), (16.0, 3, 0.45), (16.0, 4, 0.1),
    (100.0, 4, 0.05),
] + [(b, N, c) for b in (9.0, 16.0) for N in (2, 3) for c in (0.209375, 0.490625)]


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

    @pytest.mark.parametrize("c,b,N", [(1.0, 4.0, 8), (0.3, 9.0, 4), (0.05, 100.0, 4)])
    def test_normalize_pins_origin_in_both_lanes(self, c, b, N):
        # b = 9 and b = 100 weights are not powers of two, so a summation
        # order that differs between the two lanes would show here
        s = DrivingSpec("weierstrass_partial", {"c": c, "b": b, "N": N}, 1.0,
                        normalize=True)
        for spec in (s, s.reflected(), shift(s, 0.25, normalize=True)):
            assert spec(0.0) == 0.0
            assert spec(np.zeros(1))[0] == 0.0

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


WEIER = DrivingSpec("weierstrass_partial", {"c": 0.3, "b": 9.0, "N": 4}, 1.0)
EVERY_FAMILY = {
    "constant": DrivingSpec("constant", {"value": 0.7}, 1.0),
    "linear": DrivingSpec("linear", {"slope": 2.0, "intercept": 0.1}, 1.0),
    "sqrt_approach": sqrt_spec(3.0),
    "weierstrass": WEIER,
    "weierstrass_N60_normalized": DrivingSpec(
        "weierstrass_partial", {"c": 1.0, "b": 4.0, "N": 60}, 1.0, normalize=True),
    "brownian": DrivingSpec("brownian", {"kappa": 2.0}, 1.0, seed=5),
    "sampled": DrivingSpec("sampled", {"times": [0.0, 0.4, 1.0], "values": [0.0, 1.0, -2.0]}, 1.0),
    "sharp_example": DrivingSpec("sharp_example", {"a": 1.5}, 1.0),
    "composite_reflected": WEIER.reflected(),
    "composite_shifted": shift(WEIER, 0.25),
}


class TestFloatLane:
    """A float time takes a scalar lane that must agree with the array path."""

    @pytest.mark.parametrize("name", sorted(EVERY_FAMILY))
    def test_float_time_matches_the_array_path(self, name):
        spec = EVERY_FAMILY[name]
        ts = np.linspace(0.0, spec.T, 997)
        for t in ts.tolist() + [-1e-13 * spec.T, spec.T * (1 + 1e-13)]:
            v = spec(t)
            assert type(v) is float
            assert v == spec(np.array([t]))[0]

    def test_numpy_float_takes_the_float_lane(self, monkeypatch):
        # only the array path runs a composite's own _raw
        raw = DrivingSpec._raw

        def array_path(self, t):
            if self.family == "composite":
                raise AssertionError("array path taken")
            return raw(self, t)

        monkeypatch.setattr(DrivingSpec, "_raw", array_path)
        spec = EVERY_FAMILY["composite_shifted"]
        assert spec(np.float64(0.3)) == spec(0.3)

    @pytest.mark.parametrize("name", ["weierstrass", "composite_shifted", "sqrt_approach"])
    @pytest.mark.parametrize("t", [np.nan, -1e-3, 1.01, np.inf, -np.inf])
    def test_float_time_outside_the_domain_rejected(self, name, t):
        with pytest.raises(DomainError):
            EVERY_FAMILY[name](t)


class TestDrop:
    """lambda(T) - lambda(T - tau) from tau, without forming T - tau."""

    # the partial sum of order 60 is left out: its frequencies 4^n pass
    # 1/eps near n = 26, so no double form resolves those terms, and the two
    # forms round them differently (by about 1e-8)
    @pytest.mark.parametrize("name", sorted(set(EVERY_FAMILY) - {"weierstrass_N60_normalized"}))
    @pytest.mark.parametrize("frac", [1.0, 0.6])
    def test_drop_is_the_difference_where_that_is_resolved(self, name, frac):
        spec = EVERY_FAMILY[name]
        T = frac * spec.T
        tau = T * np.linspace(1e-3, 1.0, 97)
        scale = max(1.0, np.max(np.abs(spec(np.linspace(0.0, spec.T, 101)))))
        assert np.max(np.abs(spec._drop(T, tau) - (spec(T) - spec(T - tau)))) <= 1e-13 * scale

    @pytest.mark.parametrize("spec, slope", [
        (EVERY_FAMILY["linear"], 2.0),
        (EVERY_FAMILY["sampled"], -5.0),
        (DrivingSpec("composite", {"base": EVERY_FAMILY["sampled"], "scale": -2.0}, 1.0), 10.0),
    ], ids=["linear", "sampled", "composite"])
    def test_drop_inside_a_linear_piece_is_slope_times_tau(self, spec, slope):
        tau = np.geomspace(1e-3, 1e-300, 50)
        assert np.array_equal(spec._drop(1.0, tau), slope * tau)


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

    @staticmethod
    def reference_path(T, kappa, seed, grid_step=None):
        """The path as first written: a fresh grid, then the increments, their
        partial sums and a leading zero, each in its own array."""
        step = float(grid_step if grid_step is not None else 2.0**-16 * T)
        n = int(np.ceil(T / step)) + 1
        incr = np.random.default_rng(seed).standard_normal(n - 1) * np.sqrt(kappa * step)
        return np.linspace(0.0, step * (n - 1), n), np.concatenate([[0.0], np.cumsum(incr)])

    @pytest.mark.parametrize("T", [1.0, 0.7, 3.3])
    @pytest.mark.parametrize("grid_step", [None, 1e-3])
    @pytest.mark.parametrize("kappa, seed", [(2.0, 101), (0.0, 5), (8.0, 7)])
    def test_path_equals_the_reference_bit_for_bit(self, T, grid_step, kappa, seed):
        params = {"kappa": kappa} if grid_step is None else {"kappa": kappa, "grid_step": grid_step}
        spec = DrivingSpec("brownian", params, T, seed=seed)
        grid_t, grid_v = self.reference_path(T, kappa, seed, grid_step)
        assert spec._grid_t.tobytes() == grid_t.tobytes()
        assert spec._grid_v.tobytes() == grid_v.tobytes()

    def test_equal_grids_are_one_read_only_array(self):
        a = DrivingSpec("brownian", {"kappa": 2.0}, 1.0, seed=1)
        b = DrivingSpec("brownian", {"kappa": 3.0}, 1.0, seed=2)
        c = DrivingSpec("brownian", {"kappa": 2.0, "grid_step": 1e-3}, 1.0, seed=1)
        assert a._grid_t is b._grid_t
        assert c._grid_t is not a._grid_t
        assert not a._grid_t.flags.writeable
        with pytest.raises(ValueError):
            a._grid_t[0] = 1.0

    def test_the_table_drops_a_grid_that_no_spec_holds(self):
        key = (1e-3, 371)  # T = 0.37 at grid_step 1e-3
        spec = DrivingSpec("brownian", {"grid_step": 1e-3}, 0.37, seed=3)
        twin = DrivingSpec("brownian", {"grid_step": 1e-3}, 0.37, seed=4)
        assert _TIME_GRIDS[key] is spec._grid_t
        del spec
        gc.collect()
        assert _TIME_GRIDS[key] is twin._grid_t
        del twin
        gc.collect()
        assert key not in _TIME_GRIDS


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

    @pytest.mark.parametrize("b, N, c", NORM_CHECK_SPECS)
    def test_scan_equals_all_pairs_on_the_norm_check_specs(self, b, N, c):
        # norm_bound_check's own 4001-point grid and driving
        grid = np.linspace(0.0, 2.0 * np.pi / b + 1.0, 4001)
        s = DrivingSpec("weierstrass_partial", {"c": c, "b": b, "N": N},
                        float(np.max(grid)) + 1e-9, normalize=False)
        est = norm_bound_check(WeierstrassParams(b=b, N=N, c=c)).estimate
        assert est == holder_half_norm(s, grid) == all_pairs_norm(s, grid)

    @pytest.mark.parametrize("spec, grid", [
        # lambda = t: a lag's quotient is the root of its step, so every lag
        # raises the maximum and the scan visits all 4000 of them
        (DrivingSpec("linear", {"slope": 1.0}, 1.0), np.linspace(0.0, 1.0, 4001)),
        # random grids: the smallest step is far below the typical one, so the
        # cheap root bound decides little and the lags' own steps decide
        (DrivingSpec("brownian", {"kappa": 2.0}, 1.0, seed=100), RANDOM),
        (DrivingSpec("brownian", {"kappa": 6.0}, 1.0, seed=101), RANDOM),
        # the cheap bound needs normal floats: subnormal steps, and a step
        # below 4 times the smallest normal float once 1e-330 has rounded to
        # 0, fall back to the lags' own steps without a division by zero or
        # a warning
        (W93, [0.0, 5e-324, 1e-310, *np.linspace(1e-3, 1.0, 400)]),
        (W93, [0.0, 1e-330, 3 * 2.0 ** -1022, *np.linspace(1e-3, 1.0, 400)]),
        # lag 1 gives 1, lag 2 less and lag 3 one ulp more; the steps are
        # exact, so a cheap bound not shrunk below the lag's own root would
        # stop the scan, or skip lag 3, one ulp short
        (DrivingSpec("sampled", {"times": [0.0, 1.0, 2.0, 3.0], "values": [
            0.0, 1.0, 1.0, float(np.nextafter(np.sqrt(3.0), 2.0))]}, 3.0), [0.0, 1.0, 2.0, 3.0]),
    ], ids=["every-lag-raises", "brownian2-random", "brownian6-random", "subnormal-step",
            "rounded-to-zero-step", "one-ulp-above"])
    def test_scan_equals_all_pairs_on_edge_grids(self, spec, grid):
        assert holder_half_norm(spec, grid) == all_pairs_norm(spec, grid)

    @pytest.mark.parametrize("spec, grid", [
        (DrivingSpec("brownian", {"kappa": 2.0}, 1.0, seed=100), UNIFORM),
        (DrivingSpec("brownian", {"kappa": 6.0}, 1.0, seed=101), UNIFORM),
        (DrivingSpec("sampled", {"times": UNIFORM.tolist(),
                                 "values": np.sqrt(UNIFORM).tolist()}, 1.0), UNIFORM),
        (DrivingSpec("sampled", {"times": RAMP_TIMES.tolist(),
                                 "values": RAMP_VALUES.tolist()}, 1.0), RAMP_TIMES),
    ], ids=["brownian2", "brownian6", "sqrt", "ramp"])
    def test_scan_equals_all_pairs_on_sampled_drivings(self, spec, grid):
        assert holder_half_norm(spec, grid) == all_pairs_norm(spec, grid)

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.floats(0.0, 1.0), min_size=2, max_size=60), st.integers(0, 30))
    def test_scan_equals_all_pairs_on_unsorted_duplicated_grids(self, points, repeat):
        s = DrivingSpec("weierstrass_partial", {"c": 0.5, "b": 9.0, "N": 3}, 1.0)
        grid = points + points[:repeat][::-1]
        if len(set(grid)) < 2:
            return
        assert holder_half_norm(s, grid) == all_pairs_norm(s, grid)

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
        # the quotients come from exact increments, with no eps*T/d floor
        assert abs(rep.a_hat - 2.5) < 1e-14 and abs(rep.b_hat - 2.5) < 1e-14

    def test_smooth_function_scales_to_zero(self):
        s = DrivingSpec("linear", {"slope": 1.0}, 1.0)
        rep = local_scaling_exponents(s, 0.5, 4.0 ** -np.arange(1, 12) * 0.5)
        assert rep.a_hat == pytest.approx(np.sqrt(rep.scales_used[-1]), rel=1e-6)
        assert rep.a_hat < 1e-3

    def test_empty_scales_rejected(self):
        with pytest.raises(DomainError):
            local_scaling_exponents(sqrt_spec(1.0), 0.5, [])

    @pytest.mark.parametrize("t", [np.nan, 0.0, -0.5, 1.5, np.inf])
    def test_time_outside_the_domain_rejected(self, t):
        with pytest.raises(DomainError):
            local_scaling_exponents(sqrt_spec(1.0), t, [1e-3, 1e-4])

    def test_sharp_example_quotients_match_frame_values(self):
        # the construction satisfies lambda(T) - lambda(t) = sqrt(T-t) xi(s),
        # so driving-side quotients at the distinguished times equal the
        # frame driving.  The quotients come from exact increments, so
        # they hold at every partition index, out to T - t = e^{-2s} of
        # about 1e-285, far below the resolution of T
        spec = DrivingSpec("sharp_example", {"a": 1.5, "k_max": 14}, 1.0)
        osc = spec._sharp
        s_pts = np.concatenate([osc.midpoint_times(), osc.right_knot_times()])
        s_pts = np.sort(s_pts)  # scales e^{-2s} are then strictly decreasing
        scales = np.exp(-2.0 * s_pts)
        rep = local_scaling_exponents(spec, 1.0, scales)
        expected = np.asarray(osc.xi(s_pts))
        assert np.max(np.abs(rep.signed_quotients - expected) / expected) < 1e-14
        band = osc.band_report()
        assert rep.a_hat == pytest.approx(band["running_min"], rel=1e-14)
        assert rep.b_hat == pytest.approx(max(band["right_knot_values"]), rel=1e-14)


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


def negated(spec):
    """-lambda as the composite that reflected() builds for every other family."""
    return DrivingSpec("composite", {"base": spec, "scale": -1.0}, spec.T, normalize=spec.normalize)


class TestReflection:
    @pytest.mark.parametrize("spec", [
        DrivingSpec("constant", {"value": 0.7}, 1.0),
        DrivingSpec("constant", {"value": 0.0}, 2.0, normalize=True),
        sqrt_spec(5.0),
        sqrt_spec(-4.3, 0.37),
        DrivingSpec("sqrt_approach", {"c": 3}, 3.0, normalize=True),
        DrivingSpec("linear", {"slope": 2.0, "intercept": 0.1}, 1.0),
        DrivingSpec("linear", {"slope": -3.3}, 2.5, normalize=True),
    ], ids=lambda s: f"{s.family}-{s.params}-{s.normalize}")
    def test_linear_families_negate_their_parameters(self, spec):
        r = spec.reflected()
        assert r.family == spec.family and r.normalize == spec.normalize
        assert r.params == {k: -v for k, v in spec.params.items()}
        t = np.concatenate([np.linspace(0.0, spec.T, 513), spec.T * (1 - np.geomspace(1e-3, 1e-16, 14))])
        want = negated(spec)(t)
        assert np.array_equal(r(t), want)
        assert [r(x) for x in t.tolist()] == [negated(spec)(x) for x in t.tolist()]
        if spec.family != "linear":
            # a cancelling sum rounds to +0.0 whatever its signs, so only
            # linear may turn a zero's sign
            assert np.array_equal(np.signbit(r(t)), np.signbit(want))

    def test_other_families_stay_composite(self):
        r = WEIER.reflected()
        assert r.family == "composite" and r.params["base"] is WEIER
        t = np.linspace(0.0, 1.0, 257)
        assert np.array_equal(r(t), -WEIER(t))


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
