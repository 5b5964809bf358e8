import numpy as np
import pytest

from loewner import DomainError, NumericalError, PreconditionError, ode, weierstrass
from loewner.weierstrass import (
    WeierstrassParams,
    comparison_constant,
    norm_bound_check,
    norm_constant,
    offset_constant,
    offset_ratio_check,
    quasislit_pipeline,
)

# the amplitudes of the benchmark's weld batch: midpoints of 16 equal parts of
# (0.2, 0.5), for b in {9, 16}
WELD_C_GRID = [round(0.2 + 0.3 * (k + 0.5) / 16, 6) for k in range(16)]


class TestPartialSum:
    def test_geometric_value_and_tail(self):
        p = WeierstrassParams(b=4.0, N=8, c=1.0)
        v = p.spec(1.0, normalize=False)(0.0)
        assert v == pytest.approx(sum(2.0**-n for n in range(1, 9)), abs=1e-15)
        assert v == pytest.approx(0.99609375)
        assert p.tail_bound == pytest.approx(0.00390625)

    def test_single_mode(self):
        p = WeierstrassParams(b=4.0, N=1, c=2.0)
        assert p.spec(1.0, normalize=False)(np.pi / 4.0) == pytest.approx(-1.0, abs=1e-14)

    def test_tail_certifies_truncation(self):
        t = np.linspace(0.0, 2.0, 400)
        for b in (9.0, 25.0):
            pN = WeierstrassParams(b=b, N=4, c=1.0)
            pM = WeierstrassParams(b=b, N=9, c=1.0)
            vN = pN.spec(2.0, normalize=False)(t)
            vM = pM.spec(2.0, normalize=False)(t)
            assert np.max(np.abs(vN - vM)) <= pN.tail_bound

    def test_parameter_validation(self):
        with pytest.raises(DomainError):
            WeierstrassParams(b=1.0, N=2)
        with pytest.raises(DomainError):
            WeierstrassParams(b=4.0, N=0)
        with pytest.raises(DomainError):
            WeierstrassParams(b=4.0, N=2.5)
        # c = 0 made the norm ratio 0/0 and failed the strict offset bound
        for c in (0.0, -1.0):
            with pytest.raises(DomainError):
                WeierstrassParams(b=4.0, N=2, c=c)


class TestNormBound:
    def test_constant_arithmetic(self):
        assert norm_constant(16.0) == pytest.approx(8.0)
        assert norm_constant(9.0) == pytest.approx(7.5)

    def test_estimate_below_bound_sweep(self):
        for b in (9.0, 16.0, 25.0, 100.0):
            for N in (1, 2, 4, 8):
                rep = norm_bound_check(WeierstrassParams(b=b, N=N, c=1.0))
                assert rep.ok and rep.estimate <= rep.bound

    def test_linear_amplitude_scaling(self):
        r1 = norm_bound_check(WeierstrassParams(b=16.0, N=4, c=1.0))
        r2 = norm_bound_check(WeierstrassParams(b=16.0, N=4, c=3.0))
        assert r2.estimate == pytest.approx(3.0 * r1.estimate, rel=1e-12)


class TestOffsetRatios:
    def test_constant_value(self):
        assert offset_constant(16.0) == pytest.approx(1.1015, abs=1e-4)

    def test_deep_order_below_bound(self):
        rep = offset_ratio_check(WeierstrassParams(b=16.0, N=8, c=1.0), 1.0, range(2, 9))
        assert rep.ok and rep.max_ratio < rep.bound

    def test_shallow_order_below_coarse_bound(self):
        # with N below the probed offsets the increments are even smaller
        rep = offset_ratio_check(WeierstrassParams(b=16.0, N=1, c=1.0), 1.0, range(2, 9))
        assert rep.max_ratio < np.sqrt(2.0 * np.pi) / 3.0

    def test_periodic_shift_invariance(self):
        # shifting T by the slowest mode's period shifts every mode by a
        # whole number of periods: identical ratios
        p = WeierstrassParams(b=16.0, N=6, c=1.0)
        r1 = offset_ratio_check(p, 1.0, range(2, 8))
        r2 = offset_ratio_check(p, 1.0 + 2.0 * np.pi / 16.0, range(2, 8))
        assert np.allclose(r1.ratios, r2.ratios, atol=1e-9)

    def test_offsets_must_fit(self):
        with pytest.raises(PreconditionError):
            offset_ratio_check(WeierstrassParams(b=9.0, N=2, c=1.0), 0.1, range(2, 4))


class TestPipeline:
    def test_margins_decrease_in_amplitude(self):
        v1 = quasislit_pipeline(WeierstrassParams(b=100.0, N=4, c=0.02), dt=5e-3)
        v2 = quasislit_pipeline(WeierstrassParams(b=100.0, N=4, c=0.05), dt=5e-3)
        assert v2.margin_small < v1.margin_small
        assert v2.margin_oscillation < v1.margin_oscillation

    def test_precondition_flips_at_unique_amplitude(self):
        # the margin pair is monotone in c, so the feasible set is an
        # interval: locate the flip by bisection and confirm both sides
        from loewner.weierstrass import norm_constant, offset_constant

        b = 100.0
        a_of = lambda c: c * offset_constant(b)
        bb_of = lambda c: c * norm_constant(b)
        feasible = lambda c: a_of(c) < 2.0 and bb_of(c) < a_of(c) + 4.0 / a_of(c)
        lo, hi = 1e-3, 10.0
        assert feasible(lo) and not feasible(hi)
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if feasible(mid):
                lo = mid
            else:
                hi = mid
        c_star = 0.5 * (lo + hi)
        assert feasible(c_star * 0.99) and not feasible(c_star * 1.01)
        with pytest.raises(PreconditionError):
            quasislit_pipeline(WeierstrassParams(b=b, N=4, c=c_star * 1.01))

    def test_small_amplitude_verdict(self):
        v = quasislit_pipeline(WeierstrassParams(b=100.0, N=4, c=0.05), dt=2e-3)
        assert v.simple
        assert v.welding_table is not None and v.welding_table.s_grid.size == 12
        r1 = v.welding_table.ratio1_range
        assert 0.5 < r1[0] <= r1[1] < 2.0

    @pytest.mark.parametrize("constant, message", [
        ("norm_constant", r"norm estimate exceeds the proven bound: \S+ > \S+ \(b=16.0, N=2\)$"),
        ("offset_constant", r"offset ratio bound violated: max \S+ >= \S+ \(b=16.0, N=2\)$"),
    ], ids=["norm", "offset"])
    def test_violated_bound_raises(self, constant, message, monkeypatch):
        # the checks report a violation; the pipeline raises on it
        true = getattr(weierstrass, constant)
        monkeypatch.setattr(weierstrass, constant, lambda b: 0.1 * true(b))
        p = WeierstrassParams(b=16.0, N=2, c=0.3)
        rep = norm_bound_check(p) if constant == "norm_constant" else offset_ratio_check(p, 1.0, range(2, 9))
        assert not rep.ok
        with pytest.raises(NumericalError, match=message):
            quasislit_pipeline(p, dt=5e-3)

    def test_large_amplitude_rejected(self):
        with pytest.raises(PreconditionError):
            quasislit_pipeline(WeierstrassParams(b=100.0, N=4, c=2.0))

    def test_welding_ratio_within_barrier_bound(self):
        v = quasislit_pipeline(
            WeierstrassParams(b=16.0, N=4, c=0.1), dt=2e-3, compute_ratio_bound=True,
        )
        assert v.ratio_bound is not None and v.ratio_bound > 1.0
        assert v.ratio1_contained

    def test_ratio_bound_runs_no_ode_outside_the_comparison_flow(self, monkeypatch):
        # the capture bracket runs on the zipper cells: every adaptive
        # stepper the pipeline builds belongs to comparison_constant
        inside, built = [False], {True: 0, False: 0}
        init, compare = ode._Stepper.__init__, weierstrass.comparison_constant

        def counting_init(self, *args, **kwargs):
            built[inside[0]] += 1
            init(self, *args, **kwargs)

        def flagged_compare(*args, **kwargs):
            inside[0] = True
            try:
                return compare(*args, **kwargs)
            finally:
                inside[0] = False

        monkeypatch.setattr(ode._Stepper, "__init__", counting_init)
        monkeypatch.setattr(weierstrass, "comparison_constant", flagged_compare)
        v = quasislit_pipeline(WeierstrassParams(b=9.0, N=2, c=0.35), dt=2e-3,
                               compute_ratio_bound=True)
        assert v.ratio1_contained
        assert built[True] > 0 and built[False] == 0

    def test_comparison_constant_positive_and_monotone(self):
        c1 = comparison_constant(0.5)
        c2 = comparison_constant(2.0)
        assert c1 > c2 > 0.0  # stronger opposing pull lowers the barrier

    @pytest.mark.parametrize("K", [c * norm_constant(b) for b in (9.0, 16.0) for c in WELD_C_GRID]
                             + list(np.linspace(0.01, 60.0, 25)))
    def test_comparison_constant_is_the_infimum_over_six_starts(self, K):
        # X(1) increases with X(0), so the flow from the smallest start is
        # the infimum that the six-start loop used to take
        def fieldf(u, x):
            return 2.0 / (x + K * np.sqrt(max(1.0 - u, 0.0)))

        best = np.inf
        for l in np.geomspace(1e-6, 1.0, 6):
            path = ode.integrate(fieldf, float(l), (0.0, 1.0))
            best = min(best, float(np.asarray(path.terminal_value)))
        assert comparison_constant(K) == best
