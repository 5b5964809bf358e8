"""The quadrature module against scipy, its independent oracle.

``quad`` ports QUADPACK's QAGS/QAGI, which scipy.integrate.quad wraps, so
value and error estimate must agree bit for bit and the port must raise
exactly where scipy flags the result.  ``cumulative_simpson`` must equal
scipy's array for array, and ``bisect_root`` must find brentq's root.
"""

import math

import numpy as np
import pytest
from scipy import integrate, optimize

from loewner import NumericalError, acceptance, imaginary, quadrature, real_line
from loewner.quadrature import bisect_root, cumulative_simpson, quad


def _noise(x):
    """A deterministic hash of x in [0, 1): unresolvable noise for QUADPACK."""
    v = math.sin(x * 12.9898 + 78.233) * 43758.5453
    return v - math.floor(v)


def _battery():
    inf = math.inf
    cases = [
        ("cubic", lambda x: x ** 3 - 2 * x, 0.0, 2.0, 50),
        ("decay", lambda x: math.exp(-x), 0.0, 10.0, 50),
        ("peak", lambda x: 1 / (1e-4 + (x - 0.3) ** 2), 0.0, 1.0, 50),
        ("sin50", lambda x: math.sin(50 * x), 0.0, math.pi, 50),
        ("xcos200", lambda x: math.cos(200 * x) * x, 0.0, 3.0, 100),
        ("gauss-wide", lambda x: math.exp(-x * x), -50.0, 50.0, 50),
        ("kink", lambda x: abs(x - 0.41), 0.0, 1.0, 50),
        ("step", lambda x: 1.0 if x < 0.3 else 0.0, 0.0, 1.0, 50),
        ("reversed", lambda x: math.exp(x), 1.0, 0.0, 50),
        ("empty", lambda x: 1.0, 2.0, 2.0, 50),
        ("zero", lambda x: 0.0, 0.0, 1.0, 50),
        ("huge-values", lambda x: 1e300 * math.exp(x), 0.0, 10.0, 50),
        ("long-span", lambda x: 1 - 4 / 2.25, 0.0, 1e300, 400),
        # endpoint singularities: these run the epsilon table
        ("inv-sqrt", lambda x: 1 / math.sqrt(x) if x > 0 else 0.0, 0.0, 1.0, 50),
        ("log", lambda x: math.log(x), 0.0, 1.0, 50),
        ("x^-0.9", lambda x: x ** -0.9, 0.0, 1.0, 50),
        ("x^-0.99", lambda x: x ** -0.99, 0.0, 1.0, 50),
        ("x^-0.999", lambda x: x ** -0.999, 0.0, 1.0, 50),
        # half line
        ("half-decay", lambda x: math.exp(-x), 0.0, inf, 50),
        ("half-cauchy", lambda x: 1 / (1 + x * x), 0.0, inf, 50),
        ("half-sinc", lambda x: math.sin(x) / x, 1.0, inf, 50),
        ("half-x^-1.001", lambda x: x ** -1.001, 1.0, inf, 50),
        ("half-x^-1.1", lambda x: x ** -1.1, 1.0, inf, 50),
        # flagged: divergent, the subdivision limit, bad behaviour at a point
        ("div-1/x", lambda x: 1 / x, 0.0, 1.0, 50),
        ("div-1/x^2", lambda x: 1 / (x * x) if x else 0.0, 0.0, 1.0, 50),
        ("div-pole", lambda x: 1 / (x - 1 / 3) ** 2, 0.0, 1.0, 50),
        ("div-x^-0.9999", lambda x: x ** -0.9999, 0.0, 1.0, 50),
        ("div-half-1/x", lambda x: 1 / x, 1.0, inf, 50),
        ("div-half-const", lambda x: 1.0, 5.0, inf, 200),
        ("limit-sin(1/x)", lambda x: math.sin(1 / x) if x else 0.0, 0.0, 1.0, 10),
        ("limit-1", lambda x: math.sin(30 * x), 0.0, 3.0, 1),
        ("limit-2", lambda x: math.sin(30 * x), 0.0, 3.0, 2),
        ("limit-3", lambda x: math.sin(30 * x), 0.0, 3.0, 3),
        ("bad-point-denormal", lambda x: 1 - 4 / 0.002 ** 2, 0.0, 2.2250738585e-313, 400),
    ]
    # roundoff: noise of 1e-3 stops at the limit, of 1e-6 trips the
    # roundoff counters (ier 2) or the extrapolation's roundoff test (ier 4)
    for amp in (1e-3, 1e-6, 1e-8):
        cases += [
            (f"noise-flat-{amp:g}", lambda x, a=amp: 1 + a * _noise(x), 0.0, 1.0, 50),
            (f"noise-log-{amp:g}", lambda x, a=amp: math.log(x) + a * _noise(x), 0.0, 1.0, 50),
            (f"noise-x^-0.8-{amp:g}", lambda x, a=amp: x ** -0.8 * (1 + a * _noise(x)), 0.0, 1.0, 400),
            (f"noise-half-{amp:g}", lambda x, a=amp: math.exp(-x) * (1 + a * _noise(x)), 0.0, inf, 50),
        ]
    for k in range(12):
        p = -0.5 - 0.04 * k
        cases.append((f"x^{p:.2f}", lambda x, p=p: x ** p if x > 0 else 0.0, 0.0, 1.0, 50))
    for w in (1, 8, 15, 43, 99, 148):
        cases.append((f"damped-cos{w}", lambda x, w=w: math.cos(w * x) * math.exp(-x), 0.0, 5.0, 50))
    for width in (1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6):
        for at in (0.0, 0.3, 1.0 / 3.0):
            cases.append((f"peak{width:g}@{at:.3f}", lambda x, w=width, c=at: w / (w * w + (x - c) ** 2),
                          0.0, 1.0, 200))
    for p in (0.0, 0.5, 1.0, 2.0):
        cases.append((f"x^{p:g}log(x)", lambda x, p=p: x ** p * math.log(x) if x > 0 else 0.0, 0.0, 1.0, 50))
        cases.append((f"half-log(x)/x^{2 + p:g}", lambda x, p=p: math.log(x) / x ** (2 + p), 1.0, inf, 50))
    for k in range(8):
        c = 0.25 * k
        cases.append((f"half-decay{c:g}", lambda x, c=c: math.exp(-c * x) / (1 + x) ** (1.05 + c),
                      0.0, inf, 50))
    return cases


BATTERY = _battery()

# the first words of scipy's message for each QUADPACK flag
SCIPY_FLAGS = {
    "The maximum number of subdivisions": 1,
    "The occurrence of roundoff": 2,
    "Extremely bad integrand": 3,
    "The algorithm does not converge": 4,
    "The integral is probably divergent": 5,
}


def _scipy(f, a, b, limit):
    """scipy's value, error estimate and QUADPACK flag (0 when unflagged)."""
    out = integrate.quad(f, a, b, limit=limit, full_output=1)
    if len(out) == 3:
        return out[0], out[1], 0
    return out[0], out[1], next(v for k, v in SCIPY_FLAGS.items() if out[3].startswith(k))


@pytest.mark.parametrize("name, f, a, b, limit", BATTERY, ids=[c[0] for c in BATTERY])
def test_quad_is_scipy_bit_for_bit(name, f, a, b, limit):
    want = _scipy(f, a, b, limit)
    assert quadrature._quadpack(f, a, b, limit) == want
    if want[2] or not (math.isfinite(want[0]) and math.isfinite(want[1])):
        with pytest.raises(NumericalError, match="quadrature over"):
            quad(f, a, b, limit)
    else:
        assert quad(f, a, b, limit) == want[:2]


def test_battery_covers_every_flag_and_the_epsilon_table(monkeypatch):
    calls = []
    qelg = quadrature._qelg
    monkeypatch.setattr(quadrature, "_qelg", lambda *args: calls.append(1) or qelg(*args))
    flags, extrapolated = set(), 0
    for _, f, a, b, limit in BATTERY:
        before = len(calls)
        flags.add(quadrature._quadpack(f, a, b, limit)[2])
        extrapolated += len(calls) > before
    assert flags == {0, 1, 2, 3, 4, 5}
    assert extrapolated >= 50


@pytest.mark.parametrize("number, integrals", [(4, 40), (7, 2), (8, 39)])
def test_acceptance_quadratures_are_scipys(number, integrals, monkeypatch):
    # every adaptive integral and cumulative Simpson sum of criteria 4, 7
    # and 8 is checked against scipy as it runs
    seen = []

    def checked_quad(f, a, b, limit):
        want = _scipy(f, a, b, limit)
        assert quadrature._quadpack(f, a, b, limit) == want
        seen.append(want)
        return quad(f, a, b, limit)

    def checked_simpson(y, x):
        got = cumulative_simpson(y, x)
        assert np.array_equal(got, integrate.cumulative_simpson(y, x=x, initial=0.0))
        seen.append(got)
        return got

    monkeypatch.setattr(imaginary, "quad", checked_quad)
    monkeypatch.setattr(real_line, "quad", checked_quad)
    monkeypatch.setattr(real_line, "cumulative_simpson", checked_simpson)
    assert acceptance.run_one(number).passed
    assert len(seen) == integrals


def test_flag_messages():
    with pytest.raises(NumericalError, match="divergent"):
        quad(lambda x: 1.0, 5.0, math.inf, 200)
    with pytest.raises(NumericalError, match=r"maximum number of subdivisions \(10\)"):
        quad(lambda x: math.sin(1 / x) if x else 0.0, 0.0, 1.0, 10)
    with pytest.raises(NumericalError, match="overflowed"):
        quad(lambda x: 4e22, 0.0, 1e300, 50)


@pytest.mark.parametrize("n", [3, 4, 5, 101, 20001])
def test_cumulative_simpson_is_scipy(n):
    rng = np.random.default_rng(n)
    y = rng.normal(size=n)
    for x in (np.linspace(0.0, 60.0, n), np.cumsum(rng.uniform(0.1, 2.0, size=n))):
        want = integrate.cumulative_simpson(y, x=x, initial=0.0)
        assert np.array_equal(cumulative_simpson(y, x), want)


def _ramp(c, eps, T):
    if c == 4.0:
        return lambda y: 0.5 * y * y * np.log(y / eps) - T
    return lambda y: (y * y - eps ** (2 - c / 2) * y ** (c / 2)) / (4.0 - c) - T


@pytest.mark.parametrize("c", [0.0, 1.0, 3.9, 4.0, 6.0])
@pytest.mark.parametrize("eps", [1e-6, 1e-3, 0.5])
def test_bisect_root_finds_brentqs_root(c, eps):
    f = _ramp(c, eps, 1.0)
    hi = 2.0 * eps
    while f(hi) <= 0:
        hi *= 2.0
    want = optimize.brentq(f, eps, hi, xtol=1e-14, rtol=1e-15)
    assert abs(bisect_root(f, eps, hi) - want) <= 1e-14


def test_bisect_root_needs_a_bracket():
    with pytest.raises(NumericalError, match="do not bracket"):
        bisect_root(lambda y: y * y + 1.0, -1.0, 1.0)
    with pytest.raises(NumericalError, match="NaN"):
        bisect_root(lambda y: math.nan if 0.2 < y < 0.8 else y - 0.5, 0.0, 1.0)
    assert bisect_root(lambda y: y - 0.25, 0.25, 1.0) == 0.25
    assert abs(bisect_root(lambda y: y * y - 2.0, 0.0, 2.0) - math.sqrt(2.0)) <= 4.5e-16
