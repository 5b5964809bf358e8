"""Quadrature and root rules: QUADPACK's QAGS/QAGI, cumulative Simpson, bisection.

``quad`` is a line-for-line port of QUADPACK's adaptive routines (Piessens,
de Doncker-Kapenga, Überhuber and Kahaner, *QUADPACK*, Springer 1983):
DQAGSE on a finite interval with 21-point Gauss-Kronrod panels (DQK21), and
DQAGIE on [a, inf) through x = a + (1 - t)/t with 15-point panels (DQK15I),
both keeping their error list by DQPSRT and extrapolating by Wynn's epsilon
algorithm (DQELG).  Nodes, weights, tolerances, panel order and summation
order are QUADPACK's, so value, error estimate and flag are those of
``scipy.integrate.quad`` bit for bit; the tests hold scipy as the oracle.
The module needs numpy only.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .errors import NumericalError

__all__ = ["quad", "cumulative_simpson", "bisect_root"]

EPSABS = EPSREL = 1.49e-8  # scipy.integrate.quad's default tolerances
_EPMACH = 2.220446049250313e-16  # d1mach(4)
_UFLOW = 2.2250738585072014e-308  # d1mach(1)
_OFLOW = 1.7976931348623157e308  # d1mach(2)

# A panel rule: Kronrod nodes in (0, 1) with the centre last, Kronrod
# weights, Gauss weights (None where QUADPACK adds no Gauss term, 0.0 where
# it adds a zero one), and the order in which QUADPACK visits the node
# pairs, which fixes its summation order.  Each number is the double
# nearest QUADPACK's 33-digit value, written in its shortest form.
_QK21 = (
    (0.9956571630258081, 0.9739065285171717, 0.9301574913557082, 0.8650633666889845,
     0.7808177265864169, 0.6794095682990244, 0.5627571346686047, 0.4333953941292472,
     0.2943928627014602, 0.14887433898163122, 0.0),
    (0.011694638867371874, 0.032558162307964725, 0.054755896574351995, 0.07503967481091996,
     0.0931254545836976, 0.10938715880229764, 0.12349197626206584, 0.13470921731147334,
     0.14277593857706009, 0.14773910490133849, 0.1494455540029169),
    (None, 0.06667134430868814, None, 0.1494513491505806, None, 0.21908636251598204,
     None, 0.26926671930999635, None, 0.29552422471475287, None),
    (1, 3, 5, 7, 9, 0, 2, 4, 6, 8),  # the Gauss nodes first
)
_QK15I = (
    (0.9914553711208126, 0.9491079123427585, 0.8648644233597691, 0.7415311855993945,
     0.5860872354676911, 0.4058451513773972, 0.20778495500789848, 0.0),
    (0.022935322010529224, 0.06309209262997856, 0.10479001032225019, 0.14065325971552592,
     0.1690047266392679, 0.19035057806478542, 0.20443294007529889, 0.20948214108472782),
    (0.0, 0.1294849661688697, 0.0, 0.27970539148927664, 0.0, 0.3818300505051189, 0.0,
     0.4179591836734694),
    (0, 1, 2, 3, 4, 5, 6),
)

_MESSAGES = {
    1: "the maximum number of subdivisions ({limit}) has been achieved",
    2: "roundoff error prevents the requested tolerance from being achieved",
    3: "extremely bad integrand behavior occurs at some points of the integration interval",
    4: "the algorithm does not converge: roundoff error is detected in the extrapolation table",
    5: "the integral is probably divergent, or slowly convergent",
}


def _kronrod(rule, g, a, b):
    """DQK21 or DQK15I of g on [a, b]: (result, abserr, resabs, resasc)."""
    xgk, wgk, wg, order = rule
    centr, hlgth = 0.5 * (a + b), 0.5 * (b - a)
    fc = g(centr)
    resg = 0.0 if wg[-1] is None else wg[-1] * fc
    resk = wgk[-1] * fc
    resabs = abs(resk)
    fv1, fv2 = [0.0] * len(order), [0.0] * len(order)
    for j in order:
        absc = hlgth * xgk[j]
        fv1[j] = fval1 = g(centr - absc)
        fv2[j] = fval2 = g(centr + absc)
        fsum = fval1 + fval2
        if wg[j] is not None:
            resg = resg + wg[j] * fsum
        resk = resk + wgk[j] * fsum
        resabs = resabs + wgk[j] * (abs(fval1) + abs(fval2))
    reskh = resk * 0.5
    resasc = wgk[-1] * abs(fc - reskh)
    for j in range(len(order)):
        resasc = resasc + wgk[j] * (abs(fv1[j] - reskh) + abs(fv2[j] - reskh))
    resabs, resasc = resabs * abs(hlgth), resasc * abs(hlgth)
    abserr = abs((resk - resg) * hlgth)
    if resasc != 0.0 and abserr != 0.0:
        r = 200.0 * abserr / resasc
        abserr = resasc * (1.0 if r >= 1.0 else r ** 1.5)  # min(1, r^1.5) without pow overflow
    if resabs > _UFLOW / (50.0 * _EPMACH):
        abserr = max((_EPMACH * 50.0) * resabs, abserr)
    return resk * hlgth, abserr, resabs, resasc


def _qpsrt(limit, last, maxerr, elist, iord, nrmax):
    """DQPSRT: keep iord descending in elist; return (maxerr, errmax, nrmax)."""
    if last <= 2:
        iord[1], iord[2] = 1, 2
        return iord[nrmax], elist[iord[nrmax]], nrmax
    errmax = elist[maxerr]
    for _ in range(nrmax - 1):
        isucc = iord[nrmax - 1]
        if errmax <= elist[isucc]:
            break
        iord[nrmax] = isucc
        nrmax -= 1
    jupbn = last if last <= limit // 2 + 2 else limit + 3 - last
    errmin = elist[last]
    jbnd = jupbn - 1
    for i in range(nrmax + 1, jbnd + 1):
        isucc = iord[i]
        if errmax >= elist[isucc]:
            # insert errmax at i - 1, then errmin by traversing bottom-up
            iord[i - 1] = maxerr
            k = jbnd
            for _ in range(i, jbnd + 1):
                isucc = iord[k]
                if errmin < elist[isucc]:
                    iord[k + 1] = last
                    break
                iord[k + 1] = isucc
                k -= 1
            else:
                iord[i] = last
            break
        iord[i - 1] = isucc
    else:
        iord[jbnd], iord[jupbn] = maxerr, last
    return iord[nrmax], elist[iord[nrmax]], nrmax


def _qelg(n, epstab, res3la, nres):
    """DQELG, Wynn's epsilon algorithm on epstab[1..n]: (n, result, abserr, nres)."""
    nres, abserr, result = nres + 1, _OFLOW, epstab[n]
    if n < 3:
        return n, result, max(abserr, 5.0 * _EPMACH * abs(result)), nres
    epstab[n + 2] = epstab[n]
    newelm = (n - 1) // 2
    epstab[n] = _OFLOW
    num = k1 = n
    for i in range(1, newelm + 1):
        res = e2 = epstab[k1 + 2]
        e0, e1 = epstab[k1 - 2], epstab[k1 - 1]
        e1abs = abs(e1)
        delta2 = e2 - e1
        err2 = abs(delta2)
        tol2 = max(abs(e2), e1abs) * _EPMACH
        delta3 = e1 - e0
        err3 = abs(delta3)
        tol3 = max(e1abs, abs(e0)) * _EPMACH
        if not (err2 > tol2 or err3 > tol3):
            # e0, e1 and e2 agree to machine accuracy: convergence
            return n, res, max(err2 + err3, 5.0 * _EPMACH * abs(res)), nres
        e3 = epstab[k1]
        epstab[k1] = e1
        delta1 = e1 - e3
        err1 = abs(delta1)
        tol1 = max(e1abs, abs(e3)) * _EPMACH
        if err1 <= tol1 or err2 <= tol2 or err3 <= tol3:
            n = i + i - 1  # two elements very close: omit part of the table
            break
        ss = 1.0 / delta1 + 1.0 / delta2 - 1.0 / delta3
        if not abs(ss * e1) > 1e-4:
            n = i + i - 1  # irregular behaviour: omit part of the table
            break
        res = e1 + 1.0 / ss
        epstab[k1] = res
        k1 -= 2
        error = err2 + abs(res - e2) + err3
        if not error > abserr:
            abserr, result = error, res
    if n == 50:  # limexp: the table holds at most 50 elements
        n = 49
    ib = 2 if num % 2 == 0 else 1
    for _ in range(newelm + 1):  # shift the table
        epstab[ib] = epstab[ib + 2]
        ib += 2
    if num != n:
        epstab[1:n + 1] = epstab[num - n + 1:num + 1]
    if nres < 4:
        res3la[nres] = result
        abserr = _OFLOW
    else:
        abserr = abs(result - res3la[3]) + abs(result - res3la[2]) + abs(result - res3la[1])
        res3la[1], res3la[2], res3la[3] = res3la[2], res3la[3], result
    return n, result, max(abserr, 5.0 * _EPMACH * abs(result)), nres


def _qagse(panel, a, b, limit):
    """DQAGSE of ``panel`` (a bound ``_kronrod``) on [a, b], DQAGIE for DQK15I
    on [0, 1]: (result, abserr, ier in 0..5).  Lists are 1-based, as in QUADPACK."""
    alist, blist, rlist, elist = ([0.0] * (limit + 1) for _ in range(4))
    iord = [0] * (limit + 1)
    alist[1], blist[1] = a, b
    ier = 0
    result, abserr, defabs, resabs = panel(a, b)
    dres = abs(result)
    errbnd = max(EPSABS, EPSREL * dres)
    rlist[1], elist[1], iord[1] = result, abserr, 1
    if abserr <= 100.0 * _EPMACH * defabs and abserr > errbnd:
        ier = 2
    if limit == 1:
        ier = 1
    if ier != 0 or (abserr <= errbnd and abserr != resabs) or abserr == 0.0:
        return result, abserr, ier

    rlist2, res3la = [0.0] * 53, [0.0] * 4
    rlist2[1] = result
    errmax, maxerr, area, errsum, abserr = abserr, 1, result, abserr, _OFLOW
    nrmax, nres, numrl2, ktmin = 1, 0, 2, 0
    extrap = noext = converged = False  # converged: errsum met errbnd
    ierro = iroff1 = iroff2 = iroff3 = 0
    small = erlarg = ertest = correc = 0.0
    ksgn = 1 if dres >= (1.0 - 50.0 * _EPMACH) * defabs else -1

    for last in range(2, limit + 1):
        # bisect the subinterval with the nrmax-th largest error estimate
        a1, b2 = alist[maxerr], blist[maxerr]
        a2 = b1 = 0.5 * (a1 + b2)
        erlast = errmax
        area1, error1, _, defab1 = panel(a1, b1)
        area2, error2, _, defab2 = panel(a2, b2)
        area12 = area1 + area2
        erro12 = error1 + error2
        errsum = errsum + erro12 - errmax
        area = area + area12 - rlist[maxerr]
        if defab1 != error1 and defab2 != error2:
            if not (abs(rlist[maxerr] - area12) > 1e-5 * abs(area12) or erro12 < 0.99 * errmax):
                iroff1, iroff2 = iroff1 + (not extrap), iroff2 + extrap
            iroff3 += last > 10 and erro12 > errmax
        rlist[maxerr], rlist[last] = area1, area2
        errbnd = max(EPSABS, EPSREL * abs(area))
        if iroff1 + iroff2 >= 10 or iroff3 >= 20:
            ier = 2  # roundoff
        if iroff2 >= 5:
            ierro = 3
        if last == limit:
            ier = 1
        if max(abs(a1), abs(b2)) <= (1.0 + 100.0 * _EPMACH) * (abs(a2) + 1000.0 * _UFLOW):
            ier = 4  # bad integrand behaviour at a point
        if error2 > error1:
            alist[maxerr], alist[last], blist[last] = a2, a1, b1
            rlist[maxerr], rlist[last] = area2, area1
            elist[maxerr], elist[last] = error2, error1
        else:
            alist[last], blist[maxerr], blist[last] = a2, b1, b2
            elist[maxerr], elist[last] = error1, error2
        maxerr, errmax, nrmax = _qpsrt(limit, last, maxerr, elist, iord, nrmax)
        if errsum <= errbnd:
            converged = True
            break
        if ier != 0:
            break
        if last == 2:
            small, erlarg, ertest, rlist2[2] = abs(b - a) * 0.375, errsum, errbnd, area
            continue
        if noext:
            continue
        erlarg = erlarg - erlast
        if abs(b1 - a1) > small:
            erlarg = erlarg + erro12
        if not extrap:
            if abs(blist[maxerr] - alist[maxerr]) > small:
                continue  # the next interval to bisect is not the smallest
            extrap = True
            nrmax = 2
        if not (ierro == 3 or erlarg <= ertest):
            # the smallest interval has the largest error: bisect a larger
            # one first if the part of the list kept in order has one
            jupbnd = last if last <= 2 + limit // 2 else limit + 3 - last
            large = False
            for _ in range(nrmax, jupbnd + 1):
                maxerr, errmax = iord[nrmax], elist[iord[nrmax]]
                if abs(blist[maxerr] - alist[maxerr]) > small:
                    large = True
                    break
                nrmax += 1
            if large:
                continue
        numrl2 += 1
        rlist2[numrl2] = area
        numrl2, reseps, abseps, nres = _qelg(numrl2, rlist2, res3la, nres)
        ktmin += 1
        if ktmin > 5 and abserr < 1e-3 * errsum:
            ier = 5
        if not abseps >= abserr:
            ktmin, abserr, result, correc = 0, abseps, reseps, erlarg
            ertest = max(EPSABS, EPSREL * abs(reseps))
            if abserr <= ertest:
                break
        noext = numrl2 == 1  # noext is False here
        if ier == 5:
            break
        maxerr, errmax = iord[1], elist[iord[1]]
        nrmax, extrap, small, erlarg = 1, False, small * 0.5, errsum

    # the extrapolated result, or the plain sum where extrapolation lost
    plain = converged or abserr == _OFLOW
    clean = ier + ierro == 0
    if not (plain or clean):
        if ierro == 3:
            abserr = abserr + correc
        ier = ier or 3
        if result != 0.0 and area != 0.0:
            plain = abserr / abs(result) > errsum / abs(area)
        else:
            plain = abserr > errsum
    if plain:
        result = 0.0
        for k in range(1, last + 1):  # in order: the builtin sum may compensate
            result = result + rlist[k]
        abserr = errsum
    elif (clean or area != 0.0) and not (ksgn == -1 and max(abs(result), abs(area)) <= defabs * 0.01):
        # the divergence test; area may be 0 here: IEEE division, as in QUADPACK
        with np.errstate(all="ignore"):
            ratio = float(np.float64(result) / area)
        if 0.01 > ratio or ratio > 100.0 or errsum > abs(area):
            ier = 6
    return result, abserr, ier - 1 if ier > 2 else ier


def _quadpack(f, a, b, limit):
    """(value, error estimate, ier) of f over [a, b], as scipy.integrate.quad
    computes them: QAGS, or QAGI when b is +inf."""
    lo, hi = float(min(a, b)), float(max(a, b))
    if lo == hi:
        return 0.0, 0.0, 0
    if hi == math.inf:
        def g(t):
            return (float(f(lo + (1.0 - t) / t)) / t) / t

        value, err, ier = _qagse(lambda t0, t1: _kronrod(_QK15I, g, t0, t1), 0.0, 1.0, limit)
    else:
        value, err, ier = _qagse(lambda x0, x1: _kronrod(_QK21, lambda x: float(f(x)), x0, x1),
                                 lo, hi, limit)
    return (-value if b < a else value), err, ier


def quad(f: Callable, a: float, b: float, limit: int) -> tuple[float, float]:
    """QUADPACK's adaptive quadrature of f over [a, b]: (value, error estimate).

    ``b`` may be +inf (QAGI), ``a`` must be finite; tolerances are 1.49e-8
    absolute and relative, ``limit`` bounds the subintervals, and f takes one
    float at a time.  A result QUADPACK flags as doubtful (the subdivision
    limit, roundoff, bad integrand behaviour, divergence) raises
    NumericalError, and so does a value or error estimate that overflowed.
    """
    value, err, ier = _quadpack(f, a, b, limit)
    if ier:
        raise NumericalError(f"quadrature over [{a!r}, {b!r}] failed: {_MESSAGES[ier].format(limit=limit)}")
    if not (math.isfinite(value) and math.isfinite(err)):
        raise NumericalError(f"quadrature over [{a!r}, {b!r}] overflowed: {value!r} +- {err!r}")
    return value, err


def cumulative_simpson(y: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Cumulative integral of samples y at increasing x (at least 3 points),
    starting at 0: scipy.integrate.cumulative_simpson(y, x=x, initial=0.0)
    with its operation order.  Each interval takes the quadratic through
    its own and the next point, the last one through the previous point."""

    def panels(y, dx):
        x21, x32 = dx[:-1], dx[1:]
        x21_x31 = x21 / (x21 + x32)
        x21x21_x31x32 = x21_x31 * (x21 / x32)
        return x21 / 6 * ((3 - x21_x31) * y[:-2] + (3 + x21x21_x31x32 + x21_x31) * y[1:-1]
                          + (-x21x21_x31x32) * y[2:])

    dx = np.diff(x)
    h2 = panels(y[::-1], dx[::-1])[::-1]
    sub = np.empty(y.size - 1)
    sub[:-1:2] = panels(y, dx)[::2]
    sub[1::2] = h2[::2]
    sub[-1] = h2[-1]
    return np.concatenate(([0.0], np.cumsum(sub)))


def bisect_root(f: Callable, lo: float, hi: float) -> float:
    """The root of f in [lo, hi] by bisection down to adjacent doubles.

    f(lo) and f(hi) must have opposite signs; otherwise, or if f is NaN
    on the way, NumericalError.  Returns the endpoint of the last bracket
    with the smaller |f|.
    """
    lo, hi = float(lo), float(hi)
    f_lo, f_hi = float(f(lo)), float(f(hi))
    if f_lo == 0.0 or f_hi == 0.0:
        return lo if f_lo == 0.0 else hi
    if not (f_lo < 0.0) != (f_hi < 0.0) or math.isnan(f_lo) or math.isnan(f_hi):
        raise NumericalError(f"f({lo!r}) = {f_lo!r} and f({hi!r}) = {f_hi!r} do not bracket a root")
    while lo < (mid := lo + 0.5 * (hi - lo)) < hi:
        f_mid = float(f(mid))
        if f_mid == 0.0:
            return mid
        if math.isnan(f_mid):
            raise NumericalError(f"f({mid!r}) is NaN while bisecting [{lo!r}, {hi!r}]")
        if (f_mid < 0.0) == (f_lo < 0.0):
            lo, f_lo = mid, f_mid
        else:
            hi, f_hi = mid, f_mid
    return lo if abs(f_lo) <= abs(f_hi) else hi


_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(7)


def _gauss_panel(f, a, b):
    """7-point Gauss-Legendre on [a, b], vectorised over panel arrays."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    vals = np.zeros_like(mid)
    for xk, wk in zip(_GL_NODES, _GL_WEIGHTS):
        vals += wk * np.asarray(f(mid + half * xk), dtype=float)
    return vals * half
