"""Acceptance suite: one test per quantitative criterion.

Each test runs its criterion through ``run_one``, prints the pass/fail line
that ``loewner verify`` prints, and asserts the criterion at its stated
tolerance.  The
detail strings are frozen: a change that moves a printed value, even one at
roundoff level, must update them on purpose.
"""

import pytest

from loewner.acceptance import CRITERIA, run_one

DETAILS = {
    1: "max |g - sqrt(z^2+4t)| = 6.48e-10 over 960 points (tol 1e-7)",
    2: "worst relative capacity error 5.19e-06 (tol 1%)",
    3: "c=3.0: empty; c=3.9: empty; c=4.0: endpoint err 0.0e+00; c=5.0: endpoint err 4.4e-05; "
       "c=6.0: endpoint err 8.2e-05 (tol 1e-3)",
    4: "max residual 1.10e-08, max terminal gap 1.31e-08 (tol 1e-6)",
    5: "a=1.5: min 1.5181 in [1.45,1.55], max 4.2867 in [4.0,4.35]; a=3: max 4.0000 in [3.9,4.1]",
    6: "C=0.0:vani; C=1.0:vani; C=1.9:vani; C=2.0:boun; C=2.1:not_; C=3.0:not_; "
       "ramp limit err 5.0e-07 (tol 0.02)",
    7: "sqrt(2): vanishing, L+S = 2.7e-15; 2: not_vanishing_certified, L = 0.0e+00 (tol 1e-8)",
    8: "constant pairs 8.9e-16 (tol 1e-10); sharp pair 2.2e-08 (tol 1e-4)",
    9: "trivial driving err 2.0e-15 (tol 1e-6); sqrt(3) self-convergence factor 1.37 (>= 1.3); "
       "weier self-convergence factor 1.41 (>= 1.3)",
    10: "|phi(x)+x| = 0.0e+00, |ratio1-1| = 0.0e+00, |ratio2-1| = 1.1e-14 (tol 1e-6)",
    11: "worst norm ratio 0.307, worst offset ratio 0.618 (< 1)",
    12: "endpoint stats [0.1533 0.1154 0.0869] decreasing=True; gap band min 0.8625 >= 0.8125; "
        "negative control raised",
}


@pytest.mark.parametrize(
    "number,name,fn", CRITERIA, ids=[f"{n:02d}-{name}" for n, name, _ in CRITERIA]
)
def test_criterion(number, name, fn, capsys):
    res = run_one(number)
    with capsys.disabled():
        print(res.line())
    assert (res.number, res.name) == (number, name)
    assert res.passed, res.line()
    assert res.detail == DETAILS[number]
