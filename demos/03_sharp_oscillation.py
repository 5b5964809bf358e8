"""How much a captured driving must oscillate.

A driving captured at T with square-root scaling exponents a (liminf) and
b (limsup) at T must satisfy b >= max(4, a + 4/a) when a < 4, and the
piecewise-cosine construction shows the bound is attained: the driving of
the explicit captured solution oscillates between a and a + 4/a for
a <= 2, and between an intermediate value and 4 for 2 < a < 4.

This demo prints the band estimates at the distinguished sampling points
and writes the figure data (x, xi, and the reference lines y = 0, a,
a + 4/a) used by `loewner figure`.
"""

import csv

import numpy as np

from loewner import DrivingSpec, local_scaling_exponents
from loewner.real_line import capture_scan
from loewner.sharp import SharpOscillation

for a in (1.5, 3.0):
    rep = SharpOscillation(a, k_max=40).band_report()
    print(f"a = {a}: branch {rep['branch']}, partition {rep['k_start']}..{rep['k_max']}")
    print(f"  running min(xi) = {rep['running_min']:.5f}  (target {rep['target_min']})")
    print(f"  running max(xi) = {rep['running_max']:.5f}  (target {rep['target_max']})")

print("\n-- the inverted driving is captured and satisfies the bound --")
spec = DrivingSpec("sharp_example", {"a": 1.5}, 1.0)
scan = capture_scan(spec, 1.0, refine=False, mirrored=False)
print(f"  captured interval: {None if scan.interval is None else tuple(round(v, 4) for v in scan.interval)}")
# b >= max(4, a + 4/a), with slack 0.25 for the finite scale ladder
rep = local_scaling_exponents(spec, 1.0)
a, b = rep.a_hat, rep.b_hat
bound = max(4.0, a + 4.0 / a)
print(f"  a_hat = {a:.4f}, b_hat = {b:.4f}, bound {bound:.4f} holds: {b >= bound - 0.25}")

osc = SharpOscillation(1.5, k_max=40)
ss = np.linspace(0.0, osc.horizon * (1 - 1e-9), 4000)
xs, xis = osc.x(ss), osc.xi(ss)
with open("sharp_oscillation.csv", "w", newline="") as fh:
    w = csv.writer(fh)
    w.writerow(["s", "x", "xi", "ref_zero", "ref_a", "ref_band_top"])
    for s, x, q in zip(ss, xs, xis):
        w.writerow([s, x, q, 0.0, 1.5, 1.5 + 4.0 / 1.5])
print("\nfigure data -> sharp_oscillation.csv")
