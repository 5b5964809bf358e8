"""Vanishing transition of the imaginary Loewner equation.

The height of an evolving point obeys dY/dt = -2Y/(theta^2 + Y^2) where
theta is its horizontal gap to the driving.  For gaps theta = C sqrt(T-t)
a positive solution can reach zero exactly at T only when C < 2, with the
explicit witness height sqrt(T (4 - C^2)); at and above C = 2 every
solution stays positive.  The transition is certified in the transformed
frame: a solution touching the level 2 must grow exponentially, while the
growth floor L(t) = integral (1 - 4/eta^2) must diverge to -infinity along
any vanishing gap.
"""

import numpy as np

from loewner.imaginary import (
    classify_sqrt_gap,
    dual_vanishing_probe,
    growth_floor,
    ramp_ode_terminal,
    solve_frame_imaginary,
    vanishing_spread,
)

print("-- transition sweep --")
for C in (0.0, 1.0, 1.9, 2.0, 2.1, 3.0):
    r = classify_sqrt_gap(C, 1.0)
    extra = f", witness y0 = {r.witness_y0:.4f}" if r.witness_y0 else ""
    print(f"  C = {C}: {r.status}{extra}  (run: {r.run.status})")

print("\n-- terminal value of the small-start ramp flow --")
for eps in (1e-2, 1e-4, 1e-6):
    y = ramp_ode_terminal(2.0, eps, 1.0)
    print(f"  eps = {eps:.0e}: y(1) = {y:.8f}  -> sqrt(2) = {np.sqrt(2):.8f}")

print("\n-- frame certificates --")
eta = lambda v: (lambda s: v + 0.0 * np.asarray(s))
for v, y0 in ((np.sqrt(2.0), np.sqrt(2.0)), (2.0, 0.5), (1.5, 0.5)):
    _, cls = solve_frame_imaginary(eta(v), y0)
    print(f"  eta = {v:.3f}, y0 = {y0:.3f}: {cls.status} ({cls.certificate})")

print("\n-- growth floor --")
for v in (np.sqrt(2.0), 2.0, 2.0 * np.sqrt(2.0)):
    g = growth_floor(eta(v), 5.0)
    print(f"  eta = {v:.3f}: L(5) = {g.value:+.6f}")

print("\n-- all vanishing solutions collapse together (except the largest) --")
rep = vanishing_spread(eta(np.sqrt(2.0)), [0.5, 1.0, np.sqrt(2.0)])
for row in rep.rows:
    print(f"  y0 = {row.y0:.4f}: {row.status}, terminal {row.terminal_value:.3e}")
print(f"  largest pairwise gap among the small ones: {rep.max_small_gap:.2e}")

print("\n-- duality probe: difference-flow vanishing forces height vanishing --")
pr = dual_vanishing_probe(eta(1.0))
print(f"  eta = 1: dual vanishing from w0 = {pr.dual_vanishing_w0}, "
      f"height flow from the same start: {pr.height_status}")
