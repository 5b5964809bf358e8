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
    growth_floor,
    ramp_ode_terminal,
    solve_frame_difference,
    solve_frame_imaginary,
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
terminals = []
for y0 in (0.5, 1.0, np.sqrt(2.0)):
    path, cls = solve_frame_imaginary(eta(np.sqrt(2.0)), y0)
    print(f"  y0 = {y0:.4f}: {cls.status}, terminal {path.terminal_value:.3e}")
    if cls.status == "vanishing":
        terminals.append(path.terminal_value)
small = terminals[:-1]
print(f"  largest pairwise gap among the small ones: {max(small) - min(small):.2e}")

print("\n-- duality probe: difference-flow vanishing forces height vanishing --")
# eta = 1 is the gap's lower bound: probe starts below it, keep the first
# difference-flow solution that vanishes and stays below the bound
for w0 in (0.9, 0.5, 0.25):
    path, cls = solve_frame_difference(eta(1.0), w0)
    if cls.status == "vanishing" and path.values.max() < 1.0:
        break
else:
    raise SystemExit("no difference-flow start vanished below the bound")
_, cls = solve_frame_imaginary(eta(1.0), w0)
print(f"  eta = 1: dual vanishing from w0 = {w0}, "
      f"height flow from the same start: {cls.status}")
