"""Forward conformal maps and the capacity normalisation.

The chordal Loewner flow dg/dt = 2/(g - lambda(t)) grows a hull from the
real line; its mapping-out function has the far-field expansion
g_t(z) = z + c(t)/z + ... with c(t) = 2t in the capacity parametrisation.
For the trivial driving lambda = 0 everything is explicit,
g_t(z) = sqrt(z^2 + 4t), which makes a sharp end-to-end check of the
integrator.  For rougher drivings the capacity normalisation is verified
from far-field probes.
"""

import numpy as np

from loewner import DrivingSpec
from loewner.hull import capacity_estimate, forward_map_grid
from loewner.imaginary import solve_planar

zero = DrivingSpec("constant", {"value": 0.0}, 2.0)

print("-- closed-form checks, lambda = 0 --")
for z, t in [(1.0, 1.0), (3j, 1.0), (1 + 1j, 0.5)]:
    path, _ = solve_planar(zero, z, t)
    got = complex(*path.values[-1])
    ref = np.sqrt(complex(z) ** 2 + 4 * t)
    ref = ref if ref.imag >= 0 else -ref
    print(f"  g_{t}({z}) = {got:.12f}   |err| = {abs(got - ref):.2e}")

print("\n-- capture of a point on the growing slit --")
_, ev = solve_planar(zero, 2j, 1.0)
print(f"  z = 2i is swallowed at t = {ev.time:.9f} (exact: 1)")

print("\n-- batch evaluation (one vectorised integration) --")
zs = np.array([0.5 + 0.2j, -1 + 1j, 2 + 3j])
g = forward_map_grid(zero, [0.25, 1.0], zs)
print("  g_0.25:", np.array2string(g[0], precision=6))
print("  g_1.00:", np.array2string(g[1], precision=6))

print("\n-- capacity normalisation c(t) = 2t across the zoo --")
zoo = {
    "sqrt approach": DrivingSpec("sqrt_approach", {"c": 2.0}, 1.0),
    "weierstrass": DrivingSpec("weierstrass_partial", {"c": 0.3, "b": 9.0, "N": 4},
                               1.0, normalize=True),
    "brownian": DrivingSpec("brownian", {"kappa": 1.0}, 1.0, normalize=True, seed=11),
}
for name, spec in zoo.items():
    for t in (0.25, 1.0):
        est, bound = capacity_estimate(spec, t, 250.0)
        print(f"  {name:14s} t={t}: c = {est:.6f}  (target {2*t}, bound {bound:.1e})")
