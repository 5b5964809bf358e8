"""The capture transition of the real Loewner equation.

Driving functions approaching their terminal value like c sqrt(T - t)
capture real points exactly at T once c reaches 4.  In the square-root
frame the flow dx/ds = x - 4/(c - x) has stationary points at the roots of
x^2 - c x + 4: none below c = 4 (every solution escapes), a parabolic
point at c = 4, and an attracting/repelling pair above.  The scan verifies
the captured set (0, (c + sqrt(c^2 - 16))/2] and its emptiness below the
threshold, and the certificate of the descent test rules capture out for
small drivings without any integration of solutions.
"""

import numpy as np

from loewner import DrivingSpec
from loewner.real_line import (
    FrameDriving,
    capture_scan,
    no_capture_certificate,
    solve_real_loewner,
)

print("-- single trajectories --")
spec4 = DrivingSpec("sqrt_approach", {"c": 4.0}, 1.0)
path, rep = solve_real_loewner(spec4, 2.0, 1.0)
print(f"  c=4, X0=2: {rep.status} at t = {rep.capture_time:.8f}")
spec3 = DrivingSpec("sqrt_approach", {"c": 3.0}, 1.0)
path, rep = solve_real_loewner(spec3, 2.0, 1.0)
print(f"  c=3, X0=2: {rep.status}, X(1) = {float(np.asarray(path.terminal_value)):.6f}")

print("\n-- captured intervals across the transition --")
for c in (3.0, 3.9, 4.0, 5.0, 6.0):
    spec = DrivingSpec("sqrt_approach", {"c": c}, 1.0)
    scan = capture_scan(spec, 1.0, mirrored=False)
    if scan.interval is None:
        print(f"  c={c}: no point captured at T")
    else:
        lo, hi = scan.interval
        target = (c + np.sqrt(c * c - 16.0)) / 2.0
        print(f"  c={c}: captured ({lo:.4f}, {hi:.6f}]   oracle endpoint {target:.6f}")

print("\n-- descent certificate for subcritical drivings --")
for c in (1.0, 2.0, 3.0):
    spec = DrivingSpec("sqrt_approach", {"c": c}, 1.0)
    xi = FrameDriving(spec)
    descent = 4.0 - c if c >= 2 else 4.0 / c
    cert = no_capture_certificate(xi, 0.0, 1.01 * c / descent)
    print(f"  c={c}: certificate holds = {cert.holds} "
          f"(integral {cert.integral:.3f} >= threshold {cert.threshold:.3f})")
