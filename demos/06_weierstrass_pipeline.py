"""Weierstrass driving: norm bounds, offset ratios, and the quasislit run.

The cosine series W_b(t) = sum cos(b^n t)/b^{n/2} has 1/2-Hölder norm at
most C(b) = b/(sqrt(b)-1) + 2/(1-1/sqrt(b)) ~ sqrt(b), yet its increments
at the period-aligned offsets 2 pi / b^{m-1} are only O(1/sqrt(b)).  A
small multiple c W_b therefore has a tiny liminf exponent and a modest
limsup exponent at every time, the regime in which the trace is a simple
quasislit curve: the pipeline checks the margins, reconstructs the trace,
tests simplicity, and extracts welding ratio statistics.
"""

from loewner.weierstrass import (
    WeierstrassParams,
    norm_bound_check,
    norm_constant,
    offset_constant,
    offset_ratio_check,
    quasislit_pipeline,
)

print("-- bound constants --")
for b in (9.0, 16.0, 25.0, 100.0):
    print(f"  b = {b:5.0f}: C(b) = {norm_constant(b):7.4f}, "
          f"offset bound = {offset_constant(b):.4f}")

print("\n-- sweep: estimates against proven bounds --")
for b in (9.0, 16.0, 100.0):
    p = WeierstrassParams(b=b, N=8, c=1.0)
    rn = norm_bound_check(p)
    ro = offset_ratio_check(p, 1.0, range(2, 9))
    print(f"  b = {b:5.0f}: norm est {rn.estimate:.4f} <= {rn.bound:.4f};  "
          f"offset max {ro.max_ratio:.4f} < {ro.bound:.4f}")

print("\n-- quasislit pipeline at small amplitude --")
v = quasislit_pipeline(WeierstrassParams(b=100.0, N=4, c=0.05), dt=2e-3)
print(f"  margins: 2 - a = {v.margin_small:.4f}, a + 4/a - b = {v.margin_oscillation:.2f}")
print(f"  trace simple: {v.simple}")
print(f"  welding ratio1 range: {v.welding_table.ratio1_range}")

print("\n-- amplitude too large: hypotheses rejected --")
try:
    quasislit_pipeline(WeierstrassParams(b=100.0, N=4, c=2.0))
except Exception as exc:
    print(f"  {type(exc).__name__}: {exc}")
