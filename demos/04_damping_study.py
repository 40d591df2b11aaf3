"""Simulating an amplitude damping channel with damping-Choi ports.

The diamond norm from the target channel is known exactly at two resource
parameters; between them it is bracketed by the trace norm and a partial-trace
bound, and located numerically by a concave search over the input marginal.
One ``diamond`` call per row gives the bounds and the value.
"""

import numpy as np

from pbtsim import (ad_choi, ad_known_points, diamond, pbt_ad_choi,
                    trace_min_location, trace_norm, xi)

n, p0 = 4, 0.36
x = xi(n)
kp = ad_known_points(n, p0)
print(f"n={n}, target damping p0={p0} (xi = {x:.6f})")
print(f"known point p1 = p0:              diamond = {kp.d0:.9f}")
print(f"known point p1 = (p0-xi)/(1-xi) = {kp.p1_b:.6f}: diamond = {kp.d1:.9f}")
print(f"trace-norm minimum sits at p1 = {trace_min_location(n, p0):.9f}"
      f" (= (2 p0 - xi)/(2 - xi) in this regime)")

print("\np1      trace     lower==   upper     numeric")
target = ad_choi(p0, "plus")
for p1 in np.arange(0.0, 0.40001, 0.05):
    out = pbt_ad_choi(n, float(p1))
    d = diamond(out, target)
    print(f"{p1:.2f}   {trace_norm(out, target):.6f}  {d.lower:.6f}  {d.upper:.6f}  {d.value:.6f}")

print("\nAt high p0 the trace-norm minimum leaves the closed-form location:")
for p0 in (0.85, 0.95):
    print(f"  p0={p0}: minimum at {trace_min_location(n, p0):.6f}, "
          f"formula value {(2 * p0 - x) / (2 - x):.6f}")
