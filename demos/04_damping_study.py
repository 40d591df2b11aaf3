"""Simulating an amplitude damping channel with damping-Choi ports.

The diamond norm from the target channel is known exactly at two resource
parameters; between them it is bracketed by the trace norm and a partial-trace
bound, and located numerically by a concave search over the input marginal.
"""

import numpy as np

from pbtsim import (ad_choi, ad_known_points, diamond_bounds, diamond_numeric,
                    pbt_ad_choi, trace_min_location, trace_norm, xi)

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
    lower, upper = diamond_bounds(out, target)
    numeric = diamond_numeric(out, target)
    print(f"{p1:.2f}   {trace_norm(out, target):.6f}  {lower:.6f}  {upper:.6f}  {numeric:.6f}")

print("\nAt high p0 the trace-norm minimum leaves the closed-form location:")
for p0 in (0.85, 0.95):
    print(f"  p0={p0}: minimum at {trace_min_location(n, p0):.6f}, "
          f"formula value {(2 * p0 - x) / (2 - x):.6f}")
