"""A rank-1 tensor-product resource that beats every damping-Choi resource.

For low target damping, n copies of the pure port sqrt(a)|10> - sqrt(1-a)|01>
simulate the damping channel with a smaller diamond norm than n copies of any
damping channel's Choi state.
"""

import numpy as np

from pbtsim import (ad_choi, ad_known_points, alternate_choi,
                    alternate_known_point, alternate_xyz, diamond_numeric,
                    pbt_ad_choi, xi)

n = 4
print("Output Choi entries for the alternate family (x, y, z):")
for a in (0.5, 0.6, 0.8, 1.0):
    v = alternate_xyz(n, a)
    print(f"  a={a:.1f}: x={v.x:.6f} y={v.y:.6f} z={v.z:.6f}")
print("at a = 1/2 this is the depolarising point: x = 1/2 - xi/4 =",
      0.5 - xi(n) / 4)

p0 = 0.36
kp = ad_known_points(n, p0)
a_known, d2 = alternate_known_point(n, p0)
print(f"\ntarget damping p0={p0}:")
print(f"  damping-resource known points: {kp.d0:.6f} and {kp.d1:.6f}")
print(f"  alternate known point (a={a_known:.6f}): {d2:.6f}  <- lower than both")

target = ad_choi(p0, "plus")
best_choi = min(
    diamond_numeric(pbt_ad_choi(n, float(p1)), target)
    for p1 in np.arange(0.0, p0, 0.02)
)
best_alt = min(
    diamond_numeric(alternate_choi(n, float(a)), target)
    for a in np.arange(0.5, 0.76, 0.02)
)
print(f"\nsweep minima: damping-Choi resources {best_choi:.6f}, "
      f"alternate resources {best_alt:.6f}")
print(f"advantage: {best_choi - best_alt:.12g}")
