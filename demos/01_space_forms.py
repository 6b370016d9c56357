#!/usr/bin/env python3
"""Tour of the three space forms in their shared conformal ball chart.

Shows the c/s kernels, geodesic radii vs chart radii, and closed-form
distances validated against ray integration and the triangle inequality.
"""

import numpy as np

from starpinch.spaceform import (SpaceFormModel, c_delta, chart_radius,
                                 geodesic_distance, geodesic_radius, s_delta)

print("=" * 72)
print("Kernel identity c^2 + delta s^2 = 1 across curvatures")
print("=" * 72)
t = np.linspace(0.0, 3.0, 7)
for delta in (-1.0, -0.25, 0.0, 0.25, 1.0):
    resid = c_delta(t, delta) ** 2 + delta * s_delta(t, delta) ** 2 - 1.0
    print(f"  delta={delta:+.2f}: max |c^2 + delta s^2 - 1| = {np.max(np.abs(resid)):.2e}")

print()
print("=" * 72)
print("Chart radius vs geodesic radius (the chart compresses curved space)")
print("=" * 72)
print(f"  {'geodesic r':>10}  {'chart |x| d=-1':>14}  {'chart |x| d=0':>13}  {'chart |x| d=+1':>14}")
for r in (0.25, 0.5, 1.0, 1.5):
    row = [chart_radius(r, SpaceFormModel(delta=d, ambient_dim=3)) for d in (-1.0, 0.0, 1.0)]
    print(f"  {r:>10.2f}  {row[0]:>14.6f}  {row[1]:>13.6f}  {row[2]:>14.6f}")

print()
print("=" * 72)
print("Closed-form distance vs Simpson integration of the line element")
print("=" * 72)
x = np.array([0.6, 0.0, 0.0])
for delta in (-1.0, 1.0):
    model = SpaceFormModel(delta=delta, ambient_dim=3)
    closed = geodesic_radius(x, model)
    s_grid = np.linspace(0.0, 0.6, 2001)
    integrand = 1.0 / model.conformal_factor(s_grid[:, None])
    w = np.ones_like(s_grid)
    w[1:-1:2], w[2:-1:2] = 4.0, 2.0
    simpson = float(np.sum(w * integrand) * (s_grid[1] - s_grid[0]) / 3.0)
    print(f"  delta={delta:+}: closed form {closed:.12f}, ray integral {simpson:.12f}, "
          f"difference {abs(closed - simpson):.2e}")

print()
print("=" * 72)
print("Triangle inequality spot check")
print("=" * 72)
rng = np.random.Generator(np.random.Philox(1))
pts = rng.uniform(-0.5, 0.5, size=(3, 3))
for delta in (-1.0, 0.0, 1.0):
    model = SpaceFormModel(delta=delta, ambient_dim=3)
    d01 = geodesic_distance(pts[0], pts[1], model)
    d12 = geodesic_distance(pts[1], pts[2], model)
    d02 = geodesic_distance(pts[0], pts[2], model)
    print(f"  delta={delta:+}: d02 - (d01 + d12) = {d02 - (d01 + d12):+.3e} (<= 0)")
