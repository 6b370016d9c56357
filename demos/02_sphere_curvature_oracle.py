#!/usr/bin/env python3
"""Geodesic spheres must come out exactly umbilic with kappa = c_d/s_d.

This is the oracle that gates the conformal shape-operator transformation:
the surface machinery never sees the closed form, yet must reproduce it.
"""

import numpy as np

from starpinch.quadrature import build_rule
from starpinch.spaceform import SpaceFormModel, c_delta, chart_radius, s_delta
from starpinch.surface import RadialSurface

rule = build_rule(2, 12)

print(f"{'delta':>6} {'rho_geo':>8} {'expected kappa':>16} {'max |dev|':>12} "
      f"{'support+s_d':>12} {'H_2 > 0':>8}")
print("-" * 68)
for delta in (-1.0, 0.0, 1.0):
    model = SpaceFormModel(delta=delta, ambient_dim=3)
    for rho_geo in (0.3, 0.7, 1.2):
        surf = RadialSurface(n=2, model=model, rho0=chart_radius(rho_geo, model))
        batch = surf.fields(rule)
        expected = c_delta(rho_geo, delta) / s_delta(rho_geo, delta)
        dev = float(np.max(np.abs(batch.kappa - expected)))
        sup_err = float(np.max(np.abs(batch.support + s_delta(rho_geo, delta))))
        H = batch.H
        print(f"{delta:>+6.0f} {rho_geo:>8.2f} {expected:>16.10f} {dev:>12.2e} "
              f"{sup_err:>12.2e} {str(bool(np.min(H[:, 2]) > 0)):>8}")

print()
print("Perturbed surfaces stay starshaped with positive H_2 at small amplitude:")
for amp in (0.05, 0.10):
    surf = RadialSurface(n=2, model=SpaceFormModel(delta=-1.0, ambient_dim=3),
                         rho0=1.0, perturbation=(((3, 1), amp),))
    batch = surf.fields(rule)
    H = batch.H
    print(f"  amplitude {amp:.2f}: kappa range [{batch.kappa.min():.4f}, "
          f"{batch.kappa.max():.4f}], min H_2 = {H[:, 2].min():.4f}, "
          f"support sign constant: {bool(np.all(batch.support < 0))}")
