#!/usr/bin/env python3
"""One full stability run: hypotheses, constants, sphere fit, Hausdorff bound.

Takes a perturbed geodesic sphere in hyperbolic space, measures how far
its second-order mean curvature is from constant, evaluates the whole
constant chain K1 -> K2 -> K3 -> eps1, fits the nearest geodesic sphere
and compares the Hausdorff distance against C |eps|_1^gamma.

The black-box constants (eps0, c_RS, alpha) are configuration; eps0 = 10
is a demonstration value that makes the conditional bound applicable at
these amplitudes.  Every run prints them, so nothing poses as derived.
run_pinch raises NumericalError when dH exceeds the bound, so a returned
report always holds it; the last line says by how much.
"""

from starpinch.constants import ConstantsConfig
from starpinch.pinch import RunSettings, report_text, run_pinch
from starpinch.spaceform import SpaceFormModel
from starpinch.surface import RadialSurface

model = SpaceFormModel(delta=-1.0, ambient_dim=4)
surface = RadialSurface(n=3, model=model, rho0=0.9,
                        perturbation=(("u1u2", 0.03), ("u1^2-u4^2", 0.015)))
settings = RunSettings(quad_order=8, constants=ConstantsConfig(eps0=10.0))

report = run_pinch(surface, r=2, settings=settings)
print(report_text(report))

print("Reading the report:")
print(f"  deviation from constant H_2:  |eps|_1 = {report.eps_l1:.5f} "
      f"(threshold eps1 = {report.constants.eps1:.3f})")
print(f"  umbilicity defect:            |tau|_2 = {report.tau_l2:.5f}")
print(f"  fitted geodesic sphere:       rho0 = {report.rho0:.6f}, "
      f"rms = {report.fit_rms:.2e}")
print(f"  Hausdorff distance vs bound:  {report.dH:.5f} <= {report.bound:.5f} "
      f"(margin bound - dH = {report.bound - report.dH:.5f})")
