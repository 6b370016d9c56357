#!/usr/bin/env python3
"""Spectral decay of the Hsiung-Minkowski residuals under rule refinement.

The integral identity int (H_{k+1} <Z,nu> + c_d(r) H_k) dv = 0 holds for
every closed starshaped hypersurface of a space form; on smooth radial
graphs the only error is quadrature, so the normalized residual must fall
by orders of magnitude per order doubling until it hits the float floor.
"""

from dataclasses import replace

from starpinch.identities import hsiung_minkowski_residual
from starpinch.quadrature import build_rule
from starpinch.spaceform import SpaceFormModel
from starpinch.surface import RadialSurface

PERTURBATION = (((3, 1), 0.10), ((2, 0), 0.05))


class FlippedSurface(RadialSurface):
    """The same surface with the support pairing <Z, nu> negated at every node."""

    def fields(self, rule):
        batch = super().fields(rule)
        return replace(batch, support=-batch.support)

    def blocks(self, rule):  # the doubled rule's blocks, which refinement errors read
        return (replace(block, support=-block.support) for block in super().blocks(rule))


for delta in (-1.0, 0.0, 1.0):
    model = SpaceFormModel(delta=delta, ambient_dim=3)
    surf = RadialSurface(n=2, model=model, rho0=1.0, perturbation=PERTURBATION)
    print(f"delta = {delta:+}")
    print(f"  {'order':>6} {'|residual| k=0':>16} {'|residual| k=1':>16}")
    for order in (6, 8, 12, 16, 24, 32):
        vals = [abs(hsiung_minkowski_residual(surf, k, build_rule(2, order)).value)
                for k in (0, 1)]
        print(f"  {order:>6} {vals[0]:>16.3e} {vals[1]:>16.3e}")
    print()

print("A deliberately flipped normal breaks the identity loudly:")
rule = build_rule(2, 16)
for label, cls in (("correct orientation", RadialSurface), ("flipped support", FlippedSurface)):
    surf = cls(n=2, model=SpaceFormModel(delta=0.0, ambient_dim=3), rho0=1.0,
               perturbation=PERTURBATION)
    rep = hsiung_minkowski_residual(surf, 0, rule)
    print(f"  {label + ':':<20} residual = {rep.value:+.3e} (pass={rep.passed})")
