"""Numerical pipeline for curvature pinching of starshaped hypersurfaces.

Modules: spaceform (conformal ball models of the three space forms),
symfun (symmetric-function calculus on curvature arrays, batched along
the last axis), surface (radial graphs and pointwise extrinsic data),
quadrature (sphere rules and exact sums), constants (the explicit
constant chain K1..K3, eps1 and the stability bound), identities (normalized
means and L^p norms, the refinement estimate and residual checks for the
integral identities and inequality chain), pinch (the stability experiment)
and cli (the front end).
"""

from .constants import ConstantsConfig, ProofConstants, final_bound
from .errors import ConfigError, HypothesisError, NumericalError, StarpinchError
from .identities import lp_norm
from .pinch import PinchReport, RunSettings, fit_geodesic_sphere, run_pinch, scaling_study
from .quadrature import SphericalRule, build_rule
from .spaceform import SpaceFormModel, c_delta, geodesic_distance, geodesic_radius, s_delta
from .surface import RadialSurface, starshape_report
from .symfun import elementary_symmetric, partial_H_extremes

__all__ = [
    "ConstantsConfig",
    "ProofConstants",
    "final_bound",
    "ConfigError",
    "HypothesisError",
    "NumericalError",
    "StarpinchError",
    "PinchReport",
    "RunSettings",
    "fit_geodesic_sphere",
    "run_pinch",
    "scaling_study",
    "SphericalRule",
    "build_rule",
    "lp_norm",
    "SpaceFormModel",
    "c_delta",
    "geodesic_distance",
    "geodesic_radius",
    "s_delta",
    "RadialSurface",
    "starshape_report",
    "elementary_symmetric",
    "partial_H_extremes",
]

__version__ = "0.1.0"
