"""Reference formulas the tests check the package against; no package code reads them."""

import numpy as np

from starpinch.spaceform import SpaceFormModel, chart_norm_sq, radius_from_chart_norm, s_delta
from starpinch.symfun import newton_gap, partial_H_extremes, umbilicity_defect_sq


def sharpened_newton_gap(kappa, k: int, c_n: float) -> np.ndarray:
    """Newton gap minus c_n * tau^2 * H_{k+1;n,1}^2 (the sharpened estimate)."""
    kappa = np.sort(np.asarray(kappa, dtype=float), axis=-1)
    gap = newton_gap(kappa, k)
    return gap - c_n * umbilicity_defect_sq(kappa) * partial_H_extremes(k + 1, kappa) ** 2


def position_vector(x, model: SpaceFormModel):
    """Chart components of Z = s_delta(r) grad r (the conformal position field).

    The h-norm of Z equals s_delta(r); in the flat case Z is the Euclidean
    position vector.  At the origin Z = 0.
    """
    x = np.asarray(x, dtype=float)
    s = np.sqrt(chart_norm_sq(x))
    model.require_norms_inside(s)
    r = radius_from_chart_norm(s, model.delta)
    # grad r has h-norm 1; in chart components it is e^{-phi} x/|x|
    q = model.conformal_factor(x)
    safe_s = np.where(s > 0.0, s, 1.0)
    scale = np.where(s > 0.0, s_delta(r, model.delta) * q / safe_s, 0.0)
    return np.asarray(scale)[..., None] * x
