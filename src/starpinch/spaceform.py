"""Constant-curvature ambient spaces as conformally flat balls.

The three simply connected space forms of curvature ``delta`` (Euclidean,
hyperbolic, spherical) are realized on a single chart: the open ball of
radius ``2/sqrt(|delta|)`` (all of R^(n+1) when ``delta == 0``) carrying
the metric

    h = e^{2 phi} h_euclid,   e^{-phi} = q = 1 + (delta/4) |x|^2.

For ``delta > 0`` this chart covers exactly the open upper half-sphere.
Points are plain numpy arrays of chart coordinates; the model object only
carries ``delta`` and the ambient dimension, and its ``conformal_factor``
(of points or of squared chart norms) is the one place q is computed.  All
distances are closed forms in the chart, validated in the tests against ray
integration of the conformal line element.  The position field Z = s_delta(r)
grad r enters only as the support <Z, nu> = -s_delta(r) rho/W in ``surface``.

``chart_norm_sq`` is the one place a sum over chart coordinates is written: a
left fold of column products, x_0 x_0 + x_1 x_1 + ...  np.sum over fewer than 8
terms adds in the same order from 0, so below 8 coordinates the fold has its bits
(but for the sign of a nan from a row holding nans of both signs) in any memory
layout, without its (N, d) product and at a fraction of its cost on (N, 3) or
(N, 4) points.  At 8 terms and more np.sum adds pairwise and the bits differ.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import HypothesisError


@dataclass(frozen=True)
class SpaceFormModel:
    """Ambient space form M^(n+1)(delta) in its conformal ball chart."""

    delta: float
    ambient_dim: int

    def __post_init__(self):
        if not math.isfinite(self.delta):
            raise ValueError(f"delta must be finite, got {self.delta}")
        if self.ambient_dim < 3:
            raise ValueError("ambient_dim must be at least 3 (hypersurface dim >= 2)")

    @property
    def model_radius(self) -> float:
        """Chart radius: 2/sqrt(|delta|), infinite in the flat case."""
        if self.delta == 0.0:
            return math.inf
        return 2.0 / math.sqrt(abs(self.delta))

    def conformal_factor(self, x):
        """q = e^{-phi} = 1 + (delta/4)|x|^2; the metric is h_euclid / q^2."""
        x = np.asarray(x, dtype=float)
        return self.conformal_factor_of_norm_sq(chart_norm_sq(x))

    def conformal_factor_of_norm_sq(self, norm_sq):
        """conformal_factor from the squared chart norms |x|^2."""
        return 1.0 + 0.25 * self.delta * norm_sq

    def require_norms_inside(self, norms, margin: float = 0.0):
        """Raise if any point, given by its chart norm |x|, leaves the chart domain."""
        if self.delta != 0.0 and np.any(norms >= self.model_radius * (1.0 - margin)):
            where = "chart of the upper half-sphere" if self.delta > 0.0 else "conformal ball"
            raise HypothesisError(
                f"point outside the {where} "
                f"(|x| up to {float(np.max(norms)):.6g}, chart radius {self.model_radius:.6g})"
            )


def chart_norm_sq(x):
    """|x|^2 over the last axis, the chart coordinates, as a left fold of column products."""
    x = np.asarray(x, dtype=float)
    out = x[..., 0] * x[..., 0]
    for i in range(1, x.shape[-1]):
        out += x[..., i] * x[..., i]
    return out


# the closed forms stay within about 1 ulp of their flat limits as
# delta t^2 -> 0 (cos, cosh -> 1; sin(kt)/k, sinh(kt)/k -> t), so the
# kernels are continuous across delta = 0
def c_delta(t, delta: float):
    """Cosine-like kernel: cos(sqrt(delta) t) / 1 / cosh(sqrt(-delta) t)."""
    t = np.asarray(t, dtype=float)
    if delta > 0.0:
        out = np.cos(np.sqrt(delta) * t)
    elif delta < 0.0:
        out = np.cosh(np.sqrt(-delta) * t)
    else:
        out = np.ones_like(t)
    return out if out.ndim else float(out)


def s_delta(t, delta: float):
    """Sine-like kernel: the solution of f'' + delta f = 0, f(0)=0, f'(0)=1."""
    t = np.asarray(t, dtype=float)
    if delta > 0.0:
        rt = np.sqrt(delta)
        out = np.sin(rt * t) / rt
    elif delta < 0.0:
        rt = np.sqrt(-delta)
        out = np.sinh(rt * t) / rt
    else:
        out = t.copy()
    return out if out.ndim else float(out)


def geodesic_radius(x, model: SpaceFormModel):
    """Distance from the chart origin, r(x) = d(p0, x)."""
    x = np.asarray(x, dtype=float)
    s = np.sqrt(chart_norm_sq(x))
    model.require_norms_inside(s)
    r = radius_from_chart_norm(s, model.delta)
    return r if np.ndim(r) else float(r)


def radius_from_chart_norm(s, delta: float):
    """geodesic_radius from the chart norms s = |x|."""
    s = np.asarray(s, dtype=float)
    if delta == 0.0:
        return s
    k = math.sqrt(abs(delta))
    if delta > 0.0:
        return (2.0 / k) * np.arctan(0.5 * k * s)
    return (2.0 / k) * np.arctanh(0.5 * k * s)


def chart_radius(r, model: SpaceFormModel):
    """Inverse of geodesic_radius along a ray: chart norm of a point at distance r."""
    r = np.asarray(r, dtype=float)
    delta = model.delta
    if delta == 0.0:
        out = r
    else:
        k = math.sqrt(abs(delta))
        if delta > 0.0:
            if np.any(np.abs(r) >= 0.5 * math.pi * (2.0 / k)):
                raise HypothesisError("geodesic radius exceeds the upper half-sphere chart")
            out = (2.0 / k) * np.tan(0.5 * k * r)
        else:
            out = (2.0 / k) * np.tanh(0.5 * k * r)
    return out if np.ndim(out) else float(out)


def geodesic_distance(x, y, model: SpaceFormModel):
    """Distance in the space-form metric between chart points (broadcasting)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    delta = model.delta
    if delta == 0.0:
        d = np.sqrt(chart_norm_sq(x - y))
        return d if np.ndim(d) else float(d)
    model.require_norms_inside(np.sqrt(chart_norm_sq(x)))
    model.require_norms_inside(np.sqrt(chart_norm_sq(y)))
    k = math.sqrt(abs(delta))
    u = 0.5 * k * x
    v = 0.5 * k * y
    du2 = chart_norm_sq(u - v)
    u2 = chart_norm_sq(u)
    v2 = chart_norm_sq(v)
    if delta < 0.0:
        # Poincare ball at unit scale: acosh(1 + 2|u-v|^2 / ((1-|u|^2)(1-|v|^2)))
        w = 2.0 * du2 / ((1.0 - u2) * (1.0 - v2))
        d = np.log1p(w + np.sqrt(w * (w + 2.0))) / k
    else:
        # stereographic chart of the round sphere: chordal to arc length
        arg = np.sqrt(du2 / ((1.0 + u2) * (1.0 + v2)))
        d = 2.0 * np.arcsin(np.clip(arg, 0.0, 1.0)) / k
    return d if np.ndim(d) else float(d)

