"""High-order quadrature on the parameter sphere and surface L^p norms.

S^2 rules are Gauss-Legendre in the polar cosine tensored with a uniform
periodic rule in azimuth (twice as many azimuthal nodes); S^3 rules add a
Gauss-Chebyshev (second kind) layer for the sin^2 polar weight.  Weights
are positive and sum to the sphere area, and spherical polynomials up to
the rule order integrate exactly.

Surface integrals use the h-metric area element of the batch and a
compensated fixed-order reduction (math.fsum), so results do not depend on
worker-thread count.  ``refinement_estimate`` is the one refinement
estimate of the package: any scalar functional of the surface (an
integral, a norm, an identity residual) carries the difference against the
doubled-order rule as its refinement error.

L^p norms follow the volume-normalized convention

    |f|_p = ( (1/V) \\int |f|^p dv )^(1/p),

so constants have norm |c| on any surface.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .surface import RadialSurface, SurfaceBatch


@dataclass(frozen=True)
class SphericalRule:
    """Positive quadrature rule on the parameter n-sphere."""

    n: int
    order: int
    nodes: np.ndarray    # (N, n+1) unit vectors
    weights: np.ndarray  # (N,) positive, summing to the sphere area

    def __post_init__(self):
        object.__setattr__(self, "nodes", np.asarray(self.nodes, dtype=float))
        object.__setattr__(self, "weights", np.asarray(self.weights, dtype=float))


@dataclass(frozen=True)
class IntegralEstimate:
    value: float
    refinement_error: float


def sphere_area(n: int) -> float:
    """Area of the unit n-sphere."""
    return 2.0 * math.pi ** ((n + 1) / 2.0) / math.gamma((n + 1) / 2.0)


@functools.lru_cache(maxsize=8)
def build_rule(n: int, order: int) -> SphericalRule:
    """Tensor rule of the given polar order on S^2 or S^3 (memoized, read-only)."""
    if order < 4:
        raise ValueError("order must be at least 4")
    if n not in (2, 3):
        raise ValueError(f"unsupported parameter sphere dimension n={n} (only 2 and 3)")
    rule = _rule_s2(order) if n == 2 else _rule_s3(order)
    rule.nodes.flags.writeable = rule.weights.flags.writeable = False
    return rule


def _rule_s2(order: int) -> SphericalRule:
    cos_t, w_t = np.polynomial.legendre.leggauss(order)
    m_az = 2 * order
    phi = 2.0 * math.pi * np.arange(m_az) / m_az
    w_az = 2.0 * math.pi / m_az
    sin_t = np.sqrt(1.0 - cos_t**2)
    x = np.outer(sin_t, np.cos(phi)).ravel()
    y = np.outer(sin_t, np.sin(phi)).ravel()
    z = np.repeat(cos_t, m_az)
    nodes = np.column_stack([x, y, z])
    weights = np.repeat(w_t, m_az) * w_az
    return SphericalRule(n=2, order=order, nodes=nodes, weights=weights)


def _rule_s3(order: int) -> SphericalRule:
    # Gauss-Chebyshev (2nd kind) handles the sin^2 polar weight exactly
    k = np.arange(1, order + 1)
    theta = k * math.pi / (order + 1)
    cos_1 = np.cos(theta)
    w_1 = (math.pi / (order + 1)) * np.sin(theta) ** 2
    inner = _rule_s2(order)
    sin_1 = np.sqrt(1.0 - cos_1**2)
    nodes = np.empty((order * len(inner.weights), 4))
    nodes[:, :3] = np.repeat(sin_1, len(inner.weights))[:, None] * np.tile(
        inner.nodes, (order, 1)
    )
    nodes[:, 3] = np.repeat(cos_1, len(inner.weights))
    weights = np.repeat(w_1, len(inner.weights)) * np.tile(inner.weights, order)
    return SphericalRule(n=3, order=order, nodes=nodes, weights=weights)


def _reduce(values: np.ndarray) -> float:
    """Exactly rounded sum; independent of evaluation order and threading."""
    return math.fsum(values.tolist())


def integrate_batch(batch: SurfaceBatch, values, rule: SphericalRule,
                    euclidean: bool = False) -> float:
    """Fixed-order reduction of sum f * area_element * weight."""
    area = batch.area_element_euclid if euclidean else batch.area_element
    return _reduce(np.asarray(values, dtype=float) * area * rule.weights)


def refinement_estimate(surface: RadialSurface, rule: SphericalRule,
                        functional) -> IntegralEstimate:
    """A scalar functional of the surface with its refinement error.

    ``functional(batch, rule)`` is evaluated on ``rule`` and on the rule of
    doubled order; the value is the base-rule one and the refinement error
    is the magnitude of the difference between the two.
    """
    fine_rule = build_rule(rule.n, 2 * rule.order)
    v0 = functional(surface.fields(rule), rule)
    v1 = functional(surface.fields(fine_rule), fine_rule)
    return IntegralEstimate(value=v0, refinement_error=abs(v0 - v1))


def surface_integral(surface: RadialSurface, f, rule: SphericalRule,
                     euclidean: bool = False) -> IntegralEstimate:
    """Integral of a node-wise field over the surface with refinement error.

    ``f`` maps a SurfaceBatch to an array of node values.
    """
    return refinement_estimate(
        surface, rule,
        lambda batch, rl: integrate_batch(batch, f(batch), rl, euclidean=euclidean))


def surface_volume(surface: RadialSurface, rule: SphericalRule,
                   euclidean: bool = False) -> IntegralEstimate:
    return surface_integral(surface, lambda b: np.ones(len(b.rho)), rule,
                            euclidean=euclidean)


def lp_norm(surface: RadialSurface, f, p: float, rule: SphericalRule) -> float:
    """Volume-normalized L^p norm of a node-wise field."""
    if p < 1.0:
        raise ValueError("p must be at least 1")
    batch = surface.fields(rule)
    vol = integrate_batch(batch, np.ones(len(batch.rho)), rule)
    power = integrate_batch(batch, np.abs(np.asarray(f(batch), dtype=float)) ** p, rule)
    return (power / vol) ** (1.0 / p)
