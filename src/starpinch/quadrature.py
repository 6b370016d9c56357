"""High-order quadrature on the parameter sphere and exact surface integrals.

S^2 rules are Gauss-Legendre in the polar cosine tensored with a uniform
periodic rule in azimuth (twice as many azimuthal nodes); S^3 rules add a
Gauss-Chebyshev (second kind) layer for the sin^2 polar weight.  Weights
are positive and sum to the sphere area, and spherical polynomials up to
the rule order integrate exactly.

Surface integrals read one batch of ``RadialSurface.fields(rule)``, which
carries the rule's weights, with its h-metric area element and an
exactly rounded sum, so results depend neither on the order of the nodes
nor on worker-thread count.  ``_reduce`` gives the float that math.fsum
gives, without a Python loop: np.frexp writes each value as an integer
significand of 53 bits times a power of two, the significand is split into
its high 26 and low 27 bits, and np.bincount sums each half per exponent, in
chunks that stay in cache.  Those sums are integers below 2^53, so they are
exact, and each one scaled by its power of two is exact too; math.fsum of these
few terms is then the correctly rounded total.  Non-finite values, exponents
within 60 of the float64 limits, and arrays of at most 512 or more than 2^26
values go to math.fsum directly.

``refinement_estimate`` is the one refinement estimate of the package: any
scalar functional of the surface (an integral, a norm, an identity
residual, a node maximum) carries the difference against the doubled-order
rule, read block by block and never cached, as its refinement error.
Volume-normalized means and L^p norms are ``pinch.batch_mean`` and ``lp_norm``.
"""

from __future__ import annotations

import functools
import math
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .surface import B_sup_norm, RadialSurface


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
    check_value: float  # on the rule of doubled order


@dataclass(frozen=True)
class RuleMeasure:
    """What integrals read of the streamed doubled rule, and its B_sup if the pass solved it."""
    area_element: np.ndarray
    area_element_euclid: np.ndarray
    weights: np.ndarray
    B_sup: float | None
    volumes: dict = field(default_factory=dict)  # euclidean -> volume, as on SurfaceBatch


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


# at most 2^26 values: per-exponent sums of 26- and 27-bit integers stay below 2^53;
# math.fsum is faster up to _FSUM_TERMS values, and the temporaries of _CHUNK stay in cache
_EXACT_TERMS, _FSUM_TERMS, _CHUNK = 2**26, 512, 8192


def _reduce(values: np.ndarray) -> float:
    """Exactly rounded sum, bitwise equal to math.fsum (see the module docstring)."""
    if _FSUM_TERMS < len(values) <= _EXACT_TERMS and np.isfinite(values).all():
        sums, low, high = np.zeros((2, 2099)), 1024, -1073  # by frexp exponent + 1074
        for start in range(0, len(values), _CHUNK):
            significand, exponent = np.frexp(values[start:start + _CHUNK])
            lo, hi = int(exponent.min()), int(exponent.max())
            top = np.trunc(significand * 2.0**26)
            bucket, span = exponent - lo, slice(lo + 1074, hi + 1075)
            sums[0, span] += np.bincount(bucket, weights=top)
            sums[1, span] += np.bincount(bucket, weights=significand * 2.0**53 - top * 2.0**27)
            low, high = min(low, lo), max(high, hi)
        if low > -1021 + 60 and high < 1024 - 60:
            scale = np.arange(low - 53, high - 52)
            terms = np.ldexp(sums[:, low + 1074:high + 1075], [scale + 27, scale])
            return math.fsum(terms.ravel().tolist())
    return math.fsum(values.tolist())


def integrate_batch(batch, values, *, euclidean: bool = False) -> float:
    """Fixed-order reduction of sum f * area_element * weight over a batch or RuleMeasure."""
    if batch.weights is None:
        raise ValueError("the batch carries no rule weights; integrate surface.fields(rule)")
    area = batch.area_element_euclid if euclidean else batch.area_element
    return _reduce(np.asarray(values, dtype=float) * area * batch.weights)


def batch_volume(batch, *, euclidean: bool = False) -> float:
    """integrate_batch of ones, reduced once per batch and kept on it."""
    if euclidean not in batch.volumes:
        ones = np.ones(len(batch.area_element))
        batch.volumes[euclidean] = integrate_batch(batch, ones, euclidean=euclidean)
    return batch.volumes[euclidean]


def refinement_estimate(surface: RadialSurface, rule: SphericalRule, columns, combine, *,
                        sup: bool = False) -> tuple:
    """Scalar functionals of the surface with their refinement errors.

    ``columns(batch)`` gives a tuple of node arrays and ``combine(measure, *columns)`` a tuple
    of values from them: first on the cached batch of ``rule`` itself, then on a
    ``RuleMeasure`` of the doubled rule (with ``B_sup`` if ``sup``), whose batch is never
    built: a block is dropped once its area elements and columns are copied out, and sums
    keep a batch's bits.
    """
    batch, check = surface.fields(rule), build_rule(rule.n, 2 * rule.order)
    base, stacked = combine(batch, *columns(batch)), []

    def copy_out(block):  # area elements and columns, into their rows of stacked
        values = (block.area_element, block.area_element_euclid, *columns(block))
        if not stacked:
            stacked.extend(np.empty((len(values), len(check.weights))))
        for row, value in zip(stacked, values):
            row[block.start:block.start + len(block.rho)] = value
        return block

    passing = map(copy_out, surface.blocks(check))
    B_sup = B_sup_norm(passing) if sup else None
    deque(passing, maxlen=0)  # the pass itself, where B_sup_norm has not made it
    doubled = combine(RuleMeasure(*stacked[:2], check.weights, B_sup), *stacked[2:])
    return tuple(IntegralEstimate(a, abs(a - b), b) for a, b in zip(base, doubled))
