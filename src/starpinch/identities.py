"""Numerical residuals for the integral identities and inequality chain.

Every check reads the H_k, tau^2 and other fields of ``surface.fields(rule)``,
the batch the integrals read; pointwise checks report their worst node.
Each check returns a ResidualReport.  An identity passes when |value| is at
most its fixed tolerance, an inequality when its gap is at least minus that
tolerance.  The quadrature refinement error (base rule vs doubled rule) is
reported next to the value and never widens the verdict.  Integral
residuals are volume-normalized so tolerances compare across surfaces of
different size.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import HypothesisError
# build_rule stays importable here: bench/tracing.py wraps it at this name
from .quadrature import (SphericalRule, batch_volume, build_rule,  # noqa: F401
                         integrate_batch, refinement_estimate)
from .spaceform import c_delta
from .surface import B_sup_norm, RadialSurface

IDENTITY = "identity"
INEQUALITY = "inequality"

INTEGRAL_TOLERANCE = 1e-8   # volume-normalized integral identities and gaps
ALGEBRAIC_TOLERANCE = 1e-12  # worst-node Gauss identity, relative to |S|^2
LEMMA_TOLERANCE = 1e-10     # worst-node tau^2 bound


@dataclass(frozen=True)
class ResidualReport:
    name: str
    value: float
    tolerance: float
    refinement_error: float
    kind: str = IDENTITY

    @property
    def passed(self) -> bool:
        if self.kind == IDENTITY:
            return abs(self.value) <= self.tolerance
        return self.value >= -self.tolerance


def residual_table(reports) -> str:
    """CSV text with columns name, value, tolerance, refinement_error, pass."""
    lines = ["name,value,tolerance,refinement_error,pass"]
    for rep in reports:
        lines.append(f"{rep.name},{rep.value!r},{rep.tolerance!r},"
                     f"{rep.refinement_error!r},{rep.passed}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------


def _mean(batch, values) -> float:
    """Volume-normalized integral (1/V) int values dv over a rule's batch."""
    return integrate_batch(batch, values) / batch_volume(batch)


def hsiung_minkowski_residual(surface: RadialSurface, k: int,
                              rule: SphericalRule) -> ResidualReport:
    """Normalized residual of int (H_{k+1} <Z,nu> + c_d(r) H_k) dv = 0."""
    if not 0 <= k <= surface.n - 1:
        raise ValueError(f"k must lie in [0, n-1], got {k}")
    delta = surface.model.delta

    def integrand(batch):
        H = batch.H
        return H[:, k + 1] * batch.support + c_delta(batch.r, delta) * H[:, k]

    est = refinement_estimate(surface, rule, lambda b: _mean(b, integrand(b)))
    return ResidualReport(name=f"hsiung_minkowski_k{k}", value=est.value,
                          tolerance=INTEGRAL_TOLERANCE, refinement_error=est.refinement_error,
                          kind=IDENTITY)


def gauss_algebraic_check(surface: RadialSurface, rule: SphericalRule) -> ResidualReport:
    """Worst relative residual of tau^2 = n(n-1)(H^2 - H_2) over the rule's nodes.

    Reads the H_k and tau^2 of ``surface.fields(rule)``, the fields every
    integral reads.  Relative to the shape-operator scale |S|^2 =
    sum kappa_i^2 = n^2 H^2 - n(n-1) H_2 (the term the trace identity
    subtracts); near umbilic points both sides cancel against quantities of
    that size, so it is the meaningful denominator.
    """
    batch = surface.fields(rule)
    n, H = batch.n, batch.H
    rhs = n * (n - 1) * (H[:, 1] ** 2 - H[:, 2])
    s_norm_sq = n * n * H[:, 1] ** 2 - n * (n - 1) * H[:, 2]
    scale = np.maximum(np.maximum.reduce([batch.tau_sq, np.abs(rhs), s_norm_sq]), 1e-300)
    value = float(np.max(np.abs(batch.tau_sq - rhs) / scale))
    return ResidualReport(name="gauss_algebraic", value=value, tolerance=ALGEBRAIC_TOLERANCE,
                          refinement_error=0.0, kind=IDENTITY)


def scalar_curvature(H2: float, n: int, delta: float) -> float:
    """Scal = n(n-1)(H_2 + delta), the trace consequence of the Gauss equation."""
    return n * (n - 1) * (H2 + delta)


def cauchy_schwarz_chain_check(surface: RadialSurface, rule: SphericalRule) -> ResidualReport:
    """Gap |B|_inf^(2n) |tau|_2^2 - |tau|_{n+1}^{2(n+1)} >= 0 (normalized norms)."""
    n = surface.n

    def gap(batch):
        tau = np.sqrt(batch.tau_sq)
        B_sup = B_sup_norm(batch)
        tau2_sq = _mean(batch, tau**2)
        taun = _mean(batch, tau ** (n + 1)) ** (1.0 / (n + 1))
        return B_sup ** (2 * n) * tau2_sq - taun ** (2 * (n + 1))

    est = refinement_estimate(surface, rule, gap)
    return ResidualReport(name="cauchy_schwarz_chain", value=est.value,
                          tolerance=INTEGRAL_TOLERANCE, refinement_error=est.refinement_error,
                          kind=INEQUALITY)


def lemma1_gap(surface: RadialSurface, rule: SphericalRule, r: int,
               K1: float) -> ResidualReport:
    """Worst-node gap K1 (H H_r - H_{r+1}) - tau^2 >= 0 over the rule's nodes."""
    batch = surface.fields(rule)
    H = batch.H
    if np.any(H[:, r + 1] <= 0.0):
        bad = int(np.argmin(H[:, r + 1]))
        raise HypothesisError(
            f"lemma gap needs H_{r+1} > 0 everywhere; node {bad} has {H[bad, r + 1]:.6g}"
        )
    gaps = K1 * (H[:, 1] * H[:, r] - H[:, r + 1]) - batch.tau_sq
    return ResidualReport(name=f"lemma_tau_bound_r{r}", value=float(np.min(gaps)),
                          tolerance=LEMMA_TOLERANCE, refinement_error=0.0, kind=INEQUALITY)


def tau_l2_epsilon_bound(surface: RadialSurface, r: int, h: float, K2: float,
                         rule: SphericalRule) -> ResidualReport:
    """Gap K2 |eps|_1 - |tau|_2^2 >= 0 with eps = H_r - h (normalized)."""
    def eps_l1(batch):
        return _mean(batch, np.abs(batch.H[:, r] - h))

    tau = refinement_estimate(surface, rule, lambda b: _mean(b, b.tau_sq))
    eps = refinement_estimate(surface, rule, eps_l1)
    return ResidualReport(name=f"tau_l2_epsilon_bound_r{r}",
                          value=K2 * eps.value - tau.value, tolerance=INTEGRAL_TOLERANCE,
                          refinement_error=K2 * eps.refinement_error + tau.refinement_error,
                          kind=INEQUALITY)


def michael_simon_ratio(surface: RadialSurface, rule: SphericalRule,
                        Kn: float) -> ResidualReport:
    """Gap Kn * int |H~| dv~ - V~^{(n-1)/n} for the flat immersion.

    Runs on the Euclidean-metric data of the chart immersion with the
    configured Kn (``Kn_MS``; the sharp constant is not derived here).  Like
    every row of `starpinch identities` it gates that command (exit 2 when
    it fails); `run_pinch` does not use it.
    """
    n = surface.n

    def gap(batch):
        vol = batch_volume(batch, euclidean=True)
        total_H = integrate_batch(batch, np.abs(batch.H_tilde), euclidean=True)
        return Kn * total_H - vol ** ((n - 1) / n)

    est = refinement_estimate(surface, rule, gap)
    return ResidualReport(name="michael_simon", value=est.value, tolerance=INTEGRAL_TOLERANCE,
                          refinement_error=est.refinement_error, kind=INEQUALITY)
