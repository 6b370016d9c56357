"""Numerical residuals for the integral identities and inequality chain.

Each check returns a ResidualReport.  Identities pass when |value| stays
within tolerance plus quadrature refinement error; inequalities pass when
the gap is above minus that slack.  All residuals are volume-normalized so
tolerances compare across surfaces of different size.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import HypothesisError
# build_rule stays importable here: bench/tracing.py wraps it at this name
from .quadrature import (SphericalRule, build_rule, integrate_batch,  # noqa: F401
                         refinement_estimate)
from .spaceform import c_delta
from .surface import RadialSurface, SurfacePointData
from .symfun import curvature_profile

IDENTITY = "identity"
INEQUALITY = "inequality"


@dataclass(frozen=True)
class ResidualReport:
    name: str
    value: float
    tolerance: float
    refinement_error: float
    kind: str = IDENTITY

    @property
    def passed(self) -> bool:
        slack = self.tolerance + self.refinement_error
        if self.kind == IDENTITY:
            return abs(self.value) <= slack
        return self.value >= -slack


def residual_table(reports) -> str:
    """CSV text with columns name, value, tolerance, refinement_error, pass."""
    lines = ["name,value,tolerance,refinement_error,pass"]
    for rep in reports:
        lines.append(f"{rep.name},{rep.value!r},{rep.tolerance!r},"
                     f"{rep.refinement_error!r},{rep.passed}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------


def _mean(batch, values, rule) -> float:
    """Volume-normalized integral (1/V) int values dv on one rule."""
    vol = integrate_batch(batch, np.ones(len(batch.rho)), rule)
    return integrate_batch(batch, values, rule) / vol


def hsiung_minkowski_residual(surface: RadialSurface, k: int, rule: SphericalRule,
                              tolerance: float = 1e-8) -> ResidualReport:
    """Normalized residual of int (H_{k+1} <Z,nu> + c_d(r) H_k) dv = 0."""
    if not 0 <= k <= surface.n - 1:
        raise ValueError(f"k must lie in [0, n-1], got {k}")
    delta = surface.model.delta

    def integrand(batch):
        H = batch.mean_curvature_orders()
        return H[:, k + 1] * batch.support + c_delta(batch.r, delta) * H[:, k]

    est = refinement_estimate(surface, rule, lambda b, rl: _mean(b, integrand(b), rl))
    return ResidualReport(name=f"hsiung_minkowski_k{k}", value=est.value,
                          tolerance=tolerance, refinement_error=est.refinement_error,
                          kind=IDENTITY)


def gauss_algebraic_check(point: SurfacePointData, tolerance: float = 1e-12) -> ResidualReport:
    """Relative residual of tau^2 = n(n-1)(H^2 - H_2) at one point.

    Relative to the shape-operator scale |S|^2 = sum kappa_i^2 (the term
    the trace identity subtracts); near umbilic points both sides cancel
    against quantities of that size, so it is the meaningful denominator.
    """
    prof = curvature_profile(point.kappa)
    n = prof.n
    rhs = float(n * (n - 1) * (prof.H[1] ** 2 - prof.H[2]))
    s_norm_sq = float(np.sum(prof.kappa**2))
    scale = max(prof.tau_sq, abs(rhs), s_norm_sq, 1e-300)
    value = abs(prof.tau_sq - rhs) / scale
    return ResidualReport(name="gauss_algebraic", value=value, tolerance=tolerance,
                          refinement_error=0.0, kind=IDENTITY)


def scalar_curvature(H2: float, n: int, delta: float) -> float:
    """Scal = n(n-1)(H_2 + delta), the trace consequence of the Gauss equation."""
    return n * (n - 1) * (H2 + delta)


def cauchy_schwarz_chain_check(surface: RadialSurface, rule: SphericalRule,
                               tolerance: float = 1e-8) -> ResidualReport:
    """Gap |B|_inf^(2n) |tau|_2^2 - |tau|_{n+1}^{2(n+1)} >= 0 (normalized norms)."""
    n = surface.n

    def gap(batch, rl):
        tau = np.sqrt(batch.tau_norm_sq())
        B_sup = float(np.max(np.abs(batch.kappa)))
        vol = integrate_batch(batch, np.ones(len(batch.rho)), rl)
        tau2_sq = integrate_batch(batch, tau**2, rl) / vol
        taun = (integrate_batch(batch, tau ** (n + 1), rl) / vol) ** (1.0 / (n + 1))
        return B_sup ** (2 * n) * tau2_sq - taun ** (2 * (n + 1))

    est = refinement_estimate(surface, rule, gap)
    return ResidualReport(name="cauchy_schwarz_chain", value=est.value,
                          tolerance=tolerance, refinement_error=est.refinement_error,
                          kind=INEQUALITY)


def lemma1_gap(point: SurfacePointData, r: int, K1: float,
               tolerance: float = 1e-10) -> ResidualReport:
    """Pointwise gap K1 (H H_r - H_{r+1}) - tau^2 >= 0."""
    prof = curvature_profile(point.kappa)
    if prof.H[r + 1] <= 0.0:
        raise HypothesisError(f"lemma gap needs H_{r+1} > 0, got {prof.H[r + 1]:.6g}")
    value = float(K1 * (prof.H[1] * prof.H[r] - prof.H[r + 1]) - prof.tau_sq)
    return ResidualReport(name=f"lemma_tau_bound_r{r}", value=value,
                          tolerance=tolerance, refinement_error=0.0, kind=INEQUALITY)


def lemma1_gap_batch(surface: RadialSurface, rule: SphericalRule, r: int, K1: float,
                     tolerance: float = 1e-10) -> ResidualReport:
    """Worst-node version of lemma1_gap over a whole quadrature batch."""
    batch = surface.fields(rule)
    H = batch.mean_curvature_orders()
    if np.any(H[:, r + 1] <= 0.0):
        bad = int(np.argmin(H[:, r + 1]))
        raise HypothesisError(
            f"lemma gap needs H_{r+1} > 0 everywhere; node {bad} has {H[bad, r + 1]:.6g}"
        )
    tau_sq = batch.tau_norm_sq()
    gaps = K1 * (H[:, 1] * H[:, r] - H[:, r + 1]) - tau_sq
    return ResidualReport(name=f"lemma_tau_bound_r{r}", value=float(np.min(gaps)),
                          tolerance=tolerance, refinement_error=0.0, kind=INEQUALITY)


def tau_l2_epsilon_bound(surface: RadialSurface, r: int, h: float, K2: float,
                         rule: SphericalRule, tolerance: float = 1e-8) -> ResidualReport:
    """Gap K2 |eps|_1 - |tau|_2^2 >= 0 with eps = H_r - h (normalized)."""
    def eps_l1(batch, rl):
        return _mean(batch, np.abs(batch.mean_curvature_orders()[:, r] - h), rl)

    tau = refinement_estimate(surface, rule, lambda b, rl: _mean(b, b.tau_norm_sq(), rl))
    eps = refinement_estimate(surface, rule, eps_l1)
    return ResidualReport(name=f"tau_l2_epsilon_bound_r{r}",
                          value=K2 * eps.value - tau.value, tolerance=tolerance,
                          refinement_error=K2 * eps.refinement_error + tau.refinement_error,
                          kind=INEQUALITY)


def michael_simon_ratio(surface: RadialSurface, rule: SphericalRule, Kn: float,
                        tolerance: float = 1e-8) -> ResidualReport:
    """Diagnostic gap Kn * int |H~| dv~ - V~^{(n-1)/n} for the flat immersion.

    Runs on the Euclidean-metric data of the chart immersion; never gates
    the pipeline because the sharp constant is configuration.
    """
    n = surface.n

    def gap(batch, rl):
        vol = integrate_batch(batch, np.ones(len(batch.rho)), rl, euclidean=True)
        total_H = integrate_batch(batch, np.abs(batch.H_tilde), rl, euclidean=True)
        return Kn * total_H - vol ** ((n - 1) / n)

    est = refinement_estimate(surface, rule, gap)
    return ResidualReport(name="michael_simon", value=est.value, tolerance=tolerance,
                          refinement_error=est.refinement_error, kind=INEQUALITY)
