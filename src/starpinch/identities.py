"""Numerical residuals for the integral identities and inequality chain.

Every check reads the H_k, tau^2 and other fields of ``surface.fields(rule)``, the batch
the integrals read; pointwise checks report their worst node.  Each check returns a
ResidualReport.  An identity passes when |value| is at most its fixed tolerance, an
inequality when its gap is at least minus that tolerance.  The quadrature refinement
error (base rule vs doubled rule) is reported next to the value and never widens the
verdict.  Integral residuals are volume-normalized so tolerances compare across
surfaces of different size.  The means and norms, the lemma rows' H_{r+1} > 0 check and
their eps = H_r - h are run_pinch's: pinch.batch_mean, lp_norm, require_positive_H and
epsilon_field.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .pinch import batch_mean, epsilon_field, lp_norm, require_positive_H
# build_rule stays importable here: bench/tracing.py wraps it at this name
from .quadrature import build_rule  # noqa: F401
from .quadrature import SphericalRule, batch_volume, integrate_batch, refinement_estimate
from .spaceform import c_delta
from .surface import RadialSurface

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


def _integral_reports(surface: RadialSurface, rule: SphericalRule, names, Kn=None) -> list:
    """The named integral rows (all for None), from one pass over the doubled rule."""
    n, delta = surface.n, surface.model.delta

    def cauchy_schwarz(measure, tau_sq):
        tau = np.sqrt(tau_sq)
        taun = lp_norm(measure, tau, n + 1)
        return measure.B_sup ** (2 * n) * batch_mean(measure, tau**2) - taun ** (2 * (n + 1))

    def michael_simon(measure, H_tilde):
        vol = batch_volume(measure, euclidean=True)
        total_H = integrate_batch(measure, np.abs(H_tilde), euclidean=True)
        return Kn * total_H - vol ** ((n - 1) / n)

    # name -> (kind, node column of a batch, its value on a batch or RuleMeasure)
    table = {**{f"hsiung_minkowski_k{k}": (IDENTITY, lambda b, k=k: b.H[:, k + 1] * b.support
                                           + c_delta(b.r, delta) * b.H[:, k], batch_mean)
                for k in range(n)},
             "cauchy_schwarz_chain": (INEQUALITY, lambda b: b.tau_sq, cauchy_schwarz),
             "michael_simon": (INEQUALITY, lambda b: b.H_tilde, michael_simon)}
    names = list(table) if names is None else names
    rows = [table[name] for name in names]
    estimates = refinement_estimate(
        surface, rule, lambda b: tuple(column(b) for _, column, _ in rows),
        lambda m, *cols: tuple(value(m, col) for (*_, value), col in zip(rows, cols)),
        sup="cauchy_schwarz_chain" in names)  # the one row that reads measure.B_sup
    return [ResidualReport(name=name, value=est.value, tolerance=INTEGRAL_TOLERANCE,
                           refinement_error=est.refinement_error, kind=kind)
            for name, (kind, *_), est in zip(names, rows, estimates)]


def residuals(surface: RadialSurface, rule: SphericalRule, Kn: float) -> list:
    """Every row of `starpinch identities`, the integral rows from one pass."""
    return _integral_reports(surface, rule, None, Kn) + [gauss_algebraic_check(surface, rule)]


def hsiung_minkowski_residual(surface: RadialSurface, k: int,
                              rule: SphericalRule) -> ResidualReport:
    """Normalized residual of int (H_{k+1} <Z,nu> + c_d(r) H_k) dv = 0."""
    if not 0 <= k <= surface.n - 1:
        raise ValueError(f"k must lie in [0, n-1], got {k}")
    return _integral_reports(surface, rule, [f"hsiung_minkowski_k{k}"])[0]


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


def cauchy_schwarz_chain_check(surface: RadialSurface, rule: SphericalRule) -> ResidualReport:
    """Gap |B|_inf^(2n) |tau|_2^2 - |tau|_{n+1}^{2(n+1)} >= 0 (normalized norms)."""
    return _integral_reports(surface, rule, ["cauchy_schwarz_chain"])[0]


def lemma1_gap(surface: RadialSurface, rule: SphericalRule, r: int,
               K1: float) -> ResidualReport:
    """Worst-node gap K1 (H H_r - H_{r+1}) - tau^2 >= 0 over the rule's nodes."""
    batch = surface.fields(rule)
    require_positive_H(batch, r + 1)
    H = batch.H
    gaps = K1 * (H[:, 1] * H[:, r] - H[:, r + 1]) - batch.tau_sq
    return ResidualReport(name=f"lemma_tau_bound_r{r}", value=float(np.min(gaps)),
                          tolerance=LEMMA_TOLERANCE, refinement_error=0.0, kind=INEQUALITY)


def tau_l2_epsilon_bound(surface: RadialSurface, r: int, h: float, K2: float,
                         rule: SphericalRule) -> ResidualReport:
    """Gap K2 |eps|_1 - |tau|_2^2 >= 0, eps = H_r - h of ``epsilon_field`` (normalized)."""
    tau, eps = refinement_estimate(
        surface, rule, lambda b: (b.tau_sq, np.abs(epsilon_field(b, r, h)[1])),
        lambda m, tau_sq, eps: (batch_mean(m, tau_sq), batch_mean(m, eps)))
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
    return _integral_reports(surface, rule, ["michael_simon"], Kn)[0]
