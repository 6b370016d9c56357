"""Numerical residuals for the integral identities and inequality chain.

Every check reads the H_k, tau^2 and other fields of ``surface.fields(rule)``, the batch
the integrals read; pointwise checks report their worst node.  Each check returns a
ResidualReport.  An identity passes when |value| is at most its fixed tolerance, an
inequality when its gap is at least minus that tolerance.  The quadrature refinement
error (base rule vs doubled rule) is reported next to the value and never widens the
verdict.  Integral residuals are volume-normalized, as pinch.batch_mean and lp_norm
normalize, so tolerances compare across surfaces of different size; the lemma rows'
H_{r+1} > 0 check and eps = H_r - h are run_pinch's require_positive_H and epsilon_field.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import pinch
from .pinch import epsilon_field, require_positive_H
# build_rule stays importable here: bench/tracing.py wraps it at this name
# integrate_batch stays importable here for the same reason
from .quadrature import build_rule, integrate_batch  # noqa: F401
from .quadrature import SUM, SUM_EUCLID, SphericalRule, refinement_estimate
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

    def mean(m, sums):  # each value takes its columns' sums in order
        return next(sums) / m.volume

    def cauchy_schwarz(m, sums):  # |tau|_2^2 and |tau|_{n+1}, the latter as lp_norm takes it
        tau_l2_sq, tau_lp = mean(m, sums), mean(m, sums) ** (1.0 / (n + 1))
        return m.B_sup ** (2 * n) * tau_l2_sq - tau_lp ** (2 * (n + 1))

    # name -> (kind, its node columns of a batch, each with how it reduces, its value)
    table = {**{f"hsiung_minkowski_k{k}": (IDENTITY, lambda b, k=k: [
                    (SUM, b.H[:, k + 1] * b.support + c_delta(b.r, delta) * b.H[:, k])], mean)
                for k in range(n)},
             "cauchy_schwarz_chain": (INEQUALITY, lambda b: [
                 (SUM, np.sqrt(b.tau_sq) ** 2), (SUM, np.abs(np.sqrt(b.tau_sq)) ** (n + 1))],
                 cauchy_schwarz),
             "michael_simon": (INEQUALITY, lambda b: [(SUM_EUCLID, np.abs(b.H_tilde)),
                                                      (SUM_EUCLID, 1.0)],  # and the volume
                               lambda m, sums: Kn * next(sums) - next(sums) ** ((n - 1) / n))}
    names = list(table) if names is None else names
    rows = [table[name] for name in names]
    estimates = refinement_estimate(
        surface, rule, lambda b: [column for _, columns, _ in rows for column in columns(b)],
        lambda m, *reduced: tuple(value(m, sums) for sums in [iter(reduced)]
                                  for *_, value in rows),
        sup="cauchy_schwarz_chain" in names,  # the one row that reads B_sup
        integrate=pinch.integrate_batch)  # reduced where pinch.batch_mean reduces
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
        surface, rule, lambda b: [(SUM, b.tau_sq), (SUM, np.abs(epsilon_field(b, r, h)[1]))],
        lambda m, tau_sq, eps: (tau_sq / m.volume, eps / m.volume),
        integrate=pinch.integrate_batch)
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
