"""Integral functionals of a surface and numerical residuals of the identities.

``batch_mean`` and ``lp_norm`` are the package's one volume-normalized mean and L^p norm
of a batch, |f|_p = ((1/V) int |f|^p dv)^(1/p), so a constant has norm |c| on any surface,
and ``epsilon_field`` its one eps = H_r - h.  ``refinement_estimate`` gives any scalar
functional (an integral, a norm, a residual, a node maximum) its difference against the
doubled-order rule as refinement error, reducing the cached base batch's block views and
then the doubled rule's blocks one at a time.  Integrals go through this module's
``integrate_batch`` and the doubled rule through its ``build_rule``, the names
bench/tracing.py wraps.

Every check reads the H_k, tau^2 and other fields of ``surface.fields(rule)``, the batch
the integrals read; pointwise checks report their worst node.  Each check returns a
ResidualReport.  An identity passes when |value| is at most its fixed tolerance, an
inequality when its gap is at least minus that tolerance.  The quadrature refinement
error (base rule vs doubled rule) is reported next to the value and never widens the
verdict.  Integral residuals are volume-normalized, as batch_mean and lp_norm normalize,
so tolerances compare across surfaces of different size.  Nothing here decides a hypothesis:
the sign of H_{r+1} is ``pinch``'s ``H_rplus1_positive`` gate, whatever r.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError
from .quadrature import SphericalRule, _Sums, _summands, build_rule, integrate_batch
from .spaceform import c_delta
from .surface import B_sup_norm, RadialSurface, SurfaceBatch

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


def batch_mean(batch, values) -> float:
    """Volume-normalized integral (1/V) int values dv over a rule's batch."""
    return integrate_batch(batch, values) / integrate_batch(batch, 1.0)


def lp_norm(batch, values, p: float) -> float:
    """Volume-normalized L^p norm of a node field over a rule's batch."""
    if p < 1.0:
        raise ValueError("p must be at least 1")
    return _in_float_range(f"an L^{p:g} norm", lambda: batch_mean(
        batch, np.abs(np.asarray(values, dtype=float)) ** p) ** (1.0 / p))


def _in_float_range(what: str, compute):
    """compute() if it does not overflow and its floats are finite; else NumericalError."""
    try:
        with np.errstate(over="raise"):  # numpy's overflow too, whether or not warnings are errors
            if np.isfinite(result := compute()).all():
                return result
    except (OverflowError, FloatingPointError):
        pass
    raise NumericalError(f"{what} leaves the float64 range")


def epsilon_field(batch: SurfaceBatch, r: int, h: float | None = None):
    """The level h of H_r and the node field eps = H_r - h of a rule's batch.

    With ``h`` unset it defaults to the volume-normalized mean of H_r,
    which minimizes |eps|_2 among constants.
    """
    if h is None:
        h = batch_mean(batch, batch.H[:, r])
    return float(h), batch.H[:, r] - h


@dataclass(frozen=True)
class IntegralEstimate:
    value: float
    refinement_error: float
    check_value: float  # on the rule of doubled order


# a column's reduction: integrate_batch's with either area element, or its node maximum
SUM, SUM_EUCLID, MAX = "sum", "sum_euclid", "max"
Totals = namedtuple("Totals", "volume B_sup")  # what combine reads of a rule besides columns
# the doubled and base rules' B_sup differ by -1.3e-3 to +5.0e-3 relative on the bench surfaces
_SEED_MARGIN = 0.005


def refinement_estimate(surface: RadialSurface, rule: SphericalRule, columns, combine, *,
                        sup: bool = False) -> tuple:
    """Scalar functionals of the surface with their refinement errors.

    ``columns(batch)`` gives (kind, node array) pairs, final integrands reduced as their
    kind says, and ``combine(totals, *reduced)`` a tuple of values from a rule's ``Totals``
    (``B_sup`` only if ``sup``) and reduced columns.  Each rule is one loop over its blocks,
    views of the cached batch of ``rule`` or the doubled rule's, generated and dropped one at
    a time: a block's volume and summed columns go through ``integrate_batch`` as one (k, B)
    chunk.  The sums are exactly rounded and a maximum takes no order, so block views give the
    whole batch's bits.  The base's B_sup is the batch's; with ``sup`` the doubled rule's
    B_sup = B_sup_norm(block, B_sup) starts at the base's less _SEED_MARGIN.
    """
    def summed(tagged):  # the values and euclidean flags of the volume and the summed columns
        tagged = [(SUM, 1.0), *[column for column in tagged if column[0] != MAX]]
        return [values for _, values in tagged], [kind == SUM_EUCLID for kind, _ in tagged]

    def reduced(blocks, B_sup, solve=True):  # (Totals, *reduced columns) of one rule's blocks;
        # with ``sup`` and ``solve``, B_sup becomes B_sup_norm over the blocks from B_sup
        sums, maxima = _Sums(), -np.inf
        for block in blocks():
            tagged = columns(block)
            kinds = [kind for kind, _ in tagged]
            values, euclidean = summed(tagged)
            integrate_batch(block, values, euclidean=euclidean, into=sums)
            maxima = np.maximum(maxima, [np.max(v) for kind, v in tagged if kind == MAX])
            if sup and solve:
                B_sup = B_sup_norm(block, B_sup)
            del block, tagged, values  # a streamed block is freed before the next is evaluated
        sums = iter(sums.totals(lambda: (_summands(b, *summed(columns(b))) for b in blocks())))
        maxima = iter(maxima.tolist())
        return Totals(next(sums), B_sup), *[next(maxima if k == MAX else sums) for k in kinds]

    batch, check = surface.fields(rule), build_rule(rule.n, 2 * rule.order)
    base = combine(*reduced(batch.blocks, batch.B_sup if sup else None, solve=False))
    seed = batch.B_sup * (1.0 - _SEED_MARGIN) if sup else None
    doubled = reduced(lambda: surface.blocks(check), seed)
    if sup and doubled[0].B_sup == seed:  # a floor no node reached: stream again without it
        doubled = reduced(lambda: surface.blocks(check), -math.inf)
    return tuple(IntegralEstimate(a, abs(a - b), b) for a, b in zip(base, combine(*doubled)))


# ---------------------------------------------------------------------------


def _integral_reports(surface: RadialSurface, rule: SphericalRule, names, Kn=None) -> list:
    """The named integral rows (all for None), from one pass over the doubled rule."""
    n, delta = surface.n, surface.model.delta

    def mean(m, sums):  # each value takes its columns' sums in order
        return next(sums) / m.volume

    def cauchy_schwarz(m, sums):  # |tau|_2^2 and |tau|_{n+1}, the latter as lp_norm takes it
        tau_l2_sq, tau_lp = mean(m, sums), mean(m, sums) ** (1.0 / (n + 1))
        return m.B_sup ** (2 * n) * tau_l2_sq - tau_lp ** (2 * (n + 1))

    # name -> (kind, its node columns of a batch b given c = c_delta(b.r), each with how it
    # reduces, its value)
    table = {**{f"hsiung_minkowski_k{k}": (IDENTITY, lambda b, c, k=k: [
                    (SUM, b.H[:, k + 1] * b.support + c * b.H[:, k])], mean)
                for k in range(n)},
             "cauchy_schwarz_chain": (INEQUALITY, lambda b, c: [
                 (SUM, np.sqrt(b.tau_sq) ** 2), (SUM, np.abs(np.sqrt(b.tau_sq)) ** (n + 1))],
                 cauchy_schwarz),
             "michael_simon": (INEQUALITY, lambda b, c: [(SUM_EUCLID, np.abs(b.H_tilde)),
                                                         (SUM_EUCLID, 1.0)],  # and the volume
                               lambda m, sums: Kn * next(sums) - next(sums) ** ((n - 1) / n))}
    names = list(table) if names is None else names
    rows = [table[name] for name in names]
    cosine = any(name.startswith("hsiung_minkowski") for name in names)

    def columns(b):  # c_delta(r) once per batch, shared by the Hsiung-Minkowski rows
        c = c_delta(b.r, delta) if cosine else None
        return [column for _, row_columns, _ in rows for column in row_columns(b, c)]

    values = _in_float_range("an identity row", lambda: [  # (value, refinement error)
        (est.value, est.refinement_error) for est in refinement_estimate(
            surface, rule, columns,
            lambda m, *reduced: tuple(value(m, sums) for sums in [iter(reduced)]
                                      for *_, value in rows),
            sup="cauchy_schwarz_chain" in names)])  # the one row that reads B_sup
    return [ResidualReport(name=name, value=value, tolerance=INTEGRAL_TOLERANCE,
                           refinement_error=error, kind=kind)
            for name, (kind, *_), (value, error) in zip(names, rows, values)]


def residuals(surface: RadialSurface, rule: SphericalRule, Kn: float) -> list:
    """Every row of the identities command, the integral rows from one pass."""
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
    def worst(b):  # of a block view: a maximum takes no order, so the batch's bits
        n, H = b.n, b.H
        rhs = n * (n - 1) * (H[:, 1] ** 2 - H[:, 2])
        s_norm_sq = n * n * H[:, 1] ** 2 - n * (n - 1) * H[:, 2]
        scale = np.maximum(np.maximum.reduce([b.tau_sq, np.abs(rhs), s_norm_sq]), 1e-300)
        return np.max(np.abs(b.tau_sq - rhs) / scale)

    value = float(np.max([worst(b) for b in surface.fields(rule).blocks()]))
    return ResidualReport(name="gauss_algebraic", value=value, tolerance=ALGEBRAIC_TOLERANCE,
                          refinement_error=0.0, kind=IDENTITY)


def cauchy_schwarz_chain_check(surface: RadialSurface, rule: SphericalRule) -> ResidualReport:
    """Gap |B|_inf^(2n) |tau|_2^2 - |tau|_{n+1}^{2(n+1)} >= 0 (normalized norms)."""
    return _integral_reports(surface, rule, ["cauchy_schwarz_chain"])[0]


def lemma1_gap(surface: RadialSurface, rule: SphericalRule, r: int,
               K1: float) -> ResidualReport:
    """Worst-node gap K1 (H H_r - H_{r+1}) - tau^2 >= 0 over the rule's nodes, returned
    whatever the sign of H_{r+1} (the lemma's hypothesis; where it fails, so may the gap)."""
    batch = surface.fields(rule)
    H = batch.H
    gaps = K1 * (H[:, 1] * H[:, r] - H[:, r + 1]) - batch.tau_sq
    return ResidualReport(name=f"lemma_tau_bound_r{r}", value=float(np.min(gaps)),
                          tolerance=LEMMA_TOLERANCE, refinement_error=0.0, kind=INEQUALITY)


def tau_l2_epsilon_bound(surface: RadialSurface, r: int, h: float, K2: float,
                         rule: SphericalRule) -> ResidualReport:
    """Gap K2 |eps|_1 - |tau|_2^2 >= 0, eps = H_r - h of ``epsilon_field`` (normalized)."""
    tau, eps = refinement_estimate(
        surface, rule, lambda b: [(SUM, b.tau_sq), (SUM, np.abs(epsilon_field(b, r, h)[1]))],
        lambda m, tau_sq, eps: (tau_sq / m.volume, eps / m.volume))
    return ResidualReport(name=f"tau_l2_epsilon_bound_r{r}",
                          value=K2 * eps.value - tau.value, tolerance=INTEGRAL_TOLERANCE,
                          refinement_error=K2 * eps.refinement_error + tau.refinement_error,
                          kind=INEQUALITY)


def michael_simon_ratio(surface: RadialSurface, rule: SphericalRule,
                        Kn: float) -> ResidualReport:
    """Gap Kn * int |H~| dv~ - V~^{(n-1)/n} for the flat immersion.

    Runs on the Euclidean-metric data of the chart immersion with the
    configured Kn (``Kn_MS``; the sharp constant is not derived here).  Like
    every row of the identities command it gates that command (exit 2 when
    it fails); the stability run does not use it.
    """
    return _integral_reports(surface, rule, ["michael_simon"], Kn)[0]
