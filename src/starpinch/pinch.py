"""The stability experiment: eps = H_r - h, gates, sphere fit, Hausdorff bound.

One run takes a starshaped surface and a curvature order r, measures the
deviation field eps = H_r - h, checks every hypothesis (R0 > 0 in
``starshape_report``, then the gates: sup/L1 smallness of eps, positivity
of H_{r+1}, containment), evaluates the constant chain, fits the nearest
geodesic sphere, measures the Hausdorff distance in the ambient metric and
compares it against the stability bound C |eps|_1^gamma.  A scaling study
repeats this along a family of shrinking perturbation amplitudes and
regresses log d_H against log |eps|_1.  Means, norms, eps and the
refinement errors come from ``identities``: |f|_p = ((1/V) int |f|^p
dv)^(1/p), so a constant has norm |c| on any surface.

Geodesic spheres of the conformal models are Euclidean spheres in the
chart, so sphere sampling is exact through the chart representation and the
sphere fit starts from an algebraic chart-sphere fit.  Gauss-Newton with the
closed-form Jacobian then minimizes the weighted sum of squares of
d(center, X_i) - rho; run_pinch weights every base-rule node by its share of
the surface volume.  The Hausdorff distance to the fitted sphere is read from
the surface side alone: when the surface encloses the fitted center, every
geodesic ray from the center crosses it within the surface's own largest
|d(center, x) - rho0|, so that maximum over the nodes is dH.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, fields, replace

import numpy as np

from .constants import ConstantsConfig, ProofConstants, build_chain, describe, final_bound
from .errors import NumericalError
from .identities import MAX, SUM, epsilon_field, lp_norm, refinement_estimate
from .quadrature import build_rule, integrate_batch
from .spaceform import (SpaceFormModel, chart_radius, geodesic_distance, geodesic_radius,
                        s_delta)
from .surface import RadialSurface, starshape_report
from .symfun import partial_H_extremes

# ---------------------------------------------------------------------------
# gates


@dataclass(frozen=True)
class GateCheck:
    name: str
    passed: bool
    detail: str


def hypothesis_gate(*, eps_linf: float, h: float, eps_l1: float, eps1: float,
                    minH_rplus1: float, R: float, R_limit: float) -> tuple:
    """Individually reported hypothesis checks; overall pass is their conjunction.  R0 > 0 is
    not among them: ``starshape_report`` raises before a run reaches the gates."""
    checks = (
        GateCheck("eps_linf_le_half_h", eps_linf <= 0.5 * h,
                  f"|eps|_inf = {eps_linf:.6g} vs h/2 = {0.5 * h:.6g}"),
        GateCheck("eps_l1_le_eps1", eps_l1 <= eps1,
                  f"|eps|_1 = {eps_l1:.6g} vs eps1 = {eps1:.6g}"),
        GateCheck("H_rplus1_positive", minH_rplus1 > 0.0,
                  f"min H_(r+1) = {minH_rplus1:.6g}"),
        GateCheck("contained_in_ball", R < R_limit,
                  f"R = {R:.6g} vs limit {R_limit:.6g}"),
    )
    return checks


def gate_overall(checks) -> bool:
    return all(c.passed for c in checks)


# ---------------------------------------------------------------------------
# geodesic spheres in the chart


def geodesic_sphere_chart(model: SpaceFormModel, center, rho: float):
    """Euclidean (center, radius) of the chart image of a geodesic sphere."""
    center = np.asarray(center, dtype=float)
    if rho <= 0.0:
        raise ValueError("rho must be positive")
    t_c = float(np.linalg.norm(center))
    axis = center / t_c if t_c > 0.0 else np.eye(len(center))[0]
    r_c = float(geodesic_radius(center, model)) if t_c > 0.0 else 0.0
    t_hi = float(chart_radius(r_c + rho, model))
    lo = r_c - rho
    t_lo = float(chart_radius(abs(lo), model)) * (1.0 if lo >= 0.0 else -1.0)
    euc_center = axis * 0.5 * (t_lo + t_hi)
    euc_radius = 0.5 * (t_hi - t_lo)
    return euc_center, euc_radius


def _chart_sphere_to_geodesic(model: SpaceFormModel, euc_center, euc_radius: float):
    """Inverse of geodesic_sphere_chart: geodesic (center, rho) of a chart sphere."""
    t_c = float(np.linalg.norm(euc_center))
    axis = euc_center / t_c if t_c > 0.0 else np.eye(len(euc_center))[0]
    r_hi = geodesic_radius((t_c + euc_radius) * axis, model)
    r_lo = geodesic_radius((t_c - euc_radius) * axis, model) * np.sign(t_c - euc_radius)
    return axis * chart_radius(0.5 * (r_hi + r_lo), model), 0.5 * (r_hi - r_lo)


# sample_geodesic_sphere stays importable: bench/tracing.py wraps it at this name
def sample_geodesic_sphere(model: SpaceFormModel, center, rho: float,
                           directions) -> np.ndarray:
    """Exact points of a geodesic sphere along the given unit directions."""
    euc_center, euc_radius = geodesic_sphere_chart(model, center, rho)
    dirs = np.asarray(directions, dtype=float)
    return euc_center[None, :] + euc_radius * dirs


def distance_to_geodesic_sphere(points, center, rho: float,
                                model: SpaceFormModel) -> np.ndarray:
    """|d(center, p) - rho|: exact distance from points to a metric sphere."""
    d = geodesic_distance(np.asarray(points, dtype=float), np.asarray(center, float), model)
    return np.abs(np.asarray(d) - rho)


# ---------------------------------------------------------------------------
# sphere fitting


_STEP_ULPS = 4
_MAX_STEPS = 50


@dataclass(frozen=True)
class SphereFit:
    center: np.ndarray
    rho0: float
    rms: float
    iterations: int


def fit_geodesic_sphere(samples, model: SpaceFormModel, weights=None) -> SphereFit:
    """Weighted least-squares geodesic sphere through a point cloud.

    Minimizes sum_i w_i (d(center, X_i) - rho)^2 over center and rho by
    Gauss-Newton with the closed-form Jacobian, from the algebraic (Kasa) fit
    of a Euclidean sphere in the chart, until a step is within _STEP_ULPS ulps
    of max(1, |params|) (NumericalError after _MAX_STEPS steps or on a value
    that is not finite).  ``weights`` default to equal; rho0 and rms are the
    weighted mean and rms of the distances at the optimum.
    """
    pts = np.asarray(samples, dtype=float)
    if pts.ndim != 2 or len(pts) < pts.shape[1] + 2:
        raise ValueError("need at least n+2 samples in general position")
    w = np.ones(len(pts)) if weights is None else np.asarray(weights, dtype=float)
    if w.shape != (len(pts),) or not np.all(w >= 0.0) or not w.sum() > 0.0:
        raise ValueError("weights must be one nonnegative value per sample, not all zero")
    w = w / w.sum()
    sqrt_w = np.sqrt(w)

    # |x|^2 = 2 a.x + c is linear in (a, c); the chart sphere has radius^2 = c + |a|^2
    lhs = np.hstack([2.0 * pts, np.ones((len(pts), 1))]) * sqrt_w[:, None]
    sol = np.linalg.lstsq(lhs, np.sum(pts * pts, axis=1) * sqrt_w, rcond=None)[0]
    a, c = sol[:-1], sol[-1]
    params = np.append(*_chart_sphere_to_geodesic(model, a, math.sqrt(c + a @ a)))

    for iterations in range(1, _MAX_STEPS + 1):
        d, jac = _distance_jacobian(pts, params[:-1], model)
        lhs = np.hstack([jac, -np.ones((len(pts), 1))]) * sqrt_w[:, None]
        step = np.linalg.lstsq(lhs, sqrt_w * (params[-1] - d), rcond=None)[0]
        params = params + step
        if not np.all(np.isfinite(params)):
            raise NumericalError("sphere fit diverged: a parameter is not finite")
        if np.max(np.abs(step)) <= _STEP_ULPS * np.spacing(max(1.0, np.max(np.abs(params)))):
            break
    else:
        raise NumericalError(f"sphere fit did not converge in {_MAX_STEPS} Gauss-Newton steps")
    d = np.asarray(geodesic_distance(pts, params[:-1], model))
    rho0 = float(w @ d)
    return SphereFit(center=params[:-1], rho0=rho0, rms=math.sqrt(float(w @ (d - rho0) ** 2)),
                     iterations=iterations)


def _distance_jacobian(pts, center, model: SpaceFormModel):
    """Distances d(center, x_i) and their gradients in the center.

    d depends on t = |x - c|^2 / (q(x) q(c)), q = 1 + (delta/4)|.|^2, alone,
    with dd/dt = 1/(2 s_delta(d)) (k/(2 sinh kd), 1/(2d), k/(2 sin kd)), and
    dt/dc = -2 (x - c) / (q(x) q(c)) - t (delta/2) c / q(c).
    """
    d = np.asarray(geodesic_distance(pts, center, model))
    if not np.all(d > 0.0):
        raise NumericalError("sphere fit: a distance to the center is 0 or NaN (singular Jacobian)")
    inv_qc = 1.0 / model.conformal_factor(center)
    diff = pts - center
    scale = (1.0 / model.conformal_factor(pts)) * inv_qc
    t = np.einsum("ij,ij->i", diff, diff) * scale
    dt_dc = -2.0 * scale[:, None] * diff - (0.5 * model.delta * inv_qc) * t[:, None] * center
    return d, dt_dc / (2.0 * s_delta(d, model.delta))[:, None]


# ---------------------------------------------------------------------------
# the full experiment


@dataclass(frozen=True)
class PinchReport:
    """Global quantities of one stability run."""

    n: int
    r: int
    delta: float
    h: float
    eps_l1: float
    eps_l1_refinement: float
    eps_linf: float
    tau_l2: float
    tau_l2_refinement: float
    tau_lnp1: float
    R0: float
    R: float
    B_sup: float
    minH_rplus1: float
    minH_partial: float
    volume: float
    sphere_center: np.ndarray
    rho0: float
    fit_rms: float
    dH: float
    dH_refinement: float
    bound: float
    applicable: bool
    bound_ok: bool
    gates: tuple
    constants: ProofConstants


# dH is a max of differences of O(rho0) distances, so it is resolved only to
# rounding: on exact geodesic spheres (n = 2, 3; delta in [-1, 1]; geodesic
# radii 1e-6 to 1e3 where the chart holds them; rules up to q = 64) it reads
# up to 41 eps * rho0, while their bound is often exactly 0.  The bound
# verdict allows this much.  Hyperbolic spheres with sqrt(-delta) * radius
# above 5 are the exception: at delta = -1, radius 10 it reads 1.6e3 eps * rho0.
_DH_ROUNDING = 1e-13


@dataclass(frozen=True)
class RunSettings:
    quad_order: int = 16
    h_fixed: float | None = None
    constants: ConstantsConfig = ConstantsConfig()


def run_pinch(surface: RadialSurface, r: int, settings: RunSettings = RunSettings()) -> PinchReport:
    """Execute the full pipeline and return every intermediate quantity.

    Raises NumericalError when the bound applies and dH exceeds it by more
    than rounding (_DH_ROUNDING * rho0); dH_refinement is never added.
    """
    n = surface.n
    if not 1 <= r <= n - 1:
        raise ValueError(f"r must lie in [1, n-1], got r={r}")
    model = surface.model
    rule = build_rule(n, settings.quad_order)
    batch = surface.fields(rule)

    star = starshape_report(batch)
    h, eps = epsilon_field(batch, r, h=settings.h_fixed)
    vol = integrate_batch(batch, 1.0)
    eps_linf = float(np.max(np.abs(eps)))
    tau_lnp1 = lp_norm(batch, np.sqrt(batch.tau_sq), n + 1)

    minH_rplus1 = float(np.min(batch.H[:, r + 1]))
    # H_{2;n,1} is the constant 1/C(n,2), so r = 1 reads no eigenvalue
    minH_partial = (1.0 / math.comb(n, 2) if r == 1
                    else float(np.min(partial_H_extremes(r + 1, batch.kappa))))

    consts = build_chain(model, r, h=h, B_sup=batch.B_sup, R0=star.R0, R=star.R, volume=vol,
                         minH_partial=minH_partial, config=settings.constants)

    fit = fit_geodesic_sphere(batch.X, model, weights=batch.area_element * batch.weights)
    distance = _surface_sphere_hausdorff(surface, fit)
    # squares sqrt(tau^2) like tau_lnp1 does, so |tau|_2 keeps its last bits
    eps_l1, tau_l2, dH = refinement_estimate(
        surface, rule, lambda b: [(SUM, np.abs(epsilon_field(b, r, h=h)[1])),
                                  (SUM, np.sqrt(b.tau_sq) ** 2), (MAX, distance(b))],
        lambda m, eps, tau, dist: (eps / m.volume, math.sqrt(tau / m.volume), dist))

    R_limit = math.inf if model.delta <= 0.0 else 0.5 * math.pi / math.sqrt(model.delta)
    gates = hypothesis_gate(eps_linf=eps_linf, h=h, eps_l1=eps_l1.value, eps1=consts.eps1,
                            minH_rplus1=minH_rplus1, R=star.R, R_limit=R_limit)

    bound, eps_gate = final_bound(eps_l1.value, fit.rho0, consts)
    applicable = gate_overall(gates) and eps_gate
    bound_ok = not applicable or dH.check_value <= bound + _DH_ROUNDING * fit.rho0
    if not bound_ok:
        raise NumericalError(
            f"stability bound violated: dH = {dH.check_value:.6g} > bound = {bound:.6g}"
        )

    return PinchReport(
        n=n, r=r, delta=model.delta, h=h, eps_l1=eps_l1.value,
        eps_l1_refinement=eps_l1.refinement_error, eps_linf=eps_linf, tau_l2=tau_l2.value,
        tau_l2_refinement=tau_l2.refinement_error, tau_lnp1=tau_lnp1,
        R0=star.R0, R=star.R, B_sup=batch.B_sup,
        minH_rplus1=minH_rplus1, minH_partial=minH_partial, volume=vol,
        sphere_center=fit.center, rho0=fit.rho0, fit_rms=fit.rms, dH=dH.check_value,
        dH_refinement=dH.refinement_error, bound=bound, applicable=applicable,
        bound_ok=bound_ok, gates=gates, constants=consts,
    )


def _surface_sphere_hausdorff(surface, fit):
    """dH between the surface and the fitted sphere S, read from the surface side.

    Let D be the largest exact distance |d(c, x) - rho0| from a surface point
    x to S, and suppose the surface encloses the center c.  The ball
    d(c, .) < rho0 - D about c misses the surface, so it lies inside, and
    d(c, .) has no maximum inside the surface, so every point with
    d(c, .) > rho0 + D lies outside (for delta > 0 its one other critical
    point, the antipode of c, lies beyond the chart's hemisphere that holds
    the surface).  So each geodesic ray from c crosses the surface in the
    shell |d(c, .) - rho0| <= D, each point of S has a surface point on its
    own ray within D, and dH = D whether or not S stays in the chart.  The
    one condition, c = 0 or |c| < rho(c/|c|), is checked here (NumericalError
    otherwise).  Returns |d(c, x) - rho0| at a batch's nodes: dH is their maximum
    on the doubled rule, and the refinement error its change from the base rule.
    """
    c = fit.center
    t = float(np.linalg.norm(c))
    if t > 0.0 and not t < surface.rho_values(c / t):
        raise NumericalError(f"fitted sphere center lies outside the surface (|c| = {t:.6g})")
    return lambda batch: distance_to_geodesic_sphere(batch.X, c, fit.rho0, surface.model)


# ---------------------------------------------------------------------------
# scaling studies


@dataclass(frozen=True)
class ScalingRow:
    amplitude: float
    eps_l1: float
    eps_linf: float
    tau_l2: float
    tau_lnp1: float
    R0: float
    B_sup: float
    rho0: float
    dH: float
    bound: float
    applicable: bool
    gates_passed: bool


SCALING_COLUMNS = tuple(f.name for f in fields(ScalingRow) if f.name != "gates_passed")


@dataclass(frozen=True)
class Regression:
    slope: float
    intercept: float
    residual: float
    points: int


@dataclass(frozen=True)
class ScalingStudy:
    rows: tuple
    regression: Regression | None
    monotone: bool


def scaling_study(base_surface: RadialSurface, amplitudes, r: int,
                  settings: RunSettings = RunSettings()) -> ScalingStudy:
    """Scale the perturbation of ``base_surface`` through the amplitudes.

    The base perturbation coefficients are multiplied by each amplitude in
    turn (so amplitude 1 reproduces the base surface).  Rows whose gates
    fail are flagged and excluded from the log-log regression.  The study
    is ``monotone`` when dH never increases from one amplitude to the next.
    """
    amps = [float(a) for a in amplitudes]
    if any(a2 >= a1 for a1, a2 in zip(amps, amps[1:])):
        raise ValueError("amplitudes must be strictly decreasing")
    rows = []
    for a in amps:
        scaled = replace(base_surface, perturbation=tuple(
            (key, a * amp) for key, amp in base_surface.perturbation))
        rep = run_pinch(scaled, r, settings)
        rows.append(ScalingRow(amplitude=a, gates_passed=gate_overall(rep.gates),
                               **{c: getattr(rep, c) for c in SCALING_COLUMNS
                                  if c != "amplitude"}))

    usable = [row for row in rows if row.gates_passed and row.eps_l1 > 0.0 and row.dH > 0.0]
    regression = None
    if len(usable) >= 2:
        x = np.log([row.eps_l1 for row in usable])
        y = np.log([row.dH for row in usable])
        slope, intercept = np.polyfit(x, y, 1)
        resid = y - (slope * x + intercept)
        regression = Regression(slope=float(slope), intercept=float(intercept),
                                residual=float(np.sqrt(np.mean(resid**2))),
                                points=len(usable))

    monotone = all(r1.dH >= r2.dH for r1, r2 in zip(rows, rows[1:]))
    return ScalingStudy(rows=tuple(rows), regression=regression, monotone=monotone)


def scaling_csv(study: ScalingStudy) -> str:
    """Render a scaling study as CSV with the fixed column order."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(SCALING_COLUMNS)
    for row in study.rows:
        writer.writerow([repr(getattr(row, col)) for col in SCALING_COLUMNS])
    if study.regression is not None:
        reg = study.regression
        buf.write(f"# regression slope={reg.slope!r} intercept={reg.intercept!r} "
                  f"residual={reg.residual!r} points={reg.points}\n")
    else:
        buf.write("# regression undefined (fewer than 2 usable rows)\n")
    buf.write(f"# dH_monotone_nonincreasing={study.monotone}\n")
    return buf.getvalue()


def report_text(report: PinchReport) -> str:
    """Stable rendering of a PinchReport: one name = repr(value) line per field."""
    lines = []
    for f in fields(report):
        value = getattr(report, f.name)
        if f.name == "sphere_center":
            lines.append("sphere_center = " + " ".join(repr(float(x)) for x in value))
        elif f.name not in ("gates", "constants"):
            lines.append(f"{f.name} = {value!r}")
    lines.append("note: the fitted sphere is this artifact's proxy for the theorem's S_rho0")
    for gate in report.gates:
        lines.append(f"gate {gate.name} = {'pass' if gate.passed else 'FAIL'} ({gate.detail})")
    lines.append(describe(report.constants))
    return "\n".join(lines) + "\n"
