"""The stability experiment: eps = H_r - h, gates, sphere fit, Hausdorff bound.

One run takes a starshaped surface and a curvature order r, measures the
deviation field eps = H_r - h, checks every hypothesis (starshapedness,
sup/L1 smallness of eps, positivity of H_{r+1}, containment), evaluates
the constant chain, fits the nearest geodesic sphere, measures the
Hausdorff distance in the ambient metric and compares it against the
stability bound C |eps|_1^gamma.  A scaling study repeats this along a
family of shrinking perturbation amplitudes and regresses
log d_H against log |eps|_1.

Geodesic spheres of the conformal models are Euclidean spheres in the
chart; fitting minimizes the variance of the geodesic distances to a
candidate center (derivative-free simplex descent with seeded multistart)
and sphere sampling is exact through the chart representation.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize

from .constants import ConstantsConfig, ProofConstants, build_chain, final_bound
from .errors import HypothesisError, NumericalError
from .quadrature import SphericalRule, build_rule, integrate_batch, refinement_estimate
from .spaceform import SpaceFormModel, chart_radius, geodesic_distance, geodesic_radius
from .surface import RadialSurface, starshape_report
from .symfun import partial_H_extremes

# ---------------------------------------------------------------------------
# epsilon field and gates


def epsilon_field(surface: RadialSurface, r: int, rule: SphericalRule,
                  h: float | None = None):
    """The pinching level h and the node field eps = H_r - h.

    With ``h`` unset it defaults to the volume-normalized mean of H_r,
    which minimizes |eps|_2 among constants.  Requires H_{r+1} > 0 at
    every node when r > 1.
    """
    batch = surface.fields(rule)
    H = batch.mean_curvature_orders()
    if r > 1 and np.any(H[:, r + 1] <= 0.0):
        bad = int(np.argmin(H[:, r + 1]))
        raise HypothesisError(
            f"H_{r + 1} must be positive for r > 1; node {bad} has {H[bad, r + 1]:.6g} "
            f"(u = {batch.nodes[bad]})"
        )
    if h is None:
        vol = integrate_batch(batch, np.ones(len(batch.rho)), rule)
        h = integrate_batch(batch, H[:, r], rule) / vol
    return float(h), H[:, r] - h


@dataclass(frozen=True)
class GateCheck:
    name: str
    passed: bool
    detail: str


def hypothesis_gate(*, starshaped: bool, R0: float, eps_linf: float, h: float,
                    eps_l1: float, eps1: float, minH_rplus1: float,
                    R: float, R_limit: float) -> tuple:
    """Individually reported hypothesis checks; overall pass is their conjunction."""
    checks = (
        GateCheck("starshaped", starshaped, "support pairing has constant sign"),
        GateCheck("R0_positive", R0 > 0.0, f"R0 = {R0:.6g}"),
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


@dataclass(frozen=True)
class SphereFit:
    center: np.ndarray
    rho0: float
    rms: float


def fit_geodesic_sphere(samples, model: SpaceFormModel, seed: int = 0,
                        starts: int = 5) -> SphereFit:
    """Least-variance geodesic sphere through a point cloud.

    Minimizes the variance of d(center, sample_i) over the center with
    Nelder-Mead from the Euclidean centroid plus seeded perturbations;
    rho0 is the mean distance at the optimum.
    """
    pts = np.asarray(samples, dtype=float)
    if pts.ndim != 2 or len(pts) < pts.shape[1] + 2:
        raise ValueError("need at least n+2 samples in general position")

    def objective(center):
        if model.delta != 0.0:
            if np.linalg.norm(center) >= model.model_radius * (1.0 - 1e-9):
                return 1e6 + float(np.linalg.norm(center))
        d = np.asarray(geodesic_distance(pts, center, model))
        return float(np.var(d))

    centroid = pts.mean(axis=0)
    if model.delta != 0.0:
        cap = model.model_radius * 0.5
        norm = np.linalg.norm(centroid)
        if norm > cap:
            centroid = centroid * (cap / norm)
    rng = np.random.Generator(np.random.Philox(seed))
    spread = max(float(np.std(pts)), 1e-3)
    guesses = [centroid]
    for _ in range(max(starts - 1, 0)):
        guesses.append(centroid + 0.1 * spread * rng.normal(size=pts.shape[1]))

    best = None
    for guess in guesses:
        res = minimize(objective, guess, method="Nelder-Mead",
                       options={"xatol": 1e-12, "fatol": 1e-24,
                                "maxiter": 20_000, "maxfev": 20_000})
        if best is None or res.fun < best.fun:
            best = res
    # one polish pass from the winner tightens the simplex further
    res = minimize(objective, best.x, method="Nelder-Mead",
                   options={"xatol": 1e-13, "fatol": 1e-26,
                            "maxiter": 20_000, "maxfev": 20_000})
    if res.fun < best.fun:
        best = res
    if not np.isfinite(best.fun):
        raise NumericalError("sphere fit did not converge")
    center = np.asarray(best.x, dtype=float)
    d = np.asarray(geodesic_distance(pts, center, model))
    return SphereFit(center=center, rho0=float(d.mean()), rms=math.sqrt(float(np.var(d))))


# ---------------------------------------------------------------------------
# Hausdorff distance


def hausdorff_distance(samples_a, samples_b, model: SpaceFormModel,
                       block: int = 512) -> float:
    """Max of the two directed sup-inf geodesic distances over sample sets."""
    a = np.asarray(samples_a, dtype=float)
    b = np.asarray(samples_b, dtype=float)
    if len(a) == 0 or len(b) == 0:
        raise ValueError("sample sets must be nonempty")
    return max(_directed_hausdorff(a, b, model, block),
               _directed_hausdorff(b, a, model, block))


def _directed_hausdorff(a, b, model, block):
    worst = 0.0
    for lo in range(0, len(a), block):
        chunk = a[lo : lo + block]
        d = np.asarray(geodesic_distance(chunk[:, None, :], b[None, :, :], model))
        worst = max(worst, float(np.max(np.min(d, axis=1))))
    return worst


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


@dataclass(frozen=True)
class RunSettings:
    quad_order: int = 16
    seed: int = 0
    h_fixed: float | None = None
    constants: ConstantsConfig = ConstantsConfig()
    enforce_bound: bool = True


def run_pinch(surface: RadialSurface, r: int, settings: RunSettings = RunSettings()) -> PinchReport:
    """Execute the full pipeline and return every intermediate quantity."""
    n = surface.n
    if not 1 <= r <= n - 1:
        raise ValueError(f"r must lie in [1, n-1], got r={r}")
    model = surface.model
    rule = build_rule(n, settings.quad_order)
    check_rule = build_rule(n, 2 * settings.quad_order)
    batch = surface.fields(rule)

    star = starshape_report(surface, rule)
    h, eps = epsilon_field(surface, r, rule, h=settings.h_fixed)

    def mean(b, values, rl):
        return integrate_batch(b, values, rl) / integrate_batch(b, np.ones(len(b.rho)), rl)

    def eps_l1_of(b, rl):
        return mean(b, np.abs(epsilon_field(surface, r, rl, h=h)[1]), rl)

    def tau_l2_of(b, rl):
        # squares sqrt(tau^2) like tau_lnp1 does, so |tau|_2 keeps its last bits
        return math.sqrt(mean(b, np.sqrt(b.tau_norm_sq()) ** 2, rl))

    eps_l1 = refinement_estimate(surface, rule, eps_l1_of)
    tau_l2 = refinement_estimate(surface, rule, tau_l2_of)
    vol = integrate_batch(batch, np.ones(len(batch.rho)), rule)
    eps_linf = float(np.max(np.abs(eps)))
    tau = np.sqrt(batch.tau_norm_sq())
    tau_lnp1 = (integrate_batch(batch, tau ** (n + 1), rule) / vol) ** (1.0 / (n + 1))

    H = batch.mean_curvature_orders()
    B_sup = float(np.max(np.abs(batch.kappa)))
    minH_rplus1 = float(np.min(H[:, r + 1]))
    minH_partial = float(np.min(partial_H_extremes(r + 1, batch.kappa)))

    consts = build_chain(n, r, model.delta, model, h=h, B_sup=B_sup, R0=star.R0,
                         R=star.R, volume=vol, minH_partial=minH_partial,
                         minH_rplus1=minH_rplus1, config=settings.constants)

    R_limit = math.inf if model.delta <= 0.0 else 0.5 * math.pi / math.sqrt(model.delta)
    gates = hypothesis_gate(starshaped=True, R0=star.R0, eps_linf=eps_linf, h=h,
                            eps_l1=eps_l1.value, eps1=consts.eps1,
                            minH_rplus1=minH_rplus1, R=star.R, R_limit=R_limit)

    fit = fit_geodesic_sphere(_subsample(batch.X, 1024), model, seed=settings.seed)
    dH, dH_ref = _surface_sphere_hausdorff(surface, fit, rule, check_rule, model)

    bound, eps_gate = final_bound(eps_l1.value, fit.rho0, consts)
    applicable = gate_overall(gates) and eps_gate
    slack = max(1e-8, dH_ref)
    bound_ok = (dH <= bound + slack) if applicable else True
    if settings.enforce_bound and applicable and not bound_ok:
        raise NumericalError(
            f"stability bound violated: dH = {dH:.6g} > bound = {bound:.6g}"
        )

    return PinchReport(
        n=n, r=r, delta=model.delta, h=h, eps_l1=eps_l1.value,
        eps_l1_refinement=eps_l1.refinement_error, eps_linf=eps_linf, tau_l2=tau_l2.value,
        tau_l2_refinement=tau_l2.refinement_error, tau_lnp1=tau_lnp1,
        R0=star.R0, R=star.R, B_sup=B_sup,
        minH_rplus1=minH_rplus1, minH_partial=minH_partial, volume=vol,
        sphere_center=fit.center, rho0=fit.rho0, fit_rms=fit.rms, dH=dH,
        dH_refinement=dH_ref, bound=bound, applicable=applicable,
        bound_ok=bound_ok, gates=gates, constants=consts,
    )


_MAX_SPHERE_DIRS = 2048


def _subsample(arr, cap):
    if len(arr) <= cap:
        return arr
    stride = -(-len(arr) // cap)
    return arr[::stride]


def _surface_sphere_hausdorff(surface, fit, rule, check_rule, model):
    """Hausdorff distance surface <-> fitted sphere, with refinement estimate.

    The surface-to-sphere direction uses the exact point-to-metric-sphere
    distance |d(c, p) - rho0|; the reverse direction samples the sphere
    along (a deterministic subsample of) the check-rule directions.
    """
    dirs = _subsample(check_rule.nodes, _MAX_SPHERE_DIRS)
    sphere_pts = sample_geodesic_sphere(model, fit.center, fit.rho0, dirs)
    values = []
    for surf_rule in (rule, check_rule):
        pts = surface.fields(surf_rule).X
        d1 = float(np.max(distance_to_geodesic_sphere(pts, fit.center, fit.rho0, model)))
        d2 = _directed_hausdorff(sphere_pts, pts, model, 512)
        values.append(max(d1, d2))
    return values[1], abs(values[0] - values[1])


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
    fail are flagged and excluded from the log-log regression.
    """
    amps = [float(a) for a in amplitudes]
    if any(a2 >= a1 for a1, a2 in zip(amps, amps[1:])):
        raise ValueError("amplitudes must be strictly decreasing")
    rows = []
    reports = []
    for a in amps:
        scaled = RadialSurface(
            n=base_surface.n, model=base_surface.model, rho0=base_surface.rho0,
            perturbation=tuple((key, a * amp) for key, amp in base_surface.perturbation),
        )
        rep = run_pinch(scaled, r, settings)
        reports.append(rep)
        rows.append(ScalingRow(
            amplitude=a, eps_l1=rep.eps_l1, eps_linf=rep.eps_linf,
            tau_l2=rep.tau_l2, tau_lnp1=rep.tau_lnp1, R0=rep.R0,
            B_sup=rep.B_sup, rho0=rep.rho0, dH=rep.dH, bound=rep.bound,
            applicable=rep.applicable, gates_passed=gate_overall(rep.gates),
        ))

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

    tol = max(max(rep.dH_refinement for rep in reports), 1e-12)
    monotone = all(r1.dH + tol >= r2.dH for r1, r2 in zip(reports, reports[1:]))
    return ScalingStudy(rows=tuple(rows), regression=regression, monotone=monotone)


SCALING_COLUMNS = ("amplitude", "eps_l1", "eps_linf", "tau_l2", "tau_lnp1",
                   "R0", "B_sup", "rho0", "dH", "bound", "applicable")


def scaling_csv(study: ScalingStudy, header_lines=()) -> str:
    """Render a scaling study as CSV with the fixed column order."""
    buf = io.StringIO()
    for line in header_lines:
        buf.write(f"# {line}\n")
    writer = csv.writer(buf)
    writer.writerow(SCALING_COLUMNS)
    for row in study.rows:
        writer.writerow([repr(getattr(row, col)) if col != "applicable" else row.applicable
                         for col in SCALING_COLUMNS])
    if study.regression is not None:
        reg = study.regression
        buf.write(f"# regression slope={reg.slope!r} intercept={reg.intercept!r} "
                  f"residual={reg.residual!r} points={reg.points}\n")
    else:
        buf.write("# regression undefined (fewer than 2 usable rows)\n")
    buf.write(f"# dH_monotone_nonincreasing={study.monotone}\n")
    return buf.getvalue()


def report_text(report: PinchReport) -> str:
    """Stable key-value rendering of a PinchReport."""
    from .constants import describe

    lines = [
        f"n = {report.n}",
        f"r = {report.r}",
        f"delta = {report.delta!r}",
        f"h = {report.h!r}",
        f"eps_l1 = {report.eps_l1!r}",
        f"eps_l1_refinement = {report.eps_l1_refinement!r}",
        f"eps_linf = {report.eps_linf!r}",
        f"tau_l2 = {report.tau_l2!r}",
        f"tau_l2_refinement = {report.tau_l2_refinement!r}",
        f"tau_lnp1 = {report.tau_lnp1!r}",
        f"R0 = {report.R0!r}",
        f"R = {report.R!r}",
        f"B_sup = {report.B_sup!r}",
        f"minH_rplus1 = {report.minH_rplus1!r}",
        f"minH_partial = {report.minH_partial!r}",
        f"volume = {report.volume!r}",
        "sphere_center = " + " ".join(repr(float(x)) for x in report.sphere_center),
        f"rho0 = {report.rho0!r}",
        f"fit_rms = {report.fit_rms!r}",
        f"dH = {report.dH!r}",
        f"dH_refinement = {report.dH_refinement!r}",
        f"bound = {report.bound!r}",
        f"applicable = {report.applicable}",
        f"bound_ok = {report.bound_ok}",
        "note: the fitted sphere is this artifact's proxy for the theorem's S_rho0",
    ]
    for gate in report.gates:
        lines.append(f"gate {gate.name} = {'pass' if gate.passed else 'FAIL'} ({gate.detail})")
    lines.append(describe(report.constants))
    return "\n".join(lines) + "\n"
