"""Checks of each operation's output.

Every checker returns a list of problems; an empty list means the output
is correct.  The checks use properties the method must have or values
computed here from closed forms, never values recorded from an earlier
run of the program.  They import nothing from starpinch, so the
self-test (``test_checks.py``) runs them on hand-made inputs.
"""

from __future__ import annotations

import csv
import io
import math
import re

import numpy as np

# the level of the geodesic-sphere curvature oracle (acceptance criterion 1)
KNOWN_ANSWER_TOL = 1e-9
HM_TOL = 1e-8
HM_FLOOR = 1e-12
HM_DECAY = 10.0
GAUSS_TOL = 1e-12
SLOPE_MIN = 0.8
SLOPE_RESIDUAL_MAX = 0.1
GATED_AMPLITUDE = 0.04


def scaling_problems(rows) -> list:
    """One scaling study, from its rows (amplitudes strictly decreasing).

    Rows with amplitude <= 0.04 pass every gate; applicable rows satisfy
    dH <= bound; dH does not grow as the amplitude falls; and the log-log
    regression of dH on |eps|_1 over the gated rows, fitted here, has
    slope >= 0.8 and rms residual <= 0.1.
    """
    problems = []
    for row in rows:
        if row.amplitude <= GATED_AMPLITUDE and not row.gates_passed:
            problems.append(f"amplitude {row.amplitude}: a gate fails")
        if row.applicable and not row.dH <= row.bound:
            problems.append(f"amplitude {row.amplitude}: dH {row.dH!r} > bound {row.bound!r}")
    for big, small in zip(rows, rows[1:]):
        if not small.dH <= big.dH:
            problems.append(f"dH rises from {big.dH!r} to {small.dH!r} "
                            f"as the amplitude falls to {small.amplitude}")
    usable = [row for row in rows if row.gates_passed and row.eps_l1 > 0.0 and row.dH > 0.0]
    if len(usable) < 2:
        return problems + [f"only {len(usable)} rows usable for the regression"]
    slope, residual = loglog_fit([row.eps_l1 for row in usable], [row.dH for row in usable])
    if not (slope >= SLOPE_MIN and residual <= SLOPE_RESIDUAL_MAX):
        problems.append(f"log-log slope {slope:.4f} (residual {residual:.4f}) "
                        f"outside slope >= {SLOPE_MIN}, residual <= {SLOPE_RESIDUAL_MAX}")
    return problems


def loglog_fit(xs, ys):
    """Least-squares slope of log y on log x and the rms residual."""
    lx = [math.log(x) for x in xs]
    ly = [math.log(y) for y in ys]
    mx = sum(lx) / len(lx)
    my = sum(ly) / len(ly)
    sxx = sum((x - mx) ** 2 for x in lx)
    slope = sum((x - mx) * (y - my) for x, y in zip(lx, ly)) / sxx
    resid = [y - my - slope * (x - mx) for x, y in zip(lx, ly)]
    return slope, math.sqrt(sum(r * r for r in resid) / len(resid))


def pinch_problems(report) -> list:
    """One run_pinch report on a gated surface.

    Every gate passes, the bound applies and holds, and
    0 < fit_rms <= dH <= bound: the rms of the distance deviation over the
    fit samples cannot exceed its sup, which dH bounds from above.
    """
    problems = [f"gate {gate.name} fails ({gate.detail})"
                for gate in report.gates if not gate.passed]
    if not report.applicable:
        problems.append("bound not applicable")
    if not report.bound_ok:
        problems.append("bound_ok is false")
    if not 0.0 < report.fit_rms <= report.dH <= report.bound:
        problems.append(f"need 0 < fit_rms {report.fit_rms!r} <= dH {report.dH!r} "
                        f"<= bound {report.bound!r}")
    return problems


_ORDER_SUFFIX = re.compile(r"_order\d+$")


def parse_identities_csv(text: str) -> dict:
    """Residual name (order suffix removed) -> value, from `identities` output."""
    body = "".join(line + "\n" for line in text.splitlines() if not line.startswith("#"))
    return {_ORDER_SUFFIX.sub("", row["name"]): float(row["value"])
            for row in csv.DictReader(io.StringIO(body))}


def identity_problems(n: int, exit_code: int, residuals: dict) -> list:
    """One `starpinch identities` call at a single order.

    Exit code 0; every Hsiung-Minkowski residual within 1e-8 with no
    refinement slack; the Cauchy-Schwarz gap nonnegative; the algebraic
    Gauss residual within 1e-12.
    """
    problems = [] if exit_code == 0 else [f"exit code {exit_code}"]
    for name in hm_names(n) + ("cauchy_schwarz_chain", "gauss_algebraic"):
        if name not in residuals:
            problems.append(f"residual {name} missing")
    for name in hm_names(n):
        value = residuals.get(name, 0.0)
        if not abs(value) <= HM_TOL:
            problems.append(f"{name} = {value!r} exceeds {HM_TOL}")
    gap = residuals.get("cauchy_schwarz_chain", 0.0)
    if not gap >= 0.0:
        problems.append(f"Cauchy-Schwarz gap {gap!r} is negative")
    gauss = residuals.get("gauss_algebraic", 0.0)
    if not abs(gauss) <= GAUSS_TOL:
        problems.append(f"gauss_algebraic = {gauss!r} exceeds {GAUSS_TOL}")
    return problems


def decay_problems(n: int, coarse: dict, fine: dict) -> list:
    """Hsiung-Minkowski residuals fall 10x from the lower order to the higher.

    A residual already at or below 1e-12 is at rounding level and passes.
    """
    problems = []
    for name in hm_names(n):
        lo = abs(coarse.get(name, math.inf))
        hi = abs(fine.get(name, math.inf))
        if not (hi <= lo / HM_DECAY or hi <= HM_FLOOR):
            problems.append(f"{name} falls only from {lo!r} to {hi!r}")
    return problems


def hm_names(n: int) -> tuple:
    return tuple(f"hsiung_minkowski_k{k}" for k in range(n))


def geodesic_sphere(delta: float, chart_radius: float = 1.0):
    """Geodesic radius and principal curvature of the chart sphere |x| = t.

    In the chart the metric is (1 + delta |x|^2 / 4)^-2 |dx|^2, so the
    sphere of chart radius t has geodesic radius (2/k) atanh(k t/2) for
    delta = -k^2, t for delta = 0 and (2/k) atan(k t/2) for delta = k^2,
    and principal curvature c_delta/s_delta of that radius.
    """
    if delta == 0.0:
        return chart_radius, 1.0 / chart_radius
    k = math.sqrt(abs(delta))
    if delta < 0.0:
        rho = (2.0 / k) * math.atanh(0.5 * k * chart_radius)
        return rho, k / math.tanh(k * rho)
    rho = (2.0 / k) * math.atan(0.5 * k * chart_radius)
    return rho, k / math.tan(k * rho)


def known_answer_problems(delta: float, rho0: float, center, dH: float, kappa) -> list:
    """run_pinch on the unperturbed chart sphere of radius 1 centred at 0.

    The fitted radius and the principal curvatures must match the closed
    forms of :func:`geodesic_sphere`, the fitted center must be 0 and dH
    must vanish, each within 1e-9.
    """
    rho, curvature = geodesic_sphere(delta)
    problems = []
    if not abs(rho0 - rho) <= KNOWN_ANSWER_TOL:
        problems.append(f"fitted radius {rho0!r}, expected {rho!r}")
    off = float(np.max(np.abs(center)))
    if not off <= KNOWN_ANSWER_TOL:
        problems.append(f"fitted center off 0 by {off!r}")
    if not abs(dH) <= KNOWN_ANSWER_TOL:
        problems.append(f"dH {dH!r}, expected 0")
    worst = float(np.max(np.abs(np.asarray(kappa) - curvature)))
    if not worst <= KNOWN_ANSWER_TOL:
        problems.append(f"principal curvature off {curvature!r} by {worst!r}")
    return problems
