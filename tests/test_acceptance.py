"""Acceptance suite: the eight exit criteria, one printed line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the PASS lines.
Black-box constants are configured generously (eps0 = 10) so that the
conditional stability bound actually bites on the test families; every
run prints its constants, so nothing masquerades as derived.
"""

import math

import numpy as np
import pytest

from starpinch.cli import main as cli_main
from starpinch.constants import ConstantsConfig
from starpinch.identities import (cauchy_schwarz_chain_check,
                                  hsiung_minkowski_residual,
                                  tau_l2_epsilon_bound)
from starpinch.pinch import (RunSettings, fit_geodesic_sphere,
                             gate_overall, run_pinch, sample_geodesic_sphere,
                             scaling_study)
from starpinch.quadrature import build_rule
from starpinch.spaceform import SpaceFormModel, c_delta, chart_radius, s_delta
from starpinch.surface import RadialSurface
from starpinch.symfun import (K1, calibrate, mean_curvatures,
                              partial_H_extremes, sample_positive_curvatures,
                              umbilicity_defect_sq)

DELTAS = (-1.0, 0.0, 1.0)
EPS0_DEMO = 10.0
CONSTANTS = ConstantsConfig(eps0=EPS0_DEMO)


def surface(delta, rho0=1.0, perturbation=(), n=2):
    model = SpaceFormModel(delta=delta, ambient_dim=n + 1)
    return RadialSurface(n=n, model=model, rho0=rho0, perturbation=perturbation)


def family(delta, r):
    """The acceptance stability family for one (delta, r) pair."""
    if r == 1:
        return surface(delta, rho0=1.0, perturbation=(((3, 1), 1.0),)), 12
    return surface(delta, rho0=0.9, n=3, perturbation=(("u1u2", 1.0),)), 8


# the six gated test surfaces shared by criteria 4 and 5 (amplitude 0.04)
def gated_surfaces():
    out = []
    for delta in DELTAS:
        for r in (1, 2):
            base, order = family(delta, r)
            surf = RadialSurface(n=base.n, model=base.model, rho0=base.rho0,
                                 perturbation=tuple((k, 0.04 * a)
                                                    for k, a in base.perturbation))
            out.append((delta, r, surf, order))
    return out


@pytest.fixture(scope="module")
def calibrations():
    return {n: calibrate(n, max(n - 1, 1), samples=60_000, seed=31415)
            for n in (2, 3, 4)}


def report_line(num, ok, message):
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {message}")


def test_criterion_1_geodesic_sphere_curvature_oracle():
    worst = 0.0
    for delta in DELTAS:
        model = SpaceFormModel(delta=delta, ambient_dim=3)
        for rho_geo in (0.3, 0.7, 1.2):
            surf = surface(delta, rho0=chart_radius(rho_geo, model))
            batch = surf.fields(build_rule(2, 12))
            expected = c_delta(rho_geo, delta) / s_delta(rho_geo, delta)
            worst = max(worst, float(np.max(np.abs(batch.kappa - expected))))
    ok = worst < 1e-9
    report_line(1, ok, f"geodesic-sphere curvature oracle (max deviation {worst:.3e})")
    assert ok


def test_criterion_2_hsiung_minkowski():
    shapes_n2 = (
        (((3, 1), 0.12), ((2, 0), 0.06)),
        (((2, -2), 0.15), ((3, 3), 0.05)),
    )
    shape_n3 = (("u1u2", 0.08), ("u1^2-u4^2", 0.04))
    worst_final = 0.0
    decay_ok = True
    surfaces = 0
    for delta in DELTAS:
        for pert in shapes_n2:
            surf = surface(delta, rho0=1.0, perturbation=pert)
            residuals = [abs(hsiung_minkowski_residual(surf, k, build_rule(2, o)).value)
                         for o in (8, 16, 32) for k in range(2)]
            per_order = [max(residuals[2 * i: 2 * i + 2]) for i in range(3)]
            worst_final = max(worst_final, per_order[-1])
            for coarse, fine in zip(per_order, per_order[1:]):
                decay_ok &= (fine <= coarse / 10.0) or (fine <= 1e-12)
            surfaces += 1
        surf = surface(delta, rho0=0.9, n=3, perturbation=shape_n3)
        per_order = []
        for o in (6, 12):
            per_order.append(max(abs(hsiung_minkowski_residual(surf, k, build_rule(3, o)).value)
                                 for k in range(3)))
        worst_final = max(worst_final, per_order[-1])
        decay_ok &= (per_order[1] <= per_order[0] / 10.0) or (per_order[1] <= 1e-12)
        surfaces += 1
    ok = worst_final <= 1e-8 and decay_ok and surfaces >= 6
    report_line(2, ok, f"Hsiung-Minkowski residuals on {surfaces} surfaces "
                       f"(worst {worst_final:.3e}, spectral decay {decay_ok})")
    assert worst_final <= 1e-8
    assert decay_ok
    assert surfaces >= 6


def test_criterion_3_gauss_identity():
    rng = np.random.Generator(np.random.Philox(2718))
    worst = 0.0
    for n in range(2, 7):
        kappa = rng.uniform(-2.5, 2.5, size=(100_000, n))
        H = mean_curvatures(kappa)
        tau_sq = umbilicity_defect_sq(kappa)
        rhs = n * (n - 1) * (H[:, 1] ** 2 - H[:, 2])
        scale = np.maximum.reduce([np.abs(rhs), tau_sq, np.sum(kappa**2, axis=1)])
        worst = max(worst, float(np.max(np.abs(tau_sq - rhs) / scale)))
    ok = worst < 1e-12
    report_line(3, ok, f"algebraic Gauss identity on 5x10^5 vectors "
                       f"(worst relative {worst:.3e})")
    assert ok


def test_criterion_4_inequality_suites(calibrations):
    rng = np.random.Generator(np.random.Philox(1414))
    worst_newton = math.inf
    worst_maclaurin = math.inf
    for n in range(2, 7):
        kappa = np.sort(rng.uniform(0.05, 2.5, size=(100_000, n)), axis=1)
        H = mean_curvatures(kappa)
        for k in range(1, n):
            gap = H[:, k] ** 2 - H[:, k + 1] * H[:, k - 1]
            worst_newton = min(worst_newton, float(np.min(gap)))
        roots = np.stack([H[:, k] ** (1.0 / k) for k in range(1, n + 1)], axis=1)
        worst_maclaurin = min(worst_maclaurin, float(np.min(roots[:, :-1] - roots[:, 1:])))

    worst_sharp = math.inf
    for n in (2, 3, 4):
        cal = calibrations[n]
        held_out = sample_positive_curvatures(n, 10_000, seed=8642)
        H = mean_curvatures(held_out)
        tau_sq = umbilicity_defect_sq(held_out)
        for k in range(1, n):
            hp = partial_H_extremes(k + 1, held_out)
            gap = H[:, k] ** 2 - H[:, k + 1] * H[:, k - 1] - cal.c_n * tau_sq * hp**2
            worst_sharp = min(worst_sharp, float(np.min(gap)))

    worst_lemma = math.inf
    worst_r1_eq = 0.0
    for delta, r, surf, order in gated_surfaces():
        batch = surf.fields(build_rule(surf.n, order))
        H = mean_curvatures(batch.kappa)
        tau_sq = umbilicity_defect_sq(batch.kappa)
        if r == 1:
            k1 = float(surf.n * (surf.n - 1))
            gap = k1 * (H[:, 1] * H[:, r] - H[:, r + 1]) - tau_sq
            worst_r1_eq = max(worst_r1_eq, float(np.max(np.abs(gap))))
        else:
            cal = calibrations[surf.n]
            h = 2.0 * float(np.min(H[:, r]))
            B_sup = float(np.max(np.abs(batch.kappa)))
            minH_partial = float(np.min(partial_H_extremes(r + 1, batch.kappa)))
            k1 = K1(surf.n, r, minH_partial, h, B_sup, cal.c_n)
            gap = k1 * (H[:, 1] * H[:, r] - H[:, r + 1]) - tau_sq
        worst_lemma = min(worst_lemma, float(np.min(gap)))

    ok = (worst_newton >= -1e-12 and worst_maclaurin >= -1e-12
          and worst_sharp >= -1e-10 and worst_lemma >= -1e-10
          and worst_r1_eq <= 1e-10)
    report_line(4, ok, "inequality suites "
                       f"(Newton {worst_newton:.2e}, Maclaurin {worst_maclaurin:.2e}, "
                       f"sharpened {worst_sharp:.2e}, lemma gap {worst_lemma:.2e}, "
                       f"r=1 equality {worst_r1_eq:.2e})")
    assert worst_newton >= -1e-12
    assert worst_maclaurin >= -1e-12
    assert worst_sharp >= -1e-10
    assert worst_lemma >= -1e-10
    assert worst_r1_eq <= 1e-10


def test_criterion_5_proof_chain_on_surfaces(calibrations):
    worst_cs = math.inf
    worst_19 = math.inf
    for delta, r, surf, order in gated_surfaces():
        rule = build_rule(surf.n, order)
        rep = run_pinch(surf, r, RunSettings(quad_order=order, constants=CONSTANTS))
        assert gate_overall(rep.gates), f"gates must pass at delta={delta}, r={r}"
        cs = cauchy_schwarz_chain_check(surf, rule)
        worst_cs = min(worst_cs, cs.value)
        bound19 = tau_l2_epsilon_bound(surf, r, h=rep.h, K2=rep.constants.K2, rule=rule)
        worst_19 = min(worst_19, bound19.value)
    ok = worst_cs >= -1e-8 and worst_19 >= -1e-8
    report_line(5, ok, f"proof-chain inequalities on 6 gated surfaces "
                       f"(Cauchy-Schwarz {worst_cs:.2e}, tau^2<=K2|eps| {worst_19:.2e})")
    assert worst_cs >= -1e-8
    assert worst_19 >= -1e-8


def test_criterion_6_stability_experiment():
    amplitudes = (0.08, 0.04, 0.02, 0.01)
    all_ok = True
    details = []
    for r in (1, 2):
        for delta in DELTAS:
            base, order = family(delta, r)
            study = scaling_study(base, amplitudes, r,
                                  RunSettings(quad_order=order, constants=CONSTANTS))
            gates_small = all(row.gates_passed for row in study.rows
                              if row.amplitude <= 0.04)
            reg = study.regression
            slope_ok = reg is not None and reg.slope >= 0.8 and reg.residual <= 0.1
            bound_ok = all(row.dH <= row.bound for row in study.rows if row.applicable)
            case_ok = gates_small and study.monotone and slope_ok and bound_ok
            all_ok &= case_ok
            details.append(f"d={delta:+.0f},r={r}: slope={reg.slope:.3f} "
                           f"res={reg.residual:.3f} mono={study.monotone} "
                           f"gates<=0.04={gates_small} bound={bound_ok}")
    report_line(6, all_ok, "stability experiment; " + "; ".join(details))
    assert all_ok


def test_criterion_7_sphere_fitting():
    rng = np.random.Generator(np.random.Philox(777))
    dirs = rng.normal(size=(240, 3))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    worst_center = 0.0
    worst_radius = 0.0
    worst_drift = 0.0
    for delta in DELTAS:
        model = SpaceFormModel(delta=delta, ambient_dim=3)
        center = np.array([0.12, -0.08, 0.15])
        rho = 0.75
        pts = sample_geodesic_sphere(model, center, rho, dirs)
        fit = fit_geodesic_sphere(pts, model)
        worst_center = max(worst_center, float(np.max(np.abs(fit.center - center))))
        worst_radius = max(worst_radius, abs(fit.rho0 - rho))
        resampled = sample_geodesic_sphere(model, fit.center, fit.rho0, dirs)
        refit = fit_geodesic_sphere(resampled, model)
        worst_drift = max(worst_drift,
                          float(np.max(np.abs(refit.center - fit.center))),
                          abs(refit.rho0 - fit.rho0))
    ok = worst_center < 1e-6 and worst_radius < 1e-6 and worst_drift < 1e-8
    report_line(7, ok, f"sphere fitting (center {worst_center:.2e}, "
                       f"radius {worst_radius:.2e}, refit drift {worst_drift:.2e})")
    assert worst_center < 1e-6
    assert worst_radius < 1e-6
    assert worst_drift < 1e-8


def test_criterion_8_determinism(tmp_path):
    cfg = tmp_path / "exp.ini"
    cfg.write_text(
        "[surface]\nn = 2\ndelta = 1.0\nrho0 = 1.0\nperturbation = 3,1:0.03\n\n"
        "[experiment]\nr = 1\nquad_order = 8\nquad_order_check = 16\nseed = 11\n"
        "amplitudes = 0.04 0.02\n\n[constants]\neps0 = 10.0\n"
    )
    pairs = []
    for command, filename in (("report", "report.txt"), ("identities", "identities.csv"),
                              ("pinch", "pinch.txt"), ("scaling", "scaling.csv")):
        blobs = []
        for sub in ("a", "b"):
            out = tmp_path / command / sub
            assert cli_main([command, "--config", str(cfg), "--out", str(out)]) == 0
            blobs.append((out / filename).read_bytes())
        pairs.append((command, blobs[0] == blobs[1]))
    ok = all(same for _, same in pairs)
    report_line(8, ok, "byte-identical reruns for " +
                ", ".join(f"{cmd}={same}" for cmd, same in pairs))
    assert ok
