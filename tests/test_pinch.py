"""The stability experiment: eps field, gates, fitting, Hausdorff, scaling."""

import numpy as np
import pytest

from starpinch.constants import ConstantsConfig
from starpinch.errors import HypothesisError
from starpinch.pinch import (RunSettings, epsilon_field, fit_geodesic_sphere,
                             gate_overall, geodesic_sphere_chart,
                             hausdorff_distance, hypothesis_gate, run_pinch,
                             sample_geodesic_sphere, scaling_csv, scaling_study)
from starpinch.quadrature import build_rule
from starpinch.spaceform import (SpaceFormModel, c_delta, chart_radius,
                                 geodesic_distance, s_delta)
from starpinch.surface import RadialSurface

EPS0_DEMO = 10.0  # generous black-box threshold so the conditional bound bites


def make_surface(delta, rho0=1.0, perturbation=(), n=2):
    model = SpaceFormModel(delta=delta, ambient_dim=n + 1)
    return RadialSurface(n=n, model=model, rho0=rho0, perturbation=perturbation)


def settings(order=16, **kw):
    return RunSettings(quad_order=order,
                       constants=ConstantsConfig(eps0=EPS0_DEMO, **kw))


def sphere_directions(count, dim, seed):
    rng = np.random.Generator(np.random.Philox(seed))
    v = rng.normal(size=(count, dim))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


class TestEpsilonField:
    def test_geodesic_sphere_zero_field(self):
        rho_geo = 0.8
        model = SpaceFormModel(delta=-1.0, ambient_dim=3)
        surf = make_surface(-1.0, rho0=chart_radius(rho_geo, model))
        for r in (1,):
            h, eps = epsilon_field(surf, r, build_rule(2, 8))
            expect = (c_delta(rho_geo, -1.0) / s_delta(rho_geo, -1.0)) ** r
            assert h == pytest.approx(expect, rel=1e-11)
            assert np.max(np.abs(eps)) < 1e-11

    def test_user_supplied_h(self):
        surf = make_surface(0.0, rho0=2.0)
        h, eps = epsilon_field(surf, 1, build_rule(2, 8), h=0.5)
        assert h == 0.5
        assert np.max(np.abs(eps)) < 1e-13

    def test_amplitude_order(self):
        rule = build_rule(2, 16)
        l1 = {}
        for a in (0.04, 0.02):
            surf = make_surface(0.0, perturbation=(((3, 1), a),))
            _, eps = epsilon_field(surf, 1, rule)
            batch = surf.fields(rule)
            from starpinch.quadrature import integrate_batch

            vol = integrate_batch(batch, np.ones(len(batch.rho)), rule)
            l1[a] = integrate_batch(batch, np.abs(eps), rule) / vol
        assert l1[0.04] / l1[0.02] == pytest.approx(2.0, rel=0.1)

    def test_mean_zero_default(self):
        rule = build_rule(2, 16)
        surf = make_surface(1.0, perturbation=(((2, -1), 0.08),))
        _, eps = epsilon_field(surf, 1, rule)
        batch = surf.fields(rule)
        from starpinch.quadrature import integrate_batch

        vol = integrate_batch(batch, np.ones(len(batch.rho)), rule)
        assert abs(integrate_batch(batch, eps, rule) / vol) < 1e-12

    def test_hypothesis_violation_reported(self):
        surf = make_surface(0.0, n=3, perturbation=(("u1u2", 0.8),))
        with pytest.raises(HypothesisError):
            epsilon_field(surf, 2, build_rule(3, 6))


class TestGates:
    def test_sphere_all_pass(self):
        checks = hypothesis_gate(starshaped=True, R0=1.0, eps_linf=0.0, h=1.0,
                                 eps_l1=0.0, eps1=0.1, minH_rplus1=1.0,
                                 R=1.0, R_limit=np.inf)
        assert gate_overall(checks)

    def test_only_eps1_gate_fails(self):
        checks = hypothesis_gate(starshaped=True, R0=1.0, eps_linf=0.1, h=1.0,
                                 eps_l1=0.05, eps1=0.01, minH_rplus1=1.0,
                                 R=1.0, R_limit=np.inf)
        failed = [c.name for c in checks if not c.passed]
        assert failed == ["eps_l1_le_eps1"]
        assert not gate_overall(checks)


class TestSphereFit:
    @pytest.mark.parametrize("delta", [-1.0, 0.0, 1.0])
    def test_exact_sphere_recovery(self, delta):
        model = SpaceFormModel(delta=delta, ambient_dim=3)
        center = np.array([0.15, -0.1, 0.2])
        rho = 0.8
        pts = sample_geodesic_sphere(model, center, rho, sphere_directions(200, 3, 51))
        fit = fit_geodesic_sphere(pts, model, seed=1)
        assert np.max(np.abs(fit.center - center)) < 1e-6
        assert fit.rho0 == pytest.approx(rho, abs=1e-6)
        assert fit.rms < 1e-7

    def test_translated_flat_sphere(self):
        model = SpaceFormModel(delta=0.0, ambient_dim=3)
        center = np.array([0.4, 0.2, -0.3])
        pts = center + 1.3 * sphere_directions(150, 3, 52)
        fit = fit_geodesic_sphere(pts, model, seed=2)
        assert np.max(np.abs(fit.center - center)) < 1e-6
        assert fit.rho0 == pytest.approx(1.3, abs=1e-6)

    def test_inconsistent_radii_detected(self):
        model = SpaceFormModel(delta=0.0, ambient_dim=3)
        dirs = sphere_directions(120, 3, 53)
        pts = np.vstack([1.0 * dirs[:60], 1.2 * dirs[60:]])
        fit = fit_geodesic_sphere(pts, model, seed=3)
        assert fit.rms > 0.01

    def test_idempotent_refit(self):
        model = SpaceFormModel(delta=-1.0, ambient_dim=3)
        center = np.array([0.2, 0.05, -0.1])
        pts = sample_geodesic_sphere(model, center, 0.7, sphere_directions(180, 3, 54))
        fit1 = fit_geodesic_sphere(pts, model, seed=4)
        resampled = sample_geodesic_sphere(model, fit1.center, fit1.rho0,
                                           sphere_directions(180, 3, 54))
        fit2 = fit_geodesic_sphere(resampled, model, seed=4)
        assert np.max(np.abs(fit1.center - fit2.center)) < 1e-8
        assert abs(fit1.rho0 - fit2.rho0) < 1e-8

    def test_chart_representation_consistency(self):
        # every sampled point must sit at geodesic distance rho from the center
        model = SpaceFormModel(delta=1.0, ambient_dim=3)
        center = np.array([0.3, 0.0, -0.2])
        rho = 0.6
        pts = sample_geodesic_sphere(model, center, rho, sphere_directions(64, 3, 55))
        d = np.asarray(geodesic_distance(pts, center, model))
        assert np.max(np.abs(d - rho)) < 1e-12
        euc_center, euc_radius = geodesic_sphere_chart(model, center, rho)
        assert np.max(np.abs(np.linalg.norm(pts - euc_center, axis=1) - euc_radius)) < 1e-14


class TestHausdorff:
    def test_identical_sets(self):
        model = SpaceFormModel(delta=0.0, ambient_dim=3)
        pts = sphere_directions(100, 3, 61)
        assert hausdorff_distance(pts, pts, model) == 0.0

    def test_concentric_flat_spheres(self):
        model = SpaceFormModel(delta=0.0, ambient_dim=3)
        dirs = sphere_directions(4000, 3, 62)
        a = 1.0 * dirs
        b = 1.1 * dirs
        d = hausdorff_distance(a, b, model)
        assert d == pytest.approx(0.1, abs=5e-3)

    def test_concentric_geodesic_spheres(self):
        model = SpaceFormModel(delta=-1.0, ambient_dim=3)
        dirs = sphere_directions(4000, 3, 63)
        a = sample_geodesic_sphere(model, np.zeros(3), 0.8, dirs)
        b = sample_geodesic_sphere(model, np.zeros(3), 0.95, dirs)
        assert hausdorff_distance(a, b, model) == pytest.approx(0.15, abs=5e-3)


class TestRunPinch:
    def test_geodesic_sphere_run(self):
        model = SpaceFormModel(delta=-1.0, ambient_dim=3)
        surf = make_surface(-1.0, rho0=chart_radius(0.9, model))
        rep = run_pinch(surf, 1, settings(order=12))
        assert rep.dH < 1e-6
        assert rep.applicable and rep.bound_ok
        assert rep.eps_l1 < 1e-12
        assert rep.rho0 == pytest.approx(0.9, abs=1e-6)

    @pytest.mark.parametrize("delta", [-1.0, 0.0, 1.0])
    def test_perturbed_run_bound_holds(self, delta):
        surf = make_surface(delta, perturbation=(((3, 1), 0.02),))
        rep = run_pinch(surf, 1, settings(order=12))
        assert rep.dH > 0.0
        assert rep.applicable
        assert rep.dH <= rep.bound

    def test_dh_consistent_with_dense_sampling_oracle(self):
        # the generic point-cloud estimator overestimates by at most the
        # tangential sample spacing (first order), and never undershoots
        # the exact point-to-metric-sphere reduction used in run_pinch
        surf = make_surface(0.0, perturbation=(((3, 1), 0.03),))
        rep = run_pinch(surf, 1, settings(order=16))
        grid = build_rule(2, 40).nodes
        check = surf.fields(build_rule(2, 32))
        sphere_pts = sample_geodesic_sphere(surf.model, rep.sphere_center,
                                            rep.rho0, grid)
        oracle = hausdorff_distance(check.X, sphere_pts, surf.model)
        spacing = np.pi / 40.0
        assert rep.dH - 1e-3 <= oracle <= rep.dH + 1.5 * spacing

    def test_refinement_errors_are_doubled_rule_differences(self):
        surf = make_surface(-1.0, perturbation=(((3, 1), 0.04), ((2, 0), 0.02)))
        h, _ = epsilon_field(surf, 1, build_rule(2, 8))
        base, doubled = (run_pinch(surf, 1, RunSettings(quad_order=q, h_fixed=h,
                                                        enforce_bound=False))
                         for q in (8, 16))
        assert base.eps_l1_refinement == abs(base.eps_l1 - doubled.eps_l1)
        assert base.tau_l2_refinement == abs(base.tau_l2 - doubled.tau_l2)

    def test_r2_reports_partial_minimum(self):
        surf = make_surface(-1.0, rho0=0.9, n=3, perturbation=(("u1u2", 0.03),))
        rep = run_pinch(surf, 2, settings(order=6))
        batch = surf.fields(build_rule(3, 6))
        from starpinch.symfun import partial_H_extremes

        expect = float(np.min(partial_H_extremes(3, batch.kappa)))
        assert rep.minH_partial == pytest.approx(expect, rel=1e-12)

    def test_rigid_motion_equivariance_flat(self):
        from test_identities import rotated_copy, rotation_z

        # |eps| is kinked, so its integral is rotation-invariant to 1e-10
        # only when the rotation maps the azimuthal node set to itself;
        # generic angles agree only up to quadrature error
        order = 16
        angle = 5 * 2.0 * np.pi / (2 * order)
        surf = make_surface(0.0, perturbation=(((2, 1), 0.06), ((3, -2), 0.04)))
        R = rotation_z(angle)
        rot = rotated_copy(surf, R)
        rep_a = run_pinch(surf, 1, settings(order=order))
        rep_b = run_pinch(rot, 1, settings(order=order))
        assert rep_b.h == pytest.approx(rep_a.h, abs=1e-10)
        assert rep_b.eps_l1 == pytest.approx(rep_a.eps_l1, abs=1e-10)
        assert rep_b.rho0 == pytest.approx(rep_a.rho0, abs=1e-8)
        assert rep_b.dH == pytest.approx(rep_a.dH, abs=1e-6)
        # rho'(u) = rho(R^T u) places the surface at R * (old points)
        moved = R @ rep_a.sphere_center
        assert np.max(np.abs(rep_b.sphere_center - moved)) < 1e-6


class TestScalingStudy:
    def test_flat_family(self):
        base = make_surface(0.0, perturbation=(((3, 1), 1.0),))
        study = scaling_study(base, [0.08, 0.04, 0.02, 0.01], 1, settings(order=12))
        assert study.monotone
        assert study.regression is not None
        assert study.regression.slope >= 0.8
        assert study.regression.residual <= 0.1
        rows = study.rows
        assert rows[0].eps_l1 / rows[1].eps_l1 == pytest.approx(2.0, rel=0.1)
        assert all(row.gates_passed for row in rows)

    def test_single_amplitude_degenerate_regression(self):
        base = make_surface(0.0, perturbation=(((2, 0), 1.0),))
        study = scaling_study(base, [0.05], 1, settings(order=8))
        assert study.regression is None
        assert len(study.rows) == 1

    def test_rejects_nondecreasing_amplitudes(self):
        base = make_surface(0.0, perturbation=(((2, 0), 1.0),))
        with pytest.raises(ValueError):
            scaling_study(base, [0.01, 0.02], 1, settings(order=8))

    def test_csv_schema(self):
        base = make_surface(0.0, perturbation=(((2, 0), 1.0),))
        study = scaling_study(base, [0.04, 0.02], 1, settings(order=8))
        text = scaling_csv(study)
        header = text.splitlines()[0]
        assert header == ("amplitude,eps_l1,eps_linf,tau_l2,tau_lnp1,"
                          "R0,B_sup,rho0,dH,bound,applicable")
        assert "# regression slope=" in text
