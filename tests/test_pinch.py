"""The stability experiment: eps field, gates, fitting, Hausdorff, scaling."""

import numpy as np
import pytest

import starpinch.pinch
from starpinch.constants import ConstantsConfig
from starpinch.errors import HypothesisError, NumericalError
from starpinch.pinch import (RunSettings, SphereFit, distance_to_geodesic_sphere,
                             epsilon_field, fit_geodesic_sphere, gate_overall,
                             geodesic_sphere_chart, hypothesis_gate, run_pinch,
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
            h, eps = epsilon_field(surf.fields(build_rule(2, 8)), r)
            expect = (c_delta(rho_geo, -1.0) / s_delta(rho_geo, -1.0)) ** r
            assert h == pytest.approx(expect, rel=1e-11)
            assert np.max(np.abs(eps)) < 1e-11

    def test_user_supplied_h(self):
        surf = make_surface(0.0, rho0=2.0)
        h, eps = epsilon_field(surf.fields(build_rule(2, 8)), 1, h=0.5)
        assert h == 0.5
        assert np.max(np.abs(eps)) < 1e-13

    def test_amplitude_order(self):
        rule = build_rule(2, 16)
        l1 = {}
        for a in (0.04, 0.02):
            surf = make_surface(0.0, perturbation=(((3, 1), a),))
            batch = surf.fields(rule)
            _, eps = epsilon_field(batch, 1)
            from starpinch.quadrature import integrate_batch

            vol = integrate_batch(batch, np.ones(len(batch.rho)))
            l1[a] = integrate_batch(batch, np.abs(eps)) / vol
        assert l1[0.04] / l1[0.02] == pytest.approx(2.0, rel=0.1)

    def test_mean_zero_default(self):
        rule = build_rule(2, 16)
        surf = make_surface(1.0, perturbation=(((2, -1), 0.08),))
        batch = surf.fields(rule)
        _, eps = epsilon_field(batch, 1)
        from starpinch.quadrature import integrate_batch

        vol = integrate_batch(batch, np.ones(len(batch.rho)))
        assert abs(integrate_batch(batch, eps) / vol) < 1e-12

    def test_hypothesis_violation_reported(self):
        surf = make_surface(0.0, n=3, perturbation=(("u1u2", 0.8),))
        with pytest.raises(HypothesisError):
            epsilon_field(surf.fields(build_rule(3, 6)), 2)


class TestGates:
    def test_sphere_all_pass(self):
        checks = hypothesis_gate(eps_linf=0.0, h=1.0, eps_l1=0.0, eps1=0.1, minH_rplus1=1.0,
                                 R=1.0, R_limit=np.inf)
        assert gate_overall(checks)

    def test_only_eps1_gate_fails(self):
        checks = hypothesis_gate(eps_linf=0.1, h=1.0, eps_l1=0.05, eps1=0.01, minH_rplus1=1.0,
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
        fit = fit_geodesic_sphere(pts, model)
        assert np.max(np.abs(fit.center - center)) < 1e-6
        assert fit.rho0 == pytest.approx(rho, abs=1e-6)
        assert fit.rms < 1e-7

    def test_translated_flat_sphere(self):
        model = SpaceFormModel(delta=0.0, ambient_dim=3)
        center = np.array([0.4, 0.2, -0.3])
        pts = center + 1.3 * sphere_directions(150, 3, 52)
        fit = fit_geodesic_sphere(pts, model)
        assert np.max(np.abs(fit.center - center)) < 1e-6
        assert fit.rho0 == pytest.approx(1.3, abs=1e-6)

    def test_inconsistent_radii_detected(self):
        model = SpaceFormModel(delta=0.0, ambient_dim=3)
        dirs = sphere_directions(120, 3, 53)
        pts = np.vstack([1.0 * dirs[:60], 1.2 * dirs[60:]])
        fit = fit_geodesic_sphere(pts, model)
        assert fit.rms > 0.01

    def test_idempotent_refit(self):
        model = SpaceFormModel(delta=-1.0, ambient_dim=3)
        center = np.array([0.2, 0.05, -0.1])
        pts = sample_geodesic_sphere(model, center, 0.7, sphere_directions(180, 3, 54))
        fit1 = fit_geodesic_sphere(pts, model)
        resampled = sample_geodesic_sphere(model, fit1.center, fit1.rho0,
                                           sphere_directions(180, 3, 54))
        fit2 = fit_geodesic_sphere(resampled, model)
        assert np.max(np.abs(fit1.center - fit2.center)) < 1e-8
        assert abs(fit1.rho0 - fit2.rho0) < 1e-8

    def test_weights_count_like_repeated_points(self):
        model = SpaceFormModel(delta=-1.0, ambient_dim=3)
        dirs = sphere_directions(120, 3, 56)
        pts = np.vstack([sample_geodesic_sphere(model, [0.1, 0.0, -0.05], 0.7, dirs[:70]),
                         sample_geodesic_sphere(model, [0.0, 0.1, 0.05], 0.8, dirs[70:])])
        weights = np.where(np.arange(len(pts)) < 30, 2.0, 1.0)
        weighted = fit_geodesic_sphere(pts, model, weights=weights)
        repeated = fit_geodesic_sphere(np.vstack([pts, pts[:30]]), model)
        assert np.max(np.abs(weighted.center - repeated.center)) < 1e-10
        assert abs(weighted.rho0 - repeated.rho0) < 1e-10
        assert abs(weighted.rms - repeated.rms) < 1e-10
        unweighted = fit_geodesic_sphere(pts, model)
        ones = fit_geodesic_sphere(pts, model, weights=np.ones(len(pts)))
        assert np.array_equal(unweighted.center, ones.center)
        assert (unweighted.rho0, unweighted.rms) == (ones.rho0, ones.rms)
        for bad in (weights[:-1], -weights, np.zeros(len(pts))):
            with pytest.raises(ValueError):
                fit_geodesic_sphere(pts, model, weights=bad)

    @pytest.mark.parametrize("delta", [-1.0, 0.0, 1.0])
    def test_fit_independent_of_rule_layout(self, delta):
        # the area-weighted fit of the nodes approximates one fit of the
        # continuous surface, whatever the tensor layout of the rule
        surf = make_surface(delta, rho0=0.9, n=3, perturbation=(("u1u2", 0.04),))
        fits = []
        for order in (12, 16, 24):
            rule = build_rule(3, order)
            batch = surf.fields(rule)
            fits.append(fit_geodesic_sphere(batch.X, surf.model,
                                            weights=batch.area_element * rule.weights))
        for fit in fits[1:]:
            assert np.max(np.abs(fit.center - fits[0].center)) < 1e-8
            assert abs(fit.rho0 - fits[0].rho0) < 1e-8
            assert fit.rms > 0.0
            assert fit.rms == pytest.approx(fits[0].rms, rel=1e-6)

    @pytest.mark.parametrize("delta", [-1.0, -0.25, 0.0, 0.5, 1.0])
    @pytest.mark.parametrize("dim", [3, 4])
    def test_jacobian_matches_central_differences(self, delta, dim):
        model = SpaceFormModel(delta=delta, ambient_dim=dim)
        radius = 2.0 if delta == 0.0 else model.model_radius
        pts = 0.6 * radius * sphere_directions(40, dim, 57) * np.linspace(0.2, 1.0, 40)[:, None]
        center = 0.15 * radius * sphere_directions(1, dim, 58)[0]
        d, jac = starpinch.pinch._distance_jacobian(pts, center, model)
        assert np.array_equal(d, geodesic_distance(pts, center, model))
        h = 1e-6
        for j in range(dim):
            e = h * np.eye(dim)[j]
            fd = (geodesic_distance(pts, center + e, model)
                  - geodesic_distance(pts, center - e, model)) / (2.0 * h)
            assert np.max(np.abs(jac[:, j] - fd)) <= 1e-7 * np.max(np.abs(jac))

    def test_sample_at_the_center_raises(self):
        model = SpaceFormModel(delta=-1.0, ambient_dim=3)
        center = np.array([0.1, 0.0, 0.0])
        pts = np.vstack([sample_geodesic_sphere(model, center, 0.5, sphere_directions(8, 3, 59)),
                         center])
        with pytest.raises(NumericalError):
            starpinch.pinch._distance_jacobian(pts, center, model)

    def test_iteration_cap_raises(self, monkeypatch):
        model = SpaceFormModel(delta=1.0, ambient_dim=3)
        pts = make_surface(1.0, perturbation=(((3, 1), 0.04),)).fields(build_rule(2, 8)).X
        monkeypatch.setattr(starpinch.pinch, "_MAX_STEPS", 1)
        with pytest.raises(NumericalError, match="did not converge"):
            fit_geodesic_sphere(pts, model)

    @pytest.mark.parametrize("delta", [-1.0, 0.0, 1.0])
    def test_fit_does_not_amplify_roundoff(self, delta):
        # a 1e-15 relative change of every node moves the fit by no more
        surf = make_surface(delta, perturbation=(((3, 1), 0.04), ((2, 0), 0.02)))
        rule = build_rule(2, 12)
        batch = surf.fields(rule)
        weights = batch.area_element * rule.weights
        fit = fit_geodesic_sphere(batch.X, surf.model, weights=weights)
        rng = np.random.Generator(np.random.Philox(60))
        for _ in range(3):
            noisy = batch.X * (1.0 + 1e-15 * rng.uniform(-1.0, 1.0, size=batch.X.shape))
            moved = fit_geodesic_sphere(noisy, surf.model, weights=weights)
            assert np.max(np.abs(moved.center - fit.center)) <= 1e-15
            assert moved.rho0 == pytest.approx(fit.rho0, rel=1e-13, abs=0.0)
            assert moved.rms == pytest.approx(fit.rms, rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("delta", [-1.0, 0.0, 1.0])
    def test_few_iterations_on_the_acceptance_surfaces(self, delta):
        # the six gated surfaces of the acceptance suite, as run_pinch fits them
        for surf, order in ((make_surface(delta, perturbation=(((3, 1), 0.04),)), 12),
                            (make_surface(delta, rho0=0.9, n=3,
                                          perturbation=(("u1u2", 0.04),)), 8)):
            rule = build_rule(surf.n, order)
            batch = surf.fields(rule)
            fit = fit_geodesic_sphere(batch.X, surf.model,
                                      weights=batch.area_element * rule.weights)
            assert 1 <= fit.iterations <= 8

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


def brute_force_hausdorff(a, b, model, chunk=512):
    """Max of the two directed sup-min geodesic distances, by a full sweep.

    Sweeps chunk x chunk blocks so that the temporaries stay small.
    """
    nearest_a, nearest_b = np.full(len(a), np.inf), np.full(len(b), np.inf)
    for i in range(0, len(a), chunk):
        for j in range(0, len(b), chunk):
            d = geodesic_distance(a[i:i + chunk, None, :], b[None, j:j + chunk, :], model)
            nearest_a[i:i + chunk] = np.minimum(nearest_a[i:i + chunk], d.min(axis=1))
            nearest_b[j:j + chunk] = np.minimum(nearest_b[j:j + chunk], d.min(axis=0))
    return float(max(nearest_a.max(), nearest_b.max()))


class TestSphereDistance:
    """dH reads |d(c, x) - rho0|; check it against the nearest sphere samples."""

    @pytest.mark.parametrize("delta", [-1.0, -0.25, 0.0, 0.5, 1.0])
    def test_concentric_spheres_are_their_radius_gap_apart(self, delta):
        # each point's nearest point on the other sphere lies on its own ray
        model = SpaceFormModel(delta=delta, ambient_dim=3)
        dirs = sphere_directions(600, 3, 63)
        inner = sample_geodesic_sphere(model, np.zeros(3), 0.8, dirs)
        outer = sample_geodesic_sphere(model, np.zeros(3), 0.95, dirs)
        assert brute_force_hausdorff(inner, outer, model) == pytest.approx(0.15, abs=1e-13)
        for pts, rho in ((inner, 0.95), (outer, 0.8)):
            d = distance_to_geodesic_sphere(pts, np.zeros(3), rho, model)
            assert np.max(np.abs(d - 0.15)) < 1e-13

    @pytest.mark.parametrize("delta", [-1.0, -0.25, 0.0, 0.5, 1.0])
    def test_exact_distance_is_the_nearest_sphere_point(self, delta):
        model = SpaceFormModel(delta=delta, ambient_dim=3)
        dirs = sphere_directions(2000, 3, 66)
        scale = np.linspace(0.2, 1.4, 7)[:, None, None]
        # centred: a point on the ray of a sample has that sample as nearest
        sphere = sample_geodesic_sphere(model, np.zeros(3), 0.7, dirs)
        pts = (scale * dirs[None, :40]).reshape(-1, 3)
        nearest = geodesic_distance(pts[:, None, :], sphere[None, :, :], model).min(axis=1)
        exact = distance_to_geodesic_sphere(pts, np.zeros(3), 0.7, model)
        assert np.max(np.abs(nearest - exact)) < 1e-13
        # off-centre: no sample is nearer than the exact distance, and the
        # nearest is farther by at most the samples' spacing (0.055 at worst)
        center = np.array([0.3, -0.1, 0.2])
        sphere = sample_geodesic_sphere(model, center, 0.7, dirs)
        assert np.max(distance_to_geodesic_sphere(sphere, center, 0.7, model)) < 1e-13
        pts = (scale * sphere_directions(40, 3, 67)[None]).reshape(-1, 3)
        nearest = geodesic_distance(pts[:, None, :], sphere[None, :, :], model).min(axis=1)
        exact = distance_to_geodesic_sphere(pts, center, 0.7, model)
        assert np.all(exact <= nearest + 1e-13)
        assert np.max(nearest - exact) < 0.1


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

    @pytest.mark.parametrize("n, order", [(2, 16), (3, 8)])
    def test_exact_flat_sphere_passes_its_zero_bound(self, n, order):
        # eps = 0 exactly, so the bound is 0 while dH is a few ulps of rho0
        rep = run_pinch(make_surface(0.0, n=n), 1, settings(order=order))
        assert rep.bound == 0.0 and 0.0 < rep.dH <= 1e-13 * rep.rho0
        assert rep.applicable and rep.bound_ok

    def test_bound_violation_raises_whatever_the_refinement_error(self):
        # flat, rho0 = 1e-6: dH = 3.289e-8 exceeds the bound 1.65e-8; the
        # verdict ignores dH_refinement (3.6e-10 here)
        surf = make_surface(0.0, rho0=1e-6, perturbation=(((3, 1), 0.04), ((2, 0), 0.02)))
        with pytest.raises(NumericalError, match="stability bound violated"):
            run_pinch(surf, 1, settings(order=16))

    @pytest.mark.parametrize("n, delta, perturbation", [
        *(pytest.param(n, delta, perturbation, id=f"n{n}-delta{delta:+.0f}")
          for n, perturbation in ((2, (((3, 1), 0.03),)), (3, (("u1u2", 0.04),)))
          for delta in (-1.0, 0.0, 1.0)),
        # far off-center: the fitted |c| is 0.14
        pytest.param(2, -1.0, (((3, 1), 0.3), ((1, 0), 0.2)), id="n2-off-center"),
    ])
    def test_dh_consistent_with_dense_sampling_oracle(self, n, delta, perturbation):
        # the sphere side never beats the surface side: the brute-force
        # Hausdorff distance between a dense rule's nodes and the fitted
        # sphere sampled along the same directions exceeds the nodes' own
        # largest |d(c, x) - rho0| by at most the node spacing, and falls
        # short of it only by the rounding of the sampled sphere points
        surf = make_surface(delta, rho0=1.0 if n == 2 else 0.9, perturbation=perturbation, n=n)
        rep = run_pinch(surf, 1, settings(order=8 if n == 2 else 4))
        dense = build_rule(n, 32 if n == 2 else 12)
        X = surf.fields(dense).X
        sphere_pts = sample_geodesic_sphere(surf.model, rep.sphere_center, rep.rho0,
                                            dense.nodes)
        surface_side = float(np.max(distance_to_geodesic_sphere(
            X, rep.sphere_center, rep.rho0, surf.model)))
        oracle = brute_force_hausdorff(X, sphere_pts, surf.model)
        assert surface_side - 1e-13 <= oracle <= surface_side + np.pi / dense.order
        assert abs(rep.dH - surface_side) <= rep.dH_refinement

    def test_dh_refinement_is_the_difference_of_the_node_maxima(self):
        surf = make_surface(-1.0, perturbation=(((3, 1), 0.04), ((2, 0), 0.02)))
        rep = run_pinch(surf, 1, settings(order=12))
        base, check = (float(np.max(distance_to_geodesic_sphere(
            surf.fields(build_rule(2, q)).X, rep.sphere_center, rep.rho0, surf.model)))
            for q in (12, 24))
        assert rep.dH == check
        assert rep.dH_refinement == abs(base - check)

    @pytest.mark.parametrize("delta", [-1.0, 0.0, 1.0])
    def test_center_outside_the_surface_raises(self, monkeypatch, delta):
        # the surface side bounds dH only when the surface encloses the center
        def outside(samples, model, weights=None):
            return SphereFit(center=np.array([1.5, 0.0, 0.0]), rho0=1.0, rms=0.0,
                             iterations=1)

        monkeypatch.setattr(starpinch.pinch, "fit_geodesic_sphere", outside)
        with pytest.raises(NumericalError, match="outside the surface"):
            run_pinch(make_surface(delta), 1, settings(order=8))

    def test_refinement_errors_are_doubled_rule_differences(self):
        surf = make_surface(-1.0, perturbation=(((3, 1), 0.04), ((2, 0), 0.02)))
        h, _ = epsilon_field(surf.fields(build_rule(2, 8)), 1)
        base, doubled = (run_pinch(surf, 1, RunSettings(quad_order=q, h_fixed=h))
                         for q in (8, 16))
        assert base.eps_l1_refinement == abs(base.eps_l1 - doubled.eps_l1)
        assert base.tau_l2_refinement == abs(base.tau_l2 - doubled.tau_l2)

    def test_fit_is_the_volume_weighted_fit_of_the_base_rule(self):
        from starpinch.quadrature import integrate_batch

        surf = make_surface(-1.0, perturbation=(((3, 1), 0.04), ((2, 0), 0.02)))
        rep = run_pinch(surf, 1, settings(order=12))
        rule = build_rule(2, 12)
        batch = surf.fields(rule)
        d = np.asarray(geodesic_distance(batch.X, rep.sphere_center, surf.model))
        vol = integrate_batch(batch, np.ones(len(d)))
        assert rep.rho0 == pytest.approx(integrate_batch(batch, d) / vol, rel=1e-12)
        expect = np.sqrt(integrate_batch(batch, (d - rep.rho0) ** 2) / vol)
        assert rep.fit_rms == pytest.approx(expect, rel=1e-12)

    def test_r2_reports_partial_minimum(self):
        surf = make_surface(-1.0, rho0=0.9, n=3, perturbation=(("u1u2", 0.03),))
        rep = run_pinch(surf, 2, settings(order=6))
        batch = surf.fields(build_rule(3, 6))
        from starpinch.symfun import partial_H_extremes

        expect = float(np.min(partial_H_extremes(3, batch.kappa)))
        assert rep.minH_partial == pytest.approx(expect, rel=1e-12)

    def test_r2_uses_the_exact_c_n_and_samples_nothing(self, monkeypatch):
        from starpinch import symfun

        def no_sampling(*args, **kwargs):
            raise AssertionError("run_pinch must not sample curvatures")

        monkeypatch.setattr(symfun, "sample_positive_curvatures", no_sampling)
        surf = make_surface(-1.0, rho0=0.9, n=3, perturbation=(("u1u2", 0.03),))
        rep = run_pinch(surf, 2, settings(order=6))
        deps = rep.constants.dependencies
        assert deps["c_n"] == 0.125
        assert rep.constants.K1 == symfun.K1(3, 2, deps["minH_partial"], deps["h"],
                                             deps["B_sup"], 0.125)

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

    def test_csv_has_no_carriage_returns(self):
        base = make_surface(0.0, perturbation=(((2, 0), 1.0),))
        text = scaling_csv(scaling_study(base, [0.04, 0.02], 1, settings(order=8)))
        assert "\r" not in text and text.endswith("\n")
