"""Quadrature rules, surface integrals, normalized L^p norms."""

import math

import numpy as np
import pytest

from starpinch.quadrature import (build_rule, integrate_batch, lp_norm,
                                  sphere_area, surface_integral, surface_volume)
from starpinch.spaceform import SpaceFormModel
from starpinch.surface import RadialSurface


def monomial_integral(expo):
    """Exact integral of x^alpha over the unit sphere (Gamma-function oracle)."""
    if any(e % 2 for e in expo):
        return 0.0
    num = 2.0 * math.prod(math.gamma((e + 1) / 2.0) for e in expo)
    return num / math.gamma((sum(expo) + len(expo)) / 2.0)


def flat_sphere(rho0=1.0, perturbation=(), n=2):
    model = SpaceFormModel(delta=0.0, ambient_dim=n + 1)
    return RadialSurface(n=n, model=model, rho0=rho0, perturbation=perturbation)


class TestRules:
    @pytest.mark.parametrize("n", [2, 3])
    def test_total_weight_is_sphere_area(self, n):
        rule = build_rule(n, 12)
        assert math.fsum(rule.weights.tolist()) == pytest.approx(sphere_area(n), rel=1e-13)
        assert np.all(rule.weights > 0.0)

    @pytest.mark.parametrize("n", [2, 3])
    def test_monomial_exactness(self, n):
        order = 10
        rule = build_rule(n, order)
        rng = np.random.Generator(np.random.Philox(21))
        for _ in range(60):
            expo = rng.integers(0, 4, size=n + 1)
            while sum(expo) > order:
                expo = rng.integers(0, 4, size=n + 1)
            vals = np.prod(rule.nodes ** np.asarray(expo, dtype=float), axis=1)
            got = math.fsum((vals * rule.weights).tolist())
            expect = monomial_integral(tuple(int(e) for e in expo))
            assert got == pytest.approx(expect, rel=1e-12, abs=1e-12)

    def test_first_coordinate_squared(self):
        rule = build_rule(2, 8)
        got = float(np.sum(rule.nodes[:, 0] ** 2 * rule.weights))
        assert got == pytest.approx(4.0 * math.pi / 3.0, rel=1e-13)

    def test_odd_function_vanishes(self):
        rule = build_rule(2, 8)
        got = float(np.sum(rule.nodes[:, 2] * rule.weights))
        assert abs(got) < 1e-14

    def test_rejects_low_order_and_bad_dim(self):
        with pytest.raises(ValueError):
            build_rule(2, 3)
        with pytest.raises(ValueError):
            build_rule(4, 8)

    @pytest.mark.parametrize("n", [2, 3])
    def test_rules_are_built_once_and_read_only(self, n):
        rule = build_rule(n, 10)
        assert build_rule(n, 10) is rule
        with pytest.raises(ValueError):
            rule.nodes[0, 0] = 0.0
        with pytest.raises(ValueError):
            rule.weights[0] = 0.0


class TestSurfaceIntegral:
    def test_unit_sphere_area(self):
        est = surface_volume(flat_sphere(1.0), build_rule(2, 8))
        assert est.value == pytest.approx(4.0 * math.pi, rel=1e-13)
        assert est.refinement_error < 1e-12

    def test_area_scaling(self):
        est = surface_volume(flat_sphere(2.0), build_rule(2, 8))
        assert est.value == pytest.approx(16.0 * math.pi, rel=1e-13)

    def test_support_integral_on_unit_sphere(self):
        est = surface_integral(flat_sphere(1.0), lambda b: b.support, build_rule(2, 8))
        assert est.value == pytest.approx(-4.0 * math.pi, rel=1e-13)

    def test_spectral_refinement_decay(self):
        surf = flat_sphere(1.0, perturbation=(((3, 1), 0.15), ((2, -1), 0.1)))

        def field(batch):
            return np.exp(batch.X[:, 0] + 0.3 * batch.X[:, 2] ** 2)

        errs = [surface_integral(surf, field, build_rule(2, o)).refinement_error
                for o in (6, 12, 24)]
        for coarse, fine in zip(errs, errs[1:]):
            assert fine <= coarse / 10.0 or fine < 1e-12


class TestGeodesicSphereAreas:
    # closed forms: |S_rho| = 4 pi s_d(rho)^2 in M^3, 2 pi^2 s_d(rho)^3 in M^4
    @pytest.mark.parametrize("delta", [-1.0, 0.0, 1.0])
    def test_n2_area(self, delta):
        from starpinch.spaceform import SpaceFormModel, chart_radius, s_delta

        rho = 0.8
        model = SpaceFormModel(delta=delta, ambient_dim=3)
        surf = RadialSurface(n=2, model=model, rho0=chart_radius(rho, model))
        est = surface_volume(surf, build_rule(2, 12))
        assert est.value == pytest.approx(4.0 * math.pi * s_delta(rho, delta) ** 2,
                                          rel=1e-12)

    @pytest.mark.parametrize("delta", [-1.0, 0.0, 1.0])
    def test_n3_area(self, delta):
        from starpinch.spaceform import SpaceFormModel, chart_radius, s_delta

        rho = 0.6
        model = SpaceFormModel(delta=delta, ambient_dim=4)
        surf = RadialSurface(n=3, model=model, rho0=chart_radius(rho, model))
        est = surface_volume(surf, build_rule(3, 8))
        assert est.value == pytest.approx(2.0 * math.pi**2 * s_delta(rho, delta) ** 3,
                                          rel=1e-12)


class TestLpNorms:
    def test_constant_field(self):
        surf = flat_sphere(1.3, perturbation=(((2, 1), 0.1),))
        for p in (1.0, 2.0, 3.0):
            got = lp_norm(surf, lambda b: np.full(len(b.rho), -2.5), p, build_rule(2, 12))
            assert got == pytest.approx(2.5, rel=1e-13)

    def test_unit_field_normalized(self):
        surf = flat_sphere(0.7, perturbation=(((3, 2), 0.05),))
        for p in (1.0, 2.0, 3.0):
            got = lp_norm(surf, lambda b: np.ones(len(b.rho)), p, build_rule(2, 12))
            assert got == pytest.approx(1.0, abs=1e-13)

    def test_monotone_in_p(self):
        surf = flat_sphere(1.0, perturbation=(((2, 0), 0.1),))
        rule = build_rule(2, 16)

        def bump(batch):
            return np.exp(-8.0 * (batch.nodes[:, 2] - 0.6) ** 2)

        norms = [lp_norm(surf, bump, p, rule) for p in (1.0, 2.0, 3.0, 5.0)]
        for lo, hi in zip(norms, norms[1:]):
            assert lo <= hi + 1e-12

    def test_umbilic_defect_vanishes_on_sphere(self):
        surf = flat_sphere(1.0)
        got = lp_norm(surf, lambda b: np.sqrt(b.tau_norm_sq()), 1.0, build_rule(2, 8))
        assert got < 1e-13

    def test_rejects_subunit_p(self):
        with pytest.raises(ValueError):
            lp_norm(flat_sphere(), lambda b: b.rho, 0.5, build_rule(2, 8))
