"""Residual checks for the integral identities and the inequality chain."""

import dataclasses
from types import SimpleNamespace

import numpy as np
import pytest

import starpinch.identities as identities_module
from starpinch import ConstantsConfig, RunSettings, run_pinch
from starpinch.constants import K2
from starpinch.errors import HypothesisError
from starpinch.identities import (IDENTITY, INEQUALITY, ResidualReport, batch_mean,
                                  cauchy_schwarz_chain_check, epsilon_field,
                                  gauss_algebraic_check,
                                  hsiung_minkowski_residual, lemma1_gap,
                                  michael_simon_ratio, residuals,
                                  tau_l2_epsilon_bound)
from starpinch.quadrature import batch_volume, build_rule, integrate_batch
from starpinch.spaceform import SpaceFormModel, c_delta
from starpinch.surface import RadialSurface
from starpinch.symfun import default_c_n, mean_curvatures, K1


def make_surface(delta, rho0=1.0, perturbation=(), n=2):
    model = SpaceFormModel(delta=delta, ambient_dim=n + 1)
    return RadialSurface(n=n, model=model, rho0=rho0, perturbation=perturbation)


def rotated_copy(surface, R):
    """Surface with rho'(u) = rho(R^T u), via numeric re-expansion per degree."""
    def basis_values(key, points):  # rho - 1 of the surface rho0 = 1, amplitude 1
        return RadialSurface(n=2, model=surface.model, rho0=1.0,
                             perturbation=((key, 1.0),)).rho_values(points) - 1.0

    rule = build_rule(2, 20)
    pts = rule.nodes
    new_pert = []
    for (l, m), amp in surface.perturbation:
        keys = [(l, mm) for mm in range(-l, l + 1)]
        design = np.stack([basis_values(k, pts) for k in keys], axis=1)
        target = basis_values((l, m), pts @ R)
        coeff, *_ = np.linalg.lstsq(design, target, rcond=None)
        for k, c in zip(keys, coeff):
            if abs(c) > 1e-13:
                new_pert.append((k, amp * float(c)))
    return RadialSurface(n=2, model=surface.model, rho0=surface.rho0,
                         perturbation=tuple(new_pert))


def rotation_z(angle):
    c, s = np.cos(angle), np.sin(angle)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


class TestHsiungMinkowski:
    def test_round_sphere_exact(self):
        rep = hsiung_minkowski_residual(make_surface(0.0), 0, build_rule(2, 8))
        assert abs(rep.value) < 1e-15
        assert rep.passed

    @pytest.mark.parametrize("delta", [-1.0, 0.0, 1.0])
    def test_perturbed_surfaces(self, delta):
        surf = make_surface(delta, perturbation=(((3, 1), 0.1), ((2, 0), 0.05)))
        for k in (0, 1):
            rep = hsiung_minkowski_residual(surf, k, build_rule(2, 32))
            assert abs(rep.value) <= 1e-8
            assert rep.passed

    def test_rotation_invariance(self):
        surf = make_surface(0.0, perturbation=(((3, 1), 0.12),))
        rot = rotated_copy(surf, rotation_z(0.8))
        rule = build_rule(2, 24)
        for k in (0, 1):
            a = hsiung_minkowski_residual(surf, k, rule).value
            b = hsiung_minkowski_residual(rot, k, rule).value
            assert abs(a - b) < 1e-12

    def test_rejects_bad_order(self):
        with pytest.raises(ValueError):
            hsiung_minkowski_residual(make_surface(0.0), 2, build_rule(2, 8))


def fixed_fields(surface, rule, H, tau_sq):
    """A stand-in surface whose batch at ``rule`` has the given H and tau^2 at every node."""
    batch = surface.fields(rule)
    N = len(batch.nodes)
    batch = dataclasses.replace(batch, H=np.tile(H, (N, 1)), tau_sq=np.full(N, tau_sq))
    return SimpleNamespace(fields=lambda rl: batch)


class TestGaussAlgebraic:
    def test_umbilic_batch(self):
        rep = gauss_algebraic_check(make_surface(0.0, rho0=1.5), build_rule(2, 8))
        assert rep.value < 1e-15 and rep.passed

    def test_hand_value_two_dims(self):
        # kappa = (0, 2): H = (1, 1, 0), tau^2 = 2 = n(n-1)(H^2 - H_2), |S|^2 = 4
        surf, rule = make_surface(0.0), build_rule(2, 8)
        rep = gauss_algebraic_check(fixed_fields(surf, rule, [1.0, 1.0, 0.0], 2.0), rule)
        assert rep.value == 0.0 and rep.passed
        # tau^2 off by 1e-9 relative: the residual is 2e-9 / |S|^2
        rep = gauss_algebraic_check(fixed_fields(surf, rule, [1.0, 1.0, 0.0], 2.0 + 2e-9), rule)
        assert rep.value == pytest.approx(5e-10, rel=1e-6) and not rep.passed

    def test_random_batch_relative(self):
        rng = np.random.Generator(np.random.Philox(31))
        kappa = rng.uniform(-2.0, 2.0, size=(100_000, 5))
        H = mean_curvatures(kappa)
        tau_sq = np.sum((kappa - kappa.mean(axis=1, keepdims=True)) ** 2, axis=1)
        rhs = 5 * 4 * (H[:, 1] ** 2 - H[:, 2])
        scale = np.maximum.reduce([np.abs(rhs), tau_sq, np.sum(kappa**2, axis=1)])
        assert float(np.max(np.abs(tau_sq - rhs) / scale)) < 1e-12

    def test_every_node_of_test_surfaces(self):
        rule2 = build_rule(2, 16)
        rule3 = build_rule(3, 6)
        cases = [
            (make_surface(-1.0, perturbation=(((3, 1), 0.1),)), rule2),
            (make_surface(1.0, perturbation=(((2, -2), 0.12),)), rule2),
            (make_surface(0.0, n=3, rho0=0.9, perturbation=(("u1u3", 0.06),)), rule3),
        ]
        for surf, rule in cases:
            batch = surf.fields(rule)
            n = surf.n
            H = mean_curvatures(batch.kappa)
            tau_sq = batch.tau_sq
            rhs = n * (n - 1) * (H[:, 1] ** 2 - H[:, 2])
            scale = np.maximum.reduce([np.abs(rhs), tau_sq,
                                       np.sum(batch.kappa**2, axis=1)])
            assert float(np.max(np.abs(tau_sq - rhs) / scale)) < 1e-12


class TestCauchySchwarz:
    def test_round_sphere_both_sides_vanish(self):
        rep = cauchy_schwarz_chain_check(make_surface(0.0), build_rule(2, 8))
        assert abs(rep.value) < 1e-13 and rep.passed

    @pytest.mark.parametrize("delta", [-1.0, 0.0, 1.0])
    def test_perturbed_nonnegative(self, delta):
        surf = make_surface(delta, perturbation=(((2, 2), 0.2),))
        rep = cauchy_schwarz_chain_check(surf, build_rule(2, 16))
        assert rep.value >= 0.0 and rep.passed

    def test_flat_scaling_homogeneity(self):
        # tau and B scale as 1/length, so the gap scales as lambda^(-(2n+2))
        surf1 = make_surface(0.0, rho0=1.0, perturbation=(((3, -2), 0.1),))
        surf2 = make_surface(0.0, rho0=2.0, perturbation=(((3, -2), 0.1),))
        rule = build_rule(2, 16)
        v1 = cauchy_schwarz_chain_check(surf1, rule).value
        v2 = cauchy_schwarz_chain_check(surf2, rule).value
        assert v2 == pytest.approx(v1 * 2.0 ** (-6), rel=1e-10)


class TestLemmaGap:
    def test_umbilic_equality_r1(self):
        rep = lemma1_gap(make_surface(0.0, rho0=2.0), build_rule(2, 8), 1, K1=2.0)
        assert abs(rep.value) < 1e-14 and rep.passed

    def test_r1_identity_on_perturbed_nodes(self):
        surf = make_surface(-1.0, perturbation=(((3, 3), 0.1),))
        rep = lemma1_gap(surf, build_rule(2, 16), 1, K1=2.0)
        assert abs(rep.value) < 1e-10 and rep.passed

    def test_r2_gap_with_exact_constants(self):
        surf = make_surface(-1.0, rho0=0.9, n=3, perturbation=(("u1u2", 0.05),))
        rule = build_rule(3, 8)
        batch = surf.fields(rule)
        from starpinch.symfun import partial_H_extremes

        H = batch.H
        h = 2.0 * float(np.min(H[:, 2]))
        B_sup = float(np.max(np.abs(batch.kappa)))
        minH_partial = float(np.min(partial_H_extremes(3, batch.kappa)))
        k1 = K1(3, 2, minH_partial, h, B_sup, default_c_n(3))
        rep = lemma1_gap(surf, rule, 2, k1)
        assert rep.value >= -1e-10 and rep.passed


class TestSharedHypothesisCheck:
    # H_3 <= 0 at some node of this surface's order-6 rule
    def failing(self):
        return make_surface(0.0, n=3, perturbation=(("u1u2", 0.8),)), build_rule(3, 6)

    def test_lemma_gap_and_epsilon_field_raise_the_same_message(self):
        surf, rule = self.failing()
        with pytest.raises(HypothesisError) as lemma:
            lemma1_gap(surf, rule, 2, K1=1.0)
        with pytest.raises(HypothesisError) as eps:
            epsilon_field(surf.fields(rule), 2)
        assert str(lemma.value) == str(eps.value)
        bad = int(np.argmin(surf.fields(rule).H[:, 3]))
        assert f"node {bad} has" in str(lemma.value)
        assert f"(u = {rule.nodes[bad]})" in str(lemma.value)

    def test_tau_l2_epsilon_bound_needs_H_r_plus_1_positive(self):
        surf, rule = self.failing()
        with pytest.raises(HypothesisError, match="H_3 must be positive"):
            tau_l2_epsilon_bound(surf, 2, h=1.0, K2=1.0, rule=rule)

    def test_residual_means_integrate_at_the_identities_name(self, monkeypatch):
        # bench/tracing.py counts integrate_batch at starpinch.identities' name
        calls, integrate = [], identities_module.integrate_batch
        monkeypatch.setattr(identities_module, "integrate_batch",
                            lambda *a, **kw: calls.append(1) or integrate(*a, **kw))
        hsiung_minkowski_residual(make_surface(-1.0, perturbation=(((3, 1), 0.05),)), 1,
                                  build_rule(2, 8))
        assert len(calls) == 2  # one mean on the base rule, one on the doubled rule

    def test_run_pinch_integrates_at_the_identities_name(self, monkeypatch):
        calls, integrate = [], identities_module.integrate_batch
        monkeypatch.setattr(identities_module, "integrate_batch",
                            lambda *a, **kw: calls.append(1) or integrate(*a, **kw))
        run_pinch(make_surface(-1.0, rho0=0.9, perturbation=(("u1u2", 0.04),), n=3), 2,
                  RunSettings(quad_order=8, constants=ConstantsConfig(eps0=10.0)))
        assert build_rule(3, 16).size == 4 * 2048
        # the means h and |tau|_4, the base batch and the four blocks of the doubled rule
        assert len(calls) == 2 + 1 + 4

    def test_residual_means_are_the_batch_means(self):
        # the refinement pass's sum over its volume gives batch_mean's bits
        surf, rule = make_surface(-1.0, perturbation=(((3, 1), 0.05),)), build_rule(2, 8)
        rep = hsiung_minkowski_residual(surf, 1, rule)
        b = surf.fields(rule)
        assert rep.value == batch_mean(b, b.H[:, 2] * b.support + c_delta(b.r, -1.0) * b.H[:, 1])


class TestTauEpsilonBound:
    def test_round_sphere_trivial(self):
        surf = make_surface(0.0, rho0=1.0)
        rep = tau_l2_epsilon_bound(surf, 1, h=1.0, K2=5.0, rule=build_rule(2, 8))
        assert abs(rep.value) < 1e-12 and rep.passed

    @pytest.mark.parametrize("delta", [-1.0, 0.0, 1.0])
    def test_perturbed_surface(self, delta):
        rule = build_rule(2, 16)
        surf = make_surface(delta, perturbation=(((3, 1), 0.05),))
        batch = surf.fields(rule)
        H = batch.H
        vol = integrate_batch(batch, np.ones(len(batch.rho)))
        h = integrate_batch(batch, H[:, 1]) / vol
        from starpinch.surface import starshape_report

        star = starshape_report(batch)
        B_sup = float(np.max(np.abs(batch.kappa)))
        k2 = K2(delta, 2.0, star.R0, B_sup, star.R)
        rep = tau_l2_epsilon_bound(surf, 1, h=h, K2=k2, rule=rule)
        assert rep.value >= 0.0 and rep.passed

    def test_amplitude_scaling_orders(self):
        # leading order: int tau^2 ~ a^2 while int |eps| ~ a
        rule = build_rule(2, 16)
        vals = {}
        for a in (0.05, 0.025):
            surf = make_surface(0.0, perturbation=(((3, 1), a),))
            batch = surf.fields(rule)
            vol = integrate_batch(batch, np.ones(len(batch.rho)))
            H = batch.H
            h = integrate_batch(batch, H[:, 1]) / vol
            tau_int = integrate_batch(batch, batch.tau_sq)
            eps_int = integrate_batch(batch, np.abs(H[:, 1] - h))
            vals[a] = (tau_int, eps_int)
        tau_ratio = vals[0.05][0] / vals[0.025][0]
        eps_ratio = vals[0.05][1] / vals[0.025][1]
        assert tau_ratio == pytest.approx(4.0, rel=0.1)
        assert eps_ratio == pytest.approx(2.0, rel=0.1)


def test_identity_rows_read_each_rules_volume(monkeypatch):
    # every row of `starpinch identities`, on the base and the doubled rule
    surf = make_surface(-1.0, perturbation=(((3, 1), 0.05), ((2, 0), 0.03)))
    seen, estimate = [], identities_module.refinement_estimate
    monkeypatch.setattr(identities_module, "refinement_estimate",
                        lambda s, rl, columns, combine, **kw: estimate(
                            s, rl, columns, lambda m, *r: seen.append(m) or combine(m, *r), **kw))
    rows = residuals(surf, build_rule(2, 12), 1.0)
    assert [m.volume for m in seen] == [batch_volume(surf.fields(build_rule(2, q)))
                                        for q in (12, 24)]
    # Michael-Simon's euclidean volume is one of its own columns, the sum batch_volume takes
    batch = surf.fields(build_rule(2, 12))
    total_H = integrate_batch(batch, np.abs(batch.H_tilde), euclidean=True)
    assert rows[3].value == total_H - batch_volume(batch, euclidean=True) ** 0.5


class TestRefinementError:
    @pytest.fixture
    def surface(self):
        return make_surface(-1.0, perturbation=(((3, 1), 0.04), ((2, 0), 0.02)))

    @pytest.mark.parametrize("check", [
        lambda s, rl: hsiung_minkowski_residual(s, 0, rl),
        lambda s, rl: hsiung_minkowski_residual(s, 1, rl),
        lambda s, rl: cauchy_schwarz_chain_check(s, rl),
        lambda s, rl: michael_simon_ratio(s, rl, Kn=1.0),
    ], ids=["hsiung_k0", "hsiung_k1", "cauchy_schwarz", "michael_simon"])
    def test_equals_doubled_rule_difference(self, surface, check):
        base = check(surface, build_rule(2, 8))
        doubled = check(surface, build_rule(2, 16))
        assert base.refinement_error == abs(base.value - doubled.value)

    def test_tau_l2_epsilon_bound_adds_both_errors(self, surface):
        # K2 * |d eps| + |d tau| bounds the change of K2 * eps - tau
        base, doubled = (tau_l2_epsilon_bound(surface, 1, 0.9, 3.0, build_rule(2, q))
                         for q in (8, 16))
        assert base.refinement_error >= abs(base.value - doubled.value)


class TestVerdict:
    @pytest.mark.parametrize("kind, value", [(IDENTITY, 2e-8), (INEQUALITY, -2e-8)])
    def test_refinement_error_never_widens_the_tolerance(self, kind, value):
        rep = ResidualReport(name="x", value=value, tolerance=1e-8,
                             refinement_error=5e-8, kind=kind)
        assert not rep.passed


class TestResidualTable:
    def test_csv_emitter(self):
        from starpinch.identities import residual_table

        surf = make_surface(0.0, perturbation=(((2, 0), 0.05),))
        reports = [hsiung_minkowski_residual(surf, k, build_rule(2, 12)) for k in (0, 1)]
        text = residual_table(reports)
        assert "\r" not in text and text.endswith("\n")
        lines = text.splitlines()
        assert lines[0] == "name,value,tolerance,refinement_error,pass"
        assert len(lines) == 3
        assert lines[1].startswith("hsiung_minkowski_k0,")


class TestMichaelSimon:
    def test_euclidean_unit_sphere_numbers(self):
        # area^(1/2) = sqrt(4 pi) vs int |H| = 4 pi; K(2) = 1 passes easily
        surf = make_surface(0.0)
        rep = michael_simon_ratio(surf, build_rule(2, 8), Kn=1.0)
        expect = 4.0 * np.pi - np.sqrt(4.0 * np.pi)
        assert rep.value == pytest.approx(expect, rel=1e-12)
        assert rep.passed

    def test_scaling_leaves_verdict_invariant(self):
        rule = build_rule(2, 12)
        for rho0 in (0.5, 1.0, 2.0):
            surf = make_surface(0.0, rho0=rho0, perturbation=(((2, 1), 0.1),))
            assert michael_simon_ratio(surf, rule, Kn=1.0).passed

    def test_perturbed_value_finite(self):
        surf = make_surface(-1.0, perturbation=(((3, 0), 0.15),))
        rep = michael_simon_ratio(surf, build_rule(2, 12), Kn=1.0)
        assert np.isfinite(rep.value)
