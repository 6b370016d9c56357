"""Radial graphs: exact derivatives, curvature oracle, orientation, reports."""

import dataclasses
import tracemalloc
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from starpinch import surface as surface_module
from starpinch.errors import HypothesisError
from starpinch.quadrature import SphericalRule, build_rule, integrate_batch
from starpinch.spaceform import SpaceFormModel, c_delta, chart_radius, s_delta
from starpinch.surface import (B_sup_norm, RadialSurface, StarshapeReport, _jacobi_eigenvalues,
                               evaluate_nodes, starshape_report)
from starpinch.symfun import mean_curvatures, umbilicity_defect_sq

from oracles import position_vector

S3_BASIS_KEYS = tuple(surface_module._S3_BASIS)


def sphere(delta, rho_chart, n=2, perturbation=()):
    model = SpaceFormModel(delta=delta, ambient_dim=n + 1)
    return RadialSurface(n=n, model=model, rho0=rho_chart, perturbation=perturbation)


def basis_values(n, key, points):
    """One basis function at unit vectors: rho - 1 of the surface rho0 = 1, amplitude 1."""
    return sphere(0.0, 1.0, n=n, perturbation=((key, 1.0),)).rho_values(points) - 1.0


def node_fields(batch):
    """The SurfaceBatch node fields evaluate_nodes fills: all but the rule's weights and
    the index of the first node."""
    return [f.name for f in dataclasses.fields(batch) if f.name not in ("weights", "start")]


def tangent_frames(u):
    """Oracle: (N, n, d) orthonormal frames of u-perp, the rows a < n of the Householder
    reflection I - 2 w w^T / |w|^2 with w = u + sign(u_n) e_n (sign +1 at u_n = -0.0)."""
    u = np.asarray(u, dtype=float).T
    v = u.copy()
    v[-1] += np.where(u[-1] >= 0.0, 1.0, -1.0)
    frames = -2.0 * (v[:-1] / np.einsum("iN,iN->N", v, v))[:, None, :] * v[None, :, :]
    idx = np.arange(len(u) - 1)
    frames[idx, idx] += 1.0
    return frames.transpose(2, 0, 1)


def point_forms(surf, nodes):
    """Oracle: X (N, d), the h-metric forms g and B (N, n, n) and the h-unit inward normal
    nu (N, d) at the nodes, from the frames of tangent_frames and the ambient derivatives
    of rho: independent of the kernel's Householder contractions and of its algebra for M.

    Along c(t) = (u + t_a E_a)/|u + t_a E_a|, rho = P(c) has rho_a = E_a . grad P and
    rho_ab = E_a Hess(P) E_b - (u . grad P) delta_ab, so X = rho u has X_a = rho_a u + rho E_a
    and X_ab = (rho_ab - rho delta_ab) u + rho_a E_b + rho_b E_a; rho_a E_a - rho u is normal
    to every X_a.  With B~_ab = X_ab . nu~ and grad phi = -(delta/2) X/q, the conformal
    change gives g = g~/q^2, B = (B~ - (nu~ . grad phi) g~)/q and nu = q nu~.
    """
    u = np.asarray(nodes, dtype=float)
    rho, grad, hess = surface_module._polynomial_derivatives(surf._plan, u.T.copy())
    E, eye = tangent_frames(u), np.eye(surf.n)
    rho_a = np.einsum("Nad,dN->Na", E, grad)
    rho_ab = (np.einsum("Nad,deN,Nbe->Nab", E, hess, E)
              - np.einsum("Nd,dN->N", u, grad)[:, None, None] * eye)
    X = rho[:, None] * u
    X_a = rho_a[:, :, None] * u[:, None] + rho[:, None, None] * E
    X_ab = ((rho_ab - rho[:, None, None] * eye)[..., None] * u[:, None, None]
            + rho_a[:, :, None, None] * E[:, None] + rho_a[:, None, :, None] * E[:, :, None])
    nu_euc = np.einsum("Na,Nad->Nd", rho_a, E) - rho[:, None] * u
    nu_euc /= np.linalg.norm(nu_euc, axis=1, keepdims=True)
    g_euc = np.einsum("Nad,Nbd->Nab", X_a, X_a)
    B_euc = np.einsum("Nabd,Nd->Nab", X_ab, nu_euc)
    q = surf.model.conformal_factor(X)[:, None]
    dphi_nu = np.einsum("Nd,Nd->N", nu_euc, -(0.5 * surf.model.delta) * X / q)
    return (X, g_euc / q[:, :, None] ** 2,
            (B_euc - dphi_nu[:, None, None] * g_euc) / q[:, :, None], q * nu_euc)


def random_nodes(n, count, seed):
    rng = np.random.Generator(np.random.Philox(seed))
    v = rng.normal(size=(count, n + 1))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


class TestFrames:
    def test_orthonormal_and_tangent(self):
        for n in (2, 3):
            u = random_nodes(n, 500, seed=1)
            E = tangent_frames(u)
            gram = np.einsum("nad,nbd->nab", E, E)
            assert np.max(np.abs(gram - np.eye(n))) < 1e-14
            assert np.max(np.abs(np.einsum("nad,nd->na", E, u))) < 1e-14

    @pytest.mark.parametrize("n", [2, 3])
    def test_closed_form_contractions_match_the_frames(self, n):
        # u_n at the sign switch of the reflector (+-0.0), at the poles and at +-1e-300
        rng = np.random.Generator(np.random.Philox(41))
        last = np.array([0.0, -0.0, 1.0, -1.0, 1e-300, -1e-300])
        equator = random_nodes(n - 1, len(last), seed=42)
        u = np.column_stack([equator * np.where(np.abs(last) == 1.0, 0.0, 1.0)[:, None], last])
        u = np.concatenate([u, random_nodes(n, 50, seed=43)])
        grad = rng.normal(size=u.shape)
        hess = rng.normal(size=(len(u), n + 1, n + 1))
        hess = hess + hess.transpose(0, 2, 1)
        s, v, R = surface_module._tangential_derivatives(
            u.T.copy(), grad.T.copy(), hess.transpose(1, 2, 0).copy())
        E = tangent_frames(u)
        assert np.max(np.abs(s - np.einsum("Nd,Nd->N", u, grad))) <= 1e-14
        assert np.max(np.abs(v.T - np.einsum("Nad,Nd->Na", E, grad))) <= 1e-14
        R = R.transpose(2, 0, 1)
        assert np.array_equal(R, R.transpose(0, 2, 1))
        assert np.max(np.abs(R - np.einsum("Nad,Nde,Nbe->Nab", E, hess, E))) <= 1e-14
        # a constant Hessian, one column wide, gives the bits of its full-width broadcast
        column = hess[:1].transpose(1, 2, 0).copy()
        narrow = surface_module._tangential_derivatives(u.T.copy(), grad.T.copy(), column)
        wide = surface_module._tangential_derivatives(
            u.T.copy(), grad.T.copy(), np.repeat(column, len(u), axis=2))
        assert narrow[2].shape == wide[2].shape == (n, n, len(u))
        for a, b in zip(narrow, wide):
            assert a.tobytes() == b.tobytes()


class TestBasis:
    def test_spherical_harmonics_orthonormal(self):
        rule = build_rule(2, 24)
        keys = [(l, m) for l in range(5) for m in range(-l, l + 1)]
        vals = np.stack([basis_values(2, k, rule.nodes) for k in keys])
        gram = (vals * rule.weights) @ vals.T
        assert np.max(np.abs(gram - np.eye(len(keys)))) < 1e-12

    def test_s3_basis_normalized_and_mean_zero(self):
        rule = build_rule(3, 16)
        for key in S3_BASIS_KEYS:
            v = basis_values(3, key, rule.nodes)
            assert abs(float(np.sum(v * rule.weights))) < 1e-12
            assert float(np.sum(v * v * rule.weights)) == pytest.approx(1.0, rel=1e-12)


class TestRoundSpheres:
    def test_flat_sphere_point_data(self):
        rho0 = 2.0
        surf = sphere(0.0, rho0)
        u = np.array([[0.1, -0.3, 0.9]])
        data = evaluate_nodes(surf, u / np.linalg.norm(u))
        assert np.allclose(data.kappa[0], 1.0 / rho0, atol=1e-12)
        assert data.support[0] == pytest.approx(-rho0, abs=1e-12)
        assert data.area_element[0] == pytest.approx(rho0**2, rel=1e-12)
        assert np.linalg.norm(data.X[0]) == pytest.approx(rho0, abs=1e-14)

    @pytest.mark.parametrize("delta", [-1.0, 0.0, 1.0])
    @pytest.mark.parametrize("rho_geo", [0.3, 0.7, 1.2])
    def test_geodesic_sphere_curvature_oracle(self, delta, rho_geo):
        model = SpaceFormModel(delta=delta, ambient_dim=3)
        surf = sphere(delta, chart_radius(rho_geo, model))
        batch = evaluate_nodes(surf, random_nodes(2, 64, seed=2))
        expected = c_delta(rho_geo, delta) / s_delta(rho_geo, delta)
        assert np.max(np.abs(batch.kappa - expected)) < 1e-9
        assert np.max(np.abs(batch.support + s_delta(rho_geo, delta))) < 1e-12
        assert np.max(np.abs(batch.r - rho_geo)) < 1e-12

    def test_spherical_quarter_radius_is_unit_curvature(self):
        # h-radius pi/4 in the delta=1 model: kappa = cos/sin(pi/4) = 1
        model = SpaceFormModel(delta=1.0, ambient_dim=3)
        surf = sphere(1.0, chart_radius(np.pi / 4.0, model))
        batch = evaluate_nodes(surf, random_nodes(2, 16, seed=12))
        assert np.max(np.abs(batch.kappa - 1.0)) < 1e-12

    @pytest.mark.parametrize("delta", [-1.0, 1.0])
    def test_geodesic_sphere_oracle_n3(self, delta):
        rho_geo = 0.6
        model = SpaceFormModel(delta=delta, ambient_dim=4)
        surf = sphere(delta, chart_radius(rho_geo, model), n=3)
        batch = evaluate_nodes(surf, random_nodes(3, 32, seed=3))
        expected = c_delta(rho_geo, delta) / s_delta(rho_geo, delta)
        assert np.max(np.abs(batch.kappa - expected)) < 1e-9

    def test_unit_normal_in_h_metric(self):
        surf = sphere(-1.0, 0.8, perturbation=(((2, 1), 0.05),))
        X, _, _, nu = point_forms(surf, random_nodes(2, 100, seed=4))
        h_norms = np.linalg.norm(nu, axis=1) / surf.model.conformal_factor(X)
        assert np.max(np.abs(h_norms - 1.0)) < 1e-12

    @pytest.mark.parametrize("delta", [-1.0, 0.0, 1.0])
    @pytest.mark.parametrize("n, perturbation", [
        (2, (((3, 1), 0.12), ((2, 0), 0.06))),
        (3, (("u1u2", 0.08), ("u1^2-u4^2", 0.04))),
    ])
    def test_support_is_the_position_field_against_the_normal(self, n, perturbation, delta):
        # <Z, nu> in the h-metric h_euclid / q^2, Z = s_delta(r) grad r
        surf = sphere(delta, 0.9, n=n, perturbation=perturbation)
        nodes = random_nodes(n, 40, seed=10)
        X, _, _, nu = point_forms(surf, nodes)
        ref = np.einsum("Nd,Nd->N", position_vector(X, surf.model), nu)
        ref /= surf.model.conformal_factor(X) ** 2
        assert np.max(np.abs(evaluate_nodes(surf, nodes).support - ref)) <= 1e-14

    @pytest.mark.parametrize("n, perturbation", [
        (2, (((3, 1), 0.08), ((2, -2), 0.04))),
        (3, (("u1u2", 0.08), ("u1^2-u4^2", 0.04))),
    ])
    def test_normal_matches_svd_of_tangents(self, n, perturbation):
        # reference: inward null vector (SVD) of central-difference tangents
        surf = sphere(-1.0, 0.8, n=n, perturbation=perturbation)
        nodes = random_nodes(n, 20, seed=9)
        X, _, _, nu = point_forms(surf, nodes)
        nu_euc = nu / surf.model.conformal_factor(X)[:, None]
        t = 1e-5

        def immersion(w):
            c = w / np.linalg.norm(w)
            return surf.rho_values(c[None, :])[0] * c

        for u, E, nu in zip(nodes, tangent_frames(nodes), nu_euc):
            tangents = [(immersion(u + t * e) - immersion(u - t * e)) / (2 * t) for e in E]
            ref = np.linalg.svd(np.array(tangents))[2][-1]
            ref = -ref if ref @ u > 0.0 else ref
            assert np.max(np.abs(nu - ref)) < 1e-8


class TestExactDifferentiation:
    def test_fundamental_forms_match_finite_differences(self):
        self._check_against_finite_differences(2, (((3, 1), 0.08), ((2, -2), 0.04)))

    def test_fundamental_forms_match_finite_differences_n3(self):
        self._check_against_finite_differences(3, (("u1u2", 0.08), ("u1^2-u4^2", 0.04)))

    @staticmethod
    def _check_against_finite_differences(n, perturbation):
        # Richardson-extrapolated central differences on the immersion map
        surf = sphere(-1.0, 1.0, n=n, perturbation=perturbation)
        nodes = random_nodes(n, 6, seed=5)
        for u, E, *forms in zip(nodes, tangent_frames(nodes), *point_forms(surf, nodes)):

            def immersion(t):
                w = u + t @ E
                c = w / np.linalg.norm(w)
                return surf.rho_values(c[None, :])[0] * c

            g_euc, b_euc, nu_euc = _euclid_forms(surf, *forms)
            g_fd, b_fd = _fd_forms(immersion, n, nu_euc)
            assert np.max(np.abs(g_fd - g_euc)) < 1e-7
            assert np.max(np.abs(b_fd - b_euc)) < 1e-7


def _euclid_forms(surf, X, g, B, nu):
    # undo the conformal change: B_euclid = q * B_h + (nu~ . grad phi) g_euclid
    q = surf.model.conformal_factor(X)
    nu_euc = nu / q
    grad_phi = -(0.5 * surf.model.delta) * X / q
    g_euc = g * q**2
    return g_euc, q * B + float(nu_euc @ grad_phi) * g_euc, nu_euc


def _fd_forms(immersion, n, nu_euc):
    def second_derivs(h):
        step = h * np.eye(n)
        x0 = immersion(np.zeros(n))
        Xa = np.array([(immersion(e) - immersion(-e)) / (2 * h) for e in step])
        Xab = np.empty((n, n, n + 1))
        for a in range(n):
            Xab[a, a] = (immersion(step[a]) - 2 * x0 + immersion(-step[a])) / h**2
            for b in range(a + 1, n):
                pp, pm = step[a] + step[b], step[a] - step[b]
                Xab[a, b] = Xab[b, a] = (immersion(pp) - immersion(pm) - immersion(-pm)
                                         + immersion(-pp)) / (4 * h**2)
        return Xa, Xab

    h = 1e-3
    Xa1, Xab1 = second_derivs(h)
    Xa2, Xab2 = second_derivs(h / 2)
    Xa = (4 * Xa2 - Xa1) / 3
    Xab = (4 * Xab2 - Xab1) / 3
    g = Xa @ Xa.T
    b = np.einsum("abd,d->ab", Xab, nu_euc)
    return g, b


class TestOrientationAndConsistency:
    def test_positive_curvature_on_perturbed_families(self):
        for delta in (-1.0, 0.0, 1.0):
            surf = sphere(delta, 1.0, perturbation=(((3, 2), 0.08),))
            batch = evaluate_nodes(surf, random_nodes(2, 300, seed=6))
            H = batch.H
            assert float(np.min(H[:, 2])) > 0.0

    def test_flat_conformal_path_is_bitwise_euclidean(self):
        # delta small enough that q rounds to exactly 1: the conformal
        # corrections must vanish bit-for-bit, not just approximately
        nodes = random_nodes(2, 50, seed=7)
        flat = sphere(0.0, 1.0, perturbation=(((2, 0), 0.1),))
        tiny = sphere(2.0**-1000, 1.0, perturbation=(((2, 0), 0.1),))
        b_flat = evaluate_nodes(flat, nodes)
        b_tiny = evaluate_nodes(tiny, nodes)
        for name in ("M", "H", "tau_sq", "kappa", "area_element", "support"):
            assert np.array_equal(getattr(b_flat, name), getattr(b_tiny, name)), name

    def test_nonpositive_rho_raises(self):
        surf = sphere(0.0, 1.0, perturbation=(((2, 0), 4.0),))
        with pytest.raises(HypothesisError):
            evaluate_nodes(surf, random_nodes(2, 400, seed=8))

    def test_nonpositive_rho_names_the_node_of_the_whole_rule(self):
        # rho = 1 + a B_10 vanishes between the two polar rings nearest the
        # north pole, so only the last ring of a two-block rule is nonpositive
        order = 72
        rule = build_rule(2, order)
        assert len(rule.nodes) > surface_module._BLOCK
        z = np.unique(rule.nodes[:, 2])
        b10 = basis_values(2, (1, 0), np.array([[0.0, 0.0, 1.0]]))[0]
        surf = sphere(0.0, 1.0, perturbation=(((1, 0), -2.0 / (b10 * (z[-1] + z[-2]))),))
        first_bad = len(rule.nodes) - 2 * order
        with pytest.raises(HypothesisError, match=f"at node {first_bad}: rho = ") as info:
            evaluate_nodes(surf, rule.nodes)
        expected = surf.rho_values(rule.nodes[first_bad:first_bad + 1])[0]
        assert expected < 0.0
        assert float(str(info.value).rsplit("= ", 1)[1]) == pytest.approx(expected, rel=1e-5)

    @pytest.mark.parametrize("rho0", [float("nan"), float("inf"), 0.0, -1.0])
    def test_rho0_must_be_positive_and_finite(self, rho0):
        with pytest.raises(HypothesisError, match="rho0 must be positive and finite"):
            sphere(0.0, rho0)

    @pytest.mark.parametrize("amplitude", [float("nan"), float("inf"), float("-inf")])
    def test_amplitudes_must_be_finite(self, amplitude):
        with pytest.raises(HypothesisError, match=r"amplitude of \(2, 1\) must be finite"):
            sphere(0.0, 1.0, perturbation=(((2, 1), amplitude),))

    def test_leaving_chart_raises(self):
        model = SpaceFormModel(delta=1.0, ambient_dim=3)
        surf = RadialSurface(n=2, model=model, rho0=2.01)
        with pytest.raises(HypothesisError):
            evaluate_nodes(surf, random_nodes(2, 10, seed=9))


class TestRho:
    @pytest.mark.parametrize("n, perturbation", [
        (2, (((3, 1), 0.12), ((2, 0), 0.06), ((4, -3), 0.03))),
        (3, (("u1u2", 0.08), ("u1^2-u4^2", 0.04), ("u3", 0.05))),
    ])
    def test_rho_values_are_the_batch_rho(self, n, perturbation):
        surf = sphere(-1.0, 0.9, n=n, perturbation=perturbation)
        rule = build_rule(n, 16)
        assert np.array_equal(surf.rho_values(rule.nodes), surf.fields(rule).rho)
        assert np.array_equal(surf.rho_values(rule.nodes[5]), surf.fields(rule).rho[5])

    def test_one_polynomial_plan_per_surface(self, monkeypatch):
        built = []
        plan = surface_module._polynomial_plan
        monkeypatch.setattr(surface_module, "_polynomial_plan",
                            lambda surface: built.append(surface) or plan(surface))
        surf = sphere(0.0, 1.0, perturbation=(((2, 1), 0.05),))
        surf.rho_values(random_nodes(2, 3, seed=1))
        surf.fields(build_rule(2, 8))
        surf.fields(build_rule(2, 16))
        evaluate_nodes(surf, random_nodes(2, 1, seed=2))
        assert built == [surf]

    @pytest.mark.parametrize("n, perturbation, width", [
        (2, (((2, 1), 0.05), ((1, 0), 0.02)), 1), (2, (((3, 1), 0.05),), 9),
        (3, (("u1u2", 0.08), ("u1^2-u4^2", 0.04), ("u3", 0.05)), 1), (3, (), 1),
    ])
    def test_a_degree_two_surface_keeps_a_one_column_hessian(self, n, perturbation, width):
        surf = sphere(0.0, 1.0, n=n, perturbation=perturbation)
        u = random_nodes(n, 9, seed=3).T.copy()
        hess = surface_module._polynomial_derivatives(surf._plan, u)[2]
        assert hess.shape == (n + 1, n + 1, width)

    def test_a_replaced_surface_has_its_own_cache(self):
        # dataclasses.replace used to hand the copy the original's plan and batches
        surf = sphere(0.0, 1.0, perturbation=(((2, 1), 0.05),))
        rule = build_rule(2, 8)
        surf.fields(rule)
        scaled = dataclasses.replace(surf, rho0=2.0)
        assert np.array_equal(scaled.fields(rule).rho, 2.0 * surf.fields(rule).rho)
        assert np.array_equal(scaled.rho_values(rule.nodes), scaled.fields(rule).rho)

    def test_a_second_rule_of_the_same_order_gets_its_own_batch(self):
        # the cache used to key by (n, order) and hand this rule the first one's batch
        surf = sphere(0.0, 1.0)
        rule = build_rule(2, 8)
        surf.fields(rule)
        half = SphericalRule(n=2, order=8, nodes=rule.nodes, weights=rule.weights / 2)
        assert surf.fields(half).weights is half.weights
        volume = integrate_batch(surf.fields(half), 1.0)
        assert volume == 0.5 * integrate_batch(surf.fields(rule), 1.0)
        assert volume == pytest.approx(2.0 * np.pi, rel=1e-14)

    @pytest.mark.parametrize("n", [2, 3])
    def test_repeated_rules_hit_the_cache(self, n, monkeypatch):
        evaluated = []
        evaluate = surface_module.evaluate_nodes
        monkeypatch.setattr(surface_module, "evaluate_nodes",
                            lambda surface, nodes, *rest: evaluated.append(len(nodes))
                            or evaluate(surface, nodes, *rest))
        surf = sphere(-1.0, 0.9, n=n)
        batches = [surf.fields(build_rule(n, q)) for q in (8, 16, 8, 16, 8)]
        assert evaluated == [len(build_rule(n, 8).nodes), len(build_rule(n, 16).nodes)]
        assert batches[0] is batches[2] is batches[4] and batches[1] is batches[3]


class TestBlocks:
    @pytest.mark.parametrize("delta", [-1.0, 0.0, 1.0])
    def test_blocks_are_bitwise_independent_of_the_split(self, delta):
        surf = sphere(delta, 0.9, n=3, perturbation=(("u1u2", 0.08), ("u1^2-u4^2", 0.04)))
        nodes = build_rule(3, 24).nodes
        assert len(nodes) >= 3 * surface_module._BLOCK
        whole = evaluate_nodes(surf, nodes)
        block = surface_module._BLOCK  # parts of 1 node and of a block minus 1, exact, plus 1
        cuts = [0, 1, block, 2 * block, 3 * block + 1, 13001, 21000, len(nodes)]
        parts = [evaluate_nodes(surf, nodes[a:b]) for a, b in zip(cuts[:-1], cuts[1:])]
        for name in node_fields(whole) + ["kappa"]:
            joined = np.concatenate([getattr(p, name) for p in parts])
            assert np.array_equal(getattr(whole, name), joined), name

    @pytest.mark.parametrize("n, perturbation", [
        (2, (((3, 1), 0.12), ((2, 0), 0.06))),
        (3, (("u1u2", 0.08), ("u1^2-u4^2", 0.04))),
    ])
    def test_one_node_is_the_batch_bit_for_bit(self, n, perturbation):
        surf = sphere(1.0, 0.9, n=n, perturbation=perturbation)
        batch = surf.fields(build_rule(n, 8))
        for idx in range(0, len(batch.nodes), 7):
            point = evaluate_nodes(surf, batch.nodes[idx:idx + 1])
            for name in node_fields(batch) + ["kappa"]:
                assert np.array_equal(getattr(point, name)[0], getattr(batch, name)[idx]), name

    @pytest.mark.parametrize("n, order", [(2, 32), (3, 12)])
    @pytest.mark.parametrize("delta", [-1.0, 0.0, 1.0])
    def test_q_is_the_conformal_factor_bit_for_bit(self, n, order, delta):
        perturbation = (((3, 1), 0.12),) if n == 2 else (("u1u2", 0.08),)
        surf = sphere(delta, 0.9, n=n, perturbation=perturbation)
        batch = surf.fields(build_rule(n, order))
        assert np.array_equal(batch.q, surf.model.conformal_factor(batch.X))

    def test_peak_memory_is_bounded_by_the_batch(self):
        surf = sphere(-1.0, 0.9, n=3, perturbation=(("u1u2", 0.04),))
        nodes = build_rule(3, 32).nodes
        tracemalloc.start()
        try:
            batch = evaluate_nodes(surf, nodes)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        batch_bytes = sum(getattr(batch, name).nbytes for name in node_fields(batch))
        assert peak < 2.5 * batch_bytes
        # a block's temporaries must stay below the allocator's trim threshold,
        # or they are returned to the system and faulted back in at every block;
        # the rule's nodes were allocated before tracing started
        assert peak - (batch_bytes - batch.nodes.nbytes) <= 1.1 * 2**20


CLOSED_FORM_CASES = [
    (2, (((3, 1), 0.12), ((2, 0), 0.06))),
    (3, (("u1u2", 0.08), ("u1^2-u4^2", 0.04))),
]


class TestClosedForms:
    """The batch's M and H_tilde against the forms g, B and nu of point_forms."""

    @staticmethod
    def _batch_and_forms(n, perturbation, delta):
        surf = sphere(delta, 0.9, n=n, perturbation=perturbation)
        nodes = random_nodes(n, 40, seed=21 + n)
        return surf, evaluate_nodes(surf, nodes), point_forms(surf, nodes)

    @pytest.mark.parametrize("delta", [-1.0, 0.0, 1.0])
    @pytest.mark.parametrize("n, perturbation", CLOSED_FORM_CASES)
    def test_mean_curvature_shift_is_the_normal_derivative_of_phi(self, n, perturbation,
                                                                  delta):
        # H_tilde - tr(M)/n = nu~ . grad phi, nu~ = nu/q, grad phi = -(delta/2) X/q
        surf, batch, (X, _, _, nu) = self._batch_and_forms(n, perturbation, delta)
        q = surf.model.conformal_factor(X)[:, None]
        ref = np.einsum("Nd,Nd->N", nu / q, -(0.5 * delta) * X / q)
        got = batch.H_tilde - np.einsum("Naa->N", batch.M) / n
        scale = np.max(np.abs(batch.H_tilde))
        assert np.max(np.abs(got - ref)) <= 1e-14 * scale

    @pytest.mark.parametrize("delta", [-1.0, 0.0, 1.0])
    @pytest.mark.parametrize("n, perturbation", CLOSED_FORM_CASES)
    def test_M_is_the_normalized_second_form(self, n, perturbation, delta):
        # q M = g^(-1/2) B g^(-1/2), the inverse square root by eigh: this
        # checks the K R K algebra independently of the kernel
        _, batch, (_, g, B, _) = self._batch_and_forms(n, perturbation, delta)
        ref = []
        for g_mat, B_mat in zip(g, B):
            w, V = np.linalg.eigh(g_mat)
            root = (V / np.sqrt(w)) @ V.T
            ref.append(root @ B_mat @ root)
        got = batch.q[:, None, None] * batch.M
        assert np.max(np.abs(got - np.array(ref))) <= 1e-13 * np.max(np.abs(batch.M))


def symmetric_stacks(n, seed):
    """(N, n, n) symmetric test matrices, each family also scaled by 1e100 and 1e-100."""
    rng = np.random.Generator(np.random.Philox(seed))
    diag = np.arange(n)
    rand = rng.normal(size=(400, n, n))
    rand = rand + rand.transpose(0, 2, 1)
    diagonal = np.zeros((20, n, n))
    diagonal[:, diag, diag] = rng.normal(size=(20, n))
    # orthogonal similarity of a spectrum with a double or a triple eigenvalue
    Q = np.linalg.qr(rng.normal(size=(60, n, n)))[0]
    lam = rng.normal(size=(60, n))
    lam[:30, 1] = lam[:30, 0]
    lam[30:] = lam[30:, :1]
    repeated = np.einsum("Nij,Nj,Nkj->Nik", Q, lam, Q)
    # off-diagonals of 1e-300 next to an O(1) diagonal gap, and on an equal diagonal
    tiny = np.zeros((2, n, n))
    tiny[:, diag, diag] = [np.arange(1.0, n + 1.0), np.full(n, 1.0)]
    tiny[:, 0, n - 1] = tiny[:, n - 1, 0] = 1e-300
    base = np.concatenate([rand, diagonal, np.zeros((1, n, n)), repeated, tiny])
    return np.concatenate([base, 1e100 * base, 1e-100 * base])


class TestEigenSolve:
    @pytest.mark.parametrize("n", [2, 3])
    def test_jacobi_matches_eigvalsh(self, n):
        A = symmetric_stacks(n, seed=21)
        got = _jacobi_eigenvalues(np.ascontiguousarray(A.transpose(1, 2, 0))).T
        ref = np.linalg.eigvalsh(A)
        assert np.all(np.isfinite(got))
        assert np.all(np.diff(got, axis=1) >= 0.0)
        scale = np.max(np.abs(ref), axis=1, keepdims=True)
        assert np.all(np.abs(got - ref) <= 8.0 * np.finfo(float).eps * scale)

    @pytest.mark.parametrize("delta", [-1.0, 0.0, 1.0])
    @pytest.mark.parametrize("n, order, perturbation", [
        (2, 16, (((3, 1), 0.12), ((2, 0), 0.06))),
        (3, 8, (("u1u2", 0.08), ("u1^2-u4^2", 0.04))),
    ])
    def test_kappa_are_the_pencil_eigenvalues(self, n, order, perturbation, delta):
        surf = sphere(delta, 0.9, n=n, perturbation=perturbation)
        rule = build_rule(n, order)
        batch = surf.fields(rule)
        _, g, B, _ = point_forms(surf, rule.nodes)
        ref = np.array([scipy.linalg.eigh(B_mat, g_mat, eigvals_only=True)
                        for B_mat, g_mat in zip(B, g)])
        assert np.max(np.abs(batch.kappa - ref)) <= 1e-13 * np.max(np.abs(ref))

    def test_symmetric_functions_are_computed_once(self):
        # stored with the batch from the invariants of M; the eigenvalue route
        # agrees to roundoff
        surf = sphere(-1.0, 0.9, n=3, perturbation=(("u1u2", 0.08),))
        batch = surf.fields(build_rule(3, 8))
        H, tau_sq = batch.H, batch.tau_sq
        eps = np.finfo(float).eps
        scale = np.max(np.abs(batch.kappa))
        assert np.all(np.abs(H - mean_curvatures(batch.kappa))
                      <= 16 * eps * scale ** np.arange(4))
        assert np.all(np.abs(tau_sq - umbilicity_defect_sq(batch.kappa)) <= 16 * eps * scale**2)
        with pytest.raises(ValueError):
            H[0, 0] = 0.0
        with pytest.raises(ValueError):
            tau_sq[0] = 0.0


def _tau_sq_exact(M):
    """q = 1 tau^2 of one float matrix in rational arithmetic."""
    M = [[Fraction(float(x)) for x in row] for row in M]
    n = len(M)
    mean = sum(M[i][i] for i in range(n)) / n
    return float(sum((M[i][j] - (mean if i == j else 0)) ** 2
                     for i in range(n) for j in range(n)))


class TestInvariants:
    @pytest.mark.parametrize("a", [1e-2, 1e-4, 1e-6])
    def test_tau_sq_near_umbilic_holds_to_a_few_ulps(self, a):
        rng = np.random.Generator(np.random.Philox(31))
        Q = np.linalg.qr(rng.normal(size=(50, 3, 3)))[0]
        M = np.einsum("Nij,j,Nkj->Nik", Q, [1.0, 1.0 + a, 1.0 - a], Q)
        M = 0.5 * (M + M.transpose(0, 2, 1))  # symmetric bit for bit, like the batch's M
        _, tau_sq = surface_module._curvature_invariants(M.transpose(1, 2, 0), np.ones(50),
                                                         np.ones(50))
        exact = np.array([_tau_sq_exact(m) for m in M])
        assert np.all(np.abs(tau_sq - exact) <= 4 * np.finfo(float).eps * exact)

    @pytest.mark.parametrize("delta", [-1.0, 0.0, 1.0])
    @pytest.mark.parametrize("n, rho0, perturbation, orders", [
        (2, 1.0, (((3, 1), 0.12), ((2, 0), 0.06)), (16, 32, 64)),  # identities, n = 2
        (3, 0.9, (("u1u2", 0.08), ("u1^2-u4^2", 0.04)), (8, 16, 32)),  # identities, n = 3
        (3, 0.9, (("u1u2", 0.04),), (12, 24)),  # pinch-n3
        (2, 0.7, (), (16,)),  # exact spheres: every node ties
        (3, 0.9, (), (8,)),
    ])
    @pytest.mark.parametrize("kappa_first", [False, True], ids=["B_sup_first", "kappa_first"])
    def test_b_sup_is_the_full_solve_bit_for_bit(self, monkeypatch, n, rho0, perturbation,
                                                 orders, delta, kappa_first):
        solved = []

        def counted(M, q):
            solved.append(len(q))
            return principal_curvatures(M, q)

        principal_curvatures = surface_module._principal_curvatures
        monkeypatch.setattr(surface_module, "_principal_curvatures", counted)
        surf = sphere(delta, rho0, n=n, perturbation=perturbation)
        for order in orders:
            rule = build_rule(n, order)
            solved.clear()
            batch = surf.fields(rule)
            if kappa_first:
                kappa = batch.kappa
                solved.clear()
                b_sup = batch.B_sup
                assert solved == []  # read from the solved kappa
                assert b_sup == B_sup_norm(batch)  # the pruned solve, with the same bits
            else:
                b_sup = batch.B_sup
                pruned = sum(solved)
                kappa = batch.kappa
                assert solved[-1] == len(rule.nodes)
                assert pruned < len(rule.nodes) / 2 if perturbation else pruned > len(rule.nodes)
            assert b_sup == float(np.max(np.abs(kappa)))
            solved.clear()
            assert batch.B_sup == b_sup and solved == []  # cached on the batch


class TestReports:
    def test_round_sphere_report(self):
        surf = sphere(0.0, 2.0)
        rule = build_rule(2, 8)
        rep = starshape_report(surf.fields(rule))
        assert rep.R0 == pytest.approx(2.0, abs=1e-12)
        assert rep.R == pytest.approx(2.0, abs=1e-12)

    def test_perturbed_sphere_report(self):
        surf = sphere(0.0, 1.0, perturbation=(((3, -1), 0.1),))
        rep = starshape_report(surf.fields(build_rule(2, 16)))
        assert 0.8 < rep.R0 < 1.2

    def test_tiny_flat_sphere_is_starshaped(self):
        # the zero test is relative below unit scale: R0 / rho0 is that of rho0 = 1
        rule = build_rule(2, 8)
        ratios = [starshape_report(sphere(0.0, rho0, perturbation=(((3, 1), 0.02),))
                                   .fields(rule)).R0 / rho0 for rho0 in (1e-12, 1e-10, 1e-6, 1.0)]
        assert ratios == pytest.approx([ratios[-1]] * 4, rel=1e-14)
        assert ratios[-1] == pytest.approx(0.988, abs=1e-3)

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from([2, 3]), st.sampled_from([-1.0, 0.0, 1.0]), st.floats(0.05, 1.5),
           st.lists(st.tuples(st.integers(0, 24), st.floats(-0.5, 0.5)), max_size=3))
    def test_support_is_negative_by_construction(self, n, delta, rho0, terms):
        # the fact starshape_report rests on: -s_d(r) rho / W < 0 on every valid radial graph
        keys = ([(l, m) for l in range(5) for m in range(-l, l + 1)] if n == 2
                else list(S3_BASIS_KEYS))
        surf = sphere(delta, rho0, n=n, perturbation=[(keys[k % len(keys)], a) for k, a in terms])
        try:
            batch = evaluate_nodes(surf, build_rule(n, 6).nodes)
        except HypothesisError:  # rho <= 0 somewhere, or a point outside the chart
            assume(False)
        assert np.all(batch.support < 0.0)

    @settings(max_examples=60, deadline=None)
    # delta from 1e-6: near 0 the area element of rho0 ~ 2/sqrt(delta) overflows
    @given(st.sampled_from([2, 3]), st.floats(1e-6, 4.0),
           st.floats(np.log(1.01e-9), np.log(0.5)), st.sampled_from([0.0, -0.05, 0.05]))
    def test_the_chart_check_keeps_R_below_the_hemisphere_radius(self, n, delta, log_t, a):
        # why run_pinch has no containment gate: at delta > 0 every batch the kernel
        # accepts has R < pi / (2 sqrt(delta)), and a base sphere within 1e-9 of the
        # chart's edge is rejected (the margin at t = 1.01e-9, delta = 1 is 1.0e-9)
        t = float(np.exp(log_t))
        edge = 2.0 / np.sqrt(delta)
        key = (3, 1) if n == 2 else "u1u2"
        surf = sphere(delta, edge * (1.0 - t), n=n, perturbation=((key, a * t),) if a else ())
        try:
            batch = surf.fields(build_rule(n, 6))
        except HypothesisError:  # a perturbed point outside the chart
            assume(False)
        assert starshape_report(batch).R < 0.5 * np.pi / np.sqrt(delta)
        with pytest.raises(HypothesisError, match="outside the chart"):
            sphere(delta, edge * (1.0 - 0.99e-9), n=n).fields(build_rule(n, 6))

    def test_sign_change_detection(self):
        def report(support):
            return starshape_report(SimpleNamespace(support=np.array(support), r=np.ones(3),
                                                    nodes=np.eye(3)))
        with pytest.raises(HypothesisError, match="degenerates at node 2"):
            report([-1.0, -0.5, -1e-15])
        assert report([-1.0, -0.5, -0.2]) == StarshapeReport(R0=0.2, R=1.0)

    def test_b_sup_norm(self):
        b_sup = sphere(0.0, 2.0).fields(build_rule(2, 8)).B_sup
        assert b_sup == pytest.approx(0.5, abs=1e-12)
        model = SpaceFormModel(delta=-1.0, ambient_dim=3)
        rho_geo = 0.9
        surf = sphere(-1.0, chart_radius(rho_geo, model))
        expected = c_delta(rho_geo, -1.0) / s_delta(rho_geo, -1.0)
        assert surf.fields(build_rule(2, 8)).B_sup == pytest.approx(expected, abs=1e-9)

    def test_b_sup_exceeds_reciprocal_max_radius(self):
        surf = sphere(0.0, 1.0, perturbation=(((2, 2), 0.15),))
        rule = build_rule(2, 24)
        b_sup = surf.fields(rule).B_sup
        rho_max = float(np.max(surf.fields(rule).rho))
        assert b_sup > 1.0 / rho_max

    def test_b_sup_monotone_under_refinement(self):
        surf = sphere(0.0, 1.0, perturbation=(((3, 1), 0.1),))
        coarse = surf.fields(build_rule(2, 16)).B_sup
        fine = surf.fields(build_rule(2, 32)).B_sup
        assert fine >= coarse - 1e-6
