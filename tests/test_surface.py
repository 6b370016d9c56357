"""Radial graphs: exact derivatives, curvature oracle, orientation, reports."""

import dataclasses
import tracemalloc

import numpy as np
import pytest

from starpinch import surface as surface_module
from starpinch.errors import HypothesisError
from starpinch.quadrature import build_rule
from starpinch.spaceform import SpaceFormModel, c_delta, chart_radius, s_delta
from starpinch.surface import (RadialSurface, _constant_sign, B_sup_norm,
                               basis_values, evaluate_nodes, evaluate_point,
                               starshape_report, tangent_frames)


def sphere(delta, rho_chart, n=2, perturbation=()):
    model = SpaceFormModel(delta=delta, ambient_dim=n + 1)
    return RadialSurface(n=n, model=model, rho0=rho_chart, perturbation=perturbation)


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


class TestBasis:
    def test_spherical_harmonics_orthonormal(self):
        rule = build_rule(2, 24)
        keys = [(l, m) for l in range(5) for m in range(-l, l + 1)]
        vals = np.stack([basis_values(2, k, rule.nodes) for k in keys])
        gram = (vals * rule.weights) @ vals.T
        assert np.max(np.abs(gram - np.eye(len(keys)))) < 1e-12

    def test_s3_basis_normalized_and_mean_zero(self):
        from starpinch.surface import S3_BASIS_KEYS

        rule = build_rule(3, 16)
        for key in S3_BASIS_KEYS:
            v = basis_values(3, key, rule.nodes)
            assert abs(float(np.sum(v * rule.weights))) < 1e-12
            assert float(np.sum(v * v * rule.weights)) == pytest.approx(1.0, rel=1e-12)


class TestRoundSpheres:
    def test_flat_sphere_point_data(self):
        rho0 = 2.0
        surf = sphere(0.0, rho0)
        data = evaluate_point(surf, np.array([0.1, -0.3, 0.9]) / np.linalg.norm([0.1, -0.3, 0.9]))
        assert np.allclose(data.kappa, 1.0 / rho0, atol=1e-12)
        assert data.support == pytest.approx(-rho0, abs=1e-12)
        assert data.area_element == pytest.approx(rho0**2, rel=1e-12)
        assert np.linalg.norm(data.X) == pytest.approx(rho0, abs=1e-14)

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
        batch = evaluate_nodes(surf, random_nodes(2, 100, seed=4))
        scale = surf.model.conformal_scale(batch.X)
        h_norms = scale * np.linalg.norm(batch.nu, axis=1)
        assert np.max(np.abs(h_norms - 1.0)) < 1e-12

    @pytest.mark.parametrize("n, perturbation", [
        (2, (((3, 1), 0.08), ((2, -2), 0.04))),
        (3, (("u1u2", 0.08), ("u1^2-u4^2", 0.04))),
    ])
    def test_normal_matches_svd_of_tangents(self, n, perturbation):
        # reference: inward null vector (SVD) of central-difference tangents
        surf = sphere(-1.0, 0.8, n=n, perturbation=perturbation)
        nodes = random_nodes(n, 20, seed=9)
        batch = evaluate_nodes(surf, nodes)
        nu_euc = batch.nu * surf.model.conformal_scale(batch.X)[:, None]
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
        batch = evaluate_nodes(surf, nodes)
        frames = tangent_frames(nodes)
        for idx in range(len(nodes)):
            u = nodes[idx]
            E = frames[idx]

            def immersion(t):
                w = u + t @ E
                c = w / np.linalg.norm(w)
                return surf.rho_values(c[None, :])[0] * c

            g_fd, b_fd = _fd_forms(immersion, surf, batch, idx)
            assert np.max(np.abs(g_fd - _euclid_g(batch, idx, surf))) < 1e-7
            assert np.max(np.abs(b_fd - _euclid_b(batch, idx, surf))) < 1e-7


def _euclid_g(batch, idx, surf):
    q = 1.0 + 0.25 * surf.model.delta * np.sum(batch.X[idx] ** 2)
    return batch.g[idx] * q**2


def _euclid_b(batch, idx, surf):
    # undo the conformal change: B_euclid = q * B_h + (nu~ . grad phi) g_euclid
    delta = surf.model.delta
    X = batch.X[idx]
    q = 1.0 + 0.25 * delta * np.sum(X * X)
    nu_euc = batch.nu[idx] / q
    grad_phi = -(0.5 * delta) * X / q
    return q * batch.B[idx] + float(nu_euc @ grad_phi) * _euclid_g(batch, idx, surf)


def _fd_forms(immersion, surf, batch, idx):
    n = surf.n

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
    q = 1.0 + 0.25 * surf.model.delta * np.sum(batch.X[idx] ** 2)
    nu_euc = batch.nu[idx] / q
    b = np.einsum("abd,d->ab", Xab, nu_euc)
    return g, b


class TestOrientationAndConsistency:
    def test_positive_curvature_on_perturbed_families(self):
        for delta in (-1.0, 0.0, 1.0):
            surf = sphere(delta, 1.0, perturbation=(((3, 2), 0.08),))
            batch = evaluate_nodes(surf, random_nodes(2, 300, seed=6))
            H = batch.mean_curvature_orders()
            assert float(np.min(H[:, 2])) > 0.0

    def test_flat_conformal_path_is_bitwise_euclidean(self):
        # delta small enough that q rounds to exactly 1: the conformal
        # corrections must vanish bit-for-bit, not just approximately
        nodes = random_nodes(2, 50, seed=7)
        flat = sphere(0.0, 1.0, perturbation=(((2, 0), 0.1),))
        tiny = sphere(2.0**-1000, 1.0, perturbation=(((2, 0), 0.1),))
        b_flat = evaluate_nodes(flat, nodes)
        b_tiny = evaluate_nodes(tiny, nodes)
        for name in ("g", "B", "kappa", "nu", "area_element", "support"):
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

    def test_leaving_chart_raises(self):
        model = SpaceFormModel(delta=1.0, ambient_dim=3)
        surf = RadialSurface(n=2, model=model, rho0=2.01)
        with pytest.raises(HypothesisError):
            evaluate_nodes(surf, random_nodes(2, 10, seed=9))


class TestBlocks:
    @pytest.mark.parametrize("delta", [-1.0, 0.0, 1.0])
    def test_blocks_are_bitwise_independent_of_the_split(self, delta):
        surf = sphere(delta, 0.9, n=3, perturbation=(("u1u2", 0.08), ("u1^2-u4^2", 0.04)))
        nodes = build_rule(3, 24).nodes
        assert len(nodes) >= 3 * surface_module._BLOCK
        whole = evaluate_nodes(surf, nodes)
        cuts = [0, 1, 5000, 13001, 21000, len(nodes)]
        parts = [evaluate_nodes(surf, nodes[a:b]) for a, b in zip(cuts[:-1], cuts[1:])]
        for f in dataclasses.fields(whole):
            joined = np.concatenate([getattr(p, f.name) for p in parts])
            assert np.array_equal(getattr(whole, f.name), joined), f.name

    def test_peak_memory_is_bounded_by_the_batch(self):
        surf = sphere(-1.0, 0.9, n=3, perturbation=(("u1u2", 0.04),))
        nodes = build_rule(3, 32).nodes
        tracemalloc.start()
        try:
            batch = evaluate_nodes(surf, nodes)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        batch_bytes = sum(getattr(batch, f.name).nbytes for f in dataclasses.fields(batch))
        assert peak < 2.5 * batch_bytes


class TestReports:
    def test_round_sphere_report(self):
        surf = sphere(0.0, 2.0)
        rule = build_rule(2, 8)
        rep = starshape_report(surf, rule)
        assert rep.sign == -1
        assert rep.R0 == pytest.approx(2.0, abs=1e-12)
        assert rep.R == pytest.approx(2.0, abs=1e-12)

    def test_perturbed_sphere_report(self):
        surf = sphere(0.0, 1.0, perturbation=(((3, -1), 0.1),))
        rep = starshape_report(surf, build_rule(2, 16))
        assert rep.sign == -1
        assert 0.8 < rep.R0 < 1.2

    def test_sign_change_detection(self):
        sign, bad = _constant_sign(np.array([-1.0, -0.5, 0.7, -0.2]))
        assert sign is None and bad == 2
        sign, bad = _constant_sign(np.array([-1.0, -0.5, -1e-15]))
        assert sign is None and bad == 2
        sign, bad = _constant_sign(np.array([-1.0, -0.5, -0.2]))
        assert sign == -1 and bad is None

    def test_b_sup_norm(self):
        assert B_sup_norm(sphere(0.0, 2.0), build_rule(2, 8)) == pytest.approx(0.5, abs=1e-12)
        model = SpaceFormModel(delta=-1.0, ambient_dim=3)
        rho_geo = 0.9
        surf = sphere(-1.0, chart_radius(rho_geo, model))
        expected = c_delta(rho_geo, -1.0) / s_delta(rho_geo, -1.0)
        assert B_sup_norm(surf, build_rule(2, 8)) == pytest.approx(expected, abs=1e-9)

    def test_b_sup_exceeds_reciprocal_max_radius(self):
        surf = sphere(0.0, 1.0, perturbation=(((2, 2), 0.15),))
        rule = build_rule(2, 24)
        b_sup = B_sup_norm(surf, rule)
        rho_max = float(np.max(surf.fields(rule).rho))
        assert b_sup > 1.0 / rho_max

    def test_b_sup_monotone_under_refinement(self):
        surf = sphere(0.0, 1.0, perturbation=(((3, 1), 0.1),))
        coarse = B_sup_norm(surf, build_rule(2, 16))
        fine = B_sup_norm(surf, build_rule(2, 32))
        assert fine >= coarse - 1e-6
