"""The doubled-order rule is reduced block by block and never stored.

`refinement_estimate` reads the base rule's cached batch and streams the
rule of doubled order through `RadialSurface.blocks`, reducing each block's
tagged columns into exact running sums and maxima and seeding its `B_sup`
with the base rule's.  These tests hold the streamed path to the bits of a
whole batch of that rule, to one kernel pass per caller (two when the seed
is above the maximum), to one live block at a time, to the node indices of
a whole-rule evaluation in its errors, and to memory peaks below what the
doubled rule's batch would take.
"""

import contextlib
import dataclasses
import io
import math
import re
import tracemalloc
import weakref
from types import SimpleNamespace

import numpy as np
import pytest

import starpinch.config
from starpinch import ConstantsConfig, RunSettings, run_pinch
from starpinch import identities as identities_module
from starpinch import quadrature as quadrature_module
from starpinch import surface as surface_module
from starpinch.cli import main
from starpinch.errors import HypothesisError
from starpinch.identities import (MAX, SUM, SUM_EUCLID, cauchy_schwarz_chain_check,
                                  hsiung_minkowski_residual, michael_simon_ratio,
                                  refinement_estimate, residuals, tau_l2_epsilon_bound)
from starpinch.pinch import distance_to_geodesic_sphere
from starpinch.quadrature import build_rule, integrate_batch
from starpinch.spaceform import SpaceFormModel
from starpinch.surface import B_sup_norm, RadialSurface, evaluate_nodes

BLOCK = surface_module._BLOCK


def make_surface(delta, n, rho0, perturbation):
    model = SpaceFormModel(delta=delta, ambient_dim=n + 1)
    return RadialSurface(n=n, model=model, rho0=rho0, perturbation=perturbation)


def whole_batch(surface, rule):
    """The rule's batch from one evaluate_nodes call, with the rule's weights."""
    return dataclasses.replace(evaluate_nodes(surface, rule.nodes), weights=rule.weights)


def previous_B_sup_norm(batch):
    """B_sup_norm as it was before it streamed blocks: the one-batch reference."""
    n = batch.n
    upper = np.abs(batch.H[:, 1]) + np.sqrt((n - 1) / n * batch.tau_sq)
    top = int(np.argmax(upper))
    diagonal = np.max(np.abs(np.diagonal(batch.M, axis1=1, axis2=2)), axis=1)
    lower = max(np.max(batch.q * diagonal), np.max(np.abs(
        surface_module._principal_curvatures(batch.M[top:top + 1], batch.q[top:top + 1]))))
    near = upper >= lower * (1.0 - 256 * np.finfo(float).eps)
    return float(np.max(np.abs(surface_module._principal_curvatures(batch.M[near],
                                                                    batch.q[near]))))


# (n, base order, perturbation); each doubled rule has 8192 nodes, four blocks.
# The last two surfaces have their largest |kappa| in the doubled rule's last block.
SURFACES = [
    (2, 32, (((3, 1), 0.12), ((2, 0), 0.06))),
    (3, 8, (("u1u2", 0.08), ("u1^2-u4^2", 0.04))),
    (2, 32, (((3, 0), 0.1), ((2, 0), 0.1))),
    (3, 8, (("u4", 0.3), ("u3u4", 0.1))),
]


class TestBits:
    @pytest.mark.parametrize("n, order, perturbation", SURFACES)
    @pytest.mark.parametrize("delta", [-1.0, 0.0, 1.0])
    def test_streamed_doubled_rule_is_its_whole_batch(self, n, order, perturbation, delta):
        surf = make_surface(delta, n, 0.9, perturbation)
        rule, check = build_rule(n, order), build_rule(n, 2 * order)
        assert len(check.nodes) == 4 * BLOCK
        center = np.full(n + 1, 0.01)

        def columns(b):
            return [(SUM, b.H[:, 1] * b.support), (SUM_EUCLID, 1.0),
                    (MAX, distance_to_geodesic_sphere(b.X, center, 0.9, surf.model))]

        def combine(m, integral, volume_euclid, distance):
            return integral, volume_euclid, distance, m.B_sup

        estimates = refinement_estimate(surf, rule, columns, combine, sup=True)
        for batch, values in ((surf.fields(rule), [e.value for e in estimates]),
                              (whole_batch(surf, check), [e.check_value for e in estimates])):
            (_, integrand), _, (_, distance) = columns(batch)
            assert values == [integrate_batch(batch, integrand),
                              integrate_batch(batch, 1.0, euclidean=True), float(np.max(distance)),
                              float(np.max(np.abs(batch.kappa)))]
        assert all(e.refinement_error == abs(e.value - e.check_value) for e in estimates)

    @pytest.mark.parametrize("n, order, perturbation", SURFACES)
    def test_B_sup_of_blocks_is_the_whole_batch(self, n, order, perturbation):
        surf = make_surface(-1.0, n, 0.9, perturbation)
        check = build_rule(n, 2 * order)
        batch = whole_batch(surf, check)
        expect = previous_B_sup_norm(batch)
        assert expect == float(np.max(np.abs(batch.kappa)))
        B_sup = -math.inf
        for block in surf.blocks(check):  # a running floor, as the refinement pass keeps it
            B_sup = B_sup_norm(block, B_sup)
        assert B_sup == batch.B_sup == expect

    @pytest.mark.parametrize("n, order, perturbation", SURFACES)
    def test_B_sup_norm_is_the_larger_of_its_floor_and_the_batch_maximum(self, n, order,
                                                                         perturbation):
        surf = make_surface(-1.0, n, 0.9, perturbation)
        check = build_rule(n, 2 * order)
        top = float(np.max(np.abs(whole_batch(surf, check).kappa)))
        floors = [-math.inf, 0.0, 0.5 * top, np.nextafter(top, 0.0), top,
                  np.nextafter(top, math.inf), 2.0 * top]
        for batch in [whole_batch(surf, check), *surf.blocks(check)]:
            largest = float(np.max(np.abs(batch.kappa)))
            for floor in [*floors, largest, np.nextafter(largest, math.inf)]:
                assert B_sup_norm(batch, floor) == max(float(floor), largest)

    def test_largest_kappa_lies_in_the_last_block(self):
        # the premise of the last two SURFACES
        for n, order, perturbation in SURFACES[2:]:
            batch = whole_batch(make_surface(-1.0, n, 0.9, perturbation), build_rule(n, 2 * order))
            assert np.argmax(np.max(np.abs(batch.kappa), axis=1)) >= 3 * BLOCK

    @pytest.mark.parametrize("n, order, perturbation", SURFACES)
    def test_one_block_B_sup_is_unchanged(self, n, order, perturbation):
        surf = make_surface(1.0, n, 0.9, perturbation)
        for q in (order // 2, order):  # one block of the kernel's views, and several
            batch = surf.fields(build_rule(n, q))
            assert batch.B_sup == previous_B_sup_norm(batch)


class TestOneRoute:
    def test_the_base_batch_is_read_in_place_and_the_doubled_rule_by_blocks(self):
        surf = make_surface(-1.0, 2, 0.9, (((3, 1), 0.05),))
        rule, check = build_rule(2, 32), build_rule(2, 64)
        batch, read = surf.fields(rule), []
        refinement_estimate(surf, rule, lambda b: read.append(b) or [(SUM, b.tau_sq)],
                            lambda m, tau_sq: (tau_sq,))
        assert read[0] is batch
        assert [b.start for b in read[1:]] == list(range(0, len(check.nodes), BLOCK))
        for block in read[1:]:
            span = slice(block.start, block.start + BLOCK)
            assert np.array_equal(block.weights, check.weights[span])
            assert np.array_equal(block.nodes, check.nodes[span])

    def test_each_block_is_one_stacked_reduction_of_the_volumes_and_columns(self, monkeypatch):
        surf = make_surface(-1.0, 2, 0.9, (((3, 1), 0.05),))
        rule = build_rule(2, 32)
        batch = surf.fields(rule)
        volumes = integrate_batch(batch, 1.0), integrate_batch(batch, 1.0, euclidean=True)
        tau_sq = integrate_batch(batch, batch.tau_sq)
        shapes, add = [], quadrature_module._Sums.add
        monkeypatch.setattr(quadrature_module._Sums, "add",
                            lambda sums, chunk: shapes.append(chunk.shape) or add(sums, chunk))
        est = refinement_estimate(
            surf, rule, lambda b: [(MAX, b.rho), (SUM_EUCLID, 1.0), (SUM, b.tau_sq)],
            lambda m, rho, volume_euclid, tau_sq: (m.volume, volume_euclid, tau_sq))
        assert (est[0].value, est[1].value) == volumes
        assert est[2].value == tau_sq
        assert shapes == [(3, nodes(2, 32))] + [(3, BLOCK)] * (nodes(2, 64) // BLOCK)


class TestErrors:
    def test_check_rule_errors_name_the_node_of_the_whole_rule(self):
        # rho <= 0 only beyond z = 0.999: past the base rule's last ring (0.9973)
        # but not the doubled rule's (0.9993), which lies in its last block
        amplitude = -1.0 / (0.999 * math.sqrt(3.0 / (4.0 * math.pi)))
        surf = make_surface(0.0, 2, 1.0, (((1, 0), amplitude),))
        rule, check = build_rule(2, 32), build_rule(2, 64)
        surf.fields(rule)
        with pytest.raises(HypothesisError) as whole:
            evaluate_nodes(surf, check.nodes)
        with pytest.raises(HypothesisError) as streamed:
            refinement_estimate(surf, rule, lambda b: [], lambda m: (m.volume,))
        assert str(streamed.value) == str(whole.value)
        assert int(re.search(r"node (\d+)", str(whole.value))[1]) >= 3 * BLOCK

    def test_a_block_counts_its_nodes_from_its_start(self):
        surf = make_surface(0.0, 3, 0.9, (("u1u2", 0.08),))
        check = build_rule(3, 16)
        starts = [block.start for block in surf.blocks(check)]
        assert starts == list(range(0, len(check.nodes), BLOCK))


@pytest.fixture
def counted(monkeypatch):
    """The node count of every evaluate_nodes call and the number of streamed passes."""
    counts = SimpleNamespace(nodes=[], passes=0)
    evaluate, blocks = surface_module.evaluate_nodes, RadialSurface.blocks

    def counting(surface, nodes, *start):
        counts.nodes.append(len(nodes))
        return evaluate(surface, nodes, *start)

    def streamed(surface, rule):
        counts.passes += 1
        return blocks(surface, rule)

    monkeypatch.setattr(surface_module, "evaluate_nodes", counting)
    monkeypatch.setattr(RadialSurface, "blocks", streamed)
    return counts


PINCH = RunSettings(quad_order=8, constants=ConstantsConfig(eps0=10.0))
IDENTITIES_CONFIG = ("[surface]\nn = 3\ndelta = -1.0\nrho0 = 0.9\n"
                     "perturbation = u1u2:0.08 u1^2-u4^2:0.04\n\n[experiment]\nr = 1\n"
                     "quad_order = 8\n")


def nodes(n, order):
    return len(build_rule(n, order).nodes)


class TestOnePass:
    def test_run_pinch(self, counted):
        run_pinch(make_surface(-1.0, 3, 0.9, (("u1u2", 0.04),)), 2, PINCH)
        assert sum(counted.nodes) == nodes(3, 8) + nodes(3, 16) and counted.passes == 1

    def test_identities_command(self, counted, tmp_path):
        config = tmp_path / "n3.ini"
        config.write_text(IDENTITIES_CONFIG)
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["identities", "--config", str(config), "--out", str(tmp_path)]) == 0
        assert sum(counted.nodes) == nodes(3, 8) + nodes(3, 16) and counted.passes == 1

    @pytest.mark.parametrize("check", [
        lambda s, rl: hsiung_minkowski_residual(s, 1, rl),
        lambda s, rl: cauchy_schwarz_chain_check(s, rl),
        lambda s, rl: michael_simon_ratio(s, rl, 1.0),
        lambda s, rl: tau_l2_epsilon_bound(s, 1, 1.0, 1.0, rl),
    ], ids=["hsiung", "cauchy_schwarz", "michael_simon", "tau_l2_epsilon"])
    def test_each_residual(self, counted, check):
        check(make_surface(1.0, 3, 0.9, (("u1u2", 0.08),)), build_rule(3, 8))
        assert sum(counted.nodes) == nodes(3, 8) + nodes(3, 16) and counted.passes == 1


# the bench surfaces: `identities` (n, rho0, perturbation, base orders) and `pinch-n3`
BENCH_SURFACES = [
    (2, 1.0, (((3, 1), 0.12), ((2, 0), 0.06)), 16),
    (2, 1.0, (((3, 1), 0.12), ((2, 0), 0.06)), 32),
    (3, 0.9, (("u1u2", 0.08), ("u1^2-u4^2", 0.04)), 8),
    (3, 0.9, (("u1u2", 0.08), ("u1^2-u4^2", 0.04)), 16),
    (3, 0.9, (("u1u2", 0.04),), 12),
]


class TestSeededBSup:
    def B_sup(self, surf, rule):
        return refinement_estimate(surf, rule, lambda b: [], lambda m: (m.B_sup,), sup=True)[0]

    @pytest.mark.parametrize("n, rho0, perturbation, order", BENCH_SURFACES)
    @pytest.mark.parametrize("delta", [-1.0, 0.0, 1.0])
    def test_no_bench_surface_falls_back(self, counted, n, rho0, perturbation, order, delta):
        surf = make_surface(delta, n, rho0, perturbation)
        est = self.B_sup(surf, build_rule(n, order))
        assert counted.passes == 1
        assert est.check_value >= est.value * (1.0 - identities_module._SEED_MARGIN)

    @pytest.mark.parametrize("n, order, perturbation", SURFACES)
    def test_a_seed_above_the_maximum_costs_one_more_pass(self, counted, monkeypatch, n, order,
                                                          perturbation):
        monkeypatch.setattr(identities_module, "_SEED_MARGIN", -0.5)  # 1.5 times the base's
        surf = make_surface(-1.0, n, 0.9, perturbation)
        rule, check = build_rule(n, order), build_rule(n, 2 * order)
        est = self.B_sup(surf, rule)
        assert counted.passes == 2
        assert est.check_value == float(np.max(np.abs(whole_batch(surf, check).kappa)))
        assert est.check_value < 1.5 * est.value


class TestJacobiRows:
    @pytest.mark.parametrize("delta, most", [(-1.0, 10877), (0.0, 6909), (1.0, 4945)])
    def test_identities_solve_no_more_rows_than_buffered_candidates(self, monkeypatch, delta,
                                                                    most):
        # `most` is what one call solved, base batch included, when B_sup_norm buffered the
        # doubled rule's candidate rows across blocks
        solved, solve = [], surface_module._principal_curvatures
        monkeypatch.setattr(surface_module, "_principal_curvatures",
                            lambda M, q: solved.append(len(q)) or solve(M, q))
        surf = make_surface(delta, 3, 0.9, (("u1u2", 0.08), ("u1^2-u4^2", 0.04)))
        residuals(surf, build_rule(3, 16), 1.0)
        assert sum(solved) <= most


class TestMemory:
    def cached_orders(self, surface):
        return sorted(rule.order for rule in surface._cache)

    @pytest.mark.parametrize("run", [lambda s: residuals(s, build_rule(3, 8), 1.0),
                                     lambda s: run_pinch(s, 2, PINCH)],
                             ids=["residuals", "run_pinch"])
    def test_one_streamed_block_is_alive_at_a_time(self, monkeypatch, run):
        surf = make_surface(-1.0, 3, 0.9, (("u1u2", 0.08),))
        surf.fields(build_rule(3, 8))  # cached first, so every evaluation below is a block
        blocks, evaluate = [], surface_module.evaluate_nodes

        def watched(surface, nodes, *start):
            assert [block() for block in blocks] == [None] * len(blocks)
            block = evaluate(surface, nodes, *start)
            blocks.append(weakref.ref(block))
            return block

        monkeypatch.setattr(surface_module, "evaluate_nodes", watched)
        run(surf)
        assert len(blocks) == nodes(3, 16) // BLOCK

    def test_run_pinch_caches_no_doubled_rule(self):
        surf = make_surface(0.0, 3, 0.9, (("u1u2", 0.04),))
        run_pinch(surf, 2, PINCH)
        assert self.cached_orders(surf) == [8]

    def test_identities_command_caches_no_doubled_rule(self, monkeypatch, tmp_path):
        made = []
        surface = starpinch.config.ExperimentConfig.surface
        monkeypatch.setattr(starpinch.config.ExperimentConfig, "surface",
                            lambda cfg: made.append(surface(cfg)) or made[-1])
        config = tmp_path / "n3.ini"
        config.write_text(IDENTITIES_CONFIG)
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["identities", "--config", str(config), "--out", str(tmp_path)]) == 0
        assert [self.cached_orders(s) for s in made] == [[8]]

    def test_identities_residuals_stay_within_a_few_blocks(self):
        build_rule.cache_clear()  # a doubled rule whose whole arrays nothing has read yet
        surf = make_surface(-1.0, 3, 0.9, (("u1u2", 0.08), ("u1^2-u4^2", 0.04)))
        rule, check = build_rule(3, 16), build_rule(3, 32)
        surf.fields(rule)
        tracemalloc.start()
        try:
            residuals(surf, rule, 1.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.5 * 2**20  # the doubled rule's nodes and weights alone are 2.5 MiB
        assert build_rule(3, 32) is check and "arrays" not in vars(check)

    def test_run_pinch_peak_stays_below_the_doubled_rules_batch(self):
        surf = make_surface(-1.0, 3, 0.9, (("u1u2", 0.04),))
        settings = dataclasses.replace(PINCH, quad_order=16)
        check = build_rule(3, 32)  # both rules are memoized before tracing starts
        build_rule(3, 16)
        tracemalloc.start()
        try:
            run_pinch(surf, 2, settings)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        one = evaluate_nodes(surf, check.nodes[:1])
        per_node = sum(getattr(one, f.name).nbytes for f in dataclasses.fields(one)
                       if isinstance(getattr(one, f.name), np.ndarray))
        assert peak < per_node * len(check.nodes)
