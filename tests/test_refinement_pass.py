"""The doubled-order rule is reduced block by block and never stored.

`refinement_estimate` reads the base rule's cached batch and streams the
rule of doubled order through `RadialSurface.blocks`, keeping only the
columns its caller reduces.  These tests hold the streamed path to the bits
of a whole batch of that rule, to one kernel pass per caller, to the node
indices of a whole-rule evaluation in its errors, and to a memory peak
below what the doubled rule's batch would take.
"""

import contextlib
import dataclasses
import io
import math
import re
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

import starpinch.config
from starpinch import ConstantsConfig, RunSettings, run_pinch
from starpinch import quadrature as quadrature_module
from starpinch import surface as surface_module
from starpinch.cli import main
from starpinch.errors import HypothesisError
from starpinch.identities import (cauchy_schwarz_chain_check, hsiung_minkowski_residual,
                                  michael_simon_ratio, tau_l2_epsilon_bound)
from starpinch.pinch import distance_to_geodesic_sphere
from starpinch.quadrature import batch_volume, build_rule, integrate_batch, refinement_estimate
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
            return (b.H[:, 1] * b.support,
                    distance_to_geodesic_sphere(b.X, center, 0.9, surf.model))

        def combine(m, integrand, distance):
            return (integrate_batch(m, integrand), batch_volume(m, euclidean=True),
                    float(np.max(distance)), m.B_sup)

        estimates = refinement_estimate(surf, rule, columns, combine, sup=True)
        for batch, values in ((surf.fields(rule), [e.value for e in estimates]),
                              (whole_batch(surf, check), [e.check_value for e in estimates])):
            integrand, distance = columns(batch)
            assert values == [integrate_batch(batch, integrand),
                              batch_volume(batch, euclidean=True), float(np.max(distance)),
                              float(np.max(np.abs(batch.kappa)))]
        assert all(e.refinement_error == abs(e.value - e.check_value) for e in estimates)

    @pytest.mark.parametrize("n, order, perturbation", SURFACES)
    def test_B_sup_of_blocks_is_the_whole_batch(self, n, order, perturbation):
        surf = make_surface(-1.0, n, 0.9, perturbation)
        check = build_rule(n, 2 * order)
        batch = whole_batch(surf, check)
        expect = previous_B_sup_norm(batch)
        assert expect == float(np.max(np.abs(batch.kappa)))
        assert B_sup_norm(surf.blocks(check)) == batch.B_sup == expect

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


class TestBaseVolume:
    def test_the_base_batch_is_passed_in_place(self):
        surf = make_surface(-1.0, 2, 0.9, (((3, 1), 0.05),))
        rule = build_rule(2, 16)
        batch, measures = surf.fields(rule), []
        refinement_estimate(surf, rule, lambda b: (b.tau_sq,),
                            lambda m, tau_sq: measures.append((m, tau_sq)) or (0.0,))
        (m, tau_sq), (check, _) = measures
        assert m is batch and tau_sq is batch.tau_sq
        assert isinstance(check, quadrature_module.RuleMeasure)
        assert len(check.weights) == nodes(2, 32)

    def test_the_base_rules_volume_is_reduced_once(self, monkeypatch):
        surf = make_surface(-1.0, 2, 0.9, (((3, 1), 0.05),))
        rule = build_rule(2, 16)
        volume = batch_volume(surf.fields(rule))
        reductions, reduce = [], quadrature_module._reduce
        monkeypatch.setattr(quadrature_module, "_reduce",
                            lambda values: reductions.append(len(values)) or reduce(values))
        est, = refinement_estimate(surf, rule, lambda b: (), lambda m: (batch_volume(m),))
        assert est.value == volume and reductions == [nodes(2, 32)]


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
            refinement_estimate(surf, rule, lambda b: (), lambda m: (batch_volume(m),))
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


class TestMemory:
    def cached_orders(self, surface):
        return sorted(rule.order for rule, _ in surface._cache.values())

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
