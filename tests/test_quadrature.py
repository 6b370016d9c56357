"""Quadrature rules, surface integrals, normalized L^p norms."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from starpinch import quadrature as quadrature_module
from starpinch import surface as surface_module
from starpinch.identities import SUM, lp_norm, refinement_estimate
from starpinch.quadrature import (_CHUNK, _FSUM_TERMS, SphericalRule, _reduce, _Sums,
                                  build_rule, integrate_batch, sphere_area)
from starpinch.spaceform import SpaceFormModel
from starpinch.surface import RadialSurface, evaluate_nodes


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


def tensor_rule_oracle(n, order):
    """Nodes and weights as np.repeat and np.tile of the 1-D factors built whole rules."""
    cos_t, w_t = np.polynomial.legendre.leggauss(order)
    m_az = 2 * order
    phi = 2.0 * math.pi * np.arange(m_az) / m_az
    sin_t = np.sqrt(1.0 - cos_t**2)
    nodes = np.column_stack([np.outer(sin_t, np.cos(phi)).ravel(),
                             np.outer(sin_t, np.sin(phi)).ravel(), np.repeat(cos_t, m_az)])
    weights = np.repeat(w_t, m_az) * (2.0 * math.pi / m_az)
    if n == 2:
        return nodes, weights
    theta = np.arange(1, order + 1) * math.pi / (order + 1)
    cos_1 = np.cos(theta)
    sin_1, w_1 = np.sqrt(1.0 - cos_1**2), (math.pi / (order + 1)) * np.sin(theta) ** 2
    layered = np.empty((order * len(weights), 4))
    layered[:, :3] = np.repeat(sin_1, len(weights))[:, None] * np.tile(nodes, (order, 1))
    layered[:, 3] = np.repeat(cos_1, len(weights))
    return layered, np.repeat(w_1, len(weights)) * np.tile(weights, order)


class TestGeneratedBlocks:
    @pytest.mark.parametrize("n, order", [(2, q) for q in range(4, 65)]
                             + [(3, q) for q in range(4, 33)])
    def test_blocks_are_the_rules_rows(self, n, order):
        rule = build_rule.__wrapped__(n, order)  # a fresh rule: on S^3, no whole array yet
        nodes, weights = tensor_rule_oracle(n, order)
        assert rule.size == len(weights)
        starts = range(0, rule.size, surface_module._BLOCK)
        for start in starts:  # the last block is partial unless the block size divides N
            got = rule.block(start, start + surface_module._BLOCK)
            span = slice(start, start + surface_module._BLOCK)
            assert np.array_equal(got[0], nodes[span]) and np.array_equal(got[1], weights[span])
        assert ("arrays" in vars(rule)) == (n == 2)  # S^2 rules are whole, S^3 ones layered
        assert np.array_equal(rule.nodes, nodes) and np.array_equal(rule.weights, weights)

    def test_an_s3_rule_takes_one_cache_slot(self):
        # its inner S^2 rule is not memoized: the identities workload's rules take 6 of 8 slots
        build_rule.cache_clear()
        build_rule(3, 12)
        assert build_rule.cache_info().currsize == 1

    def test_a_last_partial_block(self):
        rule = build_rule.__wrapped__(3, 12)
        assert [len(rule.block(b, b + 2048)[1]) for b in (0, 2048)] == [2048, 1408]

    def test_a_hand_built_rule_streams_and_integrates_as_before(self):
        surf = flat_sphere(1.0)
        rule = build_rule(2, 64)
        half = SphericalRule(n=2, order=64, nodes=rule.nodes, weights=rule.weights / 2)
        blocks = list(surf.blocks(half))
        assert len(blocks) == 4
        assert np.array_equal(np.concatenate([b.weights for b in blocks]), half.weights)
        streamed = _Sums()
        for block in blocks:
            integrate_batch(block, [1.0], euclidean=[False], into=streamed)
        volume = streamed.totals(lambda: (quadrature_module._summands(b, [1.0], [False])
                                          for b in surf.blocks(half)))[0]
        assert volume == integrate_batch(surf.fields(half), 1.0) == pytest.approx(2.0 * math.pi)


def _fsum_outcome(sum_of, values):
    """The float a sum returns, bit for bit, or the type and text of what it raises."""
    try:
        return np.float64(sum_of(values)).tobytes()
    except (OverflowError, ValueError) as exc:
        return type(exc), str(exc)


_SPECIAL = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -2.2250738585072014e-308,
            1.7976931348623157e308, -1.7976931348623157e308]


@st.composite
def summands(draw):
    """Arrays with cancellation, exponents over the whole float64 range, subnormals,
    zeros, +-inf and nan, tiled to lengths past 2^16 and at the math.fsum cutoff and the
    chunk size, each minus one, exactly and plus one."""
    wide = st.builds(math.ldexp, st.floats(-1.0, 1.0), st.integers(-950, 950))
    if draw(st.booleans()):
        wide = st.one_of(wide, st.floats(), st.sampled_from(_SPECIAL))
    pattern = draw(st.lists(wide, max_size=30))
    if draw(st.booleans()):  # cancel every term but a tiny remainder
        pattern += [-x for x in pattern] + [draw(st.floats(-1e-12, 1e-12))]
    length = draw(st.sampled_from([1, 2**11 + 1, 2**16 + 7, _FSUM_TERMS - 1, _FSUM_TERMS,
                                   _FSUM_TERMS + 1, _CHUNK - 1, _CHUNK, _CHUNK + 1]))
    # whole copies (one at least) padded with zeros to the length; empty if the pattern is
    values = np.tile(np.array(pattern, dtype=float), max(length // max(len(pattern), 1), 1))
    return np.pad(values, (0, max(length - len(values), 0) if pattern else 0))


class TestReduce:
    @settings(max_examples=200, deadline=None)
    @given(summands())
    def test_bitwise_equal_to_fsum(self, values):
        assert _fsum_outcome(_reduce, values) == _fsum_outcome(
            lambda v: math.fsum(v.tolist()), values)

    @settings(max_examples=150, deadline=None)
    @given(summands(), st.lists(st.floats(0.0, 1.0), max_size=5), st.booleans())
    @example(np.pad([1e308, 1e308, -1e308], (0, 600)), [1 / 603], True)  # overflows in order
    def test_running_sums_of_any_split_are_the_whole_arrays(self, values, fractions, first):
        # the row sits beside a plain one in every (2, B) chunk; chunk lengths are arbitrary
        plain = np.linspace(-3.0, 5.0, len(values))
        rows = np.stack([values, plain] if first else [plain, values])
        cuts = [0, *sorted(int(f * len(values)) for f in fractions), len(values)]
        chunks = [rows[:, a:b] for a, b in zip(cuts, cuts[1:])]

        def streamed(_):
            sums = _Sums()
            for chunk in chunks:
                sums.add(chunk)
            totals = sums.totals(lambda: iter(chunks))
            assert totals[1 if first else 0] == _reduce(plain)
            return totals[0 if first else 1]

        assert _fsum_outcome(streamed, values) == _fsum_outcome(_reduce, values)


def _stream(chunks):
    """A _Sums fed the chunks in order, and its totals."""
    sums = _Sums()
    for chunk in chunks:
        sums.add(chunk)
    return sums, sums.totals(lambda: iter(chunks))


def _fsums(chunks):
    """Each row's math.fsum over the chunks, as bytes."""
    rows = np.concatenate(chunks, axis=1)
    return np.array([math.fsum(row.tolist()) for row in rows]).tobytes()


def _wide(rng, size, lo, hi):
    """Random signed values with exponents in [lo, hi)."""
    return rng.standard_normal(size) * np.exp2(rng.integers(lo, hi, size))


class TestExtraction:
    """Exact level sums by error-free extraction, each case bit for bit math.fsum's."""

    @pytest.mark.parametrize("exponent, replayed", [(962, False), (963, False), (964, True)])
    def test_a_row_maximum_near_overflow(self, exponent, replayed):
        values = _wide(np.random.default_rng(1), (3, 3000), exponent - 60, exponent - 3)
        values[:, 0] = -math.ldexp(1.0, exponent)  # each row's maximum |x|; 2^964 replays
        sums, totals = _stream([values[:, :1000], values[:, 1000:]])
        assert sums.replay == replayed
        assert np.array(totals).tobytes() == _fsums([values])

    @pytest.mark.parametrize("lo, hi, replayed", [(-905, -895, False), (-960, 0, False),
                                                  (-1070, -1060, True), (-1074, 10, True)])
    def test_tiny_values(self, lo, hi, replayed):
        # sigma stays normal down to 2^-900; a subnormal one replays through math.fsum
        values = _wide(np.random.default_rng(2), (4, 2500), lo, hi)
        sums, totals = _stream([values])
        assert sums.replay == replayed
        assert np.array(totals).tobytes() == _fsums([values])

    def test_all_zero_rows_beside_rows_of_many_levels(self):
        # the zero rows' sigma turns subnormal long before the live rows end; it does not
        # send them to math.fsum
        values = np.zeros((4, 1500))
        values[1] = _wide(np.random.default_rng(3), 1500, -920, 900)
        values[3, ::7] = 1.0
        sums, totals = _stream([values[:, :700], values[:, 700:]])
        assert not sums.replay and len(sums.levels) > 40
        assert np.array(totals).tobytes() == _fsums([values])

    def test_negative_zeros(self):
        values = np.full((3, 1024), -0.0)
        values[1, 5] = 1e-280
        values[2, ::2] = 0.0
        sums, totals = _stream([values])
        assert not sums.replay
        assert np.array(totals).tobytes() == _fsums([values])

    def test_a_row_of_three_levels_or_more(self):
        values = np.tile([1e-40, -1e-40], 1000)
        values[0], values[1] = 1.0, 1e-40  # the 1e-40 terms cancel but one
        sums, totals = _stream([values[None]])
        assert len(sums.levels) >= 3
        assert np.array(totals).tobytes() == _fsums([values[None]])
        assert totals == [1.0 + 1e-40]

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_parts_of_two_to_the_m_values_and_one_fewer(self, sign):
        # two rows: parts of 4096 = 2^12 values (M = 13) and 4095 (M = 12), each value near
        # its part's maximum so that a level sum comes near sigma
        rng = np.random.default_rng(4)
        values = sign * np.nextafter(1.0, 0.0) * (1.0 - rng.random((2, 8191)) * 2.0**-40)
        assert [part.shape[1].bit_length() for part in (values[:, :4096], values[:, 4096:])] \
            == [13, 12]
        sums, totals = _stream([values])
        assert not sums.replay
        assert np.array(totals).tobytes() == _fsums([values])

    @pytest.mark.parametrize("scale", [1.0, 2.0**1000, math.inf])
    def test_add_leaves_its_chunk_unchanged(self, scale):
        values = _wide(np.random.default_rng(5), (8, 5000), -60, 0) * scale
        kept = values.copy()
        _Sums().add(values)
        assert values.tobytes() == kept.tobytes()


def volume_estimate(surface, rule):
    return refinement_estimate(surface, rule, lambda b: [], lambda m: (m.volume,))[0]


class TestSurfaceIntegral:
    def test_unit_sphere_area(self):
        est = volume_estimate(flat_sphere(1.0), build_rule(2, 8))
        assert est.value == pytest.approx(4.0 * math.pi, rel=1e-13)
        assert est.refinement_error < 1e-12

    def test_area_scaling(self):
        est = volume_estimate(flat_sphere(2.0), build_rule(2, 8))
        assert est.value == pytest.approx(16.0 * math.pi, rel=1e-13)

    def test_support_integral_on_unit_sphere(self):
        est = refinement_estimate(flat_sphere(1.0), build_rule(2, 8),
                                  lambda b: [(SUM, b.support)], lambda m, f: (f,))[0]
        assert est.value == pytest.approx(-4.0 * math.pi, rel=1e-13)

    def test_spectral_refinement_decay(self):
        surf = flat_sphere(1.0, perturbation=(((3, 1), 0.15), ((2, -1), 0.1)))

        def integrand(batch):
            return [(SUM, np.exp(batch.X[:, 0] + 0.3 * batch.X[:, 2] ** 2))]

        errs = [refinement_estimate(surf, build_rule(2, o), integrand,
                                    lambda m, f: (f,))[0].refinement_error
                for o in (6, 12, 24)]
        for coarse, fine in zip(errs, errs[1:]):
            assert fine <= coarse / 10.0 or fine < 1e-12


class TestBatchWeights:
    def test_fields_carry_the_rules_own_weights(self):
        rule = build_rule(2, 8)
        batch = flat_sphere(1.0).fields(rule)
        assert batch.weights is rule.weights
        with pytest.raises(ValueError):
            batch.weights[0] = 0.0

    def test_a_batch_off_a_rule_cannot_be_integrated(self):
        batch = evaluate_nodes(flat_sphere(1.0), build_rule(2, 8).nodes)
        assert batch.weights is None
        for reduce in (lambda: integrate_batch(batch, batch.rho),
                       lambda: integrate_batch(batch, 1.0),
                       lambda: integrate_batch(batch, 1.0, euclidean=True)):
            with pytest.raises(ValueError, match="no rule weights"):
                reduce()


class TestGeodesicSphereAreas:
    # closed forms: |S_rho| = 4 pi s_d(rho)^2 in M^3, 2 pi^2 s_d(rho)^3 in M^4
    @pytest.mark.parametrize("delta", [-1.0, 0.0, 1.0])
    def test_n2_area(self, delta):
        from starpinch.spaceform import SpaceFormModel, chart_radius, s_delta

        rho = 0.8
        model = SpaceFormModel(delta=delta, ambient_dim=3)
        surf = RadialSurface(n=2, model=model, rho0=chart_radius(rho, model))
        est = volume_estimate(surf, build_rule(2, 12))
        assert est.value == pytest.approx(4.0 * math.pi * s_delta(rho, delta) ** 2,
                                          rel=1e-12)

    @pytest.mark.parametrize("delta", [-1.0, 0.0, 1.0])
    def test_n3_area(self, delta):
        from starpinch.spaceform import SpaceFormModel, chart_radius, s_delta

        rho = 0.6
        model = SpaceFormModel(delta=delta, ambient_dim=4)
        surf = RadialSurface(n=3, model=model, rho0=chart_radius(rho, model))
        est = volume_estimate(surf, build_rule(3, 8))
        assert est.value == pytest.approx(2.0 * math.pi**2 * s_delta(rho, delta) ** 3,
                                          rel=1e-12)


class TestLpNorms:
    def test_constant_field(self):
        surf = flat_sphere(1.3, perturbation=(((2, 1), 0.1),))
        for p in (1.0, 2.0, 3.0):
            batch = surf.fields(build_rule(2, 12))
            got = lp_norm(batch, np.full(len(batch.rho), -2.5), p)
            assert got == pytest.approx(2.5, rel=1e-13)

    def test_unit_field_normalized(self):
        surf = flat_sphere(0.7, perturbation=(((3, 2), 0.05),))
        for p in (1.0, 2.0, 3.0):
            batch = surf.fields(build_rule(2, 12))
            got = lp_norm(batch, np.ones(len(batch.rho)), p)
            assert got == pytest.approx(1.0, abs=1e-13)

    def test_monotone_in_p(self):
        surf = flat_sphere(1.0, perturbation=(((2, 0), 0.1),))
        batch = surf.fields(build_rule(2, 16))
        bump = np.exp(-8.0 * (batch.nodes[:, 2] - 0.6) ** 2)
        norms = [lp_norm(batch, bump, p) for p in (1.0, 2.0, 3.0, 5.0)]
        for lo, hi in zip(norms, norms[1:]):
            assert lo <= hi + 1e-12

    def test_umbilic_defect_vanishes_on_sphere(self):
        batch = flat_sphere(1.0).fields(build_rule(2, 8))
        got = lp_norm(batch, np.sqrt(batch.tau_sq), 1.0)
        assert got < 1e-13

    def test_rejects_subunit_p(self):
        with pytest.raises(ValueError):
            batch = flat_sphere().fields(build_rule(2, 8))
            lp_norm(batch, batch.rho, 0.5)
