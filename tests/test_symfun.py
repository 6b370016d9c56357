"""Symmetric-function calculus: sigma_k, H_k, partials, the Newton gap, K1, calibration."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from starpinch.errors import HypothesisError
from starpinch import symfun
from starpinch.symfun import (K1, calibrate, elementary_symmetric, mean_curvatures,
                              newton_gap, partial_H_extremes, umbilicity_defect_sq)

from oracles import sharpened_newton_gap


def brute_sigma(kappa):
    n = len(kappa)
    out = [1.0]
    for k in range(1, n + 1):
        out.append(float(sum(math.prod(c) for c in itertools.combinations(kappa, k))))
    return out


class TestElementarySymmetric:
    def test_hand_expansion(self):
        assert np.allclose(elementary_symmetric([1.0, 2.0, 3.0]), [1, 6, 11, 6])

    def test_umbilic_binomial(self):
        for n in (2, 4, 6):
            c = 0.7
            sig = elementary_symmetric([c] * n)
            expect = [math.comb(n, k) * c**k for k in range(n + 1)]
            assert np.allclose(sig, expect, rtol=1e-14)

    def test_zeros(self):
        sig = elementary_symmetric([0.0] * 5)
        assert np.allclose(sig, [1, 0, 0, 0, 0, 0])

    def test_matches_subset_enumeration_exactly(self):
        rng = np.random.Generator(np.random.Philox(3))
        for n in range(2, 9):
            for _ in range(20):
                kappa = rng.integers(-4, 5, size=n).astype(float)
                assert elementary_symmetric(kappa).tolist() == brute_sigma(kappa)


class TestMeanCurvatures:
    def test_binomial_division(self):
        H = mean_curvatures([1.0, 2.0, 3.0])  # sigma = 1, 6, 11, 6
        assert np.allclose(H, [1.0, 2.0, 11.0 / 3.0, 6.0], rtol=1e-15)

    def test_umbilic_powers(self):
        H = mean_curvatures([0.5] * 4)
        assert np.allclose(H, [0.5**k for k in range(5)], rtol=1e-14)

    def test_two_dims(self):
        H = mean_curvatures([0.0, 2.0])
        assert H[1] == 1.0 and H[2] == 0.0

    @given(st.lists(st.floats(-3, 3), min_size=2, max_size=6))
    @settings(max_examples=300, deadline=None)
    def test_tau_identity(self, kappa):
        # sum (kappa_i - H_1)^2 = n(n-1)(H_1^2 - H_2) for every real vector
        kappa = np.asarray(kappa)
        n = len(kappa)
        H = mean_curvatures(kappa)
        lhs = float(umbilicity_defect_sq(kappa))
        rhs = float(n * (n - 1) * (H[1] ** 2 - H[2]))
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


class TestPartialH:
    def test_l2_is_dimensional_constant(self):
        rng = np.random.Generator(np.random.Philox(4))
        for n in (2, 3, 5):
            for _ in range(5):
                kappa = rng.normal(size=n)
                assert partial_H_extremes(2, np.sort(kappa)) == pytest.approx(
                    1.0 / math.comb(n, 2), rel=1e-15)

    def test_single_admissible_index(self):
        assert partial_H_extremes(3, [1.0, 2.0, 3.0]) == pytest.approx(2.0, rel=1e-15)

    def test_two_index_sum(self):
        assert partial_H_extremes(3, [1.0, 2.0, 3.0, 4.0]) == pytest.approx(5.0 / 4.0, rel=1e-15)

    def test_positive_for_positive_kappa(self):
        rng = np.random.Generator(np.random.Philox(5))
        kappa = np.sort(rng.uniform(0.1, 3.0, size=5))
        for l in range(2, 6):
            assert partial_H_extremes(l, kappa) > 0.0


class TestGaps:
    def test_newton_examples(self):
        assert newton_gap([1.0, 2.0, 3.0], 1) == pytest.approx(1.0 / 3.0, rel=1e-14)
        assert newton_gap([0.0, 2.0], 1) == pytest.approx(1.0, rel=1e-15)
        assert newton_gap([0.7] * 4, 2) == pytest.approx(0.0, abs=1e-15)

    def test_newton_nonnegative_mixed_signs(self):
        rng = np.random.Generator(np.random.Philox(7))
        for n in range(2, 7):
            kappa = rng.uniform(-2.0, 2.0, size=(100_000, n))
            for k in range(1, n):
                assert float(np.min(newton_gap(kappa, k))) >= -1e-12

    def test_sharpened_umbilic_is_zero(self):
        assert sharpened_newton_gap([1.3] * 3, 1, 0.37) == pytest.approx(0.0, abs=1e-14)

    def test_sharpened_degenerate_constant_equals_newton(self):
        kappa = [0.2, 1.1, 2.5]
        assert sharpened_newton_gap(kappa, 2, 0.0) == pytest.approx(newton_gap(kappa, 2), rel=1e-15)

    @pytest.mark.parametrize("n", range(2, 7))
    def test_batch_is_row_by_row(self, n):
        # (N, n) arrays, unsorted, give the bits of each row on its own
        kappa = np.random.Generator(np.random.Philox(20 + n)).uniform(0.1, 2.0, size=(50, n))
        assert np.array_equal(newton_gap(kappa, n - 1), [newton_gap(k, n - 1) for k in kappa])

    def test_sharpened_two_dims_exact(self):
        # n=2: gap = newton - c * tau^2 * 1 = 1 - 2c for kappa = (0, 2)
        assert sharpened_newton_gap([0.0, 2.0], 1, 0.25) == pytest.approx(0.5, rel=1e-14)


class TestK1:
    def test_r1_is_dimensional(self):
        assert K1(2, 1, 1.0, 1.0, 1.0, 0.45) == 2.0
        assert K1(5, 1, 1.0, 1.0, 1.0, 0.45) == 20.0

    def test_unit_inputs(self):
        # all inputs one: the product is (1/2)*2 = 1
        assert K1(3, 2, 1.0, 1.0, 1.0, 1.0) == pytest.approx(1.0, rel=1e-15)

    @pytest.mark.parametrize("minH_partial, h, B_sup, c_n", [
        (0.8, 0.5, 1.5, 0.125), (1.316243510870403, 1.7848451287365033, 1.3900914439251366, 0.125),
        (0.3, 2.0, 0.7, 0.5)])
    def test_r2_is_the_hand_formula(self, minH_partial, h, B_sup, c_n):
        # every b-constant is 1 at r = 2, so K1 is this product bit for bit
        hand = 1.0 / (c_n * (1.0 + (minH_partial / B_sup) ** 2) / B_sup * (h / 2.0))
        assert K1(3, 2, minH_partial, h, B_sup, c_n) == hand

    def test_monotone_in_h(self):
        # weaker pinching information (smaller h) gives a larger multiplier
        vals = [K1(3, 2, 0.8, h, 1.5, 0.15) for h in (0.25, 0.5, 1.0, 2.0)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_r1_exactness(self):
        # tau^2 = K1 (H H_1 - H_2) exactly at r = 1
        rng = np.random.Generator(np.random.Philox(8))
        for n in (2, 3, 5):
            kappa = rng.uniform(0.1, 2.0, size=n)
            H = mean_curvatures(kappa)
            k1 = K1(n, 1, 1.0, 1.0, 1.0, 0.45)
            assert umbilicity_defect_sq(kappa) == pytest.approx(
                k1 * float(H[1] * H[1] - H[2]), rel=1e-11, abs=1e-13
            )

    def test_errors(self):
        with pytest.raises(HypothesisError, match="^h = -1 must be positive at r = 2$"):
            K1(3, 2, 1.0, -1.0, 1.0, 0.15)
        with pytest.raises(ValueError):
            K1(3, 2, 1.0, 1.0, -1.0, 0.15)
        with pytest.raises(HypothesisError, match="^min H_"):
            K1(3, 2, -0.1, 1.0, 1.0, 0.15)
        # h is checked first: its message wins when min H_{r+1;n,1} fails too
        with pytest.raises(HypothesisError, match="^h = 0 must"):
            K1(3, 2, -0.1, 0.0, 1.0, 0.15)


def sharpened_gaps(kappa, c):
    """H_k^2 - H_{k+1}H_{k-1} - c tau^2 H_{k+1;n,1}^2 for k = 1..n-1, stacked."""
    return np.stack([sharpened_newton_gap(kappa, k, c) for k in range(1, kappa.shape[-1])])


class TestExactConstants:
    def test_values(self):
        assert symfun.default_c_n(2) == 0.5
        assert symfun.default_c_n(3) == 0.125
        with pytest.raises(ValueError):
            symfun.default_c_n(4)

    @pytest.mark.parametrize("n", [2, 3])
    def test_k1_ratio_is_the_dimensional_constant(self, n):
        # (H_1^2 - H_2) / (tau^2 H_{2;n,1}^2) = n(n-1)/4 for every kappa
        kappa = np.sort(np.random.Generator(np.random.Philox(5)).uniform(
            0.01, 3.0, size=(2000, n)), axis=1)
        gap = sharpened_gaps(kappa, n * (n - 1) / 4.0)[0]
        assert np.max(np.abs(gap)) <= 1e-14 * np.max(kappa) ** 2

    def test_c3_is_sharp_at_the_t_2t_1_corner(self):
        # kappa = (a, b, 1) with 0 < a <= b <= 1, dense near a = b/2 -> 0
        v = np.unique(np.concatenate([np.linspace(0.0, 1.0, 401)[1:],
                                      np.geomspace(1e-4, 1.0, 200),
                                      2.0 * np.geomspace(1e-4, 0.5, 200)]))
        a, b = np.meshgrid(v, v, indexing="ij")
        keep = a <= b
        grid = np.stack([a[keep], b[keep], np.ones(keep.sum())], axis=1)
        assert np.min(sharpened_gaps(grid, 1.0 / 8.0)) >= -8 * np.finfo(float).eps
        corner = np.array([[1e-3, 2e-3, 1.0]])
        assert sharpened_gaps(corner, 1.0 / 8.0)[1, 0] > 0.0
        assert sharpened_gaps(corner, 1.01 / 8.0)[1, 0] < 0.0


class TestCalibration:
    def test_sampler_reaches_the_n3_infimum(self):
        # the near-boundary family (t, 2t, 1) gets within 1% of c_3 = 1/8;
        # the umbilic limit is 1/6
        raw = calibrate(3, 2).raw_c_inf
        assert 1.0 / 8.0 <= raw <= 1.01 / 8.0

    def test_deterministic(self):
        a = calibrate(3, 2, samples=20_000, seed=9)
        b = calibrate(3, 2, samples=20_000, seed=9)
        assert a == b

    def test_n2_matches_exact_identity(self):
        # the ratio is identically 1/2 for n=2, so the raw infimum is 0.5
        cal = calibrate(2, 1, samples=30_000, seed=10)
        assert cal.raw_c_inf == pytest.approx(0.5, abs=1e-6)
        assert cal.c_n == pytest.approx(0.45, abs=1e-6)

    def test_margin_zero_records_raw_infimum(self):
        cal = calibrate(2, 1, samples=20_000, seed=10, margin=0.0)
        assert cal.c_n == cal.raw_c_inf

    def test_held_out_sharpened_gap(self):
        # calibrated c_n must keep the gap nonnegative on fresh samples
        for n in (2, 3, 4):
            cal = calibrate(n, n - 1, samples=40_000, seed=11)
            kappa = symfun.sample_positive_curvatures(n, 10_000, seed=999)
            assert float(np.min(sharpened_gaps(kappa, cal.c_n))) >= -1e-10

    def test_lemma_bound_on_held_out_samples(self):
        # tau^2 <= K1 (H H_r - H_{r+1}) with set-level constants
        for n, r in ((3, 2), (4, 3)):
            cal = calibrate(n, r, samples=40_000, seed=12)
            kappa = symfun.sample_positive_curvatures(n, 10_000, seed=777)
            H = mean_curvatures(kappa)
            tau_sq = umbilicity_defect_sq(kappa)
            B_sup = float(np.max(np.abs(kappa)))
            h = 2.0 * float(np.min(H[:, r]))
            minH_partial = float(np.min(partial_H_extremes(r + 1, kappa)))
            # K1 takes no b-constants; fold min_k b_{n,k+1,r}^{2(k-1)} into c_n
            min_b_pow = min(b ** (2 * (k - 1)) for k, b in enumerate(cal.b_consts, start=1))
            k1 = K1(n, r, minH_partial, h, B_sup, cal.c_n * min_b_pow)
            gap = k1 * (H[:, 1] * H[:, r] - H[:, r + 1]) - tau_sq
            assert float(np.min(gap)) >= -1e-10
