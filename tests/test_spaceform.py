"""Space-form kernels, distances and the position field."""

import math

import numpy as np
import pytest

from starpinch.errors import HypothesisError
from starpinch.spaceform import (SpaceFormModel, c_delta, chart_norm_sq, chart_radius,
                                 geodesic_distance, geodesic_radius, s_delta)

from oracles import position_vector

DELTAS = (-2.0, -1.0, 0.0, 0.5, 1.0)

# frozen oracle values
COSH_1 = 1.5430806348152437          # sum of 1/(2k)! to convergence
TWO_ARTANH_HALF = 1.0986122886681098  # = ln(3)
TWO_ARCTAN_HALF = 0.9272952180016122


def model(delta, dim=3):
    return SpaceFormModel(delta=delta, ambient_dim=dim)


def ray_integrated_radius(s, delta, panels=4000):
    """Oracle independent of the closed forms: integrate the line element 1/q along a ray."""
    t = np.linspace(0.0, s, panels + 1)
    integrand = 1.0 / model(delta).conformal_factor(t[:, None])
    # Simpson weights
    w = np.ones_like(t)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return float(np.sum(w * integrand) * (t[1] - t[0]) / 3.0)


class TestKernels:
    def test_c_delta_flat(self):
        assert c_delta(5.0, 0.0) == 1.0

    def test_c_delta_quarter_period(self):
        assert abs(c_delta(math.pi / 2, 1.0)) < 1e-15

    def test_c_delta_hyperbolic(self):
        series = sum(1.0 / math.factorial(2 * k) for k in range(12))
        assert abs(series - COSH_1) < 1e-15
        assert c_delta(1.0, -1.0) == pytest.approx(COSH_1, abs=1e-14)

    def test_s_delta_flat(self):
        assert s_delta(2.0, 0.0) == 2.0

    def test_s_delta_at_zero(self):
        assert s_delta(0.0, -3.0) == 0.0

    def test_s_delta_quarter_period(self):
        assert s_delta(math.pi / 2, 1.0) == pytest.approx(1.0, abs=1e-15)

    def test_pythagorean_identity(self):
        t = np.linspace(0.0, 10.0, 201)
        for delta in DELTAS:
            c = c_delta(t, delta)
            s = s_delta(t, delta)
            resid = c * c + delta * s * s - 1.0
            scale = np.maximum(np.abs(c * c), 1.0)
            assert np.max(np.abs(resid) / scale) < 1e-12

    def test_derivatives_match_finite_differences(self):
        # FD truncation scales with |f'''|, so stay where the kernels are O(1)
        h = 1e-5
        t = np.linspace(0.1, 3.5, 120)
        for delta in DELTAS:
            ds = (s_delta(t + h, delta) - s_delta(t - h, delta)) / (2 * h)
            dc = (c_delta(t + h, delta) - c_delta(t - h, delta)) / (2 * h)
            assert np.max(np.abs(ds - c_delta(t, delta))) < 1e-8
            assert np.max(np.abs(dc + delta * s_delta(t, delta))) < 1e-8

    def test_series_branch_is_continuous_at_zero_curvature(self):
        # c and s deviate from their flat values at rate delta t^2 / 2
        t = np.linspace(0.0, 2.0, 50)
        for delta in (1e-10, -1e-10):
            assert np.max(np.abs(c_delta(t, delta) - c_delta(t, 0.0))) < 1e-9
            assert np.max(np.abs(s_delta(t, delta) - s_delta(t, 0.0))) < 1e-9


class TestRadius:
    def test_flat(self):
        x = np.array([0.7, 0.0, 0.0])
        assert geodesic_radius(x, model(0.0)) == 0.7

    def test_hyperbolic_closed_form_and_ray_oracle(self):
        x = np.array([0.0, 1.0, 0.0])
        r = geodesic_radius(x, model(-1.0))
        assert r == pytest.approx(TWO_ARTANH_HALF, abs=1e-14)
        assert r == pytest.approx(ray_integrated_radius(1.0, -1.0), abs=1e-11)

    def test_spherical_closed_form_and_ray_oracle(self):
        x = np.array([1.0, 0.0, 0.0])
        r = geodesic_radius(x, model(1.0))
        assert r == pytest.approx(TWO_ARCTAN_HALF, abs=1e-14)
        assert r == pytest.approx(ray_integrated_radius(1.0, 1.0), abs=1e-11)

    def test_small_curvature_limit(self):
        delta = 1e-9
        for s in (0.1, 0.5, 1.0):
            x = np.array([s, 0.0, 0.0])
            assert abs(geodesic_radius(x, model(delta)) - s) < 1e-8

    def test_chart_radius_inverts(self):
        for delta in DELTAS:
            m = model(delta)
            for r in (0.1, 0.5, 1.2):
                s = chart_radius(r, m)
                assert geodesic_radius(np.array([s, 0.0, 0.0]), m) == pytest.approx(r, abs=1e-13)

    def test_outside_chart_raises(self):
        with pytest.raises(HypothesisError):
            geodesic_radius(np.array([2.5, 0.0, 0.0]), model(1.0))


class TestDistance:
    def test_coincident_points(self):
        x = np.array([0.3, 0.1, -0.2])
        for delta in DELTAS:
            assert geodesic_distance(x, x, model(delta)) == 0.0

    def test_reduces_to_radius_from_origin(self):
        y = np.array([0.0, 0.0, 1.0])
        o = np.zeros(3)
        d = geodesic_distance(o, y, model(-1.0))
        assert d == pytest.approx(TWO_ARTANH_HALF, abs=1e-14)

    def test_flat_collinear_through_origin(self):
        x = np.array([0.4, 0.0, 0.0])
        y = np.array([-0.9, 0.0, 0.0])
        assert geodesic_distance(x, y, model(0.0)) == pytest.approx(1.3, abs=1e-15)

    def test_symmetry(self):
        rng = np.random.Generator(np.random.Philox(5))
        pts = rng.uniform(-0.5, 0.5, size=(200, 2, 3))
        for delta in (-1.0, 0.0, 1.0):
            m = model(delta)
            d_xy = geodesic_distance(pts[:, 0], pts[:, 1], m)
            d_yx = geodesic_distance(pts[:, 1], pts[:, 0], m)
            assert np.max(np.abs(np.asarray(d_xy) - np.asarray(d_yx))) < 1e-14

    def test_triangle_inequality(self):
        rng = np.random.Generator(np.random.Philox(11))
        pts = rng.uniform(-0.55, 0.55, size=(10_000, 3, 3))
        for delta in (-1.0, 0.0, 1.0):
            m = model(delta)
            d_ab = np.asarray(geodesic_distance(pts[:, 0], pts[:, 1], m))
            d_bc = np.asarray(geodesic_distance(pts[:, 1], pts[:, 2], m))
            d_ac = np.asarray(geodesic_distance(pts[:, 0], pts[:, 2], m))
            assert np.max(d_ac - (d_ab + d_bc)) < 1e-10

    def test_matches_radial_coordinate_along_axis(self):
        # two points on a radial geodesic: distance = difference of radii
        m = model(-1.0)
        a = np.array([0.3, 0.0, 0.0])
        b = np.array([0.8, 0.0, 0.0])
        expect = geodesic_radius(b, m) - geodesic_radius(a, m)
        assert geodesic_distance(a, b, m) == pytest.approx(expect, abs=1e-13)


class TestModel:
    @pytest.mark.parametrize("delta", [math.nan, math.inf, -math.inf])
    def test_non_finite_delta(self, delta):
        with pytest.raises(ValueError, match="delta must be finite"):
            SpaceFormModel(delta=delta, ambient_dim=3)


class TestConformalFactor:
    def test_hand_values(self):
        # q = 1 + (delta/4)|x|^2
        assert model(1.0).conformal_factor(np.array([2.0, 0.0, 0.0])) == 2.0
        assert model(-1.0).conformal_factor(np.array([0.0, 1.0, 0.0])) == 0.75
        assert model(0.0).conformal_factor(np.array([3.0, -4.0, 5.0])) == 1.0


class TestPositionVector:
    def test_flat_is_euclidean_position(self):
        x = np.array([0.2, -0.4, 0.6])
        assert np.allclose(position_vector(x, model(0.0)), x, atol=1e-15)

    def test_origin_is_zero(self):
        o = np.zeros(3)
        for delta in DELTAS:
            assert np.all(position_vector(o, model(delta)) == 0.0)

    def test_hyperbolic_norm_is_s_delta_of_radius(self):
        m = model(-1.0)
        x = np.array([0.0, 0.0, 1.0])
        z = position_vector(x, m)
        h_norm = float(np.linalg.norm(z)) / m.conformal_factor(x)
        # sinh(2 artanh(1/2)) = 4/3 exactly
        assert h_norm == pytest.approx(4.0 / 3.0, abs=1e-12)
        assert h_norm == pytest.approx(s_delta(geodesic_radius(x, m), -1.0), abs=1e-12)

    def test_radial_direction(self):
        m = model(1.0)
        x = np.array([0.3, 0.4, 0.0])
        z = position_vector(x, m)
        cross = np.cross(z, x)
        assert np.max(np.abs(cross)) < 1e-15


def _bits(a):
    return np.asarray(a, dtype=float).tobytes()


def _points(d, seed, specials=()):
    """(200, d) C-order chart points of norm below 1, some entries replaced by specials."""
    rng = np.random.Generator(np.random.Philox(seed))
    x = rng.uniform(-0.55, 0.55, size=(200, d)) * 10.0 ** rng.integers(-3, 1, size=(200, d))
    if specials:
        where = rng.random((200, d)) < 0.1
        x[where] = rng.choice(specials, size=where.sum())
    return x


class TestChartNormSq:
    """chart_norm_sq is np.sum(x * x) over the last axis, bit for bit, in any layout."""

    @pytest.mark.parametrize("d", [3, 4])
    def test_matches_np_sum_bit_for_bit(self, d):
        # one nan sign only: np.sum and the fold may keep either sign when a row holds both
        x = _points(d, 41, specials=(0.0, -0.0, math.inf, -math.inf, math.nan))
        x[:4] = [[0.0] * d, [-0.0] * d, [math.inf, -math.inf] + [0.0] * (d - 2),
                 [math.nan, -math.inf] + [-0.0] * (d - 2)]
        for view in (x, x.T.copy().T, x[::3]):  # C order, a transposed (d, N) array, strided
            assert _bits(chart_norm_sq(view)) == _bits(np.sum(view * view, axis=-1))
        for row in x:
            assert _bits(chart_norm_sq(row)) == _bits(np.sum(row * row, axis=-1))

    @pytest.mark.parametrize("delta", [-1.0, 0.0, 1.0])
    @pytest.mark.parametrize("d", [3, 4])
    def test_distance_and_conformal_factor_match_np_sum(self, delta, d):
        m = model(delta, dim=d)

        def reference(x, y):  # geodesic_distance with its sums written as np.sum
            if delta == 0.0:
                return np.sqrt(np.sum((x - y) ** 2, axis=-1))
            k = math.sqrt(abs(delta))
            u, v = 0.5 * k * x, 0.5 * k * y
            du2 = np.sum((u - v) ** 2, axis=-1)
            u2, v2 = np.sum(u * u, axis=-1), np.sum(v * v, axis=-1)
            if delta < 0.0:
                w = 2.0 * du2 / ((1.0 - u2) * (1.0 - v2))
                return np.log1p(w + np.sqrt(w * (w + 2.0))) / k
            return 2.0 * np.arcsin(np.clip(np.sqrt(du2 / ((1.0 + u2) * (1.0 + v2))), 0.0, 1.0)) / k

        x, y = _points(d, 43), _points(d, 47)
        for a, b in [(x, y[0]), (x, y), (x.T.copy().T, y[5]), (x[7], y[9])]:
            assert _bits(geodesic_distance(a, b, m)) == _bits(reference(a, b))
        for a in (x, x.T.copy().T, x[3]):
            expected = 1.0 + 0.25 * delta * np.sum(a * a, axis=-1)
            assert _bits(m.conformal_factor(a)) == _bits(expected)
