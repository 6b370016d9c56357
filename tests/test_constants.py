"""The explicit constant chain K2, K3, eps1, final bound."""

import dataclasses
import math

import numpy as np
import pytest

from starpinch import symfun
from starpinch.constants import (ConstantsConfig, K2, K3, ProofConstants, build_chain,
                                 c_n_phi_default, describe, eps1, final_bound,
                                 gamma_exponent, phi_sup)
from starpinch.errors import HypothesisError, NumericalError
from starpinch.spaceform import SpaceFormModel

TEN_POW_MINUS_TWO_THIRDS = 0.21544346900318834  # (1e-4)^(1/6)


def chain(delta=0.0, n=2, **overrides):
    model = SpaceFormModel(delta=delta, ambient_dim=n + 1)
    kwargs = dict(h=1.0, B_sup=1.2, R0=0.9, R=1.1, volume=4.0 * math.pi,
                  minH_partial=1.0, config=ConstantsConfig())
    kwargs.update(overrides)
    return build_chain(model, 1, **kwargs)


@pytest.mark.parametrize("name", ["eps0", "c_RS", "alpha", "Kn_MS"])
@pytest.mark.parametrize("value", [0.0, math.nan, math.inf])
def test_configured_constants_are_positive_and_finite(name, value):
    with pytest.raises(ValueError, match="positive and finite"):
        ConstantsConfig(**{name: value})


class TestK2:
    def test_flat_arithmetic(self):
        assert K2(0.0, 1.0, 1.0, 2.0, 3.0) == pytest.approx(7.0, rel=1e-15)

    def test_spherical_zero_curvature_term(self):
        assert K2(1.0, 1.0, 1.0, 0.0, 5.0) == pytest.approx(1.0, rel=1e-15)

    def test_hyperbolic_degenerate_radius(self):
        assert K2(-1.0, 3.0, 1.5, 2.0, 0.0) == pytest.approx(2.0, rel=1e-15)

    def test_monotone_in_B_and_R(self):
        for delta in (-1.0, 0.0):
            vals_B = [K2(delta, 1.0, 1.0, b, 1.0) for b in (0.0, 0.5, 1.0, 2.0)]
            assert all(a <= b for a, b in zip(vals_B, vals_B[1:]))
            vals_R = [K2(delta, 1.0, 1.0, 1.0, r) for r in (0.0, 0.5, 1.0, 2.0)]
            assert all(a <= b for a, b in zip(vals_R, vals_R[1:]))

    def test_requires_positive_R0(self):
        with pytest.raises(HypothesisError):
            K2(0.0, 1.0, 0.0, 1.0, 1.0)


class TestK3:
    def test_unit_inputs(self):
        assert K3(1.0, 1.0, 1.0, 2) == 1.0

    def test_volume_homogeneity(self):
        base = K3(1.0, 1.0, 1.0, 2)
        assert K3(1.0, 1.0, 2.0, 2) == pytest.approx(base * 2.0**3, rel=1e-14)
        assert K3(1.0, 1.0, 2.0, 3) == pytest.approx(K3(1.0, 1.0, 1.0, 3) * 2.0 ** (8 / 3), rel=1e-14)

    def test_hand_arithmetic(self):
        v = 4.0 * math.pi
        assert K3(7.0, 2.0, v, 2) == pytest.approx(7.0 * 4.0 * v**3, rel=1e-14)

    def test_monotone_in_each_factor(self):
        assert K3(2.0, 1.0, 1.0, 2) > K3(1.0, 1.0, 1.0, 2)
        assert K3(1.0, 2.0, 1.0, 2) > K3(1.0, 1.0, 1.0, 2)
        assert K3(1.0, 1.0, 2.0, 2) > K3(1.0, 1.0, 1.0, 2)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            K3(0.0, 1.0, 1.0, 2)


class TestEps1:
    def test_arithmetic(self):
        assert eps1(0.1, 10.0, 2) == pytest.approx(1e-7, rel=1e-12)

    def test_unit_case(self):
        assert eps1(1.0, 1.0, 3) == 1.0

    def test_monotone(self):
        assert eps1(0.2, 10.0, 2) > eps1(0.1, 10.0, 2)
        vals = [eps1(0.1, k3, 2) for k3 in (1.0, 10.0, 1e4, 1e8)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            eps1(0.0, 1.0, 2)
        with pytest.raises(ValueError):
            eps1(0.1, -1.0, 2)


class TestFinalBound:
    def consts(self, K3_value=1.0, alpha=1.0, n=2):
        return ProofConstants(
            c_n=0.5, K1=2.0, K2=1.0, K3=K3_value, eps1=eps1(0.1, K3_value, n),
            gamma=gamma_exponent(alpha, n), c_n_phi=1.0,
            config=ConstantsConfig(eps0=0.1, c_RS=1.0, alpha=alpha, Kn_MS=1.0),
        )

    def test_zero_deviation(self):
        bound = final_bound(0.0, 1.0, self.consts())
        assert type(bound) is float and bound == 0.0

    @pytest.mark.parametrize("eps_l1, K3_value, alpha, rho0", [
        (0.0, 2.0, 1e6, 1.0),  # K3^gamma raises OverflowError
        (2.0, 1.0, 1e6, 1.0),  # |eps|_1^gamma raises OverflowError
        (1e3, 1.0, 1.0, 1e308),  # C * |eps|_1^gamma is inf
        (0.0, 1e300, 6.0, 1e300),  # C is inf, and inf * 0 is nan
    ], ids=["K3_power", "eps_power", "product", "nan"])
    def test_a_bound_outside_the_float_range_is_named(self, eps_l1, K3_value, alpha, rho0):
        with pytest.raises(NumericalError, match=r"^constant chain: final bound = (inf|nan) "):
            final_bound(eps_l1, rho0, self.consts(K3_value, alpha))

    def test_a_bound_that_underflows_is_zero(self):
        assert final_bound(1e-300, 1.0, self.consts(alpha=600.0)) == 0.0

    def test_hand_arithmetic(self):
        bound = final_bound(1e-4, 1.0, self.consts(alpha=1.0))
        assert bound == pytest.approx(TEN_POW_MINUS_TWO_THIRDS, rel=1e-13)

    def test_monotone_and_concave(self):
        c = self.consts()
        xs = np.linspace(0.0, 1e-3, 9)
        bounds = [final_bound(float(x), 1.0, c) for x in xs]
        assert all(a <= b for a, b in zip(bounds, bounds[1:]))
        mid = final_bound(5e-4, 1.0, c)
        assert mid >= 0.5 * (bounds[0] + bounds[-1])


class TestPhiBound:
    def test_flat_is_zero(self):
        model = SpaceFormModel(delta=0.0, ambient_dim=3)
        assert phi_sup(model, 2.0) == 0.0
        assert c_n_phi_default(model, 2.0, 1.0) == 1.0

    def test_dimension_comes_from_the_model(self):
        for n in (2, 3):
            model = SpaceFormModel(delta=-1.0, ambient_dim=n + 1)
            assert c_n_phi_default(model, 1.0, 1.5) == 1.5 * math.exp(n * phi_sup(model, 1.0))

    def test_signs_and_growth(self):
        hyp = SpaceFormModel(delta=-1.0, ambient_dim=3)
        sph = SpaceFormModel(delta=1.0, ambient_dim=3)
        assert phi_sup(hyp, 1.0) > 0.0
        assert phi_sup(sph, 1.0) > 0.0
        assert phi_sup(hyp, 1.5) > phi_sup(hyp, 1.0)


class TestChain:
    def test_bitwise_reproducible(self):
        a = chain(delta=-1.0)
        b = chain(delta=-1.0)
        assert a == b
        assert describe(a) == describe(b)

    def test_invariants(self):
        c = chain(delta=1.0)
        assert c.eps1 == c.config.eps0 ** (2 * 3) / c.K3
        assert c.gamma == c.config.alpha / 6.0

    def test_c_n_is_the_exact_value_K1_read(self):
        c = chain(delta=-1.0)
        assert c.c_n == symfun.default_c_n(2) == 0.5
        # r = 1: K1 is the exact dimensional constant n(n-1)
        assert c.K1 == 2.0

    @pytest.mark.parametrize("delta", [-1.0, 0.0])
    @pytest.mark.parametrize("B_sup", [1.2, 0.0])
    def test_an_infinite_radius_overflows_K2(self, delta, B_sup):
        # for delta <= 0 this, not a gate, rejects a surface that leaves every ball
        with pytest.raises(NumericalError, match=r"^constant chain: K2 = (inf|nan) "):
            chain(delta=delta, B_sup=B_sup, R=math.inf)

    @pytest.mark.parametrize("delta", [-1.0, 0.0, 1.0])
    def test_n_and_delta_come_from_the_model(self, delta):
        c = chain(delta=delta, n=3)
        assert c.c_n == 0.125 and c.K2 == K2(delta, c.K1, 0.9, 1.2, 1.1)
        # gamma = alpha / (2(n+1)) and eps1 = eps0^(2(n+1)) / K3 at n = 3
        assert c.gamma == c.config.alpha / 8.0
        assert c.eps1 == c.config.eps0 ** 8 / c.K3

    def test_the_chain_keeps_its_config(self):
        config = ConstantsConfig(eps0=10.0, c_RS=2.0, alpha=0.25, Kn_MS=3.0)
        c = chain(delta=-1.0, config=config)
        assert c.config is config
        # no derived field repeats a configured one
        derived = {f.name for f in dataclasses.fields(ProofConstants)}
        assert derived.isdisjoint(f.name for f in dataclasses.fields(ConstantsConfig))

    def test_describe_names_the_fields_in_order(self):
        c = chain(delta=-1.0)
        names = [line.split(" = ")[0] for line in describe(c).splitlines()]
        derived = [f.name for f in dataclasses.fields(ProofConstants) if f.name != "config"]
        configured = [f.name for f in dataclasses.fields(ConstantsConfig)]
        assert derived == ["c_n", "K1", "K2", "K3", "eps1", "gamma", "c_n_phi"]
        assert names == derived + configured

    def test_describe_flags_configured_values(self):
        c = chain(delta=0.0)
        assert describe(c).splitlines() == [
            "c_n = 0.5", f"K1 = {c.K1!r}", f"K2 = {c.K2!r}", f"K3 = {c.K3!r}",
            f"eps1 = {c.eps1!r}", f"gamma = {c.gamma!r}", f"c_n_phi = {c.c_n_phi!r}",
            "eps0 = 0.1  (configured)", "c_RS = 1.0  (configured)",
            "alpha = 0.5  (configured placeholder)", "Kn_MS = 1.0  (configured)"]
