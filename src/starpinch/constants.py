"""The explicit constant chain K1 -> K2 -> K3 -> eps1 and the final bound.

The chain turns the pointwise multiplier K1 (symfun module) into the
integral bound int tau^2 <= K2 int |eps|, absorbs the extrinsic Sobolev
comparison into K3, and yields the smallness threshold
eps1 = eps0^(2(n+1)) / K3 together with the stability bound

    d_H(Sigma, S_rho0) <= C |eps|_1^gamma,
    C = c_RS * rho0 * K3^gamma,  gamma = alpha / (2(n+1)).

eps0, c_RS and alpha belong to the black-box almost-umbilical stability
theorem; they are configuration with documented defaults, kept on the
evaluated chain as its ``config`` and printed in every report so that no
number masquerades as derived.  K1 is ``symfun.K1`` at the pinching level
h.  Its sharpened-Newton constant c_n is derived: the exact value of
``symfun.default_c_n``, recorded in the dependency ledger.  The dimension
n and the curvature delta come from the space-form model.  The conformal
Sobolev constant c_{n,phi} defaults to Kn_MS * exp(n * sup|phi|) over the
containment ball, a safe computable bound for the volume distortion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

from . import symfun
from .errors import HypothesisError, NumericalError
from .spaceform import SpaceFormModel, c_delta, chart_radius, s_delta


@dataclass(frozen=True)
class ConstantsConfig:
    """Configured (not derived) inputs of the constant chain."""

    eps0: float = 0.1          # smallness threshold of the black-box theorem
    c_RS: float = 1.0          # its multiplicative constant
    alpha: float = field(default=0.5, metadata={"placeholder": True})  # Hoelder alpha(n, n+1)
    Kn_MS: float = 1.0         # Michael-Simon constant K(n)

    def __post_init__(self):
        bad = [f.name for f in fields(self) if not 0.0 < getattr(self, f.name) < math.inf]
        if bad:
            raise ValueError(f"constants.{bad[0]} must be strictly positive and finite")


@dataclass(frozen=True)
class ProofConstants:
    """Evaluated constant chain for one surface, with its configured inputs and provenance."""

    K1: float
    K2: float
    K3: float
    eps1: float
    gamma: float
    c_n_phi: float
    config: ConstantsConfig
    dependencies: dict = field(default_factory=dict)


def K2(delta: float, K1: float, R0: float, B_sup: float, R: float) -> float:
    """The three-case integral constant with int tau^2 <= K2 int |eps|."""
    if R0 <= 0.0:
        raise HypothesisError("R0 must be positive (quantitative starshapedness)")
    if B_sup < 0.0 or R < 0.0 or K1 <= 0.0:
        raise ValueError("K1 must be positive, B_sup and R nonnegative")
    if delta > 0.0:
        return (K1 / R0) * (1.0 + B_sup / math.sqrt(delta))
    return (K1 / R0) * (c_delta(R, delta) + B_sup * s_delta(R, delta))


def K3(K2_value: float, c_n_phi: float, volume: float, n: int) -> float:
    """K3 = K2 * c_{n,phi}^2 * V^{(2n+2)/n}."""
    if min(K2_value, c_n_phi, volume) <= 0.0:
        raise ValueError("K3 inputs must be positive")
    return K2_value * c_n_phi**2 * volume ** ((2.0 * n + 2.0) / n)


def eps1(eps0: float, K3_value: float, n: int) -> float:
    """Smallness threshold eps1 = eps0^{2(n+1)} / K3."""
    if eps0 <= 0.0 or K3_value <= 0.0:
        raise ValueError("eps0 and K3 must be positive")
    return eps0 ** (2 * (n + 1)) / K3_value


def gamma_exponent(alpha: float, n: int) -> float:
    return alpha / (2.0 * (n + 1))


def phi_sup(model: SpaceFormModel, R: float) -> float:
    """sup |phi| over the geodesic ball of radius R around the base point."""
    s = chart_radius(R, model)
    return abs(float(math.log1p(0.25 * model.delta * s * s)))


def c_n_phi_default(model: SpaceFormModel, R: float, Kn_MS: float) -> float:
    """Safe conformal Sobolev constant: Kn_MS * exp(n * sup|phi|), n = ambient_dim - 1."""
    return Kn_MS * math.exp((model.ambient_dim - 1) * phi_sup(model, R))


def final_bound(eps_l1: float, rho0: float, consts: ProofConstants):
    """The stability bound C |eps|_1^gamma and its applicability flag.

    The flag records whether eps_l1 <= eps1; the value, 0 on exact spheres,
    is computed either way so inapplicable runs stay informative.
    """
    if eps_l1 < 0.0:
        raise ValueError("eps_l1 must be nonnegative")
    bound = _in_range("final bound", lambda: consts.config.c_RS * rho0 * consts.K3**consts.gamma
                      * eps_l1**consts.gamma, least=0.0)
    return bound, bool(eps_l1 <= consts.eps1)


def build_chain(model: SpaceFormModel, r: int, *, h: float, B_sup: float, R0: float,
                R: float, volume: float, minH_partial: float,
                config: ConstantsConfig) -> ProofConstants:
    """Evaluate the chain for one surface (n and delta from its model), recording its inputs."""
    n, delta = model.ambient_dim - 1, model.delta
    c_n = symfun.default_c_n(n)
    K1_value = _in_range("K1", symfun.K1, n, r, minH_partial, h, B_sup, c_n)
    K2_value = _in_range("K2", K2, delta, K1_value, R0, B_sup, R)
    c_phi = _in_range("c_n_phi", c_n_phi_default, model, R, config.Kn_MS)
    K3_value = _in_range("K3", K3, K2_value, c_phi, volume, n)
    eps1_value = _in_range("eps1", eps1, config.eps0, K3_value, n)
    gamma = _in_range("gamma", gamma_exponent, config.alpha, n)
    deps = {
        "n": n, "r": r, "delta": delta, "h": h, "minH_partial": minH_partial,
        "B_sup": B_sup, "volume": volume, "R0": R0, "R": R, "c_n": c_n,
    }
    return ProofConstants(K1=K1_value, K2=K2_value, K3=K3_value, eps1=eps1_value,
                          gamma=gamma, c_n_phi=c_phi, config=config, dependencies=deps)


def _in_range(name: str, constant, *args, least=math.ulp(0.0)) -> float:
    """constant(*args); NumericalError names it if it overflows (or divides by 0) or is < least."""
    try:
        value = constant(*args)
    except (OverflowError, ZeroDivisionError):
        value = math.inf
    if not least <= value < math.inf:
        raise NumericalError(f"constant chain: {name} = {value!r} left the floating-point range")
    return value


def describe(consts: ProofConstants) -> str:
    """Stable text block for report headers: derived values, then the configured ones flagged."""
    lines = [f"{f.name} = {getattr(consts, f.name)!r}" for f in fields(consts)
             if f.name not in ("config", "dependencies")]
    for f in fields(consts.config):
        flag = "configured placeholder" if f.metadata.get("placeholder") else "configured"
        lines.append(f"{f.name} = {getattr(consts.config, f.name)!r}  ({flag})")
    dep = " ".join(f"{k}={v!r}" for k, v in sorted(consts.dependencies.items()))
    lines.append(f"depends_on: {dep}")
    return "\n".join(lines)
