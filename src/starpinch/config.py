"""Experiment configuration: INI-style file, validation, canonical hash.

A configuration file has three sections::

    [surface]
    n = 2
    delta = -1.0
    rho0 = 1.0
    perturbation = 3,1:0.05 2,0:0.02    # n=2: l,m:amplitude
                                        # n=3: key:amplitude (e.g. u1u2:0.05)
    [experiment]
    r = 1
    quad_order = 16                     # refinement errors use 2 * quad_order
    h = 1.0                             # pinching level, positive (default: mean of H_r)
    amplitudes = 0.08 0.04 0.02 0.01    # scaling command only, strictly decreasing

    [constants]
    eps0 = 0.1
    c_RS = 1.0
    alpha = 0.5
    Kn_MS = 1.0

n is 2 or 3, the dimensions the surfaces support.  All keys have defaults
except the surface geometry, and keys the parser does not know are
ignored.  Among them are the former [constants] keys c_n, b_consts and
calibration_file: at n = 2 and 3 the sharpened-Newton constant c_n is
exact and every b-constant is 1, so nothing is left to configure.  The
former key K1_mode is not ignored: K1 always uses the pinching level h,
so ``K1_mode = h`` loads like a file without the key and any other value
is a configuration error, because it asked for a different lemma.  The
canonical hash covers every resolved value, so equal hashes imply
byte-identical outputs.
"""

from __future__ import annotations

import configparser
import hashlib
from dataclasses import dataclass, field

from .constants import ConstantsConfig
from .errors import ConfigError
from .spaceform import SpaceFormModel
from .surface import RadialSurface, basis_function


@dataclass(frozen=True)
class ExperimentConfig:
    n: int = 2
    delta: float = 0.0
    r: int = 1
    rho0: float = 1.0
    perturbation: tuple = ()
    quad_order: int = 16
    amplitudes: tuple = ()
    h_fixed: float | None = None
    constants: ConstantsConfig = field(default_factory=ConstantsConfig)

    def __post_init__(self):
        if self.n not in (2, 3):
            raise ConfigError(f"surface.n must be 2 or 3, got n={self.n}")
        if not 1 <= self.r <= self.n - 1:
            raise ConfigError(f"experiment.r must lie in [1, n-1], got r={self.r}")
        if self.rho0 <= 0.0:
            raise ConfigError("surface.rho0 must be positive")
        if self.quad_order < 4:
            raise ConfigError("experiment.quad_order must be at least 4")
        if any(a2 >= a1 for a1, a2 in zip(self.amplitudes, self.amplitudes[1:])):
            raise ConfigError("experiment.amplitudes must be strictly decreasing")
        if self.h_fixed is not None and not self.h_fixed > 0.0:
            raise ConfigError(f"experiment.h must be positive, got h={self.h_fixed}")
        if self.delta > 0.0:
            import math

            limit = 2.0 / math.sqrt(self.delta)
            if self.rho0 >= 0.95 * limit:
                raise ConfigError(
                    f"surface.rho0 = {self.rho0} leaves no margin inside the chart "
                    f"(radius {limit:.6g}) of the upper half-sphere"
                )

    def model(self) -> SpaceFormModel:
        return SpaceFormModel(delta=self.delta, ambient_dim=self.n + 1)

    def surface(self) -> RadialSurface:
        return RadialSurface(n=self.n, model=self.model(), rho0=self.rho0,
                             perturbation=self.perturbation)

    def canonical_text(self) -> str:
        c = self.constants
        pert = " ".join(f"{_key_text(k)}:{a!r}" for k, a in self.perturbation)
        lines = [
            f"n={self.n}",
            f"delta={self.delta!r}",
            f"r={self.r}",
            f"rho0={self.rho0!r}",
            f"perturbation={pert}",
            f"quad_order={self.quad_order}",
            "amplitudes=" + " ".join(repr(a) for a in self.amplitudes),
            f"h_fixed={self.h_fixed!r}",
            f"eps0={c.eps0!r}",
            f"c_RS={c.c_RS!r}",
            f"alpha={c.alpha!r}",
            f"Kn_MS={c.Kn_MS!r}",
        ]
        return "\n".join(lines)

    def digest(self) -> str:
        return hashlib.sha256(self.canonical_text().encode()).hexdigest()


def _key_text(key) -> str:
    if isinstance(key, tuple):
        return f"{key[0]},{key[1]}"
    return str(key)


def _parse_perturbation(text: str, n: int) -> tuple:
    entries = []
    for chunk in text.split():
        spec, sep, amp = chunk.rpartition(":")
        if not sep:
            raise ConfigError(f"perturbation entry {chunk!r} must look like key:amplitude")
        try:
            amplitude = float(amp)
        except ValueError as exc:
            raise ConfigError(f"bad amplitude in perturbation entry {chunk!r}") from exc
        key = tuple(int(p) for p in spec.split(",")) if n == 2 else spec
        try:
            basis_function(n, key)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        entries.append((key, amplitude))
    return tuple(entries)


def load_config(path) -> ExperimentConfig:
    """Parse and validate a configuration file."""
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",))
    try:
        read = parser.read(path)
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse {path}: {exc}") from exc
    if not read:
        raise ConfigError(f"configuration file not found: {path}")

    def get(section, key, cast, default=None, required=False):
        if parser.has_option(section, key):
            raw = parser.get(section, key)
            try:
                return cast(raw)
            except (ValueError, TypeError) as exc:
                raise ConfigError(f"bad value for [{section}] {key}: {raw!r}") from exc
        if required:
            raise ConfigError(f"missing required key [{section}] {key}")
        return default

    n = get("surface", "n", int, default=2)
    delta = get("surface", "delta", float, default=0.0)
    rho0 = get("surface", "rho0", float, required=True)
    pert_text = get("surface", "perturbation", str, default="")
    perturbation = _parse_perturbation(pert_text, n) if pert_text else ()

    cfg_kwargs = dict(
        n=n, delta=delta, rho0=rho0, perturbation=perturbation,
        r=get("experiment", "r", int, default=1),
        quad_order=get("experiment", "quad_order", int, default=16),
        h_fixed=get("experiment", "h", float, default=None),
    )
    amp_text = get("experiment", "amplitudes", str, default="")
    try:
        cfg_kwargs["amplitudes"] = tuple(float(a) for a in amp_text.split())
    except ValueError as exc:
        raise ConfigError(f"bad amplitudes list: {amp_text!r}") from exc

    # the pinching-level route is the only K1; another value would silently
    # run a different lemma
    if get("constants", "K1_mode", str, default="h") != "h":
        raise ConfigError("[constants] K1_mode is removed: K1 always uses the pinching level h")
    const_kwargs = {}
    for key, cast in (("eps0", float), ("c_RS", float), ("alpha", float),
                      ("Kn_MS", float)):
        value = get("constants", key, cast, default=None)
        if value is not None:
            const_kwargs[key] = value
    try:
        cfg_kwargs["constants"] = ConstantsConfig(**const_kwargs)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    return ExperimentConfig(**cfg_kwargs)
