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

n is 2 or 3, the dimensions the surfaces support.  Every number is
finite: nan and infinities are configuration errors.  All keys have
defaults except the surface geometry.  Keys match case-insensitively, and
an unknown section or key is a configuration error.  Retired keys load as
before: [constants] c_n, b_consts and calibration_file and [experiment]
seed and quad_order_check are ignored (c_n is exact and every b-constant
is 1 at n = 2, 3; no command draws random numbers; the check rule is of
order 2 * quad_order), and [constants] K1_mode = h loads like a file
without the key, while any other value is an error: K1 always uses the
pinching level h.  The canonical hash covers every resolved value, so
equal hashes imply byte-identical outputs.
"""

from __future__ import annotations

import configparser
import hashlib
import math
from dataclasses import dataclass, field, fields

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
        if not 0.0 < self.rho0 < math.inf:  # nan fails both comparisons
            raise ConfigError(f"surface.rho0 must be positive and finite, got {self.rho0}")
        if not math.isfinite(self.delta):
            raise ConfigError(f"surface.delta must be finite, got {self.delta}")
        if self.quad_order < 4:
            raise ConfigError("experiment.quad_order must be at least 4")
        if any(a2 >= a1 for a1, a2 in zip(self.amplitudes, self.amplitudes[1:])):
            raise ConfigError("experiment.amplitudes must be strictly decreasing")
        if self.h_fixed is not None and not self.h_fixed > 0.0:
            raise ConfigError(f"experiment.h must be positive, got h={self.h_fixed}")
        limit = 2.0 / math.sqrt(abs(self.delta)) if self.delta else math.inf  # chart radius
        if self.delta > 0.0 and self.rho0 >= 0.95 * limit:
            raise ConfigError(f"surface.rho0 = {self.rho0} leaves no margin inside the chart "
                              f"(radius {limit:.6g}) of the upper half-sphere")
        if self.rho0 >= limit:  # a hyperbolic base sphere outside the conformal ball
            raise ConfigError(f"surface.rho0 = {self.rho0} lies outside the conformal ball "
                              f"(radius {limit:.6g})")

    def model(self) -> SpaceFormModel:
        return SpaceFormModel(delta=self.delta, ambient_dim=self.n + 1)

    def surface(self) -> RadialSurface:
        return RadialSurface(n=self.n, model=self.model(), rho0=self.rho0,
                             perturbation=self.perturbation)

    def canonical_text(self) -> str:
        """One name=value line per field, the constants' fields in place of ``constants``."""
        c = self.constants
        items = [(f.name, getattr(self, f.name)) for f in fields(self) if f.name != "constants"]
        items += [(f.name, getattr(c, f.name)) for f in fields(c)]
        return "\n".join(f"{name}={_value_text(value)}" for name, value in items)

    def digest(self) -> str:
        return hashlib.sha256(self.canonical_text().encode()).hexdigest()


def _value_text(value) -> str:
    """repr, with tuples space-separated and (key, amplitude) entries as key:amplitude."""
    if not isinstance(value, tuple):
        return repr(value)
    return " ".join(f"{_key_text(v[0])}:{v[1]!r}" if isinstance(v, tuple) else repr(v)
                    for v in value)


def _key_text(key) -> str:
    if isinstance(key, tuple):
        return f"{key[0]},{key[1]}"
    return str(key)


def _finite(text: str) -> float:
    """float(text), refusing nan and infinities."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"{text!r} is not a finite number")
    return value


def _parse_perturbation(text: str, n: int) -> tuple:
    entries = []
    for chunk in text.split():
        spec, sep, amp = chunk.rpartition(":")
        if not sep:
            raise ConfigError(f"perturbation entry {chunk!r} must look like key:amplitude")
        try:
            amplitude = _finite(amp)
        except ValueError as exc:
            raise ConfigError(f"bad amplitude in perturbation entry {chunk!r}") from exc
        try:
            key = tuple(int(p) for p in spec.split(",")) if n == 2 else spec
            basis_function(n, key)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        entries.append((key, amplitude))
    return tuple(entries)


# [section] key -> (field, parser); the perturbation text is parsed once n is known
_KEYS = {
    ("surface", "n"): ("n", int),
    ("surface", "delta"): ("delta", _finite),
    ("surface", "rho0"): ("rho0", _finite),
    ("surface", "perturbation"): ("perturbation", str),
    ("experiment", "r"): ("r", int),
    ("experiment", "quad_order"): ("quad_order", int),
    ("experiment", "h"): ("h_fixed", _finite),
    ("experiment", "amplitudes"): ("amplitudes", lambda text: tuple(map(_finite, text.split()))),
    **{("constants", f.name): (f.name, _finite) for f in fields(ConstantsConfig)},
}

# keys of earlier versions -> the one value that still loads (None: any value)
_RETIRED = {
    ("constants", "c_n"): None,
    ("constants", "b_consts"): None,
    ("constants", "calibration_file"): None,
    ("constants", "K1_mode"): "h",
    ("experiment", "seed"): None,
    ("experiment", "quad_order_check"): None,
}

# configparser lowercases keys; this finds their table spelling
_SPELLING = {(section, key.lower()): (section, key) for section, key in [*_KEYS, *_RETIRED]}


def load_config(path) -> ExperimentConfig:
    """Parse and validate a configuration file."""
    # with no default section, [DEFAULT] is an unknown section like any other
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",), default_section="")
    try:
        read = parser.read(path)
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse {path}: {exc}") from exc
    if not read:
        raise ConfigError(f"configuration file not found: {path}")

    def get(section, key):  # interpolation stays on, so %% reads %
        try:
            return parser.get(section, key)
        except configparser.InterpolationError as exc:
            raise ConfigError(f"[{section}] {_SPELLING[section, key][1]}: {exc}") from exc

    values = {}
    for section in parser.sections():
        if not any(known == section for known, _ in _SPELLING):
            raise ConfigError(f"unknown section [{section}]")
        for key in parser.options(section):
            spelled = _SPELLING.get((section, key))
            if spelled is None:
                raise ConfigError(f"unknown key [{section}] {key}")
            if spelled in _RETIRED:  # ignored, or read when only one value still loads
                keep = _RETIRED[spelled]
                if keep is not None and get(section, key) != keep:
                    raise ConfigError(f"[{section}] {spelled[1]} is removed: "
                                      f"only {spelled[1]} = {keep} still loads")
                continue
            raw = get(section, key)
            name, parse = _KEYS[spelled]
            try:
                values[name] = parse(raw)
            except (ValueError, TypeError) as exc:
                raise ConfigError(f"bad value for [{section}] {spelled[1]}: {raw!r}") from exc
    if "rho0" not in values:
        raise ConfigError("missing required key [surface] rho0")
    values["perturbation"] = _parse_perturbation(values.get("perturbation", ""),
                                                 values.get("n", ExperimentConfig.n))
    try:
        constants = ConstantsConfig(**{f.name: values.pop(f.name)
                                       for f in fields(ConstantsConfig) if f.name in values})
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return ExperimentConfig(**values, constants=constants)
