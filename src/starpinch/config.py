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
    seed = 7
    amplitudes = 0.08 0.04 0.02 0.01    # scaling command only

    [constants]
    eps0 = 0.1
    c_RS = 1.0
    alpha = 0.5
    Kn_MS = 1.0
    K1_mode = h
    c_n = 0.45                          # optional; default is calibrated
    b_consts = 1.0 1.0                  # optional
    calibration_file = path             # optional; overrides c_n/b_consts

All keys have defaults except the surface geometry, and keys the parser
does not know are ignored.  The canonical hash covers every resolved
value, so equal hashes imply byte-identical outputs.
"""

from __future__ import annotations

import configparser
import hashlib
from dataclasses import dataclass, field

from .constants import ConstantsConfig
from .errors import ConfigError
from .spaceform import SpaceFormModel
from .surface import RadialSurface, basis_function
from .symfun import read_calibration


@dataclass(frozen=True)
class ExperimentConfig:
    n: int = 2
    delta: float = 0.0
    r: int = 1
    rho0: float = 1.0
    perturbation: tuple = ()
    quad_order: int = 16
    seed: int = 0
    amplitudes: tuple = ()
    h_fixed: float | None = None
    constants: ConstantsConfig = field(default_factory=ConstantsConfig)

    def __post_init__(self):
        if self.n < 2:
            raise ConfigError("surface.n must be at least 2")
        if not 1 <= self.r <= self.n - 1:
            raise ConfigError(f"experiment.r must lie in [1, n-1], got r={self.r}")
        if self.rho0 <= 0.0:
            raise ConfigError("surface.rho0 must be positive")
        if self.quad_order < 4:
            raise ConfigError("experiment.quad_order must be at least 4")
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
            f"seed={self.seed}",
            "amplitudes=" + " ".join(repr(a) for a in self.amplitudes),
            f"h_fixed={self.h_fixed!r}",
            f"eps0={c.eps0!r}",
            f"c_RS={c.c_RS!r}",
            f"alpha={c.alpha!r}",
            f"Kn_MS={c.Kn_MS!r}",
            f"c_n={c.c_n!r}",
            f"b_consts={c.b_consts!r}",
            f"K1_mode={c.K1_mode}",
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
        seed=get("experiment", "seed", int, default=0),
        h_fixed=get("experiment", "h", float, default=None),
    )
    amp_text = get("experiment", "amplitudes", str, default="")
    try:
        cfg_kwargs["amplitudes"] = tuple(float(a) for a in amp_text.split())
    except ValueError as exc:
        raise ConfigError(f"bad amplitudes list: {amp_text!r}") from exc

    const_kwargs = {}
    for key, cast in (("eps0", float), ("c_RS", float), ("alpha", float),
                      ("Kn_MS", float), ("c_n", float), ("K1_mode", str)):
        value = get("constants", key, cast, default=None)
        if value is not None:
            const_kwargs[key] = value
    b_text = get("constants", "b_consts", str, default=None)
    if b_text is not None:
        try:
            const_kwargs["b_consts"] = tuple(float(x) for x in b_text.split())
        except ValueError as exc:
            raise ConfigError(f"bad b_consts list: {b_text!r}") from exc
    cal_path = get("constants", "calibration_file", str, default=None)
    if cal_path is not None:
        try:
            cal = read_calibration(cal_path)
        except OSError as exc:
            raise ConfigError(f"cannot read calibration file {cal_path}: {exc}") from exc
        const_kwargs.setdefault("c_n", cal.c_n)
        const_kwargs.setdefault("b_consts", cal.b_consts)
    try:
        cfg_kwargs["constants"] = ConstantsConfig(**const_kwargs)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    return ExperimentConfig(**cfg_kwargs)
