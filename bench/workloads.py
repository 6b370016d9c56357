"""The three workloads: fixed inputs, the operations of one pass, checks.

No random seed enters the inputs: every surface, amplitude, order and
curvature sign is fixed below.  Each pass builds fresh ``RadialSurface``
objects (``scaling_study`` and the CLI build their own), so the
per-surface ``fields`` cache never carries over between passes.  The
library is always reached through a module attribute looked up at call
time (``starpinch.run_pinch``, ``starpinch.cli.main``), the names the
tracer wraps.
"""

from __future__ import annotations

import contextlib
import io
from pathlib import Path

import starpinch
import starpinch.cli
from starpinch import ConstantsConfig, RadialSurface, RunSettings, SpaceFormModel

import checks

DELTAS = (-1.0, 0.0, 1.0)
# the acceptance suite's black-box constants, generous enough that the
# smallness gate holds at desk-scale amplitudes
CONSTANTS = ConstantsConfig(eps0=10.0)


def radial_surface(n: int, delta: float, rho0: float, perturbation=()) -> RadialSurface:
    model = SpaceFormModel(delta=delta, ambient_dim=n + 1)
    return RadialSurface(n=n, model=model, rho0=rho0, perturbation=perturbation)


class ScalingN2:
    """scaling_study of the n=2 harmonic (3,1) family, one study per delta."""

    name = "scaling-n2"
    dims = (2,)
    amplitudes = (0.08, 0.04, 0.02, 0.01)
    settings = RunSettings(quad_order=16, constants=CONSTANTS)

    def prepare(self, out_dir: Path) -> None:
        # scaling_study builds a fresh surface for every amplitude, so the
        # bases' own caches are never filled
        self.bases = {delta: radial_surface(2, delta, 1.0, (((3, 1), 1.0),))
                      for delta in DELTAS}

    def operations(self) -> list:
        return [(f"scaling delta={delta:+.0f}",
                 lambda base=base: starpinch.scaling_study(base, self.amplitudes, 1,
                                                           self.settings))
                for delta, base in self.bases.items()]

    def check(self, outputs: dict) -> dict:
        return {name: checks.scaling_problems(out.rows) for name, out in outputs.items()}


class PinchN3:
    """run_pinch on the n=3 surface u1u2:0.04, one run per delta."""

    name = "pinch-n3"
    dims = (3,)
    settings = RunSettings(quad_order=12, constants=CONSTANTS)

    def prepare(self, out_dir: Path) -> None:
        pass

    def operations(self) -> list:
        def pinch(delta):
            surface = radial_surface(3, delta, 0.9, (("u1u2", 0.04),))
            return starpinch.run_pinch(surface, 2, self.settings)
        return [(f"pinch delta={delta:+.0f}", lambda d=delta: pinch(d)) for delta in DELTAS]

    def check(self, outputs: dict) -> dict:
        return {name: checks.pinch_problems(out) for name, out in outputs.items()}


# (n, rho0, perturbation in config syntax, lower order, higher order)
IDENTITY_SURFACES = (
    (2, 1.0, "3,1:0.12 2,0:0.06", 16, 32),
    (3, 0.9, "u1u2:0.08 u1^2-u4^2:0.04", 8, 16),
)


class Identities:
    """`starpinch identities` in-process on six configs, each at two orders."""

    name = "identities"
    dims = (2, 3)

    def prepare(self, out_dir: Path) -> None:
        """Write the config files; remember where each call writes its CSV."""
        self.calls = []  # (name, n, argv, csv path, lower-order call name or None)
        self.reference = {}  # call name -> CSV bytes of the first pass
        for n, rho0, perturbation, lo, hi in IDENTITY_SURFACES:
            for delta in DELTAS:
                stem = f"n{n}_delta{delta:+.0f}"
                config = out_dir / f"{stem}.ini"
                config.parent.mkdir(parents=True, exist_ok=True)
                config.write_text(
                    f"[surface]\nn = {n}\ndelta = {delta!r}\nrho0 = {rho0!r}\n"
                    f"perturbation = {perturbation}\n\n[experiment]\nr = 1\n")
                coarse = None
                for order in (lo, hi):
                    name = f"{stem} q={order}"
                    csv_dir = out_dir / f"{stem}_q{order}"
                    argv = ["identities", "--config", str(config), "--out", str(csv_dir),
                            "--quad-order", str(order)]
                    self.calls.append((name, n, argv, csv_dir / "identities.csv", coarse))
                    coarse = name

    def operations(self) -> list:
        def identities(argv, csv_path):
            with contextlib.redirect_stdout(io.StringIO()):
                code = starpinch.cli.main(argv)
            return code, csv_path.read_bytes()
        return [(name, lambda a=argv, p=path: identities(a, p))
                for name, _, argv, path, _ in self.calls]

    def check(self, outputs: dict) -> dict:
        problems = {}
        for name, n, _, _, coarse in self.calls:
            if name not in outputs:
                continue
            code, data = outputs[name]
            residuals = checks.parse_identities_csv(data.decode())
            found = checks.identity_problems(n, code, residuals)
            if coarse in outputs:
                found += checks.decay_problems(
                    n, checks.parse_identities_csv(outputs[coarse][1].decode()), residuals)
            if self.reference.setdefault(name, data) != data:
                found.append("CSV differs from the first pass")
            problems[name] = found
        return problems


WORKLOADS = {wl.name: wl for wl in (ScalingN2(), PinchN3(), Identities())}


# ---------------------------------------------------------------------------
# known answers, once per run and outside the timed passes


class KnownAnswers:
    """run_pinch on the unperturbed sphere of chart radius 1, each n and delta."""

    cases = tuple((n, order, delta) for n, order in ((2, 16), (3, 8)) for delta in DELTAS)

    def operations(self) -> list:
        def sphere(n, order, delta):
            surface = radial_surface(n, delta, 1.0)
            report = starpinch.run_pinch(surface, 1, RunSettings(quad_order=order,
                                                                 constants=CONSTANTS))
            return delta, report, surface.fields(starpinch.build_rule(n, order)).kappa
        return [(f"sphere n={n} q={order} delta={delta:+.0f}",
                 lambda c=(n, order, delta): sphere(*c)) for n, order, delta in self.cases]

    def check(self, outputs: dict) -> dict:
        return {name: checks.known_answer_problems(delta, rep.rho0, rep.sphere_center,
                                                   rep.dH, kappa)
                for name, (delta, rep, kappa) in outputs.items()}
