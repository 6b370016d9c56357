"""Command-line entry point.

Commands::

    starpinch report     --config FILE [--out DIR]   per-surface summary
    starpinch identities --config FILE [--out DIR]   residual table (CSV)
    starpinch pinch      --config FILE [--out DIR]   one stability run
    starpinch scaling    --config FILE [--out DIR]   amplitude family + regression

``--quad-order`` sets the base quadrature order; every refinement error
compares the base rule with the rule of doubled order.  It is reported,
never added to a threshold: ``identities`` exits 2 when a row's value
misses its fixed tolerance, ``pinch`` and ``scaling`` when dH exceeds an
applicable bound by more than rounding.  Every ``identities`` row, the
worst-node Gauss identity included, reads the fields the integrals read.

Exit codes: 0 success, 1 hypothesis violation, 2 numerical failure,
3 configuration error (also an unknown key or section, a number that is
nan or infinite, a nonpositive h or amplitudes that do not strictly
decrease).  Every output file starts with
a header block (config hash, constant provenance); runs with equal config
hashes produce byte-identical files.  No command draws random numbers.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np

from . import identities as ident
from .config import ExperimentConfig, load_config
from .errors import ConfigError, HypothesisError, NumericalError
from .pinch import (RunSettings, report_text, run_pinch, scaling_csv,
                    scaling_study)
from .quadrature import batch_volume, build_rule, integrate_batch
from .surface import B_sup_norm, starshape_report

EXIT_OK = 0
EXIT_HYPOTHESIS = 1
EXIT_NUMERICAL = 2
EXIT_CONFIG = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ConfigError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="starpinch", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, run, help_text):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(run=run)
        p.add_argument("--config", required=True, help="experiment configuration file")
        p.add_argument("--out", default="out", help="output directory")
        p.add_argument("--quad-order", type=int, default=None,
                       help="override the base quadrature order")

    command("report", cmd_report, "surface summary")
    command("identities", cmd_identities, "identity/inequality residuals")
    command("pinch", cmd_pinch, "single stability run")
    command("scaling", cmd_scaling, "amplitude scaling study")
    return parser


def _header(cfg: ExperimentConfig, command: str) -> list:
    c = cfg.constants
    configured = " ".join(f"{f.name}={getattr(c, f.name)!r}" for f in fields(c))
    return [
        f"starpinch {command}",
        f"config_hash: {cfg.digest()}",
        f"constants: {configured} (configured, not derived; alpha is a placeholder)",
    ]


def _settings(cfg: ExperimentConfig) -> RunSettings:
    return RunSettings(quad_order=cfg.quad_order, h_fixed=cfg.h_fixed,
                       constants=cfg.constants)


def _write(path: Path, header: list, body: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    text = "".join(f"# {line}\n" for line in header) + body
    path.write_text(text)
    print(f"wrote {path}")


def cmd_report(cfg: ExperimentConfig, out_dir: Path) -> int:
    surface = cfg.surface()
    rule = build_rule(cfg.n, cfg.quad_order)
    batch = surface.fields(rule)
    star = starshape_report(batch)
    H = batch.H
    vol = batch_volume(batch)
    lines = [
        f"n = {cfg.n}",
        f"delta = {cfg.delta!r}",
        f"starshaped_sign = {star.sign}",
        f"R0 = {star.R0!r}",
        f"R = {star.R!r}",
        f"volume = {vol!r}",
        f"B_sup = {B_sup_norm(batch)!r}",
        f"rho_min = {float(np.min(batch.rho))!r}",
        f"rho_max = {float(np.max(batch.rho))!r}",
    ]
    for k in range(1, cfg.n + 1):
        lines.append(f"H{k}_range = [{float(np.min(H[:, k]))!r}, {float(np.max(H[:, k]))!r}]")
    mean_Hr = integrate_batch(batch, H[:, cfg.r]) / vol
    eps = H[:, cfg.r] - mean_Hr
    lines.append(f"h_mean_Hr = {mean_Hr!r}")
    lines.append(f"eps_l1 = {integrate_batch(batch, np.abs(eps)) / vol!r}")
    lines.append(f"eps_linf = {float(np.max(np.abs(eps)))!r}")
    lines.append(f"eps_is_zero = {bool(np.max(np.abs(eps)) < 1e-12)}")
    _write(out_dir / "report.txt", _header(cfg, "report"), "\n".join(lines) + "\n")
    return EXIT_OK


def cmd_identities(cfg: ExperimentConfig, out_dir: Path) -> int:
    surface = cfg.surface()
    rule = build_rule(cfg.n, cfg.quad_order)
    reports = [ident.hsiung_minkowski_residual(surface, k, rule) for k in range(cfg.n)]
    reports.append(ident.cauchy_schwarz_chain_check(surface, rule))
    reports.append(ident.michael_simon_ratio(surface, rule, cfg.constants.Kn_MS))
    reports.append(ident.gauss_algebraic_check(surface, rule))
    reports = [replace(rep, name=f"{rep.name}_order{cfg.quad_order}") for rep in reports]
    _write(out_dir / "identities.csv", _header(cfg, "identities"),
           ident.residual_table(reports))
    if not all(r.passed for r in reports):
        failed = [r.name for r in reports if not r.passed]
        print(f"identity checks failed: {', '.join(failed)}", file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_OK


def cmd_pinch(cfg: ExperimentConfig, out_dir: Path) -> int:
    report = run_pinch(cfg.surface(), cfg.r, _settings(cfg))
    _write(out_dir / "pinch.txt", _header(cfg, "pinch"), report_text(report))
    return EXIT_OK


def cmd_scaling(cfg: ExperimentConfig, out_dir: Path) -> int:
    if not cfg.amplitudes:
        raise ConfigError("scaling requires [experiment] amplitudes")
    study = scaling_study(cfg.surface(), cfg.amplitudes, cfg.r, _settings(cfg))
    _write(out_dir / "scaling.csv", _header(cfg, "scaling"), scaling_csv(study))
    return EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        cfg = load_config(args.config)
        if args.quad_order is not None:
            cfg = replace(cfg, quad_order=args.quad_order)
        return args.run(cfg, Path(args.out))
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except HypothesisError as exc:
        print(f"hypothesis violation: {exc}", file=sys.stderr)
        return EXIT_HYPOTHESIS
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
