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
from .pinch import RunSettings, report_text, run_pinch, scaling_csv, scaling_study
from .quadrature import batch_volume, build_rule
# integrate_batch stays importable here: bench/tracing.py wraps it at this name
from .quadrature import integrate_batch  # noqa: F401
from .surface import starshape_report

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
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", required=True, help="experiment configuration file")
    parser.add_argument("--out", default="out", help="output directory")
    parser.add_argument("--quad-order", type=int, default=None,
                        help="override the base quadrature order")
    return parser


def _header(cfg: ExperimentConfig, command: str) -> list:
    c = cfg.constants
    configured = " ".join(f"{f.name}={getattr(c, f.name)!r}" for f in fields(c))
    notes = "".join(f"; {f.name} is a placeholder" for f in fields(c)
                    if f.metadata.get("placeholder"))
    return [
        f"starpinch {command}",
        f"config_hash: {cfg.digest()}",
        f"constants: {configured} (configured, not derived{notes})",
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
    batch = cfg.surface().fields(build_rule(cfg.n, cfg.quad_order))
    star = starshape_report(batch)
    H = batch.H
    mean_Hr = ident.batch_mean(batch, H[:, cfg.r])
    eps = np.abs(H[:, cfg.r] - mean_Hr)
    values = {
        "n": cfg.n, "delta": cfg.delta, "starshaped_sign": star.sign,
        "R0": star.R0, "R": star.R, "volume": batch_volume(batch), "B_sup": batch.B_sup,
        "rho_min": float(np.min(batch.rho)), "rho_max": float(np.max(batch.rho)),
        **{f"H{k}_range": [float(np.min(H[:, k])), float(np.max(H[:, k]))]
           for k in range(1, cfg.n + 1)},
        "h_mean_Hr": mean_Hr,
        "eps_l1": ident.batch_mean(batch, eps),
        "eps_linf": float(np.max(eps)),
        # relative to |h|: a tiny exact sphere misses an absolute 1e-12 by one ulp of h
        "eps_is_zero": bool(np.max(eps) <= 1e-12 * abs(mean_Hr)),
    }
    body = "".join(f"{name} = {value!r}\n" for name, value in values.items())
    _write(out_dir / "report.txt", _header(cfg, "report"), body)
    return EXIT_OK


def cmd_identities(cfg: ExperimentConfig, out_dir: Path) -> int:
    surface = cfg.surface()
    rule = build_rule(cfg.n, cfg.quad_order)
    reports = [replace(rep, name=f"{rep.name}_order{cfg.quad_order}")
               for rep in ident.residuals(surface, rule, cfg.constants.Kn_MS)]
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


COMMANDS = {"report": cmd_report, "identities": cmd_identities, "pinch": cmd_pinch,
            "scaling": cmd_scaling}


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        cfg = load_config(args.config)
        if args.quad_order is not None:
            cfg = replace(cfg, quad_order=args.quad_order)
        return COMMANDS[args.command](cfg, Path(args.out))
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
