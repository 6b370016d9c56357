"""Command-line entry point.

Commands::

    starpinch report     --config FILE [--out DIR]   per-surface summary
    starpinch identities --config FILE [--out DIR]   residual table (CSV)
    starpinch pinch      --config FILE [--out DIR]   one stability run
    starpinch scaling    --config FILE [--out DIR]   amplitude family + regression
    starpinch calibrate  --n N --r R [--samples S] [--seed S] [--out DIR]

``--quad-order`` sets the base quadrature order; every refinement error
compares the base rule with the rule of doubled order.

Exit codes: 0 success, 1 hypothesis violation, 2 numerical failure,
3 configuration error.  Every output file starts with a header block
(config hash, seed, constant provenance); runs with equal config hashes
produce byte-identical files.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import identities as ident
from .config import ExperimentConfig, load_config
from .constants import describe
from .errors import ConfigError, HypothesisError, NumericalError, StarpinchError
from .pinch import (RunSettings, report_text, run_pinch, scaling_csv,
                    scaling_study)
from .quadrature import build_rule, integrate_batch
from .surface import starshape_report
from .symfun import calibrate, write_calibration

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

    def common(p):
        p.add_argument("--config", required=True, help="experiment configuration file")
        p.add_argument("--out", default="out", help="output directory")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--quad-order", type=int, default=None,
                       help="override the base quadrature order")

    common(sub.add_parser("report", help="surface summary"))
    p_ident = sub.add_parser("identities", help="identity/inequality residuals")
    common(p_ident)
    p_ident.add_argument("--order-sweep", action="store_true",
                         help="emit residuals for a sequence of quadrature orders")
    common(sub.add_parser("pinch", help="single stability run"))
    common(sub.add_parser("scaling", help="amplitude scaling study"))

    p_cal = sub.add_parser("calibrate", help="calibrate c_n and b-constants")
    p_cal.add_argument("--n", type=int, required=True)
    p_cal.add_argument("--r", type=int, required=True)
    p_cal.add_argument("--samples", type=int, default=100_000)
    p_cal.add_argument("--seed", type=int, default=31415)
    p_cal.add_argument("--margin", type=float, default=0.1)
    p_cal.add_argument("--out", default="out")
    return parser


def _resolve(args) -> ExperimentConfig:
    cfg = load_config(args.config)
    updates = {}
    if args.seed is not None:
        updates["seed"] = args.seed
    if getattr(args, "quad_order", None) is not None:
        updates["quad_order"] = args.quad_order
    if updates:
        from dataclasses import replace

        cfg = replace(cfg, **updates)
    return cfg


def _header(cfg: ExperimentConfig, command: str) -> list:
    c = cfg.constants
    return [
        f"starpinch {command}",
        f"config_hash: {cfg.digest()}",
        f"seed: {cfg.seed}",
        f"constants: eps0={c.eps0!r} c_RS={c.c_RS!r} alpha={c.alpha!r} "
        f"Kn_MS={c.Kn_MS!r} c_n={c.c_n!r} K1_mode={c.K1_mode} "
        "(configured, not derived; alpha is a placeholder)",
    ]


def _settings(cfg: ExperimentConfig) -> RunSettings:
    return RunSettings(quad_order=cfg.quad_order, seed=cfg.seed,
                       h_fixed=cfg.h_fixed, constants=cfg.constants)


def _write(path: Path, header: list, body: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    text = "".join(f"# {line}\n" for line in header) + body
    path.write_text(text)
    print(f"wrote {path}")


def cmd_report(cfg: ExperimentConfig, out_dir: Path) -> int:
    surface = cfg.surface()
    rule = build_rule(cfg.n, cfg.quad_order)
    batch = surface.fields(rule)
    star = starshape_report(surface, rule)
    H = batch.mean_curvature_orders()
    vol = integrate_batch(batch, np.ones(len(batch.rho)), rule)
    lines = [
        f"n = {cfg.n}",
        f"delta = {cfg.delta!r}",
        f"starshaped_sign = {star.sign}",
        f"R0 = {star.R0!r}",
        f"R = {star.R!r}",
        f"volume = {vol!r}",
        f"B_sup = {float(np.max(np.abs(batch.kappa)))!r}",
        f"rho_min = {float(np.min(batch.rho))!r}",
        f"rho_max = {float(np.max(batch.rho))!r}",
    ]
    for k in range(1, cfg.n + 1):
        lines.append(f"H{k}_range = [{float(np.min(H[:, k]))!r}, {float(np.max(H[:, k]))!r}]")
    mean_Hr = integrate_batch(batch, H[:, cfg.r], rule) / vol
    eps = H[:, cfg.r] - mean_Hr
    lines.append(f"h_mean_Hr = {mean_Hr!r}")
    lines.append(f"eps_l1 = {integrate_batch(batch, np.abs(eps), rule) / vol!r}")
    lines.append(f"eps_linf = {float(np.max(np.abs(eps)))!r}")
    lines.append(f"eps_is_zero = {bool(np.max(np.abs(eps)) < 1e-12)}")
    _write(out_dir / "report.txt", _header(cfg, "report"), "\n".join(lines) + "\n")
    return EXIT_OK


def cmd_identities(cfg: ExperimentConfig, out_dir: Path, order_sweep: bool = False) -> int:
    surface = cfg.surface()
    orders = [cfg.quad_order]
    if order_sweep:
        orders = [max(cfg.quad_order // 4, 4), max(cfg.quad_order // 2, 4), cfg.quad_order]
    reports = []
    for order in orders:
        rule = build_rule(cfg.n, order)
        for k in range(cfg.n):
            rep = ident.hsiung_minkowski_residual(surface, k, rule)
            reports.append(_tag(rep, f"order{order}"))
        reports.append(_tag(ident.cauchy_schwarz_chain_check(surface, rule), f"order{order}"))
        reports.append(_tag(ident.michael_simon_ratio(surface, rule, cfg.constants.Kn_MS),
                            f"order{order}"))
        point_rep = ident.gauss_algebraic_check(_worst_gauss_point(surface, rule))
        reports.append(_tag(point_rep, f"order{order}"))
    _write(out_dir / "identities.csv", _header(cfg, "identities"),
           ident.residual_table(reports))
    if not all(r.passed for r in reports):
        failed = [r.name for r in reports if not r.passed]
        print(f"identity checks failed: {', '.join(failed)}", file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_OK


def _worst_gauss_point(surface, rule):
    batch = surface.fields(rule)
    return batch.point(int(np.argmax(batch.tau_norm_sq())))


def _tag(report, suffix):
    from dataclasses import replace

    return replace(report, name=f"{report.name}_{suffix}")


def cmd_pinch(cfg: ExperimentConfig, out_dir: Path) -> int:
    report = run_pinch(cfg.surface(), cfg.r, _settings(cfg))
    _write(out_dir / "pinch.txt", _header(cfg, "pinch"), report_text(report))
    return EXIT_OK


def cmd_scaling(cfg: ExperimentConfig, out_dir: Path) -> int:
    if not cfg.amplitudes:
        raise ConfigError("scaling requires [experiment] amplitudes")
    study = scaling_study(cfg.surface(), cfg.amplitudes, cfg.r, _settings(cfg))
    body = scaling_csv(study)
    _write(out_dir / "scaling.csv", _header(cfg, "scaling"), body)
    return EXIT_OK


def cmd_calibrate(n: int, r: int, samples: int, seed: int, margin: float,
                  out_dir: Path) -> int:
    if samples < 10_000:
        raise ConfigError("calibration needs at least 10000 samples")
    cal = calibrate(n, r, samples=samples, seed=seed, margin=margin)
    if not np.isfinite(cal.c_n) or cal.c_n <= 0.0:
        raise NumericalError("calibration produced a degenerate c_n")
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"calibration_n{n}_r{r}.txt"
    write_calibration(cal, path)
    print(f"wrote {path}")
    return EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        out_dir = Path(args.out)
        if args.command == "calibrate":
            return cmd_calibrate(args.n, args.r, args.samples, args.seed,
                                 args.margin, out_dir)
        cfg = _resolve(args)
        if args.command == "report":
            return cmd_report(cfg, out_dir)
        if args.command == "identities":
            return cmd_identities(cfg, out_dir, order_sweep=args.order_sweep)
        if args.command == "pinch":
            return cmd_pinch(cfg, out_dir)
        if args.command == "scaling":
            return cmd_scaling(cfg, out_dir)
        raise ConfigError(f"unknown command {args.command!r}")
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except HypothesisError as exc:
        print(f"hypothesis violation: {exc}", file=sys.stderr)
        return EXIT_HYPOTHESIS
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except StarpinchError as exc:  # pragma: no cover - safety net
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
