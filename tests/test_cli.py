"""Command-line interface: config parsing, commands, exit codes, determinism."""

import dataclasses
import itertools
import json
import math
import os
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import starpinch
from starpinch import cli
from starpinch import config as config_module
from starpinch import surface as surface_module
from starpinch.cli import main
from starpinch.config import ExperimentConfig, load_config
from starpinch.constants import ConstantsConfig
from starpinch.errors import ConfigError
from starpinch.pinch import PinchReport, RunSettings, report_text, run_pinch

ROOT = Path(__file__).resolve().parents[1]

GOOD_CONFIG = textwrap.dedent("""\
    [surface]
    n = 2
    delta = -1.0
    rho0 = 1.0
    perturbation = 3,1:0.04 2,0:0.02

    [experiment]
    r = 1
    quad_order = 12
    amplitudes = 0.06 0.03 0.015

    [constants]
    eps0 = 10.0
""")

SPHERE_CONFIG = textwrap.dedent("""\
    [surface]
    n = 2
    delta = 0.0
    rho0 = 1.5

    [experiment]
    quad_order = 8
""")

# the n = 2 and n = 3 surfaces of the constant-chain range tests
CHAIN_N2 = textwrap.dedent("""\
    [surface]
    n = 2
    delta = 1.0
    rho0 = 1.0
    perturbation = 3,1:0.04 2,0:0.02

    [experiment]
    r = 1
    quad_order = 16
    amplitudes = 0.08 0.04 0.02

    [constants]
""")

CHAIN_N3 = textwrap.dedent("""\
    [surface]
    n = 3
    delta = -1.0
    rho0 = 0.9
    perturbation = u1u2:0.04 u1^2-u4^2:0.02

    [experiment]
    r = 2
    quad_order = 12
    amplitudes = 0.04 0.02

    [constants]
    eps0 = 10.0
""")


@pytest.fixture
def config_file(tmp_path):
    path = tmp_path / "exp.ini"
    path.write_text(GOOD_CONFIG)
    return path


class TestConfig:
    def test_round_trip(self, config_file):
        cfg = load_config(config_file)
        assert cfg.n == 2 and cfg.delta == -1.0 and cfg.r == 1
        assert cfg.perturbation == (((3, 1), 0.04), ((2, 0), 0.02))
        assert cfg.amplitudes == (0.06, 0.03, 0.015)
        assert cfg.constants.eps0 == 10.0

    def test_digest_stable_and_sensitive(self, config_file, tmp_path):
        cfg = load_config(config_file)
        assert cfg.digest() == load_config(config_file).digest()
        other = tmp_path / "other.ini"
        other.write_text(GOOD_CONFIG.replace("quad_order = 12", "quad_order = 14"))
        assert load_config(other).digest() != cfg.digest()

    def test_digest_covers_every_field(self):
        base = ExperimentConfig(n=3, delta=-1.0, r=1, rho0=0.9, perturbation=(("u1u2", 0.04),),
                                quad_order=12, amplitudes=(0.06, 0.03))
        changed = {"n": 2, "delta": 0.5, "r": 2, "rho0": 1.0,
                   "perturbation": (("u1u2", 0.05),), "quad_order": 14,
                   "amplitudes": (0.06, 0.02), "h_fixed": 0.5}
        changed_constants = {"eps0": 10.0, "c_RS": 2.0, "alpha": 0.25, "Kn_MS": 2.0}
        names = {f.name for f in dataclasses.fields(ExperimentConfig)}
        assert set(changed) | {"constants"} == names
        assert set(changed_constants) == {f.name for f in dataclasses.fields(ConstantsConfig)}
        variants = [dataclasses.replace(base, **{name: value}) for name, value in changed.items()]
        variants += [dataclasses.replace(base, constants=dataclasses.replace(
            base.constants, **{name: value})) for name, value in changed_constants.items()]
        for variant in variants:
            assert variant != base and variant.digest() != base.digest(), variant

    def test_former_k1_route_key(self, config_file, tmp_path, capsys):
        # the pinching-level K1 is the only one: "h" is the run without the key,
        # any other value would silently run a different lemma
        same = tmp_path / "h.ini"
        same.write_text(GOOD_CONFIG + "K1_mode = h\n")
        assert load_config(same) == load_config(config_file)
        assert load_config(same).digest() == load_config(config_file).digest()
        other = tmp_path / "other.ini"
        other.write_text(GOOD_CONFIG + "K1_mode = Hr+1\n")
        assert main(["pinch", "--config", str(other), "--out", str(tmp_path / "out")]) == 3
        assert "K1_mode" in capsys.readouterr().err

    def test_missing_rho0(self, tmp_path):
        p = tmp_path / "bad.ini"
        p.write_text("[surface]\nn = 2\n")
        with pytest.raises(ConfigError):
            load_config(p)

    def test_bad_r_range(self, tmp_path):
        p = tmp_path / "bad.ini"
        p.write_text("[surface]\nn = 2\nrho0 = 1.0\n[experiment]\nr = 2\n")
        with pytest.raises(ConfigError):
            load_config(p)

    @pytest.mark.parametrize("name, value", [("rho0", float("nan")), ("rho0", float("inf")),
                                             ("delta", float("nan")), ("delta", float("inf")),
                                             ("delta", float("-inf"))])
    def test_non_finite_rho0_or_delta(self, name, value):
        with pytest.raises(ConfigError, match=f"surface.{name} must be .*finite"):
            ExperimentConfig(**{name: value})

    def test_spherical_chart_margin(self, tmp_path):
        p = tmp_path / "bad.ini"
        p.write_text("[surface]\nn = 2\ndelta = 1.0\nrho0 = 1.95\n")
        with pytest.raises(ConfigError):
            load_config(p)

    def test_hyperbolic_base_sphere_outside_the_ball(self, tmp_path, capsys):
        # used to exit 1 as "point outside the conformal ball"; there is no margin, so
        # the geodesic sphere of radius 10 (rho0 = 2 tanh 5) still runs
        p = tmp_path / "bad.ini"
        p.write_text("[surface]\nn = 2\ndelta = -1.0\nrho0 = 9.9\n")
        assert main(["report", "--config", str(p), "--out", str(tmp_path / "out")]) == 3
        assert capsys.readouterr().err.startswith("configuration error: surface.rho0 = 9.9 ")
        with pytest.raises(ConfigError, match="surface.rho0"):
            ExperimentConfig(n=2, delta=-1.0, rho0=2.0)
        p.write_text(f"[surface]\nn = 2\ndelta = -1.0\nrho0 = {2.0 * math.tanh(5.0)!r}\n\n"
                     "[experiment]\nr = 1\nquad_order = 8\n")
        assert main(["pinch", "--config", str(p), "--out", str(tmp_path / "out")]) == 0

    def test_former_constant_keys_give_the_exact_constant_run(self, tmp_path):
        # c_n is exact and the b-constants are 1, so old files load unchanged
        base = tmp_path / "n3.ini"
        base.write_text("[surface]\nn = 3\ndelta = -1.0\nrho0 = 0.9\n"
                        "perturbation = u1u2:0.03\n\n[experiment]\nr = 2\nquad_order = 6\n\n"
                        "[constants]\neps0 = 10.0\n")
        old = tmp_path / "old.ini"
        old.write_text(base.read_text() + "c_n = 0.3\nb_consts = 0.5 0.5\n"
                       "calibration_file = " + str(tmp_path / "missing.txt") + "\n")
        assert load_config(old) == load_config(base)
        assert load_config(old).digest() == load_config(base).digest()
        out = tmp_path / "out"
        assert main(["pinch", "--config", str(old), "--out", str(out)]) == 0
        ledger = [l for l in (out / "pinch.txt").read_text().splitlines()
                  if l.startswith("depends_on:")]
        assert len(ledger) == 1 and " c_n=0.125 " in ledger[0]

    def test_bad_perturbation_entry(self, tmp_path):
        p = tmp_path / "bad.ini"
        p.write_text("[surface]\nn = 2\nrho0 = 1.0\nperturbation = 9,9:0.1\n")
        with pytest.raises(ConfigError):
            load_config(p)

    def test_n2_perturbation_key_that_is_not_l_m(self, tmp_path):
        # the int() parse of "u1u2" used to escape as a ValueError
        p = tmp_path / "bad.ini"
        p.write_text("[surface]\nn = 2\nrho0 = 1.0\nperturbation = u1u2:0.1\n")
        with pytest.raises(ConfigError, match="u1u2"):
            load_config(p)

    @pytest.mark.parametrize("text, named", [
        (GOOD_CONFIG.replace("eps0 = 10.0", "esp0 = 10.0"), "[constants] esp0"),
        (GOOD_CONFIG.replace("[constants]", "[constant]"), "[constant]"),
        ("[DEFAULT]\neps0 = 10.0\n" + GOOD_CONFIG, "[DEFAULT]"),
    ], ids=["key", "section", "default_section"])
    def test_unknown_key_or_section_exits_3(self, tmp_path, capsys, text, named):
        # a misspelling used to fall back to the default without a word
        cfg = tmp_path / "typo.ini"
        cfg.write_text(text)
        assert main(["pinch", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 3
        assert named in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["report", "identities", "pinch", "scaling"])
    @pytest.mark.parametrize("under", [False, True], ids=["file", "under_file"])
    def test_unwritable_out_exits_3(self, config_file, tmp_path, capsys, command, under):
        # a FileExistsError or NotADirectoryError used to escape as a traceback (exit 1)
        taken = tmp_path / "taken"
        taken.write_text("kept\n")
        out = taken / "out" if under else taken
        assert main([command, "--config", str(config_file), "--out", str(out)]) == 3
        captured = capsys.readouterr()
        assert captured.err.startswith(f"configuration error: cannot write {out}")
        assert len(captured.err.splitlines()) == 1 and "wrote" not in captured.out
        assert taken.read_text() == "kept\n"

    @pytest.mark.parametrize("text", [b"\xff\xfe[surface]\nn = 2\n",
                                      b"n = 2\n[surface]\nrho0 = 1.0\n"],
                             ids=["not_utf8", "key_before_section"])
    def test_unreadable_config_exits_3_on_one_line(self, tmp_path, capsys, text):
        # bytes that are not UTF-8 used to escape as a traceback (exit 1), and
        # configparser's message on a key before any section spanned three lines
        cfg = tmp_path / "bad.ini"
        cfg.write_bytes(text)
        assert main(["report", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 3
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and str(cfg) in err
        assert not (tmp_path / "out").exists()

    def test_lone_percent_exits_3(self, tmp_path, capsys):
        # configparser's interpolation error used to escape as a traceback (exit 1)
        cfg = tmp_path / "percent.ini"
        cfg.write_text(GOOD_CONFIG.replace("2,0:0.02", "2,0:0.02%"))
        assert main(["report", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 3
        assert "[surface] perturbation" in capsys.readouterr().err

    def test_double_percent_still_reads_percent(self, tmp_path):
        cfg = tmp_path / "percent.ini"
        cfg.write_text(GOOD_CONFIG.replace("2,0:0.02", "2,0:0.02%%"))
        with pytest.raises(ConfigError, match="entry '2,0:0.02%'"):
            load_config(cfg)

    # K1_mode = h is covered by test_former_k1_route_key
    @pytest.mark.parametrize("section, line", [
        ("constants", "c_n = 0.3"), ("constants", "b_consts = 0.5 0.5"),
        ("constants", "calibration_file = runs/100%.txt"),  # ignored, so never interpolated
        ("experiment", "seed = 11"), ("experiment", "quad_order_check = 16"),
    ])
    def test_each_retired_key_loads_like_a_file_without_it(self, config_file, tmp_path,
                                                            section, line):
        old = tmp_path / "old.ini"
        old.write_text(GOOD_CONFIG.replace(f"[{section}]\n", f"[{section}]\n{line}\n"))
        assert line in old.read_text()
        assert load_config(old) == load_config(config_file)
        assert load_config(old).digest() == load_config(config_file).digest()

    def test_keys_match_case_insensitively(self, config_file, tmp_path):
        upper = tmp_path / "upper.ini"
        upper.write_text(GOOD_CONFIG + "C_RS = 2.0\n")
        expected = dataclasses.replace(load_config(config_file),
                                       constants=ConstantsConfig(eps0=10.0, c_RS=2.0))
        assert load_config(upper) == expected

    def test_documented_examples_load(self, tmp_path):
        # the README's ini block and the example in the config module docstring
        blocks = re.findall(r"```ini\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
        doc = config_module.__doc__.split("::\n", 1)[1].splitlines()
        example = itertools.takewhile(lambda line: not line or line.startswith("    "), doc)
        blocks.append(textwrap.dedent("\n".join(example)))
        assert len(blocks) == 2
        for i, block in enumerate(blocks):
            path = tmp_path / f"example{i}.ini"
            path.write_text(block)
            assert load_config(path).rho0 > 0.0


class TestCommands:
    def test_report_on_sphere_flags_zero_eps(self, tmp_path):
        cfg = tmp_path / "sphere.ini"
        cfg.write_text(SPHERE_CONFIG)
        out = tmp_path / "out"
        assert main(["report", "--config", str(cfg), "--out", str(out)]) == 0
        text = (out / "report.txt").read_text()
        assert "eps_is_zero = True" in text
        assert "config_hash:" in text

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("delta", [-1.0, 0.0, 1.0])
    @pytest.mark.parametrize("rho0", [1e-6, 1.0])
    def test_report_eps_is_zero_on_exact_spheres_at_any_scale(self, tmp_path, n, delta, rho0):
        # the test is relative to |h|: at rho0 = 1e-6, h ~ 1e6 and one ulp of h
        # is ~1e-10, above an absolute 1e-12
        cfg = tmp_path / "sphere.ini"
        cfg.write_text(f"[surface]\nn = {n}\ndelta = {delta}\nrho0 = {rho0}\n\n"
                       "[experiment]\nquad_order = 8\n")
        out = tmp_path / "out"
        assert main(["report", "--config", str(cfg), "--out", str(out)]) == 0
        assert "eps_is_zero = True\n" in (out / "report.txt").read_text()

    @pytest.mark.parametrize("rho0", [1e-6, 1.0])
    def test_report_eps_is_zero_false_on_perturbed_surface(self, tmp_path, rho0):
        cfg = tmp_path / "bump.ini"
        cfg.write_text(f"[surface]\nn = 2\ndelta = 0.0\nrho0 = {rho0}\n"
                       "perturbation = 3,1:1e-6\n\n[experiment]\nquad_order = 8\n")
        out = tmp_path / "out"
        assert main(["report", "--config", str(cfg), "--out", str(out)]) == 0
        assert "eps_is_zero = False\n" in (out / "report.txt").read_text()

    def test_malformed_config_exits_3(self, tmp_path, capsys):
        cfg = tmp_path / "bad.ini"
        cfg.write_text("[surface]\nn = 2\nrho0 = oops\n")
        assert main(["report", "--config", str(cfg), "--out", str(tmp_path)]) == 3
        assert "rho0" in capsys.readouterr().err

    def test_unsupported_dimension_exits_3(self, tmp_path, capsys):
        cfg = tmp_path / "n4.ini"
        cfg.write_text("[surface]\nn = 4\ndelta = 0.0\nrho0 = 1.0\n")
        assert main(["report", "--config", str(cfg), "--out", str(tmp_path)]) == 3
        assert "surface.n" in capsys.readouterr().err

    def test_calibrate_command_is_gone(self, tmp_path):
        assert main(["calibrate", "--n", "3", "--r", "2", "--out", str(tmp_path)]) == 3

    def test_missing_config_exits_3(self, tmp_path, capsys):
        missing = tmp_path / "nope.ini"
        assert main(["report", "--config", str(missing), "--out", str(tmp_path)]) == 3
        assert (capsys.readouterr().err
                == f"configuration error: configuration file not found: {missing}\n")

    def test_config_that_cannot_be_read_exits_3(self, tmp_path, capsys):
        # a directory used to be reported as "not found"; a file without read permission
        # takes the same branch, but the tests may run as root, who reads it anyway
        assert main(["report", "--config", str(tmp_path), "--out", str(tmp_path / "out")]) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"configuration error: cannot read {tmp_path}: ")
        assert len(err.splitlines()) == 1

    def test_non_starshaped_exits_1(self, tmp_path, capsys):
        cfg = tmp_path / "bad.ini"
        cfg.write_text("[surface]\nn = 2\ndelta = 0.0\nrho0 = 1.0\n"
                       "perturbation = 2,0:4.0\n")
        assert main(["report", "--config", str(cfg), "--out", str(tmp_path)]) == 1
        assert "radial graph is nonpositive at node" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["report", "pinch"])
    def test_vanishing_support_exits_1(self, tmp_path, capsys, command):
        # amplitude (1 - 1e-13) / (sqrt(5/pi)/4): rho = 1e-13 on the equator, a node of order 9
        cfg = tmp_path / "flat.ini"
        cfg.write_text("[surface]\nn = 2\ndelta = 0.0\nrho0 = 1.0\n"
                       "perturbation = 2,0:3.170661838084491\n[experiment]\nquad_order = 9\n")
        assert main([command, "--config", str(cfg), "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("hypothesis violation: surface is not starshaped: support sign "
                              "degenerates at node 74 (")
        assert err.endswith(", support = -1.00031e-13)\n")
        assert not (tmp_path / "out").exists()

    def test_identities_pass_on_sphere(self, tmp_path):
        cfg = tmp_path / "exp.ini"
        cfg.write_text(GOOD_CONFIG)
        out = tmp_path / "out"
        assert main(["identities", "--config", str(cfg), "--out", str(out)]) == 0
        rows = (out / "identities.csv").read_text().splitlines()
        data = [r for r in rows if r and not r.startswith("#")][1:]
        assert all(r.endswith("True") for r in data)

    def test_flipped_support_fails_loudly(self, tmp_path, capsys, monkeypatch):
        # break the sign convention of <Z,nu> on every batch the command evaluates
        evaluate = surface_module.evaluate_nodes

        def flipped(surface, nodes, *start):
            batch = evaluate(surface, nodes, *start)
            return dataclasses.replace(batch, support=-batch.support)

        monkeypatch.setattr(surface_module, "evaluate_nodes", flipped)
        cfg = tmp_path / "exp.ini"
        cfg.write_text(GOOD_CONFIG)
        out = tmp_path / "out"
        code = main(["identities", "--config", str(cfg), "--out", str(out)])
        assert code == 2
        assert "hsiung_minkowski" in capsys.readouterr().err

    def test_gauss_row_reads_the_batch(self, tmp_path, capsys, monkeypatch):
        # raise tau^2 by 1e-9 relative at one node of every batch the command evaluates
        evaluate = surface_module.evaluate_nodes

        def bumped(surface, nodes, *start):
            batch = evaluate(surface, nodes, *start)
            tau_sq = batch.tau_sq.copy()
            tau_sq[np.argmax(tau_sq)] *= 1.0 + 1e-9
            return dataclasses.replace(batch, tau_sq=tau_sq)

        monkeypatch.setattr(surface_module, "evaluate_nodes", bumped)
        cfg = tmp_path / "exp.ini"
        cfg.write_text(GOOD_CONFIG)
        code = main(["identities", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert code == 2
        assert "identity checks failed: gauss_algebraic_order12\n" in capsys.readouterr().err

    def test_coarse_rule_identities_exit_2(self, tmp_path, capsys):
        # at q=4 the Hsiung-Minkowski residuals are 2.5e-6 to 8.6e-6, about
        # their own refinement errors and far above the 1e-8 tolerance
        cfg = tmp_path / "n3.ini"
        cfg.write_text("[surface]\nn = 3\ndelta = -1.0\nrho0 = 0.9\n"
                       "perturbation = u1u2:0.08 u1^2-u4^2:0.04\n\n[experiment]\nr = 1\n")
        out = tmp_path / "out"
        assert main(["identities", "--config", str(cfg), "--out", str(out),
                     "--quad-order", "4"]) == 2
        assert "hsiung_minkowski" in capsys.readouterr().err
        rows = [r.split(",") for r in (out / "identities.csv").read_text().splitlines()
                if r.startswith("hsiung_minkowski_k")]
        assert [r[0] for r in rows] == [f"hsiung_minkowski_k{k}_order4" for k in range(3)]
        assert all(r[-1] == "False" for r in rows)

    def test_pinch_writes_report(self, tmp_path):
        cfg = tmp_path / "exp.ini"
        cfg.write_text(GOOD_CONFIG)
        out = tmp_path / "out"
        assert main(["pinch", "--config", str(cfg), "--out", str(out)]) == 0
        text = (out / "pinch.txt").read_text()
        assert "bound_ok = True" in text
        assert "alpha is a placeholder" in text.lower() or "placeholder" in text

    def test_report_text_has_one_line_per_field(self, config_file):
        cfg = load_config(config_file)
        report = run_pinch(cfg.surface(), cfg.r, RunSettings(quad_order=cfg.quad_order,
                                                             constants=cfg.constants))
        head = report_text(report).split("\nnote: ")[0].splitlines()
        assert [line.split(" = ")[0] for line in head] == [
            f.name for f in dataclasses.fields(PinchReport) if f.name not in ("gates", "constants")]

    def test_scaling_rows_and_summary(self, tmp_path):
        cfg = tmp_path / "exp.ini"
        cfg.write_text(GOOD_CONFIG)
        out = tmp_path / "out"
        assert main(["scaling", "--config", str(cfg), "--out", str(out)]) == 0
        lines = (out / "scaling.csv").read_text().splitlines()
        data = [l for l in lines if l and not l.startswith("#")]
        assert len(data) == 1 + 3  # header + one row per amplitude
        assert any(l.startswith("# regression slope=") for l in lines)

    def test_scaling_with_one_amplitude_has_no_regression(self, tmp_path):
        cfg = tmp_path / "exp.ini"
        cfg.write_text(GOOD_CONFIG.replace("0.06 0.03 0.015", "0.06"))
        out = tmp_path / "out"
        assert main(["scaling", "--config", str(cfg), "--out", str(out)]) == 0
        lines = (out / "scaling.csv").read_text().splitlines()
        assert len([l for l in lines if l and not l.startswith("#")]) == 1 + 1
        assert "# regression undefined (fewer than 2 usable rows)" in lines

    def test_scaling_of_an_exact_sphere_has_no_regression(self, tmp_path):
        # its |eps|_1 is rounding noise (2.2e-16): it used to fit slope=0.4903846153846155
        # through two noise rows, with numpy's RankWarning
        cfg = tmp_path / "exp.ini"
        cfg.write_text("[surface]\nn = 2\ndelta = -1.0\nrho0 = 1.0\n\n[experiment]\nr = 1\n"
                       "amplitudes = 0.5 0.25\n")
        out = tmp_path / "out"
        assert main(["scaling", "--config", str(cfg), "--out", str(out),
                     "--quad-order", "8"]) == 0
        lines = (out / "scaling.csv").read_text().splitlines()
        assert [float(l.split(",")[1]) for l in lines[4:6]] == [2.220446049250313e-16] * 2
        assert "# regression undefined (fewer than 2 usable rows)" in lines

    @pytest.mark.parametrize("amplitudes", ["0.02 0.04", "0.04 0.04"])
    def test_scaling_amplitudes_not_decreasing_exit_3(self, tmp_path, capsys, amplitudes):
        cfg = tmp_path / "exp.ini"
        cfg.write_text(GOOD_CONFIG.replace("0.06 0.03 0.015", amplitudes))
        assert main(["scaling", "--config", str(cfg), "--out", str(tmp_path)]) == 3
        assert "amplitudes" in capsys.readouterr().err

    @pytest.mark.parametrize("h", ["0", "-1"])
    def test_nonpositive_h_exits_3(self, tmp_path, capsys, h):
        # at r = 2 it used to escape from K1 as a ValueError (exit 1)
        cfg = tmp_path / "n3.ini"
        cfg.write_text("[surface]\nn = 3\ndelta = -1.0\nrho0 = 0.9\n"
                       f"perturbation = u1u2:0.04\n\n[experiment]\nr = 2\nh = {h}\n")
        assert main(["pinch", "--config", str(cfg), "--out", str(tmp_path)]) == 3
        assert "experiment.h" in capsys.readouterr().err

    @pytest.mark.parametrize("command, old, new, named", [
        ("pinch", "eps0 = 10.0", "eps0 = nan", "[constants] eps0"),
        ("pinch", "eps0 = 10.0", "eps0 = 10.0\nalpha = inf", "[constants] alpha"),
        ("pinch", "quad_order = 8", "quad_order = 8\nh = inf", "[experiment] h"),
        ("pinch", "rho0 = 1.0", "rho0 = nan", "[surface] rho0"),
        ("pinch", "rho0 = 1.0", "rho0 = inf", "[surface] rho0"),
        ("pinch", "delta = 0.0", "delta = nan", "[surface] delta"),
        ("pinch", "3,1:0.04", "3,1:nan", "perturbation entry '3,1:nan'"),
        ("scaling", "0.06 0.03", "0.06 nan", "[experiment] amplitudes"),
        ("pinch", "quad_order = 8", "quad_order = 3", "experiment.quad_order"),
        ("pinch", "3,1:0.04", "3,1", "perturbation entry '3,1'"),
        ("pinch", "eps0 = 10.0", "eps0 = 0", "constants.eps0"),
    ], ids=["eps0", "alpha", "h", "rho0_nan", "rho0_inf", "delta", "perturbation",
            "amplitude", "quad_order_3", "entry_without_colon", "eps0_zero"])
    def test_non_finite_number_exits_3(self, tmp_path, capsys, command, old, new, named):
        # each non-finite number used to run: exit 0 with a nan or inf bound, or exit 1 as
        # "not starshaped"; the last three cases are the other checks of a number or entry
        text = (GOOD_CONFIG.replace("delta = -1.0", "delta = 0.0")
                .replace("quad_order = 12", "quad_order = 8"))
        assert old in text
        cfg = tmp_path / "exp.ini"
        cfg.write_text(text.replace(old, new))
        out = tmp_path / "out"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert named in err and len(err.splitlines()) == 1
        assert not out.exists()

    @pytest.mark.parametrize("command", ["pinch", "scaling"])
    @pytest.mark.parametrize("text, named", [
        (CHAIN_N2 + "eps0 = 1e-300\n", "eps1 = 0.0"),
        (CHAIN_N2 + "alpha = 5e-324\n", "gamma = 0.0"),
        (CHAIN_N2 + "Kn_MS = 1e-320\n", "K3 = 0.0"),
        (CHAIN_N2 + "eps0 = 1e300\n", "eps1 = inf"),
        (CHAIN_N3.replace("r = 2", "r = 2\nh = 1e-320"), "K1 = inf"),
        (CHAIN_N3.replace("r = 2", "r = 2\nh = 5e-324"), "K1 = inf"),
    ], ids=["eps0_underflow", "alpha_underflow", "Kn_MS_underflow", "eps0_overflow",
            "h_underflow", "h_denominator_underflow"])
    def test_constant_outside_float_range_exits_2(self, tmp_path, capsys, command, text,
                                                  named):
        # each used to escape as a ValueError, OverflowError or ZeroDivisionError
        # traceback (exit 1)
        cfg = tmp_path / "exp.ini"
        cfg.write_text(text)
        out = tmp_path / "out"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"numerical failure: constant chain: {named} ")
        assert err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("command", ["pinch", "scaling"])
    def test_final_bound_outside_float_range_exits_2(self, tmp_path, capsys, command):
        # K3^gamma overflows at alpha = 1e6: it used to escape as an OverflowError
        # traceback (exit 1)
        cfg = tmp_path / "exp.ini"
        cfg.write_text("[surface]\nn = 2\ndelta = 0.0\nrho0 = 1.0\n\n[experiment]\nr = 1\n"
                       "amplitudes = 0.5 0.25\n\n[constants]\nalpha = 1e6\n")
        out = tmp_path / "out"
        assert main([command, "--config", str(cfg), "--out", str(out), "--quad-order", "8"]) == 2
        err = capsys.readouterr().err
        assert err == ("numerical failure: constant chain: final bound = inf left the "
                       "floating-point range\n")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["report", "identities", "pinch"])
    @pytest.mark.parametrize("n, rho0, perturbation", [
        (2, "1e155", "3,1:0.05"), (3, "1e-160", "u1u2:0.05")], ids=["overflow", "underflow"])
    def test_fields_outside_float_range_exit_2(self, tmp_path, capsys, command, n, rho0,
                                               perturbation):
        # the first used to exit 1 as "not starshaped" (identities: a CSV of nan rows), the
        # second to escape as a ZeroDivisionError traceback (exit 1)
        cfg = tmp_path / "exp.ini"
        cfg.write_text(f"[surface]\nn = {n}\ndelta = 0.0\nrho0 = {rho0}\n"
                       f"perturbation = {perturbation}\n\n[experiment]\nr = 1\nquad_order = 8\n")
        out = tmp_path / "out"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: surface fields leave the float64 range at node")
        assert err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("command", ["identities", "pinch"])
    @pytest.mark.parametrize("n, rho0, perturbation, order", [
        (3, "1e-40", "u1u2:0.05", 8), (2, "1e-60", "3,1:0.05", 16),
        (3, "1e-100", "u1u2:0.05", 8)], ids=["n3", "n2", "power"])
    def test_rows_and_norms_outside_float_range_exit_2(self, tmp_path, capsys, command, n,
                                                       rho0, perturbation, order):
        # identities used to escape as an OverflowError traceback (exit 1) in the
        # Cauchy-Schwarz row, and both commands on numpy's overflow warning in |tau|^(n+1)
        cfg = tmp_path / "exp.ini"
        cfg.write_text(f"[surface]\nn = {n}\ndelta = 0.0\nrho0 = {rho0}\n"
                       f"perturbation = {perturbation}\n\n[experiment]\nr = 1\n"
                       f"quad_order = {order}\n")
        out = tmp_path / "out"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: ") and err.count("\n") == 1
        if command == "identities" or rho0 == "1e-100":
            assert err.endswith(" leaves the float64 range\n")
        assert not out.exists()

    def test_scaling_without_amplitudes_exits_3(self, tmp_path):
        cfg = tmp_path / "sphere.ini"
        cfg.write_text(SPHERE_CONFIG)
        assert main(["scaling", "--config", str(cfg), "--out", str(tmp_path)]) == 3

    def test_byte_identical_reruns(self, tmp_path):
        cfg = tmp_path / "exp.ini"
        cfg.write_text(GOOD_CONFIG)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["scaling", "--config", str(cfg), "--out", str(out1)]) == 0
        assert main(["scaling", "--config", str(cfg), "--out", str(out2)]) == 0
        assert (out1 / "scaling.csv").read_bytes() == (out2 / "scaling.csv").read_bytes()

    def test_unknown_flag_exits_3(self, config_file, tmp_path):
        assert main(["report", "--bogus"]) == 3
        assert main(["pinch", "--config", str(config_file), "--out", str(tmp_path),
                     "--seed", "1"]) == 3



class TestParser:
    def test_help_names_every_command(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["--help"])
        assert exit_info.value.code == 0
        out = capsys.readouterr().out
        assert all(name in out for name in cli.COMMANDS)

    def test_documented_commands_are_the_dispatch_table(self):
        # the Commands:: block of the module docstring (the --help text) and the README's
        docstring = cli.__doc__.split("Commands::\n\n", 1)[1].split("\n\n", 1)[0]
        readme = (ROOT / "README.md").read_text().split("## Command line\n", 1)[1]
        for block in (docstring, readme.split("```")[1]):
            assert re.findall(r"^\s*starpinch (\w+)", block, re.M) == list(cli.COMMANDS)

    def test_options_before_the_command(self, config_file, tmp_path):
        out = tmp_path / "out"
        assert main(["--config", str(config_file), "--out", str(out), "report"]) == 0
        assert (out / "report.txt").exists()

    def test_header_placeholders_are_the_described_ones(self, config_file, tmp_path):
        # pinch.txt carries both: the header, and describe's constants block
        out = tmp_path / "out"
        assert main(["pinch", "--config", str(config_file), "--out", str(out)]) == 0
        text = (out / "pinch.txt").read_text()
        named = re.findall(r"; (\w+) is a placeholder", text.splitlines()[2])
        flagged = re.findall(r"^(\w+) = .*  \(configured placeholder\)$", text, re.M)
        assert named == flagged == ["alpha"]

IMPORT_PROBE = """
import json, sys
import starpinch, starpinch.cli

config, out = sys.argv[1:]
codes = [starpinch.cli.main([cmd, "--config", config, "--out", out])
         for cmd in ("report", "identities", "pinch", "scaling")]
scipy = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
print(json.dumps({"codes": codes, "scipy": scipy}))
"""


def test_no_command_loads_scipy(config_file, tmp_path):
    # a fresh interpreter: this process has scipy loaded by other tests
    env = dict(os.environ, PYTHONPATH=str(Path(starpinch.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(config_file),
                           str(tmp_path / "out")], env=env, capture_output=True,
                          text=True, timeout=300, check=True)
    seen = json.loads(proc.stdout.splitlines()[-1])
    assert seen["codes"] == [0, 0, 0, 0]
    assert seen["scipy"] == []


def test_module_entry_point(tmp_path):
    # python -m starpinch.cli: exit codes reach the shell, messages stay one line
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))

    def run(*args):
        return subprocess.run([sys.executable, "-m", "starpinch.cli", *args], cwd=tmp_path,
                              env=env, capture_output=True, text=True, timeout=300)

    missing = run("report", "--config", "nope.ini")
    assert missing.returncode == 3 and missing.stdout == ""
    assert missing.stderr == "configuration error: configuration file not found: nope.ini\n"
    shown = run("--help")
    assert shown.returncode == 0 and "starpinch report" in shown.stdout
