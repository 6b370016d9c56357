"""Command-line interface: config parsing, commands, exit codes, determinism."""

import dataclasses
import textwrap

import pytest

from starpinch import surface as surface_module
from starpinch.cli import main
from starpinch.config import load_config
from starpinch.errors import ConfigError

GOOD_CONFIG = textwrap.dedent("""\
    [surface]
    n = 2
    delta = -1.0
    rho0 = 1.0
    perturbation = 3,1:0.04 2,0:0.02

    [experiment]
    r = 1
    quad_order = 12
    seed = 7
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
        other.write_text(GOOD_CONFIG.replace("seed = 7", "seed = 8"))
        assert load_config(other).digest() != cfg.digest()

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

    def test_spherical_chart_margin(self, tmp_path):
        p = tmp_path / "bad.ini"
        p.write_text("[surface]\nn = 2\ndelta = 1.0\nrho0 = 1.95\n")
        with pytest.raises(ConfigError):
            load_config(p)

    def test_bad_perturbation_entry(self, tmp_path):
        p = tmp_path / "bad.ini"
        p.write_text("[surface]\nn = 2\nrho0 = 1.0\nperturbation = 9,9:0.1\n")
        with pytest.raises(ConfigError):
            load_config(p)


class TestCommands:
    def test_report_on_sphere_flags_zero_eps(self, tmp_path):
        cfg = tmp_path / "sphere.ini"
        cfg.write_text(SPHERE_CONFIG)
        out = tmp_path / "out"
        assert main(["report", "--config", str(cfg), "--out", str(out)]) == 0
        text = (out / "report.txt").read_text()
        assert "eps_is_zero = True" in text
        assert "config_hash:" in text

    def test_malformed_config_exits_3(self, tmp_path, capsys):
        cfg = tmp_path / "bad.ini"
        cfg.write_text("[surface]\nn = 2\nrho0 = oops\n")
        assert main(["report", "--config", str(cfg), "--out", str(tmp_path)]) == 3
        assert "rho0" in capsys.readouterr().err

    def test_missing_config_exits_3(self, tmp_path):
        assert main(["report", "--config", str(tmp_path / "nope.ini"),
                     "--out", str(tmp_path)]) == 3

    def test_non_starshaped_exits_1(self, tmp_path, capsys):
        cfg = tmp_path / "bad.ini"
        cfg.write_text("[surface]\nn = 2\ndelta = 0.0\nrho0 = 1.0\n"
                       "perturbation = 2,0:4.0\n")
        assert main(["report", "--config", str(cfg), "--out", str(tmp_path)]) == 1
        assert "node" in capsys.readouterr().err

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

        def flipped(surface, nodes):
            batch = evaluate(surface, nodes)
            return dataclasses.replace(batch, support=-batch.support)

        monkeypatch.setattr(surface_module, "evaluate_nodes", flipped)
        cfg = tmp_path / "exp.ini"
        cfg.write_text(GOOD_CONFIG)
        out = tmp_path / "out"
        code = main(["identities", "--config", str(cfg), "--out", str(out)])
        assert code == 2
        assert "hsiung_minkowski" in capsys.readouterr().err

    def test_order_sweep_decay(self, tmp_path):
        cfg = tmp_path / "exp.ini"
        cfg.write_text(GOOD_CONFIG)
        out = tmp_path / "out"
        assert main(["identities", "--config", str(cfg), "--out", str(out),
                     "--order-sweep"]) == 0
        text = (out / "identities.csv").read_text()
        assert "hsiung_minkowski_k0_order4," in text  # 12 // 4, floored at 4
        assert "hsiung_minkowski_k0_order12," in text

    def test_pinch_writes_report(self, tmp_path):
        cfg = tmp_path / "exp.ini"
        cfg.write_text(GOOD_CONFIG)
        out = tmp_path / "out"
        assert main(["pinch", "--config", str(cfg), "--out", str(out)]) == 0
        text = (out / "pinch.txt").read_text()
        assert "bound_ok = True" in text
        assert "alpha is a placeholder" in text.lower() or "placeholder" in text

    def test_scaling_rows_and_summary(self, tmp_path):
        cfg = tmp_path / "exp.ini"
        cfg.write_text(GOOD_CONFIG)
        out = tmp_path / "out"
        assert main(["scaling", "--config", str(cfg), "--out", str(out)]) == 0
        lines = (out / "scaling.csv").read_text().splitlines()
        data = [l for l in lines if l and not l.startswith("#")]
        assert len(data) == 1 + 3  # header + one row per amplitude
        assert any(l.startswith("# regression slope=") for l in lines)

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

    def test_unknown_flag_exits_3(self, tmp_path):
        assert main(["report", "--bogus"]) == 3


class TestCalibrateCommand:
    def test_writes_file_and_repeats(self, tmp_path):
        out = tmp_path / "cal"
        argv = ["calibrate", "--n", "2", "--r", "1", "--samples", "20000",
                "--seed", "5", "--out", str(out)]
        assert main(argv) == 0
        first = (out / "calibration_n2_r1.txt").read_bytes()
        assert main(argv) == 0
        assert (out / "calibration_n2_r1.txt").read_bytes() == first

    def test_n2_matches_exact_identity(self, tmp_path):
        out = tmp_path / "cal"
        assert main(["calibrate", "--n", "2", "--r", "1", "--samples", "30000",
                     "--seed", "6", "--out", str(out)]) == 0
        text = (out / "calibration_n2_r1.txt").read_text()
        raw = float([l for l in text.splitlines() if l.startswith("raw_c_inf")][0].split("=")[1])
        assert raw == pytest.approx(0.5, abs=1e-6)

    def test_margin_zero_records_raw(self, tmp_path):
        out = tmp_path / "cal"
        assert main(["calibrate", "--n", "3", "--r", "2", "--samples", "20000",
                     "--seed", "6", "--margin", "0.0", "--out", str(out)]) == 0
        text = (out / "calibration_n3_r2.txt").read_text()
        vals = dict(l.split(" = ") for l in text.splitlines() if " = " in l)
        assert float(vals["c_n"]) == float(vals["raw_c_inf"])

    def test_too_few_samples_exits_3(self, tmp_path):
        assert main(["calibrate", "--n", "2", "--r", "1", "--samples", "100",
                     "--out", str(tmp_path)]) == 3

    def test_used_as_calibration_file(self, tmp_path):
        out = tmp_path / "cal"
        assert main(["calibrate", "--n", "2", "--r", "1", "--samples", "20000",
                     "--seed", "5", "--out", str(out)]) == 0
        cfg = tmp_path / "exp.ini"
        cfg.write_text(GOOD_CONFIG + "calibration_file = "
                       + str(out / "calibration_n2_r1.txt") + "\n")
        loaded = load_config(cfg)
        assert loaded.constants.c_n == pytest.approx(0.45, abs=1e-5)
