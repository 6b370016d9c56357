"""The exit-code contract on a seeded draw of configurations.

Every command ends in exit 0, 1, 2 or 3.  A non-zero exit prints exactly one
stderr line; exit 0 prints none and writes its file.  The draw spans both
dimensions, every sign of delta, rho0 from 1e-300 to 1e300, up to three
perturbation terms (a negligible amplitude among them), orders 3 to 9,
pinning levels and constants of every size, and bad values of each.  Each
config runs one of the four commands in process through ``cli.main`` with
warnings as errors, so a warning or an escaping exception fails the contract
like a wrong exit code.
"""

import contextlib
import io
import random
import warnings
from collections import namedtuple

import pytest

from starpinch import cli
from starpinch.surface import _S3_BASIS

SEED = 20261020
DRAWS = 300
FILES = {"report": "report.txt", "identities": "identities.csv", "pinch": "pinch.txt",
         "scaling": "scaling.csv"}
N2_KEYS = tuple(f"{l},{m}" for l in range(1, 5) for m in range(-l, l + 1))
S3_KEYS = tuple(_S3_BASIS)
# configs an earlier draw found broken, kept beside the draw: an area element that
# overflows while H stays finite (a RuntimeWarning from the first integral), and an
# unperturbed sphere at a fixed h, whose rows repeat one |eps|_1 (np.polyfit's RankWarning).
# Then an n = 3, r = 2 surface with H_3 <= 0 at some node, which the draw does not reach:
# at delta = -1 its H_rplus1_positive gate fails (exit 0), at delta = 0 K1's
# min H_{3;3,1} <= 0 ends the run (exit 1).  Last, two pinch runs from a scratch search: a
# sphere fit whose center leaves the chart (the fit's failure, exit 2) and a mean of H_2 that
# is not positive, h < 0 at r = 2 (exit 1)
NON_ELLIPTIC = ("[surface]\nn = 3\ndelta = {delta}\nrho0 = 1.0\nperturbation = u1u2:0.8\n\n"
                "[experiment]\nr = 2\nquad_order = 6\n")
FOUND = (
    {"command": "pinch", "alpha": 1393032.8293491278, "perturbed": True, "text": (
        "[surface]\nn = 3\ndelta = 0.0\nrho0 = 1.2642523115506295e+114\n"
        "perturbation = u2^2-u4^2:-0.2144084625838936 u1u2:-2.010297416314227e-186\n\n"
        "[experiment]\nr = 1\nquad_order = 5\n"
        "amplitudes = 0.38912327844498523 0.19456163922249262\n\n"
        "[constants]\nalpha = 1393032.8293491278\neps0 = 10.0\nc_RS = 0.021770919028781602\n")},
    {"command": "scaling", "alpha": 0.5, "perturbed": False, "text": (
        "[surface]\nn = 3\ndelta = -1.0\nrho0 = 1.4497445794795158\n\n"
        "[experiment]\nr = 2\nquad_order = 8\nh = 1.6481306613756344\n"
        "amplitudes = 0.6874615031680242 0.3437307515840121 0.17186537579200606\n\n"
        "[constants]\nalpha = 0.5\neps0 = 323.20866771243743\n")},
    *({"command": "pinch", "alpha": 0.5, "perturbed": True,
       "text": NON_ELLIPTIC.format(delta=delta)} for delta in (-1.0, 0.0)),
    {"command": "pinch", "alpha": 0.5, "perturbed": True, "text": (
        "[surface]\nn = 3\ndelta = -2.2108\nrho0 = 1.0\n"
        "perturbation = u1u4:-0.535 u3u4:-0.563 u3u4:0.202\n\n"
        "[experiment]\nr = 2\nquad_order = 4\n")},
    {"command": "pinch", "alpha": 0.5, "perturbed": True, "text": (
        "[surface]\nn = 3\ndelta = 2.0721491170828195\nrho0 = 1.0\n"
        "perturbation = u3^2-u4^2:0.5169679205296255 u3^2-u4^2:0.0673835284163341 "
        "u1^2-u4^2:0.7855331085261142\n\n"
        "[experiment]\nr = 2\nquad_order = 6\n")},
)


def _magnitude(rng: random.Random, low: float, high: float) -> float:
    return 10.0 ** rng.uniform(low, high)


def _amplitude(rng: random.Random) -> float:
    size = rng.choice([_magnitude(rng, -3, -1), _magnitude(rng, -3, -1),
                       _magnitude(rng, -1, 0.3), _magnitude(rng, -300, -150)])  # negligible
    return rng.choice([1.0, -1.0]) * size


def _rarely(rng: random.Random, bad, good, p: float = 0.04):
    """``bad`` (an invalid value) with probability p, else ``good``."""
    return bad if rng.random() < p else good


def draw_config(rng: random.Random) -> dict:
    """One configuration: its command, its file text and the values the coverage reads."""
    n = rng.choice([2, 3])
    delta = rng.choice([0.0, 1.0, -1.0, rng.uniform(-3.0, 3.0), rng.choice([1e-12, -1e-12])])
    rho0 = _magnitude(rng, -300, 300) if rng.random() < 0.2 else _magnitude(rng, -1, 0.2)
    keys = N2_KEYS if n == 2 else S3_KEYS
    perturbation = [(rng.choice(keys), _amplitude(rng))
                    for _ in range(rng.choice([0, 1, 1, 2, 3]))]
    command = rng.choice(list(FILES))
    surface = [f"n = {n}", f"delta = {delta!r}", f"rho0 = {rho0!r}"]
    if perturbation:
        surface.append("perturbation = " + " ".join(f"{k}:{a!r}" for k, a in perturbation))
    experiment = [f"r = {_rarely(rng, rng.choice([0, n]), rng.randint(1, n - 1))}",
                  f"quad_order = {_rarely(rng, 3, rng.randint(4, 9))}"]
    if rng.random() < 0.25:
        h = _rarely(rng, rng.choice([-1.0, 0.0]), _magnitude(rng, -2, 2), 0.1)
        experiment.append(f"h = {h!r}")
    if rng.random() < 0.9:
        start = rng.uniform(0.2, 1.0)
        amplitudes = [start / 2**i for i in range(rng.randint(1, 4))]
        amplitudes = _rarely(rng, amplitudes[::-1], amplitudes)  # increasing: an error
        experiment.append("amplitudes = " + " ".join(map(repr, amplitudes)))
    constants = {"alpha": rng.choice([0.5, _magnitude(rng, -3, 1), _magnitude(rng, 5, 7)]),
                 "eps0": rng.choice([0.1, 10.0, _magnitude(rng, -3, 3)])}
    for name in ("c_RS", "Kn_MS"):
        if rng.random() < 0.3:
            constants[name] = _magnitude(rng, -3, 3)
    text = "\n".join(["[surface]", *surface, "", "[experiment]", *experiment, "", "[constants]",
                      *(f"{k} = {v!r}" for k, v in constants.items())]) + "\n"
    return {"command": command, "text": text, "alpha": constants["alpha"],
            "perturbed": any(abs(a) > 1e-100 for _, a in perturbation)}


Outcome = namedtuple("Outcome", "config directory code stdout stderr")


def run_config(config: dict, directory) -> Outcome:
    """One config's command: its exit code (or the exception that escaped) and output."""
    directory.mkdir()
    path = directory / "config.ini"
    path.write_text(config["text"])
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        warnings.simplefilter("error")
        try:
            code = cli.main([config["command"], "--config", str(path),
                             "--out", str(directory / "out")])
        except BaseException as exc:  # a traceback is no documented exit
            code = exc
    return Outcome(config, directory, code, out.getvalue(), err.getvalue())


@pytest.fixture(scope="module")
def outcomes(tmp_path_factory):
    rng = random.Random(SEED)
    base = tmp_path_factory.mktemp("contract")
    configs = [draw_config(rng) for _ in range(DRAWS)] + list(FOUND)
    return [run_config(config, base / f"config{i}") for i, config in enumerate(configs)]


def test_every_exit_follows_the_contract(outcomes):
    broken = []
    for config, directory, code, _, err in outcomes:
        file = directory / "out" / FILES[config["command"]]
        if isinstance(code, BaseException):
            problem = f"raised {code!r}"
        elif code not in (0, 1, 2, 3):
            problem = f"exit {code}"
        elif code != 0 and len(err.splitlines()) != 1:
            problem = f"exit {code} with {len(err.splitlines())} stderr lines: {err!r}"
        elif code == 0 and (err or not file.is_file()):
            problem = f"exit 0 with stderr {err!r}, file written: {file.is_file()}"
        else:
            continue
        broken.append(f"{config['command']}: {problem}\n{config['text']}")
    assert not broken, "\n".join(broken)


def test_the_draw_reaches_every_exit_and_the_mended_defects(outcomes):
    drawn, (area, fixed_h, gate, k1, fit, h) = outcomes[:DRAWS], outcomes[DRAWS:]
    assert {0, 1, 2, 3} <= {outcome.code for outcome in drawn}
    # an overflowing final bound (a large alpha) exits 2 from pinch and scaling
    assert any(config["command"] in ("pinch", "scaling") and config["alpha"] > 1e4
               and err.startswith("numerical failure: constant chain: final bound = inf")
               for config, _, _, _, err in drawn)
    # an unperturbed scaling study fits no regression to rounding noise
    assert any(config["command"] == "scaling" and not config["perturbed"] and code == 0
               and "# regression undefined" in (directory / "out" / "scaling.csv").read_text()
               for config, directory, code, _, _ in drawn)
    assert area.code == 2
    assert area.stderr.startswith("numerical failure: surface fields leave the float64 range")
    assert "# regression undefined" in (fixed_h.directory / "out" / "scaling.csv").read_text()
    assert (gate.code, gate.stderr) == (0, "")
    assert "gate H_rplus1_positive = FAIL" in (gate.directory / "out" / "pinch.txt").read_text()
    assert (k1.code, k1.stderr) == (
        1, "hypothesis violation: min H_{3;3,1} = -0.0507943 must be positive at r = 2\n")
    assert fit.code == 2
    assert fit.stderr.startswith("numerical failure: sphere fit left the chart: point outside")
    assert (h.code, h.stderr) == (
        1, "hypothesis violation: h = -0.0149629 must be positive at r = 2\n")
