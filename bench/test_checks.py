"""Self-test of the benchmark's checkers: right inputs pass, wrong ones fail.

    python3 -m pytest -q bench/test_checks.py

Every case builds its input by hand from closed forms, so it needs no
starpinch import and no run of the pipeline.  Each wrong input differs from
a passing one in a single value.
"""

from __future__ import annotations

import math
from types import SimpleNamespace

import pytest

import checks

# --- scaling studies ---------------------------------------------------------


def scaling_rows(slope: float, dH_scale: float = 0.5, bound_scale: float = 2.0):
    """Rows of a study whose dH follows dH_scale * |eps|_1 ** slope exactly."""
    rows = []
    for amplitude in (0.08, 0.04, 0.02, 0.01):
        eps_l1 = 0.3 * amplitude
        rows.append(SimpleNamespace(amplitude=amplitude, eps_l1=eps_l1,
                                    dH=dH_scale * eps_l1 ** slope,
                                    bound=bound_scale * eps_l1 ** (1.0 / 3.0),
                                    applicable=True, gates_passed=True))
    return rows


def test_scaling_accepts_a_linear_study():
    assert checks.scaling_problems(scaling_rows(1.0)) == []


def test_scaling_rejects_a_slope_of_one_half():
    assert checks.scaling_problems(scaling_rows(0.5))


def test_scaling_rejects_dH_above_the_bound():
    rows = scaling_rows(1.0)
    rows[2].dH = rows[2].bound * (1.0 + 1e-6)
    rows[1].dH = rows[0].dH = rows[2].dH  # keep dH monotone
    assert any("> bound" in p for p in checks.scaling_problems(rows))


def test_scaling_rejects_a_failed_gate_at_small_amplitude():
    rows = scaling_rows(1.0)
    rows[1].gates_passed = False
    assert checks.scaling_problems(rows)


def test_scaling_allows_a_failed_gate_at_large_amplitude():
    rows = scaling_rows(1.0)
    rows[0].gates_passed = False
    rows[0].applicable = False
    assert checks.scaling_problems(rows) == []


def test_scaling_rejects_dH_rising_as_amplitude_falls():
    rows = scaling_rows(1.0)
    rows[3].dH = rows[2].dH * 1.01
    assert any("rises" in p for p in checks.scaling_problems(rows))


def test_loglog_fit_recovers_a_power_law():
    slope, residual = checks.loglog_fit([1e-3, 1e-2, 1e-1], [2e-6, 2e-4, 2e-2])
    assert slope == pytest.approx(2.0) and residual == pytest.approx(0.0, abs=1e-12)


# --- run_pinch reports -------------------------------------------------------

GOOD_REPORT = SimpleNamespace(
    gates=(SimpleNamespace(name="starshaped", passed=True, detail=""),),
    applicable=True, bound_ok=True, fit_rms=0.01, dH=0.03, bound=0.5)


def test_pinch_accepts_a_good_report():
    assert checks.pinch_problems(GOOD_REPORT) == []


@pytest.mark.parametrize("change", [
    {"dH": 0.5 * (1.0 + 1e-6)},        # dH above the bound
    {"fit_rms": 0.04},                 # rms above the sup
    {"fit_rms": 0.0},                  # a fit through every node of a perturbed surface
    {"applicable": False},
    {"bound_ok": False},
    {"gates": (SimpleNamespace(name="R0_positive", passed=False, detail="R0 = -1"),)},
])
def test_pinch_rejects(change):
    assert checks.pinch_problems(SimpleNamespace(**{**vars(GOOD_REPORT), **change}))


# --- identities --------------------------------------------------------------

GOOD_N2 = {"hsiung_minkowski_k0": 3e-12, "hsiung_minkowski_k1": -4e-12,
           "cauchy_schwarz_chain": 0.02, "michael_simon": 1.5, "gauss_algebraic": 1e-16}


def test_identities_accepts_good_residuals():
    assert checks.identity_problems(2, 0, GOOD_N2) == []


@pytest.mark.parametrize("change", [
    {"hsiung_minkowski_k1": 1e-6},
    {"hsiung_minkowski_k0": -1e-6},
    {"cauchy_schwarz_chain": -1e-9},
    {"gauss_algebraic": 1e-10},
])
def test_identities_rejects(change):
    assert checks.identity_problems(2, 0, {**GOOD_N2, **change})


def test_identities_rejects_a_missing_residual():
    residuals = dict(GOOD_N2)
    del residuals["hsiung_minkowski_k1"]
    assert checks.identity_problems(2, 0, residuals)


def test_identities_rejects_a_nonzero_exit_code():
    assert checks.identity_problems(2, 3, GOOD_N2)


def test_decay_accepts_a_tenfold_fall_or_rounding_level():
    coarse = {"hsiung_minkowski_k0": 2e-9, "hsiung_minkowski_k1": 5e-13}
    fine = {"hsiung_minkowski_k0": -1e-10, "hsiung_minkowski_k1": 8e-13}
    assert checks.decay_problems(2, coarse, fine) == []


def test_decay_rejects_a_slow_fall():
    coarse = {"hsiung_minkowski_k0": 2e-9, "hsiung_minkowski_k1": 1e-9}
    fine = {"hsiung_minkowski_k0": 1e-10, "hsiung_minkowski_k1": 5e-10}
    assert checks.decay_problems(2, coarse, fine)


def test_parse_identities_csv_strips_comments_and_order():
    text = ("# starpinch identities\n# seed: 0\n"
            "name,value,tolerance,refinement_error,pass\n"
            "hsiung_minkowski_k0_order16,-1.5e-13,1e-08,2e-13,True\n"
            "gauss_algebraic_order16,0.0,1e-12,0.0,True\n")
    assert checks.parse_identities_csv(text) == {"hsiung_minkowski_k0": -1.5e-13,
                                                 "gauss_algebraic": 0.0}


# --- known answers -----------------------------------------------------------


def test_geodesic_sphere_closed_forms():
    assert checks.geodesic_sphere(-1.0) == pytest.approx((2 * math.atanh(0.5),
                                                          1 / math.tanh(2 * math.atanh(0.5))))
    assert checks.geodesic_sphere(0.0) == (1.0, 1.0)
    assert checks.geodesic_sphere(1.0) == pytest.approx((2 * math.atan(0.5),
                                                         1 / math.tan(2 * math.atan(0.5))))
    # coth(2 atanh(1/2)) = 5/4 and cot(2 atan(1/2)) = 3/4
    assert checks.geodesic_sphere(-1.0)[1] == pytest.approx(1.25)
    assert checks.geodesic_sphere(1.0)[1] == pytest.approx(0.75)


def sphere_answer(delta: float):
    rho, kappa = checks.geodesic_sphere(delta)
    return {"delta": delta, "rho0": rho, "center": [0.0, 0.0, 0.0], "dH": 0.0,
            "kappa": [[kappa, kappa]] * 4}


@pytest.mark.parametrize("delta", [-1.0, 0.0, 1.0])
def test_known_answer_accepts_the_closed_form(delta):
    assert checks.known_answer_problems(**sphere_answer(delta)) == []


@pytest.mark.parametrize("delta", [-1.0, 0.0, 1.0])
@pytest.mark.parametrize("field, value", [
    ("rho0", lambda good: good + 1e-6),                    # radius off by 1e-6
    ("center", lambda good: [0.0, 1e-6, 0.0]),
    ("dH", lambda good: 1e-6),
    ("kappa", lambda good: [[good[0][0], good[0][1] + 1e-6]] + good[1:]),
])
def test_known_answer_rejects(delta, field, value):
    answer = sphere_answer(delta)
    answer[field] = value(answer[field])
    assert checks.known_answer_problems(**answer)


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-q"]))
