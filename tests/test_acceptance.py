"""Acceptance gate: every criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass/fail
line per criterion (the PASS lines below plus pytest's own verdicts).
"""

from __future__ import annotations

import math
import time
from fractions import Fraction
from pathlib import Path

from conftest import gf_euler_numbers

from betakit.betavalues import (
    beta_odd_exact,
    beta_odd_exact_via_euler,
    beta_series,
    render_decimal,
)
from betakit.eulerpoly import EulerTable, euler_number, run_identity_suite
from betakit.quadrature import (
    IntegrandSpec,
    aux_integral_I_closed,
    aux_integral_J_closed,
    aux_integral_numeric,
    beta_even_quadrature,
)
from betakit.telescope import (
    ExtendedFunctionSpec,
    extended_eval,
    partial_sum_I_star,
    partial_sum_J,
)

F = Fraction
GOLDEN = Path(__file__).parent / "golden"
SUITE_SEED = 20260811


def _report(criterion: int, detail: str) -> None:
    print(f"[acceptance] criterion {criterion} PASS: {detail}")


def test_criterion_1_exact_closed_forms_vs_series_oracle():
    start = time.perf_counter()
    expected = [(F(1, 4), 1), (F(1, 32), 3), (F(5, 1536), 5)]
    for k, (coeff, power) in enumerate(expected):
        v = beta_odd_exact(k)
        assert (v.coeff, v.power) == (coeff, power)
    for k in range(7):
        rendered = render_decimal(beta_odd_exact(k), 14)
        oracle = beta_series(2 * k + 1, 14)
        assert abs(rendered.value - oracle.value) < F(1, 10**12), k
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    _report(1, f"closed forms match the series oracle to 1e-12 for k<=6 ({elapsed:.2f}s)")


def test_criterion_2_dual_formula_consistency():
    start = time.perf_counter()
    for k in range(21):
        a = beta_odd_exact(k)
        b = beta_odd_exact_via_euler(k)
        assert (a.coeff, a.power) == (b.coeff, b.power), k
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _report(2, f"both exact routes agree field-by-field for k<=20 ({elapsed:.2f}s)")


def test_criterion_3_identity_suite_with_negative_control():
    start = time.perf_counter()
    report = run_identity_suite(40, 25, SUITE_SEED)
    assert report.all_passed
    assert len(report.results) == 8

    corrupted = EulerTable()
    corrupted.number(10)
    corrupted.numbers[4] = F(6)
    control = run_identity_suite(10, 5, SUITE_SEED, euler=corrupted)
    assert not control.all_passed
    assert {r.identity_id for r in control.results if not r.passed} == {"1.2"}
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    _report(3, f"identity suite exact at nmax=40, corrupted table caught ({elapsed:.2f}s)")


def test_criterion_4_generating_function_cross_check():
    series = gf_euler_numbers(12)
    for n in range(13):
        assert euler_number(n) == series[n], n
    _report(4, "E_0..E_12 equal exact series division of 2e^t/(e^(2t)+1)")


def test_criterion_5_integral_representation_and_sign():
    start = time.perf_counter()
    for k in (1, 2, 3):
        quad = beta_even_quadrature(k, 1e-8)
        oracle = float(beta_series(2 * k, 10).value)
        assert abs(quad.value - oracle) < 1e-8, k
        assert quad.value > 0
    good = beta_even_quadrature(1, 1e-8)
    bad = beta_even_quadrature(1, 1e-8, printed_sign=True)
    assert bad.value == -good.value
    assert bad.value < 0
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    _report(5, f"quadrature matches series to 1e-8 for k=1..3; sign flip negates ({elapsed:.2f}s)")


def test_criterion_6_auxiliary_closed_forms_and_recurrences():
    for closed_of, kind in ((aux_integral_I_closed, "aux_I"), (aux_integral_J_closed, "aux_J")):
        for k in range(4):
            for m in range(4):
                closed = float(render_decimal(closed_of(k, m), 16).value)
                numeric = aux_integral_numeric(IntegrandSpec(kind, k, m), 1e-10)
                assert abs(numeric.value - closed) < 1e-9, (kind, k, m)
    for k in (1, 2):
        for m in (0, 1, 2):
            contraction = 1.0 / ((2 * m + 1) ** 2 * math.pi**2)
            i_cur = aux_integral_numeric(IntegrandSpec("aux_I", k, m), 1e-11).value
            i_prev = aux_integral_numeric(IntegrandSpec("aux_I", k - 1, m), 1e-11).value
            assert abs(i_cur + 2 * k * (2 * k - 1) * contraction * i_prev) < 1e-9
            j_cur = aux_integral_numeric(IntegrandSpec("aux_J", k, m), 1e-11).value
            j_prev = aux_integral_numeric(IntegrandSpec("aux_J", k - 1, m), 1e-11).value
            assert abs(j_cur + (2 * k + 1) * (2 * k) * contraction * j_prev) < 1e-9
    _report(6, "closed forms and both recurrences hold to 1e-9 for k,m<=3")


def test_criterion_7_telescoping_convergence():
    for k in (0, 1, 2):
        trace = partial_sum_I_star(k, 10000)
        by_n = dict(trace.entries)
        scaled = [n * abs(by_n[n]) for n in (100, 1000, 10000)]
        assert max(scaled) <= 3 * max(scaled[0], 1e-12), k
        assert abs(by_n[10000]) <= max(abs(by_n[100]), 1e-12), k
    for k in (1, 2):
        trace = partial_sum_J(k, 10000, 1e-8)
        assert abs(trace.final() - trace.target) < 1e-6, k
    _report(7, "modified sums vanish with N*|S_N| bounded; J sums hit their targets")


def test_criterion_8_endpoint_extensions():
    cases = []
    for k in (1, 2):
        cases.append((ExtendedFunctionSpec("f", k), 0.0, "0", +1))
        cases.append((ExtendedFunctionSpec("f", k), 0.5, "1/2", -1))
        cases.append((ExtendedFunctionSpec("g", k), 0.5, "1/2", -1))
        cases.append((ExtendedFunctionSpec("h", k), 0.5, "1/2", -1))
    cases.append((ExtendedFunctionSpec("g", 0), 0.5, "1/2", -1))
    for spec, base, key, direction in cases:
        declared = spec.endpoint_values[key]
        ratios = []
        for j in range(3, 8):
            t = base + direction * 10.0**-j
            ratios.append(abs(extended_eval(spec, t) - declared) * 10.0**j)
        assert max(ratios) <= 3 * max(ratios[0], 1e-9), (spec.name, spec.k, key)
    _report(8, "f, g, h approach their declared endpoint values at rate C*10^-j")


def test_criterion_9_cli_golden_files(run_betakit):
    r1 = run_betakit(["beta", "odd", "--k", "1", "--digits", "12", "--format", "json"])
    assert r1.returncode == 0
    assert r1.stdout == (GOLDEN / "beta_odd_k1_json.stdout").read_bytes()

    r2 = run_betakit(["beta", "even", "--k", "1", "--tol", "1e-8", "--format", "text"])
    assert r2.returncode == 0
    assert r2.stdout == (GOLDEN / "beta_even_k1_text.stdout").read_bytes()
    assert b"0.91596559" in r2.stdout

    r3 = run_betakit(["beta", "odd", "--k", "-1"])
    assert r3.returncode == 2
    assert r3.stderr == (GOLDEN / "beta_odd_invalid_usage.stderr").read_bytes()
    _report(9, "all three CLI examples are byte-identical with expected exit codes")
