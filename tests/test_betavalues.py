"""Closed forms for beta(2k+1), the series oracle, and decimal rendering."""

from __future__ import annotations

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from betakit.betavalues import (
    PiPowerValue,
    _beta_accelerated,
    beta_odd_exact,
    beta_odd_exact_via_euler,
    beta_series,
    render_decimal,
)
from betakit.highprec import decimal_string, pi_fraction, quantize
from betakit.quadrature import aux_integral_I_closed, aux_integral_J_closed

from conftest import CATALAN_LITERAL, PI_LITERAL, machin_pi

F = Fraction


class TestPiPowerValue:
    def test_zero_normalizes_power(self):
        assert PiPowerValue(F(0), 7) == PiPowerValue(F(0), 0)

    def test_json_shape(self):
        payload = beta_odd_exact(1).to_json(12)
        assert payload == {
            "coeff": "1/32",
            "pi_power": 3,
            "decimal": "0.968946146259",
            "digits": 12,
        }

    def test_str(self):
        assert str(PiPowerValue(F(1, 4), 1)) == "1/4 * pi"
        assert str(PiPowerValue(F(-2), -3)) == "-2 * pi^-3"
        assert str(PiPowerValue(F(3, 7), 0)) == "3/7"


class TestMachinPi:
    def test_against_literal(self):
        assert abs(pi_fraction(45) - PI_LITERAL) < F(1, 10**45)

    def test_self_consistency_across_precisions(self):
        lo, hi = pi_fraction(20), pi_fraction(60)
        assert abs(lo - hi) < F(1, 10**20)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            pi_fraction(0)


class TestBetaOddExact:
    def test_first_three_closed_forms(self):
        expected = [(F(1, 4), 1), (F(1, 32), 3), (F(5, 1536), 5)]
        for k, (coeff, power) in enumerate(expected):
            v = beta_odd_exact(k)
            assert (v.coeff, v.power) == (coeff, power)

    def test_equals_euler_route_exactly(self):
        for k in range(21):
            assert beta_odd_exact(k) == beta_odd_exact_via_euler(k)

    def test_coefficients_always_positive(self):
        for k in range(21):
            assert beta_odd_exact(k).coeff > 0

    def test_rejects_negative_k(self):
        with pytest.raises(ValueError):
            beta_odd_exact(-1)
        with pytest.raises(ValueError):
            beta_odd_exact_via_euler(-1)


class TestBetaSeries:
    def test_catalan_ten_digits(self):
        v = beta_series(2, 10)
        assert v.decimal_str() == "0.9159655942"
        assert abs(v.value - CATALAN_LITERAL) < F(1, 10**10)

    def test_s3_matches_rendered_closed_form(self):
        v = beta_series(3, 10)
        target = render_decimal(beta_odd_exact(1), 20)
        assert abs(v.value - target.value) < F(1, 10**10)

    def test_s1_requires_acceleration_and_matches_pi_over_4(self):
        v = beta_series(1, 10)
        assert v.decimal_str() == "0.7853981634"
        assert abs(v.value - PI_LITERAL / 4) < F(1, 10**10)

    def test_high_precision_agrees_with_closed_form(self):
        v = beta_series(5, 30)
        target = render_decimal(beta_odd_exact(2), 40)
        assert abs(v.value - target.value) < F(1, 10**30)

    def test_partial_sums_bracket_limit(self):
        # alternating series with decreasing terms: even-length prefixes
        # undershoot, odd-length prefixes overshoot
        scale = 10**25
        for s in (2, 3, 5):
            limit = beta_series(s, 22).value * scale
            acc = 0
            for m in range(1001):
                acc += (1 if m % 2 == 0 else -1) * (scale // (2 * m + 1) ** s)
                # S_m has m+1 terms; comparisons leave 1e-22 slack for the
                # floor divisions, far below the true gap to the limit
                if m % 2 == 0:
                    assert acc > limit
                else:
                    assert acc < limit

    def test_input_validation(self):
        with pytest.raises(ValueError):
            beta_series(0, 10)
        with pytest.raises(ValueError):
            beta_series(2, 0)

    def test_few_digits_are_correctly_rounded(self):
        # beta(2) = 0.915965594..., beta(4) = 0.988944551...; a float sum cut
        # off at the first-omitted-term bound printed 0.91596 and 0.98895
        assert beta_series(2, 5).decimal_str() == "0.91597"
        assert beta_series(4, 5).decimal_str() == "0.98894"


class TestRenderDecimal:
    def test_quarter_pi_fifteen_digits(self):
        v = render_decimal(PiPowerValue(F(1, 4), 1), 15)
        assert v.decimal_str() == "0.785398163397448"
        assert abs(v.value - PI_LITERAL / 4) < F(1, 10**15)

    def test_zero(self):
        assert render_decimal(PiPowerValue(F(0), 0), 8).value == 0

    def test_pure_rational(self):
        assert render_decimal(PiPowerValue(F(1), 0), 8).value == 1

    def test_negative_power(self):
        v = render_decimal(PiPowerValue(F(1), -1), 20)
        assert abs(v.value - 1 / PI_LITERAL) < F(1, 10**20)

    def test_oracle_agreement_through_k6(self):
        for k in range(7):
            rendered = render_decimal(beta_odd_exact(k), 14)
            series = beta_series(2 * k + 1, 14)
            assert abs(rendered.value - series.value) < F(1, 10**12)


def _crvz_fraction_loop(s: int, digits: int) -> Fraction:
    """The accelerated series as the earlier all-`Fraction` loop."""
    n = int((digits * math.log(10) + math.log(8)) / math.log(3 + math.sqrt(8))) + 2
    u_prev, u = 2, 6
    for _ in range(n - 1):
        u_prev, u = u, 6 * u - u_prev
    d = u // 2
    scale = 10 ** (digits + 10)
    b = Fraction(-1)
    c = Fraction(-d)
    acc = Fraction(0)
    for k in range(n):
        c = b - c
        acc += c * (scale // (2 * k + 1) ** s)
        b *= Fraction(2 * (k + n) * (k - n), (2 * k + 1) * (k + 1))
    return acc / d / scale


def _exact_pi_power_render(v: PiPowerValue, digits: int) -> Fraction:
    """render_decimal's value by the earlier exact coeff * pi_fraction(w) ** power."""
    if v.power == 0 or v.coeff == 0:
        return v.coeff
    coeff_mag = len(str(abs(v.coeff.numerator) // v.coeff.denominator + 1))
    working = digits + 10 + abs(v.power) + coeff_mag
    return quantize(v.coeff * pi_fraction(working) ** v.power, digits + 5)


GRID_DIGITS = (13, 29, 101, 400)
# Before rounding, the old and new series differ by up to about 1e-4 units
# of the last of the digits+5 places (the render by about 1e-7), so a rare
# input could fall across a rounding boundary; the properties therefore run
# on a fixed example set, which keeps them deterministic.


class TestFixedPointKernels:
    """The integer kernels return exactly the values of the Fraction ones."""

    def test_series_matches_fraction_loop_on_grid(self):
        for s in range(1, 42):
            for digits in GRID_DIGITS:
                expected = quantize(_crvz_fraction_loop(s, digits), digits + 5)
                assert beta_series(s, digits).value == expected, (s, digits)

    def test_render_matches_exact_power_on_grid(self):
        values = [PiPowerValue(F(0), 0), PiPowerValue(F(-7, 3), 0)]
        for k in range(21):
            values.append(beta_odd_exact(k))  # powers 1..41
            values.append(aux_integral_I_closed(k, k % 5))  # powers -1..-41
            values.append(aux_integral_J_closed(k, 2 * k % 7))  # powers -2..-42
        for v in values:
            for digits in (1,) + GRID_DIGITS:
                expected = _exact_pi_power_render(v, digits)
                assert render_decimal(v, digits).value == expected, (v, digits)

    @given(st.integers(min_value=1, max_value=41), st.integers(min_value=13, max_value=400))
    @settings(max_examples=40, deadline=None, derandomize=True)
    def test_series_property(self, s, digits):
        expected = quantize(_crvz_fraction_loop(s, digits), digits + 5)
        assert beta_series(s, digits).value == expected

    @given(
        st.fractions(min_value=-(10**6), max_value=10**6, max_denominator=10**6),
        st.integers(min_value=-42, max_value=42),
        st.integers(min_value=13, max_value=400),
    )
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_render_property(self, coeff, power, digits):
        v = PiPowerValue(coeff, power)
        assert render_decimal(v, digits).value == _exact_pi_power_render(v, digits)


def _crvz_exact_sum(s: int, digits: int) -> Fraction:
    """The CRVZ weighted sum (1/d_n) sum_k c_k / (2k+1)^s with no floors."""
    n = int((digits * math.log(10) + math.log(8)) / math.log(3 + math.sqrt(8))) + 2
    u_prev, u = 2, 6
    for _ in range(n - 1):
        u_prev, u = u, 6 * u - u_prev
    d = u // 2
    b, c = -1, -d
    # one common denominator: a Fraction sum would reduce at every term
    denom = math.lcm(*((2 * k + 1) ** s for k in range(n)))
    acc = 0
    for k in range(n):
        c = b - c
        acc += c * (denom // (2 * k + 1) ** s)
        b = b * (2 * (k + n) * (k - n)) // ((2 * k + 1) * (k + 1))
    return Fraction(acc, d * denom)


class TestErrorBudgets:
    """Each kernel meets the floor-loss budget its docstring proves."""

    def test_series_floor_losses_below_guard(self):
        for s in (1, 2, 7, 41):
            for digits in (1, 13, 101, 400):
                err = abs(_beta_accelerated(s, digits) - _crvz_exact_sum(s, digits))
                assert err < F(1, 10 ** (digits + 10)), (s, digits)

    def test_pi_agrees_with_machin(self):
        for digits in (1, 2, 14, 15, 28, 100, 1000, 3100):
            assert abs(pi_fraction(digits) - machin_pi(digits)) < F(2, 10**digits), digits

    def test_pi_within_three_guard_units(self):
        # tail under one unit of 10^-(d+10), isqrt and the floor under two;
        # the Machin reference at d + 20 digits is off by under 10^-(d+20)
        for digits in (1, 2, 14, 15, 28, 100, 1000):
            err = abs(pi_fraction(digits) - machin_pi(digits + 20))
            assert err < F(3, 10 ** (digits + 10)) + F(1, 10 ** (digits + 20)), digits


class TestBeyondIntStrLimit:
    """More digits than str(int) converts by default (4300 from Python 3.11)."""

    def test_decimal_string_of_a_third(self):
        assert decimal_string(F(1, 3), 5000) == "0." + "3" * 5000

    def test_series_and_render_agree_at_4400_digits(self):
        series = beta_series(3, 4400)
        rendered = render_decimal(beta_odd_exact(1), 4400)
        assert abs(series.value - rendered.value) < F(2, 10**4400)
        assert series.decimal_str() == rendered.decimal_str()
        assert len(series.decimal_str()) == 4402

    def test_render_of_a_coefficient_past_the_limit(self):
        # the render sizes its working precision by the digits of |coeff|
        v = PiPowerValue(F(10**4400 + 1, 3), 1)
        rendered = render_decimal(v, 5)
        assert abs(rendered.value - v.coeff * pi_fraction(4420)) < F(1, 10**5)


class TestDecimalFormatting:
    def test_round_half_even(self):
        assert decimal_string(F(25, 1000), 2) == "0.02"
        assert decimal_string(F(35, 1000), 2) == "0.04"
        assert decimal_string(F(-25, 1000), 2) == "-0.02"
        assert decimal_string(F(251, 10000), 2) == "0.03"

    def test_padding_and_sign(self):
        assert decimal_string(F(1, 2), 4) == "0.5000"
        assert decimal_string(F(-3, 2), 3) == "-1.500"
        assert decimal_string(F(0), 3) == "0.000"

    def test_quantize_consistent_with_string(self):
        x = F(123456789, 100000)
        assert decimal_string(quantize(x, 3), 3) == decimal_string(x, 3)
