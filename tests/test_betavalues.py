"""Closed forms for beta(2k+1), the series oracle, and decimal rendering."""

from __future__ import annotations

import functools
import math
import os
import signal
import subprocess
import sys
import threading
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from betakit import betavalues
from betakit.betavalues import (
    PiPowerValue,
    _backward_sum,
    _beta_accelerated,
    _chebyshev_d,
    _first_big_term,
    _forward_sum,
    _last_weight,
    beta_odd_exact,
    beta_odd_exact_via_euler,
    beta_series,
    render_decimal,
)
from betakit import highprec
from betakit.highprec import HighPrecisionReal, pi_fraction, pi_power
from betakit.quadrature import aux_integral_I_closed, aux_integral_J_closed

from conftest import CATALAN_LITERAL, PI_LITERAL, PI_POWER_GRID, machin_pi

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

    @pytest.mark.parametrize("power", [2.5, 2.0, F(2), "2", None])
    def test_rejects_a_non_integer_power(self, power):
        # 2.0 would otherwise equal the power 2, and 2.5 float to pi^2.5
        message = f"^power must be an integer, not {type(power).__name__}$"
        with pytest.raises(TypeError, match=message):
            PiPowerValue(1, power)

    def test_bool_power_is_an_int(self):
        v = PiPowerValue(3, True)
        assert v == PiPowerValue(3, 1) and type(v.power) is int


class TestMachinPi:
    def test_against_literal(self):
        assert abs(pi_fraction(45) - PI_LITERAL) < F(1, 10**45)

    def test_self_consistency_across_precisions(self):
        lo, hi = pi_fraction(20), pi_fraction(60)
        assert abs(lo - hi) < F(1, 10**20)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            pi_fraction(0)

    @pytest.mark.parametrize("digits", [2.5, "5", 5.0])
    def test_rejects_a_non_integer(self, digits):
        pi_fraction(5)  # the cached value for 5 must not answer for 5.0
        message = f"^digits must be an integer, not {type(digits).__name__}$"
        with pytest.raises(TypeError, match=message):
            pi_fraction(digits)


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
        assert abs(float(v) - float(CATALAN_LITERAL)) < 1e-10

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

    def test_float_exponent_is_a_type_error_naming_s(self):
        with pytest.raises(TypeError, match="^s must be an integer, not float$"):
            beta_series(2.0, 10)

    def test_float_digits_is_a_type_error_naming_digits(self):
        with pytest.raises(TypeError, match="^digits must be an integer, not float$"):
            beta_series(3, 10.5)

    def test_bools_stay_ints(self):
        assert beta_series(True, 10) == beta_series(1, 10)
        assert beta_series(3, True) == beta_series(3, 1)

    def test_huge_exponent_takes_one_term(self):
        # 3^(10^7) has 16 million bits; the cutoff never forms it
        assert beta_series(10**7, 12).decimal_str() == "1.000000000000"
        assert beta_series(10**100, 30).decimal_str() == "1." + "0" * 30

    def test_high_exponents_agree_with_rendered_closed_form(self):
        for k in range(151):
            for digits in (1, 12, 30, 100):
                series = beta_series(2 * k + 1, digits)
                rendered = render_decimal(beta_odd_exact(k), digits)
                assert abs(series.value - rendered.value) < F(2, 10**digits), (k, digits)

    def test_agrees_with_mpmath_at_50_digits(self):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(70):
            for s in (2, 50, 100, 300):
                # 60 significant digits of a 70-digit evaluation: off by < 1e-60
                ref = F(mpmath.nstr(mpmath.dirichlet(s, [0, 1, 0, -1]), 60))
                assert abs(beta_series(s, 50).value - ref) < F(1, 10**50), s

    def test_few_digits_are_correctly_rounded(self):
        # beta(2) = 0.915965594..., beta(4) = 0.988944551...; a float sum cut
        # off at the first-omitted-term bound printed 0.91596 and 0.98895
        assert beta_series(2, 5).decimal_str() == "0.91597"
        assert beta_series(4, 5).decimal_str() == "0.98894"


class TestRenderDecimal:
    def test_float_digits_is_a_type_error_naming_digits(self):
        with pytest.raises(TypeError, match="^digits must be an integer, not float$"):
            render_decimal(beta_odd_exact(1), 2.5)

    def test_zero_digits_refused(self):
        with pytest.raises(ValueError, match="^digits must be >= 1$"):
            render_decimal(beta_odd_exact(1), 0)

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


def _series_terms(digits: int) -> tuple[int, int, int]:
    """n, d_n and bits of the accelerated series, d_n by the n-step recurrence."""
    n = int((digits * math.log(10) + math.log(8)) / math.log(3 + math.sqrt(8))) + 2
    u_prev, u = 2, 6
    for _ in range(n - 1):
        u_prev, u = u, 6 * u - u_prev
    return n, u // 2, (n * 10**10).bit_length()


def _crvz_fraction_loop(s: int, digits: int) -> Fraction:
    """The accelerated series as the earlier all-`Fraction` loop."""
    n, d, _ = _series_terms(digits)
    scale = 10 ** (digits + 10)
    b = Fraction(-1)
    c = Fraction(-d)
    acc = Fraction(0)
    for k in range(n):
        c = b - c
        acc += c * (scale // (2 * k + 1) ** s)
        b *= Fraction(2 * (k + n) * (k - n), (2 * k + 1) * (k + 1))
    return acc / d / scale


@functools.cache  # the grids below ask for each sum once per kernel variant
def _crvz_full_acc(s: int, digits: int) -> int:
    """The integer series' sum as the earlier code ran it: every one of the n terms."""
    n, d, bits = _series_terms(digits)
    b, c, acc = -1, -d, 0
    for k in range(n):
        c = b - c
        acc += (c << bits) // (2 * k + 1) ** s
        b = b * (2 * (k + n) * (k - n)) // ((2 * k + 1) * (k + 1))
    return acc


def _crvz_full_pair(s: int, digits: int) -> tuple[int, int]:
    """The earlier full loop's sum as _beta_accelerated's unreduced pair."""
    _, d, bits = _series_terms(digits)
    return _crvz_full_acc(s, digits), d << bits


def _crvz_full_loop(s: int, digits: int) -> Fraction:
    """The integer series as the earlier code ran it, as a value."""
    return Fraction(*_crvz_full_pair(s, digits))


def _linear_k0(s: int, top: int, n: int) -> int:
    """min(n, the first k with (2k+1)^s >= 2^top), by a linear search on exact powers."""
    return next((k for k in range(n) if (2 * k + 1) ** s >= 1 << top), n)


def _cutoff(s: int, digits: int) -> tuple[int, int]:
    """The series' k0, and n."""
    n, d, bits = _series_terms(digits)
    return _linear_k0(s, bits + d.bit_length(), n), n


def _exact_pi_power_render(v: PiPowerValue, digits: int) -> Fraction:
    """render_decimal's value by the earlier exact coeff * pi_fraction(w) ** power."""
    if v.power == 0 or v.coeff == 0:
        return v.coeff
    coeff_mag = len(str(abs(v.coeff.numerator) // v.coeff.denominator + 1))
    working = digits + 10 + abs(v.power) + coeff_mag
    return round(v.coeff * pi_fraction(working) ** v.power, digits + 5)


def _loop_pi_power_render(v: PiPowerValue, digits: int) -> Fraction:
    """render_decimal's value by its earlier |power| - 1 truncating fixed-point products."""
    if v.power == 0 or v.coeff == 0:
        return v.coeff
    coeff_mag = len(str(abs(v.coeff.numerator) // v.coeff.denominator + 1))
    working = digits + 10 + abs(v.power) + coeff_mag
    bits = (10**working).bit_length()
    pi = pi_fraction(working)
    p = (pi.numerator << bits) // pi.denominator
    x = p
    for _ in range(abs(v.power) - 1):
        x = (x * p) >> bits
    if v.power < 0:
        x = (1 << 2 * bits) // x
    return round(v.coeff * Fraction(x, 1 << bits), digits + 5)


def _fraction_pi_power(v: PiPowerValue) -> Fraction:
    """float(v)'s earlier argument: a Fraction power of a 20-digit pi."""
    return v.coeff * pi_fraction(20 + len(str(abs(v.power)))) ** v.power


def _float_hex(x: PiPowerValue | Fraction) -> str:
    """float(x).hex(), or "overflow" past the double range."""
    try:
        return float(x).hex()
    except OverflowError:
        return "overflow"


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
                expected = round(_crvz_fraction_loop(s, digits), digits + 5)
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

    def test_render_bit_identical_to_earlier_loop(self):
        for k in range(21):
            for v in (beta_odd_exact(k), aux_integral_I_closed(k, k % 5),
                      aux_integral_J_closed(k, 2 * k % 7), PiPowerValue(F(-7, 3) ** k, k - 10)):
                for digits in (1,) + GRID_DIGITS + (1000,):
                    want = _loop_pi_power_render(v, digits)
                    assert render_decimal(v, digits).value == want, (v, digits)

    def test_float_bit_identical_to_earlier_fraction_power(self):
        values = [beta_odd_exact(k) for k in range(301)]
        values += [closed(k, m) for closed in (aux_integral_I_closed, aux_integral_J_closed)
                   for k in range(110) for m in (0, 1, 7, 200)]
        for v in values:
            assert _float_hex(v) == _float_hex(_fraction_pi_power(v)), v

    def test_float_equals_rounded_fraction_product(self):
        # one integer division of the unreduced pair gives the double of the
        # reduced Fraction product, and the same OverflowError past the range
        overflows = 0
        for c, p in PI_POWER_GRID:
            product = c * pi_power(p, 80 + 2 * abs(p).bit_length()) if p else c
            try:
                want = float(product).hex()
            except OverflowError:
                with pytest.raises(OverflowError):
                    float(PiPowerValue(c, p))
                overflows += 1
            else:
                assert float(PiPowerValue(c, p)).hex() == want, (c, p)
        assert overflows

    @given(st.integers(min_value=1, max_value=41), st.integers(min_value=13, max_value=400))
    @settings(max_examples=40, deadline=None, derandomize=True)
    def test_series_property(self, s, digits):
        expected = round(_crvz_fraction_loop(s, digits), digits + 5)
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
    n, d, _ = _series_terms(digits)
    b, c = -1, -d
    # one common denominator: a Fraction sum would reduce at every term
    denom = math.lcm(*((2 * k + 1) ** s for k in range(n)))
    acc = 0
    for k in range(n):
        c = b - c
        acc += c * (denom // (2 * k + 1) ** s)
        b = b * (2 * (k + n) * (k - n)) // ((2 * k + 1) * (k + 1))
    return Fraction(acc, d * denom)


CUTOFF_EXPONENTS = list(range(1, 81)) + [101, 201, 601, 10**4]
CUTOFF_DIGITS = list(range(1, 31)) + [50, 100, 200, 1000]


@pytest.fixture(params=["in-process", "forked"])
def kernel(request, monkeypatch):
    """_beta_accelerated summing in process, or splitting every uncut sum with a fork."""
    if request.param == "in-process":
        monkeypatch.setattr(betavalues, "_can_fork", lambda: False)
    else:
        monkeypatch.setattr(betavalues, "_SPLIT_COST", 0)
        monkeypatch.setattr(betavalues, "_can_fork", lambda: True)
    return _beta_accelerated


class TestSeriesCutoff:
    """Terms past the first power above 2^top are counted, not divided."""

    def test_matches_full_loop_on_grid(self, kernel):
        for s in CUTOFF_EXPONENTS:
            for digits in CUTOFF_DIGITS:
                assert F(*kernel(s, digits)) == _crvz_full_loop(s, digits), (s, digits)

    def test_grid_spans_every_cutoff_regime(self):
        k0_regimes = set()
        for s in CUTOFF_EXPONENTS:
            for digits in CUTOFF_DIGITS:
                k0, n = _cutoff(s, digits)
                k0_regimes.add("n" if k0 == n else 1 if k0 == 1 else "between")
        assert k0_regimes == {"n", 1, "between"}
        assert _cutoff(1, 1000)[0] == _cutoff(1, 1000)[1]
        assert _cutoff(10**4, 1000)[0] == 1

    def test_matches_full_loop_on_either_side_of_the_boundary(self, kernel):
        # for each k, the least s with (2k+1)^s >= 2^top puts k0 <= k, and
        # s - 1 leaves (2k+1)^(s-1) just below it
        for digits in list(range(1, 31)) + [100]:
            n, d, bits = _series_terms(digits)
            top = bits + d.bit_length()
            for k in range(1, n):
                s = 1
                while (2 * k + 1) ** s < 1 << top:
                    s += 1
                for t in (s - 1, s):
                    got = F(*kernel(t, digits))
                    assert got == _crvz_full_loop(t, digits), (t, digits)
                assert _cutoff(s, digits)[0] <= k < _cutoff(s - 1, digits)[0]

    def test_first_big_term_matches_linear_search(self):
        for s in (1, 2, 3, 7, 40, 41, 600, 601):
            for n in (1, 2, 5, 50):
                for base in range(3, 2 * n + 3, 2):
                    # tops right at each power, so the exact branch decides
                    boundary = (base**s).bit_length()
                    for top in (boundary - 1, boundary, boundary + 1):
                        assert _first_big_term(s, top, n) == _linear_k0(s, top, n), (s, top, n)

    def test_chebyshev_d_matches_recurrence(self):
        for digits in range(1, 400):
            n, d, _ = _series_terms(digits)
            assert _chebyshev_d(n) == d, digits

    def test_weights_alternate_fall_and_stay_nonzero(self):
        # the lemma the cutoff rests on: c_k = (-1)^k |c_k| with
        # d_n > |c_0| > |c_1| > ... > |c_(n-1)| > 0
        for digits in range(1, 400):
            n, d, _ = _series_terms(digits)
            b, c, size = -1, -d, d
            for k in range(n):
                c = b - c
                assert c != 0 and (c > 0) == (k % 2 == 0), (digits, k)
                assert abs(c) < size, (digits, k)
                size = abs(c)
                b = b * (2 * (k + n) * (k - n)) // ((2 * k + 1) * (k + 1))
            # where the backward walk starts: b_n and c_(n-1)
            assert b == c == _last_weight(n), digits


class TestTwoEndedSum:
    """The weights run backward from b_n exactly, so any split of the sum gives the same acc."""

    def test_halves_sum_to_the_full_loop_at_every_split(self):
        for digits in list(range(1, 31)) + [100]:
            n, d, bits = _series_terms(digits)
            for s in (1, 2, 3, 7, 41):
                want = _crvz_full_acc(s, digits)
                for split in range(n + 1):
                    got = _forward_sum(s, bits, n, d, split) + _backward_sum(s, bits, n, split)
                    assert got == want, (digits, s, split)


def _split_cost(digits: int) -> int:
    """n bitlength(d_n), the kernel's cost estimate at `digits` when no term is cut off."""
    n, d, _ = _series_terms(digits)
    return n * d.bit_length()


def _assert_no_child() -> None:
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


ABOVE, BELOW = 1200, 500  # digits on either side of the split constant, for s = 3


class TestForkedSplit:
    """One child per call above the constant, none below it, and none outlives the call."""

    @pytest.fixture
    def forks(self, monkeypatch):
        """The os.fork calls made; the machine looks like two usable CPUs."""
        calls, real = [], os.fork
        monkeypatch.setattr(os, "fork", lambda: calls.append(os.getpid()) or real())
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        return calls

    def test_one_fork_above_the_constant_none_below(self, forks):
        assert _split_cost(BELOW) < betavalues._SPLIT_COST < _split_cost(ABOVE)
        assert _beta_accelerated(3, BELOW) == _crvz_full_pair(3, BELOW)
        assert forks == []
        assert _beta_accelerated(3, ABOVE) == _crvz_full_pair(3, ABOVE)
        assert len(forks) == 1
        _assert_no_child()
        want = render_decimal(beta_odd_exact(1), ABOVE).decimal_str()
        assert beta_series(3, ABOVE).decimal_str() == want
        assert len(forks) == 2
        _assert_no_child()

    def test_no_fork_in_the_cutoff_regime(self, forks):
        # at s = 10^4 one term is divided: a backward walk would take n - 1 idle steps
        assert beta_series(10**4, ABOVE).decimal_str() == "1." + "0" * ABOVE
        assert forks == []

    @pytest.mark.parametrize("failure", ["raises", "is killed", "exits 0 with no payload",
                                         "sends a short payload, then exits 0",
                                         "sends a wrong sum, then exits 1"])
    def test_a_failing_child_yields_the_same_pair(self, forks, failure, monkeypatch):
        parent, real, pipes, real_pipe = os.getpid(), betavalues._backward_sum, [], os.pipe
        monkeypatch.setattr(os, "pipe", lambda: pipes.append(real_pipe()) or pipes[-1])

        def backward(*args):
            if os.getpid() == parent:
                return real(*args)
            if failure == "raises":
                raise RuntimeError("child fails")
            if failure == "is killed":
                os.kill(os.getpid(), signal.SIGKILL)
            wrong = real(*args) + 1
            body = wrong.to_bytes((wrong.bit_length() + 8) // 8, "little", signed=True)
            if failure.startswith("sends a short"):
                os.write(pipes[0][1], (len(body) + 1).to_bytes(8, "little") + body)
            elif failure.startswith("sends a wrong"):
                os.write(pipes[0][1], len(body).to_bytes(8, "little") + body)
                os._exit(1)
            os._exit(0)

        monkeypatch.setattr(betavalues, "_backward_sum", backward)
        assert _beta_accelerated(3, ABOVE) == _crvz_full_pair(3, ABOVE)
        assert len(forks) == 1
        _assert_no_child()

    def test_a_parent_exception_kills_and_reaps_the_child(self, forks, monkeypatch):
        pipes, real_pipe = [], os.pipe
        monkeypatch.setattr(os, "pipe", lambda: pipes.append(real_pipe()) or pipes[-1])

        def interrupted(*args):
            raise KeyboardInterrupt

        monkeypatch.setattr(betavalues, "_forward_sum", interrupted)
        with pytest.raises(KeyboardInterrupt):
            _beta_accelerated(3, ABOVE)
        assert len(forks) == 1
        _assert_no_child()
        for fd in pipes[0]:
            with pytest.raises(OSError):
                os.fstat(fd)

    def test_an_ignored_sigchld_changes_nothing(self, forks, monkeypatch):
        # the system then reaps the child itself, and waitpid finds none
        old = signal.signal(signal.SIGCHLD, signal.SIG_IGN)
        try:
            assert _beta_accelerated(3, ABOVE) == _crvz_full_pair(3, ABOVE)
            monkeypatch.setattr(betavalues, "_forward_sum", lambda *args: 1 // 0)
            with pytest.raises(ZeroDivisionError):
                _beta_accelerated(3, ABOVE)
        finally:
            signal.signal(signal.SIGCHLD, old)
        assert len(forks) == 2
        _assert_no_child()

    def test_a_failed_fork_sums_in_process(self, monkeypatch):
        pipes, real_pipe = [], os.pipe
        monkeypatch.setattr(os, "pipe", lambda: pipes.append(real_pipe()) or pipes[-1])
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)

        def no_process():
            raise BlockingIOError(11, "Resource temporarily unavailable")

        monkeypatch.setattr(os, "fork", no_process)
        assert _beta_accelerated(3, ABOVE) == _crvz_full_pair(3, ABOVE)
        for fd in pipes[0]:
            with pytest.raises(OSError):
                os.fstat(fd)

    def test_no_fork_beside_a_second_thread(self, forks):
        release = threading.Event()
        thread = threading.Thread(target=release.wait)
        thread.start()
        try:
            assert _beta_accelerated(3, ABOVE) == _crvz_full_pair(3, ABOVE)
        finally:
            release.set()
            thread.join(timeout=10)
        assert not thread.is_alive()
        assert forks == []

    def test_no_fork_on_one_usable_cpu(self, forks, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        assert _beta_accelerated(3, ABOVE) == _crvz_full_pair(3, ABOVE)
        assert forks == []
        # where affinity cannot be read, the CPU count decides
        monkeypatch.delattr(os, "sched_getaffinity")
        for cpus, want in ((1, 0), (None, 0), (2, 1)):
            monkeypatch.setattr(os, "cpu_count", lambda: cpus)
            assert _beta_accelerated(3, ABOVE) == _crvz_full_pair(3, ABOVE)
            assert len(forks) == want, cpus

    def test_no_fork_where_the_platform_has_none(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        monkeypatch.delattr(os, "fork")
        assert _beta_accelerated(3, ABOVE) == _crvz_full_pair(3, ABOVE)

    def test_the_child_flushes_no_buffer_and_runs_no_atexit_handler(self):
        # stdout is a pipe, so the marker waits in the buffer across the fork
        code = (
            "import atexit, os, sys; from betakit import beta_series\n"
            "os.sched_getaffinity = lambda pid: {0, 1}; real, forks = os.fork, []\n"
            "os.fork = lambda: forks.append(1) or real()\n"
            "atexit.register(print, 'atexit')\n"
            "sys.stdout.write('unflushed\\n')\n"
            f"beta_series(3, {ABOVE}); sys.stderr.write(str(len(forks)))\n"
        )
        r = subprocess.run([sys.executable, "-c", code], capture_output=True, timeout=60)
        assert r.returncode == 0, r.stderr
        assert r.stderr == b"1"
        assert r.stdout == b"unflushed\natexit\n"


def pi_floor_margin(top_bits: int) -> tuple[float, int]:
    """(m, bits): the least m over bits 40..top_bits, and the bits where it occurs.

    pi 2^bits lies at least m 2^bits 10^-(bits // 3 + 1) from the nearest
    integer.  m > 1 means that every pi within pi_fraction(bits // 3 + 1)'s
    error bound floors to the same fixed-point P at that bits, so the P that
    pi_power truncates from a more precise pi is the one a fresh pi gives.
    pi is the tests' own machin_pi, 20 digits past the largest bound; each
    ratio is floored to a multiple of 2^-20 and lowered by one, which covers
    machin_pi's error of under 10^-20 in the ratio.
    """
    pi = machin_pi(top_bits // 3 + 21)
    num, den = pi.numerator, pi.denominator
    worst, at = None, 0
    r = (num << 39) % den  # pi 2^bits mod 1 is r / den
    for bits in range(40, top_bits + 1):
        r = 2 * r
        if r >= den:
            r -= den
        m = (min(r, den - r) * 10 ** (bits // 3 + 1) << 20) // (den << bits) - 1
        if worst is None or m < worst:
            worst, at = m, bits
    return worst / 2**20, at


class TestOnePiPerProcess:
    """pi_power's stored fixed-point pi changes no value, whatever the call order."""

    GRID_BITS = (40, 41, 43, 53, 64, 100, 333, 1000, 1024, 2049, 4000, 6000)
    GRID_Q = [sign * j for j in range(1, 302) for sign in (1, -1)]

    def _grid(self, bits_order) -> dict:
        return {(q, bits): pi_power(q, bits) for bits in bits_order for q in self.GRID_Q}

    def test_grid_independent_of_call_order(self, monkeypatch):
        cold = {}
        for bits in self.GRID_BITS:
            # nothing stored: pi summed at exactly these bits
            monkeypatch.setattr(highprec, "_pi_fixed", (0, 0))
            cold.update(self._grid([bits]))
        pi_power(1, 20000)
        after_big = self._grid(self.GRID_BITS)
        monkeypatch.setattr(highprec, "_pi_fixed", (0, 0))
        increasing = self._grid(self.GRID_BITS)
        assert after_big == cold
        assert increasing == cold

    def test_a_request_below_the_stored_bits_sums_no_pi(self, monkeypatch):
        calls = []
        fresh = highprec.pi_fraction
        monkeypatch.setattr(highprec, "_pi_fixed", (0, 0))
        monkeypatch.setattr(highprec, "pi_fraction", lambda d: calls.append(d) or fresh(d))
        pi_power(3, 5000)
        assert calls == [5000 // 3 + 1]
        for bits in (40, 64, 4999, 5000):
            pi_power(-7, bits)
        assert calls == [5000 // 3 + 1]
        pi_power(1, 5001)
        assert calls == [5000 // 3 + 1, 5001 // 3 + 1]
        assert highprec._pi_fixed[0] == 5001

    def test_truncated_pi_is_the_fresh_pi_to_4000_bits(self):
        # CI runs the same check to 20,000 bits; the minimum stays at 43
        margin, bits = pi_floor_margin(4000)
        assert (math.floor(margin * 100), bits) == (1078, 43)


class TestErrorBudgets:
    """Each kernel meets the floor-loss budget its docstring proves."""

    def test_series_floor_losses_below_guard(self):
        for s in (1, 2, 7, 41):
            for digits in (1, 13, 101, 400):
                err = abs(F(*_beta_accelerated(s, digits)) - _crvz_exact_sum(s, digits))
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


class TestOneGcdPerValue:
    """Intermediates stay unreduced integer pairs: one gcd per exact value returned."""

    V, W = PiPowerValue(F(-7, 3), 9), aux_integral_J_closed(3, 2)  # pi^9 and pi^-8
    WARM_CALLS = {
        "beta_odd_exact": (lambda: beta_odd_exact(40), 1),
        "beta_odd_exact_via_euler": (lambda: beta_odd_exact_via_euler(40), 1),
        "render_decimal": (lambda: render_decimal(TestOneGcdPerValue.V, 30), 1),
        "render_decimal_reciprocal": (lambda: render_decimal(TestOneGcdPerValue.W, 12), 1),
        "beta_series": (lambda: beta_series(3, 30), 1),
        "float(PiPowerValue)": (lambda: float(TestOneGcdPerValue.V), 0),
    }

    @pytest.mark.parametrize("name", list(WARM_CALLS))
    def test_gcds_per_warm_call(self, name, monkeypatch):
        call, want = self.WARM_CALLS[name]
        call()  # grows the tables and the stored pi
        real, gcds = math.gcd, []
        monkeypatch.setattr(math, "gcd", lambda *a: gcds.append(a) or real(*a))
        call()
        monkeypatch.undo()
        assert len(gcds) == want, gcds


class TestBeyondIntStrLimit:
    """More digits than str(int) converts by default (4300 from Python 3.11)."""

    def test_decimal_str_of_a_third(self):
        assert HighPrecisionReal(F(1, 3), 5000).decimal_str() == "0." + "3" * 5000

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
    @staticmethod
    def render(x, places):
        return HighPrecisionReal(x, places).decimal_str()

    def test_round_half_even(self):
        assert self.render(F(25, 1000), 2) == "0.02"
        assert self.render(F(35, 1000), 2) == "0.04"
        assert self.render(F(-25, 1000), 2) == "-0.02"
        assert self.render(F(251, 10000), 2) == "0.03"

    def test_padding_and_sign(self):
        assert self.render(F(1, 2), 4) == "0.5000"
        assert self.render(F(-3, 2), 3) == "-1.500"
        assert self.render(F(0), 3) == "0.000"
        # no places: no point, and ties still go to the even integer
        assert self.render(F(5, 2), 0) == "2"
        assert self.render(F(-7, 2), 0) == "-4"
        assert self.render(F(0), 0) == "0"

    def test_matches_stdlib_round(self):
        # round(x, p) on a Fraction also rounds half to even: the printed
        # digits read back as exactly that value
        for x in (F(123456789, 100000), F(25, 1000), F(-35, 1000), F(5, 2), F(-1, 3), F(0)):
            for places in range(6):
                assert F(self.render(x, places)) == round(x, places), (x, places)

    def test_negative_places_refused(self):
        for render in (self.render, lambda x, p: HighPrecisionReal(x, 5).decimal_str(p)):
            with pytest.raises(ValueError, match="places must be >= 0"):
                render(F(1, 3), -1)

    @pytest.mark.parametrize("places", [2.0, 2.5, F(2), "2"])
    def test_non_integer_places_refused(self, places):
        message = f"^places must be an integer, not {type(places).__name__}$"
        for render in (self.render, lambda x, p: HighPrecisionReal(x, 5).decimal_str(p)):
            with pytest.raises(TypeError, match=message):
                render(F(1, 3), places)

    @pytest.mark.parametrize("x", [1.5, 0.1, "1/3", None])
    def test_non_rational_value_refused(self, x):
        message = f"^value must be an int or a Fraction, not {type(x).__name__}$"
        with pytest.raises(TypeError, match=message):
            self.render(x, 3)

    def test_int_x_is_exact(self):
        assert self.render(-7, 2) == "-7.00"

    def test_bool_places_are_ints(self):
        assert HighPrecisionReal(F(1, 3), 5).decimal_str(True) == "0.3"
