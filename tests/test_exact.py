"""Exact rational/polynomial layer: frozen examples and canonical forms."""

from __future__ import annotations

import math
from fractions import Fraction

import pytest
from conftest import chunked_digits
from hypothesis import given, settings
from hypothesis import strategies as st

from betakit.exact import RationalPolynomial, rational_str, taylor_shift

F = Fraction
E2 = RationalPolynomial.from_coefficients([0, -1, 1])  # x^2 - x
E3 = RationalPolynomial.from_coefficients([F(1, 4), 0, F(-3, 2), 1])  # x^3 - 3/2 x^2 + 1/4
B3 = RationalPolynomial.from_coefficients([0, F(1, 2), F(-3, 2), 1])  # x^3 - 3/2 x^2 + 1/2 x


class TestPolyEval:
    def test_e2_at_half(self):
        assert E2(F(1, 2)) == F(-1, 4)

    def test_zero_poly(self):
        assert RationalPolynomial(1, ())(F(17, 3)) == 0

    def test_b3_at_quarter(self):
        # oracle: direct bignum arithmetic, (1/4)^3 - (3/2)(1/4)^2 + (1/2)(1/4)
        expected = F(1, 4) ** 3 - F(3, 2) * F(1, 4) ** 2 + F(1, 2) * F(1, 4)
        assert expected == F(3, 64)
        assert B3(F(1, 4)) == F(3, 64)

    def test_integer_point_fast_path(self):
        assert E3(2) == 8 - 6 + F(1, 4)

    def test_result_is_canonical(self):
        v = E2(F(2, 4))
        assert v.denominator > 0
        assert v == F(-1, 4)


class TestTaylorShift:
    @given(st.lists(st.integers(min_value=-10**40, max_value=10**40), max_size=14))
    @settings(max_examples=80, deadline=None, derandomize=True)
    def test_taylor_shift_matches_binomial_sums(self, nums):
        # coefficient j of p(x + 1) is sum_i C(i, j) c_i
        want = [sum(math.comb(i, j) * c for i, c in enumerate(nums)) for j in range(len(nums))]
        assert taylor_shift(nums) == want


class TestRationalSerialization:
    def test_integer_form(self):
        assert rational_str(F(5)) == "5"
        assert rational_str(F(-7, 1)) == "-7"

    def test_fraction_form(self):
        assert rational_str(F(-3, 2)) == "-3/2"

    def test_round_trip(self):
        for s in ["0", "-1/2", "355/113"]:
            assert rational_str(F(s)) == s

    def test_past_the_int_str_limit(self):
        # 4401 digits: more than str(int) converts by default from Python 3.11
        big = 10**4400 + 1
        assert rational_str(F(big, 3)) == chunked_digits(big) + "/3"
        assert rational_str(F(-big, 3)) == "-" + chunked_digits(big) + "/3"
        assert rational_str(F(3, big)) == "3/" + chunked_digits(big)


class TestCanonicalForm:
    def test_trailing_zeros_stripped(self):
        p = RationalPolynomial.from_coefficients([1, 2, 0, 0])
        assert p.degree == 1
        # a coefficient past the degree, or below 0, is 0
        assert [p.coefficient(i) for i in range(-1, 4)] == [0, 1, 2, 0, 0]

    def test_zero_polynomial_degree(self):
        assert RationalPolynomial(1, ()).degree == -1
        assert RationalPolynomial.from_coefficients([0, 0]).degree == -1

    @given(
        st.integers(1, 10**6),
        st.lists(st.integers(-(10**6), 10**6), max_size=8),
        st.integers(1, 10**6),
        st.integers(0, 3),
    )
    @settings(max_examples=100, deadline=None, derandomize=True)
    def test_constructor_reduces_to_one_form(self, den, nums, g, zeros):
        p = RationalPolynomial(den, nums)
        scaled = RationalPolynomial(den * g, [c * g for c in nums] + [0] * zeros)
        assert scaled == p
        assert hash(scaled) == hash(p)
        assert (scaled.den, scaled.nums) == (p.den, p.nums)
        assert not p.nums or p.nums[-1] != 0
        assert p == RationalPolynomial.from_coefficients(F(c, den) for c in nums)
        assert RationalPolynomial(den, [0] * zeros) == RationalPolynomial(1, ())
        z = RationalPolynomial(5, (0, 0))
        assert (z, z.den, z.nums, z.degree) == (RationalPolynomial(1, ()), 1, (), -1)
        for bad in (0, -den):
            with pytest.raises(ValueError):
                RationalPolynomial(bad, nums)


