"""Exact rational/polynomial layer: frozen examples and algebraic properties."""

from __future__ import annotations

import math
from fractions import Fraction

import pytest
from conftest import chunked_digits
from hypothesis import given, settings
from hypothesis import strategies as st

from betakit.exact import (
    RationalPolynomial,
    binomial,
    poly_compose_affine,
    poly_derivative,
    poly_eval,
    rational_from_str,
    rational_str,
    taylor_shift,
)

F = Fraction
E2 = RationalPolynomial.from_coefficients([0, -1, 1])  # x^2 - x
E3 = RationalPolynomial.from_coefficients([F(1, 4), 0, F(-3, 2), 1])  # x^3 - 3/2 x^2 + 1/4
B3 = RationalPolynomial.from_coefficients([0, F(1, 2), F(-3, 2), 1])  # x^3 - 3/2 x^2 + 1/2 x

rationals = st.fractions(min_value=-1000, max_value=1000, max_denominator=1000)
polys = st.lists(rationals, max_size=10).map(RationalPolynomial.from_coefficients)


class TestPolyEval:
    def test_e2_at_half(self):
        assert poly_eval(E2, F(1, 2)) == F(-1, 4)

    def test_zero_poly(self):
        assert poly_eval(RationalPolynomial.zero(), F(17, 3)) == 0

    def test_b3_at_quarter(self):
        # oracle: direct bignum arithmetic, (1/4)^3 - (3/2)(1/4)^2 + (1/2)(1/4)
        expected = F(1, 4) ** 3 - F(3, 2) * F(1, 4) ** 2 + F(1, 2) * F(1, 4)
        assert expected == F(3, 64)
        assert poly_eval(B3, F(1, 4)) == F(3, 64)

    def test_integer_point_fast_path(self):
        assert poly_eval(E3, 2) == 8 - 6 + F(1, 4)

    def test_result_is_canonical(self):
        v = poly_eval(E2, F(2, 4))
        assert v.denominator > 0
        assert v == F(-1, 4)


class TestPolyDerivative:
    def test_e3_prime_is_3_e2(self):
        assert poly_derivative(E3) == 3 * E2

    def test_constant(self):
        one = RationalPolynomial.from_coefficients([5])
        assert poly_derivative(one) == RationalPolynomial.zero()

    def test_x_to_fifth(self):
        x5 = RationalPolynomial.monomial(5)
        assert poly_derivative(x5) == RationalPolynomial.monomial(4, 5)


class TestComposeAffine:
    def test_e3_reflection(self):
        assert poly_compose_affine(E3, -1, 1) == -1 * E3

    def test_identity_substitution(self):
        assert poly_compose_affine(E3, 1, 0) == E3

    def test_e2_shift_sum(self):
        shifted = poly_compose_affine(E2, 1, 1)
        assert shifted == RationalPolynomial.from_coefficients([0, 1, 1])
        assert shifted + E2 == RationalPolynomial.monomial(2, 2)


def _fraction_horner_compose(p, a, b):
    # reference: Horner on Fraction coefficient lists, acc <- acc * (a x + b) + c_i
    if not p.coeffs:
        return []
    acc = [p.coeffs[-1]]
    for c in reversed(p.coeffs[:-1]):
        nxt = [F(0)] * (len(acc) + 1)
        for j, cj in enumerate(acc):
            nxt[j] += cj * b
            nxt[j + 1] += cj * a
        nxt[0] += c
        acc = nxt
    while acc and acc[-1] == 0:
        acc.pop()
    return acc


def _trim(cs: list) -> tuple:
    cs = [F(c) for c in cs]
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def _ref_add(a: tuple, b: tuple, sign: int = 1) -> tuple:
    n = max(len(a), len(b))
    a, b = list(a) + [F(0)] * (n - len(a)), list(b) + [F(0)] * (n - len(b))
    return _trim([x + sign * y for x, y in zip(a, b)])


def _assert_canonical(r: RationalPolynomial, expected: tuple) -> None:
    assert r.coeffs == expected
    assert all(type(c) is F for c in r.coeffs)
    assert not r.coeffs or r.coeffs[-1] != 0
    # the fields each operation stores are the ones the coefficients give
    assert r == RationalPolynomial.from_coefficients(r.coeffs)


class TestComposeAffineIntegerFold:
    @given(
        polys,
        st.one_of(st.just(F(0)), rationals),
        st.one_of(st.just(F(0)), rationals),
    )
    @settings(max_examples=150, deadline=None, derandomize=True)
    def test_matches_fraction_horner(self, p, a, b):
        q = poly_compose_affine(p, a, b)
        _assert_canonical(q, tuple(_fraction_horner_compose(p, a, b)))
        if a == 0:
            assert q.degree <= 0

    @pytest.mark.parametrize(
        "a, b",
        [(F(2, 3), F(-5, 4)), (F(0), F(3, 7)), (F(1, 6), F(0)), (F(0), F(0)),
         (F(1, 2), F(1, 2)), (F(-1), F(1)), (F(1), F(-1)), (F(3), F(-2))],
    )
    def test_mixed_denominators_and_zeros(self, a, b):
        p = RationalPolynomial.from_coefficients([F(1, 4), F(-2, 9), 0, F(5, 2)])
        assert list(poly_compose_affine(p, a, b).coeffs) == _fraction_horner_compose(p, a, b)
        assert poly_compose_affine(RationalPolynomial.zero(), a, b) == RationalPolynomial.zero()

    @given(st.lists(st.integers(min_value=-10**40, max_value=10**40), max_size=14))
    @settings(max_examples=80, deadline=None, derandomize=True)
    def test_taylor_shift_matches_binomial_sums(self, nums):
        # coefficient j of p(x + 1) is sum_i C(i, j) c_i
        want = [sum(math.comb(i, j) * c for i, c in enumerate(nums)) for j in range(len(nums))]
        assert taylor_shift(nums) == want

    def test_constant_substitution_trims_to_value(self):
        # a = 0 collapses p to the constant p(b); E2 = x^2 - x vanishes at 1
        assert poly_compose_affine(E2, 0, 1) == RationalPolynomial.zero()
        assert poly_compose_affine(E2, 0, F(1, 2)) == RationalPolynomial.from_coefficients([F(-1, 4)])


class TestBinomial:
    def test_small_values(self):
        assert binomial(4, 2) == 6
        assert binomial(10, 5) == 252

    @pytest.mark.parametrize("n", [0, 1, 7, 40])
    def test_k_zero(self, n):
        assert binomial(n, 0) == 1

    def test_k_greater_than_n_raises(self):
        with pytest.raises(ValueError):
            binomial(3, 4)

    def test_negative_raises(self):
        with pytest.raises(ValueError):
            binomial(-1, 0)


class TestRationalSerialization:
    def test_integer_form(self):
        assert rational_str(F(5)) == "5"
        assert rational_str(F(-7, 1)) == "-7"

    def test_fraction_form(self):
        assert rational_str(F(-3, 2)) == "-3/2"

    def test_round_trip(self):
        for s in ["0", "-1/2", "355/113"]:
            assert rational_str(rational_from_str(s)) == s

    def test_past_the_int_str_limit(self):
        # 4401 digits: more than str(int) converts by default from Python 3.11
        big = 10**4400 + 1
        assert rational_str(F(big, 3)) == chunked_digits(big) + "/3"
        assert rational_str(F(-big, 3)) == "-" + chunked_digits(big) + "/3"
        assert rational_str(F(3, big)) == "3/" + chunked_digits(big)

    @pytest.mark.parametrize(
        "q", [F(10**4400 + 1, 3), F(-(10**4400 + 1), 3), F(3, 10**4400 + 1)]
    )
    def test_round_trip_past_the_int_str_limit(self, q):
        assert rational_from_str(rational_str(q)) == q

    @pytest.mark.parametrize(
        "s", ["", "-", "1/", "/2", "1.5", " 1", "1_0", "1/-2", "--1", "1/0", "0/0", "-1/000"]
    )
    def test_rejects_non_rational_strings(self, s):
        with pytest.raises(ValueError):
            rational_from_str(s)


class TestCanonicalForm:
    def test_trailing_zeros_stripped(self):
        p = RationalPolynomial.from_coefficients([1, 2, 0, 0])
        assert p.degree == 1

    def test_zero_polynomial_degree(self):
        assert RationalPolynomial.zero().degree == -1
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
        assert RationalPolynomial(den, [0] * zeros) == RationalPolynomial.zero()
        z = RationalPolynomial(5, (0, 0))
        assert (z, z.den, z.nums, z.degree) == (RationalPolynomial.zero(), 1, (), -1)
        for bad in (0, -den):
            with pytest.raises(ValueError):
                RationalPolynomial(bad, nums)

    def test_monomial_rejects_negative_power(self):
        with pytest.raises(ValueError):
            RationalPolynomial.monomial(-1, 3)

    @given(polys)
    @settings(max_examples=60, deadline=None)
    def test_operations_preserve_canonical_form(self, p):
        for q in [p + p, -p, poly_derivative(p), poly_compose_affine(p, F(1, 2), 3)]:
            assert not q.coeffs or q.coeffs[-1] != 0


scalars = st.one_of(st.just(0), st.just(F(0)), st.integers(-50, 50), rationals)
# a lower-degree remainder r and p, so q = r - p cancels p's leading terms
cancelling = st.tuples(polys, st.lists(rationals, max_size=4)).map(
    lambda pr: (pr[0], RationalPolynomial.from_coefficients(
        _ref_add(tuple(pr[1]), pr[0].coeffs, -1)))
)


class TestOperationsAgainstFractionReference:
    """Each operation on integer forms equals the same operation in Fractions."""

    @given(polys, polys)
    @settings(max_examples=80, deadline=None, derandomize=True)
    def test_add_and_sub(self, p, q):
        _assert_canonical(p + q, _ref_add(p.coeffs, q.coeffs))
        _assert_canonical(p - q, _ref_add(p.coeffs, q.coeffs, -1))

    @given(cancelling)
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_cancellation_lowers_the_degree(self, pq):
        p, q = pq
        _assert_canonical(p + q, _ref_add(p.coeffs, q.coeffs))
        assert (p + q).degree <= 3
        _assert_canonical(p - p, ())
        _assert_canonical(p + (-p), ())

    @given(polys)
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_neg_and_derivative(self, p):
        _assert_canonical(-p, tuple(-c for c in p.coeffs))
        _assert_canonical(p.derivative(), _trim([i * c for i, c in enumerate(p.coeffs)][1:]))

    @given(polys, scalars)
    @settings(max_examples=80, deadline=None, derandomize=True)
    def test_scalar_multiple(self, p, s):
        expected = _trim([c * s for c in p.coeffs])
        _assert_canonical(p * s, expected)
        _assert_canonical(s * p, expected)

    def test_zero_polynomial(self):
        z = RationalPolynomial.zero()
        for r in (z + z, z - z, -z, z * 7, 3 * z, z.derivative(), z.compose_affine(2, 1)):
            _assert_canonical(r, ())


class TestAlgebraicProperties:
    @given(polys, polys, rationals)
    @settings(max_examples=60, deadline=None)
    def test_eval_additive(self, p, q, x):
        assert poly_eval(p + q, x) == poly_eval(p, x) + poly_eval(q, x)

    @given(polys)
    @settings(max_examples=60, deadline=None)
    def test_reflection_involution(self, p):
        assert poly_compose_affine(poly_compose_affine(p, -1, 1), -1, 1) == p

    @given(polys, rationals, rationals, rationals)
    @settings(max_examples=40, deadline=None)
    def test_compose_affine_matches_pointwise(self, p, a, b, x):
        assert poly_eval(poly_compose_affine(p, a, b), x) == poly_eval(p, a * x + b)

    @given(polys, rationals)
    @settings(max_examples=30, deadline=None)
    def test_derivative_matches_central_difference(self, p, x):
        # exact arithmetic: |(p(x+h)-p(x-h))/(2h) - p'(x)| <= C h^2 with
        # C = sum_{j>=3} |p^(j)(x)|/j!, the Taylor remainder constant (h <= 1)
        d = poly_eval(poly_derivative(p), x)
        c_bound = F(1)
        cur = poly_derivative(poly_derivative(poly_derivative(p)))
        j, fact = 3, 6
        while cur.coeffs:
            c_bound += abs(poly_eval(cur, x)) / fact
            cur = poly_derivative(cur)
            j += 1
            fact *= j
        for h in [F(1, 10**3), F(1, 10**4), F(1, 10**5)]:
            fd = (poly_eval(p, x + h) - poly_eval(p, x - h)) / (2 * h)
            assert abs(fd - d) <= c_bound * h * h
