"""The tests' own polynomial (``conftest.fpoly``), held to references of its own.

The reference identity suite and the table oracles run on this polynomial, so
it is checked here by routes that share no code with it: Horner composition on
Fraction lists, pointwise evaluation and central differences.  The package
kernels that stay (``taylor_shift``, evaluation ``p(x)`` and the row's canonical
coefficient tuple) are then held equal to it, and the series oracles to the
Appell and Bernoulli-sum recurrences.
"""

from __future__ import annotations

from fractions import Fraction

import pytest
from conftest import (
    akiyama_tanigawa_bernoulli,
    appell_euler_table,
    bernoulli_poly_oracle,
    bernoulli_sum_table,
    euler_from_bernoulli,
    fpoly,
    fpoly_add,
    fpoly_compose,
    fpoly_derivative,
    fpoly_eval,
    fpoly_scale,
    gf_euler_numbers,
    gf_euler_poly_oracle,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from betakit.exact import RationalPolynomial, taylor_shift

F = Fraction
E2 = fpoly([0, -1, 1])  # x^2 - x
E3 = fpoly([F(1, 4), 0, F(-3, 2), 1])  # x^3 - 3/2 x^2 + 1/4

rationals = st.fractions(min_value=-1000, max_value=1000, max_denominator=1000)
coefficient_lists = st.lists(rationals, max_size=10)
polys = coefficient_lists.map(fpoly)


def _fraction_horner_compose(p, a, b):
    # reference: Horner on Fraction coefficient lists, acc <- acc * (a x + b) + c_i
    if not p:
        return []
    acc = [p[-1]]
    for c in reversed(p[:-1]):
        nxt = [F(0)] * (len(acc) + 1)
        for j, cj in enumerate(acc):
            nxt[j] += cj * b
            nxt[j + 1] += cj * a
        nxt[0] += c
        acc = nxt
    while acc and acc[-1] == 0:
        acc.pop()
    return acc


def _ref_add(a, b, sign: int = 1) -> list:
    n = max(len(a), len(b))
    a, b = list(a) + [F(0)] * (n - len(a)), list(b) + [F(0)] * (n - len(b))
    out = [x + sign * y for x, y in zip(a, b)]
    while out and out[-1] == 0:
        out.pop()
    return out


def _assert_canonical(r, expected) -> None:
    assert r == list(expected)
    assert all(type(c) is F for c in r)
    assert not r or r[-1] != 0


class TestDerivative:
    def test_e3_prime_is_3_e2(self):
        assert fpoly_derivative(E3) == fpoly_scale(3, E2)

    def test_constant(self):
        assert fpoly_derivative(fpoly([5])) == []

    def test_x_to_fifth(self):
        assert fpoly_derivative(fpoly([0] * 5 + [1])) == fpoly([0] * 4 + [5])


class TestCompose:
    def test_e3_reflection(self):
        assert fpoly_compose(E3, -1, 1) == fpoly_scale(-1, E3)

    def test_identity_substitution(self):
        assert fpoly_compose(E3, 1, 0) == E3

    def test_e2_shift_sum(self):
        shifted = fpoly_compose(E2, 1, 1)
        assert shifted == fpoly([0, 1, 1])
        assert fpoly_add(shifted, E2) == fpoly([0, 0, 2])

    def test_constant_substitution_trims_to_value(self):
        # a = 0 collapses p to the constant p(b); E2 = x^2 - x vanishes at 1
        assert fpoly_compose(E2, 0, 1) == []
        assert fpoly_compose(E2, 0, F(1, 2)) == [F(-1, 4)]

    @given(
        polys,
        st.one_of(st.just(F(0)), rationals),
        st.one_of(st.just(F(0)), rationals),
    )
    @settings(max_examples=150, deadline=None, derandomize=True)
    def test_matches_fraction_horner(self, p, a, b):
        q = fpoly_compose(p, a, b)
        _assert_canonical(q, _fraction_horner_compose(p, a, b))
        if a == 0:
            assert len(q) <= 1

    @pytest.mark.parametrize(
        "a, b",
        [(F(2, 3), F(-5, 4)), (F(0), F(3, 7)), (F(1, 6), F(0)), (F(0), F(0)),
         (F(1, 2), F(1, 2)), (F(-1), F(1)), (F(1), F(-1)), (F(3), F(-2))],
    )
    def test_mixed_denominators_and_zeros(self, a, b):
        p = fpoly([F(1, 4), F(-2, 9), 0, F(5, 2)])
        assert fpoly_compose(p, a, b) == _fraction_horner_compose(p, a, b)
        assert fpoly_compose([], a, b) == []


class TestOperationsAgainstFractionReference:
    """Each operation equals the same operation written out on padded lists."""

    @given(polys, polys)
    @settings(max_examples=80, deadline=None, derandomize=True)
    def test_add_and_sub(self, p, q):
        _assert_canonical(fpoly_add(p, q), _ref_add(p, q))
        _assert_canonical(fpoly_add(p, fpoly_scale(-1, q)), _ref_add(p, q, -1))

    @given(polys, st.lists(rationals, max_size=4))
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_cancellation_lowers_the_degree(self, p, r):
        # q = r - p cancels p's leading terms, so p + q = r has degree <= 3
        q = fpoly(_ref_add(r, p, -1))
        _assert_canonical(fpoly_add(p, q), _ref_add(p, q))
        assert len(fpoly_add(p, q)) <= 4
        _assert_canonical(fpoly_add(p, fpoly_scale(-1, p)), [])

    @given(polys)
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_neg_and_derivative(self, p):
        _assert_canonical(fpoly_scale(-1, p), [-c for c in p])
        _assert_canonical(fpoly_derivative(p), fpoly([i * c for i, c in enumerate(p)][1:]))

    @given(polys, st.one_of(st.just(0), st.just(F(0)), st.integers(-50, 50), rationals))
    @settings(max_examples=80, deadline=None, derandomize=True)
    def test_scalar_multiple(self, p, s):
        _assert_canonical(fpoly_scale(s, p), [] if s == 0 else [c * s for c in p])

    def test_zero_polynomial(self):
        z = fpoly([])
        for r in (fpoly_add(z, z), fpoly_scale(-1, z), fpoly_scale(7, z),
                  fpoly_derivative(z), fpoly_compose(z, 2, 1)):
            _assert_canonical(r, [])
        assert fpoly_eval(z, F(17, 3)) == 0


class TestAlgebraicProperties:
    @given(polys, polys, rationals)
    @settings(max_examples=60, deadline=None)
    def test_eval_additive(self, p, q, x):
        assert fpoly_eval(fpoly_add(p, q), x) == fpoly_eval(p, x) + fpoly_eval(q, x)

    @given(polys)
    @settings(max_examples=60, deadline=None)
    def test_reflection_involution(self, p):
        assert fpoly_compose(fpoly_compose(p, -1, 1), -1, 1) == p

    @given(polys, rationals, rationals, rationals)
    @settings(max_examples=40, deadline=None)
    def test_compose_matches_pointwise(self, p, a, b, x):
        assert fpoly_eval(fpoly_compose(p, a, b), x) == fpoly_eval(p, a * x + b)

    @given(polys, rationals)
    @settings(max_examples=30, deadline=None)
    def test_derivative_matches_central_difference(self, p, x):
        # exact arithmetic: |(p(x+h)-p(x-h))/(2h) - p'(x)| <= C h^2 with
        # C = sum_{j>=3} |p^(j)(x)|/j!, the Taylor remainder constant (h <= 1)
        d = fpoly_eval(fpoly_derivative(p), x)
        c_bound = F(1)
        cur = fpoly_derivative(fpoly_derivative(fpoly_derivative(p)))
        j, fact = 3, 6
        while cur:
            c_bound += abs(fpoly_eval(cur, x)) / fact
            cur = fpoly_derivative(cur)
            j += 1
            fact *= j
        for h in [F(1, 10**3), F(1, 10**4), F(1, 10**5)]:
            fd = (fpoly_eval(p, x + h) - fpoly_eval(p, x - h)) / (2 * h)
            assert abs(fd - d) <= c_bound * h * h


class TestCanonicalForm:
    def test_trailing_zeros_are_stripped(self):
        _assert_canonical(fpoly([1, 0, 0]), [F(1)])
        _assert_canonical(fpoly([0, 0]), [])
        _assert_canonical(fpoly([0, F(2, 4), 0]), [F(0), F(1, 2)])

    @given(polys)
    @settings(max_examples=60, deadline=None)
    def test_operations_preserve_canonical_form(self, p):
        for q in [fpoly_add(p, p), fpoly_scale(-1, p), fpoly_derivative(p),
                  fpoly_compose(p, F(1, 2), 3)]:
            assert not q or q[-1] != 0


class TestPackageKernelsAgainstOracle:
    """The package's row interface and shift kernel equal the tests' polynomial."""

    @given(st.lists(st.integers(min_value=-10**40, max_value=10**40), max_size=14))
    @settings(max_examples=80, deadline=None, derandomize=True)
    def test_taylor_shift_equals_compose_at_one(self, nums):
        # taylor_shift(c) is p(x + 1); the oracle expands (x + 1)^i directly
        assert fpoly(taylor_shift(nums)) == fpoly_compose(fpoly(nums), 1, 1)

    @given(coefficient_lists, rationals)
    @settings(max_examples=80, deadline=None, derandomize=True)
    def test_call_equals_oracle_eval(self, cs, x):
        assert RationalPolynomial.from_coefficients(cs)(x) == fpoly_eval(fpoly(cs), x)

    @given(coefficient_lists)
    @settings(max_examples=80, deadline=None, derandomize=True)
    def test_row_coeffs_equal_oracle_list(self, cs):
        row = RationalPolynomial.from_coefficients(cs)
        assert list(row.coeffs) == fpoly(cs)
        assert row.degree == len(fpoly(cs)) - 1

    @given(coefficient_lists, coefficient_lists)
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_row_equality_follows_oracle_lists(self, cs, ds):
        p, q = RationalPolynomial.from_coefficients(cs), RationalPolynomial.from_coefficients(ds)
        assert (p == q) == (fpoly(cs) == fpoly(ds))
        # a list padded with zeros is the same row
        padded = RationalPolynomial.from_coefficients(list(cs) + [0, 0])
        assert padded == p and hash(padded) == hash(p)


# E_0 .. E_12, the OEIS A122045 values
EULER_NUMBERS_TO_12 = [1, 0, -1, 0, 5, 0, -61, 0, 1385, 0, -50521, 0, 2702765]


class TestSeriesOracles:
    def test_constant_and_linear_terms(self):
        assert gf_euler_numbers(1) == [1, 0]

    def test_n4(self):
        assert gf_euler_numbers(4)[4] == 5

    def test_all_up_to_12(self):
        assert gf_euler_numbers(12) == EULER_NUMBERS_TO_12

    def test_numbers_equal_appell_recurrence(self):
        # series division and the Appell recurrence at x = 1/2 are two routes
        assert gf_euler_numbers(30) == appell_euler_table(30)[1]

    def test_poly_oracle_equals_appell_rows(self):
        assert [gf_euler_poly_oracle(n) for n in range(13)] == appell_euler_table(12)[0]

    def test_bernoulli_oracle_equals_sum_recurrence(self):
        rows, nums = bernoulli_sum_table(12)
        assert [bernoulli_poly_oracle(n) for n in range(13)] == rows
        assert nums == akiyama_tanigawa_bernoulli(12)

    def test_euler_from_bernoulli_on_reference_rows(self):
        # (2^k / k)(B_k((x+1)/2) - B_k(x/2)) = E_(k-1)(x) on the Fraction tables
        euler_rows = appell_euler_table(12)[0]
        bernoulli_rows = bernoulli_sum_table(13)[0]
        for k in range(1, 14):
            assert euler_from_bernoulli(bernoulli_rows[k], k) == euler_rows[k - 1]
