"""mpmath as a third, independent oracle for the certified values.

beta(s) comes from mpmath's Dirichlet L-series with the character mod 4,
at 20 digits beyond the precision under test; both the series and the
rendered closed form must land within 10^-D of it.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

import pytest

from betakit.betavalues import beta_odd_exact, beta_series, render_decimal

mpmath = pytest.importorskip("mpmath")

DIGITS = (5, 13, 60, 250, 500)
# mpmath's s = 1 branch takes seconds at 500 digits, so s = 1 stops at 200
DIGITS_AT_S1 = (5, 60, 200)


@lru_cache(maxsize=None)
def _beta_reference(s: int, digits: int):
    with mpmath.workdps(digits + 20):
        return mpmath.dirichlet(s, [0, 1, 0, -1])


def _within(value: Fraction, s: int, digits: int) -> bool:
    with mpmath.workdps(digits + 20):
        approx = mpmath.mpf(value.numerator) / value.denominator
        return abs(approx - _beta_reference(s, digits)) < mpmath.mpf(10) ** -digits


@pytest.mark.parametrize(
    "s, digits",
    [(1, d) for d in DIGITS_AT_S1] + [(s, d) for s in (2, 3, 4, 7, 16, 31, 41) for d in DIGITS],
)
def test_series_within_certified_digits(s, digits):
    assert _within(beta_series(s, digits).value, s, digits)


@pytest.mark.parametrize(
    "k, digits",
    [(0, d) for d in DIGITS_AT_S1] + [(k, d) for k in (1, 2, 5, 10, 20) for d in DIGITS],
)
def test_rendered_closed_form_within_certified_digits(k, digits):
    value = render_decimal(beta_odd_exact(k), digits).value
    assert _within(value, 2 * k + 1, digits)
