"""Certified arbitrary-precision real values.

A :class:`HighPrecisionReal` is an exact rational approximation of some
target real, tagged with the number of decimal digits it is guaranteed to
match the target to.  The invariant |value - target| < 10^-guaranteed_digits
is maintained by the producing operation, not rechecked here.

pi itself comes from the Chudnovsky series, summed by binary splitting
into one exact fraction (Haible & Papanikolaou, "Fast multiprecision
evaluation of series of rational numbers", 1998) and scaled to an integer
with one square root and one floor division.  The alternating tail is
bounded by its first omitted term and each floor loses less than one
scaled unit, so 10 guard digits dominate both by a wide margin.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from .exact import ValueClass, _set_field, digit_string

__all__ = [
    "BudgetExceededError",
    "HighPrecisionReal",
    "decimal_string",
    "pi_fraction",
    "quantize",
]

_PI_GUARD_DIGITS = 10


class BudgetExceededError(RuntimeError):
    """A numeric routine would exceed its evaluation or term budget."""


# 640320^3 / 24: the k^3 factor of the Chudnovsky term ratio's denominator
_CHUDNOVSKY_Q = 640320**3 // 24


def _chudnovsky_split(a: int, b: int) -> tuple[int, int, int]:
    """Binary splitting of the Chudnovsky terms a .. b-1 into (P, Q, T).

    With p(k) = (6k-5)(2k-1)(6k-1), q(k) = k^3 640320^3 / 24 and
    p(0) = q(0) = 1, P and Q are the products of p and q over the range and
    T = sum_k (-1)^k (13591409 + 545140134 k) P(a, k+1) Q(k+1, b), so that
    the first N terms of the series sum to exactly T(0, N) / Q(0, N).
    """
    if b - a == 1:
        if a == 0:
            p = q = 1
        else:
            p = (6 * a - 5) * (2 * a - 1) * (6 * a - 1)
            q = a * a * a * _CHUDNOVSKY_Q
        t = p * (13591409 + 545140134 * a)
        return p, q, -t if a & 1 else t
    m = (a + b) // 2
    p1, q1, t1 = _chudnovsky_split(a, m)
    p2, q2, t2 = _chudnovsky_split(m, b)
    return p1 * p2, q1 * q2, q2 * t1 + p1 * t2


@lru_cache(maxsize=32)
def pi_fraction(digits: int) -> Fraction:
    """pi as an exact rational with |pi_fraction(d) - pi| < 10^-d.

    Chudnovsky: pi = 426880 sqrt(10005) / sum_k t_k with
    t_k = (-1)^k (6k)! (13591409 + 545140134 k) / ((3k)! (k!)^3 640320^(3k)).
    The terms alternate in sign.  Each term is below 10^-14 of the one
    before it (6.6e-15 at most), except that t_1 is 1.9e-14 of t_0, so
    |t_N| < 2 10^-14N t_0.  Summing N = (d + 10) // 14 + 1 terms, so that
    14N >= d + 11, leaves a relative tail below 2 10^-(d+11): under one unit
    of 10^-(d+10) in pi.  isqrt loses less than one unit of sqrt(10005),
    which the factor 426880 Q / T ~ pi / sqrt(10005) shrinks to 0.04 units,
    and the last floor division loses less than one: under 2 units of
    10^-(d+10) together, so 10 guard digits cover all three losses.
    """
    if digits < 1:
        raise ValueError("digits must be >= 1")
    unity = 10 ** (digits + _PI_GUARD_DIGITS)
    _, q, t = _chudnovsky_split(0, (digits + _PI_GUARD_DIGITS) // 14 + 1)
    root = math.isqrt(10005 * unity * unity)
    return Fraction(426880 * root * q // t, unity)


def _round_half_even_scaled(x: Fraction, places: int) -> int:
    """Nearest integer to x * 10^places, ties to even."""
    scaled = x * 10**places
    q, r = divmod(scaled.numerator, scaled.denominator)
    # divmod on a negative numerator floors, so r >= 0 and q is the floor;
    # round-half-even then only needs to compare the remainder to 1/2.
    twice = 2 * r
    if twice > scaled.denominator or (twice == scaled.denominator and q % 2 != 0):
        q += 1
    return q


def quantize(x: Fraction, places: int) -> Fraction:
    """Round x to the nearest multiple of 10^-places (ties to even)."""
    return Fraction(_round_half_even_scaled(x, places), 10**places)


def decimal_string(x: Fraction, places: int) -> str:
    """Fixed-point decimal rendering of x with `places` digits, half-even."""
    if places < 0:
        raise ValueError("places must be >= 0")
    q = _round_half_even_scaled(x, places)
    sign = "-" if q < 0 else ""
    digits = digit_string(abs(q)).rjust(places + 1, "0")
    if places == 0:
        return sign + digits
    return f"{sign}{digits[:-places]}.{digits[-places:]}"


class HighPrecisionReal(ValueClass):
    """Exact rational proxy for a real target, accurate to the stated digits."""

    def __init__(self, value: Fraction, guaranteed_digits: int) -> None:
        _set_field(self, "value", value)
        _set_field(self, "guaranteed_digits", guaranteed_digits)

    def decimal_str(self, places: int | None = None) -> str:
        if places is None:
            places = self.guaranteed_digits
        return decimal_string(self.value, places)

    def __float__(self) -> float:
        return float(self.value)
