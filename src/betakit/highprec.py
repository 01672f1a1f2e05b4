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
scaled unit, so 10 guard digits dominate both by a wide margin.  Every
power of pi in the package comes from one kernel with one bound,
_pi_power_ratio, which returns the power as an unreduced integer pair;
pi_power is that pair as a Fraction.

There is one fixed-point pi per process: the kernel keeps floor(pi 2^B) for
the largest B asked for so far, and a request for fewer bits truncates it
instead of summing the series again; the stored pi only grows.  A check
against an independent pi found pi 2^bits at least 10.78 error bounds of
pi_fraction(bits // 3 + 1) from an integer for every bits in 40..20000
(closest at bits = 43), so up to 20,000 bits the truncated pi is the very
integer a fresh computation at that precision would give, whatever the
call order.  Every rounding to decimal places runs through one integer
kernel, _round_ratio, on a numerator and a denominator, so no rounding
first normalises a product with a gcd: rounding g a / (g b) gives the
integer that rounding a / b gives.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from functools import lru_cache

from .exact import ValueClass, _set_field, digit_string

__all__ = [
    "BudgetExceededError",
    "HighPrecisionReal",
    "pi_fraction",
    "pi_power",
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


# typed, so that pi_fraction(5.0) is refused even after pi_fraction(5)
@lru_cache(maxsize=32, typed=True)
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
    digits = _as_int(digits, "digits")
    if digits < 1:
        raise ValueError("digits must be >= 1")
    unity = 10 ** (digits + _PI_GUARD_DIGITS)
    _, q, t = _chudnovsky_split(0, (digits + _PI_GUARD_DIGITS) // 14 + 1)
    root = math.isqrt(10005 * unity * unity)
    return Fraction(426880 * root * q // t, unity)


# (B, floor(pi_fraction(B // 3 + 1) 2^B)) for the most bits the pi-power
# kernel was asked for; replaced as one tuple, so a reader never sees half of a pair
_pi_fixed = (0, 0)


def _pi_power_ratio(q: int, bits: int) -> tuple[int, int]:
    """pi^q as an integer pair (num, den), within |q| 2^-bits relative.

    For q != 0 and bits >= max(40, bitlength(q)).  The pair is (x, 2^bits)
    for q > 0 and (2^bits, x) for q < 0, both positive and reduced by no
    gcd: callers round or divide it, and only pi_power builds a Fraction.
    Binary powering of P = floor(pi_B 2^bits), each product truncated to
    `bits` fractional bits; q < 0 takes the exact reciprocal.  pi_B is
    pi_fraction(B // 3 + 1) for the largest B >= bits asked for so far in
    the process: P is floor(pi_B 2^B) shifted right by B - bits, which is
    floor(pi_B 2^bits), and only a request past B sums the series again,
    at exactly its own bits.  Proof for q > 0, for any call history, with
    u = 2^-bits and the fixed-point pi^j equal to 2^bits pi^j e^(L_j):
    |pi_B - pi| < 10^-(B // 3 + 1) <= 10^-(bits // 3 + 1) < 2^(-1.107 bits),
    so P is within 1 + 2^(-0.107 bits) < 1.06 units of 2^bits pi,
    |L_1| < 0.34 u, and the squarings and products with P add up to q L_1.
    Truncating a product v (in units) to y > v - 1 lowers L by
    ln(v / y) < 1 / (v - 1), under 1.7 u / pi^j where it forms pi^j with
    |L| <= 1/2, and later squarings scale that by at most q / j.  The j
    are distinct and >= 2, so the losses total under 1.7 q u sum_j
    1 / (j pi^j) < 0.12 q u.  Hence |L_q| < 0.46 q u < 1/2 (q u < 1), and
    |e^(L_q) - 1| <= |L_q| e^|L_q| < q u, for the reciprocal as well.
    """
    global _pi_fixed
    q = _as_int(q, "q")
    bits = _as_int(bits, "bits")
    if not q or bits < max(40, abs(q).bit_length()):
        raise ValueError("pi_power needs q != 0 and bits >= max(40, bitlength(q))")
    top, big = _pi_fixed
    if bits <= top:
        p = big >> (top - bits)
    else:
        pi = pi_fraction(bits // 3 + 1)
        p = (pi.numerator << bits) // pi.denominator
        _pi_fixed = (bits, p)
    x = p
    for bit in bin(abs(q))[3:]:
        x = x * x >> bits
        if bit == "1":
            x = x * p >> bits
    return (x, 1 << bits) if q > 0 else (1 << bits, x)


def pi_power(q: int, bits: int) -> Fraction:
    """pi^q within |q| 2^-bits relative, for q != 0 and bits >= max(40, bitlength(q)).

    The kernel's pair as a Fraction; see :func:`_pi_power_ratio`.
    """
    return Fraction(*_pi_power_ratio(q, bits))


def _as_int(value: object, name: str) -> int:
    """value as an int (bools included), or a TypeError that names it."""
    try:
        return operator.index(value)
    except TypeError:
        raise TypeError(f"{name} must be an integer, not {type(value).__name__}") from None


def _round_ratio(num: int, den: int, places: int) -> int:
    """The integer nearest num 10^places / den, for den > 0, ties to even."""
    q, r = divmod(num * 10**places, den)
    # divmod on a negative numerator floors, so r >= 0 and q is the floor;
    # round-half-even then only needs to compare the remainder to den / 2.
    twice = 2 * r
    if twice > den or (twice == den and q & 1):
        q += 1
    return q


class HighPrecisionReal(ValueClass):
    """Exact rational proxy for a real target, accurate to the stated digits."""

    def __init__(self, value: Fraction, guaranteed_digits: int) -> None:
        _set_field(self, "value", value)
        _set_field(self, "guaranteed_digits", guaranteed_digits)

    def decimal_str(self, places: int | None = None) -> str:
        """Fixed-point decimal rendering of the value, half-even.

        `places` digits after the point, by default guaranteed_digits.
        """
        x = self.value
        if not isinstance(x, (int, Fraction)):
            raise TypeError(f"value must be an int or a Fraction, not {type(x).__name__}")
        places = _as_int(self.guaranteed_digits if places is None else places, "places")
        if places < 0:
            raise ValueError("places must be >= 0")
        q = _round_ratio(x.numerator, x.denominator, places)
        sign = "-" if q < 0 else ""
        digits = digit_string(abs(q)).rjust(places + 1, "0")
        if places == 0:
            return sign + digits
        return f"{sign}{digits[:-places]}.{digits[-places:]}"

    def __float__(self) -> float:
        return float(self.value)
