"""Reference values the benchmark checks betakit's outputs against.

Each oracle takes a different route from the package: pi from Gauss's
arctangent formula (betakit uses Machin's), Euler numbers from the
Seidel-Entringer zigzag triangle in integers (betakit runs a polynomial
recurrence), Bernoulli numbers from the Akiyama-Tanigawa triangle, and
the mod-4 twisted Bernoulli numbers from the Euler numbers.  Stdlib only.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

_GUARD = 12


def _arctan_inv_scaled(x: int, unity: int) -> int:
    # arctan(1/x) * unity by the alternating Taylor series on integers
    total = 0
    term = unity // x
    xsq = x * x
    n = 1
    sign = 1
    while term:
        total += sign * (term // n)
        term //= xsq
        n += 2
        sign = -sign
    return total


@lru_cache(maxsize=None)
def pi_fraction(digits: int) -> Fraction:
    """pi within 10^-digits: pi = 48 atan(1/18) + 32 atan(1/57) - 20 atan(1/239)."""
    unity = 10 ** (digits + _GUARD)
    scaled = (
        48 * _arctan_inv_scaled(18, unity)
        + 32 * _arctan_inv_scaled(57, unity)
        - 20 * _arctan_inv_scaled(239, unity)
    )
    return Fraction(scaled, unity)


def pi_power_value(coeff: Fraction, power: int, digits: int) -> Fraction:
    """coeff * pi^power, within a small fraction of 10^-digits.

    The working precision covers the magnitude of coeff, the power and
    the size of the result, so callers can compare at 10^-digits.
    """
    if coeff == 0 or power == 0:
        return Fraction(coeff)
    mag = abs(coeff) * Fraction(4) ** abs(power)
    extra = max(0, len(str(mag.numerator // mag.denominator))) + len(str(abs(power))) + 2
    return coeff * pi_fraction(digits + extra) ** power


@lru_cache(maxsize=None)
def euler_numbers(n: int) -> tuple[int, ...]:
    """E_0..E_n (E_2m = (-1)^m A_2m with A the zigzag numbers, odd ones 0)."""
    zigzag = [1]
    row = [1]
    for m in range(1, n + 1):
        nxt = [0] * (m + 1)
        # boustrophedon: alternate the direction of accumulation per row
        for j in range(1, m + 1):
            nxt[j] = nxt[j - 1] + row[m - j]
        row = nxt
        zigzag.append(row[-1])
    return tuple(0 if i % 2 else (-1) ** (i // 2) * zigzag[i] for i in range(n + 1))


@lru_cache(maxsize=None)
def bernoulli_numbers(n: int) -> tuple[Fraction, ...]:
    """B_0..B_n with B_1 = -1/2, by the Akiyama-Tanigawa triangle."""
    row = [Fraction(0)] * (n + 1)
    out = []
    for m in range(n + 1):
        row[m] = Fraction(1, m + 1)
        for j in range(m, 0, -1):
            row[j - 1] = j * (row[j - 1] - row[j])
        out.append(row[0])
    if n >= 1:
        out[1] = -out[1]
    return tuple(out)


def bernoulli_poly(n: int) -> list[Fraction]:
    """Coefficients (ascending powers) of B_n(x) = sum_j C(n,j) B_j x^(n-j)."""
    b = bernoulli_numbers(n)
    return [math.comb(n, n - i) * b[n - i] for i in range(n + 1)]


def euler_poly(n: int) -> list[Fraction]:
    """Coefficients of E_n(x) = sum_k C(n,k) E_k 2^-k (x - 1/2)^(n-k)."""
    e = euler_numbers(n)
    out = [Fraction(0)] * (n + 1)
    for k in range(n + 1):
        if e[k] == 0:
            continue
        a = Fraction(math.comb(n, k) * e[k], 2**k)
        p = n - k
        # expand (x - 1/2)^p
        for i in range(p + 1):
            out[i] += a * math.comb(p, i) * Fraction(-1, 2) ** (p - i)
    while out and out[-1] == 0:
        out.pop()
    return out


def chi4_bernoulli(n: int) -> Fraction:
    """B_{n,chi4} = -n E_{n-1} / 2 (the half-point bridge identity)."""
    return Fraction(-n * euler_numbers(n - 1)[n - 1], 2)


def beta_odd_coeff(k: int) -> Fraction:
    """beta(2k+1) / pi^(2k+1) = (-1)^k E_2k / (4^(k+1) (2k)!)."""
    return Fraction((-1) ** k * euler_numbers(2 * k)[2 * k], 4 ** (k + 1) * math.factorial(2 * k))


def aux_closed_coeff(family: str, k: int, m: int) -> tuple[Fraction, int]:
    """Closed forms of I(k, m) and J(k, m) as (coefficient, power of pi)."""
    if family == "i":
        return Fraction((-1) ** k * math.factorial(2 * k), (2 * m + 1) ** (2 * k + 1)), -(2 * k + 1)
    return (
        Fraction((-1) ** (k + 1) * math.factorial(2 * k + 1), (2 * m + 1) ** (2 * k + 2)),
        -(2 * k + 2),
    )


def rational_str(q: Fraction) -> str:
    q = Fraction(q)
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"
