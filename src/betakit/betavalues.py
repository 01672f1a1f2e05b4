"""Special values of the Dirichlet beta function.

beta(s) = sum_{m>=0} (-1)^m / (2m+1)^s.  At odd arguments the value is an
exact rational multiple of a power of pi, delivered here through two
independent exact routes (generalized Bernoulli numbers mod 4, and Euler
numbers).  The alternating series itself, summed with a certified error
bound, serves as the numerical oracle the closed forms are tested against.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .eulerpoly import euler_number, generalized_bernoulli_chi4
from .exact import ValueClass, _set_field, digit_string, rational_str
from .highprec import HighPrecisionReal, pi_fraction, quantize

__all__ = [
    "HighPrecisionReal",
    "PiPowerValue",
    "beta_odd_exact",
    "beta_odd_exact_via_euler",
    "beta_series",
    "render_decimal",
]


class PiPowerValue(ValueClass):
    """An exact real of the form coeff * pi^power.

    Zero is normalized to (0, 0) so equality of values is equality of
    fields.
    """

    def __init__(self, coeff: int | Fraction, power: int) -> None:
        coeff = Fraction(coeff)
        _set_field(self, "coeff", coeff)
        _set_field(self, "power", power if coeff else 0)

    def to_json(self, digits: int = 12) -> dict:
        return {
            "coeff": rational_str(self.coeff),
            "pi_power": self.power,
            "decimal": render_decimal(self, digits).decimal_str(digits),
            "digits": digits,
        }

    def __float__(self) -> float:
        # pi^power within 1e-20 relative, so one rounding lands within an ulp
        return float(self.coeff * pi_fraction(20 + len(str(abs(self.power)))) ** self.power)

    def __str__(self) -> str:
        if self.power == 0:
            return rational_str(self.coeff)
        pi = "pi" if self.power == 1 else f"pi^{self.power}"
        return f"{rational_str(self.coeff)} * {pi}"


def beta_odd_exact(k: int) -> PiPowerValue:
    """beta(2k+1) as an exact rational multiple of pi^(2k+1).

    beta(2k+1) = (-1)^(k+1) (pi/2)^(2k+1) B_{2k+1,chi4} / (2k+1)!, stated
    here with the power of two folded into the rational coefficient.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    n = 2 * k + 1
    coeff = (
        (-1) ** (k + 1)
        * generalized_bernoulli_chi4(n)
        / (math.factorial(n) * Fraction(2) ** n)
    )
    return PiPowerValue(coeff, n)


def beta_odd_exact_via_euler(k: int) -> PiPowerValue:
    """Same value as :func:`beta_odd_exact`, through the Euler numbers.

    beta(2k+1) = (-1)^k E_{2k} / (4^(k+1) (2k)!) * pi^(2k+1).  Exact
    agreement with the generalized-Bernoulli route is forced by the
    half-point identities; the test suite asserts it field by field.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    coeff = (-1) ** k * euler_number(2 * k) / Fraction(4 ** (k + 1) * math.factorial(2 * k))
    return PiPowerValue(coeff, 2 * k + 1)


def _beta_accelerated(s: int, digits: int) -> Fraction:
    """Chebyshev-based acceleration of the alternating series.

    With d_n = ((3+sqrt8)^n + (3-sqrt8)^n)/2 and integer coefficients c_k
    built by the standard three-term recurrence, the estimate
    (1/d_n) sum_k c_k a_k of sum_k (-1)^k a_k has error at most
    2 (3+sqrt8)^-n whenever (a_k) is a moment sequence of a positive
    measure on [0,1].  a_k = 1/(2k+1)^s qualifies (weight
    (-log x)^(s-1)/(s-1)! on [0,1], pushed forward through x^2), so n is
    chosen to push the bound below a quarter of the digit budget.

    The loop runs on integers: b and c are integral, and the sum is kept
    in binary fixed point.  Each of the n terms floor(c_k 2^bits / (2k+1)^s)
    loses less than one unit, so the result acc / (d_n 2^bits) is within
    n / (d_n 2^bits) of the exact weighted sum.  That loss is divided by
    d_n > 10^digits, so 2^bits > n 10^10 is all it takes to keep it below
    10^-(digits+10): fewer than 50 bits up to 10,000 digits.
    """
    n = int((digits * math.log(10) + math.log(8)) / math.log(3 + math.sqrt(8))) + 2
    u_prev, u = 2, 6
    for _ in range(n - 1):
        u_prev, u = u, 6 * u - u_prev
    d = u // 2
    bits = (n * 10**10).bit_length()
    b = -1
    c = -d
    acc = 0
    for k in range(n):
        c = b - c
        acc += (c << bits) // (2 * k + 1) ** s
        # exact: b_k = (-1)^(k+1) 4^k n/(n+k) C(n+k, 2k) stays integral
        b = b * (2 * (k + n) * (k - n)) // ((2 * k + 1) * (k + 1))
    return Fraction(acc, d << bits)


def beta_series(s: int, digits: int) -> HighPrecisionReal:
    """beta(s) to `digits` decimal digits, from the defining series.

    Every s and digit count goes through the accelerated evaluation
    (Cohen, Rodriguez Villegas and Zagier, Experiment. Math. 9 (2000)),
    whose geometric error bound certifies the result; it is rounded to
    digits + 5 places.
    """
    if s < 1:
        raise ValueError("s must be >= 1")
    if digits < 1:
        raise ValueError("digits must be >= 1")
    value = quantize(_beta_accelerated(s, digits), digits + 5)
    return HighPrecisionReal(value, digits)


def render_decimal(v: PiPowerValue, digits: int) -> HighPrecisionReal:
    """coeff * pi^power to `digits` decimal digits with a certified pi.

    Working precision adds 10 guard digits plus headroom for the power and
    the coefficient magnitude, so the final quantization dominates the
    error budget.

    pi^q, q = |power|, is formed in binary fixed point with
    2^bits > 10^working.  P = floor(pi_fraction(working) 2^bits) / 2^bits
    is within 2 10^-working of pi, and each truncating product
    (x P) >> bits loses less than one unit 2^-bits, so pi^q comes out
    within (2q + 1.5) pi^(q-1) 10^-working.  A negative power takes the
    reciprocal floor(2^(2 bits) / x): one more unit, plus the error of
    pi^q divided by pi^(2q).  The q + coeff_mag digits of headroom keep
    |coeff| times either error below 10^-(digits+10), and rounding to
    digits+5 places adds at most 10^-(digits+5) / 2.
    """
    if digits < 1:
        raise ValueError("digits must be >= 1")
    if v.power == 0 or v.coeff == 0:
        return HighPrecisionReal(v.coeff, digits)
    coeff_mag = len(digit_string(abs(v.coeff.numerator) // v.coeff.denominator + 1))
    working = digits + 10 + abs(v.power) + coeff_mag
    bits = (10**working).bit_length()
    pi = pi_fraction(working)
    p = (pi.numerator << bits) // pi.denominator
    x = p
    for _ in range(abs(v.power) - 1):
        x = (x * p) >> bits
    if v.power < 0:
        x = (1 << 2 * bits) // x
    value = v.coeff * Fraction(x, 1 << bits)
    return HighPrecisionReal(quantize(value, digits + 5), digits)
