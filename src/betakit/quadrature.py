"""Numerical integration for the beta(2k) representation and its helpers.

beta(2k) has no known closed form, but it equals

    (-1)^k pi^(2k) / (2 (2k-1)!) * integral_0^(1/2) E_{2k-1}(t) sec(pi t) dt.

The float paths evaluate p_n(t) = pi^(n+1) E_n(t) / n!, whose t^i
coefficient [pi^(j+1) E_j(0) / j!] [pi^i / i!] (Appell form, j = n - i) is
O(1) for every n, where E_n's grow like n!/pi^(n+1) (DLMF 24.11).  So
beta(2k) = (-1)^k / 2 * integral_0^(1/2) p_{2k-1}(t) sec(pi t) dt has no
prefactor; results on E_n's scale are p_n's times s(n) = n!/pi^(n+1).

The integrand has a removable singularity at t = 1/2, where p_{2k-1} and
cos(pi t) both vanish.  In powers of u = t - 1/2, p_{2k-1} has a constant
term of exactly 0 (DLMF 24.4), so the zero divides out with no cancellation.
The auxiliary integrals

    I(k, m) = integral_0^(1/2) E_{2k}(t)   sin((2m+1) pi t) dt
    J(k, m) = integral_0^(1/2) E_{2k+1}(t) cos((2m+1) pi t) dt

need no quadrature: integration by parts, the paper's own step, reduces
them exactly to table entries, and the result must equal their closed forms.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from fractions import Fraction
from functools import lru_cache

from .betavalues import PiPowerValue
from .eulerpoly import euler_number, euler_polynomial
from .exact import ValueClass, _set_field
from .highprec import BudgetExceededError, pi_fraction

__all__ = [
    "IntegrandSpec",
    "QuadratureResult",
    "aux_integral_I_closed",
    "aux_integral_J_closed",
    "aux_integral_numeric",
    "beta_even_integrand",
    "beta_even_quadrature",
    "integrate_adaptive",
]

MIN_TOL = 1e-13  # double-precision floor for requested tolerances


# Gauss-Legendre nodes and weights on [-1, 1] for n = 7 and n = 15, as
# (nodes, weights).  Each float is the exact value numpy's
# polynomial.legendre.leggauss(n) returns (Golub & Welsch, Math. Comp. 23
# (1969)), frozen so that every quadrature result stays bit-identical without
# a runtime dependency; a plain-float Newton solve lands some ulps away.
_G7 = (
    (
        -0.9491079123427586, -0.7415311855993945, -0.4058451513773972, 0.0,
        0.4058451513773972, 0.7415311855993945, 0.9491079123427586,
    ),
    (
        0.12948496616886973, 0.27970539148927687, 0.3818300505051187, 0.4179591836734693,
        0.3818300505051187, 0.27970539148927687, 0.12948496616886973,
    ),
)
_G15 = (
    (
        -0.9879925180204854, -0.9372733924007058, -0.8482065834104272, -0.7244177313601701,
        -0.5709721726085388, -0.3941513470775634, -0.20119409399743451, 0.0,
        0.20119409399743451, 0.3941513470775634, 0.5709721726085388, 0.7244177313601701,
        0.8482065834104272, 0.9372733924007058, 0.9879925180204854,
    ),
    (
        0.030753241996117203, 0.0703660474881084, 0.10715922046717141, 0.13957067792615444,
        0.16626920581699398, 0.1861610000155622, 0.1984314853271116, 0.2025782419255613,
        0.1984314853271116, 0.1861610000155622, 0.16626920581699398, 0.13957067792615444,
        0.10715922046717141, 0.0703660474881084, 0.030753241996117203,
    ),
)


class QuadratureResult(ValueClass):
    def __init__(self, value: float, abs_error_estimate: float, n_evals: int) -> None:
        _set_field(self, "value", value)
        _set_field(self, "abs_error_estimate", abs_error_estimate)
        _set_field(self, "n_evals", n_evals)

    def to_json(self) -> dict:
        return {
            "value": self.value,
            "abs_error_estimate": self.abs_error_estimate,
            "n_evals": self.n_evals,
        }


class IntegrandSpec(ValueClass):
    """Selects I(k, m) (kind "aux_I") or J(k, m) ("aux_J"), k, m >= 0."""

    def __init__(self, kind: str, k: int, m: int = 0) -> None:
        if kind not in ("aux_I", "aux_J"):
            raise ValueError(f"unknown integrand kind {kind!r}")
        if k < 0 or m < 0:
            raise ValueError("auxiliary integrals require k, m >= 0")
        _set_field(self, "kind", kind)
        _set_field(self, "k", k)
        _set_field(self, "m", m)


def _panel(f: Callable[[float], float], a: float, b: float, rule) -> float:
    nodes, weights = rule
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    return half * math.fsum(w * f(mid + half * x) for x, w in zip(nodes, weights))


def integrate_adaptive(
    f: Callable[[float], float],
    a: float,
    b: float,
    tol: float,
    max_evals: int = 2_000_000,
) -> QuadratureResult:
    """Adaptive composite Gauss-Legendre quadrature of f over [a, b].

    Each panel is evaluated with the 7- and 15-point rules; their
    disagreement is the panel's error estimate, and panels that miss their
    proportional share of tol/2 are bisected.  Contributions are summed in
    left-to-right order, so the result is reproducible regardless of how
    panels were scheduled.
    """
    if not tol > 0:  # NaN fails it too
        raise ValueError("tol must be positive")
    if b <= a:
        raise ValueError("need b > a")
    width = b - a
    stack = [(a, b)]
    accepted: list[tuple[float, float, float]] = []
    evals = 0
    while stack:
        x0, x1 = stack.pop()
        evals += 22
        if evals > max_evals:
            raise BudgetExceededError(
                f"quadrature exceeded {max_evals} evaluations at tol={tol}"
            )
        coarse = _panel(f, x0, x1, _G7)
        fine = _panel(f, x0, x1, _G15)
        err = abs(fine - coarse)
        if err <= 0.5 * tol * (x1 - x0) / width or (x1 - x0) <= 1e-15:
            accepted.append((x0, fine, err))
        else:
            xm = 0.5 * (x0 + x1)
            stack.append((xm, x1))
            stack.append((x0, xm))
    accepted.sort(key=lambda item: item[0])
    value = math.fsum(item[1] for item in accepted)
    err_total = math.fsum(item[2] for item in accepted)
    return QuadratureResult(value, err_total, evals)


def _pi_power_over_factorial(n: int) -> tuple[int, int]:
    # (x, d) with x / d within 2^-64 relative of pi^(n+1) / n!.  p / 2^b is
    # within 2^(1-b) of pi, so x = floor(p^(n+1) / 2^(bn)) is within
    # (n + 2) 2^-b < 2^-64 relative of pi^(n+1) 2^b; d = n! 2^b
    bits = 64 + (n + 2).bit_length()
    pi = pi_fraction(bits // 3 + 1)
    p = (pi.numerator << bits) // pi.denominator
    return p ** (n + 1) >> (bits * n), math.factorial(n) << bits


@lru_cache(maxsize=256)
def _scale(n: int) -> float:
    """s(n) = n!/pi^(n+1), so that E_n = s(n) p_n; a ValueError past n = 218."""
    x, d = _pi_power_over_factorial(n)
    try:
        return d / x
    except OverflowError:
        raise ValueError(f"n!/pi^(n+1) exceeds the double range at n={n}") from None


@lru_cache(maxsize=256)
def _float_coeffs(n: int, at_half: bool = False) -> tuple[float, ...]:
    """p_n's coefficients in powers of t, or of u = t - 1/2 if at_half.

    E_n's exact coefficients, the table's nums[i] / den or, by the Appell
    sum about 1/2 (DLMF 24.4), C(n, i) E_{n-i} 2^i / 2^n, each times
    pi^(n+1) / n! and rounded once by an integer division: within an ulp,
    exact zeros stay 0.
    """
    if at_half:
        den = 1 << n
        nums = [math.comb(n, i) * euler_number(n - i).numerator << i for i in range(n + 1)]
    else:
        p = euler_polynomial(n)
        den, nums = p.den, p.nums
    x, d = _pi_power_over_factorial(n)
    return tuple(x * c / (d * den) for c in nums)


def _horner(coeffs: tuple[float, ...], u: float) -> float:
    acc = 0.0
    for c in reversed(coeffs):
        acc = acc * u + c
    return acc


def _sec_integrand(k: int, t: float) -> float:
    coeffs = _float_coeffs(2 * k - 1, True)
    u = t - 0.5
    if u == 0.0:
        return -coeffs[1] / math.pi
    return -_horner(coeffs, u) / math.sin(math.pi * u)


def beta_even_integrand(k: int, t: float) -> float:
    """E_{2k-1}(t) * sec(pi t) on [0, 1/2], continuous at the endpoint.

    The value is s(2k-1) times p_{2k-1}(t) sec(pi t) = -H(u) / sin(pi u),
    where H is p_{2k-1} in powers of u = t - 1/2.  H's constant term is
    exactly 0, so the quotient loses nothing to cancellation as t nears 1/2,
    and at t = 1/2 it is the limit -H'(0) / pi.  Needs k <= 109.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if not 0.0 <= t <= 0.5:
        raise ValueError(f"t={t} outside [0, 1/2]")
    return _scale(2 * k - 1) * _sec_integrand(k, t)


def beta_even_quadrature(k: int, tol: float, printed_sign: bool = False) -> QuadratureResult:
    """beta(2k) by quadrature of the integral representation.

    beta(2k) = (-1)^k / 2 * integral_0^(1/2) p_{2k-1}(t) sec(pi t) dt for any
    k >= 1, the integral taken to 2 tol.  Passing printed_sign=True flips the
    sign to (-1)^(k-1); that variant makes beta(2) come out negative and
    exists only so the discrepancy can be demonstrated against the series
    oracle.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if not tol >= MIN_TOL:  # NaN fails it too
        raise ValueError(f"tol below double-precision floor {MIN_TOL}")
    half = 0.5 * ((-1) ** (k - 1) if printed_sign else (-1) ** k)
    inner = integrate_adaptive(lambda t: _sec_integrand(k, t), 0.0, 0.5, 2 * tol)
    return QuadratureResult(half * inner.value, 0.5 * inner.abs_error_estimate, inner.n_evals)


def aux_integral_I_closed(k: int, m: int) -> PiPowerValue:
    """Closed form I(k, m) = (-1)^k (2k)! / ((2m+1)^(2k+1) pi^(2k+1))."""
    if k < 0 or m < 0:
        raise ValueError("k and m must be >= 0")
    coeff = Fraction((-1) ** k * math.factorial(2 * k), (2 * m + 1) ** (2 * k + 1))
    return PiPowerValue(coeff, -(2 * k + 1))


def aux_integral_J_closed(k: int, m: int) -> PiPowerValue:
    """Closed form J(k, m) = (-1)^(k+1) (2k+1)! / ((2m+1)^(2k+2) pi^(2k+2))."""
    if k < 0 or m < 0:
        raise ValueError("k and m must be >= 0")
    coeff = Fraction((-1) ** (k + 1) * math.factorial(2 * k + 1), (2 * m + 1) ** (2 * k + 2))
    return PiPowerValue(coeff, -(2 * k + 2))


def aux_integral_numeric(spec: IntegrandSpec, tol: float) -> QuadratureResult:
    """I(k, m) or J(k, m) by repeated integration by parts, rounded to a double.

    With n = 2k (I, sine) or 2k + 1 (J, cosine) and c = (2m+1) pi, step i
    leaves +-E_n^(i)(x)/c^(i+1), E_n^(i) = n!/(n-i)! E_(n-i) (DLMF 24.4), at
    x = 1/2 (times sin(c/2) = (-1)^m; cos(c/2) = 0) or x = 0.  As E_j(0) = 0
    for even j >= 2 and E_j(1/2) = 0 for odd j, one term survives; it must
    equal the closed form, else a RuntimeError.  The value is within an ulp,
    the bound reported as its estimate; tol is only held to MIN_TOL.
    """
    if not tol >= MIN_TOL:  # NaN fails it too
        raise ValueError(f"tol below double-precision floor {MIN_TOL}")
    sine = spec.kind == "aux_I"
    n = 2 * spec.k + (not sine)
    closed = (aux_integral_I_closed if sine else aux_integral_J_closed)(spec.k, spec.m)
    terms = []
    for i in range(n + 1):
        # x = 0 on the sine's even steps, where [-cos ct] leaves +1, and on the
        # cosine's odd ones, -1 from the first step; at 1/2, sin(c/2) = (-1)^m
        at_zero = (i % 2 == 0) == sine
        e = euler_polynomial(n - i).coefficient(0) if at_zero else euler_number(n - i) / 2**(n - i)
        if e:  # a zero table entry makes a zero term: skip its arithmetic
            edge = (1 if sine else -1) if at_zero else (-1) ** spec.m
            coeff = (-1) ** (i // 2) * edge * math.perm(n, i) * e / (2 * spec.m + 1) ** (i + 1)
            terms.append(PiPowerValue(coeff, -(i + 1)))
    if terms != [closed]:
        raise RuntimeError(f"aux self-check failed: integration by parts disagrees with "
                           f"the closed form of {spec.kind[-1]}({spec.k},{spec.m})")
    try:
        value = float(closed)
    except OverflowError:
        raise ValueError(f"n!/((2m+1) pi)^(n+1) exceeds the double range at n={n}") from None
    return QuadratureResult(value, math.ulp(value), 0)
