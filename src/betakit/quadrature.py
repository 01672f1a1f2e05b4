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
The quotient -H(u) / sin(pi u) is then analytic for |u| < 1, so one fixed
15-point Gauss-Legendre panel on [0, 1/2] takes the integral, with an
a-priori bound on its error that holds for every k (see _sec_integral).
The auxiliary integrals

    I(k, m) = integral_0^(1/2) E_{2k}(t)   sin((2m+1) pi t) dt
    J(k, m) = integral_0^(1/2) E_{2k+1}(t) cos((2m+1) pi t) dt

need no quadrature: integration by parts, the paper's own step, reduces
them exactly to table entries, and the result must equal their closed forms.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from .betavalues import PiPowerValue
from . import eulerpoly
from .exact import ValueClass, _set_field
from .highprec import _as_int, _pi_power_ratio

__all__ = [
    "IntegrandSpec",
    "QuadratureResult",
    "aux_integral_I_closed",
    "aux_integral_J_closed",
    "aux_integral_numeric",
    "beta_even_integrand",
    "beta_even_quadrature",
]

MIN_TOL = 1e-13  # double-precision floor for requested tolerances
DEFAULT_TOL = 1e-8  # the tol of every call that passes none, the CLI's included


# Gauss-Legendre nodes and weights on [-1, 1] for n = 15, as (nodes, weights).
# Each float is the exact value numpy's polynomial.legendre.leggauss(15)
# returns (Golub & Welsch, Math. Comp. 23 (1969)), frozen so that every
# quadrature result stays bit-identical without a runtime dependency; a
# plain-float Newton solve lands some ulps away.
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


# How far the frozen table is from the exact rule, as TestGaussLegendreTables
# checks: each node within 2^-53, and the weights' errors summing to under
# 2^-48 (numpy's nodes are within 0.6 ulp, but its weights up to 38 ulps off)
_NODE_ERR = 2.0**-53
_WEIGHT_ERR_SUM = 2.0**-48


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
        k, m = _as_int(k, "k"), _as_int(m, "m")
        if k < 0 or m < 0:
            raise ValueError("auxiliary integrals require k, m >= 0")
        _set_field(self, "kind", kind)
        _set_field(self, "k", k)
        _set_field(self, "m", m)


@lru_cache(maxsize=256)
def _scale(n: int) -> float:
    """s(n) = n!/pi^(n+1), so that E_n = s(n) p_n; a ValueError past n = 218."""
    # pi^(n+1) = x / d within (n + 1) 2^-(64 + bitlength(n + 2)) < 2^-64 relative
    x, d = _pi_power_ratio(n + 1, 64 + (n + 2).bit_length())
    try:
        return math.factorial(n) * d / x
    except OverflowError:
        raise ValueError(f"n!/pi^(n+1) exceeds the double range at n={n}") from None


@lru_cache(maxsize=256)
def _float_coeffs(n: int, at_half: bool = False) -> tuple[float, ...]:
    """p_n's coefficients in powers of t, or of u = t - 1/2 if at_half.

    By the Appell sum (DLMF 24.4), coefficient i of E_n is
    C(n, i) 2^i s_(n-i) / 2^n, read from the Euler table's integers with no
    row built: s_j = 2^j E_j(0) (tangent) about 0, s_j = E_j (secant) about
    1/2.  Each, times pi^(n+1) / n! as in _scale, is rounded once by an integer
    division: within an ulp, and the zero entries of s are skipped as exact zeros.
    """
    e = eulerpoly._EULER
    if at_half:
        e.number(n)  # grows the secant entries through E_n
        s = [v.numerator for v in e.numbers[:n + 1]]
    else:
        s = e.scaled_at_zero(n)
    x, d = _pi_power_ratio(n + 1, 64 + (n + 2).bit_length())
    d = math.factorial(n) * d << n
    return tuple((x * math.comb(n, i) * s[n - i] << i) / d if s[n - i] else 0.0
                 for i in range(n + 1))


def _horner(coeffs: tuple[float, ...], u: float) -> float:
    acc = 0.0
    for c in reversed(coeffs):
        acc = acc * u + c
    return acc


def _sec_integrand(coeffs: tuple[float, ...], t: float) -> float:
    # -H(u)/sin(pi u) for H's coefficients, odd powers only: Horner in u^2
    # over the odd ones, then one product with u, adds none of the zeros
    u = t - 0.5
    if u == 0.0:
        return -coeffs[1] / math.pi
    acc = 0.0
    for c in coeffs[::-2]:
        acc = acc * u * u + c
    return -(acc * u) / math.sin(math.pi * u)


def _gamma(m: int) -> float:
    # Higham's gamma_m = m u / (1 - m u), u = 2^-53, bounds m compounded roundings
    return m * 2.0**-53 / (1 - m * 2.0**-53)


@lru_cache(maxsize=256)
def _sec_integral(k: int) -> tuple[float, float]:
    """(value, bound) for integral_0^(1/2) -H(u)/sin(pi u) dt by one 15-point panel.

    H is p_{2k-1} in powers of u = t - 1/2 (c_i = 0 for even i); bound proves
    |value - integral| for every k, as the sum of:
    - truncation: (64/15) M 4^-30 / (4^2 - 1) (Trefethen, SIAM Rev. 50 (2008),
      Thm 4.5), times 1/4 for the half-width.  The panel maps the Bernstein
      ellipse E_4 into |u + 1/4| <= 17/32, so |u| <= R = 25/32 < 1, where the
      quotient is analytic (H(0) = 0) and, as sinc decreases on |x| <= R,
      |sin pi(x + iy)|^2 = sin^2 pi x + sinh^2 pi y >= |u|^2 sin^2(pi R) / R^2:
      M = sum |c_i| R^(i-1) R / sin(pi R), with no sampling.
    - each node's evaluation (Higham, Accuracy and Stability of Numerical
      Algorithms, sect. 5.1): _sec_integrand's Horner in u^2 runs over the
      odd coefficients only and multiplies by u once at the end, so term i
      is rounded (3i + 1)/2 times (its addition, 3 per later step and the
      last product), as in a full Horner whose additions of the zero
      coefficients are exact; plus 2 for the coefficient, 5 for the sine,
      1 for the division and 2 to spare for this bound's own arithmetic:
      m_i = (3i + 21)/2 <= 3k + 9 in all, and gamma_m / m grows with m.  As
      S(u) / u, S = sum |c_i| gamma_(m_i) u^i, and u / sin(pi u) grow with u,
      S(1/2) bounds S(|u|) / sin(pi |u|) at every node.
    - the frozen table: u lies within 3 2^-55 of the exact node (its error / 4
      and t's and u's roundings), and f = A B, A = -H(u)/u, B = u/sin(pi u)
      <= 1/2 with |B'| <= 1 on |u| <= 1/2, so |f'| <= sum |c_i| i 2^(1-i);
      the weights' errors multiply max |f|.
    - the products w f and the fsum: 2 roundings of sum w |f|.
    """
    coeffs = _float_coeffs(2 * k - 1, True)
    odd = [(i, abs(coeffs[i])) for i in range(1, len(coeffs), 2)]
    rad = 25 / 32
    # plain left-to-right float sums: the built-in sum() compensates its
    # rounding since Python 3.12, which would move the bound's last bit
    m = q0 = q1 = 0.0
    for i, a in odd:
        m += a * rad ** (i - 1)
        q0 += math.ldexp(a, -i)
        q1 += i * math.ldexp(a, -i)
    m = m * rad / math.sin(math.pi * rad)
    rho = _gamma(3 * k + 9) / (3 * k + 9) * (1.5 * q1 + 10.5 * q0)
    nodes, weights = _G15
    fs = [_sec_integrand(coeffs, 0.25 + 0.25 * x) for x in nodes]
    value = 0.25 * math.fsum(w * f for w, f in zip(weights, fs))
    shift = _NODE_ERR / 4 + 2.0**-54
    bound = 0.25 * 64 / 15 * m / (15 * 4.0**30) + 0.5 * (rho + 2 * q1 * shift)
    wf = 0.0
    for w, f in zip(weights, fs):
        wf += w * abs(f)
    bound += 0.25 * _gamma(2) * wf
    return value, bound + 0.25 * _WEIGHT_ERR_SUM * (max(map(abs, fs)) + rho)


def beta_even_integrand(k: int, t: float) -> float:
    """E_{2k-1}(t) * sec(pi t) on [0, 1/2], continuous at the endpoint.

    The value is s(2k-1) times p_{2k-1}(t) sec(pi t) = -H(u) / sin(pi u),
    where H is p_{2k-1} in powers of u = t - 1/2.  H's constant term is
    exactly 0, so the quotient loses nothing to cancellation as t nears 1/2,
    and at t = 1/2 it is the limit -H'(0) / pi.  Needs k <= 109.
    """
    k = _as_int(k, "k")
    if k < 1:
        raise ValueError("k must be >= 1")
    if not 0.0 <= t <= 0.5:
        raise ValueError(f"t={t} outside [0, 1/2]")
    return _scale(2 * k - 1) * _sec_integrand(_float_coeffs(2 * k - 1, True), t)


def beta_even_quadrature(k: int, tol: float = DEFAULT_TOL,
                         printed_sign: bool = False) -> QuadratureResult:
    """beta(2k) by quadrature of the integral representation.

    beta(2k) = (-1)^k / 2 * integral_0^(1/2) p_{2k-1}(t) sec(pi t) dt for any
    k >= 1, the integral taken by one 15-point Gauss-Legendre panel; the
    estimate is half its a-priori error bound, at most 6e-15 for any k.  tol
    steers nothing: below MIN_TOL, or under the estimate, it is a ValueError.
    Passing printed_sign=True flips the sign to (-1)^(k-1); that variant makes
    beta(2) come out negative and exists only so the discrepancy can be
    demonstrated against the series oracle.
    """
    k = _as_int(k, "k")
    if k < 1:
        raise ValueError("k must be >= 1")
    if not tol >= MIN_TOL:  # NaN fails it too
        raise ValueError(f"tol below double-precision floor {MIN_TOL}")
    value, bound = _sec_integral(k)
    if 0.5 * bound > tol:
        raise ValueError(f"error bound {0.5 * bound:.1e} exceeds tol={tol}")
    half = 0.5 * ((-1) ** (k - 1) if printed_sign else (-1) ** k)
    return QuadratureResult(half * value, 0.5 * bound, len(_G15[0]))


def aux_integral_I_closed(k: int, m: int) -> PiPowerValue:
    """Closed form I(k, m) = (-1)^k (2k)! / ((2m+1)^(2k+1) pi^(2k+1))."""
    k, m = _as_int(k, "k"), _as_int(m, "m")
    if k < 0 or m < 0:
        raise ValueError("k and m must be >= 0")
    coeff = Fraction((-1) ** k * math.factorial(2 * k), (2 * m + 1) ** (2 * k + 1))
    return PiPowerValue(coeff, -(2 * k + 1))


def aux_integral_J_closed(k: int, m: int) -> PiPowerValue:
    """Closed form J(k, m) = (-1)^(k+1) (2k+1)! / ((2m+1)^(2k+2) pi^(2k+2))."""
    k, m = _as_int(k, "k"), _as_int(m, "m")
    if k < 0 or m < 0:
        raise ValueError("k and m must be >= 0")
    coeff = Fraction((-1) ** (k + 1) * math.factorial(2 * k + 1), (2 * m + 1) ** (2 * k + 2))
    return PiPowerValue(coeff, -(2 * k + 2))


def aux_integral_numeric(spec: IntegrandSpec, tol: float = DEFAULT_TOL) -> QuadratureResult:
    """I(k, m) or J(k, m) by repeated integration by parts, rounded to a double.

    With n = 2k (I, sine) or 2k + 1 (J, cosine) and c = (2m+1) pi, step i
    leaves +-E_n^(i)(x)/c^(i+1), E_n^(i) = n!/(n-i)! E_(n-i) (DLMF 24.4), at
    x = 1/2 (times sin(c/2) = (-1)^m; cos(c/2) = 0) or x = 0, read with no
    row built as a_j / 2^j (tangent integers) or E_j / 2^j (secant).  As
    E_j(0) = 0 for even j >= 2 and E_j(1/2) = 0 for odd j, one term
    survives.  Each table entry is tested for zero as it is stored, and only
    a nonzero one is built into a term, its coefficient one Fraction of the
    entry's own numerator and denominator, so a corrupted entry, integral
    or not, adds a term.  The terms must equal the closed form, else a
    RuntimeError.  The value is within an ulp, the bound reported as its
    estimate; tol is only held to MIN_TOL.
    """
    if not tol >= MIN_TOL:  # NaN fails it too
        raise ValueError(f"tol below double-precision floor {MIN_TOL}")
    sine = spec.kind == "aux_I"
    n = 2 * spec.k + (not sine)
    closed = (aux_integral_I_closed if sine else aux_integral_J_closed)(spec.k, spec.m)
    e = eulerpoly._EULER
    e.number(n)  # grows the secant entries through E_n
    a, s = e.scaled_at_zero(n), e.numbers
    terms = []
    for i in range(n + 1):
        # x = 0 on the sine's even steps, where [-cos ct] leaves +1, and on the
        # cosine's odd ones, -1 from the first step; at 1/2, sin(c/2) = (-1)^m
        at_zero = (i % 2 == 0) == sine
        entry = a[n - i] if at_zero else s[n - i]
        if entry:  # a zero table entry makes a zero term: build nothing
            edge = (1 if sine else -1) if at_zero else (-1) ** spec.m
            x, y = entry.as_integer_ratio()
            coeff = Fraction((-1) ** (i // 2) * edge * math.perm(n, i) * x,
                             y * (2 * spec.m + 1) ** (i + 1) << (n - i))
            terms.append(PiPowerValue(coeff, -(i + 1)))
    if terms != [closed]:
        raise RuntimeError(f"aux self-check failed: integration by parts disagrees with "
                           f"the closed form of {spec.kind[-1]}({spec.k},{spec.m})")
    try:
        value = float(closed)
    except OverflowError:
        raise ValueError(f"n!/((2m+1) pi)^(n+1) exceeds the double range at n={n}") from None
    return QuadratureResult(value, math.ulp(value), 0)
