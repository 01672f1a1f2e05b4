"""Shared fixtures and independent oracles for the test suite.

The oracles here deliberately avoid the recurrences used inside the
package: Euler data is recovered by exact power-series division of the
generating functions, and Bernoulli polynomials by the
derivative/mean-zero characterization.  Expected values frozen in the
tests were computed by these routes.  The package's integer tables are
also held equal to the Fraction recurrences it used to run
(:func:`appell_euler_table`, :func:`bernoulli_sum_table`), and the identity
suite's integer coefficient lists to the polynomial API
(:func:`polynomial_identity_suite`).
"""

from __future__ import annotations

import math
import os
import subprocess
import sys
from fractions import Fraction

import pytest

from betakit.exact import RationalPolynomial

# 50 decimal digits of pi, for checking the certified rendering
PI_LITERAL = Fraction(
    31415926535897932384626433832795028841971693993751,
    10**49,
)

# beta(2) = Catalan's constant, 30 digits; no closed form is known, so this
# literal is the external anchor for the even-argument checks
CATALAN_LITERAL = Fraction(915965594177219015054603514932, 10**30)


def machin_pi(digits: int) -> Fraction:
    """pi by Machin's formula, 16 arccot(5) - 4 arccot(239), on scaled integers."""
    unity = 10 ** (digits + 10)

    def arccot(x: int) -> int:
        total, power, n, sign = 0, unity // x, 1, 1
        while power:
            total += sign * (power // n)
            power //= x * x
            n += 2
            sign = -sign
        return total

    return Fraction(16 * arccot(5) - 4 * arccot(239), unity)


def appell_euler_at_zero(n: int) -> list[Fraction]:
    """E_0(0) .. E_n(0) by the Appell recurrence in Fractions.

    Multiplying 2 e^(xt) / (e^t + 1) through by (e^t + 1) and matching
    coefficients of t^m/m! at x = 0 gives
    E_m(0) = [m = 0] - (1/2) sum_(j<m) C(m, j) E_j(0).
    """
    at_zero: list[Fraction] = []
    for m in range(n + 1):
        s = sum((math.comb(m, j) * at_zero[j] for j in range(m)), Fraction(0))
        at_zero.append(Fraction(1) if m == 0 else -Fraction(1, 2) * s)
    return at_zero


def appell_euler_table(n: int) -> tuple[list[RationalPolynomial], list[Fraction]]:
    """(E_0(x) .. E_n(x), E_0 .. E_n) from the Appell form over E_m(0).

    The rows are E_m(x) = sum_i C(m, i) E_(m-i)(0) x^i and the numbers
    E_m = 2^m E_m(1/2): the Fraction reference for the integer triangles.
    """
    at_zero = appell_euler_at_zero(n)
    polys = [
        RationalPolynomial.from_coefficients(
            math.comb(m, i) * at_zero[m - i] for i in range(m + 1)
        )
        for m in range(n + 1)
    ]
    return polys, [2**m * p(Fraction(1, 2)) for m, p in enumerate(polys)]


def bernoulli_sum_table(n: int) -> tuple[list[RationalPolynomial], list[Fraction]]:
    """(B_0(x) .. B_n(x), B_0 .. B_n) from sum_(j<=m) C(m+1, j) B_j = 0 in Fractions.

    The Fraction form of the recurrence betakit's Bernoulli table runs on
    integers, with the rows B_m(x) = sum_j C(m, j) B_j x^(m-j).
    """
    nums: list[Fraction] = []
    for m in range(n + 1):
        s = sum((math.comb(m + 1, j) * nums[j] for j in range(m)), Fraction(0))
        nums.append(Fraction(1) if m == 0 else -s / (m + 1))
    polys = [
        RationalPolynomial.from_coefficients(
            math.comb(m, j) * nums[j] for j in range(m, -1, -1)
        )
        for m in range(n + 1)
    ]
    return polys, nums


def polynomial_identity_suite(nmax: int, euler, bernoulli) -> dict:
    """The identity suite's ``to_json()`` report, from the polynomial API.

    Every side of every identity is built as a RationalPolynomial or a
    Fraction (``compose_affine`` for E_n(x+1) and B_k((x+1)/2), ``poly_eval``
    at 1/4, 1/2 and 3/4, ``derivative``) and compared with ``==``: the
    reference that ``run_identity_suite``'s integer coefficient lists are
    held to.  Its rows come from the tables' ``poly(n)``, as the suite's do,
    and its numbers from ``euler.number(n)``.
    """
    half = Fraction(1, 2)
    e = [euler.poly(n) for n in range(nmax + 1)]
    b = [bernoulli.poly(n) for n in range(nmax + 2)]

    def chi4(n):
        return 4 ** (n - 1) * (b[n](Fraction(1, 4)) - b[n](Fraction(3, 4)))

    def bridge(k):
        return Fraction(2**k, k) * (b[k].compose_affine(half, half) - b[k].compose_affine(half, 0))

    shifted = [e[n].compose_affine(1, 1) for n in range(nmax + 1)]
    families = {
        "1.1": [(n, shifted[n].compose_affine(-1, 0) == (-1) ** n * e[n])
                for n in range(nmax + 1)],
        "1.2": [(n, euler.number(n) == 2**n * e[n](half)) for n in range(nmax + 1)],
        "1.3": [(n, shifted[n] + e[n] == RationalPolynomial.monomial(n, 2))
                for n in range(nmax + 1)],
        "1.4": [(n, e[n](Fraction(0)) == 0 and e[n](Fraction(1)) == 0)
                for n in range(2, nmax + 1, 2)],
        "1.5": [(n, e[n].derivative() == (n * e[n - 1] if n else RationalPolynomial.zero()))
                for n in range(nmax + 1)],
        "1.6": [(n, e[n](half) == -chi4(n + 1) / ((n + 1) * Fraction(2) ** (n - 1)))
                for n in range(0, nmax + 1, 2)],
        "bridge_euler_bernoulli": [(k, e[k - 1] == bridge(k)) for k in range(1, nmax + 1)],
        "bridge_chi4": [(k, e[k - 1](half) == -chi4(k) / (Fraction(2) ** (k - 2) * k))
                        for k in range(1, nmax + 1)],
    }
    results = []
    for identity_id, checks in families.items():
        failed = [n for n, ok in checks if not ok]
        results.append({
            "identity_id": identity_id,
            "instances": len(checks),
            "passed": not failed,
            "first_failure": {"n": failed[0]} if failed else None,
        })
    return {
        "nmax": nmax,
        "all_passed": all(r["passed"] for r in results),
        "identities": results,
    }


def gf_euler_numbers(n: int) -> list[Fraction]:
    """E_0 .. E_n from exact series division of 2 e^t / (e^(2t) + 1)."""
    fact = [math.factorial(i) for i in range(n + 1)]
    num = [Fraction(2, fact[i]) for i in range(n + 1)]
    den = [Fraction(2**i, fact[i]) for i in range(n + 1)]
    den[0] += 1
    quot: list[Fraction] = []
    for i in range(n + 1):
        acc = num[i]
        for j in range(1, i + 1):
            acc -= den[j] * quot[i - j]
        quot.append(acc / den[0])
    return [q * f for q, f in zip(quot, fact)]


def gf_euler_number_oracle(n: int) -> Fraction:
    """E_n from exact series division of 2 e^t / (e^(2t) + 1)."""
    return gf_euler_numbers(n)[n]


def gf_euler_poly_oracle(n: int) -> RationalPolynomial:
    """E_n(x) from exact series division of 2 e^(xt) / (e^t + 1).

    Coefficients of t^i are polynomials in x: numerator 2 x^i / i!,
    denominator the scalar series of e^t + 1.
    """
    fact = [math.factorial(i) for i in range(n + 1)]
    num = [RationalPolynomial.monomial(i, Fraction(2, fact[i])) for i in range(n + 1)]
    den = [Fraction(1, fact[i]) for i in range(n + 1)]
    den[0] += 1
    quot: list[RationalPolynomial] = []
    for i in range(n + 1):
        acc = num[i]
        for j in range(1, i + 1):
            acc = acc - den[j] * quot[i - j]
        quot.append(acc * (1 / den[0]))
    return quot[n] * Fraction(fact[n])


# float sample points for the accuracy checks at the removable singularities:
# t = 1/2 - 10^-j, both sides of the points 1e-3 from each singular endpoint,
# and a few interior points
ACCURACY_GRID = tuple(
    [0.5 - 10.0**-j for j in range(1, 13)]
    + [math.nextafter(0.5 - 1e-3, 1.0), 1e-3, math.nextafter(1e-3, 0.0)]
    + [0.0, 0.1, 0.25, 0.37]
)


def sin_cos_oracle(x: Fraction) -> tuple[Fraction, Fraction]:
    """sin x and cos x for |x| <= 2 from their Taylor series, within 1e-60."""
    sin, cos = Fraction(0), Fraction(0)
    term, j = Fraction(1), 0  # term = x^j / j!
    while j < 2 or abs(term) > Fraction(1, 10**60):
        if j % 2:
            sin += term if j % 4 == 1 else -term
        else:
            cos += term if j % 4 == 0 else -term
        j += 1
        term = term * x / j
    return sin, cos


def relative_error(got: float, want) -> float:
    """|got - want| / |want| for an exact or mpmath want; 0 or inf if want is 0."""
    if want == 0:
        return 0.0 if got == 0 else math.inf
    exact = Fraction(got) if isinstance(want, Fraction) else got
    return float(abs((exact - want) / want))


def integrate_in_pieces(f, pieces: int) -> float:
    """A composite rule over [0, 1/2]: one 15-point Gauss-Legendre panel per equal piece.

    The frozen rule is checked on its own, against exact moments and the
    roots of P_15 (test_quadrature.py::TestGaussLegendreTables); the pieces
    keep every panel within a fraction of an oscillation period.
    """
    from betakit.quadrature import _G15

    half = 0.25 / pieces
    return math.fsum(
        half * w * f((2 * i + 1) * half + half * x)
        for i in range(pieces)
        for x, w in zip(*_G15)
    )


def chunked_digits(n: int) -> str:
    """Decimal digits of n >= 0, 1000 per str() call, below any int-to-str limit."""
    chunks = []
    while n >= 10**1000:
        n, low = divmod(n, 10**1000)
        chunks.append(f"{low:01000d}")
    return str(n) + "".join(reversed(chunks))


def _poly_antiderivative(p: RationalPolynomial) -> RationalPolynomial:
    coeffs = [Fraction(0)] + [c / (i + 1) for i, c in enumerate(p.coeffs)]
    return RationalPolynomial.from_coefficients(coeffs)


def bernoulli_poly_oracle(n: int) -> RationalPolynomial:
    """B_n(x) characterized by B_0 = 1, B_n' = n B_{n-1}, mean zero on [0,1]."""
    p = RationalPolynomial.from_coefficients([1])
    for m in range(1, n + 1):
        p = m * _poly_antiderivative(p)
        anti = _poly_antiderivative(p)
        mean = anti(Fraction(1)) - anti(Fraction(0))
        p = p - RationalPolynomial.from_coefficients([mean])
    return p


def akiyama_tanigawa_bernoulli(n: int) -> list[Fraction]:
    """B_0..B_n by the Akiyama-Tanigawa triangle, adjusted to B_1 = -1/2."""
    row = [Fraction(0)] * (n + 1)
    out: list[Fraction] = []
    for m in range(n + 1):
        row[m] = Fraction(1, m + 1)
        for j in range(m, 0, -1):
            row[j - 1] = j * (row[j - 1] - row[j])
        out.append(row[0])
    if n >= 1:
        out[1] = -out[1]
    return out


@pytest.fixture(scope="session")
def run_betakit():
    """Run the installed CLI in a subprocess with a pinned environment."""

    def run(args: list[str], env_extra: dict | None = None) -> subprocess.CompletedProcess:
        env = os.environ.copy()
        env.pop("BETAKIT_DIGITS", None)
        env["COLUMNS"] = "80"
        if env_extra:
            env.update(env_extra)
        return subprocess.run(
            [sys.executable, "-m", "betakit", *args],
            capture_output=True,
            env=env,
            timeout=120,
        )

    return run
