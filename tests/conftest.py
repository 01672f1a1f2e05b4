"""Shared fixtures and independent oracles for the test suite.

The oracles here deliberately avoid the recurrences used inside the
package: Euler data is recovered by exact power-series division of the
generating functions, and Bernoulli polynomials by the
derivative/mean-zero characterization.  Expected values frozen in the
tests were computed by these routes.  The package's integer tables are
also held equal to the Fraction recurrences it used to run
(:func:`appell_euler_table`, :func:`bernoulli_sum_table`), and the identity
suite's integer coefficient lists to the same identities built on a
polynomial of the tests' own (:func:`polynomial_identity_suite`).  That
polynomial is a list of Fractions and shares no code with ``betakit.exact``,
so no oracle here runs the package's polynomial kernels.
"""

from __future__ import annotations

import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from itertools import zip_longest

import pytest

# 50 decimal digits of pi, for checking the certified rendering
PI_LITERAL = Fraction(
    31415926535897932384626433832795028841971693993751,
    10**49,
)

# beta(2) = Catalan's constant, 30 digits; no closed form is known, so this
# literal is the external anchor for the even-argument checks
CATALAN_LITERAL = Fraction(915965594177219015054603514932, 10**30)


# The tests' own polynomial: its coefficients as a list of Fractions, lowest
# power first, with no trailing zero, so two lists are equal exactly when the
# polynomials are (the zero polynomial is []).  A package row compares with
# one as list(row.coeffs).


def fpoly(coeffs) -> list[Fraction]:
    """The polynomial with the given coefficients, lowest power first."""
    cs = [Fraction(c) for c in coeffs]
    while cs and not cs[-1]:
        cs.pop()
    return cs


def fpoly_add(p, q) -> list[Fraction]:
    return fpoly(x + y for x, y in zip_longest(p, q, fillvalue=0))


def fpoly_scale(s, p) -> list[Fraction]:
    return fpoly(s * c for c in p)


def fpoly_eval(p, x) -> Fraction:
    acc = Fraction(0)
    for c in reversed(p):
        acc = acc * x + c
    return acc


def fpoly_derivative(p) -> list[Fraction]:
    return fpoly(i * c for i, c in enumerate(p) if i)


def fpoly_compose(p, a, b) -> list[Fraction]:
    """p(a x + b), by binomial expansion: coefficient j is a^j sum_(i>=j) C(i, j) b^(i-j) p_i."""
    bpow = [b**m for m in range(len(p))]
    return fpoly(
        a**j * sum(math.comb(i, j) * bpow[i - j] * p[i] for i in range(j, len(p)) if bpow[i - j])
        for j in range(len(p))
    )


def euler_from_bernoulli(b, k: int) -> list[Fraction]:
    """(2^k / k) (B_k((x+1)/2) - B_k(x/2)) for b = B_k: E_(k-1)(x) when b is true."""
    half = Fraction(1, 2)
    diff = fpoly_add(fpoly_compose(b, half, half), fpoly_scale(-1, fpoly_compose(b, half, 0)))
    return fpoly_scale(Fraction(2**k, k), diff)


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


def appell_euler_table(n: int) -> tuple[list[list[Fraction]], list[Fraction]]:
    """(E_0(x) .. E_n(x), E_0 .. E_n) from the Appell form over E_m(0).

    The rows are E_m(x) = sum_i C(m, i) E_(m-i)(0) x^i and the numbers
    E_m = 2^m E_m(1/2): the Fraction reference for the integer triangles.
    """
    at_zero = appell_euler_at_zero(n)
    polys = [fpoly(math.comb(m, i) * at_zero[m - i] for i in range(m + 1)) for m in range(n + 1)]
    return polys, [2**m * fpoly_eval(p, Fraction(1, 2)) for m, p in enumerate(polys)]


def bernoulli_sum_table(n: int) -> tuple[list[list[Fraction]], list[Fraction]]:
    """(B_0(x) .. B_n(x), B_0 .. B_n) from sum_(j<=m) C(m+1, j) B_j = 0 in Fractions.

    The Fraction form of the recurrence betakit's Bernoulli table runs on
    integers, with the rows B_m(x) = sum_j C(m, j) B_j x^(m-j).
    """
    nums: list[Fraction] = []
    for m in range(n + 1):
        s = sum((math.comb(m + 1, j) * nums[j] for j in range(m)), Fraction(0))
        nums.append(Fraction(1) if m == 0 else -s / (m + 1))
    polys = [fpoly(math.comb(m, j) * nums[j] for j in range(m, -1, -1)) for m in range(n + 1)]
    return polys, nums


def polynomial_identity_suite(nmax: int, euler, bernoulli) -> dict:
    """The identity suite's ``to_json()`` report, from the tests' own polynomial.

    Every side of every identity is built as a coefficient list (``fpoly``:
    :func:`fpoly_compose` for E_n(x+1), E_n(1-x) and B_k((x+1)/2),
    :func:`fpoly_eval` at 0, 1/4, 1/2, 3/4 and 1, :func:`fpoly_derivative`)
    or a Fraction and compared with ``==``: the reference that
    ``run_identity_suite``'s integer coefficient lists are held to.  Its rows
    are the ``coeffs`` of the tables' ``poly(n)``, as the suite's are, and its
    numbers come from ``euler.number(n)``.
    """
    half = Fraction(1, 2)
    e = [list(euler.poly(n).coeffs) for n in range(nmax + 1)]
    b = [list(bernoulli.poly(n).coeffs) for n in range(nmax + 2)]

    def chi4(n):
        return 4 ** (n - 1) * (fpoly_eval(b[n], Fraction(1, 4)) - fpoly_eval(b[n], Fraction(3, 4)))

    shifted = [fpoly_compose(e[n], 1, 1) for n in range(nmax + 1)]
    families = {
        "1.1": [(n, fpoly_compose(shifted[n], -1, 0) == fpoly_scale((-1) ** n, e[n]))
                for n in range(nmax + 1)],
        "1.2": [(n, euler.number(n) == 2**n * fpoly_eval(e[n], half)) for n in range(nmax + 1)],
        "1.3": [(n, fpoly_add(shifted[n], e[n]) == fpoly([0] * n + [2]))
                for n in range(nmax + 1)],
        "1.4": [(n, fpoly_eval(e[n], 0) == 0 and fpoly_eval(e[n], 1) == 0)
                for n in range(2, nmax + 1, 2)],
        "1.5": [(n, fpoly_derivative(e[n]) == fpoly_scale(n, e[n - 1] if n else []))
                for n in range(nmax + 1)],
        "1.6": [(n, fpoly_eval(e[n], half) == -chi4(n + 1) / ((n + 1) * Fraction(2) ** (n - 1)))
                for n in range(0, nmax + 1, 2)],
        "bridge_euler_bernoulli": [(k, e[k - 1] == euler_from_bernoulli(b[k], k))
                                   for k in range(1, nmax + 1)],
        "bridge_chi4": [(k, fpoly_eval(e[k - 1], half) == -chi4(k) / (Fraction(2) ** (k - 2) * k))
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


def gf_euler_poly_oracle(n: int) -> list[Fraction]:
    """E_n(x) from exact series division of 2 e^(xt) / (e^t + 1).

    Coefficients of t^i are polynomials in x: numerator 2 x^i / i!,
    denominator the scalar series of e^t + 1.
    """
    fact = [math.factorial(i) for i in range(n + 1)]
    num = [fpoly([0] * i + [Fraction(2, fact[i])]) for i in range(n + 1)]
    den = [Fraction(1, fact[i]) for i in range(n + 1)]
    den[0] += 1
    quot: list[list[Fraction]] = []
    for i in range(n + 1):
        acc = num[i]
        for j in range(1, i + 1):
            acc = fpoly_add(acc, fpoly_scale(-den[j], quot[i - j]))
        quot.append(fpoly_scale(1 / den[0], acc))
    return fpoly_scale(fact[n], quot[n])


# float sample points for the accuracy checks at the removable singularities:
# t = 1/2 - 10^-j, both sides of the points 1e-3 from each singular endpoint,
# and a few interior points
ACCURACY_GRID = tuple(
    [0.5 - 10.0**-j for j in range(1, 13)]
    + [math.nextafter(0.5 - 1e-3, 1.0), 1e-3, math.nextafter(1e-3, 0.0)]
    + [0.0, 0.1, 0.25, 0.37]
)


def _pi_power_grid() -> tuple[tuple[Fraction, int], ...]:
    """float(PiPowerValue(c, p)) inputs, (c, p), for the digests and the float kernel.

    Two seeded coefficients per power in [-300, 300] (p = 0 included), one
    of them scaled by 10^-200..10^200, so the grid both overflows and
    underflows; then one overflow, one underflow to 0.0 and one subnormal.
    """
    rng = random.Random(14)
    grid = []
    for p in range(-300, 301):
        grid.append((Fraction(rng.randrange(-10**12, 10**12), rng.randrange(1, 10**12)), p))
        wide = Fraction(rng.randrange(-10**20, 10**20), rng.randrange(1, 10**20))
        grid.append((wide * Fraction(10) ** rng.randint(-200, 200), p))
    grid += [(Fraction(10**300), 50), (Fraction(1, 10**300), -100), (Fraction(-1, 10**300), -20)]
    return tuple(grid)


PI_POWER_GRID = _pi_power_grid()


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


def _poly_antiderivative(p: list[Fraction]) -> list[Fraction]:
    return fpoly([0] + [c / (i + 1) for i, c in enumerate(p)])


def bernoulli_poly_oracle(n: int) -> list[Fraction]:
    """B_n(x) characterized by B_0 = 1, B_n' = n B_{n-1}, mean zero on [0,1]."""
    p = [Fraction(1)]
    for m in range(1, n + 1):
        p = fpoly_scale(m, _poly_antiderivative(p))
        anti = _poly_antiderivative(p)
        p = fpoly_add(p, [fpoly_eval(anti, 0) - fpoly_eval(anti, 1)])
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
