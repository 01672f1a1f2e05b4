"""Euler and Bernoulli numbers and polynomials, with an identity suite.

The Euler polynomials E_n(x) are generated by 2 e^(xt) / (e^t + 1), the
Euler numbers E_n by 2 e^t / (e^(2t) + 1), and the Bernoulli polynomials
B_n(x) by the classical recurrence with the B_1 = -1/2 convention.  Tables
are built once on integers and memoized: the Euler rows from the tangent
numbers and the Euler numbers from the secant numbers, two integer
triangles, and the Bernoulli table from its own sum recurrence over one
common denominator.  No table is derived from another, so the dual-route
checks compare independent computations; every classical identity relating
them is available as an executable, exactly-checked suite.
"""

from __future__ import annotations

import math
import threading
from fractions import Fraction

from .exact import RationalPolynomial, ValueClass
from .highprec import HighPrecisionReal, quantize

__all__ = [
    "BernoulliTable",
    "EulerTable",
    "IdentityReport",
    "IdentityResult",
    "bernoulli_number",
    "bernoulli_polynomial",
    "euler_number",
    "euler_polynomial",
    "generalized_bernoulli_chi4",
    "gf_coefficient_check",
    "run_identity_suite",
]

_HALF = Fraction(1, 2)


def _binomials(m: int) -> list[int]:
    # C(m, 0), ..., C(m, m), one small multiply and exact division each
    row = [1]
    for i in range(m):
        row.append(row[-1] * (m - i) // (i + 1))
    return row


def _triangle_step(col: list[int], c: int) -> list[int]:
    # The next column of Brent & Harvey's tangent (c = 2) or secant (c = 1)
    # triangle, after Knuth & Buckholtz (1967): from T_i = (i-1)! and
    # S_i = i!, their pass p updates X_i <- (i - p) X_(i-1) + (i - p + c) X_i
    # in place for i >= p (tangent) or i > p (secant).  Run one index at a
    # time instead, col holds that index's value after each pass in turn, so
    # col[-1] is the finished T_len(col), or S_(len(col)-1).
    j = len(col)
    nxt = [j * col[0]]
    for p in range(1, j):
        nxt.append((j - p) * col[p] + (j + c - p) * nxt[-1])
    nxt.append(c * nxt[-1])
    return nxt


class EulerTable:
    """Monotone cache of Euler polynomials and Euler numbers.

    ``polys[n]`` is E_n(x), ``numbers[n]`` is E_n = 2^n E_n(1/2).  Both come
    from integer triangles (Brent & Harvey, "Fast computation of Bernoulli,
    tangent and secant numbers", 2013), with no rational arithmetic:

      * the tangent numbers T_k give E_(2k-1)(0) = (-1)^k T_k / 2^(2k-1),
        and E_(2k)(0) = 0 for k >= 1;
      * the secant numbers S_k give E_(2k) = (-1)^k S_k, and E_(2k+1) = 0.

    The polynomials form an Appell sequence (DLMF 24.4), E_n(x) =
    sum_i C(n, i) E_(n-i)(0) x^i, so with the integers a_j = 2^j E_j(0) row
    m is the integer form over 2^m with coefficient i equal to
    C(m, i) 2^i a_(m-i).  Each new index costs O(n) integer operations on
    each triangle, O(n^2) for the table.  The numbers never pass through the
    polynomials, so identity 1.2 of :func:`run_identity_suite` checks one
    triangle against the other, and neither touches the Bernoulli route, so
    the dual-route checks stay independent.

    Growth happens under a lock (single writer); entries never change once
    written, so concurrent reads of the built prefix need no synchronization.
    """

    def __init__(self) -> None:
        self.polys: list[RationalPolynomial] = []
        self.numbers: list[Fraction] = []
        # grown under the lock: a_j = 2^j E_j(0), and the last columns of
        # the triangles, for T_1 and S_0 so far
        self._scaled_at_zero: list[int] = []
        self._tangent = [1]
        self._secant = [1]
        self._lock = threading.Lock()

    def ensure(self, n: int) -> None:
        if n < 0:
            raise ValueError("index must be >= 0")
        if len(self.polys) > n:
            return
        with self._lock:
            a = self._scaled_at_zero
            for m in range(len(self.polys), n + 1):
                if m % 2:
                    if m > 1:
                        self._tangent = _triangle_step(self._tangent, 2)
                    a.append((-1) ** ((m + 1) // 2) * self._tangent[-1])
                    number = 0
                else:
                    if m:
                        self._secant = _triangle_step(self._secant, 1)
                    a.append(0 if m else 1)
                    number = (-1) ** (m // 2) * self._secant[-1]
                poly = RationalPolynomial(
                    1 << m, [c * a[m - i] << i for i, c in enumerate(_binomials(m))]
                )
                # numbers first: readers gate on len(polys), which must be
                # the last thing to grow
                self.numbers.append(Fraction(number))
                self.polys.append(poly)

    def poly(self, n: int) -> RationalPolynomial:
        self.ensure(n)
        return self.polys[n]

    def number(self, n: int) -> Fraction:
        self.ensure(n)
        return self.numbers[n]


class BernoulliTable:
    """Monotone cache of Bernoulli polynomials and numbers (B_1 = -1/2).

    Numbers come from their own sum recurrence, sum_(j<=m) C(m+1, j) B_j = 0,
    run on integers: with D = lcm(1, ..., n + 1) the table keeps D B_j, and
    D B_m = -(sum_(j<m) C(m+1, j) D B_j) / (m + 1) is an exact integer
    division, because the denominator of B_m is a product of primes p <= m + 1
    (von Staudt-Clausen).  D grows with the table, rescaling the kept
    integers.  The polynomials B_n(x) = sum_i C(n, i) B_(n-i) x^i are then
    integer forms over D.  Neither the tangent numbers nor the zigzag
    triangle is used, so this route stays independent of the Euler table.
    """

    def __init__(self) -> None:
        self.polys: list[RationalPolynomial] = []
        self.numbers: list[Fraction] = []
        # grown under the lock: the common denominator D and D * B_j
        self._den = 1
        self._scaled: list[int] = []
        self._lock = threading.Lock()

    def ensure(self, n: int) -> None:
        if n < 0:
            raise ValueError("index must be >= 0")
        if len(self.polys) > n:
            return
        with self._lock:
            scaled = self._scaled
            den = math.lcm(self._den, *range(len(scaled) + 1, n + 2))
            scaled[:] = [b * (den // self._den) for b in scaled]
            self._den = den
            for m in range(len(scaled), n + 1):
                s = sum(c * b for c, b in zip(_binomials(m + 1), scaled) if b)
                scaled.append(-s // (m + 1) if m else den)
                # numbers first: readers gate on len(polys)
                self.numbers.append(Fraction(scaled[m], den))
            for m in range(len(self.polys), n + 1):
                self.polys.append(RationalPolynomial(
                    den, [c * scaled[m - i] for i, c in enumerate(_binomials(m))]
                ))

    def poly(self, n: int) -> RationalPolynomial:
        self.ensure(n)
        return self.polys[n]

    def number(self, n: int) -> Fraction:
        self.ensure(n)
        return self.numbers[n]


_EULER = EulerTable()
_BERNOULLI = BernoulliTable()


def euler_polynomial(n: int) -> RationalPolynomial:
    """Exact Euler polynomial E_n(x)."""
    return _EULER.poly(n)


def euler_number(n: int) -> Fraction:
    """Exact Euler number E_n = 2^n E_n(1/2); an integer, zero for odd n."""
    return _EULER.number(n)


def bernoulli_polynomial(n: int) -> RationalPolynomial:
    """Exact Bernoulli polynomial B_n(x)."""
    return _BERNOULLI.poly(n)


def bernoulli_number(n: int) -> Fraction:
    """Exact Bernoulli number B_n = B_n(0), with B_1 = -1/2."""
    return _BERNOULLI.number(n)


def generalized_bernoulli_chi4(n: int) -> Fraction:
    """Generalized Bernoulli number for the nontrivial character mod 4.

    B_{n,chi4} = 4^(n-1) * (B_n(1/4) - B_n(3/4)); zero for even n.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    b = bernoulli_polynomial(n)
    return Fraction(4) ** (n - 1) * (b(Fraction(1, 4)) - b(Fraction(3, 4)))


def gf_coefficient_check(n: int, digits: int) -> HighPrecisionReal:
    """|E_n/n! - c_n| where c_n is the generating-function Taylor coefficient.

    c_n is computed by an independent route: the exponential series of
    2 e^t and e^(2t) + 1 are truncated at order n and divided as power
    series, all in decimal fixed point with `digits` working digits.  The
    returned difference is therefore a direct check of the recurrence-built
    table against the generating function.
    """
    if digits < 10:
        raise ValueError("digits must be >= 10")
    if n < 0:
        raise ValueError("n must be >= 0")
    scale = 10**digits

    def fx(r: Fraction) -> int:
        return int(quantize(r, digits) * scale)

    def fx_mul(a: int, b: int) -> int:
        return fx(Fraction(a * b, scale * scale))

    def fx_div(a: int, b: int) -> int:
        return fx(Fraction(a, b))

    fact = [math.factorial(i) for i in range(n + 1)]
    num = [fx(Fraction(2, fact[i])) for i in range(n + 1)]
    den = [fx(Fraction(2**i, fact[i])) for i in range(n + 1)]
    den[0] += scale  # the +1 in e^(2t) + 1
    quot = [0] * (n + 1)
    for i in range(n + 1):
        acc = num[i]
        for j in range(1, i + 1):
            acc -= fx_mul(den[j], quot[i - j])
        quot[i] = fx_div(acc, den[0])

    target = euler_number(n) / fact[n]
    return HighPrecisionReal(abs(target - Fraction(quot[n], scale)), digits)


class IdentityResult(ValueClass, frozen=False):
    """Outcome of one identity family over all tested instances."""

    def __init__(
        self, identity_id: str, instances: int, passed: bool, first_failure: dict | None = None
    ) -> None:
        self.identity_id = identity_id
        self.instances = instances
        self.passed = passed
        self.first_failure = first_failure

    def to_json(self) -> dict:
        return {
            "identity_id": self.identity_id,
            "instances": self.instances,
            "passed": self.passed,
            "first_failure": self.first_failure,
        }


class IdentityReport(ValueClass, frozen=False):
    def __init__(self, nmax: int, results: list[IdentityResult] | None = None) -> None:
        self.nmax = nmax
        self.results = [] if results is None else results

    @property
    def all_passed(self) -> bool:
        return all(r.passed for r in self.results)

    def to_json(self) -> dict:
        return {
            "nmax": self.nmax,
            "all_passed": self.all_passed,
            "identities": [r.to_json() for r in self.results],
        }

    def to_json_str(self) -> str:
        import json  # loaded only where JSON is asked for

        return json.dumps(self.to_json(), separators=(",", ":"))


class _FamilyChecker:
    def __init__(self, identity_id: str) -> None:
        self.result = IdentityResult(identity_id, 0, True)

    def check(self, ok: bool, n: int) -> None:
        self.result.instances += 1
        if not ok and self.result.first_failure is None:
            self.result.passed = False
            self.result.first_failure = {"n": n}


def run_identity_suite(
    nmax: int,
    trials: int = 1,
    seed: int = 0,
    euler: EulerTable | None = None,
    bernoulli: BernoulliTable | None = None,
) -> IdentityReport:
    """Exactly check the classical Euler/Bernoulli identities up to nmax.

    Families (all exact rational arithmetic, no tolerances):

      1.1  E_n(1-x) = (-1)^n E_n(x) as polynomials, which gives
           E_n(1/2) = 0 for odd n
      1.2  E_n = 2^n E_n(1/2)
      1.3  E_n(x+1) + E_n(x) = 2 x^n as polynomials
      1.4  E_n(0) = E_n(1) = 0 for even n >= 2
           (n = 0 is excluded: E_0 is the constant 1)
      1.5  E_n' = n E_{n-1} as polynomials, E_0' = 0
      1.6  E_{2k}(1/2) = -B_{2k+1,chi4} / ((2k+1) 2^(2k-1))
      bridge_euler_bernoulli
           E_{k-1}(x) = (2^k/k) (B_k((x+1)/2) - B_k(x/2)) as polynomials
      bridge_chi4
           E_{k-1}(1/2) = -B_{k,chi4} / (2^(k-2) k)

    Each family counts one instance per index.  Both sides of 1.1 and 1.3
    are polynomials of degree n, so comparing them as polynomials, through
    one integer Taylor shift E_n(x+1) per n, proves each for every x.
    ``trials`` (>= 1) and ``seed`` are validated and otherwise ignored, so
    the report depends on nmax and the tables alone.  Failures are
    reported, not raised: a corrupted table yields a failing entry.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    et = euler if euler is not None else _EULER
    bt = bernoulli if bernoulli is not None else _BERNOULLI
    et.ensure(nmax)
    bt.ensure(nmax + 1)

    def chi4(n: int) -> Fraction:
        # same formula as generalized_bernoulli_chi4, but on the injected table
        return Fraction(4) ** (n - 1) * (bt.poly(n)(Fraction(1, 4)) - bt.poly(n)(Fraction(3, 4)))

    report = IdentityReport(nmax=nmax)
    # E_n(x+1), once per n for 1.1 and 1.3; negating its odd coefficients
    # gives E_n(1-x)
    shifted = [et.poly(n).compose_affine(1, 1) for n in range(nmax + 1)]

    fam = _FamilyChecker("1.1")
    for n, q in enumerate(shifted):
        fam.check(q.compose_affine(-1, 0) == (-1) ** n * et.poly(n), n)
    report.results.append(fam.result)

    fam = _FamilyChecker("1.2")
    for n in range(nmax + 1):
        fam.check(et.number(n) == 2**n * et.poly(n)(_HALF), n)
    report.results.append(fam.result)

    fam = _FamilyChecker("1.3")
    for n, q in enumerate(shifted):
        fam.check(q + et.poly(n) == RationalPolynomial.monomial(n, 2), n)
    report.results.append(fam.result)

    fam = _FamilyChecker("1.4")
    for n in range(2, nmax + 1, 2):
        p = et.poly(n)
        fam.check(p(Fraction(0)) == 0 and p(Fraction(1)) == 0, n)
    report.results.append(fam.result)

    fam = _FamilyChecker("1.5")
    for n in range(nmax + 1):
        d = et.poly(n).derivative()
        expected = RationalPolynomial.zero() if n == 0 else n * et.poly(n - 1)
        fam.check(d == expected, n)
    report.results.append(fam.result)

    fam = _FamilyChecker("1.6")
    for n in range(0, nmax + 1, 2):
        lhs = et.poly(n)(_HALF)
        rhs = -chi4(n + 1) / ((n + 1) * Fraction(2) ** (n - 1))
        fam.check(lhs == rhs, n)
    report.results.append(fam.result)

    fam = _FamilyChecker("bridge_euler_bernoulli")
    for k in range(1, nmax + 1):
        bk = bt.poly(k)
        rhs = Fraction(2**k, k) * (
            bk.compose_affine(_HALF, _HALF) - bk.compose_affine(_HALF, 0)
        )
        fam.check(et.poly(k - 1) == rhs, k)
    report.results.append(fam.result)

    fam = _FamilyChecker("bridge_chi4")
    for k in range(1, nmax + 1):
        lhs = et.poly(k - 1)(_HALF)
        rhs = -chi4(k) / (Fraction(2) ** (k - 2) * k)
        fam.check(lhs == rhs, k)
    report.results.append(fam.result)

    return report
