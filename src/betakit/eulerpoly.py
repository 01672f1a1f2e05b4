"""Euler and Bernoulli numbers and polynomials, with an identity suite.

The Euler polynomials E_n(x) are generated by 2 e^(xt) / (e^t + 1), the
Euler numbers E_n by 2 e^t / (e^(2t) + 1), and the Bernoulli polynomials
B_n(x) by the classical recurrence with the B_1 = -1/2 convention.  Each
table is its integer sequences, grown on demand, and builds a polynomial
only when asked, keeping none: 2^j E_j(0) and E_n from the tangent and
secant triangles, and D B_j from the Bernoulli sum recurrence.  No table is
derived from another, so the dual-route checks compare independent
computations; every classical identity relating them is an executable,
exactly-checked suite.
"""

from __future__ import annotations

import math
import threading
from fractions import Fraction
from functools import lru_cache
from itertools import repeat, zip_longest
from operator import add, lshift, mul

from .exact import RationalPolynomial, ValueClass, taylor_shift
from .highprec import _as_int

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
    "run_identity_suite",
]


@lru_cache(maxsize=128)
def _binomials(m: int) -> tuple[int, ...]:
    # C(m, 0), ..., C(m, m): the first half by one small multiply and exact
    # division each, then its mirror image, C(m, i) = C(m, m - i).  Each row
    # is built once per process and kept in one bounded cache shared by both
    # tables' rows and the Bernoulli recurrence; 128 rows hold every row a
    # session at the CLI's default --max-k reaches.  A tuple, so that no
    # reader can change what later callers get
    row = [1]
    for i in range(m // 2):
        row.append(row[-1] * (m - i) // (i + 1))
    return (*row, *row[m % 2 - 2::-1])


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


class _Table:
    """Integer sequences, each grown on demand on its own, and rows built from them.

    A table holds its sequences alone.  Scalar readers read them and build
    no row.
    ``_row(n)`` builds row n in O(n) from the table's own sequence,
    as the unreduced integer form ``(den, nums)`` that the identity suite
    certifies and reads, and keeps it nowhere; ``poly(n)`` is that form as
    the canonical ``RationalPolynomial``, and ``number(n)`` grows
    ``numbers`` to index n.  Growth appends under the table's lock (one
    writer), and entries never change once written, so reads need no
    synchronization.
    """

    def __init__(self) -> None:
        self.numbers: list[Fraction] = []
        self._lock = threading.Lock()

    def _grow(self, entries: list, n: int, entry) -> list:
        n = _as_int(n, "n")
        if n < 0:
            raise ValueError("index must be >= 0")
        if len(entries) <= n:
            with self._lock:
                for m in range(len(entries), n + 1):
                    entries.append(entry(m))
        return entries

    def poly(self, n: int) -> RationalPolynomial:
        return RationalPolynomial(*self._row(n))

    def number(self, n: int) -> Fraction:
        return self._grow(self.numbers, n, self._number)[n]


class EulerTable(_Table):
    """Euler polynomials and numbers from two integer triangles.

    ``scaled_at_zero(n)`` holds a_j = 2^j E_j(0) from the tangent numbers,
    a_(2k-1) = (-1)^k T_k and a_(2k) = 0 for k >= 1, and ``numbers[n]`` is
    E_n = 2^n E_n(1/2) from the secant numbers, E_(2k) = (-1)^k S_k and
    E_(2k+1) = 0: each triangle (Brent & Harvey, "Fast computation of
    Bernoulli, tangent and secant numbers", 2013) costs O(n) integer
    operations per index.  As E_n(x) = sum_i C(n, i) E_(n-i)(0) x^i (DLMF
    24.4), ``_row(n)`` is the integer form (2^n, [C(n, i) 2^i a_(n-i)]), and
    the identity suite certifies a row by equality with it.  Identity 1.2
    of :func:`run_identity_suite` checks one triangle against the other;
    neither touches the Bernoulli route.
    """

    def __init__(self) -> None:
        super().__init__()
        # a_j so far, and the last columns of the tangent (T_1) and secant (S_0) triangles
        self._at_zero: list[int] = []
        self._tangent = [1]
        self._secant = [1]

    def scaled_at_zero(self, n: int) -> list[int]:
        """[a_0, a_1, ...] through at least a_n, a_j = 2^j E_j(0): integers."""
        return self._grow(self._at_zero, n, self._next_at_zero)

    def _next_at_zero(self, m: int) -> int:
        if m % 2 == 0:
            return 0 if m else 1
        if m > 1:
            self._tangent = _triangle_step(self._tangent, 2)
        return (-1) ** ((m + 1) // 2) * self._tangent[-1]

    def _number(self, m: int) -> Fraction:
        if m % 2:
            return Fraction(0)
        if m:
            self._secant = _triangle_step(self._secant, 1)
        return Fraction((-1) ** (m // 2) * self._secant[-1])

    def _row(self, n: int) -> tuple[int, list[int]]:
        a = self.scaled_at_zero(n)
        return 1 << n, [*map(lshift, map(mul, _binomials(n), a[n::-1]), range(n + 1))]


class BernoulliTable(_Table):
    """Bernoulli polynomials and numbers (B_1 = -1/2) from one integer sequence.

    ``scaled_numbers(n)`` runs sum_(j<=m) C(m+1, j) B_j = 0 on integers over
    D = lcm(1, ..., n + 1), rescaling what it keeps as D grows:
    D B_m = -(sum_(j<m) C(m+1, j) D B_j) / (m + 1) divides exactly, as B_m's
    denominator is a product of primes p <= m + 1 (von Staudt-Clausen).
    ``numbers[n]`` is D B_n / D, and ``_row(n)`` is the integer form
    (D, [C(n, i) D B_(n-i)]) of B_n(x) = sum_i C(n, i) B_(n-i) x^i, which
    the identity suite certifies by equality.  No Euler triangle is used,
    so this route stays independent of the Euler table.
    """

    def __init__(self) -> None:
        super().__init__()
        self._scaled: tuple[int, list[int]] = (1, [])

    def scaled_numbers(self, n: int) -> tuple[int, list[int]]:
        """(D, [D B_0, D B_1, ...]) through at least D B_n: integers over one D."""
        n = _as_int(n, "n")
        if n < 0:
            raise ValueError("index must be >= 0")
        with self._lock:
            den, b = self._scaled
            if len(b) <= n:
                new = math.lcm(den, *range(len(b) + 1, n + 2))
                b = [x * (new // den) for x in b]
                for m in range(len(b), n + 1):
                    b.append(-sum(map(mul, _binomials(m + 1), b)) // (m + 1) if m else new)
                # replaced as one tuple, so no reader pairs one D with another's integers
                self._scaled = new, b
            return self._scaled

    def number(self, n: int) -> Fraction:
        den, b = self.scaled_numbers(n)
        return self._grow(self.numbers, n, lambda m: Fraction(b[m], den))[n]

    def _row(self, n: int) -> tuple[int, list[int]]:
        den, b = self.scaled_numbers(n)
        return den, [*map(mul, _binomials(n), b[n::-1])]


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

    B_{n,chi4} = 4^(n-1) * (B_n(1/4) - B_n(3/4)); zero for even n.  For odd
    n the reflection B_n(1-x) = -B_n(x) (DLMF 24.4.3) makes it
    2 * 4^(n-1) * B_n(1/4) = sum_j C(n, j) B_j 4^j / 2, read off the
    Bernoulli table's integers D B_j at the one point 1/4 in one O(n) pass,
    with no row built.  Only the identity suite evaluates a row at both
    quarter points, since a corrupted row need not obey the reflection.
    """
    n = _as_int(n, "n")
    if n < 1:
        raise ValueError("n must be >= 1")
    return Fraction(*_chi4_ratio(n))


def _chi4_ratio(n: int) -> tuple[int, int]:
    # B_{n,chi4} for n >= 1 as an integer pair that no gcd has reduced:
    # (sum_j C(n, j) D B_j 4^j, 2 D) for odd n
    if n % 2 == 0:
        return 0, 1
    den, b = _BERNOULLI.scaled_numbers(n)
    return sum(map(lshift, map(mul, _binomials(n), b[:n + 1]), range(0, 2 * n + 1, 2))), 2 * den


def _chi4(den: int, nums: list[int] | tuple[int, ...], n: int) -> tuple[int, int]:
    # 4^(n-1) (b(1/4) - b(3/4)) as an integer ratio, for b = (1/den) sum nums_i x^i,
    # both points as defined, so that a row that breaks the reflection is judged too:
    # one Horner pass gives sum nums_i (1 - 3^i) 4^(d-i) with d = len(nums) - 1,
    # which is that value times 4^(d-n+1) den
    acc, p3 = 0, 1
    for c in nums:
        acc = (acc << 2) + c * (1 - p3) if c else acc << 2
        p3 *= 3
    e = 2 * (n - len(nums))
    return (acc << e, den) if e >= 0 else (acc, den << -e)


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


def _family_result(identity_id: str, checks) -> IdentityResult:
    # one (n, ok) pair per instance; the first failing n is reported
    checks = list(checks)
    failed = [n for n, ok in checks if not ok]
    return IdentityResult(identity_id, len(checks), not failed,
                          {"n": failed[0]} if failed else None)


def _bridge_holds(bden: int, bnums: list[int], eden: int, enums: list[int], k: int) -> bool:
    # with B_k = (1/bden) sum b_j x^j, d >= k and its degree (d = k for a true
    # row), 2^d bden B_k(x/2) has coefficients c_j = b_j 2^(d-j) and
    # 2^d bden B_k((x+1)/2) their shift s; with E_(k-1) = (1/eden) sum e_j x^j
    # the bridge reads k bden 2^(d-k) e_j = eden (s_j - c_j)
    d = max(len(bnums) - 1, k)
    c = [x << (d - j) for j, x in enumerate(bnums)]
    s = taylor_shift(c)
    scale = k * bden << (d - k)
    return all(scale * x == eden * (y - z) for x, y, z in zip_longest(enums, s, c, fillvalue=0))


def _deriv_holds(den: int, nums: list[int], pden: int, pnums: list[int], r: int) -> bool:
    # with E_r = (1/den) sum c_j x^j and E_(r-1) = (1/pden) sum f_j x^j,
    # E_r' = r E_(r-1) reads j pden c_j = r den f_(j-1) for every j >= 1
    return ([*map(mul, range(pden, len(nums) * pden, pden), nums[1:])]
            == [*map(mul, pnums, repeat(r * den))])


def _ratio_eq(u: int, v: int, x: int, y: int) -> bool:
    # u/v == x/y for nonzero v and y, without reducing either
    return u * y == x * v


def _suite_pass(et: EulerTable, bt: BernoulliTable, nmax: int) -> tuple:
    # One pass over r with Pascal's row c = C(r, .), grown by additions, in
    # which row r of each table is built, certified and read.  Per Euler
    # index r <= nmax: 1.1, 1.3 and 1.4 at r, 1.5 on rows r - 1 and r, and
    # E_r(1/2) as a ratio; per Bernoulli index r <= nmax + 1: B_(r,chi4) as
    # a ratio and, for 1 <= r <= nmax, the bridge at r.  A certified row is
    # read through the scalars of its certificate, any other on its own list.
    a = et.scaled_at_zero(nmax)
    den, b = bt.scaled_numbers(nmax + 1)
    reflect, shift_sum, vanish, deriv, half, chi4, bridge = [], [], [], [], [], [None], [None]
    prev, prev_ok = (1, []), True  # E_(r-1), and 0 below E_0
    c, ok11, ok13, ok_bridge = [], True, True, True
    for r in range(nmax + 2):
        c = [1, *map(add, c, c[1:]), 1] if c else [1]
        v = [*map(mul, c, b[r::-1])]  # C(r, i) D B_(r-i), the coefficient of x^i
        brow = bt._row(r)
        bern_ok = brow == (den, v)
        if r:
            chi4.append(_chi4(*brow, r))
        if r > nmax:
            break
        row = et._row(r)
        p = [*map(mul, c, a[r::-1])]  # C(r, i) a_(r-i): 2^i times it is the coefficient of x^i
        terms = [*map(lshift, p, range(r + 1))]
        ok = row == (1 << r, terms)
        at_one = sum(terms)  # A_r = 2^r E_r(1)
        ok11 = ok11 and at_one == (-1) ** r * a[r]
        ok13 = ok13 and at_one + a[r] == (0 if r else 2)
        rden, nums = row
        if ok:
            # E_r(0) = a_r / 2^r, E_r(1) = A_r / 2^r, E_r(1/2) = sum_j C(r, j) a_j / 2^r
            reflect.append(ok11)
            shift_sum.append(ok13)
            vanish.append(a[r] == 0 and at_one == 0)
            half.append((sum(p), rden))
        else:
            # on the row E_r = (1/D) sum c_j x^j, of length d, with
            # E_r(x+1) = (1/D) sum s_j x^j: 1.1 reads (-1)^j s_j = (-1)^r c_j,
            # E_r(0) = c_0 / D, E_r(1) = sum c_j / D, E_r(1/2) = sum c_j 2^(d-j) / (D 2^d)
            s, d = taylor_shift(nums), len(nums)
            reflect.append(s == [-x if (r + j) % 2 else x for j, x in enumerate(nums)])
            shift_sum.append([x + y for x, y in zip(s, nums)] == [0] * r + [2 * rden])
            vanish.append(not any(nums[:1]) and sum(nums) == 0)
            half.append((sum(map(lshift, nums, range(d, 0, -1))), rden << d))
        # 1.5 holds on two certified rows: j C(r, j) = r C(r-1, j-1)
        deriv.append(ok and prev_ok or _deriv_holds(*row, *prev, r))
        if r:
            # sum_(j<r) C(r, j) D B_j 2^j, from the Bernoulli row's terms
            rhs = sum(map(lshift, v[:0:-1], range(r)))
            ok_bridge = ok_bridge and r * den * a[r - 1] == rhs << r - 1
            bridge.append(ok_bridge if bern_ok and prev_ok else _bridge_holds(*brow, *prev, r))
        prev, prev_ok = row, ok
    return reflect, shift_sum, vanish, deriv, half, chi4, bridge


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

    Each family is a stream of (n, ok) checks, one instance per index, and
    reports its first failing n.  In one pass over n the suite builds row n
    of each table as its unreduced integer form ``_row(n)`` = (D, [c_j]) and
    drops it after the next index, so the pass holds O(nmax) integers of
    rows and builds no ``RationalPolynomial``.

    Both tables hold Appell sequences (Appell 1880; DLMF 24.4):
    E_n(x) = sum_i C(n, i) E_(n-i)(0) x^i and
    B_n(x) = sum_i C(n, i) B_(n-i) x^i.  The pass certifies in O(n) that
    row n is its own table's Appell row: with a_j = 2^j E_j(0)
    (``scaled_at_zero``) and (D, D B_j) (``scaled_numbers``), an Euler row
    is certified when its form equals (2^n, [C(n, i) 2^i a_(n-i)]), and a
    Bernoulli row when its form equals (D, [C(n, i) D B_(n-i)]), both lists
    for i = 0 .. n.  The rows take their binomials from ``_binomials``, one
    bounded per-process cache; the certificate keeps its own Pascal rows,
    grown by additions, so a row built with a wrong binomial is not
    certified.
    Every shifted Appell row is again a sum over the sequence
    (E_n(x+1) = sum_i C(n, i) E_(n-i)(1) x^i), so on certified rows the
    three families that compare shifted polynomials reduce to scalar sums,
    one per index r and shared by every row above it, and 1.4 and 1.5 need
    no list at all; with A_r = sum_j C(r, j) 2^(r-j) a_j = 2^r E_r(1):

      1.1  holds at n iff A_r = (-1)^r a_r for every r <= n: the
           coefficient of x^i in E_n(1-x) - (-1)^n E_n(x) is
           C(n, i) (-1)^i (E_r(1) - (-1)^r E_r(0)) with r = n - i.
      1.3  holds at n iff A_r + a_r = 2 [r = 0] for every r <= n: the
           coefficient of x^i in E_n(x+1) + E_n(x) is
           C(n, i) (E_r(1) + E_r(0)) with r = n - i.
      1.4  holds at n iff a_n = A_n = 0: E_n(0) = a_n / 2^n and
           E_n(1) = A_n / 2^n.
      1.5  holds at n whenever rows n and n - 1 are both certified, for any
           sequence: as j C(n, j) = n C(n-1, j-1), the coefficient of
           x^(j-1) on each side is n C(n-1, j-1) E_(n-j)(0).
      bridge_euler_bernoulli
           holds at k iff m D a_(m-1) = 2^(m-1) sum_(j<m) C(m, j) D B_j 2^j
           for every 1 <= m <= k: with m = k - i and C(k, i)/k = C(k-1, i)/m,
           the coefficient of x^i on the right is
           C(k-1, i) 2^m (B_m(1/2) - B_m) / m, and 2^m B_m(1/2) is
           sum_(j<=m) C(m, j) B_j 2^j; on the left it is C(k-1, i) E_(m-1)(0).

    The other three read every row, certified or not, in O(n): E_n(1/2) is
    sum_j C(n, j) a_j / 2^n on a certified row, which 1.2 compares with
    E_n, and B_{n,chi4} comes from one Horner pass over each Bernoulli row's
    integers at both quarter points (the reference that the one-point pass
    of :func:`generalized_bernoulli_chi4` is tested against); 1.6 and
    bridge_chi4 compare the two as cross-multiplied integers.

    An instance that touches an uncertified row (a corrupted or injected
    one, or the same polynomial over another denominator) is checked on
    that row's integer coefficient list; with E_n = (1/D) sum c_j x^j of
    length d:

      1.1, 1.3, bridge_euler_bernoulli
           one addition-only Taylor shift gives E_n(x+1), another
           B_k((x+1)/2).
      1.4  E_n(0) = c_0 / D and E_n(1) = sum c_j / D.
      1.5  j D_(n-1) c_j = n D f_(j-1) for every j, with the row below
           E_(n-1) = (1/D_(n-1)) sum f_j x^j.
      1.2, 1.6, bridge_chi4
           E_n(1/2) = sum c_j 2^(d-j) / (D 2^d).

    Two polynomials agree at every x exactly when their coefficients agree,
    and multiplying both sides by the same nonzero integer keeps them equal
    or unequal, so either way the verdict holds for every x.  On true tables
    no shift and no derivative list is formed, and the suite costs
    O(nmax^2) integer operations.  ``trials`` (>= 1) and ``seed`` are
    validated and otherwise ignored: the report depends on nmax and the
    tables alone.  Failures are reported, not raised.
    """
    nmax, trials = _as_int(nmax, "nmax"), _as_int(trials, "trials")
    if nmax < 0:
        raise ValueError("nmax must be >= 0")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    et = euler if euler is not None else _EULER
    bt = bernoulli if bernoulli is not None else _BERNOULLI
    et.number(nmax)
    reflect, shift_sum, vanish, deriv, half, chi4, bridge = _suite_pass(et, bt, nmax)
    families = {
        "1.1": enumerate(reflect),
        "1.2": ((n, _ratio_eq(*et.numbers[n].as_integer_ratio(), h << n, v))
                for n, (h, v) in enumerate(half)),
        "1.3": enumerate(shift_sum),
        "1.4": ((n, vanish[n]) for n in range(2, nmax + 1, 2)),
        "1.5": enumerate(deriv),
        # E_n(1/2) (n+1) 2^(n-1) = -B_{n+1,chi4}, doubled
        "1.6": ((n, _ratio_eq(half[n][0] * ((n + 1) << n), half[n][1],
                              -2 * chi4[n + 1][0], chi4[n + 1][1]))
                for n in range(0, nmax + 1, 2)),
        "bridge_euler_bernoulli": ((k, bridge[k]) for k in range(1, nmax + 1)),
        # E_(k-1)(1/2) 2^(k-2) k = -B_{k,chi4}, times 4
        "bridge_chi4": ((k, _ratio_eq(half[k - 1][0] * (k << k), half[k - 1][1],
                                      -4 * chi4[k][0], chi4[k][1]))
                        for k in range(1, nmax + 1)),
    }
    return IdentityReport(nmax, [_family_result(i, checks) for i, checks in families.items()])
