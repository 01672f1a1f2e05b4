"""Exact rationals and polynomials.

Scalars are arbitrary-precision rationals (``fractions.Fraction``); dense
polynomials are stored as reduced integer forms, which the tables return
(the identity suite reads the tables' unreduced forms and reduces none).
All values are immutable and all functions are pure, so they can be shared
freely between threads.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from fractions import Fraction
from itertools import accumulate, repeat
from operator import floordiv

RationalLike = int | Fraction

__all__ = [
    "RationalPolynomial",
    "digit_string",
    "rational_str",
    "taylor_shift",
]


# str(int) refuses more digits than sys.get_int_max_str_digits() (4300 by
# default from Python 3.11, never set below 640), a process-wide setting,
# so digit_string converts 600 digits at a time
_CHUNK_DIGITS = 600
_CHUNK = 10**_CHUNK_DIGITS


def digit_string(n: int) -> str:
    """Decimal digits of the integer n >= 0, of any length."""
    chunks = []
    while n >= _CHUNK:
        n, low = divmod(n, _CHUNK)
        chunks.append(str(low).zfill(_CHUNK_DIGITS))
    chunks.append(str(n))
    return "".join(reversed(chunks))


def rational_str(q: RationalLike) -> str:
    """Serialize a rational as ``"p/q"``, or just ``"p"`` when q = 1."""
    q = Fraction(q)
    num = ("-" if q < 0 else "") + digit_string(abs(q.numerator))
    if q.denominator == 1:
        return num
    return f"{num}/{digit_string(q.denominator)}"


# how a frozen ValueClass's __init__ sets its fields, past its __setattr__
_set_field = object.__setattr__


class ValueClass:
    """Base of the value classes: what they used of ``dataclasses``.

    A subclass's own ``__init__`` sets its fields, in order, and nothing
    else, so ``__dict__`` holds exactly the fields.  Instances compare ``==``
    field by field, only with instances of the same class, and print as
    ``Cls(field=value, ...)``.  A frozen subclass (the default) is hashable
    and refuses assignment, so its ``__init__`` sets fields with
    ``_set_field``; ``frozen=False`` makes a mutable, unhashable class.
    Pickles carry ``__dict__`` and skip ``__init__``.  (Importing
    ``dataclasses`` costs each process about 10 ms.)
    """

    def __init_subclass__(cls, frozen: bool = True) -> None:
        if not frozen:
            cls.__setattr__ = object.__setattr__
            cls.__delattr__ = object.__delattr__
            cls.__hash__ = None

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self.__dict__ == other.__dict__
        return NotImplemented

    def __hash__(self) -> int:
        return hash(tuple(self.__dict__.values()))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in self.__dict__.items())
        return f"{type(self).__qualname__}({fields})"


class RationalPolynomial(ValueClass):
    """Dense univariate polynomial with exact rational coefficients.

    (1/den) sum nums[i] x^i for an integer den > 0 and integers nums.  The
    constructor reduces them to the one canonical form, gcd(den, nums...) = 1
    with no trailing zero (the zero polynomial is den 1, nums (), degree -1),
    so equal polynomials have equal fields and ``==``, ``hash``, evaluation
    and pickles run on plain integers.  :meth:`from_coefficients` builds one
    from rationals, and :attr:`coeffs` derives ``Fraction`` coefficients.
    It has no arithmetic operators: the tables build rows, and
    :func:`taylor_shift` works on their integer coefficient lists.
    """

    def __init__(self, den: int, nums: Iterable[int]) -> None:
        if den <= 0:
            raise ValueError(f"denominator must be positive, got {den}")
        nums = list(nums)
        while nums and not nums[-1]:
            nums.pop()
        g = math.gcd(den, *nums)
        _set_field(self, "den", den // g)
        _set_field(self, "nums", tuple(map(floordiv, nums, repeat(g))) if g > 1 else tuple(nums))

    @classmethod
    def from_coefficients(cls, coeffs: Iterable[RationalLike]) -> "RationalPolynomial":
        cs = [Fraction(c) for c in coeffs]
        d = math.lcm(*(c.denominator for c in cs))
        return cls(d, [c.numerator * (d // c.denominator) for c in cs])

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """``coeffs[i]`` is the coefficient of x^i; built on each read."""
        return tuple(map(Fraction, self.nums, repeat(self.den)))

    @property
    def degree(self) -> int:
        return len(self.nums) - 1

    def coefficient(self, i: int) -> Fraction:
        if 0 <= i < len(self.nums):
            return Fraction(self.nums[i], self.den)
        return Fraction(0)

    def __call__(self, x: RationalLike) -> Fraction:
        """Exact value at x.

        Horner's rule on the common-denominator integer form: for x = u/v the
        value is (sum c_i u^i v^(d-i)) / (D v^d), one gcd at the end instead of
        one per operation.
        """
        if not self.nums:
            return Fraction(0)
        x = Fraction(x)
        ints = self.nums
        u, v = x.numerator, x.denominator
        deg = len(ints) - 1
        vpow = [1] * (deg + 1)
        for j in range(1, deg + 1):
            vpow[j] = vpow[j - 1] * v
        acc = ints[deg]
        for i in range(deg - 1, -1, -1):
            acc = acc * u + ints[i] * vpow[deg - i]
        return Fraction(acc, self.den * vpow[deg])

    def __str__(self) -> str:
        parts: list[str] = []
        for i, c in reversed(list(enumerate(self.coeffs))):
            if c == 0:
                continue
            sign = "-" if c < 0 else "+"
            mag = abs(c)
            if i == 0:
                body = rational_str(mag)
            else:
                x = "x" if i == 1 else f"x^{i}"
                body = x if mag == 1 else f"{rational_str(mag)}*{x}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f" {sign} {body}")
        return "".join(parts) or "0"


def taylor_shift(nums: Iterable[int]) -> list[int]:
    """Coefficients of p(x + 1), given those of p (lowest power first).

    Integer Taylor shift by one with additions only.  Horner's passes
    r_j += r_(j+1), for j from the top down, are running sums: on the
    coefficients highest first, pass i is a running sum over the d + 1 - i
    highest ones, whose last entry is then final, so the d(d+1)/2
    additions run inside ``itertools.accumulate``.
    """
    r = list(nums)[::-1]
    out = []
    while r:
        r = list(accumulate(r))
        out.append(r.pop())
    return out

