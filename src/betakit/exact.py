"""Exact rational and polynomial arithmetic.

Scalars are arbitrary-precision rationals (``fractions.Fraction``,
re-exported as :data:`Rational`); dense polynomials are stored as reduced
integer forms and computed on plain integers.  All values are immutable and
all operations are pure, so they can be shared freely between threads.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from fractions import Fraction
from itertools import repeat, zip_longest

# The universal exact scalar.  Fraction already maintains the canonical form
# we need: positive denominator, gcd(|num|, den) = 1, and zero stored as 0/1.
Rational = Fraction

RationalLike = int | Fraction

__all__ = [
    "Rational",
    "RationalPolynomial",
    "binomial",
    "digit_string",
    "poly_compose_affine",
    "poly_derivative",
    "poly_eval",
    "rational_from_str",
    "rational_str",
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


def _parse_digits(s: str) -> int:
    # digit_string inverted, one _CHUNK_DIGITS chunk per int() call
    s = s.zfill(-(-len(s) // _CHUNK_DIGITS) * _CHUNK_DIGITS)
    n = 0
    for i in range(0, len(s), _CHUNK_DIGITS):
        n = n * _CHUNK + int(s[i : i + _CHUNK_DIGITS])
    return n


def rational_from_str(s: str) -> Fraction:
    """Inverse of :func:`rational_str`, of any length: ``"p/q"`` or ``"p"``."""
    parts = s.removeprefix("-").split("/")
    if len(parts) > 2 or not all(p.isascii() and p.isdigit() for p in parts):
        raise ValueError(f"not a rational string: {s[:40]!r}")
    try:
        value = Fraction(*map(_parse_digits, parts))
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in rational string: {s[:40]!r}") from None
    return -value if s.startswith("-") else value


def binomial(n: int, k: int) -> int:
    """Exact binomial coefficient C(n, k), requiring 0 <= k <= n."""
    if n < 0 or k < 0:
        raise ValueError(f"binomial requires nonnegative arguments, got ({n}, {k})")
    if k > n:
        raise ValueError(f"binomial requires k <= n, got ({n}, {k})")
    return math.comb(n, k)


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
    so equal polynomials have equal fields and arithmetic, ``==``, ``hash``
    and pickles run on plain integers.  :meth:`from_coefficients` builds one
    from rationals, and :attr:`coeffs` derives ``Fraction`` coefficients.
    """

    def __init__(self, den: int, nums: Iterable[int]) -> None:
        if den <= 0:
            raise ValueError(f"denominator must be positive, got {den}")
        nums = list(nums)
        while nums and not nums[-1]:
            nums.pop()
        g = math.gcd(den, *nums)
        _set_field(self, "den", den // g)
        _set_field(self, "nums", tuple(c // g for c in nums) if g > 1 else tuple(nums))

    @classmethod
    def from_coefficients(cls, coeffs: Iterable[RationalLike]) -> "RationalPolynomial":
        cs = [Fraction(c) for c in coeffs]
        d = math.lcm(*(c.denominator for c in cs))
        return cls(d, [c.numerator * (d // c.denominator) for c in cs])

    @classmethod
    def zero(cls) -> "RationalPolynomial":
        return cls(1, ())

    @classmethod
    def monomial(cls, power: int, coeff: RationalLike = 1) -> "RationalPolynomial":
        if power < 0:
            raise ValueError(f"monomial power must be >= 0, got {power}")
        u, v = Fraction(coeff).as_integer_ratio()
        return cls(v, (0,) * power + (u,))

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
        return poly_eval(self, x)

    def __add__(self, other: "RationalPolynomial") -> "RationalPolynomial":
        if not isinstance(other, RationalPolynomial):
            return NotImplemented
        d = math.lcm(self.den, other.den)
        m1, m2 = d // self.den, d // other.den
        return RationalPolynomial(
            d, [x * m1 + y * m2 for x, y in zip_longest(self.nums, other.nums, fillvalue=0)]
        )

    def __neg__(self) -> "RationalPolynomial":
        return RationalPolynomial(self.den, [-c for c in self.nums])

    def __sub__(self, other: "RationalPolynomial") -> "RationalPolynomial":
        if not isinstance(other, RationalPolynomial):
            return NotImplemented
        return self + -other

    def __mul__(self, scalar: RationalLike) -> "RationalPolynomial":
        if not isinstance(scalar, (int, Fraction)):
            return NotImplemented
        u, v = scalar.as_integer_ratio()
        return RationalPolynomial(self.den * v, [c * u for c in self.nums])

    __rmul__ = __mul__

    def derivative(self) -> "RationalPolynomial":
        return poly_derivative(self)

    def compose_affine(self, a: RationalLike, b: RationalLike) -> "RationalPolynomial":
        return poly_compose_affine(self, a, b)

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


def poly_eval(p: RationalPolynomial, x: RationalLike) -> Fraction:
    """Exact value of p at x.

    Horner's rule on the common-denominator integer form: for x = u/v the
    value is (sum c_i u^i v^(d-i)) / (D v^d), one gcd at the end instead of
    one per operation.
    """
    if not p.nums:
        return Fraction(0)
    x = Fraction(x)
    d, ints = p.den, p.nums
    u, v = x.numerator, x.denominator
    deg = len(ints) - 1
    if v == 1:
        acc = ints[deg]
        for i in range(deg - 1, -1, -1):
            acc = acc * u + ints[i]
        return Fraction(acc, d)
    vpow = [1] * (deg + 1)
    for j in range(1, deg + 1):
        vpow[j] = vpow[j - 1] * v
    acc = ints[deg]
    for i in range(deg - 1, -1, -1):
        acc = acc * u + ints[i] * vpow[deg - i]
    return Fraction(acc, d * vpow[deg])


def poly_derivative(p: RationalPolynomial) -> RationalPolynomial:
    """Formal derivative, in canonical form."""
    return RationalPolynomial(p.den, [i * c for i, c in enumerate(p.nums) if i])


def poly_compose_affine(
    p: RationalPolynomial, a: RationalLike, b: RationalLike
) -> RationalPolynomial:
    """The polynomial q with q(x) = p(a*x + b), computed exactly.

    On the common-denominator integer form p = (1/D) sum c_i x^i, with
    a*x + b = (u_a*x + u_b)/v over one common denominator v,
    q(x) = R(u_a*x) / (D v^d) where R(z) = sum c_i v^(d-i) (z + u_b)^i.  R
    is the Taylor shift of the integers c_i v^(d-i) by u_b (Horner's
    d(d+1)/2 multiply-adds, none when b = 0) and its coefficient of z^j is
    then scaled by u_a^j, all on plain integers; the result is reduced once
    at the end.
    """
    a = Fraction(a)
    b = Fraction(b)
    d, ints = p.den, p.nums
    v = math.lcm(a.denominator, b.denominator)
    ua, ub = a.numerator * (v // a.denominator), b.numerator * (v // b.denominator)
    deg = len(ints) - 1
    r, vpow = list(ints), 1
    for i in range(deg - 1, -1, -1):
        vpow *= v
        r[i] *= vpow
    if ub:
        for i in range(deg):
            for j in range(deg - 1, i - 1, -1):
                r[j] += ub * r[j + 1]
    upow = 1
    for j in range(1, deg + 1):
        upow *= ua
        r[j] *= upow
    return RationalPolynomial(d * vpow, r)
