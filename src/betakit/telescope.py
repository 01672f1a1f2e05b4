"""Executable form of the telescoping convergence arguments.

The alternating sums of the auxiliary integrals collapse by telescoping:
after subtracting a sine multiple that removes the m = 0 resonance, the
modified sums converge to zero, and the J-family sums converge to the
integral that represents beta(2k).  This module provides the modified
integrand, the exact correction term, the extended boundary functions whose
finiteness drives the cancellation, and partial-sum traces that exhibit the
limits numerically.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import cycle, repeat
from operator import truediv

from . import eulerpoly
from .eulerpoly import euler_number, generalized_bernoulli_chi4
from .exact import ValueClass, _set_field
from .highprec import _as_int, pi_power
from .quadrature import (
    DEFAULT_TOL, MIN_TOL, _float_coeffs, _horner, _scale, _sec_integral, beta_even_integrand,
)

__all__ = [
    "ExtendedFunctionSpec",
    "PartialSumTrace",
    "correction_term",
    "e_star",
    "extended_eval",
    "partial_sum_I_star",
    "partial_sum_J",
]


def e_star(k: int, t: float) -> float:
    """The modified integrand E*_{2k}(t) = E_{2k}(t) - (E_{2k}/2^(2k)) sin(pi t).

    The subtraction makes both endpoint values vanish for k >= 1 (and the
    t = 1/2 value vanish for every k), which is what lets the telescoped
    series cancel.  It is s(2k) times the same difference for p_{2k}: k <= 109.
    """
    k = _as_int(k, "k")
    if k < 0:
        raise ValueError("k must be >= 0")
    if not 0.0 <= t <= 0.5:
        raise ValueError(f"t={t} outside [0, 1/2]")
    at_half = _float_coeffs(2 * k, True)[0]
    return _scale(2 * k) * (_horner(_float_coeffs(2 * k), t) - at_half * math.sin(math.pi * t))


def correction_term(k: int, m: int) -> Fraction:
    """Exact value of the integral removed by the modification.

    integral_0^(1/2) (E_{2k}/2^(2k)) sin(pi t) sin((2m+1) pi t) dt equals
    E_{2k}/2^(2k+2) when m = 0 and vanishes otherwise.  The equivalent
    form -B_{2k+1,chi4}/((2k+1) 2^(2k+1)) is computed as well and must
    agree exactly; a mismatch would mean a corrupted table.
    """
    k, m = _as_int(k, "k"), _as_int(m, "m")
    if k < 0 or m < 0:
        raise ValueError("k and m must be >= 0")
    if m != 0:
        return Fraction(0)
    value = euler_number(2 * k) / Fraction(2) ** (2 * k + 2)
    alt = -generalized_bernoulli_chi4(2 * k + 1) / ((2 * k + 1) * Fraction(2) ** (2 * k + 1))
    if value != alt:
        raise RuntimeError(f"correction term self-check failed for k={k}")
    return value


class ExtendedFunctionSpec(ValueClass):
    """One of the boundary-extended quotients f, g, h on [0, 1/2].

      f(t) = E*_{2k}(t) / sin(2 pi t)      (k >= 1; singular at 0 and 1/2)
      g(t) = E*_{2k}(t) / cos(pi t)        (k >= 0; singular at 1/2)
      h(t) = E_{2k-1}(t) / (2 cos(pi t))   (k >= 1; singular at 1/2)

    f needs k >= 1 because E*_0(0) = 1: the quotient genuinely diverges at
    t = 0 for k = 0, so no continuous extension exists there.  k <= 109:
    :func:`extended_eval` scales by s(2k) (f, g) or s(2k-1) (h), so a larger
    k is a ValueError naming the double range.
    endpoint_values maps the singular endpoints ("0", "1/2") to the exact
    limits, f(0) = k E_{2k-1}(0) / pi - E_{2k} / 2^(2k+1) and
    h(1/2) = -(2k-1) E_{2k-2}(1/2) / (2 pi), formed exactly from the Euler
    table's integers (a_j / 2^j for E_j(0), E_j / 2^j for E_j(1/2): no row
    is built) and a certified pi, and rounded once to a double.
    """

    def __init__(self, name: str, k: int) -> None:
        if name not in ("f", "g", "h"):
            raise ValueError(f"unknown extended function {name!r}")
        k = _as_int(k, "k")
        if name == "g":
            if k < 0:
                raise ValueError("g requires k >= 0")
        elif k < 1:
            raise ValueError(f"{name} requires k >= 1")
        _set_field(self, "name", name)
        _set_field(self, "k", k)
        _scale(2 * k - 1 if name == "h" else 2 * k)  # raises past k = 109
        # f's two terms agree to about 3^-2k = 2^-3.17k of their size (led by the
        # n = 1 terms of the odd zeta and beta sums), so 1/pi within 2^-(4k+80)
        # leaves over 80 correct bits; both limits fit a double wherever the
        # scale does (the largest, h at k = 109, 1.8e306)
        ev: dict[str, float] = {}
        if name == "f":
            at_zero = Fraction(eulerpoly._EULER.scaled_at_zero(2 * k - 1)[2 * k - 1], 1 << 2 * k - 1)
            ev["0"] = float(
                k * at_zero * pi_power(-1, 4 * k + 80) - euler_number(2 * k) / 2 ** (2 * k + 1)
            )
            ev["1/2"] = 0.0
        elif name == "g":
            ev["1/2"] = 0.0
        else:
            at_half = euler_number(2 * k - 2) / 2 ** (2 * k - 2)
            ev["1/2"] = float(-(2 * k - 1) * at_half * pi_power(-1, 4 * k + 80) / 2)
        _set_field(self, "endpoint_values", ev)

    def __hash__(self) -> int:
        # name and k determine endpoint_values, a dict, which cannot be hashed
        return hash((self.name, self.k))


def extended_eval(spec: ExtendedFunctionSpec, t: float) -> float:
    """Evaluate f, g or h, continuous at their singular endpoints.

    h is half the beta(2k) integrand; f and g are s(2k) times the same
    quotients for p_{2k}: k <= 109.  Let a = p_{2k}(1/2).  On [1/4, 1/2],
    p_{2k} in powers of u = t - 1/2 is a + sum_{i>=2} c_i u^i and
    sin(pi t) = 1 - 2 sin^2(pi u/2), so with a cancelled exactly
    g = -(u^2 sum_{i>=2} c_i u^(i-2) + 2 a sin^2(pi u/2)) / sin(pi u) and
    f = g / (2 sin(pi t)), both 0 at t = 1/2.  On [0, 1/4), g is the plain
    quotient, and p_{2k}(t) = t P(t) for k >= 1, so
    f = (P(t) t / sin(pi t) - a) / (2 cos(pi t)), with t / sin(pi t) = 1/pi at 0.
    """
    if not 0.0 <= t <= 0.5:
        raise ValueError(f"t={t} outside [0, 1/2]")
    k = spec.k
    if spec.name == "h":
        return 0.5 * beta_even_integrand(k, t)
    if t < 0.25 and spec.name == "g":
        return e_star(k, t) / math.cos(math.pi * t)
    scale = _scale(2 * k)
    if t < 0.25:
        a = _float_coeffs(2 * k, True)[0]
        ratio = t / math.sin(math.pi * t) if t else 1 / math.pi
        p = _horner(_float_coeffs(2 * k)[1:], t)
        return scale * (p * ratio - a) / (2 * math.cos(math.pi * t))
    coeffs = _float_coeffs(2 * k, True)
    u = t - 0.5
    if u == 0.0:
        return 0.0
    num = u * u * _horner(coeffs[2:], u) + 2 * coeffs[0] * math.sin(0.5 * math.pi * u) ** 2
    g = -scale * num / math.sin(math.pi * u)
    return g if spec.name == "g" else g / (2 * math.sin(math.pi * t))


class PartialSumTrace(ValueClass):
    """Sampled partial sums S_n of a telescoped alternating sum.

    For family "I_star" the target is 0; for family "J" the target is the
    integral of E_{2k-1}(t) sec(pi t) / 2 over [0, 1/2], evaluated by
    quadrature.
    """

    def __init__(
        self, family: str, k: int, target: float, entries: tuple[tuple[int, float], ...]
    ) -> None:
        _set_field(self, "family", family)
        _set_field(self, "k", k)
        _set_field(self, "target", target)
        _set_field(self, "entries", entries)

    def to_json(self) -> dict:
        return {
            "family": self.family,
            "k": self.k,
            "target": self.target,
            "entries": [[n, s] for n, s in self.entries],
        }

    def to_csv(self) -> str:
        lines = ["family,k,N,S_N,target"]
        for n, s in self.entries:
            lines.append(f"{self.family},{self.k},{n},{s!r},{self.target!r}")
        return "\n".join(lines) + "\n"

    def final(self) -> float:
        return self.entries[-1][1]


def _trace_samples(n_max: int) -> list[int]:
    # every n below 10, then decades, always including the requested endpoint
    samples = set(range(0, min(n_max, 9) + 1))
    decade = 10
    while decade <= n_max:
        samples.add(decade)
        decade *= 10
    samples.add(n_max)
    return sorted(samples)


def _terms(power: int, lo: int, hi: int):
    # a_lo, ..., a_hi, a_m = (-1)^m RN(1/RN((2m+1)^power)), formed lazily
    signs = cycle((-1.0, 1.0) if lo % 2 else (1.0, -1.0))
    return map(truediv, signs, map(float, map(pow, range(2 * lo + 1, 2 * hi + 2, 2), repeat(power))))


def _alternating_sums(power: int, n_max: int) -> list[tuple[int, float]]:
    # (n, sum_{m<=n} (-1)^m / (2m+1)^power) at each trace sample n: the
    # correctly rounded sum of the float terms a_m, as math.fsum of a_0..a_n
    # gives it.  One pass forms each term once and adds it exactly to acc,
    # the sum so far times 2^scale, where 2^-scale is the ulp of the last
    # term added: every earlier term is a multiple of it, as their
    # magnitudes never grow.  int / int rounds correctly, so acc / 2^scale
    # is that sum's double.  (ldexp cannot overflow: past a_0, each chunk
    # added ends below ten times the index it starts at, so a scaled term is
    # below both 2^53 10^power and 2^1074 3^-power, one of them below 2^1024.)
    # The signs alternate, so for every n' >= m the exact sum S_n' lies
    # between S_m and S_(m+1); rounding is monotone, so once they round to
    # the same double, every later sample is that double and the pass
    # stops.  That is tried at each sample n whose next term is below
    # ulp(s), and otherwise from the first m that is, solving
    # (2m+3)^power > 1/ulp(s), then 1/8 further each time until the next
    # sample.  No term past n_max is formed: the range check bounds only
    # (2 n_max + 1)^power.  Eager, so that callers refuse before any table
    # work.
    if (2 * n_max + 1) ** power >= 2**1024 - 2**970:  # float() would round it to inf
        raise OverflowError(f"(2N+1)^{power} exceeds the double range at N={n_max}")
    acc = scale = formed = 0

    def sum_through(m: int) -> float:
        nonlocal acc, scale, formed
        if m >= formed:
            new = 1 - math.frexp(math.ulp(next(_terms(power, m, m))))[1]  # ulp(a_m) = 2^-new
            acc <<= new - scale
            scale = new
            acc += sum(map(int, map(math.ldexp, _terms(power, formed, m), repeat(scale))))
            formed = m + 1
        return acc / (1 << scale)

    samples = _trace_samples(n_max)
    entries, settled = [], False
    for n, following in zip(samples, samples[1:] + [n_max]):
        if not settled:
            s = sum_through(n)
        entries.append((n, s))
        m = max(n, math.ceil((math.ulp(s) ** (-1 / power) - 3) / 2))
        while not settled and m < following:
            s = sum_through(m)
            settled = sum_through(m + 1) == s
            m += 1 + m // 8
    return entries


def partial_sum_I_star(k: int, n_max: int) -> PartialSumTrace:
    """Partial sums of sum_m (-1)^m I*(k, m), which telescope to zero.

    I*(k, m) differs from I(k, m) only by the m = 0 correction term, so the
    partial sums come from the closed form of I: no quadrature is needed.
    The sums form each term once and stop soon after their rounded value
    settles, also between two samples, so a trace costs O(n_max) terms only
    for small p = 2k + 1: p = 1 and 3 have not settled by n_max = 10^5,
    p = 5 settles at n = 836 and p >= 13 within the first ten samples,
    whatever n_max is.  The prefactor is
    (-1)^k s(2k), so k <= 109, and the terms are floats: (2 n_max + 1)^(2k+1)
    past the double range raises OverflowError, before any table is built.
    """
    k, n_max = _as_int(k, "k"), _as_int(n_max, "n_max")
    if k < 0 or n_max < 0:
        raise ValueError("k and n_max must be >= 0")
    pref = (-1) ** k * _scale(2 * k)
    sums = _alternating_sums(2 * k + 1, n_max)
    corr = float(correction_term(k, 0))
    entries = tuple((n, pref * s - corr) for n, s in sums)
    return PartialSumTrace("I_star", k, 0.0, entries)


def partial_sum_J(k: int, n_max: int, tol: float = DEFAULT_TOL) -> PartialSumTrace:
    """Partial sums of sum_m (-1)^m J(k-1, m) against their integral target.

    The closed form gives the terms, with the prefactor (-1)^k s(2k-1); the
    target, the integral of E_{2k-1}(t) sec(pi t) / 2, is s(2k-1) times that
    of p_{2k-1}(t) sec(pi t) / 2, from the same 15-point panel as
    beta_even_quadrature, within its relative error bound.  tol is only held
    to MIN_TOL.  As for I*, k <= 109, (2 n_max + 1)^(2k) must fit a double
    (checked before the target is computed), and the sums stop once settled.
    """
    k, n_max = _as_int(k, "k"), _as_int(n_max, "n_max")
    if k < 1:
        raise ValueError("k must be >= 1")
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    if not tol >= MIN_TOL:  # NaN fails it too
        raise ValueError(f"tol below double-precision floor {MIN_TOL}")
    scale = _scale(2 * k - 1)
    sums = _alternating_sums(2 * k, n_max)
    target = scale * (0.5 * _sec_integral(k)[0])
    entries = tuple((n, (-1) ** k * scale * s) for n, s in sums)
    return PartialSumTrace("J", k, target, entries)
