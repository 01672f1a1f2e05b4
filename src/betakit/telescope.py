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
from collections.abc import Iterator
from fractions import Fraction

from .eulerpoly import euler_number, euler_polynomial, generalized_bernoulli_chi4
from .exact import ValueClass, _set_field
from .highprec import pi_fraction
from .quadrature import (
    _float_coeffs,
    _horner,
    _scale,
    _sec_integrand,
    beta_even_integrand,
    integrate_adaptive,
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
    h(1/2) = -(2k-1) E_{2k-2}(1/2) / (2 pi), formed exactly from the tables
    and a certified pi and rounded once to a double.
    """

    def __init__(self, name: str, k: int) -> None:
        if name not in ("f", "g", "h"):
            raise ValueError(f"unknown extended function {name!r}")
        if name == "g":
            if k < 0:
                raise ValueError("g requires k >= 0")
        elif k < 1:
            raise ValueError(f"{name} requires k >= 1")
        _set_field(self, "name", name)
        _set_field(self, "k", k)
        _scale(2 * k - 1 if name == "h" else 2 * k)  # raises past k = 109
        # f's two terms agree to about 3^-2k of their size (their difference
        # is led by the n = 1 terms of the odd zeta and beta sums), so pi to
        # k + 20 digits leaves about 20 correct digits; both limits fit a
        # double wherever the scale does (the largest, h at k = 109, 1.8e306)
        ev: dict[str, float] = {}
        if name == "f":
            at_zero = euler_polynomial(2 * k - 1).coefficient(0)
            ev["0"] = float(
                k * at_zero / pi_fraction(k + 20) - euler_number(2 * k) / 2 ** (2 * k + 1)
            )
            ev["1/2"] = 0.0
        elif name == "g":
            ev["1/2"] = 0.0
        else:
            at_half = euler_number(2 * k - 2) / 2 ** (2 * k - 2)
            ev["1/2"] = float(-(2 * k - 1) * at_half / (2 * pi_fraction(k + 20)))
        _set_field(self, "endpoint_values", ev)


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

    def to_json_str(self) -> str:
        import json  # loaded only where JSON is asked for

        return json.dumps(self.to_json(), separators=(",", ":"))

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


def _alternating_sums(power: int, n_max: int) -> Iterator[tuple[int, float]]:
    # (n, sum_{m<=n} (-1)^m / (2m+1)^power) at each trace sample n
    if (2 * n_max + 1) ** power >= 2**1024 - 2**970:  # float() would round it to inf
        raise OverflowError(f"(2N+1)^{power} exceeds the double range at N={n_max}")
    for n in _trace_samples(n_max):
        terms = ((1.0 if m % 2 == 0 else -1.0) / float((2 * m + 1) ** power) for m in range(n + 1))
        yield n, math.fsum(terms)


def partial_sum_I_star(k: int, n_max: int) -> PartialSumTrace:
    """Partial sums of sum_m (-1)^m I*(k, m), which telescope to zero.

    I*(k, m) differs from I(k, m) only by the m = 0 correction term, so the
    partial sums come from the closed form of I: no quadrature is needed,
    and traces to n in the thousands are cheap.  The prefactor is
    (-1)^k s(2k), so k <= 109, and the terms are floats: (2 n_max + 1)^(2k+1)
    past the double range raises OverflowError.
    """
    if k < 0 or n_max < 0:
        raise ValueError("k and n_max must be >= 0")
    pref = (-1) ** k * _scale(2 * k)
    corr = float(correction_term(k, 0))
    entries = tuple((n, pref * s - corr) for n, s in _alternating_sums(2 * k + 1, n_max))
    return PartialSumTrace("I_star", k, 0.0, entries)


def partial_sum_J(k: int, n_max: int, tol: float) -> PartialSumTrace:
    """Partial sums of sum_m (-1)^m J(k-1, m) against their integral target.

    The closed form gives the terms, with the prefactor (-1)^k s(2k-1); the
    target, the integral of E_{2k-1}(t) sec(pi t) / 2, is s(2k-1) times that
    of p_{2k-1}(t) sec(pi t) / 2, evaluated once by quadrature at tol / s(2k-1).
    As for I*, k <= 109 and (2 n_max + 1)^(2k) must fit a double.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    scale = _scale(2 * k - 1)
    target = integrate_adaptive(lambda t: 0.5 * _sec_integrand(k, t), 0.0, 0.5, tol / scale)
    entries = tuple((n, (-1) ** k * scale * s) for n, s in _alternating_sums(2 * k, n_max))
    return PartialSumTrace("J", k, scale * target.value, entries)
