"""The one pi-power kernel, held to its documented bound, its only use of pi_fraction, and
the rounding lemma that lets its callers round unreduced pairs."""

from __future__ import annotations

import ast
import math
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from betakit.highprec import _pi_power_ratio, _round_ratio, pi_fraction, pi_power

F = Fraction

KERNEL_POWERS = list(range(1, 301)) + [511, 512, 601, 1201]
# from the documented minimum of 40 bits up
KERNEL_BITS = [40, 41, 53, 64, 65, 100, 160, 333, 1000, 6000]

SRC = Path(__file__).resolve().parents[1] / "src" / "betakit"


def _pi_power_brackets(bits: int, top: int) -> tuple[int, list[tuple[int, int]]]:
    """(b, [(lo, hi)]) with lo / 2^b <= pi^j <= hi / 2^b for j = 0 .. top.

    By plain repeated products: pi_fraction to more than b = bits + 64 bits,
    widened by its stated error and rounded outward to 2^-b, is multiplied
    up with the lower end floored and the upper end ceiled, so each bracket
    holds pi^j for certain.
    """
    b = bits + 64
    pi, err = pi_fraction(b // 3 + 2), F(1, 10 ** (b // 3 + 2))
    lo_pi = math.floor((pi - err) * 2**b)
    hi_pi = math.ceil((pi + err) * 2**b)
    lo = hi = 1 << b
    out = []
    for _ in range(top + 1):
        out.append((lo, hi))
        lo = lo * lo_pi >> b
        hi = -(-hi * hi_pi >> b)
    return b, out


class TestPiPowerBound:
    """pi^q within |q| 2^-bits relative, for both signs of q."""

    @pytest.mark.parametrize("bits", KERNEL_BITS)
    def test_against_bracketed_reference(self, bits):
        b, brackets = _pi_power_brackets(bits, max(KERNEL_POWERS))
        for j in KERNEL_POWERS:
            lo, hi = (F(end, 2**b) for end in brackets[j])
            rel = F(j, 2**bits)
            for q, (lo_q, hi_q) in ((j, (lo, hi)), (-j, (1 / hi, 1 / lo))):
                got = pi_power(q, bits)
                # |got - pi^q| <= rel pi^q for every pi^q in [lo_q, hi_q]
                assert hi_q * (1 - rel) <= got <= lo_q * (1 + rel), (q, bits)

    def test_against_mpmath(self):
        mpmath = pytest.importorskip("mpmath")
        for bits in (40, 64, 400):
            with mpmath.workprec(bits + 80):
                for j in (1, 2, 3, 7, 300, 1201):
                    for q in (j, -j):
                        got = pi_power(q, bits)
                        want = mpmath.pi**q
                        err = abs(mpmath.mpf(got.numerator) / got.denominator - want)
                        assert err <= want * j / mpmath.mpf(2) ** bits, (q, bits)

    def test_reciprocal_is_exact(self):
        for bits in (40, 97):
            for j in (1, 2, 601):
                assert pi_power(-j, bits) == 1 / pi_power(j, bits)

    def test_below_the_documented_minimum(self):
        with pytest.raises(ValueError, match="q != 0"):
            pi_power(0, 64)
        with pytest.raises(ValueError, match="bits"):
            pi_power(1, 39)
        with pytest.raises(ValueError, match="bits"):
            pi_power(-(2**45), 45)  # bitlength 46: refused before any work

    @pytest.mark.parametrize("q, bits, name", [(2.0, 64, "q"), ("2", 64, "q"), (2, 64.0, "bits")])
    def test_rejects_a_non_integer_argument(self, q, bits, name):
        bad = q if name == "q" else bits
        with pytest.raises(TypeError, match=f"^{name} must be an integer, not {type(bad).__name__}$"):
            pi_power(q, bits)


@pytest.mark.parametrize("q", [1, 2, 7, -1, -8, 301, -302])
def test_kernel_pair_is_unreduced_over_a_power_of_two(q):
    # (x, 2^bits) for q > 0 and (2^bits, x) for q < 0; pi_power reduces it
    bits = 100
    num, den = _pi_power_ratio(q, bits)
    assert (den if q > 0 else num) == 1 << bits and num > 0 and den > 0
    assert F(num, den) == pi_power(q, bits)


@st.composite
def _ratios(draw):
    """(a, b, p, tie): a / b with b >= 1 and a of either sign, or, with tie,
    one that a 10^p puts exactly half-way between two integers."""
    p = draw(st.integers(min_value=0, max_value=30))
    if draw(st.booleans()):
        a = draw(st.integers(min_value=-(10**40), max_value=10**40))
        return a, draw(st.integers(min_value=1, max_value=10**40)), p, False
    t = 2 * draw(st.integers(min_value=-(10**20), max_value=10**20)) + 1
    c = draw(st.integers(min_value=1, max_value=10**20))
    return t * c, 2 * 10**p * c, p, True  # a 10^p / b = t / 2


@given(_ratios(), st.integers(min_value=1, max_value=10**30))
@settings(max_examples=400, deadline=None, derandomize=True)
def test_rounding_an_unreduced_pair_gives_the_reduced_pair_s_integer(ratio, g):
    # the lemma behind every unreduced pair the package rounds: g a / (g b)
    # rounds to the integer a / b does, ties to even included
    a, b, p, tie = ratio
    q = _round_ratio(a, b, p)
    assert _round_ratio(g * a, g * b, p) == q
    if tie:
        assert q % 2 == 0 and abs(2 * q * b - 2 * a * 10**p) == b


def _mentions(path: Path, name: str) -> list[tuple[str | None, str]]:
    """(enclosing function, node type) of each name, attribute or import of `name`."""
    found = []

    def visit(node: ast.AST, scope: str | None) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = node.name
        if (isinstance(node, ast.Name) and node.id == name
                or isinstance(node, ast.Attribute) and node.attr == name
                or isinstance(node, ast.alias) and name in (node.name, node.asname)):
            found.append((scope, type(node).__name__))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(path.read_text()), None)
    return found


def test_pi_fraction_is_read_by_the_kernel_alone():
    # every power of pi in the package goes through the pair kernel, which
    # alone reads pi_fraction and the stored fixed-point pi; the package
    # __init__ only re-exports pi_fraction
    for name, want in (
        ("pi_fraction", {"__init__": [(None, "alias")],
                         "highprec": [("_pi_power_ratio", "Name")]}),
        ("_pi_fixed", {"highprec": [(None, "Name")] + [("_pi_power_ratio", "Name")] * 2}),
    ):
        mentions = {path.stem: _mentions(path, name) for path in sorted(SRC.glob("*.py"))}
        assert {stem: m for stem, m in mentions.items() if m} == want, name
