"""The one pi-power kernel, held to its documented bound, and its only use of pi_fraction."""

from __future__ import annotations

import ast
import math
from fractions import Fraction
from pathlib import Path

import pytest

from betakit.highprec import pi_fraction, pi_power

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


def _pi_fraction_mentions(path: Path) -> list[tuple[str | None, str]]:
    """(enclosing function, node type) of each name, attribute or import of pi_fraction."""
    found = []

    def visit(node: ast.AST, scope: str | None) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = node.name
        if (isinstance(node, ast.Name) and node.id == "pi_fraction"
                or isinstance(node, ast.Attribute) and node.attr == "pi_fraction"
                or isinstance(node, ast.alias) and "pi_fraction" in (node.name, node.asname)):
            found.append((scope, type(node).__name__))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(path.read_text()), None)
    return found


def test_pi_fraction_is_read_by_the_kernel_alone():
    # every power of pi in the package goes through pi_power; the package
    # __init__ only re-exports pi_fraction
    mentions = {path.stem: _pi_fraction_mentions(path) for path in sorted(SRC.glob("*.py"))}
    assert {name: m for name, m in mentions.items() if m} == {
        "__init__": [(None, "alias")],
        "highprec": [("pi_power", "Name")],
    }
