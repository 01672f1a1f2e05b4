"""One sha256 per family of outputs, so that "no output changed" is a test.

Each family lists its inputs and results one per line, floats by
``float.hex`` and rationals by ``rational_str``, and digests.json holds the
sha256 of those lines.  A failure
names its family.  After a deliberate output change, rewrite every recorded
digest with ``PYTHONPATH=src python tests/test_digests.py``, and say in
CHANGES.md which family changed and why.

Tier-1 checks the families below at sizes that take well under a second; the
``_full`` families extend aux to k <= 150, beta(2k) and beta(2k+1) to
k <= 300 (the CLI's ``--max-k 300``) and the identity suite to nmax 601, and
run in CI only, through :func:`check`.  The beta(2k) families pin the
platform's ``math.sin`` as well.  The beta_series family records the strings
as they are printed, the few that are misrounded (ROADMAP item 5) included.
The identity_suite family records reports on fresh true tables and on five
fixed corruptions, so that both the suite's certified rows and its
uncertified ones are pinned.  The scale, traces and extended_eval families
pin the float scale s(n) = n!/pi^(n+1) for n <= 218, the I* and J partial-sum
traces on a (k, N) grid inside the double range, and f, g and h with their
endpoint limits on a (k, t) grid.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import pytest
from conftest import PI_POWER_GRID

from betakit.betavalues import (
    PiPowerValue,
    beta_odd_exact,
    beta_odd_exact_via_euler,
    beta_series,
    render_decimal,
)
from betakit.eulerpoly import BernoulliTable, EulerTable, run_identity_suite
from betakit.exact import rational_str
from betakit.quadrature import (
    IntegrandSpec,
    _float_coeffs,
    _scale,
    aux_integral_I_closed,
    aux_integral_J_closed,
    aux_integral_numeric,
    beta_even_quadrature,
)
from betakit.telescope import (
    ExtendedFunctionSpec,
    extended_eval,
    partial_sum_I_star,
    partial_sum_J,
)

DIGESTS = Path(__file__).parent / "golden" / "digests.json"


def _aux(kmax: int):
    for kind in ("aux_I", "aux_J"):
        for k in range(kmax + 1):
            for m in (0, 1, 2, 7, 200):
                try:
                    r = aux_integral_numeric(IntegrandSpec(kind, k, m))
                except ValueError:  # past the double range
                    yield f"{kind} {k} {m} ValueError"
                else:
                    yield f"{kind} {k} {m} {r.value.hex()} {r.abs_error_estimate.hex()}"


def _pi_power_float():
    for c, p in PI_POWER_GRID:
        try:
            value = float(PiPowerValue(c, p)).hex()
        except OverflowError:
            value = "OverflowError"
        yield f"{c} {p} {value}"


def _float_coeffs_lines():
    for n in range(219):
        for at_half in (False, True):
            yield f"{n} {at_half} " + " ".join(c.hex() for c in _float_coeffs(n, at_half))


def _scale_lines():
    for n in range(219):
        yield f"{n} {_scale(n).hex()}"


# every (k, N) of this grid whose largest term power (2N+1)^(2k+1) stays
# well inside the double range
TRACE_KS = (*range(13), 20, 30, 50, 80, 109)
TRACE_NS = (0, 1, 5, 10, 12, 100, 1000, 10**4, 10**5)


def _traces():
    for k in TRACE_KS:
        for n_max in TRACE_NS:
            for family, power, trace in (("I_star", 2 * k + 1, partial_sum_I_star),
                                         ("J", 2 * k, partial_sum_J)):
                if (family == "I_star" or k >= 1) and power * math.log2(2 * n_max + 1) < 1020:
                    tr = trace(k, n_max)
                    yield f"{family} {k} {n_max} {tr.target.hex()} " + " ".join(
                        f"{n}:{s.hex()}" for n, s in tr.entries)


# every even k and the largest, 109, so that the scale family alone pins
# s(n) at the other n = 1, 2 (mod 4); both endpoints, points next to them
# and to the switch at 1/4, and a grid of t
EXTENDED_KS = (*range(0, 110, 2), 109)
EXTENDED_TS = (0.0, 1e-300, 1e-9, *(i / 40 for i in range(1, 20)), math.nextafter(0.25, 0),
               0.25, 0.5 - 1e-9, math.nextafter(0.5, 0), 0.5)


def _extended_eval():
    for name in ("f", "g", "h"):
        for k in EXTENDED_KS[name != "g":]:
            spec = ExtendedFunctionSpec(name, k)
            ends = " ".join(f"{t}:{v.hex()}" for t, v in sorted(spec.endpoint_values.items()))
            yield f"{name} {k} {ends} " + " ".join(extended_eval(spec, t).hex() for t in EXTENDED_TS)


def _beta_even(kmax: int):
    for k in range(1, kmax + 1):
        r = beta_even_quadrature(k)
        yield f"{k} {r.value.hex()} {r.abs_error_estimate.hex()} {r.n_evals}"


def _beta_odd(kmax: int):
    for k in range(kmax + 1):
        for route, v in (("bernoulli", beta_odd_exact(k)), ("euler", beta_odd_exact_via_euler(k))):
            yield f"{k} {route} {rational_str(v.coeff)} {v.power} {float(v).hex()}"


def _rendered(label: str, v: PiPowerValue, digits: int) -> str:
    r = render_decimal(v, digits)
    return f"{label} {digits} {r.decimal_str()} {rational_str(r.value)}"


def _render_decimal():
    for k in range(51):
        v = beta_odd_exact(k)
        for digits in [*range(1, 41), 57, 100, 400]:
            yield _rendered(f"beta_odd {k}", v, digits)
    for k in range(31):
        for m in (0, 7, 200):
            yield _rendered(f"I {k} {m}", aux_integral_I_closed(k, m), 12)
            yield _rendered(f"J {k} {m}", aux_integral_J_closed(k, m), 12)


def _beta_series():
    for s in range(1, 42):
        for digits in [*range(1, 40), 100, 400]:
            r = beta_series(s, digits)
            yield f"{s} {digits} {r.decimal_str()} {rational_str(r.value)}"


def _add(table, n: int, terms: dict[int, int]) -> None:
    # row n of the table gets sum c x^i over terms' (i, c), over the row's
    # own denominator, as _inject in test_eulerpoly.py swaps rows in; every
    # other row is the table's own
    own = table._row

    def row(m: int) -> tuple[int, list[int]]:
        den, nums = own(m)
        if m == n:
            nums = [x + terms.get(i, 0) * den for i, x in enumerate(nums)]
        return den, nums

    table._row = row


def _bump_euler_entry(et: EulerTable, bt: BernoulliTable) -> None:
    # a_8 = 2^8 E_8(0) is 0: the rows built from it are certified, and wrong
    et.scaled_at_zero(8)[8] += 2


def _bump_bernoulli_entry(et: EulerTable, bt: BernoulliTable) -> None:
    den, b = bt.scaled_numbers(6)
    b[6] += den


CORRUPTIONS = {
    "euler_entry": _bump_euler_entry,
    "bernoulli_entry": _bump_bernoulli_entry,
    # x^3 - 1 keeps E_10(1) and moves E_10(0); x^3 moves E_12(1) alone
    "euler_row_at_zero": lambda et, bt: _add(et, 10, {0: -1, 3: 1}),
    "euler_row_at_one": lambda et, bt: _add(et, 12, {3: 1}),
    "bernoulli_row": lambda et, bt: _add(bt, 9, {2: 1}),
}


def _identity_suite(grid, corruptions=()):
    for n in grid:
        report = run_identity_suite(n, euler=EulerTable(), bernoulli=BernoulliTable())
        yield f"true {n} {report.to_json_str()}"
    for label in corruptions:
        et, bt = EulerTable(), BernoulliTable()
        CORRUPTIONS[label](et, bt)
        yield f"{label} 40 {run_identity_suite(40, euler=et, bernoulli=bt).to_json_str()}"


FAMILIES = {
    "aux": lambda: _aux(60),
    "pi_power_float": _pi_power_float,
    "float_coeffs": _float_coeffs_lines,
    "beta_even": lambda: _beta_even(150),
    "beta_odd": lambda: _beta_odd(150),
    "render_decimal": _render_decimal,
    "beta_series": _beta_series,
    "identity_suite": lambda: _identity_suite([*range(33), 37, 60, 101, 150, 201], CORRUPTIONS),
    "scale": _scale_lines,
    "traces": _traces,
    "extended_eval": _extended_eval,
    "aux_full": lambda: _aux(150),
    "beta_even_full": lambda: _beta_even(300),
    "beta_odd_full": lambda: _beta_odd(300),
    "identity_suite_full": lambda: _identity_suite([601]),
}
TIER1 = ("aux", "pi_power_float", "float_coeffs", "beta_even", "beta_odd", "render_decimal",
         "beta_series", "identity_suite", "scale", "traces", "extended_eval")


def digest(family: str) -> str:
    lines = "\n".join(FAMILIES[family]()) + "\n"
    return hashlib.sha256(lines.encode()).hexdigest()


def check(*families: str) -> None:
    """Assert that each named family still hashes to its recorded digest."""
    recorded = json.loads(DIGESTS.read_text())
    for family in families:
        assert digest(family) == recorded[family], f"digest of family {family!r} changed"


@pytest.mark.parametrize("family", TIER1)
def test_digest_unchanged(family):
    check(family)


def test_recording_covers_every_family():
    assert sorted(json.loads(DIGESTS.read_text())) == sorted(FAMILIES)


def test_pi_power_grid_reaches_both_ends_of_the_double_range():
    values = [line.rsplit(" ", 1)[1] for line in _pi_power_float()]
    assert "OverflowError" in values
    assert "0x0.0p+0" in values
    assert any(v.startswith(("0x0.", "-0x0.")) and v not in ("0x0.0p+0", "-0x0.0p+0")
               for v in values)
    assert any(p == 0 for _, p in PI_POWER_GRID)


if __name__ == "__main__":
    DIGESTS.write_text(json.dumps({f: digest(f) for f in FAMILIES}, indent=1) + "\n")
