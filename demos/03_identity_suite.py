"""The Euler/Bernoulli identity suite, and what a corrupted table looks like.

Every identity the closed forms rely on is checked in exact rational
arithmetic: no tolerances, no rounding, and 1.1 and 1.3 as polynomial
identities, so they hold for every x.  Two deliberately corrupted tables
demonstrate that the suite actually has teeth.  The demo exits 1 if the
reference suite fails or a corrupted table passes.
"""

import sys
from fractions import Fraction

from betakit import EulerTable, RationalPolynomial, run_identity_suite

report = run_identity_suite(20)
print("identity suite at nmax=20:\n")
for r in report.results:
    print(f"  {r.identity_id:<24} {r.instances:>5} instances  {'pass' if r.passed else 'FAIL'}")
print(f"\nall passed: {report.all_passed}")


def negative_control(what: str, nmax: int, corrupt) -> bool:
    """Corrupt a fresh table, rerun the suite, and say whether it was caught."""
    table = EulerTable()
    table.ensure(nmax)
    corrupt(table)
    print(f"\nnegative control: {what} and rerun...")
    control = run_identity_suite(nmax, euler=table)
    for r in control.results:
        if not r.passed:
            print(f"  {r.identity_id} fails, first failure at {r.first_failure}")
    print(f"all passed: {control.all_passed}")
    return not control.all_passed


def bump_e4(t: EulerTable) -> None:
    t.numbers[4] = Fraction(6)  # exactly the power identity 1.2 breaks


def add_x3_to_e7(t: EulerTable) -> None:
    t.polys[7] = t.polys[7] + RationalPolynomial.monomial(3)  # 1.1 and 1.3 catch it


caught = [
    negative_control("replace E_4 = 5 by 6", 10, bump_e4),
    negative_control("add x^3 to E_7(x)", 12, add_x3_to_e7),
]
sys.exit(0 if report.all_passed and all(caught) else 1)
