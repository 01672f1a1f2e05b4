"""The Euler/Bernoulli identity suite, and what a corrupted table looks like.

Every identity the closed forms rely on is checked in exact rational
arithmetic: no tolerances, no rounding, and 1.1 and 1.3 as polynomial
identities, so they hold for every x.  Three deliberately corrupted tables,
two Euler and one Bernoulli, demonstrate that the suite actually has teeth.
The demo exits 1 if the reference suite fails or a corrupted table passes.
"""

import sys
from fractions import Fraction

from betakit import BernoulliTable, EulerTable, run_identity_suite

report = run_identity_suite(20)
print("identity suite at nmax=20:\n")
for r in report.results:
    print(f"  {r.identity_id:<24} {r.instances:>5} instances  {'pass' if r.passed else 'FAIL'}")
print(f"\nall passed: {report.all_passed}")


def negative_control(what: str, nmax: int, corrupt) -> bool:
    """Corrupt fresh tables, rerun the suite, and say whether it was caught."""
    euler, bernoulli = EulerTable(), BernoulliTable()
    corrupt(euler, bernoulli)
    print(f"\nnegative control: {what} and rerun...")
    control = run_identity_suite(nmax, euler=euler, bernoulli=bernoulli)
    for r in control.results:
        if not r.passed:
            print(f"  {r.identity_id} fails, first failure at {r.first_failure}")
    print(f"all passed: {control.all_passed}")
    return not control.all_passed


def add_to_row(table, n: int, power: int) -> None:
    """Make table._row(n), the integer form (den, nums) of the row that the
    suite and poly(n) read, return the form of row n + x^power."""
    own = table._row
    den, nums = own(n)
    changed = den, nums[:power] + [nums[power] + den] + nums[power + 1:]
    table._row = lambda m: changed if m == n else own(m)


def bump_e4(e: EulerTable, b: BernoulliTable) -> None:
    e.number(4)
    e.numbers[4] = Fraction(6)  # exactly the power identity 1.2 breaks


def add_x3_to_e7(e: EulerTable, b: BernoulliTable) -> None:
    add_to_row(e, 7, 3)  # 1.1 and 1.3 catch it


def add_x2_to_b9(e: EulerTable, b: BernoulliTable) -> None:
    # B_{9,chi4} moves (1.6 at n = 8, bridge_chi4), and so does the bridge to E_8
    add_to_row(b, 9, 2)


caught = [
    negative_control("replace E_4 = 5 by 6", 10, bump_e4),
    negative_control("add x^3 to E_7(x)", 12, add_x3_to_e7),
    negative_control("add x^2 to B_9(x)", 12, add_x2_to_b9),
]
sys.exit(0 if report.all_passed and all(caught) else 1)
