"""Euler/Bernoulli tables, generating-function oracles, and the identity suite."""

from __future__ import annotations

import ast
import json
import math
import pickle
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from betakit import eulerpoly
from betakit.betavalues import beta_odd_exact, beta_odd_exact_via_euler
from betakit.cli import run_cli
from betakit.eulerpoly import (
    BernoulliTable,
    EulerTable,
    bernoulli_number,
    bernoulli_polynomial,
    euler_number,
    euler_polynomial,
    generalized_bernoulli_chi4,
    run_identity_suite,
)
from betakit.exact import RationalPolynomial
from betakit.quadrature import IntegrandSpec, aux_integral_numeric

from conftest import (
    akiyama_tanigawa_bernoulli,
    appell_euler_table,
    bernoulli_poly_oracle,
    bernoulli_sum_table,
    euler_from_bernoulli,
    fpoly_add,
    fpoly_derivative,
    fpoly_eval,
    fpoly_scale,
    gf_euler_number_oracle,
    gf_euler_numbers,
    gf_euler_poly_oracle,
    polynomial_identity_suite,
)

F = Fraction
HALF = F(1, 2)

rationals = st.fractions(min_value=-1000, max_value=1000, max_denominator=1000)


class TestEulerPolynomials:
    def test_first_polynomials(self):
        assert euler_polynomial(0) == RationalPolynomial.from_coefficients([1])
        assert euler_polynomial(1) == RationalPolynomial.from_coefficients([-HALF, 1])
        assert euler_polynomial(2) == RationalPolynomial.from_coefficients([0, -1, 1])
        assert euler_polynomial(3) == RationalPolynomial.from_coefficients(
            [F(1, 4), 0, F(-3, 2), 1]
        )

    def test_e5_against_series_oracle(self):
        expected = [F(-1, 2), 0, F(5, 2), 0, F(-5, 2), 1]
        assert gf_euler_poly_oracle(5) == expected
        assert list(euler_polynomial(5).coeffs) == expected

    @pytest.mark.parametrize("n", range(9))
    def test_table_matches_series_division(self, n):
        assert list(euler_polynomial(n).coeffs) == gf_euler_poly_oracle(n)


class TestEulerNumbers:
    def test_small_values(self):
        assert [euler_number(n) for n in range(5)] == [1, 0, -1, 0, 5]

    @pytest.mark.parametrize("n", [1, 3, 5, 7, 9, 21])
    def test_odd_are_zero(self, n):
        assert euler_number(n) == 0

    def test_e6_against_series_oracle(self):
        assert gf_euler_number_oracle(6) == -61
        assert euler_number(6) == -61

    @pytest.mark.parametrize("n", range(13))
    def test_table_matches_series_division(self, n):
        assert euler_number(n) == gf_euler_number_oracle(n)

    def test_always_integral(self):
        for n in range(30):
            assert euler_number(n).denominator == 1


class TestBernoulli:
    def test_first_polynomials(self):
        assert bernoulli_polynomial(0) == RationalPolynomial.from_coefficients([1])
        assert bernoulli_polynomial(1) == RationalPolynomial.from_coefficients([-HALF, 1])
        assert bernoulli_polynomial(3) == RationalPolynomial.from_coefficients(
            [0, HALF, F(-3, 2), 1]
        )

    def test_b3_quarter_values(self):
        b3 = bernoulli_polynomial(3)
        assert b3(F(1, 4)) == F(3, 64)
        assert b3(F(3, 4)) == F(-3, 64)

    @pytest.mark.parametrize("n", range(10))
    def test_polys_match_mean_zero_oracle(self, n):
        assert list(bernoulli_polynomial(n).coeffs) == bernoulli_poly_oracle(n)

    def test_numbers_match_akiyama_tanigawa(self):
        oracle = akiyama_tanigawa_bernoulli(16)
        assert [bernoulli_number(n) for n in range(17)] == oracle

    def test_derivative_relation(self):
        for n in range(1, 12):
            derivative = fpoly_derivative(bernoulli_polynomial(n).coeffs)
            assert derivative == fpoly_scale(n, bernoulli_polynomial(n - 1).coeffs)


class TestGeneralizedBernoulliChi4:
    def test_odd_values(self):
        assert generalized_bernoulli_chi4(1) == F(-1, 2)
        assert generalized_bernoulli_chi4(3) == F(3, 2)
        assert generalized_bernoulli_chi4(5) == F(-25, 2)

    @pytest.mark.parametrize("n", [2, 4, 6])
    def test_even_values_vanish(self, n):
        assert generalized_bernoulli_chi4(n) == 0

    def test_requires_positive_index(self):
        with pytest.raises(ValueError):
            generalized_bernoulli_chi4(0)

    def test_matches_the_suite_kernel_on_fresh_rows(self):
        # the route reads the Bernoulli integers at 1/4 alone; the suite's
        # kernel evaluates each row at both quarter points, as defined
        rows = BernoulliTable()
        for n in range(1, 302):
            assert generalized_bernoulli_chi4(n) == F(*eulerpoly._chi4(*rows._row(n), n)), n

    def test_matches_quarter_point_values(self, bernoulli_reference):
        polys, _ = bernoulli_reference
        for n in range(1, REFERENCE_N + 1):
            want = 4 ** (n - 1) * (fpoly_eval(polys[n], F(1, 4)) - fpoly_eval(polys[n], F(3, 4)))
            assert generalized_bernoulli_chi4(n) == want, n


class TestTables:
    @pytest.mark.parametrize("read", [
        euler_number, euler_polynomial, bernoulli_number, bernoulli_polynomial,
        EulerTable().scaled_at_zero, BernoulliTable().scaled_numbers,
    ], ids=["euler_number", "euler_polynomial", "bernoulli_number", "bernoulli_polynomial",
            "scaled_at_zero", "scaled_numbers"])
    def test_negative_index_refused(self, read):
        with pytest.raises(ValueError, match="^index must be >= 0$"):
            read(-1)

    def test_euler_table_invariants(self):
        t = EulerTable()
        t.number(12)
        assert t.poly(0) == RationalPolynomial.from_coefficients([1])
        assert t.poly(1) == RationalPolynomial.from_coefficients([-HALF, 1])
        for n in range(13):
            assert t.numbers[n] == 2**n * t.poly(n)(HALF)
            if n % 2 == 1:
                assert t.numbers[n] == 0

    def test_euler_table_matches_polynomial_recurrence(self):
        # reference: E_m(x) = x^m - (1/2) sum_{j<m} C(m, j) E_j(x), run
        # coefficient by coefficient over all earlier rows (O(n^3))
        rows: list[list[Fraction]] = []
        for m in range(41):
            row = [F(0)] * (m + 1)
            row[m] = F(1)
            for j in range(m):
                c = -HALF * math.comb(m, j)
                for i, cj in enumerate(rows[j]):
                    row[i] += c * cj
            rows.append(row)
        t = EulerTable()
        _grow(t, 10)  # grown in two steps, so resuming the scalar recurrence is covered
        _grow(t, 40)
        assert [list(p.coeffs) for p in _rows(t, 40)] == rows
        assert t.numbers == [2**m * t.poly(m)(HALF) for m in range(41)]

    def test_binomial_rows_are_cached_tuples(self):
        # 131 rows, three more than the cache holds, so the first ones are
        # evicted and built again on the second pass
        for _ in range(2):
            for m in range(131):
                row = eulerpoly._binomials(m)
                assert type(row) is tuple
                assert row == tuple(math.comb(m, i) for i in range(m + 1)), m
        assert eulerpoly._binomials.cache_info().currsize <= 128

    def test_bernoulli_table_growth_is_idempotent(self):
        t = BernoulliTable()
        _grow(t, 5)
        five = list(t.numbers)
        _grow(t, 9)
        assert t.numbers[:6] == five

    def test_concurrent_table_growth(self):
        import threading

        t = EulerTable()
        b = BernoulliTable()
        errors = []

        def hammer(n):
            try:
                assert t.number(n) == 2**n * t.poly(n)(HALF)
                assert b.poly(n).coefficient(n) == 1 or n == 0
            except Exception as exc:  # surfaced after join
                errors.append(exc)

        threads = [threading.Thread(target=hammer, args=(n,)) for n in (40, 35, 30, 25, 40, 35)]
        for th in threads:
            th.start()
        for th in threads:
            th.join()
        assert not errors
        assert t.numbers == [euler_number(n) for n in range(41)]


REFERENCE_N = 201


def _grow(table, n: int) -> None:
    # grow both of the table's sequences to index n in one step each
    table.number(n)
    table.poly(n)


def _rows(table, n: int) -> list[RationalPolynomial]:
    return [table.poly(m) for m in range(n + 1)]


def _coeffs(rows: list[RationalPolynomial]) -> list[list[Fraction]]:
    # each row as the reference tables hold it, a list of its coefficients
    return [list(p.coeffs) for p in rows]


def _as_rows(reference: list[list[Fraction]]) -> list[RationalPolynomial]:
    # the reference rows as package rows, whose pickles hold the integer form
    return [RationalPolynomial.from_coefficients(c) for c in reference]


def _holds_no_row(table) -> bool:
    # no attribute of the table is a row, or a list or tuple holding one
    for value in vars(table).values():
        items = value if isinstance(value, (list, tuple)) else [value]
        if any(isinstance(v, RationalPolynomial) for v in items):
            return False
    return True


@pytest.fixture(scope="module")
def euler_reference():
    return appell_euler_table(REFERENCE_N)


@pytest.fixture(scope="module")
def bernoulli_reference():
    return bernoulli_sum_table(REFERENCE_N)


def _pickled(polys, numbers) -> bytes:
    return pickle.dumps((polys, numbers))


class TestIntegerTables:
    """The integer builds equal the Fraction recurrences they replaced, n <= 201."""

    @pytest.mark.parametrize("table, reference", [
        (EulerTable, "euler_reference"), (BernoulliTable, "bernoulli_reference"),
    ])
    def test_grown_in_steps_equals_reference(self, table, reference, request):
        ref_polys, ref_numbers = request.getfixturevalue(reference)
        t = table()
        for n in (0, 7, 60, REFERENCE_N):  # each step resumes the triangles
            _grow(t, n)
            rows = _rows(t, n)
            assert t.numbers == ref_numbers[: n + 1], n
            assert _coeffs(rows) == ref_polys[: n + 1], n
        assert _pickled(rows, t.numbers) == _pickled(_as_rows(ref_polys), ref_numbers)

    def test_concurrent_growth_equals_reference(self, euler_reference, bernoulli_reference):
        # more threads than cores, switching every microsecond, each growing
        # both tables to its own size: a lost update to the triangles or to
        # the rescaled Bernoulli integers would leave a wrong entry
        import sys
        import threading

        et, bt = EulerTable(), BernoulliTable()
        sizes = (120, 7, REFERENCE_N, 60, 1, 150, 33, REFERENCE_N)
        threads = [threading.Thread(target=lambda n=n: (_grow(et, n), _grow(bt, n)))
                   for n in sizes]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(th.is_alive() for th in threads)
        assert (_coeffs(_rows(et, REFERENCE_N)), et.numbers) == euler_reference
        assert (_coeffs(_rows(bt, REFERENCE_N)), bt.numbers) == bernoulli_reference

    @pytest.mark.parametrize("order", ["numbers first", "rows first", "interleaved"])
    @pytest.mark.parametrize("table, reference", [
        (EulerTable, "euler_reference"), (BernoulliTable, "bernoulli_reference"),
    ])
    def test_threads_grow_each_list_alone(self, table, reference, order, request):
        # each thread reads one entry through number() or poly(), which grow
        # only the sequence that entry is read from: in the first two orders
        # the numbers stay unbuilt until their own threads run, and poly()
        # keeps no row, so the table never holds one.  Every entry read, and
        # the numbers and rows once grown to the end, equal the reference
        import threading

        ref_polys, ref_numbers = request.getfixturevalue(reference)
        ref_rows = _as_rows(ref_polys)
        t = table()
        sizes = (120, 7, REFERENCE_N, 60, 1, 150, 33, REFERENCE_N)
        readers = [t.number, t.poly] if order == "numbers first" else [t.poly, t.number]
        if order == "interleaved":
            phases = [[(readers[i % 2], n) for i, n in enumerate(sizes + sizes[::-1])]]
        else:
            phases = [[(read, n) for n in sizes] for read in readers]
        got = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for phase in phases:
                threads = [threading.Thread(target=lambda r=r, n=n: got.append((r, n, r(n))))
                           for r, n in phase]
                for th in threads:
                    th.start()
                for th in threads:
                    th.join(timeout=60)
                assert not any(th.is_alive() for th in threads)
                assert _holds_no_row(t)
                if order == "numbers first" and phase is phases[0]:
                    assert t.numbers == ref_numbers
                if order == "rows first" and phase is phases[0]:
                    assert t.numbers == []
        finally:
            sys.setswitchinterval(interval)
        assert len(got) == sum(map(len, phases))
        for read, n, value in got:
            want = (ref_numbers if read == t.number else ref_rows)[n]
            assert pickle.dumps(value) == pickle.dumps(want), (read.__name__, n)
        t.number(REFERENCE_N)
        rows = _rows(t, REFERENCE_N)
        assert (_coeffs(rows), t.numbers) == (ref_polys, ref_numbers)
        assert _pickled(rows, t.numbers) == _pickled(ref_rows, ref_numbers)

    @pytest.mark.parametrize("call, reads_numbers, rows", [
        ("from betakit import euler_number; euler_number(200)", True, "0 0"),
        ("from betakit import beta_even_quadrature; beta_even_quadrature(50, 1e-8)", True, "0 0"),
        ("from betakit.cli import run_cli\n"
         "assert run_cli(['beta', 'odd', '--k', '100', '--max-k', '100', '--cross-check']) == 0",
         True, "0 0"),
        ("from betakit import beta_odd_exact; beta_odd_exact(100)", False, "0 0"),
        ("from betakit import IntegrandSpec, aux_integral_numeric\n"
         "aux_integral_numeric(IntegrandSpec('aux_I', 50, 0), 1e-8)", True, "0 0"),
        ("from betakit import ExtendedFunctionSpec; ExtendedFunctionSpec('f', 50)", True, "0 0"),
        ("from betakit import correction_term; correction_term(50, 0)", True, "0 0"),
        ("from betakit import euler_polynomial, bernoulli_polynomial\n"
         "assert euler_polynomial(301).degree == bernoulli_polynomial(302).degree - 1",
         False, "1 1"),
    ], ids=["euler_number", "beta_even_quadrature", "beta_odd_cross_check", "beta_odd_exact",
            "aux_I_50_0", "extended_f_50", "correction_term_50_0", "polynomials"])
    def test_number_paths_build_no_euler_row(self, call, reads_numbers, rows):
        # a fresh process, so no earlier test has grown the module's tables:
        # each call reads the tables' integer sequences (E_n from the secant
        # triangle alone where it reads numbers) and builds no row, B_{n,chi4}
        # (beta_odd_exact and correction_term read it) included; only
        # euler_polynomial and bernoulli_polynomial build a row, the one they
        # return.  rows counts the calls to each table's _row
        script = ("from betakit import eulerpoly\nbuilt = []\n"
                  "for cls in (eulerpoly.EulerTable, eulerpoly.BernoulliTable):\n"
                  "    cls._row = lambda self, n, real=cls._row:"
                  " built.append(type(self)) or real(self, n)\n"
                  f"{call}\n"
                  "print(built.count(eulerpoly.EulerTable), built.count(eulerpoly.BernoulliTable),"
                  " len(eulerpoly._EULER.numbers) > 0)\n")
        r = subprocess.run([sys.executable, "-c", script], capture_output=True, timeout=120)
        assert r.returncode == 0, r.stderr
        assert r.stdout.decode().splitlines()[-1] == f"{rows} {reads_numbers}"

    @pytest.mark.parametrize("table", [EulerTable, BernoulliTable])
    def test_rows_carry_their_canonical_integer_form(self, table):
        # _row(n) is the unreduced form over 2^n (Euler) or the table's D
        # (Bernoulli), and poly(n) its canonical reduction
        t = table()
        for n in range(REFERENCE_N + 1):
            den, nums = t._row(n)
            assert den == (1 << n if table is EulerTable else t.scaled_numbers(n)[0])
            p = t.poly(n)
            assert p == RationalPolynomial(den, nums)
            assert p == RationalPolynomial.from_coefficients(p.coeffs)
            assert math.gcd(p.den, *p.nums) == 1


class TestGeneratingFunction:
    def test_numbers_up_to_40_equal_series_division(self):
        # E_n against exact division of 2 e^t / (e^(2t) + 1), one division to 40
        series = gf_euler_numbers(40)
        assert [euler_number(n) for n in range(41)] == series


class TestIdentitySuite:
    def test_reference_run_passes(self):
        report = run_identity_suite(10, 5, 42)
        assert report.all_passed
        ids = [r.identity_id for r in report.results]
        assert ids == [
            "1.1", "1.2", "1.3", "1.4", "1.5", "1.6",
            "bridge_euler_bernoulli", "bridge_chi4",
        ]

    def test_degenerate_run_passes(self):
        assert run_identity_suite(0, 1, 7).all_passed

    def test_deterministic_for_fixed_seed(self):
        a = run_identity_suite(6, 4, 99).to_json()
        b = run_identity_suite(6, 4, 99).to_json()
        assert a == b

    def test_corrupted_table_fails_on_power_identity(self):
        t = EulerTable()
        t.number(10)
        t.numbers[4] = F(6)
        report = run_identity_suite(10, 5, 42, euler=t)
        assert not report.all_passed
        failing = {r.identity_id for r in report.results if not r.passed}
        assert failing == {"1.2"}
        failure = next(r for r in report.results if not r.passed)
        assert failure.first_failure == {"n": 4}

    def test_corrupted_row_fails_reflection_and_shift_sum(self):
        # E_7 + x^3 is no Euler polynomial; 1.1 and 1.3 compare polynomials,
        # so they catch it whatever x a sample would have drawn
        t = EulerTable()
        _inject(t, {7: _plus(t.poly(7), (3, 1))})
        report = run_identity_suite(12, 1, 0, euler=t)
        failures = {r.identity_id: r.first_failure for r in report.results if not r.passed}
        assert failures == {
            "1.1": {"n": 7}, "1.2": {"n": 7}, "1.3": {"n": 7}, "1.5": {"n": 7},
            "bridge_euler_bernoulli": {"n": 8}, "bridge_chi4": {"n": 8},
        }

    def test_corrupted_bernoulli_row_fails_chi4_and_bridge(self):
        # B_9 + x^2 is no Bernoulli polynomial: B_{9,chi4} moves, which 1.6
        # (at n = 8) and bridge_chi4 see, and so does the bridge to E_8(x)
        t = BernoulliTable()
        _inject(t, {9: _plus(t.poly(9), (2, 1))})
        report = run_identity_suite(12, 1, 0, bernoulli=t)
        failures = {r.identity_id: r.first_failure for r in report.results if not r.passed}
        assert failures == {
            "1.6": {"n": 8}, "bridge_euler_bernoulli": {"n": 9}, "bridge_chi4": {"n": 9},
        }

    def test_report_ignores_trials_and_seed(self):
        assert run_identity_suite(12, 1, 0).to_json() == run_identity_suite(12, 25, 7).to_json()

    def test_one_instance_per_index(self):
        counts = {r.identity_id: r.instances for r in run_identity_suite(12, 5, 42).results}
        assert counts["1.1"] == counts["1.3"] == 13

    def test_rejects_zero_trials(self):
        with pytest.raises(ValueError):
            run_identity_suite(3, 0, 42)

    @pytest.mark.parametrize("nmax", [2.0, 2.5, F(2), "2", None])
    def test_rejects_a_non_integer_nmax(self, nmax):
        message = f"^nmax must be an integer, not {type(nmax).__name__}$"
        with pytest.raises(TypeError, match=message):
            run_identity_suite(nmax)

    def test_rejects_negative_nmax(self):
        with pytest.raises(ValueError, match="^nmax must be >= 0$"):
            run_identity_suite(-1)

    def test_report_json_schema(self):
        payload = json.loads(run_identity_suite(4, 2, 5).to_json_str())
        assert set(payload) == {"nmax", "all_passed", "identities"}
        for entry in payload["identities"]:
            assert set(entry) == {"identity_id", "instances", "passed", "first_failure"}
            assert entry["first_failure"] is None or set(entry["first_failure"]) == {"n"}


def _inject(table, rows: dict[int, RationalPolynomial]) -> None:
    # the table's _row(n) returns the form of rows[n] where given, and its
    # own row elsewhere; poly(n) and the suite read _row
    own = table._row
    table._row = lambda n: (rows[n].den, list(rows[n].nums)) if n in rows else own(n)


def _plus(p: RationalPolynomial, *terms: tuple[int, Fraction]) -> RationalPolynomial:
    # p + sum c x^i over the (i, c) pairs, built from p's coefficients
    cs = list(p.coeffs)
    for i, c in terms:
        cs = fpoly_add(cs, [0] * i + [c])
    return RationalPolynomial.from_coefficients(cs)


def _corrupt(table, size: int, rng: random.Random) -> None:
    # one wrong row among rows 0 .. size - 1: a term added (possibly above
    # the degree), c (x^i - 1) added (the value at 1 kept), a rescale, zero,
    # another row, or the leading term dropped
    n = rng.randrange(size)
    p = table.poly(n)
    c = F(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 9))
    i = rng.randint(0, p.degree + 1)
    _inject(table, {n: [
        lambda: _plus(p, (i, c)),
        lambda: _plus(p, (i, c), (0, -c)),
        lambda: RationalPolynomial.from_coefficients(fpoly_scale(c if c != 1 else F(2), p.coeffs)),
        lambda: RationalPolynomial(1, ()),
        lambda: table.poly(rng.randrange(size)),
        lambda: RationalPolynomial(p.den, p.nums[:-1]),
    ][rng.randrange(6)]()})


class TestSuiteMatchesPolynomialReference:
    """The integer-list suite reports what the tests' own polynomial finds."""

    def test_reference_shares_no_code_with_the_package(self):
        # the reference suite and the table oracles run none of betakit's
        # polynomial kernels: conftest imports from betakit only the G15 rule
        tree = ast.parse(Path(__file__).with_name("conftest.py").read_text())
        imports = []
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imports += [(a.name, None) for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                imports += [(node.module, a.name) for a in node.names]
        from_betakit = [(m, name) for m, name in imports if m.split(".")[0] == "betakit"]
        assert from_betakit == [("betakit.quadrature", "_G15")]

    @pytest.mark.parametrize("nmax", [0, 1, 2, 3, 12, 37, 60])
    def test_true_tables(self, nmax):
        et, bt = EulerTable(), BernoulliTable()
        report = run_identity_suite(nmax, euler=et, bernoulli=bt).to_json()
        assert report == polynomial_identity_suite(nmax, et, bt)
        assert report["all_passed"]

    @pytest.mark.parametrize("nmax", [0, 1, 2, 3, 12, 37, 60, 201])
    def test_true_tables_form_no_row_check(self, nmax, monkeypatch):
        # every row of a true table is certified as its sequence's Appell
        # row, so no Taylor shift and no derivative list is formed;
        # B_{n,chi4} is read off each Bernoulli row 1 .. nmax + 1 by the one
        # chi4 kernel, once
        calls = []
        for name in ("taylor_shift", "_bridge_holds", "_deriv_holds", "_chi4"):
            real = getattr(eulerpoly, name)
            monkeypatch.setattr(eulerpoly, name,
                                lambda *a, name=name, real=real: calls.append((name, a[-1]))
                                or real(*a))
        et, bt = EulerTable(), BernoulliTable()
        assert run_identity_suite(nmax, euler=et, bernoulli=bt).all_passed
        assert calls == [("_chi4", n) for n in range(1, nmax + 2)]

    @pytest.mark.parametrize("nmax", [0, 1, 2, 3, 12, 37, 60, 201])
    def test_true_tables_build_no_polynomial(self, nmax, monkeypatch):
        # the suite reads each row's integer form, so on true tables it
        # constructs no RationalPolynomial: no reduction by a gcd
        built = []
        real = RationalPolynomial.__init__
        monkeypatch.setattr(RationalPolynomial, "__init__",
                            lambda self, *a: built.append(a) or real(self, *a))
        et, bt = EulerTable(), BernoulliTable()
        assert run_identity_suite(nmax, euler=et, bernoulli=bt).all_passed
        assert built == []

    @pytest.mark.parametrize("nmax", [0, 1, 12, 60])
    def test_builds_each_row_once_and_keeps_none(self, nmax, monkeypatch):
        # the pass builds rows 0 .. nmax of the Euler table and
        # 0 .. nmax + 1 of the Bernoulli table, each once, and drops them
        built = []
        for cls in (EulerTable, BernoulliTable):
            monkeypatch.setattr(cls, "_row", lambda self, n, real=cls._row:
                                built.append((type(self), n)) or real(self, n))
        et, bt = EulerTable(), BernoulliTable()
        assert run_identity_suite(nmax, euler=et, bernoulli=bt).all_passed
        assert sorted(n for cls, n in built if cls is EulerTable) == list(range(nmax + 1))
        assert sorted(n for cls, n in built if cls is BernoulliTable) == list(range(nmax + 2))
        assert _holds_no_row(et) and _holds_no_row(bt)

    def test_second_suite_builds_no_binomial_row(self):
        # on fresh tables again, every row's binomials come from the cache
        first = run_identity_suite(60, euler=EulerTable(), bernoulli=BernoulliTable())
        misses = eulerpoly._binomials.cache_info().misses
        second = run_identity_suite(60, euler=EulerTable(), bernoulli=BernoulliTable())
        assert eulerpoly._binomials.cache_info().misses == misses
        assert second.to_json() == first.to_json()
        assert second.all_passed

    @pytest.mark.parametrize("seed", range(50))
    @pytest.mark.parametrize("table", ["euler", "bernoulli", "both"])
    def test_single_row_corruption(self, table, seed):
        rng = random.Random(seed)
        nmax = rng.randint(1, 24)
        et, bt = EulerTable(), BernoulliTable()
        for t, size in {"euler": [(et, nmax + 1)], "bernoulli": [(bt, nmax + 2)],
                        "both": [(et, nmax + 1), (bt, nmax + 2)]}[table]:
            _corrupt(t, size, rng)
        report = run_identity_suite(nmax, euler=et, bernoulli=bt).to_json()
        assert report == polynomial_identity_suite(nmax, et, bt)

    @pytest.mark.parametrize("j", [0, 1, 4, 9])
    @pytest.mark.parametrize("table", ["euler", "bernoulli"])
    def test_true_rows_over_corrupted_sequence(self, table, j):
        # _row() returns the rows of an untouched table, which from index j
        # up are no longer the Appell rows of the corrupted sequence: the
        # suite checks those rows themselves, and decides the rows below j
        # from the sequence
        et, bt = EulerTable(), BernoulliTable()
        if table == "euler":
            et._row = EulerTable()._row
            et.scaled_at_zero(14)[j] += 2
        else:
            bt._row = BernoulliTable()._row
            bt.scaled_numbers(15)[1][j] += 1
        report = run_identity_suite(14, euler=et, bernoulli=bt).to_json()
        assert report == polynomial_identity_suite(14, et, bt)
        assert report["all_passed"]

    @pytest.mark.parametrize("n", [5, 6, 9, 12])
    @pytest.mark.parametrize("table", ["euler", "bernoulli"])
    def test_row_from_another_sequence(self, table, n):
        # the Appell row of a sequence whose entry 5 was bumped is no row of
        # the true sequence, though it passes every identity that holds for
        # any Appell sequence; B_5 + 1 differs from B_5 by a constant, which
        # neither the bridge nor B_{5,chi4} sees
        et, bt = EulerTable(), BernoulliTable()
        if table == "euler":
            other = EulerTable()
            other.scaled_at_zero(5)[5] += 2
            _inject(et, {n: other.poly(n)})
        else:
            other = BernoulliTable()
            den, b = other.scaled_numbers(5)
            b[5] += den
            _inject(bt, {n: other.poly(n)})
        report = run_identity_suite(12, euler=et, bernoulli=bt).to_json()
        assert report == polynomial_identity_suite(12, et, bt)
        assert report["all_passed"] == (table == "bernoulli" and n == 5)

    @pytest.mark.parametrize("m, i", [(2, 1), (9, 5), (13, 1)])
    def test_certificate_ignores_row_binomials(self, m, i, monkeypatch):
        # rows (and the Bernoulli sums) built with one wrong C(m, i): the
        # suite takes its binomials from Pascal's rule, so row m is not
        # certified and fails on its own checks
        real = eulerpoly._binomials

        def wrong(k):
            row = list(real(k))
            if k == m:
                row[i] += 1
            return row

        monkeypatch.setattr(eulerpoly, "_binomials", wrong)
        et, bt = EulerTable(), BernoulliTable()
        report = run_identity_suite(14, euler=et, bernoulli=bt).to_json()
        assert not report["all_passed"]
        assert report == polynomial_identity_suite(14, et, bt)

    @pytest.mark.parametrize("degree", [0, 3, 7, 9, 12])
    def test_bridges_hold_for_any_consistent_pair(self, degree):
        # B_7 replaced by P of any degree and E_6 by (2^7/7) (P((x+1)/2) - P(x/2)):
        # both bridges, and 1.6 at n = 6, hold for the pair
        k, nmax = 7, 10
        et, bt = EulerTable(), BernoulliTable()
        p = [F(j - 3, j + 2) for j in range(degree + 1)]
        _inject(bt, {k: RationalPolynomial.from_coefficients(p)})
        _inject(et, {k - 1: RationalPolynomial.from_coefficients(euler_from_bernoulli(p, k))})
        report = run_identity_suite(nmax, euler=et, bernoulli=bt).to_json()
        assert report == polynomial_identity_suite(nmax, et, bt)
        passed = {r["identity_id"]: r["passed"] for r in report["identities"]}
        assert passed["bridge_euler_bernoulli"] and passed["bridge_chi4"] and passed["1.6"]


class TestSequenceCorruption:
    """One wrong integer in a table's sequence fails the checks that read it.

    Each case corrupts a fresh table, or one put in place of the module's
    table, before any row is built from it; rows built later carry the
    corruption, and the suite's reports still equal the reference suite's.
    """

    @pytest.fixture
    def tables(self, monkeypatch):
        et, bt = EulerTable(), BernoulliTable()
        monkeypatch.setattr(eulerpoly, "_EULER", et)
        monkeypatch.setattr(eulerpoly, "_BERNOULLI", bt)
        return et, bt

    @pytest.mark.parametrize("j", [2, 4, 10])
    def test_zero_at_zero_fails_aux(self, tables, j):
        # a_j = 2^j E_j(0) is 0 at even j >= 2; integration by parts reads it
        # at x = 0 for every n = 2k (I) or 2k + 1 (J) >= j, and the term it
        # leaves cannot equal the closed form
        et, _ = tables
        et.scaled_at_zero(j)[j] = 3
        for n in range(j + 4):
            spec = IntegrandSpec("aux_J" if n % 2 else "aux_I", n // 2, 2)
            if n < j:
                aux_integral_numeric(spec, 1e-8)
            else:
                with pytest.raises(RuntimeError, match="aux self-check failed"):
                    aux_integral_numeric(spec, 1e-8)

    @pytest.mark.parametrize("value", [2, F(1, 3)], ids=["integer", "one third"])
    @pytest.mark.parametrize("j", [1, 5, 9])
    def test_nonzero_secant_entry_fails_aux(self, tables, j, value):
        # E_j = 2^j E_j(1/2) is 0 at odd j; integration by parts reads it at
        # x = 1/2 for every n >= j, and the term it leaves, whether the entry
        # is an integer or not, cannot equal the closed form
        et, _ = tables
        et.number(j)
        et.numbers[j] = value
        for n in range(j + 4):
            spec = IntegrandSpec("aux_J" if n % 2 else "aux_I", n // 2, 2)
            if n < j:
                aux_integral_numeric(spec, 1e-8)
            else:
                with pytest.raises(RuntimeError, match="aux self-check failed"):
                    aux_integral_numeric(spec, 1e-8)

    # a_3 - 1 and a_4 + 8 keep 2^4 E_4(1) = sum_j C(4, j) 2^(4-j) a_j at 0,
    # so on its certified row 1.4 fails at 4 through E_4(0) alone
    @pytest.mark.parametrize("bumps", [{1: 2}, {7: 2}, {11: 2}, {3: -1, 4: 8}],
                             ids=["1", "7", "11", "3-4"])
    def test_tangent_number_fails_reflection_half_point_and_shift(self, bumps):
        et, bt = EulerTable(), BernoulliTable()
        for j, delta in bumps.items():
            et.scaled_at_zero(j)[j] += delta
        report = run_identity_suite(14, euler=et, bernoulli=bt).to_json()
        assert report == polynomial_identity_suite(14, et, bt)
        first = {r["identity_id"]: r["first_failure"] for r in report["identities"]}
        for identity in ("1.1", "1.2", "1.3"):
            assert first[identity] is not None and first[identity]["n"] >= min(bumps), identity

    @pytest.mark.parametrize("k", [1, 3, 6])
    def test_secant_number_fails_half_point_and_cross_check(self, tables, k, capsys):
        et, bt = tables
        et.number(2 * k)
        et.numbers[2 * k] += 2
        report = run_identity_suite(12, euler=et, bernoulli=bt).to_json()
        assert report == polynomial_identity_suite(12, et, bt)
        failing = {r["identity_id"]: r["first_failure"]
                   for r in report["identities"] if not r["passed"]}
        assert failing == {"1.2": {"n": 2 * k}}
        assert run_cli(["beta", "odd", "--k", str(k), "--cross-check"]) == 1
        assert "MISMATCH" in capsys.readouterr().out

    def test_suite_chi4_is_apart_from_the_route(self, tables, monkeypatch):
        # only the suite evaluates rows at both quarter points: with that
        # kernel's leading term dropped, 1.6 and bridge_chi4 fail while every
        # other family holds, and both beta(2k+1) routes, which read the
        # Bernoulli integers at 1/4 alone, still agree
        real = eulerpoly._chi4
        monkeypatch.setattr(eulerpoly, "_chi4", lambda den, nums, n: real(den, nums[:-1], n))
        assert all(beta_odd_exact(k) == beta_odd_exact_via_euler(k) for k in range(7))
        failing = {r.identity_id for r in run_identity_suite(12).results if not r.passed}
        assert failing == {"1.6", "bridge_chi4"}

    @pytest.mark.parametrize("j", [2, 3, 6])
    def test_bernoulli_integer_fails_routes_and_chi4(self, tables, j):
        # D B_j enters the route's B_{n,chi4} with the factor C(n, j) 4^j, so
        # every odd n >= j; the suite's rows at both quarter points give it
        # the factor 1 - 3^(n-j), so 1.6 and bridge_chi4 first fail above j
        et, bt = tables
        den, b = bt.scaled_numbers(14)
        b[j] += den
        for k in range(7):
            differ = beta_odd_exact(k) != beta_odd_exact_via_euler(k)
            assert differ == (2 * k + 1 >= j), k
        report = run_identity_suite(12, euler=et, bernoulli=bt).to_json()
        assert report == polynomial_identity_suite(12, et, bt)
        first = {r["identity_id"]: r["first_failure"] for r in report["identities"]}
        assert first["1.6"] == {"n": j + j % 2}
        assert first["bridge_chi4"] == {"n": j + 1}


class TestIdentityProperties:
    """The classical identities at hypothesis-chosen rational points."""

    @given(st.integers(min_value=0, max_value=14), rationals)
    @settings(max_examples=60, deadline=None)
    def test_reflection(self, n, x):
        p = euler_polynomial(n)
        assert p(1 - x) == (-1) ** n * p(x)

    @given(st.integers(min_value=0, max_value=14), rationals)
    @settings(max_examples=60, deadline=None)
    def test_shift_sum(self, n, x):
        p = euler_polynomial(n)
        assert p(x + 1) + p(x) == 2 * x**n

    @given(st.integers(min_value=0, max_value=20))
    @settings(max_examples=30, deadline=None)
    def test_number_from_half_point(self, n):
        assert euler_number(n) == 2**n * euler_polynomial(n)(HALF)

    @given(st.integers(min_value=0, max_value=12))
    @settings(max_examples=20, deadline=None)
    def test_half_point_vs_chi4(self, k):
        lhs = euler_polynomial(2 * k)(HALF)
        rhs = -generalized_bernoulli_chi4(2 * k + 1) / ((2 * k + 1) * F(2) ** (2 * k - 1))
        assert lhs == rhs

    @given(st.integers(min_value=1, max_value=16))
    @settings(max_examples=20, deadline=None)
    def test_euler_bernoulli_bridge(self, k):
        rhs = euler_from_bernoulli(bernoulli_polynomial(k).coeffs, k)
        assert list(euler_polynomial(k - 1).coeffs) == rhs
