"""Modified integrand, correction term, extended functions, partial sums."""

from __future__ import annotations

import json
import math
from fractions import Fraction

import pytest
from conftest import (
    ACCURACY_GRID,
    PI_LITERAL,
    appell_euler_at_zero,
    fpoly_derivative,
    fpoly_eval,
    gf_euler_poly_oracle,
    integrate_in_pieces,
    machin_pi,
    relative_error,
    sin_cos_oracle,
)

from betakit import eulerpoly, telescope
from betakit.betavalues import beta_series
from betakit.eulerpoly import euler_number
from betakit.highprec import pi_fraction
from betakit.quadrature import _scale
from betakit.telescope import (
    ExtendedFunctionSpec,
    _alternating_sums,
    correction_term,
    e_star,
    extended_eval,
    partial_sum_I_star,
    partial_sum_J,
)

F = Fraction


class TestEStar:
    def test_vanishes_at_both_endpoints(self):
        assert e_star(1, 0.0) == 0.0
        assert abs(e_star(1, 0.5)) < 1e-15

    def test_quarter_point(self):
        expected = -3 / 16 + math.sqrt(2) / 8
        assert abs(e_star(1, 0.25) - expected) < 1e-15

    def test_k0_left_endpoint_does_not_vanish(self):
        # E*_0(t) = 1 - sin(pi t): the subtraction only helps at t = 1/2
        assert e_star(0, 0.0) == 1.0
        assert abs(e_star(0, 0.5)) < 1e-15

    def test_domain_error(self):
        with pytest.raises(ValueError):
            e_star(1, 0.6)

    def test_negative_k_refused(self):
        with pytest.raises(ValueError, match="^k must be >= 0$"):
            e_star(-1, 0.25)


class TestCorrectionTerm:
    def test_known_values(self):
        assert correction_term(0, 0) == F(1, 4)
        assert correction_term(1, 0) == F(-1, 16)

    def test_vanishes_off_resonance(self):
        assert correction_term(0, 1) == 0
        assert correction_term(5, 3) == 0

    @pytest.mark.parametrize("k, m", [(-1, 0), (0, -1)])
    def test_negative_arguments_refused(self, k, m):
        with pytest.raises(ValueError, match="^k and m must be >= 0$"):
            correction_term(k, m)

    @pytest.mark.parametrize("k, m, name", [(1.0, 0, "k"), (1, 0.0, "m"), (F(1), 0, "k")])
    def test_rejects_non_integer_arguments(self, k, m, name):
        message = f"^{name} must be an integer, not {type(k if name == 'k' else m).__name__}$"
        with pytest.raises(TypeError, match=message):
            correction_term(k, m)

    def test_two_expressions_agree_exactly(self):
        # E_{2k}/2^(2k+2) vs -B_{2k+1,chi4}/((2k+1) 2^(2k+1)); correction_term
        # raises if they ever disagreed, so surviving the call is the check
        for k in range(21):
            assert correction_term(k, 0) == euler_number(2 * k) / F(2) ** (2 * k + 2)


class TestExtendedFunctions:
    def test_f_endpoint_values(self):
        spec = ExtendedFunctionSpec("f", 1)
        expected_at_zero = (-1 + math.pi / 4) / (2 * math.pi)
        assert abs(spec.endpoint_values["0"] - expected_at_zero) < 1e-15
        assert spec.endpoint_values["1/2"] == 0.0

    def test_g_h_endpoint_values(self):
        assert ExtendedFunctionSpec("g", 1).endpoint_values["1/2"] == 0.0
        h = ExtendedFunctionSpec("h", 1)
        assert abs(h.endpoint_values["1/2"] - (-1 / (2 * math.pi))) < 1e-15

    def test_endpoint_limits_at_large_k(self):
        # the limits from the Appell scalars E_m(0), with E_2k = 2^2k E_2k(1/2)
        # by the Appell sum, and a 300-digit pi; f's terms cancel to 3^-2k
        at_zero = appell_euler_at_zero(218)
        pi = machin_pi(300)

        def euler(n):
            return sum(math.comb(n, i) * at_zero[n - i] * 2 ** (n - i) for i in range(n + 1))

        for k in (10, 50, 85, 109):
            f_want = k * at_zero[2 * k - 1] / pi - euler(2 * k) / F(2) ** (2 * k + 1)
            h_want = -(2 * k - 1) * euler(2 * k - 2) / F(2) ** (2 * k - 1) / pi
            assert relative_error(ExtendedFunctionSpec("f", k).endpoint_values["0"],
                                  f_want) <= 1e-15, k
            assert relative_error(ExtendedFunctionSpec("h", k).endpoint_values["1/2"],
                                  h_want) <= 1e-15, k

    def test_endpoints_bit_identical_to_earlier_pi_division(self):
        # the limits as they were formed before, divided by pi_fraction(k + 20)
        for k in range(1, 110):
            pi = pi_fraction(k + 20)
            at_zero = F(eulerpoly._EULER.scaled_at_zero(2 * k - 1)[2 * k - 1], 1 << 2 * k - 1)
            f_was = float(k * at_zero / pi - euler_number(2 * k) / 2 ** (2 * k + 1))
            h_was = float(-(2 * k - 1) * (euler_number(2 * k - 2) / 2 ** (2 * k - 2)) / (2 * pi))
            assert ExtendedFunctionSpec("f", k).endpoint_values["0"].hex() == f_was.hex(), k
            assert ExtendedFunctionSpec("h", k).endpoint_values["1/2"].hex() == h_was.hex(), k

    @pytest.mark.parametrize("name", ["f", "g", "h"])
    def test_past_the_double_range(self, name):
        # extended_eval scales by s(2k) or s(2k - 1), which leaves the double
        # range at k = 110; h's limit there, 1e309, would too
        with pytest.raises(ValueError, match="double range"):
            ExtendedFunctionSpec(name, 110)

    def test_g_at_zero_is_regular(self):
        spec = ExtendedFunctionSpec("g", 1)
        assert extended_eval(spec, 0.0) == 0.0

    @pytest.mark.parametrize("k", [1, 7])
    @pytest.mark.parametrize("name", ["f", "g"])
    def test_f_and_g_at_one_half_are_their_limit(self, name, k):
        # u = t - 1/2 is exactly 0, where both quotients are 0/0: they
        # return their declared limit, 0, without dividing
        spec = ExtendedFunctionSpec(name, k)
        assert extended_eval(spec, 0.5) == spec.endpoint_values["1/2"] == 0.0

    def test_f_requires_positive_k(self):
        # E*_0(0) = 1 while sin(2 pi t) -> 0: no continuous extension exists
        with pytest.raises(ValueError):
            ExtendedFunctionSpec("f", 0)
        with pytest.raises(ValueError):
            ExtendedFunctionSpec("h", 0)
        ExtendedFunctionSpec("g", 0)  # fine
        with pytest.raises(ValueError, match="^g requires k >= 0$"):
            ExtendedFunctionSpec("g", -1)

    @pytest.mark.parametrize("name", ["f", "g", "h"])
    @pytest.mark.parametrize("t", [-0.01, 0.51, math.nan])
    def test_eval_outside_the_interval_refused(self, name, t):
        with pytest.raises(ValueError, match="outside"):
            extended_eval(ExtendedFunctionSpec(name, 1), t)

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            ExtendedFunctionSpec("q", 1)

    @pytest.mark.parametrize("k", [1, 2])
    def test_endpoint_continuity(self, k):
        cases = [
            (ExtendedFunctionSpec("f", k), "0", +1),
            (ExtendedFunctionSpec("f", k), "1/2", -1),
            (ExtendedFunctionSpec("g", k), "1/2", -1),
            (ExtendedFunctionSpec("h", k), "1/2", -1),
        ]
        for spec, endpoint, direction in cases:
            base = 0.0 if endpoint == "0" else 0.5
            declared = spec.endpoint_values[endpoint]
            ratios = []
            for j in range(3, 8):
                t = base + direction * 10.0**-j
                ratios.append(abs(extended_eval(spec, t) - declared) * 10.0**j)
            # error <= C 10^-j with the fitted constant stable across j
            assert max(ratios) <= 3 * max(ratios[0], 1e-9), (spec.name, endpoint)

    def test_matches_direct_quotient_away_from_singularities(self):
        spec = ExtendedFunctionSpec("f", 2)
        t = 0.3
        direct = e_star(2, t) / math.sin(2 * math.pi * t)
        assert abs(extended_eval(spec, t) - direct) < 1e-15


@pytest.mark.parametrize("k", [1, 2])
class TestExtendedAccuracy:
    """f and g within 1e-13 relative error at the float t, next to both endpoints."""

    def _check(self, k, t, f_want, g_want):
        assert relative_error(extended_eval(ExtendedFunctionSpec("f", k), t), f_want) <= 1e-13, t
        assert relative_error(extended_eval(ExtendedFunctionSpec("g", k), t), g_want) <= 1e-13, t

    def test_against_exact_oracle(self, k):
        poly = gf_euler_poly_oracle(2 * k)
        s = fpoly_eval(poly, F(1, 2))
        for t in ACCURACY_GRID:
            sin, cos = sin_cos_oracle(PI_LITERAL * F(t))
            estar = fpoly_eval(poly, F(t)) - s * sin
            if t == 0.0:  # f's limit (E_{2k}'(0) - pi s) / (2 pi)
                f_want = (fpoly_eval(fpoly_derivative(poly), 0) - PI_LITERAL * s) / (2 * PI_LITERAL)
            else:
                f_want = estar / (2 * sin * cos)
            self._check(k, t, f_want, estar / cos)

    def test_against_mpmath(self, k):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(50):
            s = mpmath.eulerpoly(2 * k, 0.5)
            for t in ACCURACY_GRID:
                x = mpmath.pi * t
                estar = mpmath.eulerpoly(2 * k, t) - s * mpmath.sin(x)
                if t == 0.0:  # E_{2k}'(0) = 2k E_{2k-1}(0)
                    slope = 2 * k * mpmath.eulerpoly(2 * k - 1, 0)
                    f_want = (slope - mpmath.pi * s) / (2 * mpmath.pi)
                else:
                    f_want = estar / mpmath.sin(2 * x)
                self._check(k, t, f_want, estar / mpmath.cos(x))


class TestPartialSumIStar:
    def test_single_term_is_istar_k0(self):
        # S_0 = I(k,0) - correction = I*(k,0)
        tr = partial_sum_I_star(0, 0)
        expected = 1 / math.pi - 0.25
        assert abs(tr.entries[0][1] - expected) < 1e-15
        assert tr.target == 0.0

    def test_k0_converges_to_zero(self):
        tr = partial_sum_I_star(0, 10000)
        final = abs(tr.final())
        # Leibniz bound 1/(pi (2N+3)) ~ 1.6e-5; the sum lands near half of it
        assert final < 1e-4
        assert final == pytest.approx(1 / (2 * math.pi * 20003), rel=0.01)

    def test_k1_decreasing_magnitudes(self):
        tr = partial_sum_I_star(1, 100)
        by_n = dict(tr.entries)
        assert abs(by_n[100]) < abs(by_n[10])

    @pytest.mark.parametrize("k", [0, 1, 2])
    def test_n_times_sum_bounded(self, k):
        tr = partial_sum_I_star(k, 10000)
        by_n = dict(tr.entries)
        scaled = [n * abs(by_n[n]) for n in (100, 1000, 10000)]
        assert max(scaled) <= 3 * max(scaled[0], 1e-12)

    def test_entries_sorted_and_sampled(self):
        tr = partial_sum_I_star(0, 2000)
        ns = [n for n, _ in tr.entries]
        assert ns == sorted(ns)
        assert ns[:10] == list(range(10))
        assert 1000 in ns and 2000 in ns

    def test_k_past_the_float_factorial(self):
        # (2k)! = 172! overflows a double; the prefactor s(172) does not
        assert all(math.isfinite(s) for _, s in partial_sum_I_star(86, 10).entries)

    def test_scale_past_the_double_range_raises(self):
        with pytest.raises(ValueError, match=r"exceeds the double range at n=220"):
            partial_sum_I_star(110, 10)

    def test_denominators_past_the_double_range_raise(self):
        # (2m+1)^61 leaves the double range from m = 56,536
        with pytest.raises(OverflowError, match=r"exceeds the double range at N=100000"):
            partial_sum_I_star(30, 10**5)
        assert partial_sum_I_star(30, 56535).entries[-1][0] == 56535


class TestPartialSumJ:
    def test_k1_limit_value(self):
        tr = partial_sum_J(1, 10000, 1e-8)
        catalan = float(beta_series(2, 10).value)
        assert abs(tr.final() - (-catalan / math.pi**2)) < 1e-6
        assert abs(tr.target - (-catalan / math.pi**2)) < 1e-7

    def test_first_entry_is_closed_form(self):
        tr = partial_sum_J(1, 0, 1e-8)
        assert abs(tr.entries[0][1] - (-1 / math.pi**2)) < 1e-15

    @pytest.mark.parametrize("k", [1, 2])
    def test_converges_to_quadrature_target(self, k):
        tr = partial_sum_J(k, 10000, 1e-8)
        assert abs(tr.final() - tr.target) < 1e-6

    @pytest.mark.parametrize("k", [1, 2])
    def test_limit_equals_scaled_beta_even(self, k):
        # sum of the closed forms = (-1)^k (2k-1)! beta(2k) / pi^(2k)
        tr = partial_sum_J(k, 10000, 1e-8)
        beta = float(beta_series(2 * k, 10).value)
        expected = (-1) ** k * math.factorial(2 * k - 1) * beta / math.pi ** (2 * k)
        assert abs(tr.final() - expected) < 1e-6

    def test_requires_k_at_least_one(self):
        with pytest.raises(ValueError):
            partial_sum_J(0, 10, 1e-8)

    def test_negative_n_max_refused(self):
        with pytest.raises(ValueError, match="^n_max must be >= 0$"):
            partial_sum_J(1, -1)

    @pytest.mark.parametrize("k", [19, 50, 86])
    def test_k_past_the_float_factorial(self, k):
        # the limit (-1)^k (2k-1)! beta(2k) / pi^(2k) fits a double although
        # (2k-1)! does not from k = 86; the target's error is relative to it,
        # so an absolute tol far below its ulp (1e-8 at k = 19) is no obstacle
        tr = partial_sum_J(k, 10, 1e-8)
        n = 2 * k - 1
        scale = F(math.factorial(n)) / PI_LITERAL ** (n + 1)
        expected = (-1) ** k * scale * beta_series(n + 1, 20).value
        assert abs(F(tr.target) - expected) <= 1e-14 * abs(expected)
        assert abs(F(tr.final()) - expected) <= 1e-14 * abs(expected)

    @pytest.mark.parametrize("tol", [math.nan, 1e-14])
    def test_rejects_tol_below_the_floor(self, tol):
        with pytest.raises(ValueError, match="floor"):
            partial_sum_J(1, 10, tol)

    def test_scale_past_the_double_range_raises(self):
        with pytest.raises(ValueError, match=r"exceeds the double range at n=219"):
            partial_sum_J(110, 10, 1e-8)


@pytest.mark.parametrize("trace", [partial_sum_I_star, partial_sum_J])
@pytest.mark.parametrize("k, n_max, name", [(2, 10.5, "n_max"), (2, "10", "n_max"), (2.0, 10, "k")])
def test_partial_sums_reject_non_integer_arguments(trace, k, n_max, name):
    # a float N would otherwise end the trace at the sample N = 10.5
    message = f"^{name} must be an integer, not {type(k if name == 'k' else n_max).__name__}$"
    with pytest.raises(TypeError, match=message):
        trace(k, n_max)


def _reference_sums(power: int, ns: list[int]) -> list[tuple[int, float]]:
    # math.fsum over all n + 1 float terms at every sample n, with no early stop
    terms = [(-1.0) ** m / float((2 * m + 1) ** power) for m in range(max(ns) + 1)]
    return [(n, math.fsum(terms[: n + 1])) for n in ns]


class TestAlternatingSums:
    """The sums stop once settled, and every entry stays the full fsum."""

    @pytest.mark.parametrize(
        "power, n_max",
        [(p, n) for p in (*range(1, 9), 13, 20, 57, 61)
         for n in (0, 1, 9, 10, 11, 99, 100, 101, 1000, 10001)]
        + [(61, 56535)],
    )
    def test_bit_identical_to_the_full_sum(self, power, n_max):
        got = _alternating_sums(power, n_max)
        ns = [n for n, _ in got]
        assert ns[-1] == n_max
        # hex tells -0.0 from 0.0 and pins every bit
        assert [(n, s.hex()) for n, s in got] == [
            (n, s.hex()) for n, s in _reference_sums(power, ns)
        ]

    def test_forms_no_term_past_n_max(self):
        # 1^647 fits a double but the next denominator, 3^647, does not
        assert _alternating_sums(647, 0) == [(0, 1.0)]

    def test_stops_once_settled(self):
        # p = 20 settles within a few terms; summing every term to 10^12
        # would not return
        tr = partial_sum_J(10, 10**12, 1e-8)
        assert tr.entries[-1][0] == 10**12
        settled = _scale(19) * _reference_sums(20, [10**4])[0][1]
        assert [s for n, s in tr.entries if n >= 100] == [settled] * 11

    def test_stops_between_samples(self, monkeypatch):
        # J at k = 2 sums p = 4, whose rounded sum settles at m = 7155,
        # between the samples 10^3 and 10^4; a pass that tried only at the
        # samples formed 21,171 terms, summing to 10^4 and once more
        formed = []
        real = telescope._terms
        monkeypatch.setattr(telescope, "_terms",
                            lambda p, lo, hi: formed.append(hi - lo + 1) or real(p, lo, hi))
        got = _alternating_sums(4, 10**5)
        assert sum(formed) < 21_171 // 2
        ns = [n for n, _ in got]
        assert [(n, s.hex()) for n, s in got] == [
            (n, s.hex()) for n, s in _reference_sums(4, ns)
        ]

    def test_refusal_builds_no_table(self, monkeypatch):
        monkeypatch.setattr(eulerpoly, "_BERNOULLI", eulerpoly.BernoulliTable())
        monkeypatch.setattr(eulerpoly, "_EULER", eulerpoly.EulerTable())
        built = []
        for cls in (eulerpoly.EulerTable, eulerpoly.BernoulliTable):
            monkeypatch.setattr(cls, "_row", lambda self, n, real=cls._row:
                                built.append(n) or real(self, n))
        with pytest.raises(OverflowError, match=r"\(2N\+1\)\^95 exceeds the double range"):
            partial_sum_I_star(47, 10**5)
        assert built == []
        assert len(eulerpoly._EULER.numbers) == 0
        # nor the Bernoulli integers, which correction_term reads through a row
        assert eulerpoly._BERNOULLI._scaled == (1, [])

    def test_refusal_computes_no_target(self, monkeypatch):
        def unreachable(k):
            raise AssertionError("target computed before the range check")

        monkeypatch.setattr(telescope, "_sec_integral", unreachable)
        with pytest.raises(OverflowError, match=r"\(2N\+1\)\^94 exceeds the double range"):
            partial_sum_J(47, 10**5, 1e-8)

    def test_errors_keep_their_order(self):
        # the k and n_max checks, then the scale, then the double range
        with pytest.raises(ValueError, match="must be >= 0"):
            partial_sum_I_star(-1, 10**5)
        with pytest.raises(ValueError, match=r"exceeds the double range at n=220"):
            partial_sum_I_star(110, 10**5)
        with pytest.raises(ValueError, match="floor"):
            partial_sum_J(47, 10**5, 1e-14)


class TestIStarDecomposition:
    """I*(k, m) integrand integrates to I(k, m) minus the m = 0 correction."""

    @pytest.mark.parametrize("k", [0, 1, 2])
    @pytest.mark.parametrize("m", [0, 1, 2])
    def test_against_quadrature(self, k, m):
        from betakit.quadrature import aux_integral_I_closed
        from betakit.betavalues import render_decimal

        # pieces a quarter period wide
        freq = (2 * m + 1) * math.pi
        value = integrate_in_pieces(
            lambda t: e_star(k, t) * math.sin(freq * t), 2 * (2 * m + 1)
        )
        closed_i = float(render_decimal(aux_integral_I_closed(k, m), 16).value)
        expected = closed_i - float(correction_term(k, m))
        assert abs(value - expected) < 1e-9


class TestTraceSerialization:
    def test_json_schema(self):
        tr = partial_sum_I_star(1, 50)
        payload = json.loads(json.dumps(tr.to_json()))
        assert set(payload) == {"family", "k", "target", "entries"}
        assert payload["family"] == "I_star"
        assert payload["entries"][0] == [0, tr.entries[0][1]]

    def test_csv_layout(self):
        tr = partial_sum_I_star(0, 10)
        lines = tr.to_csv().splitlines()
        assert lines[0] == "family,k,N,S_N,target"
        assert len(lines) == 1 + len(tr.entries)
        first = lines[1].split(",")
        assert first[0] == "I_star" and first[1] == "0" and first[2] == "0"

    def test_family_j_labels(self):
        tr = partial_sum_J(1, 5, 1e-6)
        assert tr.family == "J"
        assert json.loads(json.dumps(tr.to_json()))["family"] == "J"
