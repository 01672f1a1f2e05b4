"""Quadrature of the beta(2k) representation and the auxiliary integrals."""

from __future__ import annotations

import functools
import math
import pickle
import random
import time
from fractions import Fraction

import pytest
from conftest import (
    ACCURACY_GRID,
    PI_LITERAL,
    akiyama_tanigawa_bernoulli,
    chunked_digits,
    fpoly_eval,
    gf_euler_numbers,
    gf_euler_poly_oracle,
    integrate_in_pieces,
    relative_error,
    sin_cos_oracle,
)

from betakit import eulerpoly, quadrature
from betakit.betavalues import beta_series, render_decimal
from betakit.eulerpoly import euler_polynomial
from betakit.highprec import pi_fraction
from betakit.quadrature import (
    _G15,
    _NODE_ERR,
    _WEIGHT_ERR_SUM,
    IntegrandSpec,
    _float_coeffs,
    aux_integral_I_closed,
    aux_integral_J_closed,
    aux_integral_numeric,
    beta_even_integrand,
    beta_even_quadrature,
)
from betakit.telescope import partial_sum_J

F = Fraction


def _legendre(n: int, x: Fraction) -> Fraction:
    # three-term recurrence (j + 1) P_{j+1} = (2j + 1) x P_j - j P_{j-1}, exact
    prev, cur = Fraction(1), x
    for j in range(1, n):
        prev, cur = cur, ((2 * j + 1) * x * cur - j * prev) / (j + 1)
    return cur


class TestGaussLegendreTables:
    """The frozen 15-point node and weight table, checked with the standard library only."""

    def test_symmetric_and_sorted(self):
        nodes, weights = _G15
        assert len(nodes) == len(weights) == 15
        assert list(nodes) == sorted(set(nodes))
        assert nodes == tuple(-x for x in reversed(nodes))
        assert weights == tuple(reversed(weights))
        assert all(w > 0 for w in weights)

    def test_moments_exact_to_degree_2n_minus_1(self):
        # sum_i w_i x_i^j against integral_{-1}^{1} x^j dx, in exact arithmetic
        nodes, weights = _G15
        for j in range(30):
            moment = sum(F(w) * F(x) ** j for x, w in zip(nodes, weights))
            exact = F(2, j + 1) if j % 2 == 0 else F(0)
            assert abs(moment - exact) <= 4 * F(math.ulp(0.5)), j

    def test_nodes_are_roots_of_legendre_polynomial(self):
        # P_15 changes sign within two ulps of every node; 15 disjoint
        # brackets around 15 sorted nodes account for all 15 roots
        for x in _G15[0]:
            delta = 2 * F(math.ulp(x))
            lo, hi = _legendre(15, F(x) - delta), _legendre(15, F(x) + delta)
            assert lo * hi < 0, x

    def test_within_the_error_the_bound_assumes(self):
        # each exact root by Newton steps in Fractions, bracketed to 2^-90,
        # and its exact weight 2 (1 - x^2) / (15 P_14(x))^2
        eps = F(1, 2**90)
        weight_err = F(0)
        for x, w in zip(*_G15):
            root = F(x)
            for _ in range(4):
                p, q = _legendre(15, root), _legendre(14, root)
                root -= p * (root * root - 1) / (15 * (root * p - q))
                root = F(round(root * 2**120), 2**120)
            assert _legendre(15, root - eps) * _legendre(15, root + eps) < 0, x
            assert abs(F(x) - root) + eps <= _NODE_ERR, x
            exact_w = 2 * (1 - root * root) / (15 * _legendre(14, root)) ** 2
            weight_err += abs(F(w) - exact_w) + eps
        assert weight_err <= _WEIGHT_ERR_SUM

    def test_bitwise_equal_to_numpy_leggauss(self):
        legendre = pytest.importorskip("numpy.polynomial.legendre")
        nodes, weights = legendre.leggauss(15)
        assert [v.hex() for v in _G15[0]] == [float(v).hex() for v in nodes]
        assert [v.hex() for v in _G15[1]] == [float(v).hex() for v in weights]


# 60 decimals of pi, truncated: pi^301 from it is off by under 1e-57 relative
PI_60 = F(3141592653589793238462643383279502884197169399375105820974944, 10**60)


@functools.lru_cache(maxsize=None)
def _exact_p_coeffs(n: int, at_half: bool) -> tuple[Fraction, ...]:
    # p_n = pi^(n+1) E_n / n! in powers of t or of u = t - 1/2.  E_n's
    # coefficients are C(n, i) E_j(0), with E_j(0) = -2 (2^(j+1) - 1)
    # B_(j+1) / (j+1), or C(n, i) E_j / 2^j, with j = n - i
    if at_half:
        e = gf_euler_numbers(n)
        c = [math.comb(n, i) * e[n - i] / 2 ** (n - i) for i in range(n + 1)]
    else:
        b = akiyama_tanigawa_bernoulli(n + 1)
        c = [
            math.comb(n, i) * -2 * (2 ** (n - i + 1) - 1) * b[n - i + 1] / (n - i + 1)
            for i in range(n + 1)
        ]
    scale = PI_60 ** (n + 1) / math.factorial(n)
    return tuple(scale * x for x in c)


def _exact_power_pi_ratio(n: int) -> tuple[int, int]:
    """(x, d), x / d the earlier pi^(n+1) / n!: one exact power of a fixed-point pi, one shift."""
    bits = 64 + (n + 2).bit_length()
    pi = pi_fraction(bits // 3 + 1)
    p = (pi.numerator << bits) // pi.denominator
    return p ** (n + 1) >> (bits * n), math.factorial(n) << bits


COEFF_GRID = pytest.mark.parametrize("n", [1, 2, 99, 100, 218, 300])
BASES = pytest.mark.parametrize("at_half", [False, True])


class TestFloatCoeffs:
    """p_n's float coefficients: finite for every n, each within one ulp."""

    @BASES
    @COEFF_GRID
    def test_against_exact_oracle(self, n, at_half):
        got = _float_coeffs(n, at_half)
        want = _exact_p_coeffs(n, at_half)
        assert len(got) == len(want) == n + 1
        for i, (g, w) in enumerate(zip(got, want)):
            assert math.isfinite(g), i
            assert abs(F(g) - w) <= F(math.ulp(float(w))), i
            if w == 0:  # E_n(0) for even n >= 2, E_n(1/2) for odd n
                assert g == 0.0, i

    @BASES
    @COEFF_GRID
    def test_against_mpmath(self, n, at_half):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(60):
            for i, g in enumerate(_float_coeffs(n, at_half)):
                j = n - i
                e = mpmath.eulernum(j) / 2**j if at_half else mpmath.eulerpoly(j, 0)
                w = mpmath.pi ** (n + 1) * e / (mpmath.factorial(i) * mpmath.factorial(j))
                assert abs(g - w) <= math.ulp(float(w)), i

    def test_bit_identical_to_earlier_exact_power(self):
        # every coefficient and scale that fits a double, in both bases
        e = eulerpoly._EULER
        for n in range(219):
            x, d = _exact_power_pi_ratio(n)
            assert quadrature._scale(n).hex() == (d / x).hex(), n
            secant = [e.number(j).numerator for j in range(n + 1)]
            for at_half, s in ((False, e.scaled_at_zero(n)), (True, secant)):
                want = [(x * math.comb(n, i) * s[n - i] << i) / (d << n) if s[n - i] else 0.0
                        for i in range(n + 1)]
                want = [c.hex() for c in want]
                assert [c.hex() for c in _float_coeffs(n, at_half)] == want, (n, at_half)


class TestBetaEvenIntegrand:
    def test_left_endpoint(self):
        assert beta_even_integrand(1, 0.0) == -0.5

    def test_removable_singularity_value(self):
        assert abs(beta_even_integrand(1, 0.5) - (-1 / math.pi)) < 1e-14
        assert abs(beta_even_integrand(2, 0.5) - 3 / (4 * math.pi)) < 1e-14

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            beta_even_integrand(1, -0.01)
        with pytest.raises(ValueError):
            beta_even_integrand(1, 0.51)
        with pytest.raises(ValueError):
            beta_even_integrand(0, 0.2)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_continuity_toward_endpoint(self, k):
        # approach 1/2 along 1/2 - 10^-j: error from the endpoint value
        # must shrink like 10^-j with a stable constant
        limit = beta_even_integrand(k, 0.5)
        ratios = []
        for j in range(3, 8):
            val = beta_even_integrand(k, 0.5 - 10.0**-j)
            ratios.append(abs(val - limit) * 10.0**j)
        assert max(ratios) <= 3 * max(ratios[0], 1e-9)


def _full_horner_integrand(coeffs: tuple[float, ...], t: float) -> float:
    """-H(u)/sin(pi u) by Horner over every coefficient, the zeros added too."""
    u = t - 0.5
    if u == 0.0:
        return -coeffs[1] / math.pi
    acc = 0.0
    for c in reversed(coeffs):
        acc = acc * u + c
    return -acc / math.sin(math.pi * u)


def test_sec_integrand_equals_full_horner():
    # the odd-coefficient Horner gives the full Horner's double, bit for bit,
    # at the panel's nodes and at 300 seeded t per k, for every k the float
    # scale allows
    rng = random.Random(28)
    for k in range(1, 110):
        coeffs = _float_coeffs(2 * k - 1, True)
        ts = [0.25 + 0.25 * x for x in _G15[0]] + [rng.uniform(0.0, 0.5) for _ in range(300)]
        for t in ts:
            want = _full_horner_integrand(coeffs, t).hex()
            assert quadrature._sec_integrand(coeffs, t).hex() == want, (k, t)


@functools.lru_cache(maxsize=None)
def _cos_pi(t: float) -> Fraction:
    return sin_cos_oracle(PI_LITERAL * F(t))[1]


@pytest.mark.parametrize("k", [1, 2, 5, 10, 20, 50])
class TestBetaEvenIntegrandAccuracy:
    """Relative error within 1e-15 at the float t, even next to t = 1/2."""

    def test_against_exact_oracle(self, k):
        poly = gf_euler_poly_oracle(2 * k - 1)
        for t in ACCURACY_GRID:
            want = fpoly_eval(poly, F(t)) / _cos_pi(t)
            assert relative_error(beta_even_integrand(k, t), want) <= 1e-15, t

    def test_against_mpmath(self, k):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(50):
            for t in ACCURACY_GRID:
                want = mpmath.eulerpoly(2 * k - 1, t) / mpmath.cos(mpmath.pi * t)
                assert relative_error(beta_even_integrand(k, t), want) <= 1e-15, t


class TestBetaEvenQuadrature:
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_matches_series_oracle(self, k):
        r = beta_even_quadrature(k, 1e-8)
        oracle = float(beta_series(2 * k, 10).value)
        assert abs(r.value - oracle) < 1e-8
        assert r.abs_error_estimate <= 1e-8
        assert r.value > 0

    def test_printed_sign_is_exactly_negated(self):
        good = beta_even_quadrature(1, 1e-8)
        bad = beta_even_quadrature(1, 1e-8, printed_sign=True)
        assert bad.value == -good.value
        assert bad.value < 0  # contradicts beta(2) = Catalan > 0

    def test_tolerance_floor(self):
        with pytest.raises(ValueError):
            beta_even_quadrature(1, 1e-14)

    def test_requires_k_at_least_one(self):
        with pytest.raises(ValueError, match="^k must be >= 1$"):
            beta_even_quadrature(0)

    def test_rejects_nan_tol(self):
        with pytest.raises(ValueError, match="floor"):
            beta_even_quadrature(3, math.nan)

    @pytest.mark.parametrize("tol", [1e-8, 1e-13])
    def test_error_against_series(self, tol):
        # the normalized integrand leaves about an ulp of beta(2k) <= 1, and
        # the estimate of one fixed panel is an a-priori bound for every k
        for k in range(1, 151):
            r = beta_even_quadrature(k, tol)
            assert r.n_evals == 15, k
            assert 0 < r.abs_error_estimate <= 1e-13, k
            err = abs(F(r.value) - beta_series(2 * k, 40).value)
            assert err <= min(F(4.5e-16), F(r.abs_error_estimate)), (k, float(err))

    def test_error_against_mpmath(self):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(40):
            for k in range(1, 151):
                r = beta_even_quadrature(k, 1e-8)
                want = mpmath.dirichlet(2 * k, [0, 1, 0, -1])
                assert abs(mpmath.mpf(r.value) - want) <= r.abs_error_estimate, k

    def test_bound_above_tol_is_an_error(self, monkeypatch):
        monkeypatch.setattr(quadrature, "_sec_integral", lambda k: (1.0, 4e-13))
        assert beta_even_quadrature(1, 2e-13).abs_error_estimate == 2e-13
        with pytest.raises(ValueError, match="exceeds tol"):
            beta_even_quadrature(1, 1e-13)

    @pytest.mark.parametrize("k", [86, 150])
    def test_k_past_the_float_factorial(self, k):
        # (2k-1)! overflows a double from k = 86; beta(2k) needs no factorial
        r = beta_even_quadrature(k, 1e-10)
        assert abs(F(r.value) - beta_series(2 * k, 30).value) <= F(1e-10)

    def test_result_json_schema(self):
        payload = beta_even_quadrature(1, 1e-8).to_json()
        assert set(payload) == {"value", "abs_error_estimate", "n_evals"}


class TestDefaultTol:
    """A call that passes no tol gets the CLI's 1e-8, defined once in quadrature."""

    def test_one_constant(self):
        from betakit import cli, telescope

        assert quadrature.DEFAULT_TOL == 1e-8
        assert cli.DEFAULT_TOL is telescope.DEFAULT_TOL is quadrature.DEFAULT_TOL

    @pytest.mark.parametrize("fn, args", [
        (beta_even_quadrature, (1,)),
        (beta_even_quadrature, (150,)),
        (aux_integral_numeric, (IntegrandSpec("aux_I", 7, 2),)),
        (aux_integral_numeric, (IntegrandSpec("aux_J", 150, 2),)),
        (partial_sum_J, (2, 10**4)),
        (partial_sum_J, (19, 0)),
    ], ids=["beta_even_1", "beta_even_150", "aux_I_7_2", "aux_J_150_2", "J_2", "J_19"])
    def test_default_call_equals_explicit_1e_8(self, fn, args):
        # pickles carry each float's 8 bytes, so equal pickles are bit for bit
        assert pickle.dumps(fn(*args)) == pickle.dumps(fn(*args, 1e-8))


class TestAuxClosedForms:
    def test_base_cases(self):
        v = aux_integral_I_closed(0, 0)
        assert (v.coeff, v.power) == (F(1), -1)
        v = aux_integral_I_closed(0, 1)
        assert (v.coeff, v.power) == (F(1, 3), -1)
        v = aux_integral_I_closed(1, 0)
        assert (v.coeff, v.power) == (F(-2), -3)

    def test_str_past_the_int_str_limit(self):
        # 1600! has 4437 digits, more than str(int) converts by default
        assert str(aux_integral_I_closed(800, 0)) == (
            chunked_digits(math.factorial(1600)) + " * pi^-1601"
        )

    @pytest.mark.parametrize("closed", [aux_integral_I_closed, aux_integral_J_closed])
    @pytest.mark.parametrize("k, m", [(-1, 0), (0, -1)])
    def test_negative_arguments_refused(self, closed, k, m):
        with pytest.raises(ValueError, match="^k and m must be >= 0$"):
            closed(k, m)

    def test_j_values(self):
        v = aux_integral_J_closed(0, 0)
        assert (v.coeff, v.power) == (F(-1), -2)
        v = aux_integral_J_closed(0, 1)
        assert (v.coeff, v.power) == (F(-1, 9), -2)
        v = aux_integral_J_closed(1, 0)
        assert (v.coeff, v.power) == (F(6), -4)


class TestAuxNumeric:
    def test_i00_value(self):
        r = aux_integral_numeric(IntegrandSpec("aux_I", 0, 0), 1e-10)
        assert abs(r.value - 1 / math.pi) < 1e-10

    def test_j00_value(self):
        r = aux_integral_numeric(IntegrandSpec("aux_J", 0, 0), 1e-10)
        assert abs(r.value - (-1 / math.pi**2)) < 1e-10

    def test_i11_against_rendered_closed_form(self):
        closed = float(render_decimal(aux_integral_I_closed(1, 1), 16).value)
        r = aux_integral_numeric(IntegrandSpec("aux_I", 1, 1), 1e-10)
        assert abs(r.value - closed) < 1e-10

    @pytest.mark.parametrize("kind", ["aux_I", "aux_J"])
    def test_full_range_matches_closed_forms(self, kind):
        closed_of = aux_integral_I_closed if kind == "aux_I" else aux_integral_J_closed
        for k in range(4):
            for m in range(4):
                closed = float(render_decimal(closed_of(k, m), 16).value)
                r = aux_integral_numeric(IntegrandSpec(kind, k, m), 1e-10)
                assert abs(r.value - closed) < 1e-9, (kind, k, m)

    def test_integrand_spec_validation(self):
        with pytest.raises(ValueError):
            IntegrandSpec("aux_K", 0, 0)
        with pytest.raises(ValueError):
            IntegrandSpec("beta_even", 0)
        with pytest.raises(ValueError):
            IntegrandSpec("aux_I", -1, 0)
        with pytest.raises(ValueError):
            aux_integral_numeric(IntegrandSpec("beta_even", 1), 1e-8)

    def test_rejects_nan_tol(self):
        with pytest.raises(ValueError, match="floor"):
            aux_integral_numeric(IntegrandSpec("aux_I", 3, 1), math.nan)

    def test_k_past_the_float_coefficients(self):
        # E_218 has coefficients past the double range; I(109, 0) =
        # -218!/pi^219 = -s(218) still fits
        closed = render_decimal(aux_integral_I_closed(109, 0), 5).value
        r = aux_integral_numeric(IntegrandSpec("aux_I", 109, 0), 1e-8)
        assert abs(F(r.value) - closed) <= 1e-15 * abs(closed)

    @pytest.mark.parametrize("kind, k", [("aux_J", 109), ("aux_I", 110), ("aux_J", 110)])
    def test_scale_past_the_double_range_raises(self, kind, k):
        # s(n) = n!/pi^(n+1) leaves the double range at n = 219
        with pytest.raises(ValueError, match=r"exceeds the double range at n=2(19|20|21)"):
            aux_integral_numeric(IntegrandSpec(kind, k, 0), 1e-8)


class TestAuxByParts:
    """I and J by integration by parts: the closed form exactly, within an ulp."""

    SWEEP = [
        (kind, k, m)
        for kind in ("aux_I", "aux_J")
        for k in range(0, 31, 3)
        for m in (0, 1, 2, 5, 20)
    ]

    @staticmethod
    def _closed(kind, k, m):
        return (aux_integral_I_closed if kind == "aux_I" else aux_integral_J_closed)(k, m)

    def _sweep(self):
        start = time.perf_counter()
        results = [aux_integral_numeric(IntegrandSpec(*case), 1e-8) for case in self.SWEEP]
        return results, time.perf_counter() - start

    def test_sweep_matches_closed_form_exactly(self):
        results, seconds = self._sweep()
        assert len(results) == 110
        assert seconds < 1.0
        for case, r in zip(self.SWEEP, results):
            # aux_integral_numeric raises unless its sum is the closed form
            assert r.value == float(self._closed(*case)), case
            assert r.n_evals == 0, case

    def test_sweep_estimate_bounds_the_error(self):
        results, _ = self._sweep()
        for case, r in zip(self.SWEEP, results):
            closed = self._closed(*case)
            want = closed.coeff * PI_LITERAL**closed.power
            assert abs(F(r.value) - want) <= F(r.abs_error_estimate), case

    def test_sweep_estimate_bounds_the_error_mpmath(self):
        mpmath = pytest.importorskip("mpmath")
        results, _ = self._sweep()
        with mpmath.workdps(60):
            for case, r in zip(self.SWEEP, results):
                closed = self._closed(*case)
                coeff = mpmath.mpf(closed.coeff.numerator) / closed.coeff.denominator
                want = coeff * mpmath.pi**closed.power
                assert abs(mpmath.mpf(r.value) - want) <= r.abs_error_estimate, case

    def test_moderate_k_with_m_one(self):
        # I(20, 1) = 40!/(3 pi)^41; quadrature drowned it in rounding, 6.1e11
        r = aux_integral_numeric(IntegrandSpec("aux_I", 20, 1), 1e-8)
        assert abs(r.value - 92582487.28510782) <= math.ulp(92582487.28510782)

    def test_j_past_the_old_scale_limit(self):
        # J(109, 1) = 219!/(3 pi)^220 fits a double although 219!/pi^220 does not
        r = aux_integral_numeric(IntegrandSpec("aux_J", 109, 1), 1e-8)
        want = aux_integral_J_closed(109, 1)
        assert abs(F(r.value) - want.coeff * PI_LITERAL**want.power) <= F(r.abs_error_estimate)
        assert r.value > 0

    def test_tol_floor_still_checked(self):
        with pytest.raises(ValueError, match="floor"):
            aux_integral_numeric(IntegrandSpec("aux_I", 1, 1), 1e-14)


class TestRecurrences:
    """Both families contract by -(a)(a-1)/((2m+1)^2 pi^2) per step."""

    @pytest.mark.parametrize("k", [1, 2])
    @pytest.mark.parametrize("m", [0, 1, 2])
    def test_i_recurrence(self, k, m):
        cur = aux_integral_numeric(IntegrandSpec("aux_I", k, m), 1e-11).value
        prev = aux_integral_numeric(IntegrandSpec("aux_I", k - 1, m), 1e-11).value
        factor = -2 * k * (2 * k - 1) / ((2 * m + 1) ** 2 * math.pi**2)
        assert abs(cur - factor * prev) < 1e-9

    @pytest.mark.parametrize("k", [1, 2])
    @pytest.mark.parametrize("m", [0, 1, 2])
    def test_j_recurrence(self, k, m):
        cur = aux_integral_numeric(IntegrandSpec("aux_J", k, m), 1e-11).value
        prev = aux_integral_numeric(IntegrandSpec("aux_J", k - 1, m), 1e-11).value
        factor = -(2 * k + 1) * (2 * k) / ((2 * m + 1) ** 2 * math.pi**2)
        assert abs(cur - factor * prev) < 1e-9


class TestOscillatoryDecay:
    """integral of a smooth function against sin/cos(Rt) decays like 1/R."""

    def _bounded_constant(self, values):
        # fitted C = |integral| * R must not grow with R
        c0 = max(values[0], 1e-8)
        assert max(values) <= 3 * c0

    def test_estar_quotient_times_sin(self):
        from betakit.telescope import ExtendedFunctionSpec, extended_eval

        spec = ExtendedFunctionSpec("g", 1)
        cs = []
        for n in (10, 100, 1000):
            # pieces a quarter period wide
            r_freq = (2 * n + 2) * math.pi
            value = integrate_in_pieces(
                lambda t: extended_eval(spec, t) * math.sin(r_freq * t), 2 * n + 2
            )
            cs.append(abs(value) * r_freq)
        self._bounded_constant(cs)

    def test_half_secant_times_cos(self):
        cs = []
        for n in (10, 100, 1000):
            r_freq = (2 * n + 2) * math.pi
            value = integrate_in_pieces(
                lambda t: 0.5 * beta_even_integrand(1, t) * math.cos(r_freq * t), 2 * n + 2
            )
            cs.append(abs(value) * r_freq)
        self._bounded_constant(cs)
