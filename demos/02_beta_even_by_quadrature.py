"""beta(2k) through its integral representation.

No closed form is known for beta at even arguments (beta(2) is Catalan's
constant), but

    beta(2k) = (-1)^k pi^(2k) / (2 (2k-1)!) * integral_0^(1/2) E_{2k-1}(t) sec(pi t) dt.

The quadrature folds the factorial into the normalized Euler polynomial
p_n(t) = pi^(n+1) E_n(t) / n!, whose coefficients stay O(1) for every n, and
integrates

    beta(2k) = (-1)^k / 2 * integral_0^(1/2) p_{2k-1}(t) sec(pi t) dt,

which has no prefactor, so any k works (k = 150 below).  The integrand
looks singular at t = 1/2 where sec blows up, but p_{2k-1} vanishes there
too and the quotient extends continuously; the evaluator expands p_{2k-1}
in powers of t - 1/2, where that zero is an exact zero coefficient, and
divides it out.  One fixed 15-point Gauss-Legendre panel takes the
integral, and its error estimate is an a-priori bound: the script exits 1
unless the 30-digit series lies within it for each k shown.  The sign
matters: this script also evaluates the (-1)^(k-1) variant to show it
contradicts the manifestly positive series.
"""

import math
import sys
from fractions import Fraction

from betakit import beta_even_integrand, beta_even_quadrature, beta_series

print("integrand endpoint behavior for k = 1 (E_1(t) sec(pi t)):")
for t in (0.0, 0.25, 0.4, 0.499, 0.4999, 0.5):
    print(f"  t = {t:<7} value = {beta_even_integrand(1, t): .12f}")
print(f"  limit at 1/2 is -(2k-1) E_0(1/2) / pi = {-1 / math.pi:.12f}\n")

print("quadrature vs the series oracle:\n")
for k in (1, 2, 3, 150):
    quad = beta_even_quadrature(k, 1e-8)
    oracle = beta_series(2 * k, 30)
    diff = abs(Fraction(quad.value) - oracle.value)
    print(
        f"beta({2 * k}) = {quad.value:.12f}  "
        f"(error estimate {quad.abs_error_estimate:.1e}, {quad.n_evals} evals)  "
        f"series {oracle.decimal_str(10)}  |diff| = {float(diff):.1e}"
    )
    if diff > quad.abs_error_estimate:
        sys.exit(f"beta({2 * k}): |diff| {float(diff):.1e} exceeds the error estimate")

print("\nthe two prefactor sign conventions at k = 1:")
good = beta_even_quadrature(1, 1e-8)
bad = beta_even_quadrature(1, 1e-8, printed_sign=True)
print(f"  (-1)^k     gives {good.value: .12f}  -> matches Catalan's constant")
print(f"  (-1)^(k-1) gives {bad.value: .12f}  -> negative, impossible for")
print("  a series that starts at +1 with decreasing terms")
