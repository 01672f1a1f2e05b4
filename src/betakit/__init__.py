"""betakit: special values of the Dirichlet beta function.

Exact values beta(2k+1) as rational multiples of pi^(2k+1), numerical
values beta(2k) through an integral representation, and executable checks
of the Euler/Bernoulli identity machinery connecting them.
"""

# Eager on purpose: every submodule loads here.  A lazy (PEP 562) package
# saved only 1-4 ms more per process, and perfbench/tracing.py wraps only the
# modules already loaded when it installs, so it would then trace almost none.
from .betavalues import (
    HighPrecisionReal,
    PiPowerValue,
    beta_odd_exact,
    beta_odd_exact_via_euler,
    beta_series,
    render_decimal,
)
from .eulerpoly import (
    BernoulliTable,
    EulerTable,
    IdentityReport,
    IdentityResult,
    bernoulli_number,
    bernoulli_polynomial,
    euler_number,
    euler_polynomial,
    generalized_bernoulli_chi4,
    run_identity_suite,
)
from .exact import RationalPolynomial, rational_str
from .highprec import BudgetExceededError, pi_fraction
from .quadrature import (
    IntegrandSpec,
    QuadratureResult,
    aux_integral_I_closed,
    aux_integral_J_closed,
    aux_integral_numeric,
    beta_even_integrand,
    beta_even_quadrature,
)
from .telescope import (
    ExtendedFunctionSpec,
    PartialSumTrace,
    correction_term,
    e_star,
    extended_eval,
    partial_sum_I_star,
    partial_sum_J,
)

__version__ = "0.1.0"

__all__ = [
    "BernoulliTable",
    "BudgetExceededError",
    "EulerTable",
    "ExtendedFunctionSpec",
    "HighPrecisionReal",
    "IdentityReport",
    "IdentityResult",
    "IntegrandSpec",
    "PartialSumTrace",
    "PiPowerValue",
    "QuadratureResult",
    "RationalPolynomial",
    "aux_integral_I_closed",
    "aux_integral_J_closed",
    "aux_integral_numeric",
    "beta_even_integrand",
    "beta_even_quadrature",
    "beta_odd_exact",
    "beta_odd_exact_via_euler",
    "beta_series",
    "bernoulli_number",
    "bernoulli_polynomial",
    "correction_term",
    "e_star",
    "euler_number",
    "euler_polynomial",
    "extended_eval",
    "generalized_bernoulli_chi4",
    "partial_sum_I_star",
    "partial_sum_J",
    "pi_fraction",
    "rational_str",
    "render_decimal",
    "run_identity_suite",
]
