"""The value classes' contract: what they kept of the dataclass form.

Equality field by field within one class, hashes and read-only fields for
the frozen classes, mutable and unhashable identity results, keyword
construction with defaults, the ``Cls(field=value, ...)`` repr, pickling,
and the constructors' validation, including the public readers' integer
arguments.
"""

from __future__ import annotations

import pickle
from fractions import Fraction

import pytest

from betakit import (
    BernoulliTable,
    EulerTable,
    ExtendedFunctionSpec,
    HighPrecisionReal,
    IdentityReport,
    IdentityResult,
    IntegrandSpec,
    PartialSumTrace,
    PiPowerValue,
    QuadratureResult,
    RationalPolynomial,
    aux_integral_I_closed,
    aux_integral_J_closed,
    bernoulli_number,
    bernoulli_polynomial,
    beta_even_integrand,
    beta_even_quadrature,
    beta_odd_exact,
    beta_odd_exact_via_euler,
    e_star,
    euler_number,
    euler_polynomial,
    generalized_bernoulli_chi4,
    run_identity_suite,
)

# (build, the repr the dataclass form printed); build makes a fresh instance
CASES = {
    "RationalPolynomial": (
        lambda: RationalPolynomial(6, (2, 4, 6, 0)),
        "RationalPolynomial(den=3, nums=(1, 2, 3))",
    ),
    "HighPrecisionReal": (
        lambda: HighPrecisionReal(Fraction(3, 7), 12),
        "HighPrecisionReal(value=Fraction(3, 7), guaranteed_digits=12)",
    ),
    "PiPowerValue": (
        lambda: PiPowerValue(Fraction(1, 32), 3),
        "PiPowerValue(coeff=Fraction(1, 32), power=3)",
    ),
    "QuadratureResult": (
        lambda: QuadratureResult(0.5, 1e-12, 22),
        "QuadratureResult(value=0.5, abs_error_estimate=1e-12, n_evals=22)",
    ),
    "IntegrandSpec": (
        lambda: IntegrandSpec(kind="aux_J", k=2, m=1),
        "IntegrandSpec(kind='aux_J', k=2, m=1)",
    ),
    "ExtendedFunctionSpec": (
        lambda: ExtendedFunctionSpec("h", 1),
        "ExtendedFunctionSpec(name='h', k=1, endpoint_values={'1/2': -0.15915494309189535})",
    ),
    "PartialSumTrace": (
        lambda: PartialSumTrace("J", 1, 0.5, ((0, 1.0), (1, 0.5))),
        "PartialSumTrace(family='J', k=1, target=0.5, entries=((0, 1.0), (1, 0.5)))",
    ),
    "IdentityResult": (
        lambda: IdentityResult("1.3", 2, False, {"n": 4}),
        "IdentityResult(identity_id='1.3', instances=2, passed=False, first_failure={'n': 4})",
    ),
    "IdentityReport": (
        lambda: IdentityReport(3, [IdentityResult("1.1", 3, True)]),
        "IdentityReport(nmax=3, results=[IdentityResult(identity_id='1.1', instances=3, "
        "passed=True, first_failure=None)])",
    ),
}
MUTABLE = {"IdentityResult", "IdentityReport"}


@pytest.mark.parametrize("name", CASES)
def test_equal_values_compare_equal_within_one_class_only(name):
    build, _ = CASES[name]
    a, b = build(), build()
    assert a is not b and a == b and not a != b
    twin = type(f"Twin{name}", (type(a),), {})  # same fields, another class
    other = object.__new__(twin)
    other.__dict__.update(a.__dict__)
    assert a != other and other != a
    assert a != tuple(a.__dict__.values())


@pytest.mark.parametrize("name", sorted(set(CASES) - MUTABLE))
def test_frozen_values_hash_alike_and_refuse_assignment(name):
    a, b = CASES[name][0](), CASES[name][0]()
    assert hash(a) == hash(b)
    assert len({a, b}) == 1
    field = next(iter(a.__dict__))
    before = getattr(a, field)
    with pytest.raises(AttributeError):
        setattr(a, field, None)
    with pytest.raises(AttributeError):
        delattr(a, field)
    with pytest.raises(AttributeError):
        a.extra = 1
    assert getattr(a, field) == before


def test_extended_function_spec_is_frozen_and_hashable():
    # hashed by (name, k), which determine its endpoint_values dict
    spec = ExtendedFunctionSpec("h", 1)
    with pytest.raises(AttributeError):
        spec.k = 2
    with pytest.raises(AttributeError):
        spec.endpoint_values = {}
    assert hash(spec) == hash(ExtendedFunctionSpec("h", 1))
    specs = {spec, ExtendedFunctionSpec("h", 1), ExtendedFunctionSpec("h", 2),
             ExtendedFunctionSpec("g", 1)}
    assert len(specs) == 3


@pytest.mark.parametrize("name", sorted(MUTABLE))
def test_identity_results_stay_mutable_and_unhashable(name):
    a = CASES[name][0]()
    with pytest.raises(TypeError):
        hash(a)
    if isinstance(a, IdentityResult):
        a.instances += 1
        assert a.instances == 3 and a != CASES[name][0]()
    else:
        a.results.append(IdentityResult("1.3", 1, True))
        assert len(a.results) == 2 and a != CASES[name][0]()


def test_identity_report_results_default_is_a_fresh_list():
    a, b = IdentityReport(5), IdentityReport(5)
    assert a.results == [] and a.results is not b.results
    a.results.append(IdentityResult("1.1", 1, True))
    assert b.results == []


def test_keyword_construction_and_defaults():
    assert IntegrandSpec("aux_I", 3).m == 0
    assert IntegrandSpec(kind="aux_I", k=3) == IntegrandSpec("aux_I", 3, 0)
    assert IdentityResult("1.1", 3, True).first_failure is None
    half_plus_x = RationalPolynomial.from_coefficients([Fraction(1, 2), 1])
    assert RationalPolynomial(den=2, nums=[1, 2]) == half_plus_x
    assert PiPowerValue(coeff=0, power=5) == PiPowerValue(Fraction(0), 0)
    assert QuadratureResult(value=1.0, abs_error_estimate=0.0, n_evals=0).n_evals == 0
    assert HighPrecisionReal(value=Fraction(1), guaranteed_digits=3).guaranteed_digits == 3
    trace = PartialSumTrace(family="I_star", k=0, target=0.0, entries=((0, 1.0),))
    assert trace.final() == 1.0


@pytest.mark.parametrize("name", CASES)
def test_repr_is_the_dataclass_form(name):
    build, expected = CASES[name]
    assert repr(build()) == expected


@pytest.mark.parametrize("name", CASES)
def test_pickle_round_trips(name):
    a = CASES[name][0]()
    b = pickle.loads(pickle.dumps(a))
    assert b == a and type(b) is type(a) and repr(b) == repr(a)


@pytest.mark.parametrize("bad", [
    lambda: RationalPolynomial(0, ()),
    lambda: RationalPolynomial(-1, (1,)),
    lambda: IntegrandSpec("x", 1),
    lambda: IntegrandSpec("aux_I", -1),
    lambda: IntegrandSpec("aux_J", 0, -1),
    lambda: ExtendedFunctionSpec("f", 0),
])
def test_constructor_validation_is_kept(bad):
    with pytest.raises(ValueError):
        bad()


def test_constructors_normalize():
    p = RationalPolynomial(4, [2, 0, 0])
    assert (p.den, p.nums) == (2, (1,))
    zero = PiPowerValue(Fraction(0), 7)
    assert (zero.coeff, zero.power) == (0, 0) and type(zero.coeff) is Fraction
    assert type(PiPowerValue(3, 1).coeff) is Fraction


@pytest.mark.parametrize("bad", [0.1, 0.5, "1/2", None, 1j])
def test_pi_power_value_takes_only_exact_coefficients(bad):
    message = f"^coeff must be an int or a Fraction, not {type(bad).__name__}$"
    with pytest.raises(TypeError, match=message):
        PiPowerValue(bad, 1)
    half = Fraction(1, 2)
    assert PiPowerValue(half, 1).coeff is half  # kept as it is
    assert PiPowerValue(True, 1) == PiPowerValue(1, 1)  # bools are ints


# each public reader of an integer argument: (the argument's name, a call taking it)
INTEGER_READERS = {
    "euler_number": ("n", euler_number),
    "bernoulli_number": ("n", bernoulli_number),
    "euler_polynomial": ("n", euler_polynomial),
    "bernoulli_polynomial": ("n", bernoulli_polynomial),
    "generalized_bernoulli_chi4": ("n", generalized_bernoulli_chi4),
    "beta_odd_exact": ("k", beta_odd_exact),
    "beta_odd_exact_via_euler": ("k", beta_odd_exact_via_euler),
    "aux_integral_I_closed-k": ("k", lambda v: aux_integral_I_closed(v, 0)),
    "aux_integral_I_closed-m": ("m", lambda v: aux_integral_I_closed(1, v)),
    "aux_integral_J_closed-k": ("k", lambda v: aux_integral_J_closed(v, 0)),
    "aux_integral_J_closed-m": ("m", lambda v: aux_integral_J_closed(1, v)),
    "beta_even_quadrature": ("k", beta_even_quadrature),
    "beta_even_integrand": ("k", lambda v: beta_even_integrand(v, 0.1)),
    "EulerTable.poly": ("n", lambda v: EulerTable().poly(v)),
    "EulerTable.number": ("n", lambda v: EulerTable().number(v)),
    "EulerTable.scaled_at_zero": ("n", lambda v: EulerTable().scaled_at_zero(v)),
    "BernoulliTable.poly": ("n", lambda v: BernoulliTable().poly(v)),
    "BernoulliTable.number": ("n", lambda v: BernoulliTable().number(v)),
    "BernoulliTable.scaled_numbers": ("n", lambda v: BernoulliTable().scaled_numbers(v)),
    "IntegrandSpec-k": ("k", lambda v: IntegrandSpec("aux_I", v, 0)),
    "IntegrandSpec-m": ("m", lambda v: IntegrandSpec("aux_I", 1, v)),
    "ExtendedFunctionSpec": ("k", lambda v: ExtendedFunctionSpec("g", v)),
    "e_star": ("k", lambda v: e_star(v, 0.25)),
    "run_identity_suite-trials": ("trials", lambda v: run_identity_suite(2, v)),
}


@pytest.mark.parametrize("bad", [1.0, 2.5, Fraction(1), "1", None])
@pytest.mark.parametrize("reader", list(INTEGER_READERS))
def test_integer_arguments_are_named(reader, bad):
    name, call = INTEGER_READERS[reader]
    with pytest.raises(TypeError, match=f"^{name} must be an integer, not {type(bad).__name__}$"):
        call(bad)
    assert call(True) == call(1)  # bools stay ints
