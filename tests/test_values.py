"""The value classes' contract: what they kept of the dataclass form.

Equality field by field within one class, hashes and read-only fields for
the frozen classes, mutable and unhashable identity results, keyword
construction with defaults, the ``Cls(field=value, ...)`` repr, pickling,
and the constructors' validation.
"""

from __future__ import annotations

import pickle
from fractions import Fraction

import pytest

from betakit import (
    ExtendedFunctionSpec,
    HighPrecisionReal,
    IdentityReport,
    IdentityResult,
    IntegrandSpec,
    PartialSumTrace,
    PiPowerValue,
    QuadratureResult,
    RationalPolynomial,
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
# its endpoint_values field is a dict, so hashing it raises, as it did as a dataclass
UNHASHABLE = MUTABLE | {"ExtendedFunctionSpec"}


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


@pytest.mark.parametrize("name", sorted(set(CASES) - UNHASHABLE))
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


def test_extended_function_spec_is_frozen_but_unhashable():
    spec = ExtendedFunctionSpec("h", 1)
    with pytest.raises(AttributeError):
        spec.k = 2
    with pytest.raises(TypeError):
        hash(spec)


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
