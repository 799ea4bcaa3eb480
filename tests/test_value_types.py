"""The value-type contract: equality, hashing, immutability and repr of negmul's records."""

import copy
import pickle
from fractions import Fraction

import pytest

from negmul import (
    PICARD_PROFILE,
    BenchReport,
    CostProfile,
    CostRatios,
    CostVector,
    Mismatch,
    MulResult,
    SignedExpansion,
    TraceStep,
    naf,
    run_bench,
)
from negmul.algorithms import Algorithm
from negmul.backends import _CostProfileFields
from negmul.bench import AlgorithmEntry, StepCosts, _StepCostsFields
from negmul.costs import _CostRatiosFields, _CostVectorFields


def _report():
    return run_bench(PICARD_PROFILE, bits=8, samples=3, form="naf", seed=1)


# type -> (a factory making equal, independent values, its field names, whether it hashes)
VALUE_TYPES = {
    CostVector: (lambda: CostVector(1, 2, 3, 4), ("mul", "sqr", "inv", "add_f"), True),
    CostRatios: (
        lambda: CostRatios(Fraction(1, 2), 7, "1/3"),
        ("sqr_per_mul", "inv_per_mul", "addf_per_mul"),
        True,
    ),
    CostProfile: (
        lambda: CostProfile(
            "p", CostVector(3), CostVector(4), CostVector(1), CostVector(2), CostVector(3)
        ),
        ("name", "add_cost", "dbl_cost", "neg_cost", "neg_add_cost", "neg_dbl_cost"),
        True,
    ),
    SignedExpansion: (lambda: SignedExpansion([1, 0, -3], 3), ("digits", "digit_bound"), True),
    StepCosts: (
        lambda: StepCosts(Fraction(172), Fraction(159), Fraction(325, 43)),
        ("plain", "fused", "savings"),
        True,
    ),
    # an AlgorithmEntry holds a CostLedger and a BenchReport holds dicts: neither hashes
    AlgorithmEntry: (
        lambda: _report().algorithms[0],
        ("algo_id", "ledger", "total_weighted", "mean_weighted", "savings_vs_baseline"),
        False,
    ),
    BenchReport: (
        _report,
        (
            "preset", "ratios", "bits", "samples", "form",
            "width", "seed", "per_step", "algorithms", "prices",
        ),
        False,
    ),
}


@pytest.mark.parametrize("cls", VALUE_TYPES, ids=lambda cls: cls.__name__)
def test_value_type_contract(cls):
    make, fields, hashable = VALUE_TYPES[cls]
    a, b = make(), make()
    assert type(a) is cls and a is not b
    assert a == b and not a != b
    if hashable:
        assert hash(a) == hash(b)
        assert len({a, b}) == 1
    else:
        with pytest.raises(TypeError):
            hash(a)
    for field in fields:
        with pytest.raises(AttributeError):
            setattr(a, field, getattr(b, field))
    assert a == b
    text = repr(a)
    assert text.startswith(f"{cls.__name__}(")
    assert all(f"{field}=" in text for field in fields)


# every namedtuple record: its field names in order, and its defaults
RECORD_FIELDS = {
    TraceStep: (("kind", "f", "element"), {}),
    MulResult: (("element", "shape", "trace"), {"trace": None}),
    Algorithm: (("forms", "run", "fuse_dbl", "fuse_add", "lookahead", "table_from"), {}),
    AlgorithmEntry: (VALUE_TYPES[AlgorithmEntry][1], {}),
    BenchReport: (VALUE_TYPES[BenchReport][1], {}),
    _StepCostsFields: (VALUE_TYPES[StepCosts][1], {}),
    _CostVectorFields: (VALUE_TYPES[CostVector][1], {}),
    _CostRatiosFields: (VALUE_TYPES[CostRatios][1], {}),
    _CostProfileFields: (VALUE_TYPES[CostProfile][1], {}),
    Mismatch: (("n", "D", "m", "algorithm", "got", "expected"), {}),
}


@pytest.mark.parametrize("cls", RECORD_FIELDS, ids=lambda cls: cls.__name__)
def test_record_fields_are_pinned(cls):
    fields, defaults = RECORD_FIELDS[cls]
    assert cls._fields == fields
    assert cls._field_defaults == defaults
    # __slots__ = () all the way up: no instance carries a __dict__
    assert cls.__dictoffset__ == 0


def test_signed_expansion_is_not_a_sequence():
    e = SignedExpansion((1, 0, -1))
    with pytest.raises(TypeError):
        len(e)
    with pytest.raises(TypeError):
        iter(e)
    assert e != SignedExpansion((1, 0, -1), 3)
    assert e != (1, 0, -1)
    assert repr(e) == "SignedExpansion(digits=(1, 0, -1), digit_bound=1)"
    with pytest.raises(AttributeError):
        del e.digits
    assert copy.copy(e) == e == pickle.loads(pickle.dumps(e))


def test_a_naf_whose_digits_were_never_read_equals_its_eager_rebuild():
    m = (1 << 64) + 0x5A5A5A5A5A5A5A5B
    digits = naf(m).digits
    rebuilt = SignedExpansion(digits)
    # each check runs on a fresh naf, so that it is the first read of its digits
    assert naf(m) == rebuilt and rebuilt == naf(m)
    assert hash(naf(m)) == hash(rebuilt)
    assert repr(naf(m)) == repr(rebuilt)
    assert copy.copy(naf(m)) == rebuilt
    assert pickle.loads(pickle.dumps(naf(m))) == rebuilt
    assert pickle.dumps(naf(m)) == pickle.dumps(rebuilt)
    e = naf(m)
    weight = len(digits) - digits.count(0)
    assert (e.length, e.weight, e.has_negative) == (len(digits), weight, -1 in digits)
