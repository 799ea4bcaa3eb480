"""Tests for cost vectors, ratios, weighted totals and ledgers."""

import random
import re
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from negmul import (
    DEFAULT_RATIOS,
    OP_KINDS,
    PICARD_PROFILE,
    ZERO_COST,
    CostLedger,
    CostRatios,
    CostVector,
    savings_percent,
    weighted_total,
)
from negmul.bench import StepCosts


def test_weighted_total_examples():
    assert weighted_total(CostVector(144, 12, 2, 0)) == 172
    assert weighted_total(CostVector(133, 9, 2, 0)) == 159
    assert weighted_total(CostVector(158, 16, 2, 0)) == Fraction(566, 3)
    assert weighted_total(CostVector(147, 13, 2, 0)) == Fraction(527, 3)
    assert weighted_total(ZERO_COST) == 0
    assert weighted_total(ZERO_COST, CostRatios(1, 1, 1)) == 0


def test_weighted_total_custom_ratios():
    ratios = CostRatios(sqr_per_mul=1, inv_per_mul=Fraction(5, 2), addf_per_mul=Fraction(1, 10))
    assert weighted_total(CostVector(2, 3, 4, 10), ratios) == 2 + 3 + 10 + 1


def test_savings_percent_examples():
    assert savings_percent(172, 159) == Fraction(1300, 172)
    assert savings_percent(Fraction(566, 3), Fraction(527, 3)) == Fraction(3900, 566)
    assert savings_percent(100, 100) == 0


@pytest.mark.parametrize(
    "ratios", [(1, 2, 3), "2/3", None, {"sqr_per_mul": 1}], ids=["tuple", "str", "None", "dict"]
)
def test_weighted_total_refuses_arguments_of_the_wrong_type(ratios):
    # a plain tuple is not read as (sqr, inv, addf), nor as a cost vector
    with pytest.raises(ValueError, match=f"^ratios must be a CostRatios, got {re.escape(repr(ratios))}$"):
        weighted_total(CostVector(1), ratios)
    with pytest.raises(ValueError, match=f"^cost must be a CostVector, got {re.escape(repr(ratios))}$"):
        weighted_total(ratios, DEFAULT_RATIOS)


@pytest.mark.parametrize(
    "bad", [2.5, True, False, "3", None, Decimal(3)], ids=["float", "True", "False", "str", "None", "Decimal"]
)
def test_savings_percent_refuses_what_is_not_an_int_or_a_fraction(bad):
    message = f"must be an int or a Fraction, got {re.escape(repr(bad))}$"
    with pytest.raises(ValueError, match=f"^base cost {message}"):
        savings_percent(bad, 1)
    with pytest.raises(ValueError, match=f"^improved cost {message}"):
        savings_percent(3, bad)


def test_savings_percent_requires_positive_base():
    with pytest.raises(ValueError, match="positive"):
        savings_percent(0, 1)
    with pytest.raises(ValueError, match="positive"):
        savings_percent(-3, 1)


big_counts_st = st.integers(0, 1 << 64)
# fraction strings, 0 among them, with denominators up to 2^64
fraction_texts_st = st.one_of(
    st.just("0"), st.fractions(min_value=0, max_value=1 << 32, max_denominator=1 << 64).map(str)
)
positive_st = st.one_of(
    st.integers(1, 1 << 64), st.fractions(min_value=0, max_denominator=1 << 64).filter(bool)
)


@settings(max_examples=300)
@given(
    cost=st.builds(CostVector, big_counts_st, big_counts_st, big_counts_st, big_counts_st),
    ratios=st.builds(CostRatios, fraction_texts_st, fraction_texts_st, fraction_texts_st),
)
def test_weighted_total_equals_its_term_by_term_sum(cost, ratios):
    total = weighted_total(cost, ratios)
    assert type(total) is Fraction
    assert total == (
        Fraction(cost.mul)
        + cost.sqr * ratios.sqr_per_mul
        + cost.inv * ratios.inv_per_mul
        + cost.add_f * ratios.addf_per_mul
    )


@settings(max_examples=300)
@given(base=positive_st, improved=st.one_of(big_counts_st, st.fractions(max_denominator=1 << 64)))
def test_savings_percent_equals_the_fraction_formula(base, improved):
    saving = savings_percent(base, improved)
    assert type(saving) is Fraction
    assert saving == (Fraction(base) - Fraction(improved)) / Fraction(base) * 100


@settings(max_examples=100)
@given(base=st.one_of(st.integers(max_value=0), st.fractions(max_value=0, max_denominator=1 << 64)))
def test_savings_percent_refuses_a_base_that_is_not_positive(base):
    with pytest.raises(ValueError, match=f"^base cost must be positive, got {Fraction(base)}$"):
        savings_percent(base, 1)


def test_ratios_validation():
    with pytest.raises(ValueError, match="nonnegative"):
        CostRatios(inv_per_mul=-1)
    ratios = CostRatios("2/3", "10", 0)
    assert ratios == DEFAULT_RATIOS


def test_ratios_are_exact():
    cases = (
        ({"sqr_per_mul": 0.1}, "sqr_per_mul must be an exact ratio, got 0.1"),
        ({"inv_per_mul": 10.0}, "inv_per_mul must be an exact ratio, got 10.0"),
        ({"addf_per_mul": False}, "addf_per_mul must be an exact ratio, got False"),
        ({"sqr_per_mul": "1/0"}, "sqr_per_mul must be an exact ratio, got '1/0'"),
        ({"inv_per_mul": "abc"}, "inv_per_mul must be an exact ratio, got 'abc'"),
        ({"addf_per_mul": ""}, "addf_per_mul must be an exact ratio, got ''"),
        ({"inv_per_mul": None}, "inv_per_mul must be an exact ratio, got None"),
    )
    for kwargs, message in cases:
        with pytest.raises(ValueError) as exc:
            CostRatios(**kwargs)
        assert str(exc.value) == message
    with pytest.raises(ValueError) as exc:
        CostRatios(True, False, True)
    assert str(exc.value) == "sqr_per_mul must be an exact ratio, got True"
    ratios = CostRatios(1, Fraction(5, 2), "1/10")
    assert tuple(ratios) == (1, Fraction(5, 2), Fraction(1, 10))
    assert all(type(ratio) is Fraction for ratio in ratios)


def test_replace_checks_like_the_constructor():
    with pytest.raises(ValueError, match="^mul count must be a nonnegative integer, got -1$"):
        ZERO_COST._replace(mul=-1)
    with pytest.raises(ValueError, match="^sqr_per_mul must be an exact ratio, got 0.5$"):
        DEFAULT_RATIOS._replace(sqr_per_mul=0.5)
    half = DEFAULT_RATIOS._replace(sqr_per_mul="1/2")
    assert half.sqr_per_mul == Fraction(1, 2) and type(half.sqr_per_mul) is Fraction
    assert CostVector._make((1, 2, 3, 4)) == CostVector(1, 2, 3, 4)
    dearer = PICARD_PROFILE.add_cost + PICARD_PROFILE.neg_cost + CostVector(mul=1)
    with pytest.warns(UserWarning, match="^cost profile 'picard': neg_add is dearer"):
        PICARD_PROFILE._replace(neg_add_cost=dearer)
    steps = StepCosts(Fraction(172), Fraction(159), Fraction(325, 43))
    assert StepCosts._make(tuple(steps)) == steps
    cheaper = steps._replace(fused=Fraction(150))
    assert type(cheaper) is StepCosts
    assert cheaper == StepCosts(Fraction(172), Fraction(150), steps.savings)


def test_vector_validation_and_arithmetic():
    with pytest.raises(ValueError, match="nonnegative"):
        CostVector(mul=-1)
    with pytest.raises(ValueError, match="nonnegative"):
        CostVector(sqr=1.5)
    a = CostVector(1, 2, 3, 4)
    b = CostVector(10, 20, 30, 40)
    assert a + b == CostVector(11, 22, 33, 44)
    assert a.scaled(3) == CostVector(3, 6, 9, 12)
    with pytest.raises(ValueError, match="nonnegative"):
        a.scaled(-1)
    for factor in (-1, True, False, 1.0, Fraction(2), "3"):
        with pytest.raises(ValueError) as exc:
            a.scaled(factor)
        assert str(exc.value) == f"scale factor must be a nonnegative integer, got {factor!r}"
    assert a.scaled(0) == ZERO_COST


@pytest.mark.parametrize(
    "op",
    [
        lambda: ZERO_COST * 2,
        lambda: 2 * ZERO_COST,
        lambda: CostVector(1) * CostVector(2),
        lambda: CostVector(1) < CostVector(2),
        lambda: CostVector(1) <= CostVector(2),
        lambda: CostVector(2) > CostVector(1),
        lambda: CostVector(2) >= CostVector(1),
        lambda: CostVector(1) < (2, 0, 0, 0),
        lambda: (2, 0, 0, 0) > CostVector(1),
        lambda: (1,) + ZERO_COST,
    ],
    ids=["mul", "rmul", "mul-vectors", "lt", "le", "gt", "ge", "lt-tuple", "tuple-gt", "tuple-add"],
)
def test_vector_has_no_tuple_repetition_or_ordering(op):
    with pytest.raises(TypeError, match="supports \\+ with another CostVector and scaled"):
        op()


def test_vector_keeps_sum_and_scaling():
    a = CostVector(1, 2, 3, 4)
    assert a + ZERO_COST == a
    assert ZERO_COST + a == a
    assert a.scaled(2) == a + a == CostVector(2, 4, 6, 8)


def test_ratios_equal_only_ratios():
    ratios = CostRatios(0, 0, 0)
    steps = StepCosts(Fraction(0), Fraction(0), Fraction(0))
    assert tuple(ratios) == tuple(steps)
    assert not ratios == steps and not steps == ratios
    assert ratios != steps and steps != ratios
    assert ratios == CostRatios("0", 0, Fraction(0)) and not ratios != CostRatios(0, 0, 0)
    assert ratios != CostRatios(1, 0, 0)
    # the hash is still the tuple's, so equal ratios still collapse in a set
    assert hash(ratios) == hash(tuple(ratios))
    assert len({ratios, CostRatios(0, 0, 0), steps}) == 2


@pytest.mark.parametrize(
    "record",
    [
        CostVector(1, 2, 3, 4),
        CostRatios(0, 0, 0),
        PICARD_PROFILE,
        StepCosts(Fraction(172), Fraction(159), Fraction(325, 43)),
    ],
    ids=lambda record: type(record).__name__,
)
def test_records_never_equal_plain_tuples(record):
    items = tuple(record)
    # a tuple subclass's reflected == and != run first, so both orders refuse
    assert record != items and items != record
    assert not record == items and not items == record
    assert record == type(record)._make(items) and not record != type(record)._make(items)
    assert hash(record) == hash(items)


def test_weighted_total_is_linear():
    rng = random.Random(5)
    for _ in range(200):
        c1 = CostVector(*(rng.randrange(50) for _ in range(4)))
        c2 = CostVector(*(rng.randrange(50) for _ in range(4)))
        ratios = CostRatios(
            Fraction(rng.randrange(10), rng.randrange(1, 10)),
            Fraction(rng.randrange(10), rng.randrange(1, 10)),
            Fraction(rng.randrange(10), rng.randrange(1, 10)),
        )
        assert weighted_total(c1 + c2, ratios) == weighted_total(c1, ratios) + weighted_total(
            c2, ratios
        )


PICARD_PRICES = {
    "add": CostVector(144, 12, 2),
    "dbl": CostVector(158, 16, 2),
    "neg": CostVector(11, 3),
    "neg_add": CostVector(133, 9, 2),
    "neg_dbl": CostVector(147, 13, 2),
}


def random_prices(rng):
    return {kind: CostVector(*(rng.randrange(20) for _ in range(4))) for kind in OP_KINDS}


def test_ledger_charging():
    ledger = CostLedger()
    ledger.charge("dbl")
    ledger.charge("dbl")
    ledger.charge("neg", 0)
    ledger.charge("add", 3)
    assert ledger.count("dbl") == 2
    assert ledger.count("neg") == 0
    assert ledger.count("add") == 3
    assert ledger.count("neg_add") == 0
    assert ledger.vector("dbl", PICARD_PRICES) == CostVector(316, 32, 4)
    assert ledger.vector("add", PICARD_PRICES) == CostVector(432, 36, 6)
    assert ledger.vector("neg", PICARD_PRICES) == ZERO_COST
    assert ledger.total(PICARD_PRICES) == CostVector(748, 68, 10)
    assert weighted_total(ledger.total(PICARD_PRICES)) == 2 * Fraction(566, 3) + 3 * 172


def test_ledger_without_prices_counts_at_zero_cost():
    zero_prices = dict.fromkeys(OP_KINDS, ZERO_COST)
    ledger = CostLedger()
    for kind in OP_KINDS:
        ledger.charge(kind, 5)
        assert ledger.vector(kind, zero_prices) == ZERO_COST
    assert ledger.total(zero_prices) == ZERO_COST
    assert weighted_total(ledger.total(zero_prices)) == 0
    assert sum(ledger.counts().values()) == 25


def test_ledger_total_equals_sum_over_kinds():
    rng = random.Random(6)
    prices = random_prices(rng)
    ledger = CostLedger()
    charged = dict.fromkeys(OP_KINDS, 0)
    for _ in range(100):
        kind, times = rng.choice(OP_KINDS), rng.randrange(4)
        ledger.charge(kind, times)
        charged[kind] += times
    summed = ZERO_COST
    for kind in OP_KINDS:
        assert ledger.vector(kind, prices) == prices[kind].scaled(charged[kind])
        summed = summed + ledger.vector(kind, prices)
    assert ledger.total(prices) == summed
    assert ledger.counts() == charged


counts_st = st.integers(0, 1 << 70)
vectors_st = st.builds(CostVector, counts_st, counts_st, counts_st, counts_st)


@settings(max_examples=200)
@given(
    counts=st.fixed_dictionaries({kind: counts_st for kind in OP_KINDS}),
    prices=st.fixed_dictionaries({kind: vectors_st for kind in OP_KINDS}),
)
def test_ledger_total_is_the_sum_of_its_priced_kinds(counts, prices):
    ledger = CostLedger()
    for kind, count in counts.items():
        ledger.charge(kind, count)
    # componentwise in plain ints, not through scaled and +
    expected = CostVector(*(sum(counts[kind] * prices[kind][i] for kind in OP_KINDS) for i in range(4)))
    assert ledger.total(prices) == expected


def test_ledger_rejects_unknown_kind():
    ledger = CostLedger()
    with pytest.raises(ValueError, match="unknown operation kind"):
        ledger.charge("triple")
    with pytest.raises(ValueError, match="unknown operation kind"):
        ledger.count("triple")
    with pytest.raises(ValueError, match="unknown operation kind"):
        ledger.vector("triple", PICARD_PRICES)


def test_ledger_rejects_bad_times():
    ledger = CostLedger()
    for bad in (-1, 1.0, 2.5, "3", True, None):
        with pytest.raises(ValueError, match="times must be a nonnegative integer"):
            ledger.charge("add", bad)
    assert ledger.counts() == dict.fromkeys(OP_KINDS, 0)


def test_ledger_merge_is_order_independent():
    prices = random_prices(random.Random(0))

    def make(seed):
        rng = random.Random(seed)
        ledger = CostLedger()
        for _ in range(30):
            ledger.charge(rng.choice(OP_KINDS), rng.randrange(9))
        return ledger

    def merged(*ledgers):
        out = CostLedger()
        for ledger in ledgers:
            out.merge(ledger)
        return out

    a, b, c = make(1), make(2), make(3)
    left = merged(merged(a, b), c)
    right = merged(a, merged(c, b))
    assert left == right
    assert left.total(prices) == a.total(prices) + b.total(prices) + c.total(prices)


def test_ledger_copy_is_independent():
    ledger = CostLedger()
    ledger.charge("add")
    dup = ledger.copy()
    ledger.charge("add")
    assert dup.count("add") == 1
    assert ledger.count("add") == 2
    assert dup.vector("add", PICARD_PRICES) == CostVector(144, 12, 2)
    assert ledger.vector("add", PICARD_PRICES) == CostVector(288, 24, 4)
