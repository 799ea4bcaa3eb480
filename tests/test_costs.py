"""Tests for cost vectors, ratios, weighted totals and ledgers."""

import random
from fractions import Fraction

import pytest

from negmul import (
    DEFAULT_RATIOS,
    OP_KINDS,
    ZERO_COST,
    CostLedger,
    CostRatios,
    CostVector,
    savings_percent,
    weighted_total,
)


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


def test_savings_percent_requires_positive_base():
    with pytest.raises(ValueError, match="positive"):
        savings_percent(0, 1)
    with pytest.raises(ValueError, match="positive"):
        savings_percent(-3, 1)


def test_ratios_validation():
    with pytest.raises(ValueError, match="nonnegative"):
        CostRatios(inv_per_mul=-1)
    ratios = CostRatios("2/3", "10", 0)
    assert ratios == DEFAULT_RATIOS


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
    ledger = CostLedger(PICARD_PRICES)
    ledger.charge("dbl")
    ledger.charge("dbl")
    ledger.charge("neg", 0)
    ledger.charge("add", 3)
    assert ledger.count("dbl") == 2
    assert ledger.count("neg") == 0
    assert ledger.count("add") == 3
    assert ledger.count("neg_add") == 0
    assert ledger.vector("dbl") == CostVector(316, 32, 4)
    assert ledger.vector("add") == CostVector(432, 36, 6)
    assert ledger.vector("neg") == ZERO_COST
    assert ledger.total() == CostVector(748, 68, 10)
    assert ledger.total_weighted() == 2 * Fraction(566, 3) + 3 * 172


def test_ledger_without_prices_counts_at_zero_cost():
    ledger = CostLedger()
    for kind in OP_KINDS:
        ledger.charge(kind, 5)
        assert ledger.vector(kind) == ZERO_COST
    assert ledger.total() == ZERO_COST
    assert ledger.total_weighted() == 0
    assert sum(ledger.counts().values()) == 25


def test_ledger_total_equals_sum_over_kinds():
    rng = random.Random(6)
    prices = random_prices(rng)
    ledger = CostLedger(prices)
    charged = dict.fromkeys(OP_KINDS, 0)
    for _ in range(100):
        kind, times = rng.choice(OP_KINDS), rng.randrange(4)
        ledger.charge(kind, times)
        charged[kind] += times
    summed = ZERO_COST
    for kind in OP_KINDS:
        assert ledger.vector(kind) == prices[kind].scaled(charged[kind])
        summed = summed + ledger.vector(kind)
    assert ledger.total() == summed
    assert ledger.counts() == charged


def test_ledger_rejects_unknown_kind():
    ledger = CostLedger()
    with pytest.raises(ValueError, match="unknown operation kind"):
        ledger.charge("triple")
    with pytest.raises(ValueError, match="unknown operation kind"):
        ledger.count("triple")
    with pytest.raises(ValueError, match="unknown operation kind"):
        ledger.vector("triple")


def test_ledger_rejects_bad_times():
    ledger = CostLedger()
    for bad in (-1, 1.0, 2.5, "3", True, None):
        with pytest.raises(ValueError, match="times must be a nonnegative integer"):
            ledger.charge("add", bad)
    assert ledger.counts() == dict.fromkeys(OP_KINDS, 0)


def test_ledger_requires_a_price_for_every_kind():
    with pytest.raises(ValueError, match="no price for operation kind 'dbl'"):
        CostLedger({"add": CostVector(1)})


def test_ledger_merge_is_order_independent():
    prices = random_prices(random.Random(0))

    def make(seed):
        rng = random.Random(seed)
        ledger = CostLedger(prices)
        for _ in range(30):
            ledger.charge(rng.choice(OP_KINDS), rng.randrange(9))
        return ledger

    def merged(*ledgers):
        out = CostLedger(prices)
        for ledger in ledgers:
            out.merge(ledger)
        return out

    a, b, c = make(1), make(2), make(3)
    left = merged(merged(a, b), c)
    right = merged(a, merged(c, b))
    assert left == right
    assert left.total() == a.total() + b.total() + c.total()


def test_ledger_merge_rejects_different_prices():
    a = CostLedger(PICARD_PRICES)
    b = CostLedger(dict(PICARD_PRICES, neg=ZERO_COST))
    b.charge("add")
    for target, other in ((a, b), (b, a), (a, CostLedger())):
        with pytest.raises(ValueError, match="different prices"):
            target.merge(other)
    assert a.counts() == dict.fromkeys(OP_KINDS, 0)
    assert b.count("add") == 1


def test_ledger_copy_is_independent():
    ledger = CostLedger(PICARD_PRICES)
    ledger.charge("add")
    dup = ledger.copy()
    ledger.charge("add")
    assert dup.count("add") == 1
    assert ledger.count("add") == 2
    assert dup.vector("add") == CostVector(144, 12, 2)
    assert ledger.vector("add") == CostVector(288, 24, 4)
