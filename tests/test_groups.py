"""Tests for the group interface, the modular oracle and the cost backends."""

import json
import re
from fractions import Fraction

import pytest

from negmul import (
    HYPERELLIPTIC_PROFILE,
    OP_KINDS,
    PICARD_PROFILE,
    CostChargingGroup,
    CostLedger,
    CostProfile,
    CostRatios,
    CostVector,
    ModularGroup,
    NegationAwareGroup,
    ZERO_COST,
    load_profile,
    preset,
    prices_of,
    savings_percent,
    weighted_total,
)

SMALL_PRIMES = (5, 7, 11, 31, 97)


class PlainModular(NegationAwareGroup):
    """Supplies only the required operations; fused forms use the defaults."""

    def __init__(self, n):
        self.n = n

    @property
    def identity(self):
        return 0

    def add(self, a, b):
        return (a + b) % self.n

    def dbl(self, a):
        return (a + a) % self.n

    def neg(self, a):
        return -a % self.n


def test_modular_group_axioms_exhaustive():
    for n in SMALL_PRIMES:
        g = ModularGroup(n)
        for a in range(n):
            assert g.add(a, g.identity) == a
            assert g.add(a, g.neg(a)) == g.identity
            assert g.neg(g.neg(a)) == a
            assert g.dbl(a) == g.add(a, a)
            assert g.neg_dbl(a) == g.neg(g.dbl(a))
            for b in range(n):
                assert g.add(a, b) == g.add(b, a)
                assert g.neg_add(a, b) == g.neg(g.add(a, b))


def test_default_fused_implementations():
    g = PlainModular(13)
    reference = ModularGroup(13)
    for a in range(13):
        assert g.neg_dbl(a) == reference.neg_dbl(a)
        for b in range(13):
            assert g.neg_add(a, b) == reference.neg_add(a, b)
    assert g.cost_of("add") == ZERO_COST


def test_modular_group_validation_and_metadata():
    with pytest.raises(ValueError, match="positive integer"):
        ModularGroup(0)
    with pytest.raises(ValueError, match="positive integer"):
        ModularGroup("7")
    g = ModularGroup(7)
    assert g.n == 7
    assert repr(g) == "ModularGroup(7)"


def test_cost_charging_group_is_transparent():
    inner = ModularGroup(97)
    charged = CostChargingGroup(inner, PICARD_PROFILE)
    assert charged.identity == inner.identity
    for a in range(97):
        assert charged.dbl(a) == inner.dbl(a)
        assert charged.neg(a) == inner.neg(a)
        assert charged.neg_dbl(a) == inner.neg_dbl(a)
        for b in range(97):
            assert charged.add(a, b) == inner.add(a, b)
            assert charged.neg_add(a, b) == inner.neg_add(a, b)


def test_cost_charging_group_binds_the_inner_ops():
    inner = ModularGroup(97)
    charged = CostChargingGroup(inner, PICARD_PROFILE)
    assert charged.identity == inner.identity
    # the class-level methods forward to the inner group
    assert CostChargingGroup.dbl(charged, 5) == inner.dbl(5)


@pytest.mark.parametrize(
    "inner, profile, name",
    [
        (ModularGroup(7), "picard", "profile"),
        (ModularGroup(7), None, "profile"),
        (7, None, "inner"),
        (7, PICARD_PROFILE, "inner"),
        (PICARD_PROFILE, ModularGroup(7), "inner"),
    ],
    ids=["profile-name", "no-profile", "neither", "int-inner", "swapped"],
)
def test_cost_charging_group_rejects_what_is_not_a_group_and_a_profile(inner, profile, name):
    with pytest.raises(ValueError, match=f"^{name} must be a "):
        CostChargingGroup(inner, profile)


def test_charging_examples():
    g = CostChargingGroup(ModularGroup(7), PICARD_PROFILE)
    prices = prices_of(g)
    assert prices == {kind: PICARD_PROFILE.cost_of(kind) for kind in OP_KINDS}
    ledger = CostLedger()
    ledger.charge("neg_dbl")
    assert ledger.vector("neg_dbl", prices) == CostVector(147, 13, 2, 0)
    ledger = CostLedger()
    ledger.charge("add")
    ledger.charge("add")
    assert ledger.vector("add", prices) == CostVector(288, 24, 4, 0)
    assert prices_of(ModularGroup(7)) == dict.fromkeys(OP_KINDS, ZERO_COST)

    silent = CostProfile("silent", ZERO_COST, ZERO_COST, ZERO_COST, ZERO_COST, ZERO_COST)
    g0 = CostChargingGroup(ModularGroup(7), silent)
    ledger = CostLedger()
    for kind in OP_KINDS:
        ledger.charge(kind)
    assert ledger.total(prices_of(g0)) == ZERO_COST


def test_picard_preset_vectors():
    profile = preset("picard")
    assert profile is PICARD_PROFILE
    assert profile.add_cost == CostVector(144, 12, 2, 0)
    assert profile.dbl_cost == CostVector(158, 16, 2, 0)
    assert profile.neg_add_cost == CostVector(133, 9, 2, 0)
    assert profile.neg_dbl_cost == CostVector(147, 13, 2, 0)
    assert profile.neg_cost == CostVector(11, 3, 0, 0)
    # the modeled standalone negation is exactly the fused saving
    assert profile.add_cost == profile.neg_add_cost + profile.neg_cost
    assert profile.dbl_cost == profile.neg_dbl_cost + profile.neg_cost


def test_hyperelliptic_preset_vectors():
    profile = preset("hyperelliptic")
    assert profile is HYPERELLIPTIC_PROFILE
    assert profile.neg_cost == ZERO_COST
    assert profile.neg_add_cost == profile.add_cost
    assert profile.neg_dbl_cost == profile.dbl_cost


def test_unknown_preset():
    with pytest.raises(ValueError, match="unknown preset"):
        preset("edwards")


def test_picard_per_step_savings_exact():
    add_saving = savings_percent(
        weighted_total(PICARD_PROFILE.add_cost), weighted_total(PICARD_PROFILE.neg_add_cost)
    )
    dbl_saving = savings_percent(
        weighted_total(PICARD_PROFILE.dbl_cost), weighted_total(PICARD_PROFILE.neg_dbl_cost)
    )
    assert add_saving == Fraction(1300, 172)
    assert dbl_saving == Fraction(3900, 566)


def test_profile_cost_of_rejects_unknown_kind():
    with pytest.raises(ValueError, match="unknown operation kind"):
        PICARD_PROFILE.cost_of("triple")


def test_profile_warns_when_fused_is_dearer():
    with pytest.warns(UserWarning, match="dearer") as record:
        CostProfile(
            "odd",
            add_cost=CostVector(10),
            dbl_cost=CostVector(10),
            neg_cost=ZERO_COST,
            neg_add_cost=CostVector(11),
            neg_dbl_cost=CostVector(10),
        )
    # the warning names the line that built the profile, not the library
    assert [w.filename for w in record] == [__file__]


def test_profile_does_not_warn_when_fused_is_cheaper_at_some_ratios(recwarn):
    # 5M + 9S is dearer than 10M at the default 2/3 but cheaper at 1/10
    CostProfile(
        "cheap-squarings",
        add_cost=CostVector(10),
        dbl_cost=CostVector(10),
        neg_cost=ZERO_COST,
        neg_add_cost=CostVector(mul=5, sqr=9),
        neg_dbl_cost=CostVector(10),
    )
    assert not [w for w in recwarn if "dearer" in str(w.message)]


def test_profile_checks_its_fields():
    # refused by field before the dearer-than-unfused check reads the costs
    for args, field, bad in (((1, 2, 3, 4, 5), "add_cost", 1), ((1, 2, 3, 5, 5), "add_cost", 1)):
        with pytest.raises(ValueError, match=f"^{field} must be a CostVector, got {bad!r}$"):
            CostProfile("x", *args)
    costs = dict.fromkeys(CostProfile._fields[1:], ZERO_COST)
    for bad in (1, None, (144, 12, 2, 0)):
        message = f"^{{}} must be a CostVector, got {re.escape(repr(bad))}$"
        for field in costs:
            with pytest.raises(ValueError, match=message.format(field)):
                CostProfile("x", **{**costs, field: bad})
            # _replace builds through the same checks
            with pytest.raises(ValueError, match=message.format(field)):
                PICARD_PROFILE._replace(**{field: bad})
    for bad in (1, None, b"picard", ("picard",)):
        message = f"^name must be a str, got {re.escape(repr(bad))}$"
        with pytest.raises(ValueError, match=message):
            CostProfile(bad, **costs)
        with pytest.raises(ValueError, match=message):
            PICARD_PROFILE._replace(name=bad)


VALID_PROFILE = {
    "add": {"M": 144, "S": 12, "I": 2},
    "dbl": {"M": 158, "S": 16, "I": 2},
    "neg": {"M": 11, "S": 3},
    "neg_add": {"M": 133, "S": 9, "I": 2},
    "neg_dbl": {"M": 147, "S": 13, "I": 2},
}


def _write(tmp_path, data, name="genus3.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return path


def test_load_profile_valid(tmp_path):
    data = dict(VALID_PROFILE)
    data["ratios"] = {"sqr_per_mul": "2/3", "inv_per_mul": "8"}
    profile, ratios = load_profile(_write(tmp_path, data))
    assert profile.name == "genus3"
    assert profile.add_cost == CostVector(144, 12, 2, 0)
    assert profile.neg_cost == CostVector(11, 3, 0, 0)
    assert ratios == CostRatios(Fraction(2, 3), Fraction(8), Fraction(0))


def test_load_profile_without_ratios(tmp_path):
    profile, ratios = load_profile(_write(tmp_path, VALID_PROFILE))
    assert ratios is None
    assert profile.neg_dbl_cost == CostVector(147, 13, 2, 0)


def test_load_profile_rejects_bad_input(tmp_path):
    with pytest.raises(ValueError, match="missing keys"):
        load_profile(_write(tmp_path, {k: v for k, v in VALID_PROFILE.items() if k != "neg"}))
    data = dict(VALID_PROFILE, extra={"M": 1})
    with pytest.raises(ValueError, match="unknown keys"):
        load_profile(_write(tmp_path, data))
    data = dict(VALID_PROFILE, add={"M": 1, "X": 2})
    with pytest.raises(ValueError, match="unknown components"):
        load_profile(_write(tmp_path, data))
    data = dict(VALID_PROFILE, add={"M": -1})
    with pytest.raises(ValueError, match="nonnegative integer"):
        load_profile(_write(tmp_path, data))
    data = dict(VALID_PROFILE, ratios={"inv_per_mul": 10})
    with pytest.raises(ValueError, match="fraction string"):
        load_profile(_write(tmp_path, data))
    data = dict(VALID_PROFILE, ratios={"inv_per_mul": "ten"})
    with pytest.raises(ValueError, match="inv_per_mul"):
        load_profile(_write(tmp_path, data))
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ValueError, match="not valid JSON"):
        load_profile(bad)
    array = tmp_path / "arr.json"
    array.write_text("[1, 2]")
    with pytest.raises(ValueError, match="top level"):
        load_profile(array)


def test_load_profile_errors_name_the_file_and_field(tmp_path):
    cases = (
        (dict(VALID_PROFILE, dbl={"S": -1}), "dbl: sqr count must be a nonnegative integer, got -1"),
        (
            dict(VALID_PROFILE, ratios={"sqr_per_mul": "1/0"}),
            "ratios: sqr_per_mul must be an exact ratio, got '1/0'",
        ),
        (
            dict(VALID_PROFILE, ratios={"inv_per_mul": "-1"}),
            "ratios: inv_per_mul must be nonnegative, got -1",
        ),
    )
    for data, message in cases:
        path = _write(tmp_path, data)
        with pytest.raises(ValueError) as exc:
            load_profile(path)
        assert str(exc.value) == f"{path}: {message}"
