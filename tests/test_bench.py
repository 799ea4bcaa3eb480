"""Tests for the deterministic cost-benchmark harness."""

import hashlib
import json
import re
from fractions import Fraction
from pathlib import Path

import pytest

from negmul import (
    ALGORITHMS,
    DEFAULT_RATIOS,
    HYPERELLIPTIC_PROFILE,
    OP_KINDS,
    PICARD_PROFILE,
    CostChargingGroup,
    CostLedger,
    CostProfile,
    CostRatios,
    CostVector,
    ModularGroup,
    ZERO_COST,
    algorithms_for_form,
    prices_of,
    run_bench,
    sample_scalars,
    savings_percent,
    weighted_total,
)
from negmul.bench import StepCosts, _decimal
from negmul.recoding import recode

from oracles import FreeGroup, Opaque


def test_sample_scalars_properties():
    scalars = sample_scalars(96, 40, seed=7)
    assert len(scalars) == 40
    assert all(m.bit_length() == 96 for m in scalars)
    assert scalars == sample_scalars(96, 40, seed=7)
    assert scalars != sample_scalars(96, 40, seed=8)


def test_sample_scalars_validation():
    with pytest.raises(ValueError, match="bits"):
        sample_scalars(7, 1, 0)
    with pytest.raises(ValueError, match="bits"):
        sample_scalars(4097, 1, 0)
    with pytest.raises(ValueError, match="count"):
        sample_scalars(64, 0, 0)
    for bits in (8.0, 160.5, "160", None, True):
        message = f"^bits must be an integer, got {bits!r}$"
        with pytest.raises(ValueError, match=message):
            sample_scalars(bits, 2, 0)
        with pytest.raises(ValueError, match=message):
            run_bench(PICARD_PROFILE, bits=bits, samples=2)


def test_sample_scalars_take_only_seeds_that_reproduce_the_sample():
    # random.Random would take None as "unseeded" and -1 or True as the seed 1
    for seed in (None, -1, True, False, "x", 1.5):
        with pytest.raises(ValueError, match=f"^seed must be a nonnegative integer, got {seed!r}$"):
            sample_scalars(64, 1, seed)
        with pytest.raises(ValueError, match="seed"):
            run_bench(PICARD_PROFILE, bits=16, samples=1, seed=seed)
    for count in (True, 1.5, "3"):
        with pytest.raises(ValueError, match="count"):
            sample_scalars(64, count, 0)


def test_algorithms_for_form():
    assert algorithms_for_form("naf") == ("baseline", "neg", "online", "neg-dbl-only", "neg-add-only")
    assert algorithms_for_form("binary") == algorithms_for_form("naf")
    assert algorithms_for_form("wnaf") == ("baseline", "window")


def test_run_bench_rejects_unknown_form():
    with pytest.raises(ValueError, match="recoding form"):
        run_bench(PICARD_PROFILE, bits=32, samples=2, form="base3")


def test_run_bench_rejects_ratios_that_are_not_cost_ratios():
    for bad in ((1, 2, 3), None, {"sqr_per_mul": 1}):
        with pytest.raises(ValueError, match=f"^ratios must be a CostRatios, got {re.escape(repr(bad))}$"):
            run_bench(PICARD_PROFILE, bits=16, samples=2, ratios=bad)


def test_run_bench_rejects_profiles_that_are_not_cost_profiles():
    for bad in ("picard", None, tuple(PICARD_PROFILE)):
        with pytest.raises(ValueError, match=f"^profile must be a CostProfile, got {re.escape(repr(bad))}$"):
            run_bench(bad, bits=8, samples=2)


def test_picard_bench_sanity():
    report = run_bench(PICARD_PROFILE, bits=64, samples=50, form="naf", seed=3)
    ids = [entry.algo_id for entry in report.algorithms]
    assert ids == list(algorithms_for_form("naf"))
    by_id = {entry.algo_id: entry for entry in report.algorithms}
    assert by_id["baseline"].savings_vs_baseline == 0
    assert Fraction(5) < by_id["neg"].savings_vs_baseline < Fraction(9)
    # replacing only one operation saves strictly less than replacing both
    assert by_id["neg-dbl-only"].savings_vs_baseline < by_id["neg"].savings_vs_baseline
    assert by_id["neg-add-only"].savings_vs_baseline < by_id["neg-dbl-only"].savings_vs_baseline
    assert report.per_step["add"].savings == Fraction(1300, 172)
    assert report.per_step["dbl"].savings == Fraction(3900, 566)


def test_hyperelliptic_bench_savings_are_exactly_zero():
    for form in ("naf", "wnaf"):
        report = run_bench(HYPERELLIPTIC_PROFILE, bits=32, samples=10, form=form, seed=5)
        for entry in report.algorithms:
            assert entry.savings_vs_baseline == 0
        assert report.per_step["add"].savings == 0
        assert report.per_step["dbl"].savings == 0


def test_a_free_plain_step_has_no_per_step_saving():
    # plain steps cost nothing and each fused one costs 1M: no saving to state
    with pytest.warns(UserWarning, match="dearer"):
        free = CostProfile("free-plain", *[ZERO_COST] * 3, CostVector(1), CostVector(1))
    report = run_bench(free, bits=16, samples=4, seed=1)
    for name in ("add", "dbl"):
        assert report.per_step[name] == StepCosts(Fraction(0), Fraction(1), None)
        assert report.to_dict()["per_step"][name]["savings_percent"] is None
    # the baseline is free too, so no whole-multiplication saving either
    assert [entry.savings_vs_baseline for entry in report.algorithms] == [None] * 5
    table = report.render_table().splitlines()
    assert table[6:8] == [
        "  add             0      1.000         -",
        "  dbl             0      1.000         -",
    ]
    assert "0%" not in report.render_table()


def test_wnaf_bench_runs_windowed_driver():
    report = run_bench(PICARD_PROFILE, bits=64, samples=10, form="wnaf", width=4, seed=2)
    by_id = {entry.algo_id: entry for entry in report.algorithms}
    assert set(by_id) == {"baseline", "window"}
    assert report.width == 4
    assert Fraction(4) < by_id["window"].savings_vs_baseline < Fraction(9)


def test_report_json_is_deterministic_and_round_trips():
    kwargs = dict(bits=48, samples=8, form="naf", seed=11)
    text1 = run_bench(PICARD_PROFILE, **kwargs).to_json()
    text2 = run_bench(PICARD_PROFILE, **kwargs).to_json()
    assert text1 == text2
    reparsed = json.dumps(json.loads(text1), sort_keys=True, indent=2)
    assert reparsed == text1


def test_report_is_self_consistent():
    report = run_bench(PICARD_PROFILE, bits=48, samples=12, form="naf", seed=4)
    data = json.loads(report.to_json())
    ratios = CostRatios(
        Fraction(data["ratios"]["sqr_per_mul"]),
        Fraction(data["ratios"]["inv_per_mul"]),
        Fraction(data["ratios"]["addf_per_mul"]),
    )
    assert ratios == DEFAULT_RATIOS

    def weight(ops):
        total = Fraction(0)
        for tally in ops.values():
            total += (
                Fraction(tally["mul"])
                + tally["sqr"] * ratios.sqr_per_mul
                + tally["inv"] * ratios.inv_per_mul
                + tally["add_f"] * ratios.addf_per_mul
            )
        return total

    base_total = None
    for entry in data["algorithms"]:
        total = Fraction(entry["total_weighted"])
        assert total == weight(entry["ops"])
        assert Fraction(entry["mean_weighted"]) == total / data["sample"]["count"]
        if entry["id"] == "baseline":
            base_total = total
    for entry in data["algorithms"]:
        recomputed = savings_percent(base_total, Fraction(entry["total_weighted"]))
        assert Fraction(entry["savings_vs_baseline_percent"]) == recomputed
    for step in data["per_step"].values():
        assert Fraction(step["savings_percent"]) == savings_percent(
            Fraction(step["plain"]), Fraction(step["fused"])
        )


@pytest.mark.parametrize("profile", [PICARD_PROFILE, HYPERELLIPTIC_PROFILE], ids=lambda p: p.name)
def test_totals_priced_by_shape_class_equal_the_merged_run_ledgers(profile):
    group = CostChargingGroup(FreeGroup(), profile)
    prices = prices_of(group)
    D = Opaque(1)
    runs = [("binary", 4), ("naf", 4)] + [("wnaf", w) for w in range(2, 7)]
    for seed in (0, 1, 2, 3):
        for form, width in runs:
            report = run_bench(profile, bits=24, samples=60, form=form, width=width, seed=seed)
            for entry in report.algorithms:
                merged = CostLedger()
                for m in sample_scalars(24, 60, seed):
                    e = recode(m, form, width)
                    merged.merge(ALGORITHMS[entry.algo_id].run(e, D, group, False).ledger)
                assert entry.ledger == merged, (seed, form, width, entry.algo_id)
                total = weighted_total(merged.total(prices))
                assert entry.total_weighted == total, (seed, form, width, entry.algo_id)


def test_render_table_shows_exact_headline_numbers():
    report = run_bench(PICARD_PROFILE, bits=32, samples=5, form="naf", seed=1)
    table = report.render_table()
    assert "preset: picard" in table
    assert "7.558%" in table
    assert "6.890%" in table
    assert "baseline" in table and "neg" in table


def test_ratio_override_changes_per_step_savings():
    ratios = CostRatios(Fraction(2, 3), Fraction(100), Fraction(0))
    report = run_bench(PICARD_PROFILE, bits=32, samples=2, form="naf", ratios=ratios, seed=0)
    # add: plain = 144 + 8 + 200 = 352, fused = 133 + 6 + 200 = 339
    assert report.per_step["add"].plain == 352
    assert report.per_step["add"].fused == 339
    assert report.per_step["add"].savings == savings_percent(352, 339)


@pytest.mark.parametrize(
    "x, text",
    [
        # rounding carries into the next decade: still 4 significant digits
        (Fraction(99996, 10000), "10.00"),
        (Fraction(999996, 1000), "1000"),
        (Fraction(-99996, 10000), "-10.00"),
        # no carry
        (Fraction(99994, 10000), "9.999"),
        (Fraction(7044, 1000), "7.044"),
        (Fraction(1, 3), "0.3333"),
        (Fraction(33690), "33690"),
    ],
)
def test_decimal_renders_four_significant_digits(x, text):
    assert _decimal(x) == text


def test_readme_library_example_prints_what_its_comments_say(capsys):
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    (block,) = re.findall(r"^```python\n(.*?)^```", readme, re.M | re.S)
    exec(block, {})
    element, counts, total = capsys.readouterr().out.splitlines()
    assert element == str(741 * 5 % 1009)
    assert f"# {counts}" in block
    assert re.fullmatch(r"\d+/\d+", total) and Fraction(total) == Fraction(7217, 3)


@pytest.mark.parametrize(
    "form, width, digest",
    [
        ("binary", 4, "7f1c5fdf521536d92e6d9b96a7a28e10d5bfb1ec8521bdb8427f4d61ed73ae3c"),
        ("naf", 4, "86bf6629e15115c2f48a017c9f160a55b7b02cebbfd343c78d8032bbd1404631"),
        ("wnaf", 5, "3c0a19b7b4da96d1e4bfe9ee6aa50f578fe3ad4185c6ddd6a1fb205204ee11da"),
    ],
)
def test_report_json_is_pinned_for_seed_0(form, width, digest, monkeypatch):
    def bench_digest():
        report = run_bench(PICARD_PROFILE, bits=96, samples=200, seed=0, form=form, width=width)
        return hashlib.sha256(report.to_json().encode()).hexdigest()

    assert bench_digest() == digest

    def no_group_op(*args):
        raise AssertionError("bench made a group operation")

    # every driver run starts from the identity, so bench makes no group operation
    for kind in OP_KINDS:
        monkeypatch.setattr(ModularGroup, kind, no_group_op)
    assert bench_digest() == digest
