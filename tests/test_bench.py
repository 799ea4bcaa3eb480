"""Tests for the deterministic cost-benchmark harness."""

import hashlib
import json
import re
import tracemalloc
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
import negmul.bench
import negmul.recoding
from negmul import cli
from negmul.algorithms import _op_counts
from negmul.bench import _RECODE_BATCH, StepCosts, _decimal
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
    # run_bench draws its sample a batch at a time, but checks it at once
    for count in (0, True, 1.5, "3"):
        with pytest.raises(ValueError, match="count"):
            sample_scalars(64, count, 0)
        with pytest.raises(ValueError, match="count"):
            run_bench(PICARD_PROFILE, bits=16, samples=count)


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
        assert json.loads(report.to_json())["per_step"][name]["savings_percent"] is None
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


ZERO_PROFILE = CostProfile("zero", *[ZERO_COST] * 5)
# a profile pricing field additions, for a nonzero addf_per_mul to count
ADDF_PROFILE = CostProfile(
    "addf",
    add_cost=CostVector(mul=9, add_f=4),
    dbl_cost=CostVector(sqr=7, inv=1, add_f=3),
    neg_cost=CostVector(add_f=2),
    neg_add_cost=CostVector(mul=8, add_f=5),
    neg_dbl_cost=CostVector(mul=1, sqr=6, inv=1),
)
RUNS = [("binary", 4), ("naf", 4)] + [("wnaf", w) for w in range(2, 7)]


@pytest.mark.parametrize(
    "profile, ratios",
    [
        pytest.param(profile, ratios, id=profile.name)
        for profile, ratios in [
            (PICARD_PROFILE, DEFAULT_RATIOS),
            (HYPERELLIPTIC_PROFILE, DEFAULT_RATIOS),
            (ADDF_PROFILE, CostRatios("1/2", 7, "3/1000000007")),
            (ZERO_PROFILE, DEFAULT_RATIOS),
        ]
    ],
)
@pytest.mark.parametrize("form, width", RUNS)
def test_report_json_is_the_canonical_json_dump(profile, ratios, form, width):
    report = run_bench(profile, bits=40, samples=9, form=form, width=width, ratios=ratios, seed=6)
    text = report.to_json()
    data = json.loads(text)
    assert text == json.dumps(data, sort_keys=True, indent=2)
    assert data["preset"] == profile.name
    assert data["sample"]["width"] == (width if form == "wnaf" else None)
    if profile is ZERO_PROFILE:
        # every saving is against a cost of 0: null per step and per algorithm
        assert [step["savings_percent"] for step in data["per_step"].values()] == [None, None]
        assert {entry["savings_vs_baseline_percent"] for entry in data["algorithms"]} == {None}


def test_bench_json_quotes_a_custom_profile_name_as_json_does(tmp_path, capsys):
    data = {kind: {"M": 10, "S": 1, "A": 3} for kind in ("add", "dbl", "neg_add", "neg_dbl")}
    data["neg"] = {"A": 1}
    data["ratios"] = {"addf_per_mul": "1/3"}
    stem = 'say "hi"\\ na\u00efve \u00e9t\u00e9 \U0001f600'
    path = tmp_path / f"{stem}.json"
    path.write_text(json.dumps(data))
    argv = ["bench", "custom", "--profile", str(path), "--bits", "24", "--samples", "5", "--format", "json"]
    assert cli.main(argv) == 0
    out = capsys.readouterr().out
    assert out == json.dumps(json.loads(out), sort_keys=True, indent=2) + "\n"
    assert out.isascii()
    assert json.loads(out)["preset"] == stem


@pytest.mark.parametrize(
    "ratios",
    [DEFAULT_RATIOS, CostRatios("4/5", "80/7", "1/50"), CostRatios("1/2", 7, "3/1000000007")],
    ids=["default", "custom", "wide-denominator"],
)
@pytest.mark.parametrize("form, width", [("binary", 4), ("naf", 4), ("wnaf", 5)])
@pytest.mark.parametrize(
    "profile", [PICARD_PROFILE, HYPERELLIPTIC_PROFILE, ZERO_PROFILE, ADDF_PROFILE], ids=lambda p: p.name
)
def test_report_is_self_consistent(profile, form, width, ratios):
    report = run_bench(profile, bits=48, samples=12, form=form, width=width, ratios=ratios, seed=4)
    data = json.loads(report.to_json())
    read_ratios = CostRatios(
        Fraction(data["ratios"]["sqr_per_mul"]),
        Fraction(data["ratios"]["inv_per_mul"]),
        Fraction(data["ratios"]["addf_per_mul"]),
    )
    assert read_ratios == ratios

    # term by term in Fractions, apart from the integer weights bench prices with
    def weight(tally):
        return (
            Fraction(tally["mul"])
            + tally["sqr"] * ratios.sqr_per_mul
            + tally["inv"] * ratios.inv_per_mul
            + tally["add_f"] * ratios.addf_per_mul
        )

    def saving(base, improved):
        return savings_percent(base, improved) if base > 0 else None

    totals = {}
    for entry in data["algorithms"]:
        total = sum(map(weight, entry["ops"].values()), Fraction(0))
        assert Fraction(entry["total_weighted"]) == total
        assert Fraction(entry["mean_weighted"]) == total / data["sample"]["count"]
        totals[entry["id"]] = total
    assert list(totals) == list(algorithms_for_form(form))
    for entry in data["algorithms"]:
        recomputed = saving(totals["baseline"], totals[entry["id"]])
        got = entry["savings_vs_baseline_percent"]
        assert (got if got is None else Fraction(got)) == recomputed
    for name, plain_cost, fused_cost in [
        ("add", profile.add_cost, profile.neg_add_cost),
        ("dbl", profile.dbl_cost, profile.neg_dbl_cost),
    ]:
        step = data["per_step"][name]
        plain, fused = (weight(cost._asdict()) for cost in (plain_cost, fused_cost))
        assert (Fraction(step["plain"]), Fraction(step["fused"])) == (plain, fused)
        got = step["savings_percent"]
        assert (got if got is None else Fraction(got)) == saving(plain, fused)
    if profile is ZERO_PROFILE:
        savings = [entry["savings_vs_baseline_percent"] for entry in data["algorithms"]]
        savings += [step["savings_percent"] for step in data["per_step"].values()]
        assert set(savings) == {None}


@pytest.mark.parametrize(
    "batch", [1, _RECODE_BATCH, 2 * _RECODE_BATCH + 2], ids=["batch-1", "batch-default", "batch-past-sample"]
)
@pytest.mark.parametrize("profile", [PICARD_PROFILE, HYPERELLIPTIC_PROFILE], ids=lambda p: p.name)
def test_totals_priced_from_summed_shapes_equal_the_merged_run_ledgers(profile, batch, monkeypatch):
    # a batch of one sums every run's shape on its own; one past the sample
    # sums them all at once, reading the table bound off a single batch
    monkeypatch.setattr(negmul.bench, "_RECODE_BATCH", batch)
    group = CostChargingGroup(FreeGroup(), profile)
    prices = prices_of(group)
    D = Opaque(1)
    runs = [("binary", 4), ("naf", 4)] + [("wnaf", w) for w in range(2, 7)]
    cases = [(24, 60, seed, form, width) for seed in (0, 1, 2, 3) for form, width in runs]
    # more than two default batches of expansions, summed into each driver's counts
    cases += [(8, 2 * _RECODE_BATCH + 1, 0, form, width) for form, width in runs]
    for case in cases:
        bits, samples, seed, form, width = case
        report = run_bench(profile, bits=bits, samples=samples, form=form, width=width, seed=seed)
        for entry in report.algorithms:
            merged = CostLedger()
            for m in sample_scalars(bits, samples, seed):
                e = recode(m, form, width)
                merged.merge(ALGORITHMS[entry.algo_id].run(e, D, group, False).ledger)
            assert entry.ledger == merged, (case, entry.algo_id)
            total = weighted_total(merged.total(prices))
            assert entry.total_weighted == total, (case, entry.algo_id)


def test_repeated_benches_in_one_process_give_the_same_json(monkeypatch):
    custom = CostProfile(
        "custom",
        add_cost=CostVector(mul=9, add_f=4),
        dbl_cost=CostVector(sqr=7, inv=1),
        neg_cost=CostVector(add_f=2),
        neg_add_cost=CostVector(mul=8, add_f=5),
        neg_dbl_cost=CostVector(mul=1, sqr=6, inv=1),
    )
    profiles = [
        (PICARD_PROFILE, DEFAULT_RATIOS),
        (HYPERELLIPTIC_PROFILE, DEFAULT_RATIOS),
        (custom, CostRatios(Fraction(1, 2), 7, Fraction(1, 10))),
    ]
    calls = [
        (profile, ratios, form, width)
        for form, width in [("naf", 4), ("binary", 4)] + [("wnaf", w) for w in range(2, 7)]
        for profile, ratios in profiles
    ]

    def bench_json(profile, ratios, form, width):
        kwargs = dict(bits=40, samples=30, form=form, width=width, ratios=ratios, seed=5)
        return run_bench(profile, **kwargs).to_json()

    first = [bench_json(*call) for call in calls]

    asked = []

    def recording_op_counts(*args):
        counts = _op_counts(*args)
        asked.append((args, counts))
        return counts

    monkeypatch.setattr(negmul.bench, "_op_counts", recording_op_counts)
    # profiles interleaved, so each call follows benches under other prices
    for call, want in zip(calls, first):
        asked.clear()
        assert bench_json(*call) == want
        # one map call per driver, on the sums of all its runs
        _, _, form, _ = call
        assert [args[0] for args, _ in asked] == [ALGORITHMS[a] for a in algorithms_for_form(form)]
        assert {args[2] for args, _ in asked} == {30}
        for _, (run, _table) in asked:
            assert len(run) == len(OP_KINDS) and all(type(count) is int for count in run)

    # reading run ledgers in between leaves a repeated bench unchanged
    _, _, form, width = calls[-1]
    for m in sample_scalars(40, 30, 5):
        e = recode(m, form, width)
        for algo in algorithms_for_form(form):
            ALGORITHMS[algo].run(e, Opaque(1), FreeGroup(), False).ledger.charge("neg")
    assert bench_json(*calls[-1]) == first[-1]


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


PINNED_JSON = [
    (PICARD_PROFILE, "binary", 4, "7f1c5fdf521536d92e6d9b96a7a28e10d5bfb1ec8521bdb8427f4d61ed73ae3c"),
    (PICARD_PROFILE, "naf", 4, "86bf6629e15115c2f48a017c9f160a55b7b02cebbfd343c78d8032bbd1404631"),
    (PICARD_PROFILE, "wnaf", 5, "3c0a19b7b4da96d1e4bfe9ee6aa50f578fe3ad4185c6ddd6a1fb205204ee11da"),
    # taken from the json.dumps rendering of the report's dict
    (HYPERELLIPTIC_PROFILE, "naf", 4, "46f74d52aa32c81dcce2e363c01df2b5fc8a5d75e7757552de33a07727e11440"),
    (ZERO_PROFILE, "wnaf", 5, "848ec76d8f8d0314d4e31749b6ef896c50070486758469e0eda769836bc827be"),
]
# the same run at non-default ratios, whose denominators every integer weight is put over
RATIOS_PIN = (
    PICARD_PROFILE,
    "wnaf",
    5,
    "163b44912022a54a9464f6583074c6156bcd88f17fcc461992be1135d47b20a1",
    CostRatios("4/5", "80/7", "1/50"),
)
PINS = [(*pin, DEFAULT_RATIOS) for pin in PINNED_JSON] + [RATIOS_PIN]


@pytest.mark.parametrize(
    "profile, form, width, digest, ratios",
    PINS,
    ids=[f"{form}-{width}-{digest}" for _, form, width, digest, _ in PINS],
)
def test_report_json_is_pinned_for_seed_0(profile, form, width, digest, ratios, monkeypatch):
    def bench_digest():
        report = run_bench(profile, bits=96, samples=200, seed=0, form=form, width=width, ratios=ratios)
        return hashlib.sha256(report.to_json().encode()).hexdigest()

    assert bench_digest() == digest

    def no_group_op(*args):
        raise AssertionError("bench made a group operation")

    # every driver run starts from the identity, so bench makes no group operation
    for kind in OP_KINDS:
        monkeypatch.setattr(ModularGroup, kind, no_group_op)
    assert bench_digest() == digest


# perfbench's seed-0 pins (REFERENCE_SHA256 in perfbench/run.py) of the
# bench-naf160 and bench-wnaf4096 calls, whose scalars all lie above 2**64
LONG_BENCH_PINS = [
    (
        ["--bits", "160", "--form", "naf", "--samples", "100"],
        "83f2db0e6c8b585b8be839a9fcf79e8385bca24ae2a6c32f996eaa2d3e225f08",
    ),
    (
        ["--bits", "4096", "--form", "wnaf", "--width", "4", "--samples", "4"],
        "5baef3e149b703bf24874ddeefcd19cb08b6b36e343109837a48af12737fab31",
    ),
]


# the same call in binary, whose scalars all lie above 2**64 too
BINARY_160_PIN = (
    ["--bits", "160", "--form", "binary", "--samples", "100"],
    "a636408344ed1a6c189c8b1f82b061821152791b3b6b16575da53a3a50485d1d",
)


class _Gathered(Exception):
    pass


def test_long_benches_build_no_digit_tuple(monkeypatch, capsys):
    def no_gather(*args):
        raise _Gathered

    def through_the_wrapper(*args):
        raise AssertionError("a bench run went through the charging wrapper")

    monkeypatch.setattr(negmul.recoding, "_gather", no_gather)
    # bench's walks start from the identity of the bare Z/1 and read the
    # shape alone; only prices_of reads the wrapper, through cost_of
    with pytest.MonkeyPatch.context() as wrapper:
        wrapper.setattr(CostChargingGroup, "identity", property(through_the_wrapper))
        for kind in OP_KINDS:
            wrapper.setattr(CostChargingGroup, kind, through_the_wrapper)
        for args, digest in [*LONG_BENCH_PINS, BINARY_160_PIN]:
            assert cli.main(["bench", "picard", *args, "--format", "json", "--seed", "0"]) == 0
            assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest, args
    # recode and mul read the digits, so the patched gather is the one they reach
    m = str((1 << 159) + 0x5DEECE66D)
    calls = [
        ["recode", m, "binary"],
        ["recode", m, "naf"],
        ["recode", m, "wnaf", "--width", "4"],
        ["mul", "--n", "101", "--scalar", m, "--algo", "baseline", "--form", "binary"],
        ["mul", "--n", "101", "--scalar", m, "--algo", "neg"],
        ["mul", "--n", "101", "--scalar", m, "--algo", "window"],
    ]
    for argv in calls:
        with pytest.raises(_Gathered):
            cli.main(argv)
    monkeypatch.undo()
    for argv in calls:
        assert cli.main(argv) == 0
        out = capsys.readouterr().out
        if argv[0] == "recode":
            assert re.fullmatch(r"1( (-?\d+))*, l=16\d, w=\d+\n", out), out
        else:
            assert out.startswith(f"{int(m) % 101}\nops: "), out


def test_a_long_bench_holds_one_batch_of_scalars_at_a_time():
    # drawn a batch at a time, a 4096-bit sample of 3000 scalars peaks near
    # 0.1 MB under tracemalloc; drawn whole before the first batch, it
    # peaked at 1.8 MB, growing with the sample size
    def peak(samples):
        tracemalloc.start()
        try:
            run_bench(PICARD_PROFILE, bits=4096, samples=samples, form="wnaf", width=4, seed=0)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(2 * _RECODE_BATCH)
    assert peak(3000) < 400_000
