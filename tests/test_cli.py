"""Tests for the command-line interface."""

import argparse
import json
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import negmul
from negmul import CostLedger, CostRatios, algorithms, cli
from negmul.backends import PICARD_PROFILE, PRESETS
from negmul.costs import DEFAULT_RATIOS
from negmul.verify import Mismatch


def run_cli(capsys, *argv):
    rc = cli.main(list(argv))
    out = capsys.readouterr().out
    return rc, out


def test_recode_naf(capsys):
    rc, out = run_cli(capsys, "recode", "3", "naf")
    assert rc == 0
    assert out == "1 0 -1, l=3, w=2\n"


def test_recode_binary(capsys):
    rc, out = run_cli(capsys, "recode", "6", "binary")
    assert rc == 0
    assert out == "1 1 0, l=3, w=2\n"


def test_recode_zero(capsys):
    rc, out = run_cli(capsys, "recode", "0", "naf")
    assert rc == 0
    assert out == "(empty), l=0, w=0\n"


def test_recode_wnaf_and_hex(capsys):
    rc, out = run_cli(capsys, "recode", "0x7", "wnaf", "--width", "3")
    assert rc == 0
    assert out == "1 0 0 -1, l=4, w=2\n"


def test_recode_accepts_signed_hex_like_signed_decimal(capsys):
    rc, out = run_cli(capsys, "recode", "17")
    assert rc == 0 and out == "1 0 0 0 1, l=5, w=2\n"
    for text in ("+17", "+0x11", "+0X11", "0x11"):
        assert run_cli(capsys, "recode", text) == (0, out)
    for text in ("+-0x11", "0x", "+"):
        with pytest.raises(SystemExit) as exc:
            cli.main(["recode", text])
        assert exc.value.code == 2


def test_recode_defaults_to_naf(capsys):
    rc, out = run_cli(capsys, "recode", "3")
    assert out == "1 0 -1, l=3, w=2\n"


def test_recode_rejects_negative_and_junk(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["recode", "-5"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        cli.main(["recode", "zzz"])
    assert exc.value.code == 2


def test_mul_neg_driver(capsys):
    rc, out = run_cli(capsys, "mul", "--n", "7", "--scalar", "3", "--algo", "neg")
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "3"
    assert lines[1] == "ops: add=0 dbl=0 neg=1 neg_add=1 neg_dbl=2"


def test_mul_makes_one_ledger(monkeypatch, capsys):
    calls = Counter()
    make_ledger, op_counts = CostLedger.__init__, algorithms._op_counts

    def counting_init(self):
        calls["ledger"] += 1
        make_ledger(self)

    def counting_op_counts(*args):
        calls["op_counts"] += 1
        return op_counts(*args)

    monkeypatch.setattr(CostLedger, "__init__", counting_init)
    monkeypatch.setattr(algorithms, "_op_counts", counting_op_counts)
    rc, out = run_cli(capsys, "mul", "--n", "101", "--scalar", "-17", "--algo", "neg")
    assert rc == 0
    assert out == "84\nops: add=0 dbl=0 neg=2 neg_add=1 neg_dbl=4\n"
    assert calls == {"ledger": 1, "op_counts": 1}


def test_mul_zero(capsys):
    rc, out = run_cli(capsys, "mul", "--n", "5", "--scalar", "0")
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "0"
    assert lines[1] == "ops: add=0 dbl=0 neg=0 neg_add=0 neg_dbl=0"


def test_mul_windowed(capsys):
    rc, out = run_cli(capsys, "mul", "--n", "31", "--scalar", "25", "--algo", "window", "--width", "3")
    assert rc == 0
    assert out.splitlines()[0] == "25"


def test_mul_negative_scalar(capsys):
    rc, out = run_cli(capsys, "mul", "--n", "7", "--scalar", "-3")
    assert rc == 0
    assert out.splitlines()[0] == "4"


def test_mul_negative_hex_scalar_parses_like_negative_decimal(capsys):
    # before Python 3.13, argparse took "-0x11" for an option unless told otherwise
    expected = run_cli(capsys, "mul", "--n", "101", "--scalar", "-17", "--algo", "neg")
    assert expected == (0, "84\nops: add=0 dbl=0 neg=2 neg_add=1 neg_dbl=4\n")
    for scalar in (["--scalar", "-0x11"], ["--scalar", "-0X11"], ["--scalar=-0x11"]):
        assert run_cli(capsys, "mul", "--n", "101", *scalar, "--algo", "neg") == expected
    with pytest.raises(SystemExit) as exc:
        cli.main(["mul", "--n", "101", "--scalar", "-0xzz"])
    assert exc.value.code == 2
    assert "not a decimal or hex integer: '-0xzz'" in capsys.readouterr().err


def test_mul_window_with_another_form_is_usage_error(capsys):
    for form in ("binary", "naf"):
        with pytest.raises(SystemExit) as exc:
            cli.main(["mul", "--n", "101", "--scalar", "5", "--algo", "window", "--form", form])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"runs on form 'wnaf' only, got {form!r}" in captured.err
        assert "Traceback" not in captured.err
    rc, out = run_cli(capsys, "mul", "--n", "101", "--scalar", "5", "--algo", "window", "--form", "wnaf")
    assert rc == 0
    assert out.splitlines()[0] == "5"
    # 17 recodes to the same digits in naf and wnaf, which once let it through
    with pytest.raises(SystemExit) as exc:
        cli.main(["mul", "--n", "101", "--scalar", "17", "--algo", "neg", "--form", "wnaf"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "algorithm 'neg' runs on form 'naf' or 'binary' only, got 'wnaf'" in captured.err
    assert "Traceback" not in captured.err


def test_mul_rejects_small_modulus(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["mul", "--n", "1", "--scalar", "3"])
    assert exc.value.code == 2


def test_verify_small_pass(capsys):
    rc, out = run_cli(capsys, "verify", "--max-n", "5")
    assert rc == 0
    assert out.startswith("PASS, 0 mismatches")


def test_verify_max_m_multiplier(capsys):
    rc, out = run_cli(capsys, "verify", "--max-n", "7", "--max-m-multiplier", "16")
    assert rc == 0
    assert out == "PASS, 0 mismatches (9472 products checked)\n"
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "--max-n", "7", "--max-m-multiplier", "1025"])
    assert exc.value.code == 2
    assert "max-m-multiplier must be in [1, 1024], got 1025" in capsys.readouterr().err


def test_verify_failure_formatting(monkeypatch, capsys):
    monkeypatch.setattr(
        cli, "verify_universal_agreement", lambda max_n, mult: (42, [Mismatch(7, 3, 5, "neg", 1, 2)])
    )
    rc, out = run_cli(capsys, "verify", "--max-n", "7")
    assert rc == 1
    assert "MISMATCH n=7 D=3 m=5 algorithm=neg got=1 expected=2" in out
    assert "FAIL, 1 mismatches (42 products checked)" in out


def test_verify_rejects_out_of_range_max_n(capsys):
    # below the smallest bundled prime, 5, verify would check nothing
    for max_n in ("0", "1", "4", "98", "513"):
        with pytest.raises(SystemExit) as exc:
            cli.main(["verify", "--max-n", max_n])
        assert exc.value.code == 2


def test_bench_json_parses_and_is_deterministic(capsys):
    args = ("bench", "picard", "--bits", "16", "--samples", "5", "--format", "json")
    rc1, out1 = run_cli(capsys, *args)
    rc2, out2 = run_cli(capsys, *args)
    assert rc1 == rc2 == 0
    assert out1 == out2
    report = json.loads(out1)
    assert report["preset"] == "picard"
    assert report["sample"] == {"bits": 16, "count": 5, "form": "naf", "width": None, "seed": 0}
    assert {entry["id"] for entry in report["algorithms"]} == {
        "baseline",
        "neg",
        "online",
        "neg-dbl-only",
        "neg-add-only",
    }


def test_bench_table_output(capsys):
    rc, out = run_cli(capsys, "bench", "picard", "--bits", "16", "--samples", "5")
    assert rc == 0
    assert "per-step cost (M-equivalents)" in out
    assert "7.558%" in out


def test_bench_seed_changes_sample(capsys):
    _, out1 = run_cli(capsys, "bench", "picard", "--bits", "64", "--samples", "3",
                      "--format", "json", "--seed", "1")
    _, out2 = run_cli(capsys, "bench", "picard", "--bits", "64", "--samples", "3",
                      "--format", "json", "--seed", "2")
    assert json.loads(out1)["sample"]["seed"] == 1
    assert json.loads(out2)["sample"]["seed"] == 2


def test_bench_custom_profile(tmp_path, capsys):
    data = {
        "add": {"M": 10, "S": 0, "I": 1},
        "dbl": {"M": 12, "S": 0, "I": 1},
        "neg": {"M": 2},
        "neg_add": {"M": 8, "S": 0, "I": 1},
        "neg_dbl": {"M": 10, "S": 0, "I": 1},
        "ratios": {"inv_per_mul": "5"},
    }
    path = tmp_path / "toy.json"
    path.write_text(json.dumps(data))
    rc, out = run_cli(capsys, "bench", "custom", "--profile", str(path),
                      "--bits", "16", "--samples", "4", "--format", "json")
    assert rc == 0
    report = json.loads(out)
    assert report["preset"] == "toy"
    assert report["ratios"]["inv_per_mul"] == "5"
    # add step: plain = 10 + 5 = 15, fused = 8 + 5 = 13
    assert report["per_step"]["add"]["plain"] == "15"
    assert report["per_step"]["add"]["fused"] == "13"


def test_bench_dearer_profile_warning_names_the_cli_line_that_loads_it(tmp_path, capsys):
    data = {kind: {"M": 10} for kind in ("add", "dbl", "neg_add", "neg_dbl")}
    data["neg"] = {}
    data["neg_add"]["M"] = 11
    path = tmp_path / "odd.json"
    path.write_text(json.dumps(data))
    with pytest.warns(UserWarning, match="cost profile 'odd'") as record:
        rc, _ = run_cli(capsys, "bench", "custom", "--profile", str(path), "--bits", "16", "--samples", "2")
    assert rc == 0
    assert [w.filename for w in record] == [cli.__file__]


def test_bench_custom_requires_profile(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["bench", "custom"])
    assert exc.value.code == 2


def test_bench_profile_only_with_custom(tmp_path, capsys):
    path = tmp_path / "toy.json"
    path.write_text("{}")
    with pytest.raises(SystemExit) as exc:
        cli.main(["bench", "picard", "--profile", str(path)])
    assert exc.value.code == 2


def test_bench_malformed_profile_is_usage_error(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(SystemExit) as exc:
        cli.main(["bench", "custom", "--profile", str(path)])
    assert exc.value.code == 2


@pytest.mark.parametrize("raw", [b"\xff\xfe{", b'{"add": "\xff"}'], ids=["bom", "string"])
def test_bench_profile_that_does_not_decode_names_the_file(tmp_path, capsys, raw):
    path = tmp_path / "undecodable.json"
    path.write_bytes(raw)
    with pytest.raises(SystemExit) as exc:
        cli.main(["bench", "custom", "--profile", str(path)])
    assert exc.value.code == 2
    assert f"{path}: not valid JSON" in capsys.readouterr().err


def test_bench_ratio_override(capsys):
    rc, out = run_cli(capsys, "bench", "picard", "--bits", "16", "--samples", "2",
                      "--inv-per-mul", "100", "--format", "json")
    assert rc == 0
    report = json.loads(out)
    # add: plain = 144 + 8 + 200 = 352, fused = 133 + 6 + 200 = 339
    assert report["per_step"]["add"]["plain"] == "352"
    assert report["per_step"]["add"]["fused"] == "339"


def test_bench_rejects_malformed_ratio(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["bench", "picard", "--inv-per-mul", "ten"])
    assert exc.value.code == 2


def test_bench_ratio_flags_are_checked_by_cost_ratios(capsys):
    for flag, text, message in (
        ("--sqr-per-mul", "1/0", "sqr_per_mul must be an exact ratio, got '1/0'"),
        ("--addf-per-mul", "-1", "addf_per_mul must be nonnegative, got -1"),
    ):
        with pytest.raises(SystemExit) as exc:
            cli.main(["bench", "picard", flag, text])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err
        assert "Traceback" not in captured.err


def test_bench_ratio_flags_override_profile_ratios_one_by_one(tmp_path, capsys):
    data = dict(
        {kind: {"M": 1} for kind in ("add", "dbl", "neg_add", "neg_dbl")},
        neg={},
        ratios={"sqr_per_mul": "1/2", "inv_per_mul": "5"},
    )
    path = tmp_path / "toy.json"
    path.write_text(json.dumps(data))
    rc, out = run_cli(capsys, "bench", "custom", "--profile", str(path), "--bits", "16",
                      "--samples", "2", "--format", "json", "--inv-per-mul", "7/2")
    assert rc == 0
    assert json.loads(out)["ratios"] == {"sqr_per_mul": "1/2", "inv_per_mul": "7/2", "addf_per_mul": "0"}


def test_bench_without_ratio_flags_passes_the_default_ratios_themselves(monkeypatch, capsys):
    seen = []
    run_bench = cli.run_bench

    def recording_run_bench(profile, **kwargs):
        seen.append(kwargs["ratios"])
        return run_bench(profile, **kwargs)

    monkeypatch.setattr(cli, "run_bench", recording_run_bench)
    assert run_cli(capsys, "bench", "picard", "--bits", "16", "--samples", "2")[0] == 0
    assert run_cli(capsys, "bench", "picard", "--bits", "16", "--samples", "2", "--inv-per-mul", "5")[0] == 0
    assert seen[0] is DEFAULT_RATIOS
    assert seen[1] == DEFAULT_RATIOS._replace(inv_per_mul="5") and seen[1] is not DEFAULT_RATIOS


def test_default_ratios_are_one_object_under_every_name():
    # the CLI's default is negmul.costs.DEFAULT_RATIOS, as the test above checks
    star = {}
    exec("from negmul import *", star)
    by_default = negmul.run_bench(PICARD_PROFILE, bits=16, samples=2).ratios
    assert star["DEFAULT_RATIOS"] is negmul.DEFAULT_RATIOS is negmul.costs.DEFAULT_RATIOS
    assert by_default is DEFAULT_RATIOS is negmul.costs.DEFAULT_RATIOS
    assert DEFAULT_RATIOS == CostRatios()
    assert negmul.weighted_total(PICARD_PROFILE.add_cost) == negmul.weighted_total(
        PICARD_PROFILE.add_cost, CostRatios()
    )


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_bench_runs_every_bundled_preset(capsys, name):
    for fmt in ("table", "json"):
        rc, out = run_cli(capsys, "bench", name, "--bits", "16", "--samples", "3", "--format", fmt)
        assert rc == 0
    assert json.loads(out)["preset"] == name


def test_bench_rejects_bad_bits(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["bench", "picard", "--bits", "4"])
    assert exc.value.code == 2


def test_unknown_subcommand_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["frobnicate"])
    assert exc.value.code == 2


def call_main(capsys, argv):
    """(exit code, stdout, stderr) of one in-process main(argv) call."""
    try:
        rc = cli.main(list(argv))
    except SystemExit as exc:
        rc = exc.code
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_main_builds_its_parser_once_per_process(monkeypatch, capsys):
    round_ = (
        ["recode", "3", "naf"],
        ["mul", "--n", "101", "--scalar", "-17", "--algo", "neg"],
        ["verify", "--max-n", "5"],
        ["bench", "picard", "--bits", "16", "--samples", "2", "--format", "json"],
    )
    call_main(capsys, round_[0])
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    assert [call_main(capsys, argv)[0] for argv in round_] == [0, 0, 0, 0]
    assert built == []
    first, second = cli.build_parser(), cli.build_parser()
    assert first is not second and len(built) == 10  # a top-level and four subcommand parsers each


def subcommand_parsers(parser):
    (action,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return action.choices


def test_calls_through_the_shared_parser_carry_no_state(capsys):
    round_ = (
        ["bench", "picard", "--sqr-per-mul", "1/0"],
        ["mul", "--n", "101", "--scalar", "17", "--algo", "neg", "--form", "wnaf"],
        ["frobnicate"],
        ["mul", "--n", "101", "--scalar", "-0x11", "--algo", "neg"],
        ["recode", "0xffff", "wnaf", "--width", "4"],
        ["verify", "--max-n", "5"],
    )
    first = [call_main(capsys, argv) for argv in round_]
    assert [rc for rc, _, _ in first] == [2, 2, 2, 0, 0, 0]
    assert [call_main(capsys, argv) for argv in round_] == first
    shared, fresh = cli._parser(), cli.build_parser()
    assert shared.format_help() == fresh.format_help()
    used, new = subcommand_parsers(shared), subcommand_parsers(fresh)
    assert list(used) == list(new) == ["recode", "mul", "verify", "bench"]
    for name in new:
        assert used[name].format_help() == new[name].format_help()


# Start-up cost: building the parser must not import these heavy modules
# (dataclasses alone pulls in inspect, ast, dis and tokenize; json is only for
# bench's JSON output and custom profiles; fractions, with decimal and
# numbers, only for pricing costs, which bench and custom profiles do).
STARTUP_CODE = """\
import sys
sys.path.insert(0, sys.argv[1])
names, argv = set(sys.argv[2].split()), sys.argv[3:]
before = set(sys.modules)
import negmul.cli
negmul.cli.build_parser()
status = negmul.cli.main(argv) if argv else 0
print(" ".join(sorted(names & (set(sys.modules) - before))))
sys.exit(status)
"""


def startup_imports(*names, argv=(), site=True):
    """Which of names a fresh interpreter loads to import negmul.cli, build its parser and run main(argv).

    With site=False it runs under -S, so that what site imports (typing,
    pathlib and random, on some Python versions) is not loaded already.
    """
    src = Path(negmul.__file__).parent.parent
    flags = ["-I"] if site else ["-I", "-S"]
    proc = subprocess.run(
        [sys.executable, *flags, "-c", STARTUP_CODE, str(src), " ".join(names), *argv],
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    return proc.stdout.splitlines()[-1].split()


def test_startup_imports_neither_dataclasses_nor_inspect():
    assert startup_imports("dataclasses", "inspect") == []


def test_startup_does_not_import_json():
    assert startup_imports("json") == []


PRICING_MODULES = ("fractions", "decimal", "numbers")


def test_startup_does_not_import_fractions():
    assert startup_imports(*PRICING_MODULES) == []


@pytest.mark.parametrize(
    "argv, loaded",
    [
        (["recode", str(2**160 + 3), "binary"], []),
        (["mul", "--n", "101", "--scalar", "-17", "--algo", "neg"], []),
        (["verify", "--max-n", "5"], []),
        (["bench", "picard", "--bits", "16", "--samples", "2"], sorted(PRICING_MODULES)),
    ],
    ids=["recode", "mul", "verify", "bench"],
)
def test_only_bench_loads_fractions(argv, loaded):
    assert startup_imports(*PRICING_MODULES, argv=argv) == loaded


# typing, pathlib and random: annotations, custom profile files and bench's
# sampling use them, so none is imported with the package
LAZY_MODULES = ("typing", "pathlib", "random")


@pytest.mark.parametrize(
    "argv, loaded",
    [
        ([], []),
        (["recode", str(2**160 + 3), "binary"], []),
        (["mul", "--n", "101", "--scalar", "-17", "--algo", "neg"], []),
        (["verify", "--max-n", "5"], []),
        (["bench", "picard", "--bits", "16", "--samples", "2"], ["random"]),
    ],
    ids=["parser", "recode", "mul", "verify", "bench"],
)
def test_only_bench_loads_random_and_nothing_loads_typing_or_pathlib(argv, loaded):
    assert startup_imports(*LAZY_MODULES, argv=argv, site=False) == loaded
