"""Tests for the command-line interface."""

import argparse
import hashlib
import json
import re
import shlex
import subprocess
import sys
from collections import Counter
from pathlib import Path
from random import Random

import pytest

import negmul
from negmul import CostLedger, CostRatios, algorithms, cli
from negmul.backends import PICARD_PROFILE, PRESETS
from negmul.costs import DEFAULT_RATIOS
from negmul.verify import Mismatch

from test_bench import LONG_BENCH_PINS


def run_cli(capsys, *argv):
    rc = cli.main(list(argv))
    out = capsys.readouterr().out
    return rc, out


def call_main(capsys, argv):
    """(exit code, stdout, stderr) of one in-process main(argv) call."""
    try:
        rc = cli.main(list(argv))
    except SystemExit as exc:
        rc = exc.code
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


# A 4096-bit scalar, and cost ratios other than the default
M_4096 = str(Random(7).getrandbits(4096) | 1 << 4095)
RATIOS = "--sqr-per-mul 4/5 --inv-per-mul 80/7 --addf-per-mul 1/50"
# argv, with {m} and {ratios} filled in, to its exact stdout or, where that
# ends in no newline, to the sha256 of its stdout
CLI_OUTPUTS = {
    "recode 3 naf": "1 0 -1, l=3, w=2\n",
    "recode 3": "1 0 -1, l=3, w=2\n",
    "recode 6 binary": "1 1 0, l=3, w=2\n",
    "recode 0 naf": "(empty), l=0, w=0\n",
    "recode 0x7 wnaf --width 3": "1 0 0 -1, l=4, w=2\n",
    "recode 0x7fff naf": "1 0 0 0 0 0 0 0 0 0 0 0 0 0 0 -1, l=16, w=2\n",
    "recode 15 wnaf --width 3": "1 0 0 0 -1, l=5, w=2\n",
    "recode 0xffff wnaf --width 4": "1 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 -1, l=17, w=2\n",
    "recode +0x11": "1 0 0 0 1, l=5, w=2\n",
    "recode {m} wnaf --width 4": "801487e898a6877a67160ad5171b3819a395904325490411c754a85063332f6b",
    "recode {m} wnaf --width 8": "8f58170943107f96efd8a5eafbc26e277a8bc2e1431aba32d488ac77fe5ac21f",
    "recode {m} wnaf --width 9": "ce7f9327444f952a8984b385e34d206f8bbbed885dedeaaf26e6f7e4496f5507",
    "recode {m} naf": "305d4b5365b8a921462c1a995186bf2ed4798e61fe4a923330c1a6c4cdb727c6",
    "mul --n 7 --scalar 3 --algo neg": "3\nops: add=0 dbl=0 neg=1 neg_add=1 neg_dbl=2\n",
    "mul --n 5 --scalar 0": "0\nops: add=0 dbl=0 neg=0 neg_add=0 neg_dbl=0\n",
    "mul --n 7 --scalar -3": "4\nops: add=0 dbl=0 neg=2 neg_add=1 neg_dbl=2\n",
    "mul --n 31 --scalar 25 --algo window --width 3": "25\nops: add=1 dbl=1 neg=2 neg_add=1 neg_dbl=3\n",
    "mul --n 101 --scalar 5 --algo window --form wnaf": "5\nops: add=3 dbl=1 neg=4 neg_add=0 neg_dbl=0\n",
    "mul --n 101 --scalar -17 --algo neg": "84\nops: add=0 dbl=0 neg=2 neg_add=1 neg_dbl=4\n",
    "mul --n 101 --scalar -0x11 --algo neg": "84\nops: add=0 dbl=0 neg=2 neg_add=1 neg_dbl=4\n",
    "mul --n 101 --scalar -1 --algo neg": "100\nops: add=0 dbl=0 neg=1 neg_add=0 neg_dbl=0\n",
    "mul --n 101 --scalar 1000 --algo window --width 5": "91\nops: add=7 dbl=1 neg=9 neg_add=1 neg_dbl=10\n",
    "mul --n 101 --scalar 1000 --algo baseline --form wnaf --width 5": (
        "91\nops: add=8 dbl=11 neg=8 neg_add=0 neg_dbl=0\n"
    ),
    "mul --n 101 --scalar -45 --form wnaf --width 2 --algo baseline": (
        "56\nops: add=3 dbl=6 neg=2 neg_add=0 neg_dbl=0\n"
    ),
    "mul --n 101 --scalar -45 --form wnaf --width 2 --algo window": (
        "56\nops: add=0 dbl=0 neg=3 neg_add=3 neg_dbl=6\n"
    ),
    "verify --max-n 5": "PASS, 0 mismatches (800 products checked)\n",
    "verify --max-n 11": "PASS, 0 mismatches (6240 products checked)\n",
    "verify --max-n 7 --max-m-multiplier 16": "PASS, 0 mismatches (9472 products checked)\n",
    "verify --max-n 97": "PASS, 0 mismatches (338080 products checked)\n",
    "verify --max-n 31 --max-m-multiplier 1": "PASS, 0 mismatches (9248 products checked)\n",
    "verify --max-n 97 --max-m-multiplier 16": "PASS, 0 mismatches (1352320 products checked)\n",
    "bench picard --bits 160 --samples 100 --seed 0": (
        "8e2ff72f605893ab4c420c21f1cc09c2f07954d27061e8005cc3f071e9fba726"
    ),
    "bench picard --bits 160 --samples 100 --seed 0 {ratios} --format json": (
        "714ff67360ae2507c64e6bae5b462d0d9189e234ac57321b900982d3797973c9"
    ),
    "bench picard --bits 160 --samples 100 --seed 0 {ratios}": (
        "6664d1200afc1f705a47f46a6beef319ff3f77cf46b229fe75a1c94e59286470"
    ),
}


def pinned(out, expected):
    """out itself if expected is an exact stdout, else the sha256 of out."""
    return out if expected.endswith("\n") else hashlib.sha256(out.encode()).hexdigest()


@pytest.mark.parametrize(
    "command, expected", CLI_OUTPUTS.items(), ids=[c.replace(" ", "_") for c in CLI_OUTPUTS]
)
def test_cli_output(capsys, command, expected):
    rc, out = run_cli(capsys, *command.format(m=M_4096, ratios=RATIOS).split())
    assert rc == 0
    assert pinned(out, expected) == expected


# Profile files that CLI_REFUSALS rows name, written to the working directory
# before each refusal: text that is not JSON, a UTF-16 byte-order mark and a
# string that do not decode, and an object that is not a profile
PROFILE_FILES = {
    "broken.json": b"{not json",
    "bom.json": b"\xff\xfe{",
    "string.json": b'{"add": "\xff"}',
    "toy.json": b"{}",
}
# argv to a fragment of the error line that negmul's own code writes for it.
# What argparse or json word differently across Python versions (the choice
# list, the decoder's detail) is left out.
CLI_REFUSALS = {
    "recode -5": "scalar must be nonnegative, got -5",
    "recode zzz": "not a decimal or hex integer: 'zzz'",
    "recode +-0x11": "not a decimal or hex integer: '+-0x11'",
    "recode 0x": "not a decimal or hex integer: '0x'",
    "recode +": "not a decimal or hex integer: '+'",
    "recode 5 wnaf --width 17": "width must be in [2, 16], got 17",
    "mul --n 1 --scalar 3": "modulus must be at least 2, got 1",
    "mul --n 101 --scalar -0xzz": "not a decimal or hex integer: '-0xzz'",
    "mul --n 101 --scalar 5 --algo window --form binary": (
        "algorithm 'window' runs on form 'wnaf' only, got 'binary'"
    ),
    "mul --n 101 --scalar 5 --algo window --form naf": (
        "algorithm 'window' runs on form 'wnaf' only, got 'naf'"
    ),
    # 17 recodes to the same digits in naf and wnaf, which once let it through
    "mul --n 101 --scalar 17 --algo neg --form wnaf": (
        "algorithm 'neg' runs on form 'naf' or 'binary' only, got 'wnaf'"
    ),
    "verify --max-n 7 --max-m-multiplier 1025": "max-m-multiplier must be in [1, 1024], got 1025",
    # below the smallest bundled prime, 5, verify would check nothing
    "verify --max-n 0": "max-n must be in [5, 97], got 0",
    "verify --max-n 1": "max-n must be in [5, 97], got 1",
    "verify --max-n 4": "max-n must be in [5, 97], got 4",
    "verify --max-n 98": "max-n must be in [5, 97], got 98",
    "verify --max-n 513": "max-n must be in [5, 97], got 513",
    "bench custom": "preset 'custom' requires --profile",
    "bench picard --profile toy.json": "--profile is only valid with preset 'custom'",
    "bench custom --profile broken.json": "broken.json: not valid JSON",
    "bench custom --profile bom.json": "bom.json: not valid JSON",
    "bench custom --profile string.json": "string.json: not valid JSON",
    "bench custom --profile missing.json": "No such file or directory: 'missing.json'",
    "bench picard --inv-per-mul ten": "inv_per_mul must be an exact ratio, got 'ten'",
    "bench picard --sqr-per-mul 1/0": "sqr_per_mul must be an exact ratio, got '1/0'",
    "bench picard --addf-per-mul -1": "addf_per_mul must be nonnegative, got -1",
    "bench picard --bits 4": "bits must be in [8, 4096], got 4",
    "frobnicate": "invalid choice: 'frobnicate'",
}


@pytest.mark.parametrize(
    "command, fragment", CLI_REFUSALS.items(), ids=[c.replace(" ", "_") for c in CLI_REFUSALS]
)
def test_cli_refusal(tmp_path, monkeypatch, capsys, command, fragment):
    monkeypatch.chdir(tmp_path)
    for name, body in PROFILE_FILES.items():
        (tmp_path / name).write_bytes(body)
    rc, out, err = call_main(capsys, command.split())
    assert (rc, out) == (2, "")
    assert "Traceback" not in err
    assert fragment in err.splitlines()[-1]


def test_recode_accepts_signed_hex_like_signed_decimal(capsys):
    rc, out = run_cli(capsys, "recode", "17")
    assert rc == 0 and out == "1 0 0 0 1, l=5, w=2\n"
    for text in ("+17", "+0x11", "+0X11", "0x11"):
        assert run_cli(capsys, "recode", text) == (0, out)


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


def test_mul_negative_hex_scalar_parses_like_negative_decimal(capsys):
    # before Python 3.13, argparse took "-0x11" for an option unless told otherwise
    expected = run_cli(capsys, "mul", "--n", "101", "--scalar", "-17", "--algo", "neg")
    assert expected == (0, "84\nops: add=0 dbl=0 neg=2 neg_add=1 neg_dbl=4\n")
    for scalar in (["--scalar", "-0x11"], ["--scalar", "-0X11"], ["--scalar=-0x11"]):
        assert run_cli(capsys, "mul", "--n", "101", *scalar, "--algo", "neg") == expected


def test_verify_failure_formatting(monkeypatch, capsys):
    monkeypatch.setattr(
        cli, "verify_universal_agreement", lambda max_n, mult: (42, [Mismatch(7, 3, 5, "neg", 1, 2)])
    )
    rc, out = run_cli(capsys, "verify", "--max-n", "7")
    assert rc == 1
    assert "MISMATCH n=7 D=3 m=5 algorithm=neg got=1 expected=2" in out
    assert "FAIL, 1 mismatches (42 products checked)" in out


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


def test_bench_ratio_override(capsys):
    rc, out = run_cli(capsys, "bench", "picard", "--bits", "16", "--samples", "2",
                      "--inv-per-mul", "100", "--format", "json")
    assert rc == 0
    report = json.loads(out)
    # add: plain = 144 + 8 + 200 = 352, fused = 133 + 6 + 200 = 339
    assert report["per_step"]["add"]["plain"] == "352"
    assert report["per_step"]["add"]["fused"] == "339"


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


# Start-up cost. A probe runs one fresh interpreter that imports negmul.cli,
# builds its parser and runs main(argv), then prints which of the watched
# modules it loaded. None loads with the package: dataclasses alone pulls in
# inspect, ast, dis and tokenize; json is only for bench's JSON output and
# custom profiles; fractions, with decimal and numbers, only for pricing
# costs, which bench does; typing only for annotations, pathlib for custom
# profile files and random for bench's sampling. Some Python versions' site
# imports typing, pathlib and random itself, so those are watched under -S.
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


SRC = str(Path(negmul.__file__).parent.parent)
ROOT = Path(__file__).resolve().parent.parent

PRICING_MODULES = "fractions decimal numbers"
LAZY_MODULES = "typing pathlib random"
STARTUP_ARGVS = {
    "parser": "",
    "recode": f"recode {2**160 + 3} binary",
    "mul": "mul --n 101 --scalar -17 --algo neg",
    "verify": "verify --max-n 5",
    "bench": "bench picard --bits 16 --samples 2",
}
# (argv, run with site or under -S) to the watched modules and the ones of
# them that it loads
STARTUP_PROBES = {
    ("recode", "site"): (PRICING_MODULES, ""),
    ("mul", "site"): (PRICING_MODULES, ""),
    ("verify", "site"): (PRICING_MODULES, ""),
    ("bench", "site"): (PRICING_MODULES, PRICING_MODULES),
    ("parser", "-S"): (LAZY_MODULES, ""),
    ("recode", "-S"): (LAZY_MODULES, ""),
    ("mul", "-S"): (LAZY_MODULES, ""),
    ("verify", "-S"): (LAZY_MODULES, ""),
    ("bench", "-S"): (LAZY_MODULES, "random"),
}


@pytest.mark.parametrize(
    "probe, modules",
    STARTUP_PROBES.items(),
    ids=[f"{argv}-{flag.strip('-')}" for argv, flag in STARTUP_PROBES],
)
def test_startup_imports(probe, modules):
    watched, loaded = modules
    assert startup_loads(*probe, watched) == sorted(loaded.split())


def startup_loads(argv, flag, watched):
    """Which of the watched modules a probe of STARTUP_ARGVS[argv] loads, run with site or under -S."""
    flags = ["-I"] if flag == "site" else ["-I", "-S"]
    proc = subprocess.run(
        [sys.executable, *flags, "-c", STARTUP_CODE, SRC, watched, *STARTUP_ARGVS[argv].split()],
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    return proc.stdout.splitlines()[-1].split()


# building the parser, with site, loads none of the heavy modules
def test_startup_imports_neither_dataclasses_nor_inspect():
    assert startup_loads("parser", "site", "dataclasses inspect") == []


def test_startup_does_not_import_json():
    assert startup_loads("parser", "site", "json") == []


def test_startup_does_not_import_fractions():
    assert startup_loads("parser", "site", PRICING_MODULES) == []


def test_ci_import_check_watches_the_start_up_probes_modules():
    # read as text, so that CI needs no YAML parser
    workflow = (ROOT / ".github" / "workflows" / "tests.yml").read_text()
    (line,) = (line for line in workflow.splitlines() if "python -I -S -c" in line)
    (names,) = re.findall(r'\{("[^}]*)\}', line)
    watched = {name for modules, _ in STARTUP_PROBES.values() for name in modules.split()}
    # and the modules that the parser's own start-up tests watch
    watched.update(["dataclasses", "inspect", "json"])
    assert set(re.findall(r'"(\w+)"', names)) == watched


def readme_block(heading, language):
    """The first ```language block under the README's heading."""
    section = (ROOT / "README.md").read_text().split(f"\n{heading}\n", 1)[1]
    return section.split(f"```{language}\n", 1)[1].split("```", 1)[0]


def test_readme_cli_examples_run(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "genus3.json").write_text(readme_block("### Custom profile files", "json"))
    lines = readme_block("## CLI", "sh").splitlines()
    assert lines
    for line in lines:
        program, *argv = shlex.split(line, comments=True)
        assert program == "negmul"
        assert call_main(capsys, argv)[0] == 0, line


# Runs main on each argv of a JSON list in turn, in one fresh interpreter,
# and prints the JSON list of each call's (exit status, stdout).
REPEATED_CALLS_CODE = """\
import contextlib, io, json, sys
sys.path.insert(0, sys.argv[1])
from negmul.cli import main
outputs = []
for argv in json.loads(sys.argv[2]):
    with contextlib.redirect_stdout(io.StringIO()) as out:
        outputs.append((main(argv), out.getvalue()))
print(json.dumps(outputs))
"""


def test_repeated_main_calls_in_one_interpreter_print_the_pinned_outputs():
    # the first calls of verify, recode and bench fill the package's caches
    # cold; both long benches are then run again warm, after a hyperelliptic
    # bench and a mul that reads its run's ledger
    long_benches = [
        (["bench", "picard", *args, "--format", "json", "--seed", "0"], digest)
        for args, digest in LONG_BENCH_PINS
    ]
    hyperelliptic = "fde08e2f4d0c518c58657cdba521792a5fc5f05b1ca1dac31c0ffc1b293a7bef"

    def row(command):
        return command.split(), CLI_OUTPUTS[command]

    calls = [
        row("verify --max-n 5"),
        row("recode 3 naf"),
        row("verify --max-n 11"),
        *long_benches,
        (["bench", "hyperelliptic", "--format", "json"], hyperelliptic),
        row("mul --n 101 --scalar -17 --algo neg"),
        *long_benches,
    ]
    proc = subprocess.run(
        [sys.executable, "-I", "-c", REPEATED_CALLS_CODE, SRC, json.dumps([argv for argv, _ in calls])],
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    outputs = json.loads(proc.stdout)
    assert [(rc, pinned(out, expected)) for (rc, out), (_, expected) in zip(outputs, calls)] == [
        (0, expected) for _, expected in calls
    ]
