"""Command-line front end: recode, mul, verify and bench.

Exit codes: 0 success, 1 verification failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import re
import sys
from functools import cache

from . import costs
from .algorithms import ALGORITHM_IDS, ALGORITHMS, scalar_mul
from .backends import PRESETS, ModularGroup, load_profile, preset
from .bench import MAX_BITS, MIN_BITS, run_bench
from .costs import OP_KINDS, CostRatios
from .recoding import MAX_WIDTH, MIN_WIDTH, RECODING_FORMS, recode
from .verify import MAX_VERIFY_N, MIN_VERIFY_N, verify_universal_agreement


def _scalar(text: str) -> int:
    try:
        return int(text, 16 if text.lower().lstrip("+-").startswith("0x") else 10)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a decimal or hex integer: {text!r}") from None


def _nonnegative_scalar(text: str) -> int:
    value = _scalar(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"scalar must be nonnegative, got {value}")
    return value


def _modulus(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"modulus must be an integer, got {text!r}") from None
    if value < 2:
        raise argparse.ArgumentTypeError(f"modulus must be at least 2, got {value}")
    return value


def _bounded(low: int, high: int, what: str):
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"{what} must be an integer, got {text!r}") from None
        if not low <= value <= high:
            raise argparse.ArgumentTypeError(f"{what} must be in [{low}, {high}], got {value}")
        return value

    return parse


_width_arg = _bounded(MIN_WIDTH, MAX_WIDTH, "width")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="negmul",
        description=(
            "Sign-tracking scalar multiplication: signed-digit recodings, "
            "oracle verification, and exact field-operation cost benchmarks."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    recode = sub.add_parser(
        "recode", help="print a scalar's digit expansion with its length and weight"
    )
    recode.add_argument("scalar", type=_nonnegative_scalar, help="nonnegative, decimal or 0x-hex")
    recode.add_argument(
        "form", nargs="?", choices=RECODING_FORMS, default="naf", help="recoding form (default naf)"
    )
    recode.add_argument("--width", type=_width_arg, default=4, help="window width for wnaf")
    recode.set_defaults(func=cmd_recode, parser=recode)

    mul = sub.add_parser(
        "mul", help="compute scalar * 1 mod n with a chosen driver and show its operation tallies"
    )
    # Read any "-" then digit as a negative number, not an option, so that
    # "--scalar -0x11" parses (Python 3.13's rule; older ones take -0x11 for
    # an option). mul has no option that could look like one.
    mul._negative_number_matcher = re.compile(r"^-\.?\d")
    mul.add_argument("--n", type=_modulus, required=True, help="modulus of the backing group")
    mul.add_argument(
        "--scalar", type=_scalar, required=True, help="decimal or 0x-hex, may be negative"
    )
    mul.add_argument("--algo", choices=ALGORITHM_IDS, default="neg")
    mul.add_argument(
        "--form",
        choices=RECODING_FORMS,
        default=None,
        help="recoding, by default the first form the driver runs on; a form it does not run "
        "on is a usage error: "
        + "; ".join(f"{algo} {'/'.join(entry.forms)}" for algo, entry in ALGORITHMS.items()),
    )
    mul.add_argument("--width", type=_width_arg, default=4)
    mul.set_defaults(func=cmd_mul, parser=mul)

    verify = sub.add_parser(
        "verify", help="exhaustively compare all drivers against modular arithmetic"
    )
    verify.add_argument("--max-n", type=_bounded(MIN_VERIFY_N, MAX_VERIFY_N, "max-n"), default=97)
    verify.add_argument(
        "--max-m-multiplier", type=_bounded(1, 1024, "max-m-multiplier"), default=4
    )
    verify.set_defaults(func=cmd_verify, parser=verify)

    bench = sub.add_parser("bench", help="aggregate modeled costs over a seeded scalar sample")
    bench.add_argument("preset", choices=(*PRESETS, "custom"))
    bench.add_argument("--profile", help="JSON cost profile, required with preset 'custom'")
    bench.add_argument("--bits", type=_bounded(MIN_BITS, MAX_BITS, "bits"), default=160)
    bench.add_argument("--samples", type=_bounded(1, 1_000_000, "samples"), default=1000)
    bench.add_argument("--form", choices=RECODING_FORMS, default="naf")
    bench.add_argument("--width", type=_width_arg, default=4)
    for field in CostRatios._fields:
        bench.add_argument("--" + field.replace("_", "-"), metavar="FRACTION")
    bench.add_argument("--format", choices=("table", "json"), default="table")
    bench.add_argument("--seed", type=_bounded(0, 2**64 - 1, "seed"), default=0)
    bench.set_defaults(func=cmd_bench, parser=bench)

    return parser


def cmd_recode(args: argparse.Namespace) -> int:
    e = recode(args.scalar, args.form, args.width)
    digits = " ".join(str(d) for d in e.digits) if e.length else "(empty)"
    print(f"{digits}, l={e.length}, w={e.weight}")
    return 0


def cmd_mul(args: argparse.Namespace) -> int:
    group = ModularGroup(args.n)
    try:
        result = scalar_mul(args.scalar, 1, group, args.algo, form=args.form, width=args.width)
    except ValueError as exc:
        args.parser.error(str(exc))
    ledger = result.ledger  # made from the run's shape on each read
    print(result.element)
    print("ops: " + " ".join(f"{kind}={ledger.count(kind)}" for kind in OP_KINDS))
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    checked, mismatches = verify_universal_agreement(args.max_n, args.max_m_multiplier)
    if mismatches:
        for mm in mismatches:
            print(
                f"MISMATCH n={mm.n} D={mm.D} m={mm.m} algorithm={mm.algorithm} "
                f"got={mm.got} expected={mm.expected}"
            )
        print(f"FAIL, {len(mismatches)} mismatches ({checked} products checked)")
        return 1
    print(f"PASS, 0 mismatches ({checked} products checked)")
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    if args.preset == "custom":
        if not args.profile:
            args.parser.error("preset 'custom' requires --profile")
        try:
            profile, file_ratios = load_profile(args.profile)
        except (OSError, ValueError) as exc:
            args.parser.error(str(exc))
    else:
        if args.profile:
            args.parser.error("--profile is only valid with preset 'custom'")
        profile = preset(args.preset)
        file_ratios = None
    base = file_ratios if file_ratios is not None else costs.DEFAULT_RATIOS
    given = {key: text for key in CostRatios._fields if (text := getattr(args, key)) is not None}
    ratios = base
    if given:
        try:
            ratios = base._replace(**given)
        except ValueError as exc:
            args.parser.error(str(exc))
    report = run_bench(
        profile,
        bits=args.bits,
        samples=args.samples,
        form=args.form,
        width=args.width,
        ratios=ratios,
        seed=args.seed,
    )
    print(report.to_json() if args.format == "json" else report.render_table())
    return 0


@cache
def _parser() -> argparse.ArgumentParser:
    # Parsing never changes a parser (each call gets a fresh Namespace, and
    # argparse reads stderr and the terminal width only when it prints), so
    # repeated main() calls in one process share the one parser.
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
