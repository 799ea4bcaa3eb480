"""Output checks for the benchmark, written without any of negmul's code.

The bench oracle redraws the seeded sample itself, recodes every scalar with
its own NAF / width-w NAF shape functions, and predicts each driver's
operation counts from the closed-form length/weight identities. It prices
those counts with the Picard cost vectors copied from the paper, so every
number in a bench JSON report is predicted independently of the program
that printed it.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from typing import NamedTuple

# Picard-curve divisor arithmetic, (M, S, I, A) per operation kind.
PICARD = {
    "add": (144, 12, 2, 0),
    "dbl": (158, 16, 2, 0),
    "neg": (11, 3, 0, 0),
    "neg_add": (133, 9, 2, 0),
    "neg_dbl": (147, 13, 2, 0),
}
RATIOS = {"sqr_per_mul": Fraction(2, 3), "inv_per_mul": Fraction(10), "addf_per_mul": Fraction(0)}
STEP_SAVINGS = {"add": Fraction(1300, 172), "dbl": Fraction(3900, 566)}
KINDS = tuple(PICARD)
COMPONENTS = ("mul", "sqr", "inv", "add_f")

DRIVERS = {
    "naf": ("baseline", "neg", "online", "neg-dbl-only", "neg-add-only"),
    "wnaf": ("baseline", "window"),
}

# verify sweeps moduli 5, 7, 11, ... with every base D < n and every scalar
# m < 4n, through 5 signed-binary drivers plus the window driver at widths 2-4.
VERIFY_MODULI = (5, 7, 11, 31, 97)
VERIFY_DRIVERS = 8


class Shape(NamedTuple):
    """What the closed-form op counts of one scalar depend on."""

    length: int
    weight: int
    has_negative: bool
    bound: int


def sample(bits: int, count: int, seed: int) -> list[int]:
    """The bench sample: `bits`-bit scalars, top bit set, rest from MT19937(seed)."""
    rng = random.Random(seed)
    top = 1 << (bits - 1)
    return [top | rng.getrandbits(bits - 1) for _ in range(count)]


def naf_shape(m: int) -> Shape:
    """NAF shape from 3m: digit i of NAF(m) is bit i+1 of 3m minus bit i+1 of m."""
    h = 3 * m
    return Shape(h.bit_length() - 1, bin((h ^ m) >> 1).count("1"), bool((m & ~h) >> 1), 1)


def wnaf_shape(m: int, w: int) -> Shape:
    """Width-w NAF shape by jumping from one nonzero digit to the next."""
    mask, half = (1 << w) - 1, 1 << (w - 1)
    position = weight = top = 0
    has_negative = False
    while m:
        zeros = (m & -m).bit_length() - 1
        m >>= zeros
        position += zeros
        d = m & mask
        if d >= half:
            d -= 1 << w
        has_negative |= d < 0
        weight += 1
        top = position
        m -= d
    return Shape(top + 1, weight, has_negative, half - 1)


def driver_counts(driver: str, s: Shape) -> dict[str, int]:
    """Operation counts of one driver run on a scalar of shape s."""
    loop_dbl, loop_add = s.length - 1, s.weight - 1
    if s.bound > 1:
        table = {"dbl": 1 if s.bound >= 3 else 0, "add": (s.bound - 1) // 2, "neg": (s.bound + 1) // 2}
    else:
        table = {"neg": 1 if driver != "baseline" or s.has_negative else 0}
    counts = dict.fromkeys(KINDS, 0)
    counts.update(table)
    odd_close = (loop_dbl + loop_add) % 2
    if driver == "baseline":
        counts["dbl"] += loop_dbl
        counts["add"] += loop_add
    elif driver == "neg-dbl-only":
        counts["neg_dbl"], counts["add"] = loop_dbl, loop_add
    elif driver == "neg-add-only":
        counts["dbl"], counts["neg_add"] = loop_dbl, loop_add
    else:
        counts["neg_dbl"], counts["neg_add"] = loop_dbl, loop_add
        if driver in ("online", "window"):
            counts["neg"] += odd_close
    return counts


def weighted(vector: tuple[int, int, int, int]) -> Fraction:
    mul, sqr, inv, add_f = vector
    return (
        mul + sqr * RATIOS["sqr_per_mul"] + inv * RATIOS["inv_per_mul"] + add_f * RATIOS["addf_per_mul"]
    )


class BenchCheck(NamedTuple):
    problem: str | None
    class_repeats: int
    runs: int


def check_bench(text: str, *, bits: int, samples: int, form: str, width: int, seed: int) -> BenchCheck:
    """Check one `bench picard --format json` report against the closed forms.

    class_repeats counts the driver runs whose (driver, length, weight,
    has-negative-digit, digit bound) class already occurred in the report.
    """
    drivers = DRIVERS[form]
    shapes = [naf_shape(m) if form == "naf" else wnaf_shape(m, width) for m in sample(bits, samples, seed)]
    runs = len(drivers) * samples
    repeats = len(drivers) * (samples - len(set(shapes)))
    try:
        problem = _bench_problem(json.loads(text), bits, samples, form, width, seed, drivers, shapes)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        problem = f"malformed report: {exc!r}"
    return BenchCheck(problem, repeats, runs)


def _bench_problem(report, bits, samples, form, width, seed, drivers, shapes) -> str | None:
    if report["preset"] != "picard":
        return f"preset {report['preset']!r}"
    if {k: Fraction(v) for k, v in report["ratios"].items()} != RATIOS:
        return f"ratios {report['ratios']}"
    want_sample = {"bits": bits, "count": samples, "form": form, "seed": seed,
                   "width": width if form == "wnaf" else None}
    if report["sample"] != want_sample:
        return f"sample {report['sample']} != {want_sample}"
    for step, saving in STEP_SAVINGS.items():
        got = Fraction(report["per_step"][step]["savings_percent"])
        if got != saving:
            return f"per-step {step} saving {got} != {saving}"
    got_ids = [entry["id"] for entry in report["algorithms"]]
    if got_ids != list(drivers):
        return f"drivers {got_ids} != {list(drivers)}"
    base_total = None
    for entry in report["algorithms"]:
        driver = entry["id"]
        counts = dict.fromkeys(KINDS, 0)
        for s in shapes:
            for kind, n in driver_counts(driver, s).items():
                counts[kind] += n
        total = Fraction(0)
        for kind in KINDS:
            op = entry["ops"][kind]
            vector = tuple(counts[kind] * c for c in PICARD[kind])
            want = {"count": counts[kind], **dict(zip(COMPONENTS, vector))}
            if op != want:
                return f"{driver} {kind} {op} != {want}"
            total += weighted(vector)
        base_total = total if base_total is None else base_total
        saving = (base_total - total) / base_total * 100
        if Fraction(entry["total_weighted"]) != total:
            return f"{driver} total_weighted {entry['total_weighted']} != {total}"
        if Fraction(entry["mean_weighted"]) != total / samples:
            return f"{driver} mean_weighted {entry['mean_weighted']} != {total / samples}"
        if Fraction(entry["savings_vs_baseline_percent"]) != saving:
            return f"{driver} saving {entry['savings_vs_baseline_percent']} != {saving}"
    return None


def verify_products(max_n: int) -> int:
    return VERIFY_DRIVERS * sum(4 * n * n for n in VERIFY_MODULI if n <= max_n)


def check_verify(rc: int, text: str, *, max_n: int) -> str | None:
    want = f"PASS, 0 mismatches ({verify_products(max_n)} products checked)\n"
    if rc != 0 or text != want:
        return f"rc={rc}, output {text!r} != {want!r}"
    return None
