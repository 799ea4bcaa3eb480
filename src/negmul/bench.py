"""Deterministic cost benchmarking: modeled field-operation totals, not wall time.

A bench run draws a seeded sample of fixed-bit-length scalars, runs every
driver the chosen recoding form feeds, and sums each driver's run shapes
into four integers: length, weight, negative and the closing flip parity.
A run's op counts are affine in its shape's fields, so each driver's are
one call of the walk's own map, algorithms._op_counts, on its table bound
and those sums (order independent, so a fixed seed fully determines the
report). The scalars are drawn and recoded a _RECODE_BATCH at a time, and
each driver runs from the identity of the bare group Z/1; the profile's
prices are read through a CostChargingGroup.
Pricing is in integers: each operation kind gets one price in
M-equivalents over one denominator, a driver's total is its counts dotted
with those prices, and each reported figure is one exact Fraction made
from such integers. Rendering rounds only at the very end, and only in
table mode. A saving against a cost of 0 is None, per step as for a whole
multiplication: JSON null, "-" in the table. Each saving is
costs.savings_percent of two such integers.
"""

from __future__ import annotations

import math
import operator
from collections import namedtuple
from functools import partial
from itertools import islice, repeat

from .algorithms import ALGORITHMS, _op_counts
from .backends import CostChargingGroup, CostProfile, ModularGroup
from .costs import (
    OP_KINDS,
    CostRatios,
    SameClassEquality,
    _DEFAULT,
    _default_ratios,
    _dot,
    _ledger,
    _weights,
    savings_percent,
)
from .groups import prices_of
from .recoding import RECODING_FORMS, binary_expansion, naf, width_w_naf

TYPE_CHECKING = False
if TYPE_CHECKING:
    from collections.abc import Iterator
    from fractions import Fraction

MIN_BITS, MAX_BITS = 8, 4096
# Scalars drawn and recoded at once, each expansion then run by every driver;
# bounds the scalars and expansions held, whatever the sample size or bits.
_RECODE_BATCH = 32


def sample_scalars(bits: int, count: int, seed: int) -> list[int]:
    """count scalars of exactly `bits` bits: top bit forced, the rest uniform.

    Drawn from random.Random(seed), i.e. the frozen MT19937 generator, so a
    seed pins the sample on every platform and Python version. The seed must
    be a nonnegative int: Random would take None as "unseeded" and -1 or True
    as 1, so the report could print a seed that does not reproduce it.
    """
    return list(_scalars(bits, count, seed))


def _scalars(bits: int, count: int, seed: int) -> Iterator[int]:
    """sample_scalars' checks, made at once, then its scalars, drawn as they are read."""
    if not isinstance(bits, int) or isinstance(bits, bool):
        raise ValueError(f"bits must be an integer, got {bits!r}")
    if not MIN_BITS <= bits <= MAX_BITS:
        raise ValueError(f"bits must be in [{MIN_BITS}, {MAX_BITS}], got {bits}")
    if not isinstance(count, int) or isinstance(count, bool) or count < 1:
        raise ValueError(f"sample count must be a positive integer, got {count!r}")
    if not isinstance(seed, int) or isinstance(seed, bool) or seed < 0:
        raise ValueError(f"seed must be a nonnegative integer, got {seed!r}")
    import random  # only bench samples; kept off the start-up path

    rng, top = random.Random(seed), 1 << (bits - 1)
    return (top | rng.getrandbits(bits - 1) for _ in range(count))


def algorithms_for_form(form: str) -> tuple[str, ...]:
    """Drivers a bench run covers: the ALGORITHMS entries listing the form, in order.

    The baseline lists every form, so each run has it to compare against.
    """
    return tuple(algo for algo, entry in ALGORITHMS.items() if form in entry.forms)


_StepCostsFields = namedtuple("_StepCostsFields", ("plain", "fused", "savings"))


class StepCosts(SameClassEquality, _StepCostsFields):
    """Weighted cost of one plain step against its fused counterpart.

    savings is None when the plain step costs 0, as savings_vs_baseline is
    for a baseline that costs 0.
    """

    __slots__ = ()


class AlgorithmEntry(
    namedtuple(
        "AlgorithmEntry",
        ("algo_id", "ledger", "total_weighted", "mean_weighted", "savings_vs_baseline"),
    )
):
    """Aggregated accounting for one driver across the whole sample.

    ledger counts the group operations of all its runs; total_weighted and
    mean_weighted are their exact M-equivalents (Fractions), over the whole
    sample and per scalar; savings_vs_baseline is the percent saved against
    the baseline, a Fraction, or None when the baseline costs 0.
    """

    __slots__ = ()


class BenchReport(
    namedtuple(
        "BenchReport",
        (
            "preset", "ratios", "bits", "samples", "form",
            "width", "seed", "per_step", "algorithms", "prices",
        ),
    )
):
    """Everything a bench run measured, exact; renders to a table or JSON.

    width is None unless form is "wnaf"; per_step maps "add" and "dbl" to
    their StepCosts, algorithms holds one AlgorithmEntry per driver, in
    ALGORITHMS order, and prices maps each operation kind to its CostVector.
    """

    __slots__ = ()

    def to_json(self) -> str:
        """Canonical JSON: sorted keys, two-space indent, ASCII escapes; byte stable for a seed.

        Written straight from the fields, it is the text json.dumps(...,
        sort_keys=True, indent=2) makes of the schema in the README. Each
        block is one % over its template; an op block holds the kind's count
        times its price, in integers.
        """
        # only JSON output needs it; kept off the start-up path
        from json.encoder import encode_basestring_ascii as quote

        # the factors of each op block's add_f, count, inv, mul and sqr
        factors = [
            x for mul, sqr, inv, add_f in map(self.prices.__getitem__, OP_KINDS)
            for x in (add_f, 1, inv, mul, sqr)
        ]
        algorithms = [
            _ALGORITHM_JSON % (
                quote(entry.algo_id),
                entry.mean_weighted,
                *map(operator.mul, map(entry.ledger._counts.__getitem__, _OP_FIELD_KINDS), factors),
                _json_fraction(entry.savings_vs_baseline),
                entry.total_weighted,
            )
            for entry in self.algorithms
        ]
        per_step = [
            _STEP_JSON % (name, step.fused, step.plain, _json_fraction(step.savings))
            for name, step in sorted(self.per_step.items())
        ]
        ratios = self.ratios
        return _REPORT_JSON % (
            ",\n".join(algorithms), ",\n".join(per_step), quote(self.preset),
            ratios.addf_per_mul, ratios.inv_per_mul, ratios.sqr_per_mul,
            self.bits, self.samples, quote(self.form), self.seed,
            "null" if self.width is None else self.width,
        )

    def render_table(self) -> str:
        width_note = f", width={self.width}" if self.width is not None else ""
        lines = [
            f"preset: {self.preset}",
            "ratios: " + " ".join(f"{key}={ratio}" for key, ratio in self.ratios._asdict().items()),
            f"sample: {self.samples} scalars of {self.bits} bits, "
            f"form={self.form}{width_note}, seed={self.seed}",
            "",
            "per-step cost (M-equivalents)",
            f"  {'step':<6} {'plain':>10} {'fused':>10} {'saving':>9}",
        ]
        for name in ("add", "dbl"):
            step = self.per_step[name]
            lines.append(
                f"  {name:<6} {_decimal(step.plain):>10} {_decimal(step.fused):>10} "
                f"{_percent(step.savings):>9}"
            )
        lines += [
            "",
            "whole-multiplication cost (M-equivalents)",
            f"  {'algorithm':<14} {'mean cost':>12} {'saving vs baseline':>20}",
        ]
        for entry in self.algorithms:
            saving = _percent(entry.savings_vs_baseline)
            lines.append(f"  {entry.algo_id:<14} {_decimal(entry.mean_weighted):>12} {saving:>20}")
        return "\n".join(lines)


def run_bench(
    profile: CostProfile,
    *,
    bits: int,
    samples: int,
    form: str = "naf",
    width: int = 4,
    ratios: CostRatios = _DEFAULT,
    seed: int = 0,
) -> BenchReport:
    """Run every applicable driver over a seeded sample and aggregate exact costs.

    ratios defaults to DEFAULT_RATIOS.
    """
    if form not in RECODING_FORMS:
        raise ValueError(f"unknown recoding form {form!r}; expected one of {RECODING_FORMS}")
    # Only shapes are read, so every driver runs from the identity of the
    # bare one-element group Z/1, where a walk returns its shape and makes
    # no group call. The wrapper only refuses a profile that is not a
    # CostProfile and gives its prices.
    z1 = ModularGroup(1)
    prices = prices_of(CostChargingGroup(z1, profile))
    if ratios is _DEFAULT:
        ratios = _default_ratios()
    if not isinstance(ratios, CostRatios):
        raise ValueError(f"ratios must be a CostRatios, got {ratios!r}")
    scalars = _scalars(bits, samples, seed)
    algo_ids = algorithms_for_form(form)
    if form == "binary":
        expand = binary_expansion
    elif form == "naf":
        expand = naf
    else:
        expand = partial(width_w_naf, w=width)
    # Every run is from the identity, untraced, so its result is
    # (identity, shape, None). A driver's shapes share one table bound (one
    # form and width per bench); each batch adds their other fields, and
    # entry._odd where there is no lookahead, to the driver's four sums.
    bounds, sums = {}, dict.fromkeys(algo_ids, (0, 0, 0, 0))
    shape = operator.itemgetter(1)
    for _ in range(0, samples, _RECODE_BATCH):
        expansions = list(map(expand, islice(scalars, _RECODE_BATCH)))
        for algo in algo_ids:
            entry = ALGORITHMS[algo]
            runs = map(entry.run, expansions, repeat(z1.identity), repeat(z1), repeat(False))
            _, table_bounds, *fields = zip(*map(shape, runs))
            bounds[algo] = table_bounds[0]
            fields.append(() if entry.lookahead else map(entry._odd, *fields[:2]))
            sums[algo] = tuple(map(operator.add, sums[algo], map(sum, fields)))
    from fractions import Fraction

    weights = _weights(ratios)
    den = weights[0]
    kind_prices = {kind: _dot(prices[kind], weights) for kind in OP_KINDS}
    counts = {
        algo: _op_counts(ALGORITHMS[algo], bounds[algo], samples, *sums[algo])[0]
        for algo in algo_ids
    }
    totals = {algo: _dot(counts[algo], kind_prices.values()) for algo in algo_ids}
    entries = []
    for algo in algo_ids:
        n, base = totals[algo], totals["baseline"]
        saving = savings_percent(base, n) if base else None
        figures = Fraction(n, den), Fraction(n, den * samples), saving
        entries.append(AlgorithmEntry(algo, _ledger(counts[algo]), *figures))
    per_step = {}
    for name in ("add", "dbl"):
        plain, fused = kind_prices[name], kind_prices["neg_" + name]
        saving = savings_percent(plain, fused) if plain else None
        per_step[name] = StepCosts(Fraction(plain, den), Fraction(fused, den), saving)
    return BenchReport(
        preset=profile.name,
        ratios=ratios,
        bits=bits,
        samples=samples,
        form=form,
        width=width if form == "wnaf" else None,
        seed=seed,
        per_step=per_step,
        algorithms=tuple(entries),
        prices=prices,
    )


# BenchReport.to_json's layout, as json.dumps(..., sort_keys=True, indent=2)
# lays the schema out: every object's keys in sorted order (OP_KINDS is
# sorted too) and each fraction a quoted str(). An algorithm block takes its
# id, mean, then each kind's add_f, count, inv, mul and sqr in turn (the
# kinds of those fields are _OP_FIELD_KINDS), its saving and its total.
_OP_FIELD_KINDS = [kind for kind in OP_KINDS for _ in range(5)]
_OPS_JSON = ",\n".join(
    f"""\
        "{kind}": {{
          "add_f": %d,
          "count": %d,
          "inv": %d,
          "mul": %d,
          "sqr": %d
        }}"""
    for kind in OP_KINDS
)
_ALGORITHM_JSON = f"""\
    {{
      "id": %s,
      "mean_weighted": "%s",
      "ops": {{
{_OPS_JSON}
      }},
      "savings_vs_baseline_percent": %s,
      "total_weighted": "%s"
    }}"""
_STEP_JSON = """\
    "%s": {
      "fused": "%s",
      "plain": "%s",
      "savings_percent": %s
    }"""
_REPORT_JSON = """\
{
  "algorithms": [
%s
  ],
  "per_step": {
%s
  },
  "preset": %s,
  "ratios": {
    "addf_per_mul": "%s",
    "inv_per_mul": "%s",
    "sqr_per_mul": "%s"
  },
  "sample": {
    "bits": %s,
    "count": %s,
    "form": %s,
    "seed": %s,
    "width": %s
  }
}"""


def _json_fraction(x: Fraction | None) -> str:
    """A fraction as its quoted str(), or null where there is none."""
    return "null" if x is None else f'"{x!s}"'


def _percent(savings: Fraction | None) -> str:
    """A saving for the table: "-" where there is none, else its percentage."""
    return "-" if savings is None else f"{_decimal(savings)}%"


def _decimal(x: Fraction) -> str:
    """Render an exact rational to 4 significant decimal digits."""
    value = float(x)
    if value == 0:
        return "0"
    decimals = 3 - math.floor(math.log10(abs(value)))
    # again from the rounded value, in case rounding carried into the next decade
    decimals = 3 - math.floor(math.log10(abs(round(value, decimals))))
    if decimals <= 0:
        return f"{round(value, decimals):.0f}"
    return f"{value:.{decimals}f}"
