"""Deterministic cost benchmarking: modeled field-operation totals, not wall time.

A bench run draws a seeded sample of fixed-bit-length scalars, runs every
driver the chosen recoding form feeds, and counts each driver's runs by shape.
A run's ledger is a function of its shape alone, so each shape class is
priced once, by the walk's own formula (algorithms._walk_ledgers), times
the number of runs in it (order independent, so a fixed seed fully
determines the report). The report keeps every figure as an exact rational;
rendering rounds only at the very end, and only in table mode. A saving
against a cost of 0 is None, per step as for a whole multiplication: JSON
null, "-" in the table.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from fractions import Fraction
from typing import NamedTuple

from .algorithms import ALGORITHMS, _walk_ledgers
from .backends import CostChargingGroup, CostProfile, ModularGroup
from .costs import (
    DEFAULT_RATIOS,
    OP_KINDS,
    CostLedger,
    CostRatios,
    CostVector,
    SameClassEquality,
    savings_percent,
    weighted_total,
)
from .groups import prices_of
from .recoding import RECODING_FORMS, binary_expansion, naf, width_w_naf

MIN_BITS, MAX_BITS = 8, 4096


def sample_scalars(bits: int, count: int, seed: int) -> list[int]:
    """count scalars of exactly `bits` bits: top bit forced, the rest uniform.

    Drawn from random.Random(seed), i.e. the frozen MT19937 generator, so a
    seed pins the sample on every platform and Python version. The seed must
    be a nonnegative int: Random would take None as "unseeded" and -1 or True
    as 1, so the report could print a seed that does not reproduce it.
    """
    if not isinstance(bits, int) or isinstance(bits, bool):
        raise ValueError(f"bits must be an integer, got {bits!r}")
    if not MIN_BITS <= bits <= MAX_BITS:
        raise ValueError(f"bits must be in [{MIN_BITS}, {MAX_BITS}], got {bits}")
    if not isinstance(count, int) or isinstance(count, bool) or count < 1:
        raise ValueError(f"sample count must be a positive integer, got {count!r}")
    if not isinstance(seed, int) or isinstance(seed, bool) or seed < 0:
        raise ValueError(f"seed must be a nonnegative integer, got {seed!r}")
    rng = random.Random(seed)
    top = 1 << (bits - 1)
    return [top | rng.getrandbits(bits - 1) for _ in range(count)]


def algorithms_for_form(form: str) -> tuple[str, ...]:
    """Drivers a bench run covers: the ALGORITHMS entries listing the form, in order.

    The baseline lists every form, so each run has it to compare against.
    """
    return tuple(algo for algo, entry in ALGORITHMS.items() if form in entry.forms)


class _StepCostsFields(NamedTuple):
    plain: Fraction
    fused: Fraction
    savings: Fraction | None


class StepCosts(SameClassEquality, _StepCostsFields):
    """Weighted cost of one plain step against its fused counterpart.

    savings is None when the plain step costs 0, as savings_vs_baseline is
    for a baseline that costs 0.
    """

    __slots__ = ()


class AlgorithmEntry(NamedTuple):
    """Aggregated accounting for one driver across the whole sample."""

    algo_id: str
    ledger: CostLedger
    total_weighted: Fraction
    mean_weighted: Fraction
    savings_vs_baseline: Fraction | None


class BenchReport(NamedTuple):
    """Everything a bench run measured, exact; renders to a table or JSON."""

    preset: str
    ratios: CostRatios
    bits: int
    samples: int
    form: str
    width: int | None
    seed: int
    per_step: dict[str, StepCosts]
    algorithms: tuple[AlgorithmEntry, ...]
    prices: dict[str, CostVector]

    def to_dict(self) -> dict:
        algorithms = []
        for entry in self.algorithms:
            ops = {
                kind: {
                    "count": entry.ledger.count(kind),
                    **entry.ledger.vector(kind, self.prices)._asdict(),
                }
                for kind in OP_KINDS
            }
            savings = entry.savings_vs_baseline
            algorithms.append(
                {
                    "id": entry.algo_id,
                    "ops": ops,
                    "total_weighted": str(entry.total_weighted),
                    "mean_weighted": str(entry.mean_weighted),
                    "savings_vs_baseline_percent": None if savings is None else str(savings),
                }
            )
        return {
            "preset": self.preset,
            "ratios": {key: str(ratio) for key, ratio in self.ratios._asdict().items()},
            "sample": {
                "bits": self.bits,
                "count": self.samples,
                "form": self.form,
                "width": self.width,
                "seed": self.seed,
            },
            "per_step": {
                name: {
                    "plain": str(step.plain),
                    "fused": str(step.fused),
                    "savings_percent": None if step.savings is None else str(step.savings),
                }
                for name, step in self.per_step.items()
            },
            "algorithms": algorithms,
        }

    def to_json(self) -> str:
        """Canonical JSON: sorted keys, two-space indent; byte stable for a seed."""
        import json  # only JSON output needs it; kept off the start-up path

        return json.dumps(self.to_dict(), sort_keys=True, indent=2)

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
    ratios: CostRatios = DEFAULT_RATIOS,
    seed: int = 0,
) -> BenchReport:
    """Run every applicable driver over a seeded sample and aggregate exact costs."""
    if form not in RECODING_FORMS:
        raise ValueError(f"unknown recoding form {form!r}; expected one of {RECODING_FORMS}")
    # Only shapes are read, so every driver runs from the identity of the
    # one-element group Z/1, where a walk returns its shape and makes no
    # group call. The wrapper refuses a profile that is not a CostProfile.
    group = CostChargingGroup(ModularGroup(1), profile)
    if not isinstance(ratios, CostRatios):
        raise ValueError(f"ratios must be a CostRatios, got {ratios!r}")
    scalars = sample_scalars(bits, samples, seed)
    D = group.identity
    algo_ids = algorithms_for_form(form)
    prices = prices_of(group)
    shapes = {algo: Counter() for algo in algo_ids}
    runs = [(shapes[algo], ALGORITHMS[algo].run) for algo in algo_ids]
    for m in scalars:
        if form == "binary":
            e = binary_expansion(m)
        elif form == "naf":
            e = naf(m)
        else:
            e = width_w_naf(m, width)
        for counted, run in runs:
            counted[run(e, D, group, False).shape] += 1
    totals = {algo: _ledger_of(shapes[algo]) for algo in algo_ids}
    base_total = weighted_total(totals["baseline"].total(prices), ratios)
    entries = []
    for algo in algo_ids:
        total = weighted_total(totals[algo].total(prices), ratios)
        savings = savings_percent(base_total, total) if base_total > 0 else None
        entries.append(AlgorithmEntry(algo, totals[algo], total, total / samples, savings))
    per_step = {
        "add": _step_costs(profile.add_cost, profile.neg_add_cost, ratios),
        "dbl": _step_costs(profile.dbl_cost, profile.neg_dbl_cost, ratios),
    }
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


def _ledger_of(shapes: Counter) -> CostLedger:
    """The summed ledger of the runs counted by shape: each class priced once."""
    total = CostLedger()
    for shape, runs in shapes.items():
        for kind, count in _walk_ledgers(*shape)[0].counts().items():
            total.charge(kind, count * runs)
    return total


def _step_costs(plain_cost: CostVector, fused_cost: CostVector, ratios: CostRatios) -> StepCosts:
    plain = weighted_total(plain_cost, ratios)
    fused = weighted_total(fused_cost, ratios)
    savings = savings_percent(plain, fused) if plain > 0 else None
    return StepCosts(plain, fused, savings)


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
