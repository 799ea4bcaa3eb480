"""Exhaustive agreement checking of every driver against modular arithmetic."""

from __future__ import annotations

from functools import lru_cache
from typing import Callable, Mapping, NamedTuple

from .algorithms import ALGORITHMS
from .backends import ModularGroup
from .groups import NegationAwareGroup
from .recoding import recode

VERIFY_PRIMES = (5, 7, 11, 31, 97)

# no bundled prime lies below MIN_VERIFY_N or above MAX_VERIFY_N, so a smaller
# max_n would check nothing at all and a larger one nothing more
MIN_VERIFY_N, MAX_VERIFY_N = VERIFY_PRIMES[0], VERIFY_PRIMES[-1]

VERIFY_WIDTHS = (2, 3, 4)

MAX_MISMATCHES = 10

Driver = Callable[[int, int, NegationAwareGroup], int]


class Mismatch(NamedTuple):
    n: int
    D: int
    m: int
    algorithm: str
    got: int
    expected: int


def default_verify_algorithms() -> dict[str, Driver]:
    """Drivers keyed by id, each mapping (m, D, group) to the computed product.

    Every ALGORITHMS id runs on its default recoding, the windowed one once
    per width in VERIFY_WIDTHS. Recodings are cached across calls, so
    exhaustive sweeps recode each scalar once per form no matter how many
    moduli and bases they cover.
    """
    recode_of = lru_cache(maxsize=None)(recode)

    def driver(algo: str, width: int) -> Driver:
        forms, run = ALGORITHMS[algo]
        form = forms[0]

        def drive(m: int, D: int, group: NegationAwareGroup) -> int:
            if m == 0:
                return group.identity
            return run(recode_of(m, form, width), D, group, width, False).element

        return drive

    # the width reaches only the windowed driver; the others ignore it
    algorithms = {algo: driver(algo, 4) for algo in ALGORITHMS if algo != "window"}
    for w in VERIFY_WIDTHS:
        algorithms[f"window-w{w}"] = driver("window", w)
    return algorithms


def verify_universal_agreement(
    max_n: int = 97,
    multiplier: int = 4,
    algorithms: Mapping[str, Driver] | None = None,
) -> tuple[int, list[Mismatch]]:
    """Compare every driver against (m * D) mod n over the bundled prime moduli.

    Covers every prime n <= max_n from VERIFY_PRIMES, every base element D
    in Z/n, and every scalar m below multiplier * n. Returns the number of
    products checked and the mismatches found (capped at MAX_MISMATCHES).
    max_n, an int in [MIN_VERIFY_N, MAX_VERIFY_N], and multiplier, a positive
    int, are checked before anything runs.
    """
    for name, value in (("max_n", max_n), ("multiplier", multiplier)):
        if not isinstance(value, int) or isinstance(value, bool):
            raise ValueError(f"{name} must be an integer, got {value!r}")
    if not MIN_VERIFY_N <= max_n <= MAX_VERIFY_N:
        raise ValueError(f"max_n must be in [{MIN_VERIFY_N}, {MAX_VERIFY_N}], got {max_n}")
    if multiplier < 1:
        raise ValueError(f"multiplier must be positive, got {multiplier}")
    algs = dict(algorithms) if algorithms is not None else default_verify_algorithms()
    checked = 0
    mismatches: list[Mismatch] = []
    for n in (p for p in VERIFY_PRIMES if p <= max_n):
        group = ModularGroup(n)
        for m in range(multiplier * n):
            for D in range(n):
                expected = (m * D) % n
                for name, drive in algs.items():
                    got = drive(m, D, group)
                    checked += 1
                    if got != expected:
                        mismatches.append(Mismatch(n, D, m, name, got, expected))
                        if len(mismatches) >= MAX_MISMATCHES:
                            return checked, mismatches
    return checked, mismatches
