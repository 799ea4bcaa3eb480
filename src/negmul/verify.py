"""Exhaustive agreement checking of every driver against modular arithmetic.

For each modulus n and scalar m, every driver runs once, in the lane group
(Z/n)^n: one int holds n residues, and the base passed in is the packed
vector (0, 1, ..., n - 1). No driver reads an element, so lane D of the
product is the residue the same driver makes from base D in Z/n, and one run
checks n products against (m * D) mod n.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable, Iterable, Mapping, NamedTuple

from .algorithms import ALGORITHMS
from .groups import NegationAwareGroup
from .recoding import recode

VERIFY_PRIMES = (5, 7, 11, 31, 97)

# no bundled prime lies below MIN_VERIFY_N or above MAX_VERIFY_N, so a smaller
# max_n would check nothing at all and a larger one nothing more
MIN_VERIFY_N, MAX_VERIFY_N = VERIFY_PRIMES[0], VERIFY_PRIMES[-1]

VERIFY_WIDTHS = (2, 3, 4)

MAX_MISMATCHES = 10

# (m, D, group) -> m * D in group. verify passes a lane group and its packed
# base vector, so a driver must treat elements as opaque: pass them to the
# group's operations and return one, never read, compare or build one.
Driver = Callable[[int, int, NegationAwareGroup], int]


class Mismatch(NamedTuple):
    n: int
    D: int
    m: int
    algorithm: str
    got: int
    expected: int


class _Lanes(NegationAwareGroup):
    """(Z/n)^n as one int: residue i in the b-bit lane at bit b * i.

    b is the least width with 2**(b - 1) >= 2n, so a lane holding the sum of
    two residues stays below bit b - 1 and never carries into the next lane.
    Each operation adds, subtracts or shifts, then reduces every lane from
    [0, 2n) to [0, n) without a branch: adding bias = 2**(b - 1) - n to every
    lane sets bit b - 1 exactly in the lanes at or above n, and n is
    subtracted from those. The fused operations are neg(add(.)) and
    neg(dbl(.)).
    """

    __slots__ = ("n", "width", "base", "_moduli", "_bias", "_high", "_shift")

    identity = 0

    def __init__(self, n: int) -> None:
        b = (2 * n - 1).bit_length() + 1
        ones = sum(1 << (b * i) for i in range(n))
        self.n, self.width, self._shift = n, b, b - 1
        self.base = self.pack(range(n))
        self._moduli = n * ones
        self._bias = ((1 << (b - 1)) - n) * ones
        self._high = ones << (b - 1)

    def pack(self, residues: Iterable[int]) -> int:
        """The element whose lane i holds residues[i], each in [0, n)."""
        b = self.width
        return sum(r << (b * i) for i, r in enumerate(residues))

    def lane(self, element: int, i: int) -> int:
        return (element >> (self.width * i)) & ((1 << self.width) - 1)

    def add(self, a: int, c: int) -> int:
        t = a + c
        return t - (((t + self._bias) & self._high) >> self._shift) * self.n

    def dbl(self, a: int) -> int:
        t = a << 1
        return t - (((t + self._bias) & self._high) >> self._shift) * self.n

    def neg(self, a: int) -> int:
        t = self._moduli - a
        return t - (((t + self._bias) & self._high) >> self._shift) * self.n

    def neg_add(self, a: int, c: int) -> int:
        bias, high, shift, n = self._bias, self._high, self._shift, self.n
        t = a + c
        t = self._moduli - t + (((t + bias) & high) >> shift) * n
        return t - (((t + bias) & high) >> shift) * n

    def neg_dbl(self, a: int) -> int:
        bias, high, shift, n = self._bias, self._high, self._shift, self.n
        t = a << 1
        t = self._moduli - t + (((t + bias) & high) >> shift) * n
        return t - (((t + bias) & high) >> shift) * n

    def __repr__(self) -> str:
        return f"_Lanes({self.n})"


def default_verify_algorithms() -> dict[str, Driver]:
    """Drivers keyed by id, each mapping (m, D, group) to the computed product.

    Every ALGORITHMS id runs on its default recoding, the windowed one once
    per width in VERIFY_WIDTHS. Recodings are cached across calls, so
    exhaustive sweeps recode each scalar once per form no matter how many
    moduli they cover.
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

    Each driver runs once per (n, m), on the packed base of _Lanes(n). When
    a run's product differs from the packed expected vector, its lanes are
    compared one by one in (D, driver) order, so the products counted and
    the mismatches listed are those of one run per (n, m, D, driver).
    """
    for name, value in (("max_n", max_n), ("multiplier", multiplier)):
        if not isinstance(value, int) or isinstance(value, bool):
            raise ValueError(f"{name} must be an integer, got {value!r}")
    if not MIN_VERIFY_N <= max_n <= MAX_VERIFY_N:
        raise ValueError(f"max_n must be in [{MIN_VERIFY_N}, {MAX_VERIFY_N}], got {max_n}")
    if multiplier < 1:
        raise ValueError(f"multiplier must be positive, got {multiplier}")
    algs = dict(algorithms) if algorithms is not None else default_verify_algorithms()
    names, drives = list(algs), list(algs.values())
    checked = 0
    mismatches: list[Mismatch] = []
    for n in (p for p in VERIFY_PRIMES if p <= max_n):
        group = _Lanes(n)
        base = group.base
        for m in range(multiplier * n):
            residues = [(m * D) % n for D in range(n)]
            expected = group.pack(residues)
            products = [drive(m, base, group) for drive in drives]
            if products.count(expected) == len(products):
                checked += n * len(products)
                continue
            for D, want in enumerate(residues):
                for name, product in zip(names, products):
                    got = group.lane(product, D)
                    checked += 1
                    if got != want:
                        mismatches.append(Mismatch(n, D, m, name, got, want))
                        if len(mismatches) >= MAX_MISMATCHES:
                            return checked, mismatches
    return checked, mismatches
