"""Exhaustive agreement checking of every driver against modular arithmetic.

For each scalar m, every driver runs once, in one lane group that holds every
modulus n still live at m (those with m < multiplier * n) side by side: one
int holds n residues of Z/n per live n, and the base passed in packs each
live n's (0, 1, ..., n - 1) end to end. No driver reads an element, so each
lane of the product is the residue the same driver makes from that lane's
base D in Z/n, and one run checks every live (n, D) against (m * D) mod n.
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
    """A product of groups Z/n_i as one int: lane i, at bit b * i, is Z/moduli[i].

    b is the least width with 2**(b - 1) >= 2 * max(moduli), so a lane holding
    the sum of two residues stays below bit b - 1 and never carries into the
    next lane. Each operation adds, subtracts or shifts, then reduces every
    lane from [0, 2n_i) to [0, n_i) without a branch: adding
    bias_i = 2**(b - 1) - n_i to lane i sets its bit b - 1 exactly when the
    lane is at or above n_i; that bit, spread over the lane by fill = 2**b - 1
    and masked by the packed moduli, is n_i in those lanes and 0 elsewhere.
    The fused operations are neg(add(.)) and neg(dbl(.)).
    """

    __slots__ = ("moduli", "width", "_moduli", "_bias", "_high", "_shift", "_fill")

    identity = 0

    def __init__(self, moduli: Iterable[int]) -> None:
        self.moduli = tuple(moduli)
        b = (2 * max(self.moduli) - 1).bit_length() + 1
        ones = sum(1 << (b * i) for i in range(len(self.moduli)))
        self.width, self._shift, self._fill = b, b - 1, (1 << b) - 1
        self._moduli = self.pack(self.moduli)
        self._bias = (ones << (b - 1)) - self._moduli
        self._high = ones << (b - 1)

    def pack(self, residues: Iterable[int]) -> int:
        """The element whose lane i holds residues[i], each in [0, moduli[i])."""
        b = self.width
        return sum(r << (b * i) for i, r in enumerate(residues))

    def unpack(self, element: int) -> list[int]:
        """The residue in each lane of element, lane 0 first."""
        b, mask = self.width, self._fill
        return [(element >> (b * i)) & mask for i in range(len(self.moduli))]

    def add(self, a: int, c: int) -> int:
        t = a + c
        return t - ((((t + self._bias) & self._high) >> self._shift) * self._fill & self._moduli)

    def dbl(self, a: int) -> int:
        t = a << 1
        return t - ((((t + self._bias) & self._high) >> self._shift) * self._fill & self._moduli)

    def neg(self, a: int) -> int:
        t = self._moduli - a
        return t - ((((t + self._bias) & self._high) >> self._shift) * self._fill & self._moduli)

    def neg_add(self, a: int, c: int) -> int:
        bias, high, shift, fill, moduli = self._bias, self._high, self._shift, self._fill, self._moduli
        t = a + c
        t = moduli - t + ((((t + bias) & high) >> shift) * fill & moduli)
        return t - ((((t + bias) & high) >> shift) * fill & moduli)

    def neg_dbl(self, a: int) -> int:
        bias, high, shift, fill, moduli = self._bias, self._high, self._shift, self._fill, self._moduli
        t = a << 1
        t = moduli - t + ((((t + bias) & high) >> shift) * fill & moduli)
        return t - ((((t + bias) & high) >> shift) * fill & moduli)

    def __repr__(self) -> str:
        return f"_Lanes({self.moduli!r})"


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
    max_n, an int in [MIN_VERIFY_N, MAX_VERIFY_N], multiplier, a positive
    int, and algorithms, which must hold at least one driver, are checked
    before anything runs.

    Each driver runs once per m, on the packed base of one _Lanes that holds
    every modulus n with m < multiplier * n side by side, n lanes each. When
    a run's product differs from the packed expected vector, each modulus's
    lanes are compared one by one in (D, driver) order into a tally of its
    own; the tallies are merged in modulus order, so the products counted
    and the mismatches listed are those of one run per (n, m, D, driver)
    taken modulus by modulus.
    """
    for name, value in (("max_n", max_n), ("multiplier", multiplier)):
        if not isinstance(value, int) or isinstance(value, bool):
            raise ValueError(f"{name} must be an integer, got {value!r}")
    if not MIN_VERIFY_N <= max_n <= MAX_VERIFY_N:
        raise ValueError(f"max_n must be in [{MIN_VERIFY_N}, {MAX_VERIFY_N}], got {max_n}")
    if multiplier < 1:
        raise ValueError(f"multiplier must be positive, got {multiplier}")
    algs = dict(algorithms) if algorithms is not None else default_verify_algorithms()
    if not algs:
        raise ValueError("algorithms must hold at least one driver, got none")
    names, drives = list(algs), list(algs.values())
    primes = [p for p in VERIFY_PRIMES if p <= max_n]
    # per modulus: products checked, and each mismatch with the count at it;
    # a modulus stops at its MAX_MISMATCHES-th, where the merge returns at the latest
    checked = dict.fromkeys(primes, 0)
    found: dict[int, list[tuple[int, Mismatch]]] = {n: [] for n in primes}
    start = 0
    for i, smallest in enumerate(primes):
        # the live moduli are those with m < multiplier * n, so the smallest
        # drops out first; those below smallest are done and smallest's tally
        # only grows, so once they hold the cap no later run changes the result
        settled = primes[: i + 1]
        if sum(len(found[n]) for n in settled) >= MAX_MISMATCHES:
            break
        live = primes[i:]
        group = _Lanes([n for n in live for _ in range(n)])
        bases = [D for n in live for D in range(n)]
        base = group.pack(bases)
        stop = multiplier * smallest
        for m in range(start, stop):
            residues = [(m * D) % n for n, D in zip(group.moduli, bases)]
            expected = group.pack(residues)
            products = [drive(m, base, group) for drive in drives]
            if products.count(expected) == len(products):
                for n in live:
                    checked[n] += n * len(products)
                continue
            # lane order is modulus order, then D: each lane's products in driver order
            lanes = zip(group.moduli, bases, residues, zip(*map(group.unpack, products)))
            for n, D, want, column in lanes:
                tally = found[n]
                for name, got in zip(names, column):
                    if len(tally) == MAX_MISMATCHES:
                        break
                    checked[n] += 1
                    if got != want:
                        tally.append((checked[n], Mismatch(n, D, m, name, got, want)))
            if sum(len(found[n]) for n in settled) >= MAX_MISMATCHES:
                break
        start = stop
    # the tallies taken modulus by modulus, up to the MAX_MISMATCHES-th mismatch
    total = 0
    mismatches: list[Mismatch] = []
    for n in primes:
        for at, mismatch in found[n]:
            mismatches.append(mismatch)
            if len(mismatches) == MAX_MISMATCHES:
                return total + at, mismatches
        total += checked[n]
    return total, mismatches
