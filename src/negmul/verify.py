"""Exhaustive agreement checking of every driver against modular arithmetic.

Every driver runs once per scalar m, in the group Z from base 1, which gives
an integer coefficient c. For each modulus n and base D in Z/n, k -> k * D mod n
maps Z into Z/n and keeps every group operation (add, dbl, neg, neg_add,
neg_dbl) and the identity. No driver reads an element, so the same driver
run on base D in Z/n returns (c * D) mod n, and one run per m checks every
(n, D) against (m * D) mod n.
"""

from __future__ import annotations

import operator
from collections import namedtuple
from collections.abc import Callable
from functools import lru_cache, partial

from .algorithms import ALGORITHMS
from .groups import NegationAwareGroup
from .recoding import recode

TYPE_CHECKING = False
if TYPE_CHECKING:
    from collections.abc import Mapping

VERIFY_PRIMES = (5, 7, 11, 31, 97)

# no bundled prime lies below MIN_VERIFY_N or above MAX_VERIFY_N, so a smaller
# max_n would check nothing at all and a larger one nothing more
MIN_VERIFY_N, MAX_VERIFY_N = VERIFY_PRIMES[0], VERIFY_PRIMES[-1]

VERIFY_WIDTHS = (2, 3, 4)

MAX_MISMATCHES = 10

# (m, D, group) -> m * D in group. verify passes the integers and D = 1, and
# maps the result into every Z/n, so a driver must treat elements as opaque:
# pass them to the group's operations and return one, never read, compare or
# build one. A walk from the identity object itself (found with `is`) returns
# it with no call; that is exactly m * 0, which the map to Z/n keeps too.
Driver = Callable[[int, int, NegationAwareGroup], int]


Mismatch = namedtuple("Mismatch", ("n", "D", "m", "algorithm", "got", "expected"))


class _Integers(NegationAwareGroup):
    """The group Z. Every operation but neg_add is a C builtin, so it costs no Python frame."""

    __slots__ = ()

    identity = 0
    add, neg = operator.add, operator.neg
    # staticmethod: from Python 3.14 on, a partial stored on a class binds self
    dbl = staticmethod(partial(operator.mul, 2))
    neg_dbl = staticmethod(partial(operator.mul, -2))

    @staticmethod
    def neg_add(a: int, b: int) -> int:
        return -(a + b)


_INTEGERS = _Integers()


def default_verify_algorithms() -> dict[str, Driver]:
    """Drivers keyed by id, each mapping (m, D, group) to the computed product.

    Every ALGORITHMS id runs on its default recoding, the windowed one once
    per width in VERIFY_WIDTHS. Recodings are cached, so the drivers on the
    same form and width share one recoding of each scalar.
    """
    recode_of = lru_cache(maxsize=None)(recode)

    def driver(algo: str, width: int) -> Driver:
        forms, run = ALGORITHMS[algo][:2]
        form = forms[0]

        def drive(m: int, D: int, group: NegationAwareGroup) -> int:
            if m == 0:
                return group.identity
            return run(recode_of(m, form, width), D, group, False).element

        return drive

    # the width reaches only the wnaf recoding, the default of the windowed driver alone
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

    The sweep goes modulus by modulus, m ascending. Each driver runs once per
    m, in Z from base 1, and its coefficient c gives every product (c * D) mod n.
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
    # runs[m]: every driver's coefficient at m, computed once for all moduli
    runs: list[list[int]] = []
    checked = 0
    mismatches: list[Mismatch] = []
    for n in (p for p in VERIFY_PRIMES if p <= max_n):
        for m in range(multiplier * n):
            if m == len(runs):
                runs.append([drive(m, 1, _INTEGERS) for drive in drives])
            if runs[m].count(m) == len(drives):
                checked += n * len(drives)
                continue
            for D in range(n):
                want = m * D % n
                for name, c in zip(names, runs[m]):
                    checked += 1
                    got = c * D % n
                    if got != want:
                        mismatches.append(Mismatch(n, D, m, name, got, want))
                        if len(mismatches) == MAX_MISMATCHES:
                            return checked, mismatches
    return checked, mismatches
