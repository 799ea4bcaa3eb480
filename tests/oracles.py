"""Independent brute-force references the library must agree with."""

from collections import defaultdict
from functools import cache, reduce
from random import Random

from negmul import OP_KINDS, ModularGroup, NegationAwareGroup
from negmul.verify import MAX_MISMATCHES, VERIFY_PRIMES, Mismatch

# 25 seeded scalars of exactly 4096 bits
SEEDED_4096 = [rng.getrandbits(4096) | 1 << 4095 for rng in [Random(2003)] for _ in range(25)]


class Opaque:
    """An element that can be passed around and nothing else.

    Its coefficient sits in a slot the drivers never read; comparing,
    hashing, truth-testing or indexing it raises, so a driver that looks at
    an element instead of only passing it to the group fails loudly.
    """

    __slots__ = ("coefficient",)

    def __init__(self, coefficient):
        self.coefficient = coefficient

    def _read(self, *args):
        raise AssertionError("a driver read an element")

    __eq__ = __bool__ = __hash__ = __index__ = _read


class FreeGroup(NegationAwareGroup):
    """The free group Z over Opaque elements, tallying its calls per operation kind.

    The drivers branch on digits, never on element values, so a run with
    D = Opaque(1) returns the integer coefficient the driver actually
    computed: it equals m exactly when the product is right in every group
    at once. A driver that reads an element fails on the Opaque, and calls
    shows which operations it made; a fused call counts once, as itself.
    Its identity is one fixed Opaque(0), which a walk can find with `is`.
    """

    def __init__(self):
        self.calls = dict.fromkeys(OP_KINDS, 0)
        self.zero = Opaque(0)

    @property
    def identity(self):
        return self.zero

    def add(self, a, b):
        self.calls["add"] += 1
        return Opaque(a.coefficient + b.coefficient)

    def dbl(self, a):
        self.calls["dbl"] += 1
        return Opaque(2 * a.coefficient)

    def neg(self, a):
        self.calls["neg"] += 1
        return Opaque(-a.coefficient)

    def neg_add(self, a, b):
        self.calls["neg_add"] += 1
        return Opaque(-(a.coefficient + b.coefficient))

    def neg_dbl(self, a):
        self.calls["neg_dbl"] += 1
        return Opaque(-2 * a.coefficient)


class PlainModular(NegationAwareGroup):
    """Z/n with only the required operations; the fused forms are the interface's defaults."""

    def __init__(self, n):
        self.n = n

    @property
    def identity(self):
        return 0

    def add(self, a, b):
        return (a + b) % self.n

    def dbl(self, a):
        return (a + a) % self.n

    def neg(self, a):
        return -a % self.n


def reference_width_w_naf(m, w):
    """Digits of the width-w NAF of m >= 0, most-significant first, one digit per step.

    The greedy right-to-left loop: an odd remainder gives its residue mod
    2**w mapped into (-2**(w-1), 2**(w-1)), an even one gives 0, then shift.
    """
    full, half = 1 << w, 1 << (w - 1)
    digits = []
    while m > 0:
        if m & 1:
            d = m % full
            if d >= half:
                d -= full
            m -= d
        else:
            d = 0
        digits.append(d)
        m >>= 1
    digits.reverse()
    return tuple(digits)


@cache
def digit_alphabet(bound):
    """The digits a SignedExpansion under bound may hold: -1, 0 and 1 at bound 1,
    else 0 and the odd digits of magnitude at most bound."""
    return (-1, 0, 1) if bound == 1 else (0, *(d for r in range(1, bound + 1, 2) for d in (r, -r)))


def digit_strings(bound, max_len, keep=lambda digits: True):
    """Every valid digit string under bound with a positive leading digit and at
    most max_len digits that keep holds of, shortest first; keep must hold of
    every prefix of a string it holds of, since a string it fails is not extended."""
    alphabet = digit_alphabet(bound)
    strings = [(d,) for d in alphabet if d > 0]
    for _ in range(max_len):
        strings = [digits for digits in strings if keep(digits)]
        yield from strings
        strings = [digits + (d,) for digits in strings for d in alphabet]


def nonadjacent_expansions(max_len):
    """All digit strings over {-1, 0, 1} with leading digit +1, no two adjacent
    nonzero digits, and length <= max_len, grouped by value.

    Strings with a leading -1 denote negative integers only and can never
    collide with a nonnegative scalar, so they are omitted; the zero scalar
    is carried by the empty string.
    """
    by_value = defaultdict(list)
    by_value[0].append(())
    for digits in digit_strings(1, max_len, lambda s: not (len(s) > 1 and s[-2] and s[-1])):
        by_value[reduce(lambda value, d: 2 * value + d, digits)].append(digits)
    return by_value


def min_window_weight(m, w, max_len):
    """Minimum nonzero-digit count over every expansion of m whose nonzero
    digits are odd with magnitude below 2**(w-1) and where any w consecutive
    positions hold at most one nonzero digit, using up to max_len positions.
    None when no such expansion exists.
    """
    bound = (1 << (w - 1)) - 1
    odd_digits = [d for mag in range(1, bound + 1, 2) for d in (mag, -mag)]
    best = None

    def search(pos, value, cooldown, weight):
        nonlocal best
        if best is not None and weight >= best:
            return
        if value == m:
            best = weight  # remaining positions stay zero
        if pos == max_len:
            return
        # remaining positions can move the value by at most this much
        span = bound * ((1 << max_len) - (1 << pos))
        if abs(m - value) > span:
            return
        search(pos + 1, value, max(0, cooldown - 1), weight)
        if cooldown == 0:
            for d in odd_digits:
                search(pos + 1, value + (d << pos), w - 1, weight + 1)

    search(0, 0, 0, 0)
    return best


def walk_sign_invariant(e, D, n, trace, dbl_kinds=("dbl", "neg_dbl"), add_kinds=("add", "neg_add")):
    """Assert (-1)**f * E == (digit prefix) * D at every traced step.

    Mod n over ModularGroup's int elements; with n = None exactly in Z, over
    FreeGroup's Opaque elements and the integer coefficient D of the base.
    Works for any driver's trace: init, then per digit position one doubling
    step (of dbl_kinds) and, for a nonzero digit, one addition step (of
    add_kinds), then an optional final negation.
    """

    def holds(step, prefix):
        if n is None:
            value = step.element.coefficient
            return (-value if step.f else value) == prefix * D
        return (-step.element if step.f else step.element) % n == prefix * D % n

    assert trace, "empty trace"
    prefix = e.digits[0]
    steps = iter(trace)
    first = next(steps)
    assert first.kind == "init", first.kind
    assert holds(first, prefix), ("init", e.digits)
    for d in e.digits[1:]:
        step = next(steps)
        assert step.kind in dbl_kinds, step.kind
        prefix *= 2
        assert holds(step, prefix), (step, e.digits)
        if d:
            step = next(steps)
            assert step.kind in add_kinds, step.kind
            prefix += d
            assert holds(step, prefix), (step, e.digits)
    rest = list(steps)
    if rest:
        assert [s.kind for s in rest] == ["final_neg"], rest
        assert holds(rest[0], prefix), (rest[0], e.digits)
    assert prefix == e.value


def reference_verify(max_n, multiplier, algorithms):
    """verify_universal_agreement's sweep with one run per (n, m, D, driver).

    Each driver runs on base D in ModularGroup(n) and its product is
    compared at once, so the count at the MAX_MISMATCHES-th mismatch and the
    order of the mismatches are those of the plain nested loop.
    """
    checked = 0
    mismatches = []
    for n in (p for p in VERIFY_PRIMES if p <= max_n):
        group = ModularGroup(n)
        for m in range(multiplier * n):
            for D in range(n):
                expected = (m * D) % n
                for name, drive in algorithms.items():
                    got = drive(m, D, group)
                    checked += 1
                    if got != expected:
                        mismatches.append(Mismatch(n, D, m, name, got, expected))
                        if len(mismatches) >= MAX_MISMATCHES:
                            return checked, mismatches
    return checked, mismatches
