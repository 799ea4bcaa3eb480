"""Scalar-multiplication drivers over a negation-aware group.

Every driver walks a signed-digit expansion most-significant digit first and
returns the product together with the shape of its run. One integer map,
_op_counts, affine in the sums of many runs' shapes, turns them into the
counts of the group operations performed, and a fresh ledger is made from
them on each read.
The negating drivers keep the intermediate result correct only up
to sign: a one-bit flag f counts negations mod 2 and maintains

    (-1)**f * E  ==  (value of the digits consumed so far) * D

after every step. Doublings become fused negate-doubles, digit additions
become fused negate-adds, and because the addend is picked from a table of
signed multiples {d: d*D} (the odd multiples and their negatives, whose
bound-1 case is the pair {D, -D}), the digit value never multiplies anything;
the bookkeeping is one integer flip per group operation.

All six drivers are one walk (_walk) fixed by their ALGORITHMS entry: which
steps are fused, the start policy (lookahead parity, or start at f = 0 and
negate once at the end), and the addend table.
"""

from __future__ import annotations

from collections import namedtuple

from .costs import CostLedger, _ledger
from .groups import Element, NegationAwareGroup
from .recoding import SignedExpansion, recode

TYPE_CHECKING = False
if TYPE_CHECKING:
    from collections.abc import Callable

MIXED_MODES = ("neg_doubling_only", "neg_addition_only")


class TraceStep(namedtuple("TraceStep", ("kind", "f", "element"))):
    """One recorded step: the operation, then the flag and element after it."""

    __slots__ = ()


class MulResult(namedtuple("MulResult", ("element", "shape", "trace"), defaults=(None,))):
    """Product element, the shape of the run that produced it, and its trace.

    shape is (entry, table_bound, length, weight, negative), then True when
    scalar_mul negated D first: the driver's ALGORITHMS entry, the bound of
    the table the walk built (None for none), the expansion's length and
    weight, and whether the walk stores -D for a negative digit alone.
    ledger counts the group operations a run from any base but the identity
    performs (an untraced run from the identity makes none, see _walk);
    table_ledger is the table's part of it, or None. Both are made from
    _op_counts on each read, so every read is a fresh ledger and a charge
    to one does not persist. _walk builds its results through tuple.__new__
    (_new_result), skipping the Python frame of the generated __new__,
    which every run would pay.
    """

    __slots__ = ()

    @property
    def ledger(self) -> CostLedger:
        return _ledger(self._counts()[0])

    @property
    def table_ledger(self) -> CostLedger | None:
        table = self._counts()[1]
        return None if table is None else _ledger(table)

    def _counts(self) -> tuple[tuple[int, ...], tuple[int, ...] | None]:
        entry, table_bound, length, weight, negative = self.shape[:5]
        odd, negated = entry._odd(length, weight), len(self.shape) > 5
        return _op_counts(entry, table_bound, 1, length, weight, negative, odd, negated)


def _op_counts(
    entry: Algorithm, table_bound: int | None, runs: int, length: int, weight: int,
    negative: int, odd: int, negated: int = 0,
) -> tuple[tuple[int, ...], tuple[int, ...] | None]:
    """The op counts, in OP_KINDS order, of `runs` walks of entry at one table bound.

    Also those of their tables, or None when table_bound is. The other
    arguments sum the runs' shape fields (negated: the runs with a negated
    base; odd: those Algorithm._odd finds odd); the counts are affine in them.
    Each walk builds its table (one dbl when it holds 3D, an add per further
    entry, a neg per entry), then makes length - 1 doublings and weight - 1
    additions of the kinds entry fuses or not, a closing neg when odd
    without lookahead, and a neg for a negated base. Shapes come only from
    _walk, which has accepted the expansion, and from scalar_mul, so nothing
    is checked.
    """
    _, _, fuse_dbl, fuse_add, lookahead, _ = entry
    if table_bound is None:
        table = (0, 0, runs if fuse_dbl or fuse_add else negative, 0, 0)
    else:
        entries = (table_bound + 1) // 2
        table = (runs * (entries - 1), runs * (entries > 1), runs * entries, 0, 0)
    doublings, additions = length - runs, weight - runs
    counts = (
        table[0] + (0 if fuse_add else additions),
        table[1] + (0 if fuse_dbl else doublings),
        table[2] + (0 if lookahead else odd) + negated,
        additions if fuse_add else 0,
        doublings if fuse_dbl else 0,
    )
    return counts, None if table_bound is None else table


# _new_result(MulResult, (element, shape, trace)) == MulResult(element, shape, trace)
_new_result = tuple.__new__


def _odd_multiples(D: Element, group: NegationAwareGroup, bound: int) -> dict[int, Element]:
    """Signed table r -> r*D and -r -> -(r*D) for odd r in [1, bound].

    Chain: 2D once, then successive additions; one negation per entry. Its
    bound-1 case is the pair {D, -D}. Every table _walk builds but {1: D}
    comes from here.
    """
    table = {1: D, -1: group.neg(D)}
    if bound >= 3:
        two_d = group.dbl(D)
        current = D
        for r in range(3, bound + 1, 2):
            current = group.add(current, two_d)
            table[r] = current
            table[-r] = group.neg(current)
    return table


def _walk(
    e: SignedExpansion, D: Element, group: NegationAwareGroup, trace: bool, entry: Algorithm
) -> MulResult:
    """The one left-to-right digit loop every driver runs, and its one acceptance rule.

    entry is the driver's ALGORITHMS entry, whose fields fix the walk. It
    refuses an empty e, and an e whose digit_bound exceeds its addend
    table's bound (1 when entry builds no table), before any group call.
    The loop counts nothing: the result records the run's shape (see
    MulResult) for _op_counts, which counts it unchecked, so these refusals
    are the only check a shape gets. The shape is e's stored length, weight
    and has_negative, so no digit is read to make it. Every driver run pays
    this function's fixed work, so untraced it makes no Python call but the
    group's and _odd_multiples; it reads the digits from their slot, and
    through the digits property only when the recoding deferred them.

    Every multiple of the identity is the identity, so an untraced walk
    whose D is group.identity returns D and its shape, after the refusals,
    with no group call and without reading the digits: a deferred digit
    tuple stays unbuilt. The test is `is`, so no element is read.

    With trace, the loop runs on _recording's wrappers of its dbl and add,
    which append each step with the flag after it; the init and final_neg
    steps are appended here. The group sees the same calls traced or not,
    except from the identity, which only a traced walk calls the group from.
    """
    _, _, fuse_dbl, fuse_add, lookahead, table_from = entry
    length = e.length
    if not length:
        raise ValueError("empty expansion: map m = 0 to the identity before dispatching")
    table_bound = e.digit_bound
    if table_from is None or table_bound < table_from:
        if table_bound > 1:
            raise ValueError(f"digit_bound {table_bound} exceeds the addend table's bound 1")
        table_bound = None
    # a negative digit matters only where nothing else stores -D
    negative = not (fuse_dbl or fuse_add) and table_bound is None and e.has_negative
    weight = e.weight
    shape = (entry, table_bound, length, weight, negative)
    if not trace and D is group.identity:
        # every multiple of the identity is the identity
        return _new_result(MulResult, (D, shape, None))
    digits = e._digits
    if digits is None:
        digits = e.digits
    if table_bound is not None or fuse_dbl or fuse_add or negative:
        table = _odd_multiples(D, group, table_bound or 1)
    else:
        table = {1: D}
    # Algorithm._odd inlined: every lookahead run pays for it
    f = ((length - 1) * fuse_dbl + (weight - 1) * fuse_add) % 2 if lookahead else 0
    dbl = group.neg_dbl if fuse_dbl else group.dbl
    add = group.neg_add if fuse_add else group.add
    E = table[-digits[0] if f else digits[0]]
    steps: list[TraceStep] | None = None
    if trace:
        steps = [TraceStep("init", f, E)]
        dbl, add = _recording(steps, f, dbl, add, fuse_dbl, fuse_add)
    for d in digits[1:]:
        E = dbl(E)
        f ^= fuse_dbl
        if d:
            E = add(E, table[-d if f else d])
            f ^= fuse_add
    if f:
        E = group.neg(E)
        if steps is not None:
            steps.append(TraceStep("final_neg", 0, E))
    return _new_result(MulResult, (E, shape, steps))


def _recording(
    steps: list[TraceStep],
    f: int,
    dbl: Callable[[Element], Element],
    add: Callable[[Element, Element], Element],
    fuse_dbl: bool,
    fuse_add: bool,
) -> tuple[Callable[[Element], Element], Callable[[Element, Element], Element]]:
    """dbl and add, each appending its TraceStep to steps after the call.

    f is the walk's starting flag; the wrappers flip their own copy as the
    walk flips its own, so each step records the flag after it.
    """
    dbl_kind = "neg_dbl" if fuse_dbl else "dbl"
    add_kind = "neg_add" if fuse_add else "add"

    def recorded_dbl(E: Element) -> Element:
        nonlocal f
        E = dbl(E)
        f ^= fuse_dbl
        steps.append(TraceStep(dbl_kind, f, E))
        return E

    def recorded_add(E: Element, A: Element) -> Element:
        nonlocal f
        E = add(E, A)
        f ^= fuse_add
        steps.append(TraceStep(add_kind, f, E))
        return E

    return recorded_dbl, recorded_add


def double_and_add(
    e: SignedExpansion,
    D: Element,
    group: NegationAwareGroup,
    *,
    trace: bool = False,
) -> MulResult:
    """Classical left-to-right double-and-add; the costing baseline.

    Accepts any nonempty expansion. Digit sets beyond {-1, 0, 1} get the
    windowed driver's table, so the two stay cost comparable.
    """
    return _walk(e, D, group, trace, ALGORITHMS["baseline"])


def neg_scalar_mul(
    e: SignedExpansion,
    D: Element,
    group: NegationAwareGroup,
    *,
    trace: bool = False,
) -> MulResult:
    """Fully fused sign-tracking scalar multiplication.

    Starts from (-1)**f * D with f = (length + weight) mod 2, which absorbs
    the loop's length - 1 fused doubles and weight - 1 fused adds, so the
    output needs no correction; the one other negation stores -D.
    """
    return _walk(e, D, group, trace, ALGORITHMS["neg"])


def neg_scalar_mul_online(
    e: SignedExpansion,
    D: Element,
    group: NegationAwareGroup,
    *,
    trace: bool = False,
) -> MulResult:
    """Sign-tracking multiplication that needs no lookahead.

    Starts from E = D, f = 0 without consulting the expansion's length or
    weight (the digits may be consumed as a stream) and repairs the sign at
    the end with one extra negation whenever the flag closes at 1, which
    happens for about half of all scalars.
    """
    return _walk(e, D, group, trace, ALGORITHMS["online"])


def mixed_scalar_mul(
    e: SignedExpansion,
    D: Element,
    group: NegationAwareGroup,
    mode: str,
    *,
    trace: bool = False,
) -> MulResult:
    """Sign tracking with only one of the two operations fused.

    neg_doubling_only: every doubling is a fused negate-double while digit
    additions stay plain adds of (-1)**f * d * D, so only doublings flip the
    flag; the starting parity (length - 1) mod 2 closes it at 0.

    neg_addition_only: doublings stay plain and every nonzero digit is a
    fused negate-add; the starting parity (weight - 1) mod 2 closes the flag
    at 0.
    """
    if mode not in MIXED_MODES:
        raise ValueError(f"unknown mode {mode!r}; expected one of {MIXED_MODES}")
    algo = "neg-dbl-only" if mode == "neg_doubling_only" else "neg-add-only"
    return _walk(e, D, group, trace, ALGORITHMS[algo])


def windowed_neg_scalar_mul(
    e: SignedExpansion,
    D: Element,
    group: NegationAwareGroup,
    *,
    trace: bool = False,
) -> MulResult:
    """Sign-tracking multiplication over the expansion's table of odd multiples.

    Precomputes r*D and -(r*D) for odd r up to e.digit_bound (2**(w-1) - 1
    for a width-w NAF); a nonzero digit then resolves (-1)**f * d * D by
    table lookup, and the sign is repaired at the end as online's is. Table
    construction is reported separately in table_ledger.
    """
    return _walk(e, D, group, trace, ALGORITHMS["window"])


class Algorithm(
    namedtuple("Algorithm", ("forms", "run", "fuse_dbl", "fuse_add", "lookahead", "table_from"))
):
    """A driver: its recoding forms, default first, its runner, and its walk's parameters.

    run(e, D, group, trace) calls the driver's function by global name, so
    rebinding a driver (to wrap or trace it) reaches every caller of the
    registry. _walk reads the rest. fuse_dbl / fuse_add: each doubling /
    digit addition is the fused negate-double / negate-add, which flips the
    sign flag f. lookahead: start at f = the parity of the loop's flips, so
    f closes at 0, else at f = 0 with one closing negation if f ends at 1.
    table_from: the least e.digit_bound at which the walk builds the
    odd-multiples table up to it, or None; below it, it takes only
    digit_bound 1 and adds D, or -D too when it can flip or meets a -1.
    """

    __slots__ = ()

    def _odd(self, length: int, weight: int) -> int:
        """The parity of the flips the loop makes over length digits, weight nonzero."""
        return ((length - 1) * self.fuse_dbl + (weight - 1) * self.fuse_add) % 2


# the recodings whose digits lie in {-1, 0, 1}; a width-w NAF needs a table
_UNIT_FORMS = ("naf", "binary")

ALGORITHMS: dict[str, Algorithm] = {
    "baseline": Algorithm(
        ("binary", "naf", "wnaf"), lambda e, D, g, t: double_and_add(e, D, g, trace=t),
        fuse_dbl=False, fuse_add=False, lookahead=True, table_from=2,
    ),
    "neg": Algorithm(
        _UNIT_FORMS, lambda e, D, g, t: neg_scalar_mul(e, D, g, trace=t),
        fuse_dbl=True, fuse_add=True, lookahead=True, table_from=None,
    ),
    "online": Algorithm(
        _UNIT_FORMS, lambda e, D, g, t: neg_scalar_mul_online(e, D, g, trace=t),
        fuse_dbl=True, fuse_add=True, lookahead=False, table_from=None,
    ),
    "neg-dbl-only": Algorithm(
        _UNIT_FORMS, lambda e, D, g, t: mixed_scalar_mul(e, D, g, "neg_doubling_only", trace=t),
        fuse_dbl=True, fuse_add=False, lookahead=True, table_from=None,
    ),
    "neg-add-only": Algorithm(
        _UNIT_FORMS, lambda e, D, g, t: mixed_scalar_mul(e, D, g, "neg_addition_only", trace=t),
        fuse_dbl=False, fuse_add=True, lookahead=True, table_from=None,
    ),
    "window": Algorithm(
        ("wnaf",), lambda e, D, g, t: windowed_neg_scalar_mul(e, D, g, trace=t),
        fuse_dbl=True, fuse_add=True, lookahead=False, table_from=1,
    ),
}

ALGORITHM_IDS = tuple(ALGORITHMS)

# the shape of a run that performs no group operation: the baseline's on the digit 1
_NO_OPS = (ALGORITHMS["baseline"], None, 1, 1, False)


def scalar_mul(
    m: int,
    D: Element,
    group: NegationAwareGroup,
    algo: str = "neg",
    *,
    form: str | None = None,
    width: int = 4,
    trace: bool = False,
) -> MulResult:
    """Recode m as the chosen driver requires and run it.

    Handles what the drivers refuse: m = 0 returns the identity, m = 1
    returns D, and a negative m negates the base first (one counted
    negation; an untraced run from group.identity skips the call, and its
    shape still records the negated base). `form` picks the recoding among
    the forms the driver's ALGORITHMS entry lists, the first when
    unspecified; a form the entry does not list, or a wnaf width that is not
    an int in [MIN_WIDTH, MAX_WIDTH], is an error whatever m is.
    """
    if algo not in ALGORITHMS:
        raise ValueError(f"unknown algorithm {algo!r}; expected one of {ALGORITHM_IDS}")
    if not isinstance(m, int) or isinstance(m, bool):
        raise ValueError(f"scalar must be an integer, got {m!r}")
    forms, run = ALGORITHMS[algo][:2]
    e = recode(abs(m), forms[0] if form is None else form, width)
    if form not in (None, *forms):
        listed = " or ".join(map(repr, forms))
        raise ValueError(f"algorithm {algo!r} runs on form {listed} only, got {form!r}")
    negative = m < 0
    if negative:
        # -O is O; keeping the identity object lets an untraced walk find it
        m = -m
        if trace or D is not group.identity:
            D = group.neg(D)
    if m <= 1:
        result = MulResult(D if m else group.identity, _NO_OPS)
    else:
        result = run(e, D, group, trace)
    if negative:
        result = result._replace(shape=(*result.shape, True))
    return result
