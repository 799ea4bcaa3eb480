"""Scalar-multiplication drivers over a negation-aware group.

Every driver walks a signed-digit expansion most-significant digit first and
returns the product together with the shape of its run. One memoised
integer formula, _shape_counts, turns a shape into the counts of the group
operations the run performed, and a fresh ledger is made from them on each
read.
The negating drivers keep the intermediate result correct only up
to sign: a one-bit flag f counts negations mod 2 and maintains

    (-1)**f * E  ==  (value of the digits consumed so far) * D

after every step. Doublings become fused negate-doubles, digit additions
become fused negate-adds, and because the addend is picked from a table of
signed multiples {d: d*D} (the odd multiples and their negatives, whose
bound-1 case is the pair {D, -D}), the digit value never multiplies anything;
the bookkeeping is one integer flip per group operation.

All six drivers are one walk (_walk) fixed by three choices: which steps are
fused, the start policy (lookahead parity, or start at f = 0 and negate once
at the end), and the addend table. ALGORITHMS maps each driver id to the
recoding forms it runs on, default first, and a runner for it.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable, NamedTuple

from .costs import CostLedger, _ledger
from .groups import Element, NegationAwareGroup
from .recoding import SignedExpansion, recode

MIXED_MODES = ("neg_doubling_only", "neg_addition_only")


class TraceStep(NamedTuple):
    """One recorded step: the operation, then the flag and element after it."""

    kind: str
    f: int
    element: Element


class MulResult(NamedTuple):
    """Product element, the shape of the run that produced it, and its trace.

    shape is what _shape_counts reads of the run. ledger counts the group
    operations a run from any base but the identity performs (an untraced
    run from the identity makes none, see _walk); table_ledger is the part
    of it spent building the odd-multiples table, or None when the run was
    given no table bound. Both are made from _shape_counts' memoised counts
    on each read, so every read is a fresh ledger and a charge to one does
    not persist.
    _walk builds its results through tuple.__new__ (_new_result), skipping
    the Python frame of the generated __new__, which every run would pay.
    """

    element: Element
    shape: tuple
    trace: list[TraceStep] | None = None

    @property
    def ledger(self) -> CostLedger:
        return _ledger(_shape_counts(self.shape)[0])

    @property
    def table_ledger(self) -> CostLedger | None:
        table = _shape_counts(self.shape)[1]
        return None if table is None else _ledger(table)


@lru_cache(maxsize=4096)
def _shape_counts(shape: tuple) -> tuple[tuple[int, ...], tuple[int, ...] | None]:
    """The op counts of one walk, and of its table, from the run's shape alone.

    Both are in OP_KINDS order; the table's are None when the run was given
    no table bound. The shape is (length, weight, negative, fuse_dbl,
    fuse_add, lookahead, table_bound), then True when scalar_mul negated D
    first: length and weight are the expansion's; negative says whether a
    digit is negative, which only a walk with neither a table nor a fused
    step reads; the rest are _walk's. The count: the odd-multiples table up
    to table_bound, or up to 1 (-D) when a step is fused or a digit is
    negative (one dbl when the bound is >= 3, entries - 1 adds and one neg
    per entry); length - 1 doublings and weight - 1 additions of the chosen
    kinds; a closing neg exactly when there is no lookahead and
    (length - 1) * fuse_dbl + (weight - 1) * fuse_add is odd; and a neg for
    a negated base. Its shapes come only from _walk, which has accepted the
    expansion, and from scalar_mul, so it checks none. Memoised per process
    (a fixed 4,096 shapes): the memo holds counts only, never prices, so it
    serves every profile and ratio, and every read makes its own ledger.
    """
    length, weight, negative, fuse_dbl, fuse_add, lookahead, table_bound = shape[:7]
    entries = 0
    if table_bound is not None or fuse_dbl or fuse_add or negative:
        entries = ((table_bound or 1) + 1) // 2
    table_adds, table_dbls = max(entries - 1, 0), int(entries > 1)
    doublings, additions = length - 1, weight - 1
    closing_neg = not lookahead and (doublings * fuse_dbl + additions * fuse_add) % 2
    run = (
        table_adds + (0 if fuse_add else additions),
        table_dbls + (0 if fuse_dbl else doublings),
        entries + closing_neg + (shape[7:] == (True,)),
        additions if fuse_add else 0,
        doublings if fuse_dbl else 0,
    )
    return run, None if table_bound is None else (table_adds, table_dbls, entries, 0, 0)


# the shape of a run that performs no group operation
_NO_OPS = (1, 1, False, False, False, True, None)

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
    e: SignedExpansion,
    D: Element,
    group: NegationAwareGroup,
    trace: bool,
    *,
    fuse_dbl: bool,
    fuse_add: bool,
    lookahead: bool,
    table_bound: int | None = None,
) -> MulResult:
    """The one left-to-right digit loop every driver runs, and its one acceptance rule.

    It refuses an empty e, and an e with digit_bound > (table_bound or 1),
    before any group call. fuse_dbl / fuse_add pick the fused negate-double
    / negate-add, each of which flips f. With lookahead the walk starts at
    f = ((length - 1) * fuse_dbl + (weight - 1) * fuse_add) mod 2, which
    absorbs every flip the loop makes, so the flag closes at 0; without it
    the walk starts at f = 0 and negates once at the end if the flag closes
    at 1. The addends are the one table policy, the table _shape_counts
    counts: _odd_multiples up to table_bound, or up to 1 ({D, -D}) when
    the walk can flip or a digit is negative, else D alone. The drivers pass
    table_bound=e.digit_bound or none, so the expansion owns its table.
    The loop counts nothing: the result records the run's shape (length,
    the weight e's recoding stored, negative and these parameters) for
    _shape_counts, which counts it unchecked, so these refusals are the
    only check a shape gets; no digit is scanned to count it. Every driver
    run pays this function's fixed work, so untraced it makes no Python call
    but the group's and _odd_multiples.

    Every multiple of the identity is the identity, so an untraced walk
    whose D is group.identity returns D and its shape, after the refusals,
    with no group call. The test is `is`, so no element is read.

    With trace, the loop runs on _recording's wrappers of its dbl and add,
    which append each step with the flag after it; the init and final_neg
    steps are appended here. The group sees the same calls traced or not,
    except from the identity, which only a traced walk calls the group from.
    """
    digits = e.digits
    if not digits:
        raise ValueError("empty expansion: map m = 0 to the identity before dispatching")
    if e.digit_bound > (bound := table_bound or 1):
        raise ValueError(f"digit_bound {e.digit_bound} exceeds the addend table's bound {bound}")
    # a negative digit matters only where nothing else stores -D
    negative = not (fuse_dbl or fuse_add) and table_bound is None and -1 in digits
    length, weight = len(digits), e.weight
    shape = (length, weight, negative, fuse_dbl, fuse_add, lookahead, table_bound)
    if not trace and D is group.identity:
        # every multiple of the identity is the identity
        return _new_result(MulResult, (D, shape, None))
    if table_bound is not None or fuse_dbl or fuse_add or negative:
        table = _odd_multiples(D, group, bound)
    else:
        table = {1: D}
    f = 0
    if lookahead:
        f = ((length - 1) * fuse_dbl + (weight - 1) * fuse_add) % 2
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
    odd-multiples table up to e.digit_bound, the one the windowed driver
    builds, so the two stay cost comparable; for signed binary digits only
    -D is precomputed, and only when a negative digit actually occurs.
    """
    bound = e.digit_bound if e.digit_bound > 1 else None
    return _walk(
        e, D, group, trace, fuse_dbl=False, fuse_add=False, lookahead=True, table_bound=bound
    )


def neg_scalar_mul(
    e: SignedExpansion,
    D: Element,
    group: NegationAwareGroup,
    *,
    trace: bool = False,
) -> MulResult:
    """Fully fused sign-tracking scalar multiplication.

    Starts from (-1)**f * D with f = (length + weight) mod 2; that initial
    parity absorbs the length + weight - 2 negations the loop introduces, so
    the flag always closes at 0 and the output needs no correction. The loop
    performs exactly length - 1 fused doubles and weight - 1 fused adds, on
    top of the single negation that stores -D.
    """
    return _walk(e, D, group, trace, fuse_dbl=True, fuse_add=True, lookahead=True)


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
    return _walk(e, D, group, trace, fuse_dbl=True, fuse_add=True, lookahead=False)


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
    fuse_dbl = mode == "neg_doubling_only"
    return _walk(e, D, group, trace, fuse_dbl=fuse_dbl, fuse_add=not fuse_dbl, lookahead=True)


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
    table lookup. The sign runs in the no-lookahead style: start at the
    leading digit's table entry with f = 0 and negate once at the end if the
    flag closes at 1. Table construction is reported separately in
    table_ledger.
    """
    return _walk(
        e, D, group, trace, fuse_dbl=True, fuse_add=True, lookahead=False, table_bound=e.digit_bound
    )


class Algorithm(NamedTuple):
    """A driver's recoding forms, default first, and its runner (e, D, group, trace).

    The runner takes its table, if any, from the expansion: a wnaf
    recoding's width is already in e.digit_bound.
    """

    forms: tuple[str, ...]
    run: Callable[[SignedExpansion, Element, NegationAwareGroup, bool], MulResult]


# the recodings whose digits lie in {-1, 0, 1}; a width-w NAF needs a table
_UNIT_FORMS = ("naf", "binary")

# Each runner looks its driver up by global name at call time, so rebinding a
# driver here (to wrap or trace it) reaches every caller of the registry.
ALGORITHMS: dict[str, Algorithm] = {
    "baseline": Algorithm(
        ("binary", "naf", "wnaf"), lambda e, D, g, t: double_and_add(e, D, g, trace=t)
    ),
    "neg": Algorithm(_UNIT_FORMS, lambda e, D, g, t: neg_scalar_mul(e, D, g, trace=t)),
    "online": Algorithm(
        _UNIT_FORMS, lambda e, D, g, t: neg_scalar_mul_online(e, D, g, trace=t)
    ),
    "neg-dbl-only": Algorithm(
        _UNIT_FORMS, lambda e, D, g, t: mixed_scalar_mul(e, D, g, "neg_doubling_only", trace=t)
    ),
    "neg-add-only": Algorithm(
        _UNIT_FORMS, lambda e, D, g, t: mixed_scalar_mul(e, D, g, "neg_addition_only", trace=t)
    ),
    "window": Algorithm(
        ("wnaf",), lambda e, D, g, t: windowed_neg_scalar_mul(e, D, g, trace=t)
    ),
}

ALGORITHM_IDS = tuple(ALGORITHMS)


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
    forms, run = ALGORITHMS[algo]
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
