"""Tests for the scalar-multiplication drivers."""

import random
from collections import Counter
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from negmul import (
    ALGORITHM_IDS,
    ALGORITHMS,
    RECODING_FORMS,
    ModularGroup,
    PICARD_PROFILE,
    CostChargingGroup,
    CostLedger,
    SignedExpansion,
    binary_expansion,
    double_and_add,
    mixed_scalar_mul,
    naf,
    neg_scalar_mul,
    neg_scalar_mul_online,
    prices_of,
    scalar_mul,
    verify_universal_agreement,
    width_w_naf,
    windowed_neg_scalar_mul,
)
from negmul import algorithms
from negmul.algorithms import _UNIT_FORMS, _odd_multiples, _op_counts
from negmul.recoding import MAX_WIDTH, MIN_WIDTH, recode
from negmul.verify import _INTEGERS, MAX_MISMATCHES, VERIFY_PRIMES, default_verify_algorithms

from oracles import (
    SEEDED_4096, FreeGroup, Opaque, digit_alphabet, digit_strings, reference_verify, walk_sign_invariant,
)


def counts(ledger):
    return {k: v for k, v in ledger.counts().items() if v}


def test_double_and_add_examples():
    g = ModularGroup(7)
    res = double_and_add(naf(3), 1, g)
    assert res.element == 3
    assert counts(res.ledger) == {"dbl": 2, "add": 1, "neg": 1}

    res = double_and_add(SignedExpansion((1,)), 5, g)
    assert res.element == 5
    assert counts(res.ledger) == {}

    res = double_and_add(binary_expansion(6), 2, ModularGroup(11))
    assert res.element == 1
    assert counts(res.ledger) == {"dbl": 2, "add": 1}


def test_double_and_add_empty_expansion():
    with pytest.raises(ValueError, match="^empty expansion: map m = 0 to the identity"):
        double_and_add(SignedExpansion(()), 3, ModularGroup(11))


def test_double_and_add_operation_counts():
    g = ModularGroup(101)
    rng = random.Random(3)
    for _ in range(50):
        m = rng.randrange(2, 1 << 64)
        e = naf(m)
        res = double_and_add(e, 17, g)
        assert res.element == (m * 17) % 101
        assert res.ledger.count("dbl") == e.length - 1
        assert res.ledger.count("add") == e.weight - 1
        assert res.ledger.count("neg") == (1 if any(d < 0 for d in e.digits) else 0)


def test_neg_scalar_mul_hand_trace_m3():
    # naf(3) = (1, 0, -1) over n = 7 with D = 1: start at -D with f = 1,
    # fused double to 2D, fused double to -4D, fused add of D back to 3D.
    res = neg_scalar_mul(naf(3), 1, ModularGroup(7), trace=True)
    assert res.element == 3
    assert [(s.kind, s.f, s.element) for s in res.trace] == [
        ("init", 1, 6),
        ("neg_dbl", 0, 2),
        ("neg_dbl", 1, 3),
        ("neg_add", 0, 3),
    ]
    assert counts(res.ledger) == {"neg": 1, "neg_dbl": 2, "neg_add": 1}


def test_neg_scalar_mul_hand_trace_m2():
    res = neg_scalar_mul(SignedExpansion((1, 0)), 1, ModularGroup(5), trace=True)
    assert res.element == 2
    assert [(s.kind, s.f, s.element) for s in res.trace] == [
        ("init", 1, 4),
        ("neg_dbl", 0, 2),
    ]


def test_neg_scalar_mul_single_digit():
    res = neg_scalar_mul(SignedExpansion((1,)), 9, ModularGroup(13), trace=True)
    assert res.element == 9
    assert res.trace == [("init", 0, 9)]
    assert counts(res.ledger) == {"neg": 1}


def test_neg_scalar_mul_rejects_bad_expansions():
    g = ModularGroup(7)
    with pytest.raises(ValueError, match="empty expansion"):
        neg_scalar_mul(SignedExpansion(()), 1, g)
    # the declared bound decides, not the digits: (1,) under bound 3 is refused too
    for digits in ((3,), (1, 0, 0, 3), (1,), (1, 0, -1)):
        with pytest.raises(ValueError) as exc:
            neg_scalar_mul(SignedExpansion(digits, digit_bound=3), 1, g)
        assert str(exc.value) == "digit_bound 3 exceeds the addend table's bound 1"


def test_online_examples():
    res = neg_scalar_mul_online(SignedExpansion((1, 0)), 1, ModularGroup(5), trace=True)
    assert res.element == 2
    assert [(s.kind, s.f, s.element) for s in res.trace] == [
        ("init", 0, 1),
        ("neg_dbl", 1, 3),
        ("final_neg", 0, 2),
    ]
    assert counts(res.ledger) == {"neg": 2, "neg_dbl": 1}

    res = neg_scalar_mul_online(SignedExpansion((1,)), 4, ModularGroup(9))
    assert res.element == 4
    assert counts(res.ledger) == {"neg": 1}


def test_mixed_ledger_examples():
    g = ModularGroup(7)
    res = mixed_scalar_mul(naf(3), 1, g, "neg_doubling_only")
    assert res.element == 3
    assert counts(res.ledger) == {"neg": 1, "neg_dbl": 2, "add": 1}

    res = mixed_scalar_mul(naf(3), 1, g, "neg_addition_only")
    assert res.element == 3
    assert counts(res.ledger) == {"neg": 1, "dbl": 2, "neg_add": 1}


def test_mixed_rejects_unknown_mode():
    with pytest.raises(ValueError, match="unknown mode"):
        mixed_scalar_mul(naf(3), 1, ModularGroup(7), "neg_everything")


def test_windowed_examples():
    res = windowed_neg_scalar_mul(width_w_naf(7, 3), 1, ModularGroup(13))
    assert res.element == 7

    res = windowed_neg_scalar_mul(SignedExpansion((3,), digit_bound=3), 1, ModularGroup(7))
    assert res.element == 3
    assert counts(res.ledger) == {"dbl": 1, "add": 1, "neg": 2}
    assert res.table_ledger == res.ledger  # no loop iterations, no final negation

    # the table reaches the expansion's declared bound, not its largest digit
    e = width_w_naf(3, 5)
    assert e.digit_bound == 15 and e.digits == (3,)
    res = windowed_neg_scalar_mul(e, 1, ModularGroup(13))
    assert res.element == 3
    assert counts(res.table_ledger) == {"dbl": 1, "add": 7, "neg": 8}


def test_windowed_table_costs():
    g = ModularGroup(1009)
    res = windowed_neg_scalar_mul(width_w_naf(1000, 4), 1, g)
    assert res.element == 1000 % 1009
    table = res.table_ledger
    assert counts(table) == {"dbl": 1, "add": 3, "neg": 4}
    # table charges are contained in the full ledger
    for kind in ("dbl", "add", "neg"):
        assert res.ledger.count(kind) >= table.count(kind)


def test_windowed_matches_online_for_width_2():
    g = ModularGroup(8191)
    for m in range(1, 1 << 12):
        e = naf(m)
        from_window = windowed_neg_scalar_mul(e, 1, g)
        from_online = neg_scalar_mul_online(e, 1, g)
        assert from_window.element == from_online.element
        assert from_window.ledger == from_online.ledger


def test_windowed_rejects_bad_input():
    g = ModularGroup(13)
    with pytest.raises(ValueError, match="empty expansion"):
        windowed_neg_scalar_mul(SignedExpansion(()), 1, g)
    # the table's bound is the expansion's: there is no width to pass
    with pytest.raises(TypeError):
        windowed_neg_scalar_mul(naf(5), 1, g, 3)


def test_drivers_accept_by_declared_digit_bound():
    """Acceptance reads the driver and digit_bound, never the digit values:
    at every width's bound, window and the baseline take (1,), building
    their table up to the bound, and the four {-1, 0, 1} drivers refuse it
    above 1, though its digit fits every table."""
    for bound in WNAF_BOUNDS:
        e = SignedExpansion((1,), bound)
        for algo, entry in ALGORITHMS.items():
            if bound > 1 and entry.table_from is None:
                assert_refused(algo, e)
            else:
                assert_driver_contract(algo, e)


def test_ledger_decomposition_under_picard_costs():
    g = CostChargingGroup(ModularGroup(8191), PICARD_PROFILE)
    rng = random.Random(21)
    for _ in range(20):
        m = rng.randrange(2, 1 << 96)
        e = naf(m)
        ledger = neg_scalar_mul(e, 1, g).ledger
        expected = (
            PICARD_PROFILE.neg_dbl_cost.scaled(e.length - 1)
            + PICARD_PROFILE.neg_add_cost.scaled(e.weight - 1)
            + PICARD_PROFILE.neg_cost
        )
        assert ledger.total(prices_of(g)) == expected


def test_scalar_mul_entry_special_cases():
    g = ModularGroup(31)
    for algo in ALGORITHM_IDS:
        res = scalar_mul(0, 7, g, algo)
        assert res.element == g.identity
        assert counts(res.ledger) == {}
        res = scalar_mul(1, 7, g, algo)
        assert res.element == 7
        assert counts(res.ledger) == {}
        res = scalar_mul(25, 1, g, algo, width=3)
        assert res.element == 25
        for bad in (True, False, 1.0, 0.0, -1.0, -2.0):
            with pytest.raises(ValueError, match=f"scalar must be an integer, got {bad!r}$"):
                scalar_mul(bad, 7, g, algo)


def test_scalar_mul_entry_negative_scalar():
    g = ModularGroup(31)
    for algo in ALGORITHM_IDS:
        res = scalar_mul(-7, 2, g, algo)
        assert res.element == (-7 * 2) % 31
        assert res.ledger.count("neg") >= 1
    res = scalar_mul(-1, 2, g, "neg")
    assert res.element == 29
    assert counts(res.ledger) == {"neg": 1}


def test_scalar_mul_entry_form_override():
    g = ModularGroup(103)
    on_binary = scalar_mul(45, 2, g, "baseline")
    on_naf = scalar_mul(45, 2, g, "baseline", form="naf")
    assert on_binary.element == on_naf.element == 90 % 103
    assert on_binary.ledger.count("neg") == 0
    assert on_naf.ledger.count("neg") == 1  # naf(45) contains a negative digit
    on_wnaf = scalar_mul(45, 2, g, "baseline", form="wnaf", width=4)
    assert on_wnaf.element == 90 % 103
    assert on_wnaf.table_ledger is not None


def test_scalar_mul_entry_rejects_unknown_selectors():
    g = ModularGroup(7)
    with pytest.raises(ValueError, match="unknown algorithm"):
        scalar_mul(5, 1, g, "ladder")
    with pytest.raises(ValueError, match="unknown recoding form"):
        scalar_mul(5, 1, g, "neg", form="base3")


SCALARS_AROUND_THE_SHORTCUTS = (-5, -1, 0, 1, 5, 17)


def test_scalar_mul_window_rejects_other_forms():
    # every registry entry refuses every form it does not list, whatever m is
    g = ModularGroup(101)
    for m in SCALARS_AROUND_THE_SHORTCUTS:
        for algo, (forms, *_) in ALGORITHMS.items():
            with pytest.raises(ValueError, match="unknown recoding form 'bogus'"):
                scalar_mul(m, 1, g, algo, form="bogus")
            listed = " or ".join(repr(f) for f in forms)
            for form in RECODING_FORMS:
                if form in forms:
                    assert scalar_mul(m, 1, g, algo, form=form).element == m % 101
                else:
                    message = f"algorithm {algo!r} runs on form {listed} only, got {form!r}$"
                    with pytest.raises(ValueError, match=message):
                        scalar_mul(m, 1, g, algo, form=form)
            assert scalar_mul(m, 1, g, algo).element == m % 101
    assert ALGORITHMS["neg"].forms == ("naf", "binary")
    with pytest.raises(ValueError, match="^algorithm 'window' runs on form 'wnaf' only, got 'naf'$"):
        scalar_mul(17, 1, g, "window", form="naf")
    with pytest.raises(ValueError, match="runs on form 'naf' or 'binary' only, got 'wnaf'$"):
        scalar_mul(17, 1, g, "neg", form="wnaf")


def test_scalar_mul_rejects_bad_widths_whatever_the_scalar():
    g = ModularGroup(101)
    for m in SCALARS_AROUND_THE_SHORTCUTS:
        for algo, form in (("window", None), ("window", "wnaf"), ("baseline", "wnaf")):
            for width in (MIN_WIDTH - 1, MAX_WIDTH + 1):
                with pytest.raises(ValueError, match=f"^width must be in \\[2, 16\\], got {width}$"):
                    scalar_mul(m, 1, g, algo, form=form, width=width)
            for width in (3.0, True):
                with pytest.raises(ValueError, match=f"^width must be an integer, got {width}$"):
                    scalar_mul(m, 1, g, algo, form=form, width=width)
            for width in (MIN_WIDTH, MAX_WIDTH):
                assert scalar_mul(m, 1, g, algo, form=form, width=width).element == m % 101
        # the width reaches only the wnaf recoding
        assert scalar_mul(m, 1, g, "neg", width=MIN_WIDTH - 1).element == m % 101


# every registry entry on every form it lists, wnaf at widths 2-16
CONTRACT_RUNS = [
    (algo, form, width)
    for algo, (forms, *_) in ALGORITHMS.items()
    for form in forms
    for width in (range(MIN_WIDTH, MAX_WIDTH + 1) if form == "wnaf" else (4,))
]
# bench's group: the one-element group Z/1 in the charging wrapper
TRIVIAL = CostChargingGroup(ModularGroup(1), PICARD_PROFILE)
# the digit_bound of a width-w NAF, for every width; the entries with no
# table_from take bound 1 only
WNAF_BOUNDS = [(1 << (w - 1)) - 1 for w in range(MIN_WIDTH, MAX_WIDTH + 1)]
DRIVER_RUNS = [
    (algo, b) for b in WNAF_BOUNDS for algo, entry in ALGORITHMS.items() if b == 1 or entry.table_from
]


def test_opaque_elements_raise_when_read():
    D = Opaque(1)
    for reads in (D.__eq__, bool, hash, [0, 1].__getitem__):
        with pytest.raises(AssertionError, match="read an element"):
            reads(D)


def step_kinds(entry):
    """The kinds of the entry's loop steps: its doubling's, then its addition's."""
    return ("neg_dbl" if entry.fuse_dbl else "dbl",), ("neg_add" if entry.fuse_add else "add",)


def assert_driver_contract(algo, e, traced=True):
    """The driver contract on one digit string e.

    The exact coefficient with no element read, and a ledger that counts the
    group calls made; from the identity object, bench's of Z/1 included,
    the shape of that run with no group call. Traced, the run goes through
    the charging wrapper, which passes each call on once, and shows the sign
    invariant at every step, of the entry's kinds, and its start and closing
    flags, which Algorithm._odd gives.
    """
    entry, run = ALGORITHMS[algo], (algo, e)
    g = FreeGroup()
    res = entry.run(e, Opaque(1), CostChargingGroup(g, PICARD_PROFILE) if traced else g, traced)
    assert (res.element.coefficient, res.ledger.counts()) == (e.value, g.calls), run
    assert entry.run(e, TRIVIAL.identity, TRIVIAL, False)[:2] == (0, res.shape), run
    zero = FreeGroup()
    got = entry.run(e, zero.identity, zero, False)
    assert (got.element is zero.zero, got.shape, got.trace) == (True, res.shape, None), run
    assert not any(zero.calls.values()), run
    assert (res.trace is not None) == traced, run
    if not traced:
        return
    walk_sign_invariant(e, 1, None, res.trace, *step_kinds(entry))
    # no table is built with fused steps, so each fused call is a traced step
    fused = ((e.length - 1) * entry.fuse_dbl, (e.weight - 1) * entry.fuse_add)
    assert (g.calls["neg_dbl"], g.calls["neg_add"]) == fused, run
    odd = sum(fused) % 2
    # the parity the ledger's closing negation and bench's sums read
    assert entry._odd(e.length, e.weight) == odd, run
    start, closing = (odd, False) if entry.lookahead else (0, odd == 1)
    first, last = res.trace[0], res.trace[-1]
    assert (first.f, last.kind == "final_neg", last.f) == (start, closing, 0), run


def assert_refused(algo, e):
    """algo refuses e, empty or above bound 1, before any group call, from the identity too."""
    message = f"digit_bound {e.digit_bound} exceeds the addend table's bound 1"
    if not e.length:
        message = "empty expansion: map m = 0 to the identity before dispatching"
    g = FreeGroup()
    for D in (Opaque(1), g.identity):
        try:
            ALGORITHMS[algo].run(e, D, g, False)
        except ValueError as exc:
            assert str(exc) == message, (algo, e)
        else:
            raise AssertionError(f"{algo} took {e}")
    assert not any(g.calls.values()), (algo, e, g.calls)


# every valid string with a positive lead up to a length per bound, then a
# few at wider bounds, whose tables alone cost more than the strings
SWEPT_STRINGS = [
    *((b, s) for b, n in ((1, 8), (3, 5), (7, 3), (15, 2)) for s in digit_strings(b, n)),
    *((127, digits) for digits in ((1,), (127,), (1, -127, 0, 63), (3, 1, -1, -125))),
    *(((1 << 15) - 1, digits) for digits in ((1, -32767), (32767, 0, 1))),
]


def test_every_driver_keeps_the_contract_on_every_short_digit_string():
    """Each driver keeps its contract on every string its digit_bound lets it
    take; the four {-1, 0, 1} drivers refuse every string above bound 1, all
    of whose digits may be +-1, and every driver refuses the empty one."""
    for algo in ALGORITHMS:
        assert_refused(algo, SignedExpansion(()))
    for bound, digits in SWEPT_STRINGS:
        e = SignedExpansion(digits, bound)
        for algo, entry in ALGORITHMS.items():
            if bound > 1 and entry.table_from is None:
                assert_refused(algo, e)
            else:
                assert_driver_contract(algo, e)


# up to w = 9: the wider bounds differ only in their tables' size
@pytest.mark.parametrize("bound", WNAF_BOUNDS[:8])
def test_each_step_keeps_the_sign_invariant_from_either_flag(bound):
    """The induction on length: one doubling and one addition of each digit
    of the bound, from each flag the entry reaches, keep (-1)**f * E ==
    prefix * D. A step reads only f, its digit and the table, so with the
    starts the sweep above checks this covers every string at the bound."""
    nonzero = [d for d in digit_alphabet(bound) if d]
    # each entry adds d after an even and an odd count of flips in (d, d, 0, d)
    e = SignedExpansion((1, *(x for d in nonzero for x in (d, d, 0, d))), bound)
    for algo, entry in ALGORITHMS.items():
        if bound > 1 and entry.table_from is None:
            continue
        g, zero = FreeGroup(), FreeGroup()
        trace, from_zero = entry.run(e, Opaque(1), g, True).trace, entry.run(e, zero.identity, zero, True)
        walk_sign_invariant(e, 1, None, trace, *step_kinds(entry))
        # from the identity: the same steps and calls, each counted, at the identity
        assert [s[:2] for s in from_zero.trace] == [s[:2] for s in trace] and zero.calls == g.calls, algo
        assert (from_zero.ledger.counts(), {s.element.coefficient for s in from_zero.trace}) == (g.calls, {0})
        # (flag before a step, the digit it adds), 0 for a doubling
        added = iter([d for d in e.digits[1:] if d])
        steps = [(a.f, b.kind) for a, b in zip(trace, trace[1:]) if b.kind != "final_neg"]
        seen = {(f, next(added) if kind.endswith("add") else 0) for f, kind in steps}
        flags = range(1 + (entry.fuse_dbl or entry.fuse_add))  # 1 only where the entry flips f
        assert seen == {(f, d) for f in flags for d in (0, *nonzero)}, algo


@st.composite
def long_strings(draw, runs):
    """One of runs, an (algo, bound) pair, and a valid string under the bound
    of 1 to 4097 digits: a positive lead, then digits that are 0 at the drawn
    rate, else odd, from a seeded generator (4096 digits drawn one by one
    would outrun hypothesis's 8 KB of data per example)."""
    algo, bound = draw(st.sampled_from(runs))
    odd = [d for d in digit_alphabet(bound) if d]
    lead = draw(st.integers(0, bound // 2)) * 2 + 1
    length, zeros = draw(st.integers(0, 4096)), draw(st.sampled_from((0, 1, 2, 3)))
    rng = Random(draw(st.integers(0)))
    tail = [0 if rng.getrandbits(2) < zeros else d for d in rng.choices(odd, k=length)]
    return algo, SignedExpansion((lead, *tail), bound)


@settings(max_examples=100)
@given(run=long_strings([run for run in DRIVER_RUNS if run[1] < 1 << 6]))
def test_ledger_counts_equal_the_group_calls_made_for_large_scalars(run):
    assert_driver_contract(*run, traced=False)


# the bounds the twin above leaves out, whose tables hold up to 2**14 entries
@settings(max_examples=100)
@given(run=long_strings([run for run in DRIVER_RUNS if run[1] >= 1 << 6]))
def test_ledger_counts_equal_the_group_calls_made_for_large_scalars_at_wide_widths(run):
    assert_driver_contract(*run, traced=False)


@pytest.mark.parametrize("algo, form, width", CONTRACT_RUNS)
def test_every_driver_keeps_the_contract(algo, form, width):
    """scalar_mul's own part of the contract, per configuration: it recodes
    as the form and width ask and runs the driver, on a 4096-bit scalar s
    and on its top 128 bits t; a negative scalar negates the base, one more
    counted neg, and its shape ends in True; -1, 0 and 1 run no driver."""
    s = SEEDED_4096[CONTRACT_RUNS.index((algo, form, width)) % len(SEEDED_4096)]
    t, runs = s >> 3968, {}
    for m in (-s, t, -t, -1, 0, 1):
        g = FreeGroup()
        res = scalar_mul(m, Opaque(1), g, algo, form=form, width=width, trace=(m == -t))
        assert (res.element.coefficient, res.ledger.counts()) == (m, g.calls), m
        got = scalar_mul(m, TRIVIAL.identity, TRIVIAL, algo, form=form, width=width)
        assert (got.element, got.shape) == (0, res.shape), m
        runs[m] = res.shape, Counter(g.calls)
        if m == -t:  # the walk runs on the form's digits, from -D
            walk_sign_invariant(recode(t, form, width), -1, None, res.trace, *step_kinds(ALGORITHMS[algo]))
    for m in (t, 1):
        assert runs[-m] == ((*runs[m][0], True), runs[m][1] + Counter(neg=1)), m
    assert runs[0][1] == runs[1][1] == Counter()


@pytest.mark.parametrize("algo, form, width", CONTRACT_RUNS)
def test_untraced_walks_from_the_identity_make_no_group_call(algo, form, width):
    """From the identity object scalar_mul's untraced run returns it with no
    group call, for a negative scalar too (-O is O), and bench's shape from
    Z/1; a traced one negates the base, makes the calls its ledger counts and
    records every step, each at the identity."""
    s = SEEDED_4096[-1 - CONTRACT_RUNS.index((algo, form, width)) % len(SEEDED_4096)]
    t = s >> 3968
    for m in (s, -s, t, -t, -1, 0, 1):
        want = scalar_mul(m, TRIVIAL.identity, TRIVIAL, algo, form=form, width=width).shape
        g = FreeGroup()
        got = scalar_mul(m, g.identity, g, algo, form=form, width=width)
        assert (got.element is g.zero, got.trace, got.shape) == (True, None, want), m
        assert not any(g.calls.values()), (m, g.calls)
        if m in (-t, -1):
            traced = scalar_mul(m, g.identity, g, algo, form=form, width=width, trace=True)
            assert (traced.shape, traced.ledger.counts()) == (want, g.calls) and g.calls["neg"], m
            assert (traced.trace is None) == (m == -1), m
            if m == -t:
                kinds = step_kinds(ALGORITHMS[algo])
                walk_sign_invariant(recode(t, form, width), 0, None, traced.trace, *kinds)


def test_a_wide_table_is_not_built_from_the_identity():
    free = FreeGroup()
    scalar_mul(200, Opaque(1), free, "window", width=16)
    assert sum(free.calls.values()) == 32772
    g = FreeGroup()
    plus = scalar_mul(200, g.identity, g, "window", width=16)
    assert plus.element is g.zero
    assert not any(g.calls.values())
    # -O is O: a negative scalar keeps the identity object for the walk, and
    # its shape still records the negated base
    minus = scalar_mul(-200, g.identity, g, "window", width=16)
    assert minus.element is g.zero and minus.trace is None
    assert not any(g.calls.values())
    assert minus.shape == (*plus.shape, True)
    g = FreeGroup()
    traced = scalar_mul(-200, g.identity, g, "window", width=16, trace=True)
    assert sum(g.calls.values()) == 32773
    assert traced.shape == minus.shape and traced.ledger.counts() == g.calls


def test_table_ledger_equals_the_calls_that_build_the_table():
    # every table bound a width gives, and the small ones, even included, that
    # the baseline takes from an expansion's digit_bound; the table built alone
    widths = range(MIN_WIDTH, MAX_WIDTH + 1)
    for bound in sorted({*range(1, 34), *((1 << (w - 1)) - 1 for w in widths)}):
        g = FreeGroup()
        table = _odd_multiples(Opaque(1), g, bound)
        assert {d: x.coefficient for d, x in table.items()} == {
            d: d for d in range(-bound, bound + 1) if d % 2
        }, bound
        # the window driver's walk on one digit under that bound
        run, table = _op_counts(ALGORITHMS["window"], bound, 1, 1, 1, False, 0)
        assert table == tuple(g.calls.values()), bound
        assert run == table, bound  # one digit: no step, no closing negation


# one run's arguments to _op_counts after its entry, table bound and runs = 1,
# any values at all: length, weight, negative, odd and negated
_RUN_FIELDS = st.tuples(
    st.integers(1, 1 << 12), st.integers(1, 1 << 12), st.booleans(), st.integers(0, 1), st.booleans()
)


@settings(max_examples=50)
@given(
    entry=st.sampled_from(list(ALGORITHMS.values())),
    table_bound=st.none() | st.integers(1, (1 << 15) - 1),
    runs=st.lists(_RUN_FIELDS, min_size=1, max_size=8),
)
def test_op_counts_of_summed_fields_equal_the_summed_op_counts_of_the_runs(entry, table_bound, runs):
    """The map is affine: bench counts a driver's runs with one call on their summed fields."""
    each = [_op_counts(entry, table_bound, 1, *fields) for fields in runs]
    run, table = _op_counts(entry, table_bound, len(runs), *map(sum, zip(*runs)))
    assert run == tuple(map(sum, zip(*(counts for counts, _ in each))))
    if table_bound is None:
        assert table is None and {table for _, table in each} == {None}
    else:
        assert table == tuple(map(sum, zip(*(table for _, table in each))))
    for counts in (run, table or (), *(counts for counts, _ in each)):
        assert all(type(count) is int for count in counts)


def test_ledgers_are_made_from_the_shape():
    e, g = width_w_naf(1000, 4), FreeGroup()
    res = windowed_neg_scalar_mul(e, Opaque(1), g)
    # the table up to 7: one dbl, three adds, four negs
    made = (tuple(g.calls.values()), (3, 1, 4, 0, 0))
    # a charge to a read ledger reaches neither the shape's counts nor a later run's reads
    for reread in (lambda: res, lambda: windowed_neg_scalar_mul(e, Opaque(1), FreeGroup())):
        for read in (lambda r: r.ledger, lambda r: r.table_ledger):
            first = read(res)
            assert read(reread()) == first and read(reread()) is not first
            first.charge("neg")
            assert read(reread()).count("neg") == first.count("neg") - 1
            assert res._counts() == made
    assert tuple(res.ledger.counts().values()) == made[0]
    assert tuple(res.table_ledger.counts().values()) == made[1]

    # scalar_mul's negation of the base is one more neg in the shape
    g = FreeGroup()
    res = scalar_mul(-1000, Opaque(1), g, "neg")
    assert res.ledger.count("neg") == g.calls["neg"] == 2
    assert res.ledger.counts() == g.calls
    for m in (0, 1):
        assert counts(scalar_mul(m, Opaque(1), FreeGroup()).ledger) == {}
    assert counts(scalar_mul(-1, Opaque(1), FreeGroup()).ledger) == {"neg": 1}


@given(m=st.integers(1, 1 << 160), form=st.sampled_from(_UNIT_FORMS))
def test_neg_dbl_only_reads_the_digits_in_base_minus_2(m, form):
    """After the digit at position i, the walk holds its digit tail read in base -2, and f = i mod 2.

    Σ_{j>=i} d_j 2^(j-i) = (-1)^i Σ_{j>=i} (-1)^j d_j (-2)^(j-i): the fused
    doublings run Horner's rule in base -2 over the digits with alternating
    signs, and the flag is the parity of the position.
    """
    e = recode(m, form, 4)  # the width reaches only the wnaf form
    digits = e.digits[::-1]  # digits[j] is d_j, the digit of 2^j
    res = mixed_scalar_mul(e, 1, _INTEGERS, "neg_doubling_only", trace=True)
    steps = iter(res.trace)
    for i in reversed(range(e.length)):
        # the top digit's init step, else its doubling and, for a nonzero digit, its add
        top = i == e.length - 1
        for kind in ("init",) if top else ("neg_dbl", "add")[: 1 + (digits[i] != 0)]:
            step = next(steps)
            assert (step.kind, step.f) == (kind, i % 2)
        tail = sum((-1) ** j * digits[j] * (-2) ** (j - i) for j in range(i, e.length))
        assert step.element == tail
    assert next(steps, None) is None
    assert res.element == m


def test_verify_makes_no_ledger(monkeypatch):
    calls = Counter()
    make_ledger, op_counts = CostLedger.__init__, algorithms._op_counts

    def counting_init(self):
        calls["ledger"] += 1
        make_ledger(self)

    def counting_op_counts(*args):
        calls["op_counts"] += 1
        return op_counts(*args)

    monkeypatch.setattr(CostLedger, "__init__", counting_init)
    monkeypatch.setattr(algorithms, "_op_counts", counting_op_counts)
    assert verify_universal_agreement(max_n=11) == (6240, [])
    assert calls == {}
    # the counters see a ledger that is read
    assert scalar_mul(5, 1, ModularGroup(11)).ledger.count("neg_dbl") == 2
    assert calls == {"ledger": 1, "op_counts": 1}


def test_universal_agreement_small():
    checked, mismatches = verify_universal_agreement(max_n=11)
    assert mismatches == []
    # 3 moduli, 8 drivers, n * 4n products each
    assert checked == 8 * sum(4 * n * n for n in (5, 7, 11))


def _wrong_start_parity(m, D, group):
    """The neg driver on naf(m) with a deliberately wrong starting parity."""
    if m == 0:
        return group.identity
    e = naf(m)
    minus_d = group.neg(D)
    f = (e.length + e.weight + 1) % 2
    E = minus_d if f else D
    for d in e.digits[1:]:
        E = group.neg_dbl(E)
        f = 1 - f
        if d:
            E = group.neg_add(E, D if (d > 0) == (f == 0) else minus_d)
            f = 1 - f
    return E


def test_verify_reports_concrete_counterexample():
    checked, mismatches = verify_universal_agreement(max_n=7, algorithms={"bad": _wrong_start_parity})
    assert mismatches
    first = mismatches[0]
    assert first.algorithm == "bad"
    assert first.got != first.expected
    assert _wrong_start_parity(first.m, first.D, ModularGroup(first.n)) == first.got
    assert (first.m * first.D) % first.n == first.expected


def _defaults_with_one_wrong_at_22():
    """The default drivers with a neg driver that negates its product at m = 22
    placed between them, so that the (D, driver) order shows."""
    defaults = default_verify_algorithms()

    def wrong_at_22(m, D, group):
        E = defaults["neg"](m, D, group)
        return group.neg(E) if m == 22 else E

    return dict(list(defaults.items())[:3]) | {"wrong-at-22": wrong_at_22} | defaults


def _off_by_385_at_19():
    """The neg driver, computing (m + 385) * D at m = 19 and m * D elsewhere."""
    neg = default_verify_algorithms()["neg"]

    def off_by_385(m, D, group):
        return neg(m + 385 if m == 19 else m, D, group)

    return {"off-by-385": off_by_385}


def _recorded(algorithms):
    """algorithms with every driver wrapped to record, by id, the scalars it runs on."""
    scalars = {name: [] for name in algorithms}

    def recording(name, drive):
        def run(m, D, group):
            scalars[name].append(m)
            return drive(m, D, group)

        return run

    return {name: recording(name, drive) for name, drive in algorithms.items()}, scalars


@pytest.mark.parametrize("max_n", VERIFY_PRIMES)
def test_verify_counts_and_lists_what_one_run_per_base_does(max_n):
    # m = 22 lies beyond n = 5's scalars (m < 20) and is 0 mod 11, so its
    # mismatches are D = 1..6 for n = 7, then the cap is reached within n = 31
    mixed = _defaults_with_one_wrong_at_22()
    found = {5: 0, 7: 6, 11: 6}.get(max_n, MAX_MISMATCHES)
    # 385 = 5 * 7 * 11, so at m = 19, which every modulus reaches, the
    # product is right mod 5, 7 and 11 and wrong mod 31 and 97, where the
    # sweep reuses the coefficient computed for n = 5
    off = _off_by_385_at_19()
    off_found = MAX_MISMATCHES if max_n > 11 else 0
    for algorithms, found in (
        ({"bad": _wrong_start_parity}, MAX_MISMATCHES),
        (mixed, found),
        (off, off_found),
    ):
        recorded, scalars = _recorded(algorithms)
        got = verify_universal_agreement(max_n, algorithms=recorded)
        assert got == reference_verify(max_n, 4, algorithms)
        assert len(got[1]) == found
        # each driver runs at most once per scalar, in ascending order
        for seen in scalars.values():
            assert seen == list(range(len(seen)))


@pytest.mark.parametrize("multiplier", (1, 2, 16))
def test_verify_merges_moduli_that_drop_out_in_order(multiplier):
    # m = 22 lies below multiplier * n for n = 31 alone at multipliers 1 and 2,
    # and for every modulus up to 31 at 16, where n = 5 computes its
    # coefficients and 7, 11 and 31 reuse them
    for algorithms in ({"bad": _wrong_start_parity}, _defaults_with_one_wrong_at_22()):
        got = verify_universal_agreement(31, multiplier, algorithms)
        assert got == reference_verify(31, multiplier, algorithms)
        assert len(got[1]) == MAX_MISMATCHES
    # the sweep stops at the MAX_MISMATCHES-th mismatch: the wrong-start
    # driver's tenth lies in n = 5, the first modulus, at the last m run
    bad, seen = _recorded({"bad": _wrong_start_parity})
    got = verify_universal_agreement(31, multiplier, bad)
    assert seen["bad"] == list(range(got[1][-1].m + 1))
    assert got[1][-1].n == 5
    # a passing sweep runs each driver once per scalar below the largest
    # modulus's bound, however many moduli reach that scalar
    algorithms, seen = _recorded(default_verify_algorithms())
    got = verify_universal_agreement(97, multiplier, algorithms)
    assert got == (multiplier * sum(n * n for n in VERIFY_PRIMES) * len(algorithms), [])
    for scalars in seen.values():
        assert scalars == list(range(multiplier * 97))


@pytest.mark.parametrize("n", VERIFY_PRIMES)
def test_integer_ops_map_onto_modular_ops(n):
    # k -> k mod n keeps every op verify's integers make, so a coefficient
    # computed in Z gives the product in Z/n
    g = ModularGroup(n)
    assert _INTEGERS.identity % n == g.identity
    values = range(-2 * n, 2 * n + 1)
    for kind in ("add", "neg_add"):
        z, mod = getattr(_INTEGERS, kind), getattr(g, kind)
        for a in values:
            for b in values:
                assert z(a, b) % n == mod(a % n, b % n), (kind, a, b)
    for kind in ("dbl", "neg", "neg_dbl"):
        z, mod = getattr(_INTEGERS, kind), getattr(g, kind)
        for a in values:
            assert z(a) % n == mod(a % n), (kind, a)


def test_verify_validates_arguments():
    for max_n in (0, 1, 4, 98, 513):
        with pytest.raises(ValueError, match=f"^max_n must be in \\[5, 97\\], got {max_n}$"):
            verify_universal_agreement(max_n=max_n)
    with pytest.raises(ValueError, match="multiplier"):
        verify_universal_agreement(max_n=5, multiplier=0)
    with pytest.raises(ValueError, match="^algorithms must hold at least one driver, got none$"):
        verify_universal_agreement(5, algorithms={})
    for bad in (True, False, 5.0, 11.5, "11", None):
        with pytest.raises(ValueError, match=f"^max_n must be an integer, got {bad!r}$"):
            verify_universal_agreement(max_n=bad)
        with pytest.raises(ValueError, match=f"^multiplier must be an integer, got {bad!r}$"):
            verify_universal_agreement(max_n=5, multiplier=bad)


def test_drivers_work_on_minimal_group_implementations():
    class Plain(ModularGroup):
        # drop the fused overrides to exercise the interface defaults
        def neg_add(self, a, b):
            return self.neg(self.add(a, b))

        def neg_dbl(self, a):
            return self.neg(self.dbl(a))

    g = Plain(41)
    for m in (0, 1, 2, 29, 40, 163):
        for algo in ALGORITHM_IDS:
            assert scalar_mul(m, 3, g, algo, width=3).element == (m * 3) % 41
