"""Tests for the signed-digit recodings."""

import pickle
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from negmul import RECODING_FORMS, SignedExpansion, binary_expansion, naf, width_w_naf
from negmul.recoding import MAX_WIDTH, MIN_WIDTH, _greedy_steps, recode

from oracles import SEEDED_4096, min_window_weight, nonadjacent_expansions, reference_width_w_naf

WIDTHS = range(MIN_WIDTH, MAX_WIDTH + 1)


def assert_recoding_contract(e, m, form, w=None):
    """e, m recoded as form (at width w for wnaf), has m's value, the form's
    digit_bound, a positive lead, a stored shape that counts its digits, and
    passes SignedExpansion's checks, which the recodings skip; binary digits
    lie in {0, 1}, and nonzero ones lie 2 apart in a NAF, w in a width-w NAF."""
    digits, bound = e.digits, (1 << (w - 1)) - 1 if form == "wnaf" else 1
    assert (e.value, e.digit_bound) == (m, bound), (m, form, w)
    assert digits[0] > 0 if m else digits == (), (m, form, w)
    negative = min(digits, default=0) < 0
    shape = (e.length, e.weight, e.has_negative is negative)
    assert shape == (len(digits), len(digits) - digits.count(0), True), (m, form, w)
    assert SignedExpansion(digits, bound) == e, (m, form, w)
    assert not (form == "binary" and negative), m
    # no two nonzero digits closer than 2 places in a NAF, w in a width-w NAF
    closer = rb"\x01\x00{0,%d}\x01" % ((w or 2) - 2)
    assert form == "binary" or not re.search(closer, bytes(map(bool, digits))), (m, form, w)


def test_binary_examples():
    assert binary_expansion(6).digits == (1, 1, 0)
    assert binary_expansion(1).digits == (1,)
    assert binary_expansion(0).digits == ()


def test_binary_rejects_negative():
    with pytest.raises(ValueError, match="nonnegative"):
        binary_expansion(-1)


def test_naf_examples():
    assert naf(3).digits == (1, 0, -1)
    assert naf(7).digits == (1, 0, 0, -1)
    assert naf(4).digits == (1, 0, 0)


def test_wnaf_examples():
    assert width_w_naf(7, 3).digits == (1, 0, 0, -1)
    assert width_w_naf(1, 4).digits == (1,)
    assert width_w_naf(0, 2).digits == ()
    assert width_w_naf(3, 3).digits == (3,)


def test_wnaf_width_out_of_range():
    with pytest.raises(ValueError, match="width"):
        width_w_naf(5, 1)
    with pytest.raises(ValueError, match="width"):
        width_w_naf(5, 17)


def test_length_weight_value():
    e = SignedExpansion((1, 0, -1))
    assert (e.length, e.weight, e.value) == (3, 2, 3)
    e = SignedExpansion((1, 1, 0))
    assert (e.length, e.weight, e.value) == (3, 2, 6)
    e = SignedExpansion((1, 0, 0, -1))
    assert e.value == 7
    empty = SignedExpansion(())
    assert (empty.length, empty.weight, empty.value) == (0, 0, 0)


def test_naf_length_relation():
    for m in range(1, 1 << 14):
        assert naf(m).length in (m.bit_length(), m.bit_length() + 1)


def test_round_trip_random_large():
    rng = random.Random(101)
    for bits in (64, 128, 256):
        for _ in range(50):
            m = rng.getrandbits(bits) | (1 << (bits - 1))
            assert binary_expansion(m).value == m
            assert naf(m).value == m
            for w in (2, 3, 4, 8, 16):
                assert width_w_naf(m, w).value == m


def test_wnaf_equals_the_digit_by_digit_reference_small():
    for w in WIDTHS:
        for m in range(1 << 12):
            assert width_w_naf(m, w).digits == reference_width_w_naf(m, w), (m, w)


def assert_wnaf_equals_the_reference(m, w):
    e = width_w_naf(m, w)
    assert e.digits == reference_width_w_naf(m, w), (m, w)
    assert_recoding_contract(e, m, "wnaf", w)


@settings(max_examples=200)
@given(m=st.integers(0, (1 << 4096) - 1), w=st.sampled_from(WIDTHS))
def test_wnaf_equals_the_digit_by_digit_reference(m, w):
    assert_wnaf_equals_the_reference(m, w)


# A uniform draw below 2**4096 is almost always about 4096 bits long; drawing
# the bit length first reaches every size, both sides of the 2**64 boundary
# between width_w_naf's two paths included.
@settings(max_examples=200)
@given(
    m=st.integers(0, 4096).flatmap(lambda k: st.integers(1 << k >> 1, (1 << k) - 1)),
    w=st.sampled_from(WIDTHS),
)
def test_wnaf_of_every_bit_length_equals_the_digit_by_digit_reference(m, w):
    assert_wnaf_equals_the_reference(m, w)


# width_w_naf switches from its scan to _wide_width_w_naf at 2**64 for
# w <= 8; every width is checked across that boundary, carries into a new top
# digit (2**k - 1) and long runs of zeros (2**k + 1) included.
@pytest.mark.parametrize("w", WIDTHS)
def test_wnaf_near_the_2_64_boundary_equals_the_reference(w):
    rng = random.Random(64 + w)
    for k in range(56, 81):
        for m in ((1 << k) - 1, 1 << k, (1 << k) + 1, *(rng.getrandbits(k) | 1 << (k - 1) for _ in range(8))):
            assert_wnaf_equals_the_reference(m, w)


def greedy_byte_step(c, blocked, w):
    """The width-w greedy over one byte of run starts, bit by bit from the low end.

    blocked low bits are passed over; each set bit chosen blocks the w - 1
    bits above it. Returns the chosen bits and how many bits of the next
    byte are still blocked.
    """
    chosen = 0
    for p in range(8):
        if blocked:
            blocked -= 1
        elif c >> p & 1:
            chosen |= 1 << p
            blocked = w - 1
    return chosen, blocked


@pytest.mark.parametrize("w", range(MIN_WIDTH, 9))
def test_byte_step_table_rows_equal_the_bit_by_bit_greedy(w):
    steps, _ = _greedy_steps(w)
    assert len(steps) == 256
    for blocked in range(w):
        for c in range(256):
            chosen, after = greedy_byte_step(c, blocked, w)
            assert after < w
            assert steps[(255 >> blocked << blocked) & c] == (chosen, 255 >> after << after), (w, blocked, c)


# Carries. On a run of ones every negative digit leaves a carry that runs up
# to the next zero, and a carry out of the top bit makes the expansion one
# digit longer than m.bit_length(). A uniform m almost never has long runs.
# m = 2**k - 2**j is the run of k - j ones shifted up by j, and shifting m by
# j appends j zero digits to the reference's expansion (its first j steps
# emit 0), so one reference run per run length serves every j.
@pytest.mark.parametrize("w", WIDTHS)
def test_wnaf_runs_of_ones_equal_the_reference(w):
    for ones in range(1, 301):
        run = (1 << ones) - 1
        expected = reference_width_w_naf(run, w)
        for j in range(301 - ones):
            assert width_w_naf(run << j, w).digits == expected + (0,) * j, (ones, j, w)


@pytest.mark.parametrize("w", WIDTHS)
def test_wnaf_of_the_all_ones_4096_bit_scalar(w):
    m = (1 << 4096) - 1
    e = width_w_naf(m, w)
    assert e.digits == reference_width_w_naf(m, w)
    assert e.length == 4097 and e.digits[0] == 1


@pytest.mark.parametrize("w", WIDTHS)
def test_wnaf_carry_into_a_new_top_digit(w):
    # An odd top window W >= 2**(w-1) ending at the top bit gives a negative
    # digit whose carry lands one place above the top bit. Bits L more than
    # w places below W recode, carries included, below W's lowest bit.
    rng = random.Random(w)
    half, full = 1 << (w - 1), 1 << w
    for _ in range(200):
        low = rng.randrange(0, 300)
        window = rng.randrange(half + 1, full, 2)
        m = (window << (low + w)) | rng.getrandbits(low)
        expected = reference_width_w_naf(m, w)
        assert len(expected) == m.bit_length() + 1, (m, w)
        assert width_w_naf(m, w).digits == expected, (m, w)


def bin_digits(m):
    """Binary digits of m >= 0 as bin() spells them; () for 0."""
    return tuple(int(b) for b in bin(m)[2:]) if m else ()


def test_naf_and_binary_equal_the_references_small():
    for m in range(1 << 12):
        assert naf(m).digits == reference_width_w_naf(m, 2), m
        assert binary_expansion(m).digits == bin_digits(m), m


@settings(max_examples=200)
@given(m=st.integers(0, (1 << 4096) - 1))
def test_naf_and_binary_equal_the_references(m):
    e, b = naf(m), binary_expansion(m)
    assert e.digits == reference_width_w_naf(m, 2)
    assert b.digits == bin_digits(m)
    assert_recoding_contract(e, m, "naf")
    assert_recoding_contract(b, m, "binary")


# naf's digits come from the w = 2 gather, which spreads m and the nonzero
# positions to one byte per digit and reads the masked sum back as signed
# chars; runs of ones (2**k - 1) end in a -1 with a carry into a new top
# digit, and 2**k + 1 keeps both ends of a long run of zeros.
def test_naf_byte_conversion_edge_cases():
    ms = [(1 << k) + s for k in range(1, 301) for s in (-1, 1)]
    for m in (*ms, (1 << 4096) - 1):
        e = naf(m)
        assert e.digits == reference_width_w_naf(m, 2), m
        assert all(type(d) is int for d in e.digits), m
        assert e.length in (m.bit_length(), m.bit_length() + 1), m
        assert_recoding_contract(e, m, "naf")


def test_naf_and_binary_reject_what_they_cannot_recode():
    for recoding in (naf, binary_expansion):
        with pytest.raises(ValueError, match="^scalar must be nonnegative, got -1$"):
            recoding(-1)
        for bad in (True, 1.5, "3"):
            with pytest.raises(ValueError, match=f"^scalar must be an integer, got {bad!r}$"):
                recoding(bad)


def test_naf_unique_among_nonadjacent_expansions_small():
    by_value = nonadjacent_expansions(12)
    for m in range(1 << 10):
        carriers = by_value[m]
        assert len(carriers) == 1, (m, carriers)
        assert carriers[0] == naf(m).digits


def test_wnaf_weight_is_minimal_small():
    for w in (2, 3):
        for m in range(1, 65):
            expected = min_window_weight(m, w, 8)
            assert expected is not None
            assert width_w_naf(m, w).weight == expected, (m, w)


def test_naf_density_sample():
    rng = random.Random(11)
    total = 0.0
    count = 2000
    for _ in range(count):
        m = rng.getrandbits(128) | (1 << 127)
        e = naf(m)
        total += e.weight / e.length
    assert 0.30 < total / count < 0.37


def test_expansion_validation():
    with pytest.raises(ValueError, match="leading digit"):
        SignedExpansion((0, 1))
    with pytest.raises(ValueError, match="leading digit"):
        SignedExpansion((-1, 0, 1))
    with pytest.raises(ValueError, match="exceeds bound"):
        SignedExpansion((1, 0, 2))
    with pytest.raises(ValueError, match="odd"):
        SignedExpansion((1, 0, 2, 0), digit_bound=3)
    with pytest.raises(ValueError, match="digit_bound"):
        SignedExpansion((1,), digit_bound=0)
    with pytest.raises(ValueError, match="integers"):
        SignedExpansion((1, 0.5))
    # several bad digits: the message names the first
    cases = (
        ((1, 2, 0.5), 1, "^digit 2 exceeds bound 1$"),
        ((1, 0.5, 2), 1, "^digits must be integers, got 0.5$"),
        ((1, True), 1, "^digits must be integers, got True$"),
        ((1, 0, 2, 4), 3, "^nonzero digits must be odd under bound 3, got 2$"),
        ((1, 0, 5, 2), 3, "^digit 5 exceeds bound 3$"),
        ((1, -1, [2], 2), 1, r"^digits must be integers, got \[2\]$"),
    )
    for digits, bound, message in cases:
        with pytest.raises(ValueError, match=message):
            SignedExpansion(digits, bound)


def assert_contract_sweep(forms, ms):
    for form in forms:
        for w in WIDTHS if form == "wnaf" else (None,):
            for m in ms:
                assert_recoding_contract(recode(m, form, w), m, form, w)


# The recoding contract runs once per form and scalar set, split over four
# tests: every m < 2**14 for binary and NAF, every m < 2**12 for wNAF at every
# width, and the large scalars for every form.
def test_round_trip_exhaustive_small():
    assert_contract_sweep(("binary",), range(1 << 14))


def test_naf_nonadjacency_exhaustive_small():
    assert_contract_sweep(("naf",), range(1 << 14))


def test_wnaf_digit_set_and_window_property():
    assert_contract_sweep(("wnaf",), range(1 << 12))


def test_every_recoding_passes_the_public_checks():
    # both sides of 2**64, where naf and width_w_naf (w <= 8) turn to their
    # bulk paths, and large ones; a random one almost surely has a negative
    # digit, so the low byte under 2**70 varies whether one is found
    large = (*((1 << k) + s for k in range(56, 81) for s in (-1, 0, 1)), *SEEDED_4096)
    large += tuple((1 << 70) + s for s in range(1 << 8))
    assert_contract_sweep(RECODING_FORMS, large)


def test_stored_weight_survives_pickling_and_cannot_be_changed():
    for e in (naf(0x7FFF), width_w_naf(12345, 5), binary_expansion(6), naf(0)):
        copy = pickle.loads(pickle.dumps(e))
        assert copy == e and copy.weight == e.weight
        with pytest.raises(AttributeError):
            e.weight = e.weight + 1
        with pytest.raises(AttributeError):
            del e.weight
        assert e.weight == len(e.digits) - e.digits.count(0), e


def test_expansion_accepts_list_input():
    assert SignedExpansion([1, 0, -1]).digits == (1, 0, -1)


@given(
    tail=st.lists(st.sampled_from((-3, -1, 0, 1, 3)), max_size=40),
    lead=st.sampled_from((1, 3)),
    bound=st.sampled_from((1, 3)),
)
def test_constructor_stores_whether_some_digit_is_negative(tail, lead, bound):
    digits = [lead, *tail] if bound == 3 else [1, *(d for d in tail if abs(d) < 2)]
    e = SignedExpansion(digits, bound)
    assert e.has_negative is any(d < 0 for d in digits)
    assert e.length == len(digits)
    assert SignedExpansion(()).has_negative is False


def test_deferred_digits_are_gathered_once_and_kept():
    m = (1 << 100) + 12345
    for e in (naf(m), width_w_naf(m, 5)):
        first = e.digits
        assert e.digits is first
        assert first == SignedExpansion(first, e.digit_bound).digits
        with pytest.raises(AttributeError):
            e.digits = first
        with pytest.raises(AttributeError):
            e.has_negative = not e.has_negative
