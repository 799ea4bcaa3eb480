"""Signed-digit expansions of nonnegative integers.

Digits are stored most-significant first, the direction every
scalar-multiplication driver walks them; position i from the right carries
weight 2**i. Three recodings are provided: plain binary digits, the
nonadjacent form (NAF: digits in {-1, 0, 1}, no two adjacent nonzeros, the
unique such expansion and the sparsest signed binary one), and the width-w
NAF whose odd digits of magnitude below 2**(w-1) pair with a precomputed
table of odd multiples. Zero always recodes to the empty expansion.
recode(m, form, width) selects one of them by its name in RECODING_FORMS.

Every expansion stores its shape (length, weight, has_negative). Binary,
the NAF and the bulk width-w NAF (a scalar of at least 2**64, w <= 8) read
it off whole-integer masks; above 2**64 all three gather the digit tuple
only when it is first read.
"""

from __future__ import annotations

from functools import cache
from struct import unpack

RECODING_FORMS = ("binary", "naf", "wnaf")

MIN_WIDTH, MAX_WIDTH = 2, 16


class _Fields:
    """SignedExpansion's slots, which instances of this class may write.

    _trusted fills one and then makes it a SignedExpansion by assigning its
    __class__: plain slot writes and one class write cost less than a call
    to each slot's setter, which SignedExpansion's refusal of assignment
    leaves as the only other way in.
    """

    __slots__ = ("_digits", "_picks", "digit_bound", "length", "weight", "has_negative")


class SignedExpansion(_Fields):
    """An immutable digit string plus the bound its digits respect.

    digit_bound is the magnitude cap B: every digit d satisfies |d| <= B, and
    for B > 1 nonzero digits must additionally be odd (the odd-multiples
    table convention). The leading digit of a nonempty expansion must be
    positive: these are expansions of nonnegative integers only.

    The constructor checks the bound, then each digit in order, so that an
    error names the first bad one, then the leading digit; it builds the
    instance through _trusted, as the recodings do.

    The shape is stored beside the digits: length, the number of digit
    positions; weight, the number of nonzero digits; has_negative, whether
    some digit is negative. Each recoding computes it from whole-integer
    masks, or counts it as it makes the digits, and the constructor counts it
    after its checks, so no reader scans the digits for it. A recoding may
    defer the digits themselves: binary, the NAF and the width-w NAF (w <= 8)
    of a scalar of at least 2**64 store the scalar and the mask of nonzero
    positions, and the first read of digits gathers the tuple from them
    (_gather) and keeps it. Reading the shape never builds it. The shape is
    derived from the digits, so equality, hashing and pickling use the
    digits and the bound alone.
    """

    __slots__ = ()

    digit_bound: int
    length: int
    weight: int
    has_negative: bool

    def __new__(cls, digits: tuple[int, ...], digit_bound: int = 1) -> SignedExpansion:
        digits = tuple(digits)
        if not isinstance(digit_bound, int) or isinstance(digit_bound, bool) or digit_bound < 1:
            raise ValueError(f"digit_bound must be a positive integer, got {digit_bound!r}")
        for d in digits:
            if not isinstance(d, int) or isinstance(d, bool):
                raise ValueError(f"digits must be integers, got {d!r}")
            if abs(d) > digit_bound:
                raise ValueError(f"digit {d} exceeds bound {digit_bound}")
            if digit_bound > 1 and d and d % 2 == 0:
                raise ValueError(f"nonzero digits must be odd under bound {digit_bound}, got {d}")
        if digits and digits[0] <= 0:
            raise ValueError(f"leading digit must be positive, got {digits[0]}")
        length = len(digits)
        negative = bool(digits) and min(digits) < 0
        return _trusted(digits, digit_bound, length, length - digits.count(0), negative)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"SignedExpansion is immutable; cannot assign {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"SignedExpansion is immutable; cannot delete {name!r}")

    def __reduce__(self) -> tuple:
        return type(self), (self.digits, self.digit_bound)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.digits == other.digits and self.digit_bound == other.digit_bound

    def __hash__(self) -> int:
        return hash((self.digits, self.digit_bound))

    def __repr__(self) -> str:
        return f"SignedExpansion(digits={self.digits!r}, digit_bound={self.digit_bound!r})"

    @property
    def digits(self) -> tuple[int, ...]:
        """The digits, most-significant first; a deferred tuple is gathered on first read."""
        digits = self._digits
        if digits is None:
            digits = _gather(*self._picks)
            _set_digits(self, digits)
        return digits

    @property
    def value(self) -> int:
        """The integer this expansion denotes, computed exactly."""
        v = 0
        for d in self.digits:
            v = 2 * v + d
        return v


# the slot's own setter, which SignedExpansion's refusal of assignment does not reach
_set_digits = _Fields._digits.__set__
_new = object.__new__


def _trusted(
    digits: tuple[int, ...] | None, digit_bound: int, length: int, weight: int,
    has_negative: bool, picks: tuple[int, int, int, int] | None = None,
) -> SignedExpansion:
    """The SignedExpansion of digits and its shape, built without checking them.

    digits may be None when picks holds _gather's arguments, which the first
    read of digits gathers them from. Only this and that read write the
    slots: the recodings below call it with what they made, and
    SignedExpansion(...) calls it after checking every digit and counting
    the shape.
    """
    e = _new(_Fields)
    e._digits = digits
    e._picks = picks
    e.digit_bound = digit_bound
    e.length = length
    e.weight = weight
    e.has_negative = has_negative
    e.__class__ = SignedExpansion
    return e


def binary_expansion(m: int) -> SignedExpansion:
    """Plain base-2 digits of m, most-significant first.

    Its nonzero positions are m's set bits and each digit is 1, which
    _gather makes at w = 1 from m as its own mask. For a scalar of at least
    2**64 the digits are deferred to their first read, as the NAF's are.
    """
    _require_nonnegative(m)
    if m >> 64:
        return _trusted(None, 1, m.bit_length(), m.bit_count(), False, (m, m, 1, 1))
    return _trusted(tuple(_bits(m)) if m else (), 1, m.bit_length(), m.bit_count(), False)


# _greedy_steps(2)[1], the NAF's gather factor: a window's low bit, plus 254 times its top bit
_NAF_GATHER = 510


def naf(m: int) -> SignedExpansion:
    """Nonadjacent form of m, the canonical sparsest signed binary expansion.

    Read off 3m: NAF digit i - 1 is nonzero exactly where 3m and m differ at
    bit i > 0, and it is +1 where 3m has that bit, -1 where m has it. So
    (3m ^ m) >> 1 is the mask of nonzero positions: its bit length is the
    expansion's length, its bit count the weight, and some digit is negative
    when m meets 3m ^ m above bit 0.

    These are the positions the greedy choice of the width-w NAF makes at
    w = 2, and its digits are the NAF's, so _gather makes them from m and
    the mask. For a scalar of at least 2**64 they are deferred, as the bulk
    width-w NAF's are: the first read of digits gathers them, and a reader
    of the shape alone never does. Below, they are gathered at once, which
    costs less than deferring them when they are read.
    """
    _require_nonnegative(m)
    differ = 3 * m ^ m
    chosen = differ >> 1
    picks = (m, chosen, 2, _NAF_GATHER)
    digits = None if m >> 64 else _gather(*picks)
    return _trusted(digits, 1, chosen.bit_length(), chosen.bit_count(), m & differ > 1, picks)


def width_w_naf(m: int, w: int) -> SignedExpansion:
    """Width-w NAF of m.

    Right-to-left greedy construction: an odd remainder contributes its
    residue mod 2**w mapped into (-2**(w-1), 2**(w-1)) and is cleared, which
    forces at least w - 1 zeros before the next nonzero digit. For w = 2
    this is exactly the NAF.

    A negative digit leaves a carry of 1 into the remainder, so the next
    nonzero digit sits at the next 1 bit, or at the next 0 bit while a carry
    is pending; either way at the next bit where m changes, a set bit of
    m ^ (m << 1) at least w places up. Its value is the w-bit window of m
    that starts there with its low bit set (the carry makes it 1), less 2**w
    when the window's top bit is set. Two paths compute this expansion.

    A scalar of at least 2**64 with w <= 8 takes _wide_width_w_naf, a few
    whole-integer operations and one table step per byte of m, which stores
    the shape and defers the digits. Any other scans m's binary string from
    the low end, with w zeros padded above the top bit so that a final carry
    lands, and reads each window's digit from _window_digits by its upper
    w - 1 bits: O(w) string work per nonzero digit and no operation on an
    m-sized integer. The scan makes the digits at once, and counts the
    digits it finds, and the negative ones, for the shape. The scan is the
    faster path below 16 to 48 bits, by width, and the only one above
    w = 8, where a digit no longer fits a signed byte.
    """
    _require_nonnegative(m)
    if not isinstance(w, int) or isinstance(w, bool):
        raise ValueError(f"width must be an integer, got {w!r}")
    if not MIN_WIDTH <= w <= MAX_WIDTH:
        raise ValueError(f"width must be in [{MIN_WIDTH}, {MAX_WIDTH}], got {w}")
    if m >> 64 and w <= 8:
        return _wide_width_w_naf(m, w)
    windows = _window_digits(w)
    bits = "0" * w + format(m, "b")
    digits = [0] * len(bits)
    top = len(bits)
    find = bits.rfind
    weight = 0
    negative = False
    j = find("1")
    while j >= 0:
        top, start = j, j - w + 1
        d = digits[j] = windows[bits[start:j]]
        weight += 1
        if d < 0:
            negative = True
            j = find("0", 0, start)
        else:
            j = find("1", 0, start)
    return _trusted(tuple(digits[top:]), (1 << (w - 1)) - 1, len(bits) - top, weight, negative)


def _wide_width_w_naf(m: int, w: int) -> SignedExpansion:
    """Width-w NAF of m, for 2 <= w <= 8, one table step per byte of m.

    The nonzero digits sit at a greedy choice among the set bits of
    m ^ (m << 1): the lowest is chosen, and each chosen position p blocks
    p + 1 ... p + w - 1. _greedy_steps(w) makes that choice a byte at a time
    from the low end. The bits it picks make chosen, the mask of nonzero
    positions, which is the shape: its bit length is the expansion's length,
    its bit count the weight, and the digit at p is negative when the top
    bit of its window, bit p + w - 1 of m, is set, so some digit is when
    chosen meets m >> (w - 1). The digits are deferred to their first read,
    which gathers them from m and chosen (_gather).
    """
    steps, gather = _greedy_steps(w)
    starts = m ^ (m << 1)
    picks = []
    pick = picks.append
    keep = 255
    for c in starts.to_bytes((starts.bit_length() + 7) >> 3, "little"):
        picked, keep = steps[keep & c]
        pick(picked)
    chosen = int.from_bytes(bytes(picks), "little")
    negative = chosen & (m >> (w - 1)) != 0
    return _trusted(
        None, (1 << (w - 1)) - 1, chosen.bit_length(), chosen.bit_count(), negative,
        (m, chosen, w, gather),
    )


def _gather(m: int, chosen: int, w: int, gather: int) -> tuple[int, ...]:
    """The digits of the width-w NAF of m, for 2 <= w <= 8, whose nonzero positions chosen sets.

    At w = 1, with chosen = m and gather 1, they are m's binary digits.

    Chosen positions lie at least w apart, so their windows are disjoint,
    and setting each one's low bit in m changes no other window. Spread to
    one byte per bit, m | chosen times the width's gather factor puts into
    byte p + w - 1 the window that starts at p, its top bit weighted
    256 - 2**(w-1) in place of 2**(w-1): the digit as a signed byte, at most
    255, so no byte carries. Shifted down w - 1 bytes, masked to the chosen
    positions and read as signed chars, the bytes are the digits. At w = 2
    the window is the low bit, 1, and the next bit of m, weighted 254: the
    digit is +1, or -1 where m has that bit, as the NAF's is. At w = 1 the
    window is one set bit of m, weighted 1 by the factor 1: the digit is 1,
    and 0 at every other position, as binary's are.
    """
    lanes = int.from_bytes(_bits(m | chosen), "big") * gather >> 8 * w - 8
    lanes &= int.from_bytes(_bits(chosen), "big") * 255
    length = chosen.bit_length()
    return unpack(f"{length}b", lanes.to_bytes(length, "big"))


@cache
def _greedy_steps(w: int) -> tuple[list[tuple[int, int]], int]:
    """The byte-step table of _wide_width_w_naf at width w, and _gather's factor.

    Entry c of the table is the greedy choice within a byte c of run starts
    whose blocked low bits are already cleared: the bits chosen, and the
    mask of the next byte's bits that they leave unblocked. The lowest bit p
    of c is chosen; when its block ends inside the byte, the rest of the
    choice is the entry at c with bits p ... p + w - 1 cleared, a smaller c
    made before it. 256 entries, made on a width's first use.

    The gather factor, times m spread one byte per bit, sums into each byte
    the w-bit window of m that ends there: bit j of the window weighted
    2**j, its top bit 256 - 2**(w-1).
    """
    steps = [(0, 255)] * 256
    for c in range(1, 256):
        p = (c & -c).bit_length() - 1
        end = p + w
        if end < 8:
            picked, keep = steps[c >> end << end]
            steps[c] = (picked | 1 << p, keep)
        else:
            steps[c] = (1 << p, 255 >> end - 8 << end - 8)
    gather = 256 - (1 << (w - 1))
    for j in range(w - 1):
        gather += 1 << j << 8 * (w - 1 - j)
    return steps, gather


@cache
def _window_digits(w: int) -> dict[str, int]:
    """Width-w NAF digit of each odd w-bit window, keyed by its upper w - 1 bits.

    The window's residue mod 2**w, less 2**w when at least 2**(w-1): 2**(w-1)
    entries, made on a width's first use.
    """
    full, half = 1 << w, 1 << (w - 1)
    return {
        format(k, f"0{w - 1}b"): d - full if d >= half else d
        for k, d in enumerate(range(1, full, 2))
    }


def recode(m: int, form: str, width: int) -> SignedExpansion:
    """m in the named recoding form; width applies to wnaf only."""
    if form == "binary":
        return binary_expansion(m)
    if form == "naf":
        return naf(m)
    if form == "wnaf":
        return width_w_naf(m, width)
    raise ValueError(f"unknown recoding form {form!r}; expected one of {RECODING_FORMS}")


_BIT_VALUES = bytes.maketrans(b"01", b"\x00\x01")


def _bits(m: int) -> bytes:
    """m's base-2 digits as bytes of 0s and 1s, most-significant first."""
    return format(m, "b").encode().translate(_BIT_VALUES)


def _require_nonnegative(m: int) -> None:
    if not isinstance(m, int) or isinstance(m, bool):
        raise ValueError(f"scalar must be an integer, got {m!r}")
    if m < 0:
        raise ValueError(f"scalar must be nonnegative, got {m}")
