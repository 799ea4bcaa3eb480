"""Signed-digit expansions of nonnegative integers.

Digits are stored most-significant first, the direction every
scalar-multiplication driver walks them; position i from the right carries
weight 2**i. Three recodings are provided: plain binary digits, the
nonadjacent form (NAF: digits in {-1, 0, 1}, no two adjacent nonzeros, the
unique such expansion and the sparsest signed binary one), and the width-w
NAF whose odd digits of magnitude below 2**(w-1) pair with a precomputed
table of odd multiples. Zero always recodes to the empty expansion.
recode(m, form, width) selects one of them by its name in RECODING_FORMS.
"""

from __future__ import annotations

from functools import cache

RECODING_FORMS = ("binary", "naf", "wnaf")

MIN_WIDTH, MAX_WIDTH = 2, 16


class SignedExpansion:
    """An immutable digit string plus the bound its digits respect.

    digit_bound is the magnitude cap B: every digit d satisfies |d| <= B, and
    for B > 1 nonzero digits must additionally be odd (the odd-multiples
    table convention). The leading digit of a nonempty expansion must be
    positive: these are expansions of nonnegative integers only.

    The constructor checks the bound, then each digit in order, so that an
    error names the first bad one, then the leading digit; it builds the
    instance through _trusted, as the recodings do.

    weight, the number of nonzero digits, is stored beside the digits: the
    constructor counts it once after its checks, and each recoding passes the
    count it made along the way to _trusted, so no reader rescans the digits.
    It is derived from the digits, so equality, hashing and pickling use the
    digits and the bound alone.
    """

    __slots__ = ("digits", "digit_bound", "weight")

    digits: tuple[int, ...]
    digit_bound: int
    weight: int

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
        return _trusted(digits, digit_bound, len(digits) - digits.count(0))

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
    def length(self) -> int:
        """Number of digit positions; 0 for the empty expansion."""
        return len(self.digits)

    @property
    def value(self) -> int:
        """The integer this expansion denotes, computed exactly."""
        v = 0
        for d in self.digits:
            v = 2 * v + d
        return v


# the slots' own setters, which __setattr__'s refusal does not reach
_set_digits = SignedExpansion.digits.__set__
_set_bound = SignedExpansion.digit_bound.__set__
_set_weight = SignedExpansion.weight.__set__


def _trusted(digits: tuple[int, ...], digit_bound: int, weight: int) -> SignedExpansion:
    """The SignedExpansion of digits, built without checking them.

    weight is the count of nonzero digits, taken as given. This is the only
    code that writes the three slots: the recodings below call it with the
    digits and weight they made, and SignedExpansion(...) calls it after
    checking every digit and counting the weight.
    """
    e = object.__new__(SignedExpansion)
    _set_digits(e, digits)
    _set_bound(e, digit_bound)
    _set_weight(e, weight)
    return e


def binary_expansion(m: int) -> SignedExpansion:
    """Plain base-2 digits of m, most-significant first."""
    _require_nonnegative(m)
    return _trusted(tuple(_bits(m)) if m else (), 1, m.bit_count())


def naf(m: int) -> SignedExpansion:
    """Nonadjacent form of m, the canonical sparsest signed binary expansion.

    Read off 3m: NAF digit i - 1 is nonzero exactly where 3m and m differ at
    bit i > 0, and it is +1 where 3m has that bit, -1 where m has it.
    The weight is the number of such bits.

    The digits come from one byte conversion: plus and minus, spread to one
    byte per bit, are added as plus + 255 * minus (the two never share a bit,
    so no byte carries), and the bytes, read as signed chars, are the digits
    with 255 as -1. The top digit is plus's top bit, so plus's bit length is
    the expansion's length.
    """
    _require_nonnegative(m)
    if m == 0:
        return _trusted((), 1, 0)
    triple = 3 * m
    differ = triple ^ m
    plus = (triple & differ) >> 1
    minus = (m & differ) >> 1
    spread = int.from_bytes(_bits(plus), "big") + 255 * int.from_bytes(_bits(minus), "big")
    digits = tuple(memoryview(spread.to_bytes(plus.bit_length(), "big")).cast("b"))
    return _trusted(digits, 1, differ.bit_count())


def width_w_naf(m: int, w: int) -> SignedExpansion:
    """Width-w NAF of m.

    Right-to-left greedy construction: an odd remainder contributes its
    residue mod 2**w mapped into (-2**(w-1), 2**(w-1)) and is cleared, which
    forces at least w - 1 zeros before the next nonzero digit. For w = 2
    this is exactly the NAF.

    One scan of m's binary string from the low end, with w zeros padded
    above the top bit so that a final carry lands. A negative digit leaves a
    carry of 1 into the remainder, so the next nonzero digit sits at the next
    1 bit, or at the next 0 bit while a carry is pending. Its value is read
    off the w-bit window that ends there, whose low bit the carry makes 1;
    the window's upper w - 1 bits key _window_digits. Each nonzero digit
    costs O(w) string work and no operation on an m-sized integer, and the
    scan counts the digits it finds as the expansion's weight.
    """
    _require_nonnegative(m)
    if not isinstance(w, int) or isinstance(w, bool):
        raise ValueError(f"width must be an integer, got {w!r}")
    if not MIN_WIDTH <= w <= MAX_WIDTH:
        raise ValueError(f"width must be in [{MIN_WIDTH}, {MAX_WIDTH}], got {w}")
    windows = _window_digits(w)
    bits = "0" * w + format(m, "b")
    digits = [0] * len(bits)
    top = len(bits)
    find = bits.rfind
    weight = 0
    j = find("1")
    while j >= 0:
        top, start = j, j - w + 1
        d = digits[j] = windows[bits[start:j]]
        weight += 1
        j = find("0" if d < 0 else "1", 0, start)
    return _trusted(tuple(digits[top:]), (1 << (w - 1)) - 1, weight)


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
