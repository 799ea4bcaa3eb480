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

from dataclasses import dataclass

RECODING_FORMS = ("binary", "naf", "wnaf")

MIN_WIDTH, MAX_WIDTH = 2, 16


@dataclass(frozen=True)
class SignedExpansion:
    """An immutable digit string plus the bound its digits respect.

    digit_bound is the magnitude cap B: every digit d satisfies |d| <= B, and
    for B > 1 nonzero digits must additionally be odd (the odd-multiples
    table convention). The leading digit of a nonempty expansion must be
    positive: these are expansions of nonnegative integers only.
    """

    digits: tuple[int, ...]
    digit_bound: int = 1

    def __post_init__(self) -> None:
        object.__setattr__(self, "digits", tuple(self.digits))
        bound = self.digit_bound
        if not isinstance(bound, int) or isinstance(bound, bool) or bound < 1:
            raise ValueError(f"digit_bound must be a positive integer, got {bound!r}")
        for d in self.digits:
            if not isinstance(d, int) or isinstance(d, bool):
                raise ValueError(f"digits must be integers, got {d!r}")
            if abs(d) > bound:
                raise ValueError(f"digit {d} exceeds bound {bound}")
            if bound > 1 and d and d % 2 == 0:
                raise ValueError(f"nonzero digits must be odd under bound {bound}, got {d}")
        if self.digits and self.digits[0] <= 0:
            raise ValueError(f"leading digit must be positive, got {self.digits[0]}")

    @property
    def length(self) -> int:
        """Number of digit positions; 0 for the empty expansion."""
        return len(self.digits)

    @property
    def weight(self) -> int:
        """Number of nonzero digits."""
        return sum(1 for d in self.digits if d)

    @property
    def value(self) -> int:
        """The integer this expansion denotes, computed exactly."""
        v = 0
        for d in self.digits:
            v = 2 * v + d
        return v


def binary_expansion(m: int) -> SignedExpansion:
    """Plain base-2 digits of m, most-significant first."""
    _require_nonnegative(m)
    if m == 0:
        return SignedExpansion((), 1)
    return SignedExpansion(tuple(int(b) for b in bin(m)[2:]), 1)


def naf(m: int) -> SignedExpansion:
    """Nonadjacent form of m, the canonical sparsest signed binary expansion."""
    return width_w_naf(m, 2)


def width_w_naf(m: int, w: int) -> SignedExpansion:
    """Width-w NAF of m.

    Right-to-left greedy construction: an odd remainder contributes its
    residue mod 2**w mapped into (-2**(w-1), 2**(w-1)) and is cleared, which
    forces at least w - 1 zeros before the next nonzero digit. For w = 2
    this is exactly the NAF.
    """
    _require_nonnegative(m)
    if not MIN_WIDTH <= w <= MAX_WIDTH:
        raise ValueError(f"width must be in [{MIN_WIDTH}, {MAX_WIDTH}], got {w}")
    full, half = 1 << w, 1 << (w - 1)
    digits: list[int] = []
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
    return SignedExpansion(tuple(digits), half - 1)


def recode(m: int, form: str, width: int) -> SignedExpansion:
    """m in the named recoding form; width applies to wnaf only."""
    if form == "binary":
        return binary_expansion(m)
    if form == "naf":
        return naf(m)
    if form == "wnaf":
        return width_w_naf(m, width)
    raise ValueError(f"unknown recoding form {form!r}; expected one of {RECODING_FORMS}")


def _require_nonnegative(m: int) -> None:
    if not isinstance(m, int) or isinstance(m, bool):
        raise ValueError(f"scalar must be an integer, got {m!r}")
    if m < 0:
        raise ValueError(f"scalar must be nonnegative, got {m}")
