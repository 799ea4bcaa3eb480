"""Field-operation cost accounting with exact rational arithmetic.

Costs are tallied in the four classical formula-count units: field
multiplications (M), squarings (S), inversions (I), and field additions (A).
A CostVector counts them, CostRatios collapses a vector into M-equivalents,
and a CostLedger counts the group operations one scalar-multiplication run
actually did, for its reader to price. Totals and percentages stay in
fractions.Fraction throughout, so every derived figure is exact and
comparisons in tests need no tolerance.

fractions, which loads decimal and numbers, is imported on the first use of
a ratio, a weighted total or a saving, so that importing the package costs
none of it. DEFAULT_RATIOS is made on its first read.
"""

from __future__ import annotations

import operator
from collections import namedtuple
from functools import cache

TYPE_CHECKING = False
if TYPE_CHECKING:
    from collections.abc import Iterable, Mapping
    from fractions import Fraction
    from typing import NoReturn

OP_KINDS = ("add", "dbl", "neg", "neg_add", "neg_dbl")

_Fraction = None  # fractions.Fraction once _fraction() has imported it


def _fraction() -> type[Fraction]:
    """fractions.Fraction, imported on the first call and bound to _Fraction for the rest."""
    global _Fraction
    from fractions import Fraction as _Fraction

    return _Fraction


class SameClassEquality:
    """Mixin for checked tuple records: same-class equality and a checked _replace.

    A record equals only a record of its own class with the same items: a
    plain tuple, or a record of another class, compares unequal whatever its
    items, in either order, since Python tries a subclass's reflected == and
    != first. The hash stays the tuple's. _make, and so _replace, builds
    through the constructor and its checks.
    """

    __slots__ = ()

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)

    def __eq__(self, other: object) -> bool:
        return other.__class__ is self.__class__ and tuple.__eq__(self, other)

    def __ne__(self, other: object) -> bool:
        return other.__class__ is not self.__class__ or tuple.__ne__(self, other)

    __hash__ = tuple.__hash__


_CostVectorFields = namedtuple("_CostVectorFields", ("mul", "sqr", "inv", "add_f"))


class CostVector(SameClassEquality, _CostVectorFields):
    """Nonnegative counts of field operations: M, S, I and A."""

    __slots__ = ()

    def __new__(cls, mul: int = 0, sqr: int = 0, inv: int = 0, add_f: int = 0) -> CostVector:
        self = super().__new__(cls, mul, sqr, inv, add_f)
        for name, value in zip(self._fields, self):
            if not isinstance(value, int) or isinstance(value, bool) or value < 0:
                raise ValueError(f"{name} count must be a nonnegative integer, got {value!r}")
        return self

    def __add__(self, other: CostVector) -> CostVector:
        if not isinstance(other, CostVector):
            return NotImplemented
        return CostVector(
            self.mul + other.mul,
            self.sqr + other.sqr,
            self.inv + other.inv,
            self.add_f + other.add_f,
        )

    def scaled(self, k: int) -> CostVector:
        """Componentwise k-fold multiple."""
        if not isinstance(k, int) or isinstance(k, bool) or k < 0:
            raise ValueError(f"scale factor must be a nonnegative integer, got {k!r}")
        return CostVector(k * self.mul, k * self.sqr, k * self.inv, k * self.add_f)

    # A tuple repeats under * and orders lexicographically; neither means
    # anything for a cost, so both raise instead of answering. __radd__ is
    # tried before a tuple's own +, so (1,) + vector raises instead of
    # concatenating.
    def _unsupported(self, other: object) -> NoReturn:
        raise TypeError("a CostVector supports + with another CostVector and scaled(k) only")

    __mul__ = __rmul__ = __radd__ = __lt__ = __le__ = __gt__ = __ge__ = _unsupported


ZERO_COST = CostVector()


_CostRatiosFields = namedtuple("_CostRatiosFields", ("sqr_per_mul", "inv_per_mul", "addf_per_mul"))


class CostRatios(SameClassEquality, _CostRatiosFields):
    """Exact conversion weights into M-equivalents.

    Defaults: a squaring costs 2/3 of a multiplication, an inversion 10
    multiplications, and field additions are not priced. Each ratio is an
    int, a Fraction or a fraction string such as "2/3", stored as a
    Fraction. Anything else (a float or bool, which is not an exact ratio, a
    malformed string or a zero denominator) and a negative ratio raise a
    ValueError that names the field; profile files and the CLI rely on it.
    """

    __slots__ = ()

    def __new__(
        cls,
        sqr_per_mul: Fraction | int | str = "2/3",
        inv_per_mul: Fraction | int | str = 10,
        addf_per_mul: Fraction | int | str = 0,
    ) -> CostRatios:
        Fraction = _Fraction or _fraction()
        ratios = []
        for name, value in zip(cls._fields, (sqr_per_mul, inv_per_mul, addf_per_mul)):
            try:
                if isinstance(value, (float, bool)):
                    raise TypeError(value)
                ratio = Fraction(value)
            except (TypeError, ValueError, ZeroDivisionError):
                raise ValueError(f"{name} must be an exact ratio, got {value!r}") from None
            if ratio < 0:
                raise ValueError(f"{name} must be nonnegative, got {ratio}")
            ratios.append(ratio)
        return super().__new__(cls, *ratios)


@cache
def _default_ratios() -> CostRatios:
    return CostRatios()


def __getattr__(name: str) -> CostRatios:
    """DEFAULT_RATIOS, CostRatios(), made on its first read and the same object on every one."""
    if name == "DEFAULT_RATIOS":
        return _default_ratios()
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class _Default:
    """The default of a ratios argument: DEFAULT_RATIOS, read when the call is made."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "DEFAULT_RATIOS"


_DEFAULT = _Default()


def _weights(ratios: CostRatios) -> tuple[int, int, int, int]:
    """M-equivalents of one M, S, I and A, over the first: the ratio denominators' product."""
    (s, d_s), (i, d_i), (a, d_a) = (ratio.as_integer_ratio() for ratio in ratios)
    return d_s * d_i * d_a, s * d_i * d_a, i * d_s * d_a, a * d_s * d_i


def _dot(xs: Iterable[int], ys: Iterable[int]) -> int:
    return sum(map(operator.mul, xs, ys))


def weighted_total(cost: CostVector, ratios: CostRatios = _DEFAULT) -> Fraction:
    """Collapse a cost vector into exact M-equivalents; ratios defaults to DEFAULT_RATIOS.

    The four terms are put over the product of the ratios' denominators and
    summed as integers, so the result is the one Fraction made. A cost that
    is not a CostVector, or ratios that are not a CostRatios, raise a ValueError.
    """
    if not isinstance(cost, CostVector):
        raise ValueError(f"cost must be a CostVector, got {cost!r}")
    if ratios is _DEFAULT:
        ratios = _default_ratios()
    elif not isinstance(ratios, CostRatios):
        raise ValueError(f"ratios must be a CostRatios, got {ratios!r}")
    Fraction = _Fraction or _fraction()
    weights = _weights(ratios)
    return Fraction(_dot(cost, weights), weights[0])


def savings_percent(base: Fraction | int, improved: Fraction | int) -> Fraction:
    """Exact percentage saved going from base to improved: (base - improved) / base * 100.

    With base = B/b and improved = I/i, that is (B*i - I*b) * 100 / (B*i),
    made as one Fraction. Each argument must be an int or a Fraction, not a
    bool, and base must be positive; anything else raises a ValueError.
    """
    Fraction = _Fraction or _fraction()
    for name, value in (("base", base), ("improved", improved)):
        if not isinstance(value, (int, Fraction)) or isinstance(value, bool):
            raise ValueError(f"{name} cost must be an int or a Fraction, got {value!r}")
    if base <= 0:
        raise ValueError(f"base cost must be positive, got {base}")
    scaled_base = base.numerator * improved.denominator
    return Fraction((scaled_base - improved.numerator * base.denominator) * 100, scaled_base)


class CostLedger:
    """Mutable per-run tally of how often each operation kind ran.

    A ledger only counts; it is priced when read, from one price per
    operation kind ({kind: CostVector}, for example prices_of(group)): the
    cost of a kind is its price scaled by its count. A ledger belongs to
    exactly one scalar-multiplication run; disjoint runs keep disjoint
    ledgers and may be merged afterwards, in any order.
    """

    __slots__ = ("_counts",)

    def __init__(self) -> None:
        self._counts = dict.fromkeys(OP_KINDS, 0)

    def charge(self, kind: str, times: int = 1) -> None:
        """Record `times` more invocations of `kind`."""
        if not isinstance(times, int) or isinstance(times, bool) or times < 0:
            raise ValueError(f"times must be a nonnegative integer, got {times!r}")
        try:
            self._counts[kind] += times
        except KeyError:
            raise ValueError(f"unknown operation kind: {kind!r}") from None

    def count(self, kind: str) -> int:
        if kind not in self._counts:
            raise ValueError(f"unknown operation kind: {kind!r}")
        return self._counts[kind]

    def counts(self) -> dict[str, int]:
        return dict(self._counts)

    def vector(self, kind: str, prices: Mapping[str, CostVector]) -> CostVector:
        """What the `kind` invocations cost: its price times its count."""
        count = self.count(kind)
        return prices[kind].scaled(count)

    def total(self, prices: Mapping[str, CostVector]) -> CostVector:
        """Componentwise sum over all operation kinds, at the given prices.

        Each field operation's column is summed as count times price over
        the kinds, in plain integers, into the one CostVector returned.
        """
        counts = [self._counts[kind] for kind in OP_KINDS]
        columns = zip(*(prices[kind] for kind in OP_KINDS))
        return CostVector(*(_dot(counts, column) for column in columns))

    def merge(self, other: CostLedger) -> None:
        """Fold another run's counts into this ledger."""
        for kind in OP_KINDS:
            self._counts[kind] += other._counts[kind]

    def copy(self) -> CostLedger:
        dup = CostLedger()
        dup.merge(self)
        return dup

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CostLedger):
            return NotImplemented
        return self._counts == other._counts

    def __repr__(self) -> str:
        parts = ", ".join(f"{kind}={self._counts[kind]}" for kind in OP_KINDS if self._counts[kind])
        return f"CostLedger({parts})"


def _ledger(counts: Iterable[int]) -> CostLedger:
    """A fresh ledger holding counts, given in OP_KINDS order, unchecked."""
    ledger = CostLedger()
    ledger._counts.update(zip(OP_KINDS, counts))
    return ledger
