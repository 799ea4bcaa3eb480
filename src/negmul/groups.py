"""The group interface every scalar-multiplication driver runs against.

An implementation supplies add, dbl and neg over opaque, equality-comparable
elements, and may override the fused forms neg_add and neg_dbl when negating
inside the formula is cheaper than negating afterwards. The fused forms must
return exactly neg(add(a, b)) and neg(dbl(a)); only their advertised cost may
differ. All operations are required to be pure in their elements, so any
number of runs may share one group instance.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

from .costs import OP_KINDS, ZERO_COST, CostVector

TYPE_CHECKING = False
if TYPE_CHECKING:
    from typing import Any as Element
else:
    # an opaque element, typing.Any to a type checker; typing stays off the start-up path
    Element = object


class NegationAwareGroup(ABC):
    """Finite abelian group with (possibly cheaper) fused negated operations."""

    @property
    @abstractmethod
    def identity(self) -> Element:
        """The neutral element."""

    @abstractmethod
    def add(self, a: Element, b: Element) -> Element:
        """a + b."""

    @abstractmethod
    def dbl(self, a: Element) -> Element:
        """a + a."""

    @abstractmethod
    def neg(self, a: Element) -> Element:
        """-a."""

    def neg_add(self, a: Element, b: Element) -> Element:
        """-(a + b); override when the fused form is cheaper."""
        return self.neg(self.add(a, b))

    def neg_dbl(self, a: Element) -> Element:
        """-(a + a); override when the fused form is cheaper."""
        return self.neg(self.dbl(a))

    def cost_of(self, kind: str) -> CostVector:
        """Modeled field-operation cost of one invocation of `kind`.

        Zero unless a cost model is attached (see CostChargingGroup).
        """
        return ZERO_COST


def prices_of(group: NegationAwareGroup) -> dict[str, CostVector]:
    """The group's cost_of for every operation kind: the prices to read its ledgers at."""
    return {kind: group.cost_of(kind) for kind in OP_KINDS}
