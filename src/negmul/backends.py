"""Concrete groups: the exact modular oracle and the cost-model wrapper."""

from __future__ import annotations

import warnings
from pathlib import Path
from typing import NamedTuple

from .costs import OP_KINDS, CostRatios, CostVector, SameClassEquality
from .groups import Element, NegationAwareGroup


class ModularGroup(NegationAwareGroup):
    """Additive group of residues modulo n.

    Products m * D are directly checkable with integer arithmetic, which
    makes this the correctness oracle for every driver. Elements are ints in
    [0, n); all operations cost zero.
    """

    __slots__ = ("n",)

    identity = 0

    def __init__(self, n: int) -> None:
        if not isinstance(n, int) or isinstance(n, bool) or n < 1:
            raise ValueError(f"modulus must be a positive integer, got {n!r}")
        self.n = n

    def add(self, a: int, b: int) -> int:
        return (a + b) % self.n

    def dbl(self, a: int) -> int:
        return (a + a) % self.n

    def neg(self, a: int) -> int:
        return -a % self.n

    def neg_add(self, a: int, b: int) -> int:
        return -(a + b) % self.n

    def neg_dbl(self, a: int) -> int:
        return -(a + a) % self.n

    def __repr__(self) -> str:
        return f"ModularGroup({self.n})"


class _CostProfileFields(NamedTuple):
    name: str
    add_cost: CostVector
    dbl_cost: CostVector
    neg_cost: CostVector
    neg_add_cost: CostVector
    neg_dbl_cost: CostVector


class CostProfile(SameClassEquality, _CostProfileFields):
    """Named per-operation cost vectors for one family of group arithmetic.

    The name must be a str and every *_cost a CostVector; anything else
    raises a ValueError naming the field, on _replace too.
    """

    __slots__ = ()

    def __new__(
        cls,
        name: str,
        add_cost: CostVector,
        dbl_cost: CostVector,
        neg_cost: CostVector,
        neg_add_cost: CostVector,
        neg_dbl_cost: CostVector,
    ) -> CostProfile:
        if not isinstance(name, str):
            raise ValueError(f"name must be a str, got {name!r}")
        costs = (add_cost, dbl_cost, neg_cost, neg_add_cost, neg_dbl_cost)
        for field, cost in zip(cls._fields[1:], costs):
            if not isinstance(cost, CostVector):
                raise ValueError(f"{field} must be a CostVector, got {cost!r}")
        # Fusing the negation should never price above the two-step form; a
        # profile violating that is suspicious but still usable. Comparing
        # counts componentwise flags only what is dearer at every ratio.
        for plain, fused, label in (
            (add_cost, neg_add_cost, "neg_add"),
            (dbl_cost, neg_dbl_cost, "neg_dbl"),
        ):
            unfused = plain + neg_cost
            if fused != unfused and all(a >= b for a, b in zip(fused, unfused)):
                warnings.warn(
                    f"cost profile {name!r}: {label} is dearer than the unfused "
                    "operation plus a negation, counting every field operation",
                    stacklevel=2,
                )
        return super().__new__(cls, name, *costs)

    def cost_of(self, kind: str) -> CostVector:
        if kind not in OP_KINDS:
            raise ValueError(f"unknown operation kind: {kind!r}")
        return getattr(self, f"{kind}_cost")


# Generic-case divisor arithmetic on Picard curves. The geometric addition
# ends with a negation that the fused forms skip, which is what the cheaper
# neg_add/neg_dbl vectors price. A standalone negation is modeled as the
# difference add - neg_add, the best estimate available for this family.
PICARD_PROFILE = CostProfile(
    name="picard",
    add_cost=CostVector(mul=144, sqr=12, inv=2),
    dbl_cost=CostVector(mul=158, sqr=16, inv=2),
    neg_cost=CostVector(mul=11, sqr=3),
    neg_add_cost=CostVector(mul=133, sqr=9, inv=2),
    neg_dbl_cost=CostVector(mul=147, sqr=13, inv=2),
)

# Hyperelliptic Jacobians: negation is practically free, so fusing buys
# nothing. The add/dbl counts are illustrative ballpark figures only; the
# preset exists to demonstrate the near-zero saving, and any profile with
# the neg_* vectors equal to the plain ones shows the same.
HYPERELLIPTIC_PROFILE = CostProfile(
    name="hyperelliptic",
    add_cost=CostVector(mul=70, sqr=6, inv=1),
    dbl_cost=CostVector(mul=71, sqr=8, inv=1),
    neg_cost=CostVector(),
    neg_add_cost=CostVector(mul=70, sqr=6, inv=1),
    neg_dbl_cost=CostVector(mul=71, sqr=8, inv=1),
)

PRESETS = {profile.name: profile for profile in (PICARD_PROFILE, HYPERELLIPTIC_PROFILE)}


def preset(name: str) -> CostProfile:
    """Look up a bundled cost profile by name."""
    try:
        return PRESETS[name]
    except KeyError:
        raise ValueError(f"unknown preset {name!r}; available: {sorted(PRESETS)}") from None


_COMPONENT_KEYS = ("M", "S", "I", "A")  # in CostVector's field order


def load_profile(path: str | Path) -> tuple[CostProfile, CostRatios | None]:
    """Read a custom cost profile from a JSON file.

    Layout: one object per operation kind under the keys add, dbl, neg,
    neg_add and neg_dbl, each mapping M/S/I/A to nonnegative integer counts
    (omitted components default to 0), plus an optional ratios object whose
    values are exact fraction strings such as "2/3". Unknown keys anywhere
    are rejected. The counts and ratios are checked by CostVector and
    CostRatios; every error names the file and the offending key.
    """
    import json  # only profile loading needs it; kept off the start-up path

    path = Path(path)
    try:
        data = json.loads(path.read_bytes())
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ValueError(f"{path}: not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ValueError(f"{path}: top level must be a JSON object")
    unknown = sorted(set(data) - set(OP_KINDS) - {"ratios"})
    if unknown:
        raise ValueError(f"{path}: unknown keys {unknown}")
    missing = sorted(set(OP_KINDS) - set(data))
    if missing:
        raise ValueError(f"{path}: missing keys {missing}")
    vectors = {key: _parse_vector(path, key, data[key]) for key in OP_KINDS}
    ratios = _parse_ratios(path, data["ratios"]) if "ratios" in data else None
    return CostProfile(path.stem, **{f"{kind}_cost": vectors[kind] for kind in OP_KINDS}), ratios


def _parse_vector(path: Path, key: str, obj: object) -> CostVector:
    if not isinstance(obj, dict):
        raise ValueError(f"{path}: {key} must be an object of M/S/I/A counts")
    unknown = sorted(set(obj) - set(_COMPONENT_KEYS))
    if unknown:
        raise ValueError(f"{path}: {key} has unknown components {unknown}")
    try:
        return CostVector(*(obj.get(component, 0) for component in _COMPONENT_KEYS))
    except ValueError as exc:
        raise ValueError(f"{path}: {key}: {exc}") from exc


def _parse_ratios(path: Path, obj: object) -> CostRatios:
    if not isinstance(obj, dict):
        raise ValueError(f"{path}: ratios must be a JSON object")
    unknown = sorted(set(obj) - set(CostRatios._fields))
    if unknown:
        raise ValueError(f"{path}: ratios has unknown keys {unknown}")
    for key, raw in obj.items():
        if not isinstance(raw, str):
            raise ValueError(f'{path}: ratios.{key} must be a fraction string like "2/3"')
    try:
        return CostRatios(**obj)
    except ValueError as exc:
        raise ValueError(f"{path}: ratios: {exc}") from exc


class CostChargingGroup(NegationAwareGroup):
    """Wraps another group: identical element math, costs priced by a profile.

    Results are exactly the inner group's; only cost_of changes, so
    prices_of(this group) gives the profile's prices to read ledgers at.
    Each operation forwards to the inner group's, and identity is the inner
    group's own object, so a walk from it makes no call at all.
    """

    __slots__ = ("inner", "profile")

    def __init__(self, inner: NegationAwareGroup, profile: CostProfile) -> None:
        if not isinstance(inner, NegationAwareGroup):
            raise ValueError(f"inner must be a NegationAwareGroup, got {inner!r}")
        if not isinstance(profile, CostProfile):
            raise ValueError(f"profile must be a CostProfile, got {profile!r}")
        self.inner = inner
        self.profile = profile

    @property
    def identity(self) -> Element:
        return self.inner.identity

    def add(self, a: Element, b: Element) -> Element:
        return self.inner.add(a, b)

    def dbl(self, a: Element) -> Element:
        return self.inner.dbl(a)

    def neg(self, a: Element) -> Element:
        return self.inner.neg(a)

    def neg_add(self, a: Element, b: Element) -> Element:
        return self.inner.neg_add(a, b)

    def neg_dbl(self, a: Element) -> Element:
        return self.inner.neg_dbl(a)

    def cost_of(self, kind: str) -> CostVector:
        return self.profile.cost_of(kind)

    def __repr__(self) -> str:
        return f"CostChargingGroup({self.inner!r}, profile={self.profile.name!r})"
