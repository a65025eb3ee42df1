"""The totally ordered index set, its ideals, and the double-line space.

An ideal of the index set T is a nonempty downward closed subset.  Every
ideal is encoded as a ``DPoint``: a coordinate together with a flavor,
where ``(x, STRICT)`` stands for the downset of everything strictly below
x and ``(x, PRINCIPAL)`` for the downset of everything up to and including
x.  The full index set is ``(INF, STRICT)``.

Two computable index models are provided: a finite chain 0..L-1 and a
dense unbounded line whose coordinates are exact rationals, optionally
extended by quadratic surds.  In the dense model with rational membership,
a surd coordinate is a valid cut position without being an element of T,
which is what makes bounded ideals without a supremum representable.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .coords import Coord, ExtCoord, INF, as_coord, is_inf, rational_between
from .errors import DomainError


class Flavor(enum.Enum):
    STRICT = "strict"
    PRINCIPAL = "principal"


class IdealType(enum.Enum):
    TYPE1 = 1
    TYPE2 = 2
    TYPE3 = 3


class Ordering(enum.Enum):
    LESS = -1
    EQUAL = 0
    GREATER = 1


class Membership(enum.Enum):
    ALL_COORDS = "all"
    RATIONALS_ONLY = "rationals"


@dataclass(frozen=True)
class FiniteChain:
    """T = {0, ..., length-1} with the usual order."""

    length: int

    def __post_init__(self):
        if self.length < 1:
            raise DomainError("bad_model", "chain length must be positive")

    def is_valid_coord(self, c: Coord) -> bool:
        if not c.is_rational or c.rat.denominator != 1:
            return False
        return 0 <= c.rat.numerator < self.length

    def is_member(self, c: Coord) -> bool:
        return self.is_valid_coord(c)


@dataclass(frozen=True)
class DenseLine:
    """An unbounded dense line; the stand-in for the real or rational index set."""

    membership: Membership = Membership.ALL_COORDS

    def is_valid_coord(self, c: Coord) -> bool:
        return True

    def is_member(self, c: Coord) -> bool:
        return self.membership is Membership.ALL_COORDS or c.is_rational


IndexModel = FiniteChain | DenseLine

DENSE_REAL = DenseLine(Membership.ALL_COORDS)
DENSE_RATIONAL_WITH_CUTS = DenseLine(Membership.RATIONALS_ONLY)


@dataclass(frozen=True)
class DPoint:
    """An ideal of T: coordinate plus flavor.  ``(INF, STRICT)`` is all of T."""

    coord: ExtCoord
    flavor: Flavor

    def __post_init__(self):
        if is_inf(self.coord) and self.flavor is not Flavor.STRICT:
            raise DomainError("bad_dpoint", "the infinite ideal must have strict flavor")

    def __str__(self):
        tag = "P" if self.flavor is Flavor.PRINCIPAL else "S"
        return f"({self.coord},{tag})"


def strict_at(x) -> DPoint:
    return DPoint(x if is_inf(x) else as_coord(x), Flavor.STRICT)


def principal_at(x) -> DPoint:
    return DPoint(as_coord(x), Flavor.PRINCIPAL)


TOP_IDEAL = DPoint(INF, Flavor.STRICT)


def validate_dpoint(model: IndexModel, p: DPoint) -> None:
    """Raise DomainError unless p denotes an ideal of the model's index set."""
    if is_inf(p.coord):
        if isinstance(model, FiniteChain):
            raise DomainError(
                "bad_dpoint",
                "a finite chain's full ideal is principal at its top element",
            )
        return
    if not model.is_valid_coord(p.coord):
        raise DomainError("bad_coord", f"{p.coord} is not a coordinate of this model")
    if p.flavor is Flavor.PRINCIPAL and not model.is_member(p.coord):
        raise DomainError(
            "bad_dpoint", f"{p.coord} is not an element of T, so it generates no principal ideal"
        )
    if p.flavor is Flavor.STRICT and isinstance(model, FiniteChain):
        raise DomainError(
            "bad_dpoint",
            "strict ideals of a finite chain coincide with principal ones; use the principal form",
        )


def _flavor_rank(f: Flavor) -> int:
    return 0 if f is Flavor.STRICT else 1


def cmp_d(model: IndexModel, p: DPoint, q: DPoint) -> Ordering:
    """Total order on ideals by inclusion; strict-at-x sits just below principal-at-x."""
    validate_dpoint(model, p)
    validate_dpoint(model, q)
    return cmp_d_unchecked(p, q)


def cmp_d_unchecked(p: DPoint, q: DPoint) -> Ordering:
    pi, qi = is_inf(p.coord), is_inf(q.coord)
    if pi or qi:
        if pi and qi:
            return Ordering.EQUAL
        return Ordering.GREATER if pi else Ordering.LESS
    if p.coord < q.coord:
        return Ordering.LESS
    if q.coord < p.coord:
        return Ordering.GREATER
    fp, fq = _flavor_rank(p.flavor), _flavor_rank(q.flavor)
    if fp == fq:
        return Ordering.EQUAL
    return Ordering.LESS if fp < fq else Ordering.GREATER


def contains(model: IndexModel, p: DPoint, t) -> bool:
    """Whether the element t of T lies in the ideal p."""
    validate_dpoint(model, p)
    t = as_coord(t)
    if not model.is_member(t):
        raise DomainError("not_a_member", f"{t} is not an element of T")
    if is_inf(p.coord):
        return True
    if t < p.coord:
        return True
    return t == p.coord and p.flavor is Flavor.PRINCIPAL


def classify_ideal(model: IndexModel, p: DPoint) -> IdealType:
    """Ideal types: principal; non-principal with a supremum in T; neither."""
    validate_dpoint(model, p)
    if p.flavor is Flavor.PRINCIPAL:
        return IdealType.TYPE1
    if is_inf(p.coord):
        return IdealType.TYPE3
    return IdealType.TYPE2 if model.is_member(p.coord) else IdealType.TYPE3


def member_between(model: IndexModel, a: Coord, b: Coord) -> Coord:
    """An element of T strictly between a and b (dense models only)."""
    if isinstance(model, FiniteChain):
        lo = a.floor() + 1
        cand = Coord(lo)
        if a < cand < b and model.is_member(cand):
            return cand
        raise DomainError("no_member_between", f"no chain element in ({a},{b})")
    return rational_between(a, b)


def member_below(model: IndexModel, x: Coord) -> Coord:
    """An element of T strictly below x.  Prefers x - 1 when that is a member."""
    if isinstance(model, FiniteChain):
        raise DomainError("unbounded_only", "finite chains are bounded below")
    shifted = x - Coord(1)
    if model.is_member(shifted):
        return shifted
    f = Coord(x.floor())
    return f if f < x else Coord(x.floor() - 1)


def member_above(model: IndexModel, x: Coord) -> Coord:
    """An element of T strictly above x.  Prefers x + 1 when that is a member."""
    if isinstance(model, FiniteChain):
        raise DomainError("unbounded_only", "finite chains are bounded above")
    shifted = x + Coord(1)
    if model.is_member(shifted):
        return shifted
    return Coord(x.floor() + 1)
