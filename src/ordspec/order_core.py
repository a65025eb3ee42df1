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

Each double-line decision is written here once: the order of ideals by
inclusion (``DPoint._cmp``: by coordinate on the extended line, then strict
below principal; ``cmp_d`` on checked ideals), and the window of [a, b), the
ideals with a nonzero map from it, whose two end ideals ``window_ends``
gives to ``hom_to_injective`` and to ``spectrum``'s cuts.

``FpInterval``, the interval module on [start, end), lives here as well,
beside the ideals it is compared with, and so do ``validate_interval`` and
``validate_module``, its check against a model: the layers that only read
intervals (``spectrum``, ``interleaving``, ``jsonio``, ``cli``) need not
import ``fp_category``, which re-exports ``FpInterval``.
"""

from __future__ import annotations

import enum

from .coords import Coord, ExtCoord, INF, as_coord, is_inf
from .errors import DomainError, Ordered, Value


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


class FiniteChain(Value):
    """T = {0, ..., length-1} with the usual order.  ``is_member`` answers for
    every extended coordinate; ``INF`` is no element."""

    __slots__ = ("length",)

    def __init__(self, length: int):
        if length < 1:
            raise DomainError("bad_model", "chain length must be positive")
        super().__init__(length)

    def is_member(self, c: ExtCoord) -> bool:
        if is_inf(c) or not c.is_rational or c.rat.denominator != 1:
            return False
        return 0 <= c.rat.numerator < self.length


class DenseLine(Value):
    """An unbounded dense line; the stand-in for the real or rational index set.
    ``is_member`` tells the elements of T (every coordinate, or the rationals)
    among all extended coordinates; ``INF`` is none."""

    __slots__ = ("membership",)

    def __init__(self, membership: Membership = Membership.ALL_COORDS):
        super().__init__(membership)

    def is_member(self, c: ExtCoord) -> bool:
        return not is_inf(c) and (self.membership is Membership.ALL_COORDS or c.is_rational)


IndexModel = FiniteChain | DenseLine

DENSE_REAL = DenseLine(Membership.ALL_COORDS)
DENSE_RATIONAL_WITH_CUTS = DenseLine(Membership.RATIONALS_ONLY)


class DPoint(Ordered, Value):
    """An ideal of T: coordinate plus flavor.  ``(INF, STRICT)`` is all of T.

    Ordered by inclusion on the ideals a model checks (``validate_dpoint``),
    through ``_cmp``.  Equality is the value base's.
    """

    __slots__ = ("coord", "flavor")

    def __init__(self, coord: ExtCoord, flavor: Flavor):
        if is_inf(coord) and flavor is not Flavor.STRICT:
            raise DomainError("bad_dpoint", "the infinite ideal must have strict flavor")
        super().__init__(coord, flavor)

    def _cmp(self, other: "DPoint") -> int:
        """The sign of the inclusion order: the coordinates' order on the
        extended line, then strict-at-x just below principal-at-x."""
        principal = Flavor.PRINCIPAL
        return self.coord._cmp(other.coord) or (self.flavor is principal) - (other.flavor is principal)

    def __str__(self):
        tag = "P" if self.flavor is Flavor.PRINCIPAL else "S"
        return f"({self.coord},{tag})"


class FpInterval(Value):
    """The interval module supported on [start, end)."""

    __slots__ = ("start", "end")

    def __init__(self, start: Coord, end: ExtCoord):
        if not start < end:
            raise DomainError("bad_interval", f"need start < end, got [{start},{end})")
        super().__init__(start, end)

    def __str__(self):
        return f"[{self.start},{self.end})"


def strict_at(x) -> DPoint:
    return DPoint(x if is_inf(x) else as_coord(x), Flavor.STRICT)


def principal_at(x) -> DPoint:
    return DPoint(as_coord(x), Flavor.PRINCIPAL)


TOP_IDEAL = DPoint(INF, Flavor.STRICT)


def window_ends(a: Coord, b: ExtCoord) -> tuple[DPoint, DPoint]:
    """The ends of the window of [a, b), the closed stretch of ideals with a nonzero
    map from [a, b): (a, principal) and (b, strict), the top ideal for infinite b."""
    return DPoint(a, Flavor.PRINCIPAL), DPoint(b, Flavor.STRICT)


def require_dense(model: IndexModel, subject: str, *ideals: DPoint) -> None:
    """The one guard of the spectrum and interleaving entries that read a model:
    raise ``dense_only`` unless model is a dense line (``subject`` opens the
    detail, as in "interleaving is"), then ``validate_dpoint`` each ideal in
    order."""
    if not isinstance(model, DenseLine):
        raise DomainError("dense_only", f"{subject} defined over the dense line models")
    for p in ideals:
        validate_dpoint(model, p)


def validate_dpoint(model: IndexModel, p: DPoint) -> None:
    """Raise DomainError unless p denotes an ideal of the model's index set."""
    if isinstance(model, FiniteChain):
        if is_inf(p.coord):
            raise DomainError(
                "bad_dpoint",
                "a finite chain's full ideal is principal at its top element",
            )
        if not model.is_member(p.coord):
            raise DomainError("bad_coord", f"{p.coord} is not a coordinate of this model")
        if p.flavor is Flavor.STRICT:
            raise DomainError(
                "bad_dpoint",
                "strict ideals of a finite chain coincide with principal ones; use the principal form",
            )
    elif p.flavor is Flavor.PRINCIPAL and not model.is_member(p.coord):
        raise DomainError(
            "bad_dpoint", f"{p.coord} is not an element of T, so it generates no principal ideal"
        )


def validate_interval(model: IndexModel, iv: FpInterval) -> None:
    """Raise ``bad_interval`` unless both finite ends of iv are elements of T."""
    if not model.is_member(iv.start):
        raise DomainError("bad_interval", f"start {iv.start} is not an element of T")
    if not is_inf(iv.end) and not model.is_member(iv.end):
        raise DomainError("bad_interval", f"end {iv.end} is not an element of T")


def validate_module(model: IndexModel, m) -> None:
    """``validate_interval`` on every summand of the fp module m."""
    for iv in m.summands:
        validate_interval(model, iv)


# indexed by the sign of DPoint._cmp
_ORDERINGS = (Ordering.EQUAL, Ordering.GREATER, Ordering.LESS)


def cmp_d(model: IndexModel, p: DPoint, q: DPoint) -> Ordering:
    """Total order on ideals by inclusion; strict-at-x sits just below principal-at-x."""
    validate_dpoint(model, p)
    validate_dpoint(model, q)
    return _ORDERINGS[p._cmp(q)]


def contains(model: IndexModel, p: DPoint, t) -> bool:
    """Whether the element t of T lies in the ideal p."""
    validate_dpoint(model, p)
    t = as_coord(t)
    if not model.is_member(t):
        raise DomainError("not_a_member", f"{t} is not an element of T")
    # t lies in p exactly when its principal ideal does
    return DPoint(t, Flavor.PRINCIPAL) <= p


def classify_ideal(model: IndexModel, p: DPoint) -> IdealType:
    """Ideal types: principal; non-principal with a supremum in T; neither."""
    validate_dpoint(model, p)
    if p.flavor is Flavor.PRINCIPAL:
        return IdealType.TYPE1
    return IdealType.TYPE2 if model.is_member(p.coord) else IdealType.TYPE3

