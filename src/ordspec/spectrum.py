"""Symbolic subsets of the ordered space of ideals and its closure operator.

The space D of ideals is a totally ordered set: at every coordinate x there
is the strict ideal (x, S) immediately followed, when x is an element of T,
by the principal ideal (x, P); on top sits the full ideal at infinity.
Finite unions of order intervals of D are represented exactly through
*cuts*: positions between points.  At a finite coordinate x the possible
cuts are

    (x, 0)   just below (x, S)
    (x, 1)   between (x, S) and (x, P)       (above (x, S) when x is no member)
    (x, 2)   just above (x, P)               (members only)

plus a bottom cut and the cuts (inf, 0) / (inf, 1) around the top ideal.
Adjacency of intervals is then literal equality of cuts, which keeps the
canonical form unique and the Boolean algebra exact.

The closure of a symbolic set is computed by three independent algorithms
that are required to agree:

* ``DOUBLE_ORTHOGONAL``: complement gaps are covered by the unions of the
  basic window sets they contain (a window [a, b) covers the ideals
  admitting a nonzero map from the interval module [a, b)); the closure is
  the complement of the covered parts.
* ``SUP_INF_SATURATION``: each component absorbs the supremum of its
  members when that is a strict-flavor limit from below, and the infimum
  when its members approach a missing least element from above; iterated
  to a fixpoint.
* ``ORDER_TOPOLOGY``: literal limit-point analysis in the order topology
  with open rays as subbasis, using immediate predecessor/successor
  reasoning.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass

from .coords import Coord, ExtCoord, INF, is_inf
from .errors import DomainError
from .fp_category import FpInterval
from .order_core import (
    DenseLine,
    DPoint,
    Flavor,
    IndexModel,
    Ordering,
    cmp_d_unchecked,
    member_above,
    member_below,
    member_between,
    validate_dpoint,
)


class Strategy(enum.Enum):
    DOUBLE_ORTHOGONAL = "double-orth"
    SUP_INF_SATURATION = "supinf"
    ORDER_TOPOLOGY = "order"


def _require_dense(model: IndexModel) -> None:
    # the covering and saturation rules lean on density and unboundedness of
    # the members of T; a finite chain has a discrete space of ideals instead
    if not isinstance(model, DenseLine):
        raise DomainError(
            "dense_only", "symbolic spectrum subsets are defined over the dense line models"
        )


# ---------------------------------------------------------------------------
# Cuts

_BOTTOM_KIND, _FINITE_KIND, _INF_KIND = 0, 1, 2


@dataclass(frozen=True, order=True)
class Cut:
    # ordered by (kind, coord, level); BOTTOM and the INF cuts carry coord=None
    kind: int
    coord: Coord | None
    level: int


BOTTOM = Cut(_BOTTOM_KIND, None, 0)
TOP = Cut(_INF_KIND, None, 1)
INF_LOW = Cut(_INF_KIND, None, 0)


def finite_cut(model: IndexModel, coord: Coord, level: int) -> Cut:
    if level == 2 and not model.is_member(coord):
        level = 1
    return Cut(_FINITE_KIND, coord, level)


def cut_below(model: IndexModel, p: DPoint) -> Cut:
    if is_inf(p.coord):
        return INF_LOW
    return finite_cut(model, p.coord, 0 if p.flavor is Flavor.STRICT else 1)


def cut_above(model: IndexModel, p: DPoint) -> Cut:
    if is_inf(p.coord):
        return TOP
    return finite_cut(model, p.coord, 1 if p.flavor is Flavor.STRICT else 2)


def point_starting_at(model: IndexModel, c: Cut) -> DPoint | None:
    """The point whose lower cut is exactly c, when one exists."""
    if c.kind == _BOTTOM_KIND:
        return None
    if c.kind == _INF_KIND:
        return DPoint(INF, Flavor.STRICT) if c.level == 0 else None
    if c.level == 0:
        return DPoint(c.coord, Flavor.STRICT)
    if c.level == 1 and model.is_member(c.coord):
        return DPoint(c.coord, Flavor.PRINCIPAL)
    return None


def point_ending_at(model: IndexModel, c: Cut) -> DPoint | None:
    """The point whose upper cut is exactly c, when one exists."""
    if c.kind == _BOTTOM_KIND:
        return None
    if c.kind == _INF_KIND:
        return DPoint(INF, Flavor.STRICT) if c.level == 1 else None
    if c.level == 1:
        return DPoint(c.coord, Flavor.STRICT)
    if c.level == 2:
        return DPoint(c.coord, Flavor.PRINCIPAL)
    return None


# ---------------------------------------------------------------------------
# Endpoints, intervals, symbolic sets

BELOW_ALL = "below_all"


@dataclass(frozen=True)
class DEndpoint:
    """An endpoint of a D interval: a point (or the phantom below everything)
    together with an inclusion flag."""

    point: DPoint | str
    included: bool

    def __post_init__(self):
        if self.point == BELOW_ALL and self.included:
            raise DomainError("bad_endpoint", "there is no least ideal to include")


class SymbolicSet:
    """A finite union of D intervals in canonical cut form."""

    __slots__ = ("parts",)

    def __init__(self, parts):
        merged: list[list[Cut]] = []
        for lo, hi in sorted(parts, key=lambda ab: (ab[0], ab[1])):
            if not lo < hi:
                continue
            if merged and lo <= merged[-1][1]:
                if hi > merged[-1][1]:
                    merged[-1][1] = hi
            else:
                merged.append([lo, hi])
        object.__setattr__(self, "parts", tuple((lo, hi) for lo, hi in merged))

    def __setattr__(self, name, value):
        raise AttributeError("SymbolicSet is immutable")

    def __eq__(self, other):
        return isinstance(other, SymbolicSet) and self.parts == other.parts

    def __hash__(self):
        return hash(self.parts)

    @property
    def is_empty(self) -> bool:
        return not self.parts

    def __str__(self):
        if not self.parts:
            return "{}"
        return " u ".join(f"({lo.kind},{lo.coord},{lo.level})..({hi.kind},{hi.coord},{hi.level})" for lo, hi in self.parts)


EMPTY_SET = SymbolicSet(())


def full_set(model: IndexModel) -> SymbolicSet:
    _require_dense(model)
    return SymbolicSet(((BOTTOM, TOP),))


def interval_set(model: IndexModel, lo: DEndpoint, hi: DEndpoint) -> SymbolicSet:
    """The symbolic set of a single D interval given by two endpoints."""
    _require_dense(model)
    if lo.point == BELOW_ALL:
        lo_cut = BOTTOM
    else:
        validate_dpoint(model, lo.point)
        lo_cut = cut_below(model, lo.point) if lo.included else cut_above(model, lo.point)
    if hi.point == BELOW_ALL:
        raise DomainError("bad_endpoint", "below_all cannot be an upper endpoint")
    validate_dpoint(model, hi.point)
    hi_cut = cut_above(model, hi.point) if hi.included else cut_below(model, hi.point)
    if not lo_cut < hi_cut:
        raise DomainError("empty_interval", "the interval contains no ideal")
    return SymbolicSet(((lo_cut, hi_cut),))


def singleton(model: IndexModel, p: DPoint) -> SymbolicSet:
    _require_dense(model)
    validate_dpoint(model, p)
    return SymbolicSet(((cut_below(model, p), cut_above(model, p)),))


def ray_upward(model: IndexModel, p: DPoint, included: bool = True) -> SymbolicSet:
    _require_dense(model)
    validate_dpoint(model, p)
    lo = cut_below(model, p) if included else cut_above(model, p)
    if not lo < TOP:
        return EMPTY_SET
    return SymbolicSet(((lo, TOP),))


def ray_downward(model: IndexModel, p: DPoint, included: bool = True) -> SymbolicSet:
    _require_dense(model)
    validate_dpoint(model, p)
    hi = cut_above(model, p) if included else cut_below(model, p)
    if not BOTTOM < hi:
        return EMPTY_SET
    return SymbolicSet(((BOTTOM, hi),))


def union(a: SymbolicSet, b: SymbolicSet) -> SymbolicSet:
    return SymbolicSet(a.parts + b.parts)


def complement(model: IndexModel, a: SymbolicSet) -> SymbolicSet:
    gaps = []
    prev = BOTTOM
    for lo, hi in a.parts:
        if prev < lo:
            gaps.append((prev, lo))
        prev = hi
    if prev < TOP:
        gaps.append((prev, TOP))
    return SymbolicSet(gaps)


def intersect(model: IndexModel, a: SymbolicSet, b: SymbolicSet) -> SymbolicSet:
    out = []
    for lo1, hi1 in a.parts:
        for lo2, hi2 in b.parts:
            lo = lo1 if lo2 < lo1 else lo2
            hi = hi1 if hi1 < hi2 else hi2
            if lo < hi:
                out.append((lo, hi))
    return SymbolicSet(out)


def member(model: IndexModel, a: SymbolicSet, p: DPoint) -> bool:
    _require_dense(model)
    validate_dpoint(model, p)
    below, above = cut_below(model, p), cut_above(model, p)
    return any(lo <= below and above <= hi for lo, hi in a.parts)


def is_subset(model: IndexModel, a: SymbolicSet, b: SymbolicSet) -> bool:
    return intersect(model, a, complement(model, b)).is_empty


def lower_endpoint_of_cut(model: IndexModel, c: Cut) -> DEndpoint:
    """Canonical endpoint form of a cut used as a lower interval boundary."""
    if c.kind == _BOTTOM_KIND:
        return DEndpoint(BELOW_ALL, False)
    if c.kind == _INF_KIND:
        if c.level == 0:
            return DEndpoint(DPoint(INF, Flavor.STRICT), True)
        raise DomainError("bad_cut", "nothing lies above the full ideal")
    if c.level == 0:
        return DEndpoint(DPoint(c.coord, Flavor.STRICT), True)
    if c.level == 1:
        if model.is_member(c.coord):
            return DEndpoint(DPoint(c.coord, Flavor.PRINCIPAL), True)
        return DEndpoint(DPoint(c.coord, Flavor.STRICT), False)
    return DEndpoint(DPoint(c.coord, Flavor.PRINCIPAL), False)


def upper_endpoint_of_cut(model: IndexModel, c: Cut) -> DEndpoint:
    """Canonical endpoint form of a cut used as an upper interval boundary."""
    if c.kind == _BOTTOM_KIND:
        raise DomainError("bad_cut", "nothing lies below the bottom")
    if c.kind == _INF_KIND:
        included = c.level == 1
        return DEndpoint(DPoint(INF, Flavor.STRICT), included)
    if c.level == 0:
        return DEndpoint(DPoint(c.coord, Flavor.STRICT), False)
    if c.level == 1:
        return DEndpoint(DPoint(c.coord, Flavor.STRICT), True)
    return DEndpoint(DPoint(c.coord, Flavor.PRINCIPAL), True)


# ---------------------------------------------------------------------------
# Windows and the orthogonality engine


@dataclass(frozen=True)
class Window:
    """The D interval [(a, P), (b, S)]: ideals admitting a nonzero map from
    the interval module [a, b)."""

    a: Coord
    b: ExtCoord

    def __post_init__(self):
        if not self.a < self.b:
            raise DomainError("bad_window", "need a < b")


def window_set(model: IndexModel, w: Window) -> SymbolicSet:
    _require_dense(model)
    if not model.is_member(w.a):
        raise DomainError("bad_window", f"{w.a} is not an element of T")
    if not is_inf(w.b) and not model.is_member(w.b):
        raise DomainError("bad_window", f"{w.b} is not an element of T")
    lo = finite_cut(model, w.a, 1)
    hi = TOP if is_inf(w.b) else finite_cut(model, w.b, 1)
    return SymbolicSet(((lo, hi),))


def _cover_of_gap(model: IndexModel, lo: Cut, hi: Cut):
    """The union of all windows inside the gap (lo, hi), as cuts, or None.

    The window [a, b) occupies [(a,1), (b,1)] with a an element of T and b an
    element or infinity; density of the members of T in the line determines
    how close the union creeps to the gap boundary.
    """
    if lo.kind == _BOTTOM_KIND:
        clo = lo
    elif lo.level == 0:
        # the first point of the gap is a strict ideal; windows start just above
        clo = Cut(lo.kind, lo.coord, 1)
    else:
        clo = lo
    if hi == TOP:
        chi = hi
    elif hi.kind == _INF_KIND:
        chi = hi
    elif hi.level == 2:
        # the gap's top point is principal; no window reaches past the strict
        # ideal below it, but the window ending exactly there is admissible
        chi = finite_cut(model, hi.coord, 1)
    elif hi.level == 1 and not model.is_member(hi.coord):
        # a cut coordinate outside T: windows cannot end at it, so the strict
        # ideal there is never covered
        chi = Cut(_FINITE_KIND, hi.coord, 0)
    else:
        chi = hi
    if clo < chi:
        return (clo, chi)
    return None


@dataclass(frozen=True)
class SerreRegion:
    """Intervals [a, b) with no nonzero maps into a given set of ideals,
    encoded per complement gap together with the covered window union."""

    gaps: tuple  # tuple of ((lo, hi), (clo, chi) | None)

    def covered_set(self) -> SymbolicSet:
        return SymbolicSet(tuple(c for _, c in self.gaps if c is not None))

    def contains_interval(self, model: IndexModel, iv: FpInterval) -> bool:
        lo = finite_cut(model, iv.start, 1)
        hi = TOP if is_inf(iv.end) else finite_cut(model, iv.end, 1)
        return any(g_lo <= lo and hi <= g_hi for (g_lo, g_hi), _ in self.gaps)


def left_orthogonal(model: IndexModel, u: SymbolicSet) -> SerreRegion:
    """All interval modules with no nonzero map into any ideal of u."""
    _require_dense(model)
    gaps = []
    for lo, hi in complement(model, u).parts:
        gaps.append(((lo, hi), _cover_of_gap(model, lo, hi)))
    return SerreRegion(tuple(gaps))


def right_orthogonal(model: IndexModel, r: SerreRegion) -> SymbolicSet:
    """All ideals with no nonzero map from any interval module of the region."""
    return complement(model, r.covered_set())


def region_subset(model: IndexModel, r1: SerreRegion, r2: SerreRegion) -> bool:
    """Whether every interval of r1 belongs to r2.

    The windows inside one gap of r1 form a connected union, so they all fit
    into r2 exactly when that union fits inside a single gap of r2.
    """
    for (_, cover) in r1.gaps:
        if cover is None:
            continue
        clo, chi = cover
        if not any(g_lo <= clo and chi <= g_hi for (g_lo, g_hi), _ in r2.gaps):
            return False
    return True


def region_eq(model: IndexModel, r1: SerreRegion, r2: SerreRegion) -> bool:
    return region_subset(model, r1, r2) and region_subset(model, r2, r1)


# ---------------------------------------------------------------------------
# Closure, three ways


def _closure_double_orthogonal(model: IndexModel, u: SymbolicSet) -> SymbolicSet:
    return right_orthogonal(model, left_orthogonal(model, u))


def _saturate_once(model: IndexModel, u: SymbolicSet) -> SymbolicSet:
    parts = []
    for lo, hi in u.parts:
        if hi.kind != _BOTTOM_KIND and hi != TOP and hi.level == 0:
            # no greatest element: the union of the members is the strict
            # ideal at the boundary coordinate (the full ideal at infinity)
            hi = Cut(hi.kind, hi.coord, 1)
        if lo.kind == _FINITE_KIND:
            if lo.level == 2:
                # members shrink toward the principal ideal below the gap
                lo = finite_cut(model, lo.coord, 1)
            elif lo.level == 1 and not model.is_member(lo.coord):
                # members shrink toward the strict ideal at a cut coordinate
                lo = Cut(_FINITE_KIND, lo.coord, 0)
        parts.append((lo, hi))
    return SymbolicSet(parts)


def _closure_supinf(model: IndexModel, u: SymbolicSet) -> SymbolicSet:
    cur = u
    while True:
        nxt = _saturate_once(model, cur)
        if nxt == cur:
            return cur
        cur = nxt


def _has_immediate_predecessor(model: IndexModel, p: DPoint) -> bool:
    return not is_inf(p.coord) and p.flavor is Flavor.PRINCIPAL


def _has_immediate_successor(model: IndexModel, p: DPoint) -> bool:
    if is_inf(p.coord):
        return False
    return p.flavor is Flavor.STRICT and model.is_member(p.coord)


def _closure_order_topology(model: IndexModel, u: SymbolicSet) -> SymbolicSet:
    cur = u
    while True:
        additions = []
        for lo, hi in cur.parts:
            p = point_starting_at(model, hi)
            if (
                p is not None
                and not member(model, cur, p)
                and not _has_immediate_predecessor(model, p)
            ):
                # every neighbourhood of p reaches below the cut, hence meets u
                additions.append(p)
            q = point_ending_at(model, lo)
            if (
                q is not None
                and not member(model, cur, q)
                and not _has_immediate_successor(model, q)
            ):
                additions.append(q)
        if not additions:
            return cur
        for p in additions:
            cur = union(cur, singleton(model, p))


def closure(model: IndexModel, u: SymbolicSet, strategy: Strategy) -> SymbolicSet:
    _require_dense(model)
    if strategy is Strategy.DOUBLE_ORTHOGONAL:
        return _closure_double_orthogonal(model, u)
    if strategy is Strategy.SUP_INF_SATURATION:
        return _closure_supinf(model, u)
    if strategy is Strategy.ORDER_TOPOLOGY:
        return _closure_order_topology(model, u)
    raise DomainError("bad_strategy", f"unknown closure strategy {strategy!r}")


def closure_all_strategies(model: IndexModel, u: SymbolicSet) -> SymbolicSet:
    results = {s.value: closure(model, u, s) for s in Strategy}
    if len(set(results.values())) > 1:
        from . import jsonio  # jsonio imports this module

        witness = {k: jsonio.encode_set(model, v) for k, v in {"input": u, **results}.items()}
        raise DomainError(
            "strategy_disagreement",
            "the three closure algorithms disagree; this is a bug witness: "
            + json.dumps(witness, sort_keys=True, separators=(",", ":")),
        )
    return results[Strategy.DOUBLE_ORTHOGONAL.value]


def is_closed(model: IndexModel, u: SymbolicSet) -> bool:
    return _closure_double_orthogonal(model, u) == u


# ---------------------------------------------------------------------------
# Separation


def separate(model: IndexModel, p: DPoint, q: DPoint):
    """Two disjoint clopen window sets, the first containing p, the second q."""
    _require_dense(model)
    validate_dpoint(model, p)
    validate_dpoint(model, q)
    order = cmp_d_unchecked(p, q)
    if order is Ordering.EQUAL:
        raise DomainError("equal_points", "cannot separate an ideal from itself")
    if order is Ordering.GREATER:
        around_q, around_p = separate(model, q, p)
        return around_p, around_q
    if is_inf(q.coord):
        a_p = p.coord if p.flavor is Flavor.PRINCIPAL else member_below(model, p.coord)
        m1 = member_above(model, p.coord)
        m2 = member_above(model, m1)
        return (
            window_set(model, Window(a_p, m1)),
            window_set(model, Window(m2, INF)),
        )
    x, y = p.coord, q.coord
    if x == y:
        # p is the strict ideal just below the principal ideal q
        a = member_below(model, x)
        return window_set(model, Window(a, x)), window_set(model, Window(x, INF))
    a_p = x if p.flavor is Flavor.PRINCIPAL else member_below(model, x)
    if q.flavor is Flavor.PRINCIPAL:
        m = y
    else:
        m = member_between(model, x, y)
    return window_set(model, Window(a_p, m)), window_set(model, Window(m, INF))


def integer_cover_member(model: IndexModel, n: int | None) -> SymbolicSet:
    """The n-th piece of the clopen integer cover of the whole space.

    For n <= 0 this is the window [n-1, n); ``None`` gives the unbounded top
    piece [0, infinity).  The pieces are pairwise disjoint and jointly cover
    every ideal.
    """
    _require_dense(model)
    if n is None:
        return window_set(model, Window(Coord(0), INF))
    if n > 0:
        raise DomainError("bad_cover_index", "indexed pieces exist for n <= 0 only")
    return window_set(model, Window(Coord(n - 1), Coord(n)))
