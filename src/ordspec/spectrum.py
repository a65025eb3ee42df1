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

and the top ideal (inf, S) lies between (inf, 0) and (inf, 1), as a strict
ideal does; only the bottom cut, below all others, has no coordinate.  Cuts
are ordered by coordinate on the extended line, then by level.  Adjacency
of intervals is then literal equality of cuts, which keeps the canonical
form unique and the Boolean algebra exact.

A set stores its canonical form as one flat, strictly increasing tuple of
cuts, and there is one live object per cut (``shared_cut``) and per set,
so sets built apart share their cuts and equal sets are one object.
Equal coordinates are found by comparing their stored triples ``(rat,
coef, rad)``, which is exact because the form of a coordinate with a
squarefree radicand is unique; two sets are equal exactly when their cut
tuples are.  The constructor's sort and sweep
is the one merge of the Boolean algebra: ``union`` splices in a one-component
operand by bisection and otherwise calls the constructor, ``intersect`` goes
through complements, which make no compares, and ``is_subset`` bisects.

The closure of a symbolic set is computed by three independent algorithms
that are required to agree:

* ``DOUBLE_ORTHOGONAL``: complement gaps are covered by the unions of the
  basic window sets they contain (the window of the interval module
  [a, b), ``window_set``, is its support: the ideals admitting a nonzero
  map from it, the stretch between the end ideals of
  ``order_core.window_ends``); the closure is the complement of the
  covered parts.
* ``SUP_INF_SATURATION``: each component absorbs the supremum of its
  members when that is a strict-flavor limit from below, and the infimum
  when its members approach a missing least element from above; one pass
  is the fixpoint.
* ``ORDER_TOPOLOGY``: literal limit-point analysis in the order topology
  with open rays as subbasis, using immediate predecessor/successor
  reasoning; the limit points all sit at component boundaries, so one
  pass collects them.
"""

from __future__ import annotations

import enum
import json
from bisect import bisect_left, bisect_right
from operator import itemgetter
from weakref import WeakValueDictionary

from .coords import Coord, ExtCoord, INF, is_inf, rational_above, rational_below, rational_between
from .errors import DomainError, Ordered, Value
from .order_core import (
    TOP_IDEAL,
    DPoint,
    Flavor,
    FpInterval,
    IndexModel,
    require_dense,
    validate_dpoint,
    validate_interval,
    window_ends,
)


class Strategy(enum.Enum):
    DOUBLE_ORTHOGONAL = "double-orth"
    SUP_INF_SATURATION = "supinf"
    ORDER_TOPOLOGY = "order"


# The covering and saturation rules lean on density and unboundedness of the
# members of T; a finite chain has a discrete space of ideals instead.
_SUBJECT = "symbolic spectrum subsets are"


# ---------------------------------------------------------------------------
# Cuts


class _Shared:
    """A value kept as one live object per value, ``Cut`` and
    ``SymbolicSet``: the class's ``_make`` finds it in a weak table or builds
    it there, and the constructor returns what ``_make`` returns, so nothing
    is left for ``__init__`` to do.  The weak-reference slot lives here, so
    that the classes' ``__slots__`` stay their fields."""

    __slots__ = ("__weakref__",)

    def __new__(cls, *values):
        return cls._make(*values)

    def __init__(self, *args):
        pass


class Cut(_Shared, Ordered, Value):
    """A position between points of D, the pair (coord, level), ordered by
    coordinate on the extended line and then by level.

    ``INF_LOW`` and ``TOP`` are (INF, 0) and (INF, 1); only ``BOTTOM``, below
    every other cut, has coord None.  ``Cut(coord, level)`` is the one live
    cut of an equal pair (``shared_cut``), and so is a copied or unpickled
    cut.  Equal cuts are therefore one object: equality is identity, the
    hash is the object's own, and most comparisons of equal cuts end there.
    """

    __slots__ = ("coord", "level")

    __eq__ = object.__eq__
    __hash__ = object.__hash__

    @classmethod
    def _make(cls, coord: ExtCoord | None, level: int) -> "Cut":
        """The cut (coord, level): the one live object of an equal pair, from
        its level's table, built through the value base on first use."""
        table = _CUTS[level]
        cut = table.get(coord)
        if cut is None:
            cut = table[coord] = super()._make(coord, level)
        return cut

    def _cmp(self, other: "Cut") -> int:
        # at most one coordinate compare, none between equal cuts
        if self is other:
            return 0
        x, y = self.coord, other.coord
        if x is not y:
            # BOTTOM alone has no coordinate
            sign = (y is None) - (x is None) or x._cmp(y)
            if sign:
                return sign
        return (self.level > other.level) - (self.level < other.level)


# The live cuts, one table per level keyed by the coordinate.  The tables
# hold their cuts weakly: an entry goes when no set holds its cut.
_CUTS = (WeakValueDictionary(), WeakValueDictionary(), WeakValueDictionary())

# the constructor's lookup without its call overhead, for the hot paths
shared_cut = Cut._make

# held here, so that the table keeps them
BOTTOM = shared_cut(None, 0)
INF_LOW = shared_cut(INF, 0)
TOP = shared_cut(INF, 1)


def cut_below(p: DPoint) -> Cut:
    return shared_cut(p.coord, 0 if p.flavor is Flavor.STRICT else 1)


def cut_above(model: IndexModel, p: DPoint) -> Cut:
    """The cut just above p.  A coordinate outside T has no level 2, so a
    principal p there, which ``interleaving.ball`` may ask for, ends at level 1."""
    level = 2 if p.flavor is Flavor.PRINCIPAL and model.is_member(p.coord) else 1
    return shared_cut(p.coord, level)


def point_starting_at(model: IndexModel, c: Cut) -> DPoint | None:
    """The point whose lower cut is exactly c, when one exists; ``BOTTOM``
    starts none."""
    x = c.coord
    if c.level == 0 and x is not None:
        return DPoint(x, Flavor.STRICT)
    if c.level == 1 and model.is_member(x):
        return DPoint(x, Flavor.PRINCIPAL)
    return None


def point_ending_at(c: Cut) -> DPoint | None:
    """The point whose upper cut is exactly c, when one exists: none at level
    0, which ``BOTTOM`` has too."""
    if c.level == 0:
        return None
    return DPoint(c.coord, Flavor.STRICT if c.level == 1 else Flavor.PRINCIPAL)


# ---------------------------------------------------------------------------
# Endpoints, intervals, symbolic sets

BELOW_ALL = "below_all"


class DEndpoint(Value):
    """An endpoint of a D interval: a point (or the phantom below everything)
    together with an inclusion flag."""

    __slots__ = ("point", "included")

    def __init__(self, point: DPoint | str, included: bool):
        if point == BELOW_ALL and included:
            raise DomainError("bad_endpoint", "there is no least ideal to include")
        super().__init__(point, included)


class SymbolicSet(_Shared, Value):
    """A finite union of D intervals in canonical cut form.

    ``cuts`` is one flat tuple lo0, hi0, lo1, hi1, ... of strictly increasing
    cuts: every component is nonempty and no two components touch, so the
    form is unique.  ``parts`` views it as (lo, hi) pairs.  The set
    operations build their results, already canonical, by ``_make(cuts)``.
    Like a cut, a set is one live object per value: ``SymbolicSet(parts)``,
    ``_make``, a copy and an unpickled set all return the set with those
    cuts from a weak table, so kept answers share their sets.  Equality and
    hash stay the value base's, over a tuple of cuts that hash by identity.
    """

    __slots__ = ("cuts",)

    def __new__(cls, parts):
        # one linear merge in order of lo, after a sort (k - 1 compares in order)
        out = []
        for lo, hi in sorted(parts, key=itemgetter(0)):
            if not out or out[-1] < lo:
                if lo < hi:
                    out += (lo, hi)
            elif out[-1] < hi:
                out[-1] = hi
        return cls._make(tuple(out))

    @classmethod
    def _make(cls, cuts: tuple) -> "SymbolicSet":
        """The set with these canonical cuts: the one live object, from the
        table, built through the value base on first use."""
        s = _SETS.get(cuts)
        if s is None:
            s = _SETS[cuts] = super()._make(cuts)
        return s

    @property
    def parts(self) -> tuple:
        c = self.cuts
        return tuple(zip(c[0::2], c[1::2]))

    def __str__(self):
        if not self.cuts:
            return "{}"
        return " u ".join(f"({lo.coord},{lo.level})..({hi.coord},{hi.level})" for lo, hi in self.parts)


# The live sets, keyed by their cut tuples and held weakly, as the cuts are.
_SETS = WeakValueDictionary()

EMPTY_SET = SymbolicSet._make(())


def interval_cuts(model: IndexModel, lo: DEndpoint, hi: DEndpoint) -> tuple[Cut, Cut]:
    """The lower and upper cut of the D interval between two endpoints."""
    require_dense(model, _SUBJECT)
    if lo.point == BELOW_ALL:
        lo_cut = BOTTOM
    else:
        validate_dpoint(model, lo.point)
        lo_cut = cut_below(lo.point) if lo.included else cut_above(model, lo.point)
    if hi.point == BELOW_ALL:
        raise DomainError("bad_endpoint", "below_all cannot be an upper endpoint")
    validate_dpoint(model, hi.point)
    hi_cut = cut_above(model, hi.point) if hi.included else cut_below(hi.point)
    if not lo_cut < hi_cut:
        raise DomainError("empty_interval", "the interval contains no ideal")
    return lo_cut, hi_cut


def interval_set(model: IndexModel, lo: DEndpoint, hi: DEndpoint) -> SymbolicSet:
    """The symbolic set of a single D interval given by two endpoints; every
    basic set is one."""
    return SymbolicSet._make(interval_cuts(model, lo, hi))


_FROM_BOTTOM = DEndpoint(BELOW_ALL, False)
_TO_TOP = DEndpoint(TOP_IDEAL, True)


def full_set(model: IndexModel) -> SymbolicSet:
    return interval_set(model, _FROM_BOTTOM, _TO_TOP)


def singleton(model: IndexModel, p: DPoint) -> SymbolicSet:
    return interval_set(model, DEndpoint(p, True), DEndpoint(p, True))


def ray_upward(model: IndexModel, p: DPoint, included: bool = True) -> SymbolicSet:
    """The ideals above p; above the top ideal there is none."""
    if included or p != TOP_IDEAL:
        return interval_set(model, DEndpoint(p, included), _TO_TOP)
    require_dense(model, _SUBJECT)
    return EMPTY_SET


def ray_downward(model: IndexModel, p: DPoint, included: bool = True) -> SymbolicSet:
    return interval_set(model, _FROM_BOTTOM, DEndpoint(p, included))


def union(a: SymbolicSet, b: SymbolicSet) -> SymbolicSet:
    """A one-component operand is spliced into the other set by bisection,
    O(log n) cut compares; any other union is the constructor's merge of
    both sets' components, whose sort merges the two sorted runs, O(m + n)."""
    if len(a.cuts) == 2:
        a, b = b, a
    if len(b.cuts) != 2:
        return SymbolicSet(a.parts + b.parts)
    cuts, (lo, hi) = a.cuts, b.cuts
    # the run cuts[i:j] that (lo, hi) overlaps or touches becomes one component
    i = bisect_left(cuts, lo)
    if i & 1:
        # lo falls in (or ends) the component cuts[i-1:i+1]
        i -= 1
        lo = cuts[i]
    j = bisect_right(cuts, hi, i)
    if j & 1:
        # hi falls in (or starts) the component cuts[j-1:j+1]
        hi = cuts[j]
        j += 1
    # a whole-tuple slice or an empty tail costs no copy
    return SymbolicSet._make(cuts[:i] + (lo, hi) + cuts[j:])


def complement(model: IndexModel, a: SymbolicSet) -> SymbolicSet:
    gaps = (BOTTOM, *a.cuts, TOP)
    # the gap at an end is empty when a reaches BOTTOM or TOP
    first = 2 if gaps[1] == BOTTOM else 0
    last = len(gaps) - 2 if gaps[-2] == TOP else len(gaps)
    return SymbolicSet._make(gaps[first:last])


def intersect(model: IndexModel, a: SymbolicSet, b: SymbolicSet) -> SymbolicSet:
    """The complement of the union of the complements: one ``union``, since
    complements make no compares, O(m + n)."""
    return complement(model, union(complement(model, a), complement(model, b)))


def _in_one_component(cuts: tuple, lo: Cut, hi: Cut) -> bool:
    """Whether the nonempty stretch (lo, hi) lies in one component of cuts:
    the last cut at or below lo opens a component that reaches hi."""
    i = bisect_right(cuts, lo)
    return bool(i & 1) and not cuts[i] < hi


def member(model: IndexModel, a: SymbolicSet, p: DPoint) -> bool:
    require_dense(model, _SUBJECT, p)
    return _in_one_component(a.cuts, cut_below(p), cut_above(model, p))


def is_subset(model: IndexModel, a: SymbolicSet, b: SymbolicSet) -> bool:
    """Each component of a lies in one component of b, found by bisection:
    O(m log n) cut compares for a of m and b of n components."""
    return all(_in_one_component(b.cuts, lo, hi) for lo, hi in a.parts)


def lower_endpoint_of_cut(model: IndexModel, c: Cut) -> DEndpoint:
    """Canonical endpoint form of a cut used as a lower interval boundary: it
    includes the point that starts at c, or else excludes the point that ends
    at c; only the bottom cut has neither."""
    p = point_starting_at(model, c)
    if p is not None:
        return DEndpoint(p, True)
    q = point_ending_at(c)
    return DEndpoint(BELOW_ALL if q is None else q, False)


def upper_endpoint_of_cut(model: IndexModel, c: Cut) -> DEndpoint:
    """Canonical endpoint form of a cut used as an upper interval boundary: it
    includes the point that ends at c, or else excludes the point that starts
    at c."""
    p = point_ending_at(c)
    if p is not None:
        return DEndpoint(p, True)
    q = point_starting_at(model, c)
    if q is None:
        raise DomainError("bad_cut", "nothing lies below the bottom")
    return DEndpoint(q, False)


# ---------------------------------------------------------------------------
# Windows and the orthogonality engine


def _window_cuts(model: IndexModel, iv: FpInterval) -> tuple[Cut, Cut]:
    """The cuts of the window of iv, around its end ideals (``window_ends``)."""
    lo, hi = window_ends(iv.start, iv.end)
    return cut_below(lo), cut_above(model, hi)


def window_set(model: IndexModel, iv: FpInterval) -> SymbolicSet:
    """The window of the interval module iv, which is its support: the
    ideals admitting a nonzero map from iv.  Both finite ends of iv must be
    elements of T (``bad_interval``, as ``hom`` reports it)."""
    require_dense(model, _SUBJECT)
    validate_interval(model, iv)
    return SymbolicSet._make(_window_cuts(model, iv))


def cover_of_gap(model: IndexModel, lo: Cut, hi: Cut):
    """The union of all windows inside the gap (lo, hi), as cuts, or None.

    The window [a, b) occupies [(a,1), (b,1)] with a an element of T and b an
    element or infinity; density of the members of T in the line determines
    how close the union creeps to the gap boundary.
    """
    if lo.level == 0 and lo.coord is not None:
        # the first point of the gap is a strict ideal; windows start just
        # above it, past TOP when it is the top ideal
        clo = shared_cut(lo.coord, 1)
    else:
        clo = lo
    if hi.level == 2:
        # the gap's top point is principal; no window reaches past the strict
        # ideal below it, but the window ending exactly there is admissible
        chi = shared_cut(hi.coord, 1)
    elif hi.level == 1 and not is_inf(hi.coord) and not model.is_member(hi.coord):
        # a cut coordinate outside T: windows cannot end at it, so the strict
        # ideal there is never covered; but [a, inf) reaches the top ideal
        chi = shared_cut(hi.coord, 0)
    else:
        chi = hi
    if clo < chi:
        return (clo, chi)
    return None


class SerreRegion(Value):
    """Intervals [a, b) with no nonzero maps into a given set of ideals.

    A region is its ``gaps``: the canonical set of ideals outside that given
    set.  An interval belongs to the region exactly when its window lies in
    one gap; the union of the windows inside a gap, its cover, is derived
    from the gap by ``cover_of_gap`` wherever it is needed.
    """

    __slots__ = ("gaps",)

    def covered_set(self, model: IndexModel) -> SymbolicSet:
        """The union of the covers, the ideals some interval of the region
        maps to; covers lie inside gaps that never touch, so it is canonical."""
        require_dense(model, _SUBJECT)
        c = self.gaps.cuts
        out = []
        for t in range(0, len(c), 2):
            cover = cover_of_gap(model, c[t], c[t + 1])
            if cover is not None:
                out += cover
        return SymbolicSet._make(tuple(out))

    def contains_interval(self, model: IndexModel, iv: FpInterval) -> bool:
        """Whether iv belongs to the region: its window lies in one gap.  The
        interval is read as its window's cuts, (start, 1) and (end, 1), and is
        not checked against T."""
        require_dense(model, _SUBJECT)
        return _in_one_component(self.gaps.cuts, *_window_cuts(model, iv))


def left_orthogonal(model: IndexModel, u: SymbolicSet) -> SerreRegion:
    """All interval modules with no nonzero map into any ideal of u."""
    require_dense(model, _SUBJECT)
    return SerreRegion(complement(model, u))


def right_orthogonal(model: IndexModel, r: SerreRegion) -> SymbolicSet:
    """All ideals with no nonzero map from any interval module of the region."""
    return complement(model, r.covered_set(model))


def region_subset(model: IndexModel, r1: SerreRegion, r2: SerreRegion) -> bool:
    """Whether every interval of r1 belongs to r2, by one ``is_subset``.

    The windows inside one gap of r1 form a connected cover, so they all fit
    into r2 exactly when that cover fits inside a single gap of r2; since the
    gaps of r2 never touch, that is when it lies in their union.
    """
    return is_subset(model, r1.covered_set(model), r2.gaps)


def region_eq(model: IndexModel, r1: SerreRegion, r2: SerreRegion) -> bool:
    return region_subset(model, r1, r2) and region_subset(model, r2, r1)


# ---------------------------------------------------------------------------
# Closure, three ways


def _closure_double_orthogonal(model: IndexModel, u: SymbolicSet) -> SymbolicSet:
    return right_orthogonal(model, left_orthogonal(model, u))


def _closure_supinf(model: IndexModel, u: SymbolicSet) -> SymbolicSet:
    """Saturates each component by its supremum and infimum, in one pass.

    The pass leaves every upper cut at level 1 (``TOP`` is (inf, 1)) or 2,
    and every lower cut at level 0 (``BOTTOM`` and (inf, 0) among them) or
    at a member's level 1.  No rule applies to any of these, and merging the
    saturated components keeps their outer cuts, so a second pass changes
    nothing: one pass is the fixpoint.
    """
    parts = []
    for lo, hi in u.parts:
        if hi.level == 0:
            # no greatest element: the union of the members is the strict
            # ideal at the boundary coordinate (the full ideal at infinity)
            hi = shared_cut(hi.coord, 1)
        # TOP, the one infinite cut above level 0, is never a lower cut
        if lo.level == 2:
            # members shrink toward the principal ideal below the gap
            lo = shared_cut(lo.coord, 1)
        elif lo.level == 1 and not model.is_member(lo.coord):
            # members shrink toward the strict ideal at a cut coordinate
            lo = shared_cut(lo.coord, 0)
        parts.append((lo, hi))
    return SymbolicSet(parts)


def _has_immediate_predecessor(p: DPoint) -> bool:
    # the top ideal is strict
    return p.flavor is Flavor.PRINCIPAL


def _has_immediate_successor(model: IndexModel, p: DPoint) -> bool:
    return p.flavor is Flavor.STRICT and model.is_member(p.coord)


def _closure_order_topology(model: IndexModel, u: SymbolicSet) -> SymbolicSet:
    """Adds the limit points at the component boundaries, in one pass.

    The point just above a component is never in u, since components do
    not touch; it is a limit point of u exactly when it has no immediate
    predecessor, for then every neighbourhood reaches below it into the
    component.  Likewise for the point just below a component and immediate
    successors.  The new boundary of a component is then a principal ideal
    above, the strict ideal at a member below, or no point at all, so the
    added points bring no further limit points and one pass is the fixpoint.
    Each component grows by its limit points, in order, and one constructor
    call merges the components that now meet.
    """
    parts = []
    for lo, hi in u.parts:
        q = point_ending_at(lo)
        if q is not None and not _has_immediate_successor(model, q):
            lo = cut_below(q)
        p = point_starting_at(model, hi)
        if p is not None and not _has_immediate_predecessor(p):
            hi = cut_above(model, p)
        parts.append((lo, hi))
    return SymbolicSet(parts)


def closure(model: IndexModel, u: SymbolicSet, strategy: Strategy) -> SymbolicSet:
    require_dense(model, _SUBJECT)
    if strategy is Strategy.DOUBLE_ORTHOGONAL:
        return _closure_double_orthogonal(model, u)
    if strategy is Strategy.SUP_INF_SATURATION:
        return _closure_supinf(model, u)
    if strategy is Strategy.ORDER_TOPOLOGY:
        return _closure_order_topology(model, u)
    raise DomainError("bad_strategy", f"unknown closure strategy {strategy!r}")


def closure_all_strategies(model: IndexModel, u: SymbolicSet) -> SymbolicSet:
    results = {s.value: closure(model, u, s) for s in Strategy}
    first = results[Strategy.DOUBLE_ORTHOGONAL.value]
    if any(r != first for r in results.values()):
        from . import jsonio  # jsonio imports this module

        witness = {k: jsonio.encode_set(model, v) for k, v in {"input": u, **results}.items()}
        # a broken invariant, which the command line reports with exit code 3
        raise AssertionError(
            "the three closure algorithms disagree; this is a bug witness: "
            + json.dumps(witness, sort_keys=True, separators=(",", ":"))
        )
    return first


def is_closed(model: IndexModel, u: SymbolicSet) -> bool:
    """Whether u is closed, decided by the double-orthogonality strategy: u is
    closed exactly when the right orthogonal of its left orthogonal is u."""
    return _closure_double_orthogonal(model, u) == u


# ---------------------------------------------------------------------------
# Separation


def _member_below(model: IndexModel, x: Coord) -> Coord:
    """An element of T strictly below x; x - 1 when that is one."""
    shifted = x - Coord(1)
    return shifted if model.is_member(shifted) else rational_below(x)


def _member_above(model: IndexModel, x: Coord) -> Coord:
    """An element of T strictly above x; x + 1 when that is one."""
    shifted = x + Coord(1)
    return shifted if model.is_member(shifted) else rational_above(x)


def separate(model: IndexModel, p: DPoint, q: DPoint):
    """Two disjoint clopen window sets, the first containing p, the second q."""
    require_dense(model, _SUBJECT, p, q)
    if p == q:
        raise DomainError("equal_points", "cannot separate an ideal from itself")
    if q < p:
        around_q, around_p = separate(model, q, p)
        return around_p, around_q
    x = p.coord
    a = x if p.flavor is Flavor.PRINCIPAL else _member_below(model, x)
    if is_inf(q.coord):
        m = _member_above(model, x)
        m2 = _member_above(model, m)
    else:
        # q principal at x itself when p is the strict ideal just below it
        m = m2 = q.coord if q.flavor is Flavor.PRINCIPAL else rational_between(x, q.coord)
    return window_set(model, FpInterval(a, m)), window_set(model, FpInterval(m2, INF))


def integer_cover_member(model: IndexModel, n: int | None) -> SymbolicSet:
    """The n-th piece of the clopen integer cover of the whole space.

    For an int n <= 0 this is the window [n-1, n); ``None`` gives the
    unbounded top piece [0, infinity).  Any other index, a bool or a float
    included, raises ``bad_cover_index``.  The pieces are pairwise disjoint
    and jointly cover every ideal.
    """
    require_dense(model, _SUBJECT)
    if n is None:
        return window_set(model, FpInterval(Coord(0), INF))
    if n.__class__ is not int or n > 0:
        raise DomainError("bad_cover_index", f"indexed pieces exist for integers n <= 0 only, got {n!r}")
    return window_set(model, FpInterval(Coord(n - 1), Coord(n)))
