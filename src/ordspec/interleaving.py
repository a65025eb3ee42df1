"""The interleaving pseudometric on the spectrum over the dense line.

Sign convention, stated once and prominently: the shift by eps moves
interval data DOWN, because the shifted module evaluates the original one
eps further to the right.  [a, b) becomes [a - eps, b - eps) and the ideal
at coordinate c becomes the ideal at c - eps; the full ideal is fixed.

Two ideals are eps-interleaved exactly when each shifted ideal is contained
in the other, decided by the exact order on the double line; the boundary
eps equal to the coordinate distance is therefore decided rather than
approximated.  The distance between two bounded ideals is the absolute
coordinate difference, flavors invisible; the full ideal sits at infinite
distance from everything else.  The pseudometric takes values in [0, inf]:
a distance, and each bound of a scan's bracket, is an extended coordinate.
"""

from __future__ import annotations

from fractions import Fraction

from .coords import INF, ZERO, Coord, ExtCoord, is_inf
from .errors import DomainError, Value
from .fields import QQ
from .order_core import DPoint, Flavor, FpInterval, IndexModel, require_dense
from .order_core import validate_dpoint, validate_interval

_SUBJECT = "interleaving is"


def eps_value(value) -> int | Fraction:
    """A shift amount: an exact number, an int or a Fraction, as
    ``Field.scalar`` of QQ admits (else ``bad_scalar``), and not negative
    (``bad_eps``)."""
    eps = QQ.scalar(value)
    if eps < 0:
        raise DomainError("bad_eps", "shift amounts must be non-negative")
    return eps


def shift_interval(model: IndexModel, iv: FpInterval, eps) -> FpInterval:
    """iv shifted down by eps; both finite ends of iv must be elements of T
    (``bad_interval``), as ``window_set`` checks them."""
    require_dense(model, _SUBJECT)
    validate_interval(model, iv)
    delta = Coord(eps_value(eps))
    new_end = iv.end if is_inf(iv.end) else iv.end - delta
    return FpInterval(iv.start - delta, new_end)


def shift_ideal(model: IndexModel, p: DPoint, eps) -> DPoint:
    require_dense(model, _SUBJECT, p)
    eps = eps_value(eps)
    if is_inf(p.coord):
        return p
    return DPoint(p.coord - Coord(eps), p.flavor)


def is_interleaved(model: IndexModel, i: DPoint, j: DPoint, eps) -> bool:
    """Whether the ideals i and j admit an eps-interleaving.

    Maps between these injectives exist exactly for containments of ideals,
    and the transition maps are never zero, so the interleaving condition
    collapses to shift(j) <= i and shift(i) <= j in the double line order.
    """
    require_dense(model, _SUBJECT, i, j)
    eps = eps_value(eps)
    si = shift_ideal(model, i, eps)
    sj = shift_ideal(model, j, eps)
    return sj <= i and si <= j


def distance(model: IndexModel, i: DPoint, j: DPoint) -> ExtCoord:
    """The interleaving distance, the coordinate difference with flavors
    invisible: a ``Coord``, zero between the top ideal and itself, or ``INF``
    between the top ideal and any other."""
    require_dense(model, _SUBJECT, i, j)
    if i.coord == j.coord:
        return ZERO
    if is_inf(i.coord) or is_inf(j.coord):
        return INF
    return abs(i.coord - j.coord)


def ball(model: IndexModel, p: DPoint, eps) -> SymbolicSet:
    """The open metric ball around p; the ball around the full ideal is itself."""
    from .spectrum import INF_LOW, TOP, SymbolicSet, cut_above, cut_below

    require_dense(model, _SUBJECT, p)
    eps = eps_value(eps)
    if eps == 0:
        raise DomainError("bad_eps", "open balls need a positive radius")
    if is_inf(p.coord):
        return SymbolicSet(((INF_LOW, TOP),))
    delta = Coord(eps)
    lo = cut_above(model, DPoint(p.coord - delta, Flavor.PRINCIPAL))
    hi = cut_below(DPoint(p.coord + delta, Flavor.STRICT))
    return SymbolicSet(((lo, hi),))


class DistanceBracket(Value):
    """Result of the grid scan: extended coordinates lower <= upper, at most
    one step apart, or both ``INF``; the distance d lies in it,
    ``lower <= d <= upper``."""

    __slots__ = ("lower", "upper")


INFINITE_BRACKET = DistanceBracket(INF, INF)

# The longest scan brute_force_distance runs before it refuses.
_MAX_SCAN_STEPS = 10**5


def brute_force_distance(model: IndexModel, i: DPoint, j: DPoint, step) -> DistanceBracket:
    """Bracket the interleaving infimum by bisecting eps on a uniform grid.

    The step is an exact number, an int or a Fraction (else ``bad_scalar``),
    and positive (``bad_step``).  The grid is eps = k*step for k = 0, 1, ...,
    floor(cutoff/step) + 1, so it ends at the first grid point past the
    cutoff: the coordinate distance plus one, or one when a coordinate is
    infinite.  A finite distance lies below the cutoff, so with no
    interleaving at the last grid point the distance is reported infinite.
    Interleavings are monotone in eps, so the least k*step that interleaves
    is found by bisection, in about log2 of the grid's length decisions, and
    yields the bracket [(k-1)*step, k*step] ([0, 0] at k = 0), of Coords: the
    one a scan of the grid from k = 0 would find.  A cutoff more than
    _MAX_SCAN_STEPS steps away is refused with ``scan_too_long``.
    """
    require_dense(model, _SUBJECT)
    step = QQ.scalar(step)
    if step <= 0:
        raise DomainError("bad_step", "the scan step must be positive")
    validate_dpoint(model, i)
    validate_dpoint(model, j)
    if is_inf(i.coord) or is_inf(j.coord):
        cutoff = Fraction(1)
    else:
        gap = abs(i.coord - j.coord)
        if not gap.is_rational:
            raise DomainError(
                "irrational_gap", "the scan cutoff needs a rational coordinate distance"
            )
        cutoff = gap.rat + 1
    if cutoff / step > _MAX_SCAN_STEPS:
        raise DomainError(
            "scan_too_long", f"the scan to {cutoff} at step {step} exceeds {_MAX_SCAN_STEPS} steps"
        )
    hi = cutoff // step + 1
    if not is_interleaved(model, i, j, hi * step):
        return INFINITE_BRACKET
    # lo misses (k = -1 stands below the grid), hi interleaves
    lo = -1
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if is_interleaved(model, i, j, mid * step):
            hi = mid
        else:
            lo = mid
    return DistanceBracket(Coord(max(hi - 1, 0) * step), Coord(hi * step))
