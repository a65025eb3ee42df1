"""Exact coordinates on the index line.

A coordinate is either a rational number or a quadratic surd
``rat + coef*sqrt(rad)`` with rational ``rat``, ``coef`` and a squarefree
integer radicand ``rad >= 2``.  All comparisons are decided exactly by sign
analysis; no floating point enters any decision.

``INF`` is the single point at positive infinity used for extended
coordinates.  ``Coord`` and ``INF`` share one order (``errors.Ordered``), the
extended line: ``Coord._cmp`` answers -1 against ``INF``, which ``INF._cmp``
negates.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from .errors import DomainError, Ordered, Value
from .fields import QQ


# bounded, so that distinct radicands cannot grow it; a refusal is not cached
@lru_cache(maxsize=4096)
def split_radicand(n: int) -> tuple[int, int]:
    """Return (s, f) with n = s*s*f and f squarefree, for a radicand n >= 2.

    Trial division runs only while d**3 <= m for the cofactor m; what is left
    then has at most two prime factors, all above d, so it is 1, a prime, a
    product of two distinct primes (all squarefree) or a prime square.
    """
    if n < 2:
        raise DomainError("bad_radicand", f"radicand must be >= 2, got {n}")
    if n.bit_length() > 64:
        raise DomainError(
            "radicand_too_large", f"radicands are limited to 64 bits, got {n.bit_length()}"
        )
    s, f, m = 1, 1, n
    d = 2
    while d * d * d <= m:
        if m % d == 0:
            e = 0
            while m % d == 0:
                m //= d
                e += 1
            s *= d ** (e // 2)
            if e % 2:
                f *= d
        d += 1 if d == 2 else 2
    r = math.isqrt(m)
    if m > 1 and r * r == m:
        s *= r
    else:
        f *= m
    return s, f


def _sign(x: int) -> int:
    return (x > 0) - (x < 0)


def _sign_one_radical(a: int, b: int, d: int) -> int:
    """Exact sign of a + b*sqrt(d) for squarefree d >= 2."""
    if b == 0:
        return _sign(a)
    if a == 0:
        return _sign(b)
    sa, sb = _sign(a), _sign(b)
    if sa == sb:
        return sa
    # Opposite signs: compare a*a against b*b*d.  Equality cannot occur
    # because sqrt(d) is irrational.
    return sa if a * a > b * b * d else sb


def _sign_two_radicals(a: int, b: int, d: int, c: int, e: int) -> int:
    """Exact sign of a + b*sqrt(d) + c*sqrt(e), d != e squarefree, b, c != 0."""
    # Compare x = a + b*sqrt(d) against y = -c*sqrt(e).
    sx = _sign_one_radical(a, b, d)
    sy = -_sign(c)
    if sx != sy:
        return 1 if sx > sy else -1
    s = sx
    if s == 0:
        return 0
    # Same nonzero sign: compare squares.  x^2 - y^2 = (a^2 + b^2 d - c^2 e) + 2ab*sqrt(d)
    t = _sign_one_radical(a * a + b * b * d - c * c * e, 2 * a * b, d)
    return t if s > 0 else -t


# every rational coordinate shares this zero coefficient
_ZERO_COEF = Fraction(0)


class Coord(Ordered, Value):
    """Immutable exact coordinate ``rat + coef*sqrt(rad)``.

    The rational parts are exact numbers, an int or a Fraction, as
    ``Field.scalar`` of QQ admits: anything else, a float, a bool or a
    string included, raises ``bad_scalar``.  Only a part that is not already
    a Fraction is checked, so the arithmetic, which passes Fractions, pays
    nothing for it.

    Equality is the value base's, of ``(rat, coef, rad)``; it is exact, as a
    squarefree radicand makes the form unique (1, sqrt(d) and sqrt(e) are
    linearly independent over the rationals for distinct squarefree d, e).
    """

    __slots__ = ("rat", "coef", "rad")

    def __init__(self, rat, coef=_ZERO_COEF, rad: int = 0):
        if rat.__class__ is not Fraction:
            rat = Fraction(QQ.scalar(rat))
        if coef.__class__ is not Fraction:
            coef = Fraction(QQ.scalar(coef))
        if coef:
            s, f = split_radicand(rad)
            if f == 1:
                rat += coef * s
                coef, rad = _ZERO_COEF, 0
            else:
                coef *= s
                rad = f
        else:
            coef, rad = _ZERO_COEF, 0
        object.__setattr__(self, "rat", rat)
        object.__setattr__(self, "coef", coef)
        object.__setattr__(self, "rad", rad)

    @property
    def is_rational(self) -> bool:
        return not self.rad

    def _cmp(self, other: "ExtCoord") -> int:
        """The sign of self - other; the one entry point of every order compare.

        Every coordinate lies below ``INF``.  Otherwise the difference is
        scaled by a positive common denominator, so the sign analysis runs on
        integers and no Fraction arithmetic happens.
        """
        if other is INF:
            return -1
        p, q = self.rat.as_integer_ratio()
        r, s = other.rat.as_integer_ratio()
        d, e = self.rad, other.rad
        if not d and not e:
            a = p * s - r * q
            return (a > 0) - (a < 0)
        if not e:
            # (p/q - r/s) + (m/n)*sqrt(d), times q*s*n
            m, n = self.coef.as_integer_ratio()
            return _sign_one_radical((p * s - r * q) * n, m * q * s, d)
        u, v = other.coef.as_integer_ratio()
        if not d:
            # (p/q - r/s) - (u/v)*sqrt(e), times q*s*v
            return _sign_one_radical((p * s - r * q) * v, -u * q * s, e)
        # (p/q - r/s) + (m/n)*sqrt(d) - (u/v)*sqrt(e), times q*s*n*v
        m, n = self.coef.as_integer_ratio()
        a = (p * s - r * q) * n * v
        b = m * q * s * v
        c = -u * q * s * n
        if d == e:
            return _sign_one_radical(a, b + c, d)
        return _sign_two_radicals(a, b, d, c, e)

    def __hash__(self):
        # the triple that equality compares, hashed through its integers
        return hash((*self.rat.as_integer_ratio(), *self.coef.as_integer_ratio(), self.rad))

    def __add__(self, other):
        other = as_coord(other)
        if self.coef == 0 or other.coef == 0 or self.rad == other.rad:
            rad = self.rad or other.rad
            return Coord(self.rat + other.rat, self.coef + other.coef, rad)
        raise DomainError(
            "incompatible_radicands",
            f"cannot add coordinates with radicands {self.rad} and {other.rad}",
        )

    def __sub__(self, other):
        return self + (-as_coord(other))

    def __neg__(self):
        return Coord(-self.rat, -self.coef, self.rad)

    def __abs__(self):
        return -self if self._cmp(ZERO) < 0 else self

    def floor(self) -> int:
        """Largest integer <= self, decided exactly: with rat = p/q and coef = m/n,
        floor((p*n + floor(m*q*sqrt(rad))) / (q*n)), the inner floor by isqrt."""
        p, q = self.rat.as_integer_ratio()
        if not self.rad:
            return p // q
        m, n = self.coef.as_integer_ratio()
        r = math.isqrt(m * m * q * q * self.rad)  # m*q*sqrt(rad) is irrational
        return (p * n + (r if m > 0 else -r - 1)) // (q * n)

    def __str__(self):
        if self.coef == 0:
            return str(self.rat)
        tail = f"{self.coef}*sqrt({self.rad})"
        if self.rat == 0:
            return tail
        return f"{self.rat}+{tail}" if self.coef > 0 else f"{self.rat}{tail}"

    def __repr__(self):
        return f"Coord({self})"


class _Infinity(Ordered):
    """The point at positive infinity.  A singleton; use ``INF``."""

    __slots__ = ()

    def _cmp(self, other: "ExtCoord") -> int:
        # above every coordinate, as Coord._cmp answers
        return 0 if isinstance(other, _Infinity) else -other._cmp(self)

    def __eq__(self, other):
        return isinstance(other, _Infinity)

    def __hash__(self):
        return hash("ordspec.INF")

    def __str__(self):
        return "inf"

    def __repr__(self):
        return "INF"

    def __reduce__(self):
        # pickled by name, so a copy or an unpickled INF is INF itself
        return "INF"


INF = _Infinity()
ZERO = Coord(0)
# the extended line is one ordered family
Coord._peers = _Infinity._peers = frozenset((Coord, _Infinity))

ExtCoord = Coord | _Infinity


def is_inf(x: ExtCoord) -> bool:
    return isinstance(x, _Infinity)


def as_coord(x) -> Coord:
    """x itself when it is a ``Coord``, else the rational coordinate of the
    exact number x, by ``Coord``'s rule (``bad_scalar`` for anything else)."""
    return x if isinstance(x, Coord) else Coord(x)


def _scaled_floor(x: Coord, denom: int) -> int:
    """floor(x * denom) computed exactly."""
    return Coord(x.rat * denom, x.coef * denom, x.rad).floor()


def rational_between(lo: Coord, hi: Coord) -> Coord:
    """A rational coordinate strictly between lo and hi (lo < hi required).

    For rational endpoints this is the midpoint.  Otherwise it is the dyadic
    (floor(lo * 2^k) + 1) / 2^k, above lo, for the least exponent k that puts
    it below hi, so it is deterministic and works for any radicands.  It does
    not increase with k, so once it is below hi it stays there: the exponent
    is doubled until it fits, then bisected for, in O(log k) exact floors.
    """
    if not lo < hi:
        raise DomainError("empty_interval", f"no room between {lo} and {hi}")
    if lo.is_rational and hi.is_rational:
        return Coord((lo.rat + hi.rat) / 2)

    def candidate(k: int) -> Coord:
        return Coord(Fraction(_scaled_floor(lo, 1 << k) + 1, 1 << k))

    bad, good = -1, 0
    while not candidate(good) < hi:
        bad, good = good, 2 * good + 1
    while good - bad > 1:
        mid = (bad + good) // 2
        bad, good = (bad, mid) if candidate(mid) < hi else (mid, good)
    return candidate(good)


def rational_above(x: Coord) -> Coord:
    """The rational floor(x) + 1, always strictly above x."""
    return Coord(x.floor() + 1)


def rational_below(x: Coord) -> Coord:
    """A rational strictly below x: floor(x), or floor(x) - 1 when x is an integer."""
    f = Coord(x.floor())
    return f if f < x else Coord(x.floor() - 1)
