"""Base fields for module coefficients, exact rationals or a prime field: values
that parse scalars and leave the arithmetic to the code that runs it."""

from __future__ import annotations

import re
from fractions import Fraction

from .errors import DomainError, SchemaError, Value


# Miller-Rabin with the primes up to 41 as bases decides primality exactly
# below _MR_LIMIT, the least strong pseudoprime to all of them; the primes up
# to 37 alone are fooled by 318665857834031151167461.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_LIMIT = 3317044064679887385961981


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    if p >= _MR_LIMIT:
        raise DomainError("prime_too_large", f"primality is decided only below {_MR_LIMIT}")
    for a in _MR_BASES:
        if p % a == 0:
            return p == a
    d, r = p - 1, 0
    while d % 2 == 0:
        d, r = d // 2, r + 1
    for a in _MR_BASES:
        x = pow(a, d, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(r - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


# A decimal or exponent form with this many digits plus |exponent| is refused:
# its numerator or denominator could pass Python's default 4300-digit int/str
# conversion limit, and "1e10000000" alone takes seconds to build.
_MAX_DIGITS = 4300
_EXPONENT = re.compile(r"[eE]([-+]?\d[\d_]*)\s*\Z")


def parse_rational(s) -> Fraction:
    """``Fraction(s)`` for the rational strings (and integers) of the JSON
    schemas and the command line.  Like ``Fraction`` it raises ValueError or
    ZeroDivisionError on a malformed string, and ValueError on a decimal or
    exponent form too long to print."""
    if isinstance(s, str) and ("." in s or "e" in s or "E" in s):
        m = _EXPONENT.search(s)
        if sum(map(str.isdigit, s)) + (abs(int(m.group(1))) if m else 0) >= _MAX_DIGITS:
            raise ValueError("too many digits")
    return Fraction(s)


# Fractions are immutable, so the rational field hands out this one shared.
_ONE = Fraction(1)


class Field(Value):
    """A base field for module coefficients, a value: the rationals when ``p``
    is None, whose scalars are Fractions (or ints), else F_p, whose scalars
    are ints reduced mod p.  It parses and checks scalars; callers compute on
    them themselves and branch on ``p``."""

    __slots__ = ("p",)

    def __init__(self, p: int | None = None):
        if p is not None and not _is_prime(p):
            raise DomainError("not_prime", f"{p} is not prime")
        super().__init__(p)

    @property
    def is_rational(self) -> bool:
        return self.p is None

    @property
    def one(self):
        return _ONE if self.p is None else 1

    def scalar(self, v):
        """v as a scalar of the field, reduced mod p over F_p.  Only exact
        scalars enter a computation: an int or a Fraction over QQ, an int
        over F_p.  Anything else, a bool or a float included, raises
        DomainError("bad_scalar")."""
        if v.__class__ is int:
            return v if self.p is None else v % self.p
        if v.__class__ is Fraction and self.p is None:
            return v
        raise DomainError("bad_scalar", f"{v!r} is not a scalar of {self!r}")

    def parse(self, s: str):
        """Parse a scalar from its string form ("p/q" or an integer)."""
        if isinstance(s, bool) or not isinstance(s, (str, int)):
            raise SchemaError(f"a scalar is a string or an integer, got {s!r}")
        try:
            f = parse_rational(s)
        except (ValueError, ZeroDivisionError) as exc:
            raise SchemaError(f"bad scalar {s!r}") from exc
        if self.p is None:
            return f
        num, den = f.numerator % self.p, f.denominator % self.p
        if den == 0:
            raise DomainError("bad_scalar", f"{s} has no image in F_{self.p}")
        return (num * pow(den, self.p - 2, self.p)) % self.p


QQ = Field()
