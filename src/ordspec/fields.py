"""Base fields for module coefficients: exact rationals or a prime field."""

from __future__ import annotations

import re
from fractions import Fraction

from .errors import DomainError, SchemaError


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


# Fractions are immutable, so the rational field hands out these two shared.
_ZERO, _ONE = Fraction(0), Fraction(1)


class Field:
    """Arithmetic for scalars: Fraction when rational, int mod p otherwise."""

    __slots__ = ("p",)

    def __init__(self, p: int | None = None):
        if p is not None and not _is_prime(p):
            raise DomainError("not_prime", f"{p} is not prime")
        self.p = p

    @property
    def is_rational(self) -> bool:
        return self.p is None

    @property
    def zero(self):
        return _ZERO if self.p is None else 0

    @property
    def one(self):
        return _ONE if self.p is None else 1

    def of_int(self, n: int):
        return Fraction(n) if self.p is None else n % self.p

    def add(self, a, b):
        return a + b if self.p is None else (a + b) % self.p

    def sub(self, a, b):
        return a - b if self.p is None else (a - b) % self.p

    def mul(self, a, b):
        return a * b if self.p is None else (a * b) % self.p

    def neg(self, a):
        return -a if self.p is None else (-a) % self.p

    def inv(self, a):
        if self.is_zero(a):
            raise ZeroDivisionError("inverse of zero")
        return 1 / a if self.p is None else pow(a, self.p - 2, self.p)

    def is_zero(self, a) -> bool:
        return a == 0

    def pivot_size(self, a) -> int:
        """Bit-size measure used to pick small pivots over the rationals."""
        if self.p is not None:
            return 1
        return a.numerator.bit_length() + a.denominator.bit_length()

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

    def fmt(self, a) -> str:
        return str(a)

    def __eq__(self, other):
        return isinstance(other, Field) and self.p == other.p

    def __hash__(self):
        return hash(("ordspec.Field", self.p))

    def __repr__(self):
        return "Field(QQ)" if self.p is None else f"Field(F_{self.p})"


QQ = Field()
