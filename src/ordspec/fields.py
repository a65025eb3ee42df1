"""Base fields for module coefficients: exact rationals or a prime field."""

from __future__ import annotations

from fractions import Fraction

from .errors import DomainError, SchemaError


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


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
        return Fraction(0) if self.p is None else 0

    @property
    def one(self):
        return Fraction(1) if self.p is None else 1

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
        if not isinstance(s, (str, int)):
            raise SchemaError(f"a scalar is a string or an integer, got {s!r}")
        try:
            f = Fraction(s)
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
