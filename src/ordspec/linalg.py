"""Exact linear algebra over a Field.

Matrices are lists of row lists.  All elimination but one goes through
``Echelon``, a sparse echelon form grown one vector at a time whose rows
record the combinations of added vectors they came from: nullspaces, rank
over F_p, the deaths and births of the elder-rule sweep in ``barcode`` and
generator reduction in ``fp_category``.  Rank over the rationals takes its
own fraction-free integer path (rows are cleared of denominators, then
Bareiss elimination), so that the kernel and cokernel certificate checks the
sweep's nullspaces by an independent route.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import DomainError
from .fields import Field


def zeros(field: Field, m: int, n: int):
    z = field.zero
    return [[z] * n for _ in range(m)]


def identity(field: Field, n: int):
    a = zeros(field, n, n)
    one = field.one
    for i in range(n):
        a[i][i] = one
    return a


def mat_mul(field: Field, a, b):
    m = len(a)
    if m == 0:
        return []
    k = len(a[0])
    n = len(b[0]) if b else 0
    if k != len(b):
        raise DomainError("shape_mismatch", "matrix product shape mismatch")
    if field.is_rational:
        out = []
        for row in a:
            nr = []
            for j in range(n):
                s = Fraction(0)
                for t in range(k):
                    x = row[t]
                    if x:
                        s += x * b[t][j]
                nr.append(s)
            out.append(nr)
        return out
    p = field.p
    out = []
    for row in a:
        nr = []
        for j in range(n):
            s = 0
            for t in range(k):
                x = row[t]
                if x:
                    s += x * b[t][j]
            nr.append(s % p)
        out.append(nr)
    return out


def _int_rank_bareiss(rows: list[list[int]]) -> int:
    a = [r[:] for r in rows]
    m = len(a)
    n = len(a[0]) if m else 0
    rank = 0
    prev = 1
    for c in range(n):
        if rank >= m:
            break
        piv = None
        for i in range(rank, m):
            v = a[i][c]
            if v and (piv is None or abs(v) < abs(a[piv][c])):
                piv = i
        if piv is None:
            continue
        if piv != rank:
            a[rank], a[piv] = a[piv], a[rank]
        pc = a[rank][c]
        for i in range(rank + 1, m):
            ric = a[i][c]
            row_i = a[i]
            row_r = a[rank]
            if ric:
                for j in range(c + 1, n):
                    row_i[j] = (pc * row_i[j] - ric * row_r[j]) // prev
                row_i[c] = 0
            elif prev != pc:
                for j in range(c + 1, n):
                    row_i[j] = (pc * row_i[j]) // prev
        prev = pc
        rank += 1
    return rank


def rank(field: Field, a) -> int:
    m = len(a)
    if m == 0 or len(a[0]) == 0:
        return 0
    if field.is_rational:
        int_rows = []
        for row in a:
            den = 1
            for v in row:
                if v.denominator != 1:
                    den = den * v.denominator // _gcd(den, v.denominator)
            int_rows.append([int(v * den) for v in row])
        return _int_rank_bareiss(int_rows)
    echelon = Echelon(field)
    for i, row in enumerate(a):
        echelon.add({j: v for j, v in enumerate(row) if v}, i)
    return len(echelon.rows)


def _gcd(a: int, b: int) -> int:
    while b:
        a, b = b, a % b
    return a


class Echelon:
    """A sparse echelon form grown one vector at a time.

    Vectors are dicts without zero entries.  Each row is 1 at its pivot, the
    least key where it is nonzero, and 0 at the pivots of the rows before it;
    it also records itself as a combination ``{tag: coefficient}`` of the
    vectors added so far.  ``add(vec, tag)`` reduces vec against the rows in
    order.  A nonzero remainder joins the form and add returns None.
    Otherwise add returns the vanishing combination of vec and the vectors
    that joined before it, with coefficient 1 at tag; it is unique, because
    the vectors that joined are independent.
    """

    __slots__ = ("field", "rows")

    def __init__(self, field: Field):
        self.field = field
        self.rows = []  # (pivot, row, combination)

    def add(self, vec: dict, tag):
        field = self.field
        rem = dict(vec)
        comb = {tag: field.one}
        for pivot, row, row_comb in self.rows:
            c = rem.get(pivot)
            if c is not None:
                _sub_multiple(field, rem, c, row)
                _sub_multiple(field, comb, c, row_comb)
        if not rem:
            return comb
        pivot = min(rem)
        inv = field.inv(rem[pivot])
        row = {i: field.mul(inv, v) for i, v in rem.items()}
        self.rows.append((pivot, row, {t: field.mul(inv, v) for t, v in comb.items()}))
        return None


def _sub_multiple(field: Field, acc: dict, c, vec: dict) -> None:
    """acc -= c * vec, dropping the entries that vanish.  The innermost loop of
    all elimination, so it does the field's arithmetic itself."""
    p = field.p
    for i, v in vec.items():
        x = acc.get(i, 0) - c * v
        if p is not None:
            x %= p
        if x:
            acc[i] = x
        else:
            acc.pop(i, None)


def nullspace(field: Field, a):
    """Basis of the right nullspace {v : a v = 0}, as a list of vectors.

    The columns are added to an ``Echelon`` in order; each column that
    depends on the ones before it gives the vector of its vanishing
    combination.  That is the basis read off the reduced row echelon form,
    one vector per free column, since both are 1 at the free column and 0
    at the other free columns.
    """
    n = len(a[0]) if a else 0
    echelon = Echelon(field)
    basis = []
    for j in range(n):
        comb = echelon.add({i: row[j] for i, row in enumerate(a) if row[j]}, j)
        if comb is not None:
            v = [field.zero] * n
            for k, c in comb.items():
                v[k] = c
            basis.append(v)
    return basis
