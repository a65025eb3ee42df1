"""Exact dense linear algebra over a Field.

Matrices are lists of row lists.  Rank over the rationals takes a
fraction-free integer path (rows are cleared of denominators, then Bareiss
elimination); everything else is straightforward Gauss-Jordan with pivots
chosen by smallest bit-size to limit coefficient growth.
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
    return len(rref(field, a)[1])


def _gcd(a: int, b: int) -> int:
    while b:
        a, b = b, a % b
    return a


def rref(field: Field, a):
    """Reduced row echelon form.  Returns (rows, pivot column list)."""
    r = [row[:] for row in a]
    m = len(r)
    n = len(r[0]) if m else 0
    pivots = []
    lead = 0
    for c in range(n):
        if lead >= m:
            break
        best = None
        for i in range(lead, m):
            if not field.is_zero(r[i][c]):
                sz = field.pivot_size(r[i][c])
                if best is None or sz < best[0]:
                    best = (sz, i)
        if best is None:
            continue
        i = best[1]
        if i != lead:
            r[lead], r[i] = r[i], r[lead]
        inv = field.inv(r[lead][c])
        r[lead] = [field.mul(inv, v) for v in r[lead]]
        for i2 in range(m):
            if i2 != lead and not field.is_zero(r[i2][c]):
                f = r[i2][c]
                r[i2] = [field.sub(v, field.mul(f, w)) for v, w in zip(r[i2], r[lead])]
        pivots.append(c)
        lead += 1
    return r, pivots


def nullspace(field: Field, a):
    """Basis of the right nullspace {v : a v = 0}, as a list of vectors."""
    m = len(a)
    n = len(a[0]) if m else 0
    if n == 0:
        return []
    if m == 0:
        return [_unit(field, n, j) for j in range(n)]
    r, pivots = rref(field, a)
    pivot_set = set(pivots)
    free = [c for c in range(n) if c not in pivot_set]
    basis = []
    for fc in free:
        v = [field.zero] * n
        v[fc] = field.one
        for ri, pc in enumerate(pivots):
            v[pc] = field.neg(r[ri][fc])
        basis.append(v)
    return basis


def _unit(field: Field, n: int, j: int):
    v = [field.zero] * n
    v[j] = field.one
    return v
