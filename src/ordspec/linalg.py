"""Exact linear algebra over a Field.

Linear maps on the way through a computation are sparse: a vector is a dict
without zero entries, and a map is given by its columns, one such vector
per key.  ``combine`` applies a map to a vector (the sum of coefficient
times column).  ``Echelon`` is a sparse echelon form grown one vector at a
time whose rows record their reduction steps, the earlier rows each was
reduced against; it computes nullspaces, the deaths and births of the
elder-rule sweep in ``barcode`` and generator reduction in ``fp_category``.
The combination of added vectors that a dependent vector vanishes with is
built from those steps only where it is read: for nullspaces and for the
dying kernel and cokernel bars, not for barcodes, whose bars are read from
the pivots alone.  ``rank`` is the
one dense routine, on rows of integers: it serves the kernel and cokernel
certificate, and the rank invariant and flatness of chain modules, whose
callers scale their rational rows to integers first (scaling a row leaves
the rank alone) and over F_p pass residues.  It takes its own fraction-free
path (over the rationals each row is divided by the gcd of its entries,
then Bareiss elimination; over F_p the same loop reduces mod p), so that
over either field the certificate checks the sweep's nullspaces by a route
that shares no code with ``Echelon``.
"""

from __future__ import annotations

import math

from .fields import Field


def _int_rank_bareiss(rows: list[list[int]], p: int | None = None) -> int:
    """The rank of an integer matrix by fraction-free elimination: over the
    rationals each update is divided exactly by the previous pivot
    (Bareiss); modulo the prime p it is reduced mod p instead, and the
    rows below need no rescaling."""
    a = [list(r) for r in rows] if p is None else [[v % p for v in r] for r in rows]
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
                if p is None:
                    for j in range(c + 1, n):
                        row_i[j] = (pc * row_i[j] - ric * row_r[j]) // prev
                else:
                    for j in range(c + 1, n):
                        row_i[j] = (pc * row_i[j] - ric * row_r[j]) % p
                row_i[c] = 0
            elif p is None and prev != pc:
                for j in range(c + 1, n):
                    row_i[j] = (pc * row_i[j]) // prev
        prev = pc
        rank += 1
    return rank


def rank(field: Field, a) -> int:
    """The rank of the matrix a, given as rows of integers."""
    m = len(a)
    if m == 0 or len(a[0]) == 0:
        return 0
    if field.is_rational:
        # each row becomes the primitive integer vector on its line, so that
        # rows scaled by a large common number (the lcm-cleared lines of the
        # certificate) cost no more than the rationals they stand for
        int_rows = []
        for row in a:
            g = math.gcd(*row)
            int_rows.append([v // g for v in row] if g > 1 else row)
        return _int_rank_bareiss(int_rows)
    return _int_rank_bareiss(a, field.p)


class Echelon:
    """A sparse echelon form grown one vector at a time.

    Vectors are dicts without zero entries.  Each row is 1 at its pivot, the
    least key where it is nonzero, and 0 at the pivots of the rows before it.
    ``add(vec, tag)`` reduces vec against the rows in order.  A nonzero
    remainder joins the form, with the tag, the inverse of its pivot entry
    and its reduction steps ``{earlier row: coefficient}``, and add returns
    None.  Otherwise add returns a zero-argument callable that builds the
    vanishing combination ``{tag: coefficient}`` of vec and the vectors that
    joined before it, with coefficient 1 at tag; it is unique, because the
    vectors that joined are independent.  Only the pivots decide what joins,
    so a caller that reads no combination (the barcode sweep of
    ``decompose``, generator reduction) never pays for one.
    """

    __slots__ = ("field", "rows")

    def __init__(self, field: Field):
        self.field = field
        self.rows = []  # (pivot, row, tag, pivot inverse, steps)

    def add(self, vec: dict, tag):
        field = self.field
        rem = dict(vec)
        steps = {}
        for k, (pivot, row, _, _, _) in enumerate(self.rows):
            c = rem.get(pivot)
            if c is not None:
                _sub_multiple(field, rem, c, row)
                steps[k] = c
        if not rem:
            return lambda: self._combination(tag, steps)
        pivot = min(rem)
        # scale to 1 at the pivot; over QQ entries may be ints, one is Fraction(1)
        p = field.p
        if p is None:
            inv = field.one / rem[pivot]
            row = {i: inv * v for i, v in rem.items()}
        else:
            inv = pow(rem[pivot], p - 2, p)
            row = {i: inv * v % p for i, v in rem.items()}
        self.rows.append((pivot, row, tag, inv, steps))
        return None

    def _combination(self, tag, steps: dict) -> dict:
        """The vanishing combination of a vector added with tag that reduced
        to zero by steps: vec = sum of c * row k over steps.  Row k is inv_k
        times its vector minus its own steps, and these name only earlier
        rows, so the pending coefficients of the rows are expanded in
        decreasing row order, each row once, with no recursion."""
        field = self.field
        p = field.p
        out = {tag: field.one}
        pending: dict = {}
        _sub_multiple(field, pending, 1, steps)
        for k in range(max(pending, default=-1), -1, -1):
            a = pending.pop(k, None)
            if a is None:
                continue
            _, _, row_tag, inv, row_steps = self.rows[k]
            a = a * inv if p is None else a * inv % p
            _sub_multiple(field, out, -a, {row_tag: 1})
            _sub_multiple(field, pending, a, row_steps)
        return out


def _sub_multiple(field: Field, acc: dict, c, vec: dict) -> None:
    """acc -= c * vec, dropping the entries that vanish.  The innermost loop of
    all sparse arithmetic, so it does the field's arithmetic itself."""
    p = field.p
    for i, v in vec.items():
        x = acc.get(i, 0) - c * v
        if p is not None:
            x %= p
        if x:
            acc[i] = x
        else:
            acc.pop(i, None)


def combine(field: Field, coeffs: dict, vectors) -> dict:
    """The sum of coeffs[k] * vectors[k] over the keys k of coeffs, as a
    vector without zero entries.  With vectors the columns of a map, this is
    the map applied to the vector coeffs."""
    out: dict = {}
    for k, c in coeffs.items():
        _sub_multiple(field, out, -c, vectors[k])
    return out


def nullspace(field: Field, cols: dict) -> list:
    """Basis of {x : combine(field, x, cols) = 0} for the columns
    cols {key: vector}, as vectors keyed like cols.

    The columns are added to an ``Echelon`` in order; each column that
    depends on the ones before it gives the vector of its vanishing
    combination, built as it is found.  That is the basis read off the
    reduced row echelon form, one vector per free column, since both are 1
    at the free column and 0 at the other free columns.
    """
    echelon = Echelon(field)
    found = (echelon.add(col, key) for key, col in cols.items())
    return [combination() for combination in found if combination is not None]
