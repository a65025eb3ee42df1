"""Pointwise finite dimensional modules on a finite chain and their barcodes.

One elder-rule sweep (Zomorodian-Carlsson, *Computing persistent homology*,
2005) computes every barcode here and every kernel and cokernel in
``fp_category``.  It walks a chain of vector spaces carrying a basis of
explicit vectors, each tagged by the step it was born at.  At each step one
pass reduces the carried vectors, oldest first, into an echelon form whose
rows record their reduction steps (the R = D.V reduction of
Edelsbrunner-Letscher-Zomorodian, *Topological persistence and
simplification*, 2002).  A vector that reduces to zero is the youngest member
of a dependency; its bar ends there, with no nullspace computed per death.
The bars are read from the pivots alone; the dependency's combination (V)
is built only by a caller that reads it, the kernels and cokernels.
The same form then extends the survivors to a basis of the new step; the
added vectors are the births.  The engine is parameterised by the map that
carries a vector one step on and by a basis of each step: ``decompose``
carries by the structure maps and offers unit vectors, kernels and cokernels
restrict to the alive summands and offer pointwise kernel bases.

A ``ChainModule`` stores each structure map once, as an integer matrix and
one positive denominator (the lcm of its entry denominators over QQ, 1 over
F_p); ``maps`` is a read-only view of the exact entries, for the JSON form
and for callers.  Scaling a structure map, or one carried vector, by a
nonzero number changes neither ranks nor bars, so the computations here
never leave the integer matrices: ``decompose`` carries integer vectors
through them, read once as sparse columns and applied by ``linalg.combine``,
and divides each image by the gcd of its entries; ``rank_invariant`` carries
the unit vectors of slot i to slot j the same way and ``is_flat`` takes each
map as it is, and both take the fraction-free rank ``linalg.rank``.  All
arithmetic is exact.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import accumulate

from .errors import DomainError, Value, shared_small
from .fields import Field, QQ
from . import linalg


# The largest chain module accepted or built, as the sum of its squared
# dimensions (a bound on the entries of any matrix on one or two slots), so
# that no size given in the input can make a call allocate without bound.
_MAX_CHAIN_SIZE = 10**6


def _check_size(dims) -> None:
    if sum(d * d for d in dims) > _MAX_CHAIN_SIZE:
        raise DomainError(
            "chain_too_large", f"the squared dimensions sum to more than {_MAX_CHAIN_SIZE}"
        )


class ChainModule(Value):
    """dims[t] for t in 0..L-1 plus structure maps; map i has shape dims[i+1] x dims[i].

    Map i is stored as the integer matrix ``ints[i]`` and the positive
    denominator ``dens[i]``: its entries are ints[i] / dens[i].  Over QQ
    dens[i] is the lcm of the entry denominators; over F_p it is 1 and the
    entries are reduced mod p.  Either way equal maps have equal pairs.
    Build one with ``chain_module``.
    """

    __slots__ = ("dims", "ints", "dens", "field")

    def __init__(
        self,
        dims: tuple[int, ...],
        ints: tuple[tuple[tuple[int, ...], ...], ...],
        dens: tuple[int, ...],
        field: Field = QQ,
    ):
        if len(dims) < 1:
            raise DomainError("bad_chain", "a chain module needs positive length")
        if any(d < 0 for d in dims):
            raise DomainError("bad_chain", "dimensions must be non-negative")
        _check_size(dims)
        if len(ints) != len(dims) - 1:
            raise DomainError("bad_chain", "expected one map per consecutive pair")
        for i, m in enumerate(ints):
            rows, cols = dims[i + 1], dims[i]
            if len(m) != rows or any(len(r) != cols for r in m):
                raise DomainError(
                    "bad_chain", f"map {i} must have shape {rows}x{cols}"
                )
        super().__init__(dims, ints, dens, field)

    @property
    def length(self) -> int:
        return len(self.dims)

    @property
    def maps(self) -> tuple[tuple[tuple, ...], ...]:
        """The exact entries of the structure maps, built on each access."""
        if not self.field.is_rational:
            return self.ints
        return tuple(
            tuple(tuple(Fraction(v, den) for v in row) for row in mat)
            for mat, den in zip(self.ints, self.dens)
        )


def chain_module(dims, maps, field: Field = QQ) -> ChainModule:
    """The chain module with the given dimensions and structure maps (matrices
    of scalars of the field, each a list of rows).  Each entry must be a
    scalar of the field (``Field.scalar``: a float or a bool raises
    DomainError("bad_scalar")), and over F_p it is reduced mod p."""
    ints, dens = [], []
    for m in maps:
        rows = [tuple(map(field.scalar, row)) for row in m]
        den = 1
        if field.is_rational:
            den = math.lcm(*{v.denominator for row in rows for v in row})
            # integral maps, the common case, skip the scaling
            if den == 1:
                rows = [tuple(v.numerator for v in row) for row in rows]
            else:
                rows = [tuple(v.numerator * (den // v.denominator) for v in row) for row in rows]
        ints.append(tuple(rows))
        dens.append(den)
    return ChainModule(tuple(dims), tuple(ints), tuple(dens), field)


class Barcode(Value):
    """Multiset of grid bars [i, j), 0 <= i < j <= L; j = L means alive to the end.

    Built from a mapping {(start, end): multiplicity}: zero multiplicities
    are dropped, and ``bars`` holds the others as sorted (start, end,
    multiplicity) triples, those of small ints shared between barcodes
    (``errors.shared_small``)."""

    __slots__ = ("bars",)

    def __init__(self, bars):
        bars = tuple((s, e, m) for (s, e), m in sorted(dict(bars).items()) if m)
        for s, e, m in bars:
            if not (0 <= s < e):
                raise DomainError("bad_barcode", f"bar [{s},{e}) is not a valid range")
            if m < 1:
                raise DomainError("bad_barcode", "multiplicities must be positive")
        super().__init__(tuple(map(shared_small, bars)))

    def as_dict(self) -> dict[tuple[int, int], int]:
        return {(s, e): m for s, e, m in self.bars}

    def total_at(self, t: int) -> int:
        return sum(m for s, e, m in self.bars if s <= t < e)

    def __iter__(self):
        return iter(self.bars)


def rank_invariant(m: ChainModule, i: int, j: int) -> int:
    """Rank of the composite structure map from slot i to slot j: the unit
    vectors of slot i are carried to slot j through the integer matrices,
    which scales each of them by a nonzero number, and the fraction-free
    rank of what they reach is taken."""
    L = m.length
    if not (0 <= i <= j < L):
        raise DomainError("index_out_of_range", f"need 0 <= {i} <= {j} < {L}")
    field = m.field
    vecs = [{k: 1} for k in range(m.dims[i])]
    for t in range(i, j):
        cols = _columns(m, t)
        vecs = [_carry(field, vec, cols) for vec in vecs]
    return linalg.rank(field, [[vec.get(c, 0) for c in range(m.dims[j])] for vec in vecs])


def is_flat(m: ChainModule) -> bool:
    """Over a finite chain: flat exactly when every structure map is
    injective, that is, of rank the dimension of its domain."""
    return all(linalg.rank(m.field, m.ints[t]) == m.dims[t] for t in range(m.length - 1))


def _carry(field: Field, vec: dict, cols: list[dict]) -> dict:
    """The integer columns cols applied to vec.  Over QQ the image is divided
    by the gcd of its entries: scaling one carried vector changes no rank and
    no bar, and a map cleared of many distinct denominators would otherwise
    let the entries grow by their lcm at every step.  So only ranks and bars
    may be read from vectors carried this way, not their values."""
    out = linalg.combine(field, vec, cols)
    if field.is_rational:
        g = math.gcd(*out.values())
        if g > 1:
            return {k: v // g for k, v in out.items()}
    return out


def _columns(m: ChainModule, t: int) -> list[dict]:
    """The integer matrix of structure map t as sparse columns {row: entry},
    one per column."""
    cols = [{} for _ in range(m.dims[t])]
    for r, row in enumerate(m.ints[t]):
        for c, v in enumerate(row):
            if v:
                cols[c][r] = v
    return cols


class _Born:
    """A carried vector: its birth step, its value then and its current value."""

    __slots__ = ("birth", "born", "vec")

    def __init__(self, birth, vec):
        self.birth = birth
        self.born = self.vec = vec


def _sweep(field: Field, n_steps: int, carry, basis_at):
    """The elder-rule sweep over the steps 0..n_steps-1 of a chain of spaces.

    Vectors are sparse dicts without zero entries.  ``carry(s, vec)`` maps a
    vector at step s-1 to step s; ``basis_at(s)`` is a basis of the space at
    step s.  Vectors carried to zero end their bars.  The other carried
    vectors then go into one ``linalg.Echelon`` in birth order (ties in the
    order found), so a vector that reduces to zero is the youngest member of
    its dependency and dies in its place: the vectors born up to any step
    keep spanning that step's image, and one pass finds every death.  The
    same form then takes vectors from ``basis_at(s)`` until the survivors
    span the step.  Only current vectors are kept.  Returns (birth,
    death-or-None, record, combination) for each bar: for a dependency
    death, the callable of ``Echelon.add`` that builds the vanishing
    combination {record: coefficient}, passed through uncalled; else None.
    """
    active: list[_Born] = []
    bars = []
    for s in range(n_steps):
        for rec in active:
            rec.vec = carry(s, rec.vec)
        for rec in [r for r in active if not r.vec]:
            bars.append((rec.birth, s, rec, None))
            active.remove(rec)
        echelon = linalg.Echelon(field)
        survivors = []
        for rec in active:
            combination = echelon.add(rec.vec, rec)
            if combination is None:
                survivors.append(rec)
            else:
                bars.append((rec.birth, s, rec, combination))
        active = survivors
        basis = basis_at(s)
        for vec in basis:
            if len(active) == len(basis):
                break
            rec = _Born(s, vec)
            if echelon.add(vec, rec) is None:
                active.append(rec)
        if len(active) != len(basis):
            raise AssertionError(
                f"dimension mismatch at step {s}: "
                f"{len(active)} carried vs {len(basis)} expected"
            )
    for rec in active:
        bars.append((rec.birth, None, rec, None))
    return bars


def decompose(m: ChainModule) -> Barcode:
    """The unique interval decomposition of a chain module.

    Integer vectors are carried by the integer matrices of the structure
    maps, read once as sparse columns; the unit vectors of each slot are the
    candidate births.  Only the bars are read from the sweep, so no
    vanishing combination is ever built.
    """
    field = m.field
    cols = [_columns(m, t) for t in range(m.length - 1)]
    bars = {}
    for birth, death, _, _ in _sweep(
        field,
        m.length,
        lambda s, vec: _carry(field, vec, cols[s - 1]),
        lambda s: [{j: 1} for j in range(m.dims[s])],
    ):
        key = (birth, m.length if death is None else death)
        bars[key] = bars.get(key, 0) + 1
    return Barcode(bars)


def realize(b: Barcode, length: int, field: Field = QQ) -> ChainModule:
    """Block-diagonal chain module whose summands are exactly the given bars,
    one block per unit of multiplicity, in the order of the bars.  One sweep
    keeps the blocks alive at each slot, so the cost is linear in the length
    plus the size of the maps."""
    if length < 1:
        raise DomainError("bad_length", "length must be positive")
    if length > _MAX_CHAIN_SIZE:
        raise DomainError("chain_too_large", f"length {length} exceeds {_MAX_CHAIN_SIZE}")
    change = [0] * (length + 1)
    for s, e, m in b:
        if e > length:
            raise DomainError("bar_out_of_range", f"bar [{s},{e}) exceeds length {length}")
        change[s] += m
        change[e] -= m
    dims = list(accumulate(change[:-1]))
    _check_size(dims)
    blocks = [(s, e) for s, e, m in b for _ in range(m)]
    starting = [[] for _ in range(length)]
    for ix, (s, e) in enumerate(blocks):
        starting[s].append(ix)
    maps = []
    alive = starting[0]
    for t in range(length - 1):
        # both runs are in block order, so the sort is one merge
        nxt = sorted([ix for ix in alive if blocks[ix][1] > t + 1] + starting[t + 1])
        column = {ix: c for c, ix in enumerate(alive)}
        mat = [[0] * len(alive) for _ in nxt]
        for row, ix in zip(mat, nxt):
            if ix in column:
                row[column[ix]] = 1
        maps.append(mat)
        alive = nxt
    return chain_module(dims, maps, field)
