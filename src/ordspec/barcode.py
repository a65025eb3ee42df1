"""Pointwise finite dimensional modules on a finite chain and their barcodes.

One elder-rule sweep (Zomorodian-Carlsson, *Computing persistent homology*,
2005) computes every barcode here and every kernel and cokernel in
``fp_category``.  It walks a chain of vector spaces carrying a basis of
explicit vectors, each tagged by the step it was born at.  At each step one
pass reduces the carried vectors, oldest first, into an echelon form whose
rows record the carried vectors they came from (the R = D.V reduction of
Edelsbrunner-Letscher-Zomorodian, *Topological persistence and
simplification*, 2002).  A vector that reduces to zero is the youngest member
of a dependency; its bar ends there, with no nullspace computed per death.
The same form then extends the survivors to a basis of the new step; the
added vectors are the births.  The engine is parameterised by the map that
carries a vector one step on and by a basis of each step: ``decompose``
carries by the structure maps and offers unit vectors, kernels and cokernels
restrict to the alive summands and offer pointwise kernel bases.  Structure
maps are read as sparse columns and applied by ``linalg.combine``, which
also carries the unit vectors of ``rank_invariant``; the dense matrices of
a ``ChainModule`` are its input and JSON form only.  All arithmetic is
exact.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from itertools import accumulate

from .errors import DomainError
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


@dataclass(frozen=True)
class ChainModule:
    """dims[t] for t in 0..L-1 plus structure maps; maps[i] has shape dims[i+1] x dims[i]."""

    dims: tuple[int, ...]
    maps: tuple[tuple[tuple, ...], ...]
    field: Field = dc_field(default_factory=lambda: QQ)

    def __post_init__(self):
        if len(self.dims) < 1:
            raise DomainError("bad_chain", "a chain module needs positive length")
        if any(d < 0 for d in self.dims):
            raise DomainError("bad_chain", "dimensions must be non-negative")
        _check_size(self.dims)
        if len(self.maps) != len(self.dims) - 1:
            raise DomainError("bad_chain", "expected one map per consecutive pair")
        for i, m in enumerate(self.maps):
            rows, cols = self.dims[i + 1], self.dims[i]
            if len(m) != rows or any(len(r) != cols for r in m):
                raise DomainError(
                    "bad_chain", f"map {i} must have shape {rows}x{cols}"
                )

    @property
    def length(self) -> int:
        return len(self.dims)

    def map_matrix(self, i: int):
        return [list(r) for r in self.maps[i]]


def chain_module(dims, maps, field: Field = QQ) -> ChainModule:
    frozen_maps = tuple(tuple(tuple(row) for row in m) for m in maps)
    return ChainModule(tuple(dims), frozen_maps, field)


@dataclass(frozen=True)
class Barcode:
    """Multiset of grid bars [i, j), 0 <= i < j <= L; j = L means alive to the end."""

    bars: tuple[tuple[int, int, int], ...]  # (start, end, multiplicity), sorted

    def __post_init__(self):
        for s, e, m in self.bars:
            if not (0 <= s < e):
                raise DomainError("bad_barcode", f"bar [{s},{e}) is not a valid range")
            if m < 1:
                raise DomainError("bad_barcode", "multiplicities must be positive")

    def as_dict(self) -> dict[tuple[int, int], int]:
        return {(s, e): m for s, e, m in self.bars}

    def total_at(self, t: int) -> int:
        return sum(m for s, e, m in self.bars if s <= t < e)

    def __iter__(self):
        return iter(self.bars)


def barcode(bar_dict) -> Barcode:
    items = []
    for (s, e), m in sorted(bar_dict.items()):
        if m:
            items.append((s, e, m))
    return Barcode(tuple(items))


def rank_invariant(m: ChainModule, i: int, j: int) -> int:
    """Rank of the composite structure map from slot i to slot j: the unit
    vectors of slot i are carried to slot j and added to one echelon form."""
    L = m.length
    if not (0 <= i <= j < L):
        raise DomainError("index_out_of_range", f"need 0 <= {i} <= {j} < {L}")
    field = m.field
    vecs = [{k: field.one} for k in range(m.dims[i])]
    for t in range(i, j):
        cols = _columns(m, t)
        vecs = [linalg.combine(field, vec, cols) for vec in vecs]
    echelon = linalg.Echelon(field)
    return sum(echelon.add(vec, k) is None for k, vec in enumerate(vecs))


def _columns(m: ChainModule, t: int) -> list[dict]:
    """Structure map t as sparse columns {row: entry}, one per column."""
    cols = [{} for _ in range(m.dims[t])]
    for r, row in enumerate(m.maps[t]):
        for c, v in enumerate(row):
            if v:
                cols[c][r] = v
    return cols


class _Born:
    """A carried vector: its birth step, tie-break sequence number, and its
    value at every step since birth (``path[-1]`` is the current one)."""

    __slots__ = ("birth", "path", "seq")

    def __init__(self, birth, vec, seq):
        self.birth = birth
        self.path = [vec]
        self.seq = seq


def _sweep(field: Field, n_steps: int, carry, basis_at):
    """The elder-rule sweep over the steps 0..n_steps-1 of a chain of spaces.

    Vectors are sparse dicts without zero entries.  ``carry(s, vec)`` maps a
    vector at step s-1 to step s; ``basis_at(s)`` is a basis of the space at
    step s.  Vectors carried to zero end their bars.  The other carried
    vectors then go into one ``linalg.Echelon`` in (birth, seq) order, so a
    vector that reduces to zero is the youngest member of its dependency (ties
    broken toward the newest) and dies in its place, with the recorded
    vanishing combination, evaluated at its birth, as its vector: the vectors
    born up to any step keep spanning that step's image, and one pass finds
    every death.  The same form then takes vectors from ``basis_at(s)`` until
    the survivors span the step; growth happens only at the recorded births.
    Returns (birth, death-or-None, vector at birth) triples.
    """
    active: list[_Born] = []
    bars = []
    seq = 0
    for s in range(n_steps):
        for rec in active:
            rec.path.append(carry(s, rec.path[-1]))
        for rec in [r for r in active if not r.path[-1]]:
            bars.append((rec.birth, s, rec.path[0]))
            active.remove(rec)
        echelon = linalg.Echelon(field)
        survivors = []
        for rec in active:
            comb = echelon.add(rec.path[-1], rec)
            if comb is None:
                survivors.append(rec)
            else:
                bars.append((rec.birth, s, _at_birth(field, comb, rec.birth)))
        active = survivors
        basis = basis_at(s)
        for vec in basis:
            if len(active) == len(basis):
                break
            rec = _Born(s, vec, seq)
            if echelon.add(vec, rec) is None:
                active.append(rec)
                seq += 1
        if len(active) != len(basis):
            raise AssertionError(
                f"dimension mismatch at step {s}: "
                f"{len(active)} carried vs {len(basis)} expected"
            )
    for rec in active:
        bars.append((rec.birth, None, rec.path[0]))
    return bars


def _at_birth(field: Field, comb: dict, birth: int) -> dict:
    """The combination {carried vector: coefficient} of vectors born by step
    birth, evaluated at that step."""
    return linalg.combine(field, comb, {rec: rec.path[birth - rec.birth] for rec in comb})


def decompose(m: ChainModule) -> Barcode:
    """The unique interval decomposition of a chain module.

    Vectors are carried by the structure maps, read once as sparse columns;
    the unit vectors of each slot are the candidate births.
    """
    field = m.field
    cols = [_columns(m, t) for t in range(m.length - 1)]
    bars = {}
    for birth, death, _ in _sweep(
        field,
        m.length,
        lambda s, vec: linalg.combine(field, vec, cols[s - 1]),
        lambda s: [{j: field.one} for j in range(m.dims[s])],
    ):
        key = (birth, m.length if death is None else death)
        bars[key] = bars.get(key, 0) + 1
    return barcode(bars)


def realize(b: Barcode, length: int, field: Field = QQ) -> ChainModule:
    """Block-diagonal chain module whose summands are exactly the given bars."""
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
    maps = []
    for t in range(length - 1):
        rows = [ix for ix, (s, e) in enumerate(blocks) if s <= t + 1 < e]
        cols = [ix for ix, (s, e) in enumerate(blocks) if s <= t < e]
        mat = [[field.zero] * len(cols) for _ in rows]
        for ri, block_ix in enumerate(rows):
            if block_ix in cols:
                mat[ri][cols.index(block_ix)] = field.one
        maps.append(mat)
    return chain_module(dims, maps, field)
