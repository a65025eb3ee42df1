"""Pointwise finite dimensional modules on a finite chain and their barcodes.

One elder-rule sweep (Zomorodian-Carlsson, *Computing persistent homology*,
2005) computes every barcode here and every kernel and cokernel in
``fp_category``.  It walks a chain of vector spaces carrying a basis of
explicit vectors, each tagged by the step it was born at.  At each step the
carried vectors that became dependent lose their youngest member, whose bar
ends there, and the survivors are extended to a basis of the new step; the
added vectors are the births.  The engine is parameterised by the map that
carries a vector one step on and by a basis of each step: ``decompose``
carries by the structure maps and offers unit vectors, kernels and
cokernels restrict to the alive summands and offer pointwise kernel bases.
Ranks and nullspaces are exact.
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
    """Rank of the composite structure map from slot i to slot j."""
    L = m.length
    if not (0 <= i <= j < L):
        raise DomainError("index_out_of_range", f"need 0 <= {i} <= {j} < {L}")
    if i == j:
        return m.dims[i]
    comp = linalg.identity(m.field, m.dims[i])
    for t in range(i, j):
        comp = linalg.mat_mul(m.field, m.map_matrix(t), comp)
    return linalg.rank(m.field, comp)


class _Born:
    """A carried vector: its birth step, tie-break sequence number, and its
    value at every step since birth (``path[-1]`` is the current one)."""

    __slots__ = ("birth", "path", "seq")

    def __init__(self, birth, vec, seq):
        self.birth = birth
        self.path = [vec]
        self.seq = seq


def _vectors_matrix(field: Field, vecs: list[dict]):
    coords = sorted(set().union(*[set(v) for v in vecs])) if vecs else []
    return [[v.get(c, field.zero) for v in vecs] for c in coords]


def _extend_echelon(field: Field, echelon: list, vec: dict) -> bool:
    """Reduce vec against an echelon form, a list of (pivot, row) pairs with
    each row 1 at its pivot and 0 at the pivots before it; a nonzero remainder
    joins the form as a new row.  Returns whether vec was independent."""
    rem = dict(vec)
    for pivot, row in echelon:
        c = rem.get(pivot)
        if c is not None:
            for i, v in row.items():
                x = field.sub(rem.get(i, field.zero), field.mul(c, v))
                if field.is_zero(x):
                    rem.pop(i, None)
                else:
                    rem[i] = x
    if not rem:
        return False
    pivot = min(rem)
    inv = field.inv(rem[pivot])
    echelon.append((pivot, {i: field.mul(inv, v) for i, v in rem.items()}))
    return True


def _sweep(field: Field, n_steps: int, carry, basis_at):
    """The elder-rule sweep over the steps 0..n_steps-1 of a chain of spaces.

    Vectors are sparse dicts without zero entries.  ``carry(s, vec)`` maps a
    vector at step s-1 to step s; ``basis_at(s)`` is a basis of the space at
    step s.  Vectors carried to zero end their bars.  While the carried
    vectors are dependent, the dependency is pushed onto the vector of latest
    birth in it (ties broken toward the newest), which dies in its place, so
    the vectors born up to any step keep spanning that step's image.  The
    survivors are then extended to a basis from ``basis_at(s)``; growth
    happens only at the recorded births.  Returns (birth, death-or-None,
    vector at birth) triples; a dying vector is replaced by the combination
    that is carried to zero at its death.
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
        while active:
            mat = _vectors_matrix(field, [r.path[-1] for r in active])
            combos = linalg.nullspace(field, mat)
            if not combos:
                break
            mu = combos[0]
            support = [ix for ix, x in enumerate(mu) if not field.is_zero(x)]
            victim_ix = max(support, key=lambda ix: (active[ix].birth, active[ix].seq))
            victim = active[victim_ix]
            comb: dict = {}
            for ix in support:
                rec = active[ix]
                for i, v in rec.path[victim.birth - rec.birth].items():
                    comb[i] = field.add(comb.get(i, field.zero), field.mul(mu[ix], v))
            comb = {i: v for i, v in comb.items() if not field.is_zero(v)}
            bars.append((victim.birth, s, comb))
            active.pop(victim_ix)
        basis = basis_at(s)
        if len(active) < len(basis):
            echelon: list = []
            for rec in active:
                _extend_echelon(field, echelon, rec.path[-1])
            for vec in basis:
                if len(active) == len(basis):
                    break
                if _extend_echelon(field, echelon, vec):
                    active.append(_Born(s, vec, seq))
                    seq += 1
        if len(active) != len(basis):
            raise AssertionError(
                f"dimension mismatch at step {s}: "
                f"{len(active)} carried vs {len(basis)} expected"
            )
    for rec in active:
        bars.append((rec.birth, None, rec.path[0]))
    return bars


def decompose(m: ChainModule) -> Barcode:
    """The unique interval decomposition of a chain module.

    Vectors are carried by the structure maps; the unit vectors of each slot
    are the candidate births.
    """
    field = m.field

    def carry(s, vec):
        out = {}
        for r, row in enumerate(m.maps[s - 1]):
            acc = field.zero
            for c, v in vec.items():
                if not field.is_zero(row[c]):
                    acc = field.add(acc, field.mul(row[c], v))
            if not field.is_zero(acc):
                out[r] = acc
        return out

    bars = {}
    for birth, death, _ in _sweep(
        field, m.length, carry, lambda s: [{j: field.one} for j in range(m.dims[s])]
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
        mat = linalg.zeros(field, len(rows), len(cols))
        for ri, block_ix in enumerate(rows):
            if block_ix in cols:
                mat[ri][cols.index(block_ix)] = field.one
        maps.append(mat)
    return chain_module(dims, maps, field)
