"""The category of finitely presented modules over a totally ordered index set.

Objects are finite direct sums of half-open interval modules [a, b) with
b possibly infinite; a morphism is one scalar per summand pair, nonzero
only where a nonzero natural transformation exists (the pair criterion
``c <= a < d <= b`` for [a,b) -> [c,d)).

Kernels and cokernels are computed pointwise on a critical grid, the sorted
finite summand endpoints e_0 < ... < e_{m-1}: position 2k is e_k and 2k+1
the open cell above it, unbounded for the last.  Every module involved is
constant on each position, so exact linear algebra at the 2m positions
determines everything and no coordinate inside a cell is needed.  [a, b) is
alive at position s exactly when pos(a) <= s < pos(b) (pos(inf) = 2m);
which summands are alive is read once per module by integer comparison.
One computation serves both operations.  The elder-rule sweep of
``barcode`` runs along the grid, restricting carried vectors to the alive
summands: pointwise kernel vectors of f for the kernel; for the cokernel,
the kernel of the transposed f along the reversed grid, whose vectors are
functionals vanishing on the image.

Bars lift back to intervals by parity: a bar must be born at an even
position, a bar dying after the cell above e_k ends at e_{k+1}, and a bar
alive at the last position never ends.  Anything else would contradict
half-openness and raises AssertionError.

Every answer is then certified at each grid position by the kernel
conditions on the (for a cokernel, transposed) matrices: the embedding is
injective there (the projection surjective), its composite with f
vanishes, and the new module has the dimension that the rank of f
dictates.  The checks run on integers: each row of f and each column of
the embedding is cleared of denominators once, the composite is a sparse
integer dot product and the ranks are ``linalg.rank``'s Bareiss
elimination.  The result is evaluated from the grid positions of its own
summand endpoints, and an endpoint off the grid fails the certificate.  The
embedding and projection are legal morphisms, so pointwise exactness on
the grid proves the universal property.  A failed check raises
AssertionError naming the position by a sample coordinate in it, which
only a failure computes.
"""

from __future__ import annotations

import math

from .barcode import _sweep
from .coords import Coord, INF, is_inf, rational_above, rational_between
from .errors import DomainError, Value, shared_small
from .fields import Field, QQ
from . import linalg
from .order_core import DPoint, FpInterval, IndexModel, validate_dpoint, validate_interval, window_ends


# ---------------------------------------------------------------------------
# Objects and morphisms


def _iv_key(iv: FpInterval):
    return (iv.start, iv.end)


def _alive(iv: FpInterval, t: Coord) -> bool:
    return iv.start <= t < iv.end


class FpModule(Value):
    """A finite direct sum of interval modules, kept in canonical order."""

    __slots__ = ("summands",)

    def __init__(self, summands=()):
        super().__init__(tuple(sorted(summands, key=_iv_key)))

    def __len__(self):
        return len(self.summands)

    def dim_at(self, t: Coord) -> int:
        return sum(1 for iv in self.summands if _alive(iv, t))

    def __str__(self):
        return " + ".join(str(iv) for iv in self.summands) if self.summands else "0"


ZERO_MODULE = FpModule(())


def hom_dim(x: FpInterval, y: FpInterval) -> int:
    """Dimension (0 or 1) of the space of module maps [a,b) -> [c,d).

    Nonzero maps exist exactly when c <= a < d <= b; infinite ends take part
    in the comparison as the top element.
    """
    return 1 if y.start <= x.start < y.end <= x.end else 0


def hom_to_injective(model: IndexModel, x: FpInterval, p: DPoint) -> int:
    """Dimension (0 or 1) of the maps from [a,b) into the injective at ideal p.

    Nonzero exactly when p lies in the window of [a,b): (a, principal) <= p
    <= (b, strict), the ends ``order_core.window_ends`` gives.  Only x and p
    are checked against the model; the ends are compared unchecked.
    """
    validate_interval(model, x)
    validate_dpoint(model, p)
    lo, hi = window_ends(x.start, x.end)
    return int(lo <= p <= hi)


class FpMorphism(Value):
    """A scalar matrix between fp modules; entry (i -> j) maps source summand i
    into target summand j.  Each entry must be a scalar of the field
    (``Field.scalar``), and over F_p it is reduced mod p.  Entry keys of
    small ints are shared between morphisms (``errors.shared_small``)."""

    __slots__ = ("source", "target", "entries", "field")
    # entries is a dict, which has no hash
    __hash__ = None

    def __init__(self, source: FpModule, target: FpModule, entries, field: Field = QQ):
        clean = {}
        for (i, j), v in dict(entries).items():
            v = field.scalar(v)
            if not v:
                continue
            if not (0 <= i < len(source.summands)) or not (0 <= j < len(target.summands)):
                raise DomainError("bad_entry_index", f"entry ({i},{j}) out of range")
            if hom_dim(source.summands[i], target.summands[j]) == 0:
                raise DomainError(
                    "illegal_entry",
                    f"no nonzero maps {source.summands[i]} -> {target.summands[j]}",
                )
            clean[shared_small((i, j))] = v
        super().__init__(source, target, clean, field)

    def is_zero(self) -> bool:
        return not self.entries


def identity_morphism(m: FpModule, field: Field = QQ) -> FpMorphism:
    return FpMorphism(m, m, {(i, i): field.one for i in range(len(m.summands))}, field)


def zero_morphism(source: FpModule, target: FpModule, field: Field = QQ) -> FpMorphism:
    return FpMorphism(source, target, {}, field)


def compose(f: FpMorphism, g: FpMorphism) -> FpMorphism:
    """The composite f after g.

    The naive matrix product may place a nonzero scalar at a pair where no
    nonzero natural transformation exists; such a composite factors through
    a forbidden pair and is pointwise zero, so the entry is dropped.
    """
    if f.field != g.field:
        raise DomainError("field_mismatch", "morphisms over different base fields")
    if g.target != f.source:
        raise DomainError("shape_mismatch", "compose needs target(g) = source(f)")
    # row i of the product is row i of g applied to the rows of f
    f_rows: dict = {}
    for (j, k), v in f.entries.items():
        f_rows.setdefault(j, {})[k] = v
    g_rows: dict = {}
    for (i, j), v in g.entries.items():
        if j in f_rows:
            g_rows.setdefault(i, {})[j] = v
    out = {}
    for i, row in g_rows.items():
        for k, v in linalg.combine(f.field, row, f_rows).items():
            if hom_dim(g.source.summands[i], f.target.summands[k]) == 1:
                out[(i, k)] = v
    return FpMorphism(g.source, f.target, out, f.field)


# ---------------------------------------------------------------------------
# Critical grid


def critical_grid(modules) -> list[Coord]:
    """The sorted finite summand endpoints of the modules: grid position 2k
    is endpoint k, and 2k+1 the open cell above it."""
    return sorted({c for m in modules for iv in m.summands for c in (iv.start, iv.end) if c != INF})


def _position_name(ends: list[Coord], s: int) -> str:
    """Grid position s as a failure message names it: its endpoint, or a
    rational sample inside its open cell."""
    k, cell = divmod(s, 2)
    if not cell:
        return f"end sample {ends[k]}"
    if k + 1 < len(ends):
        return f"mid sample {rational_between(ends[k], ends[k + 1])}"
    return f"beyond sample {rational_above(ends[k])}"


def _lift_bar(ends: list[Coord], p: int, q: int) -> FpInterval:
    """Interval for a bar alive exactly on grid positions p..q (inclusive)."""
    if p % 2:
        raise AssertionError(
            f"bar born at {_position_name(ends, p)}; interval modules are half-open"
        )
    if q == 2 * len(ends) - 1:
        return FpInterval(ends[p // 2], INF)
    if not q % 2:
        raise AssertionError(
            f"bar dies right after {_position_name(ends, q)}; interval modules are half-open"
        )
    return FpInterval(ends[p // 2], ends[q // 2 + 1])


# ---------------------------------------------------------------------------
# Kernel and cokernel


# op -> (what its map must be at every position, whether f is transposed and
# the grid reversed)
_SIDES = {"kernel": ("injective", False), "cokernel": ("surjective", True)}


def _swap(entries):
    return {(j, i): v for (i, j), v in entries.items()}


def _alive_lists(m: FpModule, pos: dict, n: int):
    """For each of the n grid positions, the indices of the summands of m
    alive there: [a, b) is alive at position s exactly when
    pos(a) <= s < pos(b)."""
    spans = [(pos[iv.start], pos[iv.end]) for iv in m.summands]
    return [[i for i, (lo, hi) in enumerate(spans) if lo <= s < hi] for s in range(n)]


def _null_basis(field: Field, f_cols: dict, dom, cod):
    """A basis of the kernel of f at one position, as sparse vectors keyed by
    the summands dom alive there; f_cols are f's columns {col: {row: v}}
    and cod the alive summands of its codomain."""
    cod = set(cod)
    return linalg.nullspace(
        field, {c: {r: v for r, v in f_cols.get(c, {}).items() if r in cod} for c in dom}
    )


def kernel(f: FpMorphism) -> tuple[FpModule, FpMorphism]:
    """The kernel of f with its embedding into the source."""
    return _exact("kernel", f)


def cokernel(f: FpMorphism) -> tuple[FpModule, FpMorphism]:
    """The cokernel of f with the projection from the target."""
    return _exact("cokernel", f)


def _exact(op: str, f: FpMorphism) -> tuple[FpModule, FpMorphism]:
    """The kernel of f, or the cokernel as the kernel of the transposed f
    along the reversed grid, with its certified embedding or projection."""
    transposed = _SIDES[op][1]
    flip = _swap if transposed else dict
    dom, cod = (f.target, f.source) if transposed else (f.source, f.target)
    field = f.field
    ends = critical_grid([f.source, f.target])
    n = 2 * len(ends)
    pos = {c: 2 * k for k, c in enumerate(ends)}
    pos[INF] = n
    alive_dom, alive_cod = _alive_lists(dom, pos, n), _alive_lists(cod, pos, n)
    f_entries = flip(f.entries)
    f_cols: dict = {}
    for (c, r), v in f_entries.items():
        f_cols.setdefault(c, {})[r] = v
    order = range(n - 1, -1, -1) if transposed else range(n)
    alive_sets = [frozenset(alive_dom[t]) for t in order]
    def restrict(s, vec):
        return {i: v for i, v in vec.items() if i in alive_sets[s]}
    bars = _sweep(
        field, n, restrict,
        lambda s: _null_basis(field, f_cols, alive_dom[order[s]], alive_cod[order[s]]),
    )
    # a summand equal to one of the domain's, or to one lifted before it, is
    # that object, so a kept answer holds no copy of it
    known = {iv: iv for iv in dom.summands}
    lifted = []
    for birth, death, rec, combination in bars:
        p, q = sorted((order[birth], order[n - 1 if death is None else death - 1]))
        # a dependency death's combination at the bar's birth: carrying is
        # restriction, and a summand alive at two steps is alive between them
        if combination is None:
            vec = rec.born
        else:
            comb = combination()
            vec = linalg.combine(field, comb, {r: restrict(birth, r.born) for r in comb})
        iv = _lift_bar(ends, p, q)
        lifted.append((known.setdefault(iv, iv), vec))
    lifted.sort(key=lambda pair: _iv_key(pair[0]))
    mod = FpModule(iv for iv, _ in lifted)
    emb = {(ell, i): v for ell, (_, vec) in enumerate(lifted) for i, v in vec.items()}
    g = FpMorphism(*((dom, mod) if transposed else (mod, dom)), flip(emb), field)
    _certify(op, ends, pos, alive_dom, alive_cod, f_entries, mod, flip(g.entries), field)
    return mod, g


def _certify(op: str, ends, pos, alive_dom, alive_cod, f_entries, mod, g_entries, field) -> None:
    """Check at every grid position that the map g of mod into the domain of
    the (possibly transposed) f is a kernel of f there, or raise
    AssertionError.  g is evaluated on the grid positions of mod's own
    endpoints.  The checks run on integers, apart from the sparse route of
    the sweep: over the rationals each row of f and each column of g is
    scaled once by the lcm of its denominators, which changes neither a rank
    nor whether f g vanishes and commutes with restricting to the alive
    summands; over F_p the entries are residues already."""
    for iv in mod.summands:
        if iv.start not in pos or iv.end not in pos:
            raise AssertionError(f"{op} certificate failed: summand {iv} is off the grid")
    p = field.p
    f_rows = _integer_lines(f_entries, 1, p)
    g_cols = _integer_lines(g_entries, 0, p)
    alive_mod = _alive_lists(mod, pos, len(alive_dom))
    for s, (dom, cod, new) in enumerate(zip(alive_dom, alive_cod, alive_mod)):
        alive = set(dom)
        f_t = [{c: v for c, v in f_rows[r].items() if c in alive} for r in cod if r in f_rows]
        f_t = [row for row in f_t if row]
        g_t = [g_cols.get(ell, {}) for ell in new]
        failed = None
        if linalg.rank(field, [[col.get(d, 0) for d in dom] for col in g_t]) != len(new):
            failed = f"the {op} map is not {_SIDES[op][0]}"
        elif any(_dot(row, col, p) for row in f_t for col in g_t):
            failed = "the composite with f is not zero"
        elif len(new) != len(dom) - linalg.rank(field, [[row.get(c, 0) for c in dom] for row in f_t]):
            failed = f"dimension {len(new)} is not {len(dom)} - rank f"
        if failed:
            raise AssertionError(f"{op} certificate failed at {_position_name(ends, s)}: {failed}")


def _integer_lines(entries, axis: int, p) -> dict:
    """The entries {(col, row): v} of a map grouped into its columns (axis 0)
    or rows (axis 1), each a sparse vector of integers: over the rationals
    the line is multiplied by the lcm of its denominators."""
    lines: dict = {}
    for key, v in entries.items():
        lines.setdefault(key[axis], {})[key[1 - axis]] = v
    if p is None:
        for k, line in lines.items():
            den = math.lcm(*[v.denominator for v in line.values()])
            lines[k] = {i: v.numerator * (den // v.denominator) for i, v in line.items()}
    return lines


def _dot(a: dict, b: dict, p) -> int:
    """The dot product of two sparse integer vectors, mod p over F_p."""
    if len(b) < len(a):
        a, b = b, a
    total = 0
    for i, v in a.items():
        w = b.get(i)
        if w:
            total += v * w
    return total if p is None else total % p


# ---------------------------------------------------------------------------
# Generator reduction


class GeneratorElement(Value):
    """An element of a projective module: a position and one scalar per summand."""

    __slots__ = ("position", "coeffs")


def reduce_generators(ambient: FpModule, gens, field: Field = QQ) -> list[int]:
    """Prune a generating set of a submodule of a projective module.

    One pass over the generators in (position, index) order keeps each one
    that is independent of those kept before it, so a zero generator is never
    kept.  This is what deleting the (position, index)-largest member of a
    nontrivial relation, while one is left, leaves (the matroid greedy
    argument): that member depends on the generators before it, so the pass
    drops it too; deleting it keeps the span, and both end at a basis of the
    span of all generators, so at the same one.  Coefficients must be
    scalars of the field and are reduced mod p over F_p.  Returns the
    retained indices in their original order.
    """
    for iv in ambient.summands:
        if not is_inf(iv.end):
            raise DomainError("not_projective", f"summand {iv} has a finite end")
    gens = list(gens)
    vecs = []
    for g in gens:
        if len(g.coeffs) != len(ambient.summands):
            raise DomainError("bad_generator", "coefficient count must match summands")
        vec = {i: v for i, v in enumerate(map(field.scalar, g.coeffs)) if v}
        for i in vec:
            if not ambient.summands[i].start <= g.position:
                raise DomainError(
                    "bad_generator",
                    f"summand {ambient.summands[i]} is not alive at position {g.position}",
                )
        vecs.append(vec)
    echelon = linalg.Echelon(field)
    kept = []
    for k in sorted(range(len(gens)), key=lambda k: (gens[k].position, k)):
        if echelon.add(vecs[k], k) is None:
            kept.append(k)
    return sorted(kept)
