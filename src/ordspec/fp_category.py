"""The category of finitely presented modules over a totally ordered index set.

Objects are finite direct sums of half-open interval modules [a, b) with
b possibly infinite; a morphism is one scalar per summand pair, nonzero
only where a nonzero natural transformation exists (the pair criterion
``c <= a < d <= b`` for [a,b) -> [c,d)).

Kernels and cokernels are computed by sampling a critical grid: all finite
summand endpoints, one interior sample per open cell, and one sample beyond
the largest endpoint.  Interval modules are constant on grid cells, so
pointwise exact linear algebra on these samples determines everything.  The
elder-rule sweep of ``barcode`` runs along the grid, restricting carried
vectors to the alive summands: pointwise kernel vectors for the kernel and,
on the reversed grid with transposed matrices, functionals vanishing on the
image for the cokernel.

Bars produced on the grid lift back to intervals: a bar must start at an
endpoint sample, a bar ending after the interior sample of cell (u, v)
ends at v, and a bar alive at the beyond-grid sample never ends.  Anything
else would contradict half-openness and raises AssertionError.

Every answer is then certified at each grid sample t: the embedding (or
projection) is injective (surjective) at t, its composite with f_t
vanishes, and the new module has the dimension that rank f_t dictates.
The embedding and projection are legal morphisms and every module involved
is constant on grid cells, so pointwise exactness on the grid proves the
universal property.  A failed check raises AssertionError naming the sample.
"""

from __future__ import annotations

from dataclasses import dataclass

from .barcode import ChainModule, _sweep
from .coords import Coord, ExtCoord, INF, is_inf, rational_above, rational_between
from .errors import DomainError
from .fields import Field, QQ
from . import linalg
from .order_core import DPoint, Flavor, IndexModel, cmp_d, Ordering, validate_dpoint


# ---------------------------------------------------------------------------
# Objects and morphisms


@dataclass(frozen=True)
class FpInterval:
    """The interval module supported on [start, end)."""

    start: Coord
    end: ExtCoord

    def __post_init__(self):
        if not self.start < self.end:
            raise DomainError("bad_interval", f"need start < end, got [{self.start},{self.end})")

    def __str__(self):
        return f"[{self.start},{self.end})"


def _iv_key(iv: FpInterval):
    if is_inf(iv.end):
        return (iv.start, 1, iv.start)
    return (iv.start, 0, iv.end)


def _alive(iv: FpInterval, t: Coord) -> bool:
    return iv.start <= t and (is_inf(iv.end) or t < iv.end)


class FpModule:
    """A finite direct sum of interval modules, kept in canonical order."""

    __slots__ = ("summands",)

    def __init__(self, summands=()):
        object.__setattr__(self, "summands", tuple(sorted(summands, key=_iv_key)))

    def __setattr__(self, name, value):
        raise AttributeError("FpModule is immutable")

    def __eq__(self, other):
        return isinstance(other, FpModule) and self.summands == other.summands

    def __hash__(self):
        return hash(self.summands)

    def __len__(self):
        return len(self.summands)

    def dim_at(self, t: Coord) -> int:
        return sum(1 for iv in self.summands if _alive(iv, t))

    def __str__(self):
        return " + ".join(str(iv) for iv in self.summands) if self.summands else "0"


ZERO_MODULE = FpModule(())


def validate_interval(model: IndexModel, iv: FpInterval) -> None:
    if not model.is_member(iv.start):
        raise DomainError("bad_interval", f"start {iv.start} is not an element of T")
    if not is_inf(iv.end) and not model.is_member(iv.end):
        raise DomainError("bad_interval", f"end {iv.end} is not an element of T")


def validate_module(model: IndexModel, m: FpModule) -> None:
    for iv in m.summands:
        validate_interval(model, iv)


def hom_dim(x: FpInterval, y: FpInterval) -> int:
    """Dimension (0 or 1) of the space of module maps [a,b) -> [c,d).

    Nonzero maps exist exactly when c <= a < d <= b; infinite ends take part
    in the comparison as the top element.
    """
    a, b, c, d = x.start, x.end, y.start, y.end
    if not c <= a:
        return 0
    if not a < d:
        return 0
    if is_inf(d):
        return 1 if is_inf(b) else 0
    return 1 if d <= b else 0


def hom_to_injective(model: IndexModel, x: FpInterval, p: DPoint) -> int:
    """Dimension (0 or 1) of the maps from [a,b) into the injective at ideal p.

    Nonzero exactly when the principal ideal at a is contained in p and,
    for finite b, p is contained in the strict ideal at b; in the double
    line order: (a, principal) <= p <= (b, strict).
    """
    validate_interval(model, x)
    validate_dpoint(model, p)
    lower = DPoint(x.start, Flavor.PRINCIPAL)
    if cmp_d(model, lower, p) is Ordering.GREATER:
        return 0
    upper = DPoint(x.end, Flavor.STRICT) if not is_inf(x.end) else None
    if upper is not None and cmp_d(model, p, upper) is Ordering.GREATER:
        return 0
    return 1


class FpMorphism:
    """A scalar matrix between fp modules; entry (i -> j) maps source summand i
    into target summand j."""

    __slots__ = ("source", "target", "entries", "field")

    def __init__(self, source: FpModule, target: FpModule, entries, field: Field = QQ):
        clean = {}
        for (i, j), v in dict(entries).items():
            if field.is_zero(v):
                continue
            if not (0 <= i < len(source.summands)) or not (0 <= j < len(target.summands)):
                raise DomainError("bad_entry_index", f"entry ({i},{j}) out of range")
            if hom_dim(source.summands[i], target.summands[j]) == 0:
                raise DomainError(
                    "illegal_entry",
                    f"no nonzero maps {source.summands[i]} -> {target.summands[j]}",
                )
            clean[(i, j)] = v
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "entries", clean)
        object.__setattr__(self, "field", field)

    def __setattr__(self, name, value):
        raise AttributeError("FpMorphism is immutable")

    def __eq__(self, other):
        return (
            isinstance(other, FpMorphism)
            and self.source == other.source
            and self.target == other.target
            and self.entries == other.entries
            and self.field == other.field
        )

    def is_zero(self) -> bool:
        return not self.entries

    def pointwise_matrix(self, t: Coord):
        """The matrix of the induced map at index t, rows/cols over alive summands.

        Returns (matrix, alive_source_indices, alive_target_indices).
        """
        src_alive = [i for i, iv in enumerate(self.source.summands) if _alive(iv, t)]
        tgt_alive = [j for j, iv in enumerate(self.target.summands) if _alive(iv, t)]
        pos_s = {i: k for k, i in enumerate(src_alive)}
        pos_t = {j: k for k, j in enumerate(tgt_alive)}
        mat = linalg.zeros(self.field, len(tgt_alive), len(src_alive))
        for (i, j), v in self.entries.items():
            if i in pos_s and j in pos_t:
                mat[pos_t[j]][pos_s[i]] = v
        return mat, src_alive, tgt_alive


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
    field = f.field
    acc: dict[tuple[int, int], object] = {}
    for (i, j), gv in g.entries.items():
        for k in range(len(f.target.summands)):
            fv = f.entries.get((j, k))
            if fv is None:
                continue
            prev = acc.get((i, k), field.zero)
            acc[(i, k)] = field.add(prev, field.mul(fv, gv))
    out = {}
    for (i, k), v in acc.items():
        if field.is_zero(v):
            continue
        if hom_dim(g.source.summands[i], f.target.summands[k]) == 1:
            out[(i, k)] = v
    return FpMorphism(g.source, f.target, out, field)


# ---------------------------------------------------------------------------
# Critical grid


@dataclass(frozen=True)
class Sample:
    coord: Coord
    role: str  # "end" | "mid" | "beyond"
    cell: tuple | None = None  # for "mid": (u, v) with u < sample < v


def critical_grid(modules, refine=()) -> list[Sample]:
    coords: set[Coord] = set()
    for m in modules:
        for iv in m.summands:
            coords.add(iv.start)
            if not is_inf(iv.end):
                coords.add(iv.end)
    coords.update(refine)
    ordered = sorted(coords)
    if not ordered:
        return []
    samples = []
    for ix, c in enumerate(ordered):
        samples.append(Sample(c, "end"))
        if ix + 1 < len(ordered):
            nxt = ordered[ix + 1]
            samples.append(Sample(rational_between(c, nxt), "mid", (c, nxt)))
    samples.append(Sample(rational_above(ordered[-1]), "beyond", (ordered[-1], INF)))
    return samples


def _lift_bar(samples: list[Sample], p: int, q: int) -> FpInterval:
    """Interval for a bar alive exactly on sample indices p..q (inclusive)."""
    sp = samples[p]
    if sp.role != "end":
        raise AssertionError(
            f"bar born at {sp.role} sample {sp.coord}; interval modules are half-open"
        )
    if q == len(samples) - 1:
        return FpInterval(sp.coord, INF)
    sq = samples[q]
    if sq.role != "mid":
        raise AssertionError(
            f"bar dies right after {sq.role} sample {sq.coord}; interval modules are half-open"
        )
    return FpInterval(sp.coord, sq.cell[1])


# ---------------------------------------------------------------------------
# Kernel and cokernel


def _pointwise_kernel_basis(f: FpMorphism, t: Coord):
    mat, src_alive, tgt_alive = f.pointwise_matrix(t)
    if not src_alive:
        return []
    if not tgt_alive:
        return [{i: f.field.one} for i in src_alive]
    null = linalg.nullspace(f.field, mat)
    out = []
    for vec in null:
        out.append({src_alive[k]: v for k, v in enumerate(vec) if not f.field.is_zero(v)})
    return out


def _pointwise_coker_basis(f: FpMorphism, t: Coord):
    """Functionals on the target that vanish on the image at t."""
    mat, _, tgt_alive = f.pointwise_matrix(t)
    rows, cols = len(mat), len(mat[0]) if mat else 0
    if rows == 0:
        return []
    if cols == 0:
        return [{tgt_alive[j]: f.field.one} for j in range(rows)]
    mat_t = _transpose(mat, rows, cols)
    null = linalg.nullspace(f.field, mat_t)
    out = []
    for vec in null:
        out.append({tgt_alive[k]: v for k, v in enumerate(vec) if not f.field.is_zero(v)})
    return out


def _assemble(f: FpMorphism, lifted, ambient: FpModule, into_ambient: bool):
    lifted.sort(key=lambda pair: _iv_key(pair[0]))
    mod = FpModule(tuple(iv for iv, _ in lifted))
    entries = {}
    for ell, (_, vec) in enumerate(lifted):
        for i, v in vec.items():
            if into_ambient:
                entries[(ell, i)] = v
            else:
                entries[(i, ell)] = v
    if into_ambient:
        mor = FpMorphism(mod, ambient, entries, f.field)
    else:
        mor = FpMorphism(ambient, mod, entries, f.field)
    return mod, mor


def _restrict_to(alive_sets):
    """The sweep's carry map: keep the coordinates of summands alive at the step."""
    return lambda s, vec: {i: v for i, v in vec.items() if i in alive_sets[s]}


def kernel(f: FpMorphism, refine=()) -> tuple[FpModule, FpMorphism]:
    """The kernel of f with its embedding into the source."""
    samples = critical_grid([f.source, f.target], refine)
    field = f.field
    if not samples:
        return ZERO_MODULE, zero_morphism(ZERO_MODULE, f.source, field)
    src = f.source.summands
    alive_sets = [
        frozenset(i for i, iv in enumerate(src) if _alive(iv, s.coord)) for s in samples
    ]
    bars = _sweep(
        field,
        len(samples),
        _restrict_to(alive_sets),
        lambda s: _pointwise_kernel_basis(f, samples[s].coord),
    )
    lifted = []
    for birth, death, vec in bars:
        q = (death - 1) if death is not None else len(samples) - 1
        lifted.append((_lift_bar(samples, birth, q), vec))
    mod, iota = _assemble(f, lifted, f.source, into_ambient=True)
    _certify("kernel", f, samples, iota)
    return mod, iota


def cokernel(f: FpMorphism, refine=()) -> tuple[FpModule, FpMorphism]:
    """The cokernel of f with the projection from the target."""
    samples = critical_grid([f.source, f.target], refine)
    field = f.field
    if not samples:
        return ZERO_MODULE, zero_morphism(f.target, ZERO_MODULE, field)
    tgt = f.target.summands
    n = len(samples)
    alive_sets_proc = [
        frozenset(j for j, iv in enumerate(tgt) if _alive(iv, samples[n - 1 - sp].coord))
        for sp in range(n)
    ]
    bars = _sweep(
        field,
        n,
        _restrict_to(alive_sets_proc),
        lambda sp: _pointwise_coker_basis(f, samples[n - 1 - sp].coord),
    )
    lifted = []
    for birth, death, vec in bars:
        p = (n - death) if death is not None else 0
        q = n - 1 - birth
        lifted.append((_lift_bar(samples, p, q), vec))
    mod, proj = _assemble(f, lifted, f.target, into_ambient=False)
    _certify("cokernel", f, samples, proj)
    return mod, proj


def _transpose(mat, rows, cols):
    return [[mat[r][c] for r in range(rows)] for c in range(cols)]


def _certify(op: str, f: FpMorphism, samples, g: FpMorphism) -> None:
    """Check pointwise exactness of the kernel embedding or cokernel
    projection g of f at every grid sample, or raise AssertionError."""
    field = f.field
    for s in samples:
        f_t, src_alive, tgt_alive = f.pointwise_matrix(s.coord)
        g_t, g_src, g_tgt = g.pointwise_matrix(s.coord)
        if op == "kernel":
            full, dim, ambient = "injective", len(g_src), len(src_alive)
            comp = linalg.mat_mul(field, f_t, g_t)
        else:
            full, dim, ambient = "surjective", len(g_tgt), len(tgt_alive)
            comp = linalg.mat_mul(field, g_t, f_t)
        failed = None
        if linalg.rank(field, g_t) != dim:
            failed = f"the {op} map is not {full}"
        elif any(not field.is_zero(v) for row in comp for v in row):
            failed = "the composite with f is not zero"
        elif dim != ambient - linalg.rank(field, f_t):
            failed = f"dimension {dim} is not {ambient} - rank f"
        if failed:
            raise AssertionError(
                f"{op} certificate failed at {s.role} sample {s.coord}: {failed}"
            )


# ---------------------------------------------------------------------------
# Generator reduction and flatness


@dataclass(frozen=True)
class GeneratorElement:
    """An element of a projective module: a position and one scalar per summand."""

    position: Coord
    coeffs: tuple


def reduce_generators(ambient: FpModule, gens, field: Field = QQ) -> list[int]:
    """Prune a generating set of a submodule of a projective module.

    While the generators admit a nontrivial relation, the generator of
    maximal position among the nonzero coefficients (ties broken toward the
    largest index) is expressible in terms of the others and is deleted.
    Returns the retained indices in their original order.
    """
    for iv in ambient.summands:
        if not is_inf(iv.end):
            raise DomainError("not_projective", f"summand {iv} has a finite end")
    gens = list(gens)
    for g in gens:
        if len(g.coeffs) != len(ambient.summands):
            raise DomainError("bad_generator", "coefficient count must match summands")
        for i, v in enumerate(g.coeffs):
            if not field.is_zero(v) and not ambient.summands[i].start <= g.position:
                raise DomainError(
                    "bad_generator",
                    f"summand {ambient.summands[i]} is not alive at position {g.position}",
                )
    retained = list(range(len(gens)))
    while len(retained) > 1:
        mat = [[gens[k].coeffs[i] for k in retained] for i in range(len(ambient.summands))]
        combos = linalg.nullspace(field, mat)
        if not combos:
            break
        mu = combos[0]
        support = [p for p, x in enumerate(mu) if not field.is_zero(x)]
        victim = max(support, key=lambda p: (gens[retained[p]].position, retained[p]))
        retained.pop(victim)
    return retained


def is_flat(m: ChainModule) -> bool:
    """Over a finite chain: flat exactly when every structure map is injective."""
    for i in range(m.length - 1):
        mat = m.map_matrix(i)
        if linalg.rank(m.field, mat) != m.dims[i]:
            return False
    return True
