"""Independent brute-force oracles and random fixture generators.

Everything here recomputes expected values from first principles: pointwise
models on explicit sample grids, union-find constraint propagation for Hom
dimensions, and a self-contained Gaussian elimination over Fraction.  None
of it calls the library code paths it is used to check.
"""

from __future__ import annotations

import math
from fractions import Fraction

from ordspec import Coord, DomainError, INF, is_inf
from ordspec.coords import rational_between

# ---------------------------------------------------------------------------
# Tiny independent linear algebra (Fraction only)


def frac_rank(rows) -> int:
    a = [[Fraction(v) for v in row] for row in rows]
    m = len(a)
    n = len(a[0]) if m else 0
    r = 0
    for c in range(n):
        piv = None
        for i in range(r, m):
            if a[i][c] != 0:
                piv = i
                break
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        inv = 1 / a[r][c]
        a[r] = [inv * v for v in a[r]]
        for i in range(m):
            if i != r and a[i][c] != 0:
                f = a[i][c]
                a[i] = [v - f * w for v, w in zip(a[i], a[r])]
        r += 1
        if r == m:
            break
    return r


def integer_rows(rows) -> list:
    """Each row of rationals times the lcm of its denominators: integer rows
    spanning the same lines, the form ``linalg.rank`` takes over QQ."""
    out = []
    for row in rows:
        den = math.lcm(*(Fraction(v).denominator for v in row))
        out.append([int(v * den) for v in row])
    return out


def modp_rank(rows, p: int) -> int:
    a = [[v % p for v in row] for row in rows]
    r = 0
    for c in range(len(a[0]) if a else 0):
        piv = next((i for i in range(r, len(a)) if a[i][c]), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        inv = pow(a[r][c], p - 2, p)
        for i in range(len(a)):
            if i != r and a[i][c]:
                f = a[i][c] * inv % p
                a[i] = [(v - f * w) % p for v, w in zip(a[i], a[r])]
        r += 1
    return r


def mat_mul(field, a, b):
    """The dense product a b over field."""
    p = field.p
    out = []
    for row in a:
        nr = []
        for j in range(len(b[0]) if b else 0):
            s = 0
            for t, x in enumerate(row):
                if x:
                    s += x * b[t][j]
            nr.append(s if p is None else s % p)
        out.append(nr)
    return out


def frac_nullity(rows, n_cols: int) -> int:
    return n_cols - frac_rank(rows)


def frac_nullspace(rows, n_cols: int):
    """Basis of the right nullspace, classic reduced-echelon construction."""
    a = [[Fraction(v) for v in row] for row in rows]
    return _rref_nullspace(a, n_cols, lambda x: 1 / x, lambda x: x)


def modp_nullspace(rows, n_cols: int, p: int):
    """frac_nullspace over F_p."""
    a = [[v % p for v in row] for row in rows]
    return _rref_nullspace(a, n_cols, lambda x: pow(x, p - 2, p), lambda x: x % p)


def _rref_nullspace(a, n_cols: int, inv, red):
    """One basis vector per free column of the reduced row echelon form of a,
    whose entries are reduced by red after each operation."""
    m = len(a)
    pivots = []
    r = 0
    for c in range(n_cols):
        piv = next((i for i in range(r, m) if a[i][c] != 0), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        scale = inv(a[r][c])
        a[r] = [red(scale * v) for v in a[r]]
        for i in range(m):
            if i != r and a[i][c] != 0:
                f = a[i][c]
                a[i] = [red(v - f * w) for v, w in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
        if r == m:
            break
    free = [c for c in range(n_cols) if c not in pivots]
    basis = []
    for fc in free:
        v = [Fraction(0)] * n_cols
        v[fc] = Fraction(1)
        for ri, pc in enumerate(pivots):
            v[pc] = red(-a[ri][fc])
        basis.append(v)
    return basis


def circuit_deletion(gens, p=None):
    """Generator reduction by iterated circuit deletion, the reference for
    ``reduce_generators``: while the retained generators (objects with
    ``position`` and ``coeffs``) admit a nontrivial relation, take the one of
    the first nullspace basis vector and delete its member of largest
    (position, index).  The loop stops at one generator, even a zero one.
    Returns the retained indices."""
    n = len(gens[0].coeffs) if gens else 0
    retained = list(range(len(gens)))
    while len(retained) > 1:
        mat = [[gens[k].coeffs[i] for k in retained] for i in range(n)]
        if p is None:
            combos = frac_nullspace(mat, len(retained))
        else:
            combos = modp_nullspace(mat, len(retained), p)
        if not combos:
            break
        support = [j for j, x in enumerate(combos[0]) if x != 0]
        retained.pop(max(support, key=lambda j: (gens[retained[j]].position, retained[j])))
    return retained


def in_span(columns, vec) -> bool:
    """Whether vec lies in the span of the given column vectors."""
    if all(x == 0 for x in vec):
        return True
    if not columns:
        return False
    rows = len(vec)
    base = [[col[i] for col in columns] for i in range(rows)]
    ext = [[col[i] for col in columns] + [vec[i]] for i in range(rows)]
    return frac_rank(base) == frac_rank(ext)


# ---------------------------------------------------------------------------
# Barcodes from the rank invariant


def barcode_by_rank_table(m) -> dict:
    """Bars {(i, j): multiplicity} of a chain module by inclusion-exclusion.

    The multiplicity of the bar [i, j) is

        r(i, j-1) - r(i, j) - r(i-1, j-1) + r(i-1, j)

    with r(-1, .) = 0 and r(., L) = 0, where r(i, j) is the rank of the
    composite of the structure maps from slot i to slot j.  Composites and
    ranks are computed here from scratch, over the module's field.
    """
    p, L, dims = m.field.p, m.length, m.dims
    table = {}
    for i in range(L):
        comp = [[int(r == c) for c in range(dims[i])] for r in range(dims[i])]
        table[(i, i)] = dims[i]
        for j in range(i + 1, L):
            comp = [
                [sum(row[t] * comp[t][c] for t in range(dims[j - 1])) for c in range(dims[i])]
                for row in m.maps[j - 1]
            ]
            if p is not None:
                comp = [[v % p for v in row] for row in comp]
            table[(i, j)] = frac_rank(comp) if p is None else modp_rank(comp, p)

    def r(i, j):
        return table.get((i, j), 0)

    bars = {}
    for i in range(L):
        for j in range(i + 1, L + 1):
            mult = r(i, j - 1) - r(i, j) - r(i - 1, j - 1) + r(i - 1, j)
            assert mult >= 0, f"negative multiplicity for bar [{i},{j})"
            if mult:
                bars[(i, j)] = mult
    return bars


# ---------------------------------------------------------------------------
# Support predicates for pointwise models


def interval_alive(start: Coord, end, t: Coord) -> bool:
    return start <= t and (is_inf(end) or t < end)


def ideal_alive(coord, principal: bool, t: Coord) -> bool:
    """Membership of t in the downset at the ideal (coord, flavor)."""
    if is_inf(coord):
        return True
    if t < coord:
        return True
    return principal and t == coord


def floor_by_search(x: Coord) -> int:
    """``Coord.floor`` by a guess from an integer square root, corrected by
    exact Coord compares until floor(x) <= x < floor(x) + 1 holds."""
    if x.coef == 0:
        return math.floor(x.rat)
    # isqrt(floor(y)) = floor(sqrt(y)) exactly, so the guess is off by at most one
    root = math.isqrt(math.floor(x.coef * x.coef * x.rad))
    guess = math.floor(x.rat) + (root if x.coef > 0 else -root)
    while Coord(guess) > x:
        guess -= 1
    while Coord(guess + 1) <= x:
        guess += 1
    return guess


def rational_between_by_scan(lo: Coord, hi: Coord) -> Coord:
    """``rational_between`` for lo < hi with a surd end, by scanning the
    dyadic exponents k = 0, 1, 2, ... for the first (floor(lo * 2^k) + 1) / 2^k
    below hi: one floor by search per exponent."""
    denom = 1
    while True:
        k = floor_by_search(Coord(lo.rat * denom, lo.coef * denom, lo.rad)) + 1
        cand = Coord(Fraction(k, denom))
        if lo < cand < hi:
            return cand
        denom *= 2


def sample_grid(coords, pad: int = 1) -> list[Coord]:
    """Endpoint coordinates, a point inside every open cell, and outer samples."""
    uniq = sorted(set(coords))
    if not uniq:
        return [Coord(0)]
    samples = [Coord(uniq[0].floor() - pad)]
    for ix, c in enumerate(uniq):
        samples.append(c)
        if ix + 1 < len(uniq):
            samples.append(rational_between(c, uniq[ix + 1]))
    samples.append(Coord(uniq[-1].floor() + 1 + pad))
    return samples


# ---------------------------------------------------------------------------
# Brute-force Hom dimension via commuting-scalar constraint propagation


def brutal_hom_dim(src_alive, tgt_alive, samples) -> int:
    """Dimension of the space of commuting scalar families lambda_t.

    src_alive / tgt_alive: predicates telling whether the one-dimensional
    source / target space is present at a sample.  For every pair s <= t the
    commuting square of the transition maps forces lambda_s = lambda_t (both
    spaces alive at both ends), lambda_t = 0 (source alive through, target
    born in between), or lambda_s = 0 (source dies while the target lives).
    The answer is the number of equivalence classes not forced to zero.
    """
    live = [t for t in samples if src_alive(t) and tgt_alive(t)]
    if not live:
        return 0
    parent = list(range(len(live)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    def join(i, j):
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[ri] = rj

    zero = set()
    index = {t: k for k, t in enumerate(live)}
    for si, s in enumerate(samples):
        for t in samples[si + 1 :]:
            s_src, t_src = src_alive(s), src_alive(t)
            s_tgt, t_tgt = tgt_alive(s), tgt_alive(t)
            if s_src and t_src and s_tgt and t_tgt:
                join(index[s], index[t])
            elif s_src and t_src and t_tgt and not s_tgt:
                zero.add(index[t])
            elif s_src and not t_src and s_tgt and t_tgt:
                zero.add(index[s])
    classes = {find(i) for i in range(len(live))}
    dead = {find(i) for i in zero}
    return len(classes - dead)


def brutal_hom_interval_to_interval(x, y) -> int:
    """Independent oracle for maps [a,b) -> [c,d) on a padded grid."""
    coords = [x.start, y.start]
    for e in (x.end, y.end):
        if not is_inf(e):
            coords.append(e)
    samples = sample_grid(coords, pad=2)
    return brutal_hom_dim(
        lambda t: interval_alive(x.start, x.end, t),
        lambda t: interval_alive(y.start, y.end, t),
        samples,
    )


def brutal_hom_interval_to_ideal(x, ideal_coord, principal: bool) -> int:
    """Independent oracle for maps [a,b) -> injective-at-ideal on a padded grid."""
    coords = [x.start]
    if not is_inf(x.end):
        coords.append(x.end)
    if not is_inf(ideal_coord):
        coords.append(ideal_coord)
    samples = sample_grid(coords, pad=2)
    return brutal_hom_dim(
        lambda t: interval_alive(x.start, x.end, t),
        lambda t: ideal_alive(ideal_coord, principal, t),
        samples,
    )


def hom_to_injective_by_membership(x, p) -> int:
    """dim Hom([a,b), E(p)) by the two-compare rule: a lies in p, and b is
    infinite or does not lie in p.  Membership is read off the definition of
    the downset; no order of ideals and no window takes part."""
    principal = p.flavor.value == "principal"
    if not ideal_alive(p.coord, principal, x.start):
        return 0
    return int(is_inf(x.end) or not ideal_alive(p.coord, principal, x.end))


# ---------------------------------------------------------------------------
# Brute-force interleaving on a sample grid


def brutal_is_interleaved(i_coord, i_principal, j_coord, j_principal, eps: Fraction) -> bool:
    """Commuting-condition check for the two shifted maps, on a sample grid.

    A nonzero pointwise-multiplication map from one downset module into a
    shifted one exists exactly when the shifted support is contained in the
    unshifted one, checked here by membership sampling; the transition maps
    of downset modules are never zero, so the two sampled containments
    decide the interleaving.
    """
    coords = []
    for c in (i_coord, j_coord):
        if not is_inf(c):
            coords.append(c)
            coords.append(c - Coord(eps))
            coords.append(c + Coord(eps))
    samples = sample_grid(coords, pad=2)

    def member(coord, principal, t):
        return ideal_alive(coord, principal, t)

    def member_shifted(coord, principal, t):
        # evaluating the shifted module at t looks eps further right
        if is_inf(coord):
            return True
        return member(coord, principal, t + Coord(eps))

    phi_ok = all(
        member(i_coord, i_principal, t)
        for t in samples
        if member_shifted(j_coord, j_principal, t)
    )
    psi_ok = all(
        member(j_coord, j_principal, t)
        for t in samples
        if member_shifted(i_coord, i_principal, t)
    )
    return phi_ok and psi_ok


def scan_distance(model, i, j, step):
    """The grid search of ``brute_force_distance``, as a scan from k = 0.

    It decides ``is_interleaved`` at eps = k*step for k = 0, 1, ...,
    floor(cutoff/step) + 1, the cutoff being the coordinate distance plus one
    (one when a coordinate is infinite), and brackets the first hit,
    [(k-1)*step, k*step] ([0, 0] at k = 0); with no hit the bracket is
    infinite.  It is the reference for the library's bisection, which must
    find the same bracket on the same grid.  It checks the search alone:
    each grid point is decided by the library's ``is_interleaved``, which
    ``brutal_is_interleaved`` checks, and the coordinate distance must be
    rational, as the library requires.
    """
    from ordspec import DistanceBracket, is_interleaved

    if is_inf(i.coord) or is_inf(j.coord):
        cutoff = Fraction(1)
    else:
        cutoff = abs(i.coord - j.coord).rat + 1
    for k in range(cutoff // step + 2):
        eps = k * step
        if is_interleaved(model, i, j, eps):
            return DistanceBracket(Coord(max(k - 1, 0) * step), Coord(eps))
    return DistanceBracket(INF, INF)


# ---------------------------------------------------------------------------
# Kernel / cokernel certificate, the dense route


def certify_dense(op, ends, pos, alive_dom, alive_cod, f_entries, mod, g_entries, field) -> None:
    """``fp_category._certify`` on dense matrices of field scalars: at every
    grid position, f_t and g_t as row lists, the composite by ``mat_mul``
    and the ranks by this module's elimination.  Same arguments, same
    checks in the same order and the same failure messages."""
    from ordspec.fp_category import _alive_lists, _position_name

    def matrix(entries, cols, rows):
        return [[entries.get((c, r), 0) for c in cols] for r in rows]

    def rank(rows):
        return frac_rank(rows) if field.p is None else modp_rank(rows, field.p)

    side = {"kernel": "injective", "cokernel": "surjective"}[op]
    for iv in mod.summands:
        if iv.start not in pos or iv.end not in pos:
            raise AssertionError(f"{op} certificate failed: summand {iv} is off the grid")
    alive_mod = _alive_lists(mod, pos, len(alive_dom))
    for s, (dom, cod, new) in enumerate(zip(alive_dom, alive_cod, alive_mod)):
        f_t = matrix(f_entries, dom, cod)
        g_t = matrix(g_entries, new, dom)
        failed = None
        if rank(g_t) != len(new):
            failed = f"the {op} map is not {side}"
        elif any(v for row in mat_mul(field, f_t, g_t) for v in row):
            failed = "the composite with f is not zero"
        elif len(new) != len(dom) - rank(f_t):
            failed = f"dimension {len(new)} is not {len(dom)} - rank f"
        if failed:
            raise AssertionError(f"{op} certificate failed at {_position_name(ends, s)}: {failed}")


# ---------------------------------------------------------------------------
# Random fixtures


def random_fp_module(rng, max_summands=4, hi=8, points=None):
    """A random sum of intervals with endpoints among points[0..hi] (the
    integers by default)."""
    from ordspec import FpInterval, FpModule

    points = points or [Coord(k) for k in range(hi + 1)]
    n = rng.randint(0, max_summands)
    out = []
    for _ in range(n):
        a = rng.randint(0, hi - 1)
        b = rng.choice([rng.randint(a + 1, hi), "inf"])
        out.append(FpInterval(points[a], INF if b == "inf" else points[b]))
    return FpModule(tuple(out))


def random_fp_morphism(rng, max_summands=4, hi=8, field=None, surds=False):
    """A random morphism over field (the rationals by default); its scalars
    are random rationals, read mod p over F_p.  With surds about a third of
    the endpoints k become k + sqrt(2)/4 or k + sqrt(3)/4."""
    from ordspec import FpMorphism, QQ, hom_dim

    field = field or QQ
    points = None
    if surds:
        points = [
            Coord(k, Fraction(1, 4), rng.choice((2, 3))) if rng.random() < 0.3 else Coord(k)
            for k in range(hi + 1)
        ]
    src = random_fp_module(rng, max_summands, hi, points)
    tgt = random_fp_module(rng, max_summands, hi, points)
    entries = {}
    for i, x in enumerate(src.summands):
        for j, y in enumerate(tgt.summands):
            if hom_dim(x, y) == 1 and rng.random() < 0.55:
                entries[(i, j)] = field.parse(str(random_scalar(rng)))
    return FpMorphism(src, tgt, entries, field)


def random_symbolic_set(rng, model, max_components=5, lo=-10, hi=10, surds=False,
                        allow_inf=True, allow_below_all=True, max_len=None):
    """A random canonical finite union of D intervals with exact endpoints.

    With ``max_len`` each piece ends within about max_len of its start, so
    that many pieces stay apart and the union has many components."""
    from ordspec import (
        DEndpoint,
        DPoint,
        EMPTY_SET,
        Flavor,
        INF,
        interval_set,
        union,
    )
    from ordspec.spectrum import BELOW_ALL

    def random_point(inf_ok):
        if inf_ok and rng.random() < 0.06:
            return DPoint(INF, Flavor.STRICT)
        if surds and rng.random() < 0.25:
            c = Coord(Fraction(rng.randint(lo, hi)), Fraction(rng.randint(1, 2)), rng.choice([2, 3]))
            return DPoint(c, Flavor.STRICT)
        c = Coord(random_fraction(rng, lo, hi))
        if rng.random() < 0.5 and model.is_member(c):
            return DPoint(c, Flavor.PRINCIPAL)
        return DPoint(c, Flavor.STRICT)

    def point_near(x):
        r = x.rat + Fraction(rng.randint(0, 12 * max_len), 12)
        if surds and rng.random() < 0.25:
            c = Coord(r, Fraction(rng.randint(1, 2), 8), rng.choice([2, 3]))
            return DPoint(c, Flavor.STRICT)
        c = Coord(r)
        if rng.random() < 0.5 and model.is_member(c):
            return DPoint(c, Flavor.PRINCIPAL)
        return DPoint(c, Flavor.STRICT)

    acc = EMPTY_SET
    for _ in range(rng.randint(0, max_components)):
        if allow_below_all and rng.random() < 0.12:
            lo_ep = DEndpoint(BELOW_ALL, False)
        else:
            p = random_point(inf_ok=False)
            lo_ep = DEndpoint(p, rng.random() < 0.6)
        if max_len is None:
            q = random_point(inf_ok=allow_inf)
        elif allow_inf and rng.random() < 0.03:
            q = DPoint(INF, Flavor.STRICT)
        else:
            q = point_near(Coord(lo) if lo_ep.point == BELOW_ALL else lo_ep.point.coord)
        hi_ep = DEndpoint(q, rng.random() < 0.6)
        try:
            piece = interval_set(model, lo_ep, hi_ep)
        except DomainError:
            continue  # randomly ordered endpoints can give an empty interval
        acc = union(acc, piece)
    return acc


def random_wide_pieces(rng, model, k: int, to_top: bool = False):
    """k disjoint D intervals, as endpoint pairs in random order, on a grid
    of quarter steps: every fifth coordinate is a surd m/4 + sqrt(d)/8, and
    about half of the endpoints are included and half of the member
    endpoints principal.  Their union has exactly k components."""
    from ordspec import DEndpoint, DPoint, Flavor

    ms = sorted(rng.sample(range(8 * k), 2 * k))
    xs = [
        Coord(Fraction(m, 4), Fraction(1, 8), rng.choice((2, 3))) if ix % 5 == 4 else Coord(Fraction(m, 4))
        for ix, m in enumerate(ms)
    ]

    def end(x):
        flavor = Flavor.PRINCIPAL if model.is_member(x) and rng.random() < 0.5 else Flavor.STRICT
        return DEndpoint(DPoint(x, flavor), rng.random() < 0.5)

    pieces = [(end(xs[2 * c]), end(xs[2 * c + 1])) for c in range(k)]
    if to_top:
        pieces[-1] = (pieces[-1][0], DEndpoint(DPoint(INF, Flavor.STRICT), True))
    rng.shuffle(pieces)
    return pieces


# ---------------------------------------------------------------------------
# The set algebra and order-topology closure that ``spectrum`` used before
# its merges, kept as the reference of the differential tests.  They work on
# lists of (lo, hi) cut pairs and return canonical parts.


def sorted_canonical(parts):
    """Sort (lo, hi) pairs and merge those that overlap or touch."""
    merged = []
    for lo, hi in sorted(parts, key=lambda ab: (ab[0], ab[1])):
        if not lo < hi:
            continue
        if merged and lo <= merged[-1][1]:
            if hi > merged[-1][1]:
                merged[-1][1] = hi
        else:
            merged.append([lo, hi])
    return tuple((lo, hi) for lo, hi in merged)


def union_by_sorting(a, b):
    return sorted_canonical(a.parts + b.parts)


def pairwise_intersect(a, b):
    """Every pair of components, intersected."""
    out = []
    for lo1, hi1 in a.parts:
        for lo2, hi2 in b.parts:
            lo = lo1 if lo2 < lo1 else lo2
            hi = hi1 if hi1 < hi2 else hi2
            if lo < hi:
                out.append((lo, hi))
    return sorted_canonical(out)


def gaps_complement(a):
    from ordspec.spectrum import BOTTOM, TOP

    gaps = []
    prev = BOTTOM
    for lo, hi in a.parts:
        if prev < lo:
            gaps.append((prev, lo))
        prev = hi
    if prev < TOP:
        gaps.append((prev, TOP))
    return tuple(gaps)


def subset_by_complement(a, b):
    """a is a subset of b when a meets no gap of b."""
    from ordspec import SymbolicSet

    return not pairwise_intersect(a, SymbolicSet(gaps_complement(b)))


def _gaps_with_covers(model, r):
    """The gaps of a region as the flat list of (gap, cover) that ``spectrum``
    stored before a region became its gap set."""
    from ordspec.spectrum import cover_of_gap

    return [((lo, hi), cover_of_gap(model, lo, hi)) for lo, hi in r.gaps.parts]


def region_subset_by_scan(model, r1, r2):
    """Each cover of r1 inside some gap of r2, found by scanning every gap.
    The covers come from ``cover_of_gap``; only the merge is under test."""
    gaps2 = [gap for gap, _ in _gaps_with_covers(model, r2)]
    return all(
        cover is None or any(lo <= cover[0] and cover[1] <= hi for lo, hi in gaps2)
        for _, cover in _gaps_with_covers(model, r1)
    )


def contains_interval_by_scan(model, r, iv):
    """The window of iv inside some gap of r, found by scanning every gap."""
    from ordspec.spectrum import TOP, shared_cut

    w_lo = shared_cut(iv.start, 1)
    w_hi = TOP if is_inf(iv.end) else shared_cut(iv.end, 1)
    return any(lo <= w_lo and w_hi <= hi for (lo, hi), _ in _gaps_with_covers(model, r))


def scan_member(model, a, p):
    """Membership by scanning every component."""
    from ordspec.spectrum import cut_above, cut_below

    below, above = cut_below(p), cut_above(model, p)
    return any(lo <= below and above <= hi for lo, hi in a.parts)


def order_closure_fixpoint(model, u):
    """Order-topology closure by iteration: add each point just outside a
    component that is not in the set and has no immediate neighbour on the
    component's side, until nothing changes."""
    from ordspec import SymbolicSet, singleton
    from ordspec.order_core import Flavor
    from ordspec.spectrum import point_ending_at, point_starting_at

    cur = u
    while True:
        additions = []
        for lo, hi in cur.parts:
            p = point_starting_at(model, hi)
            if (
                p is not None
                and not scan_member(model, cur, p)
                and (is_inf(p.coord) or p.flavor is not Flavor.PRINCIPAL)
            ):
                additions.append(p)
            q = point_ending_at(lo)
            if (
                q is not None
                and not scan_member(model, cur, q)
                and not (not is_inf(q.coord) and q.flavor is Flavor.STRICT and model.is_member(q.coord))
            ):
                additions.append(q)
        if not additions:
            return cur.parts
        for p in additions:
            cur = SymbolicSet(union_by_sorting(cur, singleton(model, p)))


def supinf_closure_fixpoint(model, u):
    """Sup/inf saturation iterated until a pass changes nothing: each
    component's missing supremum from below and infimum from above are
    added, as ``spectrum`` once looped it."""
    from ordspec import SymbolicSet
    from ordspec.spectrum import TOP, shared_cut

    cur = u
    while True:
        parts = []
        for lo, hi in cur.parts:
            if hi.level == 0:
                hi = TOP if is_inf(hi.coord) else shared_cut(hi.coord, 1)
            if lo.coord is not None and lo.level == 2:
                lo = shared_cut(lo.coord, 1)
            elif lo.coord is not None and lo.level == 1 and not model.is_member(lo.coord):
                lo = shared_cut(lo.coord, 0)
            parts.append((lo, hi))
        nxt = SymbolicSet(parts)
        if nxt == cur:
            return cur
        cur = nxt


def random_fraction(rng, lo: int, hi: int, max_den: int = 6) -> Fraction:
    den = rng.randint(1, max_den)
    num = rng.randint(lo * den, hi * den)
    return Fraction(num, den)


def random_scalar(rng) -> Fraction:
    v = Fraction(0)
    while v == 0:
        v = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
    return v


def random_invertible_int_matrix(rng, n: int):
    """Unimodular matrix built from elementary operations; exact inverse."""
    mat = [[Fraction(1 if i == j else 0) for j in range(n)] for i in range(n)]
    inv = [[Fraction(1 if i == j else 0) for j in range(n)] for i in range(n)]
    if n < 2:
        return mat, inv
    for _ in range(2 * n + 2):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        c = Fraction(rng.randint(-2, 2))
        if c == 0:
            continue
        # mat <- E mat with E = I + c*e_ij, so inv <- inv * E^-1 (column op)
        for k in range(n):
            mat[i][k] += c * mat[j][k]
        for k in range(n):
            inv[k][j] -= c * inv[k][i]
    return mat, inv
