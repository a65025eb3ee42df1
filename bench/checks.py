"""Output checks that share no code with ordspec.

Every checker reads the public JSON form of an answer (the documents the
CLI prints and ``ordspec.jsonio`` writes) and decides it with its own exact
arithmetic: numbers ``r + q*sqrt(d)`` are ordered by integer square-root
refinement, matrices are eliminated over Fraction or mod p, and sets of
ideals are compared point by point on a sample grid built here.  A checker
raises ``CheckFailed`` with a short reason; it never returns a verdict.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cmp_to_key


class CheckFailed(Exception):
    """An answer failed an independent check."""


def need(cond, why: str) -> None:
    if not cond:
        raise CheckFailed(why)


# ---------------------------------------------------------------------------
# Exact numbers r + q*sqrt(d), as (Fraction r, Fraction q, int d); d = 0 when q = 0

INF = "inf"


def num(r, q=0, d=0):
    r, q = Fraction(r), Fraction(q)
    return (r, q, d) if q else (r, Fraction(0), 0)


def num_of_json(obj):
    if obj == INF:
        return INF
    if isinstance(obj, str):
        return num(Fraction(obj))
    surd = obj.get("surd")
    if surd is None:
        return num(Fraction(obj.get("rat", "0")))
    return num(Fraction(obj.get("rat", "0")), Fraction(surd["q"]), surd["d"])


def num_to_json(x):
    if x == INF:
        return INF
    r, q, d = x
    if not q:
        return str(r)
    return {"rat": str(r), "surd": {"q": str(q), "d": d}}


def _surd_bounds(q: Fraction, d: int, k: int):
    """lo <= q*sqrt(d)*2**k <= hi with hi - lo <= 1/denominator(q)."""
    if not q:
        return Fraction(0), Fraction(0)
    n, m = q.numerator, q.denominator
    s = math.isqrt(n * n * d << (2 * k))
    if n > 0:
        return Fraction(s, m), Fraction(s + 1, m)
    return Fraction(-s - 1, m), Fraction(-s, m)


def num_cmp(a, b) -> int:
    if a == b:
        return 0
    if a == INF:
        return 1
    if b == INF:
        return -1
    (r1, q1, d1), (r2, q2, d2) = a, b
    if not q1 and not q2:
        return (r1 > r2) - (r1 < r2)
    if d1 == d2:
        q1, q2 = q1 - q2, Fraction(0)
    dr = r1 - r2
    if not q1 and not q2:
        return (dr > 0) - (dr < 0)
    try:
        # a float estimate decides when it is far from zero; near ties refine exactly
        est = float(dr) + float(q1) * math.sqrt(d1) - float(q2) * math.sqrt(d2)
        scale = abs(float(r1)) + abs(float(r2)) + abs(float(q1)) * d1 + abs(float(q2)) * d2
        if abs(est) > 1e-9 * (1.0 + scale):
            return 1 if est > 0 else -1
    except OverflowError:
        pass
    # distinct canonical forms are distinct numbers, so refinement ends
    for k in range(0, 4096, 16):
        lo1, hi1 = _surd_bounds(q1, d1, k)
        lo2, hi2 = _surd_bounds(q2, d2, k)
        base = dr * (1 << k)
        if base + lo1 - hi2 > 0:
            return 1
        if base + hi1 - lo2 < 0:
            return -1
    raise CheckFailed(f"cannot order {a} and {b}: non-canonical radicand?")


def num_sub(a, b):
    (r1, q1, d1), (r2, q2, d2) = a, b
    if q1 and q2 and d1 != d2:
        raise CheckFailed("difference of numbers with different radicands")
    return num(r1 - r2, q1 - q2, d1 or d2)


def num_abs(a):
    return a if num_cmp(a, num(0)) >= 0 else num(-a[0], -a[1], a[2])


cmp_key = cmp_to_key(num_cmp)


class Ranks:
    """Integer ranks for a finite set of numbers, so cuts compare as tuples."""

    def __init__(self, numbers):
        finite = sorted({x for x in numbers if x != INF}, key=cmp_key)
        self.order = finite
        self.rank = {x: i for i, x in enumerate(finite)}
        self.inf = len(finite)
        self.rank[INF] = self.inf

    def __getitem__(self, x) -> int:
        return self.rank[x]


# ---------------------------------------------------------------------------
# Exact matrices over QQ (p is None) or F_p


def scalar(s: str, p):
    f = Fraction(s)
    if p is None:
        return f
    return f.numerator * pow(f.denominator, -1, p) % p


def mat_rank(rows, p) -> int:
    a = [list(r) for r in rows if any(r)]
    if not a:
        return 0
    rank, ncols = 0, len(a[0])
    for c in range(ncols):
        piv = next((i for i in range(rank, len(a)) if a[i][c]), None)
        if piv is None:
            continue
        a[rank], a[piv] = a[piv], a[rank]
        pr = a[rank]
        inv = (1 / pr[c]) if p is None else pow(pr[c], -1, p)
        for i in range(rank + 1, len(a)):
            if a[i][c]:
                f = a[i][c] * inv
                if p is None:
                    a[i] = [x - f * y for x, y in zip(a[i], pr)]
                else:
                    a[i] = [(x - f * y) % p for x, y in zip(a[i], pr)]
        rank += 1
        if rank == len(a):
            break
    return rank


def mat_mul(a, b, p):
    n = len(b[0]) if b else 0
    out = []
    for row in a:
        acc = [0] * n
        for x, brow in zip(row, b):
            if x:
                acc = [s + x * y for s, y in zip(acc, brow)]
        out.append(acc if p is None else [v % p for v in acc])
    return out


def is_zero_matrix(a) -> bool:
    return all(not v for row in a for v in row)


# ---------------------------------------------------------------------------
# Interval modules and morphisms (kernel / cokernel certificates)


def _intervals(module_json):
    return [(num_of_json(s["start"]), num_of_json(s["end"])) for s in module_json["summands"]]


def _entries(mor_json, p):
    return {(e["from"], e["to"]): scalar(e["value"], p) for e in mor_json["entries"]}


def pair_ok(src, tgt, rk) -> bool:
    """A nonzero map [a,b) -> [c,d) exists exactly when c <= a < d <= b."""
    (a, b), (c, d) = src, tgt
    return rk[c] <= rk[a] < rk[d] <= rk[b]


def _grid(rk: Ranks):
    """Every endpoint, every open cell between endpoints, and the cell beyond."""
    samples = []
    n = rk.inf
    for r in range(n):
        samples.append(("pt", r))
        samples.append(("cell", r))
    return samples


def _alive(iv, sample, rk) -> bool:
    a, b = rk[iv[0]], rk[iv[1]]
    kind, r = sample
    if kind == "pt":
        return a <= r < b
    # the open cell between endpoint r and the next one (or infinity)
    return a <= r and b > r


def _pointwise(entries, rows_alive, cols_alive, p):
    """Matrix of a morphism at one sample; entry (i -> j) sits at row j, column i."""
    zero = Fraction(0) if p is None else 0
    rpos = {j: k for k, j in enumerate(rows_alive)}
    cpos = {i: k for k, i in enumerate(cols_alive)}
    mat = [[zero] * len(cols_alive) for _ in rows_alive]
    for (i, j), v in entries.items():
        if i in cpos and j in rpos:
            mat[rpos[j]][cpos[i]] = v
    return mat


def check_kernel_cokernel(f_json, out_json, p, dual: bool) -> None:
    """Certificate for kernel (dual=False) or cokernel (dual=True) at every grid sample.

    kernel:   iota_t injective, f_t iota_t = 0, dim K_t = nullity f_t
    cokernel: pi_t surjective,  pi_t f_t = 0,  dim C_t = corank f_t
    and every entry of iota / pi obeys the pair criterion.
    """
    src, tgt = _intervals(f_json["source"]), _intervals(f_json["target"])
    mod = _intervals(out_json["module"])
    mor = out_json["morphism"]
    need(_intervals(mor["source" if not dual else "target"]) == mod, "module is not the morphism's end")
    ambient = tgt if dual else src
    need(_intervals(mor["target" if not dual else "source"]) == ambient, "morphism has the wrong ambient")
    rk = Ranks([x for iv in src + tgt + mod for x in iv])
    fe = _entries(f_json, p)
    me = _entries(mor, p)
    for (i, j) in fe:
        need(pair_ok(src[i], tgt[j], rk), f"input entry {(i, j)} breaks the pair criterion")
    for (i, j) in me:
        frm, to = (mod[i], ambient[j]) if not dual else (ambient[i], mod[j])
        need(pair_ok(frm, to, rk), f"output entry {(i, j)} breaks the pair criterion")
    for t in _grid(rk):
        sa = [i for i, iv in enumerate(src) if _alive(iv, t, rk)]
        ta = [j for j, iv in enumerate(tgt) if _alive(iv, t, rk)]
        ma = [k for k, iv in enumerate(mod) if _alive(iv, t, rk)]
        ft = _pointwise(fe, ta, sa, p)
        rank_f = mat_rank(ft, p)
        if not dual:
            it = _pointwise(me, sa, ma, p)
            need(mat_rank(it, p) == len(ma), f"iota not injective at {t}")
            need(is_zero_matrix(mat_mul(ft, it, p)), f"f . iota != 0 at {t}")
            need(len(ma) == len(sa) - rank_f, f"dim K != nullity f at {t}")
        else:
            pt = _pointwise(me, ma, ta, p)
            need(mat_rank(pt, p) == len(ma), f"pi not surjective at {t}")
            need(is_zero_matrix(mat_mul(pt, ft, p)), f"pi . f != 0 at {t}")
            need(len(ma) == len(ta) - rank_f, f"dim C != corank f at {t}")


def check_compose(f_json, g_json, out_json, p) -> None:
    """f after g: summed products, dropped where the pair criterion fails."""
    fe, ge = _entries(f_json, p), _entries(g_json, p)
    src, tgt = _intervals(g_json["source"]), _intervals(f_json["target"])
    rk = Ranks([x for iv in src + tgt for x in iv])
    want = {}
    for (i, j), gv in ge.items():
        for (j2, k), fv in fe.items():
            if j2 == j:
                want[(i, k)] = want.get((i, k), 0) + fv * gv
    want = {
        key: (v if p is None else v % p)
        for key, v in want.items()
        if (v if p is None else v % p) and pair_ok(src[key[0]], tgt[key[1]], rk)
    }
    need(_entries(out_json, p) == want, "composite entries differ")


def check_reduce_gens(gens_json, retained, p) -> None:
    """The retained generators are independent and span all of them."""
    vecs = [[scalar(v, p) for v in g["coeffs"]] for g in gens_json]
    kept = [vecs[k] for k in retained]
    need(retained == sorted(set(retained)), "retained indices not increasing")
    need(mat_rank(kept, p) == len(kept), "retained generators are dependent")
    need(mat_rank(vecs, p) == len(kept), "retained generators do not span")


# ---------------------------------------------------------------------------
# Chain modules and barcodes


def bars_covering(bars, i: int, j: int) -> int:
    return sum(1 for s, e in bars if s <= i and j < e)


def check_barcode(truth_bars, out_json) -> None:
    got = sorted((b["start"], b["end"]) for b in out_json["bars"] for _ in range(b["mult"]))
    need(got == sorted(truth_bars), "barcode differs from the generator's bars")


def check_rank(truth_bars, i, j, r) -> None:
    need(r == bars_covering(truth_bars, i, j), f"rank({i},{j}) differs from the bar count")


def check_flat(truth_bars, length, flat) -> None:
    need(flat == all(e == length for _, e in truth_bars), "flatness verdict is wrong")


def check_chain_realizes(chain_json, bars, length, p) -> None:
    """Own ranks of every composite equal the number of bars covering it."""
    dims = chain_json["dims"]
    need(len(dims) == length, "wrong chain length")
    need(all(dims[t] == bars_covering(bars, t, t) for t in range(length)), "wrong dims")
    maps = [[[scalar(v, p) for v in row] for row in m] for m in chain_json["maps"]]
    for i in range(length):
        comp = None
        for j in range(i + 1, length):
            m = maps[j - 1]
            comp = m if comp is None else mat_mul(m, comp, p)
            if dims[i] and dims[j]:
                need(mat_rank(comp, p) == bars_covering(bars, i, j), f"rank({i},{j}) is wrong")


# ---------------------------------------------------------------------------
# Sets of ideals.  A cut (rank, level) sits below (x,S) at level 0, between
# (x,S) and (x,P) at level 1 and above (x,P) at level 2; the top ideal is the
# strict point at infinity.  A component is a half-open pair of cuts.

BELOW_ALL_CUT = (-1, 0)


def _point(obj):
    return num_of_json(obj["coord"]), obj["flavor"]


def _cut(pt, rk, after: bool):
    x, flavor = pt
    level = (0 if flavor == "strict" else 1) + (1 if after else 0)
    return (rk[x], level)


def set_numbers(set_json):
    out = []
    for comp in set_json["components"]:
        for end in (comp["lo"], comp["hi"]):
            if end["point"] != "below_all":
                out.append(_point(end["point"])[0])
    return out


def set_cuts(set_json, rk):
    comps = []
    for comp in set_json["components"]:
        lo, hi = comp["lo"], comp["hi"]
        if lo["point"] == "below_all":
            lo_cut = BELOW_ALL_CUT
        else:
            lo_cut = _cut(_point(lo["point"]), rk, after=not lo["included"])
        hi_cut = _cut(_point(hi["point"]), rk, after=hi["included"])
        need(lo_cut < hi_cut, "empty component")
        comps.append((lo_cut, hi_cut))
    return comps


class Grid:
    """Sample points of the space of ideals for a fixed set of coordinates.

    ``member`` tells whether a coordinate is an element of the index set
    (rationals only under dense-surd).  Samples are (before, after, label):
    the points (x,S) and (x,P), the open cells between coordinates, the cell
    below everything, the cell above every finite coordinate, and the top.
    """

    def __init__(self, rk: Ranks, member):
        self.rk = rk
        self.samples = [((-1, 0), (0, 0), ("below",))]
        for r, x in enumerate(rk.order):
            self.samples.append(((r, 0), (r, 1), ("S", r)))
            if member(x):
                self.samples.append(((r, 1), (r, 2), ("P", r)))
            self.samples.append(((r, 2), (r + 1, 0), ("cell", r)))
        self.samples.append(((rk.inf, 0), (rk.inf, 1), ("top",)))
        self.member = member

    def inside(self, comps, sample) -> bool:
        before, after, _ = sample
        return any(lo <= before and after <= hi for lo, hi in comps)

    def mask(self, comps):
        return [self.inside(comps, s) for s in self.samples]

    def closure_mask(self, comps):
        """Own closure: p is in cl(u) when every window around p meets u.

        Windows are [(a,P), (b,S)] with a < b elements (b may be infinite), so
        (x,P) is a limit from above only, (x,S) at an element from below only,
        (x,S) at a non-element from either side, the top of anything unbounded.
        """
        out = []
        for s in self.samples:
            before, after, label = s
            hit = self.inside(comps, s)
            if not hit and label[0] == "P":
                hit = any(lo <= after < hi for lo, hi in comps)
            elif not hit and label[0] == "S":
                r = label[1]
                hit = any(lo < before <= hi for lo, hi in comps)
                if not hit and not self.member(self.rk.order[r]):
                    hit = any(lo <= after < hi for lo, hi in comps)
            elif not hit and label[0] == "top":
                hit = any(lo < before <= hi for lo, hi in comps)
            out.append(hit)
        return out


def check_region(grid: Grid, u_comps, region_json) -> None:
    """Left orthogonal: gaps tile the complement of u; covered parts tile the
    complement of the closure of u and sit inside their gaps."""
    rk = grid.rk
    gaps, covered = [], []
    for g in region_json["gaps"]:
        gap = set_cuts({"components": [g["gap"]]}, rk)
        gaps.extend(gap)
        if g["covered"] is not None:
            cov = set_cuts({"components": [g["covered"]]}, rk)
            need(gap[0][0] <= cov[0][0] and cov[0][1] <= gap[0][1], "covered part leaves its gap")
            covered.extend(cov)
    need(grid.mask(gaps) == [not x for x in grid.mask(u_comps)], "gaps are not the complement")
    need(
        grid.mask(covered) == [not x for x in grid.closure_mask(u_comps)],
        "covered parts are not the complement of the closure",
    )


# ---------------------------------------------------------------------------
# Interleaving


def _shifted_leq(p, q, eps) -> bool:
    """shift(p) <= q in the double-line order; shift moves coordinates down by eps."""
    (x, fp), (y, fq) = p, q
    if x == INF:
        return y == INF
    if y == INF:
        return True
    c = num_cmp(num_sub(x, num(eps)), y)
    if c:
        return c < 0
    return fp == "strict" or fq == "principal"


def own_distance(p, q):
    (x, _), (y, _) = p, q
    if x == INF or y == INF:
        return num(0) if x == y else INF
    return num_abs(num_sub(x, y))


def check_distance(p, q, out_json) -> None:
    d = own_distance(p, q)
    if d == INF:
        need(out_json == {"infinite": True}, "distance should be infinite")
    else:
        need(out_json.get("finite") is not None and num_of_json(out_json["finite"]) == d, "wrong distance")


def check_interleaved(p, q, eps, got: bool) -> None:
    want = _shifted_leq(q, p, eps) and _shifted_leq(p, q, eps)
    need(got == want, f"interleaving verdict at eps={eps} is wrong")


def check_bracket(p, q, step, out_json) -> None:
    d = own_distance(p, q)
    if d == INF:
        need(out_json == {"infinite": True}, "bracket should be infinite")
        return
    need(not d[1], "oracle needs a rational distance")
    lo, hi = Fraction(out_json["lower"]), Fraction(out_json["upper"])
    need(lo <= d[0] <= hi, "bracket misses the distance")
    need(hi - lo <= Fraction(step), "bracket wider than one step")


def check_ball(p, eps, ball_json, member) -> None:
    """Ball membership holds exactly when |x - c| < eps (flavors invisible);
    the ball around the top ideal is the top ideal alone."""
    c = p[0]
    numbers = set_numbers(ball_json)
    if c != INF:
        lo, hi = num_sub(c, num(eps)), num_sub(c, num(-eps))
        numbers += [c, lo, hi]
    rk = Ranks(numbers)
    grid = Grid(rk, member)
    comps = set_cuts(ball_json, rk)
    for s in grid.samples:
        label = s[2]
        if c == INF:
            want = label[0] == "top"
        elif label[0] in ("S", "P"):
            want = rk[lo] < label[1] < rk[hi]
        elif label[0] == "cell":
            want = rk[lo] <= label[1] and label[1] + 1 <= rk[hi]
        else:
            want = False
        need(grid.inside(comps, s) == want, f"ball membership wrong at {label}")
