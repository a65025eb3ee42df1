"""The four workloads: seeded inputs, one op each, and the checks on its output.

A workload builds a pool of inputs from its seed, runs one op per call of
``run(i)`` on input ``i`` of the pool, and checks an op's output with the
independent checkers of ``checks``, outside the timed section.  Ops come in
whole rounds (``round_len``) with a fixed make-up, so every run holds the
same mix of sizes, fields and kinds whatever the seed.  Inputs are first made
as plain data (numbers ``(r, q, d)`` as in ``checks``), which gives their JSON
form; the library objects are built from that data.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from fractions import Fraction

from ordspec import (
    DENSE_RATIONAL_WITH_CUTS,
    DENSE_REAL,
    EMPTY_SET,
    INF,
    QQ,
    Coord,
    DEndpoint,
    DPoint,
    Field,
    Flavor,
    FpInterval,
    FpModule,
    FpMorphism,
    ball,
    brute_force_distance,
    chain_module,
    closure_all_strategies,
    cokernel,
    complement,
    decompose,
    distance,
    intersect,
    interval_set,
    is_closed,
    is_flat,
    is_interleaved,
    is_subset,
    kernel,
    left_orthogonal,
    member,
    rank_invariant,
    right_orthogonal,
    union,
)
from ordspec import jsonio
from ordspec.spectrum import BELOW_ALL

import checks as C

P = 2**31 - 1
FP = Field(P)


def lib_coord(x):
    if x == C.INF:
        return INF
    r, q, d = x
    return Coord(r, q, d) if q else Coord(r)


class Workload:
    """Defaults: no operation is a known fault, no inputs carry a trace tag."""

    def known_fault(self, i) -> bool:
        return False

    def tags(self):
        return {}


# ---------------------------------------------------------------------------
# modules: kernel and cokernel of one seeded morphism


def gen_morphism(rng: random.Random, n: int, p, coords: int = 14):
    """A morphism between two sums of n intervals on ``coords`` increasing
    coordinates, about a quarter of them surds k + sqrt(d)/4.

    Interval lengths (in coordinate steps) are a fixed spread, starts are
    seeded; half the target summands are placed so that the pair criterion
    c <= a < d <= b admits a map from a source summand, and 70% of the legal
    pairs get a nonzero scalar.  Returns the JSON form.
    """
    xs = [
        C.num(k, Fraction(1, 4), rng.choice((2, 3))) if rng.random() < 0.25 else C.num(k)
        for k in range(coords)
    ]
    lengths = [2 + (k * (coords - 2)) // (n - 1) for k in range(n)]
    src = [(a, a + ln) for a, ln in ((rng.randrange(coords - 1), ln) for ln in lengths)]
    tgt = []
    for k, (a, b) in enumerate(src):
        if k % 2 == 0:
            c = max(0, a - rng.randrange(3))
            tgt.append((c, a + rng.randrange(1, b - a + 1)))
        else:
            s = rng.randrange(coords - 1)
            tgt.append((s, s + lengths[rng.randrange(n)]))

    def canon(ivs):
        # ordspec keeps summands sorted by start, finite ends first, then end
        ivs = [(a, min(b, coords)) for a, b in ivs]
        return sorted(ivs, key=lambda iv: (iv[0], iv[1] == coords, iv[1]))

    src, tgt = canon(src), canon(tgt)
    entries = []
    for i, (a, b) in enumerate(src):
        for j, (c, d) in enumerate(tgt):
            if c <= a < d <= b and rng.random() < 0.7:
                if p is None:
                    v = Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.choice((1, 1, 2)))
                else:
                    v = rng.randrange(1, p)
                entries.append({"from": i, "to": j, "value": str(v)})

    def module(ivs):
        pts = xs + [C.INF]
        return {"summands": [{"start": C.num_to_json(pts[a]), "end": C.num_to_json(pts[b])} for a, b in ivs]}

    return {"source": module(src), "target": module(tgt), "entries": entries}


def lib_morphism(f_json, p):
    field = QQ if p is None else FP

    def module(m):
        return FpModule(
            [FpInterval(lib_coord(C.num_of_json(s["start"])), lib_coord(C.num_of_json(s["end"]))) for s in m["summands"]]
        )

    entries = {(e["from"], e["to"]): C.scalar(e["value"], p) for e in f_json["entries"]}
    return FpMorphism(module(f_json["source"]), module(f_json["target"]), entries, field)


class Modules(Workload):
    """One op: kernel(f) then cokernel(f) on one seeded morphism."""

    # (summands per side, prime or None): sizes 10..16, a quarter over F_p
    ROUND = [(10, None), (12, None), (14, None), (16, P), (11, None), (13, None), (15, None), (13, P)]
    round_len = len(ROUND)
    pool_rounds = 24

    def __init__(self, seed: int):
        rng = random.Random(f"modules:{seed}")
        self.inputs = []
        for k in range(self.pool_rounds * self.round_len):
            n, p = self.ROUND[k % self.round_len]
            f_json = gen_morphism(rng, n, p)
            self.inputs.append((f_json, p, lib_morphism(f_json, p)))
        wf = gen_morphism(random.Random("modules:warmup"), 8, None)
        self.warm = lib_morphism(wf, None)

    def warmup(self):
        kernel(self.warm)
        cokernel(self.warm)

    def run(self, i):
        f = self.inputs[i][2]
        return kernel(f), cokernel(f)

    def check(self, i, out):
        f_json, p, _ = self.inputs[i]
        for dual, (mod, mor) in ((False, out[0]), (True, out[1])):
            doc = {"module": jsonio.encode_module(mod), "morphism": jsonio.encode_morphism(mor)}
            C.check_kernel_cokernel(f_json, doc, p, dual)


# ---------------------------------------------------------------------------
# barcodes: one seeded barcode, decomposed in four forms


def gen_bars(rng: random.Random, length: int):
    """length/2 bars whose lengths spread evenly over 1..length, starts seeded."""
    nb = length // 2
    bars = []
    for k in range(nb):
        ln = 1 + (k * (length - 1)) // (nb - 1)
        s = rng.randrange(length - ln + 1)
        bars.append((s, s + ln))
    return sorted(bars)


def _unimodular(rng: random.Random, n: int):
    """An integer matrix of determinant +-1 and its inverse: n elementary row ops."""
    b = [[int(i == j) for j in range(n)] for i in range(n)]
    binv = [row[:] for row in b]
    for _ in range(n if n > 1 else 0):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((-1, 1))
        b[i] = [x + c * y for x, y in zip(b[i], b[j])]
        for row in binv:
            row[j] -= c * row[i]
    return b, binv


def gen_chain_maps(rng: random.Random, bars, length: int, mixed: bool):
    """Integer structure maps realizing the bars: the block-diagonal form, or
    that form conjugated by a unimodular change of basis at every slot."""
    alive = [[k for k, (s, e) in enumerate(bars) if s <= t < e] for t in range(length)]
    dims = [len(a) for a in alive]
    maps = [[[int(bi == bj) for bj in alive[t]] for bi in alive[t + 1]] for t in range(length - 1)]
    if mixed:
        change = [_unimodular(rng, d) for d in dims]
        maps = [
            C.mat_mul(change[t + 1][0], C.mat_mul(m, change[t][1], None), None) if m and m[0] else m
            for t, m in enumerate(maps)
        ]
    return dims, maps


def chain_json(dims, maps, p):
    return {"dims": dims, "maps": [[[str(v if p is None else v % p) for v in row] for row in m] for m in maps]}


def lib_chain(dims, maps, p):
    conv, field = (Fraction, QQ) if p is None else ((lambda v: v % p), FP)
    return chain_module(dims, [[[conv(v) for v in row] for row in m] for m in maps], field)


class Barcodes(Workload):
    """One op: decompose, rank_invariant on three pairs and is_flat, on one
    seeded barcode realized four ways (block-diagonal and basis-mixed, over QQ
    and F_p), so every op has the same make-up."""

    LENGTH = 24
    FORMS = (("block", None), ("mixed", None), ("block", P), ("mixed", P))
    round_len = 1
    pool_rounds = 80

    def __init__(self, seed: int):
        rng = random.Random(f"barcodes:{seed}")
        self.inputs = [self._make(rng) for _ in range(self.pool_rounds)]
        self.warm = self._make(random.Random("barcodes:warmup"), 8)

    def _make(self, rng, L=LENGTH):
        bars = gen_bars(rng, L)
        pairs = []
        for _ in range(3):
            i = rng.randrange(L)
            pairs.append((i, rng.randrange(i, L)))
        forms = []
        for kind, p in self.FORMS:
            dims, maps = gen_chain_maps(rng, bars, L, kind == "mixed")
            forms.append((kind, p, lib_chain(dims, maps, p)))
        return bars, pairs, forms

    def _op(self, item):
        _, pairs, forms = item
        return [
            (decompose(m), [rank_invariant(m, i, j) for i, j in pairs], is_flat(m))
            for _, _, m in forms
        ]

    def warmup(self):
        self._op(self.warm)

    def run(self, i):
        return self._op(self.inputs[i])

    def check(self, i, out):
        bars, pairs, _ = self.inputs[i]
        for bc, ranks, flat in out:
            C.check_barcode(bars, jsonio.encode_barcode(bc))
            for (a, b), r in zip(pairs, ranks):
                C.check_rank(bars, a, b, r)
            C.check_flat(bars, self.LENGTH, flat)

    def tags(self):
        return {id(m): kind for item in self.inputs for kind, _, m in item[2]}


# ---------------------------------------------------------------------------
# ideals: set algebra, closure and interleaving on a pair of seeded sets


def model_member(model):
    if model is DENSE_REAL:
        return lambda x: True
    return lambda x: x == C.INF or not x[1]


def gen_pieces(rng: random.Random, k: int, member, to_top: bool):
    """k disjoint components on a grid of quarter steps, as JSON components.

    The make-up is fixed and only the placement is seeded: a fifth of the 2k
    coordinates are surds m/4 + sqrt(d)/8, half of the endpoints are
    included, half of the element endpoints principal, and every other
    component is given as two overlapping pieces, so building the set merges
    pieces.
    """
    ms = sorted(rng.sample(range(8 * k), 2 * k))
    surds = set(rng.sample(range(2 * k), (2 * k) // 5))
    xs = [
        C.num(Fraction(m, 4), Fraction(1, 8), rng.choice((2, 3))) if ix in surds else C.num(Fraction(m, 4))
        for ix, m in enumerate(ms)
    ]
    included = [ix % 2 == 0 for ix in range(2 * k)]
    principal = [ix % 2 == 0 for ix in range(2 * k)]
    rng.shuffle(included)
    rng.shuffle(principal)

    def end(ix):
        x = xs[ix]
        flavor = "principal" if principal[ix] and member(x) else "strict"
        return {"point": {"coord": C.num_to_json(x), "flavor": flavor}, "included": included[ix]}

    top = {"point": {"coord": "inf", "flavor": "strict"}, "included": True}
    pieces = []
    for c in range(k):
        lo = end(2 * c)
        hi = top if to_top and c == k - 1 else end(2 * c + 1)
        if c % 2:
            # m_a/4 + 23/100 lies above a (its surd part is below 0.22) and
            # below b (at least m_a/4 + 1/4): the two pieces overlap there
            s = C.num_to_json(C.num(Fraction(ms[2 * c], 4) + Fraction(23, 100)))
            pieces.append({"lo": lo, "hi": {"point": {"coord": s, "flavor": "principal"}, "included": True}})
            pieces.append({"lo": {"point": {"coord": s, "flavor": "strict"}, "included": True}, "hi": hi})
        else:
            pieces.append({"lo": lo, "hi": hi})
    return pieces


def lib_endpoint(e):
    if e["point"] == "below_all":
        return DEndpoint(BELOW_ALL, False)
    pt = e["point"]
    return DEndpoint(DPoint(lib_coord(C.num_of_json(pt["coord"])), Flavor(pt["flavor"])), e["included"])


def lib_pieces(pieces):
    return [(lib_endpoint(c["lo"]), lib_endpoint(c["hi"])) for c in pieces]


def lib_point(pt):
    return DPoint(lib_coord(pt[0]), Flavor(pt[1]))


def build_set(model, pieces):
    acc = EMPTY_SET
    for lo, hi in pieces:
        acc = union(acc, interval_set(model, lo, hi))
    return acc


class Ideals(Workload):
    """One op on a pair (u, v) of seeded sets of 32 components each: build both
    from their pieces, close both with all three strategies, is_closed, the
    left and right orthogonals, union, intersect, complement, is_subset,
    member on sampled points, and distance / ball / is_interleaved /
    brute_force_distance at step 1/64 on three pairs with gaps <= 4."""

    K = 32
    STEP = Fraction(1, 64)
    MODELS = (DENSE_REAL, DENSE_RATIONAL_WITH_CUTS)
    round_len = 2
    pool_rounds = 24

    def __init__(self, seed: int):
        rng = random.Random(f"ideals:{seed}")
        self.inputs = [self._make(rng, self.MODELS[k % 2]) for k in range(self.pool_rounds * self.round_len)]
        self.warm = self._make(random.Random("ideals:warmup"), DENSE_REAL, 4)

    def _make(self, rng, model, k=K):
        member_fn = model_member(model)
        pu = gen_pieces(rng, k, member_fn, to_top=True)
        pv = gen_pieces(rng, k, member_fn, to_top=False)
        points = []
        for _ in range(16):
            x = C.num(Fraction(rng.randrange(8 * self.K), 4))
            points.append((x, rng.choice(("strict", "principal"))))
        def flavor(z):
            return rng.choice(("strict", "principal")) if member_fn(z) else "strict"

        pairs = []
        for base, surd in ((1, False), (2, True), (3, False)):
            m = Fraction(rng.randrange(8 * self.K), 4)
            x = C.num(m, Fraction(1, 8), 2) if surd else C.num(m)
            gap = base + Fraction(rng.randrange(8), 8)
            y = C.num(x[0] + gap, x[1], x[2])
            pairs.append(((x, flavor(x)), (y, flavor(y)), gap))
        lib = (
            lib_pieces(pu),
            lib_pieces(pv),
            [lib_point(pt) for pt in points],
            [(lib_point(a), lib_point(b), gap) for a, b, gap in pairs],
        )
        return model, pu, pv, points, pairs, lib

    def _op(self, item):
        model, _, _, _, _, (pu, pv, points, pairs) = item
        u = build_set(model, pu)
        v = build_set(model, pv)
        cl_u = closure_all_strategies(model, u)
        cl_v = closure_all_strategies(model, v)
        left = left_orthogonal(model, u)
        inter = intersect(model, u, v)
        out = {
            "u": u, "v": v, "cl_u": cl_u, "cl_v": cl_v,
            "closed_u": is_closed(model, u), "closed_cl_u": is_closed(model, cl_u),
            "left": left, "right": right_orthogonal(model, left),
            "union": union(u, v), "inter": inter, "compl": complement(model, u),
            "sub_uv": is_subset(model, u, v), "sub_iu": is_subset(model, inter, u),
            "members": [member(model, u, pt) for pt in points],
            "pairs": [
                (
                    distance(model, a, b),
                    ball(model, a, gap),
                    is_interleaved(model, a, b, gap),
                    brute_force_distance(model, a, b, self.STEP),
                )
                for a, b, gap in pairs
            ],
        }
        return out

    def warmup(self):
        self._op(self.warm)

    def run(self, i):
        return self._op(self.inputs[i])

    def check(self, i, out):
        model, pu, pv, points, pairs, _ = self.inputs[i]
        member_fn = model_member(model)
        sets = {k: jsonio.encode_set(model, out[k]) for k in ("u", "v", "cl_u", "cl_v", "right", "union", "inter", "compl")}
        region = jsonio.encode_region(model, out["left"])
        check_ideals(
            member_fn, {"components": pu}, {"components": pv}, sets, region, out, points
        )
        for (a, b, gap), (dist, bl, inter, bracket) in zip(pairs, out["pairs"]):
            C.check_distance(a, b, jsonio.encode_distance(dist))
            C.check_ball(a, gap, jsonio.encode_set(model, bl), member_fn)
            C.check_interleaved(a, b, gap, inter)
            C.check_bracket(a, b, self.STEP, jsonio.encode_bracket(bracket))


def check_ideals(member_fn, u_json, v_json, sets, region, flags, points):
    """Set algebra and closure of one ideals op against the generator's pieces."""
    numbers = C.set_numbers(u_json) + C.set_numbers(v_json) + [x for x, _ in points]
    for doc in sets.values():
        numbers += C.set_numbers(doc)
    for g in region["gaps"]:
        for part in (g["gap"], g["covered"]):
            if part is not None:
                numbers += C.set_numbers({"components": [part]})
    rk = C.Ranks(numbers)
    grid = C.Grid(rk, member_fn)
    u, v = C.set_cuts(u_json, rk), C.set_cuts(v_json, rk)
    mask = {k: grid.mask(C.set_cuts(doc, rk)) for k, doc in sets.items()}
    mu, mv = grid.mask(u), grid.mask(v)
    C.need(mask["u"] == mu and mask["v"] == mv, "built set differs from its pieces")
    cl_u, cl_v = grid.closure_mask(u), grid.closure_mask(v)
    C.need(mask["cl_u"] == cl_u, "closure of u differs from the window rule")
    C.need(mask["cl_v"] == cl_v, "closure of v differs from the window rule")
    C.need(all(a <= b for a, b in zip(mu, mask["cl_u"])), "closure is not extensive")
    C.need(
        grid.closure_mask(C.set_cuts(sets["cl_u"], rk)) == mask["cl_u"] and flags["closed_cl_u"],
        "closure is not idempotent",
    )
    C.need(
        grid.closure_mask(u + v) == [a or b for a, b in zip(mask["cl_u"], mask["cl_v"])],
        "closure is not additive",
    )
    C.need(flags["closed_u"] == (mu == mask["cl_u"]), "is_closed verdict is wrong")
    C.check_region(grid, u, region)
    C.need(mask["right"] == cl_u, "right orthogonal of the left orthogonal is not the closure")
    C.need(mask["union"] == [a or b for a, b in zip(mu, mv)], "union is wrong")
    C.need(mask["inter"] == [a and b for a, b in zip(mu, mv)], "intersection is wrong")
    C.need(mask["compl"] == [not a for a in mu], "complement is wrong")
    C.need(flags["sub_uv"] == all(a <= b for a, b in zip(mu, mv)), "is_subset(u, v) is wrong")
    C.need(flags["sub_iu"], "is_subset(u and v, u) is wrong")
    for (x, flavor), got in zip(points, flags["members"]):
        before = (rk[x], 0 if flavor == "strict" else 1)
        C.need(got == grid.inside(u, (before, (before[0], before[1] + 1), None)), "member is wrong")


# ---------------------------------------------------------------------------
# cli: one `python -m ordspec` subprocess per op


README_CLOSURE_SET = (
    '{"components":[{"lo":{"point":{"coord":"0","flavor":"principal"},"included":true},'
    '"hi":{"point":{"coord":"inf","flavor":"strict"},"included":true}}]}'
)
README_CLOSURE_OUT = (
    '{"closed":true,"closure":{"components":[{"hi":{"included":true,'
    '"point":{"coord":"inf","flavor":"strict"}},"lo":{"included":true,'
    '"point":{"coord":"0","flavor":"principal"}}}]}}\n'
)


def _doc(stdout: str):
    lines = stdout.splitlines()
    C.need(len(lines) == 1, f"expected one JSON line, got {len(lines)}")
    return json.loads(lines[0])


def _exact(text):
    def check(rc, out):
        C.need(rc == 0 and out == text, "output differs from the README")
    return check


def _ok(fn):
    def check(rc, out):
        C.need(rc == 0, f"exit code {rc}")
        fn(_doc(out))
    return check


def _malformed(rc, out):
    C.need(rc == 2, f"malformed request exited {rc}, not 2")
    C.need("error" in _doc(out), "no JSON error document")


def _interval_str(a, b):
    return f"[{a},{b})"


class Cli(Workload):
    """One op: one `python -m ordspec` call, one at a time, cycling through the
    README examples, one small request per other subcommand (larger inputs by
    @file) and malformed requests that must exit 2 with one JSON error."""

    # malformed requests that exit 1 with a TypeError traceback today
    KNOWN_FAULTS = (
        ("realize", "--barcode", '{"bars":5}', "--length", "3"),
        ("orthogonal", "--direction", "right", "--region", '{"gaps":7}'),
        ("decompose", "--module", '{"dims":[1,1],"maps":[[[null]]]}'),
    )

    def __init__(self, seed: int, root: str):
        self.root = root
        self.files = os.path.join("bench", "out", f"cli-{seed}")
        os.makedirs(os.path.join(root, self.files), exist_ok=True)
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        self.requests = self._make(random.Random(f"cli:{seed}"))
        self.round_len = len(self.requests)
        self.inputs = self.requests
        self.warm = ("hom-fp", "--x", "[0,2)", "--y", "[0,1)")

    def _file(self, name, obj):
        rel = os.path.join(self.files, name)
        with open(os.path.join(self.root, rel), "w", encoding="utf-8") as fh:
            json.dump(obj, fh)
        return "@" + rel

    def _make(self, rng):
        reqs = [
            (("hom", "--interval", "[0,1)", "--ideal", '{"coord":"0","flavor":"principal"}'), _exact('{"dim":1}\n')),
            (
                ("distance", "--p", '{"coord":"inf","flavor":"strict"}', "--q", '{"coord":"0","flavor":"principal"}'),
                _exact('{"infinite":true}\n'),
            ),
            (("closure", "--strategy", "all", "--set", README_CLOSURE_SET), _exact(README_CLOSURE_OUT)),
        ]
        # hom-fp on two seeded rational intervals
        a, b, c, d = sorted(rng.sample(range(10), 4))
        x, y = (a, c), rng.choice(((b, d), (a, b), (a, d)))
        want = int(y[0] <= x[0] < y[1] <= x[1])
        reqs.append(
            (("hom-fp", "--x", _interval_str(*x), "--y", _interval_str(*y)), _ok(lambda o, w=want: C.need(o == {"dim": w}, "hom-fp")))
        )
        # compose: g from gen_morphism, f an endomorphism of g's target
        g = gen_morphism(rng, 6, None)
        tgt = g["target"]["summands"]
        ivs = [(C.num_of_json(s["start"]), C.num_of_json(s["end"])) for s in tgt]
        rk = C.Ranks([z for iv in ivs for z in iv])
        f_entries = [
            {"from": i, "to": j, "value": str(rng.choice((-2, -1, 1, 3)))}
            for i in range(len(ivs))
            for j in range(len(ivs))
            if C.pair_ok(ivs[i], ivs[j], rk) and (i == j or rng.random() < 0.5)
        ]
        f = {"source": g["target"], "target": g["target"], "entries": f_entries}
        reqs.append(
            (("compose", "--f", self._file("f.json", f), "--g", self._file("g.json", g)), _ok(lambda o, f=f, g=g: C.check_compose(f, g, o, None)))
        )
        # kernel and cokernel of one 12-summand morphism, passed by file
        k = gen_morphism(rng, 12, None)
        kf = self._file("kernel.json", k)
        reqs.append((("kernel", "--f", kf), _ok(lambda o, k=k: C.check_kernel_cokernel(k, o, None, False))))
        reqs.append((("cokernel", "--f", kf), _ok(lambda o, k=k: C.check_kernel_cokernel(k, o, None, True))))
        # reduce-gens on a projective ambient
        starts = sorted(rng.randrange(4) for _ in range(4))
        ambient = {"summands": [{"start": str(s), "end": "inf"} for s in starts]}
        gens = [
            {"position": str(4 + rng.randrange(3)), "coeffs": [str(rng.randrange(-2, 3)) for _ in starts]}
            for _ in range(6)
        ]
        reqs.append(
            (
                ("reduce-gens", "--ambient", json.dumps(ambient), "--gens", self._file("gens.json", gens)),
                _ok(lambda o, gens=gens: C.check_reduce_gens(gens, o["retained"], None)),
            )
        )
        # chain-module requests on one basis-mixed module of length 10
        L = 10
        bars = gen_bars(rng, L)
        chain = chain_json(*gen_chain_maps(rng, bars, L, True), None)
        cf = self._file("chain.json", chain)
        i = rng.randrange(L)
        j = rng.randrange(i, L)
        reqs += [
            (("is-flat", "--module", cf), _ok(lambda o, bars=bars: C.check_flat(bars, L, o["flat"]))),
            (("decompose", "--module", cf), _ok(lambda o, bars=bars: C.check_barcode(bars, o))),
            (
                ("realize", "--barcode", json.dumps({"bars": [{"start": s, "end": e, "mult": 1} for s, e in bars]}), "--length", str(L)),
                _ok(lambda o, bars=bars: C.check_chain_realizes(o, bars, L, None)),
            ),
            (("rank", "--module", cf, "--i", str(i), "--j", str(j)), _ok(lambda o, bars=bars, i=i, j=j: C.check_rank(bars, i, j, o["rank"]))),
        ]
        # classify a strict ideal at a surd under dense-surd: no supremum in T
        xq = C.num(rng.randrange(5), 1, rng.choice((2, 3, 5)))
        reqs.append(
            (
                ("classify", "--model", "dense-surd", "--ideal", json.dumps({"coord": C.num_to_json(xq), "flavor": "strict"})),
                _ok(lambda o: C.need(o == {"type": 3}, "classify")),
            )
        )
        # sets of 8 components for the spectrum subcommands
        member_fn = model_member(DENSE_REAL)
        su = {"components": gen_pieces(rng, 8, member_fn, to_top=False)}
        sv = {"components": gen_pieces(rng, 8, member_fn, to_top=True)}
        fu, fv = self._file("u.json", su), self._file("v.json", sv)
        u_set = build_set(DENSE_REAL, lib_pieces(su["components"]))
        region = jsonio.encode_region(DENSE_REAL, left_orthogonal(DENSE_REAL, u_set))
        reqs += [
            (("closure", "--strategy", "order", "--set", fu), _ok(lambda o: check_sets(su, sv, {"cl": o["closure"]}))),
            (("is-closed", "--set", fu), _ok(lambda o: check_sets(su, sv, {}, closed=o["closed"]))),
            (("orthogonal", "--direction", "left", "--set", fu), _ok(lambda o: check_sets(su, sv, {}, region=o))),
            (("orthogonal", "--direction", "right", "--region", self._file("region.json", region)), _ok(lambda o: check_sets(su, sv, {"cl": o}))),
            (("set", "--op", "intersect", "--a", fu, "--b", fv), _ok(lambda o: check_sets(su, sv, {"inter": o}))),
        ]
        # separate two seeded points
        p = (C.num(Fraction(rng.randrange(16), 4)), "strict")
        q = (C.num(p[0][0] + Fraction(rng.randrange(0, 8), 4)), "principal")
        pj, qj = ({"coord": C.num_to_json(z), "flavor": fl} for z, fl in (p, q))
        reqs.append(
            (
                ("separate", "--p", json.dumps(pj), "--q", json.dumps(qj)),
                _ok(lambda o, p=p, q=q: check_separate(p, q, o)),
            )
        )
        # shift an interval
        s0 = Fraction(rng.randrange(-8, 8), 2)
        eps = Fraction(rng.randrange(1, 9), 4)
        want = {"start": str(s0 - eps), "end": str(s0 + 3 - eps)}
        reqs.append(
            (
                ("shift", "--interval", _interval_str(s0, s0 + 3), "--eps", str(eps)),
                _ok(lambda o, want=want: C.need(o == want, "shift")),
            )
        )
        # interleaving on a pair with a gap of at most 4
        gap = Fraction(rng.randrange(1, 33), 8)
        a = (C.num(Fraction(rng.randrange(32), 4), Fraction(1, 8), 2), rng.choice(("strict", "principal")))
        b = (C.num(a[0][0] + gap, a[0][1], 2), rng.choice(("strict", "principal")))
        aj, bj = (json.dumps({"coord": C.num_to_json(z), "flavor": fl}) for z, fl in (a, b))
        reqs += [
            (("interleaved", "--p", aj, "--q", bj, "--eps", str(gap)), _ok(lambda o: C.check_interleaved(a, b, gap, o["interleaved"]))),
            (("ball", "--center", aj, "--eps", str(gap)), _ok(lambda o: C.check_ball(a, gap, o, member_fn))),
            (("distance-oracle", "--p", aj, "--q", bj, "--step", "1/64"), _ok(lambda o: C.check_bracket(a, b, Fraction(1, 64), o))),
        ]
        # malformed requests: three known faults, then three that exit 2 today
        reqs += [(argv, _malformed) for argv in self.KNOWN_FAULTS]
        reqs += [
            (("hom", "--interval", "[0,1)", "--ideal", '{"coord":"0"'), _malformed),
            (("distance", "--p", '{"coord":"0","flavor":"sideways"}', "--q", '{"coord":"1","flavor":"strict"}'), _malformed),
            (("kernel", "--f", "@" + os.path.join(self.files, "missing.json")), _malformed),
        ]
        return reqs

    def call(self, argv):
        proc = subprocess.run(
            [sys.executable, "-m", "ordspec", *argv],
            cwd=self.root,
            env=self.env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        return proc.returncode, proc.stdout

    def warmup(self):
        self.call(self.warm)

    def run(self, i):
        return self.call(self.requests[i][0])

    def check(self, i, out):
        self.requests[i][1](*out)

    def known_fault(self, i) -> bool:
        return self.requests[i][0] in self.KNOWN_FAULTS


def check_sets(su, sv, docs, closed=None, region=None):
    """A CLI answer about u (and v) against the pieces u and v were made of."""
    numbers = C.set_numbers(su) + C.set_numbers(sv)
    for doc in docs.values():
        numbers += C.set_numbers(doc)
    if region is not None:
        for g in region["gaps"]:
            for part in (g["gap"], g["covered"]):
                if part is not None:
                    numbers += C.set_numbers({"components": [part]})
    rk = C.Ranks(numbers)
    grid = C.Grid(rk, model_member(DENSE_REAL))
    u, v = C.set_cuts(su, rk), C.set_cuts(sv, rk)
    mu, mv = grid.mask(u), grid.mask(v)
    cl = grid.closure_mask(u)
    if "cl" in docs:
        C.need(grid.mask(C.set_cuts(docs["cl"], rk)) == cl, "closure differs from the window rule")
    if "inter" in docs:
        C.need(grid.mask(C.set_cuts(docs["inter"], rk)) == [a and b for a, b in zip(mu, mv)], "intersection")
    if closed is not None:
        C.need(closed == (cl == mu), "is-closed verdict")
    if region is not None:
        C.check_region(grid, u, region)


def check_separate(p, q, doc):
    """Both answers are single windows, disjoint, the first around p, the second around q."""
    first, second = doc["first"], doc["second"]
    rk = C.Ranks(C.set_numbers(first) + C.set_numbers(second) + [p[0], q[0]])
    grid = C.Grid(rk, model_member(DENSE_REAL))
    a, b = C.set_cuts(first, rk), C.set_cuts(second, rk)
    C.need(not any(x and y for x, y in zip(grid.mask(a), grid.mask(b))), "separating sets meet")
    for pt, comps in ((p, a), (q, b)):
        lvl = 0 if pt[1] == "strict" else 1
        C.need(grid.inside(comps, ((rk[pt[0]], lvl), (rk[pt[0]], lvl + 1), None)), "point outside its set")


WORKLOADS = {"modules": Modules, "barcodes": Barcodes, "ideals": Ideals, "cli": Cli}
