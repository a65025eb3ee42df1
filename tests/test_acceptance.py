"""Acceptance suite: every criterion exact, one test per criterion.

Each test prints a PASS line when it completes; the terminal summary hook in
conftest.py additionally reports one line per criterion at the end of the
run.  Corpus sizes follow the stated requirements; the seed comes from
SPECTRAL_SEED (defaulted in conftest).
"""

from fractions import Fraction

import json

from ordspec import (
    Coord,
    DEndpoint,
    DENSE_RATIONAL_WITH_CUTS,
    DENSE_REAL,
    EMPTY_SET,
    FpInterval,
    FpModule,
    GeneratorElement,
    INF,
    QQ,
    Strategy,
    TOP_IDEAL,
    Barcode,
    ball,
    brute_force_distance,
    chain_module,
    closure,
    closure_all_strategies,
    cmp_d,
    cokernel,
    complement,
    compose,
    decompose,
    distance,
    full_set,
    hom_to_injective,
    integer_cover_member,
    intersect,
    interval_set,
    is_closed,
    is_flat,
    is_inf,
    is_interleaved,
    is_subset,
    kernel,
    member,
    principal_at,
    realize,
    reduce_generators,
    separate,
    singleton,
    strict_at,
    union,
    ray_downward,
    ray_upward,
)
from ordspec.cli import main as cli_main
from ordspec.jsonio import encode_set
from ordspec.order_core import Ordering

import io
import subprocess
import sys
from contextlib import redirect_stdout

from conftest import subseed
from oracles import (
    brutal_hom_interval_to_ideal,
    frac_rank,
    interval_alive,
    mat_mul,
    random_fp_morphism,
    random_fraction,
    random_invertible_int_matrix,
    random_scalar,
    random_symbolic_set,
    sample_grid,
    supinf_closure_fixpoint,
)

M = DENSE_REAL
MQ = DENSE_RATIONAL_WITH_CUTS


def P(x):
    return principal_at(x)


def S(x):
    return strict_at(x)


def _done(n, name):
    print(f"ACCEPTANCE {n:02d} {name}: PASS")


# ---------------------------------------------------------------------------


def test_criterion_01_hom_conformance():
    ends = list(range(-3, 4)) + ["inf"]
    ideals = [TOP_IDEAL]
    for c in range(-3, 4):
        ideals.append(S(c))
        ideals.append(P(c))
    checked = 0
    for a in range(-3, 4):
        for b in ends:
            if b != "inf" and b <= a:
                continue
            iv = FpInterval(Coord(a), INF if b == "inf" else Coord(b))
            for p in ideals:
                got = hom_to_injective(M, iv, p)
                want = brutal_hom_interval_to_ideal(
                    iv, p.coord, p.flavor.value == "principal"
                )
                assert got == want, (iv, p)
                checked += 1
    assert checked == 420
    _done(1, "hom conformance")


def test_criterion_02_closed_set_table():
    rng = subseed(101)
    for _ in range(20):
        x = Coord(random_fraction(rng, -10, 10))
        closed_open = [
            (ray_downward(M, S(x), True), ray_upward(M, P(x), True)),
            (ray_upward(M, P(x), True), ray_downward(M, S(x), True)),
            (singleton(M, P(x)), None),
            (ray_downward(M, P(x), True), ray_upward(M, P(x), False)),
            (ray_upward(M, S(x), True), ray_downward(M, S(x), False)),
        ]
        for closed, opened in closed_open:
            assert closure_all_strategies(M, closed) == closed
            if opened is not None:
                assert complement(M, closed) == opened
        comp3 = complement(M, singleton(M, P(x)))
        assert comp3 == union(ray_downward(M, P(x), False), ray_upward(M, P(x), False))
    # rows parameterized by a type-3 ideal: surd cuts and the full ideal
    type3 = [TOP_IDEAL]
    for _ in range(19):
        c = Coord(
            Fraction(rng.randint(-9, 9)),
            Fraction(rng.randint(1, 3)),
            rng.choice([2, 3, 5]),
        )
        type3.append(S(c))
    for i3 in type3:
        down = ray_downward(MQ, i3, True)
        up = ray_upward(MQ, i3, True)
        assert closure_all_strategies(MQ, down) == down
        assert closure_all_strategies(MQ, up) == up
        assert complement(MQ, down) == ray_upward(MQ, i3, False)
        assert complement(MQ, up) == ray_downward(MQ, i3, False)
    _done(2, "closed set table")


def _acceptance_corpus():
    rng = subseed(102)
    return [
        random_symbolic_set(
            rng, M, max_components=5, lo=-10, hi=10,
            allow_inf=False, allow_below_all=False,
        )
        for _ in range(500)
    ]


def test_criterion_03_three_way_closure_agreement():
    for u in _acceptance_corpus():
        results = [closure(M, u, s) for s in Strategy]
        assert results[0] == results[1] == results[2], u
    _done(3, "three-way closure agreement")


def test_one_saturation_pass_is_the_fixpoint():
    for u in _acceptance_corpus():
        assert closure(M, u, Strategy.SUP_INF_SATURATION) == supinf_closure_fixpoint(M, u), u


def test_criterion_04_kuratowski_axioms():
    corpus = _acceptance_corpus()
    pairs = list(zip(corpus[0::2], corpus[1::2]))
    for strategy in Strategy:
        assert closure(M, EMPTY_SET, strategy) == EMPTY_SET
        for a, b in pairs:
            ca = closure(M, a, strategy)
            cb = closure(M, b, strategy)
            assert is_subset(M, a, ca)
            assert closure(M, ca, strategy) == ca
            assert closure(M, union(a, b), strategy) == union(ca, cb)
    _done(4, "Kuratowski axioms")


def test_criterion_05_points_closed():
    rng = subseed(103)
    for _ in range(100):
        x = Coord(random_fraction(rng, -10, 10))
        for p in (S(x), P(x)):
            u = singleton(M, p)
            assert closure_all_strategies(M, u) == u
    top = singleton(M, TOP_IDEAL)
    assert closure_all_strategies(M, top) == top
    _done(5, "points closed")


def test_criterion_06_hausdorff():
    rng = subseed(104)
    done = 0
    while done < 100:
        x = Coord(random_fraction(rng, -10, 10))
        y = Coord(random_fraction(rng, -10, 10))
        choice = rng.random()
        if choice < 0.25:
            p, q = S(x), P(x)  # same-coordinate flavor pair
        elif choice < 0.35:
            p, q = P(x), TOP_IDEAL
        else:
            p = S(x) if rng.random() < 0.5 else P(x)
            q = S(y) if rng.random() < 0.5 else P(y)
        if cmp_d(M, p, q) is Ordering.EQUAL:
            continue
        a, b = separate(M, p, q)
        assert member(M, a, p) and member(M, b, q)
        assert intersect(M, a, b) == EMPTY_SET
        assert is_closed(M, complement(M, a))
        assert is_closed(M, complement(M, b))
        done += 1
    _done(6, "Hausdorff separation")


def test_criterion_07_noncompactness_witness():
    pieces = {n: integer_cover_member(M, n) for n in range(-12, 1)}
    pieces["top"] = integer_cover_member(M, None)
    keys = list(pieces)
    for i, k1 in enumerate(keys):
        assert is_closed(M, pieces[k1])
        assert is_closed(M, complement(M, pieces[k1]))
        for k2 in keys[i + 1 :]:
            assert intersect(M, pieces[k1], pieces[k2]) == EMPTY_SET
    # exhaustive: the truncated union is a single interval, and the part
    # below the truncation is exactly what the remaining indexed pieces tile
    acc = EMPTY_SET
    for piece in pieces.values():
        acc = union(acc, piece)
    assert acc == interval_set(M, DEndpoint(P(-13), True), DEndpoint(TOP_IDEAL, True))
    rng = subseed(105)
    for _ in range(200):
        c = Coord(random_fraction(rng, -11, 11))
        for p in (S(c), P(c)):
            holders = [k for k in keys if member(M, pieces[k], p)]
            assert len(holders) == 1, (p, holders)
    assert [k for k in keys if member(M, pieces[k], TOP_IDEAL)] == ["top"]
    # no member is removable
    for n in range(-12, 1):
        witness = P(n - 1)
        assert member(M, pieces[n], witness)
        assert not any(member(M, pieces[k], witness) for k in keys if k != n)
    top_witness = TOP_IDEAL
    assert not any(
        member(M, pieces[k], top_witness) for k in keys if k != "top"
    )
    _done(7, "non-compactness witness")


def test_criterion_08_top_singleton_not_open():
    comp = complement(M, singleton(M, TOP_IDEAL))
    assert closure_all_strategies(M, comp) == full_set(M)
    _done(8, "top singleton not open")


def test_criterion_09_fp_abelian():
    rng = subseed(106)
    for _ in range(100):
        f = random_fp_morphism(rng, max_summands=4, hi=8)
        K, iota = kernel(f)
        C, pi = cokernel(f)
        assert compose(f, iota).is_zero()
        assert compose(pi, f).is_zero()
        coords = []
        for mod in (f.source, f.target):
            for s in mod.summands:
                coords.append(s.start)
                if s.end is not INF:
                    coords.append(s.end)
        samples = sample_grid(coords) if coords else [Coord(0)]
        for t in samples:
            src_alive = [
                i for i, s in enumerate(f.source.summands)
                if interval_alive(s.start, s.end, t)
            ]
            tgt_alive = [
                j for j, s in enumerate(f.target.summands)
                if interval_alive(s.start, s.end, t)
            ]
            mat = [
                [f.entries.get((i, j), Fraction(0)) for i in src_alive]
                for j in tgt_alive
            ]
            rk = frac_rank(mat)
            assert K.dim_at(t) == len(src_alive) - rk
            assert rk + C.dim_at(t) == len(tgt_alive)
    _done(9, "fp category abelian")


def test_criterion_10_barcode():
    rng = subseed(107)
    for _ in range(500):
        length = rng.randint(1, 12)
        bars = {}
        for _ in range(rng.randint(0, 20)):
            i = rng.randrange(length)
            j = rng.randint(i + 1, length)
            bars[(i, j)] = bars.get((i, j), 0) + 1
        b = Barcode(bars)
        m = realize(b, length)
        assert decompose(m) == b
        for t in range(length):
            assert b.total_at(t) == m.dims[t]
    for _ in range(200):
        length = rng.randint(1, 6)
        dims = [rng.randint(0, 4) for _ in range(length)]
        maps = [
            [[Fraction(rng.randint(-3, 3)) for _ in range(dims[i])] for _ in range(dims[i + 1])]
            for i in range(length - 1)
        ]
        m = chain_module(dims, maps)
        before = decompose(m)
        for t in range(length):
            assert before.total_at(t) == dims[t]
        bases = [random_invertible_int_matrix(rng, d) for d in dims]
        new_maps = [
            mat_mul(
                QQ, bases[i + 1][0], mat_mul(QQ, m.maps[i], bases[i][1])
            )
            for i in range(length - 1)
        ]
        assert decompose(chain_module(dims, new_maps)) == before
    _done(10, "barcode decomposition")


def test_criterion_11_generator_reduction():
    rng = subseed(108)
    done = 0
    while done < 100:
        n_sum = rng.randint(1, 4)
        starts = sorted(rng.randint(0, 8) for _ in range(n_sum))
        amb = FpModule(tuple(FpInterval(Coord(s), INF) for s in starts))
        gens = []
        for _ in range(rng.randint(1, 7)):
            pos = Coord(rng.randint(starts[0], 10))
            coeffs = [
                random_scalar(rng)
                if amb.summands[i].start <= pos and rng.random() < 0.7
                else Fraction(0)
                for i in range(n_sum)
            ]
            if any(v != 0 for v in coeffs):
                gens.append(GeneratorElement(pos, tuple(coeffs)))
        if not gens:
            continue
        retained = reduce_generators(amb, gens, QQ)
        sample_positions = sorted(
            {g.position for g in gens} | {Coord(s) for s in starts} | {Coord(11)}
        )
        for t in sample_positions:
            old_cols = [list(g.coeffs) for g in gens if g.position <= t]
            new_cols = [list(gens[k].coeffs) for k in retained if gens[k].position <= t]
            old_mat = [[c[i] for c in old_cols] for i in range(n_sum)]
            new_mat = [[c[i] for c in new_cols] for i in range(n_sum)]
            assert frac_rank(old_mat) == frac_rank(new_mat)
            assert frac_rank(new_mat) == len(new_cols)
        done += 1
    _done(11, "generator reduction")


def test_criterion_12_flatness():
    fixtures = [
        (chain_module([1, 1], [[[Fraction(1)]]]), True),
        (chain_module([1, 1], [[[Fraction(0)]]]), False),
        (chain_module([0, 1], [[[]]]), True),
    ]
    for m, want in fixtures:
        assert is_flat(m) is want
    rng = subseed(109)
    for _ in range(100):
        length = rng.randint(1, 6)
        dims = [rng.randint(0, 3) for _ in range(length)]
        maps = [
            [[Fraction(rng.randint(-2, 2)) for _ in range(dims[i])] for _ in range(dims[i + 1])]
            for i in range(length - 1)
        ]
        m = chain_module(dims, maps)
        injective_all = all(
            frac_rank(m.maps[i]) == dims[i] for i in range(length - 1)
        )
        assert is_flat(m) == injective_all
    _done(12, "flatness criterion")


def test_criterion_13_interleaving_distance():
    rng = subseed(110)
    step = Fraction(1, 64)

    def random_point():
        c = Coord(Fraction(rng.randint(-32, 32), 4))
        return P(c) if rng.random() < 0.5 else S(c)

    for _ in range(200):
        i, j = random_point(), random_point()
        d = distance(M, i, j)
        b = brute_force_distance(M, i, j, step)
        assert not is_inf(b.upper)
        assert b.lower <= d <= b.upper
        assert b.upper - b.lower <= Coord(step)
    pts = [random_point() for _ in range(30)] + [TOP_IDEAL]
    for p in pts:
        assert distance(M, p, p) == Coord(0)
    for _ in range(500):
        p, q, r = (rng.choice(pts) for _ in range(3))
        dpq, dqp = distance(M, p, q), distance(M, q, p)
        assert dpq == dqp
        dpr, dqr = distance(M, p, r), distance(M, q, r)
        if is_inf(dpq) or is_inf(dqr):
            continue
        assert not is_inf(dpr)
        assert dpr <= dpq + dqr
    for _ in range(50):
        x = Coord(random_fraction(rng, -10, 10))
        assert distance(M, S(x), P(x)) == Coord(0)
    _done(13, "interleaving distance")


def test_criterion_14_ball_openness():
    rng = subseed(111)
    balls = []
    for _ in range(50):
        x = Coord(random_fraction(rng, -10, 10))
        p = P(x) if rng.random() < 0.5 else S(x)
        eps = Fraction(rng.randint(1, 16), 4)
        b = ball(M, p, eps)
        balls.append((p, eps, b))
        assert is_closed(M, complement(M, b))
    checked = 0
    while checked < 500:
        p, eps, b = balls[checked % len(balls)]
        y = Coord(random_fraction(rng, -12, 12))
        q = P(y) if rng.random() < 0.5 else S(y)
        d = distance(M, p, q)
        assert member(M, b, q) == (d < Coord(eps))
        checked += 1
    _done(14, "ball openness")


def test_criterion_15_cli_conformance():
    def run_subprocess(args):
        proc = subprocess.run(
            [sys.executable, "-m", "ordspec", *args], capture_output=True, text=True
        )
        return proc.returncode, proc.stdout

    code, out = run_subprocess(
        ["hom", "--interval", "[0,1)", "--ideal", '{"coord":"0","flavor":"principal"}']
    )
    assert (code, out) == (0, '{"dim":1}\n')
    code, out = run_subprocess(
        [
            "distance",
            "--p", '{"coord":"inf","flavor":"strict"}',
            "--q", '{"coord":"0","flavor":"principal"}',
        ]
    )
    assert (code, out) == (0, '{"infinite":true}\n')
    row2 = (
        '{"components":[{"lo":{"point":{"coord":"0","flavor":"principal"},"included":true},'
        '"hi":{"point":{"coord":"inf","flavor":"strict"},"included":true}}]}'
    )
    code, out = run_subprocess(["closure", "--set", row2, "--strategy", "all"])
    expected = (
        '{"closed":true,"closure":{"components":[{"hi":{"included":true,'
        '"point":{"coord":"inf","flavor":"strict"}},"lo":{"included":true,'
        '"point":{"coord":"0","flavor":"principal"}}}]}}\n'
    )
    assert (code, out) == (0, expected)
    # self-auditing closure over the full random corpus, through the CLI entry
    for u in _acceptance_corpus():
        doc = json.dumps(encode_set(M, u))
        buf = io.StringIO()
        with redirect_stdout(buf):
            rc = cli_main(["closure", "--set", doc, "--strategy", "all"])
        assert rc == 0, buf.getvalue()
        parsed = json.loads(buf.getvalue())
        assert set(parsed) == {"closed", "closure"}
    _done(15, "CLI conformance")
