import io
import json
import os
import re
from contextlib import redirect_stdout
from fractions import Fraction

import pytest

from ordspec import (
    Coord,
    DomainError,
    Field,
    FpInterval,
    FpModule,
    FpMorphism,
    GeneratorElement,
    INF,
    QQ,
    ZERO_MODULE,
    chain_module,
    cokernel,
    compose,
    decompose,
    hom_dim,
    hom_to_injective,
    identity_morphism,
    is_flat,
    kernel,
    principal_at,
    reduce_generators,
    strict_at,
    zero_morphism,
    DENSE_REAL,
    FiniteChain,
    TOP_IDEAL,
)
from ordspec.fp_category import _iv_key, _lift_bar, critical_grid

from conftest import subseed
from oracles import (
    brutal_hom_interval_to_interval,
    certify_dense,
    circuit_deletion,
    frac_nullspace,
    frac_rank,
    hom_to_injective_by_membership,
    in_span,
    interval_alive,
    modp_rank,
    random_fp_morphism as random_morphism,
    random_scalar,
    sample_grid,
)


def iv(a, b):
    return FpInterval(Coord(a), INF if b == "inf" else Coord(b))


def F(x):
    return Fraction(x)


# ---------------------------------------------------------------------------
# Hom


def test_hom_dim_examples():
    assert hom_dim(iv(1, 3), iv(0, 2)) == 1
    assert hom_dim(iv(0, 2), iv(1, 3)) == 0
    assert hom_dim(iv(0, "inf"), iv(0, "inf")) == 1


def test_hom_dim_matches_brute_force_everywhere():
    ends = list(range(0, 7)) + ["inf"]
    intervals = [iv(a, b) for a in range(0, 7) for b in ends if b == "inf" or b > a]
    for x in intervals:
        for y in intervals:
            assert hom_dim(x, y) == brutal_hom_interval_to_interval(x, y), (x, y)


def test_hom_to_injective_examples():
    m = DENSE_REAL
    assert hom_to_injective(m, iv(0, 1), principal_at(0)) == 1
    assert hom_to_injective(m, iv(0, 1), principal_at(1)) == 0
    assert hom_to_injective(m, iv(0, "inf"), TOP_IDEAL) == 1


def test_hom_to_injective_on_a_chain_follows_the_membership_rule():
    """Every interval and every ideal of the chain 0..4: [a, b) maps to E(p)
    exactly when a lies in p and b does not.  The window's upper end ideal
    (b, strict) is no ideal of a chain, and is compared, not checked."""
    chain = FiniteChain(5)
    for a in range(5):
        for b in [*range(a + 1, 5), "inf"]:
            x = iv(a, b)
            for k in range(5):
                p = principal_at(k)
                want = hom_to_injective_by_membership(x, p)
                assert want == int(a <= k and (b == "inf" or k < b))
                assert hom_to_injective(chain, x, p) == want, (a, b, k)


# ---------------------------------------------------------------------------
# Morphisms and composition


def test_illegal_entry_rejected():
    src = FpModule((iv(2, 3),))
    tgt = FpModule((iv(1, 2),))
    with pytest.raises(DomainError):
        FpMorphism(src, tgt, {(0, 0): F(1)}, QQ)
    with pytest.raises(DomainError):
        FpMorphism(src, src, {(0, 3): F(1)}, QQ)


def test_compose_examples():
    f = FpMorphism(FpModule((iv(1, 3),)), FpModule((iv(0, 2),)), {(0, 0): F(2)}, QQ)
    g = FpMorphism(FpModule((iv(2, 4),)), FpModule((iv(1, 3),)), {(0, 0): F(3)}, QQ)
    assert compose(f, g).is_zero()

    fi = FpMorphism(FpModule((iv(1, "inf"),)), FpModule((iv(0, "inf"),)), {(0, 0): F(2)}, QQ)
    gi = FpMorphism(FpModule((iv(2, "inf"),)), FpModule((iv(1, "inf"),)), {(0, 0): F(3)}, QQ)
    assert compose(fi, gi).entries == {(0, 0): F(6)}

    m = FpModule((iv(0, 2), iv(1, 3)))
    h = FpMorphism(m, m, {(0, 0): F(5), (1, 1): F(-1)}, QQ)
    assert compose(identity_morphism(m, QQ), h) == h
    assert compose(h, identity_morphism(m, QQ)) == h

    with pytest.raises(DomainError):
        compose(f, fi)


# ---------------------------------------------------------------------------
# Kernel / cokernel worked examples


def test_kernel_examples():
    src = FpModule((iv(1, 3), iv(2, 4)))
    tgt = FpModule((iv(0, 3),))
    f = FpMorphism(src, tgt, {(0, 0): F(1), (1, 0): F(1)}, QQ)
    K, iota = kernel(f)
    assert K == FpModule((iv(2, 4),))
    entries = iota.entries
    assert set(entries) == {(0, 0), (0, 1)}
    # embedding is (1, -1) up to a scalar
    assert entries[(0, 0)] == -entries[(0, 1)]
    assert compose(f, iota).is_zero()

    fz = zero_morphism(src, tgt, QQ)
    Kz, iz = kernel(fz)
    assert Kz == src
    assert iz == identity_morphism(src, QQ)

    f2 = FpMorphism(FpModule((iv(0, 2),)), FpModule((iv(0, 1),)), {(0, 0): F(1)}, QQ)
    K2, _ = kernel(f2)
    assert K2 == FpModule((iv(1, 2),))


def test_cokernel_examples():
    src = FpModule((iv(1, 3), iv(2, 4)))
    tgt = FpModule((iv(0, 3),))
    f = FpMorphism(src, tgt, {(0, 0): F(1), (1, 0): F(1)}, QQ)
    C, pi = cokernel(f)
    assert C == FpModule((iv(0, 1),))
    assert compose(pi, f).is_zero()

    m = FpModule((iv(0, 2), iv(1, "inf")))
    Ci, _ = cokernel(identity_morphism(m, QQ))
    assert Ci == ZERO_MODULE

    Cz, pz = cokernel(zero_morphism(ZERO_MODULE, m, QQ))
    assert Cz == m
    assert pz == identity_morphism(m, QQ)


# ---------------------------------------------------------------------------
# Random morphisms: abelian-category identities checked pointwise


def _test_samples(f):
    coords = []
    for m in (f.source, f.target):
        for s in m.summands:
            coords.append(s.start)
            if s.end is not INF:
                coords.append(s.end)
    return sample_grid(coords) if coords else [Coord(0)]


def _pointwise(f, t):
    src_alive = [i for i, s in enumerate(f.source.summands) if interval_alive(s.start, s.end, t)]
    tgt_alive = [j for j, s in enumerate(f.target.summands) if interval_alive(s.start, s.end, t)]
    mat = [
        [f.entries.get((i, j), 0) for i in src_alive]
        for j in tgt_alive
    ]
    return mat, src_alive, tgt_alive


def test_kernel_cokernel_pointwise_identities():
    rng = subseed(40)
    for _ in range(30):
        f = random_morphism(rng)
        K, iota = kernel(f)
        C, pi = cokernel(f)
        assert compose(f, iota).is_zero()
        assert compose(pi, f).is_zero()
        for t in _test_samples(f):
            mat, src_alive, tgt_alive = _pointwise(f, t)
            rk = frac_rank(mat)
            dim_ker = len(src_alive) - rk
            dim_coker = len(tgt_alive) - rk
            assert K.dim_at(t) == dim_ker, (f.entries, t)
            assert C.dim_at(t) == dim_coker
            # every pointwise kernel vector is in the image of the embedding
            imat, k_alive, s_alive2 = _pointwise(iota, t)
            iota_cols = [[imat[r][c] for r in range(len(imat))] for c in range(len(k_alive))]
            for null_vec in frac_nullspace(mat, len(src_alive)):
                assert in_span(iota_cols, null_vec)


def test_first_isomorphism_pointwise():
    """The image of f, as the kernel of its cokernel projection, has the
    pointwise rank of f and equals the coimage, the cokernel of its kernel
    embedding: kernel and cokernel checked against each other."""
    rng = subseed(41)
    for field in (QQ, Field(5)):
        for _ in range(15):
            f = random_morphism(rng, max_summands=3, hi=6, field=field)
            _, iota = kernel(f)
            _, pi = cokernel(f)
            image, _ = kernel(pi)
            assert image == cokernel(iota)[0], (f.entries, field)
            for t in _test_samples(f):
                mat, _, _ = _pointwise(f, t)
                rk = frac_rank(mat) if field.p is None else modp_rank(mat, field.p)
                assert image.dim_at(t) == rk


def _with_extra_summands(m: FpModule, extra):
    """m with the summands extra added, and the new index of each old summand."""
    both = m.summands + tuple(extra)
    order = sorted(range(len(both)), key=lambda k: _iv_key(both[k]))
    new_ix = {k: pos for pos, k in enumerate(order)}
    return FpModule(both), [new_ix[k] for k in range(len(m.summands))]


def test_kernel_invariant_under_grid_refinement():
    """Summands that f does not touch refine the critical grid with their
    endpoints: one more in the target leaves the kernel as it is, one more
    in the source the cokernel."""
    rng = subseed(42)
    for _ in range(10):
        f = random_morphism(rng, max_summands=3, hi=6)
        K1, i1 = kernel(f)
        C1, p1 = cokernel(f)
        extra = [Coord(Fraction(rng.randint(0, 24), 3)) for _ in range(3)]
        extra.append(Coord(Fraction(rng.randint(50, 60))))
        extra = [FpInterval(c, INF) for c in extra]
        target, at = _with_extra_summands(f.target, extra)
        wider = {(i, at[j]): v for (i, j), v in f.entries.items()}
        K2, i2 = kernel(FpMorphism(f.source, target, wider, f.field))
        source, at = _with_extra_summands(f.source, extra)
        wider = {(at[i], j): v for (i, j), v in f.entries.items()}
        C2, p2 = cokernel(FpMorphism(source, f.target, wider, f.field))
        assert K1 == K2 and C1 == C2
        assert i1 == i2 and p1 == p2


def _doubled(field, v):
    """Twice the scalar v of field."""
    return 2 * v if field.p is None else 2 * v % field.p


def _corrupt_first_pair(real):
    """Wrap a pointwise nullspace basis so that its first vector with two
    entries has one entry doubled.  The support, and so every entry's
    legality, is kept, but the vector leaves the kernel (the functional no
    longer vanishes on the image)."""

    def basis(field, *args):
        vecs = real(field, *args)
        for k, vec in enumerate(vecs):
            if len(vec) > 1:
                i = max(vec)
                vecs[k] = {**vec, i: _doubled(field, vec[i])}
                break
        return vecs

    return basis


def test_small_entry_keys_are_shared_between_morphisms():
    """A kept morphism holds no key tuple of its own for small index pairs:
    equal (i, j) of two ints come from one table.  A key of another type,
    such as a bool index, stays as given."""
    m = FpModule((iv(0, "inf"),) * 2)
    a, b = (FpMorphism(m, m, {(i, 0): F(1)}) for i in (1, 1))
    assert next(iter(a.entries)) is next(iter(b.entries))
    flagged = FpMorphism(m, m, {(True, 0): F(1)})
    assert type(next(iter(flagged.entries))[0]) is bool


def test_small_bars_are_shared_between_barcodes():
    """The bars of a kept barcode come from the same table as a morphism's
    entry keys: equal (start, end, multiplicity) triples of small ints are
    one object, and a bar with an end at or above the bound keeps its own
    triple."""
    from ordspec import Barcode
    from ordspec.errors import SHARED_BELOW, shared_small

    a, b = (Barcode({(0, 3): 2, (1, SHARED_BELOW): 1}) for _ in range(2))
    assert a.bars[0] == (0, 3, 2) and a.bars[0] is b.bars[0]
    assert a.bars[1] == b.bars[1] and a.bars[1] is not b.bars[1]
    assert shared_small((0, 3, 2)) is a.bars[0]
    m = FpModule((iv(0, "inf"),) * 4)
    assert shared_small((0, 3)) is next(iter(FpMorphism(m, m, {(0, 3): F(1)}).entries))


def test_lifted_summands_are_shared():
    """A kernel or cokernel summand equal to a summand of the domain, or to
    one lifted before it, is that object: a kept answer holds no copy."""
    source = FpModule((iv(0, 3), iv(1, "inf")))
    target = FpModule((iv(2, "inf"),))
    K, _ = kernel(zero_morphism(source, target))
    assert K == source and all(a is b for a, b in zip(K.summands, source.summands))
    C, _ = cokernel(zero_morphism(target, source))
    assert C == source and all(a is b for a, b in zip(C.summands, source.summands))
    rays = FpModule((iv(0, "inf"),) * 2)
    K, _ = kernel(FpMorphism(rays, FpModule((iv(0, 1),) * 2), {(0, 0): F(1), (1, 1): F(1)}))
    assert K == FpModule((iv(1, "inf"),) * 2) and K.summands[0] is K.summands[1]


def _summing_and_diagonal():
    """[0,inf)^2 -> [0,inf) adding the summands, and [0,inf) -> [0,inf)^2."""
    two = FpModule((iv(0, "inf"), iv(0, "inf")))
    one = FpModule((iv(0, "inf"),))
    summing = FpMorphism(two, one, {(0, 0): F(1), (1, 0): F(1)}, QQ)
    diagonal = FpMorphism(one, two, {(0, 0): F(1), (0, 1): F(1)}, QQ)
    return summing, diagonal


def test_certificate_rejects_corrupted_vector(monkeypatch):
    from ordspec import fp_category

    summing, diagonal = _summing_and_diagonal()
    for op, f in ((kernel, summing), (cokernel, diagonal)):
        op(f)
        with monkeypatch.context() as mp:
            mp.setattr(fp_category, "_null_basis", _corrupt_first_pair(fp_category._null_basis))
            failure = f"^{op.__name__} certificate failed at end sample 0: "
            with pytest.raises(AssertionError, match=failure):
                op(f)


def test_shared_echelon_fault_is_caught(monkeypatch):
    """A fault in the one elimination engine cannot pass silently: with a
    vector that reduces to zero reported independent (it joins the form as
    a row with no pivot), nullspaces lose vectors and the sweep keeps
    dependent ones, and the certificate or the sweep's dimension check
    fails.  Through the CLI that is exit 3, ``internal_invariant``."""
    from ordspec import cli, linalg

    real = linalg.Echelon.add

    def add(self, vec, tag):
        if real(self, vec, tag) is not None:
            self.rows.append((None, {}, tag, self.field.one, {}))
        return None

    def kernel_of_summing():
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = cli.main(["kernel", "--f", summing_json])
        return code, json.loads(buf.getvalue())

    summing, diagonal = _summing_and_diagonal()
    summing_json = (
        '{"source":{"summands":["[0,inf)","[0,inf)"]},"target":{"summands":["[0,inf)"]},'
        '"entries":[{"from":0,"to":0,"value":"1"},{"from":1,"to":0,"value":"1"}]}'
    )
    assert kernel_of_summing()[0] == 0
    with monkeypatch.context() as mp:
        mp.setattr(linalg.Echelon, "add", add)
        for op, f in ((kernel, summing), (cokernel, diagonal)):
            with pytest.raises(AssertionError, match=f"^{op.__name__} certificate failed"):
                op(f)
        with pytest.raises(AssertionError, match="^dimension mismatch at step 1"):
            decompose(chain_module([2, 1], [[[F(1), F(1)]]]))
        code, doc = kernel_of_summing()
        assert code == 3 and doc["error"]["kind"] == "internal_invariant"


def test_certificate_rejects_summand_off_the_grid(monkeypatch):
    """A lifted summand whose start is moved off the grid (up into the
    source for a kernel, down below the target for a cokernel, so that the
    embedding or projection stays legal) fails the certificate."""
    from ordspec import fp_category

    summing, diagonal = _summing_and_diagonal()
    real = fp_category._lift_bar
    for op, f, shift in ((kernel, summing, Fraction(1, 2)), (cokernel, diagonal, Fraction(-1, 2))):

        def lift(ends, p, q):
            bar = real(ends, p, q)
            return FpInterval(Coord(bar.start.rat + shift), bar.end)

        with monkeypatch.context() as mp:
            mp.setattr(fp_category, "_lift_bar", lift)
            failure = f"^{op.__name__} certificate failed: summand \\[{shift},inf\\) is off"
            with pytest.raises(AssertionError, match=failure):
                op(f)


# distinct 20-digit denominators
_DENS = (10**19 + 3, 10**19 + 7, 10**19 + 9)


def _summing_and_diagonal_of_three(field):
    """[0,inf)^3 -> [0,inf) and [0,inf) -> [0,inf)^3, with the scalars 1/d
    for the denominators above over QQ and 1, 2, 3 over F_p: the kernel of
    the first and the cokernel of the second have two summands."""
    three = FpModule((iv(0, "inf"),) * 3)
    one = FpModule((iv(0, "inf"),))
    scalars = [Fraction(1, d) for d in _DENS] if field.is_rational else [1, 2, 3]
    summing = FpMorphism(three, one, {(i, 0): v for i, v in enumerate(scalars)}, field)
    diagonal = FpMorphism(one, three, {(0, i): v for i, v in enumerate(scalars)}, field)
    return summing, diagonal


def _corrupt_bars(real, fault: str):
    """Wrap the sweep so that its first bar is duplicated or dropped."""

    def sweep(*args):
        bars = real(*args)
        return bars + bars[:1] if fault == "duplicate" else bars[1:]

    return sweep


@pytest.mark.parametrize("field", [QQ, Field(5)], ids=["QQ", "F5"])
def test_certificate_rejects_each_fault(monkeypatch, field):
    """Each pointwise check fails on the fault it is there for: a duplicated
    kernel vector (cokernel functional) leaves the map not injective (not
    surjective), a doubled entry leaves the composite nonzero, and a dropped
    summand leaves the dimension short of the rank of f."""
    from ordspec import fp_category

    summing, diagonal = _summing_and_diagonal_of_three(field)
    for op, f, side in ((kernel, summing, "injective"), (cokernel, diagonal, "surjective")):
        assert len(op(f)[0]) == 2
        for name, wrapped, failure in (
            ("_sweep", _corrupt_bars(fp_category._sweep, "duplicate"), f"the {op.__name__} map is not {side}"),
            ("_null_basis", _corrupt_first_pair(fp_category._null_basis), "the composite with f is not zero"),
            ("_sweep", _corrupt_bars(fp_category._sweep, "drop"), "dimension 1 is not 3 - rank f"),
        ):
            message = f"{op.__name__} certificate failed at end sample 0: {failure}"
            with monkeypatch.context() as mp:
                mp.setattr(fp_category, name, wrapped)
                with pytest.raises(AssertionError, match=f"^{re.escape(message)}$"):
                    op(f)


def _outcome(certify, args):
    """The failure message of a certificate, or None when it passes."""
    try:
        certify(*args)
    except AssertionError as exc:
        return str(exc)
    return None


def _corrupted(rng, args):
    """The certificate's arguments with the map g or its module corrupted
    five ways: an entry doubled, dropped or added, a summand duplicated (with
    its column) or dropped."""
    op, ends, pos, alive_dom, alive_cod, f_entries, mod, g_entries, field = args
    out = []

    def variant(summands, entries):
        out.append((op, ends, pos, alive_dom, alive_cod, f_entries, FpModule(summands), entries, field))

    summands = mod.summands
    if g_entries:
        key = rng.choice(sorted(g_entries))
        variant(summands, {**g_entries, key: _doubled(field, g_entries[key])})
        variant(summands, {k: v for k, v in g_entries.items() if k != key})
    n_dom = 1 + max((i for dom in alive_dom for i in dom), default=-1)
    if summands and n_dom:
        key = (rng.randrange(len(summands)), rng.randrange(n_dom))
        variant(summands, {**g_entries, key: field.parse(str(random_scalar(rng)))})
        ell = rng.randrange(len(summands))
        twice = {(e + (e > ell), d): v for (e, d), v in g_entries.items()}
        twice.update({(ell + 1, d): v for (e, d), v in g_entries.items() if e == ell})
        variant(summands[: ell + 1] + summands[ell:], twice)
        dropped = {(e - (e > ell), d): v for (e, d), v in g_entries.items() if e != ell}
        variant(summands[:ell] + summands[ell + 1 :], dropped)
    return out


def test_certificate_agrees_with_the_dense_route(monkeypatch):
    """On the kernels and cokernels of random morphisms, over QQ with surd
    endpoints and over F_5, and on corrupted copies of each answer, the
    integer certificate passes or fails exactly when the dense one on field
    scalars does, with the same message."""
    from ordspec import fp_category

    real = fp_category._certify
    calls = []

    def certify(*args):
        calls.append(args)
        real(*args)

    monkeypatch.setattr(fp_category, "_certify", certify)
    rng = subseed(46)
    for field in (QQ, Field(5)):
        for _ in range(40):
            f = random_morphism(rng, max_summands=6, field=field, surds=field.is_rational)
            kernel(f)
            cokernel(f)
    verdicts = []
    for args in calls:
        assert _outcome(certify_dense, args) is None
        for bad in _corrupted(rng, args):
            got = _outcome(real, bad)
            assert got == _outcome(certify_dense, bad), bad
            verdicts.append(got)
    assert None in verdicts
    for failure in ("map is not", "composite with f", "dimension"):
        assert any(v and failure in v for v in verdicts), failure


def test_outputs_match_the_golden_file():
    """``ordspec kernel`` and ``ordspec cokernel`` print, byte for byte, what
    they printed when tests/data/exact_golden.json was recorded (by
    tests/data/make_exact_golden.py), on 40 seeded morphisms over QQ with
    surd endpoints and 20-digit denominators and over four prime fields."""
    from ordspec import cli

    path = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data", "exact_golden.json")
    with open(path, encoding="utf-8") as fh:
        cases = json.load(fh)
    assert len(cases) == 40
    for case in cases:
        field = "rat" if case["p"] is None else f"fp:{case['p']}"
        f = json.dumps(case["f"], sort_keys=True, separators=(",", ":"))
        for op in ("kernel", "cokernel"):
            buf = io.StringIO()
            with redirect_stdout(buf):
                code = cli.main([op, "--f", f, "--field", field])
            assert code == 0 and buf.getvalue() == case[op], (op, case["f"])


# ---------------------------------------------------------------------------
# Generator reduction


def test_reduce_generators_examples():
    amb = FpModule((iv(0, "inf"), iv(1, "inf")))
    gens = [
        GeneratorElement(Coord(0), (F(1), F(0))),
        GeneratorElement(Coord(1), (F(1), F(1))),
        GeneratorElement(Coord(1), (F(2), F(2))),
    ]
    assert reduce_generators(amb, gens, QQ) == [0, 1]

    assert reduce_generators(amb, [gens[0]], QQ) == [0]

    amb1 = FpModule((iv(0, "inf"),))
    gens1 = [
        GeneratorElement(Coord(0), (F(1),)),
        GeneratorElement(Coord(1), (F(1),)),
    ]
    assert reduce_generators(amb1, gens1, QQ) == [0]


def test_reduce_generators_drops_zero_generators():
    amb = FpModule((iv(0, "inf"), iv(1, "inf")))
    zero = GeneratorElement(Coord(2), (F(0), F(0)))
    one = GeneratorElement(Coord(3), (F(1), F(0)))
    # 1*g = 0 is a nontrivial relation, so no zero generator is kept
    assert reduce_generators(amb, [zero], QQ) == []
    assert reduce_generators(amb, [zero, zero], QQ) == []
    assert reduce_generators(amb, [zero, one, zero], QQ) == [1]


def test_reduce_generators_equals_circuit_deletion():
    """One pass in (position, index) order leaves what deleting the largest
    member of a relation, one relation at a time, leaves; positions tie and
    generators repeat, so both tie-breaks are exercised."""
    rng = subseed(44)
    for p in (None, 5):
        field = QQ if p is None else Field(p)
        done = 0
        while done < 60:
            n_sum = rng.randint(1, 4)
            starts = sorted(rng.randint(0, 3) for _ in range(n_sum))
            amb = FpModule(tuple(iv(s, "inf") for s in starts))
            gens = []
            for _ in range(rng.randint(1, 7)):
                if gens and rng.random() < 0.25:
                    gens.append(rng.choice(gens))
                    continue
                pos = Coord(rng.randint(starts[0], 4))
                coeffs = tuple(
                    rng.randint(-3, 3)
                    if amb.summands[i].start <= pos and rng.random() < 0.7
                    else 0
                    for i in range(n_sum)
                )
                gens.append(GeneratorElement(pos, coeffs))
            if all(v == 0 for g in gens for v in g.coeffs):
                continue
            assert reduce_generators(amb, gens, field) == circuit_deletion(gens, p), gens
            done += 1


def test_reduce_generators_validation():
    amb = FpModule((iv(0, 2),))
    with pytest.raises(DomainError):
        reduce_generators(amb, [], QQ)
    amb2 = FpModule((iv(3, "inf"),))
    with pytest.raises(DomainError):
        reduce_generators(amb2, [GeneratorElement(Coord(0), (F(1),))], QQ)


def test_reduce_generators_properties():
    rng = subseed(43)
    for _ in range(40):
        n_sum = rng.randint(1, 4)
        starts = sorted(rng.randint(0, 8) for _ in range(n_sum))
        amb = FpModule(tuple(iv(s, "inf") for s in starts))
        gens = []
        for _ in range(rng.randint(1, 6)):
            pos = Coord(rng.randint(starts[0], 10))
            coeffs = [
                random_scalar(rng) if amb.summands[i].start <= pos and rng.random() < 0.7 else F(0)
                for i in range(n_sum)
            ]
            if all(v == 0 for v in coeffs):
                coeffs[0] = F(1) if amb.summands[0].start <= pos else F(0)
            if all(v == 0 for v in coeffs):
                continue
            gens.append(GeneratorElement(pos, tuple(coeffs)))
        if not gens:
            continue
        retained = reduce_generators(amb, gens, QQ)
        positions = sorted({g.position for g in gens} | {Coord(s) for s in starts} | {Coord(11)})
        for t in positions:
            old_cols = [list(g.coeffs) for g in gens if g.position <= t]
            new_cols = [list(gens[k].coeffs) for k in retained if gens[k].position <= t]
            old_mat = [[c[i] for c in old_cols] for i in range(n_sum)]
            new_mat = [[c[i] for c in new_cols] for i in range(n_sum)]
            # same generated submodule, and the retained set is independent
            assert frac_rank(old_mat) == frac_rank(new_mat)
            assert frac_rank(new_mat) == len(new_cols)


# ---------------------------------------------------------------------------
# Flatness


def test_is_flat_examples():
    one = chain_module([1, 1], [[[F(1)]]])
    assert is_flat(one)
    zero_map = chain_module([1, 1], [[[F(0)]]])
    assert not is_flat(zero_map)
    empty_domain = chain_module([0, 1], [[[]]])
    assert is_flat(empty_domain)


def test_kernel_cokernel_over_prime_field():
    from ordspec import Field

    f7 = Field(7)
    src = FpModule((iv(1, 3), iv(2, 4)))
    tgt = FpModule((iv(0, 3),))
    f = FpMorphism(src, tgt, {(0, 0): 3, (1, 0): 10}, f7)
    K, iota = kernel(f)
    C, pi = cokernel(f)
    assert K == FpModule((iv(2, 4),))
    assert C == FpModule((iv(0, 1),))
    assert compose(f, iota).is_zero()
    assert compose(pi, f).is_zero()
    # an entry that is nonzero over the rationals but vanishes mod 7
    g = FpMorphism(src, tgt, {(0, 0): 7}, f7)
    assert g.is_zero()


def test_prime_field_scalars_are_reduced_where_they_enter():
    """Int entries of a morphism and generator coefficients over F_p are
    reduced mod p before the zero test, as chain module entries are."""
    f7 = Field(7)
    src = FpModule((iv(1, 3),))
    tgt = FpModule((iv(0, 3),))
    # 7 is zero in F_7, so the kernel is the whole source
    K, iota = kernel(FpMorphism(src, tgt, {(0, 0): 7}, f7))
    assert K == src and iota == identity_morphism(src, f7)
    assert FpMorphism(src, tgt, {(0, 0): 10}, f7) == FpMorphism(src, tgt, {(0, 0): 3}, f7)
    amb = FpModule((iv(0, "inf"), iv(0, "inf")))
    assert reduce_generators(amb, [GeneratorElement(Coord(1), (7, 0))], f7) == []
    gens = [GeneratorElement(Coord(1), (7, 0)), GeneratorElement(Coord(1), (-6, 14))]
    assert reduce_generators(amb, gens, f7) == [1]
    # a coefficient that vanishes mod p may sit on a summand not yet alive
    late = FpModule((iv(0, "inf"), iv(2, "inf")))
    assert reduce_generators(late, [GeneratorElement(Coord(1), (1, 7))], f7) == [0]


def test_int_entries_over_rationals_match_fractions():
    """An int entry over QQ is the rational it names: the nullspace of integer
    columns is made of exact Fractions, so kernel and cokernel do not depend
    on the entries' type."""
    from ordspec import linalg

    (vec,) = linalg.nullspace(QQ, {0: {0: 3}, 1: {0: 2}})
    assert vec == {0: Fraction(-2, 3), 1: 1}
    assert all(type(v) is Fraction for v in vec.values())
    src = FpModule((iv(0, "inf"), iv(0, "inf")))
    tgt = FpModule((iv(0, "inf"),))
    ints = FpMorphism(src, tgt, {(0, 0): 3, (1, 0): 2}, QQ)
    fracs = FpMorphism(src, tgt, {(0, 0): F(3), (1, 0): F(2)}, QQ)
    K, iota = kernel(ints)
    assert (K, iota) == kernel(fracs)
    assert K == FpModule((iv(0, "inf"),))
    assert cokernel(ints) == cokernel(fracs)


def test_grid_positions(monkeypatch):
    """The grid is the sorted finite endpoints.  A bar lifts by the parity of
    its first and last positions, and only a failure names a sample
    coordinate inside a cell: kernel and cokernel never compute one."""
    from ordspec import fp_category

    ends = critical_grid([FpModule((iv(0, 2), iv(1, "inf"))), FpModule((iv(1, 2),))])
    assert ends == [Coord(0), Coord(1), Coord(2)]
    assert _lift_bar(ends, 0, 3) == iv(0, 2)
    assert _lift_bar(ends, 2, 5) == iv(1, "inf")
    surds = [Coord(0, 1, 2), Coord(0, 1, 3)]
    for grid, p, q, named in (
        (ends, 1, 3, "bar born at mid sample 1/2"),
        (ends, 5, 5, "bar born at beyond sample 3"),
        (ends, 0, 2, "bar dies right after end sample 1"),
        (surds, 1, 1, "bar born at mid sample 3/2"),
        (surds, 0, 2, "bar dies right after end sample 1*sqrt(3)"),
    ):
        message = f"{named}; interval modules are half-open"
        with pytest.raises(AssertionError, match=f"^{re.escape(message)}$"):
            _lift_bar(grid, p, q)

    def refuse(*args):
        raise AssertionError("a sample coordinate was computed")

    rng = subseed(44)
    fs = [random_morphism(rng) for _ in range(20)]
    above, below = (FpModule((FpInterval(c, INF),)) for c in reversed(surds))
    fs.append(FpMorphism(above, below, {(0, 0): F(1)}))
    expected = [(kernel(f), cokernel(f)) for f in fs]
    monkeypatch.setattr(fp_category, "rational_between", refuse)
    monkeypatch.setattr(fp_category, "rational_above", refuse)
    assert [(kernel(f), cokernel(f)) for f in fs] == expected


def test_certificate_shares_no_code_with_echelon(monkeypatch):
    """The certificate's ranks take no part of the elimination engine the
    sweep uses: with ``Echelon.add`` raising while ``_certify`` runs, kernel
    and cokernel over QQ and over F_p return the answers they return
    without the fault."""
    from ordspec import fp_category, linalg

    real = fp_category._certify
    certified = []

    def add(self, vec, tag):
        raise RuntimeError("Echelon.add called by the certificate")

    def certify(*args):
        with monkeypatch.context() as mp:
            mp.setattr(linalg.Echelon, "add", add)
            with pytest.raises(RuntimeError):
                linalg.nullspace(QQ, {0: {0: F(1)}})
            real(*args)
        certified.append(args[0])

    rng = subseed(45)
    for field in (QQ, Field(7)):
        fs = [random_morphism(rng, field=field) for _ in range(15)]
        expected = [(kernel(f), cokernel(f)) for f in fs]
        with monkeypatch.context() as mp:
            mp.setattr(fp_category, "_certify", certify)
            assert [(kernel(f), cokernel(f)) for f in fs] == expected
    assert certified.count("kernel") == certified.count("cokernel") == 30
