import gc
import json
import time
from fractions import Fraction

import pytest

from ordspec import (
    Barcode, DomainError, Field, QQ, chain_module, decompose, is_flat, rank_invariant, realize,
)
from ordspec.jsonio import decode_chain, encode_barcode, encode_chain

from conftest import subseed
from oracles import barcode_by_rank_table, frac_rank, mat_mul, modp_rank, random_invertible_int_matrix


def F(x):
    return Fraction(x)


def _mat(rows):
    return [[F(v) for v in row] for row in rows]


def _example_module():
    return chain_module([1, 2, 1], [_mat([[1], [0]]), _mat([[0, 1]])])


def test_rank_examples():
    m = _example_module()
    assert rank_invariant(m, 0, 2) == 0
    assert rank_invariant(m, 0, 0) == 1
    assert rank_invariant(m, 1, 1) == 2
    assert rank_invariant(m, 0, 1) == 1
    assert rank_invariant(m, 1, 2) == 1
    simple = chain_module([1, 1], [_mat([[1]])])
    assert rank_invariant(simple, 0, 1) == 1
    with pytest.raises(DomainError):
        rank_invariant(m, 1, 3)


def test_decompose_examples():
    m = _example_module()
    assert decompose(m).as_dict() == {(0, 2): 1, (1, 3): 1}
    zero = chain_module([0, 0, 0], [_mat([]), _mat([])])
    assert decompose(zero).as_dict() == {}
    tail = chain_module([1, 1, 0], [_mat([[1]]), []])
    assert decompose(tail).as_dict() == {(0, 2): 1}
    # a dimension that no structure map witnesses: every unit vector is a birth
    wide = decode_chain({"dims": [300], "maps": []}, QQ)
    assert encode_barcode(decompose(wide)) == {"bars": [{"end": 1, "mult": 300, "start": 0}]}
    # two carried images e0+e1 and e1+e2 span e1 and e2 together with the birth e0
    image = [[1 if i - j in (0, 1) else 0 for j in range(2)] for i in range(300)]
    grown = chain_module([2, 300], [_mat(image)])
    assert decompose(grown).as_dict() == {(0, 2): 2, (1, 2): 298}


def test_realize_examples():
    b = Barcode({(0, 2): 1, (1, 3): 1})
    m = realize(b, 3)
    assert m.dims == (1, 2, 1)
    assert decompose(m) == b
    empty = realize(Barcode({}), 4)
    assert empty.dims == (0, 0, 0, 0)
    points = realize(Barcode({(0, 1): 3}), 1)
    assert points.dims == (3,)
    with pytest.raises(DomainError):
        realize(Barcode({(0, 5): 1}), 3)


def test_size_bound_refuses_huge_chains():
    assert realize(Barcode({(0, 1): 1000}), 2).dims == (1000, 0)
    for make in (
        lambda: realize(Barcode({(0, 1): 2**64}), 1),
        lambda: realize(Barcode({(0, 1): 1001}), 2),
        lambda: realize(Barcode({}), 10**8),
        lambda: chain_module([2**64], []),
        lambda: chain_module([1001, 0], [[]]),
    ):
        with pytest.raises(DomainError) as exc:
            make()
        assert exc.value.kind == "chain_too_large"


def test_realize_keeps_block_order_in_time_linear_in_length_plus_output():
    # one block per unit of multiplicity, in the order of the bars:
    # [0,2), [0,3), [1,3), [1,3)
    m = realize(Barcode({(0, 2): 1, (0, 3): 1, (1, 3): 2}), 3)
    assert m.dims == (2, 4, 3)
    assert m.ints == (((1, 0), (0, 1), (0, 0), (0, 0)), ((0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)))
    # the squared dimensions sum to exactly the size bound; a scan of every
    # block at every slot takes about 20 s at this length on a 2-vCPU host
    start = time.perf_counter()
    m = realize(Barcode({(0, 1): 1000}), 2 * 10**5)
    assert time.perf_counter() - start < 5
    assert m.dims[:2] == (1000, 0) and m.length == 2 * 10**5


def random_barcode(rng, max_bars=20, max_len=12):
    length = rng.randint(1, max_len)
    bars = {}
    for _ in range(rng.randint(0, max_bars)):
        i = rng.randrange(length)
        j = rng.randint(i + 1, length)
        bars[(i, j)] = bars.get((i, j), 0) + rng.randint(1, 2)
    return Barcode(bars), length


def random_chain(rng, max_dim=4, max_len=6, field=QQ):
    length = rng.randint(1, max_len)
    dims = [rng.randint(0, max_dim) for _ in range(length)]
    maps = []
    for i in range(length - 1):
        maps.append(
            [
                [rng.randint(-3, 3) for _ in range(dims[i])]
                for _ in range(dims[i + 1])
            ]
        )
    return chain_module(dims, maps, field)


def test_round_trip_random():
    rng = subseed(30)
    for _ in range(120):
        b, length = random_barcode(rng)
        assert decompose(realize(b, length)) == b


def test_decompose_builds_no_combination(monkeypatch):
    """Bars are read from the pivots alone: with the method that builds
    vanishing combinations refusing, decompose returns the barcodes it
    returns without the fault, over QQ and F_p and with deaths by
    dependency, while a kernel, which reads its combinations, still calls
    it."""
    from ordspec import FpInterval, FpModule, FpMorphism, INF, Coord, kernel, linalg

    def refuse(*args):
        raise AssertionError("a combination was built")

    rng = subseed(38)
    ms = [random_chain(rng, field=field) for field in (QQ, Field(5)) for _ in range(30)]
    ms.append(chain_module([2, 1], [_mat([[1, 1]])]))
    expected = [decompose(m) for m in ms]
    ray = FpInterval(Coord(0), INF)
    summing = FpMorphism(FpModule((ray, ray)), FpModule((ray,)), {(0, 0): F(1), (1, 0): F(1)})
    monkeypatch.setattr(linalg.Echelon, "_combination", refuse)
    assert [decompose(m) for m in ms] == expected
    assert expected[-1] == Barcode({(0, 1): 1, (0, 2): 1})
    with pytest.raises(AssertionError, match="^a combination was built$"):
        kernel(summing)


def test_dimension_conservation_and_monotonicity():
    rng = subseed(31)
    for _ in range(60):
        m = random_chain(rng)
        b = decompose(m)
        assert b.as_dict() == barcode_by_rank_table(m)
        for t in range(m.length):
            assert b.total_at(t) == m.dims[t]
        for i in range(m.length):
            for j in range(i, m.length - 1):
                assert rank_invariant(m, i, j) >= rank_invariant(m, i, j + 1)
                if i > 0:
                    assert rank_invariant(m, i - 1, j) <= rank_invariant(m, i, j)


def test_isomorphism_invariance_under_basis_change():
    rng = subseed(32)
    for _ in range(40):
        m = random_chain(rng, max_dim=4, max_len=6)
        before = decompose(m)
        assert before.as_dict() == barcode_by_rank_table(m)
        bases = []
        for d in m.dims:
            mat, inv = random_invertible_int_matrix(rng, d)
            ident = mat_mul(QQ, mat, inv)
            assert all(
                ident[i][j] == (1 if i == j else 0) for i in range(d) for j in range(d)
            )
            bases.append((mat, inv))
        new_maps = []
        for i in range(m.length - 1):
            conj = mat_mul(
                QQ, bases[i + 1][0], mat_mul(QQ, m.maps[i], bases[i][1])
            )
            new_maps.append(conj)
        conjugated = chain_module(m.dims, new_maps, QQ)
        assert decompose(conjugated) == before


def test_prime_field_cross_check():
    f5 = Field(5)
    rng = subseed(33)
    for _ in range(25):
        b, length = random_barcode(rng, max_bars=6, max_len=6)
        m_q = realize(b, length, QQ)
        m_p = realize(b, length, f5)
        assert decompose(m_p) == decompose(m_q) == b
    for _ in range(40):
        m = random_chain(rng, field=f5)
        assert decompose(m).as_dict() == barcode_by_rank_table(m)


def test_rank_agrees_with_independent_gaussian():
    rng = subseed(34)
    for _ in range(40):
        m = random_chain(rng, max_dim=3, max_len=5)
        for i in range(m.length):
            for j in range(i, m.length):
                d = m.dims[i]
                comp = [[int(r == c) for c in range(d)] for r in range(d)]
                for t in range(i, j):
                    comp = mat_mul(QQ, m.maps[t], comp)
                assert rank_invariant(m, i, j) == frac_rank(comp)


def _modp_product(a, b, p, n):
    """a times b mod p, where b has n columns."""
    return [[sum(x * b[t][j] for t, x in enumerate(row)) % p for j in range(n)] for row in a]


def test_rank_invariant_and_is_flat_over_prime_fields():
    """Ranks of composites and flatness over F_5 and F_(2^31-1), against an
    independent elimination mod p of composites built here."""
    rng = subseed(35)
    for p in (5, 2**31 - 1):
        field = Field(p)
        flat_seen = set()
        for _ in range(40):
            m = random_chain(rng, max_dim=4, max_len=5, field=field)
            for i in range(m.length):
                d = m.dims[i]
                comp = [[int(r == c) for c in range(d)] for r in range(d)]
                for j in range(i, m.length):
                    if j > i:
                        comp = _modp_product(m.maps[j - 1], comp, p, d)
                    assert rank_invariant(m, i, j) == modp_rank(comp, p), (p, m, i, j)
            flat = all(modp_rank(m.maps[t], p) == m.dims[t] for t in range(m.length - 1))
            assert is_flat(m) is flat, (p, m)
            flat_seen.add(flat)
        assert flat_seen == {True, False}


_PRIMES = (2, 3, 5, 7, 11, 13)


def random_rational_chain(rng, max_dim=4, max_len=6):
    """A QQ chain module whose map t has entries with denominators 1 and the
    t-th prime, so that maps need different denominators."""
    length = rng.randint(1, max_len)
    dims = [rng.randint(0, max_dim) for _ in range(length)]
    maps = [
        [
            [Fraction(rng.randint(-4, 4), rng.choice((1, _PRIMES[t]))) for _ in range(dims[t])]
            for _ in range(dims[t + 1])
        ]
        for t in range(length - 1)
    ]
    return chain_module(dims, maps, QQ)


def test_rational_entries_against_oracles():
    """Integer storage with one denominator per map: decompose, every rank
    pair and is_flat against oracles that read the exact rational maps.  The
    last module has a distinct 21-digit denominator per entry, so that its
    denominators' lcm has hundreds of digits."""
    rng = subseed(36)
    modules = [random_rational_chain(rng) for _ in range(80)]
    modules.append(chain_module(
        [4, 4, 3],
        [
            [[Fraction(rng.randint(-9, 9), 10**20 + 1 + 4 * r + c) for c in range(4)] for r in range(4)],
            [[Fraction(rng.randint(-9, 9), 10**20 + 7 + 4 * r + c) for c in range(4)] for r in range(3)],
        ],
        QQ,
    ))
    assert len(str(modules[-1].dens[0])) > 200
    flat_seen = set()
    mixed_denominators = 0
    for m in modules:
        mixed_denominators += len({d for d in m.dens if d > 1}) > 1
        assert decompose(m).as_dict() == barcode_by_rank_table(m)
        for i in range(m.length):
            d = m.dims[i]
            comp = [[Fraction(int(r == c)) for c in range(d)] for r in range(d)]
            for j in range(i, m.length):
                if j > i:
                    comp = mat_mul(QQ, m.maps[j - 1], comp)
                assert rank_invariant(m, i, j) == frac_rank(comp), (m, i, j)
        flat = all(frac_rank(m.maps[t]) == m.dims[t] for t in range(m.length - 1))
        assert is_flat(m) is flat, m
        flat_seen.add(flat)
    assert flat_seen == {True, False}
    assert mixed_denominators > 10


def test_decompose_invariant_under_scaling_one_map():
    rng = subseed(37)
    for _ in range(60):
        m = random_rational_chain(rng)
        if m.length < 2:
            continue
        t = rng.randrange(m.length - 1)
        c = Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 9))
        maps = [list(mat) for mat in m.maps]
        maps[t] = [[c * v for v in row] for row in maps[t]]
        assert decompose(chain_module(m.dims, maps, QQ)) == decompose(m)


def test_chain_json_round_trip_is_byte_identical():
    doc = {
        "dims": [2, 2, 1, 1],
        "maps": [[["-3/4", "5/6"], ["0", "7"]], [["1/2", "-1"]], [["0"]]],
    }
    text = json.dumps(doc)
    assert json.dumps(encode_chain(decode_chain(json.loads(text), QQ))) == text
    f7 = Field(7)
    doc7 = {"dims": [2, 1], "maps": [[["3", "0"]]]}
    assert json.dumps(encode_chain(decode_chain(doc7, f7))) == json.dumps(doc7)


def _reachable(obj):
    """Every object reachable from obj by references, types left out."""
    seen, stack = set(), [obj]
    while stack:
        o = stack.pop()
        if id(o) in seen or isinstance(o, type):
            continue
        seen.add(id(o))
        yield o
        stack.extend(gc.get_referents(o))


def test_rational_chain_keeps_no_fraction_per_entry():
    """A QQ chain module holds integer matrices and one denominator per map;
    the exact entries exist only when ``maps`` is read."""
    m = decode_chain({"dims": [2, 2], "maps": [[["-3/4", "5/6"], ["0", "7"]]]}, QQ)
    held = list(_reachable(m))
    assert any(o is m.ints for o in held)
    assert not [o for o in held if isinstance(o, Fraction)]
    assert m.ints == (((-9, 10), (0, 84)),) and m.dens == (12,)
    assert m.maps == (((Fraction(-3, 4), Fraction(5, 6)), (Fraction(0), Fraction(7))),)


def test_prime_field_entries_are_reduced():
    f7 = Field(7)
    m = chain_module([1, 1], [[[7]]], f7)
    assert m.maps == (((0,),),) and m == chain_module([1, 1], [[[0]]], f7)
    assert not is_flat(m) and rank_invariant(m, 0, 1) == 0
    assert chain_module([1, 1], [[[-1]]], f7).maps == (((6,),),)


def test_entries_that_are_not_rationals_are_refused():
    """Entries enter as every scalar does, through ``Field.scalar``."""
    with pytest.raises(DomainError) as exc:
        chain_module([1, 1], [[[0.5]]], QQ)
    assert exc.value.kind == "bad_scalar"
