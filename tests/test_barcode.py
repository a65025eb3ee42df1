from fractions import Fraction

import pytest

from ordspec import DomainError, Field, QQ, barcode, chain_module, decompose, rank_invariant, realize
from ordspec import linalg
from ordspec.jsonio import decode_chain, encode_barcode

from conftest import subseed
from oracles import barcode_by_rank_table, frac_rank, random_invertible_int_matrix


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
    b = barcode({(0, 2): 1, (1, 3): 1})
    m = realize(b, 3)
    assert m.dims == (1, 2, 1)
    assert decompose(m) == b
    empty = realize(barcode({}), 4)
    assert empty.dims == (0, 0, 0, 0)
    points = realize(barcode({(0, 1): 3}), 1)
    assert points.dims == (3,)
    with pytest.raises(DomainError):
        realize(barcode({(0, 5): 1}), 3)


def test_size_bound_refuses_huge_chains():
    assert realize(barcode({(0, 1): 1000}), 2).dims == (1000, 0)
    for make in (
        lambda: realize(barcode({(0, 1): 2**64}), 1),
        lambda: realize(barcode({(0, 1): 1001}), 2),
        lambda: realize(barcode({}), 10**8),
        lambda: chain_module([2**64], []),
        lambda: chain_module([1001, 0], [[]]),
    ):
        with pytest.raises(DomainError) as exc:
            make()
        assert exc.value.kind == "chain_too_large"


def random_barcode(rng, max_bars=20, max_len=12):
    length = rng.randint(1, max_len)
    bars = {}
    for _ in range(rng.randint(0, max_bars)):
        i = rng.randrange(length)
        j = rng.randint(i + 1, length)
        bars[(i, j)] = bars.get((i, j), 0) + rng.randint(1, 2)
    return barcode(bars), length


def random_chain(rng, max_dim=4, max_len=6, field=QQ):
    length = rng.randint(1, max_len)
    dims = [rng.randint(0, max_dim) for _ in range(length)]
    maps = []
    for i in range(length - 1):
        maps.append(
            [
                [field.of_int(rng.randint(-3, 3)) for _ in range(dims[i])]
                for _ in range(dims[i + 1])
            ]
        )
    return chain_module(dims, maps, field)


def test_round_trip_random():
    rng = subseed(30)
    for _ in range(120):
        b, length = random_barcode(rng)
        assert decompose(realize(b, length)) == b


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
            ident = linalg.mat_mul(QQ, mat, inv)
            assert all(
                ident[i][j] == (1 if i == j else 0) for i in range(d) for j in range(d)
            )
            bases.append((mat, inv))
        new_maps = []
        for i in range(m.length - 1):
            conj = linalg.mat_mul(
                QQ, bases[i + 1][0], linalg.mat_mul(QQ, m.map_matrix(i), bases[i][1])
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
                comp = linalg.identity(QQ, m.dims[i])
                for t in range(i, j):
                    comp = linalg.mat_mul(QQ, m.map_matrix(t), comp)
                assert rank_invariant(m, i, j) == frac_rank(comp)
