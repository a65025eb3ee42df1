from fractions import Fraction

import pytest

from ordspec import DomainError, Field, QQ
from ordspec.errors import SchemaError
from ordspec import linalg

from conftest import subseed
from oracles import frac_nullspace, frac_rank, integer_rows, mat_mul, modp_nullspace, modp_rank


def _random_matrix(rng, m, n, frac=True):
    if frac:
        return [
            [Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(n)]
            for _ in range(m)
        ]
    return [[Fraction(rng.randint(-5, 5)) for _ in range(n)] for _ in range(m)]


def test_rank_matches_independent_gaussian():
    rng = subseed(10)
    for _ in range(120):
        m, n = rng.randint(0, 5), rng.randint(0, 5)
        a = _random_matrix(rng, m, n, frac=rng.random() < 0.5)
        assert linalg.rank(QQ, integer_rows(a)) == frac_rank(a)


def test_rank_prime_field():
    f5 = Field(5)
    a = [[5, 1], [0, 10]]
    # both diagonal entries vanish mod 5
    assert linalg.rank(f5, a) == 1
    assert linalg.rank(QQ, integer_rows([[Fraction(5), Fraction(1)], [Fraction(0), Fraction(10)]])) == 2


def _columns(a, n, keys=None):
    """The n columns of the dense matrix a as sparse vectors, keyed by keys."""
    keys = keys or range(n)
    return {keys[j]: {i: row[j] for i, row in enumerate(a) if row[j]} for j in range(n)}


def _dense(vec, n, keys=None):
    keys = keys or range(n)
    return [vec.get(keys[j], 0) for j in range(n)]


def test_nullspace_vectors_annihilate():
    rng = subseed(11)
    for _ in range(80):
        m, n = rng.randint(1, 5), rng.randint(1, 5)
        a = _random_matrix(rng, m, n)
        basis = [_dense(v, n) for v in linalg.nullspace(QQ, _columns(a, n))]
        assert len(basis) == n - linalg.rank(QQ, integer_rows(a))
        for v in basis:
            assert all(row[0] == 0 for row in mat_mul(QQ, a, [[x] for x in v]))
        if len(basis) > 1:
            cols = [[v[i] for v in basis] for i in range(n)]
            assert linalg.rank(QQ, integer_rows(cols)) == len(basis)


def _rank_deficient(rng, m, n, r, entry):
    """An m x n matrix of rank at most r, as a product of m x r and r x n."""
    left = [[entry() for _ in range(r)] for _ in range(m)]
    right = [[entry() for _ in range(n)] for _ in range(r)]
    return [[sum(left[i][k] * right[k][j] for k in range(r)) for j in range(n)] for i in range(m)]


def test_nullspace_is_the_reduced_echelon_basis():
    """Vector for vector, not only the same span: the basis read off the
    reduced row echelon form is unique.  Column keys are labels: the
    vectors come keyed like the columns, with the columns taken in their
    given order, also under keys that are neither contiguous nor sorted."""
    rng = subseed(12)
    for _ in range(80):
        m, n = rng.randint(1, 6), rng.randint(1, 6)
        r = rng.randint(0, min(m, n) - 1)
        a = _rank_deficient(rng, m, n, r, lambda: Fraction(rng.randint(-3, 3), rng.randint(1, 3)))
        want = frac_nullspace(a, n)
        assert [_dense(v, n) for v in linalg.nullspace(QQ, _columns(a, n))] == want, a
        keys = [5 * (n - j) for j in range(n)]
        basis = linalg.nullspace(QQ, _columns(a, n, keys))
        assert [_dense(v, n, keys) for v in basis] == want, (a, keys)
        assert all(0 not in v.values() for v in basis)


@pytest.mark.parametrize("field", [QQ, Field(5), Field(2**31 - 1)], ids=["QQ", "F5", "F2^31-1"])
def test_echelon_combinations_vanish_and_match_the_oracle(field):
    """``Echelon.add`` returns None for a vector independent of those before
    it, else a callable that builds its vanishing combination: coefficient 1
    at the vector's tag, a combination of the vectors added so far that
    sums to zero, and the reduced-echelon nullspace vector of the oracle
    for that free column.  Building it later, after more vectors joined,
    gives the same combination.  Over QQ the entries have denominators of
    20 digits."""
    rng = subseed(14)
    p = field.p
    if p is None:
        def entry():
            return Fraction(rng.randint(-10**20, 10**20), rng.randint(10**19, 10**20))
    else:
        def entry():
            return rng.randrange(p)
    for _ in range(40):
        m, n = rng.randint(1, 6), rng.randint(1, 7)
        a = _rank_deficient(rng, m, n, rng.randint(0, min(m, n)), entry)
        if p is not None:
            a = [[v % p for v in row] for row in a]
        cols = _columns(a, n)
        tags = [("column", j) for j in range(n)]
        vectors = {tag: cols[j] for j, tag in enumerate(tags)}
        echelon = linalg.Echelon(field)
        found = []
        for j, tag in enumerate(tags):
            build = echelon.add(cols[j], tag)
            if build is not None:
                found.append((tag, build, build()))
        want = frac_nullspace(a, n) if p is None else modp_nullspace(a, n, p)
        assert len(found) == len(want), a
        for (tag, build, early), vec in zip(found, want):
            comb = build()
            assert comb == early and comb[tag] == 1 and 0 not in comb.values()
            assert linalg.combine(field, comb, vectors) == {}
            assert [comb.get(t, 0) for t in tags] == vec, (a, tag)


def test_deep_combination_builds_without_recursion():
    """A combination whose rows each reduced against the row before it,
    1300 rows deep, is built with no RecursionError: vector k is
    e_{k-1} + e_{k+1} (e_0 + e_1 for k = 0), so row k reduces against row
    k - 1, and their sum reduces to zero with coefficient -1 at every one
    of them."""
    field = Field(2**31 - 1)
    n = 1300
    vectors = {k: {max(k - 1, 0): 1, k + 1: 1} for k in range(n)}
    echelon = linalg.Echelon(field)
    assert all(echelon.add(vec, k) is None for k, vec in vectors.items())
    total = linalg.combine(field, dict.fromkeys(vectors, 1), vectors)
    comb = echelon.add(total, "sum")()
    assert comb == {"sum": 1, **dict.fromkeys(vectors, field.p - 1)}


def test_rank_prime_field_matches_modp_oracle():
    rng = subseed(13)
    for p in (2, 5, 2**31 - 1):
        f = Field(p)
        for _ in range(60):
            m, n = rng.randint(0, 6), rng.randint(1, 6)
            r = rng.randint(0, min(m, n))
            a = _rank_deficient(rng, m, n, r, lambda: rng.randrange(p))
            a = [[v % p for v in row] for row in a]
            assert linalg.rank(f, a) == modp_rank(a, p), (p, a)


def test_field_parse_and_inverse():
    f7 = Field(7)
    assert f7.parse("3/2") == (3 * pow(2, 5, 7)) % 7
    assert f7.parse("3/2") * 2 % 7 == 3
    with pytest.raises(DomainError):
        Field(6)
    with pytest.raises(DomainError):
        f7.parse("1/7")
    assert QQ.parse("-4/6") == Fraction(-2, 3)
    with pytest.raises(SchemaError):
        QQ.parse(True)


def test_large_primes_decided_or_refused():
    assert Field(10**18 + 3).p == 10**18 + 3
    with pytest.raises(DomainError) as exc:
        Field(10**18 + 1)
    assert exc.value.kind == "not_prime"
    # a strong pseudoprime to every prime base up to 37
    with pytest.raises(DomainError):
        Field(318665857834031151167461)
    with pytest.raises(DomainError) as exc:
        Field(2**89 - 1)
    assert exc.value.kind == "prime_too_large"
