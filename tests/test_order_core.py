from fractions import Fraction

import pytest

from ordspec import (
    Coord,
    DENSE_RATIONAL_WITH_CUTS,
    DENSE_REAL,
    DPoint,
    DomainError,
    FiniteChain,
    Flavor,
    IdealType,
    INF,
    Ordering,
    TOP_IDEAL,
    classify_ideal,
    cmp_d,
    contains,
    is_inf,
    principal_at,
    rational_between,
    strict_at,
)
from ordspec.order_core import validate_dpoint
from ordspec.spectrum import BOTTOM, Cut, cut_above, cut_below

from conftest import subseed
from oracles import random_fraction

SQRT2 = Coord(0, 1, 2)


def random_dpoint(rng, model, lo=-10, hi=10, allow_inf=True, surds=False):
    if allow_inf and rng.random() < 0.08:
        return TOP_IDEAL
    if surds and rng.random() < 0.3:
        c = Coord(Fraction(rng.randint(lo, hi)), Fraction(rng.randint(1, 3)), rng.choice([2, 3, 5]))
        return strict_at(c)
    c = Coord(random_fraction(rng, lo, hi))
    if rng.random() < 0.5 and model.is_member(c):
        return principal_at(c)
    return strict_at(c)


# ---------------------------------------------------------------------------
# cmp_d


def test_cmp_examples():
    m = DENSE_REAL
    assert cmp_d(m, strict_at(1), principal_at(1)) is Ordering.LESS
    assert cmp_d(m, principal_at(0), strict_at(1)) is Ordering.LESS
    assert cmp_d(m, principal_at(10**6), TOP_IDEAL) is Ordering.LESS


def _operators_agree_with_cmp(p, q, pq):
    """The comparison operators of DPoint say what cmp_d says."""
    assert (p < q) is (pq is Ordering.LESS)
    assert (p <= q) is (pq is not Ordering.GREATER)
    assert (p > q) is (pq is Ordering.GREATER)
    assert (p >= q) is (pq is not Ordering.LESS)
    assert (p == q) is (pq is Ordering.EQUAL)


def test_cmp_total_order_on_random_triples():
    m = DENSE_RATIONAL_WITH_CUTS
    rng = subseed(20)
    points = [random_dpoint(rng, m, surds=True) for _ in range(60)]
    for _ in range(1000):
        p, q, r = rng.choice(points), rng.choice(points), rng.choice(points)
        pq, qp = cmp_d(m, p, q), cmp_d(m, q, p)
        assert pq.value == -qp.value  # antisymmetry
        if pq is Ordering.EQUAL:
            assert p.coord == q.coord and p.flavor == q.flavor
        qr, pr = cmp_d(m, q, r), cmp_d(m, p, r)
        if pq is not Ordering.GREATER and qr is not Ordering.GREATER:
            assert pr is not Ordering.GREATER  # transitivity
        # totality, and the answer is a member itself, not an equal value
        assert any(pq is o for o in (Ordering.LESS, Ordering.EQUAL, Ordering.GREATER))
        _operators_agree_with_cmp(p, q, pq)
    # on a finite chain every ideal is principal, ordered as its element
    chain = FiniteChain(5)
    for a in range(5):
        for b in range(5):
            p, q = principal_at(a), principal_at(b)
            pq = cmp_d(chain, p, q)
            assert pq is (Ordering.LESS if a < b else Ordering.GREATER if a > b else Ordering.EQUAL)
            _operators_agree_with_cmp(p, q, pq)


def _random_ext_coord(rng):
    """INF, a surd with radicand 2 or 3 or a rational, drawn from few values,
    so that equal coordinates recur as distinct objects."""
    r = rng.random()
    if r < 0.15:
        return INF
    rat = random_fraction(rng, -2, 2, max_den=2)
    if r < 0.45:
        return Coord(rat, Fraction(rng.choice((-1, 1)), rng.randint(1, 2)), rng.choice((2, 3)))
    return Coord(rat)


def _assert_one_order(values):
    """Each operator says what the sign of _cmp says, and _cmp is antisymmetric."""
    for a in values:
        for b in values:
            s = a._cmp(b)
            assert s in (-1, 0, 1) and b._cmp(a) == -s
            assert (a < b, a <= b, a > b, a >= b, a == b) == (s < 0, s <= 0, s > 0, s >= 0, s == 0)


def test_one_order_on_coordinates_ideals_and_cuts():
    rng = subseed(23)
    for model in (DENSE_REAL, DENSE_RATIONAL_WITH_CUTS):
        xs = [_random_ext_coord(rng) for _ in range(30)]
        ideals = [DPoint(x, Flavor.STRICT) for x in xs]
        ideals += [DPoint(x, Flavor.PRINCIPAL) for x in xs if not is_inf(x) and model.is_member(x)]
        _assert_one_order(xs)
        _assert_one_order(ideals)
        # cut_below and cut_above embed the ideals into the cuts, and a cut
        # built directly is the shared one
        for cut in (cut_below, lambda p: cut_above(model, p)):
            shared = [cut(p) for p in ideals]
            direct = [Cut(c.coord, c.level) for c in shared]
            _assert_one_order(shared + direct + [BOTTOM, Cut(None, 0)])
            for p, a, a2 in zip(ideals, shared, direct):
                assert BOTTOM < a and a is a2
                for q, b, b2 in zip(ideals, shared, direct):
                    assert a._cmp(b) == a2._cmp(b) == a._cmp(b2) == p._cmp(q)
        for p in ideals:
            assert cut_below(p) < cut_above(model, p)


# ---------------------------------------------------------------------------
# contains


def test_contains_examples():
    m = DENSE_REAL
    assert contains(m, principal_at(0), Coord(0)) is True
    assert contains(m, strict_at(0), Coord(0)) is False
    assert contains(m, TOP_IDEAL, Coord(-999)) is True


def test_contains_rejects_non_members():
    m = DENSE_RATIONAL_WITH_CUTS
    with pytest.raises(DomainError):
        contains(m, TOP_IDEAL, SQRT2)


def test_contains_downward_closed():
    m = DENSE_RATIONAL_WITH_CUTS
    rng = subseed(21)
    for _ in range(200):
        p = random_dpoint(rng, m, surds=True)
        t = Coord(random_fraction(rng, -12, 12))
        s = t - Coord(random_fraction(rng, 0, 5))
        if contains(m, p, t):
            assert contains(m, p, s)


def test_cmp_agrees_with_membership_sampling():
    # strictly smaller in the order means proper subset of downsets
    m = DENSE_RATIONAL_WITH_CUTS
    rng = subseed(22)
    eps = Fraction(1, 1000)
    for _ in range(300):
        p = random_dpoint(rng, m, surds=True)
        q = random_dpoint(rng, m, surds=True)
        samples = set()
        for r in (p, q):
            if not r.coord is INF:
                c = r.coord
                for delta in (Fraction(0), eps, -eps):
                    t = c + Coord(delta)
                    if m.is_member(t):
                        samples.add(t)
        samples.add(Coord(-100))
        rel = cmp_d(m, p, q)
        if rel is Ordering.LESS:
            assert all(contains(m, q, t) for t in samples if contains(m, p, t))
            # an explicit element of the difference: the generator when q is
            # principal, otherwise a member strictly between the coordinates
            if q.flavor is Flavor.PRINCIPAL:
                witness = q.coord
            elif q.coord is INF:
                witness = p.coord + Coord(1) if p.coord is not INF else Coord(0)
                if not m.is_member(witness):
                    witness = Coord(p.coord.floor() + 1)
            else:
                witness = rational_between(p.coord, q.coord)
            assert contains(m, q, witness) and not contains(m, p, witness)
        elif rel is Ordering.EQUAL:
            assert all(contains(m, p, t) == contains(m, q, t) for t in samples)


# ---------------------------------------------------------------------------
# classify_ideal


def test_classify_examples():
    assert classify_ideal(DENSE_REAL, principal_at(3)) is IdealType.TYPE1
    assert classify_ideal(DENSE_REAL, strict_at(3)) is IdealType.TYPE2
    assert classify_ideal(DENSE_RATIONAL_WITH_CUTS, strict_at(SQRT2)) is IdealType.TYPE3
    assert classify_ideal(DENSE_REAL, TOP_IDEAL) is IdealType.TYPE3
    # in the all-coords model the surd cut has its supremum inside T
    assert classify_ideal(DENSE_REAL, strict_at(SQRT2)) is IdealType.TYPE2


def test_type3_intersection_sampling():
    # a type-3 ideal equals the intersection of the principal ideals of the
    # complement, including witnesses arbitrarily close above the cut: here
    # rational approximants within 1e-6 of the surd
    m = DENSE_RATIONAL_WITH_CUTS
    rng = subseed(23)
    denom = 10**8
    cuts = [strict_at(Coord(Fraction(n), Fraction(1), d)) for n, d in
            [(0, 2), (1, 2), (-2, 3), (0, 5), (3, 2)]]
    for p in cuts:
        assert classify_ideal(m, p) is IdealType.TYPE3
        scaled = Coord(p.coord.rat * denom, p.coord.coef * denom, p.coord.rad)
        base = scaled.floor() + 1
        witnesses = [Coord(Fraction(base + k, denom)) for k in range(50)]
        for w in witnesses:
            assert p.coord < w <= p.coord + Coord(Fraction(1, 10**6))
            assert not contains(m, p, w)
        for _ in range(50):
            t = Coord(random_fraction(rng, -8, 8))
            in_ideal = contains(m, p, t)
            in_all_principals = all(contains(m, principal_at(w), t) for w in witnesses)
            assert in_ideal == in_all_principals


# ---------------------------------------------------------------------------
# models and validation


def test_finite_chain_points():
    chain = FiniteChain(4)
    assert classify_ideal(chain, principal_at(2)) is IdealType.TYPE1
    assert contains(chain, principal_at(2), Coord(2))
    assert not contains(chain, principal_at(2), Coord(3))
    with pytest.raises(DomainError):
        validate_dpoint(chain, strict_at(2))
    with pytest.raises(DomainError):
        validate_dpoint(chain, TOP_IDEAL)
    with pytest.raises(DomainError):
        validate_dpoint(chain, principal_at(Fraction(1, 2)))
    with pytest.raises(DomainError):
        validate_dpoint(chain, principal_at(9))


def test_dense_surd_membership():
    m = DENSE_RATIONAL_WITH_CUTS
    validate_dpoint(m, strict_at(SQRT2))
    with pytest.raises(DomainError):
        validate_dpoint(m, DPoint(SQRT2, Flavor.PRINCIPAL))
    with pytest.raises(DomainError):
        DPoint(INF, Flavor.PRINCIPAL)


def test_is_member_answers_for_every_extended_coordinate():
    # one question to every model: an element of T or not, INF never,
    # and a principal ideal exists exactly at the elements
    rng = subseed(24)
    xs = [INF, Coord(-1), Coord(0), Coord(4), Coord(5), Coord(Fraction(1, 2)), Coord(0, 1, 2), Coord(1, -1, 3)]
    xs += [Coord(rng.randint(-8, 8)) for _ in range(20)]
    xs += [Coord(Fraction(rng.randint(-40, 40), rng.randint(2, 7))) for _ in range(20)]
    xs += [Coord(random_fraction(rng, -5, 5), random_fraction(rng, -3, 3), rng.choice([2, 3])) for _ in range(20)]
    for model in (FiniteChain(5), DENSE_REAL, DENSE_RATIONAL_WITH_CUTS):
        for x in xs:
            answer = model.is_member(x)
            assert answer is True or answer is False, (model, x)
            if is_inf(x):
                assert answer is False, model
                continue
            try:
                validate_dpoint(model, principal_at(x))
            except DomainError:
                valid = False
            else:
                valid = True
            assert valid is answer, (model, x)
    for model in (DENSE_REAL, DENSE_RATIONAL_WITH_CUTS):
        assert classify_ideal(model, TOP_IDEAL) is IdealType.TYPE3
