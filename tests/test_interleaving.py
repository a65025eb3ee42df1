from fractions import Fraction

import pytest

from ordspec import (
    Coord,
    DENSE_RATIONAL_WITH_CUTS,
    DENSE_REAL,
    DistanceBracket,
    DomainError,
    DPoint,
    FiniteChain,
    Flavor,
    FpInterval,
    INF,
    TOP_IDEAL,
    ball,
    brute_force_distance,
    complement,
    distance,
    is_inf,
    closure_all_strategies,
    full_set,
    is_closed,
    is_interleaved,
    member,
    principal_at,
    shift_ideal,
    shift_interval,
    singleton,
    strict_at,
    union,
)

from conftest import subseed
from oracles import brutal_is_interleaved, scan_distance

M = DENSE_REAL


def P(x):
    return principal_at(x)


def S(x):
    return strict_at(x)


def test_shift_examples():
    assert shift_interval(M, FpInterval(Coord(0), Coord(2)), 1) == FpInterval(
        Coord(-1), Coord(1)
    )
    assert shift_interval(M, FpInterval(Coord(0), INF), Fraction(1, 2)) == FpInterval(
        Coord(Fraction(-1, 2)), INF
    )
    x = Coord(Fraction(7, 3))
    assert shift_ideal(M, P(x), Fraction(1, 3)) == P(Coord(2))
    assert shift_ideal(M, TOP_IDEAL, 5) == TOP_IDEAL
    with pytest.raises(DomainError):
        shift_ideal(FiniteChain(3), P(1), 1)
    with pytest.raises(DomainError):
        shift_ideal(M, P(0), -1)


def test_is_interleaved_examples():
    assert is_interleaved(M, P(0), P(1), 1) is True
    assert is_interleaved(M, P(0), P(1), Fraction(1, 2)) is False
    assert is_interleaved(M, S(0), P(0), 0) is False
    assert is_interleaved(M, S(0), P(0), Fraction(1, 64)) is True
    assert is_interleaved(M, TOP_IDEAL, TOP_IDEAL, 0) is True
    assert is_interleaved(M, TOP_IDEAL, P(0), 100) is False


def test_is_interleaved_monotone_in_eps():
    rng = subseed(60)
    for _ in range(150):
        i = _random_point(rng)
        j = _random_point(rng)
        eps = Fraction(rng.randint(0, 16), 4)
        if is_interleaved(M, i, j, eps):
            assert is_interleaved(M, i, j, eps + Fraction(rng.randint(0, 8), 8))
    # along a whole grid of eps, at rational and surd points under both dense
    # models: once interleaved, always interleaved, which the bisection of
    # brute_force_distance relies on
    step = Fraction(1, 8)
    for model in (DENSE_REAL, DENSE_RATIONAL_WITH_CUTS):
        for _ in range(60):
            i, j = _surd_pair(rng, model)
            answers = [is_interleaved(model, i, j, k * step) for k in range(97)]
            assert answers == sorted(answers), (i, j)


def _random_point(rng, allow_inf=True):
    if allow_inf and rng.random() < 0.1:
        return TOP_IDEAL
    c = Coord(Fraction(rng.randint(-32, 32), 4))
    return P(c) if rng.random() < 0.5 else S(c)


def test_is_interleaved_matches_commuting_square_oracle():
    rng = subseed(61)
    for _ in range(250):
        i = _random_point(rng)
        j = _random_point(rng)
        eps = Fraction(rng.randint(0, 20), 4)
        got = is_interleaved(M, i, j, eps)
        want = brutal_is_interleaved(
            i.coord, i.flavor is Flavor.PRINCIPAL, j.coord, j.flavor is Flavor.PRINCIPAL, eps
        )
        assert got == want, (i, j, eps)


def test_distance_examples():
    assert distance(M, P(0), S(1)) == Coord(1)
    assert distance(M, TOP_IDEAL, P(0)) is INF
    assert distance(M, P(0), TOP_IDEAL) is INF
    x = Coord(Fraction(9, 4))
    assert distance(M, S(x), P(x)) == Coord(0)
    assert distance(M, TOP_IDEAL, TOP_IDEAL) == Coord(0)


def test_distance_pseudometric_axioms():
    rng = subseed(62)
    pts = [_random_point(rng) for _ in range(40)]
    for p in pts:
        assert distance(M, p, p) == Coord(0)
    for _ in range(500):
        p, q, r = (rng.choice(pts) for _ in range(3))
        dpq, dqp = distance(M, p, q), distance(M, q, p)
        assert dpq == dqp
        dpr, dqr = distance(M, p, r), distance(M, q, r)
        if is_inf(dpq) or is_inf(dqr):
            continue  # an infinite leg absorbs the bound
        if is_inf(dpr):
            assert False, "finite legs cannot bound an infinite distance"
        assert dpr <= dpq + dqr


def test_ball_examples():
    b = ball(M, P(0), 1)
    assert not member(M, b, P(-1)) and not member(M, b, S(-1))
    assert not member(M, b, S(1)) and not member(M, b, P(1))
    assert member(M, b, P(0)) and member(M, b, S(0))
    assert member(M, b, S(Fraction(1, 2)))
    assert ball(M, TOP_IDEAL, 5) == singleton(M, TOP_IDEAL)
    assert ball(M, S(0), 1) == ball(M, P(0), 1)
    with pytest.raises(DomainError):
        ball(M, P(0), 0)


def test_ball_membership_is_distance_below_radius():
    rng = subseed(63)
    for _ in range(120):
        p = _random_point(rng)
        eps = Fraction(rng.randint(1, 12), 4)
        b = ball(M, p, eps)
        for _ in range(5):
            q = _random_point(rng)
            d = distance(M, p, q)
            inside = d < Coord(eps)
            assert member(M, b, q) == inside, (p, q, eps)


def test_ball_complements_and_the_top_point():
    rng = subseed(64)
    for _ in range(50):
        p = _random_point(rng, allow_inf=False)
        eps = Fraction(rng.randint(1, 12), 4)
        assert is_closed(M, complement(M, ball(M, p, eps)))
    comp = complement(M, ball(M, TOP_IDEAL, 3))
    assert not is_closed(M, comp)
    assert closure_all_strategies(M, comp) == full_set(M)
    # the failure of openness at the top, seen through the metric: distance
    # zero pairs that the order still distinguishes
    for x in (Coord(0), Coord(Fraction(5, 3))):
        assert distance(M, S(x), P(x)) == Coord(0)
        assert S(x) != P(x)


def test_brute_force_distance_examples():
    b = brute_force_distance(M, P(0), S(1), Fraction(1, 64))
    assert not is_inf(b.upper)
    assert b.upper - b.lower <= Coord(Fraction(1, 64))
    assert b.lower <= Coord(1) <= b.upper
    same = brute_force_distance(M, P(3), P(3), Fraction(1, 8))
    assert (same.lower, same.upper) == (Coord(0), Coord(0))
    assert brute_force_distance(M, TOP_IDEAL, P(0), Fraction(1, 8)) == DistanceBracket(INF, INF)
    # a step above 1 still reaches the first grid point past the cutoff
    assert brute_force_distance(M, P(0), S(Fraction(1, 2)), 2) == DistanceBracket(Coord(0), Coord(2))
    assert brute_force_distance(M, P(0), S(3), Fraction(5, 2)) == DistanceBracket(
        Coord(Fraction(5, 2)), Coord(5)
    )
    with pytest.raises(DomainError) as exc:
        brute_force_distance(M, P(0), P(10**6), Fraction(1, 1000))
    assert exc.value.kind == "scan_too_long"


@pytest.mark.parametrize(
    "step", [Fraction(1, 64), Fraction(3, 2), 2, Fraction(7, 2)], ids=["1/64", "3/2", "2", "7/2"]
)
def test_formula_within_every_bracket(step):
    rng = subseed(65)
    for _ in range(60):
        i = _random_point(rng)
        j = _random_point(rng)
        d = distance(M, i, j)
        b = brute_force_distance(M, i, j, step)
        assert b.lower <= d <= b.upper
        if is_inf(d):
            assert is_inf(b.lower)
        else:
            assert b.upper - b.lower <= Coord(step)


def _surd_point(rng, model):
    """An ideal at k/4 + c*sqrt(2)/8 (rational when c = 0) or the top ideal;
    under the rational model an ideal at a surd is strict."""
    if rng.random() < 0.05:
        return TOP_IDEAL
    c = rng.choice((0, 0, rng.randint(-4, 4)))
    x = Coord(Fraction(rng.randint(-16, 16), 4), Fraction(c, 8), 2)
    if model.is_member(x) and rng.random() < 0.5:
        return P(x)
    return S(x)


def _surd_pair(rng, model):
    """Two ideals from ``_surd_point``; half the time the second sits a
    rational distance from the first, so that surd pairs have a rational gap."""
    i = _surd_point(rng, model)
    if is_inf(i.coord) or rng.random() < 0.5:
        return i, _surd_point(rng, model)
    x = i.coord + Coord(Fraction(rng.randint(-24, 24), 8))
    if model.is_member(x) and rng.random() < 0.5:
        return i, P(x)
    return i, S(x)


@pytest.mark.parametrize(
    "step", [Fraction(1, 64), Fraction(3, 2), 2, Fraction(7, 2)], ids=["1/64", "3/2", "2", "7/2"]
)
@pytest.mark.parametrize("model", [DENSE_REAL, DENSE_RATIONAL_WITH_CUTS], ids=["dense", "dense-surd"])
def test_bisection_finds_the_bracket_of_the_scan(model, step):
    """The bisection of brute_force_distance gives the bracket of a scan of
    the same grid from k = 0, at rational and surd ideals of both flavors and
    the top; a pair with an irrational gap is refused."""
    rng = subseed(67)
    compared = 0
    for _ in range(80):
        i, j = _surd_pair(rng, model)
        if not is_inf(i.coord) and not is_inf(j.coord) and not (i.coord - j.coord).is_rational:
            with pytest.raises(DomainError) as exc:
                brute_force_distance(model, i, j, step)
            assert exc.value.kind == "irrational_gap"
            continue
        assert brute_force_distance(model, i, j, step) == scan_distance(model, i, j, step), (i, j)
        compared += 1
    assert compared > 40


@pytest.mark.parametrize("model", [DENSE_REAL, DENSE_RATIONAL_WITH_CUTS], ids=["dense", "dense-surd"])
def test_surd_distances_are_extended_coordinates(model):
    rng = subseed(66)
    step = Fraction(1, 8)
    brackets = 0
    for _ in range(400):
        p, q, r = (_surd_point(rng, model) for _ in range(3))
        d = distance(model, p, q)
        assert d == distance(model, q, p)
        if is_inf(p.coord) or is_inf(q.coord):
            assert (d is INF) == (p.coord != q.coord)
        else:
            x, y = p.coord, q.coord
            assert d == max(x - y, y - x) and d >= Coord(0)
        dpr, dqr = distance(model, p, r), distance(model, q, r)
        assert is_inf(dpr) or is_inf(d) or is_inf(dqr) or dpr <= d + dqr
        eps = Fraction(rng.randint(1, 24), 8)
        assert member(model, ball(model, p, eps), q) == (d < Coord(eps)), (p, q, eps)
        if is_inf(d) or d.is_rational:
            b = brute_force_distance(model, p, q, step)
            assert b.lower <= d <= b.upper
            brackets += 1
    assert brackets > 100


def test_distance_across_radicands_is_refused():
    with pytest.raises(DomainError) as exc:
        distance(M, P(Coord(0, 1, 2)), P(Coord(0, 1, 3)))
    assert exc.value.kind == "incompatible_radicands"
