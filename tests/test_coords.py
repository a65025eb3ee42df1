import math
import operator
from fractions import Fraction

import pytest

from ordspec import Coord, DomainError, INF
from ordspec.coords import rational_above, rational_below, rational_between

from conftest import subseed
from oracles import floor_by_search, rational_between_by_scan


def test_rational_comparisons_and_canonical_form():
    assert Coord(1) < Coord(Fraction(3, 2)) < Coord(2)
    assert Coord(Fraction(2, 4)) == Coord(Fraction(1, 2))
    assert Coord(Fraction(-7, 3)) < Coord(-2)


def test_surd_canonicalization():
    assert Coord(0, 1, 8) == Coord(0, 2, 2)
    assert Coord(0, 1, 4) == Coord(2)          # sqrt(4) collapses to rational
    assert Coord(1, 0, 0).is_rational
    assert Coord(0, 1, 12) == Coord(0, 2, 3)
    with pytest.raises(DomainError):
        Coord(0, 1, 1)
    with pytest.raises(DomainError):
        Coord(0, 1, -2)


def test_large_radicands_split_or_refuse():
    big = 10**18 + 3  # prime
    assert Coord(0, 1, big).rad == big
    assert Coord(0, 1, 4 * big) == Coord(0, 2, big)
    assert Coord(0, 1, 999983**2) == Coord(999983)
    assert Coord(0, 1, 999983 * 1000003).rad == 999983 * 1000003
    with pytest.raises(DomainError) as exc:
        Coord(0, 1, 2**64 + 1)
    assert exc.value.kind == "radicand_too_large"


def test_the_radicand_cache_is_bounded():
    """More distinct radicands than the cache holds leave it at its bound,
    and a refused radicand is not cached."""
    from ordspec.coords import split_radicand

    bound = split_radicand.cache_info().maxsize
    for n in range(10**6, 10**6 + bound + 100):
        split_radicand(n)
    assert split_radicand.cache_info().currsize <= bound
    split_radicand.cache_clear()
    with pytest.raises(DomainError):
        split_radicand(1)
    assert split_radicand.cache_info().currsize == 0


def test_surd_comparisons_match_floats():
    rng = subseed(1)
    rads = [2, 3, 5, 7]
    for _ in range(400):
        a = Coord(Fraction(rng.randint(-8, 8), rng.randint(1, 4)),
                  Fraction(rng.randint(-4, 4), rng.randint(1, 3)),
                  rng.choice(rads))
        b = Coord(Fraction(rng.randint(-8, 8), rng.randint(1, 4)),
                  Fraction(rng.randint(-4, 4), rng.randint(1, 3)),
                  rng.choice(rads))
        fa = float(a.rat) + float(a.coef) * math.sqrt(a.rad or 1)
        fb = float(b.rat) + float(b.coef) * math.sqrt(b.rad or 1)
        if abs(fa - fb) > 1e-9:
            assert (a < b) == (fa < fb), (a, b)


def test_equal_surds_detected_exactly():
    # sqrt(2)*3/2 written against sqrt(8)*3/4
    assert Coord(5, Fraction(3, 2), 2) == Coord(5, Fraction(3, 4), 8)
    assert not Coord(0, 1, 2) == Coord(0, 1, 3)


def test_infinity_is_maximum():
    assert Coord(10**9) < INF
    assert INF <= INF and INF == INF
    assert not INF < Coord(0)
    assert INF > Coord(0, 7, 5)


def test_compares_with_another_kind_raise_in_both_orders():
    for value in (INF, Coord(0), Coord(0, 1, 2)):
        for other in (5, Fraction(1, 2), "a", None):
            for op in (operator.lt, operator.le, operator.gt, operator.ge):
                with pytest.raises(TypeError):
                    op(value, other)
                with pytest.raises(TypeError):
                    op(other, value)


def test_ordered_families_compare_only_with_themselves():
    from ordspec.order_core import principal_at, strict_at
    from ordspec.spectrum import BOTTOM, TOP, shared_cut

    ops = (operator.lt, operator.le, operator.gt, operator.ge)
    mirrored = (operator.gt, operator.ge, operator.lt, operator.le)
    families = {
        "Coord": [Coord(0), Coord(0, 1, 2)],
        "INF": [INF],
        "DPoint": [principal_at(0), strict_at(0), strict_at(INF)],
        "Cut": [BOTTOM, shared_cut(Coord(0), 1), TOP],
    }
    for name, values in families.items():
        for other_name, others in families.items():
            if name == other_name or {name, other_name} == {"Coord", "INF"}:
                # one family: a total order, in either operand order
                for a in values:
                    for b in others:
                        assert [op(a, b) for op in ops] == [op(b, a) for op in mirrored]
                        assert (a < b) + (a == b) + (a > b) == 1
                continue
            for a in values:
                for b in others:
                    for op in ops:
                        with pytest.raises(TypeError):
                            op(a, b)
                        with pytest.raises(TypeError):
                            op(b, a)
    assert sorted([INF, Coord(1), Coord(0, 1, 2)]) == [Coord(1), Coord(0, 1, 2), INF]
    assert sorted(families["DPoint"]) == [strict_at(0), principal_at(0), strict_at(INF)]
    assert sorted(families["Cut"][::-1]) == families["Cut"]
    for mixed in ([Coord(1), principal_at(0)], [principal_at(0), TOP], [TOP, INF], [Coord(0), INF, BOTTOM]):
        with pytest.raises(TypeError):
            sorted(mixed)


def test_arithmetic_same_radicand():
    s = Coord(1, 2, 3)
    assert s - Coord(1) == Coord(0, 2, 3)
    assert s + Coord(0, -2, 3) == Coord(1)
    assert abs(Coord(0, -1, 2)) == Coord(0, 1, 2)


def test_arithmetic_mixed_radicands_rejected():
    with pytest.raises(DomainError):
        Coord(0, 1, 2) + Coord(0, 1, 3)


def test_floor_exact_at_boundaries():
    assert Coord(3).floor() == 3
    assert Coord(Fraction(-1, 2)).floor() == -1
    assert Coord(0, 1, 2).floor() == 1
    assert Coord(0, -1, 2).floor() == -2
    assert Coord(4, 0, 0).floor() == 4
    # 3 - 2*sqrt(2) = 0.1715...
    assert Coord(3, -2, 2).floor() == 0
    # far beyond float range: decided by integer square roots alone
    assert Coord(0, 10**400, 2).floor() == math.isqrt(2 * 10**800)
    assert Coord(0, -10**400, 2).floor() == -math.isqrt(2 * 10**800) - 1


def _differential_surds(rng):
    """Surds with both signs of coef, radicands 2, 3, 5 and 6, magnitudes up to
    10^400, and surds within 10^-30 of an integer on either side of it."""
    out = []
    for _ in range(150):
        big = 10 ** rng.choice((1, 20, 100, 400))
        rat = Fraction(rng.randint(-big, big), rng.randint(1, big))
        coef = Fraction(rng.choice((-1, 1)) * rng.randint(1, big), rng.randint(1, big))
        out.append(Coord(rat, coef, rng.choice((2, 3, 5, 6))))
    for _ in range(150):
        d = rng.choice((2, 3, 5, 6))
        big = 10 ** rng.choice((1, 20, 100, 400))
        m, n = rng.randint(1, big), rng.randint(1, 10**6)
        k = rng.randint(-big, big)
        # a is below (m/n)*sqrt(d) by less than 10^-40
        a = Fraction(math.isqrt(m * m * d * 10**80), n * 10**40)
        out.append(Coord(k - a, Fraction(m, n), d))  # just above k
        out.append(Coord(k + a, Fraction(-m, n), d))  # just below k
    return out


def test_floor_matches_search():
    """The isqrt floor equals the reference search's, and rational_between on
    pairs of the same surds equals the scan, which floors by search."""
    rng = subseed(5)
    surds = _differential_surds(rng)
    for x in surds:
        assert x.floor() == floor_by_search(x), x
    # neighbours in sorted order give close pairs, shuffled ones far pairs
    ordered = sorted(set(surds))
    shuffled = rng.sample(ordered, len(ordered))
    pairs = list(zip(ordered, ordered[1:])) + [
        (min(a, b), max(a, b)) for a, b in zip(shuffled, shuffled[1:])
    ]
    for lo, hi in pairs:
        assert rational_between(lo, hi) == rational_between_by_scan(lo, hi), (lo, hi)


def test_rational_between_any_pair():
    rng = subseed(2)
    pairs = [
        (Coord(0), Coord(1)),
        (Coord(0, 1, 2), Coord(0, 1, 3)),
        (Coord(Fraction(7, 5)), Coord(0, 1, 2)),
        (Coord(-3), Coord(0, -1, 2)),
    ]
    for _ in range(50):
        a = Coord(Fraction(rng.randint(-20, 20), rng.randint(1, 9)))
        b = Coord(Fraction(rng.randint(-20, 20), rng.randint(1, 9)))
        if a < b:
            pairs.append((a, b))
    for lo, hi in pairs:
        mid = rational_between(lo, hi)
        assert lo < mid < hi
        assert mid.is_rational
    with pytest.raises(DomainError):
        rational_between(Coord(1), Coord(1))


def _random_surd(rng, scale: int) -> Coord:
    rat = Fraction(rng.randint(-20 * scale, 20 * scale), rng.randint(1, scale))
    coef = Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 9))
    return Coord(rat, coef, rng.choice((2, 3, 5, 6, 7)))


def test_rational_between_matches_linear_scan():
    """The doubling-and-bisection search returns the scan's dyadic: pairs far
    apart, surds near rationals and surds near each other."""
    rng = subseed(3)
    pairs = []
    for _ in range(300):
        a = _random_surd(rng, rng.choice((1, 10, 1000)))
        gap = Fraction(1, rng.choice((1, 3, 2**20, 10**12)))
        for b in (_random_surd(rng, 10), Coord(a.rat + gap, a.coef, a.rad), Coord(a.floor() + 1)):
            if a != b:
                pairs.append((min(a, b), max(a, b)))
    for lo, hi in pairs:
        assert rational_between(lo, hi) == rational_between_by_scan(lo, hi), (lo, hi)


def test_rational_between_takes_logarithmically_many_floors(monkeypatch):
    """Two surds 10^-4000 apart need the dyadic exponent 13287: the search
    takes at most two exact floors per bit of it, not one per exponent."""
    from ordspec import coords

    lo = Coord(0, 1, 2)
    hi = Coord(Fraction(1, 10**4000), 1, 2)
    calls = []
    real = coords._scaled_floor
    monkeypatch.setattr(coords, "_scaled_floor", lambda x, d: calls.append(d) or real(x, d))
    mid = rational_between(lo, hi)
    assert lo < mid < hi and mid.is_rational
    k = mid.rat.denominator.bit_length() - 1
    assert mid.rat.denominator == 2**k and k > 13000
    assert len(calls) <= 2 * k.bit_length() + 2


def test_rational_above_below():
    assert rational_above(Coord(0)) == Coord(1)
    assert rational_above(Coord(Fraction(3, 2))) == Coord(2)
    assert rational_below(Coord(0)) == Coord(-1)
    s = Coord(0, 1, 2)
    assert rational_below(s) < s < rational_above(s)
