from fractions import Fraction

import pytest

from ordspec import (
    Coord,
    DEndpoint,
    DENSE_RATIONAL_WITH_CUTS,
    DENSE_REAL,
    DomainError,
    EMPTY_SET,
    FpInterval,
    INF,
    QQ,
    Strategy,
    SymbolicSet,
    TOP_IDEAL,
    closure,
    closure_all_strategies,
    cmp_d,
    complement,
    full_set,
    hom_to_injective,
    integer_cover_member,
    intersect,
    interval_set,
    is_closed,
    is_subset,
    left_orthogonal,
    member,
    principal_at,
    region_eq,
    region_subset,
    right_orthogonal,
    ray_downward,
    ray_upward,
    separate,
    singleton,
    strict_at,
    union,
    window_set,
)
from ordspec.order_core import Ordering
from ordspec.spectrum import BELOW_ALL

from conftest import subseed
from oracles import hom_to_injective_by_membership, random_fraction, random_symbolic_set

M = DENSE_REAL
MQ = DENSE_RATIONAL_WITH_CUTS
SQRT2 = Coord(0, 1, 2)


def P(x):
    return principal_at(x)


def S(x):
    return strict_at(x)


def sample_points(model, surds=False):
    pts = [TOP_IDEAL]
    coords = [Fraction(n, 2) for n in range(-24, 25)]
    for c in coords:
        pts.append(S(Coord(c)))
        pts.append(P(Coord(c)))
    if surds:
        for n in (-2, 0, 1):
            pts.append(S(Coord(n, 1, 2)))
    return pts


# ---------------------------------------------------------------------------
# Windows against the Hom criterion (prerequisite for the orthogonal engine)


def test_window_matches_hom_to_injective():
    ends = list(range(-3, 4)) + ["inf"]
    for a in range(-3, 4):
        for b in ends:
            if b != "inf" and b <= a:
                continue
            iv = FpInterval(Coord(a), INF if b == "inf" else Coord(b))
            w = window_set(M, iv)
            for p in sample_points(M):
                dim = hom_to_injective_by_membership(iv, p)
                assert member(M, w, p) == (hom_to_injective(M, iv, p) == 1) == (dim == 1), (a, b, p)


def test_window_matches_hom_on_surd_cuts():
    for a, b in [(-2, 1), (0, 3), (1, "inf"), (-3, "inf")]:
        iv = FpInterval(Coord(a), INF if b == "inf" else Coord(b))
        w = window_set(MQ, iv)
        for p in sample_points(MQ, surds=True):
            dim = hom_to_injective_by_membership(iv, p)
            assert member(MQ, w, p) == (hom_to_injective(MQ, iv, p) == 1) == (dim == 1), (a, b, p)


@pytest.mark.parametrize("model", [M, MQ], ids=["dense", "dense-surd"])
def test_window_and_hom_follow_the_membership_rule(model):
    """hom_to_injective and membership in window_set both say what the
    two-compare rule of the oracle says, on random intervals and ideals
    whose coordinates often coincide: all three ideal types (type 3 at surd
    cuts under dense-surd, where surds are no members) and the top."""
    rng = subseed(41 if model is M else 42)
    coords = [Coord(Fraction(n, 2)) for n in range(-6, 7)]
    coords += [Coord(Fraction(n, 2), Fraction(1, 4), rng.choice((2, 3))) for n in range(-6, 7)]
    members = [c for c in coords if model.is_member(c)]
    for _ in range(1500):
        a, b = sorted(rng.sample(members, 2))
        iv = FpInterval(a, INF if rng.random() < 0.2 else b)
        if rng.random() < 0.1:
            p = TOP_IDEAL
        else:
            c = rng.choice(coords)
            p = P(c) if model.is_member(c) and rng.random() < 0.5 else S(c)
        dim = hom_to_injective_by_membership(iv, p)
        assert hom_to_injective(model, iv, p) == dim, (iv, p)
        assert member(model, window_set(model, iv), p) == (dim == 1), (iv, p)


# ---------------------------------------------------------------------------
# Set algebra


def test_set_algebra_examples():
    w = window_set(M, FpInterval(Coord(0), Coord(1)))
    assert member(M, w, S(1))
    assert member(M, w, P(0))
    assert not member(M, w, S(0))
    assert not member(M, w, P(1))
    assert complement(M, full_set(M)) == EMPTY_SET
    assert complement(M, EMPTY_SET) == full_set(M)


def test_clopen_integer_cover_unions_to_full():
    pieces = [integer_cover_member(M, n) for n in range(-11, 1)]
    pieces.append(integer_cover_member(M, None))
    acc = EMPTY_SET
    for p in pieces:
        acc = union(acc, p)
    # the truncated union is one interval from the principal ideal at -12 up
    assert acc == interval_set(
        M, DEndpoint(P(-12), True), DEndpoint(TOP_IDEAL, True)
    )
    below = interval_set(M, DEndpoint(BELOW_ALL, False), DEndpoint(S(-12), True))
    assert union(acc, below) == full_set(M)
    # below the truncation every point is covered by its own indexed piece
    rng = subseed(50)
    for _ in range(100):
        c = Coord(random_fraction(rng, -10, 10))
        flavor_principal = rng.random() < 0.5
        pt = P(c) if flavor_principal else S(c)
        n = c.floor() + 1
        if flavor_principal and Coord(n - 1) == c:
            n = n - 0 if False else n  # generator of the window sits inside it
        if not flavor_principal and Coord(n - 1) == c:
            n = n - 1  # strict ideal at an integer belongs to the piece below
        n = min(n, 0)
        holder = integer_cover_member(M, n) if n <= 0 else None
        top = integer_cover_member(M, None)
        covered_by = [
            k for k in range(-13, 1) if member(M, integer_cover_member(M, k), pt)
        ]
        if member(M, top, pt):
            covered_by.append("top")
        assert len(covered_by) == 1, (pt, covered_by)


def test_set_algebra_random_boolean_laws():
    rng = subseed(51)
    for _ in range(80):
        a = random_symbolic_set(rng, M)
        b = random_symbolic_set(rng, M)
        assert complement(M, complement(M, a)) == a
        assert intersect(M, a, complement(M, a)) == EMPTY_SET
        assert union(a, complement(M, a)) == full_set(M)
        # De Morgan
        assert complement(M, union(a, b)) == intersect(
            M, complement(M, a), complement(M, b)
        )
        assert is_subset(M, intersect(M, a, b), a)
        assert is_subset(M, a, union(a, b))


def test_membership_consistency_random():
    rng = subseed(52)
    pts = sample_points(M)
    for _ in range(40):
        a = random_symbolic_set(rng, M)
        b = random_symbolic_set(rng, M)
        for p in rng.sample(pts, 25):
            assert member(M, union(a, b), p) == (member(M, a, p) or member(M, b, p))
            assert member(M, intersect(M, a, b), p) == (
                member(M, a, p) and member(M, b, p)
            )
            assert member(M, complement(M, a), p) == (not member(M, a, p))


# ---------------------------------------------------------------------------
# Orthogonals


def test_left_orthogonal_examples():
    x = Coord(2)
    # upward closed ray: intervals entirely below x
    r = left_orthogonal(M, ray_upward(M, P(x), True))
    assert r.contains_interval(M, FpInterval(Coord(0), Coord(2)))
    assert r.contains_interval(M, FpInterval(Coord(-5), Coord(1)))
    assert not r.contains_interval(M, FpInterval(Coord(0), Coord(3)))
    assert not r.contains_interval(M, FpInterval(Coord(0), INF))
    # downward closed ray: intervals starting at or after x
    r2 = left_orthogonal(M, ray_downward(M, S(x), True))
    assert r2.contains_interval(M, FpInterval(Coord(2), Coord(5)))
    assert r2.contains_interval(M, FpInterval(Coord(3), INF))
    assert not r2.contains_interval(M, FpInterval(Coord(1), Coord(5)))
    # the whole space admits no orthogonal intervals
    r3 = left_orthogonal(M, full_set(M))
    assert r3.covered_set(M) == EMPTY_SET
    assert not r3.contains_interval(M, FpInterval(Coord(0), Coord(1)))


def test_right_orthogonal_examples():
    x = Coord(2)
    r = left_orthogonal(M, ray_upward(M, P(x), True))
    assert right_orthogonal(M, r) == ray_upward(M, P(x), True)
    r2 = left_orthogonal(M, ray_downward(M, S(x), True))
    assert right_orthogonal(M, r2) == ray_downward(M, S(x), True)
    r3 = left_orthogonal(M, EMPTY_SET)
    assert right_orthogonal(M, r3) == EMPTY_SET
    # empty region: nothing is orthogonal to the empty family
    r4 = left_orthogonal(M, full_set(M))
    assert right_orthogonal(M, r4) == full_set(M)


def test_galois_connection_random():
    rng = subseed(53)
    for _ in range(60):
        u = random_symbolic_set(rng, M)
        v = random_symbolic_set(rng, M)
        ru, rv = left_orthogonal(M, u), left_orthogonal(M, v)
        if is_subset(M, u, v):
            assert region_subset(M, rv, ru)  # antitone
        assert is_subset(M, u, right_orthogonal(M, ru))  # unit of the connection
        # triple compositions stabilize
        rr = left_orthogonal(M, right_orthogonal(M, ru))
        assert region_eq(M, rr, ru)
        uu = right_orthogonal(M, left_orthogonal(M, right_orthogonal(M, ru)))
        assert uu == right_orthogonal(M, ru)


# ---------------------------------------------------------------------------
# Closure


def test_closure_examples():
    # a point is closed
    u = singleton(M, P(Fraction(5, 2)))
    assert closure_all_strategies(M, u) == u
    # open interval between two principal ideals closes by adding the lower
    # principal ideal; the top strict ideal is already the maximum
    v = interval_set(M, DEndpoint(P(0), False), DEndpoint(P(1), False))
    expected = interval_set(M, DEndpoint(P(0), True), DEndpoint(S(1), True))
    assert closure_all_strategies(M, v) == expected
    # an upward closed ray is a fixpoint
    w = ray_upward(M, P(7), True)
    assert closure_all_strategies(M, w) == w


def test_is_closed_examples():
    assert is_closed(M, ray_downward(M, S(3), True))
    assert not is_closed(
        M, interval_set(M, DEndpoint(P(0), False), DEndpoint(P(1), False))
    )
    assert is_closed(M, EMPTY_SET)
    assert is_closed(M, full_set(M))


def test_closed_interval_table_rows():
    rng = subseed(54)
    for _ in range(20):
        x = Coord(random_fraction(rng, -10, 10))
        rows = [
            ray_downward(M, S(x), True),    # everything up to the strict ideal
            ray_upward(M, P(x), True),      # everything from the principal ideal
            singleton(M, P(x)),
            singleton(M, S(x)),
            ray_downward(M, P(x), True),
            ray_upward(M, S(x), True),
            ray_downward(M, TOP_IDEAL, True),
            ray_upward(M, TOP_IDEAL, True),
        ]
        for u in rows:
            assert is_closed(M, u), u
        # table complements pair up: closed rows 1/2 are mutual complements,
        # and rows 4/5 complement to open rays
        assert complement(M, rows[0]) == rows[1]
        assert complement(M, rows[4]) == ray_upward(M, P(x), False)
        assert complement(M, rows[5]) == ray_downward(M, S(x), False)


def test_closed_rows_type3_surd():
    rng = subseed(55)
    for _ in range(20):
        c = Coord(Fraction(rng.randint(-9, 9)), Fraction(rng.randint(1, 3)), rng.choice([2, 3, 5]))
        i3 = S(c)
        down = ray_downward(MQ, i3, True)
        up = ray_upward(MQ, i3, True)
        assert is_closed(MQ, down)
        assert is_closed(MQ, up)
        assert is_closed(MQ, singleton(MQ, i3))
        assert complement(MQ, down) == ray_upward(MQ, i3, False)


def test_closure_adds_surd_limit():
    # members approaching a surd cut from below force the strict ideal there
    lo = DEndpoint(P(0), True)
    u = interval_set(MQ, lo, DEndpoint(S(SQRT2), False))
    cl = closure_all_strategies(MQ, u)
    assert cl == interval_set(MQ, lo, DEndpoint(S(SQRT2), True))
    # and from above, the same strict ideal is the infimum
    v = interval_set(MQ, DEndpoint(S(SQRT2), False), DEndpoint(P(3), True))
    cl2 = closure_all_strategies(MQ, v)
    assert cl2 == interval_set(MQ, DEndpoint(S(SQRT2), True), DEndpoint(P(3), True))


def test_three_way_agreement_random():
    rng = subseed(56)
    for _ in range(120):
        u = random_symbolic_set(rng, M)
        closure_all_strategies(M, u)  # raises on disagreement
    for _ in range(60):
        u = random_symbolic_set(rng, MQ, surds=True)
        closure_all_strategies(MQ, u)


def test_kuratowski_axioms_each_strategy():
    rng = subseed(57)
    for strategy in Strategy:
        assert closure(M, EMPTY_SET, strategy) == EMPTY_SET
        for _ in range(40):
            a = random_symbolic_set(rng, M)
            b = random_symbolic_set(rng, M)
            ca = closure(M, a, strategy)
            assert is_subset(M, a, ca)
            assert closure(M, ca, strategy) == ca
            assert closure(M, union(a, b), strategy) == union(
                ca, closure(M, b, strategy)
            )


def test_closed_sets_closed_under_sup_inf_sampling():
    rng = subseed(58)
    pts = sample_points(M)
    for _ in range(200):
        u = closure_all_strategies(M, random_symbolic_set(rng, M))
        members = [p for p in pts if member(M, u, p)]
        if not members:
            continue
        for _ in range(50):
            fam = rng.sample(members, min(len(members), rng.randint(1, 5)))
            sup = fam[0]
            inf = fam[0]
            for p in fam[1:]:
                if cmp_d(M, p, sup) is Ordering.GREATER:
                    sup = p
                if cmp_d(M, p, inf) is Ordering.LESS:
                    inf = p
            assert member(M, u, sup)
            assert member(M, u, inf)


# ---------------------------------------------------------------------------
# Hausdorff separation and non-compactness


def _check_separation(model, p, q):
    a, b = separate(model, p, q)
    assert member(model, a, p)
    assert member(model, b, q)
    assert intersect(model, a, b) == EMPTY_SET
    assert is_closed(model, complement(model, a))
    assert is_closed(model, complement(model, b))


def test_separate_examples():
    _check_separation(M, P(0), P(1))
    _check_separation(M, S(4), P(4))
    _check_separation(M, P(0), TOP_IDEAL)
    with pytest.raises(DomainError):
        separate(M, P(0), P(0))


def test_separate_random_pairs():
    rng = subseed(59)
    pts = sample_points(M)
    done = 0
    while done < 60:
        p, q = rng.sample(pts, 2)
        if cmp_d(M, p, q) is Ordering.EQUAL:
            continue
        _check_separation(M, p, q)
        done += 1
    # surd cuts separate too
    _check_separation(MQ, S(SQRT2), P(2))
    _check_separation(MQ, P(1), S(SQRT2))


def test_noncompact_cover_properties():
    pieces = {n: integer_cover_member(M, n) for n in range(-11, 1)}
    pieces["top"] = integer_cover_member(M, None)
    keys = list(pieces)
    for i, k1 in enumerate(keys):
        assert is_closed(M, pieces[k1])
        assert is_closed(M, complement(M, pieces[k1]))
        for k2 in keys[i + 1 :]:
            assert intersect(M, pieces[k1], pieces[k2]) == EMPTY_SET
    # no member is removable: its principal generator lies in no other piece
    for n in range(-11, 1):
        witness = P(n - 1)
        assert member(M, pieces[n], witness)
        assert not any(
            member(M, pieces[k], witness) for k in keys if k != n
        )
    assert member(M, pieces["top"], TOP_IDEAL)


def test_top_singleton_closed_but_not_open():
    top = singleton(M, TOP_IDEAL)
    assert is_closed(M, top)
    comp = complement(M, top)
    assert not is_closed(M, comp)
    assert closure_all_strategies(M, comp) == full_set(M)
