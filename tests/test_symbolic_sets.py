"""The merge-based set algebra: agreement with the old algorithms, compare
counts that grow like k log k, and the lean memory layout."""

import copy
import gc
import math
import pickle
import weakref
from fractions import Fraction

import pytest

from ordspec import (
    Coord,
    DENSE_RATIONAL_WITH_CUTS,
    DENSE_REAL,
    DPoint,
    EMPTY_SET,
    Flavor,
    FpInterval,
    INF,
    Strategy,
    SymbolicSet,
    closure,
    complement,
    intersect,
    interval_set,
    is_subset,
    left_orthogonal,
    member,
    region_eq,
    region_subset,
    union,
    window_set,
)
from ordspec import coords, jsonio, spectrum
from ordspec.interleaving import INFINITE_BRACKET, DistanceBracket
from ordspec.spectrum import Cut, DEndpoint, cut_above, shared_cut

from conftest import subseed
from oracles import (
    contains_interval_by_scan,
    order_closure_fixpoint,
    pairwise_intersect,
    random_fraction,
    random_symbolic_set,
    random_wide_pieces,
    region_subset_by_scan,
    scan_member,
    subset_by_complement,
    supinf_closure_fixpoint,
    union_by_sorting,
)

MODELS = (DENSE_REAL, DENSE_RATIONAL_WITH_CUTS)


def _random_pairs(n):
    rng = subseed(71)
    for t in range(n):
        model = MODELS[t % 2]
        a, b = (
            random_symbolic_set(rng, model, max_components=40, lo=-80, hi=80, surds=True, max_len=1)
            for _ in range(2)
        )
        yield rng, model, a, b


def test_merges_agree_with_pairwise_algorithms():
    for rng, model, a, b in _random_pairs(300):
        assert intersect(model, a, b).parts == pairwise_intersect(a, b)
        assert union(a, b).parts == union_by_sorting(a, b)
        assert is_subset(model, a, b) is subset_by_complement(a, b)
        inter = intersect(model, a, b)
        assert is_subset(model, inter, a) and subset_by_complement(inter, a)
        assert closure(model, a, Strategy.ORDER_TOPOLOGY).parts == order_closure_fixpoint(model, a)
        assert closure(model, a, Strategy.SUP_INF_SATURATION) == supinf_closure_fixpoint(model, a)
        # the points at a's finite cuts, and a few others
        xs = {c.coord for c in a.cuts if isinstance(c.coord, Coord)}
        xs.update(Coord(random_fraction(rng, -80, 80)) for _ in range(4))
        for x in xs:
            for flavor in (Flavor.STRICT, Flavor.PRINCIPAL)[: 1 + model.is_member(x)]:
                p = DPoint(x, flavor)
                assert member(model, a, p) is scan_member(model, a, p)


def test_region_merges_agree_with_gap_scans():
    true_cross = 0
    for rng, model, a, b in _random_pairs(300):
        # b inside a half of the time, so that left(a) lies in left(b)
        if rng.random() < 0.5:
            b = intersect(model, a, b)
        ra, rb = left_orthogonal(model, a), left_orthogonal(model, b)
        for r1, r2 in ((ra, rb), (rb, ra), (ra, ra)):
            expected = region_subset_by_scan(model, r1, r2)
            assert region_subset(model, r1, r2) is expected
            true_cross += expected and r1 is not r2
        assert region_eq(model, ra, rb) is (region_subset_by_scan(model, ra, rb) and region_subset_by_scan(model, rb, ra))
        xs = sorted({c.coord for c in a.cuts if isinstance(c.coord, Coord)} | {Coord(random_fraction(rng, -80, 80))})
        for start in rng.sample(xs, min(8, len(xs))):
            for end in [x for x in xs if start < x][:2] + [INF]:
                iv = FpInterval(start, end)
                assert ra.contains_interval(model, iv) is contains_interval_by_scan(model, ra, iv)
    # the antitone pairs keep many of the 600 cross answers true
    assert 100 < true_cross < 500


def test_union_of_pieces_agrees_with_one_constructor():
    for rng, model, a, b in _random_pairs(100):
        pieces = list(a.parts) + list(b.parts)
        rng.shuffle(pieces)
        acc = EMPTY_SET
        for lo, hi in pieces:
            acc = union(acc, SymbolicSet([(lo, hi)]))
        assert acc == SymbolicSet(pieces) == union(a, b)


def test_cut_order_is_the_order_of_coord_level():
    rng = subseed(74)
    xs = [Coord(random_fraction(rng, -3, 3)) for _ in range(6)] + [Coord(0, 1, 2), Coord(1, -1, 3)]
    # cuts made directly are the shared ones, so equal ones are one object
    cuts = [spectrum.BOTTOM, Cut(None, 0), spectrum.INF_LOW, spectrum.TOP]
    cuts += [Cut(INF, level) for level in (0, 1) for _ in range(2)]
    cuts += [Cut(Coord(x.rat, x.coef, x.rad), level) for x in xs for level in (0, 1, 2) for _ in range(2)]

    def position(x):
        """The place of a cut's coordinate: BOTTOM's None first, INF last,
        a coordinate by its float value, which the margin below makes exact."""
        if x is None:
            return (0, 0.0)
        if x is INF:
            return (2, 0.0)
        return (1, float(x.rat) + float(x.coef) * math.sqrt(x.rad))

    values = sorted({position(x)[1] for x in xs})
    assert len(values) == len(set(xs)) and all(b - a > 1e-9 for a, b in zip(values, values[1:]))

    def expected(a, b):
        """-1, 0 or 1 as a is below, at or above b."""
        ka, kb = (*position(a.coord), a.level), (*position(b.coord), b.level)
        return (ka > kb) - (ka < kb)

    for a in cuts:
        for b in cuts:
            e = expected(a, b)
            assert (a < b, a <= b, a == b, a >= b, a > b) == (e < 0, e <= 0, e == 0, e >= 0, e > 0)
            assert (hash(a) == hash(b)) or e != 0


# ---------------------------------------------------------------------------
# Compare counts at k = 2000

K = 2000
# A fixed multiple of k*log2(k); one quadratic operation at this k makes
# about k*k/2 = 2*10^6 compares, 90 times the bound's unit.
BOUND = 4 * K * math.log2(K)


@pytest.fixture
def count_compares(monkeypatch):
    """Counts Coord._cmp calls, the one entry point of every order compare."""
    calls = [0]
    cmp = coords.Coord._cmp

    def counted(a, b):
        calls[0] += 1
        return cmp(a, b)

    monkeypatch.setattr(coords.Coord, "_cmp", counted)

    def measure(fn, *args):
        calls[0] = 0
        out = fn(*args)
        return calls[0], out

    return measure


@pytest.mark.parametrize("model", MODELS, ids=["dense", "dense-surd"])
def test_set_operations_make_k_log_k_compares(model, count_compares):
    rng = subseed(72)
    pu = random_wide_pieces(rng, model, K, to_top=True)
    pv = random_wide_pieces(rng, model, K)
    pieces = [interval_set(model, lo, hi) for lo, hi in pu]

    def build():
        acc = EMPTY_SET
        for piece in pieces:
            acc = union(acc, piece)
        return acc

    n, u = count_compares(build)
    assert len(u.parts) == K and n < BOUND
    v = SymbolicSet(interval_set(model, lo, hi).parts[0] for lo, hi in pv)
    w = intersect(model, u, v)
    doc = jsonio.encode_set(model, u)
    r = left_orthogonal(model, u)
    costs = {
        "union": n,
        "union_of_two_sets": count_compares(union, u, v)[0],
        "intersect": count_compares(intersect, model, u, v)[0],
        "is_subset": count_compares(is_subset, model, w, u)[0],
        "is_subset_of_itself": count_compares(is_subset, model, u, u)[0],
        "decode_set": count_compares(jsonio.decode_set, model, doc)[0],
        "complement": count_compares(complement, model, u)[0],
        "left_orthogonal": count_compares(left_orthogonal, model, u)[0],
        "region_eq": count_compares(region_eq, model, r, r)[0],
        **{s.value: count_compares(closure, model, u, s)[0] for s in Strategy},
    }
    assert is_subset(model, w, u)
    over = {name: c for name, c in costs.items() if not c < BOUND}
    assert not over, f"more than {BOUND:.0f} compares at k={K}: {over}"


# ---------------------------------------------------------------------------
# Memory layout


def test_value_objects_have_no_instance_dict():
    model = DENSE_REAL
    p = DPoint(Coord(1), Flavor.PRINCIPAL)
    u = interval_set(model, DEndpoint(p, True), DEndpoint(DPoint(Coord(2), Flavor.STRICT), False))
    values = [
        shared_cut(Coord(1), 0),
        p,
        DEndpoint(p, True),
        u,
        left_orthogonal(model, u),
        DistanceBracket(Coord(0), Coord(1)),
        INFINITE_BRACKET,
    ]
    for value in values:
        assert not hasattr(value, "__dict__"), type(value).__name__
    # a bracket's bounds are extended coordinates, and INF comes back as INF
    for rebuild in (copy.copy, copy.deepcopy, lambda x: pickle.loads(pickle.dumps(x))):
        assert rebuild(values[-2]) == values[-2]
        assert rebuild(INFINITE_BRACKET).lower is rebuild(INFINITE_BRACKET).upper is INF


def test_equal_cuts_are_one_object():
    model = DENSE_REAL
    x, y = Coord(Fraction(7, 3), 1, 2), Coord(Fraction(14, 6), Fraction(1, 2), 8)
    assert x is not y and x == y
    for level in (0, 1, 2):
        assert shared_cut(x, level) is shared_cut(y, level)
    # a coordinate outside T has no level 2; its cut is the level-1 cut
    assert cut_above(DENSE_RATIONAL_WITH_CUTS, DPoint(x, Flavor.PRINCIPAL)) is shared_cut(y, 1)
    a = interval_set(model, DEndpoint(DPoint(x, Flavor.STRICT), True), DEndpoint(DPoint(Coord(5), Flavor.STRICT), False))
    b = interval_set(model, DEndpoint(DPoint(y, Flavor.STRICT), True), DEndpoint(DPoint(Coord(5), Flavor.STRICT), False))
    assert a.cuts[0] is b.cuts[0] and a.cuts[1] is b.cuts[1]


def test_copies_and_pickles_keep_the_shared_cuts():
    s = window_set(DENSE_REAL, FpInterval(Coord(0), Coord(1)))
    surd = shared_cut(Coord(Fraction(7, 3), 1, 2), 2)
    fixed = (spectrum.BOTTOM, spectrum.INF_LOW, spectrum.TOP)
    for rebuild in (copy.copy, copy.deepcopy, lambda x: pickle.loads(pickle.dumps(x))):
        t = rebuild(s)
        assert t == s and t.cuts[0] is s.cuts[0] and t.cuts[1] is s.cuts[1]
        assert rebuild(surd) is surd
        for cut in fixed:
            assert rebuild(cut) is cut
    # a cut that no set holds any more comes back into the table
    x = Coord(Fraction(98765, 1000), Fraction(2, 9), 13)
    data = pickle.dumps(shared_cut(x, 1))
    gc.collect()
    assert x not in spectrum._CUTS[1]
    assert pickle.loads(data) is spectrum._CUTS[1].get(x)


def test_shared_cut_table_drops_unheld_cuts():
    model = DENSE_REAL
    table = spectrum._CUTS[0]
    x = Coord(Fraction(123457, 1000), Fraction(3, 7), 11)
    s = interval_set(model, DEndpoint(DPoint(x, Flavor.STRICT), True), DEndpoint(DPoint(x, Flavor.STRICT), True))
    assert s.cuts[0] is table.get(Coord(x.rat, x.coef, x.rad))
    del s
    gc.collect()
    assert Coord(x.rat, x.coef, x.rad) not in table


def test_a_cut_built_directly_is_the_shared_cut():
    x, y = Coord(Fraction(7, 3), 1, 2), Coord(Fraction(14, 6), Fraction(1, 2), 8)
    for level in (0, 1, 2):
        assert Cut(x, level) is shared_cut(y, level) is Cut(y, level)
    assert Cut(None, 0) is spectrum.BOTTOM
    assert Cut(INF, 0) is spectrum.INF_LOW and Cut(INF, 1) is spectrum.TOP


@pytest.mark.parametrize("model", [DENSE_REAL, DENSE_RATIONAL_WITH_CUTS], ids=["dense", "dense-surd"])
def test_equal_sets_are_one_object(model):
    rng = subseed(75)
    assert SymbolicSet(()) is EMPTY_SET
    for _ in range(40):
        a = random_symbolic_set(rng, model, surds=True)
        b = random_symbolic_set(rng, model, surds=True)
        u = union(a, b)
        for built in (
            SymbolicSet(u.parts),
            SymbolicSet(a.parts + b.parts),
            SymbolicSet._make(tuple(list(u.cuts))),
            jsonio.decode_set(model, jsonio.encode_set(model, u)),
            copy.copy(u),
            copy.deepcopy(u),
            pickle.loads(pickle.dumps(u)),
        ):
            assert built is u


def test_the_share_tables_drop_what_nothing_holds():
    x = Coord(Fraction(246913, 1000), Fraction(5, 7), 11)
    p = DPoint(x, Flavor.PRINCIPAL)
    s = interval_set(DENSE_REAL, DEndpoint(p, True), DEndpoint(p, True))
    assert spectrum._SETS.get(s.cuts) is s and spectrum._CUTS[2].get(x) is s.cuts[1]
    held = weakref.ref(s)
    del s
    gc.collect()
    assert held() is None
    assert x not in spectrum._CUTS[1] and x not in spectrum._CUTS[2]
    assert all(c.coord != x for cuts in list(spectrum._SETS) for c in cuts)
