from fractions import Fraction

import pytest

from ordspec import (
    Coord,
    DEndpoint,
    DENSE_RATIONAL_WITH_CUTS,
    DENSE_REAL,
    DomainError,
    FiniteChain,
    INF,
    QQ,
    SchemaError,
    interval_set,
    left_orthogonal,
    right_orthogonal,
    singleton,
    strict_at,
    principal_at,
    union,
)
from ordspec import jsonio

from conftest import subseed
from oracles import random_fp_morphism, random_symbolic_set

M = DENSE_REAL
MQ = DENSE_RATIONAL_WITH_CUTS


def test_coord_round_trip():
    cases = [Coord(0), Coord(Fraction(-7, 3)), Coord(2, 1, 2), Coord(Fraction(1, 2), Fraction(-3, 4), 5)]
    for c in cases:
        assert jsonio.decode_coord(jsonio.encode_coord(c)) == c
    assert jsonio.encode_coord(Coord(Fraction(3, 2))) == "3/2"
    assert jsonio.encode_coord(Coord(3)) == "3"
    assert jsonio.encode_coord(Coord(1, 2, 8)) == {"rat": "1", "surd": {"q": "4", "d": 2}}
    assert jsonio.decode_ext_coord("inf") is INF
    with pytest.raises(SchemaError):
        jsonio.decode_coord("one half")
    with pytest.raises(SchemaError):
        jsonio.decode_coord({"rat": "1", "surd": {"q": "1"}})
    with pytest.raises(DomainError):
        jsonio.decode_coord({"rat": "0", "surd": {"q": "1", "d": 1}})


def test_dpoint_round_trip():
    for p in (principal_at(Fraction(5, 4)), strict_at(Coord(0, 1, 2)), strict_at(0)):
        assert jsonio.decode_dpoint(jsonio.encode_dpoint(p)) == p
    with pytest.raises(SchemaError):
        jsonio.decode_dpoint({"coord": "0", "flavor": "weird"})


def test_morphism_round_trip_random():
    rng = subseed(80)
    for _ in range(25):
        f = random_fp_morphism(rng)
        doc = jsonio.encode_morphism(f)
        back = jsonio.decode_morphism(doc, QQ)
        assert back == f


def test_symbolic_set_round_trip_random():
    rng = subseed(81)
    for _ in range(60):
        s = random_symbolic_set(rng, M)
        assert jsonio.decode_set(M, jsonio.encode_set(M, s)) == s
    for _ in range(40):
        s = random_symbolic_set(rng, MQ, surds=True)
        assert jsonio.decode_set(MQ, jsonio.encode_set(MQ, s)) == s


def test_surd_cut_endpoint_form():
    # the strict ideal at a surd cut serializes as an excluded strict endpoint
    s2 = Coord(0, 1, 2)
    u = interval_set(MQ, DEndpoint(strict_at(s2), False), DEndpoint(principal_at(2), True))
    doc = jsonio.encode_set(MQ, u)
    lo = doc["components"][0]["lo"]
    assert lo["included"] is False
    assert lo["point"]["flavor"] == "strict"
    assert jsonio.decode_set(MQ, doc) == u


def test_region_round_trip_including_empty_cover():
    from ordspec import complement

    # the complement of {strict 0, principal 0} leaves a two-point gap that
    # admits no window, so its region carries a null covered piece
    two_points = union(singleton(M, strict_at(0)), singleton(M, principal_at(0)))
    r = left_orthogonal(M, complement(M, two_points))
    doc = jsonio.encode_region(M, r)
    assert any(g["covered"] is None for g in doc["gaps"])
    back = jsonio.decode_region(M, doc)
    assert right_orthogonal(M, back) == right_orthogonal(M, r)

    # a region with nonempty covers round-trips as well
    rng = subseed(82)
    for _ in range(20):
        s = random_symbolic_set(rng, M)
        r2 = left_orthogonal(M, s)
        doc2 = jsonio.encode_region(M, r2)
        back2 = jsonio.decode_region(M, doc2)
        assert right_orthogonal(M, back2) == right_orthogonal(M, r2)


def _piece(lo, lo_in, hi, hi_in):
    def end(p, included):
        return {"point": "below_all" if p is None else jsonio.encode_dpoint(p), "included": included}

    return {"lo": end(lo, lo_in), "hi": end(hi, hi_in)}


def test_region_decoder_refuses_what_no_set_leaves():
    # the windows [x, 0) cover the whole gap up to (0, S)
    up_to_0 = cover = _piece(None, False, strict_at(0), True)
    ok = {"gaps": [{"gap": up_to_0, "covered": cover}]}
    assert jsonio.decode_region(M, ok) == left_orthogonal(M, jsonio.decode_set(M, {"components": [
        _piece(strict_at(0), False, strict_at(INF), True)]}))
    above_3 = _piece(principal_at(3), True, strict_at(INF), True)
    bad = {
        # a fabricated cover, a missing one, and one where no window fits
        "fabricated": [{"gap": up_to_0, "covered": _piece(principal_at(5), True, strict_at(6), False)}],
        "missing": [{"gap": up_to_0, "covered": None}],
        "no window": [{"gap": _piece(strict_at(0), True, principal_at(0), True), "covered": cover}],
        # gaps that overlap, touch, or repeat
        "overlap": [{"gap": up_to_0, "covered": cover},
                    {"gap": _piece(strict_at(-1), True, strict_at(0), True),
                     "covered": _piece(principal_at(-1), True, strict_at(0), True)}],
        "touch": [{"gap": up_to_0, "covered": cover},
                  {"gap": _piece(strict_at(0), False, principal_at(3), False),
                   "covered": _piece(principal_at(0), True, principal_at(3), False)}],
        "repeat": [{"gap": above_3, "covered": above_3}, {"gap": above_3, "covered": above_3}],
    }
    for name, gaps in bad.items():
        with pytest.raises(DomainError) as err:
            jsonio.decode_region(M, {"gaps": gaps})
        assert err.value.kind == "bad_region", name
        # each gap's own cover is right in the last three
        assert ("overlap" in err.value.detail) is (name in ("overlap", "touch", "repeat")), name


def test_chain_model_rejects_symbolic_sets():
    chain = FiniteChain(4)
    with pytest.raises(DomainError):
        singleton(chain, principal_at(1))
