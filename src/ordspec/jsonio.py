"""JSON codecs for every value the library exchanges.

Encoders produce canonical forms (sorted summands, canonical set
components, reduced rationals) so that equal values serialize to equal
documents.  Decoders are strict: anything off-schema raises SchemaError,
while well-formed data describing an invalid value surfaces the library's
DomainError.  A Serre region is written as its gaps, each with the cover
derived from it; a region document whose gaps overlap or touch, or whose
``covered`` piece is not its gap's cover, is refused as ``bad_region``.

Only the coordinate and order layers are imported with this module.  Each
codec of a barcode, chain, fp module, set or region value imports its layer
when it runs, so a command line call loads only the layers its values
belong to.
"""

from __future__ import annotations

from fractions import Fraction

from .coords import Coord, ExtCoord, INF, is_inf, split_radicand
from .errors import DomainError, SchemaError
from .fields import Field, parse_rational
from .order_core import DPoint, Flavor, FpInterval, IndexModel


def _is_int(v) -> bool:
    """A JSON integer; JSON booleans are not integers here."""
    return isinstance(v, int) and not isinstance(v, bool)


def _record(obj, keys: set, shape: str) -> None:
    """Raise SchemaError(shape) unless obj is a JSON object with exactly these keys."""
    if not isinstance(obj, dict) or set(obj) != keys:
        raise SchemaError(shape)


def _list(value, message: str) -> list:
    """value, when it is a JSON list; else raise SchemaError(message)."""
    if not isinstance(value, list):
        raise SchemaError(message)
    return value


def _fraction_from_str(s) -> Fraction:
    if not isinstance(s, str):
        raise SchemaError(f"expected a rational string, got {s!r}")
    try:
        return parse_rational(s)
    except (ValueError, ZeroDivisionError) as exc:
        raise SchemaError(f"bad rational {s!r}") from exc


def encode_coord(c: Coord):
    if c.is_rational:
        return str(c.rat)
    return {"rat": str(c.rat), "surd": {"q": str(c.coef), "d": c.rad}}


def decode_coord(obj) -> Coord:
    if isinstance(obj, str):
        return Coord(_fraction_from_str(obj))
    if isinstance(obj, dict):
        extra = set(obj) - {"rat", "surd"}
        if extra:
            raise SchemaError(f"unexpected coordinate fields {sorted(extra)}")
        rat = _fraction_from_str(obj.get("rat", "0"))
        surd = obj.get("surd")
        if surd is None:
            return Coord(rat)
        if not isinstance(surd, dict) or set(surd) - {"q", "d"}:
            raise SchemaError("surd part must be {'q': rational, 'd': integer}")
        coef = _fraction_from_str(surd.get("q", "0"))
        d = surd.get("d")
        if not _is_int(d):
            raise SchemaError("surd radicand must be an integer")
        split_radicand(d)  # checked whatever the coefficient: Coord skips it at zero
        return Coord(rat, coef, d)
    raise SchemaError(f"cannot read a coordinate from {obj!r}")


def encode_ext_coord(c: ExtCoord):
    return "inf" if is_inf(c) else encode_coord(c)


def decode_ext_coord(obj) -> ExtCoord:
    if obj == "inf":
        return INF
    return decode_coord(obj)


def encode_dpoint(p: DPoint):
    return {"coord": encode_ext_coord(p.coord), "flavor": p.flavor.value}


def decode_dpoint(obj) -> DPoint:
    _record(obj, {"coord", "flavor"}, "an ideal is {'coord': ..., 'flavor': 'strict'|'principal'}")
    flavor = obj["flavor"]
    if flavor not in ("strict", "principal"):
        raise SchemaError(f"unknown flavor {flavor!r}")
    return DPoint(decode_ext_coord(obj["coord"]), Flavor(flavor))


def encode_interval(iv: FpInterval):
    return {"start": encode_coord(iv.start), "end": encode_ext_coord(iv.end)}


def decode_interval(obj) -> FpInterval:
    if isinstance(obj, str):
        return _interval_from_shorthand(obj)
    _record(obj, {"start", "end"}, "an interval is {'start': coord, 'end': coord|'inf'}")
    return FpInterval(decode_coord(obj["start"]), decode_ext_coord(obj["end"]))


def _interval_from_shorthand(s: str) -> FpInterval:
    """Sugar: "[a,b)" or "[a,inf)" with rational a, b."""
    text = s.strip()
    if not (text.startswith("[") and text.endswith(")")):
        raise SchemaError(f"interval shorthand must look like [a,b), got {s!r}")
    body = text[1:-1]
    if "," not in body:
        raise SchemaError(f"interval shorthand must look like [a,b), got {s!r}")
    a, b = (part.strip() for part in body.split(",", 1))
    start = Coord(_fraction_from_str(a))
    end = INF if b == "inf" else Coord(_fraction_from_str(b))
    return FpInterval(start, end)


def encode_module(m: FpModule):
    return {"summands": [encode_interval(iv) for iv in m.summands]}


def decode_module(obj) -> FpModule:
    from .fp_category import FpModule

    _record(obj, {"summands"}, "a module is {'summands': [interval, ...]}")
    summands = _list(obj["summands"], "summands must be a list")
    return FpModule(tuple(decode_interval(o) for o in summands))


def encode_morphism(f: FpMorphism):
    entries = [
        {"from": i, "to": j, "value": str(v)}
        for (i, j), v in sorted(f.entries.items())
    ]
    return {
        "source": encode_module(f.source),
        "target": encode_module(f.target),
        "entries": entries,
    }


def decode_morphism(obj, field: Field) -> FpMorphism:
    from .fp_category import FpMorphism

    _record(
        obj, {"source", "target", "entries"},
        "a morphism is {'source': ..., 'target': ..., 'entries': [...]}",
    )
    source = decode_module(obj["source"])
    target = decode_module(obj["target"])
    entries = {}
    for e in _list(obj["entries"], "entries must be a list"):
        _record(e, {"from", "to", "value"}, "an entry is {'from': i, 'to': j, 'value': scalar}")
        i, j = e["from"], e["to"]
        if not _is_int(i) or not _is_int(j):
            raise SchemaError("entry indices must be integers")
        if (i, j) in entries:
            raise SchemaError(f"entry ({i}, {j}) is given twice")
        entries[(i, j)] = field.parse(e["value"])
    return FpMorphism(source, target, entries, field)


def encode_chain(m: ChainModule):
    return {
        "dims": list(m.dims),
        "maps": [[[str(v) for v in row] for row in mat] for mat in m.maps],
    }


def decode_chain(obj, field: Field) -> ChainModule:
    from .barcode import chain_module

    _record(obj, {"dims", "maps"}, "a chain module is {'dims': [...], 'maps': [[[...]]...]}")
    dims = obj["dims"]
    if not isinstance(dims, list) or not all(_is_int(d) for d in dims):
        raise SchemaError("dims must be a list of integers")
    maps = []
    for mat in _list(obj["maps"], "maps must be a list of matrices"):
        if not isinstance(mat, list) or not all(isinstance(r, list) for r in mat):
            raise SchemaError("each map must be a matrix (list of rows)")
        maps.append([[field.parse(v) for v in row] for row in mat])
    return chain_module(dims, maps, field)


def encode_barcode(b: Barcode):
    return {"bars": [{"start": s, "end": e, "mult": m} for s, e, m in b]}


def decode_barcode(obj) -> Barcode:
    from .barcode import Barcode

    _record(obj, {"bars"}, "a barcode is {'bars': [{'start':i,'end':j,'mult':m}, ...]}")
    bars = {}
    for e in _list(obj["bars"], "bars must be a list"):
        _record(e, {"start", "end", "mult"}, "a bar is {'start': i, 'end': j, 'mult': m}")
        s, t, m = e["start"], e["end"], e["mult"]
        if not all(_is_int(v) for v in (s, t, m)):
            raise SchemaError("bar fields must be integers")
        # checked per entry: merged, a negative entry could hide behind another
        if m < 1:
            raise DomainError("bad_barcode", "multiplicities must be positive")
        bars[(s, t)] = bars.get((s, t), 0) + m
    return Barcode(bars)


def encode_endpoint(e: DEndpoint):
    from .spectrum import BELOW_ALL

    point = "below_all" if e.point == BELOW_ALL else encode_dpoint(e.point)
    return {"point": point, "included": e.included}


def decode_endpoint(obj) -> DEndpoint:
    from .spectrum import BELOW_ALL, DEndpoint

    _record(obj, {"point", "included"}, "an endpoint is {'point': ideal|'below_all', 'included': bool}")
    included = obj["included"]
    if not isinstance(included, bool):
        raise SchemaError("included must be a boolean")
    if obj["point"] == "below_all":
        return DEndpoint(BELOW_ALL, included)
    return DEndpoint(decode_dpoint(obj["point"]), included)


def _encode_piece(model: IndexModel, lo, hi):
    from .spectrum import lower_endpoint_of_cut, upper_endpoint_of_cut

    return {
        "lo": encode_endpoint(lower_endpoint_of_cut(model, lo)),
        "hi": encode_endpoint(upper_endpoint_of_cut(model, hi)),
    }


def _decode_piece(model: IndexModel, obj):
    """The (lo, hi) cuts of one nonempty interval."""
    from .spectrum import interval_cuts

    _record(obj, {"lo", "hi"}, "a component is {'lo': endpoint, 'hi': endpoint}")
    return interval_cuts(model, decode_endpoint(obj["lo"]), decode_endpoint(obj["hi"]))


def encode_set(model: IndexModel, s: SymbolicSet):
    return {"components": [_encode_piece(model, lo, hi) for lo, hi in s.parts]}


def decode_set(model: IndexModel, obj) -> SymbolicSet:
    from .spectrum import SymbolicSet

    _record(obj, {"components"}, "a set is {'components': [{'lo': ..., 'hi': ...}, ...]}")
    components = _list(obj["components"], "components must be a list")
    return SymbolicSet([_decode_piece(model, comp) for comp in components])


def encode_region(model: IndexModel, r: SerreRegion):
    from .spectrum import cover_of_gap

    gaps = []
    for lo, hi in r.gaps.parts:
        cover = cover_of_gap(model, lo, hi)
        gaps.append(
            {
                "gap": _encode_piece(model, lo, hi),
                "covered": None if cover is None else _encode_piece(model, *cover),
            }
        )
    return {"gaps": gaps}


def decode_region(model: IndexModel, obj) -> SerreRegion:
    from .spectrum import SerreRegion, SymbolicSet, cover_of_gap

    _record(obj, {"gaps"}, "a region is {'gaps': [{'gap': ..., 'covered': ...}, ...]}")
    pieces = []
    for g in _list(obj["gaps"], "gaps must be a list"):
        _record(g, {"gap", "covered"}, "a gap entry is {'gap': interval, 'covered': interval|null}")
        gap = _decode_piece(model, g["gap"])
        covered = None if g["covered"] is None else _decode_piece(model, g["covered"])
        if covered != cover_of_gap(model, *gap):
            raise DomainError("bad_region", "a covered piece is not the union of the windows in its gap")
        pieces.append(gap)
    gaps = SymbolicSet(pieces)
    if len(gaps.cuts) != 2 * len(pieces):
        raise DomainError("bad_region", "the gaps of a region must not overlap or touch")
    return SerreRegion(gaps)


def encode_distance(d: ExtCoord):
    if is_inf(d):
        return {"infinite": True}
    return {"finite": encode_coord(d)}


def encode_bracket(b: DistanceBracket):
    if is_inf(b.upper):
        return {"infinite": True}
    return {"lower": encode_coord(b.lower), "upper": encode_coord(b.upper)}


def decode_generators(obj, n_summands: int, field: Field):
    from .fp_category import GeneratorElement

    out = []
    for g in _list(obj, "generators must be a list"):
        _record(g, {"position", "coeffs"}, "a generator is {'position': coord, 'coeffs': [scalar,...]}")
        coeffs = g["coeffs"]
        if not isinstance(coeffs, list) or len(coeffs) != n_summands:
            raise SchemaError(f"coeffs must list one scalar per summand ({n_summands})")
        out.append(
            GeneratorElement(decode_coord(g["position"]), tuple(field.parse(v) for v in coeffs))
        )
    return out
