"""JSON codecs for every value the library exchanges.

Encoders produce canonical forms (sorted summands, canonical set
components, reduced rationals) so that equal values serialize to equal
documents.  Decoders are strict: anything off-schema raises SchemaError,
while well-formed data describing an invalid value surfaces the library's
DomainError.
"""

from __future__ import annotations

from fractions import Fraction

from .barcode import Barcode, ChainModule, barcode, chain_module
from .coords import Coord, ExtCoord, INF, is_inf
from .errors import SchemaError
from .fields import Field, parse_rational
from .fp_category import FpInterval, FpModule, FpMorphism, GeneratorElement
from .interleaving import DistanceBracket, ExtDistance
from .order_core import DPoint, Flavor, IndexModel
from .spectrum import (
    BELOW_ALL,
    DEndpoint,
    SerreRegion,
    SymbolicSet,
    interval_set,
    lower_endpoint_of_cut,
    union,
    upper_endpoint_of_cut,
    EMPTY_SET,
)


def _is_int(v) -> bool:
    """A JSON integer; JSON booleans are not integers here."""
    return isinstance(v, int) and not isinstance(v, bool)


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
    if not isinstance(obj, dict) or set(obj) != {"coord", "flavor"}:
        raise SchemaError("an ideal is {'coord': ..., 'flavor': 'strict'|'principal'}")
    flavor = obj["flavor"]
    if flavor not in ("strict", "principal"):
        raise SchemaError(f"unknown flavor {flavor!r}")
    return DPoint(decode_ext_coord(obj["coord"]), Flavor(flavor))


def encode_interval(iv: FpInterval):
    return {"start": encode_coord(iv.start), "end": encode_ext_coord(iv.end)}


def decode_interval(obj) -> FpInterval:
    if isinstance(obj, str):
        return _interval_from_shorthand(obj)
    if not isinstance(obj, dict) or set(obj) != {"start", "end"}:
        raise SchemaError("an interval is {'start': coord, 'end': coord|'inf'}")
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
    if not isinstance(obj, dict) or set(obj) != {"summands"}:
        raise SchemaError("a module is {'summands': [interval, ...]}")
    if not isinstance(obj["summands"], list):
        raise SchemaError("summands must be a list")
    return FpModule(tuple(decode_interval(o) for o in obj["summands"]))


def encode_morphism(f: FpMorphism):
    entries = [
        {"from": i, "to": j, "value": f.field.fmt(v)}
        for (i, j), v in sorted(f.entries.items())
    ]
    return {
        "source": encode_module(f.source),
        "target": encode_module(f.target),
        "entries": entries,
    }


def decode_morphism(obj, field: Field) -> FpMorphism:
    if not isinstance(obj, dict) or set(obj) != {"source", "target", "entries"}:
        raise SchemaError("a morphism is {'source': ..., 'target': ..., 'entries': [...]}")
    source = decode_module(obj["source"])
    target = decode_module(obj["target"])
    entries = {}
    if not isinstance(obj["entries"], list):
        raise SchemaError("entries must be a list")
    for e in obj["entries"]:
        if not isinstance(e, dict) or set(e) != {"from", "to", "value"}:
            raise SchemaError("an entry is {'from': i, 'to': j, 'value': scalar}")
        i, j = e["from"], e["to"]
        if not _is_int(i) or not _is_int(j):
            raise SchemaError("entry indices must be integers")
        entries[(i, j)] = field.parse(e["value"])
    return FpMorphism(source, target, entries, field)


def encode_chain(m: ChainModule):
    return {
        "dims": list(m.dims),
        "maps": [[[m.field.fmt(v) for v in row] for row in mat] for mat in m.maps],
    }


def decode_chain(obj, field: Field) -> ChainModule:
    if not isinstance(obj, dict) or set(obj) != {"dims", "maps"}:
        raise SchemaError("a chain module is {'dims': [...], 'maps': [[[...]]...]}")
    dims = obj["dims"]
    if not isinstance(dims, list) or not all(_is_int(d) for d in dims):
        raise SchemaError("dims must be a list of integers")
    maps = []
    if not isinstance(obj["maps"], list):
        raise SchemaError("maps must be a list of matrices")
    for mat in obj["maps"]:
        if not isinstance(mat, list) or not all(isinstance(r, list) for r in mat):
            raise SchemaError("each map must be a matrix (list of rows)")
        maps.append([[field.parse(v) for v in row] for row in mat])
    return chain_module(dims, maps, field)


def encode_barcode(b: Barcode):
    return {"bars": [{"start": s, "end": e, "mult": m} for s, e, m in b]}


def decode_barcode(obj) -> Barcode:
    if not isinstance(obj, dict) or set(obj) != {"bars"}:
        raise SchemaError("a barcode is {'bars': [{'start':i,'end':j,'mult':m}, ...]}")
    if not isinstance(obj["bars"], list):
        raise SchemaError("bars must be a list")
    bars = {}
    for e in obj["bars"]:
        if not isinstance(e, dict) or set(e) != {"start", "end", "mult"}:
            raise SchemaError("a bar is {'start': i, 'end': j, 'mult': m}")
        s, t, m = e["start"], e["end"], e["mult"]
        if not all(_is_int(v) for v in (s, t, m)):
            raise SchemaError("bar fields must be integers")
        bars[(s, t)] = bars.get((s, t), 0) + m
    return barcode(bars)


def encode_endpoint(e: DEndpoint):
    point = "below_all" if e.point == BELOW_ALL else encode_dpoint(e.point)
    return {"point": point, "included": e.included}


def decode_endpoint(obj) -> DEndpoint:
    if not isinstance(obj, dict) or set(obj) != {"point", "included"}:
        raise SchemaError("an endpoint is {'point': ideal|'below_all', 'included': bool}")
    included = obj["included"]
    if not isinstance(included, bool):
        raise SchemaError("included must be a boolean")
    if obj["point"] == "below_all":
        return DEndpoint(BELOW_ALL, included)
    return DEndpoint(decode_dpoint(obj["point"]), included)


def encode_set(model: IndexModel, s: SymbolicSet):
    comps = []
    for lo, hi in s.parts:
        comps.append(
            {
                "lo": encode_endpoint(lower_endpoint_of_cut(model, lo)),
                "hi": encode_endpoint(upper_endpoint_of_cut(model, hi)),
            }
        )
    return {"components": comps}


def decode_set(model: IndexModel, obj) -> SymbolicSet:
    if not isinstance(obj, dict) or set(obj) != {"components"}:
        raise SchemaError("a set is {'components': [{'lo': ..., 'hi': ...}, ...]}")
    acc = EMPTY_SET
    if not isinstance(obj["components"], list):
        raise SchemaError("components must be a list")
    for comp in obj["components"]:
        if not isinstance(comp, dict) or set(comp) != {"lo", "hi"}:
            raise SchemaError("a component is {'lo': endpoint, 'hi': endpoint}")
        iv = interval_set(model, decode_endpoint(comp["lo"]), decode_endpoint(comp["hi"]))
        acc = union(acc, iv)
    return acc


def encode_region(model: IndexModel, r: SerreRegion):
    gaps = []
    for (lo, hi), cover in r.gaps:
        gap_obj = {
            "lo": encode_endpoint(lower_endpoint_of_cut(model, lo)),
            "hi": encode_endpoint(upper_endpoint_of_cut(model, hi)),
        }
        if cover is None:
            covered_obj = None
        else:
            covered_obj = {
                "lo": encode_endpoint(lower_endpoint_of_cut(model, cover[0])),
                "hi": encode_endpoint(upper_endpoint_of_cut(model, cover[1])),
            }
        gaps.append({"gap": gap_obj, "covered": covered_obj})
    return {"gaps": gaps}


def decode_region(model: IndexModel, obj) -> SerreRegion:
    if not isinstance(obj, dict) or set(obj) != {"gaps"}:
        raise SchemaError("a region is {'gaps': [{'gap': ..., 'covered': ...}, ...]}")
    if not isinstance(obj["gaps"], list):
        raise SchemaError("gaps must be a list")
    gaps = []
    for g in obj["gaps"]:
        if not isinstance(g, dict) or set(g) != {"gap", "covered"}:
            raise SchemaError("a gap entry is {'gap': interval, 'covered': interval|null}")
        gap_set = decode_set(model, {"components": [g["gap"]]})
        if len(gap_set.parts) != 1:
            raise SchemaError("a gap must be a single interval")
        cover = None
        if g["covered"] is not None:
            cover_set = decode_set(model, {"components": [g["covered"]]})
            if len(cover_set.parts) != 1:
                raise SchemaError("a covered piece must be a single interval")
            cover = cover_set.parts[0]
        gaps.append((gap_set.parts[0], cover))
    return SerreRegion(tuple(gaps))


def encode_distance(d: ExtDistance):
    if d.is_infinite:
        return {"infinite": True}
    return {"finite": encode_coord(d.value)}


def encode_bracket(b: DistanceBracket):
    if b.is_infinite:
        return {"infinite": True}
    return {"lower": str(b.lower), "upper": str(b.upper)}


def decode_generators(obj, n_summands: int, field: Field):
    if not isinstance(obj, list):
        raise SchemaError("generators must be a list")
    out = []
    for g in obj:
        if not isinstance(g, dict) or set(g) != {"position", "coeffs"}:
            raise SchemaError("a generator is {'position': coord, 'coeffs': [scalar,...]}")
        coeffs = g["coeffs"]
        if not isinstance(coeffs, list) or len(coeffs) != n_summands:
            raise SchemaError(f"coeffs must list one scalar per summand ({n_summands})")
        out.append(
            GeneratorElement(decode_coord(g["position"]), tuple(field.parse(v) for v in coeffs))
        )
    return out
