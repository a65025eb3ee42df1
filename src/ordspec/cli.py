"""Command line front end; one subcommand per library operation.

Inputs are inline JSON by default; an argument of the form ``@path`` reads
the file at path and ``-`` reads standard input.  Interval arguments also
accept the shorthand "[a,b)" and "[a,inf)".  On success a single canonical
JSON document goes to stdout and the exit code is 0.  Domain errors exit 1
with {"error": {...}}; malformed input exits 2; a broken internal invariant
(a failed certificate or consistency check) exits 3 with the error kind
"internal_invariant".
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import jsonio
from .barcode import decompose as chain_decompose, rank_invariant, realize as chain_realize
from .errors import DomainError, SchemaError
from .fields import Field, QQ
from .fp_category import (
    cokernel,
    compose,
    hom_dim,
    hom_to_injective,
    is_flat,
    kernel,
    reduce_generators,
    validate_module,
)
from .interleaving import (
    ball,
    brute_force_distance,
    distance,
    is_interleaved,
    shift_ideal,
    shift_interval,
)
from .order_core import DENSE_RATIONAL_WITH_CUTS, DENSE_REAL, FiniteChain, classify_ideal
from .spectrum import (
    Strategy,
    closure,
    closure_all_strategies,
    complement,
    intersect,
    is_closed,
    left_orthogonal,
    member,
    right_orthogonal,
    separate,
    union,
)


def _load_text(value: str) -> str:
    if value == "-":
        return sys.stdin.read()
    if value.startswith("@"):
        try:
            with open(value[1:], "r", encoding="utf-8") as fh:
                return fh.read()
        except OSError as exc:
            raise SchemaError(f"cannot read input file {value[1:]!r}: {exc}") from exc
    return value


def _load_json(value: str):
    text = _load_text(value)
    try:
        return json.loads(text)
    except ValueError as exc:  # also an integer past Python's digit limit
        raise SchemaError(f"malformed JSON: {exc}") from exc


def _load_interval(value: str):
    text = _load_text(value).strip()
    if text.startswith("["):
        return jsonio.decode_interval(text)
    return jsonio.decode_interval(_load_json(value))


def _parse_model(name: str):
    if name == "dense":
        return DENSE_REAL
    if name == "dense-surd":
        return DENSE_RATIONAL_WITH_CUTS
    if name.startswith("chain:"):
        try:
            length = int(name.split(":", 1)[1])
        except ValueError as exc:
            raise SchemaError(f"bad chain length in {name!r}") from exc
        return FiniteChain(length)
    raise SchemaError(f"unknown model {name!r}; use dense, dense-surd or chain:<L>")


def _parse_field(name: str) -> Field:
    if name == "rat":
        return QQ
    if name.startswith("fp:"):
        try:
            p = int(name.split(":", 1)[1])
        except ValueError as exc:
            raise SchemaError(f"bad prime in {name!r}") from exc
        return Field(p)
    raise SchemaError(f"unknown field {name!r}; use rat or fp:<p>")


def _parse_eps(value: str) -> Fraction:
    try:
        return Fraction(_load_text(value))
    except (ValueError, ZeroDivisionError) as exc:
        raise SchemaError(f"bad rational {value!r}") from exc


_STRATEGIES = {
    "double-orth": Strategy.DOUBLE_ORTHOGONAL,
    "supinf": Strategy.SUP_INF_SATURATION,
    "order": Strategy.ORDER_TOPOLOGY,
}


# ---------------------------------------------------------------------------
# Handlers; each returns the JSON-ready object


def _cmd_hom(args, model, field):
    iv = _load_interval(args.interval)
    p = jsonio.decode_dpoint(_load_json(args.ideal))
    return {"dim": hom_to_injective(model, iv, p)}


def _cmd_hom_fp(args, model, field):
    x = _load_interval(args.x)
    y = _load_interval(args.y)
    return {"dim": hom_dim(x, y)}


def _cmd_compose(args, model, field):
    f = jsonio.decode_morphism(_load_json(args.f), field)
    g = jsonio.decode_morphism(_load_json(args.g), field)
    return jsonio.encode_morphism(compose(f, g))


def _cmd_kernel(args, model, field):
    f = jsonio.decode_morphism(_load_json(args.f), field)
    validate_module(model, f.source)
    validate_module(model, f.target)
    mod, mor = kernel(f)
    return {"module": jsonio.encode_module(mod), "morphism": jsonio.encode_morphism(mor)}


def _cmd_cokernel(args, model, field):
    f = jsonio.decode_morphism(_load_json(args.f), field)
    validate_module(model, f.source)
    validate_module(model, f.target)
    mod, mor = cokernel(f)
    return {"module": jsonio.encode_module(mod), "morphism": jsonio.encode_morphism(mor)}


def _cmd_reduce_gens(args, model, field):
    ambient = jsonio.decode_module(_load_json(args.ambient))
    gens = jsonio.decode_generators(_load_json(args.gens), len(ambient.summands), field)
    return {"retained": reduce_generators(ambient, gens, field)}


def _cmd_is_flat(args, model, field):
    m = jsonio.decode_chain(_load_json(args.module), field)
    return {"flat": is_flat(m)}


def _cmd_decompose(args, model, field):
    m = jsonio.decode_chain(_load_json(args.module), field)
    return jsonio.encode_barcode(chain_decompose(m))


def _cmd_realize(args, model, field):
    b = jsonio.decode_barcode(_load_json(args.barcode))
    return jsonio.encode_chain(chain_realize(b, args.length, field))


def _cmd_rank(args, model, field):
    m = jsonio.decode_chain(_load_json(args.module), field)
    return {"rank": rank_invariant(m, args.i, args.j)}


def _cmd_classify(args, model, field):
    p = jsonio.decode_dpoint(_load_json(args.ideal))
    return {"type": classify_ideal(model, p).value}


def _cmd_closure(args, model, field):
    u = jsonio.decode_set(model, _load_json(args.set))
    if args.strategy == "all":
        closed = closure_all_strategies(model, u)
    else:
        closed = closure(model, u, _STRATEGIES[args.strategy])
    return {"closed": closed == u, "closure": jsonio.encode_set(model, closed)}


def _cmd_is_closed(args, model, field):
    u = jsonio.decode_set(model, _load_json(args.set))
    return {"closed": is_closed(model, u)}


def _cmd_orthogonal(args, model, field):
    if args.direction == "left":
        if args.set is None:
            raise SchemaError("--direction left needs --set")
        u = jsonio.decode_set(model, _load_json(args.set))
        return jsonio.encode_region(model, left_orthogonal(model, u))
    if args.region is None:
        raise SchemaError("--direction right needs --region")
    r = jsonio.decode_region(model, _load_json(args.region))
    return jsonio.encode_set(model, right_orthogonal(model, r))


def _cmd_separate(args, model, field):
    p = jsonio.decode_dpoint(_load_json(args.p))
    q = jsonio.decode_dpoint(_load_json(args.q))
    first, second = separate(model, p, q)
    return {
        "first": jsonio.encode_set(model, first),
        "second": jsonio.encode_set(model, second),
    }


def _cmd_set(args, model, field):
    a = jsonio.decode_set(model, _load_json(args.a))
    if args.op == "union" or args.op == "intersect":
        if args.b is None:
            raise SchemaError(f"--op {args.op} needs --b")
        b = jsonio.decode_set(model, _load_json(args.b))
        out = union(a, b) if args.op == "union" else intersect(model, a, b)
        return jsonio.encode_set(model, out)
    if args.op == "complement":
        return jsonio.encode_set(model, complement(model, a))
    if args.point is None:
        raise SchemaError("--op member needs --point")
    p = jsonio.decode_dpoint(_load_json(args.point))
    return {"member": member(model, a, p)}


def _cmd_shift(args, model, field):
    eps = _parse_eps(args.eps)
    if args.interval is not None:
        iv = _load_interval(args.interval)
        return jsonio.encode_interval(shift_interval(model, iv, eps))
    if args.ideal is None:
        raise SchemaError("shift needs --interval or --ideal")
    p = jsonio.decode_dpoint(_load_json(args.ideal))
    return jsonio.encode_dpoint(shift_ideal(model, p, eps))


def _cmd_interleaved(args, model, field):
    p = jsonio.decode_dpoint(_load_json(args.p))
    q = jsonio.decode_dpoint(_load_json(args.q))
    return {"interleaved": is_interleaved(model, p, q, _parse_eps(args.eps))}


def _cmd_distance(args, model, field):
    p = jsonio.decode_dpoint(_load_json(args.p))
    q = jsonio.decode_dpoint(_load_json(args.q))
    return jsonio.encode_distance(distance(model, p, q))


def _cmd_ball(args, model, field):
    p = jsonio.decode_dpoint(_load_json(args.center))
    return jsonio.encode_set(model, ball(model, p, _parse_eps(args.eps)))


def _cmd_distance_oracle(args, model, field):
    p = jsonio.decode_dpoint(_load_json(args.p))
    q = jsonio.decode_dpoint(_load_json(args.q))
    return jsonio.encode_bracket(brute_force_distance(model, p, q, _parse_eps(args.step)))


# ---------------------------------------------------------------------------
# Parser


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("json", "text"), default="json")
    common.add_argument("--field", default="rat", help="rat or fp:<p>")
    common.add_argument(
        "--model", default="dense", help="dense, dense-surd or chain:<L>"
    )

    parser = argparse.ArgumentParser(prog="ordspec", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, handler, **arguments):
        p = sub.add_parser(name, parents=[common])
        for arg, opts in arguments.items():
            p.add_argument(f"--{arg.replace('_', '-')}", **opts)
        p.set_defaults(handler=handler)
        return p

    req = {"required": True}
    add("hom", _cmd_hom, interval=req, ideal=req)
    add("hom-fp", _cmd_hom_fp, x=req, y=req)
    add("compose", _cmd_compose, f=req, g=req)
    add("kernel", _cmd_kernel, f=req)
    add("cokernel", _cmd_cokernel, f=req)
    add("reduce-gens", _cmd_reduce_gens, ambient=req, gens=req)
    add("is-flat", _cmd_is_flat, module=req)
    add("decompose", _cmd_decompose, module=req)
    add("realize", _cmd_realize, barcode=req, length={"required": True, "type": int})
    add(
        "rank",
        _cmd_rank,
        module=req,
        i={"required": True, "type": int},
        j={"required": True, "type": int},
    )
    add("classify", _cmd_classify, ideal=req)
    add(
        "closure",
        _cmd_closure,
        set=req,
        strategy={"choices": ("double-orth", "supinf", "order", "all"), "default": "all"},
    )
    add("is-closed", _cmd_is_closed, set=req)
    add(
        "orthogonal",
        _cmd_orthogonal,
        direction={"choices": ("left", "right"), "required": True},
        set={"default": None},
        region={"default": None},
    )
    add("separate", _cmd_separate, p=req, q=req)
    add(
        "set",
        _cmd_set,
        op={"choices": ("union", "intersect", "complement", "member"), "required": True},
        a=req,
        b={"default": None},
        point={"default": None},
    )
    add("shift", _cmd_shift, interval={"default": None}, ideal={"default": None}, eps=req)
    add("interleaved", _cmd_interleaved, p=req, q=req, eps=req)
    add("distance", _cmd_distance, p=req, q=req)
    add("ball", _cmd_ball, center=req, eps=req)
    add("distance-oracle", _cmd_distance_oracle, p=req, q=req, step=req)
    return parser


def _render_text(obj, indent="") -> str:
    if isinstance(obj, dict):
        lines = []
        for key in sorted(obj):
            value = obj[key]
            if isinstance(value, (dict, list)):
                lines.append(f"{indent}{key}:")
                lines.append(_render_text(value, indent + "  "))
            else:
                lines.append(f"{indent}{key}: {value}")
        return "\n".join(lines)
    if isinstance(obj, list):
        if not obj:
            return f"{indent}(none)"
        lines = []
        for value in obj:
            if isinstance(value, (dict, list)):
                lines.append(f"{indent}-")
                lines.append(_render_text(value, indent + "  "))
            else:
                lines.append(f"{indent}- {value}")
        return "\n".join(lines)
    return f"{indent}{obj}"


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    model_spec = getattr(args, "model", "dense")
    field_spec = getattr(args, "field", "rat")
    try:
        model = _parse_model(model_spec)
        field = _parse_field(field_spec)
        result = args.handler(args, model, field)
    except DomainError as exc:
        return _fail(exc.kind, exc.detail, 1)
    except SchemaError as exc:
        return _fail("schema", str(exc), 2)
    except AssertionError as exc:
        return _fail("internal_invariant", str(exc), 3)
    if args.format == "text":
        print(_render_text(result))
    else:
        print(json.dumps(result, sort_keys=True, separators=(",", ":")))
    return 0


def _fail(kind: str, detail: str, code: int) -> int:
    doc = {"error": {"kind": kind, "detail": detail}}
    print(json.dumps(doc, sort_keys=True, separators=(",", ":")))
    return code


if __name__ == "__main__":
    sys.exit(main())
