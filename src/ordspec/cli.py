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
from typing import NamedTuple

from . import jsonio
from .barcode import decompose as chain_decompose, rank_invariant, realize as chain_realize
from .errors import DomainError, SchemaError
from .fields import Field, QQ, parse_rational
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


def _parse_json(text: str):
    try:
        return json.loads(text)
    except ValueError as exc:  # also an integer past Python's digit limit
        raise SchemaError(f"malformed JSON: {exc}") from exc


def _load_json(value: str):
    return _parse_json(_load_text(value))


def _load_interval(value: str):
    text = _load_text(value)  # once: standard input cannot be read twice
    shorthand = text.strip()
    return jsonio.decode_interval(shorthand if shorthand.startswith("[") else _parse_json(text))


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
        return parse_rational(_load_text(value))
    except (ValueError, ZeroDivisionError) as exc:
        raise SchemaError(f"bad rational {value!r}") from exc


# ---------------------------------------------------------------------------
# Readers: flag -> (text, model, field) -> value.  A flag means the same thing
# in every subcommand.  Flags without a reader (the integers and the modes)
# reach the call as argparse parsed them.

_READERS = {
    **dict.fromkeys(("interval", "x", "y"), lambda text, model, field: _load_interval(text)),
    **dict.fromkeys(
        ("ideal", "p", "q", "center", "point"),
        lambda text, model, field: jsonio.decode_dpoint(_load_json(text)),
    ),
    **dict.fromkeys(
        ("f", "g"), lambda text, model, field: jsonio.decode_morphism(_load_json(text), field)
    ),
    "module": lambda text, model, field: jsonio.decode_chain(_load_json(text), field),
    "ambient": lambda text, model, field: jsonio.decode_module(_load_json(text)),
    # plain JSON: the call decodes it against the ambient's summand count
    "gens": lambda text, model, field: _load_json(text),
    **dict.fromkeys(
        ("set", "a", "b"), lambda text, model, field: jsonio.decode_set(model, _load_json(text))
    ),
    "region": lambda text, model, field: jsonio.decode_region(model, _load_json(text)),
    "barcode": lambda text, model, field: jsonio.decode_barcode(_load_json(text)),
    **dict.fromkeys(("eps", "step"), lambda text, model, field: _parse_eps(text)),
}


class _Request:
    """One call's parsed flags; ``r(flag)`` decodes a flag when the call reads
    it, so a flag the call never reads is never decoded, and errors come in
    the order the call reads its flags."""

    def __init__(self, args, model, field, needs: str):
        self.args, self.model, self.field = args, model, field
        self.needs = needs  # what a missing flag is reported as needed by

    def __call__(self, flag: str):
        text = getattr(self.args, flag)
        if text is None:
            raise SchemaError(f"{self.needs} needs --{flag}")
        read = _READERS.get(flag)
        return text if read is None else read(text, self.model, self.field)


# ---------------------------------------------------------------------------
# Calls; each runs one library function and returns the JSON-ready object.
# The calls name library functions at call time rather than storing them in
# the tables, so a name rebound in this module (bench/tracing.py does so)
# reaches every call.


def _exact(r, op):
    f = r("f")
    validate_module(r.model, f.source)
    validate_module(r.model, f.target)
    mod, mor = op(f)
    return {"module": jsonio.encode_module(mod), "morphism": jsonio.encode_morphism(mor)}


def _reduce_gens(r):
    ambient = r("ambient")
    gens = jsonio.decode_generators(r("gens"), len(ambient.summands), r.field)
    return {"retained": reduce_generators(ambient, gens, r.field)}


def _separate(r):
    first, second = separate(r.model, r("p"), r("q"))
    return {
        "first": jsonio.encode_set(r.model, first),
        "second": jsonio.encode_set(r.model, second),
    }


def _closure(r, close):
    u = r("set")
    closed = close(r.model, u)
    return {"closed": closed == u, "closure": jsonio.encode_set(r.model, closed)}


_SHIFTS = {
    "interval": lambda r, eps: jsonio.encode_interval(shift_interval(r.model, r("interval"), eps)),
    "ideal": lambda r, eps: jsonio.encode_dpoint(shift_ideal(r.model, r("ideal"), eps)),
}


def _shift(r):
    eps = r("eps")  # read first: a bad --eps is reported before a bad shape
    for flag, call in _SHIFTS.items():
        if getattr(r.args, flag) is not None:
            return call(r, eps)
    raise SchemaError("shift needs --interval or --ideal")


# ---------------------------------------------------------------------------
# Commands: subcommand -> its flags (argparse options), its call, and, for a
# subcommand with modes, the flag whose value picks the call from a dict (the
# dict's keys are that flag's choices).


class _Command(NamedTuple):
    flags: dict
    call: object  # request -> JSON-ready object, or mode value -> such a call
    mode: str | None = None


_REQ = {"required": True}
_OPT = {"default": None}
_INT = {"required": True, "type": int}

_COMMANDS = {
    "hom": _Command(
        {"interval": _REQ, "ideal": _REQ},
        lambda r: {"dim": hom_to_injective(r.model, r("interval"), r("ideal"))},
    ),
    "hom-fp": _Command({"x": _REQ, "y": _REQ}, lambda r: {"dim": hom_dim(r("x"), r("y"))}),
    "compose": _Command(
        {"f": _REQ, "g": _REQ}, lambda r: jsonio.encode_morphism(compose(r("f"), r("g")))
    ),
    "kernel": _Command({"f": _REQ}, lambda r: _exact(r, kernel)),
    "cokernel": _Command({"f": _REQ}, lambda r: _exact(r, cokernel)),
    "reduce-gens": _Command({"ambient": _REQ, "gens": _REQ}, _reduce_gens),
    "is-flat": _Command({"module": _REQ}, lambda r: {"flat": is_flat(r("module"))}),
    "decompose": _Command(
        {"module": _REQ}, lambda r: jsonio.encode_barcode(chain_decompose(r("module")))
    ),
    "realize": _Command(
        {"barcode": _REQ, "length": _INT},
        lambda r: jsonio.encode_chain(chain_realize(r("barcode"), r("length"), r.field)),
    ),
    "rank": _Command(
        {"module": _REQ, "i": _INT, "j": _INT},
        lambda r: {"rank": rank_invariant(r("module"), r("i"), r("j"))},
    ),
    "classify": _Command(
        {"ideal": _REQ}, lambda r: {"type": classify_ideal(r.model, r("ideal")).value}
    ),
    "closure": _Command(
        {"set": _REQ, "strategy": {"default": "all"}},
        {
            **{
                s.value: lambda r, s=s: _closure(r, lambda model, u: closure(model, u, s))
                for s in Strategy
            },
            "all": lambda r: _closure(r, closure_all_strategies),
        },
        mode="strategy",
    ),
    "is-closed": _Command({"set": _REQ}, lambda r: {"closed": is_closed(r.model, r("set"))}),
    "orthogonal": _Command(
        {"direction": _REQ, "set": _OPT, "region": _OPT},
        {
            "left": lambda r: jsonio.encode_region(r.model, left_orthogonal(r.model, r("set"))),
            "right": lambda r: jsonio.encode_set(r.model, right_orthogonal(r.model, r("region"))),
        },
        mode="direction",
    ),
    "separate": _Command({"p": _REQ, "q": _REQ}, _separate),
    "set": _Command(
        {"op": _REQ, "a": _REQ, "b": _OPT, "point": _OPT},
        {
            "union": lambda r: jsonio.encode_set(r.model, union(r("a"), r("b"))),
            "intersect": lambda r: jsonio.encode_set(
                r.model, intersect(r.model, r("a"), r("b"))
            ),
            "complement": lambda r: jsonio.encode_set(r.model, complement(r.model, r("a"))),
            "member": lambda r: {"member": member(r.model, r("a"), r("point"))},
        },
        mode="op",
    ),
    "shift": _Command({"interval": _OPT, "ideal": _OPT, "eps": _REQ}, _shift),
    "interleaved": _Command(
        {"p": _REQ, "q": _REQ, "eps": _REQ},
        lambda r: {"interleaved": is_interleaved(r.model, r("p"), r("q"), r("eps"))},
    ),
    "distance": _Command(
        {"p": _REQ, "q": _REQ},
        lambda r: jsonio.encode_distance(distance(r.model, r("p"), r("q"))),
    ),
    "ball": _Command(
        {"center": _REQ, "eps": _REQ},
        lambda r: jsonio.encode_set(r.model, ball(r.model, r("center"), r("eps"))),
    ),
    "distance-oracle": _Command(
        {"p": _REQ, "q": _REQ, "step": _REQ},
        lambda r: jsonio.encode_bracket(brute_force_distance(r.model, r("p"), r("q"), r("step"))),
    ),
}


def _run(args, model, field):
    """Run the call of ``args.command``, picked by its mode flag where it has one."""
    command = _COMMANDS[args.command]
    call, needs = command.call, args.command
    if command.mode is not None:
        value = getattr(args, command.mode)
        call, needs = call[value], f"--{command.mode} {value}"
    return call(_Request(args, model, field, needs))


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
    for name, command in _COMMANDS.items():
        p = sub.add_parser(name, parents=[common])
        for flag, opts in command.flags.items():
            if flag == command.mode:
                opts = {**opts, "choices": tuple(command.call)}
            p.add_argument(f"--{flag}", **opts)
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
    args = _build_parser().parse_args(argv)
    try:
        model = _parse_model(args.model)
        field = _parse_field(args.field)
        result = _run(args, model, field)
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
