"""Command line front end; one subcommand per library operation.

Inputs are inline JSON by default; an argument of the form ``@path`` reads
the file at path and ``-`` reads standard input.  Interval arguments also
accept the shorthand "[a,b)" and "[a,inf)".  Every interval read, on its own
or as a summand, must have its finite ends in the index set of ``--model``.
Generator positions of ``reduce-gens`` must be elements too.
On success a single canonical JSON document goes to stdout and the exit code
is 0.  Domain errors exit 1 with {"error": {...}}; malformed input exits 2; a
broken internal invariant (a failed certificate or consistency check) exits 3
with the error kind "internal_invariant".
"""

from __future__ import annotations

import argparse
import importlib
import json
import sys
from fractions import Fraction

from . import jsonio
from .errors import DomainError, SchemaError
from .fields import Field, QQ, parse_rational
from .order_core import DENSE_RATIONAL_WITH_CUTS, DENSE_REAL, FiniteChain
from .order_core import validate_interval, validate_module


def _lib(layer: str):
    """The library module ``ordspec.<layer>``, imported on first use."""
    return importlib.import_module(f"{__package__}.{layer}")


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


def _suffix_int(name: str, what: str) -> int:
    """The integer after the ':' of ``<name>:<int>``."""
    try:
        return int(name.split(":", 1)[1])
    except ValueError as exc:
        raise SchemaError(f"bad {what} in {name!r}") from exc


def _parse_model(name: str):
    if name == "dense":
        return DENSE_REAL
    if name == "dense-surd":
        return DENSE_RATIONAL_WITH_CUTS
    if name.startswith("chain:"):
        return FiniteChain(_suffix_int(name, "chain length"))
    raise SchemaError(f"unknown model {name!r}; use dense, dense-surd or chain:<L>")


def _parse_field(name: str) -> Field:
    if name == "rat":
        return QQ
    if name.startswith("fp:"):
        return Field(_suffix_int(name, "prime"))
    raise SchemaError(f"unknown field {name!r}; use rat or fp:<p>")


def _parse_eps(value: str) -> Fraction:
    try:
        return parse_rational(_load_text(value))
    except (ValueError, ZeroDivisionError) as exc:
        raise SchemaError(f"bad rational {value!r}") from exc


# ---------------------------------------------------------------------------
# Readers: flag -> (text, model, field) -> value.  A flag means the same thing
# in every subcommand.  Flags without a reader (the integers and the modes)
# reach the call as argparse parsed them.  The readers of the values that
# hold intervals check each one against the model.


def _read_interval(text: str, model, field):
    text = _load_text(text)  # once: standard input cannot be read twice
    shorthand = text.strip()
    iv = jsonio.decode_interval(shorthand if shorthand.startswith("[") else _parse_json(text))
    validate_interval(model, iv)
    return iv


def _read_morphism(text: str, model, field: Field):
    f = jsonio.decode_morphism(_load_json(text), field)
    validate_module(model, f.source)
    validate_module(model, f.target)
    return f


def _read_ambient(text: str, model, field):
    m = jsonio.decode_module(_load_json(text))
    validate_module(model, m)
    return m


_READERS = {
    **dict.fromkeys(("interval", "x", "y"), _read_interval),
    **dict.fromkeys(
        ("ideal", "p", "q", "center", "point"),
        lambda text, model, field: jsonio.decode_dpoint(_load_json(text)),
    ),
    **dict.fromkeys(("f", "g"), _read_morphism),
    "module": lambda text, model, field: jsonio.decode_chain(_load_json(text), field),
    "ambient": _read_ambient,
    # plain JSON: _reduce_gens decodes it against the ambient's summand count
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
# A call looks its function up on the function's module when it runs, as
# ``_lib("spectrum").closure``, rather than the tables storing it: so a call
# imports only the layers it uses, and a function rebound on its module
# (bench/tracing.py does so) reaches every call.


def _exact(r, op: str):
    mod, mor = getattr(_lib("fp_category"), op)(r("f"))
    return {"module": jsonio.encode_module(mod), "morphism": jsonio.encode_morphism(mor)}


def _reduce_gens(r):
    ambient = r("ambient")
    gens = jsonio.decode_generators(r("gens"), len(ambient.summands), r.field)
    for g in gens:  # checked as the readers check intervals
        if not r.model.is_member(g.position):
            raise DomainError("bad_generator", f"position {g.position} is not an element of T")
    return {"retained": _lib("fp_category").reduce_generators(ambient, gens, r.field)}


def _separate(r):
    first, second = _lib("spectrum").separate(r.model, r("p"), r("q"))
    return {
        "first": jsonio.encode_set(r.model, first),
        "second": jsonio.encode_set(r.model, second),
    }


def _closure(r, strategy: str):
    spectrum = _lib("spectrum")
    u = r("set")
    if strategy == "all":
        closed = spectrum.closure_all_strategies(r.model, u)
    else:
        closed = spectrum.closure(r.model, u, spectrum.Strategy(strategy))
    return {"closed": closed == u, "closure": jsonio.encode_set(r.model, closed)}


def _shift(r):
    eps = r("eps")  # read first: a bad --eps is reported before a bad shape
    if r.args.interval is not None:  # --interval wins over --ideal
        return jsonio.encode_interval(_lib("interleaving").shift_interval(r.model, r("interval"), eps))
    if r.args.ideal is not None:
        return jsonio.encode_dpoint(_lib("interleaving").shift_ideal(r.model, r("ideal"), eps))
    raise SchemaError("shift needs --interval or --ideal")


# ---------------------------------------------------------------------------
# Commands: subcommand -> its flags (argparse options), its call, and, for a
# subcommand with modes, the flag whose value picks the call from a dict (the
# dict's keys are that flag's choices).


class _Command:
    __slots__ = ("flags", "call", "mode")

    def __init__(self, flags: dict, call, mode: str | None = None):
        self.flags = flags
        self.call = call  # request -> JSON-ready object, or mode value -> such a call
        self.mode = mode


_REQ = {"required": True}
_OPT = {"default": None}
_INT = {"required": True, "type": int}

_COMMANDS = {
    "hom": _Command(
        {"interval": _REQ, "ideal": _REQ},
        lambda r: {"dim": _lib("fp_category").hom_to_injective(r.model, r("interval"), r("ideal"))},
    ),
    "hom-fp": _Command(
        {"x": _REQ, "y": _REQ}, lambda r: {"dim": _lib("fp_category").hom_dim(r("x"), r("y"))}
    ),
    "compose": _Command(
        {"f": _REQ, "g": _REQ},
        lambda r: jsonio.encode_morphism(_lib("fp_category").compose(r("f"), r("g"))),
    ),
    "kernel": _Command({"f": _REQ}, lambda r: _exact(r, "kernel")),
    "cokernel": _Command({"f": _REQ}, lambda r: _exact(r, "cokernel")),
    "reduce-gens": _Command({"ambient": _REQ, "gens": _REQ}, _reduce_gens),
    "is-flat": _Command({"module": _REQ}, lambda r: {"flat": _lib("barcode").is_flat(r("module"))}),
    "decompose": _Command(
        {"module": _REQ}, lambda r: jsonio.encode_barcode(_lib("barcode").decompose(r("module")))
    ),
    "realize": _Command(
        {"barcode": _REQ, "length": _INT},
        lambda r: jsonio.encode_chain(_lib("barcode").realize(r("barcode"), r("length"), r.field)),
    ),
    "rank": _Command(
        {"module": _REQ, "i": _INT, "j": _INT},
        lambda r: {"rank": _lib("barcode").rank_invariant(r("module"), r("i"), r("j"))},
    ),
    "classify": _Command(
        {"ideal": _REQ},
        lambda r: {"type": _lib("order_core").classify_ideal(r.model, r("ideal")).value},
    ),
    # the strategies in the order of spectrum.Strategy, then "all"
    "closure": _Command(
        {"set": _REQ, "strategy": {"default": "all"}},
        {
            s: lambda r, s=s: _closure(r, s)
            for s in ("double-orth", "supinf", "order", "all")
        },
        mode="strategy",
    ),
    "is-closed": _Command(
        {"set": _REQ}, lambda r: {"closed": _lib("spectrum").is_closed(r.model, r("set"))}
    ),
    "orthogonal": _Command(
        {"direction": _REQ, "set": _OPT, "region": _OPT},
        {
            "left": lambda r: jsonio.encode_region(
                r.model, _lib("spectrum").left_orthogonal(r.model, r("set"))
            ),
            "right": lambda r: jsonio.encode_set(
                r.model, _lib("spectrum").right_orthogonal(r.model, r("region"))
            ),
        },
        mode="direction",
    ),
    "separate": _Command({"p": _REQ, "q": _REQ}, _separate),
    "set": _Command(
        {"op": _REQ, "a": _REQ, "b": _OPT, "point": _OPT},
        {
            "union": lambda r: jsonio.encode_set(r.model, _lib("spectrum").union(r("a"), r("b"))),
            "intersect": lambda r: jsonio.encode_set(
                r.model, _lib("spectrum").intersect(r.model, r("a"), r("b"))
            ),
            "complement": lambda r: jsonio.encode_set(
                r.model, _lib("spectrum").complement(r.model, r("a"))
            ),
            "member": lambda r: {"member": _lib("spectrum").member(r.model, r("a"), r("point"))},
        },
        mode="op",
    ),
    "shift": _Command({"interval": _OPT, "ideal": _OPT, "eps": _REQ}, _shift),
    "interleaved": _Command(
        {"p": _REQ, "q": _REQ, "eps": _REQ},
        lambda r: {
            "interleaved": _lib("interleaving").is_interleaved(r.model, r("p"), r("q"), r("eps"))
        },
    ),
    "distance": _Command(
        {"p": _REQ, "q": _REQ},
        lambda r: jsonio.encode_distance(_lib("interleaving").distance(r.model, r("p"), r("q"))),
    ),
    "ball": _Command(
        {"center": _REQ, "eps": _REQ},
        lambda r: jsonio.encode_set(
            r.model, _lib("interleaving").ball(r.model, r("center"), r("eps"))
        ),
    ),
    "distance-oracle": _Command(
        {"p": _REQ, "q": _REQ, "step": _REQ},
        lambda r: jsonio.encode_bracket(
            _lib("interleaving").brute_force_distance(r.model, r("p"), r("q"), r("step"))
        ),
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


class _Parser(argparse.ArgumentParser):
    """An argument parser whose errors (a bad choice, a missing flag, a value
    read as an option, no subcommand) raise SchemaError, so that ``main``
    reports them like any other malformed input: a JSON error document and
    exit 2.  Subparsers are made of the parser's own class, so they share
    this."""

    def error(self, message):
        raise SchemaError(f"{self.prog}: {message}")

    def parse_args(self, args=None, namespace=None):
        parsed = super().parse_args(args, namespace)
        for flag, value in vars(parsed).items():
            # argparse drops the value of --flag=-- and stores an empty list,
            # past any choices or type check
            if isinstance(value, list):
                self.error(f"argument --{flag}: expected one argument")
        return parsed


def _build_parser(argv=None) -> argparse.ArgumentParser:
    """The parser of every subcommand, or, when argv starts with a subcommand,
    of that one alone: no other subparser can take part in parsing such an
    argv, and building all of them costs more than a small call's work."""
    names = [argv[0]] if argv and argv[0] in _COMMANDS else _COMMANDS
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("json", "text"), default="json")
    common.add_argument("--field", default="rat", help="rat or fp:<p>")
    common.add_argument(
        "--model", default="dense", help="dense, dense-surd or chain:<L>"
    )

    parser = _Parser(prog="ordspec", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in names:
        command = _COMMANDS[name]
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
    try:
        argv = sys.argv[1:] if argv is None else list(argv)
        args = _build_parser(argv).parse_args(argv)
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
