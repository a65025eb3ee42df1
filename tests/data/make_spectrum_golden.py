"""Write ``spectrum_golden.json``: seeded calls of every subcommand but
``kernel`` and ``cokernel`` (``make_exact_golden.py`` records those), with
their standard output and exit code.

    PYTHONPATH=src python tests/data/make_spectrum_golden.py

``test_outputs_match_the_spectrum_golden_file`` in ``tests/test_cli.py``
replays the recorded argvs and requires the same output and exit code byte
for byte, so a change to the order of ideals, the window of an interval or
the cuts of a set that is meant to keep every answer is checked against the
outputs recorded before it.  Rerun this script only when the outputs are
meant to change.

The first calls (seed 8101) are ``hom``, ``separate``, ``interleaved``,
``distance-oracle``, ``ball``, ``set --op member`` and ``orthogonal`` in
both directions, under ``dense`` and ``dense-surd`` (surd coordinates
k + sqrt(d)/4, strict only under ``dense-surd``), and ``hom`` also under
``chain:5``.  The calls after them (seed 8102, so the first ones stay as
they were recorded) cover the rest: ``closure`` under each ``--strategy``,
``is-closed``, ``set --op union|intersect|complement``, ``classify``,
``distance``, ``shift --interval|--ideal``, ``hom-fp``, ``compose`` and
``reduce-gens`` over QQ and F_p, and ``is-flat``, ``decompose``, ``realize``
and ``rank`` on chain modules.  A few argvs per subcommand ask for
something the library refuses, so error outputs are recorded too.
"""

from __future__ import annotations

import io
import json
import os
import random
from contextlib import redirect_stdout
from fractions import Fraction
from functools import cmp_to_key

from ordspec import (
    DENSE_RATIONAL_WITH_CUTS,
    DENSE_REAL,
    Coord,
    DEndpoint,
    DPoint,
    DomainError,
    EMPTY_SET,
    Field,
    Flavor,
    FpInterval,
    FpModule,
    FpMorphism,
    INF,
    QQ,
    cmp_d,
    hom_dim,
    interval_set,
    left_orthogonal,
    union,
)
from ordspec import cli, jsonio

OUT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "spectrum_golden.json")
MODELS = {"dense": DENSE_REAL, "dense-surd": DENSE_RATIONAL_WITH_CUTS}


def _dump(doc) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def _coord(rng: random.Random, surds: bool) -> Coord:
    k = Fraction(rng.randint(-6, 6), rng.choice((1, 1, 2, 3)))
    if surds and rng.random() < 0.3:
        return Coord(k, Fraction(1, 4), rng.choice((2, 3)))
    return Coord(k)


def _point(rng: random.Random, model) -> DPoint:
    if rng.random() < 0.1:
        return DPoint(INF, Flavor.STRICT)
    c = _coord(rng, model is DENSE_RATIONAL_WITH_CUTS)
    if model.is_member(c) and rng.random() < 0.5:
        return DPoint(c, Flavor.PRINCIPAL)
    return DPoint(c, Flavor.STRICT)


def _set(rng: random.Random, model):
    out = EMPTY_SET
    for _ in range(rng.randint(1, 4)):
        pair = (_point(rng, model), _point(rng, model))
        p, q = sorted(pair, key=cmp_to_key(lambda x, y: cmp_d(model, x, y).value))
        lo = DEndpoint(p, rng.random() < 0.5)
        hi = DEndpoint(q, rng.random() < 0.5)
        try:
            out = union(out, interval_set(model, lo, hi))
        except DomainError:  # an empty interval adds nothing
            pass
    return out


def _interval(rng: random.Random, members) -> str:
    a, b = sorted(rng.sample(members, 2))
    end = "inf" if rng.random() < 0.25 else b
    return f"[{a},{end})"


def _eps(rng: random.Random) -> str:
    return str(Fraction(rng.randint(0, 12), rng.choice((1, 2, 4))))


def _argvs(rng: random.Random) -> list[list[str]]:
    out = []
    for model_name, model in MODELS.items():
        members = [Fraction(n, d) for n in range(-4, 5) for d in (1, 2)]
        pt = lambda: _dump(jsonio.encode_dpoint(_point(rng, model)))
        for _ in range(20):
            out.append(["hom", "--model", model_name, "--interval", _interval(rng, members), "--ideal", pt()])
            out.append(["separate", "--model", model_name, "--p", pt(), "--q", pt()])
            out.append(["interleaved", "--model", model_name, "--p", pt(), "--q", pt(), "--eps", _eps(rng)])
            out.append(["distance-oracle", "--model", model_name, "--p", pt(), "--q", pt(), "--step", rng.choice(("1/4", "1/3", "1"))])
            out.append(["ball", "--model", model_name, "--center", pt(), "--eps", _eps(rng)])
            s = _set(rng, model)
            out.append(["set", "--model", model_name, "--op", "member", "--a", _dump(jsonio.encode_set(model, s)), "--point", pt()])
            out.append(["orthogonal", "--model", model_name, "--direction", "left", "--set", _dump(jsonio.encode_set(model, s))])
            region = left_orthogonal(model, _set(rng, model))
            out.append(["orthogonal", "--model", model_name, "--direction", "right", "--region", _dump(jsonio.encode_region(model, region))])
        # refusals: equal points, an interval off the model
        p = pt()
        out.append(["separate", "--model", model_name, "--p", p, "--q", p])
        out.append(["hom", "--model", model_name, "--interval", '{"start":{"surd":{"q":"1","d":2}},"end":"inf"}', "--ideal", p])
    # the finite chain: every ideal is principal at one of 0..4
    for _ in range(30):
        a = rng.randrange(5)
        b = rng.choice([*range(a + 1, 5), "inf"])
        ideal = _dump({"coord": str(rng.randrange(5)), "flavor": "principal"})
        out.append(["hom", "--model", "chain:5", "--interval", f"[{a},{b})", "--ideal", ideal])
    out.append(["hom", "--model", "chain:5", "--interval", "[0,2)", "--ideal", '{"coord":"1","flavor":"strict"}'])
    out.append(["hom", "--model", "chain:5", "--interval", "[0,inf)", "--ideal", '{"coord":"inf","flavor":"strict"}'])
    out.append(["separate", "--model", "chain:5", "--p", '{"coord":"0","flavor":"principal"}', "--q", '{"coord":"1","flavor":"principal"}'])
    return out


def _module(rng: random.Random, xs: list) -> FpModule:
    out = []
    for _ in range(rng.randint(1, 5)):
        a = rng.randrange(len(xs) - 1)
        b = rng.randint(a + 1, len(xs))
        out.append(FpInterval(xs[a], INF if b == len(xs) else xs[b]))
    return FpModule(out)


def _scalar(rng: random.Random, field: Field) -> str:
    if field.is_rational:
        return str(Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.choice((1, 1, 2, 3))))
    return str(rng.randrange(1, field.p))


def _morphism(rng: random.Random, source: FpModule, target: FpModule, field: Field) -> FpMorphism:
    entries = {}
    for i, x in enumerate(source.summands):
        for j, y in enumerate(target.summands):
            if hom_dim(x, y) == 1 and rng.random() < 0.7:
                entries[(i, j)] = field.parse(_scalar(rng, field))
    return FpMorphism(source, target, entries, field)


def _chain(rng: random.Random, field: Field) -> str:
    dims = [rng.randint(0, 3) for _ in range(rng.randint(1, 5))]
    maps = [
        [[_scalar(rng, field) if rng.random() < 0.6 else "0" for _ in range(dims[t])] for _ in range(dims[t + 1])]
        for t in range(len(dims) - 1)
    ]
    return _dump({"dims": dims, "maps": maps})


def _more_argvs(rng: random.Random) -> list[list[str]]:
    """The calls of the subcommands the first seed does not make."""
    out = []
    members = [Fraction(n, d) for n in range(-4, 5) for d in (1, 2)]
    for model_name, model in MODELS.items():
        pt = lambda: _dump(jsonio.encode_dpoint(_point(rng, model)))
        st = lambda: _dump(jsonio.encode_set(model, _set(rng, model)))
        for _ in range(8):
            for strategy in ("double-orth", "supinf", "order", "all"):
                out.append(["closure", "--model", model_name, "--set", st(), "--strategy", strategy])
            out.append(["is-closed", "--model", model_name, "--set", st()])
            for op in ("union", "intersect"):
                out.append(["set", "--model", model_name, "--op", op, "--a", st(), "--b", st()])
            out.append(["set", "--model", model_name, "--op", "complement", "--a", st()])
            out.append(["classify", "--model", model_name, "--ideal", pt()])
            out.append(["distance", "--model", model_name, "--p", pt(), "--q", pt()])
            out.append(["shift", "--model", model_name, "--interval", _interval(rng, members), "--eps", _eps(rng)])
            out.append(["shift", "--model", model_name, "--ideal", pt(), "--eps", _eps(rng)])
        # refusals: a principal ideal off T, a negative shift, a union without --b
        out.append(["classify", "--model", model_name, "--ideal", '{"coord":{"surd":{"q":"1","d":2}},"flavor":"principal"}'])
        out.append(["shift", "--model", model_name, "--ideal", pt(), "--eps=-1/2"])
        out.append(["set", "--model", model_name, "--op", "union", "--a", st()])
    for _ in range(10):
        ideal = _dump({"coord": str(rng.randrange(5)), "flavor": "principal"})
        out.append(["classify", "--model", "chain:5", "--ideal", ideal])
    out.append(["classify", "--model", "chain:5", "--ideal", '{"coord":"2","flavor":"strict"}'])
    out.append(["distance", "--model", "chain:5", "--p", '{"coord":"0","flavor":"principal"}', "--q", '{"coord":"1","flavor":"principal"}'])
    out.append(["closure", "--model", "chain:5", "--set", '{"components":[]}'])
    # fp modules over QQ, with surd ends k + sqrt(d)/4, and over prime fields
    for field_name in ("rat", "fp:2", "fp:5", "fp:7919"):
        field = QQ if field_name == "rat" else Field(int(field_name[3:]))
        for _ in range(6):
            xs = [
                Coord(k, Fraction(1, 4), rng.choice((2, 3))) if field.is_rational and rng.random() < 0.25 else Coord(k)
                for k in range(rng.randint(3, 7))
            ]
            a, b, c = (_module(rng, xs) for _ in range(3))
            g, f = _morphism(rng, a, b, field), _morphism(rng, b, c, field)
            dump = lambda h: _dump(jsonio.encode_morphism(h))
            out.append(["compose", "--field", field_name, "--f", dump(f), "--g", dump(g)])
            x, y = rng.choice(a.summands), rng.choice(c.summands)
            out.append(["hom-fp", "--x", _dump(jsonio.encode_interval(x)), "--y", _dump(jsonio.encode_interval(y))])
            # sorted, as the module sorts its summands and the coefficients follow them
            starts = sorted(Fraction(rng.randint(-3, 3), rng.choice((1, 2))) for _ in range(rng.randint(1, 4)))
            ambient = {"summands": [{"start": str(s), "end": "inf"} for s in starts]}
            gens = []
            for _ in range(rng.randint(0, 5)):
                pos = Fraction(rng.randint(-3, 4), rng.choice((1, 2)))
                coeffs = [_scalar(rng, field) if s <= pos and rng.random() < 0.7 else "0" for s in starts]
                gens.append({"position": str(pos), "coeffs": coeffs})
            if rng.random() < 0.5 and gens:
                gens.append(dict(gens[0]))
            out.append(["reduce-gens", "--field", field_name, "--ambient", _dump(ambient), "--gens", _dump(gens)])
        # refusals: composable shapes that differ, a generator where no summand lives
        out.append(["compose", "--field", field_name, "--f", dump(f), "--g", dump(f)])
        out.append(["reduce-gens", "--field", field_name, "--ambient", '{"summands":["[0,inf)"]}', "--gens", '[{"position":"-1","coeffs":["1"]}]'])
    out.append(["hom-fp", "--x", "[0,1)", "--y", "[1,0)"])
    out.append(["reduce-gens", "--ambient", '{"summands":["[0,2)"]}', "--gens", "[]"])
    # chain modules and barcodes
    for field_name in ("rat", "fp:3"):
        field = QQ if field_name == "rat" else Field(3)
        for _ in range(8):
            m = _chain(rng, field)
            out.append(["is-flat", "--field", field_name, "--module", m])
            out.append(["decompose", "--field", field_name, "--module", m])
            length = len(json.loads(m)["dims"])
            i = rng.randrange(length)
            out.append(["rank", "--field", field_name, "--module", m, "--i", str(i), "--j", str(rng.randrange(i, length))])
            length = rng.randint(1, 5)
            bars = []
            for _ in range(rng.randint(0, 3)):
                s = rng.randrange(length)
                bars.append({"start": s, "end": rng.randint(s + 1, length), "mult": rng.randint(1, 2)})
            out.append(["realize", "--field", field_name, "--barcode", _dump({"bars": bars}), "--length", str(length)])
    out.append(["rank", "--module", '{"dims":[1,1],"maps":[[["1"]]]}', "--i", "1", "--j", "0"])
    out.append(["realize", "--barcode", '{"bars":[{"start":0,"end":3,"mult":1}]}', "--length", "2"])
    out.append(["decompose", "--module", '{"dims":[1,2],"maps":[[["1","0"]]]}'])
    return out


def printed(argv: list[str]) -> tuple[str, int]:
    """What ``ordspec <argv>`` prints, and its exit code."""
    out = io.StringIO()
    with redirect_stdout(out):
        code = cli.main(argv)
    return out.getvalue(), code


def cases():
    out, seen = [], set()
    for argv in _argvs(random.Random(8101)) + _more_argvs(random.Random(8102)):
        if tuple(argv) in seen:
            continue
        seen.add(tuple(argv))
        stdout, code = printed(argv)
        out.append({"argv": argv, "stdout": stdout, "code": code})
    return out


if __name__ == "__main__":
    with open(OUT, "w", encoding="utf-8") as fh:
        json.dump(cases(), fh, indent=1, sort_keys=True)
        fh.write("\n")
