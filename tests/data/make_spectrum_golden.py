"""Write ``spectrum_golden.json``: seeded calls of the subcommands that decide
on the double line, with their standard output and exit code.

    PYTHONPATH=src python tests/data/make_spectrum_golden.py

``test_outputs_match_the_spectrum_golden_file`` in ``tests/test_cli.py``
replays the recorded argvs and requires the same output and exit code byte
for byte, so a change to the order of ideals, the window of an interval or
the cuts of a set that is meant to keep every answer is checked against the
outputs recorded before it.  Rerun this script only when the outputs are
meant to change.

The calls are ``hom``, ``separate``, ``interleaved``, ``distance-oracle``,
``ball``, ``set --op member`` and ``orthogonal`` in both directions, under
``dense`` and ``dense-surd`` (surd coordinates k + sqrt(d)/4, strict only
under ``dense-surd``), and ``hom`` also under ``chain:5``.  A few argvs per
subcommand ask for something the library refuses, so error outputs are
recorded too.
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
    Flavor,
    INF,
    cmp_d,
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


def printed(argv: list[str]) -> tuple[str, int]:
    """What ``ordspec <argv>`` prints, and its exit code."""
    out = io.StringIO()
    with redirect_stdout(out):
        code = cli.main(argv)
    return out.getvalue(), code


def cases():
    out, seen = [], set()
    for argv in _argvs(random.Random(8101)):
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
