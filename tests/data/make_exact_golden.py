"""Write ``exact_golden.json``: seeded morphisms with the standard output of
``ordspec kernel`` and ``ordspec cokernel`` on each.

    PYTHONPATH=src python tests/data/make_exact_golden.py

``test_outputs_match_the_golden_file`` in ``tests/test_fp_category.py``
replays the recorded calls and requires the same output byte for byte, so a
change to the reduction, its grid or its certificate that is meant to keep
every answer is checked against the outputs recorded before it.  Rerun this
script only when the outputs are meant to change.

The 40 morphisms alternate between the rationals, with surd endpoints
k + sqrt(d)/4 and some scalars with 20-digit denominators, and prime fields
of several sizes, with rational endpoints.  Each holds 2-9 summands per side.
"""

from __future__ import annotations

import io
import json
import os
import random
from contextlib import redirect_stdout
from fractions import Fraction

from ordspec import INF, QQ, Coord, Field, FpInterval, FpModule, FpMorphism, hom_dim
from ordspec import cli, jsonio

OUT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "exact_golden.json")
PRIMES = (2, 5, 7919, 2147483647)


def _dump(doc) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def _scalar(rng: random.Random, field: Field):
    if not field.is_rational:
        return rng.randrange(1, field.p)
    if rng.random() < 0.2:
        return Fraction(rng.randint(-99, 99) or 1, rng.randint(10**19, 10**20 - 1))
    return Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.choice((1, 1, 2, 3)))


def _morphism(rng: random.Random, field: Field) -> FpMorphism:
    n_coords = rng.randint(3, 10)
    surds = field.is_rational
    xs = [
        Coord(k, Fraction(1, 4), rng.choice((2, 3))) if surds and rng.random() < 0.25 else Coord(k)
        for k in range(n_coords)
    ]

    def module():
        out = []
        for _ in range(rng.randint(2, 9)):
            a = rng.randrange(n_coords - 1)
            b = rng.randint(a + 1, n_coords)
            out.append(FpInterval(xs[a], INF if b == n_coords else xs[b]))
        return FpModule(out)

    src, tgt = module(), module()
    entries = {}
    for i, x in enumerate(src.summands):
        for j, y in enumerate(tgt.summands):
            if hom_dim(x, y) == 1 and rng.random() < 0.7:
                entries[(i, j)] = _scalar(rng, field)
    return FpMorphism(src, tgt, entries, field)


def _printed(op: str, f: FpMorphism) -> str:
    """What ``ordspec <op> --f <f>`` prints, with its exit code checked."""
    field = "rat" if f.field.is_rational else f"fp:{f.field.p}"
    out = io.StringIO()
    with redirect_stdout(out):
        code = cli.main([op, "--f", _dump(jsonio.encode_morphism(f)), "--field", field])
    assert code == 0, out.getvalue()
    return out.getvalue()


def cases():
    out = []
    for k in range(40):
        rng = random.Random(7000 + k)
        field = QQ if k % 2 == 0 else Field(PRIMES[(k // 2) % len(PRIMES)])
        f = _morphism(rng, field)
        out.append({
            "p": field.p,
            "f": jsonio.encode_morphism(f),
            "kernel": _printed("kernel", f),
            "cokernel": _printed("cokernel", f),
        })
    return out


if __name__ == "__main__":
    with open(OUT, "w", encoding="utf-8") as fh:
        json.dump(cases(), fh, indent=1, sort_keys=True)
        fh.write("\n")
