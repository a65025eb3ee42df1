"""Property test of the command line boundary.

Every subcommand is fed schema-shaped JSON whose leaves may be anything JSON
holds (booleans, nulls, floats, big integers, bad strings) and must answer
with exit 0, 1 or 2 and exactly one JSON document on stdout: no traceback,
no broken invariant, no hang.  ``COMMANDS`` must name every subcommand of
the CLI with exactly its flags.
"""

import argparse
import io
import json
from contextlib import redirect_stdout

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, seed, settings, strategies as st  # noqa: E402

from ordspec import cli  # noqa: E402
from ordspec.cli import main as cli_main  # noqa: E402

from conftest import SEED  # noqa: E402

ODD_STRINGS = ["", " ", "x", "1/0", "nan", "1.5.2", "[1,0)", "[a,b)", "[0,1]", "--", "inf",
               "below_all", "123456789012345678901234567890", "1e5000"]

# anything a JSON leaf can be
leaf = st.one_of(
    st.booleans(),
    st.none(),
    st.floats(),
    st.integers(-3, 8),
    st.integers(2**64, 2**200),
    st.integers(-(2**200), -(2**64)),
    st.sampled_from(ODD_STRINGS),
)


def mostly(good):
    """The well-formed value nine times in ten, else any leaf."""
    return st.sampled_from([True] * 9 + [False]).flatmap(lambda ok: good if ok else leaf)


def shaped(**fields):
    return mostly(st.fixed_dictionaries(fields))


def few(element, n=3):
    return mostly(st.lists(element, max_size=n))


number = mostly(st.sampled_from(["0", "1", "2", "3", "-1", "1/2", "7/3"]))
index = mostly(st.integers(0, 4))
coord = st.one_of(number, number, shaped(rat=number, surd=shaped(q=number, d=index)))
ext_coord = st.one_of(st.just("inf"), coord)
ideal = shaped(coord=ext_coord, flavor=mostly(st.sampled_from(["strict", "principal"])))
interval = st.one_of(shaped(start=coord, end=ext_coord),
                     mostly(st.sampled_from(["[0,1)", "[0,inf)", "[1,3)", "[1/2,2)"])))
module = shaped(summands=few(interval, 4))
morphism = shaped(
    source=module, target=module, entries=few(shaped(**{"from": index, "to": index, "value": number}), 4)
)
chain = shaped(dims=few(index, 4), maps=few(few(few(number))))
bars = shaped(bars=few(shaped(start=index, end=index, mult=index)))
endpoint = shaped(point=st.one_of(ideal, mostly(st.just("below_all"))), included=mostly(st.booleans()))
piece = shaped(lo=endpoint, hi=endpoint)
symbolic_set = shaped(components=few(piece))
region = shaped(gaps=few(shaped(gap=piece, covered=st.one_of(st.none(), piece))))
gens = few(shaped(position=coord, coeffs=few(number)))
rational_text = st.sampled_from(["0", "1", "1/2", "1/64", "-1", "10", "x", "1/0", ""])
count = st.one_of(st.integers(-2, 6), st.integers(2**64, 2**200)).map(str)


def doc(strategy):
    return strategy.map(json.dumps)


# subcommand -> its flags and the strategy of each flag's value
COMMANDS = {
    "hom": {"interval": doc(interval), "ideal": doc(ideal)},
    "hom-fp": {"x": doc(interval), "y": doc(interval)},
    "compose": {"f": doc(morphism), "g": doc(morphism)},
    "kernel": {"f": doc(morphism)},
    "cokernel": {"f": doc(morphism)},
    "reduce-gens": {"ambient": doc(module), "gens": doc(gens)},
    "is-flat": {"module": doc(chain)},
    "decompose": {"module": doc(chain)},
    "realize": {"barcode": doc(bars), "length": count},
    "rank": {"module": doc(chain), "i": count, "j": count},
    "classify": {"ideal": doc(ideal)},
    "closure": {"set": doc(symbolic_set),
                "strategy": st.sampled_from(["double-orth", "supinf", "order", "all"])},
    "is-closed": {"set": doc(symbolic_set)},
    "orthogonal": {"direction": st.sampled_from(["left", "right"]),
                   "set": doc(symbolic_set), "region": doc(region)},
    "separate": {"p": doc(ideal), "q": doc(ideal)},
    "set": {"op": st.sampled_from(["union", "intersect", "complement", "member"]),
            "a": doc(symbolic_set), "b": doc(symbolic_set), "point": doc(ideal)},
    "shift": {"interval": doc(interval), "ideal": doc(ideal), "eps": rational_text},
    "interleaved": {"p": doc(ideal), "q": doc(ideal), "eps": rational_text},
    "distance": {"p": doc(ideal), "q": doc(ideal)},
    "ball": {"center": doc(ideal), "eps": rational_text},
    "distance-oracle": {"p": doc(ideal), "q": doc(ideal), "step": rational_text},
}

# mostly well-formed global flags; repeats weight the draw
field_flag = st.sampled_from(["rat"] * 6 + ["fp:5"] * 3 + ["fp:4", "fp:x", f"fp:{2**89 - 1}"])
model_flag = st.sampled_from(["dense"] * 8 + ["dense-surd", "chain:5", "chain:0", "chain:x"])


def run_cli(args):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli_main(args)
    return code, buf.getvalue()


def test_commands_cover_every_subcommand_and_flag():
    parser = cli._build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    common = {"help", "format", "field", "model"}
    flags = {
        name: {a.dest for a in p._actions if a.option_strings and a.dest not in common}
        for name, p in sub.choices.items()
    }
    assert flags == {name: set(values) for name, values in COMMANDS.items()}


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_every_subcommand_answers_with_one_json_document(command):
    flags = COMMANDS[command]

    @seed(SEED)
    @settings(
        max_examples=15,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    @given(
        values=st.fixed_dictionaries(flags),
        field=field_flag,
        model=model_flag,
    )
    def check(values, field, model):
        argv = [command, "--field", field, "--model", model]
        for flag, value in values.items():
            argv.append(f"--{flag}={value}")
        code, out = run_cli(argv)
        assert code in (0, 1, 2), (argv, out)
        assert out.endswith("\n") and out.count("\n") == 1, (argv, out)
        json.loads(out)

    check()
