import io
import json
import os
import shutil
import subprocess
import sys
from contextlib import redirect_stdout

import pytest

from ordspec.cli import main as cli_main

from conftest import subseed
from oracles import random_symbolic_set
from ordspec import DENSE_REAL, Coord, principal_at
from ordspec.jsonio import encode_set


def run_cli(args):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli_main(args)
    return code, buf.getvalue()


def run_subprocess(args):
    proc = subprocess.run(
        [sys.executable, "-m", "ordspec", *args],
        capture_output=True,
        text=True,
    )
    return proc.returncode, proc.stdout


ROW2_SET = (
    '{"components":[{"lo":{"point":{"coord":"0","flavor":"principal"},"included":true},'
    '"hi":{"point":{"coord":"inf","flavor":"strict"},"included":true}}]}'
)


def test_documented_hom_invocation_byte_exact():
    code, out = run_subprocess(
        ["hom", "--interval", "[0,1)", "--ideal", '{"coord":"0","flavor":"principal"}']
    )
    assert code == 0
    assert out == '{"dim":1}\n'


def test_documented_distance_invocation_byte_exact():
    code, out = run_subprocess(
        [
            "distance",
            "--p", '{"coord":"inf","flavor":"strict"}',
            "--q", '{"coord":"0","flavor":"principal"}',
        ]
    )
    assert code == 0
    assert out == '{"infinite":true}\n'


def test_documented_closure_invocation_byte_exact():
    code, out = run_subprocess(["closure", "--set", ROW2_SET, "--strategy", "all"])
    assert code == 0
    expected = (
        '{"closed":true,"closure":{"components":[{"hi":{"included":true,'
        '"point":{"coord":"inf","flavor":"strict"}},"lo":{"included":true,'
        '"point":{"coord":"0","flavor":"principal"}}}]}}\n'
    )
    assert out == expected


def test_identical_invocations_byte_identical():
    args = ["separate", "--p", '{"coord":"1/2","flavor":"strict"}',
            "--q", '{"coord":"1/2","flavor":"principal"}']
    a = run_subprocess(args)
    b = run_subprocess(args)
    assert a == b and a[0] == 0


def test_outputs_reparse_under_input_schemas():
    cases = [
        (["kernel", "--f", json.dumps({
            "source": {"summands": [{"start": "1", "end": "3"}, {"start": "2", "end": "4"}]},
            "target": {"summands": [{"start": "0", "end": "3"}]},
            "entries": [{"from": 0, "to": 0, "value": "1"}, {"from": 1, "to": 0, "value": "1"}],
        })], ("module", "morphism")),
        (["closure", "--set", ROW2_SET], ("closure",)),
        (["ball", "--center", '{"coord":"0","flavor":"principal"}', "--eps", "2"], None),
        (["decompose", "--module", '{"dims":[1,2,1],"maps":[[["1"],["0"]],[["0","1"]]]}'], None),
        (["orthogonal", "--direction", "left", "--set", ROW2_SET], None),
    ]
    for args, keys in cases:
        code, out = run_cli(args)
        assert code == 0, (args, out)
        doc = json.loads(out)
        assert doc is not None
        if keys:
            for k in keys:
                assert k in doc
    # feed an orthogonal region back through the right orthogonal
    code, out = run_cli(["orthogonal", "--direction", "left", "--set", ROW2_SET])
    region = out.strip()
    code2, out2 = run_cli(["orthogonal", "--direction", "right", "--region", region])
    assert code2 == 0
    assert json.loads(out2) == json.loads(ROW2_SET)


def test_closure_all_strategy_on_random_corpus_exits_zero():
    rng = subseed(70)
    for _ in range(40):
        u = random_symbolic_set(rng, DENSE_REAL)
        doc = json.dumps(encode_set(DENSE_REAL, u))
        code, out = run_cli(["closure", "--set", doc, "--strategy", "all"])
        assert code == 0, out


def test_exit_codes():
    code, out = run_cli(["hom", "--interval", "nonsense", "--ideal", "{}"])
    assert code == 2
    assert json.loads(out)["error"]["kind"] == "schema"
    # valid JSON, invalid value: principal flavor at the infinite coordinate
    code, out = run_cli(
        ["classify", "--ideal", '{"coord":"inf","flavor":"principal"}']
    )
    assert code == 1
    assert json.loads(out)["error"]["kind"] == "bad_dpoint"
    # ball of radius zero is a domain error
    code, out = run_cli(
        ["ball", "--center", '{"coord":"0","flavor":"strict"}', "--eps", "0"]
    )
    assert code == 1
    # a scan past the oracle's step budget is refused at once
    code, out = run_cli(
        ["distance-oracle", "--p", '{"coord":"0","flavor":"principal"}',
         "--q", '{"coord":"1000000","flavor":"principal"}', "--step", "1/1000"]
    )
    assert code == 1
    assert json.loads(out)["error"]["kind"] == "scan_too_long"
    # a region whose covered piece is not the cover of its gap
    code, out = run_cli(
        ["orthogonal", "--direction", "right", "--region",
         '{"gaps":[{"gap":{"lo":{"point":"below_all","included":false},'
         '"hi":{"point":{"coord":"0","flavor":"strict"},"included":true}},'
         '"covered":{"lo":{"point":{"coord":"5","flavor":"principal"},"included":true},'
         '"hi":{"point":{"coord":"6","flavor":"strict"},"included":false}}}]}']
    )
    assert code == 1
    assert json.loads(out)["error"]["kind"] == "bad_region"
    # wrong JSON types where a list or a scalar belongs are malformed input
    for argv in (
        ["realize", "--barcode", '{"bars":5}', "--length", "3"],
        ["orthogonal", "--direction", "right", "--region", '{"gaps":7}'],
        ["decompose", "--module", '{"dims":[1,1],"maps":[[[null]]]}'],
        ["kernel", "--f", '{"source":{"summands":["[0,1)"]},"target":{"summands":["[0,1)"]},'
         '"entries":[{"from":0,"to":0,"value":null}]}'],
        # one matrix entry given twice, whichever value comes last
        ["kernel", "--f", '{"source":{"summands":["[0,1)"]},"target":{"summands":["[0,1)"]},'
         '"entries":[{"from":0,"to":0,"value":"1"},{"from":0,"to":0,"value":"0"}]}'],
        ["kernel", "--f", '{"source":{"summands":["[0,1)"]},"target":{"summands":["[0,1)"]},'
         '"entries":[{"from":0,"to":0,"value":"0"},{"from":0,"to":0,"value":"1"}]}'],
        # JSON booleans are not integers
        ["decompose", "--module", '{"dims":[true,1],"maps":[[[true]]]}'],
        ["realize", "--barcode", '{"bars":[{"start":0,"end":1,"mult":true}]}', "--length", "1"],
        # an integer past Python's 4300-digit conversion limit
        ["decompose", "--module", '{"dims":[' + "1" * 5000 + '],"maps":[]}'],
        # rationals whose exponent or decimals would pass that limit
        ["distance", "--p", '{"coord":"1e5000","flavor":"strict"}',
         "--q", '{"coord":"0","flavor":"strict"}'],
        ["distance", "--p", '{"coord":"1e10000000","flavor":"strict"}',
         "--q", '{"coord":"0","flavor":"strict"}'],
        ["distance", "--p", '{"coord":"0.' + "1" * 4300 + '","flavor":"strict"}',
         "--q", '{"coord":"0","flavor":"strict"}'],
        # errors the argument parser finds: a bad choice, a missing required
        # flag, a negative value read as an option, no subcommand
        ["set", "--op", "xor", "--a", ROW2_SET],
        ["hom", "--interval", "[0,1)"],
        ["shift", "--interval", "[0,1)", "--eps", "-3/4"],
        [],
        # a value "--" joined to its flag, which argparse drops
        ["set", "--op=--", "--a", ROW2_SET],
        ["rank", "--module", '{"dims":[1],"maps":[]}', "--i=--", "--j", "0"],
        ["classify", "--ideal", '{"coord":"0","flavor":"strict"}', "--format=--"],
    ):
        code, out = run_cli(argv)
        assert code == 2, argv
        assert json.loads(out)["error"]["kind"] == "schema"


def test_barcode_multiplicities_are_checked_before_merging():
    # each entry below 1 is refused, also when another entry of the same bar
    # would make the sum positive or zero
    for mults in ((-1, 2), (2, -2), (0,), (-1,), (1, 0)):
        bars = [{"start": 0, "end": 2, "mult": m} for m in mults]
        code, out = run_cli(["realize", "--barcode", json.dumps({"bars": bars}), "--length", "2"])
        assert code == 1, mults
        assert json.loads(out)["error"] == {
            "kind": "bad_barcode", "detail": "multiplicities must be positive"
        }
    # positive entries of one bar still add up
    code, out = run_cli(["realize", "--barcode",
                         '{"bars":[{"start":0,"end":2,"mult":1},{"start":0,"end":2,"mult":2}]}',
                         "--length", "2"])
    assert code == 0 and json.loads(out)["dims"] == [3, 3]


def test_interval_shorthand_forms(monkeypatch):
    code, out = run_cli(["hom-fp", "--x", "[1,3)", "--y", "[0,2)"])
    assert code == 0 and json.loads(out) == {"dim": 1}
    code, out = run_cli(["hom-fp", "--x", "[0,inf)", "--y", "[0,inf)"])
    assert code == 0 and json.loads(out) == {"dim": 1}
    code, out = run_cli(
        ["hom-fp", "--x", '{"start":"0","end":"2"}', "--y", "[1,3)"]
    )
    assert code == 0 and json.loads(out) == {"dim": 0}
    # an interval in JSON form read from standard input
    monkeypatch.setattr("sys.stdin", io.StringIO('{"start":"0","end":"2"}'))
    code, out = run_cli(["hom-fp", "--x", "-", "--y", "[1,3)"])
    assert code == 0 and json.loads(out) == {"dim": 0}


def test_models_and_fields():
    code, out = run_cli(
        ["classify", "--model", "dense-surd", "--ideal",
         '{"coord":{"rat":"0","surd":{"q":"1","d":2}},"flavor":"strict"}']
    )
    assert code == 0 and json.loads(out) == {"type": 3}
    code, out = run_cli(
        ["classify", "--model", "dense", "--ideal",
         '{"coord":{"rat":"0","surd":{"q":"1","d":2}},"flavor":"strict"}']
    )
    assert code == 0 and json.loads(out) == {"type": 2}
    code, out = run_cli(["classify", "--model", "chain:5", "--ideal",
                         '{"coord":"2","flavor":"principal"}'])
    assert code == 0 and json.loads(out) == {"type": 1}
    code, out = run_cli(
        ["is-flat", "--field", "fp:5", "--module", '{"dims":[1,1],"maps":[[["5"]]]}']
    )
    assert code == 0 and json.loads(out) == {"flat": False}
    code, out = run_cli(
        ["is-flat", "--field", "rat", "--module", '{"dims":[1,1],"maps":[[["5"]]]}']
    )
    assert code == 0 and json.loads(out) == {"flat": True}


@pytest.mark.parametrize(
    "d, kind, detail",
    [
        (-5, "bad_radicand", "radicand must be >= 2, got -5"),
        (0, "bad_radicand", "radicand must be >= 2, got 0"),
        (1, "bad_radicand", "radicand must be >= 2, got 1"),
        (2**200 + 1, "radicand_too_large", "radicands are limited to 64 bits, got 201"),
    ],
    ids=["negative", "zero", "one", "201-bit"],
)
def test_a_radicand_is_checked_whatever_its_coefficient(d, kind, detail):
    for q in ("0", "1"):
        coord = {"rat": "1", "surd": {"q": q, "d": d}}
        code, out = run_cli(["classify", "--ideal", json.dumps({"coord": coord, "flavor": "strict"})])
        assert (code, json.loads(out)) == (1, {"error": {"kind": kind, "detail": detail}}), q


def test_a_valid_radicand_with_a_zero_coefficient_is_a_rational():
    ideal = '{"coord":{"rat":"1","surd":{"q":"0","d":5}},"flavor":"strict"}'
    assert run_cli(["classify", "--ideal", ideal]) == (0, '{"type":2}\n')
    assert run_cli(["classify", "--model", "dense-surd", "--ideal", ideal]) == (0, '{"type":2}\n')


# [sqrt(2), inf): a start outside T under dense-surd, inside it under dense
_SURD_RAY = {"start": {"rat": "0", "surd": {"q": "1", "d": 2}}, "end": "inf"}
_SURD_ENDO = json.dumps({"source": {"summands": [_SURD_RAY]}, "target": {"summands": [_SURD_RAY]},
                         "entries": [{"from": 0, "to": 0, "value": "1"}]})


@pytest.mark.parametrize(
    "model, args",
    [
        ("dense-surd", ["hom", "--interval", json.dumps(_SURD_RAY), "--ideal", '{"coord":"2","flavor":"principal"}']),
        ("dense-surd", ["hom-fp", "--x", json.dumps(_SURD_RAY), "--y", "[0,inf)"]),
        ("dense-surd", ["compose", "--f", _SURD_ENDO, "--g", _SURD_ENDO]),
        ("dense-surd", ["kernel", "--f", _SURD_ENDO]),
        ("dense-surd", ["cokernel", "--f", _SURD_ENDO]),
        ("dense-surd", ["reduce-gens", "--ambient", json.dumps({"summands": [_SURD_RAY]}), "--gens", "[]"]),
        ("dense-surd", ["shift", "--interval", json.dumps(_SURD_RAY), "--eps", "1"]),
        # a rational start outside the chain
        ("chain:3", ["hom-fp", "--x", "[1/2,2)", "--y", "[0,2)"]),
    ],
    ids=lambda v: v[0] if isinstance(v, list) else v,
)
def test_every_subcommand_checks_intervals_against_the_model(model, args):
    code, out = run_cli([*args, "--model", model])
    assert code == 1 and json.loads(out)["error"]["kind"] == "bad_interval"
    assert run_cli([*args, "--model", "dense"])[0] == 0


@pytest.mark.parametrize(
    "model, position",
    [
        # 1/2 and 7 are no elements of the chain 0..2
        ("chain:3", ["1/2", "7"]),
        # sqrt(2) is a cut of dense-surd, not an element
        ("dense-surd", [{"surd": {"q": "1", "d": 2}}]),
    ],
    ids=["chain:3", "dense-surd"],
)
def test_reduce_gens_checks_positions_against_the_model(model, position):
    gens = json.dumps([{"position": x, "coeffs": ["1"]} for x in position])
    args = ["reduce-gens", "--ambient", '{"summands":["[0,inf)"]}', "--gens", gens]
    code, out = run_cli([*args, "--model", model])
    assert code == 1 and json.loads(out)["error"]["kind"] == "bad_generator"
    assert run_cli([*args, "--model", "dense"]) == (0, '{"retained":[0]}\n')


def test_hom_on_a_chain_compares_the_window_ends_unchecked():
    # the window's upper end (2, strict) is no ideal of a chain; it is compared, not checked
    args = ["hom", "--model", "chain:5", "--interval", "[0,2)", "--ideal", '{"coord":"1","flavor":"principal"}']
    assert run_cli(args) == (0, '{"dim":1}\n')


def test_outputs_match_the_spectrum_golden_file():
    """Every subcommand but kernel and cokernel (tests/data/exact_golden.json
    holds those) prints, byte for byte and with the same exit code, what it
    printed when tests/data/spectrum_golden.json was recorded (by
    tests/data/make_spectrum_golden.py)."""
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data", "spectrum_golden.json")
    with open(path, encoding="utf-8") as fh:
        cases = json.load(fh)
    assert {c["argv"][0] for c in cases} == {
        "hom", "separate", "interleaved", "distance-oracle", "ball", "set", "orthogonal",
        "closure", "is-closed", "classify", "distance", "shift", "hom-fp", "compose",
        "reduce-gens", "is-flat", "decompose", "realize", "rank",
    }
    strategies = {a[a.index("--strategy") + 1] for a in (c["argv"] for c in cases) if "--strategy" in a}
    assert strategies == {"double-orth", "supinf", "order", "all"}
    for case in cases:
        assert run_cli(case["argv"]) == (case["code"], case["stdout"]), case["argv"]


def test_a_bad_interval_reports_before_a_later_malformed_flag():
    code, out = run_cli(["compose", "--model", "dense-surd", "--f", _SURD_ENDO, "--g", "{"])
    assert code == 1 and json.loads(out)["error"]["kind"] == "bad_interval"


def test_text_format():
    code, out = run_cli(
        ["distance", "--format", "text",
         "--p", '{"coord":"0","flavor":"strict"}',
         "--q", '{"coord":"3","flavor":"principal"}']
    )
    assert code == 0
    assert out == "finite: 3\n"


def test_remaining_subcommands_smoke():
    mod = '{"summands":[{"start":"0","end":"inf"},{"start":"1","end":"inf"}]}'
    gens = '[{"position":"0","coeffs":["1","0"]},{"position":"1","coeffs":["1","1"]},{"position":"1","coeffs":["2","2"]}]'
    code, out = run_cli(["reduce-gens", "--ambient", mod, "--gens", gens])
    assert code == 0 and json.loads(out) == {"retained": [0, 1]}

    code, out = run_cli(["realize", "--barcode",
                         '{"bars":[{"start":0,"end":2,"mult":1},{"start":1,"end":3,"mult":1}]}',
                         "--length", "3"])
    assert code == 0
    assert json.loads(out)["dims"] == [1, 2, 1]

    code, out = run_cli(["rank", "--module", '{"dims":[1,2,1],"maps":[[["1"],["0"]],[["0","1"]]]}',
                         "--i", "0", "--j", "2"])
    assert code == 0 and json.loads(out) == {"rank": 0}

    code, out = run_cli(["set", "--op", "member", "--a", ROW2_SET,
                         "--point", '{"coord":"5","flavor":"strict"}'])
    assert code == 0 and json.loads(out) == {"member": True}

    code, out = run_cli(["set", "--op", "complement", "--a", ROW2_SET])
    assert code == 0
    comp = json.loads(out)
    code, out = run_cli(["set", "--op", "union", "--a", ROW2_SET, "--b", json.dumps(comp)])
    assert code == 0
    full = json.loads(out)
    assert full["components"][0]["lo"]["point"] == "below_all"

    code, out = run_cli(["interleaved", "--p", '{"coord":"0","flavor":"principal"}',
                         "--q", '{"coord":"1","flavor":"principal"}', "--eps", "1"])
    assert code == 0 and json.loads(out) == {"interleaved": True}

    code, out = run_cli(["shift", "--ideal", '{"coord":"0","flavor":"principal"}',
                         "--eps", "1/2"])
    assert code == 0 and json.loads(out) == {"coord": "-1/2", "flavor": "principal"}

    code, out = run_cli(["distance-oracle", "--p", '{"coord":"0","flavor":"principal"}',
                         "--q", '{"coord":"1","flavor":"strict"}', "--step", "1/64"])
    assert code == 0
    doc = json.loads(out)
    assert doc["lower"] == "63/64" and doc["upper"] == "1"

    code, out = run_cli(["compose",
                         "--f", json.dumps({
                             "source": {"summands": [{"start": "1", "end": "inf"}]},
                             "target": {"summands": [{"start": "0", "end": "inf"}]},
                             "entries": [{"from": 0, "to": 0, "value": "2"}]}),
                         "--g", json.dumps({
                             "source": {"summands": [{"start": "2", "end": "inf"}]},
                             "target": {"summands": [{"start": "1", "end": "inf"}]},
                             "entries": [{"from": 0, "to": 0, "value": "3"}]})])
    assert code == 0
    assert json.loads(out)["entries"] == [{"from": 0, "to": 0, "value": "6"}]

    code, out = run_cli(["cokernel", "--f", json.dumps({
        "source": {"summands": [{"start": "1", "end": "3"}, {"start": "2", "end": "4"}]},
        "target": {"summands": [{"start": "0", "end": "3"}]},
        "entries": [{"from": 0, "to": 0, "value": "1"}, {"from": 1, "to": 0, "value": "1"}],
    })])
    assert code == 0
    assert json.loads(out)["module"] == {"summands": [{"start": "0", "end": "1"}]}

    code, out = run_cli(["is-closed", "--set", ROW2_SET])
    assert code == 0 and json.loads(out) == {"closed": True}


def test_closure_strategy_choices_follow_strategy():
    """The choices of closure --strategy are written out in cli; they stay the
    values of spectrum.Strategy, in its order, then "all"."""
    from ordspec import Strategy, cli

    parser = cli._build_parser()
    sub = next(a for a in parser._actions if a.dest == "command").choices["closure"]
    strategy = next(a for a in sub._actions if a.dest == "strategy")
    assert list(strategy.choices) == [s.value for s in Strategy] + ["all"]


def test_internal_invariant_exits_3(monkeypatch):
    from ordspec import fp_category
    from test_fp_category import _corrupt_first_pair

    f = json.dumps({
        "source": {"summands": ["[0,inf)", "[0,inf)"]},
        "target": {"summands": ["[0,inf)"]},
        "entries": [{"from": 0, "to": 0, "value": "1"}, {"from": 1, "to": 0, "value": "1"}],
    })
    monkeypatch.setattr(fp_category, "_null_basis", _corrupt_first_pair(fp_category._null_basis))
    code, out = run_cli(["kernel", "--f", f])
    assert code == 3
    lines = out.splitlines()
    assert len(lines) == 1
    error = json.loads(lines[0])["error"]
    assert error["kind"] == "internal_invariant"
    assert error["detail"].startswith("kernel certificate failed at end sample 0: ")


def test_strategy_disagreement_carries_its_witness(monkeypatch):
    from ordspec import spectrum

    # an open interval between two principal ideals is not closed, so a
    # saturation that returns its input disagrees with the other two
    monkeypatch.setattr(spectrum, "_closure_supinf", lambda model, u: u)
    u = spectrum.interval_set(
        DENSE_REAL,
        spectrum.DEndpoint(principal_at(Coord(0)), False),
        spectrum.DEndpoint(principal_at(Coord(1)), False),
    )
    code, out = run_cli(["closure", "--strategy", "all", "--set", json.dumps(encode_set(DENSE_REAL, u))])
    assert code == 3
    error = json.loads(out)["error"]
    assert error["kind"] == "internal_invariant"
    witness = json.loads(error["detail"].split(": ", 1)[1])
    assert set(witness) == {"input", "double-orth", "supinf", "order"}
    assert witness["input"] == witness["supinf"] == encode_set(DENSE_REAL, u)
    assert witness["double-orth"] == witness["order"] != witness["input"]


# The ordspec modules every call loads: the package (which binds the function
# ``barcode`` and so loads its module), the front end and the codecs' layers.
_BASE_MODULES = {
    "ordspec", "ordspec.cli", "ordspec.coords", "ordspec.errors",
    "ordspec.fields", "ordspec.jsonio", "ordspec.order_core",
}
_IMPORT_PROBE = """
import io, json, sys
from contextlib import redirect_stdout
from ordspec import cli
with redirect_stdout(io.StringIO()):
    code = cli.main(json.loads(sys.argv[1]))
print(json.dumps([code, sorted(m for m in sys.modules if m.split(".")[0] == "ordspec"),
                  "dataclasses" in sys.modules]))
"""


@pytest.mark.parametrize(
    "args, extra",
    [
        (["classify", "--ideal", '{"coord":"0","flavor":"strict"}'], set()),
        (["decompose", "--module", '{"dims":[1,2,1],"maps":[[["1"],["0"]],[["0","1"]]]}'],
         {"ordspec.barcode", "ordspec.linalg"}),
        (["closure", "--set", ROW2_SET], {"ordspec.spectrum"}),
        (["distance", "--p", '{"coord":"0","flavor":"strict"}',
          "--q", '{"coord":"3","flavor":"principal"}'], {"ordspec.interleaving"}),
        (["kernel", "--f", json.dumps({
            "source": {"summands": ["[1,3)", "[2,4)"]},
            "target": {"summands": ["[0,3)"]},
            "entries": [{"from": 0, "to": 0, "value": "1"}, {"from": 1, "to": 0, "value": "1"}],
        })], {"ordspec.fp_category", "ordspec.barcode", "ordspec.linalg"}),
    ],
    ids=lambda v: v[0] if isinstance(v, list) else None,
)
def test_a_call_imports_only_its_layers(args, extra):
    """In a fresh interpreter a subcommand loads the base modules and its own
    layer, no other, and never ``dataclasses``."""
    env = dict(os.environ, PYTHONPATH=os.path.join(os.path.dirname(os.path.dirname(__file__)), "src"))
    proc = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE, json.dumps(args)], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    code, modules, dataclasses_loaded = json.loads(proc.stdout)
    assert code == 0
    assert set(modules) == _BASE_MODULES | extra
    assert not dataclasses_loaded


def test_minimum_python_gives_the_same_stdout():
    """pyproject.toml declares Python >= 3.10; run two requests on 3.10."""
    py310 = shutil.which("python3.10")
    probe = py310 and subprocess.run(
        [py310, "-c", "import sys; assert sys.version_info[:2] == (3, 10)"], capture_output=True
    )
    if not probe or probe.returncode != 0:
        pytest.skip("no working python3.10 on PATH")
    rng = subseed(73)
    a, b = (
        json.dumps(encode_set(DENSE_REAL, random_symbolic_set(rng, DENSE_REAL, 40, lo=-20, hi=20, surds=True, max_len=1)))
        for _ in range(2)
    )
    env = dict(os.environ, PYTHONPATH=os.path.join(os.path.dirname(os.path.dirname(__file__)), "src"))
    for args in (["closure", "--strategy", "all", "--set", ROW2_SET], ["set", "--op", "intersect", "--a", a, "--b", b]):
        runs = [
            subprocess.run([exe, "-m", "ordspec", *args], capture_output=True, text=True, env=env)
            for exe in (py310, sys.executable)
        ]
        assert runs[0].returncode == runs[1].returncode == 0, runs[0].stderr
        assert runs[0].stdout == runs[1].stdout
