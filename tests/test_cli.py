import io
import json
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
    # wrong JSON types where a list or a scalar belongs are malformed input
    for argv in (
        ["realize", "--barcode", '{"bars":5}', "--length", "3"],
        ["orthogonal", "--direction", "right", "--region", '{"gaps":7}'],
        ["decompose", "--module", '{"dims":[1,1],"maps":[[[null]]]}'],
        ["kernel", "--f", '{"source":{"summands":["[0,1)"]},"target":{"summands":["[0,1)"]},'
         '"entries":[{"from":0,"to":0,"value":null}]}'],
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
    ):
        code, out = run_cli(argv)
        assert code == 2, argv
        assert json.loads(out)["error"]["kind"] == "schema"


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
    assert code == 1
    error = json.loads(out)["error"]
    assert error["kind"] == "strategy_disagreement"
    witness = json.loads(error["detail"].split(": ", 1)[1])
    assert set(witness) == {"input", "double-orth", "supinf", "order"}
    assert witness["input"] == witness["supinf"] == encode_set(DENSE_REAL, u)
    assert witness["double-orth"] == witness["order"] != witness["input"]
