"""Checker self-test: every checker must pass a true answer and reject a
deliberately corrupted one.

    python3 bench/selftest.py

Exits 0 when each corruption is caught.  Corruptions: a bar shifted by one
slot, a kernel vector replaced by a non-kernel vector, a closure component
dropped, an oracle bracket widened, a README output altered, and a
malformed request answered with exit code 1.
"""

from __future__ import annotations

import copy
import os
import sys
from fractions import Fraction

BENCH = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(BENCH), "src"))

import checks as C  # noqa: E402
import workloads as W  # noqa: E402
from ordspec import jsonio  # noqa: E402

SEED = 7


def verdict(fn) -> bool:
    try:
        fn()
    except C.CheckFailed:
        return False
    return True


def case(name, true_fn, corrupt_fn) -> bool:
    good, bad = verdict(true_fn), verdict(corrupt_fn)
    ok = good and not bad
    state = "ok  " if ok else "FAIL"
    print(f"{state} {name}: true answer {'passes' if good else 'REJECTED'}, corrupted {'ACCEPTED' if bad else 'rejected'}")
    return ok


def barcode_case():
    wl = W.Barcodes(SEED)
    bars = wl.inputs[0][0]
    doc = jsonio.encode_barcode(wl.run(0)[1][0])  # the basis-mixed form over QQ
    shifted = copy.deepcopy(doc)
    bar = next(b for b in shifted["bars"] if b["end"] < wl.LENGTH)
    bar["end"] += 1
    return case("barcode: bar shifted by one slot", lambda: C.check_barcode(bars, doc), lambda: C.check_barcode(bars, shifted))


def kernel_case():
    wl = W.Modules(SEED)
    for i, (f_json, p, _) in enumerate(wl.inputs):
        mod, mor = wl.run(i)[0]
        doc = {"module": jsonio.encode_module(mod), "morphism": jsonio.encode_morphism(mor)}
        # a kernel vector with two or more coordinates; doubling one of them
        # leaves the kernel because the others no longer cancel it
        cols = {}
        for e in doc["morphism"]["entries"]:
            cols.setdefault(e["from"], []).append(e)
        wide = [c for c in cols.values() if len(c) >= 2]
        if not wide:
            continue
        bad = copy.deepcopy(doc)
        entry = next(e for e in bad["morphism"]["entries"] if e["from"] == wide[0][0]["from"])
        v = C.scalar(entry["value"], p) * 2
        entry["value"] = str(v if p is None else v % p)
        return case(
            "modules: kernel vector replaced by a non-kernel vector",
            lambda: C.check_kernel_cokernel(f_json, doc, p, False),
            lambda: C.check_kernel_cokernel(f_json, bad, p, False),
        )
    raise SystemExit("no kernel vector with two coordinates in the pool")


def closure_case():
    wl = W.Ideals(SEED)
    out = wl.run(0)
    model, pu, pv, points, pairs, _ = wl.inputs[0]
    member_fn = W.model_member(model)
    keys = ("u", "v", "cl_u", "cl_v", "right", "union", "inter", "compl")
    sets = {k: jsonio.encode_set(model, out[k]) for k in keys}
    region = jsonio.encode_region(model, out["left"])
    dropped = copy.deepcopy(sets)
    comps = dropped["cl_u"]["components"]
    del comps[len(comps) // 2]

    def run(s):
        return lambda: W.check_ideals(member_fn, {"components": pu}, {"components": pv}, s, region, out, points)

    ok = case("ideals: closure component dropped", run(sets), run(dropped))
    a, b, _ = pairs[0]
    bracket = jsonio.encode_bracket(out["pairs"][0][3])
    wide = dict(bracket, lower=str(Fraction(bracket["lower"]) - wl.STEP))
    ok &= case(
        "ideals: oracle bracket widened by one step",
        lambda: C.check_bracket(a, b, wl.STEP, bracket),
        lambda: C.check_bracket(a, b, wl.STEP, wide),
    )
    return ok


def cli_case():
    wl = W.Cli(SEED, os.path.dirname(BENCH))
    argv, check = wl.requests[0]
    out = wl.call(argv)
    ok = case("cli: README output altered", lambda: check(*out), lambda: check(out[0], out[1].replace("1", "2")))
    _, malformed = wl.requests[-1]
    ok &= case(
        "cli: malformed request answered with exit 1",
        lambda: malformed(2, '{"error":{"kind":"schema"}}\n'),
        lambda: malformed(1, "Traceback (most recent call last):\n"),
    )
    return ok


def main() -> int:
    results = [barcode_case(), kernel_case(), closure_case(), cli_case()]
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
