"""Per-layer tracing by wrapping ordspec's public functions from outside.

``Tracer.install`` replaces every public module-level function of each layer
module with a timing wrapper, and rebinds the name wherever it was imported
(``fp_category`` imports ``decompose`` by name, ``cli`` renames it, the
workload module imports through the package), so calls a module makes to its
own functions, such as ``spectrum`` calling ``member``, are seen too.  Spans
nest on a stack; a span's self time is its duration minus its children's.
Spans and counts are kept in memory and written out once, at the end.
Nothing here is imported when tracing is off.
"""

from __future__ import annotations

import importlib
import inspect
import json
import math
import statistics
import subprocess
import sys
import time
from fractions import Fraction

LAYERS = (
    "coords", "fields", "linalg", "order_core", "fp_category",
    "barcode", "spectrum", "interleaving", "jsonio", "cli",
)
# called for nearly every comparison; a wrapper would dwarf the work it measures
SKIP = {"coords.is_inf"}
LINALG_SCANNED = {"rank", "nullspace", "rref", "mat_mul", "solve_columns"}


def _coeff_bits(mat) -> int:
    best = 0
    for row in mat:
        for v in row:
            if v:
                b = max(v.numerator.bit_length(), v.denominator.bit_length())
                if b > best:
                    best = b
    return best


class Tracer:
    def __init__(self, tags=None):
        self.stack = []  # [label, child seconds]
        self.stats = {}  # label -> [calls, total seconds, self seconds]
        self.counts = {"coords.cmp": 0, "fp_category.grid_samples": 0, "linalg.max_coeff_bits": 0}
        self.tags = tags or {}
        self.saved = []  # (namespace, attribute, original)

    # -- labels -----------------------------------------------------------

    def _in(self, *labels) -> bool:
        return any(frame[0] in labels for frame in self.stack)

    def _label(self, qual, args):
        if qual == "barcode.decompose":
            if self._in("fp_category.kernel", "fp_category.cokernel"):
                return "barcode.decompose[audit]"
            kind = self.tags.get(id(args[0])) if args else None
            return f"barcode.decompose[{kind}]" if kind else qual
        if qual == "spectrum.closure" and len(args) > 2:
            return f"spectrum.closure[{args[2].value}]"
        parent = self.stack[-1][0] if self.stack else ""
        if qual == "interleaving.is_interleaved" and parent == "interleaving.brute_force_distance":
            return "interleaving.is_interleaved[scan]"
        if qual.startswith("jsonio.") and parent.startswith("jsonio."):
            # decoders call each other; only the outermost call counts as decode time
            return qual + "[nested]"
        return qual

    # -- wrappers ---------------------------------------------------------

    def _wrap(self, qual, fn):
        stack, stats, counts, perf = self.stack, self.stats, self.counts, time.perf_counter
        label_of = self._label
        layer, name = qual.split(".", 1)
        scan = layer == "linalg" and name in LINALG_SCANNED
        grid = qual == "fp_category.critical_grid"

        def wrapper(*args, **kwargs):
            label = label_of(qual, args)
            if scan and args and args[0].p is None:
                # coefficient growth is a QQ matter; F_p residues are 31 bits anyway
                for a in args[1:]:
                    if isinstance(a, list) and a and isinstance(a[0], list):
                        bits = _coeff_bits(a)
                        if bits > counts["linalg.max_coeff_bits"]:
                            counts["linalg.max_coeff_bits"] = bits
            frame = [label, 0.0]
            stack.append(frame)
            t0 = perf()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = perf() - t0
                stack.pop()
                if stack:
                    stack[-1][1] += dt
                s = stats.get(label)
                if s is None:
                    s = stats[label] = [0, 0.0, 0.0]
                s[0] += 1
                s[1] += dt
                s[2] += dt - frame[1]
            if grid:
                counts["fp_category.grid_samples"] += len(out)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self, extra_namespaces=()):
        from ordspec import coords, fields

        originals = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"ordspec.{layer}")
            for name, obj in list(vars(mod).items()):
                qual = f"{layer}.{name}"
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__
                    and not name.startswith("_")
                    and qual not in SKIP
                ):
                    originals[id(obj)] = (obj, self._wrap(qual, obj))
        namespaces = [m for k, m in sys.modules.items() if k == "ordspec" or k.startswith("ordspec.")]
        for ns in namespaces + list(extra_namespaces):
            for attr, val in list(vars(ns).items()):
                hit = originals.get(id(val))
                if hit is not None and hit[0] is val:
                    self.saved.append((ns, attr, val))
                    setattr(ns, attr, hit[1])
        # methods: every Coord comparison is counted, Field construction timed
        counts = self.counts
        cmp = coords.Coord._cmp

        def counted_cmp(a, b):
            counts["coords.cmp"] += 1
            return cmp(a, b)

        self.saved.append((coords.Coord, "_cmp", cmp))
        coords.Coord._cmp = counted_cmp
        init = fields.Field.__init__
        self.saved.append((fields.Field, "__init__", init))
        fields.Field.__init__ = self._wrap("fields.Field", init)

    def uninstall(self):
        for ns, attr, val in reversed(self.saved):
            setattr(ns, attr, val)
        self.saved.clear()

    def reset(self):
        self.stats.clear()
        for k in self.counts:
            self.counts[k] = 0

    def snapshot(self):
        calls = {k: v[0] for k, v in self.stats.items()}
        return {"calls": calls, "counts": dict(self.counts)}

    def dump(self):
        return {
            label: {"calls": c, "total_s": t, "self_s": s}
            for label, (c, t, s) in sorted(self.stats.items())
        }


def layer_metrics(stats, first_round, ops: int):
    """Per-layer metrics: times are seconds per op over the traced run; counts
    are totals over its first round, so they repeat exactly for a seed."""

    def total(*labels):
        return sum(stats[k]["total_s"] for k in labels if k in stats) / ops

    def self_of(layer):
        return sum(v["self_s"] for k, v in stats.items() if k.split(".", 1)[0] == layer) / ops

    def outer(prefix):
        return sum(v["total_s"] for k, v in stats.items() if k.startswith(prefix) and "[" not in k) / ops

    calls, counts = first_round["calls"], first_round["counts"]
    return {
        "linalg.self_s": (self_of("linalg"), "s"),
        "linalg.rank_calls": (calls.get("linalg.rank", 0), "count"),
        "linalg.nullspace_calls": (calls.get("linalg.nullspace", 0), "count"),
        "linalg.max_coeff_bits": (counts["linalg.max_coeff_bits"], "bits"),
        "fp_category.kernel_s": (total("fp_category.kernel"), "s"),
        "fp_category.cokernel_s": (total("fp_category.cokernel"), "s"),
        "fp_category.self_s": (self_of("fp_category"), "s"),
        "fp_category.audit_decompose_s": (total("barcode.decompose[audit]"), "s"),
        "fp_category.grid_samples": (counts["fp_category.grid_samples"], "count"),
        "barcode.decompose_block_s": (total("barcode.decompose[block]"), "s"),
        "barcode.decompose_mixed_s": (total("barcode.decompose[mixed]"), "s"),
        "barcode.self_s": (self_of("barcode"), "s"),
        "barcode.rank_invariant_s": (total("barcode.rank_invariant"), "s"),
        "spectrum.closure_double_orth_s": (total("spectrum.closure[double-orth]"), "s"),
        "spectrum.closure_supinf_s": (total("spectrum.closure[supinf]"), "s"),
        "spectrum.closure_order_s": (total("spectrum.closure[order]"), "s"),
        "spectrum.member_calls": (calls.get("spectrum.member", 0), "count"),
        "spectrum.intersect_s": (total("spectrum.intersect"), "s"),
        "spectrum.is_subset_s": (total("spectrum.is_subset"), "s"),
        "spectrum.union_s": (total("spectrum.union"), "s"),
        "coords.cmp_calls": (counts["coords.cmp"], "count"),
        "interleaving.oracle_s": (total("interleaving.brute_force_distance"), "s"),
        "interleaving.scan_steps": (calls.get("interleaving.is_interleaved[scan]", 0), "count"),
        "cli.main_ms": (1000 * total("cli.main"), "ms"),
        "jsonio.decode_s": (outer("jsonio.decode_"), "s"),
        "jsonio.encode_s": (outer("jsonio.encode_"), "s"),
    }


# ---------------------------------------------------------------------------
# Direct probes, run untraced after the traced ops


def _per_call(fn, reps: int) -> float:
    """Median seconds per call over five batches of reps calls."""
    out = []
    for _ in range(5):
        t0 = time.perf_counter()
        for _ in range(reps):
            fn()
        out.append((time.perf_counter() - t0) / reps)
    return statistics.median(out)


def coord_probes():
    from ordspec import Coord, rational_between

    big = 10**18
    pairs = {
        "small": (Coord(Fraction(1, 3)), Coord(Fraction(2, 7)), Coord(1, 1, 2), Coord(1, 1, 3)),
        "large": (Coord(big + Fraction(1, 3)), Coord(big + Fraction(2, 7)), Coord(big, 1, 2), Coord(big, 1, 3)),
    }
    out = {}
    for size, (r1, r2, s1, s2) in pairs.items():
        out[f"coords.cmp_rat_{size}_ns"] = (1e9 * _per_call(lambda: r1 < r2, 2000), "ns")
        out[f"coords.cmp_surd_{size}_ns"] = (1e9 * _per_call(lambda: s1 < s2, 2000), "ns")
        out[f"coords.rational_between_{size}_us"] = (1e6 * _per_call(lambda: rational_between(s1, s2), 20), "us")
        out[f"coords.floor_{size}_us"] = (1e6 * _per_call(s2.floor, 20), "us")
    return out


def _slope(points):
    """Least-squares slope of log(time) against log(size)."""
    xs = [math.log(n) for n, _ in points]
    ys = [math.log(t) for _, t in points]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum((x - mx) ** 2 for x in xs)


def _median_time(fn, reps=3):
    out = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        out.append(time.perf_counter() - t0)
    return statistics.median(out)


def sweep_probes(seed: int):
    """Fitted log-log slopes at growing sizes for the layers items 2 and 3 target."""
    import random

    import ordspec
    import workloads as W

    rng = random.Random(f"sweep:{seed}")
    out = {}
    pts = []
    for n in (8, 12, 16, 24):
        f = W.lib_morphism(W.gen_morphism(rng, n, None, coords=2 * n), None)
        pts.append((n, _median_time(lambda: ordspec.kernel(f))))
    out["fp_category.kernel_slope"] = (_slope(pts), "slope")
    pts = []
    for L in (12, 16, 24, 32):
        bars = W.gen_bars(rng, L)
        m = W.lib_chain(*W.gen_chain_maps(rng, bars, L, True), None)
        pts.append((L, _median_time(lambda: ordspec.decompose(m))))
    out["barcode.decompose_mixed_slope"] = (_slope(pts), "slope")
    closure_pts, inter_pts = [], []
    model = ordspec.DENSE_REAL
    member_fn = W.model_member(model)
    for k in (20, 40, 80):
        u, v = (
            W.build_set(model, W.lib_pieces(W.gen_pieces(rng, k, member_fn, top)))
            for top in (True, False)
        )
        closure_pts.append((k, _median_time(lambda: ordspec.closure(model, u, ordspec.Strategy.ORDER_TOPOLOGY))))
        inter_pts.append((k, _median_time(lambda: ordspec.intersect(model, u, v))))
    out["spectrum.closure_order_slope"] = (_slope(closure_pts), "slope")
    out["spectrum.intersect_slope"] = (_slope(inter_pts), "slope")
    return out


def cli_probes(root: str, env):
    """Bare interpreter start, and importing ordspec.cli on top of it."""

    def run(code):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], cwd=root, env=env, check=True)
        return time.perf_counter() - t0

    run("pass")
    bare = statistics.median(run("pass") for _ in range(7))
    imp = statistics.median(run("import ordspec.cli") for _ in range(7))
    return {
        "cli.interpreter_ms": (1000 * bare, "ms"),
        "cli.import_ms": (1000 * (imp - bare), "ms"),
    }


def write_trace(path, payload):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
