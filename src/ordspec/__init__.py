"""Exact computation with persistence modules over totally ordered index sets.

The package models interval modules and their finitely presented sums,
Hom spaces, kernels and cokernels, barcode decomposition on finite chains,
the ordered space of ideals with its closure topology, and the interleaving
pseudometric, all in exact rational (optionally quadratic-surd) arithmetic.

The public names below are loaded lazily: ``ordspec.kernel`` or ``from
ordspec import kernel`` imports the name's home module (here
``fp_category``) on first use and returns that module's attribute, so a
program, the command line included, loads only the layers it touches.
Importing the package imports no layer, and no public name is also the name
of a submodule: ``ordspec.barcode`` is the module, ``Barcode`` its class.
"""

import importlib

# home module -> the public names it provides
_EXPORTS = {
    "coords": ("Coord", "INF", "is_inf", "rational_between"),
    "errors": ("DomainError", "SchemaError"),
    "fields": ("Field", "QQ"),
    "order_core": (
        "DENSE_RATIONAL_WITH_CUTS",
        "DENSE_REAL",
        "DPoint",
        "DenseLine",
        "FiniteChain",
        "Flavor",
        "FpInterval",
        "IdealType",
        "IndexModel",
        "Membership",
        "Ordering",
        "classify_ideal",
        "cmp_d",
        "contains",
        "principal_at",
        "strict_at",
        "TOP_IDEAL",
    ),
    "barcode": (
        "Barcode",
        "ChainModule",
        "chain_module",
        "decompose",
        "is_flat",
        "rank_invariant",
        "realize",
    ),
    "fp_category": (
        "FpModule",
        "FpMorphism",
        "GeneratorElement",
        "ZERO_MODULE",
        "cokernel",
        "compose",
        "hom_dim",
        "hom_to_injective",
        "identity_morphism",
        "kernel",
        "reduce_generators",
        "zero_morphism",
    ),
    "spectrum": (
        "DEndpoint",
        "SerreRegion",
        "Strategy",
        "SymbolicSet",
        "closure",
        "closure_all_strategies",
        "complement",
        "full_set",
        "integer_cover_member",
        "intersect",
        "interval_set",
        "is_closed",
        "is_subset",
        "left_orthogonal",
        "member",
        "region_eq",
        "region_subset",
        "right_orthogonal",
        "ray_downward",
        "ray_upward",
        "separate",
        "singleton",
        "union",
        "window_set",
        "EMPTY_SET",
    ),
    "interleaving": (
        "DistanceBracket",
        "ball",
        "brute_force_distance",
        "distance",
        "is_interleaved",
        "shift_ideal",
        "shift_interval",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_HOME)
__version__ = "0.1.0"


def __getattr__(name):
    home = _HOME.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{home}"), name)


def __dir__():
    return sorted(set(globals()) | set(__all__))
