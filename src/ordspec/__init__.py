"""Exact computation with persistence modules over totally ordered index sets.

The package models interval modules and their finitely presented sums,
Hom spaces, kernels and cokernels, barcode decomposition on finite chains,
the ordered space of ideals with its closure topology, and the interleaving
pseudometric, all in exact rational (optionally quadratic-surd) arithmetic.
"""

from .coords import Coord, INF, is_inf, rational_between
from .errors import DomainError, SchemaError
from .fields import Field, QQ
from .order_core import (
    DENSE_RATIONAL_WITH_CUTS,
    DENSE_REAL,
    DPoint,
    DenseLine,
    FiniteChain,
    Flavor,
    IdealType,
    IndexModel,
    Membership,
    Ordering,
    classify_ideal,
    cmp_d,
    contains,
    principal_at,
    strict_at,
    TOP_IDEAL,
)
from .barcode import (
    Barcode,
    ChainModule,
    barcode,
    chain_module,
    decompose,
    is_flat,
    rank_invariant,
    realize,
)
from .fp_category import (
    FpInterval,
    FpModule,
    FpMorphism,
    GeneratorElement,
    ZERO_MODULE,
    cokernel,
    compose,
    hom_dim,
    hom_to_injective,
    identity_morphism,
    kernel,
    reduce_generators,
    zero_morphism,
)
from .spectrum import (
    DEndpoint,
    SerreRegion,
    Strategy,
    SymbolicSet,
    Window,
    closure,
    closure_all_strategies,
    complement,
    full_set,
    integer_cover_member,
    intersect,
    interval_set,
    is_closed,
    is_subset,
    left_orthogonal,
    member,
    region_eq,
    region_subset,
    right_orthogonal,
    ray_downward,
    ray_upward,
    separate,
    singleton,
    union,
    window_set,
    EMPTY_SET,
)
from .interleaving import (
    DistanceBracket,
    ExtDistance,
    ball,
    brute_force_distance,
    distance,
    is_interleaved,
    shift_ideal,
    shift_interval,
)

__version__ = "0.1.0"
