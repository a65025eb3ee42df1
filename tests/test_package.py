"""The public namespace of the package, the immutable value classes and the
error kinds."""

import ast
import copy
import importlib
import inspect
import os
import pathlib
import pickle
import pkgutil
import re
import subprocess
import sys
from fractions import Fraction

import pytest

import ordspec
from ordspec import (
    DENSE_RATIONAL_WITH_CUTS,
    DENSE_REAL,
    DomainError,
    EMPTY_SET,
    INF,
    QQ,
    TOP_IDEAL,
    Barcode,
    ChainModule,
    Coord,
    DEndpoint,
    DenseLine,
    DistanceBracket,
    DPoint,
    Field,
    FiniteChain,
    Flavor,
    FpInterval,
    FpModule,
    FpMorphism,
    GeneratorElement,
    Membership,
    SerreRegion,
    Strategy,
    SymbolicSet,
    ball,
    brute_force_distance,
    chain_module,
    closure,
    closure_all_strategies,
    compose,
    distance,
    full_set,
    identity_morphism,
    integer_cover_member,
    interval_set,
    is_closed,
    is_interleaved,
    kernel,
    left_orthogonal,
    member,
    principal_at,
    ray_downward,
    ray_upward,
    reduce_generators,
    region_eq,
    region_subset,
    right_orthogonal,
    separate,
    shift_ideal,
    shift_interval,
    singleton,
    strict_at,
    window_set,
)
from ordspec.errors import Value
from ordspec.order_core import validate_interval
from ordspec.spectrum import BOTTOM, upper_endpoint_of_cut

SRC = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")


def test_every_public_name_is_its_home_module_attribute():
    for name in ordspec.__all__:
        home = importlib.import_module(f"ordspec.{ordspec._HOME[name]}")
        assert getattr(ordspec, name) is getattr(home, name), name
    assert set(ordspec.__all__) <= set(dir(ordspec))
    assert ordspec.FpInterval is ordspec.fp_category.FpInterval is ordspec.order_core.FpInterval
    with pytest.raises(AttributeError):
        ordspec.no_such_name


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from ordspec import *", namespace)
    assert all(namespace[name] is getattr(ordspec, name) for name in ordspec.__all__)


def unused_imports(source: str) -> list[str]:
    """The names a module imports and never reads, by its syntax tree; a
    ``from __future__`` import and a name listed in ``__all__`` count as used."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [(a.asname or a.name).partition(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            used |= {c.value for c in ast.walk(node.value) if isinstance(c, ast.Constant)}
    return [name for name in imported if name not in used]


def test_no_module_imports_a_name_it_never_uses():
    assert unused_imports("import a.b, c\nfrom d import e as f, g\nc.x(g)") == ["a", "f"]
    # the package's re-exports are its purpose, so __init__ is not checked
    for path in sorted(pathlib.Path(SRC, "ordspec").glob("*.py")):
        if path.name != "__init__.py":
            assert unused_imports(path.read_text()) == [], path.name


def test_barcode_is_the_submodule_and_barcodes_build_from_a_mapping():
    # the package imports no layer, and importing one binds the layer's name
    # on the package: no public name is also the name of a submodule
    probe = (
        "import sys, types, ordspec; "
        "assert [m for m in sys.modules if m.startswith('ordspec.')] == []; "
        "import ordspec.fp_category; "
        "assert isinstance(ordspec.barcode, types.ModuleType); "
        "assert ordspec.Barcode is ordspec.barcode.Barcode"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=SRC)
    )
    assert proc.returncode == 0, proc.stderr
    assert not set(ordspec.__all__) & set(ordspec._EXPORTS)
    # sorted, with zero multiplicities dropped
    assert Barcode({(1, 2): 0, (0, 3): 2, (0, 1): 1}).bars == ((0, 1, 1), (0, 3, 2))
    assert Barcode({(1, 2): 0}) == Barcode({}) == Barcode(())
    for bars in ({(0, 1): -1}, {(1, 1): 1}, {(-1, 2): 1}):
        with pytest.raises(DomainError) as err:
            Barcode(bars)
        assert err.value.kind == "bad_barcode"


def test_the_readme_python_examples_run():
    readme = pathlib.Path(SRC).parent.joinpath("README.md").read_text()
    blocks = re.findall(r"^```python\n(.*?)^```", readme, re.M | re.S)
    assert blocks
    for block in blocks:
        proc = subprocess.run(
            [sys.executable, "-c", block], capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=SRC)
        )
        assert proc.returncode == 0, proc.stderr


def test_cli_import_loads_neither_typing_nor_dataclasses():
    # -S: without site hooks, which may import typing themselves
    probe = (
        "import sys, ordspec.cli; "
        "print(sorted(m for m in ('typing', 'dataclasses') if m in sys.modules))"
    )
    proc = subprocess.run(
        [sys.executable, "-S", "-c", probe], capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=SRC)
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


# one value per record class, an equal copy built apart from it, and an
# unequal value of the same class
_VALUES = [
    (lambda: FiniteChain(4), lambda: FiniteChain(5)),
    (lambda: DenseLine(Membership.ALL_COORDS), lambda: DenseLine(Membership.RATIONALS_ONLY)),
    (lambda: DPoint(Coord(Fraction(1, 2)), Flavor.STRICT), lambda: DPoint(Coord(1), Flavor.STRICT)),
    (lambda: FpInterval(Coord(0), INF), lambda: FpInterval(Coord(0), Coord(1))),
    (lambda: GeneratorElement(Coord(1), (Fraction(1), Fraction(0))), lambda: GeneratorElement(Coord(1), (Fraction(1),))),
    (lambda: ChainModule((1, 1), (((2,),),), (3,), QQ), lambda: ChainModule((1, 1), (((2,),),), (1,), QQ)),
    (lambda: Barcode({(0, 2): 1}), lambda: Barcode({(0, 2): 2})),
    (lambda: DEndpoint(DPoint(Coord(0), Flavor.PRINCIPAL), True), lambda: DEndpoint("below_all", False)),
    (lambda: DistanceBracket(Coord(0), Coord(Fraction(1, 64))), lambda: DistanceBracket(INF, INF)),
    (
        lambda: FpModule([FpInterval(Coord(1), INF), FpInterval(Coord(0), Coord(1))]),
        lambda: FpModule([FpInterval(Coord(0), Coord(1))]),
    ),
    (lambda: window_set(DENSE_REAL, FpInterval(Coord(0), Coord(1))), lambda: SymbolicSet(())),
    (lambda: SerreRegion(window_set(DENSE_REAL, FpInterval(Coord(0), INF))), lambda: SerreRegion(EMPTY_SET)),
    (lambda: Field(7), lambda: QQ),
]


@pytest.mark.parametrize("make, make_other", _VALUES, ids=lambda f: type(f()).__name__)
def test_value_classes_are_immutable_and_compare_by_class_then_fields(make, make_other):
    value, twin, other = make(), make(), make_other()
    cls = type(value)
    fields = cls.__slots__
    assert not hasattr(value, "__dict__")
    # a symbolic set is one live object per value, any other record is built anew
    assert (value is twin) == (cls is SymbolicSet) and value == twin and hash(value) == hash(twin)
    assert hash(value) == hash(tuple(getattr(value, f) for f in fields))
    assert value != other
    # equal fields in another class are not equal
    assert value != tuple(getattr(value, f) for f in fields)
    assert {value: 1}[twin] == 1
    for f in fields:
        with pytest.raises(AttributeError):
            setattr(value, f, getattr(other, f))
        with pytest.raises(AttributeError):
            delattr(value, f)
    with pytest.raises(AttributeError):
        value.extra = 1
    assert value == twin
    args = ", ".join(f"{f}={getattr(value, f)!r}" for f in fields)
    assert repr(value) == f"{cls.__name__}({args})"
    # rebuilt through the base, without the class's rule
    for rebuilt in (pickle.loads(pickle.dumps(value)), copy.copy(value), copy.deepcopy(value)):
        assert type(rebuilt) is cls and rebuilt == value


def test_the_value_base_takes_exactly_one_value_per_field():
    for make in (
        lambda: DistanceBracket(1),
        lambda: GeneratorElement(Coord(0)),
        lambda: GeneratorElement(Coord(0), (1,), 2),
        lambda: SerreRegion(),
    ):
        with pytest.raises(TypeError):
            make()


def test_the_shared_fields_cannot_change():
    # were Field mutable, QQ.p = 7 would make the default field of every call
    # F_7; the finally keeps such a failure from spreading to other tests
    try:
        for field, p in ((QQ, 7), (Field(7), 5)):
            with pytest.raises(AttributeError):
                field.p = p
    finally:
        object.__setattr__(QQ, "p", None)
    assert QQ == Field() and QQ.p is None
    assert repr(QQ) == "Field(p=None)" and repr(Field(7)) == "Field(p=7)"


def test_morphisms_are_immutable_unhashable_and_compare_by_class_then_fields():
    # the entries are a dict, so a morphism has no hash
    module = FpModule([FpInterval(Coord(0), Coord(2))])
    f, twin, other = (FpMorphism(module, module, {(0, 0): Fraction(v)}) for v in (1, 1, 2))
    assert not hasattr(f, "__dict__")
    assert f is not twin and f == twin and f != other
    assert f != tuple(getattr(f, name) for name in FpMorphism.__slots__)
    with pytest.raises(TypeError):
        hash(f)
    for name in FpMorphism.__slots__:
        with pytest.raises(AttributeError):
            setattr(f, name, getattr(other, name))
        with pytest.raises(AttributeError):
            delattr(f, name)
    assert f == twin
    for rebuilt in (pickle.loads(pickle.dumps(f)), copy.copy(f), copy.deepcopy(f)):
        assert type(rebuilt) is FpMorphism and rebuilt == f
    assert copy.deepcopy(INF) is INF and pickle.loads(pickle.dumps(INF)) is INF
    # an answer can be sent to another process and back
    answer = kernel(FpMorphism(module, module, {(0, 0): Fraction(0)}))
    assert pickle.loads(pickle.dumps(answer)) == answer


def test_only_the_value_base_writes_the_record_contract():
    """No class but ``Value`` guards its own attributes, and only the ordered
    classes, whose compares are hot paths, compare and hash by hand."""
    own_order = {"Coord", "Cut", "_Infinity"}
    seen = set()
    for info in pkgutil.iter_modules(ordspec.__path__):
        if info.name == "__main__":
            continue
        module = importlib.import_module(f"ordspec.{info.name}")
        for cls in vars(module).values():
            if not isinstance(cls, type) or cls.__module__ != module.__name__ or cls is Value:
                continue
            seen.add(cls.__name__)
            own = vars(cls)
            assert "__setattr__" not in own and "__delattr__" not in own, cls
            if cls.__name__ not in own_order:
                assert "__eq__" not in own and own.get("__hash__") is None, cls
    assert own_order | {"FpMorphism", "SerreRegion", "Field"} <= seen
    assert issubclass(Field, Value)
    # the base alone makes a record without its class's rule, and only
    # Coord, built on every coordinate add, stores its own fields
    for path in sorted(pathlib.Path(ordspec.__file__).parent.glob("*.py")):
        source = path.read_text()
        assert ("object.__new__" in source) == (path.stem == "errors"), path.name
        assert source.count("object.__setattr__") == (3 if path.stem == "coords" else 0), path.name
    assert inspect.getsource(Coord.__init__).count("object.__setattr__") == 3


def test_equal_fields_in_two_classes_are_unequal():
    bars, cuts = Barcode(()), SymbolicSet(())
    assert bars.bars == cuts.cuts == ()
    assert bars != cuts and cuts != bars


def test_default_fields():
    assert DenseLine() == DENSE_REAL
    assert ChainModule((1,), (), ()).field == QQ


_CHAIN = FiniteChain(3)
_SURD_LINE = DENSE_RATIONAL_WITH_CUTS
_RAY = FpModule((FpInterval(Coord(0), INF),))
_TWO_RAYS = FpModule(_RAY.summands * 2)
_SQRT2 = Coord(0, 1, 2)

# Each row is (id, kind, call); the ids are written out, so that a row added
# to the table renames no other row's case.
_ERRORS = [
    # a start, an end outside T
    ("bad_interval0", "bad_interval", lambda: validate_interval(_CHAIN, FpInterval(Coord(Fraction(1, 2)), Coord(2)))),
    ("bad_interval1", "bad_interval", lambda: validate_interval(_CHAIN, FpInterval(Coord(0), Coord(7)))),
    ("field_mismatch", "field_mismatch", lambda: compose(identity_morphism(_RAY), identity_morphism(_RAY, Field(5)))),
    # the coefficient count
    ("bad_generator", "bad_generator", lambda: reduce_generators(_RAY, [GeneratorElement(Coord(1), (1, 2))])),
    # below_all as an upper end
    ("bad_endpoint", "bad_endpoint", lambda: interval_set(
        DENSE_REAL, DEndpoint(principal_at(0), True), DEndpoint("below_all", False)
    )),
    ("bad_cut", "bad_cut", lambda: upper_endpoint_of_cut(DENSE_REAL, BOTTOM)),
    # the window of an interval with start >= end, a start outside T, an end outside T
    ("bad_interval2", "bad_interval", lambda: window_set(_SURD_LINE, FpInterval(Coord(1), Coord(1)))),
    ("bad_interval3", "bad_interval", lambda: window_set(_SURD_LINE, FpInterval(_SQRT2, INF))),
    ("bad_interval4", "bad_interval", lambda: window_set(_SURD_LINE, FpInterval(Coord(0), _SQRT2))),
    ("bad_strategy", "bad_strategy", lambda: closure(DENSE_REAL, EMPTY_SET, "order")),
    ("bad_cover_index", "bad_cover_index", lambda: integer_cover_member(DENSE_REAL, 1)),
    ("irrational_gap", "irrational_gap", lambda: brute_force_distance(DENSE_REAL, strict_at(_SQRT2), strict_at(0), 1)),
    # only exact scalars enter: floats in a morphism, so in its kernel and
    # composites, and as generator coefficients over QQ and over F_7; a bool,
    # and a Fraction over F_7; a float chain-map entry over F_7 and a bool one
    # over QQ
    ("bad_scalar0", "bad_scalar", lambda: kernel(FpMorphism(_TWO_RAYS, _RAY, {(0, 0): 0.1, (1, 0): 0.2}))),
    ("bad_scalar1", "bad_scalar", lambda: compose(identity_morphism(_RAY), FpMorphism(_RAY, _RAY, {(0, 0): 0.5}))),
    ("bad_scalar2", "bad_scalar", lambda: reduce_generators(
        _TWO_RAYS, [GeneratorElement(Coord(0), (0.1, 0.2)), GeneratorElement(Coord(0), (0.3, 0.6000000000000001))]
    )),
    ("bad_scalar3", "bad_scalar", lambda: reduce_generators(
        _TWO_RAYS, [GeneratorElement(Coord(0), (0.5, 1))], Field(7)
    )),
    ("bad_scalar4", "bad_scalar", lambda: FpMorphism(_RAY, _RAY, {(0, 0): True})),
    ("bad_scalar5", "bad_scalar", lambda: FpMorphism(_RAY, _RAY, {(0, 0): Fraction(1, 2)}, Field(7))),
    ("bad_scalar6", "bad_scalar", lambda: chain_module([1, 1], [[[0.5]]], Field(7))),
    ("bad_scalar7", "bad_scalar", lambda: chain_module([1, 1], [[[True]]])),
]


@pytest.mark.parametrize("kind, call", [row[1:] for row in _ERRORS], ids=[row[0] for row in _ERRORS])
def test_each_error_kind_is_raised(kind, call):
    """Each error kind, raised by one library call."""
    with pytest.raises(DomainError) as err:
        call()
    assert err.value.kind == kind


_P0, _P1 = principal_at(0), principal_at(1)
_UNIT = FpInterval(Coord(0), Coord(1))
_NO_GAPS = SerreRegion(EMPTY_SET)

# Every function the package exports from spectrum and interleaving that reads
# its model, and each SerreRegion method, called with arguments valid on the
# chain; complement, intersect and is_subset never read their model
_DENSE_ONLY = {
    "interval_set": lambda m: interval_set(m, DEndpoint(_P0, True), DEndpoint(_P1, True)),
    "full_set": full_set,
    "singleton": lambda m: singleton(m, _P0),
    "ray_upward": lambda m: ray_upward(m, TOP_IDEAL, False),
    "ray_downward": lambda m: ray_downward(m, _P0),
    "member": lambda m: member(m, EMPTY_SET, _P0),
    "window_set": lambda m: window_set(m, _UNIT),
    "SerreRegion.covered_set": _NO_GAPS.covered_set,
    "SerreRegion.contains_interval": lambda m: _NO_GAPS.contains_interval(m, _UNIT),
    "left_orthogonal": lambda m: left_orthogonal(m, EMPTY_SET),
    "right_orthogonal": lambda m: right_orthogonal(m, _NO_GAPS),
    "region_subset": lambda m: region_subset(m, _NO_GAPS, _NO_GAPS),
    "region_eq": lambda m: region_eq(m, _NO_GAPS, _NO_GAPS),
    "closure": lambda m: closure(m, EMPTY_SET, Strategy.ORDER_TOPOLOGY),
    "closure_all_strategies": lambda m: closure_all_strategies(m, EMPTY_SET),
    "is_closed": lambda m: is_closed(m, EMPTY_SET),
    "separate": lambda m: separate(m, _P0, _P1),
    "integer_cover_member": lambda m: integer_cover_member(m, 0),
    "shift_interval": lambda m: shift_interval(m, _UNIT, 1),
    "shift_ideal": lambda m: shift_ideal(m, _P0, 1),
    "is_interleaved": lambda m: is_interleaved(m, _P0, _P1, 1),
    "distance": lambda m: distance(m, _P0, _P1),
    "ball": lambda m: ball(m, _P0, 1),
    "brute_force_distance": lambda m: brute_force_distance(m, _P0, _P1, 1),
}


def test_the_dense_only_table_names_every_model_reader():
    def takes_model(f):
        return inspect.isfunction(f) and "model" in inspect.signature(f).parameters

    readers = {
        name for name in ordspec.__all__
        if ordspec._HOME[name] in ("spectrum", "interleaving") and takes_model(getattr(ordspec, name))
    }
    readers |= {f"SerreRegion.{name}" for name, f in vars(SerreRegion).items() if takes_model(f)}
    assert set(_DENSE_ONLY) == readers - {"complement", "intersect", "is_subset"}


@pytest.mark.parametrize("call", _DENSE_ONLY.values(), ids=_DENSE_ONLY)
def test_every_model_reader_refuses_a_chain(call):
    with pytest.raises(DomainError) as err:
        call(_CHAIN)
    assert err.value.kind == "dense_only"


# Each kind of argument has one check: a number (a shift amount, a scan step,
# a coordinate's rational part) is an int or a Fraction, an ideal is an ideal
# of T (the bad one is passed last, so a call must check all it takes), an
# interval has its ends in T, a cover index is an int
_NOT_NUMBERS = (0.1, True, "1/2", Coord(1))
_NOT_AN_IDEAL = principal_at(_SQRT2)  # under _SURD_LINE, sqrt(2) is no element
_IDEAL_READERS = {
    "member": lambda q: member(_SURD_LINE, EMPTY_SET, q),
    "separate": lambda q: separate(_SURD_LINE, _P0, q),
    "shift_ideal": lambda q: shift_ideal(_SURD_LINE, q, 1),
    "is_interleaved": lambda q: is_interleaved(_SURD_LINE, _P0, q, 1),
    "distance": lambda q: distance(_SURD_LINE, _P0, q),
    "ball": lambda q: ball(_SURD_LINE, q, 1),
    "brute_force_distance": lambda q: brute_force_distance(_SURD_LINE, _P0, q, 1),
}
_ARGUMENTS = [
    *((f"eps-{v!r}", "bad_scalar", lambda v=v: is_interleaved(DENSE_REAL, _P0, _P1, v)) for v in _NOT_NUMBERS),
    *((f"step-{v!r}", "bad_scalar", lambda v=v: brute_force_distance(DENSE_REAL, _P0, _P1, v)) for v in _NOT_NUMBERS),
    *((f"Coord-{v!r}", "bad_scalar", lambda v=v: Coord(v)) for v in _NOT_NUMBERS),
    ("Coord-coef", "bad_scalar", lambda: Coord(0, 0.5, 2)),
    *((f"{name}-ideal", "bad_dpoint", lambda call=call: call(_NOT_AN_IDEAL)) for name, call in _IDEAL_READERS.items()),
    ("shift_interval", "bad_interval", lambda: shift_interval(_SURD_LINE, FpInterval(_SQRT2, INF), 1)),
    ("cover-float", "bad_cover_index", lambda: integer_cover_member(DENSE_REAL, -0.5)),
    ("cover-bool", "bad_cover_index", lambda: integer_cover_member(DENSE_REAL, False)),
]


@pytest.mark.parametrize("kind, call", [row[1:] for row in _ARGUMENTS], ids=[row[0] for row in _ARGUMENTS])
def test_each_argument_kind_is_checked(kind, call):
    with pytest.raises(DomainError) as err:
        call()
    assert err.value.kind == kind


def test_the_error_and_argument_tables_name_each_row_once():
    # pytest would number repeated ids, and a row added later would rename them
    for table in (_ERRORS, _ARGUMENTS):
        ids = [row[0] for row in table]
        assert len(set(ids)) == len(ids)
