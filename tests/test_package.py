"""The public namespace of the package and the immutable value classes."""

import importlib
import os
import subprocess
import sys
from fractions import Fraction

import pytest

import ordspec
from ordspec import (
    DENSE_REAL,
    INF,
    QQ,
    Barcode,
    ChainModule,
    Coord,
    DEndpoint,
    DenseLine,
    DistanceBracket,
    DPoint,
    ExtDistance,
    FiniteChain,
    Flavor,
    FpInterval,
    GeneratorElement,
    Membership,
    Window,
)

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


def test_barcode_stays_the_function_whatever_is_imported_first():
    # importing a submodule binds its name on the package; ``barcode`` is
    # both a submodule and a function, and the package must keep the function
    probe = (
        "import ordspec.fp_category, ordspec.barcode, ordspec, types; "
        "assert not isinstance(ordspec.barcode, types.ModuleType); "
        "assert ordspec.barcode is ordspec.barcode.__globals__['barcode']; "
        "assert ordspec.barcode({(0, 1): 1}).bars == ((0, 1, 1),)"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=SRC)
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


# one value per former dataclass, an equal copy built apart from it, and an
# unequal value of the same class
_VALUES = [
    (lambda: FiniteChain(4), lambda: FiniteChain(5)),
    (lambda: DenseLine(Membership.ALL_COORDS), lambda: DenseLine(Membership.RATIONALS_ONLY)),
    (lambda: DPoint(Coord(Fraction(1, 2)), Flavor.STRICT), lambda: DPoint(Coord(1), Flavor.STRICT)),
    (lambda: FpInterval(Coord(0), INF), lambda: FpInterval(Coord(0), Coord(1))),
    (lambda: GeneratorElement(Coord(1), (Fraction(1), Fraction(0))), lambda: GeneratorElement(Coord(1), (Fraction(1),))),
    (lambda: ChainModule((1, 1), (((2,),),), (3,), QQ), lambda: ChainModule((1, 1), (((2,),),), (1,), QQ)),
    (lambda: Barcode(((0, 2, 1),)), lambda: Barcode(((0, 2, 2),))),
    (lambda: DEndpoint(DPoint(Coord(0), Flavor.PRINCIPAL), True), lambda: DEndpoint("below_all", False)),
    (lambda: Window(Coord(0), Coord(1)), lambda: Window(Coord(0), INF)),
    (lambda: ExtDistance(Coord(2)), lambda: ExtDistance(None)),
    (lambda: DistanceBracket(Fraction(0), Fraction(1, 64)), lambda: DistanceBracket(None, None)),
]


@pytest.mark.parametrize("make, make_other", _VALUES, ids=lambda f: type(f()).__name__)
def test_value_classes_are_immutable_and_compare_by_class_then_fields(make, make_other):
    value, twin, other = make(), make(), make_other()
    cls = type(value)
    fields = cls.__slots__
    assert not hasattr(value, "__dict__")
    assert value is not twin and value == twin and hash(value) == hash(twin)
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


def test_equal_fields_in_two_classes_are_unequal():
    iv, window = FpInterval(Coord(0), Coord(1)), Window(Coord(0), Coord(1))
    assert (iv.start, iv.end) == (window.a, window.b)
    assert iv != window and window != iv


def test_default_fields():
    assert DenseLine() == DENSE_REAL
    assert ChainModule((1,), (), ()).field == QQ
