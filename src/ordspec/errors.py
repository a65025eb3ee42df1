"""Error types and the immutable value base and order mixin shared across
the library.  Every layer imports this module, so the bases of its record
classes, and the table that lets kept records share their small tuples,
live here too and add no module to any import.
"""

from operator import attrgetter


class DomainError(Exception):
    """An operation was called outside its mathematical domain.

    Carries a short machine-readable ``kind`` plus a human-readable detail
    string; the CLI surfaces both.
    """

    def __init__(self, kind: str, detail: str = ""):
        super().__init__(detail or kind)
        self.kind = kind
        self.detail = detail or kind


class SchemaError(Exception):
    """Malformed input: unparseable JSON or JSON not matching a schema."""


class Value:
    """An immutable record whose fields are the ``__slots__`` of its class.

    The base stores the fields: ``Value(*values)`` takes exactly one value
    per field, in ``__slots__`` order, and a class with a rule checks or
    normalises its arguments and then calls ``super().__init__`` (``Coord``,
    built on every coordinate add, stores its own).  ``cls._make(*values)``
    stores values already in the class's form without its rule; pickling and
    copying rebuild every record through it.  Instances have no ``__dict__``
    and refuse every attribute assignment and deletion.
    Two values are equal when they are of the same class and their fields
    are equal, a value hashes as the tuple of its fields, and its repr is
    ``Name(field=value!r, ...)``.  The ordered values (``Ordered``) use this
    equality and write only their ``_cmp`` (and ``Coord`` an integer hash;
    ``Cut``, one object per value, compares and hashes by identity).
    """

    __slots__ = ()

    def __init_subclass__(cls):
        super().__init_subclass__()
        cls._fields = cls.__slots__
        # over one name attrgetter returns the value, over several a tuple
        cls._get = attrgetter(*cls._fields)
        # the slots' own setters, past the __setattr__ that refuses them
        cls._set = tuple(getattr(cls, n).__set__ for n in cls._fields)

    def __init__(self, *values):
        setters = self._set
        if len(values) != len(setters):
            raise TypeError(f"{self.__class__.__name__} takes {len(setters)} values, got {len(values)}")
        for set_value, value in zip(setters, values):
            set_value(self, value)

    @classmethod
    def _make(cls, *values):
        self = object.__new__(cls)
        Value.__init__(self, *values)
        return self

    def __reduce__(self):
        return self.__class__._make, self._values()

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{self.__class__.__name__} is immutable")

    __delattr__ = __setattr__

    def _values(self) -> tuple:
        values = self._get(self)
        return (values,) if len(self._fields) == 1 else values

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        get = self._get
        return get(self) == get(other)

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        args = ", ".join(f"{n}={v!r}" for n, v in zip(self._fields, self._values()))
        return f"{self.__class__.__name__}({args})"


# Tuples of small ints that kept answers hold many of (a morphism's entry
# keys, a barcode's bars) come from one table, as CPython shares small ints:
# such tuples are the largest part of those answers' memory, and a program
# that keeps many answers then holds one tuple per distinct small tuple, not
# one per entry or bar.  The bound keeps the table finite.
SHARED_BELOW = 64
_SHARED: dict = {}


def shared_small(key: tuple) -> tuple:
    """The one stored tuple equal to key when each of its members is an int
    (not a bool) in 0 <= v < SHARED_BELOW, else key itself."""
    for v in key:
        if v.__class__ is not int or not 0 <= v < SHARED_BELOW:
            return key
    return _SHARED.setdefault(key, key)


class Ordered:
    """A totally ordered value: its class writes ``_cmp(other)``, the sign
    (-1, 0 or 1) of self - other, and gets its four compares from here.  They
    compare within one family, the classes in ``_peers`` (the class alone;
    ``coords`` makes ``Coord`` and ``INF`` one), and return ``NotImplemented``
    against any other operand, so Python raises ``TypeError`` in either
    operand order."""

    __slots__ = ()

    def __init_subclass__(cls):
        super().__init_subclass__()
        cls._peers = frozenset((cls,))

    def __lt__(self, other):
        return self._cmp(other) < 0 if other.__class__ in self._peers else NotImplemented

    def __le__(self, other):
        return self._cmp(other) <= 0 if other.__class__ in self._peers else NotImplemented

    def __gt__(self, other):
        return self._cmp(other) > 0 if other.__class__ in self._peers else NotImplemented

    def __ge__(self, other):
        return self._cmp(other) >= 0 if other.__class__ in self._peers else NotImplemented
