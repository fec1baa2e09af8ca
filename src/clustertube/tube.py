"""Coordinates and Hom/Ext dimension arithmetic for the rank-n tube.

Indecomposables of the tube (and of its cluster category, which has the
same indecomposables) are written as pairs ``(a, b)``: ``a`` in ``1..n``
is the position of the socle, ``b >= 1`` is the quasi-length.  The AR
translate shifts the first coordinate down by one, cyclically.

All dimension counts here are closed-form, through one formula on
coordinates; the independent linear-algebra oracle lives in
:mod:`clustertube.reps`.

The package's records, :class:`TubeObject` among them, derive from
:class:`Record` and :class:`FrozenRecord`, plain ``__slots__`` classes
with hand-written methods: generating them at import, through the
standard library's record decorator, cost a cold process more than most
``verify`` suites take.  Only the one-line reader of each record's field
tuple, which equality, hashing and pickling share, is compiled per class.
"""

from __future__ import annotations

from .errors import RankMismatchError


def check_int(value, name: str) -> None:
    """``value`` is an exact int: bool is an int subclass, and floats hash equal to ints."""
    if type(value) is not int:
        raise ValueError(f"{name} must be an int, got {value!r}")


def check_rank(n: int) -> None:
    """Ranks are ints from 2; the rank-1 tube has no rigid indecomposables."""
    check_int(n, "rank")
    if n < 2:
        raise ValueError(f"rank must be >= 2, got {n}")


def check_coordinates(obj, names: tuple[str, ...]) -> None:
    """The fields ``names`` of ``obj`` are exact ints, and its rank
    ``obj.n`` is at least 2."""
    for name in names:
        check_int(getattr(obj, name), f"coordinate {name}")
    check_rank(obj.n)


class Record:
    """Base of the package's records.  A subclass names its fields in
    ``_fields`` and keeps them in ``__slots__``; its ``__init__`` sets
    them and, if the record validates, calls ``self.__post_init__()``,
    the hook that tests and the traced benchmark patch to count
    constructions.  Records compare equal field by field, within one
    class, and print as ``Name(field=value, ...)``; this base is mutable
    and unhashable."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        if cls._fields:
            # the field values as one tuple, by a method compiled for the
            # fields: it reads each slot directly, which costs a hash a
            # fifth less than an attrgetter of the names does
            reads = "".join(f"self.{name}, " for name in cls._fields)
            cls._values = eval(f"lambda self: ({reads})")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __repr__(self) -> str:
        inner = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({inner})"


class FrozenRecord(Record):
    """An immutable :class:`Record`, hashed as the tuple of its fields.
    ``__init__`` sets the fields with :meth:`_set`, or with
    ``object.__setattr__`` where construction is hot; any later
    assignment or deletion is an ``AttributeError``."""

    __slots__ = ()

    def _set(self, *values: object) -> None:
        """Set the fields, in ``_fields`` order; for ``__init__``."""
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)

    def __hash__(self) -> int:
        return hash(self._values())

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        # copies and pickles are rebuilt, and so checked, by the constructor
        return type(self), self._values()


class TubeObject(FrozenRecord):
    """Indecomposable object of the rank-``n`` tube, as coordinates."""

    __slots__ = _fields = ("a", "b", "n")

    def __init__(self, a: int, b: int, n: int) -> None:
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "n", n)
        self.__post_init__()

    def __post_init__(self) -> None:
        check_coordinates(self, ("a", "b", "n"))
        if not 1 <= self.a <= self.n:
            raise ValueError(f"first coordinate {self.a} not in 1..{self.n}")
        if self.b < 1:
            raise ValueError(f"quasi-length must be >= 1, got {self.b}")

    def __repr__(self) -> str:
        return f"({self.a},{self.b})@{self.n}"


def canonical_key(x: TubeObject) -> tuple[int, int]:
    """Sort key for the canonical summand order: by socle, then by
    decreasing quasi-length (so a wing is listed top first)."""
    return (x.a, -x.b)


def _same_rank(x: TubeObject, y: TubeObject) -> int:
    if x.n != y.n:
        raise RankMismatchError(f"rank mismatch: {x.n} vs {y.n}")
    return x.n


def _mod_coord(a: int, n: int) -> int:
    """Reduce a first coordinate into {1..n}."""
    return (a - 1) % n + 1


def tau(x: TubeObject) -> TubeObject:
    """AR translate: shift the socle position down by one."""
    return TubeObject(_mod_coord(x.a - 1, x.n), x.b, x.n)


def _hom(a: int, b: int, c: int, d: int, n: int) -> int:
    """dim Hom in the tube from ``(a, b)`` to ``(c, d)``, on coordinates.

    A morphism between uniserials factors as a quotient of ``(a, b)``
    mapping onto a submodule of ``(c, d)``; the common uniserial of length
    ``e`` needs socle ``c`` and top ``a+b-1``, which pins ``e = a+b-c``
    modulo ``n``.  So we count ``e`` in ``1..min(b, d)`` congruent to
    ``a+b-c``.  Socles are read modulo ``n``, so ``c - k`` stands for the
    socle of the k-th translate.
    """
    m = min(b, d)
    r = (a + b - c - 1) % n + 1
    return 0 if m < r else (m - r) // n + 1


def hom_dim_tube(x: TubeObject, y: TubeObject) -> int:
    """dim Hom in the tube itself."""
    return _hom(x.a, x.b, y.a, y.b, _same_rank(x, y))


def hom_dim_cluster(x: TubeObject, y: TubeObject) -> int:
    """dim Hom in the cluster tube: tube maps plus the degree-shift part,
    which is dual to tube maps from ``y`` into the double translate of ``x``."""
    n = _same_rank(x, y)
    return _hom(y.a, y.b, x.a - 2, x.b, n) + _hom(x.a, x.b, y.a, y.b, n)


def ext_dim_cluster(x: TubeObject, y: TubeObject) -> int:
    """dim Ext^1 in the cluster tube, ``Hom(y, tau x) + Hom(x, tau y)``;
    symmetric in its arguments (2-CY)."""
    n = _same_rank(x, y)
    return _hom(y.a, y.b, x.a - 1, x.b, n) + _hom(x.a, x.b, y.a - 1, y.b, n)


def is_rigid_indec(x: TubeObject) -> bool:
    """True iff ``x`` has no self-extensions, i.e. quasi-length <= n-1."""
    return x.b <= x.n - 1


def wing_contains(top: TubeObject, x: TubeObject) -> bool:
    """Membership of ``x`` in the wing with apex ``top``.

    The first coordinate of ``x`` is lifted into the window
    ``[top.a, top.a + n)`` before the comparison; raw modular values are
    never compared directly.
    """
    n = _same_rank(top, x)
    lift = top.a + (x.a - top.a) % n
    return lift + x.b <= top.a + top.b
