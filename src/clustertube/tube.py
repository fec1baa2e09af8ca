"""Coordinates and Hom/Ext dimension arithmetic for the rank-n tube.

Indecomposables of the tube (and of its cluster category, which has the
same indecomposables) are written as pairs ``(a, b)``: ``a`` in ``1..n``
is the position of the socle, ``b >= 1`` is the quasi-length.  The AR
translate shifts the first coordinate down by one, cyclically.

All dimension counts here are closed-form; the independent linear-algebra
oracle lives in :mod:`clustertube.reps`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .errors import RankMismatchError


@dataclass(frozen=True)
class TubeObject:
    """Indecomposable object of the rank-``n`` tube, as coordinates."""

    a: int
    b: int
    n: int

    def __post_init__(self) -> None:
        for name in ("a", "b", "n"):
            value = getattr(self, name)
            # exact type: bool is an int subclass, and floats hash equal to ints
            if type(value) is not int:
                raise ValueError(f"coordinate {name} must be an int, got {value!r}")
        if self.n < 2:
            raise ValueError(f"tube rank must be >= 2, got {self.n}")
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


def tau_inv(x: TubeObject) -> TubeObject:
    """Inverse AR translate."""
    return TubeObject(_mod_coord(x.a + 1, x.n), x.b, x.n)


@lru_cache(maxsize=None)
def hom_dim_tube(x: TubeObject, y: TubeObject) -> int:
    """dim Hom in the tube itself.

    A morphism between uniserials factors as a quotient of ``x`` mapping
    onto a submodule of ``y``; the common uniserial of length ``e`` needs
    socle ``c`` and top ``a+b-1``, which pins ``e = a+b-c`` modulo ``n``.
    So we count ``e`` in ``1..min(b, d)`` congruent to ``a+b-c``.
    """
    n = _same_rank(x, y)
    m = min(x.b, y.b)
    r = _mod_coord(x.a + x.b - y.a, n)
    if m < r:
        return 0
    return (m - r) // n + 1


def hom_dim_cluster(x: TubeObject, y: TubeObject) -> int:
    """dim Hom in the cluster tube: tube maps plus the degree-shift part,
    which is dual to tube maps into the double translate."""
    _same_rank(x, y)
    return hom_dim_tube(y, tau(tau(x))) + hom_dim_tube(x, y)


@lru_cache(maxsize=None)
def ext_dim_cluster(x: TubeObject, y: TubeObject) -> int:
    """dim Ext^1 in the cluster tube; symmetric in its arguments (2-CY)."""
    _same_rank(x, y)
    return hom_dim_tube(y, tau(x)) + hom_dim_tube(x, tau(y))


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
