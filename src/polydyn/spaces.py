"""Computable spaces and their points.

A space is one of:

* ``UnitSpace``      -- the one-point space, written ``unit()``; its point is ``()``.
* ``FiniteSpace``    -- a finite enumeration of distinct hashable labels.
* ``EuclidSpace``    -- R^n with float64 coordinates; points are n-tuples of floats.
* ``ProdSpace``      -- an ordered product; points are tuples, one slot per factor.
* ``DistSpace``      -- the space of distributions over a base space (positions of
  hierarchical interfaces whose inputs are themselves distributions). In-memory
  only; it has no JSON form and no enumeration.

Products are never flattened silently.  ``normalize_point`` is the explicit
normalization: a point's normal form is the tuple of its slots, with nested
products spliced and unit factors dropped (a point of the unit space has the
empty tuple), so a pair's normal form is its components' concatenated;
``expand_point`` inverts it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Iterator, Union

import numpy as np


class SpaceError(ValueError):
    """A value failed membership in a space, or an operation needed structure
    (finiteness, enumerability) the space doesn't have."""


@dataclass(frozen=True)
class UnitSpace:
    def __repr__(self) -> str:
        return "unit()"


@dataclass(frozen=True)
class FiniteSpace:
    labels: tuple

    def __post_init__(self):
        try:
            as_set = frozenset(self.labels)
        except TypeError:
            for label in self.labels:
                try:
                    hash(label)
                except TypeError:
                    raise SpaceError(f"finite space label {label!r} is not hashable") from None
            raise
        if len(as_set) != len(self.labels):
            raise SpaceError(f"finite space labels must be distinct: {self.labels!r}")
        # cached for O(1) membership; not a field, so eq/hash see labels only
        object.__setattr__(self, "_label_set", as_set)

    def __repr__(self) -> str:
        return f"finite{list(self.labels)!r}"


@dataclass(frozen=True)
class EuclidSpace:
    dim: int

    def __post_init__(self):
        if self.dim < 0:
            raise SpaceError("euclid dimension must be non-negative")

    def __repr__(self) -> str:
        return f"euclid({self.dim})"


@dataclass(frozen=True)
class ProdSpace:
    factors: tuple

    def __repr__(self) -> str:
        return f"prod{list(self.factors)!r}"


@dataclass(frozen=True)
class DistSpace:
    base: "Space"

    def __repr__(self) -> str:
        return f"dist_space({self.base!r})"


Space = Union[UnitSpace, FiniteSpace, EuclidSpace, ProdSpace, DistSpace]

_UNIT = UnitSpace()


def unit() -> UnitSpace:
    return _UNIT


def finite(*labels) -> FiniteSpace:
    """Finite space from labels; ``finite('a', 'b')`` or ``finite(*range(6))``.
    Each argument is one label, so ``finite((0, 1))`` has the one label
    (0, 1)."""
    return FiniteSpace(labels)


def euclid(dim: int) -> EuclidSpace:
    return EuclidSpace(dim)


def prod(*factors) -> Space:
    """Ordered product space.  An empty product is the unit space."""
    if len(factors) == 1 and isinstance(factors[0], (list, tuple)):
        factors = tuple(factors[0])
    if not factors:
        return _UNIT
    return ProdSpace(tuple(factors))


def dist_space(base: Space) -> DistSpace:
    return DistSpace(base)


# ---------------------------------------------------------------------------
# membership / enumeration


def contains(space: Space, value: Any) -> bool:
    """Membership test for a point value in a space."""
    if isinstance(space, UnitSpace):
        return value == ()
    if isinstance(space, FiniteSpace):
        try:
            return value in space._label_set
        except TypeError:
            return False
    if isinstance(space, EuclidSpace):
        return (
            isinstance(value, tuple)
            and len(value) == space.dim
            and all(isinstance(c, (int, float)) for c in value)
        )
    if isinstance(space, ProdSpace):
        return (
            isinstance(value, tuple)
            and len(value) == len(space.factors)
            and all(contains(f, v) for f, v in zip(space.factors, value))
        )
    if isinstance(space, DistSpace):
        # Dist values are duck-checked here to avoid a circular import; the
        # dist module re-validates on use.
        return hasattr(value, "space") and value.space == space.base
    raise SpaceError(f"not a space: {space!r}")


def check_point(space: Space, value: Any) -> Any:
    if not contains(space, value):
        raise SpaceError(f"{value!r} is not a point of {space!r}")
    return value


def is_finite(space: Space) -> bool:
    """True when the space can be exhaustively enumerated."""
    if isinstance(space, (UnitSpace, FiniteSpace)):
        return True
    if isinstance(space, ProdSpace):
        return all(is_finite(f) for f in space.factors)
    return False


def cardinality(space: Space) -> int:
    if isinstance(space, UnitSpace):
        return 1
    if isinstance(space, FiniteSpace):
        return len(space.labels)
    if isinstance(space, ProdSpace):
        n = 1
        for f in space.factors:
            n *= cardinality(f)
        return n
    raise SpaceError(f"cardinality undefined for {space!r}")


def points(space: Space) -> Iterator:
    """Deterministic enumeration of a finite space's points."""
    if isinstance(space, UnitSpace):
        yield ()
    elif isinstance(space, FiniteSpace):
        yield from space.labels
    elif isinstance(space, ProdSpace):
        yield from itertools.product(*(points(f) for f in space.factors))
    else:
        raise SpaceError(f"cannot enumerate {space!r}")


# ---------------------------------------------------------------------------
# normalization


def normalize_point(space: Space, value: Any) -> tuple:
    """Rewrite a point of ``space`` in normal form, the tuple of its slots:
    nested products spliced and unit factors dropped, so the normal form of
    a pair point is its components' normal forms concatenated.  A singleton
    stays a 1-tuple, so a tuple label in one slot is never two slots."""
    return tuple(_norm_parts(space, value))


def _norm_parts(space: Space, value: Any) -> list:
    if isinstance(space, UnitSpace):
        return []
    if isinstance(space, ProdSpace):
        out: list = []
        for f, v in zip(space.factors, value):
            out.extend(_norm_parts(f, v))
        return out
    return [value]


def expand_point(space: Space, norm_value: tuple) -> Any:
    """Inverse of normalize_point: rebuild the structured point of ``space``
    from the tuple of its slots.  A value that is not a tuple, or has too
    few or too many slots, is refused."""
    if isinstance(norm_value, tuple):
        try:
            built, used = _expand(space, norm_value, 0)
        except IndexError:  # too few slots
            used = None
        if used == len(norm_value):
            return built
    raise SpaceError(f"{norm_value!r} is not a normal form of a point of {space!r}")


def _expand(space: Space, slots: tuple, k: int):
    if isinstance(space, UnitSpace):
        return (), k
    if isinstance(space, ProdSpace):
        vals = []
        for f in space.factors:
            v, k = _expand(f, slots, k)
            vals.append(v)
        return tuple(vals), k
    return slots[k], k + 1


def euclid_dims(space: Space) -> int:
    """Total real dimension of a space built from Euclid/Prod/Unit parts."""
    if isinstance(space, EuclidSpace):
        return space.dim
    if isinstance(space, UnitSpace):
        return 0
    if isinstance(space, ProdSpace):
        return sum(euclid_dims(f) for f in space.factors)
    raise SpaceError(f"{space!r} is not a Euclidean-shaped space")


def flatten_floats(space: Space, value: Any) -> list:
    """Flatten a point of a Euclidean-shaped space into a list of floats."""
    if isinstance(space, EuclidSpace):
        return [float(c) for c in value]
    if isinstance(space, UnitSpace):
        return []
    if isinstance(space, ProdSpace):
        out: list = []
        for f, v in zip(space.factors, value):
            out.extend(flatten_floats(f, v))
        return out
    raise SpaceError(f"{space!r} is not a Euclidean-shaped space")


def unflatten_floats(space: Space, flat) -> Any:
    built, used = _unflatten(space, list(flat), 0)
    if used != len(flat):
        raise SpaceError(f"wrong dimension for {space!r}")
    return built


def _unflatten(space: Space, flat: list, k: int):
    if isinstance(space, EuclidSpace):
        return tuple(float(c) for c in flat[k : k + space.dim]), k + space.dim
    if isinstance(space, UnitSpace):
        return (), k
    if isinstance(space, ProdSpace):
        vals = []
        for f in space.factors:
            v, k = _unflatten(f, flat, k)
            vals.append(v)
        return tuple(vals), k
    raise SpaceError(f"{space!r} is not a Euclidean-shaped space")


def _tuplify(obj: Any) -> Any:
    """obj with every list, tuple and array in it read as a tuple: a point
    written with lists or with arrays."""
    if isinstance(obj, np.ndarray):
        obj = obj.tolist()
    return tuple(_tuplify(x) for x in obj) if isinstance(obj, (list, tuple)) else obj
