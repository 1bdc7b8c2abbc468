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
import numbers
import reprlib
from dataclasses import MISSING, FrozenInstanceError, dataclass, fields
from typing import Any, Iterator, Union

import numpy as np


class SpaceError(ValueError):
    """A value failed membership in a space, or an operation needed structure
    (finiteness, enumerability) the space doesn't have."""


# ---------------------------------------------------------------------------
# counts


def integer(value):
    """``value`` as a Python int when it is an integer, a numpy integer as
    well; None for a bool, which Python counts as an integer, and for any
    other value.  An int is passed first: the ``numbers.Integral`` test
    costs ten times more."""
    if type(value) is int:
        return value
    if isinstance(value, numbers.Integral) and not isinstance(value, bool):
        return int(value)
    return None


def check_count(value, what: str, error: type) -> int:
    """A count of ticks, steps, sections or dimensions, as a Python int: a
    non-negative ``integer``.  Any other value is refused by ``what`` as
    ``error``: ``<what> must be an integer, got ...`` or ``<what> must be
    non-negative, got ...``."""
    n = integer(value)
    if n is None:
        raise error(f"{what} must be an integer, got {value!r}")
    if n < 0:
        raise error(f"{what} must be non-negative, got {n}")
    return n


# ---------------------------------------------------------------------------
# records


def record(cls):
    """Make ``cls`` a frozen record: what ``@dataclass(frozen=True)`` makes
    of it, at one compile per class where dataclass compiles six.

    ``dataclasses.fields``, ``replace``, ``KW_ONLY`` and ``__match_args__``
    work as on any dataclass.  The one generated ``__init__`` stores each
    field with ``object.__setattr__`` and then calls ``__post_init__``; the
    class's compared fields come from a generated getter, ``_record_key``.
    The other methods are shared by every record: ``==`` and ``hash``
    compare and hash the tuple of compared fields, ``repr`` is dataclass's
    unless the class defines its own, and assigning or deleting any
    attribute raises ``FrozenInstanceError``; its dataclass flags ``frozen``
    and ``eq`` read True.  Each record needs a docstring: without one,
    dataclass writes one from ``object.__init__``'s text signature, which it
    parses with ``tokenize``'s regexes."""
    bases = [b.__dataclass_params__ for b in cls.__mro__[1:] if b.__eq__ is _record_eq]
    for flags in bases:  # dataclass refuses a subclass not frozen of a frozen class
        flags.frozen = False
    dataclass(cls, init=False, repr=False, eq=False)
    for flags in (*bases, cls.__dataclass_params__):
        flags.frozen = flags.eq = True
    every = fields(cls)
    params = [f for f in every if f.init]
    env = {"__name__": cls.__module__, "_store": object.__setattr__}

    def param(f) -> str:
        if f.default_factory is not MISSING:
            raise TypeError(f"record field {f.name!r} takes a plain default, not a factory")
        if f.default is MISSING:
            return f.name
        env[f"_default_{f.name}"] = f.default
        return f"{f.name}=_default_{f.name}"

    args = [param(f) for f in params if not f.kw_only]
    keywords = [param(f) for f in params if f.kw_only]
    if keywords:
        args += ["*", *keywords]
    lines = [f"def __init__(self, {', '.join(args)}):"]
    lines += [f"    _store(self, {f.name!r}, {f.name})" for f in params]
    if hasattr(cls, "__post_init__"):
        lines.append("    self.__post_init__()")
    if len(lines) == 1:
        lines.append("    pass")
    key = "".join(f"self.{f.name}, " for f in every if f.compare)
    lines += ["def _record_key(self):", f"    return ({key})"]
    exec("\n".join(lines), env)
    init = env["__init__"]
    init.__qualname__ = f"{cls.__qualname__}.__init__"
    init.__annotations__ = {**{f.name: f.type for f in params}, "return": None}
    cls.__init__, cls._record_key = init, env["_record_key"]
    cls._record_shown = tuple(f.name for f in every if f.repr)
    if "__repr__" not in cls.__dict__:
        cls.__repr__ = _record_repr
    cls.__eq__, cls.__hash__ = _record_eq, _record_hash
    cls.__setattr__, cls.__delattr__ = _record_setattr, _record_delattr
    return cls


@reprlib.recursive_repr()
def _record_repr(self) -> str:
    shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._record_shown)
    return f"{self.__class__.__qualname__}({shown})"


def _record_eq(self, other):
    if other.__class__ is self.__class__:
        return self._record_key() == other._record_key()
    return NotImplemented


def _record_hash(self) -> int:
    return hash(self._record_key())


def _record_setattr(self, name, value):
    raise FrozenInstanceError(f"cannot assign to field {name!r}")


def _record_delattr(self, name):
    raise FrozenInstanceError(f"cannot delete field {name!r}")


@record
class UnitSpace:
    """The one-point space; its one point is ``()``."""

    def __repr__(self) -> str:
        return "unit()"


@record
class FiniteSpace:
    """A finite enumeration of distinct hashable labels, in the order
    ``points`` lists them."""

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


@record
class EuclidSpace:
    """R^dim; its points are dim-tuples of floats.  ``dim`` is a count
    (``check_count``)."""

    dim: int

    def __post_init__(self):
        object.__setattr__(self, "dim", check_count(self.dim, "euclid dimension", SpaceError))

    def __repr__(self) -> str:
        return f"euclid({self.dim})"


@record
class ProdSpace:
    """An ordered product; a point is a tuple with one slot per factor."""

    factors: tuple

    def __repr__(self) -> str:
        return f"prod{list(self.factors)!r}"


@record
class DistSpace:
    """The laws over ``base``: the positions of an interface whose inputs
    are distributions.  It has no enumeration."""

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
    """R^dim; ``dim`` is a count (``check_count``)."""
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
        return tuple(map(float, flat[k : k + space.dim])), k + space.dim
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
