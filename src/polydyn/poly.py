"""Polynomial interfaces and the lenses between them.

A ``Polynomial`` is a coproduct of representables presented concretely: a
space of positions together with a direction space for each position.  Two
presentations cover everything this package instantiates:

* ``ConstantDirections`` -- every position shares one direction space.  With
  direction space ``S`` and positions ``A`` this is the monomial ``A y^S``;
  direction space unit gives the linear interface ``A y``; positions unit and
  directions unit give the identity interface ``y``.
* ``TabulatedDirections`` -- an explicit finite table position -> space.

A ``PolyMap`` from ``p`` to ``q`` is a forward map on positions together with
a backward family sending a source position and a direction of the target
there to a distribution over source directions.  Deterministic maps are those
whose backward family is Dirac-valued.

Tensor products keep their structural ``Prod`` shape; nothing is flattened
unless you ask (see ``spaces.normalize_point``).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Union

from .dist import (
    Dirac,
    Dist,
    DistError,
    bind,
    dirac,
    dist_distance,
    dst,
    finite_items,
    product_items,
)
from .spaces import (
    Space,
    SpaceError,
    check_point,
    is_finite,
    join_normal,
    norm_arity,
    normalize_point,
    points,
    prod,
    unit,
)

DETERMINISTIC = "deterministic"
STOCHASTIC = "stochastic"


class PolyError(ValueError):
    """Ill-shaped polynomial data or a lens operation on mismatched interfaces."""


@dataclass(frozen=True)
class ConstantDirections:
    space: Space


@dataclass(frozen=True)
class TabulatedDirections:
    table: tuple  # ((position, Space), ...), total over a finite position space


@dataclass(frozen=True)
class Polynomial:
    positions: Space
    directions: Union[ConstantDirections, TabulatedDirections]

    def dirs_at(self, i) -> Space:
        if isinstance(self.directions, ConstantDirections):
            return self.directions.space
        for pos, space in self.directions.table:
            if pos == i:
                return space
        raise PolyError(f"position {i!r} has no entry in the direction table")

    def __repr__(self) -> str:
        if isinstance(self.directions, ConstantDirections):
            return f"monomial({self.positions!r}, {self.directions.space!r})"
        return f"poly({self.positions!r}, tabulated)"


def monomial(positions: Space, dirs: Space) -> Polynomial:
    """The interface ``A y^S`` with positions A and constant directions S."""
    return Polynomial(positions, ConstantDirections(dirs))


def linear(positions: Space) -> Polynomial:
    """``A y``: positions A, trivial directions."""
    return monomial(positions, unit())


def y() -> Polynomial:
    """The identity interface."""
    return monomial(unit(), unit())


def tabulated(positions: Space, table: dict) -> Polynomial:
    if not is_finite(positions):
        raise PolyError("a direction table needs a finite position space")
    missing = [i for i in points(positions) if i not in table]
    if missing:
        raise PolyError(f"direction table is missing positions {missing!r}")
    entries = tuple((i, table[i]) for i in points(positions))
    return Polynomial(positions, TabulatedDirections(entries))


def tensor(p: Polynomial, q: Polynomial) -> Polynomial:
    """Parallel product: positions Prod(p(1), q(1)), directions Prod(p[i], q[j])."""
    positions = prod(p.positions, q.positions)
    if isinstance(p.directions, ConstantDirections) and isinstance(
        q.directions, ConstantDirections
    ):
        return Polynomial(
            positions, ConstantDirections(prod(p.directions.space, q.directions.space))
        )
    if not is_finite(positions):
        raise PolyError(
            "tensor with tabulated directions needs finite positions on both sides"
        )
    table = {
        (i, j): prod(p.dirs_at(i), q.dirs_at(j))
        for i in points(p.positions)
        for j in points(q.positions)
    }
    return tabulated(positions, table)


# ---------------------------------------------------------------------------
# lenses


@dataclass(frozen=True)
class PolyMap:
    source: Polynomial
    target: Polynomial
    forward: Callable  # positions(source) -> positions(target)
    backward: Callable  # (i, direction of target at forward(i)) -> Dist
    effect: str = DETERMINISTIC

    def __post_init__(self):
        if self.effect not in (DETERMINISTIC, STOCHASTIC):
            raise PolyError(f"unknown effect {self.effect!r}")


def det_polymap(source, target, forward, backward_point) -> PolyMap:
    """Deterministic lens from a point-valued backward function."""

    def backward(i, d):
        return dirac(source.dirs_at(i), backward_point(i, d))

    return PolyMap(source, target, forward, backward, DETERMINISTIC)


def id_map(p: Polynomial) -> PolyMap:
    return PolyMap(p, p, lambda i: i, lambda i, d: dirac(p.dirs_at(i), d), DETERMINISTIC)


def compose_map(g: PolyMap, f: PolyMap) -> PolyMap:
    """The composite g after f.  Forward parts compose covariantly, backward
    families compose contravariantly through the Kleisli category."""
    if f.target != g.source:
        raise PolyError(
            f"cannot compose: inner map lands in {f.target!r} "
            f"but outer map starts at {g.source!r}"
        )

    def forward(i):
        return g.forward(f.forward(i))

    def backward(i, d2):
        mid = g.backward(f.forward(i), d2)
        return bind(mid, lambda d1: f.backward(i, d1))

    effect = DETERMINISTIC if (f.effect, g.effect) == (DETERMINISTIC,) * 2 else STOCHASTIC
    return PolyMap(f.source, g.target, forward, backward, effect)


def tensor_map(f: PolyMap, g: PolyMap) -> PolyMap:
    """Side-by-side product of lenses; backward laws combine independently."""
    source = tensor(f.source, g.source)
    target = tensor(f.target, g.target)

    def forward(ij):
        i, j = ij
        return (f.forward(i), g.forward(j))

    def backward(ij, dd):
        i, j = ij
        d1, d2 = dd
        return dst(f.backward(i, d1), g.backward(j, d2))

    effect = DETERMINISTIC if (f.effect, g.effect) == (DETERMINISTIC,) * 2 else STOCHASTIC
    return PolyMap(source, target, forward, backward, effect)


# ---------------------------------------------------------------------------
# sections


@dataclass(frozen=True)
class Section:
    of: Polynomial
    assign: Callable  # position -> direction at that position


def constant_section(p: Polynomial, d) -> Section:
    return Section(p, lambda i: d)


def trivial_section(p: Polynomial) -> Section:
    """The unique section when every direction space is the unit (e.g. Ay, y)."""
    return Section(p, lambda i: check_point(p.dirs_at(i), ()))


def all_sections(p: Polynomial) -> list:
    """Every section of a finite interface, enumerated deterministically.

    A section picks one direction per position, so this is the product of the
    direction fibres -- only possible when positions and fibres are finite."""
    if not is_finite(p.positions):
        raise PolyError("cannot enumerate sections over infinite positions")
    pos = list(points(p.positions))
    fibres = []
    for i in pos:
        f = p.dirs_at(i)
        if not is_finite(f):
            raise PolyError(f"direction space at {i!r} is not finite")
        fibres.append(list(points(f)))
    out = []
    for combo in itertools.product(*fibres):
        table = dict(zip(pos, combo))
        out.append(Section(p, table.__getitem__))
    return out


def check_section(p: Polynomial, sigma: Section) -> None:
    """Typecheck a section at every position (finite positions only); a
    position that gets no direction, or one outside its fibre, is named."""
    if sigma.of != p:
        raise PolyError("section belongs to a different interface")
    for i in points(p.positions):
        try:
            check_point(p.dirs_at(i), sigma.assign(i))
        except KeyError:
            raise PolyError(f"section gives no direction at position {i!r}") from None
        except SpaceError as exc:
            raise PolyError(f"section at position {i!r}: {exc}") from None


def dirac_point(d: Dist):
    """Extract the payload of a deterministic distribution."""
    if isinstance(d, Dirac):
        return d.point
    raise DistError(f"expected a point mass, got {d!r}")


def pull_section(phi: PolyMap, tau: Section) -> Section:
    """Transport a section of the target back along a deterministic lens:
    the source position i receives phi's backward answer to tau's choice at
    forward(i)."""
    if tau.of != phi.target:
        raise PolyError("section is not a section of the lens target")
    if phi.effect != DETERMINISTIC:
        raise PolyError("pull_section needs a deterministic lens")

    def assign(i):
        return dirac_point(phi.backward(i, tau.assign(phi.forward(i))))

    return Section(phi.source, assign)


# ---------------------------------------------------------------------------
# comparison and canonical encodings (finite interfaces)


def maps_agree(f: PolyMap, g: PolyMap) -> bool:
    """Exact extensional equality of two lenses with the same finite shape."""
    if f.source != g.source or f.target != g.target:
        return False
    for i in points(f.source.positions):
        if f.forward(i) != g.forward(i):
            return False
        fibre = f.target.dirs_at(f.forward(i))
        for d in points(fibre):
            if dist_distance(f.backward(i, d), g.backward(i, d)) > 0.0:
                return False
    return True


def polymap_key(f: PolyMap):
    """Canonical hashable encoding of a finite lens: its full forward and
    backward tables.  The position and direction values are normalized first,
    so lenses that differ only by unit factors or by product re-association
    get the same key.  A row per source position i (in enumeration order)
    holds i, its forward position, and per direction d of the target there
    the backward law's items in the order of the source fibre's ``points``,
    which normalizing keeps, so no key depends on the order in which a law
    lists its atoms.  Every backward atom must be a point of the source fibre
    at i: an atom off it is refused here, for every route that keys a lens."""
    if not is_finite(f.source.positions):
        raise PolyError("polymap_key needs a finite position space")
    rows = []
    fibre_of = atoms = None  # the last source fibre, and its atoms' ranks and normal forms
    for i in points(f.source.positions):
        fwd = f.forward(i)
        fibre_out = f.target.dirs_at(fwd)
        fibre_in = f.source.dirs_at(i)
        if not (is_finite(fibre_out) and is_finite(fibre_in)):
            raise PolyError("polymap_key needs finite direction spaces")
        if fibre_in is not fibre_of:
            fibre_of = fibre_in
            atoms = {a: (n, normalize_point(fibre_in, a)) for n, a in enumerate(points(fibre_in))}
        back = []
        for d in points(fibre_out):
            items = []
            for a, w in finite_items(f.backward(i, d)):
                try:
                    n, a_key = atoms[a]
                except (KeyError, TypeError):
                    raise PolyError(
                        f"at source position {i!r}, the backward law answers direction "
                        f"{d!r} with {a!r}, which is not a point of {fibre_in!r}"
                    ) from None
                items.append((n, a_key, w))
            items.sort()
            back.append((normalize_point(fibre_out, d), tuple((a, w) for _, a, w in items)))
        fwd_key = normalize_point(f.target.positions, fwd)
        i_key = normalize_point(f.source.positions, i)
        rows.append((i_key, fwd_key, tuple(back)))
    return tuple(rows)


def tensor_key(f: PolyMap, g: PolyMap, f_key: tuple, g_key: tuple) -> tuple:
    """``polymap_key(tensor_map(f, g))`` from the keys of f and g.

    Positions and directions are the factors' normal forms joined, by the
    normalized arity of each factor's space (of each fibre, per position),
    and a backward law's items are the products of the factors' items, as
    ``dst`` forms them.  Those pairs run through f's atoms slowest, each list
    in its own fibre's order, so they are in the order of the product fibre's
    ``points``, as the key of the walked lens lists them."""
    pos_f, tgt_f, fibres_f = _arities(f)
    pos_g, tgt_g, fibres_g = _arities(g)
    rows = []
    for (i_key, fwd1, back1), (in1, out1) in zip(f_key, fibres_f):
        for (j_key, fwd2, back2), (in2, out2) in zip(g_key, fibres_g):
            back = []
            for d1, items1 in back1:
                for d2, items2 in back2:
                    back.append((join_normal(out1, d1, out2, d2), tuple(
                        (join_normal(in1, a1, in2, a2), w)
                        for (a1, a2), w in product_items(items1, items2)
                    )))
            rows.append((
                join_normal(pos_f, i_key, pos_g, j_key),
                join_normal(tgt_f, fwd1, tgt_g, fwd2),
                tuple(back),
            ))
    return tuple(rows)


def _arities(f: PolyMap) -> tuple:
    """Normalized arities of a finite lens's source and target positions,
    and per source position of its own fibre and of the target's fibre
    there."""
    fibres = [
        (norm_arity(f.source.dirs_at(i)), norm_arity(f.target.dirs_at(f.forward(i))))
        for i in points(f.source.positions)
    ]
    return norm_arity(f.source.positions), norm_arity(f.target.positions), fibres


# ---------------------------------------------------------------------------
# time


@dataclass(frozen=True)
class TimeMonoid:
    """Time values are non-negative integers: either bare ticks (``nat``) or
    exact multiples of a fixed real step h (``real``).  Keeping arithmetic on
    integers makes the monoid laws hold on the nose."""

    kind: str  # "nat" | "real"
    h: float = 1.0

    def __post_init__(self):
        if self.kind not in ("nat", "real"):
            raise PolyError(f"unknown time kind {self.kind!r}")
        if self.kind == "real" and not self.h > 0:
            raise PolyError("real time needs a positive step")

    def check(self, t) -> int:
        if not isinstance(t, int) or t < 0:
            raise PolyError(f"time must be a non-negative integer tick, got {t!r}")
        return t


def time_nat() -> TimeMonoid:
    return TimeMonoid("nat")


def time_real(h: float) -> TimeMonoid:
    return TimeMonoid("real", float(h))
