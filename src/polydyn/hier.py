"""Hierarchical systems: dynamical systems whose outputs are themselves lenses.

A ``HierSystem`` from interface p to interface q is a stateful process that at
each tick emits a whole lens p -> q (``emit``) and absorbs the response -- a
source position together with the direction the target returned there -- into
a state update (``absorb``).  A system is its one-tick data: emit and absorb
take a state, not a tick, so every tick repeats them, and a system that needs
a clock carries it in its state.  Composing two of them runs the emitted lenses
nose-to-tail while routing the backward traffic through both states; tensoring
runs them side by side.  Copy and discard systems make this a copy-discard
setting, which is what lets an abstract Bayes' rule be stated dynamically.

Equality of hierarchical systems is extensional: two systems are compared by
the distributions of their emitted lenses over time (``trace``) under every
environment choice (``HomSection``), via ``quasi_bisim``.  Emitted lenses are
encoded by normalized forward/backward tables, so systems whose interfaces
differ only by unit factors or product re-association compare equal.  An
open system on p is traced and compared as the hierarchical system y -> p.
A trace walks the emit and absorb closures and reads only the states its
initial law reaches; the tables (``tabulate``), which hold every state of a
finite system, serve the verdicts.

The bidirectional refinement (``hibi_compose``) composes systems whose source
positions are distribution-valued: the middle wire is lifted with the monad
unit unless the left factor supplies a richer ``forward_lift``.
"""

from __future__ import annotations

import itertools
from dataclasses import KW_ONLY, field, replace
from typing import Callable, Optional

import numpy as np

from .dist import (
    Categorical,
    Dirac,
    Dist,
    Rng,
    _check_product,
    _point_mass_rows,
    bind,
    categorical,
    dirac,
    dist_distance,
    dst,
    finite_items,
    prob,
    pushforward,
    uniform,
)
from .poly import (
    STOCHASTIC,
    PolyMap,
    Polynomial,
    TimeMonoid,
    compose_map,
    det_polymap,
    id_map,
    linear,
    monomial,
    polymap_key,
    tensor,
    tensor_key,
    tensor_map,
    time_nat,
    with_forward,
    y,
)
from .spaces import (
    DistSpace,
    FiniteSpace,
    Space,
    cardinality,
    check_count,
    contains,
    expand_point,
    integer,
    is_finite,
    normalize_point,
    points,
    prod,
    record,
    unit,
)
from .systems import System


class HierError(ValueError):
    """Mismatched interfaces or times in a hierarchical construction."""


class _ProductInit:
    """``HierSystem.init``: None on the class, the field's default; on a
    composite left without it (``_with_factors``), formed when first read."""

    def __get__(self, hs, cls=None):
        if hs is None:
            return None
        object.__setattr__(hs, "init", dst(hs.factors[1].init, hs.factors[2].init))
        return hs.init


@record
class HierSystem:
    """A hierarchical system source -> target over ``states``, given by its
    one-tick data: ``emit(x)`` is the lens state x shows, ``absorb(x, i, d)``
    the law of the next state once the response at source position i
    returns direction d, and ``forward_lift(x, b)``, when given, the law
    ``hibi_compose`` puts on the middle wire for target position b.  None
    takes a tick, so every tick repeats them.  ``time`` is the monoid the
    ticks come from; composites refuse a mix.  A composite's ``init`` is
    ``dst`` of its factors', formed when first read (``_with_factors``)."""

    source: Polynomial
    target: Polynomial
    states: Space
    time: TimeMonoid
    emit: Callable  # x -> PolyMap source -> target
    absorb: Callable  # (x, i, d') -> Dist over states
    _: KW_ONLY
    forward_lift: Optional[Callable] = None  # (x, b) -> Dist over target positions
    init: Optional[Dist] = _ProductInit()  # canonical initial state law, when one exists
    # (kind, left, right), set by compose_hier/tensor_hier alone: their
    # tables, and the vector of their own init, are built from the factors'
    # (see ``tabulate``).  ``replace`` cannot copy or set it, so any copy is
    # tabulated as a leaf, from its own emit, absorb and (formed) init
    factors: Optional[tuple] = field(default=None, init=False, compare=False, repr=False)


def mk_hier(
    source: Polynomial,
    target: Polynomial,
    states: Space,
    emit: Callable,
    absorb: Callable,
    init: Dist = None,
) -> HierSystem:
    """A hierarchical system from its one-tick emit and absorb.  At each
    state of a finite space the emitted lens must have the declared shape."""
    if is_finite(states):
        for x in points(states):
            phi = emit(x)
            if phi.source != source or phi.target != target:
                raise HierError(
                    f"emitted lens at state {x!r} has shape {phi.source!r} -> "
                    f"{phi.target!r}, declared {source!r} -> {target!r}"
                )
    return HierSystem(source, target, states, time_nat(), emit, absorb, init=init)


def as_hier(sys_: System) -> HierSystem:
    """An open system on p as the hierarchical system y -> p, whose lenses are
    the positions of p: it emits the constant lens at its output and absorbs
    a direction as one tick of its update, read at t = 1 as ``closure`` is."""
    source, p = y(), sys_.interface

    def emit(x):
        a = sys_.output(1, x)
        return det_polymap(source, p, lambda i: a, lambda i, d: ())

    def absorb(x, i, d):
        return sys_.update(1, x, d)

    return HierSystem(source, p, sys_.states, sys_.time, emit, absorb)


# ---------------------------------------------------------------------------
# tabular presentation for monomial interfaces


def hier_from_tables(
    A: Space, S: Space, B: Space, T: Space,
    states: Space,
    o1: Callable,  # (x, a) -> b
    o2: Callable,  # (x, a, t') -> s
    u: Callable,  # (x, a, t') -> Dist over states
) -> HierSystem:
    """Hierarchical system between monomial interfaces Ay^S -> By^T from its
    three component maps: forward output, backward output, update."""
    source = monomial(A, S)
    target = monomial(B, T)

    def emit(x):
        return det_polymap(source, target, lambda a: o1(x, a), lambda a, tp: o2(x, a, tp))

    return mk_hier(source, target, states, emit, u)


# ---------------------------------------------------------------------------
# category structure


def id_hier(p: Polynomial) -> HierSystem:
    """The identity process on p: trivial state, constantly emits the identity
    lens, absorbs everything silently."""
    return _stateless(p, p, id_map(p))


def compose_hier(beta: HierSystem, gamma: HierSystem) -> HierSystem:
    """Sequential composition: run gamma's emitted lens after beta's.

    Backward traffic at a source position i first crosses gamma's backward
    family (producing middle directions), which then feed beta's absorb; both
    states update, independently given the routed directions."""
    if beta.target != gamma.source:
        raise HierError(
            f"cannot compose: left system targets {beta.target!r}, "
            f"right system expects {gamma.source!r}"
        )
    if beta.time != gamma.time:
        raise HierError("composed systems must share the time monoid")
    states = prod(beta.states, gamma.states)

    def emit(xy):
        x, z = xy
        return compose_map(gamma.emit(z), beta.emit(x))

    def absorb(xy, i, d_out):
        x, z = xy
        j = beta.emit(x).forward(i)
        mid_dirs = gamma.emit(z).backward(j, d_out)
        left_new = bind(mid_dirs, lambda d_mid: beta.absorb(x, i, d_mid))
        right_new = gamma.absorb(z, j, d_out)
        return dst(left_new, right_new)

    lift = None
    if gamma.forward_lift is not None:
        def lift(xy, b):  # noqa: E731 - closure over gamma
            return gamma.forward_lift(xy[1], b)

    return _with_factors("compose", beta, gamma, HierSystem(
        beta.source, gamma.target, states, beta.time, emit, absorb, forward_lift=lift))


def tensor_hier(beta: HierSystem, gamma: HierSystem) -> HierSystem:
    """Parallel product: emitted lenses tensor, absorbs run independently."""
    if beta.time != gamma.time:
        raise HierError("tensored systems must share the time monoid")
    source = tensor(beta.source, gamma.source)
    target = tensor(beta.target, gamma.target)
    states = prod(beta.states, gamma.states)

    def emit(xz):
        x, z = xz
        return tensor_map(beta.emit(x), gamma.emit(z))

    def absorb(xz, ij, dd):
        x, z = xz
        i, j = ij
        d1, d2 = dd
        return dst(beta.absorb(x, i, d1), gamma.absorb(z, j, d2))

    return _with_factors("tensor", beta, gamma,
                         HierSystem(source, target, states, beta.time, emit, absorb))


def _with_factors(kind: str, beta: HierSystem, gamma: HierSystem, composite: HierSystem):
    """``composite`` with its factors set.  When both have an initial law, its
    own is ``dst`` of theirs: formed here for two point masses, else when read."""
    object.__setattr__(composite, "factors", (kind, beta, gamma))
    left, right = _own(beta), _own(gamma)
    if type(left) is Dirac and type(right) is Dirac:
        object.__setattr__(composite, "init", dst(left, right))
    elif left is not None and right is not None:
        del vars(composite)["init"]
    return composite


def _own(hs: HierSystem):
    """``hs.init``, or ``hs``, standing for it, while it is an unformed product."""
    return vars(hs).get("init", hs)


def _weights(d) -> list:
    """The weights of a law's items; of a system standing for its law, the
    products ``dst`` multiplies, in its order and grouping, with no atom formed."""
    if not isinstance(d, HierSystem):
        return [w for _, w in finite_items(d)]
    _, beta, gamma = d.factors
    return [w1 * w2 for w1 in _weights(_own(beta)) for w2 in _weights(_own(gamma))]


def _stateless(source: Polynomial, target: Polynomial, lens: PolyMap) -> HierSystem:
    ustates = unit()
    silent = dirac(ustates, ())

    def emit(x):
        return lens

    def absorb(x, i, d):
        return silent

    return HierSystem(source, target, ustates, time_nat(), emit, absorb, init=silent)


def copy_system(A: Space) -> HierSystem:
    """Duplicate an A-valued output: Ay -> Ay (x) Ay, emitting a |-> (a, a)."""
    source = linear(A)
    target = tensor(source, source)
    lens = det_polymap(source, target, lambda a: (a, a), lambda a, d: ())
    return _stateless(source, target, lens)


def discard_system(A: Space) -> HierSystem:
    """Forget an A-valued output: Ay -> y."""
    source = linear(A)
    target = y()
    lens = det_polymap(source, target, lambda a: (), lambda a, d: ())
    return _stateless(source, target, lens)


def swap_system(A: Space, B: Space) -> HierSystem:
    """Exchange the two halves of a pair output: Ay (x) By -> By (x) Ay."""
    source = tensor(linear(A), linear(B))
    target = tensor(linear(B), linear(A))
    lens = det_polymap(source, target, lambda ab: (ab[1], ab[0]), lambda ab, d: ((), ()))
    return _stateless(source, target, lens)


def function_system(f: Callable, A: Space, B: Space) -> HierSystem:
    """Stateless process emitting the fixed function a |-> f(a): Ay -> By."""
    source = linear(A)
    target = linear(B)
    lens = det_polymap(source, target, f, lambda a, d: ())
    return _stateless(source, target, lens)


# ---------------------------------------------------------------------------
# tables: finite hierarchical systems as index arrays and sparse rows


class HierTable:
    """A hierarchical system with finite states, positions and fibres,
    tabulated from its one-tick emit and absorb, which every tick repeats.

    State ids follow ``points(states)``.  ``key_of`` maps each state id to
    the id of the lens the state emits; ``keys[k]`` is that lens's
    ``polymap_key`` and ``_ranges[k]`` the option indices of each row of the
    key.  The options themselves, each key's (position, direction) responses
    as slot tuples (``normalize_point``) in the order ``hom_sections``
    offers them, are built from the keys only where they are read
    (``_options``).  A leaf table walks each lens for its key and keeps one
    lens's responses per key; a composite table keeps keys, not lenses (see
    ``_PairTable``), unless it is walked as a leaf.
    ``step(s, o)`` is the next-state law of state s after response o, as a
    sparse row (state ids, weights).  A row is built when ``rows`` first
    interns it, so states that move alike share one row id.  ``law(d)`` is a
    finite law as a vector over state ids, the system standing for its own
    (``_own``); a composite's is read from its factors' (``_PairTable.law``)."""

    def __init__(self, hs: HierSystem):
        self.system = hs
        self.keys: list = []
        self._ranges: list = []
        self._key_ids: dict = {}
        self._rows: list = []  # row id -> (state ids, weights)
        self._row_ids: dict = {}

    def _key_id(self, key) -> int:
        k = self._key_ids.get(key)
        if k is None:
            k = self._key_ids[key] = len(self.keys)
            self.keys.append(key)
            ends = itertools.accumulate(len(row[2]) for row in key)
            self._ranges.append([range(end - len(row[2]), end) for row, end in zip(key, ends)])
        return k

    def step(self, s: int, o: int) -> tuple:
        return self._rows[int(self.rows(np.array([s]), np.array([o]))[0])]

    def _new_row(self, built) -> int:
        self._rows.append(built)
        return len(self._rows) - 1

    def law(self, d: Dist) -> np.ndarray:
        """A finite law over the states as a vector over state ids."""
        vec = np.zeros(self.size)
        for x, w in finite_items(self.system.init if d is self.system else d):
            vec[self.state_id(x)] = w
        return vec


class _LeafTable(HierTable):
    """Tabulated by walking emit once per state, keying each lens with
    ``polymap_key`` (which refuses a backward atom off its fibre), listing
    each distinct lens's responses once (``_responses``), and walking
    absorb once per (state, response) that a tick reaches.  The atoms of
    each law that absorb returns are mapped to a row once per law object:
    channels, priors and stateless systems return one shared law."""

    def __init__(self, hs: HierSystem):
        super().__init__(hs)
        if not (is_finite(hs.states) and is_finite(hs.source.positions)):
            raise HierError("tabulating needs finite states and source positions")
        self._states = list(points(hs.states))
        self._ids = {x: s for s, x in enumerate(self._states)}
        self.size = len(self._states)
        self.key_of = np.empty(self.size, dtype=np.intp)
        lenses: dict = {}  # key id -> the first emitted lens with that key
        for s, x in enumerate(self._states):
            lens = hs.emit(x)
            k = self.key_of[s] = self._key_id(polymap_key(lens))
            lenses.setdefault(k, lens)
        self._resp = [_responses(lens) for lens in lenses.values()]  # key id -> responses
        # a key's option count is where its last row's range ends
        self._width = 1 + max(r[-1].stop if r else 0 for r in self._ranges)
        self._absorbed: dict = {}  # state id * width + option -> row id
        # id(absorbed law) -> (law, row id); the law kept alive keeps its id
        self._law_rows: dict = {}

    def state_id(self, x) -> int:
        try:
            return self._ids[x]
        except (KeyError, TypeError):
            raise HierError(f"{x!r} is not a state of the system") from None

    def rows(self, sid: np.ndarray, opt: np.ndarray) -> np.ndarray:
        width = self._width
        return _interned(sid * width + opt, self._absorbed,
                         lambda code: self._absorb(*divmod(code, width)))

    def _absorb(self, s: int, o: int) -> int:
        i, d = self._resp[self.key_of[s]][o]
        law = self.system.absorb(self._states[s], i, d)
        hit = self._law_rows.get(id(law))
        if hit is not None:
            return hit[1]
        pairs = tuple((self.state_id(a), w) for a, w in finite_items(law))
        r = self._row_ids.get(pairs)
        if r is None:
            ids = np.array([a for a, _ in pairs], dtype=np.intp)
            r = self._row_ids[pairs] = self._new_row(
                (ids, np.array([w for _, w in pairs], dtype=float)))
        self._law_rows[id(law)] = (law, r)
        return r


class _PairTable(HierTable):
    """A ``compose_hier``/``tensor_hier`` composite, tabulated from its
    factors' tables.  State (x, z) has id ``id(x) * |Z| + id(z)``; its key is
    formed once per distinct pair of factor keys, and each of its rows is the
    outer product of a pair of factor rows, built when ``rows`` first meets
    the pair (``_pair_row``).

    A composite key and each response's route, one option of each factor,
    are read from the factors' keys and option ranges (``_compose_key``, and
    ``tensor_key``, which concatenates the factors' slot tuples); no
    composite lens is built.  The key equals ``polymap_key`` of the composed
    lens: both list a law's items in its fibre's order, and an atom off its
    fibre was refused where a factor's leaf was keyed."""

    def __init__(self, hs: HierSystem, kind: str, left: HierTable, right: HierTable):
        super().__init__(hs)
        self._left, self._right = left, right
        self.size = left.size * right.size
        self._own_law = None  # the vector of the composite's own initial law, once formed
        pair_key, offset = [], []  # pair id -> key id, and index of its first route
        routes: list = []  # (left option, right option) per response
        n_right = len(right.keys)
        products: dict = {}  # each product of factor laws formed while this table is built
        if kind == "compose":  # each right key's rows by source position, built once
            g_rows = [{row[0]: (opts, row) for row, opts in zip(key, ranges)}
                      for key, ranges in zip(right.keys, right._ranges)]

        def pair(code: int) -> int:
            kf, kg = divmod(code, n_right)
            f_key, f_ranges = left.keys[kf], left._ranges[kf]
            if kind == "compose":
                key, routed = _compose_key(f_key, f_ranges, g_rows[kg])
            else:
                g_ranges = right._ranges[kg]
                key = tensor_key(f_key, right.keys[kg], products)
                routed = [(o_f, o_g) for f_opts in f_ranges for g_opts in g_ranges
                          for o_f in f_opts for o_g in g_opts]
            pair_key.append(self._key_id(key))
            offset.append(len(routes))
            routes.extend(routed)
            return len(pair_key) - 1

        code = (left.key_of[:, None] * n_right + right.key_of[None, :]).ravel()
        # state id -> pair id, a pair being left key * |right keys| + right key
        self._pair_of = _interned(code, {}, pair)
        self.key_of = np.asarray(pair_key, dtype=np.intp)[self._pair_of]
        self._offset = np.asarray(offset, dtype=np.intp)
        self._route_left, self._route_right = np.array(routes, dtype=np.intp).reshape(-1, 2).T

    def law(self, d: Dist) -> np.ndarray:
        """The composite's own initial law (the system standing for it, or the
        law once formed) is ``dst`` of its factors', so its vector is the
        outer product of theirs, raveled in state-id order: it is neither
        formed nor looked up.  It is checked as ``dst`` checks the law
        (``dist._check_product``), once, and kept read-only.  Any other law
        is read atom by atom."""
        if d is not self.system and d is not _own(self.system):
            return super().law(d)
        if self._own_law is None:
            left, right = self._left, self._right
            vec = np.multiply.outer(left.law(left.system), right.law(right.system)).ravel()
            states = self.system.states
            _check_product(vec.tolist(), lambda k: next(itertools.islice(points(states), k, None)))
            vec.flags.writeable = False
            self._own_law = vec
        return self._own_law

    def state_id(self, x) -> int:
        if not (isinstance(x, tuple) and len(x) == 2):
            raise HierError(f"{x!r} is not a state of the system")
        return self._left.state_id(x[0]) * self._right.size + self._right.state_id(x[1])

    def rows(self, sid: np.ndarray, opt: np.ndarray) -> np.ndarray:
        xs, zs = np.divmod(sid, self._right.size)
        route = self._offset[self._pair_of[sid]] + opt
        right = self._right.rows(zs, self._route_right[route])
        left = self._left.rows(xs, self._route_left[route])
        return _interned(left.astype(np.int64) * (1 << 31) + right, self._row_ids, self._pair_row)

    def _pair_row(self, code: int) -> int:
        """The outer product of the two factor rows ``code`` names, as
        left row * 2**31 + right row."""
        left, right = divmod(code, 1 << 31)
        li, lw = self._left._rows[left]
        ri, rw = self._right._rows[right]
        ids = (li[:, None] * self._right.size + ri[None, :]).ravel()
        ws = np.multiply.outer(lw, rw).ravel()
        keep = ws != 0.0
        return self._new_row((ids[keep], ws[keep]))


def _options(key: tuple) -> tuple:
    """A key's (position, direction) responses as slot tuples, in option
    order."""
    return tuple((row[0], d) for row in key for d, _ in row[2])


def _responses(lens: PolyMap) -> list:
    """A finite lens's (position, direction) responses, in option order: the
    order of its key's rows and of their directions."""
    return [(i, d) for i in points(lens.source.positions)
            for d in points(lens.target.dirs_at(lens.forward(i)))]


def _point_middles(right: HierTable) -> bool:
    """Whether every backward law in the keys of a compose composite's right
    factor is a point mass; where one is not, the composite is walked."""
    return all(len(items) == 1 for key in right.keys for _, _, back in key for _, items in back)


def _compose_key(f_key: tuple, f_ranges: list, g_rows: dict) -> tuple:
    """The key of g after f, and per response its route, the one option of
    f and of g it takes: from f's key and option ranges and g's rows (its
    key's rows and their option ranges by position key), when every
    backward law of g is a point mass.  ``bind`` of a point mass at d
    returns f's backward law at d itself, so the composite's entry is f's
    key entry for d, under g's forward position and direction keys at f's
    forward position.  Each such d is a direction of f's key there, because
    ``polymap_key`` keyed g only if its atoms lie in the middle fibre."""
    rows, routes = [], []
    for (i_key, j_key, f_back), f_opts in zip(f_key, f_ranges):
        g_opts, (_, fwd_key, g_back) = g_rows[j_key]
        f_laws = {d: (o, items) for o, (d, items) in zip(f_opts, f_back)}
        back = []
        for o_g, (d_key, ((mid, _),)) in zip(g_opts, g_back):
            o_f, items = f_laws[mid]
            back.append((d_key, items))
            routes.append((o_f, o_g))
        rows.append((i_key, fwd_key, tuple(back)))
    return tuple(rows), routes


def tabulate(hs: HierSystem) -> HierTable:
    """Tabulate a hierarchical system with finite states, positions and
    fibres at one tick (see ``HierTable``).  Composites of
    ``compose_hier``/``tensor_hier`` are built from their factors' tables, so
    no composite emit or absorb is walked.  A compose composite whose middle
    law mixes directions is the exception: it is tabulated, like every other
    system, by walking its own emit and absorb.  So is a ``replace`` copy of
    a composite, which has no ``factors``."""
    return _tabulate(hs, {})


def _tabulate(hs: HierSystem, done: dict) -> HierTable:
    hit = done.get(id(hs))
    if hit is not None and hit[0] is hs:
        return hit[1]
    if hs.factors is None:
        table = _LeafTable(hs)
    else:
        kind, left, right = hs.factors
        right_table = _tabulate(right, done)
        if kind == "compose" and not _point_middles(right_table):
            table = _LeafTable(hs)
        else:
            table = _PairTable(hs, kind, _tabulate(left, done), right_table)
    done[id(hs)] = (hs, table)
    return table


# elements a law-matrix temporary may hold: rows are split into blocks, and
# sections into chunks, to stay within it
_BUDGET = 1 << 20


def _unique(codes: np.ndarray) -> tuple:
    """``np.unique(codes, return_inverse=True)`` with the inverse flat, from
    one argsort: the sorted codes' first entry and every entry that differs
    from the one before start a new value, and the running count of those
    starts, scattered back through the sort, is each code's value id.
    Calling the sort and the ufuncs directly skips ``np.unique``'s Python
    wrapper, which costs more than the sort on the few codes of a table
    level."""
    flat = codes.ravel()
    order = flat.argsort()
    ordered = flat[order]
    starts = np.empty(len(flat), dtype=bool)
    starts[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=starts[1:])
    inv = np.empty(len(flat), dtype=np.intp)
    inv[order] = np.add.accumulate(starts, dtype=np.intp) - 1
    return ordered[starts], inv


def _unique_inverse(codes: np.ndarray) -> tuple:
    """``_unique(codes)``.  One code is its own sorted set, so it skips the
    sort, which costs more than a table level's other work on one state."""
    if codes.size == 1:
        return codes.ravel(), np.zeros(1, dtype=np.intp)
    return _unique(codes)


def _interned(codes: np.ndarray, ids: dict, make: Callable) -> np.ndarray:
    """The id of each code in ``codes``, read from ``ids``, where ``make(code)``
    puts it the first time the code is met.  Each distinct code is looked up
    once."""
    uniq, inv = _unique_inverse(codes)
    out = []
    for code in uniq.tolist():
        got = ids.get(code)
        if got is None:
            got = ids[code] = make(code)
        out.append(got)
    return np.array(out, dtype=np.intp)[inv]


def _by_group(mass: np.ndarray, groups: np.ndarray, n: int) -> np.ndarray:
    """Sum the columns of an R x A matrix into n groups: an R x n matrix.
    ``groups`` gives each column's group, for every row (shape A) or for each
    of G equal blocks of consecutive rows (shape G x A).  Each row's bins are
    summed in column order, whatever rows sit beside it."""
    r = mass.shape[0]
    if groups.ndim == 1:
        groups = groups[None]
    rows = np.arange(r).reshape(len(groups), -1, 1)
    flat = (rows * n + groups[:, None, :]).ravel()
    return np.bincount(flat, weights=mass.ravel(), minlength=r * n).reshape(r, n)


def _advance(table: HierTable, mass: np.ndarray, rids: np.ndarray) -> np.ndarray:
    """One tick for every row of ``mass``: mix the rows of its occupied states.
    ``rids`` (G x A) is the next-state row id of each state for each of G
    equal blocks of consecutive rows, -1 where the block has no mass.

    A law that meets several rows sums them in order of the first state of
    its own mass that leads to each, so its sums, bit for bit, depend
    neither on the other rows, of its block or of any other, nor on the
    order in which row ids were handed out."""
    n_blocks, width = rids.shape
    uniq, inv = _unique_inverse(rids)
    inv = inv.reshape(rids.shape)
    agg = _by_group(mass, inv, len(uniq))
    skip = int(uniq[0] < 0)  # states a block does not reach hold none of its mass
    uniq, agg = uniq[skip:], agg[:, skip:]
    # as in bind, a law that meets a single row moves to that row unscaled
    hit = agg != 0.0
    n_hit = np.add.reduce(hit, axis=1)
    single = n_hit == 1
    agg[single] = hit[single]
    rows = [table._rows[r] for r in uniq.tolist()]
    ids = np.concatenate([r[0] for r in rows])
    ws = np.concatenate([r[1] for r in rows])
    which = np.arange(len(rows)).repeat([len(r[0]) for r in rows])
    first = None
    if np.maximum.reduce(n_hit) > 1:  # else every bin of a law has one nonzero term
        # per law and row id, the first state of the law's own mass that
        # leads there (width where none does)
        law, state = mass.nonzero()
        n_cols = len(uniq) + skip
        codes = law * n_cols + inv[law // (len(mass) // n_blocks), state]
        first = np.full((len(mass), n_cols), width)
        np.minimum.at(first.reshape(-1), codes, state)
        first = first[:, skip:]
    # rows per block, so a block's rows x row-entries array stays small
    block = max(1, _BUDGET // max(1, len(ids)))
    parts = []
    for lo in range(0, agg.shape[0], block):
        w, cols = agg[lo:lo + block, which] * ws, ids
        if first is not None:
            order = np.argsort(first[lo:lo + block, which], axis=1, kind="stable")
            w, cols = np.take_along_axis(w, order, axis=1), ids[order]
        parts.append(_by_group(w, cols, table.size))
    return np.concatenate(parts)


def _key_laws(table: HierTable, to_union: np.ndarray, n_keys: int, choices: np.ndarray,
              law: np.ndarray, horizon: int):
    """Yield, tick by tick, the S*C x n_keys laws of the emitted lens for C
    initial laws (the rows of ``law``) under S sections (the rows of
    ``choices``, an option per union key id), with a flag per section that
    is set once the section has stopped: row s*C + c is section s from law
    c.  All S*C rows move as one law matrix, one tick each time the next
    tick is asked for.  A section is asked for an option only where its own
    rows hold mass; where it has no entry, it stops, and from the next tick
    on its rows hold no mass.

    Reading stops at the horizon, or once a tick leaves the law matrix bit
    for bit as it was: the last tick yielded is then repeated by every later
    one, since the next matrix depends on this one alone, and no section
    newly stops on a matrix that does not change (its rows would drop to
    zero)."""
    n_sec, n_cand = len(choices), len(law)
    sigma = choices[:, to_union]
    law = np.tile(law, (n_sec, 1))
    stopped = np.zeros(n_sec, dtype=bool)
    for t in range(horizon + 1):
        active = np.logical_or.reduce(law, axis=0).nonzero()[0]
        mass = law[:, active]
        keys = table.key_of[active]
        yield _point_mass_rows(_by_group(mass, to_union[keys], n_keys)), stopped
        if t < horizon:
            sec, col = np.logical_or.reduce(
                mass.reshape(n_sec, n_cand, len(active)), axis=1).nonzero()
            opt = sigma[sec, keys[col]]
            lacking = opt < 0
            if np.logical_or.reduce(lacking):
                stopped = stopped.copy()
                stopped[sec[lacking]] = True
                keep = ~stopped[sec]
                sec, col, opt = sec[keep], col[keep], opt[keep]
            rids = np.full((n_sec, len(active)), -1, dtype=np.intp)
            rids[sec, col] = table.rows(active[col], opt)
            new = _advance(table, mass, rids) if len(sec) else np.zeros_like(law)
            if new.tobytes() == law.tobytes():  # raw bits: -0.0 is not 0.0
                return
            law = new


def _union(tables: list) -> tuple:
    """The keys of several tables in order of first emission, their options,
    and each table's map from its key ids to the union's."""
    index: dict = {}
    keys: list = []
    options: list = []
    maps = []
    for table in tables:
        to_union = np.empty(len(table.keys), dtype=np.intp)
        for k in dict.fromkeys(table.key_of.tolist()):  # in order of first emission
            u = index.get(table.keys[k])
            if u is None:
                u = index[table.keys[k]] = len(keys)
                keys.append(table.keys[k])
                options.append(_options(table.keys[k]))
            to_union[k] = u
        maps.append(to_union)
    return keys, options, maps


def _section_choices(options: list, max_sections: int) -> list:
    """Option indices of every section over the given keys, or of a seeded
    sample of ``max_sections`` distinct sections when the exhaustive product
    is larger."""
    counts = [len(o) for o in options]
    total = 1
    for c in counts:
        total *= c
    if total <= max_sections:
        return list(itertools.product(*(range(c) for c in counts)))
    gen = Rng(0).generator()
    drawn: dict = {}  # distinct draws, first occurrences in order
    while len(drawn) < max_sections:
        drawn.setdefault(tuple(int(gen.integers(c)) for c in counts), None)
    return list(drawn)


def _strategy(sigma, systems) -> Callable:
    """A section of the given systems as lens key -> (position, direction)
    response in slot tuples, None where it has no entry.  A flat ``Section``
    of p is a strategy for systems y -> p: it answers the constant lens at a
    with the lens's one position and the direction it assigns at a."""
    if isinstance(sigma, HomSection):
        entries: dict = {}
        for key, value in sigma.table:
            entries.setdefault(key, value)
        return entries.get
    p = sigma.of
    if any((hs.source, hs.target) != (y(), p) for hs in systems):
        raise HierError("section does not match the system interface")

    def respond(key):
        a = expand_point(p.positions, key[0][1])
        return key[0][0], normalize_point(p.dirs_at(a), sigma.assign(a))

    return respond


def _choice(sigma, systems, keys: list, options: list) -> np.ndarray:
    """A section as an option index per key id; -1 where it has no entry."""
    respond = _strategy(sigma, systems)
    out = np.full(len(keys), -1, dtype=np.intp)
    for k, key in enumerate(keys):
        response = respond(key)
        if response is not None:
            try:
                out[k] = options[k].index(response)
            except ValueError:
                raise HierError("section offers a response the emitted lens lacks") from None
    return out


# ---------------------------------------------------------------------------
# traces and quasi-bisimilarity


@record
class Trace:
    """What a system shows over time: ``values[k]`` is the law at tick
    ``times[k]``."""

    times: tuple
    values: tuple  # one Dist per time over emitted positions (or their keys)


@record
class HomSection:
    """An environment strategy for a hierarchical system: for each emitted
    lens (by its ``polymap_key``) it fixes the source position offered and
    the direction the target feeds back, both as slot tuples
    (``normalize_point``)."""

    table: tuple  # ((lens key, (position, direction)), ...)


def hom_sections(systems, max_sections: int = 512) -> list:
    """All environment strategies over the lenses the given systems emit,
    capped by seeded sampling when the exhaustive product is too large:
    ``max_sections``, a count (``spaces.check_count``)."""
    max_sections = check_count(max_sections, "max_sections", HierError)
    done: dict = {}
    keys, options, _ = _union([_tabulate(hs, done) for hs in systems])
    return [
        HomSection(tuple(zip(keys, (opts[o] for opts, o in zip(options, combo)))))
        for combo in _section_choices(options, max_sections)
    ]


def _key_dist(pairs) -> Dist:
    """The law of (lens key, weight) pairs over the keys they name."""
    return categorical(FiniteSpace(tuple(dict.fromkeys(k for k, _ in pairs))), pairs)


def trace(sys_, sigma, init: Dist, horizon: int) -> Trace:
    """Time-indexed distribution of what the system shows the world.

    For a hierarchical system this is the law of the emitted lens (by its
    ``polymap_key``, whose entries are slot tuples) under an environment
    strategy.  It walks the emit and absorb closures from ``init`` and reads
    only the states that law reaches: each reached state is checked to be a
    state of the system and emits and is keyed once, and the section answers
    each lens key once, with a response the lens must offer.  Reading stops
    at the horizon, or once a tick leaves the state law equal (``==``) to
    the law of the tick before, and the last law read stands for every later
    tick: the trace always has horizon + 1 values.
    An open system on p is traced as the hierarchical system y -> p
    (``as_hier``) under a ``Section`` or a ``HomSection``, and each law is
    read back over the positions of p.
    Exact by enumeration on finite supports.  The horizon is a count
    (``spaces.check_count``)."""
    horizon = check_count(horizon, "horizon", HierError)
    if isinstance(sys_, System):
        p = sys_.interface.positions
        tr = trace(as_hier(sys_), sigma, init, horizon)
        return replace(tr, values=tuple(
            pushforward(lambda key: expand_point(p, key[0][1]), v, target=p)
            for v in tr.values
        ))
    respond = _strategy(sigma, (sys_,))
    emitted: dict = {}  # state -> (lens, key)
    answers: dict = {}  # lens key -> the section's (position, direction) there

    def lens_key(x) -> tuple:
        hit = emitted.get(x)
        if hit is None:
            if not contains(sys_.states, x):
                raise HierError(f"{x!r} is not a state of the system")
            lens = sys_.emit(x)
            hit = emitted[x] = (lens, polymap_key(lens))
        return hit

    def moved(x) -> Dist:
        lens, key = lens_key(x)
        answer = answers.get(key)
        if answer is None:
            if (response := respond(key)) is None:
                raise HierError(f"section has no entry for an emitted lens at tick {t}")
            if response not in _options(key):
                raise HierError("section offers a response the emitted lens lacks")
            i = expand_point(sys_.source.positions, response[0])
            answer = answers[key] = (
                i, expand_point(sys_.target.dirs_at(lens.forward(i)), response[1]))
        return sys_.absorb(x, *answer)

    values = []
    law = init
    for t in range(horizon + 1):
        values.append(_key_dist([(lens_key(x)[1], w) for x, w in finite_items(law)]))
        if t < horizon:
            new = bind(law, moved)
            if new == law:
                break
            law = new
    values += values[-1:] * (horizon + 1 - len(values))  # the laws repeat from here on
    return Trace(tuple(range(horizon + 1)), tuple(values))


_CANDIDATE_CAP = 256  # states above which no point mass or uniform law is a candidate


class _Candidates:
    """One side's candidate initial laws (see ``_candidates``): the
    ``given`` laws, then the point masses at the states that
    ``points(states)`` enumerates at ``ids``, then, when ``spread``, the
    uniform law.  A point mass or the uniform law is built as a ``Dist``
    only when the laws are iterated; a table reads it as a row (``rows``)."""

    def __init__(self, states: Space, given: list, ids, spread: bool):
        self.states, self.given, self.ids, self.spread = states, given, ids, spread

    def __len__(self) -> int:
        return len(self.given) + len(self.ids) + self.spread

    def __iter__(self):
        yield from (d.init if isinstance(d, HierSystem) else d for d in self.given)
        if len(self.ids) or self.spread:
            atoms = list(points(self.states))
            yield from (Dirac(self.states, atoms[i]) for i in self.ids)
            if self.spread:
                yield uniform(self.states)

    def rows(self, table: HierTable) -> np.ndarray:
        """The laws as vectors over the table's state ids, one row each.  A
        table's state ids follow ``points(states)``, for a composite because
        its states are a binary ``prod`` and ``points`` is row-major, so the
        point mass at the i-th state is the unit vector at i and the uniform
        law the constant 1/n; only the given laws are read atom by atom."""
        out = np.zeros((len(self), table.size))
        for c, d in enumerate(self.given):
            out[c] = table.law(d)
        g = len(self.given)
        out[np.arange(g, g + len(self.ids)), np.asarray(self.ids, dtype=np.intp)] = 1.0
        if self.spread:
            out[-1] = 1.0 / table.size
        return out


def _initial_laws(sys_, provided, mode: str, cap: int = _CANDIDATE_CAP) -> _Candidates:
    """The candidates of ``_candidates``, with no point mass or uniform law
    built.  The states are counted before any is enumerated, and enumerated
    only to find the point masses that a given law repeats.  With no law
    provided, an unformed ``init`` is given as its system (``_own``)."""
    given = []
    own = sys_.init if provided else _own(sys_)  # compared with a provided law, it is formed
    for d in [*(provided or []), *([] if own is None else [own])]:
        if not any(e is d or e == d for e in given):
            given.append(d)
    states = sys_.states
    ids, spread = (), False
    if is_finite(states) and (n := cardinality(states)) <= cap:
        if n == 0:
            uniform(states)  # refuses a space with no state
        ids = range(n)
        # a given law equals the point mass at a state only as a Dirac there
        at = [e.point for e in given if type(e) is Dirac and e.space == states]
        if at:
            ids = [i for i, a in enumerate(points(states))
                   if not any(x is a or x == a for x in at)]
        # over one state the uniform law is that state's point mass; over
        # more, a given law can equal it only as a Categorical with weight
        # 1/n on each of the n states, so only such a law is formed and compared
        spread = n > 1 and not any(
            isinstance(e, (Categorical, HierSystem)) and len(ws := _weights(e)) == n
            and all(w == 1.0 / n for w in ws) and (e.init if e is sys_ else e) == uniform(states)
            for e in given
        )
    out = _Candidates(states, given, ids, spread)
    if not len(out):
        raise HierError(
            f"no initial-state candidates available for quantifier {mode!r}"
        )
    return out


def _candidates(sys_, provided, mode: str, cap: int = _CANDIDATE_CAP) -> list:
    """The provided laws and the system's ``init``, then, over at most
    ``cap`` states, every point mass and the uniform law; a law equal to an
    earlier one (``==``, exact labels and floats) is dropped.  Point masses
    of distinct states differ, and from the uniform law over two or more
    states, so only the provided laws and ``init`` are compared.  The
    states come from ``points``, so their point masses are not checked
    again."""
    return list(_initial_laws(sys_, provided, mode, cap))


def _table_deviations(theta, psi, sections, horizon, max_sections) -> tuple:
    """The sections, as an S x K array of option indices over the union of
    the two systems' keys (-1 where a section has no entry), and a function
    ``read(cand_a, cand_b)`` of two sides' candidates (``_Candidates``),
    which yields readings (section, tick, C_a x C_b deviation of every
    candidate pair) section by section, from the two systems' tables, on
    which the candidates are read as rows.  The tables, the union and the
    sections are built once, for every ``read``.

    Sections move in chunks: the (section, candidate) pairs of a chunk are
    the rows of one law matrix per side (``_key_laws``), and the emitted-lens
    laws of the two sides are compared per section and tick as vectors over
    the union of their keys.  A chunk holds as many sections as fit the
    budget, chunk * C * (states + keys * ticks) <= ``_BUDGET`` elements per
    side, and at least one.  It advances one tick only when one of its
    sections reads a tick not yet reached.  Reading stops at the horizon, or
    once both sides' law matrices repeat the tick before, every section of
    the chunk with them: a side whose matrix repeats repeats its last
    reading while the other goes on, and the ticks after the last distinct
    one of both are not read, as they would read as that one.  A section
    that has no entry for a lens it reaches at tick t raises ``HierError``
    when its tick t + 1 is read."""
    done: dict = {}
    tables = [_tabulate(theta, done), _tabulate(psi, done)]
    keys, options, maps = _union(tables)
    if sections is None:
        choices = _section_choices(options, max_sections)
    else:
        choices = [_choice(sigma, (theta, psi), keys, options) for sigma in sections]
    choices = np.array(choices, dtype=np.intp).reshape(len(choices), len(keys))

    def read(cand_a, cand_b):
        laws = [cs.rows(tb) for tb, cs in zip(tables, (cand_a, cand_b))]
        per_section = max(len(law) * (tb.size + len(keys) * (horizon + 1))
                          for tb, law in zip(tables, laws))
        most = max(1, _BUDGET // per_section)
        c_a, c_b = len(cand_a), len(cand_b)
        # rows of side a per block, so a block's C_a x C_b x keys array stays small
        block = max(1, _BUDGET // max(1, c_b * len(keys)))
        for lo in range(0, len(choices), most):
            sides = [_key_laws(tb, m, len(keys), choices[lo:lo + most], law, horizon)
                     for tb, m, law in zip(tables, maps, laws)]
            ticks: list = []  # both sides' (key laws, stopped sections) at each tick reached
            for s in range(lo, min(lo + most, len(choices))):
                k = s - lo
                for t in range(horizon + 1):
                    if t == len(ticks):
                        # a side whose laws repeat from here on repeats its last reading
                        now = [next(side, None) for side in sides]
                        if now == [None, None]:  # so later ticks read as tick t - 1
                            break
                        ticks.append([n or ticks[-1][i] for i, n in enumerate(now)])
                    (la, sa), (lb, sb) = ticks[t]
                    if sa[k] or sb[k]:
                        raise HierError(
                            f"section {s} has no entry for an emitted lens at tick {t - 1}"
                        )
                    ka, kb = la[k * c_a:(k + 1) * c_a], lb[k * c_b:(k + 1) * c_b]
                    yield s, t, np.concatenate([
                        np.maximum.reduce(np.abs(ka[a:a + block, None] - kb[None]), axis=2)
                        for a in range(0, c_a, block)
                    ])

    return choices, read


def _traced_deviations(theta, psi, sections, cand_a, cand_b, horizon):
    """Readings (section, tick, C_a x C_b deviation of every candidate pair)
    section by section, from one trace per (candidate, section): for
    systems whose states are not finite."""
    for si, sigma in enumerate(sections):
        va = [trace(theta, sigma, c, horizon).values for c in cand_a]
        vb = [trace(psi, sigma, c, horizon).values for c in cand_b]
        for t in range(horizon + 1):
            yield si, t, np.array([[dist_distance(a[t], b[t]) for b in vb] for a in va])


def _first_mismatches(readings, shape: tuple, tol: float, rows=None) -> tuple:
    """The first mismatch of every candidate pair, as three C_a x C_b
    arrays: section (-1 where none), tick and deviation.  A reading holds
    only when it is ``<= tol``.  Reading stops once every pair of the first
    ``rows`` side-a candidates (of all, when None) has a mismatch, as later
    readings cannot change theirs."""
    at_section = np.full(shape, -1, dtype=np.intp)
    at_t = np.zeros(shape, dtype=np.intp)
    deviation = np.zeros(shape)
    for si, t, dev in readings:
        new = (at_section < 0) & ~(dev <= tol)
        at_section[new], at_t[new], deviation[new] = si, t, dev[new]
        if (at_section[:rows] >= 0).all():  # later readings cannot change the table
            break
    return at_section, at_t, deviation


def _verdict(alpha_mode: str, beta_mode: str, n_sections: int, mismatches: tuple) -> dict:
    """The verdict that ``quasi_bisim`` reads from a first-mismatch table."""
    at_section, at_t, deviation = mismatches
    ok = at_section < 0
    holds = ok.any(axis=1) if beta_mode == "exists" else ok.all(axis=1)
    decides = holds if alpha_mode == "exists" else ~holds
    a = int(decides.argmax())
    named = ok[a] if beta_mode == "exists" else ~ok[a]
    b = int(named.argmax())
    witness = None
    if beta_mode == "exists" or named[b]:
        witness = {"alpha": a, "beta": b}
        if not ok[a, b]:
            witness.update(section=int(at_section[a, b]), t=int(at_t[a, b]),
                           deviation=float(deviation[a, b]))
    return {"mode": (alpha_mode, beta_mode), "sections": n_sections,
            "related": bool(decides.any()) == (alpha_mode == "exists"), "witness": witness}


def _given_first(read, cand_a, cand_b, n_sections: int, tol: float):
    """An ``exists``/``exists`` verdict from each side's given laws alone,
    or None when they do not decide it.  The given laws lead each side's
    candidates, the witness is the first side-a candidate with a match and
    the first match in its row, and a row reads, bit for bit, what it reads
    beside any other rows (``_advance``).  So when side a's first given law
    matches a given law of side b, that pair is the witness of the read of
    every candidate, and none other is read.  The caller reads this way
    only where every section answers every key, so that no candidate left
    unread could meet a lens its section lacks."""
    if not (cand_a.given and cand_b.given):
        return None
    given = [_Candidates(c.states, c.given, (), False) for c in (cand_a, cand_b)]
    shape = (len(cand_a.given), len(cand_b.given))
    mismatches = _first_mismatches(read(*given), shape, tol, rows=1)
    if not (mismatches[0][0] < 0).any():
        return None
    return _verdict("exists", "exists", n_sections, mismatches)


def quasi_bisim(
    theta,
    psi,
    alpha_mode: str = "exists",
    beta_mode: str = "exists",
    sections=None,
    horizon: int = 8,
    tol: float = 0.0,
    alphas=None,
    betas=None,
    max_sections: int = 512,
) -> dict:
    """Compare two systems by their traces under shared environments.

    The quantifier modes pick initial state laws: ``exists`` searches the
    candidate set for a witness, ``forall`` demands every candidate work.
    Candidates are the provided lists plus each system's canonical initial
    law, every point mass, and the uniform law (finite state spaces).  Both
    searches are capped, and the verdict does not say when a cap applied:
    the point masses and the uniform law are dropped above 256 states (the
    ``cap`` of ``_candidates``), and without explicit ``sections`` the
    sections become a seeded sample of ``max_sections`` (512) distinct
    sections when their exhaustive product is larger.
    An open system on p is compared as the hierarchical system y -> p
    (``as_hier``).  Systems with finite states are compared on their
    one-tick tables, through which ticks 0..horizon move the laws; any other
    system only under explicit ``sections``.  A comparison under no section
    at all is refused, not passed.

    A candidate pair matches when its traces agree within ``tol`` at every
    tick under every section: a reading holds only when it is ``<= tol``,
    so a NaN reading is a mismatch, as in a law report
    (``systems._report``).  A side-a candidate holds when some
    (``exists``) or every (``forall``) side-b candidate matches it, and the
    systems are related when some (``exists``) or every (``forall``) side-a
    candidate holds.  The witness names ``alpha``, the first side-a
    candidate that decides the question (0 when none does), and ``beta``,
    the first side-b candidate that matches it (``exists``; 0 when none
    does) or fails it (``forall``), with the pair's first mismatch
    (``section``, ``t``, ``deviation``) when it does not match.  A
    ``forall`` side b that holds has no such beta: the witness is None.
    ``sections`` in the verdict counts the sections offered; reading stops
    at the first tick after which every pair has a mismatch, or once both
    sides' laws repeat the tick before, as every later tick would too.

    On the tables, an ``exists``/``exists`` verdict whose sections answer
    every key of both tables reads the given laws of each side first: the
    provided laws, then ``init``.  When side a's first given law matches a
    given law of side b, the first such pair is the witness, and no point
    mass or uniform law is read (``_given_first``); that first pass stops
    once side a's first given law has mismatched every given law of side
    b.  Otherwise every candidate is read, on the same tables and sections.
    Either way the verdict is the same, bit for bit, because each row of a
    law matrix sums its mass in an order of its own (``_advance``).
    ``horizon`` and ``max_sections`` are counts (``spaces.check_count``)."""
    if alpha_mode not in ("exists", "forall") or beta_mode not in ("exists", "forall"):
        raise HierError("quantifier modes are 'exists' or 'forall'")
    horizon = check_count(horizon, "horizon", HierError)
    max_sections = check_count(max_sections, "max_sections", HierError)
    theta, psi = (as_hier(s) if isinstance(s, System) else s for s in (theta, psi))
    if sections is not None:
        sections = list(sections)
    cand_a = _initial_laws(theta, alphas, alpha_mode)
    cand_b = _initial_laws(psi, betas, beta_mode)
    if is_finite(theta.states) and is_finite(psi.states):
        choices, read = _table_deviations(theta, psi, sections, horizon, max_sections)
        n_sections = len(choices)
        # every section answers every key of both tables, so no candidate
        # can meet a lens its section lacks
        complete = not np.logical_or.reduce(choices < 0, axis=None)
    elif sections is None:
        raise HierError("systems whose states are not finite need explicit sections")
    else:
        n_sections, complete = len(sections), False

        def read(cand_a, cand_b):
            return _traced_deviations(theta, psi, sections, cand_a, cand_b, horizon)
    if not n_sections:
        raise HierError("no section to compare the systems under")
    if complete and alpha_mode == beta_mode == "exists":
        verdict = _given_first(read, cand_a, cand_b, n_sections, tol)
        if verdict is not None:
            return verdict
    mismatches = _first_mismatches(read(cand_a, cand_b), (len(cand_a), len(cand_b)), tol)
    return _verdict(alpha_mode, beta_mode, n_sections, mismatches)


# ---------------------------------------------------------------------------
# exact Bayesian inversion of finite channels


@record
class BayesInverse:
    """Finite Bayes inversion c-dagger of a channel against a prior; callable
    on outcomes.  Outcomes with zero evidence get the uniform convention and
    are listed in ``zero_evidence``."""

    table: tuple  # ((y, Dist over X), ...)
    zero_evidence: tuple

    def __call__(self, yv):
        for key, d in self.table:
            if key == yv:
                return d
        raise HierError(f"outcome {yv!r} is outside the channel's target space")


def exact_bayes(c: Callable, pi: Dist, target: Space = None) -> BayesInverse:
    """Posterior kernel y |-> P(x | y) for a finite channel and prior, by
    direct application of Bayes' rule on the joint weights."""
    X = pi.space
    images = {x: c(x) for x, _ in finite_items(pi)}
    if target is None:
        target = next(iter(images.values())).space
    joint: dict = {}
    for x, wx in finite_items(pi):
        for yv, wy in finite_items(images[x]):
            joint[(x, yv)] = joint.get((x, yv), 0.0) + wx * wy
    rows = []
    zero = []
    for yv in points(target):
        evidence = sum(w for (x, y2), w in joint.items() if y2 == yv)
        if evidence == 0.0:
            zero.append(yv)
            rows.append((yv, uniform(X)))
            continue
        post = {
            x: joint.get((x, yv), 0.0) / evidence for x, _ in finite_items(pi)
        }
        rows.append((yv, categorical(X, post)))
    return BayesInverse(tuple(rows), tuple(zero))


# channels as hierarchical systems ------------------------------------------


def prior_system(pi: Dist) -> HierSystem:
    """A state on X as a process y -> Xy: holds a sample, shows it, redraws.
    It is the open system on Xy that shows its state and redraws from pi."""
    X = pi.space
    shows = System(linear(X), X, time_nat(), lambda t, x: x, lambda t, x, d: pi, STOCHASTIC)
    return replace(as_hier(shows), init=pi)


def stochastic_channel_system(c: Callable, X: Space, Y: Space) -> HierSystem:
    """A stochastic channel as a process Xy -> Yy via randomness pushback.

    The state is a whole function table X -> Y drawn coordinatewise from the
    channel; each tick emits the table as a deterministic lens and then
    redraws it fresh.  Pointwise, the emitted function's law at x is exactly
    c(x), so upstream samples are pushed through the channel's law while the
    emitted lens stays an honest deterministic table."""
    xs = list(points(X))
    table_space = FiniteSpace(
        tuple(itertools.product(*[tuple(points(Y)) for _ in xs]))
    )
    weights = {}
    for combo in points(table_space):
        w = 1.0
        for xv, yv in zip(xs, combo):
            w *= prob(c(xv), yv)
        if w > 0.0:
            weights[combo] = w
    law = categorical(table_space, weights)
    index = {xv: k for k, xv in enumerate(xs)}

    def emit(table):
        return det_polymap(linear(X), linear(Y), lambda a: table[index[a]], lambda a, d: ())

    def absorb(x, i, d):
        return law

    return HierSystem(linear(X), linear(Y), table_space, time_nat(), emit, absorb, init=law)


def bayes_check(
    c: HierSystem,
    pi: HierSystem,
    cdag: HierSystem,
    horizon: int = 4,
    tol: float = 1e-9,
) -> dict:
    """Dynamical Bayes' rule: the two joint processes built from the prior,
    the channel, and the candidate inversion must be trace-equivalent.

    Left joint: show the prior's sample alongside the channel's response to
    it.  Right joint: push the sample through the channel, then reconstruct
    it from the shown outcome with the inversion.  Both are processes
    y -> Xy (x) Yy and are compared by quasi_bisim with existential initial
    laws (the canonical initial laws are the intended witnesses).  It reads
    ticks 0..horizon, and horizon is at least 1: at tick 0 alone the joints
    are their initial laws, and a pair of point-mass starts agrees there
    however the inversion is warped."""
    if integer(horizon) is not None and horizon < 1:
        raise HierError(f"bayes_check needs a horizon of at least 1, got {horizon}")
    horizon = check_count(horizon, "horizon", HierError)
    X = c.source.positions
    Y = c.target.positions
    if pi.target.positions != X or cdag.source.positions != Y or cdag.target.positions != X:
        raise HierError("channel, prior and inversion interfaces do not line up")
    lhs = compose_hier(
        compose_hier(pi, copy_system(X)),
        tensor_hier(id_hier(linear(X)), c),
    )
    rhs = compose_hier(
        compose_hier(compose_hier(pi, c), copy_system(Y)),
        tensor_hier(cdag, id_hier(linear(Y))),
    )
    verdict = quasi_bisim(lhs, rhs, "exists", "exists", horizon=horizon, tol=tol)
    return {"law": "dynamical-bayes", **verdict}


# ---------------------------------------------------------------------------
# bidirectional (distribution-fed) composition


def hibi_compose(f: HierSystem, g: HierSystem) -> HierSystem:
    """Compose bidirectional systems (A,S)->(B,T) and (B,T)->(C,U).

    The middle wire carries points of B but g expects distributions over B,
    so the lift acts on f's own emitted lens, on positions only: its forward
    output b becomes the monad unit at b by default (a point mass), or
    f's ``forward_lift`` at b when it carries one -- which is how predictive
    hierarchies pass calibrated uncertainty instead of false certainty --
    and its backward family is kept as it is.  The lifted f is then composed
    with g by ``compose_hier``, and a ``replace`` copy of that composite is
    returned: g's positions are distributions, so g has no table, and the
    copy, which has no ``factors``, is tabulated by walking its own emit and
    absorb.  There is no identity for this composition; the API is
    composition-only."""
    if not isinstance(g.source.positions, DistSpace):
        raise HierError("right factor does not take distribution-valued inputs")
    B = g.source.positions.base
    if f.target.positions != B:
        raise HierError(
            f"middle spaces disagree: left outputs {f.target.positions!r}, "
            f"right consumes distributions over {B!r}"
        )
    if f.target.directions != g.source.directions:
        raise HierError("middle backward directions disagree")

    def emit(x):
        lens = f.emit(x)

        def forward(i):
            b = lens.forward(i)
            return dirac(B, b) if f.forward_lift is None else f.forward_lift(x, b)

        return with_forward(lens, g.source, forward)

    lifted = replace(f, target=g.source, emit=emit)
    return replace(compose_hier(lifted, g))
