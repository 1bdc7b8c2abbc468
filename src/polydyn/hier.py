"""Hierarchical systems: dynamical systems whose outputs are themselves lenses.

A ``HierSystem`` from interface p to interface q is a stateful process that at
each tick emits a whole lens p -> q (``emit``) and absorbs the response -- a
source position together with the direction the target returned there -- into
a state update (``absorb``).  Composing two of them runs the emitted lenses
nose-to-tail while routing the backward traffic through both states; tensoring
runs them side by side.  Copy and discard systems make this a copy-discard
setting, which is what lets an abstract Bayes' rule be stated dynamically.

Equality of hierarchical systems is extensional: two systems are compared by
the distributions of their emitted lenses over time (``trace``) under every
environment choice (``HomSection``), via ``quasi_bisim``.  Emitted lenses are
encoded by normalized forward/backward tables, so systems whose interfaces
differ only by unit factors or product re-association compare equal.  An
open system on p is traced and compared as the hierarchical system y -> p.

The bidirectional refinement (``hibi_compose``) composes systems whose source
positions are distribution-valued: the middle wire is lifted with the monad
unit unless the left factor supplies a richer ``forward_lift``.
"""

from __future__ import annotations

import itertools
from dataclasses import KW_ONLY, dataclass, field, replace
from typing import Callable, Optional

import numpy as np

from .dist import (
    Dirac,
    Dist,
    Rng,
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
    DETERMINISTIC,
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
    y,
)
from .spaces import (
    DistSpace,
    FiniteSpace,
    Space,
    expand_point,
    is_finite,
    normalize_point,
    points,
    prod,
    unit,
)
from .systems import System


class HierError(ValueError):
    """Mismatched interfaces or times in a hierarchical construction."""


@dataclass(frozen=True)
class HierSystem:
    source: Polynomial
    target: Polynomial
    states: Space
    time: TimeMonoid
    emit: Callable  # (t, x) -> PolyMap source -> target
    absorb: Callable  # (t, x, i, d') -> Dist over states
    _: KW_ONLY
    forward_lift: Optional[Callable] = None  # (t, x, b) -> Dist over target positions
    init: Optional[Dist] = None  # canonical initial state law, when one exists
    # (kind, left, right) for compose_hier/tensor_hier composites: their
    # tables, and the vector of their own init, are built from the factors'
    # (see ``tabulate``), so a copy that replaces emit, absorb or init drops
    # them, as ``hibi_compose`` does
    factors: Optional[tuple] = field(default=None, compare=False, repr=False)


def mk_hier(
    source: Polynomial,
    target: Polynomial,
    states: Space,
    emit: Callable,
    absorb: Callable,
    init: Dist = None,
) -> HierSystem:
    hs = HierSystem(source, target, states, time_nat(), emit, absorb, init=init)
    if is_finite(states):
        for x in points(states):
            phi = emit(1, x)
            if phi.source != source or phi.target != target:
                raise HierError(
                    f"emitted lens at state {x!r} has shape {phi.source!r} -> "
                    f"{phi.target!r}, declared {source!r} -> {target!r}"
                )
    return hs


def as_hier(sys_: System) -> HierSystem:
    """An open system on p as the hierarchical system y -> p, whose lenses are
    the positions of p: it emits the constant lens at its output and absorbs
    a direction as one tick of its update, as ``closure`` steps it."""
    source, p = y(), sys_.interface

    def emit(t, x):
        a = sys_.output(t, x)
        return det_polymap(source, p, lambda i: a, lambda i, d: ())

    def absorb(t, x, i, d):
        return sys_.update(1, x, d)

    return HierSystem(source, p, sys_.states, sys_.time, emit, absorb)


# ---------------------------------------------------------------------------
# tabular presentation for monomial interfaces


def hier_from_tables(
    A: Space, S: Space, B: Space, T: Space,
    states: Space,
    o1: Callable,  # (t, x, a) -> b
    o2: Callable,  # (t, x, a, t') -> s
    u: Callable,  # (t, x, a, t') -> Dist over states
) -> HierSystem:
    """Hierarchical system between monomial interfaces Ay^S -> By^T from its
    three component maps: forward output, backward output, update."""
    source = monomial(A, S)
    target = monomial(B, T)

    def emit(t, x):
        return det_polymap(source, target, lambda a: o1(t, x, a), lambda a, tp: o2(t, x, a, tp))

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

    def emit(t, xy):
        x, z = xy
        return compose_map(gamma.emit(t, z), beta.emit(t, x))

    def absorb(t, xy, i, d_out):
        x, z = xy
        j = beta.emit(t, x).forward(i)
        mid_dirs = gamma.emit(t, z).backward(j, d_out)
        left_new = bind(mid_dirs, lambda d_mid: beta.absorb(t, x, i, d_mid))
        right_new = gamma.absorb(t, z, j, d_out)
        return dst(left_new, right_new)

    lift = None
    if gamma.forward_lift is not None:
        def lift(t, xy, b):  # noqa: E731 - closure over gamma
            return gamma.forward_lift(t, xy[1], b)

    init = dst(beta.init, gamma.init) if beta.init and gamma.init else None
    return HierSystem(
        beta.source, gamma.target, states, beta.time, emit, absorb,
        forward_lift=lift, init=init, factors=("compose", beta, gamma),
    )


def tensor_hier(beta: HierSystem, gamma: HierSystem) -> HierSystem:
    """Parallel product: emitted lenses tensor, absorbs run independently."""
    if beta.time != gamma.time:
        raise HierError("tensored systems must share the time monoid")
    source = tensor(beta.source, gamma.source)
    target = tensor(beta.target, gamma.target)
    states = prod(beta.states, gamma.states)

    def emit(t, xz):
        x, z = xz
        return tensor_map(beta.emit(t, x), gamma.emit(t, z))

    def absorb(t, xz, ij, dd):
        x, z = xz
        i, j = ij
        d1, d2 = dd
        return dst(beta.absorb(t, x, i, d1), gamma.absorb(t, z, j, d2))

    init = dst(beta.init, gamma.init) if beta.init and gamma.init else None
    return HierSystem(
        source, target, states, beta.time, emit, absorb,
        init=init, factors=("tensor", beta, gamma),
    )


def _stateless(source: Polynomial, target: Polynomial, lens: PolyMap) -> HierSystem:
    ustates = unit()
    silent = dirac(ustates, ())

    def emit(t, x):
        return lens

    def absorb(t, x, i, d):
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
    tabulated over ticks 0..horizon.

    State ids follow ``points(states)``.  ``key_of[t]`` maps each state id to
    the id of the lens the state emits at tick t; ``keys[k]`` is that lens's
    normalized ``polymap_key`` and ``options[k]`` its normalized (position,
    direction) responses, in the order ``hom_sections`` offers them.  A leaf
    table walks each lens for its key; a composite table assembles it from
    its factors' keys (see ``_PairTable``), unless it is walked as a leaf.
    ``step(t, s, o)`` is the next-state law of state s after response o at
    tick t, as a sparse row (state ids, weights).  Rows are built on first
    use and interned, so states that move alike share one row id.
    ``law(d)`` is a finite law as a vector over state ids; a composite's own
    initial law is read from its factors' vectors (``_PairTable.law``)."""

    def __init__(self, hs: HierSystem):
        self.system = hs
        self.size = 0
        self.key_of: list = []
        self.keys: list = []
        self.options: list = []
        self._lenses: list = []  # key id -> one emitted lens with that key
        self._key_ids: dict = {}
        self._rows: list = []  # row id -> (state ids, weights), None until built
        self._row_ids: dict = {}

    def _key_id(self, key, lens) -> int:
        k = self._key_ids.get(key)
        if k is None:
            k = self._key_ids[key] = len(self.keys)
            self.keys.append(key)
            self.options.append(tuple((row[0], d) for row in key for d, _ in row[2]))
            self._lenses.append(lens)
        return k

    def first_seen(self) -> list:
        """Key ids in order of first emission over (tick, state id)."""
        return list(dict.fromkeys(itertools.chain.from_iterable(ids.tolist()
                                                                for ids in self.key_of)))

    def step(self, t: int, s: int, o: int) -> tuple:
        return self.row(int(self.rows(t, np.array([s]), np.array([o]))[0]))

    def row(self, r: int) -> tuple:
        got = self._rows[r]
        if got is None:
            got = self._rows[r] = self._build(r)
        return got

    def _new_row(self, built) -> int:
        self._rows.append(built)
        return len(self._rows) - 1

    def law(self, d: Dist) -> np.ndarray:
        """A finite law over the states as a vector over state ids."""
        vec = np.zeros(self.size)
        for x, w in finite_items(d):
            vec[self.state_id(x)] = w
        return vec


class _LeafTable(HierTable):
    """Tabulated by walking emit once per (tick, state), keying each lens
    with ``polymap_key`` (which refuses a backward atom off its fibre),
    listing each distinct lens's responses once (``_responses``), and
    walking absorb once per (tick, state, response) actually reached.  The
    atoms of each law that absorb returns are mapped to a row once per law
    object: channels, priors and stateless systems return one shared law."""

    def __init__(self, hs: HierSystem, horizon: int):
        super().__init__(hs)
        if not (is_finite(hs.states) and is_finite(hs.source.positions)):
            raise HierError("tabulating needs finite states and source positions")
        self._states = list(points(hs.states))
        self._ids = {x: s for s, x in enumerate(self._states)}
        self.size = len(self._states)
        self._resp: list = []  # key id -> [(position, direction), ...]
        for t in range(horizon + 1):
            ids = np.empty(self.size, dtype=np.intp)
            for s, x in enumerate(self._states):
                lens = hs.emit(t, x)
                key = polymap_key(lens)
                if key not in self._key_ids:
                    self._resp.append(_responses(lens))
                ids[s] = self._key_id(key, lens)
            self.key_of.append(ids)
        self._width = 1 + max(len(o) for o in self.options)
        # per tick: state id * width + option -> row id
        self._absorbed = [{} for _ in range(horizon + 1)]
        # id(absorbed law) -> (law, row id); the law kept alive keeps its id
        self._law_rows: dict = {}

    def state_id(self, x) -> int:
        try:
            return self._ids[x]
        except (KeyError, TypeError):
            raise HierError(f"{x!r} is not a state of the system") from None

    def rows(self, t: int, sid: np.ndarray, opt: np.ndarray) -> np.ndarray:
        width = self._width
        return _interned(sid * width + opt, self._absorbed[t],
                         lambda code: self._absorb(t, *divmod(code, width)))

    def _absorb(self, t: int, s: int, o: int) -> int:
        i, d = self._resp[self.key_of[t][s]][o]
        law = self.system.absorb(t, self._states[s], i, d)
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
    formed once per distinct pair of factor keys, and its rows are pairs of
    factor rows, expanded into their outer product only when used.

    A composite key and each response's route, one option of each factor,
    are read from the factors' keys (``_compose_key``, ``tensor_key``), and
    the composed lens is never walked.  The key equals ``polymap_key`` of
    that lens: both list a law's items in its fibre's order, and an atom off
    its fibre was refused where a factor's leaf was keyed."""

    def __init__(self, hs: HierSystem, kind: str, left: HierTable, right: HierTable,
                 horizon: int):
        super().__init__(hs)
        self._kind, self._left, self._right = kind, left, right
        self.size = left.size * right.size
        self._pair_ids: dict = {}  # left key * |right keys| + right key -> pair id
        self._pair_key: list = []  # pair id -> key id
        self._offset: list = []  # pair id -> index of its first route
        routes: list = []  # (left option, right option) per response
        self._pair_of: list = []  # per tick: state id -> pair id
        self._row_pairs: dict = {}  # row id -> left row * 2**31 + right row
        n_right = len(right.keys)
        for t in range(horizon + 1):
            code = (left.key_of[t][:, None] * n_right + right.key_of[t][None, :]).ravel()
            pair = _interned(code, self._pair_ids, lambda c: self._pair(c, n_right, routes))
            self._pair_of.append(pair)
            self.key_of.append(np.asarray(self._pair_key, dtype=np.intp)[pair])
        self._offset = np.asarray(self._offset, dtype=np.intp)
        self._route_left, self._route_right = np.array(routes, dtype=np.intp).reshape(-1, 2).T

    def _pair(self, code: int, n_right: int, routes: list) -> int:
        kf, kg = divmod(code, n_right)
        f, g = self._left._lenses[kf], self._right._lenses[kg]
        f_key, g_key = self._left.keys[kf], self._right.keys[kg]
        if self._kind == "compose":
            lens = compose_map(g, f)
            key, routed = _compose_key(f_key, g_key)
        else:
            lens, routed = tensor_map(f, g), _tensor_routes(f_key, g_key)
            key = tensor_key(f, g, f_key, g_key)
        self._pair_key.append(self._key_id(key, lens))
        self._offset.append(len(routes))
        routes.extend(routed)
        return len(self._pair_key) - 1

    def law(self, d: Dist) -> np.ndarray:
        """The composite's own initial law is ``dst`` of its factors' initial
        laws, so its vector is the outer product of theirs, raveled in
        state-id order, and no atom of it is looked up.  Any other law is
        read atom by atom."""
        if d is not self.system.init:
            return super().law(d)
        left, right = self._left, self._right
        return np.multiply.outer(left.law(left.system.init), right.law(right.system.init)).ravel()

    def state_id(self, x) -> int:
        if not (isinstance(x, tuple) and len(x) == 2):
            raise HierError(f"{x!r} is not a state of the composite")
        return self._left.state_id(x[0]) * self._right.size + self._right.state_id(x[1])

    def rows(self, t: int, sid: np.ndarray, opt: np.ndarray) -> np.ndarray:
        xs, zs = np.divmod(sid, self._right.size)
        route = self._offset[self._pair_of[t][sid]] + opt
        right = self._right.rows(t, zs, self._route_right[route])
        left = self._left.rows(t, xs, self._route_left[route])
        return _interned(left.astype(np.int64) * (1 << 31) + right, self._row_ids, self._pair_row)

    def _pair_row(self, code: int) -> int:
        r = self._new_row(None)
        self._row_pairs[r] = code
        return r

    def _build(self, r: int) -> tuple:
        code = self._row_pairs[r]
        li, lw = self._left.row(code >> 31)
        ri, rw = self._right.row(code & ((1 << 31) - 1))
        ids = (li[:, None] * self._right.size + ri[None, :]).ravel()
        ws = np.multiply.outer(lw, rw).ravel()
        keep = ws != 0.0
        return ids[keep], ws[keep]


def _responses(lens: PolyMap) -> list:
    """A finite lens's (position, direction) responses, in option order: the
    order of its key's rows and of their directions."""
    return [(i, d) for i in points(lens.source.positions)
            for d in points(lens.target.dirs_at(lens.forward(i)))]


def _point_middles(right: HierTable) -> bool:
    """Whether every backward law in the keys of a compose composite's right
    factor is a point mass; where one is not, the composite is walked."""
    return all(len(items) == 1 for key in right.keys for _, _, back in key for _, items in back)


def _compose_key(f_key: tuple, g_key: tuple) -> tuple:
    """The key of g after f, and per response its route, the one option of
    f and of g it takes: from the factors' keys, when every backward law of
    g is a point mass.  ``bind`` of a point mass at d returns f's backward
    law at d itself, so the composite's entry is f's key entry for d, under
    g's forward position and direction keys at f's forward position.  Each
    such d is a direction of f's key there, because ``polymap_key`` keyed g
    only if its atoms lie in the middle fibre."""
    g_rows = {row[0]: (opts, row) for row, opts in zip(g_key, _option_ranges(g_key))}
    rows, routes = [], []
    for (i_key, j_key, f_back), f_opts in zip(f_key, _option_ranges(f_key)):
        g_opts, (_, fwd_key, g_back) = g_rows[j_key]
        f_laws = {d: (o, items) for o, (d, items) in zip(f_opts, f_back)}
        back = []
        for o_g, (d_key, ((mid, _),)) in zip(g_opts, g_back):
            o_f, items = f_laws[mid]
            back.append((d_key, items))
            routes.append((o_f, o_g))
        rows.append((i_key, fwd_key, tuple(back)))
    return tuple(rows), routes


def _tensor_routes(f_key: tuple, g_key: tuple) -> list:
    """Routes of f (x) g, in option order: one option of each factor."""
    g_ranges = _option_ranges(g_key)
    return [(o_f, o_g) for f_opts in _option_ranges(f_key) for g_opts in g_ranges
            for o_f in f_opts for o_g in g_opts]


def _option_ranges(key: tuple) -> list:
    """Per row of a lens key, the option indices of its responses."""
    ends = itertools.accumulate(len(row[2]) for row in key)
    return [range(end - len(row[2]), end) for row, end in zip(key, ends)]


def _check_horizon(horizon: int) -> None:
    """Ticks run 0..horizon, so a negative horizon leaves none."""
    if horizon < 0:
        raise HierError(f"horizon must be non-negative, got {horizon}")


def tabulate(hs: HierSystem, horizon: int) -> HierTable:
    """Tabulate a hierarchical system with finite states, positions and
    fibres over ticks 0..horizon (see ``HierTable``).  Composites of
    ``compose_hier``/``tensor_hier`` are built from their factors' tables, so
    no composite emit or absorb is walked.  A compose composite whose middle
    law mixes directions is the exception: it is tabulated, like every other
    system, by walking its own emit and absorb."""
    _check_horizon(horizon)
    return _tabulate(hs, horizon, {})


def _tabulate(hs: HierSystem, horizon: int, done: dict) -> HierTable:
    hit = done.get(id(hs))
    if hit is not None and hit[0] is hs:
        return hit[1]
    if hs.factors is None:
        table = _LeafTable(hs, horizon)
    else:
        kind, left, right = hs.factors
        right_table = _tabulate(right, horizon, done)
        if kind == "compose" and not _point_middles(right_table):
            table = _LeafTable(hs, horizon)
        else:
            table = _PairTable(hs, kind, _tabulate(left, horizon, done), right_table, horizon)
    done[id(hs)] = (hs, table)
    return table


# elements a law-matrix temporary may hold: rows are split into blocks, and
# sections into chunks, to stay within it
_BUDGET = 1 << 20


def _unique_inverse(codes: np.ndarray) -> tuple:
    """``np.unique(codes, return_inverse=True)`` with the inverse flat, as
    numpy 1.x gives it (some 2.x releases shape it like ``codes``).  One code
    is its own sorted set, so it skips the sort, which costs more than a
    table level's other work on one state."""
    if codes.size == 1:
        return codes.ravel(), np.zeros(1, dtype=np.intp)
    uniq, inv = np.unique(codes, return_inverse=True)
    return uniq, inv.ravel()


def _interned(codes: np.ndarray, ids: dict, make: Callable) -> np.ndarray:
    """The id of each code in ``codes``, read from ``ids``, where ``make(code)``
    puts it the first time the code is met.  Each distinct code is looked up
    once."""
    uniq, inv = _unique_inverse(codes)
    out = np.empty(len(uniq), dtype=np.intp)
    for n, code in enumerate(uniq.tolist()):
        got = ids.get(code)
        if got is None:
            got = ids[code] = make(code)
        out[n] = got
    return out[inv]


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
    its block that leads to each, so its sums, bit for bit, depend neither
    on the other blocks nor on the order in which row ids were handed out."""
    n_blocks, width = rids.shape
    uniq, inv = _unique_inverse(rids)
    inv = inv.reshape(rids.shape)
    agg = _by_group(mass, inv, len(uniq))
    skip = int(uniq[0] < 0)  # states a block does not reach hold none of its mass
    uniq, agg = uniq[skip:], agg[:, skip:]
    # as in bind, a law that meets a single row moves to that row unscaled
    hit = agg != 0.0
    n_hit = hit.sum(axis=1)
    single = n_hit == 1
    agg[single] = hit[single]
    rows = [table.row(r) for r in uniq.tolist()]
    ids = np.concatenate([r[0] for r in rows])
    ws = np.concatenate([r[1] for r in rows])
    which = np.repeat(np.arange(len(rows)), [len(r[0]) for r in rows])
    seen = None
    if n_hit.max() > 1:  # else every bin of a law has one nonzero term
        # codes block * n_cols + column, each with the flat index of its first state
        n_cols = len(uniq) + skip
        seen, at = np.unique((np.arange(n_blocks)[:, None] * n_cols + inv).ravel(),
                             return_index=True)
    per = agg.shape[0] // n_blocks
    # rows per block, so a block's rows x row-entries array stays small
    block = max(1, _BUDGET // max(1, len(ids)))
    parts = []
    for lo in range(0, agg.shape[0], block):
        w, cols = agg[lo:lo + block, which] * ws, ids
        if seen is not None:
            g = np.arange(lo, lo + len(w)) // per
            # per block of these rows and per entry, the block's first state
            # that leads to the entry's row (width where none does)
            first = np.full((g[-1] - g[0] + 1, n_cols), width)
            span = slice(*np.searchsorted(seen, [g[0] * n_cols, (g[-1] + 1) * n_cols]))
            first.flat[seen[span] - g[0] * n_cols] = at[span] % width
            order = np.argsort(first[:, skip:][:, which], axis=1, kind="stable")[g - g[0]]
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
    on its rows hold no mass."""
    n_sec, n_cand = len(choices), len(law)
    sigma = choices[:, to_union]
    law = np.tile(law, (n_sec, 1))
    stopped = np.zeros(n_sec, dtype=bool)
    for t in range(horizon + 1):
        active = np.flatnonzero(law.any(axis=0))
        mass = law[:, active]
        keys = table.key_of[t][active]
        yield _point_mass_rows(_by_group(mass, to_union[keys], n_keys)), stopped
        if t < horizon:
            sec, col = np.nonzero(mass.reshape(n_sec, n_cand, len(active)).any(axis=1))
            opt = sigma[sec, keys[col]]
            lacking = opt < 0
            if lacking.any():
                stopped = stopped.copy()
                stopped[sec[lacking]] = True
                keep = ~stopped[sec]
                sec, col, opt = sec[keep], col[keep], opt[keep]
            rids = np.full((n_sec, len(active)), -1, dtype=np.intp)
            rids[sec, col] = table.rows(t, active[col], opt)
            law = _advance(table, mass, rids) if len(sec) else np.zeros_like(law)


def _union(tables: list) -> tuple:
    """The keys of several tables in order of first emission, their options,
    and each table's map from its key ids to the union's."""
    index: dict = {}
    keys: list = []
    options: list = []
    maps = []
    for table in tables:
        to_union = np.empty(len(table.keys), dtype=np.intp)
        for k in table.first_seen():
            u = index.get(table.keys[k])
            if u is None:
                u = index[table.keys[k]] = len(keys)
                keys.append(table.keys[k])
                options.append(table.options[k])
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
    """A section of the given systems as lens key -> normalized (position,
    direction) response, None where it has no entry.  A flat ``Section`` of p
    is a strategy for systems y -> p: it answers the constant lens at a with
    the lens's one position and the direction it assigns at a."""
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


@dataclass(frozen=True)
class Trace:
    times: tuple
    values: tuple  # one Dist per time over emitted positions (or their keys)


@dataclass(frozen=True)
class HomSection:
    """An environment strategy for a hierarchical system: for each emitted
    lens (by normalized table key) it fixes the source position offered and
    the direction the target feeds back, both in normalized form."""

    table: tuple  # ((lens key, (position, direction)), ...)


def hom_sections(systems, horizon: int, max_sections: int = 512) -> list:
    """All environment strategies over the lenses the given systems can emit,
    capped by seeded sampling when the exhaustive product is too large."""
    _check_horizon(horizon)
    done: dict = {}
    keys, options, _ = _union([_tabulate(hs, horizon, done) for hs in systems])
    return [
        HomSection(tuple(zip(keys, (opts[o] for opts, o in zip(options, combo)))))
        for combo in _section_choices(options, max_sections)
    ]


def _apply_hom_section(hs: HierSystem, respond: Callable, t: int, x):
    phi = hs.emit(t, x)
    response = respond(polymap_key(phi))
    if response is None:
        raise HierError("section has no entry for an emitted lens")
    i_n, d_n = response
    i = expand_point(hs.source.positions, i_n)
    fibre = hs.target.dirs_at(phi.forward(i))
    return hs.absorb(t, x, i, expand_point(fibre, d_n))


def _key_dist(pairs) -> Dist:
    """The law of (lens key, weight) pairs over the keys they name."""
    return categorical(FiniteSpace(tuple(dict.fromkeys(k for k, _ in pairs))), pairs)


def _closure_trace(hs: HierSystem, sigma, init: Dist, horizon: int) -> Trace:
    """The trace of a hierarchical system by walking its emit and absorb
    closures: the specification the tables are checked against, and the
    route for systems whose states are not finite."""
    respond = _strategy(sigma, (hs,))
    values = []
    law = init
    for t in range(horizon + 1):
        pairs = [(polymap_key(hs.emit(t, x)), w) for x, w in finite_items(law)]
        values.append(_key_dist(pairs))
        if t < horizon:
            law = bind(law, lambda x, _t=t: _apply_hom_section(hs, respond, _t, x))
    return Trace(tuple(range(horizon + 1)), tuple(values))


def trace(sys_, sigma, init: Dist, horizon: int) -> Trace:
    """Time-indexed distribution of what the system shows the world.

    For a hierarchical system this is the law of the emitted lens (by
    normalized key) under an environment strategy, computed on the system's
    tables when its states are finite.  An open system on p is traced as the
    hierarchical system y -> p (``as_hier``) under a ``Section`` or a
    ``HomSection``, and each law is read back over the positions of p.
    Exact by enumeration on finite supports."""
    _check_horizon(horizon)
    if isinstance(sys_, System):
        p = sys_.interface.positions
        tr = trace(as_hier(sys_), sigma, init, horizon)
        return replace(tr, values=tuple(
            pushforward(lambda key: expand_point(p, key[0][1]), v, target=p)
            for v in tr.values
        ))
    if not is_finite(sys_.states):
        return _closure_trace(sys_, sigma, init, horizon)
    table = tabulate(sys_, horizon)
    n = len(table.keys)
    laws = _key_laws(
        table, np.arange(n), n, _choice(sigma, (sys_,), table.keys, table.options)[None, :],
        table.law(init)[None, :], horizon,
    )
    values = []
    for t, (kl, stopped) in enumerate(laws):
        if stopped[0]:
            raise HierError(f"section has no entry for an emitted lens at tick {t - 1}")
        values.append(
            _key_dist([(table.keys[k], w) for k, w in enumerate(kl[0].tolist()) if w != 0.0])
        )
    return Trace(tuple(range(horizon + 1)), tuple(values))


def _candidates(sys_, provided, mode: str, cap: int = 256) -> list:
    """The provided laws and the system's ``init``, then, over at most
    ``cap`` states, every point mass and the uniform law; a law equal to an
    earlier one is dropped.  Point masses of distinct states differ, and
    from the uniform law over two or more states, so only the provided laws
    and ``init`` are compared.  The states come from ``points``, so their
    point masses are not checked again."""
    given = []
    for d in [*(provided or []), *([] if sys_.init is None else [sys_.init])]:
        if not any(e is d or e == d for e in given):
            given.append(d)
    out = list(given)
    states = sys_.states
    if is_finite(states):
        atoms = list(points(states))
        if len(atoms) <= cap:
            made = [Dirac(states, a) for a in atoms]
            spread = uniform(states)  # refuses a space with no state
            if len(atoms) > 1:  # over one state it is that state's point mass
                made.append(spread)
            out.extend(d for d in made if not any(e is d or e == d for e in given))
    if not out:
        raise HierError(
            f"no initial-state candidates available for quantifier {mode!r}"
        )
    return out


def _table_deviations(theta, psi, sections, cand_a, cand_b, horizon, max_sections):
    """The number of sections, and readings (section, tick, C_a x C_b
    deviation of every candidate pair) section by section, from the two
    systems' tables.

    Sections move in chunks: the (section, candidate) pairs of a chunk are
    the rows of one law matrix per side (``_key_laws``), and the emitted-lens
    laws of the two sides are compared per section and tick as vectors over
    the union of their keys.  A chunk holds as many sections as fit the
    budget, chunk * C * (states + keys * ticks) <= ``_BUDGET`` elements per
    side, and at least one.  It advances one tick only when one of its
    sections reads a tick not yet reached.  A section that has no entry for
    a lens it reaches at tick t raises ``HierError`` when its tick t + 1 is
    read."""
    done: dict = {}
    tables = [_tabulate(theta, horizon, done), _tabulate(psi, horizon, done)]
    keys, options, maps = _union(tables)
    if sections is None:
        choices = _section_choices(options, max_sections)
    else:
        choices = [_choice(sigma, (theta, psi), keys, options) for sigma in sections]
    choices = np.array(choices, dtype=np.intp).reshape(len(choices), len(keys))
    laws = [np.stack([tb.law(d) for d in cs]) for tb, cs in zip(tables, (cand_a, cand_b))]
    per_section = max(len(law) * (tb.size + len(keys) * (horizon + 1))
                      for tb, law in zip(tables, laws))
    most = max(1, _BUDGET // per_section)
    c_a, c_b = len(cand_a), len(cand_b)
    # rows of side a per block, so a block's C_a x C_b x keys array stays small
    block = max(1, _BUDGET // max(1, c_b * len(keys)))

    def readings():
        for lo in range(0, len(choices), most):
            sides = [_key_laws(tb, m, len(keys), choices[lo:lo + most], law, horizon)
                     for tb, m, law in zip(tables, maps, laws)]
            ticks: list = []  # both sides' (key laws, stopped sections) at each tick reached
            for s in range(lo, min(lo + most, len(choices))):
                k = s - lo
                for t in range(horizon + 1):
                    if t == len(ticks):
                        ticks.append([next(side) for side in sides])
                    (la, sa), (lb, sb) = ticks[t]
                    if sa[k] or sb[k]:
                        raise HierError(
                            f"section {s} has no entry for an emitted lens at tick {t - 1}"
                        )
                    ka, kb = la[k * c_a:(k + 1) * c_a], lb[k * c_b:(k + 1) * c_b]
                    yield s, t, np.concatenate([
                        np.abs(ka[a:a + block, None, :] - kb[None, :, :]).max(axis=2)
                        for a in range(0, c_a, block)
                    ])

    return len(choices), readings()


def _traced_deviations(theta, psi, sections, cand_a, cand_b, horizon):
    """The number of sections, and readings (section, tick, C_a x C_b
    deviation of every candidate pair) section by section, from one trace
    per (candidate, section): for systems whose states are not finite."""

    def readings():
        for si, sigma in enumerate(sections):
            va = [trace(theta, sigma, c, horizon).values for c in cand_a]
            vb = [trace(psi, sigma, c, horizon).values for c in cand_b]
            for t in range(horizon + 1):
                yield si, t, np.array([[dist_distance(a[t], b[t]) for b in vb] for a in va])

    return len(sections), readings()


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
    (``as_hier``).  Systems with finite states are compared on their tables;
    any other system only under explicit ``sections``.  A comparison under
    no section at all is refused, not passed.

    A candidate pair matches when its traces agree within ``tol`` at every
    tick under every section.  A side-a candidate holds when some
    (``exists``) or every (``forall``) side-b candidate matches it, and the
    systems are related when some (``exists``) or every (``forall``) side-a
    candidate holds.  The witness names ``alpha``, the first side-a
    candidate that decides the question (0 when none does), and ``beta``,
    the first side-b candidate that matches it (``exists``; 0 when none
    does) or fails it (``forall``), with the pair's first mismatch
    (``section``, ``t``, ``deviation``) when it does not match.  A
    ``forall`` side b that holds has no such beta: the witness is None.
    ``sections`` in the verdict counts the sections offered; reading stops
    at the first tick after which every pair has a mismatch."""
    if alpha_mode not in ("exists", "forall") or beta_mode not in ("exists", "forall"):
        raise HierError("quantifier modes are 'exists' or 'forall'")
    _check_horizon(horizon)
    theta, psi = (as_hier(s) if isinstance(s, System) else s for s in (theta, psi))
    if sections is not None:
        sections = list(sections)
    cand_a = _candidates(theta, alphas, alpha_mode)
    cand_b = _candidates(psi, betas, beta_mode)
    if is_finite(theta.states) and is_finite(psi.states):
        n_sections, readings = _table_deviations(
            theta, psi, sections, cand_a, cand_b, horizon, max_sections
        )
    elif sections is None:
        raise HierError("systems whose states are not finite need explicit sections")
    else:
        n_sections, readings = _traced_deviations(theta, psi, sections, cand_a, cand_b, horizon)
    if not n_sections:
        raise HierError("no section to compare the systems under")

    # first mismatch of every candidate pair: section (-1 where none), tick, deviation
    shape = (len(cand_a), len(cand_b))
    at_section = np.full(shape, -1, dtype=np.intp)
    at_t = np.zeros(shape, dtype=np.intp)
    deviation = np.zeros(shape)
    for si, t, dev in readings:
        new = (at_section < 0) & (dev > tol)
        at_section[new], at_t[new], deviation[new] = si, t, dev[new]
        if (at_section >= 0).all():  # later readings cannot change the table
            break

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


# ---------------------------------------------------------------------------
# exact Bayesian inversion of finite channels


@dataclass(frozen=True)
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

    def emit(t, table):
        return det_polymap(linear(X), linear(Y), lambda a: table[index[a]], lambda a, d: ())

    def absorb(t, table, i, d):
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
    laws (the canonical initial laws are the intended witnesses)."""
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
    so f's emitted lens is first followed by a lift: the monad unit by default
    (a point mass at f's forward output), or f's ``forward_lift`` when it
    carries one -- which is how predictive hierarchies pass calibrated
    uncertainty instead of false certainty.  The lifted f is then composed
    with g by ``compose_hier``.  There is no identity for this composition;
    the API is composition-only."""
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

    def lift_lens(t, x):
        if f.forward_lift is not None:
            def fwd(b):
                return f.forward_lift(t, x, b)
        else:
            def fwd(b):
                return dirac(B, b)

        def backward(b, t_prime):
            return dirac(f.target.dirs_at(b), t_prime)

        return PolyMap(f.target, g.source, fwd, backward, DETERMINISTIC)

    def emit(t, x):
        return compose_map(lift_lens(t, x), f.emit(t, x))

    lifted = HierSystem(f.source, g.source, f.states, f.time, emit, f.absorb, init=f.init)
    # g's positions are distributions, so g has no table; the composite is
    # tabulated by walking its own emit and absorb, not from its factors
    return replace(compose_hier(lifted, g), factors=None)
