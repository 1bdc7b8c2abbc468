"""Open dynamical systems over a polynomial interface, and their closures.

A ``System`` couples a state space to an interface: each state presents a
position (its output) and consumes a direction there, which drives the state
update -- possibly stochastically.  Feeding the directions from a section of
the interface closes the loop and yields a ``ClosedSystem``, a time-indexed
family of Markov kernels on the states.

Time is a monoid of integer ticks (optionally scaled by a real step h).  For
discrete-map systems the stored output/update maps are the one-tick
components; the t-tick kernel is the t-fold Kleisli iterate.  A closure on
up to 512 finite states reads it from the rows of P^t, P being the one-tick
kernel under the section as a row-stochastic matrix; one on more states binds
t one-tick laws.  Either way its flow law holds by construction, by the
associativity of the product or of Kleisli composition, so the flow checks
report its compose cases as the zero deviations they are and step nothing.
A square law between two closures that keep P reads both of its sides from
rows of their powers; a check that reads one closure in many squares, as a
bundle check does, makes each (closure, t) block of rows once.  The law
content is the zero case and the probe that the stored maps really are
tick-stationary.  Continuous-time systems integrate a vector field with a
fixed-step classic Runge-Kutta scheme: an open system holds its input for the
whole call (zero-order hold), while its closure feeds the section's direction
back at every stage of every step.  The RK4 closure steps by walking one tick
at a time from each start, and both flow checks keep one walk per start for
the length of the call.  They measure its compose cases, which a field that
is not a function of the state alone breaks.
"""

from __future__ import annotations

from typing import Callable, Optional, Union

import numpy as np

from .dist import (
    Dirac,
    Dist,
    _finite_law,
    _point_mass_rows,
    bind,
    dirac,
    dist_distance,
    finite_items,
    pushforward,
)
from .poly import (
    DETERMINISTIC,
    STOCHASTIC,
    PolyMap,
    Polynomial,
    Section,
    TimeMonoid,
    all_sections,
    dirac_point,
    time_nat,
    time_real,
)
from .spaces import (
    Space,
    _tuplify,
    cardinality,
    check_point,
    contains,
    flatten_floats,
    is_finite,
    points,
    record,
    unflatten_floats,
)


class OpenSystemError(ValueError):
    """Ill-shaped system data or incompatible composition."""


@record
class DiscreteMap:
    """Discrete-time flavor: one tick is one application of the update."""

    pass


@record
class VectorField:
    """Continuous-time flavor: ``field(x, d)`` is the tangent vector at state
    x under input d, a direction of the system's own interface.  One tick
    integrates it over the system's time step ``time.h`` with the classic
    fixed-step rk4 scheme."""

    field: Callable


Flavor = Union[DiscreteMap, VectorField]


@record
class System:
    """An open system on ``interface``: at time t a state shows
    ``output(t, state)``, a position, and moves to the law
    ``update(t, state, direction)`` over states once told a direction
    there."""

    interface: Polynomial
    states: Space
    time: TimeMonoid
    output: Callable  # (t, state) -> position of interface
    update: Callable  # (t, state, direction) -> Dist over states
    effect: str = DETERMINISTIC
    flavor: Flavor = DiscreteMap()


@record
class ClosedSystem:
    """A closed system: ``step(t, state)`` is the law over states t ticks
    after ``state``."""

    states: Space
    time: TimeMonoid
    step: Callable  # (t, state) -> Dist over states


# A discrete closure on at most this many states keeps its tick matrix: each
# power of it that is kept holds N*N floats, 2 MiB at this size.  A larger one
# binds one-tick laws instead, whose memory does not grow with N*N.  Either
# way its steps are the one-tick kernel's iterates, so the bound decides no
# verdict.
_TABLE_MAX_STATES = 512


class _TickPowers:
    """The one-tick kernel of a closure on finite states as a row-stochastic
    matrix P over ``points(states)``, and its powers: row x of P^t is the
    t-tick law from x.  P is built on the first call of ``power``.  Each
    power asked for is kept; P^t is the nearest kept lower power times P,
    once per missing tick, so its bits do not depend on which were asked.
    Building P also records where each one-tick law's items sit in it, in
    the order the law lists them."""

    def __init__(self, states: Space, one_tick: Callable):
        self.states, self.one_tick = states, one_tick
        self.atoms = list(points(states))
        self.index = {a: i for i, a in enumerate(self.atoms)}
        self._powers: dict = {}

    def power(self, t: int) -> np.ndarray:
        if not self._powers:
            p = np.zeros((len(self.atoms), len(self.atoms)))
            rows, cols = [], []
            for i, x in enumerate(self.atoms):
                for z, w in finite_items(self.one_tick(x)):
                    j = self.index[z]
                    p[i, j] += w
                    rows.append(i)
                    cols.append(j)
            self._powers = {0: np.eye(len(self.atoms)), 1: p}
            self._tick_entries = (np.array(rows, dtype=int), np.array(cols, dtype=int))
        if t not in self._powers:
            k = max(k for k in self._powers if k < t)
            m = self._powers[k]
            for _ in range(t - k):
                m = m @ self._powers[1]
            self._powers[t] = m
        return self._powers[t]

    def entries(self, t: int) -> tuple:
        """The (row, column) of each atom of each row of P^t, in the order
        that step(t) lists a law's items: the one-tick laws' own order at
        t = 1, and column order, row by row, at every other t."""
        power = self.power(t)
        return self._tick_entries if t == 1 else np.nonzero(power)

    def law(self, t: int, x) -> Dist:
        """Row x of P^t as a law, so a row with one atom is its point mass.
        The row's weights are sums of products of the one-tick laws' weights,
        which were checked when those laws were built, so they are not
        checked again: their total drifts from 1 with t."""
        row = self.power(t)[self.index[x]].tolist()
        return _finite_law(self.states, tuple((a, w) for a, w in zip(self.atoms, row) if w != 0.0))


@record
class _DiscreteClosure(ClosedSystem):
    """The closure of a discrete map: step(t) is the t-fold iterate of its
    one-tick kernel.  ``table`` holds its tick matrix's powers on at most
    ``_TABLE_MAX_STATES`` finite states, and is None otherwise."""

    table: Optional[_TickPowers]


class _Walk:
    """The classic RK4 steps of h from x along ``field``, which maps a point
    of ``states`` to its tangent: ``law(t)`` extends the walk one step at a
    time up to t, keeps the vector of every step, and returns the point mass
    at the t-th.  x may be written with lists or arrays in place of tuples.
    The walk is keyed by the raw bytes of the start vector, not by ``==``,
    so -0.0 and 0.0 are two starts."""

    def __init__(self, field: Callable, states: Space, x, h: float):
        vec = np.asarray(flatten_floats(states, check_point(states, _tuplify(x))), dtype=float)
        self.key = vec.tobytes()
        self._field, self._states, self._h, self._values = field, states, h, [vec]

    def _tangent(self, v: np.ndarray) -> np.ndarray:
        return np.asarray(self._field(unflatten_floats(self._states, v.tolist())), dtype=float)

    def law(self, t: int) -> Dist:
        values = self._values
        while len(values) <= t:
            values.append(rk4_step(self._tangent, values[-1], self._h))
        return dirac(self._states, unflatten_floats(self._states, values[t].tolist()))


@record
class _IteratedClosure(ClosedSystem):
    """The RK4 closure of a vector field: ``walk(x)`` is a fresh walk from
    x, and step(t, x) is its t-th law."""

    walk: Callable  # state -> _Walk


def mk_system(
    interface: Polynomial,
    states: Space,
    output: Callable,
    update: Callable,
    time: TimeMonoid = None,
    effect: str = DETERMINISTIC,
) -> System:
    """Assemble and shape-check a System.

    Finite systems are validated exhaustively at one tick: every output must
    be a position, and every update must return a distribution over the
    states (Dirac-only when the effect is declared deterministic).  The flow
    law is deliberately not verified here -- it quantifies over sections and
    times, which is ``check_flow``'s job.
    """
    if time is None:
        time = time_nat()
    if effect not in (DETERMINISTIC, STOCHASTIC):
        raise OpenSystemError(f"unknown effect {effect!r}")
    sys_ = System(interface, states, time, output, update, effect)
    if is_finite(states):
        _validate_finite(sys_)
    return sys_


def _validate_finite(sys_: System) -> None:
    for s in points(sys_.states):
        pos = sys_.output(1, s)
        if not contains(sys_.interface.positions, pos):
            raise OpenSystemError(
                f"output({s!r}) = {pos!r} is not a position of {sys_.interface!r}"
            )
        fibre = sys_.interface.dirs_at(pos)
        if not is_finite(fibre):
            continue
        for d in points(fibre):
            try:
                out = sys_.update(1, s, d)
            except Exception as exc:  # noqa: BLE001 - reshaped into a shape error
                raise OpenSystemError(
                    f"update failed at state {s!r} with direction {d!r} "
                    f"of {fibre!r}: {exc}"
                ) from exc
            if not isinstance(out, Dist) or out.space != sys_.states:
                raise OpenSystemError(
                    f"update({s!r}, {d!r}) must return a Dist over the state "
                    f"space, got {out!r}"
                )
            if sys_.effect == DETERMINISTIC and not isinstance(out, Dirac):
                raise OpenSystemError(
                    f"deterministic system returned a non-Dirac update at "
                    f"({s!r}, {d!r}): {out!r}"
                )


# ---------------------------------------------------------------------------
# closure


def closure(sys_: System, sigma: Section) -> ClosedSystem:
    """Close an open system with a section: at each state, feed the direction
    the section assigns to the current output position.  A continuous-time
    system is closed by integrating the autonomous field x |-> f(x, sigma(g(x))),
    and steps step(t, x) by a walk of t RK4 steps from x.  A discrete one
    reads step(t) off the t-th power of its tick matrix when it has at most
    ``_TABLE_MAX_STATES`` states, and binds t one-tick laws otherwise."""
    if sigma.of != sys_.interface:
        raise OpenSystemError("section does not match the system interface")

    if isinstance(sys_.flavor, VectorField):
        f = sys_.flavor.field

        def closed(x):
            return f(x, sigma.assign(sys_.output(1, x)))

        def walk(x) -> _Walk:
            return _Walk(closed, sys_.states, x, sys_.time.h)

        def rk4(t: int, s):
            t = sys_.time.check(t)
            return walk(s).law(t)

        return _IteratedClosure(sys_.states, sys_.time, rk4, walk)

    def one_tick(s):
        return sys_.update(1, s, sigma.assign(sys_.output(1, s)))

    table = None
    if is_finite(sys_.states) and cardinality(sys_.states) <= _TABLE_MAX_STATES:
        table = _TickPowers(sys_.states, one_tick)

    def step(t: int, s):
        t = sys_.time.check(t)
        if table is None or t == 0:
            law = dirac(sys_.states, s)
            for _ in range(t):
                law = bind(law, one_tick)
            return law
        s = check_point(sys_.states, s)
        return one_tick(s) if t == 1 else table.law(t, s)

    return _DiscreteClosure(sys_.states, sys_.time, step, table)


def closed_from_kernel(states: Space, time: TimeMonoid, kernel: Callable) -> ClosedSystem:
    """Closed system from a user-supplied exact t-step kernel.

    This is how closed-form flows enter the package.  ``check_closed_flow``
    verifies the action law on state samples when the kernel has finite
    support; Gaussian kernels cannot be averaged through an opaque state
    function, so verify those at the kernel level (Kleisli composition of
    affine-Gaussian kernels) instead.
    """

    def step(t: int, s):
        t = time.check(t)
        if t == 0:
            return dirac(states, s)
        return kernel(t, s)

    return ClosedSystem(states, time, step)


def _report(law: str, blocks, tol: float, domain=None, **extra) -> dict:
    """The verdict of one law over its cases, taken in blocks
    ``(labels, states, deviations)``.  ``deviations`` is one row of cases,
    or a 2-D batch of rows, with a column per state of ``states`` (one
    column naming no state when ``states`` is None); ``labels`` is the dict
    every row shares, or a function from a row's index to its dict.  One
    reduction, which a NaN propagates through, reads a block's worst
    deviation, so a block within ``tol`` passes whole.  A case beyond it
    (NaN is within no tolerance) is a violation, ``{**labels, "state": x,
    "deviation": d}``, listed row by row and state by state; a row's labels
    are made only when it fails.  ``max_deviation`` is the worst deviation
    over every case, NaN once a case reads NaN.

    A law is universally quantified, so over no case it would pass vacuously.
    ``domain`` maps the name of each quantifier the caller was handed
    (sections, times, states, generators) to its values, and an empty one is
    refused, by the law's name and its own; a law that reaches no case at all
    is refused too."""
    for name, values in (domain or {}).items():
        if len(values) == 0:
            raise OpenSystemError(f"the {law} law was given no {name} to check")
    violations = []
    max_dev = 0.0
    checked = False
    for labels, states, devs in blocks:
        devs = np.asarray(devs, dtype=float)
        if devs.size == 0:
            continue
        checked = True
        worst = np.maximum.reduce(devs, axis=None)
        if worst > max_dev or worst != worst and max_dev == max_dev:  # a NaN is kept
            max_dev = float(worst)
        if not worst <= tol:
            devs = devs.reshape(-1, 1 if states is None else len(states))
            rows, cols = np.nonzero(~(devs <= tol))
            at = None
            for i, j, d in zip(rows.tolist(), cols.tolist(), devs[rows, cols].tolist()):
                if i != at:
                    at, case = i, labels if isinstance(labels, dict) else labels(i)
                if states is None:
                    violations.append({**case, "deviation": d})
                else:
                    violations.append({**case, "state": states[j], "deviation": d})
    if not checked:
        raise OpenSystemError(f"the {law} law has no case to check")
    verdict = {"law": law, "pass": not violations, **extra}
    return {**verdict, "max_deviation": max_dev, "violations": violations}


def _flow_cases(cs: ClosedSystem, times, states, **labels):
    """The blocks of the flow law: step(0) against the point mass at every
    state of the sample, then every split's step(s+t) against step(s) after
    step(t) there, as one batch with a row per split.  The time monoid
    checks every split before any is stepped, and the labels hold the ints
    it reads."""
    zero = [dist_distance(cs.step(0, x), dirac(cs.states, x)) for x in states]
    yield {"kind": "zero", **labels}, states, zero
    check = cs.time.check
    splits = [(check(s), check(t)) for s, t in times]

    def split_labels(i: int) -> dict:
        s, t = splits[i]
        return {"kind": "compose", **labels, "s": s, "t": t}

    yield split_labels, states, _compose_gaps(cs, splits, states)


def _compose_gaps(cs: ClosedSystem, splits, states) -> np.ndarray:
    """Row k: the sup-distance of step(s+t) from step(s) after step(t) at
    each state of the sample, in its order, for the k-th split (s, t), as
    ints the time monoid has checked.

    A discrete closure's step(t) is the t-fold iterate of its one-tick
    kernel: t binds of it, or on at most ``_TABLE_MAX_STATES`` states the
    rows of P^t, the t-fold product of its tick matrix P.  So step(s+t) =
    step(s) after step(t) by the associativity of Kleisli composition, or of
    the product: its block is that exact deviation, a zero row per split,
    and nothing is stepped.  Every other closure is stepped: an RK4 closure
    and a user kernel can break the law."""
    if isinstance(cs, _DiscreteClosure):
        return np.zeros((len(splits), len(states)))
    return np.array([
        [
            dist_distance(cs.step(s + t, x), bind(cs.step(t, x), lambda z: cs.step(s, z)))
            for x in states
        ]
        for s, t in splits
    ], dtype=float)


def _image(left: ClosedSystem, right: ClosedSystem, f):
    """The right closure's atom index of f at each left atom, when both
    closures keep a tick matrix; None otherwise."""
    if not all(isinstance(cs, _DiscreteClosure) and cs.table is not None for cs in (left, right)):
        return None
    return np.array(
        [right.table.index[check_point(right.states, f(a))] for a in left.table.atoms],
        dtype=int,
    )


def _square_cases(
    left, rights, f, times, states, kind="square", by=None, image=None, targets=None,
    **labels,
):
    """The squares ``pushforward(f, left.step(t, x)) = right.step(t, f(x))``
    of the left closure against each of ``rights`` (one time monoid) at
    every time and state, as one batch: a row per (right, t), right after
    right, and a column per state.  A row's labels hold t, and the right
    closure's index under ``by`` when it is named.

    When every closure keeps a tick matrix, the cases are read from rows of
    the matrices' powers: row x of P_L^t summed into the right atoms
    through f (``_push``), against row f(x) of each P_R^t (``_target``),
    every right closure in one stacked difference of at most
    ``_TABLE_MAX_STATES**2`` floats.  The rows are the laws step would
    return, so each deviation is the per-state one bit for bit: a left row
    sums its atoms in step(t)'s order (``entries``), and a one-atom row on
    either side is a point mass (weight 1.0), as ``dist`` makes it.  A
    caller squaring several left closures against the same right ones
    passes f's ``image`` and a dict ``targets`` that keeps each time's
    stack of right rows.  Other closures are stepped state by state.  Both
    time monoids check every time first; the labels hold their ints."""
    if not rights:
        return
    times = [rights[0].time.check(left.time.check(t)) for t in times]

    def row_labels(i: int) -> dict:
        k, j = divmod(i, len(times))
        return {"kind": kind, **labels, **({by: k} if by else {}), "t": times[j]}

    shape = (len(rights) * len(times), len(states))
    if image is None:
        image = _image(left, rights[0], f)
    if image is None:
        gaps = [
            dist_distance(
                pushforward(f, left.step(t, x), target=right.states), right.step(t, f(x))
            )
            for right in rights
            for t in times
            for x in states
        ]
        yield row_labels, states, np.array(gaps, dtype=float).reshape(shape)
        return
    rows = np.array([left.table.index[check_point(left.states, x)] for x in states], dtype=int)
    n, m = len(left.table.atoms), len(rights[0].table.atoms)
    gaps = np.empty((len(rights), len(times), n))
    per_batch = max(1, _TABLE_MAX_STATES**2 // max(1, n * m))
    for j, t in enumerate(times):
        pushed = _push(left.table, image, m, t)
        target = _kept(targets, t, lambda: np.array([_target(r.table, image, t) for r in rights]))
        for start in range(0, len(rights), per_batch):
            gap = np.subtract(pushed, target[start:start + per_batch])
            np.abs(gap, out=gap)
            np.maximum.reduce(gap, axis=2, initial=0.0, out=gaps[start:start + per_batch, j])
    yield row_labels, states, gaps.reshape(len(rights) * len(times), n)[:, rows]


def _kept(blocks, t: int, make: Callable):
    """blocks[t], made on its first read; made afresh when blocks is None."""
    if blocks is None:
        return make()
    if t not in blocks:
        blocks[t] = make()
    return blocks[t]


def _push(table: _TickPowers, image, m: int, t: int) -> np.ndarray:
    """Each row of P^t summed into the m right atoms along ``image``.
    ``np.bincount`` adds each weight to its target in input order, as
    ``pushforward`` merges a law's items."""
    n = len(table.atoms)
    r, c = table.entries(t)
    pushed = np.bincount(r * m + image[c], weights=table.power(t)[r, c], minlength=n * m)
    return _point_mass_rows(pushed.reshape(n, m))


def _target(table: _TickPowers, image, t: int) -> np.ndarray:
    """The row of P^t at each left atom's image."""
    return _point_mass_rows(table.power(t)[image])


def check_closed_flow(
    cs: ClosedSystem, times, states_sample, tol: float = 0.0
) -> dict:
    """Verify step(0) = point mass and step(s+t) = step(s) after step(t).  An
    RK4 closure keeps one walk per start for the length of the call, and its
    compose cases, like a user kernel's, are measured; a discrete closure's
    hold by construction, at every size, and read 0.0."""
    if isinstance(cs, _IteratedClosure):
        cs = _walked(cs)
    times, states = list(times), list(states_sample)
    domain = {"times": times, "states": states}
    return _report("flow", _flow_cases(cs, times, states), tol, domain)


def _walked(cs: _IteratedClosure) -> ClosedSystem:
    """The RK4 closure keeping each walk it is asked about.  step(t, x)
    extends x's walk to t.  A walk is found by the key of its start alone, never by a
    state it passed through, so step(s) after step(t) walks afresh from
    step(t, x)'s point."""
    walks: dict = {}

    def walk(x) -> _Walk:
        fresh = cs.walk(x)
        return walks.setdefault(fresh.key, fresh)

    def step(t: int, s):
        return walk(s).law(cs.time.check(t))

    return ClosedSystem(cs.states, cs.time, step)


def check_flow(
    sys_: System,
    sections=None,
    times=None,
    states=None,
    tol: float = 0.0,
) -> dict:
    """Flow-law suite for an open system.

    For every section in the family: step(0) is a point mass and
    step(s+t) = step(s) after step(t) on the state sample.  Discrete-map
    systems additionally get a tick-stationarity probe of the stored maps,
    since their general-t kernel is derived from the one-tick components --
    a t-dependent stored map is a law violation even though the derived
    kernels compose by construction.  Every s and t is checked by the time
    monoid, on every route, before a split is stepped.  A discrete closure
    is the t-fold iterate of its one-tick kernel, read from the powers of
    its tick matrix on up to 512 states and by nested binds on more, so its
    compose cases hold by construction at every size: they are reported at
    deviation 0.0, and nothing is stepped or multiplied for them.  Each
    section's zero cases, and its splits, reach the report as one block
    each.  An RK4 closure is walked and measures every compose case, since
    a field that is not a function of the state alone breaks them: each
    start of the sample, and each point a compose case steps on from, gets
    one walk, extended to the largest t asked of it.  The walks live for
    this call only.  A continuous-time sample may be written as lists or
    arrays; its states are reported as the points the closure reads.
    """
    if sections is None:
        sections = all_sections(sys_.interface)
    sections = list(sections)
    if times is None:
        times = [(s, t) for s in range(5) for t in range(5) if s + t <= 8 and s + t > 0]
    if states is None:
        if not is_finite(sys_.states):
            raise OpenSystemError("check_flow needs an explicit state sample here")
        states = points(sys_.states)
    times, states = list(times), list(states)

    def cases():
        if isinstance(sys_.flavor, DiscreteMap):
            yield from _stationary_cases(sys_, times, states)
        for k, sigma in enumerate(sections):
            cs, sample = closure(sys_, sigma), states
            if isinstance(cs, _IteratedClosure):
                cs = _walked(cs)
                sample = [dirac_point(cs.step(0, x)) for x in states]
            yield from _flow_cases(cs, times, sample, section=k)

    domain = {"sections": sections, "times": times, "states": states}
    return _report("flow", cases(), tol, domain, sections=len(sections))


def _stationary_cases(sys_: System, times, states):
    """The stored one-tick maps of a discrete-map system at every tick from 1
    to the latest that ``times`` reaches, against those at tick 1 (read
    once), one block per tick: a split s + t runs the maps at every tick up
    to s + t, not only at s and t.  The time monoid checks s and t first."""
    check = sys_.time.check
    last = max(check(s) + check(t) for s, t in times)
    first = []  # (state, tick-1 output, [(direction, tick-1 law)])
    for x in states:
        pos = sys_.output(1, x)
        fibre = sys_.interface.dirs_at(pos)
        laws = [(d, sys_.update(1, x, d)) for d in points(fibre)] if is_finite(fibre) else []
        first.append((x, pos, laws))
    for t in range(1, last + 1):
        cases, devs = [], []  # (kind, state, direction), deviation
        for x, pos, laws in first:
            if sys_.output(t, x) != pos:
                cases.append(("stationary-output", x, None))
                devs.append(float("inf"))
                continue
            for d, law in laws:
                cases.append(("stationary-update", x, d))
                devs.append(dist_distance(sys_.update(t, x, d), law))

        def case_labels(i: int, t=t, cases=cases) -> dict:
            kind, x, d = cases[i]
            case = {"kind": kind, "t": t, "state": x}
            if kind == "stationary-update":
                case["direction"] = d
            return case

        yield case_labels, None, devs


# ---------------------------------------------------------------------------
# reindexing


def reindex(phi: PolyMap, sys_: System) -> System:
    """Transport a system along a lens out of its interface.

    The new system shows the world ``phi``-translated outputs and answers
    incoming directions by translating them back through ``phi``'s backward
    family before updating."""
    if phi.source != sys_.interface:
        raise OpenSystemError(
            f"lens starts at {phi.source!r} but the system runs on "
            f"{sys_.interface!r}"
        )
    if sys_.effect == DETERMINISTIC and phi.effect != DETERMINISTIC:
        raise OpenSystemError(
            "stochastic lens cannot reindex a deterministic system; "
            "declare the system stochastic first"
        )

    def output(t, s):
        return phi.forward(sys_.output(t, s))

    def update(t, s, d_new):
        translated = phi.backward(sys_.output(t, s), d_new)
        return bind(translated, lambda d: sys_.update(t, s, d))

    flavor = sys_.flavor
    if isinstance(flavor, VectorField):
        inner = flavor.field

        def field(x, d_new):
            return inner(x, dirac_point(phi.backward(sys_.output(1, x), d_new)))

        flavor = VectorField(field)
    return System(
        phi.target, sys_.states, sys_.time, output, update, sys_.effect, flavor
    )


def systems_agree(a: System, b: System) -> bool:
    """Exact extensional one-tick equality of two finite systems on shared
    shape."""
    if (a.interface, a.states, a.time) != (b.interface, b.states, b.time):
        return False
    for s in points(a.states):
        if a.output(1, s) != b.output(1, s):
            return False
        fibre = a.interface.dirs_at(a.output(1, s))
        for d in points(fibre):
            if dist_distance(a.update(1, s, d), b.update(1, s, d)) > 0.0:
                return False
    return True


# ---------------------------------------------------------------------------
# continuous time


def rk4_step(f: Callable, x: np.ndarray, h: float) -> np.ndarray:
    k1 = f(x)
    k2 = f(x + 0.5 * h * k1)
    k3 = f(x + 0.5 * h * k2)
    k4 = f(x + h * k3)
    return x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def from_vector_field(
    f: Callable,
    g: Callable,
    p: Polynomial,
    h: float,
    states: Space,
) -> System:
    """Open continuous-time system from a vector field.

    ``f(x, d)`` gives the tangent at state x under input direction d;
    ``g(x)`` is the exposed position.  One tick integrates h time units with
    the classic fixed-step scheme, holding the direction fixed for the whole
    call (zero-order hold)."""
    clock = time_real(h)

    def output(t, x):
        return g(x)

    def update(t, x, d):
        return _Walk(lambda pt: f(pt, d), states, x, clock.h).law(clock.check(t))

    return System(p, states, clock, output, update, DETERMINISTIC, VectorField(f))


# ---------------------------------------------------------------------------
# coalgebra round-trip


@record
class NCoalg:
    """Tabular presentation of a finite deterministic discrete system: the
    output table S -> positions and the transition table on (state,
    direction) pairs over each state's own fibre."""

    interface: Polynomial
    states: Space
    output_table: tuple  # ((state, position), ...)
    transition_table: tuple  # (((state, direction), state'), ...)

    def to_system(self) -> System:
        out = dict(self.output_table)
        trans = dict(self.transition_table)

        def output(t, s):
            return out[s]

        def update(t, s, d):
            return dirac(self.states, trans[(s, d)])

        return mk_system(self.interface, self.states, output, update, time_nat())


def to_ncoalg(sys_: System) -> NCoalg:
    if sys_.time.kind != "nat" or sys_.effect != DETERMINISTIC:
        raise OpenSystemError("tabular form needs discrete time and deterministic effect")
    if not (is_finite(sys_.states) and is_finite(sys_.interface.positions)):
        raise OpenSystemError("tabular form needs finite states and positions")
    out_rows = []
    trans_rows = []
    for s in points(sys_.states):
        pos = sys_.output(1, s)
        out_rows.append((s, pos))
        fibre = sys_.interface.dirs_at(pos)
        if not is_finite(fibre):
            raise OpenSystemError("tabular form needs finite direction fibres")
        for d in points(fibre):
            trans_rows.append(((s, d), dirac_point(sys_.update(1, s, d))))
    return NCoalg(sys_.interface, sys_.states, tuple(out_rows), tuple(trans_rows))


# ---------------------------------------------------------------------------
# system morphisms


def is_system_morphism(
    f: Callable,
    a: System,
    b: System,
    sections,
    times,
) -> dict:
    """Check the naturality squares that make ``f`` a map of systems, exactly
    (tolerance 0), at every state of ``a``.

    Outputs must agree through f, and for every section and time the closed
    step of ``a`` pushed forward along f must equal the closed step of ``b``
    at the image state."""
    if a.interface != b.interface or a.time != b.time:
        raise OpenSystemError("systems must share interface and time monoid")
    states = list(points(a.states))
    sections, times = list(sections), list(times)

    def cases():
        moved = [x for x in states if b.output(1, f(x)) != a.output(1, x)]
        if moved:
            yield {"kind": "output"}, moved, [float("inf")] * len(moved)
        for k, sigma in enumerate(sections):
            yield from _square_cases(
                closure(a, sigma), [closure(b, sigma)], f, times, states, section=k
            )

    return _report("system-morphism", cases(), 0.0, {"sections": sections, "times": times})
