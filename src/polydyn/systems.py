"""Open dynamical systems over a polynomial interface, and their closures.

A ``System`` couples a state space to an interface: each state presents a
position (its output) and consumes a direction there, which drives the state
update -- possibly stochastically.  Feeding the directions from a section of
the interface closes the loop and yields a ``ClosedSystem``, a time-indexed
family of Markov kernels on the states.

Time is a monoid of integer ticks (optionally scaled by a real step h).  For
discrete-map systems the stored output/update maps are the one-tick
components; the t-tick kernel is the t-fold Kleisli iterate.  On finite
states that iterate is the t-th power of one row-stochastic matrix P, the
one-tick kernel under the section, so a closure on up to 512 states reads its
t-tick laws from the rows of P^t.  Its flow law then holds by construction:
``check_flow``'s compose cases compare P^(s+t) with P^t P^s and only measure
rounding.  A square law between two such closures reads both of its sides
from rows of their powers; a check that reads one closure in many squares,
as a bundle check does, makes each (closure, t) block of rows once.  The law
content is the zero case and the probe that the stored maps really are
tick-stationary.  Continuous-time systems integrate a vector field with a
fixed-step classic Runge-Kutta scheme: an open system holds its input for the
whole call (zero-order hold), while its closure feeds the section's direction
back at every stage of every step.  The RK4 closure and a discrete closure on
more states step by walking one tick at a time from each start: step(t, x) is
the t-th law of the walk from x, and both flow checks keep one walk per start
for the length of the call.
"""

from __future__ import annotations

from typing import Callable, Union

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


# A discrete closure on at most this many states is tabulated: each power of
# its tick matrix that is kept holds N*N floats, 2 MiB at this size.  A larger
# one steps by nested binds, whose memory does not grow with N*N.
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
class _TabulatedClosure(ClosedSystem):
    """A discrete closure on finite states, with its tick matrix's powers."""

    table: _TickPowers


class _Walk:
    """The ticks of a closure from one start: ``law(t)`` extends the walk one
    tick at a time up to t, keeps the value of every tick, and returns the
    law of the t-th.  ``key`` is what the closure reads of the start."""

    def __init__(self, key, first, advance: Callable, law_of: Callable):
        self.key = key
        self._values, self._advance, self._law_of = [first], advance, law_of

    def law(self, t: int) -> Dist:
        values = self._values
        while len(values) <= t:
            values.append(self._advance(values[-1]))
        return self._law_of(values[t])


@record
class _IteratedClosure(ClosedSystem):
    """A closure that iterates its one tick: ``walk(x)`` is a fresh walk from
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
    system is closed by integrating the autonomous field x |-> f(x, sigma(g(x))).
    A discrete one reads step(t) off the t-th power of its tick matrix when it
    has at most ``_TABLE_MAX_STATES`` states, and binds t one-tick laws
    otherwise.  The RK4 and bind closures step(t, x) by a walk of t ticks
    from x."""
    if sigma.of != sys_.interface:
        raise OpenSystemError("section does not match the system interface")

    if isinstance(sys_.flavor, VectorField):
        f = sys_.flavor.field

        def closed(x):
            return f(x, sigma.assign(sys_.output(1, x)))

        def walk(x) -> _Walk:
            return _rk4_walk(closed, sys_.states, x, sys_.time.h)

        return _iterated(sys_, walk)

    def one_tick(s):
        return sys_.update(1, s, sigma.assign(sys_.output(1, s)))

    if is_finite(sys_.states) and cardinality(sys_.states) <= _TABLE_MAX_STATES:
        table = _TickPowers(sys_.states, one_tick)

        def step(t: int, s):
            t = sys_.time.check(t)
            if t == 0:
                return dirac(sys_.states, s)
            s = check_point(sys_.states, s)
            return one_tick(s) if t == 1 else table.law(t, s)

        return _TabulatedClosure(sys_.states, sys_.time, step, table)

    def walk(x) -> _Walk:
        first = dirac(sys_.states, x)
        return _Walk(first.point, first, lambda law: bind(law, one_tick), lambda law: law)

    return _iterated(sys_, walk)


def _iterated(sys_: System, walk: Callable) -> _IteratedClosure:
    def step(t: int, s):
        t = sys_.time.check(t)
        return walk(s).law(t)

    return _IteratedClosure(sys_.states, sys_.time, step, walk)


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

    A tabulated closure compares row x of P^(s+t) with row x of the whole
    product P^t P^s (a row-vector product differs from it in its last bits).
    It reads its splits in batches whose product stack holds at most
    ``_TABLE_MAX_STATES**2`` floats, every split of a small closure at once
    and one at a time on hundreds of states: a batch stacks the distinct
    powers its splits need once and makes every product in one stacked
    ``matmul``, whose slices are the 2-D products bit for bit; one
    reduction gives every row's gap, and one gather each sampled state's."""
    if isinstance(cs, _TabulatedClosure):
        table = cs.table
        rows = np.array([table.index[check_point(cs.states, x)] for x in states], dtype=int)
        per_batch = max(1, _TABLE_MAX_STATES**2 // len(table.atoms) ** 2)
        return np.concatenate([
            _row_gaps(table, splits[start:start + per_batch])[:, rows]
            for start in range(0, len(splits), per_batch)
        ])
    return np.array([
        [
            dist_distance(cs.step(s + t, x), bind(cs.step(t, x), lambda z: cs.step(s, z)))
            for x in states
        ]
        for s, t in splits
    ], dtype=float)


def _row_gaps(table: _TickPowers, batch: list) -> np.ndarray:
    """max_j |P^(s+t) - P^t P^s|[i, j] for each split (s, t) of the batch and
    each row i.  The operands are gathered from one stack of the distinct
    powers the batch needs; a batch of one split views its three powers as
    stacks of one in place, so it holds its product and no copy."""
    operands = list(zip(*((t, s, s + t) for s, t in batch)))  # P^t, P^s, P^(s+t)
    if len(batch) == 1:
        stack = [table.power(ks[0])[np.newaxis] for ks in operands]
        lhs, rhs, target = 0, 1, 2
    else:
        needed = sorted(set().union(*operands))
        stack = np.array([table.power(k) for k in needed])
        at = {k: j for j, k in enumerate(needed)}
        lhs, rhs, target = (np.array([at[k] for k in ks]) for ks in operands)
    gap = np.matmul(stack[lhs], stack[rhs])
    np.subtract(stack[target], gap, out=gap)
    np.abs(gap, out=gap)
    return np.maximum.reduce(gap, axis=2, initial=0.0)


def _image(left: ClosedSystem, right: ClosedSystem, f):
    """The right closure's atom index of f at each left atom, when both
    closures are tabulated; None otherwise."""
    if not (isinstance(left, _TabulatedClosure) and isinstance(right, _TabulatedClosure)):
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

    When every closure is tabulated, the cases are read from rows of the
    tick matrices' powers: row x of P_L^t summed into the right atoms
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
    iterated closure keeps one walk per start for the length of the call."""
    if isinstance(cs, _IteratedClosure):
        cs = _walked(cs)
    times, states = list(times), list(states_sample)
    domain = {"times": times, "states": states}
    return _report("flow", _flow_cases(cs, times, states), tol, domain)


def _walked(cs: _IteratedClosure) -> ClosedSystem:
    """The closure keeping each walk it is asked about.  step(t, x) extends
    x's walk to t.  A walk is found by the key of its start alone, never by a
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
    monoid, on every route, before a split is stepped.  On up to 512 states
    the compose cases compare powers of the closure's tick matrix, so they
    measure only rounding; each sampled state's row is resolved once per
    closure, and the splits are read in batches of one stacked product each
    (every split at once on a few states, one at a time on hundreds).  Each
    section's zero cases, and its splits, reach the report as one block
    each.  The other closures (RK4, and nested binds on more states) are walked: each
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


def _rk4_walk(field: Callable, states: Space, x, h: float) -> _Walk:
    """The classic RK4 steps of h from x along ``field``, which maps a point
    of ``states`` to its tangent; the law at each tick is the point mass at
    its vector.  x may be written with lists or arrays in place of tuples.
    The walk is keyed by the raw bytes of the start vector, not by ``==``,
    so -0.0 and 0.0 are two starts."""
    vec = np.asarray(flatten_floats(states, check_point(states, _tuplify(x))), dtype=float)

    def tangent(v):
        return np.asarray(field(unflatten_floats(states, v.tolist())), dtype=float)

    def law_of(v):
        return dirac(states, unflatten_floats(states, v.tolist()))

    return _Walk(vec.tobytes(), vec, lambda v: rk4_step(tangent, v, h), law_of)


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
        return _rk4_walk(lambda pt: f(pt, d), states, x, clock.h).law(clock.check(t))

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
