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
t-tick laws from the rows of P^t.  Its flow law then holds by construction: ``check_flow``'s compose
cases compare P^(s+t) with P^t P^s and only measure rounding.  A square law
between two such closures reads both of its sides from rows of their powers.  The law content
is the zero case and the probe that the stored maps really are
tick-stationary.  Continuous-time systems integrate a vector field with a
fixed-step classic Runge-Kutta scheme: an open system holds its input for the
whole call (zero-order hold), while its closure feeds the section's direction
back at every stage of every step.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Union

import numpy as np

from .dist import (
    Dirac,
    Dist,
    bind,
    categorical,
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
    cardinality,
    check_point,
    contains,
    flatten_floats,
    is_finite,
    points,
    unflatten_floats,
)


class OpenSystemError(ValueError):
    """Ill-shaped system data or incompatible composition."""


@dataclass(frozen=True)
class DiscreteMap:
    pass


@dataclass(frozen=True)
class VectorField:
    """Continuous-time flavor: ``field(x, d)`` is the tangent vector at state
    x under input d, a direction of the system's own interface; ``h`` is the
    integrator step (one tick) of the classic fixed-step rk4 scheme."""

    field: Callable
    h: float


Flavor = Union[DiscreteMap, VectorField]


@dataclass(frozen=True)
class System:
    interface: Polynomial
    states: Space
    time: TimeMonoid
    output: Callable  # (t, state) -> position of interface
    update: Callable  # (t, state, direction) -> Dist over states
    effect: str = DETERMINISTIC
    flavor: Flavor = DiscreteMap()


@dataclass(frozen=True)
class ClosedSystem:
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
        """Row x of P^t as a law; a row with one atom is a point mass."""
        row = self.power(t)[self.index[x]].tolist()
        pairs = [(a, w) for a, w in zip(self.atoms, row) if w != 0.0]
        if len(pairs) == 1:
            return dirac(self.states, pairs[0][0])
        return categorical(self.states, pairs)


@dataclass(frozen=True)
class _TabulatedClosure(ClosedSystem):
    """A discrete closure on finite states, with its tick matrix's powers."""

    table: _TickPowers


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
    otherwise."""
    if sigma.of != sys_.interface:
        raise OpenSystemError("section does not match the system interface")

    if isinstance(sys_.flavor, VectorField):
        f = sys_.flavor.field

        def closed(x):
            return f(x, sigma.assign(sys_.output(1, x)))

        def step(t: int, s):
            t = sys_.time.check(t)
            if t == 0:
                return dirac(sys_.states, s)
            return _rk4_flow(closed, sys_.states, s, t, sys_.flavor.h)

        return ClosedSystem(sys_.states, sys_.time, step)

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

    def step(t: int, s):
        t = sys_.time.check(t)
        law: Dist = dirac(sys_.states, s)
        for _ in range(t):
            law = bind(law, one_tick)
        return law

    return ClosedSystem(sys_.states, sys_.time, step)


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


def _report(law: str, cases, tol: float, **extra) -> dict:
    """The verdict of one law over its (case, deviation) pairs: a case past
    ``tol`` is a violation, and ``max_deviation`` is the worst deviation over
    every case checked."""
    violations = []
    max_dev = 0.0
    for case, dev in cases:
        max_dev = max(max_dev, dev)
        if dev > tol:
            violations.append({**case, "deviation": dev})
    verdict = {"law": law, "pass": not violations, **extra}
    return {**verdict, "max_deviation": max_dev, "violations": violations}


def _flow_cases(cs: ClosedSystem, times, states, **labels):
    """step(0) against the point mass, and step(s+t) against step(s) after
    step(t), at every state of the sample."""
    for x in states:
        dev = dist_distance(cs.step(0, x), dirac(cs.states, x))
        yield {"kind": "zero", **labels, "state": x}, dev
    for s, t in times:
        for x, dev in zip(states, _compose_gaps(cs, s, t, states)):
            yield {"kind": "compose", **labels, "s": s, "t": t, "state": x}, dev


def _compose_gaps(cs: ClosedSystem, s: int, t: int, states) -> list:
    """The sup-distance of step(s+t) from step(s) after step(t) at each state.
    A tabulated closure compares row x of P^(s+t) with row x of P^t P^s."""
    if isinstance(cs, _TabulatedClosure):
        power = cs.table.power
        gaps = np.max(np.abs(power(s + t) - power(t) @ power(s)), axis=1, initial=0.0)
        return [float(gaps[cs.table.index[check_point(cs.states, x)]]) for x in states]
    return [
        dist_distance(cs.step(s + t, x), bind(cs.step(t, x), lambda z: cs.step(s, z)))
        for x in states
    ]


def _square_cases(left, right, f, times, states, kind="square", **labels):
    """The square ``pushforward(f, left.step(t, x)) = right.step(t, f(x))`` at
    every time and state.

    When both closures are tabulated, each case is read from rows of the tick
    matrices' powers: row x of P_L^t summed into the right closure's atoms
    through f, against row f(x) of P_R^t.  The rows are read as the laws that
    step would return, so every deviation is the per-state one bit for bit: a
    left row sums its atoms in the order step(t) lists them (``entries``), and
    a row with one atom is a point mass (weight 1.0) on the left, as
    ``pushforward`` makes it, and on the right except at t = 1, where step
    returns the one-tick law itself.  Every other closure is stepped state by
    state."""
    if isinstance(left, _TabulatedClosure) and isinstance(right, _TabulatedClosure):
        image = np.array(
            [right.table.index[check_point(right.states, f(a))] for a in left.table.atoms],
            dtype=int,
        )
        rows = [left.table.index[check_point(left.states, x)] for x in states]
        for t in times:
            left.time.check(t)
            gaps = _square_gaps(left.table, right.table, image, right.time.check(t))
            for x, i in zip(states, rows):
                yield {"kind": kind, **labels, "t": t, "state": x}, gaps[i]
        return
    for t in times:
        for x in states:
            lhs = pushforward(f, left.step(t, x), target=right.states)
            rhs = right.step(t, f(x))
            yield {"kind": kind, **labels, "t": t, "state": x}, dist_distance(lhs, rhs)


def _square_gaps(left: _TickPowers, right: _TickPowers, image, t: int) -> list:
    """At each left atom x, the sup-distance of row x of P_L^t pushed along
    ``image`` (the right column of f at each left atom) from row f(x) of
    P_R^t.  ``np.bincount`` adds each weight to its target in input order,
    as ``pushforward`` merges a law's items."""
    n, m = len(left.atoms), len(right.atoms)
    r, c = left.entries(t)
    cols = image[c]
    pushed = np.bincount(r * m + cols, weights=left.power(t)[r, c], minlength=n * m)
    pushed = _point_masses(pushed.reshape(n, m), r, cols)
    target = right.power(t)[image]
    if t != 1:
        target = _point_masses(target, *np.nonzero(target))
    return np.max(np.abs(pushed - target), axis=1, initial=0.0).tolist()


def _point_masses(rows: np.ndarray, r, c) -> np.ndarray:
    """``rows`` with the one atom of each single-atom row set to weight 1.0,
    given the (row, column) of every atom: a law with one atom is a point
    mass."""
    one = np.bincount(r, minlength=len(rows))[r] == 1
    rows[r[one], c[one]] = 1.0
    return rows


def check_closed_flow(
    cs: ClosedSystem, times, states_sample, tol: float = 0.0
) -> dict:
    """Verify step(0) = point mass and step(s+t) = step(s) after step(t)."""
    return _report("flow", _flow_cases(cs, times, list(states_sample)), tol)


def _memoized(cs: ClosedSystem) -> ClosedSystem:
    """The same closed system, computing each step(t, x) once: for the
    closures that no tick matrix represents, whose flow cases would step the
    same state again and again."""
    memo: dict = {}

    def step(t: int, s):
        key = (t, s)
        if key not in memo:
            memo[key] = cs.step(t, s)
        return memo[key]

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
    kernels compose by construction.  On up to 512 states the compose cases
    compare powers of the closure's tick matrix, so they measure only
    rounding.
    """
    if sections is None:
        sections = all_sections(sys_.interface)
    sections = list(sections)
    if times is None:
        times = [(s, t) for s in range(5) for t in range(5) if s + t <= 8 and s + t > 0]
    if states is None:
        if not is_finite(sys_.states):
            raise OpenSystemError("check_flow needs an explicit state sample here")
        states = list(points(sys_.states))

    def cases():
        if isinstance(sys_.flavor, DiscreteMap):
            yield from _stationary_cases(sys_, times, states)
        for k, sigma in enumerate(sections):
            cs = closure(sys_, sigma)
            if not isinstance(cs, _TabulatedClosure):
                cs = _memoized(cs)
            yield from _flow_cases(cs, times, states, section=k)

    return _report("flow", cases(), tol, sections=len(sections))


def _stationary_cases(sys_: System, times, states):
    """The stored one-tick maps of a discrete-map system at every tick from 1
    to the latest that ``times`` reaches, against those at tick 1: a split
    s + t runs the maps at every tick up to s + t, not only at s and t."""
    for t in range(1, max((s + t for s, t in times), default=1) + 1):
        for x in states:
            if sys_.output(t, x) != sys_.output(1, x):
                yield {"kind": "stationary-output", "t": t, "state": x}, float("inf")
                continue
            fibre = sys_.interface.dirs_at(sys_.output(1, x))
            if not is_finite(fibre):
                continue
            for d in points(fibre):
                dev = dist_distance(sys_.update(t, x, d), sys_.update(1, x, d))
                case = {"kind": "stationary-update", "t": t, "state": x, "direction": d}
                yield case, dev


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

        flavor = VectorField(field, flavor.h)
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


def _rk4_flow(field: Callable, states: Space, x, ticks: int, h: float) -> Dist:
    """Point mass at x after ``ticks`` classic RK4 steps of h along
    ``field``, which maps a point of ``states`` to its tangent."""
    vec = np.asarray(flatten_floats(states, x), dtype=float)

    def tangent(v):
        return np.asarray(field(unflatten_floats(states, v.tolist())), dtype=float)

    for _ in range(ticks):
        vec = rk4_step(tangent, vec, h)
    return dirac(states, unflatten_floats(states, vec.tolist()))


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
        return _rk4_flow(lambda pt: f(pt, d), states, x, clock.check(t), h)

    return System(
        p, states, clock, output, update, DETERMINISTIC, VectorField(f, h)
    )


# ---------------------------------------------------------------------------
# coalgebra round-trip


@dataclass(frozen=True)
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

    def cases():
        for x in states:
            if b.output(1, f(x)) != a.output(1, x):
                yield {"kind": "output", "state": x}, float("inf")
        for k, sigma in enumerate(sections):
            yield from _square_cases(
                closure(a, sigma), closure(b, sigma), f, times, states, section=k
            )

    return _report("system-morphism", cases(), 0.0)
