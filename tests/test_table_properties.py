"""Generated finite hierarchical systems: their tables against the closures.

Hypothesis draws small leaves -- one or two states, one state on a clock
of period two ticks carried in the state, weights k/8, interfaces with unit
and labelled fibres, every leaf with an initial law -- and combines them with ``compose_hier`` and
``tensor_hier`` up to depth 3, with compose middles whose backward laws are
point masses or mixtures.  The closure walk is the specification: at
tolerance zero, every key and reached row of a table is the closure's, and
every trace, from the system's own initial law and from each candidate
initial law, is ``hier._closure_trace``.  State spaces have power-of-two
sizes and weights are dyadic, so every sum either side performs is exact.

The examples are derandomized, so every run checks the same systems.
"""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from polydyn import (
    DETERMINISTIC,
    STOCHASTIC,
    PolyMap,
    Rng,
    compose_hier,
    dirac,
    dist_distance,
    finite,
    finite_items,
    hom_sections,
    mk_hier,
    monomial,
    points,
    polymap_key,
    prod,
    pushforward,
    tabulate,
    tabulated,
    tensor_hier,
    trace,
    unit,
)
from polydyn import hier

from helpers import dyadic_dist

HORIZON = 2
SECTIONS = 2  # sections drawn per system, from the seeded family

GENERATED = settings(
    derandomize=True,
    database=None,
    max_examples=60,
    deadline=None,
    # a depth-3 system is a few dozen draws; generating one is not slow,
    # but checking it is, and neither draw nor check may warn
    suppress_health_check=[HealthCheck.too_slow],
)

INTERFACES = [
    monomial(unit(), unit()),
    monomial(finite(0, 1), unit()),
    monomial(unit(), finite("u", "v")),
    monomial(finite(0, 1), finite("u", "v")),
    tabulated(finite("p", "q"), {"p": unit(), "q": finite("u", "v")}),
]


def leaf(rng, source, target, n_states: int, period: int, mixed: bool):
    """A leaf on states (x, phase) whose lens is read from tables drawn by
    ``rng``, and whose every move advances the phase, so that its lens has a
    period of ``period`` ticks.  Its backward laws mix directions when
    ``mixed``, and are point masses otherwise."""
    gen = rng.generator()
    xs = finite(*range(n_states))
    states = prod(xs, finite(*range(period)))
    ins, outs = list(points(source.positions)), list(points(target.positions))
    forward, backward, moves = {}, {}, {}
    for parity in range(period):
        for x in points(xs):
            for i in ins:
                o = forward[(parity, x, i)] = outs[int(gen.integers(len(outs)))]
                fibre = source.dirs_at(i)
                for d in points(target.dirs_at(o)):
                    if mixed:
                        backward[(parity, x, i, d)] = dyadic_dist(gen, fibre)
                    else:
                        atoms = list(points(fibre))
                        backward[(parity, x, i, d)] = dirac(
                            fibre, atoms[int(gen.integers(len(atoms)))])
                    moves[(parity, x, i, d)] = pushforward(
                        lambda z, _p=parity: (z, (_p + 1) % period), dyadic_dist(gen, xs),
                        target=states)

    def emit(t, xp):
        x, parity = xp
        return PolyMap(source, target, lambda i: forward[(parity, x, i)],
                       lambda i, d: backward[(parity, x, i, d)],
                       STOCHASTIC if mixed else DETERMINISTIC)

    def absorb(t, xp, i, d):
        x, parity = xp
        return moves[(parity, x, i, d)]

    start = pushforward(lambda x: (x, 0), dyadic_dist(gen, xs), target=states)
    return mk_hier(source, target, states, emit, absorb, init=start)


@st.composite
def leaves(draw, source=None):
    if source is None:
        source = draw(st.sampled_from(INTERFACES))
    target = draw(st.sampled_from(INTERFACES))
    # (states, period): one or two states, the one state on a clock of two
    return leaf(Rng(draw(st.integers(0, 2**16))), source, target,
                *draw(st.sampled_from(((1, 1), (2, 1), (1, 2)))), draw(st.booleans()))


@st.composite
def systems(draw, depth: int = 3, source=None):
    """A leaf (depth 1), or a composite of a system of depth - 1 and a leaf,
    either way round: at most ``depth`` leaves, so at most 8 states.  A
    system drawn for a given ``source`` is a leaf or a compose composite."""
    kinds = ["leaf"]
    if depth > 1:
        kinds += ["compose", "compose-leaf-first"] + (["tensor"] if source is None else [])
    kind = draw(st.sampled_from(kinds))
    if kind == "leaf":
        return draw(leaves(source))
    if kind == "tensor":
        parts = [draw(systems(depth - 1)), draw(leaves())]
        if draw(st.booleans()):
            parts.reverse()
        return tensor_hier(*parts)
    if kind == "compose":
        first = draw(systems(depth - 1, source))
        return compose_hier(first, draw(leaves(first.target)))
    first = draw(leaves(source))
    return compose_hier(first, draw(systems(depth - 1, first.target)))


def sections_of(hs) -> list:
    return hom_sections([hs], max_sections=SECTIONS)


@GENERATED
@given(hs=systems())
def test_generated_table_keys_and_rows_equal_the_closures(hs):
    """Every key is the key of the lens the closure emits at tick 1, and
    every row that a response reaches is the law the closure absorbs into
    there."""
    table = tabulate(hs)
    states = list(points(hs.states))
    for s, x in enumerate(states):
        lens = hs.emit(1, x)
        k = table.key_of[s]
        assert table.keys[k] == polymap_key(lens), x
        resp = [(i, d) for i in points(lens.source.positions)
                for d in points(lens.target.dirs_at(lens.forward(i)))]
        assert len(resp) == len(table.options[k])
        for o, (i, d) in enumerate(resp):
            ids, ws = table.step(s, o)
            want = np.zeros(table.size)
            for z, w in finite_items(hs.absorb(1, x, i, d)):
                want[states.index(z)] = w
            got = np.zeros(table.size)
            got[ids] = ws
            assert np.array_equal(got, want), (x, o)


@GENERATED
@given(hs=systems())
def test_generated_traces_equal_the_closure_traces(hs):
    """From the system's own initial law (for a composite, read from its
    factors' law vectors) and from every other candidate initial law."""
    inits = [hs.init, *hier._candidates(hs, None, "forall")]
    for sigma in sections_of(hs):
        for init in inits:
            got = trace(hs, sigma, init, HORIZON).values
            want = hier._closure_trace(hs, sigma, init, HORIZON).values
            for t, (g, w) in enumerate(zip(got, want)):
                assert dist_distance(g, w) == 0.0, (init, t, g, w)
