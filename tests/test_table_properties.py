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

Pairs of systems whose laws repeat bit for bit from different ticks, or
never, check that a verdict does not depend on how its sections are
chunked, and that it is the verdict of the closure walks.

Leaves on three to six states with Dirichlet weights, whose sums depend on
the order of their terms, check that a law-matrix row reads the same bits
alone or beside any rows, and that an exists/exists verdict that reads the
given laws first is the verdict of the read of every candidate.

Composites of the same shapes over leaves on one to three states, whose
initial laws are Dirichlet, uniform, uniform but one ulp, point masses or
on a partial support, check that a composite's own law, formed only where
it is read, reads as the law formed as soon as the composite is built: as
a law, as candidates and rows, and in every verdict.

The examples are derandomized, so every run checks the same systems.
"""

import itertools
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from polydyn import (
    DETERMINISTIC,
    STOCHASTIC,
    Categorical,
    Dirac,
    PolyMap,
    Rng,
    categorical,
    compose_hier,
    det_polymap,
    dirac,
    dist_distance,
    dst,
    finite,
    finite_items,
    hom_sections,
    mk_hier,
    monomial,
    points,
    polymap_key,
    prod,
    pushforward,
    quasi_bisim,
    tabulate,
    tabulated,
    tensor_hier,
    trace,
    uniform,
    unit,
    y,
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

    def emit(xp):
        x, parity = xp
        return PolyMap(source, target, lambda i: forward[(parity, x, i)],
                       lambda i, d: backward[(parity, x, i, d)],
                       STOCHASTIC if mixed else DETERMINISTIC)

    def absorb(xp, i, d):
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
    """Every key is the key of the lens the closure emits, and every row
    that a response reaches is the law the closure absorbs into there."""
    table = tabulate(hs)
    states = list(points(hs.states))
    for s, x in enumerate(states):
        lens = hs.emit(x)
        k = table.key_of[s]
        assert table.keys[k] == polymap_key(lens), x
        resp = [(i, d) for i in points(lens.source.positions)
                for d in points(lens.target.dirs_at(lens.forward(i)))]
        assert len(resp) == len(table.options[k])
        for o, (i, d) in enumerate(resp):
            ids, ws = table.step(s, o)
            want = np.zeros(table.size)
            for z, w in finite_items(hs.absorb(x, i, d)):
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


# ---------------------------------------------------------------------------
# chunks of sections, on pairs of systems whose laws repeat from different
# ticks

MODES = list(itertools.product(("exists", "forall"), repeat=2))
TABLE_DEVIATIONS = hier._table_deviations
SETTLE_HORIZON = 5
SETTLE_SECTIONS = 8  # the verdict's max_sections


def settling(lenses, moves, source, target, n_states: int, period: int, mixed: bool):
    """A leaf on states (x, phase) showing one of two lenses drawn by
    ``lenses``, so that leaves drawn with one ``lenses`` seed share them;
    ``moves`` draws which lens each state shows, and its moves.  With period
    1, x moves to a law over the states below it (0 stays at 0), so its laws
    repeat bit for bit by tick ``n_states``; with period 2, every move flips
    the phase, so from a point mass its laws never repeat."""
    pool_gen, gen = lenses.generator(), moves.generator()
    xs = finite(*range(n_states))
    states = prod(xs, finite(*range(period)))
    ins, outs = list(points(source.positions)), list(points(target.positions))
    pool = []
    for _ in range(2):
        forward, backward = {}, {}
        for i in ins:
            o = forward[i] = outs[int(pool_gen.integers(len(outs)))]
            fibre = source.dirs_at(i)
            for d in points(target.dirs_at(o)):
                atoms = list(points(fibre))
                backward[(i, d)] = (dyadic_dist(pool_gen, fibre) if mixed
                                    else dirac(fibre, atoms[int(pool_gen.integers(len(atoms)))]))
        pool.append(PolyMap(source, target, forward.__getitem__,
                            lambda i, d, _b=backward: _b[(i, d)],
                            STOCHASTIC if mixed else DETERMINISTIC))
    shows = {xp: pool[int(gen.integers(2))] for xp in points(states)}
    moves_to = {}
    for x, phase in points(states):
        below = xs if period > 1 else finite(*range(max(x, 1)))
        moves_to[(x, phase)] = pushforward(lambda z, _p=phase: (z, (_p + 1) % period),
                                           dyadic_dist(gen, below), target=states)
    start = pushforward(lambda x: (x, 0), dyadic_dist(gen, xs), target=states)
    return mk_hier(source, target, states, lambda xp: shows[xp],
                   lambda xp, i, d: moves_to[xp], init=start)


@st.composite
def settling_pairs(draw, depth: int = 2, source=None):
    """Two systems of one shape, a leaf or a composite of two: place by
    place, their leaves share an interface and a pair of lenses, but not
    their states, which lens each state shows, or their moves, so that
    their laws repeat from different ticks, or never."""
    kinds = ["leaf"]
    if depth > 1:
        kinds += ["compose"] + (["tensor"] if source is None else [])
    kind = draw(st.sampled_from(kinds))
    if kind == "leaf":
        if source is None:
            source = draw(st.sampled_from(INTERFACES))
        target = draw(st.sampled_from(INTERFACES))
        lenses, mixed = Rng(draw(st.integers(0, 2**16))), draw(st.booleans())
        # (states, period): falling through 1, 2 or 4 states, or two on a clock of two
        return tuple(
            settling(lenses, Rng(draw(st.integers(0, 2**16))), source, target,
                     *draw(st.sampled_from(((1, 1), (2, 1), (4, 1), (2, 2)))), mixed)
            for _ in range(2)
        )
    if kind == "tensor":
        left, right = draw(settling_pairs(depth - 1)), draw(settling_pairs(depth - 1))
        return tuple(map(tensor_hier, left, right))
    first = draw(settling_pairs(depth - 1, source))
    return tuple(map(compose_hier, first, draw(settling_pairs(depth - 1, first[0].target))))


def walked_deviations(theta, psi, sections, horizon, max_sections):
    """``hier._table_deviations`` read from traces that walk the closures
    (with ``hier.trace`` set to ``hier._closure_trace``), every tick of every
    section."""
    choices, _ = TABLE_DEVIATIONS(theta, psi, sections, horizon, max_sections)
    if sections is None:
        sections = hom_sections([theta, psi], max_sections)
    return choices, lambda cand_a, cand_b: hier._traced_deviations(
        theta, psi, sections, cand_a, cand_b, horizon)


@GENERATED
@given(pair=settling_pairs(), modes=st.sampled_from(MODES), tol=st.sampled_from((0.0, 0.25)))
def test_generated_verdicts_do_not_depend_on_the_chunks(pair, modes, tol):
    """All sections in one chunk, or one section per chunk (a budget of one
    element), give the same verdict, witness and all, bit for bit, and it is
    the verdict of the closure walks: a chunk stops reading only once every
    one of its sections repeats its laws, and a side that has stopped
    repeats its last reading while the other goes on."""
    def verdict():
        return quasi_bisim(*pair, *modes, horizon=SETTLE_HORIZON, tol=tol,
                           max_sections=SETTLE_SECTIONS)

    chunked = verdict()
    with pytest.MonkeyPatch.context() as m:
        m.setattr(hier, "_BUDGET", 1)
        alone = verdict()
    with pytest.MonkeyPatch.context() as m:
        m.setattr(hier, "_table_deviations", walked_deviations)
        m.setattr(hier, "trace", hier._closure_trace)
        walked = verdict()
    assert repr(chunked) == repr(alone) == repr(walked)


# ---------------------------------------------------------------------------
# rows moved alone or beside others, on weights whose sums depend on their
# order

DIRICHLET_HORIZON = 5


def dirichlet_leaf(rng, n_states: int):
    """A leaf y -> By^T on ``n_states`` states that shows one of two labels
    by state and moves, per state and direction, to a Dirichlet law on a
    drawn support of one to all states; its initial law is drawn alike.  No
    weight is dyadic, so a bin's sum depends on the order of its terms."""
    gen = rng.generator()
    xs = finite(*range(n_states))
    target = monomial(finite("p", "q"), finite("u", "v"))

    def partial():
        k = int(gen.integers(1, n_states + 1))
        support = sorted(gen.choice(n_states, size=k, replace=False).tolist())
        return categorical(xs, list(zip(support, gen.dirichlet([1.0] * k).tolist())))

    labels = {x: "pq"[int(gen.integers(2))] for x in points(xs)}
    moves = {(x, d): partial() for x in points(xs) for d in ("u", "v")}
    init = partial()
    return mk_hier(y(), target, xs,
                   lambda x: det_polymap(y(), target, lambda i: labels[x], lambda i, d: ()),
                   lambda x, i, d: moves[(x, d)], init=init)


def key_law_ticks(table, to_union, n_keys: int, choices, laws) -> list:
    """``hier._key_laws`` at every tick 0..DIRICHLET_HORIZON, the last one
    read repeated, as every later tick repeats it."""
    got = [kl.copy() for kl, _ in hier._key_laws(table, to_union, n_keys, choices, laws,
                                                  DIRICHLET_HORIZON)]
    return got + got[-1:] * (DIRICHLET_HORIZON + 1 - len(got))


@GENERATED
@given(seed=st.integers(0, 2**16), n_states=st.integers(3, 6),
       picks=st.lists(st.integers(0, 2**8), min_size=1, max_size=6))
# the initial law (row 0) of this leaf read one ulp apart at ticks 2 and 4,
# under section 0, beside the other candidates and alone, when a law summed
# its rows in order of the first state of its section's block
@example(seed=267, n_states=4, picks=[0])
def test_a_row_reads_the_same_bits_alone_or_beside_any_rows(seed, n_states, picks):
    """Every candidate's key laws, at every tick under every section, are
    the same bits moved alone, beside every other candidate, and beside
    drawn candidates in a drawn order, repeats included."""
    hs = dirichlet_leaf(Rng(seed), n_states)
    table = tabulate(hs)
    keys, options, (to_union,) = hier._union([table])
    choices = np.array(hier._section_choices(options, 512), dtype=np.intp)
    laws = hier._initial_laws(hs, None, "exists").rows(table)
    c, n_sec = len(laws), len(choices)
    drawn = [p % c for p in picks]

    def read(rows: list) -> list:  # per row of ``rows``: its key laws per (tick, section)
        ticks = key_law_ticks(table, to_union, len(keys), choices, laws[rows])
        return [[[kl[s * len(rows) + j].tobytes() for s in range(n_sec)] for kl in ticks]
                for j in range(len(rows))]

    alone = [read([r])[0] for r in range(c)]
    assert read(list(range(c))) == alone
    assert read(drawn) == [alone[r] for r in drawn]


@GENERATED
@given(seeds=st.tuples(st.integers(0, 2**16), st.integers(0, 2**16)),
       n_states=st.integers(3, 5), same=st.booleans(),
       provided=st.lists(st.integers(0, 2**8), max_size=2),
       tol=st.sampled_from((0.0, 1e-9, 0.25)))
def test_a_given_first_verdict_is_the_verdict_of_every_candidate(
        seeds, n_states, same, provided, tol):
    """An exists/exists verdict read given laws first is the verdict of
    the read of every candidate at once, witness and deviation bits
    included: between a leaf and itself, or another leaf, with provided
    side-a laws drawn from the point masses and side b's initial law."""
    theta = dirichlet_leaf(Rng(seeds[0]), n_states)
    psi = dirichlet_leaf(Rng(seeds[0] if same else seeds[1]), n_states)
    pool = [*(dirac(theta.states, x) for x in points(theta.states)), psi.init]
    alphas = [pool[p % len(pool)] for p in provided] or None

    def verdict():
        return quasi_bisim(theta, psi, horizon=4, tol=tol, alphas=alphas)

    staged = verdict()
    with pytest.MonkeyPatch.context() as m:
        m.setattr(hier, "_given_first", lambda *args: None)
        full = verdict()
    assert repr(staged) == repr(full)


# ---------------------------------------------------------------------------
# a composite's own initial law, formed only where it is read

INIT_KINDS = ("dirichlet", "uniform", "uniform-ulp", "point", "partial")
# every leaf's law uniform, in one run of each test, so that products of
# uniform laws are drawn
KIND_SETS = pytest.mark.parametrize("kinds", (INIT_KINDS, ("uniform",)), ids=("any", "uniform"))


def drawn_init(gen, states, kind: str):
    """A law on ``states`` of the named kind: Dirichlet weights on every
    state, the uniform law, the uniform weights with one of them one ulp
    up, a point mass, or Dirichlet weights on a drawn support."""
    atoms = list(points(states))
    n = len(atoms)
    if kind == "uniform":
        return uniform(states)
    if kind == "point":
        return dirac(states, atoms[int(gen.integers(n))])
    if kind == "uniform-ulp":
        weights = [1.0 / n] * n
        weights[int(gen.integers(n))] = float(np.nextafter(1.0 / n, 2.0))
        return categorical(states, list(zip(atoms, weights)))
    assert kind in ("dirichlet", "partial"), kind
    support = atoms
    if kind == "partial":
        picked = gen.choice(n, size=int(gen.integers(1, n + 1)), replace=False)
        support = [atoms[i] for i in sorted(picked.tolist())]
    return categorical(states, list(zip(support, gen.dirichlet([1.0] * len(support)).tolist())))


@st.composite
def init_leaves(draw, source=None, init_kinds=INIT_KINDS):
    """A leaf as ``leaves`` draws it, on one to three states, in two
    copies, one per side, each with its own initial law of a drawn kind."""
    if source is None:
        source = draw(st.sampled_from(INTERFACES))
    target = draw(st.sampled_from(INTERFACES))
    rng = Rng(draw(st.integers(0, 2**16)))
    shape = draw(st.sampled_from(((1, 1), (2, 1), (1, 2), (3, 1))))
    base = leaf(rng, source, target, *shape, draw(st.booleans()))
    gen = rng.child(1).generator()
    return [replace(base, init=drawn_init(gen, base.states, draw(st.sampled_from(init_kinds))))
            for _ in range(2)]


@st.composite
def composites(draw, depth: int = 3, source=None, init_kinds=INIT_KINDS):
    """The shapes ``systems`` draws, over ``init_leaves``, as a function
    ``make(side, eager)`` that builds a fresh system from the same leaves,
    with side 0's or side 1's initial laws.  When ``eager``, each
    composite's own law is formed as soon as the composite is built: the
    reference."""
    kinds = ["leaf"]
    if depth > 1:
        kinds += ["compose", "compose-leaf-first"] + (["tensor"] if source is None else [])
    kind = draw(st.sampled_from(kinds))
    if kind == "leaf":
        sides = draw(init_leaves(source, init_kinds))
        return lambda side, eager: sides[side]
    combine = compose_hier
    if kind == "tensor":
        combine, parts = tensor_hier, [draw(composites(depth - 1, None, init_kinds)),
                                       draw(composites(1, None, init_kinds))]
        if draw(st.booleans()):
            parts.reverse()
    elif kind == "compose":
        first = draw(composites(depth - 1, source, init_kinds))
        parts = [first, draw(composites(1, first(0, False).target, init_kinds))]
    else:
        first = draw(composites(1, source, init_kinds))
        parts = [first, draw(composites(depth - 1, first(0, False).target, init_kinds))]

    def make(side: int, eager: bool):
        hs = combine(*(part(side, eager) for part in parts))
        if eager:
            assert hs.init is hs.init
        return hs

    return make


def nodes(hs) -> list:
    """``hs`` and every system it is built from, depth first."""
    return [hs, *(x for factor in (hs.factors or ())[1:] for x in nodes(factor))]


@KIND_SETS
@GENERATED
@given(data=st.data())
def test_a_composites_init_is_dst_of_its_factors_formed_once(kinds, data):
    """A composite's own law is formed as it is built only when it is a
    product of point masses, and building on a composite does not form
    its law.  Read, the law equals ``dst`` of its factors' laws and the law
    formed as soon as it was built, ``repr`` included, and every read
    returns the same object."""
    make = data.draw(composites(init_kinds=kinds))
    hs, ref = make(0, False), make(0, True)
    pairs = list(zip(nodes(hs), nodes(ref)))
    for x, r in pairs:
        if x.factors is not None:
            assert ("init" in vars(x)) == (type(r.init) is Dirac)
    law = hs.init
    assert law is hs.init
    assert law == ref.init and repr(law) == repr(ref.init)
    for x, r in pairs:
        if x.factors is not None:
            product = dst(x.factors[1].init, x.factors[2].init)
            assert x.init == product and repr(x.init) == repr(product)
            assert x.init is x.init


@KIND_SETS
@GENERATED
@given(data=st.data(), provided=st.booleans())
def test_a_composites_candidates_are_those_of_its_formed_init(kinds, data, provided):
    """``_initial_laws`` gives the same given laws, point-mass ids, uniform
    flag and rows as for the system whose own law was formed as it was
    built.  It forms an unformed law only to compare it: with a provided
    law, or with the uniform law when the product's weights are its."""
    make = data.draw(composites(init_kinds=kinds))
    hs, ref = make(0, False), make(0, True)
    alphas = [dirac(ref.states, next(iter(points(ref.states))))] if provided else None
    unformed = "init" not in vars(hs)
    laws = hier._initial_laws(hs, alphas, "exists")
    want = hier._initial_laws(ref, alphas, "exists")
    n = len(list(points(ref.states)))
    uniform_weights = (type(ref.init) is Categorical and len(ref.init.items) == n
                       and all(w == 1.0 / n for _, w in ref.init.items))
    if unformed:
        assert ("init" in vars(hs)) == (provided or uniform_weights)
    assert (list(laws.ids), laws.spread) == (list(want.ids), want.spread)
    assert laws.rows(tabulate(hs)).tobytes() == want.rows(tabulate(ref)).tobytes()
    assert list(laws) == list(want)
    assert [repr(d) for d in laws] == [repr(d) for d in want]


@KIND_SETS
@GENERATED
@given(data=st.data(), modes=st.sampled_from(MODES))
def test_a_composites_verdicts_are_those_of_its_formed_init(kinds, data, modes):
    """Between the system with side 0's and with side 1's initial laws, the
    verdict ``repr`` is that of the systems whose own laws were formed as
    they were built."""
    make = data.draw(composites(init_kinds=kinds))

    def verdict(eager: bool):
        return repr(quasi_bisim(make(0, eager), make(1, eager), *modes, horizon=HORIZON,
                                max_sections=SECTIONS))

    assert verdict(False) == verdict(True)


@st.composite
def code_arrays(draw):
    """Code arrays as the tables sort them: none, one, all equal, holding -1
    (a state its block does not reach), a G x A grid of next-state row ids,
    or a few thousand codes, the pair count of a 3x3 Bayes verdict."""
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(("none", "one", "equal", "unreached", "grid", "thousands")))
    if kind == "none":
        return np.empty(0, dtype=np.intp)
    if kind == "one":
        return gen.integers(-1, 9, size=1)
    if kind == "equal":
        return np.full(draw(st.integers(2, 40)), draw(st.integers(-1, 9)), dtype=np.intp)
    if kind == "unreached":
        return gen.integers(-1, draw(st.integers(0, 6)), size=draw(st.integers(2, 40)))
    if kind == "grid":
        shape = (draw(st.integers(1, 4)), draw(st.integers(1, 30)))
        return gen.integers(-1, draw(st.integers(0, 12)), size=shape)
    return gen.integers(-1, draw(st.integers(1, 3000)), size=draw(st.integers(2000, 4000)),
                        dtype=np.int64)


@GENERATED
@given(codes=code_arrays())
def test_the_code_sort_is_np_unique(codes):
    """``hier._unique`` gives ``np.unique``'s sorted values and flat inverse,
    as the same dtypes."""
    values, inverse = np.unique(codes, return_inverse=True)
    got = hier._unique(codes)
    assert got[0].dtype == values.dtype and got[1].dtype == np.intp
    assert np.array_equal(got[0], values) and np.array_equal(got[1], inverse.ravel())
