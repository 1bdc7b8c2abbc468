"""The tables of finite hierarchical systems against the closures they
replace.

``trace`` and ``quasi_bisim`` run on ``tabulate``'s index arrays and sparse
rows; ``hier._closure_trace`` walks the emit and absorb closures, which are
the specification.  On seeded corpora with weights k/8 -- and state spaces
whose sizes are powers of two, so the uniform law is dyadic too -- every sum
either side performs is exact, so the two must agree at tolerance zero for
every candidate initial law and every section.

Flat systems are traced and compared as hierarchical systems y -> p
(``as_hier``).  Their reference is the bind walk of the section-closed
system, ``flat_reference_trace``, which is checked the same way.
"""

import hashlib
import itertools
from dataclasses import replace

import numpy as np
import pytest

from polydyn import (
    DETERMINISTIC,
    STOCHASTIC,
    HierError,
    HomSection,
    PolyMap,
    Rng,
    all_sections,
    as_hier,
    bayes_check,
    bind,
    cardinality,
    categorical,
    compose_hier,
    copy_system,
    det_polymap,
    dirac,
    discard_system,
    dist_distance,
    euclid,
    exact_bayes,
    finite,
    finite_items,
    hier_from_tables,
    hom_sections,
    id_hier,
    linear,
    mk_hier,
    mk_system,
    monomial,
    points,
    polymap_key,
    prior_system,
    prod,
    pushforward,
    quasi_bisim,
    stochastic_channel_system,
    swap_system,
    tabulate,
    tabulated,
    tensor,
    tensor_hier,
    time_nat,
    trace,
    trivial_section,
    uniform,
    unit,
    y,
)
from polydyn import hier

from helpers import calls_of, dyadic_channel_prior, dyadic_dist, random_finite_system

HORIZON = 3
MODES = list(itertools.product(("exists", "forall"), repeat=2))


def bayes_joints(rng):
    """The two joint processes of the dynamical Bayes check, 2x2, with a
    dyadic (so generally inexact) candidate inversion."""
    X, Y, pi, rows, back = dyadic_channel_prior(rng)
    c = stochastic_channel_system(rows.__getitem__, X, Y)
    p = prior_system(pi)
    cdag = stochastic_channel_system(back.__getitem__, Y, X)
    lhs = compose_hier(compose_hier(p, copy_system(X)), tensor_hier(id_hier(linear(X)), c))
    rhs = compose_hier(
        compose_hier(compose_hier(p, c), copy_system(Y)),
        tensor_hier(cdag, id_hier(linear(Y))),
    )
    return lhs, rhs


def comonoid_sides():
    A = finite(0, 1, 2)
    cp = copy_system(A)
    idA = id_hier(linear(A))
    return [
        (compose_hier(cp, tensor_hier(discard_system(A), idA)), idA),
        (compose_hier(cp, tensor_hier(cp, idA)), compose_hier(cp, tensor_hier(idA, cp))),
        (compose_hier(cp, swap_system(A, A)), cp),
    ]


def ticking(rng, n: int = 4):
    """n states on a clock of period 4, carried in the state (x, c): the
    emitted label depends on x and the clock c, and every move advances c.
    The initial law starts the clock at 0."""
    gen = rng.generator()
    xs, clock = finite(*range(n)), finite(0, 1, 2, 3)
    states = prod(xs, clock)
    B = finite("a", "b")
    moves = {x: dyadic_dist(gen, xs) for x in points(xs)}
    moves = {(x, c): pushforward(lambda z, _c=c: (z, (_c + 1) % 4), moves[x], target=states)
             for x, c in points(states)}

    def emit(xc):
        label = "a" if sum(xc) % 3 == 0 else "b"
        return det_polymap(y(), linear(B), lambda i: label, lambda i, d: ())

    start = pushforward(lambda x: (x, 0), dyadic_dist(gen, xs), target=states)
    return mk_hier(y(), linear(B), states, emit, lambda xc, i, d: moves[xc], init=start)


def routed(rng, spread: bool = True):
    """beta ; gamma where gamma's backward map is stochastic, so beta absorbs
    a mixture over the middle directions it cannot see.  With ``spread``
    the lenses depend on the states; without it each side emits one lens."""
    gen = rng.generator()
    B, S = finite(0, 1), finite("s0", "s1")
    C, T = finite("c0", "c1"), finite("u0", "u1")
    xs, zs = finite(0, 1, 2, 3), finite(0, 1)
    b_moves = {(x, s): dyadic_dist(gen, xs) for x in points(xs) for s in points(S)}
    backs = {(z, b, u): dyadic_dist(gen, S) for z in points(zs) for b in points(B) for u in points(T)}
    g_moves = {(z, b, u): dyadic_dist(gen, zs) for z in points(zs) for b in points(B) for u in points(T)}

    def b_emit(x):
        return PolyMap(y(), monomial(B, S), lambda i: x % 2 if spread else 0,
                       lambda i, s: dirac(unit(), ()), DETERMINISTIC)

    def g_emit(z):
        w = z if spread else 0
        return PolyMap(monomial(B, S), monomial(C, T), lambda b: f"c{(b + w) % 2}",
                       lambda b, u: backs[(w, b, u)], STOCHASTIC)

    beta = mk_hier(y(), monomial(B, S), xs, b_emit, lambda x, i, s: b_moves[(x, s)])
    gamma = mk_hier(monomial(B, S), monomial(C, T), zs, g_emit,
                    lambda z, b, u: g_moves[(z, b, u)], init=dyadic_dist(gen, zs))
    return compose_hier(beta, gamma)


def from_tables(rng, n: int = 2, spread: bool = True):
    """A monomial system on n states given by its three component tables;
    without ``spread`` every state emits the same lens."""
    gen = rng.generator()
    A, S, B, T = finite(0, 1), finite("s0", "s1"), finite("go", "stay"), finite("t0", "t1")
    states = finite(*range(n))
    moves = {(x, a, tp): dyadic_dist(gen, states)
             for x in points(states) for a in points(A) for tp in points(T)}
    return hier_from_tables(
        A, S, B, T, states,
        o1=lambda x, a: "go" if (spread * x + a) % 2 else "stay",
        o2=lambda x, a, tp: "s0" if (spread * x + (tp == "t1")) % 2 else "s1",
        u=lambda x, a, tp: moves[(x, a, tp)],
    )


def corpus():
    """(name, theta, psi, provided initial laws of theta) over the seeds."""
    cases = []
    for k in range(2):
        lhs, rhs = bayes_joints(Rng(77).child(k))
        cases.append((f"bayes-{k}", lhs, rhs, None))
    for k, (lhs, rhs) in enumerate(comonoid_sides()):
        cases.append((f"comonoid-{k}", lhs, rhs, None))
    for k in range(2):
        rng = Rng(78).child(k)
        tick = ticking(rng.child(0))
        b = finite("a", "b")
        cases.append((f"ticking-{k}", compose_hier(tick, copy_system(b)),
                      compose_hier(ticking(rng.child(1)), copy_system(b)), None))
        mixed = routed(rng.child(2))
        provided = [dyadic_dist(rng.child(3).generator(), mixed.states)]
        cases.append((f"routed-{k}", mixed, routed(rng.child(4)), provided))
        cases.append((f"from-tables-{k}", from_tables(rng.child(5)),
                      from_tables(rng.child(6)), None))
    # both factors have several states and offer several responses
    both = tensor_hier(routed(Rng(79), spread=False), from_tables(Rng(80), spread=False))
    cases.append(("tensor", both, both, None))
    for k, stochastic in enumerate((True, False)):
        rng = Rng(94).child(k)
        flat = random_finite_system(rng.child(0), stochastic, n_states=4)
        other = random_finite_system(rng.child(1), stochastic, n_states=2,
                                     interface=flat.interface)
        cases.append((f"flat-{k}", as_hier(flat), as_hier(other), None))
        cases.append((f"flat-self-{k}", as_hier(flat), as_hier(flat), None))
    return cases


CASES = corpus()


@pytest.mark.parametrize("name,theta,psi,provided", CASES, ids=[c[0] for c in CASES])
def test_table_traces_equal_closure_traces(name, theta, psi, provided):
    sections = hom_sections([theta, psi])
    sides = [(theta, provided)] + ([(psi, None)] if psi is not theta else [])
    for sys_, given in sides:
        for init in hier._candidates(sys_, given, "forall"):
            for k, sigma in enumerate(sections):
                got = trace(sys_, sigma, init, HORIZON).values
                want = hier._closure_trace(sys_, sigma, init, HORIZON).values
                for t, (g, w) in enumerate(zip(got, want)):
                    assert dist_distance(g, w) == 0.0, (name, init, k, t, g, w)


@pytest.mark.parametrize("name,theta,psi,provided", CASES, ids=[c[0] for c in CASES])
def test_table_keys_and_rows_equal_the_closures(name, theta, psi, provided):
    """Every composite key is the key of the lens the closure emits, and
    every reached row is the law the closure absorbs into there."""
    for sys_ in (theta, psi):
        table = tabulate(sys_)
        states = list(points(sys_.states))
        for s, x in enumerate(states):
            k = table.key_of[s]
            assert table.keys[k] == polymap_key(sys_.emit(x))
        for s, x in enumerate(states[:8]):
            k = table.key_of[s]
            lens = sys_.emit(x)
            resp = [(i, d) for i in points(lens.source.positions)
                    for d in points(lens.target.dirs_at(lens.forward(i)))]
            for o, (i, d) in enumerate(resp):
                ids, ws = table.step(s, o)
                want = np.zeros(table.size)
                for z, w in finite_items(sys_.absorb(x, i, d)):
                    want[states.index(z)] = w
                got = np.zeros(table.size)
                got[ids] = ws
                assert np.array_equal(got, want), (name, x, o)
            assert len(resp) == len(table.options[k])


def test_hom_sections_offer_the_closure_keys_in_first_seen_order():
    for name, theta, psi, _ in CASES:
        seen = {}
        for sys_ in (theta, psi):
            for x in points(sys_.states):
                seen.setdefault(polymap_key(sys_.emit(x)), None)
        sections = hom_sections([theta, psi])
        assert [key for key, _ in sections[0].table] == list(seen), name


def closure_verdict(theta, psi, alpha_mode, beta_mode, horizon, tol, alphas, traces,
                    betas=None, sections=None):
    """quasi_bisim's verdict, with every trace walked on the closures, under
    the given sections or else every section; ``traces`` keeps the walks for
    the next call on the same systems and candidates."""
    if sections is None:
        sections = hom_sections([theta, psi])
    cand_a = hier._candidates(theta, alphas, alpha_mode)
    cand_b = hier._candidates(psi, betas, beta_mode)

    def values(side, sys_, cands, c, si):
        key = (side, c, si)
        if key not in traces:
            traces[key] = hier._closure_trace(sys_, sections[si], cands[c], horizon).values
        return traces[key]

    def match(a, b):
        for si in range(len(sections)):
            va, vb = values("a", theta, cand_a, a, si), values("b", psi, cand_b, b, si)
            for t in range(horizon + 1):
                dev = dist_distance(va[t], vb[t])
                if dev > tol:
                    return {"section": si, "t": t, "deviation": dev}
        return None

    def beta_side(a):
        first = None
        for b in range(len(cand_b)):
            mis = match(a, b)
            if beta_mode == "exists" and mis is None:
                return True, {"alpha": a, "beta": b}
            if beta_mode == "forall" and mis is not None:
                return False, {"alpha": a, "beta": b, **mis}
            if first is None and mis is not None:
                first = {"alpha": a, "beta": b, **mis}
        return (False, first) if beta_mode == "exists" else (True, None)

    first_fail = first_ok = None
    for a in range(len(cand_a)):
        ok, info = beta_side(a)
        if alpha_mode == "exists" and ok or alpha_mode == "forall" and not ok:
            return ok, info
        if not ok and first_fail is None:
            first_fail = info
        if ok and first_ok is None:
            first_ok = info
    return (False, first_fail) if alpha_mode == "exists" else (True, first_ok)


@pytest.mark.parametrize("name,theta,psi,provided", CASES, ids=[c[0] for c in CASES])
def test_quasi_bisim_verdicts_equal_closure_verdicts(name, theta, psi, provided):
    traces: dict = {}  # candidate lists do not depend on the mode
    for modes in MODES:
        for tol in (0.0, 0.1):
            got = quasi_bisim(theta, psi, *modes, horizon=HORIZON, tol=tol, alphas=provided)
            related, witness = closure_verdict(
                theta, psi, *modes, HORIZON, tol, provided, traces
            )
            assert (got["related"], got["witness"]) == (related, witness), (name, modes, tol)


def drifting(shift, steps_on=("go",)):
    """A machine on the real line that shows the parity of its position
    (shifted) and steps forward on the directions ``steps_on``: it has no
    table."""
    states = euclid(1)
    B, T = finite("even", "odd"), finite("stay", "go")
    target = monomial(B, T)

    def emit(x):
        label = "even" if int(x[0] + shift) % 2 == 0 else "odd"
        return det_polymap(y(), target, lambda i: label, lambda i, d: ())

    return mk_hier(y(), target, states, emit,
                   lambda x, i, d: dirac(states, (x[0] + (d in steps_on),)))


def test_traced_verdicts_equal_closure_verdicts():
    """Systems whose states are not finite are compared trace by trace
    under explicit sections; the verdict is the closure reference's in every
    mode, for provided initial laws (one a mixture) on both sides."""
    states = euclid(1)
    at = [dirac(states, (v,)) for v in (0.0, 1.0)]
    alphas = [at[1], categorical(states, {(0.0,): 0.25, (1.0,): 0.75}), at[0]]
    betas = [at[1], categorical(states, {(0.0,): 0.5, (1.0,): 0.5}), at[0]]
    # the sections of a finite machine that emits the same two lenses
    shows = finite(0, 1)
    target = drifting(0).target
    parity = mk_hier(y(), target, shows,
                     lambda x: det_polymap(y(), target, lambda i: ("even", "odd")[x],
                                              lambda i, d: ()),
                     lambda x, i, d: dirac(shows, x))
    sections = hom_sections([parity])
    assert len(sections) == 4
    named = set()
    pairs = [(drifting(0), drifting(2)), (drifting(0), drifting(1)),
             (drifting(0), drifting(0, steps_on=()))]
    for theta, psi in pairs:
        traces: dict = {}
        for modes in MODES:
            for tol in (0.0, 0.5):
                got = quasi_bisim(theta, psi, *modes, sections=sections, horizon=HORIZON,
                                  tol=tol, alphas=alphas, betas=betas)
                related, witness = closure_verdict(
                    theta, psi, *modes, HORIZON, tol, alphas, traces,
                    betas=betas, sections=sections,
                )
                assert (got["related"], got["witness"]) == (related, witness), (modes, tol)
                assert got["sections"] == len(sections)
                if witness is not None:
                    named.update(k for k, v in witness.items() if k != "deviation" and v > 0)
    assert named == {"alpha", "beta", "section", "t"}


def flat_reference_trace(sys_, sigma, init, horizon: int) -> list:
    """The law of a flat system's output under the section-closed evolution,
    by one ``bind`` per tick: what ``trace`` of a flat system must equal."""
    values, law = [], init
    for t in range(horizon + 1):
        values.append(pushforward(lambda s, _t=t: sys_.output(_t, s), law,
                                  target=sys_.interface.positions))
        if t < horizon:
            law = bind(law, lambda s: sys_.update(1, s, sigma.assign(sys_.output(1, s))))
    return values


@pytest.mark.parametrize("n_states", (2, 4, 8))
@pytest.mark.parametrize("stochastic", (True, False))
def test_flat_traces_equal_the_bind_walk(n_states, stochastic):
    for k in (0, 2, 5):
        sys_ = random_finite_system(Rng(82).child(k), stochastic, n_states=n_states)
        for init in hier._candidates(as_hier(sys_), None, "forall"):
            for sigma in all_sections(sys_.interface):
                got = trace(sys_, sigma, init, HORIZON).values
                want = flat_reference_trace(sys_, sigma, init, HORIZON)
                for t, (g, w) in enumerate(zip(got, want)):
                    assert g.space == w.space, (n_states, k, t)
                    assert dist_distance(g, w) == 0.0, (n_states, k, init, t, g, w)


def test_equal_laws_built_apart_mix_as_one_law():
    """A kernel that builds an equal law again on each call moves mass as one
    law, as the tables do with equal rows.  Mixed, 0.1 * 0.3 + 0.9 * 0.3
    reads 0.30000000000000004, so the last bit of a trace would depend on
    whether a law is built once or on every call: for a flat Markov system,
    and for a composite whose stochastic middle law (0.1/0.9) splits over two
    equal left laws."""
    X, M = finite(0, 1, 2), finite("m0", "m1")
    B = monomial(X, M)

    def law(*_):
        return categorical(X, {0: 0.3, 1: 0.7})  # a new object on each call

    markov = mk_system(linear(X), X, lambda t, x: x, law, time_nat(), STOCHASTIC)
    init = categorical(X, {0: 0.1, 2: 0.9})
    assert trace(markov, trivial_section(linear(X)), init, 1).values[1] == law()
    assert bind(init, law) == law()
    beta = mk_hier(y(), B, X, lambda x: det_polymap(y(), B, lambda i: x, lambda i, m: ()),
                   law, init=dirac(X, 2))
    split = categorical(M, {"m0": 0.1, "m1": 0.9})
    lens = PolyMap(B, linear(X), lambda b: b, lambda b, u: split, STOCHASTIC)
    gamma = mk_hier(B, linear(X), unit(), lambda z: lens,
                    lambda z, b, u: dirac(unit(), ()), init=dirac(unit(), ()))
    composite = compose_hier(beta, gamma)
    for hs, start in ((as_hier(markov), init), (composite, composite.init)):
        sigma = hom_sections([hs])[0]
        want = hier._closure_trace(hs, sigma, start, 2).values
        assert trace(hs, sigma, start, 2).values == want
        assert sorted(w for _, w in finite_items(want[1])) == [0.3, 0.7]


def assembled(hs, table) -> bool:
    """Whether every composite of a system's factor tree has a pair table,
    built from its factors' tables, and every leaf a walked table."""
    if hs.factors is None:
        return type(table) is hier._LeafTable
    _, left, right = hs.factors
    return (type(table) is hier._PairTable
            and assembled(left, table._left) and assembled(right, table._right))


def test_point_mass_middles_are_assembled_and_mixed_middles_walked():
    """The Bayes joints and the comonoid laws answer every middle direction
    with a point mass, so no composite emit is walked.  ``routed``'s middle
    law mixes directions, so it is walked like a leaf, also inside a tensor,
    and every row it reaches is the law its absorb closure gives."""
    for hs in [*bayes_joints(Rng(77)), *itertools.chain(*comonoid_sides())]:
        assert assembled(hs, tabulate(hs))
    mixed = routed(Rng(78))
    table = tabulate(mixed)
    assert type(table) is hier._LeafTable
    inside = tabulate(tensor_hier(mixed, from_tables(Rng(80))))
    assert type(inside) is hier._PairTable and type(inside._left) is hier._LeafTable
    states = list(points(mixed.states))
    for s, x in enumerate(states):
        lens = mixed.emit(x)
        resp = [(i, d) for i in points(lens.source.positions)
                for d in points(lens.target.dirs_at(lens.forward(i)))]
        for o, (i, d) in enumerate(resp):
            ids, ws = table.step(s, o)
            want = {states.index(z): w for z, w in finite_items(mixed.absorb(x, i, d))}
            assert dict(zip(ids.tolist(), ws.tolist())) == want, (x, o)


def test_a_copy_of_a_composite_is_tabulated_from_its_own_data():
    """A ``replace`` copy of a composite has no factors, so its tables read
    its own init and absorb, not the factors': a copy with another init,
    and one with another absorb, trace as the closure walk does, and the
    first's init is its point mass.  ``replace`` cannot set the factors."""
    A = finite(0, 1)
    comp = compose_hier(prior_system(categorical(A, {0: 0.5, 1: 0.5})), copy_system(A))
    copies = [replace(comp, init=dirac(comp.states, (1, ()))),
              replace(comp, absorb=lambda xy, i, d: dirac(comp.states, (0, ())))]
    for copy in copies:
        assert copy.factors is None and type(tabulate(copy)) is hier._LeafTable
        sigma = hom_sections([copy])[0]
        got = trace(copy, sigma, copy.init, 3).values
        want = hier._closure_trace(copy, sigma, copy.init, 3).values
        assert [dist_distance(g, w) for g, w in zip(got, want, strict=True)] == [0.0] * 4
    assert tabulate(copies[0]).law(copies[0].init).tolist() == [0.0, 1.0]
    with pytest.raises(ValueError, match="init=False"):
        replace(comp, factors=comp.factors)


# ---------------------------------------------------------------------------
# composite keys assembled from their factors' keys


def leaves(hs, found=None) -> list:
    """The distinct (by identity) leaf systems of a composite's factor tree."""
    found = {} if found is None else found
    if hs.factors is None:
        found.setdefault(id(hs), hs)
    else:
        for part in hs.factors[1:]:
            leaves(part, found)
    return list(found.values())


@pytest.mark.parametrize("n", (2, 3))
def test_composite_keys_walk_only_the_leaf_lenses(monkeypatch, n):
    """Tabulating the two joints of the dynamical Bayes check walks each leaf
    lens once per state for its key, and no composite lens: every composite
    key is assembled from its factors' keys."""
    X, Y, pi, rows, back = dyadic_channel_prior(Rng(83).child(n), n, n)
    c = stochastic_channel_system(rows.__getitem__, X, Y)
    p = prior_system(pi)
    cdag = stochastic_channel_system(back.__getitem__, Y, X)
    lhs = compose_hier(compose_hier(p, copy_system(X)), tensor_hier(id_hier(linear(X)), c))
    rhs = compose_hier(
        compose_hier(compose_hier(p, c), copy_system(Y)),
        tensor_hier(cdag, id_hier(linear(Y))),
    )
    walked = []

    def counted(lens):
        walked.append(lens)
        return polymap_key(lens)

    monkeypatch.setattr(hier, "polymap_key", counted)
    for joint in (lhs, rhs):
        walked.clear()
        tabulate(joint)
        expected = sum(cardinality(leaf.states) for leaf in leaves(joint))
        assert len(walked) == expected, (n, len(walked), expected)


def point_mass(gen, space):
    """A point mass at a random point of a finite space."""
    pts = list(points(space))
    return dirac(space, pts[int(gen.integers(len(pts)))])


def tabulated_system(rng, positions, fibres, out_positions, out_fibres, xs, draw=dyadic_dist):
    """A stochastic system between tabulated interfaces whose backward laws
    are drawn by ``draw`` (categorical by default) and whose lens depends on
    the state (x, c): on x and on a clock c, which every move advances, of
    period the number of outputs."""
    gen = rng.generator()
    source = tabulated(positions, dict(zip(points(positions), fibres)))
    target = tabulated(out_positions, dict(zip(points(out_positions), out_fibres)))
    outs = list(points(out_positions))
    clock = finite(*range(len(outs)))
    states = prod(xs, clock)
    index = {i: k for k, i in enumerate(points(positions))}
    laws = {
        (x, i, k, d): draw(gen, source.dirs_at(i))
        for x in points(xs) for i in points(positions)
        for k, o in enumerate(outs) for d in points(target.dirs_at(o))
    }
    moves = {x: dyadic_dist(gen, xs) for x in points(xs)}
    moves = {(x, c): pushforward(lambda z, _c=c: (z, (_c + 1) % len(outs)), moves[x],
                                 target=states)
             for x, c in points(states)}

    def emit(xc):
        x, c = xc

        def forward(i):
            return outs[(index[i] + x + c) % len(outs)]

        def backward(i, d):
            return laws[(x, i, outs.index(forward(i)), d)]

        return PolyMap(source, target, forward, backward, STOCHASTIC)

    start = pushforward(lambda x: (x, 0), dyadic_dist(gen, xs), target=states)
    return mk_hier(source, target, states, emit, lambda xc, i, d: moves[xc], init=start)


def test_tensor_keys_with_tabulated_fibres_equal_the_walk():
    """Per-position fibres of different normalized arities, unit factors in
    positions and fibres, and categorical backward laws on both sides."""
    S, T = finite("s0", "s1"), finite("t0", "t1", "t2")
    left = tabulated_system(
        Rng(84), prod(finite("p", "q"), unit()),
        [prod(unit(), S), prod(S, T)],
        finite(0, 1), [prod(T, unit(), S), unit()],
        finite(0, 1, 2),
    )
    right = tabulated_system(
        Rng(85), finite("r"), [prod(T, prod(unit(), S))],
        prod(unit(), finite("a", "b")), [S, prod(unit(), unit())],
        finite(0, 1),
    )
    for both in (tensor_hier(left, right), tensor_hier(right, left)):
        table = tabulate(both)
        states = list(points(both.states))
        for s, x in enumerate(states):
            assert table.keys[table.key_of[s]] == polymap_key(both.emit(x)), x


def test_arities_pass_through_pair_tables():
    """A tensor of a compose composite, and a compose of a tensor, whose
    per-position fibres have 0, 2 and 3 slots: a tensor parent joins its
    factor tables' slot tuples by concatenation, f's first, whatever the
    factors are, so every key equals the walked one."""
    S, T, U = finite("s0", "s1"), finite("t0", "t1"), finite("u0", "u1")
    arity = {0: unit(), 2: prod(S, T), 3: prod(S, unit(), prod(T, U))}
    # f: P -> P' with categorical backward laws and g: P' -> Q with point
    # masses; P and P' name the same positions with other fibres, so slots
    # read from the wrong interface, or joined in the wrong order, are found
    ps = finite("p0", "p1", "p2")
    f = tabulated_system(Rng(86), ps, [arity[0], arity[2], arity[3]],
                         ps, [arity[3], arity[0], arity[2]], finite(0, 1))
    g = tabulated_system(Rng(87), ps, [arity[3], arity[0], arity[2]],
                         finite("c0", "c1"), [arity[3], arity[0]], finite(0, 1), draw=point_mass)
    h = tabulated_system(Rng(88), finite("h"), [arity[2]], finite("k0", "k1"),
                         [arity[0], arity[3]], finite(0))
    left = tabulated_system(Rng(89), finite("l0", "l1"), [arity[3], arity[0]],
                            finite("m"), [arity[2]], finite(0, 1))
    right = tabulated_system(Rng(90), finite("r"), [arity[2]],
                             finite("n0", "n1"), [arity[0], arity[3]], finite(0))
    mid = tensor(left.target, right.target)
    back = tabulated_system(Rng(91), mid.positions, [mid.dirs_at(j) for j in points(mid.positions)],
                            finite("o"), [arity[2]], finite(0, 1), draw=point_mass)
    fg, lr = compose_hier(f, g), compose_hier(tensor_hier(left, right), back)
    for both in (tensor_hier(fg, h), tensor_hier(h, fg), lr, tensor_hier(lr, fg)):
        table = tabulate(both)
        assert isinstance(table, hier._PairTable)
        for s, x in enumerate(points(both.states)):
            assert table.keys[table.key_of[s]] == polymap_key(both.emit(x)), x


class Label:
    """A label shown by the given text and told apart only by identity."""

    def __init__(self, text: str):
        self.text = text

    def __repr__(self) -> str:
        return self.text


def test_tensor_keys_are_assembled_on_a_repr_tie(monkeypatch):
    """Atoms "p, q" and "p" on the left and "r" and "q, r" on the right make
    two product atoms that both read "(p, q, r)".  A key lists them in the
    product fibre's order, left atom "p, q" first, whatever their reprs, so
    the key assembled from the leaves' keys is the walked one, and only the
    two leaves are walked, once each."""
    A = finite("a")
    pq, p_, r_, qr = Label("p, q"), Label("p"), Label("r"), Label("q, r")

    def leaf(fibre, law):
        lens = PolyMap(monomial(A, fibre), linear(A), lambda i: i, lambda i, d: law, STOCHASTIC)
        return mk_hier(monomial(A, fibre), linear(A), finite(0), lambda x: lens,
                       lambda x, i, d: dirac(finite(0), 0))

    left_fibre, right_fibre = finite(pq, p_), finite(r_, qr)
    left = leaf(left_fibre, categorical(left_fibre, [(pq, 0.75), (p_, 0.25)]))
    right = leaf(right_fibre, categorical(right_fibre, [(r_, 0.5), (qr, 0.5)]))
    both = tensor_hier(left, right)
    walked = []

    def counted(lens):
        walked.append(lens)
        return polymap_key(lens)

    monkeypatch.setattr(hier, "polymap_key", counted)
    table = tabulate(both)
    key = polymap_key(both.emit((0, 0)))
    tied = [a for a, _ in key[0][2][0][1] if repr(a) == "(p, q, r)"]
    assert tied == [(pq, r_), (p_, qr)]
    assert table.keys[table.key_of[0]] == key
    assert len(walked) == 2


def test_one_law_listed_in_either_order_has_one_key():
    """Two leaves carry one backward law over two atoms whose reprs tie,
    listed in opposite orders.  A lens does not depend on the order in which
    its laws list their atoms, so both get one key and are related with
    every initial law on each side."""
    A = finite("a")
    x1, x2 = Label("x"), Label("x")
    fibre = finite(x1, x2)

    def leaf(items):
        law = categorical(fibre, items)
        lens = PolyMap(monomial(A, fibre), linear(A), lambda i: i, lambda i, d: law, STOCHASTIC)
        return mk_hier(monomial(A, fibre), linear(A), finite(0), lambda x: lens,
                       lambda x, i, d: dirac(finite(0), 0))

    one, other = leaf([(x1, 0.75), (x2, 0.25)]), leaf([(x2, 0.25), (x1, 0.75)])
    assert polymap_key(one.emit(0)) == polymap_key(other.emit(0))
    verdict = quasi_bisim(one, other, "forall", "forall", horizon=HORIZON)
    assert verdict["related"] and verdict["witness"] is None


# ---------------------------------------------------------------------------
# sections moved in chunks against sections moved one at a time


def sevenths_dist(gen, space):
    """A random distribution over a finite space with weights k/7, which
    floating point holds inexactly, so sums of them depend on their order."""
    pts = list(points(space))
    counts = gen.multinomial(7, [1.0 / len(pts)] * len(pts))
    return categorical(space, [(a, c / 7.0) for a, c in zip(pts, counts.tolist()) if c])


def labelled(rng, odd=None):
    """Four states x, on a clock c of period 3 carried in the state (x, c),
    showing label x + c, one of six, with three responses each: 6 lens keys
    and 3**6 = 729 sections, so ``quasi_bisim`` samples 512 of them.  Its
    moves have weights k/7, and every move advances the clock.  ``odd`` =
    (c, x, d) redirects that one absorb."""
    gen = rng.generator()
    xs, clock = finite(0, 1, 2, 3), finite(0, 1, 2)
    states = prod(xs, clock)
    B, T = finite(*[f"b{k}" for k in range(6)]), finite("u", "v", "w")
    target = monomial(B, T)
    moves = {(x, d): sevenths_dist(gen, xs) for x in points(xs) for d in points(T)}
    moves = {(x, c, d): pushforward(lambda z, _c=c: (z, (_c + 1) % 3), moves[(x, d)],
                                    target=states)
             for x, c in points(states) for d in points(T)}

    def emit(xc):
        label = f"b{sum(xc)}"
        return det_polymap(y(), target, lambda i: label, lambda i, d: ())

    def absorb(xc, i, d):
        x, c = xc
        return dirac(states, ((x + 1) % 4, (c + 1) % 3)) if (c, x, d) == odd else moves[(x, c, d)]

    start = pushforward(lambda x: (x, 0), sevenths_dist(gen, xs), target=states)
    return mk_hier(y(), target, states, emit, absorb, init=start)


def padded(laws, horizon: int) -> list:
    """A side's ``_key_laws`` readings with the last repeated to horizon + 1
    readings, as every tick after the last one read repeats it."""
    got = list(laws)
    got += got[-1:] * (horizon + 1 - len(got))
    assert len(got) == horizon + 1
    return got


def one_section_at_a_time(read: dict):
    """``hier._table_deviations`` with every section propagated on its own,
    each side read at every tick 0..horizon: the reference for sections
    moved in chunks.  ``read`` keeps each pair of systems' deviations for the
    next call."""

    def table_deviations(theta, psi, sections, horizon, max_sections):
        setup = ("setup", id(theta), id(psi), max_sections)
        if setup not in read:
            done: dict = {}
            tables = [hier._tabulate(theta, done), hier._tabulate(psi, done)]
            keys, options, maps = hier._union(tables)
            assert sections is None  # the sampled family
            read[setup] = tables, keys, maps, hier._section_choices(options, max_sections)
        tables, keys, maps, choices = read[setup]

        def read_alone(cand_a, cand_b):
            key = (id(theta), id(psi), len(cand_a), len(cand_b), horizon)
            if key not in read:
                laws = [np.stack([tb.law(d) for d in cands])
                        for tb, cands in zip(tables, (cand_a, cand_b))]
                read[key] = []
                for choice in choices:
                    ka, kb = (
                        padded(hier._key_laws(tb, m, len(keys), np.asarray(choice)[None, :],
                                              law, horizon), horizon)
                        for tb, m, law in zip(tables, maps, laws)
                    )
                    read[key].append([np.abs(a[:, None, :] - b[None, :, :]).max(axis=2)
                                      for (a, _), (b, _) in zip(ka, kb, strict=True)])
            return ((s, t, dev) for s, ticks in enumerate(read[key])
                    for t, dev in enumerate(ticks))

        return np.array(choices, dtype=np.intp).reshape(len(choices), len(keys)), read_alone

    return table_deviations


def test_chunked_verdicts_equal_the_section_by_section_verdicts(monkeypatch):
    """Over 512 sampled sections, moved in one chunk (or in chunks of 3
    under a small budget), every deviation matrix equals the one from its
    section propagated alone, bit for bit, and so does every verdict,
    witness and all.  Two refutations' first mismatches lie at sections 7
    and 11, inside later chunks under the small budget."""
    read: dict = {}
    reference = one_section_at_a_time(read)
    theta = labelled(Rng(95))
    pairs = [(theta, labelled(Rng(95), odd=odd)) for odd in ((2, 3, "w"), (1, 0, "v"))]
    pairs.append((theta, theta))
    firsts = set()
    for lhs, rhs in pairs:
        cands = (hier._initial_laws(lhs, None, "forall"), hier._initial_laws(rhs, None, "forall"))
        for budget in (hier._BUDGET, 1536):  # 1536: chunks of at most 3 sections
            with monkeypatch.context() as m:
                m.setattr(hier, "_BUDGET", budget)
                (n_chunked, chunked), (n_alone, alone) = (
                    (len(choices), reader(*cands)) for choices, reader in
                    (f(lhs, rhs, None, HORIZON, 512) for f in (hier._table_deviations, reference))
                )
                assert n_chunked == n_alone == 512
                for got, want in zip(chunked, alone, strict=True):
                    assert got[:2] == want[:2] and np.array_equal(got[2], want[2])
        for modes in MODES:
            for tol in (0.0, 0.1):
                got = quasi_bisim(lhs, rhs, *modes, horizon=HORIZON, tol=tol)
                with monkeypatch.context() as m:
                    m.setattr(hier, "_table_deviations", reference)
                    want = quasi_bisim(lhs, rhs, *modes, horizon=HORIZON, tol=tol)
                assert got == want, (modes, tol)
                if got["witness"] is not None and "section" in got["witness"]:
                    firsts.add(got["witness"]["section"])
    assert {7, 11} <= firsts


def test_a_tick_does_not_depend_on_row_ids_or_blocks(monkeypatch):
    """``_advance`` on five sections gives, bit for bit, what each section
    gives alone, what a table whose rows were interned in another order
    gives, and what every split into blocks under a small budget gives."""
    theta = labelled(Rng(95))
    tables = [hier.tabulate(theta) for _ in range(2)]
    states = np.arange(tables[0].size)
    for s in states[::-1]:  # the second table hands out row ids in reverse
        tables[1].rows(np.full(3, s), np.arange(3))
    cands = hier._candidates(theta, None, "forall")
    mass = np.tile(np.stack([tables[0].law(d) for d in cands]), (5, 1))
    opts = Rng(3).generator().integers(3, size=(5, len(states)))
    rids = [np.stack([tb.rows(states, o) for o in opts]) for tb in tables]
    assert not np.array_equal(*rids)
    whole = hier._advance(tables[0], mass, rids[0])
    assert np.array_equal(hier._advance(tables[1], mass, rids[1]), whole)
    c = len(cands)
    for k in range(5):
        alone = hier._advance(tables[0], mass[k * c:(k + 1) * c], rids[0][k:k + 1])
        assert np.array_equal(alone, whole[k * c:(k + 1) * c])
    for budget in (1, 8, 40):
        monkeypatch.setattr(hier, "_BUDGET", budget)
        assert np.array_equal(hier._advance(tables[0], mass, rids[0]), whole)


def test_a_sampled_family_draws_distinct_sections():
    """Above ``max_sections`` the family is seeded draws with repeats
    skipped, in order of first draw: 512 distinct sections of 729, where the
    first 512 draws hold only 367.  A family that fits is the product."""
    options = [range(3)] * 6
    choices = hier._section_choices(options, 512)
    assert len(set(choices)) == len(choices) == 512
    gen = Rng(0).generator()
    draws = [tuple(int(gen.integers(3)) for _ in options) for _ in range(512)]
    assert len(set(draws)) == 367
    assert choices[:367] == list(dict.fromkeys(draws))
    assert hier._section_choices(options[:5], 512) == list(itertools.product(range(3), repeat=5))
    sections = hom_sections([labelled(Rng(95))])
    assert len({sigma.table for sigma in sections}) == 512


# ---------------------------------------------------------------------------
# fixtures that carry their clock in their state


def clocked_fixtures():
    """The fixtures whose clock is carried in their state, each with the
    first four sections of its family and the tolerance its routes agree
    within: 0 for dyadic weights; ``labelled``'s weights k/7 are inexact,
    and the two routes add them in different orders (by 5.6e-17, as the
    fixture did when its clock was the tick)."""
    S, T = finite("s0", "s1"), finite("t0", "t1", "t2")
    systems = [
        (ticking(Rng(78)), 0.0),
        (compose_hier(ticking(Rng(78).child(1)), copy_system(finite("a", "b"))), 0.0),
        (tabulated_system(Rng(84), prod(finite("p", "q"), unit()),
                          [prod(unit(), S), prod(S, T)],
                          finite(0, 1), [prod(T, unit(), S), unit()], finite(0, 1, 2)), 0.0),
        (labelled(Rng(95)), 1e-15),
        (labelled(Rng(95), odd=(2, 3, "w")), 1e-15),
    ]
    return [(hs, hom_sections([hs])[:4], tol) for hs, tol in systems]


@pytest.mark.parametrize("k", range(5))
def test_clocked_fixtures_equal_the_closure_walk(k):
    """From the initial law, which starts the clock, and from every other
    candidate, the table trace is the closure walk."""
    hs, sections, tol = clocked_fixtures()[k]
    for init in hier._candidates(hs, None, "forall"):
        for sigma in sections:
            got = trace(hs, sigma, init, HORIZON).values
            want = hier._closure_trace(hs, sigma, init, HORIZON).values
            for t, (g, w) in enumerate(zip(got, want)):
                assert dist_distance(g, w) <= tol, (k, init, t, g, w)


def test_the_closure_walk_keys_each_reached_state_once(monkeypatch):
    """The closure route reads the one-tick emit of every state it reaches
    and keys it once, for the trace value and the section's response alike:
    3 keys for a prior of 3 states copied, over 4 ticks, one per reached
    state, where keying each (tick, state) and again for the response took
    21."""
    A = finite(0, 1, 2)
    hs = compose_hier(prior_system(uniform(A)), copy_system(A))
    sigma = hom_sections([hs])[0]
    keyed = []
    real_key = hier.polymap_key

    def counted(lens):
        keyed.append(lens)
        return real_key(lens)

    monkeypatch.setattr(hier, "polymap_key", counted)
    values = hier._closure_trace(hs, sigma, hs.init, 3).values
    assert len(values) == 4 and len(keyed) == 3
    monkeypatch.undo()
    for got, want in zip(trace(hs, sigma, hs.init, 3).values, values):
        assert dist_distance(got, want) == 0.0


# ---------------------------------------------------------------------------
# laws that repeat bit for bit: reading stops, and the last reading stands
# for every later tick

SHOWN = finite("a", "b", "c")


def chain(moves, labels):
    """A deterministic leaf on states 0..n-1 that moves x to ``moves[x]``
    whatever the response, shows ``labels[x]``, and starts at 0."""
    states = finite(*range(len(moves)))

    def emit(x):
        label = labels[x]
        return det_polymap(y(), linear(SHOWN), lambda i: label, lambda i, d: ())

    return mk_hier(y(), linear(SHOWN), states, emit,
                   lambda x, i, d: dirac(states, moves[x]), init=dirac(states, 0))


def test_a_leaf_that_settles_late_equals_the_closure_walk():
    """0 -> 1 -> 2 -> 2 with a lens per state: from 0 its law repeats from
    tick 2 on.  Its trace from every candidate, and every verdict against
    itself, a 3-cycle, a leaf that settles at 1 and a one-state leaf, in
    every mode and at every horizon up to 5, are the closure walk's."""
    late = chain((1, 2, 2), "abc")
    sigma = hom_sections([late])[0]
    for init in hier._candidates(late, None, "forall"):
        got = trace(late, sigma, init, 5).values
        want = hier._closure_trace(late, sigma, init, 5).values
        assert len(got) == 6
        for t, (g, w) in enumerate(zip(got, want)):
            assert dist_distance(g, w) == 0.0, (init, t, g, w)
    for psi in (late, chain((1, 2, 0), "abc"), chain((1, 1, 2), "abc"), chain((0,), "a")):
        for horizon in range(6):
            traces: dict = {}
            for modes in MODES:
                got = quasi_bisim(late, psi, *modes, horizon=horizon, tol=0.0)
                related, witness = closure_verdict(late, psi, *modes, horizon, 0.0, None, traces)
                assert (got["related"], got["witness"]) == (related, witness), (horizon, modes)


def test_a_mismatch_after_one_side_settles_keeps_its_tick(monkeypatch):
    """A one-state leaf repeats its law from tick 1 on; a chain that shows
    the same label until it reaches its last state first differs at tick 5.
    The settled side repeats its last reading while the other goes on, so
    the witness keeps t = 5, as on the closure walk, and the settled side
    advances once."""
    one, five = chain((0,), "a"), chain((1, 2, 3, 4, 5, 5), "aaaaab")
    advanced = calls_of(monkeypatch, hier, "_advance")
    got = quasi_bisim(one, five, "forall", "forall", horizon=8, tol=0.0)
    assert got["witness"] == {"alpha": 0, "beta": 0, "section": 0, "t": 5, "deviation": 1.0}
    assert (got["related"], got["witness"]) == closure_verdict(
        one, five, "forall", "forall", 8, 0.0, None, {})
    assert sum(args[0].system is one for args in advanced) == 1


def test_a_swap_that_never_settles_advances_every_tick(monkeypatch):
    """Two states that swap at every tick, from a point mass: the law never
    repeats, so a trace advances horizon times and a verdict of the swap
    against itself horizon times per side, and both are the closure's."""
    swap = chain((1, 0), "ab")
    sigma = hom_sections([swap])[0]
    advanced = calls_of(monkeypatch, hier, "_advance")
    got = trace(swap, sigma, swap.init, 6).values
    assert len(advanced) == 6
    want = hier._closure_trace(swap, sigma, swap.init, 6).values
    assert [dist_distance(g, w) for g, w in zip(got, want, strict=True)] == [0.0] * 7
    del advanced[:]
    verdict = quasi_bisim(swap, swap, "forall", "forall", horizon=6, tol=0.0)
    assert len(advanced) == 2 * 6
    assert (verdict["related"], verdict["witness"]) == closure_verdict(
        swap, swap, "forall", "forall", 6, 0.0, None, {})


@pytest.mark.parametrize("horizon", (0, 1, 7))
def test_a_settling_trace_has_a_value_per_tick(horizon):
    """A one-state leaf, and the swap from its uniform law, repeat their
    laws after one tick; their traces still hold horizon + 1 values, the
    closure's."""
    swap = chain((1, 0), "ab")
    for hs, init in ((chain((0,), "a"), None), (swap, uniform(swap.states))):
        init = hs.init if init is None else init
        sigma = hom_sections([hs])[0]
        got = trace(hs, sigma, init, horizon)
        want = hier._closure_trace(hs, sigma, init, horizon)
        assert got.times == want.times == tuple(range(horizon + 1))
        assert len(got.values) == horizon + 1
        for g, w in zip(got.values, want.values, strict=True):
            assert dist_distance(g, w) == 0.0


def three_labels(init=True):
    """States 0, 1 and 2 showing "a", "b" and "c" and stepping round the
    cycle; its initial law, when it has one, is the point mass at 0."""
    states = finite(0, 1, 2)
    B = finite("a", "b", "c")
    return mk_hier(y(), linear(B), states,
                   lambda x: det_polymap(y(), linear(B), lambda i: "abc"[x], lambda i, d: ()),
                   lambda x, i, d: dirac(states, (x + 1) % 3),
                   init=dirac(states, 0) if init else None)


def test_a_given_first_pass_that_fails_at_its_first_law_reads_every_candidate():
    """Provided side-a law 0, the point mass at 1, mismatches side b's only
    given law, its init; side-a law 1, the init, matches it.  The witness is
    the pair that the read of every candidate names: law 0 with side b's
    point mass at 1, not the given pair (1, 0)."""
    hs = three_labels()
    alphas = [dirac(hs.states, 1)]
    got = quasi_bisim(hs, hs, horizon=3, tol=0.0, alphas=alphas)
    assert (got["related"], got["witness"]) == (True, {"alpha": 0, "beta": 1})
    assert (got["related"], got["witness"]) == closure_verdict(
        hs, hs, "exists", "exists", 3, 0.0, alphas, {})


@pytest.mark.parametrize("side", ("a", "b"))
def test_a_side_with_no_given_law_reads_every_candidate(monkeypatch, side):
    """With no provided law and no ``init`` on one side, the verdict reads
    every candidate at once, and it is the closure walk's."""
    reads = []
    real = hier._table_deviations

    def counted(*args):
        choices, read = real(*args)
        return choices, lambda *cands: reads.append([len(c) for c in cands]) or read(*cands)

    monkeypatch.setattr(hier, "_table_deviations", counted)
    theta, psi = three_labels(side != "a"), three_labels(side != "b")
    got = quasi_bisim(theta, psi, horizon=3, tol=0.0)
    assert reads == [[4, 4]]  # three point masses, or init and two, and the uniform law
    assert (got["related"], got["witness"]) == closure_verdict(
        theta, psi, "exists", "exists", 3, 0.0, None, {})
    assert got["witness"] == {"alpha": 0, "beta": 0}


def test_a_section_without_a_lens_only_point_masses_reach_is_refused():
    """A section with no entry for "c", which only the point mass at 2
    shows in its first ticks, is refused as the read of every candidate
    refuses it, though the two initial laws never meet "c" before tick 2."""
    hs = three_labels()
    full = hom_sections([hs])[0]
    lacking = HomSection(tuple(e for e in full.table if e[0] != polymap_key(hs.emit(2))))
    assert len(lacking.table) == 2
    with pytest.raises(HierError, match=r"^section 0 has no entry for an emitted lens at tick 0$"):
        quasi_bisim(hs, hs, sections=[lacking], horizon=1)


def dirichlet_bayes(rng, nx: int, ny: int) -> tuple:
    """A seeded channel with Dirichlet rows, its prior and its exact
    inversion, drawn as the benchmark draws them: no weight is dyadic, so
    the deviations a verdict reads depend on the order of every sum."""
    gen = rng.generator()
    X = finite(*[f"x{i}" for i in range(nx)])
    Y = finite(*[f"y{j}" for j in range(ny)])
    pi = categorical(X, list(zip(points(X), gen.dirichlet([1.5] * nx).tolist())))
    rows = {x: categorical(Y, list(zip(points(Y), gen.dirichlet([1.5] * ny).tolist())))
            for x in points(X)}
    inverse = exact_bayes(rows.__getitem__, pi, target=Y)
    return (stochastic_channel_system(rows.__getitem__, X, Y), prior_system(pi),
            stochastic_channel_system(inverse, Y, X))


def coassoc_verdict() -> dict:
    A = finite(0, 1, 2)
    cp, ida = copy_system(A), id_hier(linear(A))
    return quasi_bisim(compose_hier(cp, tensor_hier(cp, ida)),
                       compose_hier(cp, tensor_hier(ida, cp)),
                       "forall", "forall", horizon=16, tol=0.0)


@pytest.mark.parametrize("verdict, digest", [
    (lambda: bayes_check(*dirichlet_bayes(Rng(11), 2, 2)),
     "b08da666ae1c0fac018ce4ca756f9a74dc0933370ef413621d0e17cfefe6fe36"),
    (lambda: bayes_check(*dirichlet_bayes(Rng(13), 3, 3)),
     "fac94840ce903f1263e6e644ccb80d820af31d63fdfb2e8a718ce45e72091856"),
    (coassoc_verdict, "7f67bfe6493fbc4e76c16daa708f46c95869f029742380ddb40b9047185f8354"),
], ids=["bayes-2x2", "bayes-3x3", "coassoc"])
def test_the_table_readings_are_pinned(monkeypatch, verdict, digest):
    """The sha256 of every reading a verdict takes from
    ``hier._table_deviations``: its section, tick, and the deviation
    matrix's shape and bytes.  A verdict's output holds no deviation when it
    relates its systems, so a change in the last bit of a sum shows here.
    A passing Bayes verdict reads its systems' initial laws alone, a 1 x 1
    matrix per tick; each such reading is, bit for bit, the given x given
    block of the reading of every candidate at its section and tick."""
    sha = hashlib.sha256()
    real = hier._table_deviations
    staged = []  # (read of every candidate, given x given shape, readings taken)

    def recorded(theta, psi, *args):
        choices, read = real(theta, psi, *args)

        def recorded_read(cand_a, cand_b):
            taken = []
            full = [hier._initial_laws(hs, None, "exists") for hs in (theta, psi)]
            if len(full[0]) * len(full[1]) > len(cand_a) * len(cand_b):
                staged.append((read(*full), (len(cand_a), len(cand_b)), taken))
            for s, t, dev in read(cand_a, cand_b):
                sha.update(f"{s} {t} {dev.shape} {dev.dtype}|".encode())
                sha.update(dev.tobytes())
                taken.append((s, t, dev))
                yield s, t, dev

        return choices, recorded_read

    monkeypatch.setattr(hier, "_table_deviations", recorded)
    assert verdict()["related"] is True
    assert sha.hexdigest() == digest
    assert len(staged) == (verdict is not coassoc_verdict)
    for full, (g_a, g_b), taken in staged:
        blocks = {(s, t): dev[:g_a, :g_b] for s, t, dev in full}
        assert taken
        for s, t, dev in taken:
            assert blocks[(s, t)].tobytes() == dev.tobytes(), (s, t)
