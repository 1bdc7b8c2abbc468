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

import itertools

import numpy as np
import pytest

from polydyn import (
    DETERMINISTIC,
    STOCHASTIC,
    PolyMap,
    Rng,
    all_sections,
    as_hier,
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
    tensor_hier,
    time_nat,
    trace,
    trivial_section,
    unit,
    y,
)
from polydyn import hier

from helpers import dyadic_channel_prior, dyadic_dist, random_finite_system

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
    """n states on a clock whose emitted label depends on the tick."""
    gen = rng.generator()
    states = finite(*range(n))
    B = finite("a", "b")
    moves = {x: dyadic_dist(gen, states) for x in points(states)}

    def emit(t, x):
        label = "a" if (x + t) % 3 == 0 else "b"
        return det_polymap(y(), linear(B), lambda i: label, lambda i, d: ())

    return mk_hier(y(), linear(B), states, emit, lambda t, x, i, d: moves[x],
                   init=dyadic_dist(gen, states))


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

    def b_emit(t, x):
        return PolyMap(y(), monomial(B, S), lambda i: x % 2 if spread else 0,
                       lambda i, s: dirac(unit(), ()), DETERMINISTIC)

    def g_emit(t, z):
        w = z if spread else 0
        return PolyMap(monomial(B, S), monomial(C, T), lambda b: f"c{(b + w) % 2}",
                       lambda b, u: backs[(w, b, u)], STOCHASTIC)

    beta = mk_hier(y(), monomial(B, S), xs, b_emit, lambda t, x, i, s: b_moves[(x, s)])
    gamma = mk_hier(monomial(B, S), monomial(C, T), zs, g_emit,
                    lambda t, z, b, u: g_moves[(z, b, u)], init=dyadic_dist(gen, zs))
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
        o1=lambda t, x, a: "go" if (spread * x + a) % 2 else "stay",
        o2=lambda t, x, a, tp: "s0" if (spread * x + (tp == "t1")) % 2 else "s1",
        u=lambda t, x, a, tp: moves[(x, a, tp)],
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
    sections = hom_sections([theta, psi], HORIZON)
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
    every reached row is the law the closure absorbs into."""
    for sys_ in (theta, psi):
        table = tabulate(sys_, HORIZON)
        states = list(points(sys_.states))
        for t in range(HORIZON + 1):
            for s, x in enumerate(states):
                k = table.key_of[t][s]
                assert table.keys[k] == polymap_key(sys_.emit(t, x))
        for s, x in enumerate(states[:8]):
            k = table.key_of[1][s]
            lens = sys_.emit(1, x)
            resp = [(i, d) for i in points(lens.source.positions)
                    for d in points(lens.target.dirs_at(lens.forward(i)))]
            for o, (i, d) in enumerate(resp):
                ids, ws = table.step(1, s, o)
                want = np.zeros(table.size)
                for z, w in finite_items(sys_.absorb(1, x, i, d)):
                    want[states.index(z)] = w
                got = np.zeros(table.size)
                got[ids] = ws
                assert np.array_equal(got, want), (name, t, x, o)
            assert len(resp) == len(table.options[k])


def test_hom_sections_offer_the_closure_keys_in_first_seen_order():
    for name, theta, psi, _ in CASES:
        seen = {}
        for sys_ in (theta, psi):
            for t in range(HORIZON + 1):
                for x in points(sys_.states):
                    seen.setdefault(polymap_key(sys_.emit(t, x)), None)
        sections = hom_sections([theta, psi], HORIZON)
        assert [key for key, _ in sections[0].table] == list(seen), name


def closure_verdict(theta, psi, alpha_mode, beta_mode, horizon, tol, alphas, traces,
                    betas=None, sections=None):
    """quasi_bisim's verdict, with every trace walked on the closures, under
    the given sections or else every section; ``traces`` keeps the walks for
    the next call on the same systems and candidates."""
    if sections is None:
        sections = hom_sections([theta, psi], horizon)
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

    def emit(t, x):
        label = "even" if int(x[0] + shift) % 2 == 0 else "odd"
        return det_polymap(y(), target, lambda i: label, lambda i, d: ())

    return mk_hier(y(), target, states, emit,
                   lambda t, x, i, d: dirac(states, (x[0] + (d in steps_on),)))


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
                     lambda t, x: det_polymap(y(), target, lambda i: ("even", "odd")[x],
                                              lambda i, d: ()),
                     lambda t, x, i, d: dirac(shows, x))
    sections = hom_sections([parity], HORIZON)
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
    beta = mk_hier(y(), B, X, lambda t, x: det_polymap(y(), B, lambda i: x, lambda i, m: ()),
                   law, init=dirac(X, 2))
    split = categorical(M, {"m0": 0.1, "m1": 0.9})
    lens = PolyMap(B, linear(X), lambda b: b, lambda b, u: split, STOCHASTIC)
    gamma = mk_hier(B, linear(X), unit(), lambda t, z: lens,
                    lambda t, z, b, u: dirac(unit(), ()), init=dirac(unit(), ()))
    composite = compose_hier(beta, gamma)
    for hs, start in ((as_hier(markov), init), (composite, composite.init)):
        sigma = hom_sections([hs], 2)[0]
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
        assert assembled(hs, tabulate(hs, HORIZON))
    mixed = routed(Rng(78))
    table = tabulate(mixed, HORIZON)
    assert type(table) is hier._LeafTable
    inside = tabulate(tensor_hier(mixed, from_tables(Rng(80))), HORIZON)
    assert type(inside) is hier._PairTable and type(inside._left) is hier._LeafTable
    states = list(points(mixed.states))
    for t in range(HORIZON):
        for s, x in enumerate(states):
            lens = mixed.emit(t, x)
            resp = [(i, d) for i in points(lens.source.positions)
                    for d in points(lens.target.dirs_at(lens.forward(i)))]
            for o, (i, d) in enumerate(resp):
                ids, ws = table.step(t, s, o)
                want = {states.index(z): w for z, w in finite_items(mixed.absorb(t, x, i, d))}
                assert dict(zip(ids.tolist(), ws.tolist())) == want, (t, x, o)


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
    lens once per (tick, state) for its key, and no composite lens: every
    composite key is assembled from its factors' keys."""
    horizon = 4
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
        tabulate(joint, horizon)
        expected = sum((horizon + 1) * cardinality(leaf.states) for leaf in leaves(joint))
        assert len(walked) == expected, (n, len(walked), expected)


def tabulated_system(rng, positions, fibres, out_positions, out_fibres, states):
    """A stochastic system between tabulated interfaces whose backward laws
    are categorical and whose lens depends on the tick and the state."""
    gen = rng.generator()
    source = tabulated(positions, dict(zip(points(positions), fibres)))
    target = tabulated(out_positions, dict(zip(points(out_positions), out_fibres)))
    outs = list(points(out_positions))
    index = {i: k for k, i in enumerate(points(positions))}
    laws = {
        (x, i, k, d): dyadic_dist(gen, source.dirs_at(i))
        for x in points(states) for i in points(positions)
        for k, o in enumerate(outs) for d in points(target.dirs_at(o))
    }
    moves = {x: dyadic_dist(gen, states) for x in points(states)}

    def emit(t, x):
        def forward(i):
            return outs[(index[i] + x + t) % len(outs)]

        def backward(i, d):
            return laws[(x, i, outs.index(forward(i)), d)]

        return PolyMap(source, target, forward, backward, STOCHASTIC)

    return mk_hier(source, target, states, emit, lambda t, x, i, d: moves[x],
                   init=dyadic_dist(gen, states))


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
        table = tabulate(both, HORIZON)
        states = list(points(both.states))
        for t in range(HORIZON + 1):
            for s, x in enumerate(states):
                assert table.keys[table.key_of[t][s]] == polymap_key(both.emit(t, x)), (t, x)


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
    two leaves are walked, once per tick each."""
    A = finite("a")
    pq, p_, r_, qr = Label("p, q"), Label("p"), Label("r"), Label("q, r")

    def leaf(fibre, law):
        lens = PolyMap(monomial(A, fibre), linear(A), lambda i: i, lambda i, d: law, STOCHASTIC)
        return mk_hier(monomial(A, fibre), linear(A), finite(0), lambda t, x: lens,
                       lambda t, x, i, d: dirac(finite(0), 0))

    left_fibre, right_fibre = finite(pq, p_), finite(r_, qr)
    left = leaf(left_fibre, categorical(left_fibre, [(pq, 0.75), (p_, 0.25)]))
    right = leaf(right_fibre, categorical(right_fibre, [(r_, 0.5), (qr, 0.5)]))
    both = tensor_hier(left, right)
    walked = []

    def counted(lens):
        walked.append(lens)
        return polymap_key(lens)

    monkeypatch.setattr(hier, "polymap_key", counted)
    table = tabulate(both, HORIZON)
    key = polymap_key(both.emit(0, (0, 0)))
    tied = [a for a, _ in key[0][2][0][1] if repr(a) == "(p, q, r)"]
    assert tied == [(pq, r_), (p_, qr)]
    assert table.keys[table.key_of[0][0]] == key
    assert len(walked) == 2 * (HORIZON + 1)


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
        return mk_hier(monomial(A, fibre), linear(A), finite(0), lambda t, x: lens,
                       lambda t, x, i, d: dirac(finite(0), 0))

    one, other = leaf([(x1, 0.75), (x2, 0.25)]), leaf([(x2, 0.25), (x1, 0.75)])
    assert polymap_key(one.emit(0, 0)) == polymap_key(other.emit(0, 0))
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
    """Four states showing one of six labels, by state and tick, with three
    responses each: 6 lens keys and 3**6 = 729 sections, so ``quasi_bisim``
    samples 512 of them.  Its moves have weights k/7.  ``odd`` = (t, x, d)
    redirects that one absorb."""
    gen = rng.generator()
    states = finite(0, 1, 2, 3)
    B, T = finite(*[f"b{k}" for k in range(6)]), finite("u", "v", "w")
    target = monomial(B, T)
    moves = {(x, d): sevenths_dist(gen, states) for x in points(states) for d in points(T)}

    def emit(t, x):
        label = f"b{(x + t) % 6}"
        return det_polymap(y(), target, lambda i: label, lambda i, d: ())

    def absorb(t, x, i, d):
        return dirac(states, (x + 1) % 4) if (t, x, d) == odd else moves[(x, d)]

    return mk_hier(y(), target, states, emit, absorb, init=sevenths_dist(gen, states))


def one_section_at_a_time(read: dict):
    """``hier._table_deviations`` with every section propagated on its own:
    the reference for sections moved in chunks.  ``read`` keeps each pair of
    systems' deviations for the next call."""

    def table_deviations(theta, psi, sections, cand_a, cand_b, horizon, max_sections):
        key = (id(theta), id(psi), len(cand_a), len(cand_b), horizon)
        if key not in read:
            done: dict = {}
            tables = [hier._tabulate(theta, horizon, done), hier._tabulate(psi, horizon, done)]
            keys, options, maps = hier._union(tables)
            assert sections is None  # the sampled family
            choices = hier._section_choices(options, max_sections)
            laws = [np.stack([tb.law(d) for d in cands])
                    for tb, cands in zip(tables, (cand_a, cand_b))]
            read[key] = []
            for choice in choices:
                ka, kb = (
                    hier._key_laws(tb, m, len(keys), np.asarray(choice)[None, :], law, horizon)
                    for tb, m, law in zip(tables, maps, laws)
                )
                read[key].append([np.abs(a[:, None, :] - b[None, :, :]).max(axis=2)
                                  for (a, _), (b, _) in zip(ka, kb)])
        return len(read[key]), ((s, t, dev) for s, ticks in enumerate(read[key])
                                for t, dev in enumerate(ticks))

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
        args = (None, hier._candidates(lhs, None, "forall"), hier._candidates(rhs, None, "forall"),
                HORIZON, 512)
        for budget in (hier._BUDGET, 512):  # 512: chunks of at most 3 sections
            with monkeypatch.context() as m:
                m.setattr(hier, "_BUDGET", budget)
                (n_chunked, chunked), (n_alone, alone) = (
                    f(lhs, rhs, *args) for f in (hier._table_deviations, reference)
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
    tables = [hier.tabulate(theta, HORIZON) for _ in range(2)]
    states = np.arange(tables[0].size)
    for s in states[::-1]:  # the second table hands out row ids in reverse
        tables[1].rows(0, np.full(3, s), np.arange(3))
    cands = hier._candidates(theta, None, "forall")
    mass = np.tile(np.stack([tables[0].law(d) for d in cands]), (5, 1))
    opts = Rng(3).generator().integers(3, size=(5, len(states)))
    rids = [np.stack([tb.rows(0, states, o) for o in opts]) for tb in tables]
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
    sections = hom_sections([labelled(Rng(95))], HORIZON)
    assert len({sigma.table for sigma in sections}) == 512
