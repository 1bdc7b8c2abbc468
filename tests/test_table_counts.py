"""What a table verdict builds, counted: each thing once.

A verdict keys each leaf state's lens once and absorbs each (state,
response) once, whatever its horizon; it stops advancing a side once that
side's laws repeat bit for bit, so its ticks, too, do not grow with the
horizon past that point; a composite's own initial law is read
from its factors' law vectors, with no composite state looked up and no
product of laws formed, and its weights are checked once, as the product
would check them; a leaf
maps each absorbed law's atoms once; no sort is made of a single code,
and none by ``np.unique``; the candidate initial laws are the point
masses and uniform law built the checked way, without the checks; and a
table reads them as rows, the laws read atom by atom, with no state
enumerated past the cap.
"""

import collections
import re
from dataclasses import replace

import numpy as np
import pytest

from polydyn import (
    DistError,
    Rng,
    as_hier,
    bayes_check,
    categorical,
    compose_hier,
    copy_system,
    dirac,
    exact_bayes,
    finite,
    id_hier,
    linear,
    mk_hier,
    points,
    prior_system,
    quasi_bisim,
    stochastic_channel_system,
    tensor_hier,
    uniform,
    y,
)
from polydyn import dist, hier, poly

from helpers import calls_of, dyadic_channel_prior, random_finite_system


def bayes_2x2():
    """A seeded 2x2 channel, prior and exact inversion."""
    X, Y, pi, rows, _ = dyadic_channel_prior(Rng(95), 2, 2)
    inverse = exact_bayes(rows.__getitem__, pi, target=Y)
    return (stochastic_channel_system(rows.__getitem__, X, Y), prior_system(pi),
            stochastic_channel_system(inverse, Y, X))


def bayes_3x3():
    """A seeded 3x3 channel, prior and exact inversion, whose verdict reads
    every tick."""
    X, Y, pi, rows, _ = dyadic_channel_prior(Rng(96), 3, 3)
    inverse = exact_bayes(rows.__getitem__, pi, target=Y)
    return (stochastic_channel_system(rows.__getitem__, X, Y), prior_system(pi),
            stochastic_channel_system(inverse, Y, X))


# the stateless leaves of a Bayes check's joints: copy and identity on X and on Y
STATELESS = 4


@pytest.mark.parametrize("horizon", (1, 4, 8))
def test_a_verdict_keys_each_leaf_state_once(monkeypatch, horizon):
    """A 3x3 Bayes verdict keys one lens per state of its leaves, the prior,
    the channel, the inversion and the four stateless systems, at every
    horizon: every tick emits the same lenses, so no tick walks them
    again."""
    c, p, inv = bayes_3x3()
    keyed = []
    real_key = hier.polymap_key

    def polymap_key(lens):
        keyed.append(lens)
        return real_key(lens)

    monkeypatch.setattr(hier, "polymap_key", polymap_key)
    assert bayes_check(c, p, inv, horizon=horizon)["related"] is True
    states = sum(len(list(points(leaf.states))) for leaf in (c, p, inv)) + STATELESS
    assert states == 61
    assert len(keyed) == states


@pytest.mark.parametrize("horizon", (4, 8))
def test_a_verdict_absorbs_each_state_and_response_once(monkeypatch, horizon):
    """Every tick of a 3x3 Bayes verdict reads its leaves' rows, but each
    leaf absorbs a (state, response) once, so the absorbs are at most the
    distinct (state, response) pairs of its leaves."""
    absorbed = collections.Counter()
    tables = {}
    real_absorb = hier._LeafTable._absorb

    def absorb(self, s, o):
        absorbed[(id(self), s, o)] += 1
        tables[id(self)] = self
        return real_absorb(self, s, o)

    monkeypatch.setattr(hier._LeafTable, "_absorb", absorb)
    assert bayes_check(*bayes_3x3(), horizon=horizon)["related"] is True
    pairs = sum(len(hier._options(tb.keys[k])) for tb in tables.values()
                for k in tb.key_of.tolist())
    assert set(absorbed.values()) == {1}
    assert sum(absorbed.values()) <= pairs


@pytest.mark.parametrize("horizon", (8, 16, 32))
def test_a_comonoid_verdict_advances_each_side_once(monkeypatch, horizon):
    """The coassociativity sides have one state, so one tick leaves each
    side's law matrix as it was: a forall verdict advances each side once at
    every horizon, where it advanced each horizon times."""
    advances = calls_of(monkeypatch, hier, "_advance")
    A = finite(0, 1, 2)
    cp, ida = copy_system(A), id_hier(linear(A))
    verdict = quasi_bisim(compose_hier(cp, tensor_hier(cp, ida)),
                          compose_hier(cp, tensor_hier(ida, cp)),
                          "forall", "forall", horizon=horizon, tol=0.0)
    assert verdict["related"] is True
    assert len(advances) == 2


@pytest.mark.parametrize("horizon", (4, 8))
def test_a_bayes_verdict_reads_its_rows_until_its_laws_repeat(monkeypatch, horizon):
    """The channel and prior leaves redraw from a fixed law, so a 3x3 Bayes
    verdict's right joint repeats its laws after one tick, and so does its
    left joint from its initial law: the verdict reads those two laws alone
    (``_given_first``), in 2 advances and 7 ``_PairTable.rows`` calls at
    horizons 4 and 8.  Read from every candidate, the left joint repeats
    after two ticks, from its point masses: 3 advances and 10 ``rows``
    calls, where every tick read took 2 * horizon advances and 7 * horizon
    ``rows`` calls."""
    advances = calls_of(monkeypatch, hier, "_advance")
    rows = calls_of(monkeypatch, hier._PairTable, "rows")
    assert bayes_check(*bayes_3x3(), horizon=horizon)["related"] is True
    assert (len(advances), len(rows)) == (2, 7)
    del advances[:], rows[:]
    monkeypatch.setattr(hier, "_given_first", lambda *args: None)
    assert bayes_check(*bayes_3x3(), horizon=horizon)["related"] is True
    assert (len(advances), len(rows)) == (3, 10)


def test_a_composites_initial_law_looks_up_no_composite_state(monkeypatch):
    """In a 3x3 ``bayes_check`` each joint's initial vector is built with no
    ``_PairTable.state_id`` call, although the right joint's initial law has
    2,187 atoms, and it is the atom-by-atom vector bit for bit.  The table
    is handed the system, which stands for its law, and the law is not
    formed: ``init`` is formed here only for the atom-by-atom check."""
    looked_up = []
    real_state_id = hier._PairTable.state_id
    built = []  # (table, law, state_id calls while building its vector)
    real_law = hier._PairTable.law

    def state_id(self, x):
        looked_up.append(x)
        return real_state_id(self, x)

    def law(self, d):
        before = len(looked_up)
        vec = real_law(self, d)
        built.append((self, d, len(looked_up) - before))
        return vec

    monkeypatch.setattr(hier._PairTable, "state_id", state_id)
    monkeypatch.setattr(hier._PairTable, "law", law)
    assert bayes_check(*bayes_3x3())["related"] is True
    own = [(table, d, n) for table, d, n in built if d is table.system]
    assert {table.size for table, _, _ in own} >= {81, 2187}
    assert [n for _, _, n in own] == [0] * len(own)
    assert [table for table, _, _ in own if "init" in vars(table.system)] == []
    for table, d, _ in own:
        walked = hier.HierTable.law(table, d.init)
        assert real_law(table, d).tobytes() == walked.tobytes()
        assert real_law(table, d.init).tobytes() == walked.tobytes()


@pytest.mark.parametrize("shape", ((2, 2), (3, 3)))
def test_a_passing_bayes_verdict_forms_no_product(monkeypatch, shape):
    """A passing ``bayes_check`` reads each joint's initial law from its
    factors' vectors: no product of laws is formed (``dist.product_items``),
    where forming the two joints' laws makes 7 products, of 66 atoms at 2x2
    and 1,173 at 3x3."""
    atoms = []
    real_items = dist.product_items

    def product_items(items1, items2):
        out = real_items(items1, items2)
        atoms.append(len(out))
        return out

    monkeypatch.setattr(dist, "product_items", product_items)
    systems = bayes_3x3() if shape == (3, 3) else bayes_2x2()
    assert bayes_check(*systems)["related"] is True
    assert atoms == []
    for joint in joints(*systems):
        joint.init
    assert (len(atoms), sum(atoms)) == (7, {(2, 2): 66, (3, 3): 1173}[shape])


@pytest.mark.parametrize("weights, message", [
    ({"a": 0.5 + 0.45e-12, "b": 0.5 + 0.45e-12},
     "weights sum to 1.0000000000018, expected 1 within 1e-12"),
    ({"a": 1 + 1e-12, "b": -1e-12}, "negative weight -1.000000000001e-12 on atom ('a', 'b')"),
])
def test_a_composites_own_law_is_checked_where_its_vector_is_read(weights, message):
    """Each factor's law is within the weight tolerance, but their product
    is not: ``dst`` refuses it, and so does a verdict that reads the
    composite's own law from its factors' vectors, with the same text,
    where ``quasi_bisim`` related the composite to itself."""
    p = prior_system(categorical(finite("a", "b"), weights))
    t = tensor_hier(p, p)
    pattern = f"^{re.escape(message)}$"
    with pytest.raises(DistError, match=pattern):
        quasi_bisim(t, t)
    with pytest.raises(DistError, match=pattern):
        t.init


def test_a_composites_own_vector_is_formed_and_checked_once(monkeypatch):
    """A 3x3 ``bayes_check`` of an inversion made against the wrong prior
    reads each joint's own law twice, in the given-first pass and in the
    read of every candidate, but each pair table checks the weights of its
    own vector once, the right joint's 2,187 and the left's 81 among them;
    the vector it keeps is read-only."""
    checked = []
    real_check = hier._check_product

    def check(weights, atom_at):
        checked.append(len(weights))
        return real_check(weights, atom_at)

    read = collections.Counter()
    kept = []
    real_law = hier._PairTable.law

    def law(self, d):
        vec = real_law(self, d)
        if d is self.system:
            read[id(self)] += 1
            kept.append(vec)
        return vec

    monkeypatch.setattr(hier, "_check_product", check)
    monkeypatch.setattr(hier._PairTable, "law", law)
    X, Y, pi, rows, _ = dyadic_channel_prior(Rng(96), 3, 3)
    warped = exact_bayes(rows.__getitem__, uniform(X), target=Y)
    c = stochastic_channel_system(rows.__getitem__, X, Y)
    assert bayes_check(c, prior_system(pi), stochastic_channel_system(warped, Y, X))[
        "related"] is False
    assert max(read.values()) > 1
    assert len(checked) == len(read)
    assert {81, 2187} <= set(checked)
    assert not any(vec.flags.writeable for vec in kept)


def test_a_leaf_maps_each_absorbed_law_once(monkeypatch):
    """The channel, the prior and the stateless systems each absorb into one
    shared law: a 3x3 ``bayes_check`` makes hundreds of absorbs, and each
    leaf table maps the atoms of each law object it gets once."""
    inside = []
    absorbs = collections.Counter()
    mapped = collections.Counter()
    kept = []  # the laws, kept alive so that their ids stay theirs
    real_absorb, real_items = hier._LeafTable._absorb, hier.finite_items

    def absorb(self, s, o):
        absorbs[id(self)] += 1
        inside.append(self)
        try:
            return real_absorb(self, s, o)
        finally:
            inside.pop()

    def finite_items(d):
        if inside:
            mapped[(id(inside[-1]), id(d))] += 1
            kept.append(d)
        return real_items(d)

    monkeypatch.setattr(hier._LeafTable, "_absorb", absorb)
    monkeypatch.setattr(hier, "finite_items", finite_items)
    assert bayes_check(*bayes_3x3())["related"] is True
    assert set(mapped.values()) == {1}
    assert sum(absorbs.values()) >= 10 * len(mapped)


def test_a_bayes_verdict_builds_no_composite_lens_and_forms_each_product_once(monkeypatch):
    """A 3x3 ``bayes_check`` tabulates both joints from its leaves' keys:
    no ``compose_map`` or ``tensor_map`` call builds a composite lens, and
    within each tensor table ``product_items`` runs at most once per
    distinct pair of factor laws, although its 54 ``tensor_key`` calls meet
    486 pairs of backward laws."""
    built = [calls_of(monkeypatch, module, name)
             for module in (hier, poly) for name in ("compose_map", "tensor_map")]
    keyed = calls_of(monkeypatch, hier, "tensor_key")
    # the pair table whose constructor runs, None once it returns; the tables
    # are kept alive, so that their ids stay theirs
    building = [None]
    real_init = hier._PairTable.__init__

    def init(self, hs, kind, left, right):
        building.append(self)
        real_init(self, hs, kind, left, right)
        building.append(None)

    products = collections.Counter()
    real_product = poly.product_items

    def product_items(items1, items2):
        products[(id(building[-1]), items1, items2)] += 1
        return real_product(items1, items2)

    monkeypatch.setattr(hier._PairTable, "__init__", init)
    monkeypatch.setattr(poly, "product_items", product_items)
    assert bayes_check(*bayes_3x3())["related"] is True
    assert built == [[]] * 4
    laws = sum(len(b1) * len(b2) for f_key, g_key, *_ in keyed
               for (_, _, b1) in f_key for (_, _, b2) in g_key)
    assert (len(keyed), laws) == (54, 486)
    assert set(products.values()) == {1}
    assert len({table for table, _, _ in products}) == 2  # the two joints' tensor tables


def test_a_comonoid_verdict_sorts_no_single_code(monkeypatch):
    """Comonoid systems have one state, so a table level and a tick often
    meet one code; such a code is not handed to ``hier._unique``, and no
    code at all to ``np.unique``."""
    sizes = []
    real_unique = hier._unique

    def unique(codes, *args, **kwargs):
        sizes.append(np.size(codes))
        return real_unique(codes, *args, **kwargs)

    def numpy_unique(*args, **kwargs):
        raise AssertionError("a table verdict called np.unique")

    monkeypatch.setattr(hier, "_unique", unique)
    monkeypatch.setattr(np, "unique", numpy_unique)
    A = finite(0, 1, 2)
    cp, ida = copy_system(A), id_hier(linear(A))
    verdict = quasi_bisim(compose_hier(cp, tensor_hier(cp, ida)),
                          compose_hier(cp, tensor_hier(ida, cp)),
                          "forall", "forall", horizon=16, tol=0.0)
    assert verdict["related"] is True
    assert sizes and min(sizes) > 1


def test_the_uniform_law_of_no_point_is_refused():
    with pytest.raises(DistError, match=r"^weights sum to 0\.0, expected 1 within 1e-12$"):
        uniform(finite())


def checked_candidates(sys_, provided):
    """The candidate initial laws as ``categorical`` and ``dirac`` build
    them, each checked, with every law equal to an earlier one dropped."""
    out = list(provided) + ([sys_.init] if sys_.init is not None else [])
    atoms = list(points(sys_.states))
    if len(atoms) <= 256:
        out += [dirac(sys_.states, a) for a in atoms]
        out.append(categorical(sys_.states, [(a, 1.0 / len(atoms)) for a in atoms]))
    kept = []
    for d in out:
        if not any(e is d or e == d for e in kept):
            kept.append(d)
    return kept


def test_the_trusted_candidates_are_the_checked_ones():
    """Equal and with equal ``repr`` to the checked laws, in the same order,
    with provided laws that repeat a point mass, the uniform law and
    ``init``; over one state the uniform law is that state's point mass.
    The product of two uniform laws on three states is the uniform law on
    nine, (1/3) * (1/3) being 1/9; on five states it is not, by an ulp."""
    c, p, _ = bayes_3x3()
    X = c.source.positions
    lhs = compose_hier(compose_hier(p, copy_system(X)), tensor_hier(id_hier(linear(X)), c))
    flats = [as_hier(random_finite_system(Rng(97), n_states=n)) for n in (1, 4)]
    spreads = [prior_system(uniform(finite(*range(n)))) for n in (3, 5)]
    systems = [lhs, p, *flats, id_hier(linear(finite(0, 1, 2))),
               *(tensor_hier(u, u) for u in spreads)]
    for hs in systems:
        # first, while a composite's own law is unformed: reading ``init`` forms it
        computed = [hier._candidates(hs, [], "forall")]
        states = hs.states
        atoms = list(points(states))
        spread = categorical(states, [(a, 1.0 / len(atoms)) for a in atoms])
        repeats = [dirac(states, atoms[-1]), spread, dirac(states, atoms[0])]
        if hs.init is not None:
            repeats.append(hs.init)
        computed.append(hier._candidates(hs, repeats, "forall"))
        for provided, got in zip(([], repeats), computed):
            want = checked_candidates(hs, provided)
            assert got == want
            assert [repr(d) for d in got] == [repr(d) for d in want]
            assert [type(d) for d in got] == [type(d) for d in want]
    assert uniform(finite("a")) == dirac(finite("a"), "a")


def ring(n: int):
    """A leaf y -> y on n states that steps x to x + 1 mod n, from state 0."""
    states = finite(*range(n))
    lens = hier.id_hier(y()).emit(())
    return mk_hier(y(), y(), states, lambda x: lens, lambda x, i, d: dirac(states, (x + 1) % n),
                   init=dirac(states, 0))


def joints(c=None, p=None, inv=None):
    """The two joints of a Bayes check, built as it builds them: at 3x3,
    where the systems default to, 81 and 2,187 states."""
    if c is None:
        c, p, inv = bayes_3x3()
    X, Y = c.source.positions, c.target.positions
    lhs = compose_hier(compose_hier(p, copy_system(X)), tensor_hier(id_hier(linear(X)), c))
    rhs = compose_hier(compose_hier(compose_hier(p, c), copy_system(Y)),
                       tensor_hier(inv, id_hier(linear(Y))))
    return lhs, rhs


CANDIDATE_SYSTEMS = {
    "leaf": (lambda: bayes_3x3()[1], hier._LeafTable),
    "pair": (lambda: joints()[0], hier._PairTable),
    "walked": (lambda: replace(joints()[0]), hier._LeafTable),
    "one-state": (lambda: id_hier(linear(finite(0, 1, 2))), hier._LeafTable),
    "256": (lambda: ring(256), hier._LeafTable),
    "257": (lambda: ring(257), hier._LeafTable),
}


@pytest.mark.parametrize("name", CANDIDATE_SYSTEMS)
def test_candidate_rows_are_the_laws_read_atom_by_atom(name):
    """A table reads each candidate initial law as a row: the point mass at
    the i-th state that ``points`` enumerates as the unit row at i, and the
    uniform law as the constant row 1/n.  Each row equals, bit for bit, the
    law ``_candidates`` builds, read atom by atom (``HierTable.law``), with
    and without provided laws that repeat a point mass, the uniform law and
    ``init``; a composite reads its own ``init`` from its factors."""
    make, kind = CANDIDATE_SYSTEMS[name]
    hs = make()
    table = hier.tabulate(hs)
    assert type(table) is kind
    states = hs.states
    atoms = list(points(states))
    spread = categorical(states, [(a, 1.0 / len(atoms)) for a in atoms])
    repeats = [dirac(states, atoms[-1]), spread, dirac(states, atoms[0]), hs.init]
    for provided in ([], repeats):
        laws = hier._initial_laws(hs, provided, "forall")
        want = hier._candidates(hs, provided, "forall")
        assert list(laws) == want and len(laws) == len(want)
        rows = laws.rows(table)
        assert rows.shape == (len(want), table.size)
        for c, d in enumerate(want):
            assert rows[c].tobytes() == hier.HierTable.law(table, d).tobytes(), (c, d)


@pytest.mark.parametrize("name", ("257", "rhs"))
def test_candidates_past_the_cap_enumerate_no_state(monkeypatch, name):
    """Above 256 states, the 3x3 right joint's 2,187 among them, the
    candidates are the given laws alone, and no state is enumerated to find
    that out.  At 256 states the point masses and the uniform law are
    candidates: the point mass at state 0 is ``init``, so 255 of them."""
    assert len(hier._initial_laws(ring(256), None, "exists")) == 1 + 255 + 1
    hs = ring(257) if name == "257" else joints()[1]
    enumerated = []
    real_points = hier.points

    def points_(space):
        enumerated.append(space)
        return real_points(space)

    monkeypatch.setattr(hier, "points", points_)
    laws = hier._initial_laws(hs, None, "exists")
    assert enumerated == []
    assert list(laws) == [hs.init]


def test_candidates_over_no_state_are_refused():
    """A state space with no point is refused, as the uniform law over it
    is, before any table is built."""
    states = finite()
    hs = mk_hier(y(), y(), states, lambda x: None, lambda x, i, d: None)
    for candidates in (hier._initial_laws, hier._candidates):
        with pytest.raises(DistError, match=r"^weights sum to 0\.0"):
            candidates(hs, None, "exists")
    with pytest.raises(DistError, match=r"^weights sum to 0\.0"):
        quasi_bisim(hs, hs)
