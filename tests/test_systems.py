import collections
import json
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from polydyn import (
    DETERMINISTIC,
    STOCHASTIC,
    Categorical,
    OpenSystemError,
    PolyError,
    PolyMap,
    Rng,
    Section,
    all_sections,
    bind,
    categorical,
    check_closed_flow,
    check_flow,
    closed_from_kernel,
    closure,
    compose_map,
    det_polymap,
    dirac,
    dist_distance,
    euclid,
    finite,
    finite_items,
    from_vector_field,
    id_map,
    is_system_morphism,
    linear,
    mk_system,
    monomial,
    points,
    prob,
    pull_section,
    reindex,
    systems_agree,
    tabulated,
    time_nat,
    to_ncoalg,
    trivial_section,
    uniform,
    unit,
    y,
)
from polydyn import systems
from polydyn.specio import system_from_json

from helpers import enumerate_deterministic_systems, random_finite_system


def counter_system(n: int):
    states = finite(*range(n))
    return mk_system(
        linear(states),
        states,
        lambda t, s: s,
        lambda t, s, d: dirac(states, (s + 1) % n),
        time_nat(),
    )


def markov_cell(k_rows):
    """Closed stochastic 2-state cell presented on the trivial interface."""
    states = finite("s0", "s1")
    labels = list(points(states))
    table = {
        a: categorical(states, list(zip(labels, row)))
        for a, row in zip(labels, k_rows)
    }
    return mk_system(
        y(),
        states,
        lambda t, s: (),
        lambda t, s, d: table[s],
        time_nat(),
        STOCHASTIC,
    )


def test_counter_closure():
    sys_ = counter_system(4)
    cs = closure(sys_, trivial_section(sys_.interface))
    law = cs.step(6, 0)
    assert prob(law, 2) == 1.0
    assert prob(cs.step(0, 3), 3) == 1.0


def test_markov_two_step_matches_matrix_power():
    K = [[0.9, 0.1], [0.2, 0.8]]
    cell = markov_cell(K)
    cs = closure(cell, trivial_section(y()))
    K2 = np.linalg.matrix_power(np.array(K), 2)
    for i, a in enumerate(["s0", "s1"]):
        law = cs.step(2, a)
        for j, b in enumerate(["s0", "s1"]):
            assert abs(prob(law, b) - K2[i, j]) <= 1e-12
    # the two-step rows in full
    assert abs(prob(cs.step(2, "s0"), "s0") - 0.83) <= 1e-12
    assert abs(prob(cs.step(2, "s0"), "s1") - 0.17) <= 1e-12
    assert abs(prob(cs.step(2, "s1"), "s0") - 0.34) <= 1e-12
    assert abs(prob(cs.step(2, "s1"), "s1") - 0.66) <= 1e-12


def test_markov_flow_law():
    cell = markov_cell([[0.9, 0.1], [0.2, 0.8]])
    report = check_flow(cell, tol=1e-12)
    assert report["pass"], report["violations"][:3]


def _bind_walk(sys_, sigma, t, x):
    """The t-tick law from x as t nested binds of the one-tick kernel."""
    law = dirac(sys_.states, x)
    for _ in range(t):
        law = bind(law, lambda z: sys_.update(1, z, sigma.assign(sys_.output(1, z))))
    return law


def _dirichlet_system(rng):
    """A seeded stochastic system on at most 7 states whose updates have
    Dirichlet weights, which binary floating point does not hold exactly."""
    gen = rng.generator()
    states = finite(*range(int(gen.integers(2, 8))))
    iface = tabulated(finite("p0", "p1"), {"p0": finite(0), "p1": finite(0, 1)})
    n = len(states.labels)
    table = {
        (s, d): categorical(states, list(zip(points(states), gen.dirichlet([0.8] * n))))
        for s in points(states)
        for d in points(iface.dirs_at(f"p{s % 2}"))
    }
    return mk_system(
        iface, states, lambda t, s: f"p{s % 2}", lambda t, s, d: table[(s, d)],
        time_nat(), STOCHASTIC,
    )


@pytest.mark.parametrize("weights", ["dyadic", "deterministic", "dirichlet"])
def test_closure_steps_agree_with_nested_binds(weights):
    """A closure on finite states reads step(t) off the powers of its tick
    matrix: equal to the bind walk where the weights are exact in binary,
    within 1e-15 elsewhere.  step(1) is the one-tick law itself."""
    for seed in range(10):
        rng = Rng(600).child(seed)
        if weights == "dirichlet":
            sys_ = _dirichlet_system(rng)
        else:
            sys_ = random_finite_system(rng, stochastic=weights == "dyadic")
        for sigma in all_sections(sys_.interface):
            cs = closure(sys_, sigma)
            for x in points(sys_.states):
                assert cs.step(1, x) is sys_.update(1, x, sigma.assign(sys_.output(1, x)))
                for t in range(9):
                    law, walk = cs.step(t, x), _bind_walk(sys_, sigma, t, x)
                    if weights == "dirichlet":
                        assert dist_distance(law, walk) <= 1e-15, (seed, t, x)
                    else:
                        assert dist_distance(law, walk) == 0.0, (seed, t, x)
                        assert type(law) is type(walk), (seed, t, x)
            # the order in which powers are first asked for moves no bit
            late = closure(sys_, sigma)
            assert [late.step(t, x) for t in (8, 3)] == [cs.step(t, x) for t in (8, 3)]


def test_a_tabulated_row_with_one_atom_is_a_point_mass():
    """Mass that reaches one state by several paths sums to 1 only up to
    rounding (0.7 + 0.2 + 0.1 here); the row is still a point mass."""
    states = finite("a", "b", "c", "d")
    table = {
        "a": categorical(states, {"b": 0.7, "c": 0.2, "d": 0.1}),
        "b": dirac(states, "a"),
        "c": dirac(states, "a"),
        "d": dirac(states, "a"),
    }
    sys_ = mk_system(y(), states, lambda t, s: (), lambda t, s, d: table[s],
                     time_nat(), STOCHASTIC)
    cs = closure(sys_, trivial_section(y()))
    assert _bind_walk(sys_, trivial_section(y()), 2, "a") == dirac(states, "a")
    assert cs.step(2, "a") == dirac(states, "a")
    assert isinstance(cs.step(3, "a"), Categorical)


def test_a_tabulated_row_is_not_checked_again():
    """A one-tick law whose weights sum to 1 - 9e-13 is accepted; the rows of
    P^2 sum to about 1 - 1.8e-12, past the 1e-12 that ``categorical``
    allows, and step(2) still reads them as they are."""
    states = finite(0, 1)
    law = categorical(states, [(0, 0.5), (1, 0.5 - 9e-13)])
    sys_ = mk_system(y(), states, lambda t, s: (), lambda t, s, d: law, time_nat(), STOCHASTIC)
    cs = closure(sys_, trivial_section(y()))
    p = np.array([[0.5, 0.5 - 9e-13]] * 2)
    assert cs.step(2, 0) == Categorical(states, tuple(zip((0, 1), (p @ p)[0].tolist())))


def test_a_nested_bind_is_not_checked_again():
    """One-tick laws summing to 1 - 9e-13 at either state: the nested bind,
    as a closure on more than 512 states steps, mixes them into the row of
    P^2, whose total is past ``categorical``'s 1e-12, without refusing it."""
    states = finite(0, 1)
    laws = [categorical(states, {0: 0.5, 1: 0.5 - 9e-13}),
            categorical(states, {0: 0.5 - 9e-13, 1: 0.5})]
    sys_ = mk_system(y(), states, lambda t, s: (), lambda t, s, d: laws[s], time_nat(),
                     STOCHASTIC)
    cs = closure(sys_, trivial_section(y()))
    assert bind(cs.step(1, 0), lambda z: cs.step(1, z)) == cs.step(2, 0)


def test_a_closure_on_many_states_steps_without_a_tick_matrix():
    """Past 512 states a closure steps by nested binds: step(2) of a
    2,000-state counter builds no 2,000 x 2,000 matrix (32 MB)."""
    sys_ = counter_system(2000)
    cs = closure(sys_, trivial_section(sys_.interface))
    tracemalloc.start()
    try:
        law = cs.step(2, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert law == dirac(sys_.states, 2)
    assert peak < 4_000_000


def test_a_morphism_check_frees_each_sections_closures():
    """A morphism check reads each section's two closures once, so it holds
    one section's tick-matrix powers at a time: on 400 states (1.28 MB a
    matrix) over 4 sections at times 1-3 it peaks near 15 MB.  Holding every
    section's closures and their blocks until the call returns takes 74 MB."""
    n = 400
    states = finite(*range(n))
    sys_ = mk_system(monomial(finite("p"), finite(1, 2, 3, 4)), states, lambda t, s: "p",
                     lambda t, s, d: dirac(states, (s + d) % n), time_nat())
    sections = all_sections(sys_.interface)
    assert len(sections) == 4
    tracemalloc.start()
    try:
        report = is_system_morphism(lambda s: s, sys_, sys_, sections, [1, 2, 3])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report["pass"]
    assert peak < 24_000_000


def _law_bits(law) -> dict:
    return {atom: w.hex() for atom, w in finite_items(law)}


@pytest.mark.parametrize("stochastic", [True, False])
def test_a_bind_closure_composes_by_construction(monkeypatch, stochastic):
    """A closure that keeps no tick matrix (forced here on small seeded
    systems) binds one tick at a time: step(t, x) is t binds from x bit for
    bit, and step(s + t, x) is step(s) after step(t), whose dyadic weights
    sum exactly."""
    monkeypatch.setattr(systems, "_TABLE_MAX_STATES", 0)
    for seed in range(6):
        sys_ = random_finite_system(Rng(610).child(seed), stochastic=stochastic)
        for sigma in all_sections(sys_.interface):
            cs = closure(sys_, sigma)
            assert cs.table is None
            for x in points(sys_.states):
                for t in range(7):
                    assert _law_bits(cs.step(t, x)) == _law_bits(_bind_walk(sys_, sigma, t, x))
                    for s in range(7 - t):
                        after = bind(cs.step(t, x), lambda z: cs.step(s, z))
                        assert _law_bits(cs.step(s + t, x)) == _law_bits(after), (seed, s, t, x)


def test_a_tabulated_closure_composes_up_to_rounding():
    """The bundled markov spec's closure reads step(t) from row x of P^t, and
    P^(s+t) is P^(s+t-1) P, so step(s + t) and step(s) after step(t) sum the
    same products in other orders: they differ by rounding, not by zero.  Each
    weight agrees within 4 ulps of 1.0 per tick of s + t."""
    spec = Path(__file__).resolve().parent.parent / "scripts" / "specs" / "markov.json"
    sys_ = system_from_json(json.loads(spec.read_text())["system"])
    ulp = np.finfo(float).eps
    rounded = 0
    for sigma in all_sections(sys_.interface):
        cs = closure(sys_, sigma)
        for x in points(sys_.states):
            for t in range(13):
                for s in range(13):
                    after = bind(cs.step(t, x), lambda z: cs.step(s, z))
                    gap = dist_distance(cs.step(s + t, x), after)
                    assert gap <= 4 * ulp * (s + t), (s, t, x, gap)
                    rounded += gap > 0.0
    assert rounded > 0


def test_check_closed_flow_zero_law():
    cs = closure(counter_system(3), trivial_section(linear(finite(0, 1, 2))))
    report = check_closed_flow(cs, [(1, 1), (2, 3)], [0, 1, 2])
    assert report["pass"]


def test_random_systems_satisfy_flow_exactly():
    for seed in range(6):
        sys_ = random_finite_system(Rng(500).child(seed), stochastic=seed % 2 == 0)
        report = check_flow(sys_, tol=0.0)
        assert report["pass"], (seed, report["violations"][:3])
        assert report["max_deviation"] == 0.0


def test_check_flow_reports_each_section_through_the_closed_flow_check():
    states = finite(0, 1)
    sys_ = mk_system(
        monomial(states, finite("stay", "flip")),
        states,
        lambda t, s: s,
        lambda t, s, d: dirac(states, (s + (d == "flip")) % 2),
        time_nat(),
    )
    times = [(1, 1), (2, 3)]
    # a negative tolerance records every check as a violation
    report = check_flow(sys_, times=times, tol=-1.0)
    assert report["sections"] == 4
    flow = [v for v in report["violations"] if v["kind"] in ("zero", "compose")]
    expected = []
    for k in range(4):
        expected += [("zero", k, None, x) for x in (0, 1)]
        expected += [("compose", k, (s, t), x) for s, t in times for x in (0, 1)]
    assert [
        (v["kind"], v["section"], (v["s"], v["t"]) if "s" in v else None, v["state"])
        for v in flow
    ] == expected
    for v in flow:
        keys = ["kind", "section", "s", "t", "state", "deviation"]
        assert list(v) == (keys if v["kind"] == "compose" else keys[:2] + keys[4:])
        assert v["deviation"] == 0.0


def test_time_dependent_update_fails_check_flow():
    """The closure steps the tick-1 maps only, so its compose cases hold by
    construction; the stationarity probe is what catches the later ticks."""
    states = finite(0, 1)
    sys_ = mk_system(
        linear(states),
        states,
        lambda t, s: s,
        lambda t, s, d: dirac(states, (s + t) % 2),
        time_nat(),
    )
    report = check_flow(sys_)
    assert not report["pass"]
    # the update moves away from tick 1's at every even tick the default
    # splits reach (2, 4, 6 and 8), at both states, on the one direction
    assert _by_quantifier(report) == {
        "kind": {"stationary-update": 8},
        "t": {2: 2, 4: 2, 6: 2, 8: 2},
        "state": {0: 4, 1: 4},
        "direction": {(): 8},
    }


def _by_quantifier(report) -> dict:
    """How many of a report's violations fall on each value of each of their
    quantifiers."""
    counts: dict = {}
    for v in report["violations"]:
        for name, value in v.items():
            if name != "deviation":
                counts.setdefault(name, collections.Counter())[value] += 1
    return {name: dict(c) for name, c in counts.items()}


def test_an_update_frozen_after_one_tick_fails_check_flow():
    """The benchmark's must-fail flow control: a full-support dyadic update
    at tick 1 that stays put at every later tick."""
    gen = Rng(11).generator()
    states = finite(0, 1, 2, 3)
    iface = tabulated(finite("p0", "p1"), {"p0": finite(0, 1), "p1": finite(0, 1, 2)})
    table = {}
    for s in points(states):
        for d in points(iface.dirs_at(f"p{s % 2}")):
            counts = 1 + gen.multinomial(4, [0.25] * 4)
            table[(s, d)] = categorical(states, list(zip(points(states), counts / 8.0)))

    def update(t, s, d):
        return table[(s, d)] if t == 1 else dirac(states, s)

    sys_ = mk_system(iface, states, lambda t, s: f"p{s % 2}", update, time_nat(), STOCHASTIC)
    report = check_flow(sys_)
    assert not report["pass"]
    # every later tick the default splits reach (2 to 8) at every (state,
    # direction): two directions at p0's states 0 and 2, three at 1 and 3
    assert _by_quantifier(report) == {
        "kind": {"stationary-update": 70},
        "t": {t: 10 for t in range(2, 9)},
        "state": {0: 14, 1: 21, 2: 14, 3: 21},
        "direction": {0: 28, 1: 28, 2: 14},
    }


def test_an_update_that_moves_at_the_last_tick_alone_fails_there():
    """A must-fail control with one violation: the stored map changes at one
    (state, direction) and only at tick 8, the last one the default splits
    reach.  At every other tick it returns an equal law that is not the
    tick-1 object, so no case is decided by the identity of its laws."""
    gen = Rng(12).generator()
    states = finite(0, 1, 2, 3)
    iface = tabulated(finite("p0", "p1"), {"p0": finite(0, 1), "p1": finite(0, 1, 2)})
    table = {}
    for s in points(states):
        for d in points(iface.dirs_at(f"p{s % 2}")):
            counts = 1 + gen.multinomial(4, [0.25] * 4)
            table[(s, d)] = categorical(states, list(zip(points(states), counts / 8.0)))
    moved = dirac(states, 3)

    def update(t, s, d):
        if t == 1:
            return table[(s, d)]
        if (t, s, d) == (8, 3, 1):
            return moved
        return categorical(states, finite_items(table[(s, d)]))

    sys_ = mk_system(iface, states, lambda t, s: f"p{s % 2}", update, time_nat(), STOCHASTIC)
    copy = update(2, 3, 1)
    assert copy is not table[(3, 1)] and copy == table[(3, 1)]
    report = check_flow(sys_)
    assert not report["pass"]
    [violation] = report["violations"]
    assert violation == {
        "kind": "stationary-update", "t": 8, "state": 3, "direction": 1,
        "deviation": dist_distance(moved, table[(3, 1)]),
    }
    assert violation["deviation"] > 0.0


def test_time_dependent_output_fails_check_flow():
    states = finite(0, 1)
    sys_ = mk_system(
        linear(states),
        states,
        lambda t, s: (s + t) % 2,
        lambda t, s, d: dirac(states, s),
        time_nat(),
    )
    report = check_flow(sys_)
    assert not report["pass"]
    # the output moves away from tick 1's at every even tick the default
    # splits reach, at both states; a moved output has no direction to probe
    assert _by_quantifier(report) == {
        "kind": {"stationary-output": 8},
        "t": {2: 2, 4: 2, 6: 2, 8: 2},
        "state": {0: 4, 1: 4},
    }
    assert {v["deviation"] for v in report["violations"]} == {float("inf")}


def test_a_flow_check_on_400_states_copies_no_power():
    """On 400 states (1.28 MB a matrix) the compose cases hold by
    construction, so check_flow over the default splits builds no power of
    the tick matrix, not even P: it peaks at about 0.3 MB, below one
    matrix."""
    n = 400
    states = finite(*range(n))
    sys_ = mk_system(monomial(finite("p"), finite(1, 2)), states, lambda t, s: "p",
                     lambda t, s, d: dirac(states, (s + d) % n), time_nat())
    tracemalloc.start()
    try:
        report = check_flow(sys_)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report["pass"]
    assert peak < n * n * 8


def _table_and_bind_checks(sys_, monkeypatch):
    """check_flow and check_closed_flow on the closure with a tick matrix,
    then on the one that binds."""
    sigma = all_sections(sys_.interface)[0]
    for binds in (False, True):
        if binds:
            monkeypatch.setattr(systems, "_TABLE_MAX_STATES", 1)
        cs = closure(sys_, sigma)
        assert (cs.table is None) == binds
        yield lambda times: check_flow(sys_, times=times)
        yield lambda times: check_closed_flow(cs, times, [0, 1])


def flip_system(stays: bool = False):
    """Two states, shown as they are; the direction "flip" swaps them,
    unless the system ``stays``."""
    states = finite(0, 1)
    return mk_system(
        monomial(states, finite("stay", "flip")), states, lambda t, s: s,
        lambda t, s, d: dirac(states, (s + (d == "flip" and not stays)) % 2), time_nat(),
    )


@pytest.mark.parametrize("split", [(-1, 2), (1.5, 1), (1, -2), (2, 0.5), (True, 1)])
def test_a_flow_check_refuses_a_split_off_the_time_monoid_on_every_route(split, monkeypatch):
    """Each split is checked by the time monoid before it is stepped: a
    negative tick, and one that is not an integer, in s or in t, are refused
    by both flow checks, on the table route as on the bind one, each naming
    the time it was given (a walked compose case once named s + t, "got 2.5"
    for the split (1.5, 1)).  A bool, which Python counts as an
    integer, is not a tick: (True, 1) passed as the split (1, 1)."""
    sys_ = flip_system()
    bad = next(v for v in split if not (type(v) is int and v >= 0))
    message = f"time must be a non-negative integer tick, got {bad!r}"
    for check in _table_and_bind_checks(sys_, monkeypatch):
        with pytest.raises(PolyError, match=f"^{re.escape(message)}$"):
            check([(1, 1), split])


def test_a_numpy_integer_is_a_tick_and_a_bool_is_not(monkeypatch):
    """On the closure with a tick matrix and on the one that binds,
    step(np.int64(2), x) is step(2, x) and step(True, x) is refused, where
    True stepped once and np.int64(2) was refused.  A flow check and a
    square over numpy integer times report what their ints report, labels
    included, as JSON text (a negative tolerance makes every case a
    violation, so every case is labelled)."""
    sys_, still = flip_system(), flip_system(stays=True)
    sections = all_sections(sys_.interface)
    message = "time must be a non-negative integer tick, got True"
    ints, numpy = [(1, 2), (0, 3)], [(np.int64(1), np.int64(2)), (np.int64(0), 3)]
    for binds in (False, True):
        if binds:
            monkeypatch.setattr(systems, "_TABLE_MAX_STATES", 1)
        cs = closure(sys_, sections[1])
        assert (cs.table is None) == binds
        assert cs.step(np.int64(2), 1) == cs.step(2, 1)
        with pytest.raises(PolyError, match=f"^{message}$"):
            cs.step(True, 1)
        for flow in (lambda times: check_flow(sys_, times=times, tol=-1.0),
                     lambda times: check_closed_flow(cs, times, [0, 1], tol=-1.0)):
            assert json.dumps(flow(numpy)) == json.dumps(flow(ints))
        squares = [is_system_morphism(lambda x: x, sys_, still, sections, times)
                   for times in ([1, 2], [np.int64(1), np.int64(2)])]
        assert not squares[0]["pass"]
        assert json.dumps(squares[1]) == json.dumps(squares[0])


def test_mk_system_validates_finite_shapes():
    states = finite(0, 1)
    with pytest.raises(OpenSystemError):
        mk_system(
            linear(states),
            states,
            lambda t, s: "nowhere",
            lambda t, s, d: dirac(states, s),
        )
    with pytest.raises(OpenSystemError):
        mk_system(
            linear(states),
            states,
            lambda t, s: s,
            lambda t, s, d: uniform(states),  # stochastic law, deterministic claim
        )


def test_mk_system_refuses_an_unknown_effect_and_a_failing_update():
    states = finite(0, 1)

    def update(t, s, d):
        if s == 1:
            raise KeyError("no move from 1")
        return dirac(states, s)

    with pytest.raises(OpenSystemError, match="^unknown effect 'quantum'$"):
        mk_system(linear(states), states, lambda t, s: s, update, time_nat(), "quantum")
    with pytest.raises(OpenSystemError, match=re.escape(
        "update failed at state 1 with direction () of unit(): 'no move from 1'"
    )) as caught:
        mk_system(linear(states), states, lambda t, s: s, update)
    assert isinstance(caught.value.__cause__, KeyError)


@pytest.mark.parametrize("update, got", [
    (lambda t, s, d: s, "got 0"),
    (lambda t, s, d: dirac(finite(0, 1, 2), s), "got dirac(0)"),
])
def test_mk_system_refuses_an_update_that_is_no_law_on_its_states(update, got):
    states = finite(0, 1)
    with pytest.raises(OpenSystemError, match=re.escape(
        f"update(0, ()) must return a Dist over the state space, {got}"
    )):
        mk_system(linear(states), states, lambda t, s: s, update)


def _open_fibre_system():
    """Two finite states behind one position whose directions are the reals:
    the update never reads its direction, so every section closes it to
    staying put."""
    states = finite(0, 1)
    iface = monomial(finite("p"), euclid(1))
    return mk_system(iface, states, lambda t, s: "p", lambda t, s, d: dirac(states, s))


def test_a_direction_fibre_that_is_not_finite_is_not_probed():
    """mk_system checks no update over a fibre it cannot list, the
    stationarity probe reads none there, so its blocks are empty, and the
    flow law is read from the compose cases alone; the tabular form needs
    every fibre finite."""
    sys_ = _open_fibre_system()
    section = Section(sys_.interface, lambda i: (0.0,))
    probe = list(systems._stationary_cases(sys_, [(1, 1)], [0, 1]))
    assert [devs for _, _, devs in probe] == [[], []]
    report = check_flow(sys_, sections=[section], times=[(1, 1)])
    assert report["pass"] and report["max_deviation"] == 0.0
    with pytest.raises(OpenSystemError, match="^tabular form needs finite direction fibres$"):
        to_ncoalg(sys_)


def test_the_tabular_form_needs_finite_states_and_positions():
    line = euclid(1)
    sys_ = mk_system(y(), line, lambda t, x: (), lambda t, x, d: dirac(line, x))
    with pytest.raises(OpenSystemError, match="^tabular form needs finite states and positions$"):
        to_ncoalg(sys_)


def test_closure_refuses_a_section_of_another_interface():
    with pytest.raises(OpenSystemError, match="^section does not match the system interface$"):
        closure(counter_system(2), trivial_section(y()))


def test_a_continuous_flow_check_needs_a_state_sample():
    iface = monomial(euclid(1), unit())
    sys_ = from_vector_field(lambda x, d: (-x[0],), lambda x: x, iface, 0.1, states=euclid(1))
    with pytest.raises(OpenSystemError, match="^check_flow needs an explicit state sample here$"):
        check_flow(sys_, sections=[trivial_section(iface)], times=[(1, 1)])


# -- reindexing ------------------------------------------------------------

P = tabulated(finite("i", "j"), {"i": finite(0), "j": finite(0, 1)})
Q = monomial(finite("u", "v"), finite(0, 1))
R = monomial(finite("w"), finite(0, 1))
PHI = det_polymap(P, Q, {"i": "u", "j": "v"}.__getitem__,
                  lambda i, d: 0 if i == "i" else d)
PSI = det_polymap(Q, R, lambda i: "w", lambda i, d: d if i == "u" else 1 - d)


def _shape_family():
    return enumerate_deterministic_systems(P, finite(0, 1))


def test_reindex_preserves_identity_exhaustively():
    ident = id_map(P)
    for sys_ in _shape_family():
        assert systems_agree(reindex(ident, sys_), sys_)


def test_reindex_preserves_composition_exhaustively():
    comp = compose_map(PSI, PHI)
    for sys_ in _shape_family():
        once = reindex(comp, sys_)
        twice = reindex(PSI, reindex(PHI, sys_))
        assert systems_agree(once, twice)


def test_closure_commutes_with_pull_section_exhaustively():
    """Closing a transported system with tau equals closing the original with
    the pulled-back section -- exactly, state by state and time by time."""
    for sys_ in _shape_family():
        moved = reindex(PHI, sys_)
        for tau in all_sections(Q):
            ca = closure(moved, tau)
            cb = closure(sys_, pull_section(PHI, tau))
            for t in (1, 2, 3):
                for x in points(sys_.states):
                    assert dist_distance(ca.step(t, x), cb.step(t, x)) == 0.0


def test_reindex_shape_mismatch_raises():
    sys_ = counter_system(2)
    with pytest.raises(OpenSystemError):
        reindex(PHI, sys_)


def test_reindex_stochastic_lens_needs_stochastic_system():
    sys_ = _shape_family()[0]
    noisy = PolyMap(P, Q, {"i": "u", "j": "v"}.__getitem__,
                       lambda i, d: uniform(P.dirs_at(i)), STOCHASTIC)
    with pytest.raises(OpenSystemError):
        reindex(noisy, sys_)


# -- tabular round-trip ----------------------------------------------------


def test_ncoalg_roundtrip_is_identity():
    for seed in range(4):
        sys_ = random_finite_system(Rng(41).child(seed), stochastic=False)
        nc = to_ncoalg(sys_)
        back = nc.to_system()
        assert systems_agree(sys_, back)
        assert to_ncoalg(back) == nc


def test_ncoalg_rejects_stochastic():
    cell = markov_cell([[0.5, 0.5], [0.5, 0.5]])
    with pytest.raises(OpenSystemError):
        to_ncoalg(cell)


# -- morphisms ---------------------------------------------------------------


def _mod_counter(n: int):
    """Counter that shows only parity, so quotients can preserve outputs."""
    states = finite(*range(n))
    return mk_system(
        linear(finite(0, 1)),
        states,
        lambda t, s: s % 2,
        lambda t, s, d: dirac(states, (s + 1) % n),
        time_nat(),
    )


def test_parity_quotient_is_a_morphism():
    a = _mod_counter(4)
    b = _mod_counter(2)
    sections = all_sections(a.interface)
    verdict = is_system_morphism(lambda s: s % 2, a, b, sections, [1, 2, 3])
    assert verdict["pass"]


def test_broken_quotient_is_not_a_morphism():
    a = _mod_counter(4)
    b = _mod_counter(2)
    sections = all_sections(a.interface)
    verdict = is_system_morphism(lambda s: (s + 1) % 2, a, b, sections, [1, 2])
    assert not verdict["pass"]


def test_a_morphism_check_refuses_systems_on_other_interfaces_or_times():
    a = _mod_counter(2)
    other = mk_system(y(), finite(0, 1), lambda t, s: (), lambda t, s, d: dirac(finite(0, 1), s))
    continuous = from_vector_field(lambda x, d: (0.0,), lambda x: (), y(), 0.1, states=euclid(1))
    message = "^systems must share interface and time monoid$"
    with pytest.raises(OpenSystemError, match=message):
        is_system_morphism(lambda s: s, a, other, all_sections(a.interface), [1])
    with pytest.raises(OpenSystemError, match=message):
        is_system_morphism(lambda s: (0.0,), other, continuous, all_sections(y()), [1])


def test_systems_agree_negative():
    assert not systems_agree(counter_system(3), counter_system(4))
    a = counter_system(3)
    states = finite(0, 1, 2)
    b = mk_system(
        linear(states),
        states,
        lambda t, s: s,
        lambda t, s, d: dirac(states, (s + 2) % 3),
        time_nat(),
    )
    assert not systems_agree(a, b)
    # same shape and update, but another output at every state
    c = mk_system(linear(states), states, lambda t, s: (s + 1) % 3, a.update, time_nat())
    assert not systems_agree(a, c)


def test_closed_from_kernel_zero_time():
    states = finite("a", "b")
    cs = closed_from_kernel(states, time_nat(), lambda t, s: uniform(states))
    assert prob(cs.step(0, "a"), "a") == 1.0
    assert prob(cs.step(3, "a"), "b") == 0.5
