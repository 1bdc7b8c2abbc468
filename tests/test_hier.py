import re
from dataclasses import replace

import pytest

from polydyn import (
    DETERMINISTIC,
    STOCHASTIC,
    Dirac,
    det_polymap,
    prod,
    HierError,
    HierSystem,
    HomSection,
    PolyError,
    PolyMap,
    categorical,
    compose_hier,
    copy_system,
    dirac,
    dirac_point,
    discard_system,
    dist_space,
    euclid,
    finite,
    function_system,
    hibi_compose,
    hier_from_tables,
    hom_sections,
    id_hier,
    linear,
    mk_hier,
    mk_system,
    monomial,
    points,
    prob,
    quasi_bisim,
    swap_system,
    tabulate,
    tensor,
    tensor_hier,
    time_nat,
    time_real,
    trace,
    trivial_section,
    uniform,
    unit,
    y,
)
from polydyn.hier import _closure_trace

A = finite(0, 1, 2)


def blinker(n: int) -> HierSystem:
    """n-cycle emitting its parity; same observable behaviour for any even n
    against the 2-cycle."""
    states = finite(*range(n))
    B = finite("even", "odd")

    def emit(t, x):
        lab = "even" if x % 2 == 0 else "odd"
        return det_polymap(y(), linear(B), lambda i: lab, lambda i, d: ())

    def absorb(t, x, i, d):
        return dirac(states, (x + 1) % n)

    return mk_hier(y(), linear(B), states, emit, absorb)


# -- comonoid structure ------------------------------------------------------


def test_counit_laws_on_the_nose():
    cp = copy_system(A)
    idA = id_hier(linear(A))
    left = compose_hier(cp, tensor_hier(discard_system(A), idA))
    right = compose_hier(cp, tensor_hier(idA, discard_system(A)))
    for cand in (left, right):
        verdict = quasi_bisim(cand, idA, "forall", "forall", horizon=16, tol=0.0)
        assert verdict["related"], verdict["witness"]


def test_coassociativity_on_the_nose():
    cp = copy_system(A)
    idA = id_hier(linear(A))
    lhs = compose_hier(cp, tensor_hier(cp, idA))
    rhs = compose_hier(cp, tensor_hier(idA, cp))
    verdict = quasi_bisim(lhs, rhs, "forall", "forall", horizon=16, tol=0.0)
    assert verdict["related"], verdict["witness"]


def test_cocommutativity_on_the_nose():
    cp = copy_system(A)
    verdict = quasi_bisim(
        compose_hier(cp, swap_system(A, A)), cp, "forall", "forall",
        horizon=16, tol=0.0,
    )
    assert verdict["related"], verdict["witness"]


# -- compose_hier ------------------------------------------------------------


def test_identity_is_neutral_for_compose_hier():
    sysm = blinker(4)
    left = compose_hier(id_hier(y()), sysm)
    right = compose_hier(sysm, id_hier(linear(finite("even", "odd"))))
    for cand in (left, right):
        verdict = quasi_bisim(cand, sysm, horizon=8, tol=0.0)
        assert verdict["related"], verdict["witness"]


def test_compose_hier_is_associative_up_to_trace():
    B = finite("even", "odd")
    head = blinker(2)
    f = function_system(lambda b: 0 if b == "even" else 1, B, finite(0, 1))
    g = function_system(lambda v: f"L{v}", finite(0, 1), finite("L0", "L1"))
    lhs = compose_hier(compose_hier(head, f), g)
    rhs = compose_hier(head, compose_hier(f, g))
    verdict = quasi_bisim(lhs, rhs, "forall", "exists", horizon=8, tol=0.0)
    assert verdict["related"], verdict["witness"]


def test_tensor_hier_runs_sides_independently():
    two = tensor_hier(blinker(2), blinker(4))
    assert two.states == prod(finite(0, 1), finite(0, 1, 2, 3))
    lens = two.emit(0, (0, 1))
    assert lens.forward(((), ())) == ("even", "odd")


# -- monomial tables ---------------------------------------------------------


def test_hier_tables_roundtrip():
    S = finite("s0", "s1")
    T = finite("t0",)
    states = finite(0, 1)

    def o1(x, a):
        return "go" if (x + a) % 2 else "stay"

    def o2(x, a, tp):
        return "s0" if x else "s1"

    def u(x, a, tp):
        return dirac(states, (x + a) % 2)

    hs = hier_from_tables(
        A=finite(0, 1), S=S, B=finite("go", "stay"), T=T,
        states=states,
        o1=lambda t, x, a: o1(x, a),
        o2=lambda t, x, a, tp: o2(x, a, tp),
        u=lambda t, x, a, tp: u(x, a, tp),
    )
    assert hs.source == monomial(finite(0, 1), S)
    assert hs.target == monomial(finite("go", "stay"), T)
    for x in (0, 1):
        lens = hs.emit(1, x)
        for a in (0, 1):
            assert lens.forward(a) == o1(x, a)
            assert dirac_point(lens.backward(a, "t0")) == o2(x, a, "t0")
            assert prob(hs.absorb(1, x, a, "t0"), (x + a) % 2) == 1.0


# -- traces and quasi-bisimilarity --------------------------------------------


def test_trace_of_identity_system_is_constant():
    idA = id_hier(linear(A))
    sections = hom_sections([idA], horizon=4)
    assert len(sections) == 3  # one choice of offered position per lens
    tr = trace(idA, sections[0], idA.init, horizon=4)
    assert tr.times == (0, 1, 2, 3, 4)
    assert all(isinstance(v, Dirac) for v in tr.values)
    assert len({v.point for v in tr.values}) == 1


def test_trace_of_flat_system_follows_outputs():
    states = finite(0, 1, 2)
    sysm = mk_system(
        linear(states), states, lambda t, s: s,
        lambda t, s, d: dirac(states, (s + 1) % 3), time_nat(),
    )
    tr = trace(sysm, trivial_section(linear(states)), dirac(states, 1), 3)
    assert [v.point for v in tr.values] == [1, 2, 0, 1]


def test_quasi_bisim_is_reflexive():
    sysm = blinker(4)
    verdict = quasi_bisim(sysm, sysm, "forall", "exists", horizon=8, tol=0.0)
    assert verdict["related"]


def test_blinkers_of_even_length_are_trace_equivalent():
    verdict = quasi_bisim(blinker(2), blinker(4), horizon=12, tol=0.0)
    assert verdict["related"]
    alpha, beta = verdict["witness"]
    assert alpha is not None and beta is not None


def test_mismatch_is_reported_at_first_divergence():
    """Machines that agree for two ticks and split at the third."""
    states = finite(0, 1, 2, 3)
    B = finite("a", "b")

    def machine(last):
        def emit(t, x):
            lab = "a" if x < 3 else last
            return det_polymap(y(), linear(B), lambda i: lab, lambda i, d: ())

        def absorb(t, x, i, d):
            return dirac(states, min(x + 1, 3))

        return mk_hier(y(), linear(B), states, emit, absorb,
                       init=dirac(states, 0))

    one, other = machine("a"), machine("b")
    verdict = quasi_bisim(one, other, "forall", "forall", horizon=8, tol=0.0)
    assert not verdict["related"]
    assert verdict["witness"]["t"] == 3
    assert verdict["witness"]["deviation"] == 1.0


def test_quantifier_modes_differ():
    """Exists finds the matching start; forall trips on mismatched starts."""
    shifted = blinker(2)
    verdict_e = quasi_bisim(blinker(2), shifted, "exists", "exists",
                            horizon=6, tol=0.0)
    assert verdict_e["related"]
    # forall-forall demands every pair of candidate starts agree, and the
    # parity-1 start against parity-0 start does not
    verdict_f = quasi_bisim(blinker(2), shifted, "forall", "forall",
                            horizon=6, tol=0.0)
    assert not verdict_f["related"]


def test_stochastic_hier_absorb_law():
    states = finite(0, 1)

    def emit(t, x):
        return det_polymap(y(), linear(states), lambda i: x, lambda i, d: ())

    def absorb(t, x, i, d):
        return uniform(states)

    hs = mk_hier(y(), linear(states), states, emit, absorb)
    sections = hom_sections([hs], horizon=2)
    tr = trace(hs, sections[0], dirac(states, 0), 2)
    assert prob_of_key(tr.values[1]) == 0.5


def prob_of_key(v):
    items = list(v.items) if hasattr(v, "items") else [(v.point, 1.0)]
    return items[0][1]


# -- bidirectional composition -------------------------------------------------


def test_hibi_compose_requires_distribution_inputs():
    f = function_system(lambda a: a, A, A)
    with pytest.raises(HierError):
        hibi_compose(f, f)


def test_hibi_compose_refuses_a_mismatched_middle():
    """The left factor must show the points the right factor takes laws of,
    and take back the directions it feeds back."""
    src, tgt = monomial(dist_space(A), unit()), monomial(A, unit())

    def emit(t, x):
        return det_polymap(src, tgt, lambda i: 0, lambda i, d: ())

    right = mk_hier(src, tgt, unit(), emit, lambda t, x, i, d: dirac(unit(), ()))
    shows_labels = replace(right, target=monomial(finite("a", "b"), unit()))
    with pytest.raises(HierError, match=re.escape(
        "middle spaces disagree: left outputs finite['a', 'b'], "
        "right consumes distributions over finite[0, 1, 2]"
    )):
        hibi_compose(shows_labels, right)
    takes_bits = replace(right, target=monomial(A, finite(0, 1)))
    with pytest.raises(HierError, match="^middle backward directions disagree$"):
        hibi_compose(takes_bits, right)


def test_composites_refuse_mismatched_factors():
    """Sequential factors must meet at one interface, and both kinds of
    composite need one time monoid."""
    cp, shows = copy_system(A), function_system(lambda a: a, A, A)
    with pytest.raises(HierError, match=re.escape(
        f"cannot compose: left system targets {cp.target!r}, right system expects {shows.source!r}"
    )):
        compose_hier(cp, shows)
    ticks_real = replace(shows, time=time_real(0.1))
    with pytest.raises(HierError, match="^composed systems must share the time monoid$"):
        compose_hier(shows, ticks_real)
    with pytest.raises(HierError, match="^tensored systems must share the time monoid$"):
        tensor_hier(shows, ticks_real)


def test_quasi_bisim_refuses_an_unknown_quantifier():
    for modes in (("some", "exists"), ("forall", "every")):
        with pytest.raises(HierError, match="^quantifier modes are 'exists' or 'forall'$"):
            quasi_bisim(id_hier(linear(A)), id_hier(linear(A)), *modes)


def test_hibi_compose_lifts_points_to_diracs():
    """Without a forward lift the middle wire carries the monad unit."""
    S = unit()

    def mk_level(offset):
        src = monomial(dist_space(A), unit())
        tgt = monomial(A, unit())
        states = finite(0, 1, 2)

        def emit(t, x):
            return det_polymap(src, tgt, lambda i: x, lambda i, d: ())

        def absorb(t, x, pi_in, d):
            # move toward the mode of the incoming belief, shifted
            mode = max(points(A), key=lambda a: prob(pi_in, a))
            return dirac(states, (mode + offset) % 3)

        return mk_hier(src, tgt, states, emit, absorb, init=dirac(states, 0))

    lower, upper = mk_level(1), mk_level(0)
    both = hibi_compose(lower, upper)
    assert both.source == monomial(dist_space(A), unit())
    assert both.target == monomial(A, unit())
    law = both.absorb(0, (0, 0), uniform(A), ())
    # lower sees the uniform belief (mode 0) and moves to 1;
    # upper sees dirac at lower's emitted 0 and stays at 0
    assert prob(law, (1, 0)) == 1.0


def test_hibi_composite_is_tabulated_by_walking_it():
    """The right factor of a hibi composite takes distributions, so it has no
    table; the composite is compared on its own table when its source
    positions are finite, and cannot be tabulated when they are
    distributions."""
    src, tgt = monomial(dist_space(A), unit()), monomial(A, unit())
    states = finite(0, 1)

    def level(source):
        def emit(t, x):
            return det_polymap(source, tgt, lambda i: x, lambda i, d: ())

        def absorb(t, x, i, d):
            return dirac(states, 1 - x)

        return mk_hier(source, tgt, states, emit, absorb, init=dirac(states, 0))

    both = hibi_compose(level(src), level(src))
    assert both.absorb(0, (0, 1), uniform(A), ()) == dirac(prod(states, states), (1, 0))
    with pytest.raises(HierError, match="tabulating needs finite states and source positions"):
        quasi_bisim(both, both, horizon=2)
    pointed = hibi_compose(level(tgt), level(src))
    assert quasi_bisim(pointed, pointed, horizon=2)["related"]


def test_a_backward_law_outside_the_middle_fibre_is_named():
    """gamma answers with a direction that is not in beta's target fibre, so
    the composite's backward traffic has nowhere to go.  gamma's own key
    refuses it, at gamma's source position."""
    S = finite("s0", "s1")
    beta = mk_hier(y(), monomial(A, S), finite(0, 1),
                   lambda t, x: det_polymap(y(), monomial(A, S), lambda i: x, lambda i, d: ()),
                   lambda t, x, i, s: dirac(finite(0, 1), 1 - x))
    stray = PolyMap(monomial(A, S), linear(A), lambda a: a,
                    lambda a, d: dirac(finite("zzz"), "zzz"), DETERMINISTIC)
    gamma = mk_hier(monomial(A, S), linear(A), unit(), lambda t, z: stray,
                    lambda t, z, a, d: dirac(unit(), ()))
    both = compose_hier(beta, gamma)
    for run in (lambda: tabulate(both, 2),
                lambda: quasi_bisim(both, both, horizon=2)):
        with pytest.raises(PolyError, match=r"source position 0, .* direction \(\) with 'zzz', "
                                            r"which is not a point of finite\['s0', 's1'\]"):
            run()


def test_a_backward_law_outside_a_unit_middle_fibre_is_named():
    """On a unit middle fibre every direction reads as () in a normalized
    lens key, so the stray answer is refused before it is normalized."""
    beta = mk_hier(y(), linear(A), finite(0, 1),
                   lambda t, x: det_polymap(y(), linear(A), lambda i: x, lambda i, d: ()),
                   lambda t, x, i, d: dirac(finite(0, 1), 1 - x))
    stray = PolyMap(linear(A), linear(A), lambda a: a,
                    lambda a, d: dirac(finite("zzz"), "zzz"), DETERMINISTIC)
    gamma = mk_hier(linear(A), linear(A), unit(), lambda t, z: stray,
                    lambda t, z, a, d: dirac(unit(), ()))
    both = compose_hier(beta, gamma)
    for run in (lambda: tabulate(both, 2),
                lambda: quasi_bisim(both, both, horizon=2)):
        with pytest.raises(PolyError, match=r"source position 0, .* direction \(\) with 'zzz', "
                                            r"which is not a point of unit\(\)"):
            run()


def test_a_stray_backward_atom_is_named_where_no_route_reads_it():
    """A leaf whose normalized key would hide a stray atom is refused on its
    own, and a stray in a middle law that mixes directions, whose composite
    is walked like a leaf, is refused where the middle factor is keyed, at
    its own source position."""
    stray = PolyMap(linear(A), linear(A), lambda a: a,
                    lambda a, d: dirac(finite("zzz"), "zzz"), DETERMINISTIC)
    leaf = mk_hier(linear(A), linear(A), unit(), lambda t, z: stray,
                   lambda t, z, a, d: dirac(unit(), ()))
    with pytest.raises(PolyError, match=r"source position 0, .* with 'zzz'"):
        tabulate(leaf, 2)
    S = finite("s0", "s1")
    beta = mk_hier(y(), monomial(A, S), finite(0, 1),
                   lambda t, x: det_polymap(y(), monomial(A, S), lambda i: x, lambda i, d: ()),
                   lambda t, x, i, s: dirac(finite(0, 1), 1 - x))
    mixed = categorical(finite("s0", "zzz"), {"s0": 0.5, "zzz": 0.5})
    lens = PolyMap(monomial(A, S), linear(A), lambda a: a, lambda a, d: mixed, STOCHASTIC)
    gamma = mk_hier(monomial(A, S), linear(A), unit(), lambda t, z: lens,
                    lambda t, z, a, d: dirac(unit(), ()))
    both = compose_hier(beta, gamma)
    for run in (lambda: tabulate(both, 2),
                lambda: quasi_bisim(both, both, horizon=2)):
        with pytest.raises(PolyError, match=r"source position 0, .* with 'zzz'"):
            run()


def test_a_standalone_leaf_answering_off_its_fibre_is_refused():
    """A backward law on a labelled fibre whose atom lies outside it: the
    table route and the closure route refuse the leaf alike, naming its
    source position, the direction and the atom."""
    S = finite("s0", "s1")
    stray = PolyMap(monomial(A, S), linear(A), lambda a: a,
                    lambda a, d: dirac(finite("s0", "zzz"), "zzz"), DETERMINISTIC)
    leaf = mk_hier(monomial(A, S), linear(A), unit(), lambda t, z: stray,
                   lambda t, z, a, d: dirac(unit(), ()))
    message = (r"at source position 0, the backward law answers direction \(\) with 'zzz', "
               r"which is not a point of finite\['s0', 's1'\]")
    for run in (lambda: tabulate(leaf, 2),
                lambda: quasi_bisim(leaf, leaf, "forall", "forall", horizon=2),
                lambda: _closure_trace(leaf, HomSection(()), dirac(unit(), ()), 2)):
        with pytest.raises(PolyError, match=message):
            run()


def test_mk_hier_validates_emitted_shape():
    def emit(t, x):
        return det_polymap(y(), linear(A), lambda i: 0, lambda i, d: ())

    with pytest.raises(HierError):
        mk_hier(linear(A), linear(A), finite(0), emit,
                lambda t, x, i, d: dirac(finite(0), 0))


def test_hier_system_optional_fields_are_keyword_only():
    """A seventh positional argument, where an effect label used to go, is
    refused instead of being read as the forward lift."""
    states = finite(0)

    def emit(t, x):
        return det_polymap(y(), linear(A), lambda i: 0, lambda i, d: ())

    args = (y(), linear(A), states, time_nat(), emit, lambda t, x, i, d: dirac(states, 0))
    with pytest.raises(TypeError):
        HierSystem(*args, STOCHASTIC)
    hs = HierSystem(*args, init=dirac(states, 0))
    assert hs.forward_lift is None and hs.init == dirac(states, 0)


def test_quasi_bisim_on_infinite_states_walks_the_closures():
    """A system over a Euclidean state space has no table; with explicit
    sections and initial laws it is still compared, trace by trace."""
    states = euclid(1)
    B = finite("even", "odd")

    def machine(shift):
        def emit(t, x):
            lab = "even" if int(x[0] + shift) % 2 == 0 else "odd"
            return det_polymap(y(), linear(B), lambda i: lab, lambda i, d: ())

        return mk_hier(y(), linear(B), states, emit,
                       lambda t, x, i, d: dirac(states, (x[0] + 1.0,)))

    sections = hom_sections([blinker(2)], horizon=4)
    start = [dirac(states, (0.0,))]
    same = quasi_bisim(machine(0), machine(2), sections=sections, horizon=4,
                       tol=0.0, alphas=start, betas=start)
    assert same["related"]
    other = quasi_bisim(machine(0), machine(1), "forall", "forall",
                        sections=sections, horizon=4, tol=0.0, alphas=start, betas=start)
    assert not other["related"]
    assert other["witness"]["t"] == 0


def test_quasi_bisim_refuses_to_compare_under_no_section():
    """A verdict over no environment would hold vacuously, so no section --
    none given, or none enumerated because a lens offers no response -- is
    refused.  Under the enumerated sections the same pair is refuted."""
    B = finite("even", "odd")
    constant = mk_hier(y(), linear(B), finite(0),
                       lambda t, x: det_polymap(y(), linear(B), lambda i: "even", lambda i, d: ()),
                       lambda t, x, i, d: dirac(finite(0), 0))
    refuted = quasi_bisim(blinker(2), constant, "forall", "forall", horizon=3)
    assert not refuted["related"]
    assert (refuted["witness"]["t"], refuted["witness"]["deviation"]) == (1, 1.0)
    with pytest.raises(HierError, match="no section"):
        quasi_bisim(blinker(2), constant, "forall", "forall", sections=[], horizon=3)
    mute_target = monomial(B, finite())
    mute = mk_hier(y(), mute_target, finite(0),
                   lambda t, x: det_polymap(y(), mute_target, lambda i: "even", lambda i, d: ()),
                   lambda t, x, i, d: dirac(finite(0), 0))
    assert hom_sections([mute], horizon=3) == []
    with pytest.raises(HierError, match="no section"):
        quasi_bisim(mute, mute, "forall", "forall", horizon=3)


def forking(swap=False):
    """Three states.  At tick 0 every state shows "l0", whose response "a"
    moves to state 1 and "b" to state 2 (the other way round with ``swap``);
    later state x shows "l{x}" and stays.  Its three lens keys, in
    first-seen order: l0, l1, l2."""
    states = finite(0, 1, 2)
    target = monomial(finite("l0", "l1", "l2"), finite("a", "b"))

    def emit(t, x):
        label = "l0" if t == 0 else f"l{x}"
        return det_polymap(y(), target, lambda i: label, lambda i, d: ())

    def absorb(t, x, i, d):
        return dirac(states, x if t else (1 if (d == "a") != swap else 2))

    return mk_hier(y(), target, states, emit, absorb)


def test_a_partial_section_answers_only_the_lenses_it_reaches():
    """Section A answers "a" at l0 and has no entry for l2; section B answers
    "b" at l0 and has no entry for l1.  Neither ever meets the lens it lacks,
    so the verdict holds, also with A and B moved together."""
    hs = forking()
    full = hom_sections([hs], horizon=2)  # options in product order: a, b
    go_a = HomSection(full[0].table[:2])
    go_b = HomSection((full[4].table[0], full[4].table[2]))
    for part, whole in ((go_a, full[0]), (go_b, full[4])):
        start = dirac(hs.states, 0)
        assert trace(hs, part, start, 2) == trace(hs, whole, start, 2)
    verdict = quasi_bisim(hs, hs, "forall", "exists", sections=[go_a, go_b] * 4, horizon=2)
    assert verdict["related"] and verdict["sections"] == 8


def test_a_section_missing_a_reached_lens_is_named_with_its_tick():
    hs = forking()
    full = hom_sections([hs], horizon=2)
    go_a = HomSection(full[0].table[:2])
    go_b = HomSection((full[4].table[0], full[4].table[2]))
    lacks_l1 = HomSection((full[0].table[0], full[0].table[2]))
    with pytest.raises(HierError, match="section 40 has no entry for an emitted lens at tick 1"):
        quasi_bisim(hs, hs, "forall", "forall", sections=[go_a, go_b] * 20 + [lacks_l1],
                    horizon=2)


def test_a_refutation_stands_without_reading_a_later_partial_section():
    """Under the full section "a" the two machines part at tick 1 (l1
    against l2), so every pair has mismatched within section 0.  Section 1
    has no entry for l0, which every state shows at tick 0.  It is never
    read, so the refutation is returned; where section 1 is read, it is
    named."""
    hs = forking()
    full = hom_sections([hs], horizon=2)
    no_l0 = HomSection(full[0].table[1:])
    verdict = quasi_bisim(hs, forking(swap=True), "forall", "forall",
                          sections=[full[0], no_l0], horizon=2)
    assert not verdict["related"] and verdict["sections"] == 2
    assert verdict["witness"] == {"alpha": 0, "beta": 0, "section": 0, "t": 1, "deviation": 1.0}
    with pytest.raises(HierError, match="section 1 has no entry for an emitted lens at tick 0"):
        quasi_bisim(hs, hs, "forall", "forall", sections=[full[0], no_l0], horizon=2)
    with pytest.raises(HierError, match="section 0 has no entry for an emitted lens at tick 0"):
        quasi_bisim(hs, hs, "forall", "forall", sections=[no_l0], horizon=2)
    with pytest.raises(HierError, match="section has no entry for an emitted lens at tick 0"):
        trace(hs, no_l0, dirac(hs.states, 0), 2)


def test_quasi_bisim_on_infinite_states_needs_explicit_sections():
    states = euclid(1)
    B = finite("even", "odd")
    drift = mk_hier(y(), linear(B), states,
                    lambda t, x: det_polymap(y(), linear(B), lambda i: "even", lambda i, d: ()),
                    lambda t, x, i, d: dirac(states, (x[0] + 1.0,)))
    start = [dirac(states, (0.0,))]
    with pytest.raises(HierError, match="explicit sections"):
        quasi_bisim(drift, drift, horizon=2, alphas=start, betas=start)


def test_a_negative_horizon_is_refused():
    """Ticks run 0..horizon, so horizon -1 leaves none: every tabulating or
    tracing entry point refuses it by name, for finite and infinite states."""
    hs = blinker(2)
    sigma = hom_sections([hs], horizon=0)[0]
    states = euclid(1)
    B = finite("even", "odd")
    drift = mk_hier(y(), linear(B), states,
                    lambda t, x: det_polymap(y(), linear(B), lambda i: "even", lambda i, d: ()),
                    lambda t, x, i, d: dirac(states, (x[0] + 1.0,)))
    start = [dirac(states, (0.0,))]
    for refused in (
        lambda: tabulate(hs, -1),
        lambda: hom_sections([hs], horizon=-1),
        lambda: trace(hs, sigma, dirac(hs.states, 0), -1),
        lambda: quasi_bisim(hs, blinker(4), horizon=-1),
        lambda: trace(drift, sigma, start[0], -1),
        lambda: quasi_bisim(drift, drift, sections=[sigma], horizon=-1, alphas=start, betas=start),
    ):
        with pytest.raises(HierError, match="horizon must be non-negative, got -1"):
            refused()


def test_quasi_bisim_on_flat_systems():
    """Flat systems compare by their output traces under every section."""
    out = finite(0, 1, 2)

    def cycle(n, step=1):
        states = finite(*range(n))
        return mk_system(linear(out), states, lambda t, s: s % 3,
                         lambda t, s, d: dirac(states, (s + step) % n), time_nat())

    same = quasi_bisim(cycle(3), cycle(6), "forall", "exists", horizon=7, tol=0.0)
    assert same["related"], same["witness"]
    other = quasi_bisim(cycle(3), cycle(3, step=2), "forall", "exists", horizon=7, tol=0.0)
    assert not other["related"]
    assert other["witness"] == {"alpha": 0, "beta": 0, "section": 0, "t": 1, "deviation": 1.0}


def test_a_flat_system_is_related_to_the_hierarchical_system_from_y():
    """A flat system on By is the hierarchical system y -> By that emits the
    constant lens at its output, so it compares with a hand-built one; a
    section of another interface is refused."""
    B = finite("even", "odd")
    states = finite(0, 1)
    flat = mk_system(linear(B), states, lambda t, x: "even" if x % 2 == 0 else "odd",
                     lambda t, x, d: dirac(states, (x + 1) % 2), time_nat())
    for theta, psi in ((flat, blinker(4)), (blinker(4), flat)):
        verdict = quasi_bisim(theta, psi, "forall", "exists", horizon=8, tol=0.0)
        assert verdict["related"], verdict
    other = trivial_section(linear(A))
    with pytest.raises(HierError, match="section does not match the system interface"):
        trace(flat, other, dirac(states, 0), 2)
    with pytest.raises(HierError, match="section does not match the system interface"):
        quasi_bisim(flat, blinker(2), sections=[other], horizon=2)
