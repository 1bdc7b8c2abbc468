"""The square laws of bundles and system morphisms on tabulated closures.

When both closures of a square carry tick matrices, ``_square_cases`` reads
each case from rows of their powers instead of stepping, pushing forward and
comparing one law per state.  The per-state route is the specification: every
report must be its report, compared as ``json.dumps`` text, so every
deviation is the same float.  A closure wrapped as a plain ``ClosedSystem``
has no tick matrix and is stepped state by state; ``per_state`` wraps every
closure that the checks make.

The generated examples are derandomized, so every run checks the same
systems.
"""

import contextlib
import dataclasses
import json
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from polydyn import (
    STOCHASTIC,
    BundleSystem,
    ClosedSystem,
    PolyError,
    SpaceError,
    all_sections,
    categorical,
    check_bundle,
    dirac,
    finite,
    is_system_morphism,
    mk_system,
    monomial,
    points,
    unit,
)
from polydyn import random_bundle, systems
from polydyn.specio import bundle_example

NEAR_ONE = 1.0 - 2.0**-52  # within categorical's 1e-12 of 1, so accepted
TIMES = (0, 1, 2, 3)
TRIVIAL = monomial(unit(), unit())

GENERATED = settings(
    derandomize=True,
    database=None,
    max_examples=80,
    deadline=None,
    # each example checks its squares twice, state by state the second time;
    # neither draw nor check may warn
    suppress_health_check=[HealthCheck.too_slow],
)


@contextlib.contextmanager
def per_state():
    """Every closure made inside is a plain ``ClosedSystem`` around the
    tabulated one, so its squares are stepped state by state."""
    real = systems.closure

    def plain(sys_, sigma):
        cs = real(sys_, sigma)
        return ClosedSystem(cs.states, cs.time, cs.step)

    with mock.patch.object(systems, "closure", plain), \
            mock.patch.object(random_bundle, "closure", plain):
        yield


def both_routes(check) -> tuple:
    """The report of ``check()`` as JSON text, from rows of tick-matrix powers
    and then state by state."""
    tabulated = json.dumps(check())
    with per_state():
        stepped = json.dumps(check())
    return tabulated, stepped


def system(states, update):
    """A system over the trivial interface whose one-tick law at s is
    ``update[s]``."""
    return mk_system(
        TRIVIAL, states, lambda t, s: (), lambda t, s, d: update[s], effect=STOCHASTIC
    )


def square_checks(total, base, proj):
    """The bundle check and the morphism check of one projection square."""
    return [
        lambda: check_bundle(BundleSystem(base, total, proj)),
        lambda: is_system_morphism(proj, total, base, all_sections(total.interface), TIMES),
    ]


def test_a_one_atom_law_is_a_point_mass_on_both_routes():
    """A one-tick law with one atom of weight 1 - 2**-52: pushed forward it is
    a point mass, while the base's step(1) is that law itself, so the square
    misses by 2**-52 at t = 1; at t = 2 and 3 both sides are point masses."""
    total = finite(0, 1, 2, 3)
    base = finite("a", "b")
    tick = {x: dirac(total, (x + 1) % 4) for x in range(1, 4)}
    tick[0] = categorical(total, [(1, NEAR_ONE)])
    base_tick = {"a": categorical(base, [("b", NEAR_ONE)]), "b": dirac(base, "a")}
    checks = square_checks(system(total, tick), system(base, base_tick), lambda x: "ab"[x % 2])
    for check in checks:
        tabulated, stepped = both_routes(check)
        assert tabulated == stepped
        report = json.loads(stepped)
        assert report["max_deviation"] == 2.0**-52
        assert {(v["t"], v["state"]) for v in report["violations"]} == {(1, 0), (1, 2)}


def test_a_one_tick_law_sums_its_items_in_its_own_order():
    """Dirichlet weights listed out of ``points`` order, three atoms of them
    over one base atom: at t = 1 the per-state route adds them in the law's
    order, and that sum is not the column-order sum."""
    total = finite(0, 1, 2, 3)
    base = finite("a", "b")
    w = np.random.default_rng(1).dirichlet(np.ones(4)).tolist()
    assert (w[2] + w[0]) + w[1] != (w[0] + w[1]) + w[2]  # the order shows
    tick = {x: dirac(total, x) for x in range(1, 4)}
    tick[0] = categorical(total, [(2, w[2]), (0, w[0]), (3, w[3]), (1, w[1])])
    base_tick = {"a": categorical(base, [("a", 1.0 - w[3]), ("b", w[3])]), "b": dirac(base, "b")}
    checks = square_checks(
        system(total, tick), system(base, base_tick), lambda x: "b" if x == 3 else "a"
    )
    for check in checks:
        tabulated, stepped = both_routes(check)
        assert tabulated == stepped


# ---------------------------------------------------------------------------
# generated squares


INTERFACES = [
    TRIVIAL,
    monomial(finite(0, 1), unit()),
    monomial(unit(), finite("u", "v")),
    monomial(finite(0, 1), finite("u", "v")),
]


@st.composite
def laws(draw, states):
    """A law over ``states`` whose items are listed in a drawn order: weights
    k/8, Dirichlet weights, or one atom of weight 1 - 2**-52."""
    order = draw(st.permutations(list(points(states))))
    kind = draw(st.sampled_from(["dyadic", "dirichlet", "near-one"]))
    if kind == "near-one":
        return categorical(states, [(order[0], NEAR_ONE)])
    if kind == "dyadic":
        eighths = Counter(draw(st.lists(st.sampled_from(order), min_size=8, max_size=8)))
        return categorical(states, [(a, eighths[a] / 8) for a in order if eighths[a]])
    k = draw(st.integers(1, len(order)))
    weights = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).dirichlet(np.ones(k))
    return categorical(states, list(zip(order, weights.tolist())))


@st.composite
def finite_systems(draw, interface, labels):
    """A system on at most four states over ``interface``."""
    states = finite(*labels[: draw(st.integers(1, 4))])
    positions = list(points(interface.positions))
    out = {s: draw(st.sampled_from(positions)) for s in points(states)}
    update = {
        (s, d): draw(laws(states))
        for s in points(states)
        for d in points(interface.dirs_at(out[s]))
    }
    return mk_system(
        interface, states, lambda t, s: out[s], lambda t, s, d: update[(s, d)],
        effect=STOCHASTIC,
    )


@st.composite
def squares(draw, shared_interface: bool):
    """A total system, a base system and a projection between their states,
    which may merge states and need not make the square commute."""
    total_interface = draw(st.sampled_from(INTERFACES))
    base_interface = total_interface if shared_interface else draw(st.sampled_from(INTERFACES))
    total = draw(finite_systems(total_interface, [0, 1, 2, 3]))
    base = draw(finite_systems(base_interface, ["a", "b", "c", "d"]))
    image = {x: draw(st.sampled_from(list(points(base.states)))) for x in points(total.states)}
    return total, base, image.__getitem__


@GENERATED
@given(squares(shared_interface=False))
def test_generated_bundle_reports_are_the_per_state_reports(square):
    total, base, proj = square
    tabulated, stepped = both_routes(lambda: check_bundle(BundleSystem(base, total, proj)))
    assert tabulated == stepped


@GENERATED
@given(squares(shared_interface=True))
def test_generated_morphism_reports_are_the_per_state_reports(square):
    total, base, proj = square
    sections = all_sections(total.interface)
    tabulated, stepped = both_routes(
        lambda: is_system_morphism(proj, total, base, sections, TIMES)
    )
    assert tabulated == stepped


# ---------------------------------------------------------------------------
# work and errors


def test_a_tabulated_bundle_check_steps_each_state_once_per_closure(monkeypatch):
    """No law is pushed forward or compared, and each closure runs its
    one-tick map once per state, to build its tick matrix."""
    bs = bundle_example(3, 2)
    laws_made = Counter()
    for name in ("pushforward", "dist_distance"):
        real = getattr(systems, name)

        def counted(*args, real=real, name=name, **kwargs):
            laws_made[name] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(systems, name, counted)
    ticks = Counter()

    def counting(sys_, side):
        def update(t, s, d):
            ticks[(side, t, s)] += 1
            return sys_.update(t, s, d)

        return dataclasses.replace(sys_, update=update)

    base, total = counting(bs.base_sys, "base"), counting(bs.total_sys, "total")
    report = check_bundle(BundleSystem(base, total, bs.proj))
    assert report["pass"]
    assert laws_made == Counter()
    expected = Counter()
    for side, sys_ in (("base", base), ("total", total)):
        for s in points(sys_.states):
            expected[(side, 1, s)] = len(all_sections(sys_.interface))
    assert ticks == expected


def test_an_off_base_projection_raises_on_both_routes():
    bs = bundle_example(3, 2)

    def proj(s):
        return "elsewhere" if s == (2, 1) else s[0]

    for route in (contextlib.nullcontext, per_state):
        with route(), pytest.raises(SpaceError, match="'elsewhere'"):
            check_bundle(BundleSystem(bs.base_sys, bs.total_sys, proj))


def test_a_non_integer_time_raises_on_both_routes():
    bs = bundle_example(3, 2)
    base = bs.base_sys
    sections = all_sections(base.interface)
    for route in (contextlib.nullcontext, per_state):
        with route(), pytest.raises(PolyError, match="1.5"):
            is_system_morphism(lambda w: w, base, base, sections, (1, 1.5))
