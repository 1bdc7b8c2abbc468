"""The flat law checks share one report: its keys, its verdict and its worst
deviation mean the same thing for every law."""

import dataclasses
import math
import re

import pytest

from polydyn import (
    DETERMINISTIC,
    STOCHASTIC,
    BundleSystem,
    MeasurePreservingSystem,
    MPMorphism,
    OpenSystemError,
    RandomSystem,
    Rng,
    all_sections,
    categorical,
    check_bundle,
    check_closed_flow,
    check_flow,
    check_measure_preserving,
    check_mp_morphism,
    check_random_system,
    closed_from_kernel,
    closure,
    dirac,
    finite,
    is_system_morphism,
    linear,
    mk_measure_preserving,
    mk_probability_space,
    mk_system,
    monomial,
    points,
    time_nat,
    uniform,
    unit,
)
from polydyn.specio import (
    biased_swap_example,
    bundle_example,
    rotation_example,
    skew_random_example,
)

from helpers import random_finite_system

Z3 = finite(0, 1, 2)


def identity_system():
    """Three states, each showing itself and staying put."""
    return mk_system(linear(Z3), Z3, lambda t, s: s, lambda t, s, d: dirac(Z3, s))


def blind_system(shift: int):
    """Three states behind one position, moving by ``shift`` each tick."""
    return mk_system(
        monomial(finite("p"), unit()),
        Z3,
        lambda t, s: "p",
        lambda t, s, d: dirac(Z3, (s + shift) % 3),
        effect=DETERMINISTIC,
    )


def tick_dependent_output():
    states = finite(0, 1)
    return mk_system(
        linear(states),
        states,
        lambda t, s: (s + t) % 2,
        lambda t, s, d: dirac(states, s),
        time_nat(),
    )


def half_rotation():
    z2 = finite(0, 1)
    return mk_measure_preserving(
        mk_probability_space(z2, uniform(z2)),
        closed_from_kernel(z2, time_nat(), lambda t, w: dirac(z2, (w + t) % 2)),
    )


def drifting_rds():
    """The skew product with a fibre update that ignores the base shift."""
    rds = skew_random_example(4, 2)
    total = rds.total_states
    return RandomSystem(
        rds.base,
        total,
        rds.proj,
        rds.interface,
        rds.output,
        lambda t, s, d: dirac(total, ((s[0] + 2) % 4, s[1])),
    )


def stray_state_rds():
    """The skew product with one more total state, (0, 2), listed last: no
    update reaches it, and its own update jumps to base state 2, where the
    base shift goes to 1.  Every other state follows the skew product."""
    rds = skew_random_example(4, 2)
    total = finite(*points(rds.total_states), (0, 2))

    def update(t, s, d):
        if s == (0, 2):
            return dirac(total, (2, 0))
        return dirac(total, rds.update(t, s, d).point)

    return RandomSystem(
        rds.base, total, rds.proj, rds.interface, lambda t, s: s[1] % 2, update
    )


def collapsed_bundle():
    """The example bundle with a projection that forgets the base state."""
    bs = bundle_example(3, 2)
    return BundleSystem(bs.base_sys, bs.total_sys, lambda s: 0)


def squaring_clock():
    """A finite kernel that moves t^2 steps in t ticks: no flow."""
    return closed_from_kernel(Z3, time_nat(), lambda t, w: dirac(Z3, (w + t * t) % 3))


SPLITS = [(1, 1), (1, 2), (2, 1)]

# (law, must pass, thunk returning the report, its tolerance, extra keys)
CASES = [
    ("check_closed_flow", True,
     lambda: check_closed_flow(
         closure(blind_system(1), all_sections(blind_system(1).interface)[0]),
         SPLITS, list(points(Z3))),
     0.0, []),
    ("check_closed_flow", False,
     lambda: check_closed_flow(squaring_clock(), SPLITS, list(points(Z3))), 0.0, []),
    ("check_flow", True,
     lambda: check_flow(random_finite_system(Rng(3)), times=SPLITS), 0.0, ["sections"]),
    ("check_flow", False,
     lambda: check_flow(tick_dependent_output(), times=SPLITS), 0.0, ["sections"]),
    ("is_system_morphism", True,
     lambda: is_system_morphism(
         lambda x: (x + 1) % 3, blind_system(1), blind_system(1),
         all_sections(blind_system(1).interface), [1, 2]),
     0.0, []),
    ("is_system_morphism", False,
     lambda: is_system_morphism(
         lambda x: x, blind_system(1), blind_system(0),
         all_sections(blind_system(1).interface), [1, 2]),
     0.0, []),
    ("check_measure_preserving", True,
     lambda: check_measure_preserving(rotation_example(6), (1, 2, 3)), 0.0, []),
    ("check_measure_preserving", False,
     lambda: check_measure_preserving(
         MeasurePreservingSystem(*biased_swap_example()), (1, 2, 3)),
     0.0, []),
    ("check_mp_morphism", True,
     lambda: check_mp_morphism(MPMorphism(rotation_example(4), half_rotation(), lambda w: w % 2)),
     0.0, []),
    ("check_mp_morphism", False,
     lambda: check_mp_morphism(MPMorphism(rotation_example(6), rotation_example(3), lambda w: 0)),
     0.0, []),
    ("check_random_system", True, lambda: check_random_system(skew_random_example(4, 2)), 0.0, []),
    ("check_random_system", False, lambda: check_random_system(drifting_rds()), 0.0, []),
    ("check_bundle", True, lambda: check_bundle(bundle_example(3, 2)), 0.0, []),
    ("check_bundle", False, lambda: check_bundle(collapsed_bundle()), 0.0, []),
]


@pytest.mark.parametrize(
    "law, passes, run, tol, extra",
    CASES,
    ids=[f"{law}-{'pass' if ok else 'fail'}" for law, ok, *_ in CASES],
)
def test_flat_law_reports_share_one_shape(law, passes, run, tol, extra):
    report = run()
    assert list(report) == ["law", "pass", *extra, "max_deviation", "violations"]
    assert report["pass"] is passes
    assert report["pass"] == (report["max_deviation"] <= tol)
    assert (report["violations"] == []) is passes
    for v in report["violations"]:
        assert v["deviation"] > tol
        assert report["max_deviation"] >= v["deviation"]


def test_a_random_system_that_fails_at_one_state_is_named_there():
    """A must-fail control whose squares fail at one total state only, the
    stray state (0, 2), at every time: so a check that skips one state of
    its sample can pass it."""
    report = check_random_system(stray_state_rds())
    assert not report["pass"]
    assert [(v["t"], v["state"]) for v in report["violations"]] == [
        (1, (0, 2)), (2, (0, 2)), (3, (0, 2))
    ]


def test_failed_output_square_reports_an_infinite_deviation():
    a = identity_system()
    report = is_system_morphism(lambda x: (x + 1) % 3, a, a, all_sections(a.interface), [1])
    assert not report["pass"]
    assert [v["kind"] for v in report["violations"]] == ["output"] * 3
    assert all(v["deviation"] == math.inf for v in report["violations"])
    assert report["max_deviation"] == math.inf


def test_tick_dependent_output_reports_an_infinite_deviation():
    report = check_flow(tick_dependent_output(), times=[(1, 2)])
    assert not report["pass"]
    assert {v["kind"] for v in report["violations"]} == {"stationary-output"}
    assert report["max_deviation"] == math.inf


def test_stationary_update_deviation_within_tolerance_is_still_reported():
    states = finite(0, 1)
    eps = 1e-6

    def update(t, s, d):
        bump = eps if t > 1 else 0.0
        return categorical(states, {0: 0.5 + bump, 1: 0.5 - bump})

    sys_ = mk_system(
        linear(states), states, lambda t, s: s, update, time_nat(), STOCHASTIC
    )
    report = check_flow(sys_, times=[(1, 2)], tol=1e-3)
    assert report["pass"]
    assert report["violations"] == []
    assert report["max_deviation"] == pytest.approx(eps, rel=1e-6)


def test_stationarity_probe_reaches_every_tick_of_a_split():
    """A split (1, 1) runs the stored maps at ticks 1 and 2, so a map that
    changes only at t = 2 is a violation of it."""
    states = finite("a", "b")

    def update(t, s, d):
        flipped = {"a": "b", "b": "a"}[s] if t == 2 else s
        return dirac(states, flipped)

    sys_ = mk_system(
        monomial(finite("p"), unit()), states, lambda t, s: "p", update, time_nat(), STOCHASTIC
    )
    for times in ([(1, 1)], [(1, 2)]):
        report = check_flow(sys_, times=times, tol=0.0)
        assert not report["pass"]
        assert report["max_deviation"] == 1.0
        assert {v["t"] for v in report["violations"]} == {2}


# (check, law, the quantifier left empty, thunk): each would pass over no case
EMPTY_DOMAINS = [
    ("check_flow", "flow", "sections",
     lambda: check_flow(tick_dependent_output(), sections=[], times=SPLITS)),
    ("check_flow", "flow", "times",
     lambda: check_flow(tick_dependent_output(), times=[])),
    ("check_flow", "flow", "states",
     lambda: check_flow(tick_dependent_output(), times=SPLITS, states=[])),
    ("check_closed_flow", "flow", "states",
     lambda: check_closed_flow(squaring_clock(), SPLITS, [])),
    ("check_closed_flow", "flow", "times",
     lambda: check_closed_flow(squaring_clock(), [], list(points(Z3)))),
    ("is_system_morphism", "system-morphism", "sections",
     lambda: is_system_morphism(lambda x: x, blind_system(1), blind_system(0), [], [1, 2])),
    ("is_system_morphism", "system-morphism", "times",
     lambda: is_system_morphism(
         lambda x: x, blind_system(1), blind_system(0),
         all_sections(blind_system(1).interface), [])),
    ("check_measure_preserving", "measure-preserving", "generators",
     lambda: check_measure_preserving(MeasurePreservingSystem(*biased_swap_example()), ())),
]


@pytest.mark.parametrize(
    "law, quantifier, run",
    [case[1:] for case in EMPTY_DOMAINS],
    ids=[f"{check}-no-{quantifier}" for check, _, quantifier, _ in EMPTY_DOMAINS],
)
def test_a_law_over_an_empty_quantifier_is_refused_by_name(law, quantifier, run):
    """A law quantifies over all its cases, so over none it would pass: each
    check is refused, naming the law and the empty quantifier, although
    every one of these systems fails its law over a non-empty domain."""
    message = f"the {law} law was given no {quantifier} to check"
    with pytest.raises(OpenSystemError, match=f"^{re.escape(message)}$"):
        run()


def test_a_law_that_reaches_no_case_is_refused():
    """An interface with no section leaves the random-system square no case,
    so the check is refused rather than passed."""
    rds = skew_random_example(4, 2)
    no_section = dataclasses.replace(
        rds, interface=monomial(finite("p"), finite()), output=lambda t, s: "p"
    )
    assert all_sections(no_section.interface) == []
    with pytest.raises(
        OpenSystemError, match="^the random-system law has no case to check$"
    ):
        check_random_system(no_section)
