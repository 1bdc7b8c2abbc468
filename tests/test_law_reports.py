"""The flat law checks share one report: its keys, its verdict and its worst
deviation mean the same thing for every law."""

import dataclasses
import hashlib
import json
import math
import re

import numpy as np
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
    euclid,
    finite,
    from_vector_field,
    is_system_morphism,
    linear,
    mk_measure_preserving,
    mk_probability_space,
    mk_system,
    monomial,
    points,
    tabulated,
    time_nat,
    trivial_section,
    uniform,
    unit,
)
from polydyn import random_bundle, systems
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


# ---------------------------------------------------------------------------
# block reports


def _per_case_report(law, cases, tol, domain=None, **extra):
    """A law report read one (case, deviation) pair at a time, as the report
    read its cases before it took them in blocks."""
    for name, values in (domain or {}).items():
        if len(values) == 0:
            raise OpenSystemError(f"the {law} law was given no {name} to check")
    violations = []
    max_dev = 0.0
    checked = 0
    for case, dev in cases:
        checked += 1
        max_dev = max(max_dev, dev)
        if dev > tol:
            violations.append({**case, "deviation": dev})
    if not checked:
        raise OpenSystemError(f"the {law} law has no case to check")
    verdict = {"law": law, "pass": not violations, **extra}
    return {**verdict, "max_deviation": max_dev, "violations": violations}


def _rows(blocks):
    """Each row of each block as (labels, states, deviations): a batch's row
    labels from its function, and the row's deviations as a list, one per
    state (one that names no state when ``states`` is None)."""
    for labels, states, devs in blocks:
        devs = np.asarray(devs, dtype=float)
        if devs.size == 0:
            continue
        width = 1 if states is None else len(states)
        for i, row in enumerate(devs.reshape(-1, width).tolist()):
            yield (labels if isinstance(labels, dict) else labels(i)), states, row


def _one_case_at_a_time(blocks):
    """Each case of each block, as its own case dict and deviation."""
    for labels, states, devs in _rows(blocks):
        if states is None:
            yield from ((dict(labels), d) for d in devs)
        else:
            yield from (({**labels, "state": x}, d) for x, d in zip(states, devs))


def _bits(value):
    """A report as (key, value) pairs in key order, each float by its hex."""
    if isinstance(value, dict):
        return [(k, _bits(v)) for k, v in value.items()]
    if isinstance(value, (list, tuple)):
        return [type(value).__name__, *(_bits(v) for v in value)]
    if isinstance(value, float):
        return value.hex()
    return value


@pytest.fixture
def both_reports(monkeypatch):
    """Every report a law check makes, paired with the per-case report of the
    same cases."""
    pairs = []
    report = systems._report

    def paired(law, blocks, tol, domain=None, **extra):
        blocks = list(blocks)
        cases = list(_one_case_at_a_time(blocks))
        assert not any(math.isnan(dev) for _, dev in cases)
        pairs.append((report(law, blocks, tol, domain, **extra),
                      _per_case_report(law, cases, tol, domain, **extra), blocks))
        return pairs[-1][0]

    monkeypatch.setattr(systems, "_report", paired)
    monkeypatch.setattr(random_bundle, "_report", paired)
    return pairs


def rounding_system(seed: int):
    """Five states behind two positions with 2 and 3 directions, each update
    a law with non-dyadic weights: its compose cases read the last bits by
    which P^(s+t) and P^t P^s differ."""
    gen = np.random.default_rng(seed)
    states = finite(*range(5))
    iface = tabulated(finite("p0", "p1"), {"p0": finite(0, 1), "p1": finite(0, 1, 2)})
    laws = {
        (s, d): categorical(states, list(zip(range(5), gen.dirichlet([1.0] * 5).tolist())))
        for s in range(5)
        for d in range(3)
    }
    return mk_system(iface, states, lambda t, s: f"p{s % 2}", lambda t, s, d: laws[(s, d)],
                     time_nat(), STOCHASTIC)


def two_state_slip():
    """A rotation of four states that, from states 0 and 2 alone, moves one
    step less over two ticks or more: the split (1, 1) fails at 0 and 2 and
    holds at 1 and 3, which sit between and after them."""
    z4 = finite(0, 1, 2, 3)
    return closed_from_kernel(
        z4, time_nat(), lambda t, w: dirac(z4, (w + t - (t >= 2 and w % 2 == 0)) % 4)
    )


FLOW_SPLITS = [(s, t) for s in range(5) for t in range(5) if 0 < s + t <= 6]

# (name, thunk): seeded passes, rounding gaps, and must-fail controls of each law
BLOCK_CHECKS = [
    *[(f"flow-seed{k}-tol{tol}",
       lambda k=k, tol=tol: check_flow(rounding_system(k), times=FLOW_SPLITS, tol=tol))
      for k in range(3) for tol in (0.0, 1e-16, -1.0)],
    *[(f"flow-dyadic-seed{k}",
       lambda k=k: check_flow(random_finite_system(Rng(40).child(k)), times=FLOW_SPLITS))
      for k in range(4)],
    ("flow-tick-dependent-output", lambda: check_flow(tick_dependent_output(), times=SPLITS)),
    ("closed-flow-squaring-clock",
     lambda: check_closed_flow(squaring_clock(), SPLITS, list(points(Z3)))),
    ("closed-flow-two-state-slip",
     lambda: check_closed_flow(two_state_slip(), [(1, 1), (2, 1)], [0, 1, 2, 3])),
    ("bundle", lambda: check_bundle(bundle_example(3, 2))),
    ("bundle-collapsed", lambda: check_bundle(collapsed_bundle())),
    ("random-system", lambda: check_random_system(skew_random_example(4, 2))),
    ("random-system-drifting", lambda: check_random_system(drifting_rds())),
    ("random-system-stray-state", lambda: check_random_system(stray_state_rds())),
    ("morphism", lambda: is_system_morphism(
        lambda x: (x + 1) % 3, blind_system(1), blind_system(1),
        all_sections(blind_system(1).interface), [1, 2])),
    ("morphism-fail", lambda: is_system_morphism(
        lambda x: x, blind_system(1), blind_system(0),
        all_sections(blind_system(1).interface), [1, 2])),
    ("morphism-output-fail", lambda: is_system_morphism(
        lambda x: (x + 1) % 3, identity_system(), identity_system(),
        all_sections(identity_system().interface), [1])),
    ("measure", lambda: check_measure_preserving(rotation_example(6), (1, 2, 3))),
    ("measure-fail", lambda: check_measure_preserving(
        MeasurePreservingSystem(*biased_swap_example()), (1, 2, 3))),
    ("mp-morphism", lambda: check_mp_morphism(
        MPMorphism(rotation_example(4), half_rotation(), lambda w: w % 2))),
    ("mp-morphism-fail", lambda: check_mp_morphism(
        MPMorphism(rotation_example(6), rotation_example(3), lambda w: 0))),
]


@pytest.mark.parametrize("run", [run for _, run in BLOCK_CHECKS],
                         ids=[name for name, _ in BLOCK_CHECKS])
def test_block_reports_are_the_per_case_reports_bit_for_bit(run, both_reports):
    """A report that takes its cases in blocks is the report of the same
    cases read one at a time: the verdict, max_deviation by its hex, and
    each violation with its keys in the same order and its deviation by
    its hex."""
    run()
    assert both_reports
    for report, expected, _ in both_reports:
        assert _bits(report) == _bits(expected)


def test_the_block_checks_reach_passes_failures_and_mixed_blocks(both_reports):
    """The seeded checks above are not all passes: some fail, and some block
    has two failing states and a passing one, on the tabulated route (a
    rounding gap) and on the walked one (the slip)."""
    for _, run in BLOCK_CHECKS:
        run()
    verdicts = {report["pass"] for report, _, _ in both_reports}
    assert verdicts == {True, False}
    mixed = set()
    for report, _, blocks in both_reports:
        for labels, states, devs in _rows(blocks):
            failing = [dev > 0.0 for dev in devs]
            if states is not None and failing.count(True) >= 2 and not all(failing):
                mixed.add((labels["kind"], "section" in labels))
    assert {("compose", True), ("compose", False)} <= mixed


def test_a_block_reports_every_failing_state_in_order():
    """The split (1, 1) of the slip fails at states 0 and 2 and holds at 1
    and 3: both failures are reported, in the sample's order."""
    report = check_closed_flow(two_state_slip(), [(1, 1)], [0, 1, 2, 3])
    assert not report["pass"]
    assert report["violations"] == [
        {"kind": "compose", "s": 1, "t": 1, "state": 0, "deviation": 1.0},
        {"kind": "compose", "s": 1, "t": 1, "state": 2, "deviation": 1.0},
    ]
    assert [list(v) for v in report["violations"]] == [["kind", "s", "t", "state", "deviation"]] * 2


def frozen_after_one_tick():
    """The shape of the benchmark's must-fail flow control: four states
    behind positions p0/p1 with 2 and 3 directions, full-support dyadic
    updates at tick 1 that stay put at every later tick."""
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

    return mk_system(iface, states, lambda t, s: f"p{s % 2}", update, time_nat(), STOCHASTIC)


def steered_bundle():
    """The example bundle over a base that stays put unless told "go", so
    its squares fail wherever the total system moves and the base waits."""
    bs = bundle_example(3, 2)
    base = bs.base_sys
    steered = mk_system(
        base.interface, base.states, lambda t, w: w,
        lambda t, w, d: dirac(base.states, (w + 1) % 3 if d == "go" else w),
        effect=DETERMINISTIC,
    )
    return BundleSystem(steered, bs.total_sys, bs.proj)


def doubling_morphism():
    """w |-> 2w on the example bundle's base rotation: its outputs differ at
    1 and 2, and its squares fail at times 1 and 2 and hold at 3."""
    base = bundle_example(3, 2).base_sys
    return is_system_morphism(
        lambda w: 2 * w % 3, base, base, all_sections(base.interface), (1, 2, 3)
    )


ALL_SPLITS = [(s, t) for s in range(9) for t in range(9) if 0 < s + t <= 8]

# (name, thunk, violation count, sha256 of the report's json.dumps): each
# report pinned whole, every violation in its order with its keys and its bits
PINNED_CONTROLS = [
    ("flow-frozen-after-one-tick",
     lambda: check_flow(frozen_after_one_tick(), times=ALL_SPLITS, tol=0.0), 70,
     "e5579adc6131a0535f00afb928f461ea7c8e18a515a44edf1b334b00bf91fa16"),
    ("flow-rounding-gaps",
     lambda: check_flow(rounding_system(0), times=FLOW_SPLITS, tol=0.0), 255,
     "4ed9bd8536f33bac62b1cf02797afc03198814702894b28cf4e663388c8be50a"),
    ("bundle-steered-base", lambda: check_bundle(steered_bundle()), 312,
     "4cad6633c45c0f3132c6e2b5667b33df77fd0a412cfa16771853f146d4be5213"),
    ("bundle-collapsed-projection", lambda: check_bundle(collapsed_bundle()), 384,
     "5d44640f88b89aa8721c148137dca84003e88cb0e29d788e34155651fa630657"),
    ("morphism-doubling", doubling_morphism, 50,
     "af24f4fda7c0539e088fd72489bde3b158ea62edb6235ba4398a814599f0d2c7"),
    ("random-system-drifting", lambda: check_random_system(drifting_rds()), 24,
     "465f3b9b9781f98cc6155a29f8614d521aef089f9b6039235baeed530a86308a"),
]


@pytest.mark.parametrize("run, violations, digest", [case[1:] for case in PINNED_CONTROLS],
                         ids=[case[0] for case in PINNED_CONTROLS])
def test_must_fail_control_reports_are_pinned(run, violations, digest):
    """Each must-fail control's report is the text it was before law reports
    read whole batches: no violation is reordered, dropped, relabelled or
    re-rounded, and max_deviation is the same float."""
    report = run()
    assert report["pass"] is False
    assert len(report["violations"]) == violations
    assert hashlib.sha256(json.dumps(report).encode()).hexdigest() == digest


def vector_field_flow(field, state):
    iface = monomial(euclid(1), unit())
    sys_ = from_vector_field(field, lambda x: x, iface, 0.1, states=euclid(1))
    return check_flow(sys_, sections=[trivial_section(iface)], times=[(1, 1), (2, 1)],
                      states=[state])


def test_a_nan_deviation_fails_its_law():
    """A field that reads NaN makes every compose gap NaN, which is within no
    tolerance: the flow law fails, naming each split, and max_deviation
    reads NaN.  A field that blows up to inf does the same, as inf - inf is
    NaN, with no warning."""
    report = vector_field_flow(lambda x, d: (math.nan,), (0.0,))
    assert report["pass"] is False
    assert math.isnan(report["max_deviation"])
    assert [(v["kind"], v["s"], v["t"], v["state"]) for v in report["violations"]] == [
        ("compose", 1, 1, (0.0,)), ("compose", 2, 1, (0.0,))
    ]
    assert all(math.isnan(v["deviation"]) for v in report["violations"])
    report = vector_field_flow(lambda x, d: (x[0] * x[0] * 1e300,), (1.0,))
    assert report["pass"] is False
    assert math.isnan(report["max_deviation"])


@pytest.mark.parametrize("where", [0, 1, 2])
def test_a_report_reads_nan_wherever_a_block_holds_it(where):
    """A NaN anywhere in a block is a violation and the worst deviation,
    also behind a smaller one, and a larger finite deviation afterwards does
    not replace it; a NaN in a block of one case fails too."""
    devs = [0.25, 0.0, 0.5]
    devs[where] = math.nan
    blocks = [
        ({"kind": "zero"}, ["a", "b", "c"], [0.0, 0.0, 0.0]),
        ({"kind": "compose", "s": 1, "t": 1}, ["a", "b", "c"], devs),
        ({"kind": "compose", "s": 2, "t": 1}, ["a", "b", "c"], [3.0, 0.0, 0.0]),
    ]
    report = systems._report("flow", blocks, 0.3)
    assert report["pass"] is False
    assert math.isnan(report["max_deviation"])
    failing = [(v["s"], v["state"]) for v in report["violations"]]
    assert failing == [(1, x) for x, d in zip("abc", devs) if not d <= 0.3] + [(2, "a")]
    one_case = [({"kind": "measure", "t": 1}, None, [math.nan])]
    report = systems._report("measure-preserving", one_case, 0.0)
    assert report["pass"] is False and math.isnan(report["max_deviation"])
    assert [list(v) for v in report["violations"]] == [["kind", "t", "deviation"]]


def test_a_batch_reads_nan_and_lists_its_violations_row_by_row():
    """A batch of rows is read by one reduction that a NaN propagates
    through: a NaN among zeros fails the batch and is its worst deviation.
    A failing batch lists its violations row by row and, within a row,
    state by state, and builds the labels of the rows that fail alone."""
    built = []

    def labels(i):
        built.append(i)
        return {"kind": "compose", "s": i, "t": 1}

    nan_among_zeros = np.zeros((3, 2))
    nan_among_zeros[1, 0] = math.nan
    report = systems._report("flow", [(labels, ["a", "b"], nan_among_zeros)], 0.0)
    assert report["pass"] is False and math.isnan(report["max_deviation"])
    assert [(v["s"], v["state"]) for v in report["violations"]] == [(1, "a")]
    assert built == [1]
    built.clear()
    devs = np.array([[0.0, 0.5], [0.5, 0.0], [0.5, 0.5]])
    report = systems._report("flow", [(labels, ["a", "b"], devs)], 0.0)
    assert [(v["s"], v["state"]) for v in report["violations"]] == [
        (0, "b"), (1, "a"), (2, "a"), (2, "b")
    ]
    assert built == [0, 1, 2] and report["max_deviation"] == 0.5
