import math
import re
from collections import Counter

import numpy as np
import pytest

from polydyn import (
    MPMorphism,
    OpenSystemError,
    RandomSystemError,
    check_bundle,
    check_measure_preserving,
    check_mp_morphism,
    check_random_system,
    closed_from_kernel,
    det_polymap,
    dirac,
    dist_distance,
    euclid,
    finite,
    kleisli_compose,
    mk_measure_preserving,
    mk_probability_space,
    mk_system,
    monomial,
    ou_demo,
    ou_exact_closed,
    ou_transition_kernel,
    rebase_rds,
    reindex_bundle,
    reindex_rds,
    tabulated,
    time_nat,
    uniform,
    unit,
)
from polydyn import MeasurePreservingSystem, all_sections, random_bundle, rebase_bundle, systems
from polydyn.specio import (
    biased_swap_example,
    bundle_example,
    rotation_example,
    skew_random_example,
)


def test_rotation_preserves_the_uniform_measure_exactly():
    mp = rotation_example(6)
    report = check_measure_preserving(mp, (1, 2, 3, 5))
    assert report["pass"]
    assert report.get("violations") == []


def test_biased_swap_is_rejected():
    base, flow = biased_swap_example()
    report = check_measure_preserving(MeasurePreservingSystem(base, flow), (1,))
    assert not report["pass"]
    with pytest.raises(RandomSystemError):
        mk_measure_preserving(base, flow)


def test_skew_product_square_commutes_exactly():
    rds = skew_random_example(4, 2)
    report = check_random_system(rds)
    assert report["pass"]
    assert report["violations"] == []


def test_skew_product_reindex_keeps_the_square():
    rds = skew_random_example(4, 2)
    src = rds.interface
    tgt = monomial(finite("even", "odd"), unit())
    relabel = det_polymap(
        src, tgt, lambda i: "even" if i == 0 else "odd", lambda i, d: ()
    )
    moved = reindex_rds(relabel, rds)
    assert check_random_system(moved)["pass"]
    assert moved.interface == tgt


def test_skew_product_rebase_along_doubling():
    rds = skew_random_example(4, 2)
    z2 = finite(*range(2))
    half_base = mk_probability_space(z2, uniform(z2))
    half_flow = closed_from_kernel(
        z2, time_nat(), lambda t, w: dirac(z2, (w + t) % 2)
    )
    half = mk_measure_preserving(half_base, half_flow)
    psi = MPMorphism(rds.base, half, lambda w: w % 2)
    assert check_mp_morphism(psi)["pass"]
    moved = rebase_rds(psi, rds)
    assert check_random_system(moved)["pass"]
    assert moved.proj((3, 1)) == 1


def test_broken_mp_morphism_is_reported():
    mp6 = rotation_example(6)
    mp3 = rotation_example(3)
    bad = MPMorphism(mp6, mp3, lambda w: 0)  # collapses, breaks the measure
    report = check_mp_morphism(bad)
    assert not report["pass"]
    kinds = {v["kind"] for v in report["violations"]}
    assert "measure" in kinds


def test_bundle_double_section_square(monkeypatch):
    """Every pair of sections is checked, and each base section is closed
    once, not once per total section."""
    bs = bundle_example(3, 2)
    real = random_bundle.closure
    closed = []
    monkeypatch.setattr(
        random_bundle, "closure", lambda s, sigma: closed.append(s) or real(s, sigma)
    )
    report = check_bundle(bs)
    assert report["pass"]
    assert report["violations"] == []
    assert sum(s is bs.base_sys for s in closed) == len(all_sections(bs.base_sys.interface))
    assert sum(s is bs.total_sys for s in closed) == len(all_sections(bs.total_sys.interface))


def test_a_bundle_over_a_base_with_no_section_has_no_case_to_check():
    """A base position with no direction leaves the base interface without a
    section, so no square is read and the bundle law is refused, not
    passed vacuously."""
    bs = bundle_example(3, 2)
    states = bs.base_sys.states
    iface = tabulated(finite("a", "b"), {"a": finite(0, 1), "b": finite()})
    assert all_sections(iface) == []
    base = mk_system(iface, states, lambda t, w: "a", lambda t, w, d: dirac(states, w))
    with pytest.raises(OpenSystemError, match="^the bundle law has no case to check$"):
        check_bundle(random_bundle.BundleSystem(base, bs.total_sys, bs.proj))


def test_a_bundle_check_pushes_each_closure_once_per_time(monkeypatch):
    """One bundle check makes 4 x 8 section pairs at 3 times, 96 squares, but
    pushes each total closure's rows once per time (4 x 3 = 12), reads each
    base closure's rows once per time (8 x 3 = 24), and checks the
    projection's image of the 6 total states once."""
    bs = bundle_example(3, 2)
    made = Counter()
    kept = []  # the tables, kept alive so that their ids stay theirs
    for name in ("push", "target"):
        real = getattr(systems, "_" + name)

        def counted(table, *args, real=real, name=name):
            made[(name, id(table), args[-1])] += 1
            kept.append(table)
            return real(table, *args)

        monkeypatch.setattr(systems, "_" + name, counted)
    on_base = []
    real_check = systems.check_point

    def check_point(space, x):
        on_base.append(space == bs.base_sys.states)
        return real_check(space, x)

    monkeypatch.setattr(systems, "check_point", check_point)
    report = check_bundle(bs)
    assert report["pass"]
    sections = [len(all_sections(s.interface)) for s in (bs.total_sys, bs.base_sys)]
    assert sections == [4, 8]
    assert set(made.values()) == {1}
    assert Counter(name for name, _, _ in made) == {"push": 12, "target": 24}
    assert sum(on_base) == 6


def test_bundle_reindex_keeps_all_squares():
    bs = bundle_example(3, 2)
    src = bs.total_sys.interface
    relabeled = monomial(finite("m0", "m1"), src.dirs_at(0))
    phi = det_polymap(src, relabeled, lambda i: f"m{i}", lambda i, d: d)
    moved = reindex_bundle(phi, bs)
    assert check_bundle(moved)["pass"]


def test_bundle_rebase_along_state_relabel():
    bs = bundle_example(3, 2)
    base = bs.base_sys
    new_states = finite("w0", "w1", "w2")
    new_base = mk_system(
        base.interface,
        new_states,
        lambda t, s: int(s[1]),
        lambda t, s, d: dirac(new_states, f"w{(int(s[1]) + 1) % 3}"),
        time_nat(),
    )
    moved = rebase_bundle(lambda w: f"w{w}", new_base, bs)
    assert check_bundle(moved)["pass"]
    assert moved.proj((0, 1)) == "w0"


def test_bundle_broken_projection_fails():
    bs = bundle_example(3, 2)
    broken = type(bs)(bs.base_sys, bs.total_sys, lambda s: 0)  # not equivariant
    report = check_bundle(broken)
    assert not report["pass"]
    assert report["violations"][0]["kind"] == "square"


def test_ou_demo_is_deterministic_per_seed():
    a = ou_demo(1.0, 0.5, 0.05, 40, seed=9)
    b = ou_demo(1.0, 0.5, 0.05, 40, seed=9)
    c = ou_demo(1.0, 0.5, 0.05, 40, seed=10)
    assert a == b
    assert a != c
    header = a.splitlines()[0]
    assert header.split(",")[0] == "t"
    assert len(a.splitlines()) == 42  # header + x0 row + 40 steps


@pytest.mark.parametrize("horizon, message", [
    (True, "horizon must be an integer, got True"),
    (2.5, "horizon must be an integer, got 2.5"),
    (-1, "horizon must be non-negative, got -1"),
])
def test_ou_demo_refuses_a_horizon_that_is_not_a_count(horizon, message):
    """True and 2.5 failed inside numpy ("expected a sequence of integers"),
    and -1 there too ("negative dimensions are not allowed"): each is
    refused by name.  A numpy integer runs the path of its int."""
    with pytest.raises(RandomSystemError, match=f"^{re.escape(message)}$"):
        ou_demo(1.0, 0.5, 0.05, horizon, seed=9)
    assert ou_demo(1.0, 0.5, 0.05, np.int64(5), seed=9) == ou_demo(1.0, 0.5, 0.05, 5, seed=9)


def test_ou_demo_zero_noise_decays_geometrically():
    txt = ou_demo(2.0, 0.0, 0.01, 100, seed=0, x0=1.0)
    rows = [line.split(",") for line in txt.splitlines()[1:]]
    a = 1.0 - 2.0 * 0.01  # one Euler-Maruyama step with no noise
    for t, (_, xs) in enumerate(rows):
        assert abs(float(xs) - a**t) <= 1e-12


def test_ou_demo_stationary_variance():
    theta, sigma, h = 1.0, 0.5, 0.05
    txt = ou_demo(theta, sigma, h, 4000, seed=3, x0=0.0)
    xs = np.array([float(line.split(",")[1]) for line in txt.splitlines()[1:]])
    tail = xs[400:]
    target = sigma**2 / (2 * theta)
    assert abs(tail.var() - target) / target < 0.3


def test_ou_exact_kernel_satisfies_the_flow_law():
    theta, sigma, h = 1.0, 0.5, 0.05
    cs = ou_exact_closed(theta, sigma, h)
    for s, t in [(1, 1), (2, 3), (5, 5), (1, 7)]:
        combined = ou_transition_kernel(theta, sigma, h, s + t)
        chained = kleisli_compose(
            ou_transition_kernel(theta, sigma, h, s),
            ou_transition_kernel(theta, sigma, h, t),
        )
        for x in ((0.0,), (1.5,), (-2.0,)):
            assert dist_distance(combined(x), chained(x)) <= 1e-12
            assert dist_distance(cs.step(s + t, x), combined(x)) == 0.0
    # zero time is the point mass
    assert dist_distance(cs.step(0, (1.5,)), dirac(euclid(1), (1.5,))) == 0.0


def test_probability_space_needs_matching_measure():
    z2 = finite(0, 1)
    with pytest.raises(RandomSystemError):
        mk_probability_space(z2, uniform(finite(0, 1, 2)))
