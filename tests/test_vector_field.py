import math
import re

import numpy as np
import pytest

from polydyn import (
    Rng,
    Section,
    SpaceError,
    check_closed_flow,
    check_flow,
    closed_from_kernel,
    closure,
    constant_section,
    det_polymap,
    dirac,
    dirac_point,
    euclid,
    finite,
    from_vector_field,
    monomial,
    reindex,
    rk4_step,
    time_nat,
    trivial_section,
    unit,
)
from polydyn import systems

from helpers import calls_of


def decay_system(h: float):
    """x' = -x exposed on a trivial interface; one tick integrates h."""
    states = euclid(1)
    p = monomial(euclid(1), unit())
    return from_vector_field(
        lambda x, d: (-x[0],), lambda x: x, p, h, states=states
    )


def _flow(cs, ticks, x0=(1.0,)):
    return dirac_point(cs.step(ticks, x0))[0]


def test_rk4_single_step_order():
    h = 0.01
    out = rk4_step(lambda v: -v, np.array([1.0]), h)
    assert abs(out[0] - math.exp(-h)) <= h**5


def test_decay_reaches_exp_minus_one():
    sys_ = decay_system(1e-3)
    cs = closure(sys_, trivial_section(sys_.interface))
    assert abs(_flow(cs, 1000) - math.exp(-1.0)) <= 1e-6


def test_flow_composition_within_tolerance():
    sys_ = decay_system(1e-3)
    cs = closure(sys_, trivial_section(sys_.interface))
    grid = [100 * k for k in range(1, 11)]  # durations 0.1 .. 1.0
    cache = {}

    def flow(ticks):
        if ticks not in cache:
            cache[ticks] = cs.step(ticks, (1.0,))
        return cache[ticks]

    worst = 0.0
    for s in grid:
        for t in grid:
            combined = dirac_point(flow(s + t))[0]
            chained = dirac_point(cs.step(s, dirac_point(flow(t))))[0]
            worst = max(worst, abs(combined - chained))
    assert worst <= 1e-6
    # iterating a fixed one-tick map is associative on the nose
    assert worst == 0.0


def _worst_against_exponential(h: float) -> float:
    """Largest gap between the chained numerical flow and the closed-form
    exponential flow over the 0.1..1.0 grid."""
    sys_ = decay_system(h)
    cs = closure(sys_, trivial_section(sys_.interface))
    per = round(0.1 / h)
    grid = [per * k for k in range(1, 11)]
    worst = 0.0
    step_cache = {t: cs.step(t, (1.0,)) for t in grid}
    for s in grid:
        for t in grid:
            chained = dirac_point(cs.step(s, dirac_point(step_cache[t])))[0]
            exact = math.exp(-(s + t) * h)
            worst = max(worst, abs(chained - exact))
    return worst


def test_halving_the_step_strictly_improves_the_flow():
    w = [_worst_against_exponential(h) for h in (0.02, 0.01, 0.005)]
    assert w[0] > w[1] > w[2]
    # fourth-order scheme: each halving should gain roughly 2^4
    assert w[0] / w[1] > 8.0


def test_check_flow_on_vector_field_system():
    sys_ = decay_system(0.01)
    report = check_flow(
        sys_,
        sections=[trivial_section(sys_.interface)],
        states=[(1.0,), (-0.5,)],
        tol=0.0,
    )
    assert report["pass"]
    assert report["max_deviation"] == 0.0


def test_driven_decay_approaches_the_drive():
    """x' = d - x under a constant drive section settles at d."""
    states = euclid(1)
    p = monomial(euclid(1), finite(0.0, 1.0))
    sys_ = from_vector_field(
        lambda x, d: (d - x[0],), lambda x: x, p, 0.001, states=states
    )
    cs = closure(sys_, constant_section(p, 1.0))
    got = _flow(cs, 2000, (0.0,))
    want = 1.0 - math.exp(-2.0)
    assert abs(got - want) <= 1e-6


def test_from_vector_field_validation():
    """The Euclid state space has no default: leaving it out is a TypeError."""
    with pytest.raises(TypeError, match="states"):
        from_vector_field(
            lambda x, d: (-x[0],), lambda x: x, monomial(euclid(1), unit()), 0.1
        )


def feedback_system(h: float):
    """x' = d on euclid(1), exposing the state; closed by d = -position it
    is the decay x' = -x."""
    states = euclid(1)
    p = monomial(euclid(1), euclid(1))
    sys_ = from_vector_field(lambda x, d: (d[0],), lambda x: x, p, h, states=states)
    return sys_, Section(p, lambda pos: (-pos[0],))


def test_closure_feeds_the_section_back_at_every_stage():
    """A state-dependent section is read along the flow, not held at the
    start: one step of 100 ticks, two of 50, and the flow law all agree."""
    sys_, sigma = feedback_system(0.01)
    cs = closure(sys_, sigma)
    assert abs(_flow(cs, 100) - math.exp(-1.0)) <= 1e-8
    assert _flow(cs, 50, (_flow(cs, 50),)) == _flow(cs, 100)
    report = check_flow(sys_, sections=[sigma], states=[(1.0,)], tol=1e-12)
    assert report["pass"], report["violations"][:2]


def test_reindexed_vector_field_closes_through_the_lens():
    """Reindexing along a lens that negates directions, then closing with
    d = +position, is the original system closed with d = -position."""
    sys_, sigma = feedback_system(0.01)
    p = sys_.interface
    flip = det_polymap(p, p, lambda i: i, lambda i, d: (-d[0],))
    moved = reindex(flip, sys_)
    same = closure(moved, Section(p, lambda pos: (pos[0],)))
    assert _flow(same, 100) == _flow(closure(sys_, sigma), 100)


def test_constant_section_closure_equals_the_held_update():
    """Under a constant section feedback changes nothing: the closure is the
    open system's zero-order-hold update, bit for bit."""
    states = euclid(1)
    p = monomial(euclid(1), finite(0.0, 1.0))
    sys_ = from_vector_field(
        lambda x, d: (d - x[0],), lambda x: x, p, 0.01, states=states
    )
    cs = closure(sys_, constant_section(p, 1.0))
    for t in (1, 7, 100):
        assert cs.step(t, (0.25,)) == sys_.update(t, (0.25,), 1.0)


# the grid of the benchmark's rk4-flow op: splits s + t of 5..40 ticks each
RK4_GRID = [(s, t) for s in range(5, 45, 5) for t in range(5, 45, 5)]


def _decay_flow(sys_, states, tol=1e-12):
    return check_flow(sys_, sections=[trivial_section(sys_.interface)], times=RK4_GRID,
                      states=states, tol=tol)


def test_check_flow_walks_each_start_once(monkeypatch):
    """The rk4-flow check makes one walk of 80 ticks from its start and one of
    40 from each of the 8 points step(t) reaches: 400 RK4 steps."""
    steps = calls_of(monkeypatch, systems, "rk4_step")
    report = _decay_flow(decay_system(0.01), [(1.0,)])
    assert report["pass"] and report["max_deviation"] == 0.0
    assert len(steps) == 80 + 8 * 40


def test_check_closed_flow_walks_each_start_once(monkeypatch):
    """The closed flow check keeps its walks as ``check_flow`` does: 400 RK4
    steps on the rk4-flow grid, where stepping each case afresh takes 5,760."""
    sys_ = decay_system(0.01)
    cs = closure(sys_, trivial_section(sys_.interface))
    steps = calls_of(monkeypatch, systems, "rk4_step")
    report = check_closed_flow(cs, RK4_GRID, [(1.0,)], tol=1e-12)
    assert report["pass"] and report["max_deviation"] == 0.0
    assert len(steps) == 80 + 8 * 40


def test_negative_zero_is_a_start_of_its_own(monkeypatch):
    """Walks are keyed by the raw bytes of the start vector: from 0.0 and
    -0.0 a sign-reading field moves apart, so each gets its own walk (two
    ticks, then one from the point after one tick)."""
    sys_ = from_vector_field(lambda x, d: (math.copysign(1.0, x[0]),), lambda x: x,
                             monomial(euclid(1), unit()), 0.01, states=euclid(1))
    steps = calls_of(monkeypatch, systems, "rk4_step")
    report = check_flow(sys_, sections=[trivial_section(sys_.interface)], times=[(1, 1)],
                        states=[(0.0,), (-0.0,)], tol=-1.0)
    assert len(steps) == 2 * (2 + 1)
    assert [repr(v["state"]) for v in report["violations"]] == ["(0.0,)", "(-0.0,)"] * 2


def test_a_field_that_reads_a_call_counter_fails_the_flow_law():
    """step(s) after step(t) walks afresh from step(t, x)'s point, so a field
    that is not a function of the state alone shows on the compose cases of
    ``check_flow`` and of ``check_closed_flow``."""
    calls = [0]

    def field(x, d):
        calls[0] += 1
        return (-0.5 * x[0] + 1e-9 * calls[0],)

    sys_ = from_vector_field(field, lambda x: x, monomial(euclid(1), unit()), 0.01,
                             states=euclid(1))
    report = _decay_flow(sys_, [(1.0,)])
    assert not report["pass"]
    assert {v["kind"] for v in report["violations"]} == {"compose"}
    cs = closure(sys_, trivial_section(sys_.interface))
    report = check_closed_flow(cs, RK4_GRID, [(1.0,)], tol=1e-12)
    assert not report["pass"]
    assert {v["kind"] for v in report["violations"]} == {"compose"}


def test_euclidean_flow_gaps_are_read_on_the_points():
    """Two Diracs over a Euclidean space compare as points, so a broken flow
    law shows its gap, not 1.0: integrating t ticks as one RK4 step of t*h,
    and the call-counter field above, each fail at 1e-12 by a finite gap,
    and the field passes at a tolerance above its gap."""
    h, states = 0.01, euclid(1)

    def one_big_step(t, x):
        v = rk4_step(lambda u: -0.5 * u, np.asarray(x, dtype=float), t * h)
        return dirac(states, (float(v[0]),))

    coarse = closed_from_kernel(states, time_nat(), one_big_step)
    small = [(s, t) for s in range(1, 9) for t in range(1, 9)]
    calls = [0]

    def field(x, d):
        calls[0] += 1
        return (-0.5 * x[0] + 1e-9 * calls[0],)

    counted = from_vector_field(field, lambda x: x, monomial(euclid(1), unit()), h,
                                states=states)
    for report in (check_closed_flow(coarse, small, [(1.0,)], tol=1e-12),
                   _decay_flow(counted, [(1.0,)])):
        assert not report["pass"]
        assert 1e-12 < report["max_deviation"] < 1e-5
    assert _decay_flow(counted, [(1.0,)], tol=1e-5)["pass"]


@pytest.mark.parametrize("sample", [[[1.0]], [np.array([1.0])]])
def test_a_sample_written_as_lists_or_arrays_is_read_as_points(sample):
    """A state sample in lists or arrays gives the verdict of its tuples; a
    negative tolerance reports every case, so their state labels show.
    ``check_closed_flow`` takes its sample as states of the closure, so it
    refuses one that is not a point, as its zero case's point mass does."""
    sys_ = decay_system(0.01)
    for tol in (1e-12, -1.0):
        assert _decay_flow(sys_, sample, tol) == _decay_flow(sys_, [(1.0,)], tol)
    cs = closure(sys_, trivial_section(sys_.interface))
    with pytest.raises(SpaceError, match=re.escape(f"{sample[0]!r} is not a point of euclid(1)")):
        check_closed_flow(cs, RK4_GRID, sample)


@pytest.mark.parametrize("t", [0, 2])
@pytest.mark.parametrize("start", [1.0, "1"])
def test_a_start_that_is_not_a_point_is_refused(start, t):
    sys_ = decay_system(0.01)
    cs = closure(sys_, trivial_section(sys_.interface))
    with pytest.raises(SpaceError, match=re.escape(f"{start!r} is not a point of euclid(1)")):
        cs.step(t, start)


def _seeded_linear_system(rng):
    """x' = A x + d on euclid(2), closed by d = B x, with A, B, h and a start
    drawn from the seed."""
    gen = rng.generator()
    a, b = gen.normal(size=(2, 2)), gen.normal(size=(2, 2))
    h = float(gen.uniform(0.005, 0.05))
    p = monomial(euclid(2), euclid(2))

    def field(x, d):
        return tuple((a @ np.array(x) + np.array(d)).tolist())

    sys_ = from_vector_field(field, lambda x: x, p, h, states=euclid(2))
    sigma = Section(p, lambda pos: tuple((b @ np.array(pos)).tolist()))
    return sys_, sigma, field, tuple(gen.normal(size=2).tolist())


def _bits(point) -> list:
    return [c.hex() for c in point]


def test_an_rk4_closure_composes_by_construction():
    """The RK4 closure walks one tick at a time: step(t, x) is t calls of
    ``rk4_step`` from x bit for bit, and step(s + t, x) is step(s) after
    step(t)."""
    for seed in range(5):
        sys_, sigma, field, x = _seeded_linear_system(Rng(700).child(seed))
        cs = closure(sys_, sigma)

        def tangent(v):
            pt = tuple(v.tolist())
            return np.asarray(field(pt, sigma.assign(pt)), dtype=float)

        vec = np.array(x)
        for t in range(13):
            assert _bits(dirac_point(cs.step(t, x))) == _bits(vec.tolist()), (seed, t)
            for s in range(13 - t):
                after = cs.step(s, dirac_point(cs.step(t, x)))
                assert _bits(dirac_point(cs.step(s + t, x))) == _bits(dirac_point(after))
            vec = rk4_step(tangent, vec, sys_.time.h)
