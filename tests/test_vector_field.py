import math

import numpy as np
import pytest

from polydyn import (
    Section,
    check_flow,
    closure,
    constant_section,
    det_polymap,
    dirac_point,
    euclid,
    finite,
    from_vector_field,
    monomial,
    reindex,
    rk4_step,
    trivial_section,
    unit,
)


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
