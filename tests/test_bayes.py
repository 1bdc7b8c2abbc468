import re

import pytest

from polydyn import (
    HierError,
    Rng,
    bayes_check,
    categorical,
    dirac,
    exact_bayes,
    finite,
    points,
    prior_system,
    prob,
    quasi_bisim,
    stochastic_channel_system,
    uniform,
)

from helpers import random_channel_prior

X2 = finite("x1", "x2")
Y2 = finite("y1", "y2")


def two_state_channel():
    rows = {
        "x1": categorical(Y2, [("y1", 0.9), ("y2", 0.1)]),
        "x2": categorical(Y2, [("y1", 0.3), ("y2", 0.7)]),
    }
    return rows.__getitem__


def test_exact_bayes_matches_hand_computation():
    pi = categorical(X2, [("x1", 1 / 3), ("x2", 2 / 3)])
    inv = exact_bayes(two_state_channel(), pi)
    post = inv("y1")
    # P(x1 | y1) = (0.9/3) / (0.9/3 + 0.3*2/3) = 0.6
    assert abs(prob(post, "x1") - 0.6) <= 1e-12
    assert abs(prob(post, "x2") - 0.4) <= 1e-12
    assert inv.zero_evidence == ()


def test_exact_bayes_flags_unreachable_outcomes():
    rows = {
        "x1": dirac(Y2, "y1"),
        "x2": dirac(Y2, "y1"),
    }
    pi = uniform(X2)
    inv = exact_bayes(rows.__getitem__, pi, target=Y2)
    assert inv.zero_evidence == ("y2",)
    assert prob(inv("y2"), "x1") == 0.5  # uniform fallback
    assert prob(inv("y1"), "x1") == 0.5


def test_an_inversion_refuses_an_outcome_off_its_target():
    inv = exact_bayes(two_state_channel(), uniform(X2))
    with pytest.raises(HierError, match=r"^outcome 'y3' is outside the channel's target space$"):
        inv("y3")


def test_bayes_check_accepts_the_exact_inverse():
    c_fn = two_state_channel()
    pi = categorical(X2, [("x1", 1 / 3), ("x2", 2 / 3)])
    c = stochastic_channel_system(c_fn, X2, Y2)
    pr = prior_system(pi)
    cdag = stochastic_channel_system(exact_bayes(c_fn, pi), Y2, X2)
    verdict = bayes_check(c, pr, cdag)
    assert verdict["related"], verdict["witness"]
    assert verdict["law"] == "dynamical-bayes"


def perturbed_inverse():
    """A channel, its prior, and its exact inversion with the posterior at y1
    moved 0.05 toward x1."""
    c_fn = two_state_channel()
    pi = categorical(X2, [("x1", 1 / 3), ("x2", 2 / 3)])
    inv = exact_bayes(c_fn, pi)

    def warped(yv):
        post = inv(yv)
        if yv != "y1":
            return post
        p = prob(post, "x1") + 0.05
        return categorical(X2, [("x1", p), ("x2", 1.0 - p)])

    return (stochastic_channel_system(c_fn, X2, Y2), prior_system(pi),
            stochastic_channel_system(warped, Y2, X2))


def test_bayes_check_rejects_a_perturbed_inverse():
    verdict = bayes_check(*perturbed_inverse())
    assert not verdict["related"]
    w = verdict["witness"]
    assert w is not None and w["deviation"] > 1e-3


@pytest.mark.parametrize("horizon", (0, -1))
def test_bayes_check_refuses_a_horizon_below_one(horizon):
    """At tick 0 alone the two joints are their initial laws, and a pair of
    point-mass starts agrees there however the inversion is warped: the
    check refuses such a horizon by name instead of relating the perturbed
    inverse, and rejects it from horizon 1.  ``quasi_bisim`` itself still
    reads horizon 0."""
    c, pr, cdag = perturbed_inverse()
    message = rf"^bayes_check needs a horizon of at least 1, got {horizon}$"
    with pytest.raises(HierError, match=message):
        bayes_check(c, pr, cdag, horizon=horizon)
    assert bayes_check(c, pr, cdag, horizon=1)["related"] is False
    assert quasi_bisim(c, c, horizon=0)["related"] is True


@pytest.mark.parametrize("horizon", (2.5, "3", True))
def test_bayes_check_refuses_a_horizon_that_is_not_an_integer(horizon):
    """2.5 passed the check's own "at least 1" test and then failed in
    ``range``, "3" failed in ``<``, and True read one tick: each is refused
    by name before either joint is built."""
    message = rf"^horizon must be an integer, got {re.escape(repr(horizon))}$"
    with pytest.raises(HierError, match=message):
        bayes_check(*perturbed_inverse(), horizon=horizon)


def test_bayes_check_on_seeded_corpus():
    for k in range(6):
        X, Y, pi, rows = random_channel_prior(Rng(77).child(k))
        c_fn = rows.__getitem__
        c = stochastic_channel_system(c_fn, X, Y)
        pr = prior_system(pi)
        cdag = stochastic_channel_system(exact_bayes(c_fn, pi, target=Y), Y, X)
        verdict = bayes_check(c, pr, cdag)
        assert verdict["related"], (k, verdict["witness"])


def test_deterministic_bijection_channel_inverts_on_the_nose():
    flip = {"x1": "y2", "x2": "y1"}

    def c_fn(xv):
        return dirac(Y2, flip[xv])

    pi = categorical(X2, [("x1", 0.25), ("x2", 0.75)])
    inv = exact_bayes(c_fn, pi)
    assert prob(inv("y2"), "x1") == 1.0
    assert prob(inv("y1"), "x2") == 1.0
    c = stochastic_channel_system(c_fn, X2, Y2)
    pr = prior_system(pi)
    cdag = stochastic_channel_system(inv, Y2, X2)
    verdict = bayes_check(c, pr, cdag, tol=0.0)
    assert verdict["related"], verdict["witness"]


def test_prior_system_redraws_each_tick():
    pi = categorical(X2, [("x1", 0.25), ("x2", 0.75)])
    pr = prior_system(pi)
    law = pr.absorb("x1", (), ())
    assert law is pr.absorb("x2", (), ())
    assert prob(law, "x2") == 0.75


def test_bayes_check_interface_mismatch_raises():
    c_fn = two_state_channel()
    pi = categorical(X2, [("x1", 0.5), ("x2", 0.5)])
    c = stochastic_channel_system(c_fn, X2, Y2)
    pr = prior_system(pi)
    wrong = stochastic_channel_system(lambda y: uniform(Y2), Y2, Y2)
    with pytest.raises(HierError):
        bayes_check(c, pr, wrong)
