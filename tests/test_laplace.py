import collections
import dataclasses
import decimal
import fractions
import hashlib
import math
import re
import types
import warnings

import numpy as np
import pytest
from numpy.linalg import _umath_linalg

from polydyn import (
    Gaussian,
    GaussianChannel,
    LaplaceConfig,
    LaplaceError,
    build_laplace,
    categorical,
    dirac,
    euclid,
    finite,
    energy,
    free_energy_laplace,
    free_energy_second_order,
    gaussian_entropy,
    grad_energy,
    hessian_energy,
    hibi_compose,
    linear_channel,
    mean_path,
    mk_state,
    rho_update,
    run_stack,
    sigma_star,
    stack,
    state_dist,
)
from polydyn import dist, hier, laplace
from polydyn.dist import DistError, dst, gaussian
from polydyn.spaces import euclid_dims, unflatten_floats

from helpers import gaussian_bits

# 1-D testbed: observation y = 2x + noise(var 1), prior x ~ N(0, 1), datum 1.
# Posterior: precision 2*2/1 + 1 = 5, mean (2*1/1)/5 = 0.4, variance 0.2.
GAMMA = linear_channel([[2.0]], cov=[[1.0]])
PI = mk_state([0.0], [[1.0]])
Y = [1.0]


def test_energy_at_posterior_mean_is_pinned():
    val = energy(PI, GAMMA, [0.4], Y)
    assert abs(val - (0.1 + math.log(2.0 * math.pi))) <= 1e-12
    assert abs(val - 1.9378770664093454) <= 1e-12


def test_gradient_vanishes_at_posterior_mean():
    assert abs(grad_energy(PI, GAMMA, [0.4], Y)[0]) <= 1e-12


def test_gradient_matches_closed_form_elsewhere():
    for x in (-2.0, -0.3, 0.0, 1.7):
        got = grad_energy(PI, GAMMA, [x], Y)[0]
        want = -2.0 * (1.0 - 2.0 * x) + x
        assert abs(got - want) <= 1e-12


def test_optimal_covariance_is_inverse_curvature():
    hess = hessian_energy(PI, GAMMA, [0.4], Y)
    assert abs(hess[0, 0] - 5.0) <= 1e-12
    sig = sigma_star(PI, GAMMA, [0.4], Y)
    assert abs(sig[0, 0] - 0.2) <= 1e-12


def test_descent_reaches_the_posterior_mean():
    cfg = LaplaceConfig(rate=0.05)
    state = mk_state([0.0], PI.cov_array())
    prev_f = math.inf
    steps = None
    for k in range(1, 10001):
        state = rho_update(state.mean_array(), PI, Y, GAMMA, cfg)
        f = free_energy_laplace(PI, GAMMA, state, Y)
        assert f <= prev_f + 1e-12  # non-increasing along the update iterates
        prev_f = f
        if abs(state.mean[0] - 0.4) <= 1e-6:
            steps = k
            break
    assert steps is not None and steps <= 10000
    assert abs(state.cov[0][0] - 0.2) <= 1e-12


def test_gradient_against_central_differences():
    rng = np.random.default_rng(0)
    h = 1e-5
    for x in rng.uniform(-5.0, 5.0, 100):
        g = grad_energy(PI, GAMMA, [x], Y)[0]
        fd = (energy(PI, GAMMA, [x + h], Y) - energy(PI, GAMMA, [x - h], Y)) / (
            2.0 * h
        )
        assert abs(g - fd) / max(abs(fd), 1e-12) <= 1e-5


def test_entropy_and_free_energy_are_pinned():
    star = mk_state([0.4], [[0.2]])
    assert abs(gaussian_entropy(star) - 0.6142195769876225) <= 1e-12
    assert abs(free_energy_laplace(PI, GAMMA, star, Y) - 1.323657489421723) <= 1e-12


def test_second_order_free_energy_is_negative_log_evidence():
    star = mk_state([0.4], [[0.2]])
    f2 = free_energy_second_order(PI, GAMMA, star, Y)
    # y marginal is N(0, 2*1*2 + 1) = N(0, 5); -log of its density at 1:
    want = 0.5 * math.log(2.0 * math.pi * 5.0) + 0.5 / 5.0
    assert abs(f2 - want) <= 1e-12
    assert abs(f2 - 1.823657489421723) <= 1e-12
    fl = free_energy_laplace(PI, GAMMA, star, Y)
    # the trace correction on a 1-D quadratic is exactly 1/2
    assert abs((f2 - fl) - 0.5) <= 1e-12


def test_second_order_free_energy_matches_monte_carlo():
    star = mk_state([0.4], [[0.2]])
    f2 = free_energy_second_order(PI, GAMMA, star, Y)
    rng = np.random.default_rng(42)
    xs = 0.4 + math.sqrt(0.2) * rng.standard_normal(100000)
    vals = 0.5 * (1.0 - 2.0 * xs) ** 2 + 0.5 * xs**2 + math.log(2.0 * math.pi)
    for x, v in zip(xs[:50], vals[:50]):
        assert abs(energy(PI, GAMMA, [x], Y) - v) <= 1e-12
    fmc = float(np.mean(vals)) - gaussian_entropy(star)
    se = float(np.std(vals, ddof=1)) / math.sqrt(len(xs))
    assert abs(fmc - f2) <= 3.0 * se, (fmc, f2, se)


def test_zero_rate_freezes_the_mean():
    cfg = LaplaceConfig(rate=0.0)
    state = rho_update([0.1], PI, Y, GAMMA, cfg)
    assert state.mean == (0.1,)


def test_negative_rate_is_rejected():
    with pytest.raises(LaplaceError):
        LaplaceConfig(rate=-1.0)


@pytest.mark.parametrize("bad", [math.inf, math.nan, pytest.param(10**400, id="10**400")])
def test_a_non_finite_rate_is_rejected(bad):
    """An infinite step would send every mean to inf or NaN; an integer past
    the largest float is no finite step either."""
    with pytest.raises(LaplaceError, match=f"must be finite and non-negative, got {bad}"):
        LaplaceConfig(rate=bad)


@pytest.mark.parametrize("bad", [True, False, "0.1", None, 0.5j,
                                 pytest.param(decimal.Decimal("0.1"), id="Decimal")])
def test_a_rate_that_is_not_a_real_number_is_refused(bad):
    """A bool is not a rate, as it is not a count; a string, None, a complex
    number or a Decimal is refused by name before any run."""
    message = re.escape(f"learning rate must be a real number, got {bad!r}")
    with pytest.raises(LaplaceError, match=f"^{message}$"):
        LaplaceConfig(rate=bad)


def test_a_rate_is_kept_as_a_python_float():
    """An integer, a numpy scalar or a fraction is kept as the Python float
    it reads as; a float keeps its bits."""
    for rate, want in ((1, 1.0), (np.int64(2), 2.0), (np.float64(0.1), 0.1),
                       (fractions.Fraction(1, 4), 0.25), (0.05, 0.05), (0.0, 0.0)):
        got = LaplaceConfig(rate=rate).rate
        assert type(got) is float and got.hex() == want.hex(), rate


def test_dimension_mismatch_is_rejected():
    with pytest.raises(LaplaceError):
        energy(PI, GAMMA, [0.0, 0.0], Y)
    with pytest.raises(LaplaceError):
        energy(mk_state([0.0, 0.0], np.eye(2)), GAMMA, [0.0], Y)


def test_mk_state_is_a_gaussian_law_over_euclid():
    state = mk_state([0.5, -1.0], [[2.0, 0.5], [0.5, 1.0]])
    assert isinstance(state, Gaussian)
    assert state.space == euclid(2)
    assert state.mean == (0.5, -1.0)
    assert state.cov == ((2.0, 0.5), (0.5, 1.0))
    with pytest.raises(LaplaceError, match="does not fit"):
        mk_state([0.0, 0.0], [[1.0]])


def test_forward_prior_must_be_a_proper_gaussian_belief():
    hs = stack([GAMMA], LaplaceConfig(rate=0.05))
    # a point mass reads as a zero-covariance belief, whose precision is undefined
    with pytest.raises(LaplaceError, match="numerically singular"):
        mean_path(hs, dirac(euclid(1), (0.0,)), Y, 1)
    with pytest.raises(LaplaceError, match="expected a Gaussian belief"):
        mean_path(hs, categorical(finite(0, 1), {0: 0.5, 1: 0.5}), Y, 1)


def test_a_channel_is_its_own_kernel():
    """``ch(x)`` is the law N(mean(x), cov(x)), and it is what a level lifts
    its point prediction to on the forward wire."""
    tanh = GaussianChannel(
        2, 1, lambda x: np.tanh(x[:1] - x[1:]), None, lambda x: [[0.5 + x[0] ** 2]]
    )
    tilted = linear_channel([[1.0, -0.5]], offset=[0.2], cov=[[0.3]])
    # symmetric only within 1e-12, so its law stores a symmetrized covariance
    skewed = linear_channel(np.eye(2), cov=[[1.0, 0.5], [0.5 + 1e-12, 1.0]])
    cfg = LaplaceConfig(rate=0.05)
    for ch in (tilted, tanh, skewed):
        x = (0.4, -1.1)
        law = ch(x)
        same = mk_state(ch.mean(np.asarray(x)), ch.cov(np.asarray(x)))
        # as a prior, a law solves against the covariance it stores, and the
        # check kept for that covariance is not part of the law
        probe, origin = linear_channel(np.ones((1, ch.out_dim))), np.zeros(ch.out_dim)
        for use in (energy, grad_energy):
            assert np.array_equal(use(law, probe, origin, [1.0]), use(same, probe, origin, [1.0]))
        assert law == same and hash(law) == hash(same) and repr(law) == repr(same)
        lifted = build_laplace(ch, cfg).forward_lift((x, origin), origin)
        assert lifted == law


def test_a_channel_rejects_a_law_of_the_wrong_size():
    """A 1 -> 2 channel whose mean has 3 entries, or whose covariance is not
    2 x 2, fails naming its out_dim: as a kernel, as a level's forward lift
    and as the lower level of ``run_stack``."""
    wide = GaussianChannel(1, 2, lambda x: np.zeros(3), None, lambda x: np.eye(2))
    square = GaussianChannel(1, 2, lambda x: np.zeros(2), None, lambda x: np.eye(3))
    cfg = LaplaceConfig(rate=0.05)
    for bad, got in ((wide, "mean of size 3"), (square, r"covariance of shape \(3, 3\)")):
        match = f"out_dim 2 gave .*{got}"
        with pytest.raises(LaplaceError, match=match):
            bad([0.5])
        with pytest.raises(LaplaceError, match=match):
            build_laplace(bad, cfg).forward_lift(((0.5,), (0.0, 0.0)), (0.0, 0.0))
        with pytest.raises(LaplaceError, match=match):
            run_stack([bad, linear_channel([[1.0, 0.0]])], cfg, PI, [1.0], 2)


@pytest.mark.parametrize("offset, cov", [([0.0, 0.0], None), (None, np.eye(2)), (None, [1.0, 1.0])])
def test_a_linear_channel_refuses_an_offset_or_covariance_of_the_wrong_size(offset, cov):
    """A 1 x 1 matrix takes an offset of one entry and a 1 x 1 covariance:
    a longer offset, a larger covariance, or a covariance given as a row,
    is refused by name."""
    with pytest.raises(LaplaceError, match="^offset/cov dimensions do not match the matrix$"):
        linear_channel([[2.0]], offset=offset, cov=cov)


def test_a_channel_refuses_a_point_of_the_wrong_size():
    """Called at a point whose size is not its in_dim, a channel names both,
    linear or not, and also as a level's forward lift."""
    tanh = GaussianChannel(1, 1, np.tanh, None, lambda x: [[0.5]])
    for ch in (linear_channel([[2.0]]), tanh):
        with pytest.raises(LaplaceError, match="in_dim 1 called at a point of size 2"):
            ch([1.0, 2.0])
        lift = build_laplace(ch, LaplaceConfig()).forward_lift
        with pytest.raises(LaplaceError, match="in_dim 1 called at a point of size 0"):
            lift(((), (0.0,)), (0.0,))
        assert ch(1.0) == ch([1.0])


def test_singular_prior_raises_laplace_error():
    """Every use of a singular prior raises, also after a first use of the
    same law has raised: a failed check is not kept.  A law copied from a
    checked one with a new covariance is checked for that covariance."""
    singular = mk_state([0.0], [[0.0]])
    energy(PI, GAMMA, [0.4], Y)
    copied = dataclasses.replace(PI, cov=singular.cov)
    for _ in range(2):
        for law in (singular, copied):
            for use in (energy, grad_energy, hessian_energy, sigma_star):
                with pytest.raises(LaplaceError, match="prior covariance is numerically singular"):
                    use(law, GAMMA, [0.4], Y)


@pytest.mark.parametrize(
    "cov",
    [
        [[0.0]],
        [[1.0, 1.0], [1.0, 1.0]],
        [[1.0, 0.0], [0.0, 1e-13]],
        [[math.nan]],
        [[1.0, 0.0], [0.0, math.inf]],
    ],
)
def test_a_singular_constant_covariance_is_refused_when_the_channel_is_built(cov):
    """A non-finite entry is named before the condition number is taken,
    which numpy cannot compute for a NaN entry."""
    what = "numerically singular" if np.isfinite(cov).all() else "not finite"
    with pytest.raises(LaplaceError, match=f"channel covariance is {what}"):
        linear_channel(np.eye(len(cov)), cov=cov)


def test_a_state_dependent_covariance_that_turns_nan_is_refused_at_that_step():
    """The covariance is finite at the means of the first two steps (0.1 and
    0.175) and NaN at the third (0.231), on the way to the posterior mean 0.4."""
    ch = GaussianChannel(
        1, 1, lambda x: 2.0 * x, None, lambda x: [[1.0 if x[0] < 0.2 else math.nan]]
    )
    cfg = LaplaceConfig(rate=0.05)
    assert run_stack([ch], cfg, PI, Y, 2)[-1][2][0] < 0.2
    with pytest.raises(LaplaceError, match="channel covariance is not finite"):
        run_stack([ch], cfg, PI, Y, 3)


@pytest.mark.parametrize(
    "cov, what",
    [
        ([[-1.0]], "not positive semi-definite"),
        (-np.eye(2), "not positive semi-definite"),
        ([[1.0, 2.0], [2.0, 1.0]], "not positive semi-definite"),
        ([[1.0, 0.5], [0.0, 1.0]], "not symmetric"),
    ],
)
def test_an_indefinite_or_skewed_constant_covariance_is_refused_when_the_channel_is_built(
    cov, what
):
    """Well conditioned is not enough: the covariance must also be a law's
    covariance, symmetric within 1e-9 and PSD within 1e-10, as
    ``dist.gaussian`` requires."""
    with pytest.raises(LaplaceError, match=f"channel covariance is {what}"):
        linear_channel(np.eye(len(cov)), cov=cov)


def _seeded_cov(gen, n):
    """A positive definite n x n covariance whose first row and column are
    -0.0 off the diagonal: a principal block of a positive definite matrix
    beside a positive variance."""
    root = gen.standard_normal((n, n))
    cov = root @ root.T + np.eye(n)
    cov[0, 1:] = cov[1:, 0] = -0.0
    return cov


def _seeded_linear_channels():
    """Linear channels of every shape with dims 1-3.  A covariance of more
    than one dimension has -0.0 entries, and one of three dimensions is
    symmetric only within 1e-12."""
    gen = np.random.default_rng(20)
    for n_in in (1, 2, 3):
        for n_out in (1, 2, 3):
            cov = _seeded_cov(gen, n_out)
            if n_out == 3:
                cov[1, 2] += 1e-12
            yield linear_channel(
                gen.standard_normal((n_out, n_in)), gen.standard_normal(n_out), cov
            ), gen


def test_linear_fast_paths_match_the_generic_constructor_bit_for_bit():
    """A linear level's belief is the law ``mk_state`` builds from the
    optimal covariance, on the first update and on later ones, against each
    of two priors in turn, and a linear channel's law at x is the law
    ``gaussian`` builds from its mean and covariance there."""
    cfg = LaplaceConfig(rate=0.05)
    for ch, gen in _seeded_linear_channels():
        n, m = ch.in_dim, ch.out_dim
        priors = [mk_state(gen.standard_normal(n), _seeded_cov(gen, n)) for _ in range(2)]
        y = gen.standard_normal(m)
        for x, pi in zip((np.full(n, -0.0), *gen.standard_normal((3, n))), priors * 2):
            new_mean = x - cfg.rate * grad_energy(pi, ch, x, y)
            want = mk_state(new_mean, sigma_star(pi, ch, new_mean, y))
            assert gaussian_bits(rho_update(x, pi, y, ch, cfg)) == gaussian_bits(want)
            law = gaussian_bits(ch(x))
            assert law == gaussian_bits(gaussian(euclid(m), ch.mean(x), ch.cov(x)))
            assert gaussian_bits(build_laplace(ch, cfg).forward_lift((x, y), y)) == law
        for bad in (np.nan, np.inf):
            x = np.full(n, bad)
            with np.errstate(invalid="ignore"):
                with pytest.raises(DistError, match="must be finite"):
                    rho_update(x, pi, y, ch, cfg)
                with pytest.raises(DistError, match="must be finite"):
                    ch(x)


# the np.linalg function that each LAPACK gufunc the Laplace layer and
# dist.gaussian call stands in for
_WRAPPERS = {
    laplace._SVD: "cond",
    "slogdet": "slogdet",
    "inv": "inv",
    "eigvalsh_lo": "eigvalsh",
    "solve": "solve",
    "solve1": "solve",
}


def _count_gufuncs(monkeypatch, calls, names=("cond", "eigvalsh", "inv", "slogdet")):
    """Count in ``calls`` each call that ``laplace`` and ``dist`` make to a
    ``numpy.linalg._umath_linalg`` gufunc whose ``np.linalg`` wrapper is one
    of ``names``, under that wrapper's name.  A gufunc not in ``_WRAPPERS`` is
    an ``AttributeError``, so no call escapes the count."""

    def counted(gufunc, name):
        def call(*args, **kwargs):
            calls[name] += 1
            return gufunc(*args, **kwargs)

        return call

    gufuncs = types.SimpleNamespace(**{
        attr: counted(getattr(_umath_linalg, attr), name) if name in names
        else getattr(_umath_linalg, attr)
        for attr, name in _WRAPPERS.items()
    })
    for module in (laplace, dist):
        monkeypatch.setattr(module, "_umath_linalg", gufuncs)


def test_run_stack_checks_each_constant_covariance_once(monkeypatch):
    """On a two-level linear hierarchy the condition check runs once for each
    constant covariance (two channels, the raw prior, and the law the lower
    channel pushes up as the upper prior) and once for each level's energy
    Hessian, whose prior covariance never changes: 6 in all.  The PSD check
    runs once for each channel covariance, the raw prior and each level's
    belief covariance; the inverse once for each prior covariance and each
    energy Hessian.  The log-determinant runs once for each constant
    covariance and once for each level's belief entropy, which its belief
    covariance carries: not once per level-step."""
    calls = collections.Counter()
    _count_gufuncs(monkeypatch, calls)
    levels = [linear_channel([[2.0]], cov=[[1.0]]), linear_channel([[0.5]], cov=[[0.5]])]
    prior = mk_state([0.0], [[2.0]])
    steps = 50
    run_stack(levels, LaplaceConfig(rate=0.05), prior, [1.0], steps)
    constant = len(levels) + 2
    assert calls == {
        "cond": constant + len(levels),
        "eigvalsh": len(levels) + 1 + len(levels),
        "inv": 2 + len(levels),
        "slogdet": constant + len(levels),
    }


def test_a_second_run_repeats_every_prior_and_belief_check(monkeypatch):
    """A level keeps its prior for one run, not for the process: running the
    same two-level linear stack again checks each prior covariance (condition
    number, inverse, log-determinant) and each energy Hessian (condition
    number, inverse) again, and builds each belief covariance (PSD check) and
    its entropy (log-determinant) again.  Only the two channel covariances'
    log-determinants are not repeated: each channel keeps its own."""
    levels = [linear_channel([[2.0]], cov=[[1.0]]), linear_channel([[0.5]], cov=[[0.5]])]
    prior = mk_state([0.0], [[2.0]])
    calls = collections.Counter()
    _count_gufuncs(monkeypatch, calls)
    runs = []
    for _ in range(2):
        calls.clear()
        rows = run_stack(levels, LaplaceConfig(rate=0.05), prior, [1.0], 50)
        runs.append((rows, dict(calls)))
    assert runs[0][0] == runs[1][0]
    assert [counts for _, counts in runs] == [
        {"cond": 4, "inv": 4, "eigvalsh": 2, "slogdet": 6},
        {"cond": 4, "inv": 4, "eigvalsh": 2, "slogdet": 4},
    ]


def _hex_row(step, k, mean, free):
    return step, k, tuple(map(float.hex, mean)), float.hex(free)


def _stepped_rows(levels, cfg, pi0, datum, steps):
    """The rows, by ``float.hex``, of a runner that steps every level at every
    step with ``rho_update`` and ``free_energy_laplace``, each of which checks
    its prior afresh, and each step's beliefs."""
    rows, beliefs, xs = [], [], [np.zeros(ch.in_dim) for ch in levels]
    for step in range(1, steps + 1):
        priors = [pi0] + [ch(x) for ch, x in zip(levels[:-1], xs)]
        data = xs[1:] + [datum]
        beliefs.append([rho_update(*args, cfg) for args in zip(xs, priors, data, levels)])
        for k, (rho, pi, y, ch) in enumerate(zip(beliefs[-1], priors, data, levels)):
            rows.append(_hex_row(step, k, rho.mean, free_energy_laplace(pi, ch, rho, y)))
        xs = [rho.mean_array() for rho in beliefs[-1]]
    return rows, beliefs


def test_a_level_whose_prior_changes_at_every_step_rechecks_it():
    """Below a linear level, a level with a state-dependent covariance pushes
    up a prior whose covariance changes at every step, so the upper level's
    belief covariance does too.  (The lower level rests at 0 for its first
    step, so the first two priors are one value in two tuples, which the
    upper level compares by value.)  ``run_stack`` gives, bit for bit, the means
    of ``mean_path`` on ``stack`` and the rows of a runner that calls
    ``rho_update`` and ``free_energy_laplace`` per level and step, each of
    which checks its prior afresh."""
    lower = GaussianChannel(1, 1, lambda x: 2.0 * x, None, lambda x: [[0.5 + np.tanh(x[0]) ** 2]])
    levels = [lower, linear_channel([[0.5]], cov=[[0.5]])]
    cfg, datum, steps = LaplaceConfig(rate=0.05), np.array([1.0]), 60
    rows = run_stack(levels, cfg, PI, datum, steps)
    want, beliefs = _stepped_rows(levels, cfg, PI, datum, steps)
    assert len({upper.cov for _, upper in beliefs}) == steps - 1
    assert [_hex_row(*row) for row in rows] == want
    path = mean_path(stack(levels, cfg), PI, datum, steps)
    assert [(row[0], row[1], row[2][0]) for row in rows] == [
        (step, k, path[step][2 * k]) for step in range(1, steps + 1) for k in (0, 1)
    ]


def _settled_at(rows, k):
    """The step from which level k's mean stays as the step before left it
    (the zero mean before step 1), or None."""
    means = [(0.0,)] + [mean for _, level, mean, _ in rows if level == k]
    moved = max((s for s in range(1, len(means)) if means[s] != means[s - 1]), default=0)
    return moved + 1 if moved + 1 < len(means) else None


def _first_repeat(rows, depth):
    """The first step after which every level's mean, bit for bit, is what
    it was after an earlier step (the zero means before step 1), with the
    number of steps between the two: (step, period), or None."""
    seen, means = {}, [np.zeros(sum(len(row[2]) for row in rows[:depth]))]
    for step in range(len(rows) // depth):
        means.append(np.concatenate([row[2] for row in rows[step * depth:(step + 1) * depth]]))
    for step, mean in enumerate(means):
        first = seen.setdefault(mean.tobytes(), step)
        if first < step:
            return step, step - first
    return None


def _count_solves(monkeypatch, calls):
    """Count in ``calls`` each solve against a guarded matrix."""

    def counted(self, r, _real=laplace._Guarded.solve):
        calls["solve"] += 1
        return _real(self, r)

    monkeypatch.setattr(laplace._Guarded, "solve", counted)


def _counted_means(levels, calls):
    """The levels with their mean maps counted in ``calls``; each keeps its
    Jacobian and covariance, so a linear level stays linear."""

    def counted(mean):
        def call(x):
            calls["mean"] += 1
            return mean(x)

        return call

    return [dataclasses.replace(ch, mean=counted(ch.mean)) for ch in levels]


# a linear stack whose levels settle at steps 187 and 182
SETTLING = [linear_channel([[1.0]], [0.2], cov=[[0.5]]), linear_channel([[1.5]], cov=[[0.25]])]
SETTLING_PRIOR = mk_state([0.3], [[0.5]])


def test_a_run_that_settles_gives_the_rows_of_a_runner_that_steps_every_level():
    """The stack settles well inside its run: its rows, the repeated ones
    among them, are bit for bit those of a runner that steps every level at
    every step."""
    cfg, steps = LaplaceConfig(rate=0.05), 400
    rows = run_stack(SETTLING, cfg, SETTLING_PRIOR, [1.0], steps)
    assert [_settled_at(rows, k) for k in (0, 1)] == [187, 182]
    assert [_hex_row(*row) for row in rows] == _stepped_rows(
        SETTLING, cfg, SETTLING_PRIOR, np.array([1.0]), steps)[0]


def test_a_settled_run_makes_no_more_evaluations_or_solves_for_more_steps(monkeypatch):
    """Once the stack settles (step 187), ten times the steps evaluate each
    channel and solve as often, and the run's first rows are the shorter
    run's: each level's channel is evaluated at the zero mean and at each of
    the 187 new means, and nowhere else."""
    calls = collections.Counter()
    _count_solves(monkeypatch, calls)
    levels, cfg = _counted_means(SETTLING, calls), LaplaceConfig(rate=0.05)
    runs = []
    for steps in (300, 3000):
        calls.clear()
        runs.append((run_stack(levels, cfg, SETTLING_PRIOR, [1.0], steps), dict(calls)))
    (short, short_calls), (long, long_calls) = runs
    assert short_calls == long_calls and short_calls["mean"] == 2 * (187 + 1)
    assert long[: len(short)] == short and len(long) == 2 * 3000
    assert [row[1:] for row in long[-2:]] == [row[1:] for row in short[-2:]]


@pytest.mark.parametrize("lower_prior_var, upper_gain, upper_prior_var, first", [
    (0.5, 0.5, 4.0, 0),
    (2.0, 1.0, 1.0, 1),
])
def test_a_run_steps_until_every_level_has_settled(
    lower_prior_var, upper_gain, upper_prior_var, first
):
    """A lower channel with A = [[0.0]] decouples the levels: the upper
    level's prior is N(b, Sigma) at every lower mean.  Each level settles on
    its own, one over 250 steps before the other, in either order, and the run
    steps until both have: its rows are the stepping runner's, and it
    evaluates each channel at the last new mean and at none after it."""
    levels = [linear_channel([[0.0]], [0.5], cov=[[upper_prior_var]]),
              linear_channel([[upper_gain]], cov=[[1.0]])]
    pi0, cfg, steps = mk_state([1.0], [[lower_prior_var]]), LaplaceConfig(rate=0.2), 400
    calls = collections.Counter()
    rows = run_stack(_counted_means(levels, calls), cfg, pi0, [1.0], steps)
    settled = [_settled_at(rows, k) for k in (0, 1)]
    assert settled[first] + 200 < settled[1 - first] < steps
    assert calls["mean"] == 2 * (max(settled) + 1)
    assert [_hex_row(*row) for row in rows] == _stepped_rows(
        levels, cfg, pi0, np.array([1.0]), steps)[0]


def _cell_changes(means):
    """How many times a run of means enters a grid cell of side ``_R`` other
    than the one the mean before it lies in, the first mean counted: each
    time, a level with no analytic Jacobian takes its central differences."""
    cells = [[round(v / laplace._R) for v in m] for m in means]
    return 1 + sum(a != b for a, b in zip(cells, cells[1:]))


def test_run_stack_evaluates_a_channel_once_per_point(monkeypatch):
    """N steps of a level with no analytic Jacobian and a state-dependent
    covariance reach N + 1 means, counting the first, and evaluate the channel
    once at each: one mean call there, one covariance call and one condition
    check, plus one condition check per step for the energy Hessian and one
    for the prior, whose covariance never changes.  Central differences, two
    mean calls per input, are taken once per run of consecutive means in one
    grid cell, as the level keeps the last Jacobian for its cell: 80 times
    over these 101 means, where they were taken at every mean (505 mean
    calls in all).  The channel's law at a point reads the mean and the
    covariance alone: no Jacobian, no condition check."""
    n, steps = 2, 100
    w = np.array([[1.0, 0.3], [-0.2, 0.9]])
    calls = collections.Counter()

    def mean(x):
        calls["mean"] += 1
        return np.tanh(w @ x)

    def cov(x):
        calls["cov"] += 1
        return np.diag(0.5 + 0.2 * np.tanh(x) ** 2)

    ch = GaussianChannel(n, n, mean, None, cov)
    prior = mk_state([0.1, -0.2], np.eye(n))
    _count_gufuncs(monkeypatch, calls, names=("cond",))
    rows = run_stack([ch], LaplaceConfig(rate=0.1), prior, [0.3, -0.4], steps)
    differences = _cell_changes([np.zeros(n)] + [row[2] for row in rows])
    assert differences < steps + 1
    assert calls == {
        "mean": steps + 1 + 2 * n * differences, "cov": steps + 1, "cond": 2 * steps + 2,
    }
    calls.clear()
    ch([0.2, 0.1])
    assert calls == {"mean": 1, "cov": 1}


def test_a_nonlinear_level_step_makes_six_small_lapack_calls_and_three_solves(monkeypatch):
    """A level with no analytic Jacobian and a state-dependent covariance
    checks two matrices that change at every step: the covariance at the new
    mean (a condition number and a log-determinant) and the energy Hessian (a
    condition number and an inverse).  Its belief takes a PSD check and, for
    its entropy, a log-determinant, and its errors and curvature take three
    solves (``test_run_stack_solves_each_error_once``).  The run starts with
    the prior's condition number, inverse and log-determinant, the
    covariance's condition number at the zero mean and the two errors solved
    there."""
    w = np.array([[1.0, 0.3], [-0.2, 0.9]])
    ch = GaussianChannel(
        2, 2, lambda x: np.tanh(w @ x), None, lambda x: np.diag(0.5 + 0.2 * np.tanh(x) ** 2)
    )
    prior = mk_state([0.1, -0.2], np.eye(2))
    calls = collections.Counter()
    _count_gufuncs(monkeypatch, calls, names=("cond", "eigvalsh", "inv", "slogdet", "solve"))
    for steps in (10, 40):
        calls.clear()
        run_stack([ch], LaplaceConfig(rate=0.1), prior, [0.3, -0.4], steps)
        assert calls == {
            "cond": 2 * steps + 2,
            "slogdet": 2 * steps + 1,
            "inv": steps + 1,
            "eigvalsh": steps,
            "solve": 3 * steps + 2,
        }, steps


def test_uninformative_channel_keeps_the_prior_covariance():
    flat = linear_channel([[0.0]], cov=[[1.0]])
    sig = sigma_star(PI, flat, [0.0], Y)
    assert abs(sig[0, 0] - 1.0) <= 1e-12


def test_nonlinear_channel_uses_finite_difference_jacobian():
    def mean(x):
        return np.tanh(x)

    def jac(x):
        return np.atleast_2d(1.0 - np.tanh(x) ** 2)

    with_jac = GaussianChannel(1, 1, mean, jac, lambda x: [[0.5]])
    without = GaussianChannel(1, 1, mean, None, lambda x: [[0.5]])
    for x in (-1.2, 0.3, 2.0):
        g1 = grad_energy(PI, with_jac, [x], [0.7])[0]
        g2 = grad_energy(PI, without, [x], [0.7])[0]
        assert abs(g1 - g2) / max(abs(g1), 1e-12) <= 1e-5
    # both channels get the Gauss-Newton curvature, which stays positive where
    # the energy's own second derivative does not (at x = -1.2 it is negative)
    frozen = LaplaceConfig(rate=0.0)
    for x in (-1.2, 0.3, 2.0):
        s1 = sigma_star(PI, with_jac, [x], [0.7])
        s2 = sigma_star(PI, without, [x], [0.7])
        assert np.max(np.abs(s1 - s2)) <= 1e-9
        r1 = rho_update([x], PI, [0.7], with_jac, frozen)
        r2 = rho_update([x], PI, [0.7], without, frozen)
        assert r1.mean == r2.mean
        assert np.max(np.abs(r1.cov_array() - r2.cov_array())) <= 1e-9
    assert abs(rho_update([-1.2], PI, [0.7], without, frozen).cov_array()[0, 0] - 0.8431) <= 1e-4


def test_diagonal_problem_decouples():
    gamma = linear_channel([[2.0, 0.0], [0.0, 3.0]], cov=[[1.0, 0.0], [0.0, 0.5]])
    pi = mk_state([0.0, 0.0], np.eye(2))
    cfg = LaplaceConfig(rate=0.05)
    state = pi
    for _ in range(200):
        state = rho_update(state.mean_array(), pi, [1.0, 1.0], gamma, cfg)
    # per coordinate: precision 5 and 19, means 2/5 and 6/19
    assert abs(state.mean[0] - 0.4) <= 1e-6
    assert abs(state.mean[1] - 6.0 / 19.0) <= 1e-6
    sig = np.asarray(state.cov)
    assert abs(sig[0, 0] - 0.2) <= 1e-12
    assert abs(sig[1, 1] - 1.0 / 19.0) <= 1e-12
    assert abs(sig[0, 1]) <= 1e-12


TWO_LEVELS = [linear_channel([[2.0]], cov=[[1.0]]), linear_channel([[0.5]], cov=[[0.5]])]


def test_two_level_stack_finds_the_joint_posterior():
    cfg = LaplaceConfig(rate=0.05)
    rows = run_stack(TWO_LEVELS, cfg, PI, [1.0], 4000)
    # joint energy in (x0, x1) is quadratic; solve grad = 0 directly
    lam = np.array([[5.0, -2.0], [-2.0, 1.5]])
    eta = np.array([0.0, 1.0])
    want = np.linalg.solve(lam, eta)
    assert abs(want[0] - 4.0 / 7.0) <= 1e-15 and abs(want[1] - 10.0 / 7.0) <= 1e-15
    last = [r for r in rows if r[0] == 4000]
    assert abs(last[0][2][0] - want[0]) <= 1e-4
    assert abs(last[1][2][0] - want[1]) <= 1e-4


def test_stack_mean_skeleton_matches_reference_runner():
    cfg = LaplaceConfig(rate=0.05)
    hs = stack(TWO_LEVELS, cfg)
    path = mean_path(hs, state_dist(PI), [1.0], 300)
    rows = run_stack(TWO_LEVELS, cfg, PI, [1.0], 300)
    for step in range(1, 301):
        r0, r1 = rows[2 * (step - 1)], rows[2 * (step - 1) + 1]
        assert r0[2][0] == path[step][0]  # level-0 latent
        assert r1[2][0] == path[step][2]  # level-1 latent


def test_two_level_mean_path_converges_to_pinned_point():
    cfg = LaplaceConfig(rate=0.05)
    hs = stack(TWO_LEVELS, cfg)
    final = mean_path(hs, state_dist(PI), [1.0], 4000)[-1]
    want = (
        0.5714285714285697,
        1.1428571428571395,
        1.4285714285714248,
        0.7142857142857124,
    )
    assert all(abs(a - b) <= 1e-12 for a, b in zip(final, want))
    # predictions are the channels applied to the latents
    assert abs(final[1] - 2.0 * final[0]) <= 1e-12
    assert abs(final[3] - 0.5 * final[2]) <= 1e-12


def test_three_level_composition_is_associative_on_the_skeleton():
    levels = TWO_LEVELS + [linear_channel([[1.5]], cov=[[0.8]])]
    cfg = LaplaceConfig(rate=0.05)
    s0, s1, s2 = (build_laplace(ch, cfg) for ch in levels)
    left = hibi_compose(hibi_compose(s0, s1), s2)
    right = hibi_compose(s0, hibi_compose(s1, s2))
    pl = mean_path(left, state_dist(PI), [1.0], 64)
    pr = mean_path(right, state_dist(PI), [1.0], 64)
    assert pl == pr


def test_stack_rejects_mismatched_levels():
    """``stack`` and ``run_stack`` share one level check; ``run_stack`` makes
    it before the first step, so also when it runs none."""
    cfg = LaplaceConfig()
    mismatched = [linear_channel([[2.0]]), linear_channel([[1.0, 1.0]])]
    with pytest.raises(LaplaceError, match="adjacent levels disagree: 1 -> 2"):
        stack(mismatched, cfg)
    with pytest.raises(LaplaceError, match="a stack needs at least one level"):
        stack([], cfg)
    for steps in (0, 1):
        with pytest.raises(LaplaceError, match="adjacent levels disagree: 1 -> 2"):
            run_stack(mismatched, cfg, PI, [1.0], steps)
        with pytest.raises(LaplaceError, match="a stack needs at least one level"):
            run_stack([], cfg, PI, [1.0], steps)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_the_runners_refuse_a_non_finite_datum(bad):
    cfg = LaplaceConfig()
    match = rf"datum \[{bad}\] is not finite"
    with pytest.raises(LaplaceError, match=match):
        run_stack(TWO_LEVELS, cfg, PI, [bad], 1)
    with pytest.raises(LaplaceError, match=match):
        mean_path(stack(TWO_LEVELS, cfg), PI, [bad], 1)


def test_the_runners_refuse_a_datum_or_prior_of_the_wrong_size():
    cfg = LaplaceConfig()
    with pytest.raises(LaplaceError, match="^datum dimension does not match the top level$"):
        run_stack(TWO_LEVELS, cfg, PI, [1.0, 2.0], 1)
    wide = mk_state([0.0, 0.0], [[1.0, 0.0], [0.0, 1.0]])
    with pytest.raises(LaplaceError, match="^prior dimension does not match the bottom level$"):
        run_stack(TWO_LEVELS, cfg, wide, [1.0], 1)


def test_mean_path_refuses_an_update_that_is_not_gaussian():
    hs = stack(TWO_LEVELS, LaplaceConfig())
    frozen = dataclasses.replace(hs, absorb=lambda x, pi, d: dirac(hs.states, x))
    with pytest.raises(LaplaceError, match="^state update did not produce a Gaussian law$"):
        mean_path(frozen, PI, [1.0], 1)


def test_the_runners_refuse_a_negative_step_count():
    """A run lasts 0 or more steps: 0 gives no rows and the initial path."""
    cfg = LaplaceConfig()
    with pytest.raises(LaplaceError, match="steps must be non-negative, got -1"):
        run_stack(TWO_LEVELS, cfg, PI, [1.0], -1)
    with pytest.raises(LaplaceError, match="steps must be non-negative, got -1"):
        mean_path(stack(TWO_LEVELS, cfg), PI, [1.0], -1)
    assert run_stack(TWO_LEVELS, cfg, PI, [1.0], 0) == []
    assert mean_path(stack(TWO_LEVELS, cfg), PI, [1.0], 0) == [(0.0,) * 4]


@pytest.mark.parametrize("steps", (2.5, 2.0, "3", True, False, None))
def test_the_runners_refuse_a_run_length_that_is_not_an_integer(steps):
    """A run lasts a whole number of steps: a float (a whole one too), a
    string and a bool, which Python counts as an integer, are refused by name,
    where 2.5 failed in ``range``, "3" in ``<`` and True ran one step.  A
    numpy integer is a run length like any other."""
    cfg = LaplaceConfig()
    message = rf"^steps must be an integer, got {re.escape(repr(steps))}$"
    with pytest.raises(LaplaceError, match=message):
        run_stack(TWO_LEVELS, cfg, PI, [1.0], steps)
    with pytest.raises(LaplaceError, match=message):
        mean_path(stack(TWO_LEVELS, cfg), PI, [1.0], steps)
    assert run_stack(TWO_LEVELS, cfg, PI, [1.0], np.int64(3)) == run_stack(
        TWO_LEVELS, cfg, PI, [1.0], 3
    )
    assert mean_path(stack(TWO_LEVELS, cfg), PI, [1.0], np.int64(3)) == mean_path(
        stack(TWO_LEVELS, cfg), PI, [1.0], 3
    )


def test_a_guarded_solve_is_numpys_solve_bit_for_bit():
    """``_Guarded.solve`` calls the gufunc that ``np.linalg.solve`` wraps, so
    it gives the same bits: on 2,400 seeded systems of sizes 1-4, half of
    them covariances and half general matrices, against vector and matrix
    right-hand sides, read-only or not; and against the guard of an
    integer-valued covariance that a user's ``cov`` map returns."""
    gen = np.random.default_rng(17)
    for k in range(2400):
        n = 1 + k % 4
        root = gen.standard_normal((n, n))
        a = root @ root.T + 0.1 * np.eye(n) if k % 2 else root + n * np.eye(n)
        r = gen.standard_normal(n if k % 3 == 0 else (n, 1 + k % 3))
        if k % 5 == 0:
            a.flags.writeable = r.flags.writeable = False
        got, want = laplace._Guarded("a matrix", a).solve(r), np.linalg.solve(a, r)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()
    counts = GaussianChannel(2, 2, lambda x: x, None, lambda x: np.array([[2, 1], [1, 3]]))
    guard = laplace._Evaluation(counts, np.zeros(2), laplace._Prior(counts)).guard()
    for r in (np.array([1.0, -2.0]), np.array([[1.0, 0.5], [0.0, -3.0]]), np.array([3, 1])):
        assert guard.solve(r).tobytes() == np.linalg.solve(counts.cov(None), r).tobytes()


def test_each_gufunc_route_is_numpys_wrapper_bit_for_bit():
    """The condition number, log-determinant, inverse and PSD eigenvalues call
    the gufuncs that ``np.linalg.cond``, ``slogdet``, ``inv`` and ``eigvalsh``
    wrap, so they give the same bits: on 2,400 seeded matrices of sizes 1-4,
    half of them covariances and half general matrices, read-only or not; and
    on the guard of an integer-valued covariance that a user's ``cov`` map
    returns.  A general matrix whose determinant is negative is refused."""
    gen = np.random.default_rng(21)
    for k in range(2400):
        n = 1 + k % 4
        root = gen.standard_normal((n, n))
        a = root @ root.T + 0.1 * np.eye(n) if k % 2 else root + n * np.eye(n)
        if k % 5 == 0:
            a.flags.writeable = False
        assert laplace._conditioning(a)[0].hex() == float(np.linalg.cond(a)).hex()
        sign, logdet = np.linalg.slogdet(a)
        if sign > 0:
            assert laplace._logdet_psd("a matrix", a).hex() == float(logdet).hex()
        else:
            with pytest.raises(LaplaceError, match="^a matrix has non-positive determinant$"):
                laplace._logdet_psd("a matrix", a)
        got, want = laplace._Guarded("a matrix", a).inverse(), np.linalg.inv(a)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()
        got, want = dist._symmetric_eigenvalues(a), np.linalg.eigvalsh(a)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()
    counts = GaussianChannel(2, 2, lambda x: x, None, lambda x: np.array([[2, 1], [1, 3]]))
    cov = counts.cov(None)
    guard = laplace._Evaluation(counts, np.zeros(2), laplace._Prior(counts)).guard()
    assert laplace._conditioning(guard.matrix)[0].hex() == float(np.linalg.cond(cov)).hex()
    assert guard.logdet().hex() == float(np.linalg.slogdet(cov)[1]).hex()
    assert guard.inverse().tobytes() == np.linalg.inv(cov).tobytes()
    assert dist._symmetric_eigenvalues(guard.matrix).tobytes() == np.linalg.eigvalsh(cov).tobytes()


def test_the_refusals_around_the_gufuncs_are_the_same_and_warn_nothing():
    """What the ``numpy.linalg`` wrappers refused is still refused, with the
    same message and no ``RuntimeWarning``: a zero or exactly singular matrix
    has condition number inf; a NaN or infinite entry, in either off-diagonal
    place, in both or on the diagonal, is named before any factorisation; a
    negative determinant and an indefinite covariance are refused; an empty
    matrix has no condition number."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for singular in ([[0.0]], np.zeros((2, 2)), [[1.0, 2.0], [0.0, 0.0]], np.diag([1.0, 0.0])):
            with pytest.raises(
                LaplaceError, match=r"^a matrix is numerically singular \(condition number inf\)$"
            ):
                laplace._Guarded("a matrix", singular)
        for bad in (math.nan, math.inf, -math.inf):
            for where in ((0, 1), (1, 0), (1, 1), ((0, 1), (1, 0))):
                sigma = np.eye(2)
                sigma[where] = bad
                with pytest.raises(LaplaceError, match="^a matrix is not finite$"):
                    laplace._Guarded("a matrix", sigma)
        for negative in ([[-1.0]], [[0.0, 1.0], [1.0, 0.0]], np.diag([1.0, -2.0, 3.0])):
            with pytest.raises(LaplaceError, match="^a matrix has non-positive determinant$"):
                laplace._logdet_psd("a matrix", np.asarray(negative))
        for indefinite in ([[-1.0]], [[1.0, 2.0], [2.0, 1.0]]):
            with pytest.raises(DistError, match="^covariance is not positive semi-definite$"):
                gaussian(euclid(len(indefinite)), np.zeros(len(indefinite)), indefinite)
        with pytest.raises(np.linalg.LinAlgError, match="^cond is not defined on empty arrays$"):
            laplace._Guarded("a matrix", np.zeros((0, 0)))


def test_run_stack_solves_each_error_once(monkeypatch):
    """A level's free energy at its new mean solves both errors there, and
    its next gradient step, from that mean, solves again only the error whose
    datum or prior changed.  Of N steps, the first also solves both errors at
    the start (the zero mean) and, on a linear level, its curvature, which the
    level keeps for later steps.
    - One linear level: its datum and prior never change, so 2 solves per
      step, 2N + 3 in all (4N + 1 when each step solved both errors twice).
    - Two linear levels: the lower one's datum and the upper one's prior
      change at every step, so 3 solves per level-step, 6N + 4 in all.
    - One nonlinear level: its curvature changes with the mean, so 3 solves
      per step, 3N + 2 in all."""
    calls = collections.Counter()
    _count_solves(monkeypatch, calls)
    tanh = GaussianChannel(1, 1, np.tanh, None, lambda x: [[0.5 + 0.1 * np.tanh(x[0]) ** 2]])
    cfg, steps = LaplaceConfig(rate=0.05), 40
    runs = (([GAMMA], 2 * steps + 3), (TWO_LEVELS, 6 * steps + 4), ([tanh], 3 * steps + 2))
    for levels, want in runs:
        calls.clear()
        run_stack(levels, cfg, PI, Y, steps)
        assert calls["solve"] == want, len(levels)


def _three_linear_levels():
    gen = np.random.default_rng(3)
    levels = [
        linear_channel(np.eye(2) + 0.3 * gen.standard_normal((2, 2)), 0.2 * gen.standard_normal(2),
                       _seeded_cov(gen, 2))
        for _ in range(3)
    ]
    return levels, mk_state(gen.standard_normal(2), _seeded_cov(gen, 2)), gen.standard_normal(2)


def test_a_linear_mean_path_checks_each_predicted_law_once_per_prior(monkeypatch):
    """Each level of a linear depth-3 stack receives one prior covariance, so
    ``mean_path`` checks symmetry and PSD (``eigvalsh``) twice per level,
    however many steps it runs: once for the belief covariance and once for
    the covariance of the observation it predicts under that belief."""
    levels, pi0, datum = _three_linear_levels()
    cfg = LaplaceConfig(rate=0.05)
    calls = collections.Counter()
    _count_gufuncs(monkeypatch, calls, names=("eigvalsh",))
    for steps in (20, 60):
        calls.clear()
        mean_path(stack(levels, cfg), pi0, datum, steps)
        assert calls == {"eigvalsh": 2 * len(levels)}, steps


def test_a_depth_three_mean_path_step_composes_one_lens(monkeypatch):
    """``hibi_compose`` lifts the middle wire on f's own lens, so no lift
    lens is composed after it.  One step of a depth-3 stack then composes
    one pair of lenses: the outer composite reads the inner composite's
    forward map from its emitted lens, the two lower levels composed."""
    levels, pi0, datum = _three_linear_levels()
    hs = stack(levels, LaplaceConfig(rate=0.05))
    calls = collections.Counter()
    compose = hier.compose_map

    def counted(g, f):
        calls["compose_map"] += 1
        return compose(g, f)

    monkeypatch.setattr(hier, "compose_map", counted)
    for steps in (1, 7):
        calls.clear()
        mean_path(hs, pi0, datum, steps)
        assert calls == {"compose_map": steps}


def test_a_depth_three_mean_path_step_makes_five_products_and_one_unflatten(monkeypatch):
    """One step of a depth-3 stack forms five independent products: one in
    each level's absorb (its belief beside its prediction) and one in each
    of the two composites' absorbs.  ``mean_path`` reads the new state from
    the flat mean once per step, and once more for the zero state it starts
    from."""
    levels, pi0, datum = _three_linear_levels()
    hs = stack(levels, LaplaceConfig(rate=0.05))
    calls = collections.Counter()

    def counted(module, name):
        real = getattr(module, name)

        def call(*args):
            calls[name] += 1
            return real(*args)

        monkeypatch.setattr(module, name, call)

    for module, name in ((hier, "dst"), (laplace, "dst"), (laplace, "unflatten_floats")):
        counted(module, name)
    for steps in (1, 7):
        calls.clear()
        mean_path(hs, pi0, datum, steps)
        assert calls == {"dst": 5 * steps, "unflatten_floats": steps + 1}, steps


def _seeded_nonlinear_channels():
    """Channels with no analytic Jacobian and a state-dependent covariance,
    mean tanh(Wx) + b, for n = 1, 2 and 3, and the rational channel."""
    gen = np.random.default_rng(31)
    for n in (1, 2, 3):
        w = np.eye(n) + 0.3 * gen.standard_normal((n, n))
        b = 0.2 * gen.standard_normal(n)
        yield GaussianChannel(
            n, n,
            lambda x, w=w, b=b: np.tanh(w @ x) + b,
            None,
            lambda x: np.diag(0.5 + 0.2 * np.tanh(x) ** 2),
        ), mk_state(0.3 * gen.standard_normal(n), _seeded_cov(gen, n)), gen.standard_normal(n)
    yield (GaussianChannel(2, 2, _rational_mean, None, _rational_cov),
           mk_state([0.25, -0.5], [[1.0, 0.25], [0.25, 0.75]]), np.array([0.375, -0.625]))


def test_a_new_belief_reads_its_entropy_from_the_array_it_was_built_from():
    """A nonlinear level checks each new belief once, on the inverse-Hessian
    array, and keeps that symmetrised array with the belief's covariance:
    the belief's entropy and prediction read it, and its entropy equals
    ``gaussian_entropy``, which reads the stored tuple, bit for bit.  A
    belief the level built before reads its own tuple, never the array of
    the last one."""
    cfg = LaplaceConfig(rate=0.1)
    for ch, pi, y in _seeded_nonlinear_channels():
        at = laplace._Evaluation(ch, np.zeros(ch.in_dim), laplace._Prior(ch))
        prior, beliefs = at.prior, []
        for _ in range(12):
            rho, at = at.update(pi, y, cfg)
            kept = prior.built[1]
            assert prior.built[0] is rho.cov and prior.array(rho) is kept
            assert kept.tobytes() == rho.cov_array().tobytes()
            assert prior.entropy(rho).hex() == gaussian_entropy(rho).hex()
            beliefs.append(rho)
        entropies = [gaussian_entropy(rho).hex() for rho in beliefs]
        assert len(set(entropies)) > 1, ch
        for rho, want in zip(beliefs[:-1], entropies):
            assert prior.array(rho) is not prior.built[1]
            assert prior.array(rho).tobytes() == rho.cov_array().tobytes()
            assert prior.entropy(rho).hex() == want


def _count_evaluations(monkeypatch, calls):
    """Count in ``calls`` each ``_Evaluation`` built."""

    def counted(self, *args, _real=laplace._Evaluation.__init__):
        calls["evaluation"] += 1
        _real(self, *args)

    monkeypatch.setattr(laplace._Evaluation, "__init__", counted)


def test_a_depth_three_mean_path_evaluates_each_channel_once_per_point(monkeypatch):
    """A level keeps its last evaluation, at its new mean, where the next
    step's absorb and both forward lifts of the bottom level read it.  So a
    depth-3 ``mean_path`` of s steps builds as many evaluations as
    ``run_stack``: one per level at the zero mean and one per level-step at
    the new mean, 3s + 3, where it built 9s when each absorb and each lift
    evaluated the channel afresh."""
    levels, pi0, datum = _three_linear_levels()
    cfg = LaplaceConfig(rate=0.05)
    calls = collections.Counter()
    _count_evaluations(monkeypatch, calls)
    for steps in (1, 7):
        counts = []
        for run in (lambda: mean_path(stack(levels, cfg), pi0, datum, steps),
                    lambda: run_stack(levels, cfg, pi0, datum, steps)):
            calls.clear()
            run()
            counts.append(calls["evaluation"])
        assert counts == [3 * steps + 3] * 2, steps


def _level_state(x):
    """A 1-D level's state: latent x and prediction 0.0."""
    return (x,), (0.0,)


def test_a_level_absorbing_away_from_its_last_new_mean_equals_a_fresh_level():
    """A level reads its kept evaluation only at a latent with its raw bytes:
    absorbing and lifting at any other state gives, bit for bit, what a fresh
    level gives there, and so does absorbing at the last new mean, where the
    kept evaluation is read."""
    tanh = GaussianChannel(1, 1, np.tanh, None, lambda x: [[0.5 + 0.1 * np.tanh(x[0]) ** 2]])
    cfg = LaplaceConfig(rate=0.05)
    for ch in (GAMMA, tanh):
        level = build_laplace(ch, cfg)
        last = level.absorb(_level_state(0.3), PI, tuple(Y)).mean[0]
        for x in (0.3, last, last + 0.1, -last, last):
            fresh = build_laplace(ch, cfg)
            got = level.absorb(_level_state(x), PI, tuple(Y))
            want = fresh.absorb(_level_state(x), PI, tuple(Y))
            assert gaussian_bits(got) == gaussian_bits(want), (ch, x)
            for x_lift in (x, got.mean[0]):
                lifted = level.forward_lift(_level_state(x_lift), None)
                assert gaussian_bits(lifted) == gaussian_bits(ch([x_lift])), (ch, x, x_lift)
            last = got.mean[0]


def test_a_level_tells_a_zero_latent_from_a_negative_zero_one():
    """A mean map can read the sign of zero, so the kept evaluation is keyed by
    raw bytes, not by ``==``: a frozen level (rate 0) absorbed at 0.0 keeps
    its evaluation at 0.0, and then absorbed and lifted at -0.0 gives what a
    fresh level gives there, and not what it gives at 0.0."""
    sign = GaussianChannel(1, 1, lambda x: np.copysign(1.0, x), None, lambda x: [[1.0]])
    cfg, datum = LaplaceConfig(rate=0.0), (-2.0,)
    level = build_laplace(sign, cfg)
    results = []
    for x in (0.0, -0.0):
        got = gaussian_bits(level.absorb(_level_state(x), PI, datum))
        assert got == gaussian_bits(build_laplace(sign, cfg).absorb(_level_state(x), PI, datum)), x
        results.append(got)
    assert results[0] != results[1]
    for x in (0.0, -0.0, 0.0):
        lifted = level.forward_lift(_level_state(x), None)
        assert lifted.mean == (math.copysign(1.0, x),), x


def _assert_shared_level_paths_equal_run_stack(levels, pi0, datum, cfg, steps=40):
    """A stack with one ``build_laplace`` system of levels[0] at both levels,
    and two stacks stepped in alternation on that one system at the bottom,
    with levels[1] and levels[2] above it: each path is, bit for bit, its
    ``run_stack`` rows, and so is each stack's own ``mean_path`` after the
    alternation."""

    def rows_of(chs):
        return [tuple(map(float.hex, row[2])) for row in run_stack(chs, cfg, pi0, datum, steps)]

    def means_of(path, depth):
        return [tuple(map(float.hex, path[step][k * 4: k * 4 + 2]))
                for step in range(1, steps + 1) for k in range(depth)]

    shared = build_laplace(levels[0], cfg)
    twice = hibi_compose(shared, shared)
    assert means_of(mean_path(twice, pi0, datum, steps), 2) == rows_of([levels[0]] * 2)

    stacks = [hibi_compose(shared, build_laplace(levels[1], cfg)),
              hibi_compose(shared, build_laplace(levels[2], cfg))]
    chains = [[levels[0], levels[1]], [levels[0], levels[2]]]
    points = [unflatten_floats(hs.states, (0.0,) * euclid_dims(hs.states)) for hs in stacks]
    paths = [[], []]
    for _ in range(steps):
        for k, hs in enumerate(stacks):
            law = hs.absorb(points[k], pi0, tuple(datum))
            points[k] = unflatten_floats(hs.states, law.mean)
            paths[k].append(law.mean)
    for hs, path, chs in zip(stacks, paths, chains):
        assert means_of([None] + path, 2) == rows_of(chs)
        assert means_of(mean_path(hs, pi0, datum, steps), 2) == rows_of(chs)


def test_mean_paths_that_share_a_level_system_each_equal_run_stack():
    """A ``build_laplace`` system shared between composites keeps one
    evaluation for all of them.  A stack with one system at both levels
    reads it at two latents in every step, and two stacks stepped in
    alternation on one shared bottom system read it at two paths: each path
    is, bit for bit, its ``run_stack`` rows, and so is each stack's own
    ``mean_path`` after the alternation."""
    levels, pi0, datum = _three_linear_levels()
    _assert_shared_level_paths_equal_run_stack(levels, pi0, datum, LaplaceConfig(rate=0.05))


def _shared_nonlinear_levels():
    """Three 2-d levels with no analytic Jacobian, a prior and a datum."""
    levels = [ch for ch, _, _ in _seeded_nonlinear_channels() if ch.in_dim == 2]
    gen = np.random.default_rng(32)
    w = np.eye(2) + 0.3 * gen.standard_normal((2, 2))
    levels.append(GaussianChannel(
        2, 2, lambda x: np.tanh(w @ x), None, lambda x: np.diag(0.6 + 0.1 * np.tanh(x) ** 2)
    ))
    return levels, mk_state(gen.standard_normal(2), _seeded_cov(gen, 2)), gen.standard_normal(2)


def test_nonlinear_mean_paths_that_share_a_level_system_each_equal_run_stack():
    """A nonlinear level keeps the array of the last belief it built, and one
    ``build_laplace`` system shared between composites is one level for all
    of them: shared as above, each reads every belief's own array, and each
    path is its ``run_stack`` rows bit for bit."""
    levels, pi0, datum = _shared_nonlinear_levels()
    _assert_shared_level_paths_equal_run_stack(levels, pi0, datum, LaplaceConfig(rate=0.1))


def test_shared_nonlinear_paths_that_revisit_grid_cells_each_equal_run_stack():
    """A level keeps one central-difference Jacobian, for the grid cell it
    was last taken in, and a shared ``build_laplace`` system keeps it for
    every path that runs through it.  The 40 steps above end before any
    path reaches a cell a second time in a row; over 800 steps every level
    of each chain does (its means stay in one cell from one step to the
    next), and reads the Jacobian taken at the cell's point, whichever path
    entered the cell first: each path is still its ``run_stack`` rows bit
    for bit."""
    levels, pi0, datum = _shared_nonlinear_levels()
    cfg, steps = LaplaceConfig(rate=0.1), 800
    for chain in ([levels[0]] * 2, levels[:2], [levels[0], levels[2]]):
        rows = run_stack(chain, cfg, pi0, datum, steps)
        for k in (0, 1):
            means = [np.zeros(2)] + [row[2] for row in rows[k::2]]
            assert _cell_changes(means[:41]) == 41 and _cell_changes(means) < steps + 1
    _assert_shared_level_paths_equal_run_stack(levels, pi0, datum, cfg, steps)


def test_a_linear_level_predicts_the_law_gaussian_checks_bit_for_bit():
    """A linear level's update is its belief and the law of its prediction,
    N(A mu + b, A Sigma A^T + Sigma_gamma), which it checks once per belief
    covariance and keeps: bit for bit the law ``gaussian`` checks afresh, under
    a prior kept for some steps and under one whose covariance changes at
    every step, and back again."""
    levels = _three_linear_levels()[0]
    gen, cfg = np.random.default_rng(8), LaplaceConfig(rate=0.05)
    for ch in levels + [lv for lv, _ in _seeded_linear_channels()]:
        n, m = ch.in_dim, ch.out_dim
        hs = build_laplace(ch, cfg)
        y = gen.standard_normal(m)
        kept = mk_state(gen.standard_normal(n), _seeded_cov(gen, n))
        changing = [mk_state(gen.standard_normal(n), _seeded_cov(gen, n)) for _ in range(4)]
        x, ypred = np.zeros(n), np.zeros(m)
        for t, pi in enumerate([kept] * 3 + changing + [kept] * 2):
            rho = rho_update(x, pi, y, ch, cfg)
            a = ch.jacobian(x)
            cov = a @ rho.cov_array() @ a.T + ch.cov(x)
            pred = gaussian(euclid(m), ch.mean(rho.mean_array()), cov)
            got = hs.absorb((tuple(x), tuple(ypred)), pi, tuple(y))
            assert gaussian_bits(got) == gaussian_bits(dst(rho, pred)), t
            x, ypred = np.asarray(got.mean[:n]), np.asarray(got.mean[n:])


def test_a_matrix_of_subnormal_scale_is_refused_as_numerically_singular():
    """``1e-310 * I`` has condition number 1, yet its solve against ones is
    [nan, inf]: a matrix whose smallest singular value is subnormal is
    refused, by name.  At the smallest normal scale a solve stays finite."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for subnormal in (1e-310 * np.eye(2), [[5e-324]], np.diag([1e-300, 1e-309])):
            message = r"^a matrix is numerically singular \(smallest singular value \S+e-3\d\d\)$"
            with pytest.raises(LaplaceError, match=message):
                laplace._Guarded("a matrix", subnormal)
        guard = laplace._Guarded("a matrix", np.finfo(float).tiny * np.eye(2))
        assert np.isfinite(guard.solve(np.ones(2))).all() and np.isfinite(guard.inverse()).all()


def test_run_stack_names_a_channel_covariance_of_subnormal_scale():
    """Before any energy Hessian is formed: a constant covariance when the
    channel is built, a state-dependent one at the step that reads it."""
    cfg = LaplaceConfig(rate=0.05)
    with pytest.raises(LaplaceError, match="^channel covariance is numerically singular"):
        run_stack([linear_channel([[1.0], [1.0]], cov=1e-310 * np.eye(2))], cfg, PI,
                  [1.0, 1.0], 2)
    tiny = GaussianChannel(1, 1, lambda x: 2.0 * x, None, lambda x: [[1e-310]])
    with pytest.raises(LaplaceError, match="^channel covariance is numerically singular"):
        run_stack([tiny], cfg, PI, Y, 2)


# a nonlinear level whose mean map and covariance call no libm function, so
# only polydyn's own numpy and LAPACK calls decide a run's bits
RATIONAL_COUPLING = np.array([0.5, -0.25])
RATIONAL_OFFSET = np.array([0.125, -0.25])


def _rational_mean(x):
    v = x + RATIONAL_COUPLING * x[::-1]
    return v / (1.0 + v * v) + RATIONAL_OFFSET


def _rational_cov(x):
    return np.diag(0.5 + 0.25 * x * x / (1.0 + x * x))


def test_a_nonlinear_run_is_pinned():
    """A level with no analytic Jacobian and a state-dependent covariance,
    run for 300 steps, which reaches its fixed point at step 155: every mean
    and free energy of every row, by ``float.hex``.  A change in the last bit
    of any central difference, check or solve of a nonlinear level-step
    changes this digest."""
    channel = GaussianChannel(2, 2, _rational_mean, None, _rational_cov)
    prior = mk_state([0.25, -0.5], [[1.0, 0.25], [0.25, 0.75]])
    rows = run_stack([channel], LaplaceConfig(rate=0.1), prior, [0.375, -0.625], 300)
    assert _first_repeat(rows, 1) == (155, 1)
    text = "\n".join(
        ",".join([str(step), str(k), *map(float.hex, mean), float.hex(free)])
        for step, k, mean, free in rows
    )
    digest = hashlib.sha256(text.encode()).hexdigest()
    assert digest == "04e0649b70aa5f78707348fc9929f708416c1b35ddc42313131a8740c9c96a39"


# a 3 -> 2 level built like the benchmark's nonlinear one: mean tanh(Wx) + b,
# a diagonal covariance that depends on x, no analytic Jacobian.  Wx is taken
# elementwise and tanh from libm (``math.tanh``), as numpy's own tanh picks
# its SIMD code by the CPU and may round otherwise
TANH_COUPLING = np.array([0.5, -0.25])
TANH_OFFSET = np.array([0.125, -0.25])


def _tanh(v):
    return np.array([math.tanh(c) for c in v])


def _tanh_mean(x):
    return _tanh(x[:2] + TANH_COUPLING * x[1:]) + TANH_OFFSET


def _tanh_cov(x):
    t = _tanh(x[:2])
    return np.diag(0.5 + 0.2 * t * t)


def test_a_non_square_nonlinear_run_is_pinned():
    """A 3 -> 2 level with no analytic Jacobian and a state-dependent
    covariance, run for 300 steps, which reaches its fixed point at step
    184: every mean and free energy of every row, by ``float.hex``.  Its
    central differences fill a 2 x 3 Jacobian column by column."""
    channel = GaussianChannel(3, 2, _tanh_mean, None, _tanh_cov)
    prior = mk_state([0.25, -0.5, 0.125],
                     [[1.0, 0.25, 0.0], [0.25, 0.75, 0.125], [0.0, 0.125, 0.5]])
    rows = run_stack([channel], LaplaceConfig(rate=0.1), prior, [0.375, -0.625], 300)
    assert _first_repeat(rows, 1) == (184, 1)
    text = "\n".join(
        ",".join([str(step), str(k), *map(float.hex, mean), float.hex(free)])
        for step, k, mean, free in rows
    )
    digest = hashlib.sha256(text.encode()).hexdigest()
    assert digest == "cfc4a135cdc8813b1ddad8311a42c358c2dc3387bb3721c6e3814d74168b3b9d"


def test_a_mean_map_returning_a_list_gives_the_jacobian_of_one_returning_an_array():
    """Central differences read a mean map's Python list as the array of
    its floats: the same C-ordered Jacobian, bit for bit, at a 3 -> 2 and a
    2 -> 2 level, and the same run."""
    x = np.array([0.3, -1.25, 0.5])
    for mean, point in ((_tanh_mean, x), (_rational_mean, x[:2])):
        n = point.size
        as_list = GaussianChannel(n, 2, lambda v, f=mean: f(v).tolist(), None, _tanh_cov)
        as_array = GaussianChannel(n, 2, mean, None, _tanh_cov)
        got, want = (laplace._Evaluation(ch, point, laplace._Prior(ch)).jacobian()
                     for ch in (as_list, as_array))
        assert got.flags.c_contiguous and got.shape == (2, n)
        assert got.tobytes() == want.tobytes()
        prior = mk_state(np.zeros(n), np.eye(n))
        runs = [run_stack([ch], LaplaceConfig(rate=0.1), prior, [0.375, -0.625], 20)
                for ch in (as_list, as_array)]
        assert runs[0] == runs[1]


def test_central_differences_read_fresh_points_and_give_a_c_ordered_jacobian():
    """With no analytic Jacobian, the mean map is read at x + dx and then at
    x - dx for each coordinate step dx, each a fresh vector of x's size; the
    Jacobian is C-ordered (out_dim x in_dim), bit for bit the quotients taken
    column by column."""
    seen = []

    def mean(x):
        seen.append(x)
        return np.array([x[0] * x[1] + x[2], x[1] / (1.0 + x[2] * x[2])])

    channel = GaussianChannel(3, 2, mean, None, lambda x: np.eye(2))
    x, h = np.array([0.3, -1.25, 0.5]), 1e-6
    at = laplace._Evaluation(channel, x, laplace._Prior(channel))
    del seen[:]
    jac = at.jacobian()
    want = np.zeros((2, 3))
    for k, dx in enumerate(h * np.eye(3)):
        want[:, k] = (mean(x + dx) - mean(x - dx)) / (2.0 * h)
    assert jac.flags.c_contiguous and jac.dtype == float and jac.shape == (2, 3)
    assert jac.tobytes() == want.tobytes()
    points, replayed = seen[:6], seen[6:]
    assert [p.tobytes() for p in points] == [p.tobytes() for p in replayed]
    assert all(p.shape == (3,) and p.base is None for p in points)
    assert len({id(p) for p in points} | {id(x)}) == 7


def _benchmark_shaped_levels():
    """Six levels drawn as the benchmark's nonlinear op draws its own: mean
    tanh(Wx) + b, a diagonal covariance that depends on x and no analytic
    Jacobian; each with W, a prior and a datum."""
    for seed in range(6):
        gen = np.random.default_rng(seed)
        w = np.eye(2) + 0.3 * gen.standard_normal((2, 2))
        b = 0.2 * gen.standard_normal(2)
        channel = GaussianChannel(
            2, 2, lambda x, w=w, b=b: np.tanh(w @ x) + b, None,
            lambda x: np.diag(0.5 + 0.2 * np.tanh(x) ** 2),
        )
        pi0 = mk_state(0.3 * gen.standard_normal(2), np.eye(2))
        yield channel, w, pi0, 0.5 * gen.standard_normal(2)


def test_a_nonlinear_descent_stops_where_its_analytic_gradient_vanishes(monkeypatch):
    """A central difference taken at x itself carries a rounding error that
    differs at every x, so a descent on it moved by that noise at every step
    and ran all 800 steps.  Taken at x's grid cell, it lets the descent
    repeat a state, and ``run_stack`` stops there: each level evaluates its
    channel at the zero mean and once per step up to its stop, well inside
    the run.  At the final mean, the gradient taken with the analytic
    Jacobian diag(1 - tanh^2(Wx)) W is below the benchmark's bound of 1e-8:
    the descent stopped where the energy is stationary, by a measure that
    does not read the central differences."""
    calls = collections.Counter()
    _count_evaluations(monkeypatch, calls)
    cfg, steps = LaplaceConfig(rate=0.1), 800
    for channel, w, pi0, datum in _benchmark_shaped_levels():
        calls.clear()
        rows = run_stack([channel], cfg, pi0, datum, steps)
        stop, _ = _first_repeat(rows, 1)
        assert calls["evaluation"] == stop + 1 <= steps // 2
        analytic = dataclasses.replace(
            channel, jacobian=lambda x, w=w: (1.0 - np.tanh(w @ x) ** 2)[:, None] * w
        )
        assert np.abs(grad_energy(pi0, analytic, rows[-1][2], datum)).max() < 1e-8


def test_a_run_that_enters_a_cycle_fills_its_steps_from_the_cycle():
    """The rational level under this prior and datum leaves at step 154 the
    state it left at step 129: its descent has entered a cycle of period 25,
    and ``run_stack`` fills the 646 steps left from the cycle's rows, in
    turn.  Its rows are, bit for bit, those of a runner that steps the level
    at every step, and its means those of ``mean_path``, which has no stop,
    over all 800 steps."""
    channel = GaussianChannel(2, 2, _rational_mean, None, _rational_cov)
    pi0 = mk_state([-0.5, 0.375], [[1.0, 0.25], [0.25, 0.75]])
    cfg, datum, steps = LaplaceConfig(rate=0.1), np.array([0.25, 0.625]), 800
    rows = run_stack([channel], cfg, pi0, datum, steps)
    assert _first_repeat(rows, 1) == (154, 25)
    assert [_hex_row(*row) for row in rows] == _stepped_rows([channel], cfg, pi0, datum, steps)[0]
    path = mean_path(stack([channel], cfg), pi0, datum, steps)
    assert [tuple(map(float.hex, row[2])) for row in rows] == [
        tuple(map(float.hex, point[:2])) for point in path[1:]
    ]


def test_central_differences_far_from_the_origin_are_taken_at_the_point():
    """Where a coordinate's ulp may exceed the grid's cell ``_R`` (above
    2**52 * _R, about 4.5e5), and where x / _R would overflow (above about
    1.8e298), a central difference is taken at x itself, with no warning
    and, where the mean map is finite, no inf or NaN."""
    channel = GaussianChannel(
        2, 2, lambda x: np.array([x[0] * x[1], x[1] - 0.5 * x[0]]), None, lambda x: np.eye(2)
    )
    h = 1e-6
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for x in ([765432.1 + 1 / 3, 0.25], [1e300, -0.75], [-1.7e308, 0.5]):
            x = np.array(x)
            jac = laplace._Evaluation(channel, x, laplace._Prior(channel)).jacobian()
            want = np.zeros((2, 2))
            for k, dx in enumerate(h * np.eye(2)):
                want[:, k] = (channel.mean(x + dx) - channel.mean(x - dx)) / (2.0 * h)
            assert np.isfinite(jac).all() and jac.tobytes() == want.tobytes(), x


def test_a_descent_through_the_largest_floats_is_refused_where_it_overflows():
    """A rate too large for the prior's curvature sends a tanh level's mean
    past 1.8e298, where x / _R overflows, for 21 steps, and then past the
    largest float: every Jacobian on the way is taken at the mean itself,
    with no warning, and the run is refused only at the step where the mean
    leaves the finite floats, as it was before its central differences were
    taken on a grid."""
    channel = GaussianChannel(1, 1, _tanh, None, lambda x: [[1.0]])
    pi0, cfg = mk_state([0.5], [[0.25]]), LaplaceConfig(rate=1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rows = run_stack([channel], cfg, pi0, [0.25], 646)
        assert sum(abs(row[2][0]) > 1.8e298 for row in rows) == 21
        assert all(math.isfinite(row[2][0]) for row in rows)
        with pytest.raises(LaplaceError, match=(
            r"^the descent failed at step 647, level 0: mean and covariance must be finite$"
        )):
            run_stack([channel], cfg, pi0, [0.25], 800)
