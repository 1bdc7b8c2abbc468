#!/usr/bin/env python3
"""Per-call times of polydyn's primitives, in microseconds, by group.

Prints one line per case, the least over ``--repeat`` rounds of the mean
time per call in a round of ``--number`` calls, with one BLAS thread; each
round times every case of a group once, in turn.  A case may set its own
calls per round, which ``--number`` overrides as it does the group's.
``--group`` picks one group; with none, every group runs, one after another.
Each group draws its inputs from its own ``np.random.default_rng(0)``.

- ``laplace`` (2,000 calls per round unless ``--number`` is given): the
  pieces of a Laplace level-step and of a stack-step.
  - ``dist.gaussian`` at n = 1, 2, 3, 6 and 18, on a fresh ``euclid(n)``
    and a seeded symmetric positive-definite covariance;
  - ``laplace._Guarded`` (the conditioning check a solve and an inverse
    rely on) on the same covariances;
  - one level-step of a one-level ``run_stack``, linear and nonlinear: the
    belief update from the last evaluation and the free energy at the new
    mean.  The linear level is affine with a constant covariance; the
    nonlinear one has mean tanh(Wx) + b, a state-dependent covariance and
    no analytic Jacobian, as the benchmark's nonlinear level.  Both levels
    reach their fixed point within the first round, so most calls step
    from it, where the nonlinear level reads the central differences it
    kept for the point's grid cell;
  - a whole 800-step ``run_stack`` of that nonlinear level, as the
    benchmark's ``nonlinear-d1n2`` op runs it, to the step where it
    repeats a state (5 calls per round);
  - ``dist.dst`` of two seeded Gaussians on 3 + 3 and on 12 + 6
    coordinates, products a depth-3 stack's absorb forms;
  - one ``mean_path`` stack-step of a seeded linear stack of each of the
    benchmark's shapes (depth 1, 2 and 3, n = 1 and 3): the stack's absorb
    from the state the last call reached, and the new state read from the
    law's flat mean;
  - the parts of the nonlinear level-step: its central-difference Jacobian
    at n = 2 and, on a seeded level of the same form, at n = 6, each
    computed afresh per call, the one the level kept dropped;
    ``dist._checked_gaussian``, the checks of a
    new belief, on the ``dist.gaussian`` inputs at n = 2, 6 and 18 and a
    space built once; and ``_Evaluation.energy`` at a fresh point, with its
    errors solved and the covariance's log-determinant taken on each call
    and the covariance's guard, which the curvature builds first, kept.
- ``flow`` (200 calls): the flow and bundle laws and the distance they read.
  - ``check_flow`` on seeded stochastic systems of the benchmark's flow
    shape (n = 4, 5 and 6 states, positions p0/p1 with 2 and 3 directions,
    full-support dyadic updates) over the splits 0 < s + t <= 8, with every
    section of the interface and every state;
  - the must-fail flow control of the benchmark's shape at n = 4
    (``frozen``): every tick after the first stays put, so the
    stationarity probe reports 70 violations;
  - ``check_bundle`` on ``bundle_example(3, 2)``, the benchmark's bundle
    shape: four total sections against eight base sections, at times 1-3
    and each of the six total states, its squares read from rows of the
    tick matrices' powers; and the benchmark's two must-fail bundle
    controls on it, a base that waits unless told "go" (``steered``, 312
    violations) and a projection onto one base state (``collapsed``, 384);
  - ``dist_distance`` between two seeded full-support finite laws on n = 2,
    8 and 64 atoms, listed in two different orders.
- ``table`` (200 calls): the table verdicts' sorts, products, set-up and
  whole verdicts.
  - ``hier._unique`` against ``np.unique`` on n = 1, 3, 27, 81 and 2,187
    seeded codes in -1..n-1 (2,187 is the pair count of a 3x3 Bayes
    verdict's right joint), for values and inverse;
  - ``dist.product_items`` of two seeded full-support finite laws on 81 and
    27 atoms, the shape of a composite initial law;
  - ``bayes_check`` of a seeded exact inversion at 2x2 and at 3x3, the
    benchmark's bayes-corpus shapes, each verdict built from its systems;
  - the candidate initial laws of a 3x3 Bayes verdict's 81-state left joint
    as the rows its table reads, against the same laws built as ``Dist``
    objects and read by ``law``, atom by atom but for the joint's own
    ``init``;
  - the ``_PairTable`` build of the 3x3 right joint's 2,187 states from its
    factors' tables, which are built once, outside the timing;
  - both joints of a seeded 2x2 and 3x3 Bayes verdict, built from their
    systems as ``bayes_check`` builds them (``joints``).

- ``core`` (500 calls): the records every primitive builds and compares,
  and the primitives that the other groups time only inside larger calls.
  - construction, ``==`` between equal copies built apart, and ``hash`` of
    a two-label ``FiniteSpace``, a monomial ``Polynomial`` over it and a
    ``Dirac`` on it;
  - ``dist.bind`` of a seeded law on 8 atoms through a kernel of seeded
    laws on 8 atoms, and ``categorical`` from n = 2, 8 and 64 seeded pairs;
  - ``polymap_key`` of the lens a 3x3 channel emits and of its composite
    with the lens its exact inversion emits, and that ``compose_map``;
  - the emit and the absorb of a 3x3 Bayes verdict's left joint at one of
    its states;
  - ``trace`` of the flow group's four-state system under one section, 8
    ticks, a walk of the states its point mass reaches, and its tabulated
    closure's ``step`` at t = 1 and t = 8;
  - one RK4 tick of a 2-d linear vector field.

Run from the root of a checkout (``--repeat 1 --number 1`` is a smoke test):

    PYTHONPATH=src python scripts/microbench.py --group flow --repeat 7
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # before numpy loads its BLAS

import argparse  # noqa: E402
import math  # noqa: E402
import timeit  # noqa: E402

import numpy as np  # noqa: E402

from polydyn import (  # noqa: E402
    DETERMINISTIC,
    STOCHASTIC,
    BundleSystem,
    Dirac,
    FiniteSpace,
    Polynomial,
    bayes_check,
    bind,
    categorical,
    closure,
    compose_hier,
    compose_map,
    constant_section,
    copy_system,
    dirac,
    exact_bayes,
    finite,
    finite_items,
    id_hier,
    laplace,
    linear,
    mk_system,
    monomial,
    points,
    polymap_key,
    prior_system,
    stochastic_channel_system,
    tabulated,
    tensor_hier,
    time_nat,
    trace,
)
from polydyn import hier  # noqa: E402
from polydyn.dist import _checked_gaussian, dist_distance, dst, gaussian, product_items  # noqa: E402
from polydyn.hier import _unique  # noqa: E402
from polydyn.random_bundle import check_bundle  # noqa: E402
from polydyn.spaces import euclid, euclid_dims, unflatten_floats  # noqa: E402
from polydyn.specio import bundle_example  # noqa: E402
from polydyn.systems import check_flow, rk4_step  # noqa: E402

# ---------------------------------------------------------------------------
# laplace

SIZES = (1, 2, 3, 6, 18)


def spd(gen, n: int) -> np.ndarray:
    root = gen.standard_normal((n, n))
    return root @ root.T + n * np.eye(n)


def level_step(channel, prior, datum, rate: float):
    """One ``run_stack`` level-step per call, each from the mean the last
    one reached."""
    cfg = laplace.LaplaceConfig(rate=rate)
    point = [laplace._Evaluation(channel, np.zeros(channel.in_dim), laplace._Prior(channel))]

    def step():
        at = point[0]
        rho, at_new = at.update(prior, datum, cfg)
        at_new.energy(prior, datum) - at.prior.entropy(rho)
        point[0] = at_new

    return step


def stack_step(gen, depth: int, n: int):
    """One ``mean_path`` step per call of a seeded linear stack drawn as the
    benchmark draws its own, each from the state the last one reached."""
    levels = []
    for _ in range(depth):
        a = np.eye(n) + 0.3 * gen.standard_normal((n, n))
        b = 0.2 * gen.standard_normal(n)
        root = 0.2 * gen.standard_normal((n, n))
        levels.append(laplace.linear_channel(a, b, 0.6 * np.eye(n) + root @ root.T))
    prior = laplace.mk_state(0.5 * gen.standard_normal(n), np.eye(n))
    datum = tuple(gen.standard_normal(n).tolist())
    hs = laplace.stack(levels, laplace.LaplaceConfig(rate=0.05))
    point = [unflatten_floats(hs.states, (0.0,) * euclid_dims(hs.states))]

    def step():
        law = hs.absorb(point[0], prior, datum)
        point[0] = unflatten_floats(hs.states, law.mean)

    return step


def tanh_level(w, b):
    """The benchmark's nonlinear level: mean tanh(Wx) + b, a diagonal
    covariance that depends on x, no analytic Jacobian."""
    return laplace.GaussianChannel(
        len(b), len(b),
        lambda x: np.tanh(w @ x) + b,
        None,
        lambda x: np.diag(0.5 + 0.2 * np.tanh(x) ** 2),
    )


def central_differences(channel, x):
    """The Jacobian at x, the one its evaluation and its level kept dropped
    before each call."""
    at = laplace._Evaluation(channel, x, laplace._Prior(channel))

    def jacobian():
        at._jacobian, at.prior.jacobian = None, (None, None)
        at.jacobian()

    return jacobian


def fresh_energy(channel, prior, datum, x):
    """The energy at x, its evaluation's solved errors and its covariance's
    log-determinant dropped before each call."""
    at = laplace._Evaluation(channel, x, laplace._Prior(channel))
    guard = at.guard()

    def energy():
        at._datum = at._pi = guard._logdet = None
        at.energy(prior, datum)

    return energy


def laplace_cases(gen):
    checked = {}
    for n in SIZES:
        mean, cov = gen.standard_normal(n), spd(gen, n)
        checked[n] = euclid(n), n, mean, cov
        yield f"dist.gaussian n={n}", lambda n=n, m=mean, c=cov: gaussian(euclid(n), m, c)
    for n in SIZES:
        cov = spd(gen, n)
        yield f"laplace._Guarded n={n}", lambda c=cov: laplace._Guarded("a covariance", c)
    dim = 2
    w = np.eye(dim) + 0.3 * gen.standard_normal((dim, dim))
    b = 0.2 * gen.standard_normal(dim)
    prior = laplace.mk_state(0.3 * gen.standard_normal(dim), np.eye(dim))
    datum = 0.5 * gen.standard_normal(dim)
    linear_level = laplace.linear_channel(w, b, 0.6 * np.eye(dim))
    yield f"linear level-step n={dim}", level_step(linear_level, prior, datum, 0.05)
    nonlinear = tanh_level(w, b)
    yield f"nonlinear level-step n={dim}", level_step(nonlinear, prior, datum, 0.1)
    cfg = laplace.LaplaceConfig(rate=0.1)
    yield (f"nonlinear run_stack 800 n={dim}",
           lambda: laplace.run_stack([nonlinear], cfg, prior, datum, 800), 5)
    for n1, n2 in ((3, 3), (12, 6)):
        laws = [gaussian(euclid(n), gen.standard_normal(n), spd(gen, n)) for n in (n1, n2)]
        yield f"dist.dst {n1}+{n2}", lambda pair=laws: dst(*pair)
    for depth in (1, 2, 3):
        for n in (1, 3):
            yield f"mean_path stack-step d={depth} n={n}", stack_step(gen, depth, n)
    # drawn last, so that every case above reads the inputs it read before
    x6 = 0.3 * gen.standard_normal(6)
    level6 = tanh_level(np.eye(6) + 0.3 * gen.standard_normal((6, 6)), 0.2 * gen.standard_normal(6))
    yield f"jacobian n={dim}", central_differences(nonlinear, prior.mean_array())
    yield "jacobian n=6", central_differences(level6, x6)
    for n in (2, 6, 18):
        yield f"dist._checked_gaussian n={n}", lambda args=checked[n]: _checked_gaussian(*args)
    yield f"_Evaluation.energy n={dim}", fresh_energy(nonlinear, prior, datum, prior.mean_array())


# ---------------------------------------------------------------------------
# flow

FLOW_STATES = (4, 5, 6)
LAW_ATOMS = (2, 8, 64)
SPLITS = [(s, t) for s in range(9) for t in range(9) if 0 < s + t <= 8]


def dyadic(gen, n: int) -> list:
    """Full-support weights k / 2^m on n atoms, 2^m > n (k / 8 up to n = 7,
    as the benchmark's flow shapes have them)."""
    total = 1 << max(3, n.bit_length())
    return ((1 + gen.multinomial(total - n, [1.0 / n] * n)) / total).tolist()


def flow_system(gen, n: int, stationary: bool = True):
    """The benchmark's flow shape; unless ``stationary``, every tick after
    the first stays put, as its must-fail flow control does."""
    states = finite(*range(n))
    iface = tabulated(finite("p0", "p1"), {"p0": finite(0, 1), "p1": finite(0, 1, 2)})
    table = {
        (s, d): categorical(states, list(zip(range(n), dyadic(gen, n))))
        for s in range(n)
        for d in points(iface.dirs_at(f"p{s % 2}"))
    }

    def update(t, s, d):
        return table[(s, d)] if stationary or t == 1 else dirac(states, s)

    return mk_system(iface, states, lambda t, s: f"p{s % 2}", update, time_nat(), STOCHASTIC)


def failing_bundles():
    """The benchmark's two must-fail bundle controls on ``bundle_example(3,
    2)``: a base that waits unless told "go" (312 violations), and a
    projection onto one base state (384)."""
    bs = bundle_example(3, 2)
    base = bs.base_sys
    steered = mk_system(
        base.interface, base.states, lambda t, w: w,
        lambda t, w, d: dirac(base.states, (w + 1) % 3 if d == "go" else w),
        effect=DETERMINISTIC,
    )
    yield "steered", BundleSystem(steered, bs.total_sys, bs.proj)
    yield "collapsed", BundleSystem(base, bs.total_sys, lambda s: 0)


def flow_cases(gen):
    for n in FLOW_STATES:
        sys_ = flow_system(gen, n)
        yield f"check_flow n={n}", lambda s=sys_: check_flow(s, times=SPLITS, tol=0.0)
    frozen = flow_system(gen, FLOW_STATES[0], stationary=False)
    yield "check_flow n=4 frozen", lambda: check_flow(frozen, times=SPLITS, tol=0.0)
    yield "check_bundle 3x2", lambda bs=bundle_example(3, 2): check_bundle(bs)
    for name, bs in failing_bundles():
        yield f"check_bundle 3x2 {name}", lambda bs=bs: check_bundle(bs)
    for n in LAW_ATOMS:
        atoms = finite(*range(n))
        d1 = categorical(atoms, list(zip(range(n), dyadic(gen, n))))
        d2 = categorical(atoms, list(zip(range(n - 1, -1, -1), dyadic(gen, n))))
        yield f"dist_distance n={n}", lambda a=d1, b=d2: dist_distance(a, b)


# ---------------------------------------------------------------------------
# table

CODES = (1, 3, 27, 81, 2187)
PRODUCT_ATOMS = (81, 27)
BAYES_SHAPES = ((2, 2), (3, 3))


def law(gen, n: int, prefix: str):
    atoms = finite(*[f"{prefix}{i}" for i in range(n)])
    return categorical(atoms, list(zip(points(atoms), gen.dirichlet([1.5] * n).tolist())))


def bayes_systems(gen, nx: int, ny: int) -> tuple:
    """A seeded channel, prior and exact inversion, as the benchmark draws them."""
    pi = law(gen, nx, "x")
    X = pi.space
    rows = {x: law(gen, ny, "y") for x in points(X)}
    Y = rows[next(iter(rows))].space
    inverse = exact_bayes(rows.__getitem__, pi, target=Y)
    return (stochastic_channel_system(rows.__getitem__, X, Y), prior_system(pi),
            stochastic_channel_system(inverse, Y, X))


def joints(c, p, inv) -> tuple:
    """The two joints ``bayes_check`` compares, built as it builds them."""
    X, Y = c.source.positions, c.target.positions
    lhs = compose_hier(compose_hier(p, copy_system(X)), tensor_hier(id_hier(linear(X)), c))
    rhs = compose_hier(compose_hier(compose_hier(p, c), copy_system(Y)),
                       tensor_hier(inv, id_hier(linear(Y))))
    return lhs, rhs


def table_cases(gen):
    for n in CODES:
        codes = gen.integers(-1, n, size=n)
        yield f"_unique n={n}", lambda c=codes: _unique(c)
        yield f"np.unique n={n}", lambda c=codes: np.unique(c, return_inverse=True)
    items = [finite_items(law(gen, n, "a")) for n in PRODUCT_ATOMS]
    yield "product_items 81x27", lambda: product_items(*items)
    for nx, ny in BAYES_SHAPES:
        systems = bayes_systems(gen, nx, ny)
        yield f"bayes_check {nx}x{ny}", lambda s=systems: bayes_check(*s)
    # drawn after the cases above, so their inputs are those of earlier versions
    lhs, rhs = joints(*bayes_systems(gen, 3, 3))
    table = hier.tabulate(lhs)
    yield "candidate rows 81", lambda: hier._initial_laws(lhs, None, "exists").rows(table)
    yield ("candidate laws by atom 81",
           lambda: np.array([table.law(d) for d in hier._candidates(lhs, None, "exists")]))
    kind, left, right = rhs.factors
    done: dict = {}
    factors = hier._tabulate(left, done), hier._tabulate(right, done)
    yield "_PairTable 2187", lambda: hier._PairTable(rhs, kind, *factors)
    # drawn after the cases above, so their inputs are those of earlier versions
    for nx, ny in BAYES_SHAPES:
        systems = bayes_systems(gen, nx, ny)
        yield f"bayes joints {nx}x{ny}", lambda s=systems: joints(*s)


# ---------------------------------------------------------------------------
# core


def core_cases(gen):
    labels = ("a", "b")
    space = finite(*labels)
    p = monomial(space, space)
    mass = Dirac(space, "a")
    twins = {"FiniteSpace": (space, finite(*labels)),
             "Polynomial": (p, monomial(finite(*labels), finite(*labels))),
             "Dirac": (mass, Dirac(finite(*labels), "a"))}
    yield "FiniteSpace(...)", lambda: FiniteSpace(labels)
    yield "Polynomial(...)", lambda: Polynomial(space, p.directions)
    yield "Dirac(...)", lambda: Dirac(space, "a")
    for name, (x, z) in twins.items():
        yield f"{name} ==", lambda x=x, z=z: x == z
    for name, (x, _) in twins.items():
        yield f"hash {name}", lambda x=x: hash(x)
    d = law(gen, 8, "a")
    rows = {a: law(gen, 8, "b") for a in points(d.space)}
    yield "bind n=8", lambda: bind(d, rows.__getitem__)
    for n in LAW_ATOMS:
        pairs = list(zip(range(n), dyadic(gen, n)))
        yield f"categorical n={n}", lambda s=finite(*range(n)), w=pairs: categorical(s, w)
    c, _, inv = bayes_systems(gen, 3, 3)
    lens = c.emit(next(points(c.states)))
    back = inv.emit(next(points(inv.states)))
    yield "polymap_key channel 3x3", lambda: polymap_key(lens)
    yield "compose_map 3x3", lambda: compose_map(back, lens)
    yield "polymap_key composite 3x3", lambda g=compose_map(back, lens): polymap_key(g)
    lhs, _ = joints(*bayes_systems(gen, 3, 3))
    x = next(points(lhs.states))
    phi = lhs.emit(x)
    d_out = next(points(phi.target.dirs_at(phi.forward(()))))
    yield "emit joint 3x3", lambda: lhs.emit(x)
    yield "absorb joint 3x3", lambda: lhs.absorb(x, (), d_out)
    sys_ = flow_system(gen, FLOW_STATES[0])
    sigma = constant_section(sys_.interface, 0)
    start = dirac(sys_.states, 0)
    yield "trace n=4 horizon 8", lambda: trace(sys_, sigma, start, 8)
    closed = closure(sys_, sigma)
    for t in (1, 8):
        yield f"closure step n=4 t={t}", lambda t=t: closed.step(t, 0)
    w = np.eye(2) + 0.3 * gen.standard_normal((2, 2))
    yield "rk4_step n=2", lambda x0=gen.standard_normal(2): rk4_step(lambda v: w @ v, x0, 0.1)


# ---------------------------------------------------------------------------

# group -> (its cases from a seeded generator, its calls per round by default)
GROUPS = {
    "laplace": (laplace_cases, 2000),
    "flow": (flow_cases, 200),
    "table": (table_cases, 200),
    "core": (core_cases, 500),
}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--group", choices=GROUPS, help="the one group to time; all when left out")
    parser.add_argument("--repeat", type=int, default=7, help="rounds; the least is kept")
    parser.add_argument("--number", type=int, help="calls per round (the group's own default)")
    args = parser.parse_args()
    if args.repeat < 1 or args.number is not None and args.number < 1:
        parser.error("--repeat and --number must be at least 1")
    for name in [args.group] if args.group else GROUPS:
        cases, number = GROUPS[name]
        # round-robin over the cases, so that a slow spell of a shared
        # machine reaches every case, and the least round of each misses it
        timed = [(case, call, args.number or (own[0] if own else number))
                 for case, call, *own in cases(np.random.default_rng(0))]
        best = [math.inf] * len(timed)
        for _ in range(args.repeat):
            for k, (_, call, calls) in enumerate(timed):
                best[k] = min(best[k], timeit.timeit(call, number=calls))
        for (case, _, calls), least in zip(timed, best):
            print(f"{case:28s} {least / calls * 1e6:9.2f} us")


if __name__ == "__main__":
    main()
