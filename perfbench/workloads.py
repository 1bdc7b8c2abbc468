"""The benchmark's workloads: seeded inputs, timed ops and correctness gates.

An op is one timed unit -- a law verdict, a CLI command or one hierarchy
run.  Each workload is a fixed cycle of ops; a run repeats the cycle with
fresh seeded inputs.  Seeds set only weights and matrices: sizes are fixed, so
the work an op does does not move with the seed.

Every name from ``polydyn`` is looked up when an op runs, never bound at
import, so the traced run's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Optional

import numpy as np

import polydyn
from polydyn import cli, hier, laplace, random_bundle, specio, systems

ROOT = Path(__file__).resolve().parent.parent
SPECS = ROOT / "scripts" / "specs"

POSTERIOR_TOL = 1e-12  # linear specs against the exact joint posterior
GRAD_TOL = 1e-8  # nonlinear level: final energy gradient
WITNESS_MIN = 1e-3  # a refutation's witness deviation


@dataclass
class Op:
    kind: str
    run: Callable[[], Any]
    check: Callable[[Any], Optional[str]]  # None when the output is correct
    level_steps: int = 0


def build(workload: str, seed: int, cycles: int, workdir: Path) -> list:
    """All ops of a run, cycle after cycle, with their inputs built."""
    make = {
        "bayes-corpus": _bayes_cycle,
        "law-suites": _law_cycle,
        "laplace-stack": _laplace_cycle,
    }[workload]
    ops = []
    for k in range(cycles):
        ops.extend(make(polydyn.Rng(seed).child(k), k, workdir))
    return ops


# ---------------------------------------------------------------------------
# shared helpers


def _cli(argv) -> tuple:
    """Run a CLI command in-process; returns (exit code, stdout bytes)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(list(argv))
    return code, out.getvalue().encode("utf-8")


def _expect(cond: bool, message: str) -> Optional[str]:
    return None if cond else message


def _channel_prior(rng, nx: int, ny: int):
    """Seeded channel X -> Dist Y and a fully supported prior on X."""
    gen = rng.generator()
    X = polydyn.finite(*[f"x{i}" for i in range(nx)])
    Y = polydyn.finite(*[f"y{j}" for j in range(ny)])
    pi = polydyn.categorical(X, list(zip(polydyn.points(X), gen.dirichlet([1.5] * nx).tolist())))
    rows = {
        x: polydyn.categorical(Y, list(zip(polydyn.points(Y), gen.dirichlet([1.5] * ny).tolist())))
        for x in polydyn.points(X)
    }
    return X, Y, pi, rows


def _full_dyadic(gen, n: int) -> list:
    """Weights k/8 with every atom at least 1/8 (n <= 8), so products and sums
    are exact in binary and the support never shrinks with the seed."""
    extra = gen.multinomial(8 - n, [1.0 / n] * n).tolist()
    return [(1 + e) / 8.0 for e in extra]


# ---------------------------------------------------------------------------
# bayes-corpus: exact inversions at 2x2 (two per cycle) and 3x3 (one)


def _bayes_cycle(rng, k, workdir) -> list:
    return [
        _bayes_exact_op("bayes-2x2", rng.child(0), 2, 2),
        _bayes_exact_op("bayes-2x2", rng.child(1), 2, 2),
        _bayes_exact_op("bayes-3x3", rng.child(2), 3, 3),
    ]


def _bayes_exact_op(kind, rng, nx, ny) -> Op:
    X, Y, pi, rows = _channel_prior(rng, nx, ny)
    chan = rows.__getitem__
    c = hier.stochastic_channel_system(chan, X, Y)
    p = hier.prior_system(pi)
    inv = hier.stochastic_channel_system(hier.exact_bayes(chan, pi, target=Y), Y, X)

    def check(v):
        return _expect(v["related"] is True, f"exact inversion refuted: {v['witness']}")

    return Op(kind, lambda: hier.bayes_check(c, p, inv), check)


def _bayes_refutation_op(rng) -> Op:
    """A 2x2 inversion with one posterior row pulled 20% toward a point mass.

    The row is that of the likeliest observation, pulled toward the state it
    makes least likely, so the joint moves by at least 0.2 * 1/2 * 1/2 and
    the witness deviation does not shrink with the seed."""
    X, Y, pi, rows = _channel_prior(rng, 2, 2)
    chan = rows.__getitem__
    exact = hier.exact_bayes(chan, pi, target=Y)
    y0 = max(polydyn.points(Y), key=lambda y: sum(
        polydyn.prob(pi, x) * polydyn.prob(rows[x], y) for x in polydyn.points(X)))
    x0 = min(polydyn.points(X), key=lambda x: polydyn.prob(exact(y0), x))

    def warped(yv):
        post = exact(yv)
        if yv != y0:
            return post
        return polydyn.categorical(
            X,
            [(x, 0.8 * polydyn.prob(post, x) + (0.2 if x == x0 else 0.0)) for x in polydyn.points(X)],
        )

    c = hier.stochastic_channel_system(chan, X, Y)
    p = hier.prior_system(pi)
    inv = hier.stochastic_channel_system(warped, Y, X)

    def check(v):
        if v["related"] is not False or v["witness"] is None:
            return "perturbed inversion was not refuted"
        return _expect(
            v["witness"]["deviation"] > WITNESS_MIN,
            f"witness deviation {v['witness']['deviation']} <= {WITNESS_MIN}",
        )

    return Op("bayes-refute-2x2", lambda: hier.bayes_check(c, p, inv), check)


# ---------------------------------------------------------------------------
# law-suites: every law family at small size, each with a must-fail control


def _law_cycle(rng, k, workdir) -> list:
    gen = rng.child(0).generator()
    ops = []
    ops += _cli_ops(gen, k, workdir)
    ops += [_flow_op(rng.child(1 + j), n) for j, n in enumerate((4, 5, 6))]
    ops.append(_flow_negative_op(rng.child(4)))
    ops += _comonoid_ops()
    ops += _square_ops()
    ops += _rk4_ops(rng.child(5))
    ops += [_bayes_refutation_op(rng.child(6 + j)) for j in range(2)]
    return ops


def _markov_spec(gen, mode: str, horizon: int) -> dict:
    labels = ["a", "b", "c"]
    return {
        "system": {
            "named": "markov",
            "labels": labels,
            "K": [_full_dyadic(gen, len(labels)) for _ in labels],
        },
        "init": {"dirac": "a"},
        "horizon": horizon,
        "mode": mode,
    }


def _bayes_spec(gen) -> dict:
    prior = gen.dirichlet([1.5, 1.5]).tolist()
    chan = [gen.dirichlet([1.5, 1.5]).tolist() for _ in range(2)]
    return {
        "labels_x": ["x1", "x2"],
        "labels_y": ["y1", "y2"],
        "prior": [["x1", prior[0]], ["x2", prior[1]]],
        "channel": [
            [x, [["y1", row[0]], ["y2", row[1]]]] for x, row in zip(["x1", "x2"], chan)
        ],
        "perturb": 0.1,
    }


def _write(workdir: Path, name: str, obj) -> str:
    path = workdir / name
    path.write_text(json.dumps(obj), encoding="utf-8")
    return str(path)


def _cli_ops(gen, k, workdir) -> list:
    exact = _write(workdir, f"markov-exact-{k}.json", _markov_spec(gen, "exact", 12))
    sampled = _write(workdir, f"markov-sample-{k}.json", _markov_spec(gen, "sample", 40))
    refute = _write(workdir, f"bayes-perturbed-{k}.json", _bayes_spec(gen))
    seed = str(int(gen.integers(0, 2**31)))

    def status(expected):
        def check(out):
            return _expect(out[0] == expected, f"exit code {out[0]}, expected {expected}")

        return check

    ops = [Op("cli-check-flow", lambda: _cli(["check", "--suite", "flow", "--spec", exact]), status(0))]
    for suite in ("measure", "rds", "bundle", "comonoid", "bayes"):
        ops.append(
            Op(f"cli-check-{suite}", lambda s=suite: _cli(["check", "--suite", s]), status(0))
        )
    ops.append(
        Op("cli-check-bayes-perturbed",
           lambda: _cli(["check", "--suite", "bayes", "--spec", refute]), status(1))
    )
    for kind, argv in (
        ("cli-run-exact", ["run", "--spec", exact]),
        ("cli-run-sample", ["run", "--spec", sampled, "--seed", seed]),
        ("cli-demo", ["demo", "--seed", seed, "--horizon", "200"]),
    ):
        ops += _byte_stable_pair(kind, argv)
    return ops


def _byte_stable_pair(kind, argv) -> list:
    """Two calls of one command; the second must repeat the first's bytes."""
    first: dict = {}

    def run_first():
        out = _cli(argv)
        first["out"] = out
        return out

    def check_first(out):
        return _expect(out[0] == 0 and out[1], f"exit code {out[0]} or empty output")

    def check_second(out):
        return _expect(out == first.get("out"), "output bytes differ between calls")

    return [Op(kind, run_first, check_first), Op(kind, lambda: _cli(argv), check_second)]


_SPLITS = [(s, t) for s in range(9) for t in range(9) if 0 < s + t <= 8]


def _finite_system(rng, n_states: int, stationary: bool = True):
    """Seeded stochastic system: n states, positions p0/p1 with 2 and 3
    directions, full-support dyadic updates."""
    gen = rng.generator()
    states = polydyn.finite(*range(n_states))
    iface = polydyn.tabulated(
        polydyn.finite("p0", "p1"), {"p0": polydyn.finite(0, 1), "p1": polydyn.finite(0, 1, 2)}
    )
    out = {s: f"p{s % 2}" for s in range(n_states)}
    table = {
        (s, d): polydyn.categorical(states, list(zip(range(n_states), _full_dyadic(gen, n_states))))
        for s in range(n_states)
        for d in polydyn.points(iface.dirs_at(out[s]))
    }

    def update(t, s, d):
        if not stationary and t > 1:
            return polydyn.dirac(states, s)
        return table[(s, d)]

    return polydyn.mk_system(
        iface, states, lambda t, s: out[s], update, polydyn.time_nat(), polydyn.STOCHASTIC
    )


def _flow_op(rng, n_states) -> Op:
    sys_ = _finite_system(rng, n_states)

    def check(r):
        return _expect(r["pass"] and r["max_deviation"] == 0.0, "flow law violated")

    return Op(f"flow-{n_states}", lambda: systems.check_flow(sys_, times=_SPLITS, tol=0.0), check)


def _flow_negative_op(rng) -> Op:
    sys_ = _finite_system(rng, 4, stationary=False)

    def check(r):
        return _expect(not r["pass"], "tick-dependent update passed the flow law")

    return Op("flow-negative", lambda: systems.check_flow(sys_, times=_SPLITS, tol=0.0), check)


def _comonoid_ops() -> list:
    A = polydyn.finite(0, 1, 2)
    cp = hier.copy_system(A)
    idA = hier.id_hier(polydyn.linear(A))
    shift = hier.function_system(lambda a: (a + 1) % 3, A, A)
    laws = [
        ("counit-left", lambda: (hier.compose_hier(cp, hier.tensor_hier(hier.discard_system(A), idA)), idA), True),
        ("counit-right", lambda: (hier.compose_hier(cp, hier.tensor_hier(idA, hier.discard_system(A))), idA), True),
        ("coassoc", lambda: (hier.compose_hier(cp, hier.tensor_hier(cp, idA)),
                             hier.compose_hier(cp, hier.tensor_hier(idA, cp))), True),
        ("cocomm", lambda: (hier.compose_hier(cp, hier.swap_system(A, A)), cp), True),
        ("negative", lambda: (hier.compose_hier(cp, hier.tensor_hier(idA, shift)), cp), False),
    ]
    ops = []
    for name, sides, expected in laws:
        def run(sides=sides):
            lhs, rhs = sides()
            return hier.quasi_bisim(lhs, rhs, "forall", "forall", horizon=16, tol=0.0)

        def check(v, expected=expected, name=name):
            return _expect(v["related"] is expected, f"comonoid {name}: related={v['related']}")

        ops.append(Op(f"comonoid-{name}", run, check))
    return ops


def _square_ops() -> list:
    """Measure-preserving, random-system and bundle squares, also under
    reindexing and rebasing, with one must-fail control per law."""
    rb = random_bundle
    rds = specio.skew_random_example(4, 2)
    bs = specio.bundle_example(3, 2)
    z2 = polydyn.finite(0, 1)
    half = rb.mk_measure_preserving(
        rb.mk_probability_space(z2, polydyn.uniform(z2)),
        polydyn.closed_from_kernel(z2, polydyn.time_nat(), lambda t, w: polydyn.dirac(z2, (w + t) % 2)),
    )
    relabel = polydyn.det_polymap(
        rds.interface,
        polydyn.monomial(polydyn.finite("even", "odd"), rds.interface.dirs_at(0)),
        lambda i: "even" if i == 0 else "odd",
        lambda i, d: d,
    )
    src = bs.total_sys.interface
    move = polydyn.det_polymap(
        src, polydyn.monomial(polydyn.finite("m0", "m1"), src.dirs_at(0)),
        lambda i: f"m{i}", lambda i, d: d,
    )
    base = bs.base_sys
    w3 = polydyn.finite("w0", "w1", "w2")
    new_base = polydyn.mk_system(
        base.interface, w3, lambda t, s: int(s[1]),
        lambda t, s, d: polydyn.dirac(w3, f"w{(int(s[1]) + 1) % 3}"), polydyn.time_nat(),
    )
    steered = polydyn.mk_system(
        base.interface, base.states, lambda t, w: w,
        lambda t, w, d: polydyn.dirac(base.states, (w + 1) % 3 if d == "go" else w),
        effect=polydyn.DETERMINISTIC,
    )
    total = rds.total_states

    def drifting(t, s, d):
        return polydyn.dirac(total, ((s[0] + 2) % 4, s[1]))

    def rebased():
        psi = rb.MPMorphism(rds.base, half, lambda w: w % 2)
        return {"pass": rb.check_mp_morphism(psi)["pass"]
                and rb.check_random_system(rb.rebase_rds(psi, rds))["pass"]}

    cases = [
        ("measure", lambda: rb.check_measure_preserving(specio.rotation_example(6), (1, 2, 3, 5)), True),
        ("rds", lambda: rb.check_random_system(rds), True),
        ("rds-reindexed", lambda: rb.check_random_system(rb.reindex_rds(relabel, rds)), True),
        ("rds-rebased", rebased, True),
        ("bundle", lambda: rb.check_bundle(bs), True),
        ("bundle-reindexed", lambda: rb.check_bundle(rb.reindex_bundle(move, bs)), True),
        ("bundle-rebased",
         lambda: rb.check_bundle(rb.rebase_bundle(lambda w: f"w{w}", new_base, bs)), True),
        ("measure-negative",
         lambda: rb.check_measure_preserving(rb.MeasurePreservingSystem(*specio.biased_swap_example()), (1, 2, 3)),
         False),
        ("mp-morphism-negative",
         lambda: rb.check_mp_morphism(rb.MPMorphism(rds.base, half, lambda w: 0)), False),
        ("rds-negative",
         lambda: rb.check_random_system(rb.RandomSystem(
             rds.base, total, rds.proj, rds.interface, rds.output, drifting)), False),
        ("bundle-negative",
         lambda: rb.check_bundle(rb.BundleSystem(steered, bs.total_sys, bs.proj)), False),
    ]
    ops = []
    for name, run, expected in cases:
        def check(r, expected=expected, name=name):
            return _expect(r["pass"] is expected, f"{name}: pass={r['pass']}")

        ops.append(Op(f"square-{name}", run, check))
    return ops


def _rk4_ops(rng) -> list:
    """RK4 decay x' = -a x: the closure's flow law holds; integrating t ticks
    as one step of t*h breaks it."""
    a = 0.5 + float(rng.generator().random())
    h = 0.01
    states = polydyn.euclid(1)
    iface = polydyn.monomial(polydyn.euclid(1), polydyn.unit())
    sys_ = polydyn.from_vector_field(lambda x, d: (-a * x[0],), lambda x: x, iface, h, states=states)
    grid = [(s, t) for s in range(5, 45, 5) for t in range(5, 45, 5)]

    def one_big_step(t, x):
        v = systems.rk4_step(lambda u: -a * u, np.asarray(x, dtype=float), t * h)
        return polydyn.dirac(states, (float(v[0]),))

    coarse = polydyn.closed_from_kernel(states, polydyn.time_nat(), one_big_step)
    small = [(s, t) for s in range(1, 9) for t in range(1, 9)]

    def run_law():
        return systems.check_flow(
            sys_, sections=[polydyn.trivial_section(iface)], times=grid,
            states=[(1.0,)], tol=1e-12,
        )

    def check_law(r):
        return _expect(r["pass"], f"RK4 closure broke the flow law by {r['max_deviation']}")

    def check_negative(r):
        return _expect(not r["pass"], "one-big-step integrator passed the flow law")

    return [
        Op("rk4-flow", run_law, check_law),
        Op("rk4-flow-negative",
           lambda: polydyn.check_closed_flow(coarse, small, [(1.0,)], tol=1e-12), check_negative),
    ]


# ---------------------------------------------------------------------------
# laplace-stack: predictive hierarchies three ways


_LINEAR_SHAPES = [(depth, dim) for depth in (1, 2, 3) for dim in (1, 3)]
_LINEAR_STEPS = 200
_NONLINEAR_STEPS = 800


def _laplace_cycle(rng, k, workdir) -> list:
    ops = [_spec_op("laplace1d"), _spec_op("laplace2level")]
    for j, (depth, dim) in enumerate(_LINEAR_SHAPES):
        ops += _linear_pair(rng.child(j), depth, dim)
    ops += [_nonlinear_op(rng.child(len(_LINEAR_SHAPES) + j)) for j in range(3)]
    return ops


def exact_posterior(spec: dict) -> np.ndarray:
    """Mean of the joint Gaussian posterior over all latents of an all-linear
    hierarchy spec, by one direct solve of its block-tridiagonal precision."""
    levels = spec["levels"]
    mats = [np.atleast_2d(np.asarray(lv["mean"]["linear"]["A"], dtype=float)) for lv in levels]
    offs = [
        np.asarray(lv["mean"]["linear"].get("b") or [0.0] * m.shape[0], dtype=float)
        for lv, m in zip(levels, mats)
    ]
    covs = [np.atleast_2d(np.asarray(lv["cov"], dtype=float)) for lv in levels]
    starts = np.concatenate([[0], np.cumsum([m.shape[1] for m in mats])]).astype(int)
    lam = np.zeros((starts[-1], starts[-1]))
    eta = np.zeros(starts[-1])

    def blk(i):
        return slice(starts[i], starts[i + 1])

    prior_prec = np.linalg.inv(np.atleast_2d(np.asarray(spec["prior"]["cov"], dtype=float)))
    lam[blk(0), blk(0)] += prior_prec
    eta[blk(0)] += prior_prec @ np.asarray(spec["prior"]["mean"], dtype=float)
    datum = np.asarray(spec["data"], dtype=float)
    for k, (a, b, cov) in enumerate(zip(mats, offs, covs)):
        prec = np.linalg.inv(cov)
        lam[blk(k), blk(k)] += a.T @ prec @ a
        if k + 1 < len(mats):
            lam[blk(k + 1), blk(k + 1)] += prec
            lam[blk(k), blk(k + 1)] -= a.T @ prec
            lam[blk(k + 1), blk(k)] -= prec @ a
            eta[blk(k)] -= a.T @ prec @ b
            eta[blk(k + 1)] += prec @ b
        else:
            eta[blk(k)] += a.T @ prec @ (datum - b)
    return np.linalg.solve(lam, eta)


def _spec_op(name: str) -> Op:
    path = SPECS / f"{name}.json"
    spec = json.loads(path.read_text(encoding="utf-8"))
    want = exact_posterior(spec)
    steps = int(spec.get("steps", 200))
    n_levels = len(spec["levels"])

    def check(out):
        code, text = out
        if code != 0:
            return f"exit code {code}"
        rows = [line.split(",") for line in text.decode("utf-8").splitlines()[1:]]
        final = [r for r in rows if int(r[0]) == steps]
        got = [float(c) for r in sorted(final, key=lambda r: int(r[1])) for c in r[2:-1] if c]
        if len(got) != want.size:
            return f"expected {want.size} final means, got {len(got)}"
        gap = float(np.max(np.abs(np.asarray(got) - want)))
        return _expect(gap <= POSTERIOR_TOL, f"gap to the exact posterior {gap:.3e}")

    return Op(f"cli-{name}", lambda: _cli(["laplace", "--spec", str(path)]), check,
              level_steps=steps * n_levels)


def _linear_levels(rng, depth: int, dim: int):
    gen = rng.generator()
    levels = []
    for _ in range(depth):
        a = np.eye(dim) + 0.3 * gen.standard_normal((dim, dim))
        b = 0.2 * gen.standard_normal(dim)
        root = 0.2 * gen.standard_normal((dim, dim))
        cov = 0.6 * np.eye(dim) + root @ root.T
        levels.append(laplace.linear_channel(a, b, cov))
    pi0 = laplace.mk_state(0.5 * gen.standard_normal(dim), np.eye(dim))
    datum = gen.standard_normal(dim)
    return levels, pi0, datum


def _linear_pair(rng, depth: int, dim: int) -> list:
    """One seeded linear hierarchy through both runners; ``mean_path`` must
    reproduce ``run_stack``'s latent means at every step."""
    levels, pi0, datum = _linear_levels(rng, depth, dim)
    cfg = laplace.LaplaceConfig(rate=0.05)
    steps = _LINEAR_STEPS
    ref: dict = {}

    def run_reference():
        rows = laplace.run_stack(levels, cfg, pi0, datum, steps)
        ref["rows"] = rows
        return rows

    def check_reference(rows):
        bad = [r for r in rows if not math.isfinite(r[3])]
        return _expect(len(rows) == depth * steps and not bad, "run_stack rows malformed")

    def run_path():
        return laplace.mean_path(laplace.stack(levels, cfg), laplace.state_dist(pi0), datum, steps)

    def check_path(path):
        rows = ref.get("rows")
        if rows is None or len(path) != steps + 1:
            return "no reference rows, or a path of the wrong length"
        width = 2 * dim  # each level's state is (latent, prediction)
        for step in range(1, steps + 1):
            for level in range(depth):
                want = rows[(step - 1) * depth + level][2]
                got = tuple(path[step][level * width: level * width + dim])
                if got != tuple(want):
                    return f"step {step} level {level}: mean_path {got} != run_stack {want}"
        return None

    kind = f"linear-d{depth}n{dim}"
    return [
        Op(f"{kind}-run_stack", run_reference, check_reference, level_steps=depth * steps),
        Op(f"{kind}-mean_path", run_path, check_path, level_steps=depth * steps),
    ]


def _nonlinear_op(rng) -> Op:
    """One level with mean tanh(Wx) + b, state-dependent covariance and no
    analytic Jacobian; the descent must settle where the gradient vanishes."""
    gen = rng.generator()
    dim = 2
    w = np.eye(dim) + 0.3 * gen.standard_normal((dim, dim))
    b = 0.2 * gen.standard_normal(dim)

    def mean(x):
        return np.tanh(w @ np.asarray(x, dtype=float)) + b

    def cov(x):
        return np.diag(0.5 + 0.2 * np.tanh(np.asarray(x, dtype=float)) ** 2)

    channel = laplace.GaussianChannel(dim, dim, mean, None, cov)
    pi0 = laplace.mk_state(0.3 * gen.standard_normal(dim), np.eye(dim))
    datum = 0.5 * gen.standard_normal(dim)
    cfg = laplace.LaplaceConfig(rate=0.1)

    def check(rows):
        final = np.asarray(rows[-1][2])
        grad = laplace.grad_energy(pi0, channel, final, datum)
        worst = float(np.max(np.abs(grad)))
        return _expect(worst < GRAD_TOL, f"final gradient {worst:.3e} >= {GRAD_TOL}")

    return Op("nonlinear-d1n2",
              lambda: laplace.run_stack([channel], cfg, pi0, datum, _NONLINEAR_STEPS), check,
              level_steps=_NONLINEAR_STEPS)
