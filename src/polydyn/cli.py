"""Command-line front end: run simulations, verify law suites, drive the
predictive-processing models, and emit the stochastic-path demo.

Everything is deterministic given (spec, flags, seed): exact runs propagate
finite laws, sampled runs use a counter-based generator, CSV floats are
printed with repr.  Exit codes: 0 all good, 1 a law suite failed, 2 usage or
spec errors.
"""

from __future__ import annotations

import argparse
import json
import sys

from .dist import (
    Dirac,
    Rng,
    categorical,
    finite_items,
    sample,
)
from .hier import (
    bayes_check,
    compose_hier,
    copy_system,
    discard_system,
    exact_bayes,
    id_hier,
    prior_system,
    quasi_bisim,
    stochastic_channel_system,
    swap_system,
    tensor_hier,
    trace,
)
from .laplace import run_stack
from .poly import linear
from .random_bundle import (
    MeasurePreservingSystem,
    check_bundle,
    check_measure_preserving,
    check_random_system,
    ou_demo,
)
from .spaces import check_count, points
from .specio import (
    SpecError,
    bayes_from_json,
    biased_swap_example,
    bundle_example,
    comonoid_from_json,
    demo_from_json,
    flow_from_json,
    laplace_from_json,
    load_json,
    rotation_example,
    run_from_json,
    skew_random_example,
)
from .systems import check_flow, closure


def _emit(text: str, out_path):
    if out_path:
        with open(out_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _csv(rows) -> str:
    return "".join(",".join(str(c) for c in row) + "\n" for row in rows)


def _fail_usage(message: str) -> int:
    json.dump({"error": message}, sys.stderr)
    sys.stderr.write("\n")
    return 2


def _horizon(args, spec_horizon: int) -> int:
    """The run length: ``--horizon`` when given, else the spec's."""
    if args.horizon is None:
        return spec_horizon
    return check_count(args.horizon, "--horizon", SpecError)


# ---------------------------------------------------------------------------
# run


def cmd_run(args) -> int:
    sys_, sigma, init, horizon, mode = run_from_json(load_json(args.spec))
    horizon = _horizon(args, horizon)
    if mode == "exact":
        tr = trace(sys_, sigma, init, horizon)
        if all(isinstance(v, Dirac) for v in tr.values):
            rows = [("t", "output")]
            rows += [(t, v.point) for t, v in zip(tr.times, tr.values)]
        else:
            labels = list(points(sys_.interface.positions))
            rows = [tuple(["t"] + [f"p_{lab}" for lab in labels])]
            for t, v in zip(tr.times, tr.values):
                weights = dict(finite_items(v))
                rows.append(tuple([t] + [repr(weights.get(lab, 0.0)) for lab in labels]))
    else:
        rng = Rng(args.seed)
        gen_state = sample(init, rng.child(0))
        cs = closure(sys_, sigma)
        rows = [("t", "output")]
        state = gen_state
        for t in range(horizon + 1):
            rows.append((t, sys_.output(1, state)))
            state = sample(cs.step(1, state), rng.child(t + 1))
    _emit(_csv(rows), args.out)
    return 0


# ---------------------------------------------------------------------------
# check suites: each gives its list of checks, and ``cmd_check`` judges them


def _suite_flow(spec) -> list:
    return [check_flow(flow_from_json(spec))]


def _suite_measure(spec) -> list:
    bad = MeasurePreservingSystem(*biased_swap_example())
    return [
        {"name": "rotation", **check_measure_preserving(rotation_example(6), (1, 2, 3))},
        {"name": "biased-swap", "expected_fail": True, **check_measure_preserving(bad, (1, 2, 3))},
    ]


def _suite_rds(spec) -> list:
    return [check_random_system(skew_random_example(4, 2))]


def _suite_bundle(spec) -> list:
    return [check_bundle(bundle_example(3, 2))]


def _suite_comonoid(spec) -> list:
    A, horizon = comonoid_from_json(spec or {})
    Ay = linear(A)
    cp = copy_system(A)
    laws = [
        (
            "counit-left",
            compose_hier(cp, tensor_hier(discard_system(A), id_hier(Ay))),
            id_hier(Ay),
        ),
        (
            "counit-right",
            compose_hier(cp, tensor_hier(id_hier(Ay), discard_system(A))),
            id_hier(Ay),
        ),
        (
            "coassoc",
            compose_hier(cp, tensor_hier(cp, id_hier(Ay))),
            compose_hier(cp, tensor_hier(id_hier(Ay), cp)),
        ),
        ("cocomm", compose_hier(cp, swap_system(A, A)), cp),
    ]
    return [
        {"name": name, **quasi_bisim(lhs, rhs, "exists", "exists", horizon=horizon, tol=0.0)}
        for name, lhs, rhs in laws
    ]


def _suite_bayes(spec) -> list:
    xs, ys, pi, rows, perturb = bayes_from_json(spec)

    def chan(x):
        return rows[x]

    inv = exact_bayes(chan, pi, target=ys)

    def inv_fn(yv):
        d = inv(yv)
        if perturb == 0.0:
            return d
        weights = dict(finite_items(d))
        first = sorted(weights)[0]
        weights[first] += perturb
        total = sum(weights.values())
        return categorical(d.space, {k: w / total for k, w in weights.items()})

    return [bayes_check(
        stochastic_channel_system(chan, xs, ys),
        prior_system(pi),
        stochastic_channel_system(inv_fn, ys, xs),
        horizon=3,
        tol=1e-9,
    )]


_SUITES = {
    "flow": _suite_flow,
    "measure": _suite_measure,
    "rds": _suite_rds,
    "bundle": _suite_bundle,
    "comonoid": _suite_comonoid,
    "bayes": _suite_bayes,
}
# suites that check only their built-in examples, so a spec would go unread
_BUILT_IN = ("measure", "rds", "bundle")


def _holds(check: dict) -> bool:
    """The one pass rule of every suite: a check holds when its verdict
    (``pass``, or ``related`` for a ``quasi_bisim`` verdict) differs from its
    ``expected_fail``, which defaults to false."""
    verdict = check["pass"] if "pass" in check else check["related"]
    return verdict != check.get("expected_fail", False)


def cmd_check(args) -> int:
    suite = args.suite
    if suite not in _SUITES:
        raise SpecError(f"unknown suite {suite!r}; choose from {', '.join(_SUITES)}")
    if args.spec and suite in _BUILT_IN:
        raise SpecError(f"the {suite} suite checks its built-in examples and reads no spec")
    spec = load_json(args.spec) if args.spec else None
    checks = _SUITES[suite](spec)
    ok = all(map(_holds, checks))
    _emit(json.dumps({"suite": suite, "checks": checks, "pass": ok}, indent=2) + "\n", args.out)
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# laplace


def cmd_laplace(args) -> int:
    levels, pi0, datum, cfg, steps = laplace_from_json(load_json(args.spec))
    rows = run_stack(levels, cfg, pi0, datum, _horizon(args, steps))
    width = max(ch.in_dim for ch in levels)
    lines = [_csv([("step", "level", *(f"mean_{k}" for k in range(width)), "free_energy")])]
    # level -> its last row's mean and free energy, and its text after the step
    # number; a settled run repeats both objects (``run_stack``)
    last: dict = {}
    for step, level, mean, fl in rows:
        kept = last.get(level)
        if kept is None or kept[0] is not mean or kept[1] is not fl:
            cells = [repr(float(m)) for m in mean] + [""] * (width - len(mean))
            kept = last[level] = (mean, fl, ",".join([str(level), *cells, repr(fl)]))
        lines.append(f"{step},{kept[2]}\n")
    _emit("".join(lines), args.out)
    return 0


# ---------------------------------------------------------------------------
# demo


def cmd_demo(args) -> int:
    theta, sigma, h, horizon, x0 = demo_from_json(load_json(args.spec) if args.spec else {})
    text = ou_demo(
        theta_rate=theta, sigma=sigma, h=h, horizon=_horizon(args, horizon), seed=args.seed, x0=x0
    )
    _emit(text, args.out)
    return 0


# ---------------------------------------------------------------------------


# command -> (handler, the flag it needs or None, help)
_COMMANDS = {
    "run": (cmd_run, "spec", "simulate a system spec and emit a CSV trajectory"),
    "check": (cmd_check, "suite", "run a law suite and emit a JSON report"),
    "laplace": (cmd_laplace, "spec", "run a predictive hierarchy and emit per-level CSV"),
    "demo": (cmd_demo, None, "emit the stochastic-path demo CSV"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polydyn",
        description="Run, verify, and demo compositional dynamical systems.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, _, helptext) in _COMMANDS.items():
        p = sub.add_parser(name, help=helptext)
        p.add_argument("--spec", help="path to a JSON spec file")
        if name in ("run", "demo"):
            p.add_argument("--seed", type=int, default=0)
        if name != "check":
            p.add_argument("--horizon", type=int, default=None)
        p.add_argument("--out", help="write output to this path instead of stdout")
        if name == "check":
            p.add_argument("--suite", help="law suite name")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    handler, needs, _ = _COMMANDS[args.command]
    if needs and not getattr(args, needs):
        return _fail_usage(f"{args.command} needs --{needs}")
    try:
        return handler(args)
    except (SpecError, ValueError, KeyError, OSError) as exc:
        return _fail_usage(f"{type(exc).__name__}: {exc}")


if __name__ == "__main__":
    sys.exit(main())
