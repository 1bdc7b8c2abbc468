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
from .spaces import finite, points
from .specio import (
    SpecError,
    biased_swap_example,
    bundle_example,
    dist_of,
    laplace_from_json,
    load_json,
    rotation_example,
    section_from_json,
    skew_random_example,
    system_from_json,
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


def _spec_int(spec: dict, key: str, default: int) -> int:
    """The spec's ``key``, which must be a JSON integer: a float or a boolean
    would be truncated into another run length."""
    value = spec.get(key, default)
    if type(value) is not int:
        raise SpecError(f"spec key {key!r} must be an integer, got {value!r}")
    return value


def _horizon(args, spec: dict, key: str, default: int) -> int:
    """The run length: ``--horizon`` when given, else the spec's ``key``."""
    value = args.horizon if args.horizon is not None else _spec_int(spec, key, default)
    if value < 0:
        source = "--horizon" if args.horizon is not None else f"spec key {key!r}"
        raise SpecError(f"{source} must be non-negative, got {value}")
    return value


# ---------------------------------------------------------------------------
# run


def cmd_run(args) -> int:
    spec = load_json(args.spec)
    sys_ = system_from_json(spec["system"])
    sigma = section_from_json(sys_.interface, spec.get("section"))
    init = dist_of(sys_.states, spec.get("init", "uniform"))
    horizon = _horizon(args, spec, "horizon", 8)
    mode = spec.get("mode", "exact")
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
    elif mode == "sample":
        rng = Rng(args.seed)
        gen_state = sample(init, rng.child(0))
        cs = closure(sys_, sigma)
        rows = [("t", "output")]
        state = gen_state
        for t in range(horizon + 1):
            rows.append((t, sys_.output(1, state)))
            state = sample(cs.step(1, state), rng.child(t + 1))
    else:
        raise SpecError(f"unknown run mode {mode!r}")
    _emit(_csv(rows), args.out)
    return 0


# ---------------------------------------------------------------------------
# check suites: each gives its list of checks, and ``cmd_check`` judges them


def _suite_flow(spec) -> list:
    return [check_flow(system_from_json(spec["system"] if spec else {"named": "counter", "n": 6}))]


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
    labels = (spec or {}).get("space", [0, 1, 2])
    horizon = _spec_int(spec or {}, "horizon", 8)
    A = finite(*labels)
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
    if spec and "prior" in spec:
        xs = finite(*spec["labels_x"])
        ys = finite(*spec["labels_y"])
        pi = categorical(xs, dict(spec["prior"]))
        rows = {x: categorical(ys, dict(row)) for x, row in spec["channel"]}
        perturb = float(spec.get("perturb", 0.0))
    else:
        xs = finite("x1", "x2")
        ys = finite("y1", "y2")
        pi = categorical(xs, {"x1": 1 / 3, "x2": 2 / 3})
        rows = {
            "x1": categorical(ys, {"y1": 0.9, "y2": 0.1}),
            "x2": categorical(ys, {"y1": 0.3, "y2": 0.7}),
        }
        perturb = 0.0

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
    spec = load_json(args.spec)
    levels, pi0, datum, cfg = laplace_from_json(spec)
    # run first: it refuses a stack with no level, which has no width
    rows = run_stack(levels, cfg, pi0, datum, _horizon(args, spec, "steps", 200))
    width = max(ch.in_dim for ch in levels)
    rows_out = [("step", "level", *(f"mean_{k}" for k in range(width)), "free_energy")]
    for step, level, mean, fl in rows:
        cells = [repr(float(m)) for m in mean] + [""] * (width - len(mean))
        rows_out.append(tuple([step, level] + cells + [repr(fl)]))
    _emit(_csv(rows_out), args.out)
    return 0


# ---------------------------------------------------------------------------
# demo


def cmd_demo(args) -> int:
    spec = load_json(args.spec) if args.spec else {}
    text = ou_demo(
        theta_rate=float(spec.get("theta", 1.0)),
        sigma=float(spec.get("sigma", 0.5)),
        h=float(spec.get("h", 0.02)),
        horizon=_horizon(args, spec, "horizon", 1000),
        seed=args.seed,
        x0=float(spec.get("x0", 0.0)),
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
