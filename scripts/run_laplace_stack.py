#!/usr/bin/env python3
"""Run a predictive hierarchy from a JSON spec and compare the settled means
against the exact joint posterior.

For all-linear specs the joint energy is quadratic, so the true posterior
mean solves one block-tridiagonal linear system; the script assembles it from
the spec and prints the gap between the gradient-descent endpoint and that
solve.  The per-step CSV goes to --out (default: stdout is suppressed, only
the summary prints).  Exits 1 when the worst gap exceeds ``GAP_LIMIT``.
"""

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from polydyn import run_stack
from polydyn.specio import laplace_from_json

HERE = Path(__file__).resolve().parent
GAP_LIMIT = 1e-12  # the settled means must match the exact posterior this closely


def exact_posterior(spec) -> np.ndarray:
    """Mean of the joint Gaussian posterior over all latents, by direct solve."""
    levels = spec["levels"]
    mats = [np.atleast_2d(np.asarray(l["mean"]["linear"]["A"], dtype=float)) for l in levels]
    offs = [
        np.asarray(l["mean"]["linear"].get("b") or [0.0] * m.shape[0], dtype=float)
        for l, m in zip(levels, mats)
    ]
    covs = [np.atleast_2d(np.asarray(l["cov"], dtype=float)) for l in levels]
    dims = [m.shape[1] for m in mats]
    starts = np.concatenate([[0], np.cumsum(dims)]).astype(int)
    total = starts[-1]
    lam = np.zeros((total, total))
    eta = np.zeros(total)

    def blk(i):
        return slice(starts[i], starts[i + 1])

    prior_prec = np.linalg.inv(np.atleast_2d(np.asarray(spec["prior"]["cov"], dtype=float)))
    mu0 = np.asarray(spec["prior"]["mean"], dtype=float)
    lam[blk(0), blk(0)] += prior_prec
    eta[blk(0)] += prior_prec @ mu0

    datum = np.asarray(spec["data"], dtype=float)
    for k, (a, b, cov) in enumerate(zip(mats, offs, covs)):
        prec = np.linalg.inv(cov)
        lam[blk(k), blk(k)] += a.T @ prec @ a
        if k + 1 < len(mats):  # residual x_{k+1} - (A x_k + b)
            lam[blk(k + 1), blk(k + 1)] += prec
            lam[blk(k), blk(k + 1)] -= a.T @ prec
            lam[blk(k + 1), blk(k)] -= prec @ a
            eta[blk(k)] -= a.T @ prec @ b
            eta[blk(k + 1)] += prec @ b
        else:  # residual y - (A x_k + b), datum clamped
            eta[blk(k)] += a.T @ prec @ (datum - b)
    return np.linalg.solve(lam, eta), dims


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--spec", default=str(HERE / "specs" / "laplace2level.json"),
        help="hierarchy spec (levels, prior, data, rate, steps)",
    )
    parser.add_argument("--steps", type=int, default=None, help="override spec steps")
    parser.add_argument("--out", default=None, help="write per-step CSV here")
    args = parser.parse_args(argv)

    spec = json.loads(Path(args.spec).read_text())
    levels, pi0, datum, cfg, steps = laplace_from_json(spec)
    steps = args.steps if args.steps is not None else steps
    rows = run_stack(levels, cfg, pi0, datum, steps)

    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write("step,level,mean,free_energy\n")
            for step, level, mean, fl in rows:
                fh.write(f"{step},{level},\"{list(mean)}\",{fl!r}\n")

    want, dims = exact_posterior(spec)
    print(f"{len(levels)} level(s), {steps} steps, rate {cfg.rate}")
    offset = 0
    worst = 0.0
    for level, d in enumerate(dims):
        mean = np.asarray([r[2] for r in rows if r[0] == steps and r[1] == level][0])
        target = want[offset : offset + d]
        gap = float(np.max(np.abs(mean - target)))
        worst = max(worst, gap)
        print(
            f"  level {level}: mean {np.round(mean, 10).tolist()}  "
            f"exact {np.round(target, 10).tolist()}  gap {gap:.3e}"
        )
        offset += d
    print(f"worst gap to the exact posterior: {worst:.3e}")
    return 0 if worst <= GAP_LIMIT else 1


if __name__ == "__main__":
    sys.exit(main())
