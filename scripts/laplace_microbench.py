#!/usr/bin/env python3
"""Per-call times of the pieces of a Laplace level-step, in microseconds.

Prints one line per case, the least over ``--repeat`` rounds of the mean
time per call in a round of ``--number`` calls, with one BLAS thread; each
round times every case once, in turn:

- ``dist.gaussian`` at n = 1, 2, 3, 6 and 18, on a fresh ``euclid(n)``
  and a seeded symmetric positive-definite covariance;
- ``laplace._Guarded`` (the conditioning check a solve and an inverse rely
  on) on the same covariances;
- one level-step of a one-level ``run_stack``, linear and nonlinear: the
  belief update from the last evaluation and the free energy at the new
  mean.  The linear level is affine with a constant covariance; the
  nonlinear one has mean tanh(Wx) + b, a state-dependent covariance and no
  analytic Jacobian, as the benchmark's nonlinear level.

Run from the root of a checkout (``--repeat 1 --number 1`` is a smoke test):

    PYTHONPATH=src python scripts/laplace_microbench.py --repeat 7 --number 2000
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # before numpy loads its BLAS

import argparse  # noqa: E402
import math  # noqa: E402
import timeit  # noqa: E402

import numpy as np  # noqa: E402

from polydyn import laplace  # noqa: E402
from polydyn.dist import gaussian  # noqa: E402
from polydyn.spaces import euclid  # noqa: E402

SIZES = (1, 2, 3, 6, 18)


def spd(gen, n: int) -> np.ndarray:
    root = gen.standard_normal((n, n))
    return root @ root.T + n * np.eye(n)


def level_step(channel, prior, datum, rate: float):
    """One ``run_stack`` level-step per call, each from the mean the last
    one reached."""
    cfg = laplace.LaplaceConfig(rate=rate)
    point = [laplace._Evaluation(channel, np.zeros(channel.in_dim), laplace._Prior())]

    def step():
        at = point[0]
        rho, at_new = at.update(prior, datum, cfg)
        at_new.energy(prior, datum) - at.prior.entropy(rho)
        point[0] = at_new

    return step


def cases(gen):
    for n in SIZES:
        mean, cov = gen.standard_normal(n), spd(gen, n)
        yield f"dist.gaussian n={n}", lambda n=n, m=mean, c=cov: gaussian(euclid(n), m, c)
    for n in SIZES:
        cov = spd(gen, n)
        yield f"laplace._Guarded n={n}", lambda c=cov: laplace._Guarded("a covariance", c)
    dim = 2
    w = np.eye(dim) + 0.3 * gen.standard_normal((dim, dim))
    b = 0.2 * gen.standard_normal(dim)
    prior = laplace.mk_state(0.3 * gen.standard_normal(dim), np.eye(dim))
    datum = 0.5 * gen.standard_normal(dim)
    linear = laplace.linear_channel(w, b, 0.6 * np.eye(dim))
    yield f"linear level-step n={dim}", level_step(linear, prior, datum, 0.05)
    nonlinear = laplace.GaussianChannel(
        dim, dim,
        lambda x: np.tanh(w @ x) + b,
        None,
        lambda x: np.diag(0.5 + 0.2 * np.tanh(x) ** 2),
    )
    yield f"nonlinear level-step n={dim}", level_step(nonlinear, prior, datum, 0.1)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--repeat", type=int, default=7, help="rounds; the least is kept")
    parser.add_argument("--number", type=int, default=2000, help="calls per round")
    args = parser.parse_args()
    if args.repeat < 1 or args.number < 1:
        parser.error("--repeat and --number must be at least 1")
    # round-robin over the cases, so that a slow spell of a shared machine
    # reaches every case, and the least round of each misses it
    timed = list(cases(np.random.default_rng(0)))
    best = [math.inf] * len(timed)
    for _ in range(args.repeat):
        for k, (_, call) in enumerate(timed):
            best[k] = min(best[k], timeit.timeit(call, number=args.number))
    for (name, _), least in zip(timed, best):
        print(f"{name:28s} {least / args.number * 1e6:9.2f} us")


if __name__ == "__main__":
    main()
