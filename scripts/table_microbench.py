#!/usr/bin/env python3
"""Per-call times of the table verdicts' sorts, products, set-up and whole verdicts, in microseconds.

Prints one line per case, the least over ``--repeat`` rounds of the mean
time per call in a round of ``--number`` calls, with one BLAS thread; each
round times every case once, in turn:

- ``hier._unique`` against ``np.unique`` on n = 1, 3, 27, 81 and 2,187
  seeded codes in -1..n-1 (2,187 is the pair count of a 3x3 Bayes
  verdict's right joint), both for values and inverse (the default sort)
  and with the first occurrences too (a stable sort);
- ``dist.product_items`` of two seeded full-support finite laws on 81 and
  27 atoms, the shape of a composite initial law;
- ``bayes_check`` of a seeded exact inversion at 2x2 and at 3x3, the
  benchmark's bayes-corpus shapes, each verdict built from its systems;
- the candidate initial laws of a 3x3 Bayes verdict's 81-state left joint
  as the rows its table reads, against the same laws built as ``Dist``
  objects and read by ``law``, atom by atom but for the joint's own
  ``init``;
- the ``_PairTable`` build of the 3x3 right joint's 2,187 states from its
  factors' tables, which are built once, outside the timing.

Run from the root of a checkout (``--repeat 1 --number 1`` is a smoke test):

    PYTHONPATH=src python scripts/table_microbench.py --repeat 7 --number 200
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # before numpy loads its BLAS

import argparse  # noqa: E402
import math  # noqa: E402
import timeit  # noqa: E402

import numpy as np  # noqa: E402

from polydyn import (  # noqa: E402
    bayes_check,
    categorical,
    compose_hier,
    copy_system,
    exact_bayes,
    finite,
    finite_items,
    id_hier,
    linear,
    points,
    prior_system,
    stochastic_channel_system,
    tensor_hier,
)
from polydyn import hier  # noqa: E402
from polydyn.dist import product_items  # noqa: E402
from polydyn.hier import _unique  # noqa: E402

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


def cases(gen):
    for n in CODES:
        codes = gen.integers(-1, n, size=n)
        yield f"_unique n={n}", lambda c=codes: _unique(c)
        yield f"np.unique n={n}", lambda c=codes: np.unique(c, return_inverse=True)
        yield f"_unique index n={n}", lambda c=codes: _unique(c, index=True)
        yield (f"np.unique index n={n}",
               lambda c=codes: np.unique(c, return_index=True, return_inverse=True))
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


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--repeat", type=int, default=7, help="rounds; the least is kept")
    parser.add_argument("--number", type=int, default=200, help="calls per round")
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
