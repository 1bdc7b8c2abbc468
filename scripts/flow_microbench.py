#!/usr/bin/env python3
"""Per-call times of the flow and bundle laws and of the distance they read, in microseconds.

Prints one line per case, the least over ``--repeat`` rounds of the mean
time per call in a round of ``--number`` calls, with one BLAS thread; each
round times every case once, in turn:

- ``check_flow`` on seeded stochastic systems of the benchmark's flow shape
  (n = 4, 5 and 6 states, positions p0/p1 with 2 and 3 directions,
  full-support dyadic updates) over the splits 0 < s + t <= 8, with every
  section of the interface and every state;
- ``check_bundle`` on ``bundle_example(3, 2)``, the benchmark's bundle shape:
  four total sections against eight base sections, at times 1-3 and each
  of the six total states, its squares read from rows of the tick
  matrices' powers;
- ``dist_distance`` between two seeded full-support finite laws on n = 2, 8
  and 64 atoms, listed in two different orders.

Run from the root of a checkout (``--repeat 1 --number 1`` is a smoke test):

    PYTHONPATH=src python scripts/flow_microbench.py --repeat 7 --number 200
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # before numpy loads its BLAS

import argparse  # noqa: E402
import math  # noqa: E402
import timeit  # noqa: E402

import numpy as np  # noqa: E402

from polydyn import STOCHASTIC, categorical, finite, mk_system, tabulated, time_nat  # noqa: E402
from polydyn.dist import dist_distance  # noqa: E402
from polydyn.random_bundle import check_bundle  # noqa: E402
from polydyn.specio import bundle_example  # noqa: E402
from polydyn.spaces import points  # noqa: E402
from polydyn.systems import check_flow  # noqa: E402

FLOW_STATES = (4, 5, 6)
LAW_ATOMS = (2, 8, 64)
SPLITS = [(s, t) for s in range(9) for t in range(9) if 0 < s + t <= 8]


def dyadic(gen, n: int) -> list:
    """Full-support weights k / 2^m on n atoms, 2^m > n (k / 8 up to n = 7,
    as the benchmark's flow shapes have them)."""
    total = 1 << max(3, n.bit_length())
    return ((1 + gen.multinomial(total - n, [1.0 / n] * n)) / total).tolist()


def flow_system(gen, n: int):
    states = finite(*range(n))
    iface = tabulated(finite("p0", "p1"), {"p0": finite(0, 1), "p1": finite(0, 1, 2)})
    table = {
        (s, d): categorical(states, list(zip(range(n), dyadic(gen, n))))
        for s in range(n)
        for d in points(iface.dirs_at(f"p{s % 2}"))
    }
    return mk_system(
        iface, states, lambda t, s: f"p{s % 2}", lambda t, s, d: table[(s, d)],
        time_nat(), STOCHASTIC,
    )


def cases(gen):
    for n in FLOW_STATES:
        sys_ = flow_system(gen, n)
        yield f"check_flow n={n}", lambda s=sys_: check_flow(s, times=SPLITS, tol=0.0)
    yield "check_bundle 3x2", lambda bs=bundle_example(3, 2): check_bundle(bs)
    for n in LAW_ATOMS:
        atoms = finite(*range(n))
        d1 = categorical(atoms, list(zip(range(n), dyadic(gen, n))))
        d2 = categorical(atoms, list(zip(range(n - 1, -1, -1), dyadic(gen, n))))
        yield f"dist_distance n={n}", lambda a=d1, b=d2: dist_distance(a, b)


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
