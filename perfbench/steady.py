#!/usr/bin/env python3
"""A/A steadiness check: run the benchmark twice on one commit.

    python3 perfbench/steady.py --runs 10            # two sets of ten seeds each
    python3 perfbench/steady.py --runs 1 --sets 1    # one run per workload

For every workload it makes ``--sets`` sets of ``--runs`` untraced runs, each
with another seed, and reports for each end-to-end metric:

* each set's median and spread -- the distance between the first and third
  quartile (``statistics.quantiles(values, n=4)``) as a share of the median;
* how far the second set's median is from the first's, as a share (positive
  when it is worse);
* both against the metric's bound in BENCHMARK.json.  Every spread and the
  size of the shift must stay within the bound; a spread below a third of the
  bound is "steady".

Then it makes ``--traced`` traced runs with one seed and checks that every
``.calls`` count repeats exactly.  Run it from the root of a checkout; each
run's readable summary is echoed, and everything is saved under
perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()


def _run(workload, seed, seconds, trace) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited with {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    for line in lines[:-1]:
        print(f"    {line}")
    return json.loads(lines[-1])


def _spread(values) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def _worse(first, second, better) -> float:
    """How much worse ``second`` is than ``first``, as a share of ``first``."""
    change = (second - first) / first
    return change if better == "lower" else -change


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--runs", type=int, default=10, help="runs per set")
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--traced", type=int, default=2, help="traced runs to compare")
    args = parser.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = bench["run_seconds"]
    metrics = bench["end_to_end"]
    workloads = [w["name"] for w in bench["workloads"]]
    report: dict = {"run_seconds": seconds, "workloads": {}}
    ok = True
    for workload in workloads:
        print(f"== {workload}")
        sets = []
        for s in range(args.sets):
            values = {m["name"]: [] for m in metrics}
            for r in range(args.runs):
                seed = 1 + s * args.runs + r
                t0 = time.perf_counter()
                res = _run(workload, seed, seconds, 0)
                print(f"  set {s + 1} seed {seed}: {time.perf_counter() - t0:.1f} s, "
                      f"correct {res['correct']}, {res['attempted']} ops, {res['failed']} failed")
                ok &= res["correct"]
                for m in metrics:
                    values[m["name"]].append(res["metrics"][m["name"]]["value"])
            sets.append(values)
        rows = {}
        if args.runs >= 2:
            for m in metrics:
                name, bound = m["name"], m["bound"]
                spreads = [_spread(v[name]) for v in sets]
                medians = [statistics.median(v[name]) for v in sets]
                shift = _worse(medians[0], medians[-1], m["better"]) if len(sets) > 1 else 0.0
                steady = all(sp < bound / 3 for sp in spreads)
                held = abs(shift) <= bound and all(sp <= bound for sp in spreads)
                ok &= held
                rows[name] = {"medians": medians, "spreads": spreads, "shift": shift,
                              "bound": bound, "steady": steady, "held": held}
                print(f"  {name:<12} medians {' '.join(f'{x:.4g}' for x in medians)} {m['unit']}  "
                      f"spreads {' '.join(f'{x:.3f}' for x in spreads)}  shift {shift:+.3f}  "
                      f"bound {bound}  {'steady' if steady else 'NOT STEADY'}"
                      f"{'' if held else '  OUT OF BOUND'}")
        calls = []
        for _ in range(args.traced):
            res = _run(workload, 1, seconds, 1)
            calls.append({k: v["value"] for k, v in res["metrics"].items() if k.endswith(".calls")})
        repeat = all(c == calls[0] for c in calls)
        if args.traced >= 2:
            ok &= repeat
            print(f"  traced call counts repeat across {args.traced} runs: {repeat}")
        report["workloads"][workload] = {"sets": sets, "metrics": rows, "calls_repeat": repeat}
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    path = out / f"steady-{time.strftime('%Y%m%d-%H%M%S')}.json"
    path.write_text(json.dumps(report, indent=1), encoding="utf-8")
    print(f"{'all within bounds' if ok else 'SOME CHECKS FAILED'}; saved {path.relative_to(ROOT)}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
