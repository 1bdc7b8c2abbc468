#!/usr/bin/env python3
"""polydyn benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload bayes-corpus --seed 1 --seconds 25 --trace 0

Run it from the root of a checkout; it imports ``polydyn`` from ``src/``.
Every process it starts is a fresh interpreter limited to one BLAS thread,
run one at a time:

* set-up probes (one warm-up, then ``SETUP_PROBES`` timed, half of them
  before the ops and half after), each of which imports polydyn, builds one
  cycle of the workload's inputs and exits;
* with ``--trace 0``, one worker that runs the workload's ops and checks every
  output.  The work is fixed by ``--seconds`` (see ``NOMINAL_CYCLE_S``);
* with ``--trace 1``, one cycle of ops untraced and the same cycle traced,
  which gives the per-layer metrics and the tracing overhead.

Every timing is scaled to a fixed machine speed by the reference in
``speed.py``, timed in the same process: an op's latency by
``REF_NOMINAL_S / ref_s`` of the samples just before, during and just after
that op, a probe's set-up by that of the samples just after it.  The summary
also prints the wall times.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it are
a readable summary.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
WORKER = HERE / "worker.py"
SETUP_PROBES = 16
TIMEOUT_S = 170.0

sys.path.insert(0, str(HERE))
from speed import REF_NOMINAL_S  # noqa: E402
from tracer import TRACED, LINALG  # noqa: E402

# About the seconds one cycle of ops takes at the commit that defined the
# benchmark (2-vCPU shared Xeon VM, one thread).  A run does round(seconds / this)
# cycles, but at least MIN_CYCLES, so its work is fixed by --seconds and is
# the same on every commit and machine.  bayes-corpus needs 11 cycles for
# op_tail_ms to fall on a 3x3 verdict.
NOMINAL_CYCLE_S = {"bayes-corpus": 2.5, "law-suites": 3.1, "laplace-stack": 7.5}
MIN_CYCLES = {"bayes-corpus": 11, "law-suites": 1, "laplace-stack": 1}
WORKLOADS = tuple(NOMINAL_CYCLE_S)


def _env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"  # identical call counts run to run
    return env


def _worker(args, probe: bool = False) -> dict:
    """Run one worker to completion and return its last output line, parsed.
    A probe's result also gets ``ready_s``: seconds from launch until it had
    imported polydyn and built its inputs, and ``scale``; each op gets
    ``scaled_s``, its latency at the reference speed."""
    cmd = [sys.executable, str(WORKER), *args] + (["--probe"] if probe else [])
    launched = time.monotonic()  # system-wide clock, shared with the worker
    proc = subprocess.Popen(cmd, cwd=ROOT, env=_env(), stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}: {' '.join(cmd)}")
    result = json.loads(out.strip().splitlines()[-1])
    if probe:
        result["ready_s"] = result.pop("ready_at") - launched
        result["scale"] = REF_NOMINAL_S / result["ref_s"]
    for op in result.get("ops", ()):
        if "ref_s" in op:  # untraced
            op["scaled_s"] = op["latency_s"] * REF_NOMINAL_S / op["ref_s"]
    return result


def _probe_args(workload, seed) -> list:
    """A set-up probe builds one cycle of inputs, whatever ``--seconds`` is:
    ``setup_s`` is what a single call pays."""
    return ["--workload", workload, "--seed", str(seed), "--cycles", "1"]


def _setup(workload, seed, run) -> tuple:
    """Run ``run()`` between two halves of the set-up probes, so that the
    probes sample the machine on both sides of the ops; returns its result
    and the medians of the probes."""
    args = _probe_args(workload, seed)
    _worker(args, probe=True)  # warm-up: bytecode caches and file cache
    probes = [_worker(args, probe=True) for _ in range(SETUP_PROBES // 2)]
    result = run()
    probes += [_worker(args, probe=True) for _ in range(SETUP_PROBES - SETUP_PROBES // 2)]
    return result, {
        "setup_s": statistics.median(p["ready_s"] * p["scale"] for p in probes),
        "import_s": statistics.median(p["import_s"] * p["scale"] for p in probes),
        "build_s": statistics.median(p["build_s"] * p["scale"] for p in probes),
        "wall_setup_s": statistics.median(p["ready_s"] for p in probes),
    }


def tail_rank(n: int) -> tuple:
    """Index into the ``n`` (more than ten) sorted latencies of the highest
    percentile with at least ten ops beyond it, and that percentile."""
    return n - 11, 100.0 * (n - 10) / n


def _latency_stats(ops: list, cycle_length: int) -> dict:
    lat = sorted((op["scaled_s"], op["kind"]) for op in ops)
    n = len(lat)
    mid = statistics.median([x for x, _ in lat])
    idx, pct = tail_rank(n)
    cycles = [ops[i:i + cycle_length] for i in range(0, n, cycle_length)]
    per_cycle = [len(c) / sum(op["scaled_s"] for op in c) for c in cycles]
    steps_per_cycle = [
        sum(op["level_steps"] for op in c) / sum(op["scaled_s"] for op in c) for c in cycles
    ]
    wall = sum(op["latency_s"] for op in ops)
    return {
        "n": n,
        "ops_per_s": statistics.median(per_cycle),
        "level_steps_per_s": statistics.median(steps_per_cycle),
        "op_p50_ms": 1000.0 * mid,
        "p50_kind": lat[(n - 1) // 2][1],
        "op_tail_ms": 1000.0 * lat[idx][0],
        "tail_pct": pct,
        "tail_kind": lat[idx][1],
        "wall_ops_per_s": n / wall,
        "speed": sum(op["scaled_s"] for op in ops) / wall,
    }


def _failures(ops: list) -> list:
    return [op for op in ops if not op["ok"]]


def run_untraced(workload, seed, seconds) -> tuple:
    cycles = max(MIN_CYCLES[workload], round(seconds / NOMINAL_CYCLE_S[workload]))
    common = ["--workload", workload, "--seed", str(seed), "--cycles", str(cycles)]
    res, setup = _setup(workload, seed, lambda: _worker(common + ["--trace", "0"]))
    ops = res["ops"]
    stats = _latency_stats(ops, res["cycle_length"])
    failed = _failures(ops)
    throughput_name = "level_steps_per_s" if workload == "laplace-stack" else "checks_per_s"
    throughput = stats["level_steps_per_s"] if workload == "laplace-stack" else stats["ops_per_s"]
    print(f"workload {workload}  seed {seed}  {stats['n']} ops in {cycles} cycles of "
          f"{res['cycle_length']}  failed {len(failed)}  "
          f"failed_share {len(failed) / stats['n']:.4f}")
    print(f"  machine speed against the reference: {stats['speed']:.3f}  (timings below are "
          f"scaled to it; wall: setup_s {setup['wall_setup_s']:.4f} s, "
          f"ops_per_s {stats['wall_ops_per_s']:.4f} 1/s)")
    print(f"  setup_s      {setup['setup_s']:.4f} s  (median of {SETUP_PROBES} fresh interpreters, one cycle of inputs; "
          f"import {setup['import_s']:.4f} s, build {setup['build_s']:.4f} s)")
    print(f"  ops_per_s    {stats['ops_per_s']:.4f} 1/s  (median over cycles)")
    print(f"  {throughput_name:<12} {throughput:.4f} 1/s")
    print(f"  op_p50_ms    {stats['op_p50_ms']:.4f} ms  ({stats['p50_kind']})")
    print(f"  op_tail_ms   {stats['op_tail_ms']:.4f} ms  (p{stats['tail_pct']:.1f} of "
          f"{stats['n']} ops, {stats['tail_kind']})")
    print(f"  peak_rss_mb  {res['peak_rss_mb']:.4f} MB")
    for op in failed:
        print(f"  FAILED {op['kind']}: {op['error']}")
    metrics = {
        "setup_s": (setup["setup_s"], "s"),
        "ops_per_s": (stats["ops_per_s"], "1/s"),
        "op_p50_ms": (stats["op_p50_ms"], "ms"),
        "op_tail_ms": (stats["op_tail_ms"], "ms"),
        "peak_rss_mb": (res["peak_rss_mb"], "MB"),
    }
    return stats["n"], len(failed), metrics


def run_traced(workload, seed) -> tuple:
    common = _probe_args(workload, seed)
    (plain, traced), setup = _setup(workload, seed, lambda: (
        _worker(common + ["--trace", "0"]), _worker(common + ["--trace", "1"])))
    ops = plain["ops"] + traced["ops"]
    failed = _failures(ops)
    tr = traced["trace"]
    totals = tr["totals"]

    def busy(res):
        return sum(op["latency_s"] for op in res["ops"])

    verdicts = tr["verdicts"]
    metrics = {}
    for fn in TRACED:
        metrics[f"{fn}.calls"] = (totals[fn]["calls"], "count")
        metrics[f"{fn}.self_s"] = (totals[fn]["self_s"], "s")
    for fn in LINALG:
        metrics[f"linalg.{fn}.calls"] = (totals[f"linalg.{fn}"]["calls"], "count")
    keys = tr["key_computations"]
    metrics["poly.polymap_key.distinct_ratio"] = (tr["distinct_keys"] / keys if keys else 0.0, "ratio")
    metrics["hier.trace.per_verdict"] = (
        sum(v["trace_calls"] for v in verdicts) / len(verdicts) if verdicts else 0.0, "count")
    states = [s for v in verdicts for s in v["states"] if s is not None]
    metrics["caps.max_states"] = (max(states) if states else 0, "count")
    metrics["caps.candidates_capped"] = (sum(v["candidates_capped"] for v in verdicts), "count")
    metrics["caps.sections_capped"] = (sum(v["sections_capped"] for v in verdicts), "count")
    metrics["setup.import_s"] = (setup["import_s"], "s")
    metrics["setup.build_s"] = (setup["build_s"], "s")
    # untraced over traced throughput of the same cycle
    metrics["trace.overhead_ratio"] = (busy(traced) / busy(plain), "ratio")

    print(f"workload {workload}  seed {seed}  traced cycle of {len(traced['ops'])} ops "
          f"(untraced {busy(plain):.3f} s, traced {busy(traced):.3f} s)  failed {len(failed)}")
    for v in verdicts:
        print(f"  verdict op {v['op']}: states {v['states']}, {v['trace_calls']} trace calls, "
              f"{v['sections']} sections, candidates capped {v['candidates_capped']}, "
              f"sections capped {v['sections_capped']}")
    for rec in tr["per_op"]:
        linalg = {k.split(".")[1]: c for k, c in rec["calls"].items() if k.startswith("linalg.") and c}
        if linalg:
            print(f"  op {rec['op']} {rec['kind']}: linalg calls {linalg}")
    print(f"  spans kept {tr['spans_kept']}, dropped {tr['spans_dropped']}; "
          f"written to {', '.join(str(Path(f).relative_to(ROOT)) for f in tr['files'])}")
    for op in failed:
        print(f"  FAILED {op['kind']}: {op['error']}")
    return len(ops), len(failed), metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "polydyn" / "__init__.py").is_file():
        print("run.py: no src/polydyn here; run from the root of a polydyn checkout",
              file=sys.stderr)
        return 2
    try:
        if args.trace:
            attempted, failed, metrics = run_traced(args.workload, args.seed)
        else:
            attempted, failed, metrics = run_untraced(args.workload, args.seed, args.seconds)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
