"""One workload process: import polydyn, build the inputs, run the ops.

Started by ``run.py`` in a fresh interpreter with one BLAS thread.  With
``--probe`` it only times the import and the input build, then exits; that is
what ``setup_s`` measures.  Otherwise it runs every op, checks each output,
and prints one JSON object as its last line of standard output.

In an untraced run it times a fixed pure-Python reference (``speed.py``)
just before, during and just after each op, and a probe times it after its
set-up.  Each op record then carries ``ref_s``, the mean reference time, so
``run.py`` can report times at a fixed machine speed.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import speed

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--cycles", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true", help="time import and build only")
    args = parser.parse_args(argv)

    t0 = time.perf_counter()
    import polydyn  # noqa: F401  (the import is what is timed)

    import_s = time.perf_counter() - t0
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    import workloads

    workdir = OUT / f"tmp-{args.workload}-{args.seed}-{'probe' if args.probe else 'run'}-{args.trace}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        t1 = time.perf_counter()
        ops = workloads.build(args.workload, args.seed, args.cycles, workdir)
        build_s = time.perf_counter() - t1
        if args.probe:
            ready_at = time.monotonic()
            print(json.dumps({"import_s": import_s, "build_s": build_s, "ready_at": ready_at,
                              "ref_s": speed.probe_ref_s()}))
            return 0
        gc.collect()
        gc.freeze()  # the inputs: later collections do not walk them
        if tracer:
            # no sampler: its handler would be charged to the traced functions
            observer = _Observer(tracer)
            records = [_run_op(k, op, observer) for k, op in enumerate(ops)]
        else:
            with speed.Sampler() as sampler:
                records = [_run_op(k, op, None, sampler) for k, op in enumerate(ops)]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    result = {
        "ops": records,
        "cycle_length": len(ops) // args.cycles,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer:
        result["trace"] = observer.summary(args.workload, args.seed)
    print(json.dumps(result), flush=True)
    return 0


def _run_op(k, op, observer, sampler=None) -> dict:
    gc.collect()  # every op starts with the same, empty, collector generations
    if observer:
        observer.begin(k)
    error = None
    if sampler:
        before = sampler.take()
        first, spent = len(sampler.samples), sampler.spent
    t0 = time.perf_counter()
    try:
        out = op.run()
    except Exception as exc:  # a failing op is counted, the run goes on
        out, error = None, f"{type(exc).__name__}: {exc}"
    latency = time.perf_counter() - t0
    if sampler:
        latency -= sampler.spent - spent
        ref_s = statistics.mean([before, *sampler.samples[first:], sampler.take()])
    if observer:
        observer.end(k, op.kind)
    if error is None:
        try:
            error = op.check(out)
        except Exception as exc:
            error = f"check raised {type(exc).__name__}: {exc}"
    record = {"kind": op.kind, "latency_s": latency, "ok": error is None,
              "error": error, "level_steps": op.level_steps}
    if sampler:
        record["ref_s"] = ref_s
    return record


class _Observer:
    """Per-op counter deltas, per-verdict cap records and the distinct-key
    ratio of ``polymap_key``, collected through the tracer's hooks."""

    PER_OP = ("hier.trace", "hier.quasi_bisim", "poly.polymap_key") + tuple(
        f"linalg.{fn}" for fn in ("cond", "solve", "inv", "slogdet", "eigvalsh")
    )

    def __init__(self, tracer):
        import inspect

        from polydyn import hier, spaces

        self.tracer = tracer
        # counts and self times summed over the ops only, not their checks
        self.calls = [0] * len(tracer.names)
        self.self_s = [0.0] * len(tracer.names)
        self.per_op: list = []
        self.verdicts: list = []
        self.key_computations = 0
        self.distinct_keys = 0
        self._keys: set = set()
        self._start_calls: list = []
        self._start_self: list = []
        self.candidate_cap = inspect.signature(hier._candidates).parameters["cap"].default
        self.section_cap = inspect.signature(hier.quasi_bisim.__wrapped__).parameters[
            "max_sections"].default
        cardinality = spaces.cardinality
        is_finite = spaces.is_finite
        trace_fid = tracer.fid("hier.trace")

        def size(space):
            return cardinality(space) if is_finite(space) else None

        def before_verdict(args, kwargs):
            theta = args[0] if args else kwargs["theta"]
            psi = args[1] if len(args) > 1 else kwargs["psi"]
            return (size(theta.states), size(psi.states), tracer.calls[trace_fid])

        def after_verdict(ctx, verdict):
            if tracer.op < 0:  # called by a check, not an op
                return
            states_a, states_b, traces_before = ctx
            sizes = [s for s in (states_a, states_b) if s is not None]
            self.verdicts.append({
                "op": tracer.op,
                "states": [states_a, states_b],
                "trace_calls": tracer.calls[trace_fid] - traces_before,
                "sections": verdict["sections"],
                "candidates_capped": any(s > self.candidate_cap for s in sizes),
                "sections_capped": verdict["sections"] >= self.section_cap,
                "related": verdict["related"],
            })

        def after_key(ctx, key):
            self._keys.add(key)

        tracer.hook("hier.quasi_bisim", lambda a, k: before_verdict(a, k), after_verdict)
        tracer.hook("poly.polymap_key", lambda a, k: None, after_key)

    def begin(self, k):
        self.tracer.op = k
        self._keys.clear()
        self._start_calls = list(self.tracer.calls)
        self._start_self = list(self.tracer.self_s)

    def end(self, k, kind):
        calls, self_s = self.tracer.calls, self.tracer.self_s
        for fid, (c, c0, t, t0) in enumerate(
                zip(calls, self._start_calls, self_s, self._start_self)):
            self.calls[fid] += c - c0
            self.self_s[fid] += t - t0
        delta = {}
        for name in self.PER_OP:
            fid = self.tracer.fid(name)
            delta[name] = calls[fid] - self._start_calls[fid]
        self.key_computations += delta["poly.polymap_key"]
        self.distinct_keys += len(self._keys)
        self._keys.clear()
        self.per_op.append({"op": k, "kind": kind, "calls": delta})
        self.tracer.op = -1

    def summary(self, workload, seed) -> dict:
        tr = self.tracer
        totals = {
            n: {"calls": c, "self_s": s} for n, c, s in zip(tr.names, self.calls, self.self_s)
        }
        OUT.mkdir(parents=True, exist_ok=True)
        stem = OUT / f"trace-{workload}-seed{seed}"
        kept = tr.write_spans(f"{stem}-spans.npz")
        doc = {
            "totals": totals,
            "per_op": self.per_op,
            "verdicts": self.verdicts,
            "key_computations": self.key_computations,
            "distinct_keys": self.distinct_keys,
            "spans_kept": kept,
            "spans_dropped": tr.spans_dropped,
            "candidate_cap": self.candidate_cap,
            "section_cap": self.section_cap,
        }
        Path(f"{stem}.json").write_text(json.dumps(doc, indent=1), encoding="utf-8")
        doc["files"] = [f"{stem}.json", f"{stem}-spans.npz"]
        return doc


if __name__ == "__main__":
    sys.exit(main())
