"""Layer tracing for the benchmark's traced run.

Each traced function is replaced by a counting, timing wrapper in every
``polydyn`` module namespace that holds the same object.  Several modules
bind ``bind``, ``dst``, ``polymap_key`` and friends with from-imports, so
patching only the defining module would miss most calls; and composites
capture functions such as ``dst`` when they are built, so ``install`` must run
before any input is constructed.  Calls into ``numpy.linalg`` are counted the
same way, under the names ``linalg.<fn>``.

Self time is a call's inclusive time minus the time of the wrapped calls made
inside it.  Spans (id, name, start, end, parent, op id) are kept in memory for
calls that cross a layer boundary -- the caller's module differs from the
callee's, or the call is outermost -- and written when the run ends.
"""

from __future__ import annotations

import importlib
import time
from array import array

MODULES = (
    "polydyn",
    "polydyn.spaces",
    "polydyn.dist",
    "polydyn.poly",
    "polydyn.systems",
    "polydyn.random_bundle",
    "polydyn.hier",
    "polydyn.laplace",
    "polydyn.specio",
    "polydyn.cli",
)

# The public functions whose calls and self time the benchmark reports.
TRACED = (
    "spaces.normalize_point", "spaces.check_point", "spaces.expand_point",
    "dist.bind", "dist.dst", "dist.categorical", "dist.prob",
    "dist.finite_items", "dist.dist_distance", "dist.gaussian",
    "poly.polymap_key", "poly.compose_map", "poly.tensor_map",
    "hier.trace", "hier.hom_sections", "hier.quasi_bisim",
    "hier.compose_hier", "hier.tensor_hier",
    "systems.closure", "systems.check_flow", "systems.rk4_step",
    "systems.reindex",
    "random_bundle.check_measure_preserving",
    "random_bundle.check_random_system", "random_bundle.check_bundle",
    "laplace.rho_update", "laplace.energy", "laplace.grad_energy",
    "laplace.sigma_star", "laplace.mk_state", "laplace.free_energy_laplace",
    "laplace.run_stack", "laplace.mean_path",
    "cli.main", "specio.load_json", "specio.system_from_json",
)
LINALG = ("cond", "solve", "inv", "slogdet", "eigvalsh")

# Spans beyond this many are counted but not kept (about 40 bytes each).
SPAN_CAP = 1_000_000


class Tracer:
    """Call counts, self times and boundary spans for the wrapped functions."""

    def __init__(self):
        self.names: list = []
        self.calls: list = []
        self.self_s: list = []
        self._layer: list = []
        self._stack: list = []  # frames: [fid, span id, child seconds]
        self._hooks: dict = {}
        self._next_span = 0
        self.op = -1
        self.spans_dropped = 0
        self._cols = {
            "span": array("q"), "fid": array("i"), "start": array("d"),
            "end": array("d"), "parent": array("q"), "op": array("i"),
        }
        self.origin = time.perf_counter()

    def install(self) -> None:
        modules = [importlib.import_module(m) for m in MODULES]
        for name in TRACED:
            modname, attr = name.split(".")
            original = getattr(importlib.import_module(f"polydyn.{modname}"), attr)
            wrapper = self._wrap(name, original)
            for mod in modules:
                for key, obj in list(vars(mod).items()):
                    if obj is original:
                        setattr(mod, key, wrapper)
        import numpy.linalg as la

        for fn in LINALG:
            setattr(la, fn, self._wrap(f"linalg.{fn}", getattr(la, fn)))

    def hook(self, name: str, pre, post) -> None:
        """Call ``pre(args, kwargs)`` before and ``post(ctx, result)`` after
        each call of ``name``; their time is charged to no function."""
        self._hooks[name] = (pre, post)

    def fid(self, name: str) -> int:
        return self.names.index(name)

    def _wrap(self, name: str, fn):
        fid = len(self.names)
        self.names.append(name)
        self.calls.append(0)
        self.self_s.append(0.0)
        layer = name.split(".", 1)[0]
        self._layer.append(layer)
        calls, self_s, stack, layers = self.calls, self.self_s, self._stack, self._layer
        hooks = self._hooks
        clock = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            # Wrapper bookkeeping and hooks are charged to no function: the
            # caller is credited with everything from entry to return.
            w0 = clock()
            parent = stack[-1] if stack else None
            try:
                hook = hooks.get(name)
                if hook is not None:
                    ctx = hook[0](args, kwargs)
                sid = tracer._next_span
                tracer._next_span = sid + 1
                frame = [fid, sid, 0.0]
                stack.append(frame)
                t0 = clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    t1 = clock()
                    stack.pop()
                    calls[fid] += 1
                    self_s[fid] += (t1 - t0) - frame[2]
                    if parent is None or layers[parent[0]] != layer:
                        tracer._span(sid, fid, t0, t1, -1 if parent is None else parent[1])
                if hook is not None:
                    hook[1](ctx, result)
                return result
            finally:
                if parent is not None:
                    parent[2] += clock() - w0

        traced.__name__ = fn.__name__
        traced.__doc__ = fn.__doc__
        traced.__wrapped__ = fn
        return traced

    def _span(self, sid, fid, t0, t1, parent) -> None:
        cols = self._cols
        if len(cols["span"]) >= SPAN_CAP:
            self.spans_dropped += 1
            return
        cols["span"].append(sid)
        cols["fid"].append(fid)
        cols["start"].append(t0 - self.origin)
        cols["end"].append(t1 - self.origin)
        cols["parent"].append(parent)
        cols["op"].append(self.op)

    def write_spans(self, path) -> int:
        """Write the kept spans as a compressed NumPy archive; returns how
        many were kept.  ``names[fid]`` gives each span's function."""
        import numpy as np

        cols = {k: np.frombuffer(v, dtype=v.typecode) if len(v) else np.array([], v.typecode)
                for k, v in self._cols.items()}
        np.savez_compressed(
            path, names=np.array(self.names), dropped=self.spans_dropped, **cols
        )
        return len(self._cols["span"])
