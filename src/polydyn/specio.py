"""JSON wire format for finite systems and model specs.

Finite spaces are labeled sets, maps are explicit tables, distributions use
the codec from ``dist``.  Beyond explicit tables a small registry of named
example systems keeps spec files short; anything larger is expected to be
constructed in Python.
"""

from __future__ import annotations

import json
from typing import Any

from .dist import Dist, categorical, dirac, dist_from_json, uniform
from .poly import (
    DETERMINISTIC,
    STOCHASTIC,
    PolyError,
    Polynomial,
    Section,
    check_section,
    constant_section,
    monomial,
    tabulated,
    time_nat,
    trivial_section,
)
from .spaces import (
    Space,
    cardinality,
    finite,
    is_finite,
    point_from_json,
    points,
    space_from_json,
    unit,
)
from .laplace import LaplaceConfig, linear_channel, mk_state
from .systems import System, closed_from_kernel, mk_system
from .random_bundle import (
    MeasurePreservingSystem,
    RandomSystem,
    mk_bundle,
    mk_measure_preserving,
    mk_probability_space,
    mk_random_system,
)


class SpecError(ValueError):
    """Malformed or inconsistent JSON spec."""


def load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            spec = json.load(fh)
    except FileNotFoundError:
        raise SpecError(f"spec file not found: {path}")
    except json.JSONDecodeError as exc:
        raise SpecError(f"spec file {path} is not valid JSON: {exc}")
    if not isinstance(spec, dict):
        raise SpecError(f"spec file {path} holds {type(spec).__name__}, not a JSON object")
    return spec


def _space_of(obj: Any) -> Space:
    """Space from JSON; a bare list is shorthand for a finite labeled set."""
    if isinstance(obj, list):
        return finite(*obj)
    if isinstance(obj, dict):
        return space_from_json(obj)
    raise SpecError(f"not a space description: {obj!r}")


def interface_from_json(obj: dict) -> Polynomial:
    positions = _space_of(obj["positions"])
    dirs = obj.get("directions", {"constant": {"kind": "unit"}})
    if "constant" in dirs:
        return monomial(positions, _space_of(dirs["constant"]))
    if "fibres" in dirs:
        table = [
            (point_from_json(positions, p), _space_of(s)) for p, s in dirs["fibres"]
        ]
        return tabulated(positions, dict(table))
    raise SpecError(f"unknown direction description: {dirs!r}")


def dist_of(space: Space, obj: Any) -> Dist:
    if obj == "uniform":
        return uniform(space)
    if isinstance(obj, dict):
        return dist_from_json(space, obj)
    raise SpecError(f"not a distribution description: {obj!r}")


def section_from_json(p: Polynomial, obj: Any) -> Section:
    if obj is None:
        if all(cardinality(p.dirs_at(i)) == 1 for i in points(p.positions)):
            return trivial_section(p)
        raise SpecError("system has real inputs; the spec must provide a section")
    if "constant" in obj:
        value = obj["constant"]
        sample = next(iter(points(p.positions)))
        sigma = constant_section(p, point_from_json(p.dirs_at(sample), value))
    elif "table" in obj:
        table = {
            point_from_json(p.positions, pos): point_from_json(
                p.dirs_at(point_from_json(p.positions, pos)), d
            )
            for pos, d in obj["table"]
        }
        sigma = Section(p, table.__getitem__)
    else:
        raise SpecError(f"unknown section description: {obj!r}")
    try:
        check_section(p, sigma)
    except PolyError as exc:
        raise SpecError(str(exc)) from None
    return sigma


def system_from_json(obj: dict) -> System:
    if "named" in obj:
        return _named_system(obj)
    try:
        interface = interface_from_json(obj["interface"])
        states = _space_of(obj["states"])
    except KeyError as exc:
        raise SpecError(f"system spec is missing {exc}")
    if not is_finite(states):
        raise SpecError("explicit-table systems need finite state spaces")
    out_table = {
        point_from_json(states, s): point_from_json(interface.positions, pos)
        for s, pos in obj["output"]
    }
    upd_table = {}
    for row in obj["update"]:
        s, d, dd = row
        sv = point_from_json(states, s)
        dv = point_from_json(interface.dirs_at(out_table[sv]), d)
        upd_table[(sv, dv)] = dist_of(states, dd)
    effect = obj.get("effect", STOCHASTIC)
    if effect not in (DETERMINISTIC, STOCHASTIC):
        raise SpecError(f"unknown effect {effect!r}")

    def output(t, s):
        return out_table[s]

    def update(t, s, d):
        try:
            return upd_table[(s, d)]
        except KeyError:
            raise SpecError(f"update table has no row for state {s!r}, input {d!r}")

    return mk_system(interface, states, output, update, effect=effect)


# ---------------------------------------------------------------------------
# named examples


def _named_system(obj: dict) -> System:
    name = obj["named"]
    if name == "counter":
        n = int(obj.get("n", 8))
        space = finite(*range(n))
        return mk_system(
            monomial(space, unit()),
            space,
            lambda t, s: s,
            lambda t, s, d: dirac(space, (s + 1) % n),
            effect=DETERMINISTIC,
        )
    if name == "markov":
        labels = obj.get("labels")
        matrix = obj["K"]
        if labels is None:
            labels = list(range(len(matrix)))
        space = finite(*labels)
        rows = {
            lab: categorical(
                space, {l2: w for l2, w in zip(labels, row)}
            )
            for lab, row in zip(labels, matrix)
        }
        return mk_system(
            monomial(space, unit()),
            space,
            lambda t, s: s,
            lambda t, s, d: rows[s],
            effect=STOCHASTIC,
        )
    raise SpecError(f"unknown named system {name!r}")


def laplace_from_json(spec: dict) -> tuple:
    """Linear predictive hierarchy from a spec: ``(levels, prior, datum,
    config)``.  The run lasts exactly ``steps`` steps, so the convergence keys
    ``iterations`` and ``tolerance`` would go unread and are rejected."""
    unread = [key for key in ("iterations", "tolerance") if key in spec]
    if unread:
        raise SpecError(
            f"laplace specs take no {' or '.join(unread)}: the run lasts "
            "exactly 'steps' steps"
        )
    levels = []
    for lvl in spec["levels"]:
        mean = lvl["mean"]
        if "linear" not in mean:
            raise SpecError(f"unknown mean description {mean!r}")
        levels.append(
            linear_channel(
                mean["linear"]["A"], mean["linear"].get("b"), lvl.get("cov")
            )
        )
    prior = spec["prior"]
    pi0 = mk_state(prior["mean"], prior["cov"])
    return levels, pi0, spec["data"], LaplaceConfig(rate=float(spec.get("rate", 0.05)))


def rotation_example(n: int = 6) -> MeasurePreservingSystem:
    """Uniform measure on an n-cycle, preserved by the shift."""
    space = finite(*range(n))
    base = mk_probability_space(space, uniform(space))
    flow = closed_from_kernel(
        space, time_nat(), lambda t, w: dirac(space, (w + t) % n)
    )
    return mk_measure_preserving(base, flow)


def biased_swap_example() -> tuple:
    """A swap on two points against a lopsided measure; violates preservation.
    Returns (base, flow) unchecked so callers can watch the check fail."""
    space = finite(0, 1)
    base = mk_probability_space(space, categorical(space, {0: 0.3, 1: 0.7}))
    flow = closed_from_kernel(
        space, time_nat(), lambda t, w: dirac(space, w if t % 2 == 0 else 1 - w)
    )
    return base, flow


def skew_random_example(n: int = 4, m: int = 2) -> RandomSystem:
    """Skew product: the n-cycle shift in the base drives an m-cycle fibre."""
    mps = rotation_example(n)
    total = finite(*[(w, x) for w in range(n) for x in range(m)])
    out_space = finite(*range(m))

    def output(t, s):
        return s[1]

    def update(t, s, d):
        w, x = s
        return dirac(total, ((w + 1) % n, (x + w) % m))

    return mk_random_system(
        base=mps,
        total_states=total,
        proj=lambda s: s[0],
        interface=monomial(out_space, unit()),
        output=output,
        update=update,
    )


def bundle_example(n: int = 3, m: int = 2):
    """A bundle whose base ignores its inputs, so the projection square
    commutes for every pair of section choices."""
    base_space = finite(*range(n))
    base_sys = mk_system(
        monomial(base_space, finite("go", "wait")),
        base_space,
        lambda t, w: w,
        lambda t, w, d: dirac(base_space, (w + 1) % n),
        effect=DETERMINISTIC,
    )
    total_space = finite(*[(w, x) for w in range(n) for x in range(m)])
    total_sys = mk_system(
        monomial(finite(*range(m)), finite(0, 1)),
        total_space,
        lambda t, s: s[1],
        lambda t, s, d: dirac(total_space, ((s[0] + 1) % n, (s[1] + d) % m)),
        effect=DETERMINISTIC,
    )
    return mk_bundle(base_sys, total_sys, proj=lambda s: s[0])
