"""The one reader of JSON specs: every spec key that polydyn reads is read
here, and nowhere else.

A spec is a JSON object.  Each subcommand and suite takes its typed inputs
from one function of this module: ``run_from_json``, ``flow_from_json``,
``laplace_from_json``, ``demo_from_json``, ``comonoid_from_json`` and
``bayes_from_json``.  A value is read through ``_Spec``, which holds it
with its key path and hands it out typed: an integer with a lower bound, a
finite number, a string among choices, a label, a list or an object, each
with an optional default.  JSON ``true`` and ``false`` are never read as a
number or a label.  The decoders of spaces, points and laws
(``spaces.space_from_json``, ``spaces.point_from_json``,
``dist.dist_from_json``) own their formats; the reader hands them a value
and adds its key path to what they refuse.

Every refusal is one ``SpecError``::

    spec key '<path>' must be <kind>, got <value>

where a nested path reads like ``system.K[1][0]`` or
``levels[0].mean.linear.A``, a key that is left out is ``got nothing``, and
a decoder's or constructor's reason follows after a colon.  A key that an
object does not hold is refused as ``must be absent``.

Beyond explicit tables a small registry of named example systems keeps spec
files short; anything larger is expected to be constructed in Python.
"""

from __future__ import annotations

import json
import math
from typing import Any

from .dist import DistError, categorical, dirac, dist_from_json, uniform
from .laplace import LaplaceConfig, LaplaceError, linear_channel, mk_state
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
    SpaceError,
    cardinality,
    finite,
    is_finite,
    label_from_json,
    point_from_json,
    points,
    space_from_json,
    unit,
)
from .systems import OpenSystemError, System, closed_from_kernel, mk_system
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


# ---------------------------------------------------------------------------
# the reader


class _Absent:
    """The value of a key that is left out."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "nothing"


_ABSENT = _Absent()

# what a decoder or a constructor raises for a value it refuses
_REFUSED = (SpaceError, DistError, PolyError, LaplaceError, OpenSystemError)


def _at_least(lo) -> str:
    return "non-negative" if lo == 0 else f"at least {lo}"


class _Spec:
    """A JSON value of a spec and its key path: its key, an object key or a
    list index, in the value that holds it (``parent``), or, at the root,
    the path itself.  The path is written out only for a refusal."""

    __slots__ = ("value", "parent", "key")

    def __init__(self, value: Any, key, parent: "_Spec" = None):
        self.value = value
        self.key = key
        self.parent = parent

    @property
    def path(self) -> str:
        if self.parent is None:
            return self.key
        head = self.parent.path
        if type(self.key) is int:
            return f"{head}[{self.key}]"
        return f"{head}.{self.key}" if head else self.key

    def refuse(self, kind: str, reason: str = "") -> SpecError:
        text = f"spec key {self.path!r} must be {kind}, got {self.value!r}"
        return SpecError(f"{text}: {reason}" if reason else text)

    def decode(self, kind: str, make, *args):
        """``make(*args, value)``, whose refusal is this key's."""
        try:
            return make(*args, self.value)
        except _REFUSED as exc:
            raise self.refuse(kind, str(exc)) from None

    def object(self, keys: tuple) -> "_Spec":
        """This value, an object holding only ``keys``."""
        if type(self.value) is not dict:
            raise self.refuse("an object")
        for key, value in self.value.items():
            if key not in keys:
                held = ", ".join(map(repr, keys))
                raise self.field(key).refuse("absent", f"the keys read here are {held}")
        return self

    def has(self, key: str) -> bool:
        return key in self.value

    def field(self, key: str, default: Any = _ABSENT) -> "_Spec":
        """The value at ``key`` of this object, or ``default`` there."""
        return _Spec(self.value.get(key, default), key, self)

    def int(self, lo: int = None) -> int:
        value = self.value
        if type(value) is not int:
            raise self.refuse("an integer")
        if lo is not None and value < lo:
            raise self.refuse(_at_least(lo))
        return value

    def number(self, lo: float = None) -> float:
        value = self.value
        if type(value) is int:
            try:
                value = float(value)
            except OverflowError:
                raise self.refuse("a finite number") from None
        if type(value) is not float or not math.isfinite(value):
            raise self.refuse("a finite number")
        if lo is not None and value < lo:
            raise self.refuse(_at_least(lo))
        return value

    def choice(self, *options: str) -> str:
        if type(self.value) is not str or self.value not in options:
            raise self.refuse("one of " + ", ".join(map(repr, options)))
        return self.value

    def label(self):
        try:
            return label_from_json(self.value)
        except SpaceError:
            raise self.refuse("a label") from None

    def items(self, length: int = None, lo: int = 0, per: str = "") -> list:
        """This value's entries, each with its path: a list of ``length``
        entries when it is given, one ``per`` what another key holds, and of
        at least ``lo``."""
        value = self.value
        kind = "a list"
        if length is not None:
            kind = f"a list of length {length}" + (f", one per {per}" if per else "")
        if type(value) is not list or length is not None and len(value) != length:
            raise self.refuse(kind)
        if len(value) < lo:
            raise self.refuse("a non-empty list" if lo == 1 else f"a list of {lo} or more")
        return [_Spec(x, i, self) for i, x in enumerate(value)]

    def numbers(self, length: int = None, lo: int = 0, per: str = "") -> list:
        return [x.number() for x in self.items(length, lo, per)]

    def matrix(self, rows: int = None, cols: int = None, per: str = "") -> list:
        """A non-empty list of equally long, non-empty rows of finite
        numbers: ``rows`` x ``cols`` where they are given, each one ``per``
        what another key holds."""
        entries = self.items(rows, 1, per)
        if cols is None:
            cols, per = (len(entries[0].value) if type(entries[0].value) is list else None), ""
        return [row.numbers(cols, 1, per) for row in entries]

    def point(self, space: Space, kind: str):
        return self.decode(kind, point_from_json, space)

    def space(self) -> Space:
        """A space: a list of labels is shorthand for a finite space."""
        if type(self.value) is list:
            return self.finite()
        if self.value is _ABSENT:
            raise self.refuse("a space")
        return self.decode("a space", space_from_json)

    def finite(self) -> Space:
        """A finite space from a list of labels."""
        labels = [x.label() for x in self.items()]
        return self.decode("a list of distinct labels", lambda _: finite(*labels))

    def law(self, space: Space, kind: str):
        """A law over ``space``: ``"uniform"``, or a law's JSON object."""
        if self.value == "uniform":
            return uniform(space)
        return self.decode(kind, dist_from_json, space)


# ---------------------------------------------------------------------------
# run and flow specs

_RUN_KEYS = ("system", "section", "init", "horizon", "mode")


def run_from_json(spec: dict) -> tuple:
    """A run spec's ``(system, section, initial law, horizon, mode)``."""
    r = _Spec(spec, "").object(_RUN_KEYS)
    sys_ = system_from_json(r.field("system").value)
    return (
        sys_,
        _section(sys_.interface, r.field("section")),
        r.field("init", "uniform").law(sys_.states, "a law over the states of 'system'"),
        r.field("horizon", 8).int(0),
        r.field("mode", "exact").choice("exact", "sample"),
    )


def flow_from_json(spec) -> System:
    """The system a flow suite checks: a run spec's, or with no spec a
    six-state counter."""
    if spec is None:
        return system_from_json({"named": "counter", "n": 6})
    return system_from_json(_Spec(spec, "").object(_RUN_KEYS).field("system").value)


def interface_from_json(obj: dict) -> Polynomial:
    return _interface(_Spec(obj, "interface"))


def _interface(r: _Spec) -> Polynomial:
    r.object(("positions", "directions"))
    at = r.field("positions")
    positions = at.space()
    dirs = r.field("directions", {"constant": {"kind": "unit"}}).object(("constant", "fibres"))
    if dirs.has("constant"):
        return monomial(positions, dirs.field("constant").space())
    if dirs.has("fibres"):
        table = {}
        for row in dirs.field("fibres").items():
            pos, fibre = row.items(2)
            table[pos.point(positions, f"a point of {at.path!r}")] = fibre.space()
        return dirs.decode("a fibre for every position", lambda _: tabulated(positions, table))
    raise dirs.refuse("an object with a 'constant' or a 'fibres' key")


def _section(p: Polynomial, r: _Spec) -> Section:
    positions = r.decode("a section", lambda _: list(points(p.positions)))
    if r.value is _ABSENT:
        if all(cardinality(p.dirs_at(i)) == 1 for i in positions):
            return trivial_section(p)
        raise r.refuse("a section", "'system' has real inputs")
    r.object(("constant", "table"))
    if r.has("constant"):
        # a system's states output positions, so it has one
        sigma = constant_section(
            p, r.field("constant").point(p.dirs_at(positions[0]), "an input of 'system'")
        )
    elif r.has("table"):
        table = {}
        for row in r.field("table").items():
            pos, d = row.items(2)
            at = pos.point(p.positions, "a position of 'system'")
            table[at] = d.point(p.dirs_at(at), f"an input of 'system' at {at!r}")
        sigma = Section(p, table.__getitem__)
    else:
        raise r.refuse("an object with a 'constant' or a 'table' key")
    r.decode("a section", lambda _: check_section(p, sigma))
    return sigma


_TABLE_KEYS = ("interface", "states", "output", "update", "effect")


def system_from_json(obj: dict) -> System:
    """A named example system, or one given by explicit tables: an object
    with any of the table keys and no ``named``."""
    r = _Spec(obj, "system")
    if type(obj) is not dict or "named" in obj or not any(key in obj for key in _TABLE_KEYS):
        return _named_system(r)
    r.object(_TABLE_KEYS)
    iface, at = r.field("interface"), r.field("states")
    interface, states = _interface(iface), at.space()
    if not (is_finite(states) and cardinality(states)):
        raise at.refuse("a non-empty finite space")
    state, position = f"a point of {at.path!r}", f"a position of {iface.path!r}"
    outputs = r.field("output")
    out_table = {}
    for row in outputs.items():
        s, pos = row.items(2)
        out_table[s.point(states, state)] = pos.point(interface.positions, position)
    for s in points(states):
        if s not in out_table:
            raise outputs.refuse(
                f"a list with a row for each point of {at.path!r}", f"none for {s!r}"
            )
    updates = r.field("update")
    upd_table = {}
    for row in updates.items():
        s, d, law = row.items(3)
        sv = s.point(states, state)
        dv = d.point(interface.dirs_at(out_table[sv]), f"an input of {iface.path!r} at {sv!r}")
        upd_table[(sv, dv)] = law.law(states, f"a law over {at.path!r}")
    effect = r.field("effect", STOCHASTIC).choice(DETERMINISTIC, STOCHASTIC)

    def output(t, s):
        return out_table[s]

    def update(t, s, d):
        try:
            return upd_table[(s, d)]
        except KeyError:
            raise SpecError(f"update table has no row for state {s!r}, input {d!r}") from None

    return updates.decode(
        f"a list with a row for each point of {at.path!r} and input of {iface.path!r}",
        lambda _: mk_system(interface, states, output, update, effect=effect),
    )


# ---------------------------------------------------------------------------
# named examples


def _named_system(r: _Spec) -> System:
    if type(r.value) is not dict:
        raise r.refuse("an object")
    name = r.field("named").choice("counter", "markov")
    if name == "counter":
        n = r.object(("named", "n")).field("n", 8).int(1)
        space = finite(*range(n))
        return mk_system(
            monomial(space, unit()),
            space,
            lambda t, s: s,
            lambda t, s, d: dirac(space, (s + 1) % n),
            effect=DETERMINISTIC,
        )
    r.object(("named", "labels", "K"))
    matrix = r.field("K")
    if r.has("labels"):
        at = r.field("labels")
        space, per = at.finite(), f"label of {at.path!r}"
    else:
        space, per = finite(*range(len(matrix.items(lo=1)))), f"row of {matrix.path!r}"
    labels = space.labels
    laws = {}
    for lab, row in zip(labels, matrix.items(len(labels), 1, per)):
        weights = row.numbers(len(labels), per=per)
        laws[lab] = row.decode("a law", lambda _: categorical(space, list(zip(labels, weights))))
    return mk_system(
        monomial(space, unit()),
        space,
        lambda t, s: s,
        lambda t, s, d: laws[s],
        effect=STOCHASTIC,
    )


# ---------------------------------------------------------------------------
# laplace, demo, comonoid and bayes specs


def laplace_from_json(spec: dict) -> tuple:
    """Linear predictive hierarchy from a spec: ``(levels, prior, datum,
    config, steps)``.  The run lasts exactly ``steps`` steps, so no
    convergence key is read."""
    r = _Spec(spec, "").object(("levels", "prior", "data", "rate", "steps"))
    levels, gains = [], []  # each level's channel and the key of its matrix A
    for lvl in r.field("levels").items(lo=1):
        lvl.object(("mean", "cov"))
        mean = lvl.field("mean").object(("linear",)).field("linear").object(("A", "b"))
        a = mean.field("A")
        if levels:
            matrix = a.matrix(cols=levels[-1].out_dim, per=f"row of {gains[-1]!r}")
        else:
            matrix = a.matrix()
        out_dim, per = len(matrix), f"row of {a.path!r}"
        b, cov = mean.field("b", None), lvl.field("cov", None)
        b = None if b.value is None else b.numbers(out_dim, per=per)
        cov = None if cov.value is None else cov.matrix(out_dim, out_dim, per)
        levels.append(lvl.decode("a level", lambda _: linear_channel(matrix, b, cov)))
        gains.append(a.path)
    prior = r.field("prior").object(("mean", "cov"))
    n, per = levels[0].in_dim, f"column of {gains[0]!r}"
    mean, cov = prior.field("mean").numbers(n, per=per), prior.field("cov").matrix(n, n, per)
    pi0 = prior.decode("a belief", lambda _: mk_state(mean, cov))
    datum = r.field("data").numbers(levels[-1].out_dim, per=f"row of {gains[-1]!r}")
    cfg = LaplaceConfig(rate=r.field("rate", 0.05).number(0))
    return levels, pi0, datum, cfg, r.field("steps", 200).int(0)


def demo_from_json(spec: dict) -> tuple:
    """The stochastic-path demo's ``(theta, sigma, h, horizon, x0)``."""
    r = _Spec(spec, "").object(("theta", "sigma", "h", "horizon", "x0"))
    return (
        r.field("theta", 1.0).number(),
        r.field("sigma", 0.5).number(),
        r.field("h", 0.02).number(0),
        r.field("horizon", 1000).int(0),
        r.field("x0", 0.0).number(),
    )


def comonoid_from_json(spec: dict) -> tuple:
    """The comonoid suite's ``(space, horizon)``."""
    r = _Spec(spec, "").object(("space", "horizon"))
    return r.field("space", [0, 1, 2]).finite(), r.field("horizon", 8).int(0)


# the bayes suite's channel and prior when it is given no spec
_BAYES_EXAMPLE = {
    "labels_x": ["x1", "x2"],
    "labels_y": ["y1", "y2"],
    "prior": [["x1", 1 / 3], ["x2", 2 / 3]],
    "channel": [["x1", [["y1", 0.9], ["y2", 0.1]]], ["x2", [["y1", 0.3], ["y2", 0.7]]]],
}


def bayes_from_json(spec: dict) -> tuple:
    """The bayes suite's ``(xs, ys, prior, rows, perturb)``: a channel's
    source and target spaces, a prior over xs, the channel's law at each
    point of xs, and the weight added to the first atom of each inverse law
    before it is renormalized.  With no spec, the built-in two-by-two
    example."""
    r = _Spec(_BAYES_EXAMPLE if spec is None else spec, "")
    r.object(("labels_x", "labels_y", "prior", "channel", "perturb"))
    xs, ys = r.field("labels_x").finite(), r.field("labels_y").finite()
    prior = r.field("prior")
    weights = dict(_pairs(prior, xs, "a label of 'labels_x'"))
    pi = prior.decode("a law over 'labels_x'", lambda _: categorical(xs, weights))
    channel = r.field("channel")
    rows = {}
    for row in channel.items():
        x, law = row.items(2)
        weights = dict(_pairs(law, ys, "a label of 'labels_y'"))
        rows[x.point(xs, "a label of 'labels_x'")] = law.decode(
            "a law over 'labels_y'", lambda _: categorical(ys, weights)
        )
    for x in xs.labels:
        if x not in rows:
            raise channel.refuse(
                "a list with a row for each label of 'labels_x'", f"none for {x!r}"
            )
    return xs, ys, pi, rows, r.field("perturb", 0.0).number(0)


def _pairs(r: _Spec, space: Space, kind: str) -> list:
    """A list of ``[point, weight]`` pairs, each point ``kind``."""
    pairs = []
    for row in r.items():
        x, w = row.items(2)
        pairs.append((x.point(space, kind), w.number()))
    return pairs


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
