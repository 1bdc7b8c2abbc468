"""The spec format, both ways: every spec key that polydyn reads is read
here, and the JSON forms of spaces, points and laws are written here.

A spec is a JSON object.  Each subcommand and suite takes its typed inputs
from one function of this module: ``run_from_json``, ``flow_from_json``,
``laplace_from_json``, ``demo_from_json``, ``comonoid_from_json`` and
``bayes_from_json``.  A value is read through ``_Spec``, which holds it
with its key path and hands it out typed: an integer with a lower bound, a
finite number, a string among choices, a label, a list or an object, a
space, a point of a space or a law over one, each with an optional default.
One rule decides every number, label and coordinate: a JSON number that is
a finite float, never ``true`` or ``false`` and never ``NaN`` or
``Infinity``, which Python's ``json`` reads.  ``space_from_json``,
``point_from_json`` and ``dist_from_json`` enter the reader at a space's,
a point's and a law's JSON form, the forms that ``space_to_json``,
``point_to_json`` and ``dist_to_json`` write.

Every refusal is one ``SpecError``::

    spec key '<path>' must be <kind>, got <value>

where a nested path reads like ``system.K[1][0]`` or
``init.categorical.up``, a key that is left out is ``got nothing``, and a
constructor's reason follows after a colon.  A key that an object does not
hold is refused as ``must be absent``.

Beyond explicit tables a small registry of named example systems keeps spec
files short; anything larger is expected to be constructed in Python.
"""

from __future__ import annotations

import json
import math
from typing import Any

from .dist import (
    Categorical,
    Dirac,
    Dist,
    DistError,
    Gaussian,
    categorical,
    dirac,
    gaussian,
    uniform,
)
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
    EuclidSpace,
    FiniteSpace,
    ProdSpace,
    Space,
    SpaceError,
    UnitSpace,
    cardinality,
    contains,
    euclid,
    euclid_dims,
    finite,
    is_finite,
    points,
    prod,
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

# what a constructor raises for a value it refuses
_REFUSED = (SpaceError, DistError, PolyError, LaplaceError, OpenSystemError)

# a space's object: its kind and the keys that kind reads
_SPACE_KEYS = {"unit": (), "finite": ("labels",), "euclid": ("dim",), "prod": ("factors",)}


def _at_least(lo) -> str:
    return "non-negative" if lo == 0 else f"at least {lo}"


def _real(value):
    """``value`` as a float when it is a finite JSON number, else None: the
    one rule for every number, label and coordinate.  A boolean is not a
    number, and an integer past the largest float is not finite."""
    if type(value) is float:
        return value if math.isfinite(value) else None
    if type(value) is int:
        try:
            return float(value)
        except OverflowError:
            return None
    return None


def _is_label(value) -> bool:
    """A string or a finite number; a boolean is neither, since ``True == 1``
    would make it another label's point."""
    return type(value) is str or _real(value) is not None


def _atom(value):
    """A finite space's point as JSON holds it: a label, or a list of atoms
    read as a tuple label; None for anything else."""
    if type(value) is list:
        atom = tuple(map(_atom, value))
        return None if None in atom else atom
    return value if _is_label(value) else None


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

    def build(self, kind: str, make):
        """``make()``, whose refusal, a constructor's, is this key's."""
        try:
            return make()
        except _REFUSED as exc:
            raise self.refuse(kind, str(exc)) from None

    def object(self, keys: tuple, kind: str = "an object") -> "_Spec":
        """This value, an object holding only ``keys``; anything else is
        refused as ``kind``."""
        if type(self.value) is not dict:
            raise self.refuse(kind)
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
        value = _real(self.value)
        if value is None:
            raise self.refuse("a finite number")
        if lo is not None and value < lo:
            raise self.refuse(_at_least(lo))
        return value

    def choice(self, *options: str) -> str:
        if type(self.value) is not str or self.value not in options:
            raise self.refuse("one of " + ", ".join(map(repr, options)))
        return self.value

    def label(self):
        if not _is_label(self.value):
            raise self.refuse("a label")
        return self.value

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

    def space(self) -> Space:
        """A space: a list of labels is shorthand for a finite space, and
        anything else is read as a space's object."""
        if type(self.value) is list:
            return self.finite()
        return self.space_object()

    def space_object(self) -> Space:
        """``{"kind": "unit"}``, ``{"kind": "finite", "labels": labels}``,
        ``{"kind": "euclid", "dim": n}`` or ``{"kind": "prod", "factors":
        spaces}``, each factor a space's object."""
        if type(self.value) is not dict:
            raise self.refuse("a space")
        kind = self.field("kind").choice(*_SPACE_KEYS)
        self.object(("kind",) + _SPACE_KEYS[kind])
        if kind == "finite":
            return self.field("labels").finite()
        if kind == "euclid":
            return euclid(self.field("dim").int(0))
        if kind == "prod":
            return prod(*[f.space_object() for f in self.field("factors").items()])
        return unit()

    def directions(self) -> Space:
        """A direction space of an interface, read as ``space`` reads it: a
        finite one, since a system's update table lists each input."""
        space = self.space()
        if not is_finite(space):
            raise self.refuse("a finite space", "an update table lists each input")
        return space

    def finite(self) -> Space:
        """A finite space from a list of labels."""
        labels = [x.label() for x in self.items()]
        return self.build("a list of distinct labels", lambda: finite(*labels))

    def point(self, space: Space, kind: str = ""):
        """The point of ``space`` this value holds, ``kind`` (by default a
        point of the space): a label of a finite space, where a list reads
        as a tuple label; one entry per factor of a product; one number per
        coordinate of a Euclidean space; and ``[]``, the unit's point."""
        value = self.value
        if isinstance(space, FiniteSpace):
            atom = _atom(value)
            if atom is not None and contains(space, atom):
                return atom
        elif type(value) is list:
            if isinstance(space, ProdSpace) and len(value) == len(space.factors):
                return tuple(x.point(f) for x, f in zip(self.items(), space.factors))
            if isinstance(space, EuclidSpace) and len(value) == space.dim:
                return tuple(self.numbers())
            if isinstance(space, UnitSpace) and not value:
                return ()
        raise self.refuse(kind or f"a point of {space!r}")

    def law(self, space: Space, of: str):
        """A law over ``space``, which ``of`` names: ``"uniform"``, or a
        law's object."""
        if self.value == "uniform":
            return uniform(space)
        return self.law_object(space, of)

    def law_object(self, space: Space, of: str = "") -> Dist:
        """A law over ``space``, which ``of`` names (by default its repr):
        ``{"dirac": point}``, ``{"categorical": {atom key: weight}}`` over a
        finite space, keyed as ``dist_to_json`` keys an atom, or
        ``{"gaussian": {"mean": numbers, "cov": rows}}``, one number and one
        row per coordinate of a Euclidean-shaped space."""
        of = of or repr(space)
        kind = f"a law over {of}"
        self.object(("dirac", "categorical", "gaussian"), kind)
        if self.has("dirac"):
            return dirac(space, self.field("dirac").point(space, f"a point of {of}"))
        if self.has("categorical"):
            table = self.field("categorical")
            if type(table.value) is not dict:
                raise table.refuse("an object of weights")
            if not is_finite(space):
                raise self.refuse(kind, "a categorical law needs a finite space")
            pairs = []
            for key, w in table.value.items():
                entry = _Spec(w, key, table)
                pairs.append((entry.keyed_atom(space, of), entry.number()))
            return table.build(kind, lambda: categorical(space, pairs))
        if self.has("gaussian"):
            g = self.field("gaussian").object(("mean", "cov"))
            n, per = g.build(kind, lambda: euclid_dims(space)), f"coordinate of {of}"
            mean = g.field("mean").numbers(n, per=per)
            cov = [row.numbers(n, per=per) for row in g.field("cov").items(n, per=per)]
            return g.build(kind, lambda: gaussian(space, mean, cov))
        raise self.refuse("an object with a 'dirac', 'categorical' or 'gaussian' key")

    def keyed_atom(self, space: Space, of: str):
        """The atom this value's object key names, as ``dist_to_json`` keys
        it: a label of ``space`` as it is, else the JSON text of a point."""
        key = self.key
        if contains(space, key):
            return key
        try:
            value = json.loads(key)
        except json.JSONDecodeError:
            value = key
        return _Spec(value, key, self.parent).point(space, f"a point of {of}")


def space_from_json(obj) -> Space:
    """The space that ``obj``, a space's object, describes."""
    return _Spec(obj, "space").space_object()


def point_from_json(space: Space, obj):
    """The point of ``space`` that JSON ``obj`` holds."""
    return _Spec(obj, "point").point(space)


def dist_from_json(space: Space, obj) -> Dist:
    """The law over ``space`` that ``obj``, a law's object, describes."""
    return _Spec(obj, "law").law_object(space)


# ---------------------------------------------------------------------------
# the writers: the forms that the reader reads back


def space_to_json(space: Space) -> dict:
    if isinstance(space, UnitSpace):
        return {"kind": "unit"}
    if isinstance(space, FiniteSpace):
        for lab in space.labels:
            if not isinstance(lab, (str, int)):
                raise SpaceError(f"label {lab!r} is not JSON-serializable")
        return {"kind": "finite", "labels": list(space.labels)}
    if isinstance(space, EuclidSpace):
        return {"kind": "euclid", "dim": space.dim}
    if isinstance(space, ProdSpace):
        return {"kind": "prod", "factors": [space_to_json(f) for f in space.factors]}
    raise SpaceError(f"{space!r} has no JSON form")


def point_to_json(space: Space, value: Any):
    """A point's JSON: a list for a product, a Euclidean point and the unit's
    point, and a finite space's label as it is, a tuple label as a list."""
    if isinstance(space, ProdSpace):
        return [point_to_json(f, v) for f, v in zip(space.factors, value)]
    if isinstance(space, (UnitSpace, EuclidSpace)):
        return [float(c) for c in value]
    return _atom_to_json(value)


def dist_to_json(d: Dist) -> dict:
    """A law's JSON object.  A categorical law keys each atom by its label
    when it is a string, else by its point's JSON text, which is refused
    when the reader would take it for a label of the law's space."""
    if isinstance(d, Dirac):
        return {"dirac": point_to_json(d.space, d.point)}
    if isinstance(d, Categorical):
        table = {}
        for a, w in d.items:
            key = a if isinstance(a, str) else json.dumps(a)
            if key is not a and contains(d.space, key):
                raise DistError(
                    f"the atom {a!r} and the label {key!r} share the JSON key {key!r}"
                )
            table[key] = w
        return {"categorical": table}
    if isinstance(d, Gaussian):
        return {"gaussian": {"mean": list(d.mean), "cov": [list(r) for r in d.cov]}}
    raise DistError(f"not a distribution: {d!r}")


def _atom_to_json(atom):
    if isinstance(atom, tuple):
        return [_atom_to_json(a) for a in atom]
    return atom


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
        r.field("init", "uniform").law(sys_.states, "the states of 'system'"),
        r.field("horizon", 8).int(0),
        r.field("mode", "exact").choice("exact", "sample"),
    )


def flow_from_json(spec) -> System:
    """The system a flow suite checks: a run spec's, or with no spec a
    six-state counter."""
    if spec is None:
        return system_from_json({"named": "counter", "n": 6})
    return system_from_json(_Spec(spec, "").object(_RUN_KEYS).field("system").value)


def _interface(r: _Spec) -> Polynomial:
    r.object(("positions", "directions"))
    at = r.field("positions")
    positions = at.space()
    dirs = r.field("directions", {"constant": {"kind": "unit"}}).object(("constant", "fibres"))
    if dirs.has("constant"):
        return monomial(positions, dirs.field("constant").directions())
    if dirs.has("fibres"):
        table = {}
        for row in dirs.field("fibres").items():
            pos, fibre = row.items(2)
            table[pos.point(positions, f"a point of {at.path!r}")] = fibre.directions()
        return dirs.build("a fibre for every position", lambda: tabulated(positions, table))
    raise dirs.refuse("an object with a 'constant' or a 'fibres' key")


def _section(p: Polynomial, r: _Spec) -> Section:
    positions = r.build("a section", lambda: list(points(p.positions)))
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
    r.build("a section", lambda: check_section(p, sigma))
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
        upd_table[(sv, dv)] = law.law(states, repr(at.path))
    effect = r.field("effect", STOCHASTIC).choice(DETERMINISTIC, STOCHASTIC)

    def output(t, s):
        return out_table[s]

    def update(t, s, d):
        try:
            return upd_table[(s, d)]
        except KeyError:
            raise SpecError(f"update table has no row for state {s!r}, input {d!r}") from None

    return updates.build(
        f"a list with a row for each point of {at.path!r} and input of {iface.path!r}",
        lambda: mk_system(interface, states, output, update, effect=effect),
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
        laws[lab] = row.build("a law", lambda: categorical(space, list(zip(labels, weights))))
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
        levels.append(lvl.build("a level", lambda: linear_channel(matrix, b, cov)))
        gains.append(a.path)
    prior = r.field("prior").object(("mean", "cov"))
    n, per = levels[0].in_dim, f"column of {gains[0]!r}"
    mean, cov = prior.field("mean").numbers(n, per=per), prior.field("cov").matrix(n, n, per)
    pi0 = prior.build("a belief", lambda: mk_state(mean, cov))
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
    pi = prior.build("a law over 'labels_x'", lambda: categorical(xs, weights))
    channel = r.field("channel")
    rows = {}
    for row in channel.items():
        x, law = row.items(2)
        weights = dict(_pairs(law, ys, "a label of 'labels_y'"))
        rows[x.point(xs, "a label of 'labels_x'")] = law.build(
            "a law over 'labels_y'", lambda: categorical(ys, weights)
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
