"""Every record type of polydyn behaves as a ``dataclass(frozen=True)``
twin with the same fields: frozen, with the same ``repr``, ``==``, ``hash``
and constructor signature, ``dataclasses.replace`` working on it, and its
own docstring.  Records are declared through one helper, ``spaces.record``,
which compiles one snippet per type where dataclass compiles six; a fresh
import is held to that count."""

import dataclasses
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from polydyn import (
    STOCHASTIC,
    categorical,
    closed_from_kernel,
    closure,
    constant_section,
    dirac,
    dist_space,
    euclid,
    exact_bayes,
    finite,
    from_vector_field,
    gaussian,
    hom_sections,
    id_map,
    linear,
    mk_system,
    monomial,
    prod,
    tabulated,
    time_nat,
    to_ncoalg,
    trace,
    unit,
    uniform,
)
from polydyn import dist, hier, laplace, poly, random_bundle, spaces, systems
from polydyn.hier import as_hier, compose_hier, id_hier
from polydyn.specio import bundle_example, rotation_example, skew_random_example

ROOT = Path(__file__).resolve().parent.parent
MODULES = (spaces, dist, poly, systems, hier, laplace, random_bundle)
RECORDS = sorted(
    (cls for m in MODULES for cls in vars(m).values()
     if isinstance(cls, type) and cls.__module__ == m.__name__ and dataclasses.is_dataclass(cls)),
    key=lambda cls: (cls.__module__, cls.__name__),
)


def counter(states, effect=STOCHASTIC):
    """A two-state system on the monomial {a, b} y^{0, 1}: a fair coin, or
    a counter that adds its input."""
    p = monomial(finite("a", "b"), finite(0, 1))

    def update(t, s, d):
        if effect == STOCHASTIC:
            return categorical(states, {s: 0.5, 1 - s: 0.5})
        return dirac(states, (s + d) % 2)

    return mk_system(p, states, lambda t, s: "ab"[s], update, time_nat(), effect)


def samples() -> list:
    """At least two instances of every record type, some of them equal."""
    A = finite("a", "b")
    states = finite(0, 1)
    flat = counter(states)
    det = counter(states, "deterministic")
    p = flat.interface
    sigma = constant_section(p, 1)
    vf = from_vector_field(lambda x, d: (-x[0],), lambda x: "a", monomial(finite("a"), unit()),
                           0.1, euclid(1))
    pi = categorical(A, {"a": 0.25, "b": 0.75})
    rows = {"a": categorical(states, {0: 0.5, 1: 0.5}), "b": dirac(states, 1)}
    composite = compose_hier(as_hier(flat), id_hier(p))
    rot = rotation_example(4)
    channel = laplace.linear_channel(np.eye(2))
    return [
        unit(), spaces.UnitSpace(),
        finite("a", "b"), A, finite(0, 1),
        euclid(2), euclid(2), euclid(1),
        prod(A, euclid(1)), prod(A, euclid(1)), prod(A, A),
        dist_space(A), dist_space(finite("a", "b")),
        dist.Rng(1, (2,)), dist.Rng(1, (2,)), dist.Rng(1),
        dirac(A, "a"), dirac(finite("a", "b"), "a"), dirac(A, "b"),
        pi, categorical(A, {"a": 0.25, "b": 0.75}), uniform(A),
        gaussian(euclid(1), [0.0], [[1.0]]), gaussian(euclid(1), [0.0], [[1.0]]),
        gaussian(euclid(2), [0.0, 1.0], np.eye(2)),
        dist.GaussianKernel.of([[1.0]]), dist.GaussianKernel.of([[1.0]], cov=[[2.0]]),
        p.directions, monomial(A, states).directions, monomial(A, unit()).directions,
        tabulated(A, {"a": unit(), "b": states}).directions,
        tabulated(A, {"a": unit(), "b": finite(0, 1)}).directions,
        p, monomial(A, states), linear(A), tabulated(A, {"a": unit(), "b": states}),
        id_map(p), id_map(linear(A)), poly.PolyMap(p, p, abs, abs),
        sigma, constant_section(p, 0),
        time_nat(), time_nat(), poly.time_real(0.5),
        systems.DiscreteMap(), systems.DiscreteMap(),
        vf.flavor, systems.VectorField(abs), systems.VectorField(abs),
        flat, det, vf,
        closed_from_kernel(states, time_nat(), lambda t, s: dirac(states, s)), rot.flow,
        closure(flat, sigma), closure(det, sigma),
        closure(vf, constant_section(vf.interface, ())), closure(vf, constant_section(vf.interface, ())),
        to_ncoalg(det), to_ncoalg(det),
        as_hier(flat), composite, dataclasses.replace(composite),
        trace(flat, sigma, dirac(states, 0), 2), trace(flat, sigma, dirac(states, 0), 2),
        *hom_sections([as_hier(flat)])[:2],
        exact_bayes(rows.__getitem__, pi), exact_bayes(rows.__getitem__, pi),
        channel, laplace.linear_channel(np.eye(2)),
        laplace.LaplaceConfig(), laplace.LaplaceConfig(0.05), laplace.LaplaceConfig(0.1),
        rot.base, rotation_example(4).base, rot, rotation_example(4),
        random_bundle.MPMorphism(rot, rot, abs), random_bundle.MPMorphism(rot, rot, abs),
        skew_random_example(), skew_random_example(),
        bundle_example(), bundle_example(2, 2),
    ]


SAMPLES = samples()


def of_type(cls) -> list:
    return [x for x in SAMPLES if type(x) is cls]


def twin(cls):
    """A ``dataclass(frozen=True)`` with the fields of ``cls`` and its own
    ``__repr__``, when it defines one."""
    spec = [(f.name, f.type, dataclasses.field(
        default=f.default, init=f.init, repr=f.repr, compare=f.compare, kw_only=f.kw_only))
        for f in dataclasses.fields(cls)]
    own = cls.__dict__["__repr__"]
    namespace = {} if own is spaces._record_repr else {"__repr__": own}
    return dataclasses.make_dataclass(cls.__name__, spec, frozen=True, namespace=namespace)


def as_twin(x, twin_cls):
    copy = object.__new__(twin_cls)
    copy.__dict__.update(x.__dict__)
    return copy


def outcome(call):
    try:
        return "value", call()
    except Exception as exc:  # noqa: BLE001 -- the twin must fail the same way
        return "raises", type(exc), str(exc)


def test_the_samples_cover_every_record_type():
    assert len(RECORDS) == 34
    assert [cls.__name__ for cls in RECORDS if len(of_type(cls)) < 2] == []


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_a_record_is_frozen(cls):
    for x in of_type(cls):
        copy = as_twin(x, twin(cls))
        for name in [f.name for f in dataclasses.fields(cls)] + ["extra"]:
            for target in (x, copy):
                with pytest.raises(dataclasses.FrozenInstanceError,
                                   match=f"^cannot assign to field {name!r}$"):
                    setattr(target, name, 0)
                with pytest.raises(dataclasses.FrozenInstanceError,
                                   match=f"^cannot delete field {name!r}$"):
                    delattr(target, name)


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_a_record_is_its_frozen_dataclass_twin(cls):
    Twin = twin(cls)
    assert inspect.signature(cls) == inspect.signature(Twin)
    assert cls.__match_args__ == Twin.__match_args__
    xs = of_type(cls)
    xs += [dataclasses.replace(x) for x in xs]
    copies = [as_twin(x, Twin) for x in xs]
    for x, tx in zip(xs, copies):
        assert repr(x) == repr(tx)
        assert outcome(lambda: hash(x)) == outcome(lambda: hash(tx))
        compared = tuple(getattr(x, f.name) for f in dataclasses.fields(cls) if f.compare)
        assert outcome(lambda: hash(x)) == outcome(lambda: hash(compared))
        assert x.__eq__(object()) is NotImplemented
        other = unit() if cls is not spaces.UnitSpace else euclid(0)
        assert outcome(lambda: x == other) == outcome(lambda: tx == other) == ("value", False)
        for z, tz in zip(xs, copies):
            assert outcome(lambda: x == z) == outcome(lambda: tx == tz)
            assert outcome(lambda: x != z) == outcome(lambda: tx != tz)


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_a_records_dataclass_flags_are_its_twins(cls):
    """A record says it is frozen and compared by field, as its twin does."""
    ours, theirs = cls.__dataclass_params__, twin(cls).__dataclass_params__
    assert (ours.frozen, ours.eq) == (theirs.frozen, theirs.eq) == (True, True)


def test_no_record_is_subclassed_by_a_dataclass_that_is_not_frozen():
    """dataclass refuses such a subclass of a frozen class; every record
    subclass declared in polydyn is itself a frozen record."""
    subclasses = {sub for cls in RECORDS for sub in cls.__subclasses__()}
    assert subclasses and subclasses <= set(RECORDS)
    assert all(sub.__dataclass_params__.frozen for sub in subclasses)


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_replace_copies_a_record(cls):
    for x in of_type(cls):
        copy = dataclasses.replace(x)
        assert type(copy) is cls and copy is not x
        assert [getattr(copy, f.name) for f in dataclasses.fields(cls) if f.init] == \
               [getattr(x, f.name) for f in dataclasses.fields(cls) if f.init]


def test_replace_still_refuses_a_composites_factors():
    composite = next(x for x in of_type(hier.HierSystem) if x.factors is not None)
    assert dataclasses.replace(composite).factors is None
    with pytest.raises(ValueError, match="factors"):
        dataclasses.replace(composite, factors=composite.factors)


def test_replace_sets_a_field_and_checks_it_again():
    assert dataclasses.replace(finite("a"), labels=("b", "c")) == finite("b", "c")
    with pytest.raises(spaces.SpaceError):
        dataclasses.replace(finite("a"), labels=("b", "b"))
    assert dataclasses.replace(laplace.LaplaceConfig(), rate=0.5).rate == 0.5


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_every_record_has_its_own_docstring(cls):
    doc = cls.__dict__.get("__doc__")
    assert doc and not doc.startswith(f"{cls.__name__}(")


IMPORT_COMPILES = """
import sys
import numpy
compiled = []
sys.addaudithook(lambda event, args: compiled.append(args[1])
                 if event == "compile" and args[1] == "<string>" else None)
import polydyn.cli
import dataclasses
types = [cls for name, m in sys.modules.items() if name.startswith("polydyn.")
         for cls in vars(m).values()
         if isinstance(cls, type) and cls.__module__ == name and dataclasses.is_dataclass(cls)]
print(json.dumps([len(compiled), len(types)]))
"""


def test_importing_the_cli_compiles_one_snippet_per_record_type():
    out = subprocess.run(
        [sys.executable, "-c", "import json" + IMPORT_COMPILES],
        env={**os.environ, "PYTHONPATH": str(ROOT / "src"), "PYTHONDONTWRITEBYTECODE": "1"},
        capture_output=True, text=True, check=True,
    )
    compiled, types = json.loads(out.stdout)
    assert types == 34
    assert compiled <= types
