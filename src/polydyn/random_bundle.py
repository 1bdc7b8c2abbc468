"""Measure-preserving flows, random dynamical systems, and bundle systems.

A random dynamical system separates the noise from the dynamics: a
deterministic system on a total space sits over a measure-preserving base
flow, and the projection must intertwine the two for every section and time.
Base sample spaces are finite here so every law is checked by exhaustive
enumeration; the Ornstein-Uhlenbeck demo is the one deliberate exception
(an Euler-Maruyama path with no law claim, plus an exact transition kernel
for the closed flow law).

Constructors in this module re-validate their defining commuting square and
refuse to return an unverified object.

A bundle's closures, total and base, are tabulated (``systems.closure`` on up
to 512 states), so ``check_bundle`` and the base-morphism squares of
``rebase_bundle`` read every case from rows of the tick matrices' powers: row
x of P_total^t summed into the base states through the projection, against
row proj(x) of P_base^t.  A row with one atom, on either side, is read as a
point mass (weight 1.0), as ``dist`` makes every law on one atom.
``check_bundle`` squares each total closure with every base closure, so it
maps the total states through the projection once, pushes each (total
closure, t) block of rows once and reads each (base closure, t) block once.
The random-system and measure-preserving squares compare against base flows
made by ``closed_from_kernel``, which have no tick matrix, and step them
state by state.
"""

from __future__ import annotations

import math
from typing import Callable

from .dist import (
    Dist,
    GaussianKernel,
    Rng,
    bind,
    dist_distance,
    pushforward,
)
from .poly import DETERMINISTIC, Polynomial, all_sections, time_real
from .spaces import Space, check_count, euclid, is_finite, points, record
from .systems import (
    ClosedSystem,
    System,
    _image,
    _report,
    _square_cases,
    closed_from_kernel,
    closure,
    is_system_morphism,
    mk_system,
    reindex,
)


class RandomSystemError(ValueError):
    """A defining square failed to commute, or shapes don't line up."""


# every law below quantifies over these times and over all sections
_TIMES = (1, 2, 3)


def _require(report: dict, failure: str) -> None:
    """Refuse to go on when a law check failed, naming the failure."""
    if not report["pass"]:
        raise RandomSystemError(f"{failure}: {report}")


@record
class ProbabilitySpace:
    """A finite carrier with a law over it."""

    space: Space  # finite
    measure: Dist  # over space


def mk_probability_space(space: Space, measure: Dist) -> ProbabilitySpace:
    if not is_finite(space):
        raise RandomSystemError("probability spaces here have finite carriers")
    if measure.space != space:
        raise RandomSystemError("measure is not a distribution over the carrier")
    return ProbabilitySpace(space, measure)


@record
class MeasurePreservingSystem:
    """A deterministic closed flow on a probability space's carrier whose
    pushforward keeps its measure."""

    base: ProbabilitySpace
    flow: ClosedSystem  # deterministic closed system on base.space


def check_measure_preserving(mp: MeasurePreservingSystem, generators) -> dict:
    """Exact pushforward-invariance of the measure at each generator time."""
    generators = list(generators)

    def cases():
        devs = [
            dist_distance(bind(mp.base.measure, lambda w: mp.flow.step(t, w)), mp.base.measure)
            for t in generators
        ]
        yield (lambda i: {"kind": "measure", "t": generators[i]}), None, devs

    return _report("measure-preserving", cases(), 0.0, {"generators": generators})


def mk_measure_preserving(base: ProbabilitySpace, flow: ClosedSystem) -> MeasurePreservingSystem:
    mp = MeasurePreservingSystem(base, flow)
    _require(check_measure_preserving(mp, _TIMES), "flow does not preserve the measure")
    return mp


@record
class MPMorphism:
    """A map of measure-preserving systems: preserves both flow and measure.
    Verify with ``check_mp_morphism`` before using it to rebase anything."""

    source: MeasurePreservingSystem
    target: MeasurePreservingSystem
    map: Callable


def check_mp_morphism(psi: MPMorphism) -> dict:
    source, target = psi.source, psi.target

    def cases():
        pushed = pushforward(psi.map, source.base.measure, target=target.base.space)
        yield {"kind": "measure"}, None, [dist_distance(pushed, target.base.measure)]
        yield from _square_cases(
            source.flow, [target.flow], psi.map, _TIMES, list(points(source.base.space)),
            kind="flow",
        )

    return _report("mp-morphism", cases(), 0.0)


# ---------------------------------------------------------------------------
# open random dynamical systems


@record
class RandomSystem:
    """Deterministic open system on a total space over a measure-preserving
    base: the projection intertwines every closure with the base flow."""

    base: MeasurePreservingSystem
    total_states: Space
    proj: Callable  # total state -> base state
    interface: Polynomial
    output: Callable  # (t, s) -> position
    update: Callable  # (t, s, d) -> Dist (Dirac) over total states


def as_system(rds: RandomSystem) -> System:
    return mk_system(
        rds.interface,
        rds.total_states,
        rds.output,
        rds.update,
        rds.base.flow.time,
        DETERMINISTIC,
    )


def check_random_system(rds: RandomSystem) -> dict:
    """Exact commutation of projection with every sectioned closure."""
    sys_ = as_system(rds)
    states = list(points(rds.total_states))

    def cases():
        for k, sigma in enumerate(all_sections(rds.interface)):
            yield from _square_cases(
                closure(sys_, sigma), [rds.base.flow], rds.proj, _TIMES, states, section=k
            )

    return _report("random-system", cases(), 0.0)


def mk_random_system(
    base: MeasurePreservingSystem,
    total_states: Space,
    proj: Callable,
    interface: Polynomial,
    output: Callable,
    update: Callable,
) -> RandomSystem:
    rds = RandomSystem(base, total_states, proj, interface, output, update)
    _require(check_random_system(rds), "projection square does not commute")
    return rds


def reindex_rds(phi, rds: RandomSystem) -> RandomSystem:
    """Transport the total system along a lens; the base is untouched and the
    square is re-verified on the new interface."""
    moved = reindex(phi, as_system(rds))
    return mk_random_system(
        rds.base,
        rds.total_states,
        rds.proj,
        moved.interface,
        moved.output,
        moved.update,
    )


def rebase_rds(psi: MPMorphism, rds: RandomSystem) -> RandomSystem:
    """Change the base by post-composing the projection with a verified map of
    measure-preserving systems."""
    if psi.source != rds.base:
        raise RandomSystemError("morphism does not start at the system's base")
    _require(check_mp_morphism(psi), "base morphism fails its laws")

    def proj(s):
        return psi.map(rds.proj(s))

    return mk_random_system(
        psi.target,
        rds.total_states,
        proj,
        rds.interface,
        rds.output,
        rds.update,
    )


# ---------------------------------------------------------------------------
# open bundle systems


@record
class BundleSystem:
    """An open system on a total space lying over an open system on a base
    space, with the projection commuting for every pair of sections."""

    base_sys: System
    total_sys: System
    proj: Callable  # total state -> base state


def check_bundle(bs: BundleSystem) -> dict:
    bases = [closure(bs.base_sys, varsigma) for varsigma in all_sections(bs.base_sys.interface)]
    states = list(points(bs.total_sys.states))
    targets: dict = {}

    def cases():
        image = None
        for kp, sigma in enumerate(all_sections(bs.total_sys.interface)):
            ct = closure(bs.total_sys, sigma)
            if image is None and bases:
                image = _image(ct, bases[0], bs.proj)
            yield from _square_cases(
                ct, bases, bs.proj, _TIMES, states, by="section_b", image=image,
                targets=targets, section_p=kp,
            )

    return _report("bundle", cases(), 0.0)


def mk_bundle(base_sys: System, total_sys: System, proj: Callable) -> BundleSystem:
    bs = BundleSystem(base_sys, total_sys, proj)
    _require(check_bundle(bs), "bundle square does not commute")
    return bs


def reindex_bundle(phi, bs: BundleSystem) -> BundleSystem:
    """Move the total interface along a lens, keeping base and projection."""
    return mk_bundle(bs.base_sys, reindex(phi, bs.total_sys), bs.proj)


def rebase_bundle(f: Callable, new_base: System, bs: BundleSystem) -> BundleSystem:
    """Change the base system by post-composition with a verified morphism of
    open systems on the base interface."""
    _require(
        is_system_morphism(f, bs.base_sys, new_base, all_sections(bs.base_sys.interface), _TIMES),
        "base-system morphism fails its squares",
    )

    def proj(s):
        return f(bs.proj(s))

    return mk_bundle(new_base, bs.total_sys, proj)


# ---------------------------------------------------------------------------
# Ornstein-Uhlenbeck


def ou_demo(
    theta_rate: float,
    sigma: float,
    h: float,
    horizon: int,
    seed: int,
    x0: float = 0.0,
) -> str:
    """Euler-Maruyama path of dX = -theta X dt + sigma dW as CSV text.

    Demo only: a discretized path over an implicit Wiener base; no flow law is
    claimed for it (the exact closed kernel below is the checkable object).
    ``horizon`` is a count (``spaces.check_count``).
    """
    horizon = check_count(horizon, "horizon", RandomSystemError)
    gen = Rng(seed).generator()
    noise = gen.standard_normal(horizon)
    rows = ["t,x"]
    x = float(x0)
    rows.append(f"0,{x!r}")
    root_h = math.sqrt(h)
    for n in range(horizon):
        x = x - theta_rate * x * h + sigma * root_h * float(noise[n])
        rows.append(f"{n + 1},{x!r}")
    return "\n".join(rows) + "\n"


def ou_transition_kernel(
    theta_rate: float, sigma: float, h: float, t: int
) -> GaussianKernel:
    """The t-tick Ornstein-Uhlenbeck transition as an affine-Gaussian kernel,
    so the flow law can be checked through Kleisli composition of kernels
    (Gaussian laws cannot be averaged through an opaque state function)."""
    dt = t * h
    decay = math.exp(-theta_rate * dt)
    var = sigma**2 * (1.0 - math.exp(-2.0 * theta_rate * dt)) / (2.0 * theta_rate)
    return GaussianKernel.of([[decay]], [0.0], [[var]])


def ou_exact_closed(theta_rate: float, sigma: float, h: float) -> ClosedSystem:
    """The exact Ornstein-Uhlenbeck transition kernel as a closed system:
    one tick of size h sends x to N(e^{-theta h} x, sigma^2 (1 - e^{-2 theta h})
    / (2 theta)).  Because the kernel is exact, the flow law holds on the nose
    (up to float rounding), which no SDE discretization achieves.  Verify it
    against ``ou_transition_kernel`` composition rather than
    ``check_closed_flow``: the latter needs finite-support laws to average."""

    def kernel(t: int, x):
        return ou_transition_kernel(theta_rate, sigma, h, t)(x)

    return closed_from_kernel(euclid(1), time_real(h), kernel)
