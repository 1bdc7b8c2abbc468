"""Seeded generators shared across the suites.

Finite transition weights are drawn as multiples of 1/8, so every product and
sum the mixture algebra performs downstream is exactly representable in binary
floating point -- the law checks can then demand equality on the nose instead
of hiding behind a tolerance.
"""

import itertools

from polydyn import (
    DETERMINISTIC,
    STOCHASTIC,
    Rng,
    categorical,
    dirac,
    finite,
    mk_system,
    points,
    tabulated,
    time_nat,
)


def dyadic_dist(gen, space):
    """A random distribution over a finite space with weights k/8."""
    pts = list(points(space))
    counts = gen.multinomial(8, [1.0 / len(pts)] * len(pts))
    items = [(a, c / 8.0) for a, c in zip(pts, counts.tolist()) if c]
    if len(items) == 1:
        return dirac(space, items[0][0])
    return categorical(space, items)


def random_finite_system(rng: Rng, stochastic: bool = True, n_states: int = None,
                         interface=None):
    """A seeded discrete open system with at most 6 states, 3 positions and
    3 directions per position; ``n_states`` and ``interface`` fix those
    instead of drawing them."""
    gen = rng.generator()
    if n_states is None:
        n_states = int(gen.integers(2, 7))
    if interface is None:
        n_pos = int(gen.integers(1, 4))
        labels = [f"p{i}" for i in range(n_pos)]
        fibres = {p: finite(*range(int(gen.integers(1, 4)))) for p in labels}
        interface = tabulated(finite(*labels), fibres)
    states = finite(*range(n_states))
    pos_labels = list(points(interface.positions))
    out_table = {s: pos_labels[int(gen.integers(0, len(pos_labels)))] for s in range(n_states)}
    upd_table = {}
    for s in range(n_states):
        for d in points(interface.dirs_at(out_table[s])):
            if stochastic:
                upd_table[(s, d)] = dyadic_dist(gen, states)
            else:
                upd_table[(s, d)] = dirac(states, int(gen.integers(0, n_states)))
    return mk_system(
        interface,
        states,
        lambda t, s: out_table[s],
        lambda t, s, d: upd_table[(s, d)],
        time_nat(),
        STOCHASTIC if stochastic else DETERMINISTIC,
    )


def random_channel_prior(rng: Rng):
    """A seeded finite channel X -> Dist Y with a fully supported prior."""
    gen = rng.generator()
    nx = int(gen.integers(2, 4))
    ny = int(gen.integers(2, 4))
    X = finite(*[f"x{i}" for i in range(nx)])
    Y = finite(*[f"y{j}" for j in range(ny)])
    pi = categorical(X, list(zip(points(X), gen.dirichlet([1.5] * nx).tolist())))
    rows = {
        x: categorical(Y, list(zip(points(Y), gen.dirichlet([1.5] * ny).tolist())))
        for x in points(X)
    }
    return X, Y, pi, rows


def dyadic_channel_prior(rng: Rng, nx: int = 2, ny: int = 2):
    """A seeded finite channel X -> Dist Y, a candidate inversion Y -> Dist X
    and a prior on X, all with weights k/8."""
    gen = rng.generator()
    X = finite(*[f"x{i}" for i in range(nx)])
    Y = finite(*[f"y{j}" for j in range(ny)])
    pi = dyadic_dist(gen, X)
    rows = {x: dyadic_dist(gen, Y) for x in points(X)}
    back = {yv: dyadic_dist(gen, X) for yv in points(Y)}
    return X, Y, pi, rows, back


def enumerate_deterministic_systems(iface, states):
    """Every deterministic discrete system on a finite shape, as a list."""
    pos = list(points(iface.positions))
    state_list = list(points(states))
    systems = []
    for out_combo in itertools.product(pos, repeat=len(state_list)):
        out_table = dict(zip(state_list, out_combo))
        slots = [
            (s, d) for s in state_list for d in points(iface.dirs_at(out_table[s]))
        ]
        for nxt_combo in itertools.product(state_list, repeat=len(slots)):
            upd_table = {slot: z for slot, z in zip(slots, nxt_combo)}
            systems.append(
                mk_system(
                    iface,
                    states,
                    lambda t, s, _o=out_table: _o[s],
                    lambda t, s, d, _u=upd_table: dirac(states, _u[(s, d)]),
                    time_nat(),
                    DETERMINISTIC,
                )
            )
    return systems


def gaussian_bits(law):
    """A Gaussian law's space and the bit patterns of its numbers; unlike
    ``==`` it tells -0.0 from 0.0."""
    return (
        law.space,
        [m.hex() for m in law.mean],
        [[c.hex() for c in row] for row in law.cov],
    )


def calls_of(monkeypatch, owner, name: str) -> list:
    """The arguments of every call of ``owner.name`` from here on."""
    calls = []
    real = getattr(owner, name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, wrapper)
    return calls
