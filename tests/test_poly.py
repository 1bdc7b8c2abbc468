import collections
import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polydyn import (
    DETERMINISTIC,
    STOCHASTIC,
    PolyError,
    PolyMap,
    all_sections,
    categorical,
    check_section,
    compose_map,
    constant_section,
    det_polymap,
    dirac,
    dirac_point,
    finite,
    id_map,
    linear,
    maps_agree,
    monomial,
    points,
    polymap_key,
    prod,
    pull_section,
    tabulated,
    tensor,
    tensor_map,
    time_nat,
    time_real,
    trivial_section,
    uniform,
    unit,
    y,
)

P = tabulated(finite("i", "j"), {"i": finite(0), "j": finite(0, 1)})
Q = monomial(finite("u", "v"), finite(0, 1))
R = monomial(finite("w"), finite(0, 1))

PHI = det_polymap(P, Q, {"i": "u", "j": "v"}.__getitem__,
                  lambda i, d: 0 if i == "i" else d)
PSI = det_polymap(Q, R, lambda i: "w", lambda i, d: d if i == "u" else 1 - d)
CHI = det_polymap(R, R, lambda i: "w", lambda i, d: 1 - d)


def test_interface_shapes():
    assert y().positions == unit()
    assert y().dirs_at(()) == unit()
    A = finite("a", "b")
    assert linear(A).positions == A
    assert linear(A).dirs_at("a") == unit()
    assert monomial(A, finite(0, 1)).dirs_at("b") == finite(0, 1)
    assert P.dirs_at("i") == finite(0)
    assert P.dirs_at("j") == finite(0, 1)


def test_tensor_positions_and_fibres():
    A = finite(0, 1)
    pq = tensor(linear(A), Q)
    assert list(points(pq.positions)) == [(a, u) for a in (0, 1) for u in ("u", "v")]
    assert pq.dirs_at((0, "u")) == prod(unit(), finite(0, 1))


def test_identity_laws():
    assert maps_agree(compose_map(id_map(Q), PHI), PHI)
    assert maps_agree(compose_map(PHI, id_map(P)), PHI)


def test_composition_associativity():
    lhs = compose_map(compose_map(CHI, PSI), PHI)
    rhs = compose_map(CHI, compose_map(PSI, PHI))
    assert maps_agree(lhs, rhs)


def test_compose_shape_mismatch_raises():
    with pytest.raises(PolyError):
        compose_map(PHI, PSI)


def test_stochastic_backward_composition():
    noisy = PolyMap(
        Q,
        R,
        lambda i: "w",
        lambda i, d: uniform(finite(0, 1)),
        STOCHASTIC,
    )
    comp = compose_map(noisy, PHI)
    assert comp.effect == STOCHASTIC
    law = comp.backward("j", 0)
    # backward mixes the uniform middle choice through PHI's table
    assert law.space == finite(0, 1)
    total = dict((a, w) for a, w in law.items) if hasattr(law, "items") else None
    assert total == {0: 0.5, 1: 0.5}


def test_tensor_functoriality():
    f1, g1 = PHI, PSI
    f2, g2 = id_map(R), CHI
    lhs = tensor_map(compose_map(g1, f1), compose_map(g2, f2))
    rhs = compose_map(tensor_map(g1, g2), tensor_map(f1, f2))
    assert maps_agree(lhs, rhs)


def test_all_sections_counts():
    assert len(all_sections(P)) == 2
    assert len(all_sections(Q)) == 4
    assert len(all_sections(y())) == 1
    for sigma in all_sections(Q):
        check_section(Q, sigma)


def test_trivial_and_constant_sections():
    s = trivial_section(linear(finite("a", "b")))
    assert s.assign("a") == ()
    c = constant_section(Q, 1)
    assert c.assign("u") == 1 and c.assign("v") == 1


def test_pull_section_identity_and_composition():
    for tau in all_sections(R):
        back = pull_section(compose_map(PSI, PHI), tau)
        two_step = pull_section(PHI, pull_section(PSI, tau))
        for i in points(P.positions):
            assert back.assign(i) == two_step.assign(i)
    for tau in all_sections(Q):
        same = pull_section(id_map(Q), tau)
        for i in points(Q.positions):
            assert same.assign(i) == tau.assign(i)


def test_pull_section_needs_deterministic_lens():
    noisy = PolyMap(Q, R, lambda i: "w", lambda i, d: uniform(finite(0, 1)), STOCHASTIC)
    with pytest.raises(PolyError):
        pull_section(noisy, all_sections(R)[0])


def test_dirac_point():
    A = finite(0, 1)
    assert dirac_point(dirac(A, 1)) == 1
    assert dirac_point(categorical(A, [(0, 1.0)])) == 0
    with pytest.raises(Exception):
        dirac_point(uniform(A))


def test_polymap_key_ignores_unit_padding():
    A = finite("a", "b")
    f = id_map(linear(A))
    padded = tensor_map(f, id_map(y()))
    assert polymap_key(padded) == polymap_key(f)


def test_polymap_key_separates_different_lenses():
    A = finite("a", "b")
    f = id_map(linear(A))
    g = det_polymap(linear(A), linear(A), lambda x: "a", lambda i, d: d)
    assert polymap_key(f) != polymap_key(g)


def _right(parts, pair):
    return parts[0] if len(parts) == 1 else pair(parts[0], _right(parts[1:], pair))


def _left(parts, pair):
    return parts[0] if len(parts) == 1 else pair(_left(parts[:-1], pair), parts[-1])


def _padded(parts, pair):
    """A unit factor in front and after every part: ``()`` is the unit
    space's one point, and ``pair()`` of nothing is the unit space."""
    return pair(pair(), *(pair(x, pair()) for x in parts))


def _atoms(*parts):
    return tuple(parts)


@st.composite
def dyadic_lenses(draw):
    """A finite lens as data: per source position, its fibre's finite
    factors (one factor is a labelled fibre), its forward position, and per
    target direction a law with weights k/8 over tuples of factor labels, as
    items in a drawn order and the same items in another drawn order.  Labels
    are drawn in an order their reprs do not follow."""
    rows = []
    for _ in range(draw(st.integers(1, 3))):
        factors = [
            finite(*draw(st.permutations(("b", "c", "a")))[:draw(st.integers(1, 3))])
            for _ in range(draw(st.integers(1, 3)))
        ]
        atoms = list(itertools.product(*(f.labels for f in factors)))
        laws = []
        for _ in range(2):
            eighths = draw(st.lists(st.sampled_from(atoms), min_size=8, max_size=8))
            listed = [(a, c / 8) for a, c in collections.Counter(eighths).items()]
            laws.append((listed, draw(st.permutations(listed))))
        rows.append((factors, draw(st.sampled_from(("u", "v"))), laws))
    return rows


def _lens(rows, shape, order):
    """The lens of ``dyadic_lenses`` data with each source fibre nested by
    ``shape`` and each law's items listed in its ``order`` (0 or 1)."""
    fibres = {i: shape(factors, prod) for i, (factors, _, _) in enumerate(rows)}
    target = monomial(finite("u", "v"), finite("d0", "d1"))
    laws = {
        (i, d): categorical(fibres[i], [(shape(a, _atoms), w) for a, w in law[order]])
        for i, (_, _, by_dir) in enumerate(rows) for d, law in zip(("d0", "d1"), by_dir)
    }
    return PolyMap(tabulated(finite(*range(len(rows))), fibres), target,
                   lambda i: rows[i][1], lambda i, d: laws[(i, d)], STOCHASTIC)


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(rows=dyadic_lenses())
def test_polymap_key_ignores_listing_order_and_fibre_association(rows):
    """A key lists each law's items in its fibre's order, which normalizing
    keeps: listing the items in another order, re-associating the source
    fibres or padding them with unit factors leaves it unchanged."""
    key = polymap_key(_lens(rows, _right, 0))
    assert polymap_key(_lens(rows, _right, 1)) == key
    assert polymap_key(_lens(rows, _left, 0)) == key
    assert polymap_key(_lens(rows, _padded, 1)) == key


def test_time_monoids():
    nat = time_nat()
    assert nat.check(3) == 3
    real = time_real(0.25)
    assert real.check(4) == 4 and real.h == 0.25
    with pytest.raises(PolyError):
        nat.check(-1)
    with pytest.raises(PolyError):
        real.check(0.5)
    with pytest.raises(PolyError):
        time_real(0.0)
