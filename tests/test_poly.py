import pytest

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
