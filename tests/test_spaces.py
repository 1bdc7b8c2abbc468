import math
import re

import numpy as np
import pytest

from polydyn import (
    SpaceError,
    cardinality,
    check_point,
    contains,
    dist_space,
    euclid,
    euclid_dims,
    expand_point,
    finite,
    flatten_floats,
    is_finite,
    normalize_point,
    point_from_json,
    point_to_json,
    points,
    prod,
    space_from_json,
    space_to_json,
    unflatten_floats,
    unit,
)
from polydyn.spaces import check_count, integer
from polydyn.specio import SpecError, system_from_json


def test_membership_basics():
    assert contains(unit(), ())
    assert not contains(unit(), 0)
    A = finite("a", "b", "c")
    assert contains(A, "b")
    assert not contains(A, "z")
    E = euclid(2)
    assert contains(E, (0.0, -1.5))
    assert not contains(E, (0.0,))
    P = prod(A, E)
    assert contains(P, ("a", (1.0, 2.0)))
    assert not contains(P, ("a",))


def test_check_point_raises():
    with pytest.raises(SpaceError):
        check_point(finite(0, 1), 7)
    assert check_point(finite(0, 1), 1) == 1


def test_cardinality_and_points():
    A = finite(0, 1, 2)
    B = finite("x", "y")
    assert cardinality(A) == 3
    assert cardinality(prod(A, B)) == 6
    assert list(points(B)) == ["x", "y"]
    assert len(list(points(prod(A, B)))) == 6
    assert is_finite(prod(A, unit()))
    assert not is_finite(euclid(1))


def test_normalize_drops_unit_factors():
    A = finite(0, 1)
    assert normalize_point(prod(A, unit()), (1, ())) == (1,)
    assert normalize_point(prod(unit(), A), ((), 0)) == (0,)
    assert normalize_point(prod(unit(), prod(A, unit())), ((), (1, ()))) == (1,)


def test_normalize_flattens_nesting():
    A = finite(0, 1)
    B = finite("u", "v")
    left = prod(prod(A, B), A)
    right = prod(A, prod(B, A))
    assert normalize_point(left, ((0, "v"), 1)) == normalize_point(right, (0, ("v", 1)))


def test_expand_point_inverts_normalize():
    A = finite(0, 1)
    shapes = [
        prod(A, unit()),
        prod(unit(), prod(A, A)),
        prod(prod(A, unit()), prod(unit(), A)),
    ]
    for sp in shapes:
        for x in points(sp):
            n = normalize_point(sp, x)
            assert expand_point(sp, n) == x


def test_expand_point_refuses_a_malformed_normal_form():
    """A normal form is the tuple of a point's slots: a value with too few or
    too many slots, or one that is not a tuple, is refused."""
    A = finite(0, 1)
    for value in ((0,), (0, 1, 0), 5):
        with pytest.raises(SpaceError, match="is not a normal form of a point of"):
            expand_point(prod(A, A), value)


def test_flatten_unflatten_roundtrip():
    sp = prod(euclid(2), prod(unit(), euclid(1)))
    assert euclid_dims(sp) == 3
    x = ((1.0, -2.0), ((), (3.5,)))
    flat = flatten_floats(sp, x)
    assert flat == [1.0, -2.0, 3.5]
    assert unflatten_floats(sp, flat) == x


def test_space_json_roundtrip():
    shapes = [
        unit(),
        finite("a", "b"),
        euclid(3),
        prod(finite(0, 1), euclid(1)),
    ]
    for sp in shapes:
        assert space_from_json(space_to_json(sp)) == sp
    with pytest.raises(SpaceError):
        space_to_json(dist_space(finite("x", "y")))


def test_finite_labels_must_be_distinct():
    with pytest.raises(SpaceError):
        finite("a", "a")


def test_finite_labels_must_be_hashable():
    """A JSON list is not a label: it is refused by name, not with a bare
    ``TypeError``."""
    with pytest.raises(SpaceError, match=r"finite space label \[1, 0\] is not hashable"):
        finite((0, 1), [1, 0])


def test_one_tuple_is_one_label():
    """Each argument of ``finite`` is a label, a lone tuple too: it is not
    unwrapped into the labels it holds."""
    assert finite((0, 1)).labels == ((0, 1),)
    assert finite((0, 1), (1, 0)).labels == ((0, 1), (1, 0))


def test_a_spec_label_that_is_a_list_is_refused():
    """A spec's list of labels holding one list is refused as it is with
    two, not read as the labels of that list."""
    message = r"^spec key 'system\.interface\.positions\[0\]' must be a label, got \[0, 1\]$"
    with pytest.raises(SpecError, match=message):
        system_from_json({"interface": {"positions": [[0, 1]]}})
    with pytest.raises(SpecError, match=message):
        system_from_json({"interface": {"positions": [[0, 1], [1, 0]]}})


def test_point_json_roundtrip():
    sp = prod(finite("a", "b"), euclid(2))
    x = ("b", (0.5, -0.25))
    assert point_from_json(sp, point_to_json(sp, x)) == x


def test_a_count_is_a_non_negative_integer_and_not_a_bool():
    """The one rule for counts of ticks, steps and dimensions: an int and a
    numpy integer are integers, read as a Python int; a bool, which Python
    counts as an integer, a whole float and a string are not.  A count is a
    non-negative integer, and every refusal names the value it was given."""
    for value in (0, 3, -2, np.int64(3), np.uint8(3), np.intp(-2)):
        assert integer(value) == value and type(integer(value)) is int
    for value in (True, False, np.bool_(True), 2.0, 2.5, np.float64(2.0), "3", None):
        assert integer(value) is None
    assert check_count(np.int64(4), "steps", SpaceError) == 4
    assert type(check_count(np.int64(4), "steps", SpaceError)) is int
    for value, message in ((True, "steps must be an integer, got True"),
                           (2.0, "steps must be an integer, got 2.0"),
                           (-1, "steps must be non-negative, got -1"),
                           (np.int64(-1), "steps must be non-negative, got -1")):
        with pytest.raises(SpaceError, match=f"^{re.escape(message)}$"):
            check_count(value, "steps", SpaceError)


@pytest.mark.parametrize("dim, message", [
    (2.5, "euclid dimension must be an integer, got 2.5"),
    (True, "euclid dimension must be an integer, got True"),
    (-1, "euclid dimension must be non-negative, got -1"),
])
def test_a_euclid_dimension_is_a_count(dim, message):
    """euclid(2.5) built a space whose ``euclid_dims`` was 2.5, and
    euclid(True) one of dimension True: each is refused by name.  A numpy
    integer is a dimension like any other, kept as its int."""
    with pytest.raises(SpaceError, match=f"^{re.escape(message)}$"):
        euclid(dim)
    assert euclid(np.int64(2)) == euclid(2)
    assert type(euclid(np.int64(2)).dim) is int


def test_euclid_point_shape():
    E = euclid(1)
    assert contains(E, (math.pi,))
    assert unflatten_floats(E, [2.0]) == (2.0,)


@pytest.mark.parametrize(
    "obj, message",
    [
        (None, "spec key 'space' must be a space, got None"),
        ({"kind": "finite", "labels": "ab"}, "spec key 'space.labels' must be a list, got 'ab'"),
        ({"kind": "finite", "labels": [0, True]},
         "spec key 'space.labels[1]' must be a label, got True"),
        ({"kind": "euclid", "dim": 1.5}, "spec key 'space.dim' must be an integer, got 1.5"),
        ({"kind": "prod", "factors": {}}, "spec key 'space.factors' must be a list, got {}"),
        ({"kind": "torus"},
         "spec key 'space.kind' must be one of 'unit', 'finite', 'euclid', 'prod', got 'torus'"),
        ([0, 1], "spec key 'space' must be a space, got [0, 1]"),
        ({"kind": "unit", "dim": 2},
         "spec key 'space.dim' must be absent, got 2: the keys read here are 'kind'"),
    ],
    ids=[
        "None-not a space description: None",
        "obj1-a finite space's labels must be a list, got 'ab'",
        "obj2-True is not a label: a label is a JSON string or number",
        "obj3-a euclid space's dim must be an integer, got 1.5",
        "obj4-a product space's factors must be a list, got {}",
        "obj5-unknown space kind: 'torus'",
        "list-shorthand",
        "unread-key",
    ],
)
def test_a_space_json_of_another_shape_is_refused(obj, message):
    """Each was a TypeError, an AttributeError or a silent truncation; the
    spec reader refuses it by its key.  ``space_from_json`` reads a space's
    object, not a spec's list shorthand, and no key its kind does not read."""
    with pytest.raises(SpecError, match=f"^{re.escape(message)}$"):
        space_from_json(obj)


@pytest.mark.parametrize(
    "space, obj, message",
    [
        (finite(0, 1), True, "spec key 'point' must be a point of finite[0, 1], got True"),
        (finite((0, 1)), [0, True],
         "spec key 'point' must be a point of finite[(0, 1)], got [0, True]"),
        (euclid(2), [1.0], "spec key 'point' must be a point of euclid(2), got [1.0]"),
        (euclid(1), ["1.0"], "spec key 'point[0]' must be a finite number, got '1.0'"),
        (euclid(1), [10**400], f"spec key 'point[0]' must be a finite number, got {10**400}"),
        (prod(finite(0, 1), euclid(1)), [0],
         "spec key 'point' must be a point of prod[finite[0, 1], euclid(1)], got [0]"),
        (unit(), "x", "spec key 'point' must be a point of unit(), got 'x'"),
        (finite(0, 1), math.nan, "spec key 'point' must be a point of finite[0, 1], got nan"),
        (finite((0, 1)), [0, math.inf],
         "spec key 'point' must be a point of finite[(0, 1)], got [0, inf]"),
        (euclid(2), [0.0, -math.inf], "spec key 'point[1]' must be a finite number, got -inf"),
        (prod(finite(0, 1), euclid(1)), [0, [math.nan]],
         "spec key 'point[1][0]' must be a finite number, got nan"),
    ],
    ids=["space0-True", "space1-obj1", "space2-obj2", "space3-obj3", "space4-obj4",
         "space5-obj5", "space6-x", "nan-label", "infinite-tuple-label",
         "infinite-coordinate", "nan-factor-coordinate"],
)
def test_a_point_json_of_another_shape_is_refused(space, obj, message):
    """True was the point 1 of a finite space, a short or long product was
    cut to its factors, a string coordinate was read as its number and a
    NaN or Infinity coordinate, which Python's ``json`` reads, was kept.
    One finiteness rule refuses them in a label and a coordinate as in a
    number."""
    with pytest.raises(SpecError, match=f"^{re.escape(message)}$"):
        point_from_json(space, obj)
