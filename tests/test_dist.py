import collections
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polydyn import (
    Categorical,
    Dirac,
    DistError,
    SpaceError,
    Gaussian,
    GaussianKernel,
    Rng,
    bind,
    categorical,
    dirac,
    dist_distance,
    dist_from_json,
    dist_to_json,
    dst,
    euclid,
    finite,
    finite_items,
    gaussian,
    kleisli_compose,
    mk_state,
    points,
    prob,
    prod,
    pushforward,
    sample,
    uniform,
)
from polydyn import dist
from polydyn.dist import _as_gaussian
from polydyn.spaces import check_point, euclid_dims
from polydyn.specio import SpecError

from helpers import gaussian_bits

SPACE = finite(0, 1, 2, 3)


def _dyadic(picks):
    counts = {}
    for a in picks:
        counts[a] = counts.get(a, 0) + 1
    items = sorted((a, c / 8.0) for a, c in counts.items())
    if len(items) == 1:
        return dirac(SPACE, items[0][0])
    return categorical(SPACE, items)


# weights are multiples of 1/8, so products and sums below are exact
dyadic_dists = st.lists(st.integers(0, 3), min_size=8, max_size=8).map(_dyadic)
dyadic_kernels = st.tuples(*([dyadic_dists] * 4)).map(lambda ds: lambda x: ds[x])


def test_categorical_validation():
    with pytest.raises(DistError):
        categorical(SPACE, [(0, 0.5), (1, 0.4)])
    with pytest.raises(DistError):
        categorical(SPACE, [(0, 1.5), (1, -0.5)])
    with pytest.raises(SpaceError):
        categorical(SPACE, [(7, 1.0)])


def test_prob_and_items():
    d = categorical(SPACE, [(0, 0.25), (2, 0.75)])
    assert prob(d, 0) == 0.25
    assert prob(d, 1) == 0.0
    assert dict(finite_items(d)) == {0: 0.25, 2: 0.75}
    assert prob(dirac(SPACE, 3), 3) == 1.0


def test_uniform():
    d = uniform(finite("a", "b", "c", "d"))
    assert prob(d, "a") == 0.25


@given(x=st.integers(0, 3), k=dyadic_kernels)
def test_bind_left_identity(x, k):
    assert dist_distance(bind(dirac(SPACE, x), k), k(x)) == 0.0


@given(d=dyadic_dists)
def test_bind_right_identity(d):
    assert dist_distance(bind(d, lambda x: dirac(SPACE, x)), d) == 0.0


@settings(max_examples=60)
@given(d=dyadic_dists, k=dyadic_kernels, l=dyadic_kernels)
def test_bind_associativity_exact(d, k, l):
    lhs = bind(bind(d, k), l)
    rhs = bind(d, lambda x: bind(k(x), l))
    assert dist_distance(lhs, rhs) == 0.0


def _from_counts(counts):
    total = sum(counts)
    return categorical(SPACE, [(a, c / total) for a, c in enumerate(counts) if c])


# weights are count/total with totals like 3, 7 or 11, so sums and products
# round; the laws then hold to a few ulps, checked against LAW_TOL
LAW_TOL = 1e-14
rounded_dists = (
    st.lists(st.integers(0, 9), min_size=4, max_size=4)
    .filter(lambda counts: sum(counts) > 0)
    .map(_from_counts)
)
rounded_kernels = st.tuples(*([rounded_dists] * 4)).map(lambda ds: lambda x: ds[x])


def _unit(x):
    return dirac(SPACE, x)


@given(x=st.integers(0, 3), d=rounded_dists, k=rounded_kernels)
def test_bind_unit_laws_with_rounded_weights(x, d, k):
    assert dist_distance(bind(_unit(x), k), k(x)) <= LAW_TOL
    assert dist_distance(bind(d, _unit), d) <= LAW_TOL


@settings(max_examples=60)
@given(d=rounded_dists, k=rounded_kernels, l=rounded_kernels)
def test_bind_associativity_with_rounded_weights(d, k, l):
    lhs = bind(bind(d, k), l)
    rhs = bind(d, lambda x: bind(k(x), l))
    assert dist_distance(lhs, rhs) <= LAW_TOL


@settings(max_examples=60)
@given(d=rounded_dists, k=rounded_kernels, l=rounded_kernels, m=rounded_kernels)
def test_kleisli_laws_with_rounded_weights(d, k, l, m):
    assert dist_distance(bind(d, kleisli_compose(l, k)), bind(bind(d, k), l)) <= LAW_TOL
    left = kleisli_compose(m, kleisli_compose(l, k))
    right = kleisli_compose(kleisli_compose(m, l), k)
    for x in range(4):
        assert dist_distance(kleisli_compose(k, _unit)(x), k(x)) <= LAW_TOL
        assert dist_distance(kleisli_compose(_unit, k)(x), k(x)) <= LAW_TOL
        assert dist_distance(left(x), right(x)) <= LAW_TOL


def test_long_bind_chain_stays_within_the_weight_check():
    counts = [[1, 2, 3, 4], [3, 1, 1, 2], [1, 1, 1, 0], [2, 5, 0, 4]]
    rows = [_from_counts(c) for c in counts]
    matrix = np.array([[c / sum(row) for c in row] for row in counts])
    law = _unit(0)
    for _ in range(1000):
        # every bind re-validates its result against categorical's 1e-12 sum check
        law = bind(law, rows.__getitem__)
    assert abs(math.fsum(w for _, w in finite_items(law)) - 1.0) <= 1e-12
    want = np.linalg.matrix_power(matrix, 1000)[0]
    assert max(abs(prob(law, a) - want[a]) for a in range(4)) <= 1e-12


def test_bind_constant_kernel_returns_the_common_law():
    law = categorical(SPACE, [(0, 0.5), (1, 0.5)])
    out = bind(uniform(SPACE), lambda _x: law)
    assert out is law


def test_dst_finite_products():
    A = finite("a", "b")
    d1 = categorical(A, [("a", 0.25), ("b", 0.75)])
    d2 = categorical(SPACE, [(0, 0.5), (1, 0.5)])
    j = dst(d1, d2)
    assert j.space == prod(A, SPACE)
    assert prob(j, ("a", 0)) == 0.125
    assert prob(j, ("b", 1)) == 0.375


def test_dst_gaussian_blocks():
    g1 = gaussian(euclid(1), [1.0], [[2.0]])
    g2 = gaussian(euclid(2), [0.0, 3.0], [[1.0, 0.5], [0.5, 1.0]])
    j = dst(g1, g2)
    assert isinstance(j, Gaussian)
    assert tuple(j.mean) == (1.0, 0.0, 3.0)
    c = np.asarray(j.cov)
    assert c[0, 0] == 2.0 and c[1, 2] == 0.5 and c[0, 1] == 0.0


def test_dst_dirac_euclid_coerces_to_zero_cov_block():
    g = gaussian(euclid(1), [0.0], [[1.0]])
    d = dirac(euclid(1), (4.0,))
    j = dst(d, g)
    assert isinstance(j, Gaussian)
    assert tuple(j.mean) == (4.0, 0.0)
    c = np.asarray(j.cov)
    assert c[0, 0] == 0.0 and c[1, 1] == 1.0


def test_distance_by_the_kinds_of_a_pair():
    """Diracs over a Euclidean-shaped space compare as points: one ulp of 1.0
    apart reads 2^-52, not the 1.0 of two distinct labels.  A finite mixture
    against a Dirac, and Diracs over a finite space, compare labels; a
    Gaussian against a Dirac compares means and covariances."""
    E = prod(euclid(1), euclid(1))
    a, b = dirac(E, ((1.0,), (0.0,))), dirac(E, ((1.0 + 2**-52,), (0.0,)))
    assert dist_distance(a, b) == dist_distance(b, a) == 2**-52
    assert dist_distance(categorical(E, [(a.point, 0.5), (b.point, 0.5)]), a) == 0.5
    assert dist_distance(dirac(SPACE, 0), dirac(SPACE, 1)) == 1.0
    g = gaussian(euclid(2), [1.0, 0.0], [[0.25, 0.0], [0.0, 0.0]])
    assert dist_distance(g, a) == 0.25


UNDERFLOWING = categorical(SPACE, [(0, 1e-200), (1, 1.0)])


def _finite_laws(gen):
    """Seeded point masses and categorical laws on small finite spaces, some
    with weights that are not dyadic, and one whose products underflow."""
    spaces = [finite("a"), finite("a", "b"), SPACE, prod(finite("a", "b"), SPACE)]
    laws = [UNDERFLOWING]
    for space in spaces:
        atoms = list(points(space))
        laws.append(dirac(space, atoms[int(gen.integers(len(atoms)))]))
        if len(atoms) > 1:
            ws = gen.dirichlet([1.0] * len(atoms))
            laws.append(categorical(space, list(zip(atoms, ws.tolist()))))
            laws.append(categorical(space, [(atoms[0], 0.25), (atoms[-1], 0.75)]))
    return laws


def _bits(d):
    items = [(a, w.hex()) for a, w in finite_items(d)]
    return type(d), d.space, items


def test_finite_dst_equals_categorical_of_the_pairs():
    """The product of two checked finite laws is the law ``categorical``
    builds from the weighted pairs: its items, their order and its type
    (a point mass for one atom of weight 1)."""
    laws = _finite_laws(np.random.default_rng(14))
    for d1 in laws:
        for d2 in laws:
            pairs = [((a1, a2), w1 * w2)
                     for a1, w1 in finite_items(d1) for a2, w2 in finite_items(d2)]
            assert _bits(dst(d1, d2)) == _bits(categorical(prod(d1.space, d2.space), pairs))


def test_finite_dst_prunes_underflowing_products():
    """1e-200 * 1e-200 underflows to 0, and that pair is pruned."""
    j = dst(UNDERFLOWING, UNDERFLOWING)
    assert [a for a, _ in j.items] == [(0, 1), (1, 0), (1, 1)]


def test_finite_dst_still_checks_the_product_weights():
    """Laws built directly, each summing to 1 + 8e-13, pass alone but their
    product misses 1 by more than 1e-12."""
    d1 = Categorical(SPACE, ((0, 0.5), (1, 0.5 + 8e-13)))
    d2 = Categorical(finite("a", "b"), (("a", 0.25), ("b", 0.75 + 8e-13)))
    with pytest.raises(DistError, match="sum"):
        dst(d1, d2)


def test_a_nan_weight_is_refused():
    """A NaN weight passes the sign check, and its sum is within no
    tolerance of 1."""
    with pytest.raises(DistError, match=r"^weights sum to nan, expected 1 within 1e-12$"):
        categorical(finite("a", "b"), [("a", math.nan), ("b", 1.0)])


def test_a_product_with_a_nan_weight_is_refused():
    """Factors built directly skip ``categorical``'s checks; their product's
    total is checked, and a NaN in it is refused."""
    d1 = Categorical(SPACE, ((0, math.nan), (1, 1.0)))
    with pytest.raises(DistError, match=r"^weights sum to nan, expected 1 within 1e-12$"):
        dst(d1, dirac(finite("a", "b"), "a"))
    with pytest.raises(DistError, match=r"^weights sum to nan, expected 1 within 1e-12$"):
        dist.product_items(finite_items(d1), (("a", 0.5), ("b", 0.5)))


def _per_pair_items(items1, items2) -> tuple:
    """``product_items`` as it was written, one pair at a time: each weight
    checked for its sign as it is formed, then the total."""
    pairs = []
    for a1, w1 in items1:
        for a2, w2 in items2:
            w = w1 * w2
            if w < -dist.WEIGHT_TOL:
                raise DistError(f"negative weight {w} on atom {(a1, a2)!r}")
            pairs.append(((a1, a2), w))
    dist._check_total(w for _, w in pairs)
    return tuple(p for p in pairs if p[1] != 0.0)


def _items_outcome(f, items1, items2):
    try:
        return [(a, w.hex()) for a, w in f(items1, items2)]
    except DistError as exc:
        return str(exc)


def test_product_items_decide_as_the_per_pair_loop():
    """Every pair of weight lists gets the per-pair loop's items, bit for
    bit, or its refusal with its message, which names the first pair below
    the tolerance: NaN, infinite, negative and slightly negative weights,
    in every place, included."""
    special = [math.nan, -math.inf, math.inf, -1.0, -0.5, -1e-13, -2e-12, -0.0, 0.0, 1e-200]
    gen = np.random.default_rng(40)
    lists = [[], [1.0], [0.5, 0.5], [0.25, 0.75, 0.0], [math.nan, -0.5, 1.5],
             [0.5, math.nan, -1.0, 1.5]]
    for _ in range(60):
        n = int(gen.integers(1, 5))
        ws = gen.dirichlet([1.0] * n).tolist()
        for _ in range(int(gen.integers(0, 3))):
            ws[int(gen.integers(n))] = special[int(gen.integers(len(special)))]
        lists.append(ws)
    outcomes = collections.Counter()
    for ws1 in lists:
        for ws2 in lists[::7]:
            items1 = tuple(enumerate(ws1))
            items2 = tuple(zip("abcd", ws2))
            got = _items_outcome(dist.product_items, items1, items2)
            assert got == _items_outcome(_per_pair_items, items1, items2), (ws1, ws2)
            outcomes[got.split(" ")[0] if isinstance(got, str) else "items"] += 1
    assert set(outcomes) == {"items", "negative", "weights"}, outcomes


def test_finite_dst_checks_no_atom(monkeypatch):
    """Each pair of checked atoms is a point of the product, so building it
    checks none of them again."""
    laws = _finite_laws(np.random.default_rng(15))
    calls = []

    def counted(space, value):
        calls.append(value)
        return check_point(space, value)

    monkeypatch.setattr(dist, "check_point", counted)
    for d1 in laws:
        for d2 in laws:
            dst(d1, d2)
    assert calls == []


def _block_law(d1, d2):
    """``dst`` of two Euclidean factors as ``gaussian`` builds it: stacked
    means and a block-diagonal covariance, checked and symmetrised."""
    g1, g2 = _as_gaussian(d1), _as_gaussian(d2)
    n1, n2 = len(g1.mean), len(g2.mean)
    cov = np.zeros((n1 + n2, n1 + n2))
    cov[:n1, :n1], cov[n1:, n1:] = g1.cov_array(), g2.cov_array()
    mean = np.concatenate([g1.mean_array(), g2.mean_array()])
    return gaussian(prod(d1.space, d2.space), mean, cov)


def test_dst_of_gaussians_matches_the_generic_constructor_bit_for_bit():
    """A product of Gaussian factors (a Dirac over a Euclidean space being a
    zero-covariance one) is built from its checked blocks without a second
    check, and is the law ``gaussian`` builds, -0.0 entries included.  A
    non-finite mean is still refused."""
    gen = np.random.default_rng(21)
    laws = [
        gaussian(euclid(2), [-0.0, 1.5], [[2.0, -0.0], [-0.0, 0.5]]),
        dirac(euclid(2), (0.5, -0.0)),
    ]
    for n in (1, 2, 3):
        root = gen.standard_normal((n, n))
        skew = 1e-12 * np.triu(np.ones((n, n)), 1)
        laws.append(gaussian(euclid(n), gen.standard_normal(n), root @ root.T + skew))
    for d1 in laws:
        for d2 in laws:
            if isinstance(d1, Gaussian) or isinstance(d2, Gaussian):
                assert gaussian_bits(dst(d1, d2)) == gaussian_bits(_block_law(d1, d2))
    for bad in (math.nan, math.inf):
        point = dirac(euclid(1), (bad,))
        for pair in ((point, laws[0]), (laws[0], point)):
            with pytest.raises(DistError, match="finite"):
                dst(*pair)


def test_pushforward_finite():
    d = categorical(SPACE, [(0, 0.5), (1, 0.25), (2, 0.25)])
    out = pushforward(lambda x: x % 2, d, target=finite(0, 1))
    assert prob(out, 0) == 0.75
    assert prob(out, 1) == 0.25


def test_pushforward_gaussian_affine_oracle():
    mu = np.array([1.0, -2.0])
    sig = np.array([[2.0, 0.3], [0.3, 1.0]])
    g = gaussian(euclid(2), mu, sig)
    a = np.array([[1.0, 2.0], [0.0, 1.0]])
    b = np.array([5.0, 0.0])
    out = bind(g, GaussianKernel.of(a, b))
    assert np.allclose(np.asarray(out.mean), a @ mu + b, atol=1e-15)
    assert np.allclose(np.asarray(out.cov), a @ sig @ a.T, atol=1e-15)
    with pytest.raises(DistError):
        pushforward(lambda x: x, g, euclid(2))


def test_gaussian_kernel_bind_and_compose():
    g = gaussian(euclid(1), [0.5], [[0.25]])
    k1 = GaussianKernel.of([[2.0]], [1.0], [[0.1]])
    out = bind(g, k1)
    assert abs(out.mean[0] - 2.0) <= 1e-15
    assert abs(out.cov[0][0] - (4.0 * 0.25 + 0.1)) <= 1e-15
    k2 = GaussianKernel.of([[-1.0]], [0.0], [[0.2]])
    k21 = kleisli_compose(k2, k1)
    assert isinstance(k21, GaussianKernel)
    direct = bind(out, k2)
    chained = bind(g, k21)
    assert dist_distance(direct, chained) <= 1e-15


def test_finite_kleisli_compose_matches_two_binds():
    A = finite(0, 1)
    k1 = lambda x: categorical(A, [(0, 0.25), (1, 0.75)]) if x else dirac(A, 0)
    k2 = lambda x: categorical(A, [(0, 0.5), (1, 0.5)]) if x else dirac(A, 1)
    comp = kleisli_compose(k2, k1)
    d = uniform(A)
    assert dist_distance(bind(bind(d, k1), k2), bind(d, comp)) == 0.0


def test_sampling_is_reproducible():
    rng = Rng(7)
    d = categorical(SPACE, [(0, 0.3), (2, 0.3), (3, 0.4)])
    assert sample(d, rng) == sample(d, Rng(7))
    draws = [sample(d, rng.child(i)) for i in range(5)]
    assert draws == [sample(d, Rng(7).child(i)) for i in range(5)]
    g = gaussian(euclid(1), [0.0], [[1.0]])
    assert sample(g, rng.child(1)) == sample(g, Rng(7).child(1))


def test_sampling_hits_the_law():
    d = categorical(SPACE, [(0, 0.25), (1, 0.75)])
    draws = [sample(d, Rng(123).child(i)) for i in range(4000)]
    freq = draws.count(1) / 4000
    assert abs(freq - 0.75) < 0.05
    g = gaussian(euclid(1), [2.0], [[4.0]])
    xs = [sample(g, Rng(5).child(i))[0] for i in range(4000)]
    assert abs(np.mean(xs) - 2.0) < 0.2
    assert abs(np.var(xs) - 4.0) < 0.5


def test_dist_distance_cases():
    d1 = categorical(SPACE, [(0, 0.5), (1, 0.5)])
    d2 = categorical(SPACE, [(0, 0.5), (2, 0.5)])
    assert dist_distance(d1, d1) == 0.0
    assert dist_distance(d1, d2) == 0.5
    assert dist_distance(d1, gaussian(euclid(1), [0.0], [[1.0]])) == float("inf")
    near = gaussian(euclid(1), [0.0], [[1.0 + 1e-12]])
    assert dist_distance(gaussian(euclid(1), [0.0], [[1.0]]), near) <= 1e-9
    assert dist_distance(dirac(SPACE, 1), categorical(SPACE, [(1, 1.0)])) == 0.0


def _prob_scan_distance(d1, d2) -> float:
    """The label distance as a scan of each law with ``prob`` per atom."""
    support = {a for a, _ in finite_items(d1)} | {a for a, _ in finite_items(d2)}
    return max(abs(prob(d1, a) - prob(d2, a)) for a in support)


def _label_pairs(gen):
    """Seeded finite laws in pairs: supports that differ both ways, one
    inside the other, equal supports listed in other orders, and a point
    mass against a categorical law, on int, string and tuple labels."""
    spaces = [SPACE, finite(*"abcdefgh"), prod(finite("a", "b"), SPACE)]
    for space in spaces:
        atoms = list(points(space))
        for _ in range(12):
            n1, n2 = (int(gen.integers(2, len(atoms) + 1)) for _ in range(2))
            laws = []
            for n in (n1, n2):
                chosen = [atoms[i] for i in gen.permutation(len(atoms))[:n]]
                ws = gen.dirichlet([1.0] * n).tolist()
                laws.append(categorical(space, list(zip(chosen, ws))))
            yield tuple(laws)
            yield laws[0], categorical(space, list(reversed(finite_items(laws[0]))))
            yield dirac(space, atoms[int(gen.integers(len(atoms)))]), laws[1]
            yield laws[0], dirac(space, finite_items(laws[0])[0][0])


def test_label_distance_is_the_prob_scan_bit_for_bit():
    """Each law's weights read once into a dict give the prob scan's
    distance, bit for bit, on either side of a pair."""
    pairs = list(_label_pairs(np.random.default_rng(38)))
    kinds = collections.Counter()
    for d1, d2 in pairs:
        s1, s2 = ({a for a, _ in finite_items(d)} for d in (d1, d2))
        kinds[(bool(s1 - s2), bool(s2 - s1), type(d1).__name__)] += 1
        for a, b in ((d1, d2), (d2, d1)):
            assert dist_distance(a, b).hex() == _prob_scan_distance(a, b).hex(), (a, b)
    assert kinds[(True, True, "Categorical")] > 0 and kinds[(True, True, "Dirac")] > 0
    assert kinds[(False, False, "Categorical")] > 0
    half = categorical(SPACE, [(0, 0.5), (1, 0.5)])
    wider = categorical(SPACE, [(0, 0.4), (1, 0.4), (2, 0.2)])
    assert dist_distance(half, wider) == dist_distance(wider, half) == 0.2


def test_a_law_is_at_distance_zero_from_itself():
    """Every kind of law, itself included as the second argument, reads 0.0;
    so does a point mass at a NaN coordinate, whose gap to an equal copy is
    NaN."""
    E = prod(euclid(1), euclid(2))
    laws = [
        dirac(SPACE, 2),
        categorical(SPACE, [(0, 0.25), (3, 0.75)]),
        dirac(E, ((1.5,), (-0.0, 2.0))),
        categorical(E, [(((0.0,), (1.0, 1.0)), 0.5), (((1.0,), (0.0, 0.0)), 0.5)]),
        gaussian(euclid(2), [1.0, -2.0], [[2.0, 0.5], [0.5, 1.0]]),
        mk_state([0.5], [[1e-3]]),
        dirac(euclid(1), (float("nan"),)),
        dirac(euclid(1), (float("inf"),)),
    ]
    for d in laws:
        assert dist_distance(d, d) == 0.0, d


def test_gaussian_psd_validation():
    with pytest.raises(DistError):
        gaussian(euclid(2), [0.0, 0.0], [[1.0, 2.0], [2.0, 1.0]])


@pytest.mark.parametrize(
    "build",
    [lambda mean, cov: gaussian(euclid(1), mean, cov), mk_state],
    ids=["gaussian", "mk_state"],
)
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("where", ["mean", "cov"])
def test_non_finite_gaussians_are_rejected(build, bad, where):
    mean = [bad] if where == "mean" else [0.0]
    cov = [[bad]] if where == "cov" else [[1.0]]
    with pytest.raises(DistError, match="finite"):
        build(mean, cov)


def _wrapped_gaussian(space, mean, cov) -> Gaussian:
    """``gaussian`` written with numpy's Python wrappers, as it was before its
    checks skipped them: the decisions and the stored law those checks must
    give, bit for bit."""
    n = euclid_dims(space)
    mu = np.asarray(mean, dtype=float).reshape(n)
    sig = np.asarray(cov, dtype=float).reshape(n, n)
    if not (np.isfinite(mu).all() and np.isfinite(sig).all()):
        raise DistError("mean and covariance must be finite")
    if n > 0:
        if not np.max(np.abs(sig - sig.T)) <= 1e-9:
            raise DistError("covariance is not symmetric")
        sig = 0.5 * (sig + sig.T)
        if np.linalg.eigvalsh(sig).min() < -1e-10:
            raise DistError("covariance is not positive semi-definite")
    return Gaussian(space, tuple(mu.tolist()), tuple(map(tuple, sig.tolist())))


def _outcome(build, *args):
    """The law's bits, or the refusal's type and message."""
    try:
        return gaussian_bits(build(*args))
    except DistError as exc:
        return type(exc), str(exc)


def _gaussian_corpus(gen):
    """Seeded (n, mean, covariance) triples at n = 0, 1, 2, 3, 6 and 18:
    full-rank and rank-deficient PSD covariances, asymmetric within 1e-9, and
    -0.0 in the mean and in a covariance row and column; and an asymmetry of
    exactly 1e-9 and an eigenvalue of exactly -1e-10, both within tolerance."""
    yield 0, [], np.zeros((0, 0))
    yield 2, [0.0, 0.0], np.array([[1.0, 0.0], [1e-9, 1.0]])
    yield 2, [0.0, 0.0], np.array([[1.0, 0.0], [0.0, -1e-10]])
    for n in (1, 2, 3, 6, 18):
        for rank in sorted({n, max(n - 1, 1), max(n // 2, 1)}):
            for _ in range(4):
                root = gen.standard_normal((n, rank))
                cov = root @ root.T
                skew = np.triu(gen.uniform(-1e-9, 1e-9, (n, n)), 1)
                mean = gen.standard_normal(n)
                yield n, mean, cov
                yield n, mean, cov + skew
                signed = cov.copy()
                signed[0, :] = signed[:, 0] = -0.0
                signed[0, 0] = 0.5
                mean = mean.copy()
                mean[0] = -0.0
                yield n, mean, signed


def test_gaussian_decides_and_stores_as_the_wrapped_formula_bit_for_bit():
    """Every law of the corpus, accepted or refused, is the one the wrapped
    formula gives: the same refusal, or the same bits (by ``float.hex``),
    -0.0 included.  Some rank-deficient covariances are refused: their
    asymmetry, symmetrized away, moves a zero eigenvalue past -1e-10."""
    outcomes = collections.Counter()
    for n, mean, cov in _gaussian_corpus(np.random.default_rng(37)):
        want = _outcome(_wrapped_gaussian, euclid(n), mean, cov)
        assert _outcome(gaussian, euclid(n), mean, cov) == want, (n, mean, cov)
        outcomes[want[1] if want[0] is DistError else "accepted"] += 1
    assert set(outcomes) == {"accepted", "covariance is not positive semi-definite"}
    assert outcomes["accepted"] > 3 * outcomes["covariance is not positive semi-definite"]


REFUSALS = [
    # (what is wrong, mean, covariance, message)
    *[(f"{bad} in the mean", [0.0, bad], [[1.0, 0.0], [0.0, 1.0]],
       "mean and covariance must be finite") for bad in (math.nan, math.inf, -math.inf)],
    *[(f"{bad} in an off-diagonal entry", [0.0, 0.0], [[1.0, bad], [0.0, 1.0]],
       "mean and covariance must be finite") for bad in (math.nan, math.inf, -math.inf)],
    *[(f"{bad} in both off-diagonal entries", [0.0, 0.0], [[1.0, bad], [bad, 1.0]],
       "mean and covariance must be finite") for bad in (math.nan, math.inf, -math.inf)],
    ("asymmetry just past 1e-9", [0.0, 0.0], [[1.0, 0.0], [np.nextafter(1e-9, 1.0), 1.0]],
     "covariance is not symmetric"),
    ("an eigenvalue just below -1e-10", [0.0, 0.0], [[1.0, 0.0], [0.0, -np.nextafter(1e-10, 1.0)]],
     "covariance is not positive semi-definite"),
]


@pytest.mark.parametrize(
    "mean, cov, message", [r[1:] for r in REFUSALS], ids=[r[0] for r in REFUSALS]
)
def test_each_gaussian_refusal_keeps_its_type_and_message(mean, cov, message):
    """``gaussian`` refuses as the wrapped formula does, by type and message,
    and warns nothing; ``_gaussian_from_checked`` refuses a non-finite mean
    with the same message."""
    want = (DistError, message)
    assert _outcome(_wrapped_gaussian, euclid(2), mean, cov) == want
    assert _outcome(gaussian, euclid(2), mean, cov) == want
    if not all(map(math.isfinite, mean)):
        checked = gaussian(euclid(2), [0.0, 0.0], [[1.0, 0.0], [0.0, 1.0]]).cov
        assert _outcome(dist._gaussian_from_checked, euclid(2), mean, checked) == want


def test_a_covariance_whose_symmetrized_form_overflows_is_refused():
    """An entry of 2**1023 or more doubles to inf when the covariance is
    symmetrized, so it is refused, where a law with cov [[inf]] was stored;
    the largest entry below it is stored as it is."""
    for cov in ([[1.7e308]], [[2.0**1023]], [[1.0, -1e308], [-1e308, 1.0]]):
        n = len(cov)
        with pytest.raises(DistError, match="^covariance entry of magnitude .* overflows"):
            gaussian(euclid(n), [0.0] * n, cov)
    largest = np.nextafter(2.0**1023, 0.0)
    assert gaussian(euclid(1), [0.0], [[largest]]).cov == ((largest,),)


def test_dist_json_roundtrip():
    d1 = dirac(SPACE, 2)
    d2 = categorical(finite("a", "b"), [("a", 0.25), ("b", 0.75)])
    d3 = gaussian(euclid(2), [1.0, 2.0], [[1.0, 0.0], [0.0, 2.0]])
    for d, sp in ((d1, SPACE), (d2, finite("a", "b")), (d3, euclid(2))):
        back = dist_from_json(sp, dist_to_json(d))
        assert dist_distance(back, d) == 0.0


def test_tuple_labelled_laws_survive_json():
    """JSON holds a tuple as a list; a point mass and a categorical law come
    back equal on tuple-labelled finite states (the total states of
    ``skew_random_example``), on nested tuple labels and on a product."""
    pairs = finite(*[(w, x) for w in range(2) for x in range(2)])
    nested = finite("a", (1, (2, 3)))
    both = prod(finite(0, 1), nested)
    mixed = finite("1", 1, 2)  # the atom 2 keys as "2", which no label holds
    for sp, a, b in ((pairs, (0, 1), (1, 1)), (nested, (1, (2, 3)), "a"),
                     (both, (1, (1, (2, 3))), (0, "a")), (mixed, "1", 2)):
        for d in (dirac(sp, a), dirac(sp, b), categorical(sp, [(a, 0.25), (b, 0.75)])):
            assert dist_from_json(sp, dist_to_json(d)) == d, (sp, d)


def test_dirac_and_categorical_kinds():
    assert isinstance(dirac(SPACE, 0), Dirac)
    assert isinstance(categorical(SPACE, [(0, 0.5), (1, 0.5)]), Categorical)
    assert math.isclose(sum(w for _, w in finite_items(uniform(SPACE))), 1.0)


def test_a_law_on_one_atom_is_its_point_mass():
    """Rounding can leave a law on one atom short of weight 1.  The law is
    still the point mass there, however it was built: one atom, weight
    1 - 2**-52; a product of two such laws; a mixture whose one other atom
    underflows to weight 0; an image that merges three atoms into one,
    whose weights sum to 1 - 2**-53."""
    near = 1.0 - 2.0**-52
    assert 0.7 + 0.2 + 0.1 == 1.0 - 2.0**-53
    mixing = categorical(SPACE, [(0, 0.5), (1, 0.5 - 2.0**-53)])
    tiny = categorical(SPACE, [(3, 1.0), (2, 5e-324)])
    built = {
        2: categorical(SPACE, [(2, near)]),
        (1, 3): dst(categorical(SPACE, [(1, near)]), categorical(SPACE, [(3, near)])),
        3: bind(mixing, lambda x: tiny if x else dirac(SPACE, 3)),
        0: pushforward(lambda x: 0, categorical(SPACE, [(0, 0.7), (1, 0.2), (2, 0.1)]), SPACE),
    }
    for atom, d in built.items():
        assert isinstance(d, Dirac), d
        assert finite_items(d) == ((atom, 1.0),)


@pytest.mark.parametrize(
    "space, obj, message",
    [
        (finite("a", "b"), None, "spec key 'law' must be a law over finite['a', 'b'], got None"),
        (finite("a", "b"), {"categorical": [["a", 1.0]]},
         "spec key 'law.categorical' must be an object of weights, got [['a', 1.0]]"),
        (finite("a", "b"), {"categorical": {"a": "0.5", "b": 0.5}},
         "spec key 'law.categorical.a' must be a finite number, got '0.5'"),
        (finite("a", "b"), {"categorical": {"a": True}},
         "spec key 'law.categorical.a' must be a finite number, got True"),
        (euclid(1), {"gaussian": {"mean": [0.0], "cov": [[1.0, 0.0]]}},
         "spec key 'law.gaussian.cov[0]' must be a list of length 1, one per coordinate of "
         "euclid(1), got [1.0, 0.0]"),
        (euclid(1), {"gaussian": {"mean": [True], "cov": [[1.0]]}},
         "spec key 'law.gaussian.mean[0]' must be a finite number, got True"),
        (finite(0, 1), {"categorical": {"0": math.nan, "1": 1.0}},
         "spec key 'law.categorical.0' must be a finite number, got nan"),
        (finite(0, 1), {"categorical": {"NaN": 0.5, "1": 0.5}},
         "spec key 'law.categorical.NaN' must be a point of finite[0, 1], got nan"),
        (finite(0, 1), {"dirac": math.inf},
         "spec key 'law.dirac' must be a point of finite[0, 1], got inf"),
        (finite(0, 1), "uniform", "spec key 'law' must be a law over finite[0, 1], got 'uniform'"),
    ],
    ids=[
        "space0-None-not a distribution description: None",
        "space1-obj1-categorical JSON needs an object of weights, got [['a', 1.0]]",
        "space2-obj2-weight '0.5' is not a number",
        "space3-obj3-weight True is not a number",
        "space4-obj4-gaussian JSON needs 1 mean numbers and 1 x 1 covariance numbers, got "
        "{'mean': [0.0], 'cov': [[1.0, 0.0]]}",
        "space5-obj5-gaussian JSON needs 1 mean numbers and 1 x 1 covariance numbers, got "
        "{'mean': [True], 'cov': [[1.0]]}",
        "nan-weight",
        "nan-key",
        "infinite-atom",
        "uniform",
    ],
)
def test_a_law_json_of_another_shape_is_refused(space, obj, message):
    """Each was a TypeError, or a string or a boolean read as its number;
    the spec reader refuses it by its key, a non-finite weight or atom at
    its own key.  ``dist_from_json`` reads no ``"uniform"`` shorthand,
    which only a spec's ``init`` and update rows take."""
    with pytest.raises(SpecError, match=f"^{re.escape(message)}$"):
        dist_from_json(space, obj)


def test_a_boolean_atom_is_not_a_label():
    """``{"dirac": true}`` was the point 1 of a finite space."""
    message = r"^spec key 'law\.dirac' must be a point of finite\[0, 1\], got True$"
    with pytest.raises(SpecError, match=message):
        dist_from_json(finite(0, 1), {"dirac": True})


@pytest.mark.parametrize(
    "space, atoms, message",
    [
        (finite("1", 1), ("1", 1), "the atom 1 and the label '1' share the JSON key '1'"),
        (finite("[0, 1]", (0, 1)), ("[0, 1]", (0, 1)),
         "the atom (0, 1) and the label '[0, 1]' share the JSON key '[0, 1]'"),
        (finite("[0, 1]", (0, 1), 2), ((0, 1), 2),
         "the atom (0, 1) and the label '[0, 1]' share the JSON key '[0, 1]'"),
    ],
    ids=["both-atoms", "tuple-beside-its-text", "label-off-the-support"],
)
def test_dist_to_json_refuses_a_key_the_reader_would_misread(space, atoms, message):
    """A non-string atom is keyed by its JSON text, which the reader takes
    for a label of the space when the space has that label.  Two atoms on
    one key were one entry, half the mass dropped; an atom keyed as a label
    off the support came back as that label."""
    d = categorical(space, [(a, 0.5) for a in atoms])
    with pytest.raises(DistError, match=f"^{re.escape(message)}$"):
        dist_to_json(d)


_G = gaussian(euclid(1), [0.0], [[1.0]])
_COIN = categorical(finite(0, 1), {0: 0.5, 1: 0.5})


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: finite_items(_G),
         "gaussian(mean=[0.0], cov=[[1.0]]) does not have finite support"),
        (lambda: pushforward(lambda a: a, 3, finite(0)), "not a distribution: 3"),
        (lambda: bind(3, lambda a: _G), "not a distribution: 3"),
        (lambda: bind(_COIN, lambda a: gaussian(euclid(1), [float(a)], [[1.0]])),
         "mixture of Gaussians is not representable exactly; use sample() for this composite"),
        (lambda: bind(dirac(finite(0, 1), 0), lambda a: 3),
         "kernel returned a non-distribution: 3"),
        (lambda: dst(_COIN, _G), "dst of a finite-support and a continuous factor is outside the "
                                 "exact regimes; use sample() on each factor"),
        (lambda: sample(3, Rng(0)), "not a distribution: 3"),
    ],
    ids=["finite-items-of-a-gaussian", "pushforward-of-a-non-law", "bind-of-a-non-law",
         "mixture-of-gaussians", "kernel-returns-a-non-law", "dst-of-finite-and-gaussian",
         "sample-of-a-non-law"],
)
def test_each_exact_regime_refusal_fires_by_name(call, message):
    """Each law operation refuses, by its own message, an input outside the
    exact regimes: a Gaussian where a finite support is read, a non-law
    where a law is, a Categorical mixture of Gaussians, a finite factor
    beside a Gaussian one."""
    with pytest.raises(DistError, match=f"^{re.escape(message)}$"):
        call()


def test_a_draw_from_a_gaussian_on_no_coordinates_is_the_empty_point():
    assert sample(gaussian(euclid(0), [], []), Rng(0)) == ()
