"""Probability distributions with two exact regimes and a sampling fallback.

``Dist`` is one of three kinds:

* ``Dirac``       -- a point mass on any space (the monad unit).
* ``Categorical`` -- finite support with explicit weights; exact arithmetic.
* ``Gaussian``    -- a normal law over a Euclidean-shaped space (``euclid`` or a
  product of them); exact under affine-Gaussian kernels, of which a
  deterministic affine map is the zero-covariance case.

Everything outside those regimes (a nonlinear map of a Gaussian, a continuous
mixture) is rejected with an error pointing at ``sample``, the Monte-Carlo
escape hatch.  Randomness is explicit: ``Rng`` is an immutable splittable seed,
never a hidden global.
"""

from __future__ import annotations

import math
from typing import Any, Callable, Union

import numpy as np
from numpy.linalg import _umath_linalg

from .spaces import (
    EuclidSpace,
    ProdSpace,
    Space,
    UnitSpace,
    check_point,
    euclid,
    euclid_dims,
    flatten_floats,
    points,
    prod,
    record,
    unflatten_floats,
)

WEIGHT_TOL = 1e-12
SYM_TOL = 1e-9
PSD_TOL = 1e-10
# the least magnitude x with x + x = inf: no symmetrized covariance holds one
_SYMMETRIZABLE = 2.0**1023
# as 0-d arrays, which a comparison reads faster than Python floats
_SYMMETRIZABLE_0D, _SYM_TOL_0D = np.array(_SYMMETRIZABLE), np.array(SYM_TOL)


class DistError(ValueError):
    """Invalid distribution, or an operation outside the exact regimes."""


# ---------------------------------------------------------------------------
# Rng


@record
class Rng:
    """Splittable counter-based random source (Philox under the hood).

    An ``Rng`` is a pure value: the same seed and path always produce the same
    stream.  ``child(i)`` derives an independent stream, so concurrent
    trajectories can split seeds deterministically instead of sharing state.
    """

    seed: int
    path: tuple = ()

    def child(self, i: int) -> "Rng":
        return Rng(self.seed, self.path + (int(i),))

    def generator(self) -> np.random.Generator:
        ss = np.random.SeedSequence(self.seed, spawn_key=self.path)
        return np.random.Generator(np.random.Philox(ss))


# ---------------------------------------------------------------------------
# Dist kinds


@record
class Dirac:
    """The point mass at ``point``, a point of ``space``."""

    space: Space
    point: Any

    def __repr__(self) -> str:
        return f"dirac({self.point!r})"


@record
class Categorical:
    """A finite law on ``space``: distinct atoms, each with a positive
    weight, in the order they were given."""

    space: Space
    items: tuple  # ((atom, weight), ...) zero weights pruned, atoms distinct

    def __repr__(self) -> str:
        inner = ", ".join(f"{a!r}: {w:.6g}" for a, w in self.items)
        return f"categorical({{{inner}}})"


@record
class Gaussian:
    """A normal law on a Euclidean-shaped space, its mean and covariance
    flat over the space's coordinates (``flatten_floats``)."""

    space: Space  # Euclidean-shaped: euclid(n) or a product of such
    mean: tuple  # flat, length = euclid_dims(space)
    cov: tuple  # flat row-major tuple of tuples, same order as mean

    def __repr__(self) -> str:
        return f"gaussian(mean={list(self.mean)}, cov={[list(r) for r in self.cov]})"

    def mean_array(self) -> np.ndarray:
        return np.asarray(self.mean, dtype=float)

    def cov_array(self) -> np.ndarray:
        n = len(self.mean)
        return np.asarray(self.cov, dtype=float).reshape(n, n)


Dist = Union[Dirac, Categorical, Gaussian]


def dirac(space: Space, point: Any) -> Dirac:
    return Dirac(space, check_point(space, point))


def categorical(space: Space, weights) -> Dist:
    """Finite-support distribution from a dict or (atom, weight) pairs.

    Zero-weight atoms are pruned, duplicate atoms merged; weights must be
    non-negative and sum to 1 within 1e-12.  A law left on one atom is the
    ``Dirac`` there.  Atoms merge by exact equality (``==``, so -0.0 and 0.0
    are one Euclid coordinate) -- merging nearby ones is the caller's job.
    """
    pairs = weights.items() if isinstance(weights, dict) else weights
    merged: dict = {}
    for atom, w in pairs:
        w = float(w)
        if w < -WEIGHT_TOL:
            raise DistError(f"negative weight {w} on atom {atom!r}")
        check_point(space, atom)
        merged[atom] = merged.get(atom, 0.0) + w
    _check_total(merged.values())
    return _finite_law(space, tuple((a, w) for a, w in merged.items() if w != 0.0))


def _check_total(weights) -> None:
    """Refuse weights whose sum is not within ``WEIGHT_TOL`` of 1: a NaN sum
    is within no tolerance."""
    total = math.fsum(weights)
    if not abs(total - 1.0) <= WEIGHT_TOL:
        raise DistError(f"weights sum to {total!r}, expected 1 within {WEIGHT_TOL}")


def _finite_law(space: Space, items: tuple) -> Dist:
    """The law of pruned, distinct items.  A law on one atom is the point
    mass there, the monad's unit, whatever weight rounding left on it.  No
    other code builds a ``Categorical``, so none has one atom."""
    if len(items) == 1:
        return Dirac(space, items[0][0])
    return Categorical(space, items)


def _point_mass_rows(laws: np.ndarray) -> np.ndarray:
    """``laws``, whose rows are finite laws as weight vectors, with weight 1.0
    on the one atom of each row that has one: each row is then the vector of
    the law ``_finite_law`` makes of it.  The rows are changed in place."""
    nonzero = laws != 0.0
    np.copyto(laws, nonzero, where=np.add.reduce(nonzero, axis=1, keepdims=True) == 1)
    return laws


def product_items(items1, items2) -> tuple:
    """The (atom, weight) items of the product of two finite laws from theirs:
    the pairs of atoms in order, each weighted by the product of its weights,
    zero products pruned.  Distinct atoms on each side give distinct pairs,
    so nothing is merged; the weights are checked as ``categorical`` checks
    them (``_check_product``).  Zeros are pruned only when there is one."""
    pairs = [((a1, a2), w1 * w2) for a1, w1 in items1 for a2, w2 in items2]
    weights = [w for _, w in pairs]
    _check_product(weights, lambda k: pairs[k][0])
    if 0.0 in weights:  # -0.0 == 0.0 as well
        return tuple(p for p in pairs if p[1] != 0.0)
    return tuple(pairs)


def _check_product(weights: list, atom_at: Callable) -> None:
    """Check the weights of a product law as ``categorical`` checks them,
    each check once over the whole product: no weight below ``-WEIGHT_TOL``,
    and their sum within ``WEIGHT_TOL`` of 1.  ``min`` gives the least
    weight, NaNs skipped, or NaN when the first weight is NaN; only when it
    is not at least ``-WEIGHT_TOL`` are the weights scanned for the first
    one below, which the refusal names by its atom, ``atom_at(k)`` for the
    k-th weight."""
    if not min(weights, default=0.0) >= -WEIGHT_TOL:
        for k, w in enumerate(weights):
            if w < -WEIGHT_TOL:
                raise DistError(f"negative weight {w} on atom {atom_at(k)!r}")
    _check_total(weights)


def uniform(space: Space) -> Dist:
    """The uniform law over a finite space.  Its atoms are the points that
    ``points`` enumerates, so none is checked again; a space with no point
    is refused, as ``categorical`` refuses weights that sum to 0."""
    atoms = list(points(space))
    items = tuple((a, 1.0 / len(atoms)) for a in atoms)
    _check_total(w for _, w in items)
    return _finite_law(space, items)


def gaussian(space: Space, mean, cov) -> Gaussian:
    """Normal law over a Euclidean-shaped space.  The mean and covariance must
    be finite, and the covariance symmetric within 1e-9 and positive
    semi-definite within 1e-10; it is stored symmetrized.  A covariance entry
    of magnitude 2**1023 or more is refused: its symmetrized form would
    overflow to inf.

    The checks decide as ``np.isfinite``, ``np.max(np.abs(sig - sig.T))``
    and ``np.linalg.eigvalsh`` do, without numpy's wrappers or reductions:
    the mean on its Python floats, each covariance entry by a comparison
    (magnitude below 2**1023, which NaN fails; asymmetry within 1e-9), and
    the least eigenvalue on Python floats."""
    return _checked_gaussian(space, euclid_dims(space), mean, cov)[0]


def _checked_gaussian(space: Space, n: int, mean, cov) -> tuple:
    """``gaussian(space, mean, cov)`` for a space of n coordinates, and the
    array its covariance was checked on and stored from: symmetrized, so
    equal entry for entry to the law's ``cov_array()``."""
    mu = tuple(np.asarray(mean, dtype=float).reshape(n).tolist())
    sig = np.asarray(cov, dtype=float).reshape(n, n)
    finite = all(map(math.isfinite, mu))
    if not (finite and _all_true(np.abs(sig) < _SYMMETRIZABLE_0D)):
        # NaN and inf both propagate through the largest magnitude
        big = float(np.maximum.reduce(np.abs(sig), axis=None, initial=0.0))
        if not (finite and math.isfinite(big)):
            raise DistError("mean and covariance must be finite")
        raise DistError(f"covariance entry of magnitude {big!r} overflows when symmetrized")
    if n > 0:
        sig_t = sig.T.copy()  # C order: a sum or difference reads it faster
        # sig - sig.T is antisymmetric bit for bit, so when no entry exceeds
        # the tolerance, no magnitude does
        if not _all_true(sig - sig_t <= _SYM_TOL_0D):
            raise DistError("covariance is not symmetric")
        sig_t += sig
        sig_t *= 0.5
        sig = sig_t
        if min(_symmetric_eigenvalues(sig).tolist()) < -PSD_TOL:
            raise DistError("covariance is not positive semi-definite")
    return Gaussian(space, mu, tuple(map(tuple, sig.tolist()))), sig


def _all_true(mask: np.ndarray) -> bool:
    """Whether a bool array holds no False: no zero byte, as numpy stores a
    bool in a byte, 0 or 1.  A reduction costs ten times as much."""
    return 0 not in mask.tobytes()


def _symmetric_eigenvalues(sig: np.ndarray) -> np.ndarray:
    """``np.linalg.eigvalsh(sig)`` bit for bit, through the gufunc it wraps:
    the eigenvalues, ascending, of the symmetric matrix whose lower triangle
    ``sig`` holds, without the wrapper, which costs more than the call."""
    return _umath_linalg.eigvalsh_lo(sig, signature="d->d")


def _gaussian_from_checked(space: Space, mean, cov: tuple) -> Gaussian:
    """The law ``gaussian(space, mean, cov)`` for a ``cov`` that is already a
    stored covariance: symmetric bit for bit and positive semi-definite, as
    ``gaussian`` leaves it.  Symmetrising it again changes no bit, so only the
    mean is checked, on the Python floats the law stores."""
    mu = tuple(np.asarray(mean, dtype=float).reshape(len(cov)).tolist())
    if not all(map(math.isfinite, mu)):
        raise DistError("mean and covariance must be finite")
    return Gaussian(space, mu, cov)


def finite_items(d: Dist) -> tuple:
    """Support/weight pairs of a finite-support distribution."""
    if isinstance(d, Dirac):
        return ((d.point, 1.0),)
    if isinstance(d, Categorical):
        return d.items
    raise DistError(f"{d!r} does not have finite support")


def prob(d: Dist, atom: Any) -> float:
    for a, w in finite_items(d):
        if a == atom:
            return w
    return 0.0


# ---------------------------------------------------------------------------
# Affine-Gaussian kernels


@record
class GaussianKernel:
    """Stochastic affine kernel x |-> N(Ax + b, Sigma); closed under Kleisli
    composition, which is what keeps Gaussian chains exact.  With the default
    zero covariance it is the deterministic affine map x |-> Ax + b."""

    matrix: tuple
    offset: tuple
    cov: tuple

    @staticmethod
    def of(matrix, offset=None, cov=None) -> "GaussianKernel":
        a = np.atleast_2d(np.asarray(matrix, dtype=float))
        m = a.shape[0]
        b = np.zeros(m) if offset is None else np.asarray(offset, dtype=float)
        s = np.zeros((m, m)) if cov is None else np.asarray(cov, dtype=float).reshape(m, m)
        return GaussianKernel(
            tuple(map(tuple, a.tolist())),
            tuple(b.tolist()),
            tuple(map(tuple, s.tolist())),
        )

    @property
    def in_dim(self) -> int:
        return len(self.matrix[0]) if self.matrix else 0

    @property
    def out_dim(self) -> int:
        return len(self.offset)

    def arrays(self):
        m, n = self.out_dim, self.in_dim
        return (
            np.asarray(self.matrix, dtype=float).reshape(m, n),
            np.asarray(self.offset, dtype=float),
            np.asarray(self.cov, dtype=float).reshape(m, m),
        )

    def __call__(self, x) -> Dist:
        a, b, s = self.arrays()
        flat = np.asarray(x, dtype=float).reshape(-1)
        return gaussian(euclid(self.out_dim), a @ flat + b, s)


# ---------------------------------------------------------------------------
# Monad operations


def pushforward(f, d: Dist, target: Space) -> Dist:
    """Image distribution over ``target`` of a finite-support ``d`` under the
    function ``f``; equal images merge as in ``categorical``.

    A Gaussian has no exact image under an opaque function: for an affine map
    bind it with a ``GaussianKernel`` (zero covariance for a deterministic
    map); for a nonlinear one draw with ``sample`` and transform the draws.
    """
    if isinstance(d, (Dirac, Categorical)):
        return categorical(target, [(f(a), w) for a, w in finite_items(d)])
    if isinstance(d, Gaussian):
        raise DistError(
            "pushforward of a Gaussian has no exact image; bind it with a "
            "GaussianKernel (zero covariance for an affine map), or draw with "
            "sample() and transform the draws"
        )
    raise DistError(f"not a distribution: {d!r}")


def bind(d: Dist, k) -> Dist:
    """Monad bind: average the kernel ``k`` over ``d`` (exact regimes only).
    A mixture of checked laws has its atoms merged (by ``==``, as in
    ``categorical``), pruned and checked, not its total."""
    if isinstance(d, Dirac):
        return _as_dist(k(d.point))
    if isinstance(d, Categorical):
        outs = [k(atom) for atom, _ in d.items]
        if all(out is outs[0] or out == outs[0] for out in outs):
            # constant kernel: the mixture is the common output itself, also
            # when equal laws are built apart, as the tables treat equal rows
            return _as_dist(outs[0])
        mixed: dict = {}
        space = None
        for (atom, w), out in zip(d.items, outs):
            if isinstance(out, Gaussian):
                raise DistError(
                    "mixture of Gaussians is not representable exactly; "
                    "use sample() for this composite"
                )
            for a2, w2 in finite_items(out):
                mixed[a2] = mixed.get(a2, 0.0) + w * w2
            space = out.space
        for a2 in mixed:
            check_point(space, a2)
        return _finite_law(space, tuple((a2, float(w)) for a2, w in mixed.items() if w != 0.0))
    if isinstance(d, Gaussian):
        if isinstance(k, GaussianKernel):
            a, b, s = k.arrays()
            mu = a @ d.mean_array() + b
            sig = a @ d.cov_array() @ a.T + s
            return gaussian(euclid(k.out_dim), mu, sig)
        raise DistError(
            "binding a Gaussian needs an affine-Gaussian kernel "
            "(GaussianKernel); otherwise use sample()"
        )
    raise DistError(f"not a distribution: {d!r}")


def kleisli_compose(k2, k1):
    """Composite kernel ``x -> bind(k1(x), k2)``, i.e. k2 after k1.

    When both kernels are affine-Gaussian the result is again a
    ``GaussianKernel`` (Chapman-Kolmogorov in closed form); otherwise it is a
    closure that mixes finite supports exactly.
    """
    if isinstance(k1, GaussianKernel) and isinstance(k2, GaussianKernel):
        a1, b1, s1 = k1.arrays()
        a2, b2, s2 = k2.arrays()
        return GaussianKernel.of(
            a2 @ a1,
            a2 @ b1 + b2,
            a2 @ s1 @ a2.T + s2,
        )

    def composite(x):
        mid = k1(x) if isinstance(k1, GaussianKernel) else _as_dist(k1(x))
        return bind(mid, k2)

    return composite


def _as_dist(v) -> Dist:
    """v, refused unless it is a law: the one check of a kernel's output."""
    if isinstance(v, (Dirac, Categorical, Gaussian)):
        return v
    raise DistError(f"kernel returned a non-distribution: {v!r}")


def dst(d1: Dist, d2: Dist) -> Dist:
    """Independent product distribution over Prod(X, Y).

    Finite x finite multiplies weights; Gaussian x Gaussian stacks means with
    block-diagonal covariance.  A Dirac over a Euclidean-shaped space pairs
    with a Gaussian as a zero-covariance block.  Factors are trusted as
    checked when they were built, finite ones like Gaussian blocks: each pair
    of atoms is a point of the product, so no atom is checked again, and the
    result equals ``categorical`` of the weighted pairs.  Only the product
    weights' sum (and sign) is checked, and of a Gaussian product only the
    means, coordinate by coordinate with ``math.isfinite`` (a law's mean holds
    Python floats); the covariance is not checked again.  Two Gaussians, the
    pair a Laplace stack's every absorb makes, are tried first.
    """
    space = prod(d1.space, d2.space)
    if isinstance(d1, Gaussian) and isinstance(d2, Gaussian):
        return _gaussian_product(space, d1, d2)
    if isinstance(d1, Dirac) and isinstance(d2, Dirac):
        return Dirac(space, (d1.point, d2.point))
    finite1 = isinstance(d1, (Dirac, Categorical))
    finite2 = isinstance(d2, (Dirac, Categorical))
    if finite1 and finite2:
        return _finite_law(space, product_items(finite_items(d1), finite_items(d2)))
    g1 = _as_gaussian(d1)
    g2 = _as_gaussian(d2)
    if g1 is None or g2 is None:
        raise DistError(
            "dst of a finite-support and a continuous factor is outside the "
            "exact regimes; use sample() on each factor"
        )
    return _gaussian_product(space, g1, g2)


def _gaussian_product(space: Space, g1: Gaussian, g2: Gaussian) -> Gaussian:
    """The independent product of two Gaussian laws over ``space``: stacked
    means, checked finite, and a block-diagonal covariance."""
    mean = g1.mean + g2.mean
    if not all(map(math.isfinite, mean)):
        raise DistError("mean and covariance must be finite")
    pad1, pad2 = (0.0,) * len(g1.mean), (0.0,) * len(g2.mean)
    cov = (*[row + pad2 for row in g1.cov], *[pad1 + row for row in g2.cov])
    return Gaussian(space, mean, cov)


def _as_gaussian(d: Dist):
    """Gaussian view of a Dist when one exists (Dirac over Euclid-shaped)."""
    if isinstance(d, Gaussian):
        return d
    if isinstance(d, Dirac) and _euclid_shaped(d.space):
        flat = flatten_floats(d.space, d.point)
        n = len(flat)
        return Gaussian(
            d.space,
            tuple(float(c) for c in flat),
            tuple(tuple(0.0 for _ in range(n)) for _ in range(n)),
        )
    return None


def _euclid_shaped(space: Space) -> bool:
    """Whether a space is built from Euclid, Prod and Unit parts alone."""
    if isinstance(space, ProdSpace):
        return all(_euclid_shaped(f) for f in space.factors)
    return isinstance(space, (EuclidSpace, UnitSpace))


def sample(d: Dist, rng: Rng) -> Any:
    """One draw from ``d``; deterministic given the Rng value."""
    if isinstance(d, Dirac):
        return d.point
    gen = rng.generator()
    if isinstance(d, Categorical):
        atoms = [a for a, _ in d.items]
        weights = np.asarray([w for _, w in d.items], dtype=float)
        weights = weights / weights.sum()
        return atoms[int(gen.choice(len(atoms), p=weights))]
    if isinstance(d, Gaussian):
        n = len(d.mean)
        if n == 0:
            return unflatten_floats(d.space, [])
        vals, vecs = np.linalg.eigh(d.cov_array())
        root = vecs @ np.diag(np.sqrt(np.clip(vals, 0.0, None)))
        draw = d.mean_array() + root @ gen.standard_normal(n)
        return unflatten_floats(d.space, draw.tolist())
    raise DistError(f"not a distribution: {d!r}")


# ---------------------------------------------------------------------------
# comparison


def dist_distance(d1: Dist, d2: Dist) -> float:
    """Sup-distance between two distributions of comparable kind, by the
    kinds of the pair:

    - two Diracs over Euclidean-shaped spaces compare as points, their
      coordinates entrywise (through their Gaussian views);
    - any other pair of Diracs and categorical laws compares atom-by-atom
      weights, so a finite mixture against a Dirac compares labels;
    - a Gaussian against a Gaussian, or against a Dirac over a
      Euclidean-shaped space, compares means and covariances entrywise;
    - a pair with no common reading is infinitely far apart.

    A law is at distance 0 from itself, whatever it holds, and a finite law
    is read once.  Only the law checks read it, with their tolerance; atoms
    merge, initial laws are told apart and walks are keyed by exact
    equality.
    """
    if d1 is d2:
        return 0.0
    both_points = isinstance(d1, Dirac) and isinstance(d2, Dirac)
    both_finite = isinstance(d1, (Dirac, Categorical)) and isinstance(d2, (Dirac, Categorical))
    if both_finite and not both_points:
        return _label_distance(d1, d2)
    g1 = _as_gaussian(d1)
    g2 = _as_gaussian(d2)
    if g1 is not None and g2 is not None and len(g1.mean) == len(g2.mean):
        # the mean stacked over the covariance rows, (n + 1) x n, one gap for both
        m1, m2 = (np.array((g.mean, *g.cov), dtype=float) for g in (g1, g2))
        # two overflowed points both at inf are NaN apart, which fails every
        # tolerance, with no warning
        with np.errstate(invalid="ignore"):
            gap = m1 - m2
        return float(np.max(np.abs(gap), initial=0.0))
    return _label_distance(d1, d2) if both_points else float("inf")


def _label_distance(d1: Dist, d2: Dist) -> float:
    """The largest weight gap over both supports, each law's weights read
    into a dict once."""
    w1, w2 = dict(finite_items(d1)), dict(finite_items(d2))
    return max(abs(w1.get(a, 0.0) - w2.get(a, 0.0)) for a in w1.keys() | w2.keys())
