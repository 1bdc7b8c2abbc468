"""Gaussian predictive processing as hierarchical open systems.

A level is a Gaussian channel: a differentiable mean map with a state-dependent
PSD covariance.  Against a Gaussian prior, a channel and an observation induce
an energy (joint negative log-density); the level keeps a running point
estimate of its latent, descends the energy gradient, and sets its covariance
to the inverse Gauss-Newton Hessian at the new mean.  The free energy of the
resulting Gaussian belief is the energy at the mean minus the belief entropy;
a second-order correction term makes it agree with the exact expected energy
for quadratic models.

``build_laplace`` packages one level as a bidirectional hierarchical system:
the forward input is a Gaussian prior over the latent, the forward output a
point prediction of the observation, the backward input the observed datum,
and the backward output the current latent estimate (which the level below
treats as *its* datum).  ``stack`` chains levels with ``hibi_compose``; each
level hands the next one a calibrated predictive prior instead of a point
mass, via ``forward_lift``: the channel's own law at the latent estimate, since
a ``GaussianChannel`` is callable as its kernel.

What never changes is checked once.  A constant covariance has its
conditioning checked when it is built (``_Guarded``); a linear channel's is
then also checked symmetric and PSD, so its laws ``ch(x)`` check only their
mean.  A level keeps the prior it receives with it (``_Prior``): the prior's
covariance is checked when it changes, not at every step.  A linear level
(constant Jacobian and covariance) has the same curvature at every mean, so
its belief covariance and the belief entropy are computed once per prior
covariance and kept there too, with the predicted observation's covariance
J Sigma_rho J^T + Sigma_gamma that belief gives.  Only nonlinear levels and
state-dependent covariances are checked at every step.

A level-step builds each law once.  A new belief is checked once, by
``dist.gaussian``'s checks on the inverse-Hessian array, and the level keeps
the checked, symmetrised array with the belief's covariance
(``_Prior.built``): the belief's entropy in ``run_stack``'s free energy and
the covariance its prediction propagates in ``mean_path`` read that array,
not one converted back from the stored tuple.  A level keeps its spaces and
the prior's mean as an array, so no step rebuilds them either.

A level evaluates its channel once per point (``_Evaluation``): the mean, the
covariance, its guard and the Jacobian at a latent estimate serve the energy,
its gradient and curvature, the channel's law and the level's prediction there.
The evaluation also keeps the precision-weighted errors it has solved, each
with the datum or the prior it was solved against, so the free energy at a new
mean and the next gradient step there solve only the side that changed, and
its law, built once.  A ``build_laplace`` level keeps its last evaluation in
its ``_Prior``, the one at its new mean, and reads it again only at a latent
with the same raw bytes (``_Prior.evaluated``): the next step's update and the
forward lifts of that step read it there.  So ``mean_path`` evaluates each
channel once per point, as ``run_stack`` does.

Every small-matrix LAPACK call of a level-step goes through the gufunc of
``numpy.linalg._umath_linalg`` that the ``numpy.linalg`` function wraps, with
the same arguments, so it gives the wrapper's bits: a solve through ``solve1``
or ``solve`` (``_Guarded.solve``), the condition number through ``svd``
(``_conditioning``), the log-determinant through ``slogdet``
(``_logdet_psd``), the inverse through ``inv`` (``_Guarded.inverse``) and the
PSD check of ``dist.gaussian`` through ``eigvalsh_lo``.  On 1 x 1 to 3 x 3
matrices each wrapper costs several times its LAPACK call, and a nonlinear
level's matrices change at every step.  The small checks skip numpy's
wrappers and reductions and decide as they did: a mean on its Python floats,
a covariance by one comparison per entry and check (``dist.gaussian``; NaN
fails every comparison) and its least eigenvalue on Python floats, a guard
through ``np.isfinite``; ``_matrix`` stands in for ``np.atleast_2d``.
Central differences write mean(x + dx) - mean(x - dx), each point a fresh
vector, into column k of one C-ordered Jacobian for the k-th step dx (kept
in ``_Prior.steps``), and divide once: every product with it computes the
bits the column-by-column loop gave.

A central difference is taken at x snapped to a grid of cell ``_R`` = 1e-10,
and a level keeps the last one with its grid point, for every x in that
cell (``_Evaluation.jacobian``), so a level's Jacobian is a function of its
latent estimate.  Taken at x itself, its rounding error (about eps / _H =
2e-10 per entry) differs at every x, so near the optimum every step moves
the mean by that noise and the descent never repeats a state.  The cell is
1e-10 because that is below this error: snapping moves the point by at most
5e-11, which changes the Jacobian by less than its own rounding does.

``run_stack`` is the iterate of one map on the levels' latent estimates, so
once a step leaves them, bit for bit, as an earlier step left them, the run
is in a cycle: it repeats the cycle's rows for the steps left and stops
there.  A fixed point is the cycle of period 1.  The descent reaches one on
the bundled linear specs (``laplace1d.json`` at step 126 of 400,
``laplace2level.json`` at step 1,114 of 4,000).  A nonlinear level stops
too: of the benchmark's nine seeded levels, five reach a fixed point by
step 168 of 800 and four a cycle of period 3 to 29 by step 155.
``mean_path`` has no such stop.
"""

from __future__ import annotations

import math
import numbers
from typing import Callable, Optional

import numpy as np
from numpy.linalg import _umath_linalg

from .dist import (
    Dist,
    DistError,
    Gaussian,
    _as_gaussian,
    _all_true,
    _checked_gaussian,
    _gaussian_from_checked,
    dst,
    gaussian,
)
from .hier import HierSystem, hibi_compose
from .poly import det_polymap, monomial, time_nat
from .spaces import (
    check_count,
    dist_space,
    euclid,
    euclid_dims,
    flatten_floats,
    prod,
    record,
    unflatten_floats,
)


class LaplaceError(ValueError):
    """Dimension mismatch or numerically unusable covariance/Hessian."""


_COND_LIMIT = 1e12
_TINY = float(np.finfo(float).tiny)  # the smallest normal float
_LOG_2PI = math.log(2.0 * math.pi)
_LOG_2PIE = math.log(2.0 * math.pi * math.e)
_H = 1e-6  # the step of a central difference
_R = 1e-10  # the cell of the grid a central difference is taken on
# the singular values alone: "svd" on numpy 2, "svd_n" (rows >= columns) on 1.x
_SVD = "svd" if hasattr(_umath_linalg, "svd") else "svd_n"


def _conditioning(sigma: np.ndarray) -> tuple:
    """The condition number of a finite float matrix, ``np.linalg.cond`` bit
    for bit (the largest singular value over the smallest, and inf when the
    smallest is 0), and its smallest singular value."""
    s = getattr(_umath_linalg, _SVD)(sigma, signature="d->d").tolist()
    if not s:
        raise np.linalg.LinAlgError("cond is not defined on empty arrays")
    return (s[0] / s[-1] if s[-1] > 0 else math.inf), s[-1]


def _matrix(a) -> np.ndarray:
    """``np.atleast_2d(a)`` of floats without its Python wrapper: an array of
    two or more dimensions as it is, a vector as one row, a scalar as 1 x 1."""
    a = np.asarray(a, dtype=float)
    return a if a.ndim >= 2 else a.reshape(1, -1)


def _logdet_psd(what: str, sigma: np.ndarray) -> float:
    """The log-determinant of ``sigma``, refused unless its sign is positive:
    ``np.linalg.slogdet`` bit for bit."""
    sign, logdet = _umath_linalg.slogdet(sigma, signature="d->dd")
    if sign <= 0 or not math.isfinite(logdet):
        raise LaplaceError(f"{what} has non-positive determinant")
    return float(logdet)


class _Constant:
    """A map with the same matrix at every x: an affine mean map's Jacobian,
    which marks a linear level, or a constant covariance (``_Guarded``)."""

    __slots__ = ("matrix",)

    def __init__(self, matrix: np.ndarray):
        self.matrix = matrix

    def __call__(self, x) -> np.ndarray:
        return self.matrix


class _Guarded(_Constant):
    """A matrix whose condition number and scale show that it can be solved
    against or inverted: its smallest singular value is a normal float, not
    a subnormal one, whose solves overflow.  The check runs once, when it is
    built; the log-determinant, the inverse and the law covariance
    (``law_cov``) are computed on first use and kept.  A constant channel
    covariance is one of these, callable as the channel's ``cov`` map.  The
    matrix is held as float64, as every solve and inverse computes it."""

    __slots__ = ("what", "_logdet", "_inverse", "_law_cov")

    def __init__(self, what: str, sigma):
        sigma = _matrix(sigma)
        if not _all_true(np.isfinite(sigma)):
            raise LaplaceError(f"{what} is not finite")
        cond, smallest = _conditioning(sigma)
        if not math.isfinite(cond) or cond > _COND_LIMIT:
            raise LaplaceError(f"{what} is numerically singular (condition number {cond:.3e})")
        # well conditioned, but of subnormal scale: its solves overflow
        if smallest < _TINY:
            raise LaplaceError(
                f"{what} is numerically singular (smallest singular value {smallest:.3e})"
            )
        self.what, self.matrix = what, sigma
        self._logdet = self._inverse = self._law_cov = None

    def solve(self, r: np.ndarray) -> np.ndarray:
        """``np.linalg.solve(self.matrix, r)`` bit for bit: the same gufunc,
        ``solve1`` for a vector and ``solve`` for a matrix, without the
        wrapper.  The wrapper's other job, raising ``LinAlgError`` when LAPACK
        meets an exactly zero pivot, cannot arise here: the factors with that
        pivot would be those of a singular matrix within LU's backward error,
        a few ulps times a growth factor of at most 2**(n - 1), but the guard
        keeps every matrix at least 1 / cond >= 1e-12 away from singular."""
        gufunc = _umath_linalg.solve1 if r.ndim == 1 else _umath_linalg.solve
        return gufunc(self.matrix, r, signature="dd->d")

    def logdet(self) -> float:
        if self._logdet is None:
            self._logdet = _logdet_psd(self.what, self.matrix)
        return self._logdet

    def inverse(self) -> np.ndarray:
        """``np.linalg.inv(self.matrix)`` bit for bit, through its gufunc.  The
        wrapper's ``LinAlgError`` for an exactly singular matrix cannot arise,
        for the reason given under ``solve``."""
        if self._inverse is None:
            self._inverse = _umath_linalg.inv(self.matrix, signature="d->d")
        return self._inverse

    def law_cov(self) -> tuple:
        """The matrix as a law's covariance (``Gaussian.cov``): checked
        symmetric and PSD by ``dist.gaussian``, and symmetrised."""
        if self._law_cov is None:
            n = len(self.matrix)
            self._law_cov = gaussian(euclid(n), np.zeros(n), self.matrix).cov
        return self._law_cov


class _Prior:
    """What a level keeps while it runs one channel: its spaces, whether the
    channel is linear, its central differences' coordinate steps (the rows of
    _H * I, built on first use) and the last central-difference Jacobian it
    took, with the bytes of the grid point it was taken at (``jacobian``,
    read by ``_Evaluation.jacobian``), the last prior it received and its
    last evaluation.

    The prior's covariance (``Gaussian.cov``) is kept with its guard, and the
    prior's mean as an array (``mean``).  A covariance is checked when it
    differs from the kept one, by identity and then by value; a failed check
    keeps nothing.  On a linear level the belief covariance and entropy that
    covariance gives are kept too, with the covariance of the observation
    predicted under that belief (``_Evaluation.prediction``).

    The covariance of the last belief the level built is kept with the
    checked, symmetrised array it was built from (``built``): that belief's
    entropy and prediction read the array, and any other belief's read its
    own tuple (``array``).  The level's last evaluation of its channel is kept
    here too (``evaluation``, read by ``evaluated``)."""

    __slots__ = (
        "linear", "latent", "observed", "steps", "pi", "cov", "guard", "mean",
        "belief_cov", "belief_entropy", "predicted_cov", "built", "evaluation",
        "jacobian",
    )

    def __init__(self, gamma: "GaussianChannel"):
        self.linear = isinstance(gamma.jacobian, _Constant) and isinstance(gamma.cov, _Guarded)
        self.latent, self.observed = euclid(gamma.in_dim), euclid(gamma.out_dim)
        self.pi = self.cov = self.guard = self.mean = self.evaluation = self.steps = None
        self.belief_cov = self.belief_entropy = self.predicted_cov = None
        self.built = self.jacobian = (None, None)

    def checked(self, pi: Gaussian) -> _Guarded:
        """The guard of pi's covariance, and pi's mean kept as an array."""
        if pi is not self.pi:
            cov = pi.cov
            if cov is not self.cov and cov != self.cov:
                sigma = np.asarray(cov, dtype=float)
                # its kept inverse and log-determinant must not drift from it
                sigma.flags.writeable = False
                self.guard = _Guarded("prior covariance", sigma)
                self.cov, self.belief_cov, self.predicted_cov = cov, None, None
            self.pi, self.mean = pi, pi.mean_array()
        return self.guard

    def array(self, rho: Gaussian) -> np.ndarray:
        """rho's covariance as an array: the one it was built from when rho is
        the last belief the level built, else read from its tuple."""
        cov, sigma = self.built
        return sigma if rho.cov is cov else rho.cov_array()

    def entropy(self, rho: Gaussian) -> float:
        """A belief's entropy, kept for a linear level's belief covariance."""
        if rho.cov is self.belief_cov:
            return self.belief_entropy
        return _entropy(self.array(rho))

    def evaluated(self, gamma: "GaussianChannel", x: np.ndarray) -> "_Evaluation":
        """The level's channel evaluated at x: the kept evaluation when its
        point has x's raw bytes (so -0.0 is not 0.0), as ``run_stack``'s stop
        compares, else a new one, which is kept.  An evaluation is a function
        of its point alone, and what it keeps of a datum or a prior is keyed
        by that object's identity.  So is its Jacobian: a central difference
        is taken at x's point of the grid of cell ``_R`` and kept here for
        every x of that cell, whatever path reached it
        (``_Evaluation.jacobian``)."""
        at = self.evaluation
        if at is None or at.x.tobytes() != x.tobytes():
            at = self.evaluation = _Evaluation(gamma, x, self)
        return at


@record
class GaussianChannel:
    """A channel x |-> N(mean(x), cov(x)) with an analytic Jacobian of the
    mean map.  With ``jacobian=None`` the gradient and the Gauss-Newton
    curvature use central differences of the mean map instead."""

    in_dim: int
    out_dim: int
    mean: Callable  # ndarray (in_dim,) -> ndarray (out_dim,)
    jacobian: Optional[Callable]  # ndarray (in_dim,) -> ndarray (out_dim, in_dim)
    cov: Callable  # ndarray (in_dim,) -> ndarray (out_dim, out_dim)

    def __call__(self, x) -> Gaussian:
        """The channel's law at x, as a kernel: N(mean(x), cov(x))."""
        return _Evaluation(self, self._point(x), _Prior(self)).law()

    def _point(self, x) -> np.ndarray:
        """x as a vector, refused unless it has the channel's input size."""
        xv = np.asarray(x, dtype=float).reshape(-1)
        if xv.size != self.in_dim:
            raise LaplaceError(
                f"channel with in_dim {self.in_dim} called at a point of size {xv.size}"
            )
        return xv


def linear_channel(matrix, offset=None, cov=None) -> GaussianChannel:
    """Channel with affine mean Ax + b and constant covariance, which is
    checked here, once: well conditioned, symmetric and PSD."""
    a = np.atleast_2d(np.array(matrix, dtype=float))
    out_dim, in_dim = a.shape
    b = np.zeros(out_dim) if offset is None else np.asarray(offset, dtype=float).reshape(-1)
    s = np.eye(out_dim) if cov is None else np.atleast_2d(np.array(cov, dtype=float))
    if b.shape != (out_dim,) or s.shape != (out_dim, out_dim):
        raise LaplaceError("offset/cov dimensions do not match the matrix")
    # the channel's own copies, read-only: what is kept from them (the
    # covariance's inverse and log-determinant, the belief covariance) must
    # not drift from them
    a.flags.writeable = s.flags.writeable = False
    sig = _Guarded("channel covariance", s)
    try:
        sig.law_cov()
    except DistError as exc:
        raise LaplaceError(f"channel {exc}") from None
    return GaussianChannel(
        in_dim,
        out_dim,
        mean=lambda x: a @ np.asarray(x, dtype=float) + b,
        jacobian=_Constant(a),
        cov=sig,
    )


def mk_state(mean, cov) -> Gaussian:
    """A Gaussian belief over ``euclid(len(mean))``; ``dist.gaussian`` checks
    the mean and the covariance, on every call.  A belief update builds its
    belief on the inverse-Hessian array itself (``_Evaluation.update``)."""
    m = np.asarray(mean, dtype=float).reshape(-1)
    c = _matrix(cov)
    if c.shape != (m.size, m.size):
        raise LaplaceError(f"covariance shape {c.shape} does not fit mean of size {m.size}")
    return gaussian(euclid(m.size), m, c)


def state_dist(state: Gaussian) -> Gaussian:
    """Identity: beliefs are already ``Gaussian`` laws.  Kept because the
    benchmark workloads (``perfbench/workloads.py``) call it."""
    return state


@record
class LaplaceConfig:
    """The gradient-descent step size (the learning rate lambda) of every
    belief update: a finite, non-negative real number, kept as a Python
    float, and never a bool, as for a count (``spaces.check_count``); 0
    freezes the mean.  A run lasts as many steps as its caller asks for
    (``run_stack``, ``mean_path``)."""

    rate: float = 0.05

    def __post_init__(self):
        rate = self.rate
        if not isinstance(rate, numbers.Real) or isinstance(rate, bool):
            raise LaplaceError(f"learning rate must be a real number, got {rate!r}")
        try:
            value = float(rate)
        except OverflowError:  # an integer past the largest float
            value = math.inf
        if not (value >= 0 and math.isfinite(value)):
            raise LaplaceError(f"learning rate must be finite and non-negative, got {rate}")
        object.__setattr__(self, "rate", value)


class _Evaluation:
    """A channel evaluated at one point x for a level with ``prior``: the
    mean and the covariance there, with the covariance's guard and the mean
    map's Jacobian computed on first use.  Every function of the channel at x
    reads this one value, and ``run_stack`` carries it from the step that
    reaches x to the next one.  It keeps the last errors it solved on each
    side (``errors``): against the datum, with that datum, and against the
    prior, with that prior."""

    __slots__ = (
        "gamma", "x", "prior", "mean", "cov", "_guard", "_jacobian", "_law",
        "_datum", "_datum_errors", "_pi", "_prior_errors",
    )

    def __init__(self, gamma: GaussianChannel, x: np.ndarray, prior: _Prior):
        n = gamma.out_dim
        mean, cov = np.asarray(gamma.mean(x), dtype=float), _matrix(gamma.cov(x))
        if mean.size != n or cov.shape != (n, n):
            raise LaplaceError(
                f"channel with out_dim {n} gave a mean of size {mean.size} "
                f"and a covariance of shape {cov.shape}"
            )
        self.gamma, self.x, self.prior, self.mean, self.cov = gamma, x, prior, mean, cov
        self._guard = self._jacobian = self._law = self._datum = self._pi = None

    def guard(self) -> _Guarded:
        """The covariance, checked here unless it is a constant one, which was
        checked when the channel was built."""
        if self._guard is None:
            constant = isinstance(self.gamma.cov, _Guarded)
            self._guard = self.gamma.cov if constant else _Guarded("channel covariance", self.cov)
        return self._guard

    def jacobian(self) -> np.ndarray:
        """Jacobian of the mean map at x: the channel's own, or central
        differences when it has none.

        A central difference is taken at x snapped to the grid of cell
        ``_R``, the nearest multiple of ``_R`` in each coordinate, so it is a
        function of x's cell alone, in ``run_stack``, ``mean_path`` and the
        one-shot functions alike; the level keeps the last one with the
        snapped point's bytes and reads it again at any x of that cell
        (``_Prior.jacobian``).  Snapping moves the point by at most
        _R / 2 = 5e-11, which changes the Jacobian by about 5e-11 times the
        mean map's second derivative: less than the difference's own
        rounding error, about eps / _H = 2e-10 per entry.  Where any
        coordinate's ulp may exceed ``_R`` (|x| above 2**52 * _R, about
        4.5e5), and so also where x / _R would overflow or x is not finite,
        the difference is taken at x itself."""
        if self._jacobian is None:
            gamma, x = self.gamma, self.x
            if gamma.jacobian is not None:
                self._jacobian = _matrix(gamma.jacobian(x))
            else:
                # snapped on its Python floats where x's ulp, at most
                # 2**-52 |x|, is at most _R
                xs = x.tolist()
                if all(abs(v) <= _R * 2.0**52 for v in xs):
                    x = np.array([round(v / _R) * _R for v in xs])
                prior, cell = self.prior, x.tobytes()
                kept, jac = prior.jacobian
                if kept != cell:
                    if prior.steps is None:
                        prior.steps = tuple(_H * np.eye(x.size))
                    # column k from the k-th step dx; C order, as every
                    # product with it computes its bits
                    mean, jac = gamma.mean, np.empty((gamma.out_dim, x.size))
                    for k, dx in enumerate(prior.steps):
                        np.subtract(mean(x + dx), mean(x - dx), out=jac[:, k])
                    jac /= 2.0 * _H
                    # shared by every evaluation in the cell: nothing writes it
                    jac.flags.writeable = False
                    prior.jacobian = cell, jac
                self._jacobian = jac
        return self._jacobian

    def law(self) -> Gaussian:
        """The channel's law at x, N(mean(x), cov(x)), built on first use and
        kept."""
        if self._law is None:
            space = self.prior.observed
            if isinstance(self.gamma.cov, _Guarded):
                # checked and symmetrised once, when the channel was built
                self._law = _gaussian_from_checked(space, self.mean, self.gamma.cov.law_cov())
            else:
                self._law = gaussian(space, self.mean, self.cov)
        return self._law

    def errors(self, pi: Gaussian, y: np.ndarray) -> tuple:
        """Prediction errors of the observation and of the prior at x, each
        with its precision-weighted form: (eps_g, eta_g, eps_p, eta_p).  A
        side is solved again only for a datum or a prior other than (by
        identity) the one it was last solved against: both are read, never
        written, while a level runs."""
        if y is not self._datum:
            eps_g = y - self.mean
            self._datum_errors, self._datum = (eps_g, self.guard().solve(eps_g)), y
        if pi is not self._pi:
            prior = self.prior
            guard = prior.checked(pi)
            eps_p = self.x - prior.mean
            self._prior_errors, self._pi = (eps_p, guard.solve(eps_p)), pi
        return self._datum_errors + self._prior_errors

    def energy(self, pi: Gaussian, y: np.ndarray) -> float:
        eps_g, eta_g, eps_p, eta_p = self.errors(pi, y)
        gamma = self.gamma
        quad = 0.5 * float(eps_g.dot(eta_g)) + 0.5 * float(eps_p.dot(eta_p))
        # built: the datum's side was solved through it
        norm = 0.5 * (
            gamma.out_dim * _LOG_2PI
            + self._guard.logdet()
            + gamma.in_dim * _LOG_2PI
            + self.prior.checked(pi).logdet()
        )
        return quad + norm

    def gradient(self, pi: Gaussian, y: np.ndarray) -> np.ndarray:
        _, eta_g, _, eta_p = self.errors(pi, y)
        return -self.jacobian().T @ eta_g + eta_p

    def curvature(self, pi: Gaussian) -> np.ndarray:
        jac = self.jacobian()
        return jac.T @ self.guard().solve(jac) + self.prior.checked(pi).inverse()

    def update(self, pi: Gaussian, y: np.ndarray, cfg: LaplaceConfig) -> tuple:
        """``rho_update`` from mean x, and the channel evaluated at the new
        mean.  A new belief is checked once, on the inverse-Hessian array,
        and the level keeps that array with it (``_Prior.built``)."""
        prior = self.prior
        new_mean = self.x - cfg.rate * self.gradient(pi, y)
        at_new = _Evaluation(self.gamma, new_mean, prior)
        # the kept belief covariance is the one pi's covariance gives
        prior.checked(pi)
        if prior.belief_cov is not None:
            return _gaussian_from_checked(prior.latent, new_mean, prior.belief_cov), at_new
        hessian = _Guarded("energy Hessian", at_new.curvature(pi))
        rho, sigma = _checked_gaussian(prior.latent, self.gamma.in_dim, new_mean, hessian.inverse())
        prior.built = rho.cov, sigma
        if prior.linear:
            # the same curvature at every mean: kept for this prior covariance
            prior.belief_cov, prior.belief_entropy = rho.cov, _entropy(sigma)
        return rho, at_new

    def prediction(self, rho: Gaussian) -> Gaussian:
        """The law of the observation under belief rho about x, linearised at
        x: N(mean(x), J Sigma_rho J^T + cov(x)).  On a linear level its
        covariance is checked once per belief covariance, and kept."""
        prior = self.prior
        kept = rho.cov is prior.belief_cov
        if kept and prior.predicted_cov is not None:
            return _gaussian_from_checked(prior.observed, self.mean, prior.predicted_cov)
        jac = self.jacobian()
        law = gaussian(prior.observed, self.mean, jac @ prior.array(rho) @ jac.T + self.cov)
        if kept:
            prior.predicted_cov = law.cov
        return law


def _evaluate(pi: Gaussian, gamma: GaussianChannel, x, y, prior: _Prior) -> tuple:
    """The channel evaluated at x for a level that keeps ``prior`` (its kept
    evaluation when that is at x: ``_Prior.evaluated``), and y as a vector,
    once x, y and the prior are checked to fit the channel."""
    xv = np.asarray(x, dtype=float).reshape(-1)
    yv = np.asarray(y, dtype=float).reshape(-1)
    if xv.size != gamma.in_dim or yv.size != gamma.out_dim:
        raise LaplaceError(
            f"point dims ({xv.size}, {yv.size}) do not match channel "
            f"({gamma.in_dim} -> {gamma.out_dim})"
        )
    if len(pi.mean) != gamma.in_dim:
        raise LaplaceError("prior dimension does not match the channel input")
    return prior.evaluated(gamma, xv), yv


def energy(pi: Gaussian, gamma: GaussianChannel, x, y) -> float:
    """Joint surprisal -log p(y|x) - log p(x) for Gaussian channel and prior."""
    at, yv = _evaluate(pi, gamma, x, y, _Prior(gamma))
    return at.energy(pi, yv)


def grad_energy(pi: Gaussian, gamma: GaussianChannel, x, y) -> np.ndarray:
    """Energy gradient in the latent, with the channel covariance treated as
    locally constant: -J(x)^T eta_gamma + eta_pi."""
    at, yv = _evaluate(pi, gamma, x, y, _Prior(gamma))
    return at.gradient(pi, yv)


def hessian_energy(pi: Gaussian, gamma: GaussianChannel, x, y) -> np.ndarray:
    """Gauss-Newton curvature J^T Sigma_gamma^{-1} J + Sigma_pi^{-1}, with the
    channel's Jacobian or its central-difference estimate."""
    return _evaluate(pi, gamma, x, y, _Prior(gamma))[0].curvature(pi)


def sigma_star(pi: Gaussian, gamma: GaussianChannel, mu_rho, y) -> np.ndarray:
    """Optimal belief covariance: the inverse energy curvature at the mean."""
    return _Guarded("energy Hessian", hessian_energy(pi, gamma, mu_rho, y)).inverse()


def gaussian_entropy(state: Gaussian) -> float:
    return _entropy(state.cov_array())


def _entropy(sigma: np.ndarray) -> float:
    """The entropy of a Gaussian law with covariance array sigma."""
    return 0.5 * (len(sigma) * _LOG_2PIE + _logdet_psd("belief covariance", sigma))


def free_energy_laplace(
    pi: Gaussian, gamma: GaussianChannel, rho_state: Gaussian, y
) -> float:
    """Free energy of a Gaussian belief, Laplace form: energy at the belief
    mean minus the belief entropy."""
    at, yv = _evaluate(pi, gamma, rho_state.mean_array(), y, _Prior(gamma))
    return at.energy(pi, yv) - gaussian_entropy(rho_state)


def free_energy_second_order(
    pi: Gaussian, gamma: GaussianChannel, rho_state: Gaussian, y
) -> float:
    """Free energy with the second-order expected-energy correction
    (1/2) tr(H Sigma_rho); exact for linear channels, where the energy is
    quadratic in the latent."""
    at, yv = _evaluate(pi, gamma, rho_state.mean_array(), y, _Prior(gamma))
    return at.energy(pi, yv) - gaussian_entropy(rho_state) + 0.5 * float(
        np.trace(at.curvature(pi) @ rho_state.cov_array())
    )


def rho_update(
    x, pi: Gaussian, y, gamma: GaussianChannel, cfg: LaplaceConfig
) -> Gaussian:
    """One belief update: step the mean down the energy gradient, then set the
    covariance to the optimal one at the new mean."""
    at, yv = _evaluate(pi, gamma, x, y, _Prior(gamma))
    return at.update(pi, yv, cfg)[0]


# ---------------------------------------------------------------------------
# one level as a hierarchical system, and stacks of levels


def build_laplace(gamma: GaussianChannel, cfg: LaplaceConfig) -> HierSystem:
    """One predictive level as a bidirectional system.

    State: (latent estimate x, current prediction y).  The emitted lens, a
    ``det_polymap``, shows the prediction forward and passes the latent
    estimate backward as a point mass; the update runs one gradient/covariance
    step against the prior arriving on the forward wire and the datum
    arriving on the backward wire, then redraws the state pair from the new
    belief and its pushforward prediction (drawn independently)."""
    X = euclid(gamma.in_dim)
    Y = euclid(gamma.out_dim)
    source = monomial(dist_space(X), X)
    target = monomial(Y, Y)
    states = prod(X, Y)
    # safe to share between composites: every read checks the covariance, and
    # the kept evaluation is read only at a latent with its raw bytes
    prior = _Prior(gamma)

    def emit(xy):
        x, ypred = xy
        return det_polymap(source, target, lambda pi_in: ypred, lambda pi_in, datum: x)

    def absorb(xy, pi_in, datum):
        x, _ = xy
        # a point mass is a zero-covariance belief, which the energy rejects
        # as numerically singular
        pi = _as_gaussian(pi_in)
        if pi is None:
            raise LaplaceError(
                f"expected a Gaussian belief on the forward wire, got {pi_in!r}"
            )
        at, yv = _evaluate(pi, gamma, x, datum, prior)
        rho, at_new = at.update(pi, yv, cfg)
        # the next step starts at rho's mean, and the forward lift reads it there
        prior.evaluation = at_new
        return dst(rho, at_new.prediction(rho))

    def forward_lift(xy, b):
        return prior.evaluated(gamma, gamma._point(xy[0])).law()

    return HierSystem(
        source, target, states, time_nat(), emit, absorb, forward_lift=forward_lift
    )


def _check_levels(levels) -> None:
    """A stack has a level, and each level observes the latent above it."""
    if not levels:
        raise LaplaceError("a stack needs at least one level")
    for low, high in zip(levels, levels[1:]):
        if low.out_dim != high.in_dim:
            raise LaplaceError(
                f"adjacent levels disagree: {low.out_dim} -> {high.in_dim}"
            )


def _finite_datum(datum) -> np.ndarray:
    """The clamped datum as a vector, refused when it is not finite."""
    datum_v = np.asarray(datum, dtype=float).reshape(-1)
    if not np.isfinite(datum_v).all():
        raise LaplaceError(f"datum {datum_v.tolist()} is not finite")
    return datum_v


def stack(levels, cfg: LaplaceConfig) -> HierSystem:
    """Chain predictive levels bottom-to-top; each level's channel pushes a
    calibrated prior up to the next."""
    _check_levels(levels)
    systems = [build_laplace(ch, cfg) for ch in levels]
    out = systems[0]
    for hs in systems[1:]:
        out = hibi_compose(out, hs)
    return out


def mean_path(hs: HierSystem, pi0: Dist, datum, steps: int):
    """Deterministic skeleton of a (stacked) level system: iterate the state
    update from the zero state, replacing each stochastic state draw by its
    mean.  Exact for the mean dynamics of linear channels.  Returns the list
    of flattened state vectors, one per step, starting with the initial.
    ``steps`` is a count (``spaces.check_count``)."""
    steps = check_count(steps, "steps", LaplaceError)
    datum = tuple(_finite_datum(datum))
    point = unflatten_floats(hs.states, (0.0,) * euclid_dims(hs.states))
    path = [tuple(flatten_floats(hs.states, point))]
    for _ in range(steps):
        law = hs.absorb(point, pi0, datum)
        if not isinstance(law, Gaussian):
            raise LaplaceError("state update did not produce a Gaussian law")
        point = unflatten_floats(hs.states, law.mean)
        path.append(law.mean)
    return path


def run_stack(levels, cfg: LaplaceConfig, pi0: Gaussian, datum, steps: int):
    """Reference runner for a predictive hierarchy, level by level.

    Keeps one latent estimate per level; at each step every level updates
    simultaneously against the prior pushed up from below (the raw prior for
    the bottom level) and the datum passed down from above (the clamped datum
    for the top level).  Produces one record per (step, level) with the new
    mean and the level's free energy.  Agrees with the mean dynamics of
    ``stack`` under ``mean_path``.  A level's channel, evaluated once at each
    new mean, gives its free energy, the prior it pushes up and its next step.

    A step's rows and new means depend only on the levels' latent estimates:
    each channel is a function of its point (its central-difference Jacobian
    one of the point's cell: ``_Evaluation.jacobian``), ``pi0``, the datum
    and ``cfg`` are fixed, and what a level keeps (its ``_Prior``, its solved
    errors) holds only values computed from them.  So once step s leaves
    every latent estimate as an earlier step j left them, bit for bit (raw
    bytes, so -0.0 is not 0.0; step 0 leaves the zero means), the run has
    entered a cycle of period s - j: every later step repeats the one s - j
    steps before it.  The run appends the rows of steps j + 1 to s, in
    turn and renumbered, for each remaining step, and stops.  A fixed point
    is the cycle of period 1, where step s's rows repeat.  ``steps`` is a
    count (``spaces.check_count``)."""
    _check_levels(levels)
    steps = check_count(steps, "steps", LaplaceError)
    datum_v = _finite_datum(datum)
    if datum_v.size != levels[-1].out_dim:
        raise LaplaceError("datum dimension does not match the top level")
    if len(pi0.mean) != levels[0].in_dim:
        raise LaplaceError("prior dimension does not match the bottom level")
    points = [_Evaluation(ch, np.zeros(ch.in_dim), _Prior(ch)) for ch in levels]
    depth, top = len(levels), len(levels) - 1
    rows = []
    # the step after which each state of the latent estimates was first seen
    seen = {b"".join(at.x.tobytes() for at in points): 0}
    step = k = 0
    try:
        # a descent that overflows is refused below, by step and level, where
        # dist.gaussian meets its non-finite mean
        with np.errstate(over="ignore", invalid="ignore"):
            for step in range(1, steps + 1):
                # every prior is pushed up before any level moves
                priors = [pi0, *[at.law() for at in points[:top]]]
                new_points = []
                for k, at in enumerate(points):
                    pi, y = priors[k], datum_v if k == top else points[k + 1].x
                    rho, at_new = at.update(pi, y, cfg)
                    rows.append((step, k, rho.mean, at_new.energy(pi, y) - at.prior.entropy(rho)))
                    new_points.append(at_new)
                first = seen.setdefault(b"".join(at.x.tobytes() for at in new_points), step)
                if first < step:
                    # step `later` repeats step first + 1 + (later - step - 1) % period
                    cycle, period = rows[first * depth:], step - first
                    for later in range(step + 1, steps + 1):
                        i = (later - step - 1) % period * depth
                        rows += [(later, *row[1:]) for row in cycle[i:i + depth]]
                    break
                points = new_points
    except DistError as exc:
        raise LaplaceError(f"the descent failed at step {step}, level {k}: {exc}") from None
    return rows
