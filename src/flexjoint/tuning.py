"""Sequential model-based optimization of controller parameters.

A Gaussian-process surrogate (squared-exponential kernel with per-dimension
length scales) is fitted to all evaluated (parameters, cost) pairs; the next
candidate maximizes the upper confidence bound mean + h*stddev.  Inputs are
normalized to the unit box and costs standardized before fitting, which
keeps the covariance well conditioned across search ranges of very
different widths (e.g. kp in [0, 150] against kd in [0, 30]).
"""

from __future__ import annotations

import importlib.util
import math
import operator
import os
import sys
from dataclasses import dataclass, field
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader, FileFinder

import numpy as np

from .control import (Controller, ControllerKind, DivergedTrajectory, GainSet,
                      Reference, simulate)
from .fuzzy import FlrBounds
from .metrics import FAILED_COST, tracking_cost
from .plant import DisturbanceModel, PlantParams, SimConfig


def _scipy_extension(name: str):
    """scipy's compiled module `name`, loaded from its file in the scipy
    install without running the inits of scipy.linalg and scipy.optimize,
    which load some 320 scipy modules and numpy.f2py, numpy.testing and
    numpy.ma on the way to the three functions the tuner calls.  The module
    goes into sys.modules, and an entry already there is reused, so tuning
    and scipy share one module object whichever is imported first.  As for
    any module imported before its package, a package init that runs later
    finds it there but does not bind it as the package's attribute:
    `from scipy.optimize._lbfgsb import setulb` reaches it, but after
    `import scipy.optimize` the attribute `scipy.optimize._lbfgsb` stays
    unset."""
    if name in sys.modules:
        return sys.modules[name]
    scipy = importlib.util.find_spec("scipy")
    spec = None
    if scipy is not None and scipy.submodule_search_locations:
        package = name.rpartition(".")[0].split(".")[1:]
        finder = FileFinder(os.path.join(scipy.submodule_search_locations[0], *package),
                            (ExtensionFileLoader, EXTENSION_SUFFIXES))
        spec = finder.find_spec(name)
    if spec is None or not isinstance(spec.loader, ExtensionFileLoader):
        raise ImportError(f"tuning needs the compiled module {name} of "
                          f"scipy>=1.15,<1.18, and it was not found", name=name)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    sys.modules[name] = module
    return module


# LAPACK's Cholesky factor and solve, and the C L-BFGS-B step: the objects
# that scipy.linalg.lapack and scipy.optimize._lbfgsb export
_flapack = _scipy_extension("scipy.linalg._flapack")
dpotrf, dpotrs = _flapack.dpotrf, _flapack.dpotrs
setulb = _scipy_extension("scipy.optimize._lbfgsb").setulb

# log-space hyperparameter boxes (normalized inputs, standardized outputs)
_LEN_BOUNDS = (math.log(1e-2), math.log(1e2))
_SIG_BOUNDS = (math.log(1e-4), math.log(1e2))
_NOISE_RATIO_BOUNDS = (math.log(1e-8), math.log(1e-1))
_JITTERS = (0.0, 1e-10, 1e-8, 1e-6, 1e-4, 1e-2)
# L-BFGS-B starts per likelihood fit, Sobol candidates per UCB scan, and
# Nelder-Mead searches from the best candidates
FIT_STARTS = 8
SOBOL_CANDIDATES = 2048
LOCAL_SEARCHES = 8


# Joe & Kuo's (2008) primitive polynomials, degree bits included, and
# initial direction numbers for the first SOBOL_MAX_DIM Sobol dimensions;
# the first dimension is the van der Corput sequence
_SOBOL_POLY = (1, 3, 7, 11, 13, 19, 25, 37)
_SOBOL_VINIT = ((), (1,), (1, 3), (1, 3, 1), (1, 1, 1), (1, 1, 3, 3),
                (1, 3, 5, 13), (1, 1, 5, 5, 17))
SOBOL_MAX_DIM = len(_SOBOL_POLY)
_SOBOL_BITS = 30
_MSB_FIRST = np.left_shift(1, np.arange(_SOBOL_BITS - 1, -1, -1))


def _direction_numbers() -> np.ndarray:
    """(SOBOL_MAX_DIM, 30) direction numbers v[d, j], bit 29 - j leading."""
    rows = []
    for p, vinit in zip(_SOBOL_POLY, _SOBOL_VINIT):
        m = p.bit_length() - 1
        v = list(vinit) or [1] * _SOBOL_BITS
        for j in range(len(v), _SOBOL_BITS):
            new = v[j - m]
            for k in range(m):
                if p >> (m - 1 - k) & 1:
                    new ^= v[j - k - 1] << (k + 1)
            v.append(new)
        rows.append(v)
    return np.array(rows) * _MSB_FIRST


_SOBOL_V = _direction_numbers()


def _check_sobol_dim(d: int) -> None:
    if d > SOBOL_MAX_DIM:
        raise ValueError(f"Sobol draws have direction numbers for at most "
                         f"{SOBOL_MAX_DIM} dimensions, got {d}")


def sobol(d: int, n: int, seed: int) -> np.ndarray:
    """The first n points of a d-dimensional Sobol sequence with
    Matousek's linear matrix scramble and a digital shift, bit for bit
    scipy.stats.qmc.Sobol(d, scramble=True, seed=seed).random(n): 30-bit
    integers from default_rng(seed), which draws the shift's bits (least
    significant first), then lower-triangular 0/1 scramble matrices with
    unit diagonals.  Bit 29 - p of a scrambled direction number is the
    parity of row p (most significant first) AND the number; points follow
    in Gray-code order from the shift."""
    _check_sobol_dim(d)
    rng = np.random.default_rng(seed)
    bits = rng.integers(2, size=(d, _SOBOL_BITS), dtype=np.uint32)
    shift = bits @ _MSB_FIRST[::-1]
    ltm = np.tril(rng.integers(2, size=(d, _SOBOL_BITS, _SOBOL_BITS),
                               dtype=np.uint32))
    ltm[:, np.arange(_SOBOL_BITS), np.arange(_SOBOL_BITS)] = 1
    v_bits = (_SOBOL_V[:d, :, None] & _MSB_FIRST) > 0  # (d, j, bit), MSB first
    sv = ((v_bits @ ltm.transpose(0, 2, 1)) & 1) @ _MSB_FIRST  # (d, j)
    # point i > 0 flips the direction number at the lowest zero bit of i - 1
    i = np.arange(1, n)
    flips = sv[:, np.bitwise_count((i & -i) - 1)].T
    quasi = np.bitwise_xor.accumulate(np.vstack([shift, flips])[:n], axis=0)
    return quasi * 2.0 ** -_SOBOL_BITS


def latin_hypercube(d: int, n: int, seed: int) -> np.ndarray:
    """n points of a d-dimensional Latin hypercube with one point at a
    uniform place in each of the n strata of every axis, bit for bit
    scipy.stats.qmc.LatinHypercube(d, seed=seed).random(n)."""
    rng = np.random.default_rng(seed)
    samples = rng.uniform(size=(n, d))
    perms = np.tile(np.arange(1, n + 1), (d, 1))
    for row in perms:
        rng.shuffle(row)
    return (perms.T - samples) / n


@dataclass(frozen=True)
class Domain:
    """Axis-aligned search box with named dimensions (arrays built once),
    at most SOBOL_MAX_DIM, so every surrogate input is at most 8-D."""

    names: tuple[str, ...]
    lo: tuple[float, ...]
    hi: tuple[float, ...]

    def __post_init__(self):
        if not (len(self.names) == len(self.lo) == len(self.hi)):
            raise ValueError("names, lo, hi must have equal length")
        _check_sobol_dim(len(self.names))
        for name, a, b in zip(self.names, self.lo, self.hi):
            if not (math.isfinite(a) and math.isfinite(b)):
                raise ValueError(f"dimension {name}: bounds must be finite, "
                                 f"got [{a}, {b}]")
            if a > b:
                raise ValueError(f"dimension {name}: lo {a} > hi {b}")
            if not math.isfinite(b - a):
                raise ValueError(f"dimension {name}: width {b} - {a} overflows")
        object.__setattr__(self, "_lo", np.array(self.lo))
        object.__setattr__(self, "_hi", np.array(self.hi))
        object.__setattr__(self, "_width", np.maximum(self._hi - self._lo, 1e-300))

    @property
    def dim(self) -> int:
        return len(self.names)

    def normalize(self, X: np.ndarray) -> np.ndarray:
        return (np.atleast_2d(X) - self._lo) / self._width

    def denormalize(self, U: np.ndarray) -> np.ndarray:
        return np.atleast_2d(U) * self._width + self._lo

    def clip(self, x: np.ndarray) -> np.ndarray:
        return np.clip(x, self._lo, self._hi)


MAX_EPISODES = 10_000


@dataclass(frozen=True)
class TunerConfig:
    """SMBO settings: T total episodes, n_init initial Latin-hypercube
    samples, h the UCB exploration coefficient, seed >= 0; T, n_init and
    seed are ints, not bools.

    T is at most MAX_EPISODES, and the paper tunes for 150 episodes.  A
    one-row likelihood call over n episodes holds 2d + 6 (n, n) float64
    planes, 14 at d = 4 and 22 at d = 8: the (d + 1) planes Z, K, its
    factor, its inverse, W and the (d + 1) gradient planes; about 11 GB
    and 18 GB at n = 10**4 (a test traces the count at n = 149).  The
    likelihood's batches and the UCB scan's blocks of query rows share one
    256 KiB budget (_BATCH_BYTES), so a scan of SOBOL_CANDIDATES points
    peaks within 4 budgets (2.3 at d = 4) and d + 2 float64 per query at
    any n, not at about 5 (m, n) float64 planes (12 MB at n = 149; a test
    traces the bound at d = 4 and 8).  h lies
    in [0, 1e6]: the GP-UCB coefficient is non-negative, and the
    posterior stddev is at most 10 times the costs' standard deviation
    (signal variance <= 1e2), so h*stddev stays far from overflow.
    """

    T: int = 150
    n_init: int = 10
    h: float = 2.576
    seed: int = 0

    def __post_init__(self):
        for name in ("T", "n_init", "seed"):
            v = getattr(self, name)
            if isinstance(v, bool) or not isinstance(v, int):
                raise ValueError(f"tuner {name} must be an int, got {v!r}")
        if self.n_init < 1 or self.T < self.n_init:
            raise ValueError("need n_init >= 1 and T >= n_init")
        if self.T > MAX_EPISODES:
            raise ValueError(f"tuner T must be at most {MAX_EPISODES}, got {self.T}")
        if not 0.0 <= self.h <= 1e6:
            raise ValueError(f"h must be finite and in [0, 1e6], got {self.h}")
        if self.seed < 0:
            raise ValueError(f"tuner seed must be >= 0, got {self.seed!r}")


@dataclass(frozen=True)
class GpModel:
    """Fitted GP state over normalized inputs / standardized targets.

    theta = (log length scales per dim, log signal variance,
    log noise-to-signal ratio); chol is the lower Cholesky factor of the
    training covariance (including any jitter used to factor it).
    Construction checks the factor as cho_solve would and caches, for
    gp_predict, the transposed training inputs XnT shaped (d, 1, n) to
    subtract from its (d, rows, 1) queries, the squared length scales ls2
    shaped (d, 1, 1) to divide its (d, rows, n) planes, signal_variance,
    and block_rows, the most query rows whose differences fit in
    _BATCH_BYTES.
    """

    domain: Domain
    Xn: np.ndarray
    theta: np.ndarray
    y_mean: float
    y_std: float
    alpha: np.ndarray = field(repr=False)
    chol: np.ndarray = field(repr=False)

    def __post_init__(self):
        if np.asarray_chkfinite(self.chol).shape != (len(self.Xn),) * 2:
            raise ValueError("Cholesky factor must be n x n for n points")
        n, d = self.Xn.shape
        object.__setattr__(self, "XnT", np.ascontiguousarray(self.Xn.T)[:, None])
        object.__setattr__(self, "ls2", (self.length_scales ** 2)[:, None, None])
        object.__setattr__(self, "signal_variance", float(np.exp(self.theta[-2])))
        object.__setattr__(self, "block_rows", max(1, _BATCH_BYTES // (8 * d * n)))

    @property
    def length_scales(self) -> np.ndarray:
        return np.exp(self.theta[:-2])


def _sum_planes(D: np.ndarray) -> np.ndarray:
    """The sum of the d <= SOBOL_MAX_DIM planes D[0], ..., D[d - 1] of a
    scratch array, in the order numpy's add.reduce adds a contiguous last
    axis of length d, so the result has the bits of A.sum(axis=-1) for the
    C-ordered A with A[..., k] == D[k]: one by one below 8 terms, and at 8
    as ((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7)) in place over D's planes.  Each
    step is one elementwise IEEE add, so summing plane by plane keeps every
    bit while forming no (..., d) array."""
    d = len(D)
    if d == 1:
        return D[0]
    if d == 8:
        D[0::2] += D[1::2]
        D[0::4] += D[2::4]
        return D[0] + D[4]
    s = D[0] + D[1]
    for k in range(2, d):
        s += D[k]
    return s


def _se_kernel(D: np.ndarray, sf2) -> np.ndarray:
    """The squared-exponential kernel sf2 * exp(-0.5 * r), r the sum in
    _sum_planes' order of the d planes D of squared differences over squared
    length scales, which it may overwrite; sf2 broadcasts against a plane."""
    k = _sum_planes(D)
    k *= -0.5
    np.exp(k, out=k)
    k *= sf2
    return k


def _planes(Xn: np.ndarray) -> np.ndarray:
    """The likelihood's (d + 1, n, n) planes Z over the normalized training
    inputs Xn (n, d): the squared differences in each dimension, then ones,
    so that dK/dtheta_k = K * Z[k] / s_k with s the squared length scales
    and 1.  Each plane is one contiguous C-ordered row, formed in place."""
    n, d = Xn.shape
    Z = np.ones((d + 1, n, n))
    np.subtract(Xn.T[:, :, None], Xn.T[:, None, :], out=Z[:d])
    np.square(Z[:d], out=Z[:d])
    return Z


def _cov(Z: np.ndarray, e: np.ndarray) -> np.ndarray:
    """The (S, n, n) covariances sf2 * (C + ratio * I) over the planes Z
    for each row e = exp(theta) of an (S, d + 2) array, with the bits of
    that expression over the full correlations
    C = exp(-0.5 * (D2 / ls ** 2).sum(axis=-1)): C's diagonal is exactly 1,
    so the diagonal is sf2 * (1 + ratio), and off it ratio * 0 adds nothing."""
    S, d, n = len(e), len(Z) - 1, Z.shape[1]
    K = _se_kernel(Z[:d, None] / (e[:, :d] ** 2).T[:, :, None, None],
                   e[:, d, None, None])
    # K is a new C-ordered array, so its reshape is a view
    K.reshape(S, n * n)[:, ::n + 1] = (e[:, d] * (1.0 + e[:, d + 1]))[:, None]
    return K


# The byte budget of one batch, shared by the likelihood and the posterior.
# _neg_lml_and_grad stacks at most this many bytes of (rows, d + 1, n, n)
# gradient terms per batch.  Batching saves per-call overhead that large n
# dwarfs, and large stacks fall out of cache: at d = 4, the time per row
# against one row at a time was 0.44x for 8 rows at n = 16 (80 KiB),
# 0.55x at n = 23 and 0.77x for 4 rows at n = 40 (250 KiB), but 1.14x for
# 8 rows there (500 KiB), and 0.92x-1.0x at n = 64-149 (Xeon, 2 MiB L2,
# one BLAS thread).  So a fit at large n runs one row at a time.
# _posterior forms at most this many bytes of (d, rows, n) query-training
# differences per block of query rows, so a scan's peak memory grows with
# neither n nor the query count: at d = 4 a 2048-point scan took 0.93x the
# time of one whole block at n = 149 and 1.0x-1.02x at n = 16-60, and a
# search round (at most LOCAL_SEARCHES rows) stays one block up to
# n = 1024 at d = 4 and n = 512 at d = 8.
_BATCH_BYTES = 1 << 18


def _neg_lml_and_grad(thetas: np.ndarray, ys: np.ndarray,
                      Z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Negative log marginal likelihood of the standardized targets ys and
    its gradient in theta over the training planes Z = _planes(Xn), at
    each row of thetas (S, d + 2), as (values (S,), gradients (S, d + 2)).
    Rows go in batches of at most _BATCH_BYTES of gradient terms, and
    every row keeps the bits of a batch of one: exp(theta), the
    correlations, K and the gradient terms are elementwise over the batch,
    each row's sums run over one contiguous n * n row in numpy's pairwise
    order, the gradient in the length scales divides by the scalar power
    ls[k] ** 2 (the array power's element can round apart), and dpotrf and
    dpotrs factor and solve one row at a time, in place.  The values are
    formed once per batch after the solves, each row with the one-row
    bits: its data term a ddot, its log determinant a pairwise sum of the
    logs of its factor's diagonal.  A row whose
    covariance is not positive definite gives 1e12 and a zero gradient; a
    non-finite covariance raises ValueError."""
    S, p = thetas.shape
    d, n = p - 2, len(ys)
    rows = max(1, _BATCH_BYTES // (8 * (d + 1) * n * n))
    if S > rows:
        parts = [_neg_lml_and_grad(thetas[i:i + rows], ys, Z)
                 for i in range(0, S, rows)]
        return (np.concatenate([v for v, _ in parts]),
                np.concatenate([g for _, g in parts]))
    e = np.exp(thetas)
    K = _cov(Z, e)
    # K + 1e-12 * sf2 * I, factored in place
    Kj = np.asarray_chkfinite(K).copy()
    Kj.reshape(S, n * n)[:, ::n + 1] += 1e-12 * e[:, d, None]
    alpha = np.array([ys] * S)  # solved in place
    Kinv = np.zeros((S, n, n))  # the identity, solved in place, transposed
    Kinv.reshape(S, n * n)[:, ::n + 1] = 1.0
    singular = []
    for i in range(S):
        # Kj[i] is symmetric, so its transpose is the Fortran array that
        # dpotrf would copy it to; likewise Kinv[i]'s, as the identity
        L, info = dpotrf(Kj[i].T, lower=1, overwrite_a=1)
        if info > 0:  # not positive definite
            singular.append(i)
            continue
        dpotrs(L, alpha[i], lower=1, overwrite_b=1)
        dpotrs(L, Kinv[i].T, lower=1, overwrite_b=1)
    # -(-ys' alpha / 2 - log|L| - c), L's diagonal read from Kj; a
    # singular row, which dpotrf left part factored, gets a diagonal of
    # ones so that its log stays quiet, and scores 1e12
    diag = Kj.reshape(S, n * n)[:, ::n + 1]
    if singular:
        diag[singular] = 1.0
    values = -(np.vecdot(-0.5 * ys, alpha) - np.log(diag).sum(axis=1)
               - 0.5 * n * math.log(2.0 * math.pi))
    W = alpha[:, :, None] * alpha[:, None, :]  # d(lml)/dK = W/2
    W -= Kinv.transpose(0, 2, 1)
    s = [[v ** 2 for v in row] + [1.0] for row in e[:, :d].tolist()]
    G = Z / np.array(s)[:, :, None, None]
    G *= K[:, None]
    G *= W[:, None]
    grads = np.empty((S, p))
    # -(0.5 * x) == -0.5 * x: rounding to nearest is symmetric in sign
    np.multiply(G.reshape(S, d + 1, n * n).sum(axis=2), -0.5,
                out=grads[:, :d + 1])
    # dK/dlog ratio = sf2 * ratio * I
    grads[:, d + 1] = (-0.5 * W.reshape(S, n * n)[:, ::n + 1].sum(axis=1)
                       * e[:, d] * e[:, d + 1])
    if singular:
        values[singular] = 1e12
        grads[singular] = 0.0
    return values, grads


_LBFGSB_FACTR = 2.2204460492503131e-09 / np.finfo(float).eps


def _lbfgsb_run(x0: np.ndarray, lo: np.ndarray, hi: np.ndarray):
    """One minimization over the finite box [lo, hi] from x0, as
    scipy.optimize.minimize(fun, x0, jac=True, method="L-BFGS-B",
    bounds=...) runs it at its default options, written as a generator:
    it yields each x at which it needs the value and gradient, as a list
    of floats, is sent them as (f, g), and returns (x, the last f it was
    sent).  x0 is clipped to the box, then scipy's reverse-communication
    loop over setulb (m = 10, ftol 2.22e-9, gtol 1e-5, maxls 20, maxiter
    and maxfun 15000) asks again only where x changed."""
    n = len(x0)
    x = np.clip(x0, lo, hi)
    nbd = np.full(n, 2, np.int32)  # both bounds finite
    wa = np.zeros(2 * 10 * n + 5 * n + 11 * 10 * 10 + 8 * 10)
    iwa = np.zeros(3 * n, np.int32)
    task, ln_task = np.zeros(2, np.int32), np.zeros(2, np.int32)
    lsave, isave, dsave = (np.zeros(4, np.int32), np.zeros(44, np.int32),
                           np.zeros(29))
    f, g = np.array(0.0), np.zeros(n)
    seen, nfev, nit = None, 0, 0
    while True:
        g = g.astype(np.float64)  # setulb may write g; keep the one sent
        setulb(10, x, lo, hi, nbd, f, g, _LBFGSB_FACTR, 1e-5, wa, iwa, task,
               lsave, isave, dsave, 20, ln_task)
        if task[0] == 3:  # f and g wanted at x
            point = x.tolist()
            if point != seen:  # as np.array_equal: -0.0 == 0.0, nan != nan
                seen = point
                f_seen, g_seen = yield point
                nfev += 1
            f, g = f_seen, g_seen
        elif task[0] == 1:  # a new iterate
            nit += 1
            if nit >= 15000:
                task[:] = 5, 504
            elif nfev > 15000:
                task[:] = 5, 502
        else:
            return x, f


def _lockstep(runs, fun) -> list:
    """Drive the generators runs, each of which yields the point it needs
    next and is sent its reply, until all return.  Each round makes one
    call fun(xs), whose rows are the pending points of all live runs in
    run order, kept in two lists rebuilt each round, and which returns one
    reply per row; xs is a fresh array that fun may overwrite.  Each run
    is sent its own row's reply, so there are as many calls as the longest
    run has points.  The runs share nothing but fun, so each gets the
    replies it would get alone when fun's rows do not depend on the batch.
    Returns each run's return value, in run order."""
    live = list(enumerate(runs))
    points = [next(run) for run in runs]
    results = [None] * len(runs)
    while live:
        replies = fun(np.array(points))
        still, points = [], []
        for (i, run), reply in zip(live, replies):
            try:
                points.append(run.send(reply))
            except StopIteration as done:
                results[i] = done.value
            else:
                still.append((i, run))
        live = still
    return results


def gp_fit(X, y, domain: Domain, seed: int) -> GpModel:
    """Fit kernel hyperparameters to the finite rows X (at least 2) and
    costs y by maximizing the log marginal likelihood with FIT_STARTS
    L-BFGS-B starts (analytic gradients; the first at unit length scales,
    the rest random, seeded by seed and the row count), then cache the
    training factorization.  The starts run as _lbfgsb_run generators on
    _lockstep, each bit for bit scipy.optimize.minimize's L-BFGS-B,
    with one batched _neg_lml_and_grad per round.  The winner is the first
    start with the lowest value.  Singular covariances go through a fixed
    jitter escalation before failing.  Rows that differ on a zero-width
    dimension of the box raise ValueError; rows off it at one value, up to
    about 1e8 off, fit."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    y = np.asarray(y, dtype=float).ravel()
    if X.shape[0] != y.shape[0]:
        raise ValueError("X and y row counts differ")
    if not (np.isfinite(X).all() and np.isfinite(y).all()):
        raise ValueError("gp_fit data contains non-finite values")
    if len(y) < 2:
        raise ValueError("gp_fit needs at least 2 rows")
    # rows that differ on a zero-width (or near zero-width) dimension lie
    # some 1e300 widths apart there, past what the planes can square;
    # Python floats overflow to inf and NaN without a warning
    with np.errstate(over="ignore"):
        Xn = domain.normalize(X)
    for name, a, b, col in zip(domain.names, domain.lo, domain.hi, Xn.T.tolist()):
        spread = max(col) - min(col)
        if not spread * spread < math.inf:
            raise ValueError(f"gp_fit rows on dimension {name} lie too far "
                             f"apart or off its box [{a}, {b}] to normalize")
    y_mean = float(np.mean(y))
    y_std = float(np.std(y))
    if y_std <= 0.0:
        y_std = 1.0
    ys = (y - y_mean) / y_std
    d = Xn.shape[1]
    Z = _planes(Xn)
    bounds = [_LEN_BOUNDS] * d + [_SIG_BOUNDS, _NOISE_RATIO_BOUNDS]
    lo = np.array([b[0] for b in bounds])
    hi = np.array([b[1] for b in bounds])
    rng = np.random.default_rng((seed, len(y), 0x6F17))
    starts = [np.concatenate([np.zeros(d), [0.0], [math.log(1e-4)]])]
    for _ in range(FIT_STARTS - 1):
        starts.append(np.array([rng.uniform(a, b) for a, b in bounds]))
    best_x, best_fun = None, None
    runs = [_lbfgsb_run(x0, lo, hi) for x0 in starts]
    for x, fun in _lockstep(runs,
                            lambda xs: zip(*_neg_lml_and_grad(xs, ys, Z))):
        if best_x is None or fun < best_fun:
            best_x, best_fun = x, fun
    theta = np.clip(best_x, lo, hi)
    sf2 = float(np.exp(theta[d]))
    K, eye = _cov(Z, np.exp(theta)[None])[0], np.eye(len(y))
    for jitter in _JITTERS:
        c, info = dpotrf(K + jitter * sf2 * eye, lower=1, clean=0)
        if info == 0:
            break
    else:
        raise RuntimeError("training covariance singular after jitter escalation")
    return GpModel(domain=domain, Xn=Xn, theta=theta, y_mean=y_mean,
                   y_std=y_std, alpha=dpotrs(c, ys, lower=1)[0], chol=c)


def _posterior(model: GpModel, U: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Posterior mean and standard deviation arrays (original cost units)
    of the latent function at the finite normalized rows U (m, d) (GPML
    Alg. 2.1), from the model's cached state, solving with LAPACK dpotrs
    directly.  The rows go in blocks of at most _BATCH_BYTES of (d, rows, n)
    query-training differences; each block writes its rows' mean and
    k*' K^-1 k* terms into two length-m arrays, and one elementwise pass
    at the end makes the variance and applies y_mean and y_std.  A block's
    kernel is built one plane per dimension: its differences, squared and
    divided by the squared length scales in place, form d <= 8 planes that
    _se_kernel adds in the order np.sum gives over the last axis of the
    (rows, n, d) array it replaces, so no (rows, n, d) array is formed and
    the kernel keeps that array's bits.  Under the SkylakeX OpenBLAS kernel
    with numpy's AVX-512 dispatch, every row of a batch, and so of a block,
    has the bits of a one-point call: the mean is a per-row dot (one ddot,
    where a (m, n) @ alpha gemv rounds rows apart), and the kernel, the
    dpotrs columns and the variance reduction are per row already; other
    kernels can round a multi-column dpotrs apart from one column.  A
    query or training row far off the unit box can overflow a squared
    difference to inf, a zero correlation; numpy warns of it unless the
    caller silences it, as gp_predict and suggest do."""
    sf2, alpha, rows = model.signal_variance, model.alpha, model.block_rows
    m, UT = len(U), U.T
    mean_s, kvk = np.empty(m), np.empty(m)
    for i in range(0, m, rows):
        j = i + rows
        D = UT[:, i:j, None] - model.XnT
        np.square(D, out=D)
        D /= model.ls2
        ks = _se_kernel(D, sf2)  # (rows, n)
        del D  # free the d planes before the solve forms its own
        np.vecdot(ks, alpha, out=mean_s[i:j])
        v = dpotrs(model.chol, ks.T, lower=1)[0]  # K^-1 k*
        (ks * v.T).sum(axis=1, out=kvk[i:j])
    var = np.maximum(sf2 - kvk, 0.0)
    return model.y_mean + model.y_std * mean_s, model.y_std * np.sqrt(var)


def gp_predict(model: GpModel, x) -> tuple[np.ndarray, np.ndarray]:
    """Posterior mean and standard deviation (original cost units) of the
    latent function at one point or a batch of points: the finiteness
    check, the box's normalization and _posterior.  A NaN or infinite
    query raises ValueError.  That check is the only one: from finite
    rows each squared scaled difference is >= 0 or +inf, never NaN, so
    the kernel sf2 * exp(-r / 2) lies in [0, sf2] and dpotrs gets finite
    columns, as cho_solve's own check would have found."""
    X = np.atleast_2d(np.asarray_chkfinite(x, dtype=float))
    # off a zero-width dimension the normalized offset or its square
    # overflows to inf: zero correlation, the intended limit
    with np.errstate(over="ignore"):
        mean, std = _posterior(model, model.domain.normalize(X))
    if np.ndim(x) == 1:
        return float(mean[0]), float(std[0])
    return mean, std


def ucb(mean, stddev, h: float):
    """Acquisition score mean + h*stddev."""
    return mean + h * stddev


def _search_round(model: GpModel, X: np.ndarray, h: float) -> list:
    """The negated UCB, as floats, at the queries X (m, d) of one local
    search round: X is clipped to the model's box and normalized in place
    and goes to _posterior, as gp_predict would take domain.clip(X) less
    its finiteness check (suggest says why these queries pass it).  Where
    np.clip gives a zero, np.maximum and np.minimum may give it the other
    sign; no squared offset can tell, so every value keeps its bits."""
    domain = model.domain
    np.maximum(X, domain._lo, out=X)
    np.minimum(X, domain._hi, out=X)
    X -= domain._lo
    X /= domain._width
    mean, std = _posterior(model, X)
    return (-ucb(mean, std, h)).tolist()


def _sorted_simplex(sim: list, fs: list) -> tuple[list, list]:
    """sim and fs in the order np.array(fs).argsort() puts fs.  Where
    Python's sort leaves the values rising strictly, that is the only
    ascending order, so both sorts find it; a tie (-0.0 == 0.0 among them)
    or a NaN leaves the order to np.argsort, whose ties fall as its
    algorithm and dispatch level put them."""
    order = sorted(range(len(fs)), key=fs.__getitem__)
    ranked = [fs[i] for i in order]
    if all(map(operator.lt, ranked, ranked[1:])):
        return [sim[i] for i in order], ranked
    order = np.array(fs).argsort().tolist()
    return [sim[i] for i in order], [fs[i] for i in order]


def _nelder_mead(x0):
    """Minimize a function from x0 by the Nelder-Mead simplex, as a
    generator: it yields each query point (a list of floats), is sent that
    point's value, and returns (best vertex, its value).  On plain-float
    vertices it does the arithmetic of scipy.optimize.minimize(f, x0,
    method="Nelder-Mead", options={"maxiter": 120, "xatol": 1e-6,
    "fatol": 1e-12}): its initial simplex, coefficients (reflection 1,
    expansion 2, contraction 1/2, shrink 1/2), branch order, stopping test,
    centroid summed vertex by vertex from the first, and the order
    np.argsort gives each step, so that tied values (clipping makes them on
    box faces) break as scipy's do: _sorted_simplex keeps that order with
    Python's sort where the values rise strictly, and np.argsort's on a
    tie.  On that order scipy's value test max |fs[0] - fs[k]| <= fatol is
    the one comparison fs[-1] - fs[0] <= fatol: a - b rounds monotonically
    in a and negates exactly, and a NaN (sorted last) or -inf - -inf fails
    both.  The centroid is one lazy chain of adds per coordinate, in
    scipy's order, read once by the division."""
    x0 = np.asarray(x0, dtype=float).tolist()
    n = len(x0)
    sim = [x0]
    for k in range(n):
        y = list(x0)
        y[k] = 1.05 * y[k] if y[k] != 0 else 0.00025
        sim.append(y)
    fs = []
    for x in sim:
        fs.append((yield x))
    # scipy sorts the initial simplex twice; a repeat can reorder ties
    sim, fs = _sorted_simplex(sim, fs)
    sim, fs = _sorted_simplex(sim, fs)
    for _ in range(119):
        best, worst = sim[0], sim[-1]
        # scipy's two tests, the cheaper first: neither has side effects
        if (fs[-1] - fs[0] <= 1e-12
                and all(abs(a - b) <= 1e-6
                        for x in sim[1:] for a, b in zip(x, best))):
            break
        xbar = best
        for x in sim[1:-1]:
            xbar = map(operator.add, xbar, x)
        xbar = [s / n for s in xbar]
        xr = [2 * c - w for c, w in zip(xbar, worst)]
        fxr = yield xr
        if fxr < fs[0]:
            xe = [3 * c - 2 * w for c, w in zip(xbar, worst)]
            fxe = yield xe
            sim[-1], fs[-1] = (xe, fxe) if fxe < fxr else (xr, fxr)
        elif fxr < fs[-2]:
            sim[-1], fs[-1] = xr, fxr
        else:
            if fxr < fs[-1]:  # outside contraction
                xc = [1.5 * c - 0.5 * w for c, w in zip(xbar, worst)]
                fxc = yield xc
                accept = fxc <= fxr
            else:  # inside contraction
                xc = [0.5 * c + 0.5 * w for c, w in zip(xbar, worst)]
                fxc = yield xc
                accept = fxc < fs[-1]
            if accept:
                sim[-1], fs[-1] = xc, fxc
            else:  # shrink towards the best vertex
                for j in range(1, n + 1):
                    sim[j] = [b + 0.5 * (a - b) for a, b in zip(sim[j], best)]
                    fs[j] = yield sim[j]
        sim, fs = _sorted_simplex(sim, fs)
    return np.array(sim[0]), float(np.min(fs))


def suggest(model: GpModel, rng: np.random.Generator, h: float) -> np.ndarray:
    """Maximize the UCB over the model's box: a scan of SOBOL_CANDIDATES
    scrambled Sobol points (one batched gp_predict), then _nelder_mead
    from the best LOCAL_SEARCHES candidates on the UCB at the clipped
    point.  The searches run on _lockstep with one _search_round per
    round, which clips and normalizes the round's fresh query array in
    place and makes one _posterior call, the core the scan reaches
    through gp_predict: the rows gp_predict would pass, under its
    overflow silencing, without its finiteness check, which these queries
    never fail (the candidates are finite, and so is every vertex the
    simplex arithmetic forms from them: a step's point is at most 5 times
    the simplex's largest coordinate, over at most 119 steps).  Under the
    SkylakeX OpenBLAS kernel with numpy's AVX-512 dispatch each round's
    rows have the bits of one-point gp_predict calls.  Tests hold the
    local search to scipy's Nelder-Mead bit for bit.  Candidates with tied
    scores are ranked by the reversed np.argsort of the scan, so the best
    is whichever tie the default sort puts last, and that order can differ
    between numpy's dispatch levels; among the local searches, a tie keeps
    the earlier candidate."""
    domain = model.domain
    cand = domain.denormalize(
        sobol(domain.dim, SOBOL_CANDIDATES, int(rng.integers(2 ** 63))))
    mean, std = gp_predict(model, cand)
    scores = ucb(mean, std, h)
    order = np.argsort(scores)[::-1]
    best_x = cand[order[0]]
    best_score = scores[order[0]]

    # as in gp_predict: a training row off a zero-width dimension sits far
    # off the unit box, and its squared difference overflows to inf
    with np.errstate(over="ignore"):
        results = _lockstep(
            [_nelder_mead(cand[i]) for i in order[:LOCAL_SEARCHES]],
            lambda xs: _search_round(model, xs, h))
    for x, fun in results:  # in candidate order
        if -fun > best_score:
            best_score = -fun
            best_x = domain.clip(x)
    return np.asarray(best_x, dtype=float)


def smbo(cost, domain: Domain,
         config: TunerConfig) -> tuple[np.ndarray, np.ndarray]:
    """Sequential model-based optimization (maximization).

    Draws n_init Latin-hypercube samples, then alternates GP fit on the
    episodes so far, UCB maximization and cost evaluation until T episodes
    are recorded.  A cost evaluation that raises DivergedTrajectory or
    returns a non-finite value scores FAILED_COST and the loop continues;
    any other exception, another RuntimeError included, is a bug, not a
    bad parameter set, and propagates.  Returns (X, y), episode i's
    parameters X[i] and score y[i]; identical seeds reproduce them.
    """
    rng = np.random.default_rng((config.seed, 0x5B0))
    X = np.empty((config.T, domain.dim))
    y = np.empty(config.T)
    X[:config.n_init] = domain.denormalize(latin_hypercube(
        domain.dim, config.n_init, int(rng.integers(2 ** 63))))
    for n in range(config.T):
        if n >= max(config.n_init, 2):
            model = gp_fit(X[:n], y[:n], domain, config.seed)
            X[n] = suggest(model, rng, config.h)
        elif n >= config.n_init:  # one row: too few to fit the surrogate
            X[n] = domain.denormalize(rng.random((1, domain.dim)))[0]
        try:
            v = float(cost(X[n].copy()))
        except DivergedTrajectory:
            v = FAILED_COST
        y[n] = v if math.isfinite(v) else FAILED_COST
    return X, y


# ---------------------------------------------------------------------------
# search boxes and cost oracles for the two tuning stages

def pd_gain_domain() -> Domain:
    """Joint PD search box: kp in [0, 150], kd in [0, 30] for both loops."""
    return Domain(names=("kp1", "kd1", "kp2", "kd2"),
                  lo=(0.0, 0.0, 0.0, 0.0), hi=(150.0, 30.0, 150.0, 30.0))


def flr_bound_domain(half_width: float = 20.0) -> Domain:
    """Search box for the eight regulator bound values; each pair is
    order-repaired to (min, max) before use."""
    names = ("dkp1_a", "dkp1_b", "dkd1_a", "dkd1_b",
             "dkp2_a", "dkp2_b", "dkd2_a", "dkd2_b")
    return Domain(names=names, lo=(-half_width,) * 8, hi=(half_width,) * 8)


def flr_bounds_from_vector(x) -> FlrBounds:
    x = np.asarray(x, dtype=float).tolist()  # plain floats for simulate
    return FlrBounds.ordered((x[0], x[1]), (x[2], x[3]),
                             (x[4], x[5]), (x[6], x[7]))


def make_pd_cost(params: PlantParams, sim: SimConfig, ref: Reference,
                 dist: DisturbanceModel):
    """Square-wave tracking cost of a plain cascaded PD with gains x."""

    def cost(x) -> float:
        # plain floats: simulate on numpy scalars runs at half the speed
        # and warns where a float overflows quietly to inf
        gains = GainSet(*np.maximum(x, 0.0).tolist())
        ctrl = Controller(kind=ControllerKind.CASCADED_PD, gains=gains)
        traj = simulate(params, sim, ctrl, ref, dist)
        return tracking_cost(traj)

    return cost


def make_flr_cost(params: PlantParams, sim: SimConfig, ref: Reference,
                  dist: DisturbanceModel, base_gains: GainSet):
    """Tracking cost of the fuzzy cascade with regulator bounds taken from
    an 8-vector, PD gains frozen at the first-stage result."""

    def cost(x) -> float:
        ctrl = Controller(kind=ControllerKind.FUZZY_CASCADED, gains=base_gains,
                          flr_bounds=flr_bounds_from_vector(x))
        traj = simulate(params, sim, ctrl, ref, dist)
        return tracking_cost(traj)

    return cost
