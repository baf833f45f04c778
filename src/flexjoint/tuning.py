"""Sequential model-based optimization of controller parameters.

A Gaussian-process surrogate (squared-exponential kernel with per-dimension
length scales) is fitted to all evaluated (parameters, cost) pairs; the next
candidate maximizes the upper confidence bound mean + h*stddev.  Inputs are
normalized to the unit box and costs standardized before fitting, which
keeps the covariance well conditioned across search ranges of very
different widths (e.g. kp in [0, 150] against kd in [0, 30]).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
from scipy.linalg.lapack import dpotrf, dpotrs
from scipy.optimize._lbfgsb import setulb
from scipy.stats import qmc

from .control import Controller, ControllerKind, GainSet, Reference, simulate
from .fuzzy import FlrBounds
from .metrics import FAILED_COST, tracking_cost
from .plant import DisturbanceModel, PlantParams, SimConfig

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


class GpFitError(RuntimeError):
    """Covariance stayed singular through the whole jitter escalation."""


@dataclass(frozen=True)
class Domain:
    """Axis-aligned search box with named dimensions (arrays built once)."""

    names: tuple[str, ...]
    lo: tuple[float, ...]
    hi: tuple[float, ...]

    def __post_init__(self):
        if not (len(self.names) == len(self.lo) == len(self.hi)):
            raise ValueError("names, lo, hi must have equal length")
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


@dataclass
class Dataset:
    """Evaluated (parameter vector, cost) rows."""

    X: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        self.X = np.atleast_2d(np.asarray(self.X, dtype=float))
        self.y = np.asarray(self.y, dtype=float).ravel()
        if self.X.shape[0] != self.y.shape[0]:
            raise ValueError("X and y row counts differ")
        if not (np.isfinite(self.X).all() and np.isfinite(self.y).all()):
            raise ValueError("dataset contains non-finite values")

    def append(self, x, y: float) -> None:
        self.X = np.vstack([self.X, np.atleast_2d(x)])
        self.y = np.append(self.y, y)

    def __len__(self) -> int:
        return len(self.y)


@dataclass(frozen=True)
class TunerConfig:
    """SMBO settings: T total episodes, n_init initial Latin-hypercube
    samples, h the UCB exploration coefficient.

    h lies in [0, 1e6]: the GP-UCB coefficient is non-negative, and the
    posterior stddev is at most 10 times the costs' standard deviation
    (signal variance <= 1e2), so h*stddev stays far from overflow.
    """

    T: int = 150
    n_init: int = 10
    h: float = 2.576
    seed: int = 0

    def __post_init__(self):
        if self.n_init < 1 or self.T < self.n_init:
            raise ValueError("need n_init >= 1 and T >= n_init")
        if not 0.0 <= self.h <= 1e6:
            raise ValueError(f"h must be finite and in [0, 1e6], got {self.h}")


@dataclass(frozen=True)
class GpModel:
    """Fitted GP state over normalized inputs / standardized targets.

    theta = (log length scales per dim, log signal variance,
    log noise-to-signal ratio); chol is the lower Cholesky factor of the
    training covariance (including any jitter used to factor it).
    Construction checks the factor as cho_solve would and caches
    ls2 = length_scales**2 and signal_variance for gp_predict.
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
        object.__setattr__(self, "ls2", self.length_scales ** 2)
        object.__setattr__(self, "signal_variance", float(np.exp(self.theta[-2])))

    @property
    def length_scales(self) -> np.ndarray:
        return np.exp(self.theta[:-2])

    @property
    def noise_variance(self) -> float:
        return float(np.exp(self.theta[-2] + self.theta[-1]))


def _sq_dists(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    # (n, m, d) per-dimension squared differences
    return (A[:, None, :] - B[None, :, :]) ** 2


def _corr(D2: np.ndarray, ls2: np.ndarray) -> np.ndarray:
    return np.exp(-0.5 * (D2 / ls2).sum(axis=-1))


class _Pairs(NamedTuple):
    """Per-fit constants of the likelihood over n training points: the
    identity, the squared differences of the n(n-1)/2 pairs i < j plus a
    zero row for the diagonal, the (n, n) indices of those rows that
    spread them into the symmetric matrix, and the squared differences as
    d contiguous (n, n) slices."""

    eye: np.ndarray
    P2: np.ndarray
    spread: np.ndarray
    D2s: np.ndarray


def _pairs(D2: np.ndarray) -> _Pairs:
    n, d = len(D2), D2.shape[2]
    iu, ju = np.triu_indices(n, 1)
    spread = np.full((n, n), len(iu))
    spread[iu, ju] = spread[ju, iu] = np.arange(len(iu))
    P2 = np.vstack([D2[iu, ju], np.zeros((1, d))])
    return _Pairs(np.eye(n), P2, spread,
                  np.ascontiguousarray(D2.transpose(2, 0, 1)))


def _pair_corr(pairs: _Pairs, ls2: np.ndarray) -> np.ndarray:
    """_corr(D2, ls2) bit for bit from the pairs i < j: the diagonal of D2
    is zero, as is the last row of P2, and (a-b)**2 == (b-a)**2 makes the
    matrix exactly symmetric."""
    return np.exp(-0.5 * (pairs.P2 / ls2).sum(axis=-1)).take(pairs.spread)


def _neg_lml_and_grad(theta: np.ndarray, ys: np.ndarray,
                      pairs: _Pairs) -> tuple[float, np.ndarray]:
    d, n = len(pairs.D2s), len(ys)
    ls = np.exp(theta[:d])
    sf2 = np.exp(theta[d])
    ratio = np.exp(theta[d + 1])
    C = _pair_corr(pairs, ls ** 2)
    eye = pairs.eye
    K = sf2 * (C + ratio * eye)
    L, info = dpotrf(np.asarray_chkfinite(K + 1e-12 * sf2 * eye), lower=1)
    if info > 0:  # not positive definite
        return 1e12, np.zeros_like(theta)
    alpha = dpotrs(L, ys, lower=1)[0]
    lml = (-0.5 * ys @ alpha - np.log(L.diagonal()).sum()
           - 0.5 * n * math.log(2.0 * math.pi))
    Kinv = dpotrs(L, eye, lower=1)[0]
    W = np.outer(alpha, alpha) - Kinv  # d(lml)/dK = W/2
    grad = np.empty_like(theta)
    sC = sf2 * C
    for k, D2k in enumerate(pairs.D2s):
        # a scalar ls[k] ** 2: the array power's element can round apart
        grad[k] = 0.5 * (W * (sC * (D2k / ls[k] ** 2))).sum()
    grad[d] = 0.5 * (W * K).sum()               # dK/dlog sf2 = K
    grad[d + 1] = 0.5 * W.trace() * sf2 * ratio  # dK/dlog ratio
    return -lml, -grad


_LBFGSB_FACTR = 2.2204460492503131e-09 / np.finfo(float).eps


def _lbfgsb(fun, x0: np.ndarray, lo: np.ndarray, hi: np.ndarray,
            args: tuple = ()) -> tuple[np.ndarray, float]:
    """Minimize fun(x, *args) -> (value, gradient) over the finite box
    [lo, hi] from x0 as scipy.optimize.minimize(fun, x0, args, jac=True,
    method="L-BFGS-B", bounds=...) does at its default options, without
    its per-call wrappers: x0 clipped to the box, then scipy's
    reverse-communication loop over setulb (m = 10, ftol 2.22e-9,
    gtol 1e-5, maxls 20, maxiter and maxfun 15000), which evaluates fun
    only where x changed.  Returns (x, the last value fun gave)."""
    n = len(x0)
    x = np.clip(x0, lo, hi)
    nbd = np.full(n, 2, np.int32)  # both bounds finite
    wa = np.zeros(2 * 10 * n + 5 * n + 11 * 10 * 10 + 8 * 10)
    iwa = np.zeros(3 * n, np.int32)
    task, ln_task = np.zeros(2, np.int32), np.zeros(2, np.int32)
    lsave, isave, dsave = (np.zeros(4, np.int32), np.zeros(44, np.int32),
                           np.zeros(29))
    f, g = np.array(0.0), np.zeros(n)
    x_seen, nfev, nit = None, 0, 0
    while True:
        g = g.astype(np.float64)  # setulb may write g; keep fun's result
        setulb(10, x, lo, hi, nbd, f, g, _LBFGSB_FACTR, 1e-5, wa, iwa, task,
               lsave, isave, dsave, 20, ln_task)
        if task[0] == 3:  # f and g wanted at x
            if x_seen is None or not np.array_equal(x, x_seen):
                x_seen = x.copy()
                f_seen, g_seen = fun(x.copy(), *args)
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


def gp_fit(data: Dataset, config: TunerConfig, domain: Domain) -> GpModel:
    """Fit kernel hyperparameters by maximizing the log marginal likelihood
    with FIT_STARTS L-BFGS-B starts (analytic gradients) on _lbfgsb, which
    repeats scipy.optimize.minimize's L-BFGS-B bit for bit over the
    likelihood's per-fit constants, then cache the training factorization.
    Singular covariances go through a fixed jitter escalation before
    failing."""
    if len(data) < 2:
        raise ValueError("gp_fit needs at least 2 rows")
    Xn = domain.normalize(data.X)
    y_mean = float(np.mean(data.y))
    y_std = float(np.std(data.y))
    if y_std <= 0.0:
        y_std = 1.0
    ys = (data.y - y_mean) / y_std
    d = Xn.shape[1]
    pairs = _pairs(_sq_dists(Xn, Xn))
    bounds = [_LEN_BOUNDS] * d + [_SIG_BOUNDS, _NOISE_RATIO_BOUNDS]
    lo = np.array([b[0] for b in bounds])
    hi = np.array([b[1] for b in bounds])
    rng = np.random.default_rng((config.seed, len(data), 0x6F17))
    starts = [np.concatenate([np.zeros(d), [0.0], [math.log(1e-4)]])]
    for _ in range(FIT_STARTS - 1):
        starts.append(np.array([rng.uniform(a, b) for a, b in bounds]))
    best_x, best_fun = None, None
    for x0 in starts:
        x, fun = _lbfgsb(_neg_lml_and_grad, x0, lo, hi, (ys, pairs))
        if best_x is None or fun < best_fun:
            best_x, best_fun = x, fun
    theta = np.clip(best_x, lo, hi)
    sf2 = float(np.exp(theta[d]))
    ratio = float(np.exp(theta[d + 1]))
    K = sf2 * (_pair_corr(pairs, np.exp(theta[:d]) ** 2) + ratio * pairs.eye)
    for jitter in _JITTERS:
        c, info = dpotrf(K + jitter * sf2 * pairs.eye, lower=1, clean=0)
        if info == 0:
            break
    else:
        raise GpFitError("training covariance singular after jitter escalation")
    return GpModel(domain=domain, Xn=Xn, theta=theta, y_mean=y_mean,
                   y_std=y_std, alpha=dpotrs(c, ys, lower=1)[0], chol=c)


def gp_predict(model: GpModel, x) -> tuple[np.ndarray, np.ndarray]:
    """Posterior mean and standard deviation (original cost units) of the
    latent function at one point or a batch of points (GPML Alg. 2.1), from
    the model's cached state, solving with LAPACK dpotrs directly after
    cho_solve's finiteness check.  Every row of a batch has the bits of a
    one-point call: the mean is a per-row dot (one ddot, where a (m, n) @
    alpha gemv rounds rows apart), and the kernel, the dpotrs columns and
    the variance reduction are per row already.  A NaN or infinite query
    raises ValueError."""
    X = np.atleast_2d(np.asarray_chkfinite(x, dtype=float))
    sf2 = model.signal_variance
    # off a zero-width dimension the normalized offset or its square
    # overflows to inf: zero correlation, the intended limit
    with np.errstate(over="ignore"):
        Un = model.domain.normalize(X)
        ks = sf2 * _corr(_sq_dists(Un, model.Xn), model.ls2)  # (m, n)
    mean_s = np.vecdot(ks, model.alpha)
    v = dpotrs(model.chol, np.asarray_chkfinite(ks.T), lower=1)[0]  # K^-1 k*
    var = np.maximum(sf2 - (ks * v.T).sum(axis=1), 0.0)
    mean = model.y_mean + model.y_std * mean_s
    std = model.y_std * np.sqrt(var)
    if np.ndim(x) == 1:
        return float(mean[0]), float(std[0])
    return mean, std


def ucb(mean, stddev, h: float):
    """Acquisition score mean + h*stddev."""
    return mean + h * stddev


def _sorted_simplex(sim: list, fs: list) -> tuple[list, list]:
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
    centroid summed vertex by vertex from the first, and reordering by
    np.argsort, so that tied values (clipping makes them on box faces)
    break as scipy's do."""
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
        if (all(abs(a - b) <= 1e-6 for x in sim[1:] for a, b in zip(x, best))
                and all(abs(fs[0] - fx) <= 1e-12 for fx in fs[1:])):
            break
        xbar = list(best)
        for x in sim[1:-1]:
            xbar = [s + a for s, a in zip(xbar, x)]
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
    scrambled Sobol points (one batched gp_predict), then _nelder_mead from
    the best LOCAL_SEARCHES candidates on the UCB at the clipped point.  The
    searches run in lockstep: each round evaluates the pending query of
    every live search in one batched gp_predict, whose rows have the bits
    of one-point calls.  Tests hold the local search to scipy's
    Nelder-Mead bit for bit.  Ties fall to the first best candidate of the
    seeded scan."""
    domain = model.domain
    sob = qmc.Sobol(domain.dim, scramble=True, seed=int(rng.integers(2 ** 63)))
    U = sob.random(SOBOL_CANDIDATES)
    cand = domain.denormalize(U)
    mean, std = gp_predict(model, cand)
    scores = ucb(mean, std, h)
    order = np.argsort(scores)[::-1]
    best_x = cand[order[0]]
    best_score = scores[order[0]]

    searches = [_nelder_mead(cand[i]) for i in order[:LOCAL_SEARCHES]]
    queries = {i: next(s) for i, s in enumerate(searches)}  # live searches
    results = [None] * len(searches)
    while queries:
        pending = domain.clip(np.array(list(queries.values())))
        values = -ucb(*gp_predict(model, pending), h)
        for i, value in zip(list(queries), values.tolist()):
            try:
                queries[i] = searches[i].send(value)
            except StopIteration as done:
                del queries[i]
                results[i] = done.value
    for x, fun in results:  # in candidate order
        if -fun > best_score:
            best_score = -fun
            best_x = domain.clip(x)
    return np.asarray(best_x, dtype=float)


@dataclass
class TuningHistory:
    """Episode-indexed record of an SMBO run."""

    X: np.ndarray
    y: np.ndarray
    best_y: np.ndarray

    def __len__(self) -> int:
        return len(self.y)


def smbo(cost, domain: Domain, config: TunerConfig,
         ) -> tuple[np.ndarray, float, TuningHistory]:
    """Sequential model-based optimization (maximization).

    Draws n_init Latin-hypercube samples, then alternates GP fit, UCB
    maximization and cost evaluation until T episodes are recorded.  A cost
    evaluation that raises RuntimeError (DivergedTrajectory, say) or returns
    a non-finite value scores FAILED_COST and the loop continues; any other
    exception is a bug, not a bad parameter set, and propagates.
    Identical seeds reproduce identical histories.
    """
    rng = np.random.default_rng((config.seed, 0x5B0))
    lhs = qmc.LatinHypercube(domain.dim, seed=int(rng.integers(2 ** 63)))
    X_init = domain.denormalize(lhs.random(config.n_init))
    data: Dataset | None = None
    xs, ys = [], []

    def evaluate(x) -> float:
        try:
            y = float(cost(np.asarray(x, dtype=float)))
        except RuntimeError:
            return FAILED_COST
        return y if math.isfinite(y) else FAILED_COST

    for x in X_init:
        xs.append(np.array(x))
        ys.append(evaluate(x))
    data = Dataset(np.array(xs), np.array(ys))
    while len(data) < config.T:
        if len(data) < 2:
            # not enough rows to fit the surrogate yet
            x = domain.denormalize(rng.random((1, domain.dim)))[0]
        else:
            model = gp_fit(data, config, domain)
            x = suggest(model, rng, config.h)
        y = evaluate(x)
        data.append(x, y)
    best_y = np.maximum.accumulate(data.y)
    i_best = int(np.argmax(data.y))
    history = TuningHistory(X=data.X.copy(), y=data.y.copy(), best_y=best_y)
    return data.X[i_best].copy(), float(data.y[i_best]), history


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
    x = np.asarray(x, dtype=float)
    return FlrBounds.ordered((x[0], x[1]), (x[2], x[3]),
                             (x[4], x[5]), (x[6], x[7]))


def make_pd_cost(params: PlantParams, sim: SimConfig, ref: Reference,
                 dist: DisturbanceModel):
    """Square-wave tracking cost of a plain cascaded PD with gains x."""

    def cost(x) -> float:
        gains = GainSet(*np.maximum(x, 0.0))
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
