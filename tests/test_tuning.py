import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import optimize
from scipy.linalg import cho_factor, cho_solve, cholesky, lapack
from scipy.stats import qmc

from flexjoint import tuning
from flexjoint.cli import main
from flexjoint.control import (TRAJ_COLUMNS, DivergedTrajectory, GainSet,
                               Trajectory)
from flexjoint.plant import PlantParams, State
from flexjoint.tuning import (_LEN_BOUNDS, _NOISE_RATIO_BOUNDS, _SIG_BOUNDS,
                              FAILED_COST, FIT_STARTS, LOCAL_SEARCHES,
                              SOBOL_CANDIDATES, SOBOL_MAX_DIM, Domain,
                              GpModel, TunerConfig, _cov, _lbfgsb_run,
                              _lockstep, _neg_lml_and_grad, _nelder_mead,
                              _planes, _search_round, _sorted_simplex,
                              _sum_planes, flr_bound_domain,
                              flr_bounds_from_vector, gp_fit, gp_predict,
                              latin_hypercube, pd_gain_domain, smbo, sobol,
                              suggest, tracking_cost, ucb)
from oracles import dense_oracle, noise_variance, read_csv, state_matrix

UNIT = Domain(names=("x",), lo=(0.0,), hi=(1.0,))


def _cfg(**kw):
    kw.setdefault("T", 30)
    kw.setdefault("n_init", 5)
    return TunerConfig(**kw)


# ---------------------------------------------------------------------------
# domain and dataset

def test_domain_validation():
    with pytest.raises(ValueError):
        Domain(names=("a",), lo=(1.0,), hi=(0.0,))
    with pytest.raises(ValueError):
        Domain(names=("a", "b"), lo=(0.0,), hi=(1.0,))
    for lo, hi in ((math.nan, 1.0), (0.0, math.nan), (-math.inf, 0.0),
                   (0.0, math.inf), (-1e308, 1e308)):
        with pytest.raises(ValueError):
            Domain(names=("a",), lo=(lo,), hi=(hi,))


@given(x=st.lists(st.floats(0, 1), min_size=3, max_size=3))
@settings(max_examples=100, deadline=None)
def test_domain_normalize_roundtrip(x):
    d = Domain(names=("a", "b", "c"), lo=(-5.0, 0.0, 100.0),
               hi=(5.0, 30.0, 250.0))
    X = d.denormalize(np.array(x))
    np.testing.assert_allclose(d.normalize(X), np.atleast_2d(x),
                               rtol=1e-12, atol=1e-12)


def test_pd_gain_domain_box():
    d = pd_gain_domain()
    assert d.names == ("kp1", "kd1", "kp2", "kd2")
    assert d.lo == (0.0,) * 4
    assert d.hi == (150.0, 30.0, 150.0, 30.0)


def test_flr_domain_and_vector_repair():
    d = flr_bound_domain(20.0)
    assert d.dim == 8 and d.lo == (-20.0,) * 8
    b = flr_bounds_from_vector([3.0, -1.0, 0.0, 2.0, -4.0, -5.0, 1.0, 1.0])
    assert b.dkp1 == (-1.0, 3.0) and b.dkp2 == (-5.0, -4.0)
    assert b.dkd2 == (1.0, 1.0)


def test_dataset_validation():
    with pytest.raises(ValueError):
        gp_fit(np.zeros((3, 2)), np.zeros(2), UNIT, 0)
    with pytest.raises(ValueError):
        gp_fit(np.array([[0.0], [np.nan]]), np.zeros(2), UNIT, 0)


# ---------------------------------------------------------------------------
# Gaussian process

def test_gp_needs_two_rows():
    with pytest.raises(ValueError):
        gp_fit(np.array([[0.5]]), np.array([1.0]), UNIT, 0)


def test_gp_interpolates_two_points():
    model = gp_fit(np.array([[0.0], [1.0]]), np.array([0.0, 1.0]), UNIT, 0)
    mean, std = gp_predict(model, np.array([0.0]))
    assert mean == pytest.approx(0.0, abs=1e-3)
    assert std >= 0.0


def test_gp_constant_targets():
    rng = np.random.default_rng(0)
    X = rng.uniform(0, 1, size=(12, 1))
    c = 7.5
    model = gp_fit(X, np.full(12, c), UNIT, 0)
    for q in np.linspace(X.min(), X.max(), 17):
        mean, _ = gp_predict(model, np.array([q]))
        assert mean == pytest.approx(c, abs=1e-2 * abs(c) + 1e-6)


def test_gp_reproduces_training_targets():
    rng = np.random.default_rng(3)
    X = rng.uniform(0, 1, size=(20, 1))
    y = np.sin(3.0 * X[:, 0])
    model = gp_fit(X, y, UNIT, 0)
    tol = 3.0 * np.sqrt(noise_variance(model)) * model.y_std + 1e-6
    for xi, yi in zip(X, y):
        mean, _ = gp_predict(model, xi)
        assert abs(mean - yi) <= tol


def test_gp_regression_quality_held_out():
    rng = np.random.default_rng(5)
    X = rng.uniform(0, 1, size=(20, 1))
    model = gp_fit(X, np.sin(3.0 * X[:, 0]), UNIT, 0)
    q = np.linspace(0.0, 1.0, 50)[:, None]
    mean, _ = gp_predict(model, q)
    rms = float(np.sqrt(np.mean((mean - np.sin(3.0 * q[:, 0])) ** 2)))
    assert rms < 0.1


@pytest.mark.parametrize("seed,n,d", [(0, 12, 1), (1, 30, 2), (2, 50, 4)])
def test_gp_matches_dense_oracle(seed, n, d):
    rng = np.random.default_rng(seed)
    dom = Domain(names=tuple(f"x{i}" for i in range(d)),
                 lo=(0.0,) * d, hi=(1.0,) * d)
    X = rng.uniform(0, 1, size=(n, d))
    y = np.sin(X.sum(axis=1) * 2.0) + 0.01 * rng.standard_normal(n)
    model = gp_fit(X, y, dom, 0)
    Xq = rng.uniform(0, 1, size=(25, d))
    mean, std = gp_predict(model, Xq)
    mean_o, std_o = dense_oracle(model, X, y, Xq)
    np.testing.assert_allclose(mean, mean_o, rtol=1e-6, atol=1e-6 * model.y_std)
    np.testing.assert_allclose(std, std_o, rtol=1e-6, atol=1e-6 * model.y_std)


def test_posterior_variance_nonnegative_everywhere():
    rng = np.random.default_rng(8)
    for trial in range(5):
        d = int(rng.integers(1, 4))
        dom = Domain(names=tuple(f"x{i}" for i in range(d)),
                     lo=(0.0,) * d, hi=(1.0,) * d)
        X = rng.uniform(0, 1, size=(15, d))
        model = gp_fit(X, rng.standard_normal(15), dom, 0)
        _, std = gp_predict(model, rng.uniform(0, 1, size=(2000, d)))
        assert np.all(std >= 0.0)


# The surrogate's hot calls as they were before they cached the kernel state
# and called LAPACK directly: the lean versions must match them bit for bit,
# as simulate must match its euler_step loop.

def _ref_normalize(domain: Domain, X) -> np.ndarray:
    lo, hi = np.array(domain.lo), np.array(domain.hi)
    return (np.atleast_2d(X) - lo) / np.maximum(hi - lo, 1e-300)


def _ref_corr(D2, ls):
    return np.exp(-0.5 * np.sum(D2 / ls ** 2, axis=-1))


def _ref_sq_dists(A, B):
    return (A[:, None, :] - B[None, :, :]) ** 2


def _ref_planes(D2):
    """The likelihood's (d + 1, n, n) planes from squared differences D2
    (n, n, d): D2's planes, then ones, C-ordered as _planes makes them (the
    gradient's sums run over each contiguous plane)."""
    n, _, d = D2.shape
    Z = np.ones((d + 1, n, n))
    Z[:d] = np.moveaxis(D2, -1, 0)
    return Z


def _ref_gp_predict(model: GpModel, x):
    X = np.atleast_2d(np.asarray(x, dtype=float))
    Un = _ref_normalize(model.domain, X)
    ls = np.exp(model.theta[:-2])
    sf2 = float(np.exp(model.theta[-2]))
    ks = sf2 * _ref_corr(_ref_sq_dists(Un, model.Xn), ls)
    mean_s = ks @ model.alpha
    v = cho_solve((model.chol, True), ks.T)
    var = np.maximum(sf2 - np.sum(ks * v.T, axis=1), 0.0)
    mean = model.y_mean + model.y_std * mean_s
    std = model.y_std * np.sqrt(var)
    if np.ndim(x) == 1:
        return float(mean[0]), float(std[0])
    return mean, std


def _ref_neg_lml_and_grad(theta, Xn, ys, D2):
    n, d = Xn.shape
    ls = np.exp(theta[:d])
    sf2 = np.exp(theta[d])
    ratio = np.exp(theta[d + 1])
    C = _ref_corr(D2, ls)
    K = sf2 * (C + ratio * np.eye(n))
    try:
        L = cholesky(K + 1e-12 * sf2 * np.eye(n), lower=True)
    except np.linalg.LinAlgError:
        return 1e12, np.zeros_like(theta)
    alpha = cho_solve((L, True), ys)
    lml = (-0.5 * ys @ alpha - np.sum(np.log(np.diag(L)))
           - 0.5 * n * math.log(2.0 * math.pi))
    Kinv = cho_solve((L, True), np.eye(n))
    W = np.outer(alpha, alpha) - Kinv
    grad = np.empty_like(theta)
    for k in range(d):
        dK = sf2 * C * (D2[:, :, k] / ls[k] ** 2)
        grad[k] = 0.5 * np.sum(W * dK)
    grad[d] = 0.5 * np.sum(W * K)
    grad[d + 1] = 0.5 * np.trace(W) * sf2 * ratio
    return -lml, -grad


def _bytes(*values) -> bytes:
    return b"".join(np.asarray(v, dtype=float).tobytes() for v in values)


def _random_model(seed: int, d: int, n: int):
    """A box, a dataset and a GP model on it, factored as gp_fit did before
    the change (cho_factor, no jitter) from hyperparameters drawn inside
    their bounds."""
    rng = np.random.default_rng(seed)
    lo = rng.uniform(-50.0, 50.0, d)
    width = rng.uniform(0.0, 100.0, d) * (rng.random(d) < 0.9)
    dom = Domain(names=tuple(f"x{i}" for i in range(d)), lo=tuple(lo),
                 hi=tuple(lo + width))
    X = dom.denormalize(rng.random((n, d)))
    y = rng.standard_normal(n)
    Xn = dom.normalize(X)
    ys = (y - y.mean()) / y.std()
    theta = np.concatenate([rng.uniform(*_LEN_BOUNDS, d),
                            [rng.uniform(*_SIG_BOUNDS)],
                            [rng.uniform(*_NOISE_RATIO_BOUNDS)]])
    ls, sf2 = np.exp(theta[:d]), float(np.exp(theta[d]))
    K = sf2 * (_ref_corr(_ref_sq_dists(Xn, Xn), ls)
               + float(np.exp(theta[d + 1])) * np.eye(n))
    cho = cho_factor(K, lower=True)
    model = GpModel(domain=dom, Xn=Xn, theta=theta, y_mean=float(y.mean()),
                    y_std=float(y.std()), alpha=cho_solve(cho, ys), chol=cho[0])
    return model, ys, rng


def _random_thetas(rng, k: int, d: int) -> np.ndarray:
    """k hyperparameter rows inside their bounds, the last repeating the
    first when k > 1."""
    thetas = np.column_stack([rng.uniform(*_LEN_BOUNDS, (k, d)),
                              rng.uniform(*_SIG_BOUNDS, k),
                              rng.uniform(*_NOISE_RATIO_BOUNDS, k)])
    thetas[-1] = thetas[0]
    return thetas


# _sum_planes adds one by one below 8 dimensions and as a tree at 8: the
# examples sit on both sides of that switch; the likelihood splits k = 8
# rows into batches of 4 at d = 4, n = 40 and of 1 at d = 8, n = 43
@given(seed=st.integers(0, 2 ** 32 - 1), d=st.integers(1, SOBOL_MAX_DIM),
       n=st.integers(2, 43), m=st.integers(1, 6), k=st.integers(1, 8))
@example(seed=0, d=7, n=4, m=3, k=8)
@example(seed=0, d=8, n=4, m=3, k=8)
@example(seed=1, d=4, n=40, m=6, k=8)
@example(seed=2, d=8, n=43, m=6, k=8)
@settings(max_examples=150, deadline=None)
def test_surrogate_matches_pre_cache_code_bitwise(seed, d, n, m, k):
    model, ys, rng = _random_model(seed, d, n)
    dom = model.domain
    # queries inside the box and up to half a width outside it
    Q = dom.denormalize(rng.uniform(-0.5, 1.5, (m, d)))
    mean, std = gp_predict(model, Q)
    for i in range(m):  # each batch row has the bits of a one-point call
        assert _bytes(mean[i], std[i]) == _bytes(*_ref_gp_predict(model, Q[i]))
    assert _bytes(*gp_predict(model, Q[0])) == \
        _bytes(*_ref_gp_predict(model, Q[0]))
    assert dom.normalize(Q).tobytes() == _ref_normalize(dom, Q).tobytes()
    U = rng.random((m, d))
    lo, hi = np.array(dom.lo), np.array(dom.hi)
    assert dom.denormalize(U).tobytes() == \
        (np.atleast_2d(U) * np.maximum(hi - lo, 1e-300) + lo).tobytes()
    assert dom.clip(Q[0]).tobytes() == np.clip(Q[0], dom.lo, dom.hi).tobytes()
    D2 = _ref_sq_dists(model.Xn, model.Xn)
    assert _planes(model.Xn).tobytes() == _ref_planes(D2).tobytes()
    # every row of a batch of k has the reference's bits
    thetas = _random_thetas(rng, k, d)
    values, grads = _neg_lml_and_grad(thetas, ys, _ref_planes(D2))
    assert values.shape == (len(thetas),) and grads.shape == thetas.shape
    for theta, value, grad in zip(thetas, values, grads):
        assert _bytes(value, grad) == \
            _bytes(*_ref_neg_lml_and_grad(theta, model.Xn, ys, D2))


@given(seed=st.integers(0, 2 ** 32 - 1), d=st.integers(1, SOBOL_MAX_DIM),
       n=st.integers(1, 150))
@example(seed=0, d=7, n=40)
@example(seed=0, d=8, n=40)
@example(seed=0, d=8, n=150)
@settings(max_examples=100, deadline=None)
def test_pair_corr_matches_full_corr_bitwise(seed, d, n):
    """The likelihood's correlations and covariances from the planes of
    _planes equal the full (n, n, d) computation bit for bit, from n = 1
    to 150 points, for every row of a batch of 1 to 4 hyperparameters:
    at unit signal variance and zero noise the covariance is the
    correlation, and otherwise sf2 * (C + ratio * I)."""
    rng = np.random.default_rng(seed)
    Xn = rng.random((n, d))
    Xn[rng.random(n) < 0.1] = Xn[0]  # repeated points
    D2 = _ref_sq_dists(Xn, Xn)
    Z = _planes(Xn)
    assert Z.flags.c_contiguous and Z.tobytes() == _ref_planes(D2).tobytes()
    e = np.exp(_random_thetas(rng, int(rng.integers(1, 5)), d))
    K = _cov(Z, e)
    unit = np.column_stack([e[:, :d], np.ones(len(e)), np.zeros(len(e))])
    C = _cov(Z, unit)
    assert K.shape == C.shape == (len(e), n, n)
    for row, Ki, Ci in zip(e, K, C):
        ls, sf2, ratio = row[:d], row[d], row[d + 1]
        assert Ci.tobytes() == _ref_corr(D2, ls).tobytes()
        assert Ki.tobytes() == \
            (sf2 * (_ref_corr(D2, ls) + ratio * np.eye(n))).tobytes()


@pytest.mark.parametrize("d,n", [(1, 2), (4, 16), (4, 60), (8, 30)])
def test_gp_fit_factors_its_covariance_at_theta_bitwise(d, n):
    """gp_fit's last step on its own: at the fitted theta, chol is LAPACK's
    factor of sf2 * (C + ratio * I) with C the full (n, n, d) correlations,
    and alpha that factor's solve of the standardized costs, bit for bit,
    through _sum_planes' single-plane, one-by-one and 8-plane orders."""
    rng = np.random.default_rng(100 * d + n)
    lo = rng.uniform(-50.0, 50.0, d)
    dom = Domain(names=tuple(f"x{i}" for i in range(d)), lo=tuple(lo),
                 hi=tuple(lo + rng.uniform(1.0, 100.0, d)))
    X = dom.denormalize(rng.random((n, d)))
    y = np.sin(3.0 * dom.normalize(X).sum(axis=1)) + rng.standard_normal(n)
    model = gp_fit(X, y, dom, 0)
    theta = model.theta
    sf2, ratio = float(np.exp(theta[d])), float(np.exp(theta[d + 1]))
    C = _ref_corr(_ref_sq_dists(model.Xn, model.Xn), np.exp(theta[:d]))
    chol, info = lapack.dpotrf(sf2 * (C + ratio * np.eye(n)), lower=1, clean=0)
    assert info == 0
    assert model.chol.tobytes() == chol.tobytes()
    ys = (y - np.mean(y)) / np.std(y)
    alpha, info = lapack.dpotrs(chol, ys, lower=1)
    assert info == 0
    assert model.alpha.tobytes() == alpha.tobytes()


def test_sum_planes_follows_numpy_sum_order():
    """_sum_planes over d planes has the bits of np.sum over a contiguous
    last axis of length d, on values that span 12 orders of magnitude, for
    every d a Domain allows: one by one below 8, a tree at 8."""
    rng = np.random.default_rng(0)
    for d in range(1, SOBOL_MAX_DIM + 1):
        A = rng.random((3, 5, d)) * np.exp(rng.uniform(-14.0, 14.0, (3, 5, d)))
        D = np.ascontiguousarray(np.moveaxis(A, -1, 0))
        assert _sum_planes(D).tobytes() == A.sum(axis=-1).tobytes(), d


def _traced_peak(f, *args) -> int:
    """The traced peak of f(*args), in bytes above what was held before."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        f(*args)
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_ucb_scan_forms_no_query_training_dimension_array():
    """A 2048-point scan against 149 training points, in 4-D and 8-D,
    builds its kernel in blocks of query rows, each under _BATCH_BYTES of
    (d, rows, n) differences: the traced peak of gp_predict stays within
    3 budgets and d + 2 float64 per query (the normalized queries, the
    means and the variance terms), where one (2048, 149, 4) array of
    differences takes 9.8 MB.  An 8192-point scan peaks no higher, apart
    from those per-query arrays: the blocks do not grow with m."""
    for d in (4, 8):
        model, _, rng = _random_model(0, d, 149)
        peaks = {m: _traced_peak(gp_predict, model,
                                 model.domain.denormalize(rng.random((m, d))))
                 for m in (2048, 8192)}
        assert peaks[2048] <= 3 * tuning._BATCH_BYTES + (d + 2) * 8 * 2048, d
        assert peaks[8192] - peaks[2048] <= (d + 4) * 8 * (8192 - 2048), d


def _first_split(d: int) -> int:
    """The most training points at which a SOBOL_CANDIDATES scan in d
    dimensions is still one block."""
    return tuning._BATCH_BYTES // (8 * d * SOBOL_CANDIDATES)


# n on both sides of the first split, where a scan becomes two blocks, and
# at 40 points, where it takes 7 to 52 blocks
@pytest.mark.parametrize("d,n", [(d, n) for d in range(1, SOBOL_MAX_DIM + 1)
                                 for n in (max(2, _first_split(d)),
                                           _first_split(d) + 1, 40)])
def test_blocked_scan_rows_match_one_point_calls(d, n):
    """gp_predict on block_rows - 1, block_rows, block_rows + 1 and
    SOBOL_CANDIDATES queries: every row has the bits of a one-point call,
    whichever block it falls in."""
    model, _, rng = _random_model(d * 100 + n, d, n)
    rows = model.block_rows
    assert rows == max(1, tuning._BATCH_BYTES // (8 * d * n))
    m_max = max(rows + 1, SOBOL_CANDIDATES)
    Q = model.domain.denormalize(rng.uniform(-0.5, 1.5, (m_max, d)))
    single = [gp_predict(model, q) for q in Q]
    for m in (rows - 1, rows, rows + 1, SOBOL_CANDIDATES):
        mean, std = gp_predict(model, Q[:m])
        assert mean.shape == std.shape == (m,)
        for i in range(m):
            assert _bytes(mean[i], std[i]) == _bytes(*single[i]), (m, i)


@pytest.mark.parametrize("d", [4, 8])
def test_likelihood_row_holds_the_planes_tuner_config_states(d):
    """One likelihood row over 149 training points, its planes built
    included, peaks within the 2d + 6 (n, n) float64 planes that
    TunerConfig states (14 at d = 4, 22 at d = 8) and half a plane for
    the length-n vectors."""
    n = 149
    rng = np.random.default_rng(d)
    Xn, ys = rng.random((n, d)), rng.standard_normal(n)
    theta = np.concatenate([np.zeros(d), [0.0], [math.log(1e-4)]])[None]
    peak = _traced_peak(lambda: _neg_lml_and_grad(theta, ys, _planes(Xn)))
    assert peak <= (2 * d + 6.5) * n * n * 8


def test_gp_predict_off_a_zero_width_dimension_is_the_prior():
    """A query off a zero-width dimension of the box is infinitely far
    from every training point: zero correlation, the prior mean and
    standard deviation, and no overflow warning on the way."""
    dom = Domain(names=("a", "b"), lo=(0.0, 2.0), hi=(1.0, 2.0))
    X = np.array([[0.1, 2.0], [0.5, 2.0], [0.9, 2.0]])
    model = gp_fit(X, np.array([0.0, 1.0, 0.5]), dom, 0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for offset in (1.0, 1e10):  # the square overflows, then the divide
            mean, std = gp_predict(model, np.array([0.5, 2.0 + offset]))
            assert mean == model.y_mean
            assert std == model.y_std * math.sqrt(model.signal_variance)


def test_suggest_with_training_rows_off_a_zero_width_dimension():
    """Training rows off a zero-width dimension of the box sit infinitely
    far from every query in it, where the squared offsets of the scan and
    of every search round overflow to inf: zero correlation, with no
    overflow warning on the way.  The point suggested lies in the box and
    scores at least the best of the scan."""
    dom = Domain(names=("a", "b"), lo=(0.0, 2.0), hi=(1.0, 2.0))
    X = np.array([[0.1, 2.5], [0.5, 2.5], [0.9, 2.5], [0.3, 2.5]])
    model = gp_fit(X, np.array([0.0, 1.0, 0.5, 0.2]), dom, 0)
    h = 2.576
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        x = suggest(model, np.random.default_rng(3), h)
        cand = dom.denormalize(sobol(2, SOBOL_CANDIDATES,
                                     int(np.random.default_rng(3).integers(
                                         2 ** 63))))
        scan = ucb(*gp_predict(model, cand), h)
        assert ucb(*gp_predict(model, x), h) >= scan.max()
    assert x.tobytes() == dom.clip(x).tobytes()


def test_gp_fit_rows_straddling_a_zero_width_dimension_is_one_line_error():
    """Rows at 2.0 and 2.5 on a [2, 2] dimension lie 5e299 normalized
    widths apart, past what the likelihood's planes can square: gp_fit
    raises a one-line ValueError that names the dimension, before any
    overflow warning (an error under the suite's filterwarnings)."""
    dom = Domain(names=("a", "b"), lo=(0.0, 2.0), hi=(1.0, 2.0))
    for X in ([[0.1, 2.0], [0.5, 2.5]], [[0.1, 2.5], [0.5, 2.5], [0.9, 1.5]],
              [[0.1, 2e10], [0.5, 2e10]]):
        with pytest.raises(ValueError, match="dimension b") as err:
            gp_fit(np.array(X), np.arange(len(X), dtype=float), dom, 0)
        assert "\n" not in str(err.value)


def test_surrogate_rejects_nonfinite_and_non_pd_input():
    model, ys, _ = _random_model(0, 2, 5)
    x = np.array([np.nan, model.domain.lo[1]])
    with pytest.raises(ValueError):
        gp_predict(model, x)
    with pytest.raises(ValueError):
        gp_predict(model, np.stack([x[::-1], x]))
    with pytest.raises(ValueError):
        gp_predict(model, np.array([np.inf, model.domain.lo[1]]))
    D2 = _ref_sq_dists(model.Xn, model.Xn)
    good = _random_thetas(np.random.default_rng(1), 1, 2)[0]
    for bad_row in (0, 1):  # a NaN row fails its whole batch
        thetas = np.array([good, good])
        thetas[bad_row] = np.nan
        with pytest.raises(ValueError):
            _neg_lml_and_grad(thetas, ys, _ref_planes(D2))
    # correlations 0.99 / 0.99 / 0 around a chain of three points: not PSD
    c = -2.0 * math.log(0.99)
    D2 = np.array([[0.0, c, 100.0], [c, 0.0, c], [100.0, c, 0.0]])[:, :, None]
    theta = np.array([0.0, 0.0, _NOISE_RATIO_BOUNDS[0]])
    pd_theta = np.array([-3.0, 0.0, _NOISE_RATIO_BOUNDS[0]])  # short scale
    ys = np.array([1.0, -1.0, 0.5])
    values, grads = _neg_lml_and_grad(np.array([pd_theta, theta, pd_theta]),
                                      ys, _ref_planes(D2))
    # the non-PD row alone takes the 1e12 branch, with a +0.0 gradient
    assert values[1] == 1e12 and grads[1].tobytes() == np.zeros(3).tobytes()
    assert _ref_neg_lml_and_grad(theta, np.zeros((3, 1)), ys, D2)[0] == 1e12
    for i in (0, 2):
        assert _bytes(values[i], grads[i]) == _bytes(
            *_ref_neg_lml_and_grad(pd_theta, np.zeros((3, 1)), ys, D2))
        assert values[i] != 1e12


def _drive(search, f):
    """Run a _nelder_mead generator on the point function f."""
    try:
        x = next(search)
        while True:
            x = search.send(f(x))
    except StopIteration as done:
        return done.value


@given(seed=st.integers(0, 2 ** 32 - 1), d=st.integers(1, 8),
       n=st.integers(2, 40), h=st.sampled_from([0.0, 2.576, None]))
@settings(max_examples=40, deadline=None)
def test_local_search_matches_scipy_and_gp_predict_bitwise(seed, d, n, h):
    """_search_round, as suggest evaluates its local searches, equals -ucb
    of a one-point gp_predict for every point of a batch of 1 to 8, and
    _nelder_mead driven point by point equals scipy's Nelder-Mead on that
    function, bit for bit, from Sobol candidates, corners, points on box
    faces (where clipping ties values), points with zero components and
    boxes with zero-width dimensions.  Every query of the simplex is
    evaluated at a random slot of a random batch."""
    model, _, rng = _random_model(seed, d, n)
    dom = model.domain
    h = float(rng.uniform(0.0, 5.0)) if h is None else h

    def neg_ucb(x):
        m, s = gp_predict(model, dom.clip(x))
        return -ucb(m, s, h)

    def in_batch(f, x):
        # f's value at x from a random slot of a batch of 1 to 8 points
        k = int(rng.integers(1, 9))
        batch = dom.denormalize(rng.uniform(-0.5, 1.5, (k, d)))
        i = int(rng.integers(k))
        batch[i] = x
        return f(batch)[i]

    lo, hi = np.array(dom.lo), np.array(dom.hi)
    starts = list(dom.denormalize(
        qmc.Sobol(d, scramble=True, seed=seed).random(2)))
    starts += [lo, hi, np.where(rng.random(d) < 0.5, lo, hi)]
    face = dom.denormalize(rng.random((1, d)))[0]
    k = rng.integers(d)
    face[k] = hi[k] if rng.random() < 0.5 else lo[k]
    zeros = dom.denormalize(rng.random((1, d)))[0]
    zeros[rng.random(d) < 0.5] = 0.0
    starts += [face, zeros, np.zeros(d), np.full(d, -0.0)]

    def batch_neg_ucb(X):
        return _search_round(model, np.array(X), h)

    def checked(x):
        value = in_batch(batch_neg_ucb, x)
        assert np.float64(value).tobytes() == np.float64(neg_ucb(x)).tobytes()
        return value

    for x0 in starts:
        probes = [x0, x0 + rng.uniform(-1.0, 1.0, d) * (hi - lo + 1.0)]
        for x in probes:
            checked(x)
        x, fun = _drive(_nelder_mead(x0), checked)
        res = optimize.minimize(neg_ucb, x0, method="Nelder-Mead",
                                options={"maxiter": 120, "xatol": 1e-6,
                                         "fatol": 1e-12})
        assert x.tobytes() == res.x.tobytes()
        assert np.float64(fun).tobytes() == np.float64(res.fun).tobytes()


# simplex values as the search meets them: signed zeros, repeats (clipping
# to a box face gives equal UCB values), infinities and NaN beside any float
_SIMPLEX_VALUE = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, 5e-324, -5e-324, 1e300,
                     math.inf, -math.inf, math.nan]),
    st.floats(allow_nan=True, allow_infinity=True))


def _tied(values: list, picks: list) -> list:
    """values with entry i replaced by a copy of entry picks[i] where
    picks[i] < i, so ties are forced wherever the picks say."""
    values = list(values)
    for i, j in enumerate(picks[:len(values)]):
        if j < i:
            values[i] = values[j]
    return values


@given(values=st.lists(_SIMPLEX_VALUE, min_size=2, max_size=9),
       picks=st.lists(st.integers(0, 8), max_size=9))
@example(values=[0.0, -0.0], picks=[])
@example(values=[-0.0, 1.0, 0.0, -0.0, 0.0], picks=[])
@example(values=[2.0, 1.0, 3.0, 1.0, 2.0, 1.0], picks=[])
@example(values=[1.0, 2.0, 3.0, 1.5], picks=[])  # a new worst vertex
@example(values=[0.0, 2.0, 3.0, -0.0], picks=[])
@example(values=[1.0, 2.0, 3.0, math.nan], picks=[])
@settings(max_examples=300, deadline=None)
def test_sorted_simplex_orders_as_argsort(values, picks):
    """_sorted_simplex puts the vertices in the order np.argsort puts
    their values, whether Python's sort or np.argsort orders them: with
    forced ties, -0.0 beside 0.0, repeats, NaN, and a sorted simplex
    whose worst vertex a step replaced."""
    fs = _tied(values, picks)
    order = np.array(fs).argsort().tolist()
    sim, ranked = _sorted_simplex([[i] for i in range(len(fs))], fs)
    assert [v[0] for v in sim] == order
    assert _bytes(ranked) == _bytes([fs[i] for i in order])


@given(values=st.lists(_SIMPLEX_VALUE, min_size=2, max_size=9),
       picks=st.lists(st.integers(0, 8), max_size=9))
@example(values=[0.0, -0.0], picks=[])
@example(values=[-math.inf, -math.inf, 1.0], picks=[])
@example(values=[-math.inf, -math.inf], picks=[])
@example(values=[math.inf, math.inf], picks=[])
@example(values=[1.0, 1.0 + 1e-12, 1.0 + 2e-12], picks=[])
@example(values=[0.0, 1e-12, 5e-13], picks=[])
@example(values=[1.0, 2.0, math.nan], picks=[])
@settings(max_examples=300, deadline=None)
def test_one_comparison_stop_test_is_scipys(values, picks):
    """On every order _sorted_simplex returns, _nelder_mead's value test
    fs[-1] - fs[0] <= 1e-12 decides as scipy's
    np.max(np.abs(fsim[0] - fsim[1:])) <= fatol: with forced ties, signed
    zeros, differences at the tolerance, infinities and NaN."""
    _, fs = _sorted_simplex([[i] for i in range(len(values))],
                            _tied(values, picks))
    fsim = np.array(fs)
    # inf - inf is NaN, and a difference past the float range inf, in both
    # forms; Python's floats say nothing of either
    with np.errstate(invalid="ignore", over="ignore"):
        scipy_stops = bool(np.max(np.abs(fsim[0] - fsim[1:])) <= 1e-12)
    assert (fs[-1] - fs[0] <= 1e-12) == scipy_stops


def _chain_pairs(D2: np.ndarray) -> np.ndarray:
    """D2 with the first three points moved, along dimension 0 alone, to
    the distances of a chain whose correlations at unit length scale are
    0.99, 0.99 and 0: no point set has them, and near that scale the
    covariance is not positive definite."""
    D2 = D2.copy()
    c = -2.0 * math.log(0.99)
    for (i, j), v in {(0, 1): c, (1, 2): c, (0, 2): 100.0}.items():
        D2[i, j] = D2[j, i] = 0.0
        D2[i, j, 0] = D2[j, i, 0] = v
    return D2


def _row_fun(theta, ys, Z):
    """The likelihood at one theta, as a batch of one: the function
    scipy.optimize.minimize is given as the reference."""
    values, grads = _neg_lml_and_grad(theta[None], ys, Z)
    return values[0], grads[0]


def _fit_box(d: int) -> tuple[list, np.ndarray, np.ndarray]:
    bounds = [_LEN_BOUNDS] * d + [_SIG_BOUNDS, _NOISE_RATIO_BOUNDS]
    return (bounds, np.array([b[0] for b in bounds]),
            np.array([b[1] for b in bounds]))


def _lbfgsb_lockstep(fun, starts, lo, hi, ys, Z):
    """_lbfgsb_run from every start on _lockstep, each round's rows
    evaluated by one call fun(xs, ys, Z), as gp_fit runs its starts."""
    return _lockstep([_lbfgsb_run(x0, lo, hi) for x0 in starts],
                     lambda xs: zip(*fun(xs, ys, Z)))


def _assert_lockstep_matches_scipy(starts, ys, Z, fun=_neg_lml_and_grad):
    bounds, lo, hi = _fit_box(len(starts[0]) - 2)
    results = _lbfgsb_lockstep(fun, starts, lo, hi, ys, Z)
    assert len(results) == len(starts)
    for x0, (x, value) in zip(starts, results):
        res = optimize.minimize(_row_fun, x0, args=(ys, Z), jac=True,
                                method="L-BFGS-B", bounds=bounds)
        assert x.tobytes() == res.x.tobytes()
        assert np.float64(value).tobytes() == np.float64(res.fun).tobytes()


@given(seed=st.integers(0, 2 ** 32 - 1), d=st.integers(1, 8),
       n=st.integers(2, 40), chain=st.booleans(), k=st.integers(1, 8))
@settings(max_examples=60, deadline=None)
def test_lbfgsb_matches_scipy_bitwise(seed, d, n, chain, k):
    """_lockstep over the _lbfgsb_run of k = 1 to 8 starts returns, for each
    start, scipy.optimize.minimize's L-BFGS-B x and value bit for bit on
    the likelihood: from gp_fit's fixed start, a random start, a corner of
    the box, a start outside it (which clips), and more random starts and
    repeats, whose runs end after different numbers of rounds.  With
    `chain` the covariance is not positive definite near unit length
    scales, so runs start in or pass through the 1e12 branch."""
    rng = np.random.default_rng(seed)
    Xn = rng.random((n, d))
    Xn[rng.random(n) < 0.1] = Xn[0]  # repeated points
    D2 = _ref_sq_dists(Xn, Xn)
    if chain and n >= 3:
        D2 = _chain_pairs(D2)
    ys = rng.standard_normal(n)
    _, lo, hi = _fit_box(d)
    starts = [np.concatenate([np.zeros(d), [0.0], [math.log(1e-4)]]),
              rng.uniform(lo, hi), np.where(rng.random(d + 2) < 0.5, lo, hi),
              rng.uniform(lo - 3.0, hi + 3.0)]
    while len(starts) < k:
        starts.append(rng.uniform(lo, hi) if rng.random() < 0.75
                      else starts[int(rng.integers(len(starts)))])
    _assert_lockstep_matches_scipy(starts[:k], ys, _ref_planes(D2))


def test_lbfgsb_passes_through_the_non_pd_branch():
    """A run that starts where the covariance is positive definite, steps
    into the 1e12 branch and backs out of it matches scipy bit for bit,
    alone and in lockstep with 1 to 7 other starts."""
    rng = np.random.default_rng(11)
    Xn = rng.random((6, 2))
    Z = _ref_planes(_chain_pairs(_ref_sq_dists(Xn, Xn)))
    ys = rng.standard_normal(6)
    _, lo, hi = _fit_box(2)
    x0 = np.array([-3.36, 2.04, -1.95, -13.42])
    values = []

    def fun(thetas, *args):
        v, g = _neg_lml_and_grad(thetas, *args)
        values.extend(v)
        return v, g

    _assert_lockstep_matches_scipy([x0], ys, Z, fun)
    assert values[0] != 1e12 and 1e12 in values
    for k in range(2, 9):
        others = [rng.uniform(lo, hi) for _ in range(k - 1)]
        _assert_lockstep_matches_scipy([x0] + others, ys, Z)


def test_gp_fit_runs_its_starts_in_lockstep(monkeypatch):
    """At n = 16, gp_fit makes as many batched likelihood calls as its
    longest start needs alone, not the sum over its FIT_STARTS starts,
    and evaluates each start's points once: the rows of its calls add up
    to the calls of the starts run one at a time."""
    rng = np.random.default_rng(4)
    dom = pd_gain_domain()
    X = dom.denormalize(rng.random((16, 4)))
    y = np.sin(X @ rng.standard_normal(4) / 50.0)
    starts, rows = [], []
    likelihood = tuning._neg_lml_and_grad

    def spy_run(x0, lo, hi):
        starts.append(x0.copy())
        return _lbfgsb_run(x0, lo, hi)

    def counting(thetas, *args):
        rows.append(len(thetas))
        return likelihood(thetas, *args)

    monkeypatch.setattr(tuning, "_lbfgsb_run", spy_run)
    monkeypatch.setattr(tuning, "_neg_lml_and_grad", counting)
    gp_fit(X, y, dom, 0)
    assert len(starts) == FIT_STARTS
    fit_rows = rows[:]
    _, lo, hi = _fit_box(4)
    Xn = dom.normalize(X)
    ys = (y - y.mean()) / y.std()
    alone = []
    for x0 in starts:
        rows.clear()
        _lbfgsb_lockstep(counting, [x0], lo, hi, ys, _planes(Xn))
        assert set(rows) == {1}
        alone.append(len(rows))
    assert len(fit_rows) == max(alone) < sum(alone)
    assert sum(fit_rows) == sum(alone)
    assert fit_rows[0] == FIT_STARTS and fit_rows[-1] == 1


def test_lockstep_sends_each_run_its_own_row():
    """_lockstep over runs that end after different numbers of rounds:
    one fun call per round, as many as the longest run's, whose rows are
    the pending points of the live runs in run order; each run gets the
    reply to its own row, and the results come back in run order."""
    rounds = [3, 1, 5, 2, 5, 4]

    def run(k):
        replies = []
        for r in range(rounds[k]):
            replies.append((yield [float(k), float(r)]))
        return k, replies

    calls = []

    def fun(xs):
        calls.append(xs.tolist())
        return [f"reply {k:g}.{r:g}" for k, r in xs]

    results = _lockstep([run(k) for k in range(len(rounds))], fun)
    assert len(calls) == max(rounds)
    for r, rows in enumerate(calls):
        assert rows == [[float(k), float(r)] for k, n in enumerate(rounds)
                        if n > r]
    assert results == [(k, [f"reply {k}.{r}" for r in range(n)])
                       for k, n in enumerate(rounds)]


def test_suggest_runs_its_searches_in_lockstep(monkeypatch):
    """After its scan, suggest makes as many _posterior calls as its
    longest local search needs alone, not the sum over its LOCAL_SEARCHES
    searches, and evaluates each search's queries once: the rows of those
    calls add up to the searches' queries run one at a time.  Its point
    is, bit for bit, the best of those searches, each run alone with
    _drive on a one-point gp_predict's negated UCB."""
    rng = np.random.default_rng(4)
    dom = pd_gain_domain()
    X = dom.denormalize(rng.random((16, 4)))
    model = gp_fit(X, np.sin(X @ rng.standard_normal(4) / 50.0), dom, 0)
    h = 2.576
    core = tuning._posterior
    rows = []

    def counting(model, U):
        rows.append(len(U))
        return core(model, U)

    monkeypatch.setattr(tuning, "_posterior", counting)
    x = suggest(model, np.random.default_rng(9), h)
    monkeypatch.undo()
    assert rows[0] == SOBOL_CANDIDATES
    search_rows = rows[1:]

    seed = int(np.random.default_rng(9).integers(2 ** 63))
    cand = dom.denormalize(sobol(dom.dim, SOBOL_CANDIDATES, seed))
    scores = ucb(*gp_predict(model, cand), h)
    order = np.argsort(scores)[::-1]
    queries, results = [], []
    for i in order[:LOCAL_SEARCHES]:
        queries.append(0)

        def neg_ucb(point):
            queries[-1] += 1
            return -ucb(*gp_predict(model, dom.clip(np.array(point))), h)

        results.append(_drive(_nelder_mead(cand[i]), neg_ucb))
    assert len(search_rows) == max(queries) < sum(queries)
    assert sum(search_rows) == sum(queries)
    best_x, best_fun = min(results, key=lambda r: r[1])  # first of ties
    assert -best_fun > scores[order[0]]
    assert x.tobytes() == dom.clip(best_x).tobytes()


def test_pinned_tune_does_the_same_work(monkeypatch, tmp_path):
    """The frozen `tune --stage pd --episodes 16 --n-init 10` makes 465
    batched likelihood calls over 1,495 rows and 1,653 _posterior calls
    over 23,401 rows: 6 scans of SOBOL_CANDIDATES points and 1,647 search
    rounds.  A faster tuner does the same work, not less of it."""
    likelihood, core = tuning._neg_lml_and_grad, tuning._posterior
    fit_rows, core_rows = [], []

    def counting_likelihood(thetas, *args):
        fit_rows.append(len(thetas))
        return likelihood(thetas, *args)

    def counting_core(model, U):
        core_rows.append(len(U))
        return core(model, U)

    monkeypatch.setattr(tuning, "_neg_lml_and_grad", counting_likelihood)
    monkeypatch.setattr(tuning, "_posterior", counting_core)
    assert main(["tune", "--stage", "pd", "--episodes", "16", "--n-init", "10",
                 "--out", str(tmp_path / "pin")]) == 0
    assert (len(fit_rows), sum(fit_rows)) == (465, 1495)
    assert (len(core_rows), sum(core_rows)) == (1653, 23401)
    assert core_rows.count(SOBOL_CANDIDATES) == 6
    assert max(r for r in core_rows if r != SOBOL_CANDIDATES) <= LOCAL_SEARCHES


def test_pinned_flr_tune_does_the_same_work(monkeypatch, tmp_path):
    """The frozen 8-D `tune --stage flr --episodes 12 --n-init 10` makes
    140 batched likelihood calls over 562 rows and 419 _posterior calls
    over 7,287 rows: 2 scans of SOBOL_CANDIDATES points and 417 search
    rounds, every one through _sum_planes' d = 8 branch."""
    likelihood, core = tuning._neg_lml_and_grad, tuning._posterior
    fit_rows, core_rows = [], []

    def counting_likelihood(thetas, *args):
        fit_rows.append(len(thetas))
        return likelihood(thetas, *args)

    def counting_core(model, U):
        assert U.shape[1] == 8
        core_rows.append(len(U))
        return core(model, U)

    monkeypatch.setattr(tuning, "_neg_lml_and_grad", counting_likelihood)
    monkeypatch.setattr(tuning, "_posterior", counting_core)
    gains = tmp_path / "gains.txt"
    gains.write_text("kp1 = 52.19\nkd1 = 10.18\nkp2 = 144.5\nkd2 = 8.636\n")
    assert main(["tune", "--stage", "flr", "--episodes", "12", "--n-init", "10",
                 "--gains", str(gains), "--out", str(tmp_path / "pin")]) == 0
    assert (len(fit_rows), sum(fit_rows)) == (140, 562)
    assert (len(core_rows), sum(core_rows)) == (419, 7287)
    assert core_rows.count(SOBOL_CANDIDATES) == 2
    assert max(r for r in core_rows if r != SOBOL_CANDIDATES) <= LOCAL_SEARCHES


def test_ucb_definition():
    assert ucb(1.0, 2.0, 2.576) == pytest.approx(1.0 + 2.576 * 2.0)
    assert ucb(np.array([1.0, 2.0]), np.array([1.0, 0.0]), 2.0)[0] == 3.0


# ---------------------------------------------------------------------------
# quasi-random draws

@given(seed=st.integers(0, 2 ** 63 - 1), d=st.integers(1, SOBOL_MAX_DIM),
       n=st.sampled_from([1, 2, 2048]))
@settings(max_examples=200, deadline=None)
def test_sobol_matches_scipy_bitwise(seed, d, n):
    ours = sobol(d, n, seed)
    theirs = qmc.Sobol(d, scramble=True, seed=seed).random(n)
    assert ours.shape == theirs.shape == (n, d)
    assert ours.tobytes() == theirs.tobytes()


@given(seed=st.integers(0, 2 ** 63 - 1), d=st.integers(1, SOBOL_MAX_DIM),
       n=st.integers(1, 40))
@settings(max_examples=200, deadline=None)
def test_latin_hypercube_matches_scipy_bitwise(seed, d, n):
    ours = latin_hypercube(d, n, seed)
    theirs = qmc.LatinHypercube(d, seed=seed).random(n)
    assert ours.shape == theirs.shape == (n, d)
    assert ours.tobytes() == theirs.tobytes()


def test_too_many_sobol_dimensions_is_one_line_error():
    """A box wider than the direction-number table is one line where the
    Domain is built, so no surrogate, suggest or smbo call sees one; sobol,
    which takes d itself, raises the same line."""
    d = SOBOL_MAX_DIM + 1
    message = (f"Sobol draws have direction numbers for at most "
               f"{SOBOL_MAX_DIM} dimensions, got {d}")
    with pytest.raises(ValueError) as exc:
        Domain(names=tuple(f"x{i}" for i in range(d)), lo=(0.0,) * d,
               hi=(1.0,) * d)
    assert str(exc.value) == message
    with pytest.raises(ValueError) as exc:
        sobol(d, 4, 0)
    assert str(exc.value) == message


# ---------------------------------------------------------------------------
# acquisition search

def _edge_model():
    # monotone data: the UCB maximum sits at the right domain edge
    X = np.linspace(0.05, 0.8, 8)[:, None]
    return gp_fit(X, X[:, 0].copy(), UNIT, 0)


def test_suggest_finds_edge_maximum():
    model = _edge_model()
    rng = np.random.default_rng(0)
    x = suggest(model, rng, h=2.576)
    # dense grid scan as independent oracle
    grid = np.linspace(0.0, 1.0, 10001)[:, None]
    mean, std = gp_predict(model, grid)
    scores = ucb(mean, std, 2.576)
    x_best = grid[np.argmax(scores), 0]
    m, s = gp_predict(model, x)
    assert ucb(m, s, 2.576) >= scores.max() - 1e-6
    assert abs(float(x[0]) - x_best) < 1e-3


def test_suggest_single_point_domain():
    point = Domain(names=("x",), lo=(0.4,), hi=(0.4,))
    X = np.array([[0.4], [0.4]])
    model = gp_fit(X, np.array([0.0, 0.1]), point, 0)
    x = suggest(model, np.random.default_rng(0), h=2.576)
    assert float(x[0]) == pytest.approx(0.4)


def test_suggest_deterministic_under_seed():
    model = _edge_model()
    a = suggest(model, np.random.default_rng(123), h=0.0)
    b = suggest(model, np.random.default_rng(123), h=0.0)
    np.testing.assert_array_equal(a, b)


def test_suggest_does_not_call_scipy_minimize(monkeypatch):
    model, _, _ = _random_model(3, 3, 12)

    def forbidden(*args, **kwargs):
        raise AssertionError("suggest called scipy.optimize.minimize")

    monkeypatch.setattr(optimize, "minimize", forbidden)
    x = suggest(model, np.random.default_rng(5), h=2.576)
    # the bits suggest returned when it refined with optimize.minimize
    assert [v.hex() for v in x.tolist()] == [
        "0x1.0c7f7805812dcp+4", "-0x1.0e7f531b61db8p+4", "0x1.d8dbeee63a040p+5"]


def test_gp_fit_does_not_call_scipy_minimize(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("gp_fit called scipy.optimize.minimize")

    monkeypatch.setattr(optimize, "minimize", forbidden)
    rng = np.random.default_rng(2)
    dom = Domain(names=("a", "b"), lo=(0.0, -1.0), hi=(1.0, 1.0))
    X = dom.denormalize(rng.random((12, 2)))
    model = gp_fit(X, np.sin(3.0 * X[:, 0]) + X[:, 1], dom, 0)
    assert np.isfinite(model.theta).all()


def test_suggest_stays_in_box():
    model = _edge_model()
    for seed in range(5):
        x = suggest(model, np.random.default_rng(seed), h=2.576)
        assert 0.0 <= float(x[0]) <= 1.0


# ---------------------------------------------------------------------------
# the optimization loop

def test_smbo_history_contract():
    cfg = _cfg(T=25, n_init=6, seed=4)

    def f(v):
        return -(v[0] - 0.3) ** 2

    X, y = smbo(f, UNIT, cfg)
    assert X.shape == (25, 1) and y.shape == (25,)
    assert y.tolist() == [f(x) for x in X]  # y[i] scores row i of X


def test_smbo_reproducible():
    cfg = _cfg(T=15, n_init=5, seed=7)
    X1, y1 = smbo(lambda v: -(v[0] - 0.6) ** 2, UNIT, cfg)
    X2, y2 = smbo(lambda v: -(v[0] - 0.6) ** 2, UNIT, cfg)
    np.testing.assert_array_equal(X1, X2)
    np.testing.assert_array_equal(y1, y2)


def test_smbo_penalizes_failing_cost():
    def cost(v):
        if v[0] > 0.5:
            raise DivergedTrajectory(7, 0.035, State(1e7, 0.0, 0.0, 0.0))
        return float(v[0])

    X, y = smbo(cost, UNIT, _cfg(T=20, n_init=8, seed=1))
    assert FAILED_COST in y
    assert len(y) == 20          # loop survived the failures
    assert y.max() <= 0.5 and y.max() >= 0.0


def test_smbo_propagates_programming_errors():
    def cost(v):
        return v[0] + "oops"

    with pytest.raises(TypeError):
        smbo(cost, UNIT, _cfg(T=6, n_init=5))


@pytest.mark.parametrize("error", [NotImplementedError, RecursionError,
                                   RuntimeError])
def test_smbo_propagates_runtime_errors_that_are_bugs(error):
    """Only a DivergedTrajectory is a bad gain set.  A cost that raises any
    other RuntimeError, NotImplementedError and RecursionError included,
    has a bug: smbo does not score it FAILED_COST, on the first episode or
    after the surrogate has been fitted."""
    for failing in (0, 3):
        calls = []

        def cost(v):
            calls.append(v)
            if len(calls) > failing:
                raise error("a bug in the cost")
            return float(v[0])

        with pytest.raises(error):
            smbo(cost, UNIT, _cfg(T=6, n_init=2))
        assert len(calls) == failing + 1


def test_smbo_penalizes_nonfinite_cost():
    _, y = smbo(lambda v: float("nan"), UNIT, _cfg(T=6, n_init=5))
    assert np.all(y == FAILED_COST)


def test_tuner_config_validation():
    for kwargs in (dict(T=5, n_init=10), dict(n_init=0), dict(h=float("nan")),
                   dict(h=float("inf")), dict(h=-1.0), dict(h=1e308),
                   dict(seed=-1), dict(seed=1.5), dict(seed=True),
                   dict(T=3.5, n_init=2), dict(n_init=2.5),
                   dict(T=True, n_init=True), dict(T=np.int64(5), n_init=2),
                   dict(T=10_001)):
        with pytest.raises(ValueError):
            TunerConfig(**kwargs)


# ---------------------------------------------------------------------------
# cost

def test_tracking_cost_frozen():
    from flexjoint.plant import State

    def rec(t, e1):
        # columns t, x1..x4, x1d, x3d, u, e1..e4, gains
        return (t, 0, 0, 0, 0, 0.0, 0, 0.0, e1, 0, 0, 0, 0, 0, 0, 0)

    traj = Trajectory(np.array([rec(0.05 * i, (-1.0) ** i * 0.5)
                                for i in range(200)]),
                      final_state=State(0, 0, 0, 0))
    assert tracking_cost(traj) == pytest.approx(-100.0)


def test_tracking_cost_needs_enough_records():
    from flexjoint.plant import State
    traj = Trajectory(np.zeros((1, len(TRAJ_COLUMNS))),
                      final_state=State(0, 0, 0, 0))
    with pytest.raises(ValueError):
        tracking_cost(traj)


def test_most_pd_episodes_diverge(tmp_path):
    """DISCREPANCIES.md section 5: in the first 30 episodes of the default
    pd tune, 26 score FAILED_COST, and 13 of those gain sets already have
    an eigenvalue with a positive real part in the exact g = 0
    linearization.  Pinned so that a change to the tuner that moves these
    counts has to say so."""
    out = str(tmp_path / "pd30")
    assert main(["tune", "--stage", "pd", "--episodes", "30",
                 "--out", out]) == 0
    header, rows = read_csv(out + "_history.csv")
    gains = rows[:, 1:5][rows[:, header.index("y")] == FAILED_COST]
    unstable = [np.linalg.eigvals(state_matrix(PlantParams(), GainSet(*g)))
                .real.max() > 0.0 for g in gains]
    assert (len(rows), len(gains), sum(unstable)) == (30, 26, 13)
