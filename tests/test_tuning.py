import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import optimize
from scipy.linalg import cho_factor, cho_solve, cholesky
from scipy.stats import qmc

from flexjoint.control import TRAJ_COLUMNS, Trajectory
from flexjoint.tuning import (_LEN_BOUNDS, _NOISE_RATIO_BOUNDS, _SIG_BOUNDS,
                              FAILED_COST, Dataset, Domain, GpModel,
                              TunerConfig, _lbfgsb,
                              _neg_lml_and_grad, _nelder_mead, _pair_corr,
                              _pairs, flr_bound_domain,
                              flr_bounds_from_vector, gp_fit, gp_predict,
                              pd_gain_domain, smbo, suggest, tracking_cost,
                              ucb)

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
        Dataset(np.zeros((3, 2)), np.zeros(2))
    with pytest.raises(ValueError):
        Dataset(np.array([[0.0], [np.nan]]), np.zeros(2))
    ds = Dataset(np.zeros((2, 1)), np.zeros(2))
    ds.append([1.0], 3.0)
    assert len(ds) == 3 and ds.y[-1] == 3.0


# ---------------------------------------------------------------------------
# Gaussian process

def test_gp_needs_two_rows():
    with pytest.raises(ValueError):
        gp_fit(Dataset(np.array([[0.5]]), np.array([1.0])), _cfg(), UNIT)


def test_gp_interpolates_two_points():
    data = Dataset(np.array([[0.0], [1.0]]), np.array([0.0, 1.0]))
    model = gp_fit(data, _cfg(), UNIT)
    mean, std = gp_predict(model, np.array([0.0]))
    assert mean == pytest.approx(0.0, abs=1e-3)
    assert std >= 0.0


def test_gp_constant_targets():
    rng = np.random.default_rng(0)
    X = rng.uniform(0, 1, size=(12, 1))
    c = 7.5
    model = gp_fit(Dataset(X, np.full(12, c)), _cfg(), UNIT)
    for q in np.linspace(X.min(), X.max(), 17):
        mean, _ = gp_predict(model, np.array([q]))
        assert mean == pytest.approx(c, abs=1e-2 * abs(c) + 1e-6)


def test_gp_reproduces_training_targets():
    rng = np.random.default_rng(3)
    X = rng.uniform(0, 1, size=(20, 1))
    y = np.sin(3.0 * X[:, 0])
    model = gp_fit(Dataset(X, y), _cfg(), UNIT)
    tol = 3.0 * np.sqrt(model.noise_variance) * model.y_std + 1e-6
    for xi, yi in zip(X, y):
        mean, _ = gp_predict(model, xi)
        assert abs(mean - yi) <= tol


def test_gp_regression_quality_held_out():
    rng = np.random.default_rng(5)
    X = rng.uniform(0, 1, size=(20, 1))
    model = gp_fit(Dataset(X, np.sin(3.0 * X[:, 0])), _cfg(), UNIT)
    q = np.linspace(0.0, 1.0, 50)[:, None]
    mean, _ = gp_predict(model, q)
    rms = float(np.sqrt(np.mean((mean - np.sin(3.0 * q[:, 0])) ** 2)))
    assert rms < 0.1


def _dense_oracle(model: GpModel, data: Dataset, Xq: np.ndarray):
    """Posterior recomputed by plain dense linear algebra (np.linalg.solve,
    no Cholesky, no caching) from the fitted hyperparameters."""
    ls = model.length_scales
    sf2 = model.signal_variance
    ratio = model.noise_variance / sf2

    def corr(A, B):
        D2 = (A[:, None, :] - B[None, :, :]) ** 2
        return np.exp(-0.5 * np.sum(D2 / ls ** 2, axis=-1))

    Xn = model.domain.normalize(data.X)
    Un = model.domain.normalize(Xq)
    ys = (data.y - model.y_mean) / model.y_std
    K = sf2 * (corr(Xn, Xn) + ratio * np.eye(len(ys)))
    ks = sf2 * corr(Un, Xn)
    Kinv = np.linalg.solve(K, np.eye(len(ys)))
    mean = model.y_mean + model.y_std * (ks @ Kinv @ ys)
    var = np.maximum(sf2 - np.einsum("ij,jk,ik->i", ks, Kinv, ks), 0.0)
    return mean, model.y_std * np.sqrt(var)


@pytest.mark.parametrize("seed,n,d", [(0, 12, 1), (1, 30, 2), (2, 50, 4)])
def test_gp_matches_dense_oracle(seed, n, d):
    rng = np.random.default_rng(seed)
    dom = Domain(names=tuple(f"x{i}" for i in range(d)),
                 lo=(0.0,) * d, hi=(1.0,) * d)
    X = rng.uniform(0, 1, size=(n, d))
    y = np.sin(X.sum(axis=1) * 2.0) + 0.01 * rng.standard_normal(n)
    data = Dataset(X, y)
    model = gp_fit(data, _cfg(), dom)
    Xq = rng.uniform(0, 1, size=(25, d))
    mean, std = gp_predict(model, Xq)
    mean_o, std_o = _dense_oracle(model, data, Xq)
    np.testing.assert_allclose(mean, mean_o, rtol=1e-6, atol=1e-6 * model.y_std)
    np.testing.assert_allclose(std, std_o, rtol=1e-6, atol=1e-6 * model.y_std)


def test_posterior_variance_nonnegative_everywhere():
    rng = np.random.default_rng(8)
    for trial in range(5):
        d = int(rng.integers(1, 4))
        dom = Domain(names=tuple(f"x{i}" for i in range(d)),
                     lo=(0.0,) * d, hi=(1.0,) * d)
        X = rng.uniform(0, 1, size=(15, d))
        model = gp_fit(Dataset(X, rng.standard_normal(15)), _cfg(), dom)
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


@given(seed=st.integers(0, 2 ** 32 - 1), d=st.integers(1, 8),
       n=st.integers(2, 40), m=st.integers(1, 6))
@settings(max_examples=150, deadline=None)
def test_surrogate_matches_pre_cache_code_bitwise(seed, d, n, m):
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
    theta = np.concatenate([rng.uniform(*_LEN_BOUNDS, d),
                            [rng.uniform(*_SIG_BOUNDS)],
                            [rng.uniform(*_NOISE_RATIO_BOUNDS)]])
    assert _bytes(*_neg_lml_and_grad(theta, ys, _pairs(D2))) == \
        _bytes(*_ref_neg_lml_and_grad(theta, model.Xn, ys, D2))


@given(seed=st.integers(0, 2 ** 32 - 1), d=st.integers(1, 8),
       n=st.integers(1, 150))
@settings(max_examples=100, deadline=None)
def test_pair_corr_matches_full_corr_bitwise(seed, d, n):
    """The likelihood's correlations from the upper triangle equal the
    full (n, n, d) computation bit for bit, from n = 1 to 150 points."""
    rng = np.random.default_rng(seed)
    Xn = rng.random((n, d))
    Xn[rng.random(n) < 0.1] = Xn[0]  # repeated points
    D2 = _ref_sq_dists(Xn, Xn)
    ls = np.exp(rng.uniform(*_LEN_BOUNDS, d))
    assert _pair_corr(_pairs(D2), ls ** 2).tobytes() == \
        _ref_corr(D2, ls).tobytes()


def test_gp_predict_off_a_zero_width_dimension_is_the_prior():
    """A query off a zero-width dimension of the box is infinitely far
    from every training point: zero correlation, the prior mean and
    standard deviation, and no overflow warning on the way."""
    dom = Domain(names=("a", "b"), lo=(0.0, 2.0), hi=(1.0, 2.0))
    X = np.array([[0.1, 2.0], [0.5, 2.0], [0.9, 2.0]])
    model = gp_fit(Dataset(X, np.array([0.0, 1.0, 0.5])), _cfg(), dom)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for offset in (1.0, 1e10):  # the square overflows, then the divide
            mean, std = gp_predict(model, np.array([0.5, 2.0 + offset]))
            assert mean == model.y_mean
            assert std == model.y_std * math.sqrt(model.signal_variance)


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
    with pytest.raises(ValueError):
        _neg_lml_and_grad(np.full(4, np.nan), ys, _pairs(D2))
    # correlations 0.99 / 0.99 / 0 around a chain of three points: not PSD
    c = -2.0 * math.log(0.99)
    D2 = np.array([[0.0, c, 100.0], [c, 0.0, c], [100.0, c, 0.0]])[:, :, None]
    theta = np.array([0.0, 0.0, _NOISE_RATIO_BOUNDS[0]])
    ys = np.array([1.0, -1.0, 0.5])
    value, grad = _neg_lml_and_grad(theta, ys, _pairs(D2))
    assert value == 1e12 and grad.tobytes() == np.zeros(3).tobytes()
    assert _ref_neg_lml_and_grad(theta, np.zeros((3, 1)), ys, D2)[0] == 1e12


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
    """-ucb of a batched gp_predict at the clipped points, as suggest
    evaluates its local searches, equals -ucb of a one-point gp_predict
    for every point of a batch of 1 to 8, and _nelder_mead driven
    point by point equals scipy's Nelder-Mead on that function, bit for
    bit, from Sobol candidates, corners, points on box faces (where
    clipping ties values), points with zero components and boxes with
    zero-width dimensions.  Every query of the simplex is evaluated at a
    random slot of a random batch."""
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
        return -ucb(*gp_predict(model, dom.clip(np.array(X))), h)

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


@given(seed=st.integers(0, 2 ** 32 - 1), d=st.integers(1, 8),
       n=st.integers(2, 40), chain=st.booleans())
@settings(max_examples=60, deadline=None)
def test_lbfgsb_matches_scipy_bitwise(seed, d, n, chain):
    """_lbfgsb returns scipy.optimize.minimize's L-BFGS-B x and value bit
    for bit on the likelihood, from gp_fit's fixed start, a random start,
    a corner of the box and a start outside it (which both clip).  With
    `chain` the covariance is not positive definite near unit length
    scales, so runs start in or pass through the 1e12 branch."""
    rng = np.random.default_rng(seed)
    Xn = rng.random((n, d))
    Xn[rng.random(n) < 0.1] = Xn[0]  # repeated points
    D2 = _ref_sq_dists(Xn, Xn)
    if chain and n >= 3:
        D2 = _chain_pairs(D2)
    ys = rng.standard_normal(n)
    bounds = [_LEN_BOUNDS] * d + [_SIG_BOUNDS, _NOISE_RATIO_BOUNDS]
    lo = np.array([b[0] for b in bounds])
    hi = np.array([b[1] for b in bounds])
    starts = [np.concatenate([np.zeros(d), [0.0], [math.log(1e-4)]]),
              rng.uniform(lo, hi), np.where(rng.random(d + 2) < 0.5, lo, hi),
              rng.uniform(lo - 3.0, hi + 3.0)]
    pairs = _pairs(D2)
    for x0 in starts:
        x, fun = _lbfgsb(_neg_lml_and_grad, x0, lo, hi, (ys, pairs))
        res = optimize.minimize(_neg_lml_and_grad, x0, args=(ys, pairs),
                                jac=True, method="L-BFGS-B", bounds=bounds)
        assert x.tobytes() == res.x.tobytes()
        assert np.float64(fun).tobytes() == np.float64(res.fun).tobytes()


def test_lbfgsb_passes_through_the_non_pd_branch():
    """A run that starts where the covariance is positive definite, steps
    into the 1e12 branch and backs out of it matches scipy bit for bit."""
    rng = np.random.default_rng(11)
    Xn = rng.random((6, 2))
    pairs = _pairs(_chain_pairs(_ref_sq_dists(Xn, Xn)))
    ys = rng.standard_normal(6)
    bounds = [_LEN_BOUNDS] * 2 + [_SIG_BOUNDS, _NOISE_RATIO_BOUNDS]
    lo = np.array([b[0] for b in bounds])
    hi = np.array([b[1] for b in bounds])
    values = []

    def fun(theta, *args):
        value, grad = _neg_lml_and_grad(theta, *args)
        values.append(value)
        return value, grad

    x0 = np.array([-3.36, 2.04, -1.95, -13.42])
    x, value = _lbfgsb(fun, x0, lo, hi, (ys, pairs))
    assert values[0] != 1e12 and 1e12 in values
    res = optimize.minimize(_neg_lml_and_grad, x0, args=(ys, pairs),
                            jac=True, method="L-BFGS-B", bounds=bounds)
    assert x.tobytes() == res.x.tobytes()
    assert np.float64(value).tobytes() == np.float64(res.fun).tobytes()


def test_ucb_definition():
    assert ucb(1.0, 2.0, 2.576) == pytest.approx(1.0 + 2.576 * 2.0)
    assert ucb(np.array([1.0, 2.0]), np.array([1.0, 0.0]), 2.0)[0] == 3.0


# ---------------------------------------------------------------------------
# acquisition search

def _edge_model():
    # monotone data: the UCB maximum sits at the right domain edge
    X = np.linspace(0.05, 0.8, 8)[:, None]
    return gp_fit(Dataset(X, X[:, 0].copy()), _cfg(), UNIT)


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
    model = gp_fit(Dataset(X, np.array([0.0, 0.1])), _cfg(), point)
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
    model = gp_fit(Dataset(X, np.sin(3.0 * X[:, 0]) + X[:, 1]), _cfg(), dom)
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
    bx, by, hist = smbo(lambda v: -(v[0] - 0.3) ** 2, UNIT, cfg)
    assert len(hist) == 25
    assert by == hist.y.max()
    assert np.all(np.diff(hist.best_y) >= 0.0)  # running maximum
    np.testing.assert_allclose(hist.best_y, np.maximum.accumulate(hist.y))


def test_smbo_reproducible():
    cfg = _cfg(T=15, n_init=5, seed=7)
    _, _, h1 = smbo(lambda v: -(v[0] - 0.6) ** 2, UNIT, cfg)
    _, _, h2 = smbo(lambda v: -(v[0] - 0.6) ** 2, UNIT, cfg)
    np.testing.assert_array_equal(h1.X, h2.X)
    np.testing.assert_array_equal(h1.y, h2.y)


def test_smbo_penalizes_failing_cost():
    def cost(v):
        if v[0] > 0.5:
            raise RuntimeError("episode blew up")
        return float(v[0])

    bx, by, hist = smbo(cost, UNIT, _cfg(T=20, n_init=8, seed=1))
    assert FAILED_COST in hist.y
    assert len(hist) == 20          # loop survived the failures
    assert by <= 0.5 and by >= 0.0


def test_smbo_propagates_programming_errors():
    def cost(v):
        return v[0] + "oops"

    with pytest.raises(TypeError):
        smbo(cost, UNIT, _cfg(T=6, n_init=5))


def test_smbo_penalizes_nonfinite_cost():
    _, by, hist = smbo(lambda v: float("nan"), UNIT, _cfg(T=6, n_init=5))
    assert np.all(hist.y == FAILED_COST)


def test_tuner_config_validation():
    for kwargs in (dict(T=5, n_init=10), dict(n_init=0), dict(h=float("nan")),
                   dict(h=float("inf")), dict(h=-1.0), dict(h=1e308)):
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
