"""Reference implementations that the tests hold the library to.

Each is the plain, one-call-at-a-time form of something the library
computes on plain floats, in bulk or in closed form: the model's
right-hand side and one forward-Euler step on a ``State`` (``simulate``
must match their loop bit for bit), the control law's torque and
``Diagnostics`` at a ``State``, one disturbance draw (each entry of a
``disturbance_draws`` table must match it bit for bit), the grades of a
linguistic scale's two terms around an input (``infer`` inlines them),
the mechanical energy, the spectrum of the error Jacobian from its two
2x2 blocks, the exact g = 0 linearization of the simulated loop (which no
command computes; DISCREPANCIES.md sets its spectrum against the design
model's), the tracking cost and metrics as numpy computed them on a
trajectory's strided columns (``metrics`` must match them bit for bit), a
CSV reader for the command line's artifacts, a fitted GP's noise variance
and its posterior by dense linear algebra.  ``trajectory`` builds a
``Trajectory`` from rows, as the tests that need one by hand do.
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_right
from pathlib import Path
from typing import NamedTuple

import numpy as np

from flexjoint.control import TRAJ_COLUMNS, GainSet, Trajectory
from flexjoint.metrics import COST_STEPS, SETTLING_BAND, Metrics
from flexjoint.plant import DisturbanceModel, PlantParams, State


def as_array(s: State) -> np.ndarray:
    return np.array([s.x1, s.x2, s.x3, s.x4])


def from_array(a) -> State:
    return State(float(a[0]), float(a[1]), float(a[2]), float(a[3]))


def derivatives(params: PlantParams, s: State, u: float,
                d1: float = 0.0, d2: float = 0.0) -> np.ndarray:
    """Right-hand side of the state-space model (see ``flexjoint.plant``)."""
    if not all(math.isfinite(v) for v in (u, d1, d2)):
        raise ValueError("non-finite input to derivatives")
    p = params
    dx2 = -p.mgl / p.I_l * math.cos(s.x1) - p.k / p.I_l * (s.x1 - s.x3) + d1
    dx4 = p.k / p.I_m * (s.x1 - s.x3) - p.mu / p.I_m * s.x4 + u / p.I_m + d2
    return np.array([s.x2, dx2, s.x4, dx4])


def euler_step(params: PlantParams, s: State, u: float,
               d1: float, d2: float, dt: float) -> State:
    """One forward-Euler step: s' = s + dt * f(s, u, d)."""
    if dt < 0:
        raise ValueError(f"dt must be >= 0, got {dt}")
    ds = derivatives(params, s, u, d1, d2)
    return from_array(as_array(s) + dt * ds)


class Diagnostics(NamedTuple):
    """Per-step controller internals recorded alongside the torque; the
    fields from e1 on are the last trajectory columns, in TRAJ_COLUMNS
    order."""

    u_pd1: float
    x3d: float
    e1: float
    e2: float
    e3: float
    e4: float
    kp1_eff: float
    kd1_eff: float
    kp2_eff: float
    kd2_eff: float


def torque(controller, params: PlantParams, s: State,
           ref: tuple[float, float, float]) -> tuple[float, Diagnostics]:
    """Torque and diagnostics of a ``Controller`` at state s for reference
    (x1d, x1d_dot, _): ``_law`` on the floats of s, its tail wrapped as
    Diagnostics."""
    u, *diag = controller._law(params.I_l, params.k, params.mgl, s.x1, s.x2,
                               s.x3, s.x4, ref[0], ref[1], math.cos(s.x1))
    return u, Diagnostics(*diag)


def disturbance_sample(model: DisturbanceModel, step_index: int) -> tuple[float, float]:
    """Disturbance pair for one integration step, deterministic in
    (model.seed, step_index)."""
    if model.kind == "off":
        return 0.0, 0.0
    rng = np.random.default_rng((model.seed, step_index))
    d = rng.uniform(-model.amplitude, model.amplitude, size=2)
    return float(d[0]), float(d[1])


def terms(scale, x: float) -> tuple[int, float, float]:
    """(i, g_i, g_i+1) for x clamped to [scale.lo, scale.hi] and peaks
    i, i + 1 at a <= x < b (or x = b = hi): (b - x)/(b - a) and
    (x - a)/(b - a), or 1.0 and 0.0 at x = a.  Other terms grade 0; a NaN x
    grades NaN."""
    x = min(max(x, scale.lo), scale.hi)
    if x != x:
        return 0, math.nan, math.nan
    i = bisect_right(scale.peaks, x, 0, 4) - 1
    a, b = scale.peaks[i], scale.peaks[i + 1]
    if x == a:
        return i, 1.0, 0.0
    return i, (b - x) / (b - a), (x - a) / (b - a)


def trajectory(rows, final_state: State = State(0.0, 0.0, 0.0, 0.0)) -> Trajectory:
    """A ``Trajectory`` of rows (a 2-D array or a sequence of rows, each
    len(TRAJ_COLUMNS) wide) in ``simulate``'s flat layout."""
    data = np.asarray(rows, dtype=float).reshape(-1, len(TRAJ_COLUMNS))
    return Trajectory(array("d", data.tobytes()), final_state)


def columns(traj: Trajectory, *names: str) -> tuple[np.ndarray, ...]:
    """The named columns of traj as strided views of one (rows,
    len(TRAJ_COLUMNS)) float64 array, the form the numpy metrics read."""
    data = np.array(traj.data).reshape(-1, len(TRAJ_COLUMNS))
    return tuple(data[:, TRAJ_COLUMNS.index(name)] for name in names)


def tracking_cost(traj: Trajectory, n_steps: int = COST_STEPS) -> float:
    """Negative sum of |e1| over the first n_steps records, by np.sum."""
    e1, = columns(traj, "e1")
    if len(e1) < n_steps:
        raise ValueError(f"trajectory has {len(e1)} records, need {n_steps}")
    return float(-np.abs(e1[:n_steps]).sum())


def compute_metrics(traj: Trajectory, ref) -> Metrics:
    """``metrics.compute_metrics`` as numpy reductions over the strided
    columns: the cost, the overshoot by ndarray.max, the settling time by
    the last index outside the band, the means by ndarray.mean."""
    t, e1, x1, x1d = columns(traj, "t", "e1", "x1", "x1d")
    if len(t) < 2:
        raise ValueError(f"need at least 2 records, got {len(t)}")
    cost = tracking_cost(traj, n_steps=min(COST_STEPS, len(t)))
    ov = ts = math.nan
    if ref.kind in ("square", "constant"):
        target = x1d[-1]
        step = abs(target - x1[0])
        if step == 0.0:
            step = 1.0
        ov = max(0.0, float((x1.max() - target) / step) * 100.0)
        inside = np.abs(e1) < SETTLING_BAND * step
        outside = np.nonzero(~inside)[0]
        if inside[-1]:
            ts = float(t[outside[-1] + 1] if len(outside) else t[0])
    tail = np.abs(e1[t >= t[-1] - 1.0 + 1e-12])
    sse = float(tail.mean()) if len(tail) else math.nan
    rms = float(np.sqrt((e1 ** 2).mean()))
    return Metrics(cost, ov, ts, sse, rms)


def mechanical_energy(params: PlantParams, s: State) -> float:
    """Kinetic plus spring potential energy (gravity excluded); with g = 0,
    u = 0 and no disturbance, dE/dt = -mu * x4**2."""
    p = params
    return (0.5 * p.I_l * s.x2 ** 2 + 0.5 * p.I_m * s.x4 ** 2
            + 0.5 * p.k * (s.x1 - s.x3) ** 2)


def block_eigenvalues(A: np.ndarray) -> np.ndarray:
    """Spectrum of the error Jacobian via the closed-form quadratics of its
    two 2x2 companion blocks; cross-check for the dense solver."""
    A = np.asarray(A, dtype=float)
    ev = []
    for (i, j) in ((0, 1), (2, 3)):
        # block [[0, 1], [c, b]] -> lambda^2 - b*lambda - c = 0
        b = A[j, j]
        c = A[j, i]
        disc = complex(b * b + 4.0 * c) ** 0.5
        ev.extend([(b - disc) / 2.0, (b + disc) / 2.0])
    ev = np.array(ev)
    return ev[np.lexsort((ev.imag, ev.real))]


def state_matrix(params: PlantParams, gains: GainSet) -> np.ndarray:
    """Exact g = 0 linearization of the closed loop over (x1, x2, x3, x4)
    with the cascaded control law and a constant reference.

    Unlike the error Jacobian, this keeps the dependence of the motor
    reference on the state, so its spectrum differs from the design model's
    (see DISCREPANCIES.md).
    """
    p, g = params, gains
    A = np.zeros((4, 4))
    A[0, 1] = 1.0
    A[1, 0] = -p.k / p.I_l
    A[1, 2] = p.k / p.I_l
    A[2, 3] = 1.0
    # state-dependent parts of the control chain
    u_pd1 = np.array([-g.kp1, -g.kd1, 0.0, 0.0])
    x3d = p.I_l / p.k * u_pd1 + np.array([1.0, 0.0, 0.0, 0.0])
    u_pd2 = g.kp2 * (x3d - np.array([0.0, 0.0, 1.0, 0.0])) \
        + g.kd2 * np.array([0.0, 0.0, 0.0, -1.0])
    u = u_pd2 + p.I_l * u_pd1
    A[3] = np.array([p.k / p.I_m, 0.0, -p.k / p.I_m, -p.mu / p.I_m]) + u / p.I_m
    return A


def read_csv(path) -> tuple[list[str], np.ndarray]:
    lines = Path(path).read_text().splitlines()
    header = lines[0].split(",")
    data = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    return header, data


def noise_variance(model) -> float:
    """Observation-noise variance of a fitted ``GpModel``, in standardized
    cost units: signal variance times the noise-to-signal ratio."""
    return float(np.exp(model.theta[-2] + model.theta[-1]))


def dense_oracle(model, X: np.ndarray, y: np.ndarray, Xq: np.ndarray):
    """Posterior of a fitted ``GpModel`` recomputed by plain dense linear
    algebra (np.linalg.solve, no Cholesky, no caching) from the fitted
    hyperparameters."""
    ls = model.length_scales
    sf2 = model.signal_variance
    ratio = noise_variance(model) / sf2

    def corr(A, B):
        D2 = (A[:, None, :] - B[None, :, :]) ** 2
        return np.exp(-0.5 * np.sum(D2 / ls ** 2, axis=-1))

    Xn = model.domain.normalize(X)
    Un = model.domain.normalize(Xq)
    ys = (y - model.y_mean) / model.y_std
    K = sf2 * (corr(Xn, Xn) + ratio * np.eye(len(ys)))
    ks = sf2 * corr(Un, Xn)
    Kinv = np.linalg.solve(K, np.eye(len(ys)))
    mean = model.y_mean + model.y_std * (ks @ Kinv @ ys)
    var = np.maximum(sf2 - np.einsum("ij,jk,ik->i", ks, Kinv, ks), 0.0)
    return mean, model.y_std * np.sqrt(var)
