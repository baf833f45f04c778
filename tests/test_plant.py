import math
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp

from flexjoint import plant
from flexjoint.control import Controller, ControllerKind, Reference, simulate
from flexjoint.plant import (DRAW_BLOCK, MAX_SUBSTEPS, DisturbanceModel,
                             PlantParams, SimConfig, State, disturbance_draws)
from oracles import (as_array, derivatives, disturbance_sample, euler_step,
                     from_array, mechanical_energy)

finite = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)


# ---------------------------------------------------------------------------
# parameters and state

def test_default_params_gravity_torque_constant(params):
    # independently computed with 40-digit decimal arithmetic
    assert params.mgl == pytest.approx(5.000352, rel=1e-12)


@pytest.mark.parametrize("field,value", [
    ("g", -1.0), ("m", 0.0), ("l", -0.4), ("I_l", 0.0), ("I_m", -0.3),
    ("k", 0.0), ("mu", 0.0), ("k", float("nan")),
    ("g", float("nan")), ("g", float("inf")),
])
def test_invalid_params_rejected(field, value):
    with pytest.raises(ValueError, match=f"^{field} must be "):
        PlantParams(**{field: value})


def test_zero_gravity_allowed():
    assert PlantParams(g=0.0).mgl == 0.0


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_nonfinite_state_rejected(bad):
    with pytest.raises(ValueError, match="non-finite state component"):
        State(0.0, bad, 0.0, 0.0)


def test_state_array_roundtrip():
    s = State(0.1, -0.2, 0.3, -0.4)
    assert from_array(as_array(s)) == s


# ---------------------------------------------------------------------------
# derivatives and integration

def test_derivatives_at_rest(params):
    # only gravity acts on the hanging link: dx2 = -mgl/I_l * cos(0)
    ds = derivatives(params, State(0.0, 0.0, 0.0, 0.0), 0.0)
    np.testing.assert_allclose(ds, [0.0, -5.000352, 0.0, 0.0],
                               rtol=1e-12, atol=1e-15)


def test_derivatives_spring_coupling(params):
    # frozen by hand: x1 - x3 = 0.1 twists the spring both ways
    ds = derivatives(params, State(0.1, 0.0, 0.0, 0.0), 0.0)
    assert ds[1] == pytest.approx(-5.000352 * math.cos(0.1) - 10.0, rel=1e-12)
    assert ds[3] == pytest.approx(100.0 / 0.3 * 0.1, rel=1e-12)


def test_derivatives_rejects_nonfinite_input(params):
    with pytest.raises(ValueError, match="non-finite input to derivatives"):
        derivatives(params, State(0.0, 0.0, 0.0, 0.0), float("nan"))


@given(x1=finite, x2=finite, x3=finite, x4=finite,
       u=finite, d1=finite, d2=finite, a=st.floats(-10, 10))
@settings(max_examples=200, deadline=None)
def test_derivatives_linear_in_inputs(x1, x2, x3, x4, u, d1, d2, a):
    p = PlantParams()
    s = State(x1, x2, x3, x4)
    base = derivatives(p, s, 0.0, 0.0, 0.0)
    full = derivatives(p, s, u, d1, d2)
    scaled = derivatives(p, s, a * u, a * d1, a * d2)
    np.testing.assert_allclose(scaled - base, a * (full - base),
                               rtol=1e-9, atol=1e-9)


def test_euler_step_from_rest(params):
    s = euler_step(params, State(0.0, 0.0, 0.0, 0.0), 0.0, 0.0, 0.0, 0.005)
    assert (s.x1, s.x3, s.x4) == (0.0, 0.0, 0.0)
    assert s.x2 == pytest.approx(-0.02500176, rel=1e-12)


def test_euler_zero_dt_is_identity(params):
    s0 = State(0.1, -0.2, 0.3, -0.4)
    assert euler_step(params, s0, 1.0, 2.0, 3.0, 0.0) == s0


def test_euler_negative_dt_rejected(params):
    with pytest.raises(ValueError, match="dt must be >= 0"):
        euler_step(params, State(0, 0, 0, 0), 0.0, 0.0, 0.0, -0.001)


def _euler_run(params, s, dt, T, u=0.0):
    for _ in range(round(T / dt)):
        s = euler_step(params, s, u, 0.0, 0.0, dt)
    return s


def test_euler_first_order_convergence(params):
    """Halving dt roughly halves the end-state error against a tight
    adaptive-RK reference solution."""
    s0 = State(0.1, 0.0, 0.0, 0.0)

    def rhs(t, x):
        return derivatives(params, State(*x), 0.0)

    ref = solve_ivp(rhs, (0.0, 1.0), as_array(s0), rtol=1e-11, atol=1e-12)
    x_ref = ref.y[:, -1]
    errs = [np.linalg.norm(as_array(_euler_run(params, s0, dt, 1.0)) - x_ref)
            for dt in (0.002, 0.001)]
    ratio = errs[0] / errs[1]
    assert 1.7 <= ratio <= 2.3


# ---------------------------------------------------------------------------
# energy

def test_energy_at_rest_zero(params):
    assert mechanical_energy(params, State(0.0, 0.0, 0.0, 0.0)) == 0.0


def test_energy_discrete_step_identity():
    """Exact bookkeeping of one Euler step: the energy change equals the
    continuous dissipation term -dt*mu*x4**2 plus the quadratic-in-dt
    integration residual.  This pins down why the discrete energy is not
    monotone: the residual is positive and O(dt^2)."""
    p = PlantParams(g=0.0)
    rng = np.random.default_rng(7)
    dt = 0.0005
    for _ in range(200):
        s = State(*rng.uniform(-1, 1, size=4))
        f = derivatives(p, s, 0.0)
        s1 = euler_step(p, s, 0.0, 0.0, 0.0, dt)
        dE = mechanical_energy(p, s1) - mechanical_energy(p, s)
        residual = 0.5 * dt ** 2 * (p.I_l * f[1] ** 2 + p.I_m * f[3] ** 2
                                    + p.k * (f[0] - f[2]) ** 2)
        assert dE == pytest.approx(-dt * p.mu * s.x4 ** 2 + residual,
                                   rel=1e-9, abs=1e-15)


def test_energy_trend_is_dissipative():
    """Averaged over the trajectory the friction term dominates the Euler
    residual, so energy decreases over any macroscopic window."""
    p = PlantParams(g=0.0)
    s = State(0.1, 0.0, 0.0, 0.0)
    dt = 0.0005
    energies = [mechanical_energy(p, s)]
    for _ in range(20000):  # 10 s
        s = euler_step(p, s, 0.0, 0.0, 0.0, dt)
        energies.append(mechanical_energy(p, s))
    e = np.array(energies)
    # compare 0.5 s block averages: strictly decreasing
    blocks = e[:20000].reshape(20, 1000).mean(axis=1)
    assert np.all(np.diff(blocks) < 0)
    assert e[-1] < 0.9 * e[0]


# ---------------------------------------------------------------------------
# disturbances

def test_disturbance_off_is_zero():
    assert disturbance_sample(DisturbanceModel(kind="off"), 123) == (0.0, 0.0)


@given(seed=st.integers(0, 2 ** 31), idx=st.integers(0, 10 ** 6))
@settings(max_examples=100, deadline=None)
def test_disturbance_uniform_bounded_and_deterministic(seed, idx):
    m = DisturbanceModel(kind="uniform", amplitude=10.0, seed=seed)
    d = disturbance_sample(m, idx)
    assert -10.0 <= d[0] <= 10.0 and -10.0 <= d[1] <= 10.0
    assert disturbance_sample(m, idx) == d


def test_disturbance_varies_with_index():
    m = DisturbanceModel(kind="uniform", amplitude=10.0, seed=0)
    draws = {disturbance_sample(m, i) for i in range(10)}
    assert len(draws) == 10


def test_disturbance_independent_of_call_order():
    m = DisturbanceModel(kind="uniform", amplitude=10.0, seed=5)
    forward = [disturbance_sample(m, i) for i in range(20)]
    backward = [disturbance_sample(m, i) for i in reversed(range(20))]
    assert forward == backward[::-1]


def test_disturbance_draws_agree_across_threads():
    """Threads that build one table at once all get equal tuples, each
    entry i the draw of step i."""
    seed, amplitude, stop = 3_000_001, 3.5, 2 * DRAW_BLOCK + 1
    tables = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=lambda: tables.append(
            disturbance_draws(seed, amplitude, stop))) for _ in range(6)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)
    m = DisturbanceModel("uniform", amplitude, seed)
    want = tuple(disturbance_sample(m, i) for i in range(stop))
    assert len(tables) == 6 and all(table == want for table in tables)


KERNEL_SEEDS = (0, 1, 2 ** 32 - 1, 2 ** 32, 2 ** 64 + 5, 2 ** 100 + 3)
KERNEL_AMPLITUDES = (0.0, 3.7, 10.0, 8.9e307)


@pytest.mark.parametrize("seed", KERNEL_SEEDS)
def test_uniform_pairs_are_disturbance_sample(seed):
    """The vectorized kernel is disturbance_sample, bit for bit, across
    one-, two-, three- and four-word seeds: at every index of a 2000-step
    table (one amplitude per seed, in turn), and at every amplitude at the
    block edges and in a short block just below MAX_SUBSTEPS, the last
    index a run reads, and just below 2**32, the kernel's own limit."""
    full = KERNEL_AMPLITUDES[KERNEL_SEEDS.index(seed) % len(KERNEL_AMPLITUDES)]
    for amplitude in KERNEL_AMPLITUDES:
        m = DisturbanceModel("uniform", amplitude, seed)
        table = disturbance_draws(seed, amplitude, 2 * DRAW_BLOCK + 1)
        indices = [*range(2000)] if amplitude == full else []
        indices += [DRAW_BLOCK - 1, DRAW_BLOCK, DRAW_BLOCK + 1, 2 * DRAW_BLOCK]
        assert [table[i] for i in indices] == \
            [disturbance_sample(m, i) for i in indices]
        for stop in (MAX_SUBSTEPS, 2 ** 32):
            short = plant._uniform_pairs(seed, amplitude, stop - 5, stop)
            want = [disturbance_sample(m, i) for i in range(stop - 5, stop)]
            assert list(map(tuple, short.tolist())) == want
            assert short.tobytes() == np.array(want).tobytes()  # signed zeros too


def test_disturbance_draws_off_are_zero(params, gains):
    """Amplitude 0.0 draws zeros, and a run under it has the bytes of a run
    under kind "off", which reads no table, for either hold."""
    assert disturbance_draws(3, 0.0, 3) == ((0.0, 0.0),) * 3
    sim = SimConfig(horizon=1.0)
    ctrl = Controller(ControllerKind.CASCADED_PD, gains)
    for hold in ("per-sim-step", "per-control-step"):
        off, zero = (simulate(params, sim, ctrl, Reference("square"),
                              DisturbanceModel(kind, 0.0, 3, hold))
                     for kind in ("off", "uniform"))
        assert off.data.tobytes() == zero.data.tobytes()


@pytest.mark.parametrize("kwargs", [
    dict(kind="gaussian"), dict(kind="uniform", amplitude=-1.0),
    dict(kind="uniform", hold="forever"),
    dict(kind="uniform", amplitude=float("nan")),
    dict(kind="uniform", amplitude=float("inf")),
    dict(kind="uniform", amplitude=1e308),   # the width 2e308 overflows
    dict(kind="uniform", seed=-1), dict(kind="off", seed=-1),
    dict(kind="uniform", seed=True), dict(kind="uniform", seed=3.0),
    dict(kind="uniform", seed=np.int64(3)),
])
def test_disturbance_model_validation(kwargs):
    with pytest.raises(ValueError, match="disturbance (kind|hold|seed|amplitude)"):
        DisturbanceModel(**kwargs)


# ---------------------------------------------------------------------------
# simulation grid

def test_sim_config_counts(sim):
    assert sim.substeps == 10
    assert sim.n_control_steps == 200


@pytest.mark.parametrize("kwargs", [
    dict(sim_dt=0.004),              # does not tile control_dt
    dict(control_dt=0.03),           # does not tile horizon
    dict(sim_dt=-0.005), dict(control_dt=0.0), dict(horizon=-1.0),
    dict(horizon=float("inf")), dict(sim_dt=float("nan")),
    dict(control_dt=float("nan")),
    dict(sim_dt=1e-300, control_dt=1e-300, horizon=1.0),  # 1e300 steps
    dict(sim_dt=1e-3, control_dt=1e-3, horizon=1e6),      # 1e9 sub-steps
    dict(sim_dt=5e-324, horizon=0.0),  # control_dt / sim_dt overflows
    dict(horizon=5000.05),   # 1,000,010 sim steps, ~165 MB of draws and rows
])
def test_sim_config_validation(kwargs):
    with pytest.raises(ValueError, match="(sim_dt|control_dt|horizon).* must "):
        SimConfig(**kwargs)


def test_zero_horizon_allowed():
    assert SimConfig(horizon=0.0).n_control_steps == 0
