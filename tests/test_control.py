import collections
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flexjoint import control, plant
from flexjoint.cli import TUNED_FLR_BOUNDS
from flexjoint.control import (DIVERGENCE_LIMIT, TRAJ_COLUMNS, Controller,
                               ControllerKind, DivergedTrajectory,
                               GainSet, Reference, simulate)
from flexjoint.fuzzy import FlrBounds
from flexjoint.plant import (DISTURBANCE_TABLES, DisturbanceModel, PlantParams,
                             SimConfig, State)
from oracles import Diagnostics, disturbance_sample, euler_step, torque

finite = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)


def _state(traj, n):
    return State(traj.x1[n], traj.x2[n], traj.x3[n], traj.x4[n])


# ---------------------------------------------------------------------------
# control-law pieces

def pd(kp, kd, e, e_dot):
    """Proportional-derivative law kp*e + kd*e_dot: the oracle of the
    control law's PD terms."""
    return kp * e + kd * e_dot


def motor_reference(params, x1, u_pd1):
    """Motor angle x3d that makes the link equation deliver u_pd1:
    x3d = u_pd1*I_l/k + x1 + mgl*cos(x1)/k."""
    p = params
    return u_pd1 * p.I_l / p.k + x1 + p.mgl * math.cos(x1) / p.k


def _single_pd(kp, kd, e, de):
    """The single-PD torque on link error e and error rate de."""
    u, _ = torque(Controller(ControllerKind.SINGLE_PD, single_gains=(kp, kd)),
                  PlantParams(), State(0.0, 0.0, 0.0, 0.0), (e, de, 0.0))
    return u


@given(kp=st.floats(0, 100), kd=st.floats(0, 100), e=finite, de=finite,
       a=st.floats(-10, 10))
@settings(max_examples=200, deadline=None)
def test_pd_linear(kp, kd, e, de, a):
    assert _single_pd(kp, kd, e, de) == pd(kp, kd, e, de)
    assert _single_pd(kp, kd, a * e, a * de) == pytest.approx(
        a * _single_pd(kp, kd, e, de), rel=1e-9, abs=1e-9)


def test_motor_reference_at_rest(params, gains):
    # frozen from 40-digit decimal arithmetic: mgl/k
    _, d = torque(Controller(ControllerKind.CASCADED_PD, gains),
                  params, State(0.0, 0.0, 0.0, 0.0), (0.0, 0.0, 0.0))
    assert d.u_pd1 == 0.0
    assert d.x3d == motor_reference(params, 0.0, 0.0)
    assert d.x3d == pytest.approx(0.05000352, rel=1e-12)


@given(s=st.tuples(finite, finite, finite, finite), ref=st.tuples(finite, finite))
@settings(max_examples=200, deadline=None)
def test_cascade_is_the_oracle_composition_bitwise(s, ref):
    """u = pd2 + pd1*I_l + mgl*cos(x1) with x3d = motor_reference, bit for
    bit, for the plain cascade."""
    p, g = PlantParams(), GainSet()
    u, d = _torque(ControllerKind.CASCADED_PD, p, g, State(*s), (*ref, 0.0))
    u_pd1 = pd(g.kp1, g.kd1, ref[0] - s[0], ref[1] - s[1])
    x3d = motor_reference(p, s[0], u_pd1)
    u_pd2 = pd(g.kp2, g.kd2, x3d - s[2], 0.0 - s[3])
    assert (d.u_pd1, d.x3d) == (u_pd1, x3d)
    assert u == u_pd2 + u_pd1 * p.I_l + p.mgl * math.cos(s[0])


def test_gain_set_validation():
    with pytest.raises(ValueError):
        GainSet(kp1=-1.0)
    with pytest.raises(ValueError):
        GainSet(kd1=float("nan"))
    with pytest.raises(ValueError):
        GainSet(kp2=float("inf"))


def _torque(kind, params, gains, s, ref, bounds=FlrBounds()):
    return torque(Controller(kind, gains, bounds), params, s, ref)


def test_cascaded_torque_frozen(params, gains):
    # all intermediate values recomputed independently at 40-digit precision
    u, d = _torque(ControllerKind.CASCADED_PD, params, gains,
                   State(0.0, 0.0, 0.0, 0.0), (1.0, 0.0, 0.0))
    assert d.u_pd1 == pytest.approx(52.19, abs=0.0)
    assert d.x3d == pytest.approx(0.57190352, rel=1e-15)
    assert (d.e1, d.e2, d.e4) == (1.0, 0.0, 0.0)
    assert d.e3 == d.x3d
    assert u == pytest.approx(139.83041064, rel=1e-12)
    assert (d.kp1_eff, d.kd1_eff, d.kp2_eff, d.kd2_eff) == (
        52.19, 10.18, 144.5, 8.636)


@given(x1d=st.floats(-1.5, 1.5))
@settings(max_examples=100, deadline=None)
def test_set_point_consistency(x1d):
    # at the exact set point all errors vanish and the torque just holds
    # the link against gravity
    p, g = PlantParams(), GainSet()
    x3d = motor_reference(p, x1d, 0.0)
    u, d = _torque(ControllerKind.CASCADED_PD, p, g, State(x1d, 0.0, x3d, 0.0),
                   (x1d, 0.0, 0.0))
    assert (d.e1, d.e2, d.e3, d.e4) == (0.0, 0.0, 0.0, 0.0)
    assert u == pytest.approx(p.mgl * math.cos(x1d), rel=1e-12)


def test_fuzzy_degenerates_to_plain_cascade(params, gains, rng):
    zero = FlrBounds()
    for _ in range(1000):
        s = State(*rng.uniform(-2, 2, size=4))
        ref = (rng.uniform(-2, 2), rng.uniform(-2, 2), 0.0)
        assert _torque(ControllerKind.FUZZY_CASCADED, params, gains, s, ref,
                       zero) == \
            _torque(ControllerKind.CASCADED_PD, params, gains, s, ref)


def test_fuzzy_loops_can_be_disabled(params, gains, bounds):
    s = State(0.2, -0.1, 0.15, 0.3)
    ref = (1.0, 0.0, 0.0)
    _, d_both = _torque(ControllerKind.FUZZY_CASCADED, params, gains, s, ref,
                        bounds)
    _, d_outer = _torque(ControllerKind.FUZZY1_PD2, params, gains, s, ref,
                         bounds)
    _, d_inner = _torque(ControllerKind.PD1_FUZZY2, params, gains, s, ref,
                         bounds)
    assert d_outer.kp1_eff == d_both.kp1_eff != gains.kp1
    assert d_outer.kp2_eff == gains.kp2
    assert d_inner.kp1_eff == gains.kp1
    assert d_inner.kd2_eff != gains.kd2


def test_single_pd_torque_is_plain_pd():
    u, d = torque(Controller(ControllerKind.SINGLE_PD,
                             single_gains=(117.0, 29.99)),
                  PlantParams(), State(0.2, 0.1, 0.0, 0.0), (1.0, 0.0, 0.0))
    assert u == pytest.approx(117.0 * 0.8 + 29.99 * (-0.1), rel=1e-12)
    assert math.isnan(d.x3d) and math.isnan(d.e3)


def test_controller_dispatch(params, gains, bounds):
    s = State(0.1, 0.0, 0.05, 0.0)
    ref = (1.0, 0.0, 0.0)
    for kind in ControllerKind:
        c = Controller(kind=kind, gains=gains, flr_bounds=bounds)
        u, d = torque(c, params, s, ref)
        assert math.isfinite(u)


def test_diagnostics_tail_is_the_trajectory_tail():
    # simulate writes the law's outputs from e1 on into a row after
    # (t, x1..x4, x1d, x3d, u), in Diagnostics order
    assert Diagnostics._fields[2:] == TRAJ_COLUMNS[8:]


# ---------------------------------------------------------------------------
# references

def test_square_reference():
    r = Reference(kind="square")
    assert r(0.0) == (1.0, 0.0, 0.0)
    assert r(9.95) == (1.0, 0.0, 0.0)
    assert r(10.0) == (0.0, 0.0, 0.0)


def test_sine_reference():
    r = Reference(kind="sine")
    x, dx, ddx = r(0.7)
    assert (x, dx, ddx) == (math.sin(0.7), math.cos(0.7), -math.sin(0.7))


def test_constant_reference():
    assert Reference(kind="constant", value=0.5)(3.0) == (0.5, 0.0, 0.0)


def test_reference_validation():
    with pytest.raises(ValueError):
        Reference(kind="triangle")
    with pytest.raises(ValueError):
        Reference(kind="constant", value=float("nan"))
    with pytest.raises(ValueError):
        Reference(kind="constant", value=float("inf"))


# ---------------------------------------------------------------------------
# closed-loop simulation

def test_simulate_record_grid(params, sim, gains):
    traj = simulate(params, sim, Controller(ControllerKind.CASCADED_PD, gains),
                    Reference("square"), DisturbanceModel())
    assert len(traj) == 200
    np.testing.assert_allclose(traj.t, np.arange(200) * 0.05, atol=1e-12)
    assert _state(traj, 0) == State(0.0, 0.0, 0.0, 0.0)


def test_simulate_zero_horizon_single_record(params, gains):
    sim = SimConfig(horizon=0.0)
    traj = simulate(params, sim, Controller(ControllerKind.CASCADED_PD, gains),
                    Reference("square"), DisturbanceModel())
    assert len(traj) == 1
    assert traj.t[0] == 0.0
    assert traj.final_state == State(0.0, 0.0, 0.0, 0.0)


def test_simulate_zoh_replay(params, gains):
    """Strong integration oracle: every control period is reproduced exactly
    by re-integrating from the recorded state with the held torque and the
    same indexed disturbance draws."""
    sim = SimConfig(horizon=2.0)
    dist = DisturbanceModel(kind="uniform", amplitude=10.0, seed=42)
    traj = simulate(params, sim, Controller(ControllerKind.CASCADED_PD, gains),
                    Reference("square"), dist)
    for n in range(len(traj) - 1):
        s = _state(traj, n)
        u = traj.u[n]
        for j in range(sim.substeps):
            d1, d2 = disturbance_sample(dist, n * sim.substeps + j)
            s = euler_step(params, s, u, d1, d2, sim.sim_dt)
        assert s == _state(traj, n + 1)


def test_simulate_per_control_step_hold(params, gains):
    sim = SimConfig(horizon=1.0)
    dist = DisturbanceModel(kind="uniform", amplitude=10.0, seed=9,
                            hold="per-control-step")
    traj = simulate(params, sim, Controller(ControllerKind.CASCADED_PD, gains),
                    Reference("square"), dist)
    # replay: one draw per control period, indexed by the control step
    s = _state(traj, 3)
    u = traj.u[3]
    d1, d2 = disturbance_sample(dist, 3)
    for _ in range(sim.substeps):
        s = euler_step(params, s, u, d1, d2, sim.sim_dt)
    assert s == _state(traj, 4)


def test_simulate_deterministic(params, sim, gains, bounds):
    c = Controller(ControllerKind.FUZZY_CASCADED, gains, bounds)
    dist = DisturbanceModel(kind="uniform", amplitude=10.0, seed=11)
    a = simulate(params, sim, c, Reference("square"), dist)
    b = simulate(params, sim, c, Reference("square"), dist)
    assert a.final_state == b.final_state
    assert list(a.e1) == list(b.e1)


def test_nonfinite_torque_diverges_before_integrating(params, sim):
    huge = GainSet(1e300, 1e300, 1e300, 1e300)
    with pytest.raises(DivergedTrajectory) as exc:
        simulate(params, sim, Controller(ControllerKind.CASCADED_PD, huge),
                 Reference("square"), DisturbanceModel())
    assert exc.value.sim_step == 0
    assert "non-finite torque" in str(exc.value)


def test_single_pd_diverges(params, sim):
    with pytest.raises(DivergedTrajectory) as exc:
        simulate(params, sim, Controller(ControllerKind.SINGLE_PD),
                 Reference("square"), DisturbanceModel())
    assert exc.value.sim_step > 0
    assert "diverged" in str(exc.value)


def _euler_reference(params, sim, ctrl, ref, dist):
    """simulate() rebuilt from euler_step and disturbance_sample: the rows
    and the final state, or the DivergedTrajectory it raises."""
    def record(t):
        """Append the row at time t; return its torque."""
        r = ref(t)
        u, d = torque(ctrl, params, s, r)
        rows.append((t, s.x1, s.x2, s.x3, s.x4, r[0], d.x3d, u, d.e1, d.e2,
                     d.e3, d.e4, d.kp1_eff, d.kd1_eff, d.kp2_eff, d.kd2_eff))
        return u

    s = State(0.0, 0.0, 0.0, 0.0)
    rows, sim_step = [], 0
    for n in range(sim.n_control_steps):
        t = n * sim.control_dt
        u = record(t)
        if not math.isfinite(u):
            raise DivergedTrajectory(sim_step, t, s)
        for _ in range(sim.substeps):
            i = n if dist.hold == "per-control-step" else sim_step
            d1, d2 = disturbance_sample(dist, i)
            sim_step += 1
            try:
                s = euler_step(params, s, u, d1, d2, sim.sim_dt)
            except ValueError:   # a non-finite state; s is the last finite one
                raise DivergedTrajectory(sim_step, sim_step * sim.sim_dt, s)
            if max(abs(s.x1), abs(s.x2), abs(s.x3), abs(s.x4)) > DIVERGENCE_LIMIT:
                raise DivergedTrajectory(sim_step, sim_step * sim.sim_dt, s)
    if not rows:
        record(0.0)
    return np.array(rows, dtype=float), s


def _outcome(fn, *args):
    try:
        return fn(*args)
    except Exception as exc:
        return exc


@given(kind=st.sampled_from(ControllerKind),
       gains=st.tuples(st.floats(0, 300), st.floats(0, 60), st.floats(0, 600),
                       st.floats(0, 40)),
       tiny_motor=st.booleans(), uniform=st.booleans(),
       amplitude=st.floats(0, 50), seed=st.integers(0, 1000),
       hold=st.sampled_from(["per-sim-step", "per-control-step"]),
       sub=st.sampled_from([1, 3, 10]), steps=st.integers(0, 30),
       ref_kind=st.sampled_from(["square", "sine"]))
@settings(max_examples=100, deadline=None)
def test_simulate_matches_euler_step_bitwise(kind, gains, tiny_motor, uniform,
                                             amplitude, seed, hold, sub, steps,
                                             ref_kind):
    """The float loop of simulate is the euler_step loop, bit for bit; a
    tiny motor inertia makes a step's state NaN, which is a divergence."""
    params = PlantParams(I_m=1e-308) if tiny_motor else PlantParams()
    sim = SimConfig(sim_dt=0.05 / sub, control_dt=0.05, horizon=steps * 0.05)
    ctrl = Controller(kind, GainSet(*gains), TUNED_FLR_BOUNDS,
                      single_gains=gains[:2])
    dist = DisturbanceModel("uniform" if uniform else "off", amplitude, seed, hold)
    args = (params, sim, ctrl, Reference(ref_kind), dist)
    expected, got = _outcome(_euler_reference, *args), _outcome(simulate, *args)
    if isinstance(expected, Exception):
        assert type(got) is type(expected)
        assert (got.sim_step, got.state) == (expected.sim_step, expected.state)
    else:
        rows, final = expected
        assert got.data.tobytes() == rows.tobytes()
        assert got.final_state == final


@pytest.mark.parametrize("value", [1.0, -1.0])
@pytest.mark.parametrize("kp, diverged_at",
                         [(1.28e8, 2), (math.nextafter(1.28e8, math.inf), 1)])
def test_divergence_bound_is_inclusive(kp, diverged_at, value):
    """The first sub-step of a single-PD run from rest sets x4 to
    dt * kp * value / I_m.  On exactly +-1e6 that is inside the bound and
    the run diverges a sub-step later; one float beyond diverges at once,
    with the crossing state, as the euler_step loop does."""
    params = PlantParams(I_m=0.5)
    dt = 2.0 ** -8
    sim = SimConfig(sim_dt=dt, control_dt=10 * dt, horizon=10 * dt)
    ctrl = Controller(ControllerKind.SINGLE_PD, single_gains=(kp, 0.0))
    args = (params, sim, ctrl, Reference("constant", value), DisturbanceModel())
    first = euler_step(params, State(0.0, 0.0, 0.0, 0.0), kp * value, 0.0, 0.0, dt)
    assert (first.x4 == value * DIVERGENCE_LIMIT) == (diverged_at == 2)
    expected = _outcome(_euler_reference, *args)
    assert isinstance(expected, DivergedTrajectory)
    with pytest.raises(DivergedTrajectory) as exc:
        simulate(*args)
    assert exc.value.sim_step == diverged_at
    assert (exc.value.sim_step, exc.value.state) == (expected.sim_step,
                                                     expected.state)


@pytest.fixture
def draws(monkeypatch):
    """The step indices drawn by plant._uniform_pairs, in call order."""
    calls = []
    kernel = plant._uniform_pairs

    def counting(seed, amplitude, start, stop):
        calls.extend(range(start, stop))
        return kernel(seed, amplitude, start, stop)

    monkeypatch.setattr(plant, "_uniform_pairs", counting)
    return calls


# Seeds above 10**6 and these amplitudes are used by no other test, so each
# memo table below starts empty.
def test_repeated_disturbance_is_drawn_once(params, gains, draws):
    """A first run of each hold draws exactly the indices of its horizon,
    sim steps or control steps, and a repeat of either draws nothing."""
    sim = SimConfig(horizon=1.0)   # 20 control steps of 10 sim steps
    ctrl = Controller(ControllerKind.CASCADED_PD, gains)
    runs = []
    for hold, stop in (("per-sim-step", 200), ("per-control-step", 20)):
        dist = DisturbanceModel("uniform", 7.25, 2_000_001, hold)
        draws.clear()
        first = simulate(params, sim, ctrl, Reference("square"), dist)
        assert draws == list(range(stop))
        draws.clear()
        again = simulate(params, sim, ctrl, Reference("square"), dist)
        assert draws == []
        assert again.data.tobytes() == first.data.tobytes()
        runs.append(first)
    assert runs[0].data.tobytes() != runs[1].data.tobytes()


@pytest.fixture
def fresh_memo():
    """Empty the disturbance memo before and after the test."""
    plant.disturbance_draws.cache_clear()
    yield plant.disturbance_draws.cache_clear
    plant.disturbance_draws.cache_clear()


@pytest.mark.parametrize("hold", ["per-sim-step", "per-control-step"])
def test_draws_grow_exactly_across_block_edges(params, gains, fresh_memo,
                                               monkeypatch, hold):
    """With a block of 7 indices, which divides neither the 10 sub-steps of
    a control period nor any table length here, the kernel draws [0, 7),
    [7, 14), ... up to each table's end, and a diverging episode and a
    finished one have the bits of the default block size."""
    sim = SimConfig(horizon=100.0)
    short = SimConfig(horizon=3.0)
    dist = DisturbanceModel("uniform", 7.5, 2_000_003, hold)
    calls = []
    kernel = plant._uniform_pairs

    def spying(seed, amplitude, start, stop):
        calls.append((start, stop))
        return kernel(seed, amplitude, start, stop)

    monkeypatch.setattr(plant, "_uniform_pairs", spying)

    def outcomes():
        fresh_memo()
        calls.clear()
        with pytest.raises(DivergedTrajectory) as exc:
            simulate(params, sim, Controller(ControllerKind.SINGLE_PD),
                     Reference("square"), dist)
        traj = simulate(params, short,
                        Controller(ControllerKind.CASCADED_PD, gains),
                        Reference("square"), dist)
        return exc.value, traj

    expected, expected_traj = outcomes()
    monkeypatch.setattr(plant, "DRAW_BLOCK", 7)
    diverged, traj = outcomes()
    stops = [s.n_control_steps * (1 if hold == "per-control-step" else s.substeps)
             for s in (sim, short)]
    assert all(stop % 7 for stop in stops)
    assert calls == [(a, min(a + 7, stop)) for stop in stops
                     for a in range(0, stop, 7)]
    assert (diverged.sim_step, diverged.state) == (expected.sim_step,
                                                   expected.state)
    assert traj.data.tobytes() == expected_traj.data.tobytes()


def test_simulate_builds_no_per_step_objects(params, sim, gains, bounds,
                                             monkeypatch):
    """A run builds one State, the final one."""
    made = collections.Counter()

    def counting(*args):
        made["State"] += 1
        return State(*args)
    monkeypatch.setattr(control, "State", counting)
    for kind in (ControllerKind.CASCADED_PD, ControllerKind.FUZZY_CASCADED):
        made.clear()
        traj = simulate(params, sim, Controller(kind, gains, bounds),
                        Reference("square"),
                        DisturbanceModel("uniform", 10.0, 3))
        assert len(traj) == 200
        assert made == {"State": 1}


def test_disturbance_memo_is_bounded(params, gains, draws):
    sim = SimConfig(horizon=0.5)
    ctrl = Controller(ControllerKind.CASCADED_PD, gains)

    def run(seed):
        simulate(params, sim, ctrl, Reference("square"),
                 DisturbanceModel("uniform", 7.75, seed))

    seeds = [2_000_100 + i for i in range(DISTURBANCE_TABLES + 1)]
    for seed in seeds:
        run(seed)
    draws.clear()
    run(seeds[-1])
    assert draws == []
    run(seeds[0])
    assert draws == list(range(100))   # 10 control steps of 10 sim steps


def test_error_rows_exact_per_step(params, gains):
    """Discrete error-propagation identities, one integration step per
    control step so every record is one Euler step:
      e1' = e1 + dt*e2
      e2' = e2 - dt*(-kp1*e1 - kd1*e2 + (k/I_l)*e3)   [constant reference]
      e4' = e4 + dt*(-((k+kp2)/I_m)*e3 - ((mu+kd2)/I_m)*e4)
    These hold to rounding error; the third error coordinate has no such
    closed row because the motor reference moves with the state."""
    # one integration step per control step; dt small enough that the
    # forward-Euler discretization of the fast loop stays stable
    sim = SimConfig(sim_dt=0.005, control_dt=0.005, horizon=1.0)
    traj = simulate(params, sim, Controller(ControllerKind.CASCADED_PD, gains),
                    Reference("constant"), DisturbanceModel())
    dt = sim.sim_dt
    p, g = params, gains
    e1, e2, e3, e4 = traj.e1, traj.e2, traj.e3, traj.e4
    for n in range(len(traj) - 1):
        e2dot = g.kp1 * e1[n] + g.kd1 * e2[n] - p.k / p.I_l * e3[n]
        e4dot = -(p.k + g.kp2) / p.I_m * e3[n] - (p.mu + g.kd2) / p.I_m * e4[n]
        assert e1[n + 1] == pytest.approx(e1[n] + dt * e2[n], rel=1e-9, abs=1e-12)
        assert e2[n + 1] == pytest.approx(e2[n] - dt * e2dot, rel=1e-9, abs=1e-12)
        assert e4[n + 1] == pytest.approx(e4[n] + dt * e4dot, rel=1e-9, abs=1e-12)


def test_trajectory_array_views(params, gains):
    sim = SimConfig(horizon=1.0)
    traj = simulate(params, sim, Controller(ControllerKind.CASCADED_PD, gains),
                    Reference("square"), DisturbanceModel())
    assert len(traj.e1) == len(traj.x1) == len(traj.t) == len(traj) == 20
    assert traj.e1[0] == 1.0 and traj.x1[0] == 0.0
