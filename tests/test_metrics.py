import math

import numpy as np
import pytest

from flexjoint.control import (TRAJ_COLUMNS, Controller, ControllerKind,
                               Reference, Trajectory, simulate)
from flexjoint.metrics import (Metrics, compute_metrics, settling_time,
                               step_overshoot)
from flexjoint.plant import DisturbanceModel, State


def test_step_overshoot_frozen():
    x1 = np.array([0.0, 0.5, 1.12, 1.0, 0.98])
    assert step_overshoot(x1, target=1.0, step_size=1.0) == pytest.approx(12.0)
    assert step_overshoot(np.array([0.0, 0.9, 1.0]), 1.0, 1.0) == 0.0


def test_settling_time_frozen():
    t = np.arange(6) * 1.0
    e1 = np.array([1.0, 0.5, 0.1, 0.015, 0.01, 0.005])
    # band is 2% of the unit step: first inside at index 4... values 0.015 at
    # index 3 is inside (< 0.02), so settling happens at t=3
    assert settling_time(t, e1, step_size=1.0) == 3.0


def test_settling_time_never_settles():
    t = np.arange(4) * 1.0
    assert math.isnan(settling_time(t, np.array([1.0, 0.5, 0.3, 0.3]), 1.0))


def test_settling_time_always_inside():
    t = np.arange(3) * 1.0
    assert settling_time(t, np.array([0.0, 0.001, 0.0]), 1.0) == 0.0


def _synthetic_step_traj():
    def rec(t, x1):
        e1 = 1.0 - x1
        # columns t, x1..x4, x1d, x3d, u, e1..e4, gains
        return (t, x1, 0, 0, 0, 1.0, 0, 0.0, e1, 0, 0, 0, 0, 0, 0, 0)

    # rise, 5% overshoot at t=0.15, settle to the target
    xs = [0.0, 0.7, 1.0, 1.05, 1.01] + [1.0] * 195
    return Trajectory(np.array([rec(0.05 * i, x) for i, x in enumerate(xs)]),
                      final_state=State(1.0, 0, 0, 0))


def test_compute_metrics_synthetic():
    m = compute_metrics(_synthetic_step_traj(), Reference("constant"))
    assert m.overshoot_pct == pytest.approx(5.0)
    assert m.settling_time == pytest.approx(0.2)
    assert m.steady_state_error == 0.0
    assert m.cost == pytest.approx(-(1.0 + 0.3 + 0.05 + 0.01))
    assert m.rms_error == pytest.approx(
        math.sqrt((1.0 + 0.09 + 0.0025 + 0.0001) / 200.0))


def test_compute_metrics_sine_has_no_step_metrics(params, sim, gains):
    traj = simulate(params, sim, Controller(ControllerKind.CASCADED_PD, gains),
                    Reference("sine"), DisturbanceModel())
    m = compute_metrics(traj, Reference("sine"))
    assert math.isnan(m.overshoot_pct) and math.isnan(m.settling_time)
    assert m.rms_error > 0.0


def test_compute_metrics_rejects_tiny_trajectory():
    traj = Trajectory(np.zeros((1, len(TRAJ_COLUMNS))),
                      final_state=State(0, 0, 0, 0))
    with pytest.raises(ValueError, match="degenerate metrics: trajectory has "
                       "no simulated control steps"):
        compute_metrics(traj, Reference("square"))


def test_compute_metrics_is_dataclass():
    m = compute_metrics(_synthetic_step_traj(), Reference("constant"))
    assert isinstance(m, Metrics)
