import math
import struct
from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flexjoint.control import (TRAJ_COLUMNS, Controller, ControllerKind,
                               Reference, Trajectory, simulate)
from flexjoint.metrics import (COST_STEPS, Metrics, compute_metrics,
                               settling_time, step_overshoot, tracking_cost)
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
    """A one-period run holds one record, taken before its torque: too few
    to score, and the error says how many there are."""
    for rows in (0, 1):
        traj = Trajectory(np.zeros((rows, len(TRAJ_COLUMNS))),
                          final_state=State(0, 0, 0, 0))
        with pytest.raises(ValueError, match=f"^degenerate metrics: need at "
                           f"least 2 control-step records, the trajectory "
                           f"has {rows}$"):
            compute_metrics(traj, Reference("square"))


def _metrics_with_wrappers(traj, ref):
    """compute_metrics' formulas written with np.sum, np.max and np.mean."""
    t, e1, x1 = traj.t, traj.e1, traj.x1
    cost = float(-np.sum(np.abs(e1[:min(COST_STEPS, len(traj))])))
    ov = ts = math.nan
    if ref.kind != "sine":
        target = traj.x1d[-1]
        step = abs(target - x1[0]) or 1.0
        ov = max(0.0, float((np.max(x1) - target) / step) * 100.0)
        ts = settling_time(t, e1, step)
    tail = np.abs(e1[t >= t[-1] - 1.0 + 1e-12])
    sse = float(np.mean(tail)) if len(tail) else math.nan
    rms = float(np.sqrt(np.mean(e1 ** 2)))
    return Metrics(cost, ov, ts, sse, rms)


def _bits(values):
    return [struct.pack("<d", v) for v in values]


@given(rows=st.integers(2, 300), seed=st.integers(0, 2**32 - 1),
       scale=st.sampled_from([1e-3, 1.0, 1e3, 1e6]),
       ref_kind=st.sampled_from(["square", "constant", "sine"]))
@settings(max_examples=200, deadline=None)
def test_metrics_reductions_are_the_numpy_wrappers_bitwise(rows, seed, scale,
                                                           ref_kind):
    """The array methods the metrics call give the bits of np.sum, np.max
    and np.mean, on strided columns of 2-300 rows, lengths on both sides of
    numpy's 8-term and 128-term pairwise blocks."""
    data = np.random.default_rng(seed).standard_normal(
        (rows, len(TRAJ_COLUMNS))) * scale
    data[:, 0] = np.arange(rows) * 0.05
    traj = Trajectory(data, final_state=State(0.0, 0.0, 0.0, 0.0))
    ref = Reference(ref_kind)
    assert _bits(astuple(compute_metrics(traj, ref))) == _bits(
        astuple(_metrics_with_wrappers(traj, ref)))
    n = 1 + seed % rows
    assert _bits([tracking_cost(traj, n)]) == _bits(
        [float(-np.sum(np.abs(traj.e1[:n])))])
    x1, target = traj.x1, traj.x1d[-1]
    assert _bits([step_overshoot(x1, target, scale)]) == _bits(
        [max(0.0, float((np.max(x1) - target) / scale) * 100.0)])


def test_compute_metrics_is_dataclass():
    m = compute_metrics(_synthetic_step_traj(), Reference("constant"))
    assert isinstance(m, Metrics)
