"""Scalar tracking metrics derived from a simulation trajectory."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .control import Reference, Trajectory

SETTLING_BAND = 0.02  # fraction of the step size
COST_STEPS = 200  # control steps in the cost window, 10 s at the default rate
FAILED_COST = -1.0e4  # below any reachable tracking cost (>= -200*pi)


class MetricsError(ValueError):
    """Trajectory too short or otherwise unusable for metrics."""


@dataclass(frozen=True)
class Metrics:
    """cost: negative absolute-error sum over the first 200 control steps;
    overshoot_pct: peak link angle beyond the step target, as a percentage
    of the step size (step references only, else nan);
    settling_time: first time after which |e1| stays inside the 2% band
    (nan if never settled); steady_state_error: mean |e1| over the final
    second; rms_error: root-mean-square of e1 over the whole record."""

    cost: float
    overshoot_pct: float
    settling_time: float
    steady_state_error: float
    rms_error: float


def tracking_cost(trajectory: Trajectory, n_steps: int = COST_STEPS) -> float:
    """Negative sum of absolute link-angle error over the first n_steps
    control steps."""
    e1 = trajectory.e1
    if len(e1) < n_steps:
        raise ValueError(
            f"trajectory has {len(e1)} control-step records, need {n_steps}")
    return float(-np.sum(np.abs(e1[:n_steps])))


def step_overshoot(x1: np.ndarray, target: float, step_size: float) -> float:
    """Peak excursion of x1 beyond the step target, in percent of the step."""
    return max(0.0, float((np.max(x1) - target) / step_size) * 100.0)


def settling_time(t: np.ndarray, e1: np.ndarray, step_size: float) -> float:
    """First time from which |e1| stays below SETTLING_BAND*step_size; nan
    if the error never stays inside the band."""
    inside = np.abs(e1) < SETTLING_BAND * step_size
    if not inside[-1]:
        return float("nan")
    # last index at which the trajectory was outside the band
    outside = np.nonzero(~inside)[0]
    if len(outside) == 0:
        return float(t[0])
    i = outside[-1] + 1
    return float(t[i])


def compute_metrics(traj: Trajectory, ref: Reference) -> Metrics:
    """Metrics over a completed tracking run.  The cost window is the first
    COST_STEPS control steps (the full square-wave protocol yields 200);
    shorter runs are scored over what they have."""
    if len(traj) < 2:
        raise MetricsError("trajectory has no simulated control steps")
    t, e1, x1 = traj.t, traj.e1, traj.x1
    cost = tracking_cost(traj, n_steps=min(COST_STEPS, len(traj)))
    if ref.kind in ("square", "constant"):
        target = traj.x1d[-1]
        step = abs(target - x1[0])
        if step == 0.0:
            step = 1.0
        ov = step_overshoot(x1, target, step)
        ts = settling_time(t, e1, step)
    else:
        ov = float("nan")
        ts = float("nan")
    final = t[-1]
    tail = np.abs(e1[t >= final - 1.0 + 1e-12])
    sse = float(np.mean(tail)) if len(tail) else float("nan")
    rms = float(np.sqrt(np.mean(e1 ** 2)))
    return Metrics(cost=cost, overshoot_pct=ov, settling_time=ts,
                   steady_state_error=sse, rms_error=rms)
