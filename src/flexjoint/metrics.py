"""Scalar tracking metrics derived from a simulation trajectory.

The metrics run on plain floats and keep the bits of the numpy formulas
they replaced: every sum adds in the order of ``np.add.reduce`` over a
contiguous float64 array (``_sum``), a mean divides that sum by the count,
and ``math.sqrt`` rounds as ``np.sqrt`` does.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from functools import reduce
from operator import add

from .control import Reference, Trajectory
from .record import Record

SETTLING_BAND = 0.02  # fraction of the step size
COST_STEPS = 200  # control steps in the cost window, 10 s at the default rate
# Cost given to a diverged episode.  Not a floor: |e1| is bounded only by
# the 1e6 divergence guard, not by pi, so a finite episode can score lower.
FAILED_COST = -1.0e4


class Metrics(Record):
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


def _pairwise(a, lo: int, n: int) -> float:
    """numpy's pairwise sum of a[lo:lo + n] (loops_utils.h): below 8 terms
    one by one from 0.0; up to 128, eight running sums over the stride-8
    slices, combined as ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7)),
    then the rest one by one; beyond that, the two halves split at n // 2
    rounded down to a multiple of 8."""
    if n < 8:
        return reduce(add, a[lo:lo + n], 0.0)
    if n <= 128:
        m = lo + n - n % 8
        r = [reduce(add, a[j:m:8]) for j in range(lo, lo + 8)]
        s = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
        return reduce(add, a[m:lo + n], s)
    half = n // 2
    half -= half % 8
    return _pairwise(a, lo, half) + _pairwise(a, lo + half, n - half)


def _sum(a) -> float:
    """np.add.reduce(a) for a sequence of floats, bit for bit but for a
    NaN's sign: the reduction starts from add's identity 0.0 and adds the
    pairwise sum of the whole sequence to it."""
    return 0.0 + _pairwise(a, 0, len(a))


def tracking_cost(trajectory: Trajectory, n_steps: int = COST_STEPS) -> float:
    """Negative sum of absolute link-angle error over the first n_steps
    control steps."""
    e1 = trajectory.e1
    if len(e1) < n_steps:
        raise ValueError(
            f"trajectory has {len(e1)} control-step records, need {n_steps}")
    return -_sum(list(map(abs, e1[:n_steps])))


def step_overshoot(x1, target: float, step_size: float) -> float:
    """Peak excursion of x1 beyond the step target, in percent of the step."""
    return max(0.0, (max(x1) - target) / step_size * 100.0)


def settling_time(t, e1, step_size: float) -> float:
    """First time from which |e1| stays below SETTLING_BAND*step_size; nan
    if the error never stays inside the band."""
    band = SETTLING_BAND * step_size
    k = len(e1)   # back to the first record of the final run inside the band
    for e in reversed(e1):
        if not abs(e) < band:
            break
        k -= 1
    return t[k] if k < len(e1) else math.nan


def compute_metrics(traj: Trajectory, ref: Reference) -> Metrics:
    """Metrics over a completed tracking run.  The cost window is the first
    COST_STEPS control steps (the full square-wave protocol yields 200);
    shorter runs are scored over what they have.  Rows are taken before
    each torque, so a run of one control period holds one record, too few
    to score."""
    if len(traj) < 2:
        raise ValueError(f"degenerate metrics: need at least 2 control-step "
                         f"records, the trajectory has {len(traj)}")
    t, e1, x1 = traj.t, traj.e1, traj.x1
    mag = list(map(abs, e1))
    cost = -_sum(mag[:COST_STEPS])   # tracking_cost over what the run has
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
    # t rises, so the records of the final second are a suffix
    tail = mag[bisect_left(t, t[-1] - 1.0 + 1e-12):]
    sse = _sum(tail) / len(tail) if tail else float("nan")
    rms = math.sqrt(_sum([e * e for e in e1]) / len(e1))
    return Metrics(cost=cost, overshoot_pct=ov, settling_time=ts,
                   steady_state_error=sse, rms_error=rms)
