import math
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from flexjoint.control import (TRAJ_COLUMNS, Controller, ControllerKind,
                               Reference, simulate)
from flexjoint.metrics import (COST_STEPS, SETTLING_BAND, Metrics, _sum,
                               compute_metrics, settling_time, step_overshoot,
                               tracking_cost)
from flexjoint.plant import DisturbanceModel, State
from oracles import columns, trajectory


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
    return trajectory([rec(0.05 * i, x) for i, x in enumerate(xs)],
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
        traj = trajectory(np.zeros((rows, len(TRAJ_COLUMNS))))
        with pytest.raises(ValueError, match=f"^degenerate metrics: need at "
                           f"least 2 control-step records, the trajectory "
                           f"has {rows}$"):
            compute_metrics(traj, Reference("square"))


def _metrics_with_wrappers(traj, ref):
    """compute_metrics' formulas written with np.sum, np.max and np.mean."""
    t, e1, x1, x1d = columns(traj, "t", "e1", "x1", "x1d")
    cost = float(-np.sum(np.abs(e1[:min(COST_STEPS, len(traj))])))
    ov = ts = math.nan
    if ref.kind != "sine":
        target = x1d[-1]
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
    """The metrics give the bits of np.sum, np.max and np.mean over strided
    columns of 2-300 rows, lengths on both sides of numpy's 8-term and
    128-term pairwise blocks."""
    data = np.random.default_rng(seed).standard_normal(
        (rows, len(TRAJ_COLUMNS))) * scale
    data[:, 0] = np.arange(rows) * 0.05
    traj = trajectory(data)
    ref = Reference(ref_kind)
    assert _bits(compute_metrics(traj, ref)._astuple()) == _bits(
        _metrics_with_wrappers(traj, ref)._astuple())
    n = 1 + seed % rows
    assert _bits([tracking_cost(traj, n)]) == _bits(
        [float(-np.sum(np.abs(traj.e1[:n])))])
    x1, target = traj.x1, traj.x1d[-1]
    assert _bits([step_overshoot(x1, target, scale)]) == _bits(
        [max(0.0, float((np.max(x1) - target) / scale) * 100.0)])


def test_compute_metrics_returns_metrics():
    m = compute_metrics(_synthetic_step_traj(), Reference("constant"))
    assert isinstance(m, Metrics)


# ---------------------------------------------------------------------------
# the plain-float arithmetic against numpy, bit for bit

@st.composite
def settling_runs(draw):
    """(trajectory, reference, settling mode, k) of a finite run with 2-400
    records: e1 is outside the settling band before record k and inside it
    from k on, for k = n (never settles), 0 (always inside) or in between
    (settles midway).  The band comes from x1[0] and the target x1d[-1] as
    compute_metrics finds them; outside values span 20 decades."""
    n = draw(st.integers(2, 400))
    dt = draw(st.sampled_from([0.05, 0.005, 0.25]))
    ref = Reference(draw(st.sampled_from(["square", "sine", "constant"])),
                    draw(st.floats(-3.0, 3.0)))
    mode = draw(st.sampled_from(["never", "always", "midway"]))
    k = {"never": n, "always": 0, "midway": draw(st.integers(1, n - 1))}[mode]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    t = np.arange(n) * dt
    x1d = np.array([ref(s)[0] for s in t])
    e1 = np.empty(n)
    # e1[0] fixes the step: 0.0 is inside any band, |e1[0]| >= 0.2 outside
    e1[0] = 0.0 if k == 0 else rng.choice([-1.0, 1.0]) * rng.uniform(0.2, 5.0)
    step = abs(x1d[-1] - (x1d[0] - e1[0])) or 1.0
    band = SETTLING_BAND * step
    signs = rng.choice([-1.0, 1.0], n)
    e1[1:k] = signs[1:k] * band * (1.0 + 10.0 ** rng.uniform(-6.0, 14.0, max(k - 1, 0)))
    e1[max(k, 1):] = signs[max(k, 1):] * band * rng.uniform(0.0, 0.99, n - max(k, 1))
    data = np.zeros((n, len(TRAJ_COLUMNS)))
    for name, column in (("t", t), ("x1d", x1d), ("e1", e1), ("x1", x1d - e1)):
        data[:, TRAJ_COLUMNS.index(name)] = column
    return trajectory(data), ref, mode, k


@given(run=settling_runs(), window=st.integers(0, 400))
@settings(max_examples=300, deadline=None)
def test_metrics_match_the_numpy_oracle_bitwise(run, window):
    """compute_metrics and tracking_cost keep the bits of their numpy forms
    in tests/oracles.py, signed zeros and repr included, on square, sine
    and constant references whose error never settles, always holds or
    settles midway."""
    traj, ref, mode, k = run
    got, expected = compute_metrics(traj, ref), oracles.compute_metrics(traj, ref)
    assert _bits(got._astuple()) == _bits(expected._astuple())
    assert repr(got) == repr(expected)
    n = min(window, len(traj))
    assert _bits([tracking_cost(traj, n)]) == _bits([oracles.tracking_cost(traj, n)])
    if ref.kind != "sine":   # the run settles as it was built to
        t = traj.t
        assert (math.isnan(got.settling_time) if mode == "never"
                else got.settling_time == t[k])


_SPECIALS = [0.0, -0.0, math.inf, -math.inf, math.nan, 1e308, -1e308,
             5e-324, -5e-324]


def _same(a, b) -> bool:
    """Equal bits, or both NaN: which NaN an add of two NaNs keeps depends
    on the order a compiler puts the operands of a commutative add in."""
    return _bits([a]) == _bits([b]) or (a != a and b != b)


@given(n=st.integers(0, 1000), seed=st.integers(0, 2**32 - 1),
       special=st.sampled_from([0.0, 0.02, 0.3]),
       decades=st.sampled_from([0, 6, 308]))
@example(n=1000, seed=0, special=1.0, decades=0)   # 1000 values drawn from _SPECIALS
@settings(max_examples=300, deadline=None)
def test_sum_is_np_sum_bitwise(n, seed, special, decades):
    """_sum adds in np.sum's order at lengths 0-1000, across the 8-term and
    128-term blocks and the halving above them: signed zeros, infinities,
    NaNs and magnitudes up to 1e308."""
    rng = np.random.default_rng(seed)
    with np.errstate(all="ignore"):   # overflows to inf, inf - inf
        values = rng.standard_normal(n) * 10.0 ** rng.uniform(-decades, decades, n)
        picks = rng.random(n) < special
        values[picks] = rng.choice(_SPECIALS, n)[picks]
        expected = float(np.sum(values))
    assert _same(_sum(values.tolist()), expected)


@pytest.mark.parametrize("n", [0, 1, 7, 8, 9, 127, 128, 129, 136, 200, 1000])
@pytest.mark.parametrize("zero", [0.0, -0.0])
def test_sum_of_zeros_is_np_sum(n, zero):
    """np.sum adds the pairwise sum to 0.0, so a sum of -0.0 terms is 0.0,
    at every length."""
    assert _bits([_sum([zero] * n)]) == _bits([float(np.sum(np.full(n, zero)))])
