"""Single-link flexible-joint manipulator dynamics.

Motor and link are rigid bodies coupled by a torsion spring; the plant is
under-actuated (one torque input, two degrees of freedom).  State vector is
(x1, x2, x3, x4) = (link angle, link velocity, motor angle, motor velocity).
Under torque u and acceleration disturbances (d1, d2) the model is

    x1' = x2,  x2' = -(mgl/I_l) cos x1 - (k/I_l)(x1 - x3) + d1,
    x3' = x4,  x4' = (k/I_m)(x1 - x3) - (mu/I_m) x4 + u/I_m + d2,

which ``control.simulate`` integrates by forward Euler: s + dt * s'.
"""

from __future__ import annotations

import functools
import math

from .record import Record


class PlantParams(Record):
    """Physical constants of the manipulator.

    Units: m [kg], g [m/s^2], l [m], I_l and I_m [kg m^2], k [N m],
    mu [kg m^2 / s].
    """

    m: float = 1.2756
    g: float = 9.8
    l: float = 0.4
    I_l: float = 1.0
    I_m: float = 0.3
    k: float = 100.0
    mu: float = 0.1

    def __post_init__(self):
        if not (math.isfinite(self.g) and self.g >= 0):
            raise ValueError(f"g must be finite and >= 0, got {self.g}")
        for name in ("m", "l", "I_l", "I_m", "k", "mu"):
            v = getattr(self, name)
            if not (v > 0) or not math.isfinite(v):
                raise ValueError(f"{name} must be strictly positive, got {v}")

    @property
    def mgl(self) -> float:
        return self.m * self.g * self.l


class State(Record):
    x1: float
    x2: float
    x3: float
    x4: float

    def __post_init__(self):
        for v in (self.x1, self.x2, self.x3, self.x4):
            if not math.isfinite(v):
                raise ValueError(f"non-finite state component: {v}")


class DisturbanceModel(Record):
    """Acceleration disturbances (d1, d2) injected into both sub-plants.

    kind "off" yields (0, 0).  kind "uniform" draws i.i.d. values from
    [-amplitude, +amplitude]; the draw for a given (seed, step index) is a
    pure function of both, so replays and parallel runs agree bit-exactly.
    The generator is numpy PCG64 keyed by (seed, step_index).  The seed is
    an int >= 0 (not a bool), whatever the kind.  The amplitude must be
    finite, and so must the width 2*amplitude of the draw interval.

    hold "per-sim-step" redraws at every integration step; "per-control-step"
    reuses one draw for all sub-steps of a control period.
    """

    kind: str = "off"
    amplitude: float = 10.0
    seed: int = 0
    hold: str = "per-sim-step"

    def __post_init__(self):
        if self.kind not in ("off", "uniform"):
            raise ValueError(f"unknown disturbance kind: {self.kind!r}")
        if self.hold not in ("per-sim-step", "per-control-step"):
            raise ValueError(f"unknown disturbance hold: {self.hold!r}")
        if (isinstance(self.seed, bool) or not isinstance(self.seed, int)
                or self.seed < 0):
            raise ValueError(f"disturbance seed must be an int >= 0, got {self.seed!r}")
        if not (self.amplitude >= 0 and math.isfinite(2 * self.amplitude)):
            raise ValueError(
                f"disturbance amplitude must be finite and >= 0, got {self.amplitude}")


MAX_SUBSTEPS = 10 ** 6


class SimConfig(Record):
    """Fixed-step integration grid: control period must tile the horizon and
    the sim step must tile the control period.  Neither the horizon nor the
    control period may exceed MAX_SUBSTEPS sim steps, which bounds both step
    counts: a run holds its whole disturbance table and its trajectory
    rows, about 165 B per sim step, so 165 MB at the cap (5000 s at the
    default step), and the paper's runs take 2000 steps."""

    sim_dt: float = 0.005
    control_dt: float = 0.05
    horizon: float = 10.0

    def __post_init__(self):
        if not (0 < self.sim_dt < math.inf and 0 < self.control_dt < math.inf
                and 0 <= self.horizon < math.inf):
            raise ValueError("sim_dt, control_dt must be finite and > 0 and "
                             "horizon finite and >= 0")
        # on floats, before the step counts are rounded to integers
        if max(self.horizon, self.control_dt) / self.sim_dt > MAX_SUBSTEPS:
            raise ValueError(f"horizon and control_dt must each be at most "
                             f"{MAX_SUBSTEPS} sim steps")
        if abs(self.substeps * self.sim_dt - self.control_dt) > 1e-9 * self.control_dt:
            raise ValueError("control_dt must be an integer multiple of sim_dt")
        n = round(self.horizon / self.control_dt)
        if abs(n * self.control_dt - self.horizon) > 1e-9 * max(self.control_dt, 1.0):
            raise ValueError("horizon must be an integer multiple of control_dt")

    @property
    def substeps(self) -> int:
        return round(self.control_dt / self.sim_dt)

    @property
    def n_control_steps(self) -> int:
        return round(self.horizon / self.control_dt)


# The steps of default_rng((seed, i)).uniform(low, high, 2), on arrays over i:
# numpy's SeedSequence (bit_generator.pyx) and PCG64 (pcg64.h) constants.
_M32 = 0xFFFFFFFF
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875          # entropy mixing
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED          # generate_state
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT_HI, _PCG_MULT_LO = 0x2360ED051FC65DA4, 0x4385DF649FCCF645


def _uint32_words(n: int) -> list[int]:
    """SeedSequence's entropy words of a non-negative int, least
    significant first; 0 is one word."""
    if n < 0:
        raise ValueError(f"entropy must be >= 0, got {n}")
    words = [n & _M32]
    while n := n >> 32:
        words.append(n & _M32)
    return words


def _hashmix(value, h: int, mult: int = _MULT_A):
    """SeedSequence's hashmix of arrays of uint32 words; returns the next hash
    constant with the mixed words."""
    h_next = h * mult & _M32
    value = (value ^ h) * h_next
    return value ^ value >> 16, h_next


def _mix(x, y):
    r = x * _MIX_MULT_L - y * _MIX_MULT_R
    return r ^ r >> 16


def _pcg_step(hi, lo, inc_hi, inc_lo):
    """PCG64's 128-bit LCG step, state * MULT + inc mod 2**128, on uint64
    (high, low) limbs; the high limb of lo * MULT_LO from 32-bit halves."""
    m0, m1 = _PCG_MULT_LO & _M32, _PCG_MULT_LO >> 32
    a0, a1 = lo & _M32, lo >> 32
    p01, p10 = a0 * m1, a1 * m0
    mid = (a0 * m0 >> 32) + (p01 & _M32) + (p10 & _M32)
    carry_hi = a1 * m1 + (p01 >> 32) + (p10 >> 32) + (mid >> 32)
    new_lo = lo * _PCG_MULT_LO + inc_lo
    new_hi = carry_hi + lo * _PCG_MULT_HI + hi * _PCG_MULT_LO + inc_hi
    return new_hi + (new_lo < inc_lo), new_lo


def _uniform_pairs(seed: int, amplitude: float, start: int, stop: int):
    """The draws of indices start..stop-1 as a (stop - start, 2) numpy array:
    row j is ``default_rng((seed, start + j)).uniform(-amplitude,
    amplitude, 2)``, bit for bit.  Indices must be below 2**32, one
    entropy word each.  It is the one function here that needs numpy, so
    a run without a disturbance never loads it."""
    import numpy as np

    if not 0 <= start <= stop <= 2 ** 32:
        raise ValueError(f"draw indices must lie in [0, 2**32], got {start}..{stop}")
    n = stop - start
    entropy = [np.full(n, w, np.uint32) for w in _uint32_words(seed)]
    entropy.append(np.arange(start, stop, dtype=np.uint64).astype(np.uint32))
    # SeedSequence.mix_entropy
    h = _INIT_A
    pool = []
    for i in range(_POOL_SIZE):
        word = entropy[i] if i < len(entropy) else np.zeros(n, np.uint32)
        value, h = _hashmix(word, h)
        pool.append(value)
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                value, h = _hashmix(pool[src], h)
                pool[dst] = _mix(pool[dst], value)
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            value, h = _hashmix(word, h)
            pool[dst] = _mix(pool[dst], value)
    # generate_state(4, uint64): eight words, paired little-endian
    h = _INIT_B
    words = []
    for k in range(8):
        value, h = _hashmix(pool[k % _POOL_SIZE], h, _MULT_B)
        words.append(value.astype(np.uint64))
    s_hi, s_lo, q_hi, q_lo = (words[k] | words[k + 1] << 32 for k in range(0, 8, 2))
    # PCG64 srandom: inc = 2*initseq + 1; state = (inc + initstate) * MULT + inc
    inc_hi, inc_lo = q_hi << 1 | q_lo >> 63, q_lo << 1 | 1
    lo = inc_lo + s_lo
    hi, lo = _pcg_step(inc_hi + s_hi + (lo < s_lo), lo, inc_hi, inc_lo)
    # uniform(low, high, 2): low + (high - low) * next_double, XSL-RR output
    low, high = float(-amplitude), float(amplitude)
    width = high - low
    out = np.empty((n, 2))
    for j in range(2):
        hi, lo = _pcg_step(hi, lo, inc_hi, inc_lo)
        x, rot = hi ^ lo, hi >> 58
        x = x >> rot | x << ((64 - rot) & 63)
        out[:, j] = low + width * ((x >> 11) * (1.0 / 9007199254740992.0))
    return out


# Tables kept by disturbance_draws.  Every caller replays one seed at a time
# (a tune, an ablation, one round of a sweep), so a few tables suffice.
DISTURBANCE_TABLES = 4
DRAW_BLOCK = 2048   # indices drawn per kernel call, bounding its temporaries


@functools.lru_cache(maxsize=DISTURBANCE_TABLES)
def disturbance_draws(seed: int, amplitude: float,
                      stop: int) -> tuple[tuple[float, float], ...]:
    """The draws of indices 0..stop-1 as one tuple: entry i is the pair
    ``default_rng((seed, i)).uniform(-amplitude, amplitude, 2)``.  The
    table is drawn whole, DRAW_BLOCK indices per ``_uniform_pairs`` call,
    memoized per (seed, amplitude, stop), the least recently used dropped
    beyond DISTURBANCE_TABLES, and never changed, so threads share it
    without a lock."""
    table = []
    for start in range(0, stop, DRAW_BLOCK):
        d = _uniform_pairs(seed, amplitude, start, min(start + DRAW_BLOCK, stop))
        table += zip(d[:, 0].tolist(), d[:, 1].tolist())
    return tuple(table)
