"""Single-link flexible-joint manipulator dynamics.

Motor and link are rigid bodies coupled by a torsion spring; the plant is
under-actuated (one torque input, two degrees of freedom).  State vector is
(x1, x2, x3, x4) = (link angle, link velocity, motor angle, motor velocity).
"""

from __future__ import annotations

import functools
import math
import threading
from dataclasses import dataclass, field

import numpy as np


class PlantError(ValueError):
    """Invalid plant parameters or non-finite inputs."""


@dataclass(frozen=True)
class PlantParams:
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
            raise PlantError(f"g must be finite and >= 0, got {self.g}")
        for name in ("m", "l", "I_l", "I_m", "k", "mu"):
            v = getattr(self, name)
            if not (v > 0) or not math.isfinite(v):
                raise PlantError(f"{name} must be strictly positive, got {v}")

    @property
    def mgl(self) -> float:
        return self.m * self.g * self.l


@dataclass(frozen=True)
class State:
    x1: float
    x2: float
    x3: float
    x4: float

    def __post_init__(self):
        for v in (self.x1, self.x2, self.x3, self.x4):
            if not math.isfinite(v):
                raise PlantError(f"non-finite state component: {v}")

    def as_array(self) -> np.ndarray:
        return np.array([self.x1, self.x2, self.x3, self.x4])

    @staticmethod
    def from_array(a) -> "State":
        return State(float(a[0]), float(a[1]), float(a[2]), float(a[3]))


@dataclass(frozen=True)
class DisturbanceModel:
    """Acceleration disturbances (d1, d2) injected into both sub-plants.

    kind "off" yields (0, 0).  kind "uniform" draws i.i.d. values from
    [-amplitude, +amplitude]; the draw for a given (seed, step index) is a
    pure function of both, so replays and parallel runs agree bit-exactly.
    The generator is numpy PCG64 keyed by (seed, step_index).  The amplitude
    must be finite, and so must the width 2*amplitude of the draw interval.

    hold "per-sim-step" redraws at every integration step; "per-control-step"
    reuses one draw for all sub-steps of a control period.
    """

    kind: str = "off"
    amplitude: float = 10.0
    seed: int = 0
    hold: str = "per-sim-step"

    def __post_init__(self):
        if self.kind not in ("off", "uniform"):
            raise PlantError(f"unknown disturbance kind: {self.kind!r}")
        if self.hold not in ("per-sim-step", "per-control-step"):
            raise PlantError(f"unknown disturbance hold: {self.hold!r}")
        if not (self.amplitude >= 0 and math.isfinite(2 * self.amplitude)):
            raise PlantError(
                f"disturbance amplitude must be finite and >= 0, got {self.amplitude}")


MAX_SUBSTEPS = 10 ** 8


@dataclass(frozen=True)
class SimConfig:
    """Fixed-step integration grid: control period must tile the horizon and
    the sim step must tile the control period.  Neither the horizon nor the
    control period may exceed MAX_SUBSTEPS sim steps, which bounds both step
    counts (the default run takes 2000)."""

    sim_dt: float = 0.005
    control_dt: float = 0.05
    horizon: float = 10.0

    def __post_init__(self):
        if not (0 < self.sim_dt < math.inf and 0 < self.control_dt < math.inf
                and 0 <= self.horizon < math.inf):
            raise PlantError("sim_dt, control_dt must be finite and > 0 and "
                             "horizon finite and >= 0")
        # on floats, before the step counts are rounded to integers
        if max(self.horizon, self.control_dt) / self.sim_dt > MAX_SUBSTEPS:
            raise PlantError(f"horizon and control_dt must each be at most "
                             f"{MAX_SUBSTEPS} sim steps")
        if abs(self.substeps * self.sim_dt - self.control_dt) > 1e-9 * self.control_dt:
            raise PlantError("control_dt must be an integer multiple of sim_dt")
        n = round(self.horizon / self.control_dt)
        if abs(n * self.control_dt - self.horizon) > 1e-9 * max(self.control_dt, 1.0):
            raise PlantError("horizon must be an integer multiple of control_dt")

    @property
    def substeps(self) -> int:
        return round(self.control_dt / self.sim_dt)

    @property
    def n_control_steps(self) -> int:
        return round(self.horizon / self.control_dt)


def derivatives(params: PlantParams, s: State, u: float,
                d1: float = 0.0, d2: float = 0.0) -> np.ndarray:
    """Right-hand side of the state-space model.

    Returns (x2,
             -(mgl/I_l) cos x1 - (k/I_l)(x1 - x3) + d1,
             x4,
             (k/I_m)(x1 - x3) - (mu/I_m) x4 + u/I_m + d2).
    """
    if not all(math.isfinite(v) for v in (u, d1, d2)):
        raise PlantError("non-finite input to derivatives")
    p = params
    dx2 = -p.mgl / p.I_l * math.cos(s.x1) - p.k / p.I_l * (s.x1 - s.x3) + d1
    dx4 = p.k / p.I_m * (s.x1 - s.x3) - p.mu / p.I_m * s.x4 + u / p.I_m + d2
    return np.array([s.x2, dx2, s.x4, dx4])


def euler_step(params: PlantParams, s: State, u: float,
               d1: float, d2: float, dt: float) -> State:
    """One forward-Euler step: s' = s + dt * f(s, u, d)."""
    if dt < 0:
        raise PlantError(f"dt must be >= 0, got {dt}")
    ds = derivatives(params, s, u, d1, d2)
    return State.from_array(s.as_array() + dt * ds)


def disturbance_sample(model: DisturbanceModel, step_index: int) -> tuple[float, float]:
    """Disturbance pair for one integration step, deterministic in
    (model.seed, step_index)."""
    if model.kind == "off":
        return 0.0, 0.0
    rng = np.random.default_rng((model.seed, step_index))
    d = rng.uniform(-model.amplitude, model.amplitude, size=2)
    return float(d[0]), float(d[1])


# Tables kept by disturbance_draws.  Every caller replays one seed at a time
# (a tune, an ablation, one round of a sweep), so a few tables suffice.
DISTURBANCE_TABLES = 4
_draw_lock = threading.Lock()   # a table grows under it, one index at a time


@functools.lru_cache(maxsize=DISTURBANCE_TABLES)
def _draw_table(kind: str, seed: int, amplitude: float) -> list[tuple[float, float]]:
    return []


def disturbance_draws(model: DisturbanceModel, stop: int) -> list[tuple[float, float]]:
    """Memo of the draws of ``model``, holding at least ``stop`` entries:
    entry i is ``disturbance_sample(model, i)``.

    The table is shared by every model with the same kind, seed and
    amplitude, whatever its hold, and grows in step order on demand, so
    nothing past ``stop`` is drawn.  The least recently used table is
    dropped once more than DISTURBANCE_TABLES are live.  Entries are never
    changed once appended, so a caller may index the table below its length
    without the lock.
    """
    table = _draw_table(model.kind, model.seed, model.amplitude)
    with _draw_lock:
        while len(table) < stop:
            table.append(disturbance_sample(model, len(table)))
    return table


def mechanical_energy(params: PlantParams, s: State) -> float:
    """Kinetic plus spring potential energy (gravity excluded); with g = 0,
    u = 0 and no disturbance, dE/dt = -mu * x4**2."""
    p = params
    return (0.5 * p.I_l * s.x2 ** 2 + 0.5 * p.I_m * s.x4 ** 2
            + 0.5 * p.k * (s.x1 - s.x3) ** 2)
