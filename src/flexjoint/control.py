"""Cascaded PD control of the flexible-joint plant.

The loop structure: a virtual PD on the link error produces a desired link
acceleration; solving the link equation for the motor angle turns that into
a motor reference x3d; a second PD tracks x3d, and the torque compensates
the spring-coupling and gravity terms.  Optional fuzzy regulators shift the
PD gains online.  The motor-reference rate is taken as zero (its full
chain-rule expression is deliberately not implemented), so the inner-loop
velocity error is simply -x4.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .fuzzy import FlrBounds, RuleBase, infer
from .plant import (DisturbanceModel, PlantParams, SimConfig, State,
                    disturbance_draws)

DIVERGENCE_LIMIT = 1e6
# (kp, kd) of the reduced-order single-PD baseline
SINGLE_PD_GAINS = (117.0, 29.99)


class DivergedTrajectory(RuntimeError):
    """Simulation aborted because a state component exceeded the limit or
    was not finite (NaN included), or the torque was not finite.

    ``state`` is the last finite state: the one that crossed the limit, the
    one a non-finite step started from, or the one a non-finite torque was
    computed at.
    """

    def __init__(self, sim_step: int, t: float, state: State,
                 cause: str = f"|state| > {DIVERGENCE_LIMIT:g}"):
        self.sim_step = sim_step
        self.t = t
        self.state = state
        super().__init__(
            f"trajectory diverged at sim step {sim_step} (t={t:.4f}s): {cause}")


@dataclass(frozen=True)
class GainSet:
    kp1: float = 52.19
    kd1: float = 10.18
    kp2: float = 144.5
    kd2: float = 8.636

    def __post_init__(self):
        for name in ("kp1", "kd1", "kp2", "kd2"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v >= 0):
                raise ValueError(f"{name} must be finite and >= 0, got {v}")


class ControllerKind(str, enum.Enum):
    SINGLE_PD = "single-pd"
    CASCADED_PD = "cascaded"
    FUZZY_CASCADED = "fuzzy-cascaded"
    FUZZY1_PD2 = "fuzzy1-pd2"
    PD1_FUZZY2 = "pd1-fuzzy2"


@dataclass(frozen=True)
class Reference:
    """Tracked link-angle signal; evaluates to (x1d, x1d_dot, x1d_ddot).

    square: 1 rad for t < 10 s, 0 afterwards, derivatives zero.
    sine:   (sin t, cos t, -sin t).
    constant: a fixed set point.
    """

    kind: str = "square"
    value: float = 1.0

    def __post_init__(self):
        if self.kind not in ("square", "sine", "constant"):
            raise ValueError(f"unknown reference kind {self.kind!r}")
        if not math.isfinite(self.value):
            raise ValueError(f"reference value must be finite, got {self.value}")

    def __call__(self, t: float) -> tuple[float, float, float]:
        if self.kind == "square":
            return (1.0 if t < 10.0 else 0.0), 0.0, 0.0
        if self.kind == "sine":
            return math.sin(t), math.cos(t), -math.sin(t)
        return self.value, 0.0, 0.0


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


def pd(kp: float, kd: float, e: float, e_dot: float) -> float:
    """Proportional-derivative law kp*e + kd*e_dot."""
    return kp * e + kd * e_dot


def motor_reference(params: PlantParams, x1: float, u_pd1: float) -> float:
    """Motor angle x3d that makes the link equation deliver u_pd1:
    x3d = u_pd1*I_l/k + x1 + mgl*cos(x1)/k."""
    p = params
    return u_pd1 * p.I_l / p.k + x1 + p.mgl * math.cos(x1) / p.k


@dataclass(frozen=True)
class Controller:
    """Value object bundling a controller kind with its parameters.

    loop1 and loop2 hold the regulators of the kind's fuzzy loops, built
    once here; a plain PD loop holds None.
    """

    kind: ControllerKind = ControllerKind.FUZZY_CASCADED
    gains: GainSet = field(default_factory=GainSet)
    flr_bounds: FlrBounds = field(default_factory=FlrBounds)
    single_gains: tuple[float, float] = SINGLE_PD_GAINS
    loop1: RuleBase | None = field(init=False, compare=False, repr=False)
    loop2: RuleBase | None = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        k, b = self.kind, self.flr_bounds
        fuzzy1 = k in (ControllerKind.FUZZY_CASCADED, ControllerKind.FUZZY1_PD2)
        fuzzy2 = k in (ControllerKind.FUZZY_CASCADED, ControllerKind.PD1_FUZZY2)
        object.__setattr__(self, "loop1", RuleBase(b.dkp1, b.dkd1) if fuzzy1 else None)
        object.__setattr__(self, "loop2", RuleBase(b.dkp2, b.dkd2) if fuzzy2 else None)

    def torque(self, params: PlantParams, s: State,
               ref: tuple[float, float, float]) -> tuple[float, Diagnostics]:
        """Torque and diagnostics at state s for reference (x1d, x1d_dot, _).

        SINGLE_PD is the reduced-order baseline: one PD on the link error
        with single_gains, no reference shaping and no compensation.  Every
        other kind is the cascade u = u_pd2 + u_pd1*I_l + mgl*cos(x1); a
        loop with a regulator adds its (dkp, dkd) output to its PD gains,
        loop 1 feeding it (e1, e2) and loop 2 (e3, e4).
        """
        x1d, x1d_dot, _ = ref
        e1 = x1d - s.x1
        e2 = x1d_dot - s.x2
        if self.kind is ControllerKind.SINGLE_PD:
            kp, kd = self.single_gains
            u = pd(kp, kd, e1, e2)
            nan = float("nan")
            return u, Diagnostics(u, nan, e1, e2, nan, nan, kp, kd, nan, nan)
        kp1, kd1 = self.gains.kp1, self.gains.kd1
        if self.loop1 is not None:
            dkp1, dkd1 = infer(self.loop1, e1, e2)
            kp1, kd1 = kp1 + dkp1, kd1 + dkd1
        u_pd1 = pd(kp1, kd1, e1, e2)
        x3d = motor_reference(params, s.x1, u_pd1)
        e3 = x3d - s.x3
        e4 = 0.0 - s.x4  # x3d rate fixed to zero
        kp2, kd2 = self.gains.kp2, self.gains.kd2
        if self.loop2 is not None:
            dkp2, dkd2 = infer(self.loop2, e3, e4)
            kp2, kd2 = kp2 + dkp2, kd2 + dkd2
        u_pd2 = pd(kp2, kd2, e3, e4)
        u = u_pd2 + u_pd1 * params.I_l + params.mgl * math.cos(s.x1)
        return u, Diagnostics(u_pd1, x3d, e1, e2, e3, e4, kp1, kd1, kp2, kd2)


TRAJ_COLUMNS = ("t", "x1", "x2", "x3", "x4", "x1d", "x3d", "u",
                "e1", "e2", "e3", "e4",
                "kp1_eff", "kd1_eff", "kp2_eff", "kd2_eff")
_COLUMN_INDEX = {name: i for i, name in enumerate(TRAJ_COLUMNS)}


@dataclass(eq=False)
class Trajectory:
    """Control-rate record of a simulation run.

    ``data`` is a float64 array with one column per ``TRAJ_COLUMNS`` entry;
    each column is also an attribute (``traj.e1`` is the ``e1`` column).  Row i
    is taken at t = i*control_dt just before the i-th torque is applied;
    ``final_state`` is the plant state at the end of the horizon.  A
    zero-length horizon yields a single row of the initial conditions with
    the torque that would have been applied.
    """

    data: np.ndarray
    final_state: State

    def __getattr__(self, name: str) -> np.ndarray:
        i = _COLUMN_INDEX.get(name)
        if i is None:
            raise AttributeError(name)
        return self.data[:, i]

    def __len__(self) -> int:
        return len(self.data)


def simulate(params: PlantParams, sim: SimConfig, controller: Controller,
             ref: Reference, dist: DisturbanceModel) -> Trajectory:
    """Run the closed loop with zero-order-hold torque, starting from rest.

    The torque is recomputed every control_dt and held over the
    control_dt/sim_dt Euler sub-steps.  Disturbances are indexed by sim step
    (or by control step under the per-control-step hold) and read from the
    ``disturbance_draws`` memo.  The sub-steps run on plain floats and are
    bit-identical to ``euler_step``: each coefficient of ``derivatives`` is
    computed once, with the association used there.  Raises
    DivergedTrajectory before integrating a non-finite torque, and as soon
    as any state component is NaN or its magnitude exceeds 1e6.
    """
    p = params
    a_grav = -p.mgl / p.I_l
    k_l = p.k / p.I_l
    k_m = p.k / p.I_m
    mu_m = p.mu / p.I_m
    dt = sim.sim_dt
    sub = sim.substeps
    lim = DIVERGENCE_LIMIT
    draws = disturbance_draws(dist, 0) if dist.kind != "off" else None
    per_control = dist.hold == "per-control-step"
    d1 = d2 = 0.0
    x1 = x2 = x3 = x4 = 0.0
    rows: list[tuple] = []
    sim_step = 0
    for n in range(sim.n_control_steps):
        s = State(x1, x2, x3, x4)
        t = n * sim.control_dt
        r = ref(t)
        u, diag = controller.torque(params, s, r)
        if not math.isfinite(u):
            raise DivergedTrajectory(sim_step, t, s, f"non-finite torque {u!r}")
        rows.append((t, x1, x2, x3, x4, r[0], diag.x3d, u, *diag[2:]))
        u_m = u / p.I_m
        for _ in range(sub):
            if draws is not None:
                i = n if per_control else sim_step
                if i >= len(draws):
                    draws = disturbance_draws(dist, i + 1)
                d1, d2 = draws[i]
            # derivatives(), term by term; then s + dt * f, no fused multiply-add
            q = x1 - x3
            dx2 = a_grav * math.cos(x1) - k_l * q + d1
            dx4 = k_m * q - mu_m * x4 + u_m + d2
            y1 = x1 + dt * x2
            y2 = x2 + dt * dx2
            y3 = x3 + dt * x4
            y4 = x4 + dt * dx4
            sim_step += 1
            if not (abs(y1) <= lim and abs(y2) <= lim
                    and abs(y3) <= lim and abs(y4) <= lim):
                t = sim_step * dt
                if all(map(math.isfinite, (y1, y2, y3, y4))):
                    raise DivergedTrajectory(sim_step, t, State(y1, y2, y3, y4))
                raise DivergedTrajectory(sim_step, t, State(x1, x2, x3, x4),
                                         "non-finite state")
            x1, x2, x3, x4 = y1, y2, y3, y4
    s = State(x1, x2, x3, x4)
    if not rows:
        r = ref(0.0)
        u, diag = controller.torque(params, s, r)
        rows.append((0.0, x1, x2, x3, x4, r[0], diag.x3d, u, *diag[2:]))
    return Trajectory(np.array(rows, dtype=float), final_state=s)
