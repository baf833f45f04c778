"""Cascaded PD control of the flexible-joint plant.

The loop structure: a virtual PD on the link error produces a desired link
acceleration; solving the link equation for the motor angle turns that into
a motor reference x3d; a second PD tracks x3d, and the torque compensates
the spring-coupling and gravity terms.  Optional fuzzy regulators shift the
PD gains online.  The motor-reference rate is taken as zero (its full
chain-rule expression is deliberately not implemented), so the inner-loop
velocity error is simply -x4.  The law is written once, in the control
step of ``simulate``, which runs it on plain floats; ``Controller`` only
holds the kind, the gains and the regulators it reads.
"""

from __future__ import annotations

import enum
import math
from array import array

from .fuzzy import FlrBounds, RuleBase, infer
from .plant import (DisturbanceModel, PlantParams, SimConfig, State,
                    disturbance_draws)
from .record import Record

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


class GainSet(Record):
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


class Reference(Record):
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


class Controller(Record):
    """Value object bundling a controller kind with its parameters.

    A kind given by its string value is stored as its ``ControllerKind``;
    an unknown one, gains that are not a GainSet, flr_bounds that are not
    a FlrBounds, or single_gains that are not two finite values >= 0,
    raise ValueError.  loop1 and loop2 hold the regulators of the kind's
    fuzzy loops, built once here; a plain PD loop holds None.
    """

    kind: ControllerKind = ControllerKind.FUZZY_CASCADED
    gains: GainSet = GainSet()
    flr_bounds: FlrBounds = FlrBounds()
    single_gains: tuple[float, float] = SINGLE_PD_GAINS

    def __post_init__(self):
        # a string kind becomes its member, which simulate tests by identity
        k = ControllerKind(self.kind)
        object.__setattr__(self, "kind", k)
        if not isinstance(self.gains, GainSet):
            raise ValueError(f"gains must be a GainSet, got {self.gains!r}")
        if not isinstance(self.flr_bounds, FlrBounds):
            raise ValueError(f"flr_bounds must be a FlrBounds, got {self.flr_bounds!r}")
        gains = self.single_gains
        if len(gains) != 2 or not all(math.isfinite(v) and v >= 0 for v in gains):
            raise ValueError(f"single_gains must be two finite values >= 0, "
                             f"got {gains!r}")
        b = self.flr_bounds
        fuzzy1 = k in (ControllerKind.FUZZY_CASCADED, ControllerKind.FUZZY1_PD2)
        fuzzy2 = k in (ControllerKind.FUZZY_CASCADED, ControllerKind.PD1_FUZZY2)
        object.__setattr__(self, "loop1", RuleBase(b.dkp1, b.dkd1) if fuzzy1 else None)
        object.__setattr__(self, "loop2", RuleBase(b.dkp2, b.dkd2) if fuzzy2 else None)


TRAJ_COLUMNS = ("t", "x1", "x2", "x3", "x4", "x1d", "x3d", "u",
                "e1", "e2", "e3", "e4",
                "kp1_eff", "kd1_eff", "kp2_eff", "kd2_eff")
_COLUMN_INDEX = {name: i for i, name in enumerate(TRAJ_COLUMNS)}
_WIDTH = len(TRAJ_COLUMNS)


class Trajectory:
    """Control-rate record of a simulation run.

    ``data`` is a flat float64 ``array`` of rows that are
    ``len(TRAJ_COLUMNS)`` wide, one entry per ``TRAJ_COLUMNS`` name; each
    column is also an attribute, a strided copy (``traj.e1`` is the ``e1``
    column).  Row i is taken at t = i*control_dt just before the i-th
    torque is applied; ``final_state`` is the plant state at the end of the
    horizon.  A zero-length horizon yields a single row of the initial
    conditions with the torque that would have been applied.
    """

    def __init__(self, data: array, final_state: State):
        self.data = data
        self.final_state = final_state

    def __getattr__(self, name: str) -> array:
        i = _COLUMN_INDEX.get(name)
        if i is None:
            raise AttributeError(name)
        return self.data[i::_WIDTH]

    def __len__(self) -> int:
        return len(self.data) // _WIDTH


def simulate(params: PlantParams, sim: SimConfig, controller: Controller,
             ref: Reference, dist: DisturbanceModel) -> Trajectory:
    """Run the closed loop with zero-order-hold torque, starting from rest.

    The torque is recomputed every control_dt and held over the
    control_dt/sim_dt Euler sub-steps.  The loop runs on plain floats, from
    the control law to one flat list of rows.  The controller's kind,
    gains and regulators and the reference's kind are read once, before
    the loop; each control step forms x1d and x1d_dot at t = n*control_dt
    with the operations of ``Reference.__call__``, and the law is written
    in the control step itself: e1 = x1d - x1 and e2 = x1d_dot -
    x2; SINGLE_PD, the reduced-order baseline, applies u = kp*e1 + kd*e2
    with single_gains and records NaN for x3d, e3, e4, kp2 and kd2.  Every
    other kind runs the cascade u_pd1 = kp1*e1 + kd1*e2, x3d =
    u_pd1*I_l/k + x1 + mgl*cos(x1)/k, e3 = x3d - x3, e4 = -x4 and u =
    kp2*e3 + kd2*e4 + u_pd1*I_l + mgl*cos(x1), with u_pd1*I_l and
    mgl*cos(x1) each formed once; a loop with a regulator first adds its
    ``infer`` output (dkp, dkd) to its PD gains, loop 1 on (e1, e2) and
    loop 2 on (e3, e4).  Disturbances are indexed by sim step (or by
    control step under the per-control-step hold) and read one control
    period at a time from the run's whole table, fetched from the
    ``disturbance_draws`` memo once, before the loop.  Each sub-step is one
    forward-Euler step of the equations in ``plant``'s docstring, term by
    term, with each coefficient computed once, in straight-line float code:
    a counter numbers the sub-steps, each velocity's derivative is written
    into its update, its operations in the equation's order, and the new
    state is committed one name at a time and tested with one comparison
    per bound, so a sub-step builds no tuple.  Raises DivergedTrajectory
    before integrating a non-finite torque, and as soon as any state
    component is NaN or its magnitude exceeds 1e6.
    """
    I_l = params.I_l
    I_m = params.I_m
    k = params.k
    mgl = params.mgl
    a_grav = -mgl / I_l
    k_l = k / I_l
    k_m = k / I_m
    mu_m = params.mu / I_m
    dt = sim.sim_dt
    sub = sim.substeps
    control_dt = sim.control_dt
    lim = DIVERGENCE_LIMIT
    nlim = -lim
    cos = math.cos
    sin = math.sin
    g = controller.gains
    kp1 = kp1_pd = g.kp1
    kd1 = kd1_pd = g.kd1
    kp2 = kp2_pd = g.kp2
    kd2 = kd2_pd = g.kd2
    loop1 = controller.loop1
    loop2 = controller.loop2
    single = controller.kind is ControllerKind.SINGLE_PD
    if single:   # its gains as applied are fixed, and it has no loop 2
        kp1, kd1 = controller.single_gains
        x3d = e3 = e4 = kp2 = kd2 = math.nan
    off = dist.kind == "off"
    per_control = dist.hold == "per-control-step"
    steps = sim.n_control_steps
    draws = ((0.0, 0.0),) * sub if off else disturbance_draws(
        dist.seed, dist.amplitude, steps if per_control else steps * sub)
    sine = ref.kind == "sine"
    square = ref.kind == "square"
    x1d = ref.value   # a constant's; sine and square form theirs per step
    x1d_dot = 0.0
    x1 = x2 = x3 = x4 = 0.0
    c = cos(x1)
    rows: list[float] = []
    for n in range(steps or 1):
        t = n * control_dt
        if sine:
            x1d = sin(t)
            x1d_dot = cos(t)
        elif square:
            x1d = 1.0 if t < 10.0 else 0.0
        e1 = x1d - x1
        e2 = x1d_dot - x2
        if single:
            u = kp1 * e1 + kd1 * e2
        else:
            if loop1 is not None:
                dkp1, dkd1 = infer(loop1, e1, e2)
                kp1 = kp1_pd + dkp1
                kd1 = kd1_pd + dkd1
            u_pd1 = kp1 * e1 + kd1 * e2
            p = u_pd1 * I_l
            mc = mgl * c
            x3d = p / k + x1 + mc / k
            e3 = x3d - x3
            e4 = 0.0 - x4  # x3d rate fixed to zero
            if loop2 is not None:
                dkp2, dkd2 = infer(loop2, e3, e4)
                kp2 = kp2_pd + dkp2
                kd2 = kd2_pd + dkd2
            u = kp2 * e3 + kd2 * e4 + p + mc
        rows += (t, x1, x2, x3, x4, x1d, x3d, u, e1, e2, e3, e4, kp1, kd1, kp2, kd2)
        if n == steps:   # a zero horizon: the row at rest, nothing integrated
            break
        base = n * sub
        if not math.isfinite(u):
            raise DivergedTrajectory(base, t, State(x1, x2, x3, x4),
                                     f"non-finite torque {u!r}")
        ds = (draws if off else (draws[n],) * sub if per_control
              else draws[base:base + sub])
        u_m = u / I_m
        j = base
        for d1, d2 in ds:
            j += 1
            # the equations term by term; then s + dt * f, no fused multiply-add
            q = x1 - x3
            y1 = x1 + dt * x2
            y2 = x2 + dt * (a_grav * c - k_l * q + d1)
            y3 = x3 + dt * x4
            y4 = x4 + dt * (k_m * q - mu_m * x4 + u_m + d2)
            # each comparison is false for NaN, as abs(y) <= lim is
            if not (y1 <= lim and nlim <= y1 and y2 <= lim and nlim <= y2
                    and y3 <= lim and nlim <= y3 and y4 <= lim and nlim <= y4):
                if all(map(math.isfinite, (y1, y2, y3, y4))):
                    raise DivergedTrajectory(j, j * dt, State(y1, y2, y3, y4))
                raise DivergedTrajectory(j, j * dt, State(x1, x2, x3, x4),
                                         "non-finite state")
            x1 = y1
            x2 = y2
            x3 = y3
            x4 = y4
            c = cos(x1)
    return Trajectory(array("d", rows), final_state=State(x1, x2, x3, x4))
