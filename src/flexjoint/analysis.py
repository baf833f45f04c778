"""Linear stability analysis of the cascaded PD loop.

All results here live in the error coordinates (e1..e4) of the cascade
design model, in which the motor-reference rate is taken as zero.  The
resulting error Jacobian is block upper-triangular: its spectrum is the
union of the two 2x2 loop blocks and is independent of the spring-coupling
entry k/I_l.  The exact linearization of the simulated closed loop differs
from this model because the motor reference x3d does move with the state;
``state_matrix`` exposes that exact linearization for comparison (see
DISCREPANCIES.md).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .control import GainSet
from .fuzzy import FlrBounds
from .plant import PlantParams


@dataclass(frozen=True)
class StabilityBounds:
    """Lipschitz bounds on the disturbance partials: |dd1/de1| <= L11,
    |dd1/de2| <= L12, |dd2/de3| <= L21, |dd2/de4| <= L22.  A
    state-independent random disturbance has all four equal to zero."""

    L11: float = 0.0
    L12: float = 0.0
    L21: float = 0.0
    L22: float = 0.0

    def __post_init__(self):
        for name in ("L11", "L12", "L21", "L22"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v >= 0):
                raise ValueError(f"{name} must be finite and >= 0, got {v}")


@dataclass(frozen=True)
class Verdict:
    """Outcome of the gain-inequality stability conditions."""

    stable: bool
    violated: tuple[str, ...] = ()


class WorstCaseGains(NamedTuple):
    """Each PD gain plus its fuzzy regulator's lower bound: the smallest
    gains the fuzzy cascade can apply.  The plain sums, unclamped, so a
    gain may be negative, which GainSet rejects."""

    kp1: float
    kd1: float
    kp2: float
    kd2: float


def worst_case_gains(base: GainSet, flr: FlrBounds) -> WorstCaseGains:
    return WorstCaseGains(base.kp1 + flr.dkp1[0], base.kd1 + flr.dkd1[0],
                          base.kp2 + flr.dkp2[0], base.kd2 + flr.dkd2[0])


def error_jacobian(params: PlantParams,
                   gains: GainSet | WorstCaseGains) -> np.ndarray:
    """4x4 Jacobian of the error dynamics with zero disturbance partials."""
    p, g = params, gains
    return np.array([
        [0.0, 1.0, 0.0, 0.0],
        [-g.kp1, -g.kd1, p.k / p.I_l, 0.0],
        [0.0, 0.0, 0.0, 1.0],
        [0.0, 0.0, -(p.k + g.kp2) / p.I_m, -(p.mu + g.kd2) / p.I_m],
    ])


def eigenvalues(A: np.ndarray) -> np.ndarray:
    """Eigenvalues of a real matrix, sorted by (real part, imaginary part)."""
    ev = np.linalg.eigvals(np.asarray(A, dtype=float))
    return ev[np.lexsort((ev.imag, ev.real))]


def block_eigenvalues(A: np.ndarray) -> np.ndarray:
    """Spectrum of the error Jacobian via the closed-form quadratics of its
    two 2x2 companion blocks; cross-check for the dense solver."""
    A = np.asarray(A, dtype=float)
    ev = []
    for (i, j) in ((0, 1), (2, 3)):
        # block [[0, 1], [c, b]] -> lambda^2 - b*lambda - c = 0
        b = A[j, j]
        c = A[j, i]
        disc = complex(b * b + 4.0 * c) ** 0.5
        ev.extend([(b - disc) / 2.0, (b + disc) / 2.0])
    ev = np.array(ev)
    return ev[np.lexsort((ev.imag, ev.real))]


@dataclass(frozen=True)
class CharPoly:
    """Monic degree-4 real polynomial, highest power first."""

    coeffs: tuple[float, float, float, float, float]

    def __post_init__(self):
        if len(self.coeffs) != 5 or self.coeffs[0] != 1.0:
            raise ValueError("need 5 coefficients with leading coefficient 1")

    def roots(self) -> np.ndarray:
        r = np.roots(self.coeffs)
        return r[np.lexsort((r.imag, r.real))]


def closed_loop_charpoly(params: PlantParams, gains: GainSet) -> CharPoly:
    """Characteristic polynomial of the closed error loop (g treated as 0).

    Expanded in closed form as the product of the two loop quadratics
    (s^2 + kd1*s + kp1) * (s^2 + ((mu+kd2)/I_m)*s + (k+kp2)/I_m);
    by block triangularity this equals det(sI - error_jacobian) with zero
    disturbance partials.
    """
    p, g = params, gains
    a1, a0 = g.kd1, g.kp1
    b1 = (p.mu + g.kd2) / p.I_m
    b0 = (p.k + g.kp2) / p.I_m
    return CharPoly((1.0,
                     a1 + b1,
                     a0 + b0 + a1 * b1,
                     a1 * b0 + a0 * b1,
                     a0 * b0))


def state_matrix(params: PlantParams, gains: GainSet) -> np.ndarray:
    """Exact g = 0 linearization of the closed loop over (x1, x2, x3, x4)
    with the cascaded control law and a constant reference.

    Unlike the error Jacobian, this keeps the dependence of the motor
    reference on the state, so its spectrum differs from the design model's
    (see DISCREPANCIES.md).
    """
    p, g = params, gains
    A = np.zeros((4, 4))
    A[0, 1] = 1.0
    A[1, 0] = -p.k / p.I_l
    A[1, 2] = p.k / p.I_l
    A[2, 3] = 1.0
    # state-dependent parts of the control chain
    u_pd1 = np.array([-g.kp1, -g.kd1, 0.0, 0.0])
    x3d = p.I_l / p.k * u_pd1 + np.array([1.0, 0.0, 0.0, 0.0])
    u_pd2 = g.kp2 * (x3d - np.array([0.0, 0.0, 1.0, 0.0])) \
        + g.kd2 * np.array([0.0, 0.0, 0.0, -1.0])
    u = u_pd2 + p.I_l * u_pd1
    A[3] = np.array([p.k / p.I_m, 0.0, -p.k / p.I_m, -p.mu / p.I_m]) + u / p.I_m
    return A


def _verdict(g: GainSet | WorstCaseGains, p: PlantParams,
             L: StabilityBounds, names: tuple[str, ...]) -> Verdict:
    """The four strict inequalities on g, reported under names."""
    oks = (g.kd1 > L.L12, g.kp1 > L.L11,
           (p.mu + g.kd2) / p.I_m > L.L22, (p.k + g.kp2) / p.I_m > L.L21)
    violated = tuple(name for name, ok in zip(names, oks) if not ok)
    return Verdict(stable=not violated, violated=violated)


def check_gain_conditions(gains: GainSet, params: PlantParams,
                   bounds: StabilityBounds) -> Verdict:
    """Strict gain inequalities guaranteeing local asymptotic stability:
    kd1 > L12, kp1 > L11, (mu+kd2)/I_m > L22, (k+kp2)/I_m > L21."""
    return _verdict(gains, params, bounds,
                    ("kd1 > L12", "kp1 > L11", "(mu+kd2)/I_m > L22",
                     "(k+kp2)/I_m > L21"))


def check_flr_conditions(base: GainSet, flr: FlrBounds, params: PlantParams,
                         bounds: StabilityBounds) -> Verdict:
    """The gain inequalities at worst_case_gains(base, flr), the worst
    admissible gain set."""
    return _verdict(worst_case_gains(base, flr), params, bounds,
                    ("kd1 + dkd1_lo > L12", "kp1 + dkp1_lo > L11",
                     "(mu+kd2+dkd2_lo)/I_m > L22",
                     "(k+kp2+dkp2_lo)/I_m > L21"))
