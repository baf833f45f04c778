"""Linear stability analysis of the cascaded PD loop.

All results here live in the error coordinates (e1..e4) of the cascade
design model, in which the motor-reference rate is taken as zero.  The
resulting error Jacobian is block upper-triangular: its spectrum is the
union of the two 2x2 loop blocks and is independent of the spring-coupling
entry k/I_l.  The exact linearization of the simulated closed loop differs
from this model because the motor reference x3d does move with the state;
the tests' ``oracles.state_matrix`` writes out that exact linearization for
comparison (see DISCREPANCIES.md).
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .control import GainSet
from .fuzzy import FlrBounds
from .plant import PlantParams
from .record import Record


class StabilityBounds(Record):
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


class WorstCaseGains(NamedTuple):
    """Each PD gain plus its fuzzy regulator's lower bound: the smallest
    gains the fuzzy cascade can apply.  The plain sums, unclamped, so a
    gain may be negative, which GainSet rejects."""

    kp1: float
    kd1: float
    kp2: float
    kd2: float


def _require_finite(values, what: str, *inputs) -> None:
    """Finite gains and plant values can still overflow the sums and
    products formed from them; name the inputs instead of handing inf to
    the solvers."""
    if not all(map(math.isfinite, values)):
        raise ValueError(f"{what} overflows for {' and '.join(map(str, inputs))}")


def worst_case_gains(base: GainSet, flr: FlrBounds) -> WorstCaseGains:
    wc = WorstCaseGains(base.kp1 + flr.dkp1[0], base.kd1 + flr.dkd1[0],
                        base.kp2 + flr.dkp2[0], base.kd2 + flr.dkd2[0])
    _require_finite(wc, "a gain plus its regulator lower bound", base)
    return wc


def error_jacobian(params: PlantParams,
                   gains: GainSet | WorstCaseGains) -> np.ndarray:
    """4x4 Jacobian of the error dynamics with zero disturbance partials."""
    p, g = params, gains
    A = np.array([
        [0.0, 1.0, 0.0, 0.0],
        [-g.kp1, -g.kd1, p.k / p.I_l, 0.0],
        [0.0, 0.0, 0.0, 1.0],
        [0.0, 0.0, -(p.k + g.kp2) / p.I_m, -(p.mu + g.kd2) / p.I_m],
    ])
    _require_finite(A.flat, "the error Jacobian", g, p)
    return A


def _sorted(z: np.ndarray) -> np.ndarray:
    """z sorted by (real part, imaginary part)."""
    return z[np.lexsort((z.imag, z.real))]


def eigenvalues(A: np.ndarray) -> np.ndarray:
    """Eigenvalues of a real matrix, sorted by (real part, imaginary part)."""
    return _sorted(np.linalg.eigvals(np.asarray(A, dtype=float)))


def error_eigenvalues(params: PlantParams,
                      gains: GainSet | WorstCaseGains) -> np.ndarray:
    """Sorted eigenvalues of error_jacobian(params, gains), checked against
    its determinant kp1*(k + kp2)/I_m: the Jacobian is block
    upper-triangular, so that is the product of its eigenvalues.  An
    ill-scaled plant (I_m = 1e-300, say) loses the motor block's slow
    eigenvalue to rounding beside a huge one, and a product more than 1e-3
    off, relatively, raises ValueError naming the plant and the gains.  A
    zero determinant passes only with an exactly zero eigenvalue."""
    z = eigenvalues(error_jacobian(params, gains))
    det = gains.kp1 * ((params.k + gains.kp2) / params.I_m)
    _require_finite((det,), "the error Jacobian's determinant", gains, params)
    with np.errstate(over="ignore", invalid="ignore"):
        prod = np.prod(z)
    if not abs(prod - det) <= 1e-3 * abs(det):
        raise ValueError(f"the error Jacobian is too ill-scaled to resolve its "
                         f"eigenvalues for {gains} and {params}")
    return z


def polynomial_roots(coeffs) -> np.ndarray:
    """Roots, sorted by (real, imag), of coefficients highest power first."""
    return _sorted(np.roots(coeffs))


def closed_loop_charpoly(params: PlantParams, gains: GainSet) -> tuple:
    """The five coefficients, highest power first, of the monic
    characteristic polynomial of the closed error loop (g treated as 0).

    Expanded in closed form as the product of the two loop quadratics
    (s^2 + kd1*s + kp1) * (s^2 + ((mu+kd2)/I_m)*s + (k+kp2)/I_m);
    by block triangularity this equals det(sI - error_jacobian) with zero
    disturbance partials.
    """
    p, g = params, gains
    a1, a0 = g.kd1, g.kp1
    b1 = (p.mu + g.kd2) / p.I_m
    b0 = (p.k + g.kp2) / p.I_m
    coeffs = (1.0, a1 + b1, a0 + b0 + a1 * b1, a1 * b0 + a0 * b1, a0 * b0)
    _require_finite(coeffs, "the characteristic polynomial", g, p)
    return coeffs


def _violated(g: GainSet | WorstCaseGains, p: PlantParams,
              L: StabilityBounds, names: tuple[str, ...]) -> tuple[str, ...]:
    """The names of the four strict inequalities on g that fail."""
    oks = (g.kd1 > L.L12, g.kp1 > L.L11,
           (p.mu + g.kd2) / p.I_m > L.L22, (p.k + g.kp2) / p.I_m > L.L21)
    return tuple(name for name, ok in zip(names, oks) if not ok)


def check_gain_conditions(gains: GainSet, params: PlantParams,
                          bounds: StabilityBounds) -> tuple[str, ...]:
    """The violated ones of the strict gain inequalities that guarantee
    local asymptotic stability: kd1 > L12, kp1 > L11, (mu+kd2)/I_m > L22,
    (k+kp2)/I_m > L21.  Empty means stable."""
    return _violated(gains, params, bounds,
                     ("kd1 > L12", "kp1 > L11", "(mu+kd2)/I_m > L22",
                      "(k+kp2)/I_m > L21"))


def check_flr_conditions(base: GainSet, flr: FlrBounds, params: PlantParams,
                         bounds: StabilityBounds) -> tuple[str, ...]:
    """The violated gain inequalities at worst_case_gains(base, flr), the
    worst admissible gain set.  Empty means stable."""
    return _violated(worst_case_gains(base, flr), params, bounds,
                     ("kd1 + dkd1_lo > L12", "kp1 + dkp1_lo > L11",
                      "(mu+kd2+dkd2_lo)/I_m > L22",
                      "(k+kp2+dkp2_lo)/I_m > L21"))
