"""Type-1 Sugeno fuzzy inference for PD gain regulation.

Each regulator maps a (error, error-rate) pair to a pair of gain increments
(dkp, dkd) through a 5x5 rule base over the linguistic terms
NB, NS, ZE, PS, PB.  Antecedents are triangular memberships with evenly
spaced peaks; consequents are zero-order singletons evenly spaced over the
output interval (NB -> lower bound, ZE -> midpoint, PB -> upper bound).
The t-norm is the product, and firing strengths are normalized, so the
output is a convex combination of the singletons and therefore always lies
inside the configured bounds.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field

import numpy as np

TERMS = ("NB", "NS", "ZE", "PS", "PB")

# Rule consequents, row = error term, column = error-rate term (NB..PB).
KP_RULES = (
    ("NB", "NB", "NS", "NS", "ZE"),
    ("NB", "NS", "NS", "ZE", "PS"),
    ("NS", "NS", "ZE", "PS", "PS"),
    ("NS", "ZE", "PS", "PS", "PB"),
    ("ZE", "PS", "PS", "PB", "PB"),
)
KD_RULES = (
    ("PB", "PB", "PS", "PS", "ZE"),
    ("PB", "PS", "PS", "ZE", "NS"),
    ("PS", "PS", "ZE", "NS", "NS"),
    ("PS", "ZE", "NS", "NS", "NB"),
    ("ZE", "NS", "NS", "NB", "NB"),
)
# The same tables as indices into the five singletons NB..PB.
_KP_INDEX = np.array([[TERMS.index(t) for t in row] for row in KP_RULES])
_KD_INDEX = np.array([[TERMS.index(t) for t in row] for row in KD_RULES])


class FuzzyConfigError(ValueError):
    """Malformed scale or rule base."""


@dataclass(frozen=True)
class LinguisticScale:
    """Five-term partition of [lo, hi] with evenly spaced peaks.

    Interior terms are full triangles spanning the two neighbouring peaks;
    NB and PB are half-triangles peaking at the domain edge.  Adjacent
    memberships sum to 1 everywhere in the domain (partition of unity),
    provided inputs are clamped to [lo, hi] first.
    """

    lo: float
    hi: float
    peaks: tuple[float, ...] = field(init=False)

    def __post_init__(self):
        peaks = np.linspace(self.lo, self.hi, 5)
        if not (np.diff(peaks) > 0.0).all():
            raise FuzzyConfigError(f"need distinct peaks in [{self.lo}, {self.hi}]")
        object.__setattr__(self, "peaks", tuple(peaks.tolist()))

    def clamp(self, x: float) -> float:
        return min(max(x, self.lo), self.hi)

    def grades(self, x: float) -> np.ndarray:
        """Memberships of x, clamped to [lo, hi], in the five terms: 1.0 at
        a peak, else (b - x)/(b - a) and (x - a)/(b - a) on the two terms
        whose peaks a < x < b enclose it, and 0.0 on the rest.  A NaN x
        gives five NaNs."""
        x = self.clamp(x)
        if x != x:
            return np.full(5, np.nan)
        g = np.zeros(5)
        i = bisect_right(self.peaks, x) - 1  # the last peak a <= x
        a = self.peaks[i]
        if x == a:
            g[i] = 1.0
        else:
            b = self.peaks[i + 1]
            g[i] = (b - x) / (b - a)
            g[i + 1] = (x - a) / (b - a)
        return g


# Input domains: angular error in rad, angular-velocity error in rad/s.
ERROR_SCALE = LinguisticScale(-np.pi, np.pi)
RATE_SCALE = LinguisticScale(-5.0, 5.0)


@dataclass(frozen=True)
class RuleBase:
    """Output bounds of one regulator (dkp and dkd) over KP_RULES/KD_RULES.

    kp_consequents[i, j] is the singleton that rule (e term i, de term j)
    outputs for dkp; kd_consequents likewise for dkd.
    """

    kp_bounds: tuple[float, float]
    kd_bounds: tuple[float, float]
    kp_consequents: np.ndarray = field(init=False, compare=False, repr=False)
    kd_consequents: np.ndarray = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        for lo, hi in (self.kp_bounds, self.kd_bounds):
            if lo > hi:
                raise FuzzyConfigError(f"bounds must satisfy lower <= upper, got ({lo}, {hi})")
        for name, idx, (lo, hi) in (("kp_consequents", _KP_INDEX, self.kp_bounds),
                                    ("kd_consequents", _KD_INDEX, self.kd_bounds)):
            object.__setattr__(self, name, np.linspace(lo, hi, 5)[idx])


@dataclass(frozen=True)
class FlrBounds:
    """Output intervals of both regulators, (lower, upper) per gain."""

    dkp1: tuple[float, float] = (0.0, 0.0)
    dkd1: tuple[float, float] = (0.0, 0.0)
    dkp2: tuple[float, float] = (0.0, 0.0)
    dkd2: tuple[float, float] = (0.0, 0.0)

    def __post_init__(self):
        for name in ("dkp1", "dkd1", "dkp2", "dkd2"):
            lo, hi = getattr(self, name)
            if lo > hi:
                raise FuzzyConfigError(f"{name} bounds must be ordered, got ({lo}, {hi})")

    @staticmethod
    def ordered(dkp1, dkd1, dkp2, dkd2) -> "FlrBounds":
        """Build bounds from possibly swapped (a, b) pairs by taking
        (min, max) of each pair."""
        fix = lambda p: (min(p), max(p))
        return FlrBounds(fix(dkp1), fix(dkd1), fix(dkp2), fix(dkd2))


def firing_strengths(e: float, de: float) -> np.ndarray:
    """Normalized rule activations as a 5x5 array (rows: ERROR_SCALE terms
    of e, columns: RATE_SCALE terms of de); non-negative and summing to 1,
    or all NaN when e or de is NaN.  Some term of each scale grades at
    least 1/2 at any clamped input, so the total is never 0."""
    w = np.outer(ERROR_SCALE.grades(e), RATE_SCALE.grades(de))
    return w / w.sum()


def infer(rb: RuleBase, e: float, de: float) -> tuple[float, float]:
    """Sugeno output (dkp, dkd): firing-strength-weighted singleton average."""
    w = firing_strengths(e, de)
    return (float(np.sum(w * rb.kp_consequents)),
            float(np.sum(w * rb.kd_consequents)))
