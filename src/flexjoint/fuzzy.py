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

import math
from bisect import bisect_right

from .record import Record

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
_KP_INDEX = tuple(tuple(TERMS.index(t) for t in row) for row in KP_RULES)
_KD_INDEX = tuple(tuple(TERMS.index(t) for t in row) for row in KD_RULES)


def _linspace5(lo: float, hi: float) -> list[float]:
    """np.linspace(lo, hi, 5) as a list of floats, bit for bit: numpy's
    i * step + lo with step = (hi - lo) / 4, or (i / 4) * (hi - lo) + lo
    when that step is zero (a quarter width that underflows), and the last
    point hi itself."""
    lo, hi = float(lo), float(hi)
    delta = hi - lo
    step = delta / 4
    if step == 0:
        return [i / 4 * delta + lo for i in range(4)] + [hi]
    return [i * step + lo for i in range(4)] + [hi]


class LinguisticScale(Record):
    """Five-term partition of [lo, hi] with evenly spaced peaks.

    Interior terms are full triangles spanning the two neighbouring peaks;
    NB and PB are half-triangles peaking at the domain edge.  Adjacent
    memberships sum to 1 everywhere in the domain (partition of unity),
    provided inputs are clamped to [lo, hi] first.  ``peaks`` holds the
    five peaks as a tuple, built once here.
    """

    lo: float
    hi: float

    def __post_init__(self):
        peaks = _linspace5(self.lo, self.hi)
        if not all(b - a > 0.0 for a, b in zip(peaks, peaks[1:])):
            raise ValueError(f"need distinct peaks in [{self.lo}, {self.hi}]")
        object.__setattr__(self, "peaks", tuple(peaks))


# Input domains: angular error in rad, angular-velocity error in rad/s.
ERROR_SCALE = LinguisticScale(-math.pi, math.pi)
RATE_SCALE = LinguisticScale(-5.0, 5.0)


def _check_bounds(name: str, lo: float, hi: float) -> None:
    if not (lo <= hi and math.isfinite(hi - lo)):
        raise ValueError(f"{name} bounds ({lo}, {hi}) must be ordered and "
                         f"finite, and the width hi - lo must not overflow")


# np.sum over a contiguous 25-cell table adds cell p to running sum p % 8,
# then adds ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7)) + cell 24.
# The zero cells outside the 2x2 block (a, b / c, d) at origin 4i + j can
# change only the sign of a zero: the block is summed in the order that
# _ORDER[4i + j] codes, 0: (a + b) + (c + d), 1: ((a + b) + d) + c,
# 2: ((c + d) + a) + b, 3: ((a + b) + c) + d.
_ORDER = (0, 0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 0, 2, 0, 0, 3)


class RuleBase(Record):
    """Output bounds of one regulator (dkp and dkd) over KP_RULES/KD_RULES.

    The singleton that rule (e term i, de term j) outputs for dkp is
    np.linspace(*kp_bounds, 5)[_KP_INDEX[i][j]]; _kp holds that table's
    2x2 blocks at origins 4i + j as tuples of floats, _kd likewise for dkd.
    """

    kp_bounds: tuple[float, float]
    kd_bounds: tuple[float, float]

    def __post_init__(self):
        for name, idx, (lo, hi) in (("kp", _KP_INDEX, self.kp_bounds),
                                    ("kd", _KD_INDEX, self.kd_bounds)):
            _check_bounds(name, lo, hi)
            s = _linspace5(lo, hi)
            c = [[s[t] for t in row] for row in idx]
            object.__setattr__(self, f"_{name}", tuple(
                (c[i][j], c[i][j + 1], c[i + 1][j], c[i + 1][j + 1])
                for i in range(4) for j in range(4)))


class FlrBounds(Record):
    """Output intervals of both regulators, (lower, upper) per gain."""

    dkp1: tuple[float, float] = (0.0, 0.0)
    dkd1: tuple[float, float] = (0.0, 0.0)
    dkp2: tuple[float, float] = (0.0, 0.0)
    dkd2: tuple[float, float] = (0.0, 0.0)

    def __post_init__(self):
        for name in ("dkp1", "dkd1", "dkp2", "dkd2"):
            _check_bounds(name, *getattr(self, name))

    @staticmethod
    def ordered(dkp1, dkd1, dkp2, dkd2) -> "FlrBounds":
        """Build bounds from possibly swapped (a, b) pairs by taking
        (min, max) of each pair."""
        fix = lambda p: (min(p), max(p))
        return FlrBounds(fix(dkp1), fix(dkd1), fix(dkp2), fix(dkd2))


_E_LO, _E_HI, _E_PEAKS = ERROR_SCALE.lo, ERROR_SCALE.hi, ERROR_SCALE.peaks
_D_LO, _D_HI, _D_PEAKS = RATE_SCALE.lo, RATE_SCALE.hi, RATE_SCALE.peaks
# the width b - a of each cell between adjacent peaks, formed once
_E_WIDTHS = tuple(b - a for a, b in zip(_E_PEAKS, _E_PEAKS[1:]))
_D_WIDTHS = tuple(b - a for a, b in zip(_D_PEAKS, _D_PEAKS[1:]))


def infer(rb: RuleBase, e: float, de: float) -> tuple[float, float]:
    """Sugeno output (dkp, dkd): firing-strength-weighted singleton average,
    np.sum(w / w.sum() * consequents) for the outer product w of the grades,
    bit for bit: over the block that can fire, in np.sum's order, and 0.0
    for a zero sum, as np.sum starts from 0.0.

    Each input is clamped to its scale; with peaks a <= x < b (or
    x = b = hi) around it, terms i and i + 1 grade (b - x)/(b - a) and
    (x - a)/(b - a), or 1.0 and 0.0 at x = a, and the others 0; the width
    b - a comes from a table built once.  A NaN input grades NaN, and
    every sum over NaN grades is this NaN.  Each value is assigned to its
    own name: no tuple is built but the pair returned."""
    e = _E_LO if e < _E_LO else _E_HI if e > _E_HI else e
    de = _D_LO if de < _D_LO else _D_HI if de > _D_HI else de
    if e != e or de != de:
        return math.nan, math.nan
    i = bisect_right(_E_PEAKS, e, 0, 4) - 1
    a = _E_PEAKS[i]
    if e == a:
        e0, e1 = 1.0, 0.0
    else:
        w = _E_WIDTHS[i]
        e0 = (_E_PEAKS[i + 1] - e) / w
        e1 = (e - a) / w
    j = bisect_right(_D_PEAKS, de, 0, 4) - 1
    a = _D_PEAKS[j]
    if de == a:
        d0, d1 = 1.0, 0.0
    else:
        w = _D_WIDTHS[j]
        d0 = (_D_PEAKS[j + 1] - de) / w
        d1 = (de - a) / w
    o = 4 * i + j
    order = _ORDER[o]
    w00 = e0 * d0
    w01 = e0 * d1
    w10 = e1 * d0
    w11 = e1 * d1
    if order == 0:
        s = (w00 + w01) + (w10 + w11)
    elif order == 1:
        s = ((w00 + w01) + w11) + w10
    elif order == 2:
        s = ((w10 + w11) + w00) + w01
    else:
        s = ((w00 + w01) + w10) + w11
    w00 = w00 / s
    w01 = w01 / s
    w10 = w10 / s
    w11 = w11 / s
    p00, p01, p10, p11 = rb._kp[o]
    p00 = w00 * p00
    p01 = w01 * p01
    p10 = w10 * p10
    p11 = w11 * p11
    q00, q01, q10, q11 = rb._kd[o]
    q00 = w00 * q00
    q01 = w01 * q01
    q10 = w10 * q10
    q11 = w11 * q11
    if order == 0:
        return ((p00 + p01) + (p10 + p11) or 0.0,
                (q00 + q01) + (q10 + q11) or 0.0)
    if order == 1:
        return (((p00 + p01) + p11) + p10 or 0.0,
                ((q00 + q01) + q11) + q10 or 0.0)
    if order == 2:
        return (((p10 + p11) + p00) + p01 or 0.0,
                ((q10 + q11) + q00) + q01 or 0.0)
    return (((p00 + p01) + p10) + p11 or 0.0,
            ((q00 + q01) + q10) + q11 or 0.0)
