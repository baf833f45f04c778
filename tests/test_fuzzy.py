import math
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from flexjoint.fuzzy import (_KD_INDEX, _KP_INDEX, _ORDER, ERROR_SCALE,
                             KD_RULES, KP_RULES, RATE_SCALE, TERMS, FlrBounds,
                             LinguisticScale, RuleBase, _linspace5, infer)
from oracles import terms

IDX = {t: i for i, t in enumerate(TERMS)}


# ---------------------------------------------------------------------------
# membership functions

def grades(scale, x):
    """Memberships of x in the five terms of scale: terms(scale, x) spread
    over five cells, 0.0 elsewhere (NaN everywhere for a NaN x)."""
    i, gi, gj = terms(scale, x)
    g = np.zeros(5) if gi == gi else np.full(5, gi)
    g[i:i + 2] = gi, gj
    return g


def _ref_grade(left, peak, right, x):
    """Membership of x in one triangle, as fuzzy.grade computed it before
    the scales held only their peaks."""
    if x == peak:
        return 1.0
    if x <= left or x >= right:
        return 0.0
    if x < peak:
        return (x - left) / (peak - left)
    return (right - x) / (right - peak)


def _ref_grades(scale, x):
    x = min(max(x, scale.lo), scale.hi)
    p = [float(v) for v in np.linspace(scale.lo, scale.hi, 5)]
    return np.array([_ref_grade(p[max(i - 1, 0)], p[i], p[min(i + 1, 4)], x)
                     for i in range(5)])


SCALE = LinguisticScale(-2.0, 2.0)


def test_grade_frozen_values():
    assert grades(SCALE, 0.0).tolist() == [0.0, 0.0, 1.0, 0.0, 0.0]
    assert grades(SCALE, 1.0).tolist() == [0.0, 0.0, 0.0, 1.0, 0.0]
    assert grades(SCALE, 0.5).tolist() == [0.0, 0.0, 0.5, 0.5, 0.0]
    assert grades(SCALE, -0.25).tolist() == [0.0, 0.25, 0.75, 0.0, 0.0]


def test_degenerate_flank_never_fires():
    # NB and PB are half-triangles: beyond an edge only the edge term fires
    assert grades(SCALE, -2.0).tolist() == [1.0, 0.0, 0.0, 0.0, 0.0]
    assert grades(SCALE, -1.5).tolist() == [0.5, 0.5, 0.0, 0.0, 0.0]
    assert grades(SCALE, -2.1).tolist() == [1.0, 0.0, 0.0, 0.0, 0.0]
    assert grades(SCALE, 7.0).tolist() == [0.0, 0.0, 0.0, 0.0, 1.0]
    assert grades(SCALE, -np.inf).tolist() == [1.0, 0.0, 0.0, 0.0, 0.0]


def _peaks_and_neighbours(scale):
    return st.sampled_from([v for p in scale.peaks
                            for v in (np.nextafter(p, -np.inf), p,
                                      np.nextafter(p, np.inf))])


@given(data=st.data(), scale=st.sampled_from([ERROR_SCALE, RATE_SCALE]))
@settings(max_examples=500, deadline=None)
def test_grades_match_per_triangle_grade_bitwise(data, scale):
    """The scale's terms, spread over five cells, equal the per-triangle
    formula bit for bit, on and next to the peaks, at +-0.0, +-inf and on
    draws inside and outside the domain."""
    x = data.draw(st.one_of(
        st.floats(allow_nan=False), _peaks_and_neighbours(scale),
        st.floats(2.0 * scale.lo, 2.0 * scale.hi),
        st.sampled_from([0.0, -0.0, np.inf, -np.inf])))
    assert grades(scale, x).tobytes() == _ref_grades(scale, x).tobytes()


def test_scale_peaks_evenly_spaced():
    assert SCALE.peaks == (-2.0, -1.0, 0.0, 1.0, 2.0)


def test_scale_validation():
    with pytest.raises(ValueError, match="need distinct peaks"):
        LinguisticScale(1.0, 1.0)
    with pytest.raises(ValueError, match="need distinct peaks"):
        LinguisticScale(0.0, 5e-324)  # peaks that round together


_TINY = 5e-324   # the least subnormal: a quarter of 1 or 2 of them rounds to 0


@given(lo=st.floats(-1e300, 1e300), width=st.one_of(
    st.sampled_from([0.0, _TINY, 2 * _TINY, 3 * _TINY, 4 * _TINY]),
    st.floats(0.0, 1e300), st.floats(-1e300, 0.0)))
@example(lo=0.0, width=-0.0)     # hi = -0.0: delta and step -0.0
@example(lo=-0.0, width=0.0)
@example(lo=-_TINY, width=2 * _TINY)
@example(lo=1.0, width=0.0)
@settings(max_examples=500, deadline=None)
def test_linspace5_is_np_linspace_bitwise(lo, width):
    """The plain-float peaks and singletons are np.linspace(lo, hi, 5) bit
    for bit, hi = lo + width: for lo == hi, for widths whose quarter
    underflows (numpy's zero-step branch) and for ordered and reversed
    ends."""
    hi = lo + width
    assert struct.pack("<5d", *_linspace5(lo, hi)) == np.linspace(lo, hi, 5).tobytes()


@given(x=st.floats(-math.pi, math.pi, allow_nan=False))
@settings(max_examples=300, deadline=None)
def test_partition_of_unity(x):
    assert grades(ERROR_SCALE, x).sum() == pytest.approx(1.0, abs=1e-9)


@given(x=st.floats(-100, 100, allow_nan=False))
@settings(max_examples=200, deadline=None)
def test_clamped_inputs_still_partition(x):
    g = grades(RATE_SCALE, x)
    assert np.all(g >= 0.0)
    assert g.sum() == pytest.approx(1.0, abs=1e-9)


# ---------------------------------------------------------------------------
# rule tables

def test_tables_are_5x5_over_known_terms():
    for table in (KP_RULES, KD_RULES):
        assert len(table) == 5 and all(len(r) == 5 for r in table)
        assert all(t in TERMS for row in table for t in row)


def test_tables_complement_each_other():
    # the derivative action always opposes the proportional action:
    # term indices sum to 4 cell by cell
    for i in range(5):
        for j in range(5):
            assert IDX[KP_RULES[i][j]] + IDX[KD_RULES[i][j]] == 4


def test_kp_table_monotone():
    # larger error or error rate never asks for a smaller kp increment
    m = np.array([[IDX[t] for t in row] for row in KP_RULES])
    assert np.all(np.diff(m, axis=0) >= 0)
    assert np.all(np.diff(m, axis=1) >= 0)


def test_table_corners():
    assert KP_RULES[0][0] == "NB" and KP_RULES[4][4] == "PB"
    assert KD_RULES[0][0] == "PB" and KD_RULES[4][4] == "NB"
    assert KP_RULES[2][2] == "ZE" and KD_RULES[2][2] == "ZE"


def test_rule_base_validation():
    with pytest.raises(ValueError, match="kd bounds"):
        RuleBase((0.0, 1.0), (1.0, 0.0))


def consequents(bounds, index):
    """The 5x5 singleton table of one gain: np.linspace(lo, hi, 5) indexed
    by the rule table's term indices."""
    return np.linspace(*bounds, 5)[np.array(index)]


def _cell(blocks, i, j):
    """Singleton of rule (i, j) read from a rule base's 2x2 blocks."""
    a, b = min(i, 3), min(j, 3)
    return blocks[4 * a + b][2 * (i - a) + (j - b)]


def test_singletons_evenly_spaced():
    rb = RuleBase((-2.0, 2.0), (0.0, 1.0))
    cell = {t: (i, j) for i, row in enumerate(KP_RULES) for j, t in enumerate(row)}
    np.testing.assert_allclose([_cell(rb._kp, *cell[t]) for t in TERMS],
                               [-2.0, -1.0, 0.0, 1.0, 2.0])


# ---------------------------------------------------------------------------
# inference

def firing_strengths(e, de):
    """The dense 5x5 normalized rule activations (rows: ERROR_SCALE terms of
    e, columns: RATE_SCALE terms of de), the formula infer evaluated before
    it summed only the 2x2 block of rules that can fire."""
    w = np.outer(grades(ERROR_SCALE, e), grades(RATE_SCALE, de))
    return w / w.sum()


def dense_infer(rb, e, de):
    """infer's former numpy formula, the oracle of the bitwise tests."""
    w = firing_strengths(e, de)
    return (float(np.sum(w * consequents(rb.kp_bounds, _KP_INDEX))),
            float(np.sum(w * consequents(rb.kd_bounds, _KD_INDEX))))


def _bits(pair):
    return struct.pack("<2d", *pair)


@given(e=st.floats(-10, 10, allow_nan=False), de=st.floats(-20, 20, allow_nan=False))
@settings(max_examples=200, deadline=None)
def test_firing_strengths_normalized(e, de):
    w = firing_strengths(e, de)
    assert w.shape == (5, 5)
    assert np.all(w >= 0.0)
    assert w.sum() == pytest.approx(1.0, abs=1e-9)


def test_infer_neutral_input_gives_midpoints(bounds):
    # at (0, 0) only the ZE/ZE rule fires; both consequents are ZE
    rb = RuleBase(bounds.dkp1, bounds.dkd1)
    dkp, dkd = infer(rb, 0.0, 0.0)
    assert dkp == pytest.approx((-11.61 + 15.27) / 2.0, rel=1e-12)
    assert dkd == pytest.approx((-3.228 + 0.1) / 2.0, rel=1e-12)


def test_infer_saturated_corner_hits_bounds(bounds):
    # large positive error and error rate: kp -> upper bound, kd -> lower
    rb = RuleBase(bounds.dkp1, bounds.dkd1)
    dkp, dkd = infer(rb, math.pi, 5.0)
    assert dkp == pytest.approx(15.27, rel=1e-12)
    assert dkd == pytest.approx(-3.228, rel=1e-12)
    # clamping: far outside the domain gives the same corner output
    assert infer(rb, 100.0, 100.0) == pytest.approx((dkp, dkd))


@given(e=st.floats(-50, 50, allow_nan=False), de=st.floats(-50, 50, allow_nan=False))
@settings(max_examples=300, deadline=None)
def test_outputs_bounded(e, de):
    rb = RuleBase((-11.61, 15.27), (-3.228, 0.1))
    dkp, dkd = infer(rb, e, de)
    assert -11.61 - 1e-12 <= dkp <= 15.27 + 1e-12
    assert -3.228 - 1e-12 <= dkd <= 0.1 + 1e-12


@pytest.mark.parametrize("e,de", [
    (math.nan, 0.0), (0.0, math.nan),
    pytest.param(-math.nan, 0.0, id="negative-nan-0.0"),
    pytest.param(0.3, -math.nan, id="0.3-negative-nan")])
def test_nan_input_gives_nan_output(bounds, e, de):
    rb = RuleBase(bounds.dkp1, bounds.dkd1)
    assert all(math.isnan(v) for v in infer(rb, e, de))
    # a NaN of either sign grades as np.nan, so both outputs have its bits
    assert _bits(infer(rb, e, de)) == _bits((np.nan, np.nan))


def test_zero_width_bounds_give_zero_output():
    rb = RuleBase((0.0, 0.0), (0.0, 0.0))
    assert infer(rb, 0.37, -1.21) == (0.0, 0.0)


def test_antisymmetric_response():
    # symmetric bounds: mirroring the inputs negates the kp increment
    rb = RuleBase((-1.0, 1.0), (-1.0, 1.0))
    dkp_p, dkd_p = infer(rb, 0.8, 1.3)
    dkp_n, dkd_n = infer(rb, -0.8, -1.3)
    assert dkp_n == pytest.approx(-dkp_p, abs=1e-12)
    assert dkd_n == pytest.approx(-dkd_p, abs=1e-12)


def _inputs(scale):
    return st.one_of(_peaks_and_neighbours(scale),
                     st.floats(2.0 * scale.lo, 2.0 * scale.hi), st.floats(),
                     st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan]))


_VALUE = st.floats(-1e3, 1e3)
_BOUNDS = st.one_of(
    st.tuples(_VALUE, _VALUE).map(lambda p: (min(p), max(p))),
    _VALUE.map(lambda v: (v, v)),                       # zero width
    st.floats(0.0, 8e307).map(lambda v: (-v, v)),       # symmetric: cancels
    st.tuples(st.floats(-8e307, 8e307), st.floats(-8e307, 8e307))
    .map(lambda p: (min(p), max(p))),                   # wide
    st.sampled_from([(-0.0, 0.0), (0.0, -0.0), (-0.0, -0.0), (-1.0, -0.0),
                     (-8e307, 8e307)]))


def _examples(cases):
    """Apply hypothesis.example to a test once per argument tuple."""
    def decorate(test):
        for case in cases:
            test = example(*case)(test)
        return test
    return decorate


_TUNED = ((-11.61, 15.27), (-3.228, 0.1))
_MIDPOINTS = [tuple((a + b) / 2.0 for a, b in zip(s.peaks, s.peaks[1:]))
              for s in (ERROR_SCALE, RATE_SCALE)]
# Every pair of peaks, which reaches all 16 block origins and so every sum
# order, and every pair of midpoints, where all four rules of a block fire;
# inputs beyond both clamps; signed zeros; NaN in either input; and six
# cases among which, for each sum order, adding the weights, the dkp
# products or the dkd products in any other of the four orders changes the
# bits of the output.
INFER_EXAMPLES = (
    [((-82.0, 38.0), (-0.48, 4.0), 0.87, -1.7),
     ((-38.0, 94.0), (-1.4, 1.7), 2.2, 3.4),
     ((-56.0, 4.8), (-2.5, 7.1), 0.89, -4.4),
     ((-38.0, 47.0), (-1.5, 1.9), 1.9, 0.91),
     ((-88.0, 16.0), (-1.8, 2.3), 1.4, 1.1),
     ((-15.0, 96.0), (-1.7, 2.0), -0.77, -0.42)]
    + [_TUNED + (e, de) for e in ERROR_SCALE.peaks for de in RATE_SCALE.peaks]
    + [_TUNED + (e, de) for e in _MIDPOINTS[0] for de in _MIDPOINTS[1]]
    + [_TUNED + (e, de) for e in (-10.0, -math.inf, 10.0, math.inf)
       for de in (-20.0, 20.0, -math.inf, math.inf)]
    + [bounds + (e, de) for bounds in (_TUNED, ((-1.0, -0.0), (-0.0, 0.0)))
       for e in (0.0, -0.0) for de in (0.0, -0.0)]
    + [_TUNED + pair for pair in ((math.nan, 0.3), (0.3, math.nan),
                                  (-math.nan, -1.0), (1.0, -math.nan),
                                  (math.nan, math.nan))])


@_examples(INFER_EXAMPLES)
@given(kp=_BOUNDS, kd=_BOUNDS, e=_inputs(ERROR_SCALE), de=_inputs(RATE_SCALE))
@settings(max_examples=1000, deadline=None)
def test_infer_matches_dense_formula_bitwise(kp, kd, e, de):
    """infer has the bits of the dense numpy formula, signed zeros and NaN
    included, at and next to the peaks, outside the scales and at +-inf,
    for zero-width, symmetric and wide bounds."""
    rb = RuleBase(kp, kd)
    assert _bits(infer(rb, e, de)) == _bits(dense_infer(rb, e, de))


# The block sums that _ORDER codes, for a block (a, b / c, d).
_SUMS = (lambda a, b, c, d: (a + b) + (c + d),
         lambda a, b, c, d: ((a + b) + d) + c,
         lambda a, b, c, d: ((c + d) + a) + b,
         lambda a, b, c, d: ((a + b) + c) + d)


def test_block_sum_follows_numpy_order():
    """The sum that _ORDER[4i + j] codes adds the 2x2 block at (i, j) of an
    otherwise zero 5x5 table with the bits of np.sum over the whole table."""
    rng = np.random.default_rng(5)
    for origin, code in enumerate(_ORDER):
        add = _SUMS[code]
        i, j = divmod(origin, 4)
        for _ in range(500):
            table = np.zeros((5, 5))
            table[i:i + 2, j:j + 2] = (rng.standard_normal((2, 2))
                                       * 10.0 ** rng.integers(-8, 9, (2, 2)))
            block = table[i:i + 2, j:j + 2].ravel().tolist()
            assert struct.pack("<d", add(*block)) == struct.pack("<d", np.sum(table))


def test_zero_output_is_positive_zero():
    # every 0.0 * c is -0.0 for bounds (-1.0, -0.0), and at the PB corner
    # every product is -0.0 too; np.sum starts from 0.0 and gives +0.0
    rb = RuleBase((-1.0, -0.0), (-1.0, -0.0))
    assert _bits(infer(rb, math.pi, 5.0)) == _bits((0.0, -1.0))
    assert _bits(dense_infer(rb, math.pi, 5.0)) == _bits((0.0, -1.0))


# ---------------------------------------------------------------------------
# bounds container

def test_flr_bounds_validation():
    with pytest.raises(ValueError, match="dkp1 bounds"):
        FlrBounds(dkp1=(1.0, -1.0))


@pytest.mark.parametrize("pair", [(math.nan, 1.0), (0.0, math.inf),
                                  (-math.inf, math.inf), (-1e308, 1e308)])
def test_nonfinite_or_overflowing_bounds_rejected(pair):
    # np.linspace over a width that overflows gives NaN singletons
    with pytest.raises(ValueError, match="dkd2 bounds"):
        FlrBounds(dkd2=pair)
    with pytest.raises(ValueError, match="kd bounds"):
        RuleBase((0.0, 1.0), pair)


def test_flr_bounds_order_repair():
    b = FlrBounds.ordered((15.27, -11.61), (0.1, -3.228),
                          (2.997, -16.94), (0.9537, -0.1))
    assert b.dkp1 == (-11.61, 15.27)
    assert b.dkd1 == (-3.228, 0.1)
    assert b.dkp2 == (-16.94, 2.997)
    assert b.dkd2 == (-0.1, 0.9537)
