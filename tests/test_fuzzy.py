import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flexjoint.fuzzy import (ERROR_SCALE, KD_RULES, KP_RULES, RATE_SCALE,
                             TERMS, FlrBounds, FuzzyConfigError,
                             LinguisticScale, RuleBase, firing_strengths,
                             infer)

IDX = {t: i for i, t in enumerate(TERMS)}


# ---------------------------------------------------------------------------
# membership functions

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
    x = scale.clamp(x)
    p = [float(v) for v in np.linspace(scale.lo, scale.hi, 5)]
    return np.array([_ref_grade(p[max(i - 1, 0)], p[i], p[min(i + 1, 4)], x)
                     for i in range(5)])


SCALE = LinguisticScale(-2.0, 2.0)


def test_grade_frozen_values():
    assert SCALE.grades(0.0).tolist() == [0.0, 0.0, 1.0, 0.0, 0.0]
    assert SCALE.grades(1.0).tolist() == [0.0, 0.0, 0.0, 1.0, 0.0]
    assert SCALE.grades(0.5).tolist() == [0.0, 0.0, 0.5, 0.5, 0.0]
    assert SCALE.grades(-0.25).tolist() == [0.0, 0.25, 0.75, 0.0, 0.0]


def test_degenerate_flank_never_fires():
    # NB and PB are half-triangles: beyond an edge only the edge term fires
    assert SCALE.grades(-2.0).tolist() == [1.0, 0.0, 0.0, 0.0, 0.0]
    assert SCALE.grades(-1.5).tolist() == [0.5, 0.5, 0.0, 0.0, 0.0]
    assert SCALE.grades(-2.1).tolist() == [1.0, 0.0, 0.0, 0.0, 0.0]
    assert SCALE.grades(7.0).tolist() == [0.0, 0.0, 0.0, 0.0, 1.0]
    assert SCALE.grades(-np.inf).tolist() == [1.0, 0.0, 0.0, 0.0, 0.0]


def _peaks_and_neighbours(scale):
    return st.sampled_from([v for p in scale.peaks
                            for v in (np.nextafter(p, -np.inf), p,
                                      np.nextafter(p, np.inf))])


@given(data=st.data(), scale=st.sampled_from([ERROR_SCALE, RATE_SCALE]))
@settings(max_examples=500, deadline=None)
def test_grades_match_per_triangle_grade_bitwise(data, scale):
    """The scale's grades equal the per-triangle formula bit for bit, on
    and next to the peaks, at +-0.0, +-inf and on draws inside and
    outside the domain."""
    x = data.draw(st.one_of(
        st.floats(allow_nan=False), _peaks_and_neighbours(scale),
        st.floats(2.0 * scale.lo, 2.0 * scale.hi),
        st.sampled_from([0.0, -0.0, np.inf, -np.inf])))
    assert scale.grades(x).tobytes() == _ref_grades(scale, x).tobytes()


def test_scale_peaks_evenly_spaced():
    assert SCALE.peaks == (-2.0, -1.0, 0.0, 1.0, 2.0)


def test_scale_validation():
    with pytest.raises(FuzzyConfigError):
        LinguisticScale(1.0, 1.0)
    with pytest.raises(FuzzyConfigError):  # peaks that round together
        LinguisticScale(0.0, 5e-324)


@given(x=st.floats(-math.pi, math.pi, allow_nan=False))
@settings(max_examples=300, deadline=None)
def test_partition_of_unity(x):
    assert ERROR_SCALE.grades(x).sum() == pytest.approx(1.0, abs=1e-9)


@given(x=st.floats(-100, 100, allow_nan=False))
@settings(max_examples=200, deadline=None)
def test_clamped_inputs_still_partition(x):
    g = RATE_SCALE.grades(x)
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
    with pytest.raises(FuzzyConfigError):
        RuleBase((0.0, 1.0), (1.0, 0.0))


def test_singletons_evenly_spaced():
    rb = RuleBase((-2.0, 2.0), (0.0, 1.0))
    cell = {t: (i, j) for i, row in enumerate(KP_RULES) for j, t in enumerate(row)}
    np.testing.assert_allclose([rb.kp_consequents[cell[t]] for t in TERMS],
                               [-2.0, -1.0, 0.0, 1.0, 2.0])


# ---------------------------------------------------------------------------
# inference

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


@pytest.mark.parametrize("e,de", [(math.nan, 0.0), (0.0, math.nan)])
def test_nan_input_gives_nan_output(bounds, e, de):
    rb = RuleBase(bounds.dkp1, bounds.dkd1)
    assert all(math.isnan(v) for v in infer(rb, e, de))


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


# ---------------------------------------------------------------------------
# bounds container

def test_flr_bounds_validation():
    with pytest.raises(FuzzyConfigError):
        FlrBounds(dkp1=(1.0, -1.0))


def test_flr_bounds_order_repair():
    b = FlrBounds.ordered((15.27, -11.61), (0.1, -3.228),
                          (2.997, -16.94), (0.9537, -0.1))
    assert b.dkp1 == (-11.61, 15.27)
    assert b.dkd1 == (-3.228, 0.1)
    assert b.dkp2 == (-16.94, 2.997)
    assert b.dkd2 == (-0.1, 0.9537)
