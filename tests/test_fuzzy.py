import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flexjoint.fuzzy import (ERROR_SCALE, KD_RULES, KP_RULES, RATE_SCALE,
                             TERMS, FlrBounds, FuzzyConfigError,
                             LinguisticScale, RuleBase, TriangularMF,
                             firing_strengths, grade, infer)

IDX = {t: i for i, t in enumerate(TERMS)}


# ---------------------------------------------------------------------------
# membership functions

def test_grade_frozen_values():
    mf = TriangularMF(-1.0, 0.0, 1.0)
    assert grade(mf, 0.0) == 1.0
    assert grade(mf, 0.5) == 0.5
    assert grade(mf, -0.25) == 0.75
    assert grade(mf, 1.0) == 0.0
    assert grade(mf, 2.0) == 0.0


def test_degenerate_flank_never_fires():
    # half-triangle at a domain edge: zero-width left flank
    mf = TriangularMF(0.0, 0.0, 1.0)
    assert grade(mf, 0.0) == 1.0
    assert grade(mf, 0.5) == 0.5
    assert grade(mf, -0.1) == 0.0


def test_triangle_validation():
    with pytest.raises(FuzzyConfigError):
        TriangularMF(0.0, -1.0, 1.0)


def test_scale_peaks_evenly_spaced():
    sc = LinguisticScale(-2.0, 2.0)
    assert [mf.peak for mf in sc.mfs] == [-2.0, -1.0, 0.0, 1.0, 2.0]


def test_scale_validation():
    with pytest.raises(FuzzyConfigError):
        LinguisticScale(1.0, 1.0)


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
