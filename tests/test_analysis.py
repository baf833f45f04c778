from itertools import permutations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flexjoint.analysis import (StabilityBounds, check_flr_conditions,
                                check_gain_conditions, closed_loop_charpoly,
                                eigenvalues, error_eigenvalues, error_jacobian,
                                polynomial_roots, worst_case_gains)
from flexjoint.control import GainSet
from flexjoint.fuzzy import FlrBounds
from flexjoint.plant import PlantParams
from oracles import block_eigenvalues, state_matrix, torque

pos = st.floats(0.05, 50.0, allow_nan=False)
gain = st.floats(0.0, 200.0, allow_nan=False)


# ---------------------------------------------------------------------------
# Jacobian structure

def test_error_jacobian_entries(params, gains):
    A = error_jacobian(params, gains)
    expected = np.array([
        [0.0, 1.0, 0.0, 0.0],
        [-52.19, -10.18, 100.0, 0.0],
        [0.0, 0.0, 0.0, 1.0],
        [0.0, 0.0, -815.0, -29.12],
    ])
    np.testing.assert_allclose(A, expected, rtol=1e-12)


def test_eigenvalues_sorted():
    ev = eigenvalues(np.diag([3.0, -1.0, 2.0, -5.0]))
    np.testing.assert_allclose(ev, [-5.0, -1.0, 2.0, 3.0])


@given(kp1=gain, kd1=gain, kp2=gain, kd2=gain,
       I_l=pos, I_m=pos, k=pos, mu=pos)
@settings(max_examples=100, deadline=None)
def test_dense_solver_matches_block_formula(kp1, kd1, kp2, kd2, I_l, I_m, k, mu):
    # closed-form quadratic roots of the two companion blocks are an
    # independent oracle for the dense eigensolver.  The dense spectrum
    # must come in (real, imag) order and equal the oracle as a multiset:
    # where the two blocks' real parts are equal, rounding decides which
    # block sorts first.
    p = PlantParams(I_l=I_l, I_m=I_m, k=k, mu=mu)
    A = error_jacobian(p, GainSet(kp1, kd1, kp2, kd2))
    ev = eigenvalues(A)
    np.testing.assert_array_equal(np.lexsort((ev.imag, ev.real)), np.arange(4))
    oracle = min(permutations(block_eigenvalues(A)),
                 key=lambda q: np.abs(ev - np.array(q)).max())
    np.testing.assert_allclose(ev, oracle, rtol=1e-7, atol=1e-7)


def test_error_eigenvalues_reject_a_lost_eigenvalue(gains):
    """The spectrum's product must be the Jacobian's determinant
    kp1*(k + kp2)/I_m: at I_m = 1e-12 it is off by about 1e-5 and passes;
    at I_m = 1e-300 an eigenvalue rounds to 0 and the ValueError names the
    plant and the gains; zero gains give a true zero eigenvalue."""
    z = error_eigenvalues(PlantParams(I_m=1e-12), gains)
    det = gains.kp1 * (100.0 + gains.kp2) / 1e-12
    assert abs(np.prod(z) - det) <= 1e-4 * det
    np.testing.assert_array_equal(
        z, eigenvalues(error_jacobian(PlantParams(I_m=1e-12), gains)))
    with pytest.raises(ValueError, match=r"ill-scaled .*kp1=52\.19.*I_m=1e-300"):
        error_eigenvalues(PlantParams(I_m=1e-300), gains)
    zero = error_eigenvalues(PlantParams(), GainSet(0.0, 0.0, 0.0, 0.0))
    assert (zero == 0).sum() == 2


# ---------------------------------------------------------------------------
# characteristic polynomial

def test_overflowing_gains_name_themselves(params):
    """Finite gains whose sums or products overflow raise a ValueError that
    names the gains before any solver sees an inf."""
    with pytest.raises(ValueError, match=r"characteristic polynomial .*kp1=1e\+308"):
        closed_loop_charpoly(params, GainSet(kp1=1e308))
    with pytest.raises(ValueError, match=r"error Jacobian .*kp2=1e\+308"):
        error_jacobian(params, GainSet(kp2=1e308))
    with pytest.raises(ValueError, match=r"regulator lower bound .*kd1=1e\+308"):
        worst_case_gains(GainSet(kd1=1e308), FlrBounds(dkd1=(1e308, 1e308)))


def test_charpoly_matches_jacobian_spectrum(params, gains):
    roots = polynomial_roots(closed_loop_charpoly(params, gains))
    ev = eigenvalues(error_jacobian(params, gains))
    np.testing.assert_allclose(roots, ev, rtol=1e-6)


def test_charpoly_outer_loop_open_factorization(params):
    # kp1 = kd1 = 0 leaves a double pole at the origin: s^2 * (inner loop)
    c = closed_loop_charpoly(params, GainSet(0.0, 0.0, 144.5, 8.636))
    assert len(c) == 5 and c[0] == 1.0   # monic, degree 4
    assert c[3] == 0.0 and c[4] == 0.0
    assert c[1] == pytest.approx(8.736 / 0.3, rel=1e-12)
    assert c[2] == pytest.approx(244.5 / 0.3, rel=1e-12)


def test_charpoly_undamped_spectrum():
    # no gains, no friction: coupled springs, purely oscillatory
    p = PlantParams(mu=1e-300)  # friction must be > 0; take it negligible
    roots = polynomial_roots(closed_loop_charpoly(p, GainSet(0.0, 0.0, 0.0,
                                                             0.0)))
    assert np.max(np.abs(roots.real)) < 1e-6


def test_state_matrix_spectrum_differs_from_error_model(params, gains):
    """The exact linearization keeps the motor reference's dependence on the
    link state; its spectrum is stable but is NOT the error-model spectrum
    (see DISCREPANCIES.md)."""
    ev_exact = eigenvalues(state_matrix(PlantParams(g=0.0), gains))
    ev_model = eigenvalues(error_jacobian(params, gains))
    assert np.all(ev_exact.real < 0)
    assert not np.allclose(sorted(ev_exact.real), sorted(ev_model.real),
                           rtol=0.05)


def test_state_matrix_agrees_with_finite_differences(gains):
    """Independent oracle: numerically differentiate the closed-loop vector
    field (g = 0, constant reference at the origin) and compare."""
    from flexjoint.control import Controller, ControllerKind
    from flexjoint.plant import State
    from oracles import derivatives
    p = PlantParams(g=0.0)
    A = state_matrix(p, gains)
    ctrl = Controller(ControllerKind.CASCADED_PD, gains, FlrBounds())

    def f(x):
        s = State(*x)
        u, _ = torque(ctrl, p, s, (0.0, 0.0, 0.0))
        return derivatives(p, s, u)

    eps = 1e-7
    J = np.empty((4, 4))
    for j in range(4):
        e = np.zeros(4)
        e[j] = eps
        J[:, j] = (f(e) - f(-e)) / (2 * eps)
    np.testing.assert_allclose(A, J, rtol=1e-5, atol=1e-5)


# ---------------------------------------------------------------------------
# gain conditions

def test_bounds_validation():
    for kwargs in (dict(L11=-1.0), dict(L12=float("nan")),
                   dict(L22=float("inf"))):
        with pytest.raises(ValueError):
            StabilityBounds(**kwargs)


def test_gain_conditions_pass_for_reference_gains(params, gains):
    assert check_gain_conditions(gains, params, StabilityBounds()) == ()


def test_gain_conditions_strict(params, gains):
    # each inequality is strict: sitting exactly on a bound fails it
    v = check_gain_conditions(gains, params, StabilityBounds(L12=10.18))
    assert v == ("kd1 > L12",)


def test_gain_conditions_zero_gains(params):
    v = check_gain_conditions(GainSet(0.0, 0.0, 0.0, 0.0), params, StabilityBounds())
    assert "kd1 > L12" in v and "kp1 > L11" in v


def test_flr_conditions_pass_for_reference_bounds(params, gains, bounds):
    assert check_flr_conditions(gains, bounds, params, StabilityBounds()) == ()


def test_flr_conditions_catch_destabilizing_lower_bound(params, gains):
    bad = FlrBounds(dkp1=(-60.0, 0.0))  # drives kp1 negative in the worst case
    v = check_flr_conditions(gains, bad, params, StabilityBounds())
    assert v == ("kp1 + dkp1_lo > L11",)


def test_flr_conditions_tighter_than_nominal(params, gains, bounds):
    # a disturbance slope the nominal gains tolerate but the worst-case
    # regulator output does not
    L = StabilityBounds(L12=8.0)
    assert check_gain_conditions(gains, params, L) == ()
    assert check_flr_conditions(gains, bounds, params, L) != ()
