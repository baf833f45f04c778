"""Acceptance gate: one test and one printed PASS/FAIL line per criterion.

Criteria 4, 5 and 7 contain sub-checks that the implemented model cannot
meet (see DISCREPANCIES.md and the companion tests next to each red
criterion); those tests are expected to stay red and say exactly which
sub-check failed.
"""

import math
import time

import numpy as np
import pytest

from flexjoint.analysis import (check_flr_conditions, check_gain_conditions,
                                closed_loop_charpoly, eigenvalues,
                                error_jacobian, polynomial_roots,
                                StabilityBounds)
from flexjoint.cli import (DEFAULT_DISTURBANCE_SEED, TUNED_FLR_BOUNDS, main,
                           run_ablation)
from flexjoint.control import (SINGLE_PD_GAINS, Controller, ControllerKind,
                               DivergedTrajectory, GainSet, Reference,
                               simulate)
from flexjoint.fuzzy import (ERROR_SCALE, RATE_SCALE, FlrBounds, RuleBase,
                             infer)
from flexjoint.metrics import compute_metrics
from flexjoint.plant import DisturbanceModel, PlantParams, SimConfig, State
from flexjoint.tuning import (Domain, TunerConfig, gp_fit, gp_predict,
                              make_pd_cost, pd_gain_domain, smbo,
                              tracking_cost)
from oracles import (dense_oracle, euler_step, mechanical_energy, terms,
                     torque)

PARAMS = PlantParams()
GAINS = GainSet()
SIM = SimConfig()
SQUARE = Reference("square")


def report(n: int, checks: list[tuple[str, bool]]) -> None:
    ok = all(passed for _, passed in checks)
    detail = "; ".join(f"{name}={'ok' if passed else 'FAIL'}"
                       for name, passed in checks)
    print(f"ACCEPTANCE CRITERION {n}: {'PASS' if ok else 'FAIL'} [{detail}]")
    assert ok, f"criterion {n}: {detail}"


# ---------------------------------------------------------------------------
# 1. eigenvalue reproduction on the published matrices

def test_criterion_1_eigenvalue_reproduction():
    t0 = time.time()
    nominal = np.array([[0.0, 1.0, 0.0, 0.0],
                        [-52.19, -10.0, 100.0, 0.0],
                        [0.0, 0.0, 0.0, 1.0],
                        [0.0, 0.0, -815.0, -29.12]])
    worst = np.array([[0.0, 1.0, 0.0, 0.0],
                      [-40.58, -6.772, 100.0, 0.0],
                      [0.0, 0.0, 0.0, 1.0],
                      [0.0, 0.0, -758.53, -28.79]])
    want_nom = np.array([-14.56 - 24.5562j, -14.56 + 24.5562j,
                         -5.0 - 5.2144j, -5.0 + 5.2144j])
    want_wc = np.array([-14.395 - 23.4801j, -14.395 + 23.4801j,
                        -3.386 - 5.3958j, -3.386 + 5.3958j])
    nom_ok = np.max(np.abs(eigenvalues(nominal) - want_nom)) < 1e-3
    wc_ok = np.max(np.abs(eigenvalues(worst) - want_wc)) < 1e-3
    fast = time.time() - t0 < 1.0
    report(1, [("nominal spectrum", nom_ok), ("worst-case spectrum", wc_ok),
               ("runtime < 1 s", fast)])


# ---------------------------------------------------------------------------
# 2. gain-condition verdicts

def test_criterion_2_gain_conditions():
    L = StabilityBounds()
    nominal_ok = not check_gain_conditions(GAINS, PARAMS, L)
    # bounds as published, pair order reversed; repaired on construction
    repaired = FlrBounds.ordered((15.27, -11.61), (0.1, -3.228),
                                 (2.997, -16.94), (0.9537, -0.1))
    flr_ok = not check_flr_conditions(GAINS, repaired, PARAMS, L)
    report(2, [("nominal conditions", nominal_ok),
               ("worst-case conditions after bound repair", flr_ok)])


# ---------------------------------------------------------------------------
# 3. spectrum equivalence

def test_criterion_3_spectrum_equivalence():
    t0 = time.time()
    rng = np.random.default_rng(2024)
    agree = True
    for _ in range(100):
        p = PlantParams(m=rng.uniform(0.5, 3), g=rng.uniform(0, 15),
                        l=rng.uniform(0.1, 1), I_l=rng.uniform(0.2, 3),
                        I_m=rng.uniform(0.1, 2), k=rng.uniform(10, 300),
                        mu=rng.uniform(0.01, 2))
        g = GainSet(*rng.uniform([1, 1, 1, 1], [150, 30, 150, 30]))
        roots = polynomial_roots(closed_loop_charpoly(p, g))
        ev = eigenvalues(error_jacobian(p, g))
        scale = np.max(np.abs(ev))
        agree = agree and np.max(np.abs(roots - ev)) <= 1e-6 * scale
    fast = time.time() - t0 < 5.0
    report(3, [("100 random draws agree to 1e-6 relative", agree),
               ("runtime < 5 s", fast)])


# ---------------------------------------------------------------------------
# 4. tracking without disturbance

def test_criterion_4_tracking_no_disturbance():
    off = DisturbanceModel(kind="off")
    fuzzy = Controller(ControllerKind.FUZZY_CASCADED, GAINS, TUNED_FLR_BOUNDS)
    plain = Controller(ControllerKind.CASCADED_PD, GAINS)
    t0 = time.time()
    mf = compute_metrics(simulate(PARAMS, SIM, fuzzy, SQUARE, off), SQUARE)
    per_episode = time.time() - t0
    mp = compute_metrics(simulate(PARAMS, SIM, plain, SQUARE, off), SQUARE)
    report(4, [
        ("steady-state |e1| < 1e-3", mf.steady_state_error < 1e-3),
        # without the disturbance the loop is heavily damped; the recorded
        # overshoot band is only reachable with the disturbance active
        # (see the companion test below and DISCREPANCIES.md)
        ("overshoot in 3.68 +/- 2 pct", 1.68 <= mf.overshoot_pct <= 5.68),
        ("plain cascade overshoot < 0.5 pct", mp.overshoot_pct < 0.5),
        ("runtime < 1 s per episode", per_episode < 1.0),
    ])


def test_criterion_4_companion_overshoot_with_disturbance():
    """Same controller under the seeded random disturbance the published
    experiments used: the overshoot lands inside the reported band."""
    dist = DisturbanceModel(kind="uniform", amplitude=10.0,
                            seed=DEFAULT_DISTURBANCE_SEED)
    fuzzy = Controller(ControllerKind.FUZZY_CASCADED, GAINS, TUNED_FLR_BOUNDS)
    m = compute_metrics(simulate(PARAMS, SIM, fuzzy, SQUARE, dist), SQUARE)
    assert 1.68 <= m.overshoot_pct <= 5.68
    assert m.steady_state_error < 0.05


# ---------------------------------------------------------------------------
# 5. ablation ordering

def _ablation_costs():
    dist = DisturbanceModel(kind="uniform", amplitude=10.0,
                            seed=DEFAULT_DISTURBANCE_SEED)
    rows = run_ablation(PARAMS, SIM, GAINS, TUNED_FLR_BOUNDS, dist)
    return {name: cost for name, cost, _, _, _ in rows}


def test_criterion_5_ablation_ordering():
    costs = _ablation_costs()
    bands = {"fuzzy+PD": -7.25, "fuzzy+fuzzy": -7.50,
             "PD+PD": -8.54, "PD+fuzzy": -8.71}
    in_band = all(abs(costs[k] - v) <= 0.2 * abs(v) for k, v in bands.items())
    ordered = (costs["fuzzy+PD"] >= costs["fuzzy+fuzzy"]
               > max(costs["PD+PD"], costs["PD+fuzzy"]))
    best = max(costs[k] for k in bands)
    ratio_ok = costs["single-PD"] <= 3.0 * best  # costs are negative
    # literal check: the baseline's link error still exceeds 0.1 rad at the
    # end of the 10 s episode.  The baseline is exponentially unstable here
    # and trips the divergence guard near t = 1.2 s, so no t = 10 s state
    # exists (companion test below; DISCREPANCIES.md).
    final_error_check = False
    try:
        traj = simulate(PARAMS, SIM, Controller(ControllerKind.SINGLE_PD),
                        SQUARE, DisturbanceModel(kind="off"))
        final_error_check = abs(traj.e1[-1]) > 0.1
    except DivergedTrajectory:
        pass
    report(5, [("costs within 20 pct bands", in_band),
               ("variant ordering", ordered),
               ("baseline at least 3x worse", ratio_ok),
               ("baseline |e1| > 0.1 at t = 10 s", final_error_check)])


def test_criterion_5_companion_baseline_blows_up():
    """The single-PD loop's linearization has eigenvalues with positive real
    part, so instead of a sustained 0.1 rad oscillation the simulated error
    grows without bound; divergence is the strongest form of that check."""
    with pytest.raises(DivergedTrajectory) as exc:
        simulate(PARAMS, SIM, Controller(ControllerKind.SINGLE_PD),
                 SQUARE, DisturbanceModel(kind="off"))
    assert exc.value.t < 10.0
    ev = np.linalg.eigvals(np.array(
        [[0.0, 1.0, 0.0, 0.0],
         [-PARAMS.k / PARAMS.I_l, 0.0, PARAMS.k / PARAMS.I_l, 0.0],
         [0.0, 0.0, 0.0, 1.0],
         [(PARAMS.k - SINGLE_PD_GAINS[0]) / PARAMS.I_m,
          -SINGLE_PD_GAINS[1] / PARAMS.I_m,
          -PARAMS.k / PARAMS.I_m, -PARAMS.mu / PARAMS.I_m]]))
    assert np.max(ev.real) > 0.0


# ---------------------------------------------------------------------------
# 6. optimizer sanity

@pytest.mark.slow
def test_criterion_6_bo_sanity():
    unit = Domain(names=("x",), lo=(0.0,), hi=(1.0,))
    hits = 0
    for seed in range(10):
        X, y = smbo(lambda v: -(v[0] - 0.3) ** 2, unit,
                    TunerConfig(T=30, n_init=10, seed=seed))
        hits += abs(float(X[np.argmax(y), 0]) - 0.3) <= 0.05
    t0 = time.time()
    cost = make_pd_cost(PARAMS, SIM, SQUARE,
                        DisturbanceModel(kind="uniform", amplitude=10.0,
                                         seed=DEFAULT_DISTURBANCE_SEED))
    X, y = smbo(cost, pd_gain_domain(), TunerConfig(T=150, n_init=10, seed=0))
    elapsed = time.time() - t0
    tuned = GainSet(*X[np.argmax(y)])
    violated = check_gain_conditions(tuned, PARAMS, StabilityBounds())
    report(6, [("1-D quadratic 9/10 seeds", hits >= 9),
               ("4-D tuning under 10 min", elapsed < 600.0),
               ("history complete", len(y) == 150),
               ("tuned gains satisfy the gain conditions", not violated)])


# ---------------------------------------------------------------------------
# 7. property suites

def _energy_literal() -> bool:
    # per-step non-increase within 1e-6 * E(s0), forward Euler at 0.0005 s
    p = PlantParams(g=0.0)
    s = State(0.1, 0.0, 0.0, 0.0)
    tol = 1e-6 * mechanical_energy(p, s)
    for _ in range(4000):
        s1 = euler_step(p, s, 0.0, 0.0, 0.0, 0.0005)
        if mechanical_energy(p, s1) - mechanical_energy(p, s) > tol:
            return False
        s = s1
    return True


def _partition_and_boundedness() -> bool:
    rng = np.random.default_rng(99)
    rb = RuleBase(TUNED_FLR_BOUNDS.dkp1, TUNED_FLR_BOUNDS.dkd1)
    for _ in range(500):
        e, de = rng.uniform(-10, 10), rng.uniform(-20, 20)
        # the grades of the two terms that can fire; the others are 0.0
        if abs(sum(terms(ERROR_SCALE, e)[1:]) - 1.0) > 1e-9:
            return False
        if abs(sum(terms(RATE_SCALE, de)[1:]) - 1.0) > 1e-9:
            return False
        dkp, dkd = infer(rb, e, de)
        if not (-11.61 - 1e-9 <= dkp <= 15.27 + 1e-9):
            return False
        if not (-3.228 - 1e-9 <= dkd <= 0.1 + 1e-9):
            return False
    return True


def _flr_degeneracy() -> bool:
    rng = np.random.default_rng(17)
    fuzzy = Controller(ControllerKind.FUZZY_CASCADED, GAINS, FlrBounds())
    plain = Controller(ControllerKind.CASCADED_PD, GAINS, FlrBounds())
    for _ in range(1000):
        s = State(*rng.uniform(-2, 2, size=4))
        ref = (rng.uniform(-2, 2), rng.uniform(-2, 2), 0.0)
        if torque(fuzzy, PARAMS, s, ref) != torque(plain, PARAMS, s, ref):
            return False
    return True


def _error_ode_literal() -> tuple[bool, float]:
    """Integrate the reduced error model (which takes the motor-reference
    rate as zero, so its third row is e3' = e4) with the same Euler steps
    and compare against the errors the simulator records."""
    traj = simulate(PARAMS, SIM, Controller(ControllerKind.CASCADED_PD, GAINS),
                    SQUARE, DisturbanceModel(kind="off"))
    p, g = PARAMS, GAINS
    e = np.array([traj.e1[0], traj.e2[0], traj.e3[0], traj.e4[0]])
    worst = 0.0
    for n in range(1, len(traj)):
        for _ in range(SIM.substeps):
            de = np.array([
                e[1],
                -g.kp1 * e[0] - g.kd1 * e[1] + p.k / p.I_l * e[2],
                e[3],
                -(p.k + g.kp2) / p.I_m * e[2] - (p.mu + g.kd2) / p.I_m * e[3],
            ])
            e = e + SIM.sim_dt * de
        worst = max(worst, float(np.max(np.abs(
            e - np.array([traj.e1[n], traj.e2[n], traj.e3[n], traj.e4[n]])))))
    return worst <= 1e-6, worst


def _gp_dense_oracle() -> bool:
    rng = np.random.default_rng(11)
    dom = Domain(names=("a", "b"), lo=(0.0, 0.0), hi=(1.0, 1.0))
    X = rng.uniform(0, 1, size=(40, 2))
    # observation noise keeps the training covariance well conditioned, so
    # the 1e-6 agreement is about the algorithm and not about cancellation
    y = np.cos(4 * X[:, 0]) + X[:, 1] + 0.05 * rng.standard_normal(40)
    model = gp_fit(X, y, dom, 0)
    Xq = rng.uniform(0, 1, size=(30, 2))
    mean, std = gp_predict(model, Xq)
    mo, so = dense_oracle(model, X, y, Xq)
    return (np.allclose(mean, mo, rtol=1e-6, atol=1e-6 * model.y_std)
            and np.allclose(std, so, rtol=1e-6, atol=1e-6 * model.y_std))


def test_criterion_7_property_suites():
    ode_ok, worst = _error_ode_literal()
    report(7, [
        # the Euler integration residual is O(dt^2) and positive, roughly
        # 100x this tolerance; see the exact step-identity test in
        # test_plant.py and DISCREPANCIES.md
        ("energy non-increasing within 1e-6*E0", _energy_literal()),
        ("partition of unity + bounded outputs", _partition_and_boundedness()),
        ("zero-width fuzzy bounds reduce to plain PD", _flr_degeneracy()),
        # the reduced model's third row drops the motor-reference motion;
        # the recorded errors deviate from it by O(0.1), not 1e-6 — the
        # rows that are exact identities are tested in test_control.py
        (f"reduced error-model agreement <= 1e-6 (worst {worst:.3g})", ode_ok),
        ("GP matches dense-solve oracle to 1e-6", _gp_dense_oracle()),
    ])


# ---------------------------------------------------------------------------
# 8. determinism of the command line

def test_criterion_8_byte_identical_reruns(tmp_path):
    checks = []
    cases = [
        ("simulate", ["simulate", "--disturbance", "uniform", "--seed", "5"],
         ["_trajectory.csv", "_metrics.csv"]),
        ("analyze", ["analyze"], ["_analysis.csv"]),
        ("ablate", ["ablate", "--seed", "5"], ["_ablation.csv"]),
        ("tune", ["tune", "--stage", "pd", "--episodes", "12",
                  "--n-init", "10", "--tuner-seed", "2"],
         ["_history.csv", "_gains.txt"]),
    ]
    for name, args, suffixes in cases:
        outs = []
        for run_id in ("a", "b"):
            out = str(tmp_path / f"{name}_{run_id}")
            main(args + ["--out", out])
            outs.append(out)
        same = all((tmp_path / (f"{name}_a{s}")).read_bytes()
                   == (tmp_path / (f"{name}_b{s}")).read_bytes()
                   for s in suffixes)
        checks.append((name, same))
    report(8, checks)
