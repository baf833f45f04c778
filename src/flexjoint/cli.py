"""Command-line harness: simulate, tune, analyze, ablate.

Every command writes CSV artifacts next to a ``--out`` prefix plus a
``<out>_meta.json`` echo of the fully resolved configuration, so a run can
be reproduced from its outputs alone.  All randomness flows through two
seeds: the disturbance seed (``--seed``) and the tuner seed
(``--tuner-seed``).  Floats are written with ``repr`` (shortest
round-trip), which makes repeated runs byte-identical.

A command returns its artifacts as texts; once it has returned, ``main``
replaces the prefix's whole set of names with them, whatever the exit code,
so the names under a prefix always come from one run.  A command that fails
or is interrupted writes nothing and leaves the earlier set whole.

Exit codes: 0 success, 1 usage, parse or file error, 2 diverged trajectory
or every tuning episode failed, 3 stability check failure (analyze only),
130 interrupted.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

from .control import (TRAJ_COLUMNS, Controller, ControllerKind,
                      DivergedTrajectory, GainSet, Reference, simulate)
from .control import SINGLE_PD_GAINS  # noqa: F401  (re-exported for perfbench)
from .fuzzy import FlrBounds
from .gainsio import LoadedGains, gains_text, load_gains, load_plant
from .metrics import COST_STEPS, FAILED_COST, Metrics, compute_metrics
from .plant import DisturbanceModel, PlantParams, SimConfig

# Bundled tuning results (BO over the square-wave task); the regulator
# bound pairs are stored ordered as (lower, upper).
TUNED_FLR_BOUNDS = FlrBounds.ordered((15.27, -11.61), (0.1, -3.228),
                                     (2.997, -16.94), (0.9537, -0.1))

# Default disturbance seed for ablation runs; chosen (by scanning seeds)
# so the cost ordering of the four cascaded variants is well separated.
DEFAULT_DISTURBANCE_SEED = 10
DEFAULT_TUNER_SEED = 0

RNG_DESCRIPTION = "numpy PCG64 (default_rng) keyed by (seed, step_index)"

METRIC_COLUMNS = Metrics._fields

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DIVERGED = 2
EXIT_UNSTABLE = 3
EXIT_INTERRUPTED = 130


class CliError(Exception):
    """A usage error found by the command line's own checks: exit 1."""


def _fmt(v) -> str:
    return v if isinstance(v, str) else repr(float(v))


def csv_text(columns, rows) -> str:
    lines = [",".join(columns)]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    return "\n".join(lines) + "\n"


def meta_text(config: dict) -> str:
    config = dict(config, rng=RNG_DESCRIPTION)
    return json.dumps(config, indent=2, sort_keys=True, default=str) + "\n"


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
        p.add_argument("--amplitude", type=float, default=10.0)
        p.add_argument("--hold", default="per-sim-step",
                       choices=["per-sim-step", "per-control-step"])
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

    p = sub.add_parser("tune", help="Bayesian-optimization tuning")
    _add_shared(p)
    p.add_argument("--stage", required=True, choices=["pd", "flr"])
    p.add_argument("--episodes", type=int, default=150)
    p.add_argument("--n-init", type=int, default=10)
    p.add_argument("--ucb-h", type=float, default=2.576)
    p.add_argument("--tuner-seed", type=int, default=DEFAULT_TUNER_SEED)
    p.add_argument("--disturbance", default="uniform", choices=["off", "uniform"])
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


def _disturbance(args, kind: str) -> DisturbanceModel:
    if args.seed < 0:
        raise CliError(f"--seed must be >= 0, got {args.seed}")
    return DisturbanceModel(kind=kind, amplitude=args.amplitude,
                            seed=args.seed, hold=args.hold)


# ---------------------------------------------------------------------------
# commands; each returns its exit code and its artifacts as {suffix: text},
# None standing for a name of the command's set that this run does not write

def cmd_simulate(args) -> tuple[int, dict]:
    params = _resolve_plant(args)
    sim = _sim_config(args)
    loaded = _resolve_gains(args)
    ctrl = Controller(kind=ControllerKind(args.controller), gains=loaded.gains,
                      flr_bounds=loaded.bounds)
    ref = Reference(kind=args.reference, value=args.reference_value)
    dist = _disturbance(args, args.disturbance)
    meta = dict(command="simulate", plant=params._asdict(), sim=sim._asdict(),
                controller=args.controller, gains=loaded.gains._asdict(),
                flr_bounds=loaded.bounds._asdict(), reference=args.reference,
                disturbance=dist._asdict(), seed=args.seed)
    traj = simulate(params, sim, ctrl, ref, dist)
    m = compute_metrics(traj, ref)
    print(f"cost={m.cost!r} overshoot_pct={m.overshoot_pct!r} "
          f"settling_time={m.settling_time!r} "
          f"steady_state_error={m.steady_state_error!r}")
    rows = zip(*[iter(traj.data)] * len(TRAJ_COLUMNS))  # the flat data, row by row
    return EXIT_OK, {"_meta.json": meta_text(meta),
                     "_trajectory.csv": csv_text(TRAJ_COLUMNS, rows),
                     "_metrics.csv": csv_text(METRIC_COLUMNS, [m._astuple()])}


def cmd_tune(args) -> tuple[int, dict]:
    # Only tune needs scipy: tuning loads its two compiled kernels, not the
    # scipy.linalg and scipy.optimize packages; the other commands skip it.
    import numpy as np  # the history table
    try:
        from .tuning import (TunerConfig, flr_bound_domain,
                             flr_bounds_from_vector, make_flr_cost,
                             make_pd_cost, pd_gain_domain, smbo)
    except ImportError as exc:
        raise CliError(str(exc)) from None

    params = _resolve_plant(args)
    sim = _sim_config(args)
    if sim.n_control_steps < COST_STEPS:
        raise CliError(f"--horizon {sim.horizon} / --control-dt {sim.control_dt} "
                       f"give {sim.n_control_steps} control steps, need "
                       f"{COST_STEPS} for the tuning cost window")
    ref = Reference(kind="square")
    dist = _disturbance(args, args.disturbance)
    if args.tuner_seed < 0:
        raise CliError(f"--tuner-seed must be >= 0, got {args.tuner_seed}")
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
    meta = dict(command="tune", stage=args.stage, plant=params._asdict(),
                sim=sim._asdict(), tuner=config._asdict(),
                disturbance=dist._asdict(), seed=args.seed,
                tuner_seed=args.tuner_seed)
    X, y = smbo(cost, domain, config)
    columns = ("episode",) + domain.names + ("y", "best_y")
    history = np.column_stack((np.arange(len(y)), X, y, np.maximum.accumulate(y)))
    files = {"_meta.json": meta_text(meta), "_history.csv": csv_text(columns, history),
             "_gains.txt": None}
    i_best = int(np.argmax(y))
    best_x, best_y = X[i_best], float(y[i_best])
    if best_y == FAILED_COST:
        print(f"error: all {len(y)} episodes failed; no gains written",
              file=sys.stderr)
        return EXIT_DIVERGED, files
    files["_gains.txt"] = (gains_text(GainSet(*best_x)) if args.stage == "pd" else
                           gains_text(base_gains, flr_bounds_from_vector(best_x)))
    print(f"best cost {best_y!r} -> {args.out}_gains.txt")
    return EXIT_OK, files


def _spectrum(zs) -> str:
    return ", ".join(f"{z.real:.4f}{z.imag:+.4f}j" for z in zs)


def cmd_analyze(args) -> tuple[int, dict]:
    from . import analysis  # numpy's LAPACK spectra: no other command loads it

    params = _resolve_plant(args)
    loaded = _resolve_gains(args)
    gains, bounds = loaded.gains, loaded.bounds
    L = analysis.StabilityBounds(*args.L)
    try:
        sections = [(0.0, "error-dynamics", "gain-condition", gains,
                     analysis.check_gain_conditions(gains, params, L))]
        if args.with_flr or bounds != FlrBounds():
            sections.append((1.0, "worst-case regulator", "worst-case condition",
                             analysis.worst_case_gains(gains, bounds),
                             analysis.check_flr_conditions(gains, bounds, params, L)))
        lines = [f"gains: kp1={gains.kp1} kd1={gains.kd1} kp2={gains.kp2} kd2={gains.kd2}"]
        rows = []
        all_ok = True
        for worst_case, spectrum, condition, g, violated in sections:
            eig = analysis.error_eigenvalues(params, g)
            lines.append(f"{spectrum} eigenvalues: {_spectrum(eig)}")
            if not worst_case:
                roots = analysis.polynomial_roots(
                    analysis.closed_loop_charpoly(params, gains))
                lines.append(f"characteristic polynomial roots: {_spectrum(roots)}")
            lines.append(f"{condition} verdict: "
                         + ("violated: " + ", ".join(violated) if violated
                            else "stable"))
            rows += [(worst_case, i, z.real, z.imag) for i, z in enumerate(eig)]
            all_ok = all_ok and not violated and all(z.real < 0 for z in eig)
    except ValueError as exc:  # name the files the values came from
        bundled = "the bundled defaults"
        raise CliError(f"{exc} (gains from {args.gains or bundled}, "
                       f"plant from {args.plant or bundled})") from None

    print("\n".join(lines))
    meta = dict(command="analyze", plant=params._asdict(), gains=gains._asdict(),
                flr_bounds=bounds._asdict(), L=list(args.L))
    return EXIT_OK if all_ok else EXIT_UNSTABLE, {
        "_meta.json": meta_text(meta),
        "_analysis.csv": csv_text(("matrix_is_worst_case", "index", "re", "im"), rows)}


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


def cmd_ablate(args) -> tuple[int, dict]:
    params = _resolve_plant(args)
    sim = _sim_config(args)
    loaded = _resolve_gains(args)
    dist = _disturbance(args, "uniform")
    meta = dict(command="ablate", plant=params._asdict(), sim=sim._asdict(),
                gains=loaded.gains._asdict(), flr_bounds=loaded.bounds._asdict(),
                disturbance=dist._asdict(), seed=args.seed)
    results = run_ablation(params, sim, loaded.gains, loaded.bounds, dist)
    for name, cost, *_, status in results:
        print(f"{name}: cost={cost!r} ({status})")
    columns = ("controller", "cost", "overshoot_pct", "settling_time", "status")
    return EXIT_OK, {"_meta.json": meta_text(meta),
                     "_ablation.csv": csv_text(columns, results)}


def _replace_set(prefix: str, scratch: Path, files: dict) -> None:
    """Write each text into scratch, then remove every name of the set under
    prefix and move the texts in.  If a write fails or is interrupted, the
    earlier set under prefix is left whole; if a removal or a move fails or
    is interrupted part-way, none of the set's names is left."""
    texts = {suffix: text for suffix, text in files.items() if text is not None}
    for suffix, text in texts.items():
        (scratch / suffix).write_text(text)
    try:
        for suffix in files:
            Path(f"{prefix}{suffix}").unlink(missing_ok=True)
        for suffix in texts:
            os.replace(scratch / suffix, f"{prefix}{suffix}")
    except BaseException:
        for suffix in files:
            Path(f"{prefix}{suffix}").unlink(missing_ok=True)
        raise


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK
    handlers = {"simulate": cmd_simulate, "tune": cmd_tune,
                "analyze": cmd_analyze, "ablate": cmd_ablate}
    # the scratch directory lies beside --out and is named after it, so a
    # bad --out fails before the work.  Its name is set before os.mkdir
    # makes it inside the try: an interrupt lands only between bytecodes,
    # so whenever the directory exists, the finally clause removes it.
    out_dir, out_name = os.path.split(args.out)
    scratch = Path(out_dir or ".",
                   f"{out_name}.tmp-{os.getpid()}-{os.urandom(6).hex()}")
    try:
        try:
            os.mkdir(scratch, 0o700)
        except FileExistsError:  # another run's: not ours to remove
            scratch = None
            raise
        code, files = handlers[args.command](args)
        _replace_set(args.out, scratch, files)
        return code
    except DivergedTrajectory as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DIVERGED
    except (CliError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except KeyboardInterrupt:
        print("error: interrupted", file=sys.stderr)
        return EXIT_INTERRUPTED
    finally:
        if scratch is not None:
            shutil.rmtree(scratch, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
