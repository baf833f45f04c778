"""The flexjoint benchmark.

    python3 perfbench/run.py --workload {cli-oneshot,sweep,tune-pd} \
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout; the program is taken from ``src/`` there.
With ``--trace 0`` it sets up, measures for S seconds with tracing off and
prints the end-to-end metrics; with ``--trace 1`` it runs a fixed list of
operations untraced and then traced and prints the per-layer metrics.
Either way it checks the program's outputs, prints a readable report and
the machine facts, and ends with one JSON line:
``{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}``.
See perfbench/README.md for the workloads and what each metric should move.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import platform
import shutil
import statistics
import sys
import tempfile
from importlib import metadata
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_work"

WORKLOADS = ("cli-oneshot", "sweep", "tune-pd")
SETUP_REPEATS = 3        # fresh interpreters timed for setup_s
IMPORT_REPEATS = 3       # fresh interpreters per import probe
TAIL_MIN_SAMPLES = 100   # op_tail_s is reported from p90 upwards only
ACCOUNTING_TOLERANCE = 0.10

# One BLAS thread in this process and every child.  On a few shared cores a
# second BLAS thread times the scheduler, not the program; flexjoint's
# outputs do not depend on the thread count.
ONE_BLAS_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                   "MKL_NUM_THREADS": "1"}

END_TO_END = {"setup_s": "s", "ops_per_s": "1/s", "op_p50_s": "s",
              "cpu_per_op_s": "s", "peak_rss_mb": "MB"}

IMPORT_PROBE = ("import sys, flexjoint.cli; open(sys.argv[1], 'w').write("
                "f'{len(sys.modules)} "
                "{sum(m.startswith(\"scipy\") for m in sys.modules)}')")


def unit(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith(".bytes"):
        return "bytes"
    return "count"


def machine_facts() -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": blas.get("openblas configuration", ""),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "loadavg_start": loadavg(),
    }


def loadavg() -> str:
    return " ".join(Path("/proc/loadavg").read_text().split()[:3])


def tail(walls: list[float]) -> tuple[float, float] | None:
    """(percentile, value) of the highest percentile with at least ten
    samples beyond it, or None when there are too few samples."""
    n = len(walls)
    if n < TAIL_MIN_SAMPLES:
        return None
    k = n - 10
    return 100.0 * k / n, sorted(walls)[k - 1]


@contextlib.contextmanager
def scratch():
    """A fresh scratch directory under WORK, removed with WORK when done."""
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=WORK))
    try:
        yield work
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()


def make_workload(name: str, ctx, seed: int, reference):
    from cli_workloads import CliOneshot, TunePd
    if name == "sweep":
        from sweep import Sweep
        return Sweep(ctx, seed, reference)
    return {"cli-oneshot": CliOneshot, "tune-pd": TunePd}[name](ctx, seed, reference)


def per_operation(samples: list[tuple[str, float, float]]) -> dict[str, tuple[float, float]]:
    """Per operation, the median wall time and median CPU time of its
    repeats in the run.  A label ``op#k`` is segment k of operation ``op``,
    and ``*#k`` a segment that every operation has; the medians of an
    operation's segments are summed."""
    repeats: dict[str, list[tuple[float, float]]] = {}
    for label, wall, cpu in samples:
        repeats.setdefault(label, []).append((wall, cpu))
    med = {label: (statistics.median(w for w, _ in v), statistics.median(c for _, c in v))
           for label, v in repeats.items()}
    shared = [v for label, v in med.items() if label.startswith("*#")]
    ops: dict[str, tuple[float, float]] = {}
    for label, (wall, cpu) in med.items():
        op = label.split("#")[0]
        if op != "*":
            w, c = ops.get(op, (sum(v[0] for v in shared), sum(v[1] for v in shared)))
            ops[op] = (w + wall, c + cpu)
    return ops


def timing(ops: dict[str, tuple[float, float]], op_walls: list[float],
           ops_each: int) -> dict[str, float]:
    """The timing metrics from each distinct operation's medians and from
    the wall time of every operation of the run."""
    n = ops_each * len(ops)
    return {"ops_per_s": n / sum(w for w, _ in ops.values()),
            "op_p50_s": statistics.median(op_walls),
            "cpu_per_op_s": sum(c for _, c in ops.values()) / n}


def end_to_end(wl, seconds: float, report: list[str]) -> tuple[dict, int, int]:
    """Set-up and the measured run, timed in reference seconds (see
    speed.py), with the measured seconds beside them in the report.  Each
    set-up starts an interpreter, so the start kernel brackets it."""
    import speed
    setup = []                  # (wall seconds, speed scale)
    before = speed.spawn_kernel_s(wl.ctx.env)
    for _ in range(SETUP_REPEATS):
        wall = wl.setup_once()
        after = speed.spawn_kernel_s(wl.ctx.env)
        setup.append((wall, speed.scale(before, after, speed.SPAWN_REFERENCE_S)))
        before = after
    m = wl.measure(seconds)
    samples = m["samples"]
    ops = per_operation([(label, w * sc, c * sc) for label, w, c, sc in samples])
    measured = {"setup_s": statistics.median(w for w, _ in setup),
                **timing(per_operation([s[:3] for s in samples]),
                         [w for w, _ in m["op_walls"]], m["ops_each"])}
    values = {"setup_s": statistics.median(w * sc for w, sc in setup),
              **timing(ops, [ref for _, ref in m["op_walls"]], m["ops_each"]),
              "peak_rss_mb": m["peak_rss_mb"]}
    report += [f"  {k:<14} {v:.6g} {END_TO_END[k]}" + (
        f"  (measured {measured[k]:.6g})" if k in measured else "")
        for k, v in values.items()]
    scales = sorted(s[3] for s in samples)
    report.append(f"  machine speed  {scales[0]:.3f}..{scales[-1]:.3f} of reference, "
                  f"median {statistics.median(scales):.3f}")
    walls = [w for w, _ in m["op_walls"]]
    report.append(f"  {len(samples)} samples of {len(ops)} distinct operations, "
                  f"{len(walls)} operations")
    t = tail(walls)
    report.append(f"  {'op_tail_s':<14} " + (
        f"{t[1]:.6g} s at p{t[0]:.2f} ({len(walls)} samples, 10 beyond)" if t
        else f"not defined: {len(walls)} samples < {TAIL_MIN_SAMPLES}"))
    report.append(f"  {'failed_ratio':<14} {m['failed'] / m['attempted']:.6g} ratio "
                  f"({m['failed']} of {m['attempted']})")
    report.append(f"  setup samples  {', '.join(f'{w:.4f}' for w, _ in setup)} s")
    return values, m["attempted"], m["failed"]


def import_metrics(ctx) -> dict:
    from cli_workloads import spawn
    counts = ctx.work / "import_counts.txt"
    bare = [spawn(ctx, ["-c", "pass"], ctx.work / "x").wall_s
            for _ in range(IMPORT_REPEATS)]
    full = [spawn(ctx, ["-c", IMPORT_PROBE, str(counts)], ctx.work / "x").wall_s
            for _ in range(IMPORT_REPEATS)]
    modules, scipy_modules = (float(v) for v in counts.read_text().split())
    return {"import.flexjoint_cli_s": statistics.median(full) - statistics.median(bare),
            "import.scipy_modules": scipy_modules,
            "import.modules": modules}


def per_layer(wl, ctx, report: list[str]) -> tuple[dict, int, int]:
    from tracer import layer_metrics
    wl.setup_once()
    problems_before = len(wl.problems)
    t = wl.trace()
    values = layer_metrics(t["trace"])
    values.update(import_metrics(ctx))
    values["trace.overhead_s"] = t["traced_s"] - t["plain_s"]
    ratio = t["trace"].traced_seconds() / t["op_wall_s"] if t["op_wall_s"] else 0.0
    values["trace.accounting_ratio"] = ratio
    if abs(ratio - 1.0) > ACCOUNTING_TOLERANCE:
        wl.problems.append(f"self times cover {ratio:.3f} of the traced operation "
                           f"wall time, outside 1 +- {ACCOUNTING_TOLERANCE}")
    report += [f"  {k:<42} {v:.6g} {unit(k)}" for k, v in values.items()]
    report.append(f"  untraced {t['plain_s']:.4f} s, traced {t['traced_s']:.4f} s "
                  f"over the same operations")
    report += t.get("report", [])
    failed = t["attempted"] if len(wl.problems) > problems_before else 0
    return values, t["attempted"], failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[1])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "flexjoint" / "cli.py").is_file():
        print(f"error: no flexjoint sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    os.environ.update(ONE_BLAS_THREAD)     # before numpy is first imported
    # One CPU for this process and its children, so that the calibration
    # kernel runs where the timed work runs.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    sys.path.insert(0, str(ROOT / "src"))
    from cli_workloads import Context

    reference = json.loads((BENCH / "reference.json").read_text())
    reference = reference[args.workload].get(str(args.seed))
    facts = machine_facts()
    report = [f"workload {args.workload} seed {args.seed} trace {args.trace} "
              f"reference {'yes' if reference is not None else 'no (invariants)'}"]
    with scratch() as work:
        ctx = Context(ROOT, work)
        wl = make_workload(args.workload, ctx, args.seed, reference)
        if args.trace:
            values, attempted, failed = per_layer(wl, ctx, report)
            units = {k: unit(k) for k in values}
        else:
            values, attempted, failed = end_to_end(wl, args.seconds, report)
            units = END_TO_END
    facts["loadavg_end"] = loadavg()
    for problem in wl.problems:
        print(f"problem: {problem}", file=sys.stderr)
    print("\n".join(report))
    print("machine " + json.dumps(facts))
    print(json.dumps({"correct": not wl.problems, "attempted": attempted,
                      "failed": failed,
                      "metrics": {k: {"value": v, "unit": units[k]}
                                  for k, v in values.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
