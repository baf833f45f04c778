"""The two workloads that run flexjoint CLI commands.

``cli-oneshot`` repeats one cycle of short commands (simulate, analyze,
ablate) as ``python -m flexjoint.cli`` subprocesses; each command pays
interpreter start and package import, so the workload measures the import
graph and the CLI plumbing.  ``tune-pd`` repeats one ``tune --stage pd``
command, timed in the benchmark process (see ``TunePd``); most of its time
is the GP surrogate, and some is ``simulate`` on a disturbance table that
every episode replays.

Both are closed loops with one client: the next command starts when the
previous one has finished.  For a subprocess, an operation's wall time, CPU
time (user + system of the child and all its threads) and peak resident set
come from ``os.wait4`` on that child.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import math
import os
import random
import resource
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import speed
import tracer
from tracer import Trace

# Artifacts compared byte for byte.  ``_meta.json`` and any sidecar are left
# out on purpose: they may gain versions and timing without changing results.
ARTIFACTS = ("_trajectory.csv", "_metrics.csv", "_analysis.csv",
             "_ablation.csv", "_history.csv", "_gains.txt")
OP_TIMEOUT_S = 60.0

TUNE_EPISODES = 24         # fits the surrogate at n = 10 .. 23 (n_init = 10)
WARMUP_TUNE = ["tune", "--stage", "pd", "--episodes", "3", "--n-init", "2"]


@dataclass
class Context:
    """Where a run reads the program from and writes its scratch files."""

    root: Path       # the checkout: holds src/flexjoint and perfbench
    work: Path       # scratch directory of this run, inside the checkout
    env: dict = field(init=False)

    def __post_init__(self):
        path = os.environ.get("PYTHONPATH")
        src = str(self.root / "src")
        self.env = dict(os.environ, PYTHONPATH=f"{src}{os.pathsep}{path}" if path else src)


@dataclass
class OpResult:
    code: int
    wall_s: float
    cpu_s: float
    rss_mb: float
    out: Path
    artifacts: dict[str, str]
    stderr: str
    started: float = 0.0    # CLOCK_MONOTONIC seconds at the spawn


def digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def spawn(ctx: Context, argv: list[str], out: Path) -> OpResult:
    """Run ``python <argv>`` from the checkout, wait for it and hash the
    artifacts it wrote under the ``--out`` prefix ``out``."""
    err_path = ctx.work / "stderr.txt"
    with open(err_path, "wb") as err:
        started = time.clock_gettime(time.CLOCK_MONOTONIC)
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *argv], cwd=ctx.root, env=ctx.env,
                                stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                                stderr=err)
        killer = threading.Timer(OP_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return OpResult(proc.returncode, wall, usage.ru_utime + usage.ru_stime,
                    usage.ru_maxrss / 1024.0, out, artifacts(out),
                    err_path.read_text(errors="replace").strip(), started)


def artifacts(out: Path) -> dict[str, str]:
    """sha256 of each compared artifact written under the ``--out`` prefix."""
    return {suffix: digest(Path(f"{out}{suffix}")) for suffix in ARTIFACTS
            if Path(f"{out}{suffix}").exists()}


def read_rows(out: Path, suffix: str) -> list[list[str]]:
    """The data rows of a CSV artifact, header dropped."""
    lines = Path(f"{out}{suffix}").read_text().splitlines()
    return [line.split(",") for line in lines[1:]]


def cli_argv(args: list[str], out: Path, spans: Path | None = None,
             mark: Path | None = None) -> list[str]:
    """The child argv for one CLI command; with ``spans`` or ``mark`` it goes
    through the launcher instead of ``-m flexjoint.cli``."""
    args = [*args, "--out", str(out)]
    if spans is not None:
        return ["perfbench/launcher.py", str(spans), "--", *args]
    if mark is not None:
        return ["perfbench/launcher.py", "--mark", str(mark), "--", *args]
    return ["-m", "flexjoint.cli", *args]


@dataclass(frozen=True)
class Mark:
    """What ``launcher.py --mark`` writes: CLOCK_MONOTONIC and process CPU
    seconds at each point, and the median wall seconds of the kernel runs."""

    imported: float
    imported_cpu: float
    kernel_before: float
    main_start: float
    main_start_cpu: float
    main_end: float
    main_end_cpu: float
    kernel_after: float
    kernel_done: float
    kernel_done_cpu: float


@dataclass(frozen=True)
class CliOp:
    """One CLI command of a workload and the exit codes it may end with."""

    label: str
    args: tuple[str, ...]
    codes: tuple[int, ...]


class CliWorkload:
    """Shared loop of the CLI workloads.  Subclasses build ``ops`` from the
    workload seed."""

    name = ""
    per_command = 1          # operations one command counts for

    def __init__(self, ctx: Context, seed: int, reference: dict | None):
        self.ctx = ctx
        self.dir = Path(tempfile.mkdtemp(prefix=f"{self.name}-", dir=ctx.work))
        self.reference = reference   # label -> outcome, or None
        self.ops: list[CliOp] = []
        self.problems: list[str] = []
        self.first: dict[str, dict] = {}   # label -> outcome of its first run
        self._count = 0

    def _out(self, stem: str) -> Path:
        self._count += 1
        return self.dir / f"{stem}{self._count}"

    def setup_once(self) -> float:
        """One fresh interpreter that imports the package and runs the
        warm-up command; returns its wall time."""
        out = self._out("setup")
        res = spawn(self.ctx, cli_argv(self.warmup_args, out), out)
        if res.code != 0:
            raise RuntimeError(f"{self.name} warm-up exited {res.code}: {res.stderr}")
        return res.wall_s

    def run_op(self, op: CliOp, spans: Path | None = None,
               mark: Path | None = None) -> tuple[OpResult, bool]:
        out = self._out("op")
        res = spawn(self.ctx, cli_argv(list(op.args), out, spans, mark), out)
        return res, self.check(op, res)

    def check(self, op: CliOp, res: OpResult) -> bool:
        """Exit code and artifacts against the reference, or, for a seed
        without one, the documented invariants; every repeat of an op
        (traced runs included) must match its first run byte for byte."""
        before = len(self.problems)
        outcome = {"code": res.code, "artifacts": res.artifacts}
        if res.code not in op.codes:
            self.problems.append(f"{op.label}: exit {res.code} "
                                 f"(expected {op.codes}): {res.stderr[-300:]}")
        elif self.reference is not None:
            if self.reference.get(op.label) != outcome:
                self.problems.append(f"{op.label}: outputs differ from the reference")
        else:
            self.invariants(op, res)
        if self.first.setdefault(op.label, outcome) != outcome:
            self.problems.append(f"{op.label}: a repeat differs from its first run")
        return len(self.problems) == before

    def invariants(self, op: CliOp, res: OpResult) -> None:
        raise NotImplementedError

    def measure(self, seconds: float) -> dict:
        """Run the commands of ``ops`` in turn, over and over, until the next
        one would not fit in ``seconds`` (at least one); ``ops_each`` is the
        number of operations one command counts for.  Each command runs
        through the launcher's ``--mark`` and gives two samples (label,
        wall, CPU, speed scale), the kernel runs left out.  ``*#start`` is
        interpreter start and ``import flexjoint.cli``, the same for every
        command, scaled by the start kernel run before and after the
        command; ``<label>#run`` is ``main`` and the interpreter's exit,
        scaled by the compute kernel that the launcher runs in the
        command's own process before and after ``main``.  A command that
        leaves no mark is one sample, ``<label>``, scaled as a start."""
        samples, walls, rss, failed = [], [], 0.0, 0
        mark = self.ctx.work / "mark.txt"
        before = speed.spawn_kernel_s(self.ctx.env)
        t0 = time.perf_counter()
        k = 0
        while True:
            op = self.ops[k % len(self.ops)]
            mark.unlink(missing_ok=True)
            res, ok = self.run_op(op, mark=mark)
            after = speed.spawn_kernel_s(self.ctx.env)
            start_sc = speed.scale(before, after, speed.SPAWN_REFERENCE_S)
            before = after
            exited = res.started + res.wall_s
            if mark.exists():
                m = Mark(*(float(v) for v in mark.read_text().split()))
                run_sc = speed.scale(m.kernel_before, m.kernel_after)
                start = (m.imported - res.started, m.imported_cpu)
                run = ((m.main_end - m.main_start) + (exited - m.kernel_done),
                       (m.main_end_cpu - m.main_start_cpu)
                       + (res.cpu_s - m.kernel_done_cpu))
                samples += [("*#start", *start, start_sc),
                            (f"{op.label}#run", *run, run_sc)]
                walls.append((start[0] + run[0], start[0] * start_sc + run[0] * run_sc))
            else:
                samples.append((op.label, res.wall_s, res.cpu_s, start_sc))
                walls.append((res.wall_s, res.wall_s * start_sc))
            rss = max(rss, res.rss_mb)
            failed += not ok
            k += 1
            if time.perf_counter() - t0 + res.wall_s > seconds:
                break
        n = len(walls) * self.per_command
        return dict(samples=samples, op_walls=walls, ops_each=self.per_command,
                    peak_rss_mb=rss, attempted=n, failed=failed * self.per_command)

    def trace(self) -> dict:
        """Run ``ops`` once untraced, then once through the launcher.  The
        traced commands are repeats, so ``check`` requires their artifacts
        to match the untraced ones byte for byte."""
        ops = self.ops
        plain = [self.run_op(op)[0].wall_s for op in ops]
        trace = Trace()
        traced = []
        for op in ops:
            spans = self._out("spans").with_suffix(".npz")
            res, _ = self.run_op(op, spans)
            traced.append(res.wall_s)
            if spans.exists():
                trace.add_file(spans)
            else:
                self.problems.append(f"{op.label}: the launcher wrote no spans")
        # The spans must account for the wall time of the main() calls,
        # which the launcher times after import and wrapper installation.
        return dict(trace=trace, plain_s=sum(plain), traced_s=sum(traced),
                    op_wall_s=trace.scalars.get("main_s", 0.0),
                    attempted=2 * len(ops) * self.per_command)


class CliOneshot(CliWorkload):
    """simulate (fuzzy, disturbed), simulate (cascaded, quiet), simulate
    (single-pd, diverges: exit 2), analyze (bundled gains), analyze (a gains
    file drawn from the seed), ablate.  Disturbance seeds come from the
    workload seed."""

    name = "cli-oneshot"

    def __init__(self, ctx, seed, reference):
        super().__init__(ctx, seed, reference)
        rng = random.Random(seed)
        s1, s2 = rng.randrange(10 ** 6), rng.randrange(10 ** 6)
        gains = {"kp1": 52.19, "kd1": 10.18, "kp2": 144.5, "kd2": 8.636}
        gains_file = self.dir / "gains.txt"
        gains_file.write_text("".join(f"{k} = {v * rng.uniform(0.8, 1.2)!r}\n"
                                      for k, v in gains.items()))
        self.ops = [
            CliOp("simulate-fuzzy-uniform",
                  ("simulate", "--controller", "fuzzy-cascaded",
                   "--disturbance", "uniform", "--seed", str(s1)), (0,)),
            CliOp("simulate-cascaded-off",
                  ("simulate", "--controller", "cascaded", "--disturbance", "off"), (0,)),
            CliOp("simulate-single-pd", ("simulate", "--controller", "single-pd"), (2,)),
            CliOp("analyze-bundled", ("analyze",), (0,)),
            CliOp("analyze-gains-file", ("analyze", "--gains", str(gains_file)), (0, 3)),
            CliOp("ablate", ("ablate", "--seed", str(s2)), (0,)),
        ]

    warmup_args = ["analyze"]

    def invariants(self, op, res):
        expected = {"simulate": ["_metrics.csv", "_trajectory.csv"],
                    "analyze": ["_analysis.csv"], "ablate": ["_ablation.csv"]}
        names = [] if res.code == 2 else expected[op.args[0]]
        if sorted(res.artifacts) != names:
            self.problems.append(f"{op.label}: artifacts {sorted(res.artifacts)}")
        elif op.args[0] == "simulate" and names:
            cost = float(read_rows(res.out, "_metrics.csv")[0][0])
            if not math.isfinite(cost):
                self.problems.append(f"{op.label}: cost {cost}")
        elif op.args[0] == "ablate":
            for name, cost, _, _, status in read_rows(res.out, "_ablation.csv"):
                ok = status.startswith("diverged") if name == "single-PD" else status == "ok"
                if not ok or not math.isfinite(float(cost)):
                    self.problems.append(f"{op.label}: {name} {status} cost {cost}")


class TunePd(CliWorkload):
    """``tune --stage pd`` with TUNE_EPISODES episodes against a disturbance
    seed drawn from the workload seed, with the default tuner seed.

    Set-up and the traced run start the command as a subprocess.  The
    measured run calls ``flexjoint.cli.main`` with the same argv in this
    process, so that each episode can be timed next to a run of the
    compute kernel: a command takes seconds, and the machine's speed
    can change within it."""

    name = "tune-pd"
    per_command = TUNE_EPISODES

    def __init__(self, ctx, seed, reference):
        super().__init__(ctx, seed, reference)
        rng = random.Random(seed)
        self.ops = [CliOp("tune", ("tune", "--stage", "pd", "--episodes",
                                   str(TUNE_EPISODES), "--seed",
                                   str(rng.randrange(10 ** 6))), (0,))]

    warmup_args = WARMUP_TUNE

    def measure(self, seconds: float) -> dict:
        """One untimed tune in this process, then tunes until the next one
        would not fit in ``seconds`` (at least one).  Segment k of a tune,
        one sample labelled ``tune#k``, ends when the cost of episode k has
        been evaluated; the last segment ends when ``main`` returns.  The
        compute kernel runs between segments, outside them."""
        from flexjoint import cli, tuning
        clock = EpisodeClock()
        patches = [(module, key, getattr(module, key))
                   for module, key in tracer.bindings(tuning.make_pd_cost)]
        for module, key, original in patches:
            setattr(module, key, clock.wrap(original))
        try:
            self.run_in_process(cli, [*self.warmup_args, "--out",
                                      str(self._out("warm"))])
            samples, op_walls, failed, n = [], [], 0, 0
            t0 = time.perf_counter()
            while True:
                op = self.ops[0]
                out = self._out("op")
                clock.start()
                code, err = self.run_in_process(cli, [*op.args, "--out", str(out)])
                clock.lap()
                segments = clock.segments()
                samples += [(f"{op.label}#{k}", wall, cpu, sc)
                            for k, (wall, cpu, sc) in enumerate(segments)]
                wall = sum(w for w, _, _ in segments)
                cpu = sum(c for _, c, _ in segments)
                op_walls.append((wall, sum(w * sc for w, _, sc in segments)))
                res = OpResult(code, wall, cpu, 0.0, out, artifacts(out), err)
                failed += not self.check(op, res)
                n += 1
                if time.perf_counter() - t0 + wall > seconds:
                    break
        finally:
            for module, key, original in patches:
                setattr(module, key, original)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        return dict(samples=samples, op_walls=op_walls,
                    ops_each=self.per_command, peak_rss_mb=rss_mb,
                    attempted=n * self.per_command, failed=failed * self.per_command)

    @staticmethod
    def run_in_process(cli, argv: list[str]) -> tuple[int, str]:
        """``flexjoint.cli.main(argv)`` with its output captured; returns the
        exit code and what it wrote to standard error."""
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        return code, err.getvalue().strip()

    def invariants(self, op, res):
        if sorted(res.artifacts) != ["_gains.txt", "_history.csv"]:
            self.problems.append(f"{op.label}: artifacts {sorted(res.artifacts)}")
            return
        rows = [[float(v) for v in row] for row in read_rows(res.out, "_history.csv")]
        y = [r[-2] for r in rows]
        best = [r[-1] for r in rows]
        if len(rows) != TUNE_EPISODES:
            self.problems.append(f"{op.label}: {len(rows)} history rows")
        elif not all(math.isfinite(v) for r in rows for v in r):
            self.problems.append(f"{op.label}: non-finite history value")
        elif any(b != max(y[:i + 1]) for i, b in enumerate(best)):
            self.problems.append(f"{op.label}: best_y is not the running maximum")


class EpisodeClock:
    """Times the segments of a tune: ``start`` opens the first, and each
    evaluation of a cost closure that the wrapped ``make_pd_cost`` returns,
    and ``lap``, close one.  Between segments it runs the calibration
    kernel.  These are the only instrumentation of an untraced ``tune-pd``
    run: two clock readings and one kernel run per episode."""

    def __init__(self):
        self.laps: list[tuple[float, float]] = []   # (wall, CPU) seconds
        self.kernels: list[float] = []
        self.start()

    def start(self) -> None:
        self.laps.clear()
        self.kernels[:] = [speed.kernel_s()]
        self._t = (time.perf_counter(), time.process_time())

    def lap(self) -> None:
        wall, cpu = time.perf_counter(), time.process_time()
        self.laps.append((wall - self._t[0], cpu - self._t[1]))
        self.kernels.append(speed.kernel_s())
        self._t = (time.perf_counter(), time.process_time())

    def segments(self) -> list[tuple[float, float, float]]:
        """(wall, CPU, speed scale) of each segment since ``start``."""
        return [(wall, cpu, speed.scale(k0, k1)) for (wall, cpu), k0, k1
                in zip(self.laps, self.kernels, self.kernels[1:])]

    def wrap(self, make_cost):
        @functools.wraps(make_cost)
        def make(*args, **kwargs):
            cost = make_cost(*args, **kwargs)

            def timed(x):
                try:
                    return cost(x)
                finally:
                    self.lap()
            return timed
        return make
