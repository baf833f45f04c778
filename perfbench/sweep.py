"""The ``sweep`` workload: closed-loop episodes in one process.

One round runs every ``ControllerKind`` with the disturbance off and with a
uniform disturbance under one seed; each case is ``simulate`` followed by
``compute_metrics``, and each case is one operation.  Every round draws a
fresh disturbance seed from the workload seed, so a disturbance table is
shared only by the five controllers of its round.  The time goes to
``control``, ``plant``, ``fuzzy`` and ``metrics``: no import, no GP.

    python perfbench/sweep.py SEED

imports the package and runs the warm-up round in a fresh interpreter; the
benchmark times that as one set-up sample.
"""

from __future__ import annotations

import hashlib
import random
import resource
import sys
import time

from flexjoint import control, metrics
from flexjoint.cli import SINGLE_PD_GAINS, TUNED_FLR_BOUNDS
from flexjoint.plant import DisturbanceModel, PlantParams, SimConfig

import speed
from cli_workloads import Context, spawn
from tracer import NAMES, Trace, Tracer

TRACE_ROUNDS = 10   # rounds in each pass of a traced run

PARAMS = PlantParams()
SIM = SimConfig()
REF = control.Reference(kind="square")
KINDS = tuple(control.ControllerKind)


def round_digest(outcomes: list[str]) -> str:
    """Short digest of one round's outcome strings, as kept in the reference."""
    return hashlib.sha256("\n".join(outcomes).encode()).hexdigest()[:16]


class Sweep:
    name = "sweep"

    def __init__(self, ctx: Context | None, seed: int, reference: list[str] | None):
        self.ctx = ctx
        self.seed = seed
        self.reference = reference   # round digests, or None
        self.problems: list[str] = []
        self._rng = random.Random(seed)
        self._seeds: list[int] = []
        self.first: dict[int, list[str]] = {}   # round -> outcomes of its first run

    def setup_once(self) -> float:
        """A fresh interpreter that imports the package and runs the warm-up
        round; returns its wall time."""
        res = spawn(self.ctx, ["perfbench/sweep.py", str(self.seed)],
                    self.ctx.work / "setup")
        if res.code != 0:
            raise RuntimeError(f"sweep warm-up exited {res.code}: {res.stderr}")
        return res.wall_s

    def disturbance_seed(self, r: int) -> int:
        while len(self._seeds) <= r:
            s = self._rng.randrange(10 ** 6)
            if s not in self._seeds:
                self._seeds.append(s)
        return self._seeds[r]

    def cases(self, r: int):
        seed = self.disturbance_seed(r)
        for kind in KINDS:
            ctrl = control.Controller(kind=kind, flr_bounds=TUNED_FLR_BOUNDS,
                                      single_gains=SINGLE_PD_GAINS)
            for dist in ("off", "uniform"):
                yield kind, ctrl, DisturbanceModel(kind=dist, seed=seed)

    def run_round(self, r: int, samples: list, tracer: Tracer | None = None):
        """Run round ``r``, append one sample per case to ``samples``:
        (case label, wall seconds, CPU seconds, speed scale, from the
        compute kernel run before and after the case); return the
        outcome strings."""
        outcomes = []
        before = speed.kernel_s()
        for kind, ctrl, dist in self.cases(r):
            if tracer is not None:
                tracer.op_id += 1
            c0 = time.process_time()
            t0 = time.perf_counter()
            try:
                traj = control.simulate(PARAMS, SIM, ctrl, REF, dist)
                out = repr(metrics.compute_metrics(traj, REF))
            except control.DivergedTrajectory as exc:
                out = f"diverged at step {exc.sim_step}"
            wall, cpu = time.perf_counter() - t0, time.process_time() - c0
            after = speed.kernel_s()
            samples.append((f"{kind.value}/{dist.kind}", wall, cpu,
                            speed.scale(before, after)))
            before = after
            outcomes.append(out)
        return outcomes

    def check(self, r: int, outcomes: list[str]) -> bool:
        """Outcomes against the reference round digest when there is one;
        the single-pd cases must diverge, the others must not and must have
        finite metrics (the settling time may be nan); a repeated round must
        match its first run exactly."""
        before = len(self.problems)
        for (kind, _, dist), out in zip(self.cases(r), outcomes):
            if kind is control.ControllerKind.SINGLE_PD:
                bad = not out.startswith("diverged")
            else:
                bad = out.startswith("diverged") or "inf" in out or (
                    "nan" in out.replace("settling_time=nan", ""))
            if bad:
                self.problems.append(f"round {r} {kind.value} {dist.kind}: {out}")
        if self.reference is not None and r < len(self.reference):
            if round_digest(outcomes) != self.reference[r]:
                self.problems.append(f"round {r}: outcomes differ from the reference")
        if self.first.setdefault(r, outcomes) != outcomes:
            self.problems.append(f"round {r}: a repeat differs from its first run")
        return len(self.problems) == before

    def warm_up(self) -> None:
        self.check(0, self.run_round(0, []))

    def measure(self, seconds: float) -> dict:
        """Warm up in this process (untimed), then run rounds until the next
        one would not fit in ``seconds`` (at least one)."""
        self.warm_up()
        samples, failed = [], 0
        t0 = time.perf_counter()
        r = 0
        while True:
            s0 = time.perf_counter()
            outcomes = self.run_round(r, samples)
            if not self.check(r, outcomes):
                failed += len(outcomes)
            r += 1
            now = time.perf_counter()
            if now - t0 + (now - s0) > seconds:
                break
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        return dict(samples=samples, op_walls=[(s[1], s[1] * s[3]) for s in samples],
                    ops_each=1,
                    peak_rss_mb=rss_mb, attempted=len(samples), failed=failed)

    def trace(self) -> dict:
        """TRACE_ROUNDS rounds untraced, then the same rounds traced; the
        traced outcomes are repeats and must match byte for byte."""
        self.warm_up()
        plain, traced = [], []
        for r in range(TRACE_ROUNDS):
            self.check(r, self.run_round(r, plain))
        tracer = Tracer()
        tracer.install()
        try:
            for r in range(TRACE_ROUNDS):
                self.check(r, self.run_round(r, traced, tracer))
        finally:
            tracer.uninstall()
        trace = Trace()
        trace.add_tracer(tracer)
        plain_s, traced_s = (sum(s[1] for s in x) for x in (plain, traced))
        return dict(trace=trace, plain_s=plain_s, traced_s=traced_s,
                    op_wall_s=traced_s, attempted=len(plain) + len(traced),
                    report=simulate_per_case(trace, list(self.cases(0))))


def simulate_per_case(trace: Trace, cases) -> list[str]:
    """Mean inclusive ``simulate`` time of each case of a round, from the
    traced pass (operation ids count cases from 1)."""
    a = trace.parts[0]
    sim = a["name"] == NAMES.index("control.simulate")
    case = (a["op"][sim] - 1) % len(cases)
    dur = (a["end"] - a["start"])[sim]
    return [f"  simulate {kind.value:<15} disturbance {dist.kind:<8} "
            f"{1e3 * dur[case == i].mean():.3f} ms inclusive, traced"
            for i, (kind, _, dist) in enumerate(cases)]


if __name__ == "__main__":
    sweep = Sweep(None, int(sys.argv[1]), None)
    sweep.warm_up()
    sys.exit(1 if sweep.problems else 0)
