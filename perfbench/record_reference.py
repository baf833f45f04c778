"""Record perfbench/reference.json from the flexjoint sources in this checkout.

    python3 perfbench/record_reference.py

For each workload and each seed in SEEDS it runs the operations a benchmark
run checks and stores their outcomes: exit code and artifact sha256 per CLI
command, and a digest of the ten case outcomes per sweep round.  A run on a
recorded seed must reproduce them byte for byte.  Record again only when a
change is meant to alter flexjoint's outputs, and say so in that change.
"""

from __future__ import annotations

import json
import sys

from run import BENCH, ROOT, scratch

SEEDS = range(10)
SWEEP_ROUNDS = 128    # about 1.5 times the rounds of a 30 s run at the first record


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    from cli_workloads import CliOneshot, Context, TunePd
    from sweep import Sweep, round_digest

    reference = {"cli-oneshot": {}, "sweep": {}, "tune-pd": {}}
    with scratch() as work:
        ctx = Context(ROOT, work)
        for seed in SEEDS:
            for cls in (CliOneshot, TunePd):
                wl = cls(ctx, seed, None)
                for op in wl.ops:
                    wl.run_op(op)
                reference[cls.name][str(seed)] = wl.first
                fail(wl)
            sweep = Sweep(ctx, seed, None)
            for r in range(SWEEP_ROUNDS):
                sweep.check(r, sweep.run_round(r, []))
            reference["sweep"][str(seed)] = [round_digest(sweep.first[r])
                                             for r in range(SWEEP_ROUNDS)]
            fail(sweep)
            print(f"seed {seed} recorded", flush=True)
    (BENCH / "reference.json").write_text(json.dumps(reference, indent=1) + "\n")
    return 0


def fail(wl) -> None:
    if wl.problems:
        sys.exit(f"{wl.name}: " + "; ".join(wl.problems))


if __name__ == "__main__":
    sys.exit(main())
