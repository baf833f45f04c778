"""Run one flexjoint CLI command with the span tracer or a clock mark.

    python perfbench/launcher.py SPANS.npz -- <flexjoint cli arguments>
    python perfbench/launcher.py --mark MARK.txt -- <flexjoint cli arguments>

The argv after ``--`` is exactly what ``python -m flexjoint.cli`` would get.
The launcher imports ``flexjoint.cli`` and calls ``flexjoint.cli.main(argv)``
and exits with main's code.  With SPANS.npz it installs the tracer's
wrappers first and writes the spans, with the wall time of the ``main``
call, to that file.  With ``--mark`` it imports nothing else before
``flexjoint.cli``, runs the compute kernel of ``speed.py`` before and
after ``main``, and writes to MARK.txt the fields of
``cli_workloads.Mark``: the CLOCK_MONOTONIC and process CPU times at which
the import had finished, ``main`` started and ended and the last kernel run
was done, and the kernel's times.
"""

import sys
import time


def traced(spans_path: str, argv: list[str]) -> int:
    import flexjoint.cli
    from tracer import Tracer
    tracer = Tracer()
    tracer.install()
    t0 = time.perf_counter()
    code = flexjoint.cli.main(argv)
    main_s = time.perf_counter() - t0
    tracer.save(spans_path, main_s=main_s)
    return code


def clocks() -> list[float]:
    return [time.clock_gettime(time.CLOCK_MONOTONIC), time.process_time()]


def marked(mark_path: str, argv: list[str]) -> int:
    import flexjoint.cli
    mark = clocks()
    import speed
    mark.append(speed.kernel_s(speed.BRACKET_RUNS))
    mark += clocks()
    code = flexjoint.cli.main(argv)
    mark += clocks()
    mark.append(speed.kernel_s(speed.BRACKET_RUNS))
    mark += clocks()
    with open(mark_path, "w") as f:
        f.write(" ".join(repr(v) for v in mark) + "\n")
    return code


if __name__ == "__main__":
    if sys.argv[1:2] == ["--mark"] and sys.argv[3:4] == ["--"]:
        sys.exit(marked(sys.argv[2], sys.argv[4:]))
    if len(sys.argv) < 3 or sys.argv[2] != "--":
        sys.exit("usage: launcher.py {SPANS.npz | --mark MARK.txt} -- "
                 "<flexjoint cli arguments>")
    sys.exit(traced(sys.argv[1], sys.argv[3:]))
