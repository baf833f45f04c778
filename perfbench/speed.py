"""How fast the machine runs at a given moment, from calibration kernels.

The timing metrics are given in reference seconds: an operation's measured
time, scaled by how fast the machine ran while it ran.  The speed comes from
fixed kernels that the benchmark times just before and just after each
timed piece of work, on the same CPU (``run.py`` pins the benchmark and its
children to one).  The compute kernel does the two kinds of work
flexjoint's computing time goes to, numpy arithmetic on small arrays and
Python object churn; the start kernel starts an interpreter and imports
numpy, as every CLI command and set-up does.  Neither uses anything of
flexjoint, so no change to flexjoint moves them.

A shared machine runs everything slower for seconds to minutes at a time,
CPU time included; a work item and a kernel of its kind next to it slow down
together, so their ratio holds while each alone does not.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
import time

import numpy as np

NUMPY_LOOPS = 500
OBJECT_LOOPS = 2_000
BRACKET_RUNS = 5          # kernel runs on each side of a subprocess command
# The compute kernel's best time on the machine the benchmark was defined on
# (2 cores of an Intel Xeon at 2.1 GHz, Python 3.11.7, numpy 2.4.6).  A
# reference second is a second of that machine running at that speed.
REFERENCE_S = 2.7e-3
# The same for the start kernel: a value a little under its best time seen
# on that machine, 0.14 s.
SPAWN_REFERENCE_S = 0.12


def kernel_s(runs: int = 1) -> float:
    """Median wall seconds of ``runs`` runs of the compute kernel.  One
    run suits work timed many times over, whose samples the metrics take
    the median of; work timed a few times is bracketed by several."""
    walls = []
    for _ in range(runs):
        t0 = time.perf_counter()
        a, m = np.arange(4.0), np.eye(4)
        for _ in range(NUMPY_LOOPS):
            a = a + 0.001 * (m @ a)
            float(a.sum())
        d: dict[int, tuple[int, str]] = {}
        for i in range(OBJECT_LOOPS):
            d[i % 97] = (i, str(i))
            [d.get(j) for j in range(3)]
        walls.append(time.perf_counter() - t0)
    return statistics.median(walls)


def spawn_kernel_s(env: dict) -> float:
    """Wall seconds of the start kernel: a fresh interpreter that imports
    numpy and exits.  Starting an interpreter and importing a package (file
    reads, unmarshalling, loading shared libraries, running module bodies)
    slow down differently from computing, and this kernel does the same
    kind of work as a CLI command's start."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy"], env=env, check=True,
                   stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL)
    return time.perf_counter() - t0


def scale(before: float, after: float, reference_s: float = REFERENCE_S) -> float:
    """Factor that turns seconds measured between two kernel runs into
    reference seconds: the faster kernel run stands for the machine's
    speed, since a run can only be slowed down."""
    return reference_s / min(before, after)
