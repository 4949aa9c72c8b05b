"""Machine-speed calibration for timings on a shared CPU.

On a shared 2-core sandbox the speed of the same code drifts by up to 2x
over seconds, as neighbouring load comes and goes, which would swamp the
differences between two commits.  The benchmark therefore times a fixed
reference next to the program's ops and reports each timing scaled to the
reference's nominal speed:

    calibrated = measured * nominal reference time / reference time nearby

In-process ops are scaled by ``kernel``, which exercises what the ops spend
their time on (argparse, frozen dataclasses, float maths and formatting,
small numpy calls).  Fresh-interpreter ops are scaled by a fresh interpreter
that imports numpy and scipy, which is most of their work; an in-process
kernel does not track them, because the child may run on the other CPU.
Both references use only the standard library, numpy and scipy, so no
change to virial-forge can change them.  Raw wall-clock values are reported
alongside.
"""

from __future__ import annotations

import argparse
import math
import statistics
import time
from dataclasses import dataclass

import numpy as np

# Nominal reference times: roughly their medians on a 2-core 2.1 GHz Xeon
# sandbox, so calibrated values read close to wall-clock values there.
KERNEL_REFERENCE_S = 1e-3
PROCESS_REFERENCE_S = 0.8
PROCESS_SCRIPT = "import numpy, scipy.integrate, scipy.optimize"


@dataclass(frozen=True)
class _Point:
    x: float
    y: float

    def __post_init__(self):
        if not math.isfinite(self.x):
            raise ValueError("non-finite point")


def kernel():
    parser = argparse.ArgumentParser(prog="calibrate")
    sub = parser.add_subparsers(dest="command")
    run = sub.add_parser("run")
    for name in ("a", "b", "c", "d", "e"):
        run.add_argument(f"--{name}", type=float)
    args = parser.parse_args(["run", "--a", "1.5", "--b", "2.5", "--c", "-0.25"])
    points = [_Point(float(i), math.sqrt(i + 1.0)) for i in range(200)]
    total = math.fsum(p.x * p.y for p in points) + args.a
    text = "".join(f"k{i}={p.y:.17g}\n" for i, p in enumerate(points[:60]))
    grid = np.linspace(0.0, 1.0, 50)
    return total + float(np.dot(grid, grid)) + len(text)


def slowness(repeats=3):
    """Median kernel time over the reference: 1.0 at reference speed, 2.0 at half."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - start)
    return statistics.median(times) / KERNEL_REFERENCE_S
