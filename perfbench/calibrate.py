"""Machine-speed calibration for the timed figures.

The benchmark runs on shared machines whose speed drifts by tens of percent
over seconds to minutes, which would swamp the differences between two
commits.  A fixed pure-Python kernel, doing the dict, tuple, sort and hash
work that dominates ``Monomial`` arithmetic, is timed between operations.
Every timing is multiplied by ``REFERENCE_S / k``, where ``k`` is the mean
kernel time just before and just after it, so a reported time reads as it
would on a machine where the kernel takes ``REFERENCE_S`` (about the
kernel's time on an idle 2-CPU Xeon).  The kernel is part of the benchmark,
not of the package, so no change to the package can move it; raw figures are
printed next to the calibrated ones.  Work done in child processes is
calibrated by the kernel run in a child process, since a child may run on
another CPU than its parent.
"""

from __future__ import annotations

import subprocess
import sys
from time import perf_counter

REFERENCE_S = 0.020
SEGMENT_S = 0.5  # longest stretch of timed work between two kernel runs


def kernel() -> int:
    acc = 0
    for i in range(4000):
        d = {f"v{j}": (i + j) % 5 + 1 for j in range(6)}
        for k, v in (("v1", 2), ("v7", 1)):
            d[k] = max(d.get(k, 0), v)
        acc ^= hash(tuple(sorted(d.items())))
    return acc


def kernel_s() -> float:
    start = perf_counter()
    kernel()
    return perf_counter() - start


def child_kernel_s() -> float:
    """The kernel time in a fresh child process, for work that runs in child
    processes: a child may run on another CPU than its parent."""
    out = subprocess.run([sys.executable, __file__], capture_output=True, text=True, check=True, timeout=60)
    return float(out.stdout)


if __name__ == "__main__":
    kernel()  # warm-up
    print(kernel_s())
