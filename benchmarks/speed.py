"""How fast the machine runs right now, from a fixed reference kernel.

On a shared host the same computation can take up to 1.7x longer for a
minute or more at a time, far more than any regression worth catching.  The
benchmark therefore times this kernel between its calls into the program and
divides each call's wall time by the kernel's slowdown against
``NOMINAL_S``, reporting times at the nominal speed.  The kernel is fixed
code of the benchmark with the same mix as the program (small numpy arrays
and Python loops), so no change to the program moves it.
"""

from __future__ import annotations

import time

import numpy as np

#: Kernel duration at the nominal speed, rounded from the median of 300 runs
#: on a 2-vCPU Intel Xeon (2.0 GHz) VM in a quiet period, CPython 3.11,
#: numpy 2.4.
NOMINAL_S = 0.010

_C = np.random.default_rng(0).normal(size=(4, 4, 4))
_G = np.eye(4) + 0.1


def reference_seconds() -> float:
    """Wall time of one run of the reference kernel."""
    t0 = time.perf_counter()
    acc = 0.0
    for _ in range(700):
        acc += float(np.tensordot(_C, _C, axes=([2], [1])).sum())
        acc += float(np.linalg.inv(_G)[0, 0]) + sum(range(40))
    seconds = time.perf_counter() - t0
    if acc != acc:
        raise ArithmeticError("reference kernel produced NaN")
    return seconds


def slowdown() -> float:
    """Current slowdown against the nominal speed (above 1: slower)."""
    return reference_seconds() / NOMINAL_S
