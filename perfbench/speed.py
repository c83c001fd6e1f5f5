"""Machine-speed probe: puts the end-to-end times on one fixed scale.

The benchmark runs on a few cores of a shared host, whose speed for a
single-threaded process swings by up to 2.5x over seconds to minutes as
other tenants load it.  A per-task minimum over 40 seconds does not remove
that: when the host stays loaded for a whole run, every task in it reads
slow.

So before every timed task the benchmark times ``probe_work``, a fixed
piece of work written here and touching nothing of cavity2deg.  Its mix is
the program's: interpreter-bound loops over small numpy slices, float
formatting and JSON.  Over a run, the mean probe time divided by
``PROBE_REF_S`` is how much slower the host ran than the reference machine,
and every end-to-end time is divided by it.  The reported times are
therefore "reference seconds": the time the same work would take on a host
where one probe takes exactly ``PROBE_REF_S``.  A change to the program
moves them in full, since the probe does not run the program; a change in
host load moves both sides of the ratio and cancels.  On a 2-vCPU shared
virtual machine (Intel Xeon), ten 40-second runs per workload, one seed
each, gave raw pass times whose interquartile range was 10% to 34% of the
median; scaled, the same runs gave 1% to 5%.  Raw wall times are printed
and kept beside the scaled ones.
"""

from __future__ import annotations

import json
import statistics
import time

import numpy as np

PROBE_REF_S = 1e-3       # one probe on the reference machine
_ANGLES = np.linspace(0.1, 1.4, 24)
_MATRIX = np.add.outer(np.arange(12.0), np.arange(12.0) ** 0.5)


def probe_work() -> str:
    """Plane rotations on a 12x12 matrix, then its diagonal as text."""
    a = _MATRIX.copy()
    for theta in _ANGLES:
        c, s = float(np.cos(theta)), float(np.sin(theta))
        for p in range(0, 11, 2):
            q = p + 1
            col_p, col_q = a[:, p].copy(), a[:, q].copy()
            a[:, p] = c * col_p - s * col_q
            a[:, q] = s * col_p + c * col_q
    row = [float(x) for x in np.diag(a)]
    return json.dumps([f"{x:.9g}" for x in row]) + ",".join(map(repr, row))


class SpeedProbe:
    """Probe samples taken through a run, and the scale they give."""

    def __init__(self) -> None:
        self.samples: list = []

    def sample(self) -> None:
        t0 = time.perf_counter()
        probe_work()
        self.samples.append(time.perf_counter() - t0)

    def slowdown(self) -> float:
        """Mean probe time over the reference: >1 when the host ran slow."""
        return statistics.fmean(self.samples) / PROBE_REF_S
