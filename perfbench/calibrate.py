"""Reference kernel for the machine's current speed.

A shared virtual machine runs the same code at speeds that drift by a
half or more over minutes, as other tenants come and go, and CPU time
drifts with it.  Each run therefore also times a fixed reference kernel,
interleaved with the benchmark's own operations, and reports every time
multiplied by the speed index of the kernel calls nearest to it: the
reference kernel time over their measured median, to the power EXPONENT.
A reported time estimates the time the operation would have taken at the
reference speed.

The kernel is one dense discrete Lyapunov solve (Schur decompositions,
triangular Sylvester solves, dense products), called through scipy on a
fixed 200 x 200 system.  It does not use the package, so it never changes
when the package does.  Of the candidates tried -- a small and a medium
Kalman filter written in numpy, a memory-bound vector update, this solve
and geometric means of them -- this solve alone followed the drift of
every timed operation of every workload most closely.
"""

from __future__ import annotations

import statistics

import numpy as np
import scipy.linalg as sla

SIZE = 200
# Median CPU milliseconds of one kernel call on the reference machine
# (2-vCPU Intel Xeon VM, OpenBLAS 0.3.31 with one thread, numpy 2.4.6,
# scipy 1.17.1).  It fixes the scale of every reported time and is part
# of the benchmark's definition: changing it rescales every result.
REFERENCE_MS = 40.0
# Not every operation feels the drift as much as the kernel.  Over runs on
# the reference machine, operations on the compact state form (every Gibbs
# and adaptive draw) slowed about as much as the kernel, the companion-form
# baseline draw on paper-p12 about half as much, and its 35 s set-up hardly
# at all (see LONG_SAMPLE_S in workloads.py).  Scaling by the index to the
# power 0.75, midway, leaves at most about a quarter of the drift in either
# kind of draw.
EXPONENT = 0.75


class SpeedIndex:
    """Times the reference kernel and turns its times into a scale."""

    def __init__(self):
        rng = np.random.default_rng(0)
        A = rng.normal(size=(SIZE, SIZE))
        self.A = A * (0.9 / np.abs(np.linalg.eigvals(A)).max())
        self.Q = np.eye(SIZE)

    def measure(self, clock_ns) -> float:
        """Seconds of one kernel call, timed with ``clock_ns``."""
        t0 = clock_ns()
        sla.solve_discrete_lyapunov(self.A, self.Q)
        return (clock_ns() - t0) * 1e-9

    @staticmethod
    def scale(times: list[float]) -> float:
        """Reference over the median of the given kernel times, to EXPONENT."""
        return (REFERENCE_MS * 1e-3 / statistics.median(times)) ** EXPONENT
