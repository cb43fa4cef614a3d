"""Machine-speed probe for wall times measured on a shared machine.

On a machine whose cores are shared with other tenants, the speed of the
same work drifts by 25-40 % over tens of seconds, so the median wall time
of a 20-second run spreads about that much from run to run.
``SpeedProbe`` samples the drift while the workload runs: every PERIOD_S
of wall time a SIGALRM handler times ``reference_work``, a fixed mix of
plain interpreter work and small-array numpy calls (the two kinds of work
``accr`` spends its time on) that shares no code with ``accr``.  A wall
time is then rescaled to nominal speed,

    scaled = (wall - probe time inside it) * REFERENCE_S / mean probe time,

the mean taken over the probes that fell inside the same interval.
REFERENCE_S is the probe's nominal duration, a constant, so the scaled
figure keeps its unit, seconds, and moves in proportion with the
program's own speed while the machine's drift cancels.  On that machine
the scaled time of a pass spreads 5-6 % from pass to pass where the plain
wall time spreads 9-28 %.
"""

from __future__ import annotations

import signal
import time

import numpy as np

PERIOD_S = 0.1
REFERENCE_S = 0.0014     # median probe time, 2-CPU machine, Python 3.11, numpy 2.4
_D = 5
_EPS = [1.0, 1.0, 1.0, -1.0, -1.0]
_C = [[[float((k + 2 * i + 3 * j) % 5 - 2) * (i != j) for j in range(_D)]
       for i in range(_D)] for k in range(_D)]
_A = np.arange(125.0).reshape(5, 5, 5) / 100.0
_G = np.diag(_EPS)


def reference_work():
    """Frame Koszul sums of a fixed bracket table in plain Python, then the
    same kind of small einsum, inverse and reduction calls accr makes."""
    total = 0.0
    for _ in range(15):
        for i in range(_D):
            for j in range(_D):
                for k in range(_D):
                    total += 0.5 * (_C[k][i][j] * _EPS[k] - _C[i][j][k] * _EPS[i]
                                    + _C[j][k][i] * _EPS[j]) / _EPS[k]
    for _ in range(20):
        b = np.einsum("ijk,kl->ijl", _A, _G)
        total += float(np.max(np.abs(b - np.swapaxes(b, 1, 2))))
        total += np.linalg.inv(_G + 0.1 * b[0])[0, 0]
    return total


class SpeedProbe:
    """Times ``reference_work`` every PERIOD_S between start() and stop()."""

    def __init__(self):
        self.samples: list = []
        self.busy = 0.0          # seconds spent inside probes so far

    def _probe(self, signum, frame):
        start = time.perf_counter()
        reference_work()
        took = time.perf_counter() - start
        self.samples.append(took)
        self.busy += took

    def start(self):
        signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def scale(self, seconds, first):
        """``seconds`` of work done while samples[first:] were taken, at
        nominal speed (unscaled when no probe has run yet)."""
        taken = self.samples[first:] or self.samples[-1:]
        if not taken:
            return seconds
        return seconds * REFERENCE_S * len(taken) / sum(taken)
