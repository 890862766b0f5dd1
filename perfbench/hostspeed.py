"""A fixed probe of the host's CPU speed, so times are stated at one speed.

On a shared host the same pass can take 1.6 times longer a few minutes
later.  A drift that lasts minutes is not averaged out by more passes, and
it is larger than any bound a benchmark can set.  The probe is fixed code
outside citegen: a scalar loop over a numpy array, as in the pure-Python
kernels, plus a numpy sort.  It slows with the host but not with the
program.  ``factor()`` is the probe's time divided by ``REFERENCE_S``.  A
run probes between its passes and divides each time by the factors probed
around it, which puts it in reference seconds: wall seconds on a host
where the probe takes ``REFERENCE_S``.  One probe lasts about 0.1 s, long
enough to average the host's sub-second swings.
"""

from __future__ import annotations

import time

import numpy as np

# the probe's time on a 2-core x86 virtual machine at its full speed;
# changing it rescales every reported time
REFERENCE_S = 0.055


class HostSpeed:
    def __init__(self):
        rng = np.random.default_rng(0)
        self._loop = rng.integers(0, 1000, 20_000)
        self._sort = rng.integers(0, 1 << 40, 200_000)

    def factor(self):
        """Host slowness now: the probe's time over REFERENCE_S."""
        t0 = time.perf_counter()
        for _ in range(8):
            acc = 0
            for i in range(self._loop.size):
                acc += int(self._loop[i]) * 3 % 7
            np.sort(self._sort)
        return (time.perf_counter() - t0) / REFERENCE_S
