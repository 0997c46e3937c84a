"""A fixed reference computation that measures how fast the machine is right now.

On a shared machine other tenants slow this process down by up to 2x, in
phases that last from seconds to minutes, for pure-Python and numpy code
alike. The benchmark runs `probe()` between its timed repeats and scales
each repeat's wall time by REFERENCE_S / (mean of the probes around it), so
a time reads as it would at the probe speed of a quiet moment on the
machine the benchmark was built on. The probe is code of the benchmark, not
of fenet, so a change to fenet cannot move it.
"""

import time

import numpy as np

# Probe time at a quiet moment on the machine this benchmark was built on
# (2 CPUs, Intel Xeon, Python 3.11, numpy 2.4.6 with OpenBLAS, one thread).
REFERENCE_S = 0.050

_A = np.random.default_rng(0).random((32, 16, 16, 3))
_W = np.random.default_rng(1).random((8, 3))


def probe() -> float:
    """Seconds taken by a fixed mix of dict updates and small numpy products."""
    t0 = time.perf_counter()
    counts = {}
    for i in range(100_000):
        key = (i * 7919) % 4093
        counts[key] = counts.get(key, 0) + 1
    for _ in range(300):
        (_A @ _W.T).sum()
    return time.perf_counter() - t0
