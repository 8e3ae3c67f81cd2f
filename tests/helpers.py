"""Test-only functionals that read magnitudes, with no pattern_value (so every
window sum goes through the evaluator), and a memory probe.  The functionals'
names appear in pinned digests."""

import math
import tracemalloc

import numpy as np

from clusterblocks import ClusterFunctional


def log_sum(w):
    return float(np.log(w[w > 1.0]).sum())


def logmax(w):
    top = float(np.max(w))
    return min(1.0, math.log(top)) if top > 1.0 else 0.0


LOG_SUM = ClusterFunctional(name="log_sum", gamma=1.0, growth_constant=1.0,
                            evaluator=log_sum)
LOGMAX = ClusterFunctional(name="logmax", gamma=0.0, growth_constant=1.0,
                           evaluator=logmax)


def peak_bytes(fn):
    """The peak of traced Python allocations while fn() runs."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
