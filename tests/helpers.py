"""Test-only functionals that read magnitudes, with no pattern_value (so every
window sum goes through the evaluator), a memory probe and an in-process
stand-in for the process pool.  The functionals' names appear in pinned
digests."""

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


class InProcessPool:
    """`ProcessPoolExecutor` stand-in: records its size in `sizes` and maps
    in-process, so a patch of the package reaches every job under any
    start method."""

    def __init__(self, sizes: list, max_workers: int):
        sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, jobs, chunksize=1):
        return map(fn, jobs)


def in_process_pool(monkeypatch) -> list:
    """Replace the process pool by `InProcessPool`; returns the sizes it records."""
    import concurrent.futures
    import functools

    sizes = []
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                        functools.partial(InProcessPool, sizes))
    return sizes
