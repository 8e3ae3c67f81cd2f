"""In-memory span tracer that wraps clusterblocks functions from outside.

The package is not edited: `traced(tracer)` replaces each function named in
`TARGETS` by a wrapper in every loaded ``clusterblocks*`` namespace that
binds the same object (the defining module, every module that imported it
with ``from .x import f``, and the package root), and puts the originals
back on exit.  Each wrapped call records one span (name, start, end,
parent span); counters that expose the cost class (values generated,
exceedances, window starts, events, Z draws) are taken from the call's
arguments and result at the same boundary.
"""

from __future__ import annotations

import contextlib
import sys
import time
from array import array
from collections import Counter

import numpy as np


def _path_suffix(args, kwargs, position: int) -> str:
    path = kwargs.get("path", args[position] if len(args) > position else "fast")
    return f".{path}"


def _count_gen_series(c, args, kwargs, result):
    c["models.gen_series.values"] += len(result)


def _count_window_values(c, args, kwargs, result):
    starts, h = args[2], args[4]
    c["blocks.window_starts"] += len(starts)
    if h.pattern_value is None:
        c["blocks.generic_windows"] += len(starts)


def _count_bookkeeping(c, args, kwargs, result):
    c["expansion.exceedances"] += int(result.pos.size)
    c["expansion.blocks"] += int(result.m)
    c["expansion.active_blocks"] += int(np.count_nonzero(result.active))


def _count_ic(c, args, kwargs, result):
    if _path_suffix(args, kwargs, 3) == ".fast":
        c["expansion.ic_events"] += len(result[1])


def _count_bc(c, args, kwargs, result):
    if _path_suffix(args, kwargs, 2) == ".fast":
        c["expansion.bc_events"] += len(result.per_pair)


def _count_cluster_index(c, args, kwargs, result):
    c["limits.z_samples"] += int(args[2])


def _count_experiment(c, args, kwargs, result):
    cfg = args[0]
    c["harness.replicates"] += cfg.replicates * len(cfg.grid)


# (module, attribute, span-name suffix from the call or None, counter hook).
# An attribute "Class.method" wraps the method on the class.
TARGETS = (
    ("models", "gen_series", None, _count_gen_series),
    ("models", "threshold_for_w", None, None),
    ("models", "ZSampler.sample_z_many", None, None),
    ("blocks", "window_values_at", None, _count_window_values),
    ("expansion", "block_bookkeeping", None, _count_bookkeeping),
    ("expansion", "internal_cluster_stat", lambda a, k: _path_suffix(a, k, 3), _count_ic),
    ("expansion", "boundary_cluster_stat", lambda a, k: _path_suffix(a, k, 2), _count_bc),
    ("expansion", "remainder_stat", None, None),
    ("expansion", "expansion_report", None, None),
    ("functionals", "eval_functional", None, None),
    ("functionals", "induced_ic", None, None),
    ("functionals", "induced_bc", None, None),
    ("functionals", "exceedance_pattern", None, None),
    ("harness", "run_experiment", None, _count_experiment),
    ("harness", "summarize", None, None),
    ("harness", "csv_text", None, None),
    ("limits", "cluster_index_mc", None, _count_cluster_index),
    ("limits", "limit_table", None, None),
    ("verify", "check_identities", None, None),
    ("verify", "check_exhaustive_masks", None, None),
    ("verify", "check_z_acceptance", None, None),
    ("verify", "check_threshold_roundtrip", None, None),
    ("verify", "check_series_roundtrip", None, None),
    ("verify", "check_table_roundtrip", None, None),
    ("cli", "main", None, None),
)


class Tracer:
    """Spans of one thread, kept in flat arrays until the run ends."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self._stack: list[int] = []
        self.counts: Counter = Counter()

    def open(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        index = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0)
        self._stack.append(index)
        self.start.append(time.perf_counter_ns())
        return index

    def close(self, index: int) -> None:
        self.end[index] = time.perf_counter_ns()
        self._stack.pop()

    def arrays(self):
        return (np.frombuffer(self.name_id, dtype=np.int32),
                np.frombuffer(self.start, dtype=np.int64),
                np.frombuffer(self.end, dtype=np.int64),
                np.frombuffer(self.parent, dtype=np.int32))

    def summary(self) -> dict:
        """Per span name: call count, total self time and all durations (s)."""
        name_id, start, end, parent = self.arrays()
        own = self_times(start, end, parent)
        out = {}
        for nid, name in enumerate(self.names):
            sel = name_id == nid
            out[name] = {"calls": int(sel.sum()), "self_s": float(own[sel].sum()) / 1e9,
                         "durations_s": (end[sel] - start[sel]) / 1e9}
        return out

    def save(self, path) -> None:
        name_id, start, end, parent = self.arrays()
        np.savez(path, names=np.array(self.names), name_id=name_id,
                 start_ns=start, end_ns=end, parent=parent)


def self_times(start: np.ndarray, end: np.ndarray, parent: np.ndarray) -> np.ndarray:
    """Each span's duration minus the part of it that its children cover (ns).

    Children are merged as intervals, so overlapping children are not
    subtracted twice.  Every child group is shifted onto its own stretch
    of the time axis, so a single running maximum of end times gives, for
    each child, the latest end among the earlier children of its parent.
    """
    start = np.asarray(start, dtype=np.int64)
    end = np.asarray(end, dtype=np.int64)
    parent = np.asarray(parent, dtype=np.int64)
    own = (end - start).astype(np.float64)
    kids = np.flatnonzero(parent >= 0)
    if kids.size == 0:
        return own
    kids = kids[np.lexsort((start[kids], parent[kids]))]
    group = parent[kids]
    t0 = start.min()
    width = int(end.max() - t0) + 1
    s = start[kids] - t0 + group * width
    e = end[kids] - t0 + group * width
    before = np.concatenate(([-1], np.maximum.accumulate(e)[:-1]))
    covered = np.maximum(e - np.maximum(s, before), 0)
    return own - np.bincount(group, weights=covered, minlength=own.size)


def _bindings():
    """(holder, attribute, original, span name, suffix, count) per binding.

    A plain function is rebound in every namespace holding the same
    object; a method ("Class.method") only on its class.  Targets the
    package no longer has are skipped (see `missing`), so their metrics
    read 0 instead of the traced run failing.
    """
    namespaces = [mod for key, mod in sorted(sys.modules.items())
                  if key == "clusterblocks" or key.startswith("clusterblocks.")]
    out = []
    for module_name, attr, suffix, count in TARGETS:
        module = sys.modules.get(f"clusterblocks.{module_name}")
        owner, _, name = attr.rpartition(".")
        holder = getattr(module, owner, None) if owner else module
        original = getattr(holder, name, None)
        if original is None:
            continue
        holders = [holder] if owner else [
            ns for ns in namespaces if getattr(ns, name, None) is original]
        for ns in holders:
            out.append((ns, name, original, f"{module_name}.{attr}", suffix, count))
    return out


def _wrap(tracer: Tracer, fn, span: str, suffix, count):
    def wrapper(*args, **kwargs):
        index = tracer.open(span + suffix(args, kwargs) if suffix else span)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(index)
        if count is not None:
            try:
                count(tracer.counts, args, kwargs, result)
            except Exception:       # the target's signature or result changed
                tracer.counts["bench.count_errors"] += 1
        return result

    return wrapper


def _wrap_sampler(tracer: Tracer, fn, span: str):
    # The sampler's book holds running totals, so the draws of one call
    # are the difference across it.
    def wrapper(self, *args, **kwargs):
        draws, accepted = self.book.draws, self.book.accepted
        index = tracer.open(span)
        try:
            return fn(self, *args, **kwargs)
        finally:
            tracer.close(index)
            tracer.counts["models.z_draws"] += self.book.draws - draws
            tracer.counts["models.z_accepted"] += self.book.accepted - accepted

    return wrapper


@contextlib.contextmanager
def traced(tracer: Tracer):
    """Rebind every target to a recording wrapper for the duration."""
    rebound = []
    wrappers = {}
    try:
        for ns, name, original, span, suffix, count in _bindings():
            wrapper = wrappers.get(span)
            if wrapper is None:
                if isinstance(ns, type):
                    wrapper = _wrap_sampler(tracer, original, span)
                else:
                    wrapper = _wrap(tracer, original, span, suffix, count)
                wrappers[span] = wrapper
            setattr(ns, name, wrapper)
            rebound.append((ns, name, original))
        yield tracer
    finally:
        for ns, name, original in reversed(rebound):
            setattr(ns, name, original)


def bound_objects() -> dict:
    """(namespace, attribute) -> object currently bound, for every target."""
    return {(ns.__name__, name): getattr(ns, name)
            for ns, name, *_ in _bindings()}


def missing() -> list:
    """Targets that the loaded package does not define."""
    found = {span for *_, span, _, _ in _bindings()}
    return [f"{m}.{a}" for m, a, _, _ in TARGETS if f"{m}.{a}" not in found]
