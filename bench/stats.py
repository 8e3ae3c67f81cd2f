"""Timing summaries and the per-layer metrics drawn from a trace."""

from __future__ import annotations

import math
import statistics

# name, unit, which direction is better.  BENCHMARK.json lists the same
# names in the same order (bench/tests/test_bench.py checks it).
PER_LAYER = (
    ("models.gen_series.calls", "count", "lower"),
    ("models.gen_series.self_s", "s", "lower"),
    ("models.gen_series.values", "count", "lower"),
    ("models.threshold_for_w.self_s", "s", "lower"),
    ("models.sample_z_many.self_s", "s", "lower"),
    ("models.z_draws", "count", "lower"),
    ("models.z_accept_ratio", "ratio", "higher"),
    ("blocks.window_values_at.calls", "count", "lower"),
    ("blocks.window_values_at.self_s", "s", "lower"),
    ("blocks.window_starts", "count", "lower"),
    ("blocks.generic_windows", "count", "lower"),
    ("expansion.block_bookkeeping.calls", "count", "lower"),
    ("expansion.block_bookkeeping.self_s", "s", "lower"),
    ("expansion.exceedances", "count", "higher"),
    ("expansion.blocks", "count", "higher"),
    ("expansion.active_blocks", "count", "higher"),
    ("expansion.starts_per_exceedance", "ratio", "lower"),
    ("expansion.internal_cluster_stat.fast.self_s", "s", "lower"),
    ("expansion.internal_cluster_stat.reference.self_s", "s", "lower"),
    ("expansion.ic_events", "count", "higher"),
    ("expansion.boundary_cluster_stat.fast.self_s", "s", "lower"),
    ("expansion.boundary_cluster_stat.reference.self_s", "s", "lower"),
    ("expansion.bc_events", "count", "higher"),
    ("expansion.remainder_stat.self_s", "s", "lower"),
    ("expansion.expansion_report.calls", "count", "lower"),
    ("expansion.expansion_report.self_s", "s", "lower"),
    ("expansion.expansion_report.p99_s", "s", "lower"),
    ("functionals.eval_functional.calls", "count", "lower"),
    ("functionals.eval_functional.self_s", "s", "lower"),
    ("functionals.induced_ic.calls", "count", "lower"),
    ("functionals.induced_ic.self_s", "s", "lower"),
    ("functionals.induced_bc.calls", "count", "lower"),
    ("functionals.induced_bc.self_s", "s", "lower"),
    ("functionals.exceedance_pattern.calls", "count", "lower"),
    ("functionals.exceedance_pattern.self_s", "s", "lower"),
    ("harness.run_experiment.self_s", "s", "lower"),
    ("harness.replicates", "count", "higher"),
    ("harness.summarize.self_s", "s", "lower"),
    ("harness.csv_text.self_s", "s", "lower"),
    ("harness.parallel_efficiency", "ratio", "higher"),
    ("limits.cluster_index_mc.calls", "count", "lower"),
    ("limits.cluster_index_mc.self_s", "s", "lower"),
    ("limits.z_samples", "count", "higher"),
    ("limits.limit_table.self_s", "s", "lower"),
    ("verify.check_identities.self_s", "s", "lower"),
    ("verify.check_exhaustive_masks.self_s", "s", "lower"),
    ("verify.check_z_acceptance.self_s", "s", "lower"),
    ("verify.check_threshold_roundtrip.self_s", "s", "lower"),
    ("verify.check_series_roundtrip.self_s", "s", "lower"),
    ("verify.check_table_roundtrip.self_s", "s", "lower"),
    ("cli.main.self_s", "s", "lower"),
    ("bench.untraced_wall_s", "s", "lower"),
    ("bench.traced_wall_s", "s", "lower"),
    ("bench.trace_overhead_s", "s", "lower"),
    ("bench.spans", "count", "lower"),
)

# Per-layer counters read from the tracer's counts instead of its spans.
_COUNTED = ("models.gen_series.values", "models.z_draws", "blocks.window_starts",
            "blocks.generic_windows", "expansion.exceedances", "expansion.blocks",
            "expansion.active_blocks", "expansion.ic_events", "expansion.bc_events",
            "harness.replicates", "limits.z_samples")
# Metric prefix -> span name, where the two differ.
_SPAN = {"models.sample_z_many": "models.ZSampler.sample_z_many"}


def percentile(values, q: float):
    """Nearest-rank q-quantile, or None when fewer than 10 samples lie beyond it."""
    values = sorted(values)
    rank = max(0, math.ceil(q * len(values) - 1e-9) - 1)
    if len(values) - rank - 1 < 10:
        return None
    return values[rank]


def timing(values, unit: str) -> dict:
    """Median, sample count and the highest of p99/p90 that has >= 10
    samples beyond it."""
    out = {"value": statistics.median(values), "unit": unit, "samples": len(values)}
    for q, key in ((0.99, "p99"), (0.9, "p90")):
        p = percentile(values, q)
        if p is not None:
            out[key] = p
            break
    return out


def layer_metrics(summary: dict, counts, spans: int, walls: tuple) -> dict:
    """Every PER_LAYER metric from one traced pass.

    Layers the workload does not reach read 0; so do ratios without a
    base and p99_s with fewer than 10 calls beyond the 99th percentile.
    """
    out = {}
    for name, _, _ in PER_LAYER:
        prefix, _, field = name.rpartition(".")
        span = summary.get(_SPAN.get(prefix, prefix))
        if name in _COUNTED:
            out[name] = int(counts.get(name, 0))
        elif field in ("calls", "self_s"):
            out[name] = span[field] if span else 0
        else:
            out[name] = 0
    reports = summary.get("expansion.expansion_report")
    if reports:
        out["expansion.expansion_report.p99_s"] = percentile(reports["durations_s"], 0.99) or 0.0
    if counts.get("models.z_draws"):
        out["models.z_accept_ratio"] = counts["models.z_accepted"] / counts["models.z_draws"]
    if counts.get("expansion.exceedances"):
        out["expansion.starts_per_exceedance"] = (
            counts.get("blocks.window_starts", 0) / counts["expansion.exceedances"])
    untraced, traced = walls
    out.update({"bench.untraced_wall_s": untraced, "bench.traced_wall_s": traced,
                "bench.trace_overhead_s": traced - untraced, "bench.spans": spans})
    return out
