"""Self-contained verification suites behind the CLI `verify` command.

Checks the exact decomposition identity on seeded instances, the
fast/reference path agreement (including an exhaustive enumeration of
exceedance masks on a small grid), the Z-sampler acceptance rate, and the
serialization round-trips.

`identity_reports` and `mask_bookkeepings` are the one place the seeded
instances and the exceedance masks are built, and `z_acceptance_runs` the
one place the Z sampler's acceptance runs are made; acceptance criteria 1,
2 and 6 and the pinned mask-report test read them too.

The exhaustive enumeration runs its masks in contiguous ranges on a
process pool of one worker per CPU (`harness.pool_map`, as `rates` uses)
and prints only the total failure count, so its output is the same at any
worker count.  The other checks run in-process.
"""

from __future__ import annotations

import math
import tempfile
from dataclasses import dataclass

import numpy as np

from .blocks import BlockConfig, block_bookkeeping
from .expansion import decompose, expansion_report
from .functionals import get_functional
from .harness import ConvergenceTable, TableRow, load, persist, pool_map, pool_size
from .models import (MagnitudeSeries, ModelSpec, ZSampler, _mask_seed, gen_series,
                     marginal_tail, read_series, threshold_for_w, write_series)


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str = ""


def _identity_instances(count: int, seed: int):
    rng = np.random.default_rng(_mask_seed(seed))
    specs = [ModelSpec.mma1(1.0, 1.0, 1.0), ModelSpec.mma1(1.0, 2.0, 1.5),
             ModelSpec.piecewise(ModelSpec.mma1(1.0, 1.0, 1.0))]
    names = ["indicator", "length", "count"]
    for i in range(count):
        spec = specs[i % len(specs)]
        name = names[i % len(names)]
        r = int(rng.integers(5, 51))
        n = int(rng.integers(200, 5001))
        if spec.kind == "piecewise":
            spec = spec.with_block_size(r)
            n = max(4, n // r) * r
        w = float(rng.uniform(0.005, 0.08))
        yield spec, name, n, r, w, int(rng.integers(0, 2 ** 63))


def identity_reports(count: int, seed: int, counterexample_dir=None):
    """The `expansion_report` of each seeded instance, on its generated series."""
    for spec, name, n, r, w, s in _identity_instances(count, seed):
        cfg = BlockConfig(r=r, u=threshold_for_w(spec, w), w=w)
        yield expansion_report(gen_series(spec, n, s), cfg, get_functional(name),
                               w_source="exact", counterexample_dir=counterexample_dir)


def mask_bookkeepings(r: int, blocks: int, masks: range | None = None):
    """(mask, bookkeeping) for each mask in `masks` (default: all masks
    1..2^(r*blocks) - 1) over `blocks` blocks of size r: X_i is 2 where bit i
    of the mask is set and 0.5 elsewhere, at u = 1."""
    bits = np.arange(r * blocks)
    cfg = BlockConfig(r=r, u=1.0, w=0.5)
    for mask in range(1, 2 ** bits.size) if masks is None else masks:
        values = np.where((mask >> bits) & 1, 2.0, 0.5)
        yield mask, block_bookkeeping(MagnitudeSeries(values=values), cfg)


def check_identities(count: int = 60, seed: int = 20240) -> CheckResult:
    worst_paper = 0.0
    worst_path = 0.0
    for rep in identity_reports(count, seed):
        if rep.residual_identity != 0.0 or rep.residual_paper != 0.0:
            worst_paper = max(worst_paper, abs(rep.residual_identity),
                              abs(rep.residual_paper))
        worst_path = max(worst_path, rep.ic_path_deviation, rep.bc_path_deviation)
    ok = worst_paper == 0.0 and worst_path == 0.0
    return CheckResult("decomposition identities", ok,
                       f"{count} instances, max residual {worst_paper:g}, "
                       f"max path deviation {worst_path:g}")


_MASK_FUNCTIONALS = ("indicator", "length", "count")
# Contiguous mask ranges per worker: with several each, a worker that
# finishes early takes another range instead of waiting on a slow one.
_RANGES_PER_WORKER = 4


def _failing_decompositions(job) -> int:
    """How many of the decompositions of the masks in one (r, blocks, masks)
    range fail: a nonzero residual or a nonzero path deviation."""
    r, blocks, masks = job
    hs = [get_functional(nm) for nm in _MASK_FUNCTIONALS]
    bad = 0
    for _, book in mask_bookkeepings(r, blocks, masks):
        for h in hs:
            rep = decompose(book, h)
            if (rep.residual_identity != 0.0 or rep.residual_paper != 0.0
                    or rep.ic_path_deviation != 0.0
                    or rep.bc_path_deviation != 0.0):
                bad += 1
    return bad


def check_exhaustive_masks(r: int = 3, blocks: int = 4) -> CheckResult:
    """Every exceedance placement over `blocks` blocks of size r.

    One bookkeeping per mask; the whole decomposition (identity,
    remainder enumeration and the two-route agreement, whose reference
    route runs once per event in `path_deviations`) per functional.  The
    masks are split into contiguous ranges that run on one worker per CPU
    (`harness.pool_map`); the check reports the sum of the ranges' failure
    counts, which is the same at any worker count.
    """
    count = 2 ** (r * blocks) - 1
    parts = min(count, _RANGES_PER_WORKER * pool_size(count, count))   # 1 worker per CPU
    edges = [1 + count * i // parts for i in range(parts + 1)]
    jobs = [(r, blocks, range(lo, hi)) for lo, hi in zip(edges, edges[1:])]
    bad = sum(pool_map(_failing_decompositions, jobs, len(jobs)))
    return CheckResult("exhaustive mask enumeration", bad == 0,
                       f"{count} masks x {len(_MASK_FUNCTIONALS)} functionals, {bad} failures")


def z_acceptance_runs(draws: int, seed: int):
    """(c0, c1, alpha, rate, theta, se) of one Z sampler per MMA(1) parameter
    set: its acceptance rate after max(1, draws * theta) accepted draws, the
    rate's target theta, and the binomial standard error of the rate."""
    for c0, c1, alpha in ((1.0, 1.0, 1.0), (1.0, 2.0, 1.0), (1.0, 1.0, 2.0)):
        sampler = ZSampler(ModelSpec.mma1(c0, c1, alpha), seed)
        theta = sampler.theta
        sampler.sample_z_many(max(1, int(draws * theta)))
        se = math.sqrt(theta * (1 - theta) / sampler.book.draws)
        yield c0, c1, alpha, sampler.book.acceptance_rate, theta, se


def check_z_acceptance(draws: int = 20000, seed: int = 7) -> CheckResult:
    details = []
    ok = True
    for c0, c1, alpha, rate, theta, se in z_acceptance_runs(draws, seed):
        ok = ok and abs(rate - theta) <= 3 * se + 1e-12
        details.append(f"({c0:g},{c1:g},{alpha:g}): {rate:.4f} vs {theta:.4f}")
    return CheckResult("Z-sampler acceptance", ok, "; ".join(details))


def check_threshold_roundtrip(seed: int = 11) -> CheckResult:
    rng = np.random.default_rng(_mask_seed(seed))
    specs = [ModelSpec.iid_pareto(1.0), ModelSpec.mma1(1.0, 1.0, 1.0),
             ModelSpec.mma1(0.5, 2.0, 2.5), ModelSpec.mmaq([1.0, 0.7, 0.2], 1.5)]
    worst = 0.0
    for _ in range(100):
        spec = specs[rng.integers(0, len(specs))]
        w = float(10 ** rng.uniform(-7, -0.5))
        u = threshold_for_w(spec, w)
        worst = max(worst, abs(marginal_tail(spec, u) - w) / w)
    return CheckResult("threshold round-trip", worst <= 1e-12,
                       f"max relative error {worst:.2e}")


def check_series_roundtrip(seed: int = 5) -> CheckResult:
    series = gen_series(ModelSpec.mma1(1.0, 1.0, 1.0), 257, seed)
    ok = True
    with tempfile.TemporaryDirectory() as tmp:
        for fmt in ("bin", "txt"):
            path = f"{tmp}/series.{fmt}"
            write_series(path, series, fmt)
            back = read_series(path)
            ok = ok and np.array_equal(back.values, series.values)
    return CheckResult("series file round-trip", ok, "bin and txt formats")


def check_table_roundtrip() -> CheckResult:
    rows = [TableRow(grid_index=0, n=1000, r=10, w=0.01, target="ic_norm",
                     mean=0.4375, sd=0.01, se=0.001, replicates=100),
            TableRow(grid_index=1, n=10000, r=12, w=0.005, target="ic_norm",
                     mean=1 / 3, sd=0.02, se=0.002, replicates=100)]
    table = ConvergenceTable(model="mma1", alpha=1.0, c0=1.0, c1=1.0, rows=rows)
    ok = True
    with tempfile.TemporaryDirectory() as tmp:
        for fmt in ("csv", "json"):
            path = f"{tmp}/table.{fmt}"
            persist(table, path, fmt)
            back = load(path)
            for a, b in zip(table.rows, back.rows):
                ok = ok and a.__dict__ == b.__dict__
    return CheckResult("table round-trip", ok, "csv and json formats")


def run_verification(quick: bool = True, seed: int = 0) -> list[CheckResult]:
    count = 60 if quick else 500
    draws = 20000 if quick else 100000
    r, blocks = (3, 4) if quick else (4, 4)
    return [
        check_identities(count=count, seed=20240 + seed),
        check_exhaustive_masks(r=r, blocks=blocks),
        check_z_acceptance(draws=draws, seed=7 + seed),
        check_threshold_roundtrip(seed=11 + seed),
        check_series_roundtrip(seed=5 + seed),
        check_table_roundtrip(),
    ]
