"""Self-contained verification suites behind the CLI `verify` command.

Checks the exact decomposition identity on seeded instances, the
fast/reference path agreement (including an exhaustive enumeration of
exceedance masks on a small grid), the Z-sampler acceptance rate, and the
serialization round-trips.
"""

from __future__ import annotations

import math
import tempfile
from dataclasses import dataclass

import numpy as np

from .blocks import BlockConfig, block_bookkeeping
from .expansion import decompose, expansion_report
from .functionals import get_functional
from .harness import ConvergenceTable, TableRow, load, persist
from .models import (MagnitudeSeries, ModelSpec, ZSampler, gen_series,
                     marginal_tail, mma1_constants, read_series, threshold_for_w,
                     write_series)


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str = ""


def _identity_instances(count: int, seed: int):
    rng = np.random.default_rng(seed)
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


def check_identities(count: int = 60, seed: int = 20240) -> CheckResult:
    worst_paper = 0.0
    worst_path = 0.0
    for spec, name, n, r, w, s in _identity_instances(count, seed):
        series = gen_series(spec, n, s)
        u = threshold_for_w(spec, w)
        rep = expansion_report(series, BlockConfig(r=r, u=u, w=w),
                               get_functional(name), w_source="exact")
        if rep.residual_identity != 0.0 or rep.residual_paper != 0.0:
            worst_paper = max(worst_paper, abs(rep.residual_identity),
                              abs(rep.residual_paper))
        worst_path = max(worst_path, rep.ic_path_deviation, rep.bc_path_deviation)
    ok = worst_paper == 0.0 and worst_path == 0.0
    return CheckResult("decomposition identities", ok,
                       f"{count} instances, max residual {worst_paper:g}, "
                       f"max path deviation {worst_path:g}")


def check_exhaustive_masks(r: int = 3, blocks: int = 4) -> CheckResult:
    """Every exceedance placement over `blocks` blocks of size r.

    One bookkeeping per mask; the whole decomposition (identity,
    remainder enumeration and the two-route agreement, whose reference
    route runs once per event in `path_deviations`) per functional.
    """
    n = r * blocks
    hs = [get_functional(nm) for nm in ("indicator", "length", "count")]
    cfg = BlockConfig(r=r, u=1.0, w=0.5)
    bad = 0
    for mask in range(1, 2 ** n):
        values = np.where([(mask >> i) & 1 for i in range(n)], 2.0, 0.5)
        book = block_bookkeeping(MagnitudeSeries(values=values), cfg)
        for h in hs:
            rep = decompose(book, h)
            if (rep.residual_identity != 0.0 or rep.residual_paper != 0.0
                    or rep.ic_path_deviation != 0.0
                    or rep.bc_path_deviation != 0.0):
                bad += 1
    return CheckResult("exhaustive mask enumeration", bad == 0,
                       f"{2 ** n - 1} masks x {len(hs)} functionals, {bad} failures")


def check_z_acceptance(draws: int = 20000, seed: int = 7) -> CheckResult:
    params = [(1.0, 1.0, 1.0), (1.0, 2.0, 1.0), (1.0, 1.0, 2.0)]
    details = []
    ok = True
    for c0, c1, alpha in params:
        theta, _ = mma1_constants(c0, c1, alpha)
        sampler = ZSampler(ModelSpec.mma1(c0, c1, alpha), seed)
        sampler.sample_z_many(max(1, int(draws * theta)))
        rate = sampler.book.acceptance_rate
        se = math.sqrt(theta * (1 - theta) / sampler.book.draws)
        good = abs(rate - theta) <= 3 * se + 1e-12
        ok = ok and good
        details.append(f"({c0:g},{c1:g},{alpha:g}): {rate:.4f} vs {theta:.4f}")
    return CheckResult("Z-sampler acceptance", ok, "; ".join(details))


def check_threshold_roundtrip(seed: int = 11) -> CheckResult:
    rng = np.random.default_rng(seed)
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
