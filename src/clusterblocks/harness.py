"""Replicated rate experiments over (n, r, w) grids with deterministic seeding.

Grid rules are declarative strings ("n^0.15", "n^-0.6" or absolute
numbers) so a report fully documents its regime.  Replicate seeds derive
from (experiment seed, grid index, replicate index); results are reduced
in that fixed order, so the output is a pure function of the
configuration regardless of worker count.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import re
import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import __version__
from .blocks import (MEMORY_BUDGET, BlockConfig, active_block_values, block_sum,
                     model_bookkeeping)
from .errors import ConfigError, FunctionalContractError, PersistError
from .expansion import boundary_cluster_stat, internal_cluster_stat, raw_sums
from .functionals import get_functional
from .limits import LimitTable, cluster_length_moment
from .models import ModelSpec, threshold_for_w

CSV_HEADER = "model,alpha,c0,c1,n,r,w,replicates,target,mean,sd,se"


def parse_finite(text: str, what: str) -> float:
    """float(text), with ConfigError for anything but a finite number."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise ConfigError(f"cannot parse {what}: {text!r} is not a finite number")
    return value


def parse_rule(rule: str):
    """Turn "n^p" or a numeric literal into a callable of n."""
    rule = str(rule).strip()
    m = re.fullmatch(r"n\^([+-]?\d+(?:\.\d+)?)", rule)
    if m:
        p = float(m.group(1))
        return lambda n: float(n) ** p
    value = parse_finite(rule, "grid rule")
    return lambda n: value


# -- rate targets --------------------------------------------------------------


def _ic_total(book, h, spec):
    mode = "piecewise" if spec.kind == "piecewise" else "standard"
    return internal_cluster_stat(book, h, mode=mode)[0]


def _bc_total(book, h, spec):
    return boundary_cluster_stat(book, h).total


def _pair_rate(book, h, spec):
    a, pairs = book.active, (book.m - 1) // 2   # pairs (j, j+1), j even, j+1 <= m
    both = int(np.count_nonzero((a[1:] == a[:-1] + 1) & (a[:-1] % 2 == 0)))
    return both / pairs if pairs > 0 else 0.0


def _block_sums(book, h, spec):
    book.key(book.sb_runs, book.active_starts)     # the two start sets raw_sums reads, in one pass
    vals = active_block_values(book, h)
    return (*raw_sums(book, h, vals), vals)     # (SB, DB, active blocks' values)


def _block_mean(book, vals):
    """The mean over blocks 1..m of values given at the active blocks."""
    return block_sum(book, vals, 1, book.m) / book.m


def _quantity(q, book, h, g):
    return q


def _length_moment(_, book, h, g):
    _, lengths = book.window_keys(book.active_starts)   # of the active blocks
    return _block_mean(book, lengths.astype(float) ** g)


def _indicator_theta(lt, g):
    if lt.functional != "indicator":
        raise ConfigError(f"limit theta is pinned to the indicator, not {lt.functional!r}")
    return lt.theta


@dataclass(frozen=True)
class Target:
    """A rate target: statistic(needs(book, h, spec), book, h, g) divided by
    scale(n_eff, r, w, g) estimates limit(LimitTable, g).  A replicate
    computes each shared quantity `needs` once, and only if a requested
    target needs it.  reads: the LimitTable constants `limit` reads, so
    `rates` estimates no constant that no requested target reads.
    exponent: the name takes a finite g >= 0, as "name(g)"."""

    needs: Callable | None
    statistic: Callable
    scale: Callable
    limit: Callable
    reads: tuple[str, ...]
    exponent: bool = False


TARGETS = {
    "disjoint_stat": Target(_block_sums, lambda s, b, h, g: s[1], lambda n, r, w, g: n * r * w,
                            _indicator_theta, reads=("theta",)),
    "sliding_stat": Target(_block_sums, lambda s, b, h, g: s[0], lambda n, r, w, g: n * r * w,
                           _indicator_theta, reads=("theta",)),
    "scaled_gap": Target(_block_sums, lambda s, b, h, g: b.r * (s[1] - s[0]),
                         lambda n, r, w, g: n * r * w, lambda lt, g: -(lt.nu_ic + lt.nu_bc),
                         reads=("nu_ic", "nu_bc")),
    "ic_norm": Target(_ic_total, _quantity, lambda n, r, w, g: n * w,
                      lambda lt, g: lt.nu_ic, reads=("nu_ic",)),
    "bc_norm": Target(_bc_total, _quantity, lambda n, r, w, g: n * w,
                      lambda lt, g: lt.nu_bc, reads=("nu_bc",)),
    "ic_large_norm": Target(_ic_total, _quantity, lambda n, r, w, g: n * r ** 2 * w ** 2,
                            lambda lt, g: lt.ic_large_constant, reads=("ic_large_constant",)),
    "pa1a2_small": Target(_pair_rate, _quantity, lambda n, r, w, g: w,
                          lambda lt, g: lt.small_block_pa1a2, reads=("small_block_pa1a2",)),
    "pa1a2_large": Target(_pair_rate, _quantity, lambda n, r, w, g: r ** 2 * w ** 2,
                          lambda lt, g: lt.large_block_pa1a2, reads=("large_block_pa1a2",)),
    "clm_large": Target(None, _length_moment, lambda n, r, w, g: r ** (g + 2.0) * w ** 2,
                        lambda lt, g: cluster_length_moment(lt.theta, g),
                        reads=("theta",), exponent=True),
    "ecm": Target(_block_sums, lambda s, b, h, g: _block_mean(b, s[2]), lambda n, r, w, g: r * w,
                  _indicator_theta, reads=("theta",)),
}


def parse_target(target: str) -> tuple[str, float | None]:
    """Split "name" or "name(g)" into (name, g), checked against TARGETS."""
    m = re.fullmatch(r"(\w+)(?:\(([^)]*)\))?", target.strip())
    name, arg = m.groups() if m else (target, None)
    if name not in TARGETS or TARGETS[name].exponent != (arg is not None):
        forms = ", ".join(f"{k}(g)" if t.exponent else k for k, t in TARGETS.items())
        raise ConfigError(f"unknown target {target!r}; the targets are {forms}")
    if arg is None:
        return name, None
    g = parse_finite(arg, f"target {target!r}")
    if g < 0:
        raise ConfigError(f"{name} exponent must be >= 0, got {target!r}")
    return name, g


@dataclass(frozen=True)
class GridPoint:
    n: int
    r: int
    w: float
    u: float


@dataclass
class ExperimentConfig:
    model: ModelSpec
    functional: str
    grid: tuple              # tuples (n, r_rule, w_rule)
    replicates: int
    seed: int
    targets: tuple
    threads: int = 1

    def __post_init__(self):
        if self.replicates < 1:
            raise ConfigError("replicates must be >= 1")
        if self.threads < 1:
            raise ConfigError(f"threads must be >= 1, got {self.threads}")
        if not self.grid:
            raise ConfigError("grid has no n:r_rule:w_rule point")
        ns = [int(g[0]) for g in self.grid]
        if ns != sorted(ns):
            raise ConfigError("grid must be sorted by n")
        self.targets = tuple(self.targets)
        for t in self.targets:
            parse_target(t)
        get_functional(self.functional)

    def resolve_grid(self) -> list[GridPoint]:
        points = []
        for n, r_rule, w_rule in self.grid:
            n = int(n)
            try:
                r = math.ceil(parse_rule(r_rule)(n) - 1e-12)
                w = parse_rule(w_rule)(n)
            except OverflowError:
                raise ConfigError(f"rules {r_rule!r}, {w_rule!r} overflow at n={n}") from None
            if r < 2:
                raise ConfigError(f"rule {r_rule!r} gives r={r} < 2 at n={n}")
            if not 0.0 < w < 1.0:
                raise ConfigError(f"rule {w_rule!r} gives w={w} outside (0,1) at n={n}")
            if r > n // 4:
                raise ConfigError(f"r={r} leaves fewer than 4 blocks at n={n}")
            if self.model.block_size not in (None, r):
                raise ConfigError(f"piecewise size {self.model.block_size} is not r={r} at n={n}")
            for t in self.targets:         # no replicate may divide by 0 or overflow
                name, g = parse_target(t)
                try:
                    scale = TARGETS[name].scale((n // r) * r, r, w, g)
                except OverflowError:
                    scale = math.inf
                if not (math.isfinite(scale) and scale > 0):
                    raise ConfigError(f"target {t!r} has normalisation {scale!r} at n={n}")
            u = threshold_for_w(self.model, w)
            points.append(GridPoint(n=n, r=r, w=float(w), u=float(u)))
        return points

    def canonical(self) -> dict:
        return {
            "model": self.model.format(),
            "functional": self.functional,
            "grid": [[int(n), str(r), str(w)] for n, r, w in self.grid],
            "replicates": self.replicates,
            "seed": self.seed,
            "targets": list(self.targets),
        }

    @property
    def config_hash(self) -> str:
        blob = json.dumps(self.canonical(), sort_keys=True)
        return hashlib.sha256(blob.encode()).hexdigest()[:16]


@dataclass
class TableRow:
    grid_index: int
    n: int
    r: int
    w: float
    target: str
    mean: float
    sd: float
    se: float
    replicates: int


@dataclass
class ConvergenceTable:
    model: str
    alpha: float
    c0: float
    c1: float
    rows: list
    metadata: dict = field(default_factory=dict)

    def row(self, grid_index: int, target: str) -> TableRow:
        for r in self.rows:
            if r.grid_index == grid_index and r.target == target:
                return r
        raise KeyError((grid_index, target))

    def targets(self) -> list[str]:
        seen = []
        for r in self.rows:
            if r.target not in seen:
                seen.append(r.target)
        return seen

    def series(self, target: str) -> list[TableRow]:
        return sorted((r for r in self.rows if r.target == target),
                      key=lambda r: r.grid_index)


def _model_columns(model: ModelSpec) -> tuple[str, float, float, float]:
    base = model.base
    c = list(base.coeffs) + [0.0] * (2 - len(base.coeffs))
    return model.label(), base.alpha, c[0], c[1]


def _derived_seed(seed: int, g: int, k: int) -> int:
    ss = np.random.SeedSequence((seed & 0xFFFFFFFFFFFFFFFF, g, k))
    return int(ss.generate_state(1, np.uint64)[0])


def _replicate_values(model: ModelSpec, point: GridPoint, functional: str,
                      targets: tuple, seed: int) -> list[float]:
    """All requested targets for one generated replicate."""
    h = get_functional(functional)
    spec = model.with_block_size(point.r)
    n = point.n
    if spec.kind == "piecewise":
        n = (n // point.r) * point.r       # block copies must tile the sample
    book = model_bookkeeping(spec, n, seed, BlockConfig(r=point.r, u=point.u, w=point.w))
    parsed = [(TARGETS[name], g) for name, g in map(parse_target, targets)]
    # Sums of finite values may overflow; run_experiment rejects the rows.
    with np.errstate(over="ignore", invalid="ignore"):
        shared = {q: q(book, h, spec) for q in dict.fromkeys(t.needs for t, _ in parsed) if q}
        return [t.statistic(shared.get(t.needs), book, h, g)
                / t.scale(book.n_eff, book.r, book.w, g) for t, g in parsed]


def _worker(args):
    model, point, functional, targets, seed = args
    return _replicate_values(model, point, functional, targets, seed)


# -- process pool --------------------------------------------------------------


def pool_size(requested: int, jobs: int) -> int:
    """The workers that run `jobs` jobs: min(requested, jobs, CPU count), >= 1."""
    return max(1, min(requested, jobs, os.cpu_count() or 1))


def pool_map(fn: Callable, jobs: list, workers: int, chunksize: int = 1) -> list:
    """[fn(job) for job in jobs] on pool_size(workers, len(jobs)) processes.

    fn must be a module-level function.  At one worker the jobs run
    in-process; otherwise they run on a process pool of the platform's
    default start method, which is shut down (every worker joined) before
    the results return, in job order.
    """
    workers = pool_size(workers, len(jobs))
    if workers == 1:
        return [fn(job) for job in jobs]
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, jobs, chunksize=chunksize))


def run_experiment(cfg: ExperimentConfig) -> ConvergenceTable:
    """Run all replicates over the grid and aggregate per-target moments."""
    t0 = time.monotonic()
    points = cfg.resolve_grid()
    workers = pool_size(cfg.threads, len(points) * cfg.replicates)
    n_max = max(p.n for p in points)
    if n_max * 8 * 4 * workers > MEMORY_BUDGET:
        raise ConfigError(
            f"n={n_max} with {workers} workers exceeds the memory budget")

    jobs = []
    seeds_seen = {}
    for g in range(len(points)):
        for k in range(cfg.replicates):
            s = _derived_seed(cfg.seed, g, k)
            if s in seeds_seen:
                raise ConfigError(f"derived seed collision at {(g, k)}")
            seeds_seen[s] = (g, k)
            jobs.append((cfg.model, points[g], cfg.functional, cfg.targets, s))

    results = pool_map(_worker, jobs, workers, chunksize=8)

    rows = []
    for g, point in enumerate(points):
        block = np.array(results[g * cfg.replicates:(g + 1) * cfg.replicates])
        for t_idx, target in enumerate(cfg.targets):
            col = block[:, t_idx]
            with np.errstate(over="ignore", invalid="ignore"):
                mean = float(col.mean())
                sd = float(col.std(ddof=1)) if cfg.replicates > 1 else 0.0
            se = sd / math.sqrt(cfg.replicates)
            if not all(map(math.isfinite, (mean, sd, se))):
                raise FunctionalContractError(
                    f"{cfg.functional}: sums of finite values overflow a float "
                    f"(target {target} at n={point.n})")
            rows.append(TableRow(grid_index=g, n=point.n, r=point.r, w=point.w,
                                 target=target, mean=mean, sd=sd, se=se,
                                 replicates=cfg.replicates))
    label, alpha, c0, c1 = _model_columns(cfg.model)
    meta = {"config_hash": cfg.config_hash, "code_version": __version__,
            "wall_time_s": time.monotonic() - t0}
    return ConvergenceTable(model=label, alpha=alpha, c0=c0, c1=c1,
                            rows=rows, metadata=meta)


# -- verdicts ------------------------------------------------------------------


@dataclass
class VerdictReport:
    rows: dict
    rel_band: float

    @property
    def passed(self) -> bool:
        return all(r["passed"] for r in self.rows.values())

    def to_dict(self) -> dict:
        return {"rel_band": self.rel_band, "passed": self.passed, "rows": self.rows}

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)


def check_band(rel_band: float) -> float:
    """rel_band itself, with ConfigError unless it is finite and > 0."""
    if not (math.isfinite(rel_band) and rel_band > 0):
        raise ConfigError(f"relative band must be finite and > 0, got {rel_band!r}")
    return rel_band


def summarize(table: ConvergenceTable, expected: dict, rel_band: float = 0.15) -> VerdictReport:
    """Per-target verdict at the final grid point.

    A target passes when its final mean is within 3 SE of the expected
    constant, or within the relative band with the absolute error
    monotonically shrinking along the grid.  Targets with expected value 0
    use the 3 SE band alone.
    """
    check_band(rel_band)
    if not table.rows:
        raise ConfigError("empty table")
    rows = {}
    for target in table.targets():
        if target not in expected:
            raise ConfigError(f"no expected value for target {target!r}")
        exp = float(expected[target])
        seq = table.series(target)
        final = seq[-1]
        err = abs(final.mean - exp)
        within_3se = err <= 3.0 * final.se
        diffs = [abs(r.mean - exp) for r in seq]
        monotone = all(b <= a + 1e-12 for a, b in zip(diffs, diffs[1:]))
        if exp == 0.0:
            rel = float("inf") if final.mean != 0 else 0.0
            passed = within_3se
        else:
            rel = err / abs(exp)
            passed = within_3se or (rel <= rel_band and monotone)
        rows[target] = {"final_mean": final.mean, "final_se": final.se,
                        "expected": exp, "rel_error": rel,
                        "within_3se": within_3se, "monotone": monotone,
                        "passed": passed}
    return VerdictReport(rows=rows, rel_band=rel_band)


def limit_constants(targets) -> frozenset:
    """The LimitTable constants read by the limits of `targets`."""
    return frozenset(c for t in targets for c in TARGETS[parse_target(t)[0]].reads)


def expected_targets(lt: LimitTable, targets) -> dict:
    """Map target names to their limit constants for the verdict step."""
    return {t: TARGETS[name].limit(lt, g) for t in targets for name, g in [parse_target(t)]}


# -- persistence ---------------------------------------------------------------


def csv_text(table: ConvergenceTable) -> str:
    lines = [CSV_HEADER]
    for r in table.rows:
        lines.append(",".join([
            table.model, repr(float(table.alpha)), repr(float(table.c0)),
            repr(float(table.c1)), str(r.n), str(r.r), repr(float(r.w)),
            str(r.replicates), r.target, repr(float(r.mean)),
            repr(float(r.sd)), repr(float(r.se)),
        ]))
    return "\n".join(lines) + "\n"


def persist(table: ConvergenceTable, path, fmt: str = "csv") -> None:
    """Write a table; CSV columns are fixed and byte-stable for fixed input."""
    if fmt == "csv":
        with open(path, "w") as fh:
            fh.write(csv_text(table))
    elif fmt == "json":
        payload = {
            "model": table.model, "alpha": table.alpha, "c0": table.c0,
            "c1": table.c1,
            "metadata": {k: v for k, v in table.metadata.items()
                         if k != "wall_time_s"},
            "rows": [dict(grid_index=r.grid_index, n=r.n, r=r.r, w=r.w,
                          target=r.target, mean=r.mean, sd=r.sd, se=r.se,
                          replicates=r.replicates) for r in table.rows],
        }
        with open(path, "w") as fh:
            fh.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    else:
        raise PersistError(f"unknown format {fmt!r}")


def load(path) -> ConvergenceTable:
    """Load a CSV or JSON table written by persist()."""
    with open(path) as fh:
        text = fh.read()
    if text.lstrip().startswith("{"):
        payload = json.loads(text)
        try:
            rows = [TableRow(grid_index=int(r["grid_index"]), n=int(r["n"]),
                             r=int(r["r"]), w=float(r["w"]), target=r["target"],
                             mean=float(r["mean"]), sd=float(r["sd"]),
                             se=float(r["se"]), replicates=int(r["replicates"]))
                    for r in payload["rows"]]
            return ConvergenceTable(model=payload["model"], alpha=payload["alpha"],
                                    c0=payload["c0"], c1=payload["c1"], rows=rows,
                                    metadata=payload.get("metadata", {}))
        except KeyError as exc:
            raise PersistError(f"missing column: {exc.args[0]}") from exc
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise PersistError("empty table file")
    header = lines[0].split(",")
    wanted = CSV_HEADER.split(",")
    for col in wanted:
        if col not in header:
            raise PersistError(f"missing column: {col}")
    idx = {c: header.index(c) for c in wanted}
    rows = []
    model = alpha = c0 = c1 = None
    grid_seen: dict[tuple, int] = {}
    for ln in lines[1:]:
        f = ln.split(",")
        if len(f) != len(header):
            raise PersistError(f"malformed row: {ln!r}")
        model = f[idx["model"]]
        alpha = float(f[idx["alpha"]])
        c0 = float(f[idx["c0"]])
        c1 = float(f[idx["c1"]])
        key = (int(f[idx["n"]]), int(f[idx["r"]]), float(f[idx["w"]]))
        g = grid_seen.setdefault(key, len(grid_seen))
        rows.append(TableRow(grid_index=g, n=key[0], r=key[1], w=key[2],
                             target=f[idx["target"]], mean=float(f[idx["mean"]]),
                             sd=float(f[idx["sd"]]), se=float(f[idx["se"]]),
                             replicates=int(f[idx["replicates"]])))
    return ConvergenceTable(model=model, alpha=alpha, c0=c0, c1=c1, rows=rows)
