"""Exact decomposition of sliding minus disjoint block sums.

For blocks of size r the raw sums

    SB = sum_{j=1}^{m-1} SB_j,   DB = sum_{j=1}^{m-1} DB_j,

with SB_j the sliding-window sum started inside block j and DB_j = r *
H(block j), satisfy the pathwise identity

    SB - DB = IC + BC + R,

where IC collects internal clusters (exceedances isolated in one block),
BC boundary clusters (exceedances in exactly two adjacent blocks) and R
the sample-boundary and >=3-consecutive-block remainder events.  The sums
run to m-1 because windows started in block m would leave the sample;
block m still participates through the events and the SB_{m-1} windows.

Every cluster statistic is computed along two independent routes: the
exceedance-time fast path, which `internal_cluster_stat` and
`boundary_cluster_stat` take, and direct window summation (ground truth
by definition), which runs only in `path_deviations`, once per event.
Reports carry the maximal deviation between routes.  The fast path reads
nothing but the exceedance times: every IC and BC term is H on a piece
t_a..t_b of one event's times, and H of a pattern-backed functional is
evaluated by its evaluator once per distinct (count, length) of a piece
of one statistic.  An event's times are a slice of the sorted positions,
found by one binary search per event kind and bookkeeping.  A piece, and
every event block or merged window the reference route reads, holds an
exceedance by construction, so the evaluator is called on it directly.

Cost: one O(n) pass to build the bookkeeping (`blocks.model_bookkeeping`
over a model's uniform stream, computing X only on the blocks an
exceedance can reach, or `blocks.block_bookkeeping` over a given series),
which keeps X/u in O(k r) memory next to the exceedances only, then
O(k r) work and memory.  Every magnitude is read through
`BlockBookkeeping.window`.  SB is summed over the at most 2k + 1 runs of
window starts that see the same exceedances and DB over the active
blocks' values, both by `blocks.padded_sum`, which gives the bits of the
dense reduction: a real-valued H (values not integral) still falls back
to that reduction and its per-start (SB) or per-block (DB) vector.  The
raw sums share nothing with the reference sums SB_j, DB_j, which are
evaluated and kept, keyed by block, only for the blocks an exceedance
can reach, once per functional, for the reference routes and the
remainder only.  `decompose` reads everything from one bookkeeping, so
several functionals share one pass and what the bookkeeping derives from
its positions alone (window runs and keys, reference blocks, event rows;
see `blocks.BlockBookkeeping`).  It keys the three start sets its routes
read (the SB runs, the active blocks' starts and the reference windows'
starts) in one binary search of the positions.  Each functional then
evaluates H on them: a pattern-backed H in one `pattern_value` call over
that key table, of which each start set reads its own slice, any other
H on every window that holds an exceedance.  The two routes read
separate entries, and no value of H passes from one route, or one
functional, to another.
"""

from __future__ import annotations

import hashlib
import json
import logging
import math
import operator
from dataclasses import dataclass, field, fields
from typing import NamedTuple

import numpy as np

from .blocks import (BlockBookkeeping, BlockConfig, active_block_values,
                     block_bookkeeping, block_sum, model_bookkeeping, window_sum,
                     window_values_at)
from .errors import ConfigError, FunctionalContractError
from .functionals import ClusterFunctional
from .models import MagnitudeSeries, ModelSpec, gen_series

log = logging.getLogger("clusterblocks")


# -- elementary sums ---------------------------------------------------------


class ReferenceSums(NamedTuple):
    """Direct window sums keyed by the 1-based block j, where they can be nonzero.

    SB_j is kept for the blocks j <= m-1 where block j or j+1 is active,
    DB_j for the active blocks j <= m-1.  Every other SB_j and DB_j is 0
    by hypothesis (ii), and readers take 0.0 for a block without a key, so
    the sums cost O(k r) memory instead of two float arrays of length m.
    """

    sb: dict             # SB_j, summed window by window
    db: dict             # DB_j = r * H(block j), by the evaluator


def reference_sums(book: BlockBookkeeping, h: ClusterFunctional) -> ReferenceSums:
    """SB_j and DB_j for every block an exceedance reaches, once per functional.

    SB_j reads blocks j and j+1, so its windows are evaluated (in one
    batched call, each row summed over its r windows) only where one of
    them is active; DB_j only on active blocks.  Those blocks and starts
    are the bookkeeping's `reference`.  `path_deviations` and the
    remainder enumeration share the result through the bookkeeping;
    `raw_sums` never reads it.
    """
    # Keyed by id: evaluators need not be hashable.  The entry holds h,
    # so the id cannot be reused while the entry exists.
    entry = book.sums.get(id(h))
    if entry is not None:
        return entry[1]
    r = book.r
    sb_blocks, starts, db_blocks, db_at = book.reference
    vals = window_values_at(book, book.pos, starts, r, h).reshape(len(sb_blocks), r)
    sb = dict(zip(sb_blocks, np.add.reduce(vals, axis=1).tolist()))
    # eval_functional without its exceedance test: these blocks exceed.
    # Block k's window, `book.block_window(k)`, starts at its offset.
    ev, x = h.evaluator, book.values
    db = {k: r * float(ev(x[a:a + r])) for k, a in zip(db_blocks, db_at)}
    sums = ReferenceSums(sb, db)
    book.sums[id(h)] = (h, sums)
    return sums


def raw_sums(book: BlockBookkeeping, h: ClusterFunctional,
             vals: np.ndarray | None = None) -> tuple[float, float]:
    """(SB, DB) over blocks 1..m-1, equal bit for bit to the dense reductions.

    SB is summed over the runs of `window_segments`, DB over the active
    blocks' values (zero elsewhere), both in O(k) evaluations; `vals` are
    those values, `active_block_values(book, h)`, where the caller already
    holds them.  Neither reads `reference_sums`, which stays the
    independent check.
    """
    r, m = book.r, book.m
    if vals is None:
        vals = active_block_values(book, h)
    sb = window_sum(book, h, 1, (m - 1) * r)
    db = float(r * block_sum(book, vals, 1, m - 1))
    return sb, db


# -- exceedance-time pieces ----------------------------------------------------


class _Pieces:
    """H on the pieces of one bookkeeping's exceedance times.

    The piece (a, b) is the scaled series from the exceedance pos[a] to
    pos[b] (0-based indices into `pos`, a <= b), which by hypothesis (iii)
    H sees as it sees any window holding exactly those exceedances.  A
    pattern-backed H is a function of the piece's (count, length), so it
    is evaluated on the first piece of each key and read back for the
    others; any other H is evaluated on every piece.
    """

    def __init__(self, book: BlockBookkeeping, h: ClusterFunctional):
        self.pos = book.pos_list
        self.window = book.window
        self.evaluator = h.evaluator
        self.memo = {} if h.pattern_value is not None else None

    def value(self, a: int, b: int) -> float:
        # A piece holds its end exceedances: the evaluator is called directly.
        pos = self.pos
        if self.memo is None:
            return float(self.evaluator(self.window(pos[a], pos[b])))
        key = (b - a + 1, pos[b] - pos[a] + 1)
        v = self.memo.get(key)
        if v is None:
            v = self.memo[key] = float(self.evaluator(self.window(pos[a], pos[b])))
        return v

    def ic_sum(self, a: int, b: int) -> float:
        """The induced internal-cluster value of the times pos[a..b]:

            sum_i (t_{i+1} - t_i) * (H(t_a..t_i) + H(t_{i+1}..t_b) - H(t_a..t_b)),

        added in the order of `functionals.induced_ic`; 0 below two times.
        """
        if b <= a:
            return 0.0
        pos, value = self.pos, self.value
        total = value(a, b)
        acc = 0.0
        for i in range(a, b):
            acc += (pos[i + 1] - pos[i]) * (value(a, i) + value(i + 1, b) - total)
        return acc


# -- internal clusters --------------------------------------------------------


def _event_starts(book: BlockBookkeeping, kind: str) -> list:
    """The active blocks j, ascending, where an event of the kind holds."""
    blocks, on, m = book.active_list, book.active_set, book.m
    if kind == "piecewise":
        return [j for j in blocks if 1 < j < m]
    if kind == "standard":
        return [j for j in blocks if 1 < j < m and j - 1 not in on and j + 1 not in on]
    return [j for j in blocks                                         # "boundary"
            if 1 < j < m - 1 and j - 1 not in on and j + 1 in on and j + 2 not in on]


def _event_blocks(book: BlockBookkeeping, kind: str) -> list:
    """The event blocks of one kind with their spans, once per bookkeeping.

    Row [j, a, b] of an internal kind, or [j, a, s, b] of "boundary",
    holds the event block j and the numbers of exceedances in blocks
    1..j-1, 1..j (and 1..j+1): pos[a:b] are the event's times and pos[a:s]
    block j's.  The rows depend on `book.active` and `book.pos` alone, so
    every functional decomposed on the same bookkeeping reads them from
    its `events`; the spans of a kind are one binary search of `pos`.
    """
    rows = book.events.get(kind)
    if rows is None:
        j = _event_starts(book, kind)
        rows = []
        if j:               # most tiny series have no event of a kind: skip the search
            j = np.array(j)[:, None]
            edges = (j + np.arange(-1, 2 if kind == "boundary" else 1)) * book.r
            rows = np.concatenate((j, book.pos.searchsorted(edges, side="right")), axis=1).tolist()
        book.events[kind] = rows
    return rows


def internal_event_blocks(book: BlockBookkeeping, mode: str = "standard") -> list:
    """Rows [j, a, b]: the 1-based blocks j in 2..m-1 where the
    internal-cluster event holds, with block j's times pos[a:b]."""
    if mode not in ("standard", "piecewise"):
        raise ConfigError(f"unknown internal-cluster mode {mode!r}")
    return _event_blocks(book, mode)


def _ic_reference(book: BlockBookkeeping, h: ClusterFunctional, j: int) -> float:
    sb, db = reference_sums(book, h)
    return sb.get(j - 1, 0.0) + sb.get(j, 0.0) - db.get(j, 0.0)


def internal_cluster_stat(book: BlockBookkeeping, h: ClusterFunctional,
                          mode: str = "standard"):
    """Internal clusters statistic and its per-block values.

    Each event block contributes the induced internal-cluster functional
    of its exceedance times, read from the bookkeeping's positions alone;
    `path_deviations` checks it against the direct sums
    SB_{j-1} + SB_j - DB_j.
    """
    pieces = _Pieces(book, h)
    per_block = {j: pieces.ic_sum(a, b - 1) for j, a, b in internal_event_blocks(book, mode)}
    return float(sum(per_block.values())), per_block


# -- boundary clusters --------------------------------------------------------


@dataclass
class BoundaryParts:
    bc1: float
    bc2_tilde: float
    bc2_overline: float
    per_pair: list = field(default_factory=list)

    @property
    def total(self) -> float:
        return self.bc1 + self.bc2_tilde + self.bc2_overline


def boundary_event_blocks(book: BlockBookkeeping) -> list:
    """Rows [j, a, s, b]: the 1-based blocks j in 2..m-2 starting a
    boundary-cluster event, with block j's times pos[a:s] and block j+1's
    pos[s:b]."""
    return _event_blocks(book, "boundary")


def _bc1(book: BlockBookkeeping, h: ClusterFunctional, merged, left, right) -> float:
    """r * (H(merged) - H(left) - H(right)) for a pair's windows, each of
    which holds an exceedance, so the evaluator is called directly."""
    ev = h.evaluator
    return book.r * (float(ev(merged)) - float(ev(left)) - float(ev(right)))


def _bc2_reference(book: BlockBookkeeping, h: ClusterFunctional, j: int) -> float:
    sb = reference_sums(book, h).sb
    # blocks j and j+1 of a pair are active: the evaluator is called directly
    return ((sb.get(j - 1, 0.0) + sb.get(j, 0.0) + sb.get(j + 1, 0.0))
            - book.r * float(h.evaluator(book.merged_window(j))))


def boundary_cluster_stat(book: BlockBookkeeping, h: ClusterFunctional) -> BoundaryParts:
    """Boundary clusters statistic split into its block-merge part (bc1)
    and window-sum part (bc2), the latter further split by whether the
    joint cluster length stays below r ("tilde") or not ("overline").

    bc1 is r * (H(merged cluster) - H(cluster j) - H(cluster j+1)), read
    from the pair's exceedance times split between the two blocks.  bc2 on
    {L_{j,j+1} < r} is the merged-time gap expansion, which coincides with
    the induced internal-cluster form of the pair's times; the overline
    part is computed by direct summation, since the gap formula is only
    stated below r.
    """
    parts = BoundaryParts(0.0, 0.0, 0.0)
    pieces = _Pieces(book, h)
    for j, a, split, b in boundary_event_blocks(book):
        b -= 1              # pos[a..split-1] are block j's times, pos[split..b] block j+1's
        bc1_j = book.r * (pieces.value(a, b) - pieces.value(a, split - 1)
                          - pieces.value(split, b))
        joint = pieces.pos[b] - pieces.pos[a] + 1
        short = joint < book.r
        parts.bc1 += bc1_j
        if short:
            bc2_j = pieces.ic_sum(a, b)
            parts.bc2_tilde += bc2_j
        else:
            bc2_j = _bc2_reference(book, h, j)
            parts.bc2_overline += bc2_j
        parts.per_pair.append({"j": j, "bc1": bc1_j, "bc2": bc2_j,
                               "joint_length": joint, "short": short})
    return parts


def path_deviations(book: BlockBookkeeping, h: ClusterFunctional,
                    per_ic: dict, per_pair: list) -> tuple[float, float]:
    """(max |delta ic|, max |delta bc1| + |delta bc2|) of the fast values
    against the reference route.

    The reference route runs here only, once per event: SB_{j-1} + SB_j -
    DB_j for an internal block (standard mode), bc1 on the whole blocks
    instead of the cluster windows and, on short pairs, bc2 by direct
    summation.  A long pair's bc2 is a direct sum on both routes.  per_ic
    and per_pair are the per-event values of `internal_cluster_stat` and
    `boundary_cluster_stat`.
    """
    ic_dev = max((abs(v - _ic_reference(book, h, j)) for j, v in per_ic.items()),
                 default=0.0)

    def bc_dev(pair: dict) -> float:
        j = pair["j"]
        dev = abs(pair["bc1"] - _bc1(book, h, book.merged_window(j),
                                     book.block_window(j), book.block_window(j + 1)))
        if pair["short"]:
            dev += abs(pair["bc2"] - _bc2_reference(book, h, j))
        return dev

    return ic_dev, max(map(bc_dev, per_pair), default=0.0)


# -- remainder ----------------------------------------------------------------


def remainder_stat(book: BlockBookkeeping, h: ClusterFunctional,
                   sb: float, db: float, ic: float, bc: float):
    """(r_op, r_ic, r_bc, r_nc).

    r_op is the operational remainder (sb - db) - ic - bc.  The other
    three re-derive the remainder from its event enumeration by direct
    window sums: sample-boundary single blocks (r_ic), sample-boundary
    pairs (r_bc) and runs of three or more active blocks (r_nc).  Events
    are read off the active blocks (`BlockBookkeeping.block_runs` for r_nc) and
    their terms are added in ascending j.
    """
    m = book.m
    if m < 3:
        raise ConfigError(f"need at least 3 blocks, got m={m}")
    sb_j, db_j = reference_sums(book, h)

    def s(j):
        return sb_j.get(j, 0.0)

    def t(j):
        return sb_j.get(j, 0.0) - db_j.get(j, 0.0)

    on = book.active_set
    r_op = (sb - db) - ic - bc

    r_ic = 0.0
    if 1 in on and 2 not in on:
        r_ic += t(1)
    if m in on and m - 1 not in on:
        r_ic += s(m - 1)

    r_bc = 0.0
    if 1 in on and 2 in on:
        r_bc += t(1)
        if 3 not in on:
            r_bc += t(2)
    if m - 1 in on and m in on:
        if m - 2 not in on:
            r_bc += s(m - 2)
        r_bc += t(m - 1)

    # j in 2..m-2 with blocks j, j+1 active and the run continuing on at
    # least one side: run start S_{j-1} + T_j, run end T_j + T_{j+1},
    # inside T_j.  Neither side continuing is a boundary cluster.
    r_nc = 0.0
    for j, before, after in book.block_runs:
        r_nc += t(j) + ((0.0 if after else t(j + 1)) if before else s(j - 1))
    return r_op, r_ic, r_bc, r_nc


# -- full report --------------------------------------------------------------


@dataclass
class DecompositionReport:
    n: int
    n_eff: int
    discarded: int
    m: int
    r: int
    u: float
    w: float
    w_source: str
    functional: str
    db: float
    sb: float
    ic: float
    bc1: float
    bc2_tilde: float
    bc2_overline: float
    bc: float
    r_op: float
    r_ic: float
    r_bc: float
    r_nc: float
    residual_identity: float
    residual_paper: float
    ic_path_deviation: float
    bc_path_deviation: float
    disjoint_stat: float
    sliding_stat: float
    ic_norm: float
    bc_norm: float
    gap_scaled: float
    per_block: dict | None = None

    def to_dict(self, verbose: bool = False) -> dict:
        out = {k: v for k, v in self.__dict__.items() if k != "per_block"}
        if verbose and self.per_block is not None:
            out["per_block"] = self.per_block
        return out

    def to_json(self, verbose: bool = False) -> str:
        return json.dumps(self.to_dict(verbose), indent=2, sort_keys=True)


_REPORT_FLOATS = [f.name for f in fields(DecompositionReport) if f.type == "float"]
_report_floats = operator.attrgetter(*_REPORT_FLOATS)


def decompose(book: BlockBookkeeping, h: ClusterFunctional, w_source: str = "supplied",
              verbose: bool = False) -> DecompositionReport:
    """The full decomposition of one bookkeeping, with both routes and all
    residuals.

    residual_identity is zero by construction; residual_paper compares the
    operational remainder against the event-enumerated one and is expected
    to vanish.  Sums of finite values may still overflow a float; such a
    report raises FunctionalContractError instead of carrying inf or nan.
    """
    m, r, w, n_eff = book.m, book.r, book.w, book.n_eff
    if m < 3:
        raise ConfigError(f"need at least 3 blocks, got m={m}")
    # the three start sets the two routes read, in one pass
    book.key(book.sb_runs, book.active_starts, book.reference[1])
    with np.errstate(over="ignore", invalid="ignore"):
        sb, db = raw_sums(book, h)
        # The pathwise identity always uses the neighbour-excluded events;
        # the piecewise variant of IC is a rate target, not part of it.
        ic, per_ic = internal_cluster_stat(book, h)
        bc_parts = boundary_cluster_stat(book, h)
        ic_dev, bc_dev = path_deviations(book, h, per_ic, bc_parts.per_pair)
        bc = bc_parts.total
        r_op, r_ic, r_bc, r_nc = remainder_stat(book, h, sb, db, ic, bc)
    residual_identity = (sb - db) - ic - bc - r_op
    residual_paper = r_op - (r_ic + r_bc + r_nc)

    disjoint = db / (n_eff * r * w)
    sliding = sb / (n_eff * r * w)
    report = DecompositionReport(
        n=n_eff + book.discarded, n_eff=n_eff, discarded=book.discarded, m=m, r=r,
        u=book.u, w=w, w_source=w_source, functional=h.name,
        db=db, sb=sb, ic=ic, bc1=bc_parts.bc1, bc2_tilde=bc_parts.bc2_tilde,
        bc2_overline=bc_parts.bc2_overline, bc=bc,
        r_op=r_op, r_ic=r_ic, r_bc=r_bc, r_nc=r_nc,
        residual_identity=residual_identity, residual_paper=residual_paper,
        ic_path_deviation=ic_dev, bc_path_deviation=bc_dev,
        disjoint_stat=disjoint, sliding_stat=sliding,
        ic_norm=ic / (n_eff * w), bc_norm=bc / (n_eff * w),
        gap_scaled=r * (disjoint - sliding),
        per_block={"ic": per_ic, "pairs": bc_parts.per_pair} if verbose else None,
    )
    floats = _report_floats(report)
    if not all(map(math.isfinite, floats)):
        bad = [k for k, v in zip(_REPORT_FLOATS, floats) if not math.isfinite(v)]
        raise FunctionalContractError(
            f"{h.name}: sums of finite values overflow a float ({', '.join(bad)})")
    return report


def expansion_report(series: MagnitudeSeries | tuple[ModelSpec, int, int], cfg: BlockConfig,
                     h: ClusterFunctional, w_source: str = "supplied", verbose: bool = False,
                     counterexample_dir=None) -> DecompositionReport:
    """`decompose` on the series' bookkeeping, plus the counterexample check.

    `series` is a series or the (spec, n, seed) that `gen_series` would
    generate it from; the latter is decomposed through `model_bookkeeping`
    and generated densely only for a counterexample.  A residual_paper
    beyond the tolerance (0 for integer-valued H, else relative 1e-9) is
    reported and optionally dumped as a counterexample artifact with the
    series, never patched over.
    """
    if isinstance(series, MagnitudeSeries):
        book = block_bookkeeping(series, cfg)
    else:
        book = model_bookkeeping(*series, cfg)
    report = decompose(book, h, w_source, verbose)
    scale = max(abs(report.sb - report.db), abs(report.ic), abs(report.bc))
    tol = 0.0 if h.integer_valued else 1e-9 * max(1.0, scale)
    if abs(report.residual_paper) > tol:
        if not isinstance(series, MagnitudeSeries):
            series = gen_series(*series)
        _record_counterexample(report, series, counterexample_dir)
    return report


def _record_counterexample(report: DecompositionReport, series: MagnitudeSeries,
                           directory) -> None:
    payload = report.to_dict()
    payload["model"] = series.model.format() if series.model is not None else None
    payload["seed"] = series.seed
    if len(series) <= 5000:
        payload["values"] = [float(v) for v in series.values]
    blob = json.dumps(payload, sort_keys=True)
    digest = hashlib.sha256(blob.encode()).hexdigest()[:16]
    log.warning("remainder enumeration mismatch (residual_paper=%s); "
                "counterexample %s", report.residual_paper, digest)
    if directory is not None:
        import pathlib

        directory = pathlib.Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        (directory / f"counterexample_{digest}.json").write_text(blob)
