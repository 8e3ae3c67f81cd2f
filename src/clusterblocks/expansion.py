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

Every cluster statistic is computed along two independent routes: direct
window summation (ground truth by definition) and the exceedance-time
fast path.  Reports carry the maximal deviation between routes.

Cost: one O(n) threshold scan (`block_bookkeeping`), then work in the
exceedance positions only.  SB is summed over the at most 2k + 1 runs of
window starts that see the same exceedances, DB over the active blocks,
and the reference sums SB_j, DB_j are evaluated densely for the blocks an
exceedance can reach, once per functional.
"""

from __future__ import annotations

import hashlib
import json
import logging
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .blocks import BlockConfig, truncated_length, window_sum, window_values_at
from .errors import ConfigError
from .functionals import ClusterFunctional, eval_functional, induced_ic
from .models import MagnitudeSeries

log = logging.getLogger("clusterblocks")


@dataclass
class BlockBookkeeping:
    """Per-block exceedance data for a series cut into m blocks of size r.

    Block indices j are 1-based.  Exceedance times are absolute 1-based
    series positions; the conventions t_j(0) = (j-1)r and t_j(N_j+1) = jr
    are implicit in the gap computations.
    """

    r: int
    u: float
    w: float
    m: int
    n_eff: int
    discarded: int
    scaled: np.ndarray
    pos: np.ndarray          # all exceedance positions, 1-based
    idx: np.ndarray          # pos[idx[j-1]:idx[j]] are block j's times
    counts: np.ndarray
    first: np.ndarray        # 0 where the block is empty
    last: np.ndarray
    active: np.ndarray
    sums: dict = field(default_factory=dict, repr=False, compare=False)  # reference_sums cache

    def times(self, j: int) -> np.ndarray:
        return self.pos[self.idx[j - 1]: self.idx[j]]

    def block_window(self, j: int) -> np.ndarray:
        return self.scaled[(j - 1) * self.r: j * self.r]

    def merged_window(self, j: int) -> np.ndarray:
        return self.scaled[(j - 1) * self.r: (j + 1) * self.r]

    def joint_length(self, j: int) -> int:
        """L_{j,j+1} = t_{j+1}(N_{j+1}) - t_j(1) + 1; blocks must be active."""
        return int(self.last[j]) - int(self.first[j - 1]) + 1

    def cluster_window(self, j: int) -> np.ndarray:
        """Scaled values from the first to the last exceedance of block j."""
        return self.scaled[int(self.first[j - 1]) - 1: int(self.last[j - 1])]

    def merged_cluster_window(self, j: int) -> np.ndarray:
        return self.scaled[int(self.first[j - 1]) - 1: int(self.last[j])]


def block_bookkeeping(series: MagnitudeSeries, cfg: BlockConfig) -> BlockBookkeeping:
    """Single pass over the series: counts, times and events per block."""
    n = len(series)
    m, discarded = truncated_length(n, cfg.r)
    if m < 3:
        raise ConfigError(f"need at least 3 blocks, got m={m}")
    n_eff = m * cfg.r
    scaled = series.values[:n_eff] / cfg.u
    pos = np.flatnonzero(scaled > 1.0).astype(np.int64) + 1
    idx = np.searchsorted(pos, np.arange(m + 1, dtype=np.int64) * cfg.r + 1)
    counts = np.diff(idx)
    active = counts > 0
    first = np.zeros(m, dtype=np.int64)
    last = np.zeros(m, dtype=np.int64)
    if pos.size:
        first[active] = pos[idx[:-1][active]]
        last[active] = pos[idx[1:][active] - 1]
    return BlockBookkeeping(r=cfg.r, u=cfg.u, w=cfg.w, m=m, n_eff=n_eff,
                            discarded=discarded, scaled=scaled, pos=pos,
                            idx=idx, counts=counts, first=first, last=last,
                            active=active)


# -- elementary sums ---------------------------------------------------------


def sliding_block_sum(book: BlockBookkeeping, h: ClusterFunctional, j: int) -> float:
    """SB_j: direct sum of H over the r windows starting inside block j."""
    if not 1 <= j <= book.m - 1:
        raise ConfigError("sliding sums exist for blocks 1..m-1 only")
    starts = np.arange((j - 1) * book.r + 1, j * book.r + 1, dtype=np.int64)
    return float(window_values_at(book.scaled, book.pos, starts, book.r, h).sum())


class ReferenceSums(NamedTuple):
    """Direct window sums at index j = 1..m-1 (index 0 unused).

    `block` is the window evaluation the DB total reduces; `db` evaluates
    the raw block with the evaluator, as the reference DB_j always has.
    They agree except in the last bit where a pattern_value rounds
    differently from its evaluator (numpy vs Python powers).
    """

    sb: np.ndarray       # SB_j, summed window by window
    block: np.ndarray    # H(block j), the first window of SB_j
    db: np.ndarray       # DB_j = r * H(block j)


def reference_sums(book: BlockBookkeeping, h: ClusterFunctional) -> ReferenceSums:
    """SB_j and DB_j for every block an exceedance reaches, once per functional.

    SB_j reads blocks j and j+1, so its windows are evaluated (in one
    batched call, rows reduced like `sliding_block_sum`) only where one of
    them is active; DB_j only on active blocks.  All other sums are 0 by
    hypothesis (ii).  The IC/BC reference routes, `path_deviations` and the
    remainder enumeration share the result through the bookkeeping.
    """
    # Keyed by id: evaluators need not be hashable.  The entry holds h,
    # so the id cannot be reused while the entry exists.
    entry = book.sums.get(id(h))
    if entry is not None:
        return entry[1]
    r, m, a = book.r, book.m, book.active
    j = np.flatnonzero(a[:-1] | a[1:]) + 1
    starts = (((j - 1) * r + 1)[:, None] + np.arange(r)).ravel()
    vals = window_values_at(book.scaled, book.pos, starts, r, h).reshape(j.size, r)
    sb = np.zeros(m)
    sb[j] = vals.sum(axis=1)
    block = np.zeros(m)
    block[j] = vals[:, 0]
    db = np.zeros(m)
    act = np.flatnonzero(a[:-1]) + 1
    # eval_functional without its exceedance test: these blocks exceed
    db[act] = [r * float(h.evaluator(book.block_window(k))) for k in act.tolist()]
    sums = ReferenceSums(sb, block, db)
    book.sums[id(h)] = (h, sums)
    return sums


def raw_sums(book: BlockBookkeeping, h: ClusterFunctional) -> tuple[float, float]:
    """(SB, DB) over blocks 1..m-1, equal bit for bit to the dense reductions.

    SB is summed over the runs of `window_segments`, DB over the active
    blocks' values (zero elsewhere), both in O(k) evaluations.
    """
    r, m = book.r, book.m
    sb = window_sum(book.scaled, book.pos, r, h, 1, (m - 1) * r)
    db = float(r * reference_sums(book, h).block[1:].sum())
    return sb, db


# -- internal clusters --------------------------------------------------------


def internal_event_blocks(book: BlockBookkeeping, mode: str = "standard") -> np.ndarray:
    """1-based blocks j in 2..m-1 where the internal-cluster event holds."""
    a = book.active
    m = book.m
    if mode == "piecewise":
        return np.flatnonzero(a[1:m - 1]) + 2
    if mode != "standard":
        raise ConfigError(f"unknown internal-cluster mode {mode!r}")
    fire = a[1:m - 1] & ~a[0:m - 2] & ~a[2:m]
    return np.flatnonzero(fire) + 2


def _padded_reference_ic(block_window: np.ndarray, h: ClusterFunctional, r: int) -> float:
    """SB_1 + SB_2 - DB_2 of the block embedded between two empty blocks.

    The piecewise mode keeps blocks with active neighbours, where the
    in-sample window sums no longer isolate the block; padding recreates
    the isolating event without touching the fast path.
    """
    padded = np.concatenate([np.zeros(r), block_window, np.zeros(r)])
    pos = np.flatnonzero(padded > 1.0).astype(np.int64) + 1
    starts = np.arange(1, 2 * r + 1, dtype=np.int64)
    sb = float(window_values_at(padded, pos, starts, r, h).sum())
    return sb - r * eval_functional(h, block_window)


def _ic_reference(book: BlockBookkeeping, h: ClusterFunctional, j: int) -> float:
    ref = reference_sums(book, h)
    return float(ref.sb[j - 1] + ref.sb[j] - ref.db[j])


def internal_cluster_stat(book: BlockBookkeeping, h: ClusterFunctional,
                          mode: str = "standard", path: str = "fast"):
    """Internal clusters statistic and its per-block values.

    Fast path: the induced internal-cluster functional of the block.
    Reference path: SB_{j-1} + SB_j - DB_j by direct window summation; in
    piecewise mode (no neighbour-exclusion indicators) the reference sums
    are taken over the block padded with empty neighbours.
    """
    per_block: dict[int, float] = {}
    for j in internal_event_blocks(book, mode):
        j = int(j)
        if path == "fast":
            per_block[j] = induced_ic(h, book.block_window(j))
        elif path == "reference":
            if mode == "piecewise":
                per_block[j] = _padded_reference_ic(book.block_window(j), h, book.r)
            else:
                per_block[j] = _ic_reference(book, h, j)
        else:
            raise ConfigError(f"unknown path {path!r}")
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


def boundary_event_blocks(book: BlockBookkeeping) -> np.ndarray:
    """1-based blocks j in 2..m-2 starting a boundary-cluster event."""
    a = book.active
    m = book.m
    if m < 4:
        return np.empty(0, dtype=np.int64)
    fire = ~a[0:m - 3] & a[1:m - 2] & a[2:m - 1] & ~a[3:m]
    return np.flatnonzero(fire) + 2


def _bc1_value(book: BlockBookkeeping, h: ClusterFunctional, j: int, path: str) -> float:
    if path == "fast":
        total = eval_functional(h, book.merged_cluster_window(j))
        left = eval_functional(h, book.cluster_window(j))
        right = eval_functional(h, book.cluster_window(j + 1))
    else:
        total = eval_functional(h, book.merged_window(j))
        left = eval_functional(h, book.block_window(j))
        right = eval_functional(h, book.block_window(j + 1))
    return book.r * (total - left - right)


def _bc2_reference(book: BlockBookkeeping, h: ClusterFunctional, j: int) -> float:
    s = reference_sums(book, h).sb
    return (float(s[j - 1] + s[j] + s[j + 1])
            - book.r * eval_functional(h, book.merged_window(j)))


def _bc2_fast(book: BlockBookkeeping, h: ClusterFunctional, j: int) -> float:
    # Valid on {L_{j,j+1} < r} only: the merged-time gap expansion, which
    # coincides with the induced internal-cluster form of the merged pair.
    return induced_ic(h, book.merged_window(j))


def boundary_cluster_stat(book: BlockBookkeeping, h: ClusterFunctional,
                          path: str = "fast") -> BoundaryParts:
    """Boundary clusters statistic split into its block-merge part (bc1)
    and window-sum part (bc2), the latter further split by whether the
    joint cluster length stays below r ("tilde") or not ("overline").

    The overline part is always computed by direct summation; the merged
    gap formula is only stated on {L_{j,j+1} < r}.
    """
    if path not in ("fast", "reference"):
        raise ConfigError(f"unknown path {path!r}")
    parts = BoundaryParts(0.0, 0.0, 0.0)
    for j in boundary_event_blocks(book):
        j = int(j)
        bc1_j = _bc1_value(book, h, j, path)
        joint = book.joint_length(j)
        short = joint < book.r
        if short and path == "fast":
            bc2_j = _bc2_fast(book, h, j)
        else:
            bc2_j = _bc2_reference(book, h, j)
        parts.bc1 += bc1_j
        if short:
            parts.bc2_tilde += bc2_j
        else:
            parts.bc2_overline += bc2_j
        parts.per_pair.append({"j": j, "bc1": bc1_j, "bc2": bc2_j,
                               "joint_length": joint, "short": short})
    return parts


def path_deviations(book: BlockBookkeeping, h: ClusterFunctional) -> tuple[float, float]:
    """Max |fast - reference| over internal and boundary event instances.

    Cheap form of the two-route cross-check: only event blocks are
    evaluated, nothing else of the decomposition is assembled.
    """
    ic_dev = 0.0
    for j in internal_event_blocks(book, "standard"):
        j = int(j)
        fast = induced_ic(h, book.block_window(j))
        ic_dev = max(ic_dev, abs(fast - _ic_reference(book, h, j)))
    bc_dev = 0.0
    for j in boundary_event_blocks(book):
        j = int(j)
        bc_dev = max(bc_dev, abs(_bc1_value(book, h, j, "fast")
                                 - _bc1_value(book, h, j, "reference")))
        if book.joint_length(j) < book.r:
            bc_dev = max(bc_dev, abs(_bc2_fast(book, h, j)
                                     - _bc2_reference(book, h, j)))
    return ic_dev, bc_dev


# -- remainder ----------------------------------------------------------------


def remainder_stat(book: BlockBookkeeping, h: ClusterFunctional,
                   sb: float, db: float, ic: float, bc: float):
    """(r_op, r_ic, r_bc, r_nc).

    r_op is the operational remainder (sb - db) - ic - bc.  The other
    three re-derive the remainder from its event enumeration by direct
    window sums: sample-boundary single blocks (r_ic), sample-boundary
    pairs (r_bc) and runs of three or more active blocks (r_nc).  Events
    are found by masks over the active blocks and their terms are added
    in ascending j.
    """
    s, _, d = reference_sums(book, h)
    t = s - d
    a = book.active
    m = book.m
    r_op = (sb - db) - ic - bc

    r_ic = 0.0
    if a[0] and not a[1]:
        r_ic += float(t[1])
    if a[m - 1] and not a[m - 2]:
        r_ic += float(s[m - 1])

    r_bc = 0.0
    if a[0] and a[1]:
        r_bc += float(t[1])
        if not a[2]:
            r_bc += float(t[2])
    if a[m - 2] and a[m - 1]:
        if not a[m - 3]:
            r_bc += float(s[m - 2])
        r_bc += float(t[m - 1])

    # j in 2..m-2 with blocks j, j+1 active and the run continuing on at
    # least one side: run start S_{j-1} + T_j, run end T_j + T_{j+1},
    # inside T_j.  Neither side continuing is a boundary cluster.
    j = np.flatnonzero(a[1:m - 2] & a[2:m - 1]) + 2
    before, after = a[j - 2], a[j + 1]
    terms = t[j] + np.where(before, np.where(after, 0.0, t[j + 1]), s[j - 1])
    r_nc = 0.0
    for term in terms[before | after].tolist():
        r_nc += term
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


def _tolerance(h: ClusterFunctional, scale: float) -> float:
    return 0.0 if h.integer_valued else 1e-9 * max(1.0, abs(scale))


def expansion_report(series: MagnitudeSeries, cfg: BlockConfig, h: ClusterFunctional,
                     w_source: str = "supplied", verbose: bool = False,
                     counterexample_dir=None) -> DecompositionReport:
    """Compute the full decomposition with both routes and all residuals.

    residual_identity is zero by construction; residual_paper compares the
    operational remainder against the event-enumerated one and is expected
    to vanish.  A violation is reported and optionally dumped as a
    counterexample artifact, never patched over.
    """
    book = block_bookkeeping(series, cfg)
    m, r, w = book.m, book.r, book.w

    sb, db = raw_sums(book, h)

    # The pathwise identity always uses the neighbour-excluded events; the
    # piecewise variant of IC is a rate target, not part of the identity.
    ic_fast, per_ic = internal_cluster_stat(book, h, mode="standard", path="fast")
    ic_ref, per_ic_ref = internal_cluster_stat(book, h, mode="standard", path="reference")
    ic_dev = max((abs(per_ic[j] - per_ic_ref[j]) for j in per_ic), default=0.0)

    bc_fast = boundary_cluster_stat(book, h, path="fast")
    bc_ref = boundary_cluster_stat(book, h, path="reference")
    bc_dev = max((abs(p["bc1"] - q["bc1"]) + abs(p["bc2"] - q["bc2"])
                  for p, q in zip(bc_fast.per_pair, bc_ref.per_pair)), default=0.0)

    ic = ic_fast
    bc = bc_fast.total
    r_op, r_ic, r_bc, r_nc = remainder_stat(book, h, sb, db, ic, bc)
    residual_identity = (sb - db) - ic - bc - r_op
    residual_paper = r_op - (r_ic + r_bc + r_nc)

    n_eff = book.n_eff
    disjoint = db / (n_eff * r * w)
    sliding = sb / (n_eff * r * w)
    report = DecompositionReport(
        n=len(series), n_eff=n_eff, discarded=book.discarded, m=m, r=r,
        u=cfg.u, w=w, w_source=w_source, functional=h.name,
        db=db, sb=sb, ic=ic, bc1=bc_fast.bc1, bc2_tilde=bc_fast.bc2_tilde,
        bc2_overline=bc_fast.bc2_overline, bc=bc,
        r_op=r_op, r_ic=r_ic, r_bc=r_bc, r_nc=r_nc,
        residual_identity=residual_identity, residual_paper=residual_paper,
        ic_path_deviation=ic_dev, bc_path_deviation=bc_dev,
        disjoint_stat=disjoint, sliding_stat=sliding,
        ic_norm=ic / (n_eff * w), bc_norm=bc / (n_eff * w),
        gap_scaled=r * (disjoint - sliding),
        per_block={"ic": per_ic, "pairs": bc_fast.per_pair} if verbose else None,
    )

    tol = _tolerance(h, max(abs(sb - db), abs(ic), abs(bc)))
    if abs(residual_paper) > tol:
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
