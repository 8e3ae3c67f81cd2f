"""Disjoint- and sliding-blocks statistics and the empirical cluster measure.

Conventions: blocks have size r, m = floor(n/r) of them fit, and the
series is truncated to m*r for blockwise sums (the discarded tail length
is exposed).  "Interior" variants restrict block sums to j = 2..m-1.  All
functional evaluations happen on the threshold-scaled series, so the
threshold never reaches the functionals themselves.

`block_bookkeeping` is the package's one threshold scan: every statistic
here, and the decomposition in `expansion`, reads the scaled series, the
exceedance positions and the active blocks from it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError
from .functionals import ClusterFunctional
from .models import MagnitudeSeries


@dataclass(frozen=True)
class BlockConfig:
    """Block size r, threshold u, marginal exceedance probability w."""

    r: int
    u: float
    w: float
    interior_only: bool = False

    def __post_init__(self):
        if self.r < 2:
            raise ConfigError("block size r must be >= 2")
        if not (math.isfinite(self.u) and self.u > 0):
            raise ConfigError("threshold u must be positive and finite")
        if not 0.0 < self.w < 1.0:
            raise ConfigError("w must lie strictly between 0 and 1")


def truncated_length(n: int, r: int) -> tuple[int, int]:
    """(m, discarded tail length) for blocks of size r in a series of n."""
    m = n // r
    return m, n - m * r


@dataclass
class BlockBookkeeping:
    """Per-block exceedance data for a series cut into m blocks of size r.

    `scaled` and `pos` cover the whole series, the discarded tail of fewer
    than r values included, since the full sliding sum reads it; `idx`,
    `counts`, `first`, `last` and `active` cover blocks 1..m only.  Block
    indices j are 1-based.  Exceedance times are absolute 1-based series
    positions; the conventions t_j(0) = (j-1)r and t_j(N_j+1) = jr are
    implicit in the gap computations.
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


def block_bookkeeping(series: MagnitudeSeries, cfg: BlockConfig) -> BlockBookkeeping:
    """Single pass over the series: counts, times and events per block."""
    m, discarded = truncated_length(len(series), cfg.r)
    scaled = series.values / cfg.u
    pos = np.flatnonzero(scaled > 1.0).astype(np.int64) + 1
    # Counts per block in O(k + m); exceedances in the discarded tail fall
    # in bin m, which is dropped.
    counts = np.bincount((pos - 1) // cfg.r, minlength=m)[:m]
    idx = np.zeros(m + 1, dtype=np.int64)
    np.cumsum(counts, out=idx[1:])
    active = counts > 0
    first = np.zeros(m, dtype=np.int64)
    last = np.zeros(m, dtype=np.int64)
    if pos.size:
        first[active] = pos[idx[:-1][active]]
        last[active] = pos[idx[1:][active] - 1]
    return BlockBookkeeping(r=cfg.r, u=cfg.u, w=cfg.w, m=m, n_eff=m * cfg.r,
                            discarded=discarded, scaled=scaled, pos=pos,
                            idx=idx, counts=counts, first=first, last=last,
                            active=active)


def window_values_at(scaled: np.ndarray, pos: np.ndarray, starts: np.ndarray,
                     r: int, h: ClusterFunctional) -> np.ndarray:
    """H over the windows [s, s+r-1] for every 1-based start in `starts`.

    Pattern-backed functionals are computed from the exceedance positions
    alone; anything else falls back to per-window evaluation.
    """
    starts = np.asarray(starts, dtype=np.int64)
    if h.pattern_value is not None:
        lo = pos.searchsorted(starts, side="left")
        hi = pos.searchsorted(starts + (r - 1), side="right")
        counts = hi - lo
        if pos.size:
            first = pos[np.minimum(lo, pos.size - 1)]
            last = pos[np.maximum(hi - 1, 0)]
            lengths = np.where(counts > 0, last - first + 1, 0)
        else:
            lengths = np.zeros_like(counts)
        return np.asarray(h.pattern_value(counts, lengths), dtype=float)
    out = np.empty(starts.size, dtype=float)
    for i, s in enumerate(starts):
        w = scaled[s - 1: s - 1 + r]
        out[i] = h.evaluator(w) if np.any(w > 1.0) else 0.0
    return out


def window_segments(pos: np.ndarray, r: int, lo: int, hi: int):
    """Runs of window starts in [lo, hi] whose windows see the same exceedances.

    The window started at s covers [s, s+r-1], so its exceedance set only
    changes where some position p enters (s = p-r+1) or leaves (s = p+1):
    at most 2k + 1 runs for k exceedances.  Returns the first start of each
    run and the run lengths.
    """
    cuts = np.concatenate(([lo, hi + 1], pos - (r - 1), pos + 1))
    np.maximum(cuts, lo, out=cuts)
    np.minimum(cuts, hi + 1, out=cuts)
    cuts.sort()
    lengths = cuts[1:] - cuts[:-1]
    keep = lengths > 0
    return cuts[:-1][keep], lengths[keep]


def window_sum(scaled: np.ndarray, pos: np.ndarray, r: int, h: ClusterFunctional,
               lo: int, hi: int) -> float:
    """Sum of H over the windows started at lo..hi, in O(k) evaluations.

    By hypotheses (ii)/(iii) H is constant on each run of
    `window_segments`, so it is evaluated at the first start of each run.
    The result equals the dense reduction of the per-start values bit for
    bit: integral values are weighted by their run lengths, which is exact
    below 2**53; anything else is expanded back to the per-start vector and
    reduced in the same order.  The guard multiplies Python floats, which
    give inf without a numpy overflow warning.
    """
    starts, lengths = window_segments(pos, r, lo, hi)
    values = window_values_at(scaled, pos, starts, r, h)
    if (values.size and (values == values.round()).all()
            and float(np.abs(values).max()) * (hi - lo + 1) < 2.0 ** 53):
        return float((values * lengths).sum())
    return float(np.repeat(values, lengths).sum())


def active_block_values(book: BlockBookkeeping, h: ClusterFunctional) -> np.ndarray:
    """Per-block H values for blocks 1..m, evaluated on blocks that exceed.

    Blocks without an exceedance are 0 by hypothesis (ii) and are never
    visited, so this costs O(k) evaluations plus an O(m) fill.
    """
    out = np.zeros(book.m)
    j = np.flatnonzero(book.active)
    out[j] = window_values_at(book.scaled, book.pos, j * book.r + 1, book.r, h)
    return out


def block_values(series: MagnitudeSeries, cfg: BlockConfig, h: ClusterFunctional) -> np.ndarray:
    """Per-block H values H(u^-1 X_{(j-1)r+1..jr}), j = 1..m."""
    book = block_bookkeeping(series, cfg)
    if book.m < 1:
        raise ConfigError("series shorter than one block")
    return active_block_values(book, h)


def disjoint_stat(series: MagnitudeSeries, cfg: BlockConfig, h: ClusterFunctional) -> float:
    """Normalized disjoint-blocks statistic, (1/(n_eff w)) sum_j H(block_j).

    With interior_only, the sum runs over j = 2..m-1 (same normalization).
    """
    vals = block_values(series, cfg, h)
    m = vals.size
    n_eff = m * cfg.r
    if cfg.interior_only:
        if m < 3:
            raise ConfigError("interior variant needs at least 3 blocks")
        vals = vals[1:m - 1]
    return float(vals.sum() / (n_eff * cfg.w))


def sliding_stat(series: MagnitudeSeries, cfg: BlockConfig, h: ClusterFunctional) -> float:
    """Normalized sliding-blocks statistic.

    Full variant: (1/(n r w)) sum over all window starts.  Interior
    variant: starts restricted to blocks j = 2..m-1, normalized by the
    truncated length.
    """
    book = block_bookkeeping(series, cfg)
    n, m, r = len(series), book.m, cfg.r
    if cfg.interior_only:
        if m < 3:
            raise ConfigError("interior variant needs at least 3 blocks")
        total = window_sum(book.scaled, book.pos, r, h, r + 1, (m - 1) * r)
        return float(total / (m * r * r * cfg.w))
    if r > n:
        raise ConfigError("block size exceeds series length")
    total = window_sum(book.scaled, book.pos, r, h, 1, n - r + 1)
    return float(total / (n * r * cfg.w))


def empirical_cluster_measure(series: MagnitudeSeries, cfg: BlockConfig,
                              h: ClusterFunctional) -> float:
    """Disjoint-block average of H scaled by 1/(r w).

    For the indicator functional this estimates the candidate extremal
    index.
    """
    vals = block_values(series, cfg, h)
    return float(vals.mean() / (cfg.r * cfg.w))
