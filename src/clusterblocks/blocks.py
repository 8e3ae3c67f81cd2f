"""Disjoint- and sliding-blocks statistics and the empirical cluster measure.

Conventions: blocks have size r, m = floor(n/r) of them fit, and the
series is truncated to m*r for blockwise sums (the discarded tail length
is exposed).  "Interior" variants restrict block sums to j = 2..m-1.  All
functional evaluations happen on the threshold-scaled series, so the
threshold never reaches the functionals themselves.

A `BlockBookkeeping` holds everything the statistics here and the
decomposition in `expansion` read: the scaled series, the sorted
exceedance positions and the active blocks.  Nothing per block is stored
beyond the active mask; a reader finds a block's exceedances by a binary
search of the positions, at the blocks it needs.  It is built by one of
two routes that share one O(k) constructor: `block_bookkeeping` scans a
given series, and `model_bookkeeping` (what `rates` and `decompose
--model` use) makes one O(n) pass over a model's uniform stream and
computes X only on the blocks an exceedance can reach.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, ModelError
from .functionals import ClusterFunctional
from .models import (MagnitudeSeries, ModelSpec, _moving_maxima,
                     _pareto_from_uniforms, _rng, gen_series, series_layout)


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
    than r values included, since the full sliding sum reads it; `active`
    covers blocks 1..m only.  Block indices j are 1-based.  Exceedance
    times are absolute 1-based series positions, so block j's times are
    pos[i:k] with i, k = pos.searchsorted(((j-1)r, jr), side="right"); the
    conventions t_j(0) = (j-1)r and t_j(N_j+1) = jr are implicit in the gap
    computations.

    `scaled` is exact (X/u) on every block that holds an exceedance and on
    its neighbours, the partial tail block counted as a block; elsewhere
    it may be 0.0 (`model_bookkeeping` never computes those values).
    Every reader therefore reads only windows that hold an exceedance, or
    tests `> 1` first and takes 0.
    """

    r: int
    u: float
    w: float
    m: int
    n_eff: int
    discarded: int
    scaled: np.ndarray
    pos: np.ndarray          # all exceedance positions, 1-based, sorted
    active: np.ndarray       # block j holds an exceedance, at index j-1
    sums: dict = field(default_factory=dict, repr=False, compare=False)  # reference_sums cache
    events: dict = field(default_factory=dict, repr=False, compare=False)  # event spans by kind

    def block_window(self, j: int) -> np.ndarray:
        return self.scaled[(j - 1) * self.r: j * self.r]

    def merged_window(self, j: int) -> np.ndarray:
        return self.scaled[(j - 1) * self.r: (j + 1) * self.r]


def _bookkeeping(cfg: BlockConfig, scaled: np.ndarray, pos: np.ndarray) -> BlockBookkeeping:
    """The bookkeeping of a scaled series from its sorted 1-based exceedance
    positions, in O(k) plus the m-byte active mask."""
    m, discarded = truncated_length(scaled.size, cfg.r)
    active = np.zeros(m, dtype=bool)
    inside = pos[:pos.searchsorted(m * cfg.r, side="right")]     # not the discarded tail
    active[(inside - 1) // cfg.r] = True
    return BlockBookkeeping(r=cfg.r, u=cfg.u, w=cfg.w, m=m, n_eff=m * cfg.r,
                            discarded=discarded, scaled=scaled, pos=pos, active=active)


def block_bookkeeping(series: MagnitudeSeries, cfg: BlockConfig) -> BlockBookkeeping:
    """Single pass over the series: its exceedance positions and active blocks."""
    scaled = series.values / cfg.u
    return _bookkeeping(cfg, scaled, np.flatnonzero(scaled > 1.0).astype(np.int64) + 1)


_CHUNK = 1 << 17        # uniforms drawn per step of model_bookkeeping
_DELTA = 1e-9           # relative margin of its candidate cut


def model_bookkeeping(spec: ModelSpec, n: int, seed: int, cfg: BlockConfig) -> BlockBookkeeping:
    """`block_bookkeeping(gen_series(spec, n, seed), cfg)`, without the series.

    The uniforms of `gen_series` are drawn from the same generator in
    steps of whole blocks (`Generator.random` is chunk-invariant).  A
    uniform U >= t, with

        t = 1 - (c_max (1 + delta) / u)^alpha - 2^-50,   delta = 1e-9,

    marks its innovation as a candidate.  Every block that a candidate
    feeds, its neighbours and the partial tail block among them, is
    "touched": only there are xi, X and X/u computed, exactly as
    `gen_series` and `block_bookkeeping` compute them (the same Pareto
    transform and `_moving_maxima` on rows of the q + 1 innovations of
    each position), and `pos` is every touched position with X/u > 1.
    `scaled` is those values in an n-length array of zeros (see
    `BlockBookkeeping`).

    Correctness: for U < t the true xi = (1 - U)^(-1/alpha) lies below
    u / (c_max (1 + delta)), so every c_k xi / u < 1 / (1 + delta).  The
    few ulp of rounding in the transform, the product and the division
    stay far below delta.  The rounding of t itself is covered by delta
    for large alpha and by the 2^-50 for small alpha (1 - U is exact for
    the multiples of 2^-53 that `random` returns).  So no position the cut
    skips can have X/u > 1.  When t <= 0 every uniform is a candidate:
    correct, at dense cost.  A non-finite X can only come from a
    candidate, so the check of `MagnitudeSeries` is made on the touched
    values.

    `gen_series` redraws a U = 0 draw only after all n + q uniforms (with
    probability 2^-53 per draw); a step that holds one falls back to the
    dense route.  That is the only fallback.
    """
    size, rows = series_layout(spec, n)
    base = spec.base
    q, r, u = spec.order, cfg.r, cfg.u
    width = size + q
    ratio = max(base.coeffs) * (1.0 + _DELTA) / u
    t = 1.0 - ratio ** base.alpha - 2.0 ** -50 if ratio < 1.0 else -math.inf
    nb = -(-n // r)                     # blocks, the partial tail block included
    lags = np.arange(q + 1)

    def innovation(j):                  # innovation of position j at lag 0
        return j + q * (j // size)

    def block_end(b):                   # one past block b's last innovation
        return innovation(min((b + 1) * r, n) - 1) + q + 1

    rng = _rng(seed)
    scaled = np.zeros(n)
    found = []
    buf = np.empty(0)
    lo = hi = 0                         # buf[:hi - lo] holds the uniforms lo .. hi - 1
    step = max(1, _CHUNK // r)
    for b0 in range(0, nb, step):
        b1 = min(b0 + step, nb)         # this step owns blocks b0 .. b1 - 1
        # Uniforms from the left neighbour's first to the right neighbour's
        # last; drawn into one reused buffer (fresh arrays cost page faults).
        keep, need = innovation(max(b0 - 1, 0) * r), block_end(min(b1, nb - 1))
        kept = buf[keep - lo: hi - lo]
        if need - keep > buf.size:
            buf = np.empty(min(2 * (need - keep), rows * width))
        buf[:kept.size] = kept
        fresh = buf[hi - keep: need - keep]
        rng.random(out=fresh)
        if fresh.size and fresh.min() == 0.0:
            return block_bookkeeping(gen_series(spec, n, seed), cfg)
        lo, hi = keep, need
        a = innovation(b0 * r)
        cand = np.flatnonzero(buf[a - lo: block_end(b1 - 1) - lo] >= t) + a
        if not cand.size:
            continue
        row, off = np.divmod(cand, width)
        off = off[:, None] - lags       # candidate i feeds position row*size + off
        fed = (row[:, None] * size + off)[(off >= 0) & (off < size)] // r
        fed = fed[(fed >= b0) & (fed < b1)]
        touched = np.unique(np.concatenate((fed - 1, fed, fed + 1)))
        touched = touched[(touched >= 0) & (touched < nb)]
        p = (touched[:, None] * r + np.arange(r)).ravel()
        p = p[p < n]
        xi = _pareto_from_uniforms(buf[innovation(p)[:, None] + lags - lo], base.alpha)
        x = _moving_maxima(xi, base.coeffs, 1)
        if not np.isfinite(x).all():
            raise ModelError("magnitudes must be finite")
        scaled[p] = x = x / u
        found.append(p[(x > 1.0) & (p >= b0 * r) & (p < b1 * r)])
    pos = np.concatenate(found) if found else np.empty(0, dtype=np.int64)
    return _bookkeeping(cfg, scaled, pos.astype(np.int64) + 1)


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
