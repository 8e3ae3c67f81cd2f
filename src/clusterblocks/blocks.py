"""Disjoint- and sliding-blocks statistics and the empirical cluster measure.

Conventions: blocks have size r, m = floor(n/r) of them fit, and the
series is truncated to m*r for blockwise sums (the discarded tail length
is exposed).  "Interior" variants restrict block sums to j = 2..m-1.  All
functional evaluations happen on the threshold-scaled series, so the
threshold never reaches the functionals themselves.

A `BlockBookkeeping` holds everything the statistics here and the
decomposition in `expansion` read: the sorted exceedance positions, the
active blocks and the scaled magnitudes X/u of the blocks within one
block of an exceedance, read through `BlockBookkeeping.window` only.
Nothing else per block is stored; a reader finds a block's exceedances
by a binary search of the positions, at the blocks it needs.  It is
built in O(k r) by one constructor that two routes share:
`block_bookkeeping` scans a given series, and `model_bookkeeping` (what
`rates` and `decompose --model` use) makes one O(n) pass over a model's
uniform stream and computes X only on the blocks an exceedance can
reach.  Both give equal bookkeepings.

What the readers derive from the positions, the active blocks and r
alone (the runs of window starts, the exceedance count and cluster
length of every window they read, the block lists of the reference
route and the event rows) the bookkeeping computes once, on first use,
and shares with every functional evaluated on it, in O(k r) time and
memory.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import ConfigError, ModelError
from .functionals import ClusterFunctional
from .models import (MagnitudeSeries, ModelSpec, _moving_maxima,
                     _pareto_from_uniforms, _rng, gen_series, series_layout)

MEMORY_BUDGET = 8_000_000_000   # bytes an experiment may use; also the most blocks a model pass may span


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


_PAST = np.iinfo(np.int64).max


def _cache():
    """A per-bookkeeping cache, filled on first use (see `BlockBookkeeping`)."""
    return field(default_factory=dict, init=False, repr=False, compare=False)


@dataclass
class BlockBookkeeping:
    """Per-block exceedance data for a series of n values cut into m blocks of size r.

    `pos` covers the whole series, the discarded tail of fewer than r
    values included, since the full sliding sum reads it; `active`, the
    blocks that hold an exceedance, covers blocks 1..m only.  Block
    indices j are 1-based.  Exceedance times are absolute 1-based series
    positions, so block j's times are pos[i:k] with i, k =
    pos.searchsorted(((j-1)r, jr), side="right"); the conventions t_j(0) =
    (j-1)r and t_j(N_j+1) = jr are implicit in the gap computations.

    The magnitudes X/u are kept only next to the exceedances: `blocks`
    are the sorted blocks within one block of a block that holds an
    exceedance, the partial tail block m+1 counted as a block, and
    `values` their exact X/u one block after another, the tail block with
    its n - m r values only.  `active` and `blocks` follow from `pos`, r
    and n, `values` from the series as well (`_bookkeeping`), so the two
    routes build equal bookkeepings.  Every window that holds an
    exceedance lies in these blocks; `window` is the one way to read them.

    The cached properties, `segments`, `window_keys` and the dicts below
    keep what the readers derive from `pos`, `active` and r, in O(k r)
    time and memory, filled on first use and shared by every functional
    evaluated on the bookkeeping.  Nothing is recomputed, so a bookkeeping
    is not to be mutated once read.
    """

    r: int
    u: float
    w: float
    m: int
    n_eff: int
    discarded: int
    pos: np.ndarray          # all exceedance positions, 1-based, sorted
    active: np.ndarray       # the blocks j <= m that hold an exceedance, 1-based, sorted
    blocks: np.ndarray       # the stored blocks, 1-based, sorted
    values: np.ndarray       # their X/u, block after block
    sums: dict = _cache()       # id(h): (h, reference_sums)
    events: dict = _cache()     # kind: event rows
    _segments: dict = _cache()  # (lo, hi): window_segments(pos, r, lo, hi)
    _keys: dict = _cache()      # id(starts): (starts, counts, lengths)

    @cached_property
    def active_list(self) -> list:
        return self.active.tolist()

    @cached_property
    def active_set(self) -> set:
        return set(self.active_list)

    @cached_property
    def pos_list(self) -> list:
        return self.pos.tolist()

    @cached_property
    def _padded(self) -> np.ndarray:
        """`pos` between a 0 and a value past every window's end."""
        return np.concatenate(([0], self.pos, [_PAST]))

    @cached_property
    def active_starts(self) -> np.ndarray:
        """The first positions of the active blocks.  They are keyed
        (`window_keys`) in one pass with the SB runs over 1..(m-1)r: the two
        start sets that `expansion.raw_sums` reads."""
        runs = self.segments(1, (self.m - 1) * self.r)[0]
        starts = (self.active - 1) * self.r + 1
        self._key((runs, starts))
        return starts

    @cached_property
    def reference(self) -> tuple:
        """(SB blocks, their window starts, DB blocks) of the reference sums:
        the blocks j <= m-1 where block j or j+1 is active, their r starts
        each, block after block, and the active blocks j <= m-1."""
        m, r, on = self.m, self.r, self.active_set
        sb = sorted(j for j in on.union(j - 1 for j in on) if 0 < j < m)
        starts = ((np.array(sb, dtype=np.int64) - 1) * r + 1)[:, None] + np.arange(r)
        return sb, starts.ravel(), [j for j in self.active_list if j < m]

    @cached_property
    def block_runs(self) -> list:
        """Rows (j, before, after), ascending: the blocks j in 2..m-2 where
        blocks j and j+1 are active and block j-1 (before) or block j+2
        (after) is too."""
        on, m = self.active_set, self.m
        return [(j, j - 1 in on, j + 2 in on) for j in self.active_list
                if 1 < j < m - 1 and j + 1 in on and (j - 1 in on or j + 2 in on)]

    def segments(self, lo: int, hi: int) -> tuple:
        """`window_segments(pos, r, lo, hi)`, computed once per (lo, hi)."""
        if (lo, hi) not in self._segments:
            self._segments[lo, hi] = window_segments(self.pos, self.r, lo, hi)
        return self._segments[lo, hi]

    def window_keys(self, starts: np.ndarray) -> tuple:
        """(counts, lengths): the number of exceedances in each window
        [s, s+r-1], s in the int64 array `starts`, and their cluster length
        (0 without one).  Kept per array, which is therefore not to be
        mutated after the call."""
        if id(starts) not in self._keys:
            self._key((starts,))
        return self._keys[id(starts)][1:]

    def _key(self, sets: tuple) -> None:
        """Key the start arrays `sets` with one binary search of `pos` each way."""
        starts = np.concatenate(sets) if len(sets) > 1 else sets[0]
        lo = self.pos.searchsorted(starts, side="left")
        hi = self.pos.searchsorted(starts + (self.r - 1), side="right")
        # last minus first exceedance, or at most -1 for an empty window (lo = hi)
        padded = self._padded
        spread = padded[hi] - padded[lo + 1]
        counts, lengths = hi - lo, np.maximum(spread + 1, 0)
        at = 0
        for a in sets:
            # The entry holds the array, so its id is not reused while it exists.
            self._keys[id(a)] = (a, counts[at:at + a.size], lengths[at:at + a.size])
            at += a.size

    def window(self, lo: int, hi: int) -> np.ndarray:
        """X/u at the 1-based positions lo..hi; IndexError outside the stored blocks."""
        r, blocks = self.r, self.blocks
        j, k = (lo - 1) // r + 1, (hi - 1) // r + 1     # first and last block read
        i = int(blocks.searchsorted(j))
        last = i + k - j
        if (not 1 <= lo <= hi <= self.n_eff + self.discarded or last >= blocks.size
                or blocks[i] != j or blocks[last] != k):
            raise IndexError(f"positions {lo}..{hi} lie outside the stored blocks")
        start = (i - j + 1) * r + lo - 1
        return self.values[start: start + hi - lo + 1]

    def block_window(self, j: int) -> np.ndarray:
        return self.window((j - 1) * self.r + 1, j * self.r)

    def merged_window(self, j: int) -> np.ndarray:
        return self.window((j - 1) * self.r + 1, (j + 1) * self.r)


def _positions(blocks: np.ndarray, r: int, n: int) -> np.ndarray:
    """The 0-based positions of the sorted 0-based blocks, cut at n."""
    p = (blocks[:, None] * r + np.arange(min(r, n))).ravel()
    return p[:p.searchsorted(n)]


def _distinct(a: np.ndarray) -> np.ndarray:
    """The distinct values of the sorted array a."""
    keep = np.empty(a.size, dtype=bool)
    keep[:1] = True
    np.not_equal(a[1:], a[:-1], out=keep[1:])
    return a[keep]


def _bookkeeping(cfg: BlockConfig, n: int, pos: np.ndarray, values_at) -> BlockBookkeeping:
    """The bookkeeping of n values from their sorted 1-based exceedance
    positions, in O(k r).

    The active and the stored blocks follow from `pos` alone: the blocks
    that hold an exceedance, and every block within one block of those,
    the partial tail block counted as a block.  values_at(p) is X/u at the
    stored blocks' 0-based positions p; an X/u that overflows a float is
    refused with ConfigError.
    """
    r = cfg.r
    m, discarded = truncated_length(n, r)
    held = _distinct((pos - 1) // r)            # 0-based, sorted as pos is
    near = np.concatenate((held - 1, held, held + 1))
    near.sort(kind="stable")                    # a merge of three sorted runs
    near = _distinct(near)
    near = near[near.searchsorted(0):near.searchsorted(-(-n // r))]
    values = values_at(_positions(near, r, n))
    if cfg.u < 1.0 and not np.isfinite(values).all():     # X is finite: u >= 1 cannot overflow
        raise ConfigError(f"X/u overflows a float at u={cfg.u!r}")
    return BlockBookkeeping(r=r, u=cfg.u, w=cfg.w, m=m, n_eff=m * r, discarded=discarded,
                            pos=pos, active=held[:held.searchsorted(m)] + 1,
                            blocks=near + 1, values=values)


def block_bookkeeping(series: MagnitudeSeries, cfg: BlockConfig) -> BlockBookkeeping:
    """Single pass over the series: its exceedance positions, active blocks
    and the stored blocks' X/u."""
    with np.errstate(over="ignore"):            # an overflowing X/u is refused below
        scaled = series.values / cfg.u
    pos = np.flatnonzero(scaled > 1.0).astype(np.int64) + 1
    return _bookkeeping(cfg, scaled.size, pos, lambda p: scaled[p])


_CHUNK = 1 << 17        # uniforms drawn per step of model_bookkeeping
_DELTA = 1e-9           # relative margin of its candidate cut


def model_bookkeeping(spec: ModelSpec, n: int, seed: int, cfg: BlockConfig) -> BlockBookkeeping:
    """`block_bookkeeping(gen_series(spec, n, seed), cfg)`, without the series.

    The uniforms of `gen_series` are drawn from the same generator in
    steps of whole blocks (`Generator.random` is chunk-invariant).  A
    uniform U >= t, with

        t = 1 - (c_max (1 + delta) / u)^alpha - 2^-50,   delta = 1e-9,

    marks its innovation as a candidate.  Every block that a candidate
    feeds, and its neighbours, the partial tail block among them, is
    "touched": only there are xi, X and X/u computed, exactly as
    `gen_series` and `block_bookkeeping` compute them (the same Pareto
    transform and `_moving_maxima` on rows of the q + 1 innovations of
    each position), each block once although two steps may touch it.
    `pos` is every touched position with X/u > 1, and the stored blocks
    (see `BlockBookkeeping`) are touched blocks, kept with their values.

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

    An n whose nb blocks (the tail block counted) plus a pad block on each
    side exceed `MEMORY_BUDGET` is refused with ConfigError before anything
    is drawn.  Nothing is allocated per block: the cap bounds time, as the
    pass over the uniforms would not end in useful time.
    """
    nb = -(-n // cfg.r)                 # blocks, the partial tail block included
    if nb + 2 > MEMORY_BUDGET:
        raise ConfigError(f"n={n} with r={cfg.r} spans {nb} blocks; nb + 2 is over the memory "
                          f"budget's cap of {MEMORY_BUDGET} blocks, kept as a time bound")
    size, rows = series_layout(spec, n)
    base = spec.base
    q, r, u = spec.order, cfg.r, cfg.u
    width = size + q
    ratio = max(base.coeffs) * (1.0 + _DELTA) / u
    t = 1.0 - ratio ** base.alpha - 2.0 ** -50 if ratio < 1.0 else -math.inf
    lags = np.arange(q + 1)

    def innovation(j):                  # innovation of position j at lag 0
        return j + q * (j // size)

    def block_end(b):                   # one past block b's last innovation
        return innovation(min((b + 1) * r, n) - 1) + q + 1

    rng = _rng(seed)
    at, xs = [np.empty(0, dtype=np.int64)], [np.empty(0)]   # touched positions and X/u, ascending
    done = -1                           # the last touched block computed
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
        # Drop the blocks a step before computed (its right neighbour is b0);
        # a step whose candidates feed only such blocks adds nothing.
        touched = touched[(touched > done) & (touched < nb)]
        if not touched.size:
            continue
        done = int(touched[-1])
        p = _positions(touched, r, n)
        with np.errstate(over="ignore"):    # an infinite X or X/u is refused, not warned of
            xi = _pareto_from_uniforms(buf[innovation(p)[:, None] + lags - lo], base.alpha)
            x = _moving_maxima(xi, base.coeffs, 1)
            if not np.isfinite(x).all():
                raise ModelError("magnitudes must be finite")
            at.append(p)
            xs.append(x / u)
    at, x = np.concatenate(at), np.concatenate(xs)
    return _bookkeeping(cfg, n, at[x > 1.0] + 1, lambda p: x[at.searchsorted(p)])


def window_values_at(book: BlockBookkeeping, pos: np.ndarray, starts: np.ndarray,
                     r: int, h: ClusterFunctional) -> np.ndarray:
    """H over the windows [s, s+r-1] for every 1-based start in `starts`.

    `pos` and `r` must be the bookkeeping's.  A window's exceedances are
    found by a binary search of `pos`, once per start array and
    bookkeeping (`BlockBookkeeping.window_keys`): pattern-backed functionals are
    computed from them alone, anything else is evaluated on the magnitudes
    of each window that holds one and is 0 elsewhere.
    """
    if pos is not book.pos or r != book.r:
        raise ValueError("window_values_at reads the bookkeeping's own positions and r")
    starts = np.asarray(starts, dtype=np.int64)
    counts, lengths = book.window_keys(starts)
    if h.pattern_value is not None:
        return np.asarray(h.pattern_value(counts, lengths), dtype=float)
    out = np.zeros(starts.size)
    hit = np.flatnonzero(counts)
    for i, s in zip(hit.tolist(), starts[hit].tolist()):
        out[i] = h.evaluator(book.window(s, s + r - 1))
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


_DENSE_SIZE = 1 << 12   # padded_sum builds a vector this short: cheaper than its check


def padded_sum(values: np.ndarray, size: int, at: np.ndarray | None = None,
               lengths: np.ndarray | None = None) -> float:
    """The sum numpy gives of a vector of `size` floats, bit for bit,
    without building the vector where it can.

    The vector holds values[i] at index at[i] and 0.0 elsewhere or, with
    `lengths`, values[i] lengths[i] times in a row, runs that tile it.
    Integral values whose largest magnitude times `size` stays below 2**53
    have exact partial sums in any order, so they are weighted by their
    lengths and summed in O(len(values)).  Anything else, and any vector
    of at most `_DENSE_SIZE` places, is reduced on the vector itself, in
    its order.  The guard multiplies Python floats, which give inf without
    a numpy overflow warning.
    """
    if not values.size:
        return 0.0
    if (size > _DENSE_SIZE and (values == values.round()).all()
            and float(np.abs(values).max()) * size < 2.0 ** 53):
        return float((values if lengths is None else values * lengths).sum())
    if lengths is not None:
        return float(np.repeat(values, lengths).sum())
    dense = np.zeros(size)
    dense[at] = values
    return float(dense.sum())


def window_sum(book: BlockBookkeeping, h: ClusterFunctional, lo: int, hi: int) -> float:
    """Sum of H over the windows started at lo..hi, in O(k) evaluations.

    By hypotheses (ii)/(iii) H is constant on each run of
    `window_segments`, so it is evaluated at the first start of each run;
    `padded_sum` adds the runs as the dense per-start reduction would.
    """
    starts, lengths = book.segments(lo, hi)
    values = window_values_at(book, book.pos, starts, book.r, h)
    return padded_sum(values, hi - lo + 1, lengths=lengths)


def active_block_values(book: BlockBookkeeping, h: ClusterFunctional) -> np.ndarray:
    """H of the active blocks, in ascending block order.

    Every other block is 0 by hypothesis (ii) and is never visited, so
    this costs O(k) evaluations and O(k) memory; `block_sum` reduces the
    values as the dense per-block vector would.
    """
    return window_values_at(book, book.pos, book.active_starts, book.r, h)


def block_sum(book: BlockBookkeeping, vals: np.ndarray, lo: int, hi: int) -> float:
    """Sum over the blocks lo..hi (1-based) of per-block values given at
    the active blocks (`active_block_values`), 0 elsewhere, equal bit for
    bit to the sum of the dense per-block vector."""
    a, b = bisect_left(book.active_list, lo), bisect_left(book.active_list, hi + 1)
    return padded_sum(vals[a:b], hi - lo + 1, at=book.active[a:b] - lo)


def _blocks_of(series: MagnitudeSeries, cfg: BlockConfig) -> BlockBookkeeping:
    book = block_bookkeeping(series, cfg)
    if book.m < 1:
        raise ConfigError("series shorter than one block")
    return book


def block_values(series: MagnitudeSeries, cfg: BlockConfig, h: ClusterFunctional) -> np.ndarray:
    """Per-block H values H(u^-1 X_{(j-1)r+1..jr}), j = 1..m."""
    book = _blocks_of(series, cfg)
    out = np.zeros(book.m)
    out[book.active - 1] = active_block_values(book, h)
    return out


def disjoint_stat(series: MagnitudeSeries, cfg: BlockConfig, h: ClusterFunctional) -> float:
    """Normalized disjoint-blocks statistic, (1/(n_eff w)) sum_j H(block_j).

    With interior_only, the sum runs over j = 2..m-1 (same normalization).
    """
    book = _blocks_of(series, cfg)
    m = book.m
    if cfg.interior_only and m < 3:
        raise ConfigError("interior variant needs at least 3 blocks")
    lo, hi = (2, m - 1) if cfg.interior_only else (1, m)
    return float(block_sum(book, active_block_values(book, h), lo, hi) / (book.n_eff * cfg.w))


def sliding_stat(series: MagnitudeSeries, cfg: BlockConfig, h: ClusterFunctional) -> float:
    """Normalized sliding-blocks statistic.

    Full variant: (1/(n r w)) sum over all window starts.  Interior
    variant: starts restricted to blocks j = 2..m-1, normalized by the
    truncated length.
    """
    book = _blocks_of(series, cfg)
    n, m, r = len(series), book.m, cfg.r
    if cfg.interior_only:
        if m < 3:
            raise ConfigError("interior variant needs at least 3 blocks")
        total = window_sum(book, h, r + 1, (m - 1) * r)
        return float(total / (m * r * r * cfg.w))
    total = window_sum(book, h, 1, n - r + 1)
    return float(total / (n * r * cfg.w))


def empirical_cluster_measure(series: MagnitudeSeries, cfg: BlockConfig,
                              h: ClusterFunctional) -> float:
    """Disjoint-block average of H scaled by 1/(r w).

    For the indicator functional this estimates the candidate extremal
    index.
    """
    book = _blocks_of(series, cfg)
    mean = block_sum(book, active_block_values(book, h), 1, book.m) / book.m
    return float(mean / (cfg.r * cfg.w))
