import hashlib
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from clusterblocks import (BlockConfig, ConfigError,
                           MagnitudeSeries, ModelSpec, block_bookkeeping,
                           block_values, disjoint_stat,
                           empirical_cluster_measure, gen_series,
                           get_functional, parse_model, sliding_stat,
                           threshold_for_w)
from clusterblocks import blocks
from clusterblocks.blocks import (active_block_values, block_sum, padded_sum,
                                  window_sum, window_values_at)
from clusterblocks.expansion import raw_sums
from clusterblocks.functionals import validate_functional
from helpers import LOG_SUM

WORKED = MagnitudeSeries(values=np.array([0.5, 2.0, 0.3, 0.4, 1.5, 0.2]))
CFG = BlockConfig(r=2, u=1.0, w=0.1)
IND = get_functional("indicator")


def sliding_values(series, cfg, h):
    """Per-start H values over all n-r+1 windows (dense reference)."""
    book = block_bookkeeping(series, cfg)
    starts = np.arange(1, len(series) - cfg.r + 2, dtype=np.int64)
    return window_values_at(book, book.pos, starts, cfg.r, h)


def test_disjoint_worked_example():
    assert disjoint_stat(WORKED, CFG, IND) == pytest.approx(10 / 3, rel=1e-12)


def test_sliding_worked_example():
    assert np.array_equal(sliding_values(WORKED, CFG, IND), [1, 1, 0, 1, 1])
    assert sliding_stat(WORKED, CFG, IND) == pytest.approx(10 / 3, rel=1e-12)


def test_subthreshold_series_gives_zero():
    s = MagnitudeSeries(values=np.full(30, 0.5))
    cfg = BlockConfig(r=5, u=1.0, w=0.1)
    for name in ("indicator", "length", "count"):
        assert disjoint_stat(s, cfg, get_functional(name)) == 0.0
        assert sliding_stat(s, cfg, get_functional(name)) == 0.0


def test_constant_series_above_threshold():
    n, r, w = 40, 5, 0.2
    s = MagnitudeSeries(values=np.full(n, 3.0))
    cfg = BlockConfig(r=r, u=1.0, w=w)
    assert sliding_stat(s, cfg, IND) == pytest.approx((n - r + 1) / (n * r * w))


def test_config_validation():
    with pytest.raises(ConfigError):
        BlockConfig(r=1, u=1.0, w=0.1)
    with pytest.raises(ConfigError):
        BlockConfig(r=4, u=1.0, w=1.5)
    with pytest.raises(ConfigError):
        disjoint_stat(WORKED, BlockConfig(r=7, u=1.0, w=0.1), IND)


@pytest.mark.parametrize("interior_only", [False, True])
def test_every_estimator_refuses_a_series_shorter_than_a_block(interior_only):
    cfg = BlockConfig(r=7, u=1.0, w=0.1, interior_only=interior_only)
    for estimator in (block_values, disjoint_stat, sliding_stat, empirical_cluster_measure):
        with pytest.raises(ConfigError, match="shorter than one block"):
            estimator(WORKED, cfg, IND)


def test_interior_variants():
    cfg = BlockConfig(r=2, u=1.0, w=0.1, interior_only=True)
    # only block 2 ([0.3, 0.4]) is interior: no exceedance
    assert disjoint_stat(WORKED, cfg, IND) == 0.0
    # interior sliding: windows starting in block 2 -> starts 3, 4
    assert sliding_stat(WORKED, cfg, IND) == pytest.approx(1 / (6 * 2 * 0.1))


def test_iid_disjoint_estimates_one():
    spec = ModelSpec.iid_pareto(1.0)
    n, r, w = 10 ** 6, 20, 1e-3
    s = gen_series(spec, n, seed=31)
    cfg = BlockConfig(r=r, u=threshold_for_w(spec, w), w=w)
    val = disjoint_stat(s, cfg, IND)
    assert abs(val - 1.0) <= 0.1


def test_ecm_single_exceedance():
    values = np.full(24, 0.5)
    values[7] = 5.0
    s = MagnitudeSeries(values=values)
    cfg = BlockConfig(r=4, u=1.0, w=0.01)
    m = 6
    assert empirical_cluster_measure(s, cfg, IND) == pytest.approx(
        1 / (m * 4 * 0.01))


def test_ecm_mma1_estimates_theta():
    # r=16 keeps the 1/(2r) finite-block bias inside the 10% band
    spec = ModelSpec.mma1(1.0, 1.0, 1.0)
    n, r = 10 ** 6, 16
    w = n ** -0.6
    s = gen_series(spec, n, seed=77)
    cfg = BlockConfig(r=r, u=threshold_for_w(spec, w), w=w)
    val = empirical_cluster_measure(s, cfg, IND)
    assert abs(val - 0.5) <= 0.05


def test_ecm_monotone_in_threshold():
    s = gen_series(ModelSpec.mma1(1.0, 1.0, 1.0), 4000, seed=13)
    vals = []
    for u in (5.0, 10.0, 20.0, 40.0):
        cfg = BlockConfig(r=8, u=u, w=0.01)  # fixed w: compare raw averages
        vals.append(empirical_cluster_measure(s, cfg, IND))
    assert all(a >= b for a, b in zip(vals, vals[1:]))
    assert all(0.0 <= v <= 1 / (8 * 0.01) for v in vals)


def test_scale_equivariance_power_of_two():
    spec = ModelSpec.mma1(1.0, 1.0, 1.0)
    s = gen_series(spec, 5000, seed=3)
    w = 0.01
    u = threshold_for_w(spec, w)
    cfg = BlockConfig(r=10, u=u, w=w)
    for c in (2.0 ** -4, 2.0 ** 10):
        scaled = MagnitudeSeries(values=s.values * c)
        cfg_c = BlockConfig(r=10, u=u * c, w=w)
        for name in ("indicator", "length", "count"):
            h = get_functional(name)
            assert disjoint_stat(scaled, cfg_c, h) == disjoint_stat(s, cfg, h)
            assert sliding_stat(scaled, cfg_c, h) == sliding_stat(s, cfg, h)


@given(st.lists(st.floats(min_value=0.0, max_value=3.0, allow_nan=False),
                min_size=8, max_size=60),
       st.integers(min_value=2, max_value=7))
@settings(max_examples=150, deadline=None)
def test_vectorized_paths_match_bruteforce(values, r):
    if len(values) < r:
        return
    s = MagnitudeSeries(values=np.asarray(values))
    cfg = BlockConfig(r=r, u=1.0, w=0.3)
    for name in ("indicator", "length", "count", "length^2"):
        h = get_functional(name)
        fast = sliding_values(s, cfg, h)
        slow = np.array([h.evaluator(s.values[i:i + r])
                         if np.any(s.values[i:i + r] > 1.0) else 0.0
                         for i in range(len(values) - r + 1)])
        assert np.array_equal(fast, slow)
        bfast = block_values(s, cfg, h)
        bslow = np.array([h.evaluator(s.values[j * r:(j + 1) * r])
                          if np.any(s.values[j * r:(j + 1) * r] > 1.0) else 0.0
                          for j in range(len(values) // r)])
        assert np.array_equal(bfast, bslow)


def test_disjoint_sliding_same_mean():
    # replicate means agree within 3 pooled SEs
    spec = ModelSpec.mma1(1.0, 1.0, 1.0)
    w = 0.01
    u = threshold_for_w(spec, w)
    cfg = BlockConfig(r=10, u=u, w=w)
    dj, sl = [], []
    for k in range(200):
        s = gen_series(spec, 2000, seed=1000 + k)
        dj.append(disjoint_stat(s, cfg, IND))
        sl.append(sliding_stat(s, cfg, IND))
    dj, sl = np.array(dj), np.array(sl)
    pooled_se = math.sqrt(dj.var(ddof=1) / 200 + sl.var(ddof=1) / 200)
    assert abs(dj.mean() - sl.mean()) <= 3 * pooled_se


SEGMENT_FUNCTIONALS = [get_functional(name) for name in
                       ("indicator", "length", "count", "length^0.5")] + [LOG_SUM]


def test_log_sum_meets_the_contract():
    validate_functional(LOG_SUM)


@given(st.lists(st.one_of(st.floats(min_value=0.0, max_value=3.0), st.just(0.5)),
                min_size=2, max_size=80),
       st.integers(min_value=2, max_value=9))
@example([0.5] * 30, 4)
@example([0.2, 0.9, 1.0, 0.5, 0.3, 0.7], 2)
@settings(max_examples=200, deadline=None)
def test_segment_totals_equal_dense_reduction(values, r):
    # the O(k) segment and active-block totals equal the dense per-start
    # reductions bit for bit, including the full n-r+1 sliding range and
    # series without exceedances
    n = len(values)
    if n < r:
        return
    series = MagnitudeSeries(values=np.asarray(values))
    cfg = BlockConfig(r=r, u=1.0, w=0.3)
    scaled = series.values
    m = n // r
    book = block_bookkeeping(series, cfg)
    # the store: every block within one block of an exceeding one, the
    # partial tail block included, with the series' values
    assert book.pos.tolist() == (np.flatnonzero(scaled > 1.0) + 1).tolist()
    held = ((book.pos - 1) // r + 1).tolist()
    assert book.active.dtype == book.blocks.dtype == np.int64
    assert book.active.tolist() == sorted({j for j in held if j <= m})
    assert book.blocks.tolist() == sorted({j + d for j in held for d in (-1, 0, 1)}
                                          & set(range(1, -(-n // r) + 1)))
    for j in book.blocks.tolist():
        assert (book.window((j - 1) * r + 1, min(j * r, n)).tobytes()
                == scaled[(j - 1) * r:j * r].tobytes())
    for h in SEGMENT_FUNCTIONALS:
        dense = float(window_values_at(book, book.pos, np.arange(1, n - r + 2), r, h).sum())
        assert window_sum(book, h, 1, n - r + 1) == dense
        assert sliding_stat(series, cfg, h) == float(dense / (n * r * cfg.w))
        dense_blocks = window_values_at(book, book.pos, np.arange(m) * r + 1, r, h)
        vals = active_block_values(book, h)
        assert np.array_equal(vals, dense_blocks[book.active - 1])
        assert set((np.flatnonzero(dense_blocks) + 1).tolist()) <= set(book.active.tolist())
        for lo, hi in ((1, m), (1, m - 1), (2, m - 1), (2, m)):
            if lo <= hi:
                assert block_sum(book, vals, lo, hi) == float(dense_blocks[lo - 1:hi].sum())
        if m >= 3:
            starts = np.arange(1, (m - 1) * r + 1)
            block_starts = np.arange(m - 1) * r + 1
            sb, db = raw_sums(book, h)
            assert sb == float(window_values_at(book, book.pos, starts, r, h).sum())
            assert db == float(r * window_values_at(book, book.pos,
                                                    block_starts, r, h).sum())


@given(st.lists(st.one_of(st.integers(min_value=-2 ** 20, max_value=2 ** 20).map(float),
                          st.floats(min_value=-1e6, max_value=1e6),
                          st.sampled_from([0.0, -0.0, 2.0 ** 50, 2.0 ** 53, 1e300, math.inf])),
                max_size=40),
       st.integers(min_value=0, max_value=30), st.randoms(use_true_random=False))
@settings(max_examples=300, deadline=None)
def test_padded_sum_equals_the_dense_sum(values, pad, rnd):
    # values placed in a zero vector, or repeated in runs that tile it, sum
    # to the bits numpy gives for the vector, on the weighted path (the
    # dense-size cut at 0) and at the default cut
    values = np.asarray(values, dtype=float)
    size = values.size + pad
    at = np.sort(np.asarray(rnd.sample(range(size), values.size), dtype=np.int64))
    placed = np.zeros(size)
    placed[at] = values
    lengths = np.asarray([rnd.randint(1, 5) for _ in range(values.size)], dtype=np.int64)
    tiled = np.repeat(values, lengths)
    with np.errstate(over="ignore", invalid="ignore"), pytest.MonkeyPatch.context() as mp:
        for cut in (0, blocks._DENSE_SIZE):
            mp.setattr(blocks, "_DENSE_SIZE", cut)
            got = padded_sum(values, size, at=at)
            assert np.float64(got).tobytes() == placed.sum().tobytes()
            got = padded_sum(values, tiled.size, lengths=lengths)
            assert np.float64(got).tobytes() == tiled.sum().tobytes()


# The length^1.5 rows read libm pow (see test_functionals'
# DISPATCH_GATED), so they hold under any numpy SIMD dispatch.
GOLDEN_BLOCK_STATS = {
    ("mma1:1,1,1", "indicator"): "686cfa4a3387a5d58ae22a05f49abde9a485d59decb4515316be9b48c1718718",
    ("mma1:1,1,1", "length^1.5"): "2deff61552b1a0c71758b8847a9fd4b9e5836b38065fcb6e6e364b21be67ddf3",
    ("mma1:1,1,1", "log_sum"): "5fc708326c0d140151207ffdbb27f1fd5a705bcbd98370d3815dac8f03294efa",
    ("mma1:1,2,1.5", "indicator"): "f9844cbccc071a1770c061dea2dfa4d6f56742362797a175f09c02bd4b03187f",
    ("mma1:1,2,1.5", "length^1.5"): "f5e98c755565a2d61aa800f53af6724f09b44e68487d6accc5507961604cce3d",
    ("mma1:1,2,1.5", "log_sum"): "66f269046991e350b12db5530d8bbe83eb8d7d67e746573894b08784248efe13",
}


@pytest.mark.parametrize("model,name", sorted(GOLDEN_BLOCK_STATS))
def test_block_statistics_bytes_are_pinned(model, name):
    # n = 2403 leaves a 3-value tail after the 300 blocks of r = 8, which
    # only the full sliding sum reads
    spec = parse_model(model)
    series = gen_series(spec, 2403, seed=5)
    w = 0.04
    h = LOG_SUM if name == "log_sum" else get_functional(name)
    values = []
    for interior in (False, True):
        cfg = BlockConfig(r=8, u=threshold_for_w(spec, w), w=w, interior_only=interior)
        values += [disjoint_stat(series, cfg, h), sliding_stat(series, cfg, h)]
    values += [empirical_cluster_measure(series, cfg, h), *block_values(series, cfg, h).tolist()]
    text = json.dumps(values)
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN_BLOCK_STATS[(model, name)]


def test_window_values_read_the_bookkeepings_own_positions_and_r():
    # the window keys are the bookkeeping's, so any other pos or r is refused
    book = block_bookkeeping(WORKED, CFG)
    starts = np.arange(1, 4)
    assert window_values_at(book, book.pos, starts, CFG.r, IND).tolist() == [1, 1, 0]
    with pytest.raises(ValueError, match="own positions"):
        window_values_at(book, book.pos, starts, CFG.r + 1, IND)
    with pytest.raises(ValueError, match="own positions"):
        window_values_at(book, book.pos.copy(), starts, CFG.r, IND)


def test_raw_sums_leave_the_reference_batch_unbuilt():
    # SB and DB share nothing with the dense reference sums, which stay an
    # independent check
    spec = ModelSpec.mma1(1.0, 1.0, 1.0)
    book = block_bookkeeping(gen_series(spec, 2403, seed=5),
                             BlockConfig(r=8, u=threshold_for_w(spec, 0.04), w=0.04))
    assert book.active.size
    for h in SEGMENT_FUNCTIONALS:
        raw_sums(book, h)
    # nor are the reference windows built or keyed: only `decompose` reads them
    assert "reference" not in vars(book)
    assert set(book._keys) == {id(book.sb_runs), id(book.active_starts)}


@pytest.mark.parametrize("name", ["indicator", "length", "count",
                                  "length^0.5", "length^1.5", "length^2.7"])
def test_pattern_value_on_a_key_table_equals_the_calls_per_array(name):
    # a key table evaluates H once over several start arrays' keys; each
    # array's slice must hold the bytes of a call on that array alone,
    # whatever its size and place (numpy's SIMD loops treat a tail apart)
    pattern = get_functional(name).pattern_value
    rng = np.random.default_rng(22)

    def keys(size):
        counts = rng.integers(0, 6, size)
        return counts, np.where(counts > 0, counts + rng.integers(0, 5000, size), 0)

    for size in range(1, 301):
        parts = [keys(int(rng.integers(1, 301))), keys(size), keys(int(rng.integers(1, 301)))]
        table = np.asarray(pattern(np.concatenate([c for c, _ in parts]),
                                   np.concatenate([n for _, n in parts])), dtype=float)
        at = 0
        for counts, lengths in parts:
            alone = np.asarray(pattern(counts, lengths), dtype=float)
            assert table[at:at + counts.size].tobytes() == alone.tobytes()
            at += counts.size


def test_a_key_table_gives_each_start_array_its_own_windows():
    # three start arrays keyed in one pass read what each keyed alone reads
    spec = ModelSpec.mma1(1.0, 2.0, 1.5)
    cfg = BlockConfig(r=6, u=threshold_for_w(spec, 0.05), w=0.05)
    series = gen_series(spec, 3000, seed=8)
    rng = np.random.default_rng(3)
    sets = [np.sort(rng.integers(1, 2996, size)) for size in (1, 7, 300)]
    joint = block_bookkeeping(series, cfg)
    joint.key(*sets)
    for h in (IND, get_functional("length^1.5"), LOG_SUM):
        for starts in sets:
            alone = block_bookkeeping(series, cfg)
            assert (window_values_at(joint, joint.pos, starts, cfg.r, h).tobytes()
                    == window_values_at(alone, alone.pos, starts, cfg.r, h).tobytes())
            assert all(a.tobytes() == b.tobytes() for a, b in
                       zip(joint.window_keys(starts), alone.window_keys(starts)))


@pytest.mark.parametrize("n,r,positions", [
    (23, 5, [2, 3, 9, 20, 21, 22, 23]),     # tail exceedances, n not a multiple of r
    (20, 5, [1, 5, 6, 15, 20]),             # an exceedance at position m*r exactly
    (17, 4, []),                            # no exceedance at all
])
def test_block_index_equals_searchsorted_over_block_edges(n, r, positions):
    # the active blocks and the event spans are those of the block edges
    values = np.full(n, 0.5)
    values[np.asarray(positions, dtype=int) - 1] = 2.0
    book = block_bookkeeping(MagnitudeSeries(values=values), BlockConfig(r=r, u=1.0, w=0.1))
    assert book.pos.tolist() == positions
    assert book.active.dtype == np.int64
    assert book.active.tolist() == [j for j in range(1, book.m + 1)
                                    if any((j - 1) * r < p <= j * r for p in positions)]
    before = np.searchsorted(book.pos, np.arange(book.m + 2, dtype=np.int64) * r + 1)
    for j, a, b in book.piecewise_events:
        assert (a, b) == (before[j - 1], before[j])
    if book.m >= 4:
        for j, a, s, b in book.boundary_events:
            assert (a, s, b) == (before[j - 1], before[j], before[j + 1])
