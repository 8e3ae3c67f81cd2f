"""The model route (`blocks.model_bookkeeping`) against the dense route.

`model_bookkeeping(spec, n, seed, cfg, workers)` must equal
`block_bookkeeping(gen_series(spec, n, seed), cfg)` bit for bit, whole:
the positions, the active blocks and the magnitude store (the stored
blocks and the bytes of their X/u), at every worker count.
"""

import json
import threading

import numpy as np
import pytest

from clusterblocks import (BlockConfig, ConfigError, MagnitudeSeries,
                           ModelError, block_bookkeeping, gen_series, get_functional,
                           parse_model, threshold_for_w)
from clusterblocks import blocks, expansion, models
from clusterblocks.blocks import model_bookkeeping
from clusterblocks.cli import main
from clusterblocks.expansion import decompose, expansion_report
from helpers import LOG_SUM, LOGMAX, log_sum, peak_bytes

MODELS = ["iid:0.7", "mma1:1,1,1", "mma1:1,2,1.5", "mmaq:0.5,0,3,2", "mmaq:2,1,1,0.5,3",
          "piecewise(mma1:1,1,1):12", "piecewise(mmaq:0.5,0,3,2):5"]


FUNCTIONALS = [get_functional(name) for name in ("indicator", "length", "count", "length^1.5")] + [
    LOG_SUM, LOGMAX]


def assert_same_bookkeeping(got, want):
    for name in ("r", "u", "w", "m", "n_eff", "discarded"):
        assert getattr(got, name) == getattr(want, name), name
    for name in ("pos", "active", "blocks", "values"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.shape == b.shape, name
        assert a.tobytes() == b.tobytes(), name


def both_routes(spec, n, seed, cfg):
    return model_bookkeeping(spec, n, seed, cfg), block_bookkeeping(gen_series(spec, n, seed), cfg)


WORKERS = (1, 2, 3, 5)
SPLIT_CHUNK = 1 << 8        # a `_CHUNK` of a few steps on the series here, so that workers split


def assert_same_at_every_worker_count(monkeypatch, spec, n, seed, cfg):
    """The model route at each of `WORKERS` equals the dense route, which
    is returned; the scan was cut into more than one range at some count."""
    parts, real = [], blocks._in_threads

    def counted(fn, args):
        parts.append(len(args))
        return real(fn, args)

    monkeypatch.setattr(blocks, "_in_threads", counted)
    want = block_bookkeeping(gen_series(spec, n, seed), cfg)
    for workers in WORKERS:
        assert_same_bookkeeping(model_bookkeeping(spec, n, seed, cfg, workers), want)
    monkeypatch.setattr(blocks, "_in_threads", real)
    assert parts[0] == 1 and max(parts) > 1
    return want


def _spec(text, r):
    spec = parse_model(text)
    return spec.with_block_size(r) if spec.block_size is None else spec


@pytest.mark.parametrize("text", MODELS + ["piecewise(mma1:1,1,1):r", "piecewise(mmaq:2,1,1,0.5,3):r"])
def test_model_route_equals_dense_route(monkeypatch, text):
    for n, r, w in ((2400, 6, 0.03), (30000, 8, 0.002), (1200, 3, 0.2), (600, 12, 0.5)):
        spec = _spec(text, r)
        if n % (spec.block_size or 1):
            continue
        cfg = BlockConfig(r=r, u=threshold_for_w(spec, w), w=w)
        for seed in range(3):
            assert_same_bookkeeping(*both_routes(spec, n, seed, cfg))
            with monkeypatch.context() as patch:
                patch.setattr(blocks, "_CHUNK", SPLIT_CHUNK)
                assert_same_at_every_worker_count(patch, spec, n, seed, cfg)


def test_block_size_other_than_r():
    spec = parse_model("piecewise(mma1:1,2,1.5):40")
    for r in (7, 40, 64):
        cfg = BlockConfig(r=r, u=threshold_for_w(spec, 0.02), w=0.02)
        assert_same_bookkeeping(*both_routes(spec, 4000, 3, cfg))


@pytest.mark.parametrize("text", ["mma1:1,1,1", "mmaq:2,1,1,0.5,3", "piecewise(mma1:1,1,1):r",
                                  "piecewise(mmaq:0.5,0,3,2):5"])
@pytest.mark.parametrize("chunk_blocks", [1, 2, 3])
def test_clusters_straddling_step_edges(monkeypatch, text, chunk_blocks):
    r, w, n = 5, 0.08, 3003
    spec = _spec(text, r)
    n -= n % (spec.block_size or 1)
    monkeypatch.setattr(blocks, "_CHUNK", chunk_blocks * r)
    cfg = BlockConfig(r=r, u=threshold_for_w(spec, w), w=w)
    want = assert_same_at_every_worker_count(monkeypatch, spec, n, 8, cfg)
    # a pair of consecutive exceedances lies in two different steps
    step = chunk_blocks * r
    pos = want.pos - 1
    assert np.any(pos[1:] // step != pos[:-1] // step) and np.any(np.diff(pos) == 1)
    # A range boundary inside a cluster: exceedances at p, p + 1 with p + 1
    # the first position of block b (0-based, p 1-based).  A series of
    # parts * b blocks, whose first values are this one's, is cut into
    # `parts` ranges of b blocks, so p and p + 1 lie in two ranges.
    p = next(int(p) for p in want.pos[:-1][np.diff(want.pos) == 1]
             if p % r == 0 and p // r >= 3)
    b = p // r
    for parts in (2, 3):
        cut = parts * b * r
        want = block_bookkeeping(gen_series(spec, cut, 8), cfg)
        assert np.isin([p, p + 1], want.pos).all()
        for workers in WORKERS:
            assert_same_bookkeeping(model_bookkeeping(spec, cut, 8, cfg, workers), want)


def test_exceedances_in_the_discarded_tail():
    spec = parse_model("mma1:1,1,1")
    n, r, w = 2005, 8, 0.2
    cfg = BlockConfig(r=r, u=threshold_for_w(spec, w), w=w)
    got, want = both_routes(spec, n, 4, cfg)
    assert want.discarded == 5 and np.any(want.pos > want.n_eff)
    assert_same_bookkeeping(got, want)
    # the partial tail block is stored with its 5 real values
    assert want.blocks[-1] == want.m + 1 and want.values.size == len(want.blocks) * r - (r - 5)
    scaled = gen_series(spec, n, 4).values / cfg.u
    assert got.window(want.n_eff + 1, n).tobytes() == scaled[want.n_eff:].tobytes()


@pytest.mark.parametrize("text", ["mma1:1,1,1", "mmaq:0.5,0,3,2", "piecewise(mma1:1,2,1.5):6"])
def test_threshold_on_a_value_of_the_series(text):
    spec = parse_model(text)
    n = 1200
    x = gen_series(spec, n, 21).values
    for u in (float(np.sort(x)[-30]), float(x.max())):
        for v in (u, float(np.nextafter(u, 0.0))):
            cfg = BlockConfig(r=6, u=v, w=0.05)
            got, want = both_routes(spec, n, 21, cfg)
            assert_same_bookkeeping(got, want)
            # X/u == 1 is no exceedance; just below it, X exceeds
            at = np.flatnonzero(x == u) + 1
            assert np.isin(at, want.pos).all() == (v < u)


@pytest.mark.parametrize("text", ["iid:0.7", "mma1:1,2,1.5", "mmaq:2,1,1,0.5,3"])
def test_threshold_below_the_support(monkeypatch, text):
    # u at or below max c: every uniform is a candidate
    spec = parse_model(text)
    cmax = max(spec.coeffs)
    for u in (0.5 * cmax, cmax, cmax * (1 + 1e-10)):
        cfg = BlockConfig(r=4, u=u, w=0.5)
        assert_same_bookkeeping(*both_routes(spec, 999, 2, cfg))
        with monkeypatch.context() as patch:
            patch.setattr(blocks, "_CHUNK", SPLIT_CHUNK)
            assert_same_at_every_worker_count(patch, spec, 999, 2, cfg)


@pytest.mark.parametrize("chunk_blocks", [1, 3])
def test_a_last_step_whose_blocks_were_all_touched_before(monkeypatch, chunk_blocks):
    # Every uniform is a candidate, and with 250 blocks the last step owns
    # block 249 alone, which the step before already touched as its right
    # neighbour: the last step adds no block.
    spec = parse_model("mma1:1,2,1.5")
    monkeypatch.setattr(blocks, "_CHUNK", chunk_blocks * 4)
    cfg = BlockConfig(r=4, u=0.5, w=0.5)
    assert_same_at_every_worker_count(monkeypatch, spec, 999, 2, cfg)


def test_blocks_as_long_as_a_step():
    # r = _CHUNK gives one block per step; the last two blocks both hold
    # exceedances, so the last step's block was touched by the step before
    spec, n, r = parse_model("mma1:1,1,1"), 400_000, blocks._CHUNK
    cfg = BlockConfig(r=r, u=threshold_for_w(spec, 0.001), w=0.001)
    got, want = both_routes(spec, n, 0, cfg)
    assert_same_bookkeeping(got, want)
    assert want.m == 3 and np.all(np.isin([3, 4], (want.pos - 1) // r + 1))


class _UniformAt:
    """A generator that returns `value` as its `at`-th uniform, else the
    real stream; its `bit_generator.advance` jumps both."""

    def __init__(self, seed, at, value=0.0):
        self.rng = np.random.default_rng(np.random.SeedSequence(seed))
        self.at, self.value, self.drawn = at, value, 0
        self.bit_generator = self

    def advance(self, k):
        self.rng.bit_generator.advance(k)
        self.drawn += k
        return self

    def random(self, size=None, out=None):
        u = self.rng.random(size) if out is None else self.rng.random(out=out)
        if 0 <= self.at - self.drawn < u.size:
            u[self.at - self.drawn] = self.value
        self.drawn += u.size
        return u


@pytest.mark.parametrize("at", [0, 1000, 2403])
def test_a_zero_uniform_takes_no_dense_route(monkeypatch, at):
    # U = 0 at the first, a middle and the last of the n + q uniforms
    spec = parse_model("mma1:1,1,1")
    n, seed = 2403, 5               # n + q = 2404 uniforms
    cfg = BlockConfig(r=6, u=threshold_for_w(spec, 0.05), w=0.05)
    monkeypatch.setattr(models, "_rng", lambda s: _UniformAt(s, at))
    monkeypatch.setattr(blocks, "_rng", lambda s: _UniformAt(s, at))
    monkeypatch.setattr(blocks, "_CHUNK", 600)
    assert not hasattr(blocks, "gen_series")
    assert_same_at_every_worker_count(monkeypatch, spec, n, seed, cfg)


@pytest.mark.parametrize("text", ["mma1:1,1,1", "mmaq:0.5,0,3,2", "piecewise(mma1:1,1,1):40"])
def test_a_zero_uniform_inside_a_stored_block(monkeypatch, text):
    # U = 0 at the lag-0 innovation of a stored position: one that sets the
    # position's magnitude (lag 0 attains the maximum) but feeds no
    # exceedance (c_max xi < u), so the zero moves a stored value and
    # neither a position nor a stored block
    spec, n, seed = parse_model(text), 4000, 3
    cfg = BlockConfig(r=8, u=threshold_for_w(spec, 0.02), w=0.02)
    plain = block_bookkeeping(gen_series(spec, n, seed), cfg)
    base, q = spec.base, spec.order
    size, rows = models.series_layout(spec, n)
    xi = (1.0 - models._rng(seed).random(rows * (size + q))) ** (-1.0 / base.alpha)
    stored = blocks._positions(plain.blocks - 1, cfg.r, n)          # 0-based
    lag0 = stored + q * (stored // size)
    terms = np.array(base.coeffs) * xi[lag0[:, None] + np.arange(q + 1)]
    free = (terms.argmax(axis=1) == 0) & (xi[lag0] * max(base.coeffs) < cfg.u)
    k = np.flatnonzero(free)[free.sum() // 2]
    p, at = int(stored[k]), int(lag0[k])
    monkeypatch.setattr(models, "_rng", lambda s: _UniformAt(s, at))
    monkeypatch.setattr(blocks, "_rng", lambda s: _UniformAt(s, at))
    monkeypatch.setattr(blocks, "_CHUNK", 600)
    got, want = both_routes(spec, n, seed, cfg)
    assert_same_bookkeeping(got, want)
    assert want.pos.tobytes() == plain.pos.tobytes()
    assert want.blocks.tobytes() == plain.blocks.tobytes()
    assert want.values.tobytes() != plain.values.tobytes()
    terms[k, 0] = base.coeffs[0]        # xi = 1.0 at lag 0
    assert got.window(p + 1, p + 1)[0] == terms[k].max() / cfg.u


def test_non_finite_values_fail_like_the_dense_route():
    spec = parse_model("iid:0.001")     # xi overflows for about half the uniforms
    cfg = BlockConfig(r=4, u=1e300, w=0.5)
    with np.errstate(over="ignore"):
        with pytest.raises(ModelError, match="magnitudes must be finite"):
            gen_series(spec, 400, 1)
        with pytest.raises(ModelError, match="magnitudes must be finite"):
            model_bookkeeping(spec, 400, 1, cfg)


def test_a_split_scan_under_frequent_thread_switches(monkeypatch):
    # more ranges than CPUs, the threads switched every microsecond: the
    # ranges share nothing that a lost update could change
    import sys

    spec = parse_model("mmaq:2,1,1,0.5,3")
    cfg = BlockConfig(r=5, u=threshold_for_w(spec, 0.05), w=0.05)
    monkeypatch.setattr(blocks, "_CHUNK", 40)
    want = block_bookkeeping(gen_series(spec, 20000, 3), cfg)
    before, interval = threading.active_count(), sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for workers in (4, 8):
            assert_same_bookkeeping(model_bookkeeping(spec, 20000, 3, cfg, workers), want)
    finally:
        sys.setswitchinterval(interval)
    assert threading.active_count() == before


@pytest.mark.parametrize("workers", [2, 3])
def test_non_finite_values_fail_inside_a_later_range(monkeypatch, workers):
    # Every range overflows at iid:0.001; at iid:0.05 only the largest
    # uniform, 1 - 2^-53, does (xi = 2^1060), planted in the last range.
    # Each fails as the dense route does, and no thread outlives the call.
    monkeypatch.setattr(blocks, "_CHUNK", 16)
    cfg = BlockConfig(r=4, u=1e300, w=0.5)
    before = threading.active_count()
    for text, at in (("iid:0.001", None), ("iid:0.05", 390)):
        spec = parse_model(text)
        if at is not None:
            top = float(np.nextafter(1.0, 0.0))
            monkeypatch.setattr(models, "_rng", lambda s: _UniformAt(s, at, top))
            monkeypatch.setattr(blocks, "_rng", lambda s: _UniformAt(s, at, top))
        with np.errstate(over="ignore"):
            with pytest.raises(ModelError) as dense:
                gen_series(spec, 400, 1)
            with pytest.raises(ModelError) as split:
                model_bookkeeping(spec, 400, 1, cfg, workers)
        assert str(split.value) == str(dense.value) == "magnitudes must be finite"
        assert threading.active_count() == before
    assert model_bookkeeping(spec, 380, 1, cfg, workers).pos.size == 0     # the uniform 390 unread


def test_the_earliest_ranges_error_is_raised_after_every_join():
    # ranges 1 and 3 fail, range 1 last of all; the last range runs on the
    # calling thread and fails first
    import time

    before = threading.active_count()
    done = []

    def scan(i, delay):
        time.sleep(delay)
        done.append(i)
        if i in (1, 3):
            raise ValueError(f"range {i}")
        return i

    with pytest.raises(ValueError, match="range 1"):
        blocks._in_threads(scan, [(0, 0.01), (1, 0.1), (2, 0.0), (3, 0.0)])
    assert sorted(done) == [0, 1, 2, 3] and done[-1] == 1
    assert threading.active_count() == before
    assert blocks._in_threads(scan, [(0, 0.0), (2, 0.0)]) == [0, 2]
    assert blocks._in_threads(scan, [(2, 0.0)]) == [2] and threading.active_count() == before


@pytest.mark.parametrize("seed", [0, 1, 7, 2 ** 63 + 5])
def test_advance_equals_a_sliced_draw(seed):
    # uniforms k .. k + m - 1 of one undivided draw, from a generator
    # advanced by k, as the scan's ranges start
    m = 1000
    whole = models._rng(seed).random((1 << 17) + 3 + m)
    for k in (0, 1, (1 << 17) - 1, (1 << 17) + 3):
        rng = models._rng(seed)
        rng.bit_generator.advance(k)
        assert rng.random(m).tobytes() == whole[k:k + m].tobytes()
    # a piecewise model's rows start at multiples of size + q
    spec = parse_model("piecewise(mmaq:0.5,0,3,2):5")
    size, rows = models.series_layout(spec, 400)
    width = size + spec.order
    stream = models._rng(seed).random(rows * width).reshape(rows, width)
    for row in (1, 2, 37, rows - 1):
        rng = models._rng(seed)
        rng.bit_generator.advance(row * width)
        assert rng.random(width).tobytes() == stream[row].tobytes()
    # two jumps are one
    a, b = (1 << 40) + 12345, 987654321
    one, two = models._rng(seed), models._rng(seed)
    one.bit_generator.advance(a).advance(b)
    two.bit_generator.advance(a + b)
    assert one.bit_generator.state == two.bit_generator.state
    assert one.random(8).tobytes() == two.random(8).tobytes()


@pytest.mark.parametrize("text", ["mma1:1,1,1", "mma1:1,2,1.5", "mmaq:0.5,0,3,2", "iid:0.7",
                                  "piecewise(mma1:1,1,1):40"])
def test_decompose_reports_are_identical(text):
    spec = parse_model(text)
    for n, r, w, seed in ((4000, 8, 0.02, 1), (4000, 6, 0.05, 2), (20000, 10, 0.004, 3)):
        cfg = BlockConfig(r=r, u=threshold_for_w(spec, w), w=w)
        book = model_bookkeeping(spec, n, seed, cfg)
        series = gen_series(spec, n, seed)
        for h in FUNCTIONALS:
            got = expansion_report((spec, n, seed), cfg, h, "exact", verbose=True)
            assert got.to_json(verbose=True) == expansion_report(
                series, cfg, h, "exact", verbose=True).to_json(verbose=True)
            assert decompose(book, h, "exact", True).to_json(True) == got.to_json(True)


def test_verbose_blocks_do_not_depend_on_the_worker_count(monkeypatch, capsys):
    # `decompose --model` scans on pool_size(n, n) threads, one per CPU; its
    # JSON is the same on one CPU as on three
    import os

    monkeypatch.setattr(blocks, "_CHUNK", SPLIT_CHUNK)
    real, workers = expansion.model_bookkeeping, []

    def recorded(*args, **kw):
        workers.append(kw["workers"])
        return real(*args, **kw)

    monkeypatch.setattr(expansion, "model_bookkeeping", recorded)
    argv = ["decompose", "--model", "mma1:1,2,1.5", "--n", "6003", "--seed", "5", "--r", "6",
            "--w", "0.05", "--functional", "length", "--verbose-blocks"]
    outs = []
    for cpus in (1, 3):
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        assert main(argv) == 0
        outs.append(capsys.readouterr().out)
    assert workers == [1, 3]
    assert outs[0] == outs[1] and json.loads(outs[0])["per_block"]["pairs"]


@pytest.mark.parametrize("n", [1500, 6000])
def test_counterexample_artifact_equals_the_dense_one(monkeypatch, tmp_path, n):
    spec = parse_model("mma1:1,2,1.5")
    w, seed = 0.03, 17
    cfg = BlockConfig(r=6, u=threshold_for_w(spec, w), w=w)
    h = get_functional("indicator")
    generated = []
    monkeypatch.setattr(expansion, "gen_series",
                        lambda *a: generated.append(a) or gen_series(*a))
    expansion_report((spec, n, seed), cfg, h, "exact", counterexample_dir=tmp_path / "clean")
    assert generated == [] and not (tmp_path / "clean").exists()

    real = expansion.remainder_stat

    def off_by_one(*args):
        r_op, r_ic, r_bc, r_nc = real(*args)
        return r_op, r_ic, r_bc, r_nc + 1.0

    monkeypatch.setattr(expansion, "remainder_stat", off_by_one)
    expansion_report((spec, n, seed), cfg, h, "exact", counterexample_dir=tmp_path / "model")
    # the series is generated only for the values a short one's artifact keeps
    assert generated == ([(spec, n, seed)] if n <= 5000 else [])
    expansion_report(gen_series(spec, n, seed), cfg, h, "exact",
                     counterexample_dir=tmp_path / "dense")
    assert main(["decompose", "--model", spec.format(), "--n", str(n), "--seed", str(seed),
                 "--r", "6", "--w", repr(w), "--counterexamples", str(tmp_path / "cli")]) == 0
    files = {d: sorted((tmp_path / d).iterdir()) for d in ("model", "dense", "cli")}
    assert [p.name for p in files["model"]] == [p.name for p in files["dense"]] == [
        p.name for p in files["cli"]]
    assert len(files["model"]) == 1
    blob = files["model"][0].read_bytes()
    assert blob == files["dense"][0].read_bytes() == files["cli"][0].read_bytes()
    payload = json.loads(blob)
    assert (payload["model"], payload["seed"]) == (spec.format(), seed)
    assert ("values" in payload) == (n <= 5000)


def test_a_read_outside_the_store_raises():
    # one exceedance in block 4 of 8 (r = 5) and one in the 3-value tail block 9
    values = np.full(43, 0.5)
    values[[17, 41]] = 2.0
    book = block_bookkeeping(MagnitudeSeries(values=values), BlockConfig(r=5, u=1.0, w=0.1))
    assert book.blocks.tolist() == [3, 4, 5, 8, 9]
    assert book.values.size == 4 * 5 + 3
    assert book.window(11, 25).tobytes() == values[10:25].tobytes()
    assert book.window(36, 43).tobytes() == values[35:43].tobytes()
    for lo, hi in ((1, 5), (6, 12), (24, 26), (30, 36), (40, 44), (0, 3), (13, 12)):
        with pytest.raises(IndexError, match="outside the stored blocks"):
            book.window(lo, hi)
    # windows without an exceedance are never read, so every start is safe
    got = blocks.window_values_at(book, book.pos, np.arange(1, 40), 5, FUNCTIONALS[4])
    assert got.tolist() == [log_sum(values[s - 1:s + 4]) for s in range(1, 40)]
    assert np.count_nonzero(got) == 7


def test_model_route_memory_is_that_of_the_store():
    # n = 1e7 holds about 600 exceedances: the uniform buffer dominates,
    # not an n-length array (80 MB)
    spec, n = parse_model("mma1:1,1,1"), 10 ** 7
    w = n ** -0.6
    cfg = BlockConfig(r=12, u=threshold_for_w(spec, w), w=w)
    book = []
    assert peak_bytes(lambda: book.append(model_bookkeeping(spec, n, 0, cfg))) < 16e6
    assert book[0].pos.size > 300 and book[0].values.size <= 3 * 12 * book[0].pos.size


def _held_and_peak_of_1e8_values(workers):
    """(exceedances, bytes the bookkeeping holds, traced peak) at n = 1e8."""
    import tracemalloc

    spec, n, w = parse_model("mma1:1,1,1"), 10 ** 8, 1e-5
    cfg = BlockConfig(r=12, u=threshold_for_w(spec, w), w=w)
    tracemalloc.start()
    try:
        book = model_bookkeeping(spec, n, 0, cfg, workers)
        held, peak = tracemalloc.get_traced_memory()
        size = book.pos.size
        del book
        held -= tracemalloc.get_traced_memory()[0]     # what dropping the bookkeeping frees
    finally:
        tracemalloc.stop()
    return size, held, peak


def test_a_bookkeeping_of_1e8_values_holds_nothing_of_size_m():
    # m = 8.3 million blocks of r = 12 and about 1000 exceedances: the
    # bookkeeping is its positions, active blocks and stored blocks, so it
    # holds O(k r) bytes; the peak is the uniform buffer and the steps'
    # candidates
    size, held, peak = _held_and_peak_of_1e8_values(1)
    assert size > 500
    assert held < 1e6 and peak < 6e6


def test_a_split_scan_holds_what_one_range_holds():
    # two ranges share the one buffer budget, `_CHUNK` uniforms in all: a
    # buffer of that budget per range would add about 2 MB to the peak
    _, _, one = _held_and_peak_of_1e8_values(1)
    size, held, peak = _held_and_peak_of_1e8_values(2)
    assert size > 500
    assert held < 1e6 and peak < 6e6
    assert peak < one + 0.5e6


def test_a_block_longer_than_the_series_costs_no_memory_of_r():
    spec = parse_model("mma1:1,1,1")
    cfg = BlockConfig(r=10 ** 7, u=threshold_for_w(spec, 0.5), w=0.5)
    book = []
    assert peak_bytes(lambda: book.append(model_bookkeeping(spec, 100, 0, cfg))) < 1e6
    assert book[0].m == 0 and book[0].values.size == 100
    assert_same_bookkeeping(book[0], block_bookkeeping(gen_series(spec, 100, 0), cfg))


def test_decompose_memory_is_that_of_the_events():
    # n = 1e7, r = 12: one float array of length m (833 333) is 6.7 MB, and
    # two per functional were kept before the reference sums were keyed by
    # block; O(k r) arrays remain
    spec, n = parse_model("mma1:1,1,1"), 10 ** 7
    w = n ** -0.6
    book = model_bookkeeping(spec, n, 0, BlockConfig(r=12, u=threshold_for_w(spec, w), w=w))
    reports = []

    def run():
        for name in ("indicator", "length"):
            reports.append(decompose(book, get_functional(name)))

    assert peak_bytes(run) < 5e6
    assert all(rep.residual_identity == 0.0 and rep.residual_paper == 0.0 for rep in reports)


def test_an_n_over_the_memory_budget_is_refused_before_any_allocation(monkeypatch):
    # n = 1e15 values span 1e14 blocks, over the cap of MEMORY_BUDGET
    # blocks: refused before a uniform is drawn, with nothing allocated
    spec = parse_model("mma1:1,1,1")
    cfg = BlockConfig(r=10, u=threshold_for_w(spec, 0.01), w=0.01)

    def refused():
        with pytest.raises(ConfigError, match="memory budget"):
            model_bookkeeping(spec, 10 ** 15, 0, cfg)

    assert peak_bytes(refused) < 1e5
    # the bound is nb + 2 blocks, with nb the blocks of n values, the
    # partial tail block counted, and a pad block on each side
    n = 1001
    monkeypatch.setattr(blocks, "MEMORY_BUDGET", 103)
    assert model_bookkeeping(spec, n, 0, cfg).m == 100
    monkeypatch.setattr(blocks, "MEMORY_BUDGET", 102)
    with pytest.raises(ConfigError):
        model_bookkeeping(spec, n, 0, cfg)
