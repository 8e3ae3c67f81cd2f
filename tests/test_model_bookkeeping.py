"""The model route (`blocks.model_bookkeeping`) against the dense route.

`model_bookkeeping(spec, n, seed, cfg)` must equal
`block_bookkeeping(gen_series(spec, n, seed), cfg)` bit for bit, whole:
the positions, the active blocks and the magnitude store (the stored
blocks and the bytes of their X/u).
"""

import json

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


def _spec(text, r):
    spec = parse_model(text)
    return spec.with_block_size(r) if spec.block_size is None else spec


@pytest.mark.parametrize("text", MODELS + ["piecewise(mma1:1,1,1):r", "piecewise(mmaq:2,1,1,0.5,3):r"])
def test_model_route_equals_dense_route(text):
    for n, r, w in ((2400, 6, 0.03), (30000, 8, 0.002), (1200, 3, 0.2), (600, 12, 0.5)):
        spec = _spec(text, r)
        if n % (spec.block_size or 1):
            continue
        cfg = BlockConfig(r=r, u=threshold_for_w(spec, w), w=w)
        for seed in range(3):
            assert_same_bookkeeping(*both_routes(spec, n, seed, cfg))


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
    got, want = both_routes(spec, n, 8, cfg)
    assert_same_bookkeeping(got, want)
    # a pair of consecutive exceedances lies in two different steps
    step = chunk_blocks * r
    pos = want.pos - 1
    assert np.any(pos[1:] // step != pos[:-1] // step) and np.any(np.diff(pos) == 1)


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
def test_threshold_below_the_support(text):
    # u at or below max c: every uniform is a candidate
    spec = parse_model(text)
    cmax = max(spec.coeffs)
    for u in (0.5 * cmax, cmax, cmax * (1 + 1e-10)):
        cfg = BlockConfig(r=4, u=u, w=0.5)
        assert_same_bookkeeping(*both_routes(spec, 999, 2, cfg))


@pytest.mark.parametrize("chunk_blocks", [1, 3])
def test_a_last_step_whose_blocks_were_all_touched_before(monkeypatch, chunk_blocks):
    # Every uniform is a candidate, and with 250 blocks the last step owns
    # block 249 alone, which the step before already touched as its right
    # neighbour: the last step adds no block.
    spec = parse_model("mma1:1,2,1.5")
    monkeypatch.setattr(blocks, "_CHUNK", chunk_blocks * 4)
    cfg = BlockConfig(r=4, u=0.5, w=0.5)
    assert_same_bookkeeping(*both_routes(spec, 999, 2, cfg))


def test_blocks_as_long_as_a_step():
    # r = _CHUNK gives one block per step; the last two blocks both hold
    # exceedances, so the last step's block was touched by the step before
    spec, n, r = parse_model("mma1:1,1,1"), 400_000, blocks._CHUNK
    cfg = BlockConfig(r=r, u=threshold_for_w(spec, 0.001), w=0.001)
    got, want = both_routes(spec, n, 0, cfg)
    assert_same_bookkeeping(got, want)
    assert want.m == 3 and np.all(np.isin([3, 4], (want.pos - 1) // r + 1))


class _ZeroAt:
    """A generator that returns 0.0 as its `at`-th uniform, else the real stream."""

    def __init__(self, seed, at):
        self.rng, self.at, self.drawn = np.random.default_rng(np.random.SeedSequence(seed)), at, 0

    def random(self, size=None, out=None):
        u = self.rng.random(size) if out is None else self.rng.random(out=out)
        if 0 <= self.at - self.drawn < u.size:
            u[self.at - self.drawn] = 0.0
        self.drawn += u.size
        return u


@pytest.mark.parametrize("at", [0, 1000, 2403])
def test_a_zero_uniform_falls_back_to_the_dense_route(monkeypatch, at):
    spec = parse_model("mma1:1,1,1")
    n, seed = 2403, 5               # n + q = 2404 uniforms
    cfg = BlockConfig(r=6, u=threshold_for_w(spec, 0.05), w=0.05)
    monkeypatch.setattr(models, "_rng", lambda s: _ZeroAt(s, at))
    monkeypatch.setattr(blocks, "_rng", lambda s: _ZeroAt(s, at))
    monkeypatch.setattr(blocks, "_CHUNK", 600)
    dense = []
    monkeypatch.setattr(blocks, "gen_series", lambda *a: dense.append(a) or gen_series(*a))
    got, want = both_routes(spec, n, seed, cfg)
    assert dense == [(spec, n, seed)]
    assert_same_bookkeeping(got, want)


def test_non_finite_values_fail_like_the_dense_route():
    spec = parse_model("iid:0.001")     # xi overflows for about half the uniforms
    cfg = BlockConfig(r=4, u=1e300, w=0.5)
    with np.errstate(over="ignore"):
        with pytest.raises(ModelError, match="magnitudes must be finite"):
            gen_series(spec, 400, 1)
        with pytest.raises(ModelError, match="magnitudes must be finite"):
            model_bookkeeping(spec, 400, 1, cfg)


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
    assert generated == [(spec, n, seed)]
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


def test_a_bookkeeping_of_1e8_values_holds_nothing_of_size_m():
    # m = 8.3 million blocks of r = 12 and about 1000 exceedances: the
    # bookkeeping is its positions, active blocks and stored blocks, so it
    # holds O(k r) bytes; the peak is the uniform buffer and the steps'
    # candidates
    import tracemalloc

    spec, n, w = parse_model("mma1:1,1,1"), 10 ** 8, 1e-5
    cfg = BlockConfig(r=12, u=threshold_for_w(spec, w), w=w)
    tracemalloc.start()
    try:
        book = model_bookkeeping(spec, n, 0, cfg)
        held, peak = tracemalloc.get_traced_memory()
        size = book.pos.size
        del book
        held -= tracemalloc.get_traced_memory()[0]     # what dropping the bookkeeping frees
    finally:
        tracemalloc.stop()
    assert size > 500
    assert held < 1e6 and peak < 6e6


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
