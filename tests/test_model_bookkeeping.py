"""The model route (`blocks.model_bookkeeping`) against the dense route.

`model_bookkeeping(spec, n, seed, cfg)` must equal
`block_bookkeeping(gen_series(spec, n, seed), cfg)` bit for bit: the
positions and per-block arrays everywhere, `scaled` on every block that
holds an exceedance and on its neighbours.
"""

import json
import math

import numpy as np
import pytest

from clusterblocks import (BlockConfig, ClusterFunctional, ModelError,
                           block_bookkeeping, gen_series, get_functional,
                           parse_model, threshold_for_w)
from clusterblocks import blocks, expansion, models
from clusterblocks.blocks import model_bookkeeping
from clusterblocks.cli import main
from clusterblocks.expansion import decompose, expansion_report

MODELS = ["iid:0.7", "mma1:1,1,1", "mma1:1,2,1.5", "mmaq:0.5,0,3,2", "mmaq:2,1,1,0.5,3",
          "piecewise(mma1:1,1,1):12", "piecewise(mmaq:0.5,0,3,2):5"]


def _log_sum(w):
    return float(np.log(w[w > 1.0]).sum())


def _logmax(w):
    top = float(np.max(w))
    return min(1.0, math.log(top)) if top > 1.0 else 0.0


# Both read magnitudes, not only exceedance times, and have no pattern_value.
FUNCTIONALS = [get_functional(name) for name in ("indicator", "length", "count", "length^1.5")] + [
    ClusterFunctional(name="log_sum", gamma=1.0, growth_constant=1.0, evaluator=_log_sum),
    ClusterFunctional(name="logmax", gamma=0.0, growth_constant=1.0, evaluator=_logmax)]


def assert_same_bookkeeping(got, want):
    for name in ("r", "u", "w", "m", "n_eff", "discarded"):
        assert getattr(got, name) == getattr(want, name), name
    for name in ("pos", "active"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name
    assert got.scaled.shape == want.scaled.shape
    r, blocks_total = got.r, -(-got.scaled.size // got.r)
    held = (want.pos - 1) // r
    for b in np.unique(np.concatenate((held - 1, held, held + 1))).tolist():
        if 0 <= b < blocks_total:
            assert got.scaled[b * r:(b + 1) * r].tobytes() == want.scaled[b * r:(b + 1) * r].tobytes(), b
    # elsewhere the model route holds exact values or zeros
    computed = got.scaled != 0.0
    assert np.array_equal(got.scaled[computed], want.scaled[computed])


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
    assert np.array_equal(got.scaled[want.n_eff:], want.scaled[want.n_eff:])


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
    assert np.array_equal(got.scaled, want.scaled)


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
