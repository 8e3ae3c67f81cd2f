import concurrent.futures
import dataclasses
import hashlib
import math
import multiprocessing
import os

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from clusterblocks import (BlockConfig, ConfigError, ExperimentConfig, MagnitudeSeries,
                           ModelSpec, PersistError, block_bookkeeping,
                           expected_targets, get_functional,
                           limit_table, load, persist, run_experiment,
                           summarize)
from clusterblocks import harness
from clusterblocks.harness import (CSV_HEADER, TARGETS, ConvergenceTable, TableRow,
                                   csv_text, limit_constants, parse_rule, parse_target)
from helpers import in_process_pool

MMA1 = ModelSpec.mma1(1.0, 1.0, 1.0)


def small_config(**kw):
    base = dict(model=MMA1, functional="indicator",
                grid=((2000, "n^0.2", "n^-0.55"), (4000, "n^0.2", "n^-0.55")),
                replicates=6, seed=99,
                targets=("ic_norm", "bc_norm", "pa1a2_small", "ecm",
                         "scaled_gap", "disjoint_stat", "sliding_stat"))
    base.update(kw)
    return ExperimentConfig(**base)


def test_parse_rule():
    assert parse_rule("n^0.5")(10000) == pytest.approx(100.0)
    assert parse_rule("n^-0.6")(1000) == pytest.approx(1000 ** -0.6)
    assert parse_rule("16")(12345) == 16.0
    with pytest.raises(ConfigError):
        parse_rule("log(n)")


def test_parse_target():
    assert parse_target("ic_norm") == ("ic_norm", None)
    assert parse_target("clm_large(1.5)") == ("clm_large", 1.5)
    assert parse_target("clm_large(0)") == ("clm_large", 0.0)
    for bad in ("clm_large", "nonsense", "ic_norm(3)", "ic_norm()", "clm_large()",
                "clm_large(-1)", "clm_large(-1.5)", "clm_large(nan)", "clm_large(1e400)"):
        with pytest.raises(ConfigError):
            parse_target(bad)
    # finite and >= 0, but r ** (g + 2) overflows: rejected with the grid
    with pytest.raises(ConfigError, match="normalisation"):
        small_config(targets=("clm_large(2000)",)).resolve_grid()


def test_config_validation(monkeypatch):
    with pytest.raises(ConfigError):
        small_config(replicates=0)
    with pytest.raises(ConfigError):
        small_config(grid=((4000, "n^0.2", "n^-0.55"), (2000, "n^0.2", "n^-0.55")))
    with pytest.raises(ConfigError):
        small_config(targets=("bogus",))
    with pytest.raises(ConfigError):
        small_config(grid=((2000, "n^0.9", "n^-0.55"),)).resolve_grid()
    monkeypatch.setattr(harness, "MEMORY_BUDGET", 1000)
    with pytest.raises(ConfigError):
        run_experiment(small_config())


def test_experiment_is_deterministic_and_thread_invariant():
    cfg1 = small_config()
    t1 = run_experiment(cfg1)
    t2 = run_experiment(small_config())
    for a, b in zip(t1.rows, t2.rows):
        assert a.__dict__ == b.__dict__
    t3 = run_experiment(small_config(threads=2))
    for a, b in zip(t1.rows, t3.rows):
        assert a.__dict__ == b.__dict__


def test_worker_pool_is_capped(monkeypatch):
    sizes = in_process_pool(monkeypatch)
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    one = run_experiment(small_config(replicates=3, threads=1))
    three = run_experiment(small_config(replicates=3, threads=3))
    # 2 grid points x 3 replicates = 6 jobs; 4 cpus
    run_experiment(small_config(replicates=3, threads=10 ** 6))
    run_experiment(small_config(replicates=1, threads=10 ** 6))
    assert sizes == [3, 4, 2]
    assert csv_text(one) == csv_text(three)
    # the memory budget counts the capped pool, not the requested one
    budget = 4000 * 8 * 4 * 4
    monkeypatch.setattr(harness, "MEMORY_BUDGET", budget)
    run_experiment(small_config(replicates=3, threads=10 ** 6))
    monkeypatch.setattr(harness, "MEMORY_BUDGET", budget - 1)
    with pytest.raises(ConfigError):
        run_experiment(small_config(replicates=3, threads=10 ** 6))


def test_no_worker_outlives_a_call(monkeypatch):
    from clusterblocks import verify

    sizes = []

    class RecordingPool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, max_workers):
            sizes.append(max_workers)
            super().__init__(max_workers=max_workers)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    assert verify.check_exhaustive_masks(r=2, blocks=3).passed
    assert multiprocessing.active_children() == []
    run_experiment(small_config(threads=2))
    assert multiprocessing.active_children() == []
    assert sizes == [2, 2]


def test_seed_changes_output():
    t1 = run_experiment(small_config())
    t2 = run_experiment(small_config(seed=100))
    assert any(a.mean != b.mean for a, b in zip(t1.rows, t2.rows))


def test_replicate_single_has_zero_se():
    t = run_experiment(small_config(replicates=1))
    assert all(r.sd == 0.0 and r.se == 0.0 for r in t.rows)


def test_rows_complete_and_se_definition():
    cfg = small_config()
    t = run_experiment(cfg)
    assert len(t.rows) == len(cfg.grid) * len(cfg.targets)
    for r in t.rows:
        assert r.se == pytest.approx(r.sd / np.sqrt(r.replicates))


def test_sanity_of_small_block_targets():
    # loose check that the statistics are in the right ballpark
    cfg = ExperimentConfig(model=MMA1, functional="indicator",
                           grid=((30000, "8", "n^-0.55"),), replicates=40,
                           seed=5, targets=("ic_norm", "bc_norm", "pa1a2_small"))
    t = run_experiment(cfg)
    assert 0.25 <= t.row(0, "ic_norm").mean <= 0.7
    assert -0.7 <= t.row(0, "bc_norm").mean <= -0.25
    assert 0.3 <= t.row(0, "pa1a2_small").mean <= 0.7


def test_piecewise_mode_target():
    spec = ModelSpec.piecewise(ModelSpec.mma1(1.0, 1.0, 1.0))
    cfg = ExperimentConfig(model=spec, functional="indicator",
                           grid=((20000, "10", "n^-0.55"),), replicates=20,
                           seed=2, targets=("ic_norm", "bc_norm"))
    t = run_experiment(cfg)
    assert 0.2 <= t.row(0, "ic_norm").mean <= 0.7


def test_scaled_gap_vanishes_for_indicator():
    # the normalized disjoint/sliding gap is centred at 0 for the
    # indicator on MMA(1): internal and boundary contributions cancel
    cfg = ExperimentConfig(model=MMA1, functional="indicator",
                           grid=((3 * 10 ** 4, "8", "n^-0.55"),),
                           replicates=60, seed=14, targets=("scaled_gap",))
    t = run_experiment(cfg)
    lt = limit_table(MMA1, get_functional("indicator"))
    v = summarize(t, expected_targets(lt, cfg.targets))
    assert v.rows["scaled_gap"]["expected"] == 0.0
    assert v.passed


def test_summarize_verdicts():
    rows = [TableRow(0, 10 ** 4, 4, 1e-2, "ic_norm", 0.40, 0.02, 0.002, 100),
            TableRow(1, 10 ** 5, 6, 1e-3, "ic_norm", 0.48, 0.02, 0.002, 100)]
    table = ConvergenceTable("mma1", 1.0, 1.0, 1.0, rows)
    v = summarize(table, {"ic_norm": 0.5}, rel_band=0.15)
    row = v.rows["ic_norm"]
    assert row["monotone"] and not row["within_3se"]
    assert row["rel_error"] == pytest.approx(0.04)
    assert row["passed"] and v.passed
    # non-monotone and out of band: fail
    rows[1] = TableRow(1, 10 ** 5, 6, 1e-3, "ic_norm", 0.30, 0.02, 0.002, 100)
    v = summarize(ConvergenceTable("mma1", 1, 1, 1, rows), {"ic_norm": 0.5})
    assert not v.passed
    # expected 0 uses the absolute 3 SE band
    rows = [TableRow(0, 10 ** 4, 4, 1e-2, "scaled_gap", 0.001, 0.01, 0.001, 100)]
    v = summarize(ConvergenceTable("mma1", 1, 1, 1, rows), {"scaled_gap": 0.0})
    assert v.rows["scaled_gap"]["passed"]
    rows = [TableRow(0, 10 ** 4, 4, 1e-2, "scaled_gap", 0.1, 0.01, 0.001, 100)]
    v = summarize(ConvergenceTable("mma1", 1, 1, 1, rows), {"scaled_gap": 0.0})
    assert not v.passed
    with pytest.raises(ConfigError):
        summarize(ConvergenceTable("mma1", 1, 1, 1, []), {})
    with pytest.raises(ConfigError):
        summarize(ConvergenceTable("mma1", 1, 1, 1, rows), {"other": 1.0})


def test_expected_targets_mapping():
    lt = limit_table(MMA1, get_functional("indicator"), gamma=1.0)
    exp = expected_targets(lt, ("ic_norm", "bc_norm", "pa1a2_small",
                                "pa1a2_large", "clm_large(1)", "ic_large_norm",
                                "ecm", "scaled_gap", "disjoint_stat"))
    assert exp["ic_norm"] == 0.5
    assert exp["bc_norm"] == -0.5
    assert exp["pa1a2_small"] == pytest.approx(0.5)
    assert exp["pa1a2_large"] == 0.25
    assert exp["clm_large(1)"] == pytest.approx(1 / 24)
    assert exp["ic_large_norm"] == pytest.approx(1 / 24)
    assert exp["ecm"] == 0.5
    assert exp["scaled_gap"] == 0.0
    assert exp["disjoint_stat"] == 0.5


def test_csv_roundtrip_and_header(tmp_path):
    t = run_experiment(small_config(replicates=3))
    path = tmp_path / "table.csv"
    persist(t, path, "csv")
    text = path.read_text()
    assert text.splitlines()[0] == CSV_HEADER
    back = load(path)
    assert back.model == t.model
    assert (back.alpha, back.c0, back.c1) == (t.alpha, t.c0, t.c1)
    for a, b in zip(t.rows, back.rows):
        assert a.__dict__ == b.__dict__


def test_json_roundtrip(tmp_path):
    t = run_experiment(small_config(replicates=3))
    path = tmp_path / "table.json"
    persist(t, path, "json")
    back = load(path)
    for a, b in zip(t.rows, back.rows):
        assert a.__dict__ == b.__dict__


def test_persist_is_byte_stable(tmp_path):
    t1 = run_experiment(small_config(replicates=3))
    t2 = run_experiment(small_config(replicates=3))
    assert csv_text(t1) == csv_text(t2)
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    persist(t1, p1, "json")
    persist(t2, p2, "json")
    assert p1.read_bytes() == p2.read_bytes()


def test_load_missing_column(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("model,alpha,c0,c1,n,r,w,replicates,target,mean,sd\n")
    with pytest.raises(PersistError) as err:
        load(path)
    assert "missing column: se" in str(err.value)


def test_load_malformed_row(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text(CSV_HEADER + "\nmma1,1.0,1.0\n")
    with pytest.raises(PersistError):
        load(path)


def test_config_hash_stable():
    assert small_config().config_hash == small_config().config_hash
    assert small_config().config_hash != small_config(seed=1).config_hash


def test_block_values_are_evaluated_once_per_replicate(monkeypatch):
    # DB and the ecm mean read one active_block_values call
    import clusterblocks.blocks as blocks
    import clusterblocks.expansion as expansion
    import clusterblocks.harness as harness

    calls = []

    def counting(book, h):
        calls.append(1)
        return blocks.active_block_values(book, h)

    monkeypatch.setattr(harness, "active_block_values", counting)
    monkeypatch.setattr(expansion, "active_block_values", counting)
    point = small_config().resolve_grid()[0]
    harness._replicate_values(MMA1, point, "indicator", ("disjoint_stat", "ecm"), 7)
    assert len(calls) == 1


@pytest.mark.parametrize("m", [3, 4, 5, 2500, 125001])
def test_pair_rate_equals_the_fancy_indexed_form(m):
    # the count over the active blocks gives the float of the mean over a
    # block mask, gathered at the even 1-based left blocks
    from types import SimpleNamespace

    import clusterblocks.harness as harness

    rng = np.random.default_rng(m)
    for density in (0.0, 0.1, 0.6, 1.0):
        a = rng.random(m) < density
        even = np.arange(2, m, 2) - 1
        old = float((a[even] & a[even + 1]).mean()) if even.size else 0.0
        new = harness._pair_rate(SimpleNamespace(active=np.flatnonzero(a) + 1, m=m), None, None)
        assert repr(new) == repr(old)


@given(st.integers(min_value=2, max_value=6), st.integers(min_value=1, max_value=40),
       st.integers(min_value=0, max_value=5), st.sampled_from(["drawn", "none", "all"]),
       st.lists(st.booleans(), max_size=250))
@example(3, 5, 0, "none", [])         # odd m, no exceedance
@example(2, 6, 1, "all", [])          # even m, every block and the tail active
@settings(max_examples=200, deadline=None)
def test_pair_rate_equals_the_mean_over_a_block_mask(r, m, tail, kind, drawn):
    # a bookkeeping's pair rate is the float the mean over its m-block
    # mask gives, at odd and even m, with no exceedance and with every
    # block active
    import clusterblocks.harness as harness

    n = m * r + tail % r
    exceed = {"drawn": (drawn + [False] * n)[:n], "none": [False] * n, "all": [True] * n}[kind]
    values = np.where(exceed, 2.0, 0.5)
    book = block_bookkeeping(MagnitudeSeries(values=values), BlockConfig(r=r, u=1.0, w=0.1))
    a = np.zeros(book.m, dtype=bool)
    for p in np.flatnonzero(values[:book.m * r] > 1.0):
        a[p // r] = True
    pairs = a[1:book.m - 1:2] & a[2:book.m:2]
    old = float(pairs.mean()) if pairs.size else 0.0
    assert repr(harness._pair_rate(book, None, None)) == repr(old)


# sha256 of csv_text for all ten targets on a two-point grid (8 replicates,
# seed 2024), recorded before the bookkeeping kept only pos and active; the
# length^1.5 rows since length^g takes libm pow on every CPU
GOLDEN_RATES = {
    ("mma1:1,1,1", "indicator"): "747f0b5e328334c291981e1f5b7095582089c34b1f4f9e197c78f0a819580b61",
    ("mma1:1,1,1", "length^1.5"): "3509d97c5eac6da894539d193fd11933e32b020571ffcd36a2b902f1aced4026",
    ("mma1:1,2,1.5", "indicator"): "4efc2664e1d740a4530e851a347b5452ab6db6d4beafdff08eb703d70e038154",
    ("mma1:1,2,1.5", "length^1.5"): "9a1a0376e4da2c0791aceecc0d66d6445aead5a67ae1dbced67160bda98eabf4",
    ("piecewise(mma1:1,1,1):r", "indicator"): "a9c65477976340296a83431d6e0111a8e53db4cd31502528908d1e2d433b3cbc",
    ("piecewise(mma1:1,1,1):r", "length^1.5"): "6757ade2228f3f6238eb9de85d055ab235041e737188f22f642b45e02345e3ed",
}
ALL_TARGETS = ("disjoint_stat", "sliding_stat", "scaled_gap", "ic_norm", "bc_norm",
               "ic_large_norm", "pa1a2_small", "pa1a2_large", "clm_large(0)",
               "clm_large(1.5)", "ecm")


@pytest.mark.parametrize("model, functional", sorted(GOLDEN_RATES))
def test_rates_csv_bytes_are_pinned(model, functional):
    # n = 3001 is not a multiple of r = 12; piecewise models cut it to m*r
    from clusterblocks import parse_model

    cfg = ExperimentConfig(model=parse_model(model), functional=functional,
                           grid=((3001, "n^0.3", "n^-0.6"), (6007, "7", "0.03")),
                           replicates=8, seed=2024, targets=ALL_TARGETS)
    text = csv_text(run_experiment(cfg))
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN_RATES[(model, functional)]


@pytest.mark.parametrize("name", sorted(TARGETS))
def test_each_target_limit_reads_only_its_declared_constants(name):
    # every constant a target does not declare is NaN, so reading one
    # makes the limit NaN
    lt = limit_table(MMA1, get_functional("indicator"))
    fields = {f: (v if f in TARGETS[name].reads else math.nan)
              for f, v in lt.to_dict().items() if isinstance(v, float)}
    hidden = dataclasses.replace(lt, **fields)
    assert math.isfinite(TARGETS[name].limit(hidden, 1.0))
    assert limit_constants([f"{name}(1)" if TARGETS[name].exponent else name]) == \
        frozenset(TARGETS[name].reads)
