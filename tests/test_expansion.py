import hashlib
import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from clusterblocks import (BlockConfig, ClusterFunctional, ConfigError,
                           MagnitudeSeries, ModelSpec, block_bookkeeping,
                           boundary_cluster_stat, exceedance_pattern,
                           expansion_report, gen_series, get_functional,
                           internal_cluster_stat, parse_model,
                           remainder_stat, threshold_for_w)
from clusterblocks.blocks import model_bookkeeping, window_values_at
from clusterblocks.expansion import (_bc1, decompose, path_deviations, raw_sums,
                                     reference_sums)
from clusterblocks.functionals import eval_functional, induced_ic
from clusterblocks.verify import mask_bookkeepings
from helpers import LOG_SUM, log_sum

IND = get_functional("indicator")
LEN = get_functional("length")
CNT = get_functional("count")


def block_times(book, j):
    """Block j's exceedance times, read off its scaled window (stored where active)."""
    if j not in book.active_set:
        return np.empty(0, dtype=np.int64)
    return np.flatnonzero(book.block_window(j) > 1.0) + (j - 1) * book.r + 1


def sliding_block_sum(book, h, j):
    """SB_j: direct sum of H over the r windows starting inside block j."""
    starts = np.arange((j - 1) * book.r + 1, j * book.r + 1, dtype=np.int64)
    return float(window_values_at(book, book.pos, starts, book.r, h).sum())


def padded_reference_ic(block_window, h, r):
    """SB_1 + SB_2 - DB_2 of the block embedded between two empty blocks.

    The piecewise mode keeps blocks with active neighbours, where the
    in-sample window sums no longer isolate the block; padding recreates
    the isolating event without touching the fast path.
    """
    padded = series_from(np.concatenate([np.zeros(r), block_window, np.zeros(r)]))
    book = block_bookkeeping(padded, BlockConfig(r=r, u=1.0, w=0.5))
    starts = np.arange(1, 2 * r + 1, dtype=np.int64)
    sb = float(window_values_at(book, book.pos, starts, r, h).sum())
    return sb - r * eval_functional(h, block_window)


def series_from(values):
    return MagnitudeSeries(values=np.asarray(values, dtype=float))


def place(n, positions, hi=2.0, lo=0.5):
    values = np.full(n, lo)
    for p in positions:
        values[p - 1] = hi
    return series_from(values)


def test_bookkeeping_worked_example():
    s = series_from([0.5, 2.0, 0.3, 0.4, 1.5, 0.2])
    book = block_bookkeeping(s, BlockConfig(r=2, u=1.0, w=0.1))
    assert book.m == 3
    assert [block_times(book, j).size for j in (1, 2, 3)] == [1, 0, 1]
    assert book.active.tolist() == [1, 3]
    assert book.pos.tolist() == [2, 5]
    assert block_times(book, 1).tolist() == [2]
    assert block_times(book, 3).tolist() == [5]


def test_bookkeeping_saturated_and_empty():
    cfg = BlockConfig(r=3, u=1.0, w=0.1)
    full = series_from(np.full(12, 2.0))
    book = block_bookkeeping(full, cfg)
    assert book.pos.tolist() == list(range(1, 13)) and book.active.tolist() == [1, 2, 3, 4]
    assert all(block_times(book, j).size == 3 for j in range(1, 5))
    assert all(np.ptp(block_times(book, j)) + 1 == 3 for j in range(1, 5))
    empty = series_from(np.full(12, 0.5))
    book = block_bookkeeping(empty, cfg)
    assert book.active.size == 0
    with pytest.raises(ConfigError, match="need at least 3 blocks, got m=1"):
        expansion_report(series_from(np.ones(5)), cfg, IND)


def test_gap_convention_sums_to_r():
    # sum of gaps including the t_j(0), t_j(N_j+1) conventions is r
    rng = np.random.default_rng(4)
    s = series_from(rng.uniform(0, 2, size=60))
    book = block_bookkeeping(s, BlockConfig(r=6, u=1.0, w=0.1))
    for j in range(1, book.m + 1):
        t = [(j - 1) * 6] + block_times(book, j).tolist() + [j * 6]
        gaps = np.diff(t)
        assert gaps.sum() == 6


def test_internal_cluster_examples():
    # exceedances at positions 15 and 19 inside block 2 (r=10, m=4)
    s = place(40, [15, 19])
    book = block_bookkeeping(s, BlockConfig(r=10, u=1.0, w=0.01))
    total, per = internal_cluster_stat(book, IND)
    assert per == {2: 4.0}
    assert total == 4.0
    # single exceedance: IC_j = 0
    s = place(40, [15])
    book = block_bookkeeping(s, BlockConfig(r=10, u=1.0, w=0.01))
    total, per = internal_cluster_stat(book, IND)
    assert total == 0.0 and per == {2: 0.0}
    # linear functional: always zero
    s = place(40, [15, 19, 17])
    book = block_bookkeeping(s, BlockConfig(r=10, u=1.0, w=0.01))
    assert internal_cluster_stat(book, CNT)[0] == 0.0


def test_internal_cluster_piecewise_mode_drops_neighbour_indicators():
    # exceedances in adjacent blocks suppress standard IC but not piecewise
    s = place(40, [12, 15, 25])
    book = block_bookkeeping(s, BlockConfig(r=10, u=1.0, w=0.01))
    assert internal_cluster_stat(book, IND, mode="standard")[0] == 0.0
    total, per = internal_cluster_stat(book, IND, mode="piecewise")
    assert per[2] == 3.0 and per[3] == 0.0
    assert {j: padded_reference_ic(book.block_window(j), IND, book.r)
            for j in per} == per


def test_boundary_cluster_examples():
    # straddling cluster: last exceedance of block 2 at 20, first of block 3 at 21
    s = place(50, [19, 21], hi=3.0)
    book = block_bookkeeping(s, BlockConfig(r=10, u=1.0, w=0.01))
    parts = boundary_cluster_stat(book, IND)
    [pair] = parts.per_pair
    assert pair["j"] == 2
    assert pair["bc1"] == -10.0
    assert pair["bc2"] == 21 - 19  # t_{j+1}(N_{j+1}) - t_j(1)
    assert pair["joint_length"] == 3 and pair["short"]
    # count functional: linearity kills both parts
    parts = boundary_cluster_stat(book, CNT)
    assert parts.total == 0.0
    # no adjacent pair: nothing fires
    s = place(50, [15, 35])
    book = block_bookkeeping(s, BlockConfig(r=10, u=1.0, w=0.01))
    assert boundary_cluster_stat(book, IND).per_pair == []


def test_boundary_long_joint_cluster_uses_direct_path():
    # joint length 12 >= r=10: overline part, direct path only
    s = place(50, [12, 23], hi=3.0)
    book = block_bookkeeping(s, BlockConfig(r=10, u=1.0, w=0.01))
    parts = boundary_cluster_stat(book, IND)
    [pair] = parts.per_pair
    assert pair["joint_length"] == 12 and not pair["short"]
    assert parts.bc2_tilde == 0.0
    # indicator closed form valid for long clusters too:
    # (t3(N3)-t2(1)) - (gap - r)_+ = 11 - 1 = 10
    assert pair["bc2"] == 10.0
    # the reference route (bc1 on whole blocks) agrees
    assert path_deviations(book, IND, reference_sums(book, IND), {}, parts.per_pair) == (0.0, 0.0)


def test_a_long_pairs_bc2_is_checked_against_the_reference_route(monkeypatch):
    # both routes sum a long pair's bc2 directly, each from its own SB, so
    # a perturbed fast value shows in bc_path_deviation
    import clusterblocks.expansion as expansion

    s = place(50, [12, 23], hi=3.0)     # one pair, joint length 12 >= r = 10
    cfg = BlockConfig(r=10, u=1.0, w=0.01)
    for h in (IND, LEN):
        assert decompose(block_bookkeeping(s, cfg), h).bc_path_deviation == 0.0
    real = expansion.boundary_cluster_stat

    def perturbed(book, h):
        parts = real(book, h)
        [pair] = parts.per_pair
        assert not pair["short"]
        pair["bc2"] += 0.5
        return parts

    monkeypatch.setattr(expansion, "boundary_cluster_stat", perturbed)
    for h in (IND, LEN):
        assert decompose(block_bookkeeping(s, cfg), h).bc_path_deviation == 0.5


def test_the_fast_route_builds_no_reference_table():
    # a long pair sums its own three blocks: the fast route and the raw
    # sums neither build nor key the reference route's windows
    book = _random_book(np.random.default_rng(5), 9, 400, 0.08)
    for h in (IND, get_functional("length^1.5"), LOG_SUM):
        internal_cluster_stat(book, h)
        assert any(not p["short"] for p in boundary_cluster_stat(book, h).per_pair)
        raw_sums(book, h)
    assert "reference" not in vars(book)


def test_remainder_examples():
    cfg = BlockConfig(r=10, u=1.0, w=0.01)
    # all exceedances inside block 3 of 6: pure internal cluster
    s = place(60, [25, 27])
    rep = expansion_report(s, cfg, IND)
    assert rep.r_op == 0.0 and (rep.r_ic, rep.r_bc, rep.r_nc) == (0, 0, 0)
    # blocks 3,4,5 all active: only the run remainder fires; by hand,
    # S_2 = 5, T_3 = T_4 = 0, T_5 = 3 - 10, so r_nc = -2
    s = place(60, [25, 35, 43])
    rep = expansion_report(s, cfg, IND)
    assert rep.r_nc == -2.0
    assert rep.r_op == rep.r_ic + rep.r_bc + rep.r_nc
    assert rep.r_ic == 0.0 and rep.r_bc == 0.0
    # exceedance only in block 1: sample-boundary internal term
    s = place(60, [5])
    rep = expansion_report(s, cfg, IND)
    assert rep.r_op == rep.r_ic != 0.0
    assert rep.r_bc == 0.0 and rep.r_nc == 0.0


def test_remainder_operational_identity():
    rng = np.random.default_rng(8)
    cfg = BlockConfig(r=5, u=1.0, w=0.05)
    for _ in range(30):
        s = series_from(rng.uniform(0, 1.4, size=100))
        book = block_bookkeeping(s, cfg)
        for h in (IND, LEN, CNT, LOG_SUM):
            rep = expansion_report(s, cfg, h)
            r_op, r_ic, r_bc, r_nc = remainder_stat(
                book, reference_sums(book, h), rep.sb, rep.db, rep.ic, rep.bc)
            assert r_op == rep.r_op
            assert (r_ic, r_bc, r_nc) == (rep.r_ic, rep.r_bc, rep.r_nc)
            if h.integer_valued:
                assert r_op == r_ic + r_bc + r_nc
            else:
                # float sums in two orders: the library's own tolerance
                scale = max(1.0, abs(rep.sb - rep.db), abs(rep.ic), abs(rep.bc))
                assert abs(r_op - (r_ic + r_bc + r_nc)) <= 1e-9 * scale


def test_report_accepts_unhashable_evaluator():
    class LogSum:
        __hash__ = None             # like any class defining __eq__ alone

        def __call__(self, w):
            return log_sum(w)

    h = ClusterFunctional(name="log_sum", gamma=1.0, growth_constant=1.0,
                          evaluator=LogSum())
    s = place(60, [15, 25, 27, 35, 52])
    cfg = BlockConfig(r=10, u=1.0, w=0.01)
    assert (expansion_report(s, cfg, h).to_dict()
            == expansion_report(s, cfg, LOG_SUM).to_dict())


def test_report_residuals_zero_on_seeded_instances():
    spec = ModelSpec.mma1(1.0, 1.0, 1.0)
    w = 0.02
    u = threshold_for_w(spec, w)
    cfg = BlockConfig(r=8, u=u, w=w)
    for seed in range(20):
        s = gen_series(spec, 1600, seed=seed)
        for h in (IND, LEN, CNT):
            rep = expansion_report(s, cfg, h)
            assert rep.residual_identity == 0.0
            assert rep.residual_paper == 0.0
            assert rep.ic_path_deviation == 0.0
            assert rep.bc_path_deviation == 0.0


def test_count_functional_reduces_to_remainder():
    spec = ModelSpec.mma1(1.0, 2.0, 1.0)
    w = 0.03
    cfg = BlockConfig(r=6, u=threshold_for_w(spec, w), w=w)
    s = gen_series(spec, 600, seed=4)
    rep = expansion_report(s, cfg, CNT)
    assert rep.ic == 0.0 and rep.bc == 0.0
    assert rep.sb - rep.db == rep.r_op


def test_sb_event_identities():
    # one-sided event identities: direct window sums equal the
    # gap-weighted cluster sums when the left (resp. right) block is empty
    rng = np.random.default_rng(21)
    cfg = BlockConfig(r=7, u=1.0, w=0.05)
    hs = [IND, LEN, CNT, get_functional("length^2")]
    checked = 0
    for _ in range(120):
        s = series_from(rng.uniform(0, 1.35, size=7 * 8))
        book = block_bookkeeping(s, cfg)
        for j in range(2, book.m):
            times = block_times(book, j)
            for h in hs:
                if j - 1 not in book.active_set:    # empty left neighbour
                    direct = sliding_block_sum(book, h, j - 1)
                    t = [(j - 1) * 7] + times.tolist() + [j * 7]
                    fast = sum((t[i + 1] - t[i]) *
                               h.evaluator(book.window(t[1], t[i]))
                               for i in range(1, len(t) - 1))
                    assert direct == fast
                    checked += 1
                if j + 1 <= book.m and j + 1 not in book.active_set:  # empty right neighbour
                    direct = sliding_block_sum(book, h, j)
                    t = [(j - 1) * 7] + times.tolist() + [j * 7]
                    fast = sum((t[i + 1] - t[i]) *
                               h.evaluator(book.window(t[i + 1], t[-2]))
                               for i in range(0, len(t) - 2))
                    assert direct == fast
                    checked += 1
    assert checked > 100


def test_indicator_ic_recomputed_from_patterns():
    spec = ModelSpec.mma1(1.0, 1.0, 1.0)
    w = 0.05
    cfg = BlockConfig(r=6, u=threshold_for_w(spec, w), w=w)
    s = gen_series(spec, 1200, seed=9)
    book = block_bookkeeping(s, cfg)
    total, per = internal_cluster_stat(book, IND)
    alt, on = 0.0, book.active_set
    for j in range(2, book.m):
        if j in on and j - 1 not in on and j + 1 not in on:
            pat = exceedance_pattern(book.block_window(j))
            alt += pat.length - 1
    assert total == alt


def test_merged_pair_fast_path_forced_events():
    # force boundary clusters with random exceedance layouts near the
    # block seam, across block sizes; fast merged-gap form must equal the
    # direct window sums whenever the joint cluster stays below r
    rng = np.random.default_rng(71)
    hs = [IND, LEN, CNT, get_functional("length^2")]
    hits = 0
    for _ in range(200):
        r = int(rng.integers(5, 41))
        m = 5
        values = np.full(m * r, 0.5)
        # clusters inside blocks 2 and 3 only
        k2 = int(rng.integers(1, 4))
        k3 = int(rng.integers(1, 4))
        pos2 = rng.choice(np.arange(r + 1, 2 * r + 1), size=k2, replace=False)
        pos3 = rng.choice(np.arange(2 * r + 1, 3 * r + 1), size=k3, replace=False)
        values[np.concatenate([pos2, pos3]) - 1] = rng.uniform(1.5, 9.0, k2 + k3)
        book = block_bookkeeping(MagnitudeSeries(values=values),
                                 BlockConfig(r=r, u=1.0, w=0.01))
        for h in hs:
            [pair] = boundary_cluster_stat(book, h).per_pair
            # max |delta bc1| + |delta bc2| against the direct window sums
            _, bc_dev = path_deviations(book, h, reference_sums(book, h), {}, [pair])
            assert bc_dev == 0.0 if h.integer_valued else bc_dev <= 1e-9
            hits += 1
    assert hits == 800


def test_path_deviations_zero():
    rng = np.random.default_rng(30)
    cfg = BlockConfig(r=5, u=1.0, w=0.05)
    for _ in range(40):
        s = series_from(rng.uniform(0, 1.5, size=90))
        book = block_bookkeeping(s, cfg)
        for h in (IND, LEN, CNT, get_functional("length^1.5")):
            _, per_ic = internal_cluster_stat(book, h)
            ic_dev, bc_dev = path_deviations(book, h, reference_sums(book, h), per_ic,
                                             boundary_cluster_stat(book, h).per_pair)
            assert ic_dev <= 1e-12 and bc_dev <= 1e-12


def test_real_valued_functional_residual_tolerance(tmp_path):
    # length^1.5 exercises the float tolerance route of residual_paper
    spec = ModelSpec.mma1(1.0, 1.0, 1.0)
    w = 0.03
    cfg = BlockConfig(r=7, u=threshold_for_w(spec, w), w=w)
    h = get_functional("length^1.5")
    for seed in range(10):
        s = gen_series(spec, 840, seed=seed)
        rep = expansion_report(s, cfg, h, counterexample_dir=tmp_path)
        scale = max(1.0, abs(rep.sb - rep.db), abs(rep.ic), abs(rep.bc))
        assert abs(rep.residual_identity) <= 1e-9 * scale
        assert abs(rep.residual_paper) <= 1e-9 * scale
        assert rep.ic_path_deviation <= 1e-9 * scale
        assert rep.bc_path_deviation <= 1e-9 * scale
    assert list(tmp_path.iterdir()) == []


def test_report_json_schema():
    s = place(60, [25, 27])
    rep = expansion_report(s, BlockConfig(r=10, u=1.0, w=0.01), IND,
                           verbose=True)
    data = json.loads(rep.to_json(verbose=True))
    for key in ("db", "sb", "ic", "bc1", "bc2_tilde", "bc2_overline", "r_op",
                "r_ic", "r_bc", "r_nc", "residual_identity", "residual_paper",
                "ic_norm", "bc_norm", "gap_scaled", "per_block"):
        assert key in data
    assert json.loads(rep.to_json())  # non-verbose drops per-block arrays
    assert "per_block" not in json.loads(rep.to_json())


def test_three_block_minimum():
    s = place(6, [2, 5])
    rep = expansion_report(s, BlockConfig(r=2, u=1.0, w=0.1), IND)
    assert rep.residual_identity == 0.0 and rep.residual_paper == 0.0
    with pytest.raises(ConfigError):
        expansion_report(place(4, [2]), BlockConfig(r=2, u=1.0, w=0.1), IND)


def test_counterexample_artifact_not_written_when_clean(tmp_path):
    s = place(60, [25, 27])
    expansion_report(s, BlockConfig(r=10, u=1.0, w=0.01), IND,
                     counterexample_dir=tmp_path)
    assert list(tmp_path.iterdir()) == []


def test_scale_equivariance_of_report():
    spec = ModelSpec.mma1(1.0, 1.0, 1.0)
    w = 0.02
    u = threshold_for_w(spec, w)
    s = gen_series(spec, 800, seed=12)
    base = expansion_report(s, BlockConfig(r=8, u=u, w=w), IND)
    for c in (0.25, 1024.0):  # powers of two rescale exactly
        scaled = MagnitudeSeries(values=s.values * c)
        rep = expansion_report(scaled, BlockConfig(r=8, u=u * c, w=w), IND)
        assert rep.sb == base.sb and rep.db == base.db
        assert rep.ic == base.ic and rep.bc == base.bc
        assert rep.disjoint_stat == base.disjoint_stat


# sha256 of the JSON that `decompose --verbose-blocks` prints, on one
# seeded series per model (n = 2400, r = 8, w = 0.04, seed 2; internal
# blocks, short and long boundary pairs and runs of three all occur).
# The real-valued functionals pin per-block values and nonzero path
# deviations to the last bit; length^1.5 is libm pow on every CPU.
GOLDEN_REPORTS = {
    ("mma1:1,1,1", "indicator"): "44af8dfb6d3c13f7ef29de38dbccf5c1f86a6072a1599d7f51158af3aa28834d",
    ("mma1:1,1,1", "length^1.5"): "e8381f69eda9b70265cd79d2f54e696dddf81826ac0ec583fa8c6273d5d515d0",
    ("mma1:1,1,1", "log_sum"): "b02248c82b1647a7d0a758e299278bcb6b6861da3bfeab873843219dedd31510",
    ("mma1:1,2,1.5", "indicator"): "ab537b6f0e537eabfb688f192f5625f963b20286b9383765aa856b30d02ce208",
    ("mma1:1,2,1.5", "length^1.5"): "b5232e7021989619cd7901e34356ad3a3344621b57c61a3fb526a254e1278c62",
    ("mma1:1,2,1.5", "log_sum"): "52b95f484c4c40b248b75857cf181e40ba0931e7931ef5ec70d86ad413efe8a8",
}


@pytest.mark.parametrize("model,name", sorted(GOLDEN_REPORTS))
def test_verbose_report_bytes_are_pinned(model, name):
    spec = parse_model(model)
    w = 0.04
    cfg = BlockConfig(r=8, u=threshold_for_w(spec, w), w=w)
    h = LOG_SUM if name == "log_sum" else get_functional(name)
    rep = expansion_report(gen_series(spec, 2400, seed=2), cfg, h,
                           w_source="exact", verbose=True)
    text = rep.to_json(verbose=True) + "\n"
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN_REPORTS[(model, name)]


# sha256 over the verbose JSON of every decomposition that `verify`'s
# exhaustive check makes: the 4095 exceedance masks of 4 blocks of r = 3
# (values 2 and 0.5 at u = 1), one bookkeeping per mask decomposed with
# `indicator`, `length` and `count` in that order.
GOLDEN_MASK_REPORTS = "d9545485d78ebea639541297ff2633bfc3b3e973325a9152bed2e77b73111370"


def test_exhaustive_mask_reports_are_pinned():
    digest = hashlib.sha256()
    for _, book in mask_bookkeepings(3, 4):
        for h in (IND, LEN, CNT):
            digest.update(decompose(book, h, verbose=True).to_json(verbose=True).encode())
    assert digest.hexdigest() == GOLDEN_MASK_REPORTS


# -- exceedance-time route against the window route --------------------------

TIME_ROUTE_FUNCTIONALS = [IND, LEN, CNT, get_functional("length^1.5"), LOG_SUM]


def _random_book(rng, r, m, p):
    """m blocks of size r, each value exceeding with probability p, plus a tail."""
    n = m * r + int(rng.integers(0, r))
    values = np.where(rng.random(n) < p, rng.uniform(1.01, 9.0, n), rng.uniform(0.0, 1.0, n))
    return block_bookkeeping(series_from(values), BlockConfig(r=r, u=1.0, w=0.1))


def test_exceedance_time_route_equals_window_route():
    # every IC and BC event value equals induced_ic and _bc1 on the old
    # windows (whole block, cluster windows, whole pair) bit for bit
    rng = np.random.default_rng(808)
    counts, kinds = set(), set()
    for _ in range(150):
        r = int(rng.integers(2, 10))
        book = _random_book(rng, r, int(rng.integers(4, 14)),
                            float(rng.choice([0.05, 0.2, 0.5, 0.9, 1.0])))
        for h in TIME_ROUTE_FUNCTIONALS:
            for mode in ("standard", "piecewise"):
                _, per = internal_cluster_stat(book, h, mode)
                for j, v in per.items():
                    assert v == induced_ic(h, book.block_window(j))
                    counts.add(block_times(book, j).size)
            for pair in boundary_cluster_stat(book, h).per_pair:
                j = pair["j"]
                left, right = block_times(book, j), block_times(book, j + 1)
                assert pair["bc1"] == _bc1(book, h, book.window(left[0], right[-1]),
                                           book.window(left[0], left[-1]),
                                           book.window(right[0], right[-1]))
                assert pair["joint_length"] == right[-1] - left[0] + 1
                if pair["short"]:
                    assert pair["bc2"] == induced_ic(h, book.merged_window(j))
                kinds.add(pair["short"])
    assert counts >= set(range(1, 10)) and kinds == {True, False}


def test_exceedance_time_route_skips_window_scans(monkeypatch):
    # a pattern-backed H is pattern_value of a piece's (count, length), at
    # most once per distinct key of one statistic: no window is scanned
    # for its exceedances, and the IC route reads no magnitude at all
    import dataclasses

    import clusterblocks.blocks as blocks
    import clusterblocks.functionals as functionals

    def forbidden(*args, **kwargs):
        raise AssertionError("window read on the exceedance-time route")

    evaluations, patterns, tables = [], [], []
    base = get_functional("length^1.5")

    def evaluator(window):
        evaluations.append(1)
        return base.evaluator(window)

    def pattern_value(n, length):
        # a piece's (count, length) is scalar, a key table's array-valued
        if isinstance(n, np.ndarray):
            tables.append(n.size)
        else:
            patterns.append((n, length))
        return base.pattern_value(n, length)

    monkeypatch.setattr(functionals, "exceedance_pattern", forbidden)
    monkeypatch.setattr(functionals, "induced_ic", forbidden)
    monkeypatch.setattr(functionals, "eval_functional", forbidden)

    def piece_keys(t):
        # (count, length) of the whole run, of every prefix and every suffix
        keys = {(len(t), t[-1] - t[0] + 1)}
        for i in range(1, len(t)):
            keys |= {(i, t[i - 1] - t[0] + 1), (len(t) - i, t[-1] - t[i] + 1)}
        return keys

    rng = np.random.default_rng(5)
    book = _random_book(rng, 9, 400, 0.08)
    h = dataclasses.replace(base, evaluator=evaluator, pattern_value=pattern_value)
    window = blocks.BlockBookkeeping.window
    monkeypatch.setattr(blocks.BlockBookkeeping, "window", forbidden)
    _, per = internal_cluster_stat(book, h, "piecewise")
    monkeypatch.setattr(blocks.BlockBookkeeping, "window", window)
    keys = set().union(*(piece_keys(block_times(book, j).tolist()) for j in per))
    assert len(per) > 150 and not evaluations and not tables
    assert 0 < len(patterns) == len(set(patterns)) <= len(keys) and set(patterns) <= keys

    patterns.clear()
    pairs = boundary_cluster_stat(book, h).per_pair
    keys = set()
    for p in pairs:
        left, right = block_times(book, p["j"]).tolist(), block_times(book, p["j"] + 1).tolist()
        t = left + right
        # bc1 reads the pair and its two clusters whole; bc2 on a short pair
        # is the IC sum of the pair's times
        keys |= {(len(c), c[-1] - c[0] + 1) for c in (t, left, right)}
        if p["short"]:
            keys |= piece_keys(t)
    long_pairs = sum(not p["short"] for p in pairs)
    assert pairs and 0 < len(patterns) == len(set(patterns)) <= len(keys)
    assert set(patterns) <= keys
    # a long pair's bc2 is the direct sum of its own three blocks' 3r
    # windows, all long pairs' in one key table, and evaluates its merged
    # window once; no reference sum is built
    assert long_pairs > 1 and len(evaluations) <= long_pairs
    assert tables == [3 * book.r * long_pairs] and "reference" not in vars(book)


def test_event_blocks_are_computed_once_per_bookkeeping(monkeypatch):
    # the event rows depend on the active blocks alone: three functionals
    # decomposed on one bookkeeping compute each kind once
    import clusterblocks.blocks as blocks

    kinds = []
    real = blocks.BlockBookkeeping._event_rows

    def counting(book, kind):
        kinds.append(kind)
        return real(book, kind)

    monkeypatch.setattr(blocks.BlockBookkeeping, "_event_rows", counting)
    spec = ModelSpec.mma1(1.0, 1.0, 1.0)
    cfg = BlockConfig(r=5, u=threshold_for_w(spec, 0.05), w=0.05)
    book = block_bookkeeping(gen_series(spec, 3000, 4), cfg)
    for h in (IND, LEN, get_functional("length^1.5")):
        decompose(book, h)
    internal_cluster_stat(book, IND, "piecewise")
    internal_cluster_stat(book, LEN, "piecewise")
    assert sorted(kinds) == ["boundary", "piecewise", "standard"]
    assert len(book.standard_events) and len(book.boundary_events)
    with pytest.raises(ConfigError):
        internal_cluster_stat(book, IND, "neither")


def test_position_work_is_done_once_per_bookkeeping(monkeypatch):
    # the active blocks as ints, the SB runs and the window keys depend on
    # pos, active and r alone: three functionals decomposed on one
    # bookkeeping compute each once, and a pattern-backed H is evaluated
    # by one pattern_value call per functional
    import dataclasses
    from functools import cached_property

    import clusterblocks.blocks as blocks

    runs, passes, lists = [], [], []
    real_segments, real_key = blocks.window_segments, blocks.BlockBookkeeping._key
    real_list = blocks.BlockBookkeeping.active_list.func

    def segments(pos, r, lo, hi):
        runs.append((lo, hi))
        return real_segments(pos, r, lo, hi)

    def key(book, sets):
        passes.append(len(sets))
        return real_key(book, sets)

    def active_list(book):
        lists.append(1)
        return real_list(book)

    counted = cached_property(active_list)
    counted.__set_name__(blocks.BlockBookkeeping, "active_list")
    monkeypatch.setattr(blocks, "window_segments", segments)
    monkeypatch.setattr(blocks.BlockBookkeeping, "_key", key)
    monkeypatch.setattr(blocks.BlockBookkeeping, "active_list", counted)
    spec = ModelSpec.mma1(1.0, 1.0, 1.0)
    cfg = BlockConfig(r=5, u=threshold_for_w(spec, 0.05), w=0.05)
    book = block_bookkeeping(gen_series(spec, 3000, 4), cfg)
    patterns, scalars = [], []

    def counted_pattern(h):
        def pattern_value(n, length):
            # a key table's call is array-valued, a piece's (count, length) scalar
            (patterns if isinstance(n, np.ndarray) else scalars).append(h.name)
            return h.pattern_value(n, length)
        return dataclasses.replace(h, pattern_value=pattern_value)

    for h in (counted_pattern(IND), counted_pattern(get_functional("length^1.5")), LOG_SUM):
        decompose(book, h)
    long_pairs = sum(int(book.pos[b - 1] - book.pos[a]) + 1 >= book.r
                     for _, a, _, b in book.boundary_events)
    assert runs == [(1, (book.m - 1) * book.r)]
    # SB runs, the active blocks' starts, the reference windows and the
    # long pairs' three blocks' windows (the fast route reads no reference
    # window), together, once per bookkeeping
    assert long_pairs > 1 and passes == [4]
    assert patterns == ["indicator", "length^1.5"]
    assert set(scalars) == {"indicator", "length^1.5"}
    assert lists == [1]


BOOK_FUNCTIONALS = [IND, get_functional("length^1.5"), LOG_SUM]


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), r=st.integers(2, 8), m=st.integers(3, 12),
       tail=st.integers(0, 7), w=st.floats(0.02, 0.3), c1=st.sampled_from([1.0, 2.0]),
       order=st.lists(st.sampled_from(range(len(BOOK_FUNCTIONALS))), min_size=1, max_size=6))
def test_a_shared_bookkeeping_decomposes_as_fresh_ones(seed, r, m, tail, w, c1, order):
    # the layout and the reference sums a bookkeeping keeps change no byte,
    # whatever functionals were decomposed on it before, on either route
    spec = ModelSpec.mma1(1.0, c1, 1.0)
    n = m * r + tail % r
    cfg = BlockConfig(r=r, u=threshold_for_w(spec, w), w=w)
    for build in (lambda: model_bookkeeping(spec, n, seed, cfg),
                  lambda: block_bookkeeping(gen_series(spec, n, seed), cfg)):
        shared = build()
        for i in order:
            h = BOOK_FUNCTIONALS[i]
            got = decompose(shared, h, verbose=True).to_json(verbose=True)
            assert got == decompose(build(), h, verbose=True).to_json(verbose=True)


def dense_reference_sums(book, h):
    """SB_j and DB_j at every j = 1..m-1 (index j-1), by window_values_at over every start."""
    r, m = book.r, book.m
    starts = np.arange(1, (m - 1) * r + 1, dtype=np.int64)
    sb = window_values_at(book, book.pos, starts, r, h).reshape(m - 1, r).sum(axis=1)
    db = r * window_values_at(book, book.pos, starts[::r], r, h)
    return sb, db


@st.composite
def blocked_values(draw):
    """(r, values): m = 3..9 blocks of size r and a tail of fewer than r values."""
    r = draw(st.integers(min_value=2, max_value=6))
    m = draw(st.integers(min_value=3, max_value=9))
    n = m * r + draw(st.integers(min_value=0, max_value=r - 1))
    element = st.one_of(st.just(0.5), st.floats(min_value=0.0, max_value=3.0),
                        st.floats(min_value=1.01, max_value=9.0))
    return r, draw(st.lists(element, min_size=n, max_size=n))


@given(blocked_values())
@example((3, [0.5] * 9))                # m = 3, no exceedance
@example((4, [0.5] * 18 + [2.0]))       # m = 4, an exceedance in the tail only
@example((2, [2.0] * 7))                # m = 3, every block and the tail exceed
@settings(max_examples=150, deadline=None)
def test_sparse_reference_sums_equal_the_dense_sums(case):
    # SB_j and DB_j kept at the blocks an exceedance reaches, with 0.0 read
    # elsewhere, equal the dense per-block sums bit for bit at every block
    r, values = case
    book = block_bookkeeping(series_from(values), BlockConfig(r=r, u=1.0, w=0.1))
    m, on = book.m, set(((book.pos - 1) // r + 1).tolist())
    for h in (IND, get_functional("length^1.5"), LOG_SUM):
        sb, db = reference_sums(book, h)
        assert set(sb) == {j for j in range(1, m) if j in on or j + 1 in on}
        assert set(db) == {j for j in range(1, m) if j in on}
        dense_sb, dense_db = dense_reference_sums(book, h)
        assert [sb.get(j, 0.0) for j in range(1, m)] == dense_sb.tolist()
        assert [db.get(j, 0.0) for j in range(1, m)] == dense_db.tolist()
