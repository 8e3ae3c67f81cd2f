"""Acceptance suite: one test per criterion, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines while they pass; pytest shows them for failing criteria regardless.
"""

import math
import time

import numpy as np
import pytest

from clusterblocks import (BlockConfig, ExperimentConfig, MagnitudeSeries,
                           ModelSpec, cluster_index_mc, expansion_report,
                           expected_targets, gen_series, get_functional,
                           induced_functional, limit_table, load, persist,
                           read_series, run_experiment, summarize,
                           threshold_for_w, write_series)
from clusterblocks.expansion import (block_bookkeeping, boundary_cluster_stat,
                                     internal_cluster_stat, path_deviations,
                                     reference_sums)
from clusterblocks.functionals import validate_functional
from clusterblocks.harness import csv_text
from clusterblocks.verify import identity_reports, mask_bookkeepings, z_acceptance_runs

MMA1 = ModelSpec.mma1(1.0, 1.0, 1.0)
IND = get_functional("indicator")


def criterion(num: int, ok: bool, detail: str) -> None:
    line = f"CRITERION {num}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def identity_runs(tmp_path_factory):
    """The shared 500 seeded decomposition instances (criteria 1 and 2)."""
    cdir = tmp_path_factory.mktemp("counterexamples")
    t0 = time.monotonic()
    reports = list(identity_reports(500, 20240, cdir))
    return {"reports": reports, "elapsed": time.monotonic() - t0,
            "counterexample_dir": cdir}


def test_criterion_1_exact_decomposition(identity_runs):
    reports = identity_runs["reports"]
    elapsed = identity_runs["elapsed"]
    bad_identity = sum(r.residual_identity != 0.0 for r in reports)
    bad_paper = sum(r.residual_paper != 0.0 for r in reports)
    artifacts = list(identity_runs["counterexample_dir"].iterdir())
    ok = (bad_identity == 0 and bad_paper == 0 and not artifacts
          and elapsed < 30.0)
    criterion(1, ok,
              f"500 instances: residual_identity nonzero on {bad_identity}, "
              f"residual_paper nonzero on {bad_paper}, "
              f"{len(artifacts)} counterexample artifacts, {elapsed:.1f}s")


def test_criterion_2_case_analysis_equivalence(identity_runs):
    reports = identity_runs["reports"]
    bad_runs = sum(r.ic_path_deviation != 0.0 or r.bc_path_deviation != 0.0
                   for r in reports)
    t0 = time.monotonic()
    hs = [get_functional(nm) for nm in ("indicator", "length", "count")]
    bad_masks = 0
    for _, book in mask_bookkeepings(4, 4):
        for h in hs:
            _, per_ic = internal_cluster_stat(book, h)
            ic_dev, bc_dev = path_deviations(book, h, reference_sums(book, h), per_ic,
                                             boundary_cluster_stat(book, h).per_pair)
            if ic_dev != 0.0 or bc_dev != 0.0:
                bad_masks += 1
    enum_elapsed = time.monotonic() - t0
    total = identity_runs["elapsed"] + enum_elapsed
    ok = bad_runs == 0 and bad_masks == 0 and total < 60.0
    criterion(2, ok,
              f"path deviations on {bad_runs}/500 runs; exhaustive 65535 "
              f"masks x 3 functionals: {bad_masks} disagreements; "
              f"{total:.1f}s total")


def test_criterion_3_small_block_limits():
    grid = ((10 ** 4, "n^0.15", "n^-0.6"), (10 ** 5, "n^0.15", "n^-0.6"),
            (10 ** 6, "n^0.15", "n^-0.6"))
    cfg = ExperimentConfig(model=MMA1, functional="indicator", grid=grid,
                           replicates=200, seed=0,
                           targets=("ic_norm", "bc_norm", "pa1a2_small"))
    table = run_experiment(cfg)
    lt = limit_table(MMA1, IND)
    verdict = summarize(table, expected_targets(lt, cfg.targets), rel_band=0.15)
    detail = "; ".join(
        f"{t}: {row['final_mean']:.4f} vs {row['expected']:.2f} "
        f"(rel {row['rel_error']:.1%}, 3se={row['within_3se']}, "
        f"mono={row['monotone']})" for t, row in verdict.rows.items())
    criterion(3, verdict.passed, detail)


def test_criterion_4_empirical_cluster_measure():
    # r=16 is the pinned configuration for this estimator at n=1e6; the
    # narrower small-block r-rule value r=8 carries an exact (r+1)/(2r)
    # block-edge bias of 12.5% that no sample size removes, so it is
    # reported alongside but not gated at the 10% tolerance.
    results = {}
    for label, r_rule in (("r16", "16"), ("r8", "8")):
        cfg = ExperimentConfig(model=MMA1, functional="indicator",
                               grid=((10 ** 6, r_rule, "n^-0.6"),),
                               replicates=20, seed=4, targets=("ecm",))
        results[label] = run_experiment(cfg).rows[0].mean
    cfg = ExperimentConfig(model=ModelSpec.iid_pareto(1.0),
                           functional="indicator",
                           grid=((10 ** 6, "16", "n^-0.6"),),
                           replicates=20, seed=4, targets=("ecm",))
    iid = run_experiment(cfg).rows[0].mean
    rel = abs(results["r16"] - 0.5) / 0.5
    rel_iid = abs(iid - 1.0)
    ok = rel <= 0.10 and rel_iid <= 0.10
    criterion(4, ok,
              f"ecm(mma1, r=16)={results['r16']:.4f} (rel {rel:.1%}); "
              f"iid control={iid:.4f} (rel {rel_iid:.1%}); "
              f"r=8 regime value {results['r8']:.4f} recorded "
              f"(exact edge bias (r+1)/(2r) exceeds the 10% band)")


LARGE_TARGETS = ("pa1a2_large", "clm_large(1)", "ic_large_norm")


def mma1_large_block_law(r: int, w: float, p: float, m: int | None = None) -> dict:
    """Exact means of the large-block targets for mma1:1,1,1 at finite (r, w, m).

    The exceedance indicator is E_t = B_t v B_{t-1} with B_i iid
    Bernoulli(p), p = 1/u, s = 1 - p, so a block of r positions sees the
    r + 1 innovations a = 0..r; innovation a covers positions
    max(a, 1)..min(a + 1, r).  Sums run over d, the distance between the
    first and the last exceeding innovation of the relevant stretch:

    - pa1a2_large: P(two adjacent blocks active) = 1 - 2 s^(r+1) + s^(2r+1);
    - clm_large(1): E[L 1{active}] = sum_{a<=b} P(a, b) L(a, b) with
      P(a, a) = p s^r, P(a, b) = p^2 s^(r-(b-a)) and
      L(a, b) = min(b+1, r) - max(a, 1) + 1, whose sum over the r + 1 - d
      pairs at distance d is (r + 1 - d)(d + 2) - 2;
    - ic_large_norm: IC_j is L_j - 1 on an isolated block, whose two
      neighbours (2r + 2 innovations, the shared ones included) stay below
      u; the r - 1 inner innovations give E[IC_j] = s^(2r+2)
      sum_{d=0}^{r-2} (r-1-d)(d+1) q_d, q_0 = p s^(r-2), q_d = p^2 s^(r-2-d).

    The normalisations are the harness's, with the nominal w.  Only blocks
    2..m-1 carry internal clusters, hence the factor (m - 2)/m; m = None is
    its m -> infinity limit.
    """
    s = 1.0 - p
    pair = 1.0 - 2.0 * s ** (r + 1) + s ** (2 * r + 1)
    d = np.arange(1, r + 1)
    span = p * s ** r * 2 * r + float(np.sum(
        p * p * s ** (r - d) * ((r + 1 - d) * (d + 2) - 2)))
    d = np.arange(r - 1)
    q = np.where(d == 0, p * s ** (r - 2), p * p * s ** (r - 2 - d))
    ic = s ** (2 * r + 2) * float(np.sum((r - 1 - d) * (d + 1) * q))
    edge = 1.0 if m is None else (m - 2) / m
    return {"pa1a2_large": pair / (r * w) ** 2,
            "clm_large(1)": span / (r ** 3 * w ** 2),
            "ic_large_norm": edge * ic / (r ** 3 * w ** 2)}


def enumerated_large_block_law(r: int, p: float) -> dict:
    """The same means from the library, over every innovation pattern.

    Three blocks see 3r + 1 innovations xi in {0.5, 2} (above u = 1 with
    probability p); X_t = max(xi_t, xi_{t-1}).  Each pattern is weighted by
    p^k s^(3r+1-k) and read through `block_bookkeeping` and the fast
    internal-cluster path, normalised as the harness does.
    """
    s = 1.0 - p
    w = 1.0 - s * s
    k_innov = 3 * r + 1
    cfg = BlockConfig(r=r, u=1.0, w=w)
    pair = span = ic = 0.0
    for mask in range(2 ** k_innov):
        bits = [(mask >> i) & 1 for i in range(k_innov)]
        xi = np.where(bits, 2.0, 0.5)
        book = block_bookkeeping(MagnitudeSeries(values=np.maximum(xi[1:], xi[:-1])), cfg)
        k = sum(bits)
        weight = p ** k * s ** (k_innov - k)
        on = set(book.active.tolist())
        pair += weight * float(2 in on and 3 in on)
        times = [np.flatnonzero(book.block_window(j) > 1.0) if j in on
                 else np.empty(0) for j in range(1, book.m + 1)]   # an empty block may be unstored
        span += weight * float(np.mean([np.ptp(t) + 1 if t.size else 0 for t in times]))
        ic += weight * internal_cluster_stat(book, IND)[1].get(2, 0.0)
    return {"pa1a2_large": pair / (r * w) ** 2,
            "clm_large(1)": span / (r ** 3 * w ** 2),
            "ic_large_norm": ic / (3 * r ** 3 * w ** 2)}


def test_criterion_5_large_block_limits():
    # The limits theta^2, theta^2/6, theta^2/6 hold as r^2 w -> inf with
    # r w -> 0.  The prescribed grid has r^2 w = n^0.1 (3.16 at n = 1e5),
    # where the single-cluster term ~p_y1/(r^2 w) is not yet small, so the
    # Monte Carlo means are checked against the exact law on the grid and
    # the 20% band is applied to that law along the large-block path.
    theta = 0.5                              # (c0 v c1)^a / (c0^a + c1^a)
    expected = expected_targets(limit_table(MMA1, IND), LARGE_TARGETS)
    paper = {"pa1a2_large": theta ** 2, "clm_large(1)": theta ** 2 / 6,
             "ic_large_norm": theta ** 2 / 6}
    failures = []
    if expected != pytest.approx(paper, rel=1e-12):
        failures.append(f"library constants {expected} differ from {paper}")

    # the law itself, against the library on every pattern at r = 4
    p = 0.3
    enum = enumerated_large_block_law(4, p)
    law = mma1_large_block_law(4, 1.0 - (1.0 - p) ** 2, p, m=3)
    enum_dev = max(abs(enum[t] / law[t] - 1.0) for t in LARGE_TARGETS)
    if enum_dev > 1e-12:
        failures.append(f"exact law vs r=4 enumeration: rel {enum_dev:.1e}")

    # estimators on the prescribed grid, against the exact finite-(n, r, w) law
    grids = {10 ** 4: 4000, 10 ** 5: 1000}   # >= 1e6 blocks per point
    grid_parts = []
    for n, reps in grids.items():
        cfg = ExperimentConfig(model=MMA1, functional="indicator",
                               grid=((n, "n^0.4", "n^-0.7"),),
                               replicates=reps, seed=1, targets=LARGE_TARGETS)
        table = run_experiment(cfg)
        r, w = table.rows[0].r, table.rows[0].w
        exact = mma1_large_block_law(r, w, 1.0 / threshold_for_w(MMA1, w),
                                     m=n // r)
        parts = []
        for row in table.rows:
            if abs(row.mean - exact[row.target]) > 4 * row.se + 1e-12:
                failures.append(f"{row.target} at n={n} off its exact law")
            parts.append(f"{row.target} {row.mean:.4f}+-{row.se:.4f} "
                         f"vs {exact[row.target]:.4f}")
        grid_parts.append(f"n={n:g} (r={r}, r^2*w={r * r * w:.2f}): "
                          + ", ".join(parts))

    # limit constants, along r = 10^j, w = 10^(-1.5 j), m -> inf
    path = [(10 ** j, 10.0 ** (-1.5 * j)) for j in range(2, 7)]
    rel = {t: [] for t in LARGE_TARGETS}
    for r, w in path:
        exact = mma1_large_block_law(r, w, 1.0 / threshold_for_w(MMA1, w))
        for t in LARGE_TARGETS:
            rel[t].append(exact[t] / expected[t] - 1.0)
    (r0, w0), (r, w) = path[0], path[-1]
    if not (r * r * w >= 1e3 and r * w <= 1e-3):
        failures.append("the path stops short of r^2*w >= 1e3, r*w <= 1e-3")
    limit_parts = []
    for t in LARGE_TARGETS:
        errs = [abs(e) for e in rel[t]]
        if any(b >= a for a, b in zip(errs, errs[1:])):
            failures.append(f"{t}: exact law not monotone toward its limit")
        if errs[-1] > 0.20:
            failures.append(f"{t}: exact law {rel[t][-1]:+.1%} off its limit")
        limit_parts.append(f"{t} {exact[t]:.4f} vs {expected[t]:.4f} "
                           f"({rel[t][-1]:+.1%}; {rel[t][0]:+.0%} at r^2*w={r0 * r0 * w0:.0f})")
    detail = ("; ".join(grid_parts)
              + f"; limit path to r={r:g}, w={w:g} (r^2*w={r * r * w:.0f}, "
                f"r*w={r * w:g}): " + ", ".join(limit_parts)
              + f"; exact law = r=4 enumeration to rel {enum_dev:.0e}"
              + (f"; failures: {failures}" if failures else ""))
    criterion(5, not failures, detail)


def test_criterion_6_z_process_oracles():
    details = []
    ok = True
    for c0, c1, alpha, rate, theta, se in z_acceptance_runs(10 ** 5, seed=7):
        ok = ok and abs(rate - theta) <= 3 * se
        details.append(f"accept({c0:g},{c1:g},{alpha:g})={rate:.4f}~{theta:.4f}")
    est_ic, se_ic = cluster_index_mc(induced_functional(IND, "ic"), MMA1,
                                     samples=10 ** 5, seed=13)
    est_bc, se_bc = cluster_index_mc(induced_functional(IND, "bc"), MMA1,
                                     samples=10 ** 5, seed=14)
    comb = math.hypot(se_ic, se_bc)
    zero_ok = abs(est_ic + est_bc) <= max(3 * comb, 1e-12)
    ok = ok and zero_ok
    details.append(f"nu_ic+nu_bc={est_ic + est_bc:.5f} (3se={3 * comb:.5f})")
    criterion(6, ok, "; ".join(details))


def test_criterion_7_piecewise_stationarity():
    grid = ((10 ** 4, "n^0.15", "n^-0.6"), (10 ** 5, "n^0.15", "n^-0.6"),
            (10 ** 6, "n^0.15", "n^-0.6"))
    cfg = ExperimentConfig(model=ModelSpec.piecewise(MMA1),
                           functional="indicator", grid=grid, replicates=200,
                           seed=6, targets=("ic_norm", "bc_norm"))
    table = run_experiment(cfg)
    ic_rows = table.series("ic_norm")
    final = ic_rows[-1].mean
    rel = abs(final - 0.5) / 0.5
    diffs = [abs(r.mean - 0.5) for r in ic_rows]
    monotone = all(b <= a + 1e-12 for a, b in zip(diffs, diffs[1:]))
    ratios = [abs(r.mean) / (r.r * r.w) for r in table.series("bc_norm")]
    bound_ok = max(ratios) <= 2.0
    ok = rel <= 0.15 and monotone and bound_ok
    criterion(7, ok,
              f"piecewise ic_norm final {final:.4f} (rel {rel:.1%}, "
              f"monotone={monotone}); |bc_norm|/(r*w) across grid "
              f"{[f'{x:.2f}' for x in ratios]} bounded by 2")


def test_criterion_8_property_suites(tmp_path):
    failures = []

    # functional contract probes: built-ins pass, violators are rejected
    for name in ("indicator", "length", "count", "length^1.5"):
        validate_functional(get_functional(name))
    from clusterblocks import FunctionalContractError, register_functional
    try:
        register_functional("acc_bad", lambda w: 1.0, gamma=0.0,
                            growth_constant=1.0)
        failures.append("contract violator accepted")
    except FunctionalContractError:
        pass

    # scale equivariance under power-of-two rescaling, bit for bit
    spec = MMA1
    w = 0.01
    u = threshold_for_w(spec, w)
    s = gen_series(spec, 4000, seed=3)
    base = expansion_report(s, BlockConfig(r=10, u=u, w=w), IND)
    for c in (2.0 ** -6, 2.0 ** 9):
        scaled = MagnitudeSeries(values=s.values * c)
        rep = expansion_report(scaled, BlockConfig(r=10, u=u * c, w=w), IND)
        if (rep.sb, rep.db, rep.ic, rep.bc) != (base.sb, base.db, base.ic, base.bc):
            failures.append(f"scale equivariance broken at c={c}")

    # determinism under varying thread counts
    def run(threads):
        cfg = ExperimentConfig(model=MMA1, functional="indicator",
                               grid=((4000, "n^0.2", "n^-0.55"),),
                               replicates=8, seed=9, threads=threads,
                               targets=("ic_norm", "bc_norm", "ecm"))
        return run_experiment(cfg)

    t1, t2 = run(1), run(3)
    if any(a.__dict__ != b.__dict__ for a, b in zip(t1.rows, t2.rows)):
        failures.append("thread count changed results")
    if csv_text(t1) != csv_text(t2):
        failures.append("csv bytes differ across thread counts")

    # serialization round-trips
    series = gen_series(spec, 321, seed=12)
    for fmt in ("bin", "txt"):
        path = tmp_path / f"series.{fmt}"
        write_series(path, series, fmt)
        if not np.array_equal(read_series(path).values, series.values):
            failures.append(f"series {fmt} round-trip")
    for fmt in ("csv", "json"):
        path = tmp_path / f"table.{fmt}"
        persist(t1, path, fmt)
        back = load(path)
        if any(a.__dict__ != b.__dict__ for a, b in zip(t1.rows, back.rows)):
            failures.append(f"table {fmt} round-trip")

    criterion(8, not failures, f"failures: {failures or 'none'}")
