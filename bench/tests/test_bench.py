"""Tests of the benchmark's own machinery.

    python3 -m pytest bench/tests -q
"""

import json
import pathlib

import numpy as np
import pytest

import stats
import tracer as tr
import workloads

ROOT = pathlib.Path(__file__).resolve().parents[2]


def test_self_time_on_synthetic_span_tree():
    # 0: root [0, 100]
    #   1: [10, 30]  2: [20, 50] (overlaps 1)  3: [60, 70]
    #     4: [62, 65] under 3
    # 5: second root [200, 210] with child 6: [200, 210]
    start = np.array([0, 10, 20, 60, 62, 200, 200])
    end = np.array([100, 30, 50, 70, 65, 210, 210])
    parent = np.array([-1, 0, 0, 0, 3, -1, 5])
    own = tr.self_times(start, end, parent)
    assert own.tolist() == [100 - 40 - 10, 20, 30, 7, 3, 0, 10]


def test_tracer_nests_spans_and_summarises_self_time():
    tracer = tr.Tracer()
    outer = tracer.open("a")
    inner = tracer.open("b")
    tracer.close(inner)
    tracer.close(outer)
    _, start, end, parent = tracer.arrays()
    assert parent.tolist() == [-1, 0]
    summary = tracer.summary()
    assert summary["a"]["calls"] == summary["b"]["calls"] == 1
    total = (end[0] - start[0]) / 1e9
    assert summary["a"]["self_s"] + summary["b"]["self_s"] == pytest.approx(total)


def _tiny_calls():
    return [["decompose", "--model", "mma1:1,1,1", "--n", "600", "--seed", "3",
             "--r", "6", "--w", "0.05", "--functional", "bench_logmax"],
            ["rates", "--model", "mma1:1,1,1", "--grid", "1e3:n^0.15:n^-0.6",
             "--replicates", "4", "--targets", "ic_norm,bc_norm", "--threads", "1",
             "--seed", "1"]]


def test_wrappers_are_removed_after_a_traced_run(capsys):
    import clusterblocks.cli as cli

    workloads.register_logmax()
    before = tr.bound_objects()
    tracer = tr.Tracer()
    with tr.traced(tracer):
        during = tr.bound_objects()
        for argv in _tiny_calls():
            assert cli.main(argv) in (0, 1)
    after = tr.bound_objects()
    assert before.keys() == after.keys()
    assert all(after[k] is before[k] for k in before)
    assert all(during[k] is not before[k] for k in before)
    # the package root and every importing module were rebound, not only
    # the defining module
    assert ("clusterblocks", "expansion_report") in before
    assert ("clusterblocks.cli", "expansion_report") in before
    summary = tracer.summary()
    assert summary["cli.main"]["calls"] == 2
    assert summary["expansion.expansion_report"]["calls"] == 1
    assert tracer.counts["blocks.generic_windows"] > 0
    capsys.readouterr()


def test_wrappers_are_removed_when_the_traced_call_raises():
    import clusterblocks.cli  # noqa: F401

    before = tr.bound_objects()
    with pytest.raises(RuntimeError):
        with tr.traced(tr.Tracer()):
            raise RuntimeError("boom")
    after = tr.bound_objects()
    assert all(after[k] is before[k] for k in before)


def test_benchmark_json_lists_the_metrics_the_runs_print():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(stats.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"] for m in spec["end_to_end"]} == {"setup_s", "wall_s", "peak_rss_mb"}


def test_layer_metrics_cover_every_per_layer_name():
    metrics = stats.layer_metrics({}, {}, 0, (1.0, 1.5))
    assert list(metrics) == [name for name, _, _ in stats.PER_LAYER]
    assert metrics["bench.trace_overhead_s"] == 0.5


def test_percentile_needs_ten_samples_beyond_it():
    assert stats.percentile(range(999), 0.99) is None
    assert stats.percentile(range(1000), 0.99) == 989
    assert "p90" not in stats.timing([1.0] * 99, "s")
    assert stats.timing([1.0] * 100, "s")["p90"] == 1.0


def _decompose_report(**changes):
    call = workloads.calls("decompose_large", 0)[0]
    r, w = int(call.argv[call.argv.index("--r") + 1]), float(call.argv[call.argv.index("--w") + 1])
    rep = {"n": 10 ** 6, "r": r, "w": w, "functional": "indicator", "sb": 10.0, "db": 4.0,
           "ic": 5.0, "bc": 1.0, "residual_identity": 0.0, "residual_paper": 0.0,
           "ic_path_deviation": 0.0, "bc_path_deviation": 0.0}
    rep.update(changes)
    return call, json.dumps(rep)


def test_decompose_check_rejects_a_nonzero_residual():
    call, good = _decompose_report()
    assert call.check(0, good) == []
    call, bad = _decompose_report(residual_paper=1e-12)
    assert call.check(0, bad)
    assert call.check(1, good)


def test_rates_check_needs_every_row():
    call = workloads.calls("rates_smallblock", 0)[0]
    rows = []
    for n in (10 ** 4, 10 ** 5, 10 ** 6):
        r, w = workloads._rule_point(n)
        for t in workloads.RATES_TARGETS:
            rows.append(f"mma1,1.0,1.0,1.0,{n},{r},{w!r},200,{t},0.5,0.1,0.01")
    text = workloads.CSV_HEADER + "\n" + "\n".join(rows) + "\n"
    assert call.check(0, text) == []
    assert call.check(1, text) == []
    assert call.check(0, text.replace("0.5,0.1", "nan,0.1", 1))
    assert call.check(0, "\n".join(text.splitlines()[:-1]))


def test_verify_check_needs_every_check_ok():
    call = workloads.calls("verify_quick", 0)[0]
    text = "".join(f"ok   {name}: fine\n" for name in workloads.VERIFY_CHECKS)
    assert call.check(0, text) == []
    assert call.check(1, text.replace("ok   table", "FAIL table"))


def test_inputs_follow_the_seed():
    a, b = workloads.calls("decompose_large", 1), workloads.calls("decompose_large", 2)
    assert [c.argv for c in a] == [c.argv for c in workloads.calls("decompose_large", 1)]
    assert [c.argv for c in a] != [c.argv for c in b]


def test_a_target_the_package_lacks_is_skipped(monkeypatch):
    import clusterblocks.expansion as expansion

    monkeypatch.delattr(expansion, "remainder_stat")
    assert tr.missing() == ["expansion.remainder_stat"]
    before = tr.bound_objects()
    with tr.traced(tr.Tracer()):
        pass
    assert all(tr.bound_objects()[k] is before[k] for k in before)
