"""The benchmark's tracer against the package as it stands.

The tracer wraps package functions from outside and reads their
arguments and results (the bookkeeping counter reads `pos`, `m` and
`active`), so a change to those shapes shows here as a counter error or
a missing target rather than as a silently zero metric.
"""

import pathlib
import sys

import clusterblocks.cli as cli
from clusterblocks import gen_series, parse_model, threshold_for_w, write_series

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "bench"))

import tracer as tr  # noqa: E402


def test_traced_calls_count_without_errors(tmp_path, capsys):
    spec = parse_model("mma1:1,1,1")
    path = tmp_path / "series.bin"
    write_series(path, gen_series(spec, 4000, 7), "bin")
    w = 0.01
    calls = [["decompose", "--series", str(path), "--r", "8", "--u",
              repr(threshold_for_w(spec, w)), "--w", repr(w)],
             ["rates", "--model", "mma1:1,1,1", "--grid", "2000:n^0.2:n^-0.55",
              "--replicates", "3", "--targets", "ic_norm,bc_norm,clm_large(1)",
              "--threads", "1", "--seed", "2"]]
    tracer = tr.Tracer()
    with tr.traced(tracer):
        codes = [cli.main(argv) for argv in calls]     # the wrapped main
    capsys.readouterr()
    assert codes[0] == 0 and codes[1] in (0, 1)
    assert tr.missing() == []
    assert tracer.counts["bench.count_errors"] == 0
    assert tracer.counts["expansion.active_blocks"] > 0
    assert tracer.counts["expansion.exceedances"] >= tracer.counts["expansion.active_blocks"]
    summary = tracer.summary()
    assert summary["expansion.block_bookkeeping"]["calls"] == 1
    assert summary["harness.run_experiment"]["calls"] == 1
    assert summary["cli.main"]["calls"] == 2
