"""clusterblocks benchmark: one workload per call, JSON result on the last line.

    python3 bench/run.py --workload decompose_large --seed 0 --seconds 30 --trace 0

Run from the root of a source checkout; clusterblocks is imported from
./src.  With --trace 0 the run measures set-up (nine fresh interpreters:
eight that only set up, then the one that runs the workload) and repeats
the workload's CLI calls for --seconds; with --trace 1 it runs a warm-up,
an untraced and a traced pass (--seconds does not apply) and reports
per-layer metrics instead.
Human-readable detail goes to stderr.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import statistics
import subprocess
import sys
import time

BENCH = pathlib.Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
SETUP_PROBES = 8
CHILD_TIMEOUT_S = 170.0

sys.path.insert(0, str(BENCH))
import stats  # noqa: E402
import workloads  # noqa: E402


def _child_env() -> dict:
    env = dict(os.environ)
    # Worker count comes from --threads only; temp files stay in the checkout.
    env.pop("CLBLK_THREADS", None)
    env["TMPDIR"] = str(OUT / "tmp")
    env["PYTHONPATH"] = str(BENCH)
    return env


def _spawn(extra: list, deadline: float):
    """Start a child; return it with the seconds until it printed "ready"."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(BENCH / "child.py"), "--root", str(ROOT)]
                            + extra, stdout=subprocess.PIPE, env=_child_env(),
                            cwd=ROOT, text=True)
    line = proc.stdout.readline()
    ready = time.perf_counter() - t0
    if line.strip() != "ready":
        _finish(proc, deadline)
        raise RuntimeError(f"child did not start (exit code {proc.returncode})")
    return proc, ready


def _finish(proc, deadline: float) -> None:
    try:
        proc.communicate(timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError("child exceeded the time limit") from None
    if proc.returncode != 0:
        raise RuntimeError(f"child exited with code {proc.returncode}")


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    if not (ROOT / "src" / "clusterblocks" / "__init__.py").is_file():
        raise RuntimeError(f"no clusterblocks sources under {ROOT / 'src'}")
    (OUT / "tmp").mkdir(parents=True, exist_ok=True)
    deadline = time.perf_counter() + CHILD_TIMEOUT_S
    setups = []
    if not trace:
        for _ in range(SETUP_PROBES):
            proc, ready = _spawn(["--setup-only"], deadline)
            _finish(proc, deadline)
            setups.append(ready)
    result_file = OUT / f"result_{workload}.json"
    result_file.unlink(missing_ok=True)
    proc, ready = _spawn(["--workload", workload, "--seed", str(seed), "--seconds",
                          str(seconds), "--trace", str(trace), "--result", str(result_file)],
                         deadline)
    _finish(proc, deadline)
    result = json.loads(result_file.read_text())
    if not trace:
        setups.append(ready)
        result["metrics"]["setup_s"] = statistics.median(setups)
        result["detail"]["setup_s"] = {"value": statistics.median(setups), "unit": "s",
                                       "samples": len(setups)}
    return result


def _report(workload: str, seed: int, trace: int, result: dict) -> None:
    err = sys.stderr
    print(f"# workload {workload}, seed {seed}, trace {trace}: "
          f"{result['attempted']} calls attempted, {result['failed']} failed", file=err)
    if trace:
        for name, value in result["metrics"].items():
            print(f"  {name:52s} {value:.6g}", file=err)
    else:
        for name, d in sorted(result["detail"].items()):
            extra = "".join(f" {k}={d[k]:.6g}" for k in ("p99", "p90") if k in d)
            count = f" (n={d['samples']})" if "samples" in d else ""
            print(f"  {name:26s} {d['value']:.6g} {d['unit']}{count}{extra}", file=err)
    print(f"  stdout sha256 {result['digest']}", file=err)
    for line in result["notes"] + result["problems"][:20]:
        print(f"  note: {line}", file=err)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be >= 1")
    try:
        result = run(args.workload, args.seed, args.seconds, args.trace)
    except (RuntimeError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    _report(args.workload, args.seed, args.trace, result)
    units = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}
    units.update({name: unit for name, unit, _ in stats.PER_LAYER})
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
