"""One fresh interpreter running one workload; started by run.py.

    python3 bench/child.py --root DIR --setup-only
    python3 bench/child.py --root DIR --workload W --seed N --seconds S \
                           --trace 0|1 --result FILE

It imports clusterblocks from DIR/src, registers `bench_logmax`, prints
"ready" and then, unless --setup-only, runs passes of the workload's CLI
calls in-process (no interpreter start-up inside the timed path), checks
every output and writes its measurements to FILE as JSON.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import logging
import pathlib
import resource
import sys
import time
import traceback

import stats
import workloads

DIGESTS = pathlib.Path(__file__).with_name("digests.json")


def _import_cli(root: pathlib.Path):
    src = (root / "src").resolve()
    sys.path.insert(0, str(src))
    import clusterblocks.cli

    if pathlib.Path(clusterblocks.cli.__file__).resolve().parents[1] != src:
        raise SystemExit(f"clusterblocks was not imported from {src}")
    return clusterblocks.cli


class _WarningLog(logging.Handler):
    def __init__(self):
        super().__init__(logging.WARNING)
        self.messages = []

    def emit(self, record):
        self.messages.append(record.getMessage())


def run_pass(cli, calls, warnings: _WarningLog) -> dict:
    """Run each call once; time it, capture its stdout and check it."""
    times, codes, outs, problems = [], [], [], []
    failed = 0
    for call in calls:
        out, err = io.StringIO(), io.StringIO()
        seen = len(warnings.messages)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = time.perf_counter()
            try:
                code = cli.main(list(call.argv))
            except Exception:
                # An escaped exception is a failed call, not a benchmark crash.
                code = None
                traceback.print_exc()
            times.append(time.perf_counter() - t0)
        found = call.check(code, out.getvalue())
        found += [f"log: {m}" for m in warnings.messages[seen:]
                  if "remainder enumeration mismatch" in m]
        if found and err.getvalue():
            found.append(f"stderr: {err.getvalue().strip()[-300:]}")
        codes.append(code)
        outs.append(out.getvalue())
        problems += [f"{call.argv[0]}: {p}" for p in found]
        failed += 1 if found else 0
    return {"times": times, "codes": codes, "problems": problems, "failed": failed,
            "digest": hashlib.sha256("".join(outs).encode()).hexdigest(),
            "outs": outs}


def _peak_rss_mb(pool_workers: int) -> float:
    """Own peak RSS plus, for a pool, workers x the largest worker's peak.

    ru_maxrss of RUSAGE_CHILDREN is that of the largest finished child, so
    the pool term is an upper bound (forked workers share pages).
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + pool_workers * kids) / 1024.0


def _digest_problems(workload: str, seed: int, digest: str) -> list:
    if seed != workloads.DEFAULT_SEED:
        return []
    recorded = json.loads(DIGESTS.read_text()).get(workload)
    if digest != recorded:
        return [f"stdout sha256 {digest} differs from the recorded {recorded}"]
    return []


def timed_run(cli, workload: str, seed: int, seconds: float, warnings) -> dict:
    """A warm-up pass, then passes until the next one, if as slow as the
    slowest so far, would end after `seconds` (counted from the warm-up's
    start); at least two in all.

    The warm-up is checked but not timed: the first pass in a fresh
    interpreter is consistently slower (by 20-40 % on decompose_large),
    and the timings describe the steady state.
    """
    plan = workloads.calls(workload, seed)
    start = time.perf_counter()
    passes = [run_pass(cli, plan, warnings)]
    while True:
        passes.append(run_pass(cli, plan, warnings))
        slowest = max(sum(p["times"]) for p in passes)
        if time.perf_counter() - start + slowest > seconds:
            break
    timed = passes[1:]

    attempted = len(plan) * len(passes)
    failed = sum(p["failed"] for p in passes)
    problems = [q for p in passes for q in p["problems"]]
    digests = {p["digest"] for p in passes}
    if len(digests) > 1:
        problems.append("stdout differs between passes of identical calls")
        failed += len(passes) - 1
    extra = _digest_problems(workload, seed, passes[0]["digest"])
    problems += extra
    failed = min(attempted, failed + (len(plan) if extra else 0))

    samples = {"wall_s": [sum(p["times"]) for p in timed]}
    for i, call in enumerate(plan):
        samples.setdefault(call.timing, []).extend(p["times"][i] for p in timed)
    detail = {name: stats.timing(values, "s") for name, values in samples.items()}
    if workload == "rates_smallblock":
        n = workloads.RATES_REPLICATES * 3
        detail["replicates_per_s"] = stats.timing([n / t for t in samples["rates_s"]], "1/s")
    if workload == "limits_zmc":
        n = 3 * workloads.Z_SAMPLES
        detail["z_samples_per_s"] = stats.timing([n / t for t in samples["limits_s"]], "1/s")
    pool = workloads.RATES_THREADS if workload == "rates_smallblock" else 0
    peak = _peak_rss_mb(pool)
    detail["peak_rss_mb"] = {"value": peak, "unit": "MB"}
    detail["failed_ratio"] = {"value": failed / attempted, "unit": "ratio"}
    notes = []
    if workload == "rates_smallblock":
        notes.append(f"rates exit code {passes[0]['codes'][0]} (1: a target missed its "
                     "verdict band; recorded, not a failure)")
    return {"attempted": attempted, "failed": failed, "problems": problems,
            "metrics": {"wall_s": detail["wall_s"]["value"], "peak_rss_mb": peak},
            "detail": detail, "notes": notes, "digest": passes[0]["digest"]}


def traced_run(cli, workload: str, seed: int, warnings, spans_path) -> dict:
    """A warm-up pass, an untraced base pass and a traced pass.

    Spans inside pool workers are out of reach of wrappers installed in
    this process, so the base and traced passes run `rates` at 1 worker;
    the warm-up runs it at the timed run's 2 workers, and all three must
    print the same bytes.  Tracing overhead is traced minus base wall.
    """
    import tracer as tr

    plan = workloads.calls(workload, seed)
    single = workloads.calls(workload, seed, threads=1)
    untimed = run_pass(cli, plan, warnings)
    base = run_pass(cli, single, warnings)
    before = tr.bound_objects()
    tracer = tr.Tracer()
    with tr.traced(tracer):
        traced = run_pass(cli, single, warnings)
    after = tr.bound_objects()
    tracer.save(spans_path)
    passes = [untimed, base, traced]

    problems = [q for p in passes for q in p["problems"]]
    failed = sum(p["failed"] for p in passes)
    for other in passes[1:]:
        for i, call in enumerate(single):
            if other["outs"][i] != untimed["outs"][i]:
                problems.append(f"{' '.join(call.argv)}: stdout differs from the "
                                "first pass (untraced, timed-run worker count)")
                failed += 1
    leaked = [f"{ns}.{name}" for (ns, name), obj in before.items() if after.get((ns, name)) is not obj]
    if leaked:
        problems.append(f"wrappers left bound after tracing: {leaked}")
        failed += 1
    extra = _digest_problems(workload, seed, untimed["digest"])
    problems += extra
    attempted = len(plan) * len(passes)
    failed = min(attempted, failed + (len(plan) if extra else 0))

    walls = (sum(base["times"]), sum(traced["times"]))
    metrics = stats.layer_metrics(tracer.summary(), tracer.counts, len(tracer.start), walls)
    notes = [f"not in the package, reads 0: {name}" for name in tr.missing()]
    if tracer.counts["bench.count_errors"]:
        notes.append(f"{tracer.counts['bench.count_errors']} counter updates failed; "
                     "a target's signature changed")
    if [c.argv for c in single] != [c.argv for c in plan]:
        metrics["harness.parallel_efficiency"] = sum(base["times"]) / (
            workloads.RATES_THREADS * sum(untimed["times"]))
        notes.append(f"{workload} is traced at 1 worker, because spans inside pool workers "
                     "are out of reach; parallel_efficiency = untraced 1-worker time / "
                     f"({workloads.RATES_THREADS} x untraced {workloads.RATES_THREADS}-worker time)")
    return {"attempted": attempted, "failed": failed, "problems": problems,
            "metrics": metrics, "notes": notes, "digest": untimed["digest"]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--root", required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--workload", choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1))
    ap.add_argument("--result")
    args = ap.parse_args(argv)

    cli = _import_cli(pathlib.Path(args.root))
    workloads.register_logmax()
    print("ready", flush=True)
    if args.setup_only:
        return 0

    warnings = _WarningLog()
    logging.getLogger("clusterblocks").addHandler(warnings)
    result_path = pathlib.Path(args.result)
    if args.trace:
        spans = result_path.with_name(f"spans_{args.workload}.npz")
        result = traced_run(cli, args.workload, args.seed, warnings, spans)
    else:
        result = timed_run(cli, args.workload, args.seed, args.seconds, warnings)
    result_path.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
