import contextlib
import dataclasses
import functools
import hashlib
import io
import json
import logging
import os
import re
import subprocess
import sys
import warnings
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clusterblocks import limits, read_series, verify
from clusterblocks.cli import _build_parser, main
from helpers import in_process_pool


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_limits_command(capsys):
    code, out, err = run(capsys, "limits", "--c0", "1", "--c1", "1",
                         "--alpha", "1", "--gamma", "1")
    assert code == 0
    lines = dict()
    for ln in out.splitlines():
        key, value = ln.split()
        lines[key] = float(value)
    assert lines["theta"] == 0.5
    assert lines["ic_large_constant"] == pytest.approx(1 / 24)
    assert lines["joint_length_moment"] == pytest.approx(7 / 24)


def test_limits_json_and_csv(capsys, tmp_path):
    code, out, _ = run(capsys, "limits", "--c0", "1", "--c1", "2", "--alpha",
                       "1", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["theta"] == pytest.approx(2 / 3)
    path = tmp_path / "limits.csv"
    code, _, _ = run(capsys, "limits", "--c0", "1", "--c1", "2", "--alpha", "1",
                     "--format", "csv", "--out", str(path))
    assert code == 0
    assert path.read_text().startswith("constant,value")


def test_limits_with_p_exponent(capsys):
    code, out, _ = run(capsys, "limits", "--c0", "1", "--c1", "1", "--alpha",
                       "1", "--p", "1", "--samples", "2000")
    assert code == 0
    rows = dict(ln.split() for ln in out.splitlines())
    # |.|^1 boundary index of the indicator is theta E[L(Z)-1] = 1/2 here
    assert float(rows["nu_bc_p(1)"]) == pytest.approx(0.5, abs=0.05)


def test_simulate_and_decompose_roundtrip(capsys, tmp_path):
    series_path = tmp_path / "series.bin"
    code, _, err = run(capsys, "simulate", "--model", "mma1:1,1,1", "--n",
                       "600", "--seed", "3", "--out", str(series_path))
    assert code == 0
    s = read_series(series_path)
    assert len(s) == 600

    code, out, _ = run(capsys, "decompose", "--series", str(series_path),
                       "--r", "10", "--u", "20", "--functional", "indicator")
    assert code == 0
    rep = json.loads(out)
    assert rep["residual_identity"] == 0.0
    assert rep["residual_paper"] == 0.0
    assert rep["w_source"] == "empirical"


def test_decompose_spec_example(capsys):
    code, out, _ = run(capsys, "decompose", "--model", "mma1:1,1,1", "--n", "6",
                       "--seed", "7", "--r", "2", "--w", "0.1",
                       "--functional", "indicator")
    assert code == 0
    rep = json.loads(out)
    assert rep["residual_identity"] == 0.0
    assert rep["w_source"] == "exact"
    assert rep["m"] == 3


def test_decompose_needs_threshold(capsys):
    code, _, err = run(capsys, "decompose", "--model", "mma1:1,1,1", "--n",
                       "100", "--r", "5")
    assert code == 2
    assert err.startswith("error:usage:")


def test_unknown_flag_is_hard_error(capsys):
    code, _, err = run(capsys, "limits", "--c0", "1", "--c1", "1", "--alpha",
                       "1", "--bogus", "2")
    assert code == 2
    assert err.startswith("error:usage:")


def test_model_parse_error_category(capsys):
    code, _, err = run(capsys, "simulate", "--model", "arch:1", "--n", "10",
                       "--out", "/tmp/x.bin")
    assert code == 1
    assert err.startswith("error:model:")


def test_rates_command_files_and_determinism(capsys, tmp_path):
    args = ["rates", "--model", "mma1:1,1,1", "--functional", "indicator",
            "--grid", "2000:n^0.2:n^-0.55;4000:n^0.2:n^-0.55",
            "--replicates", "5", "--seed", "11",
            "--targets", "ic_norm,pa1a2_small",
            "--band", "0.9"]
    out1 = tmp_path / "run1"
    code, _, err = run(capsys, *args, "--out", str(out1))
    assert code in (0, 1)
    csv1 = (tmp_path / "run1.csv").read_bytes()
    assert csv1.startswith(b"model,alpha,c0,c1,n,r,w,replicates,target,mean,sd,se")
    verdict = json.loads((tmp_path / "run1_verdict.json").read_text())
    assert "ic_norm" in verdict["rows"]
    out2 = tmp_path / "run2"
    code2, _, _ = run(capsys, *args, "--out", str(out2))
    assert (tmp_path / "run2.csv").read_bytes() == csv1
    assert code2 == code


def test_rates_config_file_with_flag_override(capsys, tmp_path):
    conf = tmp_path / "exp.conf"
    conf.write_text(
        "# experiment configuration\n"
        "model = mma1:1,1,1\n"
        "grid = 2000:n^0.2:n^-0.55\n"
        "replicates = 4\n"
        "targets = ic_norm\n"
        "seed = 11\n"
        "band = 0.9\n")
    code, out, _ = run(capsys, "rates", "--config", str(conf), "--format",
                       "json")
    assert code in (0, 1)
    v1 = json.loads(out)
    # flag overrides config seed
    code, out, _ = run(capsys, "rates", "--config", str(conf), "--seed", "12",
                       "--format", "json")
    v2 = json.loads(out)
    assert v1["rows"]["ic_norm"]["final_mean"] != v2["rows"]["ic_norm"]["final_mean"]


# sha256 of `verify --quick --seed s` stdout
GOLDEN_VERIFY = {
    0: "e5aca88e27187157f516b3d752bb28b20bf6fa6902d0507ec7ac18d1f6ed6d3f",
    1: "2b61c9c32570c21a8994b6a44be6b0eecc7de88560b81b3cd4a5e52ddffe6ada",
}


@functools.cache
def verify_quick(seed, cpus):
    """Exit code and stdout of `verify --quick --seed seed` at `cpus` CPUs.

    Cached, so the tests that read the same run share one call.
    """
    out = io.StringIO()
    with pytest.MonkeyPatch.context() as mp, contextlib.redirect_stdout(out):
        mp.setattr(os, "cpu_count", lambda: cpus)
        code = main(["verify", "--quick", "--seed", str(seed)])
    return code, out.getvalue()


def test_verify_quick():
    code, out = verify_quick(0, 1)
    assert code == 0
    assert "decomposition identities" in out
    assert "FAIL" not in out


@pytest.mark.parametrize("seed", sorted(GOLDEN_VERIFY))
def test_verify_quick_stdout_is_pinned(seed):
    # the exhaustive masks run in-process at 1 CPU and on a pool at 3
    for cpus in (1, 3):
        code, out = verify_quick(seed, cpus)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_VERIFY[seed]


def test_verify_seeds_below_the_offsets_are_masked_to_64_bits():
    # `verify --seed s` seeds its checks with s plus an offset (20240 for
    # the identities, 11 for the thresholds); below -offset that is negative
    from clusterblocks.verify import _identity_instances, check_threshold_roundtrip

    for seed in (-1, -20241):
        assert list(_identity_instances(3, seed)) == list(_identity_instances(3, 2 ** 64 + seed))
        assert check_threshold_roundtrip(seed) == check_threshold_roundtrip(2 ** 64 + seed)
    assert check_threshold_roundtrip(-1).passed


# The failing-mask tests run the ranges on an in-process stand-in for the
# pool, so the patched decompose reaches every range under any start
# method; GOLDEN_VERIFY at 3 CPUs checks the real pool.


def test_exhaustive_mask_check_counts_a_disagreeing_mask(monkeypatch):
    decompose = verify.decompose

    def perturbed(book, h):
        rep = decompose(book, h)
        if book.pos.tolist() == [1]:            # mask 1 only
            rep = dataclasses.replace(rep, bc_path_deviation=1.0)
        return rep

    in_process_pool(monkeypatch)
    monkeypatch.setattr(verify, "decompose", perturbed)
    res = verify.check_exhaustive_masks(r=2, blocks=3)
    assert not res.passed
    assert res.detail == "63 masks x 3 functionals, 3 failures"


def test_exhaustive_mask_check_sums_the_failures_of_every_range(monkeypatch):
    decompose = verify.decompose

    def perturbed(book, h):
        rep = decompose(book, h)
        if book.pos.tolist() == [1, 2, 3, 4, 5, 6]:   # the last mask, all bits set
            rep = dataclasses.replace(rep, ic_path_deviation=1.0)
        return rep

    sizes = in_process_pool(monkeypatch)
    monkeypatch.setattr(verify, "decompose", perturbed)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)     # 12 ranges on 3 workers
    res = verify.check_exhaustive_masks(r=2, blocks=3)
    assert sizes == [3]
    assert not res.passed
    assert res.detail == "63 masks x 3 functionals, 3 failures"


@pytest.mark.parametrize("r,blocks", [(2, 3), (3, 4)])
def test_mask_bookkeepings_equal_the_scanned_series(r, blocks):
    # built from the mask's bits, each bookkeeping equals the one scanned
    # from its series of 2s and 0.5s, field by field and byte for byte
    import numpy as np

    from clusterblocks import BlockConfig, MagnitudeSeries, block_bookkeeping

    bits = np.arange(r * blocks)
    cfg = BlockConfig(r=r, u=1.0, w=0.5)
    count = 0
    for mask, book in verify.mask_bookkeepings(r, blocks):
        values = np.where((mask >> bits) & 1, 2.0, 0.5)
        want = block_bookkeeping(MagnitudeSeries(values=values), cfg)
        for f in dataclasses.fields(want):
            got, ref = getattr(book, f.name), getattr(want, f.name)
            assert type(got) is type(ref), (mask, f.name)
            if isinstance(ref, np.ndarray):
                assert got.dtype == ref.dtype and got.tobytes() == ref.tobytes(), (mask, f.name)
            else:
                assert got == ref, (mask, f.name)
        count += 1
    assert count == 2 ** (r * blocks) - 1


def test_verify_prints_fail_and_exits_1_when_a_check_fails(capsys, monkeypatch):
    monkeypatch.setattr("clusterblocks.cli.run_verification", lambda quick, seed: [
        verify.CheckResult("first", True, "fine"), verify.CheckResult("second", False, "2 failures")])
    code, out, _ = run(capsys, "verify", "--quick")
    assert code == 1
    assert out == "ok   first: fine\nFAIL second: 2 failures\n"


def test_simulate_byte_identical(capsys, tmp_path):
    p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
    for p in (p1, p2):
        code, _, _ = run(capsys, "simulate", "--model", "iid:1", "--n", "128",
                         "--seed", "5", "--out", str(p))
        assert code == 0
    assert p1.read_bytes() == p2.read_bytes()


def test_decompose_with_model_and_u(capsys):
    code, out, _ = run(capsys, "decompose", "--model", "mma1:1,1,1", "--n",
                       "600", "--seed", "3", "--r", "10", "--u", "20")
    assert code == 0
    rep = json.loads(out)
    assert rep["w_source"] == "exact"
    assert rep["w"] == pytest.approx(0.0975, rel=1e-12)


def test_threads_env_default(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("CLBLK_THREADS", "2")
    args = ["rates", "--model", "mma1:1,1,1", "--grid", "2000:n^0.2:n^-0.55",
            "--replicates", "4", "--seed", "11", "--targets", "ic_norm",
            "--band", "0.9", "--out", str(tmp_path / "env")]
    code, _, _ = run(capsys, *args)
    assert code in (0, 1)
    env_csv = (tmp_path / "env.csv").read_bytes()
    monkeypatch.delenv("CLBLK_THREADS")
    args[-1] = str(tmp_path / "noenv")
    code2, _, _ = run(capsys, *args)
    assert (tmp_path / "noenv.csv").read_bytes() == env_csv


def test_memory_guard_error_category(capsys):
    code, _, err = run(capsys, "rates", "--model", "mma1:1,1,1", "--grid",
                       "1e9:n^0.15:n^-0.6", "--replicates", "1",
                       "--targets", "ic_norm")
    assert code == 1
    assert err.startswith("error:config:")


RATES = ["rates", "--model", "mma1:1,1,1", "--grid", "2000:n^0.2:n^-0.55",
         "--replicates", "2", "--targets", "ic_norm"]
LIMITS = ["limits", "--c0", "1", "--c1", "1", "--alpha", "1"]
# block values 20^236 are finite, their sums over 20 000 windows are not
OVERFLOWING_RATES = ["rates", "--model", "mma1:1,1,1", "--grid", "20000:20:0.05",
                     "--replicates", "3", "--functional", "length^236",
                     "--targets", "scaled_gap,ic_norm"]


def no_replicate(*args):
    raise AssertionError("a replicate ran before the input was rejected")


@pytest.mark.parametrize("argv, env, code, category", [
    (["rates", "--model", "mma1:1,1,1", "--grid", "abc:n^0.15:n^-0.6"], None, 1, "config"),
    (RATES[:-1] + ["clm_large(x)"], None, 1, "config"),
    (["limits", "--c0", "1", "--c1", "1", "--alpha", "1", "--functional", "length^abc"],
     None, 1, "functional"),
    (["rates", "--model", "piecewise(mma1:1,1,1):x", "--grid", "2000:n^0.2:n^-0.55"],
     None, 1, "model"),
    (RATES, "abc", 2, "usage"),
    (RATES[:-1] + ["clm_large(-1)"], None, 1, "config"),
    (RATES[:-1] + ["clm_large(-1.5)"], None, 1, "config"),
    (RATES[:-1] + ["clm_large(2000)"], None, 1, "config"),
    (RATES[:-1] + ["ic_norm(3)"], None, 1, "config"),
    (RATES + ["--band", "nan"], None, 1, "config"),
    (["rates", "--model", "mma1:1,1,1", "--grid", "2000:n^400:n^-0.55"], None, 1, "config"),
    (LIMITS + ["--gamma", "-1"], None, 1, "config"),
    (LIMITS + ["--gamma", "2000"], None, 1, "config"),
    (LIMITS + ["--gamma", "nan"], None, 1, "config"),
    (LIMITS + ["--p", "nan"], None, 1, "functional"),
    (["decompose", "--model", "mma1:1,1,1", "--n", "5000", "--r", "10", "--w", "0.05",
      "--functional", "length^1100"], None, 1, "functional"),
    (["rates", "--model", "mma1:1,1,1", "--grid", "2000:n^0.15:n^-0.6", "--replicates", "2",
      "--functional", "length^2000", "--targets", "pa1a2_small"], None, 1, "functional"),
    (LIMITS + ["--functional", "length", "--p", "2000", "--samples", "1000"],
     None, 1, "functional"),
    # finite values whose sums over windows and blocks, or over Z samples, overflow
    (["decompose", "--model", "mma1:1,1,1", "--n", "100000", "--w", "0.001", "--r", "10",
      "--functional", "length^1020"], None, 1, "functional"),
    (LIMITS + ["--functional", "length^1023"], None, 1, "functional"),
    (OVERFLOWING_RATES + ["--threads", "1"], None, 1, "functional"),
    (OVERFLOWING_RATES + ["--threads", "2"], None, 1, "functional"),
    # each asks for PiB: the blocks of n = 1e15 are refused by the memory
    # budget before any uniform is drawn, the other arrays by a failing
    # allocation
    (["decompose", "--model", "mma1:1,1,1", "--n", "1000000000000000", "--r", "10",
      "--w", "0.01"], None, 1, "config"),
    (["simulate", "--model", "iid:1", "--n", "1000000000000000", "--out", os.devnull],
     None, 1, "config"),
    (LIMITS + ["--functional", "length", "--samples", "100000000000000"], None, 1, "config"),
    # a worker count below 1 is refused, not silently run on one worker
    (RATES + ["--threads", "0"], None, 1, "config"),
    (RATES + ["--threads", "-3"], None, 1, "config"),
    (RATES, "0", 1, "config"),
    # a threshold or a magnitude past the largest float is refused in one line
    (["decompose", "--model", "iid:1", "--n", "100", "--r", "10", "--w", "1e-320"],
     None, 1, "model"),
    (["decompose", "--model", "iid:1e-300", "--n", "100", "--r", "10", "--w", "0.1"],
     None, 1, "model"),
    (["decompose", "--model", "mma1:1,1,1e-300", "--n", "100", "--r", "10", "--w", "0.1"],
     None, 1, "model"),
    (["rates", "--model", "iid:1", "--grid", "1000:4:1e-320", "--replicates", "2"],
     None, 1, "model"),
    (["simulate", "--model", "iid:1e-300", "--n", "10", "--out", os.devnull], None, 1, "model"),
    (["simulate", "--model", "mma1:1e308,1e308,0.5", "--n", "10", "--out", os.devnull],
     None, 1, "model"),
    (["decompose", "--model", "mma1:1e308,1e308,0.5", "--n", "100", "--r", "10", "--u", "1e300",
      "--w", "0.1"], None, 1, "model"),
    # a c^alpha past the largest float, or two that both underflow to 0
    (["limits", "--c0", "1e300", "--c1", "1e300", "--alpha", "400", "--samples", "1000"],
     None, 1, "model"),
    (["rates", "--model", "mma1:1e300,1,400", "--grid", "1e3:4:0.01", "--replicates", "2",
      "--targets", "ic_norm"], None, 1, "model"),
    (["limits", "--c0", "1e-300", "--c1", "1e-300", "--alpha", "400", "--samples", "1000"],
     None, 1, "model"),
    # every Pareto draw of the Z sampler overflows a float
    (["limits", "--c0", "0", "--c1", "1", "--alpha", "1e-300", "--samples", "1000",
      "--functional", "length"], None, 1, "model"),
    (["limits", "--c0", "1", "--c1", "1", "--alpha", "1e-300", "--samples", "1000",
      "--functional", "length"], None, 1, "model"),
    # too few Monte Carlo samples, even where the indicator needs none
    (LIMITS + ["--samples", "-5"], None, 1, "model"),
    (LIMITS + ["--samples", "5"], None, 1, "model"),
])
def test_parse_errors_fail_closed(capsys, monkeypatch, argv, env, code, category):
    if env is not None:
        monkeypatch.setenv("CLBLK_THREADS", env)
    if argv[:len(OVERFLOWING_RATES)] != OVERFLOWING_RATES:   # overflows in the replicates
        monkeypatch.setattr("clusterblocks.harness._worker", no_replicate)
    with warnings.catch_warnings():
        warnings.simplefilter("error", Warning)     # any warning is a 2nd line
        got, out, err = run(capsys, *argv)
    assert got == code
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith(f"error:{category}:")
    assert "Traceback" not in err


@pytest.mark.parametrize("targets, estimates", [("pa1a2_small", 0), ("ic_norm", 2)])
def test_rates_estimates_only_the_constants_its_targets_read(capsys, monkeypatch,
                                                             targets, estimates):
    calls = []
    estimate = limits.cluster_index_mc
    monkeypatch.setattr(limits, "cluster_index_mc",
                        lambda *a, **kw: calls.append(a) or estimate(*a, **kw))
    code, out, _ = run(capsys, "rates", "--model", "mma1:1,1,1", "--grid", "2000:n^0.2:n^-0.55",
                       "--replicates", "2", "--functional", "length", "--targets", targets)
    assert code in (0, 1) and out.startswith("model,")
    assert len(calls) == estimates


def test_series_file_errors_fail_closed(capsys, tmp_path):
    # an empty file, and values whose X/u overflows a float, end in one
    # error line with no warning before it
    empty, huge = tmp_path / "empty.txt", tmp_path / "huge.txt"
    empty.write_text("")
    huge.write_text("0.5\n1e308\n" * 5)
    for path, category in ((empty, "model"), (huge, "config")):
        with warnings.catch_warnings():
            warnings.simplefilter("error", Warning)
            got, out, err = run(capsys, "decompose", "--series", str(path), "--r", "2",
                                "--u", "1e-300", "--w", "0.1")
        assert (got, out) == (1, "")
        assert len(err.splitlines()) == 1 and err.startswith(f"error:{category}:")


# Starts the argv given after it and prints its exit status and ru_maxrss
# (kB).  A child takes over the peak RSS of the process it was started
# from (Linux keeps the larger across exec), so the child whose peak is
# read is started from this small process, not from the test process.
MAXRSS = ("import os, subprocess, sys; p = subprocess.Popen(sys.argv[1:], stdout=subprocess.DEVNULL);"
          " _, status, use = os.wait4(p.pid, 0); print(status, use.ru_maxrss)")


def test_decompose_of_1e8_values_peaks_below_100_mb():
    # m = 8.3 million blocks of r = 12: one float array of length m is
    # 67 MB, and the reference sums kept two of them; the bookkeeping holds
    # about 1000 exceedances and their blocks, nothing of size m
    import clusterblocks

    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(clusterblocks.__file__)))
    argv = [sys.executable, "-m", "clusterblocks", "decompose", "--model", "mma1:1,1,1",
            "--n", "100000000", "--r", "12", "--w", "1e-5"]
    out = subprocess.run([sys.executable, "-c", MAXRSS, *argv], env=env, capture_output=True,
                         text=True, timeout=300, check=True).stdout
    status, kb = map(int, out.split())
    assert status == 0
    assert kb / 1024 < 100


def test_parser_is_built_once_and_keeps_no_state(capsys):
    argv = ["decompose", "--model", "mma1:1,1,1", "--n", "600", "--r", "6", "--w", "0.05"]
    verbose = run(capsys, *argv, "--verbose-blocks")
    plain = run(capsys, *argv)
    assert verbose[0] == plain[0] == 0
    data = json.loads(verbose[1])
    assert data.pop("per_block")
    assert json.loads(plain[1]) == data            # --verbose-blocks did not stick
    assert _build_parser() is _build_parser()


def test_limits_stdout_unaffected_by_debug_logging(capsys):
    argv = LIMITS + ["--functional", "length", "--p", "2", "--samples", "2000"]
    logger = logging.getLogger("clusterblocks")
    level = logger.level
    quiet = run(capsys, *argv)
    handler = logging.StreamHandler(sys.stderr)
    logger.addHandler(handler)
    try:
        logger.setLevel(logging.WARNING)
        warning = run(capsys, *argv)
        logger.setLevel(logging.DEBUG)
        debug = run(capsys, *argv)
    finally:
        logger.removeHandler(handler)
        logger.setLevel(level)
    assert quiet == warning
    assert debug[:2] == quiet[:2]
    # one line each for the ic, bc and |bc|^2 estimates
    assert debug[2].count("evaluator calls") == 3


@pytest.mark.parametrize("extra, category", [
    (["--functional", "count", "--targets", "ic_norm,ecm"], "config"),   # limit pinned
    (["--model", "mmaq:1,0.5,1"], "model"),                            # no limit table
])
def test_rates_resolves_expected_before_replicates(capsys, monkeypatch, extra, category):
    monkeypatch.setattr("clusterblocks.cli.run_experiment", no_replicate)
    code, out, err = run(capsys, *RATES, *extra)
    assert (code, out) == (1, "")
    assert err.startswith(f"error:{category}:") and len(err.splitlines()) == 1


def test_decompose_rejects_non_finite_input(capsys, tmp_path):
    path = tmp_path / "series.txt"
    path.write_text("0.5\n2.0\nnan\n0.3\n1.5\n0.2\n")
    code, out, err = run(capsys, "decompose", "--series", str(path), "--r", "2",
                         "--u", "1", "--w", "0.1")
    assert (code, out) == (1, "")
    assert err.startswith("error:model:") and len(err.splitlines()) == 1
    path.write_text("0.5\n2.0\n0.4\n0.3\n1.5\n0.2\n")
    code, out, err = run(capsys, "decompose", "--series", str(path), "--r", "2",
                         "--u", "inf", "--w", "0.1")
    assert (code, out) == (1, "")
    assert err.startswith("error:config:") and len(err.splitlines()) == 1


def test_help_lists_flags(capsys):
    with pytest.raises(SystemExit):
        main(["decompose", "--help"])
    out = capsys.readouterr().out
    for flag in ("--series", "--model", "--r", "--u", "--w", "--functional"):
        assert flag in out


# -- argv fuzz -----------------------------------------------------------------
# A valid argv with up to two flags set to inputs that must fail closed.  Sizes
# stay small (n <= 5000, <= 3 replicates, <= 1000 Z samples, one worker) and
# rates avoids functionals whose limits need Monte Carlo.

BAD = ["nan", "inf", "-1", "0", "1e400", "abc", ""]
TARGET_NAMES = ["ic_norm", "bc_norm", "ic_large_norm", "pa1a2_small", "pa1a2_large",
                "clm_large(1)", "ecm", "scaled_gap", "disjoint_stat", "sliding_stat"]
BAD_TARGETS = ["clm_large(-1)", "clm_large(2000)", "ic_norm(3)"] + BAD
BAD_FUNCTIONALS = ["length^-1", "length^1100", "length^2000", "abc", ""]

# flag -> (valid values, None meaning the flag is left out; bad values)
VERBS = {
    "decompose": {
        "--model": (["mma1:1,1,1", "iid:1", "mma1:1,2,1.5"], ["abc", "", None]),
        "--n": (["600", "5000"], BAD + [None]),
        "--seed": ([None, "3"], BAD),
        "--r": (["2", "10"], BAD + [None]),
        "--u": ([None, "3", "20"], BAD),
        "--w": (["0.05", None], BAD),
        "--functional": ([None, "length", "count", "length^1.5"], BAD_FUNCTIONALS),
    },
    "rates": {
        "--model": (["mma1:1,1,1", "iid:1", "piecewise(mma1:1,1,1):r"],
                    ["mmaq:1,0.5,1", "abc", "", None]),
        "--functional": ([None, "indicator", "count"], BAD_FUNCTIONALS),
        "--replicates": (["1", "3"], BAD),
        "--seed": ([None, "11"], BAD),
        "--band": ([None, "0.9"], BAD),
        "--threads": ([None, "1"], BAD),
        "--format": ([None, "json"], ["abc"]),
    },
    "limits": {
        "--c0": (["1", "2"], BAD + [None]),
        "--c1": (["1", "0"], BAD + [None]),
        "--alpha": (["1", "2"], BAD + [None]),
        "--functional": ([None, "length", "count", "length^1.5"], BAD_FUNCTIONALS),
        "--gamma": ([None, "0.5"], BAD + ["2000"]),
        "--p": ([None, "1", "2"], BAD + ["2000"]),
        "--samples": (["1000"], BAD),        # never the 20000-sample default
        "--seed": ([None, "0"], BAD),
        "--format": ([None, "json", "csv"], ["abc"]),
    },
}


@st.composite
def cli_argv(draw):
    verb = draw(st.sampled_from(sorted(VERBS)))
    flags = VERBS[verb]
    extra = ["--grid", "--targets"] if verb == "rates" else []
    broken = draw(st.sets(st.sampled_from(sorted(flags) + extra), max_size=2))
    argv = [verb]
    for flag, (valid, bad) in flags.items():
        value = draw(st.sampled_from(bad if flag in broken else valid))
        if value is not None:
            argv += [flag, value]
    if verb == "rates":
        parts = [["2000", "5000"], ["n^0.2", "4"], ["n^-0.55", "0.05"]]
        if "--grid" in broken:
            parts[draw(st.integers(0, 2))] = BAD + ["n^400"]
        point = st.tuples(*map(st.sampled_from, parts)).map(":".join)
        argv += ["--grid", ";".join(draw(st.lists(point, min_size=1, max_size=2)))]
        names = TARGET_NAMES + (BAD_TARGETS if "--targets" in broken else [])
        argv += ["--targets", ",".join(draw(st.lists(st.sampled_from(names),
                                                     min_size=1, max_size=3)))]
    return argv


@settings(max_examples=300, derandomize=True, deadline=None)
@given(argv=cli_argv())
def test_cli_argv_fuzz(argv):
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.dict(os.environ), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        os.environ.pop("CLBLK_THREADS", None)
        code = main(argv)
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    if "error:" in err:
        assert err.startswith("error:") and len(err.splitlines()) == 1
        assert out == ""
    assert not re.search(r"\bnan\b", out, re.IGNORECASE)
