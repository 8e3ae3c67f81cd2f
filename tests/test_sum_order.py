"""The pinned bytes do not depend on the order in which Python's `sum`
adds floats: left to right on 3.10 and 3.11, compensated on 3.12 and
later (`neumaier.neumaier_sum`)."""

import json
import math
import os
import pathlib
import random
import shutil
import subprocess
import sys

import pytest

from neumaier import neumaier_sum

TESTS = pathlib.Path(__file__).resolve().parent

# every test that pins output bytes to a digest
PINNED = [
    "tests/test_blocks.py::test_block_statistics_bytes_are_pinned",
    "tests/test_cli.py::test_verify_quick_stdout_is_pinned",
    "tests/test_expansion.py::test_verbose_report_bytes_are_pinned",
    "tests/test_expansion.py::test_exhaustive_mask_reports_are_pinned",
    "tests/test_functionals.py::test_length_power_bytes_do_not_depend_on_simd_dispatch",
    "tests/test_harness.py::test_rates_csv_bytes_are_pinned",
    "tests/test_limits.py::test_z_draws_are_pinned",
    "tests/test_models.py::test_series_bytes_are_pinned",
]


def fixed_lists() -> list:
    """Lists of floats, mixed with ints and bools, on which a compensated
    and a left-to-right sum often differ."""
    rng = random.Random(312)
    lists = [[1e100, 1.0, -1e100], [1e100, 1, -1e100], [0.1] * 10, [-0.0], [-0.0, -0.0],
             [1.5, 2 ** 70, 0.1, -2 ** 70], [2 ** 70, 0.5, 1e100, -1e100],
             [1e300, 1e284, -1e300, 2 ** 64], [True, 0.5, 1e300, 1e284, -1e300, True],
             [math.inf, 1.0, -1e308], [1e308, 1e308, -1e308], [math.nan, 1.0]]
    for _ in range(3000):
        size = rng.randrange(2, 30)
        lists.append([rng.choice((-1.0, 1.0)) * rng.random() * 10.0 ** rng.randrange(-20, 21)
                      for _ in range(size)])
    for _ in range(300):
        row = [rng.random() * 10.0 ** rng.randrange(-5, 17) for _ in range(rng.randrange(2, 12))]
        row[rng.randrange(len(row))] = rng.randrange(-2 ** 62, 2 ** 62)
        lists.append(row)
    return lists


def _bits(x) -> str:
    return float(x).hex()


def _interpreters_that_compensate() -> list:
    """The Python 3.12 and later interpreters on PATH that start."""
    found = []
    for name in ("python3.12", "python3.13", "python3.14"):
        exe = shutil.which(name)
        if exe is None:
            continue
        out = subprocess.run([exe, "-c", "import sys; print(sys.version_info >= (3, 12))"],
                             capture_output=True, text=True, timeout=60)
        if out.returncode == 0 and out.stdout.strip() == "True":
            found.append(exe)
    return found


def test_the_emulator_differs_from_a_left_to_right_sum():
    # else the gate below would show nothing
    lists = fixed_lists()
    differ = 0
    for row in lists:
        left = 0
        for x in row:
            left += x
        differ += _bits(left) != _bits(neumaier_sum(row))
    assert differ > len(lists) // 4
    assert neumaier_sum([1, 2, 3]) == 6 and neumaier_sum([[1], [2]], []) == [1, 2]


def test_the_emulator_equals_the_sum_of_python_3_12_and_later():
    interpreters = _interpreters_that_compensate()
    if not interpreters:
        pytest.skip("no Python 3.12 or later on PATH")
    lists = fixed_lists()
    text = json.dumps([[x if type(x) is not float else x.hex() for x in row] for row in lists])
    code = ("import json, sys\n"
            "rows = json.load(sys.stdin)\n"
            "rows = [[float.fromhex(x) if isinstance(x, str) else x for x in r] for r in rows]\n"
            "print(json.dumps([float(sum(r)).hex() for r in rows]))")
    want = [_bits(neumaier_sum(row)) for row in lists]
    for exe in interpreters:
        out = subprocess.run([exe, "-c", code], input=text, capture_output=True, text=True,
                             timeout=120)
        assert out.returncode == 0, out.stderr
        got = json.loads(out.stdout)
        assert [i for i, (a, b) in enumerate(zip(got, want)) if a != b] == [], exe


def test_pinned_bytes_do_not_depend_on_the_float_sum(tmp_path):
    """The PINNED tests pass in a process, and in every process it starts,
    whose builtin `sum` is `neumaier_sum`, as they pass here."""
    (tmp_path / "sitecustomize.py").write_text(
        "import builtins\nfrom neumaier import neumaier_sum\nbuiltins.sum = neumaier_sum\n")
    root = TESTS.parent
    path = [str(tmp_path), str(TESTS), str(root / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))
    code = ("import sys, pytest\n"
            "assert sum([1e100, 1.0, -1e100]) == 1.0, 'the compensated sum is not installed'\n"
            "sys.exit(pytest.main(['-q', '-p', 'no:cacheprovider', *sys.argv[1:]]))")
    out = subprocess.run([sys.executable, "-c", code, *PINNED], cwd=root, env=env,
                         capture_output=True, text=True, timeout=600)
    assert out.returncode == 0, out.stdout + out.stderr
    assert " failed" not in out.stdout and " passed" in out.stdout
