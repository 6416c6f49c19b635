import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def run_module(*argv, **env) -> subprocess.CompletedProcess:
    """Run `python -m toruskit.cli`, the path through `run()` and `sys.exit`,
    with the environment variables `env` set on top of this one's."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), **env}
    return subprocess.run(
        [sys.executable, "-m", "toruskit.cli", *argv], env=env,
        capture_output=True, text=True, timeout=120,
    )


def test_module_verify_exits_zero():
    done = run_module("verify", "--dimension", "1", "--points", "15")
    assert done.returncode == 0, done.stderr
    assert done.stdout.count("PASS") == 7
    assert "FAIL" not in done.stdout


def test_module_usage_error_exits_two():
    done = run_module("verify", "--points", "8")
    assert done.returncode == 2
    assert "error: points:" in done.stderr
    assert done.stdout == ""


@pytest.mark.parametrize("argv", [
    ("truncate", "--dimension", "2", "--points", "129", "--truncation", "3", "--seed", "1"),
    ("solve", "--dimension", "2", "--points", "129", "--seed", "1"),
], ids=["truncate", "solve"])
def test_data_files_are_byte_identical_at_one_and_two_blas_threads(tmp_path, argv):
    # every norm and inner product is one pairwise sum, not a BLAS call whose
    # order of summation follows the thread count
    for threads in ("1", "2"):
        for fmt in ("csv", "json"):
            out = tmp_path / f"{threads}.{fmt}"
            done = run_module(*argv, "--format", fmt, "--output", str(out),
                              OMP_NUM_THREADS=threads, OPENBLAS_NUM_THREADS=threads,
                              MKL_NUM_THREADS=threads)
            assert done.returncode == 0, done.stderr
    for fmt in ("csv", "json"):
        assert (tmp_path / f"1.{fmt}").read_bytes() == (tmp_path / f"2.{fmt}").read_bytes()
