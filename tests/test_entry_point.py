import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_module(*argv) -> subprocess.CompletedProcess:
    """Run `python -m toruskit.cli`, the path through `run()` and `sys.exit`."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
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
