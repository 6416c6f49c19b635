"""Self-test of the benchmark itself (not of toruskit).

Run from the repository root; it takes about a minute and a half:

    python3 perfbench/selftest.py

It checks that:
- a short run of every workload, those BENCHMARK.json lists and those run
  by hand, emits exactly the metrics BENCHMARK.json names, with their
  units, and no failed task;
- predictions.json cites only metrics and workloads that exist;
- a sabotaged task (one perturbed multiplicity, or a forced nonzero exit)
  is counted as failed and never as a completed task;
- solver.cg_iterations, spectral.norm_matvecs and operators.symbol_calls
  repeat exactly across two traced runs with the same seed;
- per-layer metrics read zero when no span was recorded, as when a later
  change removes a traced function;
- run.py fails without printing a result when the toruskit sources are
  absent.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEED = 5
failures: list[str] = []


def check(ok: bool, what: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} {what}", flush=True)
    if not ok:
        failures.append(what)


def bench_run(workload: str, trace: int, seed: int = SEED) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}: {proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_metric_sets(spec: dict) -> dict:
    from workloads import WORKLOADS

    check({w["name"] for w in spec["workloads"]} <= set(WORKLOADS),
          "BENCHMARK.json names only workloads that run.py defines")
    traced = {}
    for workload in WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            result = bench_run(workload, trace)
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            check(set(result) == {"correct", "attempted", "failed", "metrics"},
                  f"{workload} trace={trace}: result has exactly the four keys")
            check(got == want, f"{workload} trace={trace}: every {key} metric, with its unit")
            check(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                  f"{workload} trace={trace}: no failed task")
            if trace:
                traced[workload] = result["metrics"]
    return traced


def check_predictions(spec: dict) -> None:
    from workloads import WORKLOADS

    doc = json.loads((HERE / "predictions.json").read_text())
    layer = {m["name"] for m in spec["per_layer"]}
    e2e = {m["name"] for m in spec["end_to_end"]}
    workloads = set(WORKLOADS)
    for row in doc["predictions"]:
        ok = (set(row["layer_metrics"]) <= layer
              and set(row["moves"]) <= workloads
              and all(set(ms) <= e2e for ms in row["moves"].values())
              and set(row["unchanged_on"]) <= workloads)
        check(ok, f"prediction {row['name']} cites existing metrics and workloads")


def check_determinism(first: dict) -> None:
    counters = ("solver.cg_iterations", "spectral.norm_matvecs", "operators.symbol_calls")
    for workload in ("solve-2d", "norm-law", "verify-3d"):
        again = bench_run(workload, 1)["metrics"]
        same = all(first[workload][c]["value"] == again[c]["value"] for c in counters)
        check(same, f"{workload}: {', '.join(counters)} repeat with the same seed")


def check_sabotage() -> None:
    import run
    import toruskit.spectral
    import workloads

    # One perturbed multiplicity in the first of two spectrum tasks.
    tasks = [workloads.make_task("spectrum-levels", SEED, i) for i in (3, 7)]
    expected = workloads.prepare(tasks)
    original = toruskit.spectral.levels_up_to
    calls = []

    def perturbed(n, cap):
        levels = original(n, cap)
        calls.append(cap)
        if len(calls) == 1:
            k, m = levels[5]
            levels[5] = (k, m + 1)
        return levels

    toruskit.spectral.levels_up_to = perturbed
    try:
        with contextlib.redirect_stderr(io.StringIO()):
            outcome = run.execute(tasks, expected)
    finally:
        toruskit.spectral.levels_up_to = original
    check(outcome.failed == 1 and len(outcome.latencies) == 1,
          "a perturbed multiplicity fails its task and only that task")

    # A forced nonzero exit: the exact law is off by 1e-6, so truncate exits 1.
    exact = toruskit.spectral.truncation_error_exact
    toruskit.spectral.truncation_error_exact = lambda cutoff: exact(cutoff) + 1e-6
    stdout = io.StringIO()
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
            code = run.main(["--workload", "norm-law", "--seed", str(SEED),
                             "--seconds", "1", "--trace", "1"])
    finally:
        toruskit.spectral.truncation_error_exact = exact
    result = json.loads(stdout.getvalue().strip().splitlines()[-1])
    metrics = result["metrics"]
    check(code == 0 and not result["correct"] and result["failed"] == result["attempted"]
          and metrics["failed_ratio"]["value"] == 1.0
          and metrics["trace.untraced_tasks_per_s"]["value"] == 0.0,
          "forced nonzero exits count in failed_ratio and never in tasks_per_s")


def check_missing_names() -> None:
    from layers import layer_metrics

    metrics = layer_metrics([])
    check(all(value == 0 for value, _ in metrics.values()),
          "per-layer metrics read zero when no traced function ran")


def check_bare_directory() -> None:
    bare = ROOT / ".perfbench" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "solve-2d", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180,
    )
    shutil.rmtree(bare)
    check(proc.returncode != 0 and '"metrics"' not in proc.stdout,
          "without the toruskit sources run.py exits nonzero and prints no result")


def main() -> int:
    sys.path[:0] = [str(HERE), str(ROOT / "src")]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    traced = check_metric_sets(spec)
    check_predictions(spec)
    check_determinism(traced)
    check_missing_names()
    check_sabotage()
    check_bare_directory()
    print(f"{len(failures)} failed" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
