"""toruskit benchmark: four closed-loop CLI workloads, one client each.

Run from the repository root:

    python3 perfbench/run.py --workload verify-3d --seed 1 --seconds 45 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 45 --trace 0

BENCHMARK.json lists verify-3d and spectrum-levels; solve-2d and norm-law
run the same way by hand (workloads.py says why).

Each task is one in-process ``toruskit.cli.main([...])`` call whose exit
code and output are checked inside the timed task (see workloads.py).  A run
covers whole rotations of the workload's task list.

--trace 0 runs rotations until --seconds of task time have passed and prints
the end-to-end metrics: set-up time, verified tasks per second, per-task
latency (median and tail) and peak memory.  --trace 1 runs a fixed task list,
sized from --seconds, untraced and then traced, so that its counts repeat
exactly for a given seed, and prints the per-layer metrics
(layers.py); the spans go to .perfbench/spans-<workload>-seed<seed>.jsonl.
The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.

The benchmark measures from outside: it imports toruskit from ./src and
changes no file of the library.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

# numpy links a multi-threaded OpenBLAS, and the dense DFT path uses `@` and
# einsum; pin it to one thread before anything imports numpy.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
SETUP_PROBES = 2  # fresh processes that repeat set-up, besides this one
PROBE_TIMEOUT_S = 150


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        help="solve-2d, norm-law, verify-3d, spectrum-levels or all")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    return args


@dataclass
class Pass:
    """Outcome of running tasks in order.

    `busy` is the summed wall time of every task, failed ones included;
    checks run inside each task's time, but preparing reference data and
    the loop itself do not count.
    """

    latencies: list[float] = field(default_factory=list)
    slots: list[int] = field(default_factory=list)  # configuration of each latency
    failed: int = 0
    busy: float = 0.0
    bytes_written: int = 0

    @property
    def attempted(self) -> int:
        return len(self.latencies) + self.failed

    @property
    def tasks_per_s(self) -> float:
        return len(self.latencies) / self.busy if self.busy > 0 else 0.0


def execute(tasks, expected, tracer=None, result=None) -> Pass:
    """Run the tasks back to back; a failed task adds no latency sample."""
    from workloads import Outcome, per_rotation, run_task

    result = Pass() if result is None else result
    for task in tasks:
        if tracer is not None:
            tracer.task = task.index
        start = time.perf_counter()
        try:
            outcome = run_task(task, expected)
        except Exception:  # a task that raises is a failed task; the run goes on
            outcome = Outcome(False, 0, traceback.format_exc())
        latency = time.perf_counter() - start
        result.busy += latency
        result.bytes_written += outcome.bytes_written
        if outcome.ok:
            result.latencies.append(latency)
            result.slots.append(task.index % per_rotation(task.workload))
        else:
            result.failed += 1
            print(f"task {task.index} (seed {task.seed}) failed: {outcome.detail}",
                  file=sys.stderr)
    return result


def execute_for(workload: str, seed: int, seconds: float) -> Pass:
    """Whole rotations of the task list until `seconds` of task time have passed.

    Each rotation's reference data is prepared before its first task starts,
    outside task time.  Stopping on task time rather than on a task count
    keeps a run's length fixed when the host or the program changes speed.
    """
    import workloads

    result, rotation = Pass(), 0
    while result.busy < seconds:
        tasks = workloads.rotation(workload, seed, rotation)
        execute(tasks, workloads.prepare(tasks), result=result)
        rotation += 1
    return result


def median_latency(result: Pass) -> float:
    """Median task latency of each configuration, averaged over configurations.

    norm-law and spectrum-levels rotate over configurations whose latencies
    differ several-fold, so the median of the pooled latencies is the mean of
    two extreme order statistics of neighbouring configurations and jumps
    with the slowest or fastest task of either.  Taking the median within
    each configuration first keeps the estimate in the middle of every
    group.  For a workload with one configuration it is the plain median.
    """
    groups: dict[int, list[float]] = {}
    for slot, latency in zip(result.slots, result.latencies):
        groups.setdefault(slot, []).append(latency)
    if not groups:
        return 0.0
    return statistics.fmean(statistics.median(group) for group in groups.values())


def tail(latencies: list[float]) -> tuple[float, int]:
    """p90 latency (interpolated) and the number of tasks beyond it.

    A run's task count is well under 100, so the highest
    percentile with ten tasks beyond it would sit at or below the median;
    p90 is the tail instead, reported with how many tasks exceed it.
    """
    if len(latencies) < 2:
        return (latencies[0] if latencies else 0.0), 0
    p90 = statistics.quantiles(latencies, n=10, method="inclusive")[-1]
    return p90, sum(latency > p90 for latency in latencies)


def git_sha() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


def probe_setup(args) -> float:
    """Set-up time of a fresh process: import plus one warm-up task."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-probe"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=PROBE_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed ({proc.returncode}): {proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def emit(correct: bool, attempted: int, failed: int, metrics: dict) -> None:
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value!r} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))


def run_workload(args) -> int:
    start = time.perf_counter()
    import toruskit.cli  # noqa: F401  (timed: part of set-up)

    import_s = time.perf_counter() - start

    import workloads
    from layers import Tracer, layer_metrics

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of "
              f"{', '.join(workloads.WORKLOADS)} or all", file=sys.stderr)
        return 2
    os.makedirs(workloads.OUT_DIR, exist_ok=True)
    warm_task = workloads.make_task(args.workload, args.seed, -1)
    warm_expected = workloads.prepare([warm_task])
    warm = execute([warm_task], warm_expected)
    setup_s = import_s + warm.busy
    if args.setup_probe:
        print(json.dumps({"setup_s": setup_s}))
        return 0 if not warm.failed else 1

    env = environment()
    print("env: " + " ".join(f"{k}={v}" for k, v in env.items()))
    print("note: closed loop with one client and no queue, so nothing waits "
          "and no wait metric is reported")

    if args.trace == 0:
        setups = [setup_s] + [probe_setup(args) for _ in range(SETUP_PROBES)]
        timed = execute_for(args.workload, args.seed, args.seconds)
        tail_s, beyond = tail(timed.latencies)
        failed = warm.failed + timed.failed
        attempted = warm.attempted + timed.attempted
        print(f"workload: {args.workload}, {timed.attempted} tasks in {timed.busy:.1f} s, "
              f"seed {args.seed}")
        print(f"setup_s: median of {len(setups)} set-ups {setups}")
        print(f"task_tail_s: p90 of {len(timed.latencies)} verified tasks, {beyond} beyond it")
        print(f"failed_ratio = {failed}/{attempted}")
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "tasks_per_s": (timed.tasks_per_s, "1/s"),
            "task_p50_s": (median_latency(timed), "s"),
            "task_tail_s": (tail_s, "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
        }
        emit(failed == 0, attempted, failed, metrics)
        return 0

    tasks = workloads.task_list(
        args.workload, args.seed, workloads.rotations_for(args.workload, args.seconds / 2))
    expected = workloads.prepare(tasks)
    untraced = execute(tasks, expected)
    tracer = Tracer()
    tracer.install()
    try:
        traced = execute(tasks, expected, tracer)
    finally:
        tracer.uninstall()
    failed = warm.failed + untraced.failed + traced.failed
    attempted = warm.attempted + untraced.attempted + traced.attempted
    metrics = layer_metrics(tracer.spans)
    metrics.update({
        "cli.bytes_written": (traced.bytes_written, "count"),
        "trace.task_s": (traced.busy, "s"),
        "trace.untraced_tasks_per_s": (untraced.tasks_per_s, "1/s"),
        "trace.traced_tasks_per_s": (traced.tasks_per_s, "1/s"),
        "trace.overhead_ratio": (
            untraced.tasks_per_s / traced.tasks_per_s if traced.tasks_per_s else 0.0, "ratio"),
        "failed_ratio": (failed / attempted, "ratio"),
    })
    spans_path = os.path.join(workloads.OUT_DIR, f"spans-{args.workload}-seed{args.seed}.jsonl")
    tracer.write(spans_path, {"workload": args.workload, "seed": args.seed,
                              "tasks": len(tasks), "env": env})
    print(f"workload: {args.workload}, {len(tasks)} tasks untraced then traced, "
          f"seed {args.seed}; {len(tracer.spans)} spans in {spans_path}")
    emit(failed == 0, attempted, failed, metrics)
    return 0


def run_all(args) -> int:
    """Every workload in its own process; prints each one's metrics."""
    from workloads import WORKLOADS

    correct, attempted, failed, merged = True, 0, 0, {}
    for workload in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"error: workload {workload} exited with {proc.returncode}", file=sys.stderr)
            return 1
        lines = proc.stdout.strip().splitlines()
        print(f"== {workload}")
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        correct = correct and result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        for name, metric in result["metrics"].items():
            merged[f"{workload}.{name}"] = (metric["value"], metric["unit"])
    print("== all workloads")
    emit(correct, attempted, failed, merged)
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    os.chdir(ROOT)
    src = ROOT / "src"
    if not (src / "toruskit" / "__init__.py").is_file():
        print(f"error: toruskit sources not found under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
