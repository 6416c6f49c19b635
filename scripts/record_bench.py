"""Record a performance change as a BENCH_<n>.json file.

Run from the repository root:

    python3 scripts/record_bench.py --parent HEAD~1 --output BENCH_11.json

The parent ref and the change are each extracted into a fresh temporary
directory, removed afterwards: the parent with ``git archive``, the change
as the working tree's tracked and untracked, not ignored, files.  Neither
run reads the repository's own checkout.  For each of 10 pairs the recorder
runs

    python3 perfbench/run.py --workload W --seed S --seconds T --trace 0

on every workload BENCHMARK.json lists, with T its ``run_seconds``, parent
and change one after the other with the same seed, alternating which side
runs first.  Pair i uses
seed ``--seed + i``; seed 0 is refused because perfbench's warm-up task runs
``verify --seed -1`` at that seed.

The file holds, per workload and end-to-end metric, each side's median and
quartiles, the pairs the change won (ties count for neither), every run's
numbers, both revisions, and the Python and numpy versions and nproc of the
host.  The recorder is not part of the test suite.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
# Alternating parent/change pairs per workload: the fewest from which a
# gain may be claimed.
PAIRS = 10


def git(*args: str, env: dict | None = None) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True, env=env).stdout.strip()


def extract_ref(ref: str, dest: Path) -> dict:
    """The files of commit `ref` in `dest`; returns its revision record."""
    dest.mkdir(parents=True)
    archive = subprocess.run(["git", "archive", ref], cwd=ROOT, check=True,
                             capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)
    return {"ref": ref, "sha": git("rev-parse", f"{ref}^{{commit}}")}


def extract_working_tree(dest: Path, scratch: Path) -> dict:
    """The working tree's tracked and untracked, not ignored, files in
    `dest`; the record holds HEAD and the git tree id of exactly these
    files, computed through a throwaway index so the real one is untouched."""
    listing = git("ls-files", "-z", "--cached", "--others", "--exclude-standard")
    for name in filter(None, listing.split("\0")):
        source = ROOT / name
        if source.is_file():  # a tracked file deleted in the working tree is skipped
            target = dest / name
            target.parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(source, target)
    index_env = dict(os.environ, GIT_INDEX_FILE=str(scratch / "index"))
    git("add", "-A", env=index_env)
    return {"ref": "working tree", "base_sha": git("rev-parse", "HEAD"),
            "tree": git("write-tree", env=index_env),
            "dirty": bool(git("status", "--porcelain"))}


def run_once(checkout: Path, workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} in {checkout} exited "
                           f"{proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {name: m["value"] for name, m in result["metrics"].items()}}


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summarize(runs: list[dict], metrics: list[dict]) -> dict:
    out = {}
    for metric in metrics:
        name, higher = metric["name"], metric["better"] == "higher"
        parent = [run["parent"]["metrics"][name] for run in runs]
        change = [run["change"]["metrics"][name] for run in runs]
        wins = sum((c > p) if higher else (c < p) for p, c in zip(parent, change))
        ties = sum(c == p for p, c in zip(parent, change))
        out[name] = {"unit": metric["unit"], "better": metric["better"],
                     "parent": spread(parent), "change": spread(change),
                     "change_wins": wins, "ties": ties, "pairs": len(runs)}
    return out


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="git ref of the parent")
    parser.add_argument("--output", required=True, help="BENCH_<n>.json to write")
    parser.add_argument("--seed", type=int, default=1, help="seed of the first pair, >= 1")
    args = parser.parse_args(argv)
    if args.seed < 1:
        parser.error("--seed must be >= 1: perfbench's warm-up runs verify --seed -1 at 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    workloads = [w["name"] for w in bench["workloads"]]
    scratch = Path(tempfile.mkdtemp(prefix="record-bench-"))
    try:
        parent = extract_ref(args.parent, scratch / "parent")
        change = extract_working_tree(scratch / "change", scratch)
        runs = {w: [] for w in workloads}
        for pair in range(PAIRS):
            seed = args.seed + pair
            order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
            for workload in workloads:
                run = {"pair": pair, "seed": seed, "first": order[0]}
                for side in order:
                    run[side] = run_once(scratch / side, workload, seed, seconds)
                runs[workload].append(run)
                ratio = (run["change"]["metrics"]["tasks_per_s"]
                         / run["parent"]["metrics"]["tasks_per_s"])
                print(f"pair {pair} seed {seed} {workload}: change/parent "
                      f"tasks_per_s {ratio:.3f}", flush=True)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    doc = {
        "command": f"python3 perfbench/run.py --workload W --seed S --seconds {seconds} "
                   "--trace 0",
        "parent": parent,
        "change": change,
        "pairs": PAIRS,
        "seeds": [args.seed + pair for pair in range(PAIRS)],
        "host": {"python": platform.python_version(), "numpy": np.__version__,
                 "nproc": len(os.sched_getaffinity(0)), "machine": platform.machine()},
        "workloads": {w: {"metrics": summarize(runs[w], bench["end_to_end"]),
                          "runs": runs[w]} for w in workloads},
    }
    Path(args.output).write_text(json.dumps(doc, indent=2) + "\n")
    print(f"wrote {args.output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
