"""The four benchmark workloads: task lists, the in-process CLI task, and the
checks that decide whether a task's output is correct.

A task is one ``toruskit.cli.main(argv)`` call followed by a check of its
exit code and its output.  Task seed = run seed + task index, and a run is
always a whole number of rotations of the workload's configurations, so a
run with a given seed is a prefix of every longer run with that seed.

Why these four (BENCHMARK.json gives the reasons for the two it lists):

- solve-2d: CG through grid-side transforms, where per-mode symbol
  evaluation dominates; composite length 45 = 3^2 * 5; JSON write of the
  solution field.
- norm-law: power-iteration norm estimates on prime and composite grids in
  2-D and 3-D, dominated by many small transforms; the symbol is evaluated
  once per estimate, so it is the workload that bypasses symbol work.
- verify-3d: the whole invariant suite; 729 tiny eigenpair transforms with a
  full symbol evaluation each, the naive double-sum oracle, embedding and
  one CG solve.
- spectrum-levels: the only workload that calls the lattice scan; checked
  against Jacobi's two-square formula, independent of how the program
  counts.

BENCHMARK.json lists only verify-3d and spectrum-levels, which between them
run every layer.  On a shared 2-core host whose speed drifts by up to a
third over minutes, the run-to-run spread of every timing is set by that
drift rather than by run length; two workloads gate fewer such metrics and
leave room for 45-second runs.  solve-2d and norm-law stay runnable by hand
(--workload, or --workload all) for the prediction table in predictions.json.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
from dataclasses import dataclass, field

import numpy as np
import toruskit
import toruskit.cli

OUT_DIR = ".perfbench"

# (dimension, points, truncation) for norm-law; (dimension, level cap) for
# spectrum-levels.  Each run cycles through the list in this order.
NORM_LAW_CONFIGS = ((2, 31, 8), (2, 33, 8), (3, 15, 4), (3, 13, 3))
SPECTRUM_CONFIGS = ((3, 900), (3, 1600), (3, 2500), (2, 40000))
# Spectrum caps are lowered by (task seed mod CAP_JITTER) so that no two
# tasks of a run ask for the same table; the work per task barely changes.
CAP_JITTER = 16

# Seconds one rotation takes at this commit on a 2-core x86-64 virtual machine with
# one BLAS thread.  They only size the task lists of the traced run (rotations
# = run seconds / rotation seconds), which must repeat exactly for a given
# seed; they never enter a metric.
ROTATION_S = {
    "solve-2d": 0.8,
    "norm-law": 3.3,
    "verify-3d": 2.8,
    "spectrum-levels": 6.5,
}
WORKLOADS = tuple(ROTATION_S)


@dataclass(frozen=True)
class Task:
    workload: str
    index: int
    seed: int
    argv: tuple[str, ...]
    config: tuple[int, ...]


@dataclass
class Outcome:
    ok: bool
    bytes_written: int = 0
    detail: str = ""


def _out_path(workload: str) -> str:
    return os.path.join(OUT_DIR, f"{workload}.json")


def make_task(workload: str, run_seed: int, index: int) -> Task:
    """Task `index` of a run; index -1 is the untimed warm-up task."""
    seed = run_seed + index
    out = _out_path(workload)
    if workload == "solve-2d":
        argv = ("solve", "--dimension", "2", "--points", "45", "--seed", str(seed),
                "--format", "json", "--output", out)
        return Task(workload, index, seed, argv, (2, 45))
    if workload == "norm-law":
        n, m, k = NORM_LAW_CONFIGS[index % len(NORM_LAW_CONFIGS)]
        argv = ("truncate", "--dimension", str(n), "--points", str(m),
                "--truncation", str(k), "--seed", str(seed),
                "--format", "json", "--output", out)
        return Task(workload, index, seed, argv, (n, m, k))
    if workload == "verify-3d":
        argv = ("verify", "--dimension", "3", "--points", "9", "--seed", str(seed))
        return Task(workload, index, seed, argv, (3, 9))
    if workload == "spectrum-levels":
        n, cap = SPECTRUM_CONFIGS[index % len(SPECTRUM_CONFIGS)]
        cap -= seed % CAP_JITTER
        argv = ("spectrum", "--dimension", str(n), "--level-cap", str(cap),
                "--format", "json", "--output", out)
        return Task(workload, index, seed, argv, (n, cap))
    raise ValueError(f"unknown workload {workload!r}")


def per_rotation(workload: str) -> int:
    """Number of configurations, and so of tasks, in one rotation."""
    return {"norm-law": len(NORM_LAW_CONFIGS),
            "spectrum-levels": len(SPECTRUM_CONFIGS)}.get(workload, 1)


def rotation(workload: str, run_seed: int, number: int) -> list[Task]:
    """Rotation `number` of a run: one task per configuration, in order."""
    size = per_rotation(workload)
    return [make_task(workload, run_seed, i) for i in range(number * size, (number + 1) * size)]


def task_list(workload: str, run_seed: int, rotations: int) -> list[Task]:
    return [task for number in range(rotations)
            for task in rotation(workload, run_seed, number)]


def rotations_for(workload: str, seconds: float) -> int:
    return max(1, round(seconds / ROTATION_S[workload]))


# ---------------------------------------------------------------------------
# Expected outputs, computed before timing starts.
# ---------------------------------------------------------------------------


def representation_counts(n: int, cap: int) -> list[int]:
    """r_n(k) = #{xi in Z^n : |xi|^2 = k} for k = 0..cap, n in (2, 3).

    r_2 comes from Jacobi's two-square formula r_2(k) = 4 (d_1(k) - d_3(k)),
    d_j counting the divisors of k that are j mod 4; r_3 is the convolution
    of r_2 with r_1.  No lattice point is enumerated, so the oracle shares
    nothing with the program's scan.
    """
    if n not in (2, 3):
        raise ValueError(f"no oracle for dimension {n}")
    chi_sum = np.zeros(cap + 1, dtype=np.int64)
    for d in range(1, cap + 1, 2):
        chi_sum[d::d] += 1 if d % 4 == 1 else -1
    r2 = 4 * chi_sum
    r2[0] = 1
    if n == 2:
        return r2.tolist()
    r1 = np.zeros(cap + 1, dtype=np.int64)
    r1[0] = 1
    r1[[m * m for m in range(1, math.isqrt(cap) + 1)]] = 2
    r3 = np.zeros(cap + 1, dtype=np.int64)
    for j in np.flatnonzero(r1):
        r3[j:] += r1[j] * r2[: cap + 1 - j]
    return r3.tolist()


@dataclass
class Expected:
    """Per-run reference data: representation tables and solve inputs."""

    counts: dict[int, list[int]] = field(default_factory=dict)
    solve_inputs: dict[int, np.ndarray] = field(default_factory=dict)


def prepare(tasks: list[Task]) -> Expected:
    expected = Expected()
    caps: dict[int, int] = {}
    for task in tasks:
        if task.workload == "spectrum-levels":
            n, cap = task.config
            caps[n] = max(cap, caps.get(n, 0))
        elif task.workload == "solve-2d":
            grid = toruskit.TorusGrid(*task.config)
            expected.solve_inputs[task.seed] = toruskit.random_field(
                grid, np.random.default_rng(task.seed)
            ).values
    expected.counts = {n: representation_counts(n, cap) for n, cap in caps.items()}
    return expected


# ---------------------------------------------------------------------------
# Running and checking one task.
# ---------------------------------------------------------------------------


def run_task(task: Task, expected: Expected) -> Outcome:
    """Run one CLI call in this process and check what it produced."""
    path = _out_path(task.workload)
    with contextlib.suppress(FileNotFoundError):
        os.remove(path)  # the check must read this task's output, never a stale one
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = toruskit.cli.main(list(task.argv))
    text = stdout.getvalue()
    written = len(text.encode())
    if code != 0:
        return Outcome(False, written, f"exit code {code}")
    if task.workload == "verify-3d":
        ok, detail = _check_verify(text)
        return Outcome(ok, written, detail)
    written += os.path.getsize(path)
    with open(path) as fh:
        doc = json.load(fh)
    if task.workload == "solve-2d":
        ok, detail = _check_solve(doc, expected.solve_inputs[task.seed])
    elif task.workload == "norm-law":
        ok, detail = _check_norm_law(doc, task.config[2])
    else:
        n, cap = task.config
        ok, detail = _check_spectrum(doc, expected.counts[n], cap)
    return Outcome(ok, written, detail)


def _check_verify(stdout: str) -> tuple[bool, str]:
    statuses = [line.split()[0] for line in stdout.splitlines()
                if line.startswith(("PASS ", "FAIL "))]
    failed = statuses.count("FAIL")
    return bool(statuses) and not failed, f"{len(statuses)} groups, {failed} FAIL"


def _check_solve(doc: dict, f: np.ndarray) -> tuple[bool, str]:
    """Residual of (Delta + 1) u = f, with Delta applied by numpy.fft."""
    sol = doc["solution"]
    shape = (sol["points_per_axis"],) * sol["dimension"]
    pairs = np.asarray(sol["values"], dtype=np.float64)
    u = (pairs[:, 0] + 1j * pairs[:, 1]).reshape(shape)
    k = np.fft.fftfreq(shape[0], d=1.0 / shape[0])
    symbol = 1.0 + sum(
        np.meshgrid(*(k * k,) * len(shape), indexing="ij", sparse=True)
    )
    lhs = np.fft.ifftn(symbol * np.fft.fftn(u))
    rel = float(np.linalg.norm(lhs - f) / np.linalg.norm(f))
    iterations = [r["iterations"] for r in doc["reports"] if r["method"] == "cg"]
    ok = sol["kind"] == "grid" and rel <= 1e-9 and iterations and iterations[0] > 0
    return bool(ok), f"relative residual {rel:.2e}, cg iterations {iterations}"


def _check_norm_law(rows: list, truncation: int) -> tuple[bool, str]:
    """Each row must hold the exact law 1/((N+1)^2+1) and match it to 1e-8."""
    if [row["N"] for row in rows] != list(range(truncation + 1)):
        return False, "rows do not cover N = 0..truncation"
    worst = 0.0
    for row in rows:
        exact = 1.0 / ((row["N"] + 1) ** 2 + 1)
        if not math.isclose(row["exact_error"], exact, rel_tol=1e-15):
            return False, f"N={row['N']}: exact_error {row['exact_error']} != {exact}"
        worst = max(worst, abs(row["power_iteration_error"] - exact))
    return worst <= 1e-8, f"worst |estimate - exact| {worst:.2e}"


def _check_spectrum(doc: dict, counts: list[int], cap: int) -> tuple[bool, str]:
    """Every level and multiplicity equals the Jacobi-convolution oracle."""
    levels = [(k, counts[k]) for k in range(cap + 1) if counts[k]]
    lap = [(float(k), m) for k, m in levels]
    res = [(1.0 / (1 + k), m) for k, m in levels]
    got_lap = [tuple(level) for level in doc["laplacian"]["levels"]]
    got_res = doc["resolvent"]["levels"]
    if got_lap != lap:
        return False, f"laplacian levels differ from the oracle ({len(got_lap)} vs {len(lap)})"
    if len(got_res) != len(res) or any(
        m != want_m or not math.isclose(eig, want, rel_tol=1e-15)
        for (eig, m), (want, want_m) in zip(got_res, res)
    ):
        return False, "resolvent levels differ from the oracle"
    return True, f"{len(levels)} levels"
