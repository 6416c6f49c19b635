"""Compare the working tree's command outputs with those of a parent commit.

Run from the repository root:

    python3 scripts/compare_outputs.py --parent HEAD

The parent ref is extracted into a temporary directory with ``git archive``,
removed afterwards; the working tree runs from its own ``src/``.  Each
command in ``COMMANDS`` runs once per revision, in an empty directory of its
own and with one BLAS thread.  Every file the command writes, its stdout,
its stderr and its exit code are compared after the timings are masked:
``bench``'s ``median_seconds`` column and JSON field, and the ``(x s)``
times that ``verify`` and ``solve`` print at the end of a line.  Each
difference is printed, and the script exits 1 if there is any, 0
otherwise.  It is not part of the test suite.
"""

from __future__ import annotations

import argparse
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIMING_FIELDS = ("median_seconds",)
_DATA_COMMANDS = [
    *(("spectrum", "--dimension", str(n), "--level-cap", "2500") for n in (1, 2, 3)),
    ("spectrum", "--dimension", "2", "--level-cap", "40000"),
    ("transform", "--dimension", "2", "--points", "9", "--seed", "1", "--sobolev", "1.0"),
    # field documents off 2-D, so "dimension" and "points_per_axis" are compared too
    ("transform", "--dimension", "1", "--points", "15", "--seed", "1"),
    ("transform", "--dimension", "3", "--points", "5", "--seed", "1"),
    ("truncate", "--dimension", "2", "--points", "11", "--truncation", "2", "--seed", "1"),
    # nine lockstep Lanczos runs in one stack, which stop at different steps
    ("truncate", "--dimension", "2", "--points", "31", "--truncation", "8", "--seed", "1"),
    # lockstep across several stacks: 2025 points hold stacks of 4, 4 and 1
    # runs, and 3-D M=13 (2197 points) stacks of 3 and 2
    ("truncate", "--dimension", "2", "--points", "45", "--truncation", "8", "--seed", "1"),
    ("truncate", "--dimension", "3", "--points", "13", "--truncation", "4", "--seed", "1"),
    # the norm law off 2-D, where the box's levels and their gaps differ
    ("truncate", "--dimension", "1", "--points", "15", "--truncation", "4", "--seed", "1"),
    ("truncate", "--dimension", "3", "--points", "9", "--truncation", "2", "--seed", "1"),
    ("embed-demo", "--dimension", "1", "--points", "17", "--epsilon", "0.5", "--seed", "3"),
    # a 2-D family, drawn and extracted on stacked rows
    ("embed-demo", "--dimension", "2", "--points", "33", "--epsilon", "0.5", "--seed", "3"),
    # a 3-D family: 3375 points, 2 fields per stack
    ("embed-demo", "--dimension", "3", "--points", "15", "--epsilon", "0.5", "--seed", "3"),
    # cutoff 79 of box radius 80: each item's kept modes pass
    # transform._STACK_POINTS, so the extraction takes one item per block
    ("embed-demo", "--dimension", "2", "--points", "161", "--epsilon", "0.05", "--seed", "3"),
    # 4097 tail rows, N = 0..4096: a keyed table across two pieces of
    # cli._CHUNK_ROWS = 4096 rows, so the boundary between pieces is compared
    ("embed-demo", "--dimension", "1", "--points", "8193", "--epsilon", "0.5", "--seed", "3"),
    ("solve", "--dimension", "2", "--points", "9", "--seed", "4"),
    ("solve", "--dimension", "3", "--points", "5", "--seed", "4"),
    # 8281 points, past transform._STACK_POINTS: the preconditioner's
    # symbols are inverted a block at a time from one forward transform
    ("solve", "--dimension", "2", "--points", "91", "--seed", "4"),
    ("bench", "--dimension", "2", "--points", "9", "--seed", "1", "--repetitions", "2"),
]
COMMANDS = [
    (*command, "--format", fmt, "--output", f"out.{fmt}")
    for command in _DATA_COMMANDS
    for fmt in ("csv", "json")
] + [
    ("verify", "--dimension", "1", "--points", "15"),
    ("verify", "--dimension", "2", "--points", "9"),
    ("verify", "--dimension", "3", "--points", "9"),
    # 8281 points, past MAX_VERIFY_POINTS: refused with exit 2 before any group runs
    ("verify", "--dimension", "2", "--points", "91"),
]
_MAIN = "import sys; from toruskit.cli import main; sys.exit(main(sys.argv[1:]))"
_JSON_TIMING = re.compile(r'("(?:%s)": )[^,\n}]+' % "|".join(TIMING_FIELDS))
_GROUP_SECONDS = re.compile(r"\(\d+\.\d+ s\)$", re.M)


def extract_ref(ref: str, dest: Path) -> None:
    archive = subprocess.run(["git", "archive", ref], cwd=ROOT, check=True,
                             capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)


def mask_csv(text: str) -> str:
    lines = text.split("\n")
    header = lines[0].split(",")
    masked = [i for i, name in enumerate(header) if name in TIMING_FIELDS]
    for n, line in enumerate(lines[1:], start=1):
        cells = line.split(",")
        for i in masked:
            if i < len(cells):
                cells[i] = "*"
        lines[n] = ",".join(cells)
    return "\n".join(lines)


def mask(name: str, text: str) -> str:
    if name.endswith(".csv"):
        return mask_csv(text)
    return _GROUP_SECONDS.sub("(* s)", _JSON_TIMING.sub(r"\1*", text))


def run_commands(src: Path, out: Path) -> list[dict[str, str]]:
    """Each command's masked outputs, keyed by file name, stdout, stderr
    and exit code."""
    env = dict(os.environ, PYTHONPATH=str(src), OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    results = []
    for index, argv in enumerate(COMMANDS):
        workdir = out / str(index)
        workdir.mkdir(parents=True)
        proc = subprocess.run([sys.executable, "-c", _MAIN, *argv], cwd=workdir,
                              env=env, capture_output=True, text=True)
        outputs = {"exit code": str(proc.returncode),
                   "stdout": mask("stdout", proc.stdout),
                   "stderr": mask("stderr", proc.stderr)}
        for path in sorted(workdir.iterdir()):
            outputs[path.name] = mask(path.name, path.read_text())
        results.append(outputs)
    return results


def first_difference(a: str | None, b: str | None) -> str:
    if a is None or b is None:
        return "present at one revision only"
    for number, (line_a, line_b) in enumerate(zip(a.split("\n"), b.split("\n")), 1):
        if line_a != line_b:
            return f"line {number}: {line_a[:80]!r} -> {line_b[:80]!r}"
    return f"{a.count(chr(10)) + 1} lines -> {b.count(chr(10)) + 1} lines"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="git ref of the parent")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="compare_outputs_") as scratch:
        parent = Path(scratch) / "parent"
        parent.mkdir()
        extract_ref(args.parent, parent)
        before = run_commands(parent / "src", Path(scratch) / "before")
        after = run_commands(ROOT / "src", Path(scratch) / "after")
    differences = 0
    for argv, old, new in zip(COMMANDS, before, after):
        for name in sorted(old.keys() | new.keys()):
            if old.get(name) != new.get(name):
                differences += 1
                detail = first_difference(old.get(name), new.get(name))
                print(f"toruskit {' '.join(argv)}: {name} differs, {detail}")
    print(f"{len(COMMANDS)} commands against {args.parent}: "
          f"{differences or 'no'} difference{'' if differences == 1 else 's'}")
    return 1 if differences else 0


if __name__ == "__main__":
    sys.exit(main())
