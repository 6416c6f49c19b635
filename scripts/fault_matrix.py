"""Print `verify`'s fault x group table: which group catches which planted
fault, at each grid.

Run from the repository root:

    python3 scripts/fault_matrix.py

The faults are the catalogue `FAULTS` of ``tests/test_fault_matrix.py`` and
the grids its `GRIDS` (1-D M=15, 2-D M=9, 3-D M=9), imported from that file,
not copied.  Each fault is planted alone and ``verify --seed 1`` runs in
process on each grid.  A row is a fault, a column a group, and a cell holds
one letter per grid in that order: P for PASS, F for FAIL.  The script exits
1 if some fault passes every group on some grid, so that no group catches
it there, and 0 otherwise.  It is not part of the test suite.

Its output is committed as ``scripts/fault_matrix.txt``, and CI compares
the two with ``diff``: a cell that moves, even from one F to another
pattern that still fails some group, fails CI until the table is
regenerated and the change explained.
"""

from __future__ import annotations

import contextlib
import io
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from test_fault_matrix import FAULTS, GRIDS, verify_statuses  # noqa: E402


def statuses(plant) -> list[dict[str, str]]:
    """verify's {group: status} on each grid of GRIDS with one fault planted;
    verify's failure messages on stderr are dropped."""
    runs = []
    for n, m in GRIDS:
        with (
            pytest.MonkeyPatch.context() as monkeypatch,
            contextlib.redirect_stderr(io.StringIO()),
        ):
            plant(monkeypatch)
            runs.append(verify_statuses(n, m))
    return runs


def main() -> int:
    table = {fault: statuses(plant) for fault, plant in FAULTS.items()}
    groups = list(next(iter(table.values()))[0])
    grids = ", ".join(f"{n}-D M={m}" for n, m in GRIDS)
    print("groups: " + ", ".join(f"{i} {g}" for i, g in enumerate(groups, 1)))
    print(f"cells: the verdicts at {grids} (P pass, F fail)")
    width = max(map(len, table))
    print("fault".ljust(width) + "".join(f"  {i:<3}" for i in range(1, len(groups) + 1)).rstrip())
    uncaught = []
    for fault, runs in table.items():
        cells = ["".join(run[group][0] for run in runs) for group in groups]
        print(fault.ljust(width) + "".join(f"  {cell}" for cell in cells))
        uncaught += [
            f"{fault} at {n}-D M={m}"
            for (n, m), run in zip(GRIDS, runs)
            if all(status == "PASS" for status in run.values())
        ]
    for miss in uncaught:
        print(f"no group catches {miss}", file=sys.stderr)
    return 1 if uncaught else 0


if __name__ == "__main__":
    sys.exit(main())
