"""Print `verify`'s fault x group table: which group catches which planted
fault, at each grid.

Run from the repository root:

    python3 scripts/fault_matrix.py

The table is `fault_table()` of ``tests/test_fault_matrix.py``: each fault
of its catalogue `FAULTS` is planted alone and `checks.verify` runs with
seed 1 on each grid of its `GRIDS` (1-D M=15, 2-D M=9, 3-D M=9).  A row is
a fault, a column a group, and a cell holds one letter per grid in that
order: P for PASS, F for FAIL.  The script names on stderr, and exits 1
for, each fault that passes every group on some grid, so that no group
catches it there; it exits 0 otherwise.

Its output is committed as ``scripts/fault_matrix.txt``.  A tier-1 test
compares `fault_table()` with that file, and CI compares this script's
output with it by ``diff``: a cell that moves, even from one F to another
pattern that still fails some group, fails both until the table is
regenerated and the change explained.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from test_fault_matrix import fault_table  # noqa: E402


def main() -> int:
    text, uncaught = fault_table()
    sys.stdout.write(text)
    for miss in uncaught:
        print(f"no group catches {miss}", file=sys.stderr)
    return 1 if uncaught else 0


if __name__ == "__main__":
    sys.exit(main())
