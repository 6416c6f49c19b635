"""Command-line surface: transforms, spectra, truncation tables, embedding
demos, solves, and benchmarks, emitting JSON or CSV for offline plotting.

Exit codes: 0 on success, 1 when a numerical self-check fails, an
iterative loop does not converge or a computed field or symbol holds NaN
or inf, 2 on usage/validation errors.  Commands that draw random data
require an explicit --seed (there is no wall-clock default), and identical
configurations produce byte-identical data files, with one BLAS thread or
two: norms and inner products are numpy pairwise sums
(`transform._field_sums`), the one LAPACK call left is the Lanczos `eigh`,
and `solve` and `bench` print their wall times instead of writing them.

The self-checks and `verify`'s groups are in `checks`.  A flag whose rule
needs no other flag is validated once, by its argparse `type=`, so a bad
value exits 2 naming the flag before any work is done; `_make_grid` checks
`--points` against `--dimension` and the command's grid-size limit.
A command's CSV table and JSON document are written from the same columns.
Every table is one type, `_Columns`, of ndarray columns: a field's
`[re, im]` values and the spectrum levels, and the record tables (the rows
of `truncate`, `bench` and `embed-demo`'s tails, `solve`'s reports), whose
keys are the CSV header and key each JSON row object.  Every JSON file is
laid out exactly as `json.dumps(doc, indent=2)` would write it, byte for
byte, by the one writer `_json_chunks`: `json.dumps` lays out the document
around its tables, and each table is written in its place.  In CSV and JSON
alike a table goes through one column formatter, `_table_chunks`, and every
file is written in pieces of at most _CHUNK_ROWS table rows, so neither a
file's text nor all of its cell strings are held at once.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import statistics
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import checks, embedding, operators, spectral, transform

_DIMENSIONS = (1, 2, 3)
# Largest grid a command builds: 2**22 points, 64 MiB per complex field.
MAX_GRID_POINTS = 2**22
# Largest grid `verify` checks: the fast-vs-naive and eigenpair groups take
# direct sums, six and one, of O(n M**(n+1)), which is O(size**2) in 1-D,
# so they set the 1-D limit; preconditioned CG takes at most about 20
# iterations on any grid.  At 1-D M=8191 (one BLAS thread, 2-core x86-64
# VM) the groups take: fast-vs-naive 0.6-0.9 s, resolvent-eigenpairs 0.3 s,
# solver-agreement 0.05-0.08 s (16 CG iterations), the rest under 0.15 s
# each; 1.4-1.8 s of wall time in all, peaking at 46 MiB.
MAX_VERIFY_POINTS = 2**13
# Largest grid `embed-demo` builds: it holds 64 H^1-bounded fields and the
# modes of theirs the extraction keeps, about 1.4 KB per grid point at eps
# 0.5 (351.6 MiB at 2-D M=511, one BLAS thread on a 2-core x86-64 VM; 359-360
# MiB at 1-D M=262143); at --epsilon 0.016 (cutoff 249, most of the box kept)
# 500 MiB at 2-D M=511.
MAX_EMBED_POINTS = 2**18
# Largest `spectrum --level-cap`: in 3-D, cap 2**20 (one BLAS thread, 2-core
# x86-64 VM) takes 2.8-3.8 s and peaks at 73 MiB writing 96 MB of JSON or
# 54 MB of CSV; from cap 2**18 (0.9 s, 41 MiB) time grows
# about 4x per 4x in cap, the lattice scan about 8x.
MAX_LEVEL_CAP = 2**20
# Rows per piece of a table's text: a file is written piece by piece, so
# neither it nor all of its cell strings are held at once.
_CHUNK_ROWS = 2**12


class UsageError(ValueError):
    pass


def _make_grid(
    n: int, points: int, limit: int = MAX_GRID_POINTS
) -> transform.TorusGrid:
    """The command's grid, refused (exit 2, naming points) above `limit`
    points, before any field is drawn."""
    try:
        grid = transform.TorusGrid(n, points)
    except ValueError as exc:
        raise UsageError(f"points: {exc}") from exc
    if grid.size > limit:
        raise UsageError(
            f"points: a grid of {points}**{n} = {grid.size} points exceeds "
            f"the limit of {limit}"
        )
    return grid


def _write(path: str, chunks) -> None:
    """Write the text `chunks` to `path` one by one, as they are made."""
    with open(path, "w") as fh:
        fh.writelines(chunks)
    print(f"wrote {path}")


@dataclass(frozen=True)
class _Columns:
    """A table held as equal-length ndarray columns of numbers or strings.
    With `keys`, CSV writes them as its header line and JSON writes each row
    as an object keyed by them; without, JSON writes each row as a list."""

    columns: tuple
    keys: tuple | None = None


def _spelling(column: np.ndarray, spell):
    """How each cell of `column` is written: `int.__repr__` for an integer
    dtype, `float.__repr__` for a float dtype whose cells are all finite
    (json and csv both write them so), otherwise `spell` of the cell."""
    kind = column.dtype.kind
    if kind in "iu":
        return int.__repr__
    if kind == "f" and np.isfinite(column).all():
        return float.__repr__
    return spell


def _table_chunks(columns, spellings, open_row, cell_sep, close_row, row_sep,
                  labels=None):
    """The rows of `columns`, each `open_row` + its cells spelled by
    `spellings`, each after its column's label in `labels` if given, joined
    by `cell_sep` + `close_row`, rows joined by `row_sep`, in chunks of
    _CHUNK_ROWS rows: one chunk's cell strings are all of a table's text
    that is held at a time."""
    between = close_row + row_sep + open_row
    for start in range(0, len(columns[0]), _CHUNK_ROWS):
        stop = start + _CHUNK_ROWS
        cells = [map(spelling, column[start:stop].tolist())
                 for column, spelling in zip(columns, spellings)]
        if labels:
            cells = [map(label.__add__, column) for label, column in zip(labels, cells)]
        rows = between.join(map(cell_sep.join, zip(*cells)))
        yield (row_sep if start else "") + open_row + rows + close_row


def _csv_chunks(table):
    """The CSV text of a keyed table, or of a tuple of keyed tables with the
    same keys, one after another: the keys as the header line, then one
    line per row; `str` of an int or a float is its `repr`, so floats read
    back exactly, and the strings (operator and method names) need no
    quoting."""
    tables = table if isinstance(table, tuple) else (table,)
    yield ",".join(tables[0].keys) + "\n"
    for table in tables:
        columns = table.columns
        yield from _table_chunks(columns, [_spelling(c, str) for c in columns],
                                 "", ",", "\n", "")


def _json_chunks(doc):
    """`json.dumps(doc, indent=2) + "\\n"`, byte for byte, in pieces.
    `json.dumps` lays out the document with a placeholder string standing
    for each table (`_Columns`), and `_json_table` writes each table at its
    placeholder.  A placeholder whose quoted text occurs more often than
    once per table is also spelled by some key or string of the document,
    so another is tried: no data string is taken for a table."""
    tables = []

    def stand_in(value):
        if type(value) is not _Columns:
            raise TypeError(f"Object of type {type(value).__name__} "
                            "is not JSON serializable")
        tables.append(value)
        return placeholder

    attempt = 0
    while True:
        placeholder = f"toruskit-table-{attempt}"
        tables.clear()
        text = json.dumps(doc, indent=2, default=stand_in)
        quoted = json.dumps(placeholder)
        if text.count(quoted) == len(tables):
            break
        attempt += 1
    pieces = text.split(quoted)
    yield pieces[0]
    for table, before, after in zip(tables, pieces, pieces[1:]):
        line = before.rpartition("\n")[2]
        yield from _json_table(table, line[:len(line) - len(line.lstrip(" "))])
        yield after
    yield "\n"


def _json_table(table: _Columns, pad: str):
    """The `indent=2` text of the rows of `table` at depth `pad`: objects
    keyed by its keys, or lists if it has none."""
    columns = table.columns
    if not len(columns[0]):
        yield "[]"
        return
    row_pad = pad + "  "
    cell_pad = row_pad + "  "
    opening, closing = "[]" if table.keys is None else "{}"
    labels = table.keys and [json.dumps(key) + ": " for key in table.keys]
    yield "[\n" + row_pad
    yield from _table_chunks(columns, [_spelling(c, json.dumps) for c in columns],
                             opening + "\n" + cell_pad, ",\n" + cell_pad,
                             "\n" + row_pad + closing, ",\n" + row_pad, labels)
    yield "\n" + pad + "]"


def _field_doc(grid: transform.TorusGrid, kind: str, values: np.ndarray) -> dict:
    """The JSON document of a field: `values`, row-major, as `[re, im]`
    rows; `kind` is "grid" for samples, "spectral" for coefficients."""
    flat = values.ravel()
    return {"dimension": grid.dimension, "points_per_axis": grid.points_per_axis,
            "kind": kind, "values": _Columns((flat.real, flat.imag))}


def _record_table(keys, rows) -> _Columns:
    """The keyed table of `rows`, one ndarray column per key."""
    return _Columns(tuple(map(np.array, zip(*rows))), keys)


def _write_table(args, make_table, make_doc=None) -> None:
    """Write the keyed table (or tables) of `make_table()` as CSV, or `make_doc()`
    (default: the table, one object per row) as JSON; only the format asked
    for is built, so a field is encoded once."""
    if args.format == "csv":
        chunks = _csv_chunks(make_table())
    else:
        chunks = _json_chunks((make_doc or make_table)())
    _write(args.output, chunks)


def _report_failures(failures: list[str]) -> int:
    for failure in failures:
        print(f"check failed: {failure}", file=sys.stderr)
    return 1 if failures else 0


def _random_spectral_field(
    grid: transform.TorusGrid, rng: np.random.Generator
) -> transform.SpectralField:
    return transform.SpectralField(grid, transform._random_coefficients(grid, rng, 1)[0])


def _check_tail_bounds(c: transform.SpectralField):
    """The table (N, tail_lhs, tail_rhs) of the H^1 tail bound, N = 0..box
    radius."""
    profile = embedding.tail_profile(c)
    table = _Columns((np.arange(len(profile.lhs)), profile.lhs, profile.rhs),
                     ("N", "tail_lhs", "tail_rhs"))
    return table, checks.tail_failures(profile.holds)


# ---------------------------------------------------------------------------
# Subcommands.
# ---------------------------------------------------------------------------


def _cmd_transform(args) -> int:
    grid = _make_grid(args.dimension, args.points)
    c, roundtrip, defect, failures = checks.check_transform(
        transform.random_field(grid, np.random.default_rng(args.seed))
    )
    sobolev = operators.sobolev_norm_sq(c, args.sobolev)
    print(f"roundtrip_error = {roundtrip!r}")
    print(f"plancherel_defect = {defect!r}")
    print(
        f"sobolev_norm_sq(s={args.sobolev}) = {sobolev!r} "
        "(summed over the stored box only; exact for band-limited fields)"
    )
    keys = (*(f"xi_{j + 1}" for j in range(grid.dimension)), "re", "im")
    # the file lists the box centred, xi = -h..h per axis
    axes = tuple(range(grid.dimension))
    flat = np.fft.fftshift(c.coefficients, axes).ravel()

    def table():
        xi = np.fft.fftshift(transform._frequency_vectors(grid).reshape(*grid.shape, -1), axes)
        return _Columns((*xi.reshape(grid.size, -1).T, flat.real, flat.imag), keys)

    _write_table(args, table, lambda: _field_doc(grid, "spectral", flat))
    return _report_failures(failures)


def _cmd_spectrum(args) -> int:
    tables = spectral.spectra(args.dimension, args.level_cap)

    def table():
        # one table per operator, its name one object broadcast over its
        # rows: no column is concatenated
        return tuple(
            _Columns((np.broadcast_to(np.array(name, dtype=object), len(eig)), eig, mult),
                     ("operator", "eigenvalue", "multiplicity"))
            for name, (eig, mult) in tables.items())

    _write_table(args, table, lambda: {
        name: {"operator": name, "truncation": args.level_cap, "levels": _Columns(pair)}
        for name, pair in tables.items()})
    return 0


def _cmd_truncate(args) -> int:
    grid = _make_grid(args.dimension, args.points)
    cutoff = args.truncation
    needed = cutoff + 2
    if grid.box_radius < needed:
        raise UsageError(
            f"points: box radius {grid.box_radius} too small for truncation "
            f"{cutoff}; need radius >= {needed} (points >= {2 * needed + 1})"
        )
    rows, failures = checks.check_norm_law(grid, range(cutoff + 1), args.seed)
    _write_table(args, lambda: _record_table(
        ("N", "exact_error", "power_iteration_error", "abs_diff"), rows))
    return _report_failures(failures)


def _cmd_embed_demo(args) -> int:
    grid = _make_grid(args.dimension, args.points, MAX_EMBED_POINTS)
    side = Path(args.output).with_suffix(".json") if args.format == "csv" else None
    if side == Path(args.output):
        raise UsageError(
            f"output: {args.output} would be overwritten by the extraction "
            "report written beside a csv table; give the table another suffix"
        )

    c = _random_spectral_field(grid, np.random.default_rng(args.seed))
    tails, failures = _check_tail_bounds(c)
    try:
        extraction, extraction_failures = checks.check_extraction(
            grid, args.epsilon, args.seed
        )
    except embedding.InsufficientResolutionError as exc:
        raise UsageError(f"epsilon: {exc}") from exc

    _write_table(args, lambda: tails, lambda: {"tails": tails, "extraction": extraction})
    if side is not None:
        _write(str(side), _json_chunks(extraction))
    return _report_failures(failures + extraction_failures)


def _cmd_solve(args) -> int:
    grid = _make_grid(args.dimension, args.points)
    f = transform.random_field(grid, np.random.default_rng(args.seed))
    u, reports, gap, failures = checks.check_solve(f)
    for rep in reports:
        print(f"{rep.method} residual_l2 = {rep.residual_l2!r} after {rep.iterations} "
              f"iterations ({rep.wall_time:.3f} s)")
    print(f"l2 disagreement = {gap!r}")

    table = _record_table(("method", "residual_l2", "iterations"),
                          [(r.method, r.residual_l2, r.iterations) for r in reports])
    _write_table(
        args,
        lambda: table,
        lambda: {
            "input_l2": transform.grid_l2_norm(f),
            "l2_disagreement": gap,
            "reports": table,
            "solution": _field_doc(grid, "grid", u.values),
        },
    )
    return _report_failures(failures)


def _cmd_bench(args) -> int:
    """Each method's medians over the seeded repetitions of the `solve` check,
    the wall time printed; a failure on any repetition fails the command."""
    grid = _make_grid(args.dimension, args.points)
    rng = np.random.default_rng(args.seed)
    runs, failures = [], []
    for repetition in range(1, args.repetitions + 1):
        _, reports, _, run_failures = checks.check_solve(transform.random_field(grid, rng))
        runs.append(reports)
        failures += [f"repetition {repetition}: {failure}" for failure in run_failures]
    rows = []
    for reports in zip(*runs):
        print(f"{reports[0].method} median over {args.repetitions} repetitions "
              f"({statistics.median(r.wall_time for r in reports):.6f} s)")
        rows.append((reports[0].method, args.dimension, args.points, args.seed,
                     statistics.median(r.residual_l2 for r in reports),
                     int(round(statistics.median(r.iterations for r in reports)))))
    _write_table(args, lambda: _record_table(
        ("method", "n", "M", "seed", "residual_l2", "iterations"), rows))
    return _report_failures(failures)


def _cmd_verify(args) -> int:
    grid = _make_grid(args.dimension, args.points, MAX_VERIFY_POINTS)
    results = checks.verify(grid, args.seed)
    for r in results:
        print(f"{'FAIL' if r.failures else 'PASS'} {r.name}: {r.detail} ({r.seconds:.3f} s)")
    return _report_failures([f"{r.name}: {failure}" for r in results for failure in r.failures])


# ---------------------------------------------------------------------------
# Parser.
# ---------------------------------------------------------------------------


def _checked(kind, holds, rule: str):
    """An argparse `type=`: `kind(text)`, refused unless `holds` of it;
    argparse then names the flag and exits 2 before any work is done."""

    def parse(text: str):
        value = kind(text)
        if not holds(value):
            raise argparse.ArgumentTypeError(f"must be {rule}, got {text!r}")
        return value

    parse.__name__ = kind.__name__  # argparse: "invalid int value: 'x'"
    return parse


_NON_NEGATIVE = _checked(int, lambda v: v >= 0, ">= 0")
_LEVEL_CAP = _checked(int, lambda v: 0 <= v <= MAX_LEVEL_CAP,
                      f"between 0 and MAX_LEVEL_CAP = {MAX_LEVEL_CAP}")
_REPETITIONS = _checked(int, lambda v: v >= 1, ">= 1")
_EPSILON = _checked(float, lambda v: math.isfinite(v) and v > 0, "finite and > 0")
_SOBOLEV = _checked(float, math.isfinite, "finite")
_OUTPUT = _checked(str, lambda v: Path(v).parent.is_dir() and not Path(v).is_dir(),
                   "a file in an existing directory")


def _add_common(sub):
    sub.add_argument("--dimension", type=int, required=True, choices=_DIMENSIONS)
    sub.add_argument("--points", type=int, required=True)
    sub.add_argument("--seed", type=_NON_NEGATIVE, required=True)


def _add_output(sub):
    sub.add_argument("--output", type=_OUTPUT, required=True)
    sub.add_argument("--format", choices=("json", "csv"), default="csv")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="toruskit",
        description="Spectral-operator toolkit on the n-dimensional torus.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    p = subparsers.add_parser(
        "transform", help="forward-transform a seeded random field and self-check"
    )
    _add_common(p)
    p.add_argument("--sobolev", type=_SOBOLEV, default=0.0)
    _add_output(p)
    p.set_defaults(func=_cmd_transform)

    p = subparsers.add_parser(
        "spectrum", help="eigenvalue levels of the Laplacian and the resolvent"
    )
    p.add_argument("--dimension", type=int, required=True, choices=_DIMENSIONS)
    p.add_argument("--level-cap", type=_LEVEL_CAP, required=True)
    _add_output(p)
    p.set_defaults(func=_cmd_spectrum)

    p = subparsers.add_parser(
        "truncate",
        help="exact vs Lanczos-estimated truncation errors for N = 0..truncation",
    )
    _add_common(p)
    p.add_argument("--truncation", type=_NON_NEGATIVE, required=True)
    _add_output(p)
    p.set_defaults(func=_cmd_truncate)

    p = subparsers.add_parser(
        "embed-demo", help="tail-bound table and Cauchy-subfamily extraction"
    )
    _add_common(p)
    p.add_argument("--epsilon", type=_EPSILON, required=True)
    _add_output(p)
    p.set_defaults(func=_cmd_embed_demo)

    p = subparsers.add_parser("solve", help="solve (Delta+1)u = f both ways")
    _add_common(p)
    _add_output(p)
    p.set_defaults(func=_cmd_solve)

    p = subparsers.add_parser(
        "bench", help="time both solvers, with the solve check on every repetition"
    )
    _add_common(p)
    p.add_argument("--repetitions", type=_REPETITIONS, default=3)
    _add_output(p)
    p.set_defaults(func=_cmd_bench)

    p = subparsers.add_parser("verify", help="run the full invariant suite")
    p.add_argument("--dimension", type=int, default=2, choices=_DIMENSIONS)
    p.add_argument("--points", type=int, default=9)
    p.add_argument("--seed", type=_NON_NEGATIVE, default=1)
    p.set_defaults(func=_cmd_verify)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The one parser `main` uses: building it takes about 1.5 ms, and
    argparse gives every `parse_args` a fresh Namespace."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except checks.NUMERICAL_FAILURES as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
