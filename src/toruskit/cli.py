"""Command-line surface: transforms, spectra, truncation tables, embedding
demos, solves, and benchmarks, emitting JSON or CSV for offline plotting.

Exit codes: 0 on success, 1 when a numerical self-check fails, an
iterative loop does not converge or a computed field or symbol holds NaN
or inf, 2 on usage/validation errors.  Commands that draw random data
require an explicit --seed (there is no wall-clock default), and identical
configurations produce byte-identical data files but for `bench`'s
`median_seconds`, with one BLAS thread or two: norms and inner products are
numpy pairwise sums (`transform._field_sums`), the one LAPACK call left is the
Lanczos `eigh`, and `solve` prints its wall times instead of writing them.

Each self-check is one `_check_*` function, called by its command and by
the matching `verify` group, so both apply the same rule; `bench` runs the
`solve` check on every repetition.  `verify` prints one PASS/FAIL line per
group with its wall seconds; a loop that fails to converge, or a field or
symbol that holds NaN or inf, fails its group, and the other groups still
run.  A flag whose rule needs no other flag is validated once, by its
argparse `type=`, so a bad value exits 2 naming the flag before any work is
done; `_make_grid` checks `--points` against `--dimension` and the
command's grid-size limit.
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
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import embedding, operators, solver, spectral, transform

_DIMENSIONS = (1, 2, 3)
# Largest grid a command builds: 2**22 points, 64 MiB per complex field.
MAX_GRID_POINTS = 2**22
# Largest grid `verify` checks: the fast-vs-naive and eigenpair groups take
# direct sums, six and one, of O(n M**(n+1)), which is O(size**2) in 1-D,
# so they set the 1-D limit; preconditioned CG takes at most about 20
# iterations on any grid.  At 1-D M=8191 (one BLAS thread, 2-core x86-64
# VM) the groups take: fast-vs-naive 0.8 s, resolvent-eigenpairs 0.3 s,
# solver-agreement 0.1 s (16 CG iterations), the rest under 0.15 s each;
# about 1.7 s in all.
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


# A loop that stops without converging, or a computed field or symbol that
# holds NaN or inf; a command exits 1 on it, and in `verify` it is the
# failure of the group that ran into it.
_NUMERICAL_FAILURES = (spectral.LanczosError, solver.ConjugateGradientError,
                       transform.NonFiniteError)


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


def _exceeds(what: str, value: float, bound: float) -> list[str]:
    return [f"{what} {value} > {bound}"] if value > bound else []


def _report_failures(failures: list[str]) -> int:
    for failure in failures:
        print(f"check failed: {failure}", file=sys.stderr)
    return 1 if failures else 0


def _random_spectral_field(
    grid: transform.TorusGrid, rng: np.random.Generator
) -> transform.SpectralField:
    return transform.SpectralField(grid, transform.random_field(grid, rng).values)


# ---------------------------------------------------------------------------
# Self-checks shared by the commands and `verify`.  Each returns its measured
# numbers and a list of failures, empty when the invariant holds.
# ---------------------------------------------------------------------------


def _check_transform(u: transform.GridField):
    """Forward-transform u, one field or a stack of fields; for each field
    the round trip (relative to its max|u|, so independent of scale) and
    Parseval must hold to 1e-12.  Returns (forward(u), the worst roundtrip
    error, the worst Parseval defect, failures)."""
    c = transform.forward(u)
    back = transform.inverse(c)
    axes = tuple(range(-u.grid.dimension, 0))
    roundtrip = (np.max(np.abs(back.values - u.values), axis=axes)
                 / np.max(np.abs(u.values), axis=axes))
    defect = transform.plancherel_defect(u, c)
    failures = []
    for field_rt, field_defect in zip(np.atleast_1d(roundtrip).tolist(),
                                      np.atleast_1d(defect).tolist()):
        failures += _exceeds("roundtrip error", field_rt, 1e-12)
        failures += _exceeds("plancherel defect", field_defect, 1e-12)
    return c, float(np.max(roundtrip)), float(np.max(defect)), failures


def _check_norm_law(grid: transform.TorusGrid, cutoffs, seed: int, leading=()):
    """Rows (N, exact, estimate, diff): the Lanczos norm estimate of each
    resolvent tail against 1/((N+1)^2+1), to 1e-8.  All estimates, those of
    the symbols `leading` first, run in one lockstep call.  Returns (rows,
    failures, the estimates of `leading`)."""
    cutoffs = list(cutoffs)
    estimates = spectral.operator_norm_power_iteration(
        [*leading, *map(operators.resolvent_tail_symbol, cutoffs)], grid, tol=1e-9, seed=seed
    )
    rows = []
    for k, estimate in zip(cutoffs, estimates[len(leading):]):
        exact = spectral.truncation_error_exact(k)
        rows.append((k, exact, estimate, abs(exact - estimate)))
    failures = [f"N={k}: |exact - lanczos| = {diff} > 1e-8"
                for k, _, _, diff in rows if diff > 1e-8]
    return rows, failures, estimates[:len(leading)]


def _tail_failures(holds: np.ndarray) -> list[str]:
    """The failures of one field's tail profile: a cutoff where it fails."""
    return [f"tail bound violated at N={cutoff}"
            for cutoff in np.flatnonzero(~holds).tolist()]


def _check_tail_bounds(c: transform.SpectralField):
    """The table (N, tail_lhs, tail_rhs) of the H^1 tail bound, N = 0..box
    radius."""
    profile = embedding.tail_profile(c)
    table = _Columns((np.arange(len(profile.lhs)), profile.lhs, profile.rhs),
                     ("N", "tail_lhs", "tail_rhs"))
    return table, _tail_failures(profile.holds)


def _check_extraction(grid: transform.TorusGrid, epsilon: float, seed: int):
    """Extract from 64 seeded H^1-bounded fields; at least two indices, every
    pair within epsilon by the direct oracle.  Returns the report."""
    seq = embedding.random_bounded_sequence(grid, count=64, h1_bound=1.0, seed=seed)
    indices = embedding.rellich_extract(seq, epsilon)
    max_distance = max(embedding.pairwise_l2_distances(seq, indices), default=0.0)
    report = {
        "epsilon": epsilon,
        "h1_bound": seq.h1_bound,
        "cutoff": embedding.required_cutoff(seq.h1_bound, epsilon),
        "item_count": len(seq.coefficients),
        "indices": list(indices),
        "max_pairwise_l2": max_distance,
    }
    failures = ["extraction returned fewer than 2 indices"] if len(indices) < 2 else []
    failures += _exceeds("extracted pair at L2 distance", max_distance, epsilon)
    return report, failures


def _check_solve(f: transform.GridField):
    """Solve (Delta + 1) u = f by the multiplier and by CG.

    Each solve's normwise backward error, its residual over
    `solver.backward_error_scale`, must be <= 1e-10; a residual bound in
    ||f|| alone falls below the roundoff of applying A when ||A|| is large.  The solutions must agree
    to 1e-9, and ||u|| <= ||f|| since the resolvent has norm 1.
    Returns (u, (multiplier report, CG report), disagreement, failures).
    """
    u_mult, rep_mult = solver.solve_multiplier(f)
    u_cg, rep_cg = solver.solve_cg(f, tol=1e-10)
    gap = transform.grid_l2_norm(u_mult - u_cg)
    f_l2 = transform.grid_l2_norm(f)
    failures = []
    for u, rep in ((u_mult, rep_mult), (u_cg, rep_cg)):
        backward = rep.residual_l2 / solver.backward_error_scale(u, f)
        failures += _exceeds(f"{rep.method} backward error", backward, 1e-10)
    failures += _exceeds("solver disagreement", gap, 1e-9)
    failures += _exceeds("||u||", transform.grid_l2_norm(u_mult), f_l2 * (1 + 1e-12))
    return u_mult, (rep_mult, rep_cg), gap, failures


# ---------------------------------------------------------------------------
# Subcommands.
# ---------------------------------------------------------------------------


def _cmd_transform(args) -> int:
    grid = _make_grid(args.dimension, args.points)
    c, roundtrip, defect, failures = _check_transform(
        transform.random_field(grid, np.random.default_rng(args.seed))
    )
    print(f"roundtrip_error = {roundtrip!r}")
    print(f"plancherel_defect = {defect!r}")
    print(
        f"sobolev_norm_sq(s={args.sobolev}) = "
        f"{operators.sobolev_norm_sq(c, args.sobolev)!r} "
        "(summed over the stored box only; exact for band-limited fields)"
    )
    keys = (*(f"xi_{j + 1}" for j in range(grid.dimension)), "re", "im")
    flat = c.coefficients.ravel()
    _write_table(args, lambda: _Columns(
        (*transform._frequency_vectors(grid).T, flat.real, flat.imag), keys),
        lambda: _field_doc(grid, "spectral", flat))
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
    rows, failures, _ = _check_norm_law(grid, range(cutoff + 1), args.seed)
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
        extraction, extraction_failures = _check_extraction(
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
    u, reports, gap, failures = _check_solve(f)
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
    """The `solve` check on each repetition's seeded input; rows hold each
    method's medians, and a failure on any repetition fails the command."""
    grid = _make_grid(args.dimension, args.points)
    rng = np.random.default_rng(args.seed)
    runs, failures = [], []
    for repetition in range(1, args.repetitions + 1):
        _, reports, _, run_failures = _check_solve(transform.random_field(grid, rng))
        runs.append(reports)
        failures += [f"repetition {repetition}: {failure}" for failure in run_failures]
    rows = [
        (reports[0].method, args.dimension, args.points, args.seed,
         statistics.median(r.wall_time for r in reports),
         statistics.median(r.residual_l2 for r in reports),
         int(round(statistics.median(r.iterations for r in reports))))
        for reports in zip(*runs)
    ]
    _write_table(args, lambda: _record_table(
        ("method", "n", "M", "seed", "median_seconds", "residual_l2", "iterations"), rows))
    return _report_failures(failures)


# ---------------------------------------------------------------------------
# verify: the whole invariant suite; each group returns (summary, failures).
# ---------------------------------------------------------------------------


def _verify_transforms(grid, seed) -> tuple[str, list[str]]:
    # 20 draws of a complex field then a real one, from one stream, checked
    # a stack at a time
    rng = np.random.default_rng(seed)
    worst_rt = worst_defect = 0.0
    failures = []
    for block in transform._stack_blocks(20, grid.size):
        draws = rng.standard_normal((block.stop - block.start, 3, *grid.shape))
        fields = transform.GridField(grid, transform._complex_values(draws[:, 0], draws[:, 1]))
        reals = transform.GridField(grid, draws[:, 2] + 0j)
        del draws
        if not transform.forward(reals).is_conjugate_symmetric(1e-12):
            failures.append("transform of a real field is not conjugate-symmetric")
        _, roundtrip, defect, block_failures = _check_transform(fields)
        worst_rt, worst_defect = max(worst_rt, roundtrip), max(worst_defect, defect)
        failures += block_failures
    return f"roundtrip {worst_rt:.2e}, plancherel {worst_defect:.2e}", failures


def _verify_fast_vs_naive(grid, seed) -> tuple[str, list[str]]:
    # 3 draws of a field then of a spectral field, from one stream
    draws = transform._random_values(grid, np.random.default_rng(seed), 6)
    fields = transform.GridField(grid, draws[0::2])
    spectra = transform.SpectralField(grid, draws[1::2])
    slow_c, slow_u = transform.naive_forward(fields), transform.naive_inverse(spectra)
    fast_c, fast_u = transform.forward(fields), transform.inverse(spectra)
    worst = max(float(np.max(np.abs(fast_c.coefficients - slow_c.coefficients))),
                float(np.max(np.abs(fast_u.values - slow_u.values))))
    failures = _exceeds("max |fast - naive|", worst, 1e-10)
    return f"max |fast - naive| = {worst:.2e}", failures


def _verify_eigenpairs(grid, seed) -> tuple[str, list[str]]:
    certificate = spectral.resolvent_certificate(grid, seed)
    error = float(np.max(certificate.eigenvalue_error))
    commutator = float(np.max(certificate.commutator))
    failures = _exceeds("eigenvalue error", error, spectral.CERTIFICATE_TOL)
    failures += _exceeds("shift commutator", commutator, spectral.CERTIFICATE_TOL)
    detail = (f"eigenvalue error {error:.2e} over {grid.size} modes, shift "
              f"commutator {commutator:.2e}, P(a commutator >= "
              f"{spectral.COMMUTATOR_FLOOR:.0e} passes) <= "
              f"{certificate.miss_probability:.1e}")
    return detail, failures


def _verify_operator_norms(grid, seed) -> tuple[str, list[str]]:
    rows, failures, (estimate,) = _check_norm_law(
        grid, range(min(3, grid.box_radius - 2) + 1), seed, [operators.resolvent_symbol()]
    )
    failures += _exceeds("resolvent: |1 - lanczos|", abs(estimate - 1.0), 1e-8)
    worst = max([abs(estimate - 1.0)] + [diff for *_, diff in rows])
    return f"worst |lanczos - exact| = {worst:.2e}", failures


def _verify_tail_bounds(grid, seed) -> tuple[str, list[str]]:
    # 50 spectral fields, drawn and profiled a stack at a time
    rng = np.random.default_rng(seed)
    for block in transform._stack_blocks(50, grid.size):
        draws = transform._random_values(grid, rng, block.stop - block.start)
        profile = embedding.tail_profile(transform.SpectralField(grid, draws))
        for field, holds in enumerate(profile.holds, block.start + 1):
            failures = _tail_failures(holds)
            if failures:
                return f"field {field} of 50", failures
    return "50 fields, all cutoffs", []


def _verify_extraction(seed) -> tuple[str, list[str]]:
    report, failures = _check_extraction(transform.TorusGrid(1, 17), 0.5, seed)
    count, worst = len(report["indices"]), report["max_pairwise_l2"]
    return f"{count} indices, max pairwise L2 {worst:.3f}", failures


def _verify_solver(grid, seed) -> tuple[str, list[str]]:
    f = transform.random_field(grid, np.random.default_rng(seed))
    _, (_, rep_cg), gap, failures = _check_solve(f)
    return f"disagreement {gap:.2e}, cg iterations {rep_cg.iterations}", failures


def _cmd_verify(args) -> int:
    grid = _make_grid(args.dimension, args.points, MAX_VERIFY_POINTS)
    groups = [
        ("transform-roundtrip-plancherel", lambda: _verify_transforms(grid, args.seed)),
        ("fast-vs-naive-transform", lambda: _verify_fast_vs_naive(grid, args.seed)),
        ("resolvent-eigenpairs", lambda: _verify_eigenpairs(grid, args.seed)),
        ("operator-norms", lambda: _verify_operator_norms(grid, args.seed)),
        ("tail-bounds", lambda: _verify_tail_bounds(grid, args.seed)),
        ("rellich-extraction", lambda: _verify_extraction(args.seed)),
        ("solver-agreement", lambda: _verify_solver(grid, args.seed)),
    ]
    failures = []
    for name, check in groups:
        start = time.perf_counter()
        try:
            detail, group_failures = check()
        except _NUMERICAL_FAILURES as exc:
            detail = f"numerical failure: {exc}"
            group_failures = [detail]
        seconds = time.perf_counter() - start
        status = "FAIL" if group_failures else "PASS"
        print(f"{status} {name}: {detail} ({seconds:.3f} s)")
        failures += [f"{name}: {failure}" for failure in group_failures]
    return _report_failures(failures)


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
    except _NUMERICAL_FAILURES as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
