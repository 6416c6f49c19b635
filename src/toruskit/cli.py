"""Command-line surface: transforms, spectra, truncation tables, embedding
demos, solves, and benchmarks, emitting JSON or CSV for offline plotting.

Exit codes: 0 on success, 1 when a numerical self-check fails, 2 on
usage/validation errors.  Commands that draw random data require an explicit
--seed (there is no wall-clock default), and identical configurations
produce byte-identical data files apart from wall-time columns.

Each self-check is one `_check_*` function, called by its command and by
the matching `verify` group, so both apply the same rule; `bench` runs the
`solve` check on every repetition.  `verify` prints one PASS/FAIL line per
group with its wall seconds.  A flag whose rule needs no other flag is
validated once, by its argparse `type=`, so a bad value exits 2 naming the
flag before any work is done; `_make_grid` checks `--points` against
`--dimension`.
A command's CSV table and JSON document are written from the same rows.
Every JSON file is laid out exactly as `json.dumps(doc, indent=2)` would
write it, byte for byte, by the one writer `_json_text`.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import sys
import time
from json.encoder import encode_basestring_ascii
from pathlib import Path

import numpy as np

from . import embedding, operators, solver, spectral, transform

_DIMENSIONS = (1, 2, 3)
# Largest grid a command builds: 2**22 points, 64 MiB per complex field.
MAX_GRID_POINTS = 2**22
# Largest grid `verify` checks: its fast-vs-naive and eigenpair groups cost
# O(size**2), seconds at this size and minutes beyond it.
MAX_VERIFY_POINTS = 2**13
# Largest `spectrum --level-cap`: in 3-D, cap 2**20 takes about 12 s and
# 661 MiB and writes 96 MB of JSON, about as long as `verify` at its limit;
# time grows about 5x per 4x in cap.
MAX_LEVEL_CAP = 2**20


class UsageError(ValueError):
    pass


def _make_grid(n: int, points: int) -> transform.TorusGrid:
    try:
        grid = transform.TorusGrid(n, points)
    except ValueError as exc:
        raise UsageError(f"points: {exc}") from exc
    if grid.size > MAX_GRID_POINTS:
        raise UsageError(
            f"points: a grid of {points}**{n} = {grid.size} points exceeds "
            f"the limit of {MAX_GRID_POINTS}"
        )
    return grid


def _write(path: str, text: str) -> None:
    Path(path).write_text(text)
    print(f"wrote {path}")


def _json_text(doc) -> str:
    """`json.dumps(doc, indent=2) + "\\n"`, byte for byte, without the
    pure-Python encoder that `indent` selects for every value: dicts and
    lists are laid out here, numeric row tables column by column, ints and
    finite floats by their `repr` as json does, keys by json's own string
    encoder, and every other leaf by `json.dumps`."""
    return _json_value(doc, "") + "\n"


def _json_value(value, pad: str) -> str:
    """`json.dumps(value, indent=2)` with every line after the first
    indented by `pad`; JSON text holds no raw newline inside a string, so
    that indentation is exactly `json.dumps`'s at this depth."""
    kind = type(value)
    if kind is int:
        return int.__repr__(value)
    if kind is float and math.isfinite(value):
        return float.__repr__(value)
    inner = pad + "  "
    if kind is list and value:
        rows = _json_rows(value, pad)
        if rows is not None:
            return rows
        items = [_json_value(item, inner) for item in value]
        return "[\n" + inner + (",\n" + inner).join(items) + "\n" + pad + "]"
    if kind is dict and value and all(type(key) is str for key in value):
        items = [encode_basestring_ascii(key) + ": " + _json_value(item, inner)
                 for key, item in value.items()]
        return "{\n" + inner + (",\n" + inner).join(items) + "\n" + pad + "}"
    # bool, None, str, NaN/inf, tuples, empty containers, non-str keys,
    # subclasses such as numpy scalars: json.dumps's own encoding
    return json.dumps(value, indent=2).replace("\n", "\n" + pad)


def _json_rows(rows: list, pad: str) -> str | None:
    """The `indent=2` text of a list of equal-width list rows whose columns
    are each all Python ints or all finite Python floats (levels, field
    values), formatted a column at a time; None for any other list."""
    if set(map(type, rows)) != {list}:
        return None
    widths = set(map(len, rows))
    if len(widths) != 1 or 0 in widths:
        return None
    columns = []
    for column in zip(*rows):
        kinds = set(map(type, column))
        if kinds == {int}:
            columns.append(map(int.__repr__, column))
        elif kinds == {float} and math.isfinite(sum(column)):
            # the sum is NaN or inf if any entry is, and json spells those
            # NaN/Infinity, not float.__repr__'s nan/inf
            columns.append(map(float.__repr__, column))
        else:
            return None
    row_pad = pad + "  "
    cell_pad = row_pad + "  "
    open_row, close_row = "[\n" + cell_pad, "\n" + row_pad + "]"
    cells = map((",\n" + cell_pad).join, zip(*columns))
    return ("[\n" + row_pad + open_row
            + (close_row + ",\n" + row_pad + open_row).join(cells)
            + close_row + "\n" + pad + "]")


def _csv_text(header, rows) -> str:
    """Rows of strings, Python ints and Python floats; `str` of an int or a
    float is its `repr`, so floats read back exactly."""
    lines = [",".join(header)]
    lines.extend(",".join(map(str, row)) for row in rows)
    return "\n".join(lines) + "\n"


def _records(header, rows) -> list[dict]:
    return [dict(zip(header, row)) for row in rows]


def _write_table(args, header, rows, make_doc=None) -> None:
    """Write `rows` as CSV, or `make_doc()` (default: one object per row) as
    JSON; only the format asked for is built, so a field is encoded once."""
    if args.format == "csv":
        text = _csv_text(header, rows)
    elif make_doc is None:
        text = _json_text(_records(header, rows))
    else:
        text = _json_text(make_doc())
    _write(args.output, text)


def _exceeds(what: str, value: float, bound: float) -> list[str]:
    return [f"{what} {value} > {bound}"] if value > bound else []


def _report_failures(failures: list[str]) -> int:
    for failure in failures:
        print(f"check failed: {failure}", file=sys.stderr)
    return 1 if failures else 0


def _random_grid_field(grid: transform.TorusGrid, seed: int) -> transform.GridField:
    return solver.random_field(grid, np.random.default_rng(seed))


def _random_spectral_field(
    grid: transform.TorusGrid, rng: np.random.Generator
) -> transform.SpectralField:
    return transform.SpectralField(
        grid, rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
    )


# ---------------------------------------------------------------------------
# Self-checks shared by the commands and `verify`.  Each returns its measured
# numbers and a list of failures, empty when the invariant holds.
# ---------------------------------------------------------------------------


def _check_transform(u: transform.GridField):
    """Forward-transform u; round trip (relative to max|u|, so independent
    of scale) and Parseval must hold to 1e-12.  Returns (c, roundtrip error,
    Parseval defect, failures)."""
    c = transform.forward(u)
    roundtrip = float(np.max(np.abs(transform.inverse(c).values - u.values))) / float(
        np.max(np.abs(u.values))
    )
    defect = transform.plancherel_defect(u)
    failures = _exceeds("roundtrip error", roundtrip, 1e-12)
    failures += _exceeds("plancherel defect", defect, 1e-12)
    return c, roundtrip, defect, failures


def _check_norm_law(grid: transform.TorusGrid, cutoffs, seed: int):
    """Rows (N, exact, estimate, diff): the power-iteration norm of each
    resolvent tail against 1/((N+1)^2+1), to 1e-8."""
    rows = []
    for k in cutoffs:
        exact = spectral.truncation_error_exact(k)
        estimate = spectral.operator_norm_power_iteration(
            operators.resolvent_tail_symbol(k), grid, tol=1e-9, seed=seed
        )
        rows.append((k, exact, estimate, abs(exact - estimate)))
    failures = [f"N={k}: |exact - power_iteration| = {diff} > 1e-8"
                for k, _, _, diff in rows if diff > 1e-8]
    return rows, failures


def _check_tail_bounds(c: transform.SpectralField):
    """Rows (N, tail_lhs, tail_rhs) of the H^1 tail bound, N = 0..box radius."""
    rows, failures = [], []
    for cutoff in range(c.grid.box_radius + 1):
        bound = embedding.tail_bound_check(c, cutoff)
        rows.append((cutoff, bound.lhs, bound.rhs))
        if not bound.holds:
            failures.append(f"tail bound violated at N={cutoff}")
    return rows, failures


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
        "item_count": len(seq.items),
        "indices": list(indices),
        "max_pairwise_l2": max_distance,
    }
    failures = ["extraction returned fewer than 2 indices"] if len(indices) < 2 else []
    failures += _exceeds("extracted pair at L2 distance", max_distance, epsilon)
    return report, failures


def _check_solve(f: transform.GridField):
    """Solve (Delta + 1) u = f by the multiplier and by CG.

    Each solve's normwise backward error ||f - A u|| / (||A|| ||u|| + ||f||)
    (Rigal & Gaches 1967), with the exact ||A|| = 1 + n h^2 on the box of
    radius h, must be <= 1e-10; a residual bound in ||f|| alone falls below
    the roundoff of applying A when ||A|| is large.  The solutions must agree
    to 1e-9, and ||u|| <= ||f|| since the resolvent has norm 1.
    Returns (u, (multiplier report, CG report), disagreement, failures).
    """
    u_mult, rep_mult = solver.solve_multiplier(f)
    u_cg, rep_cg = solver.solve_cg(f, tol=1e-10)
    gap = transform.grid_l2_norm(u_mult - u_cg)
    f_l2 = transform.grid_l2_norm(f)
    a_norm = 1 + f.grid.dimension * f.grid.box_radius**2
    failures = []
    for u, rep in ((u_mult, rep_mult), (u_cg, rep_cg)):
        backward = rep.residual_l2 / (a_norm * transform.grid_l2_norm(u) + f_l2)
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
        _random_grid_field(grid, args.seed)
    )
    print(f"roundtrip_error = {roundtrip!r}")
    print(f"plancherel_defect = {defect!r}")
    print(
        f"sobolev_norm_sq(s={args.sobolev}) = "
        f"{operators.sobolev_norm_sq(c, args.sobolev)!r} "
        "(summed over the stored box only; exact for band-limited fields)"
    )
    header = [f"xi_{j + 1}" for j in range(grid.dimension)] + ["re", "im"]
    rows = (
        (*xi, float(z.real), float(z.imag))
        for xi, z in zip(grid.frequencies(), c.coefficients.ravel())
    )
    _write_table(args, header, rows, lambda: transform.field_to_doc(c))
    return _report_failures(failures)


def _cmd_spectrum(args) -> int:
    lap, res = spectral._spectra(args.dimension, args.level_cap)
    rows = ((r.operator, eig, mult) for r in (lap, res) for eig, mult in r.levels)
    _write_table(args, ("operator", "eigenvalue", "multiplicity"), rows,
                 lambda: {"laplacian": lap.to_doc(), "resolvent": res.to_doc()})
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
    rows, failures = _check_norm_law(grid, range(cutoff + 1), args.seed)
    _write_table(args, ("N", "exact_error", "power_iteration_error", "abs_diff"), rows)
    return _report_failures(failures)


def _cmd_embed_demo(args) -> int:
    grid = _make_grid(args.dimension, args.points)
    side = Path(args.output).with_suffix(".json") if args.format == "csv" else None
    if side == Path(args.output):
        raise UsageError(
            f"output: {args.output} would be overwritten by the extraction "
            "report written beside a csv table; give the table another suffix"
        )

    c = _random_spectral_field(grid, np.random.default_rng(args.seed))
    tail_rows, failures = _check_tail_bounds(c)
    try:
        extraction, extraction_failures = _check_extraction(
            grid, args.epsilon, args.seed
        )
    except embedding.InsufficientResolutionError as exc:
        raise UsageError(f"epsilon: {exc}") from exc

    header = ("N", "tail_lhs", "tail_rhs")
    _write_table(args, header, tail_rows, lambda: {
        "tails": _records(header, tail_rows), "extraction": extraction})
    if side is not None:
        _write(str(side), _json_text(extraction))
    return _report_failures(failures + extraction_failures)


def _cmd_solve(args) -> int:
    grid = _make_grid(args.dimension, args.points)
    f = _random_grid_field(grid, args.seed)
    u, reports, gap, failures = _check_solve(f)
    rep_mult, rep_cg = reports
    print(f"multiplier residual_l2 = {rep_mult.residual_l2!r}")
    print(f"cg residual_l2 = {rep_cg.residual_l2!r} after {rep_cg.iterations} iterations")
    print(f"l2 disagreement = {gap!r}")

    header = ("method", "residual_l2", "iterations", "wall_time")
    rows = [(r.method, r.residual_l2, r.iterations, r.wall_time) for r in reports]
    _write_table(
        args,
        header,
        rows,
        lambda: {
            "input_l2": transform.grid_l2_norm(f),
            "l2_disagreement": gap,
            "reports": _records(header, rows),
            "solution": transform.field_to_doc(u),
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
        _, reports, _, run_failures = _check_solve(solver.random_field(grid, rng))
        runs.append(reports)
        failures += [f"repetition {repetition}: {failure}" for failure in run_failures]
    header = ("method", "n", "M", "seed", "median_seconds", "residual_l2", "iterations")
    rows = [
        (reports[0].method, args.dimension, args.points, args.seed,
         statistics.median(r.wall_time for r in reports),
         statistics.median(r.residual_l2 for r in reports),
         int(round(statistics.median(r.iterations for r in reports))))
        for reports in zip(*runs)
    ]
    _write_table(args, header, rows)
    return _report_failures(failures)


# ---------------------------------------------------------------------------
# verify: the whole invariant suite; each group returns (summary, failures).
# ---------------------------------------------------------------------------


def _verify_transforms(grid, seed) -> tuple[str, list[str]]:
    rng = np.random.default_rng(seed)
    worst_rt = worst_defect = 0.0
    failures = []
    for _ in range(20):
        _, roundtrip, defect, field_failures = _check_transform(
            solver.random_field(grid, rng)
        )
        worst_rt = max(worst_rt, roundtrip)
        worst_defect = max(worst_defect, defect)
        failures += field_failures
        real = transform.GridField(grid, rng.standard_normal(grid.shape) + 0j)
        if not transform.forward(real).is_conjugate_symmetric(1e-12):
            failures.append("transform of a real field is not conjugate-symmetric")
    return f"roundtrip {worst_rt:.2e}, plancherel {worst_defect:.2e}", failures


def _verify_fast_vs_naive(grid, seed) -> tuple[str, list[str]]:
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(3):
        u = solver.random_field(grid, rng)
        fast = transform.forward(u).coefficients
        slow = transform.naive_forward(u).coefficients
        worst = max(worst, float(np.max(np.abs(fast - slow))))
        c = _random_spectral_field(grid, rng)
        fast_u = transform.inverse(c).values
        slow_u = transform.naive_inverse(c).values
        worst = max(worst, float(np.max(np.abs(fast_u - slow_u))))
    failures = _exceeds("max |fast - naive|", worst, 1e-10)
    return f"max |fast - naive| = {worst:.2e}", failures


def _verify_eigenpairs(grid) -> tuple[str, list[str]]:
    worst = float(np.max(spectral.eigenpair_residuals(grid)))
    failures = _exceeds("worst eigenpair residual", worst, 1e-12)
    return f"worst residual {worst:.2e} over {grid.size} modes", failures


def _verify_operator_norms(grid, seed) -> tuple[str, list[str]]:
    estimate = spectral.operator_norm_power_iteration(
        operators.resolvent_symbol(), grid, tol=1e-9, seed=seed
    )
    rows, failures = _check_norm_law(grid, range(min(3, grid.box_radius - 2) + 1), seed)
    failures += _exceeds("resolvent: |1 - power_iteration|", abs(estimate - 1.0), 1e-8)
    worst = max([abs(estimate - 1.0)] + [diff for *_, diff in rows])
    return f"worst |power-iteration - exact| = {worst:.2e}", failures


def _verify_tail_bounds(grid, seed) -> tuple[str, list[str]]:
    rng = np.random.default_rng(seed)
    for field in range(1, 51):
        _, failures = _check_tail_bounds(_random_spectral_field(grid, rng))
        if failures:
            return f"field {field} of 50", failures
    return "50 fields, all cutoffs", []


def _verify_extraction(seed) -> tuple[str, list[str]]:
    report, failures = _check_extraction(transform.TorusGrid(1, 17), 0.5, seed)
    count, worst = len(report["indices"]), report["max_pairwise_l2"]
    return f"{count} indices, max pairwise L2 {worst:.3f}", failures


def _verify_solver(grid, seed) -> tuple[str, list[str]]:
    _, (_, rep_cg), gap, failures = _check_solve(_random_grid_field(grid, seed))
    return f"disagreement {gap:.2e}, cg iterations {rep_cg.iterations}", failures


def _cmd_verify(args) -> int:
    grid = _make_grid(args.dimension, args.points)
    if grid.size > MAX_VERIFY_POINTS:
        raise UsageError(
            f"points: verify checks grids of at most {MAX_VERIFY_POINTS} points, "
            f"{args.points}**{args.dimension} = {grid.size}"
        )
    groups = [
        ("transform-roundtrip-plancherel", lambda: _verify_transforms(grid, args.seed)),
        ("fast-vs-naive-transform", lambda: _verify_fast_vs_naive(grid, args.seed)),
        ("resolvent-eigenpairs", lambda: _verify_eigenpairs(grid)),
        ("operator-norms", lambda: _verify_operator_norms(grid, args.seed)),
        ("tail-bounds", lambda: _verify_tail_bounds(grid, args.seed)),
        ("rellich-extraction", lambda: _verify_extraction(args.seed)),
        ("solver-agreement", lambda: _verify_solver(grid, args.seed)),
    ]
    failures = []
    for name, check in groups:
        start = time.perf_counter()
        detail, group_failures = check()
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


def _add_common(sub, *, dimension=None, points=None, seed_required=True):
    if dimension is None:
        sub.add_argument("--dimension", type=int, required=True, choices=_DIMENSIONS)
    else:
        sub.add_argument("--dimension", type=int, default=dimension, choices=_DIMENSIONS)
    if points is None:
        sub.add_argument("--points", type=int, required=True)
    else:
        sub.add_argument("--points", type=int, default=points)
    if seed_required:
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
        help="exact vs power-iteration truncation errors for N = 0..truncation",
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
    _add_common(p, dimension=2, points=9, seed_required=False)
    p.add_argument("--seed", type=_NON_NEGATIVE, default=1)
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (spectral.PowerIterationError, solver.ConjugateGradientError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
