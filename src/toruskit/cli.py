"""Command-line surface: transforms, spectra, truncation tables, embedding
demos, solves, and benchmarks, emitting JSON or CSV for offline plotting.

Exit codes: 0 on success, 1 when a numerical self-check fails, 2 on
usage/validation errors.  Commands that draw random data require an explicit
--seed (there is no wall-clock default), and identical configurations
produce byte-identical data files apart from wall-time columns.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import embedding, operators, solver, spectral, transform

_DIMENSIONS = (1, 2, 3)
# Largest grid a command builds: 2**22 points, 64 MiB per complex field.
MAX_GRID_POINTS = 2**22
# Largest grid `verify` checks: its fast-vs-naive and eigenpair groups cost
# O(size**2), seconds at this size and minutes beyond it.
MAX_VERIFY_POINTS = 2**13


class UsageError(ValueError):
    pass


def _check_dimension(n: int) -> int:
    if n not in _DIMENSIONS:
        raise UsageError(f"dimension: must be one of {_DIMENSIONS}, got {n}")
    return n


def _make_grid(n: int, points: int) -> transform.TorusGrid:
    _check_dimension(n)
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
    return json.dumps(doc, indent=2) + "\n"


def _random_grid_field(grid: transform.TorusGrid, seed: int) -> transform.GridField:
    return solver.random_field(grid, np.random.default_rng(seed))


def _random_spectral_field(
    grid: transform.TorusGrid, rng: np.random.Generator
) -> transform.SpectralField:
    return transform.SpectralField(
        grid, rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
    )


# ---------------------------------------------------------------------------
# Subcommands.
# ---------------------------------------------------------------------------


def _cmd_transform(args) -> int:
    grid = _make_grid(args.dimension, args.points)
    u = _random_grid_field(grid, args.seed)
    c = transform.forward(u)

    roundtrip = float(
        np.max(np.abs(transform.inverse(c).values - u.values))
    ) / max(1.0, float(np.max(np.abs(u.values))))
    defect = transform.plancherel_defect(u)
    h_s = operators.sobolev_norm_sq(c, args.sobolev)
    print(f"roundtrip_error = {roundtrip!r}")
    print(f"plancherel_defect = {defect!r}")
    print(
        f"sobolev_norm_sq(s={args.sobolev}) = {h_s!r} "
        "(summed over the stored box only; exact for band-limited fields)"
    )

    if args.format == "json":
        _write(args.output, _json_text(transform.field_to_doc(c)))
    else:
        lines = [",".join(f"xi_{j + 1}" for j in range(grid.dimension)) + ",re,im"]
        for xi, z in zip(grid.frequencies(), c.coefficients.ravel()):
            coords = ",".join(str(x) for x in xi)
            lines.append(f"{coords},{float(z.real)!r},{float(z.imag)!r}")
        _write(args.output, "\n".join(lines) + "\n")

    failures = []
    if roundtrip > 1e-12:
        failures.append(f"roundtrip error {roundtrip} > 1e-12")
    if defect > 1e-12:
        failures.append(f"plancherel defect {defect} > 1e-12")
    return _report_failures(failures)


def _cmd_spectrum(args) -> int:
    _check_dimension(args.dimension)
    if args.level_cap < 0:
        raise UsageError(f"level-cap: must be >= 0, got {args.level_cap}")
    lap = spectral.laplacian_spectrum(args.dimension, args.level_cap)
    res = spectral.resolvent_spectrum(args.dimension, args.level_cap)
    if args.format == "json":
        _write(
            args.output,
            _json_text({"laplacian": lap.to_doc(), "resolvent": res.to_doc()}),
        )
    else:
        lines = ["operator,eigenvalue,multiplicity"]
        for report in (lap, res):
            for eig, mult in report.levels:
                lines.append(f"{report.operator},{eig!r},{mult}")
        _write(args.output, "\n".join(lines) + "\n")
    return 0


def _cmd_truncate(args) -> int:
    grid = _make_grid(args.dimension, args.points)
    cutoff = args.truncation
    if cutoff < 0:
        raise UsageError(f"truncation: must be >= 0, got {cutoff}")
    needed = cutoff + 2
    if grid.box_radius < needed:
        raise UsageError(
            f"points: box radius {grid.box_radius} too small for truncation "
            f"{cutoff}; need radius >= {needed} (points >= {2 * needed + 1})"
        )
    rows = []
    for k in range(cutoff + 1):
        exact = spectral.truncation_error_exact(k)
        estimate = spectral.operator_norm_power_iteration(
            operators.resolvent_tail_symbol(k), grid, tol=1e-9, seed=args.seed
        )
        rows.append((k, exact, estimate, abs(exact - estimate)))

    if args.format == "json":
        doc = [
            {
                "N": k,
                "exact_error": exact,
                "power_iteration_error": est,
                "abs_diff": diff,
            }
            for k, exact, est, diff in rows
        ]
        _write(args.output, _json_text(doc))
    else:
        lines = ["N,exact_error,power_iteration_error,abs_diff"]
        for k, exact, est, diff in rows:
            lines.append(f"{k},{exact!r},{est!r},{diff!r}")
        _write(args.output, "\n".join(lines) + "\n")

    failures = [
        f"N={k}: |exact - power_iteration| = {diff} > 1e-8"
        for k, _, _, diff in rows
        if diff > 1e-8
    ]
    return _report_failures(failures)


def _cmd_embed_demo(args) -> int:
    grid = _make_grid(args.dimension, args.points)
    if args.epsilon <= 0:
        raise UsageError(f"epsilon: must be positive, got {args.epsilon}")
    rng = np.random.default_rng(args.seed)

    c = _random_spectral_field(grid, rng)
    tail_rows = []
    failures = []
    for cutoff in range(grid.box_radius + 1):
        bound = embedding.tail_bound_check(c, cutoff)
        tail_rows.append((cutoff, bound.lhs, bound.rhs))
        if not bound.holds:
            failures.append(f"tail bound violated at N={cutoff}")

    try:
        seq = embedding.random_bounded_sequence(
            grid, count=64, h1_bound=1.0, seed=args.seed
        )
        indices = embedding.rellich_extract(seq, args.epsilon)
        distances = embedding.pairwise_l2_distances(seq, indices)
        max_distance = max(distances, default=0.0)
        extraction = {
            "epsilon": args.epsilon,
            "h1_bound": seq.h1_bound,
            "cutoff": embedding.required_cutoff(seq.h1_bound, args.epsilon),
            "item_count": len(seq.items),
            "indices": list(indices),
            "max_pairwise_l2": max_distance,
        }
        if len(indices) < 2:
            failures.append("extraction returned fewer than 2 indices")
        if max_distance > args.epsilon:
            failures.append(
                f"extracted pair at L2 distance {max_distance} > {args.epsilon}"
            )
    except embedding.InsufficientResolutionError as exc:
        raise UsageError(f"epsilon: {exc}") from exc

    if args.format == "json":
        doc = {
            "tails": [
                {"N": k, "tail_lhs": lhs, "tail_rhs": rhs}
                for k, lhs, rhs in tail_rows
            ],
            "extraction": extraction,
        }
        _write(args.output, _json_text(doc))
    else:
        lines = ["N,tail_lhs,tail_rhs"]
        for k, lhs, rhs in tail_rows:
            lines.append(f"{k},{lhs!r},{rhs!r}")
        _write(args.output, "\n".join(lines) + "\n")
        side = str(Path(args.output).with_suffix(".json"))
        _write(side, _json_text(extraction))
    return _report_failures(failures)


def _cmd_solve(args) -> int:
    grid = _make_grid(args.dimension, args.points)
    f = _random_grid_field(grid, args.seed)
    f_l2 = transform.grid_l2_norm(f)
    u_mult, rep_mult = solver.solve_multiplier(f)
    u_cg, rep_cg = solver.solve_cg(f, tol=1e-10)
    gap = transform.grid_l2_norm(u_mult - u_cg)
    print(f"multiplier residual_l2 = {rep_mult.residual_l2!r}")
    print(f"cg residual_l2 = {rep_cg.residual_l2!r} after {rep_cg.iterations} iterations")
    print(f"l2 disagreement = {gap!r}")

    if args.format == "json":
        doc = {
            "input_l2": f_l2,
            "l2_disagreement": gap,
            "reports": [
                {
                    "method": rep.method,
                    "residual_l2": rep.residual_l2,
                    "iterations": rep.iterations,
                    "wall_time": rep.wall_time,
                }
                for rep in (rep_mult, rep_cg)
            ],
            "solution": transform.field_to_doc(u_mult),
        }
        _write(args.output, _json_text(doc))
    else:
        lines = ["method,residual_l2,iterations,wall_time"]
        for rep in (rep_mult, rep_cg):
            lines.append(
                f"{rep.method},{rep.residual_l2!r},{rep.iterations},{rep.wall_time!r}"
            )
        _write(args.output, "\n".join(lines) + "\n")

    failures = []
    for rep in (rep_mult, rep_cg):
        if rep.residual_l2 > 1e-10 * f_l2:
            failures.append(
                f"{rep.method} residual {rep.residual_l2} > 1e-10 * ||f||"
            )
    if gap > 1e-9:
        failures.append(f"solver disagreement {gap} > 1e-9")
    return _report_failures(failures)


def _cmd_bench(args) -> int:
    _make_grid(args.dimension, args.points)
    if args.repetitions < 1:
        raise UsageError(f"repetitions: must be >= 1, got {args.repetitions}")
    result = solver.bench(
        args.dimension, args.points, args.repetitions, args.seed
    )
    if args.format == "json":
        _write(args.output, _json_text(list(result.rows)))
    else:
        lines = [",".join(solver.BENCH_COLUMNS)]
        for row in result.rows:
            lines.append(
                f"{row['method']},{row['n']},{row['M']},{row['seed']},"
                f"{row['median_seconds']!r},{row['residual_l2']!r},{row['iterations']}"
            )
        _write(args.output, "\n".join(lines) + "\n")

    failures = []
    for row in result.rows:
        if row["residual_l2"] > 1e-9:
            failures.append(f"{row['method']} residual {row['residual_l2']} > 1e-9")
    worst_gap = max(result.l2_disagreements)
    if worst_gap > 1e-8:
        failures.append(f"method disagreement {worst_gap} > 1e-8")
    return _report_failures(failures)


# ---------------------------------------------------------------------------
# verify: the whole invariant suite, one pass/fail line per group.
# ---------------------------------------------------------------------------


def _verify_transforms(grid, seed) -> tuple[bool, str]:
    rng = np.random.default_rng(seed)
    worst_rt = worst_defect = 0.0
    symmetric = True
    for _ in range(20):
        u = solver.random_field(grid, rng)
        c = transform.forward(u)
        back = transform.inverse(c)
        scale = float(np.max(np.abs(u.values)))
        worst_rt = max(worst_rt, float(np.max(np.abs(back.values - u.values))) / scale)
        worst_defect = max(worst_defect, transform.plancherel_defect(u))
        real = transform.GridField(grid, rng.standard_normal(grid.shape) + 0j)
        symmetric = symmetric and transform.forward(real).is_conjugate_symmetric(1e-12)
    ok = worst_rt <= 1e-12 and worst_defect <= 1e-12 and symmetric
    return ok, f"roundtrip {worst_rt:.2e}, plancherel {worst_defect:.2e}"


def _verify_fast_vs_naive(grid, seed) -> tuple[bool, str]:
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
    return worst <= 1e-10, f"max |fast - naive| = {worst:.2e}"


def _verify_eigenpairs(grid) -> tuple[bool, str]:
    worst = float(np.max(spectral.eigenpair_residuals(grid)))
    return worst <= 1e-12, f"worst residual {worst:.2e} over {grid.size} modes"


def _verify_operator_norms(grid, seed) -> tuple[bool, str]:
    worst = abs(
        spectral.operator_norm_power_iteration(
            operators.resolvent_symbol(), grid, tol=1e-9, seed=seed
        )
        - 1.0
    )
    for cutoff in range(min(3, grid.box_radius - 2) + 1):
        est = spectral.operator_norm_power_iteration(
            operators.resolvent_tail_symbol(cutoff), grid, tol=1e-9, seed=seed
        )
        worst = max(worst, abs(est - spectral.truncation_error_exact(cutoff)))
    return worst <= 1e-8, f"worst |power-iteration - exact| = {worst:.2e}"


def _verify_tail_bounds(grid, seed) -> tuple[bool, str]:
    rng = np.random.default_rng(seed)
    for _ in range(50):
        c = _random_spectral_field(grid, rng)
        for cutoff in range(grid.box_radius + 1):
            if not embedding.tail_bound_check(c, cutoff).holds:
                return False, f"violated at N={cutoff}"
    return True, "50 fields, all cutoffs"


def _verify_extraction(seed) -> tuple[bool, str]:
    grid = transform.TorusGrid(1, 17)
    seq = embedding.random_bounded_sequence(grid, count=64, h1_bound=1.0, seed=seed)
    indices = embedding.rellich_extract(seq, 0.5)
    if len(indices) < 2:
        return False, "fewer than 2 indices"
    worst = max(embedding.pairwise_l2_distances(seq, indices))
    return worst <= 0.5, f"{len(indices)} indices, max pairwise L2 {worst:.3f}"


def _verify_solver(grid, seed) -> tuple[bool, str]:
    f = _random_grid_field(grid, seed)
    u_mult, rep_mult = solver.solve_multiplier(f)
    u_cg, rep_cg = solver.solve_cg(f, tol=1e-10)
    gap = transform.grid_l2_norm(u_mult - u_cg)
    f_l2 = transform.grid_l2_norm(f)
    ok = (
        rep_mult.residual_l2 <= 1e-10 * f_l2
        and rep_cg.residual_l2 <= 1e-10 * f_l2
        and gap <= 1e-9
        and transform.grid_l2_norm(u_mult) <= f_l2 * (1 + 1e-12)
    )
    return ok, f"disagreement {gap:.2e}, cg iterations {rep_cg.iterations}"


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
    any_failed = False
    for name, check in groups:
        ok, detail = check()
        status = "PASS" if ok else "FAIL"
        any_failed = any_failed or not ok
        print(f"{status} {name}: {detail}")
    return 1 if any_failed else 0


def _report_failures(failures: list[str]) -> int:
    for failure in failures:
        print(f"check failed: {failure}", file=sys.stderr)
    return 1 if failures else 0


# ---------------------------------------------------------------------------
# Parser.
# ---------------------------------------------------------------------------


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
        sub.add_argument("--seed", type=int, required=True)


def _add_output(sub):
    sub.add_argument("--output", required=True)
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
    p.add_argument("--sobolev", type=float, default=0.0)
    _add_output(p)
    p.set_defaults(func=_cmd_transform)

    p = subparsers.add_parser(
        "spectrum", help="eigenvalue levels of the Laplacian and the resolvent"
    )
    p.add_argument("--dimension", type=int, required=True, choices=_DIMENSIONS)
    p.add_argument("--level-cap", type=int, required=True)
    _add_output(p)
    p.set_defaults(func=_cmd_spectrum)

    p = subparsers.add_parser(
        "truncate",
        help="exact vs power-iteration truncation errors for N = 0..truncation",
    )
    _add_common(p)
    p.add_argument("--truncation", type=int, required=True)
    _add_output(p)
    p.set_defaults(func=_cmd_truncate)

    p = subparsers.add_parser(
        "embed-demo", help="tail-bound table and Cauchy-subfamily extraction"
    )
    _add_common(p)
    p.add_argument("--epsilon", type=float, required=True)
    _add_output(p)
    p.set_defaults(func=_cmd_embed_demo)

    p = subparsers.add_parser("solve", help="solve (Delta+1)u = f both ways")
    _add_common(p)
    _add_output(p)
    p.set_defaults(func=_cmd_solve)

    p = subparsers.add_parser("bench", help="micro-benchmark of both solvers")
    _add_common(p)
    p.add_argument("--repetitions", type=int, default=3)
    _add_output(p)
    p.set_defaults(func=_cmd_bench)

    p = subparsers.add_parser("verify", help="run the full invariant suite")
    _add_common(p, dimension=2, points=9, seed_required=False)
    p.add_argument("--seed", type=int, default=1)
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
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
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
