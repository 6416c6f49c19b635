"""The invariant suite of `verify`, and the self-checks the commands share
with it, so both apply the same rule; each check returns its measured
numbers and a list of failures, empty when the invariant holds.  `GROUPS`
declares the suite, each group a `(grid, seed) -> (detail, failures)`
function, and `verify` runs it in order, one timed `GroupResult` per group:
a loop that fails to converge, or a field or symbol that holds NaN or inf,
fails its group, and the other groups still run.
"""

from __future__ import annotations

import time
from typing import NamedTuple

import numpy as np

from . import embedding, lattice, operators, solver, spectral, transform

# A loop that stops without converging, or a computed field or symbol that
# holds NaN or inf; a command exits 1 on it, and in `verify` it is the
# failure of the group that ran into it.
NUMERICAL_FAILURES = (spectral.LanczosError, solver.ConjugateGradientError,
                      transform.NonFiniteError)


def exceeds(what: str, value: float, bound: float) -> list[str]:
    return [f"{what} {value} > {bound}"] if value > bound else []


def check_transform(u: transform.GridField):
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
        failures += exceeds("roundtrip error", field_rt, 1e-12)
        failures += exceeds("plancherel defect", field_defect, 1e-12)
    return c, float(np.max(roundtrip)), float(np.max(defect)), failures


def check_norm_law(grid: transform.TorusGrid, cutoffs, seed: int, leading=()):
    """Rows (N, exact, estimate, diff): the Lanczos norm estimate of each
    resolvent tail against 1/((N+1)^2+1), to min(1e-8, g_N/4), with Lanczos
    at tol min(1e-9, g_N/8) over all N.  g_N = 1/(1+(N+1)^2) - 1/(1+k') is
    the gap to the tail's next eigenvalue, k' the box's next |xi|^2 above
    (N+1)^2 (inf if none), so no other eigenvalue of the tail passes row N.
    All estimates, those of the symbols `leading` first, run in one
    lockstep call.  Returns (rows, failures, the estimates of `leading`)."""
    cutoffs = list(cutoffs)
    levels = np.append(np.unique(operators.norm_sq_array(grid)), np.inf)
    tops = np.array([lattice.tail_min_norm_sq(k) for k in cutoffs], dtype=float)
    gaps = 1 / (1 + tops) - 1 / (1 + levels[np.searchsorted(levels, tops, side="right")])
    estimates = spectral.operator_norm_power_iteration(
        [*leading, *map(operators.resolvent_tail_symbol, cutoffs)], grid,
        tol=float(min([1e-9, *gaps / 8])), seed=seed)
    rows = [(k, exact, estimate, abs(exact - estimate)) for k, exact, estimate in zip(
        cutoffs, map(spectral.truncation_error_exact, cutoffs), estimates[len(leading):])]
    failures = [f"N={k}: |exact - lanczos| = {diff} > "
                + np.format_float_scientific(bound, trim="-", exp_digits=1)
                for (k, *_, diff), bound in zip(rows, np.minimum(1e-8, gaps / 4)) if diff > bound]
    return rows, failures, estimates[:len(leading)]


def tail_failures(holds: np.ndarray) -> list[str]:
    """The failures of one field's tail profile: a cutoff where it fails."""
    return [f"tail bound violated at N={cutoff}"
            for cutoff in np.flatnonzero(~holds).tolist()]


def check_extraction(grid: transform.TorusGrid, epsilon: float, seed: int):
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
    failures += exceeds("extracted pair at L2 distance", max_distance, epsilon)
    return report, failures


def check_solve(f: transform.GridField):
    """Solve (Delta + 1) u = f by the multiplier and by CG.

    Each solve's normwise backward error, its residual over
    `solver.backward_error_scale`, must be <= 1e-10; a residual bound in
    ||f|| alone falls below the roundoff of applying A when ||A|| is large.  The solutions must agree
    to 1e-9, ||u|| <= ||f|| since the resolvent has norm 1, and CG must
    report the residual `solver._residual_l2` recomputes, bit for bit.
    Returns (u, (multiplier report, CG report), disagreement, failures).
    """
    u_mult, rep_mult = solver.solve_multiplier(f)
    u_cg, rep_cg = solver.solve_cg(f, tol=1e-10)
    gap = transform.grid_l2_norm(u_mult - u_cg)
    f_l2 = transform.grid_l2_norm(f)
    recomputed = solver._residual_l2(u_cg, f)
    failures = ([f"cg reports residual_l2 {rep_cg.residual_l2}, recomputed {recomputed}"]
                if rep_cg.residual_l2 != recomputed else [])
    for u, rep in ((u_mult, rep_mult), (u_cg, rep_cg)):
        backward = rep.residual_l2 / solver.backward_error_scale(u, f)
        failures += exceeds(f"{rep.method} backward error", backward, 1e-10)
    failures += exceeds("solver disagreement", gap, 1e-9)
    failures += exceeds("||u||", transform.grid_l2_norm(u_mult), f_l2 * (1 + 1e-12))
    return u_mult, (rep_mult, rep_cg), gap, failures


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
        _, roundtrip, defect, block_failures = check_transform(fields)
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
    failures = exceeds("max |fast - naive|", worst, 1e-10)
    return f"max |fast - naive| = {worst:.2e}", failures


def _verify_eigenpairs(grid, seed) -> tuple[str, list[str]]:
    certificate = spectral.resolvent_certificate(grid, seed)
    error = float(np.max(certificate.eigenvalue_error))
    commutator = float(np.max(certificate.commutator))
    failures = exceeds("eigenvalue error", error, spectral.CERTIFICATE_TOL)
    failures += exceeds("shift commutator", commutator, spectral.CERTIFICATE_TOL)
    detail = (f"eigenvalue error {error:.2e} over {grid.size} modes, shift "
              f"commutator {commutator:.2e}, P(a commutator >= "
              f"{spectral.COMMUTATOR_FLOOR:.0e} passes) <= "
              f"{certificate.miss_probability:.1e}")
    return detail, failures


def _verify_operator_norms(grid, seed) -> tuple[str, list[str]]:
    rows, failures, (estimate,) = check_norm_law(
        grid, range(min(3, grid.box_radius - 2) + 1), seed, [operators.resolvent_symbol()])
    failures += exceeds("resolvent: |1 - lanczos|", abs(estimate - 1.0), 1e-8)
    worst = max([abs(estimate - 1.0)] + [diff for *_, diff in rows])
    return f"worst |lanczos - exact| = {worst:.2e}", failures


def _verify_tail_bounds(grid, seed) -> tuple[str, list[str]]:
    # 50 spectral fields, drawn and profiled a stack at a time
    rng = np.random.default_rng(seed)
    for block in transform._stack_blocks(50, grid.size):
        draws = transform._random_values(grid, rng, block.stop - block.start)
        profile = embedding.tail_profile(transform.SpectralField(grid, draws))
        for field, holds in enumerate(profile.holds, block.start + 1):
            failures = tail_failures(holds)
            if failures:
                return f"field {field} of 50", failures
    return "50 fields, all cutoffs", []


def _verify_extraction(grid, seed) -> tuple[str, list[str]]:
    # a fixed 1-D M=17 family, whatever `grid`: the group's cost does not grow with it
    report, failures = check_extraction(transform.TorusGrid(1, 17), 0.5, seed)
    count, worst = len(report["indices"]), report["max_pairwise_l2"]
    return f"{count} indices, max pairwise L2 {worst:.3f}", failures


def _verify_solver(grid, seed) -> tuple[str, list[str]]:
    f = transform.random_field(grid, np.random.default_rng(seed))
    _, (_, rep_cg), gap, failures = check_solve(f)
    return f"disagreement {gap:.2e}, cg iterations {rep_cg.iterations}", failures


GROUPS = (
    ("transform-roundtrip-plancherel", _verify_transforms),
    ("fast-vs-naive-transform", _verify_fast_vs_naive),
    ("resolvent-eigenpairs", _verify_eigenpairs),
    ("operator-norms", _verify_operator_norms),
    ("tail-bounds", _verify_tail_bounds),
    ("rellich-extraction", _verify_extraction),
    ("solver-agreement", _verify_solver),
)


class GroupResult(NamedTuple):
    name: str
    detail: str
    failures: list[str]
    seconds: float


def verify(grid: transform.TorusGrid, seed: int) -> list[GroupResult]:
    """Run every group of `GROUPS` on `grid`, in order, each timed; a
    numerical failure is its group's one failure and its detail."""
    results = []
    for name, run in GROUPS:
        start = time.perf_counter()
        try:
            detail, failures = run(grid, seed)
        except NUMERICAL_FAILURES as exc:
            detail = f"numerical failure: {exc}"
            failures = [detail]
        results.append(GroupResult(name, detail, failures, time.perf_counter() - start))
    return results
