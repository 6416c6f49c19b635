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


# Each row's powered estimate must match the powered law to this relative
# error (see `check_norm_law`)
NORM_LAW_RTOL = 1e-12


def check_norm_law(grid: transform.TorusGrid, cutoffs, seed: int, resolvent: bool = False):
    """Rows (N, exact, estimate, diff): the Lanczos norm estimate of each
    resolvent tail T_N against the law 1/((N+1)^2+1) that
    `spectral.truncation_error_exact` states.  With `resolvent`, a row
    N = -1 comes first: the resolvent itself, the tail of the truncation
    that keeps no mode, against its norm 1.

    Lanczos runs on a power of each tail, not on the tail, whose next level
    lies only about 2/(N+1)^2 below its top (Saad 2011, ch. 7, polynomial
    filtering by a monomial).  Take a the tail's top |xi|^2 ((N+1)^2, or 0
    at N = -1), c = 1/(1+a) its top value, k' the box's next |xi|^2 above a
    (inf if none) and p = ceil(1 / ln((1+k')/(1+a))), at least 1.  The run's
    symbol is m (T_N / c)^p, m = c^(1/p) (`operators.scaled_power`): its top
    is m, and every other value is at most e^-1 m.  m differs from run to
    run, so a fault that mixes the runs' reductions shows, and it is at
    least 10^(-1/2) on every box, so Lanczos's stop, absolute in the
    estimate, is relative to within a factor of 3.2.  All runs go in one
    lockstep call at tol t = 1e-9, and the row's estimate is the root
    c (e / m)^(1/p) of the run's estimate e.  Lanczos squares the symbol,
    so in the powered space the top is isolated by a relative gap of at
    least 1 - e^-2, and by Kahan and Parlett a stop at residual
    t sqrt(theta) leaves a relative error in e of at most about
    t^2 / (2 m^2 (1 - e^-2)) <= 5.8 t^2, whatever N.  A run takes 4-6
    steps on every grid measured, where T_N itself takes O(N).

    Row N fails when |exact - estimate| exceeds min(1e-8, g_N/4), g_N =
    1/(1+a) - 1/(1+k') the gap to the tail's next eigenvalue, so that no
    other eigenvalue of the tail passes it; or when e is not within
    NORM_LAW_RTOL, relatively, of the powered law m (exact / c)^p, that is
    when |(estimate / exact)^p - 1| > NORM_LAW_RTOL.  The second bound is
    the sharper: rounding leaves e within about 1e-15 of the powered law,
    and a scale error of 1e-9 in the applies breaks it.  A tail value above
    c grows with the power, and one that overflows is a
    `transform.NonFiniteError`.  Returns (rows, failures)."""
    cutoffs = list(cutoffs)
    tops = [lattice.tail_min_norm_sq(k) for k in cutoffs]
    exact = [spectral.truncation_error_exact(k) for k in cutoffs]
    symbols = [operators.resolvent_tail_symbol(k) for k in cutoffs]
    if resolvent:
        cutoffs, tops, exact = [-1, *cutoffs], [0, *tops], [1.0, *exact]
        symbols.insert(0, operators.resolvent_symbol())
    tops, exact = np.array(tops, dtype=float), np.array(exact)
    levels = np.append(np.unique(operators.norm_sq_array(grid)), np.inf)
    after = levels[np.searchsorted(levels, tops, side="right")]
    top_values = 1 / (1 + tops)
    gaps = top_values - 1 / (1 + after)
    powers = np.maximum(1, np.ceil(1 / np.log1p((after - tops) / (1 + tops)))).astype(int)
    scales = top_values ** (1 / powers)
    powered = np.array(spectral.operator_norm_power_iteration(
        list(map(operators.scaled_power, symbols, top_values, powers, scales)),
        grid, tol=1e-9, seed=seed))
    estimates = top_values * (powered / scales) ** (1 / powers)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        relative = np.abs(powered / (scales * (exact / top_values) ** powers) - 1)
    rows = list(zip(cutoffs, exact.tolist(), estimates.tolist(),
                    np.abs(exact - estimates).tolist()))
    failures = []
    for (k, *_, diff), bound, rel, p in zip(rows, np.minimum(1e-8, gaps / 4), relative, powers):
        if diff > bound:
            failures.append(f"N={k}: |exact - lanczos| = {diff} > "
                            + np.format_float_scientific(bound, trim="-", exp_digits=1))
        elif not rel <= NORM_LAW_RTOL:
            failures.append(f"N={k}: |(lanczos / exact)^{p} - 1| = {rel} > {NORM_LAW_RTOL}")
    return rows, failures


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
    rows, failures = check_norm_law(
        grid, range(min(3, grid.box_radius - 2) + 1), seed, resolvent=True)
    worst = max(diff for *_, diff in rows)
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
