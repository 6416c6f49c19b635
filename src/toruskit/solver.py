"""Solve (Delta + 1) u = f on the torus: direct multiplier inversion and a
conjugate-gradient oracle.

The direct route divides each Fourier coefficient by 1 + |xi|^2.  The CG
route deliberately stays on the grid side, applying the operator as
inverse(laplacian(forward(u))) + u each iteration, so it shares no shortcut
with the multiplier solve and serves as an independent cross-check.  The
operator is Hermitian positive definite with eigenvalues in
[1, 1 + box diameter^2], so unpreconditioned CG is plenty at desk scale.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .operators import apply_multiplier, helmholtz_symbol, resolvent
from .transform import GridField, TorusGrid, forward, grid_l2_norm, inverse


@dataclass(frozen=True)
class SolveReport:
    residual_l2: float
    method: str
    iterations: int
    wall_time: float

    def __post_init__(self) -> None:
        if self.residual_l2 < 0 or self.iterations < 0:
            raise ValueError("residual and iteration count must be nonnegative")


class ConjugateGradientError(RuntimeError):
    """CG exhausted max_iter; carries the last iterate and its residual."""

    def __init__(self, message: str, last_iterate: GridField, residual: float):
        super().__init__(message)
        self.last_iterate = last_iterate
        self.residual = residual


def _helmholtz_apply(u: GridField) -> GridField:
    """Grid-side action of (Delta + 1) through the transform pipeline."""
    return inverse(apply_multiplier(forward(u), helmholtz_symbol()))


def _residual_l2(u: GridField, f: GridField) -> float:
    return grid_l2_norm(_helmholtz_apply(u) - f)


def solve_multiplier(f: GridField) -> tuple[GridField, SolveReport]:
    """Direct solve u = inverse(resolvent(forward(f))); exact to roundoff."""
    start = time.perf_counter()
    u = inverse(resolvent(forward(f)))
    elapsed = time.perf_counter() - start
    report = SolveReport(
        residual_l2=_residual_l2(u, f),
        method="multiplier",
        iterations=0,
        wall_time=elapsed,
    )
    return u, report


def solve_cg(
    f: GridField, tol: float = 1e-10, max_iter: int | None = None
) -> tuple[GridField, SolveReport]:
    """Conjugate gradients on the grid-side operator.

    Stops once the recursively updated residual r <- r - alpha A p drops to
    tol * ||f||.  In floating point that recurrence drifts from the true
    residual f - A u, and the report's `residual_l2` is the true
    ||f - A u||, recomputed from the returned u, so it can exceed
    tol * ||f|| on large grids (2.91e-10 ||f|| at tol=1e-10 on 1-D M=8191,
    seed 1).  In exact arithmetic the iteration count never exceeds the
    number of distinct eigenvalue levels 1 + |xi|^2 present in f's spectral
    support.  max_iter defaults to the grid size, the exact-arithmetic bound
    on any space of that dimension.
    """
    if tol <= 0:
        raise ValueError(f"tol must be positive, got {tol}")
    grid = f.grid
    if max_iter is None:
        max_iter = grid.size
    start = time.perf_counter()
    f_norm = float(np.linalg.norm(f.values.ravel()))
    if f_norm == 0.0:
        u = GridField(grid, np.zeros(grid.shape, dtype=np.complex128))
        return u, SolveReport(0.0, "cg", 0, time.perf_counter() - start)

    x = np.zeros(grid.shape, dtype=np.complex128)
    r = f.values.copy()
    p = r.copy()
    rs = float(np.vdot(r, r).real)
    iterations = 0
    for _ in range(max_iter):
        ap = _helmholtz_apply(GridField(grid, p)).values
        alpha = rs / float(np.vdot(p, ap).real)
        x = x + alpha * p
        r = r - alpha * ap
        rs_new = float(np.vdot(r, r).real)
        iterations += 1
        if np.sqrt(rs_new) <= tol * f_norm:
            u = GridField(grid, x)
            return u, SolveReport(
                residual_l2=_residual_l2(u, f),
                method="cg",
                iterations=iterations,
                wall_time=time.perf_counter() - start,
            )
        p = r + (rs_new / rs) * p
        rs = rs_new
    last = GridField(grid, x)
    raise ConjugateGradientError(
        f"conjugate gradients did not reach tol={tol} within {max_iter} iterations",
        last_iterate=last,
        residual=_residual_l2(last, f),
    )


def random_field(grid: TorusGrid, rng: np.random.Generator) -> GridField:
    """Standard complex Gaussian samples on the grid (test/benchmark input)."""
    return GridField(
        grid, rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
    )
