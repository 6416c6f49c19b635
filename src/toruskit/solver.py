"""Solve (Delta + 1) u = f on the torus: direct multiplier inversion and a
preconditioned conjugate-gradient oracle.

The direct route divides each Fourier coefficient by 1 + |xi|^2.  The CG
route deliberately stays on the grid side, applying `operators.apply_multiplier`
with the Helmholtz symbol 1 + |xi|^2, evaluated once per solve, so it never
reads the resolvent symbol the multiplier solve uses and serves as an
independent cross-check.  The operator is Hermitian positive definite with
eigenvalues in [1, 1 + n h^2], h the box radius.  CG is preconditioned by
the periodic second-order finite-difference Helmholtz operator, whose
symbol 1 + sum_j (4/dx^2) sin^2(xi_j dx/2), dx = 2 pi/M, is built from a
per-axis sine table (Orszag 1980; Canuto, Hussaini, Quarteroni & Zang,
Spectral Methods).  Its ratio to 1 + |xi|^2 lies in [1, pi^2/4] on every
grid, so the iteration count has a bound that grows only with the log of
||Delta + 1|| (`_iteration_bound`): `solve --dimension 1 --points 8191
--seed 1` takes 16 iterations, where plain CG took 6406.
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass

import numpy as np

from . import transform
from .operators import apply_multiplier, helmholtz_symbol, resolvent_symbol, symbol_array
from .transform import GridField, TorusGrid, grid_l2_norm


@dataclass(frozen=True)
class SolveReport:
    residual_l2: float
    method: str
    iterations: int
    wall_time: float

    def __post_init__(self) -> None:
        if self.residual_l2 < 0 or self.iterations < 0:
            raise ValueError("residual and iteration count must be nonnegative")


# Normwise backward error (see `backward_error_scale`) at or below which a
# CG residual is rounding in evaluating f - A u.  Where tol * ||f|| lies
# below that floor, the true residual read 0.6-3.0 eps at its first proposed
# stop (1-D M=301..10001), while the recursion's drift read 6.4 eps or more
# when it alone pushed the true residual past tol (1-D M=2001..10001).
_ROUNDOFF_BACKWARD_ERROR = 4 * np.finfo(float).eps


class ConjugateGradientError(RuntimeError):
    """CG reached its iteration cap (`solve_cg`) before its residual met tol,
    or broke down: an inner product that must be finite and positive was not."""


def helmholtz_norm(grid: TorusGrid) -> float:
    """||Delta + 1|| on the grid's frequency box: 1 + n h^2, h the box radius."""
    return float(1 + grid.dimension * grid.box_radius**2)


def backward_error_scale(u: GridField, f: GridField) -> float:
    """Denominator of the normwise backward error of u as a solution of
    A u = f, A = Delta + 1: ||f - A u|| / (||A|| ||u|| + ||f||) (Rigal &
    Gaches 1967), with the exact ||A|| on the grid's box."""
    return helmholtz_norm(u.grid) * grid_l2_norm(u) + grid_l2_norm(f)


def _residual_l2(u: GridField, f: GridField) -> float:
    sigma = symbol_array(helmholtz_symbol(), u.grid)
    return grid_l2_norm(GridField(u.grid, apply_multiplier(u.grid, sigma, u.values)) - f)


def solve_multiplier(f: GridField) -> tuple[GridField, SolveReport]:
    """Direct solve u = inverse(resolvent * forward(f)); exact to roundoff."""
    start = time.perf_counter()
    sigma = symbol_array(resolvent_symbol(), f.grid)
    u = GridField(f.grid, apply_multiplier(f.grid, sigma, f.values))
    elapsed = time.perf_counter() - start
    return u, SolveReport(_residual_l2(u, f), "multiplier", 0, elapsed)


def solve_cg(f: GridField, tol: float = 1e-10) -> tuple[GridField, SolveReport]:
    """Preconditioned conjugate gradients on the grid-side operator.

    A = Delta + 1 is applied by `operators.apply_multiplier` with the Helmholtz
    symbol, evaluated once per solve, and the preconditioner P is the
    periodic finite-difference Helmholtz operator (`_fd_preconditioner`).
    The iteration stops when the residual meets ||r|| <= tol * ||f|| in
    the 2-norm, under residual replacement and the rounding-floor stop (see
    `_pcg`); the report's `residual_l2` is the true residual f - A u in the
    grid L^2 norm.  In exact arithmetic the iteration count is at most
    `_iteration_bound(grid, tol)`, 18 at 3-D M=9 and 22 at 1-D M=8191 for
    tol=1e-10, and at most the number of distinct values of (1 +
    |xi|^2) / sigma_FD(xi) on f's spectral support.  No parameter caps the
    iterations: the cap is twice the bound at P^{-1} A's condition number
    measured on the box, so a solve that cannot converge raises
    `ConjugateGradientError` within a few dozen iterations.
    """
    if not 0 < tol < math.inf:
        raise ValueError(f"tol must be finite and positive, got {tol}")
    grid = f.grid
    start = time.perf_counter()
    sigma = symbol_array(helmholtz_symbol(), grid)
    symbols, kappa = _fd_preconditioner(grid, sigma)
    u, residual_l2, iterations = _pcg(functools.partial(apply_multiplier, grid, sigma),
                                      functools.partial(apply_multiplier, grid, symbols),
                                      f, tol, 2 * _iteration_bound(grid, tol, kappa))
    return u, SolveReport(residual_l2, "cg", iterations, time.perf_counter() - start)


# The supremum over every grid of (1 + |xi|^2) / sigma_FD(xi): per axis
# (t/2)^2 / sin^2(t/2) with t = xi_j dx in [0, pi), which increases to
# pi^2/4, and a ratio of sums lies between the ratios of its terms.  So it
# bounds the condition number of P^{-1} A, whose least value is 1.
_PRECONDITIONED_CONDITION = math.pi**2 / 4


def _fd_helmholtz_array(grid: TorusGrid) -> np.ndarray:
    """1 + sum_j (4/dx^2) sin^2(xi_j dx/2) over the box, dx = 2 pi/M: the
    symbol of the periodic second-order finite-difference Helmholtz
    operator, summed from one per-axis sine table.  It is not a function of
    |xi|^2, so it is an array over the box, not a `MultiplierSymbol`."""
    dx = grid.spacing
    h = grid.box_radius
    axis = (4.0 / dx**2) * np.sin(np.arange(-h, h + 1) * (dx / 2)) ** 2
    return 1.0 + functools.reduce(np.add.outer, (axis,) * grid.dimension)


def _fd_preconditioner(grid: TorusGrid, sigma: np.ndarray) -> tuple[np.ndarray, float]:
    """(symbols, kappa): the symbol stack (1/sigma_FD, sigma/sigma_FD), for
    P the finite-difference Helmholtz operator and A the multiplier
    `sigma`, and kappa <= pi^2/4, P^{-1} A's condition number, max/min
    |sigma/sigma_FD|.

    One `operators.apply_multiplier` of r against the stack makes the pair
    (z, A z), z = P^{-1} r: it transforms r forward once and takes the
    inverses of both under that apply's stack budget.  Nothing here reads
    the resolvent symbol."""
    sigma_fd = _fd_helmholtz_array(grid)
    symbols = np.stack([1.0 / sigma_fd, sigma / sigma_fd])
    ratio = np.abs(symbols[1])
    return symbols, float(ratio.max() / ratio.min())


def _iteration_bound(grid: TorusGrid, tol: float,
                     condition: float = _PRECONDITIONED_CONDITION) -> int:
    """Iterations within which the preconditioned Helmholtz CG meets
    ||r|| <= tol * ||f|| in exact arithmetic, whatever f.

    With kappa(P^{-1} A) <= condition, pi^2/4 by default, the A-norm error
    falls by 2 rho^k after k iterations, rho = (sqrt(condition) - 1) /
    (sqrt(condition) + 1) (about 0.222 by default).  The stop test reads
    the 2-norm of the residual, and ||r|| <= sqrt(||A||) ||e||_A while
    ||e_0||_A <= ||f||, A having least eigenvalue 1; so k = ceil(ln(2
    sqrt(||A||) / tol) / ln(1/rho)), and at least the one iteration every
    solve of a nonzero f takes.
    """
    root = math.sqrt(condition)
    rho = (root - 1) / (root + 1)
    reduction = math.log(2 * math.sqrt(helmholtz_norm(grid)) / tol)
    return max(1, math.ceil(reduction / math.log(1 / rho)))


def _positive(value: float, what: str) -> float:
    """An inner product that must be finite and positive."""
    if not 0 < value < math.inf:
        raise ConjugateGradientError(
            f"conjugate gradients broke down: {what} = {value}, not finite and positive"
        )
    return value


def _pcg(apply_A, precondition, f: GridField, tol: float, max_iter: int
         ) -> tuple[GridField, float, int]:
    """Preconditioned conjugate gradients for A u = f; returns (u, the true
    residual ||f - A u|| in the grid L^2 norm, iterations).

    apply_A(values) returns A values, and precondition(r) the pair (z, A z),
    or a stack of the two, with z = P^{-1} r; A and P must be Hermitian
    positive definite.  A p is kept by the recurrence A p <- A z + beta A p,
    so an iteration makes one precondition call and no apply_A.  If <r, z>
    or <p, A p> is not finite and positive, the loop raises
    `ConjugateGradientError`.

    The recursively updated residual r <- r - alpha A p drifts from the true
    residual f - A u in floating point, so it only proposes a stop: when
    ||r|| <= tol * ||f||, the true residual f - A u is computed, and the
    iteration stops if it passes the same test and otherwise continues from
    it, with A p recomputed by one apply_A (residual replacement, van der
    Vorst & Ye 2000).  It also stops when the true residual is at the
    rounding floor of evaluating f - A u, a normwise backward error
    (`backward_error_scale`, so A is the Helmholtz operator) of at most 4
    eps, which no iteration can lower; at tol=1e-10 that floor exceeds tol
    * ||f|| on 1-D grids past about 10^4 points.
    """
    grid, n = f.grid, f.grid.dimension
    f_norm = math.sqrt(transform._inner(f.values, f.values, n))
    if f_norm == 0.0:
        return GridField(grid, np.zeros(grid.shape, dtype=np.complex128)), 0.0, 0
    f_l2 = f_norm / math.sqrt(grid.size)
    x = np.zeros(grid.shape, dtype=np.complex128)
    r = f.values.copy()
    p, ap = precondition(r)
    rz = _positive(transform._inner(r, p, n), "<r, z>")
    for iterations in range(1, max_iter + 1):
        alpha = rz / _positive(transform._inner(p, ap, n), "<p, A p>")
        x = x + alpha * p
        r = r - alpha * ap
        replaced = False
        if math.sqrt(transform._inner(r, r, n)) <= tol * f_norm:
            u = GridField(grid, x)
            true_residual = f.values - apply_A(x)
            residual_l2 = grid_l2_norm(GridField(grid, true_residual))
            floor = _ROUNDOFF_BACKWARD_ERROR * backward_error_scale(u, f)
            if residual_l2 <= max(tol * f_l2, floor):
                return u, residual_l2, iterations
            r, replaced = true_residual, True
        z, az = precondition(r)
        rz_new = _positive(transform._inner(r, z, n), "<r, z>")
        beta = rz_new / rz
        p = z + beta * p
        ap = apply_A(p) if replaced else az + beta * ap
        rz = rz_new
    raise ConjugateGradientError(
        f"conjugate gradients did not reach tol={tol} within {max_iter} iterations"
    )
