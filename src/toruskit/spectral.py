"""Spectra of the Laplacian and its resolvent, operator-norm estimation,
eigenpair residuals, and singular-value decay.

The Fourier modes diagonalize every multiplier, so spectra reduce to lattice
level counts: `spectra` tables the Laplacian eigenvalues k = |xi|^2 and the
resolvent eigenvalues 1/(1+k), each with the lattice multiplicity of k, as
columns from one count.  The operator norm of any multiplier is sup |sigma|
over the box; the Lanczos estimator below re-derives it through the full
transform pipeline without assuming diagonality, which is what makes it a
genuine cross-check.  It holds three vectors, whatever the number of steps.
"""

from __future__ import annotations

import math

import numpy as np

from .lattice import levels_up_to, tail_min_norm_sq
from .operators import MultiplierSymbol, resolvent_symbol, symbol_array
from .transform import (
    GridField,
    SpectralField,
    TorusGrid,
    _analysis,
    _frequency_vectors,
    _mode_blocks,
    _synthesis,
    forward,
    inverse,
    random_field,
)


def spectra(n: int, cap: int) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """Eigenvalue levels k <= cap on the n-torus, from one lattice count.

    Each operator maps to its column pair (eigenvalues, multiplicities):
    "laplacian" holds float64 k, ascending; "resolvent" holds float64
    1/(1+k), descending in (0, 1], each correctly rounded like Python's
    1.0 / (1 + k).  Both share one multiplicity column, int64 or an object
    array of Python ints as `levels_up_to` returns it.
    """
    levels = levels_up_to(n, cap)
    k = levels[:, 0].astype(np.float64)
    multiplicities = levels[:, 1]
    return {"laplacian": (k, multiplicities), "resolvent": (1.0 / (1.0 + k), multiplicities)}


def truncation_error_exact(cutoff: int) -> float:
    """Operator norm of resolvent minus its cutoff-N truncation: 1/((N+1)^2+1).

    Exact on the full lattice: the discarded tail starts at squared norm
    (N+1)^2, attained by (N+1, 0, ..., 0), where the resolvent symbol takes
    this value.
    """
    return 1.0 / (tail_min_norm_sq(cutoff) + 1)


class LanczosError(RuntimeError):
    """Lanczos exhausted max_iter before its top Ritz pair met tol."""


def operator_norm_power_iteration(
    symbol: MultiplierSymbol,
    grid: TorusGrid,
    tol: float = 1e-10,
    max_iter: int = 20000,
    seed: int = 0,
) -> float:
    """Estimate the l2 -> l2 norm of the multiplier on the stored box.

    Runs the Lanczos three-term recurrence on the normal operator (symbol
    squared) with every application routed through the public
    forward/inverse transform pair, so the estimate does not reuse the
    diagonal shortcut it is checking.  The start vector is seeded
    pseudo-random with support on all modes.  Only three vectors are held:
    no Lanczos basis is kept and none is reorthogonalized.  max_iter counts
    Lanczos steps, one operator application each.

    After step j the top Ritz pair (theta, s) of the tridiagonal T_j has the
    residual beta_j |s_j|, and the loop stops when beta_j |s_j| <= tol *
    sqrt(theta), or when beta_j == 0 (the Krylov space is invariant; the
    zero symbol returns 0.0).  A stop certifies that the estimate sqrt(theta)
    is within tol of the square root of *some* eigenvalue of the normal
    operator, that is of some |sigma(xi)|, up to the O(eps ||B|| j) rounding
    term of Paige's analysis of the recurrence (Paige 1980); that it is the
    largest, the norm, is what the check against the exact law
    1/((N+1)^2+1) confirms.  The pair comes from a dense eigh of T_j, taken
    every step while j < 32 and then every j // 16 steps, so the check stays
    a small share of the work.  Deterministic given the seed.
    """
    if not 0 < tol < math.inf:
        raise ValueError(f"tol must be finite and positive, got {tol}")
    if max_iter < 1:
        raise ValueError(f"max_iter must be >= 1, got {max_iter}")
    sq = symbol_array(symbol, grid) ** 2
    v = random_field(grid, np.random.default_rng(seed)).values
    v /= np.linalg.norm(v.ravel())
    v_prev = None
    alphas: list[float] = []
    betas: list[float] = []
    next_check = 1
    for step in range(1, max_iter + 1):
        w = inverse(
            SpectralField(grid, sq * forward(GridField(grid, v)).coefficients)
        ).values
        # beta_{j-1} v_{j-1} comes off before alpha_j is taken, the ordering
        # that Paige's analysis covers
        if v_prev is not None:
            w -= beta * v_prev
        alpha = float(np.vdot(v.ravel(), w.ravel()).real)
        w -= alpha * v
        beta = float(np.linalg.norm(w.ravel()))
        alphas.append(alpha)
        if beta == 0.0 or step in (next_check, max_iter):
            tridiagonal = np.diag(alphas)
            tridiagonal[range(1, step), range(step - 1)] = betas
            ritz, vectors = np.linalg.eigh(tridiagonal)
            # some eigenvalue lambda of the normal operator lies within the
            # residual of theta, so |sqrt(theta) - sqrt(lambda)| <= residual
            # / sqrt(theta)
            residual = beta * abs(vectors[-1, -1])
            estimate = math.sqrt(max(float(ritz[-1]), 0.0))
            if beta == 0.0 or residual <= tol * estimate:
                return estimate
            next_check = step + max(1, step // 16)
        betas.append(beta)
        w /= beta
        v_prev, v = v, w
    raise LanczosError(
        f"Lanczos did not reach tol={tol} within {max_iter} steps "
        f"(last estimate {estimate})"
    )


def singular_values(
    symbol: MultiplierSymbol, grid: TorusGrid, count: int
) -> list[float]:
    """The `count` largest |sigma(xi)| over the box, descending with multiplicity.

    For symbols vanishing at frequency infinity this sequence decays to zero,
    which is the finite certificate of compactness; for the identity it is
    constantly one, the non-compact contrast case.
    """
    if count < 0 or count > grid.size:
        raise ValueError(
            f"count must be between 0 and the box size {grid.size}, got {count}"
        )
    mags = np.sort(np.abs(symbol_array(symbol, grid)).ravel())[::-1]
    return [float(x) for x in mags[:count]]


def eigenpair_residuals(grid: TorusGrid) -> np.ndarray:
    """|| T psi - psi / (1 + |xi|^2) ||_{L^2} for every mode of the box.

    One residual per stored frequency, in storage order.  T is the
    resolvent symbol applied between the production forward and inverse
    transforms; the expected eigenvalue comes from the integer frequency
    alone, so a wrong symbol or a wrong transform shows as a residual.
    """
    n = grid.dimension
    frequencies = _frequency_vectors(grid)
    multiplier = symbol_array(resolvent_symbol(), grid)
    eigenvalues = 1.0 / (1.0 + np.sum(frequencies**2, axis=1))
    out = np.empty(len(frequencies))
    for rows, kernel in _mode_blocks(grid, frequencies, 1):
        psi = kernel.reshape((-1,) + grid.shape)
        t_psi = _synthesis(multiplier * _analysis(psi, n), n)
        defect = t_psi.reshape(kernel.shape) - kernel * eigenvalues[rows, None]
        out[rows] = np.linalg.norm(defect, axis=1) / math.sqrt(grid.size)
    return out
