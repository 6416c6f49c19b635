"""Spectra of the Laplacian and its resolvent, operator-norm estimation,
eigenpair residuals, and singular-value decay.

The Fourier modes diagonalize every multiplier, so spectra reduce to lattice
level counts: `spectra` tables the Laplacian eigenvalues k = |xi|^2 and the
resolvent eigenvalues 1/(1+k), each with the lattice multiplicity of k, from
one count.  The operator norm of any multiplier is sup |sigma| over the box;
the power iteration below re-derives it through the full transform pipeline
without assuming diagonality, which is what makes it a genuine cross-check.
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


def spectra(n: int, cap: int) -> dict[str, list[list]]:
    """Eigenvalue levels k <= cap on the n-torus, from one lattice count.

    "laplacian" rows are [float(k), multiplicity], ascending; "resolvent"
    rows are [1/(1+k), multiplicity], descending in (0, 1].  Rows are lists,
    as a JSON document holds them.
    """
    levels = levels_up_to(n, cap)
    return {
        "laplacian": [[float(k), m] for k, m in levels],
        "resolvent": [[1.0 / (1 + k), m] for k, m in levels],
    }


def truncation_error_exact(cutoff: int) -> float:
    """Operator norm of resolvent minus its cutoff-N truncation: 1/((N+1)^2+1).

    Exact on the full lattice: the discarded tail starts at squared norm
    (N+1)^2, attained by (N+1, 0, ..., 0), where the resolvent symbol takes
    this value.
    """
    return 1.0 / (tail_min_norm_sq(cutoff) + 1)


class PowerIterationError(RuntimeError):
    """Power iteration exhausted max_iter before its residual met tol."""


def operator_norm_power_iteration(
    symbol: MultiplierSymbol,
    grid: TorusGrid,
    tol: float = 1e-10,
    max_iter: int = 20000,
    seed: int = 0,
) -> float:
    """Estimate the l2 -> l2 norm of the multiplier on the stored box.

    Runs power iteration on the normal operator (symbol squared) with every
    application routed through the forward/inverse transform pair, so the
    estimate does not reuse the diagonal shortcut it is checking.  The start
    vector is seeded pseudo-random with support on all modes.  The iteration
    stops when the Rayleigh-quotient residual puts the estimate within tol,
    relatively, of the square root of *some* eigenvalue of the normal
    operator, that is of some |sigma(xi)|; that it is the largest, the norm,
    is what the check against the exact law 1/((N+1)^2+1) confirms.
    Deterministic given the seed.
    """
    if not 0 < tol < math.inf:
        raise ValueError(f"tol must be finite and positive, got {tol}")
    sq = symbol_array(symbol, grid) ** 2
    v = random_field(grid, np.random.default_rng(seed)).values
    v /= np.linalg.norm(v.ravel())
    estimate = 0.0
    for _ in range(max_iter):
        w = inverse(
            SpectralField(grid, sq * forward(GridField(grid, v)).coefficients)
        ).values
        wn = np.linalg.norm(w.ravel())
        if wn == 0.0:
            # the normal operator annihilated a full-support vector: norm 0
            return 0.0
        theta = float(np.vdot(v.ravel(), w.ravel()).real)
        residual = float(np.linalg.norm((w - theta * v).ravel()))
        estimate = math.sqrt(max(theta, 0.0))
        # some eigenvalue lambda of the normal operator lies within residual
        # of theta, so |sqrt(theta) - sqrt(lambda)| <= residual / sqrt(theta)
        if estimate > 0.0 and residual <= tol * estimate:
            return estimate
        v = w / wn
    raise PowerIterationError(
        f"power iteration did not reach tol={tol} within {max_iter} iterations "
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
