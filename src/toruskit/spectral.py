"""Spectra of the Laplacian and its resolvent, operator-norm estimation,
singular-value decay, and the resolvent <-> Laplacian eigenvalue map.

The Fourier modes diagonalize every multiplier, so spectra reduce to lattice
level counts: the Laplacian has eigenvalue k = |xi|^2 with the lattice
multiplicity of k, and the resolvent has 1/(1+k) at the same multiplicity.
The operator norm of any multiplier is sup |sigma| over the box; the power
iteration below re-derives it through the full transform pipeline without
assuming diagonality, which is what makes it a genuine cross-check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .lattice import Frequency, levels_up_to
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
)


@dataclass(frozen=True)
class SpectrumReport:
    """Eigenvalue levels with multiplicities for one operator, in level order."""

    operator: str
    levels: tuple[tuple[float, int], ...]
    truncation: int

    def to_doc(self) -> dict:
        return {
            "operator": self.operator,
            "truncation": self.truncation,
            "levels": [[eig, mult] for eig, mult in self.levels],
        }


def laplacian_spectrum(n: int, cap: int) -> SpectrumReport:
    """Eigenvalues k <= cap of the Laplacian on the n-torus, ascending."""
    return _spectra(n, cap)[0]


def resolvent_spectrum(n: int, cap: int) -> SpectrumReport:
    """Resolvent eigenvalues 1/(1+k) for k <= cap, descending, in (0, 1]."""
    return _spectra(n, cap)[1]


def _spectra(n: int, cap: int) -> tuple[SpectrumReport, SpectrumReport]:
    """The Laplacian and the resolvent reports from one lattice count."""
    levels = levels_up_to(n, cap)
    return (
        SpectrumReport("laplacian", tuple((float(k), m) for k, m in levels), cap),
        SpectrumReport("resolvent", tuple((1.0 / (1 + k), m) for k, m in levels), cap),
    )


def truncation_error_exact(cutoff: int) -> float:
    """Operator norm of resolvent minus its cutoff-N truncation: 1/((N+1)^2+1).

    Exact on the full lattice: the discarded tail starts at squared norm
    (N+1)^2, attained by (N+1, 0, ..., 0), where the resolvent symbol takes
    this value.
    """
    if cutoff < 0:
        raise ValueError(f"cutoff must be >= 0, got {cutoff}")
    return 1.0 / ((cutoff + 1) ** 2 + 1)


class PowerIterationError(RuntimeError):
    """Raised when the iteration exhausts max_iter before reaching tol.

    Carries the last norm estimate and the last iterate vector.
    """

    def __init__(
        self,
        message: str,
        last_estimate: float,
        iterations: int,
        last_iterate: GridField | None = None,
    ):
        super().__init__(message)
        self.last_estimate = last_estimate
        self.iterations = iterations
        self.last_iterate = last_iterate


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
    vector is seeded pseudo-random with support on all modes; convergence is
    declared when the Rayleigh-quotient residual certifies the estimate to
    within tol.  Deterministic given the seed.
    """
    if tol <= 0:
        raise ValueError(f"tol must be positive, got {tol}")
    sq = symbol_array(symbol, grid) ** 2
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
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
        # |sqrt(theta) - sqrt(lambda_max)| <= residual / sqrt(theta)
        if estimate > 0.0 and residual <= tol * estimate:
            return estimate
        v = w / wn
    raise PowerIterationError(
        f"power iteration did not reach tol={tol} within {max_iter} iterations "
        f"(last estimate {estimate})",
        last_estimate=estimate,
        iterations=max_iter,
        last_iterate=GridField(grid, v),
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


def mu_to_lambda(mu: float) -> float:
    """Map an eigenvalue mu of the shifted inverse to lambda = (1 + mu) / mu."""
    if mu == 0.0:
        raise ValueError("mu = 0 is outside the domain of the eigenvalue map")
    return (1.0 + mu) / mu


def lambda_to_mu(lam: float) -> float:
    """Inverse map mu = 1 / (lambda - 1); lambda = 1 (the constant mode,
    where the shifted operator is singular) is excluded."""
    if lam == 1.0:
        raise ValueError(
            "lambda = 1 is the eigenvalue at the constant mode, where the "
            "shifted operator is singular"
        )
    return 1.0 / (lam - 1.0)


def verify_eigenpair(xi: Frequency, grid: TorusGrid) -> float:
    """L^2 residual of the eigenpair check for the mode exp(i xi . x).

    The one-mode case of `eigenpair_residuals`: builds the mode on the grid,
    applies the resolvent through the production transform pair, and
    returns || T psi - psi / (1 + |xi|^2) ||_{L^2}.
    """
    if len(xi) != grid.dimension:
        raise ValueError(
            f"frequency {tuple(xi)} has {len(xi)} components, grid dimension is "
            f"{grid.dimension}"
        )
    if any(abs(int(x)) > grid.box_radius for x in xi):
        raise ValueError(f"frequency {tuple(xi)} outside the stored box")
    return float(_eigenpair_residuals(grid, np.array([[int(x) for x in xi]]))[0])


def eigenpair_residuals(grid: TorusGrid) -> np.ndarray:
    """|| T psi - psi / (1 + |xi|^2) ||_{L^2} for every mode of the box.

    One residual per stored frequency, in storage order.  T is the
    resolvent symbol applied between the production forward and inverse
    transforms; the expected eigenvalue comes from the integer frequency
    alone, so a wrong symbol or a wrong transform shows as a residual.
    """
    return _eigenpair_residuals(grid, _frequency_vectors(grid))


def _eigenpair_residuals(grid: TorusGrid, frequencies: np.ndarray) -> np.ndarray:
    n = grid.dimension
    multiplier = symbol_array(resolvent_symbol(), grid)
    eigenvalues = 1.0 / (1.0 + np.sum(frequencies**2, axis=1))
    out = np.empty(len(frequencies))
    for rows, kernel in _mode_blocks(grid, frequencies, 1):
        psi = kernel.reshape((-1,) + grid.shape)
        t_psi = _synthesis(multiplier * _analysis(psi, n), n)
        defect = t_psi.reshape(kernel.shape) - kernel * eigenvalues[rows, None]
        out[rows] = np.linalg.norm(defect, axis=1) / math.sqrt(grid.size)
    return out
