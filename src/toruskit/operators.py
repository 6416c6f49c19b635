"""Diagonal Fourier-multiplier operators and spectral-side Sobolev norms.

A multiplier acts coefficient-wise, c(xi) -> sigma(xi) c(xi).  The built-in
symbols cover the positive Laplacian |xi|^2, the Helmholtz operator
1 + |xi|^2, its inverse (the resolvent, operator norm 1), and level-cutoff
truncations of the resolvent.  Every symbol is a function of k = |xi|^2
alone, computed on one cached |xi|^2 array per grid.

Truncation membership: a cutoff-N truncation keeps the mode xi exactly when
norm_sq(xi) < (N + 1)^2, so the removed tail starts at squared norm
(N + 1)^2 and the operator-norm error of the truncated resolvent is
1/((N + 1)^2 + 1) in every dimension.  Integer frequencies with
N < |xi| < N + 1 (possible for n >= 2) are kept; `kept_by_truncation`
applies this rule.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .lattice import Frequency, norm_sq, tail_min_norm_sq
from .transform import SpectralField, TorusGrid


@dataclass(frozen=True)
class MultiplierSymbol:
    """Real-valued function of k = |xi|^2 defining a diagonal operator.

    `of_norm_sq` maps a float array of k values to the symbol's values
    elementwise, keeping the array's shape; it is keyword-only.  Calling
    the symbol on one frequency tuple gives its value at that tuple's k.
    A multiplier that is not a function of k is applied by multiplying
    `SpectralField.coefficients` by an array built over the box.
    """

    name: str
    of_norm_sq: Callable[[np.ndarray], np.ndarray] = field(kw_only=True)

    def __call__(self, xi: Frequency) -> float:
        return float(self.of_norm_sq(np.array(float(norm_sq(xi)))))


def kept_by_truncation(k: np.ndarray, cutoff: int) -> np.ndarray:
    """Mask of the squared norms k that a cutoff-N truncation keeps.

    The one place the membership rule norm_sq < tail_min_norm_sq(cutoff)
    is applied; the truncation symbols and the embedding projections all
    use it.
    """
    return k < tail_min_norm_sq(cutoff)


def identity_symbol() -> MultiplierSymbol:
    return MultiplierSymbol("identity", of_norm_sq=np.ones_like)


def laplacian_symbol() -> MultiplierSymbol:
    # a copy: norm_sq_array hands out one shared read-only array per grid
    return MultiplierSymbol("laplacian", of_norm_sq=np.copy)


def helmholtz_symbol() -> MultiplierSymbol:
    return MultiplierSymbol("helmholtz", of_norm_sq=lambda k: 1.0 + k)


def resolvent_symbol() -> MultiplierSymbol:
    return MultiplierSymbol("resolvent", of_norm_sq=lambda k: 1.0 / (1.0 + k))


def truncated_resolvent_symbol(cutoff: int) -> MultiplierSymbol:
    """Resolvent on modes with norm_sq < (N+1)^2, zero beyond."""
    tail_min_norm_sq(cutoff)  # reject a negative cutoff here, not at first use
    return MultiplierSymbol(
        f"truncated_resolvent({cutoff})",
        of_norm_sq=lambda k: np.where(
            kept_by_truncation(k, cutoff), 1.0 / (1.0 + k), 0.0
        ),
    )


def resolvent_tail_symbol(cutoff: int) -> MultiplierSymbol:
    """Resolvent minus its cutoff truncation: supported on norm_sq >= (N+1)^2."""
    tail_min_norm_sq(cutoff)
    return MultiplierSymbol(
        f"resolvent_tail({cutoff})",
        of_norm_sq=lambda k: np.where(
            kept_by_truncation(k, cutoff), 0.0, 1.0 / (1.0 + k)
        ),
    )


def symbol_array(symbol: MultiplierSymbol, grid: TorusGrid) -> np.ndarray:
    """The symbol on the grid's cached |xi|^2 array: one finite value per mode."""
    values = symbol.of_norm_sq(norm_sq_array(grid))
    if np.shape(values) != grid.shape:
        raise ValueError(
            f"symbol {symbol.name!r} returned shape {np.shape(values)}, "
            f"not the box's {grid.shape}"
        )
    if not np.all(np.isfinite(values)):
        raise ValueError(
            f"symbol {symbol.name!r} produced non-finite values on the box"
        )
    return values


@functools.lru_cache(maxsize=8)
def norm_sq_array(grid: TorusGrid) -> np.ndarray:
    """|xi|^2 over the stored box as float64, in storage order.

    Memoized per grid (the grid is frozen, so equal grids share one entry)
    for the few most recent grids; the array is shared, hence read-only.
    """
    h = grid.box_radius
    sq = np.arange(-h, h + 1, dtype=np.float64) ** 2
    k = functools.reduce(np.add.outer, (sq,) * grid.dimension)
    k.flags.writeable = False
    return k


def apply_multiplier(c: SpectralField, symbol: MultiplierSymbol) -> SpectralField:
    """Diagonal action: output(xi) = sigma(xi) c(xi) on every stored mode."""
    return SpectralField(c.grid, symbol_array(symbol, c.grid) * c.coefficients)


def laplacian(c: SpectralField) -> SpectralField:
    return apply_multiplier(c, laplacian_symbol())


def resolvent(c: SpectralField) -> SpectralField:
    return apply_multiplier(c, resolvent_symbol())


def truncated_resolvent(c: SpectralField, cutoff: int) -> SpectralField:
    """Resolvent action on modes with norm_sq < (cutoff+1)^2, zero beyond.

    As an operator on the stored box its rank is the number of kept modes.
    """
    return apply_multiplier(c, truncated_resolvent_symbol(cutoff))


def sobolev_norm_sq(c: SpectralField, order: float) -> float:
    """sum_xi (1 + |xi|^2)^order |c(xi)|^2 over the stored box."""
    if not np.isfinite(order):
        raise ValueError(f"Sobolev order must be finite, got {order}")
    weights = (1.0 + norm_sq_array(c.grid)) ** order
    return float(np.sum(weights * np.abs(c.coefficients) ** 2))


def l2_norm(c: SpectralField) -> float:
    return float(np.sqrt(sobolev_norm_sq(c, 0.0)))
