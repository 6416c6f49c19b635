"""Diagonal Fourier-multiplier operators and spectral-side Sobolev norms.

A multiplier acts coefficient-wise, c(xi) -> sigma(xi) c(xi).  The built-in
symbols cover the identity, the Helmholtz operator 1 + |xi|^2, its inverse
(the resolvent, operator norm 1), and level-cutoff truncations of the
resolvent.  Every symbol is a function of k = |xi|^2 alone, computed on
one cached |xi|^2 array per grid; the positive Laplacian's symbol is that
array itself.

Each of them applies to one field or to a stack of fields alike: the
symbol array multiplies the trailing n axes, `apply_multiplier` applies it
through the transforms, and `sobolev_norm_sq` sums over them, a float for
one field and one sum per field for a stack.

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

from . import transform
from .lattice import Frequency, norm_sq, tail_min_norm_sq
from .transform import GridField, SpectralField, TorusGrid


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
    is applied; the truncation symbols, the tail projection and the
    extraction all use it.
    """
    return k < tail_min_norm_sq(cutoff)


def identity_symbol() -> MultiplierSymbol:
    return MultiplierSymbol("identity", of_norm_sq=np.ones_like)


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


def scaled_power(symbol: MultiplierSymbol, base: float, power: int,
                 scale: float) -> MultiplierSymbol:
    """scale (symbol / base)^power.  With base the symbol's largest value,
    the power's top is scale and a value v below base moves to scale
    (v / base)^power, so a relative gap below the top widens with the
    power.  A value above base grows with the power; one that overflows is
    inf, without a warning, and `symbol_array` refuses it."""
    def of_norm_sq(k):
        with np.errstate(over="ignore"):
            return scale * (symbol.of_norm_sq(k) / base) ** power

    return MultiplierSymbol(f"{symbol.name}^{power}", of_norm_sq=of_norm_sq)


def symbol_array(symbol: MultiplierSymbol, grid: TorusGrid) -> np.ndarray:
    """The symbol on the grid's cached |xi|^2 array: one finite value per mode."""
    values = symbol.of_norm_sq(norm_sq_array(grid))
    if np.shape(values) != grid.shape:
        raise ValueError(
            f"symbol {symbol.name!r} returned shape {np.shape(values)}, "
            f"not the box's {grid.shape}"
        )
    if not np.all(np.isfinite(values)):
        raise transform.NonFiniteError(
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


def apply_multiplier(grid: TorusGrid, sigma: np.ndarray, values: np.ndarray) -> np.ndarray:
    """inverse(sigma * forward(values)).values, sigma a symbol array over the
    box: the one multiplier apply, that of CG and its preconditioner, the
    multiplier solve, Lanczos and the resolvent certificate.  The public
    transform pair is looked up at each call, so a fault planted in it
    reaches all of them.

    The values are one field or a (k, *grid.shape) stack of fields; sigma
    is then one symbol array shared by every field, or a (k, *grid.shape)
    stack of them, one per field.  One field against a stack of k symbols
    comes back as the stack of its k responses.  The responses are made a
    `transform._stack_blocks` block at a time: a stack of fields is
    transformed a block at a time, while one field against a stack of
    symbols is transformed forward once and its inverses are taken a block
    of symbols at a time, its coefficients held until the last.  Each
    response comes back bit for bit as it would alone."""
    symbols_stacked = sigma.ndim > grid.dimension
    stacked = values.ndim > grid.dimension
    fields = values if stacked else values[np.newaxis]
    if symbols_stacked and len(fields) not in (1, len(sigma)):
        raise ValueError(f"{len(fields)} fields against {len(sigma)} symbols")
    count = len(sigma) if symbols_stacked else len(fields)
    out = np.empty((count, *grid.shape), dtype=np.complex128)
    once = len(fields) < count
    if once:
        c = transform.forward(GridField(grid, fields))
        spectrum = c.coefficients
    for block in transform._stack_blocks(len(out), grid.size):
        symbols = sigma[block] if symbols_stacked else sigma
        # the products bypass SpectralField's check; `inverse` validates them
        if once:
            c.coefficients = spectrum * symbols
        else:
            c = transform.forward(GridField(grid, fields[block]))
            c.coefficients *= symbols
        out[block] = transform.inverse(c).values
    return out if stacked or symbols_stacked else out[0]


def sobolev_norm_sq(c: SpectralField, order: float) -> float | np.ndarray:
    """sum_xi (1 + |xi|^2)^order |c(xi)|^2 over the stored box: a float for
    one field, the (k,) float64 array of each field's sum for a stack."""
    if not np.isfinite(order):
        raise ValueError(f"Sobolev order must be finite, got {order}")
    weights = (1.0 + norm_sq_array(c.grid)) ** order
    return transform._field_sums(weights * np.abs(c.coefficients) ** 2, c.grid.dimension)


def l2_norm(c: SpectralField) -> float | np.ndarray:
    """sqrt(sum_xi |c(xi)|^2): a float for one field, the (k,) float64 array
    of each field's for a stack."""
    norm = np.sqrt(transform._field_sums(np.abs(c.coefficients) ** 2, c.grid.dimension))
    return float(norm) if norm.ndim == 0 else norm
