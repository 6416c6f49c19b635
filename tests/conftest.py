import tracemalloc

import numpy as np
import pytest

from toruskit import (
    GridField,
    SpectralField,
    TorusGrid,
    forward,
    grid_l2_norm,
    inverse,
)
from toruskit.operators import symbol_array


@pytest.fixture
def grid_2d_9() -> TorusGrid:
    return TorusGrid(2, 9)


def spectral_delta(grid: TorusGrid, *modes: tuple) -> SpectralField:
    """Field with unit coefficient at each given frequency, zero elsewhere."""
    c = SpectralField(grid, np.zeros(grid.shape, dtype=np.complex128))
    for xi in modes:
        c[xi]  # refuses a frequency outside the box
        c.coefficients[tuple(int(x) for x in xi)] = 1.0
    return c


def random_spectral(grid: TorusGrid, rng: np.random.Generator) -> SpectralField:
    return SpectralField(
        grid, rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
    )


def random_grid(grid: TorusGrid, rng: np.random.Generator) -> GridField:
    return GridField(
        grid, rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
    )


def peak_in_fields(grid: TorusGrid, call) -> float:
    """tracemalloc's peak over one `call()`, made after a first call has
    warmed up every cache, in complex fields of the grid's size."""
    call()
    tracemalloc.start()
    try:
        call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / (grid.size * np.dtype(np.complex128).itemsize)


def per_mode_residuals(grid, symbol):
    """The eigenpair residuals one mode at a time, from float phases, each
    mode's coefficients multiplied by the symbol's array here, not through
    `operators.apply_multiplier`."""
    x = np.meshgrid(*(grid.axis_points(),) * grid.dimension, indexing="ij")
    out = []
    for xi in grid.frequencies():
        psi = GridField(grid, np.exp(1j * sum(k * axis for k, axis in zip(xi, x))))
        c = forward(psi)
        t_psi = inverse(SpectralField(grid, symbol_array(symbol, grid) * c.coefficients))
        out.append(grid_l2_norm(t_psi - psi * (1.0 / (1.0 + sum(k * k for k in xi)))))
    return np.array(out)

