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
    arr = np.zeros(grid.shape, dtype=np.complex128)
    h = grid.box_radius
    for xi in modes:
        arr[tuple(int(x) + h for x in xi)] = 1.0
    return SpectralField(grid, arr)


def random_spectral(grid: TorusGrid, rng: np.random.Generator) -> SpectralField:
    return SpectralField(
        grid, rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
    )


def random_grid(grid: TorusGrid, rng: np.random.Generator) -> GridField:
    return GridField(
        grid, rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
    )


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

