"""Grid samples <-> Fourier coefficients on the uniform torus grid.

Conventions
-----------
The torus is [0, 2pi)^n sampled at x_m = 2pi m / M per axis with M odd, so
the frequency box xi_j in [-(M-1)/2, (M-1)/2] is symmetric under xi -> -xi
and there is no unpaired Nyquist mode.  The forward transform carries the
normalization

    c(xi) = M^{-n} sum_m u(x_m) exp(-i xi . x_m)

and the inverse is the unnormalized synthesis u(x_m) = sum_xi c(xi)
exp(i xi . x_m); with this placement the discrete Parseval identity reads
sum_xi |c(xi)|^2 = M^{-n} sum_m |u(x_m)|^2.

Two independent evaluation routes are provided.  The production path is
numpy.fft (pocketfft, O(M^n log M) at every length, primes included),
applied by one private array-level pair over the trailing n axes, so a
stack of fields goes through the same code as a single one.  The pair moves
numpy's order k = 0..M-1 into the box xi = -h..h with the 2**n block copies
that `np.fft.fftshift` makes, from (destination, source) slices cached per
(M, n, direction), so the output is the same permutation, bit for bit,
without fftshift's per-call bookkeeping.  The oracle that cross-checks it
is a blocked direct sum, O(M^{2n}) and with no FFT: each block of kernel
rows exp(-+i xi . x_m) is gathered from the M roots of unity by an exact
integer phase, the broadcast sum of the per-axis tables (xi_j m_j) mod M,
which lies in [0, n(M-1)] and indexes a root table wrapped to that length,
so each entry is the root at (xi . m) mod M.  A block serves every field
of a stack, one matrix-vector product per field.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class TorusGrid:
    """Uniform grid with M points per axis on the n-torus, M odd and >= 3.

    Both sizes are integers; one that is not, such as 9.0 or True, raises
    TypeError.
    """

    dimension: int
    points_per_axis: int

    def __post_init__(self) -> None:
        for name in ("dimension", "points_per_axis"):
            value = getattr(self, name)
            if isinstance(value, bool):
                raise TypeError(f"{name} must be an integer, not bool")
            object.__setattr__(self, name, operator.index(value))
        if self.dimension < 1:
            raise ValueError(f"dimension must be >= 1, got {self.dimension}")
        if self.points_per_axis < 3:
            raise ValueError(
                f"points_per_axis must be >= 3, got {self.points_per_axis}"
            )
        if self.points_per_axis % 2 == 0:
            raise ValueError(
                f"points_per_axis must be odd, got {self.points_per_axis}"
            )

    @property
    def spacing(self) -> float:
        return 2.0 * math.pi / self.points_per_axis

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.points_per_axis,) * self.dimension

    @property
    def size(self) -> int:
        return self.points_per_axis**self.dimension

    @property
    def box_radius(self) -> int:
        """Largest frequency magnitude representable along a single axis."""
        return (self.points_per_axis - 1) // 2

    def axis_points(self) -> np.ndarray:
        """Sample coordinates 2pi m / M along one axis."""
        return 2.0 * math.pi * np.arange(self.points_per_axis) / self.points_per_axis

    def frequencies(self):
        """Iterate all frequency tuples of the box in row-major storage order."""
        h = self.box_radius
        return itertools.product(range(-h, h + 1), repeat=self.dimension)


class NonFiniteError(ValueError):
    """A field, or a symbol's values on the box, holds NaN or inf: whatever
    computed it has failed numerically."""


def _validated_values(grid: TorusGrid, values, what: str) -> np.ndarray:
    arr = np.asarray(values, dtype=np.complex128)
    if arr.size != grid.size:
        raise ValueError(
            f"{what} has {arr.size} entries, grid holds {grid.size}"
        )
    arr = arr.reshape(grid.shape)
    if not np.isfinite(arr).all():
        raise NonFiniteError(f"{what} contains non-finite entries")
    return arr


@dataclass
class GridField:
    """Complex samples u(x_m) on the uniform grid, shape (M,)*n."""

    grid: TorusGrid
    values: np.ndarray

    def __post_init__(self) -> None:
        self.values = _validated_values(self.grid, self.values, "grid field")

    def __add__(self, other: "GridField") -> "GridField":
        _require_same_grid(self.grid, other.grid)
        return GridField(self.grid, self.values + other.values)

    def __sub__(self, other: "GridField") -> "GridField":
        _require_same_grid(self.grid, other.grid)
        return GridField(self.grid, self.values - other.values)

    def __mul__(self, scalar: complex) -> "GridField":
        return GridField(self.grid, self.values * scalar)

    __rmul__ = __mul__


def random_field(grid: TorusGrid, rng: np.random.Generator) -> GridField:
    """Standard complex Gaussian samples on the grid (test/benchmark input)."""
    return GridField(
        grid, rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
    )


@dataclass
class SpectralField:
    """Fourier coefficients c(xi) on the symmetric box, shape (M,)*n.

    Axis index a corresponds to frequency xi = a - (M-1)/2.
    """

    grid: TorusGrid
    coefficients: np.ndarray

    def __post_init__(self) -> None:
        self.coefficients = _validated_values(
            self.grid, self.coefficients, "spectral field"
        )

    def __add__(self, other: "SpectralField") -> "SpectralField":
        _require_same_grid(self.grid, other.grid)
        return SpectralField(self.grid, self.coefficients + other.coefficients)

    def __sub__(self, other: "SpectralField") -> "SpectralField":
        _require_same_grid(self.grid, other.grid)
        return SpectralField(self.grid, self.coefficients - other.coefficients)

    def __mul__(self, scalar: complex) -> "SpectralField":
        return SpectralField(self.grid, self.coefficients * scalar)

    __rmul__ = __mul__

    def __getitem__(self, xi) -> complex:
        """Coefficient at the integer frequency tuple xi."""
        h = self.grid.box_radius
        idx = tuple(operator.index(x) + h for x in xi)
        if len(idx) != self.grid.dimension or any(
            a < 0 or a >= self.grid.points_per_axis for a in idx
        ):
            raise IndexError(f"frequency {tuple(xi)} outside the stored box")
        return complex(self.coefficients[idx])

    def is_conjugate_symmetric(self, tol: float = 1e-12) -> bool:
        """True when c(-xi) == conj(c(xi)) within tol, i.e. the field is real."""
        flipped = self.coefficients[(slice(None, None, -1),) * self.grid.dimension]
        return bool(np.max(np.abs(flipped - np.conj(self.coefficients))) <= tol)


def _require_same_grid(a: TorusGrid, b: TorusGrid) -> None:
    if a != b:
        raise ValueError(f"fields live on different grids: {a} vs {b}")


@functools.lru_cache(maxsize=64)
def _shift_blocks(m: int, dimension: int, into_box: bool) -> tuple:
    """(destination, source) index pairs of a cyclic shift of the trailing
    `dimension` axes by h = (M-1)/2 (into the box, as fftshift on odd M) or
    by M - h (out of it, as ifftshift): the 2**n blocks np.roll copies."""
    shift = m // 2 if into_box else m - m // 2
    halves = ((slice(shift, None), slice(None, m - shift)),
              (slice(None, shift), slice(m - shift, None)))
    return tuple(
        ((Ellipsis, *(dst for dst, _ in blocks)), (Ellipsis, *(src for _, src in blocks)))
        for blocks in itertools.product(halves, repeat=dimension)
    )


def _box_shift(values: np.ndarray, dimension: int, into_box: bool) -> np.ndarray:
    out = np.empty_like(values)
    for dst, src in _shift_blocks(values.shape[-1], dimension, into_box):
        out[dst] = values[src]
    return out


def _analysis(values: np.ndarray, dimension: int) -> np.ndarray:
    """Forward transform of the trailing `dimension` axes, shifted into the box."""
    axes = tuple(range(-dimension, 0))
    coefficients = np.fft.fftn(values, axes=axes, norm="forward")
    return _box_shift(coefficients, dimension, into_box=True)


def _synthesis(coefficients: np.ndarray, dimension: int) -> np.ndarray:
    """Inverse of `_analysis` over the trailing `dimension` axes."""
    axes = tuple(range(-dimension, 0))
    return np.fft.ifftn(
        _box_shift(coefficients, dimension, into_box=False), axes=axes, norm="forward"
    )


def forward(u: GridField) -> SpectralField:
    """Analysis transform: c(xi) = M^{-n} sum_m u(x_m) exp(-i xi . x_m).

    Exact (to roundoff) for any field band-limited to the symmetric box.
    """
    return SpectralField(u.grid, _analysis(u.values, u.grid.dimension))


def inverse(c: SpectralField) -> GridField:
    """Synthesis transform: u(x_m) = sum_xi c(xi) exp(i xi . x_m)."""
    return GridField(c.grid, _synthesis(c.coefficients, c.grid.dimension))


# ---------------------------------------------------------------------------
# Oracle path: blocked direct summation, O(M^{2n}).
# ---------------------------------------------------------------------------

# Complex entries per block of kernel rows (256 KiB).  At 3-D M=9 a block
# of 2**14 holds 22 rows instead of the 5 of 2**12, and one sweep of the
# 729 x 729 kernel took 2.2 ms instead of 3.8 ms (one BLAS thread, 2-core
# x86-64 VM); 2**16 took 2.1 ms at four times the memory.
_BLOCK_ENTRIES = 2**14
# A block never holds fewer than this many one-dimensional lines of M
# points, so a long 1-D grid does not pay one call per kernel row.
_BLOCK_LINES = 16


def _frequency_vectors(grid: TorusGrid) -> np.ndarray:
    """Every stored frequency as an integer row, in storage order: (size, n)."""
    indices = np.indices(grid.shape).reshape(grid.dimension, grid.size)
    return indices.T - grid.box_radius


def _mode_blocks(grid: TorusGrid, frequencies: np.ndarray, sign: int):
    """Yield (rows, kernel) over blocks of the integer frequency rows given.

    kernel[r, m] = exp(sign * i * xi_r . x_m) over the flattened grid, for
    the frequencies frequencies[rows].  The phase xi . m is an exact integer,
    so each entry is the root of unity exp(sign * 2 pi i j / M) at
    j = (xi . m) mod M, looked up instead of evaluated: the per-axis tables
    (xi_j m_j) mod M, of shape (rows, M), summed by broadcasting give a
    phase in [0, n(M-1)] congruent to xi . m, and the root table is wrapped
    to that length.
    """
    m, n = grid.points_per_axis, grid.dimension
    roots = np.exp(sign * 2j * math.pi * np.arange(m) / m)
    wrapped = roots[np.arange(n * (m - 1) + 1) % m]
    axis = np.arange(m)
    step = max(_BLOCK_ENTRIES // grid.size, -(-_BLOCK_LINES * m // grid.size))
    for start in range(0, len(frequencies), step):
        xis = frequencies[start:start + step]
        count = len(xis)
        phase = (xis[:, 0, None] * axis) % m
        for j in range(1, n):
            table = (xis[:, j, None] * axis) % m
            phase = phase[..., None] + table.reshape((count,) + (1,) * j + (m,))
        yield slice(start, start + count), wrapped[phase.reshape(count, grid.size)]


def _one_grid(fields) -> TorusGrid:
    grid = fields[0].grid
    for field in fields[1:]:
        _require_same_grid(grid, field.grid)
    return grid


def naive_forward(u: GridField | Sequence[GridField]):
    """Direct-sum analysis: one full-grid sum per stored frequency.

    Given a sequence of fields on one grid rather than one field, returns
    the list of their transforms from a single sweep over the kernel blocks.
    Each field takes one matrix-vector product per block: at 3-D M=9 and
    M=19 that measured faster than one matrix-matrix product for the stack,
    and it leaves BLAS's matrix-matrix work buffers untouched.  An empty
    sequence gives an empty list, and no kernel is built.
    """
    fields = [u] if isinstance(u, GridField) else list(u)
    if not fields:
        return []
    grid = _one_grid(fields)
    analysed = np.empty((len(fields), grid.size), dtype=np.complex128)
    for rows, kernel in _mode_blocks(grid, _frequency_vectors(grid), -1):
        for field, out in zip(fields, analysed):
            out[rows] = kernel @ field.values.ravel()
    spectra = [SpectralField(grid, row / grid.size) for row in analysed]
    return spectra[0] if isinstance(u, GridField) else spectra


def naive_inverse(c: SpectralField | Sequence[SpectralField]):
    """Direct-sum synthesis: accumulate c(xi) exp(i xi . x) block by block.

    Given a sequence of spectral fields on one grid, returns the list of
    their syntheses from a single sweep, as `naive_forward` does; an empty
    sequence gives an empty list, and no kernel is built.
    """
    spectra = [c] if isinstance(c, SpectralField) else list(c)
    if not spectra:
        return []
    grid = _one_grid(spectra)
    synthesised = np.zeros((len(spectra), grid.size), dtype=np.complex128)
    for rows, kernel in _mode_blocks(grid, _frequency_vectors(grid), 1):
        for spectrum, out in zip(spectra, synthesised):
            out += spectrum.coefficients.ravel()[rows] @ kernel
    fields = [GridField(grid, row) for row in synthesised]
    return fields[0] if isinstance(c, SpectralField) else fields


# ---------------------------------------------------------------------------
# Norms and identities.
# ---------------------------------------------------------------------------


def grid_l2_norm(u: GridField) -> float:
    """Quadrature L^2 norm sqrt(M^{-n} sum_m |u(x_m)|^2)."""
    return float(np.linalg.norm(u.values.ravel()) / math.sqrt(u.grid.size))


def plancherel_defect(u: GridField, c: SpectralField) -> float:
    """|sum_xi |c(xi)|^2 - M^{-n} sum_m |u(x_m)|^2| for c = forward(u)."""
    spectral_energy = float(np.sum(np.abs(c.coefficients) ** 2))
    grid_energy = float(np.sum(np.abs(u.values) ** 2)) / u.grid.size
    return abs(spectral_energy - grid_energy)
