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

Two independent evaluation routes are provided: a mixed-radix
Cooley-Tukey transform applied axis by axis (falling back to a dense
axis transform at prime lengths, up to MAX_DENSE_LENGTH), and a literal
double-summation oracle used to cross-check it.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class TorusGrid:
    """Uniform grid with M points per axis on the n-torus, M odd and >= 3."""

    dimension: int
    points_per_axis: int

    def __post_init__(self) -> None:
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

    def axis_frequencies(self) -> np.ndarray:
        """Frequencies -h..h along one axis, in storage order."""
        h = self.box_radius
        return np.arange(-h, h + 1)

    def frequencies(self):
        """Iterate all frequency tuples of the box in row-major storage order."""
        return itertools.product(self.axis_frequencies().tolist(), repeat=self.dimension)


def _validated_values(grid: TorusGrid, values, what: str) -> np.ndarray:
    arr = np.asarray(values, dtype=np.complex128)
    if arr.size != grid.size:
        raise ValueError(
            f"{what} has {arr.size} entries, grid holds {grid.size}"
        )
    arr = arr.reshape(grid.shape)
    if not np.all(np.isfinite(arr.real)) or not np.all(np.isfinite(arr.imag)):
        raise ValueError(f"{what} contains non-finite entries")
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
        """Coefficient at the frequency tuple xi."""
        h = self.grid.box_radius
        idx = tuple(int(x) + h for x in xi)
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


# ---------------------------------------------------------------------------
# Fast path: mixed-radix Cooley-Tukey along one axis at a time.
# ---------------------------------------------------------------------------


def _smallest_factor(m: int) -> int:
    if m % 2 == 0:
        return 2
    f = 3
    while f * f <= m:
        if m % f == 0:
            return f
        f += 2
    return m


# Largest length the dense fallback builds, so that one cached m x m complex
# matrix takes at most 64 MiB.
MAX_DENSE_LENGTH = 2048


@functools.lru_cache(maxsize=64)
def _dense_dft_matrix(m: int, sign: int) -> np.ndarray:
    if m > MAX_DENSE_LENGTH:
        raise ValueError(
            f"points: the axis length has the prime factor {m}, above the "
            f"dense-transform limit {MAX_DENSE_LENGTH}; choose points whose "
            f"prime factors are all <= {MAX_DENSE_LENGTH}"
        )
    j = np.arange(m)
    return np.exp(sign * 2j * np.pi / m * np.outer(j, j))


@functools.lru_cache(maxsize=64)
def _twiddle(m: int, p: int, sign: int) -> np.ndarray:
    # w^{r b} for r < p, b < m/p, with w the length-m root of unit modulus
    r = np.arange(p).reshape(p, 1)
    b = np.arange(m // p).reshape(1, m // p)
    return np.exp(sign * 2j * np.pi / m * r * b)


def _fft_last_axis(x: np.ndarray, sign: int) -> np.ndarray:
    """Unnormalized DFT sum_j x_j w^{jk}, w = exp(sign 2pi i / m), last axis."""
    m = x.shape[-1]
    p = _smallest_factor(m)
    if p == m or m <= 4:
        # prime length (or tiny): dense axis transform
        return x @ _dense_dft_matrix(m, sign)
    q = m // p
    # decimate in time: sub[..., r, :] holds x[..., r::p]
    sub = np.moveaxis(x.reshape(*x.shape[:-1], q, p), -1, -2)
    sub = _fft_last_axis(sub, sign) * _twiddle(m, p, sign)
    # recombine with a p-point DFT across the residue axis:
    # out[..., a, b] = sum_r W_p[a, r] * sub[..., r, b]  equals X[a*q + b]
    out = np.einsum("ar,...rb->...ab", _dense_dft_matrix(p, sign), sub)
    return out.reshape(*x.shape[:-1], m)


def _fft_axis(x: np.ndarray, axis: int, sign: int) -> np.ndarray:
    moved = np.moveaxis(x, axis, -1)
    return np.moveaxis(_fft_last_axis(moved, sign), -1, axis)


def forward(u: GridField) -> SpectralField:
    """Analysis transform: c(xi) = M^{-n} sum_m u(x_m) exp(-i xi . x_m).

    Exact (to roundoff) for any field band-limited to the symmetric box.
    """
    grid = u.grid
    vals = u.values
    for axis in range(grid.dimension):
        vals = _fft_axis(vals, axis, sign=-1)
    # reorder k = 0..M-1 into the symmetric box xi = -h..h
    vals = np.roll(vals, grid.box_radius, axis=tuple(range(grid.dimension)))
    return SpectralField(grid, vals / grid.size)


def inverse(c: SpectralField) -> GridField:
    """Synthesis transform: u(x_m) = sum_xi c(xi) exp(i xi . x_m)."""
    grid = c.grid
    vals = np.roll(
        c.coefficients, -grid.box_radius, axis=tuple(range(grid.dimension))
    )
    for axis in range(grid.dimension):
        vals = _fft_axis(vals, axis, sign=+1)
    return GridField(grid, vals)


# ---------------------------------------------------------------------------
# Oracle path: literal double summation, O(M^{2n}).
# ---------------------------------------------------------------------------


def _coordinate_meshes(grid: TorusGrid) -> list[np.ndarray]:
    return list(np.meshgrid(*(grid.axis_points(),) * grid.dimension, indexing="ij"))


def naive_forward(u: GridField) -> SpectralField:
    """Direct-sum analysis: one full-grid sum per stored frequency."""
    grid = u.grid
    meshes = _coordinate_meshes(grid)
    out = np.empty(grid.shape, dtype=np.complex128)
    for idx, xi in zip(np.ndindex(grid.shape), grid.frequencies()):
        phase = sum(x * mesh for x, mesh in zip(xi, meshes))
        out[idx] = np.sum(u.values * np.exp(-1j * phase))
    return SpectralField(grid, out / grid.size)


def naive_inverse(c: SpectralField) -> GridField:
    """Direct-sum synthesis: accumulate c(xi) exp(i xi . x) mode by mode."""
    grid = c.grid
    meshes = _coordinate_meshes(grid)
    out = np.zeros(grid.shape, dtype=np.complex128)
    for idx, xi in zip(np.ndindex(grid.shape), grid.frequencies()):
        phase = sum(x * mesh for x, mesh in zip(xi, meshes))
        out += c.coefficients[idx] * np.exp(1j * phase)
    return GridField(grid, out)


# ---------------------------------------------------------------------------
# Norms and identities.
# ---------------------------------------------------------------------------


def grid_l2_norm(u: GridField) -> float:
    """Quadrature L^2 norm sqrt(M^{-n} sum_m |u(x_m)|^2)."""
    return float(np.linalg.norm(u.values.ravel()) / math.sqrt(u.grid.size))


def plancherel_defect(u: GridField) -> float:
    """|sum_xi |c(xi)|^2 - M^{-n} sum_m |u(x_m)|^2| for c = forward(u)."""
    c = forward(u)
    spectral_energy = float(np.sum(np.abs(c.coefficients) ** 2))
    grid_energy = float(np.sum(np.abs(u.values) ** 2)) / u.grid.size
    return abs(spectral_energy - grid_energy)


# ---------------------------------------------------------------------------
# JSON-document serialization (bit-exact round trips).
# ---------------------------------------------------------------------------


def field_to_doc(field: GridField | SpectralField) -> dict:
    """Serialize to {dimension, points_per_axis, kind, values: [[re, im], ...]}."""
    if isinstance(field, GridField):
        kind, arr = "grid", field.values
    elif isinstance(field, SpectralField):
        kind, arr = "spectral", field.coefficients
    else:
        raise TypeError(f"expected GridField or SpectralField, got {type(field)!r}")
    flat = arr.ravel()
    return {
        "dimension": field.grid.dimension,
        "points_per_axis": field.grid.points_per_axis,
        "kind": kind,
        "values": [[float(z.real), float(z.imag)] for z in flat],
    }


def field_from_doc(doc: dict) -> GridField | SpectralField:
    grid = TorusGrid(int(doc["dimension"]), int(doc["points_per_axis"]))
    pairs = doc["values"]
    arr = np.array([complex(re, im) for re, im in pairs], dtype=np.complex128)
    kind = doc["kind"]
    if kind == "grid":
        return GridField(grid, arr)
    if kind == "spectral":
        return SpectralField(grid, arr)
    raise ValueError(f"unknown field kind {kind!r}")
