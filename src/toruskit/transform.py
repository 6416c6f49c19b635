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

A field holds one field, of shape (M,)*n, or a stack of k fields on one
grid, of shape (k, *(M,)*n), validated once.  Everything here acts on the
trailing n axes, so a stack goes through the same code as one field, each
field bit for bit as it would go alone: one call on k fields pays numpy's
per-call cost once instead of k times.  Coefficients are in numpy's FFT
order: index j of an axis holds frequency j for j <= h = (M-1)/2 and
j - M above it, as `_axis_frequencies` says for every reader.

Two independent evaluation routes are provided.  The production path is
numpy.fft (pocketfft, O(M^n log M) at every length, primes included),
applied by one private array-level pair, `_analysis` and `_synthesis`,
which `forward` and `inverse` wrap.  Each makes one `np.fft.fft` or `ifft`
pass per trailing axis, last axis first as `np.fft.fftn` orders them, all
written with `out=` into the buffer of its first pass: the same pocketfft
arithmetic as fftn, bit for bit, with one FFT buffer per transform where
fftn allocates an array per axis, and the caller's array never written.
The oracle that cross-checks it, `naive_forward` and `naive_inverse`, is
a direct sum with no FFT, taken one axis at a time: the kernel
exp(-+i xi . x_m) is the product of its per-axis factors, so the sum is
n contractions of the grid with the M x M axis table, O(n M^{n+1}) in
all.  Each block of table rows is gathered from the M roots of unity by
the exact integer phase (xi_j m_j) mod M, made without a division per
entry, and serves every field of a stack at once.
"""

from __future__ import annotations

import itertools
import math
import operator
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
        """Iterate all frequency tuples of the box in storage order: 0..h, -h..-1 per axis."""
        return itertools.product(_axis_frequencies(self.points_per_axis).tolist(),
                                 repeat=self.dimension)


def _axis_frequencies(m: int) -> np.ndarray:
    """The int frequency at each index of an axis: 0..h, then -h..-1 (numpy's FFT order)."""
    return (np.arange(m) + m // 2) % m - m // 2


class NonFiniteError(ValueError):
    """A field, or a symbol's values on the box, holds NaN or inf: whatever
    computed it has failed numerically."""


def _validated_values(grid: TorusGrid, values, what: str) -> np.ndarray:
    """`values` as complex128: a (k, *grid.shape) stack as it is, anything
    else as one field of grid.size entries, reshaped to grid.shape."""
    arr = np.asarray(values, dtype=np.complex128)
    if arr.shape[1:] != grid.shape:
        if arr.size != grid.size:
            raise ValueError(
                f"{what} has {arr.size} entries, grid holds {grid.size}"
            )
        arr = arr.reshape(grid.shape)
    # a complex value is finite exactly when both of its parts are, so a
    # C-contiguous array is checked on its float64 view, which is cheaper;
    # any other array is checked as it is, not copied
    parts = arr.view(np.float64) if arr.flags.c_contiguous else arr
    if not np.isfinite(parts).all():
        raise NonFiniteError(f"{what} contains non-finite entries")
    return arr


@dataclass
class GridField:
    """Complex samples u(x_m) on the uniform grid: one field, shape (M,)*n,
    or a stack of k fields, shape (k, *(M,)*n)."""

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
    return GridField(grid, _random_values(grid, rng, 1)[0])


def _random_coefficients(grid: TorusGrid, rng: np.random.Generator, count: int) -> np.ndarray:
    """`count` seeded spectral draws: the `_random_values` stack listed over
    the centred box xi = -h..h, so a seed puts each draw at one frequency."""
    axes = tuple(range(-grid.dimension, 0))
    return np.fft.ifftshift(_random_values(grid, rng, count), axes=axes)


def _random_values(grid: TorusGrid, rng: np.random.Generator, count: int) -> np.ndarray:
    """The values of `count` successive `random_field` draws from rng, as one
    (count, *grid.shape) stack from one draw of the same stream: each
    field's real parts, then its imaginary parts."""
    parts = rng.standard_normal((count, 2, *grid.shape))
    return _complex_values(parts[:, 0], parts[:, 1])


def _complex_values(real: np.ndarray, imag: np.ndarray) -> np.ndarray:
    """real + 1j * imag as one complex128 array, its parts filled in place:
    no complex temporaries, and each value the same as the expression's."""
    values = np.empty(real.shape, dtype=np.complex128)
    values.real = real
    values.imag = imag
    return values


# Grid points, summed over its fields, that a stack spans where a loop over
# many fields takes them a stack at a time (`_stack_blocks`): the
# responses of `operators.apply_multiplier`, which include the certificate's
# fields and the preconditioner's two symbols; the lockstep Lanczos runs,
# a family's rows, verify's transform and tail-bound fields.  A field of
# this size or more is a stack alone, so a large grid holds no more fields
# at once than one field at a time does.  At 2**13 points a complex stack
# takes 128 KiB, and 3-D M=9 stacks 11 fields.  In-process `verify
# --dimension 3 --points 9` (one BLAS thread, 2-core x86-64 VM) ran about
# as fast at 2**13 as at 2**14, and at 2**12 about 15% slower; its peak RSS
# after 300 runs was 0.6, 1.6 and 0.3 MiB above one field at a time.
_STACK_POINTS = 2**13


def _stack_blocks(count: int, size: int) -> list[slice]:
    """Consecutive slices over range(count), each of at most
    max(1, _STACK_POINTS // size) fields of `size` points."""
    step = max(1, _STACK_POINTS // size)
    return [slice(start, min(start + step, count)) for start in range(0, count, step)]


@dataclass
class SpectralField:
    """Fourier coefficients c(xi) on the symmetric box: one field, shape
    (M,)*n, or a stack of k fields, shape (k, *(M,)*n).

    Numpy's FFT order: index j of each trailing axis holds frequency j for
    j <= (M-1)/2 and j - M above it, so index xi holds c(xi) for every xi.
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

    def __getitem__(self, xi) -> complex | np.ndarray:
        """Coefficient at the integer frequency tuple xi: a complex for one
        field, the (k,) array of each field's for a stack."""
        idx = tuple(map(operator.index, xi))
        if len(idx) != self.grid.dimension or any(
            abs(a) > self.grid.box_radius for a in idx
        ):
            raise IndexError(f"frequency {tuple(xi)} outside the stored box")
        value = self.coefficients[(Ellipsis, *idx)]
        return complex(value) if value.ndim == 0 else value

    def is_conjugate_symmetric(self, tol: float = 1e-12) -> bool:
        """True when c(-xi) == conj(c(xi)) within tol, i.e. the field is real;
        for a stack, when every field is."""
        # entry j of each axis against entry -j mod M: reversed, then rolled by one
        axes = tuple(range(-self.grid.dimension, 0))
        reflected = np.roll(np.flip(self.coefficients, axis=axes), 1, axis=axes)
        return bool(np.max(np.abs(reflected - np.conj(self.coefficients)), initial=0.0) <= tol)


def _require_same_grid(a: TorusGrid, b: TorusGrid) -> None:
    if a != b:
        raise ValueError(f"fields live on different grids: {a} vs {b}")


def _analysis(values: np.ndarray, dimension: int) -> np.ndarray:
    """Forward transform of the trailing `dimension` axes, in FFT order."""
    coefficients = np.fft.fft(values, axis=-1, norm="forward")
    for axis in range(-2, -dimension - 1, -1):
        np.fft.fft(coefficients, axis=axis, norm="forward", out=coefficients)
    return coefficients


def _synthesis(coefficients: np.ndarray, dimension: int) -> np.ndarray:
    """Inverse of `_analysis` over the trailing `dimension` axes."""
    values = np.fft.ifft(coefficients, axis=-1, norm="forward")
    for axis in range(-2, -dimension - 1, -1):
        np.fft.ifft(values, axis=axis, norm="forward", out=values)
    return values


def forward(u: GridField) -> SpectralField:
    """Analysis transform: c(xi) = M^{-n} sum_m u(x_m) exp(-i xi . x_m).

    Exact (to roundoff) for any field band-limited to the symmetric box.
    """
    return SpectralField(u.grid, _analysis(u.values, u.grid.dimension))


def inverse(c: SpectralField) -> GridField:
    """Synthesis transform: u(x_m) = sum_xi c(xi) exp(i xi . x_m)."""
    return GridField(c.grid, _synthesis(c.coefficients, c.grid.dimension))


# ---------------------------------------------------------------------------
# Oracle path: direct summation one axis at a time, O(n M^{n+1}).
# ---------------------------------------------------------------------------

# Complex entries per block of axis-table rows (256 KiB).  The table has M^2
# entries, so up to M=127 one block holds it.  At 2-D M=255 `naive_forward`
# of three fields took 25, 19 and 17 ms at 2**12, 2**14 and 2**16 entries,
# and in 1-D at M=511 to 8191 the three were within 10% (one BLAS thread,
# 2-core x86-64 VM).
_BLOCK_ENTRIES = 2**14
# A block never holds fewer than this many rows, so a long 1-D grid does not
# pay one call per row.
_BLOCK_LINES = 16


def _frequency_vectors(grid: TorusGrid) -> np.ndarray:
    """Every stored frequency as an integer row, in storage order: (size, n)."""
    indices = np.indices(grid.shape).reshape(grid.dimension, grid.size)
    return _axis_frequencies(grid.points_per_axis)[indices.T]


def _axis_blocks(outputs: np.ndarray, inputs: np.ndarray, sign: int):
    """Yield (rows, table) over blocks of rows of the M x M axis table.

    table[r, k] = exp(sign * 2 pi i outputs[r] inputs[k] / M), one row per
    output index in outputs[rows]; the outputs are consecutive integers mod M.
    The phase is an exact integer, so each entry is the root of unity at
    (outputs[r] * inputs[k]) mod M, looked up instead of evaluated.  Row
    start + r of a block has the phase (outputs[start] inputs[k] mod M) +
    (r inputs[k] mod M), the second term tabled once for every block: a
    sum in [0, 2M - 2], looked up in the roots wrapped to that length, so
    a block takes one row of integer divisions where it took one per entry.
    """
    m = len(inputs)
    roots = np.exp(sign * 2j * math.pi * np.arange(m) / m)
    wrapped = roots[np.arange(2 * m - 1) % m]
    step = max(_BLOCK_ENTRIES // m, _BLOCK_LINES)
    offsets = np.multiply.outer(np.arange(min(step, len(outputs))), inputs) % m
    for start in range(0, len(outputs), step):
        rows = slice(start, min(start + step, len(outputs)))
        base = (outputs[start] * inputs) % m
        yield rows, wrapped[base + offsets[: rows.stop - start]]


def _direct_sum(values: np.ndarray, dimension: int, sign: int) -> np.ndarray:
    """The direct sum over the trailing `dimension` axes of one field or a
    stack of them, returned in the input's shape: the analysis sum at each
    xi for sign -1, the synthesis sum at each x_m for +1.  Each pass moves
    the first of those axes last and multiplies it, block by block, by the
    axis table's transpose, so after `dimension` passes the axes are back
    in order."""
    m = values.shape[-1]
    modes, points = _axis_frequencies(m), np.arange(m)
    outputs, inputs = (modes, points) if sign < 0 else (points, modes)
    rest = m ** (dimension - 1)
    stack = values.reshape(-1, m, rest)
    for _ in range(dimension):
        lines = stack.transpose(0, 2, 1)
        out = np.empty(lines.shape, dtype=np.complex128)
        for rows, table in _axis_blocks(outputs, inputs, sign):
            out[..., rows] = lines @ table.T
        # rest, not -1: an empty stack cannot infer a size
        stack = out.reshape(len(stack), m, rest)
    return stack.reshape(values.shape)


def naive_forward(u: GridField) -> SpectralField:
    """Direct-sum analysis, M^{-n} sum_m u(x_m) exp(-i xi . x_m), by axis."""
    return SpectralField(u.grid, _direct_sum(u.values, u.grid.dimension, -1) / u.grid.size)


def naive_inverse(c: SpectralField) -> GridField:
    """Direct-sum synthesis: sum_xi c(xi) exp(i xi . x_m), one axis at a time."""
    return GridField(c.grid, _direct_sum(c.coefficients, c.grid.dimension, 1))


# ---------------------------------------------------------------------------
# Norms and identities.
# ---------------------------------------------------------------------------


def _field_sums(values: np.ndarray, dimension: int) -> float | np.ndarray:
    """`values` summed over the trailing `dimension` axes: a float for one
    field, the (k,) float64 array of the sums for a stack of k.  The one sum
    of every norm, inner product and distance: numpy's pairwise sum (Higham
    1993) of those axes flattened, their size written out for an empty
    stack; not BLAS, so its digits do not depend on the thread count, and
    a stack's fields sum as each alone."""
    cut = values.ndim - dimension
    lines = values.reshape(*values.shape[:cut], math.prod(values.shape[cut:]))
    sums = np.add.reduce(lines, axis=-1)
    return float(sums) if sums.ndim == 0 else sums


def _inner(a: np.ndarray, b: np.ndarray, dimension: int) -> float | np.ndarray:
    """Re <a, b> = Re sum conj(a) b over the trailing `dimension` axes, a
    float for one field and the (k,) array for stacks of k: `_field_sums`
    of the float64 views' products."""
    a, b = (np.ascontiguousarray(x).view(np.float64) for x in (a, b))
    return _field_sums(a * b, dimension)


def grid_l2_norm(u: GridField) -> float | np.ndarray:
    """Quadrature L^2 norm sqrt(M^{-n} sum_m |u(x_m)|^2): a float for one
    field, the (k,) float64 array of each field's norm for a stack of k,
    each bit for bit the field's own."""
    norms = np.sqrt(_inner(u.values, u.values, u.grid.dimension)) / math.sqrt(u.grid.size)
    return float(norms) if norms.ndim == 0 else norms


def plancherel_defect(u: GridField, c: SpectralField) -> float | np.ndarray:
    """|sum_xi |c(xi)|^2 - M^{-n} sum_m |u(x_m)|^2| for c = forward(u); for
    stacks, the (k,) array of each field's."""
    n = u.grid.dimension
    spectral_energy = _inner(c.coefficients, c.coefficients, n)
    grid_energy = _inner(u.values, u.values, n) / u.grid.size
    return abs(spectral_energy - grid_energy)
