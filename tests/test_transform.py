import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toruskit import (
    GridField,
    NonFiniteError,
    SpectralField,
    TorusGrid,
    forward,
    grid_l2_norm,
    inverse,
    naive_forward,
    naive_inverse,
    plancherel_defect,
)
import toruskit.transform as transform_mod
from toruskit.transform import (
    _analysis,
    _axis_blocks,
    _frequency_vectors,
    _synthesis,
)

from conftest import random_grid, random_spectral, spectral_delta


def test_grid_validation():
    with pytest.raises(ValueError):
        TorusGrid(0, 5)
    with pytest.raises(ValueError):
        TorusGrid(1, 4)
    with pytest.raises(ValueError):
        TorusGrid(1, 1)
    g = TorusGrid(2, 9)
    assert g.box_radius == 4
    assert g.spacing == pytest.approx(2 * np.pi / 9)
    assert g.size == 81


def test_grid_refuses_non_integer_sizes():
    g = TorusGrid(np.int64(2), np.int32(9))
    assert g == TorusGrid(2, 9)
    assert type(g.dimension) is int and type(g.points_per_axis) is int
    for dimension, points in ((2, 9.0), (2.5, 9), ("2", 9)):
        with pytest.raises(TypeError):
            TorusGrid(dimension, points)


@pytest.mark.parametrize("dimension, points", [(True, 9), (2, True), (False, 9)])
def test_grid_refuses_a_bool_size(dimension, points):
    # operator.index(True) is 1: without the refusal TorusGrid(True, 9) is 1-D
    with pytest.raises(TypeError, match="bool"):
        TorusGrid(dimension, points)


def test_rejects_non_finite_values():
    g = TorusGrid(1, 5)
    bad = np.ones(5, dtype=complex)
    bad[2] = np.nan
    with pytest.raises(NonFiniteError, match="non-finite"):
        GridField(g, bad)
    with pytest.raises(NonFiniteError, match="non-finite"):
        SpectralField(g, bad)
    # one non-finite part is enough: a NaN only in the imaginary part, an
    # infinity only in the real part
    for value in (complex(1.0, np.nan), complex(np.inf, 0.0)):
        bad = np.ones(5, dtype=complex)
        bad[3] = value
        with pytest.raises(NonFiniteError, match="non-finite"):
            GridField(g, bad)
        with pytest.raises(NonFiniteError, match="non-finite"):
            SpectralField(g, bad)
    # a contiguous stack is checked on its float64 view, any other as it
    # is: a strided 3-D stack whose only non-finite part is one imaginary
    # infinity, and a contiguous one with one NaN
    g = TorusGrid(3, 21)
    holder = np.ones((6, *g.shape), dtype=complex)
    holder[4, 1, 2, 3] = complex(0.0, np.inf)
    strided = holder[::2]
    assert not strided.flags.c_contiguous
    bad = np.ones((3, *g.shape), dtype=complex)
    bad[1, 4, 4, 4] = np.nan
    for values in (strided, bad):
        with pytest.raises(NonFiniteError, match="non-finite"):
            GridField(g, values)
        with pytest.raises(NonFiniteError, match="non-finite"):
            SpectralField(g, values)
    # without the non-finite entry the strided stack passes, and is checked
    # in place: the check allocates its mask, one byte a value, not a copy
    # of the 444 KB stack
    holder[4, 1, 2, 3] = 1.0
    tracemalloc.start()
    try:
        checked = transform_mod._validated_values(g, strided, "stack")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert checked is strided
    assert peak < strided.nbytes / 4


def test_forward_constant_field():
    g = TorusGrid(1, 5)
    c = forward(GridField(g, np.ones(5, dtype=complex)))
    expected = np.zeros(5, dtype=complex)
    expected[g.box_radius] = 1.0  # the zero mode
    assert np.max(np.abs(c.coefficients - expected)) < 1e-15


def test_forward_single_mode_2d():
    g = TorusGrid(2, 5)
    x1 = g.axis_points()[:, None] * np.ones((1, 5))
    c = forward(GridField(g, np.exp(1j * x1)))
    assert abs(c[(1, 0)] - 1.0) < 1e-14
    off = c.coefficients.copy()
    off[1 + g.box_radius, g.box_radius] = 0.0
    assert np.max(np.abs(off)) < 1e-14


def test_forward_two_sin_x():
    g = TorusGrid(1, 7)
    c = forward(GridField(g, 2 * np.sin(g.axis_points()) + 0j))
    assert abs(c[(1,)] - (-1j)) < 1e-14
    assert abs(c[(-1,)] - 1j) < 1e-14


def test_inverse_delta_modes():
    g = TorusGrid(2, 5)
    assert np.max(np.abs(inverse(spectral_delta(g, (0, 0))).values - 1.0)) < 1e-14
    x2 = np.ones((5, 1)) * g.axis_points()[None, :]
    u = inverse(spectral_delta(g, (0, 2)))
    assert np.max(np.abs(u.values - np.exp(2j * x2))) < 1e-13


@pytest.mark.parametrize("n,m", [(1, 5), (1, 9), (1, 27), (2, 5), (2, 9), (2, 27)])
def test_roundtrips_and_naive_agreement(n, m):
    g = TorusGrid(n, m)
    rng = np.random.default_rng(100 * n + m)
    u = random_grid(g, rng)
    c = forward(u)
    assert np.max(np.abs(inverse(c).values - u.values)) < 1e-12
    assert np.max(np.abs(forward(inverse(c)).coefficients - c.coefficients)) < 1e-12
    assert np.max(np.abs(naive_forward(u).coefficients - c.coefficients)) < 1e-10
    d = random_spectral(g, rng)
    assert np.max(np.abs(naive_inverse(d).values - inverse(d).values)) < 1e-10


def test_naive_single_mode():
    g = TorusGrid(1, 9)
    c = naive_forward(GridField(g, np.exp(3j * g.axis_points())))
    assert abs(c[(3,)] - 1.0) < 1e-13


@pytest.mark.parametrize("m", [15, 21, 45, 105, 2053])
def test_fast_path_composite_lengths(m):
    # composite lengths of several factorizations, and the prime 2053,
    # against the double sum
    g = TorusGrid(1, m)
    rng = np.random.default_rng(m)
    u = random_grid(g, rng)
    fast = forward(u)
    assert np.max(np.abs(fast.coefficients - naive_forward(u).coefficients)) < 1e-11
    assert np.max(np.abs(inverse(fast).values - u.values)) < 1e-11


def test_frequency_vectors_are_the_box_in_storage_order():
    g = TorusGrid(2, 15)
    assert _frequency_vectors(g).tolist() == [list(xi) for xi in g.frequencies()]


@pytest.mark.parametrize("sign", [-1, 1])
def test_kernel_rows_match_exponentials_across_blocks(sign):
    # the axis table of the analysis (rows xi) and of the synthesis (rows
    # x): one block at M=15, 64 rows of 2**14 entries at M=255 and the
    # 16-row floor at the prime 2053, each of the last two with a short
    # last block
    for m, first, last in ((15, slice(0, 15), slice(0, 15)),
                           (255, slice(0, 64), slice(192, 255)),
                           (2053, slice(0, 16), slice(2048, 2053))):
        modes, points = np.arange(m) - m // 2, np.arange(m)
        roots = np.exp(sign * 2j * np.pi * np.arange(m) / m)
        for outputs, inputs in ((modes, points), (points, modes)):
            blocks = list(_axis_blocks(outputs, inputs, sign))
            rows = [r for r, _ in blocks]
            assert rows[0] == first and rows[-1] == last
            assert all(a.stop == b.start for a, b in zip(rows, rows[1:]))
            for r, block in blocks:
                assert np.array_equal(block, roots[np.multiply.outer(outputs[r], inputs) % m])
            table = np.concatenate([t for _, t in blocks])
            # a float phase reaches pi M, and its rounding error grows with it
            phase = np.multiply.outer(outputs, 2 * np.pi * inputs / m)
            assert np.max(np.abs(table - np.exp(sign * 1j * phase))) < 1e-15 * m


@pytest.mark.parametrize("n, m", [(1, 15), (1, 101), (2, 15), (3, 5), (3, 7), (3, 9)])
@pytest.mark.parametrize("sign", [-1, 1])
def test_kernel_blocks_are_the_full_phase_lookup_bit_for_bit(n, m, sign):
    # each block of the axis table is the root that the integer phase
    # (xi x) mod M picks, bit for bit; and the axis-by-axis sum is the
    # literal kernel over the whole grid, the root at (xi . m) mod M,
    # applied as one matrix-vector product
    modes, points = np.arange(m) - m // 2, np.arange(m)
    roots = np.exp(sign * 2j * np.pi * np.arange(m) / m)
    for outputs, inputs in ((modes, points), (points, modes)):
        table = np.concatenate([t for _, t in _axis_blocks(outputs, inputs, sign)])
        assert np.array_equal(table, roots[np.multiply.outer(outputs, inputs) % m])
    g = TorusGrid(n, m)
    rng = np.random.default_rng(10 * n + m)
    kernel = roots[(_frequency_vectors(g) @ np.indices(g.shape).reshape(n, g.size)) % m]
    if sign < 0:
        u = random_grid(g, rng)
        got = naive_forward(u).coefficients.ravel()
        expected = kernel @ u.values.ravel() / g.size
    else:
        # the coefficients of a unit field, so the sums are O(1)
        c = forward(random_grid(g, rng))
        got = naive_inverse(c).values.ravel()
        expected = c.coefficients.ravel() @ kernel
    assert np.max(np.abs(got - expected)) < 1e-14


@pytest.mark.parametrize("n, m", [(3, 15), (2, 89)])
def test_one_oracle_sweep_peaks_far_below_a_whole_kernel(n, m):
    # a whole kernel would take 174 MB at 3-D M=15 and 960 MB at 2-D M=89;
    # the axis table and the stack's copies peak at about 0.7 MiB at 2-D M=89
    g = TorusGrid(n, m)
    rng = np.random.default_rng(m)
    for oracle, arg in ((naive_forward, random_grid(g, rng)),
                        (naive_inverse, random_spectral(g, rng))):
        tracemalloc.start()
        try:
            oracle(arg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20, f"{oracle.__name__} peaked at {peak} bytes"


@pytest.mark.parametrize("n, m", [(1, 5), (2, 7), (3, 5)])
@pytest.mark.parametrize("oracle, fast, field_type",
                         [(naive_forward, forward, GridField),
                          (naive_inverse, inverse, SpectralField)],
                         ids=["naive_forward", "naive_inverse"])
def test_naive_oracle_on_an_empty_stack_returns_an_empty_stack(oracle, fast, field_type, n, m):
    # as the FFT path does; a -1 in its reshapes once made the oracle raise
    g = TorusGrid(n, m)
    empty = field_type(g, np.zeros((0, *g.shape)))
    for out in (oracle(empty), fast(empty)):
        data = out.values if isinstance(out, GridField) else out.coefficients
        assert data.shape == (0, *g.shape)


def test_naive_oracle_makes_no_fft_call(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the oracle called numpy.fft")

    for name in ("fft", "ifft", "fftn", "ifftn", "fftshift", "ifftshift"):
        monkeypatch.setattr(np.fft, name, refuse)
    g = TorusGrid(3, 5)
    xi = (2, -1, 1)
    delta = spectral_delta(g, xi)
    x = np.meshgrid(*(g.axis_points(),) * 3, indexing="ij")
    mode = np.exp(1j * sum(k * axis for k, axis in zip(xi, x)))
    assert np.max(np.abs(naive_forward(GridField(g, mode)).coefficients
                         - delta.coefficients)) < 1e-14
    assert np.max(np.abs(naive_inverse(delta).values - mode)) < 1e-14
    stacked_c = naive_forward(GridField(g, np.stack([mode] * 2))).coefficients
    assert np.max(np.abs(stacked_c - delta.coefficients)) < 1e-14
    stacked_u = naive_inverse(SpectralField(g, np.stack([delta.coefficients] * 3))).values
    assert np.max(np.abs(stacked_u - mode)) < 1e-14
    with pytest.raises(AssertionError, match="numpy.fft"):
        forward(GridField(g, mode))


@pytest.mark.parametrize("n, m", [(1, 9), (1, 2053), (2, 15), (2, 7), (3, 5)])
def test_naive_oracle_on_a_sequence_matches_it_per_field(n, m):
    # 2053 is prime, and its 16 table rows per block leave a short last block
    g = TorusGrid(n, m)
    rng = np.random.default_rng(m)
    fields = np.stack([random_grid(g, rng).values for _ in range(3)])
    spectra = np.stack([random_spectral(g, rng).coefficients for _ in range(2)])
    analysed = naive_forward(GridField(g, fields))
    synthesised = naive_inverse(SpectralField(g, spectra))
    assert analysed.coefficients.shape == (3, *g.shape) and analysed.grid == g
    assert synthesised.values.shape == (2, *g.shape)
    for u, c in zip(fields, analysed.coefficients):
        assert np.max(np.abs(c - naive_forward(GridField(g, u)).coefficients)) < 1e-13
    for c, u in zip(spectra, synthesised.values):
        assert np.max(np.abs(u - naive_inverse(SpectralField(g, c)).values)) < 1e-13


@pytest.mark.parametrize("n, m", [(2, 255), (3, 45)])
def test_naive_oracle_matches_the_fft_past_the_verify_cap(n, m):
    # 65025 and 91125 points, past cli.MAX_VERIFY_POINTS; the syntheses are
    # of coefficients of unit fields, so both directions compare O(1) values
    g = TorusGrid(n, m)
    rng = np.random.default_rng(m)
    fields = GridField(g, np.stack([random_grid(g, rng).values for _ in range(2)]))
    spectra = forward(GridField(g, np.stack([random_grid(g, rng).values for _ in range(2)])))
    assert np.max(np.abs(naive_forward(fields).coefficients
                         - forward(fields).coefficients)) < 1e-12
    assert np.max(np.abs(naive_inverse(spectra).values - inverse(spectra).values)) < 1e-12


def test_naive_oracle_refuses_a_sequence_on_two_grids():
    # a stack is of one grid: fields of 7 points do not stack on a grid of 5
    rng = np.random.default_rng(0)
    rows = np.stack([random_grid(TorusGrid(1, 7), rng).values for _ in range(2)])
    with pytest.raises(ValueError, match="has 14 entries, grid holds 5"):
        naive_forward(GridField(TorusGrid(1, 5), rows))


@pytest.mark.parametrize(
    "n, m, stack",
    [(1, 3, ()), (1, 9, (4,)), (1, 2053, ()), (2, 5, ()), (2, 15, (3,)),
     (2, 13, (2, 2)), (2, 9, (0,)), (3, 3, ()), (3, 9, (5,)), (3, 7, ())],
)
def test_box_shift_is_fftshift_bit_for_bit(n, m, stack):
    # the per-axis passes and the cached box shift give fftn and fftshift's
    # values bit for bit, on the array and on a strided view of the same
    # values, and leave the input as it was
    rng = np.random.default_rng(n * m)
    shape = stack + (m,) * n
    values = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    holder = np.zeros((*shape[:-1], 2 * m), dtype=complex)
    holder[..., ::2] = values
    strided = holder[..., ::2]
    assert strided.flags.c_contiguous == (values.size == 0)
    axes = tuple(range(-n, 0))
    for given in (values, strided):
        before = given.copy()
        expected = np.fft.fftshift(np.fft.fftn(given, axes=axes, norm="forward"), axes=axes)
        assert np.array_equal(_analysis(given, n), expected)
        expected = np.fft.ifftn(np.fft.ifftshift(given, axes=axes), axes=axes, norm="forward")
        assert np.array_equal(_synthesis(given, n), expected)
        assert np.array_equal(given, before)


def test_naive_linearity():
    g = TorusGrid(1, 9)
    rng = np.random.default_rng(7)
    u, v = random_grid(g, rng), random_grid(g, rng)
    lhs = naive_forward(2.0 * u + (-0.5 + 1j) * v)
    rhs = 2.0 * naive_forward(u) + (-0.5 + 1j) * naive_forward(v)
    assert np.max(np.abs(lhs.coefficients - rhs.coefficients)) < 1e-12


def test_plancherel_trivial_cases():
    g = TorusGrid(1, 5)
    u = GridField(g, np.exp(1j * g.axis_points()))
    assert plancherel_defect(u, forward(u)) < 1e-14
    zero = GridField(g, np.zeros(5, dtype=complex))
    assert plancherel_defect(zero, forward(zero)) == 0.0


def test_plancherel_seeded_2d():
    g = TorusGrid(2, 9)
    rng = np.random.default_rng(21)
    for _ in range(10):
        u = random_grid(g, rng)
        assert plancherel_defect(u, forward(u)) < 1e-12


@pytest.mark.parametrize("n, m", [(1, 9), (2, 7), (3, 5)])
def test_conjugate_symmetry_of_a_stack_flips_the_trailing_axes(n, m):
    # a stack of three real fields is symmetric (flipping its leading axis
    # too would compare the first field with the last), one complex field
    # in it is not, and an empty stack is
    g = TorusGrid(n, m)
    rng = np.random.default_rng(m)
    reals = rng.standard_normal((3, *g.shape)) + 0j
    assert forward(GridField(g, reals)).is_conjugate_symmetric(1e-12)
    reals[1] += 1j * rng.standard_normal(g.shape)
    assert not forward(GridField(g, reals)).is_conjugate_symmetric(1e-12)
    assert forward(GridField(g, reals[:0])).is_conjugate_symmetric(1e-12)


def test_real_fields_have_conjugate_symmetric_coefficients():
    g = TorusGrid(2, 9)
    rng = np.random.default_rng(3)
    u = GridField(g, rng.standard_normal(g.shape) + 0j)
    assert forward(u).is_conjugate_symmetric(1e-12)
    assert not forward(random_grid(g, rng)).is_conjugate_symmetric(1e-12)


def test_grid_l2_norm_matches_plancherel():
    g = TorusGrid(2, 9)
    rng = np.random.default_rng(5)
    c = random_spectral(g, rng)
    u = inverse(c)
    assert grid_l2_norm(u) == pytest.approx(
        float(np.linalg.norm(c.coefficients)), abs=1e-12
    )


def test_grid_l2_norm_of_a_stack_is_each_fields_norm():
    # a (3, 9, 9) stack of ones has per-field norms 1, not the stack's sqrt(3);
    # each field's norm in a stack is bit for bit its norm alone
    g = TorusGrid(2, 9)
    ones = grid_l2_norm(GridField(g, np.ones((3, *g.shape), dtype=complex)))
    assert isinstance(ones, np.ndarray) and ones.shape == (3,)
    assert np.allclose(ones, 1.0, rtol=0, atol=1e-15)
    fields = random_grid(g, np.random.default_rng(6)).values * np.arange(1, 4)[:, None, None]
    norms = grid_l2_norm(GridField(g, fields))
    for field, norm in zip(fields, norms):
        alone = grid_l2_norm(GridField(g, field))
        assert type(alone) is float
        assert norm == alone
    assert grid_l2_norm(GridField(g, np.empty((0, *g.shape)))).shape == (0,)


@pytest.mark.parametrize("n, m", [(3, 9), (3, 19), (2, 89), (2, 129), (1, 8191)])
def test_inner_of_a_stack_is_each_fields_own_sum_bit_for_bit(n, m):
    g = TorusGrid(n, m)
    rng = np.random.default_rng(m)
    a, b = (transform_mod._random_values(g, rng, 3) for _ in range(2))
    sums = transform_mod._inner(a, b, n)
    assert isinstance(sums, np.ndarray) and sums.shape == (3,)
    for field_a, field_b, total in zip(a, b, sums):
        alone = transform_mod._inner(field_a, field_b, n)
        assert type(alone) is float
        assert alone == total
        assert alone == pytest.approx(np.vdot(field_a, field_b).real, rel=1e-12)
    # a view that is not contiguous sums as its copy does
    flipped_a, flipped_b = a[..., ::-1], b[..., ::-1]
    assert np.array_equal(transform_mod._inner(flipped_a, flipped_b, n),
                          transform_mod._inner(flipped_a.copy(), flipped_b.copy(), n))


@pytest.mark.parametrize("n, m", [(1, 15), (1, 8191), (2, 9), (2, 89), (3, 9), (3, 19)])
@pytest.mark.parametrize("count", [None, 0, 1, 3, 7])
def test_inner_is_the_sum_over_the_tuple_of_trailing_axes_bit_for_bit(n, m, count):
    # one reduction over the flattened trailing axes sums as np.sum over
    # the tuple of them does, for one field and for stacks, empty ones too:
    # _field_sums on plain float64 fields, and _inner through it
    g = TorusGrid(n, m)
    rng = np.random.default_rng(m)
    a, b = (transform_mod._random_values(g, rng, 1 if count is None else count)
            for _ in range(2))
    if count is None:
        a, b = a[0], b[0]
    plain = rng.standard_normal(a.shape)
    axes = tuple(range(-n, 0))
    products = a.view(np.float64) * b.view(np.float64)
    for got, expected in [(transform_mod._field_sums(plain, n), np.sum(plain, axis=axes)),
                          (transform_mod._inner(a, b, n), np.sum(products, axis=axes))]:
        if count is None:
            assert type(got) is float
        else:
            assert got.shape == (count,)
        assert np.asarray(got).tobytes() == expected.tobytes()


def _pairwise_sum_bound(terms: list[float]) -> float:
    """Higham's bound (1993) on the error of numpy's pairwise sum of `terms`
    against their correctly rounded sum: gamma_d sum |t_i| plus half an ulp
    of the sum, gamma_d = d u / (1 - d u), u = 2**-53, where d bounds the
    additions a term passes through.  numpy halves the terms down to blocks
    of at most 128, ceil(log2 L) levels, and sums a block with 15 serial
    additions into each of 8 accumulators, 3 levels joining them and at
    most 7 serial additions of the rest: d = ceil(log2 L) + 25."""
    u = 2.0**-53
    d = math.ceil(math.log2(len(terms))) + 25
    return d * u / (1 - d * u) * math.fsum(map(abs, terms)) + u * abs(math.fsum(terms))


@pytest.mark.parametrize("n, m", [(1, 15), (1, 8191), (2, 9), (2, 89), (3, 5), (3, 19)])
@pytest.mark.parametrize("count", [None, 3])
def test_inner_is_the_correctly_rounded_sum_within_higham_s_bound(n, m, count):
    # an oracle apart from numpy's reductions: math.fsum over the float64
    # view's products, taken in Python, one field or each of a stack's
    g = TorusGrid(n, m)
    rng = np.random.default_rng(m)
    a, b = (transform_mod._random_values(g, rng, count or 1) for _ in range(2))
    if count is None:
        a, b = a[0], b[0]
    got = transform_mod._inner(a, b, n)
    assert type(got) is float if count is None else got.shape == (count,)
    for x, y, total in zip(a.reshape(-1, g.size), b.reshape(-1, g.size), np.ravel(got)):
        products = [p * q for p, q in zip(x.view(np.float64).tolist(),
                                          y.view(np.float64).tolist())]
        bound = _pairwise_sum_bound(products)
        assert abs(total - math.fsum(products)) <= bound
        # so a sum without the imaginary products, or without the real ones,
        # lies far outside the bound
        assert min(abs(math.fsum(products[0::2])), abs(math.fsum(products[1::2]))) > 1e6 * bound


def test_field_arithmetic_requires_same_grid():
    a = random_grid(TorusGrid(1, 5), np.random.default_rng(0))
    b = random_grid(TorusGrid(1, 7), np.random.default_rng(0))
    with pytest.raises(ValueError, match="different grids"):
        a + b


def test_spectral_indexing_outside_box():
    g = TorusGrid(1, 5)
    c = spectral_delta(g, (1,))
    assert c[(1,)] == 1.0
    with pytest.raises(IndexError):
        c[(3,)]


def test_spectral_indexing_of_a_stack_reads_each_field(grid_2d_9):
    # the frequency indexes the trailing axes, whatever the leading one
    rng = np.random.default_rng(5)
    fields = [random_spectral(grid_2d_9, rng) for _ in range(3)]
    stack = SpectralField(grid_2d_9, np.stack([c.coefficients for c in fields]))
    for xi in [(4, 4), (-4, 0), (0, 3)]:
        assert stack[xi].tolist() == [c[xi] for c in fields]
    assert type(fields[0][(4, 4)]) is complex
    with pytest.raises(IndexError):
        stack[(5, 0)]


def test_spectral_indexing_refuses_non_integer_frequencies():
    c = spectral_delta(TorusGrid(1, 5), (1,))
    assert c[(np.int64(1),)] == 1.0
    with pytest.raises(TypeError):
        c[(1.5,)]


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(1, 2),
    m=st.sampled_from([3, 5, 7, 9]),
    seed=st.integers(0, 10_000),
)
def test_roundtrip_property(n, m, seed):
    g = TorusGrid(n, m)
    u = random_grid(g, np.random.default_rng(seed))
    assert np.max(np.abs(inverse(forward(u)).values - u.values)) < 1e-12
    assert plancherel_defect(u, forward(u)) < 1e-12


# 1-D, 2-D and 3-D, with the primes M = 7, 31 and 101
STACK_GRIDS = [(1, 15), (1, 101), (2, 9), (2, 31), (3, 7), (3, 9)]


@pytest.mark.parametrize("n, m", STACK_GRIDS)
def test_stacked_transforms_equal_the_per_field_calls_bit_for_bit(n, m):
    g = TorusGrid(n, m)
    rng = np.random.default_rng(10 * n + m)
    fields = [random_grid(g, rng) for _ in range(5)]
    spectra = [random_spectral(g, rng) for _ in range(5)]
    for count in (5, 1):
        stacked = forward(GridField(g, np.stack([u.values for u in fields[:count]])))
        assert stacked.grid == g and stacked.coefficients.shape == (count, *g.shape)
        for got, u in zip(stacked.coefficients, fields):
            assert np.array_equal(got, forward(u).coefficients)
        stacked = inverse(SpectralField(g, np.stack([c.coefficients for c in spectra[:count]])))
        assert stacked.grid == g and stacked.values.shape == (count, *g.shape)
        for got, c in zip(stacked.values, spectra):
            assert np.array_equal(got, inverse(c).values)


@pytest.mark.parametrize("transform", [forward, inverse])
def test_stacked_transforms_of_nothing_and_of_mixed_grids(transform):
    # a stack holds fields of one grid: one shaped for another is refused
    # before any transform, and an empty stack gives an empty stack
    field_type = GridField if transform is forward else SpectralField
    with pytest.raises(ValueError, match="has 14 entries, grid holds 5"):
        transform(field_type(TorusGrid(1, 5), np.ones((2, 7))))
    out = transform(field_type(TorusGrid(1, 5), np.ones((0, 5))))
    assert (out.values if isinstance(out, GridField) else out.coefficients).shape == (0, 5)


@pytest.mark.parametrize("n, m", [(1, 15), (2, 9), (3, 7)])
def test_random_values_are_successive_random_field_draws(n, m):
    g = TorusGrid(n, m)
    stack = transform_mod._random_values(g, np.random.default_rng(4), 6)
    rng = np.random.default_rng(4)
    assert stack.shape == (6, *g.shape)
    for values in stack:
        assert np.array_equal(values, transform_mod.random_field(g, rng).values)


@pytest.mark.parametrize("n, m", [(1, 15), (2, 9), (3, 7)])
@pytest.mark.parametrize("seed", range(10))
def test_complex_draws_are_real_plus_1j_imag_bit_for_bit(n, m, seed):
    # the parts filled in place take the same stream, and give the same
    # values, as the expression a + 1j * b did
    g = TorusGrid(n, m)
    got = transform_mod._random_values(g, np.random.default_rng(seed), 3)
    parts = np.random.default_rng(seed).standard_normal((3, 2, *g.shape))
    assert got.tobytes() == (parts[:, 0] + 1j * parts[:, 1]).tobytes()
    # verify's transform group draws three parts a field, the first two complex
    draws = np.random.default_rng(seed).standard_normal((3, 3, *g.shape))
    got = transform_mod._complex_values(draws[:, 0], draws[:, 1])
    assert got.tobytes() == (draws[:, 0] + 1j * draws[:, 1]).tobytes()


@pytest.mark.parametrize("count, size, blocks", [
    (0, 729, []),
    (25, 729, [slice(0, 11), slice(11, 22), slice(22, 25)]),
    (3, 2**13, [slice(0, 1), slice(1, 2), slice(2, 3)]),
    (2, 2**20, [slice(0, 1), slice(1, 2)]),
])
def test_stack_blocks_hold_whole_fields_within_the_points_budget(count, size, blocks):
    assert transform_mod._STACK_POINTS == 2**13
    assert transform_mod._stack_blocks(count, size) == blocks
