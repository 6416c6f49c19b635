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


@pytest.mark.parametrize("oracle", [naive_forward, naive_inverse])
@pytest.mark.parametrize("empty", [[], ()])
def test_naive_oracle_on_an_empty_stack_returns_an_empty_list(oracle, empty, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the oracle built an axis table for no field")

    monkeypatch.setattr(transform_mod, "_axis_blocks", refuse)
    assert oracle(empty) == []


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
    for c in naive_forward([GridField(g, mode)] * 2):
        assert np.max(np.abs(c.coefficients - delta.coefficients)) < 1e-14
    for u in naive_inverse([delta] * 3):
        assert np.max(np.abs(u.values - mode)) < 1e-14
    with pytest.raises(AssertionError, match="numpy.fft"):
        forward(GridField(g, mode))


@pytest.mark.parametrize("n, m", [(1, 9), (1, 2053), (2, 15), (2, 7), (3, 5)])
def test_naive_oracle_on_a_sequence_matches_it_per_field(n, m):
    # 2053 is prime, and its 16 table rows per block leave a short last block
    g = TorusGrid(n, m)
    rng = np.random.default_rng(m)
    fields = [random_grid(g, rng) for _ in range(3)]
    spectra = [random_spectral(g, rng) for _ in range(2)]
    analysed, synthesised = naive_forward(fields), naive_inverse(spectra)
    assert len(analysed) == 3 and len(synthesised) == 2
    for u, c in zip(fields, analysed):
        assert np.max(np.abs(c.coefficients - naive_forward(u).coefficients)) < 1e-13
    for c, u in zip(spectra, synthesised):
        assert np.max(np.abs(u.values - naive_inverse(c).values)) < 1e-13
    assert naive_forward(fields[:1])[0].grid == g


@pytest.mark.parametrize("n, m", [(2, 255), (3, 45)])
def test_naive_oracle_matches_the_fft_past_the_verify_cap(n, m):
    # 65025 and 91125 points, past cli.MAX_VERIFY_POINTS; the syntheses are
    # of coefficients of unit fields, so both directions compare O(1) values
    g = TorusGrid(n, m)
    rng = np.random.default_rng(m)
    fields = [random_grid(g, rng) for _ in range(2)]
    spectra = [forward(random_grid(g, rng)) for _ in range(2)]
    for u, c in zip(fields, naive_forward(fields)):
        assert np.max(np.abs(c.coefficients - forward(u).coefficients)) < 1e-12
    for c, u in zip(spectra, naive_inverse(spectra)):
        assert np.max(np.abs(u.values - inverse(c).values)) < 1e-12


def test_naive_oracle_refuses_a_sequence_on_two_grids():
    rng = np.random.default_rng(0)
    mixed = [random_grid(TorusGrid(1, 5), rng), random_grid(TorusGrid(1, 7), rng)]
    with pytest.raises(ValueError, match="different grids"):
        naive_forward(mixed)


@pytest.mark.parametrize(
    "n, m, stack",
    [(1, 3, ()), (1, 9, (4,)), (1, 2053, ()), (2, 5, ()), (2, 15, (3,)),
     (2, 13, (2, 2)), (3, 3, ()), (3, 9, (5,)), (3, 7, ())],
)
def test_box_shift_is_fftshift_bit_for_bit(n, m, stack):
    rng = np.random.default_rng(n * m)
    shape = stack + (m,) * n
    values = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    axes = tuple(range(-n, 0))
    expected = np.fft.fftshift(np.fft.fftn(values, axes=axes, norm="forward"), axes=axes)
    assert np.array_equal(_analysis(values, n), expected)
    expected = np.fft.ifftn(np.fft.ifftshift(values, axes=axes), axes=axes, norm="forward")
    assert np.array_equal(_synthesis(values, n), expected)


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
    for stacked, one in ((forward(fields), [forward(u) for u in fields]),
                         (forward(tuple(fields[:1])), [forward(fields[0])])):
        assert len(stacked) == len(one)
        for a, b in zip(stacked, one):
            assert a.grid == g and np.array_equal(a.coefficients, b.coefficients)
    for stacked, one in ((inverse(spectra), [inverse(c) for c in spectra]),
                         (inverse(iter(spectra[:2])), [inverse(c) for c in spectra[:2]])):
        assert len(stacked) == len(one)
        for a, b in zip(stacked, one):
            assert a.grid == g and np.array_equal(a.values, b.values)


@pytest.mark.parametrize("transform", [forward, inverse])
def test_stacked_transforms_of_nothing_and_of_mixed_grids(transform, monkeypatch):
    field_type = GridField if transform is forward else SpectralField
    mixed = [field_type(TorusGrid(1, 5), np.ones(5)), field_type(TorusGrid(1, 7), np.ones(7))]
    with pytest.raises(ValueError, match="different grids"):
        transform(mixed)

    def refuse(*args):
        raise AssertionError("a transform of no field called numpy.fft")

    for name in ("fftn", "ifftn"):
        monkeypatch.setattr(np.fft, name, refuse)
    assert transform([]) == [] and transform(()) == []


@pytest.mark.parametrize("n, m", [(1, 15), (2, 9), (3, 7)])
def test_random_values_are_successive_random_field_draws(n, m):
    g = TorusGrid(n, m)
    stack = transform_mod._random_values(g, np.random.default_rng(4), 6)
    rng = np.random.default_rng(4)
    assert stack.shape == (6, *g.shape)
    for values in stack:
        assert np.array_equal(values, transform_mod.random_field(g, rng).values)


@pytest.mark.parametrize("count, size, blocks", [
    (0, 729, []),
    (25, 729, [slice(0, 11), slice(11, 22), slice(22, 25)]),
    (3, 2**13, [slice(0, 1), slice(1, 2), slice(2, 3)]),
    (2, 2**20, [slice(0, 1), slice(1, 2)]),
])
def test_stack_blocks_hold_whole_fields_within_the_points_budget(count, size, blocks):
    assert transform_mod._STACK_POINTS == 2**13
    assert transform_mod._stack_blocks(count, size) == blocks
