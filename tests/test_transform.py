import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toruskit import (
    GridField,
    SpectralField,
    TorusGrid,
    field_from_doc,
    field_to_doc,
    forward,
    grid_l2_norm,
    inverse,
    naive_forward,
    naive_inverse,
    plancherel_defect,
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


def test_rejects_non_finite_values():
    g = TorusGrid(1, 5)
    bad = np.ones(5, dtype=complex)
    bad[2] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        GridField(g, bad)
    with pytest.raises(ValueError, match="non-finite"):
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


@pytest.mark.parametrize("m", [15, 21, 45, 105])
def test_fast_path_composite_lengths(m):
    # exercises the mixed-radix recursion across several factorizations,
    # including prime-length base cases (5, 7) inside the recursion
    g = TorusGrid(1, m)
    rng = np.random.default_rng(m)
    u = random_grid(g, rng)
    fast = forward(u)
    assert np.max(np.abs(fast.coefficients - naive_forward(u).coefficients)) < 1e-11
    assert np.max(np.abs(inverse(fast).values - u.values)) < 1e-11


@pytest.mark.parametrize("m", [4099, 3 * 2053])
def test_dense_fallback_refuses_large_prime_factors(m):
    # 4099 and 2053 are primes above the dense-transform limit of 2048
    u = GridField(TorusGrid(1, m), np.zeros(m))
    with pytest.raises(ValueError, match="points: .*prime factor"):
        forward(u)


def test_naive_linearity():
    g = TorusGrid(1, 9)
    rng = np.random.default_rng(7)
    u, v = random_grid(g, rng), random_grid(g, rng)
    lhs = naive_forward(2.0 * u + (-0.5 + 1j) * v)
    rhs = 2.0 * naive_forward(u) + (-0.5 + 1j) * naive_forward(v)
    assert np.max(np.abs(lhs.coefficients - rhs.coefficients)) < 1e-12


def test_plancherel_trivial_cases():
    g = TorusGrid(1, 5)
    assert plancherel_defect(GridField(g, np.exp(1j * g.axis_points()))) < 1e-14
    assert plancherel_defect(GridField(g, np.zeros(5, dtype=complex))) == 0.0


def test_plancherel_seeded_2d():
    g = TorusGrid(2, 9)
    rng = np.random.default_rng(21)
    for _ in range(10):
        assert plancherel_defect(random_grid(g, rng)) < 1e-12


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


def test_serialization_bit_exact_roundtrip():
    g = TorusGrid(2, 5)
    rng = np.random.default_rng(11)
    for field in (random_grid(g, rng), random_spectral(g, rng)):
        doc = json.loads(json.dumps(field_to_doc(field)))
        back = field_from_doc(doc)
        arr = field.values if isinstance(field, GridField) else field.coefficients
        arr_back = back.values if isinstance(back, GridField) else back.coefficients
        assert type(back) is type(field)
        assert np.array_equal(arr, arr_back)


def test_serialization_rejects_unknown_kind():
    g = TorusGrid(1, 5)
    doc = field_to_doc(random_grid(g, np.random.default_rng(0)))
    doc["kind"] = "mystery"
    with pytest.raises(ValueError, match="kind"):
        field_from_doc(doc)


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
    assert plancherel_defect(u) < 1e-12
