import itertools
import math

import numpy as np
import pytest

from toruskit import (
    MultiplierSymbol,
    TorusGrid,
    apply_multiplier,
    helmholtz_symbol,
    identity_symbol,
    inverse,
    l2_norm,
    laplacian,
    laplacian_symbol,
    norm_sq,
    resolvent,
    resolvent_symbol,
    resolvent_tail_symbol,
    singular_values,
    sobolev_norm_sq,
    truncated_resolvent,
    truncated_resolvent_symbol,
)
from toruskit.operators import norm_sq_array, symbol_array

from conftest import random_spectral, spectral_delta


def kept_mode_count(grid: TorusGrid, cutoff: int) -> int:
    """Oracle: box modes surviving a cutoff truncation (norm_sq < (N+1)^2)."""
    h = grid.box_radius
    return sum(
        1
        for xi in itertools.product(range(-h, h + 1), repeat=grid.dimension)
        if sum(x * x for x in xi) < (cutoff + 1) ** 2
    )


def test_identity_symbol_leaves_field_unchanged(grid_2d_9):
    c = random_spectral(grid_2d_9, np.random.default_rng(0))
    out = apply_multiplier(c, identity_symbol())
    assert np.array_equal(out.coefficients, c.coefficients)


def test_laplacian_scales_unit_mode(grid_2d_9):
    c = spectral_delta(grid_2d_9, (1, 0))
    assert laplacian(c)[(1, 0)] == 1.0


def test_resolvent_scales_by_one_fifth(grid_2d_9):
    c = spectral_delta(grid_2d_9, (2, 0))
    assert resolvent(c)[(2, 0)] == pytest.approx(0.2, abs=0)


def test_laplacian_kills_constants(grid_2d_9):
    c = spectral_delta(grid_2d_9, (0, 0))
    assert np.max(np.abs(laplacian(c).coefficients)) == 0.0
    assert resolvent(c)[(0, 0)] == 1.0


def test_resolvent_inverts_helmholtz(grid_2d_9):
    c = random_spectral(grid_2d_9, np.random.default_rng(1))
    back = resolvent(laplacian(c) + c)
    assert np.max(np.abs(back.coefficients - c.coefficients)) < 1e-13


def test_truncation_cutoff_zero_keeps_only_constant(grid_2d_9):
    c = random_spectral(grid_2d_9, np.random.default_rng(2))
    out = truncated_resolvent(c, 0)
    assert out[(0, 0)] == c[(0, 0)]
    rest = out.coefficients.copy()
    rest[grid_2d_9.box_radius, grid_2d_9.box_radius] = 0.0
    assert np.max(np.abs(rest)) == 0.0


def test_truncation_covering_the_box_equals_resolvent(grid_2d_9):
    c = random_spectral(grid_2d_9, np.random.default_rng(3))
    # (N+1)^2 > 2 * 4^2 guarantees nothing is discarded
    full = truncated_resolvent(c, 6)
    assert np.array_equal(full.coefficients, resolvent(c).coefficients)


def test_truncation_membership_straddles_integer_radii(grid_2d_9):
    # the discarded tail starts at squared norm (N+1)^2: |xi|^2 = 2 survives
    # a cutoff-1 truncation while |xi|^2 = 4 does not
    c = spectral_delta(grid_2d_9, (1, 1))
    assert truncated_resolvent(c, 1)[(1, 1)] == pytest.approx(1 / 3, abs=0)
    d = spectral_delta(grid_2d_9, (0, 2))
    assert truncated_resolvent(d, 1)[(0, 2)] == 0.0


@pytest.mark.parametrize("cutoff", [0, 1, 2, 4])
def test_truncation_rank_on_stored_box(grid_2d_9, cutoff):
    sym = truncated_resolvent_symbol(cutoff)
    nonzero = sum(1 for xi in grid_2d_9.frequencies() if sym(xi) != 0.0)
    assert nonzero == kept_mode_count(grid_2d_9, cutoff)


def test_truncation_rejects_negative_cutoff(grid_2d_9):
    with pytest.raises(ValueError):
        truncated_resolvent(random_spectral(grid_2d_9, np.random.default_rng(0)), -1)


def test_sobolev_norm_single_modes(grid_2d_9):
    assert sobolev_norm_sq(spectral_delta(grid_2d_9, (1, 0)), 1.0) == pytest.approx(2.0)
    two = spectral_delta(grid_2d_9, (1, 0), (0, 2))
    assert sobolev_norm_sq(two, 1.0) == pytest.approx(7.0)


def test_sobolev_order_zero_is_plain_energy(grid_2d_9):
    c = random_spectral(grid_2d_9, np.random.default_rng(4))
    direct = float(np.sum(np.abs(c.coefficients) ** 2))
    assert sobolev_norm_sq(c, 0.0) == pytest.approx(direct, rel=1e-14)


def test_sobolev_rejects_non_finite_order(grid_2d_9):
    c = spectral_delta(grid_2d_9, (0, 0))
    with pytest.raises(ValueError):
        sobolev_norm_sq(c, math.inf)


def test_l2_norm_basics(grid_2d_9):
    zero = spectral_delta(grid_2d_9)
    assert l2_norm(zero) == 0.0
    assert l2_norm(spectral_delta(grid_2d_9, (2, 1))) == 1.0


def test_l2_norm_matches_grid_side(grid_2d_9):
    c = random_spectral(grid_2d_9, np.random.default_rng(5))
    u = inverse(c)
    grid_side = float(np.linalg.norm(u.values.ravel())) / math.sqrt(grid_2d_9.size)
    assert abs(l2_norm(c) - grid_side) < 1e-12


def test_apply_multiplier_is_linear(grid_2d_9):
    rng = np.random.default_rng(10)
    c, d = random_spectral(grid_2d_9, rng), random_spectral(grid_2d_9, rng)
    sym = resolvent_symbol()
    lhs = apply_multiplier(2.5 * c + (1 - 2j) * d, sym)
    rhs = 2.5 * apply_multiplier(c, sym) + (1 - 2j) * apply_multiplier(d, sym)
    assert np.max(np.abs(lhs.coefficients - rhs.coefficients)) < 1e-13


def test_multipliers_commute_to_roundoff(grid_2d_9):
    c = random_spectral(grid_2d_9, np.random.default_rng(6))
    ab = apply_multiplier(apply_multiplier(c, resolvent_symbol()), laplacian_symbol())
    ba = apply_multiplier(apply_multiplier(c, laplacian_symbol()), resolvent_symbol())
    assert np.max(np.abs(ab.coefficients - ba.coefficients)) < 1e-14


def test_resolvent_is_a_contraction(grid_2d_9):
    rng = np.random.default_rng(7)
    for _ in range(5):
        c = random_spectral(grid_2d_9, rng)
        assert l2_norm(resolvent(c)) <= l2_norm(c)
    # equality exactly on fields supported at the zero mode
    c0 = spectral_delta(grid_2d_9, (0, 0))
    assert l2_norm(resolvent(c0)) == l2_norm(c0)


@pytest.mark.parametrize("order", [-1.0, 0.0, 1.5])
def test_resolvent_smoothing_gains_two_orders(grid_2d_9, order):
    c = random_spectral(grid_2d_9, np.random.default_rng(8))
    gained = sobolev_norm_sq(resolvent(c), order + 2.0)
    assert gained == pytest.approx(sobolev_norm_sq(c, order), rel=1e-12)


def test_truncation_plus_tail_is_resolvent_exactly(grid_2d_9):
    c = random_spectral(grid_2d_9, np.random.default_rng(9))
    for cutoff in (0, 1, 3):
        head = truncated_resolvent(c, cutoff)
        tail = apply_multiplier(c, resolvent_tail_symbol(cutoff))
        assert np.array_equal(
            (head + tail).coefficients, resolvent(c).coefficients
        )


def test_helmholtz_symbol_values():
    sym = helmholtz_symbol()
    assert sym((0, 0)) == 1.0
    assert sym((2, 1)) == 6.0


def test_non_finite_radial_symbol_rejected(grid_2d_9):
    c = spectral_delta(grid_2d_9, (0, 0))
    bad = MultiplierSymbol("explodes", of_norm_sq=lambda k: np.where(k > 4, np.inf, k))
    with pytest.raises(ValueError, match="explodes"):
        apply_multiplier(c, bad)


def test_symbol_reducing_k_rejected():
    # a constant return would broadcast to one value, not one per mode
    half = MultiplierSymbol("half", of_norm_sq=lambda k: 0.5)
    with pytest.raises(ValueError, match=r"'half' returned shape \(\)"):
        singular_values(half, TorusGrid(2, 5), 3)


def test_symbol_returning_part_of_k_rejected():
    # k[0] is one row of |xi|^2; broadcast over the box it is not radial
    row = MultiplierSymbol("first_row", of_norm_sq=lambda k: k[0])
    c = spectral_delta(TorusGrid(2, 5), (0, 0))
    with pytest.raises(ValueError, match=r"'first_row' returned shape \(5,\)"):
        apply_multiplier(c, row)


def test_symbol_takes_of_norm_sq_by_keyword_only():
    with pytest.raises(TypeError):
        MultiplierSymbol("x")
    with pytest.raises(TypeError):
        MultiplierSymbol("x", lambda xi: 1.0)
    sym = MultiplierSymbol("x", of_norm_sq=lambda k: 2.0 * k)
    assert sym((1, 1)) == 4.0
    assert np.array_equal(symbol_array(sym, TorusGrid(1, 3)), [2.0, 0.0, 2.0])


def _reference_symbols(cutoff: int) -> list:
    """Per-frequency formulas, written independently of the k-array forms."""
    start = (cutoff + 1) ** 2

    def inv(xi):
        return 1.0 / (1.0 + norm_sq(xi))

    return [
        (identity_symbol(), lambda xi: 1.0),
        (laplacian_symbol(), lambda xi: float(norm_sq(xi))),
        (helmholtz_symbol(), lambda xi: 1.0 + norm_sq(xi)),
        (resolvent_symbol(), inv),
        (
            truncated_resolvent_symbol(cutoff),
            lambda xi: inv(xi) if norm_sq(xi) < start else 0.0,
        ),
        (
            resolvent_tail_symbol(cutoff),
            lambda xi: inv(xi) if norm_sq(xi) >= start else 0.0,
        ),
    ]


@pytest.mark.parametrize("grid", [TorusGrid(1, 11), TorusGrid(2, 9), TorusGrid(3, 7)])
@pytest.mark.parametrize("cutoff", [0, 1, 2, 5])
def test_symbol_array_equals_per_frequency_evaluation(grid, cutoff):
    for sym, reference in _reference_symbols(cutoff):
        got = symbol_array(sym, grid)
        per_mode = np.array([sym(xi) for xi in grid.frequencies()]).reshape(grid.shape)
        expected = np.array(
            [reference(xi) for xi in grid.frequencies()]
        ).reshape(grid.shape)
        assert np.array_equal(got, per_mode), sym.name
        assert np.array_equal(got, expected), sym.name
        assert got.flags.writeable, sym.name


def test_norm_sq_array_is_shared_and_read_only():
    k = norm_sq_array(TorusGrid(3, 5))
    assert norm_sq_array(TorusGrid(3, 5)) is k
    assert norm_sq_array(TorusGrid(3, 7)) is not k
    expected = [float(norm_sq(xi)) for xi in TorusGrid(3, 5).frequencies()]
    assert k.ravel().tolist() == expected
    assert not k.flags.writeable
    with pytest.raises(ValueError):
        k[0, 0, 0] = 1.0
