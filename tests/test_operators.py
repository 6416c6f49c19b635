import itertools
import math

import numpy as np
import pytest

from toruskit import (
    MultiplierSymbol,
    NonFiniteError,
    SpectralField,
    TorusGrid,
    helmholtz_symbol,
    identity_symbol,
    inverse,
    l2_norm,
    norm_sq,
    operator_norm_power_iteration,
    random_field,
    resolvent_certificate,
    resolvent_symbol,
    resolvent_tail_symbol,
    singular_values,
    sobolev_norm_sq,
    solve_cg,
    solve_multiplier,
    truncated_resolvent_symbol,
)
from toruskit import operators as operators_mod
from toruskit import solver as solver_mod
from toruskit import spectral as spectral_mod
from toruskit import transform as transform_mod
from toruskit.operators import apply_multiplier, norm_sq_array, symbol_array

from conftest import random_grid, random_spectral, spectral_delta

# the positive Laplacian: its symbol is the |xi|^2 array itself, copied
# because norm_sq_array hands out one shared read-only array per grid
LAPLACIAN = MultiplierSymbol("laplacian", of_norm_sq=np.copy)


def multiplied(c: SpectralField, symbol: MultiplierSymbol) -> SpectralField:
    """The diagonal action sigma(xi) c(xi) on every stored mode."""
    return SpectralField(c.grid, symbol_array(symbol, c.grid) * c.coefficients)


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
    out = multiplied(c, identity_symbol())
    assert np.array_equal(out.coefficients, c.coefficients)


def test_laplacian_scales_unit_mode(grid_2d_9):
    c = spectral_delta(grid_2d_9, (1, 0))
    assert multiplied(c, LAPLACIAN)[(1, 0)] == 1.0


def test_resolvent_scales_by_one_fifth(grid_2d_9):
    c = spectral_delta(grid_2d_9, (2, 0))
    assert multiplied(c, resolvent_symbol())[(2, 0)] == pytest.approx(0.2, abs=0)


def test_laplacian_kills_constants(grid_2d_9):
    c = spectral_delta(grid_2d_9, (0, 0))
    assert np.max(np.abs(multiplied(c, LAPLACIAN).coefficients)) == 0.0
    assert multiplied(c, resolvent_symbol())[(0, 0)] == 1.0


def test_resolvent_inverts_helmholtz(grid_2d_9):
    c = random_spectral(grid_2d_9, np.random.default_rng(1))
    back = multiplied(multiplied(c, LAPLACIAN) + c, resolvent_symbol())
    assert np.max(np.abs(back.coefficients - c.coefficients)) < 1e-13


def test_truncation_cutoff_zero_keeps_only_constant(grid_2d_9):
    c = random_spectral(grid_2d_9, np.random.default_rng(2))
    out = multiplied(c, truncated_resolvent_symbol(0))
    assert out[(0, 0)] == c[(0, 0)]
    rest = out.coefficients.copy()
    rest[grid_2d_9.box_radius, grid_2d_9.box_radius] = 0.0
    assert np.max(np.abs(rest)) == 0.0


def test_truncation_covering_the_box_equals_resolvent(grid_2d_9):
    c = random_spectral(grid_2d_9, np.random.default_rng(3))
    # (N+1)^2 > 2 * 4^2 guarantees nothing is discarded
    full = multiplied(c, truncated_resolvent_symbol(6))
    resolved = multiplied(c, resolvent_symbol())
    assert np.array_equal(full.coefficients, resolved.coefficients)


def test_truncation_membership_straddles_integer_radii(grid_2d_9):
    # the discarded tail starts at squared norm (N+1)^2: |xi|^2 = 2 survives
    # a cutoff-1 truncation while |xi|^2 = 4 does not
    c = spectral_delta(grid_2d_9, (1, 1))
    truncation = truncated_resolvent_symbol(1)
    assert multiplied(c, truncation)[(1, 1)] == pytest.approx(1 / 3, abs=0)
    d = spectral_delta(grid_2d_9, (0, 2))
    assert multiplied(d, truncation)[(0, 2)] == 0.0


@pytest.mark.parametrize("cutoff", [0, 1, 2, 4])
def test_truncation_rank_on_stored_box(grid_2d_9, cutoff):
    sym = truncated_resolvent_symbol(cutoff)
    nonzero = sum(1 for xi in grid_2d_9.frequencies() if sym(xi) != 0.0)
    assert nonzero == kept_mode_count(grid_2d_9, cutoff)


def test_truncation_rejects_negative_cutoff(grid_2d_9):
    c = random_spectral(grid_2d_9, np.random.default_rng(0))
    with pytest.raises(ValueError):
        multiplied(c, truncated_resolvent_symbol(-1))


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


def test_l2_norm_of_a_stack_is_each_fields_norm(grid_2d_9):
    # a float for one field, the (k,) per-field norms for a stack of k
    rng = np.random.default_rng(7)
    c = np.stack([random_spectral(grid_2d_9, rng).coefficients for _ in range(3)])
    norms = l2_norm(SpectralField(grid_2d_9, c))
    assert isinstance(norms, np.ndarray) and norms.shape == (3,)
    for row, norm in zip(c, norms):
        alone = l2_norm(SpectralField(grid_2d_9, row))
        assert type(alone) is float
        assert norm == alone
    ones = SpectralField(grid_2d_9, np.ones((3, *grid_2d_9.shape), dtype=complex))
    assert np.array_equal(l2_norm(ones), np.full(3, 9.0))
    # the norm is the order-0 Sobolev norm, byte for byte
    for field in (SpectralField(grid_2d_9, c), SpectralField(grid_2d_9, c[1])):
        expected = np.sqrt(sobolev_norm_sq(field, 0.0))
        assert np.asarray(l2_norm(field)).tobytes() == expected.tobytes()


def test_apply_multiplier_is_linear(grid_2d_9):
    rng = np.random.default_rng(10)
    u, v = random_grid(grid_2d_9, rng).values, random_grid(grid_2d_9, rng).values
    sigma = symbol_array(resolvent_symbol(), grid_2d_9)
    lhs = apply_multiplier(grid_2d_9, sigma, 2.5 * u + (1 - 2j) * v)
    rhs = (2.5 * apply_multiplier(grid_2d_9, sigma, u)
           + (1 - 2j) * apply_multiplier(grid_2d_9, sigma, v))
    assert np.max(np.abs(lhs - rhs)) < 1e-13


def test_multipliers_commute_to_roundoff(grid_2d_9):
    c = random_spectral(grid_2d_9, np.random.default_rng(6))
    ab = multiplied(multiplied(c, resolvent_symbol()), LAPLACIAN)
    ba = multiplied(multiplied(c, LAPLACIAN), resolvent_symbol())
    assert np.max(np.abs(ab.coefficients - ba.coefficients)) < 1e-14


def test_resolvent_is_a_contraction(grid_2d_9):
    rng = np.random.default_rng(7)
    for _ in range(5):
        c = random_spectral(grid_2d_9, rng)
        assert l2_norm(multiplied(c, resolvent_symbol())) <= l2_norm(c)
    # equality exactly on fields supported at the zero mode
    c0 = spectral_delta(grid_2d_9, (0, 0))
    assert l2_norm(multiplied(c0, resolvent_symbol())) == l2_norm(c0)


@pytest.mark.parametrize("order", [-1.0, 0.0, 1.5])
def test_resolvent_smoothing_gains_two_orders(grid_2d_9, order):
    c = random_spectral(grid_2d_9, np.random.default_rng(8))
    gained = sobolev_norm_sq(multiplied(c, resolvent_symbol()), order + 2.0)
    assert gained == pytest.approx(sobolev_norm_sq(c, order), rel=1e-12)


def test_truncation_plus_tail_is_resolvent_exactly(grid_2d_9):
    c = random_spectral(grid_2d_9, np.random.default_rng(9))
    for cutoff in (0, 1, 3):
        head = multiplied(c, truncated_resolvent_symbol(cutoff))
        tail = multiplied(c, resolvent_tail_symbol(cutoff))
        assert np.array_equal(
            (head + tail).coefficients,
            multiplied(c, resolvent_symbol()).coefficients,
        )


def test_helmholtz_symbol_values():
    sym = helmholtz_symbol()
    assert sym((0, 0)) == 1.0
    assert sym((2, 1)) == 6.0


def test_symbol_refuses_non_integer_frequency():
    sym = resolvent_symbol()
    assert sym((np.int64(1), 0)) == 0.5
    with pytest.raises(TypeError):
        sym((0.5, 0))


def test_non_finite_radial_symbol_rejected(grid_2d_9):
    c = spectral_delta(grid_2d_9, (0, 0))
    bad = MultiplierSymbol("explodes", of_norm_sq=lambda k: np.where(k > 4, np.inf, k))
    with pytest.raises(ValueError, match="explodes"):
        multiplied(c, bad)


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
        multiplied(c, row)


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
        (LAPLACIAN, lambda xi: float(norm_sq(xi))),
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


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_symbol_with_a_non_finite_value_raises_non_finite_error(grid_2d_9, bad):
    pole = MultiplierSymbol("pole", of_norm_sq=lambda k: np.where(k == 1, bad, k))
    with pytest.raises(NonFiniteError, match="^symbol 'pole' produced non-finite values"):
        symbol_array(pole, grid_2d_9)


@pytest.mark.parametrize("n, m", [(1, 15), (2, 9), (3, 7), (2, 91)])
def test_apply_multiplier_applies_a_stack_as_each_field_alone(n, m):
    # one shared symbol row, or one row per field; a stack of one too.  At
    # 2-D M=91, past transform._STACK_POINTS, each block is one field
    g = TorusGrid(n, m)
    rng = np.random.default_rng(m)
    stack = np.stack([random_spectral(g, rng).coefficients for _ in range(4)])
    rows = np.stack([symbol_array(resolvent_tail_symbol(k), g) for k in range(4)])
    shared = symbol_array(resolvent_symbol(), g)
    for sigma, per_row in ((shared, [shared] * 4), (rows, list(rows))):
        got = apply_multiplier(g, sigma, stack)
        assert got.shape == stack.shape
        for values, row_sigma, out in zip(stack, per_row, got):
            assert np.array_equal(out, apply_multiplier(g, row_sigma, values))
    one = apply_multiplier(g, rows[:1], stack[:1])
    assert one.shape == (1, *g.shape)
    assert np.array_equal(one[0], apply_multiplier(g, rows[0], stack[0]))
    # one field against a stack of symbols: the stack of its responses
    responses = apply_multiplier(g, rows, stack[0])
    assert responses.shape == stack.shape
    for row_sigma, out in zip(rows, responses):
        assert np.array_equal(out, apply_multiplier(g, row_sigma, stack[0]))
    assert apply_multiplier(g, shared, stack[:0]).shape == (0, *g.shape)
    # a stack of symbols takes one field, or as many fields as symbols
    with pytest.raises(ValueError, match="3 fields against 4 symbols"):
        apply_multiplier(g, rows, stack[:3])


def test_every_forward_transform_of_the_krylov_layer_is_inside_an_apply(monkeypatch):
    # CG and its preconditioner, the multiplier solve, lockstep Lanczos and
    # the certificate transform only through `apply_multiplier`, so a fault
    # planted in `forward` or `inverse` reaches them there, and a tracer
    # that wraps the apply times all of their round trips
    g = TorusGrid(2, 9)
    f = random_field(g, np.random.default_rng(1))
    depth, applies, forwards = [0], [], []
    exact_apply, exact_forward = operators_mod.apply_multiplier, transform_mod.forward

    def apply(grid, sigma, values):
        applies.append(1)
        depth[0] += 1
        try:
            return exact_apply(grid, sigma, values)
        finally:
            depth[0] -= 1

    for module in (solver_mod, spectral_mod):
        monkeypatch.setattr(module, "apply_multiplier", apply)
    monkeypatch.setattr(transform_mod, "forward",
                        lambda u: forwards.append(depth[0] > 0) or exact_forward(u))
    symbols = [resolvent_symbol(), *(resolvent_tail_symbol(k) for k in range(3))]
    for call in (lambda: solve_cg(f), lambda: solve_multiplier(f),
                 lambda: operator_norm_power_iteration(symbols, g, seed=1),
                 lambda: resolvent_certificate(g, 1)):
        before = len(applies), len(forwards)
        call()
        assert len(applies) > before[0] and len(forwards) > before[1]
    assert all(forwards)


@pytest.mark.parametrize("n, m", [(1, 17), (2, 9), (2, 129), (3, 7)])
@pytest.mark.parametrize("order", [0.0, 1.0, -0.5])
def test_sobolev_norms_of_a_sequence_are_each_field_s_bit_for_bit(n, m, order):
    # a stack of fields gives one sum per field, over the trailing axes
    g = TorusGrid(n, m)
    rng = np.random.default_rng(m)
    fields = [random_spectral(g, rng) for _ in range(5)]
    sums = sobolev_norm_sq(SpectralField(g, np.stack([c.coefficients for c in fields])), order)
    assert sums.dtype == np.float64 and sums.tolist() == [
        sobolev_norm_sq(c, order) for c in fields]
    assert type(sobolev_norm_sq(fields[0], order)) is float
    assert sobolev_norm_sq(SpectralField(g, np.zeros((0, *g.shape))), order).tolist() == []
