import numpy as np
import pytest

from toruskit import (
    ConjugateGradientError,
    GridField,
    TorusGrid,
    forward,
    grid_l2_norm,
    inverse,
    random_field,
    solve_cg,
    solve_multiplier,
)

from conftest import spectral_delta


def distinct_levels_in_support(f: GridField, tol: float = 1e-12) -> int:
    """Oracle: count distinct 1 + |xi|^2 values carried by f's spectrum."""
    c = forward(f)
    levels = set()
    for xi, z in zip(f.grid.frequencies(), c.coefficients.ravel()):
        if abs(z) > tol:
            levels.add(1 + sum(x * x for x in xi))
    return len(levels)


def test_multiplier_solves_constant():
    g = TorusGrid(2, 5)
    f = GridField(g, np.ones(g.shape, dtype=complex))
    u, report = solve_multiplier(f)
    assert np.max(np.abs(u.values - 1.0)) < 1e-14
    assert report.method == "multiplier"
    assert report.iterations == 0
    assert report.residual_l2 < 1e-14


def test_multiplier_solves_single_mode():
    g = TorusGrid(2, 9)
    u_exact = inverse(spectral_delta(g, (0, 2)))
    f = 5.0 * u_exact
    u, report = solve_multiplier(f)
    assert np.max(np.abs(u.values - u_exact.values)) < 1e-13
    assert report.residual_l2 < 1e-12


def test_multiplier_solves_sine():
    g = TorusGrid(1, 7)
    x = g.axis_points()
    u, _ = solve_multiplier(GridField(g, 2.0 * np.sin(x) + 0j))
    assert np.max(np.abs(u.values - np.sin(x))) < 1e-14


def test_cg_converges_in_one_iteration_on_eigenvectors():
    g = TorusGrid(2, 9)
    for mode in [(0, 0), (4, -3)]:
        f = inverse(spectral_delta(g, mode))
        _, report = solve_cg(f, tol=1e-12)
        assert report.iterations == 1


def test_cg_matches_multiplier_on_seeded_input():
    g = TorusGrid(2, 9)
    f = random_field(g, np.random.default_rng(12))
    u_mult, _ = solve_multiplier(f)
    u_cg, report = solve_cg(f, tol=1e-10)
    assert grid_l2_norm(u_mult - u_cg) < 1e-9
    assert report.residual_l2 <= 1e-10 * grid_l2_norm(f)


@pytest.mark.parametrize("n, points", [(1, 31), (2, 9), (3, 5)])
def test_cg_reports_the_true_residual(n, points):
    # ||f - (Delta + 1) u|| with Delta applied by numpy.fft, not by toruskit;
    # a loose tol keeps the residual far above roundoff
    f = random_field(TorusGrid(n, points), np.random.default_rng(5))
    u, report = solve_cg(f, tol=1e-6)
    k = np.fft.fftfreq(points, d=1.0 / points)
    symbol = 1.0 + sum(np.meshgrid(*(k * k,) * n, indexing="ij", sparse=True))
    residual = f.values - np.fft.ifftn(symbol * np.fft.fftn(u.values))
    true_l2 = np.linalg.norm(residual.ravel()) / np.sqrt(f.grid.size)
    assert report.iterations > 0
    assert report.residual_l2 == pytest.approx(true_l2, rel=1e-8)


def test_cg_iteration_count_bounded_by_level_count():
    g = TorusGrid(2, 9)
    rng = np.random.default_rng(13)
    for _ in range(3):
        f = random_field(g, rng)
        _, report = solve_cg(f, tol=1e-10)
        assert report.iterations <= distinct_levels_in_support(f) + 2


def test_solution_norm_never_exceeds_input_norm():
    g = TorusGrid(2, 9)
    rng = np.random.default_rng(14)
    for _ in range(5):
        f = random_field(g, rng)
        for u in (solve_multiplier(f)[0], solve_cg(f, tol=1e-10)[0]):
            assert grid_l2_norm(u) <= grid_l2_norm(f) * (1 + 1e-12)


def test_cg_zero_input():
    g = TorusGrid(1, 5)
    u, report = solve_cg(GridField(g, np.zeros(5, dtype=complex)))
    assert np.max(np.abs(u.values)) == 0.0
    assert report.iterations == 0


def test_cg_non_convergence_attaches_last_iterate():
    g = TorusGrid(2, 9)
    f = random_field(g, np.random.default_rng(15))
    with pytest.raises(ConjugateGradientError) as excinfo:
        solve_cg(f, tol=1e-14, max_iter=1)
    err = excinfo.value
    assert isinstance(err.last_iterate, GridField)
    assert err.residual > 0.0


def test_cg_rejects_bad_tol():
    g = TorusGrid(1, 5)
    with pytest.raises(ValueError):
        solve_cg(GridField(g, np.ones(5, dtype=complex)), tol=-1.0)
