import math

import numpy as np
import pytest

from toruskit import (
    ConjugateGradientError,
    checks,
    GridField,
    MultiplierSymbol,
    TorusGrid,
    forward,
    grid_l2_norm,
    inverse,
    random_field,
    solve_cg,
    solve_multiplier,
)

from toruskit import solver as solver_mod
from toruskit import transform as transform_mod
from toruskit.operators import norm_sq_array
from toruskit.solver import _fd_helmholtz_array, _iteration_bound, helmholtz_norm

from conftest import spectral_delta
from test_fault_matrix import FAULTS


def distinct_ratios_in_support(f: GridField, tol: float = 1e-12) -> int:
    """Oracle: count the distinct values of (1 + |xi|^2) / sigma_FD(xi), the
    eigenvalues of the preconditioned operator, on f's spectrum; values
    within 1e-12 relative count as one."""
    c = forward(f)
    ratio = (1.0 + norm_sq_array(f.grid)) / _fd_helmholtz_array(f.grid)
    values = np.sort(ratio[np.abs(c.coefficients) > tol])
    return int(np.count_nonzero(np.diff(values) > 1e-12 * values[1:])) + 1


def _count_forwards(monkeypatch) -> list:
    """A list that gains one entry per `transform.forward` call made through
    the module lookup, which is how `operators.apply_multiplier` calls it."""
    forwards = []
    exact = transform_mod.forward
    monkeypatch.setattr(transform_mod, "forward", lambda u: forwards.append(1) or exact(u))
    return forwards


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


def test_cg_evaluates_the_helmholtz_symbol_once_per_solve(monkeypatch):
    # every iteration and every true-residual check reuse one symbol array
    evaluations = []
    counted = MultiplierSymbol(
        "helmholtz", of_norm_sq=lambda k: evaluations.append(1) or 1.0 + k
    )
    monkeypatch.setattr(solver_mod, "helmholtz_symbol", lambda: counted)
    f = random_field(TorusGrid(2, 9), np.random.default_rng(1))
    u, report = solve_cg(f)
    assert report.iterations == 12
    assert len(evaluations) == 1
    assert grid_l2_norm(u - solve_multiplier(f)[0]) < 1e-9


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


def test_cg_true_residual_meets_tol_where_the_recursion_drifts():
    # the smallest 1-D grid found where the recursively updated residual
    # passes tol while the true one does not (1.03e-10 ||f|| without the
    # residual replacement); the residual is recomputed here with numpy.fft
    points, tol = 2001, 1e-10
    f = random_field(TorusGrid(1, points), np.random.default_rng(2))
    u, report = solve_cg(f, tol=tol)
    k = np.fft.fftfreq(points, d=1.0 / points)
    residual = f.values - np.fft.ifft((1.0 + k * k) * np.fft.fft(u.values))
    relative = np.linalg.norm(residual) / np.linalg.norm(f.values)
    assert relative <= tol
    assert report.residual_l2 / grid_l2_norm(f) <= tol


@pytest.mark.parametrize("n, points", [(1, 3), (1, 301), (2, 9), (3, 5)])
def test_helmholtz_norm_is_the_largest_symbol_value(n, points):
    g = TorusGrid(n, points)
    largest = max(1 + sum(x * x for x in xi) for xi in g.frequencies())
    assert helmholtz_norm(g) == largest


@pytest.mark.parametrize("points, tol, seed", [(301, 1e-13, 0), (301, 1e-13, 1),
                                               (2001, 1e-12, 2)])
def test_cg_stops_at_the_rounding_floor_when_tol_lies_below_it(points, tol, seed):
    # tol * ||f|| lies below what evaluating f - A u can reach here: the true
    # residual reads 3-30 tol at the first proposed stop, a backward error of
    # 1-3 eps; replacing the residual there and going on would not reach tol
    # within M iterations
    g = TorusGrid(1, points)
    f = random_field(g, np.random.default_rng(seed))
    u, report = solve_cg(f, tol=tol)
    assert report.iterations < g.size
    f_l2 = grid_l2_norm(f)
    assert report.residual_l2 > tol * f_l2
    backward = report.residual_l2 / (helmholtz_norm(g) * grid_l2_norm(u) + f_l2)
    assert backward <= 4 * np.finfo(float).eps


@pytest.mark.parametrize("n, points", [(1, 15), (2, 9), (3, 5)])
def test_cg_iteration_count_bounded_by_distinct_preconditioned_values(n, points):
    # in exact arithmetic, PCG takes at most one iteration per distinct
    # eigenvalue of P^{-1} A that f reaches; 2 more allow for rounding
    g = TorusGrid(n, points)
    rng = np.random.default_rng(13)
    for _ in range(3):
        f = random_field(g, rng)
        _, report = solve_cg(f, tol=1e-10)
        assert report.iterations <= distinct_ratios_in_support(f) + 2


def test_cg_iteration_count_bounded_on_a_sparse_spectrum():
    # two modes with distinct ratios: at most 2 + 2 iterations
    g = TorusGrid(2, 9)
    f = inverse(spectral_delta(g, (1, 0)) + spectral_delta(g, (4, -3)))
    assert distinct_ratios_in_support(f) == 2
    assert solve_cg(f, tol=1e-10)[1].iterations <= 4


@pytest.mark.parametrize("n, points", [(1, 8191), (2, 89), (3, 19), (3, 9), (1, 1501)])
def test_cg_iteration_count_within_the_proven_bound(n, points):
    # kappa(P^{-1} A) <= pi^2/4 on every grid, prime M included (8191, 89,
    # 19): the count grows only with log ||Delta + 1||
    g = TorusGrid(n, points)
    for seed in (1, 2):
        f = random_field(g, np.random.default_rng(seed))
        _, report = solve_cg(f, tol=1e-10)
        assert report.iterations <= _iteration_bound(g, 1e-10)


@pytest.mark.parametrize("n, points, bound", [(3, 9, 18), (1, 8191, 22), (2, 1023, 21)])
def test_iteration_bound_at_tol_1e_10(n, points, bound):
    assert _iteration_bound(TorusGrid(n, points), 1e-10) == bound


@pytest.mark.parametrize("n, points", [(1, 3), (1, 8191), (2, 89), (2, 255), (3, 19)])
def test_preconditioned_symbol_ratio_lies_in_one_to_pi_squared_over_four(n, points):
    g = TorusGrid(n, points)
    ratio = (1.0 + norm_sq_array(g)) / _fd_helmholtz_array(g)
    assert ratio.min() == 1.0
    assert ratio.max() <= math.pi**2 / 4


def _plant_spacing(monkeypatch, scale):
    # the grid spacing, which only the finite-difference preconditioner reads
    monkeypatch.setattr(TorusGrid, "spacing",
                        property(lambda g: scale * 2 * math.pi / g.points_per_axis))


@pytest.mark.parametrize("n, points", [(1, 15), (2, 9), (3, 9), (2, 89)])
def test_a_preconditioner_with_a_wrong_spacing_changes_the_count_not_the_verdict(
        monkeypatch, n, points):
    f = random_field(TorusGrid(n, points), np.random.default_rng(1))
    _, (_, right), _, failures = checks.check_solve(f)
    assert failures == []
    _plant_spacing(monkeypatch, 2.0)
    _, (_, wrong), _, failures = checks.check_solve(f)
    assert failures == []
    assert wrong.iterations > right.iterations


@pytest.mark.parametrize("n, points", [(1, 15), (2, 9), (3, 9), (3, 19), (2, 91)])
def test_a_nonsymmetric_operator_fails_within_twice_the_proven_bound(monkeypatch, n, points):
    # inverse-off-at-one-point makes A nonsymmetric, so CG cannot converge.
    # An iteration takes one precondition call and at most two applies of
    # A, each one forward transform on every grid, 2-D M=91 (past
    # transform._STACK_POINTS) included; the iteration cap is at most twice
    # the proven bound (36 at 3-D M=9)
    FAULTS["inverse-off-at-one-point"](monkeypatch)
    forwards = _count_forwards(monkeypatch)
    g = TorusGrid(n, points)
    with pytest.raises(ConjugateGradientError):
        solve_cg(random_field(g, np.random.default_rng(1)))
    cap = 2 * _iteration_bound(g, 1e-10)
    assert 0 < len(forwards) <= (cap + 1) + 2 * cap


def test_cg_transforms_each_residual_forward_once_on_a_blocked_grid(monkeypatch):
    # 2-D M=91 holds 8281 points, past transform._STACK_POINTS, so the
    # preconditioner's two symbols are inverted one block at a time, from
    # one forward transform of r.  Every precondition call and every apply
    # of A makes one forward: here one before the loop, one per iteration
    # that goes on, and one for the single true-residual check
    calls = {"precondition": 0, "A": 0}
    exact = solver_mod.apply_multiplier

    def counted(grid, sigma, values):
        kind = "precondition" if sigma.ndim > grid.dimension else "A"
        calls[kind] += 1
        return exact(grid, sigma, values)

    monkeypatch.setattr(solver_mod, "apply_multiplier", counted)
    forwards = _count_forwards(monkeypatch)
    g = TorusGrid(2, 91)
    assert len(transform_mod._stack_blocks(2, g.size)) == 2
    _, report = solve_cg(random_field(g, np.random.default_rng(1)))
    assert len(forwards) == report.iterations + 1
    assert calls == {"precondition": report.iterations, "A": 1}


@pytest.mark.parametrize("flip", ["negative", "one-mode-negative"])
def test_a_preconditioner_that_is_not_positive_definite_raises(monkeypatch, flip):
    exact = solver_mod._fd_helmholtz_array

    def faulty(grid):
        sigma = exact(grid)
        if flip == "negative":
            return -sigma
        sigma[(0,) * grid.dimension] *= -1
        return sigma

    monkeypatch.setattr(solver_mod, "_fd_helmholtz_array", faulty)
    f = random_field(TorusGrid(2, 9), np.random.default_rng(1))
    with pytest.raises(ConjugateGradientError, match="broke down"):
        solve_cg(f)


def test_solution_norm_never_exceeds_input_norm():
    g = TorusGrid(2, 9)
    rng = np.random.default_rng(14)
    for _ in range(5):
        f = random_field(g, rng)
        for u in (solve_multiplier(f)[0], solve_cg(f, tol=1e-10)[0]):
            assert grid_l2_norm(u) <= grid_l2_norm(f) * (1 + 1e-12)


@pytest.mark.parametrize("residual_l2, iterations", [(-1.0, 0), (0.0, -1)])
def test_solve_report_refuses_a_negative_residual_or_count(residual_l2, iterations):
    with pytest.raises(ValueError, match="^residual and iteration count must be nonnegative$"):
        solver_mod.SolveReport(residual_l2, "cg", iterations, 0.0)


def test_cg_zero_input():
    g = TorusGrid(1, 5)
    u, report = solve_cg(GridField(g, np.zeros(5, dtype=complex)))
    assert np.max(np.abs(u.values)) == 0.0
    assert report.iterations == 0


def test_cg_non_convergence_raises_naming_tol_and_its_cap(monkeypatch):
    # the cap is twice the proven bound, here lowered to 1
    monkeypatch.setattr(solver_mod, "_iteration_bound", lambda grid, tol, condition: 1)
    g = TorusGrid(2, 9)
    f = random_field(g, np.random.default_rng(15))
    with pytest.raises(ConjugateGradientError) as excinfo:
        solve_cg(f, tol=1e-14)
    assert isinstance(excinfo.value, RuntimeError)
    assert str(excinfo.value) == (
        "conjugate gradients did not reach tol=1e-14 within 2 iterations"
    )


def test_cg_rejects_bad_tol():
    g = TorusGrid(1, 5)
    with pytest.raises(ValueError):
        solve_cg(GridField(g, np.ones(5, dtype=complex)), tol=-1.0)


@pytest.mark.parametrize("tol", [float("nan"), float("inf")])
def test_cg_refuses_a_tol_that_is_not_finite(tol):
    # a NaN tol would run to the iteration cap and then fail; an infinite one
    # would stop after one iteration and report success
    f = random_field(TorusGrid(2, 9), np.random.default_rng(0))
    with pytest.raises(ValueError, match="tol"):
        solve_cg(f, tol=tol)
