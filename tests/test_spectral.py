import itertools
import tracemalloc

import numpy as np
import pytest

from toruskit import (
    GridField,
    LanczosError,
    MultiplierSymbol,
    TorusGrid,
    forward,
    grid_l2_norm,
    identity_symbol,
    inverse,
    level_multiplicity,
    operator_norm_power_iteration,
    resolvent_certificate,
    resolvent_symbol,
    resolvent_tail_symbol,
    singular_values,
    spectra,
    truncation_error_exact,
)
from toruskit import spectral as spectral_mod
from toruskit import transform as transform_mod

from conftest import per_mode_residuals
from test_fault_matrix import FAULTS


def _rows(pair):
    """The (eigenvalue, multiplicity) column pair as row lists."""
    return [list(row) for row in zip(*(column.tolist() for column in pair))]


def test_laplacian_spectrum_2d():
    tables = spectra(2, 2)
    assert list(tables) == ["laplacian", "resolvent"]
    assert _rows(tables["laplacian"]) == [[0.0, 1], [1.0, 4], [2.0, 4]]


def test_resolvent_spectrum_2d():
    assert _rows(spectra(2, 2)["resolvent"]) == [[1.0, 1], [0.5, 4], [1 / 3, 4]]
    eigs = spectra(3, 30)["resolvent"][0].tolist()
    assert eigs == sorted(eigs, reverse=True)
    assert len(set(eigs)) == len(eigs)
    assert all(0.0 < e <= 1.0 for e in eigs)


def test_spectrum_level_cap_zero():
    tables = spectra(1, 0)
    assert {name: _rows(pair) for name, pair in tables.items()} == {
        "laplacian": [[0.0, 1]], "resolvent": [[1.0, 1]]}


def test_spectrum_multiplicities_match_lattice():
    for n in (1, 2, 3):
        tables = spectra(n, 12)
        for (k, mult), (eig, res_mult) in zip(_rows(tables["laplacian"]),
                                              _rows(tables["resolvent"])):
            assert mult == res_mult == level_multiplicity(n, int(k))
            # the column division is bit-identical to Python's scalar one
            assert eig == 1.0 / (1 + int(k))


@pytest.mark.parametrize("n, cap, dtype", [(2, 50, np.int64), (1000, 8, object)],
                         ids=["int64", "object"])
def test_spectrum_columns_are_float64_and_integer(n, cap, dtype):
    for eigenvalues, multiplicities in spectra(n, cap).values():
        assert eigenvalues.dtype == np.float64 and eigenvalues.ndim == 1
        assert multiplicities.dtype == dtype
        assert len(eigenvalues) == len(multiplicities)
        assert all(type(mult) is int for mult in multiplicities.tolist())


@pytest.mark.parametrize("cutoff, expected", [(0, 0.5), (1, 0.2), (3, 1 / 17)])
def test_truncation_error_exact_values(cutoff, expected):
    assert truncation_error_exact(cutoff) == pytest.approx(expected, abs=0)


def test_truncation_error_strictly_decreasing_to_zero():
    values = [truncation_error_exact(k) for k in range(60)]
    assert all(a > b for a, b in zip(values, values[1:]))
    assert values[-1] < 3e-4


def test_truncation_error_rejects_negative():
    with pytest.raises(ValueError):
        truncation_error_exact(-1)


def test_power_iteration_identity_symbol():
    grid = TorusGrid(2, 7)
    est = operator_norm_power_iteration(identity_symbol(), grid, tol=1e-10, seed=0)
    assert est == pytest.approx(1.0, abs=1e-8)


def test_power_iteration_resolvent_norm_is_one():
    grid = TorusGrid(2, 9)
    est = operator_norm_power_iteration(resolvent_symbol(), grid, tol=1e-10, seed=1)
    assert est == pytest.approx(1.0, abs=1e-8)


def test_power_iteration_tail_norm_matches_law():
    # box radius 4 contains the first discarded frequency (2, 0)
    grid = TorusGrid(2, 9)
    est = operator_norm_power_iteration(resolvent_tail_symbol(1), grid, tol=1e-10, seed=2)
    assert est == pytest.approx(0.2, abs=1e-8)


def test_power_iteration_deterministic_given_seed():
    grid = TorusGrid(2, 9)
    a = operator_norm_power_iteration(resolvent_symbol(), grid, tol=1e-10, seed=9)
    b = operator_norm_power_iteration(resolvent_symbol(), grid, tol=1e-10, seed=9)
    assert a == b


def test_power_iteration_zero_symbol():
    grid = TorusGrid(1, 5)
    # tail beyond the whole box: the operator is zero on stored modes
    est = operator_norm_power_iteration(resolvent_tail_symbol(10), grid, tol=1e-10, seed=0)
    assert est == 0.0


def test_power_iteration_non_convergence_raises_naming_tol_and_estimate(monkeypatch):
    monkeypatch.setattr(spectral_mod, "_step_cap", lambda squares: 2)
    grid = TorusGrid(2, 21)
    with pytest.raises(LanczosError) as excinfo:
        operator_norm_power_iteration(resolvent_tail_symbol(8), grid, tol=1e-14, seed=0)
    assert isinstance(excinfo.value, RuntimeError)
    message = str(excinfo.value)
    assert message.startswith(
        "Lanczos did not reach tol=1e-14 within 2 steps (last estimate "
    )
    assert 0.0 < float(message.rsplit(" ", 1)[1].rstrip(")")) < 1.0


def test_power_iteration_stops_at_twice_the_distinct_values_of_its_squared_symbols(
    monkeypatch
):
    # the resolvent's square takes 8 values at 1-D M=15, one per level
    # k = 0, 1, 4, ..., 49, and its Krylov space is used up within 8 steps;
    # with every sum short of its last term the recurrence runs on, to 16
    FAULTS["field-sums-drop-last-term"](monkeypatch)
    calls = []
    inverse = transform_mod.inverse
    monkeypatch.setattr(transform_mod, "inverse", lambda c: calls.append(1) or inverse(c))
    with pytest.raises(LanczosError, match="^Lanczos did not reach tol=1e-10 within 16 steps"):
        operator_norm_power_iteration(resolvent_symbol(), TorusGrid(1, 15), seed=1)
    assert len(calls) == 16


def test_power_iteration_stops_on_an_invariant_subspace(monkeypatch):
    # the identity's normal operator maps the start vector to itself, the
    # zero operator maps it to 0: one application each
    calls = []
    inverse = transform_mod.inverse
    monkeypatch.setattr(transform_mod, "inverse", lambda c: calls.append(1) or inverse(c))
    assert operator_norm_power_iteration(
        identity_symbol(), TorusGrid(2, 7), seed=0
    ) == pytest.approx(1.0, abs=1e-15)
    assert operator_norm_power_iteration(
        resolvent_tail_symbol(10), TorusGrid(1, 5), seed=0
    ) == 0.0
    assert len(calls) == 2


def test_power_iteration_evaluates_its_symbol_once_per_estimate(monkeypatch):
    evaluations, applications = [], []
    counted = MultiplierSymbol(
        "resolvent", of_norm_sq=lambda k: evaluations.append(1) or 1.0 / (1.0 + k)
    )
    inverse = transform_mod.inverse
    monkeypatch.setattr(
        transform_mod, "inverse", lambda c: applications.append(1) or inverse(c)
    )
    est = operator_norm_power_iteration(counted, TorusGrid(2, 9), seed=1)
    assert est == pytest.approx(1.0, abs=1e-10)
    assert len(applications) > 1
    assert len(evaluations) == 1


def test_power_iteration_meets_the_law_at_cutoff_10_within_40_applications(monkeypatch):
    calls = []
    inverse = transform_mod.inverse
    monkeypatch.setattr(transform_mod, "inverse", lambda c: calls.append(1) or inverse(c))
    est = operator_norm_power_iteration(resolvent_tail_symbol(10), TorusGrid(2, 65), seed=1)
    assert est == pytest.approx(1 / 122, abs=1e-12)
    assert len(calls) <= 40


def test_power_iteration_rejects_bad_tol():
    with pytest.raises(ValueError):
        operator_norm_power_iteration(identity_symbol(), TorusGrid(1, 5), tol=0.0)


@pytest.mark.parametrize("tol", [float("nan"), float("inf")])
def test_power_iteration_refuses_a_tol_that_is_not_finite(tol):
    # an infinite tol would return the first estimate, 0.0908 here against
    # the true norm 0.2; a NaN one would run to the step cap
    with pytest.raises(ValueError, match="tol"):
        operator_norm_power_iteration(resolvent_tail_symbol(1), TorusGrid(2, 9), tol=tol)


def test_singular_values_resolvent_1d():
    got = singular_values(resolvent_symbol(), TorusGrid(1, 7), 5)
    assert got == [1.0, 0.5, 0.5, 0.2, 0.2]


def test_singular_values_resolvent_2d():
    got = singular_values(resolvent_symbol(), TorusGrid(2, 9), 5)
    assert got == [1.0, 0.5, 0.5, 0.5, 0.5]


def test_singular_values_identity_all_ones():
    got = singular_values(identity_symbol(), TorusGrid(2, 5), 10)
    assert got == [1.0] * 10


def test_singular_values_count_validation():
    grid = TorusGrid(1, 5)
    with pytest.raises(ValueError):
        singular_values(identity_symbol(), grid, 6)
    assert singular_values(identity_symbol(), grid, 0) == []


def certificate_passes(grid):
    certificate = resolvent_certificate(grid, seed=1)
    worst = max(np.max(certificate.eigenvalue_error), np.max(certificate.commutator))
    return worst <= spectral_mod.CERTIFICATE_TOL


def resolvent_off_at(monkeypatch, grid, xi):
    """Make the certificate's resolvent 1e-9 too large at the mode xi only;
    returns that symbol."""
    bump = np.zeros(grid.shape)
    bump[tuple(x + grid.box_radius for x in xi)] = 1e-9
    symbol = MultiplierSymbol("resolvent", of_norm_sq=lambda k: 1.0 / (1.0 + k) + bump)
    monkeypatch.setattr(spectral_mod, "resolvent_symbol", lambda: symbol)
    return symbol


def check_mode(monkeypatch, grid, xi, tol=1e-12):
    """The certificate passes where the per-mode residuals, xi's within
    tol, all are within 1e-12, and fails once a tamper at xi pushes xi's
    above it, with its largest eigenvalue error at xi."""
    index = list(grid.frequencies()).index(xi)
    residuals = per_mode_residuals(grid, resolvent_symbol())
    assert residuals[index] < tol and np.max(residuals) <= 1e-12
    assert certificate_passes(grid)
    residuals = per_mode_residuals(grid, resolvent_off_at(monkeypatch, grid, xi))
    assert residuals[index] > 1e-12
    assert not certificate_passes(grid)
    errors = resolvent_certificate(grid, seed=1).eigenvalue_error
    assert np.argmax(errors) == np.argmax(residuals) == index


def test_verify_eigenpair_zero_mode(monkeypatch):
    check_mode(monkeypatch, TorusGrid(2, 9), (0, 0), tol=1e-13)


@pytest.mark.parametrize("xi", [(1, 0), (2, 2), (-4, 3)])
def test_verify_eigenpair_generic_modes(monkeypatch, xi):
    check_mode(monkeypatch, TorusGrid(2, 9), xi)


def test_verify_eigenpair_other_dimensions(monkeypatch):
    check_mode(monkeypatch, TorusGrid(1, 9), (3,))
    monkeypatch.undo()
    check_mode(monkeypatch, TorusGrid(3, 7), (1, -1, 2))


@pytest.mark.parametrize("tampered", [False, True])
@pytest.mark.parametrize("n,m", [(1, 15), (2, 9), (3, 7)])
def test_eigenpair_residuals_match_per_mode_check(monkeypatch, n, m, tampered):
    # a multiplier commutes with every shift, so the certificate's
    # eigenvalue errors are the residuals themselves; a wrong symbol makes
    # every one nonzero and mode-dependent, which also checks that they
    # come back in storage order
    symbol = resolvent_symbol()
    if tampered:
        symbol = MultiplierSymbol("resolvent", of_norm_sq=lambda k: 1.0 / (2.0 + k))
        monkeypatch.setattr(spectral_mod, "resolvent_symbol", lambda: symbol)
    grid = TorusGrid(n, m)
    certificate = resolvent_certificate(grid, seed=1)
    expected = per_mode_residuals(grid, symbol)
    assert certificate.eigenvalue_error.shape == (grid.size,)
    assert np.max(np.abs(certificate.eigenvalue_error - expected)) <= 1e-15
    assert np.max(certificate.commutator) <= spectral_mod.CERTIFICATE_TOL
    assert (np.max(expected) > 0.01) == tampered
    assert certificate_passes(grid) == (np.max(expected) <= 1e-12) == (not tampered)


def test_resolvent_singular_values_equal_flattened_spectrum():
    # every level k <= box_radius^2 is fully represented inside the box
    grid = TorusGrid(2, 9)
    cap = grid.box_radius**2
    flat = []
    for eig, mult in _rows(spectra(2, cap)["resolvent"]):
        flat.extend([eig] * mult)
    got = singular_values(resolvent_symbol(), grid, len(flat))
    assert got == flat


def brute_top_symbol_values(n, h, cutoff, count):
    vals = sorted(
        (
            1.0 / (1.0 + sum(x * x for x in xi))
            for xi in itertools.product(range(-h, h + 1), repeat=n)
            if sum(x * x for x in xi) >= (cutoff + 1) ** 2
        ),
        reverse=True,
    )
    return vals[:count]


def test_tail_top_singular_value_attains_the_law():
    # the largest tail magnitude over the box is the exact error value
    grid = TorusGrid(2, 11)
    for cutoff in (0, 1, 2, 3):
        top = singular_values(resolvent_tail_symbol(cutoff), grid, 1)[0]
        assert top == truncation_error_exact(cutoff)
        oracle = brute_top_symbol_values(2, grid.box_radius, cutoff, 1)[0]
        assert top == oracle


def _norm_runs(cutoffs):
    return [resolvent_symbol(), *(resolvent_tail_symbol(k) for k in cutoffs)]


@pytest.mark.parametrize("n, m, widest", [(2, 9, 5), (3, 9, 5), (3, 15, 2)],
                         ids=["2-9", "3-9", "3-15-split"])
def test_lockstep_estimates_are_the_single_runs_bit_for_bit(monkeypatch, n, m, widest):
    # the resolvent and its tails N = 0..3 in lockstep; at 3-D M=15 (3375
    # points) the points budget holds two runs per stack, so the five runs
    # go as stacks of 2, 2 and 1
    grid = TorusGrid(n, m)
    symbols = _norm_runs(range(4))
    single = [operator_norm_power_iteration(s, grid, tol=1e-9, seed=3) for s in symbols]
    widths = []
    inverse = transform_mod.inverse

    def counted(c):
        # every Lanczos apply is a stack of the runs still going
        widths.append(len(c.coefficients))
        return inverse(c)

    monkeypatch.setattr(transform_mod, "inverse", counted)
    assert operator_norm_power_iteration(symbols, grid, tol=1e-9, seed=3) == single
    assert max(widths) == widest
    assert operator_norm_power_iteration([], grid) == []


def test_lockstep_storage_grows_with_the_steps_taken(monkeypatch):
    # under a cap of 2**20 steps, T_j's storage sized by the cap would hold
    # 2 * 5 * 2**20 floats (80 MiB); the runs stop within a few dozen steps
    grid = TorusGrid(2, 9)
    symbols = _norm_runs(range(4))
    expected = operator_norm_power_iteration(symbols, grid, tol=1e-9, seed=3)
    monkeypatch.setattr(spectral_mod, "_step_cap", lambda squares: 2**20)
    tracemalloc.start()
    try:
        assert operator_norm_power_iteration(symbols, grid, tol=1e-9, seed=3) == expected
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_lockstep_raises_for_the_first_run_that_does_not_converge(monkeypatch):
    # the identity stops at step 1 (its Krylov space is invariant); the
    # tail's run then fails as it fails alone, and the later tail's never
    # shows
    monkeypatch.setattr(spectral_mod, "_step_cap", lambda squares: 2)
    grid = TorusGrid(2, 21)
    with pytest.raises(LanczosError) as alone:
        operator_norm_power_iteration(resolvent_tail_symbol(8), grid, tol=1e-14, seed=0)
    with pytest.raises(LanczosError) as lockstep:
        operator_norm_power_iteration(
            [identity_symbol(), resolvent_tail_symbol(8), resolvent_tail_symbol(1)],
            grid, tol=1e-14, seed=0)
    assert str(lockstep.value) == str(alone.value)
