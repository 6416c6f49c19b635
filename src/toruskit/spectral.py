"""Spectra of the Laplacian and its resolvent, operator-norm estimation,
the resolvent eigenpair certificate, and singular-value decay.

The Fourier modes diagonalize every multiplier, so spectra reduce to lattice
level counts: `spectra` tables the Laplacian eigenvalues k = |xi|^2 and the
resolvent eigenvalues 1/(1+k), each with the lattice multiplicity of k, as
columns from one count.  The operator norm of any multiplier is sup |sigma|
over the box; the Lanczos estimator below re-derives it through the full
transform pipeline without assuming diagonality, which is what makes it a
genuine cross-check.  It holds three vectors per run, whatever the number
of steps, and runs the estimates of several symbols in lockstep on one
stack of fields, a (runs, *grid.shape) array, so that each step is one
stacked round trip for all of them.  `resolvent_certificate` checks every
eigenpair of the resolvent, as the transforms apply it, from one impulse
response summed without an FFT and a few random probes of its commutators
with the unit shifts, all applied as one stack of fields, in place of one
round trip per mode.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from . import transform
from .lattice import levels_up_to, tail_min_norm_sq
from .operators import MultiplierSymbol, apply_multiplier, resolvent_symbol, symbol_array
from .transform import GridField, TorusGrid, random_field


def spectra(n: int, cap: int) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """Eigenvalue levels k <= cap on the n-torus, from one lattice count.

    Each operator maps to its column pair (eigenvalues, multiplicities):
    "laplacian" holds float64 k, ascending; "resolvent" holds float64
    1/(1+k), descending in (0, 1], each correctly rounded like Python's
    1.0 / (1 + k).  Both share one multiplicity column, int64 or an object
    array of Python ints as `levels_up_to` returns it.
    """
    levels = levels_up_to(n, cap)
    k = levels[:, 0].astype(np.float64)
    multiplicities = levels[:, 1]
    return {"laplacian": (k, multiplicities), "resolvent": (1.0 / (1.0 + k), multiplicities)}


def truncation_error_exact(cutoff: int) -> float:
    """Operator norm of resolvent minus its cutoff-N truncation: 1/((N+1)^2+1).

    Exact on the full lattice: the discarded tail starts at squared norm
    (N+1)^2, attained by (N+1, 0, ..., 0), where the resolvent symbol takes
    this value.
    """
    return 1.0 / (tail_min_norm_sq(cutoff) + 1)


class LanczosError(RuntimeError):
    """Lanczos reached its step cap (`_step_cap`) before its top Ritz pair met tol."""


def operator_norm_power_iteration(
    symbol: MultiplierSymbol | Sequence[MultiplierSymbol],
    grid: TorusGrid,
    tol: float = 1e-10,
    seed: int = 0,
) -> float | list[float]:
    """Estimate the l2 -> l2 norm of the multiplier on the stored box.

    Runs the Lanczos three-term recurrence on the normal operator (symbol
    squared, evaluated once) with every application made by
    `operators.apply_multiplier`, the round trip through the public
    forward/inverse transform pair, so the estimate does not reuse the
    diagonal shortcut it is checking.  The start vector is seeded
    pseudo-random with support on all modes.  Only three vectors are held
    per run: no Lanczos basis is kept and none is reorthogonalized.
    Each step is one operator application.

    After step j the top Ritz pair (theta, s) of the tridiagonal T_j has the
    residual beta_j |s_j|, and the loop stops when beta_j |s_j| <= tol *
    sqrt(theta), or when beta_j == 0 (the Krylov space is invariant; the
    zero symbol returns 0.0).  A stop certifies that the estimate sqrt(theta)
    is within tol of the square root of *some* eigenvalue of the normal
    operator, that is of some |sigma(xi)|, up to the O(eps ||B|| j) rounding
    term of Paige's analysis of the recurrence (Paige 1980); that it is the
    largest, the norm, is what the check against the exact law
    1/((N+1)^2+1) confirms.  The pair comes from a dense eigh of T_j, taken
    every step while j < 32 and then every j // 16 steps, so the check stays
    a small share of the work.  Deterministic given the seed.

    Given a sequence of symbols rather than one, returns the list of their
    estimates, each bit for bit the symbol's own.  The runs share the seed's
    start vector and go in lockstep on one stack of fields: per step one
    stacked apply and one `transform._inner` each for the alphas and betas,
    one stacked eigh (the one LAPACK call) over the runs due for a check,
    and a run leaves the stack when it stops.  A stack spans at most
    `transform._STACK_POINTS` grid points per vector (one run on a larger
    grid), and the stacks go one after another.  No parameter bounds the
    steps: in exact arithmetic a run's Krylov space is used up within d
    steps, d the number of distinct values of its stack's squared symbols,
    so a stack stops at 2 d steps (`_step_cap`) and raises `LanczosError`
    for its first run still going.  d is 4096 for the resolvent at 1-D
    M=8191, where a run that goes on to the cap pays O(j^3) per check.

    A symbol whose square overflows is refused with `NonFiniteError`
    before any transform.  The stop bounds the estimate's error absolutely,
    by tol; with a gap g below the top eigenvalue theta of the normal
    operator it is at most about tol^2 sqrt(theta) / (2 g) (Kahan and
    Parlett), so runs whose tops are of order 1 and isolated by a gap of
    order theta converge to near rounding in a few steps.  That is how
    `checks.check_norm_law` runs it: on a scaled power of each resolvent
    tail, whose top is at least 10^(-1/2) and whose next value is at most
    e^-1 times the top, in place of the tail, whose relative gap is about
    2/(N+1)^2 and which takes O(N) steps.

    The name, and the `power_iteration_error` column of `truncate`'s table,
    outlived the power iteration they were named for: perfbench's norm-law
    check reads that column, and its layer sets time this function by name.
    """
    if not 0 < tol < math.inf:
        raise ValueError(f"tol must be finite and positive, got {tol}")
    symbols = [symbol] if isinstance(symbol, MultiplierSymbol) else list(symbol)
    estimates = []
    for block in transform._stack_blocks(len(symbols), grid.size):
        estimates += _lockstep_lanczos(symbols[block], grid, tol, seed)
    return estimates[0] if isinstance(symbol, MultiplierSymbol) else estimates


def _top_ritz(tridiagonals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(theta, s) of each symmetric tridiagonal of a (runs, j, j) stack, from
    one stacked eigh: its largest eigenvalue, and the last component of
    that eigenvalue's unit eigenvector."""
    ritz, vectors = np.linalg.eigh(tridiagonals)
    return ritz[:, -1], vectors[:, -1, -1]


def _step_cap(squares: np.ndarray) -> int:
    """Twice the number of distinct values of the squared symbols."""
    return 2 * len(np.unique(squares))


def _lockstep_lanczos(symbols, grid: TorusGrid, tol: float, seed: int) -> list[float]:
    """`operator_norm_power_iteration` of each symbol, in lockstep on one
    stack.  Row r of each stack belongs to the run runs[r], and goes with
    its squared symbol and its T_j when the run stops: tj[r, 0, :j] holds
    T_j's alphas and tj[r, 1, :j - 1] its betas, in storage that doubles as
    the steps outgrow it, up to the cap."""
    squares = np.empty((len(symbols), *grid.shape))
    for symbol, square in zip(symbols, squares):
        with np.errstate(over="ignore"):
            np.square(symbol_array(symbol, grid), out=square)
        if not np.all(np.isfinite(square)):
            raise transform.NonFiniteError(
                f"symbol {symbol.name!r} has a square that overflows on the box")
    cap = _step_cap(squares)
    runs = np.arange(len(symbols))
    start = random_field(grid, np.random.default_rng(seed)).values
    start /= math.sqrt(transform._inner(start, start, grid.dimension))
    v = np.repeat(start[np.newaxis], len(runs), axis=0)
    del start  # the runs hold three vectors each and no other
    column = (-1,) + (1,) * grid.dimension  # one value per run
    v_prev = None
    tj = np.zeros((len(runs), 2, 0))
    estimates = np.zeros(len(runs))
    next_check = 1
    for step in range(1, cap + 1):
        if step > tj.shape[2]:
            grown = np.zeros((len(runs), 2, min(2 * step, cap) - tj.shape[2]))
            tj = np.concatenate((tj, grown), axis=2)
        w = apply_multiplier(grid, squares, v)
        # beta_{j-1} v_{j-1} comes off before alpha_j is taken, the ordering
        # that Paige's analysis covers
        if v_prev is not None:
            w -= np.reshape(beta, column) * v_prev
        alpha = transform._inner(v, w, grid.dimension)
        w -= np.reshape(alpha, column) * v
        beta = np.sqrt(transform._inner(w, w, grid.dimension))
        tj[:, 0, step - 1] = alpha
        due = np.flatnonzero((beta == 0.0) | (step in (next_check, cap)))
        if step == next_check:
            next_check = step + max(1, step // 16)
        if len(due):
            # the diagonals of every due run at once
            tridiagonals = np.zeros((len(due), step, step))
            index = np.arange(step)
            tridiagonals[:, index, index] = tj[due, 0, :step]
            tridiagonals[:, index[1:], index[:-1]] = tj[due, 1, :step - 1]
            thetas, last = _top_ritz(tridiagonals)
            # some eigenvalue lambda of the normal operator lies within the
            # residual of theta, so |sqrt(theta) - sqrt(lambda)| <= residual
            # / sqrt(theta)
            residual = beta[due] * np.abs(last)
            estimates[runs[due]] = np.sqrt(np.maximum(thetas, 0.0))
            going = np.ones(len(runs), dtype=bool)
            going[due] = ~((beta[due] == 0.0) | (residual <= tol * estimates[runs[due]]))
            if not going.any():
                return estimates.tolist()
            if not going.all():
                runs, squares, tj, v, w, beta = (a[going] for a in (runs, squares, tj, v, w, beta))
        tj[:, 1, step - 1] = beta
        w /= np.reshape(beta, column)
        v_prev, v = v, w
    raise LanczosError(f"Lanczos did not reach tol={tol} within {cap} steps "
                       f"(last estimate {float(estimates[runs[0]])})")


def singular_values(
    symbol: MultiplierSymbol, grid: TorusGrid, count: int
) -> list[float]:
    """The `count` largest |sigma(xi)| over the box, descending with multiplicity.

    For symbols vanishing at frequency infinity this sequence decays to zero,
    which is the finite certificate of compactness; for the identity it is
    constantly one, the non-compact contrast case.
    """
    if count < 0 or count > grid.size:
        raise ValueError(
            f"count must be between 0 and the box size {grid.size}, got {count}"
        )
    mags = np.sort(np.abs(symbol_array(symbol, grid)).ravel())[::-1]
    return [float(x) for x in mags[:count]]


# Both checks of `resolvent_certificate` hold to this tolerance: the
# eigenvalue error absolutely, the shift commutator relative to the probe.
CERTIFICATE_TOL = 1e-12
# The certificate states the chance that a shift commutator of at least
# this operator norm passes all of its probes.
COMMUTATOR_FLOOR = 1e-9
# Complex Gaussian probes, shared by the unit shifts of every axis.
_PROBES = 3


@dataclass(frozen=True)
class ResolventCertificate:
    """What `resolvent_certificate` measured.

    eigenvalue_error[i] = |lambda(xi) - 1/(1+|xi|^2)| for the i-th mode in
    storage order, that of `grid.frequencies()` (numpy's FFT order along
    each axis); commutator[j, p] = ||T S_j r_p - S_j T r_p|| / ||r_p||;
    miss_probability bounds the chance that some ||[T, S_j]|| >=
    COMMUTATOR_FLOOR passes every probe.
    """

    eigenvalue_error: np.ndarray
    commutator: np.ndarray
    miss_probability: float


def resolvent_certificate(grid: TorusGrid, seed: int) -> ResolventCertificate:
    """Certify the eigenpairs (psi_xi, 1/(1+|xi|^2)) of T u = inverse(sigma *
    forward(u)), sigma the resolvent symbol, without one round trip per mode.

    T is `operators.apply_multiplier`, which looks up the public
    `transform.forward`/`transform.inverse` at call time, so a fault planted
    in either shows here.  Every field that T meets goes through it in
    one call, as one stack of 1 + _PROBES (1 + n) fields that T takes under
    its stack budget: delta_0, the probes r and their shifts S_j r.
    (a) From the impulse response kappa = T delta_0, lambda(xi) = M^n
    naive_forward(kappa)(xi) comes for every xi from one FFT-free direct
    sum; eigenvalue_error compares it with 1/(1+|xi|^2), |xi|^2 taken from
    the integer frequency rows.  (b) _PROBES complex Gaussian probes r,
    drawn from the seed, measure ||T S_j r - S_j T r|| / ||r|| for each
    axis j, S_j the unit shift np.roll(., 1, axis=j), which needs no
    transform (Freivalds 1977).

    What they prove, for a linear T.  If T commutes exactly with every S_j,
    it is the cyclic convolution with kappa, so T psi_xi = lambda(xi) psi_xi
    and eigenvalue_error is exactly each eigenpair residual ||T psi -
    psi/(1+|xi|^2)|| / ||psi||.  If only ||[T, S_j]|| <= gamma for every j,
    then T psi - lambda psi = sum_m psi(m) [T, S^m] delta_0, where ||[T,
    S^m]|| <= |m| gamma and |m| = sum_j min(m_j, M - m_j) counts the unit
    shifts that make S^m; so each residual is at most eigenvalue_error +
    sqrt(N) w gamma, with N = M^n grid points and w = n h (h + 1) / M the
    mean |m|, h the box radius.  A commutator E = [T, S_j] with ||E|| >=
    gamma passes one probe only if the probe's direction r / ||r||, uniform
    on the complex sphere, has |<v, r>|^2 / ||r||^2 <= (CERTIFICATE_TOL /
    gamma)^2 along E's top right singular vector v: a small ball of the
    Beta(1, N - 1) law, of probability 1 - (1 - (CERTIFICATE_TOL /
    gamma)^2)^(N - 1).  So, over the draw of the probes for a T fixed
    beforehand, some ||[T, S_j]|| >= COMMUTATOR_FLOOR passes all of them
    with probability at most n times that probability to the power
    _PROBES: miss_probability.  The checks claim nothing more.

    An affine defect, T u = L u + b, adds b - S_j b to each commutator
    whatever the probe, nonzero unless b is constant, and a constant b
    moves lambda(0) by M^n b.  Adding 1e-6 to one coefficient of `forward`
    gives b = 1e-6 sigma(xi') psi_xi', which both checks see.
    Deterministic given the seed.
    """
    n = grid.dimension
    impulse = np.zeros(grid.shape, dtype=np.complex128)
    impulse[(0,) * n] = 1.0
    probes = transform._random_values(grid, np.random.default_rng(seed), _PROBES)
    # T delta_0, then T r_p, then T S_j r_p
    responses = apply_multiplier(grid, symbol_array(resolvent_symbol(), grid), np.stack(
        [impulse, *probes, *(np.roll(r, 1, axis=j) for r in probes for j in range(n))]))
    kappa = GridField(grid, responses[0])
    eigenvalues = grid.size * transform.naive_forward(kappa).coefficients.ravel()
    norm_sq = np.sum(transform._frequency_vectors(grid) ** 2, axis=1)
    eigenvalue_error = np.abs(eigenvalues - 1.0 / (1.0 + norm_sq))

    # row p * n + j of the gaps is T S_j r_p - S_j T r_p
    gaps = responses[1 + _PROBES:] - np.stack(
        [np.roll(t_r, 1, axis=j) for t_r in responses[1:1 + _PROBES] for j in range(n)])
    commutator = np.sqrt(transform._inner(gaps, gaps, n).reshape(_PROBES, n)
                         / transform._inner(probes, probes, n)[:, np.newaxis]).T
    small_ball = -math.expm1(
        (grid.size - 1) * math.log1p(-((CERTIFICATE_TOL / COMMUTATOR_FLOOR) ** 2))
    )
    return ResolventCertificate(
        eigenvalue_error, commutator, min(1.0, n * small_ball**_PROBES)
    )
