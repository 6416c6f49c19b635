"""Faults planted below `verify`'s checks, each on one binding that a check
calls into and never inside a check, and the fault x group table of the
groups that catch them.

`failed_groups` plants one fault of the catalogue `FAULTS` alone and runs
`checks.verify` with seed 1 on one grid of `GRIDS`.  `fault_table` lays
out those runs for every fault and grid; the table is committed as
``scripts/fault_matrix.txt``, which `scripts/fault_matrix.py` regenerates.
One test compares the two whole; the others state, from `ONE_GROUP_FAULTS`,
`SPREAD_FAULTS` and the faults' kinds, which groups must catch a fault, so
that a regenerated table cannot quietly drop what the catalogue means."""

import functools
from pathlib import Path

import numpy as np
import pytest

from toruskit import MultiplierSymbol, TorusGrid, checks, cli
from toruskit import embedding as embedding_mod
from toruskit import operators as operators_mod
from toruskit import solver as solver_mod
from toruskit import spectral as spectral_mod
from toruskit import transform as transform_mod


def _symbol_off_at_one_mode(monkeypatch):
    # the cached |xi|^2 array, wrong at the last stored mode, xi = (-1, ...,
    # -1), by just enough to move the resolvent there by 1e-9
    exact = operators_mod.norm_sq_array

    def faulty(grid):
        k = exact(grid).copy()
        last = (-1,) * grid.dimension
        k[last] = 1.0 / (1.0 / (1.0 + k[last]) - 1e-9) - 1.0
        return k

    monkeypatch.setattr(operators_mod, "norm_sq_array", faulty)


def _resolvent_one_over_two_plus_k(monkeypatch):
    wrong = MultiplierSymbol("resolvent", of_norm_sq=lambda k: 1.0 / (2.0 + k))
    monkeypatch.setattr(spectral_mod, "resolvent_symbol", lambda: wrong)


def _forward_scaled(monkeypatch):
    # every field that forward returns, alone or in a stack, is off by 1e-9
    exact = transform_mod.forward

    def faulty(u):
        c = exact(u)
        c.coefficients *= 1 + 1e-9
        return c

    monkeypatch.setattr(transform_mod, "forward", faulty)


def _inverse_off_at_one_point(monkeypatch):
    # every field that inverse returns, alone or in a stack, is off at its
    # last point: the index runs over the trailing axes
    exact = transform_mod.inverse

    def faulty(c):
        u = exact(c)
        u.values[(..., *(-1,) * u.grid.dimension)] += 1e-9
        return u

    monkeypatch.setattr(transform_mod, "inverse", faulty)


def _frequency_labels_off_by_one_mode(monkeypatch):
    # the analysis stores each coefficient one index early along the last
    # axis and the synthesis reads it from there, so round trips still hold
    # and only the frequency labels are wrong
    analysis, synthesis = transform_mod._analysis, transform_mod._synthesis
    monkeypatch.setattr(transform_mod, "_analysis",
                        lambda values, n: np.roll(analysis(values, n), -1, axis=-1))
    monkeypatch.setattr(transform_mod, "_synthesis",
                        lambda coefficients, n: synthesis(np.roll(coefficients, 1, axis=-1), n))


def _synthesis_modulated(monkeypatch):
    # multiplies every synthesized field by 1 + 1e-9 sin(x_1), which no
    # translation commutes with
    exact = transform_mod._synthesis

    def faulty(coefficients, n):
        m = coefficients.shape[-1]
        weight = 1 + 1e-9 * np.sin(2 * np.pi * np.arange(m) / m)
        return exact(coefficients, n) * weight.reshape((m,) + (1,) * (n - 1))

    monkeypatch.setattr(transform_mod, "_synthesis", faulty)


def _axis_table_root_off(monkeypatch):
    # the direct-sum oracle's axis table holds the root exp(sign 2 pi i / M)
    # off by 1e-9 wherever the phase is 1 mod M
    exact = transform_mod._axis_blocks

    def faulty(outputs, inputs, sign):
        m = len(inputs)
        for rows, table in exact(outputs, inputs, sign):
            at_one = np.multiply.outer(outputs[rows], inputs) % m == 1
            yield rows, np.where(at_one, table + 1e-9, table)

    monkeypatch.setattr(transform_mod, "_axis_blocks", faulty)


def _truncation_keeps_its_boundary(monkeypatch):
    # the truncation symbols keep |xi|^2 = (N+1)^2 too, so each resolvent
    # tail loses its largest eigenvalue 1/((N+1)^2+1)
    monkeypatch.setattr(operators_mod, "kept_by_truncation",
                        lambda k, cutoff: k <= operators_mod.tail_min_norm_sq(cutoff))


def _second_ritz_value(monkeypatch):
    # Lanczos reads the second largest Ritz value of T_j, and the last
    # component of its eigenvector, wherever T_j has two
    def faulty(tridiagonals):
        ritz, vectors = np.linalg.eigh(tridiagonals)
        second = -2 if tridiagonals.shape[-1] > 1 else -1
        return ritz[:, second], vectors[:, -1, second]

    monkeypatch.setattr(spectral_mod, "_top_ritz", faulty)


def _h1_norm_without_weight(monkeypatch):
    # the embedding's H^1 norms drop the weight (1 + |xi|^2)
    exact = embedding_mod.sobolev_norm_sq
    monkeypatch.setattr(embedding_mod, "sobolev_norm_sq", lambda c, order: exact(c, 0.0))


def _cutoff_always_zero(monkeypatch):
    monkeypatch.setattr(embedding_mod, "required_cutoff", lambda h1_bound, eps: 0)


def _distances_understated(monkeypatch):
    # the extraction reads every distance to a cluster leader 20 times too
    # short, so far items join a cluster
    exact = embedding_mod._distances
    monkeypatch.setattr(embedding_mod, "_distances", lambda rows, vec: exact(rows, vec) / 20)


def _oracle_distances_overstated(monkeypatch):
    # the direct pairwise oracle reads every distance 20 times too long, so
    # a close subfamily seems to exceed eps
    exact = embedding_mod.pairwise_l2_distances
    monkeypatch.setattr(embedding_mod, "pairwise_l2_distances",
                        lambda seq, indices: [20 * d for d in exact(seq, indices)])


def _stack_reduced_to_its_first_field(monkeypatch):
    # the one reduction gives every field of a stack the first field's sum
    exact = transform_mod._inner

    def faulty(a, b, dimension):
        sums = exact(a, b, dimension)
        return sums if np.ndim(sums) == 0 else np.repeat(sums[:1], len(sums))

    monkeypatch.setattr(transform_mod, "_inner", faulty)


def _inner_drops_imaginary_products(monkeypatch):
    # the one reduction sums the products of the real parts alone
    exact = transform_mod._inner
    monkeypatch.setattr(transform_mod, "_inner", lambda a, b, dimension: exact(
        np.real(a) + 0j, np.real(b) + 0j, dimension))


def _field_sums_of_field_0(monkeypatch):
    # the one sum gives every field of a stack the first field's sum: each
    # inner product, norm and extraction distance of a stack reads field 0's
    exact = transform_mod._field_sums

    def faulty(values, dimension):
        sums = exact(values, dimension)
        return sums if np.ndim(sums) == 0 else np.repeat(sums[:1], len(sums))

    monkeypatch.setattr(transform_mod, "_field_sums", faulty)


def _field_sums_drop_last_term(monkeypatch):
    # the one sum leaves out the last term of each sum: every norm and inner
    # product misses one point or mode, and Lanczos's normal operator is no
    # longer the one it is given
    exact = transform_mod._field_sums

    def faulty(values, dimension):
        return exact(values, dimension) - values[(..., *(-1,) * dimension)]

    monkeypatch.setattr(transform_mod, "_field_sums", faulty)


def _cg_residual_understated(monkeypatch):
    # CG reports a tenth of the true residual it computed
    exact = solver_mod._pcg

    def faulty(*args):
        u, residual_l2, iterations = exact(*args)
        return u, residual_l2 / 10, iterations

    monkeypatch.setattr(solver_mod, "_pcg", faulty)


FAULTS = {
    "symbol-1e-9-at-one-mode": _symbol_off_at_one_mode,
    "resolvent-1/(2+k)": _resolvent_one_over_two_plus_k,
    "forward-scaled-1+1e-9": _forward_scaled,
    "inverse-off-at-one-point": _inverse_off_at_one_point,
    "frequency-labels-off-by-one-mode": _frequency_labels_off_by_one_mode,
    "synthesis-not-translation-invariant": _synthesis_modulated,
    "axis-table-root-off-1e-9": _axis_table_root_off,
    "truncation-keeps-k=(N+1)^2": _truncation_keeps_its_boundary,
    "lanczos-second-ritz-value": _second_ritz_value,
    "h1-norm-without-weight": _h1_norm_without_weight,
    "extraction-cutoff-0": _cutoff_always_zero,
    "extraction-distances-understated-20x": _distances_understated,
    "extraction-oracle-overstated-20x": _oracle_distances_overstated,
    "stack-inner-products-of-field-0": _stack_reduced_to_its_first_field,
    "inner-drops-imaginary-products": _inner_drops_imaginary_products,
    "field-sums-of-field-0": _field_sums_of_field_0,
    "field-sums-drop-last-term": _field_sums_drop_last_term,
    "cg-residual-understated-10x": _cg_residual_understated,
}
# Faults that one group alone catches, and that group; every other fault
# lies in the transforms or the symbols.
ONE_GROUP_FAULTS = {
    "truncation-keeps-k=(N+1)^2": "operator-norms",
    "lanczos-second-ritz-value": "operator-norms",
    "h1-norm-without-weight": "tail-bounds",
    "extraction-cutoff-0": "rellich-extraction",
    "extraction-distances-understated-20x": "rellich-extraction",
    "extraction-oracle-overstated-20x": "rellich-extraction",
    "stack-inner-products-of-field-0": "operator-norms",
    "inner-drops-imaginary-products": "transform-roundtrip-plancherel",
    "cg-residual-understated-10x": "solver-agreement",
}
# Faults that neither resolvent-eigenpairs nor one group alone catches, and
# the groups that catch them on every grid.
SPREAD_FAULTS = {
    "field-sums-of-field-0": ["operator-norms", "rellich-extraction"],
    "field-sums-drop-last-term": ["transform-roundtrip-plancherel", "operator-norms"],
}
# 1-D M=15, 2-D M=9 and 3-D M=9, as (dimension, points)
GRIDS = [(1, 15), (2, 9), (3, 9)]


@functools.cache
def failed_groups(fault: str, n: int, m: int) -> list[str]:
    """The groups, in `checks.GROUPS` order, that fail one `checks.verify`
    run with seed 1 on the n-D M=m grid while `fault` alone is planted.
    Each (fault, grid) is run once per session; the table and the tests
    below read the same runs."""
    with pytest.MonkeyPatch.context() as monkeypatch:
        FAULTS[fault](monkeypatch)
        results = checks.verify(TorusGrid(n, m), seed=1)
    return [r.name for r in results if r.failures]


def fault_table() -> tuple[str, list[str]]:
    """The fault x group table, and each fault with a grid on which no
    group catches it.  A row is a fault, a column a group, and a cell holds
    one letter per grid of `GRIDS` in that order: P for PASS, F for FAIL."""
    names = [name for name, _ in checks.GROUPS]
    width = max(map(len, FAULTS))
    grids = ", ".join(f"{n}-D M={m}" for n, m in GRIDS)
    lines = [
        "groups: " + ", ".join(f"{i} {name}" for i, name in enumerate(names, 1)),
        f"cells: the verdicts at {grids} (P pass, F fail)",
        "fault".ljust(width) + "".join(f"  {i:<3}" for i in range(1, len(names) + 1)).rstrip(),
    ]
    uncaught = []
    for fault in FAULTS:
        runs = []
        for n, m in GRIDS:
            failed = failed_groups(fault, n, m)
            runs.append("".join("F" if name in failed else "P" for name in names))
            if not failed:
                uncaught.append(f"{fault} at {n}-D M={m}")
        lines.append(fault.ljust(width) + "".join(f"  {''.join(cell)}" for cell in zip(*runs)))
    return "\n".join(lines) + "\n", uncaught


def test_every_fault_is_caught_as_the_committed_table_says():
    text, uncaught = fault_table()
    assert uncaught == []
    committed = Path(__file__).resolve().parent.parent / "scripts" / "fault_matrix.txt"
    assert text == committed.read_text()


@pytest.mark.parametrize("n, m", GRIDS)
@pytest.mark.parametrize(
    "fault", [f for f in FAULTS if f not in ONE_GROUP_FAULTS and f not in SPREAD_FAULTS])
def test_every_planted_fault_fails_resolvent_eigenpairs(fault, n, m):
    assert "resolvent-eigenpairs" in failed_groups(fault, n, m)


@pytest.mark.parametrize("n, m", GRIDS)
@pytest.mark.parametrize("fault", list(SPREAD_FAULTS))
def test_spread_faults_fail_their_groups(fault, n, m):
    assert set(SPREAD_FAULTS[fault]) <= set(failed_groups(fault, n, m))


@pytest.mark.parametrize("n, m", GRIDS)
@pytest.mark.parametrize("fault", list(ONE_GROUP_FAULTS))
def test_one_group_faults_fail_their_group_alone(fault, n, m):
    assert failed_groups(fault, n, m) == [ONE_GROUP_FAULTS[fault]]


@pytest.mark.parametrize("n, m", GRIDS)
@pytest.mark.parametrize("fault", ["forward-scaled-1+1e-9", "inverse-off-at-one-point"])
def test_public_pair_faults_fail_solver_agreement(fault, n, m):
    # CG and the multiplier solve apply their operators through the public
    # transform pair, looked up at call time
    assert "solver-agreement" in failed_groups(fault, n, m)


@pytest.mark.parametrize("n, m", GRIDS)
def test_an_oracle_fault_fails_the_two_oracle_groups_alone(n, m):
    # only fast-vs-naive-transform and resolvent-eigenpairs take direct sums
    assert failed_groups("axis-table-root-off-1e-9", n, m) == [
        "fast-vs-naive-transform", "resolvent-eigenpairs"]


@pytest.mark.parametrize("n, m", GRIDS)
def test_a_lanczos_fault_fails_truncate(monkeypatch, tmp_path, capsys, n, m):
    # truncate checks the same law as operator-norms, through the same runs
    FAULTS["lanczos-second-ritz-value"](monkeypatch)
    argv = ["truncate", "--dimension", str(n), "--points", str(m), "--truncation", "2",
            "--seed", "1", "--output", str(tmp_path / "t.csv")]
    assert cli.main(argv) == 1
    assert capsys.readouterr().err.startswith("check failed: N=0: |exact - lanczos| = ")
