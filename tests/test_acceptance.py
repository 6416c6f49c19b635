"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import itertools
import time

import numpy as np

from toruskit import (
    TorusGrid,
    MultiplierSymbol,
    cli,
    forward,
    grid_l2_norm,
    identity_symbol,
    naive_forward,
    naive_inverse,
    inverse,
    operator_norm_power_iteration,
    pairwise_l2_distances,
    plancherel_defect,
    random_bounded_sequence,
    random_field,
    rellich_extract,
    resolvent_certificate,
    resolvent_symbol,
    resolvent_tail_symbol,
    singular_values,
    solve_cg,
    solve_multiplier,
    spectra,
    tail_bound_check,
    truncation_error_exact,
)
from toruskit import spectral as spectral_mod

from conftest import per_mode_residuals, random_spectral


def _report(criterion: str, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


def test_criterion_01_truncation_error_law():
    start = time.perf_counter()
    worst = 0.0
    for n in (1, 2, 3):
        for cutoff in range(9):
            grid = TorusGrid(n, 2 * (cutoff + 2) + 1)  # box radius cutoff + 2
            est = operator_norm_power_iteration(
                resolvent_tail_symbol(cutoff), grid, tol=1e-9, seed=7
            )
            worst = max(worst, abs(est - truncation_error_exact(cutoff)))
    elapsed = time.perf_counter() - start
    _report(
        "criterion 1 (truncation-error law)",
        worst <= 1e-8 and elapsed < 30.0,
        f"worst |power-iteration - 1/((N+1)^2+1)| = {worst:.2e} over 27 cases "
        f"in {elapsed:.1f}s",
    )


def test_criterion_02_resolvent_norm_is_one():
    est = operator_norm_power_iteration(
        resolvent_symbol(), TorusGrid(2, 9), tol=1e-9, seed=11
    )
    _report(
        "criterion 2 (resolvent norm)",
        abs(est - 1.0) <= 1e-8,
        f"power-iteration norm = {est!r}",
    )


def test_criterion_03_plancherel():
    worst = 0.0
    cases = 0
    for n in (1, 2, 3):
        for m in (5, 9, 27):
            if m**n > 3**9:
                continue
            grid = TorusGrid(n, m)
            rng = np.random.default_rng(1000 * n + m)
            for _ in range(100):
                u = random_field(grid, rng)
                worst = max(worst, plancherel_defect(u, forward(u)))
                cases += 1
    _report(
        "criterion 3 (Plancherel)",
        worst <= 1e-12,
        f"worst defect {worst:.2e} over {cases} seeded fields",
    )


def test_criterion_04_eigenpairs(monkeypatch):
    grid = TorusGrid(2, 9)
    verdicts = []
    for symbol in (resolvent_symbol(),
                   MultiplierSymbol("resolvent", of_norm_sq=lambda k: 1.0 / (2.0 + k))):
        monkeypatch.setattr(spectral_mod, "resolvent_symbol", lambda s=symbol: s)
        certificate = resolvent_certificate(grid, seed=1)
        worst = max(np.max(certificate.eigenvalue_error), np.max(certificate.commutator))
        verdicts.append((worst <= spectral_mod.CERTIFICATE_TOL,
                         np.max(per_mode_residuals(grid, symbol)) <= 1e-12))
    _report(
        "criterion 4 (eigenpairs)",
        verdicts == [(True, True), (False, False)],
        f"certificate and per-mode residuals over {grid.size} modes agree: "
        f"pass on the resolvent, fail on 1/(2+k)",
    )


def test_criterion_05_spectrum_multiplicities():
    cap = 25
    scan: dict[int, int] = {}
    for xi in itertools.product(range(-5, 6), repeat=2):
        k = xi[0] ** 2 + xi[1] ** 2
        if k <= cap:
            scan[k] = scan.get(k, 0) + 1
    eigenvalues, multiplicities = spectra(2, cap)["laplacian"]
    got = dict(zip(map(int, eigenvalues.tolist()), multiplicities.tolist()))
    absent = sorted(set(range(cap + 1)) - set(scan))
    _report(
        "criterion 5 (spectrum multiplicities)",
        got == scan and 7 in absent,
        f"{len(got)} levels match brute-force scan; absent levels {absent}",
    )


def test_criterion_06_compactness_certificate():
    grid = TorusGrid(2, 9)
    cap = grid.box_radius**2
    flat = []
    for k in range(cap + 1):
        mult = sum(
            1
            for xi in itertools.product(range(-4, 5), repeat=2)
            if xi[0] ** 2 + xi[1] ** 2 == k
        )
        flat.extend([1.0 / (1 + k)] * mult)
    got = singular_values(resolvent_symbol(), grid, len(flat))
    ones = singular_values(identity_symbol(), grid, 12)
    _report(
        "criterion 6 (compactness certificate)",
        got == flat and ones == [1.0] * 12,
        f"top {len(flat)} resolvent singular values equal 1/(1+k) with lattice "
        "multiplicities; identity stays at 1",
    )


def test_criterion_07_tail_bound():
    violations = 0
    fields = 0
    for n, m, seed in ((1, 27, 101), (2, 9, 202)):
        grid = TorusGrid(n, m)
        rng = np.random.default_rng(seed)
        for _ in range(500):
            c = random_spectral(grid, rng)
            fields += 1
            for cutoff in range(grid.box_radius + 1):
                if not tail_bound_check(c, cutoff).holds:
                    violations += 1
    _report(
        "criterion 7 (Rellich tail bound)",
        violations == 0 and fields == 1000,
        f"{violations} violations over {fields} fields, all cutoffs",
    )


def test_criterion_08_rellich_extraction():
    grid = TorusGrid(1, 17)
    ok = True
    details = []
    for seed in range(5):
        seq = random_bounded_sequence(grid, count=64, h1_bound=1.0, seed=seed)
        indices = rellich_extract(seq, 0.5)
        worst = max(pairwise_l2_distances(seq, indices))
        ok = ok and len(indices) >= 2 and worst <= 0.5
        details.append(f"seed {seed}: {len(indices)} idx, max d={worst:.3f}")
    _report("criterion 8 (Rellich extraction)", ok, "; ".join(details))


def test_criterion_09_solver_equivalence():
    grid = TorusGrid(2, 9)
    rng = np.random.default_rng(55)
    worst_gap = worst_rel = 0.0
    for _ in range(20):
        f = random_field(grid, rng)
        f_l2 = grid_l2_norm(f)
        u_mult, rep_mult = solve_multiplier(f)
        u_cg, rep_cg = solve_cg(f, tol=1e-10)
        worst_gap = max(worst_gap, grid_l2_norm(u_mult - u_cg))
        worst_rel = max(
            worst_rel, rep_mult.residual_l2 / f_l2, rep_cg.residual_l2 / f_l2
        )
    _report(
        "criterion 9 (solver equivalence)",
        worst_gap <= 1e-8 and worst_rel <= 1e-10,
        f"worst gap {worst_gap:.2e}, worst relative residual {worst_rel:.2e}",
    )


def test_criterion_10_transform_oracle():
    worst = 0.0
    for n in (1, 2):
        for m in (5, 9, 27):
            grid = TorusGrid(n, m)
            rng = np.random.default_rng(10 * n + m)
            for _ in range(3):
                u = random_field(grid, rng)
                worst = max(
                    worst,
                    float(
                        np.max(
                            np.abs(
                                forward(u).coefficients
                                - naive_forward(u).coefficients
                            )
                        )
                    ),
                )
                c = random_spectral(grid, rng)
                worst = max(
                    worst,
                    float(
                        np.max(np.abs(inverse(c).values - naive_inverse(c).values))
                    ),
                )
    _report(
        "criterion 10 (transform oracle)",
        worst <= 1e-10,
        f"max |fast - naive| = {worst:.2e}",
    )


def test_criterion_11_determinism(tmp_path):
    trunc_args = [
        "truncate", "--dimension", "2", "--points", "11", "--truncation", "2",
        "--seed", "9",
    ]
    a, b = tmp_path / "t1.csv", tmp_path / "t2.csv"
    assert cli.main(trunc_args + ["--output", str(a)]) == 0
    assert cli.main(trunc_args + ["--output", str(b)]) == 0
    trunc_ok = a.read_bytes() == b.read_bytes()

    bench_args = [
        "bench", "--dimension", "2", "--points", "9", "--seed", "9",
        "--repetitions", "2",
    ]
    c, d = tmp_path / "b1.csv", tmp_path / "b2.csv"
    assert cli.main(bench_args + ["--output", str(c)]) == 0
    assert cli.main(bench_args + ["--output", str(d)]) == 0
    bench_ok = c.read_bytes() == d.read_bytes()
    _report(
        "criterion 11 (determinism)",
        trunc_ok and bench_ok,
        f"truncate bytes identical: {trunc_ok}; bench bytes identical: {bench_ok}",
    )
