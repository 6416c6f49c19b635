import csv
import io
import itertools
import json
import re
import shlex
import tracemalloc
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toruskit import MultiplierSymbol, checks, cli, spectral as spectral_mod
from toruskit import embedding as embedding_mod
from toruskit import operators as operators_mod
from toruskit import solver as solver_mod
from toruskit import transform as transform_mod

from conftest import random_grid
from test_fault_matrix import FAULTS

README = Path(__file__).resolve().parents[1] / "README.md"


def run(*argv) -> int:
    return cli.main([str(a) for a in argv])


def test_spectrum_csv_rows(tmp_path):
    out = tmp_path / "spec.csv"
    assert run("spectrum", "--dimension", 2, "--level-cap", 2, "--output", out) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "operator,eigenvalue,multiplicity"
    lap = [tuple(l.split(",")[1:]) for l in lines if l.startswith("laplacian")]
    assert [(float(e), int(m)) for e, m in lap] == [(0.0, 1), (1.0, 4), (2.0, 4)]
    res = [tuple(l.split(",")[1:]) for l in lines if l.startswith("resolvent")]
    assert [(float(e), int(m)) for e, m in res] == [(1.0, 1), (0.5, 4), (1 / 3, 4)]


def test_spectrum_level_cap_zero(tmp_path):
    out = tmp_path / "spec.csv"
    assert run("spectrum", "--dimension", 1, "--level-cap", 0, "--output", out) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[1:] == ["laplacian,0.0,1", "resolvent,1.0,1"]


def test_spectrum_json_document(tmp_path):
    out = tmp_path / "spec.json"
    assert (
        run("spectrum", "--dimension", 2, "--level-cap", 2, "--output", out,
            "--format", "json")
        == 0
    )
    doc = json.loads(out.read_text())
    assert doc["laplacian"]["levels"] == [[0.0, 1], [1.0, 4], [2.0, 4]]
    assert doc["resolvent"]["levels"][0] == [1.0, 1]


def test_spectrum_counts_the_lattice_once(tmp_path, monkeypatch):
    calls, count = [], spectral_mod.levels_up_to
    monkeypatch.setattr(spectral_mod, "levels_up_to",
                        lambda n, cap: calls.append((n, cap)) or count(n, cap))
    assert run("spectrum", "--dimension", 2, "--level-cap", 50, "--output",
               tmp_path / "s.json", "--format", "json") == 0
    assert calls == [(2, 50)]


def test_spectrum_rejects_negative_cap(tmp_path):
    assert (
        run("spectrum", "--dimension", 2, "--level-cap", -1,
            "--output", tmp_path / "x.csv")
        == 2
    )


@pytest.mark.parametrize("cap", [cli.MAX_LEVEL_CAP + 1, 10**9])
def test_spectrum_refuses_a_cap_above_its_limit(tmp_path, monkeypatch, capsys, cap):
    def never(n, cap):
        raise AssertionError("the lattice was counted")

    monkeypatch.setattr(spectral_mod, "levels_up_to", never)
    out = tmp_path / "s.csv"
    assert run("spectrum", "--dimension", 3, "--level-cap", cap, "--output", out) == 2
    assert "--level-cap" in capsys.readouterr().err
    assert not out.exists()


def test_main_builds_its_parser_once(tmp_path, monkeypatch, capsys):
    # each call, a usage error among them, exits, prints and writes what it
    # does with a freshly built parser
    def outcomes(folder):
        folder.mkdir()
        calls = [
            ("spectrum", "--dimension", 2, "--level-cap", 5, "--output", folder / "s.csv"),
            ("verify", "--points", 8),
            ("transform", "--dimension", 1, "--points", 7, "--seed", 1,
             "--output", folder / "t.json", "--format", "json"),
            ("spectrum", "--dimension", 2, "--level-cap", "x", "--output", folder / "x.csv"),
            ("verify", "--dimension", 1, "--points", 9),
        ]
        results = []
        for argv in calls:
            code = run(*argv)
            out, err = capsys.readouterr()
            out = re.sub(r"\(\d+\.\d{3} s\)", "", out.replace(str(folder), ""))
            files = {p.name: p.read_bytes() for p in sorted(folder.iterdir())}
            results.append((code, out, err, files))
        return results

    builds = []
    build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: builds.append(1) or build())
    cli._parser.cache_clear()
    cached = outcomes(tmp_path / "cached")
    assert len(builds) == 1
    with mock.patch.object(cli, "_parser", cli.build_parser):
        fresh = outcomes(tmp_path / "fresh")
    assert len(builds) == 1 + len(fresh)
    assert [code for code, *_ in cached] == [0, 2, 0, 2, 0]
    assert cached == fresh


def test_spectrum_accepts_the_cap_limit_itself():
    args = cli.build_parser().parse_args(
        ["spectrum", "--dimension", "3", "--level-cap", str(cli.MAX_LEVEL_CAP),
         "--output", "s.csv"])
    assert args.level_cap == cli.MAX_LEVEL_CAP


def test_truncate_table_values(tmp_path):
    out = tmp_path / "trunc.csv"
    code = run(
        "truncate", "--dimension", 2, "--points", 11, "--truncation", 3,
        "--seed", 1, "--output", out,
    )
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "N,exact_error,power_iteration_error,abs_diff"
    rows = [line.split(",") for line in lines[1:]]
    assert [r[0] for r in rows] == ["0", "1", "2", "3"]
    assert float(rows[0][1]) == 0.5
    assert float(rows[3][1]) == pytest.approx(1 / 17, abs=0)
    assert all(float(r[3]) <= 1e-8 for r in rows)


def test_truncate_box_too_small(tmp_path, capsys):
    code = run(
        "truncate", "--dimension", 2, "--points", 9, "--truncation", 3,
        "--seed", 1, "--output", tmp_path / "t.csv",
    )
    assert code == 2
    err = capsys.readouterr().err
    assert "radius >= 5" in err


def test_truncate_deterministic_bytes(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ("truncate", "--dimension", 1, "--points", 11, "--truncation", 2, "--seed", 5)
    assert run(*args, "--output", a) == 0
    assert run(*args, "--output", b) == 0
    assert a.read_bytes() == b.read_bytes()


def test_bench_requires_seed(tmp_path):
    code = run("bench", "--dimension", 2, "--points", 9, "--output", tmp_path / "b.csv")
    assert code == 2


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_bench_files_byte_identical_across_runs(tmp_path, fmt):
    a, b = tmp_path / f"a.{fmt}", tmp_path / f"b.{fmt}"
    args = ("bench", "--dimension", 2, "--points", 9, "--seed", 3, "--repetitions", 2,
            "--format", fmt)
    assert run(*args, "--output", a) == 0
    assert run(*args, "--output", b) == 0
    assert a.read_bytes() == b.read_bytes()


def test_bench_csv_schema(tmp_path, capsys):
    out = tmp_path / "bench.csv"
    assert (
        run("bench", "--dimension", 2, "--points", 9, "--seed", 42,
            "--repetitions", 3, "--output", out)
        == 0
    )
    # each median wall time goes to stdout, to the microsecond, ending in the
    # "(x s)" that scripts/compare_outputs.py masks
    assert [re.sub(r"\(\d+\.\d{6} s\)$", "(* s)", line)
            for line in capsys.readouterr().out.splitlines()] == [
        "multiplier median over 3 repetitions (* s)",
        "cg median over 3 repetitions (* s)",
        f"wrote {out}",
    ]
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "method,n,M,seed,residual_l2,iterations"
    rows = [line.split(",") for line in lines[1:]]
    assert [row[0] for row in rows] == ["multiplier", "cg"]
    for row in rows:
        assert row[1:4] == ["2", "9", "42"]
    assert rows[0][-1] == "0" and int(rows[1][-1]) > 0


def _read_field(doc, kind):
    """The complex array of a field document, read back with numpy alone."""
    assert doc["kind"] == kind
    grid = transform_mod.TorusGrid(doc["dimension"], doc["points_per_axis"])
    return grid, np.asarray(doc["values"]).view(np.complex128).reshape(grid.shape)


def test_transform_json_roundtrips(tmp_path):
    out = tmp_path / "field.json"
    assert (
        run("transform", "--dimension", 1, "--points", 9, "--seed", 2,
            "--sobolev", 1.0, "--format", "json", "--output", out)
        == 0
    )
    with open(out) as fh:
        grid, values = _read_field(json.load(fh), "spectral")
    assert grid.points_per_axis == 9 and values.shape == (9,)


@pytest.mark.parametrize("n, points", [(1, 15), (2, 9), (3, 5)])
def test_field_documents_read_back_bit_exactly(tmp_path, n, points):
    """`transform`'s coefficients and `solve`'s solution, read back with
    `json.load` and `np.asarray`, equal the library's arrays bit for bit:
    the coefficients after `np.fft.ifftshift`, since a file lists the box
    centred and the library stores it in FFT order."""
    seed, out = 7, tmp_path / "out.json"
    grid = transform_mod.TorusGrid(n, points)
    f = transform_mod.random_field(grid, np.random.default_rng(seed))
    common = ("--dimension", n, "--points", points, "--seed", seed,
              "--format", "json", "--output", out)
    assert run("transform", *common) == 0
    with open(out) as fh:
        read_grid, values = _read_field(json.load(fh), "spectral")
    assert read_grid == grid
    assert np.array_equal(np.fft.ifftshift(values), transform_mod.forward(f).coefficients)
    assert run("solve", *common) == 0
    with open(out) as fh:
        read_grid, values = _read_field(json.load(fh)["solution"], "grid")
    assert read_grid == grid
    assert np.array_equal(values, solver_mod.solve_multiplier(f)[0].values)


@pytest.mark.parametrize("n, points", [(1, 15), (3, 5)])
@pytest.mark.parametrize("command, path, kind", [("transform", (), "spectral"),
                                                 ("solve", ("solution",), "grid")])
def test_field_documents_hold_integer_sizes_and_pairs(tmp_path, command, path, kind,
                                                      n, points):
    """A field document names its grid by two JSON integers, its kind by the
    command that wrote it, and holds one `[re, im]` pair of floats per value."""
    out = tmp_path / "out.json"
    assert run(command, "--dimension", n, "--points", points, "--seed", 3,
               "--format", "json", "--output", out) == 0
    doc = json.loads(out.read_text())
    for key in path:
        doc = doc[key]
    assert list(doc) == ["dimension", "points_per_axis", "kind", "values"]
    assert type(doc["dimension"]) is int and doc["dimension"] == n
    assert type(doc["points_per_axis"]) is int and doc["points_per_axis"] == points
    assert doc["kind"] == kind
    assert len(doc["values"]) == points ** n
    assert all(len(pair) == 2 and all(type(x) is float for x in pair)
               for pair in doc["values"])


def _traced_peak(*argv) -> int:
    tracemalloc.start()
    try:
        assert run(*argv) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_json_transform_peaks_near_the_csv(tmp_path):
    """A field document is written from the same columns as the CSV table,
    so the json run holds no more than the csv run: no row list per
    coefficient."""
    args = ("transform", "--dimension", 2, "--points", 255, "--seed", 1)
    csv_peak = _traced_peak(*args, "--format", "csv", "--output", tmp_path / "f.csv")
    json_peak = _traced_peak(*args, "--format", "json", "--output", tmp_path / "f.json")
    assert json_peak <= 1.25 * csv_peak, (json_peak, csv_peak)


def test_transform_csv_schema(tmp_path):
    out = tmp_path / "field.csv"
    assert (
        run("transform", "--dimension", 2, "--points", 5, "--seed", 2,
            "--output", out)
        == 0
    )
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "xi_1,xi_2,re,im"
    assert len(lines) == 1 + 25
    first = lines[1].split(",")
    assert first[:2] == ["-2", "-2"]
    float(first[2]), float(first[3])  # plain parseable floats


def test_transform_check_transforms_its_input_once(monkeypatch):
    analysis, calls = transform_mod._analysis, []

    def counted(values, dimension):
        calls.append(values.shape)
        return analysis(values, dimension)

    monkeypatch.setattr(transform_mod, "_analysis", counted)
    u = random_grid(transform_mod.TorusGrid(2, 9), np.random.default_rng(0))
    *_, failures = checks.check_transform(u)
    assert failures == [] and calls == [(9, 9)]


def test_solve_json_report(tmp_path):
    out = tmp_path / "sol.json"
    assert (
        run("solve", "--dimension", 2, "--points", 9, "--seed", 4,
            "--format", "json", "--output", out)
        == 0
    )
    doc = json.loads(out.read_text())
    methods = [r["method"] for r in doc["reports"]]
    assert methods == ["multiplier", "cg"]
    assert doc["l2_disagreement"] <= 1e-9
    assert doc["solution"]["kind"] == "grid"


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_solve_prints_its_wall_times_and_writes_none(tmp_path, capsys, fmt):
    out = tmp_path / f"sol.{fmt}"
    assert run("solve", "--dimension", 2, "--points", 9, "--seed", 4,
               "--format", fmt, "--output", out) == 0
    printed = capsys.readouterr().out.splitlines()
    pattern = r" residual_l2 = \S+ after \d+ iterations \(\d+\.\d{3} s\)"
    for method, line in zip(("multiplier", "cg"), printed):
        assert re.fullmatch(method + pattern, line)
    if fmt == "csv":
        assert out.read_text().splitlines()[0] == "method,residual_l2,iterations"
    else:
        reports = json.loads(out.read_text())["reports"]
        assert [list(r) for r in reports] == [["method", "residual_l2", "iterations"]] * 2


def test_embed_demo_writes_both_artifacts(tmp_path):
    out = tmp_path / "demo.csv"
    assert (
        run("embed-demo", "--dimension", 1, "--points", 17, "--epsilon", 0.5,
            "--seed", 3, "--output", out)
        == 0
    )
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "N,tail_lhs,tail_rhs"
    assert len(lines) == 1 + 9  # cutoffs 0..box_radius
    side = json.loads((tmp_path / "demo.json").read_text())
    assert len(side["indices"]) >= 2
    assert side["max_pairwise_l2"] <= 0.5


def test_embed_demo_single_json(tmp_path):
    out = tmp_path / "demo.json"
    assert (
        run("embed-demo", "--dimension", 1, "--points", 17, "--epsilon", 0.5,
            "--seed", 3, "--format", "json", "--output", out)
        == 0
    )
    doc = json.loads(out.read_text())
    assert {"tails", "extraction"} <= set(doc)


def test_embed_demo_refuses_csv_output_its_sidecar_would_overwrite(tmp_path, capsys):
    out = tmp_path / "demo.json"
    code = run(
        "embed-demo", "--dimension", 1, "--points", 17, "--epsilon", 0.5,
        "--seed", 3, "--format", "csv", "--output", out,
    )
    assert code == 2
    assert "output" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_embed_demo_epsilon_too_small(tmp_path, capsys):
    code = run(
        "embed-demo", "--dimension", 1, "--points", 9, "--epsilon", 0.001,
        "--seed", 3, "--output", tmp_path / "d.csv",
    )
    assert code == 2
    assert "insufficient resolution" in capsys.readouterr().err


@pytest.mark.parametrize("epsilon", ["1e-200", "5e-324"])
def test_embed_demo_epsilon_beyond_float_range(tmp_path, capsys, epsilon):
    # (4 h1 / epsilon)^2 overflows a float; the cutoff is still just too big
    code = run(
        "embed-demo", "--dimension", 1, "--points", 17, "--epsilon", epsilon,
        "--seed", 1, "--output", tmp_path / "d.csv",
    )
    assert code == 2
    assert capsys.readouterr().err.startswith("error: epsilon: insufficient resolution")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "args",
    [
        ("spectrum", "--dimension", 3, "--level-cap", 9),
        ("transform", "--dimension", 2, "--points", 9, "--seed", 6),
        ("embed-demo", "--dimension", 1, "--points", 17, "--epsilon", 0.5, "--seed", 6),
    ],
)
def test_data_files_byte_deterministic(tmp_path, args):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run(*args, "--output", a) == 0
    assert run(*args, "--output", b) == 0
    assert a.read_bytes() == b.read_bytes()


def test_verify_defaults_pass(capsys):
    assert run("verify") == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 7
    assert "FAIL" not in out
    # PASS/FAIL first, the group's wall seconds last
    for line in out.splitlines():
        assert re.fullmatch(r"PASS [a-z-]+: .+ \(\d+\.\d{3} s\)", line), line


def test_verify_other_dimension(capsys):
    assert run("verify", "--dimension", 1, "--points", 27, "--seed", 2) == 0
    assert "FAIL" not in capsys.readouterr().out


def test_verify_even_points_rejected():
    assert run("verify", "--points", 8) == 2


def test_verify_detects_tampering(monkeypatch, capsys):
    monkeypatch.setattr(spectral_mod, "truncation_error_exact", lambda n: 0.123)
    assert run("verify") == 1
    assert "FAIL operator-norms" in capsys.readouterr().out


def test_truncate_detects_tampering(tmp_path, monkeypatch, capsys):
    # the gaps come from the box's levels, not from the law, so a wrong law
    # is a failed check and not a usage error
    monkeypatch.setattr(spectral_mod, "truncation_error_exact", lambda n: 0.123)
    assert run("truncate", "--dimension", 2, "--points", 11, "--truncation", 1,
               "--seed", 1, "--output", tmp_path / "t.csv") == 1
    lines = capsys.readouterr().err.splitlines()
    assert [line.split(" = ")[0] for line in lines] == [
        f"check failed: N={k}: |exact - lanczos|" for k in (0, 1)]
    assert all(line.endswith(" > 1e-8") for line in lines)


@pytest.mark.parametrize("fault, failed",
                         [(None, []), ("truncation-keeps-k=(N+1)^2", [99, 100])],
                         ids=["unfaulted", "boundary-kept"])
def test_norm_law_tells_the_law_from_the_next_level_past_1e_8(monkeypatch, fault, failed):
    # at 2-D M=205 the level after (N+1)^2 is (N+1)^2 + 1, whose resolvent
    # value is under 1e-8 from the law's at N = 99 and 100: the faulted rows
    # read 9.997e-9 and 9.607e-9, within a fixed 1e-8 but not within a
    # quarter of the gap
    if fault:
        FAULTS[fault](monkeypatch)
    rows, failures = checks.check_norm_law(transform_mod.TorusGrid(2, 205), [99, 100], 1)
    assert [row[0] for row in rows] == [99, 100]
    assert [int(f.split(":")[0].removeprefix("N=")) for f in failures] == failed


def test_norm_law_fails_an_estimate_of_0_where_the_law_is_under_1e_8(monkeypatch):
    # at 1-D M=20003 the law at N = 9999 is 9.99999990e-9, so an estimate of
    # 0 is within 1e-8 of it; the next level is 10001^2, and the row is held
    # to a quarter of the gap, while Lanczos runs on the powered tail at
    # tol 1e-9 whatever the gap
    tols = []

    def zero_estimates(symbols, grid, tol, seed):
        tols.append(tol)
        return [0.0] * len(symbols)

    monkeypatch.setattr(spectral_mod, "operator_norm_power_iteration", zero_estimates)
    rows, failures = checks.check_norm_law(transform_mod.TorusGrid(1, 20003), [9999], 1)
    exact = 1 / (10000**2 + 1)
    gap = exact - 1 / (10001**2 + 1)
    assert rows == [(9999, exact, 0.0, exact)] and exact < 1e-8
    (failure,) = failures
    assert failure.startswith(f"N=9999: |exact - lanczos| = {exact} > ")
    assert float(failure.rsplit(" ", 1)[1]) == pytest.approx(gap / 4, rel=1e-12)
    assert tols == [1e-9]


def test_norm_law_holds_unfaulted_where_the_law_is_under_1e_8():
    # at 1-D M=20003, N = 9999, c = 1/(10000^2 + 1) and p = 5001: the run is
    # scaled to c^(1/p), not to c, so Lanczos's stop at tol 1e-9 is relative
    # here too; scaled to c, the run stopped with e off by 2.8e-3
    rows, failures = checks.check_norm_law(transform_mod.TorusGrid(1, 20003), [9999], 1)
    assert failures == [] and rows[0][3] <= 1e-20


@pytest.mark.filterwarnings("error")
def test_a_tail_value_above_its_top_overflows_into_a_numerical_failure(
    tmp_path, monkeypatch, capsys
):
    # each resolvent tail reads 1e200 at the box's largest |xi|^2, far above
    # its top value c, so its power overflows
    exact = operators_mod.resolvent_tail_symbol

    def lifted(cutoff):
        tail = exact(cutoff)
        return MultiplierSymbol(tail.name, of_norm_sq=lambda k: np.where(
            k == k.max(), 1e200, tail.of_norm_sq(k)))

    monkeypatch.setattr(operators_mod, "resolvent_tail_symbol", lifted)
    message = ("numerical failure: symbol 'resolvent_tail(0)^3' produced "
               "non-finite values on the box")
    assert run("truncate", "--dimension", 2, "--points", 11, "--truncation", 2,
               "--seed", 1, "--output", tmp_path / "t.csv") == 1
    assert capsys.readouterr() == ("", message + "\n")
    assert list(tmp_path.iterdir()) == []
    results = checks.verify(transform_mod.TorusGrid(2, 9), 1)
    assert [r.name for r in results if r.failures] == ["operator-norms"]
    assert results[3].failures == [message]


def _counted_applies(monkeypatch) -> list[int]:
    """The number of runs in each stacked apply Lanczos makes, in order."""
    calls = []
    exact = spectral_mod.apply_multiplier

    def counted(grid, sigma, values):
        calls.append(len(sigma))
        return exact(grid, sigma, values)

    monkeypatch.setattr(spectral_mod, "apply_multiplier", counted)
    return calls


def test_operator_norms_takes_6_stacked_applies_at_3d_m9(monkeypatch):
    # its four runs, N = -1..2, in one stack; unpowered they took 15
    calls = _counted_applies(monkeypatch)
    assert checks._verify_operator_norms(transform_mod.TorusGrid(3, 9), 1)[1] == []
    assert calls == [4, 4, 4, 4, 4, 3]


# The Lanczos steps of each powered run alone, one digit per row: verify's
# operator-norms rows N = -1..3 on the fault-matrix grids, and truncate's
# rows N = 0..60 at 2-D M=129, where the unpowered tails took O(N) steps
POWERED_STEPS = {
    (1, 15, -1): "55565",
    (2, 9, -1): "5554",
    (3, 9, -1): "6656",
    (2, 129, 0): "5555455444454445544544455444455444454445554444455444445544454",
}


@pytest.mark.parametrize("n, m, first", list(POWERED_STEPS),
                         ids=["1-D M=15", "2-D M=9", "3-D M=9", "2-D M=129"])
def test_each_powered_run_takes_the_steps_measured(monkeypatch, n, m, first):
    calls = _counted_applies(monkeypatch)
    grid = transform_mod.TorusGrid(n, m)
    steps = ""
    for k in range(first, first + len(POWERED_STEPS[n, m, first])):
        calls.clear()
        rows, failures = checks.check_norm_law(grid, [k] if k >= 0 else [], 1, resolvent=k < 0)
        assert [row[0] for row in rows] == [k] and failures == []
        steps += str(len(calls))
    assert steps == POWERED_STEPS[n, m, first]


def test_verify_detects_wrong_resolvent_symbol(monkeypatch, capsys):
    wrong = MultiplierSymbol("resolvent", of_norm_sq=lambda k: 1.0 / (2.0 + k))
    monkeypatch.setattr(spectral_mod, "resolvent_symbol", lambda: wrong)
    assert run("verify") == 1
    assert "FAIL resolvent-eigenpairs" in capsys.readouterr().out


def test_verify_detects_wrong_fast_transform(monkeypatch, capsys):
    forward = transform_mod.forward

    def perturbed(u):
        # one field or each field of a stack, at one mode
        c = forward(u)
        c.coefficients[(..., *(1,) * u.grid.dimension)] += 1e-6
        return c

    monkeypatch.setattr(transform_mod, "forward", perturbed)
    assert run("verify") == 1
    out = capsys.readouterr().out
    assert "FAIL fast-vs-naive-transform" in out
    # the certificate applies the resolvent through the public pair too
    assert "FAIL resolvent-eigenpairs" in out


def _count_norm_applications(monkeypatch):
    """Patch the public inverse transform to count applications; the
    returned list gets, per estimator call, one list of the number of
    fields each application transforms, the leading axis of its stack.
    Within the operator-norms group only the estimator calls it."""
    counts = []
    inverse = transform_mod.inverse
    estimate = spectral_mod.operator_norm_power_iteration

    def counted_inverse(c):
        counts[-1].append(len(c.coefficients))
        return inverse(c)

    def counted_estimate(*args, **kwargs):
        counts.append([])
        return estimate(*args, **kwargs)

    monkeypatch.setattr(transform_mod, "inverse", counted_inverse)
    monkeypatch.setattr(spectral_mod, "operator_norm_power_iteration", counted_estimate)
    return counts


@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
def test_verify_norm_estimates_take_at_most_20_applications(monkeypatch, seed):
    # the resolvent and the tails N = 0, 1, 2 at 3-D M=9 take 8-15 Lanczos
    # steps; power iteration took 17-89 on the same estimates.  The four
    # runs go in lockstep, one stacked application per step, and a run
    # leaves the stack when it stops: so no run takes more steps than there
    # are applications, the first holds all four, and they number at most
    # 20, where one at a time took 4 x 8-15.
    counts = _count_norm_applications(monkeypatch)
    _, failures = checks._verify_operator_norms(transform_mod.TorusGrid(3, 9), seed)
    assert failures == []
    assert len(counts) == 1
    (fields,) = counts
    assert 1 <= len(fields) <= 20 and fields[0] == 4, fields
    assert fields == sorted(fields, reverse=True)


def test_verify_fails_operator_norms_when_the_routed_transform_is_off(monkeypatch, capsys):
    # the estimator sees the operator only through its transforms, not
    # through the diagonal symbol the law is derived from; every group that
    # applies an operator through the public pair fails with it
    inverse = transform_mod.inverse

    def scaled(c):
        u = inverse(c)
        return transform_mod.GridField(u.grid, u.values * (1 + 1e-6))

    monkeypatch.setattr(transform_mod, "inverse", scaled)
    assert run("verify") == 1
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in lines if line.startswith("FAIL")] == [
        "FAIL transform-roundtrip-plancherel",
        "FAIL fast-vs-naive-transform",
        "FAIL resolvent-eigenpairs",
        "FAIL operator-norms",
        "FAIL solver-agreement",
    ]


def test_verify_refuses_grids_above_its_limit(capsys):
    # 91**2 = 8281 points; the O(size**2) groups would run for minutes
    assert run("verify", "--dimension", 2, "--points", 91) == 2
    assert "points" in capsys.readouterr().err


def test_verify_3d_passes(capsys):
    assert run("verify", "--dimension", 3, "--points", 9, "--seed", 1) == 0
    out = capsys.readouterr().out
    assert out.count("PASS ") == 7 and "FAIL" not in out


def test_embed_demo_refuses_grids_above_its_limit(tmp_path, monkeypatch, capsys):
    # 2**18 + 1 points: one past the limit, refused before any field is drawn
    def refuse(*args):
        raise AssertionError("embed-demo drew a field above its limit")

    monkeypatch.setattr(cli, "_random_spectral_field", refuse)
    out = tmp_path / "e.csv"
    assert cli.MAX_EMBED_POINTS == 2**18
    assert run("embed-demo", "--dimension", 1, "--points", 2**18 + 1,
               "--epsilon", 0.5, "--seed", 0, "--output", out) == 2
    assert "points" in capsys.readouterr().err
    assert not out.exists() and not out.with_suffix(".json").exists()


def test_dimension_out_of_range(tmp_path, capsys):
    assert (
        run("spectrum", "--dimension", 4, "--level-cap", 1,
            "--output", tmp_path / "s.csv")
        == 2
    )
    assert "--dimension" in capsys.readouterr().err


def test_large_prime_points_transform(tmp_path):
    out = tmp_path / "t.csv"
    assert run("transform", "--dimension", 1, "--points", 4099, "--seed", 0,
               "--output", out) == 0
    assert out.exists()


def test_oversized_grid_is_a_usage_error(tmp_path, capsys):
    # 2001**3 points would need about 128 GB per complex field
    code = run("transform", "--dimension", 3, "--points", 2001, "--seed", 0,
               "--output", tmp_path / "t.csv")
    assert code == 2
    assert "points" in capsys.readouterr().err
    assert not (tmp_path / "t.csv").exists()


def test_solve_large_1d_grid_converges(tmp_path):
    # preconditioned CG stays within its proven bound, 21 iterations here
    out = tmp_path / "sol.csv"
    assert run("solve", "--dimension", 1, "--points", 1501, "--seed", 0,
               "--output", out) == 0
    rows = out.read_text().strip().splitlines()
    assert rows[2].split(",")[0] == "cg"
    bound = solver_mod._iteration_bound(transform_mod.TorusGrid(1, 1501), 1e-10)
    assert 0 < int(rows[2].split(",")[2]) <= bound


@pytest.mark.parametrize(
    "argv, flag",
    [
        ("solve --dimension 1 --points 9 --seed -1 --output {tmp}/o.csv", "--seed"),
        ("verify --seed -1", "--seed"),
        ("embed-demo --dimension 1 --points 17 --seed 3 --epsilon nan "
         "--output {tmp}/o.csv", "--epsilon"),
        ("embed-demo --dimension 1 --points 17 --seed 3 --epsilon inf "
         "--output {tmp}/o.csv", "--epsilon"),
        ("embed-demo --dimension 1 --points 17 --seed 3 --epsilon 0 "
         "--output {tmp}/o.csv", "--epsilon"),
        ("transform --dimension 1 --points 9 --seed 2 --sobolev nan "
         "--output {tmp}/o.csv", "--sobolev"),
        ("transform --dimension 1 --points 9 --seed 2 --sobolev inf "
         "--output {tmp}/o.csv", "--sobolev"),
        ("spectrum --dimension 2 --level-cap -1 --output {tmp}/o.csv", "--level-cap"),
        ("truncate --dimension 2 --points 11 --truncation -1 --seed 1 "
         "--output {tmp}/o.csv", "--truncation"),
        ("bench --dimension 1 --points 9 --seed 1 --repetitions 0 "
         "--output {tmp}/o.csv", "--repetitions"),
        ("solve --dimension 1 --points 9 --seed 1 --output {tmp}/missing/o.csv",
         "--output"),
        ("spectrum --dimension 1 --level-cap 4 --output {tmp}", "--output"),
    ],
    ids=["seed", "verify-seed", "epsilon-nan", "epsilon-inf", "epsilon-zero",
         "sobolev-nan", "sobolev-inf", "level-cap", "truncation", "repetitions",
         "output-missing-directory", "output-is-a-directory"],
)
def test_usage_error_names_its_flag_before_any_work(tmp_path, capsys, argv, flag):
    assert run(*shlex.split(argv.format(tmp=tmp_path))) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert f"argument {flag}:" in err
    assert list(tmp_path.iterdir()) == []


def test_unknown_command():
    assert run("frobnicate") == 2


def test_help_exits_zero():
    assert run("--help") == 0


# ---------------------------------------------------------------------------
# One writer: a command's CSV table and JSON document carry the same values.
# ---------------------------------------------------------------------------

def _cell(text):
    for kind in (int, float):
        try:
            return kind(text)
        except ValueError:
            pass
    return text


def _csv_values(path):
    _, *rows = [line.split(",") for line in path.read_text().splitlines()]
    return [[_cell(cell) for cell in row] for row in rows]


def _record_values(records):
    return [list(r.values()) for r in records]


def _field_values(doc):
    h = (doc["points_per_axis"] - 1) // 2
    freqs = itertools.product(range(-h, h + 1), repeat=doc["dimension"])
    return [[*xi, re_, im] for xi, (re_, im) in zip(freqs, doc["values"])]


def _spectrum_values(doc):
    return [[op, eig, mult] for op in ("laplacian", "resolvent")
            for eig, mult in doc[op]["levels"]]


@pytest.mark.parametrize(
    "args, json_values",
    [
        (("spectrum", "--dimension", 3, "--level-cap", 9), _spectrum_values),
        (("transform", "--dimension", 2, "--points", 5, "--seed", 2), _field_values),
        (("truncate", "--dimension", 2, "--points", 11, "--truncation", 2,
          "--seed", 1), _record_values),
        (("embed-demo", "--dimension", 1, "--points", 17, "--epsilon", 0.5,
          "--seed", 3), lambda doc: _record_values(doc["tails"])),
        (("solve", "--dimension", 2, "--points", 9, "--seed", 4),
         lambda doc: _record_values(doc["reports"])),
        (("bench", "--dimension", 1, "--points", 9, "--seed", 1,
          "--repetitions", 2), _record_values),
    ],
    ids=["spectrum", "transform", "truncate", "embed-demo", "solve", "bench"],
)
def test_csv_and_json_carry_the_same_values(tmp_path, args, json_values):
    table, doc_path = tmp_path / "table.csv", tmp_path / "doc.json"
    assert run(*args, "--output", table) == 0
    assert run(*args, "--format", "json", "--output", doc_path) == 0
    doc = json.loads(doc_path.read_text())
    assert _csv_values(table) == json_values(doc)
    if args[0] == "embed-demo":
        assert json.loads((tmp_path / "table.json").read_text()) == doc["extraction"]


# ---------------------------------------------------------------------------
# One self-check per invariant: a tampering fails the command and the
# matching verify group alike.
# ---------------------------------------------------------------------------

_inverse = transform_mod.inverse
_solve_cg = solver_mod.solve_cg


def _perturbed_inverse(c):
    # one field or each field of a stack, at its first point
    u = _inverse(c)
    u.values[(..., *(0,) * c.grid.dimension)] += 1e-6
    return u


def _scaled_cg(f, tol):
    u, rep = _solve_cg(f, tol=tol)
    u = u * (1 + 1e-8)
    residual = solver_mod._residual_l2(u, f)
    return u, solver_mod.SolveReport(residual, "cg", rep.iterations, rep.wall_time)


def _violated_profile(c):
    # the profile of one field, or one row per field of a stack
    shape = (*c.coefficients.shape[:-c.grid.dimension], c.grid.box_radius + 1)
    return embedding_mod.TailBound(
        np.ones(shape), np.full(shape, 0.5), np.zeros(shape, dtype=bool)
    )


EMBED_ARGS = ("embed-demo", "--dimension", 1, "--points", 17, "--epsilon", 0.5,
              "--seed", 3)
SOLVE_ARGS = ("solve", "--dimension", 2, "--points", 9, "--seed", 4)


@pytest.mark.parametrize(
    "module, name, fake, args, group",
    [
        (spectral_mod, "truncation_error_exact", lambda n: 0.123,
         ("truncate", "--dimension", 2, "--points", 11, "--truncation", 2, "--seed", 1),
         "operator-norms"),
        (transform_mod, "inverse", _perturbed_inverse,
         ("transform", "--dimension", 2, "--points", 9, "--seed", 2),
         "transform-roundtrip-plancherel"),
        (embedding_mod, "tail_profile", _violated_profile, EMBED_ARGS, "tail-bounds"),
        (embedding_mod, "pairwise_l2_distances", lambda seq, indices: [0.1, 0.9],
         EMBED_ARGS, "rellich-extraction"),
        (solver_mod, "resolvent_symbol",
         lambda: MultiplierSymbol("resolvent", of_norm_sq=lambda k: 1.0 / (2.0 + k)),
         SOLVE_ARGS, "solver-agreement"),
        (solver_mod, "helmholtz_symbol",
         lambda: MultiplierSymbol("helmholtz", of_norm_sq=lambda k: 2.0 + k),
         SOLVE_ARGS, "solver-agreement"),
        (solver_mod, "solve_cg", _scaled_cg, SOLVE_ARGS, "solver-agreement"),
    ],
    ids=["norm-law", "inverse", "tail-bound", "extraction", "resolvent-symbol",
         "helmholtz-symbol", "cg-scaled"],
)
def test_tampering_fails_command_and_verify_group(
    tmp_path, monkeypatch, capsys, module, name, fake, args, group
):
    monkeypatch.setattr(module, name, fake)
    assert run(*args, "--output", tmp_path / "out.csv") == 1
    assert "check failed" in capsys.readouterr().err
    if args == SOLVE_ARGS:
        assert run("bench", *args[1:], "--repetitions", 2,
                   "--output", tmp_path / "bench.csv") == 1
        assert "check failed: repetition 1: " in capsys.readouterr().err
    assert run("verify") == 1
    assert f"FAIL {group}:" in capsys.readouterr().out


def _perturbed_solution(f, xi, residual):
    """f's exact solution plus a multiple of the 1-D Fourier mode xi, sized
    so that ||f - A u|| = residual ||f||, A = Delta + 1."""
    grid = f.grid
    exact, _ = solver_mod.solve_multiplier(f)
    coefficients = np.zeros(grid.shape, dtype=np.complex128)
    coefficients[xi] = 1.0
    mode = _inverse(transform_mod.SpectralField(grid, coefficients))
    size = residual * transform_mod.grid_l2_norm(f)
    return exact + mode * (size / ((1 + xi**2) * transform_mod.grid_l2_norm(mode)))


@pytest.mark.parametrize(
    "xi, residual, expected",
    [
        # top mode, where ||A|| = 1 + h^2 is attained: ten times the old
        # bound 1e-10 ||f||, yet a backward error near 1e-9 / ||A||
        (50, 1e-9, []),
        (50, 1e-3, ["cg backward error", "solver disagreement"]),
        # zero mode: the backward error stays near 1e-8 / ||A||, but the
        # solvers disagree by 1e-8 ||f||
        (0, 1e-8, ["solver disagreement"]),
    ],
)
def test_solve_check_on_perturbed_cg_solutions(monkeypatch, xi, residual, expected):
    f = transform_mod.random_field(transform_mod.TorusGrid(1, 101), np.random.default_rng(0))
    u = _perturbed_solution(f, xi, residual)
    report = solver_mod.SolveReport(solver_mod._residual_l2(u, f), "cg", 1, 0.0)
    monkeypatch.setattr(solver_mod, "solve_cg", lambda f, tol: (u, report))

    _, (_, rep_cg), _, failures = checks.check_solve(f)
    assert rep_cg.residual_l2 > 1e-10 * transform_mod.grid_l2_norm(f)
    assert [failure.rsplit(" ", 3)[0] for failure in failures] == expected


def test_bench_accepts_what_solve_accepts(tmp_path, monkeypatch):
    # a top-mode CG error of 2e-9 ||f||: its backward error is near
    # 2e-9 / ||A||, so solve accepts it, and bench applies the same rule
    def perturbed_cg(f, tol):
        u = _perturbed_solution(f, 50, 2e-9)
        return u, solver_mod.SolveReport(solver_mod._residual_l2(u, f), "cg", 1, 0.0)

    monkeypatch.setattr(solver_mod, "solve_cg", perturbed_cg)
    args = ("--dimension", 1, "--points", 101, "--seed", 1)
    assert run("solve", *args, "--output", tmp_path / "solve.csv") == 0
    assert run("bench", *args, "--repetitions", 2, "--output", tmp_path / "bench.csv") == 0


def test_solve_passes_where_tol_lies_below_the_rounding_floor(tmp_path, monkeypatch):
    # at tol=1e-10 the floor passes tol * ||f|| only on 1-D grids past about
    # 10^4 points; a tighter tol puts a 1-D M=301 solve in the same state
    monkeypatch.setattr(solver_mod, "solve_cg", lambda f, tol: _solve_cg(f, tol=1e-13))
    out = tmp_path / "s.csv"
    assert run("solve", "--dimension", 1, "--points", 301, "--seed", 0,
               "--output", out) == 0
    cg_row = out.read_text().strip().splitlines()[2].split(",")
    assert cg_row[0] == "cg" and int(cg_row[2]) < 301


def test_solve_check_rejects_a_solution_above_the_resolvent_norm(monkeypatch):
    solve_multiplier = solver_mod.solve_multiplier

    def inflated(f):
        u, rep = solve_multiplier(f)
        return u * (2 * transform_mod.grid_l2_norm(f) / transform_mod.grid_l2_norm(u)), rep

    monkeypatch.setattr(solver_mod, "solve_multiplier", inflated)
    f = transform_mod.random_field(transform_mod.TorusGrid(2, 9), np.random.default_rng(0))
    *_, failures = checks.check_solve(f)
    assert any(failure.startswith("||u||") for failure in failures)


# ---------------------------------------------------------------------------
# A loop that does not converge: a command exits 1 and writes nothing;
# `verify` reports it as its group's FAIL and runs the other groups.
# ---------------------------------------------------------------------------

# Each loop's cap, lowered: Lanczos stops after one step, CG after two
def _one_lanczos_step(squares):
    return 1


def _cg_bound_of_one(grid, tol, condition):
    return 1


@pytest.mark.parametrize(
    "module, name, fake, argv, message",
    [
        (spectral_mod, "_step_cap", _one_lanczos_step,
         ("truncate", "--dimension", 2, "--points", 11, "--truncation", 2, "--seed", 1),
         "Lanczos did not reach tol=1e-09 within 1 steps"),
        (solver_mod, "_iteration_bound", _cg_bound_of_one, SOLVE_ARGS,
         "conjugate gradients did not reach tol=1e-10 within 2 iterations"),
        (solver_mod, "_iteration_bound", _cg_bound_of_one, ("bench", *SOLVE_ARGS[1:]),
         "conjugate gradients did not reach tol=1e-10 within 2 iterations"),
    ],
    ids=["truncate", "solve", "bench"],
)
def test_numerical_failure_exits_1_and_writes_nothing(
    tmp_path, monkeypatch, capsys, module, name, fake, argv, message
):
    monkeypatch.setattr(module, name, fake)
    assert run(*argv, "--output", tmp_path / "out.csv") == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"numerical failure: {message}")
    assert list(tmp_path.iterdir()) == []


def test_transform_with_an_overflowing_sobolev_weight_exits_1_and_writes_nothing(
    tmp_path, capsys
):
    # (1 + 32)^400 overflows at 2-D M=9's corner: a numerical failure,
    # raised before anything is printed, and no RuntimeWarning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run("transform", "--dimension", 2, "--points", 9, "--seed", 1,
                   "--sobolev", 400, "--output", tmp_path / "t.csv") == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "numerical failure: Sobolev norm of order 400.0 is not finite on the box\n"
    assert list(tmp_path.iterdir()) == []


def test_verify_reports_a_numerical_failure_as_its_groups_fail(monkeypatch, capsys):
    monkeypatch.setattr(spectral_mod, "_step_cap", _one_lanczos_step)
    assert run("verify") == 1
    out, err = capsys.readouterr()
    lines = out.splitlines()
    assert [line.split(":")[0] for line in lines] == [
        "PASS transform-roundtrip-plancherel", "PASS fast-vs-naive-transform",
        "PASS resolvent-eigenpairs", "FAIL operator-norms", "PASS tail-bounds",
        "PASS rellich-extraction", "PASS solver-agreement",
    ]
    assert lines[3].startswith("FAIL operator-norms: numerical failure: Lanczos "
                               "did not reach tol=1e-09 within 1 steps")
    assert err.startswith("check failed: operator-norms: numerical failure: ")
    assert len(err.splitlines()) == 1
    # the lines are the results of `checks.verify` on the default grid
    results = checks.verify(transform_mod.TorusGrid(2, 9), 1)
    assert [r.name for r in results] == [name for name, _ in checks.GROUPS]
    assert results[3].failures == [results[3].detail]
    seconds = re.compile(r"\(\d+\.\d{3} s\)$")
    assert [seconds.sub("", line) for line in lines] == [
        f"{'FAIL' if r.failures else 'PASS'} {r.name}: {r.detail} " for r in results]


_analysis = transform_mod._analysis
_norm_sq_array = operators_mod.norm_sq_array


def _nan_at_one_mode(values, dimension):
    coefficients = _analysis(values, dimension)
    coefficients[(..., *(0,) * dimension)] = np.nan
    return coefficients


def _nan_norm_sq_at_one_mode(grid):
    k = _norm_sq_array(grid).copy()
    k[(-1,) * grid.dimension] = np.nan
    return k


_NON_FINITE_FIELD = (transform_mod, "_analysis", _nan_at_one_mode,
                     "spectral field contains non-finite entries")
_NON_FINITE_SYMBOL = (operators_mod, "norm_sq_array", _nan_norm_sq_at_one_mode,
                      "symbol 'resolvent' produced non-finite values on the box")


@pytest.mark.parametrize("plant, statuses", [(_NON_FINITE_FIELD, "FFFFPPF"),
                                             (_NON_FINITE_SYMBOL, "PPFFFFF")],
                         ids=["field", "symbol"])
def test_non_finite_values_fail_the_groups_that_meet_them(monkeypatch, capsys, plant,
                                                          statuses):
    # a numerical failure of its group, not a usage error (exit 2)
    module, name, fake, message = plant
    monkeypatch.setattr(module, name, fake)
    assert run("verify", "--dimension", 2, "--points", 9, "--seed", 1) == 1
    out, err = capsys.readouterr()
    lines = out.splitlines()
    assert "".join(line[0] for line in lines) == statuses
    assert f": numerical failure: {message} (" in out
    assert not err.startswith("error:")


@pytest.mark.parametrize("plant, argv", [
    (_NON_FINITE_FIELD, ("transform", "--dimension", 2, "--points", 9, "--seed", 1)),
    (_NON_FINITE_FIELD, SOLVE_ARGS),
    (_NON_FINITE_SYMBOL, SOLVE_ARGS),
], ids=["field-transform", "field-solve", "symbol-solve"])
def test_non_finite_values_exit_1_and_write_nothing(tmp_path, monkeypatch, capsys, plant,
                                                    argv):
    module, name, fake, message = plant
    monkeypatch.setattr(module, name, fake)
    assert run(*argv, "--output", tmp_path / "out.csv") == 1
    assert capsys.readouterr().err == f"numerical failure: {message}\n"
    assert list(tmp_path.iterdir()) == []


# ---------------------------------------------------------------------------
# README's CLI examples run as written.
# ---------------------------------------------------------------------------


def _readme_commands():
    blocks = re.findall(r"```sh\n(.*?)```", README.read_text(), flags=re.S)
    return [shlex.split(line)[1:] for block in blocks for line in block.splitlines()
            if line.startswith("toruskit ")]


def test_readme_has_cli_examples():
    assert {argv[0] for argv in _readme_commands()} >= {
        "spectrum", "transform", "truncate", "embed-demo", "solve", "bench", "verify"
    }


@pytest.mark.parametrize("argv", _readme_commands(), ids=" ".join)
def test_readme_cli_example_runs(tmp_path, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    assert cli.main(argv) == 0


# ---------------------------------------------------------------------------
# The JSON writer: byte for byte what json.dumps(doc, indent=2) writes.
# ---------------------------------------------------------------------------


def _oracle(doc) -> str:
    return json.dumps(doc, indent=2) + "\n"


def _json_text(doc) -> str:
    return "".join(cli._json_chunks(doc))


def _table_rows(columns) -> list[list]:
    """The row lists of a column table, built here by `tolist` and `zip`."""
    return [list(row) for row in zip(*(column.tolist() for column in columns))]


def _as_rows(doc):
    """`doc` with every column table replaced by its rows: a keyed table's
    as one dict per row, an unkeyed table's as row lists."""
    if isinstance(doc, cli._Columns):
        rows = _table_rows(doc.columns)
        return rows if doc.keys is None else [dict(zip(doc.keys, row)) for row in rows]
    if isinstance(doc, dict):
        return {key: _as_rows(value) for key, value in doc.items()}
    if isinstance(doc, (list, tuple)):
        return [_as_rows(value) for value in doc]
    return doc


def _csv_oracle(header, rows) -> str:
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows([header, *rows])
    return out.getvalue()


_finite = st.floats(allow_nan=False, allow_infinity=False)
_leaves = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(), _finite.map(np.float64),
    st.text(), st.sampled_from(["é", "\u2603", "a\"b\\c\n\t\x00", "\U0001f600"]),
)


@st.composite
def _numeric_rows(draw):
    """Equal-width rows; each column is all ints or all floats, possibly with
    NaN or inf, and now and then one cell of another type."""
    kinds = draw(st.lists(st.sampled_from([st.integers(), _finite, _finite, st.floats()]),
                          min_size=1, max_size=4))
    rows = draw(st.lists(st.tuples(*kinds).map(list), min_size=1, max_size=8))
    if draw(st.integers(0, 3)) == 0:
        row = draw(st.integers(0, len(rows) - 1))
        rows[row][draw(st.integers(0, len(kinds) - 1))] = draw(_leaves)
    return rows


_COLUMN_CELLS = {
    "int64": (st.integers(-2**63, 2**63 - 1), np.int64),
    "float64": (st.floats(), np.float64),
    "big-int": (st.integers(-2**100, 2**100), object),
}


@st.composite
def _column_tables(draw, max_rows=12):
    """Keyed tables of equal-length columns: int64 and float64 arrays (NaN
    and inf included) and object arrays of Python ints, under distinct keys
    of any text."""
    length = draw(st.integers(0, max_rows))
    kinds = draw(st.lists(st.sampled_from(sorted(_COLUMN_CELLS)), min_size=1, max_size=4))
    keys = draw(st.lists(st.text(max_size=5), min_size=len(kinds), max_size=len(kinds),
                         unique=True))
    columns = []
    for kind in kinds:
        cells, dtype = _COLUMN_CELLS[kind]
        columns.append(np.array(draw(st.lists(cells, min_size=length, max_size=length)),
                                dtype=dtype))
    return cli._Columns(tuple(columns), tuple(keys))


_tables = _column_tables(max_rows=4)
_trees = st.recursive(
    st.one_of(_leaves, _numeric_rows(), _tables,
              _tables.map(lambda table: cli._Columns(table.columns))),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=3).map(tuple),
        st.dictionaries(st.text(max_size=5), children, max_size=4),
        st.dictionaries(st.integers(), children, max_size=2),
    ),
    max_leaves=20,
)


@settings(max_examples=200, deadline=None)
@given(_trees)
def test_json_writer_matches_json_dumps(doc):
    """Any document, with keyed and unkeyed tables nested at any depth,
    against json.dumps on the same document with its tables as rows."""
    assert _json_text(doc) == _oracle(_as_rows(doc))


# The text `_json_chunks` tries first for a table's placeholder string.
_PLACEHOLDER = "toruskit-table-0"
_TABLE = cli._Columns((np.array([1, 2]), np.array([0.5, float("nan")])), ("a", "b"))


@pytest.mark.parametrize(
    "doc",
    [
        [[1, 2.0], [True, 3.0]],
        [[1, 2.0], [3, 4]],
        [[1.5, 1], [np.float64(2.5), 2]],
        {"levels": [np.float64(1.5), [np.float64(-0.0), 1]]},
        [[0.5, float("nan")], [1.5, 2.5]],
        [[float("inf"), 1], [-float("inf"), 2]],
        [[], []],
        [[]],
        [],
        {},
        {"a": [], "b": {}, "c": [[]]},
        [[1, 2], [3]],
        [[1.0], [2.0, 3.0]],
        [(1, 2), (3, 4)],
        [[1, 2], (3, 4)],
        {1: [[1, 2]], "x": None},
        {"text": _PLACEHOLDER, "table": _TABLE},
        {_PLACEHOLDER: _TABLE, "next": ["toruskit-table-1", _TABLE]},
        # an escaped quote before the text also spells the quoted placeholder
        [_PLACEHOLDER, f"\\\"{_PLACEHOLDER}", f'"{_PLACEHOLDER}"', _TABLE],
        [_PLACEHOLDER],
        _TABLE,
        {"outer": [{"inner": cli._Columns(_TABLE.columns)}], "keyed": (_TABLE,)},
    ],
    ids=["bool-in-row", "mixed-int-float-column", "np-float64-in-column",
         "np-float64-leaves", "nan-in-row", "inf-in-row", "empty-rows", "one-empty-row",
         "empty-list", "empty-dict", "nested-empties", "ragged-rows",
         "ragged-float-rows", "tuple-rows", "list-and-tuple-rows", "int-key",
         "placeholder-text", "placeholder-key-and-next", "placeholder-after-escaped-quote",
         "placeholder-text-no-table",
         "top-level-table", "nested-tables"],
)
def test_json_writer_named_cases(doc):
    assert _json_text(doc) == _oracle(_as_rows(doc))


@pytest.mark.parametrize("value", [object(), np.int64(3), {1, 2}, np.zeros(2)],
                         ids=["object", "np-int64", "set", "ndarray"])
def test_json_writer_raises_what_json_dumps_raises(value):
    doc = {"table": _TABLE, "value": value}
    with pytest.raises(TypeError) as expected:
        json.dumps(value)
    with pytest.raises(TypeError, match=f"^{re.escape(str(expected.value))}$"):
        _json_text(doc)


def _check_both_formats(table):
    """Check a keyed table and its unkeyed copy in JSON, alone and nested,
    and the keyed table in CSV under plain keys (CSV keys are never quoted);
    returns the unkeyed copy's JSON text."""
    rows = _table_rows(table.columns)
    unkeyed = cli._Columns(table.columns)
    for doc in (table, unkeyed, {"levels": table}, {"levels": [unkeyed]}):
        assert _json_text(doc) == _oracle(_as_rows(doc))
    header = [f"c{j}" for j in range(len(table.columns))]
    csv_table = cli._Columns(table.columns, tuple(header))
    assert "".join(cli._csv_chunks(csv_table)) == _csv_oracle(header, rows)
    return _json_text(unkeyed)


@settings(max_examples=200, deadline=None)
@given(_column_tables(), st.integers(1, 5))
def test_column_writer_matches_json_dumps_and_csv_writer(table, chunk_rows):
    """Both formats, with tables that span several chunks of rows."""
    with mock.patch.object(cli, "_CHUNK_ROWS", chunk_rows):
        _check_both_formats(table)


_HUGE = 1.7976931348623157e308


@pytest.mark.parametrize(
    "columns",
    [
        [np.array([0, -1, 2**63 - 1, -2**63], dtype=np.int64),
         np.array([4, 8, 12, 6], dtype=np.int64)],
        [np.array([-0.0, 5e-324, 0.1, -2.5]), np.array([_HUGE, _HUGE, -_HUGE, 1.0])],
        [np.array([_HUGE, _HUGE])],
        [np.array([2**63, -2**63 - 1, 2**200], dtype=object),
         np.array([1, 2, 3], dtype=object)],
        [np.array([float("nan"), float("inf"), -float("inf"), 1.5]),
         np.array([float("nan"), 0.5, float("inf"), -0.0])],
        [np.array([1.0]), np.array([7], dtype=np.int64)],
        [np.array([], dtype=np.float64), np.array([], dtype=np.int64)],
    ],
    ids=["int64", "float64-edges", "float64-sum-overflows", "object-past-int64",
         "nan-and-inf", "one-row", "empty"],
)
def test_column_writer_named_cases(columns):
    keys = tuple(f"k{j}" for j in range(len(columns)))
    text = _check_both_formats(cli._Columns(tuple(columns), keys))
    if any(value != value for row in _table_rows(columns) for value in row):
        assert "NaN" in text and "Infinity" in text and "nan" not in text


JSON_COMMANDS = [
    *(("spectrum", "--dimension", n, "--level-cap", cap, "--format", "json")
      for n in (1, 2, 3) for cap in (0, 1, 50, 2500)),
    ("spectrum", "--dimension", 2, "--level-cap", 40000, "--format", "json"),
    ("transform", "--dimension", 1, "--points", 17, "--seed", 2, "--format", "json"),
    ("transform", "--dimension", 3, "--points", 5, "--seed", 2, "--format", "json"),
    ("solve", "--dimension", 2, "--points", 9, "--seed", 4, "--format", "json"),
    ("truncate", "--dimension", 2, "--points", 11, "--truncation", 2, "--seed", 1,
     "--format", "json"),
    ("embed-demo", *EMBED_ARGS[1:], "--format", "json"),
    ("embed-demo", *EMBED_ARGS[1:], "--format", "csv"),
    ("bench", "--dimension", 1, "--points", 9, "--seed", 1, "--repetitions", 1,
     "--format", "json"),
]


@pytest.mark.parametrize("args", JSON_COMMANDS, ids=lambda args: " ".join(map(str, args)))
def test_every_json_file_has_the_json_dumps_layout(tmp_path, monkeypatch, args):
    """The document a data command writes, spectral and grid fields included
    (transform and solve), equals the oracle applied to the same document
    with its column tables turned into row lists here; so does the JSON file
    re-encoded from what it reads back, which keeps files comparable byte
    for byte across versions.  A csv embed-demo writes its JSON sidecar."""
    docs, write = [], cli._json_chunks
    monkeypatch.setattr(cli, "_json_chunks", lambda doc: docs.append(doc) or write(doc))
    assert run(*args, "--output", tmp_path / f"out.{args[-1]}") == 0
    [doc] = docs
    assert "".join(write(doc)) == _oracle(_as_rows(doc))
    text = (tmp_path / "out.json").read_text()
    assert text == _oracle(json.loads(text))


CSV_COMMANDS = [
    ("spectrum", "--dimension", 2, "--level-cap", 40000),
    ("spectrum", "--dimension", 3, "--level-cap", 50),
    ("transform", "--dimension", 2, "--points", 9, "--seed", 1, "--sobolev", 1.0),
    ("transform", "--dimension", 3, "--points", 5, "--seed", 2),
    ("truncate", "--dimension", 2, "--points", 11, "--truncation", 2, "--seed", 1),
    EMBED_ARGS,
    SOLVE_ARGS,
    ("bench", "--dimension", 1, "--points", 9, "--seed", 1, "--repetitions", 2),
]


@pytest.mark.parametrize("args", CSV_COMMANDS, ids=lambda args: " ".join(map(str, args)))
def test_every_csv_file_is_what_csv_writer_writes(tmp_path, monkeypatch, args):
    """The table a data command writes as CSV equals stdlib `csv.writer` on
    the same rows, built here from its columns, and `csv.reader` reads every
    float back bit for bit."""
    tables, write = [], cli._csv_chunks
    monkeypatch.setattr(cli, "_csv_chunks",
                        lambda table: tables.append(table) or write(table))
    out = tmp_path / "out.csv"
    assert run(*args, "--format", "csv", "--output", out) == 0
    [table] = tables
    # spectrum writes a tuple of tables, one per operator, under one header
    parts = table if isinstance(table, tuple) else (table,)
    assert len(parts) == (2 if args[0] == "spectrum" else 1)
    header = parts[0].keys
    assert all(part.keys == header for part in parts)
    rows = [row for part in parts for row in _table_rows(part.columns)]
    text = out.read_text()
    assert text == _csv_oracle(header, rows)
    header_read, *rows_read = csv.reader(io.StringIO(text))
    assert header_read == list(header) and len(rows_read) == len(rows)
    floats = [(cell, value) for line, row in zip(rows_read, rows)
              for cell, value in zip(line, row) if type(value) is float]
    assert floats
    assert all(float(cell).hex() == value.hex() for cell, value in floats)


@pytest.mark.parametrize("seed", [1, 2, 3, 7, 11])
def test_verify_3d_takes_at_most_80_fft_calls(monkeypatch, seed):
    # the groups transform their independent fields as stacks, and a PCG
    # iteration is one stacked round trip: 74 calls of the two FFT helpers
    # at each seed, where each field going alone took 254
    calls = []
    for name in ("_analysis", "_synthesis"):
        exact = getattr(transform_mod, name)
        monkeypatch.setattr(transform_mod, name,
                            lambda values, n, exact=exact: calls.append(1) or exact(values, n))
    assert run("verify", "--dimension", 3, "--points", 9, "--seed", seed) == 0
    assert len(calls) <= 80


@pytest.mark.parametrize("seed", [1, 2, 3, 7, 11])
def test_verify_3d_validates_at_most_400_fields(monkeypatch, seed):
    # a stack is validated once, as one field is: 197 validations at each
    # seed, where validating each field of a stack on its own took 686
    calls = []
    exact = transform_mod._validated_values
    monkeypatch.setattr(transform_mod, "_validated_values",
                        lambda *args: calls.append(1) or exact(*args))
    assert run("verify", "--dimension", 3, "--points", 9, "--seed", seed) == 0
    assert len(calls) <= 400


def _captured(monkeypatch, module, name):
    """Patch module.name to record the data of the field it is given, as a
    (k, *grid.shape) stack."""
    seen, exact = [], getattr(module, name)

    def record(arg, *rest, **kwargs):
        data = arg.values if isinstance(arg, transform_mod.GridField) else arg.coefficients
        seen.append(data.reshape(-1, *arg.grid.shape))
        return exact(arg, *rest, **kwargs)

    monkeypatch.setattr(module, name, record)
    return seen


@pytest.mark.parametrize("n, m", [(1, 15), (3, 9)])
def test_verify_draws_its_stacks_as_it_drew_one_field_at_a_time(monkeypatch, n, m):
    grid, seed = transform_mod.TorusGrid(n, m), 7
    forwards = _captured(monkeypatch, transform_mod, "forward")
    checks._verify_transforms(grid, seed)
    rng = np.random.default_rng(seed)
    fields, reals = [], []
    for _ in range(20):
        fields.append(transform_mod.random_field(grid, rng).values)
        reals.append(rng.standard_normal(grid.shape) + 0j)
    # a stack's real fields, then its complex fields
    for got, expected in ((forwards[1::2], fields), (forwards[0::2], reals)):
        got = [u for stack in got for u in stack]
        assert len(got) == 20
        assert all(np.array_equal(u, e) for u, e in zip(got, expected))

    monkeypatch.undo()
    analysed = _captured(monkeypatch, transform_mod, "naive_forward")
    synthesised = _captured(monkeypatch, transform_mod, "naive_inverse")
    checks._verify_fast_vs_naive(grid, seed)
    rng = np.random.default_rng(seed)
    assert len(analysed) == len(synthesised) == 1
    # six spectral draws, a field's then a spectral field's, alternately
    for i in range(3):
        u, c = (cli._random_spectral_field(grid, rng).coefficients for _ in range(2))
        assert np.array_equal(analysed[0][i], u)
        assert np.array_equal(synthesised[0][i], c)

    monkeypatch.undo()
    profiled = _captured(monkeypatch, embedding_mod, "tail_profile")
    assert checks._verify_tail_bounds(grid, seed) == ("50 fields, all cutoffs", [])
    rng = np.random.default_rng(seed)
    drawn = [c for fields in profiled for c in fields]
    assert len(drawn) == 50
    for c in drawn:
        assert np.array_equal(c, cli._random_spectral_field(grid, rng).coefficients)
