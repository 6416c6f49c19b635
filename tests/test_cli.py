import itertools
import json
import re
import shlex
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toruskit import MultiplierSymbol, cli, field_from_doc, spectral as spectral_mod
from toruskit import embedding as embedding_mod
from toruskit import operators as operators_mod
from toruskit import solver as solver_mod
from toruskit import transform as transform_mod

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


def test_bench_deterministic_apart_from_timing(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ("bench", "--dimension", 2, "--points", 9, "--seed", 3, "--repetitions", 2)
    assert run(*args, "--output", a) == 0
    assert run(*args, "--output", b) == 0

    def strip_timing(path):
        rows = [line.split(",") for line in path.read_text().strip().splitlines()]
        time_col = rows[0].index("median_seconds")
        return [[v for i, v in enumerate(r) if i != time_col] for r in rows]

    assert strip_timing(a) == strip_timing(b)


def test_bench_csv_schema(tmp_path):
    out = tmp_path / "bench.csv"
    assert (
        run("bench", "--dimension", 2, "--points", 9, "--seed", 42,
            "--repetitions", 3, "--output", out)
        == 0
    )
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "method,n,M,seed,median_seconds,residual_l2,iterations"
    rows = [line.split(",") for line in lines[1:]]
    assert [row[0] for row in rows] == ["multiplier", "cg"]
    for row in rows:
        assert row[1:4] == ["2", "9", "42"]
        assert float(row[4]) >= 0.0
    assert rows[0][-1] == "0" and int(rows[1][-1]) > 0


def test_transform_json_roundtrips(tmp_path):
    out = tmp_path / "field.json"
    assert (
        run("transform", "--dimension", 1, "--points", 9, "--seed", 2,
            "--sobolev", 1.0, "--format", "json", "--output", out)
        == 0
    )
    doc = json.loads(out.read_text())
    assert doc["kind"] == "spectral"
    field = field_from_doc(doc)
    assert field.grid.points_per_axis == 9


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


def test_verify_detects_wrong_resolvent_symbol(monkeypatch, capsys):
    wrong = MultiplierSymbol("resolvent", of_norm_sq=lambda k: 1.0 / (2.0 + k))
    monkeypatch.setattr(spectral_mod, "resolvent_symbol", lambda: wrong)
    assert run("verify") == 1
    assert "FAIL resolvent-eigenpairs" in capsys.readouterr().out


def test_verify_detects_wrong_fast_transform(monkeypatch, capsys):
    forward = transform_mod.forward

    def perturbed(u):
        c = forward(u)
        c.coefficients[(1,) * u.grid.dimension] += 1e-6
        return c

    monkeypatch.setattr(transform_mod, "forward", perturbed)
    assert run("verify") == 1
    assert "FAIL fast-vs-naive-transform" in capsys.readouterr().out


def test_verify_refuses_grids_above_its_limit(capsys):
    # 91**2 = 8281 points; the O(size**2) groups would run for minutes
    assert run("verify", "--dimension", 2, "--points", 91) == 2
    assert "points" in capsys.readouterr().err


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
    # unpreconditioned CG needs about 0.77 * M iterations on a 1-D grid
    out = tmp_path / "sol.csv"
    assert run("solve", "--dimension", 1, "--points", 1501, "--seed", 0,
               "--output", out) == 0
    rows = out.read_text().strip().splitlines()
    assert int(rows[2].split(",")[2]) > 1000


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

TIMING_COLUMNS = ("wall_time", "median_seconds")


def _cell(text):
    for kind in (int, float):
        try:
            return kind(text)
        except ValueError:
            pass
    return text


def _csv_values(path):
    header, *rows = [line.split(",") for line in path.read_text().splitlines()]
    keep = [i for i, name in enumerate(header) if name not in TIMING_COLUMNS]
    return [[_cell(row[i]) for i in keep] for row in rows]


def _record_values(records):
    return [[v for k, v in r.items() if k not in TIMING_COLUMNS] for r in records]


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
    u = _inverse(c)
    u.values[(0,) * c.grid.dimension] += 1e-6
    return u


def _scaled_cg(f, tol):
    u, rep = _solve_cg(f, tol=tol)
    u = u * (1 + 1e-8)
    residual = solver_mod._residual_l2(u, f)
    return u, solver_mod.SolveReport(residual, "cg", rep.iterations, rep.wall_time)


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
        (embedding_mod, "tail_bound_check",
         lambda c, n: embedding_mod.TailBound(1.0, 0.5, False), EMBED_ARGS,
         "tail-bounds"),
        (embedding_mod, "pairwise_l2_distances", lambda seq, indices: [0.1, 0.9],
         EMBED_ARGS, "rellich-extraction"),
        (operators_mod, "resolvent_symbol",
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
    coefficients[xi + grid.box_radius] = 1.0
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
    f = solver_mod.random_field(transform_mod.TorusGrid(1, 101), np.random.default_rng(0))
    u = _perturbed_solution(f, xi, residual)
    report = solver_mod.SolveReport(solver_mod._residual_l2(u, f), "cg", 1, 0.0)
    monkeypatch.setattr(solver_mod, "solve_cg", lambda f, tol: (u, report))

    _, (_, rep_cg), _, failures = cli._check_solve(f)
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


def test_solve_check_rejects_a_solution_above_the_resolvent_norm(monkeypatch):
    solve_multiplier = solver_mod.solve_multiplier

    def inflated(f):
        u, rep = solve_multiplier(f)
        return u * (2 * transform_mod.grid_l2_norm(f) / transform_mod.grid_l2_norm(u)), rep

    monkeypatch.setattr(solver_mod, "solve_multiplier", inflated)
    f = solver_mod.random_field(transform_mod.TorusGrid(2, 9), np.random.default_rng(0))
    *_, failures = cli._check_solve(f)
    assert any(failure.startswith("||u||") for failure in failures)


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


_trees = st.recursive(
    st.one_of(_leaves, _numeric_rows()),
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
    assert cli._json_text(doc) == _oracle(doc)


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
    ],
    ids=["bool-in-row", "mixed-int-float-column", "np-float64-in-column",
         "np-float64-leaves", "nan-in-row", "inf-in-row", "empty-rows", "one-empty-row",
         "empty-list", "empty-dict", "nested-empties", "ragged-rows",
         "ragged-float-rows", "tuple-rows", "list-and-tuple-rows", "int-key"],
)
def test_json_writer_named_cases(doc):
    assert cli._json_text(doc) == _oracle(doc)


JSON_COMMANDS = [
    *(("spectrum", "--dimension", n, "--level-cap", cap, "--format", "json")
      for n in (1, 2, 3) for cap in (0, 1, 50, 2500)),
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
    (transform and solve), equals the oracle; so does the JSON file
    re-encoded from what it reads back, which keeps files comparable byte
    for byte across versions.  A csv embed-demo writes its JSON sidecar."""
    docs, write = [], cli._json_text
    monkeypatch.setattr(cli, "_json_text", lambda doc: docs.append(doc) or write(doc))
    assert run(*args, "--output", tmp_path / f"out.{args[-1]}") == 0
    [doc] = docs
    assert write(doc) == _oracle(doc)
    text = (tmp_path / "out.json").read_text()
    assert text == _oracle(json.loads(text))
