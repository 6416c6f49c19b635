import json

import pytest

from toruskit import cli, field_from_doc, spectral as spectral_mod


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


def test_spectrum_rejects_negative_cap(tmp_path):
    assert (
        run("spectrum", "--dimension", 2, "--level-cap", -1,
            "--output", tmp_path / "x.csv")
        == 2
    )


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
        run("bench", "--dimension", 1, "--points", 9, "--seed", 1,
            "--repetitions", 1, "--output", out)
        == 0
    )
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "method,n,M,seed,median_seconds,residual_l2,iterations"
    mult = lines[1].split(",")
    assert mult[0] == "multiplier" and mult[-1] == "0"


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


def test_verify_other_dimension(capsys):
    assert run("verify", "--dimension", 1, "--points", 27, "--seed", 2) == 0
    assert "FAIL" not in capsys.readouterr().out


def test_verify_even_points_rejected():
    assert run("verify", "--points", 8) == 2


def test_verify_detects_tampering(monkeypatch, capsys):
    monkeypatch.setattr(spectral_mod, "truncation_error_exact", lambda n: 0.123)
    assert run("verify") == 1
    assert "FAIL operator-norms" in capsys.readouterr().out


def test_dimension_out_of_range(tmp_path):
    assert (
        run("spectrum", "--dimension", 4, "--level-cap", 1,
            "--output", tmp_path / "s.csv")
        == 2
    )


def test_large_prime_points_is_a_usage_error(tmp_path, capsys):
    code = run("transform", "--dimension", 1, "--points", 4099, "--seed", 0,
               "--output", tmp_path / "t.csv")
    assert code == 2
    assert "points" in capsys.readouterr().err
    assert not (tmp_path / "t.csv").exists()


def test_unknown_command():
    assert run("frobnicate") == 2


def test_help_exits_zero():
    assert run("--help") == 0
