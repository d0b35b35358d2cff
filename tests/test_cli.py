"""Command-line interface: JSON pipelines, text format, exit codes."""

import json

import pytest

from morin_census.cli import main


def run(capsys, *argv):
    """Invoke the CLI in-process and capture (exit_code, stdout, stderr)."""
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ------------------------------------------------------------- happy paths
def test_gen_emits_map_json(capsys):
    """gen produces a well-formed serialized map."""
    code, out, _ = run(capsys, "gen", "--degrees", "2,3", "--seed", "4")
    assert code == 0
    d = json.loads(out)
    assert d["degrees"] == [2, 3] and d["n"] == 2


def test_gen_classify_round_trip(tmp_path, capsys):
    """A generated map file feeds classify at a chosen point."""
    path = tmp_path / "m.json"
    code, _, _ = run(capsys, "gen", "--degrees", "2,2,2,2", "--kind", "complex",
                     "--seed", "1", "--out", str(path))
    assert code == 0 and path.exists()
    code, out, _ = run(capsys, "classify", "--map", str(path),
                       "--point", "1,0,0,0")
    assert code == 0
    verdict = json.loads(out)
    assert verdict["class"] in {"regular", "A1", "A2", "A3", "Ak",
                                "corank_ge_2", "indeterminate"}


def test_proper_subcommand_rational(tmp_path, capsys):
    """proper reports the Macaulay certificate for rational maps."""
    path = tmp_path / "m.json"
    run(capsys, "gen", "--degrees", "2,2", "--seed", "2", "--out", str(path))
    code, out, _ = run(capsys, "proper", "--map", str(path))
    assert code == 0
    d = json.loads(out)
    assert d["verdict"] == "proper"
    assert "has full rank" in d["certificate"]


def test_proper_subcommand_shared_zero(tmp_path, capsys):
    """proper on (x1^2, x1 x2, x3^2, x4^2) reports not_proper with its witness."""
    terms = ([2, 0, 0, 0], [1, 1, 0, 0], [0, 0, 2, 0], [0, 0, 0, 2])
    doc = {"n": 4, "degrees": [2, 2, 2, 2], "kind": "rational",
           "components": [[{"exps": e, "coeff": "1"}] for e in terms]}
    path = tmp_path / "shared.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "proper", "--map", str(path))
    assert code == 0
    d = json.loads(out)
    assert d["verdict"] == "not_proper"
    assert len(d["witness"]) == 4 and all(len(pair) == 2 for pair in d["witness"])


def test_gate_subcommand(capsys):
    """gate reports tag and witness as JSON."""
    code, out, _ = run(capsys, "gate", "--degrees", "2,4,6,8")
    assert code == 0
    d = json.loads(out)
    assert d["tag"] == "never_finite" and d["witness"] == "gcd(d1..d4)=2"


def test_census_subcommand(capsys):
    """census emits the six counts."""
    code, out, _ = run(capsys, "census", "--degrees", "2,3,5,7")
    assert code == 0
    d = json.loads(out)
    assert d["counts"]["I22"] == 1940


def test_survey_subcommand_json(capsys):
    """survey emits the aggregate report."""
    code, out, _ = run(capsys, "survey", "--degrees", "2,2,2,2",
                       "--maps", "1", "--lines", "3", "--seed", "5")
    assert code == 0
    d = json.loads(out)
    assert d["histogram"] == {"A1": d["points_found"]}


def test_seed_and_tol_where_used(tmp_path, capsys):
    """classify takes --tol and survey takes --seed and --tol."""
    path = tmp_path / "m.json"
    run(capsys, "gen", "--degrees", "2,2", "--kind", "complex",
        "--seed", "1", "--out", str(path))
    code, out, _ = run(capsys, "classify", "--map", str(path),
                       "--point", "1,0", "--tol", "1e-6")
    assert code == 0 and "class" in json.loads(out)
    code, out, _ = run(capsys, "survey", "--degrees", "2,2,2,2", "--maps", "1",
                       "--lines", "2", "--seed", "5", "--tol", "1e-6")
    assert code == 0 and json.loads(out)["seed"] == 5


def test_text_format(capsys):
    """--format text renders a one-line summary instead of JSON."""
    code, out, _ = run(capsys, "gate", "--degrees", "2,3,5,7",
                       "--format", "text")
    assert code == 0
    assert "eligible_generic" in out
    with pytest.raises(json.JSONDecodeError):
        json.loads(out)


def test_out_writes_file(tmp_path, capsys):
    """--out sends the payload to a file, leaving stdout quiet."""
    path = tmp_path / "gate.json"
    code, out, _ = run(capsys, "gate", "--degrees", "2,3,5,7",
                       "--out", str(path))
    assert code == 0 and out == ""
    assert json.loads(path.read_text())["tag"] == "eligible_generic"


def test_classify_accepts_complex_points(tmp_path, capsys):
    """Point parsing handles complex literals."""
    path = tmp_path / "m.json"
    run(capsys, "gen", "--degrees", "2,2", "--kind", "complex",
        "--seed", "1", "--out", str(path))
    code, out, _ = run(capsys, "classify", "--map", str(path),
                       "--point", "1+1j,0.5")
    assert code == 0
    assert "class" in json.loads(out)


# ------------------------------------------------------------- failure paths
def test_usage_error_exit_code_is_one(capsys):
    """Malformed degrees are a usage error: exit 1."""
    code, _, err = run(capsys, "gate", "--degrees", "2;3;5;7")
    assert code == 1 and err


def test_fractional_degrees_are_usage_error(capsys):
    """A fractional degree is a usage error, not a truncated tuple."""
    for sub in ("gate", "census", "gen"):
        code, out, err = run(capsys, sub, "--degrees", "2.5,3,5,7")
        assert code == 1 and err and not out


def test_wrong_degree_count_is_usage_error(capsys):
    """gate and census require exactly four degrees."""
    assert run(capsys, "gate", "--degrees", "2,3")[0] == 1
    assert run(capsys, "census", "--degrees", "2,3")[0] == 1


def test_unused_seed_and_tol_are_usage_errors(tmp_path, capsys):
    """Subcommands that draw no random numbers take no --seed, and those
    that classify nothing take no --tol."""
    assert run(capsys, "census", "--degrees", "2,3,5,7", "--seed", "1")[0] == 1
    assert run(capsys, "gate", "--degrees", "2,3,5,7", "--tol", "1e-6")[0] == 1
    assert run(capsys, "gen", "--degrees", "2,2", "--tol", "1e-6")[0] == 1
    path = tmp_path / "m.json"
    run(capsys, "gen", "--degrees", "2,2", "--seed", "2", "--out", str(path))
    assert run(capsys, "proper", "--map", str(path), "--seed", "1")[0] == 1
    assert run(capsys, "classify", "--map", str(path), "--point", "1,0",
               "--seed", "1")[0] == 1


def test_missing_map_file_is_usage_error(capsys):
    """A nonexistent map path exits 1."""
    code, _, err = run(capsys, "classify", "--map", "/no/such/file.json",
                       "--point", "1,0")
    assert code == 1 and err


def test_point_length_mismatch_is_usage_error(tmp_path, capsys):
    """A point of the wrong arity exits 1."""
    path = tmp_path / "m.json"
    run(capsys, "gen", "--degrees", "2,2", "--seed", "1", "--out", str(path))
    code, _, _ = run(capsys, "classify", "--map", str(path), "--point", "1,0,0")
    assert code == 1


def test_out_of_range_arguments_are_usage_errors(tmp_path, capsys):
    """Negative sampling counts, a tolerance outside (0, 1), a coefficient
    bound below 1 and a non-finite point coordinate exit 1 with a message,
    instead of an empty report, a wrong verdict or a failed SVD."""
    path = tmp_path / "m.json"
    run(capsys, "gen", "--degrees", "2,2,2,2", "--kind", "complex",
        "--seed", "1", "--out", str(path))
    classify = ("classify", "--map", str(path), "--point")
    for argv in (("survey", "--degrees", "2,2,2,2", "--maps", "-1"),
                 ("survey", "--degrees", "2,2,2,2", "--lines", "-3"),
                 ("survey", "--degrees", "2,2,2,2", "--maps", "1", "--tol", "0"),
                 (*classify, "1,0,0,0", "--tol", "-1"),
                 (*classify, "1,0,0,0", "--tol", "nan"),
                 (*classify, "1,nan,0,0"),
                 (*classify, "inf,0,0,0"),
                 ("gen", "--degrees", "2,2", "--bound", "0"),
                 ("gen", "--degrees", "2,2", "--bound", "-1")):
        code, out, err = run(capsys, *argv)
        assert code == 1 and err and not out, argv


def test_classify_kmax_below_one_is_usage_error(tmp_path, capsys):
    """--kmax 0 is a count outside its range, like --lines -1: exit 1."""
    path = tmp_path / "m.json"
    run(capsys, "gen", "--degrees", "2,2,2,2", "--kind", "complex",
        "--seed", "1", "--out", str(path))
    code, out, err = run(capsys, "classify", "--map", str(path),
                         "--point", "1,0,0,0", "--kmax", "0")
    assert code == 1 and out == ""
    assert "k_max must be >= 1" in err


def test_unknown_subcommand_is_usage_error(capsys):
    """Unknown subcommands exit 1, not argparse's default 2."""
    assert run(capsys, "frobnicate")[0] == 1


def test_computation_error_exit_code_is_two(capsys):
    """A half-integral census is a computation failure: exit 2."""
    code, _, err = run(capsys, "census", "--degrees", "1,2,2,2")
    assert code == 2
    assert "not an integer" in err
