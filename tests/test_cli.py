import json

import pytest

from deltalin import cli
from deltalin.cli import main
from deltalin.errors import AlgebraInvariantError


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_solve_sl_contract(capsys, tmp_path):
    code, out, err = run_cli(
        capsys,
        "solve", "--p", "5", "--m", "1", "--prec", "12", "--n", "2",
        "--kind", "sl", "--alpha", "random", "--u0", "random-sl", "--seed", "1",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["report"]["residual_valuation"] == "inf"
    assert payload["report"]["iterations"] == 12
    [integral] = payload["report"]["integral_values"]
    assert integral["name"] == "det"
    # det(u) = 1 exactly: digit vector of the unit element
    assert integral["value"] == [[1] + [0] * 11]


def test_solve_is_byte_deterministic(capsys):
    argv = [
        "solve", "--p", "7", "--m", "2", "--prec", "10", "--n", "2",
        "--kind", "so", "--variant", "sp", "--seed", "5",
    ]
    code1, out1, _ = run_cli(capsys, *argv)
    code2, out2, _ = run_cli(capsys, *argv)
    assert code1 == code2 == 0
    assert out1 == out2


def test_solve_to_file_then_verify(capsys, tmp_path):
    out_path = tmp_path / "report.json"
    code, _, _ = run_cli(
        capsys,
        "solve", "--p", "5", "--n", "2", "--kind", "gl", "--seed", "2",
        "--prec", "10", "--output", str(out_path),
    )
    assert code == 0
    code, out, _ = run_cli(capsys, "verify", "--input", str(out_path))
    assert code == 0
    assert json.loads(out)["pass"] is True


def test_verify_rejects_tampered_solution(capsys, tmp_path):
    out_path = tmp_path / "report.json"
    run_cli(
        capsys,
        "solve", "--p", "5", "--n", "2", "--kind", "gl", "--seed", "3",
        "--prec", "10", "--output", str(out_path),
    )
    payload = json.loads(out_path.read_text())
    digits = payload["report"]["solution"]["entries"][0][0]
    digits[4] = (digits[4] + 1) % 5  # flip one digit
    out_path.write_text(json.dumps(payload))
    code, out, _ = run_cli(capsys, "verify", "--input", str(out_path))
    assert code == 1
    report = json.loads(out)
    assert report["pass"] is False
    assert report["residual_valuation"] != "inf"


def test_usage_errors_exit_2(capsys, tmp_path):
    code, _, err = run_cli(capsys, "solve", "--p", "4", "--n", "2", "--kind", "gl")
    assert code == 2
    assert "odd prime" in err

    code, _, err = run_cli(
        capsys, "solve", "--p", "5", "--n", "2", "--kind", "so", "--seed", "1"
    )
    assert code == 2  # missing variant

    code, _, err = run_cli(
        capsys, "solve", "--p", "5", "--n", "5", "--kind", "sl", "--seed", "1"
    )
    assert code == 2
    assert "p must not divide n" in err

    code, _, _ = run_cli(capsys, "solve", "--p", "5", "--n", "2", "--kind", "nope")
    assert code == 2

    missing = tmp_path / "missing.json"
    code, _, err = run_cli(capsys, "verify", "--input", str(missing))
    assert code == 2

    hostile = {
        "digits.json": b"9" * 5000,  # over the int string-conversion digit limit
        "utf16.json": b"\xff\xfe{}",  # not UTF-8
        "deep.json": b"[" * 200000,  # nesting past the recursion limit
    }
    for name, data in hostile.items():
        path = tmp_path / name
        path.write_bytes(data)
        code, out, err = run_cli(capsys, "verify", "--input", str(path))
        assert code == 2, name
        assert out == "" and err.startswith("error: cannot read JSON"), name

    code, out, err = run_cli(
        capsys, "galois", "--p", "5", "--n", "2", "--kind", "gl", "--torsion", "4",
        "--prec", "6", "--samples", "-1",
    )
    assert code == 2
    assert out == "" and err.startswith("error: ") and "samples" in err


@pytest.mark.parametrize("field", ["ring", "kind", "n", "alpha"])
def test_verify_spec_missing_field_is_usage_error(capsys, tmp_path, field):
    out_path = tmp_path / "report.json"
    run_cli(
        capsys,
        "solve", "--p", "5", "--n", "1", "--kind", "gl", "--seed", "2",
        "--prec", "6", "--output", str(out_path),
    )
    payload = json.loads(out_path.read_text())
    del payload["spec"][field]
    out_path.write_text(json.dumps(payload))
    code, out, err = run_cli(capsys, "verify", "--input", str(out_path))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and repr(field) in err
    assert "Traceback" not in err


def _verify_payload_error(capsys, tmp_path, edit):
    """Solve to a file, apply `edit` to the JSON payload, then verify it."""
    out_path = tmp_path / "report.json"
    run_cli(
        capsys,
        "solve", "--p", "5", "--n", "2", "--kind", "gl", "--seed", "2",
        "--prec", "6", "--output", str(out_path),
    )
    payload = edit(json.loads(out_path.read_text()))
    out_path.write_text(json.dumps(payload))
    return run_cli(capsys, "verify", "--input", str(out_path))


@pytest.mark.parametrize("edit", [
    lambda payload: {**payload, "report": 7},
    lambda payload: {**payload, "report": [payload["report"]]},
    lambda payload: [payload],
    lambda payload: 3,
], ids=["report-int", "report-array", "payload-array", "payload-int"])
def test_verify_non_object_payload_is_usage_error(capsys, tmp_path, edit):
    code, out, err = _verify_payload_error(capsys, tmp_path, edit)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "JSON object" in err
    assert "Traceback" not in err


def test_verify_out_of_range_digit_is_usage_error(capsys, tmp_path):
    def edit(payload):
        payload["report"]["solution"]["entries"][0][0][3] = 5  # a digit >= p
        return payload

    code, out, err = _verify_payload_error(capsys, tmp_path, edit)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "outside" in err


@pytest.mark.parametrize("n", ["2", 2.0, True])
def test_verify_bad_matrix_dimension_is_usage_error(capsys, tmp_path, n):
    def edit(payload):
        payload["report"]["solution"]["n"] = n
        return payload

    code, out, err = _verify_payload_error(capsys, tmp_path, edit)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "dimension" in err
    assert "Traceback" not in err


def test_internal_error_exits_3(capsys, monkeypatch):
    def broken_solve(spec, u0):
        raise AlgebraInvariantError("Newton square root failed to converge")

    monkeypatch.setattr(cli, "solve", broken_solve)
    code, out, err = run_cli(
        capsys, "solve", "--p", "5", "--n", "2", "--kind", "gl", "--prec", "6"
    )
    assert code == cli.EXIT_INTERNAL == 3
    assert out == ""
    assert err.startswith("internal error (please report): Newton square root")


def test_example_3_9_command(capsys):
    code, out, _ = run_cli(capsys, "example-3-9", "--p", "13", "--prec", "10")
    assert code == 0
    payload = json.loads(out)
    assert payload["all_pass"] is True
    assert payload["order"] == 2
    assert len(payload["labelings"]) == 2

    code, _, err = run_cli(capsys, "example-3-9", "--p", "5", "--prec", "10")
    assert code == 2
    assert "1 mod 3" in err


def test_galois_command(capsys):
    code, out, _ = run_cli(
        capsys,
        "galois", "--p", "5", "--n", "2", "--kind", "gl", "--seed", "4",
        "--prec", "10", "--torsion", "4", "--samples", "25",
    )
    assert code == 0
    payload = json.loads(out)
    assert len(payload["candidates"]) == 32
    assert payload["all_candidates_in_Gu"] is True
    assert payload["right_compatibility"] is True
    assert all(c["in_N_delta"] for c in payload["candidates"])


def test_galois_alpha_from_file(capsys, tmp_path):
    alpha_path = tmp_path / "alpha.json"
    alpha_path.write_text(json.dumps({"n": 2, "entries": [1, 2, 0, 3]}))
    code, out, _ = run_cli(
        capsys,
        "solve", "--p", "7", "--n", "2", "--kind", "gl", "--prec", "8",
        "--alpha", str(alpha_path), "--u0", "identity", "--seed", "0",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["report"]["residual_valuation"] == "inf"
