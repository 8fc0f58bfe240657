import argparse
import hashlib
import json

import pytest

from deltalin import cli
from deltalin.cli import main
from deltalin.errors import AlgebraInvariantError
from deltalin.io import matrix_from_json, matrix_to_json, spec_from_json
from deltalin.matrix import PMatrix, in_sl_delta
from deltalin.ring import log_p, make_context
from deltalin.sampling import Rng


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


# SHA-256 of each command's stdout.  A refactor must leave these bytes
# unchanged; a change that moves them on purpose updates the digests here
# and says so in CHANGES.md.
_PINNED_STDOUT = {
    "solve --p 13 --m 2 --n 4 --kind so --variant sp --u0 random --seed 5":
        "13c443c4009e6c3779abc9b88a79d7cc1aa27729e7b8687fffc5c8861f02d43f",
    "solve --p 7 --n 3 --kind sl --prec 37 --u0 random --seed 5":
        "50f14d9784b991344623015ba8e26a08de4ebb28246947b3fac22b5daa8da131",
    "galois --p 5 --n 3 --kind sl --prec 10 --u0 random --seed 3":
        "876d4756f50bb70253fe3e26e844a509c08163537accf701996e685971515ade",
    "example-3-9 --p 7":
        "0f3229005edd29b3e40f1102f188a234a6b5401388d01c2b9bb5d232313f4324",
}


@pytest.mark.parametrize("command", sorted(_PINNED_STDOUT))
def test_stdout_bytes_are_pinned(capsys, command):
    code, out, _ = run_cli(capsys, *command.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == _PINNED_STDOUT[command]


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


def _no_solve(*args, **kwargs):
    raise AssertionError("solve called")


def test_galois_cap_counts_the_digits_of_the_report(capsys, monkeypatch):
    # the default torsion 168 gives 56,448 candidates of 2^2 * 2 * 64 digits
    monkeypatch.setattr(cli, "solve", _no_solve)
    code, out, err = run_cli(
        capsys, "galois", "--p", "13", "--m", "2", "--n", "2", "--kind", "gl", "--prec", "64",
    )
    assert code == 2
    assert out == "" and err.startswith("error: ") and "exceeds the cap" in err


def test_usage_errors_exit_2(capsys, tmp_path, monkeypatch):
    code, _, err = run_cli(capsys, "solve", "--p", "4", "--n", "2", "--kind", "gl")
    assert code == 2
    assert "odd prime" in err

    # a missing variant: one message, from the spec's own check, whether
    # alpha is drawn or read from a file
    alpha_path = tmp_path / "alpha.json"
    alpha_path.write_text(json.dumps({"n": 2, "entries": [1, 2, 0, 3]}))
    for command in ("solve", "galois"):
        for alpha in ("random", str(alpha_path)):
            code, out, err = run_cli(
                capsys, command, "--p", "5", "--n", "2", "--kind", "so", "--seed", "1",
                "--alpha", alpha,
            )
            assert code == 2, (command, alpha)
            assert out == "" and err.startswith("error: ") and "needs a variant" in err, (command, alpha)

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

    # a sample count over the cap is refused before the solve
    code, out, err = run_cli(
        capsys, "galois", "--p", "5", "--n", "2", "--kind", "gl", "--torsion", "4",
        "--prec", "6", "--samples", "1000000000",
    )
    assert code == 2
    assert out == "" and err.startswith("error: ") and "samples=1000000000 exceeds the cap" in err

    # an N^delta list over the cap (8! * 4^8) or a torsion order that does
    # not divide p^m - 1 is refused before the solve
    with monkeypatch.context() as mp:
        mp.setattr(cli, "solve", _no_solve)
        for n, torsion, message in (("8", "4", "exceeds the cap"), ("2", "3", "does not divide")):
            code, out, err = run_cli(
                capsys, "galois", "--p", "5", "--n", n, "--kind", "gl", "--torsion", torsion,
            )
            assert code == 2, torsion
            assert out == "" and err.startswith("error: ") and message in err, torsion

    # oversized contexts are refused before any work
    for flag, value in (("--prec", "100000"), ("--m", "9"), ("--p", "18446744073709551629")):
        code, out, err = run_cli(
            capsys, "solve", "--p", "5", "--n", "2", "--kind", "gl", flag, value
        )
        assert code == 2, flag
        assert out == "" and err.startswith("error: ") and "exceeds the cap" in err, flag


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


# kind -> (solve arguments, what verify prints for a solution singular mod p,
# fixedness and prime_integrals_vanish for one off by p^j); each pinned to
# the output of verify when it computed the residual with cold roots
_BROKEN_SOLUTIONS = {
    "gl": (["--p", "5", "--n", "2", "--kind", "gl"],
           (1, '{"command":"verify","fixedness":1,"pass":false,'
               '"prime_integrals_vanish":true,"residual_valuation":1}\n', "verify: FAIL\n"),
           1, True),
    "sl": (["--p", "7", "--m", "2", "--n", "3", "--kind", "sl"],
           (2, "", "error: x must be invertible\n"), 2, False),
    "so": (["--p", "5", "--n", "2", "--kind", "so", "--variant", "sp"],
           (2, "", "error: not in GL_n: no unit pivot\n"), 1, False),
    "so_odd": (["--p", "3", "--n", "3", "--kind", "so", "--variant", "so_odd"],
               (2, "", "error: not in GL_n: no unit pivot\n"), 1, False),
}


@pytest.mark.parametrize("kind", sorted(_BROKEN_SOLUTIONS))
def test_verify_broken_solution_keeps_its_verdict(capsys, tmp_path, kind):
    """A solution singular mod p, or off by p^j, gets the same exit code,
    message and residual valuation from verify's root-free residual as from
    the residual with cold roots: a singular one is refused by the error of
    the kind's twist (gl has none and fails), one off by p^j X, X != 0 mod p,
    reads j."""
    args, singular_verdict, fixedness, integrals = _BROKEN_SOLUTIONS[kind]
    path = tmp_path / "report.json"
    run_cli(capsys, "solve", *args, "--prec", "6", "--seed", "3", "--output", str(path))
    payload = json.loads(path.read_text())
    spec = spec_from_json(payload["spec"])
    u = matrix_from_json(spec.ctx, payload["report"]["solution"])
    p = spec.ctx.p

    def verify(v):
        payload["report"]["solution"] = matrix_to_json(v)
        path.write_text(json.dumps(payload))
        return run_cli(capsys, "verify", "--input", str(path))

    rows = u.rows()
    assert verify(PMatrix.from_rows(spec.ctx, [[p * e for e in rows[0]]] + rows[1:])) == singular_verdict
    rng = Rng(9)
    for j in range(1, 6):
        code, out, err = verify(u + p ** j * rng.gl(spec.ctx, u.n))
        assert (code, err) == (1, "verify: FAIL\n")
        assert json.loads(out) == {
            "command": "verify", "fixedness": fixedness, "pass": False,
            "prime_integrals_vanish": integrals, "residual_valuation": j,
        }


@pytest.mark.parametrize("kind", [["sl"], ["so", "--variant", "sp"]], ids=["sl", "sp"])
def test_verify_passes_a_solution_for_alpha_outside_the_delta_lie_algebra(capsys, tmp_path, kind):
    """det u and u^t q u are prime integrals only when 1 + p*alpha lies in
    SL_n or SO(q); for an unstructured alpha they need not vanish, and
    verify passes a solution whose residual valuation is inf."""
    ctx = make_context(7, 1, 16)
    alpha = Rng(5).matrix(ctx, 2)
    assert not in_sl_delta(alpha)
    alpha_path, report_path = tmp_path / "alpha.json", tmp_path / "rep.json"
    alpha_path.write_text(json.dumps(matrix_to_json(alpha)))
    code, _, _ = run_cli(
        capsys, "solve", "--p", "7", "--prec", "16", "--n", "2", "--kind", *kind,
        "--alpha", str(alpha_path), "--output", str(report_path),
    )
    assert code == 0
    code, out, err = run_cli(capsys, "verify", "--input", str(report_path))
    assert (code, err) == (0, "verify: PASS\n")
    assert json.loads(out) == {
        "command": "verify", "fixedness": 1, "pass": True,
        "prime_integrals_vanish": False, "residual_valuation": "inf",
    }


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


def test_missing_digit_exits_2(capsys, monkeypatch):
    def short_solve(spec, u0):
        return log_p(spec.ctx.one().with_prec(0))

    monkeypatch.setattr(cli, "solve", short_solve)
    code, out, err = run_cli(
        capsys, "solve", "--p", "5", "--n", "2", "--kind", "gl", "--prec", "6"
    )
    assert code == cli.EXIT_USAGE == 2
    assert out == ""
    assert err == "error: log_p needs at least one known digit\n"


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


def test_repeated_main_calls_in_one_process(capsys, tmp_path):
    """A usage error, --help and two solves in a row: each call behaves as
    it would in a fresh process."""
    code, out, err = run_cli(capsys, "solve", "--p", "5")
    assert code == 2
    assert out == "" and err.startswith("usage: deltalin solve") and "required" in err

    code, out, err = run_cli(capsys, "--help")
    assert code == 0
    assert out.startswith("usage: deltalin [-h]") and err == ""

    argv = ["solve", "--p", "7", "--m", "2", "--prec", "10", "--n", "2",
            "--kind", "sl", "--seed", "8", "--output", str(tmp_path / "report.json")]
    reports = []
    for _ in range(2):
        code, _, _ = run_cli(capsys, *argv)
        assert code == 0
        reports.append((tmp_path / "report.json").read_bytes())
    assert reports[0] == reports[1]
    code, out, _ = run_cli(capsys, "verify", "--input", str(tmp_path / "report.json"))
    assert code == 0
    assert json.loads(out)["pass"] is True


def test_main_builds_no_parser_after_the_first_call(capsys, monkeypatch):
    run_cli(capsys, "example-3-9", "--p", "7", "--prec", "4")
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    for argv in (["example-3-9", "--p", "7", "--prec", "4"], ["solve", "--p", "5"], ["--help"]):
        run_cli(capsys, *argv)
    assert built == []
