import json
import math

import pytest

from deltalin.cli import main as cli_main
from deltalin.equations import EquationSpec, solve
from deltalin.errors import ParameterError
from deltalin.io import (
    canonical_dumps,
    context_from_json,
    context_to_json,
    element_from_json,
    element_to_json,
    matrix_from_json,
    matrix_to_json,
    report_to_json,
    spec_from_json,
    spec_to_json,
    valuation_to_json,
)
from deltalin.matrix import PMatrix
from deltalin.sampling import Rng


def test_element_roundtrip(c5x2):
    rng = Rng(90)
    for _ in range(20):
        e = rng.element(c5x2)
        obj = element_to_json(e)
        assert len(obj) == 2 and len(obj[0]) == c5x2.N
        back = element_from_json(c5x2, obj)
        assert back == e


def test_element_digits_little_endian(c5):
    e = c5.element(1 + 2 * 5 + 3 * 25)
    assert element_to_json(e)[0][:4] == [1, 2, 3, 0]


def test_element_int_shorthand(c5):
    assert element_from_json(c5, 42) == c5.element(42)


def test_matrix_roundtrip(c5x2):
    rng = Rng(91)
    M = rng.matrix(c5x2, 3)
    back = matrix_from_json(c5x2, matrix_to_json(M))
    assert back == M


def test_matrix_int_entries(c5):
    M = matrix_from_json(c5, {"n": 2, "entries": [1, 2, 3, 4]})
    assert M == PMatrix.from_rows(c5, [[1, 2], [3, 4]])


def test_matrix_shape_errors(c5):
    with pytest.raises(ParameterError):
        matrix_from_json(c5, {"n": 2, "entries": [1, 2, 3]})
    with pytest.raises(ParameterError):
        matrix_from_json(c5, [1, 2, 3, 4])
    for bad in ({"n": True, "entries": [1]}, {"n": "2", "entries": [1, 2, 3, 4]},
                {"n": 2.0, "entries": [1, 2, 3, 4]}, {"n": 2, "entries": 5}):
        with pytest.raises(ParameterError):
            matrix_from_json(c5, bad)


def test_context_roundtrip(c5x2):
    obj = context_to_json(c5x2)
    assert obj == {"p": 5, "m": 2, "N": 8, "modulus": [2, 4, 1]}
    back = context_from_json(obj)
    assert back.same(c5x2)
    assert back.modulus == c5x2.modulus


def test_spec_roundtrip(c5):
    rng = Rng(92)
    spec = EquationSpec("so", 2, rng.so_delta_alpha(c5, 2, "sp"), "sp")
    obj = spec_to_json(spec)
    back = spec_from_json(obj)
    assert back.kind == "so" and back.variant == "sp" and back.n == 2
    assert back.alpha == matrix_from_json(back.ctx, obj["alpha"])


def test_report_json_fields(c5):
    rng = Rng(93)
    spec = EquationSpec("sl", 2, rng.sl_delta_alpha(c5, 2))
    rep = solve(spec, rng.sl(c5, 2))
    obj = report_to_json(rep)
    assert obj["residual_valuation"] == "inf"
    assert obj["iterations"] == c5.N
    assert obj["precision"] == c5.N
    assert obj["integral_values"][0]["name"] == "det"
    assert obj["integral_values"][0]["delta_valuation"] == "inf"
    json.dumps(obj)  # must be serializable as-is


def test_valuation_encoding():
    assert valuation_to_json(math.inf) == "inf"
    assert valuation_to_json(3) == 3


def test_canonical_dumps_is_stable():
    a = canonical_dumps({"b": 1, "a": [2, {"z": 0, "y": 1}]})
    b = canonical_dumps({"a": [2, {"y": 1, "z": 0}], "b": 1})
    assert a == b
    assert b" " not in a


def test_context_json_missing_keys(c5):
    with pytest.raises(ParameterError, match="missing"):
        context_from_json({"p": 5, "m": 1})
    for bad in ("pmN", 5, [5, 1, 8]):
        with pytest.raises(ParameterError, match="JSON object"):
            context_from_json(bad)
    for modulus in (5, [2, "4", 1]):
        with pytest.raises(ParameterError, match="modulus"):
            context_from_json({"p": 5, "m": 2, "N": 8, "modulus": modulus})


def test_context_json_over_the_caps_rejected():
    for key, value in (("p", 2 ** 64 + 13), ("m", 9), ("N", 100000)):
        obj = {"p": 5, "m": 1, "N": 8, key: value}
        with pytest.raises(ParameterError, match="exceeds the cap"):
            context_from_json(obj)


def _verify_with_ring(capsys, tmp_path, key, value):
    """Exit code and stderr of `verify` on a report whose ring has `key` set to `value`."""
    path = tmp_path / "report.json"
    argv = ["solve", "--p", "5", "--n", "2", "--kind", "gl", "--prec", "4", "--output", str(path)]
    assert cli_main(argv) == 0
    payload = json.loads(path.read_text())
    payload["spec"]["ring"][key] = value
    path.write_text(json.dumps(payload))
    capsys.readouterr()
    code = cli_main(["verify", "--input", str(path)])
    out, err = capsys.readouterr()
    assert out == ""
    assert "Traceback" not in err
    return code, err


@pytest.mark.parametrize("key, value", [("p", 2 ** 64 + 13), ("m", 9), ("N", 100000)])
def test_verify_ring_over_the_caps_exits_2(capsys, tmp_path, key, value):
    code, err = _verify_with_ring(capsys, tmp_path, key, value)
    assert code == 2
    assert err.startswith("error: ") and "exceeds the cap" in err


@pytest.mark.parametrize("key, message", [
    ("p", "odd prime"), ("m", "extension degree"), ("N", "precision"),
])
def test_verify_bool_ring_parameter_exits_2(capsys, tmp_path, key, message):
    code, err = _verify_with_ring(capsys, tmp_path, key, True)
    assert code == 2
    assert err.startswith("error: ") and message in err


@pytest.mark.parametrize("n, solved_n", [(2.0, 2), (True, 1)])
def test_verify_spec_n_not_an_int_exits_2(capsys, tmp_path, n, solved_n):
    """A float n equal to alpha's, or a boolean equal to 1, is a usage error."""
    path = tmp_path / "report.json"
    argv = ["solve", "--p", "5", "--prec", "6", "--n", str(solved_n), "--kind", "gl",
            "--seed", "1", "--output", str(path)]
    assert cli_main(argv) == 0
    payload = json.loads(path.read_text())
    payload["spec"]["n"] = n
    path.write_text(json.dumps(payload))
    capsys.readouterr()
    code = cli_main(["verify", "--input", str(path)])
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "n must be an integer" in err
    assert "Traceback" not in err


def test_element_bool_rejected(c5x2):
    for bad in (True, False):
        with pytest.raises(ParameterError, match="element must be"):
            element_from_json(c5x2, bad)
    with pytest.raises(ParameterError, match="element must be"):
        matrix_from_json(c5x2, {"n": 2, "entries": [1, 0, False, 1]})


def test_element_digit_out_of_range_rejected(c5x2):
    with pytest.raises(ParameterError, match="outside"):
        element_from_json(c5x2, [[1, 5], [0]])  # 5 >= p
    with pytest.raises(ParameterError, match="outside"):
        element_from_json(c5x2, [[-1]])


def test_element_digit_not_int_rejected(c5x2):
    for bad in (1.0, "1", None, True, [1]):
        with pytest.raises(ParameterError, match="not an integer"):
            element_from_json(c5x2, [[0, bad]])


def test_element_too_many_digits_rejected(c5x2):
    element_from_json(c5x2, [[4] * c5x2.N, [1]])  # exactly N digits is fine
    with pytest.raises(ParameterError, match="digits"):
        element_from_json(c5x2, [[0] * (c5x2.N + 1)])


def test_element_too_many_coordinates_rejected(c5x2):
    with pytest.raises(ParameterError, match="coordinates"):
        element_from_json(c5x2, [[1], [2], [3]])


def test_matrix_with_bad_digit_rejected(c5):
    entries = [element_to_json(c5.element(k)) for k in (1, 2, 3, 4)]
    entries[3][0][2] = 5
    with pytest.raises(ParameterError, match="outside"):
        matrix_from_json(c5, {"n": 2, "entries": entries})
