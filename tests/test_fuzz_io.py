"""Hypothesis fuzzing of the JSON decoders and of `deltalin verify`,
`deltalin solve` and `deltalin galois`.

Inputs are generated JSON: valid wire objects (small rings, elements,
matrices, specs and solve reports), half of them with one node, at any
depth, deleted or replaced by a value of the wrong type, range or size, or
by arbitrary JSON.  A decoder either returns or raises a usage error
(`DeltaLinError`, never `AlgebraInvariantError`, which reports a bug);
`cli.main(["verify", ...])` exits 0, 1 or 2 and never lets an exception out.
`solve` and `galois` get a ring, a kind, a variant and a dimension drawn
independently (so some combinations are refused) and `--alpha`/`--u0` as
'random' or the like, or as a file of generated matrix JSON, broken half the
time; they exit 0, 1 or 2 too.  Valid rings stay small (p <= 13, N <= 6,
n <= 3) so that a decoded input verifies in milliseconds, and `galois` gets
a small `--torsion` and `--samples`, valid or not.
"""

import contextlib
import copy
import functools
import io as stdio
import json

from hypothesis import given, settings
from hypothesis import strategies as st

from deltalin import cli
from deltalin.errors import AlgebraInvariantError, DeltaLinError
from deltalin.io import context_from_json, element_from_json, matrix_from_json, spec_from_json
from deltalin.ring import make_context

FUZZ = settings(max_examples=100)

any_json = st.recursive(
    st.none() | st.booleans() | st.integers(-10, 10) | st.floats(allow_nan=False) | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=12,
)
# wrong types, out-of-range and over-the-cap sizes, arbitrary JSON
bad = (
    st.sampled_from([None, True, False, 0, -1, 1.5, "3", [], {}, [[]], 2 ** 64 + 13, 1025, 10 ** 9])
    | st.integers(-3, 30)
    | any_json
)


@st.composite
def ring(draw):
    p, m = draw(st.sampled_from([3, 5, 7, 13])), draw(st.integers(1, 2))
    r = {"p": p, "m": m, "N": draw(st.integers(2, 6))}
    if draw(st.booleans()):  # a monic modulus, irreducible or not
        r["modulus"] = draw(st.lists(st.integers(0, p - 1), min_size=m, max_size=m)) + [1]
    return r


@st.composite
def element(draw, r):
    digits = st.lists(st.integers(0, r["p"] - 1), max_size=r["N"])
    return draw(st.integers(0, 50) | st.lists(digits, max_size=r["m"]))


@st.composite
def matrix(draw, r, n=None):
    n = draw(st.integers(1, 3)) if n is None else n
    return {"n": n, "entries": draw(st.lists(element(r), min_size=n * n, max_size=n * n))}


@st.composite
def spec(draw, r=None):
    r = draw(ring()) if r is None else r
    kind, variant, n = draw(st.sampled_from(
        [("gl", None, 1), ("gl", None, 3), ("sl", None, 2), ("sl", None, 3),
         ("so", "sp", 2), ("so", "so_even", 2), ("so", "so_odd", 3)]
    ))
    return {"kind": kind, "variant": variant, "n": n, "alpha": draw(matrix(r, n)), "ring": r}


def _nodes(obj, depth=1, out=None):
    """Every (container, key) below obj, grouped by depth."""
    out = {} if out is None else out
    keys = range(len(obj)) if isinstance(obj, list) else obj if isinstance(obj, dict) else ()
    for key in keys:
        out.setdefault(depth, []).append((obj, key))
        _nodes(obj[key], depth + 1, out)
    return out


@st.composite
def corrupted(draw, valid, max_depth=None):
    """A valid object, or a copy with one node deleted or replaced by a bad
    value; the depth of that node (at most max_depth) is drawn first, so
    that top-level fields are hit as often as digits."""
    root = {"": copy.deepcopy(draw(valid))}
    if draw(st.booleans()):
        return root[""]
    by_depth = _nodes(root)
    depths = [d for d in sorted(by_depth) if max_depth is None or d <= max_depth]
    node, key = draw(st.sampled_from(by_depth[draw(st.sampled_from(depths))]))
    if isinstance(node, dict) and key != "" and draw(st.integers(0, 3)) == 0:
        del node[key]
    else:
        node[key] = draw(bad)
    return root[""]


CONTEXTS = [{"p": 5, "m": 1, "N": 6}, {"p": 3, "m": 2, "N": 4}, {"p": 13, "m": 2, "N": 3}]


@functools.cache
def _context(k):
    return make_context(**CONTEXTS[k])


def _decodes_or_refuses(decode, *args):
    try:
        decode(*args)
    except AlgebraInvariantError:
        raise
    except DeltaLinError:
        pass


@FUZZ
@given(data=st.data(), k=st.integers(0, 2))
def test_element_from_json(data, k):
    obj = data.draw(corrupted(element(CONTEXTS[k])))
    _decodes_or_refuses(element_from_json, _context(k), obj)


@FUZZ
@given(data=st.data(), k=st.integers(0, 2))
def test_matrix_from_json(data, k):
    obj = data.draw(corrupted(matrix(CONTEXTS[k])))
    _decodes_or_refuses(matrix_from_json, _context(k), obj)


@FUZZ
@given(obj=corrupted(ring()))
def test_context_from_json(obj):
    _decodes_or_refuses(context_from_json, obj)


@FUZZ
@given(obj=corrupted(spec()))
def test_spec_from_json(obj):
    _decodes_or_refuses(spec_from_json, obj)


@st.composite
def verify_input(draw):
    s = draw(spec())
    solution = draw(matrix(s["ring"], s["n"]))
    if draw(st.booleans()):
        return {"spec": s, "report": {"solution": solution}}
    return {"spec": s, "solution": solution}


@settings(max_examples=60)
@given(payload=corrupted(verify_input(), max_depth=3))
def test_verify_never_raises(tmp_path_factory, payload):
    """The payload's own fields: spec, report, solution and their members
    (deeper nodes are the decoders' inputs, fuzzed above)."""
    path = tmp_path_factory.getbasetemp() / "fuzz-verify.json"
    path.write_text(json.dumps(payload))
    with contextlib.redirect_stdout(stdio.StringIO()), contextlib.redirect_stderr(stdio.StringIO()):
        code = cli.main(["verify", "--input", str(path)])
    assert code in (0, 1, 2)


def _run_cli(argv):
    with contextlib.redirect_stdout(stdio.StringIO()), contextlib.redirect_stderr(stdio.StringIO()):
        return cli.main(argv)


@st.composite
def solve_args(draw, tmp):
    """The arguments shared by `solve` and `galois`; a matrix source that is
    not a keyword is written to a file under tmp."""
    r = draw(ring())
    n = draw(st.integers(1, 3))
    args = ["--p", str(r["p"]), "--m", str(r["m"]), "--prec", str(r["N"]), "--n", str(n),
            "--kind", draw(st.sampled_from(["gl", "sl", "so"])),
            "--seed", str(draw(st.integers(0, 5)))]
    variant = draw(st.sampled_from([None, "sp", "so_even", "so_odd"]))
    if variant is not None:
        args += ["--variant", variant]
    for flag, keywords in (("--alpha", ["random"]),
                           ("--u0", ["identity", "random", "random-sl", "random-so"])):
        source = draw(st.sampled_from(keywords + ["file", "file"]))
        if source == "file":
            path = tmp / f"fuzz{flag}.json"
            path.write_text(json.dumps(draw(corrupted(st.one_of(matrix(r, n), matrix(r))))))
            source = str(path)
        args += [flag, source]
    return args


@settings(max_examples=60)
@given(data=st.data())
def test_solve_never_raises(tmp_path_factory, data):
    args = data.draw(solve_args(tmp_path_factory.getbasetemp()))
    assert _run_cli(["solve", *args]) in (0, 1, 2)


@settings(max_examples=40)
@given(data=st.data())
def test_galois_never_raises(tmp_path_factory, data):
    args = data.draw(solve_args(tmp_path_factory.getbasetemp()))
    args += ["--torsion", str(data.draw(st.sampled_from([1, 2, 3, 0, -1]))),
             "--samples", str(data.draw(st.sampled_from([0, 2, -1, 10 ** 5])))]
    assert _run_cli(["galois", *args]) in (0, 1, 2)
