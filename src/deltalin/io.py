"""JSON wire formats.

Ring element: array of m arrays of N little-endian base-p digits, one per
basis coordinate.  Matrix: {"n": n, "entries": [...]} with entries row-major
in the element format; plain integers are accepted on input as shorthand
for elements of the prime subring.  Context: {"p", "m", "N", "modulus"}
with the monic modulus lift given little-endian including its leading 1.
Spec: {"kind", "variant", "n", "alpha", "ring"}.  Valuations serialize as
integers with "inf" for zero-at-precision.
"""

import json
import math

from ._intmath import digits_to_int, int_to_digits
from .equations import EquationSpec
from .errors import ParameterError
from .matrix import PMatrix
from .ring import RingElement, make_context

__all__ = [
    "canonical_dumps",
    "element_to_json",
    "element_from_json",
    "matrix_to_json",
    "matrix_from_json",
    "context_to_json",
    "context_from_json",
    "spec_to_json",
    "spec_from_json",
    "report_to_json",
    "valuation_to_json",
]


def canonical_dumps(obj):
    """Deterministic JSON bytes: sorted keys, no whitespace."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()


def valuation_to_json(v):
    return "inf" if v == math.inf else int(v)


def element_to_json(e):
    p, N = e.ctx.p, e.ctx.N
    return [int_to_digits(c, p, N) for c in e.flat]


def element_from_json(ctx, obj):
    """Decode an element: at most m coordinates of at most N digits in [0, p)."""
    if type(obj) is int:
        return ctx.element(obj)
    if not isinstance(obj, list):
        raise ParameterError("element must be an int or an array of digit arrays")
    if len(obj) > ctx.m:
        raise ParameterError(f"element has {len(obj)} coordinates, at most m={ctx.m}")
    coeffs = []
    for digits in obj:
        if not isinstance(digits, list):
            raise ParameterError("element coordinates must be digit arrays")
        if len(digits) > ctx.N:
            raise ParameterError(f"coordinate has {len(digits)} digits, at most N={ctx.N}")
        for d in digits:
            if type(d) is not int:
                raise ParameterError(f"digit {d!r} is not an integer")
            if not 0 <= d < ctx.p:
                raise ParameterError(f"digit {d} is outside [0, p={ctx.p})")
        coeffs.append(digits_to_int(digits, ctx.p))
    return ctx.element(coeffs)


def matrix_to_json(M):
    return {
        "n": M.n,
        "entries": [element_to_json(M.entry(i, j)) for i in range(M.n) for j in range(M.n)],
    }


def matrix_from_json(ctx, obj):
    if not isinstance(obj, dict) or "n" not in obj or "entries" not in obj:
        raise ParameterError('matrix must be {"n": ..., "entries": [...]}')
    n = obj["n"]
    entries = obj["entries"]
    if type(n) is not int or n < 1:
        raise ParameterError(f"matrix dimension n must be a positive integer, got {n!r}")
    if not isinstance(entries, list):
        raise ParameterError("matrix entries must be an array")
    if len(entries) != n * n:
        raise ParameterError(f"expected {n * n} entries, got {len(entries)}")
    rows = []
    for i in range(n):
        rows.append([element_from_json(ctx, entries[i * n + j]) for j in range(n)])
    return PMatrix.from_rows(ctx, rows)


def context_to_json(ctx):
    return {"p": ctx.p, "m": ctx.m, "N": ctx.N, "modulus": list(ctx.modulus)}


def context_from_json(obj):
    if not isinstance(obj, dict):
        raise ParameterError("ring context must be a JSON object")
    for key in ("p", "m", "N"):
        if key not in obj:
            raise ParameterError(f"ring context is missing {key!r}")
    modulus = obj.get("modulus")
    if modulus is not None and (
        not isinstance(modulus, list) or any(type(c) is not int for c in modulus)
    ):
        raise ParameterError("ring modulus must be an array of integers")
    return make_context(obj["p"], obj["m"], obj["N"], residue_poly=modulus)


def spec_to_json(spec):
    return {
        "kind": spec.kind,
        "variant": spec.variant,
        "n": spec.n,
        "alpha": matrix_to_json(spec.alpha),
        "ring": context_to_json(spec.ctx),
    }


def spec_from_json(obj):
    if not isinstance(obj, dict):
        raise ParameterError("spec must be a JSON object")
    for key in ("ring", "kind", "n", "alpha"):
        if key not in obj:
            raise ParameterError(f"spec is missing {key!r}")
    ctx = context_from_json(obj["ring"])
    alpha = matrix_from_json(ctx, obj["alpha"])
    return EquationSpec(obj["kind"], obj["n"], alpha, obj.get("variant"))


def _integral_to_json(name, value, dvalue):
    if isinstance(value, RingElement):
        kind, encode = "element", element_to_json
    else:
        kind, encode = "matrix", matrix_to_json
    return {
        "name": name,
        "type": kind,
        "value": encode(value),
        "delta": encode(dvalue),
        "delta_valuation": valuation_to_json(dvalue.valuation()),
    }


def report_to_json(rep):
    return {
        "solution": matrix_to_json(rep.solution),
        "iterations": rep.iterations,
        "residual_valuation": valuation_to_json(rep.residual_valuation),
        "integral_values": [_integral_to_json(*t) for t in rep.integral_values],
        "fixedness": rep.fixedness,
        "precision": rep.solution.ctx.N,
    }
