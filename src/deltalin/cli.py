"""Command-line surface.

Subcommands: solve, verify, galois, example-3-9, selftest.  All reports are
canonical JSON (sorted keys, no whitespace) on stdout; human-readable status
lines and timings go to stderr.  A fixed --seed fully determines every
random draw, so identical configurations produce byte-identical reports.
Exit codes: 0 pass, 1 assertion failure, 2 usage error, 3 internal error
(a failed internal invariant: a bug, please report it).
"""

import argparse
import json
import math
import sys

from . import acceptance
from .equations import (
    EquationSpec,
    _fixedness,
    prime_integral_check,
    residual,
    solve,
)
from .errors import AlgebraInvariantError, DeltaLinError, ParameterError
from .galois import (
    GuChecker,
    check_right_compatibility,
    enumerate_N_delta,
    example_3_9,
    matrix_order,
)
from .io import (
    canonical_dumps,
    matrix_from_json,
    matrix_to_json,
    report_to_json,
    spec_from_json,
    spec_to_json,
    valuation_to_json,
)
from .matrix import PMatrix
from .ring import digit_string, make_context
from .sampling import Rng

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3


def _add_ring_args(sp, with_kind=True):
    sp.add_argument("--p", type=int, required=True, help="odd prime")
    sp.add_argument("--m", type=int, default=1, help="residue extension degree")
    sp.add_argument("--prec", type=int, default=16, help="precision N in p-adic digits")
    if with_kind:
        sp.add_argument("--n", type=int, required=True, help="matrix dimension")
        sp.add_argument("--kind", choices=("gl", "sl", "so"), required=True)
        sp.add_argument("--variant", choices=("sp", "so_even", "so_odd"), default=None)
        sp.add_argument("--alpha", default="random", help="'random' or a JSON matrix file")
        sp.add_argument(
            "--u0",
            default="random",
            help="'identity', 'random', 'random-sl', 'random-so', or a JSON matrix file",
        )
        sp.add_argument("--seed", type=int, default=0)


def _build_parser():
    ap = argparse.ArgumentParser(
        prog="deltalin",
        description="Exact solver and Galois checks for delta-linear equations "
        "over truncated unramified p-adic rings.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("solve", help="solve phi(u) = (1+p*alpha)*Phi(u)")
    _add_ring_args(sp)
    sp.add_argument("--output", default=None, help="write the report here instead of stdout")

    vp = sub.add_parser("verify", help="recheck a solve report")
    vp.add_argument("--input", required=True, help="JSON produced by 'solve'")

    gp = sub.add_parser("galois", help="enumerate N^delta candidates and test G_u membership")
    _add_ring_args(gp)
    gp.add_argument("--torsion", type=int, default=None, help="torsion order d | p^m - 1 (default p^m - 1)")
    gp.add_argument("--cap", type=int, default=10 ** 6, help="enumeration cap for n! * d^n")
    gp.add_argument("--samples", type=int, default=100, help="right-compatibility sample count")
    gp.add_argument("--output", default=None)

    ep = sub.add_parser("example-3-9", help="the exact order-2 Galois example")
    ep.add_argument("--p", type=int, required=True, help="prime congruent to 1 mod 3")
    ep.add_argument("--prec", type=int, default=16)

    st = sub.add_parser("selftest", help="run the acceptance suite")
    st.add_argument("--seed", type=int, default=42)
    st.add_argument("--output", default=None)
    return ap


def _make_spec(args, rng):
    ctx = make_context(args.p, args.m, args.prec)
    if args.kind == "so" and args.variant is None:
        raise ParameterError("kind 'so' requires --variant")
    if args.alpha == "random":
        alpha = rng.matrix(ctx, args.n) if args.kind == "gl" else (
            rng.sl_delta_alpha(ctx, args.n)
            if args.kind == "sl"
            else rng.so_delta_alpha(ctx, args.n, args.variant)
        )
    else:
        alpha = matrix_from_json(ctx, _load_json(args.alpha))
    spec = EquationSpec(args.kind, args.n, alpha, args.variant)
    return ctx, spec


def _make_u0(args, ctx, rng):
    src = args.u0
    if src == "identity":
        return PMatrix.identity(ctx, args.n)
    if src == "random":
        return rng.gl(ctx, args.n)
    if src == "random-sl":
        return rng.sl(ctx, args.n)
    if src == "random-so":
        if args.variant is None:
            raise ParameterError("u0 'random-so' requires --variant")
        return rng.so(ctx, args.n, args.variant)
    return matrix_from_json(ctx, _load_json(src))


def _load_json(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    # ValueError covers bad JSON, bad UTF-8 and integers past the digit limit
    except (OSError, ValueError, RecursionError) as exc:
        raise ParameterError(f"cannot read JSON from {path}: {exc}")


def _emit(payload, output):
    data = canonical_dumps(payload)
    if output:
        with open(output, "wb") as fh:
            fh.write(data + b"\n")
    else:
        sys.stdout.write(data.decode() + "\n")


def _cmd_solve(args):
    rng = Rng(args.seed)
    ctx, spec = _make_spec(args, rng)
    u0 = _make_u0(args, ctx, rng)
    rep = solve(spec, u0)
    payload = {
        "command": "solve",
        "config": {
            "p": args.p, "m": args.m, "N": args.prec, "n": args.n,
            "kind": args.kind, "variant": args.variant,
            "alpha_source": args.alpha, "u0_source": args.u0, "seed": args.seed,
        },
        "spec": spec_to_json(spec),
        "u0": matrix_to_json(u0),
        "report": report_to_json(rep),
        "human": {
            "solution": [digit_string(rep.solution.entry(i, j))
                         for i in range(rep.solution.n)
                         for j in range(rep.solution.n)],
        },
    }
    _emit(payload, args.output)
    ok = rep.residual_valuation == math.inf
    print(f"residual valuation: {valuation_to_json(rep.residual_valuation)} "
          f"(required >= {ctx.N})", file=sys.stderr)
    return EXIT_PASS if ok else EXIT_FAIL


def _cmd_verify(args):
    payload = _load_json(args.input)
    if not isinstance(payload, dict):
        raise ParameterError("input must be a JSON object")
    if "spec" not in payload:
        raise ParameterError("input is missing the 'spec' field")
    report = payload.get("report", {})
    if not isinstance(report, dict):
        raise ParameterError("the 'report' field must be a JSON object")
    spec = spec_from_json(payload["spec"])
    ctx = spec.ctx
    sol_json = report.get("solution") or payload.get("solution")
    if sol_json is None:
        raise ParameterError("input is missing the solution matrix")
    u = matrix_from_json(ctx, sol_json)
    res = residual(spec, u)
    rv = res.valuation()
    integrals = prime_integral_check(spec, u)
    integrals_ok = all(d.is_zero() for _, d in integrals)
    ok = rv == math.inf and integrals_ok
    out = {
        "command": "verify",
        "residual_valuation": valuation_to_json(rv),
        "prime_integrals_vanish": integrals_ok,
        "fixedness": _fixedness(u),
        "pass": ok,
    }
    _emit(out, None)
    print("verify: " + ("PASS" if ok else "FAIL"), file=sys.stderr)
    return EXIT_PASS if ok else EXIT_FAIL


def _cmd_galois(args):
    rng = Rng(args.seed)
    ctx, spec = _make_spec(args, rng)
    u0 = _make_u0(args, ctx, rng)
    rep = solve(spec, u0)
    u = rep.solution
    d = args.torsion if args.torsion is not None else ctx.p ** ctx.m - 1
    candidates = enumerate_N_delta(ctx, args.n, d, cap=args.cap)
    checker = GuChecker(spec, u)
    q = spec.q_matrix()
    rows = []
    all_in = True
    for v in candidates:
        member = checker(v)
        all_in = all_in and member
        entry = {
            "candidate": matrix_to_json(v),
            "in_Gu": member,
            "in_N_delta": True,
            "order": matrix_order(v, cap=4 * d * math.factorial(args.n)),
            "constancy": {
                "delta_det_valuation": valuation_to_json(v.det().delta().valuation()),
            },
        }
        if spec.kind == "so":
            form = v.transpose() @ q @ v
            entry["constancy"]["delta_form_valuation"] = valuation_to_json(
                form.delta_entrywise().valuation()
            )
        rows.append(entry)
    compat_ok, _witness = check_right_compatibility(spec, samples=args.samples, seed=args.seed)
    payload = {
        "command": "galois",
        "config": {
            "p": args.p, "m": args.m, "N": args.prec, "n": args.n,
            "kind": args.kind, "variant": args.variant, "torsion": d,
            "seed": args.seed, "samples": args.samples,
        },
        "spec": spec_to_json(spec),
        "solution": matrix_to_json(u),
        "candidates": rows,
        "right_compatibility": compat_ok,
        "all_candidates_in_Gu": all_in,
    }
    _emit(payload, args.output)
    ok = all_in and compat_ok
    print(f"galois: {len(rows)} candidates, all in G_u: {all_in}, "
          f"right compatibility: {compat_ok}", file=sys.stderr)
    return EXIT_PASS if ok else EXIT_FAIL


def _cmd_example(args):
    rep = example_3_9(args.p, args.prec)
    payload = {
        "command": "example-3-9",
        "p": args.p,
        "N": args.prec,
        "candidate": matrix_to_json(rep.candidate),
        "in_Gu": rep.in_Gu,
        "in_N_delta": rep.in_N_delta,
        "order": rep.notes["order"],
        "labelings": [
            {"zeta_residue": lab["zeta_residue"], "checks": lab["checks"]}
            for lab in rep.notes["labelings"]
        ],
        "all_pass": rep.notes["all_pass"],
    }
    _emit(payload, None)
    ok = rep.notes["all_pass"] and rep.notes["order"] == 2
    print("example-3-9: " + ("PASS" if ok else "FAIL"), file=sys.stderr)
    return EXIT_PASS if ok else EXIT_FAIL


def _cmd_selftest(args):
    report, timings = acceptance.run_all(seed=args.seed)
    for line in acceptance.format_lines(report, timings):
        print(line, file=sys.stderr)
    _emit(report, args.output)
    return EXIT_PASS if report["all_pass"] else EXIT_FAIL


def main(argv=None):
    ap = _build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_PASS
    try:
        if args.command == "solve":
            return _cmd_solve(args)
        if args.command == "verify":
            return _cmd_verify(args)
        if args.command == "galois":
            return _cmd_galois(args)
        if args.command == "example-3-9":
            return _cmd_example(args)
        return _cmd_selftest(args)
    except AlgebraInvariantError as exc:
        print(f"internal error (please report): {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except DeltaLinError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
