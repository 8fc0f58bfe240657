"""The benchmark's workloads: inputs built from a seed, the timed op, its check.

Each workload is a set-up function `(seed, smoke, workdir)` that returns the
list of cases one pass runs, in order, and the (p, m, N, kernel kind) of
every ring context its ops use.  A case's `run(trace)` is the timed op;
`check(result)` is its correctness gate and `canon(result)` the JSON value
its result contributes to the digest.  A case's `oracle(result)`, where it
has one, is a costlier check that runs on a run's first pass only, since
every later pass must give the same results.  All three run outside the
timed region.  `smoke=True` builds a minimal version for the benchmark's
own tests.

Calls go through module attributes (`equations.solve`, not a name imported
from it) so that the traced run's wrappers see them.
"""

import contextlib
import json
import math
from dataclasses import dataclass
from io import StringIO
from pathlib import Path
from typing import Callable

from deltalin import cli, equations, galois, io, ring, sampling
from deltalin.equations import EquationSpec
from deltalin.matrix import PMatrix


@dataclass
class Case:
    label: str
    run: Callable
    check: Callable
    canon: Callable
    oracle: Callable = None  # costlier check, run on a run's first pass only


@dataclass
class Inputs:
    cases: list
    contexts: list  # (p, m, N, kernel kind) per ring context the ops use


def _ctx_info(ctx):
    return (ctx.p, ctx.m, ctx.N, ctx.kernel.kind)


def _reduce(ctx, M):
    """M reduced into `ctx`, a lower-precision context with the same modulus lift."""
    q = ctx.kernel.q
    return PMatrix.from_flat(ctx, [c % q for c in M.flat], M.n)


def _solve_case(label, spec, u0, low_ctx):
    """A solve; its oracle is the cross-precision check: the solution mod
    p^ORACLE_N equals the solve at ORACLE_N of the reduced alpha and u0."""

    def check(rep):
        return rep.residual_valuation == math.inf and rep.solution.eq_at(u0, 1)

    def oracle(rep):
        low_spec = EquationSpec(spec.kind, spec.n, _reduce(low_ctx, spec.alpha), spec.variant)
        low = equations.solve(low_spec, _reduce(low_ctx, u0))
        return (low.residual_valuation == math.inf
                and _reduce(low_ctx, rep.solution).flat == low.solution.flat)

    return Case(
        label,
        lambda trace: equations.solve(spec, u0),
        check,
        lambda rep: io.matrix_to_json(rep.solution),
        oracle,
    )


# -- solve-grid ------------------------------------------------------------------

GRID_N = 16
ORACLE_N = 8
# Each prime of criterion 1's grid with one of its two degrees, m = 1 and 2
# in turn, and so n=4 at m=1 only: every kind, n, p and m stays in, no op
# takes much over 50 ms, and a pass of the 47 cells takes about a second.  So
# a run times each op some thirty times and its best time is found even when
# the host is slow for seconds at a stretch.  The whole grid (102 cells, up to
# 130 ms an op for so n=4 at m=2) gave a run ten samples per op and a spread
# of 10-17% between runs.
GRID_CONTEXTS = ((3, 1), (5, 2), (7, 1), (13, 2))
GRID_KINDS = (
    ("gl", None, (1, 2, 3, 4)),
    ("sl", None, (1, 2, 3, 4)),
    ("so", "sp", (2, 4)),
    ("so", "so_even", (2, 4)),
    ("so", "so_odd", (3,)),
)


def setup_solve_grid(seed, smoke, workdir):
    """One solve per cell of GRID_CONTEXTS x GRID_KINDS: unstructured
    alpha, random GL_n u0."""
    rng = sampling.Rng(seed)
    cases, contexts = [], []
    for p, m in ((5, 1),) if smoke else GRID_CONTEXTS:
        ctx = ring.make_context(p, m, GRID_N)
        low_ctx = ring.make_context(p, m, ORACLE_N)
        contexts.append(_ctx_info(ctx))
        for kind, variant, dims in GRID_KINDS:
            for n in dims[:1] if smoke else dims:
                if (kind == "sl" and n % p == 0) or (kind == "so" and n == 4 and m > 1):
                    continue
                spec = EquationSpec(kind, n, rng.matrix(ctx, n), variant)
                label = f"{kind}/{variant or '-'} p={p} m={m} n={n}"
                cases.append(_solve_case(label, spec, rng.gl(ctx, n), low_ctx))
    return Inputs(cases, contexts)


# -- galois-sweep ------------------------------------------------------------------

GALOIS_N = 16
GALOIS_CELLS = (  # p, m, n, torsion order d, kinds
    (13, 1, 2, 12, (("gl", None), ("sl", None), ("so", "sp"), ("so", "so_even"))),
    (5, 1, 3, 4, (("gl", None), ("sl", None), ("so", "so_odd"))),
    (13, 2, 2, 24, (("gl", None), ("so", "sp"))),
)
SMOKE_GALOIS_CELLS = ((13, 1, 2, 2, (("gl", None), ("so", "sp"))),)
# Candidates checked per (cell, kind), drawn from the seed.  The cells have
# 288 to 1152 candidates; a sample keeps a pass near one second, so a run
# times each op some thirty times and its best time is found even when the
# host is slow for seconds at a stretch.  All 4608 candidates gave a run six
# samples per op and a spread of 13% between runs.
GALOIS_SAMPLE = 128


def _galois_case(label, checker, v, q):
    """G_u membership of v plus the prime-integral constancy checks."""

    def run(trace):
        member = checker(v)
        d_det = v.det().delta()
        d_form = None if q is None else (v.transpose() @ q @ v).delta_entrywise()
        return member, d_det, d_form

    def check(result):
        member, d_det, d_form = result
        return member and d_det.is_zero() and (d_form is None or d_form.is_zero())

    def canon(result):
        member, d_det, d_form = result
        return {
            "in_Gu": member,
            "delta_det": io.valuation_to_json(d_det.valuation()),
            "delta_form": None if d_form is None else io.valuation_to_json(d_form.valuation()),
        }

    return Case(label, run, check, canon)


def setup_galois_sweep(seed, smoke, workdir):
    """Solve each (cell, kind) once, then one op per N^delta candidate of a
    sample of GALOIS_SAMPLE of them."""
    rng = sampling.Rng(seed)
    cases, contexts = [], []
    for p, m, n, d, kinds in SMOKE_GALOIS_CELLS if smoke else GALOIS_CELLS:
        ctx = ring.make_context(p, m, GALOIS_N)
        contexts.append(_ctx_info(ctx))
        candidates = galois.enumerate_N_delta(ctx, n, d)
        for kind, variant in kinds:
            spec = EquationSpec(kind, n, rng.matrix(ctx, n), variant)
            rep = equations.solve(spec, rng.gl(ctx, n))
            if rep.residual_valuation != math.inf:
                raise RuntimeError(f"set-up solve failed for {kind}/{variant} p={p} m={m} n={n}")
            checker = galois.GuChecker(spec, rep.solution)
            q = spec.q_matrix()
            for k in sorted(rng.permutation(len(candidates))[:GALOIS_SAMPLE]):
                label = f"{kind}/{variant or '-'} p={p} m={m} n={n} d={d} #{k}"
                cases.append(_galois_case(label, checker, candidates[k], q))
    return Inputs(cases, contexts)


# -- cli-roundtrip ---------------------------------------------------------------------

# The CLI runs in the benchmark's process.  As child processes (interpreter
# start and import on every op, ~190 ms a solve/verify pair) runs stayed
# 17-19% apart even with thirty samples per op.
CLI_N = 16
# An odd number of configs keeps the median op inside one config's cluster.
CLI_CONFIGS = (  # kind, variant, p, m, n
    ("gl", None, 13, 2, 3),
    ("sl", None, 7, 1, 3),
    ("so", "sp", 5, 1, 2),
)
SMOKE_CLI_CONFIGS = (("sl", None, 5, 1, 2),)


def _cli(args, trace, span):
    """Run deltalin's CLI in this process: its exit code and what it printed."""
    out = StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(StringIO()):
        if trace is None:
            code = cli.main(args)
        else:
            with trace.span(span):
                code = cli.main(args)
    return code, out.getvalue()


def _cli_case(label, solve_args, report):
    def run(trace):
        solve_rc, _ = _cli(["solve", *solve_args, "--output", str(report)], trace, "cli.solve")
        text = report.read_text() if solve_rc == 0 else None
        verify_rc, out = _cli(["verify", "--input", str(report)], trace, "cli.verify")
        return solve_rc, text, verify_rc, out

    def check(result):
        solve_rc, text, verify_rc, out = result
        return solve_rc == 0 and text is not None and verify_rc == 0 and json.loads(out)["pass"] is True

    def canon(result):
        _, text, _, out = result
        return {"report": text, "verify": out}

    return Case(label, run, check, canon)


def setup_cli_roundtrip(seed, smoke, workdir):
    """The solve/verify argument lists, and the ring context of each config
    (for the environment report: the kernel it gets)."""
    rng = sampling.Rng(seed)
    cases, contexts = [], []
    for k, (kind, variant, p, m, n) in enumerate(SMOKE_CLI_CONFIGS if smoke else CLI_CONFIGS):
        args = ["--p", str(p), "--m", str(m), "--prec", str(CLI_N), "--n", str(n),
                "--kind", kind, "--seed", str(rng.below(2 ** 31))]
        if variant:
            args += ["--variant", variant]
        label = f"{kind}/{variant or '-'} p={p} m={m} n={n}"
        report = Path(workdir) / f"report-{k}.json"
        cases.append(_cli_case(label, args, report))
        contexts.append(_ctx_info(ring.make_context(p, m, CLI_N)))
    return Inputs(cases, contexts)


WORKLOADS = {
    "solve-grid": setup_solve_grid,
    "galois-sweep": setup_galois_sweep,
    "cli-roundtrip": setup_cli_roundtrip,
}
