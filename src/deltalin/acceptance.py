"""The acceptance suite: 12 criteria run at pinned parameters and tolerances.

Arithmetic is exact mod p^N, so tolerances are required valuations.  Every
criterion is seeded; `run_all` executes criteria 1-11, then re-runs them and
compares the canonical JSON bytes of both passes (criterion 12).  Wall-clock
timings are reported separately so the canonical report stays byte-stable.
"""

import math
import time

from ._kernel import PureKernel
from .equations import (
    EquationSpec,
    Phi,
    build_q,
    frobenius_fixedness,
    solve,
    solve_scalar_closed_form,
    solve_scalar_exp,
)
from .galois import GuChecker, enumerate_N_delta, example_3_9, scalar_galois_bound
from .io import canonical_dumps
from .matrix import PMatrix, in_SLn, in_SOq
from .ring import RingElement, log_p, make_context, psi
from .sampling import Rng

N_ACC = 16  # working precision for the whole suite

_KIND_GRID = (
    ("gl", None, (1, 2, 3, 4)),
    ("sl", None, (1, 2, 3, 4)),
    ("so", "sp", (2, 4)),
    ("so", "so_even", (2, 4)),
    ("so", "so_odd", (3,)),
)
_PRIMES = (3, 5, 7, 13)


class _Session:
    """Context cache plus solution stash shared between criteria."""

    def __init__(self, seed):
        self.seed = seed
        self._ctxs = {}
        self.preserved = []  # (spec, solution) pairs from criteria 4-5

    def ctx(self, p, m, N=N_ACC):
        key = (p, m, N)
        if key not in self._ctxs:
            self._ctxs[key] = make_context(p, m, N)
        return self._ctxs[key]

    def rng(self, criterion):
        return Rng(self.seed).split(criterion)


def _result(cid, name, passed, cases, details=None):
    return {
        "id": cid,
        "name": name,
        "pass": bool(passed),
        "cases": cases,
        "details": details or {},
    }


def _spec_for(kind, variant, n, ctx, rng, structured):
    """A random equation spec; alpha is structured (in the delta-Lie algebra)
    or an arbitrary gl_n matrix."""
    if not structured or kind == "gl":
        alpha = rng.matrix(ctx, n)
    elif kind == "sl":
        alpha = rng.sl_delta_alpha(ctx, n)
    else:
        alpha = rng.so_delta_alpha(ctx, n, variant)
    return EquationSpec(kind, n, alpha, variant)


def criterion_1(session):
    """Solver correctness: residual valuation >= N and u = u0 mod p."""
    rng = session.rng(1)
    cases = 0
    failures = 0
    for kind, variant, dims in _KIND_GRID:
        for p in _PRIMES:
            for m in (1, 2):
                ctx = session.ctx(p, m)
                for n in dims:
                    if kind == "sl" and n % p == 0:
                        continue
                    for _ in range(20):
                        spec = _spec_for(kind, variant, n, ctx, rng, structured=False)
                        u0 = rng.gl(ctx, n)
                        rep = solve(spec, u0)
                        cases += 1
                        if rep.residual_valuation != math.inf:
                            failures += 1
                        if not rep.solution.eq_at(u0, 1):
                            failures += 1
    return _result(
        1,
        "solver correctness (residual >= N, u = u0 mod p)",
        failures == 0,
        cases,
        {"failures": failures, "primes": list(_PRIMES), "N": N_ACC},
    )


_MIX_COMBOS = (
    ("gl", None, 2, 5, 1),
    ("sl", None, 2, 7, 1),
    ("so", "sp", 2, 5, 1),
    ("gl", None, 3, 13, 2),
    ("so", "so_odd", 3, 3, 1),
    ("sl", None, 3, 13, 2),
    ("gl", None, 1, 7, 2),
    ("so", "so_even", 4, 5, 1),
)


def criterion_2(session):
    """Uniqueness: perturbing u0 by p*(random) gives the same solution."""
    rng = session.rng(2)
    failures = 0
    cases = 50
    for i in range(cases):
        kind, variant, n, p, m = _MIX_COMBOS[i % len(_MIX_COMBOS)]
        ctx = session.ctx(p, m)
        spec = _spec_for(kind, variant, n, ctx, rng, structured=False)
        u0 = rng.gl(ctx, n)
        u0_pert = u0 + ctx.p * rng.matrix(ctx, n)
        s1 = solve(spec, u0).solution
        s2 = solve(spec, u0_pert).solution
        if not s1.eq_at(s2, N_ACC - 1):
            failures += 1
    return _result(2, "uniqueness under mod-p perturbation of u0", failures == 0, cases,
                   {"failures": failures, "match_precision": N_ACC - 1})


def criterion_3(session):
    """Convergence rate: iterate k matches the solution mod p^{k+1}."""
    rng = session.rng(3)
    failures = 0
    cases = 10
    for i in range(cases):
        kind, variant, n, p, m = _MIX_COMBOS[i % len(_MIX_COMBOS)]
        ctx = session.ctx(p, m)
        spec = _spec_for(kind, variant, n, ctx, rng, structured=False)
        rep = solve(spec, rng.gl(ctx, n), keep_iterates=True)
        for k in range(N_ACC):
            if not rep.iterates[k].eq_at(rep.solution, min(k + 1, N_ACC)):
                failures += 1
                break
    return _result(3, "one digit gained per iteration", failures == 0, cases,
                   {"failures": failures})


_SL_COMBOS = ((2, 5), (3, 5), (2, 7), (3, 7), (2, 13), (3, 13))


def criterion_4(session):
    """SL preservation: det(u) = 1 exactly at precision N."""
    rng = session.rng(4)
    failures = 0
    cases = 50
    for i in range(cases):
        n, p = _SL_COMBOS[i % len(_SL_COMBOS)]
        ctx = session.ctx(p, 1 if i % 3 else 2)
        spec = EquationSpec("sl", n, rng.sl_delta_alpha(ctx, n))
        u0 = rng.sl(ctx, n)
        rep = solve(spec, u0)
        if rep.residual_valuation != math.inf or not in_SLn(rep.solution):
            failures += 1
        else:
            session.preserved.append((spec, rep))
    return _result(4, "SL_n preservation: det(u) = 1 exactly", failures == 0, cases,
                   {"failures": failures})


_SO_COMBOS = {"sp": (2, 4), "so_even": (2, 4), "so_odd": (3, 3)}


def criterion_5(session):
    """SO preservation: u^t q u = q exactly, all three variants."""
    rng = session.rng(5)
    failures = 0
    cases = 0
    for variant, dims in _SO_COMBOS.items():
        for i in range(50):
            n = dims[i % len(dims)]
            p = _PRIMES[i % len(_PRIMES)]
            ctx = session.ctx(p, 1 if i % 4 else 2)
            spec = EquationSpec("so", n, rng.so_delta_alpha(ctx, n, variant), variant)
            u0 = rng.so(ctx, n, variant)
            rep = solve(spec, u0)
            cases += 1
            q = spec.q_matrix()
            if rep.residual_valuation != math.inf or not in_SOq(rep.solution, q):
                failures += 1
            else:
                session.preserved.append((spec, rep))
    return _result(5, "SO(q) preservation: u^t q u = q exactly", failures == 0, cases,
                   {"failures": failures, "variants": sorted(_SO_COMBOS)})


def criterion_6(session):
    """Prime integrals vanish: delta(det u) = 0 / delta(u^t q u) = 0 at N-1."""
    failures = 0
    cases = 0
    for spec, rep in session.preserved:
        for name, value, dvalue in rep.integral_values:
            cases += 1
            if dvalue.known_prec != N_ACC - 1 or not dvalue.is_zero():
                failures += 1
    return _result(6, "prime integrals constant along solutions", failures == 0, cases,
                   {"failures": failures, "checked_at_precision": N_ACC - 1})


def criterion_7(session):
    """Structural identity Phi(x)^t q Phi(x) = (x^t q x)^(p), 100 x per variant."""
    rng = session.rng(7)
    failures = 0
    cases = 0
    ctx = session.ctx(7, 1)
    for variant, n in (("sp", 2), ("so_even", 2), ("so_odd", 3)):
        q = build_q(ctx, variant, n)
        spec = EquationSpec("so", n, PMatrix.zeros(ctx, n), variant)
        for _ in range(100):
            x = rng.gl(ctx, n)
            P = Phi(spec, x)
            cases += 1
            if (P.transpose() @ q @ P) != (x.transpose() @ q @ x).pow_p_entrywise():
                failures += 1
    return _result(7, "SO structural identity for Phi", failures == 0, cases,
                   {"failures": failures})


def criterion_8(session):
    """Scalar cross-oracles agree mod p^{N-2}; psi(u) = beta for the exp form."""
    rng = session.rng(8)
    failures = 0
    cases = 50
    for i in range(cases):
        p = (5, 7, 13)[i % 3]
        m = 1 if i % 2 else 2
        ctx = session.ctx(p, m)
        zeta = ctx.teichmueller(rng.unit_residue(ctx))
        alpha = rng.element(ctx)
        eps = ctx.one() + ctx.p * alpha
        # beta = (1/p) log(eps), so that eps = exp_p(p*beta)
        lg = log_p(eps)
        beta = RingElement(ctx, ctx.kernel.s_divp(lg.coeffs), ctx.N - 1)

        u_solver = solve(
            EquationSpec("gl", 1, PMatrix.from_rows(ctx, [[alpha]])),
            PMatrix.from_rows(ctx, [[zeta]]),
        ).solution.entry(0, 0)
        u_closed = solve_scalar_closed_form(zeta, eps)
        u_exp = solve_scalar_exp(zeta, beta)

        tol = N_ACC - 2
        ok = (
            u_solver.eq_at(u_closed, tol)
            and u_solver.eq_at(u_exp, tol)
            and u_closed.eq_at(u_exp, tol)
            and psi(u_exp).eq_at(beta, tol)
        )
        if not ok:
            failures += 1
    return _result(8, "scalar oracles: solver / product / exp forms agree", failures == 0,
                   cases, {"failures": failures, "match_precision": N_ACC - 2})


def criterion_9(session):
    """Rationality: m = 2 with inputs in the m = 1 subring gives phi-fixed u."""
    rng = session.rng(9)
    failures = 0
    cases = 20
    kinds = (("gl", None, 2), ("sl", None, 2), ("so", "sp", 2), ("gl", None, 3))
    for i in range(cases):
        kind, variant, n = kinds[i % len(kinds)]
        p = (5, 7, 13)[i % 3]
        ctx = session.ctx(p, 2)
        alpha = rng.matrix_subring(ctx, n)
        spec = EquationSpec(kind, n, alpha, variant)
        u0 = rng.gl(ctx, n, subring=True)
        rep = solve(spec, u0)
        if rep.residual_valuation != math.inf or not frobenius_fixedness(rep.solution, 1):
            failures += 1
    return _result(9, "rationality: solutions stay phi-fixed over the subring",
                   failures == 0, cases, {"failures": failures})


def criterion_10(session):
    """Galois bounds: N^delta passes in_Gu; constancy holds; scalar bound."""
    rng = session.rng(10)
    failures = 0
    cases = 0
    grids = []
    for p, max_n in ((5, 3), (13, 2)):
        d = p - 1
        for kind, variant, n in (
            ("gl", None, 1),
            ("gl", None, 2),
            ("gl", None, 3),
            ("sl", None, 2),
            ("sl", None, 3),
            ("so", "sp", 2),
            ("so", "so_even", 2),
            ("so", "so_odd", 3),
        ):
            if n > max_n and not (p == 13 and kind == "gl" and n == 3):
                continue
            grids.append((p, d, kind, variant, n))

    for p, d, kind, variant, n in grids:
        ctx = session.ctx(p, 1)
        if kind == "gl":
            spec = _spec_for(kind, variant, n, ctx, rng, structured=False)
            u0 = rng.gl(ctx, n)
        elif kind == "sl":
            spec = EquationSpec("sl", n, rng.sl_delta_alpha(ctx, n))
            u0 = rng.sl(ctx, n)
        else:
            spec = EquationSpec("so", n, rng.so_delta_alpha(ctx, n, variant), variant)
            u0 = rng.so(ctx, n, variant)
        u = solve(spec, u0).solution
        checker = GuChecker(spec, u)
        for v in enumerate_N_delta(ctx, n, d):
            cases += 1
            if not checker(v):
                failures += 1
                continue
            # prime-integral constraints on G_u members
            if not v.det().delta().is_zero():
                failures += 1
            if kind == "so":
                form = v.transpose() @ spec.q_matrix() @ v
                if not form.delta_entrywise().is_zero():
                    failures += 1

    for p in (5, 13):
        ctx = session.ctx(p, 1)
        d = p - 1
        alpha = rng.element(ctx)
        u = solve(
            EquationSpec("gl", 1, PMatrix.from_rows(ctx, [[alpha]])),
            PMatrix.from_rows(ctx, [[ctx.teichmueller(rng.unit_residue(ctx))]]),
        ).solution.entry(0, 0)
        members = scalar_galois_bound(u, d)
        cases += 1
        if len(members) != d or not all(c.is_constant() for c in members):
            failures += 1
    return _result(10, "Galois bounds: N^delta in G_u, constancy, scalar bound",
                   failures == 0, cases, {"failures": failures})


def criterion_11(session):
    """Exact reproduction of the order-2 example for p in {7, 13}."""
    failures = 0
    details = {}
    for p in (7, 13):
        rep = example_3_9(p, N_ACC)
        labelings_ok = rep.notes["all_pass"]
        order_ok = rep.notes["order"] == 2
        details[str(p)] = {
            "all_labelings_pass": labelings_ok,
            "order": rep.notes["order"],
            "checks": [lab["checks"] for lab in rep.notes["labelings"]],
        }
        if not (labelings_ok and order_ok):
            failures += 1
    return _result(11, "order-2 Galois example reproduced exactly", failures == 0, 2,
                   details)


_CRITERIA = (
    criterion_1,
    criterion_2,
    criterion_3,
    criterion_4,
    criterion_5,
    criterion_6,
    criterion_7,
    criterion_8,
    criterion_9,
    criterion_10,
    criterion_11,
)


def _run_pass(seed, timings=None):
    session = _Session(seed)
    results = []
    for fn in _CRITERIA:
        t0 = time.perf_counter()
        res = fn(session)
        if timings is not None:
            timings[res["id"]] = time.perf_counter() - t0
        results.append(res)
    return results


def run_all(seed=42):
    """Run criteria 1-11 twice, derive criterion 12 from byte equality.

    Returns (report, timings): the report is deterministic for a fixed seed
    and kernel; timings are wall-clock seconds, reported separately.
    """
    timings = {}
    first = _run_pass(seed, timings)
    t0 = time.perf_counter()
    second = _run_pass(seed)
    identical = canonical_dumps(first) == canonical_dumps(second)
    timings[12] = time.perf_counter() - t0
    results = list(first)
    results.append(
        _result(12, "determinism: repeated runs are byte-identical", identical, 2,
                {"seed": seed})
    )
    report = {
        "seed": seed,
        "precision": N_ACC,
        "kernel": PureKernel.kind,
        "criteria": results,
        "all_pass": all(r["pass"] for r in results),
    }
    return report, timings


def format_lines(report, timings=None):
    lines = []
    for r in report["criteria"]:
        mark = "PASS" if r["pass"] else "FAIL"
        extra = f" [{timings[r['id']]:.2f}s]" if timings and r["id"] in timings else ""
        lines.append(f"{mark} criterion {r['id']:2d}: {r['name']} (cases={r['cases']}){extra}")
    lines.append(("PASS" if report["all_pass"] else "FAIL") + " overall")
    return lines
