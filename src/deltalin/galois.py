"""Membership tools for the Galois layer attached to a solved equation.

For a solution u, the set G_u consists of the v with
phi(v) = Phi(u)^{-1} Phi(uv); `GuChecker(spec, u)` tests membership.
Automorphism groups themselves are not computable at finite precision; what
is computed here are the certified bounds: G_u membership, the
monomial-with-constant-entries subgroup N^delta (which always lands in G_u
because the three twists are right compatible with monomial matrices), the
prime-integral values of a candidate (`constancy_values`), and the exact
order-2 example on GL_2 built from a cube root of unity.

Of the prime-integral values, delta(det v) = 0 holds on every G_u member
for kind sl.  delta(v^t q v) = 0 holds for kind so only when u^t q u = q.
Every member is v = u^{-1} w for a solution w of the same equation, so
v^t q v = w^t (u^{-t} q u^{-1}) w: this is the prime integral w^t q w of w
when u is in SO_q, and in general it is not constant.
"""

import itertools
import math
from dataclasses import dataclass, field

from .equations import EquationSpec, Phi, recover_alpha, residual
from .errors import ParameterError
from .matrix import PMatrix, in_GLn
from .ring import MAX_DIM, make_context

__all__ = [
    "GaloisReport",
    "GuChecker",
    "enumerate_N_delta",
    "is_monomial",
    "check_right_compatibility",
    "constancy_values",
    "scalar_galois_bound",
    "example_3_9",
]


@dataclass(frozen=True, eq=False)
class GaloisReport:
    candidate: PMatrix
    in_Gu: bool
    in_N_delta: bool
    constancy: dict
    notes: dict = field(default_factory=dict)


class GuChecker:
    """Membership tester for G_u with Phi(u)^{-1} cached across candidates:
    one product per candidate costs less than a solve per candidate.  A
    candidate is tested to its own known_prec: `checker(v.with_prec(k))`
    tests mod p^k and computes Phi(u v) to k + 1 digits only."""

    def __init__(self, spec, u):
        self.spec = spec
        self.u = u
        self._phi_u_inv = Phi(spec, u).inverse()

    def phi_u(self, x):
        """Phi(u)^{-1} Phi(u x)."""
        return self._phi_u_inv @ Phi(self.spec, self.u @ x)

    def __call__(self, v):
        """Whether v is in GL_n and phi(v) = Phi(u)^{-1} Phi(uv) mod
        p^{v.known_prec}.  G_u lies in GL_n, so a v singular mod p is no
        member, whatever the kind; its twist need not even be defined."""
        return in_GLn(v) and v.frobenius_entrywise() == self.phi_u(v)


def is_monomial(v):
    """One nonzero entry per row and per column (membership in N)."""
    n = v.n
    taken = set()
    for i in range(n):
        nz = [j for j in range(n) if v.entry(i, j).valuation() == 0]
        low = [j for j in range(n) if 0 < v.entry(i, j).valuation() < math.inf]
        if len(nz) != 1 or low:
            return False
        if nz[0] in taken:
            return False
        taken.add(nz[0])
    return True


# A cap on the N^delta list in digits, like the context caps: the list is
# built whole, and `galois` reports every candidate, n^2 m N digits each.
MAX_N_DELTA = 10 ** 7


def enumerate_N_delta(ctx, n, d):
    """All monomial matrices with entries Teichmueller units of order dividing d.

    Products (permutation matrix) * diag(torsion units); requires d | p^m - 1
    and n! d^n candidates of n^2 m N digits each, at most MAX_N_DELTA digits
    in all, or ParameterError.  Deterministic order: permutations
    lexicographically, then exponent vectors lexicographically.  n is an
    int in [1, MAX_DIM] and d an int >= 1, or ParameterError.
    """
    if type(n) is not int or not 1 <= n <= MAX_DIM:
        raise ParameterError(f"n must be an integer in [1, {MAX_DIM}], got {n!r}")
    if type(d) is not int or d < 1:
        raise ParameterError(f"d must be a positive integer, got {d!r}")
    total = math.factorial(n) * d ** n
    digits = total * n * n * ctx.m * ctx.N
    if digits > MAX_N_DELTA:
        raise ParameterError(
            f"N^delta list of {total} candidates, {digits} digits, exceeds the cap"
            f" of {MAX_N_DELTA} digits"
        )
    units = ctx.torsion_units(d)
    zero, out = ctx.zero(), []
    for perm in itertools.permutations(range(n)):
        for exps in itertools.product(range(d), repeat=n):
            rows = [[zero] * n for _ in range(n)]
            for i in range(n):
                # row i of P*D has its nonzero entry at column perm[i]
                rows[i][perm[i]] = units[exps[perm[i]]]
            out.append(PMatrix.from_rows(ctx, rows))
    return out


# A cap on the sample count, like the context caps on p, m and N: each
# sample costs two cold Phi calls, so an unbounded count can hold a process
# for days.
MAX_SAMPLES = 10_000


def check_right_compatibility(spec, samples=100, seed=0):
    """Sample a in GL_n and monomial c and test Phi(ac) = Phi(a) c^{(p)}.

    Returns (ok, witness): witness is the first failing (a, c) pair, if any.
    samples an int in [0, MAX_SAMPLES], or ParameterError.
    """
    from .sampling import Rng

    if type(samples) is not int or samples < 0:
        raise ParameterError(f"samples must be an integer >= 0, got {samples!r}")
    if samples > MAX_SAMPLES:
        raise ParameterError(f"samples={samples} exceeds the cap {MAX_SAMPLES}")
    rng = Rng(seed)
    ctx = spec.ctx
    for _ in range(samples):
        a = rng.gl(ctx, spec.n)
        c = rng.monomial(ctx, spec.n)
        lhs = Phi(spec, a @ c)
        rhs = Phi(spec, a) @ c.pow_p_entrywise()
        if lhs != rhs:
            return False, (a, c)
    return True, None


def constancy_values(spec, v):
    """The prime-integral values (delta(det v), delta(v^t q v)) of a G_u
    candidate v; the second is None unless spec.kind is so.  Which of them
    vanish on G_u is stated in the module docstring."""
    d_det = v.det().delta()
    d_form = v.form(spec.q_matrix()).delta_entrywise() if spec.kind == "so" else None
    return d_det, d_form


def scalar_galois_bound(u, d):
    """For a scalar gl-type solution u: the d-torsion units c with c in G_u.

    Every member satisfies delta(c) = 0, and conversely every constant c
    passes (phi(c) = c^p), so the list is exactly the d-torsion units.
    """
    ctx = u.ctx
    U = PMatrix.from_rows(ctx, [[u]])
    spec = EquationSpec("gl", 1, recover_alpha(U, "gl"))
    checker = GuChecker(spec, U)
    out = []
    for c in ctx.torsion_units(d):
        if checker(PMatrix.from_rows(ctx, [[c]])):
            out.append(c)
    return out


def example_3_9(p, N=16):
    """The order-2 Galois example on GL_2 over Z_p with a cube root of unity.

    Requires p = 1 mod 3 and runs over m = 1.  For each of the two labelings
    of the nontrivial cube roots z it builds

        u = [[1, z], [1, z^2]],   c = [[1, -1], [0, -1]],

    and verifies: det u = z^2 - z is a unit; delta(u) = 0 entrywise (u solves
    the gl-type equation with alpha = 0); c is in G_u; c is not monomial;
    u*c equals u with z and z^2 swapped entrywise; c^2 = 1.
    """
    if p % 3 != 1:
        raise ParameterError("p must be congruent to 1 mod 3")
    ctx = make_context(p, 1, N)
    spec = EquationSpec("gl", 2, PMatrix.zeros(ctx, 2))
    c = PMatrix.from_rows(ctx, [[1, -1], [0, -1]])
    g = ctx.residue_generator()[0]
    z1 = pow(g, (p - 1) // 3, p)
    labelings = []
    member = True
    for z_res in (z1, z1 * z1 % p):
        z = ctx.teichmueller(z_res)
        z2 = z * z
        u = PMatrix.from_rows(ctx, [[ctx.one(), z], [ctx.one(), z2]])
        uc = u @ c
        swapped = PMatrix.from_rows(ctx, [[ctx.one(), z2], [ctx.one(), z]])
        checks = {
            "det_unit": u.det().is_unit(),
            "delta_u_zero": u.delta_entrywise().is_zero(),
            "c_in_Gu": GuChecker(spec, u)(c),
            "c_not_in_N": not is_monomial(c),
            "uc_swaps_roots": uc == swapped,
            "c_squared_identity": (c @ c) == PMatrix.identity(ctx, 2),
            "uc_solves_equation": residual(spec, uc).is_zero(),
        }
        member = member and checks["c_in_Gu"]
        labelings.append({"zeta_residue": z_res, "checks": checks})

    all_pass = all(all(lab["checks"].values()) for lab in labelings)
    return GaloisReport(
        candidate=c,
        in_Gu=member,
        in_N_delta=False,
        constancy={"delta_det": constancy_values(spec, c)[0].valuation()},
        notes={
            "p": p,
            "order": matrix_order(c),
            "labelings": labelings,
            "all_pass": all_pass,
        },
    )


def matrix_order(v, cap=10 ** 4):
    """Multiplicative order of v, or None if it exceeds cap."""
    one = PMatrix.identity(v.ctx, v.n)
    w = v
    for k in range(1, cap + 1):
        if w == one:
            return k
        w = w @ v
    return None
