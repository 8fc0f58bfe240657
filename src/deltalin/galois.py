"""Membership tools for the Galois layer attached to a solved equation.

For a solution u, the set G_u consists of the v with phi(v) = Phi_u(v),
Phi_u(x) = Phi(u)^{-1} Phi(ux).  Automorphism groups themselves are not
computable at finite precision; what is computed here are the certified
bounds: G_u membership, the monomial-with-constant-entries subgroup N^delta
(which always lands in G_u because the three twists are right compatible
with monomial matrices), the prime-integral constraints that every G_u
member must satisfy, and the exact order-2 example on GL_2 built from a
cube root of unity.
"""

import itertools
import math
from dataclasses import dataclass, field

from .equations import EquationSpec, Phi, residual
from .errors import DomainError, ParameterError
from .matrix import PMatrix
from .ring import make_context

__all__ = [
    "GaloisReport",
    "Phi_u",
    "in_Gu",
    "GuChecker",
    "enumerate_N_delta",
    "is_monomial",
    "check_right_compatibility",
    "constancy_on_Gu",
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


def Phi_u(spec, u, x):
    """Phi_u(x) = Phi(u)^{-1} Phi(u x)."""
    return Phi(spec, u).inverse() @ Phi(spec, u @ x)


class GuChecker:
    """Membership tester for G_u with Phi(u)^{-1} cached across candidates."""

    def __init__(self, spec, u):
        self.spec = spec
        self.u = u
        self._phi_u_inv = Phi(spec, u).inverse()

    def phi_u(self, x):
        return self._phi_u_inv @ Phi(self.spec, self.u @ x)

    def __call__(self, v, prec=None):
        lhs = v.frobenius_entrywise()
        rhs = self.phi_u(v)
        if prec is None:
            return lhs == rhs
        return lhs.eq_at(rhs, prec)


def in_Gu(spec, u, v, prec=None):
    """Whether phi(v) = Phi(u)^{-1} Phi(uv) at working precision."""
    return GuChecker(spec, u)(v, prec)


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


def enumerate_N_delta(ctx, n, d, cap=10 ** 6):
    """All monomial matrices with entries Teichmueller units of order dividing d.

    Products (permutation matrix) * diag(torsion units); requires d | p^m - 1.
    Deterministic order: permutations lexicographically, then exponent
    vectors lexicographically.
    """
    total = math.factorial(n) * d ** n
    if total > cap:
        raise ParameterError(f"enumeration size {total} exceeds cap {cap}")
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


def check_right_compatibility(spec, samples=100, seed=0):
    """Sample a in GL_n and monomial c and test Phi(ac) = Phi(a) c^{(p)}.

    Returns (ok, witness): witness is the first failing (a, c) pair, if any.
    """
    from .sampling import Rng

    if samples < 0:
        raise ParameterError("samples must be >= 0")
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


def constancy_on_Gu(spec, u, v):
    """The prime-integral values delta(det v) and, for so, delta(v^t q v).

    Precondition: v is in G_u.  For kind sl the first component must vanish,
    for kind so the second must vanish entrywise; for gl no vanishing is
    claimed.
    """
    if not in_Gu(spec, u, v):
        raise DomainError("v is not in G_u")
    d_det = v.det().delta()
    d_form = None
    if spec.kind == "so":
        d_form = (v.transpose() @ spec.q_matrix() @ v).delta_entrywise()
    return d_det, d_form


def scalar_galois_bound(u, d):
    """For a scalar gl-type solution u: the d-torsion units c with c in G_u.

    Every member satisfies delta(c) = 0, and conversely every constant c
    passes (phi(c) = c^p), so the list is exactly the d-torsion units.
    """
    ctx = u.ctx
    alpha = recover_scalar_alpha(u)
    spec = EquationSpec("gl", 1, PMatrix.from_rows(ctx, [[alpha]]))
    U = PMatrix.from_rows(ctx, [[u]])
    checker = GuChecker(spec, U)
    out = []
    for c in ctx.torsion_units(d):
        if checker(PMatrix.from_rows(ctx, [[c]])):
            out.append(c)
    return out


def recover_scalar_alpha(u):
    """alpha = delta(u) / u^p for a scalar unit solution."""
    if not u.is_unit():
        raise DomainError("u must be a unit")
    return u.delta() * (u ** u.ctx.p).invert()


def example_3_9(p, N=16, cap_order=64):
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
            "c_in_Gu": in_Gu(spec, u, c),
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
        constancy={"delta_det": c.det().delta().valuation()},
        notes={
            "p": p,
            "order": matrix_order(c, cap_order),
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
