"""Delta-linear equations phi(u) = (1 + p*alpha) * Phi(u) and their solutions.

Three equation types are supported, distinguished by the twist Phi:

  gl:  Phi(x) = x^{(p)}
  sl:  Phi(x) = lambda(x) * x^{(p)},
       lambda(x) = (det(x^{(p)}) / det(x)^p)^{-1/n},  p not dividing n
  so:  Phi(x) = x^{(p)} * Lambda(x),
       Lambda(x) = (((x^{(p)})^t q x^{(p)})^{-1} (x^t q x)^{(p)})^{1/2}

The -1/n-th and 1/2 powers are the unique roots congruent to 1 mod p; both
are computed by one Hensel-Newton routine, `ring._hensel_root`, which is
exact mod p^N and agrees with the usual binomial series by uniqueness.

The solution is the fixed point of the contraction
u_{k+1} = phi^{-1}((1 + p*alpha) * Phi(u_k)) from u_0 = u0 known to one
digit.  Phi depends on u only through p-th powers (x^{(p)}, det(x)^p and
(x^t q x)^{(p)}), and a p-th power is known to one digit more than its base
(`ring.py`), so each step gains one digit: u_k carries known_prec k + 1,
u_k = u mod p^{k+1} for the unique solution u congruent to u0 mod p, and N
steps give u to N digits.  `solve` returns that solution and its
diagnostics, not its iterates; acceptance criterion 3 runs the contraction
as stated, through the public `Phi`, and checks `solve` against it.
`solve` itself runs the contraction for gl and so, and solves sl as
follows.

sl is solved as gl times a scalar.  For a unit scalar c, (c x)^{(p)} =
c^p x^{(p)} and det(c x) = c^n det x, so lambda(c x)^{-n} =
c^{pn} det(x^{(p)}) / (c^n det x)^p = lambda(x)^{-n}, and the root
congruent to 1 mod p gives lambda(c x) = lambda(x).  Let w be the gl
solution, phi(w) = eps w^{(p)} with w = u0 mod p, and c = 1 mod p the
scalar with phi(c) = lambda(w) c^p.  Then u = c w has u = u0 mod p and
phi(u) = phi(c) phi(w) = lambda(w) c^p eps w^{(p)} = eps lambda(u) u^{(p)},
so u is the sl solution.  c comes from the scalar loop
c <- phi^{-1}(lambda(w) c^p), N steps from 1 known to one digit, which
gains one digit per step by the same rule.  So the sl solve runs the gl
loop, one cold lambda at full precision and the scalar loop; no twist is
computed inside the matrix loop.

Only the so loop carries a twist.  Each known_prec counts the digits a
value shares with its value at the solution, so step k needs Lambda(u_k)
to k + 2 digits, as many as its radicand M = A^{-1} C is known to.  The
solver carries Lambda's root from step to step instead of rebuilding it
from 1: the previous root Y is known to k + 1 digits, a warm start is
trusted to its own claim, and one step Y <- Y - W (A Y^2 - C) gains one
digit (`_so_root_step`).  W = (2 A_0)^{-1} is one inverse per solve: every
iterate is u0 mod p, so A = A_0 mod p, and W is needed only mod p.  The
step forms no M and solves nothing.  Step 0 starts from 1 known to one
digit, which Lambda is congruent to mod p.

The twists' roots are unique, so a candidate is checked rather than
computed, by the identity of `ring._hensel_root`: for L and a root R, both
= 1 mod p, v_p(L - R) = v_p(L^k - R^k) for k = 2 or k = n.  That check
certifies each cold root and, by v(Y - Lambda) = v(Y^2 - M) = v(A Y^2 - C)
for an invertible A, each warm step's claim, and it gives the
residual valuation of a candidate u with no root at all
(`residual_valuation`).
"""

from dataclasses import dataclass

from .errors import AlgebraInvariantError, DomainError, ParameterError, PrecisionError
from .matrix import PMatrix, in_GLn, matrix_sqrt_one_mod_p
from .ring import RingElement, _hensel_root

__all__ = [
    "KINDS",
    "SO_VARIANTS",
    "EquationSpec",
    "SolveReport",
    "build_q",
    "lambda_sl",
    "Lambda_so",
    "Phi",
    "Delta_of",
    "solve",
    "residual",
    "residual_valuation",
    "recover_alpha",
    "solve_scalar_closed_form",
    "solve_scalar_exp",
    "prime_integral_check",
    "frobenius_fixedness",
    "fixedness",
    "lang_map",
]

KINDS = ("gl", "sl", "so")
SO_VARIANTS = ("sp", "so_even", "so_odd")


def build_q(ctx, variant, n):
    """The bilinear-form matrix of an SO(q) variant.

    sp:      [[0, 1_r], [-1_r, 0]]        n = 2r
    so_even: [[0, 1_r], [1_r, 0]]         n = 2r
    so_odd:  [[1, 0, 0], [0, 0, 1_r], [0, 1_r, 0]]   n = 2r + 1
    """
    _check_variant(variant, n)
    if variant in ("sp", "so_even"):
        r = n // 2
        rows = [[0] * n for _ in range(n)]
        for i in range(r):
            rows[i][r + i] = 1
            rows[r + i][i] = -1 if variant == "sp" else 1
    else:
        r = (n - 1) // 2
        rows = [[0] * n for _ in range(n)]
        rows[0][0] = 1
        for i in range(r):
            rows[1 + i][1 + r + i] = 1
            rows[1 + r + i][1 + i] = 1
    return PMatrix.from_rows(ctx, rows)


def _check_variant(variant, n):
    """The SO(q) variant rules: sp and so_even need even n >= 2, so_odd odd n >= 3."""
    if variant not in SO_VARIANTS:
        raise ParameterError(f"kind 'so' needs a variant from {SO_VARIANTS}, got {variant!r}")
    if variant == "so_odd":
        if n < 3 or n % 2 == 0:
            raise ParameterError("variant 'so_odd' needs odd n >= 3")
    elif n < 2 or n % 2:
        raise ParameterError(f"variant {variant!r} needs even n >= 2")


@dataclass(frozen=True, eq=False)
class EquationSpec:
    """A delta-linear equation: the type tag, dimension, and twist alpha."""

    kind: str
    n: int
    alpha: PMatrix
    variant: str = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ParameterError(f"kind must be one of {KINDS}")
        ctx = self.alpha.ctx
        if type(self.n) is not int:
            raise ParameterError(f"n must be an integer, not {self.n!r}")
        if self.alpha.n != self.n:
            raise ParameterError("alpha dimension does not match n")
        if self.kind == "sl" and self.n % ctx.p == 0:
            raise ParameterError("p must not divide n for kind 'sl'")
        if self.kind == "so":
            _check_variant(self.variant, self.n)
        elif self.variant is not None:
            raise ParameterError("variant only applies to kind 'so'")

    @property
    def ctx(self):
        return self.alpha.ctx

    def q_matrix(self):
        if self.kind != "so":
            return None
        key = ("q", self.variant, self.n)
        if key not in self.ctx._cache:
            self.ctx._cache[key] = build_q(self.ctx, self.variant, self.n)
        return self.ctx._cache[key]

    def epsilon(self):
        """1 + p*alpha."""
        return PMatrix.identity(self.ctx, self.n) + self.ctx.p * self.alpha


@dataclass(frozen=True, eq=False)
class SolveReport:
    solution: PMatrix
    iterations: int
    residual_valuation: object  # int or math.inf
    integral_values: tuple
    fixedness: int


# -- the twists ------------------------------------------------------------------


def lambda_sl(x, *, _xp=None):
    """lambda(x) = (det(x^{(p)}) / det(x)^p)^{-1/n}, the sl-type scalar twist.

    Characterized by lambda(x)^n * det(x^{(p)}) = det(x)^p and = 1 mod p: the
    root of `ring._hensel_root` with k = n.
    `_xp`, when given, is x^{(p)}, already computed by the caller.
    """
    d = _sl_det(x)
    xp = x.pow_p_entrywise() if _xp is None else _xp
    # lambda^n = det(x)^p / det(x^{(p)}), with a single inversion
    b = d ** x.ctx.p * xp.det().invert()
    return RingElement(x.ctx, *_hensel_root(x.ctx, b.flat, 1, x.n, b.known_prec))


def _sl_det(x):
    """det(x), once x passes the checks of the sl twist."""
    if x.n % x.ctx.p == 0:
        raise DomainError("p must not divide n for kind 'sl'")
    d = x.det()
    if not d.is_unit():
        raise DomainError("x must be invertible")
    return d


def Lambda_so(x, q, *, _xp=None):
    """Lambda(x) = (((x^{(p)})^t q x^{(p)})^{-1} (x^t q x)^{(p)})^{1/2}.

    Lambda(x) is known to one digit more than x, as its radicand is
    (`_so_radicand`).  `_xp`, when given, is x^{(p)}, already computed by
    the caller.
    """
    xp = x.pow_p_entrywise() if _xp is None else _xp
    return matrix_sqrt_one_mod_p(_so_radicand(x, q, xp))


def _so_radicand(x, q, xp):
    """M = A^{-1} C, A = (x^{(p)})^t q x^{(p)} and C = (x^t q x)^{(p)}, for
    xp = x^{(p)}: each form is one kernel product (`PMatrix.form`) and
    A^{-1} C is one elimination (`PMatrix.solve`), with no inverse built.
    M = 1 mod p, since A = C mod p, and it is known to one digit more
    than x."""
    return xp.form(q).solve(x.form(q).pow_p_entrywise())


def _so_root_step(kernel, n, A, C, W, Y, Y2, K, c):
    """One warm step toward Lambda = 1 mod p, the root of M = A^{-1} C, on
    the kernel's flats: Y <- Y - W (A Y^2 - C), four products and no solve.

    A and C are known to K digits, Y is a start trusted to c digits, Y2 is
    Y^2, and W = (2A)^{-1} mod p.  As W A = (1 + pG)/2 and A Y^2 - C =
    A (Y^2 - M), the error E = Y - Lambda becomes, with Lambda = 1 + pT,
    E - (Lambda E + E Lambda + E^2)/2 + O(pE) = O(pE) + O(E^2): one digit
    gained, from a start that need not commute with M.  Returns the root,
    its square and its claim min(K, c + 1), certified by A Y^2 = C mod p^K
    before it is returned: A is invertible, so v(Y - Lambda) = v(A Y^2 - C).
    """
    K = min(K, c + 1)
    Y = kernel.sub(Y, kernel.m_mul(W, kernel.sub(kernel.m_mul(A, Y2, n), C), n))
    Y2 = kernel.m_mul(Y, Y, n)
    if not kernel.eq_mod(kernel.m_mul(A, Y2, n), C, K):
        raise AlgebraInvariantError("so twist: the warm square root failed its check")
    return Y, Y2, K


def _phi(kind, x, q):
    """Phi(x) of the kind, cold, with x^{(p)} shared with the twist."""
    xp = x.pow_p_entrywise()
    if kind == "gl":
        return xp
    if kind == "sl":
        return lambda_sl(x, _xp=xp) * xp
    return xp @ Lambda_so(x, q, _xp=xp)


def Phi(spec, x):
    """The twist Phi(x) = x^{(p)} + p*Delta(x) of the given type."""
    return _phi(spec.kind, x, spec.q_matrix())


def Delta_of(spec, x):
    """Delta(x) = (Phi(x) - x^{(p)}) / p, by exact digit-shift division;
    known to as many digits as x, at most N - 1."""
    return (Phi(spec, x) - x.pow_p_entrywise()).exact_div_p()


# -- solver -------------------------------------------------------------------------


def residual(spec, u):
    """phi(u) - (1 + p*alpha) * Phi(u); zero iff u solves the equation."""
    return u.frobenius_entrywise() - spec.epsilon() @ Phi(spec, u)


def residual_valuation(spec, u):
    """residual(spec, u).valuation(), with no root computed.

    With X = u^{(p)} and L = (eps X)^{-1} phi(u), the residual is
    eps X (L - Lambda(u)) for so and eps X (L - lambda(u)) for sl, and
    eps X is invertible, so its valuation is that of the second factor.
    phi(u) = u^{(p)} mod p for every u, so L = 1 mod p, as are the roots,
    and each root is the unique one = 1 mod p: L is a candidate root that
    can be checked where the root would be computed.

      so:  v(L - Lambda) = v(L^2 - M) for the radicand M, by the identity
           v(L - S) = v(L^k - S^k) of `ring._hensel_root` at k = 2.
      sl:  with l = L_00, v(L - lambda) = min(v(L - l), v(l - lambda)).
           By the same identity at k = n, and as lambda^n det X = det(u)^p,
           v(l - lambda) = v(l^n det X - det(u)^p).
      gl:  the residual itself, which needs no root.

    Every value is capped at the precision the residual carries, and a u
    that is singular mod p raises the error `residual` raises.
    """
    if spec.kind == "gl":
        return residual(spec, u).valuation()
    X = u.pow_p_entrywise()
    if spec.kind == "sl":
        d = _sl_det(u)
    else:
        M = _so_radicand(u, spec.q_matrix(), X)
    L = (spec.epsilon() @ X).solve(u.frobenius_entrywise())
    if spec.kind == "so":
        return (L @ L - M).valuation()
    ell = L.entry(0, 0)
    return min(
        (L - PMatrix.scalar(spec.ctx, spec.n, ell)).valuation(),
        (ell ** spec.n * X.det() - d ** spec.ctx.p).valuation(),
    )


def solve(spec, u0):
    """The unique solution congruent to u0 mod p, with residual and
    prime-integral diagnostics.

    gl and so run the fixed-point iteration u <- phi^{-1}(eps * Phi(u))
    exactly N times, on the kernel's flat tuples, with the claims kept as
    ints and the solution wrapped once.  The loop starts from u0 known to
    one digit, and Phi(u) is known to one digit more than u (the p-th power
    rule of `ring.py`), so iterate k is known to k + 1 digits and the
    solution to N.  For so, Lambda's root starts from the previous step's
    root, trusted to its own claim c, and takes one step
    Y <- Y - W (A Y^2 - C) to min(N, k + 2, c + 1) digits
    (`_so_root_step`); step 0 starts from 1 known to one digit.  W =
    (2 A_0)^{-1} is needed only mod p, where A = A_0 at every step, so it is
    one inverse per solve, kept mod p: its products multiply digits below p
    by full-width ones.  Each root is certified by A Y^2 = C before it is
    used, and a failed check raises AlgebraInvariantError.  So an so step
    costs two forms, a p-th power and four products for its twist, and no
    elimination.  sl runs the gl loop to its solution w, then N steps of
    c <- phi^{-1}(lambda(w) c^p) from c = 1 known to one digit with one
    cold lambda(w), and returns c w: lambda is blind to scalar factors, so
    c w solves the sl equation (see the module docstring).  The residual
    valuation comes from `residual_valuation`, which checks the solution
    against the twist's defining identity instead of computing a root.
    """
    ctx = spec.ctx
    if not ctx.same(u0.ctx):
        raise DomainError("u0 belongs to a different ring")
    if u0.n != spec.n:
        raise DomainError("u0 dimension mismatch")
    if spec.alpha.known_prec < ctx.N:
        raise PrecisionError("alpha entries must be known to full precision N")
    if not in_GLn(u0):
        raise DomainError("u0 is singular mod p")

    kernel, n, m, N = ctx.kernel, spec.n, ctx.m, ctx.N
    eps = spec.epsilon().flat
    # The solution is defined by u0's residue, so u0 is known to one digit.
    x = u0.flat
    if spec.kind == "so":
        Q = spec.q_matrix().flat
        # Lambda is 1 mod p, so 1 is a start known to one digit; 1^2 = 1.
        Y = Y2 = kernel.m_identity(n)
        c = 1
    for k in range(N):
        P = kernel.m_powp(x)  # known to min(k + 2, N) digits, as A and C are
        if spec.kind == "so":
            A = kernel.m_form(P, Q, n)
            C = kernel.m_powp(kernel.m_form(x, Q, n))
            if k == 0:
                W = tuple(w % ctx.p for w in kernel.m_inv(kernel.scal_int(2, A), n))
            Y, Y2, c = _so_root_step(kernel, n, A, C, W, Y, Y2, min(k + 2, N), c)
            P = kernel.m_mul(P, Y, n)
        x = kernel.m_mul(eps, P, n)
        if m > 1:
            x = kernel.m_frob(x, m - 1)
    if spec.kind == "sl":
        lam = lambda_sl(PMatrix(ctx, n, x, N)).flat
        s = kernel.one  # c = 1 mod p, known to one digit; each step gains one
        for _ in range(N):
            s = kernel.s_mul(lam, kernel.s_pow(s, ctx.p))
            if m > 1:
                s = kernel.s_frob(s, m - 1)
        x = kernel.m_scal(s, x)
    u = PMatrix(ctx, n, x, N)

    return SolveReport(
        solution=u,
        iterations=N,
        residual_valuation=residual_valuation(spec, u),
        integral_values=prime_integral_check(spec, u),
        fixedness=fixedness(u),
    )


def prime_integral_check(spec, u):
    """Each prime integral at u with its delta, as (name, value, delta value):
    (('det', det u, delta(det u)),) for sl, (('xtqx', u^t q u, delta(u^t q u)),)
    for so, () for gl.  The delta values vanish when u solves spec and
    1 + p*alpha lies in SL_n (sl) or SO(q) (so), since
    phi(det u) = det(1 + p*alpha) det(u)^p; for any other alpha they need
    not vanish on a solution."""
    if spec.kind == "sl":
        d = u.det()
        return (("det", d, d.delta()),)
    if spec.kind == "so":
        form = u.form(spec.q_matrix())
        return (("xtqx", form, form.delta_entrywise()),)
    return ()


def frobenius_fixedness(u, nu):
    """Whether phi^nu fixes u at full precision."""
    if not 1 <= nu <= u.ctx.m:
        raise ParameterError("nu must satisfy 1 <= nu <= m")
    return u.frobenius_entrywise(nu) == u


def fixedness(u):
    """Smallest nu with phi^nu(u) = u; it divides m, as phi^m = 1."""
    m = u.ctx.m
    return next(nu for nu in range(1, m + 1) if m % nu == 0 and frobenius_fixedness(u, nu))


def recover_alpha(u, kind, variant=None):
    """alpha = (phi(u) * Phi(u)^{-1} - 1) / p, the twist solved by u."""
    phi_u = u.frobenius_entrywise()
    P = _phi(kind, u, build_q(u.ctx, variant, u.n) if kind == "so" else None)
    one = PMatrix.identity(u.ctx, u.n)
    return (phi_u @ P.inverse() - one).exact_div_p()


def lang_map(a):
    """a -> phi(a) (a^{(p)})^{-1}; its fiber over 1 + p*alpha is the gl-type
    solution set."""
    return a.frobenius_entrywise() @ a.pow_p_entrywise().inverse()


# -- scalar closed forms ------------------------------------------------------------


def solve_scalar_closed_form(zeta, epsilon):
    """u = zeta * eps_{-1} * eps_{-2}^p * eps_{-3}^{p^2} * ... (truncated product).

    Solves phi(u) = eps * u^p with u = zeta mod p, for constant zeta and
    eps = 1 mod p.  Factor k contributes mod p^k, so N factors suffice.
    """
    ctx = zeta.ctx
    if not zeta.is_constant():
        raise DomainError("zeta must be a constant (delta zeta = 0)")
    if (epsilon - ctx.one()).valuation() < 1:
        raise DomainError("epsilon must be = 1 mod p")
    m = ctx.m
    u = zeta
    pk = 1  # p^{k-1}
    for k in range(1, ctx.N + 1):
        eps_k = epsilon.frobenius((-k) % m)
        u = u * eps_k ** pk
        pk *= ctx.p
    return u


def solve_scalar_exp(zeta, beta):
    """u = zeta * exp(sum_{n>=1} p^n phi^{-n}(beta)); satisfies psi(u) = beta
    and phi(u) = exp_p(p*beta) * u^p."""
    from .ring import exp_p

    ctx = zeta.ctx
    if not zeta.is_constant():
        raise DomainError("zeta must be a constant (delta zeta = 0)")
    m = ctx.m
    acc = ctx.zero()
    pn = 1
    for n in range(1, ctx.N):
        pn *= ctx.p
        acc = acc + pn * beta.frobenius((-n) % m)
    return zeta * exp_p(acc)
