"""n x n matrix algebra over the truncated p-adic ring.

PMatrix is a value type: flat kernel-owned storage, one trusted precision
for the whole matrix (the minimum over the entries it was built from).
Entrywise Frobenius / Fermat-quotient / p-power maps, the group law
a +_d b = a + b + p*a*b on gl_n, the matrix binomial series, Newton square
roots of matrices congruent to 1 mod p, and membership predicates for the
classical groups and their delta-Lie algebras.
"""

import math

from ._intmath import vp, vp_factorial
from .errors import (
    AlgebraInvariantError,
    DomainError,
    ParameterError,
    PrecisionError,
    SingularMatrixError,
)
from .ring import RingElement

__all__ = [
    "PMatrix",
    "delta_add",
    "delta_inverse",
    "matrix_one_plus_pT_pow",
    "matrix_sqrt_one_mod_p",
    "in_GLn",
    "in_SLn",
    "in_SOq",
    "in_sl_delta",
    "in_so_delta",
]


class PMatrix:
    __slots__ = ("ctx", "n", "known_prec", "_h", "_flat")

    def __init__(self, ctx, n, handle, known_prec):
        self.ctx = ctx
        self.n = n
        self._h = handle
        self.known_prec = known_prec
        self._flat = None

    # -- construction ----------------------------------------------------------

    @staticmethod
    def from_rows(ctx, rows, prec=None):
        rows = [list(r) for r in rows]
        n = len(rows)
        if n < 1 or any(len(r) != n for r in rows):
            raise ParameterError("rows must form a square matrix")
        _check_dim(ctx, n)
        flat = []
        known = ctx.N if prec is None else prec
        for row in rows:
            for v in row:
                e = ctx.element(v) if not isinstance(v, RingElement) else v
                if isinstance(v, RingElement):
                    if not ctx.same(v.ctx):
                        raise DomainError("entry from a different ring")
                    known = min(known, v.known_prec)
                flat.extend(e.coeffs)
        return PMatrix(ctx, n, ctx.kernel.m_new(flat, n), known)

    @staticmethod
    def from_flat(ctx, flat, n, prec=None):
        _check_dim(ctx, n)
        return PMatrix(ctx, n, ctx.kernel.m_new(list(flat), n), ctx.N if prec is None else prec)

    @staticmethod
    def identity(ctx, n):
        _check_dim(ctx, n)
        return PMatrix(ctx, n, ctx.kernel.m_identity(n), ctx.N)

    @staticmethod
    def zeros(ctx, n):
        _check_dim(ctx, n)
        return PMatrix(ctx, n, ctx.kernel.m_new([0] * (n * n * ctx.m), n), ctx.N)

    @staticmethod
    def scalar(ctx, n, value):
        """value * identity."""
        e = value if isinstance(value, RingElement) else ctx.element(value)
        k = ctx.kernel
        return PMatrix(ctx, n, k.m_scal(e.coeffs, k.m_identity(n)), min(ctx.N, e.known_prec))

    # -- plumbing ---------------------------------------------------------------

    @property
    def kernel(self):
        return self.ctx.kernel

    @property
    def flat(self):
        if self._flat is None:
            self._flat = self.kernel.m_export(self._h)
        return self._flat

    def _wrap(self, handle, prec=None):
        return PMatrix(self.ctx, self.n, handle, self.known_prec if prec is None else prec)

    def _peer(self, other):
        if not isinstance(other, PMatrix):
            return None
        if other.ctx is not self.ctx and not self.ctx.same(other.ctx):
            raise DomainError("matrices over different rings")
        if other.n != self.n:
            raise DomainError("dimension mismatch")
        return other

    def entry(self, i, j):
        m = self.ctx.m
        s = (i * self.n + j) * m
        return RingElement(self.ctx, tuple(self.flat[s : s + m]), self.known_prec)

    def rows(self):
        return [[self.entry(i, j) for j in range(self.n)] for i in range(self.n)]

    def __repr__(self):
        if self.ctx.m == 1:
            body = [[self.flat[(i * self.n + j)] for j in range(self.n)] for i in range(self.n)]
        else:
            body = [
                [list(self.entry(i, j).coeffs) for j in range(self.n)]
                for i in range(self.n)
            ]
        return f"PMatrix({body}, prec={self.known_prec})"

    def __eq__(self, other):
        other = self._peer(other)
        if other is None:
            return NotImplemented
        k = min(self.known_prec, other.known_prec)
        return self.kernel.m_eq_mod(self._h, other._h, k)

    __hash__ = None

    def eq_at(self, other, k):
        other = self._peer(other)
        return self.kernel.m_eq_mod(self._h, other._h, k)

    def with_prec(self, k):
        return PMatrix(self.ctx, self.n, self._h, min(k, self.ctx.N))

    # -- ring operations ---------------------------------------------------------

    def __add__(self, other):
        other = self._peer(other)
        if other is None:
            return NotImplemented
        return self._wrap(
            self.kernel.m_add(self._h, other._h), min(self.known_prec, other.known_prec)
        )

    def __sub__(self, other):
        other = self._peer(other)
        if other is None:
            return NotImplemented
        return self._wrap(
            self.kernel.m_sub(self._h, other._h), min(self.known_prec, other.known_prec)
        )

    def __neg__(self):
        return self._wrap(self.kernel.m_neg(self._h))

    def __matmul__(self, other):
        other = self._peer(other)
        if other is None:
            return NotImplemented
        return self._wrap(
            self.kernel.m_mul(self._h, other._h), min(self.known_prec, other.known_prec)
        )

    def __mul__(self, other):
        if isinstance(other, int):
            return self._wrap(self.kernel.m_scal_int(other, self._h))
        if isinstance(other, RingElement):
            if not self.ctx.same(other.ctx):
                raise DomainError("scalar from a different ring")
            return self._wrap(
                self.kernel.m_scal(other.coeffs, self._h),
                min(self.known_prec, other.known_prec),
            )
        return NotImplemented

    __rmul__ = __mul__

    def transpose(self):
        return self._wrap(self.kernel.m_transpose(self._h))

    def det(self):
        return RingElement(self.ctx, self.kernel.m_det(self._h), self.known_prec)

    def inverse(self):
        return self._wrap(self.kernel.m_inv(self._h))

    def trace(self):
        acc = self.ctx.zero()
        for i in range(self.n):
            acc = acc + self.entry(i, i)
        return acc

    # -- entrywise p-adic maps ------------------------------------------------

    def pow_p_entrywise(self):
        """u^{(p)}: entrywise p-th power."""
        return self._wrap(self.kernel.m_powp(self._h))

    def frobenius_entrywise(self, k=1):
        return self._wrap(self.kernel.m_frob(self._h, k))

    def frobenius_inverse_entrywise(self):
        m = self.ctx.m
        return self.frobenius_entrywise((m - 1) % m) if m > 1 else self

    def delta_entrywise(self):
        if self.known_prec < 2:
            raise PrecisionError("delta needs known_prec >= 2")
        k = self.kernel
        num = k.m_sub(k.m_frob(self._h, 1), k.m_powp(self._h))
        return PMatrix(self.ctx, self.n, k.m_divp(num), self.known_prec - 1)

    def exact_div_p(self):
        if self.known_prec < 1:
            raise PrecisionError("no digits left to divide")
        return PMatrix(self.ctx, self.n, self.kernel.m_divp(self._h), self.known_prec - 1)

    def valuation(self):
        p = self.ctx.p
        cap = p ** self.known_prec
        best = None
        for c in self.flat:
            c %= cap
            if c:
                v = vp(c, p)
                if best is None or v < best:
                    best = v
        return math.inf if best is None else best

    def is_zero(self):
        return self.valuation() == math.inf


def _check_dim(ctx, n):
    if n < 1:
        raise ParameterError("dimension must be >= 1")
    if n > ctx.max_matrix_dim:
        raise ParameterError(
            f"n={n} exceeds the configured cap {ctx.max_matrix_dim}"
        )


# -- the delta-addition group law on gl_n ----------------------------------------


def delta_add(a, b):
    """a +_d b = a + b + p*a*b, the group law on the delta-Lie algebras."""
    p = a.ctx.p
    return a + b + p * (a @ b)


def delta_inverse(a):
    """The inverse for +_d: a* = -a (1 + pa)^{-1}, always defined."""
    one = PMatrix.identity(a.ctx, a.n)
    return -(a @ (one + a.ctx.p * a).inverse())


# -- matrix square roots and binomial powers --------------------------------------


def matrix_sqrt_one_mod_p(M, start=None, correct=0):
    """The unique square root S of M that is congruent to 1 mod p.

    Requires M = 1 mod p and p odd.  Newton's step is Y <- (Y + Y^{-1} M)/2;
    write E = Y - S for the error of Y.

    Cold (no start): from Y = 1 every iterate is a polynomial in M, so it
    commutes with M and S, and the new error is E^2 Y^{-1}/2: each step
    doubles the number of correct digits.  bitlen(K-1)+1 steps make the
    result exact at M's precision K, and it carries known_prec K.

    Warm (a start value correct to `correct` >= 1 digits): exactly one step.
    The start need not commute with M, and then the new error is
    (E - S^{-1} E S)/2 + O(E^2) = S^{-1} [S, E]/2 + O(E^2).  As S = 1 mod p,
    [S, E] = O(pE), so a warm step gains one digit where a cold one doubles;
    the result carries known_prec min(K, correct + 1).

    Either way Y^2 = M is checked at the returned precision.
    """
    ctx = M.ctx
    one = PMatrix.identity(ctx, M.n)
    if not (M - one).eq_at(PMatrix.zeros(ctx, M.n), 1):
        raise DomainError("matrix square root requires M = 1 mod p")
    half = pow(2, -1, ctx.kernel.q)
    K = M.known_prec
    if start is None:
        Y = one
        steps = max(1, (max(K, 2) - 1).bit_length()) + 1
    else:
        if correct < 1:
            raise ParameterError("a start value must be correct to at least one digit")
        Y, steps, K = start, 1, min(K, correct + 1)
    for _ in range(steps):
        Y = half * (Y + Y.inverse() @ M)
    if not (Y @ Y).eq_at(M, K):
        raise AlgebraInvariantError("Newton square root failed to converge")
    return Y.with_prec(K)


def matrix_one_plus_pT_pow(M, a):
    """(1 + pT)^a as a binomial series for M = 1 mod p and a p-adic integer a.

    The series sum binom(a, k) (M - 1)^k is evaluated in a lifted context
    with enough guard digits that every term is exact mod p^known_prec.
    """
    ctx = M.ctx
    p = ctx.p
    one = PMatrix.identity(ctx, M.n)
    if not (M - one).eq_at(PMatrix.zeros(ctx, M.n), 1):
        raise DomainError("binomial power requires M = 1 mod p")
    K = M.known_prec
    if isinstance(a, RingElement):
        pk = p ** a.known_prec
        if any(c % pk for c in a.coeffs[1:]):
            raise DomainError("exponent must lie in the prime subring Z_p")
        K = min(K, a.known_prec + 1)
        e = a.coeffs[0]
    elif isinstance(a, int):
        e = a
    else:
        raise DomainError("exponent must be an int or a RingElement")

    kmax = K - 1  # (M-1)^k vanishes mod p^K for k >= K
    G = vp_factorial(max(kmax, 1), p)
    g = ctx.guarded(G)
    gk = g.kernel
    q_g = gk.q
    e %= q_g

    X = gk.m_new(list(M.flat), M.n)
    Xk = gk.m_identity(M.n)
    acc = gk.m_identity(M.n)
    X = gk.m_sub(X, Xk)  # M - 1, valuation >= 1
    c_num = 1  # product (a)(a-1)...(a-k+1) mod q_g
    vden = 0
    uden_inv = 1
    for k in range(1, kmax + 1):
        Xk = gk.m_mul(Xk, X)
        c_num = c_num * ((e - (k - 1)) % q_g) % q_g
        v = vp(k, p)
        vden += v
        uden_inv = uden_inv * pow(k // p ** v, -1, q_g) % q_g
        pv = p ** vden
        if c_num % pv:
            raise AlgebraInvariantError("binomial coefficient lost integrality")
        coeff = c_num // pv * uden_inv % q_g
        acc = gk.m_add(acc, gk.m_scal_int(coeff, Xk))
    flat = [c % ctx.kernel.q for c in gk.m_export(acc)]
    return PMatrix.from_flat(ctx, flat, M.n, prec=K)


# -- membership predicates ----------------------------------------------------------


def in_GLn(A):
    """Invertibility over the ring, i.e. invertibility of the reduction mod p."""
    try:
        A.kernel.m_inv(A._h)
        return True
    except SingularMatrixError:
        return False


def in_SLn(A):
    return A.det() == A.ctx.one()


def in_SOq(A, q):
    """x^t q x = q together with det(x) = 1 (the identity component)."""
    return (A.transpose() @ q @ A) == q and in_SLn(A)


def in_sl_delta(alpha):
    """alpha with 1 + p*alpha in SL_n."""
    one = PMatrix.identity(alpha.ctx, alpha.n)
    return in_SLn(one + alpha.ctx.p * alpha)


def in_so_delta(alpha, q):
    """alpha with 1 + p*alpha in SO(q): alpha^t q + q alpha + p alpha^t q alpha = 0."""
    one = PMatrix.identity(alpha.ctx, alpha.n)
    return in_SOq(one + alpha.ctx.p * alpha, q)
