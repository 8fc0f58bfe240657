"""n x n matrix algebra over the truncated p-adic ring.

PMatrix is a value type on the value base of `ring.py`, shared with
RingElement: the flat row-major coefficient tuple the kernel works on and
one trusted precision for the whole matrix (the minimum over the entries it
was built from).  The base holds the precision-claim rules, the peer check
and the coefficient-wise ops; PMatrix adds the products, the fused solve
and form, and the entrywise maps.
Entrywise Frobenius / Fermat-quotient / p-power maps, the group law
a +_d b = a + b + p*a*b on gl_n, square roots of matrices congruent to 1
mod p (the Hensel root of `ring.py`), and membership
predicates for the classical groups and their delta-Lie algebras.  The
binomial powers (1 + pT)^a run the series of `ring.py`, the one that
serves exp_p, log_p and (1 + pt)^a on elements.
"""

from itertools import repeat

from .errors import DomainError, ParameterError, PrecisionError
from .ring import MAX_DIM, RingElement, _binomial_power, _hensel_root, _power_prec, _Truncated

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


class PMatrix(_Truncated):
    __slots__ = ("n",)

    def __init__(self, ctx, n, flat, known_prec):
        self.ctx = ctx
        self.n = n
        self.flat = flat
        self.known_prec = known_prec

    # -- construction ----------------------------------------------------------

    @staticmethod
    def from_rows(ctx, rows):
        rows = [list(r) for r in rows]
        n = len(rows)
        if n < 1 or any(len(r) != n for r in rows):
            raise ParameterError("rows must form a square matrix")
        _check_dim(n)
        flat = []
        known = ctx.N
        for row in rows:
            for v in row:
                e = ctx.element(v) if not isinstance(v, RingElement) else v
                if isinstance(v, RingElement):
                    if not ctx.same(v.ctx):
                        raise DomainError("entry from a different ring")
                    known = min(known, v.known_prec)
                flat.extend(e.flat)
        return PMatrix(ctx, n, _canonical(ctx, flat, n), known)

    @staticmethod
    def from_flat(ctx, flat, n):
        _check_dim(n)
        return PMatrix(ctx, n, _canonical(ctx, flat, n), ctx.N)

    @staticmethod
    def identity(ctx, n):
        _check_dim(n)
        return PMatrix(ctx, n, ctx.kernel.m_identity(n), ctx.N)

    @staticmethod
    def zeros(ctx, n):
        _check_dim(n)
        return PMatrix(ctx, n, (0,) * (n * n * ctx.m), ctx.N)

    @staticmethod
    def scalar(ctx, n, value):
        """value * identity."""
        _check_dim(n)
        e = value if isinstance(value, RingElement) else ctx.element(value)
        k = ctx.kernel
        return PMatrix(ctx, n, k.m_scal(e.flat, k.m_identity(n)), min(ctx.N, e.known_prec))

    # -- plumbing ---------------------------------------------------------------

    def _wrap(self, flat, prec=None):
        return PMatrix(self.ctx, self.n, flat, self.known_prec if prec is None else prec)

    def _peer(self, other):
        if not isinstance(other, PMatrix):
            return None
        if not self.ctx.same(other.ctx):
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
                [list(self.entry(i, j).flat) for j in range(self.n)]
                for i in range(self.n)
            ]
        return f"PMatrix({body}, prec={self.known_prec})"

    # -- ring operations ---------------------------------------------------------

    def __matmul__(self, other):
        other = self._peer(other)
        if other is None:
            return NotImplemented
        return self._wrap(
            self.ctx.kernel.m_mul(self.flat, other.flat, self.n),
            min(self.known_prec, other.known_prec),
        )

    def __mul__(self, other):
        if isinstance(other, int):
            return self._wrap(self.ctx.kernel.scal_int(other, self.flat))
        if isinstance(other, RingElement):
            if not self.ctx.same(other.ctx):
                raise DomainError("scalar from a different ring")
            return self._wrap(
                self.ctx.kernel.m_scal(other.flat, self.flat),
                min(self.known_prec, other.known_prec),
            )
        return NotImplemented

    __rmul__ = __mul__

    def transpose(self):
        return self._wrap(self.ctx.kernel.m_transpose(self.flat, self.n))

    def det(self):
        return RingElement(self.ctx, self.ctx.kernel.m_det(self.flat, self.n), self.known_prec)

    def inverse(self):
        return self._wrap(self.ctx.kernel.m_inv(self.flat, self.n))

    def solve(self, other):
        """self^{-1} other, by one elimination."""
        other = self._require(other)
        return self._wrap(
            self.ctx.kernel.m_solve(self.flat, other.flat, self.n),
            min(self.known_prec, other.known_prec),
        )

    def form(self, q):
        """self^t q self, the bilinear form q pulled back along self."""
        q = self._require(q)
        return self._wrap(
            self.ctx.kernel.m_form(self.flat, q.flat, self.n), min(self.known_prec, q.known_prec)
        )

    # -- entrywise p-adic maps ------------------------------------------------

    def pow_p_entrywise(self):
        """u^{(p)}: entrywise p-th power, known to one digit more than u (`ring.py`)."""
        ctx = self.ctx
        return self._wrap(ctx.kernel.m_powp(self.flat), _power_prec(ctx, self.known_prec, ctx.p))

    def frobenius_entrywise(self, k=1):
        return self._wrap(self.ctx.kernel.m_frob(self.flat, k))

    def frobenius_inverse_entrywise(self):
        m = self.ctx.m
        return self.frobenius_entrywise((m - 1) % m) if m > 1 else self

    def delta_entrywise(self):
        if self.known_prec < 2:
            raise PrecisionError("delta needs known_prec >= 2")
        k = self.ctx.kernel
        num = k.sub(k.m_frob(self.flat, 1), k.m_powp(self.flat))
        return self._wrap(k.m_divp(num), self.known_prec - 1)

    def exact_div_p(self):
        if self.known_prec < 1:
            raise PrecisionError("no digits left to divide")
        return self._wrap(self.ctx.kernel.m_divp(self.flat), self.known_prec - 1)


def _canonical(ctx, flat, n):
    """flat reduced mod q as a tuple, after checking it has n*n*m int
    coefficients (a bool counts as its int)."""
    flat = tuple(flat)
    if len(flat) != n * n * ctx.m:
        raise ParameterError("flat length does not match dimension")
    if not all(map(isinstance, flat, repeat(int))):
        raise ParameterError("matrix coefficients must be integers")
    q = ctx.kernel.q
    return tuple([c % q for c in flat])


def _check_dim(n):
    if n < 1:
        raise ParameterError("dimension must be >= 1")
    if n > MAX_DIM:
        raise ParameterError(f"n={n} exceeds the cap {MAX_DIM}")


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


def matrix_sqrt_one_mod_p(M):
    """The unique square root S of M that is congruent to 1 mod p.

    Requires M = 1 mod p and p odd.  The cold root of `ring._hensel_root`
    with k = 2: the closed-form step (1 + M)/2, then bitlen(K-1) - 1 Newton
    steps Y <- (Y + Y^{-1} M)/2 of one elimination each, and a check of
    Y^2 = M that certifies the result exact at M's precision K.  The so
    solver carries its root from step to step instead
    (`equations._so_root_step`).
    """
    return PMatrix(M.ctx, M.n, *_hensel_root(M.ctx, M.flat, M.n, 2, M.known_prec))


def matrix_one_plus_pT_pow(M, a):
    """(1 + pT)^a for M = 1 mod p and a p-adic integer a.

    The binomial series of `ring.one_plus_pt_pow`, on the matrix: the terms
    binom(a, k) (M - 1)^k for k < known_prec.
    """
    flat, K = _binomial_power(M.ctx, M.flat, M.n, a, M.known_prec)
    return PMatrix(M.ctx, M.n, flat, K)


# -- membership predicates ----------------------------------------------------------


def in_GLn(A):
    """Invertibility over the ring: a matrix over a local ring is invertible
    exactly when its determinant is a unit, i.e. when its reduction mod p is."""
    return A.det().is_unit()


def in_SLn(A):
    return A.det() == A.ctx.one()


def in_SOq(A, q):
    """x^t q x = q together with det(x) = 1 (the identity component)."""
    return A.form(q) == q and in_SLn(A)


def in_sl_delta(alpha):
    """alpha with 1 + p*alpha in SL_n."""
    one = PMatrix.identity(alpha.ctx, alpha.n)
    return in_SLn(one + alpha.ctx.p * alpha)


def in_so_delta(alpha, q):
    """alpha with 1 + p*alpha in SO(q): alpha^t q + q alpha + p alpha^t q alpha = 0."""
    one = PMatrix.identity(alpha.ctx, alpha.n)
    return in_SOq(one + alpha.ctx.p * alpha, q)
