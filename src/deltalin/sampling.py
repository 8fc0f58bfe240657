"""Deterministic seeded sampling.

The generator is SplitMix64 in counter mode: the i-th output (i starting
at 1) is mix64(seed + i * 0x9E3779B97F4A7C15) where mix64 is the standard
SplitMix64 finalizer.  Any implementation, in any language, that follows
this rule reproduces the streams byte for byte.  Integers below a bound B
are drawn by concatenating enough 64-bit words to cover bit_length(B) + 64
bits and reducing mod B (the modulo bias is below 2^-64).

Samplers for the matrix groups used in tests:

  gl       random invertible matrix (resampled until the determinant is a unit)
  sl       gl sample with its first column rescaled by det^{-1}
  sl_delta_alpha   alpha with 1 + p*alpha in SL_n (rescale a column of 1 + p*r)
  so / so_delta_alpha   Cayley transform u = (1 + c)(1 - c)^{-1} of c in the
           Lie algebra so(q) = {c : c^t q + q c = 0}; this preserves
           x^t q x = q and det = 1 exactly, and c = 0 mod p lands the result
           in the congruence subgroup.
  delta_lie_alpha   the kind's alpha: matrix (gl), sl_delta_alpha, so_delta_alpha
"""

from .errors import ParameterError, SingularMatrixError
from .matrix import PMatrix, in_GLn

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _mix64(z):
    z &= _MASK
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 & _MASK
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB & _MASK
    return z ^ (z >> 31)


class Rng:
    """Counter-based SplitMix64 stream; fully determined by the seed."""

    def __init__(self, seed):
        self.seed = seed & _MASK
        self.counter = 0

    def u64(self):
        self.counter += 1
        return _mix64(self.seed + self.counter * _GOLDEN)

    def below(self, bound):
        if bound <= 0:
            raise ParameterError("bound must be positive")
        bits_needed = bound.bit_length() + 64
        acc = 0
        got = 0
        while got < bits_needed:
            acc = (acc << 64) | self.u64()
            got += 64
        return acc % bound

    def split(self, label):
        """An independent child stream derived from this seed and a label."""
        return Rng(_mix64(self.seed ^ _mix64(label & _MASK)))

    # -- ring-level draws -------------------------------------------------

    def element(self, ctx):
        q = ctx.kernel.q
        return ctx.element([self.below(q) for _ in range(ctx.m)])

    def unit(self, ctx):
        while True:
            e = self.element(ctx)
            if e.is_unit():
                return e

    # -- matrix-level draws ------------------------------------------------

    def matrix(self, ctx, n):
        q = ctx.kernel.q
        flat = [self.below(q) for _ in range(n * n * ctx.m)]
        return PMatrix.from_flat(ctx, flat, n)

    def matrix_subring(self, ctx, n):
        q = ctx.kernel.q
        flat = []
        for _ in range(n * n):
            flat.append(self.below(q))
            flat.extend([0] * (ctx.m - 1))
        return PMatrix.from_flat(ctx, flat, n)

    def gl(self, ctx, n, subring=False):
        while True:
            a = self.matrix_subring(ctx, n) if subring else self.matrix(ctx, n)
            if in_GLn(a):
                return a

    def sl(self, ctx, n):
        a = self.gl(ctx, n)
        return _rescale_first_column(a, a.det().invert())

    def sl_delta_alpha(self, ctx, n):
        # one guard digit so the division by p still leaves N exact digits
        g = ctx.guarded(1)
        eps = PMatrix.identity(g, n) + g.p * self.matrix(g, n)
        eps = _rescale_first_column(eps, eps.det().invert())
        alpha = (eps - PMatrix.identity(g, n)).exact_div_p()
        return _project_matrix(ctx, alpha)

    def delta_lie_alpha(self, ctx, kind, n, variant=None):
        """A random alpha in the kind's delta-Lie algebra (any matrix for gl)."""
        if kind == "gl":
            return self.matrix(ctx, n)
        if kind == "sl":
            return self.sl_delta_alpha(ctx, n)
        return self.so_delta_alpha(ctx, n, variant)

    def so(self, ctx, n, variant):
        from .equations import build_q

        q = build_q(ctx, variant, n)
        while True:
            c = self._so_lie_element(ctx, n, q, congruence=False)
            try:
                one = PMatrix.identity(ctx, n)
                return (one + c) @ (one - c).inverse()
            except SingularMatrixError:
                continue

    def so_delta_alpha(self, ctx, n, variant):
        from .equations import build_q

        g = ctx.guarded(1)
        q = build_q(g, variant, n)
        c = self._so_lie_element(g, n, q, congruence=True)
        one = PMatrix.identity(g, n)
        eps = (one + c) @ (one - c).inverse()
        alpha = (eps - one).exact_div_p()
        return _project_matrix(ctx, alpha)

    def _so_lie_element(self, ctx, n, q, congruence):
        # c = q^{-1} s with s symmetric (q antisymmetric) or antisymmetric
        # (q symmetric) solves c^t q + q c = 0
        antisym = q.transpose() == q
        rows = [[ctx.zero()] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                if antisym and i == j:
                    continue
                v = self.element(ctx)
                rows[i][j] = v
                rows[j][i] = -v if antisym else v
        s = PMatrix.from_rows(ctx, rows)
        c = q.solve(s)
        return ctx.p * c if congruence else c

    def permutation(self, n):
        perm = list(range(n))
        for i in range(n - 1, 0, -1):
            j = self.below(i + 1)
            perm[i], perm[j] = perm[j], perm[i]
        return tuple(perm)

    def monomial(self, ctx, n):
        """Random element of N: permutation times diagonal of units."""
        perm = self.permutation(n)
        zero = ctx.zero()
        rows = [[zero] * n for _ in range(n)]
        for i in range(n):
            rows[i][perm[i]] = self.unit(ctx)
        return PMatrix.from_rows(ctx, rows)

    def unit_residue(self, ctx):
        while True:
            r = tuple(self.below(ctx.p) for _ in range(ctx.m))
            if any(r):
                return r


def _rescale_first_column(a, s):
    rows = a.rows()
    for i in range(a.n):
        rows[i][0] = rows[i][0] * s
    return PMatrix.from_rows(a.ctx, rows)


def _project_matrix(ctx, M):
    """Reduce a matrix from a higher-precision context sharing this modulus."""
    q = ctx.kernel.q
    return PMatrix.from_flat(ctx, [c % q for c in M.flat], M.n)
