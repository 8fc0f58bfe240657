"""The arithmetic kernel for the truncated ring (Z/p^N)[x] / (f).

An element is a tuple of m integers in [0, p^N), little-endian in the power
basis 1, x, ..., x^{m-1}.  Matrices are flat row-major sequences of n*n*m
coefficients wrapped in a kernel-owned handle; entry (i, j) occupies the
slice [(i*n + j)*m : (i*n + j + 1)*m].

The kernel works on Python ints with these rules:

- Canonical form: every coefficient it returns lies in [0, q), q = p^N.
  Each result is reduced from exact integer arithmetic, so it depends only
  on the inputs mod q.
- One reduction per dot product: a product of elements, a matrix entry
  sum_k a_ik b_kj, a row update x - f*y or a Laplace expansion step is
  accumulated unreduced and taken mod q once.  For m > 1 this is `_dot`:
  it sums the length-(2m-1) convolutions of the pairs, folds the
  coefficients of x^m .. x^{2m-2} through the rows x^{m+i} mod f (`_red`)
  and reduces each coefficient once.  At m >= 3 every product of two
  elements goes through `_dot`.
- m == 1: a matrix entry is a plain int, not a 1-tuple.  `m_mul` sums the
  products of row and column slices of the flat tuple, `m_powp` is
  pow(x, p, q), and `m_det` eliminates on ints with pow(x, -1, q).  For
  m > 1 the same elimination code runs on m-tuples through `_dot`.
- m == 2: entries are pairs (a0, a1) and the arithmetic is written out.
  With f = x^2 + c1 x + c0 and `_red[0]` = (r0, r1) = (-c0, -c1), so
  x^2 = r0 + r1 x:
  - `_dot` sums t0 = sum x0 y0, t1 = sum (x0 y1 + x1 y0), t2 = sum x1 y1
    unreduced and returns (t0 + r0 t2, t1 + r1 t2), each reduced once;
    entries may be negated.  `_pow` squares and multiplies on pairs.
  - The inverse uses the norm.  x -> r1 - x is a ring automorphism of
    (Z/q)[x]/(f), since f(r1 - x) = f(x); so conj(a) = (a0 + r1 a1) - a1 x
    and a * conj(a) = N(a) = a0^2 + r1 a0 a1 - r0 a1^2, an integer mod q,
    and a^{-1} = conj(a) * N(a)^{-1}.  `s_inv` keeps the `s_is_unit`
    check: F_p[x]/(f mod p) is a field, so N(a) is a unit exactly when a
    is.
  - `m_inv` runs Gauss-Jordan on the n x 2n array [A | 1] of pairs with
    unit pivots, each inverted by its norm.  A row update x - f*y applies
    the matrix M_f = [[f0, r0 f1], [f1, f0 + r1 f1]] of multiplication by
    f to each pair y.
  - `s_frob`/`m_frob` apply the 2x2 matrix `_frob[k % 2]` to each entry.
  Results equal the m >= 3 path's because products are exact and inverses
  unique.  The errors fire on the same inputs: over the field F_{p^2} an
  n x n matrix is invertible exactly when elimination finds a unit pivot
  in every column, and a pair is a unit exactly when its norm is.
- Inverses at m == 1 and m >= 3 are integer linear algebra mod q.
  Multiplication by an element a is a Z/q-linear map of the ring.  Its
  m x m matrix M_a has the columns a, a*x, ..., a*x^{m-1}, each x times the
  one before with the top coefficient folded through the row x^m mod f of
  `_red`, and a^{-1} is the solution z of M_a z = e_0.  For an n x n
  matrix A at m >= 3, R(A) is the nm x nm integer matrix with the blocks
  M_{a_ij}; column j of A^{-1}, its entries' coefficients stacked, solves
  R(A) z = e_{jm}, the first column of block column j of
  R(A^{-1}) = R(A)^{-1}.  One Gauss-Jordan routine on ints, with unit
  pivots and pow(x, -1, q), solves both (`_gauss_jordan`); at m == 1,
  R(A) = A and it is the plain matrix inverse.
  - The results are exact: a -> M_a and A -> R(A) are injective ring maps
    and inverses are unique, so the solution is the inverse itself.
  - The errors fire on the same inputs: F_p[x]/(f mod p) is a field, so a
    is a unit exactly when M_a is invertible mod p, det R(A) is the norm
    of det A, and an integer matrix mod p^N is invertible exactly when
    elimination finds a unit pivot in every column.
  - No Frobenius is used, so `make_context` may invert before `set_frob`.
- `m_det` for n >= 5 pivots on an entry p^v u of least valuation in its
  column.  Every entry below it is divisible by p^v, so (entry / p^v) u^{-1}
  is an exact row factor; a column that is 0 mod q gives the determinant 0.
"""

from itertools import chain
from operator import mul

from .errors import AlgebraInvariantError, NotUnitError, SingularMatrixError

# No compiled kernel exists; kept because perfbench's environment report reads it.
COMPILED_AVAILABLE = False


class PureMat:
    """Matrix handle of the pure kernel: flat coefficient tuple plus n."""

    __slots__ = ("data", "n")

    def __init__(self, data, n):
        self.data = data
        self.n = n


class PureKernel:
    kind = "pure"

    def __init__(self, p, m, N, modulus_tail):
        self.p = p
        self.m = m
        self.N = N
        self.q = p ** N
        self.modulus_tail = tuple(c % self.q for c in modulus_tail)
        if len(self.modulus_tail) != m:
            raise ValueError("modulus tail must have m coefficients")
        self._red = self._reduction_rows()
        self._frob = None  # list of m flat m*m matrices: phi^0 .. phi^{m-1}
        self._coords = range(m)
        self.zero = (0,) * m
        self.one = (1,) + (0,) * (m - 1)
        self._e0, self._e1 = (0, 1) if m == 1 else (self.zero, self.one)  # as matrix entries

    # -- setup ------------------------------------------------------------

    def _reduction_rows(self):
        """rows[i][j] = coefficient of x^j in (x^{m+i} mod f), i = 0..m-2."""
        m, q = self.m, self.q
        rows = []
        cur = [(-c) % q for c in self.modulus_tail]  # x^m mod f
        for _ in range(m - 1):
            rows.append(tuple(cur))
            top = cur[m - 1]
            cur = [0] + cur[: m - 1]
            if top:
                base = rows[0]
                for j in range(m):
                    cur[j] = (cur[j] + top * base[j]) % q
        return rows

    def set_frob(self, frob_flat):
        """Install the matrix of the Frobenius lift (row-major, m*m ints)."""
        m, q = self.m, self.q
        mats = [tuple(1 if i == j else 0 for i in range(m) for j in range(m))]
        F = tuple(c % q for c in frob_flat)
        for _ in range(1, m):
            mats.append(self._matmul_small(mats[-1], F))
        self._frob = mats

    def _matmul_small(self, A, B):
        m, q = self.m, self.q
        out = [0] * (m * m)
        for i in range(m):
            for j in range(m):
                acc = 0
                for k in range(m):
                    acc += A[i * m + k] * B[k * m + j]
                out[i * m + j] = acc % q
        return tuple(out)

    # -- the one reduction ----------------------------------------------------

    def _dot(self, xs, ys, base=None):
        """sum_k xs[k] * ys[k] (plus `base`), reduced once into [0, q).

        Entries are ints for m == 1 and m-tuples otherwise.  For m > 1 the
        products' convolutions are summed unreduced, then the coefficients
        of x^m .. x^{2m-2} are folded through `_red` and every coefficient
        is taken mod q; at m == 2 this is written out on pairs.
        """
        m, q = self.m, self.q
        if m == 1:
            acc = sum(map(mul, xs, ys))
            return (acc if base is None else acc + base) % q
        if m == 2:
            t0, t1 = (0, 0) if base is None else base
            t2 = 0
            for (x0, x1), (y0, y1) in zip(xs, ys):
                t0 += x0 * y0
                t1 += x0 * y1 + x1 * y0
                t2 += x1 * y1
            r0, r1 = self._red[0]
            return ((t0 + r0 * t2) % q, (t1 + r1 * t2) % q)
        coords = self._coords
        t = [0] * (2 * m - 1) if base is None else [*base, *self.zero[1:]]
        for x, y in zip(xs, ys):
            for i in coords:
                xi = x[i]
                if xi:
                    for j in coords:
                        t[i + j] += xi * y[j]
        out = t[:m]
        for c, row in zip(t[m:], self._red):
            if c:
                for j in coords:
                    out[j] += c * row[j]
        return tuple([c % q for c in out])

    def _pow(self, a, e):
        """a^e for m > 1 by square and multiply."""
        if not e:
            return self.one
        if self.m == 2:
            q = self.q
            r0, r1 = self._red[0]
            a0, a1 = a[0] % q, a[1] % q
            b0, b1 = 1, 0
            while True:
                if e & 1:
                    t2 = b1 * a1
                    b0, b1 = (b0 * a0 + r0 * t2) % q, (b0 * a1 + b1 * a0 + r1 * t2) % q
                e >>= 1
                if not e:
                    return (b0, b1)
                t2 = a1 * a1
                a0, a1 = (a0 * a0 + r0 * t2) % q, (2 * a0 * a1 + r1 * t2) % q
        dot = self._dot
        a = tuple([c % self.q for c in a])  # canonical: a itself is a^1
        result = None
        while True:
            if e & 1:
                result = a if result is None else dot((result,), (a,))
            e >>= 1
            if not e:
                return result
            a = dot((a,), (a,))

    # -- inverses: integer linear algebra mod q ----------------------------------

    def _inv2(self, a0, a1):
        """(a0 + a1 x)^{-1} at m == 2, for a unit: conj(a) * N(a)^{-1}."""
        q = self.q
        r0, r1 = self._red[0]
        ninv = pow((a0 * a0 + r1 * a0 * a1 - r0 * a1 * a1) % q, -1, q)
        return (a0 + r1 * a1) * ninv % q, -a1 * ninv % q

    def _m_inv2(self, d, n):
        """A^{-1} at m == 2: Gauss-Jordan on [A | 1] with pair entries.

        Unit pivots, inverted by the norm; eliminated columns are dropped
        from the rows as in `_gauss_jordan`.  A row update x - f*y applies
        M_f = [[f0, r0 f1], [f1, f0 + r1 f1]] to each pair y.
        """
        p, q = self.p, self.q
        r0, r1 = self._red[0]
        zero, one = (0, 0), (1, 0)
        ents = self._ents(d)
        rows = [ents[i * n : (i + 1) * n] + [one if j == i else zero for j in range(n)] for i in range(n)]
        for col in range(n):
            for r in range(col, n):
                a0, a1 = rows[r][0]
                if a0 % p or a1 % p:
                    break
            else:
                raise SingularMatrixError("not in GL_n: no unit pivot")
            prow = rows[r]
            rows[r] = rows[col]
            f0, f1 = self._inv2(a0, a1)
            u, w = r0 * f1 % q, (f0 + r1 * f1) % q
            prow = [((f0 * y0 + u * y1) % q, (f1 * y0 + w * y1) % q) for y0, y1 in prow[1:]]
            rows[col] = prow
            for r, row in enumerate(rows):
                if r == col:
                    continue
                f0, f1 = row[0]
                if f0 or f1:
                    u, w = r0 * f1 % q, (f0 + r1 * f1) % q
                    rows[r] = [
                        ((x0 - f0 * y0 - u * y1) % q, (x1 - f1 * y0 - w * y1) % q)
                        for (x0, x1), (y0, y1) in zip(row[1:], prow)
                    ]
                else:
                    del row[0]
        return tuple(c for row in rows for e in row for c in e)

    def _mul_rows(self, a):
        """The rows of M_a (m >= 3), the matrix of y -> a*y: column k is a*x^k.

        Each column is x times the one before, with its top coefficient
        folded through the row of x^m mod f.
        """
        q, xm = self.q, self._red[0]
        col = a
        cols = [a]
        for _ in range(self.m - 1):
            top = col[-1]
            col = [(c + top * r) % q for c, r in zip((0, *col[:-1]), xm)]
            cols.append(col)
        return list(zip(*cols))

    def _gauss_jordan(self, rows):
        """Solve R Z = B for rows = [R | B], R square over Z/q; returns Z's rows.

        Unit pivots only, so this raises SingularMatrixError exactly when R
        is singular mod p.  Column col of R is dropped from every row once
        it is eliminated, so the rows shrink to the columns of B.
        """
        p, q = self.p, self.q
        size = len(rows)
        for col in range(size):
            for r in range(col, size):
                if rows[r][0] % p:
                    break
            else:
                raise SingularMatrixError("not in GL_n: no unit pivot")
            prow = rows[r]
            rows[r] = rows[col]
            inv = pow(prow[0], -1, q)
            prow = [x * inv % q for x in prow[1:]]
            rows[col] = prow
            for r, row in enumerate(rows):
                if r == col:
                    continue
                f = row[0]
                if f:
                    rows[r] = [(x - f * y) % q for x, y in zip(row[1:], prow)]
                else:
                    del row[0]
        return rows

    # -- matrix entries: ints for m == 1, m-tuples otherwise -------------------

    def _ents(self, d):
        m = self.m
        if m == 1:
            return list(d)
        if m == 2:
            return list(zip(d[::2], d[1::2]))
        return [d[s : s + m] for s in range(0, len(d), m)]

    def _flat(self, ents):
        if self.m == 1:
            return tuple(ents)
        return tuple(chain.from_iterable(ents))

    def _nonzero(self, x):
        return any(x) if self.m > 1 else x != 0

    def _inv(self, x):
        return self.s_inv(x) if self.m > 1 else pow(x, -1, self.q)

    def _neg(self, x):
        return tuple(-c for c in x) if self.m > 1 else -x

    def _val(self, x):
        """v_p of an entry, the least over its coefficients; None for 0."""
        p, v = self.p, None
        for c in x if self.m > 1 else (x,):
            if c:
                k = 0
                while not c % p:
                    c //= p
                    k += 1
                if v is None or k < v:
                    v = k
        return v

    def _div_exact(self, x, d):
        """An entry divided by an integer d that divides each coefficient."""
        return tuple(c // d for c in x) if self.m > 1 else x // d

    def _scale(self, c, xs):
        """[c * x for x in xs], each reduced."""
        if self.m == 1:
            q = self.q
            return [c * x % q for x in xs]
        dot, c = self._dot, (c,)
        return [dot(c, (x,)) for x in xs]

    def _axpy(self, xs, f, ys):
        """[x - f * y for x, y in zip(xs, ys)], each reduced once."""
        if self.m == 1:
            q = self.q
            return [(x - f * y) % q for x, y in zip(xs, ys)]
        dot, nf = self._dot, (self._neg(f),)
        return [dot(nf, (y,), x) for x, y in zip(xs, ys)]

    # -- scalar operations -------------------------------------------------

    def s_add(self, a, b):
        q = self.q
        return tuple((x + y) % q for x, y in zip(a, b))

    def s_sub(self, a, b):
        q = self.q
        return tuple((x - y) % q for x, y in zip(a, b))

    def s_neg(self, a):
        q = self.q
        return tuple((-x) % q for x in a)

    def s_mul(self, a, b):
        if self.m == 1:
            return (a[0] * b[0] % self.q,)
        return self._dot((a,), (b,))

    def s_scal_int(self, c, a):
        q = self.q
        c %= q
        return tuple(c * x % q for x in a)

    def s_pow(self, a, e):
        if e < 0:
            raise ValueError("negative exponent; invert first")
        if self.m == 1:
            return (pow(a[0], e, self.q),)
        return self._pow(a, e)

    def s_is_unit(self, a):
        p = self.p
        return any(c % p for c in a)

    def s_inv(self, a):
        """a^{-1} as the solution of M_a z = e_0 (see the module docstring)."""
        if not self.s_is_unit(a):
            raise NotUnitError("not a unit (valuation >= 1)")
        if self.m == 1:
            return (pow(a[0], -1, self.q),)
        if self.m == 2:
            return self._inv2(*a)
        rows = [[*row, 0] for row in self._mul_rows(a)]
        rows[0][-1] = 1
        return tuple([z for (z,) in self._gauss_jordan(rows)])

    def s_frob(self, a, k=1):
        m, q = self.m, self.q
        if m == 1:
            return a
        if m == 2:
            f00, f01, f10, f11 = self._frob[k % 2]
            a0, a1 = a
            return ((f00 * a0 + f01 * a1) % q, (f10 * a0 + f11 * a1) % q)
        F = self._frob[k % m]
        out = [0] * m
        for i in range(m):
            acc = 0
            row = i * m
            for j in range(m):
                acc += F[row + j] * a[j]
            out[i] = acc % q
        return tuple(out)

    def s_divp(self, a):
        p = self.p
        for c in a:
            if c % p:
                raise AlgebraInvariantError("exact division by p failed")
        return tuple(c // p for c in a)

    def s_eq_mod(self, a, b, k):
        pk = self.p ** k
        return all((x - y) % pk == 0 for x, y in zip(a, b))

    # -- matrix operations ---------------------------------------------------

    def m_new(self, flat, n):
        q = self.q
        data = tuple(c % q for c in flat)
        if len(data) != n * n * self.m:
            raise ValueError("flat length does not match dimension")
        return PureMat(data, n)

    def m_export(self, h):
        return h.data

    def m_identity(self, n):
        m = self.m
        flat = [0] * (n * n * m)
        for i in range(n):
            flat[(i * n + i) * m] = 1
        return PureMat(tuple(flat), n)

    def m_add(self, A, B):
        q = self.q
        return PureMat(tuple((x + y) % q for x, y in zip(A.data, B.data)), A.n)

    def m_sub(self, A, B):
        q = self.q
        return PureMat(tuple((x - y) % q for x, y in zip(A.data, B.data)), A.n)

    def m_neg(self, A):
        q = self.q
        return PureMat(tuple((-x) % q for x in A.data), A.n)

    def m_transpose(self, A):
        n = A.n
        e = self._ents(A.data)
        return PureMat(self._flat(e[j * n + i] for i in range(n) for j in range(n)), n)

    def m_mul(self, A, B):
        n, q = A.n, self.q
        a, b = self._ents(A.data), self._ents(B.data)
        rows = [a[i * n : (i + 1) * n] for i in range(n)]
        cols = [b[j::n] for j in range(n)]
        if self.m == 1:
            return PureMat(tuple(sum(map(mul, r, c)) % q for r in rows for c in cols), n)
        dot = self._dot
        return PureMat(self._flat(dot(r, c) for r in rows for c in cols), n)

    def m_scal(self, s, A):
        c = s[0] if self.m == 1 else s
        return PureMat(self._flat(self._scale(c, self._ents(A.data))), A.n)

    def m_scal_int(self, c, A):
        q = self.q
        c %= q
        return PureMat(tuple(c * x % q for x in A.data), A.n)

    def m_powp(self, A):
        p, q = self.p, self.q
        if self.m == 1:
            return PureMat(tuple(pow(x, p, q) for x in A.data), A.n)
        return PureMat(self._flat(self._pow(e, p) for e in self._ents(A.data)), A.n)

    def m_frob(self, A, k=1):
        if self.m == 1:
            return A
        if self.m == 2:
            q, d = self.q, A.data
            f00, f01, f10, f11 = self._frob[k % 2]
            out = []
            for a0, a1 in zip(d[::2], d[1::2]):
                out += ((f00 * a0 + f01 * a1) % q, (f10 * a0 + f11 * a1) % q)
            return PureMat(tuple(out), A.n)
        s_frob = self.s_frob
        return PureMat(self._flat(s_frob(e, k) for e in self._ents(A.data)), A.n)

    def m_divp(self, A):
        p = self.p
        for c in A.data:
            if c % p:
                raise AlgebraInvariantError("exact division by p failed")
        return PureMat(tuple(c // p for c in A.data), A.n)

    def m_eq_mod(self, A, B, k):
        pk = self.p ** k
        return all((x - y) % pk == 0 for x, y in zip(A.data, B.data))

    def m_det(self, A):
        n = A.n
        e = self._ents(A.data)
        det = self._det_cofactor(e, n) if n <= 4 else self._det_elim(e, n)
        return (det,) if self.m == 1 else det

    def _det_cofactor(self, e, n):
        """Laplace expansion along the rows; one `_dot` per minor."""
        dot, neg, nonzero = self._dot, self._neg, self._nonzero

        def rec(row, mask):
            if row == n:
                return self._e1
            xs, ys = [], []
            odd = False
            for j in range(n):
                if mask & (1 << j):
                    continue
                a = e[row * n + j]
                if nonzero(a):
                    xs.append(neg(a) if odd else a)
                    ys.append(rec(row + 1, mask | (1 << j)))
                odd = not odd
            return dot(xs, ys)

        return rec(0, 0)

    def _det_elim(self, e, n):
        """Gaussian elimination, pivoting on an entry of least valuation."""
        dot, p = self._dot, self.p
        rows = [e[i * n : (i + 1) * n] for i in range(n)]
        det = self._e1
        for col in range(n):
            vals = [(self._val(rows[r][col]), r) for r in range(col, n)]
            vals = [t for t in vals if t[0] is not None]
            if not vals:  # the column is 0 mod q below the pivots
                return self._e0
            v, piv = min(vals)
            if piv != col:
                rows[col], rows[piv] = rows[piv], rows[col]
                det = self._neg(det)  # reduced by the product below
            pivot = rows[col][col]
            det = dot((det,), (pivot,))
            # pivot = p^v u with u a unit; the entries below are p^v times
            # their exact quotients, which u^{-1} turns into the row factors
            pv = p ** v
            uinv = self._inv(self._div_exact(pivot, pv))
            for r in range(col + 1, n):
                factor = dot((self._div_exact(rows[r][col], pv),), (uinv,))
                if self._nonzero(factor):
                    rows[r][col:] = self._axpy(rows[r][col:], factor, rows[col][col:])
        return det

    def m_inv(self, A):
        """A^{-1} from R(A) Z = [e_0, e_m, ..., e_{(n-1)m}] (module docstring)."""
        n, m, d = A.n, self.m, A.data
        unit = [[int(i == j) for j in range(n)] for i in range(n)]
        if m == 1:  # R(A) = A
            rows = [[*d[i * n : (i + 1) * n], *unit[i]] for i in range(n)]
            return PureMat(tuple(chain.from_iterable(self._gauss_jordan(rows))), n)
        if m == 2:
            return PureMat(self._m_inv2(d, n), n)
        blocks = [self._mul_rows(d[s : s + m]) for s in range(0, len(d), m)]
        zero = [0] * n
        rows = []
        for i in range(n):
            block_row = blocks[i * n : (i + 1) * n]
            for r in range(m):
                rows.append([c for b in block_row for c in b[r]] + (unit[i] if r == 0 else zero))
        Z = self._gauss_jordan(rows)
        # row j*m + r of Z holds coefficient r of row j of A^{-1}
        return PureMat(tuple(Z[j * m + r][i] for j in range(n) for i in range(n) for r in range(m)), n)
