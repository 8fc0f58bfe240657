"""The arithmetic kernel for the truncated ring (Z/p^N)[x] / (f).

An element is a tuple of m integers in [0, p^N), little-endian in the power
basis 1, x, ..., x^{m-1}.  An n x n matrix is a flat row-major tuple of
n*n*m such coefficients, with no wrapper; entry (i, j) occupies the slice
[(i*n + j)*m : (i*n + j + 1)*m], and the ops that need n take it as an
argument.  Coefficient-wise arithmetic (`add`, `sub`, `neg`, `scal_int`,
`eq_mod`) is one op each, on a flat tuple of any length: an element and a
matrix alike.

The kernel works on Python ints with these rules:

- Canonical form: every coefficient it returns lies in [0, q), q = p^N.
  Each result is reduced from exact integer arithmetic, so it depends only
  on the inputs mod q.  The constants `zero`, `one` and `x`, the class of
  x mod f (-f_0 at m == 1), are canonical too.  At N == 1 the kernel is
  the residue field F_p[x]/(f), which `_residue` uses.
- One reduction per dot product: a product of elements, a matrix entry
  sum_k a_ik b_kj, a row update x - f*y or a Laplace expansion step is
  accumulated unreduced and taken mod q once.  For m > 1 this is `_dot`:
  it sums the length-(2m-1) convolutions of the pairs, folds the
  coefficients of x^m .. x^{2m-2} through the rows x^{m+i} mod f (`_red`)
  and reduces each coefficient once.  At m >= 3 every product of two
  elements goes through `_dot`.  `_red` is the first m - 1 columns of
  M_{x^m}, the matrix of multiplication by x^m, built by `_mul_rows` (see
  the inverses below), so multiplying by x mod f is written once.
- One power: `s_pow(a, e)` and `m_powp(A)` are one body, `_pow_entries`,
  which raises every entry of a flat tuple to the power e; `m_powp` is it
  at e = p.  e = 0 gives `one` per entry and e = 1 the canonical copy, as
  the square-and-multiply loops reduce nothing when e has no bits below its
  leading one.  Otherwise: pow(x, e, q) at m == 1, the generated function
  of the tuple's length at m == 2 (below), and `_pow`, square and multiply
  on `_dot`, per entry at m >= 3.
- The Frobenius lift is installed from phi(x) alone (`set_frob`): the table
  of phi^k, k < m, has the columns (phi^k(x))^j, j < m, and phi^k(x) =
  phi(phi^{k-1}(x)), by the table of phi just built.
- m == 1: a matrix entry is a plain int, not a 1-tuple.  `m_mul` sums the
  products of row and column slices of the flat tuple.
- m == 2: entries are pairs (a0, a1) and the arithmetic is written out.
  With f = x^2 + c1 x + c0 and `_red[0]` = (r0, r1) = (-c0, -c1), so
  x^2 = r0 + r1 x:
  - `_dot` sums t0 = sum x0 y0, t1 = sum (x0 y1 + x1 y0), t2 = sum x1 y1
    unreduced and returns (t0 + r0 t2, t1 + r1 t2), each reduced once;
    entries may be negated.
  - `m_mul`, the power and `m_form` are straight-line code: one Python
    function per shape, generated on first use and cached for the process
    (`_mul_fn`, `_powp_fn`, `_form_fn`).  It unpacks the flat tuples into
    locals and writes each output coefficient as one expression, reduced
    once mod q as `_dot` does: an entry of A B sums its n products, with
    the x^2 sum in one local t, as (t0 + r0 t, t1 + r1 t).  q, r0 and r1
    are arguments, so one function serves every context of its shape:
    products are keyed by n, powers by the length of the flat tuple, 2 for
    an element (the loop over the bits of e squares and multiplies every
    entry in each step, so e is an argument too), forms by n and Q's entry
    pattern.
    The source is built from integers and fixed text only, so no input
    text reaches `exec`.  At m == 1 these three ops keep their loops, and
    at m >= 3 they run on `_dot`.  The determinant is generated at m == 1
    too (below).
  - The inverse uses the norm.  x -> r1 - x is a ring automorphism of
    (Z/q)[x]/(f), since f(r1 - x) = f(x); so conj(a) = (a0 + r1 a1) - a1 x
    and a * conj(a) = N(a) = a0^2 + r1 a0 a1 - r0 a1^2, an integer mod q,
    and a^{-1} = conj(a) * N(a)^{-1}.  `s_inv` keeps the `s_is_unit`
    check: F_p[x]/(f mod p) is a field, so N(a) is a unit exactly when a
    is.
  - `m_solve` runs Gauss-Jordan on the n x 2n array [A | B] of pairs with
    unit pivots, each inverted by its norm.  A row update x - f*y applies
    the matrix M_f = [[f0, r0 f1], [f1, f0 + r1 f1]] of multiplication by
    f to each pair y.
  - `s_frob`/`m_frob` (one body under two names) apply the 2x2 matrix
    `_frob[k % 2]` to each entry.
  Results equal the m >= 3 path's because products are exact and inverses
  unique.  The errors fire on the same inputs: over the field F_{p^2} an
  n x n matrix is invertible exactly when elimination finds a unit pivot
  in every column, and a pair is a unit exactly when its norm is.
- Solves and inverses are one elimination: `m_solve(A, B)` = A^{-1} B, by
  Gauss-Jordan on [A | B], and `m_inv(A)` is `m_solve(A, 1)`.  At m == 1
  and m >= 3 this is integer linear algebra mod q.  Multiplication by an
  element a is a Z/q-linear map of the ring.  Its m x m matrix M_a has the
  columns a, a*x, ..., a*x^{m-1}, each x times the one before with the top
  coefficient folded through the row x^m mod f of `_red`, and a^{-1} is
  the solution z of M_a z = e_0: at m >= 3, `s_inv(a)` is `m_solve(a, 1)`
  at n = 1, after its unit check.  For n x n matrices at m >= 3, R(A) is
  the nm x nm integer matrix with the blocks M_{a_ij}, and
  R(A^{-1} B) = R(A)^{-1} R(B).  The first column of M_b is b itself, so
  column j of A^{-1} B, its entries' coefficients stacked, solves
  R(A) z = the stacked coefficients of column j of B.  One Gauss-Jordan
  routine on ints, with unit pivots and pow(x, -1, q), solves both
  (`_gauss_jordan`); at m == 1, R(A) = A.
  - The results are exact: a -> M_a and A -> R(A) are injective ring maps
    and inverses are unique, so the solution is the inverse itself.
  - The errors fire on the same inputs: F_p[x]/(f mod p) is a field, so a
    is a unit exactly when M_a is invertible mod p, det R(A) is the norm
    of det A, and an integer matrix mod p^N is invertible exactly when
    elimination finds a unit pivot in every column.
  - No Frobenius is used, so `make_context` may invert before `set_frob`.
- `m_form(X, Q)` = X^t Q X is one product.  Row i of QX is taken from the
  nonzero entries of row i of Q: a single entry 1 or -1 picks row k of X,
  negated for -1 and left unreduced for the next `_dot`, with no
  multiplication (every form `build_q` makes is a signed permutation);
  any other row is a `_dot` per entry.  Each entry of X^t (QX) is then one
  `_dot` of a column of X with a column of QX; the transpose is not built.
  The generated form at m == 2 reads Q's pattern of entries 0, 1, -1 and
  other: zeros drop out, a row of 1 and -1 entries is a signed sum of
  rows of X written into each product, with no multiplication and no
  reduction, and any other row is a local per entry, reduced once.
- `m_det` is the Laplace expansion along the rows, memoized: the minor on
  the rows below the ones expanded is fixed by the mask of columns those
  left free, so it is built once, bottom-up, one dot product per mask,
  2^n - n - 1 of them (11 at n = 4, 247 at n = 8).  At n == 1 it is the
  canonical entry.  At m <= 2 and n >= 2 it is generated straight-line
  code, one function per (m, n) (`_det_fn`), shared by every context of
  that shape as the products are: each minor is one local, a sum of
  signed products of an entry of its row and a minor of the rows below,
  reduced once mod q (through the x^2 fold of `_dot` at m == 2).  At
  m >= 3 it is the loop over the masks, one `_dot` per minor.
"""

from functools import lru_cache
from itertools import chain
from operator import mul

from .errors import AlgebraInvariantError, NotUnitError, SingularMatrixError

# No compiled kernel exists; kept because perfbench's environment report reads it.
COMPILED_AVAILABLE = False


@lru_cache(maxsize=None)
def _free_masks(n):
    """(row, the masks of n - row free columns) for row = n-2 down to 0."""
    return tuple(
        (row, tuple(mask for mask in range(1 << n) if mask.bit_count() == n - row))
        for row in range(n - 2, -1, -1)
    )


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
        self._coords = range(m)
        self.zero = (0,) * m
        self.one = (1,) + (0,) * (m - 1)
        # _red[i] = x^{m+i} mod f, i < m - 1: the first m - 1 columns of M_{x^m}
        xm = tuple([-c % self.q for c in self.modulus_tail])
        self.x = xm if m == 1 else (0, 1) + (0,) * (m - 2)  # the class of x mod f
        self._red = [xm]  # the fold `_mul_rows` reads
        self._red = list(zip(*self._mul_rows(xm)))[: m - 1]
        self._frob = None  # phi^0 .. phi^{m-1}, each as a tuple of its m rows

    # -- setup ------------------------------------------------------------

    def set_frob(self, frob_image):
        """Install the Frobenius lift from phi(x): the table of phi^k has the
        columns (phi^k(x))^j, j < m, and phi^k(x) = phi(phi^{k-1}(x))."""
        m = self.m
        self._frob = []
        image = self.x  # phi^0(x) = x
        for k in range(m):
            cols = [self.one]
            for _ in range(1, m):
                cols.append(self.s_mul(cols[-1], image))
            self._frob.append(tuple(zip(*cols)))
            image = self.s_frob(image) if k else frob_image

    # -- the one reduction ----------------------------------------------------

    def _dot(self, xs, ys):
        """sum_k xs[k] * ys[k], reduced once into [0, q).

        Entries are ints for m == 1 and m-tuples otherwise.  For m > 1 the
        products' convolutions are summed unreduced, then the coefficients
        of x^m .. x^{2m-2} are folded through `_red` and every coefficient
        is taken mod q; at m == 2 this is written out on pairs.
        """
        m, q = self.m, self.q
        if m == 1:
            return sum(map(mul, xs, ys)) % q
        if m == 2:
            t0 = t1 = t2 = 0
            for (x0, x1), (y0, y1) in zip(xs, ys):
                t0 += x0 * y0
                t1 += x0 * y1 + x1 * y0
                t2 += x1 * y1
            r0, r1 = self._red[0]
            return ((t0 + r0 * t2) % q, (t1 + r1 * t2) % q)
        coords = self._coords
        t = [0] * (2 * m - 1)
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

    def _pow_entries(self, A, e):
        """Every entry of the flat tuple A to the power e >= 0, in [0, q):
        the one body of `s_pow` and `m_powp`."""
        m, q = self.m, self.q
        if e < 2:  # e has no bits below its leading one: the loops reduce nothing
            return tuple([c % q for c in A]) if e else self.one * (len(A) // m)
        if m == 1:
            return tuple([pow(x, e, q) for x in A])
        if m == 2:
            return _powp_fn(len(A))(A, e, q, *self._red[0])
        return self._flat(self._pow(a, e) for a in self._ents(A))

    def _pow(self, a, e):
        """a^e at m >= 3 and e >= 2, by square and multiply on `_dot`."""
        dot = self._dot
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

    def _m_solve2(self, a, b, n):
        """A^{-1} B at m == 2: Gauss-Jordan on [A | B] with pair entries.

        Unit pivots, inverted by the norm; eliminated columns are dropped
        from the rows as in `_gauss_jordan`.  A row update x - f*y applies
        M_f = [[f0, r0 f1], [f1, f0 + r1 f1]] to each pair y.
        """
        p, q = self.p, self.q
        r0, r1 = self._red[0]
        ea, eb = self._ents(a), self._ents(b)
        rows = [ea[i * n : (i + 1) * n] + eb[i * n : (i + 1) * n] for i in range(n)]
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
        """The rows of M_a, the matrix of y -> a*y: column k is a*x^k.

        Each column is x times the one before, with its top coefficient
        folded through the row of x^m mod f.  The solves at m >= 3 use it,
        and so does `__init__`, for `_red`, the first columns of M_{x^m}.
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

    def _neg(self, x):
        return tuple(-c for c in x) if self.m > 1 else -x

    def _scale(self, c, xs):
        """[c * x for x in xs], each reduced."""
        if self.m == 1:
            q = self.q
            return [c * x % q for x in xs]
        dot, c = self._dot, (c,)
        return [dot(c, (x,)) for x in xs]

    # -- coefficient-wise operations: an element or a matrix alike -----------

    def add(self, a, b):
        q = self.q
        return tuple((x + y) % q for x, y in zip(a, b))

    def sub(self, a, b):
        q = self.q
        return tuple((x - y) % q for x, y in zip(a, b))

    def neg(self, a):
        q = self.q
        return tuple((-x) % q for x in a)

    def scal_int(self, c, a):
        q = self.q
        c %= q
        return tuple(c * x % q for x in a)

    def eq_mod(self, a, b, k):
        pk = self.p ** k
        return all((x - y) % pk == 0 for x, y in zip(a, b))

    def s_divp(self, a):
        p = self.p
        for c in a:
            if c % p:
                raise AlgebraInvariantError("exact division by p failed")
        return tuple(c // p for c in a)

    # One body; the two names keep separate per-op counts for elements and matrices.
    m_divp = s_divp

    # -- element operations --------------------------------------------------

    def s_mul(self, a, b):
        if self.m == 1:
            return (a[0] * b[0] % self.q,)
        return self._dot((a,), (b,))

    def s_pow(self, a, e):
        if e < 0:
            raise ValueError("negative exponent; invert first")
        return self._pow_entries(a, e)

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
        return self.m_solve(a, self.one, 1)

    def s_frob(self, a, k=1):
        """phi^k on every entry of a flat tuple: one element, or a matrix."""
        m, q = self.m, self.q
        if m == 1:
            return a
        if m == 2:
            (f00, f01), (f10, f11) = self._frob[k % 2]
            out = []
            it = iter(a)
            for a0 in it:
                a1 = next(it)
                out += ((f00 * a0 + f01 * a1) % q, (f10 * a0 + f11 * a1) % q)
            return tuple(out)
        rows = self._frob[k % m]
        out = []
        for s in range(0, len(a), m):
            e = a[s : s + m]
            out += [sum(map(mul, row, e)) % q for row in rows]
        return tuple(out)

    # One body; the two names keep separate per-op counts for elements and matrices.
    m_frob = s_frob

    # -- matrix operations: flat tuples, n passed where the op needs it --------

    def m_identity(self, n):
        m = self.m
        flat = [0] * (n * n * m)
        for i in range(n):
            flat[(i * n + i) * m] = 1
        return tuple(flat)

    def m_transpose(self, A, n):
        e = self._ents(A)
        return self._flat(e[j * n + i] for i in range(n) for j in range(n))

    def m_mul(self, A, B, n):
        q = self.q
        if self.m == 2:
            return _mul_fn(n)(A, B, q, *self._red[0])
        a, b = self._ents(A), self._ents(B)
        rows = [a[i * n : (i + 1) * n] for i in range(n)]
        cols = [b[j::n] for j in range(n)]
        if self.m == 1:
            return tuple(sum(map(mul, r, c)) % q for r in rows for c in cols)
        dot = self._dot
        return self._flat(dot(r, c) for r in rows for c in cols)

    def m_scal(self, s, A):
        c = s[0] if self.m == 1 else s
        return self._flat(self._scale(c, self._ents(A)))

    def m_powp(self, A):
        return self._pow_entries(A, self.p)

    def m_det(self, A, n):
        """det A: the canonical entry at n == 1, the generated function of
        (m, n) at m <= 2, else the Laplace expansion along the rows,
        memoized by column mask.

        The minor on rows row..n-1 is fixed by the mask of the n - row
        columns that rows 0..row-1 left free, so the minors are built
        bottom-up, one `_dot` per mask: 2^n - n - 1 of them (11 at n = 4,
        247 at n = 8).  A minor on the last row alone is its one entry.
        """
        m, q = self.m, self.q
        if n == 1:
            return tuple([c % q for c in A])
        if m == 1:
            return _det_fn(1, n)(A, q)
        if m == 2:
            return _det_fn(2, n)(A, q, *self._red[0])
        e = self._ents(A)
        dot, neg, nonzero = self._dot, self._neg, self._nonzero
        last = e[(n - 1) * n :]
        minors = {1 << j: last[j] for j in range(n)}
        for row, masks in _free_masks(n):
            above = minors
            minors = {}
            for mask in masks:
                xs, ys = [], []
                odd = False
                for j in range(n):
                    if mask >> j & 1:
                        a = e[row * n + j]
                        if nonzero(a):
                            xs.append(neg(a) if odd else a)
                            ys.append(above[mask ^ (1 << j)])
                        odd = not odd
                minors[mask] = dot(xs, ys)
        return minors[(1 << n) - 1]

    def m_inv(self, A, n):
        return self.m_solve(A, self.m_identity(n), n)

    def m_solve(self, a, b, n):
        """A^{-1} B from R(A) Z = the stacked columns of B (module docstring)."""
        m = self.m
        if m == 1:  # R(A) = A
            rows = [[*a[i * n : (i + 1) * n], *b[i * n : (i + 1) * n]] for i in range(n)]
            return tuple(chain.from_iterable(self._gauss_jordan(rows)))
        if m == 2:
            return self._m_solve2(a, b, n)
        blocks = [self._mul_rows(a[s : s + m]) for s in range(0, len(a), m)]
        rows = []
        for i in range(n):
            block_row = blocks[i * n : (i + 1) * n]
            b_row = b[i * n * m : (i + 1) * n * m]
            for r in range(m):
                # coefficient r of every entry of row i of B
                rows.append([c for blk in block_row for c in blk[r]] + list(b_row[r::m]))
        Z = self._gauss_jordan(rows)
        # row i*m + r of Z holds coefficient r of row i of A^{-1} B
        return tuple(Z[i * m + r][j] for i in range(n) for j in range(n) for r in range(m))

    def m_form(self, X, Q, n):
        """X^t Q X: QX row by row from Q's nonzero entries, then X^t (QX)
        from the columns of X (module docstring)."""
        m, q = self.m, self.q
        if m == 2:
            return _form_fn_of(n, q, Q)(X, Q, q, *self._red[0])
        x = self._ents(X)
        xrows = [x[k * n : (k + 1) * n] for k in range(n)]
        qe = self._ents(Q)
        one, minus_one = (1, q - 1) if m == 1 else (self.one, (q - 1, *self.zero[1:]))
        dot, neg, nonzero = self._dot, self._neg, self._nonzero
        qx = []
        for i in range(n):
            nz = [(k, c) for k, c in enumerate(qe[i * n : (i + 1) * n]) if nonzero(c)]
            if len(nz) == 1 and nz[0][1] == one:
                qx.append(xrows[nz[0][0]])
            elif len(nz) == 1 and nz[0][1] == minus_one:
                qx.append([neg(e) for e in xrows[nz[0][0]]])  # unreduced, as _dot allows
            else:
                cs = [c for _, c in nz]
                qx.append([dot(cs, [xrows[k][j] for k, _ in nz]) for j in range(n)])
        xcols = [x[i::n] for i in range(n)]
        qxcols = list(zip(*qx))
        if m == 1:
            return tuple(sum(map(mul, a, b)) % q for a in xcols for b in qxcols)
        return self._flat(dot(a, b) for a in xcols for b in qxcols)


# -- straight-line kernels for m == 2, and the determinant at m == 1 (module docstring)
#
# In the generated source, coefficient k of a flat tuple is the local a<k>
# (b<k>, x<k>, ...), so at m == 2 entry e is the pair a<2e>, a<2e + 1>.


def _compile(name, params, body, shape):
    """The function `name(params)` whose body is the given lines; `shape`
    names it in tracebacks and profiles."""
    source = f"def {name}({params}):\n" + "".join(f"    {line}\n" for line in body)
    namespace = {}
    exec(compile(source, f"<deltalin._kernel {name} {shape}>", "exec"), namespace)
    return namespace[name]


def _entries(v, size):
    """The names of the coefficient pairs of a flat tuple of `size`."""
    return [(f"{v}{s}", f"{v}{s + 1}") for s in range(0, size, 2)]


def _unpack(entries, arg):
    return ", ".join(c for e in entries for c in e) + ", = " + arg


def _return(coeffs):
    return "return (" + ", ".join(coeffs) + ",)"


def _sum(terms):
    """The text of sum sign * term over (sign, term) pairs; "0" when empty."""
    text = "".join(f" {'-' if sign < 0 else '+'} {t}" for sign, t in terms)
    if not text:
        return "0"
    return text[3:] if text[1] == "+" else "-" + text[3:]


def _dot_source(terms, t):
    """(lines, coefficient pair) of sum sign * x * y over the terms
    (sign, x, y), x and y entries' names, x None standing for 1: the local
    t sums the x^2 coefficients, folded through x^2 = r0 + r1 x as in
    `PureKernel._dot`, and each coefficient is one expression reduced once
    mod q."""
    products = [(s, x, y) for s, x, y in terms if x is not None]
    t0 = [(s, y[0] if x is None else f"{x[0]}*{y[0]}") for s, x, y in terms]
    t1 = [(s, y[1] if x is None else f"{x[0]}*{y[1]}") for s, x, y in terms]
    t1 += [(s, f"{x[1]}*{y[0]}") for s, x, y in products]
    t2 = [(s, f"{x[1]}*{y[1]}") for s, x, y in products]
    return [f"{t} = {_sum(t2)}"], [f"({_sum(t0)} + r0*{t}) % q", f"({_sum(t1)} + r1*{t}) % q"]


@lru_cache(maxsize=None)
def _mul_fn(n):
    """A B for flat n x n matrices: each entry one dot product of a row and a column."""
    a, b = _entries("a", 2 * n * n), _entries("b", 2 * n * n)
    lines, out = [_unpack(a, "A"), _unpack(b, "B")], []
    for i in range(n):
        for j in range(n):
            terms = [(1, a[i * n + k], b[k * n + j]) for k in range(n)]
            pre, coeffs = _dot_source(terms, f"t{i * n + j}")
            lines += pre
            out += coeffs
    return _compile("m_mul", "A, B, q, r0, r1", lines + [_return(out)], f"n={n}")


@lru_cache(maxsize=None)
def _powp_fn(size):
    """The entrywise e-th power of a flat tuple of `size` coefficients:
    square and multiply on the pairs, every entry in each step, over the
    bits of e below its leading one, so one function serves every e; at
    e = 1 there are none, and A comes back unreduced."""
    a, b = _entries("a", size), _entries("b", size)
    square, times_a = [], []
    for (a0, a1), (b0, b1) in zip(a, b):
        square += [
            f"t = {b1}*{b1}",
            f"{b0}, {b1} = ({b0}*{b0} + r0*t) % q, (2*{b0}*{b1} + r1*t) % q",
        ]
        times_a += [
            f"t = {b1}*{a1}",
            f"{b0}, {b1} = ({b0}*{a0} + r0*t) % q, ({b0}*{a1} + {b1}*{a0} + r1*t) % q",
        ]
    lines = [_unpack(a, "A"), _unpack(b, "A"), "for bit in bin(e)[3:]:"]
    lines += ["    " + line for line in square] + ["    if bit == '1':"]
    lines += ["        " + line for line in times_a]
    lines.append(_return(c for e in b for c in e))
    return _compile("m_powp", "A, e, q, r0, r1", lines, f"size={size}")


@lru_cache(maxsize=None)
def _det_fn(m, n):
    """det A for a flat n x n matrix, n >= 2, at m = 1 or 2: the memoized
    Laplace expansion of `PureKernel.m_det` written out, one local per
    minor, reduced once mod q (through x^2 = r0 + r1 x at m == 2)."""
    if m == 1:
        a = [(f"a{k}",) for k in range(n * n)]
    else:
        a = _entries("a", 2 * n * n)
    lines = [_unpack(a, "A")]
    minors = {1 << j: a[(n - 1) * n + j] for j in range(n)}
    for row, masks in _free_masks(n):
        for mask in masks:
            terms, sign = [], 1
            for j in range(n):
                if mask >> j & 1:
                    terms.append((sign, a[row * n + j], minors[mask ^ (1 << j)]))
                    sign = -sign
            if m == 1:
                minors[mask] = (f"d{mask}",)
                products = [(s, f"{x[0]}*{y[0]}") for s, x, y in terms]
                lines.append(f"d{mask} = ({_sum(products)}) % q")
            else:
                minors[mask] = (f"d{mask}", f"e{mask}")
                pre, coeffs = _dot_source(terms, "t")
                lines += pre + [f"d{mask}, e{mask} = " + ", ".join(coeffs)]
    params = "A, q" if m == 1 else "A, q, r0, r1"
    lines.append(_return(minors[(1 << n) - 1]))
    return _compile("m_det", params, lines, f"m={m} n={n}")


@lru_cache(maxsize=256)
def _form_fn_of(n, q, Q):
    """The form function of Q's pattern: each entry 0, 1, -1 or another value (2)."""
    pattern = []
    for e in zip(Q[::2], Q[1::2]):
        pattern.append(0 if e == (0, 0) else 1 if e == (1, 0) else -1 if e == (q - 1, 0) else 2)
    return _form_fn(n, tuple(pattern))


@lru_cache(maxsize=256)
def _form_fn(n, pattern):
    """X^t Q X for Q of the given entry pattern.

    Entry (i, j) of QX is the sum over Q's nonzero entries c_ik of c_ik x_kj:
    a signed sum of entries of X when row i of Q has only 1 and -1 entries,
    else a local pair reduced once.  Entry (i, j) of X^t (QX) is then one
    dot product of column i of X with column j of QX.
    """
    x, c = _entries("x", 2 * n * n), _entries("c", 2 * n * n)
    lines = [_unpack(x, "X")]
    if 2 in pattern:
        lines.append(_unpack(c, "Q"))
    qx = []  # qx[k][j]: entry (k, j) of QX as (sign, names) terms
    for i in range(n):
        row = [(k, pattern[i * n + k]) for k in range(n) if pattern[i * n + k]]
        if all(code != 2 for _, code in row):
            qx.append([[(code, x[k * n + j]) for k, code in row] for j in range(n)])
            continue
        qx.append([])
        for j in range(n):
            terms = [
                (1, c[i * n + k], x[k * n + j]) if code == 2 else (code, None, x[k * n + j])
                for k, code in row
            ]
            pre, coeffs = _dot_source(terms, "t")
            y = (f"y{2 * (i * n + j)}", f"y{2 * (i * n + j) + 1}")
            lines += pre + [f"{name} = {expr}" for name, expr in zip(y, coeffs)]
            qx[i].append([(1, y)])
    out = []
    for i in range(n):
        for j in range(n):
            terms = [(s, x[k * n + i], y) for k in range(n) for s, y in qx[k][j]]
            pre, coeffs = _dot_source(terms, f"t{i * n + j}")
            lines += pre
            out += coeffs
    return _compile("m_form", "X, Q, q, r0, r1", lines + [_return(out)], f"n={n} Q={pattern}")
