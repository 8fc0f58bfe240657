"""The arithmetic kernel for the truncated ring (Z/p^N)[x] / (f).

An element is a tuple of m integers in [0, p^N), little-endian in the power
basis 1, x, ..., x^{m-1}.  An n x n matrix is a flat row-major tuple of
n*n*m such coefficients, with no wrapper; entry (i, j) occupies the slice
[(i*n + j)*m : (i*n + j + 1)*m], and the ops that need n take it as an
argument.  Coefficient-wise arithmetic (`add`, `sub`, `neg`, `scal_int`,
`eq_mod`) is one op each, on a flat tuple of any length: an element and a
matrix alike.

The kernel works on Python ints, in one representation at every m: an
entry is an m-tuple, a 1-tuple at m == 1.  The products, powers, forms and
determinants are generated straight-line code, one function per op and
(m, shape).  Three methods still branch on m, each for its pivot inverse
or its Frobenius table: `s_inv` and `m_solve` (pow(x, -1, q) at m == 1,
the norm at m == 2, the elimination of M_a at m >= 3) and `s_frob` (the
identity at m == 1, pairs at m == 2, the m x m table at m >= 3).  The
rules:

- Canonical form: every coefficient it returns lies in [0, q), q = p^N.
  Each result is reduced from exact integer arithmetic, so it depends only
  on the inputs mod q.  The constants `zero`, `one` and `x`, the class of
  x mod f (-f_0 at m == 1), are canonical too.  At N == 1 the kernel is
  the residue field F_p[x]/(f), which `_residue` uses.
- One reduction per dot product: a product of elements, a matrix entry
  sum_k a_ik b_kj, a row update x - f*y or a minor of a determinant is
  accumulated unreduced and taken mod q once.  `_dot_source` writes it
  out: the 2m - 1 convolution sums of the pairs of entries, the
  coefficients of x^m .. x^{2m-2} each in one local, folded through the
  rows x^{m+i} mod f, and each output coefficient reduced once; at
  m == 1, the one (sum) % q, with no rows and no fold.  The rows
  are passed flat, as the arguments r0 .. r{m(m-1)-1}: r{i*m + j} is
  coefficient j of x^{m+i} mod f (`_r`).  At m == 2, f = x^2 + c1 x + c0
  gives x^2 = r0 + r1 x with (r0, r1) = (-c0, -c1).  `_r` is the first
  m - 1 columns of M_{x^m}, the matrix of multiplication by x^m, built by
  `_mul_rows` (see the inverses below), so multiplying by x mod f is
  written once (`_times_x`, which also gives the constant `x`).
- Generated code: one Python function per op and shape, generated on first
  use and cached for the process (`_mul_fn`, `_powp_fn`, `_form_fn`,
  `_det_fn`).  It unpacks the flat tuples into locals and writes each
  output coefficient as one expression.  q and the rows r are arguments,
  so one function serves every context of its shape, at every m: products
  are keyed by (m, n), and `s_mul` is the product at n == 1 (`m_scal` is
  `s_mul` per entry); powers by m and the length of the flat tuple; forms
  by m, n and Q's entry pattern; determinants by (m, n).  `m_transpose` is
  one index expression on the m-tuples.  The source is built from
  integers and fixed text only, so no input text reaches `exec`.  The
  first call of a shape pays its compile: about 2 ms per op at
  (m, n) = (3, 4), and 0.06 to 0.35 s per op at the caps m = n = 8.
- One power: `s_pow(a, e)` and `m_powp(A)` are one body, `_pow_entries`,
  which raises every entry of a flat tuple to the power e; `m_powp` is it
  at e = p.  e = 0 gives `one` per entry and e = 1 the canonical copy, as
  the square-and-multiply loops reduce nothing when e has no bits below its
  leading one.  Otherwise it is the generated function of m and the
  tuple's length, which squares and multiplies every entry in each step
  over the bits of e, so e is an argument too.
- The Frobenius lift is installed from phi(x) alone (`set_frob`): the table
  of phi^k, k < m, has the columns (phi^k(x))^j, j < m, and phi^k(x) =
  phi(phi^{k-1}(x)), by the table of phi just built.  `s_frob`/`m_frob`
  (one body under two names) apply the m x m table `_frob[k % m]` to each
  entry, written out on pairs at m == 2.
- The inverse at m == 2 uses the norm.  x -> r1 - x is a ring automorphism
  of (Z/q)[x]/(f), since f(r1 - x) = f(x); so conj(a) = (a0 + r1 a1) - a1 x
  and a * conj(a) = N(a) = a0^2 + r1 a0 a1 - r0 a1^2, an integer mod q, and
  a^{-1} = conj(a) * N(a)^{-1}.  `s_inv` keeps the `s_is_unit` check:
  F_p[x]/(f mod p) is a field, so N(a) is a unit exactly when a is.
  `m_solve` at m == 2 runs Gauss-Jordan on the n x 2n array [A | B] of
  pairs with unit pivots, each inverted by its norm.  A row update x - f*y
  applies the matrix M_f = [[f0, r0 f1], [f1, f0 + r1 f1]] of
  multiplication by f to each pair y.  Results equal the integer
  elimination's below because inverses are unique, and the errors fire on
  the same inputs: over the field F_{p^2} an n x n matrix is invertible
  exactly when elimination finds a unit pivot in every column, and a pair
  is a unit exactly when its norm is.
- Solves and inverses are one elimination: `m_solve(A, B)` = A^{-1} B, by
  Gauss-Jordan on [A | B], and `m_inv(A)` is `m_solve(A, 1)`.  At m == 1
  and m >= 3 this is integer linear algebra mod q.  Multiplication by an
  element a is a Z/q-linear map of the ring.  Its m x m matrix M_a has the
  columns a, a*x, ..., a*x^{m-1}, each x times the one before with the top
  coefficient folded through the row x^m mod f, and a^{-1} is the solution
  z of M_a z = e_0: at m >= 3, `s_inv(a)` is `m_solve(a, 1)` at n = 1,
  after its unit check.  For n x n matrices at m >= 3, R(A) is the
  nm x nm integer matrix with the blocks M_{a_ij}, and
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
  nonzero entries of row i of Q: a row of entries 1 and -1 is a signed sum
  of rows of X, with no multiplication and no reduction (every form
  `build_q` makes is a signed permutation), and any other row is a dot
  product per entry, reduced once.  Each entry of X^t (QX) is then one dot
  product of a column of X with a column of QX; the transpose is not
  built.  The generated form reads Q's pattern of entries 0, 1, -1 and
  other, and writes the signed sums into each product.
- `m_det` is the Laplace expansion along the rows, memoized: the minor on
  the rows below the ones expanded is fixed by the mask of columns those
  left free, so it is built once, bottom-up, one dot product per mask,
  2^n - n - 1 of them (11 at n = 4, 247 at n = 8).  At n == 1 it is the
  canonical entry.  At n >= 2 it is generated code, one function per
  (m, n) (`_det_fn`): each minor is one local per coefficient, a sum of
  signed products of an entry of its row and a minor of the rows below,
  reduced once mod q.
"""

from functools import lru_cache
from itertools import chain, repeat
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
        self.zero = (0,) * m
        self.one = (1,) + (0,) * (m - 1)
        xm = tuple([-c % self.q for c in self.modulus_tail])  # x^m mod f
        # _r[i*m + j] = coefficient j of x^{m+i} mod f, i < m - 1: the first
        # m - 1 columns of M_{x^m}, flat; its first m are x^m mod f, which
        # `_times_x` reads
        self._r = xm
        self.x = self._times_x(self.one)  # the class of x mod f: -f_0 at m == 1
        self._r = tuple(chain.from_iterable(zip(*self._mul_rows(xm))))[: m * (m - 1)]
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

    def _pow_entries(self, A, e):
        """Every entry of the flat tuple A to the power e >= 0, in [0, q):
        the one body of `s_pow` and `m_powp`."""
        m, q = self.m, self.q
        if e < 2:  # e has no bits below its leading one: the loops reduce nothing
            return tuple([c % q for c in A]) if e else self.one * (len(A) // m)
        return _powp_fn(m, len(A))(A, e, q, *self._r)

    # -- inverses: integer linear algebra mod q ----------------------------------

    def _inv2(self, a0, a1):
        """(a0 + a1 x)^{-1} at m == 2, for a unit: conj(a) * N(a)^{-1}."""
        q = self.q
        r0, r1 = self._r
        ninv = pow((a0 * a0 + r1 * a0 * a1 - r0 * a1 * a1) % q, -1, q)
        return (a0 + r1 * a1) * ninv % q, -a1 * ninv % q

    def _m_solve2(self, a, b, n):
        """A^{-1} B at m == 2: Gauss-Jordan on [A | B] with pair entries.

        Unit pivots, inverted by the norm; eliminated columns are dropped
        from the rows as in `_gauss_jordan`.  A row update x - f*y applies
        M_f = [[f0, r0 f1], [f1, f0 + r1 f1]] to each pair y.
        """
        p, q = self.p, self.q
        r0, r1 = self._r
        ea, eb = list(zip(a[::2], a[1::2])), list(zip(b[::2], b[1::2]))
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

    def _times_x(self, a):
        """a*x mod f: a shifted up one place, its top coefficient folded
        through the row of x^m mod f, the first m entries of `_r`."""
        q, top = self.q, a[-1]
        return tuple([(c + top * r) % q for c, r in zip((0, *a[:-1]), self._r)])

    def _mul_rows(self, a):
        """The rows of M_a, the matrix of y -> a*y: column k is a*x^k, x
        times the one before.  The solves at m >= 3 use it, and so does
        `__init__`, for `_r`, the first columns of M_{x^m}."""
        cols = [a]
        for _ in range(self.m - 1):
            cols.append(self._times_x(cols[-1]))
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

    # -- coefficient-wise operations: an element or a matrix alike -----------

    def add(self, a, b):
        q = self.q
        return tuple([(x + y) % q for x, y in zip(a, b)])

    def sub(self, a, b):
        q = self.q
        return tuple([(x - y) % q for x, y in zip(a, b)])

    def neg(self, a):
        q = self.q
        return tuple([(-x) % q for x in a])

    def scal_int(self, c, a):
        q = self.q
        c %= q
        return tuple([c * x % q for x in a])

    def eq_mod(self, a, b, k):
        pk = self.p ** k
        return all((x - y) % pk == 0 for x, y in zip(a, b))

    def s_divp(self, a):
        p = self.p
        for c in a:
            if c % p:
                raise AlgebraInvariantError("exact division by p failed")
        return tuple([c // p for c in a])

    # One body; the two names keep separate per-op counts for elements and matrices.
    m_divp = s_divp

    # -- element operations --------------------------------------------------

    def s_mul(self, a, b):
        return _mul_fn(self.m, 1)(a, b, self.q, *self._r)

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
        ents = list(zip(*[iter(A)] * self.m))  # the entries, row by row
        return tuple([c for j in range(n) for e in ents[j::n] for c in e])

    def m_mul(self, A, B, n):
        return _mul_fn(self.m, n)(A, B, self.q, *self._r)

    def m_scal(self, s, A):
        """s_mul(s, .) on every entry of A."""
        m = self.m
        ents = zip(*[iter(A)] * m)
        products = map(_mul_fn(m, 1), repeat(s), ents, repeat(self.q), *map(repeat, self._r))
        return tuple(chain.from_iterable(products))

    def m_powp(self, A):
        return self._pow_entries(A, self.p)

    def m_det(self, A, n):
        """det A: the canonical entry at n == 1, else the generated Laplace
        expansion of (m, n) (module docstring)."""
        if n == 1:
            return tuple([c % self.q for c in A])
        return _det_fn(self.m, n)(A, self.q, *self._r)

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
        return _form_fn_of(self.m, n, self.q, Q)(X, Q, self.q, *self._r)


# -- generated kernels, one per op and (m, shape) (module docstring)
#
# In the generated source, coefficient k of a flat tuple is the local a<k>
# (b<k>, x<k>, ...), so entry e is the m-tuple of a<em> .. a<em + m - 1>.
# Every function takes q and the flat reduction rows r0 .. r<m(m-1) - 1>
# after its tuples.


def _compile(name, params, body, shape):
    """The function `name(params)` whose body is the given lines; `shape`
    names it in tracebacks and profiles."""
    source = f"def {name}({params}):\n" + "".join(f"    {line}\n" for line in body)
    namespace = {}
    exec(compile(source, f"<deltalin._kernel {name} {shape}>", "exec"), namespace)
    return namespace[name]


def _params(tuples, m):
    return ", ".join([*tuples, "q"] + [f"r{k}" for k in range(m * (m - 1))])


def _entries(v, size, m):
    """The names of the entries' coefficients of a flat tuple of `size`."""
    return [tuple(f"{v}{s + c}" for c in range(m)) for s in range(0, size, m)]


def _unpack(entries, arg):
    return ", ".join(c for e in entries for c in e) + ", = " + arg


def _assign(names, exprs):
    return ", ".join(names) + " = " + ", ".join(exprs)


def _return(coeffs):
    return "return (" + ", ".join(coeffs) + ",)"


def _sum(terms):
    """The text of sum sign * term over (sign, term) pairs; "0" when empty."""
    text = "".join(f" {'-' if sign < 0 else '+'} {t}" for sign, t in terms)
    if not text:
        return "0"
    return text[3:] if text[1] == "+" else "-" + text[3:]


def _dot_source(terms, t, m):
    """(lines, coefficients) of sum sign * x * y over the terms (sign, x, y),
    x and y entries' names, x None standing for 1.

    The 2m - 1 convolution sums are written out, a square's cross products
    doubled.  The sum of x^{m+i} is the local t_i, folded into coefficient
    j as r{i*m + j} * t_i, and each coefficient is one expression reduced
    once mod q: at m == 1, the one (sum) % q.
    """
    conv = [[] for _ in range(2 * m - 1)]
    for s, x, y in terms:
        if x is None:
            for k, yk in enumerate(y):
                conv[k].append((s, yk))
            continue
        square = x == y
        for i, xi in enumerate(x):
            for j, yj in enumerate(y):
                if not square or i == j:
                    conv[i + j].append((s, f"{xi}*{yj}"))
                elif i < j:
                    conv[i + j].append((s, f"2*{xi}*{yj}"))
    lines, high = [], []
    for i, products in enumerate(conv[m:]):
        if products:
            lines.append(f"{t}_{i} = {_sum(products)}")
            high.append(i)
    coeffs = [f"({_sum(conv[j] + [(1, f'r{i * m + j}*{t}_{i}') for i in high])}) % q" for j in range(m)]
    return lines, coeffs


@lru_cache(maxsize=None)
def _mul_fn(m, n):
    """A B for flat n x n matrices, each entry one dot product of a row and
    a column; at n == 1 the product of two elements."""
    a, b = _entries("a", n * n * m, m), _entries("b", n * n * m, m)
    lines, out = [_unpack(a, "A"), _unpack(b, "B")], []
    for i in range(n):
        for j in range(n):
            terms = [(1, a[i * n + k], b[k * n + j]) for k in range(n)]
            pre, coeffs = _dot_source(terms, f"t{i * n + j}", m)
            lines += pre
            out += coeffs
    return _compile("m_mul", _params(("A", "B"), m), lines + [_return(out)], f"m={m} n={n}")


@lru_cache(maxsize=None)
def _powp_fn(m, size):
    """The entrywise e-th power of a flat tuple of `size` coefficients:
    square and multiply on the entries, every entry in each step, over the
    bits of e below its leading one, so one function serves every e; at
    e = 1 there are none, and A comes back unreduced."""
    a, b = _entries("a", size, m), _entries("b", size, m)
    square, times_a = [], []
    for x, y in zip(a, b):
        pre, coeffs = _dot_source([(1, y, y)], "t", m)
        square += pre + [_assign(y, coeffs)]
        pre, coeffs = _dot_source([(1, y, x)], "t", m)
        times_a += pre + [_assign(y, coeffs)]
    lines = [_unpack(a, "A"), _unpack(b, "A"), "for bit in bin(e)[3:]:"]
    lines += ["    " + line for line in square] + ["    if bit == '1':"]
    lines += ["        " + line for line in times_a]
    lines.append(_return(c for e in b for c in e))
    return _compile("m_powp", _params(("A", "e"), m), lines, f"m={m} size={size}")


@lru_cache(maxsize=None)
def _det_fn(m, n):
    """det A for a flat n x n matrix, n >= 2: the memoized Laplace expansion
    of `PureKernel.m_det` written out, one local per coefficient of each
    minor, each reduced once mod q."""
    a = _entries("a", n * n * m, m)
    lines = [_unpack(a, "A")]
    minors = {1 << j: a[(n - 1) * n + j] for j in range(n)}
    for row, masks in _free_masks(n):
        for mask in masks:
            terms, sign = [], 1
            for j in range(n):
                if mask >> j & 1:
                    terms.append((sign, a[row * n + j], minors[mask ^ (1 << j)]))
                    sign = -sign
            minors[mask] = tuple(f"d{mask}_{c}" for c in range(m))
            pre, coeffs = _dot_source(terms, "t", m)
            lines += pre + [_assign(minors[mask], coeffs)]
    lines.append(_return(minors[(1 << n) - 1]))
    return _compile("m_det", _params(("A",), m), lines, f"m={m} n={n}")


@lru_cache(maxsize=256)
def _form_fn_of(m, n, q, Q):
    """The form function of Q's pattern: each entry 0, 1, -1 or another value (2)."""
    zero = (0,) * m
    codes = {(q - 1, *zero[1:]): -1, (1, *zero[1:]): 1, zero: 0}
    return _form_fn(m, n, tuple(codes.get(Q[s : s + m], 2) for s in range(0, len(Q), m)))


@lru_cache(maxsize=256)
def _form_fn(m, n, pattern):
    """X^t Q X for Q of the given entry pattern.

    Entry (i, j) of QX is the sum over Q's nonzero entries c_ik of c_ik x_kj:
    a signed sum of entries of X when row i of Q has only 1 and -1 entries,
    else one local per coefficient, reduced once.  Entry (i, j) of X^t (QX)
    is then one dot product of column i of X with column j of QX.
    """
    x, c = _entries("x", n * n * m, m), _entries("c", n * n * m, m)
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
            pre, coeffs = _dot_source(terms, "t", m)
            y = tuple(f"y{(i * n + j) * m + k}" for k in range(m))
            lines += pre + [_assign(y, coeffs)]
            qx[i].append([(1, y)])
    out = []
    for i in range(n):
        for j in range(n):
            terms = [(s, x[k * n + i], y) for k in range(n) for s, y in qx[k][j]]
            pre, coeffs = _dot_source(terms, f"t{i * n + j}", m)
            lines += pre
            out += coeffs
    return _compile("m_form", _params(("X", "Q"), m), lines + [_return(out)], f"m={m} n={n} Q={pattern}")
