"""Op-level oracle for the pure kernel, against a reference written here.

The reference works from the definitions, not from the kernel's shortcuts:
a product is a schoolbook polynomial product reduced by long division by
the monic modulus (not by the kernel's rows of x^{m+i} mod f), a power is
repeated multiplication, a determinant is the Leibniz sum over
permutations, and the Frobenius is phi(sum a_i x^i) = sum a_i phi(x)^i.
Inverses and solves A^{-1} B are checked by multiplying back, which pins
them down because inverses are unique, and X^t Q X against two reference
products.  The coefficient-wise ops, shared by elements and matrices, are
checked on tuples of both lengths: a sum, a difference, a negation and an
integer multiple entry by entry through the reference product, and
agreement mod p^k against the valuation of the difference.

Contexts cover m = 1, 2, 3, each with p^N below and above 2^63, a cubic
modulus whose tail coefficients are all nonzero, and m = 4, so the
multiplication matrices of the inverse fold through reduction rows with
nonzero entries.  Every default quadratic modulus is x^2 + c, so the m = 2
contexts include x^2 + x + 2, below and above 2^63: with it
x^2 = r0 + r1 x has r1 != 0, and the r1 terms of the closed-form m = 2
product, square, norm and row update are exercised.  Matrices are
n = 1..5, and singular ones include columns of valuation 1..3.  The
determinant is also checked against the Leibniz sum at n = 6, and by
det(AB) = det(A) det(B) at n = 7 and n = 8 = MAX_DIM, where the Leibniz sum
is too slow.  Products, p-th powers and forms are also checked at
n = 6..8 for every m; they are generated straight-line code, one function
per (m, shape), shown to be shared by every context of its shape at m = 1,
2 and 3.  So is the determinant at every m and n >= 2, checked at n = 6..8
against a cofactor expansion along the columns, on random, monomial and
singular matrices, and on entries that are not canonical (at n = 1 too).
`m_scal` and `m_transpose` are checked at n = 1..8 for every m.
`s_pow` and `m_powp` are one body: it is checked on non-canonical inputs
at e = 0 and 1, by a^(e1 + e2) = a^e1 a^e2 at 60-bit exponents, and
`m_powp` against `s_pow` entry by entry.
"""

import itertools
import random

import pytest

from deltalin import _kernel
from deltalin.equations import SO_VARIANTS, build_q
from deltalin.errors import NotUnitError, ParameterError, SingularMatrixError
from deltalin.matrix import PMatrix
from deltalin.ring import MAX_DIM, make_context

# (p, m, N, residue polynomial or None for the default one)
CONTEXTS = [
    (7, 1, 20, None),          # 7^20 < 2^63
    (7, 1, 30, None),          # 7^30 > 2^63
    (13, 2, 16, None),         # 13^16 < 2^63
    (13, 2, 20, None),         # 13^20 > 2^63
    (5, 2, 16, (2, 1, 1)),     # x^2 + x + 2: x^2 = r0 + r1 x with r1 != 0
    (13, 2, 20, (2, 1, 1)),    # the same modulus with p^N > 2^63
    (5, 3, 24, None),          # 5^24 < 2^63
    (5, 3, 40, None),          # 5^40 > 2^63
    (7, 3, 20, (1, 2, 5, 1)),  # x^3 + 5x^2 + 2x + 1: every tail coefficient nonzero
    (3, 4, 44, None),          # x^4 + x + 2, 3^44 > 2^63
]
IDS = [f"p{p}-m{m}-N{N}" + ("-f" if f else "") for p, m, N, f in CONTEXTS]


class Ref:
    """Reference arithmetic in (Z/p^N)[x]/(f) on m-tuples."""

    def __init__(self, ctx):
        self.p, self.m, self.q = ctx.p, ctx.m, ctx.p ** ctx.N
        self.f = ctx.modulus  # monic, little-endian, m + 1 coefficients
        self.one = (1,) + (0,) * (self.m - 1)
        self.zero = (0,) * self.m
        self.frob_x = ctx.frob_image if self.m > 1 else None

    def reduce(self, t):
        """Long division of the polynomial t by f; the remainder mod q."""
        m, f = self.m, self.f
        t = list(t) + [0] * max(0, m - len(t))
        for d in range(len(t) - 1, m - 1, -1):
            c = t[d]
            for i in range(m + 1):
                t[d - m + i] -= c * f[i]
        return tuple(c % self.q for c in t[:m])

    def mul(self, a, b):
        t = [0] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            for j, bj in enumerate(b):
                t[i + j] += ai * bj
        return self.reduce(t)

    def add(self, a, b):
        return tuple((x + y) % self.q for x, y in zip(a, b))

    def pow(self, a, e):
        out = self.one
        for _ in range(e):
            out = self.mul(out, a)
        return out

    def is_unit(self, a):
        return any(c % self.p for c in a)

    def frob(self, a, k):
        for _ in range(k if self.m > 1 else 0):
            out, pw = self.zero, self.one
            for c in a:
                out = self.add(out, self.mul((c,), pw))
                pw = self.mul(pw, self.frob_x)
            a = out
        return a

    def matmul(self, A, B, n):
        out = []
        for i in range(n):
            for j in range(n):
                acc = self.zero
                for k in range(n):
                    acc = self.add(acc, self.mul(A[i * n + k], B[k * n + j]))
                out.append(acc)
        return out

    def det(self, A, n):
        acc = self.zero
        for perm in itertools.permutations(range(n)):
            term = self.one
            for i, j in enumerate(perm):
                term = self.mul(term, A[i * n + j])
            inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
            acc = self.add(acc, term if inversions % 2 == 0 else self.mul((-1,), term))
        return acc

    def det_by_columns(self, A, n):
        """The cofactor expansion along the first column, each minor on the
        rows left computed once: for n where the Leibniz sum is too slow."""
        minors = {}

        def minor(rows, col):
            if col == n:
                return self.one
            if rows not in minors:
                acc = self.zero
                for pos, i in enumerate(rows):
                    term = self.mul(A[i * n + col], minor(rows[:pos] + rows[pos + 1 :], col + 1))
                    acc = self.add(acc, term if pos % 2 == 0 else self.mul((-1,), term))
                minors[rows] = acc
            return minors[rows]

        return minor(tuple(range(n)), 0)


def _setup(p, m, N, f):
    ctx = make_context(p, m, N, f)
    return ctx.kernel, Ref(ctx)


def _element(rnd, ref, unit=None):
    a = tuple(rnd.randrange(ref.q) for _ in range(ref.m))
    if unit is False or (unit is None and rnd.random() < 0.2):
        a = tuple(c * ref.p % ref.q for c in a)
    return a


def _entries(flat, m):
    return [tuple(flat[s : s + m]) for s in range(0, len(flat), m)]


def _flat(entries):
    return tuple(c for e in entries for c in e)


def _canonical(values, q):
    return all(0 <= c < q for c in values)


@pytest.mark.parametrize("p, m, N, f", CONTEXTS, ids=IDS)
def test_scalar_ops_match_reference(p, m, N, f):
    k, ref = _setup(p, m, N, f)
    rnd = random.Random(p * 1000 + m * 100 + N)
    for _ in range(40):
        a, b = _element(rnd, ref), _element(rnd, ref)
        assert k.s_mul(a, b) == ref.mul(a, b)
        for e in (0, 1, p, rnd.randrange(2, 40)):
            assert k.s_pow(a, e) == ref.pow(a, e)
        for j in range(m + 1):
            assert k.s_frob(a, j) == ref.frob(a, j)
        if ref.is_unit(a):
            inv = k.s_inv(a)
            assert _canonical(inv, ref.q)
            assert ref.mul(a, inv) == ref.one
        else:
            with pytest.raises(NotUnitError):
                k.s_inv(a)


@pytest.mark.parametrize("p, m, N, f", CONTEXTS, ids=IDS)
def test_power_reduces_a_non_canonical_input(p, m, N, f):
    """s_pow(a, 1) and s_pow(a, 0) for a with negated coefficients or
    coefficients >= q: the square-and-multiply loops reduce nothing when e
    has no bits below its leading one, so these are the canonical a and 1."""
    k, ref = _setup(p, m, N, f)
    rnd = random.Random(p * 1000 + m * 100 + N + 1)
    for _ in range(10):
        a = _element(rnd, ref)
        for raw in (tuple(-c for c in a), tuple(c + ref.q * rnd.randrange(1, 4) for c in a)):
            assert k.s_pow(raw, 1) == tuple(c % ref.q for c in raw)
            assert k.s_pow(raw, 0) == ref.one


@pytest.mark.parametrize("p, m, N, f", CONTEXTS, ids=IDS)
def test_power_adds_wide_exponents(p, m, N, f):
    """a^(e1 + e2) = a^e1 a^e2 for 60-bit exponents."""
    k, ref = _setup(p, m, N, f)
    rnd = random.Random(p * 1000 + m * 100 + N + 2)
    for _ in range(5):
        a = _element(rnd, ref)
        e1, e2 = (rnd.getrandbits(59) | 1 << 59 for _ in range(2))
        power = k.s_pow(a, e1 + e2)
        assert _canonical(power, ref.q)
        assert power == k.s_mul(k.s_pow(a, e1), k.s_pow(a, e2))


@pytest.mark.parametrize("p, m, N, f", CONTEXTS, ids=IDS)
def test_powp_is_the_entrywise_power(p, m, N, f):
    """m_powp(A) is s_pow(., p) on every entry, non-canonical ones included."""
    k, ref = _setup(p, m, N, f)
    rnd = random.Random(p * 1000 + m * 100 + N + 3)
    for n in (1, 2, 3):
        A = [_element(rnd, ref) for _ in range(n * n)]
        A[0] = tuple(-c for c in A[0])
        assert _entries(k.m_powp(_flat(A)), m) == [k.s_pow(x, p) for x in A]


@pytest.mark.parametrize("n", [None, 1, 3])
@pytest.mark.parametrize("p, m, N, f", CONTEXTS, ids=IDS)
def test_coefficient_ops_match_reference(p, m, N, f, n):
    """add, sub, neg, scal_int and eq_mod on an element (n None) and on an
    n x n matrix: the same op serves both lengths."""
    k, ref = _setup(p, m, N, f)
    rnd = random.Random(p * 1000 + m * 100 + N * 10 + (n or 0) + 3)
    count = 1 if n is None else n * n
    minus_one = (-1,)
    for _ in range(10):
        A = [_element(rnd, ref) for _ in range(count)]
        B = [_element(rnd, ref) for _ in range(count)]
        a, b = _flat(A), _flat(B)
        c = rnd.choice([0, 1, -1, p, ref.q + 2, -ref.q - 3, rnd.randrange(-ref.q, ref.q)])
        assert _entries(k.add(a, b), m) == [ref.add(x, y) for x, y in zip(A, B)]
        assert _entries(k.sub(a, b), m) == [ref.add(x, ref.mul(minus_one, y)) for x, y in zip(A, B)]
        assert _entries(k.neg(a), m) == [ref.mul(minus_one, x) for x in A]
        assert _entries(k.scal_int(c, a), m) == [ref.mul((c,), x) for x in A]
        for out in (k.add(a, b), k.sub(a, b), k.neg(a), k.scal_int(c, a)):
            assert len(out) == len(a) and _canonical(out, ref.q)
        # b agrees with a to exactly j digits: a + p^j times a unit entry
        j = rnd.randrange(N + 1)
        unit = (rnd.randrange(1, p),) + _element(rnd, ref)[1:]
        D = [unit] + [_element(rnd, ref) for _ in range(count - 1)]
        rnd.shuffle(D)
        b = _flat([ref.add(x, ref.mul((p ** j,), d)) for x, d in zip(A, D)])
        diff = [x - y for x, y in zip(a, b)]
        agree = min((_vp(d, p) for d in diff if d % ref.q), default=N)
        assert agree == j
        for e in range(N + 1):
            assert k.eq_mod(a, b, e) == (e <= agree), (j, e)


@pytest.mark.parametrize("n", range(1, MAX_DIM + 1))
@pytest.mark.parametrize("p, m, N, f", CONTEXTS, ids=IDS)
def test_scal_and_transpose_match_reference(p, m, N, f, n):
    """m_scal(s, A) is s times every entry and m_transpose(A) puts entry
    (j, i) at (i, j), at every m."""
    k, ref = _setup(p, m, N, f)
    rnd = random.Random(p * 1000 + m * 100 + N * 10 + n + 7)
    for _ in range(3):
        A = [_element(rnd, ref) for _ in range(n * n)]
        s = _element(rnd, ref)
        scaled = k.m_scal(s, _flat(A))
        assert _canonical(scaled, ref.q)
        assert _entries(scaled, m) == [ref.mul(s, x) for x in A]
        assert _entries(k.m_transpose(_flat(A), n), m) == [A[j * n + i] for i in range(n) for j in range(n)]


def _vp(x, p):
    v = 0
    while x % p == 0:
        x //= p
        v += 1
    return v


def test_from_flat_checks_the_length():
    """A flat tuple of the wrong length is a usage error (a ParameterError,
    still a ValueError); the right length is reduced to canonical form."""
    ctx = make_context(5, 2, 4)
    for n, length in ((2, 7), (2, 9), (1, 4), (3, 8)):
        with pytest.raises(ParameterError, match=f"expected {n * n * 2} coefficients, got {length}$"):
            PMatrix.from_flat(ctx, [1] * length, n)
        with pytest.raises(ValueError):
            PMatrix.from_flat(ctx, [1] * length, n)
    M = PMatrix.from_flat(ctx, [-1, 626, 3, 0, 0, 0, 1, 1], 2)
    assert M.flat == (624, 1, 3, 0, 0, 0, 1, 1)


def _test_matrix(rnd, ref, n, trial):
    """A matrix of unit entries; trial % 4 == 1 puts a non-unit in the corner
    (the pivot search must swap rows), trial % 4 == 3 makes the last row
    divisible by p (singular mod p)."""
    A = [_element(rnd, ref, unit=True) for _ in range(n * n)]
    if trial % 4 == 1:
        A[0] = _element(rnd, ref, unit=False)
    if trial % 4 == 3:
        A[n * (n - 1) :] = [_element(rnd, ref, unit=False) for _ in range(n)]
    return A


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("p, m, N, f", CONTEXTS, ids=IDS)
def test_matrix_ops_match_reference(p, m, N, f, n):
    k, ref = _setup(p, m, N, f)
    rnd = random.Random(p * 1000 + m * 100 + N * 10 + n)
    identity = [ref.one if i == j else ref.zero for i in range(n) for j in range(n)]
    singular = 0
    for trial in range(8 if n < 5 else 4):
        A = _test_matrix(rnd, ref, n, trial)
        B = [_element(rnd, ref) for _ in range(n * n)]
        fA, fB = _flat(A), _flat(B)
        s = _element(rnd, ref)

        product = k.m_mul(fA, fB, n)
        assert _entries(product, m) == ref.matmul(A, B, n)
        assert _entries(k.m_scal(s, fA), m) == [ref.mul(s, x) for x in A]
        assert _entries(k.m_powp(fA), m) == [ref.pow(x, p) for x in A]
        for j in {1, m - 1}:
            assert _entries(k.m_frob(fA, j), m) == [ref.frob(x, j) for x in A]

        det = ref.det(A, n)
        assert k.m_det(fA, n) == det
        if ref.is_unit(det):
            inv = k.m_inv(fA, n)
            assert _canonical(inv, ref.q)
            assert ref.matmul(A, _entries(inv, m), n) == identity
            assert ref.matmul(_entries(inv, m), A, n) == identity
        else:
            singular += 1
            with pytest.raises(SingularMatrixError):
                k.m_inv(fA, n)
    assert singular  # the singular branch ran


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("p, m, N, f", CONTEXTS, ids=IDS)
def test_solve_matches_reference(p, m, N, f, n):
    """m_solve(A, B) = A^{-1} B, so A m_solve(A, B) = B; it raises
    SingularMatrixError on exactly the inputs where m_inv does."""
    k, ref = _setup(p, m, N, f)
    rnd = random.Random(p * 1000 + m * 100 + N * 10 + n + 1)
    singular = 0
    for trial in range(8 if n < 5 else 4):
        A = _test_matrix(rnd, ref, n, trial)
        B = [_element(rnd, ref) for _ in range(n * n)]
        fA, fB = _flat(A), _flat(B)
        if ref.is_unit(ref.det(A, n)):
            X = k.m_solve(fA, fB, n)
            assert _canonical(X, ref.q)
            assert ref.matmul(A, _entries(X, m), n) == B
            k.m_inv(fA, n)  # does not raise either
        else:
            singular += 1
            with pytest.raises(SingularMatrixError):
                k.m_solve(fA, fB, n)
            with pytest.raises(SingularMatrixError):
                k.m_inv(fA, n)
    assert singular  # the singular branch ran


def _forms(ctx, rnd, ref, n):
    """(label, entries of Q): every `build_q` variant defined at n, a dense
    random Q, a monomial Q whose entries are 1, -1 and elements that only
    resemble them (2, -1 + x, 1 - x), with one zero row, and a mixed Q of
    0, 1, -1 and random entries whose first rows start with 1, -1 and
    have more nonzero entries after them."""
    forms = []
    for variant in SO_VARIANTS:
        try:
            Q = build_q(ctx, variant, n)
        except ParameterError:
            continue
        forms.append((variant, _entries(Q.flat, ref.m)))
    forms.append(("dense", [_element(rnd, ref) for _ in range(n * n)]))
    q, zero = ref.q, ref.zero
    minus_one = (q - 1,) + zero[1:]
    lookalikes = [ref.one, minus_one, (2,) + zero[1:]]
    if ref.m > 1:
        lookalikes += [(q - 1, 1) + zero[2:], (1, q - 1) + zero[2:]]
    perm = list(range(n))
    rnd.shuffle(perm)
    Q = [zero] * (n * n)
    for i in range(n - 1 if n > 1 else n):
        Q[i * n + perm[i]] = lookalikes[rnd.randrange(len(lookalikes))]
    forms.append(("monomial", Q))
    choices = [zero, ref.one, minus_one, None]
    Q = [rnd.choice(choices) or _element(rnd, ref, unit=True) for _ in range(n * n)]
    if n > 1:
        Q[0], Q[1] = ref.one, minus_one
        Q[n], Q[n + 1] = minus_one, _element(rnd, ref, unit=True)
    forms.append(("mixed", Q))
    return forms


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("p, m, N, f", CONTEXTS, ids=IDS)
def test_form_matches_reference(p, m, N, f, n):
    """m_form(X, Q) = X^t Q X for every `build_q` form and for Q of any shape."""
    ctx = make_context(p, m, N, f)
    k, ref = ctx.kernel, Ref(ctx)
    rnd = random.Random(p * 1000 + m * 100 + N * 10 + n + 2)
    labels = set()
    for label, Q in _forms(ctx, rnd, ref, n):
        labels.add(label)
        for _ in range(3):
            X = [_element(rnd, ref) for _ in range(n * n)]
            Xt = [X[j * n + i] for i in range(n) for j in range(n)]
            got = k.m_form(_flat(X), _flat(Q), n)
            assert _canonical(got, ref.q), label
            assert _entries(got, m) == ref.matmul(ref.matmul(Xt, Q, n), X, n), label
    assert labels >= {"dense", "monomial", "mixed"} and (n < 2 or len(labels) > 3)


@pytest.mark.parametrize("n", range(6, MAX_DIM + 1))
@pytest.mark.parametrize("p, m, N, f", CONTEXTS, ids=IDS)
def test_straight_line_ops_match_reference_up_to_max_dim(p, m, N, f, n):
    """m_mul, m_powp, m_form and m_det at n = 6..MAX_DIM for every m
    (generated code): canonical and equal to the reference, for every
    `build_q` form and a dense, a monomial and a mixed Q; the determinant
    of a random matrix, of a monomial one (zero entries) and of the
    singular cases."""
    ctx = make_context(p, m, N, f)
    k, ref = ctx.kernel, Ref(ctx)
    rnd = random.Random(p * 1000 + m * 100 + N * 10 + n + 4)
    A = [_element(rnd, ref) for _ in range(n * n)]
    B = [_element(rnd, ref) for _ in range(n * n)]
    product, power = k.m_mul(_flat(A), _flat(B), n), k.m_powp(_flat(A))
    assert _canonical(product, ref.q) and _canonical(power, ref.q)
    assert _entries(product, m) == ref.matmul(A, B, n)
    assert _entries(power, m) == [ref.pow(x, p) for x in A]
    labels = set()
    for label, Q in _forms(ctx, rnd, ref, n):
        labels.add(label)
        Xt = [A[j * n + i] for i in range(n) for j in range(n)]
        got = k.m_form(_flat(A), _flat(Q), n)
        assert _canonical(got, ref.q), label
        assert _entries(got, m) == ref.matmul(ref.matmul(Xt, Q, n), A, n), label
    assert labels >= {"dense", "monomial", "mixed"}
    perm = list(range(n))
    rnd.shuffle(perm)
    monomial = [ref.zero] * (n * n)
    for i in range(n):
        monomial[i * n + perm[i]] = _element(rnd, ref, unit=True)
    for M in [A, monomial] + _singular_cases(rnd, ref, n):
        det = k.m_det(_flat(M), n)
        assert _canonical(det, ref.q)
        assert det == ref.det_by_columns(M, n)


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("p, m, N, f", CONTEXTS, ids=IDS)
def test_det_reduces_a_non_canonical_input(p, m, N, f, n):
    """m_det of entries shifted by multiples of q, negative ones included,
    is the canonical det of the matrix they represent; at n = 1 the entry
    itself."""
    k, ref = _setup(p, m, N, f)
    rnd = random.Random(p * 1000 + m * 100 + N * 10 + n + 5)
    for _ in range(4):
        A = [_element(rnd, ref) for _ in range(n * n)]
        shifted = tuple(c + rnd.choice((-3, -1, 1, 2)) * ref.q for c in _flat(A))
        det = k.m_det(shifted, n)
        assert _canonical(det, ref.q)
        assert det == ref.det(A, n)


def test_generated_kernels_are_keyed_by_shape(monkeypatch):
    """Fifty contexts of one (m, n) with different p, N and modulus share
    one generated m_mul, one m_form of the sp form, one m_det and one power
    per length: the matrices' (size n*n*m) and the elements' (size m).
    s_mul is the product at n = 1.  Each is compiled once per
    (op, m, shape), at m = 1, 2 and 3 alike, and serves every context with
    its own constants."""
    compiled = []
    compile_source = _kernel._compile

    def counting(name, params, body, shape):
        compiled.append((name, shape))
        return compile_source(name, params, body, shape)

    monkeypatch.setattr(_kernel, "_compile", counting)
    for generated in (_kernel._mul_fn, _kernel._powp_fn, _kernel._form_fn_of, _kernel._form_fn, _kernel._det_fn):
        generated.cache_clear()
    primes = [3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97, 101]
    rnd = random.Random(5)
    n = 2
    for m in (1, 2, 3):
        for p in primes:
            for N in (4, 9):
                ctx = make_context(p, m, N)
                k, ref = ctx.kernel, Ref(ctx)
                A = [_element(rnd, ref) for _ in range(n * n)]
                B = [_element(rnd, ref) for _ in range(n * n)]
                Q = _entries(build_q(ctx, "sp", n).flat, m)
                Xt = [A[j * n + i] for i in range(n) for j in range(n)]
                assert _entries(k.m_mul(_flat(A), _flat(B), n), m) == ref.matmul(A, B, n)
                assert _entries(k.m_powp(_flat(A)), m) == [ref.pow(x, p) for x in A]
                form = k.m_form(_flat(A), _flat(Q), n)
                assert _entries(form, m) == ref.matmul(ref.matmul(Xt, Q, n), A, n)
                assert k.m_det(_flat(A), n) == ref.det(A, n)
                assert k.s_mul(A[0], B[0]) == ref.mul(A[0], B[0])
                assert k.s_pow(A[0], p) == ref.pow(A[0], p)
    assert sorted(compiled) == [
        ("m_det", "m=1 n=2"),
        ("m_det", "m=2 n=2"),
        ("m_det", "m=3 n=2"),
        ("m_form", "m=1 n=2 Q=(0, 1, -1, 0)"),
        ("m_form", "m=2 n=2 Q=(0, 1, -1, 0)"),
        ("m_form", "m=3 n=2 Q=(0, 1, -1, 0)"),
        ("m_mul", "m=1 n=1"),
        ("m_mul", "m=1 n=2"),
        ("m_mul", "m=2 n=1"),
        ("m_mul", "m=2 n=2"),
        ("m_mul", "m=3 n=1"),
        ("m_mul", "m=3 n=2"),
        ("m_powp", "m=1 size=1"),
        ("m_powp", "m=1 size=4"),
        ("m_powp", "m=2 size=2"),
        ("m_powp", "m=2 size=8"),
        ("m_powp", "m=3 size=12"),
        ("m_powp", "m=3 size=3"),
    ]


def _scale_column(ref, A, n, j, c):
    for i in range(n):
        A[i * n + j] = ref.mul((c,), A[i * n + j])


@pytest.mark.parametrize("n", [3, 4, 5])
@pytest.mark.parametrize("p, m, N, f", CONTEXTS, ids=IDS)
def test_singular_det_matches_reference(p, m, N, f, n):
    """Determinants of matrices singular mod p: columns of valuation 1..3,
    a zero column and a row that is the sum of two others."""
    k, ref = _setup(p, m, N, f)
    rnd = random.Random(p * 1000 + m * 100 + N * 10 + n)
    cases = _singular_cases(rnd, ref, n)
    for A in cases:
        det = ref.det(A, n)
        assert not ref.is_unit(det)
        assert k.m_det(_flat(A), n) == det
    assert ref.det(cases[-1], n) == ref.zero and ref.det(cases[-2], n) == ref.zero


def _singular_cases(rnd, ref, n):
    """Matrices singular mod p: one column of valuation v for v = 1, 2, 3,
    two columns of valuation 2 and 1, a zero column, and a last row that
    is the sum of the first two."""
    p = ref.p
    cases = []
    for v in (1, 2, 3):
        A = [_element(rnd, ref, unit=True) for _ in range(n * n)]
        _scale_column(ref, A, n, rnd.randrange(n), p ** v)
        cases.append(A)
    A = [_element(rnd, ref, unit=True) for _ in range(n * n)]
    _scale_column(ref, A, n, 0, p ** 2)  # two columns of different valuation
    _scale_column(ref, A, n, n - 1, p)
    cases.append(A)
    A = [_element(rnd, ref) for _ in range(n * n)]
    _scale_column(ref, A, n, 1, 0)
    cases.append(A)
    A = [_element(rnd, ref) for _ in range(n * n)]
    A[(n - 1) * n :] = [ref.add(x, y) for x, y in zip(A[:n], A[n : 2 * n])]
    cases.append(A)
    return cases


@pytest.mark.parametrize("p, m, N, f", [CONTEXTS[0], CONTEXTS[5]], ids=[IDS[0], IDS[5]])
def test_det_matches_leibniz_at_six(p, m, N, f):
    """n = 6 against the Leibniz sum, for m = 1 and m = 2 (r1 != 0, p^N >
    2^63): matrices of unit entries, one with a non-unit corner, one with
    scattered zero entries, and the singular cases."""
    k, ref = _setup(p, m, N, f)
    rnd = random.Random(p * 1000 + m * 100 + N * 10 + 6)
    cases = [_test_matrix(rnd, ref, 6, trial) for trial in (0, 1)]
    cases.append([x if rnd.random() < 0.6 else ref.zero for x in _test_matrix(rnd, ref, 6, 0)])
    cases += _singular_cases(rnd, ref, 6)
    for A in cases:
        assert k.m_det(_flat(A), 6) == ref.det(A, 6)


@pytest.mark.parametrize("n", [7, 8])
@pytest.mark.parametrize("p, m, N, f", CONTEXTS, ids=IDS)
def test_det_is_multiplicative_up_to_max_dim(p, m, N, f, n):
    """det(AB) = det(A) det(B) with det(A) != 0, det of A with one column
    times p^v is p^v det(A), and a zero column gives 0."""
    k, ref = _setup(p, m, N, f)
    rnd = random.Random(p * 1000 + m * 100 + N * 10 + n)
    A = [_element(rnd, ref) for _ in range(n * n)]
    B = [_element(rnd, ref) for _ in range(n * n)]
    fA, fB = _flat(A), _flat(B)
    det_a, det_b = k.m_det(fA, n), k.m_det(fB, n)
    assert _canonical(det_a, ref.q) and len(det_a) == m and det_a != ref.zero
    assert k.m_det(k.m_mul(fA, fB, n), n) == ref.mul(det_a, det_b)
    j, v = rnd.randrange(n), rnd.randrange(1, 4)
    _scale_column(ref, A, n, j, p ** v)
    assert k.m_det(_flat(A), n) == ref.mul((p ** v,), det_a)
    _scale_column(ref, A, n, j, 0)
    assert k.m_det(_flat(A), n) == ref.zero


def test_wide_precision_inverse():
    # beyond 63 bits everything still works exactly
    ctx = make_context(13, 1, 24)
    a = ctx.element(13 ** 20 + 7)
    assert (a * a.invert()) == ctx.one()
