"""Op-level oracle for the pure kernel, against a reference written here.

The reference works from the definitions, not from the kernel's shortcuts:
a product is a schoolbook polynomial product reduced by long division by
the monic modulus (not by the kernel's rows of x^{m+i} mod f), a power is
repeated multiplication, a determinant is the Leibniz sum over
permutations, and the Frobenius is phi(sum a_i x^i) = sum a_i phi(x)^i.
Inverses are checked by multiplying back, which pins them down because
inverses are unique.  Contexts cover m = 1, 2, 3, each with p^N below and
above 2^63, a cubic modulus whose tail coefficients are all nonzero, and
m = 4, so the multiplication matrices of the inverse fold through reduction
rows with nonzero entries.  Every default quadratic modulus is x^2 + c, so
the m = 2 contexts include x^2 + x + 2, below and above 2^63: with it
x^2 = r0 + r1 x has r1 != 0, and the r1 terms of the closed-form m = 2
product, square, norm and row update are exercised.  Matrices are n = 1..5 (n = 5 takes the
elimination determinant), and singular ones include columns of valuation
1..3.
"""

import itertools
import random

import pytest

from deltalin.errors import NotUnitError, SingularMatrixError
from deltalin.ring import make_context

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
    return [c for e in entries for c in e]


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


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("p, m, N, f", CONTEXTS, ids=IDS)
def test_matrix_ops_match_reference(p, m, N, f, n):
    k, ref = _setup(p, m, N, f)
    rnd = random.Random(p * 1000 + m * 100 + N * 10 + n)
    identity = [ref.one if i == j else ref.zero for i in range(n) for j in range(n)]
    singular = 0
    for trial in range(8 if n < 5 else 4):
        A = [_element(rnd, ref, unit=True) for _ in range(n * n)]
        B = [_element(rnd, ref) for _ in range(n * n)]
        if trial % 4 == 1:  # a non-unit corner: the pivot search must swap rows
            A[0] = _element(rnd, ref, unit=False)
        if trial % 4 == 3:  # a row divisible by p: singular mod p
            A[n * (n - 1) :] = [_element(rnd, ref, unit=False) for _ in range(n)]
        hA, hB = k.m_new(_flat(A), n), k.m_new(_flat(B), n)
        s = _element(rnd, ref)

        product = k.m_export(k.m_mul(hA, hB))
        assert _entries(product, m) == ref.matmul(A, B, n)
        assert _entries(k.m_export(k.m_scal(s, hA)), m) == [ref.mul(s, x) for x in A]
        assert _entries(k.m_export(k.m_powp(hA)), m) == [ref.pow(x, p) for x in A]
        for j in {1, m - 1}:
            assert _entries(k.m_export(k.m_frob(hA, j)), m) == [ref.frob(x, j) for x in A]

        det = ref.det(A, n)
        assert k.m_det(hA) == det
        if ref.is_unit(det):
            inv = k.m_export(k.m_inv(hA))
            assert _canonical(inv, ref.q)
            assert ref.matmul(A, _entries(inv, m), n) == identity
            assert ref.matmul(_entries(inv, m), A, n) == identity
        else:
            singular += 1
            with pytest.raises(SingularMatrixError):
                k.m_inv(hA)
    assert singular  # the singular branch ran


def _scale_column(ref, A, n, j, c):
    for i in range(n):
        A[i * n + j] = ref.mul((c,), A[i * n + j])


@pytest.mark.parametrize("n", [3, 5])
@pytest.mark.parametrize("p, m, N, f", CONTEXTS, ids=IDS)
def test_singular_det_matches_reference(p, m, N, f, n):
    """Determinants of matrices singular mod p, for the cofactor (n = 3) and
    the elimination (n = 5) paths: columns of valuation 1..3, a zero column
    and a row that is the sum of two others."""
    k, ref = _setup(p, m, N, f)
    rnd = random.Random(p * 1000 + m * 100 + N * 10 + n)
    cases = []
    for v in (1, 2, 3):
        A = [_element(rnd, ref, unit=True) for _ in range(n * n)]
        _scale_column(ref, A, n, rnd.randrange(n), p ** v)
        cases.append(A)
    A = [_element(rnd, ref, unit=True) for _ in range(n * n)]
    _scale_column(ref, A, n, 0, p ** 2)  # least valuation moves between columns
    _scale_column(ref, A, n, n - 1, p)
    cases.append(A)
    A = [_element(rnd, ref) for _ in range(n * n)]
    _scale_column(ref, A, n, 1, 0)
    cases.append(A)
    A = [_element(rnd, ref) for _ in range(n * n)]
    A[(n - 1) * n :] = [ref.add(x, y) for x, y in zip(A[:n], A[n : 2 * n])]
    cases.append(A)
    for A in cases:
        det = ref.det(A, n)
        assert not ref.is_unit(det)
        assert k.m_det(k.m_new(_flat(A), n)) == det
    assert ref.det(cases[-1], n) == ref.zero and ref.det(cases[-2], n) == ref.zero


def test_wide_precision_inverse():
    # beyond 63 bits everything still works exactly
    ctx = make_context(13, 1, 24)
    a = ctx.element(13 ** 20 + 7)
    assert (a * a.invert()) == ctx.one()
