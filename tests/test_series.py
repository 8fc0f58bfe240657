"""The one series behind exp_p, log_p and (1 + pT)^a, against oracles.

(1 + pt)^a is the binomial series for elements and matrices alike; the
oracles are exp_p(a log_p(u)) for an element, the element power for a 1 x 1
matrix, and square-and-multiply for an integer exponent.
"""

import pytest

from deltalin.matrix import PMatrix, matrix_one_plus_pT_pow
from deltalin.ring import (
    RingContext,
    RingElement,
    exp_p,
    log_p,
    make_context,
    one_plus_pt_pow,
    psi,
)
from deltalin.sampling import Rng

CONTEXTS = [(3, 1, 40), (13, 2, 16), (5, 3, 12)]
DRAWS = 8


def _exponents(ctx, rng):
    """A positive and a negative int, 1/2 and an element of Z_p known to k digits."""
    p, N = ctx.p, ctx.N
    k = 1 + rng.below(N)
    return (
        1 + rng.below(p ** N),
        -1 - rng.below(p ** N),
        pow(2, -1, p ** N),
        ctx.element(rng.below(p ** N)).with_prec(k),
    )


def _bases(ctx, rng):
    """u = 1 + pt at full precision and at a random precision 1..N."""
    u = ctx.one() + ctx.p * rng.element(ctx)
    return (u, u.with_prec(1 + rng.below(ctx.N)))


def _exp_of_log(u, a):
    """exp_p(a log_p(u)), with log_p(u) read to the digits a determines."""
    prec = u.known_prec
    if isinstance(a, RingElement):
        a, prec = a.coeffs[0], min(prec, a.known_prec + 1)
    return exp_p(a * log_p(u.with_prec(prec)))


@pytest.mark.parametrize("p, m, N", CONTEXTS)
def test_binomial_power_is_exp_of_log(p, m, N):
    ctx = make_context(p, m, N)
    rng = Rng(3000 * p + 10 * m + N)
    for _ in range(DRAWS):
        for u in _bases(ctx, rng):
            for a in _exponents(ctx, rng):
                got, truth = one_plus_pt_pow(u, a), _exp_of_log(u, a)
                assert got.known_prec == truth.known_prec, (u, a)
                assert got == truth, (u, a)


@pytest.mark.parametrize("p, m, N", CONTEXTS)
def test_matrix_power_at_n_1_is_the_element_power(p, m, N):
    ctx = make_context(p, m, N)
    rng = Rng(4000 * p + 10 * m + N)
    for _ in range(DRAWS):
        for u in _bases(ctx, rng):
            M = PMatrix.from_rows(ctx, [[u]])
            for a in _exponents(ctx, rng):
                got, truth = matrix_one_plus_pT_pow(M, a), one_plus_pt_pow(u, a)
                assert (got.flat, got.known_prec) == (truth.coeffs, truth.known_prec), (u, a)


def _square_and_multiply(M, e):
    if e < 0:
        M, e = M.inverse(), -e
    out = PMatrix.identity(M.ctx, M.n)
    while e:
        if e & 1:
            out = out @ M
        M = M @ M
        e >>= 1
    return out


def test_matrix_power_of_an_int_is_square_and_multiply():
    # p = 3, N = 40 has the largest v_k of these tests: v_3(39!) = 18
    ctx = make_context(3, 1, 40)
    rng = Rng(41)
    for n in (2, 3):
        for _ in range(DRAWS):
            M = PMatrix.identity(ctx, n) + 3 * rng.matrix(ctx, n)
            K = 1 + rng.below(ctx.N)
            for e in (0, 2, 3 ** 5, 1 + rng.below(3 ** 45), -1, -1 - rng.below(3 ** 40)):
                for base in (M, M.with_prec(K)):
                    got = matrix_one_plus_pT_pow(base, e)
                    assert got.known_prec == base.known_prec, (n, e)
                    assert got.eq_at(_square_and_multiply(M, e), got.known_prec), (n, e)


@pytest.mark.parametrize("p, m, N", CONTEXTS)
def test_series_need_no_guard_context(p, m, N, monkeypatch):
    """The series form the powers of x / p in the context itself: with
    `RingContext.guarded` refused, every map returns what it returned before."""
    ctx = make_context(p, m, N)
    rng = Rng(5000 * p + 10 * m + N)
    x = p * rng.element(ctx)
    w = rng.unit(ctx)
    a = rng.below(p ** N)
    Ms = [PMatrix.identity(ctx, n) + p * rng.matrix(ctx, n) for n in (2, 3)]

    def values():
        u = ctx.one() + x
        out = [exp_p(x), log_p(u), psi(w), one_plus_pt_pow(u, a), one_plus_pt_pow(u, -a)]
        out += [matrix_one_plus_pT_pow(M, e) for M in Ms for e in (a, -a)]
        return [(v.flat, v.known_prec) for v in out]

    before = values()

    def refuse(self, extra):
        raise AssertionError("a series asked for a guarded context")

    monkeypatch.setattr(RingContext, "guarded", refuse)
    assert values() == before
