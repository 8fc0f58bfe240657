"""Higher residue degrees and precisions on both sides of 2^63."""

import math

import pytest

from deltalin.equations import EquationSpec, solve
from deltalin.ring import exp_p, log_p, make_context, psi
from deltalin.sampling import Rng


@pytest.mark.parametrize("p,m,N", [(3, 3, 10), (5, 3, 8), (7, 4, 6), (3, 4, 8)])
def test_extension_degree_three_and_four(p, m, N):
    ctx = make_context(p, m, N)
    rng = Rng(77)
    for _ in range(25):
        a = rng.element(ctx)
        assert a.frobenius(m) == a  # phi has order m

    t = ctx.teichmueller(tuple(rng.below(p) for _ in range(m)))
    assert t ** (p ** m) == t
    assert t.delta().is_zero()

    a = p * rng.element(ctx)
    assert log_p(exp_p(a)) == a
    u, v = rng.unit(ctx), rng.unit(ctx)
    assert psi(u * v) == psi(u) + psi(v)

    rep = solve(EquationSpec("gl", 2, rng.matrix(ctx, 2)), rng.gl(ctx, 2))
    assert rep.residual_valuation == math.inf
    assert 1 <= rep.fixedness <= m


def test_kernel_word_size_boundary():
    # 3^39 < 2^63 <= 3^40
    below = make_context(3, 1, 39)
    above = make_context(3, 1, 40)
    for ctx in (below, above):
        rng = Rng(3)
        u = rng.unit(ctx)
        assert u * u.invert() == ctx.one()
        assert log_p(exp_p(3 * rng.element(ctx))).known_prec == ctx.N


def test_large_prime_pure_path():
    # q = p^2 exceeds 64 bits
    p = (1 << 40) + 15  # prime
    ctx = make_context(p, 1, 2)
    rng = Rng(4)
    a = rng.unit(ctx)
    assert a * a.invert() == ctx.one()
    t = ctx.teichmueller(123456789)
    assert t ** p == t and t.delta().is_zero()
    rep = solve(EquationSpec("gl", 1, rng.matrix(ctx, 1)), rng.gl(ctx, 1))
    assert rep.residual_valuation == math.inf
