"""Hypothesis property tests for the core algebraic identities."""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from deltalin.matrix import PMatrix, delta_add, delta_inverse
from deltalin.ring import make_context

_CTX = {}


def ctx_for(p, m=1, N=8):
    key = (p, m, N)
    if key not in _CTX:
        _CTX[key] = make_context(p, m, N)
    return _CTX[key]


primes = st.sampled_from([3, 5, 7, 13])


@settings(max_examples=60)
@given(p=primes, a=st.integers(0), b=st.integers(0))
def test_delta_interacts_with_frobenius(p, a, b):
    ctx = ctx_for(p)
    x, y = ctx.element(a), ctx.element(b)
    assert x.frobenius() == x ** p + p * x.delta()
    assert (x * y).delta() == x ** p * y.delta() + y ** p * x.delta() + p * (
        x.delta() * y.delta()
    )


@settings(max_examples=40)
@given(p=primes, a=st.integers(0), b=st.integers(0))
def test_delta_sum_correction(p, a, b):
    ctx = ctx_for(p)
    x, y = ctx.element(a), ctx.element(b)
    corr = ctx.zero()
    for i in range(1, p):
        corr = corr + (math.comb(p, i) // p) * (x ** i * y ** (p - i))
    assert (x + y).delta() == x.delta() + y.delta() - corr


@settings(max_examples=40)
@given(p=primes, g=st.integers(0), h=st.integers(0))
def test_teichmueller_is_multiplicative_section(p, g, h):
    ctx = ctx_for(p)
    tg, th = ctx.teichmueller(g), ctx.teichmueller(h)
    assert (tg * th).residue() == ((g * h) % p, )
    assert tg * th == ctx.teichmueller(g * h)
    assert tg ** (p ** 1) == tg


@settings(max_examples=30)
@given(
    p=primes,
    flat_a=st.lists(st.integers(0), min_size=4, max_size=4),
    flat_b=st.lists(st.integers(0), min_size=4, max_size=4),
    flat_c=st.lists(st.integers(0), min_size=4, max_size=4),
)
def test_delta_add_is_a_group(p, flat_a, flat_b, flat_c):
    ctx = ctx_for(p)
    a = PMatrix.from_flat(ctx, flat_a, 2)
    b = PMatrix.from_flat(ctx, flat_b, 2)
    c = PMatrix.from_flat(ctx, flat_c, 2)
    zero = PMatrix.zeros(ctx, 2)
    I = PMatrix.identity(ctx, 2)
    assert delta_add(a, zero) == a
    assert delta_add(a, delta_inverse(a)) == zero
    assert delta_add(delta_add(a, b), c) == delta_add(a, delta_add(b, c))
    assert I + p * delta_add(a, b) == (I + p * a) @ (I + p * b)


@settings(max_examples=30)
@given(p=primes, a=st.integers(0), e1=st.integers(0, 50), e2=st.integers(0, 50))
def test_unit_power_laws(p, a, e1, e2):
    ctx = ctx_for(p)
    x = ctx.element(a)
    if not x.is_unit():
        x = x + ctx.one()
    if not x.is_unit():
        return
    assert x ** (e1 + e2) == x ** e1 * x ** e2
    assert (x ** e1).invert() == x ** (-e1) if e1 else True


def test_hypothesis_profile_is_deterministic():
    """conftest.py loads one profile: the same examples on every run and no
    example database."""
    assert settings.default.derandomize is True
    assert settings.default.database is None
    assert settings.default.deadline is None
