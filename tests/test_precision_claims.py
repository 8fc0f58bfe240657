"""Every claimed known_prec of the powers, the twists, their roots and the
analytic maps holds.

Each map is recomputed in `ctx.guarded(4)` from its input with the digits
the input does not know replaced at random (`_beyond`), and the two results
must agree on every digit the result claims; so a claim beyond what the
input determines fails.  Inputs are random, with precision K <= N.  The
claims:

- a p-th power gains one digit: x^{(p)} is known to K + 1 digits, a^e to
  K + v_p(e), each capped at N;
- Phi sees x only through p-th powers, so lambda_sl(x) and Lambda_so(x) are
  known to K + 1 digits, and Delta(x) = (Phi(x) - x^{(p)}) / p to K (at
  most N - 1, as Phi is capped at N);
- the root congruent to 1 mod p of a radicand known to K digits is known to
  K digits.  The matrix square root also has a warm step (`_sqrt_step`)
  from a start: the truth perturbed by p^c times a random matrix, known to
  c digits, so the start need not commute with the radicand, and one warm
  step gains one digit.  The n-th root, lambda_sl and Lambda_so run cold
  only;
- an input known to K digits determines exp_p(pt), log_p(1 + pt) and
  (1 + pT)^a to K digits, and an exponent a known to k digits determines
  the power to k + 1 digits.

A precision argument of `with_prec`, `assume_prec` or `eq_at` is an int >= 0;
anything else is a ParameterError.
"""

import math

import pytest

from deltalin._intmath import vp
from deltalin.errors import ParameterError
from deltalin.equations import Delta_of, EquationSpec, Lambda_so, build_q, lambda_sl
from deltalin.matrix import PMatrix, _sqrt_step, matrix_one_plus_pT_pow, matrix_sqrt_one_mod_p
from deltalin.ring import RingElement, _hensel_root, exp_p, log_p, make_context
from deltalin.sampling import Rng

GUARD = 4
DRAWS = 10
CONTEXTS = [(3, 1, 9), (5, 2, 16), (7, 1, 13), (13, 2, 7)]


def _lift(g, x):
    """The same representatives, read in the guarded context g."""
    if isinstance(x, PMatrix):
        return PMatrix.from_flat(g, x.flat, x.n)
    return g.element(x.coeffs)


def _beyond(g, rng, x):
    """x read in g with its digits from known_prec on replaced at random."""
    noise = g.p ** x.known_prec
    if isinstance(x, PMatrix):
        return _lift(g, x) + noise * rng.matrix(g, x.n)
    return _lift(g, x) + noise * rng.element(g)


def _down(ctx, x):
    """A guarded result reduced mod p^N, at full precision."""
    if isinstance(x, PMatrix):
        return PMatrix.from_flat(ctx, [c % ctx.kernel.q for c in x.flat], x.n)
    return ctx.element(x.coeffs)


def _warm_sqrt(M, start):
    """One warm square-root step from start."""
    return _sqrt_step(start, start @ start, M)[0]


def _nth_root(b, k):
    """The cold root y = 1 mod p of y^k = b, for an element b."""
    return RingElement(b.ctx, *_hensel_root(b.ctx, b.coeffs, 1, k, b.known_prec))


def _cases(ctx, rng):
    """(name, root, x, claim, warm): the cold root(x) must be known to
    claim(K) digits for x known to K; a root with a warm step has
    warm = (step, warm_claim), and step(x, start) for a start known to c
    digits must be known to warm_claim(K, c) digits.  warm is None for the
    roots that run cold only."""
    p, N = ctx.p, ctx.N
    same = lambda K: K
    gains = lambda K: min(K + 1, N)
    out = []
    for n in (2, 3):
        out.append(("sqrt", matrix_sqrt_one_mod_p, PMatrix.identity(ctx, n) + p * rng.matrix(ctx, n),
                    same, (_warm_sqrt, lambda K, c: min(K, c + 1))))
        if n % p:
            out.append(("lambda_sl", lambda_sl, rng.gl(ctx, n), gains, None))
    out.append(("nth_root", lambda b: _nth_root(b, 4), ctx.one() + p * rng.element(ctx),
                same, None))
    for variant, n in (("sp", 2), ("so_even", 2), ("so_odd", 3)):
        out.append((f"Lambda_so/{variant}",
                    lambda x, variant=variant: Lambda_so(x, build_q(x.ctx, variant, x.n)),
                    rng.gl(ctx, n), gains, None))
    return out


def _perturb(ctx, rng, truth, c):
    """truth + p^c times a random matrix, known to c digits."""
    return (truth + ctx.p ** c * rng.matrix(ctx, truth.n)).with_prec(c)


@pytest.mark.parametrize("p, m, N", CONTEXTS)
def test_claimed_precision_holds_cold_and_warm(p, m, N):
    ctx = make_context(p, m, N)
    g = ctx.guarded(GUARD)
    rng = Rng(1000 * p + 10 * m + N)
    for _ in range(DRAWS):
        for name, root, x, claim, warm in _cases(ctx, rng):
            K = 1 + rng.below(N)  # the input's precision, 1..N
            x = x.with_prec(K)
            truth = _down(ctx, root(_beyond(g, rng, x)))
            got = root(x)
            assert got.known_prec == claim(K), (name, K)
            assert got.eq_at(truth, got.known_prec), (name, K)
            if warm is None:
                continue
            step, warm_claim = warm
            for c in (1, 1 + rng.below(N)):
                got = step(x, _perturb(ctx, rng, truth, c))
                assert got.known_prec == warm_claim(K, c), (name, K, c)
                assert got.eq_at(truth, got.known_prec), (name, K, c)


@pytest.mark.parametrize("p, m, N", CONTEXTS)
def test_with_prec_never_raises_a_claim(p, m, N):
    """with_prec(k) claims min(k, known_prec), so a claim can only fall;
    assume_prec(k) is the one way up, to min(k, N).  Neither touches the
    digits."""
    ctx = make_context(p, m, N)
    rng = Rng(4000 * p + 10 * m + N)
    for x in (rng.matrix(ctx, 2), rng.element(ctx)):
        digits = x.flat
        for c in range(N + 1):
            y = x.with_prec(c)
            for k in range(N + 3):
                assert y.with_prec(k).known_prec == min(k, c), (c, k)
                assert y.with_prec(k).with_prec(N + 2).known_prec == min(k, c), (c, k)
                assert y.assume_prec(k).known_prec == min(k, N), (c, k)
                for z in (y.with_prec(k), y.assume_prec(k)):
                    assert z.flat == digits


@pytest.mark.parametrize("k", [-3, -1, 2.0, 1.5, math.inf, True, False, None, "2"])
def test_precision_arguments_are_ints_at_least_zero(k):
    """with_prec, assume_prec and eq_at refuse a precision k that is not an
    int >= 0, for an element and a matrix alike."""
    ctx = make_context(5, 2, 8)
    rng = Rng(17)
    for x in (rng.matrix(ctx, 2), rng.element(ctx)):
        for call in (lambda: x.with_prec(k), lambda: x.assume_prec(k), lambda: x.eq_at(x, k)):
            with pytest.raises(ParameterError):
                call()


_TWISTED = [("gl", None, 3), ("sl", None, 2), ("so", "sp", 2), ("so", "so_even", 2), ("so", "so_odd", 3)]


@pytest.mark.parametrize("p, m, N", CONTEXTS)
def test_p_th_powers_gain_a_digit_and_Delta_keeps_them(p, m, N):
    """For K >= 1, x^{(p)} is known to K + 1 digits, a^e to K + v_p(e), each
    capped at N, and Delta(x) to K, capped at N - 1; the guarded
    recomputation from a random completion of the input agrees on all of
    them.  At K = 0 a power stays at 0, and x^0 is the exact 1."""
    ctx = make_context(p, m, N)
    g = ctx.guarded(GUARD)
    rng = Rng(3000 * p + 10 * m + N)
    for _ in range(DRAWS):
        K = 1 + rng.below(N)  # the input's precision, 1..N
        for n in (1, 2, 3):
            x = rng.matrix(ctx, n).with_prec(K)
            got = x.pow_p_entrywise()
            assert got.known_prec == min(K + 1, N)
            assert got.eq_at(_down(ctx, _beyond(g, rng, x).pow_p_entrywise()), got.known_prec), K
        a = rng.unit(ctx).with_prec(K)
        for e in (p, -p, 2 * p, p * p, -3 * p ** 3, p + 1):
            got = a ** e
            assert got.known_prec == min(K + vp(abs(e), p), N)
            assert got.eq_at(_down(ctx, _beyond(g, rng, a) ** e), got.known_prec), (K, e)
        for kind, variant, n in _TWISTED:
            spec = EquationSpec(kind, n, PMatrix.zeros(ctx, n), variant)
            x = rng.gl(ctx, n).with_prec(K)
            got = Delta_of(spec, x)
            truth = Delta_of(EquationSpec(kind, n, PMatrix.zeros(g, n), variant), _beyond(g, rng, x))
            assert got.known_prec == min(K, N - 1)
            assert got.eq_at(_down(ctx, truth), got.known_prec), (kind, variant, K)
    assert rng.matrix(ctx, 2).with_prec(0).pow_p_entrywise().known_prec == 0
    a = rng.unit(ctx).with_prec(0)
    assert (a ** p).known_prec == (a ** -p).known_prec == 0
    assert (a ** 0).known_prec == N and a ** 0 == ctx.one()


def _exponents(ctx, rng):
    """(exponent, its claim on the power's digits given the base's K): plain
    ints of either sign, above q too, and elements of Z_p known to k digits."""
    p, N = ctx.p, ctx.N
    out = [(a, lambda K: K) for a in (0, 1, -1, p, rng.below(p ** (N + 3)), -rng.below(p ** N))]
    for _ in range(2):
        k = 1 + rng.below(N)
        a = ctx.element(rng.below(p ** N)).with_prec(k)
        out.append((a, lambda K, k=k: min(K, k + 1)))
    return out


@pytest.mark.parametrize("p, m, N", CONTEXTS)
def test_analytic_maps_claimed_precision_holds(p, m, N):
    """exp_p, log_p and (1 + pT)^a: each input is read in the guarded context
    with the digits it does not know replaced at random, and the result
    there agrees with the claimed digits."""
    ctx = make_context(p, m, N)
    g = ctx.guarded(GUARD)
    rng = Rng(2000 * p + 10 * m + N)
    for _ in range(DRAWS):
        K = 1 + rng.below(N)  # the input's precision, 1..N
        x = (p * rng.element(ctx)).with_prec(K)
        got = exp_p(x)
        assert got.known_prec >= K
        assert got.eq_at(_down(ctx, exp_p(_beyond(g, rng, x))), got.known_prec), ("exp_p", K)
        u = (ctx.one() + x).with_prec(K)
        got = log_p(u)
        assert got.known_prec >= K
        assert got.eq_at(_down(ctx, log_p(_beyond(g, rng, u))), got.known_prec), ("log_p", K)
        for n in (1, 2, 3):
            M = (PMatrix.identity(ctx, n) + p * rng.matrix(ctx, n)).with_prec(K)
            for a, claim in _exponents(ctx, rng):
                got = matrix_one_plus_pT_pow(M, a)
                if not isinstance(a, int):  # unknown digits of a Z_p exponent
                    a = _lift(g, a) + p ** a.known_prec * rng.below(p ** N)
                truth = _down(ctx, matrix_one_plus_pT_pow(_beyond(g, rng, M), a))
                assert got.known_prec >= claim(K), ("pow", K, a)
                assert got.eq_at(truth, got.known_prec), ("pow", K, a)
