import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deltalin import _residue
from deltalin._intmath import vp
from deltalin.errors import (
    AlgebraInvariantError,
    DomainError,
    NotUnitError,
    ParameterError,
    PrecisionError,
)
from deltalin.matrix import PMatrix, matrix_one_plus_pT_pow
from deltalin.ring import (
    _hensel_root,
    _newton_lift,
    exp_p,
    log_p,
    make_context,
    one_plus_pt_pow,
    psi,
)
from deltalin.sampling import Rng


# ---------------------------------------------------------------- context


@pytest.mark.parametrize("bad_p", [4, 2, 1, 9, 15, -5, True])
def test_context_rejects_bad_primes(bad_p):
    with pytest.raises(ParameterError, match="odd prime"):
        make_context(bad_p, 1, 4)


def test_context_rejects_bad_shape():
    with pytest.raises(ParameterError):
        make_context(5, 0, 4)
    with pytest.raises(ParameterError):
        make_context(5, 1, 1)
    # bool is an int subclass; True must not pass as 1
    with pytest.raises(ParameterError, match="extension degree"):
        make_context(5, True, 4)
    with pytest.raises(ParameterError, match="precision"):
        make_context(5, 1, True)


def test_context_caps():
    big_p = 2 ** 64 + 13
    for args, message in (((big_p, 1, 4), f"p={big_p}"), ((5, 9, 4), "m=9"), ((5, 1, 1025), "N=1025")):
        with pytest.raises(ParameterError, match=f"{message} exceeds the cap"):
            make_context(*args)
    top = make_context(65521, 1, 1024)
    assert top.guarded(3).N == 1027  # guard digits are not capped


def test_context_rejects_reducible_poly():
    # x^2 + 1 = (x + 2)(x + 3) over F_5
    with pytest.raises(ParameterError, match="irreducible"):
        make_context(5, 2, 4, residue_poly=[1, 0, 1])


def test_default_modulus_is_deterministic_lex_first():
    a = make_context(5, 2, 6)
    b = make_context(5, 2, 6)
    assert a.modulus == b.modulus
    # x^2 and x^2 + 1 are reducible over F_5; x^2 + 2 is the first irreducible
    assert a.modulus == (2, 0, 1)


def test_default_modulus_is_tested_once_per_p_m(monkeypatch):
    """The default modulus comes from a bounded memo; a given residue_poly and
    every guarded context keep their irreducibility test on every call."""
    assert _residue.first_irreducible.cache_info().maxsize == 32
    first = make_context(11, 3, 4)
    tests = []
    is_irreducible = _residue.is_irreducible
    monkeypatch.setattr(_residue, "is_irreducible", lambda f, p: tests.append(f) or is_irreducible(f, p))
    again = make_context(11, 3, 6)
    assert tests == [] and again.modulus[:3] == first.modulus[:3]
    assert again is not first and again.kernel is not first.kernel
    make_context(11, 3, 4, residue_poly=first.modulus)
    make_context(11, 3, 4, residue_poly=first.modulus)
    again.guarded(2)
    assert tests == [first.residue_poly] * 3


def test_modulus_root_property(c5x2):
    # modulus(frob_image) = 0 and frob_image = generator^p mod p
    k = c5x2.kernel
    y = c5x2.frob_image
    val = k.add(k.s_mul(k.s_mul(y, y), k.one), k.add(k.scal_int(4, y), k.scal_int(2, k.one)))
    assert val == k.zero
    gp = k.s_pow((0, 1), 5)
    assert k.eq_mod(y, gp, 1)


def test_frobenius_identity_on_prime_field(c5):
    rng = Rng(1)
    for _ in range(20):
        a = rng.element(c5)
        assert a.frobenius() == a


def test_frobenius_has_order_two_on_quadratic(c5x2):
    rng = Rng(2)
    for _ in range(100):
        a = rng.element(c5x2)
        assert a.frobenius().frobenius() == a


def test_frobenius_is_ring_homomorphism(c5x2):
    rng = Rng(3)
    for _ in range(100):
        a, b = rng.element(c5x2), rng.element(c5x2)
        assert (a * b).frobenius() == a.frobenius() * b.frobenius()
        assert (a + b).frobenius() == a.frobenius() + b.frobenius()


def test_frobenius_inverse_roundtrip(c5x2, c5):
    rng = Rng(4)
    for ctx in (c5x2, c5):
        for _ in range(30):
            a = rng.element(ctx)
            assert a.frobenius().frobenius_inverse() == a
            assert a.frobenius_inverse().frobenius() == a


def test_frobenius_on_teichmueller_matches_residue_power(c5x2):
    for code in range(25):
        res = (code % 5, code // 5)
        t = c5x2.teichmueller(res)
        rp = tuple(c % 5 for c in (t ** 5).coeffs)
        assert t.frobenius() == c5x2.teichmueller(rp)


# ---------------------------------------------------------------- ring ops


def test_invert_one(c5):
    assert c5.one().invert() == c5.one()


def test_invert_random_units(c5, c5x2):
    rng = Rng(5)
    for ctx in (c5, c5x2):
        for _ in range(100):
            a = rng.unit(ctx)
            assert a * a.invert() == ctx.one()


def test_invert_non_unit_raises(c5):
    with pytest.raises(NotUnitError, match="valuation"):
        c5.element(5).invert()
    with pytest.raises(NotUnitError):
        c5.zero().invert()


def test_negative_int_representative(c5):
    assert c5.element(-6).coeffs[0] == 5 ** 10 - 6


@settings(max_examples=40)
@given(a=st.integers(0, 5 ** 10 - 1), b=st.integers(0, 5 ** 10 - 1))
def test_ring_axioms_m1(a, b):
    ctx = make_context(5, 1, 10)
    x, y = ctx.element(a), ctx.element(b)
    assert x + y == y + x
    assert x * y == y * x
    assert x * (y + ctx.one()) == x * y + x
    assert x - x == ctx.zero()


# ---------------------------------------------------------------- delta


def test_delta_of_one_and_zero(c5):
    assert c5.one().delta() == c5.zero()
    assert c5.zero().delta() == c5.zero()


def test_delta_of_two_p5(c5):
    # (2 - 2^5)/5 = -6
    d = c5.element(2).delta()
    assert d == c5.element(-6)


def test_delta_of_teichmueller_vanishes(c5, c5x2):
    for g in range(5):
        assert c5.teichmueller(g).delta() == c5.zero()
    for code in range(25):
        t = c5x2.teichmueller((code % 5, code // 5))
        assert t.delta() == c5x2.zero()


def test_phi_equals_ppower_plus_p_delta(c5x2):
    rng = Rng(6)
    for _ in range(100):
        a = rng.element(c5x2)
        assert a.frobenius() == a ** 5 + 5 * a.delta()


def test_delta_product_rule(c5x2):
    # delta(ab) = a^p db + b^p da + p da db
    rng = Rng(7)
    p = 5
    for _ in range(100):
        a, b = rng.element(c5x2), rng.element(c5x2)
        lhs = (a * b).delta()
        rhs = a ** p * b.delta() + b ** p * a.delta() + p * (a.delta() * b.delta())
        assert lhs == rhs


def test_delta_sum_rule(c5):
    # delta(a+b) = da + db - sum_{i=1}^{p-1} binom(p,i)/p * a^i b^{p-i}
    rng = Rng(8)
    p = 5
    binom_over_p = [math.comb(p, i) // p for i in range(p + 1)]
    for _ in range(100):
        a, b = rng.element(c5), rng.element(c5)
        corr = c5.zero()
        for i in range(1, p):
            corr = corr + binom_over_p[i] * (a ** i * b ** (p - i))
        assert (a + b).delta() == a.delta() + b.delta() - corr


def test_delta_needs_two_digits(c5):
    with pytest.raises(PrecisionError):
        c5.element(3).with_prec(1).delta()


def test_delta_costs_one_digit(c5):
    a = c5.element(7).with_prec(6)
    assert a.delta().known_prec == 5


def test_min_precision_propagation(c5):
    a = c5.element(3).with_prec(4)
    b = c5.element(9).with_prec(7)
    assert (a * b).known_prec == 4
    assert (a + b).known_prec == 4


# ---------------------------------------------------------------- teichmueller


def test_teichmueller_fixed_points(c5):
    assert c5.teichmueller(0) == c5.zero()
    assert c5.teichmueller(1) == c5.one()


def test_teichmueller_of_two_mod_25():
    # independent oracle: Hensel-lift the root of X^4 - 1 from X = 2 mod 5
    x = 2
    for _ in range(6):
        fx = pow(x, 4, 5 ** 4) - 1
        fpx = 4 * pow(x, 3, 5 ** 4)
        x = (x - fx * pow(fpx, -1, 5 ** 4)) % 5 ** 4
    assert x % 25 == 7  # frozen
    ctx = make_context(5, 1, 4)
    t = ctx.teichmueller(2)
    assert t.coeffs[0] % 25 == 7
    assert t.coeffs[0] == x
    assert pow(7, 4, 25) == 1


def test_teichmueller_multiplicative(c5x2):
    rng = Rng(9)
    for _ in range(100):
        g = rng.unit_residue(c5x2)
        h = rng.unit_residue(c5x2)
        tg, th = c5x2.teichmueller(g), c5x2.teichmueller(h)
        assert tg * th == c5x2.teichmueller((tg * th).residue())


def test_teichmueller_image_is_fixed_set_of_qth_power(c5x2):
    pm = 25
    for code in range(25):
        t = c5x2.teichmueller((code % 5, code // 5))
        assert t ** pm == t
    # 1 + p is not fixed
    a = c5x2.element(6)
    assert a ** pm != a


@pytest.mark.parametrize("N", [2, 3, 16, 64])
@pytest.mark.parametrize("p, m", [(3, 1), (5, 2), (7, 3)])
def test_teichmueller_equals_the_qth_power_loop(p, m, N):
    """The Newton lift of every residue, 0 included, equals the reference
    loop x <- x^Q, Q = p^m, which gains one digit per step."""
    ctx = make_context(p, m, N)
    k, Q = ctx.kernel, p ** m
    for r in itertools.product(range(p), repeat=m):
        x = r
        for _ in range(N):
            x = k.s_pow(x, Q)
        assert ctx.teichmueller(r).coeffs == x, r


def test_teichmueller_lift_takes_logarithmically_many_steps():
    """One s_pow per Newton step and one for the start: 11 at N = 1024,
    where the loop x <- x^Q takes 1024."""
    ctx = make_context(13, 2, 1024)
    calls = []
    s_pow = ctx.kernel.s_pow
    ctx.kernel.s_pow = lambda a, e: calls.append(e) or s_pow(a, e)
    t = ctx.teichmueller((2, 7))
    assert len(calls) <= 11
    assert t.residue() == (2, 7) and (t ** 169).coeffs == t.coeffs


def test_newton_lift_refuses_a_start_that_is_not_a_root(c5):
    k = c5.kernel
    with pytest.raises(AlgebraInvariantError, match="not a root mod p"):
        _newton_lift(k, (1,), lambda y: (k.sub(k.s_mul(y, y), (2,)), k.scal_int(2, y)), c5.N)
    # g = p never vanishes: the steps run out
    with pytest.raises(AlgebraInvariantError, match="did not converge"):
        _newton_lift(k, (1,), lambda y: ((5,), (1,)), c5.N)


def test_teichmueller_refuses_what_element_refuses(c5x2):
    """Surplus coordinates, and an element of another ring (here one with
    another modulus), are refused, not truncated or read in this basis."""
    ctx = make_context(5, 2, 8)
    with pytest.raises(DomainError, match="at most 2 coordinates expected"):
        ctx.teichmueller((1, 2, 3))
    with pytest.raises(DomainError, match="different ring"):
        ctx.teichmueller(c5x2.teichmueller((1, 2)))
    assert ctx.teichmueller((3,)) == ctx.teichmueller(3) == ctx.teichmueller((3, 0))
    assert ctx.teichmueller(ctx.element((6, 7))) == ctx.teichmueller((1, 2))


@pytest.mark.parametrize(
    "p, m, N, d", [(7, 1, 6, 6), (13, 1, 5, 4), (5, 2, 8, 24), (5, 2, 8, 8), (3, 3, 5, 26)]
)
def test_torsion_units_are_powers_of_one_teichmueller_lift(p, m, N, d):
    ctx = make_context(p, m, N)
    units = ctx.torsion_units(d)
    assert len(units) == d and units[0] == ctx.one()
    assert len({u.residue() for u in units}) == d
    for i, u in enumerate(units):
        assert u.known_prec == N
        assert u.coeffs == ctx.teichmueller(u.residue()).coeffs
        assert u.coeffs == (units[1] ** i).coeffs
        assert (u ** d).coeffs == ctx.one().coeffs


# ---------------------------------------------------------------- constants


def test_is_constant(c5):
    assert c5.one().is_constant()
    assert not c5.element(6).is_constant()  # 1 + p
    for g in range(5):
        assert c5.teichmueller(g).is_constant()


# ---------------------------------------------------------------- exp / log


def test_exp_log_at_zero_one(c5):
    assert exp_p(c5.zero()) == c5.one()
    assert log_p(c5.one()) == c5.zero()


def test_log_of_six_mod_125():
    ctx = make_context(5, 1, 3)
    u = ctx.element(6)
    lg = log_p(u)
    assert lg.coeffs[0] == 55  # 5 - 25/2 + 125/3 truncated, frozen by hand
    assert exp_p(lg) == u


def test_log_at_one_known_digit(c5, c5x2):
    """log(1 + pt) = 0 mod p: one known digit needs no series term."""
    for ctx in (c5, c5x2):
        u = (ctx.one() + 5 * ctx.element(7)).with_prec(1)
        lg = log_p(u)
        assert lg.known_prec == 1 and lg.is_zero()
        power = one_plus_pt_pow(u, 3)
        assert power.known_prec == 1 and power == ctx.one()


def test_exp_log_roundtrip(c5, c5x2):
    rng = Rng(10)
    for ctx in (c5, c5x2):
        for _ in range(100):
            a = ctx.p * rng.element(ctx)
            assert log_p(exp_p(a)) == a
            u = ctx.one() + ctx.p * rng.element(ctx)
            assert exp_p(log_p(u)) == u


def test_exp_is_homomorphism(c5x2):
    rng = Rng(11)
    for _ in range(50):
        a = c5x2.p * rng.element(c5x2)
        b = c5x2.p * rng.element(c5x2)
        assert exp_p(a + b) == exp_p(a) * exp_p(b)


def test_exp_log_domain_errors(c5):
    with pytest.raises(DomainError):
        exp_p(c5.element(3))
    with pytest.raises(DomainError):
        log_p(c5.element(2))


def test_analytic_maps_tell_a_missing_digit_from_a_wrong_residue(c5):
    """An argument known to 0 digits is a PrecisionError for every map,
    whatever its residue; a known residue outside the domain is a
    DomainError."""
    for bad in (c5.element(2), c5.element(6)):
        with pytest.raises(PrecisionError, match="needs at least one known digit"):
            log_p(bad.with_prec(0))
        with pytest.raises(PrecisionError, match="needs at least one known digit"):
            one_plus_pt_pow(bad.with_prec(0), 3)
        with pytest.raises(PrecisionError, match="needs at least one known digit"):
            matrix_one_plus_pT_pow(PMatrix.scalar(c5, 2, bad).with_prec(0), 3)
        with pytest.raises(PrecisionError, match="needs at least one known digit"):
            exp_p((bad - 1).with_prec(0))
    two = c5.element(2).with_prec(1)
    with pytest.raises(DomainError, match="congruent to 1 mod p"):
        log_p(two)
    with pytest.raises(DomainError, match="congruent to 1 mod p"):
        one_plus_pt_pow(two, 3)
    with pytest.raises(DomainError, match="congruent to 1 mod p"):
        matrix_one_plus_pT_pow(PMatrix.scalar(c5, 2, two), 3)
    six = c5.element(6).with_prec(1)
    assert log_p(six).known_prec == 1
    assert one_plus_pt_pow(six, 3).known_prec == 1
    assert matrix_one_plus_pT_pow(PMatrix.scalar(c5, 2, six), 3).known_prec == 1


def test_exp_p3_worst_case_denominators():
    # p = 3 maximizes factorial valuations in the series
    ctx = make_context(3, 1, 12)
    rng = Rng(12)
    for _ in range(50):
        a = 3 * rng.element(ctx)
        assert log_p(exp_p(a)) == a


# ---------------------------------------------------------------- powers


def test_one_plus_pt_pow_basics(c5):
    rng = Rng(13)
    for _ in range(100):
        u = c5.one() + 5 * rng.element(c5)
        assert one_plus_pt_pow(u, 1) == u
        assert one_plus_pt_pow(u, 2) == u * u
        assert one_plus_pt_pow(u, 3) == u * u * u


def test_one_plus_pt_pow_square_root(c5x2):
    rng = Rng(14)
    half = pow(2, -1, 5 ** 8)
    for _ in range(30):
        u = c5x2.one() + 5 * rng.element(c5x2)
        r = one_plus_pt_pow(u, half)
        assert one_plus_pt_pow(r, 2) == u


def test_one_plus_pt_pow_exponent_laws(c5):
    rng = Rng(15)
    u = c5.one() + 5 * rng.element(c5)
    a, b = 7, 11
    assert one_plus_pt_pow(one_plus_pt_pow(u, a), b) == one_plus_pt_pow(u, a * b)


def test_one_plus_pt_pow_element_exponent(c5):
    u = c5.element(6)
    e = c5.element(3)
    assert one_plus_pt_pow(u, e) == u * u * u


def test_one_plus_pt_pow_domain(c5):
    with pytest.raises(DomainError):
        one_plus_pt_pow(c5.element(2), 2)


# ---------------------------------------------------------------- psi


# ---------------------------------------------------------------- Hensel root


def test_hensel_root_needs_b_one_mod_p(c5, c5x2):
    """b = 2 or b = p (times 1) is refused, for elements (n = 1) and for
    matrices; b = 1 + p t is served."""
    rng = Rng(12)
    for ctx in (c5, c5x2):
        k = ctx.kernel
        for n in (1, 3):
            one = k.m_identity(n)
            for c in (2, 5):
                with pytest.raises(DomainError, match="congruent to 1 mod p"):
                    _hensel_root(ctx, k.scal_int(c, one), n, 3, ctx.N)
            b = PMatrix.identity(ctx, n) + 5 * rng.matrix(ctx, n)
            y, K = _hensel_root(ctx, b.flat, n, 3, ctx.N)
            Y = PMatrix(ctx, n, y, K)
            assert K == ctx.N and Y @ Y @ Y == b


def test_psi_trivialities(c5, c5x2):
    assert psi(c5.one()) == c5.zero()
    for g in range(1, 5):
        assert psi(c5.teichmueller(g)) == c5.zero()
    for code in range(1, 25):
        t = c5x2.teichmueller((code % 5, code // 5))
        assert psi(t) == c5x2.zero()


def test_psi_is_homomorphism(c5x2):
    rng = Rng(16)
    for _ in range(100):
        u, v = rng.unit(c5x2), rng.unit(c5x2)
        assert psi(u * v) == psi(u) + psi(v)


def test_psi_series_oracle(c5):
    # independent series: sum (-1)^{n-1} (p^{n-1}/n) (delta u / u^p)^n
    rng = Rng(17)
    p, N = 5, 10
    for _ in range(25):
        u = rng.unit(c5)
        t = u.delta() * (u ** p).invert()
        acc = c5.zero()
        n = 1
        while n - 1 - vp(n, p) < N - 1:
            v = vp(n, p)
            coeff = c5.element(p ** (n - 1) // p ** v) * c5.element(n // p ** v).invert()
            term = coeff * t ** n
            acc = acc + term if n % 2 == 1 else acc - term
            n += 1
        assert psi(u).eq_at(acc, N - 2)


def test_psi_exp_equivalence(c5x2):
    # psi(u) = beta  <=>  phi(u) = exp_p(p*beta) * u^p
    rng = Rng(18)
    p = 5
    for _ in range(50):
        u = rng.unit(c5x2)
        beta = psi(u)
        lhs = u.frobenius()
        rhs = exp_p((p * beta).with_prec(c5x2.N)) * u ** p
        assert lhs.eq_at(rhs, c5x2.N - 1)
        # converse: build u from beta via exp and check psi recovers it
        beta2 = rng.element(c5x2)
        acc = c5x2.zero()
        pn = 1
        for k in range(1, c5x2.N):
            pn *= p
            acc = acc + pn * beta2.frobenius((-k) % 2)
        u2 = exp_p(acc)
        assert psi(u2).eq_at(beta2, c5x2.N - 1)


def test_psi_domain(c5):
    with pytest.raises(DomainError):
        psi(c5.element(5))


# ---------------------------------------------------------------- guarded exactness


def test_log_consistent_across_precisions():
    """log_p at N = 16, reduced mod 13^8, is log_p of the reduced input at N = 8."""
    hi, lo = make_context(13, 2, 16), make_context(13, 2, 8)
    q_lo = lo.kernel.q
    rng = Rng(19)
    for _ in range(10):
        u = hi.one() + 13 * rng.element(hi)
        reduced = log_p(lo.element(u.coeffs))
        assert reduced.known_prec == lo.N
        assert tuple(c % q_lo for c in log_p(u).coeffs) == reduced.coeffs


def test_residue_poly_tail_form_matches_default():
    # passing the m low coefficients is the same as passing the monic m+1 form
    a = make_context(5, 2, 6, residue_poly=[2, 0])
    b = make_context(5, 2, 6, residue_poly=[2, 0, 1])
    c = make_context(5, 2, 6)
    assert a.modulus == b.modulus == c.modulus == (2, 0, 1)


def test_frobenius_preserves_units(c5x2):
    rng = Rng(63)
    for _ in range(50):
        u = rng.unit(c5x2)
        assert u.frobenius().is_unit()
        a = 5 * rng.element(c5x2)
        assert not a.frobenius().is_unit()
