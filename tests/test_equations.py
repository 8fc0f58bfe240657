import math

import pytest

from deltalin import equations
from deltalin.equations import (
    Delta_of,
    EquationSpec,
    Lambda_so,
    Phi,
    build_q,
    frobenius_fixedness,
    lambda_sl,
    lang_map,
    prime_integral_check,
    recover_alpha,
    residual,
    solve,
    solve_scalar_closed_form,
    solve_scalar_exp,
)
from deltalin.errors import DomainError, ParameterError, PrecisionError
from deltalin.matrix import PMatrix, in_SLn, in_SOq
from deltalin.ring import make_context, one_plus_pt_pow, psi
from deltalin.sampling import Rng


# ---------------------------------------------------------------- q matrices


def test_build_q_frozen_forms(c5):
    assert build_q(c5, "sp", 2) == PMatrix.from_rows(c5, [[0, 1], [-1, 0]])
    assert build_q(c5, "so_even", 2) == PMatrix.from_rows(c5, [[0, 1], [1, 0]])
    assert build_q(c5, "so_odd", 3) == PMatrix.from_rows(
        c5, [[1, 0, 0], [0, 0, 1], [0, 1, 0]]
    )


def test_build_q_block_forms_n4(c5):
    q = build_q(c5, "sp", 4)
    assert q == PMatrix.from_rows(
        c5,
        [[0, 0, 1, 0], [0, 0, 0, 1], [-1, 0, 0, 0], [0, -1, 0, 0]],
    )


def test_build_q_fixed_by_ppower(c5):
    for variant, n in (("sp", 2), ("sp", 4), ("so_even", 2), ("so_odd", 3), ("so_odd", 5)):
        ctx = make_context(5, 1, 10) if n <= 8 else c5
        q = build_q(ctx, variant, n)
        assert q.pow_p_entrywise() == q
        assert q.delta_entrywise().is_zero()


def test_build_q_parity_errors(c5):
    with pytest.raises(ParameterError):
        build_q(c5, "sp", 3)
    with pytest.raises(ParameterError):
        build_q(c5, "so_odd", 4)
    with pytest.raises(ParameterError):
        build_q(c5, "nope", 2)


def test_spec_validation(c5):
    with pytest.raises(ParameterError, match="p must not divide n"):
        EquationSpec("sl", 5, PMatrix.zeros(c5, 5))
    with pytest.raises(ParameterError):
        EquationSpec("so", 3, PMatrix.zeros(c5, 3), "sp")
    with pytest.raises(ParameterError):
        EquationSpec("gl", 2, PMatrix.zeros(c5, 2), "sp")
    with pytest.raises(ParameterError):
        EquationSpec("so", 2, PMatrix.zeros(c5, 2))


# ---------------------------------------------------------------- twists


def test_lambda_sl_trivial_cases(c5):
    assert lambda_sl(PMatrix.identity(c5, 2)) == c5.one()
    # constant entries alone do not force lambda = 1 (the determinant picks up
    # cross terms and stops being constant); it does hold whenever det(x) is
    # itself constant, e.g. for monomial matrices with Teichmueller entries
    mono = PMatrix.from_rows(
        c5, [[c5.zero(), c5.teichmueller(2)], [c5.teichmueller(3), c5.zero()]]
    )
    assert mono.det().is_constant()
    assert lambda_sl(mono) == c5.one()
    dense = PMatrix.from_rows(
        c5, [[c5.teichmueller(1), c5.teichmueller(2)], [c5.teichmueller(3), c5.teichmueller(2)]]
    )
    assert not dense.det().is_constant()
    assert lambda_sl(dense) != c5.one()


def test_lambda_sl_defining_identity():
    # lambda(x)^n det(x^{(p)}) = det(x)^p over GL_2(Z/5^8)
    ctx = make_context(5, 1, 8)
    rng = Rng(40)
    for _ in range(50):
        x = rng.gl(ctx, 2)
        lam = lambda_sl(x)
        assert lam * lam * x.pow_p_entrywise().det() == x.det() ** 5


def test_lambda_sl_warm_step_doubles_digits(c5):
    rng = Rng(39)
    for c in (1, 2, 4):
        for _ in range(10):
            x = rng.gl(c5, 3)
            lam = lambda_sl(x)
            warm = lambda_sl(x, start=lam + 5 ** c * rng.element(c5), correct=c)
            assert warm.known_prec == min(2 * c, c5.N)
            assert warm.eq_at(lam, 2 * c)
    with pytest.raises(ParameterError):
        lambda_sl(PMatrix.identity(c5, 2), start=c5.one(), correct=0)


def test_lambda_sl_p_divides_n(c5):
    with pytest.raises(DomainError):
        lambda_sl(PMatrix.identity(c5, 5))


def test_Lambda_so_trivial_cases(c5):
    for variant, n in (("sp", 2), ("so_even", 2), ("so_odd", 3)):
        q = build_q(c5, variant, n)
        assert Lambda_so(PMatrix.identity(c5, n), q) == PMatrix.identity(c5, n)
    # a constant-entry element of Sp_2: q itself
    q = build_q(c5, "sp", 2)
    assert in_SOq(q, q)
    assert Lambda_so(q, q) == PMatrix.identity(c5, 2)


def test_Lambda_so_squaring_identity(c5):
    rng = Rng(41)
    q = build_q(c5, "sp", 2)
    for _ in range(50):
        x = rng.gl(c5, 2)
        xp = x.pow_p_entrywise()
        base = (xp.transpose() @ q @ xp).inverse() @ (x.transpose() @ q @ x).pow_p_entrywise()
        L = Lambda_so(x, q)
        assert L @ L == base


def test_phi_gl_delta_zero(c5):
    rng = Rng(42)
    spec = EquationSpec("gl", 2, PMatrix.zeros(c5, 2))
    for _ in range(10):
        x = rng.gl(c5, 2)
        assert Phi(spec, x) == x.pow_p_entrywise()
        assert Delta_of(spec, x).is_zero()


def test_phi_sl_preserves_det_one(c5):
    rng = Rng(43)
    spec = EquationSpec("sl", 2, PMatrix.zeros(c5, 2))
    for _ in range(50):
        x = rng.sl(c5, 2)
        assert Phi(spec, x).det() == c5.one()


def test_phi_so_structural_identity(c5):
    rng = Rng(44)
    for variant, n in (("sp", 2), ("so_even", 2), ("so_odd", 3)):
        q = build_q(c5, variant, n)
        spec = EquationSpec("so", n, PMatrix.zeros(c5, n), variant)
        for _ in range(30):
            x = rng.gl(c5, n)
            P = Phi(spec, x)
            assert (P.transpose() @ q @ P) == (x.transpose() @ q @ x).pow_p_entrywise()


@pytest.mark.parametrize("kind, variant, powers", [
    ("gl", None, 1),
    ("sl", None, 1),
    ("so", "sp", 2),  # x^(p) and (x^t q x)^(p)
])
def test_phi_computes_x_to_the_p_once(monkeypatch, kind, variant, powers):
    ctx = make_context(7, 1, 8)  # its own kernel, patched below
    spec = EquationSpec(kind, 2, PMatrix.zeros(ctx, 2), variant)
    x = Rng(45).gl(ctx, 2)
    expected = Phi(spec, x)
    calls = []
    m_powp = ctx.kernel.m_powp
    monkeypatch.setattr(ctx.kernel, "m_powp", lambda A: calls.append(A) or m_powp(A))
    assert Phi(spec, x) == expected
    assert len(calls) == powers


def test_lambda_sl_inverts_once(monkeypatch):
    """The radicand det(x)^p / det(x^(p)) of lambda_sl costs one s_inv."""
    ctx = make_context(7, 2, 8)  # its own kernel, patched below
    x = Rng(46).gl(ctx, 3)
    calls = []
    s_inv = ctx.kernel.s_inv
    monkeypatch.setattr(ctx.kernel, "s_inv", lambda a: calls.append(a) or s_inv(a))
    monkeypatch.setattr(equations, "_nth_root_one_mod_p", lambda base, *args: base)
    radicand = lambda_sl(x)
    assert len(calls) == 1
    assert radicand * x.pow_p_entrywise().det() == x.det() ** 7
    assert radicand.known_prec == ctx.N


# ---------------------------------------------------------------- solver


def test_solve_alpha_zero_identity(c5):
    spec = EquationSpec("gl", 2, PMatrix.zeros(c5, 2))
    rep = solve(spec, PMatrix.identity(c5, 2))
    assert rep.solution == PMatrix.identity(c5, 2)
    assert rep.residual_valuation == math.inf
    assert rep.iterations == c5.N


def test_solve_alpha_zero_gives_teichmueller_lift(c5):
    spec = EquationSpec("gl", 2, PMatrix.zeros(c5, 2))
    u0 = PMatrix.from_rows(c5, [[1, 2], [3, 2]])
    rep = solve(spec, u0)
    lift = PMatrix.from_rows(
        c5,
        [[c5.teichmueller(1), c5.teichmueller(2)], [c5.teichmueller(3), c5.teichmueller(2)]],
    )
    assert rep.solution == lift
    assert rep.solution.delta_entrywise().is_zero()


def test_solve_scalar_quartic_oracle():
    # p=5, alpha=1 (eps=6), u0=1: the solution is the unique unit u = 1 mod 5
    # with 6 u^4 = 1; Newton on 6u^4 - 1 = 0 over plain integers is the oracle
    N = 12
    q = 5 ** N
    u = 1
    for _ in range(6):
        f = (6 * pow(u, 4, q) - 1) % q
        fp = (24 * pow(u, 3, q)) % q
        u = (u - f * pow(fp, -1, q)) % q
    assert (6 * pow(u, 4, q)) % q == 1

    ctx = make_context(5, 1, N)
    spec = EquationSpec("gl", 1, PMatrix.from_rows(ctx, [[1]]))
    rep = solve(spec, PMatrix.identity(ctx, 1))
    assert rep.solution.entry(0, 0).coeffs[0] == u
    assert rep.solution.entry(0, 0) == one_plus_pt_pow(ctx.element(6), pow(-4, -1, q))


def test_solve_rejects_singular_u0(c5):
    spec = EquationSpec("gl", 2, PMatrix.zeros(c5, 2))
    with pytest.raises(DomainError, match="singular"):
        solve(spec, PMatrix.from_rows(c5, [[1, 2], [3, 1]]))  # det = -5


def test_solve_requires_full_precision_alpha(c5):
    alpha = PMatrix.from_rows(c5, [[1, 0], [0, 1]], prec=5)
    spec = EquationSpec("gl", 2, alpha)
    with pytest.raises(PrecisionError):
        solve(spec, PMatrix.identity(c5, 2))


def test_residual_nonzero_off_solution(c5):
    rng = Rng(45)
    spec = EquationSpec("gl", 2, rng.matrix(c5, 2))
    u0 = rng.gl(c5, 2)
    r = residual(spec, u0)
    assert 1 <= r.valuation() < c5.N  # all residuals vanish mod p


_SOLVER_CELLS = (
    ("gl", None, 1), ("gl", None, 2), ("gl", None, 3),
    ("sl", None, 1), ("sl", None, 2), ("sl", None, 3),
    ("so", "sp", 2), ("so", "so_even", 2), ("so", "so_odd", 3),
)


@pytest.mark.parametrize("p,m", [(5, 1), (7, 2)])
def test_solve_matches_cold_reference_loop(p, m):
    # The reference recomputes every twist from scratch at full precision
    # through the public Phi; solve carries its roots from step to step.
    ctx = make_context(p, m, 10)
    rng = Rng(100 * p + m)
    for kind, variant, n in _SOLVER_CELLS:
        spec = EquationSpec(kind, n, rng.matrix(ctx, n), variant)
        u0 = rng.gl(ctx, n)
        eps = spec.epsilon()
        u = u0
        for _ in range(ctx.N):
            u = (eps @ Phi(spec, u)).frobenius_inverse_entrywise()
        rep = solve(spec, u0)
        assert rep.solution.flat == u.flat, (kind, variant, n)
        assert rep.solution.known_prec == u.known_prec == ctx.N
        assert rep.residual_valuation == math.inf


def _reduce(ctx, M):
    return PMatrix.from_flat(ctx, [c % ctx.kernel.q for c in M.flat], M.n)


@pytest.mark.parametrize("p,m", [(5, 1), (7, 2)])
def test_solve_is_consistent_across_precisions(p, m):
    hi, lo = make_context(p, m, 16), make_context(p, m, 8)
    rng = Rng(200 * p + m)
    for kind, variant, n in _SOLVER_CELLS:
        spec = EquationSpec(kind, n, rng.matrix(hi, n), variant)
        u0 = rng.gl(hi, n)
        low_spec = EquationSpec(kind, n, _reduce(lo, spec.alpha), variant)
        high = solve(spec, u0).solution
        low = solve(low_spec, _reduce(lo, u0)).solution
        assert _reduce(lo, high).flat == low.flat, (kind, variant, n)


def test_uniqueness_under_perturbation(c7):
    rng = Rng(46)
    spec = EquationSpec("gl", 2, rng.matrix(c7, 2))
    u0 = rng.gl(c7, 2)
    s1 = solve(spec, u0).solution
    s2 = solve(spec, u0 + 7 * rng.matrix(c7, 2)).solution
    assert s1 == s2  # identical at full precision N


def test_convergence_one_digit_per_iteration(c7):
    rng = Rng(47)
    spec = EquationSpec("sl", 2, rng.sl_delta_alpha(c7, 2))
    rep = solve(spec, rng.sl(c7, 2), keep_iterates=True)
    for k in range(c7.N):
        assert rep.iterates[k].eq_at(rep.solution, min(k + 1, c7.N))


def test_sl_preservation(c7):
    rng = Rng(48)
    for n in (2, 3):
        for _ in range(10):
            spec = EquationSpec("sl", n, rng.sl_delta_alpha(c7, n))
            rep = solve(spec, rng.sl(c7, n))
            assert rep.residual_valuation == math.inf
            assert in_SLn(rep.solution)
            name, value, dvalue = rep.integral_values[0]
            assert name == "det" and dvalue.is_zero()


def test_so_preservation_all_variants(c7):
    rng = Rng(49)
    for variant, n in (("sp", 2), ("so_even", 2), ("so_odd", 3), ("sp", 4)):
        q = build_q(c7, variant, n)
        for _ in range(5):
            spec = EquationSpec("so", n, rng.so_delta_alpha(c7, n, variant), variant)
            rep = solve(spec, rng.so(c7, n, variant))
            assert rep.residual_valuation == math.inf
            assert in_SOq(rep.solution, q)
            name, value, dvalue = rep.integral_values[0]
            assert name == "xtqx" and dvalue.is_zero()
            assert value == q


def test_prime_integral_check_dispatch(c5):
    rng = Rng(50)
    gl_spec = EquationSpec("gl", 2, PMatrix.zeros(c5, 2))
    assert prime_integral_check(gl_spec, rng.gl(c5, 2)) == []
    sl_spec = EquationSpec("sl", 2, rng.sl_delta_alpha(c5, 2))
    u = solve(sl_spec, rng.sl(c5, 2)).solution
    [(name, d)] = prime_integral_check(sl_spec, u)
    assert name == "det" and d.is_zero()


def test_prime_integral_constant_even_off_group(c5):
    # alpha in sl_delta makes det a prime integral for every solution,
    # whether or not u0 lies in SL_n: delta(det u) = 0 and det is a constant
    rng = Rng(51)
    spec = EquationSpec("sl", 2, rng.sl_delta_alpha(c5, 2))
    u = solve(spec, rng.gl(c5, 2)).solution
    d = u.det()
    assert d.delta().is_zero()
    assert d.is_constant()


# ---------------------------------------------------------------- rationality


def test_rationality_subring_inputs(c5x2):
    rng = Rng(52)
    for kind, variant, n in (("gl", None, 2), ("sl", None, 2), ("so", "sp", 2)):
        alpha = rng.matrix_subring(c5x2, n)
        spec = EquationSpec(kind, n, alpha, variant)
        rep = solve(spec, rng.gl(c5x2, n, subring=True))
        assert rep.residual_valuation == math.inf
        assert frobenius_fixedness(rep.solution, 1)
        assert rep.fixedness == 1


def test_fixedness_trivialities(c5x2):
    rng = Rng(53)
    u = rng.gl(c5x2, 2)
    assert frobenius_fixedness(u, 2)  # phi has order m = 2
    g = PMatrix.from_rows(c5x2, [[c5x2.generator(), c5x2.zero()], [c5x2.zero(), c5x2.one()]])
    assert not frobenius_fixedness(g, 1)
    with pytest.raises(ParameterError):
        frobenius_fixedness(u, 3)


# ---------------------------------------------------------------- recover / lang


def test_recover_alpha_teichmueller_is_zero(c5):
    t = PMatrix.from_rows(
        c5, [[c5.teichmueller(1), c5.teichmueller(2)], [c5.teichmueller(3), c5.teichmueller(2)]]
    )
    assert recover_alpha(t, "gl").is_zero()


def test_recover_alpha_roundtrip(c5):
    rng = Rng(54)
    for kind, variant in (("gl", None), ("sl", None), ("so", "sp")):
        alpha = rng.matrix(c5, 2)
        spec = EquationSpec(kind, 2, alpha, variant)
        u = solve(spec, rng.gl(c5, 2)).solution
        rec = recover_alpha(u, kind, variant)
        assert rec.known_prec == c5.N - 1
        assert rec.eq_at(alpha, c5.N - 1)


def test_recover_alpha_scalar_specialization(c5):
    rng = Rng(55)
    u = rng.unit(c5)
    U = PMatrix.from_rows(c5, [[u]])
    rec = recover_alpha(U, "gl")
    expected = u.delta() * (u ** 5).invert()
    assert rec.entry(0, 0) == expected


def test_lang_map(c5):
    t = PMatrix.from_rows(
        c5, [[c5.teichmueller(1), c5.teichmueller(2)], [c5.teichmueller(3), c5.teichmueller(2)]]
    )
    assert lang_map(t) == PMatrix.identity(c5, 2)
    rng = Rng(56)
    alpha = rng.matrix(c5, 2)
    spec = EquationSpec("gl", 2, alpha)
    u = solve(spec, rng.gl(c5, 2)).solution
    assert lang_map(u) == spec.epsilon()
    # n = 1 over m = 1: lang_map(a) = a^{1-p}
    a = rng.unit(c5)
    assert lang_map(PMatrix.from_rows(c5, [[a]])).entry(0, 0) == a ** -4


# ---------------------------------------------------------------- scalar forms


def test_closed_form_epsilon_one(c5):
    z = c5.teichmueller(3)
    assert solve_scalar_closed_form(z, c5.one()) == z


def test_closed_form_rejects_nonconstant_zeta(c5):
    with pytest.raises(DomainError):
        solve_scalar_closed_form(c5.element(6), c5.one())


def test_closed_form_m1_geometric_exponent(c5):
    # with phi = id the product telescopes to zeta * eps^{-1/(p-1)}
    rng = Rng(57)
    for _ in range(20):
        z = c5.teichmueller(2)
        eps = c5.one() + 5 * rng.element(c5)
        u = solve_scalar_closed_form(z, eps)
        expected = z * one_plus_pt_pow(eps, pow(-(5 - 1), -1, 5 ** 10))
        assert u == expected


def test_closed_form_matches_solver(c5x2):
    rng = Rng(58)
    for _ in range(50):
        z = c5x2.teichmueller(rng.unit_residue(c5x2))
        alpha = rng.element(c5x2)
        eps = c5x2.one() + 5 * alpha
        u_cf = solve_scalar_closed_form(z, eps)
        spec = EquationSpec("gl", 1, PMatrix.from_rows(c5x2, [[alpha]]))
        u_solver = solve(spec, PMatrix.from_rows(c5x2, [[z]])).solution.entry(0, 0)
        assert u_cf == u_solver


def test_exp_form_beta_zero(c5):
    z = c5.teichmueller(4)
    assert solve_scalar_exp(z, c5.zero()) == z


def test_exp_form_psi_inverse(c5x2):
    rng = Rng(59)
    for _ in range(50):
        beta = rng.element(c5x2)
        u = solve_scalar_exp(c5x2.one(), beta)
        assert psi(u).eq_at(beta, c5x2.N - 1)


def test_exp_form_agrees_with_closed_form(c5):
    from deltalin.ring import exp_p

    rng = Rng(60)
    for _ in range(25):
        z = c5.teichmueller(2)
        beta = rng.element(c5)
        eps = exp_p((5 * beta).with_prec(c5.N))
        u1 = solve_scalar_exp(z, beta)
        u2 = solve_scalar_closed_form(z, eps)
        assert u1.eq_at(u2, c5.N - 1)


def test_delta_of_has_the_twisted_product_form(c5):
    # sl: Delta(x) = ((lambda(x) - 1)/p) * x^{(p)};  so: x^{(p)} * ((Lambda - 1)/p)
    rng = Rng(61)
    spec_sl = EquationSpec("sl", 2, PMatrix.zeros(c5, 2))
    for _ in range(20):
        x = rng.gl(c5, 2)
        lam = lambda_sl(x)
        scale = c5.element(tuple(c // 5 for c in (lam - c5.one()).coeffs), prec=c5.N - 1)
        assert Delta_of(spec_sl, x) == scale * x.pow_p_entrywise()

    spec_so = EquationSpec("so", 2, PMatrix.zeros(c5, 2), "sp")
    q = build_q(c5, "sp", 2)
    for _ in range(20):
        x = rng.gl(c5, 2)
        L = Lambda_so(x, q)
        diff = (L - PMatrix.identity(c5, 2)).exact_div_p()
        assert Delta_of(spec_so, x) == x.pow_p_entrywise() @ diff


def test_delta_lie_algebras_closed_under_delta_add(c5):
    from deltalin.matrix import delta_add, in_sl_delta, in_so_delta

    rng = Rng(62)
    for _ in range(20):
        a, b = rng.sl_delta_alpha(c5, 2), rng.sl_delta_alpha(c5, 2)
        assert in_sl_delta(delta_add(a, b))
    q = build_q(c5, "so_even", 2)
    for _ in range(20):
        a, b = rng.so_delta_alpha(c5, 2, "so_even"), rng.so_delta_alpha(c5, 2, "so_even")
        assert in_so_delta(delta_add(a, b), q)
