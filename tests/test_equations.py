import dataclasses
import inspect
import math

import pytest

from deltalin import equations
from deltalin._kernel import PureKernel
from deltalin.acceptance import _Session, contraction
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
    residual_valuation,
    solve,
    solve_scalar_closed_form,
    solve_scalar_exp,
)
from deltalin.errors import AlgebraInvariantError, DomainError, ParameterError, PrecisionError
from deltalin.galois import GuChecker
from deltalin.matrix import PMatrix, in_SLn, in_SOq, matrix_sqrt_one_mod_p
from deltalin.ring import RingElement, _hensel_root, make_context, one_plus_pt_pow, psi
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


@pytest.mark.parametrize("alpha, name", [
    ("x", "str"),
    (None, "NoneType"),
    (make_context(5, 1, 10).element(3), "RingElement"),
    ([[0, 1], [1, 0]], "list"),
])
def test_spec_wants_a_matrix_alpha(alpha, name):
    """An alpha that is not a PMatrix is a ParameterError naming its type:
    before, "x" and None raised AttributeError on alpha.ctx."""
    with pytest.raises(ParameterError, match=f"alpha must be a PMatrix, got a {name}$"):
        EquationSpec("gl", 2, alpha)


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
    monkeypatch.setattr(equations, "_hensel_root", lambda ctx, b, n, k, K: (b, K))
    radicand = lambda_sl(x)
    assert len(calls) == 1
    assert radicand * x.pow_p_entrywise().det() == x.det() ** 7
    assert radicand.known_prec == ctx.N


@pytest.mark.parametrize("K", [16, 9])
def test_cold_roots_take_a_closed_form_step(monkeypatch, K):
    """A cold root at K digits is the closed-form step from 1, (1 + M)/2 or
    1 + (base - 1)/n, then bitlen(K-1) - 1 Newton steps of one solve or one
    inversion each: 3 at K = 16, where the Newton loop from 1 took 5.  It
    agrees with that loop at K digits, and at K = N bit for bit."""
    ctx = make_context(7, 2, 16)  # its own kernel, patched below
    rng = Rng(47)
    one = PMatrix.identity(ctx, 3)
    M = (one + 7 * rng.matrix(ctx, 3)).with_prec(K)
    base = (ctx.one() + 7 * rng.element(ctx)).with_prec(K)
    loop_steps = (K - 1).bit_length() + 1
    half = pow(2, -1, ctx.kernel.q)
    Y, y = one, ctx.one()
    for _ in range(loop_steps):
        Y = half * (Y + Y.solve(M))
        y = y - (y ** 3 - base) * (ctx.element(3) * y ** 2).invert()

    solves, inversions = [], []
    m_solve, s_inv = ctx.kernel.m_solve, ctx.kernel.s_inv
    monkeypatch.setattr(ctx.kernel, "m_solve", lambda A, B, n: solves.append(A) or m_solve(A, B, n))
    monkeypatch.setattr(ctx.kernel, "s_inv", lambda a: inversions.append(a) or s_inv(a))
    S = matrix_sqrt_one_mod_p(M)
    assert len(solves) == (K - 1).bit_length() - 1
    inversions.clear()
    r = RingElement(ctx, *_hensel_root(ctx, base.coeffs, 1, 3, base.known_prec))
    assert len(inversions) == (K - 1).bit_length() - 1
    assert S.known_prec == r.known_prec == K
    assert S == Y and r == y
    if K == ctx.N:
        assert S.flat == Y.flat and r.coeffs == y.coeffs


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
    alpha = PMatrix.from_rows(c5, [[1, 0], [0, 1]]).with_prec(5)
    spec = EquationSpec("gl", 2, alpha)
    with pytest.raises(PrecisionError):
        solve(spec, PMatrix.identity(c5, 2))


def test_residual_nonzero_off_solution(c5):
    rng = Rng(45)
    spec = EquationSpec("gl", 2, rng.matrix(c5, 2))
    u0 = rng.gl(c5, 2)
    r = residual(spec, u0)
    assert 1 <= r.valuation() < c5.N  # all residuals vanish mod p


def _outcome(f, *args):
    """f(*args), or the type and message of the error it raises."""
    try:
        return f(*args)
    except DomainError as exc:
        return type(exc), str(exc)


_DIFFERENTIAL_CELLS = (
    ("gl", None, 1), ("gl", None, 3),
    ("sl", None, 1), ("sl", None, 2), ("sl", None, 3),
    ("so", "sp", 2), ("so", "sp", 4), ("so", "so_even", 2), ("so", "so_odd", 3),
)


@pytest.mark.parametrize("p, m, N", [(5, 1, 7), (3, 2, 6), (7, 3, 4)])
def test_residual_valuation_matches_the_residual(p, m, N):
    """The root-free valuation equals the residual's on solutions, on
    solutions off by p^j X for every j < N, on random GL_n, on a matrix
    singular mod p (the same error for sl and so) and on inputs known to
    fewer than N digits."""
    ctx = make_context(p, m, N)
    rng = Rng(400 * p + m)
    for kind, variant, n in _DIFFERENTIAL_CELLS:
        if kind == "sl" and n % p == 0:
            continue
        spec = EquationSpec(kind, n, rng.matrix(ctx, n), variant)
        u = solve(spec, rng.gl(ctx, n)).solution
        singular = PMatrix.from_rows(ctx, [[p * e for e in u.rows()[0]]] + u.rows()[1:])
        inputs = [u, rng.gl(ctx, n), rng.gl(ctx, n), singular]
        inputs += [u + p ** j * rng.matrix(ctx, n) for j in range(N)]
        inputs += [x.with_prec(k) for x in inputs[:2] + inputs[-2:] for k in (0, 1, N // 2, N - 1)]
        for x in inputs:
            expected = _outcome(lambda y: residual(spec, y).valuation(), x)
            assert _outcome(residual_valuation, spec, x) == expected, (kind, variant, n, x)
        assert residual_valuation(spec, u) == math.inf
        for j in range(1, N):
            assert residual_valuation(spec, u + p ** j * rng.gl(ctx, n)) == j, (kind, variant, j)


def _so_step_inputs(rng, u, q):
    """The flats A and C of the radicand M = A^{-1} C of Lambda_so(u), and
    a W equal to (2A)^{-1} only mod p: the inverse of 2(A + p R), R random."""
    ctx = u.ctx
    A, C = u.pow_p_entrywise().form(q), u.form(q).pow_p_entrywise()
    W = (2 * (A + ctx.p * rng.matrix(ctx, u.n))).inverse()
    return A.flat, C.flat, W.flat


def test_so_solver_roots_take_no_solve(monkeypatch):
    """A warm so root step is four products and no elimination
    (`_so_root_step`), and an so solve makes three eliminations at any N:
    the one inverse of 2 A_0 that gives every step its W, and two for the
    residual's radicand and its L; u0's invertibility check is a
    determinant (`in_GLn`), no solve.  With one radicand elimination per
    step it made N + 2, and with a Newton step per warm root and a cold
    residual root it was 38 at N = 16."""
    rng = Rng(48)
    for N in (16, 37):
        ctx = make_context(7, 2, N)  # its own kernel, patched below
        calls = {"m_solve": 0, "m_inv": 0, "m_mul": 0}
        for name in calls:
            op = getattr(ctx.kernel, name)
            monkeypatch.setattr(ctx.kernel, name,
                                lambda *a, op=op, name=name: calls.__setitem__(name, calls[name] + 1) or op(*a))
        u, q = rng.gl(ctx, 3), build_q(ctx, "so_odd", 3)
        S = Lambda_so(u, q)
        start = S + 7 ** 5 * rng.matrix(ctx, 3)
        A, C, W = _so_step_inputs(rng, u, q)
        Y2 = (start @ start).flat
        calls.update(m_solve=0, m_inv=0, m_mul=0)
        Y, _, claim = equations._so_root_step(ctx.kernel, 3, A, C, W, start.flat, Y2, N, 5)
        assert calls == {"m_solve": 0, "m_inv": 0, "m_mul": 4}  # A Y^2, W R, the square, the check
        assert claim == 6 and PMatrix(ctx, 3, Y, claim).eq_at(S, 6)
        for variant, n in (("sp", 2), ("so_odd", 3)):
            spec = EquationSpec("so", n, rng.matrix(ctx, n), variant)
            u0 = rng.gl(ctx, n)
            calls.update(m_solve=0, m_inv=0, m_mul=0)
            rep = solve(spec, u0)
            assert calls["m_inv"] == 1, (N, variant)
            assert calls["m_solve"] == 3, (N, variant)  # m_inv's elimination is one of them
            assert rep.residual_valuation == math.inf


def test_so_root_step_gains_one_digit(c5):
    """From a start correct to c digits that does not commute with the
    radicand, and with W = (2A)^{-1} only mod p, one step is correct to
    c + 1 digits, and in general not to more."""
    rng = Rng(33)
    q = build_q(c5, "sp", 2)
    for c in (1, 2, 4, 8):
        short_by_one = 0
        for _ in range(10):
            u = rng.gl(c5, 2)
            S = Lambda_so(u, q)
            start = S + 5 ** c * rng.matrix(c5, 2)
            Y, _, claim = equations._so_root_step(
                c5.kernel, 2, *_so_step_inputs(rng, u, q), start.flat, (start @ start).flat, c5.N, c
            )
            assert claim == min(c + 1, c5.N)
            Y = PMatrix(c5, 2, Y, claim)
            assert Y.eq_at(S, c + 1)
            short_by_one += not Y.eq_at(S, c + 2)
        if c + 2 <= c5.N:
            assert short_by_one > 0


def test_so_solve_certifies_each_warm_root(monkeypatch):
    """solve trusts W = (2 A_0)^{-1} only through the check A Y^2 = C: with
    W wrong mod p (A_0^{-1}, from a patched m_inv), a step gains no digit,
    and solve raises AlgebraInvariantError where it returned the solution."""
    rng = Rng(49)
    for m in (1, 2):
        ctx = make_context(7, m, 8)  # its own kernel, patched below
        for variant, n in (("sp", 2), ("so_even", 2), ("so_odd", 3)):
            spec = EquationSpec("so", n, rng.matrix(ctx, n), variant)
            u0 = rng.gl(ctx, n)
            assert solve(spec, u0).residual_valuation == math.inf
            with monkeypatch.context() as patch:
                inv = ctx.kernel.m_inv
                patch.setattr(ctx.kernel, "m_inv", lambda a, n: ctx.kernel.scal_int(2, inv(a, n)))
                with pytest.raises(AlgebraInvariantError):
                    solve(spec, u0)


_SOLVER_CELLS = (
    ("gl", None, 1), ("gl", None, 2), ("gl", None, 3),
    ("sl", None, 1), ("sl", None, 2), ("sl", None, 3),
    ("so", "sp", 2), ("so", "so_even", 2), ("so", "so_odd", 3),
)


@pytest.mark.parametrize("p,m", [(5, 1), (7, 2)])
def test_solve_matches_cold_reference_loop(p, m):
    # The reference is acceptance's contraction, which recomputes every
    # twist from scratch through the public Phi; solve carries its roots
    # from step to step and solves sl as gl times a scalar.
    ctx = make_context(p, m, 10)
    rng = Rng(100 * p + m)
    for kind, variant, n in _SOLVER_CELLS:
        spec = EquationSpec(kind, n, rng.matrix(ctx, n), variant)
        u0 = rng.gl(ctx, n)
        *_, u = contraction(spec, u0)
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


def _warm_nth_root(base, n, start, correct):
    """One Newton step of y^n = base from a start correct to `correct`
    digits: the result is correct to min(K, 2 * correct) digits."""
    K = min(base.known_prec, 2 * correct)
    y_n1 = start ** (n - 1)
    y = start - (y_n1 * start - base) * (base.ctx.element(n) * y_n1).invert()
    assert (y ** n).eq_at(base, K)
    return y.assume_prec(K)


def _sl_fixed_point_loop(spec, u0):
    """The sl fixed-point loop u <- phi^{-1}(eps lambda(u) u^{(p)}), N steps,
    with lambda at step k one Newton step from the previous step's lambda:
    the twist computed inside the loop, as solve does for so."""
    ctx = spec.ctx
    eps = spec.epsilon()
    u, lam = u0, ctx.one()
    for k in range(ctx.N):
        xp = u.pow_p_entrywise()
        lam = _warm_nth_root(u.det() ** ctx.p * xp.det().invert(), spec.n, lam, k + 1)
        u = (eps @ (lam * xp)).frobenius_inverse_entrywise().assume_prec(ctx.N)
    return u


@pytest.mark.parametrize("p", [3, 5, 7, 13])
def test_sl_solve_matches_the_fixed_point_loop(p):
    """solve runs sl as the gl loop times a scalar; the sl loop with its warm
    lambda is the oracle, bit for bit, for unstructured and sl-type alpha."""
    rng = Rng(300 + p)
    for m in (1, 2, 3):
        for N in (2, 3, 16, 37, 64):
            ctx = make_context(p, m, N)
            for n in (1, 2, 3, 4):
                if n % p == 0:
                    continue
                for alpha in (rng.matrix(ctx, n), rng.sl_delta_alpha(ctx, n)):
                    spec = EquationSpec("sl", n, alpha)
                    u0 = rng.gl(ctx, n)
                    expected = _sl_fixed_point_loop(spec, u0)
                    got = solve(spec, u0).solution
                    assert got.flat == expected.flat, (m, N, n)
                    assert got.known_prec == expected.known_prec == N


def _so_fixed_point_loop(spec, u0):
    """The so fixed-point loop u <- phi^{-1}(eps u^{(p)} Lambda(u)), N steps,
    through public PMatrix ops with a cold Lambda_so at every step: no
    carried root, no W and no flat loop, so it shares no part of solve's."""
    eps, q = spec.epsilon(), spec.q_matrix()
    u = u0.assume_prec(1)
    for _ in range(spec.ctx.N):
        u = (eps @ (u.pow_p_entrywise() @ Lambda_so(u, q))).frobenius_inverse_entrywise()
    return u


@pytest.mark.parametrize("p, m", [(13, 1), (7, 2), (3, 3)])
def test_so_solve_matches_the_fixed_point_loop(p, m):
    """solve's so loop, with its warm root from one W per solve, equals the
    loop with a cold root at every step, bit for bit in flat and
    known_prec, for unstructured and so-type alpha."""
    rng = Rng(400 + p)
    for N in (2, 3, 16, 37):
        ctx = make_context(p, m, N)
        for variant, n in (("sp", 2), ("so_even", 2), ("so_odd", 3)):
            for alpha in (rng.matrix(ctx, n), rng.so_delta_alpha(ctx, n, variant)):
                spec = EquationSpec("so", n, alpha, variant)
                u0 = rng.gl(ctx, n)
                expected = _so_fixed_point_loop(spec, u0)
                got = solve(spec, u0).solution
                assert got.flat == expected.flat, (variant, N)
                assert got.known_prec == expected.known_prec == N


def test_lambda_sl_is_blind_to_scalar_factors():
    """lambda(c x) = lambda(x) for a unit c: det(x^{(p)}) / det(x)^p gains
    c^{pn} / c^{np}."""
    rng = Rng(51)
    for p, m, N in ((3, 1, 12), (5, 2, 10), (13, 2, 8)):
        ctx = make_context(p, m, N)
        for n in (1, 2, 4):
            if n % p == 0:
                continue
            for _ in range(5):
                x, c = rng.gl(ctx, n), rng.unit(ctx)
                lam, scaled = lambda_sl(x), lambda_sl(x * c)
                assert scaled.coeffs == lam.coeffs
                assert scaled.known_prec == lam.known_prec == N


def test_sl_solution_is_the_gl_solution_times_a_scalar():
    """The sl solution u is c w for w the gl solution from the same u0, with
    c = 1 mod p and phi(c) = lambda(w) c^p."""
    rng = Rng(52)
    for p, m, N in ((3, 1, 12), (7, 2, 10), (13, 3, 8)):
        ctx = make_context(p, m, N)
        for n in (1, 2, 3):
            if n % p == 0:
                continue
            for alpha in (rng.matrix(ctx, n), rng.sl_delta_alpha(ctx, n)):
                u0 = rng.gl(ctx, n)
                w = solve(EquationSpec("gl", n, alpha), u0).solution
                u = solve(EquationSpec("sl", n, alpha), u0).solution
                i, j = next((i, j) for i in range(n) for j in range(n) if w.entry(i, j).is_unit())
                c = u.entry(i, j) * w.entry(i, j).invert()
                assert c.eq_at(ctx.one(), 1)
                assert c.frobenius() == lambda_sl(w) * c ** p
                assert c.known_prec == N
                assert (w * c).flat == u.flat


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
    u0 = rng.sl(c7, 2)
    solution = solve(spec, u0).solution
    for k, u in enumerate(contraction(spec, u0)):
        assert u.eq_at(solution, min(k + 1, c7.N))


@pytest.mark.parametrize("m", [1, 2])
def test_iterates_carry_their_digits_in_known_prec(m):
    """Iterate k of the contraction is known to min(k + 1, N) digits and
    agrees with solve's solution on them, and the solution is known to N:
    the precision comes from the p-th power rule alone, with no override in
    the contraction or the solver."""
    ctx = make_context(5, m, 9)
    rng = Rng(60 + m)
    cells = (("gl", None, 3), ("sl", None, 2), ("so", "sp", 4), ("so", "so_even", 2), ("so", "so_odd", 3))
    for kind, variant, n in cells:
        spec = EquationSpec(kind, n, rng.matrix(ctx, n), variant)
        u0 = rng.gl(ctx, n)
        rep = solve(spec, u0)
        iterates = list(contraction(spec, u0))
        assert rep.iterations == ctx.N and len(iterates) == ctx.N + 1
        assert rep.solution.known_prec == ctx.N
        for k, u in enumerate(iterates):
            assert u.known_prec == min(k + 1, ctx.N), (kind, variant, k)
            assert u.eq_at(rep.solution, u.known_prec), (kind, variant, k)


def test_no_precision_side_arguments_remain():
    """Trusted digits travel in known_prec only: no solver, twist, root or
    membership test takes a precision of its own."""
    for f in (solve, Phi, Delta_of, lambda_sl, Lambda_so, matrix_sqrt_one_mod_p, GuChecker.__call__):
        assert not {"correct", "prec"} & set(inspect.signature(f).parameters), f.__name__
    assert not hasattr(equations, "_phi_kind")


def test_solver_contract_has_no_options():
    """solve, the square root, the kernel's matrix product and the
    acceptance suite's context cache take no options, and the report
    carries the solution and its diagnostics, not the solver's iterates."""
    signatures = {
        solve: "(spec, u0)",
        matrix_sqrt_one_mod_p: "(M)",
        PureKernel.m_mul: "(self, A, B, n)",
        _Session.ctx: "(self, p, m)",
    }
    for f, expected in signatures.items():
        assert str(inspect.signature(f)) == expected, f.__name__
    assert [f.name for f in dataclasses.fields(equations.SolveReport)] == [
        "solution", "iterations", "residual_valuation", "integral_values", "fixedness",
    ]


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
    assert prime_integral_check(gl_spec, rng.gl(c5, 2)) == ()
    sl_spec = EquationSpec("sl", 2, rng.sl_delta_alpha(c5, 2))
    u = solve(sl_spec, rng.sl(c5, 2)).solution
    [(name, value, d)] = prime_integral_check(sl_spec, u)
    assert name == "det" and value == u.det() and d.is_zero()
    so_spec = EquationSpec("so", 2, rng.so_delta_alpha(c5, 2, "sp"), "sp")
    rep = solve(so_spec, rng.so(c5, 2, "sp"))
    [(name, value, d)] = prime_integral_check(so_spec, rep.solution)
    assert name == "xtqx" and value == so_spec.q_matrix() and d.is_zero()
    [(_, v, dv)] = rep.integral_values  # the solver reports the same values
    assert v == value and dv == d and dv.known_prec == c5.N - 1
    # off a solution delta(u^t q u) need not vanish
    [(_, _, d)] = prime_integral_check(so_spec, rng.gl(c5, 2))
    assert not d.is_zero()


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


@pytest.mark.parametrize("k", [1.0, "1", None, True])
def test_frobenius_powers_must_be_ints(c5, c5x2, k):
    """A Frobenius power or a fixedness order that is not an int is a
    ParameterError at every m: before, a float raised TypeError at m = 2,
    and frobenius_fixedness(u, 1.0) returned True at m = 1."""
    for ctx in (c5, c5x2):
        u = Rng(54).gl(ctx, 2)
        with pytest.raises(ParameterError, match="Frobenius power must be an integer"):
            ctx.one().frobenius(k)
        with pytest.raises(ParameterError, match="Frobenius power must be an integer"):
            u.frobenius_entrywise(k)
        with pytest.raises(ParameterError, match="nu must be an integer"):
            frobenius_fixedness(u, k)


def test_negative_frobenius_powers_count_mod_m(c5x2):
    """phi^k for a negative int k is phi^(k mod m)."""
    rng = Rng(55)
    a, u = rng.element(c5x2), rng.gl(c5x2, 2)
    for k in (-1, -2, -3):
        assert a.frobenius(k) == a.frobenius(k % 2)
        assert u.frobenius_entrywise(k) == u.frobenius_entrywise(k % 2)
    assert a.frobenius(-1).frobenius() == a


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
        scale = c5.element(tuple(c // 5 for c in (lam - c5.one()).coeffs)).with_prec(c5.N - 1)
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
