import math

import pytest

from deltalin.equations import EquationSpec, residual, solve
from deltalin.errors import ParameterError
from deltalin.galois import (
    GuChecker,
    check_right_compatibility,
    constancy_values,
    enumerate_N_delta,
    example_3_9,
    is_monomial,
    matrix_order,
    scalar_galois_bound,
)
from deltalin.matrix import PMatrix
from deltalin.ring import make_context
from deltalin.sampling import Rng


def _solved(ctx, rng, kind, variant, n):
    if kind == "gl":
        spec = EquationSpec("gl", n, rng.matrix(ctx, n))
        u0 = rng.gl(ctx, n)
    elif kind == "sl":
        spec = EquationSpec("sl", n, rng.sl_delta_alpha(ctx, n))
        u0 = rng.sl(ctx, n)
    else:
        spec = EquationSpec("so", n, rng.so_delta_alpha(ctx, n, variant), variant)
        u0 = rng.so(ctx, n, variant)
    return spec, solve(spec, u0).solution


# ---------------------------------------------------------------- Phi_u / G_u


def test_phi_u_at_identity(c5):
    rng = Rng(70)
    spec, u = _solved(c5, rng, "sl", None, 2)
    I = PMatrix.identity(c5, 2)
    assert GuChecker(spec, u).phi_u(I) == I


def test_phi_u_gl_specialization(c5):
    rng = Rng(71)
    spec = EquationSpec("gl", 2, rng.matrix(c5, 2))
    u, x = rng.gl(c5, 2), rng.gl(c5, 2)
    assert GuChecker(spec, u).phi_u(x) == u.pow_p_entrywise().inverse() @ (u @ x).pow_p_entrywise()


def test_identity_always_in_Gu(c5):
    rng = Rng(72)
    for kind, variant, n in (("gl", None, 2), ("sl", None, 2), ("so", "sp", 2)):
        spec, u = _solved(c5, rng, kind, variant, n)
        assert GuChecker(spec, u)(PMatrix.identity(c5, n))


@pytest.mark.parametrize("kind, variant", [("gl", None), ("sl", None), ("so", "sp")])
def test_singular_candidates_are_not_members(kind, variant):
    """G_u lies in GL_n, so a v singular mod p is no member for any kind:
    neither accepted (gl) nor met with an error of the twist (sl, so)."""
    ctx = make_context(7, 1, 8)
    spec, u = _solved(ctx, Rng(1), kind, variant, 2)
    checker = GuChecker(spec, u)
    for v in (PMatrix.zeros(ctx, 2), PMatrix.from_rows(ctx, [[1, 0], [0, 7]])):
        assert checker(v) is False


def test_membership_transports_solutions(c5):
    # v in G_u means u @ v solves the same equation
    rng = Rng(73)
    for kind, variant, n in (("gl", None, 2), ("sl", None, 2), ("so", "so_even", 2)):
        spec, u = _solved(c5, rng, kind, variant, n)
        checker = GuChecker(spec, u)
        for v in enumerate_N_delta(c5, n, 4)[:8]:
            assert checker(v)
            assert residual(spec, u @ v).is_zero()


# ---------------------------------------------------------------- N^delta


def test_enumerate_sizes(c5):
    assert len(enumerate_N_delta(c5, 1, 1)) == 1
    two = enumerate_N_delta(c5, 2, 1)
    assert len(two) == 2  # the permutation matrices
    I = PMatrix.identity(c5, 2)
    assert any(v == I for v in two)
    full = enumerate_N_delta(c5, 2, 4)
    assert len(full) == 2 * 4 ** 2


def test_enumerate_entries_are_constants(c5):
    for v in enumerate_N_delta(c5, 2, 4):
        assert v.delta_entrywise().is_zero()
        assert is_monomial(v)


def test_enumerate_distinct_and_closed(c5):
    full = enumerate_N_delta(c5, 2, 4)
    flats = {v.flat for v in full}
    assert len(flats) == len(full)
    # closure under multiplication and inverse at the full torsion order
    for a in full[::7]:
        assert a.inverse().flat in flats
        for b in full[::9]:
            assert (a @ b).flat in flats


def test_enumerate_requires_divisor(c5):
    with pytest.raises(ParameterError, match="divide"):
        enumerate_N_delta(c5, 2, 3)  # 3 does not divide 4


@pytest.mark.parametrize("n, d", [(-1, 1), (0, 1), (9, 1), (2.0, 1), (True, 1), (2, 0), (2, -4), (2, 2.0), (2, True), (2, "4")])
def test_enumerate_checks_its_arguments(c5, n, d):
    """n an int in [1, MAX_DIM] and d an int >= 1, booleans refused, before
    any candidate is counted."""
    with pytest.raises(ParameterError):
        enumerate_N_delta(c5, n, d)


def test_enumerate_cap(c5):
    with pytest.raises(ParameterError, match="cap"):
        enumerate_N_delta(c5, 8, 4)  # 8! * 4^8 > MAX_N_DELTA


def test_enumerate_cap_counts_the_digits_of_the_list():
    # 2! * 168^2 candidates of 2^2 * 2 * N digits: 7.2M at N = 16, 28.9M at N = 64
    assert len(enumerate_N_delta(make_context(13, 2, 16), 2, 168)) == 56448
    with pytest.raises(ParameterError, match="28901376 digits, exceeds the cap"):
        enumerate_N_delta(make_context(13, 2, 64), 2, 168)


def test_n_delta_inside_Gu_for_all_kinds(c5):
    rng = Rng(74)
    for kind, variant, n in (
        ("gl", None, 2),
        ("sl", None, 2),
        ("so", "sp", 2),
        ("so", "so_even", 2),
        ("so", "so_odd", 3),
    ):
        spec, u = _solved(c5, rng, kind, variant, n)
        checker = GuChecker(spec, u)
        for v in enumerate_N_delta(c5, n, 4):
            assert checker(v)


def test_gu_closure_on_n_delta_samples(c5):
    # products of N^delta members stay in G_u (finiteness witness)
    rng = Rng(75)
    spec, u = _solved(c5, rng, "gl", None, 2)
    members = enumerate_N_delta(c5, 2, 4)
    checker = GuChecker(spec, u)
    for a in members[::5]:
        for b in members[::6]:
            assert checker(a @ b)


# ---------------------------------------------------------------- right compat


def test_right_compatibility_all_kinds(c5):
    rng = Rng(76)
    for kind, variant, n in (("gl", None, 2), ("sl", None, 2), ("so", "sp", 2), ("so", "so_odd", 3)):
        spec = EquationSpec(kind, n, rng.matrix(c5, n), variant)
        ok, witness = check_right_compatibility(spec, samples=50, seed=7)
        assert ok and witness is None


@pytest.mark.parametrize("samples", [2.5, True, "2"])
def test_right_compatibility_needs_an_int_sample_count(c5, samples):
    spec = EquationSpec("gl", 2, PMatrix.identity(c5, 2))
    with pytest.raises(ParameterError, match="samples must be an integer"):
        check_right_compatibility(spec, samples=samples)


def test_right_compatibility_gl_is_ppower_multiplicativity(c5):
    rng = Rng(77)
    a = rng.gl(c5, 3)
    c = rng.monomial(c5, 3)
    assert (a @ c).pow_p_entrywise() == a.pow_p_entrywise() @ c.pow_p_entrywise()


# ---------------------------------------------------------------- constancy


def test_constancy_values_on_N_delta(c5):
    rng = Rng(78)
    spec, u = _solved(c5, rng, "sl", None, 2)
    checker = GuChecker(spec, u)
    for v in enumerate_N_delta(c5, 2, 4)[:10]:
        assert checker(v)
        d_det, d_form = constancy_values(spec, v)
        assert d_det.is_zero()
        assert d_form is None

    spec_so, u_so = _solved(c5, rng, "so", "sp", 2)
    checker = GuChecker(spec_so, u_so)
    for v in enumerate_N_delta(c5, 2, 4)[:10]:
        assert checker(v)
        d_det, d_form = constancy_values(spec_so, v)
        assert d_form is not None and d_form.is_zero()


@pytest.mark.parametrize(
    "kind, variant, n, p, m",
    [
        ("sl", None, 3, 5, 1),
        ("sl", None, 2, 7, 2),
        ("so", "so_even", 2, 5, 2),
        ("so", "so_odd", 3, 5, 1),
        ("so", "sp", 4, 7, 1),
    ],
)
def test_constancy_on_generated_members(kind, variant, n, p, m):
    """G_u members beyond N^delta, for u0 in the kind's group and in GL_n.

    uv solves the equation exactly when v is in G_u, so v = u^{-1} w is a
    member for every solution w; w is the solution of a random residue.
    Each such v passes GuChecker and v (1 + p^3 X) does not.  delta(det v)
    vanishes on every member for sl.  delta(v^t q v) vanishes on every
    member for so when u is in SO_q, and not on every member when u0 is
    drawn from GL_n.
    """
    ctx = make_context(p, m, 10)
    rng = Rng(11)
    one = PMatrix.identity(ctx, n)
    spec = EquationSpec(kind, n, rng.delta_lie_alpha(ctx, kind, n, variant), variant)
    in_group = rng.sl(ctx, n) if kind == "sl" else rng.so(ctx, n, variant)
    for u0 in (in_group, rng.gl(ctx, n)):
        u = solve(spec, u0).solution
        checker = GuChecker(spec, u)
        u_inv = u.inverse()
        members = [u_inv @ solve(spec, rng.gl(ctx, n)).solution for _ in range(6)]
        assert not all(is_monomial(v) for v in members)
        form_zero = []
        for v in members:
            assert checker(v)
            assert not checker(v @ (one + p ** 3 * rng.matrix(ctx, n)))
            d_det, d_form = constancy_values(spec, v)
            if kind == "sl":
                assert d_det.is_zero()
            else:
                form_zero.append(d_form.is_zero())
        if kind == "so":
            if u0 is in_group:
                assert all(form_zero)
            else:
                assert not all(form_zero)


# ---------------------------------------------------------------- scalar bound


def test_scalar_galois_bound(c5):
    rng = Rng(80)
    spec = EquationSpec("gl", 1, PMatrix.from_rows(c5, [[rng.element(c5)]]))
    u = solve(spec, PMatrix.from_rows(c5, [[c5.teichmueller(2)]])).solution.entry(0, 0)
    assert scalar_galois_bound(u, 1) == [c5.one()]
    members = scalar_galois_bound(u, 4)
    assert len(members) == 4
    assert all(c.is_constant() for c in members)


# ---------------------------------------------------------------- example


@pytest.mark.parametrize("p", [7, 13])
def test_example_3_9(p):
    rep = example_3_9(p, 12)
    assert rep.notes["all_pass"]
    assert rep.notes["order"] == 2
    assert rep.in_Gu and not rep.in_N_delta
    assert len(rep.notes["labelings"]) == 2
    for lab in rep.notes["labelings"]:
        assert all(lab["checks"].values())
        assert pow(lab["zeta_residue"], 3, p) == 1 and lab["zeta_residue"] != 1


def test_example_3_9_requires_one_mod_three():
    with pytest.raises(ParameterError, match="1 mod 3"):
        example_3_9(5, 8)


def test_example_3_9_candidate_structure():
    rep = example_3_9(7, 10)
    c = rep.candidate
    ctx = c.ctx
    assert (c @ c) == PMatrix.identity(ctx, 2)
    assert not is_monomial(c)  # two nonzero entries in column 2
    assert matrix_order(c) == 2
    assert rep.constancy["delta_det"] == math.inf  # det c = -1 is constant


def test_enumerate_with_extension_field(c5x2):
    # d = 8 divides 5^2 - 1 = 24; entries are 8-torsion Teichmueller units
    members = enumerate_N_delta(c5x2, 2, 8)
    assert len(members) == 2 * 64
    for v in members[::17]:
        assert v.delta_entrywise().is_zero()
        assert (v.entry(0, 0) ** 8 == c5x2.one()) or (v.entry(0, 1) ** 8 == c5x2.one())
