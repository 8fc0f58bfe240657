import pytest

from deltalin.errors import (
    AlgebraInvariantError,
    DomainError,
    ParameterError,
    SingularMatrixError,
)
from deltalin.matrix import (
    PMatrix,
    delta_add,
    delta_inverse,
    in_GLn,
    in_SLn,
    in_SOq,
    in_sl_delta,
    in_so_delta,
    matrix_one_plus_pT_pow,
    matrix_sqrt_one_mod_p,
)
from deltalin.ring import MAX_DIM, make_context, one_plus_pt_pow
from deltalin.sampling import Rng


def test_inverse_of_identity(c5):
    I = PMatrix.identity(c5, 3)
    assert I.inverse() == I


def test_det_is_multiplicative(c5):
    rng = Rng(20)
    for n in (1, 2, 3):
        for _ in range(100):
            a, b = rng.matrix(c5, n), rng.matrix(c5, n)
            assert (a @ b).det() == a.det() * b.det()


def test_inverse_of_singular_raises(c5):
    a = PMatrix.from_rows(c5, [[5, 0], [0, 1]])
    with pytest.raises(SingularMatrixError, match="GL_n"):
        a.inverse()
    assert not in_GLn(a)


@pytest.mark.parametrize("m", [1, 2, 3])
def test_in_GLn_agrees_with_inversion(m):
    """in_GLn, a unit determinant, holds exactly when the inverse exists: on
    random matrices and on ones singular mod p (a last column divisible by
    p, a last row that repeats or sums earlier rows), n = 1..MAX_DIM."""
    ctx = make_context(3, m, 6)
    rng = Rng(30 + m)
    seen = set()
    for n in range(1, MAX_DIM + 1):
        cases = [rng.matrix(ctx, n) for _ in range(4)]
        rows = rng.matrix(ctx, n).rows()
        cases.append(PMatrix.from_rows(ctx, [r[:-1] + [3 * r[-1]] for r in rows]))
        if n > 1:
            last = rows[0] if n == 2 else [x + y for x, y in zip(rows[0], rows[1])]
            cases.append(PMatrix.from_rows(ctx, rows[:-1] + [last]))
        for a in cases:
            try:
                a.inverse()
                invertible = True
            except SingularMatrixError:
                invertible = False
            assert in_GLn(a) is invertible, (n, a)
            seen.add(invertible)
    assert seen == {True, False}


def test_inverse_contract(c5x2):
    rng = Rng(21)
    I = PMatrix.identity(c5x2, 3)
    for _ in range(50):
        a = rng.gl(c5x2, 3)
        assert a @ a.inverse() == I
        assert a.inverse() @ a == I


def test_solve_and_form_contract(c5x2):
    """a.solve(b) = a^{-1} b and x.form(q) = x^t q x, each trusted to the
    lesser precision of its operands."""
    rng = Rng(23)
    for _ in range(20):
        a, b = rng.gl(c5x2, 3), rng.matrix(c5x2, 3).with_prec(5)
        x = a.solve(b)
        assert x.known_prec == 5 and a @ x == b
        assert a.with_prec(4).solve(b).known_prec == 4
        f = a.form(b)
        assert f.known_prec == 5 and f == a.transpose() @ b @ a
    with pytest.raises(SingularMatrixError):
        PMatrix.from_rows(c5x2, [[5, 0], [0, 1]]).solve(PMatrix.identity(c5x2, 2))


@pytest.mark.parametrize("bad", [None, 3, "x", 1.5])
def test_operand_that_is_not_a_matrix_raises_domain_error(c5x2, bad):
    """eq_at, solve and form have no reflected form to defer to, so an
    operand of the wrong type is refused by the one peer check, with a
    DomainError naming the type expected, as is a scalar method given a
    matrix or a non-element; == against a foreign type reads False."""
    a, one = PMatrix.identity(c5x2, 2), c5x2.one()
    got = type(bad).__name__
    for call, expected, given in (
        (lambda: a.eq_at(bad, 1), "PMatrix", got),
        (lambda: a.solve(bad), "PMatrix", got),
        (lambda: a.form(bad), "PMatrix", got),
        (lambda: a.eq_at(one, 1), "PMatrix", "RingElement"),
        (lambda: one.eq_at(a, 1), "RingElement", "PMatrix"),
    ):
        with pytest.raises(DomainError, match=f"expected a {expected}, got {given}"):
            call()
    assert (a == bad) is False and (a == one) is False and (one == a) is False
    if not isinstance(bad, int):
        with pytest.raises(DomainError, match=f"expected a RingElement, got {got}"):
            one.eq_at(bad, 1)
        assert (one == bad) is False
    else:
        assert one.eq_at(bad, 1) == (bad % 5 == 1)


def test_large_dimension_elimination_paths():
    ctx = make_context(7, 1, 8)
    rng = Rng(22)
    I = PMatrix.identity(ctx, 6)
    for _ in range(10):
        a = rng.gl(ctx, 6)
        assert a @ a.inverse() == I
        assert (a @ a).det() == a.det() * a.det()


def test_dimension_cap_is_configurable():
    ctx = make_context(5, 1, 4)
    with pytest.raises(ParameterError, match="cap"):
        PMatrix.identity(ctx, 9)


@pytest.mark.parametrize("n", [0, 9])
def test_every_constructor_checks_the_dimension(n):
    ctx = make_context(5, 1, 4)
    builders = [
        lambda: PMatrix.identity(ctx, n),
        lambda: PMatrix.zeros(ctx, n),
        lambda: PMatrix.scalar(ctx, n, 2),
        lambda: PMatrix.from_flat(ctx, [1] * (n * n), n),
        lambda: PMatrix.from_rows(ctx, [[1] * n for _ in range(n)]),
    ]
    for build in builders:
        with pytest.raises(ParameterError):
            build()


@pytest.mark.parametrize("n", [2.0, True, "2", None])
def test_every_constructor_wants_an_int_dimension(n):
    """A dimension that is not an int is a ParameterError, a float and a
    bool included: before, 2.0 raised TypeError from identity, zeros and
    scalar, from_flat built a matrix that failed later, and True built a
    matrix whose n was True."""
    ctx = make_context(5, 1, 4)
    builders = [
        lambda: PMatrix.identity(ctx, n),
        lambda: PMatrix.zeros(ctx, n),
        lambda: PMatrix.scalar(ctx, n, 2),
        lambda: PMatrix.from_flat(ctx, [1] * 4, n),
    ]
    for build in builders:
        with pytest.raises(ParameterError, match="dimension must be an integer"):
            build()


@pytest.mark.parametrize("i, j", [(0, 2), (1, -1), (5, 5), (0.0, 0), (True, 0), (-1, 0), (2, 0), (0, "1")])
def test_entry_wants_int_indices_inside_the_matrix(i, j):
    """entry(i, j) wants ints in [0, n): before, on a 2 x 2 matrix, (0, 2)
    read entry (1, 0), (1, -1) read (0, 1), (5, 5) returned an element with
    no coefficients, 0.0 raised TypeError and True read row 1."""
    M = PMatrix.from_flat(make_context(5, 1, 4), [1, 2, 3, 4], 2)
    with pytest.raises(ParameterError, match="outside the 2 x 2 matrix"):
        M.entry(i, j)
    assert [M.entry(r, c).flat for r in range(2) for c in range(2)] == [(1,), (2,), (3,), (4,)]


@pytest.mark.parametrize("flat", [[1.5, 0], [1, "0"], [2.0, 0]])
def test_from_flat_refuses_non_int_coefficients(c5x2, flat):
    with pytest.raises(ParameterError, match="integers"):
        PMatrix.from_flat(c5x2, flat, 1)


def test_from_flat_reads_a_bool_as_its_int(c5x2):
    assert PMatrix.from_flat(c5x2, [True, False], 1) == PMatrix.identity(c5x2, 1)


_ROWS = "rows must be a list or tuple of n rows of n entries"


@pytest.mark.parametrize("build, message", [
    (lambda c: PMatrix.from_flat(c, [1.5, 0], 1), "coefficients must be integers, got 1.5"),
    (lambda c: c.element([1.5]), "coefficients must be integers, got 1.5"),
    (lambda c: PMatrix.from_rows(c, [[1.5]]), "coefficients must be a list or tuple of integers, got a float"),
    (lambda c: PMatrix.scalar(c, 1, 1.5), "coefficients must be a list or tuple of integers, got a float"),
    (lambda c: PMatrix.from_flat(c, {1, 2}, 1), "coefficients must be a list or tuple of integers, got a set"),
    (lambda c: PMatrix.from_flat(c, {0: 1, 1: 2}, 1), "coefficients must be a list or tuple of integers, got a dict"),
    (lambda c: PMatrix.from_flat(c, 5, 1), "coefficients must be a list or tuple of integers, got a int"),
    (lambda c: PMatrix.from_rows(c, 5), _ROWS),
    (lambda c: PMatrix.from_rows(c, [5]), _ROWS),
    (lambda c: c.element(bytearray(b"\x01\x02")), "list or tuple of integers, got a bytearray"),
    (lambda c: c.element(b"\x01\x02"), "list or tuple of integers, got a bytes"),
], ids=["from_flat-float", "element-float", "from_rows-float", "scalar-float", "from_flat-set",
        "from_flat-dict", "from_flat-int", "from_rows-int", "from_rows-int-row", "element-bytearray",
        "element-bytes"])
def test_every_constructor_refuses_malformed_coefficients_alike(c5x2, build, message):
    """One gate, one class, one message per fault.  Before, a float got
    ParameterError from from_flat but DomainError from element, from_rows
    and scalar; from_flat read a set in hash order and a dict by its keys;
    an int for the rows or the flat, or for a row, raised TypeError; and a
    bytearray was read as coefficients while bytes got DomainError."""
    with pytest.raises(ParameterError, match=f"{message}$"):
        build(c5x2)


@pytest.mark.parametrize("other", [
    make_context(5, 2, 4, residue_poly=[2, 4, 1]),
    make_context(7, 1, 6),
], ids=["another-modulus", "another-prime"])
@pytest.mark.parametrize("build", [
    lambda c, e: PMatrix.scalar(c, 2, e),
    lambda c, e: PMatrix.from_rows(c, [[e, 0], [0, 1]]),
], ids=["scalar", "from_rows"])
def test_constructors_refuse_an_element_of_another_ring(other, build):
    """An element of another ring gets element's one DomainError.  Before,
    scalar took it as it was: under another modulus it built a matrix read
    in the wrong basis, and from another prime it raised a bare ValueError
    from the kernel; from_rows had a message of its own."""
    ctx = make_context(5, 2, 4)
    with pytest.raises(DomainError, match="^element belongs to a different ring$"):
        build(ctx, other.one() + other.generator())


def test_from_rows_takes_elements_of_its_ring_as_they_are(c5x2):
    """An entry of this ring is neither re-read nor reduced again: the
    matrix holds its coefficients and claims the minimum of the claims."""
    a = c5x2.element([7, 8]).with_prec(3)
    b = c5x2.element([-1, 2])
    M = PMatrix.from_rows(c5x2, [[a, 1], [(2, 3), b]])
    assert M.flat == a.flat + (1, 0, 2, 3) + b.flat
    assert M.known_prec == 3
    assert PMatrix.scalar(c5x2, 2, a).known_prec == 3


# ---------------------------------------------------------------- entrywise maps


def test_pow_p_entrywise_basics(c5):
    I = PMatrix.identity(c5, 2)
    assert I.pow_p_entrywise() == I
    d = PMatrix.from_rows(c5, [[2, 0], [0, 3]])
    assert d.pow_p_entrywise() == PMatrix.from_rows(c5, [[2 ** 5, 0], [0, 3 ** 5]])
    perm = PMatrix.from_rows(c5, [[0, 1], [1, 0]])
    assert perm.pow_p_entrywise() == perm


def test_frobenius_equals_ppower_plus_p_delta(c5x2):
    rng = Rng(23)
    for _ in range(50):
        a = rng.matrix(c5x2, 2)
        assert a.frobenius_entrywise() == a.pow_p_entrywise() + 5 * a.delta_entrywise()


def test_frobenius_entrywise_is_identity_for_m1(c5):
    rng = Rng(24)
    a = rng.matrix(c5, 3)
    assert a.frobenius_entrywise() == a


def test_delta_of_teichmueller_matrix_vanishes(c5x2):
    t = PMatrix.from_rows(
        c5x2,
        [[c5x2.teichmueller((1, 2)), c5x2.teichmueller((0, 3))],
         [c5x2.teichmueller((4, 4)), c5x2.teichmueller((2, 0))]],
    )
    assert t.delta_entrywise().is_zero()


def test_frobenius_commutes_with_det_and_products(c5x2):
    rng = Rng(25)
    for _ in range(30):
        a, b = rng.matrix(c5x2, 2), rng.matrix(c5x2, 2)
        assert (a @ b).frobenius_entrywise() == a.frobenius_entrywise() @ b.frobenius_entrywise()
        assert a.det().frobenius() == a.frobenius_entrywise().det()


def test_monomial_ppower_multiplicativity(c5x2):
    # (A c)^{(p)} = A^{(p)} c^{(p)} exactly when c is monomial
    rng = Rng(26)
    for _ in range(50):
        a = rng.matrix(c5x2, 3)
        c = rng.monomial(c5x2, 3)
        assert (a @ c).pow_p_entrywise() == a.pow_p_entrywise() @ c.pow_p_entrywise()


def test_ppower_not_multiplicative_in_general(c5):
    a = PMatrix.from_rows(c5, [[1, 1], [0, 1]])
    b = PMatrix.from_rows(c5, [[1, 0], [1, 1]])
    assert (a @ b).pow_p_entrywise() != a.pow_p_entrywise() @ b.pow_p_entrywise()


def test_exact_div_p_hard_error(c5):
    with pytest.raises(AlgebraInvariantError):
        PMatrix.identity(c5, 2).exact_div_p()


# ---------------------------------------------------------------- delta addition


def test_delta_add_group_law(c5):
    rng = Rng(27)
    zero = PMatrix.zeros(c5, 2)
    I = PMatrix.identity(c5, 2)
    for _ in range(100):
        a, b = rng.matrix(c5, 2), rng.matrix(c5, 2)
        assert delta_add(a, zero) == a
        assert delta_add(zero, a) == a
        assert delta_add(a, delta_inverse(a)) == zero
        # the defining isomorphism onto the congruence subgroup
        assert I + 5 * delta_add(a, b) == (I + 5 * a) @ (I + 5 * b)


def test_delta_add_associative(c5x2):
    rng = Rng(28)
    for _ in range(20):
        a, b, c = (rng.matrix(c5x2, 2) for _ in range(3))
        assert delta_add(delta_add(a, b), c) == delta_add(a, delta_add(b, c))


# ---------------------------------------------------------------- binomial powers


def test_matrix_pow_unit_exponent(c5):
    rng = Rng(29)
    M = PMatrix.identity(c5, 2) + 5 * rng.matrix(c5, 2)
    assert matrix_one_plus_pT_pow(M, 1) == M


def test_matrix_pow_identity_any_exponent(c5):
    I = PMatrix.identity(c5, 3)
    for a in (0, 1, 2, 7, pow(3, -1, 5 ** 10)):
        assert matrix_one_plus_pT_pow(I, a) == I


def test_matrix_sqrt_squares_back(c5, c5x2):
    rng = Rng(30)
    half5 = pow(2, -1, 5 ** 10)
    half52 = pow(2, -1, 5 ** 8)
    for ctx, half in ((c5, half5), (c5x2, half52)):
        for n in (2, 3):
            for _ in range(50):
                M = PMatrix.identity(ctx, n) + 5 * rng.matrix(ctx, n)
                r = matrix_one_plus_pT_pow(M, half)
                assert r @ r == M
                # Newton route gives the same root
                assert matrix_sqrt_one_mod_p(M) == r


def test_matrix_pow_domain(c5):
    rng = Rng(31)
    with pytest.raises(DomainError):
        matrix_one_plus_pT_pow(rng.gl(c5, 2), 2)
    with pytest.raises(DomainError):
        matrix_sqrt_one_mod_p(rng.gl(c5, 2))


def test_matrix_pow_integer_exponent_matches_multiplication(c5):
    rng = Rng(32)
    M = PMatrix.identity(c5, 2) + 5 * rng.matrix(c5, 2)
    assert matrix_one_plus_pT_pow(M, 3) == M @ M @ M
    assert matrix_one_plus_pT_pow(M, c5.element(3)) == M @ M @ M


def test_power_exponent_checks_agree(c5, c5x2):
    """The scalar and the matrix power read a Z_p exponent alike: one from
    another ring (another p, N or m), one outside the prime subring and one
    that is not a number are each refused."""
    rng = Rng(34)
    foreign = (
        make_context(7, 1, 10).element(3),
        make_context(5, 1, 8).element(3),
        c5x2.element(3),
        1.5,
    )
    bases = (
        (one_plus_pt_pow, c5.one() + 5 * rng.element(c5), c5x2.one() + 5 * rng.element(c5x2)),
        (
            matrix_one_plus_pT_pow,
            PMatrix.identity(c5, 2) + 5 * rng.matrix(c5, 2),
            PMatrix.identity(c5x2, 2) + 5 * rng.matrix(c5x2, 2),
        ),
    )
    for power, base, base_x2 in bases:
        for e in foreign:
            with pytest.raises(DomainError):
                power(base, e)
        with pytest.raises(DomainError):
            power(base_x2, c5x2.generator())


# ---------------------------------------------------------------- memberships


def test_in_sl_delta_zero(c5):
    assert in_sl_delta(PMatrix.zeros(c5, 2))


def test_in_so_delta_nilpotent_example(c5):
    q = PMatrix.from_rows(c5, [[0, 1], [-1, 0]])
    alpha = PMatrix.from_rows(c5, [[0, 1], [0, 0]])
    # alpha^t q + q alpha + p alpha^t q alpha = 0 by direct expansion
    lhs = alpha.transpose() @ q + q @ alpha + 5 * (alpha.transpose() @ q @ alpha)
    assert lhs.is_zero()
    assert in_so_delta(alpha, q)


def test_in_sl_delta_iff_det_one(c5):
    rng = Rng(33)
    I = PMatrix.identity(c5, 2)
    for _ in range(100):
        alpha = rng.sl_delta_alpha(c5, 2)
        assert in_sl_delta(alpha)
        assert (I + 5 * alpha).det() == c5.one()


def test_symplectic_n2_membership_implies_det_one(c5):
    # Sp_2 = SL_2: the form condition forces det(1 + p*alpha) = 1
    rng = Rng(34)
    q = PMatrix.from_rows(c5, [[0, 1], [-1, 0]])
    I = PMatrix.identity(c5, 2)
    for _ in range(50):
        alpha = rng.so_delta_alpha(c5, 2, "sp")
        assert in_so_delta(alpha, q)
        assert (I + 5 * alpha).det() == c5.one()


def test_so_delta_contained_in_sl_delta(c5):
    # for odd p the form condition forces det(1+p*alpha) = +1: the determinant
    # is +-1 and congruent to 1 mod p, so so(q)_delta lands inside sl_delta
    rng = Rng(35)
    q = PMatrix.from_rows(c5, [[0, 1], [1, 0]])
    for _ in range(50):
        alpha = rng.so_delta_alpha(c5, 2, "so_even")
        assert in_so_delta(alpha, q)
        assert in_sl_delta(alpha)


def test_membership_predicates(c5):
    rng = Rng(36)
    u = rng.sl(c5, 3)
    assert in_SLn(u)
    q = PMatrix.from_rows(c5, [[0, 1], [-1, 0]])
    v = rng.so(c5, 2, "sp")
    assert in_SOq(v, q)
    assert not in_SLn(2 * u)
