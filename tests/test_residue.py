"""The residue field F_{p^m} against oracles written here: polynomial division
and products mod f over F_p, and a brute-force search for factors."""

import itertools

import pytest

from deltalin import _residue


def _monic(p, d):
    """Every monic polynomial of degree d over F_p, little-endian, in the lex
    order of its tail (c_0, ..., c_{d-1})."""
    for code in range(p ** d):
        yield tuple(code // p ** i % p for i in range(d)) + (1,)


def _rem(a, g, p):
    """a mod the monic g over F_p, by schoolbook long division."""
    r = [c % p for c in a]
    d = len(g) - 1
    for top in range(len(r) - 1, d - 1, -1):
        c = r[top]
        if c:
            for j in range(d + 1):
                r[top - d + j] = (r[top - d + j] - c * g[j]) % p
    return tuple(r[:d])


def _brute_irreducible(f, p):
    """No monic factor of degree 1 .. deg f / 2."""
    return not any(
        not any(_rem(f, g, p)) for d in range(1, (len(f) - 1) // 2 + 1) for g in _monic(p, d)
    )


def _mulmod(a, b, f, p):
    prod = [0] * (len(a) + len(b) - 1)
    for i, j in itertools.product(range(len(a)), range(len(b))):
        prod[i + j] += a[i] * b[j]
    return _rem(prod, f, p)


def _order(a, f, p):
    """The multiplicative order of a in F_p[x]/(f), f irreducible; 0 for a = 0."""
    one = (1,) + (0,) * (len(f) - 2)
    y = a
    for k in range(1, p ** (len(f) - 1)):
        if y == one:
            return k
        y = _mulmod(y, a, f, p)
    return 0


CASES = [(p, d) for p in (3, 5, 7) for d in (1, 2, 3)] + [(3, 4)]


@pytest.mark.parametrize("p, d", CASES)
def test_is_irreducible_matches_brute_force(p, d):
    for f in _monic(p, d):
        assert _residue.is_irreducible(f, p) == _brute_irreducible(f, p), f


@pytest.mark.parametrize("p", (3, 5, 7, 13))
@pytest.mark.parametrize("m", (1, 2, 3))
def test_first_irreducible_is_the_lex_first(p, m):
    expected = next(f for f in _monic(p, m) if _brute_irreducible(f, p))
    assert _residue.first_irreducible(p, m) == expected


@pytest.mark.parametrize("p", (3, 5))
@pytest.mark.parametrize("m", (1, 2, 3))
def test_multiplicative_generator_is_the_lex_first_of_full_order(p, m):
    full = p ** m - 1
    for f in filter(lambda f: _brute_irreducible(f, p), _monic(p, m)):
        g = _residue.multiplicative_generator(p, m, f)
        assert _order(g, f, p) == full, f
        for a in _residue.field_elements(p, m):
            if a == g:
                break
            assert _order(a, f, p) < full, (f, a)
