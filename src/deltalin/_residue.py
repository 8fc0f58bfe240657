"""Polynomial arithmetic over F_p, used to bootstrap the ring contexts.

Polynomials are coefficient tuples, little-endian, with entries in [0, p).
A monic degree-m modulus is passed around as its full coefficient tuple of
length m + 1 with leading coefficient 1.
"""

from functools import lru_cache

from ._intmath import factorize


def _trim(c):
    i = len(c)
    while i > 0 and c[i - 1] == 0:
        i -= 1
    return tuple(c[:i])


def poly_mul(a, b, p):
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _trim(out)


def poly_mod(a, f, p):
    """Remainder of a modulo the monic polynomial f."""
    r = list(a)
    df = len(f) - 1
    while len(r) > df:
        c = r[-1] % p
        if c:
            for j in range(df + 1):
                r[len(r) - 1 - df + j] = (r[len(r) - 1 - df + j] - c * f[j]) % p
        r.pop()
    return _trim(r)


def poly_sub(a, b, p):
    n = max(len(a), len(b))
    out = [0] * n
    for i in range(n):
        ai = a[i] if i < len(a) else 0
        bi = b[i] if i < len(b) else 0
        out[i] = (ai - bi) % p
    return _trim(out)


def poly_mulmod(a, b, f, p):
    return poly_mod(poly_mul(a, b, p), f, p)


def poly_powmod(a, e, f, p):
    result = (1,)
    base = poly_mod(a, f, p)
    while e:
        if e & 1:
            result = poly_mulmod(result, base, f, p)
        base = poly_mulmod(base, base, f, p)
        e >>= 1
    return result


def poly_gcd(a, b, p):
    a, b = _trim(a), _trim(b)
    while b:
        lead_inv = pow(b[-1], -1, p)
        bm = tuple(c * lead_inv % p for c in b)
        a, b = b, poly_mod(a, bm, p)
    return a


def is_irreducible(f, p):
    """Rabin's test for a monic polynomial f over F_p."""
    m = len(f) - 1
    if m < 1 or f[-1] % p != 1:
        return False
    x = poly_mod((0, 1), f, p)
    xq = x
    for _ in range(m):
        xq = poly_powmod(xq, p, f, p)
    if poly_sub(xq, x, p):
        return False
    for r in factorize(m):
        xk = x
        for _ in range(m // r):
            xk = poly_powmod(xk, p, f, p)
        g = poly_gcd(poly_sub(xk, x, p), f, p)
        if len(g) != 1:
            return False
    return True


@lru_cache(maxsize=32)
def first_irreducible(p, m):
    """Lexicographically first irreducible monic polynomial of degree m.

    Candidates x^m + c_{m-1} x^{m-1} + ... + c_0 are ordered by their
    coefficient tuples (c_0, ..., c_{m-1}).  Deterministic and seedless.
    Every result has passed Rabin's test (at m = 1, x is linear), so the
    results for the 32 most recent (p, m) are memoized and not tested again.
    """
    if m == 1:
        return (0, 1)  # f = x
    for tail in field_elements(p, m):
        f = tail + (1,)
        if is_irreducible(f, p):
            return f
    raise AssertionError("no irreducible polynomial found")  # unreachable


def field_elements(p, m):
    """All elements of F_{p^m} as coefficient tuples, in lexicographic order."""
    for code in range(p ** m):
        tail = []
        v = code
        for _ in range(m):
            v, d = divmod(v, p)
            tail.append(d)
        yield tuple(tail)


def multiplicative_generator(p, m, f):
    """First (lex order) generator of F_{p^m}^* for the modulus f."""
    order = p ** m - 1
    prime_divisors = list(factorize(order))
    for cand in field_elements(p, m):
        c = _trim(cand)
        if not c:
            continue
        if all(poly_powmod(c, order // r, f, p) != (1,) for r in prime_divisors):
            return cand
    raise AssertionError("no generator found")  # unreachable
