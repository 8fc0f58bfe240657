"""The residue field F_{p^m} = F_p[x]/(f), used to bootstrap the ring contexts.

The residue field is the kernel at N = 1: `PureKernel(p, m, 1, f[:m])`
computes in F_p[x]/(f), where q = p, and this module reads it through its
public ops only.  Field elements are coefficient tuples, little-endian, with
entries in [0, p).  A monic degree-m polynomial is passed around as its full
coefficient tuple of length m + 1 with leading coefficient 1.

Rabin's irreducibility test runs by powers of x and a unit test: f is
irreducible exactly when x^(p^m) = x mod f and, for each prime r | m,
x^(p^(m/r)) - x is a unit mod f.  Once x^(p^m) = x holds, f is squarefree
and F_p[x]/(f) is a product of fields F_{p^d} with d | m, so an element a is
a unit (gcd(a, f) = 1) exactly when a^(p^m - 1) = 1.
"""

from functools import lru_cache

from ._intmath import factorize
from ._kernel import PureKernel


def is_irreducible(f, p):
    """Rabin's test for a monic polynomial f over F_p."""
    m = len(f) - 1
    if m < 1 or f[-1] % p != 1:
        return False
    k = PureKernel(p, m, 1, f[:m])
    frobs = [k.x]  # frobs[j] = x^(p^j)
    for _ in range(m):
        frobs.append(k.s_pow(frobs[-1], p))
    if frobs[m] != k.x:
        return False
    order = p ** m - 1
    return all(k.s_pow(k.sub(frobs[m // r], k.x), order) == k.one for r in factorize(m))


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
    k = PureKernel(p, m, 1, f[:m])
    order = p ** m - 1
    cofactors = [order // r for r in factorize(order)]
    for cand in field_elements(p, m):
        if cand != k.zero and all(k.s_pow(cand, e) != k.one for e in cofactors):
            return cand
    raise AssertionError("no generator found")  # unreachable
