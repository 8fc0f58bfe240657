"""Exact arithmetic in the truncated unramified p-adic ring W(F_{p^m}) / p^N.

The ring is realized as (Z/p^N)[x] / (f) for a monic degree-m lift f of an
irreducible residue polynomial.  The residue field F_p[x]/(f mod p) that
tests f and finds the generator of F_{p^m}^* is the same kernel at N = 1
(`_residue`), so arithmetic mod f is written once.  All lifts of the same
residue polynomial give the same ring; the Frobenius lift is the unique
ring endomorphism sending the generator, the class of x, to the root of f
congruent to generator^p mod p.
That root and the Teichmueller lifts, the roots of y^(p^m) = y, are simple
roots, each lifted by one certified Newton routine, `_newton_lift`.

An element (RingElement) and a matrix (matrix.PMatrix) are values of one
base, `_Truncated`: the flat tuple `flat` of canonical coefficients in
[0, p^N) that the kernel works on (an element's is also `coeffs`) and one
trusted precision `known_prec`, with the precision-claim rules written once
there.  Coefficients from outside enter both through one gate,
`_coefficients`.  Every operation propagates the minimum of its inputs'
claims, the Fermat quotient delta(a) = (phi(a) - a^p) / p costs exactly one
digit, and a p-th power gains one: a = b mod p^j, j >= 1, gives a^p = b^p
mod p^{j+1}, so a^e is known to v_p(e) digits more than a (capped at N; 0
stays 0, a^0 is exact).

The analytic maps are power series, all evaluated by one helper, `_series`:
a map supplies the terms c_k x^k, c_k = w_k / p^{v_k}, that can matter mod
p^known_prec, and the helper divides x by p once and sums the terms
w_k p^{k - v_k} (x/p)^k in the context itself, with no guard digits.
exp_p supplies 1/k!, log_p (-1)^{k+1}/k, and the binomial series of
(1 + pT)^a binom(a, k); that one series serves `one_plus_pt_pow` on
elements and `matrix.matrix_one_plus_pT_pow` on matrices.  psi is a log_p.
The roots y = 1 mod p of y^k = b, of elements and matrices alike, are one
Hensel-Newton routine, `_hensel_root`.
Every other operation (inverse, Frobenius, delta, valuation, Teichmueller
lift) is a method of RingElement, of its value base or of RingContext.

Sizes are capped by fixed constants, not settings: `make_context` refuses
p >= MAX_P, m > MAX_M and N > MAX_N, and matrices over any context are
n x n with n <= MAX_DIM.
"""

import math
from collections.abc import Sequence

from . import _residue
from ._intmath import int_to_digits, is_prime, vp, vp_min
from ._kernel import PureKernel
from .errors import (
    AlgebraInvariantError,
    DomainError,
    ParameterError,
    PrecisionError,
)

__all__ = [
    "RingContext",
    "RingElement",
    "make_context",
    "exp_p",
    "log_p",
    "one_plus_pt_pow",
    "psi",
]


class RingContext:
    """The ambient ring O_N = W(F_{p^m}) mod p^N with its Frobenius data.

    Immutable after construction and safe to share across threads; the
    lazily filled `_cache` only ever stores idempotently recomputable values.
    """

    __slots__ = (
        "p",
        "m",
        "N",
        "modulus",
        "residue_poly",
        "frob_image",
        "kernel",
        "_cache",
    )

    def __init__(self, p, m, N, modulus, residue_poly, frob_image, kernel):
        self.p = p
        self.m = m
        self.N = N
        self.modulus = modulus            # monic lift: m tail coeffs + (1,), ints mod p^N
        self.residue_poly = residue_poly  # the same polynomial reduced mod p
        self.frob_image = frob_image      # coefficient tuple of phi(generator)
        self.kernel = kernel
        self._cache = {}

    # -- identity ------------------------------------------------------------

    def same(self, other):
        return other is self or (
            isinstance(other, RingContext)
            and self.p == other.p
            and self.m == other.m
            and self.N == other.N
            and self.modulus == other.modulus
        )

    def __repr__(self):
        return f"RingContext(p={self.p}, m={self.m}, N={self.N}, kernel={self.kernel.kind})"

    # -- element constructors --------------------------------------------------

    def element(self, value):
        """Build a RingElement from an int or an element of this ring (another
        ring's is a DomainError), or by `_coefficients` from a list or tuple
        of at most m int coefficients, where a bool counts as its int."""
        if isinstance(value, int):
            return RingElement(self, (value % self.kernel.q,) + (0,) * (self.m - 1), self.N)
        if isinstance(value, RingElement):
            if not self.same(value.ctx):
                raise DomainError("element belongs to a different ring")
            return RingElement(self, value.flat, value.known_prec)
        return RingElement(self, _coefficients(self.kernel.q, value, 0, self.m), self.N)

    def zero(self):
        return RingElement(self, self.kernel.zero, self.N)

    def one(self):
        return RingElement(self, self.kernel.one, self.N)

    def generator(self):
        """The class of x mod f, a lift of a generator of F_{p^m} over F_p."""
        return RingElement(self, self.kernel.x, self.N)

    # -- derived data -----------------------------------------------------------

    def residue_generator(self):
        """A fixed multiplicative generator of F_{p^m}^* (cached)."""
        key = "gen"
        if key not in self._cache:
            self._cache[key] = _residue.multiplicative_generator(
                self.p, self.m, self.residue_poly
            )
        return self._cache[key]

    def torsion_units(self, d):
        """Teichmueller lifts of the d-torsion subgroup of F_{p^m}^*, d | p^m - 1.

        Ordered as consecutive powers of a fixed subgroup generator.  The
        lift is multiplicative, so the units are the powers of one lift,
        teichmueller(g)^((p^m - 1)/d) for the residue generator g.
        """
        order = self.p ** self.m - 1
        if type(d) is not int:
            raise ParameterError(f"d must be an integer, got {d!r}")
        if d <= 0 or order % d:
            raise ParameterError(f"d={d} does not divide p^m - 1 = {order}")
        key = ("torsion", d)
        if key not in self._cache:
            h = self.teichmueller(self.residue_generator()) ** (order // d)
            units = [self.one()]
            for _ in range(d - 1):
                units.append(units[-1] * h)
            self._cache[key] = tuple(units)
        return self._cache[key]

    def teichmueller(self, residue):
        """The multiplicative (Teichmueller) lift of a residue-field element r:
        the simple root y = r mod p of y^Q - y, Q = p^m, by `_newton_lift`."""
        rtuple = self.element(residue).residue()
        key = ("teich", rtuple)
        if key not in self._cache:
            k, Q = self.kernel, self.p ** self.m

            def g(y):
                y1 = k.s_pow(y, Q - 1)
                return k.sub(k.s_mul(y1, y), y), k.sub(k.scal_int(Q, y1), k.one)

            self._cache[key] = _newton_lift(k, rtuple, g, self.N)
        return RingElement(self, self._cache[key], self.N)

    def guarded(self, extra):
        """A context at precision N + extra sharing this modulus lift (cached)."""
        if extra <= 0:
            return self
        key = ("guard", extra)
        if key not in self._cache:
            self._cache[key] = make_context(
                self.p, self.m, self.N + extra, _modulus_lift=self.modulus[:-1]
            )
        return self._cache[key]


class _Truncated:
    """A value of O_N or of M_n(O_N): the flat canonical coefficient tuple the
    kernel works on, and one trusted precision `known_prec` for all of it.

    The precision-claim rules and the coefficient-wise ops live here once,
    for RingElement and matrix.PMatrix alike: an op claims the minimum of its
    inputs' claims, `with_prec` only lowers a claim, `assume_prec` is the one
    way to raise it, and `==` compares at the smaller claim.  A subclass
    supplies `_wrap(flat, prec)`, a value of its own kind, and
    `_peer(other)`, other as an operand of its own kind, or None for an
    operand it does not take.
    """

    __slots__ = ("ctx", "flat", "known_prec")

    def _require(self, other):
        """`_peer(other)` for a method with no reflected form to defer to."""
        peer = self._peer(other)
        if peer is None:
            raise DomainError(f"expected a {type(self).__name__}, got {type(other).__name__}")
        return peer

    def __eq__(self, other):
        other = self._peer(other)
        if other is None:
            return NotImplemented
        k = min(self.known_prec, other.known_prec)
        return self.ctx.kernel.eq_mod(self.flat, other.flat, k)

    __hash__ = None

    @staticmethod
    def _digits(k):
        """k, a precision argument: an int >= 0, else ParameterError."""
        if type(k) is not int or k < 0:
            raise ParameterError(f"precision must be an integer >= 0, got {k!r}")
        return k

    @staticmethod
    def _frob_power(k):
        """k, a power of the Frobenius: an int, else ParameterError; any
        int, negative ones included, means phi^(k mod m)."""
        if type(k) is not int:
            raise ParameterError(f"Frobenius power must be an integer, got {k!r}")
        return k

    def eq_at(self, other, k):
        """Whether self and other agree mod p^k, whatever either claims."""
        return self.ctx.kernel.eq_mod(self.flat, self._require(other).flat, self._digits(k))

    def with_prec(self, k):
        """The same value claimed to min(k, known_prec) digits: a claim only falls."""
        return self._wrap(self.flat, min(self._digits(k), self.known_prec))

    def assume_prec(self, k):
        """The same value claimed to min(k, N) digits, whatever it claimed before.

        The one way to raise a claim: the caller vouches for the digits, by a
        check it has just made or by a definition (a solve starts from its
        u0's residue)."""
        return self._wrap(self.flat, min(self._digits(k), self.ctx.N))

    def __add__(self, other):
        other = self._peer(other)
        if other is None:
            return NotImplemented
        return self._wrap(
            self.ctx.kernel.add(self.flat, other.flat), min(self.known_prec, other.known_prec)
        )

    __radd__ = __add__

    def __sub__(self, other):
        other = self._peer(other)
        if other is None:
            return NotImplemented
        return self._wrap(
            self.ctx.kernel.sub(self.flat, other.flat), min(self.known_prec, other.known_prec)
        )

    def __rsub__(self, other):
        other = self._peer(other)
        if other is None:
            return NotImplemented
        return other - self

    def __neg__(self):
        return self._wrap(self.ctx.kernel.neg(self.flat), self.known_prec)

    def valuation(self):
        """min v_p over the coefficients, capped by known_prec; math.inf if 0."""
        return vp_min(self.flat, self.ctx.p, self.known_prec)

    def is_zero(self):
        return self.valuation() == math.inf


class RingElement(_Truncated):
    """One element of O_N: its m coefficients and their trusted precision."""

    __slots__ = ()

    def __init__(self, ctx, flat, known_prec):
        self.ctx = ctx
        self.flat = flat
        self.known_prec = known_prec

    @property
    def coeffs(self):
        """The coefficient tuple, `flat` by its public name."""
        return self.flat

    # -- plumbing ---------------------------------------------------------

    def _wrap(self, flat, prec):
        return RingElement(self.ctx, flat, prec)

    def _peer(self, other):
        if isinstance(other, int):
            return self.ctx.element(other)
        if isinstance(other, RingElement):
            if self.ctx.same(other.ctx):
                return other
            raise DomainError("elements belong to different rings")
        return None

    def __repr__(self):
        return f"RingElement({list(self.flat)}, prec={self.known_prec})"

    # -- arithmetic ------------------------------------------------------------

    def __mul__(self, other):
        if isinstance(other, int):
            return self._wrap(self.ctx.kernel.scal_int(other, self.flat), self.known_prec)
        other = self._peer(other)
        if other is None:
            return NotImplemented
        return self._wrap(
            self.ctx.kernel.s_mul(self.flat, other.flat), min(self.known_prec, other.known_prec)
        )

    __rmul__ = __mul__

    def __pow__(self, e):
        if not isinstance(e, int):
            return NotImplemented
        k = self.ctx.kernel
        base = self.flat if e >= 0 else k.s_inv(self.flat)
        return self._wrap(k.s_pow(base, abs(e)), _power_prec(self.ctx, self.known_prec, e))

    # -- named operations ----------------------------------------------------

    def is_unit(self):
        return self.ctx.kernel.s_is_unit(self.flat)

    def invert(self):
        return self._wrap(self.ctx.kernel.s_inv(self.flat), self.known_prec)

    def frobenius(self, k=1):
        return self._wrap(self.ctx.kernel.s_frob(self.flat, self._frob_power(k)), self.known_prec)

    def frobenius_inverse(self):
        m = self.ctx.m
        return self.frobenius((m - 1) % m) if m > 1 else self

    def delta(self):
        """Fermat quotient (phi(a) - a^p) / p; costs one digit of precision."""
        if self.known_prec < 2:
            raise PrecisionError("delta needs known_prec >= 2")
        k = self.ctx.kernel
        num = k.sub(k.s_frob(self.flat, 1), k.s_pow(self.flat, self.ctx.p))
        return self._wrap(k.s_divp(num), self.known_prec - 1)

    def is_constant(self):
        return self.delta().is_zero()

    def residue(self):
        """Image in F_{p^m} as a coefficient tuple mod p."""
        p = self.ctx.p
        return tuple(c % p for c in self.flat)


def _coefficients(q, values, fewest, most):
    """The input gate of every coefficient: values, a list or tuple of fewest
    to most ints (a bool counts as its int), reduced mod q and zero-padded to
    `most`; anything else is a ParameterError, one message per fault."""
    if not isinstance(values, (list, tuple)):
        name = type(values).__name__
        raise ParameterError(f"coefficients must be a list or tuple of integers, got a {name}")
    if not fewest <= len(values) <= most:
        want = most if fewest == most else f"at most {most}"
        raise ParameterError(f"expected {want} coefficients, got {len(values)}")
    for c in values:
        if not isinstance(c, int):
            raise ParameterError(f"coefficients must be integers, got {c!r}")
    return tuple([c % q for c in values]) + (0,) * (most - len(values))


def _power_prec(ctx, known, e):
    """The digits of x^e for an x known to `known` digits (module docstring)."""
    if e == 0:
        return ctx.N
    return min(known + vp(abs(e), ctx.p), ctx.N) if known > 0 else known


# -- context construction ---------------------------------------------------------


# Size caps on a context built from its parameters; every size the tests,
# the acceptance suite and the benchmarks use lies inside them (the largest
# prime is 2^40 + 15, which puts q = p^2 beyond 64 bits).
MAX_P = 2 ** 64  # p < MAX_P
MAX_M = 8
MAX_N = 1024
MAX_DIM = 8  # matrices are n x n with n <= MAX_DIM


def make_context(p, m=1, N=2, residue_poly=None, *, _modulus_lift=None):
    """Build the ring W(F_{p^m}) / p^N.

    residue_poly, when given, is a sequence of m (or m + 1, monic) int
    coefficients, little-endian (bools are refused); it must reduce mod p to
    an irreducible polynomial and is used as the modulus lift as provided.
    It is tested on every call by `_residue.is_irreducible`, Rabin's test
    run by powers of x and a unit test in F_p[x]/(f), the kernel at N = 1.
    When absent the lexicographically first irreducible monic polynomial of
    degree m is used: `_residue.first_irreducible` finds and tests it once
    per (p, m) and keeps it in a small bounded memo.  The context itself is
    built afresh on every call.

    p < MAX_P, m <= MAX_M and N <= MAX_N, or ParameterError.  A context
    built by `RingContext.guarded` (through `_modulus_lift`) derives from a
    checked one and may exceed MAX_N by its guard digits.
    """
    capped = _modulus_lift is None
    if capped and type(p) is int and p >= MAX_P:  # before the primality test, slow on a huge p
        raise ParameterError(f"p={p} exceeds the cap: p must be below {MAX_P}")
    if type(p) is not int or not is_prime(p) or p == 2:
        raise ParameterError("p must be an odd prime")
    if type(m) is not int or m < 1:
        raise ParameterError("extension degree m must be >= 1")
    if capped and m > MAX_M:
        raise ParameterError(f"extension degree m={m} exceeds the cap {MAX_M}")
    if type(N) is not int or N < 2:
        raise ParameterError("precision N must be >= 2")
    if capped and N > MAX_N:
        raise ParameterError(f"precision N={N} exceeds the cap {MAX_N}")

    default = residue_poly is None and _modulus_lift is None
    if _modulus_lift is not None:
        tail = tuple(_modulus_lift)
    elif default:
        tail = _residue.first_irreducible(p, m)[:m]
    else:
        if not isinstance(residue_poly, Sequence) or any(type(c) is not int for c in residue_poly):
            raise ParameterError("residue polynomial must be a sequence of integers")
        coeffs = list(residue_poly)
        if len(coeffs) == m + 1:
            if coeffs[-1] % p != 1:
                raise ParameterError("residue polynomial must be monic")
            coeffs = coeffs[:m]
        if len(coeffs) != m:
            raise ParameterError(f"residue polynomial must have degree {m}")
        tail = tuple(coeffs)

    res_poly = tuple(c % p for c in tail) + (1,)
    # the default passed Rabin's test in first_irreducible's (memoized) search
    if not default and not _residue.is_irreducible(res_poly, p):
        raise ParameterError("residue polynomial must be irreducible over F_p")

    kernel = PureKernel(p, m, N, tail)
    frob_image = _newton_frob_image(kernel)
    kernel.set_frob(frob_image)
    _check_frobenius_order(kernel, m)

    modulus = tuple(c % kernel.q for c in tail) + (1,)
    return RingContext(p, m, N, modulus, res_poly, frob_image, kernel)


def _newton_lift(kernel, y0, g, N):
    """The root y = y0 mod p of g, mod p^N, for y0 a simple root mod p;
    g(y) returns the flats (g(y), g'(y)).  Each step y <- y - g(y)/g'(y),
    one s_inv and one s_mul, doubles the correct digits, so bitlen(N-1)
    steps reach N; the check g(y) = 0 mod p^N certifies y, as a simple root
    is unique mod p^N."""
    y = y0
    gy, dgy = g(y)
    if any(c % kernel.p for c in gy):
        raise AlgebraInvariantError("Newton lift: the start is not a root mod p")
    for _ in range((N - 1).bit_length()):
        if not any(gy):
            break
        y = kernel.sub(y, kernel.s_mul(gy, kernel.s_inv(dgy)))
        gy, dgy = g(y)
    if any(gy):
        raise AlgebraInvariantError("Newton lift did not converge")
    return y


def _newton_frob_image(kernel):
    """The root of the modulus f congruent to generator^p, by `_newton_lift`."""
    m, tail, one = kernel.m, kernel.modulus_tail, kernel.one
    if m == 1:
        return kernel.x  # phi is the identity on Z/p^N

    def f(y):  # (f(y), f'(y)) by one Horner pass; zero coefficients add nothing
        fy, dfy = y, one
        for i in range(m - 1, -1, -1):
            if tail[i]:
                fy = kernel.add(fy, kernel.scal_int(tail[i], one))
            if i:
                dfy = kernel.add(kernel.s_mul(dfy, y), fy)
                fy = kernel.s_mul(fy, y)
        return fy, dfy

    return _newton_lift(kernel, kernel.s_pow(kernel.x, kernel.p), f, kernel.N)


def _check_frobenius_order(kernel, m):
    for j in range(m):
        e = tuple(1 if i == j else 0 for i in range(m))
        out = kernel.s_frob(kernel.s_frob(e, m - 1), 1)
        if out != e:
            raise AlgebraInvariantError("Frobenius lift does not have order m")


# -- analytic maps -------------------------------------------------------------


def _require_val_ge_one(a, what):
    if a.known_prec < 1:
        raise PrecisionError(f"{what} needs at least one known digit")
    if any(c % a.ctx.p for c in a.flat):
        raise DomainError(f"{what} requires valuation >= 1")


def _series(ctx, x, n, terms):
    """sum_k w_k x^k / p^{v_k} mod p^N, over the (k, w_k, v_k) of `terms`.

    x is the flat tuple of an n x n matrix (n = 1: an element) of valuation
    >= 1, and the terms come in increasing k with v_k <= k.  With t = x / p,
    exact on the representatives, x^k / p^{v_k} = p^{k - v_k} t^k in
    Z[x]/(f), so the powers of t are formed mod p^N with no guard digits:
    each w_k is an integer taken mod p^N, and every term, and the sum, is
    exact mod p^N.  Every map here has k - v_k >= 1 for k >= 1 at odd p,
    as v_p(k!) <= (k - 1)/(p - 1).
    """
    kernel = ctx.kernel
    p, q = ctx.p, kernel.q
    t = kernel.s_divp(x) if n == 1 else kernel.m_divp(x)
    pw = kernel.m_identity(n)
    acc = [0] * len(pw)  # unreduced; taken mod p^N once, at the end
    j = 0
    for k, w, v in terms:
        while j < k:
            pw = kernel.s_mul(pw, t) if n == 1 else kernel.m_mul(pw, t, n)
            j += 1
        c = w * pow(p, k - v, q) % q
        acc = [s + c * e for s, e in zip(acc, pw)]
    return tuple(s % q for s in acc)


def exp_p(a):
    """p-adic exponential pO -> 1 + pO, exact mod p^known_prec (p >= 3).

    The series sum a^k / k! over the k with k - v_p(k!) < K, the terms that
    can matter mod p^K; k - v_p(k!) >= k/2, so every such k lies below 2K.
    """
    _require_val_ge_one(a, "exp_p")
    ctx, K = a.ctx, a.known_prec
    p, q = ctx.p, ctx.kernel.q
    terms = [(0, 1, 0)]
    v = 0  # v_p(k!)
    unit = 1  # k! / p^v mod q
    for k in range(1, 2 * K + 3):
        vk = vp(k, p)
        v += vk
        unit = unit * (k // p ** vk) % q
        if k - v < K:
            terms.append((k, pow(unit, -1, q), v))
    return RingElement(ctx, _series(ctx, a.flat, 1, terms), K)


def log_p(u):
    """p-adic logarithm 1 + pO -> pO, exact mod p^known_prec (p >= 3).

    The series sum (-1)^{k+1} x^k / k in x = u - 1 over the k with
    k - v_p(k) < K (none at K = 1: log = 0).
    """
    ctx, K = u.ctx, u.known_prec
    p, q = ctx.p, ctx.kernel.q
    if K < 1:
        raise PrecisionError("log_p needs at least one known digit")
    if not u.eq_at(ctx.one(), 1):
        raise DomainError("log_p requires an argument congruent to 1 mod p")
    terms = []
    for k in range(1, K + max(2, K.bit_length()) + 3):
        v = vp(k, p)
        if k - v < K:
            w = pow(k // p ** v, -1, q)
            terms.append((k, w if k % 2 else q - w, v))
    x = ctx.kernel.sub(u.flat, ctx.kernel.one)
    return RingElement(ctx, _series(ctx, x, 1, terms), K)


def one_plus_pt_pow(u, a):
    """(1 + pt)^a for u = 1 + pt, as the binomial series sum binom(a, k) (pt)^k.

    The exponent a is a p-adic integer, given either as a plain int (its
    class mod p^N) or as a RingElement of the prime subring.
    """
    coeffs, K = _binomial_power(u.ctx, u.flat, 1, a, u.known_prec)
    return RingElement(u.ctx, coeffs, K)


def _binomial_power(ctx, flat, n, a, K):
    """(flat of (1 + pT)^a, its precision) for 1 + pT = flat known to K digits.

    flat is an n x n matrix (n = 1: an element) that must be known to
    K >= 1 digits and congruent to 1 mod p.  a is an int or a RingElement of the prime subring Z_p; a known
    mod p^k moves the power only mod p^{k+1}.  The series is
    sum binom(a, k) (pT)^k over k < K, since (pT)^k vanishes mod p^K from
    k = K on; binom(a, k) is a(a-1)...(a-k+1) / (k! / p^v) over p^v, with
    v = v_p(k!).
    """
    if K < 1:
        raise PrecisionError("(1 + pT)^a needs at least one known digit")
    kernel = ctx.kernel
    one = kernel.m_identity(n)
    if not kernel.eq_mod(flat, one, 1):
        raise DomainError("(1 + pT)^a requires an argument congruent to 1 mod p")
    if isinstance(a, RingElement):
        if not ctx.same(a.ctx):
            raise DomainError("exponent belongs to a different ring")
        pk = ctx.p ** a.known_prec
        if any(c % pk for c in a.flat[1:]):
            raise DomainError("exponent must lie in the prime subring Z_p")
        a, K = a.flat[0], min(K, a.known_prec + 1)
    elif not isinstance(a, int):
        raise DomainError("exponent must be an int or a RingElement")
    p, q = ctx.p, kernel.q
    terms = [(0, 1, 0)]
    v = 0
    w = 1
    for k in range(1, K):
        vk = vp(k, p)
        v += vk
        w = w * (a - k + 1) * pow(k // p ** vk, -1, q) % q
        terms.append((k, w, v))
    return _series(ctx, kernel.sub(flat, one), n, terms), K


def _hensel_root(ctx, b, n, k, K):
    """(flat of the root y = 1 mod p of y^k = b, K): b = 1 mod p is the flat
    of an n x n matrix (n = 1: an element) known to K digits, p does not
    divide k.

    Hensel-Newton from 1: the closed-form step 1 + (b - 1)/k, then
    bitlen(K-1) - 1 steps y <- ((k-1) y + y^{1-k} b)/k of one s_inv (n = 1)
    or one m_solve (n > 1) each.  Every iterate is a polynomial in b, so it
    commutes with b and the root, and each step doubles the correct digits:
    2 after the closed-form step, 2^bitlen(K-1) >= K at the end.

    The check y^k = b at K certifies the result: the root is unique, and for
    L, S = 1 mod p, L^k - S^k = sum_{i<k} L^i (L - S) S^{k-1-i}
    = k(L - S) + O(p(L - S)), with k a unit, so v_p(L - S) = v_p(L^k - S^k).
    """
    kernel = ctx.kernel
    one = kernel.m_identity(n)
    if not kernel.eq_mod(b, one, 1):
        raise DomainError("a root y = 1 mod p of y^k = b requires b congruent to 1 mod p")

    def power(y, e):
        if n == 1:
            return kernel.s_pow(y, e)
        out = one if e == 0 else y
        for _ in range(e - 1):
            out = kernel.m_mul(out, y, n)
        return out

    inv_k = pow(k, -1, kernel.q)
    y = kernel.add(one, kernel.scal_int(inv_k, kernel.sub(b, one)))
    for _ in range((max(K, 2) - 1).bit_length() - 1):
        yk1 = power(y, k - 1)
        t = kernel.s_mul(kernel.s_inv(yk1), b) if n == 1 else kernel.m_solve(yk1, b, n)
        y = kernel.scal_int(inv_k, kernel.add(kernel.scal_int(k - 1, y), t))
    if not kernel.eq_mod(power(y, k), b, K):
        raise AlgebraInvariantError("Newton root failed to converge")
    return y, K


def psi(u):
    """The homomorphism psi(u) = (1/p) log(phi(u) / u^p) on units."""
    if not u.is_unit():
        raise DomainError("psi requires a unit")
    if u.known_prec < 2:
        raise PrecisionError("psi needs known_prec >= 2")
    k = u.ctx.kernel
    w = RingElement(
        u.ctx,
        k.s_mul(k.s_frob(u.flat, 1), k.s_inv(k.s_pow(u.flat, u.ctx.p))),
        u.known_prec,
    )
    lg = log_p(w)
    return RingElement(u.ctx, k.s_divp(lg.flat), u.known_prec - 1)


def digit_string(a):
    """Human-readable p-adic expansion 'd0 + d1*p + d2*p^2 + ...' of coeff 0.

    For m >= 2 each coordinate is expanded separately.
    """
    p, N = a.ctx.p, a.ctx.N
    parts = []
    for c in a.flat:
        digits = int_to_digits(c, p, min(a.known_prec, N))
        terms = [str(digits[0])] if digits else ["0"]
        for i, d in enumerate(digits[1:], start=1):
            if d:
                terms.append(f"{d}*{p}^{i}" if i > 1 else f"{d}*{p}")
        parts.append(" + ".join(terms))
    return parts[0] if a.ctx.m == 1 else "(" + ", ".join(parts) + ")"
