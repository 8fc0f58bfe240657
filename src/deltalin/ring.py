"""Exact arithmetic in the truncated unramified p-adic ring W(F_{p^m}) / p^N.

The ring is realized as (Z/p^N)[x] / (f) for a monic degree-m lift f of an
irreducible residue polynomial.  All lifts of the same residue polynomial
give the same ring; the Frobenius lift is the unique ring endomorphism
sending the generator to the root of f congruent to generator^p mod p,
computed once by Newton iteration.

Elements carry a per-element trusted precision `known_prec`: every ring
operation propagates the minimum of its inputs, and the Fermat quotient
delta(a) = (phi(a) - a^p) / p costs exactly one digit.  Coefficients are
always stored canonically reduced to [0, p^N).

The analytic maps (exp_p, log_p, powers of 1 + pt, psi) are evaluated
exactly mod p^known_prec by running their series in an internally lifted
context with enough guard digits to absorb the denominators' valuations.
"""

import math

from . import _residue
from ._intmath import int_to_digits, is_prime, vp, vp_factorial
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
    "invert",
    "frobenius",
    "frobenius_inverse",
    "delta",
    "teichmueller",
    "is_constant",
    "exp_p",
    "log_p",
    "one_plus_pt_pow",
    "psi",
    "valuation",
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
        "max_matrix_dim",
        "_cache",
    )

    def __init__(self, p, m, N, modulus, residue_poly, frob_image, kernel, max_matrix_dim):
        self.p = p
        self.m = m
        self.N = N
        self.modulus = modulus            # monic lift: m tail coeffs + (1,), ints mod p^N
        self.residue_poly = residue_poly  # the same polynomial reduced mod p
        self.frob_image = frob_image      # coefficient tuple of phi(generator)
        self.kernel = kernel
        self.max_matrix_dim = max_matrix_dim
        self._cache = {}

    # -- identity ------------------------------------------------------------

    def same(self, other):
        return (
            isinstance(other, RingContext)
            and self.p == other.p
            and self.m == other.m
            and self.N == other.N
            and self.modulus == other.modulus
        )

    def __repr__(self):
        return f"RingContext(p={self.p}, m={self.m}, N={self.N}, kernel={self.kernel.kind})"

    # -- element constructors --------------------------------------------------

    def element(self, value, prec=None):
        """Build a RingElement from an int, a coefficient sequence, or an element."""
        q, m = self.kernel.q, self.m
        if isinstance(value, RingElement):
            if not self.same(value.ctx):
                raise DomainError("element belongs to a different ring")
            coeffs = value.coeffs
            prec = value.known_prec if prec is None else min(prec, value.known_prec)
        elif isinstance(value, int):
            coeffs = (value % q,) + (0,) * (m - 1)
        else:
            vals = list(value)
            if len(vals) > m:
                raise DomainError(f"at most {m} coordinates expected")
            vals += [0] * (m - len(vals))
            coeffs = tuple(v % q for v in vals)
        return RingElement(self, coeffs, self.N if prec is None else prec)

    def zero(self):
        return RingElement(self, self.kernel.zero, self.N)

    def one(self):
        return RingElement(self, self.kernel.one, self.N)

    def generator(self):
        """The class of x, a lift of a generator of F_{p^m} over F_p."""
        coeffs = tuple(1 if i == 1 else 0 for i in range(self.m))
        if self.m == 1:
            coeffs = (0,)
        return RingElement(self, coeffs, self.N)

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

        Ordered as consecutive powers of a fixed subgroup generator.
        """
        order = self.p ** self.m - 1
        if d <= 0 or order % d:
            raise ParameterError(f"d={d} does not divide p^m - 1 = {order}")
        key = ("torsion", d)
        if key not in self._cache:
            g = self.residue_generator()
            h = _residue.poly_powmod(g, order // d, self.residue_poly, self.p)
            units = []
            cur = (1,)
            for _ in range(d):
                units.append(self.teichmueller(cur))
                cur = _residue.poly_mulmod(cur, h, self.residue_poly, self.p)
            self._cache[key] = tuple(units)
        return self._cache[key]

    def teichmueller(self, residue):
        """The multiplicative (Teichmueller) lift of a residue-field element."""
        p, m = self.p, self.m
        if isinstance(residue, RingElement):
            rtuple = tuple(c % p for c in residue.coeffs)
        elif isinstance(residue, int):
            rtuple = (residue % p,) + (0,) * (m - 1)
        else:
            vals = [v % p for v in residue]
            vals += [0] * (m - len(vals))
            rtuple = tuple(vals[:m])
        key = ("teich", rtuple)
        if key not in self._cache:
            k = self.kernel
            x = rtuple
            pm = p ** m
            # one digit gained per step: x <- x^{p^m}
            for _ in range(self.N):
                x = k.s_pow(x, pm)
            self._cache[key] = x
        return RingElement(self, self._cache[key], self.N)

    def guarded(self, extra):
        """A context at precision N + extra sharing this modulus lift (cached)."""
        if extra <= 0:
            return self
        key = ("guard", extra)
        if key not in self._cache:
            self._cache[key] = make_context(
                self.p,
                self.m,
                self.N + extra,
                max_matrix_dim=self.max_matrix_dim,
                _modulus_lift=self.modulus[:-1],
            )
        return self._cache[key]


class RingElement:
    """One element of O_N: coefficient tuple plus trusted precision."""

    __slots__ = ("ctx", "coeffs", "known_prec")

    def __init__(self, ctx, coeffs, known_prec):
        self.ctx = ctx
        self.coeffs = coeffs
        self.known_prec = known_prec

    # -- plumbing ---------------------------------------------------------

    def _peer(self, other):
        if isinstance(other, int):
            return self.ctx.element(other)
        if isinstance(other, RingElement):
            if other.ctx is self.ctx or self.ctx.same(other.ctx):
                return other
            raise DomainError("elements belong to different rings")
        return None

    def __repr__(self):
        return f"RingElement({list(self.coeffs)}, prec={self.known_prec})"

    def __eq__(self, other):
        other = self._peer(other)
        if other is None:
            return NotImplemented
        k = min(self.known_prec, other.known_prec)
        return self.ctx.kernel.s_eq_mod(self.coeffs, other.coeffs, k)

    __hash__ = None

    def eq_at(self, other, k):
        other = self._peer(other)
        return self.ctx.kernel.s_eq_mod(self.coeffs, other.coeffs, k)

    def with_prec(self, k):
        return RingElement(self.ctx, self.coeffs, min(k, self.ctx.N))

    # -- arithmetic ------------------------------------------------------------

    def __add__(self, other):
        other = self._peer(other)
        if other is None:
            return NotImplemented
        return RingElement(
            self.ctx,
            self.ctx.kernel.s_add(self.coeffs, other.coeffs),
            min(self.known_prec, other.known_prec),
        )

    __radd__ = __add__

    def __sub__(self, other):
        other = self._peer(other)
        if other is None:
            return NotImplemented
        return RingElement(
            self.ctx,
            self.ctx.kernel.s_sub(self.coeffs, other.coeffs),
            min(self.known_prec, other.known_prec),
        )

    def __rsub__(self, other):
        other = self._peer(other)
        if other is None:
            return NotImplemented
        return other - self

    def __neg__(self):
        return RingElement(self.ctx, self.ctx.kernel.s_neg(self.coeffs), self.known_prec)

    def __mul__(self, other):
        if isinstance(other, int):
            return RingElement(
                self.ctx,
                self.ctx.kernel.s_scal_int(other, self.coeffs),
                self.known_prec,
            )
        other = self._peer(other)
        if other is None:
            return NotImplemented
        return RingElement(
            self.ctx,
            self.ctx.kernel.s_mul(self.coeffs, other.coeffs),
            min(self.known_prec, other.known_prec),
        )

    __rmul__ = __mul__

    def __pow__(self, e):
        if not isinstance(e, int):
            return NotImplemented
        if e < 0:
            return RingElement(
                self.ctx,
                self.ctx.kernel.s_pow(self.ctx.kernel.s_inv(self.coeffs), -e),
                self.known_prec,
            )
        return RingElement(self.ctx, self.ctx.kernel.s_pow(self.coeffs, e), self.known_prec)

    # -- named operations ----------------------------------------------------

    def is_unit(self):
        return self.ctx.kernel.s_is_unit(self.coeffs)

    def is_zero(self):
        return self.ctx.kernel.s_eq_mod(self.coeffs, self.ctx.kernel.zero, self.known_prec)

    def invert(self):
        return RingElement(self.ctx, self.ctx.kernel.s_inv(self.coeffs), self.known_prec)

    def frobenius(self, k=1):
        return RingElement(self.ctx, self.ctx.kernel.s_frob(self.coeffs, k), self.known_prec)

    def frobenius_inverse(self):
        m = self.ctx.m
        return self.frobenius((m - 1) % m) if m > 1 else self

    def delta(self):
        """Fermat quotient (phi(a) - a^p) / p; costs one digit of precision."""
        if self.known_prec < 2:
            raise PrecisionError("delta needs known_prec >= 2")
        k = self.ctx.kernel
        num = k.s_sub(k.s_frob(self.coeffs, 1), k.s_pow(self.coeffs, self.ctx.p))
        return RingElement(self.ctx, k.s_divp(num), self.known_prec - 1)

    def is_constant(self):
        d = self.delta()
        return d.ctx.kernel.s_eq_mod(d.coeffs, d.ctx.kernel.zero, d.known_prec)

    def valuation(self):
        """min_i v_p(coeff_i), capped by known_prec; math.inf if 0 at precision."""
        p = self.ctx.p
        cap = p ** self.known_prec
        best = None
        for c in self.coeffs:
            c %= cap
            if c:
                v = vp(c, p)
                if best is None or v < best:
                    best = v
        return math.inf if best is None else best

    def residue(self):
        """Image in F_{p^m} as a coefficient tuple mod p."""
        p = self.ctx.p
        return tuple(c % p for c in self.coeffs)


# -- module-level operation surface ---------------------------------------------


def invert(a):
    return a.invert()


def frobenius(a, k=1):
    return a.frobenius(k)


def frobenius_inverse(a):
    return a.frobenius_inverse()


def delta(a):
    return a.delta()


def is_constant(a):
    return a.is_constant()


def valuation(a):
    return a.valuation()


def teichmueller(ctx, residue):
    return ctx.teichmueller(residue)


# -- context construction ---------------------------------------------------------


def make_context(p, m=1, N=2, residue_poly=None, *, max_matrix_dim=8, _modulus_lift=None):
    """Build the ring W(F_{p^m}) / p^N.

    residue_poly, when given, is a sequence of m (or m + 1, monic) integer
    coefficients, little-endian; it must reduce mod p to an irreducible
    polynomial and is used as the modulus lift as provided.  When absent the
    lexicographically first irreducible monic polynomial of degree m is used.
    """
    if type(p) is not int or not is_prime(p) or p == 2:
        raise ParameterError("p must be an odd prime")
    if type(m) is not int or m < 1:
        raise ParameterError("extension degree m must be >= 1")
    if type(N) is not int or N < 2:
        raise ParameterError("precision N must be >= 2")

    if _modulus_lift is not None:
        tail = tuple(_modulus_lift)
    elif residue_poly is None:
        tail = _residue.first_irreducible(p, m)[:m]
    else:
        coeffs = list(residue_poly)
        if len(coeffs) == m + 1:
            if coeffs[-1] % p != 1:
                raise ParameterError("residue polynomial must be monic")
            coeffs = coeffs[:m]
        if len(coeffs) != m:
            raise ParameterError(f"residue polynomial must have degree {m}")
        tail = tuple(coeffs)

    res_poly = tuple(c % p for c in tail) + (1,)
    if not _residue.is_irreducible(res_poly, p):
        raise ParameterError("residue polynomial must be irreducible over F_p")

    kernel = PureKernel(p, m, N, tail)
    frob_image = _newton_frob_image(kernel, p, m, N)
    kernel.set_frob(_frob_matrix(kernel, frob_image, m))
    _check_frobenius_order(kernel, m)

    modulus = tuple(c % kernel.q for c in tail) + (1,)
    return RingContext(p, m, N, modulus, res_poly, frob_image, kernel, max_matrix_dim)


def _newton_frob_image(kernel, p, m, N):
    """Root of the modulus congruent to generator^p, by Newton iteration."""
    if m == 1:
        return (0,)
    gen = tuple(1 if i == 1 else 0 for i in range(m))
    y0 = kernel.s_pow(gen, p)
    y = y0
    coeffs = kernel.modulus_tail
    steps = max(1, (N - 1).bit_length()) + 1
    for _ in range(steps):
        fy = _eval_monic(kernel, coeffs, y, m)
        if not any(fy):
            break
        fpy = _eval_monic_deriv(kernel, coeffs, y, m)
        y = kernel.s_sub(y, kernel.s_mul(fy, kernel.s_inv(fpy)))
    if any(_eval_monic(kernel, coeffs, y, m)):
        raise AlgebraInvariantError("Newton iteration for the Frobenius image did not converge")
    if not kernel.s_eq_mod(y, y0, 1):
        raise AlgebraInvariantError("Frobenius image does not reduce to generator^p")
    return y


def _eval_monic(kernel, tail, y, m):
    acc = kernel.one
    for i in range(m - 1, -1, -1):
        acc = kernel.s_mul(acc, y)
        if tail[i]:
            acc = kernel.s_add(acc, kernel.s_scal_int(tail[i], kernel.one))
    return acc


def _eval_monic_deriv(kernel, tail, y, m):
    acc = kernel.s_scal_int(m, kernel.one)
    for i in range(m - 1, 0, -1):
        acc = kernel.s_mul(acc, y)
        c = i * tail[i]
        if c:
            acc = kernel.s_add(acc, kernel.s_scal_int(c, kernel.one))
    return acc


def _frob_matrix(kernel, frob_image, m):
    flat = [0] * (m * m)
    pw = kernel.one
    for j in range(m):
        for i in range(m):
            flat[i * m + j] = pw[i]
        pw = kernel.s_mul(pw, frob_image)
    return tuple(flat)


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
    if any(c % a.ctx.p for c in a.coeffs):
        raise DomainError(f"{what} requires valuation >= 1")


def _div_ppow(coeffs, p, v):
    if v == 0:
        return tuple(coeffs)
    pv = p ** v
    for c in coeffs:
        if c % pv:
            raise AlgebraInvariantError("exact division by p^v failed in series")
    return tuple(c // pv for c in coeffs)


def exp_p(a):
    """p-adic exponential pO -> 1 + pO, exact mod p^known_prec (p >= 3)."""
    _require_val_ge_one(a, "exp_p")
    ctx = a.ctx
    p, K = ctx.p, a.known_prec
    # include every k whose term a^k / k! can matter mod p^K
    kmax = 1
    for k in range(1, 2 * K + 3):
        if k - vp_factorial(k, p) < K:
            kmax = k
    G = vp_factorial(kmax, p)
    g = ctx.guarded(G)
    gk = g.kernel
    x = tuple(c % gk.q for c in a.coeffs)
    acc = gk.one
    pw = gk.one
    vf = 0
    uf = 1
    for k in range(1, kmax + 1):
        pw = gk.s_mul(pw, x)
        v = vp(k, p)
        vf += v
        uf = uf * (k // p ** v) % gk.q
        if k - vf >= K:
            continue
        num = _div_ppow(pw, p, vf)
        term = gk.s_scal_int(pow(uf, -1, gk.q), num)
        acc = gk.s_add(acc, term)
    return RingElement(ctx, tuple(c % ctx.kernel.q for c in acc), K)


def log_p(u):
    """p-adic logarithm 1 + pO -> pO, exact mod p^known_prec (p >= 3)."""
    ctx = u.ctx
    p, K = ctx.p, u.known_prec
    if K < 1 or (u.coeffs[0] - 1) % p or any(c % p for c in u.coeffs[1:]):
        raise DomainError("log_p requires an argument congruent to 1 mod p")
    scan = K + max(2, K.bit_length()) + 2
    included = [k for k in range(1, scan + 1) if k - vp(k, p) < K]
    kmax = included[-1]
    G = max(vp(k, p) for k in included)
    g = ctx.guarded(G)
    gk = g.kernel
    x = gk.s_sub(tuple(c % gk.q for c in u.coeffs), gk.one)
    acc = gk.zero
    pw = gk.one
    for k in range(1, kmax + 1):
        pw = gk.s_mul(pw, x)
        v = vp(k, p)
        if k - v >= K:
            continue
        num = _div_ppow(pw, p, v)
        term = gk.s_scal_int(pow(k // p ** v, -1, gk.q), num)
        acc = gk.s_add(acc, term) if k % 2 == 1 else gk.s_sub(acc, term)
    return RingElement(ctx, tuple(c % ctx.kernel.q for c in acc), K)


def one_plus_pt_pow(u, a):
    """(1 + pt)^a for u = 1 + pt, computed as exp_p(a * log_p(u)).

    The exponent a is a p-adic integer, given either as a plain int (its
    class mod p^N) or as a RingElement of the prime subring.
    """
    ctx = u.ctx
    prec = u.known_prec
    if isinstance(a, RingElement):
        if not ctx.same(a.ctx):
            raise DomainError("exponent belongs to a different ring")
        pk = ctx.p ** a.known_prec
        if any(c % pk for c in a.coeffs[1:]):
            raise DomainError("exponent must lie in the prime subring Z_p")
        prec = min(prec, a.known_prec + 1)
        e = a.coeffs[0]
    elif isinstance(a, int):
        e = a % ctx.kernel.q
    else:
        raise DomainError("exponent must be an int or a RingElement")
    lg = log_p(u.with_prec(prec))
    return exp_p(RingElement(ctx, ctx.kernel.s_scal_int(e, lg.coeffs), lg.known_prec))


def psi(u):
    """The homomorphism psi(u) = (1/p) log(phi(u) / u^p) on units."""
    if not u.is_unit():
        raise DomainError("psi requires a unit")
    if u.known_prec < 2:
        raise PrecisionError("psi needs known_prec >= 2")
    k = u.ctx.kernel
    w = RingElement(
        u.ctx,
        k.s_mul(k.s_frob(u.coeffs, 1), k.s_inv(k.s_pow(u.coeffs, u.ctx.p))),
        u.known_prec,
    )
    lg = log_p(w)
    return RingElement(u.ctx, k.s_divp(lg.coeffs), u.known_prec - 1)


def digit_string(a):
    """Human-readable p-adic expansion 'd0 + d1*p + d2*p^2 + ...' of coeff 0.

    For m >= 2 each coordinate is expanded separately.
    """
    p, N = a.ctx.p, a.ctx.N
    parts = []
    for c in a.coeffs:
        digits = int_to_digits(c, p, min(a.known_prec, N))
        terms = [str(digits[0])] if digits else ["0"]
        for i, d in enumerate(digits[1:], start=1):
            if d:
                terms.append(f"{d}*{p}^{i}" if i > 1 else f"{d}*{p}")
        parts.append(" + ".join(terms))
    return parts[0] if a.ctx.m == 1 else "(" + ", ".join(parts) + ")"
