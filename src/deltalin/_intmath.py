"""Small exact integer helpers: primality, factoring, digit vectors."""

import math

# Deterministic Miller-Rabin witnesses, valid for all n < 3.3 * 10^24.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    for q in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % q == 0:
            return n == q
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def factorize(n: int) -> dict:
    """Prime factorization by trial division; fine at desk scale."""
    out = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def vp(n: int, p: int) -> int:
    """p-adic valuation of a nonzero integer."""
    if n == 0:
        raise ValueError("valuation of 0 is infinite")
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def vp_min(values, p: int, k: int):
    """min v_p(c) over the c in values taken mod p^k; math.inf if all vanish."""
    cap = p ** k
    best = math.inf
    for c in values:
        c %= cap
        if c:
            v = vp(c, p)
            if v < best:
                best = v
    return best


def int_to_digits(value: int, p: int, length: int) -> list:
    """Little-endian base-p digits of value mod p^length."""
    digits = []
    for _ in range(length):
        value, d = divmod(value, p)
        digits.append(d)
    return digits


def digits_to_int(digits, p: int) -> int:
    value = 0
    for d in reversed(digits):
        value = value * p + d
    return value
