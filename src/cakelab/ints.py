"""Integer number theory shared across modules.

Trial division handles the small primes; Pollard rho with a
deterministic Miller-Rabin primality test covers the rest at far better
than square-root cost, which matters once polynomial constants reach
the billions.

Rational roots and radical degrees need no factorization.  They use only
the factor-free tools here: integer d-th roots and `coprime_base`, which
splits integers into pairwise coprime parts by gcds alone (Bernstein,
"Factoring into coprimes in essentially linear time").
"""

from __future__ import annotations

import math
from typing import Iterable

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_probable_prime(n: int) -> bool:
    """Deterministic Miller-Rabin over the first twelve prime bases,
    correct far beyond 64-bit inputs."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def pollard_rho(n: int) -> int:
    if n % 2 == 0:
        return 2
    seed = 1
    while True:
        x = y = 2
        c = seed
        d = 1
        while d == 1:
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            d = math.gcd(abs(x - y), n)
        if d != n:
            return d
        seed += 1


def factor_positive(n: int) -> dict[int, int]:
    """Prime factorization of a positive integer as {prime: exponent}."""
    if n < 1:
        raise ValueError(f"cannot factor {n}: not a positive integer")
    out: dict[int, int] = {}
    for d in _SMALL_PRIMES:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if is_probable_prime(m):
            out[m] = out.get(m, 0) + 1
            continue
        d = pollard_rho(m)
        stack.append(d)
        stack.append(m // d)
    return out


def divisors(n: int) -> list[int]:
    """All positive divisors of n, ascending (n may be negative)."""
    n = abs(n)
    if n == 0:
        return []
    out = [1]
    for p, e in factor_positive(n).items():
        out = [d * p**k for d in out for k in range(e + 1)]
    out.sort()
    return out


def int_nth_root(n: int, d: int) -> int:
    """Floor of the real d-th root of a nonnegative integer."""
    if n < 0:
        raise ValueError("negative radicand")
    if n == 0:
        return 0
    x = 1 << (-(-n.bit_length() // d))
    while True:
        y = ((d - 1) * x + n // x ** (d - 1)) // d
        if y >= x:
            return x
        x = y


def _perfect_power_root(n: int) -> int:
    """The least c with n = c^k for some k >= 1, for n > 1.

    A prime k with n = c^k divides the multiplicity of every prime factor
    of n.  When no small prime divides n, c is at least 53 > 2^5, which
    bounds k by a fifth of the bit length of n."""
    while True:
        g, m = 0, n
        for p in _SMALL_PRIMES:
            if m % p == 0:
                e = 0
                while m % p == 0:
                    m //= p
                    e += 1
                g = math.gcd(g, e)
        limit = g if g else n.bit_length() // 5
        for k in range(2, limit + 1):
            if (g == 0 or g % k == 0) and is_probable_prime(k):
                c = int_nth_root(n, k)
                if c**k == n:
                    n = c
                    break
        else:
            return n


def coprime_base(ns: Iterable[int]) -> list[int]:
    """Pairwise coprime integers > 1, none a perfect power, ascending, such
    that every nonzero n in ns is up to sign a product of their powers.

    Any two parts sharing a gcd g are replaced by g and both cofactors; each
    split divides the product of all parts by g, so it ends.  Every part is
    then replaced by its least perfect-power root.  Over such a base a
    product of rational powers of the parts is rational only when every
    exponent is an integer, as over the primes."""
    work = []
    for n in ns:
        if n == 0:
            raise ValueError("0 has no coprime base")
        if abs(n) > 1:
            work.append(abs(n))
    base: list[int] = []
    while work:
        m = work.pop()
        for i, b in enumerate(base):
            g = math.gcd(m, b)
            if g > 1:
                del base[i]
                work.extend(x for x in (g, m // g, b // g) if x > 1)
                break
        else:
            base.append(m)
    return sorted(_perfect_power_root(b) for b in base)
