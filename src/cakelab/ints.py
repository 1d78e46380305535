"""Integer factorization helpers shared across modules.

Trial division handles the small primes; Pollard rho with a
deterministic Miller-Rabin primality test covers the rest at far better
than square-root cost, which matters once polynomial constants reach
the billions.
"""

from __future__ import annotations

import math

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
