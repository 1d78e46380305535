"""Integer number theory shared across modules.

No integer is factored.  Rational roots, radical degrees, Eisenstein
witnesses and polynomial factoring use only primality tests, trial
division by small primes and the factor-free tools here: integer d-th
roots, `coprime_part`, which divides out the primes an integer shares
with another by gcds, and `coprime_base`, which splits integers into
pairwise coprime parts by gcds alone (Bernstein, "Factoring into coprimes
in essentially linear time").
"""

from __future__ import annotations

import math
from typing import Iterable, Iterator

# The primes below 50: trial division here and the first primes of
# `primes`.  An Eisenstein witness is one of them or the part of a gcd
# that none of them divides, when that part is prime.
SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)

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


def primes() -> Iterator[int]:
    """Every prime, ascending: the small primes, then the odd numbers past
    them that pass `is_probable_prime`."""
    yield from SMALL_PRIMES
    q = SMALL_PRIMES[-1]
    while True:
        q += 2
        if is_probable_prime(q):
            yield q


def coprime_part(n: int, m: int) -> int:
    """n >= 1 with every prime it shares with m divided out, by gcds
    alone: each gcd holds every prime n still shares with m, so dividing
    it out until it is 1 leaves the part of n coprime to m."""
    if n < 1:
        raise ValueError(f"{n} is not a positive integer")
    g = math.gcd(n, m)
    while g > 1:
        n //= g
        g = math.gcd(n, g)
    return n


def int_nth_root(n: int, d: int) -> int:
    """Floor of the real d-th root of a nonnegative integer.

    Square roots are `math.isqrt`.  Otherwise Newton's iteration runs from
    above, where every step stays at or above the floor and falls until it
    returns it, seeded by the root of n's top bits: half the root's bits
    from a recursive call, or a float estimate once the root is short
    (Brent & Zimmermann, *Modern Computer Arithmetic*, §1.5.2)."""
    if n < 0:
        raise ValueError("negative radicand")
    if d == 2:
        return math.isqrt(n)
    if n < 2 or d == 1:
        return n
    r = -(-n.bit_length() // d)  # 2^r > the root
    if r <= 48:
        x = int(math.exp(math.log(n) / d)) + 1
        if x**d <= n:
            x = 1 << r
    else:
        # (root of n >> dh) + 1 > root(n) / 2^h, so x lies above the root
        h = r // 2 - 4
        x = (int_nth_root(n >> (d * h), d) + 1) << h
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
        for p in SMALL_PRIMES:
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
