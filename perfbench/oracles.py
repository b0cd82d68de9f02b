"""Independent arithmetic the benchmark checks heckelift's answers against.

Nothing here imports heckelift: each routine uses a different algorithm
from the library's, so a wrong answer cannot be confirmed by the code
that produced it.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache


def small_primes(limit: int) -> list[int]:
    """Primes below limit, by the sieve of Eratosthenes."""
    sieve = bytearray([1]) * limit
    sieve[:2] = b"\x00\x00"
    for n in range(2, math.isqrt(limit - 1) + 1):
        if sieve[n]:
            sieve[n * n :: n] = bytearray(len(range(n * n, limit, n)))
    return [n for n in range(limit) if sieve[n]]


def prime_factors(n: int) -> dict[int, int]:
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def v2(n: int) -> int:
    return (n & -n).bit_length() - 1


def prime_to(n: int, ell: int) -> int:
    while n % ell == 0:
        n //= ell
    return n


def jacobi(a: int, n: int) -> int:
    """Jacobi symbol (a|n) for odd n > 0, by quadratic reciprocity."""
    a %= n
    result = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def kronecker(D: int, n: int) -> int:
    """Kronecker symbol (D|n) for a discriminant D and n >= 1."""
    result = 1
    while n % 2 == 0:
        n //= 2
        if D % 2 == 0:
            return 0
        if D % 8 in (3, 5):
            result = -result
    return result * jacobi(D, n)


def is_fundamental(D: int) -> bool:
    """Fundamental discriminant D < -4."""
    if D >= -4:
        return False
    if D % 4 == 1:
        m = D
    elif D % 4 == 0 and (D // 4) % 4 in (2, 3):
        m = D // 4
    else:
        return False
    return all(e == 1 for e in prime_factors(-m).values())


def analytic_class_number(D: int) -> int:
    """h(D) for fundamental D < -4 by the class number formula
    h = (2 - (D|2))^-1 * sum_{0 < a < |D|/2} (D|a)."""
    s = sum(kronecker(D, a) for a in range(1, (-D) // 2 + 1))
    h, r = divmod(s, 2 - kronecker(D, 2))
    if r:
        raise ArithmeticError(f"class number formula gave a non-integer for {D}")
    return h


@lru_cache(maxsize=None)
def bernoulli(k: int) -> Fraction:
    """B_k by the Akiyama-Tanigawa algorithm (B_1 = +1/2 convention, which
    only differs at k = 1)."""
    a = [Fraction(0)] * (k + 1)
    for m in range(k + 1):
        a[m] = Fraction(1, m + 1)
        for j in range(m, 0, -1):
            a[j - 1] = j * (a[j - 1] - a[j])
    return a[0]


def eisenstein_a1(k: int) -> Fraction:
    """q^1 coefficient -2k/B_k of the normalised Eisenstein series E_k."""
    return Fraction(-2 * k) / bernoulli(k)


def sigma(k: int, n: int) -> int:
    return sum(d**k for d in range(1, n + 1) if n % d == 0)


def frac_mod1(x: Fraction) -> Fraction:
    return x - math.floor(x)
