"""Helpers shared by the test modules: the abelian groups of small order
and the exhaustive check of simultaneous Artin lifting against
enumeration, offered as fixtures; three references that the modules import
for their own module-level references: walk_dlog, the discrete log by
walking, xgcd, the extended Euclidean algorithm, and primes_below, the
sieve of Eratosthenes; and run_python, the one way a test starts a fresh
interpreter."""

import itertools
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from heckelift.abchar import (
    FinAbGroup,
    GroupCharacter,
    ModCharacter,
    enumerate_characters,
    simultaneous_artin_lift,
)
from heckelift.exactnum import QmodZ, factorize, prime_to_part


def walk_dlog(generator: int, target: int, modulus: int) -> int:
    """Reference discrete log in (Z/modulus)^*: the least e with
    generator^e = target, found by walking the powers of generator."""
    x = 1
    for e in range(modulus):
        if x == target % modulus:
            return e
        x = x * generator % modulus
    raise ValueError(f"{target} is not a power of {generator} modulo {modulus}")


def xgcd(a: int, b: int) -> tuple[int, int, int]:
    """Reference extended gcd: (g, x, y) with a*x + b*y = g = gcd(a, b), g >= 0."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def primes_below(n: int) -> list[int]:
    """Reference list of the primes below n, by the sieve of Eratosthenes."""
    sieve = bytearray([1]) * n
    sieve[0] = sieve[1] = 0
    for i in range(2, math.isqrt(n) + 1):
        if sieve[i]:
            sieve[i * i :: i] = bytes(len(range(i * i, n, i)))
    return [m for m in range(n) if sieve[m]]


ROOT = Path(__file__).resolve().parent.parent


def run_python(*args: str, timeout: float = 120, text: bool = True, env=None, input=None):
    """Run sys.executable on args in a fresh process from the checkout, with
    its src/ as PYTHONPATH and env's variables added, and return the
    finished process with stdout and stderr captured.  Past timeout seconds
    the process is killed and subprocess.TimeoutExpired raised."""
    return subprocess.run(
        [sys.executable, *args],
        input=input,
        capture_output=True,
        text=text,
        timeout=timeout,
        cwd=ROOT,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src"), **(env or {})},
    )


def _partitions(n):
    if n == 0:
        yield ()
        return
    for first in range(n, 0, -1):
        for rest in _partitions(n - first):
            if not rest or first >= rest[0]:
                yield (first,) + rest


def _abelian_groups(max_order):
    for n in range(2, max_order + 1):
        per_prime = [
            [tuple(prime**k for k in part) for part in _partitions(e)]
            for prime, e in sorted(factorize(n).items())
        ]
        for combo in itertools.product(*per_prime):
            yield tuple(sorted(itertools.chain.from_iterable(combo)))


def _mod_characters(orders, ell):
    # every mod-ell character, through its canonical prime-to-ell representative
    group = FinAbGroup(orders)
    return [
        ModCharacter(GroupCharacter(group, imgs), ell)
        for imgs in itertools.product(
            *(
                [QmodZ(k, prime_to_part(d, ell)) for k in range(prime_to_part(d, ell))]
                for d in orders
            )
        )
    ]


def _artin_lift_sweep(p, q, max_order):
    pairs = 0
    for orders in _abelian_groups(max_order):
        table = {}
        for eps in enumerate_characters(FinAbGroup(orders)):
            key = (eps.part_prime_to(p).exps, eps.part_prime_to(q).exps)
            assert key not in table, "lift must be unique"
            table[key] = eps
        tau_primes = _mod_characters(orders, q)
        for tau in _mod_characters(orders, p):
            for tau_prime in tau_primes:
                expected = table.get((tau.base.exps, tau_prime.base.exps))
                assert simultaneous_artin_lift(tau, tau_prime) == expected
                pairs += 1
    return pairs


@pytest.fixture
def all_abelian_groups():
    """all_abelian_groups(max_order) yields every isomorphism type of abelian
    group of order 2..max_order, as a sorted tuple of primary cyclic orders."""
    return _abelian_groups


@pytest.fixture
def artin_lift_sweep():
    """artin_lift_sweep(p, q, max_order) checks simultaneous_artin_lift
    against the table of all characters, reduced mod p and mod q, on every
    abelian group of order at most max_order, over every pair of mod-p and
    mod-q characters; it returns the number of pairs checked."""
    return _artin_lift_sweep
