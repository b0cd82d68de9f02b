"""Exact arithmetic substrate.

Residues in Q/Z (additive stand-ins for roots of unity), congruence
classes, one solver of a*w = b mod m under crt_pair, discrete_log and
unit_dlog, the common weight of two weight classes, and the number theory
helpers the rest of the library leans on.  Unit groups (Z/ell^a)^* are
known by their odd prime ell: `primitive_root` and `unit_dlog`, every
discrete log in (Z/ell)^*, share one factorisation of ell - 1.  `Record`
is the base of the package's immutable records.  Everything is immutable
after construction and safe to share between threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from operator import attrgetter
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from fractions import Fraction

__all__ = [
    "QmodZ",
    "Congruence",
    "crt_pair",
    "WeightCrtResult",
    "weight_crt",
    "glue_pq",
    "prime_to_part",
    "discrete_log",
    "kronecker_symbol",
    "bernoulli",
    "BERNOULLI_BOUND",
    "is_prime",
    "require_odd_primes",
    "PRIME_TEST_BOUND",
    "factorize",
    "valuation",
    "primitive_root",
    "unit_dlog",
]


class Record:
    """Base of the package's immutable records, cheaper to define than a
    frozen dataclass and alike in use.  A subclass lists its fields in
    __slots__, and Record writes its constructor: one parameter per field,
    in __slots__ order, each value stored as given.  A subclass that checks
    or defaults its input defines __init__ instead and stores the fields
    with object.__setattr__.  A record equals only a record of its own class
    with equal fields, hashes as the tuple of its fields, prints as
    ClassName(field=value, ...) and refuses assignment."""

    __slots__ = ()

    def __init_subclass__(cls):
        # the fields as one tuple, for equality and hashing; attrgetter
        # returns a lone field as it is
        get = attrgetter(*cls.__slots__)
        if len(cls.__slots__) == 1:
            get = lambda record, field=get: (field(record),)
        cls._values = staticmethod(get)
        if "__init__" not in vars(cls):
            cls.__init__ = _storing_init(cls)

    def __eq__(self, other) -> bool:
        if other.__class__ is self.__class__:
            return self._values(self) == self._values(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


def _storing_init(cls):
    """cls's constructor, compiled once as namedtuple and dataclasses do:
    __slots__ holds only identifiers, so the source names nothing else.  It
    stores through each slot's own descriptor, past Record.__setattr__."""
    fields = cls.__slots__
    setters = {f"__set_{name}": vars(cls)[name].__set__ for name in fields}
    body = "".join(f"\n    __set_{name}(self, {name})" for name in fields)
    exec(f"def __init__(self, {', '.join(fields)}):{body}", setters)
    init = setters["__init__"]
    init.__qualname__ = f"{cls.__qualname__}.__init__"
    init.__module__ = cls.__module__
    return init


# (bound, k): the first k primes as Miller-Rabin bases decide every n below
# bound; each bound is the least strong pseudoprime to those k bases
# (Sorenson & Webster, Math. Comp. 86, 2017)
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BOUNDS = (
    (2047, 1),
    (1373653, 2),
    (25326001, 3),
    (3215031751, 4),
    (2152302898747, 5),
    (3474749660383, 6),
    (341550071728321, 7),
    (3825123056546413051, 9),
    (318665857834031151167461, 12),
    (3317044064679887385961981, 13),
)
_MR_BASES_PRODUCT = math.prod(_MR_BASES)
PRIME_TEST_BOUND = _MR_BOUNDS[-1][0]


@lru_cache(maxsize=1 << 12, typed=True)
def is_prime(n: int) -> bool:
    """Deterministic primality for n below PRIME_TEST_BOUND (about 3.3e24):
    trial division by the bases, then strong probable-prime tests to as many
    of them as the size of n requires.  n >= PRIME_TEST_BOUND raises
    ValueError.

    The 1 << 12 most recent verdicts are memoised, the bound of unit_group
    and primitive_root.  The key is typed, so a float such as 7.0 still
    raises TypeError, and a refusal is never memoised."""
    if n < 2:
        return False
    if n >= PRIME_TEST_BOUND:
        raise ValueError(
            f"a {n.bit_length()}-bit number exceeds the primality-test bound {PRIME_TEST_BOUND}"
        )
    if math.gcd(n, _MR_BASES_PRODUCT) != 1:
        return n in _MR_BASES
    if n < 43 * 43:  # a composite prime to the bases is at least 43^2
        return True
    for bound, k in _MR_BOUNDS:
        if n < bound:
            break
    return _strong_probable_prime(n, _MR_BASES[:k])


def _strong_probable_prime(n: int, bases: tuple[int, ...]) -> bool:
    """Whether the odd n, prime to the bases, is a strong probable prime to
    each of them (Miller-Rabin).  False proves n composite at any size; True
    proves n prime only below the bound that is_prime pairs with the bases."""
    s = valuation(n - 1, 2)
    d = (n - 1) >> s
    for a in bases:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def require_odd_primes(*primes: int) -> None:
    """Raise ValueError unless the arguments are distinct odd primes."""
    for ell in primes:
        if ell == 2 or not is_prime(ell):
            raise ValueError(f"{ell} must be an odd prime")
    if len(set(primes)) < len(primes):
        raise ValueError("the primes must be distinct")


_TRIAL_BOUND = 1 << 10
# factorize's divisors before it tests a cofactor for primality
_SMALL_DIVISORS = (2, *range(3, _TRIAL_BOUND, 2))
# the budget of one factorisation, in rho steps modulo a number below 2^128:
# a step modulo a b-bit n is charged ceil(b/128)^2 of them, about what it
# costs, and a strong probable-prime test of n past PRIME_TEST_BOUND b steps
# per base.  Two primes of about 19 digits each use it up in about 3.5 s,
# the most it allows, and any larger pair in under 1 s; past about 6600
# bits (2000 digits) one test costs more than all of it.  Splitting two
# primes near 10^12, the hardest case below PRIME_TEST_BOUND, took from
# 1.3e5 to 4.2e6 steps in 24 random products, about 0.5 s on average, and
# 10000000000037 * 10000000000051 8.4e6 steps, 1.9 s (Intel Xeon, Python
# 3.11.7)
_RHO_STEPS = 1 << 24
_RHO_BATCH = 128  # steps whose differences share one gcd


def factorize(n: int) -> dict[int, int]:
    """Prime factorization of n >= 1 as {prime: exponent}, primes increasing.

    Trial division by 2 and the odd numbers below _TRIAL_BOUND; past that,
    each cofactor is tested and, when composite, split by Pollard-Brent rho
    into pieces that are tested and split again, so two prime factors near
    10^9 cost a few thousand steps.  Below PRIME_TEST_BOUND is_prime is the
    test.  At or above it a piece that fails the strong probable-prime test
    to some base is composite; one that passes all of them cannot be proved
    prime, and factorize raises ValueError naming PRIME_TEST_BOUND.  Work
    past the _RHO_STEPS budget raises ValueError naming _RHO_STEPS."""
    if not isinstance(n, int):
        raise TypeError(f"{n!r} is not an integer")
    if n < 1:
        raise ValueError("can only factor positive integers")
    out: dict[int, int] = {}
    for d in _SMALL_DIVISORS:
        if d * d > n:
            break
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
    pending, steps = [n] if n > 1 else [], _RHO_STEPS
    while pending:
        m = pending.pop()
        if m < PRIME_TEST_BOUND:
            if m < _TRIAL_BOUND**2 or is_prime(m):  # no prime below _TRIAL_BOUND is left
                out[m] = out.get(m, 0) + 1
                continue
        else:
            # each base costs about bit_length squarings modulo m
            for a in _MR_BASES:
                steps -= m.bit_length() * _step_cost(m)
                if steps < 0:
                    raise _over_budget(m)
                if not _strong_probable_prime(m, (a,)):
                    break
            else:
                raise ValueError(
                    f"a {m.bit_length()}-bit factor passes the strong probable-prime test "
                    f"to all {len(_MR_BASES)} bases but is not below PRIME_TEST_BOUND = "
                    f"{PRIME_TEST_BOUND}, so it cannot be proved prime"
                )
        f, steps = _rho_divisor(m, steps)
        while m % f == 0:  # a prime power splits once, not once per factor
            m //= f
            pending.append(f)
        if m > 1:
            pending.append(m)
    return dict(sorted(out.items()))


def _step_cost(n: int) -> int:
    """The charge of one step modulo n: ceil(bits/128)^2, 1 below 2^128."""
    return ((n.bit_length() + 127) // 128) ** 2


def _over_budget(n: int) -> ValueError:
    return ValueError(
        f"a {n.bit_length()}-bit factor needs more than _RHO_STEPS = {_RHO_STEPS} rho steps"
    )


def _rho_divisor(n: int, steps: int) -> tuple[int, int]:
    """A divisor 1 < f < n of the odd composite n, and the steps left of the
    steps allowed, each charged _step_cost(n), by Brent's variant of Pollard's
    rho (BIT 20, 1980): the walk x -> x^2 + c mod n from 2, for c = 1, 2, ...
    in turn.  Running out of steps raises ValueError naming _RHO_STEPS."""
    cost = _step_cost(n)
    c = 0
    while True:
        c += 1
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            steps -= 2 * r * cost  # r steps to move x, at most r more to meet it
            if steps < 0:
                raise _over_budget(n)
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys, m = y, min(_RHO_BATCH, r - k)
                for _ in range(m):
                    y = (y * y + c) % n
                    q = q * (x - y) % n
                g = math.gcd(q, n)
                k += m
            r *= 2
        if g == n:  # the batch overshot: retrace it one gcd at a time
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(x - ys, n)
        if g != n:
            return g, steps


def valuation(n: int, p: int) -> int:
    if n == 0:
        raise ValueError("valuation of 0 is undefined")
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def prime_to_part(n: int, ell: int) -> int:
    """Strip every factor of the prime ell from n >= 1."""
    if n < 1:
        raise ValueError("n must be a positive integer")
    if not is_prime(ell):
        raise ValueError(f"{ell} is not prime")
    return n // ell ** valuation(n, ell)


@lru_cache(maxsize=1 << 12)
def _crt_idempotent(d: int, ell: int) -> int:
    """The e in [0, d) with e = 1 modulo the ell-part of d and e = 0 modulo
    the rest of d.  Multiplying by e projects Z/d onto its ell-primary
    component, and by 1 - e onto the prime-to-ell component."""
    rest = prime_to_part(d, ell)
    return rest * pow(rest, -1, d // rest)  # the inverse mod 1 is 0


class QmodZ(Record):
    """A residue in Q/Z kept in canonical form: 0 <= num < den, gcd = 1.

    Written additively; x stands for the root of unity exp(2*pi*i*x), so
    adding residues multiplies the corresponding roots of unity and the
    order of x is its denominator.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: int, den: int = 1):
        if den <= 0:
            raise ValueError("denominator must be positive")
        num %= den
        g = math.gcd(num, den)
        object.__setattr__(self, "num", num // g)
        object.__setattr__(self, "den", den // g)

    @classmethod
    def from_str(cls, text: str) -> "QmodZ":
        num, _, den = text.partition("/")
        return cls(int(num), int(den) if den else 1)

    def order(self) -> int:
        return self.den

    def is_zero(self) -> bool:
        return self.num == 0

    def __add__(self, other: "QmodZ") -> "QmodZ":
        return QmodZ(self.num * other.den + other.num * self.den, self.den * other.den)

    def __sub__(self, other: "QmodZ") -> "QmodZ":
        return QmodZ(self.num * other.den - other.num * self.den, self.den * other.den)

    def __neg__(self) -> "QmodZ":
        return QmodZ(-self.num, self.den)

    def __mul__(self, k: int) -> "QmodZ":
        if not isinstance(k, int):
            return NotImplemented
        return QmodZ(self.num * k, self.den)

    __rmul__ = __mul__

    def part_at(self, ell: int) -> "QmodZ":
        """The ell-primary component (the unique part of ell-power order)."""
        return QmodZ(self.num * _crt_idempotent(self.den, ell), self.den)

    def part_prime_to(self, ell: int) -> "QmodZ":
        return QmodZ(self.num * (1 - _crt_idempotent(self.den, ell)), self.den)

    def __str__(self) -> str:
        return f"{self.num}/{self.den}"

    def __repr__(self) -> str:
        return f"QmodZ({self.num}, {self.den})"


def glue_pq(x, p: int, y, q: int, d: int | None = None):
    """The z whose prime-to-p part is x and whose prime-to-q part is y, or
    None when there is none.  x, y and z are residues mod d standing for
    x/d, y/d and z/d in Q/Z; with d omitted they are QmodZ values, carried
    onto the lcm of their denominators.

    x must have no p-part and y no q-part.  With e_p and e_q the CRT
    idempotents of p and q mod d, z exists exactly when x and y agree away
    from p and q, (1 - e_p - e_q)(x - y) = 0, and it is unique: the p-part
    of y plus the prime-to-p part of x, e_p*y + (1 - e_p)*x.
    """
    if d is None:
        d = math.lcm(x.den, y.den)
        z = glue_pq(x.num * (d // x.den), p, y.num * (d // y.den), q, d)
        return None if z is None else QmodZ(z, d)
    e_p = _crt_idempotent(d, p)
    if (1 - e_p - _crt_idempotent(d, q)) * (x - y) % d:
        return None
    return (e_p * y + (1 - e_p) * x) % d


def _solve_linear(a: int, b: int, m: int) -> int | None:
    """The least w >= 0 with a*w = b mod m, for m >= 1, or None when there
    is none.  With g = gcd(a, m), one exists exactly when g divides b, and
    the solutions are then one class mod m/g."""
    g = math.gcd(a, m)
    if b % g:
        return None
    return b // g * pow(a // g, -1, m // g) % (m // g)  # the inverse mod 1 is 0


@dataclass(frozen=True)
class Congruence:
    """A congruence class: residue modulo modulus, smallest representative kept."""

    residue: int
    modulus: int

    def __post_init__(self):
        if self.modulus < 1:
            raise ValueError("modulus must be positive")
        object.__setattr__(self, "residue", self.residue % self.modulus)

    def contains(self, k: int) -> bool:
        return k % self.modulus == self.residue

    def __str__(self) -> str:
        return f"{self.residue} (mod {self.modulus})"


def crt_pair(c1: Congruence, c2: Congruence) -> Congruence | None:
    """Solve the two-congruence system, allowing non-coprime moduli.

    Returns the unique class modulo lcm of the moduli, or None when the
    residues disagree modulo the gcd (no solution).
    """
    # x = r1 + m1*t with m1*t = r2 - r1 mod m2; t < m2/gcd keeps x below the lcm
    m1, m2 = c1.modulus, c2.modulus
    t = _solve_linear(m1, c2.residue - c1.residue, m2)
    return None if t is None else Congruence(c1.residue + m1 * t, math.lcm(m1, m2))


class WeightCrtResult(Record):
    """The common weight class k_class and its least representative >= 2."""

    __slots__ = ("k_class", "representative")


def weight_crt(
    k_rho: Congruence, k_rho_prime: Congruence
) -> WeightCrtResult | None:
    """Common weight class mod lcm(p-1, q-1), with its least representative
    at least 2, or None when the two weight classes clash."""
    got = crt_pair(k_rho, k_rho_prime)
    if got is None:
        return None
    rep = got.residue
    while rep < 2:
        rep += got.modulus
    return WeightCrtResult(got, rep)


def discrete_log(target: QmodZ, base: QmodZ) -> int | None:
    """Least e >= 0 with e*base = target in Q/Z, or None if target is not
    in the cyclic subgroup generated by base."""
    return _solve_linear(base.num * target.den, target.num * base.den, base.den * target.den)


def kronecker_symbol(D: int, p: int) -> int:
    """Kronecker symbol (D|p) for an odd prime p (Euler's criterion)."""
    require_odd_primes(p)
    a = D % p
    if a == 0:
        return 0
    return 1 if pow(a, (p - 1) // 2, p) == 1 else -1


# largest index bernoulli accepts: Eisenstein series are built up to weight 100
BERNOULLI_BOUND = 100


@lru_cache(maxsize=None)
def _bernoulli_even(m: int) -> Fraction:
    # B_{2m} by the binomial recurrence sum_{r<=n} C(n+1,r) B_r = 0, skipping
    # the vanishing odd indices (B_1 = -1/2 enters once); fractions, which
    # imports decimal, loads here since no other exactnum path needs it
    from fractions import Fraction

    if m == 0:
        return Fraction(1)
    n = 2 * m
    s = Fraction(n + 1, -2)
    for j in range(m):
        s += math.comb(n + 1, 2 * j) * _bernoulli_even(j)
    return -s / (n + 1)


def bernoulli(k: int) -> Fraction:
    """The k-th Bernoulli number for even 2 <= k <= BERNOULLI_BOUND, exactly."""
    if k % 2 != 0 or k < 2:
        raise ValueError("only even k >= 2 are supported")
    if k > BERNOULLI_BOUND:
        raise ValueError(f"k = {k} exceeds the Bernoulli bound {BERNOULLI_BOUND}")
    return _bernoulli_even(k // 2)


@lru_cache(maxsize=1 << 12)
def _unit_order_factors(ell: int) -> tuple[tuple[int, int], ...]:
    """factorize(ell - 1) as (prime, exponent) pairs, for primitive_root and unit_dlog."""
    return tuple(factorize(ell - 1).items())


@lru_cache(maxsize=1 << 12)
def primitive_root(ell: int, exponent: int = 1) -> int:
    """Least primitive root modulo ell^exponent, for an odd prime ell.

    Only ell - 1 is factored.  For exponent >= 2, g generates (Z/ell^a)^*
    exactly when it generates (Z/ell)^* and g^(ell-1) != 1 mod ell^2
    (Ireland & Rosen, GTM 84, ch. 4), so the least root is one g at every
    level a >= 2."""
    if ell == 2 or exponent < 1 or not is_prime(ell):
        raise ValueError(f"needs an odd prime and an exponent >= 1, not {ell}^{exponent}")
    prime_divs = [r for r, _ in _unit_order_factors(ell)]
    # g and g + ell cannot both fail the ell^2 test, so a root lies below 2*ell
    for g in range(2, 2 * ell):
        if g % ell and all(pow(g, (ell - 1) // r, ell) != 1 for r in prime_divs):
            if exponent == 1 or pow(g, ell - 1, ell * ell) != 1:
                return g
    raise AssertionError(f"no primitive root found modulo {ell}^{exponent}")


_BABY_STEPS = 1 << 18  # sqrt(f) baby steps at f near 10^16 would take gigabytes
_GIANT_STEPS = 1 << 21  # about 0.3 s of giant steps; f past 2^39 is refused


def unit_dlog(generator: int, target: int, ell: int) -> int:
    """The least e >= 0 with generator^e = target mod the prime ell, for a primitive
    root generator; a target that is no power of it, 0 among them, raises ValueError.
    Pohlig-Hellman (IEEE Trans. Inf. Theory 24, 1978) over the prime powers f of
    ell - 1, each by baby-step giant-step (Shanks, 1971), its table capped at _BABY_STEPS.
    A prime power f that would need more than _GIANT_STEPS giant steps raises ValueError."""
    e, done = 0, 1
    for r, k in _unit_order_factors(ell):
        f = r**k
        h, t = pow(generator, (ell - 1) // f, ell), pow(target, (ell - 1) // f, ell)
        steps = min(math.isqrt(f) + 1, _BABY_STEPS)
        if f > steps * _GIANT_STEPS:
            raise ValueError(
                f"a discrete log modulo {ell} in its subgroup of order {f} would take "
                f"more than _GIANT_STEPS = {_GIANT_STEPS} giant steps"
            )
        baby, y = {}, 1
        for j in range(steps):
            baby[y] = j
            y = y * h % ell
        giant, i = pow(h, -steps, ell), 0
        while t not in baby and i < f:
            t, i = t * giant % ell, i + steps
        if t not in baby:
            raise ValueError(f"{target % ell} is not a power of {generator} modulo {ell}")
        e += done * _solve_linear(done, i + baby[t] - e, f)  # gcd(done, f) = 1
        done *= f
    return e
