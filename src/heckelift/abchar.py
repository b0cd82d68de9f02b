"""Characters of finite abelian groups valued in Q/Z.

A group is presented as a direct product of cyclic factors Z/d_1 x ... x
Z/d_r, optionally labelled (unit groups carry a label recording the prime
power and the canonical generator).  A character is stored as integers
k_i mod d_i: generator i goes to k_i/d_i in Q/Z.  exactnum's _prime_to
gives the prime-to-ell part of each k_i/d_i.

A mod-ell character is stored through its canonical complex
representative: the unique representative whose order is prime to ell.
With that convention, reduction mod ell is exact group theory: it kills
the ell-primary part of every generator image.

A character of (Z/ell^c)^* is fixed by its value on the generator
g = primitive_root(ell, 2) of every level c >= 1: unit_value reads that
value off any level, and unit_character presents it on a given level.
Images are given on the least primitive root mod ell^c.  That root is g
except at level 1 where the least root g_1 mod ell fails mod ell^2, below
2*10^6 only at ell = 40487: there g = 10 = 5^17305, and a level-1 image x
is the value 17305*x.  _level_one_log gives that e = log_{g_1}(g) mod
ell - 1.  _glue_levels alone lifts a pair of values across two levels.

The cyclotomic character theta mod p is the identity character of (Z/p)^*,
sending g_1 to 1/(p-1), pulled back to (Z/p^a)^*.  Its value on g is
e/(p-1): 1/(p-1) where g_1 = g, 17305/40486 at p = 40487; at level a that
is e*p^(a-1) mod phi(p^a): _cyclotomic gives it, _cyclotomic_log inverts it.

A HeckeCertificate, the witness of a lift over Q or over an imaginary
quadratic field, is a record of such characters, one per place.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache
from typing import Iterator

from .exactnum import (
    QmodZ,
    Record,
    _prime_to,
    glue_pq,
    is_prime,
    primitive_root,
    require_odd_primes,
    unit_dlog,
    valuation,
)

__all__ = [
    "FinAbGroup",
    "GroupCharacter",
    "HeckeCertificate",
    "ModCharacter",
    "UnitLabel",
    "unit_group",
    "reduce_mod",
    "simultaneous_artin_lift",
    "character_conductor",
    "enumerate_characters",
    "unit_value",
    "unit_character",
]

CHARACTER_ENUM_BOUND = 10**6
# unit_group refuses a level ell^a that surely exceeds 2^200000; that is above
# the CLI's 10^4300 integer-parse limit, so every modulus read from input passes
UNIT_GROUP_BOUND = 1 << 200000


class UnitLabel(Record):
    """Marks a generator of the cyclic group (Z/prime^exponent)^*."""

    __slots__ = ("prime", "exponent", "generator")

    def __str__(self) -> str:
        return f"(Z/{self.prime}^{self.exponent})* gen {self.generator}"


class FinAbGroup(Record):
    """Finite abelian group as a product of cyclic factors of the given orders.

    Labels are optional per-generator annotations, None when omitted;
    unit-group presentations use UnitLabel so that conductor bookkeeping
    can recover the prime power.
    """

    __slots__ = ("orders", "labels")

    def __init__(self, orders: tuple[int, ...], labels: tuple[object, ...] = ()):
        orders, labels = tuple(orders), tuple(labels)
        if any(type(d) is not int or d < 2 for d in orders):
            raise ValueError("cyclic factor orders must be ints >= 2")
        if labels and len(labels) != len(orders):
            raise ValueError("one label per generator required")
        self._store(orders, labels or (None,) * len(orders))

    @property
    def rank(self) -> int:
        return len(self.orders)

    def num_characters(self) -> int:
        return math.prod(self.orders)

    def __str__(self) -> str:
        if not self.orders:
            return "1"
        return " x ".join(f"Z/{d}" for d in self.orders)


class GroupCharacter(Record):
    """Homomorphism from a FinAbGroup to Q/Z, stored as exponents: the
    generator of order d_i goes to exps[i]/d_i, with 0 <= exps[i] < d_i.

    The constructor takes the generator images as QmodZ values and the
    images property gives them back; the operations work on the exponents
    and build through _make(group, exps), which trusts each exps[i] already
    reduced mod d_i.
    """

    __slots__ = ("group", "exps")

    def __init__(self, group: FinAbGroup, images: tuple[QmodZ, ...]):
        if len(images) != group.rank:
            raise ValueError("one image per generator required")
        for d, x in zip(group.orders, images):
            if not isinstance(x, QmodZ):
                raise TypeError(f"image {x!r} has type {type(x).__name__}, not QmodZ")
            if d % x.den:
                raise ValueError(f"image {x} is not killed by generator order {d}")
        exps = tuple(x.num * (d // x.den) for d, x in zip(group.orders, images))
        self._store(group, exps)

    @classmethod
    def trivial(cls, group: FinAbGroup) -> "GroupCharacter":
        return cls._make(group, (0,) * group.rank)

    @property
    def images(self) -> tuple[QmodZ, ...]:
        return tuple(map(QmodZ, self.exps, self.group.orders))

    def order(self) -> int:
        return math.lcm(1, *[d // math.gcd(k, d) for k, d in zip(self.exps, self.group.orders)])

    def is_trivial(self) -> bool:
        return not any(self.exps)

    def __mul__(self, other: "GroupCharacter") -> "GroupCharacter":
        if self.group != other.group:
            raise ValueError("characters live on different groups")
        return self._make(
            self.group,
            tuple([(k + j) % d for k, j, d in zip(self.exps, other.exps, self.group.orders)]),
        )

    def part_prime_to(self, ell: int) -> "GroupCharacter":
        exps = tuple([_prime_to(k, d, ell) for k, d in zip(self.exps, self.group.orders)])
        return self._make(self.group, exps)


class ModCharacter(Record):
    """A mod-ell character via its canonical prime-to-ell representative.
    _make(base, residue_char) trusts a prime residue_char and a base of
    order prime to it."""

    __slots__ = ("base", "residue_char")

    def __init__(self, base: GroupCharacter, residue_char: int):
        if not isinstance(base, GroupCharacter):
            raise TypeError(f"base {base!r} has type {type(base).__name__}, not GroupCharacter")
        if not is_prime(residue_char):
            raise ValueError(f"{residue_char} is not prime")
        if base.order() % residue_char == 0:
            raise ValueError(f"canonical representative must have order prime to {residue_char}")
        self._store(base, residue_char)

    @property
    def group(self) -> FinAbGroup:
        return self.base.group

    def order(self) -> int:
        return self.base.order()

    def is_trivial(self) -> bool:
        return self.base.is_trivial()


class HeckeCertificate(Record):
    """Witness data for a lift: infinity type, the finitely many nontrivial
    local unit-group characters, and the conductor they generate (None
    where it is not determined)."""

    __slots__ = ("infinity_type", "local_chars", "conductor")


def reduce_mod(eps: GroupCharacter, ell: int) -> ModCharacter:
    """Reduction of a finite-order character modulo the prime ell.

    Roots of unity of ell-power order reduce to 1, so the reduction is the
    prime-to-ell part of each generator image.  Idempotent by construction.
    """
    if not is_prime(ell):
        raise ValueError(f"{ell} is not prime")
    # the prime-to-ell part has order prime to ell by construction
    return ModCharacter._make(eps.part_prime_to(ell), ell)


def simultaneous_artin_lift(
    tau: ModCharacter, tau_prime: ModCharacter
) -> GroupCharacter | None:
    """The unique finite-order character reducing to tau mod p and to
    tau_prime mod q, or None when no such character exists.

    Existence needs the canonical representatives to agree away from p and
    q: the quotient of the two stored characters must have order dividing
    a power of p*q.  The witness glues the p-part of tau_prime, the q-part
    of tau and their common prime-to-pq part.
    """
    p = tau.residue_char
    q = tau_prime.residue_char
    if p == q:
        raise ValueError("the two residue characteristics must differ")
    group = tau.base.group
    if group != tau_prime.base.group:
        raise ValueError("characters live on different groups")
    exps = []
    for x, y, d in zip(tau.base.exps, tau_prime.base.exps, group.orders):
        z = glue_pq(x, p, y, q, d)
        if z is None:
            return None
        exps.append(z)
    return GroupCharacter._make(group, tuple(exps))


def _glue_levels(ell: int, x: int, a: int, p: int, y: int, b: int, q: int) -> tuple[int, int | None]:
    """(A, z) for A = max(a, b, 1) and z the value on g mod phi(ell^A) that
    reduces mod p to x, at level a, and mod q to y, at level b, or None."""
    A = max(a, b, 1)
    return A, glue_pq(x * ell ** (A - a), p, y * ell ** (A - b), q, _phi(ell, A))


def _unit_lift(ell: int, chi: ModCharacter, chi_prime: ModCharacter) -> GroupCharacter | None:
    """The character of (Z/ell^A)^* reducing to the characters chi and
    chi_prime of unit groups at ell, A the higher of their levels and at
    least 1; None when there is none."""
    x, y = _exponent_on_g(chi.base, ell), _exponent_on_g(chi_prime.base, ell)
    a, b = _level(chi.group), _level(chi_prime.group)
    A, z = _glue_levels(ell, x, a, chi.residue_char, y, b, chi_prime.residue_char)
    return None if z is None else _character_on_g(ell, A, z)


def character_conductor(eps: GroupCharacter) -> int:
    """Least prime power ell^c such that eps factors through (Z/ell^c)^*.

    The group must be a unit-group presentation: zero generators (trivial
    conductor) or a single UnitLabel-marked cyclic factor.
    """
    if eps.group.rank == 0:
        return 1
    if eps.group.rank != 1 or not isinstance(eps.group.labels[0], UnitLabel):
        raise ValueError("conductor needs a labelled (Z/ell^a)^* presentation")
    label = eps.group.labels[0]
    n = eps.order()
    if n == 1:
        return 1
    return label.prime ** (1 + valuation(n, label.prime))


def enumerate_characters(group: FinAbGroup) -> Iterator[GroupCharacter]:
    """Every character of the group exactly once, in lexicographic order of
    the generator images (as multiples of 1/d_i); at most CHARACTER_ENUM_BOUND."""
    size = group.num_characters()
    if size > CHARACTER_ENUM_BOUND:
        raise ValueError(f"character group of size {size} exceeds bound {CHARACTER_ENUM_BOUND}")
    for ks in itertools.product(*(range(d) for d in group.orders)):
        yield GroupCharacter._make(group, ks)


# ---------------------------------------------------------------------------
# Unit-group presentations


@lru_cache(maxsize=1 << 12, typed=True)
def unit_group(ell: int, exponent: int) -> FinAbGroup:
    """(Z/ell^exponent)^* for an odd prime ell, as a cyclic group labelled
    with its canonical generator, primitive_root(ell, exponent).

    exponent 0 gives the trivial group (used for unramified restrictions).
    A bool, a float or a negative exponent raises ValueError, as does a
    level whose ell^exponent surely exceeds UNIT_GROUP_BOUND, before any
    power is formed; the memo is typed, so no bool or float meets an int's entry.
    """
    require_odd_primes(ell)
    if type(exponent) is not int or exponent < 0:
        raise ValueError(f"exponent {exponent!r} must be an int >= 0")
    if exponent == 0:
        return FinAbGroup(())
    if (ell.bit_length() - 1) * exponent >= UNIT_GROUP_BOUND.bit_length():
        raise ValueError(f"{ell}^{exponent} exceeds UNIT_GROUP_BOUND = 2^200000")
    g = primitive_root(ell, exponent)
    return FinAbGroup((_phi(ell, exponent),), (UnitLabel(ell, exponent, g),))


def _phi(ell: int, a: int) -> int:
    """The order of (Z/ell^a)^* for a >= 1."""
    return (ell - 1) * ell ** (a - 1)


def _level(group: FinAbGroup) -> int:
    """The a of the unit group (Z/ell^a)^*, and 1 for the trivial group."""
    return group.labels[0].exponent if group.rank else 1


@lru_cache(maxsize=1 << 12)
def _level_one_log(ell: int) -> int:
    """e with g = g_1^e mod ell, g = primitive_root(ell, 2) and g_1 =
    primitive_root(ell): 1 where they agree, else a unit_dlog (17305 at 40487)."""
    g1, g = primitive_root(ell), primitive_root(ell, 2)
    return 1 if g1 == g else unit_dlog(g, ell)


def _cyclotomic(ell: int, level: int) -> int:
    """The value on g of the cyclotomic character mod ell, e/(ell-1), as a
    residue mod phi(ell^level)."""
    return _level_one_log(ell) * ell ** (level - 1)


def _cyclotomic_log(ell: int, level: int, x: int) -> int:
    """The k mod ell - 1 with x = k * _cyclotomic(ell, level) mod
    phi(ell^level), for x of order prime to ell, a multiple of ell^(level-1)."""
    e, x = _level_one_log(ell), x // ell ** (level - 1)
    return (x if e == 1 else x * pow(e, -1, ell - 1)) % (ell - 1)


def _exponent_on_g(eps: GroupCharacter, ell: int) -> int:
    """unit_value(eps, ell) as the x in [0, d) with value x/d on g, d the
    order of eps's group (1 for the trivial group)."""
    labels = eps.group.labels
    if not labels:
        return 0
    label = labels[0]
    if len(labels) != 1 or not isinstance(label, UnitLabel) or label.prime != ell:
        raise ValueError(f"needs a labelled (Z/{ell}^c)* presentation")
    (k,) = eps.exps
    if label.exponent == 1 and k and _level_one_log(ell) != 1:
        return k * _level_one_log(ell) % (ell - 1)
    return k


def _character_on_g(ell: int, exponent: int, x: int) -> GroupCharacter:
    """The character of (Z/ell^exponent)^* with value x/d on g, d the order
    of the group; exponent 0 gives the trivial character, and x is not
    checked."""
    group = unit_group(ell, exponent)
    if not exponent:
        return GroupCharacter.trivial(group)
    if exponent == 1:
        x = _cyclotomic_log(ell, 1, x)
    return GroupCharacter._make(group, (x % group.orders[0],))


def unit_value(eps: GroupCharacter, ell: int) -> QmodZ:
    """The value on g = primitive_root(ell, 2) of a character of
    (Z/ell^c)^*, c = 0 being the trivial group: at level 1 the image of
    g_1 times e = log_{g_1}(g), above it the image of g itself."""
    return QmodZ(_exponent_on_g(eps, ell), eps.group.num_characters())


def unit_character(ell: int, exponent: int, value: QmodZ) -> GroupCharacter:
    """The character of (Z/ell^exponent)^* whose value on g is value; at
    level 1, g_1 goes to value / e.  A level below the conductor, where the
    order does not divide the group's (1 for exponent 0), is refused."""
    group = unit_group(ell, exponent)
    d = group.num_characters()
    if d % value.den:
        # the order is above 1, so the conductor is ell^(1 + v_ell(order))
        raise ValueError(
            f"a character of conductor {ell ** (1 + valuation(value.den, ell))} does not "
            f"factor through (Z/{ell}^{exponent})*"
        )
    return _character_on_g(ell, exponent, value.num * (d // value.den))
