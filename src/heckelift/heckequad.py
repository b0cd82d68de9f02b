"""Lifting criterion over imaginary quadratic fields with unit group {+-1}.

The decision consumes purely local data: for each place above p the tame
exponent of rho, the tame exponent of rho' (well defined modulo the
prime-to-q part of the residue field order minus one) and the wild
p-power-order character of rho'; symmetrically above q.  Three checks
decide existence of a lift up to unramified twist:

  (1)  k_i - a_i = xi_i  mod A_i at each place above p,
  (1') k'_j - b_j = xi'_j mod B_j at each place above q,
  (2)  a parity condition at the unit -1.

The xi values translate the infinity type through the residue embeddings:
xi = -sum of n_sigma * p^kappa(sigma) over the embeddings inducing the
place.  Condition (2) reduces to a parity check because -1 is its own
Teichmueller representative (contributing the order-2 element of Q/Z) and
odd-order wild characters vanish on it.

Class groups of imaginary quadratic fields are computed through reduced
binary quadratic forms, enumerated by their middle coefficient and
composed by Shanks' algorithm, whose Bezout coefficients are modular
inverses.  The group is taken one Sylow subgroup at a time.  A part of
prime order needs no composition, and neither does a 2-part whose
invariant factors genus theory (Gauss: its rank is omega(D) - 1) and
Redei's 4-rank (J. reine angew. Math. 171, 1934: read from Kronecker
symbols of the prime discriminants dividing D) force.  Any other part is
the image of the power map x -> x^m, m the part of h prime to ell (the
forms themselves when m = 1), and it is cyclic as soon as an image has
full order.  Only a part with no such image is walked: each class's
order is read from the walk f, f^2, ... of one cyclic subgroup that
contains it, which stops once a power's inverse is a power already
reached, itself included; the inverse of a reduced (a, b, c) is itself
when b = 0, b = a or a = c, and the reduced (a, -b, c) otherwise.  The
orders in a walked part fix its invariant factors, and the group
structure feeds the counting bound that exhibits non-liftable unramified
pairs.
The last few fields' groups are kept, so the counting bound of a field
whose group was just computed does not compute it again.
"""

from __future__ import annotations

import functools
import math
from collections import Counter
from collections.abc import Iterable
from dataclasses import dataclass
from itertools import zip_longest

from .abchar import FinAbGroup, GroupCharacter, HeckeCertificate
from .exactnum import (
    Record,
    factorize,
    kronecker_symbol,
    prime_to_part,
    require_odd_primes,
    valuation,
)

__all__ = [
    "ImagQuadField",
    "PlaceData",
    "Place",
    "QuadLocalData",
    "PlaceLocal",
    "IdealClassGroup",
    "CriterionReport",
    "CountingReport",
    "splitting_data",
    "xi_values",
    "criterion_decide",
    "class_group",
    "check_class_group_bound",
    "counting_bound",
    "DISCRIMINANT_BOUND",
]

# largest |D| class_group accepts; the slowest fields below it take about
# 0.031 s, nearly all of it enumerating forms (measurements in class_group's
# docstring)
CLASS_GROUP_BOUND = 10**7

# largest |D| ImagQuadField accepts: its fundamental-discriminant test
# factorises |D|, which takes at most 5 ms for |D| near 10^12 with two prime
# factors near 10^6 (rho splits them in about sqrt(10^6) steps); a prime |D|
# takes one primality test (Intel Xeon, Python 3.11.7)
DISCRIMINANT_BOUND = 10**12

SIGMA = "sigma"
SIGMA_BAR = "sigmabar"


class ImagQuadField(Record):
    """Imaginary quadratic field of fundamental discriminant D < -4.

    D < -4 keeps the unit group at {+-1} (the two smaller discriminants
    carry extra roots of unity and are out of scope).
    """

    __slots__ = ("D",)

    def __init__(self, D: int):
        if not isinstance(D, int):
            raise TypeError(f"discriminant {D!r} is not an integer")
        if D >= 0:
            raise ValueError("discriminant must be negative")
        if D >= -4:
            raise ValueError("fields with extra roots of unity are not supported")
        if -D > DISCRIMINANT_BOUND:
            raise ValueError(
                f"|D| = {-D} exceeds the discriminant bound {DISCRIMINANT_BOUND}"
            )
        r = D % 4
        if r == 1:
            if not _is_squarefree(D):
                raise ValueError(f"{D} is not a fundamental discriminant")
        elif r == 0:
            m = D // 4
            if m % 4 in (0, 1) or not _is_squarefree(m):
                raise ValueError(f"{D} is not a fundamental discriminant")
        else:
            raise ValueError(f"{D} is not a discriminant (must be 0 or 1 mod 4)")
        self._store(D)

    def __str__(self) -> str:
        return f"Q(sqrt({self.D}))"


def _is_squarefree(n: int) -> bool:
    return all(e == 1 for e in factorize(abs(n)).values())


class Place(Record):
    """One place above a rational prime: residue size, the congruence modulus
    it contributes (the part of residue_size - 1 prime to the other prime),
    and the embedding-to-exponent map kappa, over the embeddings inducing
    this place."""

    __slots__ = ("name", "residue_size", "modulus", "kappa")


class PlaceData(Record):
    """The places above a rational prime of kind "split" or "inert"."""

    __slots__ = ("prime", "kind", "places")


def splitting_data(K: ImagQuadField, p: int, q: int) -> tuple[PlaceData, PlaceData]:
    """Places above p and q with residue data and the kappa convention.

    Split places pair one embedding each (kappa = 0); an inert place carries
    both embeddings, the first-listed one getting kappa = 0.  Ramified
    primes are rejected.
    """
    require_odd_primes(p, q)
    out = []
    for ell, other in ((p, q), (q, p)):
        sym = kronecker_symbol(K.D, ell)  # +1 split, -1 inert, 0 ramified
        if sym == 0:
            raise ValueError(f"{ell} is ramified in {K}")
        if sym == 1:
            a = prime_to_part(ell - 1, other)
            places = (
                Place(f"v1@{ell}", ell, a, ((SIGMA, 0),)),
                Place(f"v2@{ell}", ell, a, ((SIGMA_BAR, 0),)),
            )
            out.append(PlaceData(ell, "split", places))
        else:
            size = ell * ell
            a = prime_to_part(size - 1, other)
            places = (Place(f"v1@{ell}", size, a, ((SIGMA, 0), (SIGMA_BAR, 1))),)
            out.append(PlaceData(ell, "inert", places))
    return out[0], out[1]


def xi_values(
    data: PlaceData, infinity_type: tuple[int, int]
) -> tuple[int, ...]:
    """xi for each place: minus the kappa-weighted sum of the infinity type
    over the embeddings inducing the place."""
    n = {SIGMA: infinity_type[0], SIGMA_BAR: infinity_type[1]}
    return tuple(
        -sum(n[tag] * data.prime**kap for tag, kap in place.kappa)
        for place in data.places
    )


class PlaceLocal(Record):
    """Local data of the pair at one place: tame exponent k of the character
    in its own characteristic, tame exponent a of the other character, and
    the other character's wild part psi, a GroupCharacter or None."""

    __slots__ = ("k", "a", "psi")

    def __init__(self, k: int, a: int, psi: GroupCharacter | None = None):
        self._store(k, a, psi)


class QuadLocalData(Record):
    """The PlaceLocal data at each place above p and above q."""

    __slots__ = ("above_p", "above_q")


def _validate_local(
    local: QuadLocalData, data_p: PlaceData, data_q: PlaceData
) -> None:
    for entries, data in ((local.above_p, data_p), (local.above_q, data_q)):
        if len(entries) != len(data.places):
            noun = "place" if len(data.places) == 1 else "places"
            raise ValueError(f"expected data for {len(data.places)} {noun} above {data.prime}")
        for entry, place in zip(entries, data.places):
            if not 0 <= entry.a < place.modulus:
                raise ValueError(
                    f"tame exponent {entry.a} out of range mod {place.modulus} at {place.name}"
                )
            if entry.psi is not None and not entry.psi.part_prime_to(data.prime).is_trivial():
                raise ValueError(
                    f"wild character at {place.name} must have {data.prime}-power order"
                )


class ConditionCheck(Record):
    """Condition (1) or (1') at one place: whether lhs = rhs mod modulus."""

    __slots__ = ("place", "lhs", "rhs", "modulus", "ok")


class CriterionReport(Record):
    """The three conditions, condition_2 as (parity sum, target parity, ok),
    the certificate when all hold, else None, and the places above p and q."""

    __slots__ = (
        "condition_1", "condition_1_prime", "condition_2", "certificate", "data_p", "data_q"
    )

    @property
    def ok(self) -> bool:
        return self.certificate is not None


def _certificate_local_char(
    place: Place, tame_power: int, psi: GroupCharacter | None
) -> GroupCharacter:
    tame_order = place.residue_size - 1
    orders: tuple[int, ...] = (tame_order,)
    labels: tuple[object, ...] = (f"k({place.name})^* tame",)
    exps: tuple[int, ...] = (tame_power % tame_order,)
    if psi is not None and not psi.is_trivial():
        orders += psi.group.orders
        labels += tuple(f"{place.name} wild {i}" for i in range(psi.group.rank))
        exps += psi.exps
    return GroupCharacter._make(FinAbGroup(orders, labels), exps)


def criterion_decide(
    K: ImagQuadField,
    p: int,
    q: int,
    local: QuadLocalData,
    infinity_type: tuple[int, int],
) -> CriterionReport:
    """Decide liftability (up to unramified twist) of local data with the
    given infinity type; on success the certificate carries one unit-group
    character per place.

    At an inert place the first embedding (sigma) gets kappa = 0; the
    verdict does not depend on that choice once the infinity type is
    relabelled with it.
    """
    data_p, data_q = splitting_data(K, p, q)
    _validate_local(local, data_p, data_q)

    conditions: tuple[list[ConditionCheck], list[ConditionCheck]] = ([], [])
    parity_sum = 0
    rows = []  # (place data, place, wild part, tame power) for the certificate
    for checks, entries, data in zip(
        conditions, (local.above_p, local.above_q), (data_p, data_q)
    ):
        for entry, place, xi in zip(entries, data.places, xi_values(data, infinity_type)):
            lhs = entry.k - entry.a
            checks.append(
                ConditionCheck(
                    place.name, lhs, xi, place.modulus, (lhs - xi) % place.modulus == 0
                )
            )
            # condition at the unit -1: the tame character contributes the
            # order-2 element of Q/Z to the power (k - xi); odd-order wild
            # parts vanish
            parity_sum += entry.k - xi
            rows.append((data, place, entry.psi, entry.k - xi))

    target = infinity_type[0] + infinity_type[1]
    cond2 = (parity_sum % 2, target % 2, parity_sum % 2 == target % 2)
    cond1, cond1p = map(tuple, conditions)
    if not (all(c.ok for c in cond1 + cond1p) and cond2[2]):
        return CriterionReport(cond1, cond1p, cond2, None, data_p, data_q)

    local_chars = []
    norm: int | None = 1
    for data, place, psi, power in rows:
        eps = _certificate_local_char(place, power, psi)
        if eps.is_trivial():
            continue
        local_chars.append((place.name, eps))
        wild_order = psi.order() if psi is not None else 1
        if wild_order > 1 and data.kind == "inert":
            # the wild filtration level at an inert place is not determined
            # by the order alone
            norm = None
        elif norm is not None:
            # wild inertia at a split place is cyclic: the conductor exponent
            # is one more than the wild order's valuation
            norm *= place.residue_size ** (1 + valuation(wild_order, data.prime))
    certificate = HeckeCertificate(
        infinity_type=((SIGMA, infinity_type[0]), (SIGMA_BAR, infinity_type[1])),
        local_chars=tuple(local_chars),
        conductor=norm,
    )
    return CriterionReport(cond1, cond1p, cond2, certificate, data_p, data_q)


# ---------------------------------------------------------------------------
# Class groups via reduced binary quadratic forms


@dataclass(frozen=True)
class IdealClassGroup:
    D: int
    forms: tuple[tuple[int, int, int], ...]
    h: int
    exponent: int
    invariant_factors: tuple[int, ...]


def _principal_form(D: int) -> tuple[int, int, int]:
    k = D % 2
    return (1, k, (k * k - D) // 4)


def _reduce_form(a: int, b: int, c: int) -> tuple[int, int, int]:
    while True:
        if c < a or (c == a and b < 0):
            a, b, c = c, -b, a
            continue
        if b > a or b <= -a:
            r = (a - b) // (2 * a)
            b2 = b + 2 * r * a
            c2 = a * r * r + b * r + c
            b, c = b2, c2
            continue
        return (a, b, c)


def _compose(
    f1: tuple[int, int, int], f2: tuple[int, int, int], D: int
) -> tuple[int, int, int]:
    """Shanks' composition of two primitive forms of discriminant D,
    followed by reduction (Cohen, GTM 138, Alg. 5.4.7).

    With s = (b1 + b2)/2, d = gcd(a1, a2) and d1 = gcd(d, s), the Bezout
    coefficients are y1 = (a2/d)^-1 mod a1/d and x2 = (s/d1)^-1 mod d/d1,
    so y1*a2 = d mod a1 and y2 = (x2*s - d1)/d is an integer.  With
    v1 = a1/d1, v2 = a2/d1 and r = y1*y2*(b2 - s) - x2*c2 mod v1, the
    composite is (A, B, C) with A = v1*v2 and B = b2 + 2*v2*r; this holds
    also when a1 and a2 share a factor.
    """
    a1, b1, _ = f1
    a2, b2, c2 = f2
    s = (b1 + b2) // 2
    d = math.gcd(a1, a2)
    d1 = math.gcd(d, s)
    y1 = pow(a2 // d, -1, a1 // d)
    x2 = pow(s // d1, -1, d // d1)
    y2 = (x2 * s - d1) // d
    v1 = a1 // d1
    v2 = a2 // d1
    A = v1 * v2
    B = b2 + 2 * v2 * ((y1 * y2 * (b2 - s) - x2 * c2) % v1)
    C = (B * B - D) // (4 * A)
    if B * B - 4 * A * C != D:
        raise AssertionError(f"composition left discriminant {D}")
    return _reduce_form(A, B, C)


def _orders(
    forms: Iterable[tuple[int, int, int]], D: int
) -> dict[tuple[int, int, int], int]:
    """The order of every reduced form: for each form f not yet reached,
    compose f, f^2, ... until the inverse of f^k, which the reduced form
    gives without a composition, is a power f^i, i <= k, already reached.
    Then n = ord(f) = k + i, the powers after f^k are the inverses of those
    before f^i, and ord(f^j) = ord(f^-j) = n / gcd(j, n).  A self-inverse
    f^k ends its walk with i = k, so a walk makes floor((n - 1)/2)
    compositions where walking to the identity made n - 1."""
    identity = _principal_form(D)
    orders = {identity: 1}
    for f in forms:
        if f in orders:
            continue
        walk = [(identity, identity)]  # (f^j, f^-j) for j = 0, 1, ...
        exponent = {identity: 0}
        g = f
        while True:
            a, b, c = g
            inverse = g if b == 0 or b == a or a == c else (a, -b, c)
            exponent[g] = len(walk)
            i = exponent.get(inverse)
            walk.append((g, inverse))
            if i is not None:
                break
            g = _compose(g, f, D)
        n = len(walk) - 1 + i
        for j, (g, inverse) in enumerate(walk):
            orders[g] = orders[inverse] = n // math.gcd(j, n)
    return orders


def _reduced_forms(D: int) -> list[tuple[int, int, int]]:
    """The primitive reduced forms of discriminant D < 0, sorted.

    Enumerated by the middle coefficient: for 0 <= b <= sqrt(|D|/3) with
    b = D mod 2, every a | m = (b^2 - D)/4 with max(b, 1) <= a <= c gives
    (a, b, c), and (a, -b, c) too when 0 < b < a < c.  Only odd a are tried
    when m is odd, always so for D = 5 mod 8.
    """
    forms = []
    for b in range(D % 2, math.isqrt(-D // 3) + 1, 2):
        m = (b * b - D) // 4
        # an odd m has only odd divisors
        step = 1 + (m & 1)
        for a in range(max(b, 1) | (m & 1), math.isqrt(m) + 1, step):
            if m % a:
                continue
            c = m // a
            if math.gcd(math.gcd(a, b), c) != 1:
                continue
            forms.append((a, b, c))
            if 0 < b < a < c:
                forms.append((a, -b, c))
    forms.sort()
    return forms


def check_class_group_bound(D: int) -> None:
    """Refuse |D| > CLASS_GROUP_BOUND, before anything factorises D."""
    if -D > CLASS_GROUP_BOUND:
        raise ValueError(f"|D| = {-D} exceeds the class-group bound {CLASS_GROUP_BOUND}")


def class_group(D: int) -> IdealClassGroup:
    """Ideal class group of the fundamental discriminant D < 0: reduced forms,
    class number, exponent and invariant factors.

    The forms are enumerated by their middle coefficient.  The invariant
    factors come one Sylow subgroup at a time (see _sylow_factors): the
    2-part from genus theory (Gauss) and Redei's 4-rank (J. reine angew.
    Math. 171, 1934) wherever they force it (see _forced_two_part), and
    only a non-cyclic part left open is walked by _orders.  That takes
    0.026 compositions per class over every |D| <= 10^4, and at most 1.22
    (h = 18 at D = -9748), where walking every class takes 0.57 and at
    most 0.98.  Enumerating the forms is most of the cost: about 79% over
    the 64 fields of the class-groups benchmark, 10^3 <= |D| < 3*10^5
    (per-field minima of 40 interleaved repetitions).  Measured up to
    CLASS_GROUP_BOUND (Intel Xeon, Python 3.11.7, 12 fields with
    0.9 <= |D|/N <= 1 each, best of 5): a median of 0.0002 s at N = 10^5,
    0.002 s at 10^6 and 0.021 s at 10^7; the fields of largest h found
    there (h = 533 at D = -95471, 1868 at -960671 and 6216 at -9559679)
    take 0.0004 s, 0.0034 s and 0.031 s.

    The last eight groups computed are kept, so asking again for one of
    those fields returns the same object without recomputing it.
    """
    check_class_group_bound(D)
    ImagQuadField(D)  # validates fundamental and D < -4
    return _class_group(D)


# callers ask for a field's group and then for its counting bound: eight
# entries serve that and hold at most about 6 MB (the group of D = -9559679,
# h = 6216, the largest h found below CLASS_GROUP_BOUND, holds 0.75 MB by
# tracemalloc).  ImagQuadField refuses a float such as -1155.0 first, so
# every key is an int.
@functools.lru_cache(maxsize=8)
def _class_group(D: int) -> IdealClassGroup:
    forms = _reduced_forms(D)
    h = len(forms)
    # the i-th largest invariant factor is the product of the i-th largest
    # invariant factors of the Sylow subgroups
    largest_first: list[int] = []
    for ell, e in factorize(h).items():
        part = _forced_two_part(D, e) if ell == 2 else None
        if part is None:
            part = _sylow_factors(forms, D, ell, e)
        largest_first = [x * y for x, y in zip_longest(largest_first, part, fillvalue=1)]
    factors = tuple(reversed(largest_first))
    if math.prod(factors) != h:
        raise AssertionError(f"invariant factors {factors} do not multiply to h = {h}")
    exponent = largest_first[0] if largest_first else 1

    return IdealClassGroup(D, tuple(forms), h, exponent, factors)


def _forced_two_part(D: int, e: int) -> list[int] | None:
    """The invariant factors, largest first, of the 2-Sylow subgroup of the
    class group, for 2^e || h, when genus theory and Redei's 4-rank force
    them; None when they leave it open.

    By genus theory (Gauss) the subgroup has r2 = omega(D) - 1 cyclic
    factors 2^a, so what is left to place is the excess e - r2, the sum of
    a - 1 over them.  One factor takes all of it when r2 = 1 or the excess
    is at most 1.  Otherwise the 4-rank r4 counts the factors past 2, and
    they share the excess - r4 left past 4: one of them takes all of that
    when r4 = 1 or excess - r4 <= 1, and any other case is open.
    """
    primes = factorize(-D)
    r2 = len(primes) - 1
    excess = e - r2
    if r2 == 1 or excess <= 1:
        return [2 ** (excess + 1)] + [2] * (r2 - 1)
    r4 = _redei_4_rank(D, primes)
    if r4 == 1 or excess - r4 <= 1:
        return [2 ** (excess - r4 + 2)] + [4] * (r4 - 1) + [2] * (r2 - r4)
    return None


def _redei_4_rank(D: int, primes: Iterable[int]) -> int:
    """The 4-rank of the class group of the fundamental discriminant D, whose
    prime factors are primes (Redei, J. reine angew. Math. 171, 1934).

    D is the product of t prime discriminants d_i: p* = (-1)^((p-1)/2) * p
    for an odd p | D, and D over their product, -4, 8 or -8, for p = 2.
    The Redei matrix R over F_2 has R_ij = 1, for i != j, when the Kronecker
    symbol (d_j / p_i) is -1, read from d_j mod 8 when p_i = 2; its diagonal
    makes each row sum to 0.  The 4-rank is t - 1 - rank R.
    """
    discs = {p: p if p % 4 == 1 else -p for p in primes if p != 2}
    if D % 2 == 0:
        discs[2] = D // math.prod(discs.values())
    # rows reduced against the earlier ones, each with a leading bit of its own
    basis: list[int] = []
    for i, p in enumerate(discs):
        row = 0
        for j, d in enumerate(discs.values()):
            if j != i and (d % 8 == 5 if p == 2 else kronecker_symbol(d, p) == -1):
                row ^= 1 << j | 1 << i
        for b in basis:
            row = min(row, row ^ b)
        if row:
            basis.append(row)
    return len(discs) - 1 - len(basis)


def _power(f: tuple[int, int, int], n: int, D: int) -> tuple[int, int, int]:
    """f^n for n >= 1, by binary powering from the leading bit down."""
    g = f
    for bit in bin(n)[3:]:
        g = _compose(g, g, D)
        if bit == "1":
            g = _compose(g, f, D)
    return g


def _sylow_factors(
    forms: list[tuple[int, int, int]], D: int, ell: int, e: int
) -> list[int]:
    """The invariant factors, largest first, of the ell-Sylow subgroup of
    the class group, for ell^e || h = len(forms).

    The 2-part comes here only when genus theory (Gauss) and Redei's
    4-rank (J. reine angew. Math. 171, 1934) leave it open; see
    _forced_two_part.  A subgroup of prime order ell needs no composition.
    Any other is the image of x -> x^m, m = h / ell^e, and it is cyclic as
    soon as an image s has s^(ell^(e-1)) != 1.  The images of the sorted
    forms are tested in turn, each one outside the subgroup that the cosets
    of the earlier ones generate; when m = 1 the forms are the subgroup,
    and only the first is tested.  A subgroup with no image of full order
    is walked alone by _orders.
    """
    order = ell**e
    if e == 1:
        return [ell]
    identity = _principal_form(D)
    subgroup, members = [identity], {identity}
    m = len(forms) // order
    for f in forms:
        # a form in the subgroup has its image there too
        if f in members:
            continue
        g = _power(f, m, D)
        if g in members:
            continue
        if _power(g, order // ell, D) != identity:
            return [order]
        if m == 1:
            subgroup = forms
            break
        # add the cosets g^j * subgroup, j = 1, 2, ..., until g^j is in it;
        # subgroup[0] is the identity, so coset[0] is g^j
        grown, coset = list(subgroup), subgroup
        while (first := _compose(coset[0], g, D)) not in members:
            coset = [first] + [_compose(x, g, D) for x in coset[1:]]
            grown += coset
        subgroup = grown
        members.update(subgroup)
        if len(subgroup) == order:
            break
    # r_k = log_ell |G[ell^k]| / |G[ell^(k-1)]| counts the cyclic factors of
    # order >= ell^k, so the i-th largest has ell-exponent #{k : r_k >= i}
    histogram = Counter(_orders(subgroup, D).values())  # order -> forms of that order
    torsion = [sum(c for n, c in histogram.items() if ell**k % n == 0) for k in range(e + 1)]
    ranks = [valuation(t // s, ell) for s, t in zip(torsion, torsion[1:])]
    return [ell ** sum(1 for r in ranks if r >= i) for i in range(1, ranks[0] + 1)]


@dataclass(frozen=True)
class CountingReport:
    D: int
    p: int
    q: int
    alpha: int
    h: int
    lift_bound: int      # alpha^2 * h
    pair_count: int      # h^2
    gap_exists: bool     # h > alpha^2

    @property
    def verdict(self) -> str:
        return (
            "non-liftable pair exists" if self.gap_exists else "no forced gap"
        )


def counting_bound(K: ImagQuadField, p: int, q: int) -> CountingReport:
    """Count unramified pairs against the lifting bound alpha^2 * h.

    Requires p and q split in K and coprime to the class number; when
    h > alpha^2 some unramified pair admits no exact lift.
    """
    data_p, data_q = splitting_data(K, p, q)
    if data_p.kind != "split":
        raise ValueError(f"{p} is not split in {K}")
    if data_q.kind != "split":
        raise ValueError(f"{q} is not split in {K}")
    # K was validated when it was built; only the class-group bound is left
    check_class_group_bound(K.D)
    grp = _class_group(K.D)
    if grp.h % p == 0:
        raise ValueError(f"{p} divides the class number {grp.h}")
    if grp.h % q == 0:
        raise ValueError(f"{q} divides the class number {grp.h}")
    alpha = grp.exponent
    return CountingReport(
        D=K.D, p=p, q=q,
        alpha=alpha, h=grp.h,
        lift_bound=alpha * alpha * grp.h,
        pair_count=grp.h * grp.h,
        gap_exists=grp.h > alpha * alpha,
    )
