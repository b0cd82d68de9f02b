"""Decision pipeline over Q.

A character of the absolute Galois group of Q unramified outside a given
modulus N is identified with a character of (Z/N)^*, one cyclic component
per odd prime power.  The restriction to inertia at ell is the
ell-component, fixed by its value on g = primitive_root(ell, 2), which
generates (Z/ell^a)^* at every level a >= 1.  At the character's level a
that value is kept as the integer x mod phi(ell^a), standing for
x/phi(ell^a) in Q/Z.  As phi(ell^A) = ell^(A-a) * phi(ell^a), the same
value at a level A >= a is ell^(A-a) * x: a product or a comparison of two
characters scales the lower level up, and the pipeline's arithmetic stays
on these integers.  QmodZ appears only at the edges: from_images,
value_at, values and images.  abchar.unit_value and abchar.unit_character
translate there; abchar's docstring says where images on the least
primitive root g_1 differ from values on g, and gives the cyclotomic
character's value on g.

The pipeline: extract the local exponents of a pair (rho mod p, rho' mod q),
solve one congruence system, and assemble the witness character
eps * eps' * Nm^k together with an internal re-verification.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

from .abchar import (
    GroupCharacter,
    HeckeCertificate,
    ModCharacter,
    _character_on_g,
    _cyclotomic,
    _cyclotomic_log,
    _exponent_on_g,
    _glue_levels,
    _level,
    _phi,
    character_conductor,
    enumerate_characters,
    unit_character,
    unit_group,
    unit_value,
)
from .exactnum import (
    Congruence,
    QmodZ,
    Record,
    _prime_to,
    crt_pair,
    factorize,
    is_prime,
    prime_to_part,
    valuation,
)

__all__ = [
    "GlobalCharQ",
    "LocalInvariantsQ",
    "NecessityReport",
    "TwistResult",
    "PropQResult",
    "extract_invariants",
    "check_necessary",
    "twist_to_unramified",
    "conductor_bound",
    "decide_prop_q",
    "brute_force_oracle_q",
    "hecke_reductions",
    "theta_power",
]

ORACLE_BOUND = 10**7
_ZERO = QmodZ(0, 1)


def _factor_modulus(modulus: int, known: list[int]) -> dict[int, int]:
    """factorize(modulus) for a positive odd modulus, dividing out the primes
    among known first so that factorize sees only the rest."""
    if type(modulus) is not int:
        raise ValueError(f"modulus {modulus!r} is not an int")
    if modulus < 1:
        raise ValueError("modulus must be positive")
    if modulus % 2 == 0:
        raise ValueError("only odd moduli are supported (2 never ramifies here)")
    fac: dict[int, int] = {}
    rest = modulus
    for ell in known:
        if ell > 1 and rest % ell == 0 and is_prime(ell):
            fac[ell] = valuation(rest, ell)
            rest //= ell ** fac[ell]
    fac.update(factorize(rest))
    return fac


class GlobalCharQ(Record):
    """A mod-ell character of G_Q with ramification support dividing modulus.

    factors is the factorisation {prime: exponent} of the modulus; exps
    maps each ramified prime ell to the restriction to inertia there: the
    x in (0, phi(ell^a)), a = factors[ell], whose value x/phi(ell^a) on
    g = primitive_root(ell, 2) has order prime to the residue
    characteristic; both in increasing order of the prime.  values gives
    those values in Q/Z, and inertia and images present them on
    unit_group(ell, a) and its least primitive root mod ell^a.  from_images
    and trivial check their input; operations build from checked parts
    through _of_parts.  There is no public constructor, and the attributes
    are read-only.  Equality and hashing are level-invariant, as the values
    are.
    """

    __slots__ = ("residue_char", "modulus", "factors", "exps")

    def __init__(self, *args, **kwargs):
        raise TypeError("GlobalCharQ has no public constructor; use from_images or trivial")

    @classmethod
    def _of_parts(cls, residue_char: int, factors: dict, exps: dict) -> "GlobalCharQ":
        """The character with these parts, already checked and each x reduced
        mod phi(ell^a); zero values are dropped."""
        return cls._make(
            residue_char,
            math.prod(ell**a for ell, a in factors.items()),
            dict(sorted(factors.items())),
            {ell: x for ell, x in sorted(exps.items()) if x},
        )

    def __repr__(self) -> str:
        # factors, which the modulus determines, is left out
        return (
            f"GlobalCharQ(residue_char={self.residue_char!r}, modulus={self.modulus!r}, "
            f"inertia={self.inertia!r})"
        )

    @classmethod
    def from_images(
        cls, residue_char: int, modulus: int, images: dict[int, QmodZ]
    ) -> "GlobalCharQ":
        if not is_prime(residue_char) or residue_char == 2:
            raise ValueError("residue characteristic must be an odd prime")
        for ell in images:
            if type(ell) is not int:
                raise ValueError(f"image key {ell!r} is not an int")
        factors = _factor_modulus(modulus, [residue_char, *images])
        exps = {}
        for ell, img in sorted(images.items()):
            if not is_prime(ell):
                raise ValueError(f"image key {ell} is not a prime")
            if ell not in factors:
                raise ValueError(f"prime {ell} does not divide the modulus")
            if not isinstance(img, QmodZ):
                raise TypeError(f"image {img!r} at {ell} has type {type(img).__name__}, not QmodZ")
            grp = unit_group(ell, factors[ell])
            if grp.orders[0] % img.den:
                raise ValueError(f"image at {ell} is not killed by the unit group order")
            if img.den % residue_char == 0:
                raise ValueError(
                    f"image at {ell} has order divisible by {residue_char}; "
                    "a mod-ell character takes values of prime-to-ell order"
                )
            exps[ell] = _exponent_on_g(GroupCharacter(grp, (img,)), ell)
        return cls._of_parts(residue_char, factors, exps)

    @classmethod
    def trivial(cls, residue_char: int, modulus: int = 1) -> "GlobalCharQ":
        return cls.from_images(residue_char, modulus, {})

    @property
    def values(self) -> dict[int, QmodZ]:
        return {ell: self.value_at(ell) for ell in self.exps}

    @property
    def inertia(self) -> dict[int, GroupCharacter]:
        return {ell: _character_on_g(ell, self.factors[ell], x) for ell, x in self.exps.items()}

    @property
    def images(self) -> tuple[tuple[int, QmodZ], ...]:
        return tuple((ell, eps.images[0]) for ell, eps in self.inertia.items())

    def prime_exponent(self, ell: int) -> int:
        return self.factors.get(ell, 0)

    def _at_level(self, ell: int, level: int) -> int:
        """The value at ell as a residue mod phi(ell^level), for a level at
        least the exponent of ell."""
        return self.exps.get(ell, 0) * ell ** (level - self.factors.get(ell, 0))

    def value_at(self, ell: int) -> QmodZ:
        x = self.exps.get(ell)
        return _ZERO if x is None else QmodZ(x, _phi(ell, self.factors[ell]))

    def image_at(self, ell: int) -> QmodZ:
        return self.component(ell).base.images[0] if ell in self.exps else _ZERO

    def ramified_primes(self) -> tuple[int, ...]:
        return tuple(self.exps)

    def component(self, ell: int) -> ModCharacter:
        """Restriction to inertia at ell as a character of (Z/ell^a)^*."""
        eps = _character_on_g(ell, self.prime_exponent(ell), self.exps.get(ell, 0))
        return ModCharacter(eps, self.residue_char)

    def with_modulus(self, modulus: int) -> "GlobalCharQ":
        """Re-present relative to another modulus, which must keep each
        ramified prime to at least its conductor."""
        factors = _factor_modulus(modulus, [self.residue_char, *self.exps])
        exps = {}
        for ell, x in self.exps.items():
            a, b = self.factors[ell], factors.get(ell, 0)
            # x/phi(ell^a) is (x * ell^b / ell^a)/phi(ell^b) when that is an
            # integer and b >= 1; x < ell^a, so at b = 0 it never is
            if x * ell**b % ell**a:
                unit_character(ell, b, self.value_at(ell))  # refuses below the conductor
            exps[ell] = x * ell**b // ell**a
        return GlobalCharQ._of_parts(self.residue_char, factors, exps)

    def __mul__(self, other: "GlobalCharQ") -> "GlobalCharQ":
        if other.residue_char != self.residue_char:
            raise ValueError("mismatched residue characteristics")
        factors = {
            ell: max(self.prime_exponent(ell), other.prime_exponent(ell))
            for ell in self.factors.keys() | other.factors.keys()
        }
        exps = {
            ell: (self._at_level(ell, a) + other._at_level(ell, a)) % _phi(ell, a)
            for ell, a in factors.items()
        }
        return GlobalCharQ._of_parts(self.residue_char, factors, exps)

    def __eq__(self, other) -> bool:
        if not isinstance(other, GlobalCharQ):
            return NotImplemented
        if self.residue_char != other.residue_char or self.exps.keys() != other.exps.keys():
            return False
        # at the higher of the two levels
        for ell in self.exps:
            level = max(self.factors[ell], other.factors[ell])
            if self._at_level(ell, level) != other._at_level(ell, level):
                return False
        return True

    def __hash__(self):
        return hash((self.residue_char, tuple(self.values.items())))


def theta_power(residue_char: int, k: int, exponent: int = 1) -> GlobalCharQ:
    """The k-th power of the cyclotomic character mod residue_char, presented
    on (Z/residue_char^exponent)^*, where it is reduction mod residue_char
    followed by the k-th power of the identity character of (Z/p)^*."""
    p = residue_char
    return GlobalCharQ.from_images(p, p, {p: QmodZ(k, p - 1)}).with_modulus(p**exponent)


class LocalInvariantsQ(Record):
    """The congruence data carried by a pair (rho mod p, rho' mod q) at p and q:
    k_p, the tame exponent of rho at p, mod p-1; a_p, the tame exponent of
    rho' at p, mod A_p, the prime-to-q part of p-1; psi_prime_p, the
    p-power-order (wild) part of rho' at p; and k_q, b_q, B_q and psi_q
    likewise at q."""

    __slots__ = ("p", "q", "k_p", "a_p", "A_p", "psi_prime_p", "k_q", "b_q", "B_q", "psi_q")

    def __init__(
        self,
        p: int,
        q: int,
        k_p: Congruence,
        a_p: Congruence,
        A_p: int,
        psi_prime_p: GroupCharacter,
        k_q: Congruence,
        b_q: Congruence,
        B_q: int,
        psi_q: GroupCharacter,
    ):
        self._store(p, q, k_p, a_p, A_p, psi_prime_p, k_q, b_q, B_q, psi_q)
        if self.A_p != prime_to_part(self.p - 1, self.q):
            raise AssertionError(f"A_p = {self.A_p} is not the prime-to-q part of p - 1")
        if self.B_q != prime_to_part(self.q - 1, self.p):
            raise AssertionError(f"B_q = {self.B_q} is not the prime-to-p part of q - 1")
        if self.a_p.modulus != self.A_p:
            raise AssertionError(f"a_p is taken modulo {self.a_p.modulus}, not A_p")
        if self.b_q.modulus != self.B_q:
            raise AssertionError(f"b_q is taken modulo {self.b_q.modulus}, not B_q")
        for ell, psi in ((self.p, self.psi_prime_p), (self.q, self.psi_q)):
            # a wild part reduces to 1 mod ell; read on exponents, building no record
            if any([_prime_to(k, d, ell) for k, d in zip(psi.exps, psi.group.orders)]):
                raise AssertionError(f"wild part at {ell} has order {psi.order()}")


def _require_pair(rho: GlobalCharQ, rho_prime: GlobalCharQ) -> tuple[int, int]:
    p, q = rho.residue_char, rho_prime.residue_char
    if p == q:
        raise ValueError("the two characters must have distinct residue characteristics")
    return p, q


def _require_support_pq(rho: GlobalCharQ, rho_prime: GlobalCharQ) -> tuple[int, int]:
    p, q = _require_pair(rho, rho_prime)
    for chi in (rho, rho_prime):
        bad = [ell for ell in chi.ramified_primes() if ell not in (p, q)]
        if bad:
            raise ValueError(
                f"character mod {chi.residue_char} is ramified outside {{{p}, {q}}}: {bad}"
            )
    return p, q


def extract_invariants(rho: GlobalCharQ, rho_prime: GlobalCharQ) -> LocalInvariantsQ:
    """Read off the four congruence invariants of the pair at p and at q."""
    p, q = _require_support_pq(rho, rho_prime)

    def at(ell: int, own: GlobalCharQ, other_char: GlobalCharQ, other: int):
        # own at its prime is tame, a power theta^k of the cyclotomic theta
        level = max(1, own.prime_exponent(ell))
        k = _cyclotomic_log(ell, level, own._at_level(ell, level))
        # the other character at ell: its reduction mod ell is theta^j, of
        # order prime to other, so j is mod A; the rest is the wild part
        level = max(1, other_char.prime_exponent(ell))
        d = _phi(ell, level)
        y = other_char._at_level(ell, level)
        tame = _prime_to(y, d, ell)
        wild = (y - tame) % d
        j = _cyclotomic_log(ell, level, tame)
        A = prime_to_part(ell - 1, other)
        if j % ((ell - 1) // A):
            raise AssertionError(f"tame exponent {j} at {ell} has order divisible by {other}")
        return Congruence(k, ell - 1), Congruence(j, A), A, _character_on_g(ell, level, wild)

    # (k_p, a_p, A_p, psi_prime_p) and (k_q, b_q, B_q, psi_q)
    return LocalInvariantsQ(p, q, *at(p, rho, rho_prime, q), *at(q, rho_prime, rho, p))


class NecessityReport(Record):
    """per_prime: (ell, whether the two restrictions at ell lift together),
    for each prime away from p and q; ok: whether all of them do."""

    __slots__ = ("per_prime", "ok")


def _outside_lifts(
    rho: GlobalCharQ, rho_prime: GlobalCharQ, p: int, q: int
) -> Iterator[tuple[int, int, int | None]]:
    """(ell, a, lift) for each prime ell of either modulus away from p and
    q, in increasing order: a is the higher of the two levels there, and
    lift the value mod phi(ell^a) whose reductions mod p and mod q are the
    two inertia restrictions, None when there is none."""
    for ell in sorted(rho.factors.keys() | rho_prime.factors.keys()):
        if ell not in (p, q):
            x, a = rho.exps.get(ell, 0), rho.prime_exponent(ell)
            y, b = rho_prime.exps.get(ell, 0), rho_prime.prime_exponent(ell)
            yield ell, *_glue_levels(ell, x, a, p, y, b, q)


def check_necessary(rho: GlobalCharQ, rho_prime: GlobalCharQ) -> NecessityReport:
    """At every prime away from p and q, the two inertia restrictions must
    simultaneously lift; reports the verdict prime by prime."""
    p, q = _require_pair(rho, rho_prime)
    results = tuple(
        (ell, lifted is not None)
        for ell, _, lifted in _outside_lifts(rho, rho_prime, p, q)
    )
    return NecessityReport(results, all(ok for _, ok in results))


class TwistResult(Record):
    """eps: (ell, the twist's character at ell) per prime away from p and q;
    twisted and twisted_prime: the pair with that ramification removed."""

    __slots__ = ("eps", "twisted", "twisted_prime")


def twist_to_unramified(rho: GlobalCharQ, rho_prime: GlobalCharQ) -> TwistResult:
    """Produce the finite-order character supported away from p and q whose
    mod-p and mod-q reductions absorb all outside ramification of the pair."""
    p, q = _require_pair(rho, rho_prime)
    eps_parts: dict[int, GroupCharacter] = {}
    for ell, level, lifted in _outside_lifts(rho, rho_prime, p, q):
        if lifted is None:
            raise ValueError(f"pair admits no simultaneous lift at the prime {ell}")
        if lifted:
            d = _phi(ell, level)
            for name, r, chi in (("rho", p, rho), ("rho'", q, rho_prime)):
                if _prime_to(lifted, d, r) != chi._at_level(ell, level):
                    raise AssertionError(f"twist at {ell} does not reduce to {name} mod {r}")
            eps_parts[ell] = _character_on_g(ell, level, lifted)

    def strip(chi: GlobalCharQ) -> GlobalCharQ:
        # the components at p and q alone, on the p- and q-parts of the modulus
        factors = {ell: a for ell, a in chi.factors.items() if ell in (p, q)}
        exps = {ell: x for ell, x in chi.exps.items() if ell in factors}
        return GlobalCharQ._of_parts(chi.residue_char, factors, exps)

    return TwistResult(tuple(sorted(eps_parts.items())), strip(rho), strip(rho_prime))


def conductor_bound(rho: GlobalCharQ, rho_prime: GlobalCharQ) -> int:
    """lcm(p, conductor of rho' at p) * lcm(q, conductor of rho at q) for a
    pair that is unramified outside p and q."""
    p, q = _require_support_pq(rho, rho_prime)
    cond_at_p = character_conductor(rho_prime.component(p).base)
    cond_at_q = character_conductor(rho.component(q).base)
    return math.lcm(p, cond_at_p) * math.lcm(q, cond_at_q)


@dataclass(frozen=True)
class PropQResult:
    k_class: Congruence
    certificate: HeckeCertificate
    invariants: LocalInvariantsQ


def hecke_reductions(
    eps: GroupCharacter, eps_prime: GroupCharacter, k: int, p: int, q: int
) -> tuple[GlobalCharQ, GlobalCharQ]:
    """Mod-p and mod-q reductions of the character eps * eps' * Nm^k, where
    eps lives on (Z/p^alpha)^* and eps' on (Z/q^beta)^*.

    The norm contributes the k-th cyclotomic power at the residue prime and
    nothing at the other prime; reduction keeps the prime-to-ell part.
    """
    alpha, beta = _level(eps.group), _level(eps_prime.group)
    d_p, d_q = _phi(p, alpha), _phi(q, beta)
    x, y = _exponent_on_g(eps, p), _exponent_on_g(eps_prime, q)

    def reduction(r: int, at_p: int, at_q: int) -> GlobalCharQ:
        exps = {p: _prime_to(at_p, d_p, r), q: _prime_to(at_q, d_q, r)}
        return GlobalCharQ._of_parts(r, {p: alpha, q: beta}, exps)

    return (
        reduction(p, x + k * _cyclotomic(p, alpha), y),
        reduction(q, x, y + k * _cyclotomic(q, beta)),
    )


def decide_prop_q(rho: GlobalCharQ, rho_prime: GlobalCharQ) -> PropQResult | None:
    """Decide whether the pair arises from a single character eps * eps' * Nm^k.

    The pair must already be unramified outside p and q (twist first
    otherwise).  Returns the full solution class for k and a re-verified
    certificate at the least representative, or None when the congruence
    system is insoluble.
    """
    inv = extract_invariants(rho, rho_prime)
    p, q = inv.p, inv.q
    c1 = Congruence(inv.k_p.residue - inv.a_p.residue, inv.A_p)
    c2 = Congruence(inv.k_q.residue - inv.b_q.residue, inv.B_q)
    k_class = crt_pair(c1, c2)
    if k_class is None:
        return None
    k0 = k_class.residue

    alpha = max(1, rho_prime.prime_exponent(p))
    beta = max(1, rho.prime_exponent(q))
    # tame character to the power k_p - k0 times the wild part, at p and at q
    x = (inv.k_p.residue - k0) * _cyclotomic(p, alpha) + _exponent_on_g(inv.psi_prime_p, p)
    y = (inv.k_q.residue - k0) * _cyclotomic(q, beta) + _exponent_on_g(inv.psi_q, q)
    eps, eps_prime = _character_on_g(p, alpha, x), _character_on_g(q, beta, y)

    red_p, red_q = hecke_reductions(eps, eps_prime, k0, p, q)
    if red_p != rho or red_q != rho_prime:
        raise AssertionError("certificate failed re-verification")

    cert = HeckeCertificate(
        infinity_type=(("id", k0),),
        local_chars=tuple(
            (str(ell), chi)
            for ell, chi in ((p, eps), (q, eps_prime))
            if not chi.is_trivial()
        ),
        conductor=character_conductor(eps) * character_conductor(eps_prime),
    )
    return PropQResult(k_class, cert, inv)


def brute_force_oracle_q(
    rho: GlobalCharQ,
    rho_prime: GlobalCharQ,
    alpha_max: int,
    beta_max: int,
    k_range,
) -> tuple[GroupCharacter, GroupCharacter, int] | None:
    """Exhaustive search for (eps, eps', k) whose reductions equal the pair.

    A test-support oracle: dumb enumeration over the stated region, first
    witness in enumeration order, None if the region contains none.  It
    keeps QmodZ arithmetic on purpose: decide_prop_q works on integers mod
    phi(ell^a), so the oracle reaches its values by another representation
    and does not repeat the decision's residue arithmetic.
    """
    p, q = _require_support_pq(rho, rho_prime)
    if alpha_max < 1 or beta_max < 1:
        raise ValueError("search exponents must be >= 1")
    grp_p = unit_group(p, alpha_max)
    grp_q = unit_group(q, beta_max)
    total = grp_p.num_characters() * grp_q.num_characters() * len(k_range)
    if total > ORACLE_BOUND:
        raise ValueError(f"search region of size {total} exceeds the oracle bound {ORACLE_BOUND}")

    # the values to hit at p and q, and the norm's k-th power there for each k
    targets = [r.value_at(ell) for r in (rho, rho_prime) for ell in (p, q)]
    theta_p, theta_q = QmodZ(_cyclotomic(p, 1), p - 1), QmodZ(_cyclotomic(q, 1), q - 1)
    norms = [(k, k * theta_p, k * theta_q) for k in k_range]
    for eps in enumerate_characters(grp_p):
        x = unit_value(eps, p)
        if x.part_prime_to(q) != targets[2]:
            continue
        for eps_prime in enumerate_characters(grp_q):
            y = unit_value(eps_prime, q)
            if y.part_prime_to(p) != targets[1]:
                continue
            for k, norm_p, norm_q in norms:
                at_p = (x + norm_p).part_prime_to(p)
                if at_p == targets[0] and (y + norm_q).part_prime_to(q) == targets[3]:
                    return eps, eps_prime, k
    return None
