"""Local constraints for simultaneous modularity of a mod-p / mod-q pair.

Away from p and q, the two-dimensional local data in scope are principal
series (two tame characters plus Frobenius data) and the twist-of-special
shape (nonzero monodromy, forcing eigenvalue ratio ell up to inversion).
Frobenius eigenvalue data is kept algebraic: a root of unity times an
integer power of ell, written (zeta, w) for zeta * ell^w.  Reduction keeps
the prime-to-p part of zeta and folds nothing.  local_compat compares reduced
values as residues x mod one m (x/m in Q/Z), the lcm of p - 1, q - 1 and the
data's zeta denominators; it builds QmodZ only for witnesses and one reason.

A parameter with nonzero monodromy admits two integral-model reductions:
the generic one with nontrivial unipotent inertia, and a rescaled one,
eps + eps*norm, with eigenvalue ratio ell (up to inversion), unramified when
eps dies.  Compatibility search across the two characteristics leans on that
freedom: local_compat puts the two data in shape order (unipotent, tame
principal, unramified) and hands them to the one matcher for that pair of
shapes.  Remark 2's obstruction, unipotent inertia against ratio -ell, is
gone after the unramified quadratic base change since (-ell)^2 = ell^2.
"""

from __future__ import annotations

import math
from functools import lru_cache

from .abchar import (
    GroupCharacter,
    ModCharacter,
    _unit_lift,
    reduce_mod,
    unit_group,
    unit_value,
)
from .exactnum import (
    QmodZ,
    Record,
    _prime_to,
    _solve_linear,
    glue_pq,
    is_prime,
    require_odd_primes,
    unit_dlog,
)

__all__ = [
    "AlgebraicFrobValue",
    "QuasiChar",
    "Reducible",
    "Steinberg",
    "UnramifiedSemisimple",
    "TamePrincipal",
    "UnipotentRamified",
    "CompatReport",
    "Remark2Report",
    "wd_reduce",
    "local_compat",
    "remark2_check",
    "residue_address",
]


# ---------------------------------------------------------------------------
# Algebraic Frobenius data


@lru_cache(maxsize=1 << 12)
def residue_address(u: int, r: int) -> QmodZ:
    """The image of the unit u in the fixed Q/Z coordinates of F_r^*, where
    the least primitive root is 1/(r-1): its unit_dlog over r - 1."""
    return QmodZ(unit_dlog(u, r), r - 1)


class AlgebraicFrobValue(Record):
    """zeta * ell^w with zeta a root of unity written additively in Q/Z."""

    __slots__ = ("zeta", "weight")

    def reduce(self, target: int) -> "AlgebraicFrobValue":
        return AlgebraicFrobValue(self.zeta.part_prime_to(target), self.weight)

    def value_mod(self, ell: int, target: int, m: int) -> int:
        """The reduction modulo target, as an element of the residue field's
        multiplicative group in Q/Z coordinates: a residue mod m, for m a
        multiple of target - 1 and of zeta's denominator."""
        L = residue_address(ell, target)
        x = _prime_to(self.zeta.num * (m // self.zeta.den), m, target)
        return (x + self.weight * L.num * (m // L.den)) % m

    def __str__(self) -> str:
        return f"zeta({self.zeta}) * ell^{self.weight}"


_ONE = AlgebraicFrobValue(QmodZ(0, 1), 0)
_ELL = AlgebraicFrobValue(QmodZ(0, 1), 1)  # its value_mod is residue_address mod m


class QuasiChar(Record):
    """A quasicharacter of the local Weil group: finite-order part on the
    units, a GroupCharacter on (Z/ell^a)^*, plus an algebraic value at
    Frobenius."""

    __slots__ = ("inertial", "frob")


class Reducible(Record):
    """Semisimple parameter: direct sum of two quasicharacters, no monodromy."""

    __slots__ = ("eps1", "eps2")


class Steinberg(Record):
    """Parameter with nonzero monodromy; the second character is the twist of
    eps by the norm (Frobenius value multiplied by ell) and is not stored."""

    __slots__ = ("eps",)


WDParam = Reducible | Steinberg


# ---------------------------------------------------------------------------
# Reduced local data


class UnramifiedSemisimple(Record):
    """Unramified reduction at ell mod residue_char: only the Frobenius
    eigenvalue ratio, up to inversion, is kept."""

    __slots__ = ("ell", "residue_char", "ratio")

    def ratio_values(self, m: int) -> frozenset[int]:
        v = self.ratio.value_mod(self.ell, self.residue_char, m)
        return frozenset((v, -v % m))


class TamePrincipal(Record):
    """Tamely ramified principal series at ell mod residue_char: two
    inertial ModCharacters and two Frobenius values."""

    __slots__ = ("ell", "residue_char", "inertials", "frobs")


class UnipotentRamified(Record):
    """Nontrivial unipotent inertial image of order residue_char, with the
    reduced Frobenius character of the twist."""

    __slots__ = ("ell", "residue_char", "frob_char_inertial", "frob_char_value")


LocalGaloisDatum = UnramifiedSemisimple | TamePrincipal | UnipotentRamified


def _trivial_mod_char(ell: int, residue_char: int) -> ModCharacter:
    return ModCharacter(GroupCharacter.trivial(unit_group(ell, 1)), residue_char)


def wd_reduce(param: WDParam, ell: int, target: int) -> LocalGaloisDatum:
    """Reduction of an algebraic parameter at ell modulo the prime target.

    Semisimple parameters reduce componentwise; with both components
    unramified only the eigenvalue ratio is retained.  Nonzero monodromy
    reduces, in the generic integral model, to order-target unipotent
    inertia with the reduced Frobenius character.
    """
    if ell == target:
        raise ValueError("reduction is only defined away from ell")
    if not is_prime(ell) or not is_prime(target):
        raise ValueError("both arguments must be prime")
    if isinstance(param, Steinberg):
        return UnipotentRamified(
            ell,
            target,
            reduce_mod(param.eps.inertial, target),
            param.eps.frob.reduce(target),
        )
    red1 = reduce_mod(param.eps1.inertial, target)
    red2 = reduce_mod(param.eps2.inertial, target)
    f1 = param.eps1.frob.reduce(target)
    f2 = param.eps2.frob.reduce(target)
    if red1.is_trivial() and red2.is_trivial():
        ratio = AlgebraicFrobValue(f1.zeta - f2.zeta, f1.weight - f2.weight)
        return UnramifiedSemisimple(ell, target, _normalise_ratio(ratio))
    return TamePrincipal(ell, target, (red1, red2), (f1, f2))


def _normalise_ratio(ratio: AlgebraicFrobValue) -> AlgebraicFrobValue:
    if ratio.weight < 0:
        ratio = AlgebraicFrobValue(-ratio.zeta, -ratio.weight)
    if ratio.weight == 0:
        alt = -ratio.zeta
        if (alt.num, alt.den) < (ratio.zeta.num, ratio.zeta.den):
            ratio = AlgebraicFrobValue(alt, 0)
    return ratio


# ---------------------------------------------------------------------------
# Compatibility search


class CompatReport(Record):
    """local_compat's verdict: the witness parameter and its kind,
    "principal-series" or "steinberg", when compatible, else the reason;
    alternatives names other shapes that also fit."""

    __slots__ = ("compatible", "witness", "witness_kind", "reason", "alternatives")

    def __init__(
        self,
        compatible: bool,
        witness: WDParam | None,
        witness_kind: str | None,
        reason: str | None,
        alternatives: tuple[str, ...] = (),
    ):
        self._store(compatible, witness, witness_kind, reason, alternatives)


def _report(
    witness: WDParam | None, reason: str | None = None, alternatives: tuple[str, ...] = ()
) -> CompatReport:
    if witness is None:
        return CompatReport(False, None, None, reason)
    kind = "steinberg" if isinstance(witness, Steinberg) else "principal-series"
    return CompatReport(True, witness, kind, None, alternatives)


def _simultaneous_value(
    ell: int, p: int, q: int, m: int, targets
) -> AlgebraicFrobValue | None:
    """The algebraic value zeta * ell^w of least weight w >= 0 whose reductions
    mod p and mod q hit the first pair (t_p, t_q) in targets that one hits.

    Targets and l_r = residue_address(ell, r) are residues mod m, a multiple
    of p - 1 and q - 1.  A t_p with a p-part, or a t_q with a q-part, is hit
    by no reduction.  zeta exists at w exactly when t_p - w*l_p and t_q -
    w*l_q agree away from p and q (glue_pq), that is when w * pi(l_p - l_q) =
    pi(t_p - t_q) mod m for pi = exactnum's _prime_to away from p and q.
    _solve_linear gives the least such w, below lcm(p-1, q-1); zeta glues.
    """
    l_p, l_q = _ELL.value_mod(ell, p, m), _ELL.value_mod(ell, q, m)
    step = _prime_to(l_p - l_q, m, p, q)
    for t_p, t_q in targets:
        if _prime_to(t_p, m, p) != t_p or _prime_to(t_q, m, q) != t_q:
            continue
        w = _solve_linear(step, _prime_to(t_p - t_q, m, p, q), m)
        if w is None:
            continue
        zeta = glue_pq((t_p - w * l_p) % m, p, (t_q - w * l_q) % m, q, m)
        if zeta is not None:
            value = AlgebraicFrobValue(QmodZ(zeta, m), w)
            if value.value_mod(ell, p, m) == t_p and value.value_mod(ell, q, m) == t_q:
                return value
        raise AssertionError(f"weight {w} does not reduce to both targets at {ell}")
    return None


def _ratio_is_ell(datum: UnramifiedSemisimple, m: int) -> bool:
    """Whether the ratio is ell up to inversion, as in monodromy's rescaled model."""
    return _ELL.value_mod(datum.ell, datum.residue_char, m) in datum.ratio_values(m)


def _steinberg_unipotent(uni: UnipotentRamified, other: UnipotentRamified, m: int) -> CompatReport:
    # the generic model on both sides
    ell, p, q = uni.ell, uni.residue_char, other.residue_char
    inert = _unit_lift(ell, uni.frob_char_inertial, other.frob_char_inertial)
    if inert is None:
        return _report(None, "twist characters do not lift simultaneously")
    t_p, t_q = uni.frob_char_value.value_mod(ell, p, m), other.frob_char_value.value_mod(ell, q, m)
    value = _simultaneous_value(ell, p, q, m, [(t_p, t_q)])
    if value is None:
        return _report(None, "Frobenius values of the twists admit no common algebraic value")
    return _report(Steinberg(QuasiChar(inert, value)))


def _steinberg_tame(uni: UnipotentRamified, other: TamePrincipal, m: int) -> CompatReport:
    # the rescaled model on the tame side is epsilon + epsilon*norm, so the
    # pinned inertial characters must coincide and the pinned values must
    # differ by exactly ell
    ell, p, q = uni.ell, uni.residue_char, other.residue_char
    x, y = (unit_value(chi.base, ell) for chi in other.inertials)
    if x != y:
        return _report(
            None, "nonzero monodromy reduces with equal diagonal inertial characters"
        )
    inert = _unit_lift(ell, uni.frob_char_inertial, other.inertials[0])
    if inert is None:
        return _report(None, "twist characters do not lift simultaneously")
    v0, v1 = (f.value_mod(ell, q, m) for f in other.frobs)
    l_q = _ELL.value_mod(ell, q, m)
    targets = [low for low, high in ((v1, v0), (v0, v1)) if high == (low + l_q) % m]
    if not targets:
        return _report(None, "pinned eigenvalues do not differ by exactly ell")
    t_p = uni.frob_char_value.value_mod(ell, p, m)
    value = _simultaneous_value(ell, p, q, m, [(t_p, t_q) for t_q in targets])
    if value is None:
        return _report(None, "no algebraic twist value matches both sides")
    return _report(Steinberg(QuasiChar(inert, value)))


def _steinberg_ratio(uni: UnipotentRamified, other: UnramifiedSemisimple, m: int) -> CompatReport:
    # the unramified side forces the rescaled model: the twist character
    # must die mod q, and the eigenvalue ratio must reduce from ell^(+-1)
    ell, p, q = uni.ell, uni.residue_char, other.residue_char
    inert = _unit_lift(ell, uni.frob_char_inertial, _trivial_mod_char(ell, q))
    if inert is None:
        return _report(None, "twist character is not trivialisable mod the unramified side")
    if not _ratio_is_ell(other, m):
        return _report(
            None,
            "nonzero monodromy forces eigenvalue ratio ell up to inversion, "
            f"but the unramified side has ratio set "
            f"{sorted(str(QmodZ(v, m)) for v in other.ratio_values(m))}",
        )
    # the unramified datum pins no Frobenius value, only the ratio: any
    # twist value reducing correctly mod p serves
    t_p = uni.frob_char_value.value_mod(ell, p, m)
    return _report(Steinberg(QuasiChar(inert, AlgebraicFrobValue(QmodZ(t_p, m), 0))))


def _match_principal(a: TamePrincipal, b: TamePrincipal, m: int) -> CompatReport:
    ell, p, q = a.ell, a.residue_char, b.residue_char
    reasons = []
    for perm in ((0, 1), (1, 0)):
        chars = []
        for i in range(2):
            inert = _unit_lift(ell, a.inertials[i], b.inertials[perm[i]])
            if inert is None:
                reasons.append(f"inertial characters clash under matching {perm}")
                break
            t_p, t_q = a.frobs[i].value_mod(ell, p, m), b.frobs[perm[i]].value_mod(ell, q, m)
            value = _simultaneous_value(ell, p, q, m, [(t_p, t_q)])
            if value is None:
                reasons.append(f"Frobenius values clash under matching {perm}")
                break
            chars.append(QuasiChar(inert, value))
        else:
            return _report(Reducible(*chars))
    return _report(None, "; ".join(reasons))


def _match_tame_against_ratio(
    tame: TamePrincipal, unram: UnramifiedSemisimple, m: int
) -> CompatReport:
    """Principal-series match when one side pins characters and values and
    the other pins only the eigenvalue ratio (the common unramified twist on
    that side is free)."""
    ell, cp, cq = tame.ell, tame.residue_char, unram.residue_char
    trivial = _trivial_mod_char(ell, cq)
    inerts = [_unit_lift(ell, chi, trivial) for chi in tame.inertials]
    if None in inerts:
        return _report(
            None, "a pinned inertial character does not vanish under the other reduction"
        )
    t1, t2 = (f.value_mod(ell, cp, m) for f in tame.frobs)
    value2 = AlgebraicFrobValue(QmodZ(t2, m), 0)
    v2, r = value2.value_mod(ell, cq, m), unram.ratio.value_mod(ell, cq, m)
    value1 = _simultaneous_value(ell, cp, cq, m, [(t1, (v2 + s * r) % m) for s in (1, -1)])
    if value1 is None:
        return _report(None, "pinned values cannot meet the eigenvalue ratio")
    return _report(Reducible(QuasiChar(inerts[0], value1), QuasiChar(inerts[1], value2)))


def _unramified_pair(a: UnramifiedSemisimple, b: UnramifiedSemisimple, m: int) -> CompatReport:
    ell, p, q = a.ell, a.residue_char, b.residue_char
    va, vb = (sorted(d.ratio_values(m)) for d in (a, b))
    value = _simultaneous_value(ell, p, q, m, [(x, y) for x in va for y in vb])
    if value is None:
        return _report(None, "eigenvalue ratios admit no common algebraic value")
    triv = GroupCharacter.trivial(unit_group(ell, 1))
    witness = Reducible(QuasiChar(triv, value), QuasiChar(triv, _ONE))
    both_ell = _ratio_is_ell(a, m) and _ratio_is_ell(b, m)
    return _report(witness, alternatives=("steinberg",) if both_ell else ())


# the shapes in matching order, each with the Frobenius values it pins
_SHAPES = {
    UnipotentRamified: lambda datum: (datum.frob_char_value,),
    TamePrincipal: lambda datum: datum.frobs,
    UnramifiedSemisimple: lambda datum: (datum.ratio,),
}
_MATCHERS = {
    (UnipotentRamified, UnipotentRamified): _steinberg_unipotent,
    (UnipotentRamified, TamePrincipal): _steinberg_tame,
    (UnipotentRamified, UnramifiedSemisimple): _steinberg_ratio,
    (TamePrincipal, TamePrincipal): _match_principal,
    (TamePrincipal, UnramifiedSemisimple): _match_tame_against_ratio,
    (UnramifiedSemisimple, UnramifiedSemisimple): _unramified_pair,
}


def local_compat(
    datum_p: LocalGaloisDatum, datum_q: LocalGaloisDatum
) -> CompatReport:
    """Search the implemented parameter shapes for one whose mod-p and mod-q
    reductions (under suitable integral models) give the two local data.

    The data are put in shape order (unipotent, tame principal, unramified;
    datum_p first on a tie) and one matcher takes the pair.  Unipotent
    inertia on either side forces nonzero monodromy, reduced by the generic
    model there and by a rescaled one (ratio ell) on the other side.  Two
    unramified data get principal series, with "steinberg" as alternative
    when both ratios are ell up to inversion.
    """
    if datum_p.ell != datum_q.ell:
        raise ValueError("the two data live at different primes")
    ell, p, q = datum_p.ell, datum_p.residue_char, datum_q.residue_char
    if p == q:
        raise ValueError("residue characteristics must differ")
    if ell in (p, q):
        raise ValueError("compatibility is checked away from p and q")
    require_odd_primes(ell, p, q)
    a, b = sorted((datum_p, datum_q), key=lambda datum: list(_SHAPES).index(type(datum)))
    frobs = [f for d in (a, b) for f in _SHAPES[type(d)](d)]
    for f in frobs:
        if type(f.zeta) is not QmodZ or type(f.weight) is not int:
            raise ValueError(f"{f!r}: zeta must be a QmodZ and the weight an int")
    m = math.lcm(p - 1, q - 1, *(f.zeta.den for f in frobs))
    return _MATCHERS[type(a), type(b)](a, b, m)


# ---------------------------------------------------------------------------
# The ratio -ell obstruction and its disappearance after base change


class Remark2Report(Record):
    """The Remark 2 pair at (ell, p, q): the hypotheses, the local_compat
    verdict, and compatibility after the unramified quadratic base change,
    which always holds (see remark2_check)."""

    __slots__ = (
        "ell", "p", "q", "hypotheses_hold", "hypothesis_detail", "compat",
        "base_change_compatible",
    )

    @property
    def counterexample_confirmed(self) -> bool:
        return bool(
            self.hypotheses_hold
            and not self.compat.compatible
            and self.base_change_compatible
        )


def remark2_check(ell: int, p: int, q: int) -> Remark2Report:
    """The pair (nontrivial unipotent inertia mod p, unramified mod q with
    eigenvalue ratio -ell), and its restriction to the unramified quadratic
    extension, where a common parameter exists.

    The hypotheses ell != +-1 mod p and mod q do not by themselves rule out
    a common parameter for the pair.  Nonzero monodromy needs the ratio
    ell^(+-1) mod q, and -ell = ell^-1 mod q exactly when ell^2 = -1 mod q.
    Then the Steinberg parameter fits and the counterexample is not
    confirmed, as at (ell, p, q) = (5, 7, 13).

    Base change squares Frobenius, enlarges the residue field to size
    ell^2 and keeps unipotent inertia, so monodromy there forces the ratio
    (ell^2)^(+-1).  The squared ratio is (-ell)^2 = ell^2, so the base
    change is compatible for every triple: base_change_compatible is True.
    """
    require_odd_primes(ell, p, q)

    detail = (
        (f"{ell} mod {p} not +-1", ell % p not in (1, p - 1)),
        (f"{ell} mod {q} not +-1", ell % q not in (1, q - 1)),
    )
    hypotheses = all(ok for _, ok in detail)

    datum_p = UnipotentRamified(ell, p, _trivial_mod_char(ell, p), _ONE)
    datum_q = UnramifiedSemisimple(ell, q, AlgebraicFrobValue(QmodZ(1, 2), 1))  # -ell
    compat = local_compat(datum_p, datum_q)
    return Remark2Report(ell, p, q, hypotheses, detail, compat, True)
