"""Local constraints for simultaneous modularity of a mod-p / mod-q pair.

Away from p and q, the two-dimensional local data in scope are principal
series (two tame characters plus Frobenius data) and the twist-of-special
shape (nonzero monodromy, forcing eigenvalue ratio ell up to inversion).
Frobenius eigenvalue data is kept algebraic: a root of unity times an
integer power of ell, written (zeta, w) for zeta * ell^w.  Reduction keeps
the prime-to-p part of zeta and folds nothing: equality of reduced values
is tested by evaluating ell's residue in the fixed Q/Z coordinates.

A parameter with nonzero monodromy admits two integral-model reductions:
the generic one with nontrivial unipotent inertia, and a rescaled one that
is unramified with eigenvalue ratio ell (up to inversion).  Compatibility
search across the two characteristics leans on that freedom.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .abchar import (
    GroupCharacter,
    ModCharacter,
    on_common_unit_group,
    reduce_mod,
    simultaneous_artin_lift,
    unit_group,
)
from .exactnum import (
    Congruence,
    QmodZ,
    crt_pair,
    discrete_log,
    glue_pq,
    is_prime,
    primitive_root,
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
    "WeightCrtResult",
    "weight_crt",
    "wd_reduce",
    "local_compat",
    "remark2_check",
    "residue_address",
]


# ---------------------------------------------------------------------------
# Weight congruence


@dataclass(frozen=True)
class WeightCrtResult:
    k_class: Congruence
    representative: int  # least representative >= 2


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


# ---------------------------------------------------------------------------
# Algebraic Frobenius data


@lru_cache(maxsize=1 << 12)
def residue_address(u: int, r: int) -> QmodZ:
    """The image of the unit u in the fixed Q/Z coordinates of F_r^*: the
    canonical generator (least primitive root) maps to 1/(r-1)."""
    return QmodZ(unit_dlog(primitive_root(r), u, r), r - 1)


@dataclass(frozen=True)
class AlgebraicFrobValue:
    """zeta * ell^w with zeta a root of unity written additively in Q/Z."""

    zeta: QmodZ
    weight: int

    def reduce(self, target: int) -> "AlgebraicFrobValue":
        return AlgebraicFrobValue(self.zeta.part_prime_to(target), self.weight)

    def value_mod(self, ell: int, target: int) -> QmodZ:
        """The reduction modulo target, as an element of the residue field's
        multiplicative group in Q/Z coordinates."""
        return self.zeta.part_prime_to(target) + self.weight * residue_address(
            ell, target
        )

    def square(self) -> "AlgebraicFrobValue":
        return AlgebraicFrobValue(2 * self.zeta, 2 * self.weight)

    def __str__(self) -> str:
        return f"zeta({self.zeta}) * ell^{self.weight}"


MINUS_ONE = QmodZ(1, 2)


@dataclass(frozen=True)
class QuasiChar:
    """A quasicharacter of the local Weil group: finite-order part on the
    units plus an algebraic value at Frobenius."""

    inertial: GroupCharacter  # on (Z/ell^a)^*
    frob: AlgebraicFrobValue


@dataclass(frozen=True)
class Reducible:
    """Semisimple parameter: direct sum of two quasicharacters, no monodromy."""

    eps1: QuasiChar
    eps2: QuasiChar


@dataclass(frozen=True)
class Steinberg:
    """Parameter with nonzero monodromy; the second character is the twist of
    eps by the norm (Frobenius value multiplied by ell) and is not stored."""

    eps: QuasiChar


WDParam = Reducible | Steinberg


# ---------------------------------------------------------------------------
# Reduced local data


@dataclass(frozen=True)
class UnramifiedSemisimple:
    ell: int
    residue_char: int
    ratio: AlgebraicFrobValue  # Frobenius eigenvalue ratio, up to inversion

    def ratio_values(self) -> frozenset[QmodZ]:
        v = self.ratio.value_mod(self.ell, self.residue_char)
        return frozenset((v, -v))


@dataclass(frozen=True)
class TamePrincipal:
    ell: int
    residue_char: int
    inertials: tuple[ModCharacter, ModCharacter]
    frobs: tuple[AlgebraicFrobValue, AlgebraicFrobValue]


@dataclass(frozen=True)
class UnipotentRamified:
    """Nontrivial unipotent inertial image of order residue_char, with the
    reduced Frobenius character of the twist."""

    ell: int
    residue_char: int
    frob_char_inertial: ModCharacter
    frob_char_value: AlgebraicFrobValue


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


@dataclass(frozen=True)
class CompatReport:
    compatible: bool
    witness: WDParam | None
    witness_kind: str | None  # "principal-series" | "steinberg"
    reason: str | None
    alternatives: tuple[str, ...] = ()


def _simultaneous_value(
    ell: int, target_p: QmodZ, p: int, target_q: QmodZ, q: int
) -> AlgebraicFrobValue | None:
    """The algebraic value zeta * ell^w of least weight w >= 0 whose
    reductions mod p and mod q hit the two targets, if one exists.

    Write L_r for residue_address(ell, r) and pi for the prime-to-pq part
    in Q/Z.  A target_p with a p-part, or a target_q with a q-part, is hit
    by no reduction.  Otherwise zeta exists at w exactly when
    target_p - w*L_p and target_q - w*L_q agree away from p and q, that is
    when w * pi(L_p - L_q) = pi(target_p - target_q); the least such w is
    a discrete log and is below lcm(p-1, q-1).  zeta glues the two.
    """
    if not target_p.part_at(p).is_zero() or not target_q.part_at(q).is_zero():
        return None
    L_p = residue_address(ell, p)
    L_q = residue_address(ell, q)

    def pi(x: QmodZ) -> QmodZ:
        return x - x.part_at(p) - x.part_at(q)

    w = discrete_log(pi(target_p - target_q), pi(L_p - L_q))
    if w is None:
        return None
    zeta = glue_pq(target_p - w * L_p, p, target_q - w * L_q, q)
    if zeta is not None:
        value = AlgebraicFrobValue(zeta, w)
        if value.value_mod(ell, p) == target_p and value.value_mod(ell, q) == target_q:
            return value
    raise AssertionError(f"weight {w} does not reduce to both targets at {ell}")


def _match_steinberg(
    unipotent: UnipotentRamified, other: LocalGaloisDatum
) -> tuple[WDParam | None, str | None]:
    """Try to realise both sides from one nonzero-monodromy parameter: its
    generic reduction on the unipotent side, a rescaled integral model on
    the other."""
    ell = unipotent.ell
    p = unipotent.residue_char
    q = other.residue_char
    t_p = unipotent.frob_char_value.value_mod(ell, p)

    if isinstance(other, UnipotentRamified):
        inert = simultaneous_artin_lift(
            *on_common_unit_group(
                ell, unipotent.frob_char_inertial, other.frob_char_inertial
            )
        )
        if inert is None:
            return None, "twist characters do not lift simultaneously"
        value = _simultaneous_value(
            ell, t_p, p, other.frob_char_value.value_mod(ell, q), q
        )
        if value is None:
            return None, "Frobenius values of the twists admit no common algebraic value"
        return Steinberg(QuasiChar(inert, value)), None

    if isinstance(other, UnramifiedSemisimple):
        # the unramified side forces the rescaled model: the twist character
        # must die mod q, and the eigenvalue ratio must reduce from ell^(+-1)
        trivial_q = _trivial_mod_char(ell, q)
        inert = simultaneous_artin_lift(
            *on_common_unit_group(ell, unipotent.frob_char_inertial, trivial_q)
        )
        if inert is None:
            return None, "twist character is not trivialisable mod the unramified side"
        L_q = residue_address(ell, q)
        if L_q not in other.ratio_values():
            return (
                None,
                "nonzero monodromy forces eigenvalue ratio ell up to inversion, "
                f"but the unramified side has ratio set "
                f"{sorted(str(v) for v in other.ratio_values())}",
            )
        # the unramified datum pins no Frobenius value, only the ratio: any
        # twist value reducing correctly mod p serves
        return Steinberg(QuasiChar(inert, AlgebraicFrobValue(t_p, 0))), None

    # TamePrincipal other side: the rescaled model is epsilon + epsilon*norm,
    # so the pinned inertial characters must coincide and the pinned values
    # must differ by exactly ell
    if other.inertials[0].base != other.inertials[1].base:
        return (
            None,
            "nonzero monodromy reduces with equal diagonal inertial characters",
        )
    inert = simultaneous_artin_lift(
        *on_common_unit_group(ell, unipotent.frob_char_inertial, other.inertials[0])
    )
    if inert is None:
        return None, "twist characters do not lift simultaneously"
    v0 = other.frobs[0].value_mod(ell, q)
    v1 = other.frobs[1].value_mod(ell, q)
    L_q = residue_address(ell, q)
    targets = []
    if v0 == v1 + L_q:
        targets.append(v1)
    if v1 == v0 + L_q:
        targets.append(v0)
    if not targets:
        return None, "pinned eigenvalues do not differ by exactly ell"
    for target_q in targets:
        value = _simultaneous_value(ell, t_p, p, target_q, q)
        if value is not None:
            return Steinberg(QuasiChar(inert, value)), None
    return None, "no algebraic twist value matches both sides"


def _match_principal(
    a: TamePrincipal, b: TamePrincipal
) -> tuple[WDParam | None, str | None]:
    p, q = a.residue_char, b.residue_char
    ell = a.ell
    reasons = []
    for perm in ((0, 1), (1, 0)):
        inerts = []
        frobs = []
        ok = True
        for i in range(2):
            lifted = simultaneous_artin_lift(
                *on_common_unit_group(ell, a.inertials[i], b.inertials[perm[i]])
            )
            if lifted is None:
                ok = False
                reasons.append(f"inertial characters clash under matching {perm}")
                break
            inerts.append(lifted)
            value = _simultaneous_value(
                ell,
                a.frobs[i].value_mod(ell, p), p,
                b.frobs[perm[i]].value_mod(ell, q), q,
            )
            if value is None:
                ok = False
                reasons.append(f"Frobenius values clash under matching {perm}")
                break
            frobs.append(value)
        if ok:
            return (
                Reducible(QuasiChar(inerts[0], frobs[0]), QuasiChar(inerts[1], frobs[1])),
                None,
            )
    return None, "; ".join(reasons)


def _unramified_pair(
    a: UnramifiedSemisimple, b: UnramifiedSemisimple
) -> tuple[WDParam | None, str | None]:
    ell, p, q = a.ell, a.residue_char, b.residue_char
    for va in sorted(a.ratio_values(), key=lambda v: (v.num, v.den)):
        for vb in sorted(b.ratio_values(), key=lambda v: (v.num, v.den)):
            value = _simultaneous_value(ell, va, p, vb, q)
            if value is not None:
                triv = GroupCharacter.trivial(unit_group(ell, 1))
                return (
                    Reducible(
                        QuasiChar(triv, value),
                        QuasiChar(triv, AlgebraicFrobValue(QmodZ(0, 1), 0)),
                    ),
                    None,
                )
    return None, "eigenvalue ratios admit no common algebraic value"


def _match_tame_against_ratio(
    tame: TamePrincipal, unram: UnramifiedSemisimple
) -> tuple[WDParam | None, str | None]:
    """Principal-series match when one side pins characters and values and
    the other pins only the eigenvalue ratio (the common unramified twist on
    that side is free)."""
    ell = tame.ell
    cp, cq = tame.residue_char, unram.residue_char
    trivial = _trivial_mod_char(ell, cq)
    inerts = []
    for chi in tame.inertials:
        lifted = simultaneous_artin_lift(*on_common_unit_group(ell, chi, trivial))
        if lifted is None:
            return (
                None,
                "a pinned inertial character does not vanish under the other reduction",
            )
        inerts.append(lifted)
    t = [f.value_mod(ell, cp) for f in tame.frobs]
    value2 = AlgebraicFrobValue(t[1], 0)
    v2 = value2.value_mod(ell, cq)
    r = unram.ratio.value_mod(ell, cq)
    for target in (v2 + r, v2 - r):
        value1 = _simultaneous_value(ell, t[0], cp, target, cq)
        if value1 is not None:
            return (
                Reducible(QuasiChar(inerts[0], value1), QuasiChar(inerts[1], value2)),
                None,
            )
    return None, "pinned values cannot meet the eigenvalue ratio"


def _steinberg_matches_unramified(datum: UnramifiedSemisimple) -> bool:
    L = residue_address(datum.ell, datum.residue_char)
    return L in datum.ratio_values()


def local_compat(
    datum_p: LocalGaloisDatum, datum_q: LocalGaloisDatum
) -> CompatReport:
    """Search the implemented parameter shapes for one whose mod-p and mod-q
    reductions (under suitable integral models) give the two local data.

    Unramified principal series is preferred when several shapes fit;
    alternatives are listed in the report.  Nontrivial unipotent inertia on
    either side forces nonzero monodromy.
    """
    if datum_p.ell != datum_q.ell:
        raise ValueError("the two data live at different primes")
    p, q = datum_p.residue_char, datum_q.residue_char
    ell = datum_p.ell
    if p == q:
        raise ValueError("residue characteristics must differ")
    if ell in (p, q):
        raise ValueError("compatibility is checked away from p and q")

    uni_p = isinstance(datum_p, UnipotentRamified)
    uni_q = isinstance(datum_q, UnipotentRamified)

    if uni_p or uni_q:
        if uni_p:
            witness, reason = _match_steinberg(datum_p, datum_q)
        else:
            witness, reason = _match_steinberg(datum_q, datum_p)
        if witness is None:
            return CompatReport(False, None, None, reason)
        return CompatReport(True, witness, "steinberg", None)

    if isinstance(datum_p, UnramifiedSemisimple) and isinstance(
        datum_q, UnramifiedSemisimple
    ):
        witness, reason = _unramified_pair(datum_p, datum_q)
        if witness is None:
            return CompatReport(False, None, None, reason)
        alternatives = ()
        if _steinberg_matches_unramified(datum_p) and _steinberg_matches_unramified(
            datum_q
        ):
            alternatives = ("steinberg",)
        return CompatReport(True, witness, "principal-series", None, alternatives)

    if isinstance(datum_p, TamePrincipal) and isinstance(datum_q, TamePrincipal):
        witness, reason = _match_principal(datum_p, datum_q)
    elif isinstance(datum_p, TamePrincipal):
        witness, reason = _match_tame_against_ratio(datum_p, datum_q)
    else:
        witness, reason = _match_tame_against_ratio(datum_q, datum_p)
    if witness is None:
        return CompatReport(False, None, None, reason)
    return CompatReport(True, witness, "principal-series", None)


# ---------------------------------------------------------------------------
# The ratio -ell obstruction and its disappearance after base change


@dataclass(frozen=True)
class Remark2Report:
    ell: int
    p: int
    q: int
    hypotheses_hold: bool
    hypothesis_detail: tuple[tuple[str, bool], ...]
    compat: CompatReport | None
    base_change_compatible: bool | None

    @property
    def counterexample_confirmed(self) -> bool:
        return bool(
            self.hypotheses_hold
            and self.compat is not None
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
    """
    require_odd_primes(ell, p, q)

    detail = (
        (f"{ell} mod {p} not +-1", ell % p not in (1, p - 1)),
        (f"{ell} mod {q} not +-1", ell % q not in (1, q - 1)),
    )
    hypotheses = all(ok for _, ok in detail)

    datum_p = UnipotentRamified(
        ell, p, _trivial_mod_char(ell, p), AlgebraicFrobValue(QmodZ(0, 1), 0)
    )
    minus_ell = AlgebraicFrobValue(MINUS_ONE, 1)
    datum_q = UnramifiedSemisimple(ell, q, minus_ell)
    compat = local_compat(datum_p, datum_q)

    # base change to the unramified quadratic extension: Frobenius squares,
    # (-ell)^2 = ell^2 has trivial root-of-unity part, the residue field has
    # size ell^2, and unipotent inertia persists
    squared = minus_ell.square()
    L2 = 2 * residue_address(ell, q)
    squared_value = squared.value_mod(ell, q)
    base_change = squared_value in (L2, -L2)

    return Remark2Report(
        ell, p, q, hypotheses, detail, compat, base_change
    )
