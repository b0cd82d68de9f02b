# Two-dimensional local constraints: a mod-p and a mod-q representation
# can only come from one newform if, prime by prime, some algebraic
# parameter reduces to both local restrictions.  Nonzero monodromy is the
# interesting case: its generic reduction has unipotent inertia, but a
# rescaled integral model is unramified with Frobenius eigenvalue ratio
# ell.  A ratio of -ell on the unramified side is therefore fatal -- until
# a quadratic base change squares it away.

from heckelift import AlgebraicFrobValue, QmodZ, local_compat, remark2_check, weight_crt
from heckelift.abchar import GroupCharacter, ModCharacter, unit_group
from heckelift.exactnum import Congruence, is_prime
from heckelift.serrepq import UnipotentRamified, UnramifiedSemisimple

# --- the weight constraint is one congruence system ------------------------

res = weight_crt(Congruence(2, 4), Congruence(2, 6))
print(f"weights 2 mod 4 and 2 mod 6: common weight {res.representative} "
      f"in the class {res.k_class}")
print(f"weights 3 mod 4 and 2 mod 6: {weight_crt(Congruence(3, 4), Congruence(2, 6))}")

# --- the ratio -ell obstruction --------------------------------------------

p, q = 5, 7
ell = 3
minus_ell = AlgebraicFrobValue(QmodZ(1, 2), 1)  # the order-2 root times ell

datum_p = UnipotentRamified(
    ell, p, ModCharacter(GroupCharacter.trivial(unit_group(ell, 1)), p),
    AlgebraicFrobValue(QmodZ(0, 1), 0),
)
datum_q = UnramifiedSemisimple(ell, q, minus_ell)

verdict = local_compat(datum_p, datum_q)
print(f"\nunipotent mod {p} against ratio -{ell} mod {q}: "
      f"{'compatible' if verdict.compatible else 'incompatible'}")
print(f"  {verdict.reason}")

# with ratio +ell instead, a single parameter with monodromy works
good = local_compat(datum_p, UnramifiedSemisimple(ell, q, AlgebraicFrobValue(QmodZ(0, 1), 1)))
print(f"same pair with ratio +{ell}: "
      f"{'compatible via ' + good.witness_kind if good.compatible else 'incompatible'}")

# --- and the obstruction dies over the unramified quadratic extension ------
# there Frobenius squares and monodromy forces the ratio ell^(+-2); since
# (-ell)^2 = ell^2, remark2_check reports base change compatible for every
# triple, by that theorem rather than a search

print()
for ell in (x for x in range(3, 51) if is_prime(x)):
    if ell in (p, q) or ell % p in (1, p - 1) or ell % q in (1, q - 1):
        continue
    rep = remark2_check(ell, p, q)
    print(f"ell = {ell}: hypotheses hold, joint parameter "
          f"{'exists' if rep.compat.compatible else 'does not exist'}, "
          f"base change {'compatible' if rep.base_change_compatible else 'incompatible'}")
