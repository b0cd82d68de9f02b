import contextlib
import functools
import json
import math
import time

import pytest
from hypothesis import given, settings, strategies as st

from heckelift import cli, serrepq
from heckelift.abchar import (
    GroupCharacter,
    ModCharacter,
    enumerate_characters,
    reduce_mod,
    unit_character,
    unit_group,
    unit_value,
)
from heckelift.exactnum import QmodZ, discrete_log, glue_pq, is_prime
from heckelift.serrepq import (
    _simultaneous_value,
    AlgebraicFrobValue,
    QuasiChar,
    Reducible,
    Steinberg,
    TamePrincipal,
    UnipotentRamified,
    UnramifiedSemisimple,
    local_compat,
    remark2_check,
    residue_address,
    wd_reduce,
)

from conftest import ROOT


def frob(zeta_num, zeta_den, weight):
    return AlgebraicFrobValue(QmodZ(zeta_num, zeta_den), weight)


def unramified(ell, target, zeta_num, zeta_den, weight):
    return UnramifiedSemisimple(ell, target, frob(zeta_num, zeta_den, weight))


def unipotent(ell, target):
    return UnipotentRamified(
        ell,
        target,
        ModCharacter(GroupCharacter.trivial(unit_group(ell, 1)), target),
        frob(0, 1, 0),
    )


class TestResidueAddress:
    def test_matches_powers_of_generator(self):
        # 3 generates F_7^*: address of 3^k is k/6
        for k in range(6):
            assert residue_address(pow(3, k, 7), 7) == QmodZ(k, 6)

    def test_minus_one_is_order_two(self):
        for p in (5, 7, 11, 13):
            assert residue_address(p - 1, p) == QmodZ(1, 2)


class TestWdReduce:
    def test_steinberg_trivial_twist(self):
        param = Steinberg(QuasiChar(GroupCharacter.trivial(unit_group(3, 1)), frob(0, 1, 0)))
        got = wd_reduce(param, 3, 5)
        assert isinstance(got, UnipotentRamified)
        assert got.frob_char_value == frob(0, 1, 0)

    def test_reducible_unramified_order3_dies_mod_3(self):
        grp = unit_group(11, 1)
        param = Reducible(
            QuasiChar(GroupCharacter.trivial(grp), frob(1, 3, 0)),
            QuasiChar(GroupCharacter.trivial(grp), frob(0, 1, 0)),
        )
        got = wd_reduce(param, 11, 3)
        assert isinstance(got, UnramifiedSemisimple)
        assert got.ratio == frob(0, 1, 0)

    def test_reducible_inertial_orders(self):
        grp = unit_group(11, 1)
        chars = list(enumerate_characters(grp))
        by_order = {c.order(): c for c in chars}
        param = Reducible(
            QuasiChar(by_order[2], frob(0, 1, 0)),
            QuasiChar(by_order[5], frob(0, 1, 1)),
        )
        got = wd_reduce(param, 11, 5)
        assert isinstance(got, TamePrincipal)
        assert got.inertials[0].order() == 2
        assert got.inertials[1].order() == 1

    def test_rejects_equal_primes(self):
        param = Steinberg(QuasiChar(GroupCharacter.trivial(unit_group(3, 1)), frob(0, 1, 0)))
        with pytest.raises(ValueError):
            wd_reduce(param, 3, 3)

    def test_commutes_with_reduction_on_inertial_parts(self):
        # forgetting to inertial data after reduction equals reducing the
        # inertial part directly
        for ell, a in [(3, 1), (3, 3), (5, 2)]:
            grp = unit_group(ell, a)
            for chi in enumerate_characters(grp):
                for target in (5, 7):
                    if target == ell:
                        continue
                    param = Reducible(
                        QuasiChar(chi, frob(0, 1, 0)),
                        QuasiChar(GroupCharacter.trivial(grp), frob(0, 1, 0)),
                    )
                    got = wd_reduce(param, ell, target)
                    expected = reduce_mod(chi, target)
                    if isinstance(got, UnramifiedSemisimple):
                        assert expected.is_trivial()
                    else:
                        assert got.inertials[0].base == expected.base


def scan_simultaneous_value(ell, target_p, p, target_q, q):
    """The reference weight search: the first w < lcm(p-1, q-1) at which
    the two targets glue and both reductions hit them."""
    L_p = residue_address(ell, p)
    L_q = residue_address(ell, q)
    for w in range(math.lcm(p - 1, q - 1)):
        zeta = glue_pq(target_p - w * L_p, p, target_q - w * L_q, q)
        if zeta is None:
            continue
        value = AlgebraicFrobValue(zeta, w)
        if (
            qmodz_value_mod(value, ell, p) == target_p
            and qmodz_value_mod(value, ell, q) == target_q
        ):
            return value
    return None


ODD_PRIMES_BELOW_110 = [r for r in range(3, 110) if is_prime(r)]
# small primes often divide r - 1 for another r, which gives L_r a q-part
odd_primes = st.one_of(
    st.sampled_from([3, 5, 7, 13]), st.sampled_from(ODD_PRIMES_BELOW_110)
)

frob_values = st.builds(
    AlgebraicFrobValue,
    st.builds(QmodZ, st.integers(0, 239), st.integers(1, 240)),
    st.integers(-4, 4),
)


def qmodz_value_mod(value, ell, target):
    """AlgebraicFrobValue.value_mod in Q/Z arithmetic."""
    return value.zeta.part_prime_to(target) + value.weight * residue_address(ell, target)


def qmodz_simultaneous_value(ell, target_p, p, target_q, q):
    """_simultaneous_value in Q/Z arithmetic, the weight a discrete_log, as
    it was computed before it moved to residues mod one denominator."""
    if target_p.part_prime_to(p) != target_p or target_q.part_prime_to(q) != target_q:
        return None
    L_p = residue_address(ell, p)
    L_q = residue_address(ell, q)

    def pi(x: QmodZ) -> QmodZ:
        return x - (x - x.part_prime_to(p)) - (x - x.part_prime_to(q))

    w = discrete_log(pi(target_p - target_q), pi(L_p - L_q))
    if w is None:
        return None
    zeta = glue_pq(target_p - w * L_p, p, target_q - w * L_q, q)
    if zeta is not None:
        value = AlgebraicFrobValue(zeta, w)
        if (
            qmodz_value_mod(value, ell, p) == target_p
            and qmodz_value_mod(value, ell, q) == target_q
        ):
            return value
    raise AssertionError(f"weight {w} does not reduce to both targets at {ell}")


def residue(x, m):
    """The QmodZ x as a residue mod m, a multiple of its denominator."""
    return x.num * (m // x.den)


def simultaneous_value(ell, target_p, p, target_q, q):
    """_simultaneous_value at one pair of QmodZ targets, carried onto the
    least common denominator m of the targets, p - 1 and q - 1."""
    m = math.lcm(p - 1, q - 1, target_p.den, target_q.den)
    return _simultaneous_value(ell, p, q, m, [(residue(target_p, m), residue(target_q, m))])


# 40487 among the primes: its least primitive root fails mod 40487^2
primes_and_40487 = st.one_of(odd_primes, st.just(40487))


class TestSimultaneousValue:
    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(primes_and_40487, min_size=3, max_size=3, unique=True),
        st.sampled_from(["one value", "two values", "stray part", "arbitrary"]),
        frob_values,
        frob_values,
    )
    def test_matches_the_qmodz_form(self, primes, kind, a, b):
        ell, p, q = primes
        m = math.lcm(p - 1, q - 1, a.zeta.den, b.zeta.den)
        for value in (a, b):
            for r in (p, q):
                assert QmodZ(value.value_mod(ell, r, m), m) == qmodz_value_mod(value, ell, r)
        if kind == "stray part":
            target_p = qmodz_value_mod(a, ell, p) + QmodZ(b.weight % 2, p)
            target_q = qmodz_value_mod(a, ell, q) + QmodZ(b.weight // 2 % 2, q)
        elif kind == "arbitrary":
            target_p, target_q = a.zeta, b.zeta
        else:
            target_p = qmodz_value_mod(a, ell, p)
            target_q = qmodz_value_mod(a if kind == "one value" else b, ell, q)
        got = simultaneous_value(ell, target_p, p, target_q, q)
        assert got == qmodz_simultaneous_value(ell, target_p, p, target_q, q)

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(odd_primes, min_size=3, max_size=3, unique=True),
        st.sampled_from(["one value", "two values", "stray part", "arbitrary"]),
        frob_values,
        frob_values,
    )
    def test_matches_the_weight_scan(self, primes, kind, a, b):
        ell, p, q = primes
        if kind == "stray part":
            # a p-part mod p, or a q-part mod q, is no reduction's value
            target_p = qmodz_value_mod(a, ell, p) + QmodZ(b.weight % 2, p)
            target_q = qmodz_value_mod(a, ell, q) + QmodZ(b.weight // 2 % 2, q)
        elif kind == "arbitrary":
            target_p, target_q = a.zeta, b.zeta
        else:
            target_p = qmodz_value_mod(a, ell, p)
            target_q = qmodz_value_mod(a if kind == "one value" else b, ell, q)
        got = simultaneous_value(ell, target_p, p, target_q, q)
        assert got == scan_simultaneous_value(ell, target_p, p, target_q, q)
        if kind == "one value":
            assert got is not None and got.weight <= a.weight % math.lcm(p - 1, q - 1)

    def test_large_primes(self):
        value = AlgebraicFrobValue(QmodZ(1, 15), 12345)
        m = math.lcm(10006, 10008, 15)
        start = time.perf_counter()
        got = _simultaneous_value(
            3, 10007, 10009, m, [(value.value_mod(3, 10007, m), value.value_mod(3, 10009, m))]
        )
        assert time.perf_counter() - start < 1.0
        assert got.value_mod(3, 10007, m) == value.value_mod(3, 10007, m)
        assert got.value_mod(3, 10009, m) == value.value_mod(3, 10009, m)
        assert got.weight < math.lcm(10006, 10008)

    def test_a_wrong_glue_fails_the_reduction_check(self, monkeypatch):
        # the check raises, so it holds under python -O as well
        glue = serrepq.glue_pq
        monkeypatch.setattr(serrepq, "glue_pq", lambda x, p, y, q, d: (glue(x, p, y, q, d) + d // 2) % d)
        value = AlgebraicFrobValue(QmodZ(1, 15), 12345)
        m = math.lcm(10006, 10008, 15)
        t_p, t_q = value.value_mod(3, 10007, m), value.value_mod(3, 10009, m)
        with pytest.raises(AssertionError, match="does not reduce to both targets at 3"):
            _simultaneous_value(3, 10007, 10009, m, [(t_p, t_q)])

    def test_a_reduction_wrong_at_q_alone_fails_the_check(self, monkeypatch):
        # the glued value reduces right mod p, so only the check at q can
        # catch the fault; ell's own residue stays right, so the weight and
        # the glue are those of the sound code
        value = AlgebraicFrobValue(QmodZ(1, 15), 12345)
        m = math.lcm(10006, 10008, 15)
        t_p, t_q = value.value_mod(3, 10007, m), value.value_mod(3, 10009, m)
        right = AlgebraicFrobValue.value_mod

        def wrong_at_q(self, ell, target, m):
            shift = 1 if target == 10009 and self != serrepq._ELL else 0
            return (right(self, ell, target, m) + shift) % m

        monkeypatch.setattr(AlgebraicFrobValue, "value_mod", wrong_at_q)
        with pytest.raises(AssertionError, match="does not reduce to both targets at 3"):
            _simultaneous_value(3, 10007, 10009, m, [(t_p, t_q)])

    def test_incompatible_ratios_at_large_primes_fail_fast(self):
        # no weight below lcm(1008, 1012) = 255024 fits; trying each takes seconds
        start = time.perf_counter()
        rep = local_compat(unramified(3, 1009, 1, 5, 0), unramified(3, 1013, 1, 7, 0))
        assert time.perf_counter() - start < 1.0
        assert not rep.compatible
        assert rep.reason == "eigenvalue ratios admit no common algebraic value"


class TestLocalCompat:
    def test_both_unramified_ratio_ell(self):
        a = unramified(3, 5, 0, 1, 1)
        b = unramified(3, 7, 0, 1, 1)
        rep = local_compat(a, b)
        assert rep.compatible
        assert rep.witness_kind == "principal-series"
        assert rep.alternatives == ("steinberg",)

    def test_ratio_ell_on_one_side_only_names_no_alternative(self):
        # ratio ell mod 5 but -ell mod 7: monodromy fits neither side's
        # unramified model mod 7, so "steinberg" is no alternative
        rep = local_compat(unramified(3, 5, 0, 1, 1), unramified(3, 7, 1, 2, 1))
        assert rep.compatible
        assert rep.witness_kind == "principal-series"
        assert rep.alternatives == ()

    def test_unramified_pair_witness_lives_on_level_one(self):
        # the least level (Z/ell)^* carries both trivial inertial characters
        rep = local_compat(unramified(3, 5, 0, 1, 1), unramified(3, 7, 1, 2, 1))
        for eps in (rep.witness.eps1, rep.witness.eps2):
            assert eps.inertial.group == unit_group(3, 1)

    def test_remark2_shape_incompatible(self):
        # unipotent mod 5 against unramified ratio -3 mod 7
        rep = local_compat(unipotent(3, 5), unramified(3, 7, 1, 2, 1))
        assert not rep.compatible
        assert rep.witness is None
        assert "ratio ell" in rep.reason

    def test_trivial_pair_compatible(self):
        a = unramified(3, 5, 0, 1, 0)
        b = unramified(3, 7, 0, 1, 0)
        rep = local_compat(a, b)
        assert rep.compatible and rep.witness_kind == "principal-series"

    def test_symmetry(self):
        pairs = [
            (unipotent(3, 5), unramified(3, 7, 1, 2, 1)),
            (unramified(3, 5, 0, 1, 1), unramified(3, 7, 0, 1, 1)),
            (unipotent(3, 5), unipotent(3, 7)),
            (unramified(3, 5, 1, 4, 0), unramified(3, 7, 1, 2, 0)),
        ]
        for a, b in pairs:
            assert local_compat(a, b).compatible == local_compat(b, a).compatible

    def test_steinberg_forced_on_unipotent_side(self):
        rep = local_compat(unipotent(3, 5), unipotent(3, 7))
        assert rep.compatible
        assert rep.witness_kind == "steinberg"
        assert isinstance(rep.witness, Steinberg)

    def test_unipotent_against_compatible_unramified(self):
        # ratio exactly ell on the unramified side: Steinberg witness exists
        rep = local_compat(unipotent(3, 5), unramified(3, 7, 0, 1, 1))
        assert rep.compatible and rep.witness_kind == "steinberg"

    def test_tame_principal_pair(self):
        ell = 11
        grp = unit_group(ell, 1)
        order2 = next(c for c in enumerate_characters(grp) if c.order() == 2)
        a = TamePrincipal(
            ell, 5,
            (ModCharacter(order2, 5), ModCharacter(GroupCharacter.trivial(grp), 5)),
            (frob(0, 1, 0), frob(0, 1, 1)),
        )
        b = TamePrincipal(
            ell, 7,
            (ModCharacter(order2, 7), ModCharacter(GroupCharacter.trivial(grp), 7)),
            (frob(0, 1, 0), frob(0, 1, 1)),
        )
        rep = local_compat(a, b)
        assert rep.compatible and rep.witness_kind == "principal-series"

    def test_tame_principal_swapped_matching(self):
        ell = 11
        grp = unit_group(ell, 1)
        order2 = next(c for c in enumerate_characters(grp) if c.order() == 2)
        a = TamePrincipal(
            ell, 5,
            (ModCharacter(order2, 5), ModCharacter(GroupCharacter.trivial(grp), 5)),
            (frob(0, 1, 0), frob(0, 1, 0)),
        )
        b = TamePrincipal(
            ell, 7,
            (ModCharacter(GroupCharacter.trivial(grp), 7), ModCharacter(order2, 7)),
            (frob(0, 1, 0), frob(0, 1, 0)),
        )
        rep = local_compat(a, b)
        assert rep.compatible

    def test_tame_principal_5_power_twist_allowed(self):
        # an order-5 character mod 7 pairs with trivial data mod 5: the
        # 5-power part of the parameter dies mod 5 and survives mod 7
        ell = 11
        grp = unit_group(ell, 1)
        order5 = next(c for c in enumerate_characters(grp) if c.order() == 5)
        a = TamePrincipal(
            ell, 5,
            (ModCharacter(GroupCharacter.trivial(grp), 5),) * 2,
            (frob(0, 1, 0), frob(0, 1, 0)),
        )
        b = TamePrincipal(
            ell, 7,
            (ModCharacter(order5, 7), ModCharacter(GroupCharacter.trivial(grp), 7)),
            (frob(0, 1, 0), frob(0, 1, 0)),
        )
        assert local_compat(a, b).compatible

    def test_tame_principal_obstruction(self):
        # an order-2 character mod 7 against trivial mod 5 cannot come from
        # one parameter: order 2 survives both reductions
        ell = 11
        grp = unit_group(ell, 1)
        order2 = next(c for c in enumerate_characters(grp) if c.order() == 2)
        a = TamePrincipal(
            ell, 5,
            (ModCharacter(GroupCharacter.trivial(grp), 5),) * 2,
            (frob(0, 1, 0), frob(0, 1, 0)),
        )
        b = TamePrincipal(
            ell, 7,
            (ModCharacter(order2, 7), ModCharacter(GroupCharacter.trivial(grp), 7)),
            (frob(0, 1, 0), frob(0, 1, 0)),
        )
        rep = local_compat(a, b)
        assert not rep.compatible
        assert "inertial" in rep.reason

    def test_unipotent_against_tame_rejected(self):
        # a trivial twist mod 5 cannot restrict to an order-2 twist mod 7
        ell = 11
        grp = unit_group(ell, 1)
        order2 = next(c for c in enumerate_characters(grp) if c.order() == 2)
        b = TamePrincipal(
            ell, 7,
            (ModCharacter(order2, 7), ModCharacter(order2, 7)),
            (frob(0, 1, 0), frob(0, 1, 1)),
        )
        rep = local_compat(unipotent(ell, 5), b)
        assert not rep.compatible

    def test_unipotent_against_tame_with_matching_ramified_twist(self):
        # monodromy with an order-2 twist: the rescaled model mod 7 is the
        # ramified pair (eps, eps*norm) with equal inertial characters and
        # eigenvalues differing by exactly ell
        ell = 11
        grp = unit_group(ell, 1)
        order2 = next(c for c in enumerate_characters(grp) if c.order() == 2)
        L7 = residue_address(ell, 7)
        datum_p = UnipotentRamified(ell, 5, ModCharacter(order2, 5), frob(0, 1, 0))
        datum_q = TamePrincipal(
            ell, 7,
            (ModCharacter(order2, 7), ModCharacter(order2, 7)),
            (AlgebraicFrobValue(L7, 0), frob(0, 1, 0)),  # values (ell, 1)
        )
        rep = local_compat(datum_p, datum_q)
        assert rep.compatible and rep.witness_kind == "steinberg"
        assert rep.witness.eps.inertial.order() == 2

    def test_unipotent_against_tame_inertials_at_two_levels(self):
        # one order-2 character of (Z/3)^*, presented once on (Z/3)^* and
        # once pulled back to (Z/9)^*, is one inertial character: the verdict
        # is the one for both presented on (Z/3)^*
        ell, p, q = 3, 5, 7
        chi = next(c for c in enumerate_characters(unit_group(ell, 1)) if c.order() == 2)
        datum_p = UnipotentRamified(ell, p, ModCharacter(chi, p), frob(0, 1, 0))
        on_3 = ModCharacter(chi, q)
        on_9 = ModCharacter(unit_character(ell, 2, unit_value(chi, ell)), q)
        for inertials in ((on_3, on_3), (on_3, on_9), (on_9, on_3)):
            datum_q = TamePrincipal(ell, q, inertials, (frob(0, 1, 1), frob(0, 1, 0)))
            rep = local_compat(datum_p, datum_q)
            assert rep.compatible and rep.witness_kind == "steinberg", rep.reason
            assert reduces_to(rep.witness, datum_p) and reduces_to(rep.witness, datum_q)

    def test_unipotent_against_tame_wrong_value_gap(self):
        # equal trivial inertials but eigenvalues not in ratio ell
        ell = 11
        grp = unit_group(ell, 1)
        triv = ModCharacter(GroupCharacter.trivial(grp), 7)
        datum_q = TamePrincipal(
            ell, 7, (triv, triv), (frob(1, 2, 0), frob(0, 1, 0))
        )
        rep = local_compat(unipotent(ell, 5), datum_q)
        assert not rep.compatible
        assert "differ by exactly ell" in rep.reason

    def test_unipotent_against_tame_with_no_common_twist_value(self):
        # equal inertial characters and values (1/11, 1/11 + L_7) differing
        # by exactly ell, so only the twist value is left to find: mod 5 it
        # is 0, mod 7 it carries 1/11, prime to 5 and 7 but outside the
        # values w * pi(L_5 - L_7) that an algebraic value runs through
        ell = 3
        chi = GroupCharacter(unit_group(ell, 1), (QmodZ(1, 2),))
        datum_p = UnipotentRamified(ell, 5, ModCharacter(chi, 5), frob(0, 1, 0))
        datum_q = TamePrincipal(
            ell, 7, (ModCharacter(chi, 7), ModCharacter(chi, 7)), (frob(1, 11, 0), frob(1, 11, 1))
        )
        for pair in ((datum_p, datum_q), (datum_q, datum_p)):
            rep = local_compat(*pair)
            assert not rep.compatible
            assert rep.reason == "no algebraic twist value matches both sides"

    def test_tame_against_ratio_free_twist(self):
        # the pinned side carries an order-3 Frobenius value; the unramified
        # side pins only the ratio, and the common twist absorbs the value
        ell = 11
        grp = unit_group(ell, 1)
        triv5 = ModCharacter(GroupCharacter.trivial(grp), 5)
        tame = TamePrincipal(
            ell, 5, (triv5, triv5), (frob(1, 3, 0), frob(0, 1, 0))
        )
        unram = unramified(ell, 7, 1, 3, 0)
        rep = local_compat(tame, unram)
        assert rep.compatible and rep.witness_kind == "principal-series"
        # and mirrored
        assert local_compat(unram, tame).compatible

    def test_guards(self):
        with pytest.raises(ValueError):
            local_compat(unramified(3, 5, 0, 1, 0), unramified(11, 7, 0, 1, 0))
        with pytest.raises(ValueError):
            local_compat(unramified(3, 5, 0, 1, 0), unramified(3, 5, 0, 1, 0))
        with pytest.raises(ValueError):
            local_compat(unramified(5, 5, 0, 1, 0), unramified(5, 7, 0, 1, 0))


# An oracle for local_compat that uses none of its matching code: a
# compatible witness reduces to both data, and the data that one parameter
# reduces to are judged compatible.


@functools.lru_cache(maxsize=None)
def unit_characters(ell, level):
    return list(enumerate_characters(unit_group(ell, level)))


@st.composite
def unit_chars(draw, ell):
    level = draw(st.sampled_from((1, 2) if ell <= 7 else (1,)))
    return draw(st.sampled_from(unit_characters(ell, level)))


@st.composite
def parameters(draw, ell, p, q):
    # a p-power or q-power inertial character dies under one reduction only,
    # so the two data often differ in shape
    def quasi():
        chi = draw(unit_chars(ell))
        p_part, q_part = (
            GroupCharacter(chi.group, tuple(x - x.part_prime_to(r) for x in chi.images))
            for r in (p, q)
        )
        part = draw(st.sampled_from([chi, p_part, q_part]))
        return QuasiChar(part, draw(frob_values))

    if draw(st.booleans()):
        return Steinberg(quasi())
    return Reducible(quasi(), quasi())


def reductions(param, ell, r, mixed=False):
    """Every datum that param reduces to mod r: the generic model, and for
    nonzero monodromy also the rescaled one, eps + eps*norm.  With mixed,
    the rescaled model's second inertial character is presented on
    (Z/ell^3)^*, a level above every drawn character's."""
    got = [wd_reduce(param, ell, r)]
    if isinstance(param, Steinberg):
        red = reduce_mod(param.eps.inertial, r)
        f = param.eps.frob
        if red.is_trivial():
            got.append(UnramifiedSemisimple(ell, r, frob(0, 1, 1)))
        else:
            g = AlgebraicFrobValue(f.zeta, f.weight + 1)
            red3 = unit_character(ell, 3, unit_value(red.base, ell))
            red2 = ModCharacter(red3, r) if mixed else red
            got += [TamePrincipal(ell, r, (red, red2), frobs) for frobs in ((g, f), (f, g))]
    return got


# small denominators, so that random data are often compatible
small_frobs = st.builds(
    AlgebraicFrobValue,
    st.builds(QmodZ, st.integers(0, 11), st.sampled_from([1, 2, 3, 4, 6, 12])),
    st.integers(-2, 2),
)


@st.composite
def random_data(draw, ell, r):
    shape = draw(st.sampled_from(["unipotent", "tame", "unramified"]))
    if shape == "unramified":
        return UnramifiedSemisimple(ell, r, draw(small_frobs))
    chi = reduce_mod(draw(unit_chars(ell)), r)
    if shape == "unipotent":
        return UnipotentRamified(ell, r, chi, draw(small_frobs))
    chis = (chi, reduce_mod(draw(unit_chars(ell)), r))
    return TamePrincipal(ell, r, chis, (draw(small_frobs), draw(small_frobs)))


def ratio_set(datum):
    """The reduced ratio of an unramified datum and its inverse, in Q/Z."""
    v = qmodz_value_mod(datum.ratio, datum.ell, datum.residue_char)
    return {v, -v}


def reduces_to(witness, datum):
    """Whether witness reduces to datum: principal series and the unipotent
    side by the generic model, the other side of nonzero monodromy by the
    rescaled one.  Characters of (Z/ell^c)^*, c <= 2, compare at level 2."""
    ell, r = datum.ell, datum.residue_char

    def char(chi):
        return unit_character(ell, 2, unit_value(chi, ell))

    def value(f):
        return qmodz_value_mod(f, ell, r)

    def summands(datum):
        return [(char(c.base), value(f)) for c, f in zip(datum.inertials, datum.frobs)]

    if isinstance(witness, Reducible):
        if isinstance(datum, UnipotentRamified):
            return False
        if isinstance(datum, UnramifiedSemisimple):
            red = wd_reduce(witness, ell, r)
            if not isinstance(red, UnramifiedSemisimple):
                return False
            return ratio_set(red) == ratio_set(datum)
        # summand by summand, in either order: wd_reduce keeps only the
        # ratio when both inertial characters die mod r
        got = [
            (char(reduce_mod(e.inertial, r).base), value(e.frob))
            for e in (witness.eps1, witness.eps2)
        ]
        return got in (summands(datum), summands(datum)[::-1])
    if isinstance(datum, UnipotentRamified):
        red = wd_reduce(witness, ell, r)
        return (char(red.frob_char_inertial.base), value(red.frob_char_value)) == (
            char(datum.frob_char_inertial.base), value(datum.frob_char_value)
        )
    # the rescaled model: trivial inertia and ratio ell, or equal inertial
    # characters with values v and v + L_r
    chi = char(reduce_mod(witness.eps.inertial, r).base)
    v = value(witness.eps.frob)
    L_r = residue_address(ell, r)
    if isinstance(datum, UnramifiedSemisimple):
        return chi.is_trivial() and L_r in ratio_set(datum)
    return summands(datum) in ([(chi, v), (chi, v + L_r)], [(chi, v + L_r), (chi, v)])


class TestLocalCompatOracle:
    @settings(max_examples=500, deadline=None)
    @given(st.data())
    def test_compatible_witness_reduces_to_both_data(self, data):
        ell, p, q = data.draw(st.lists(odd_primes, min_size=3, max_size=3, unique=True))
        datum_p = data.draw(random_data(ell, p))
        datum_q = data.draw(random_data(ell, q))
        rep = local_compat(datum_p, datum_q)
        if rep.compatible:
            assert reduces_to(rep.witness, datum_p) and reduces_to(rep.witness, datum_q)

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_reductions_of_one_parameter_are_compatible(self, data):
        ell, p, q = data.draw(st.lists(odd_primes, min_size=3, max_size=3, unique=True))
        param = data.draw(parameters(ell, p, q))
        mixed = data.draw(st.booleans())
        for datum_p in reductions(param, ell, p, mixed):
            for datum_q in reductions(param, ell, q, mixed):
                rep = local_compat(datum_p, datum_q)
                assert rep.compatible, rep.reason
                assert reduces_to(rep.witness, datum_p) and reduces_to(rep.witness, datum_q)


@contextlib.contextmanager
def no_qmodz_arithmetic():
    """QmodZ's +, -, unary -, * and part_prime_to raise inside the block."""

    def refuse(*args):
        raise AssertionError("QmodZ arithmetic inside local_compat")

    with pytest.MonkeyPatch.context() as patch:
        for name in ("__add__", "__sub__", "__neg__", "__mul__", "__rmul__", "part_prime_to"):
            patch.setattr(QmodZ, name, refuse)
        yield


def sample_problem(name):
    return json.loads((ROOT / "demos" / "problems" / name).read_text())


class TestMatcherOnResidues:
    def test_refuse_catches_qmodz_arithmetic(self):
        with no_qmodz_arithmetic(), pytest.raises(AssertionError, match="QmodZ arithmetic"):
            -QmodZ(1, 3)
        assert -QmodZ(1, 3) == QmodZ(2, 3)

    def test_samples_match_without_qmodz_arithmetic(self):
        problem = sample_problem("local_compat_minus_ell.json")
        ell, p, q = problem["ell"], problem["p"], problem["q"]
        datum_p = cli._parse_datum(problem["datum"], ell, p)
        datum_q = cli._parse_datum(problem["datum_prime"], ell, q)
        remark2 = sample_problem("remark2_3_5_7.json")
        with no_qmodz_arithmetic():
            assert not local_compat(datum_p, datum_q).compatible
            rep = remark2_check(remark2["ell"], remark2["p"], remark2["q"])
        assert rep.counterexample_confirmed

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_random_data_match_without_qmodz_arithmetic(self, data):
        ell, p, q = data.draw(st.lists(odd_primes, min_size=3, max_size=3, unique=True))
        datum_p = data.draw(random_data(ell, p))
        datum_q = data.draw(random_data(ell, q))
        with no_qmodz_arithmetic():
            local_compat(datum_p, datum_q)


class TestRemark2:
    def test_3_5_7(self):
        rep = remark2_check(3, 5, 7)
        assert rep.hypotheses_hold
        assert not rep.compat.compatible
        assert rep.base_change_compatible
        assert rep.counterexample_confirmed

    def test_hypothesis_failures(self):
        assert not remark2_check(11, 5, 7).hypotheses_hold  # 11 = 1 mod 5
        assert not remark2_check(13, 7, 5).hypotheses_hold  # 13 = -1 mod 7

    def test_order_four_boundary_case(self):
        # ell^2 = -1 mod q makes -ell equal to ell^(-1): the hypotheses hold
        # but a joint parameter exists, so no counterexample arises
        rep = remark2_check(5, 7, 13)  # 5^2 = 25 = -1 mod 13
        assert rep.hypotheses_hold
        assert rep.compat.compatible
        assert rep.compat.witness_kind == "steinberg"
        assert not rep.counterexample_confirmed

    def test_joint_parameter_exactly_when_ell_squared_is_minus_one(self):
        primes = [r for r in range(3, 30) if is_prime(r)]
        for ell in primes:
            for p in primes:
                for q in primes:
                    if len({ell, p, q}) == 3:
                        rep = remark2_check(ell, p, q)
                        assert rep.compat.compatible == (ell * ell % q == q - 1)
                        assert rep.base_change_compatible

    def test_guards(self):
        with pytest.raises(ValueError):
            remark2_check(2, 5, 7)
        with pytest.raises(ValueError):
            remark2_check(5, 5, 7)

    def test_suite_up_to_50(self):
        qualifying = [
            ell
            for ell in range(3, 51)
            if is_prime(ell)
            and ell not in (5, 7)
            and ell % 5 not in (1, 4)
            and ell % 7 not in (1, 6)
        ]
        assert qualifying  # non-vacuous
        for ell in qualifying:
            rep = remark2_check(ell, 5, 7)
            assert rep.counterexample_confirmed
            # squared ratio has trivial root-of-unity part
            sq = AlgebraicFrobValue(2 * QmodZ(1, 2), 2)
            assert sq.zeta == QmodZ(0, 1)
