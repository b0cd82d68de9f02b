import math
import random
import time

import pytest
from hypothesis import given, settings, strategies as st

from heckelift import abchar
from heckelift.abchar import (
    FinAbGroup,
    GroupCharacter,
    ModCharacter,
    UNIT_GROUP_BOUND,
    UnitLabel,
    character_conductor,
    enumerate_characters,
    reduce_mod,
    simultaneous_artin_lift,
    unit_character,
    unit_group,
    unit_value,
    _cyclotomic,
    _cyclotomic_log,
    _glue_levels,
    _level_one_log,
)
from heckelift.exactnum import QmodZ, primitive_root, unit_dlog

from conftest import walk_dlog


def char(group, *pairs):
    return GroupCharacter(group, tuple(QmodZ(n, d) for n, d in pairs))


def _unit_level(eps: GroupCharacter, ell: int) -> int:
    """The c of a character presented on (Z/ell^c)^*; c = 0 is the trivial group."""
    labels = eps.group.labels
    if not labels:
        return 0
    label = labels[0]
    if len(labels) != 1 or not isinstance(label, UnitLabel) or label.prime != ell:
        raise ValueError(f"needs a labelled (Z/{ell}^c)* presentation")
    return label.exponent


def at_unit_level(eps: GroupCharacter, ell: int, exponent: int) -> GroupCharacter:
    """A character of (Z/ell^c)^* presented on (Z/ell^exponent)^*.

    c = 0 means the trivial group.  The character k/d on the generator of
    (Z/ell^c)^*, of order d, factors through (Z/ell^exponent)^*, of order
    d2, exactly when its order divides d2, that is when k*d2 = 0 mod d
    (d2 = 1 for the trivial group): always when exponent >= c, and when
    pushing down only if its conductor divides ell^exponent.  It then
    factors through the lower of the two levels, so the new generator's
    image is the old image times the discrete log of the new generator,
    taken in (Z/ell)^*.
    """
    c = _unit_level(eps, ell)
    if exponent == c:
        return eps
    target = unit_group(ell, exponent)
    if eps.is_trivial():
        return GroupCharacter.trivial(target)
    (k,), (d,) = eps.exps, eps.group.orders
    d2 = target.orders[0] if exponent else 1
    if k * d2 % d:
        raise ValueError(
            f"a character of conductor {character_conductor(eps)} does not factor "
            f"through (Z/{ell}^{exponent})*"
        )
    # above level 1 both canonical generators are the same g, so the log
    # there is 1, and modulo ell it is 1 too
    e = walk_dlog(eps.group.labels[0].generator, target.labels[0].generator, ell)
    return GroupCharacter._make(target, (e * (k * d2 // d) % d2,))


# at_unit_level moves a character between levels directly, through a
# discrete log in (Z/ell)^* at every move: the reference the edge pair
# unit_value, unit_character is checked against


def moved(eps: GroupCharacter, ell: int, exponent: int) -> GroupCharacter:
    """The character eps of (Z/ell^c)^* presented on (Z/ell^exponent)^*,
    through its value."""
    return unit_character(ell, exponent, unit_value(eps, ell))


def outcome(change, eps, ell, exponent):
    """change(eps, ell, exponent), or the message it refuses with."""
    try:
        return change(eps, ell, exponent)
    except ValueError as refused:
        return str(refused)


class TestGroupCharacter:
    def test_image_must_be_killed(self):
        g = FinAbGroup((4,))
        with pytest.raises(ValueError):
            char(g, (1, 3))

    def test_order_is_lcm(self):
        g = FinAbGroup((6, 4))
        assert char(g, (1, 6), (1, 4)).order() == 12
        assert GroupCharacter.trivial(g).order() == 1

    def test_group_law(self):
        g = FinAbGroup((5,))
        a = char(g, (1, 5))
        b = char(g, (2, 5))
        assert a * b == char(g, (3, 5))
        assert (a * char(g, (4, 5))).is_trivial()


@st.composite
def groups_with_images(draw, count=1):
    """A group of rank at most 3 with cyclic orders at most 200, and count
    tuples of valid generator images."""
    orders = tuple(draw(st.lists(st.integers(2, 200), max_size=3)))
    images = [
        tuple(QmodZ(draw(st.integers(0, d - 1)), d) for d in orders)
        for _ in range(count)
    ]
    return (FinAbGroup(orders), *images)


class TestExponentStorage:
    """The exponent storage against the same operations done in Q/Z on the
    generator images."""

    @given(groups_with_images())
    def test_images_round_trip(self, drawn):
        g, imgs = drawn
        eps = GroupCharacter(g, imgs)
        assert eps.images == imgs
        assert all(0 <= k < d for k, d in zip(eps.exps, g.orders))

    @given(groups_with_images(count=2))
    def test_group_law(self, drawn):
        g, a, b = drawn
        x, y = GroupCharacter(g, a), GroupCharacter(g, b)
        assert (x * y).images == tuple(s + t for s, t in zip(a, b))

    @given(groups_with_images(), st.sampled_from([2, 3, 5, 7, 11, 13]))
    def test_parts_and_order(self, drawn, ell):
        g, imgs = drawn
        eps = GroupCharacter(g, imgs)
        assert eps.part_prime_to(ell).images == tuple(s.part_prime_to(ell) for s in imgs)
        assert eps.order() == math.lcm(1, *(s.den for s in imgs))
        assert eps.is_trivial() == all(s.is_zero() for s in imgs)


class TestReduceMod:
    def test_crt_split_example(self):
        g = FinAbGroup((15,))
        eps = char(g, (1, 15))
        red = reduce_mod(eps, 5)
        assert red.base.images[0] == QmodZ(2, 3)

    def test_trivial_cases(self):
        g = FinAbGroup((15,))
        assert reduce_mod(GroupCharacter.trivial(g), 5).is_trivial()
        g25 = FinAbGroup((25,))
        assert reduce_mod(char(g25, (1, 25)), 5).is_trivial()

    def test_idempotent_and_fixed_points(self):
        for orders in [(6,), (12,), (4, 10)]:
            g = FinAbGroup(orders)
            for eps in enumerate_characters(g):
                for ell in (2, 3, 5):
                    red = reduce_mod(eps, ell)
                    again = reduce_mod(red.base, ell)
                    assert again.base == red.base
                    if eps.order() % ell != 0:
                        assert red.base == eps

    def test_order_multiplicativity(self, all_abelian_groups):
        # killed ell-part times surviving order recovers the full order,
        # exhaustively over all groups of order <= 200
        for orders in all_abelian_groups(200):
            g = FinAbGroup(orders)
            n = g.num_characters()
            # sample the character group when it is large
            step = max(1, n // 64)
            for i, eps in enumerate(enumerate_characters(g)):
                if i % step:
                    continue
                for ell in (3, 5):
                    red = reduce_mod(eps, ell)
                    killed = math.lcm(1, *((x - x.part_prime_to(ell)).den for x in eps.images))
                    assert red.order() * killed == eps.order()

    @given(groups_with_images(), st.sampled_from([2, 3, 5, 7, 11, 13]))
    def test_equals_the_checked_constructor(self, drawn, ell):
        # reduce_mod builds its result without ModCharacter's checks, which
        # that result passes
        g, imgs = drawn
        eps = GroupCharacter(g, imgs)
        assert reduce_mod(eps, ell) == ModCharacter(eps.part_prime_to(ell), ell)


class TestSimultaneousArtinLift:
    def test_trivial(self):
        g = FinAbGroup((3,))
        t = ModCharacter(GroupCharacter.trivial(g), 5)
        t2 = ModCharacter(GroupCharacter.trivial(g), 7)
        got = simultaneous_artin_lift(t, t2)
        assert got is not None and got.is_trivial()

    def test_order_three_obstruction(self):
        g = FinAbGroup((3,))
        tau = ModCharacter(char(g, (1, 3)), 5)
        tau2 = ModCharacter(GroupCharacter.trivial(g), 7)
        assert simultaneous_artin_lift(tau, tau2) is None

    def test_z21_example(self):
        g = FinAbGroup((21,))
        tau_base = char(g, (1, 21))  # order 21, prime to 5
        tau = ModCharacter(tau_base, 5)
        tau2 = reduce_mod(tau_base, 3)  # the order-7 part, as a mod-3 character
        got = simultaneous_artin_lift(tau, tau2)
        assert got == tau_base

    def test_rejects_mismatched_groups(self):
        t = ModCharacter(GroupCharacter.trivial(FinAbGroup((3,))), 5)
        t2 = ModCharacter(GroupCharacter.trivial(FinAbGroup((4,))), 7)
        with pytest.raises(ValueError):
            simultaneous_artin_lift(t, t2)

    def test_exhaustive_agreement_3_7(self, artin_lift_sweep):
        # remaining (p, q) pair; (3,5) and (5,7) run in the acceptance suite
        artin_lift_sweep(3, 7, 200)


class TestCharacterConductor:
    def test_examples(self):
        g = unit_group(5, 2)
        assert character_conductor(GroupCharacter.trivial(g)) == 1
        assert character_conductor(char(g, (5, 20))) == 5  # order 4
        assert character_conductor(char(g, (4, 20))) == 25  # order 5

    def test_rejects_unlabelled(self):
        with pytest.raises(ValueError):
            character_conductor(char(FinAbGroup((20,)), (1, 20)))

    def test_factorization_criterion(self):
        # conductor ell^c is minimal: the character's order divides phi(ell^c)
        def phi(f):  # phi(7^c) = 6 * 7^(c-1)
            return 6 * f // 7 if f > 1 else 1

        g = unit_group(7, 2)
        for eps in enumerate_characters(g):
            f = character_conductor(eps)
            assert phi(f) % eps.order() == 0
            if f > 1:
                assert phi(f // 7) % eps.order() != 0


class TestEnumerateCharacters:
    def test_counts(self):
        assert len(list(enumerate_characters(FinAbGroup(())))) == 1
        assert len(list(enumerate_characters(FinAbGroup((2, 4))))) == 8

    def test_z6_order_multiset(self):
        orders = sorted(c.order() for c in enumerate_characters(FinAbGroup((6,))))
        assert orders == [1, 2, 3, 3, 6, 6]

    def test_deterministic_and_distinct(self):
        g = FinAbGroup((3, 4))
        first = [c.images for c in enumerate_characters(g)]
        second = [c.images for c in enumerate_characters(g)]
        assert first == second
        assert len(set(first)) == 12

    def test_bound(self):
        with pytest.raises(ValueError):
            list(enumerate_characters(FinAbGroup((1009, 1013))))


class TestUnitGroups:
    def test_unit_group_shape(self):
        g = unit_group(5, 2)
        assert g.orders == (20,)
        assert g.labels[0] == UnitLabel(5, 2, 2)
        assert unit_group(5, 0).rank == 0

    def test_unit_group_bound(self):
        bits = UNIT_GROUP_BOUND.bit_length()
        assert unit_group(3, bits - 1).orders == (2 * 3 ** (bits - 2),)
        for ell, exponent in ((3, bits), (10**9 + 7, 10**9)):
            with pytest.raises(ValueError, match="UNIT_GROUP_BOUND"):
                unit_group(ell, exponent)

    def test_unit_group_at_a_large_prime_is_fast(self):
        start = time.perf_counter()
        g = unit_group(10**7 + 19, 2)
        assert time.perf_counter() - start < 0.1
        assert g.labels[0].generator == 6

    def test_unit_dlog(self):
        assert walk_dlog(2, 8, 25) == 3
        assert unit_dlog(1, 7) == 0
        assert unit_dlog(5, 7) == 5  # to the least root 3

    def test_raise_unit_level(self):
        small = unit_group(5, 1)
        eps = char(small, (1, 4))
        big = moved(eps, 5, 2)
        assert big.group == unit_group(5, 2)
        # restriction back: evaluating the big character on elements that
        # reduce to the small generator agrees with the small character
        lab_small: UnitLabel = small.labels[0]
        lab_big: UnitLabel = big.group.labels[0]
        e = walk_dlog(lab_big.generator, lab_small.generator, 25)
        assert e * big.images[0] != QmodZ(0, 1)
        # the pullback kills the kernel of (Z/25)^* -> (Z/5)^*
        kernel_exp = 4  # index of the order-5 kernel element g^4
        assert (5 * (kernel_exp * big.images[0])).is_zero()


@st.composite
def unit_characters(draw):
    """(ell, c, eps) with eps a character of (Z/ell^c)^*, c = 0 allowed."""
    ell = draw(st.sampled_from([3, 5, 7]))
    c = draw(st.integers(0, 2))
    group = unit_group(ell, c)
    if c == 0:
        return ell, c, GroupCharacter.trivial(group)
    order = group.orders[0]
    return ell, c, char(group, (draw(st.integers(0, order - 1)), order))


@st.composite
def characters_at_40487(draw):
    """(c, eps) with eps a character of (Z/40487^c)^*, c <= 3, whose order
    is often small enough to factor through a lower level."""
    ell = 40487
    c = draw(st.integers(0, 3))
    group = unit_group(ell, c)
    if c == 0:
        return c, GroupCharacter.trivial(group)
    order = group.orders[0]
    k = draw(st.integers(0, order - 1)) * ell ** draw(st.integers(0, c - 1)) % order
    return c, char(group, (k, order))


class TestAtUnitLevel:
    """The edge pair unit_value, unit_character against the reference
    at_unit_level, and the properties the reference had."""

    @pytest.mark.parametrize("ell", [3, 5, 7])
    def test_edge_pair_matches_the_reference_on_every_character(self, ell):
        for c in range(4):
            for eps in enumerate_characters(unit_group(ell, c)):
                for exponent in range(4):
                    expected = outcome(at_unit_level, eps, ell, exponent)
                    assert outcome(moved, eps, ell, exponent) == expected

    @settings(deadline=None, max_examples=60)
    @given(characters_at_40487(), st.integers(0, 3))
    def test_edge_pair_matches_the_reference_at_40487(self, drawn, exponent):
        # the one prime below 2*10^6 where level 1 has another generator
        c, eps = drawn
        expected = outcome(at_unit_level, eps, 40487, exponent)
        assert outcome(moved, eps, 40487, exponent) == expected

    def test_level_one_at_40487_is_scaled(self):
        # g_1 = 5 and g = 10 = 5^17305 mod 40487: 1/40486 on g_1 is 17305/40486 on g
        theta = char(unit_group(40487, 1), (1, 40486))
        assert unit_value(theta, 40487) == QmodZ(17305, 40486)
        assert unit_character(40487, 1, QmodZ(17305, 40486)) == theta
        assert unit_character(40487, 2, QmodZ(17305, 40486)).images == (QmodZ(17305, 40486),)

    @pytest.mark.parametrize("ell, e", [(40487, 17305), (6692367337, 3262654313)])
    def test_level_one_log(self, ell, e):
        # g = g_1^e, checked by the walk at 40487 and by the power at both
        g1, g = primitive_root(ell), primitive_root(ell, 2)
        _level_one_log.cache_clear()
        assert g1 != g and _level_one_log(ell) == e and pow(g1, e, ell) == g
        if ell < 10**5:
            assert walk_dlog(g1, g, ell) == e

    @pytest.mark.parametrize("ell", [3, 5, 7, 40487, 6692367337])
    def test_cyclotomic_log_inverts_cyclotomic(self, ell):
        rng = random.Random(ell)
        for level in (1, 2, 3):
            d = (ell - 1) * ell ** (level - 1)
            for k in (0, 1, ell - 2, *(rng.randrange(-(10**6), 10**6) for _ in range(20))):
                x = k * _cyclotomic(ell, level) % d
                assert _cyclotomic_log(ell, level, x) == k % (ell - 1)

    def test_no_log_where_the_least_root_serves_every_level(self, monkeypatch):
        # ell - 1 = 2 * 50000000002541, prime: any log to the least root
        # needs more than _GIANT_STEPS giant steps, so the level-one log
        # answers from g_1 = g alone
        ell = 100000000005083
        with pytest.raises(ValueError, match="_GIANT_STEPS"):
            unit_dlog(primitive_root(ell), ell)
        monkeypatch.setattr(abchar, "unit_dlog", lambda *args: pytest.fail("took a log"))
        _level_one_log.cache_clear()
        assert _level_one_log(ell) == 1

    @given(unit_characters(), st.integers(0, 2))
    def test_raise_then_lower_round_trip(self, drawn, extra):
        ell, c, eps = drawn
        raised = moved(eps, ell, c + extra)
        assert raised.group == unit_group(ell, c + extra)
        assert character_conductor(raised) == character_conductor(eps)
        assert moved(raised, ell, c) == eps

    @settings(deadline=None)
    @given(unit_characters(), st.integers(0, 2))
    def test_pullback_agrees_on_every_unit(self, drawn, extra):
        # raised(g^k) = eps(g^k mod ell^c) for the generator g mod ell^(c + extra)
        ell, c, eps = drawn
        raised = moved(eps, ell, c + extra)
        if not raised.group.rank:
            return
        g = raised.group.labels[0].generator
        for k in range(raised.group.orders[0]):
            u = pow(g, k, ell ** (c + extra))
            expected = QmodZ(0, 1)
            if c:
                e = walk_dlog(eps.group.labels[0].generator, u, ell**c)
                expected = e * eps.images[0]
            assert k * raised.images[0] == expected

    @given(st.sampled_from([3, 5, 7]), st.integers(0, 3))
    def test_trivial_group_input(self, ell, exponent):
        trivial = GroupCharacter.trivial(unit_group(ell, 0))
        raised = moved(trivial, ell, exponent)
        assert raised == GroupCharacter.trivial(unit_group(ell, exponent))
        assert moved(raised, ell, 0) == trivial

    @given(unit_characters(), st.integers(0, 2))
    def test_lowering_below_the_conductor_fails(self, drawn, exponent):
        ell, c, eps = drawn
        if character_conductor(eps) > ell**exponent:
            with pytest.raises(ValueError):
                moved(eps, ell, exponent)
        else:
            # pushing down to the conductor and pulling back is the identity
            assert moved(moved(eps, ell, exponent), ell, c) == eps

    @pytest.mark.parametrize("ell", [3, 5, 7])
    def test_factors_exactly_down_to_the_conductor(self, ell):
        for c in range(4):
            for eps in enumerate_characters(unit_group(ell, c)):
                for exponent in range(4):
                    if character_conductor(eps) <= ell**exponent:
                        assert moved(eps, ell, exponent).group == unit_group(
                            ell, exponent
                        )
                    else:
                        with pytest.raises(ValueError, match="does not factor through"):
                            moved(eps, ell, exponent)

    def test_refusal_names_the_conductor(self):
        eps = char(unit_group(3, 3), (1, 9))
        with pytest.raises(ValueError) as refused:
            moved(eps, 3, 1)
        assert str(refused.value) == (
            "a character of conductor 27 does not factor through (Z/3^1)*"
        )

    def test_rejects_another_prime(self):
        with pytest.raises(ValueError):
            moved(char(unit_group(5, 1), (1, 4)), 7, 2)

    def test_on_common_unit_group(self):
        # two characters at 5 presented on the least common (Z/5^c)^*, c >= 1
        a = ModCharacter(char(unit_group(5, 2), (5, 20)), 3)
        b = ModCharacter(GroupCharacter.trivial(unit_group(5, 0)), 7)
        assert moved(a.base, 5, 2) == a.base
        assert moved(b.base, 5, 2) == GroupCharacter.trivial(unit_group(5, 2))
        assert moved(b.base, 5, 1).group == unit_group(5, 1)


def is_power_of(n: int, r: int) -> bool:
    while n % r == 0:
        n //= r
    return n == 1


def reduces_to(z: int, x: int, d: int, r: int) -> bool:
    """Whether x/d, of order prime to r, is the reduction mod r of z/d: the
    two differ by a root of unity of r-power order."""
    return (d // math.gcd(x, d)) % r != 0 and is_power_of(d // math.gcd(z - x, d), r)


def reduction_by_search(t: int, d: int, r: int) -> int:
    return next(u for u in range(d) if reduces_to(t, u, d, r))


def test_glue_levels_against_search():
    # x at level a reduced mod p and y at level b reduced mod q, against
    # every value mod phi(ell^A): drawn at random, which mostly admits no
    # lift, or as the reductions of one value at the lower level
    rng = random.Random(31)
    seen = set()
    for _ in range(300):
        ell = rng.choice([3, 5, 7, 11])
        p, q = rng.sample([r for r in (3, 5, 7, 11, 13) if r != ell], 2)
        a, b = rng.randrange(4), rng.randrange(4)
        A = max(a, b, 1)
        d, low = (ell - 1) * ell ** (A - 1), min(a, b)
        def at_level(level):
            # a value at the level, carried to level A
            return rng.randrange(d // ell ** (A - level)) * ell ** (A - level) if level else 0

        t = at_level(low) if rng.random() < 0.5 else None
        x, y = (
            reduction_by_search(at_level(level) if t is None else t, d, r) // ell ** (A - level)
            for r, level in ((p, a), (q, b))
        )
        X, Y = x * ell ** (A - a), y * ell ** (A - b)
        found = [z for z in range(d) if reduces_to(z, X, d, p) and reduces_to(z, Y, d, q)]
        assert len(found) <= 1
        assert _glue_levels(ell, x, a, p, y, b, q) == (A, found[0] if found else None)
        seen.add(bool(found))
    assert seen == {False, True}
