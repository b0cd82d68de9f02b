import math
import random
import re
import time

import pytest
from hypothesis import given, settings, strategies as st

from heckelift import abchar, heckeq
from heckelift.abchar import (
    GroupCharacter,
    character_conductor,
    enumerate_characters,
    unit_character,
    unit_group,
    unit_value,
)
from heckelift.exactnum import Congruence, QmodZ, prime_to_part
from heckelift.heckeq import (
    GlobalCharQ,
    LocalInvariantsQ,
    brute_force_oracle_q,
    check_necessary,
    conductor_bound,
    decide_prop_q,
    extract_invariants,
    hecke_reductions,
    theta_power,
    twist_to_unramified,
)

from conftest import oracles, walk_dlog, walk_qmodz_log


def gchar(residue, modulus, **prime_images):
    images = {int(k): QmodZ.from_str(v) for k, v in prime_images.items()}
    return GlobalCharQ.from_images(residue, modulus, images)


def inverse(chi):
    """chi^-1, built from the negated images."""
    images = {ell: -z for ell, z in chi.images}
    return GlobalCharQ.from_images(chi.residue_char, chi.modulus, images)


class TestGlobalCharQ:
    def test_validation(self):
        with pytest.raises(ValueError):
            gchar(4, 5, **{"5": "1/4"})  # residue char not prime
        with pytest.raises(ValueError):
            gchar(5, 10, **{"5": "1/4"})  # even modulus
        with pytest.raises(ValueError):
            gchar(5, 7, **{"5": "1/4"})  # 5 does not divide 7
        with pytest.raises(ValueError):
            # order divisible by the residue characteristic
            gchar(5, 25, **{"5": "1/5"})

    def test_wild_at_own_prime_rejected(self):
        # a mod-5 character cannot be wildly ramified at 5
        with pytest.raises(ValueError):
            gchar(5, 25, **{"5": "1/20"})

    def test_level_raising_equality(self):
        low = gchar(3, 5, **{"5": "1/4"})
        high = low.with_modulus(25)
        assert high == low
        assert high.with_modulus(5) == low

    def test_multiplication(self):
        a = gchar(3, 5, **{"5": "1/4"})
        b = gchar(3, 35, **{"5": "1/4", "7": "1/2"})
        prod = a * b
        assert prod.image_at(5) == QmodZ(1, 2)
        assert prod.image_at(7) == QmodZ(1, 2)
        assert (a * inverse(a)) == GlobalCharQ.trivial(3)


SMALL_ODD_PRIMES = [3, 5, 7, 11, 13]


@st.composite
def pairs_with_common_outside_images(draw):
    """(rho mod p, rho' mod q) whose images are one drawn image per prime
    reduced mod p and mod q, so the pair twists to unramified; a modulus
    may also carry primes without an image (23, 29 * 31, or its own p).
    40487, where level 1 has another generator than the levels above it,
    is among the primes drawn."""
    p, q = draw(st.lists(st.sampled_from(SMALL_ODD_PRIMES), min_size=2, max_size=2, unique=True))
    exponents = draw(
        st.dictionaries(
            st.sampled_from(SMALL_ODD_PRIMES + [17, 40487]), st.integers(1, 2), max_size=3
        )
    )
    common = {}
    for ell, a in exponents.items():
        phi = (ell - 1) * ell ** (a - 1)
        if draw(st.booleans()):
            common[ell] = QmodZ(draw(st.integers(0, phi - 1)), phi)
    pair = []
    for r in (p, q):
        modulus = math.prod(ell**a for ell, a in exponents.items())
        modulus *= draw(st.sampled_from([1, r, 23, 29 * 31]))
        images = {ell: z.part_prime_to(r) for ell, z in common.items()}
        pair.append(GlobalCharQ.from_images(r, modulus, images))
    return tuple(pair)


def assert_factors_stored(chi):
    # the factorisation by trial division, primes increasing
    assert list(chi.factors.items()) == list(oracles.prime_factors(chi.modulus).items())
    # the stored parts are exactly what the validator builds from the images
    rebuilt = GlobalCharQ.from_images(chi.residue_char, chi.modulus, dict(chi.images))
    assert list(chi.factors.items()) == list(rebuilt.factors.items())
    assert list(chi.inertia.items()) == list(rebuilt.inertia.items())
    assert chi == rebuilt and hash(chi) == hash(rebuilt)
    assert not any(eps.is_trivial() for eps in chi.inertia.values())


class TestStoredFactorisation:
    @settings(max_examples=100, deadline=None)
    @given(pairs_with_common_outside_images())
    def test_equals_factorize_through_every_construction(self, pair):
        rho, rho_prime = pair
        p = rho.residue_char
        assert_factors_stored(rho)
        assert_factors_stored(rho_prime)
        raised = rho.with_modulus(rho.modulus * rho_prime.modulus)
        assert_factors_stored(raised)
        assert raised == rho
        for other in (rho, theta_power(p, 1), inverse(raised)):
            assert_factors_stored(rho * other)
        tw = twist_to_unramified(rho, rho_prime)
        assert_factors_stored(tw.twisted)
        assert_factors_stored(tw.twisted_prime)
        q = rho_prime.residue_char
        eps, eps_prime = rho_prime.component(p).base, rho.component(q).base
        for k in (0, 1, p * q):
            for red in hecke_reductions(eps, eps_prime, k, p, q):
                assert_factors_stored(red)

    def test_prime_exponent(self):
        rho = gchar(5, 3 * 5**2 * 7**3, **{"5": "1/4"})
        assert [rho.prime_exponent(ell) for ell in (3, 5, 7, 11)] == [1, 2, 3, 0]


class TestRestrictToInertia:
    def test_unramified_component_is_trivial(self):
        rho = gchar(3, 35, **{"5": "1/4"})
        assert rho.component(7).is_trivial()

    def test_cyclotomic_square(self):
        rho = theta_power(5, 2)
        comp = rho.component(5)
        assert comp.base.images[0] == QmodZ(2, 4)

    def test_component_projection(self):
        rho = gchar(3, 175, **{"5": "1/20", "7": "1/2"})
        comp = rho.component(5)
        assert comp.group == unit_group(5, 2)
        assert comp.base.images[0] == QmodZ(1, 20)


class TestCyclotomicCharacter:
    # 40487 is the one prime below 10^5 whose least primitive root (5) is
    # not the least primitive root mod 40487^2 (10)
    @pytest.mark.parametrize("ell", [3, 5, 7, 11, 101, 10007, 40487])
    @pytest.mark.parametrize("a", [2, 3])
    def test_reduction_mod_ell_at_every_level(self, ell, a):
        theta = theta_power(ell, 1, a).component(ell).base
        at_1 = theta_power(ell, 1).component(ell).base
        assert at_1.images == (QmodZ(1, ell - 1),)
        assert theta == unit_character(ell, a, unit_value(at_1, ell))
        # theta(g) = m/(ell-1) says g = g_1^m mod ell, with g and g_1 the
        # canonical generators mod ell^a and mod ell
        (k,), (d,) = theta.exps, theta.group.orders
        assert k * (ell - 1) % d == 0
        g, g1 = theta.group.labels[0].generator, unit_group(ell, 1).labels[0].generator
        assert pow(g1, k * (ell - 1) // d, ell) == g % ell
        assert theta_power(ell, 5, a) == theta_power(ell, 5, 1)
        assert theta_power(ell, 5, a).component(ell).base.exps == (5 * k % d,)

    @pytest.mark.parametrize("ell, a", [(3, 1), (7, 2), (40487, 2)])
    def test_one_value_at_every_level(self, ell, a):
        # the value on g is e/(ell-1) with g = g_1^e mod ell, at every level
        g, g1 = unit_group(ell, 2).labels[0].generator, unit_group(ell, 1).labels[0].generator
        e = walk_dlog(g1, g, ell)
        assert theta_power(ell, 1, a).values == {ell: QmodZ(e, ell - 1)}
        assert theta_power(ell, 1, a) == theta_power(ell, 1, 1)
        assert (e == 1) == (g == g1) and (ell != 40487 or e == 17305)

    def test_push_down_walks_level_one(self):
        start = time.perf_counter()
        low = theta_power(40487, 1, 2).with_modulus(40487)
        at_1 = unit_character(40487, 1, unit_value(theta_power(40487, 1, 2).inertia[40487], 40487))
        assert time.perf_counter() - start < 1.0
        assert low.inertia[40487].exps == at_1.exps == (1,)


class TestExtractInvariants:
    def test_cyclotomic_square_against_trivial(self):
        rho = theta_power(5, 2)
        rho_prime = GlobalCharQ.trivial(7)
        inv = extract_invariants(rho, rho_prime)
        assert inv.k_p == Congruence(2, 4)
        assert inv.a_p == Congruence(0, 4)
        assert inv.psi_prime_p.is_trivial()
        assert inv.A_p == 4 and inv.B_q == 6

    def test_trivial_pair(self):
        inv = extract_invariants(GlobalCharQ.trivial(5), GlobalCharQ.trivial(7))
        assert inv.k_p.residue == 0 and inv.k_q.residue == 0
        assert inv.a_p.residue == 0 and inv.b_q.residue == 0

    def test_wild_component_split(self):
        # order-20 character of (Z/25)^* as the p=5 component of a mod-7 character
        rho = theta_power(5, 1)
        rho_prime = gchar(7, 7 * 25, **{"7": "1/6", "5": "1/20"})
        inv = extract_invariants(rho, rho_prime)
        assert inv.psi_prime_p.order() == 5
        # brute-force split oracle: the unique pair (s, t) with orders (4, 5)
        splits = [
            (QmodZ(i, 4), QmodZ(j, 5))
            for i in range(4)
            for j in range(5)
            if QmodZ(i, 4) + QmodZ(j, 5) == QmodZ(1, 20)
        ]
        assert len(splits) == 1
        tame, wild = splits[0]
        assert inv.psi_prime_p.images[0] == wild
        # a_p reproduces the tame part after reduction mod q = 7
        a = inv.a_p.residue
        assert QmodZ(a, 4).part_prime_to(7) == tame

    def test_rejects_outside_ramification(self):
        rho = gchar(5, 11, **{"11": "1/2"})
        with pytest.raises(ValueError):
            extract_invariants(rho, GlobalCharQ.trivial(7))

    def test_tame_exponent_reduction_law(self):
        # a_p reproduces the given prime-to-q tame value, for every such value
        for p, q in [(5, 7), (7, 3), (13, 3)]:
            values = {QmodZ(a, p - 1).part_prime_to(q) for a in range(p - 1)}
            for t in values:
                rho_prime = gchar(q, p, **{str(p): str(t)})
                inv = extract_invariants(GlobalCharQ.trivial(p), rho_prime)
                got = QmodZ(inv.a_p.residue, p - 1).part_prime_to(q)
                assert got == t


class TestCheckNecessary:
    def test_vacuous(self):
        rep = check_necessary(theta_power(5, 1), theta_power(7, 1))
        assert rep.ok and rep.per_prime == ()

    def test_order_three_failure(self):
        # an order-3 component away from p, q cannot lift (3 is prime to 35)
        rho = gchar(5, 13, **{"13": "1/3"})
        rho_prime = GlobalCharQ.trivial(7)
        rep = check_necessary(rho, rho_prime)
        assert not rep.ok and [ell for ell, ok in rep.per_prime if not ok] == [13]

    def test_matching_tame_parts_pass(self):
        rho = gchar(5, 11, **{"11": "1/2"})
        rho_prime = gchar(7, 11, **{"11": "1/2"})
        rep = check_necessary(rho, rho_prime)
        assert rep.ok and rep.per_prime == ((11, True),)


class TestTwistToUnramified:
    def test_already_unramified(self):
        rho, rho_prime = theta_power(5, 1), theta_power(7, 1)
        res = twist_to_unramified(rho, rho_prime)
        assert res.eps == ()
        assert res.twisted == rho and res.twisted_prime == rho_prime

    def test_common_order_two_character(self):
        rho = gchar(5, 55, **{"5": "1/4", "11": "1/2"})
        rho_prime = gchar(7, 11, **{"11": "1/2"})
        res = twist_to_unramified(rho, rho_prime)
        assert len(res.eps) == 1 and res.eps[0][0] == 11
        assert res.eps[0][1].order() == 2
        assert res.twisted.ramified_primes() == (5,)
        assert res.twisted_prime.ramified_primes() == ()

    def test_twist_full_tame_data(self):
        # compatible data at 13: same prime-to-5/prime-to-7 content
        rho = gchar(5, 13, **{"13": "1/12"})
        rho_prime = gchar(7, 13, **{"13": "1/12"})
        res = twist_to_unramified(rho, rho_prime)
        assert res.eps[0][1].images[0] == QmodZ(1, 12)
        assert res.twisted.ramified_primes() == ()

    def test_failure_reports_prime(self):
        rho = gchar(5, 13, **{"13": "1/3"})
        with pytest.raises(ValueError, match="13"):
            twist_to_unramified(rho, GlobalCharQ.trivial(7))

    def test_a_wrong_glue_fails_the_reduction_check(self, monkeypatch):
        # the check raises, so it holds under python -O as well
        glue = abchar.glue_pq
        monkeypatch.setattr(abchar, "glue_pq", lambda x, p, y, q, d: (glue(x, p, y, q, d) + d // 2) % d)
        rho = gchar(5, 13, **{"13": "1/12"})
        rho_prime = gchar(7, 13, **{"13": "1/12"})
        with pytest.raises(AssertionError, match="twist at 13 does not reduce to rho mod 5"):
            twist_to_unramified(rho, rho_prime)


class TestConductorBound:
    def test_unramified_cross_terms(self):
        assert conductor_bound(theta_power(5, 1), theta_power(7, 1)) == 35

    def test_wild_conductor(self):
        rho = theta_power(5, 1)
        rho_prime = gchar(7, 25 * 7, **{"5": "1/20", "7": "0/1"})
        assert conductor_bound(rho, rho_prime) == 25 * 7

    def test_tame_everywhere(self):
        rho = gchar(5, 7, **{"7": "1/6"})
        rho_prime = gchar(7, 5, **{"5": "1/4"})
        assert conductor_bound(rho, rho_prime) == 35


class TestDecidePropQ:
    def test_norm_cube_round_trip(self):
        rho = theta_power(5, 3)
        rho_prime = theta_power(7, 3)
        res = decide_prop_q(rho, rho_prime)
        assert res is not None
        assert res.k_class == Congruence(3, 12)
        assert res.certificate.local_chars == ()
        assert res.certificate.conductor == 1

    def test_parity_clash(self):
        rho = theta_power(5, 1)      # k_5 = 1, a_5 = 0
        rho_prime = theta_power(7, 2)  # k_7 = 2, b_7 = 0
        assert decide_prop_q(rho, rho_prime) is None

    def test_a_reduction_wrong_at_q_alone_fails_the_check(self, monkeypatch):
        # the certificate reduces right mod 5, so only the comparison mod 7
        # can catch the fault; the check raises, so it holds under python -O
        right = heckeq.hecke_reductions
        monkeypatch.setattr(
            heckeq, "hecke_reductions", lambda *args: (right(*args)[0], GlobalCharQ.trivial(7))
        )
        with pytest.raises(AssertionError, match="certificate failed re-verification"):
            decide_prop_q(theta_power(5, 3), theta_power(7, 3))

    def test_trivial_pair(self):
        res = decide_prop_q(GlobalCharQ.trivial(5), GlobalCharQ.trivial(7))
        assert res is not None and res.k_class == Congruence(0, 12)
        assert res.certificate.local_chars == ()

    def test_round_trip_exhaustive_3_5(self):
        p, q = 3, 5
        for eps in enumerate_characters(unit_group(p, 2)):
            for eps_prime in enumerate_characters(unit_group(q, 2)):
                for k in range(math.lcm(p - 1, q - 1)):
                    red_p, red_q = hecke_reductions(eps, eps_prime, k, p, q)
                    res = decide_prop_q(red_p, red_q)
                    assert res is not None
                    assert res.k_class.contains(k)
                    assert res.certificate.conductor is not None
                    assert conductor_bound(red_p, red_q) % res.certificate.conductor == 0

    def test_round_trip_sampled_5_7(self):
        rng = random.Random(20240817)
        p, q = 5, 7
        chars_p = list(enumerate_characters(unit_group(p, 2)))
        chars_q = list(enumerate_characters(unit_group(q, 2)))
        for _ in range(120):
            eps = rng.choice(chars_p)
            eps_prime = rng.choice(chars_q)
            k = rng.randrange(48)
            red_p, red_q = hecke_reductions(eps, eps_prime, k, p, q)
            res = decide_prop_q(red_p, red_q)
            assert res is not None and res.k_class.contains(k)
            # the verdict does not depend on the level that presents rho
            padded = red_p.with_modulus(red_p.modulus * p)
            assert decide_prop_q(padded, red_q).k_class == res.k_class

    def test_depends_only_on_inertial_data(self):
        # padding the declared modulus does not change the verdict
        rho = theta_power(5, 3)
        rho_prime = theta_power(7, 3)
        padded = rho.with_modulus(5 * 7**2)
        padded_prime = rho_prime.with_modulus(5**2 * 7)
        res1 = decide_prop_q(rho, rho_prime)
        res2 = decide_prop_q(padded, padded_prime)
        assert res1 is not None and res2 is not None
        assert res1.k_class == res2.k_class


class TestBruteForceOracle:
    def test_finds_norm(self):
        rho = theta_power(3, 1)
        rho_prime = theta_power(5, 1)
        got = brute_force_oracle_q(rho, rho_prime, 1, 1, range(9))
        assert got is not None
        eps, eps_prime, k = got
        assert eps.is_trivial() and eps_prime.is_trivial() and k == 1

    def test_absent_on_insoluble_pair(self):
        rho = theta_power(5, 1)
        rho_prime = theta_power(7, 2)
        assert brute_force_oracle_q(rho, rho_prime, 1, 1, range(24)) is None
        assert decide_prop_q(rho, rho_prime) is None

    def test_trivial_pair(self):
        got = brute_force_oracle_q(
            GlobalCharQ.trivial(5), GlobalCharQ.trivial(7), 1, 1, range(12)
        )
        assert got == (
            GroupCharacter.trivial(unit_group(5, 1)),
            GroupCharacter.trivial(unit_group(7, 1)),
            0,
        )

    def test_region_bound(self):
        # the region is sized before k_range is walked
        for k_range in (range(10**6), range(10**12)):
            with pytest.raises(ValueError, match="oracle bound 10000000"):
                brute_force_oracle_q(
                    GlobalCharQ.trivial(5), GlobalCharQ.trivial(7), 5, 5, k_range
                )

    def test_agrees_with_decide_on_wild_pair(self):
        rho = theta_power(3, 1)
        rho_prime = gchar(5, 9 * 5, **{"5": "1/4", "3": "1/3"})
        res = decide_prop_q(rho, rho_prime)
        got = brute_force_oracle_q(rho, rho_prime, 2, 1, range(8))
        assert (res is None) == (got is None)
        if res is not None and got is not None:
            assert res.k_class.contains(got[2])


class TestCertificates:
    def test_certificate_reductions_close(self):
        rho = gchar(5, 7, **{"7": "1/3"})
        rho_prime = gchar(7, 5, **{"5": "1/2"})
        res = decide_prop_q(rho, rho_prime)
        if res is None:
            pytest.skip("pair not liftable; example only exercises closure")
        local = dict(res.certificate.local_chars)
        eps = local.get("5") or GroupCharacter.trivial(unit_group(5, 1))
        eps_p = local.get("7") or GroupCharacter.trivial(unit_group(7, 1))
        red_p, red_q = hecke_reductions(eps, eps_p, res.k_class.residue, 5, 7)
        assert red_p == rho and red_q == rho_prime

    def test_conductor_divides_bound(self):
        rng = random.Random(7)
        chars_p = list(enumerate_characters(unit_group(5, 2)))
        chars_q = list(enumerate_characters(unit_group(7, 1)))
        for _ in range(40):
            eps = rng.choice(chars_p)
            eps_prime = rng.choice(chars_q)
            k = rng.randrange(24)
            red_p, red_q = hecke_reductions(eps, eps_prime, k, 5, 7)
            res = decide_prop_q(red_p, red_q)
            assert res is not None
            assert conductor_bound(red_p, red_q) % res.certificate.conductor == 0


# ---------------------------------------------------------------------------
# The integer form of the pipeline against its Q/Z form


def qmodz_cyclotomic(ell):
    """The value of the cyclotomic character mod ell on g, in Q/Z."""
    return unit_value(GroupCharacter._make(unit_group(ell, 1), (1,)), ell)


def qmodz_extract_invariants(rho, rho_prime):
    """extract_invariants on Q/Z values, each exponent a log in Q/Z against
    the cyclotomic value theta, as the pipeline once computed it."""
    p, q = rho.residue_char, rho_prime.residue_char

    def at(ell, own, other_char, other):
        theta = qmodz_cyclotomic(ell)
        k = walk_qmodz_log(own.value_at(ell), theta)
        y = other_char.value_at(ell)
        j = walk_qmodz_log(y.part_prime_to(ell), theta)
        A = prime_to_part(ell - 1, other)
        if j % ((ell - 1) // A):
            raise AssertionError(f"tame exponent {j} at {ell} has order divisible by {other}")
        level = max(1, other_char.prime_exponent(ell))
        wild = unit_character(ell, level, y - y.part_prime_to(ell))
        return Congruence(k, ell - 1), Congruence(j, A), A, wild

    return LocalInvariantsQ(p, q, *at(p, rho, rho_prime, q), *at(q, rho_prime, rho, p))


def qmodz_reduction_values(eps, eps_prime, k, p, q):
    """The values on g of the two reductions of eps * eps' * Nm^k, in Q/Z."""
    x, y = unit_value(eps, p), unit_value(eps_prime, q)
    at_p, at_q = x + k * qmodz_cyclotomic(p), y + k * qmodz_cyclotomic(q)
    return (
        {p: at_p.part_prime_to(p), q: y.part_prime_to(p)},
        {p: x.part_prime_to(q), q: at_q.part_prime_to(q)},
    )


def characters_at_pq(rho, rho_prime):
    """(eps, eps', p, q): the values of rho' at p and of rho at q, wild parts
    and all, as characters of (Z/p^a)^* and (Z/q^b)^*."""
    p, q = rho.residue_char, rho_prime.residue_char
    eps = unit_character(p, max(1, rho_prime.prime_exponent(p)), rho_prime.value_at(p))
    eps_prime = unit_character(q, max(1, rho.prime_exponent(q)), rho.value_at(q))
    return eps, eps_prime, p, q


# 40487 is the prime whose level 1 has another generator than the levels above
PQ_PRIMES = [3, 5, 7, 13, 40487]


@st.composite
def pairs_supported_on_pq(draw, primes=PQ_PRIMES, max_level=3):
    """(rho mod p, rho' mod q) ramified at most at p and q, each at a drawn
    level from 0 to max_level, with arbitrary values there of order prime to
    the residue characteristic."""
    p, q = draw(st.lists(st.sampled_from(primes), min_size=2, max_size=2, unique=True))
    pair = []
    for r in (p, q):
        levels = {ell: draw(st.integers(0, max_level)) for ell in (p, q)}
        images = {}
        for ell, a in levels.items():
            if a:
                phi = (ell - 1) * ell ** (a - 1)
                images[ell] = QmodZ(draw(st.integers(0, phi - 1)), phi).part_prime_to(r)
        pair.append(GlobalCharQ.from_images(r, p ** levels[p] * q ** levels[q], images))
    return tuple(pair)


class TestAgainstQmodZ:
    @settings(max_examples=300, deadline=None)
    @given(pairs_supported_on_pq())
    def test_extract_invariants_matches_the_discrete_log_route(self, pair):
        assert extract_invariants(*pair) == qmodz_extract_invariants(*pair)

    @settings(max_examples=200, deadline=None)
    @given(pairs_supported_on_pq(), st.integers(0, 10**6))
    def test_hecke_reductions_match_the_qmodz_values(self, pair, k):
        eps, eps_prime, p, q = characters_at_pq(*pair)
        for red, values in zip(
            hecke_reductions(eps, eps_prime, k, p, q),
            qmodz_reduction_values(eps, eps_prime, k, p, q),
        ):
            assert red.values == {ell: x for ell, x in values.items() if not x.is_zero()}

    @settings(max_examples=150, deadline=None)
    @given(pairs_supported_on_pq(primes=[3, 5, 7], max_level=2), st.integers(0, 100), st.booleans())
    def test_decide_agrees_with_the_oracle(self, pair, k, liftable):
        rho, rho_prime = pair
        p, q = rho.residue_char, rho_prime.residue_char
        if liftable:
            rho, rho_prime = hecke_reductions(*characters_at_pq(*pair)[:2], k, p, q)
        res = decide_prop_q(rho, rho_prime)
        alpha = max(1, rho.prime_exponent(p), rho_prime.prime_exponent(p))
        beta = max(1, rho.prime_exponent(q), rho_prime.prime_exponent(q))
        got = brute_force_oracle_q(rho, rho_prime, alpha, beta, range(math.lcm(p - 1, q - 1)))
        assert (res is None) == (got is None)
        if res is not None:
            assert res.k_class.contains(got[2])
            assert hecke_reductions(*got, p, q) == (rho, rho_prime)


class TestLevels:
    @settings(max_examples=200, deadline=None)
    @given(pairs_with_common_outside_images(), st.lists(st.integers(0, 2), min_size=6, max_size=6))
    def test_with_modulus_keeps_the_character(self, pair, extra):
        rho = pair[0]
        primes = sorted({*rho.factors, 3, 5, 7})
        raised = rho.with_modulus(rho.modulus * math.prod(map(pow, primes, extra)))
        assert raised == rho and hash(raised) == hash(rho)
        assert raised.values == rho.values
        back = raised.with_modulus(rho.modulus)
        assert back.exps == rho.exps and back.factors == rho.factors
        # down to the conductor at each ramified prime, and no further
        conductor = math.prod(
            character_conductor(rho.component(ell).base) for ell in rho.ramified_primes()
        )
        low = rho.with_modulus(conductor)
        assert low == rho and hash(low) == hash(rho) and low * raised == rho * rho
        for ell in rho.ramified_primes():
            with pytest.raises(ValueError, match="does not factor through"):
                rho.with_modulus(conductor // ell)

    def test_certificate_character_at_level_one(self):
        # eps on (Z/5)^* with image 1/4 against the trivial character mod 7:
        # neither modulus has 25 in it, so eps stays on (Z/5)^*, not (Z/25)^*
        eps = GroupCharacter(unit_group(5, 1), (QmodZ(1, 4),))
        trivial = GroupCharacter.trivial(unit_group(7, 1))
        res = decide_prop_q(*hecke_reductions(eps, trivial, 0, 5, 7))
        got = [(label, chi.group.orders, chi.exps) for label, chi in res.certificate.local_chars]
        assert got == [("5", (4,), (1,))]

    @settings(max_examples=100, deadline=None)
    @given(pairs_supported_on_pq(), st.integers(0, 10**6), st.booleans())
    def test_certificate_characters_sit_at_the_level_of_the_other_modulus(self, pair, k, liftable):
        # the character at r lives on (Z/r^a)^*, a the exponent of r in the
        # modulus of the character mod the other prime, and at least 1
        rho, rho_prime = pair
        p, q = rho.residue_char, rho_prime.residue_char
        if liftable:
            rho, rho_prime = hecke_reductions(*characters_at_pq(*pair)[:2], k, p, q)
        res = decide_prop_q(rho, rho_prime)
        if res is None:
            assert not liftable
            return
        other = {p: rho_prime, q: rho}
        for label, chi in res.certificate.local_chars:
            r = int(label)
            assert chi.group == unit_group(r, max(1, other[r].prime_exponent(r)))

    def test_below_the_conductor_is_refused_by_name(self):
        chi = gchar(3, 25 * 7, **{"5": "1/20", "7": "1/2"})
        for modulus, level in ((5 * 7, 1), (7, 0)):
            message = f"a character of conductor 25 does not factor through (Z/5^{level})*"
            with pytest.raises(ValueError, match=re.escape(message)):
                chi.with_modulus(modulus)

    @pytest.mark.parametrize("a, b", [(1, 2), (1, 3), (2, 3)])
    def test_products_and_equality_across_levels_at_40487(self, a, b):
        # images are given on the least root mod 40487^a, 5 at level 1 and
        # 10 = 5^17305 mod 40487 above it; values are taken on 10
        ell = 40487
        rng = random.Random(a * 10 + b)
        for _ in range(20):
            x, y = (QmodZ(rng.randrange(d), d) for d in (ell - 1, (ell - 1) * ell ** (b - 1)))
            if rng.random() < 0.25:
                y = (17305 if a == 1 else 1) * x
            low = gchar(3, ell**a, **{str(ell): str(x)})
            high = gchar(3, ell**b, **{str(ell): str(y)})
            assert low.value_at(ell) == (17305 if a == 1 else 1) * x
            assert high.value_at(ell) == y
            assert (low * high).value_at(ell) == low.value_at(ell) + high.value_at(ell)
            assert (low * high).prime_exponent(ell) == b
            assert low.with_modulus(ell**b) == low
            assert low.with_modulus(ell**b).value_at(ell) == low.value_at(ell)
            assert (low == high) == (low.value_at(ell) == high.value_at(ell))
