"""End-to-end verification suite.

Each test implements one acceptance criterion at its stated tolerance and
prints one pass line (run with -s to see them).
"""

import math
import random
import time
from fractions import Fraction

from heckelift.abchar import (
    GroupCharacter,
    ModCharacter,
    enumerate_characters,
    unit_group,
)
from heckelift.exactnum import QmodZ, is_prime
from heckelift.heckeq import (
    GlobalCharQ,
    brute_force_oracle_q,
    decide_prop_q,
    hecke_reductions,
)
from heckelift.heckequad import (
    ImagQuadField,
    PlaceLocal,
    QuadLocalData,
    class_group,
    counting_bound,
    criterion_decide,
    splitting_data,
)
from heckelift.qseries import (
    delta,
    eisenstein,
    hasse_invariant_check,
    weight24_example,
)
from heckelift.serrepq import (
    AlgebraicFrobValue,
    UnipotentRamified,
    UnramifiedSemisimple,
    local_compat,
    remark2_check,
)


def test_criterion_1_prop_q_oracle_equivalence():
    start = time.monotonic()
    p, q = 3, 5
    rho_images_3 = [QmodZ(k, 2) for k in range(2)]           # prime-to-3 orders
    rho_images_5 = [QmodZ(k, 20) for k in range(20)]
    rho_prime_images_3 = [QmodZ(k, 6) for k in range(6)]
    rho_prime_images_5 = [QmodZ(k, 4) for k in range(4)]     # prime-to-5 orders

    rhos = [
        GlobalCharQ.from_images(3, 225, {3: x3, 5: x5})
        for x3 in rho_images_3
        for x5 in rho_images_5
    ]
    rho_primes = [
        GlobalCharQ.from_images(5, 225, {3: x3, 5: x5})
        for x3 in rho_prime_images_3
        for x5 in rho_prime_images_5
    ]
    assert len(rhos) == 40 and len(rho_primes) == 24

    k_range = range(16)  # lcm(2, 4) * 4
    checked = agreed = 0
    for rho in rhos:
        for rho_prime in rho_primes:
            got = decide_prop_q(rho, rho_prime)
            oracle = brute_force_oracle_q(rho, rho_prime, 2, 2, k_range)
            assert (got is None) == (oracle is None), (rho, rho_prime)
            if got is not None:
                assert got.k_class.contains(oracle[2])
            checked += 1
            agreed += 1
    elapsed = time.monotonic() - start
    assert checked == 960 and agreed == checked
    assert elapsed < 120
    print(
        f"ACCEPTANCE 1 PASS: decision agrees with brute-force oracle on all "
        f"{checked} pairs at (p, q) = (3, 5) in {elapsed:.1f}s"
    )


def test_criterion_2_round_trip_5_7():
    p, q = 5, 7
    rng = random.Random(57_2024)
    chars_p = list(enumerate_characters(unit_group(p, 2)))   # conductors <= 25
    chars_q = list(enumerate_characters(unit_group(q, 2)))   # conductors <= 49
    successes = 0
    for _ in range(500):
        eps = rng.choice(chars_p)
        eps_prime = rng.choice(chars_q)
        k = rng.randrange(48)
        red_p, red_q = hecke_reductions(eps, eps_prime, k, p, q)
        res = decide_prop_q(red_p, red_q)
        assert res is not None
        assert res.k_class.contains(k)
        successes += 1
    assert successes == 500
    print("ACCEPTANCE 2 PASS: 500/500 random triples at (5, 7) round-trip")


def test_criterion_3_artin_lift_exhaustive(artin_lift_sweep):
    total_pairs = 0
    for p, q in ((3, 5), (5, 7)):
        total_pairs += artin_lift_sweep(p, q, 200)
    print(
        f"ACCEPTANCE 3 PASS: lifting agrees with exhaustive enumeration on "
        f"every abelian group of order <= 200 for (3,5) and (5,7) "
        f"({total_pairs} pairs)"
    )


def test_criterion_4_class_group_1155():
    start = time.monotonic()
    grp = class_group(-1155)
    elapsed = time.monotonic() - start
    assert grp.h == 8
    assert grp.invariant_factors == (2, 2, 2)
    assert grp.exponent == 2
    assert elapsed < 1.0
    print(
        f"ACCEPTANCE 4 PASS: class group of -1155 is (Z/2)^3 with h = 8 "
        f"in {elapsed * 1000:.0f}ms"
    )


def test_criterion_5_counting_example():
    rep = counting_bound(ImagQuadField(-1155), 17, 19)
    assert rep.alpha == 2 and rep.h == 8
    assert rep.lift_bound == 32 and rep.pair_count == 64
    assert rep.lift_bound < rep.pair_count
    assert rep.gap_exists and rep.verdict == "non-liftable pair exists"
    print(
        "ACCEPTANCE 5 PASS: alpha^2 h = 32 < h^2 = 64 at (17, 19), "
        "a non-liftable unramified pair exists"
    )


def test_criterion_6_criterion_sanity():
    K = ImagQuadField(-1155)
    p, q = 17, 19
    data_p, data_q = splitting_data(K, p, q)
    A = data_p.places[0].modulus
    B = data_q.places[0].modulus
    assert A == 16 and B == 18 and A > 1
    C = math.lcm(A, B)
    trivial = QuadLocalData(
        tuple(PlaceLocal(0, 0) for _ in data_p.places),
        tuple(PlaceLocal(0, 0) for _ in data_q.places),
    )

    accept_cc = criterion_decide(K, p, q, trivial, (C, C))
    accept_c0 = criterion_decide(K, p, q, trivial, (C, 0))
    reject_10 = criterion_decide(K, p, q, trivial, (1, 0))
    assert accept_cc.ok and accept_c0.ok
    assert not reject_10.ok
    assert not reject_10.condition_1[0].ok
    print(
        f"ACCEPTANCE 6 PASS: trivial pair accepts infinity types ({C},{C}) "
        f"and ({C},0), rejects (1,0) with A = {A} > 1"
    )


def test_criterion_7_hasse_invariant():
    start = time.monotonic()
    rep57 = hasse_invariant_check(5, 7, 200)
    assert rep57.ok and rep57.weight == 12
    series = eisenstein(12, 200)
    for n in range(1, 200):
        c = series[n]
        assert c.numerator % 35 == 0
        assert math.gcd(c.denominator, 35) == 1
    rep37 = hasse_invariant_check(3, 7, 200)
    assert rep37.ok and rep37.weight == 6
    assert eisenstein(6, 3)[1] == -504 and -504 % 21 == 0
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    print(
        f"ACCEPTANCE 7 PASS: E_12 = 1 mod 35 and E_6 = 1 mod 21 to "
        f"precision 200 in {elapsed * 1000:.0f}ms"
    )


def test_criterion_8_weight24_example():
    rep = weight24_example(61)  # congruence bound 60
    assert rep.ok
    names = [name for name, _ in rep.congruences]
    assert names == [
        "Delta = f mod p5",
        "Delta = f mod p7",
        "Delta = f' mod p5'",
        "Delta = f' mod p7'",
        "f mod p5 = f' mod p5'",
    ]
    for name, check in rep.congruences:
        assert check.congruent, name
        assert check.bound == 60
    assert rep.alpha_product == Fraction(-36000)
    assert rep.q_is_one_mod_5
    print(
        "ACCEPTANCE 8 PASS: weight-24 congruence suite verified to q^60 "
        f"({rep.labelling}; p5 root {rep.p5.root}, p7 root {rep.p7.root}; "
        "f and f' congruent mod 5 through the conjugate pair of primes)"
    )


def test_criterion_9_discriminant_identity():
    prec = 60
    e4 = eisenstein(4, prec)
    e6 = eisenstein(6, prec)
    d = delta(prec)
    lhs = e4**3 - e6**2
    rhs = d.scale(1728)
    assert lhs.coeffs == rhs.coeffs
    print("ACCEPTANCE 9 PASS: E4^3 - E6^2 = 1728 Delta exactly to q^59")


def test_criterion_10_remark2_suite():
    p, q = 5, 7
    qualifying = [
        ell
        for ell in range(3, 51)
        if is_prime(ell)
        and ell not in (p, q)
        and ell % p not in (1, p - 1)
        and ell % q not in (1, q - 1)
    ]
    assert qualifying, "the suite must be non-vacuous"
    for ell in qualifying:
        datum_p = UnipotentRamified(
            ell,
            p,
            ModCharacter(GroupCharacter.trivial(unit_group(ell, 1)), p),
            AlgebraicFrobValue(QmodZ(0, 1), 0),
        )
        datum_q = UnramifiedSemisimple(ell, q, AlgebraicFrobValue(QmodZ(1, 2), 1))
        compat = local_compat(datum_p, datum_q)
        assert not compat.compatible, ell
        rep = remark2_check(ell, p, q)
        assert rep.hypotheses_hold and rep.counterexample_confirmed, ell
    print(
        f"ACCEPTANCE 10 PASS: ratio -ell rejected and base change accepted "
        f"for all qualifying primes {qualifying}"
    )
