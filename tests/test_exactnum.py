import ast
import importlib
import inspect
import math
import pkgutil
import random
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import heckelift
from heckelift import exactnum
from heckelift.exactnum import (
    BERNOULLI_BOUND,
    _MR_BASES,
    _MR_BOUNDS,
    PRIME_TEST_BOUND,
    _BABY_STEPS,
    _prime_to,
    _solve_linear,
    _sqrt_mod,
    _unit_order_factors,
    Congruence,
    QmodZ,
    bernoulli,
    crt_pair,
    factorize,
    glue_pq,
    is_prime,
    kronecker_symbol,
    prime_to_part,
    primitive_root,
    unit_dlog,
    weight_crt,
)

from conftest import oracles, walk_dlog, xgcd

qmodz = st.builds(QmodZ, st.integers(-400, 400), st.integers(1, 120))


class TestQmodZ:
    def test_canonical_form(self):
        x = QmodZ(10, 15)
        assert (x.num, x.den) == (2, 3)
        assert QmodZ(-1, 4) == QmodZ(3, 4)
        assert QmodZ(7, 7) == QmodZ(0, 1)

    def test_record_equality_hash_and_immutability(self):
        x = QmodZ(2, 6)
        assert isinstance(x, exactnum.Record) and repr(x) == "QmodZ(1, 3)"
        assert x == QmodZ(1, 3) and hash(x) == hash((1, 3))
        assert x != (1, 3) and QmodZ(0, 1) != 0
        with pytest.raises(AttributeError):
            x.num = 2
        with pytest.raises(AttributeError):
            del x.den

    def test_identity_and_order(self):
        assert QmodZ(0, 1).order() == 1
        assert QmodZ(1, 6).order() == 6
        assert QmodZ(4, 6).order() == 3

    def test_rejects_bad_denominator(self):
        with pytest.raises(ValueError):
            QmodZ(1, 0)
        with pytest.raises(ValueError):
            QmodZ(1, -3)

    @given(qmodz, qmodz)
    def test_addition_commutative(self, x, y):
        assert x + y == y + x

    @given(qmodz, qmodz, qmodz)
    def test_addition_associative(self, x, y, z):
        assert (x + y) + z == x + (y + z)

    @given(qmodz, qmodz)
    def test_canonical_preserved_and_order_divides_lcm(self, x, y):
        z = x + y
        assert 0 <= z.num < z.den and math.gcd(z.num, z.den) == 1
        assert math.lcm(x.den, y.den) % z.den == 0

    @given(qmodz)
    def test_negation(self, x):
        assert (x + (-x)).is_zero()

    def test_primary_split(self):
        # 1/15 = 2/5 + 2/3 in Q/Z
        x = QmodZ(1, 15)
        assert x - x.part_prime_to(5) == QmodZ(2, 5)
        assert x.part_prime_to(5) == QmodZ(2, 3)

    @given(qmodz, st.sampled_from([2, 3, 5, 7]))
    def test_primary_split_properties(self, x, ell):
        b = x.part_prime_to(ell)
        a = x - b
        assert a.den == ell ** (a.den and self_val(a.den, ell))
        assert b.den % ell != 0

    @given(qmodz, st.sampled_from([2, 3, 5, 7, 11]))
    def test_primary_parts_match_the_xgcd_split(self, x, ell):
        # the ell-primary part by the Bezout split of the denominator into
        # its ell-part m and the rest: num/den = num*(u*m + w*rest)/den
        m, rest = 1, x.den
        while rest % ell == 0:
            rest //= ell
            m *= ell
        _, _, w = xgcd(m, rest)
        assert x - x.part_prime_to(ell) == QmodZ(x.num * w, m)

    def test_scalar_multiple(self):
        assert 3 * QmodZ(1, 12) == QmodZ(1, 4)
        assert -1 * QmodZ(1, 5) == QmodZ(4, 5)


class TestPrimeTo:
    ELLS = (2, 3, 5, 7, 11)

    def test_against_brute_force(self):
        # every x mod d splits uniquely as z + w with z of order prime to ell
        # and w of ell-power order; enumerate both kinds of residue by their
        # orders and check that _prime_to(x, d, ell) is the z of each x
        for d in range(1, 121):
            orders = [d // math.gcd(r, d) for r in range(d)]
            for ell in self.ELLS:
                prime_to = [z for z in range(d) if orders[z] % ell]
                powers = [w for w in range(d) if orders[w] == ell ** self_val(orders[w], ell)]
                split = {}
                for z in prime_to:
                    for w in powers:
                        split.setdefault((z + w) % d, []).append(z)
                assert {x: [_prime_to(x, d, ell)] for x in range(d)} == split, (d, ell)

    def test_two_primes_reduce_in_either_order(self):
        for d in range(1, 121):
            for p in self.ELLS:
                for q in self.ELLS:
                    if p != q:
                        for x in range(d):
                            both = _prime_to(x, d, p, q)
                            assert both == _prime_to(_prime_to(x, d, p), d, q), (x, d, p, q)
                            assert both == _prime_to(_prime_to(x, d, q), d, p), (x, d, p, q)


class TestGluePq:
    @given(
        st.integers(1, 360),
        st.integers(0, 359),
        st.integers(0, 359),
        st.booleans(),
        st.sampled_from([(2, 3), (3, 2), (3, 5), (5, 7), (7, 3)]),
    )
    def test_matches_brute_force(self, n, a, b, one_source, pq):
        # x and y drawn from one z half the time, so that a glue exists
        p, q = pq
        x = QmodZ(a, n).part_prime_to(p)
        y = QmodZ(a if one_source else b, n).part_prime_to(q)
        # a glue has order dividing lcm(x.den, y.den), which divides n
        found = [
            z
            for z in (QmodZ(k, n) for k in range(n))
            if z.part_prime_to(p) == x and z.part_prime_to(q) == y
        ]
        assert len(found) <= 1
        z = glue_pq(x.num * (n // x.den), p, y.num * (n // y.den), q, n)
        assert (None if z is None else QmodZ(z, n)) == (found[0] if found else None)
        if one_source:
            assert found


def self_val(n, p):
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


class TestSolveLinear:
    def test_against_every_residue(self):
        # a = 0, b < 0 and m = 1 among them
        for m in range(1, 41):
            for a in range(-m, 2 * m):
                for b in range(-m, 2 * m):
                    least = next((w for w in range(m) if (a * w - b) % m == 0), None)
                    assert _solve_linear(a, b, m) == least, (a, b, m)


class TestCrtPair:
    def test_examples(self):
        assert crt_pair(Congruence(1, 4), Congruence(3, 6)) == Congruence(9, 12)
        assert crt_pair(Congruence(0, 5), Congruence(0, 7)) == Congruence(0, 35)
        assert crt_pair(Congruence(1, 4), Congruence(2, 6)) is None

    def test_exhaustive_small_moduli(self):
        # present iff residues agree mod gcd; result reduces to both inputs
        for m1 in range(1, 31):
            for m2 in range(1, 31):
                g = math.gcd(m1, m2)
                for r1 in range(m1):
                    for r2 in range(0, m2, max(1, m2 // 3)):
                        got = crt_pair(Congruence(r1, m1), Congruence(r2, m2))
                        if (r1 - r2) % g != 0:
                            assert got is None
                        else:
                            assert got is not None
                            assert got.modulus == math.lcm(m1, m2)
                            assert got.residue % m1 == r1
                            assert got.residue % m2 == r2
                            assert 0 <= got.residue < got.modulus


class TestWeightCrt:
    def test_common_weight(self):
        res = weight_crt(Congruence(2, 4), Congruence(2, 6))
        assert res is not None
        assert res.k_class == Congruence(2, 12)
        assert res.representative == 2

    def test_parity_clash(self):
        assert weight_crt(Congruence(3, 4), Congruence(2, 6)) is None

    def test_representative_at_least_two(self):
        res = weight_crt(Congruence(12 % 4, 4), Congruence(24 % 6, 6))
        assert res is not None
        assert res.k_class == Congruence(0, 12)
        assert res.representative == 12


class TestPrimeToPart:
    def test_examples(self):
        assert prime_to_part(4, 7) == 4
        assert prime_to_part(6, 5) == 6
        assert prime_to_part(12, 3) == 4

    def test_rejects_composite(self):
        with pytest.raises(ValueError):
            prime_to_part(10, 6)

    @given(st.integers(1, 10**6), st.sampled_from([2, 3, 5, 7, 11]))
    def test_defining_property(self, n, ell):
        m = prime_to_part(n, ell)
        assert m % ell != 0
        rest = n // m
        while rest % ell == 0:
            rest //= ell
        assert rest == 1


class TestKronecker:
    def test_examples(self):
        assert kronecker_symbol(-1155, 17) == 1
        assert kronecker_symbol(-1155, 13) == -1
        assert kronecker_symbol(-1155, 3) == 0

    def test_rejects_bad_modulus(self):
        with pytest.raises(ValueError):
            kronecker_symbol(5, 9)
        with pytest.raises(ValueError):
            kronecker_symbol(5, 2)

    @pytest.mark.parametrize("p", [3, 5, 7, 11, 13, 17, 19, 23])
    def test_against_square_counting(self, p):
        # independent oracle: D is a nonzero square mod p iff some x^2 = D
        squares = {x * x % p for x in range(1, p)}
        for D in range(-30, 31):
            expect = 0 if D % p == 0 else (1 if D % p in squares else -1)
            assert kronecker_symbol(D, p) == expect

    @pytest.mark.parametrize("p", [3, 17, 257, 65537, 7340033, 998244353, 10**9 + 7])
    def test_square_roots_by_tonelli_shanks(self, p):
        # p - 1 from 2 * odd to 2^23 * 119, where the 2-Sylow search takes
        # up to 23 passes; a residue given as a negative representative too
        rng = random.Random(p)
        for _ in range(200):
            a = pow(rng.randrange(1, p), 2, p)
            for rep in (a, a - p):
                assert pow(_sqrt_mod(rep, p), 2, p) == a


class TestBernoulli:
    def test_known_values(self):
        assert bernoulli(2) == Fraction(1, 6)
        assert bernoulli(4) == Fraction(-1, 30)
        assert bernoulli(12) == Fraction(-691, 2730)

    def test_rejects_odd_or_small(self):
        with pytest.raises(ValueError):
            bernoulli(3)
        with pytest.raises(ValueError):
            bernoulli(0)
        with pytest.raises(ValueError, match="Bernoulli bound 100"):
            bernoulli(102)

    def test_von_staudt_clausen(self):
        # B_k + sum over primes p with (p-1) | k of 1/p is an integer
        for k in range(2, 62, 2):
            s = bernoulli(k)
            for p in oracles.small_primes(k + 2):
                if k % (p - 1) == 0:
                    s += Fraction(1, p)
            assert s.denominator == 1

    def test_denominator_matches_von_staudt(self):
        assert bernoulli(12).denominator == 2730  # product of p with (p-1) | 12

    def test_agrees_with_akiyama_tanigawa_up_to_the_bound(self):
        # the oracle's Akiyama-Tanigawa table, against the library's
        # recurrence over binomial sums
        for k in range(2, BERNOULLI_BOUND + 1, 2):
            assert bernoulli(k) == oracles.bernoulli(k), k


def is_strong_probable_prime(n, a):
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    x = pow(a, d, n)
    return x in (1, n - 1) or any(pow(x, 2**r, n) == n - 1 for r in range(1, s))


class TestIsPrime:
    def test_agrees_with_sieve(self):
        n = 300_000
        assert [m for m in range(n) if is_prime(m)] == oracles.small_primes(n)

    @pytest.mark.parametrize(
        "n",
        [
            2047,
            1373653,
            25326001,
            3215031751,
            3825123056546413051,
            318665857834031151167461,
        ],
    )
    def test_strong_pseudoprimes_are_composite(self, n):
        assert not is_prime(n)

    def test_each_bound_fools_the_bases_used_below_it(self):
        # every bound is a composite that passes the strong test to all the
        # bases used below it, so none of the bounds can be raised
        factors = {
            2047: (23, 89),
            1373653: (829, 1657),
            25326001: (2251, 11251),
            3215031751: (151, 751, 28351),
            2152302898747: (6763, 10627, 29947),
            3474749660383: (1303, 16927, 157543),
            341550071728321: (10670053, 32010157),
            3825123056546413051: (149491, 747451, 34233211),
            318665857834031151167461: (399165290221, 798330580441),
            3317044064679887385961981: (1287836182261, 2575672364521),
        }
        assert [bound for bound, _ in _MR_BOUNDS] == list(factors)
        for bound, k in _MR_BOUNDS:
            assert math.prod(factors[bound]) == bound
            assert all(is_strong_probable_prime(bound, a) for a in _MR_BASES[:k])

    def test_large_primes(self):
        assert is_prime(10**18 + 3)
        assert is_prime(2**61 - 1)
        assert not is_prime((2**31 - 1) * (10**9 + 7))

    def test_rejects_numbers_above_the_bound(self):
        assert not is_prime(PRIME_TEST_BOUND - 1)  # divisible by 3
        with pytest.raises(ValueError, match=str(PRIME_TEST_BOUND)):
            is_prime(PRIME_TEST_BOUND)


class TestIsPrimeMemo:
    def test_float_raises_after_the_equal_int(self):
        assert is_prime(7)
        with pytest.raises(TypeError):
            is_prime(7.0)

    def test_refusal_above_the_bound_is_not_memoised(self):
        for _ in range(2):
            with pytest.raises(ValueError, match=str(PRIME_TEST_BOUND)):
                is_prime(PRIME_TEST_BOUND)

    def test_agrees_with_sieve_cold_and_warm(self):
        n = 10**5
        expected = oracles.small_primes(n)
        is_prime.cache_clear()
        assert [m for m in range(n) if is_prime(m)] == expected
        # sweeping back down, the first 1 << 12 verdicts come from the memo
        hits = is_prime.cache_info().hits
        assert [m for m in reversed(range(n)) if is_prime(m)] == expected[::-1]
        assert is_prime.cache_info().hits - hits == 1 << 12


class TestHelpers:
    def test_factorize(self):
        assert factorize(1) == {}
        assert factorize(360) == {2: 3, 3: 2, 5: 1}

    def test_factorize_refuses_a_float(self):
        with pytest.raises(TypeError, match=r"1155\.0 is not an integer"):
            factorize(1155.0)

    def test_factorize_matches_trial_division(self):
        rng = random.Random(37)
        small = [*range(1, 5000), *(rng.randrange(1, 10**6) for _ in range(5000))]
        # past the trial bound: products of two or three primes near it, and
        # random n whose cofactors get tested for primality
        primes = [n for n in range(900, 5000) if is_prime(n)]
        mid = [math.prod(rng.sample(primes, rng.choice((2, 3)))) for _ in range(300)]
        mid += [rng.randrange(10**6, 10**10) for _ in range(40)]
        for n in small + mid:
            assert factorize(n) == oracles.prime_factors(n)

    @pytest.mark.parametrize(
        "n",
        [
            3**60,
            2**90 * 5**7,
            math.factorial(40),
            1031**8 * 65537**2,  # a cofactor above the trial bound
            1021**9 * 1033**3 * 4099,
        ],
    )
    def test_factorize_past_the_test_bound_with_small_factors(self, n):
        assert n >= PRIME_TEST_BOUND
        assert factorize(n) == oracles.prime_factors(n)

    @pytest.mark.parametrize(
        "n, factors",
        [
            (5 * (10**18 + 3), {5: 1, 10**18 + 3: 1}),
            (10**16 + 4446, {2: 1, 5000000000002223: 1}),
            (1031 * (10**18 + 9), {1031: 1, 10**18 + 9: 1}),
        ],
    )
    def test_one_large_prime_factor_is_fast(self, n, factors):
        start = time.perf_counter()
        assert factorize(n) == factors
        assert time.perf_counter() - start < 0.1

    @pytest.mark.parametrize(
        "n, factors, seconds",
        [
            ((10**9 + 7) * (10**9 + 9), {10**9 + 7: 1, 10**9 + 9: 1}, 0.5),
            (5 * (10**9 + 9) * (10**9 + 7), {5: 1, 10**9 + 7: 1, 10**9 + 9: 1}, 0.5),
            # two primes near 10^12, the hardest split below PRIME_TEST_BOUND
            (1800000000083 * 1800000000047, {1800000000047: 1, 1800000000083: 1}, 5.0),
            (100000007**3, {100000007: 3}, 0.5),
            (1000003**2 * 10000019, {1000003: 2, 10000019: 1}, 0.5),
            (1031 * 1033 * 1039 * 1049 * 1051, {1031: 1, 1033: 1, 1039: 1, 1049: 1, 1051: 1}, 0.5),
            (1031**8 * 65537**2 * 1000003, {1031: 8, 65537: 2, 1000003: 1}, 0.5),
            # 900 digits: each piece past the bound costs a strong test, so a
            # power is divided out by the factor rho finds, not split 300 times
            (1031**300, {1031: 300}, 1.0),
        ],
    )
    def test_rho_splits_large_factors(self, n, factors, seconds):
        start = time.perf_counter()
        got = factorize(n)
        assert time.perf_counter() - start < seconds
        assert got == factors
        assert list(got) == sorted(got)  # primes increasing, as trial division gives them

    def test_rho_matches_trial_division_on_products_of_large_primes(self):
        rng = random.Random(41)
        primes = [n for n in range(1025, 40000, 2) if is_prime(n)]
        for _ in range(200):
            n = math.prod(rng.choices(primes, k=rng.choice((2, 3, 4))))
            got = factorize(n)
            assert got == oracles.prime_factors(n) and list(got) == sorted(got), n

    def test_rho_budget_is_named(self, monkeypatch):
        monkeypatch.setattr(exactnum, "_RHO_STEPS", 1 << 10)
        with pytest.raises(ValueError, match=r"more than _RHO_STEPS = 1024 rho steps"):
            factorize((10**9 + 7) * (10**9 + 9))
        # small factors and a prime cofactor take no rho steps
        assert factorize(1031 * 1033) == {1031: 1, 1033: 1}
        assert factorize(5 * (10**18 + 3)) == {5: 1, 10**18 + 3: 1}

    def test_rho_past_the_test_bound_matches_trial_division(self):
        # cofactors at or above PRIME_TEST_BOUND whose primes all lie past
        # the trial bound: each fails a strong probable-prime test and is split
        rng = random.Random(43)
        primes = [n for n in range(1025, 5000, 2) if is_prime(n)]
        for _ in range(40):
            n = math.prod(rng.choices(primes, k=rng.randrange(8, 12)))
            assert n >= PRIME_TEST_BOUND
            got = factorize(n)
            assert got == oracles.prime_factors(n) and list(got) == sorted(got), n

    def test_rho_splits_primes_below_the_bound_out_of_a_cofactor_above_it(self):
        rng = random.Random(47)
        for _ in range(10):
            factors = {}
            while math.prod(r**e for r, e in factors.items()) < PRIME_TEST_BOUND:
                r = rng.randrange(10**7, 10**9)
                if is_prime(r):
                    factors[r] = factors.get(r, 0) + 1
            n = math.prod(r**e for r, e in factors.items())
            assert factorize(n) == dict(sorted(factors.items()))

    def test_a_probable_prime_past_the_bound_is_refused(self):
        # 10^25 + 13 passes the strong test to all 13 bases, which proves
        # nothing past PRIME_TEST_BOUND; it was once trial-divided for hours
        n = 10**25 + 13
        assert n >= PRIME_TEST_BOUND and all(is_strong_probable_prime(n, a) for a in _MR_BASES)
        start = time.perf_counter()
        for m in (n, 5 * n, 1031 * n):
            with pytest.raises(ValueError, match=f"PRIME_TEST_BOUND = {PRIME_TEST_BOUND}"):
                factorize(m)
        assert time.perf_counter() - start < 1.0

    def test_step_cost_is_one_below_128_bits(self):
        assert [exactnum._step_cost(n) for n in (3, PRIME_TEST_BOUND, 2**128 - 1)] == [1, 1, 1]
        assert [exactnum._step_cost(n) for n in (2**128, 2**256, 10**4299)] == [4, 9, 112**2]

    def test_a_4300_digit_product_is_refused_fast(self):
        # one strong test of a 4300-digit number takes seconds; its charge
        # alone exceeds the budget, so the refusal comes first
        n = (10**2149 + 7) * (10**2150 + 9)
        assert len(str(n)) == 4300
        start = time.perf_counter()
        with pytest.raises(ValueError, match="_RHO_STEPS"):
            factorize(n)
        assert time.perf_counter() - start < 1.0

    def test_rho_charges_each_step_by_the_size_of_n(self, monkeypatch):
        n = 1000003 * (10**45 + 9)  # 170 bits, so 4 units a step
        cost = exactnum._step_cost(n)
        assert cost == 4
        budget = 1 << 30
        f, left = exactnum._rho_divisor(n, budget)
        monkeypatch.setattr(exactnum, "_step_cost", lambda n: 1)
        assert exactnum._rho_divisor(n, budget) == (f, budget - (budget - left) // cost)

    def test_primitive_root(self):
        assert primitive_root(5) == 2
        assert primitive_root(5, 2) == 2
        assert primitive_root(7) == 3
        assert primitive_root(3, 2) == 2
        g = primitive_root(7, 2)
        order = next(
            k for k in range(1, 43) if pow(g, k, 49) == 1
        )
        assert order == 42
        for bad in (2, 9):
            with pytest.raises(ValueError):
                primitive_root(bad)


def element_order(g: int, m: int) -> int:
    x, k = g % m, 1
    while x != 1:
        x, k = x * g % m, k + 1
    return k


def least_root_by_order(ell: int, exponent: int) -> int:
    """Least g whose order in (Z/ell^exponent)^* is the group order."""
    m = ell**exponent
    phi = (ell - 1) * ell ** (exponent - 1)
    return next(g for g in range(2, m) if g % ell and element_order(g, m) == phi)


ODD_PRIMES_BELOW_3000 = oracles.small_primes(3000)[1:]


class TestPrimitiveRoot:
    @pytest.mark.parametrize("exponent, bound", [(1, 3000), (2, 10**5), (3, 10**5)])
    def test_agrees_with_brute_force(self, exponent, bound):
        for ell in ODD_PRIMES_BELOW_3000:
            if ell**exponent > bound:
                break
            assert primitive_root(ell, exponent) == least_root_by_order(ell, exponent)

    def test_40487(self):
        # the least primitive root mod 40487 is not one mod 40487^2
        assert primitive_root(40487) == 5
        assert primitive_root(40487, 2) == primitive_root(40487, 3) == 10


class TestUnitDlog:
    @pytest.fixture
    def fresh_memo(self):
        # a memoised log would answer without the search a test checks
        unit_dlog.cache_clear()

    def test_matches_powers_of_generator(self):
        # 3 generates F_7^*: the log of 3^k is k
        for k in range(6):
            assert unit_dlog(3**k % 7, 7) == k

    def test_minus_one_is_order_two(self):
        # its log is half the group, so it is 1/2 in Q/Z
        for p in (5, 7, 11, 13):
            assert unit_dlog(p - 1, p) == (p - 1) // 2

    def test_a_float_never_meets_the_entry_of_its_int(self, fresh_memo):
        assert unit_dlog(5, 7) == 5
        with pytest.raises(TypeError):
            unit_dlog(5.0, 7)
        with pytest.raises(TypeError):
            unit_dlog(5, 7.0)
        assert unit_dlog.cache_info().currsize == 1

    @given(st.sampled_from(ODD_PRIMES_BELOW_3000), st.integers(0, 10**6))
    def test_unit_dlog_inverts_pow(self, ell, e):
        g = primitive_root(ell)
        assert unit_dlog(pow(g, e, ell), ell) == e % (ell - 1)

    def test_agrees_with_the_walk_below_3000(self):
        # the least root of every odd prime below 3000, at 1, g, -1 and
        # random units
        rng = random.Random(23)
        for ell in ODD_PRIMES_BELOW_3000:
            g = primitive_root(ell)
            for t in (1, g, ell - 1, *(rng.randrange(1, ell) for _ in range(4))):
                assert unit_dlog(t, ell) == walk_dlog(g, t, ell)

    @pytest.mark.parametrize(
        "ell, factors",
        [
            (10**9 + 7, {2: 1, 500000003: 1}),
            (6692367337, {2: 3, 3: 1, 278848639: 1}),
            # the prime factor of ell - 1 needs more baby steps than the cap
            (1000000000547, {2: 1, 500000000273: 1}),
        ],
    )
    def test_large_primes_checked_by_pow(self, ell, factors):
        assert factorize(ell - 1) == factors
        g = primitive_root(ell)
        for e in (0, 1, 2, 3, 1000):
            assert unit_dlog(pow(g, e, ell), ell) == e
        if ell < 10**12:
            rng = random.Random(ell)
            for t in (ell - 1, *(rng.randrange(1, ell) for _ in range(3))):
                e = unit_dlog(t, ell)
                assert 0 <= e < ell - 1 and pow(g, e, ell) == t

    def test_small_log_above_the_cap_is_fast(self, fresh_memo):
        ell = 1000000000547
        assert math.isqrt(500000000273) + 1 > _BABY_STEPS
        g = primitive_root(ell)
        start = time.perf_counter()
        assert unit_dlog(g, ell) == 1
        assert time.perf_counter() - start < 1.0
        # a log past the first table costs giant steps, about 381,000 here
        e = 10**11 + 7
        assert unit_dlog(pow(g, e, ell), ell) == e

    def test_capped_table_agrees_with_the_walk(self, fresh_memo, monkeypatch):
        # with at most 4 baby steps, a log in a subgroup of order f takes up
        # to f / 4 giant steps
        monkeypatch.setattr(exactnum, "_BABY_STEPS", 4)
        rng = random.Random(29)
        for ell in ODD_PRIMES_BELOW_3000[::5]:
            g = primitive_root(ell)
            for t in (1, g, ell - 1, rng.randrange(1, ell), rng.randrange(1, ell)):
                assert unit_dlog(t, ell) == walk_dlog(g, t, ell)
        # 163 - 1 = 2 * 3^4: a multiple of 163 is no power of 2, and with one
        # baby step its search runs through both giant steps of the subgroup
        # of order 2
        monkeypatch.setattr(exactnum, "_BABY_STEPS", 1)
        with pytest.raises(ValueError, match="0 is not a power of 2 modulo 163"):
            unit_dlog(2 * 163, 163)

    def test_giant_steps_past_the_cap_refused(self):
        # ell - 1 = 2 * 50000000002541, prime: a log in that subgroup would
        # take about 1.9 * 10^8 giant steps of 2^18
        ell = 100000000005083
        start = time.perf_counter()
        assert factorize(ell - 1) == {2: 1, 50000000002541: 1}
        with pytest.raises(ValueError, match=r"order 50000000002541 .* _GIANT_STEPS = 2097152"):
            unit_dlog(3, ell)
        assert time.perf_counter() - start < 2.0

    def test_giant_step_cap_is_exact(self, fresh_memo, monkeypatch):
        # 163 - 1 = 2 * 3^4: with 4 baby steps, a log in the subgroup of
        # order 81 may take 21 giant steps
        monkeypatch.setattr(exactnum, "_BABY_STEPS", 4)
        monkeypatch.setattr(exactnum, "_GIANT_STEPS", 21)
        g = primitive_root(163)
        for t in range(1, 163):
            assert unit_dlog(t, 163) == walk_dlog(g, t, 163)
        monkeypatch.setattr(exactnum, "_GIANT_STEPS", 20)
        unit_dlog.cache_clear()
        with pytest.raises(ValueError, match=r"modulo 163 in its subgroup of order 81 .* = 20 "):
            unit_dlog(1, 163)

    def test_table_stays_within_the_cap(self, fresh_memo, monkeypatch):
        # 10^9 + 7 - 1 = 2 * 500000003: sqrt(f) is 22361 entries, some 3 MB,
        # and a cap of 1000 keeps them to about 0.1 MB
        monkeypatch.setattr(exactnum, "_BABY_STEPS", 1000)
        ell = 10**9 + 7
        g = primitive_root(ell)
        tracemalloc.start()
        try:
            assert unit_dlog(g, ell) == 1
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_one_factorisation_per_prime(self, fresh_memo, monkeypatch):
        # primitive_root at both levels and every log at ell share one
        # factorisation of ell - 1
        ell = 999983
        primitive_root.cache_clear()
        _unit_order_factors.cache_clear()
        calls = []
        monkeypatch.setattr(exactnum, "factorize", lambda n: calls.append(n) or factorize(n))
        g = primitive_root(ell)
        assert primitive_root(ell, 2) == g
        for t in (2, 3, ell - 1):
            assert pow(g, unit_dlog(t, ell), ell) == t
        assert calls == [ell - 1]

    @pytest.mark.parametrize(
        "root, target, ell", [(3, 0, 7), (3, 14, 7), (2, 0, 1000000000547)]
    )
    def test_non_powers_and_zero_raise(self, root, target, ell):
        # only a multiple of ell is no power of the least primitive root
        with pytest.raises(ValueError, match=f"{target % ell} is not a power of {root} modulo"):
            unit_dlog(target, ell)


def names_in(path: Path) -> set[str]:
    """Every name, attribute and imported name in a module's source."""
    nodes = list(ast.walk(ast.parse(path.read_text())))
    names = {node.id for node in nodes if isinstance(node, ast.Name)}
    names |= {node.attr for node in nodes if isinstance(node, ast.Attribute)}
    return names | {node.name for node in nodes if isinstance(node, ast.alias)}


def test_only_exactnum_names_the_crt_idempotent():
    # exactnum alone splits Z/d into its ell-primary part and the rest; every
    # other module reduces mod ell through exactnum._prime_to
    idempotent = {exactnum._prime_to_projector.__name__, "_crt_idempotent"}
    for path in sorted(Path(heckelift.__file__).parent.glob("*.py")):
        if path.name != "exactnum.py":
            assert not names_in(path) & idempotent, path.name


def test_abchar_owns_the_unit_group_at_one_prime():
    # the lift across levels, theta's inverse and the level-one log live in
    # abchar, and unit_dlog logs to the least primitive root only
    package = Path(heckelift.__file__).parent
    private = {"_character_on_g", "_exponent_on_g", "_level", "_phi", "primitive_root"}
    assert not names_in(package / "serrepq.py") & private
    assert not names_in(package / "heckeq.py") & {"_over_level_one_log", "glue_pq"}
    assert list(inspect.signature(unit_dlog).parameters) == ["target", "ell"]


def test_python_O_changes_nothing_in_the_package():
    # -O drops every assert statement and reads __debug__ as False, so the
    # package uses neither: each of its checks raises
    for path in sorted(Path(heckelift.__file__).parent.rglob("*.py")):
        assert "__debug__" not in names_in(path), path.name
        nodes = ast.walk(ast.parse(path.read_text()))
        assert [node.lineno for node in nodes if isinstance(node, ast.Assert)] == [], path.name


def test_every_exported_class_or_function_is_defined_where_it_is_listed():
    # a name in a module's __all__ is that module's own: a second module
    # listing an import, as heckeq once listed abchar's HeckeCertificate,
    # is a second way to reach it
    for info in pkgutil.iter_modules(heckelift.__path__):
        module = importlib.import_module(f"heckelift.{info.name}")
        for name in getattr(module, "__all__", ()):
            value = getattr(module, name)
            if inspect.isclass(value) or callable(value):
                assert value.__module__ == module.__name__, (module.__name__, name)


def test_only_exactnum_stores_past_a_records_refusal():
    # a record stores its fields through the _store and _make that Record
    # compiles; no other module builds or writes one by hand
    for path in sorted(Path(heckelift.__file__).parent.rglob("*.py")):
        if path.name != "exactnum.py":
            by_hand = [
                node.lineno
                for node in ast.walk(ast.parse(path.read_text()))
                if isinstance(node, ast.Attribute)
                and node.attr in ("__setattr__", "__new__")
                and isinstance(node.value, ast.Name)
                and node.value.id == "object"
            ]
            assert by_hand == [], path.name


def test_every_memo_in_the_package_is_bounded():
    # _bernoulli_even is the one unbounded memo with an argument: bernoulli
    # caps it at BERNOULLI_BOUND // 2, so it holds at most 51 entries;
    # heckequad._form_tables takes none, so it holds one.  Every other memo
    # keeps the 1 << 12 most recent entries, except the class groups'
    # eight, whose entries are up to 0.75 MB each
    memos = {}
    for info in pkgutil.iter_modules(heckelift.__path__):
        module = importlib.import_module(f"heckelift.{info.name}")
        for value in vars(module).values():
            if hasattr(value, "cache_info"):
                memos[f"{value.__module__}.{value.__qualname__}"] = value
    assert {"heckelift.exactnum.is_prime", "heckelift.abchar._level_one_log"} <= memos.keys()
    bounds = {name: memo.cache_parameters()["maxsize"] for name, memo in memos.items()}
    assert bounds.pop("heckelift.exactnum._bernoulli_even") is None
    assert bounds.pop("heckelift.heckequad._form_tables") is None
    assert memos["heckelift.heckequad._form_tables"].__wrapped__.__code__.co_argcount == 0
    assert bounds.pop("heckelift.heckequad._class_group") == 8
    assert set(bounds.values()) == {1 << 12}
    assert "heckelift.exactnum._prime_to_projector" in bounds
    bernoulli(BERNOULLI_BOUND)
    cached = memos["heckelift.exactnum._bernoulli_even"].cache_info().currsize
    assert cached == BERNOULLI_BOUND // 2 + 1 == 51
