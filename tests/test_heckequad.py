import math
import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from heckelift import heckequad
from heckelift.abchar import FinAbGroup, GroupCharacter, HeckeCertificate
from heckelift.exactnum import QmodZ, factorize, valuation
from heckelift.heckequad import (
    SIGMA,
    SIGMA_BAR,
    IdealClassGroup,
    ImagQuadField,
    PlaceLocal,
    QuadLocalData,
    class_group,
    counting_bound,
    criterion_decide,
    splitting_data,
    xi_values,
)
from heckelift.heckequad import (
    _class_group,
    _compose,
    _forced_two_part,
    _forms_by_first_coefficient,
    _fundamental_primes,
    _orders,
    _principal_form,
    _reduce_form,
    _redei_4_rank,
    _reduced_forms,
)

from conftest import oracles, run_python, xgcd


K1155 = ImagQuadField(-1155)


def _fundamental_discriminants(bound):
    """Every fundamental D with -bound <= D < -4."""
    return [D for D in range(-5, -bound - 1, -1) if oracles.is_fundamental(D)]


def _wild(order):
    """A wild character of the given order on a cyclic group of that order."""
    return GroupCharacter(FinAbGroup((order,)), (QmodZ(1, order),))


def _is_reduced(form):
    a, b, c = form
    return -a < b <= a <= c and not (a == c and b < 0)


def _dirichlet_compose(f1, f2, D):
    """Dirichlet composition of two primitive forms of discriminant D,
    followed by reduction (Cohen, GTM 138, §5.4): the reference for
    _compose, with Bezout coefficients from the extended Euclidean algorithm.

    With s = (b1 + b2)/2 and g = gcd(a1, a2, s) = u*a1 + v*a2 + w*s, the
    composite is (A, B, C) with A = a1*a2/g^2 and
    B = (u*a1*b2 + v*a2*b1 + w*(b1*b2 + D)/2)/g mod 2A; this holds also
    when a1 and a2 share a factor.
    """
    a1, b1, _ = f1
    a2, b2, _ = f2
    s = (b1 + b2) // 2
    g1, x, y = xgcd(a1, a2)
    g, z, w = xgcd(g1, s)
    u, v = z * x, z * y
    A = a1 * a2 // (g * g)
    B = (u * a1 * b2 + v * a2 * b1 + w * (b1 * b2 + D) // 2) // g % (2 * A)
    C = (B * B - D) // (4 * A)
    if B * B - 4 * A * C != D:
        raise AssertionError(f"composition left discriminant {D}")
    return _reduce_form(A, B, C)


def _scanned_forms(D):
    """The primitive reduced forms of discriminant D < 0, sorted, by trying
    every a for every middle coefficient b: the reference for _reduced_forms.

    For 0 <= b <= sqrt(|D|/3) with b = D mod 2, every a | (b^2 - D)/4 with
    max(b, 1) <= a <= c gives (a, b, c), and (a, -b, c) too when
    0 < b < a < c.
    """
    forms = []
    for b in range(D % 2, math.isqrt(-D // 3) + 1, 2):
        m = (b * b - D) // 4
        for a in range(max(b, 1), math.isqrt(m) + 1):
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


def _orders_step_by_step(forms, D):
    """The order of each form by composing one step at a time, about h^2
    compositions in all: the reference for _orders.  It composes with the
    _compose under test, which test_compose_matches_dirichlet_on_every_pair
    checks against _dirichlet_compose."""
    identity = _principal_form(D)
    orders = {}
    for f in forms:
        e, acc = 1, f
        while acc != identity:
            acc = _compose(acc, f, D)
            e += 1
        orders[f] = e
    return orders


def _orders_full_walk(forms, D):
    """The order of each form from walks f, f^2, ... all the way to the
    identity, n - 1 compositions for a walk of order n: the second reference
    for _orders, whose walks stop halfway."""
    identity = _principal_form(D)
    orders = {}
    for f in forms:
        if f in orders:
            continue
        walk = [f]
        while walk[-1] != identity:
            walk.append(_compose(walk[-1], f, D))
        n = len(walk)
        for k, g in enumerate(walk, start=1):
            orders[g] = n // math.gcd(k, n)
    return orders


def _class_group_by_histogram(D):
    """The class group from the orders of all h forms, walked by _orders:
    the reference for class_group, which walks only inside its non-cyclic
    Sylow subgroups."""
    forms = _reduced_forms(D)
    h = len(forms)
    histogram = Counter(_orders(forms, D).values())  # order -> forms of that order
    exponent = math.lcm(*histogram)

    # per prime ell | h: r_k = log_ell |G[ell^k]| / |G[ell^(k-1)]| counts the
    # ell-primary cyclic factors of order >= ell^k, so the i-th largest
    # invariant factor has ell-exponent #{k : r_k >= i}
    largest_first = []
    for ell, e in oracles.prime_factors(h).items():
        ranks, count = [], 1
        for k in range(1, e + 1):
            torsion = sum(count for n, count in histogram.items() if ell**k % n == 0)
            ranks.append(valuation(torsion // count, ell))
            count = torsion
            if count == ell**e:
                break
        largest_first += [1] * (ranks[0] - len(largest_first))
        for i in range(1, ranks[0] + 1):
            largest_first[i - 1] *= ell ** sum(1 for r in ranks if r >= i)
    factors = tuple(reversed(largest_first))
    if math.prod(factors) != h:
        raise AssertionError(f"invariant factors {factors} do not multiply to h = {h}")

    return IdealClassGroup(D, tuple(forms), h, exponent, factors)


@pytest.fixture
def fresh_memo():
    """Empty class-group and discriminant-primes memos, emptied again
    afterwards, so that nothing kept by another test hides a computation
    and nothing computed under a monkeypatch outlives it."""
    _class_group.cache_clear()
    _fundamental_primes.cache_clear()
    yield
    _class_group.cache_clear()
    _fundamental_primes.cache_clear()


@pytest.fixture
def compositions(monkeypatch, fresh_memo):
    """The list of discriminants of heckequad._compose calls, one per call."""
    calls = []
    real = heckequad._compose
    monkeypatch.setattr(heckequad, "_compose", lambda f1, f2, D: calls.append(D) or real(f1, f2, D))
    return calls


@pytest.fixture
def walks(monkeypatch, fresh_memo):
    """The number of forms handed to each heckequad._orders call, one entry
    per call."""
    sizes = []
    real = heckequad._orders
    monkeypatch.setattr(
        heckequad, "_orders", lambda forms, D: sizes.append(len(forms)) or real(forms, D)
    )
    return sizes


def _power(f, n, D):
    """f^n for n >= 0 by binary powering: a reference for the group law that
    shares no walk with _orders."""
    result, base = _principal_form(D), f
    while n:
        if n & 1:
            result = _compose(result, base, D)
        n >>= 1
        if n:
            base = _compose(base, base, D)
    return result


_SWAP_SIGN = bytes.maketrans(b"\x01\x02", b"\x02\x01")


def _class_number_formula(D, primes):
    """h(D) = (2 - (D|2))^-1 * sum of (D|a) over 0 < a < |D|/2, for a
    fundamental D < -4.

    (D|a) is completely multiplicative in a, so it is built on [0, n] from
    its values oracles.kronecker(D, p) at the primes, held as bytes (1 for
    +1, 2 for -1): a prime with (D|p) = -1 swaps the sign on the multiples
    of each power of p, one with (D|p) = 0 zeroes its multiples.  The
    slices run in C, where a symbol per a, as in
    oracles.analytic_class_number, would be a Python loop over every a."""
    n = (-D - 1) // 2
    chi = bytearray([0]) + bytearray([1]) * n
    for p in primes:
        if p > n:
            break
        s = oracles.kronecker(D, p)
        if s == 0:
            chi[p::p] = bytes(len(range(p, n + 1, p)))
        elif s == -1:
            pk = p
            while pk <= n:
                chi[pk::pk] = chi[pk::pk].translate(_SWAP_SIGN)
                pk *= p
    total, denominator = chi.count(1) - chi.count(2), 2 - oracles.kronecker(D, 2)
    assert total % denominator == 0
    return total // denominator


@st.composite
def _form_triples(draw):
    """A fundamental D with -D <= 10^5 and three of its reduced forms; half
    the time the second's leading coefficient shares a factor with the
    first's, so that pairs with gcd(a1, a2) > 1 are drawn often."""
    D = -draw(st.integers(5, 10**5))
    while not oracles.is_fundamental(D):
        D -= 1
    forms = class_group(D).forms
    f1 = draw(st.sampled_from(forms))
    sharing = [f for f in forms if math.gcd(f[0], f1[0]) > 1]
    if sharing and draw(st.booleans()):
        f2 = draw(st.sampled_from(sharing))
    else:
        f2 = draw(st.sampled_from(forms))
    return D, forms, f1, f2, draw(st.sampled_from(forms))


class TestImagQuadField:
    def test_valid_discriminants(self):
        ImagQuadField(-7)
        ImagQuadField(-20)
        ImagQuadField(-1155)

    def test_rejects_non_fundamental(self):
        for D in [-12, -9, -25, -18]:
            with pytest.raises(ValueError):
                ImagQuadField(D)

    def test_rejects_positive_and_small(self):
        for D in [5, -3, -4]:
            with pytest.raises(ValueError):
                ImagQuadField(D)

    def test_accepts_exactly_the_fundamental_discriminants(self):
        accepted = []
        for D in range(-20000, -4):
            try:
                ImagQuadField(D)
            except ValueError:
                continue
            accepted.append(D)
        assert accepted == [D for D in range(-20000, -4) if oracles.is_fundamental(D)]
        assert len(accepted) == 6077


class TestSplittingData:
    def test_split_at_17(self):
        data_p, _ = splitting_data(K1155, 17, 19)
        assert data_p.kind == "split"
        assert len(data_p.places) == 2
        for place in data_p.places:
            assert place.residue_size == 17
            assert place.modulus == 16  # prime-to-19 part of 16
            assert len(place.kappa) == 1 and place.kappa[0][1] == 0

    def test_inert_at_13(self):
        data_p, _ = splitting_data(K1155, 13, 17)
        assert data_p.kind == "inert"
        (place,) = data_p.places
        assert place.residue_size == 169
        assert place.modulus == 168  # prime-to-17 part of 168
        assert dict(place.kappa) == {SIGMA: 0, SIGMA_BAR: 1}

    def test_ramified_rejected(self):
        with pytest.raises(ValueError):
            splitting_data(K1155, 3, 17)  # 3 divides 1155

    def test_modulus_strips_other_prime(self):
        # 5 inert in Q(sqrt(-7))? kronecker(-7,5) = (3|5) = -1: inert
        K = ImagQuadField(-7)
        data_p, data_q = splitting_data(K, 5, 3)
        assert data_p.kind == "inert"
        assert data_p.places[0].modulus == 8  # prime-to-3 part of 24


class TestXiValues:
    def test_split_singletons(self):
        data_p, _ = splitting_data(K1155, 17, 19)
        assert xi_values(data_p, (3, 4)) == (-3, -4)

    def test_inert_weighting(self):
        data_p, _ = splitting_data(K1155, 13, 17)
        assert xi_values(data_p, (2, 5)) == (-(2 + 5 * 13),)

    def test_zero_type(self):
        data_p, _ = splitting_data(K1155, 17, 19)
        assert xi_values(data_p, (0, 0)) == (0, 0)


class TestCriterionDecide:
    def setup_method(self):
        self.data_p, self.data_q = splitting_data(K1155, 17, 19)
        self.trivial = QuadLocalData(
            tuple(PlaceLocal(0, 0) for _ in self.data_p.places),
            tuple(PlaceLocal(0, 0) for _ in self.data_q.places),
        )
        self.A, self.B = 16, 18
        self.C = math.lcm(self.A, self.B)

    def test_trivial_pair_accepts_lcm_type(self):
        rep = criterion_decide(K1155, 17, 19, self.trivial, (self.C, self.C))
        assert rep.ok
        # all local characters are trivial: tame exponents are multiples of
        # residue-size - 1
        assert rep.certificate.local_chars == ()
        assert rep.certificate.conductor == 1

    def test_trivial_pair_accepts_one_sided_type(self):
        rep = criterion_decide(K1155, 17, 19, self.trivial, (self.C, 0))
        assert rep.ok

    def test_trivial_pair_rejects_unit_type(self):
        rep = criterion_decide(K1155, 17, 19, self.trivial, (1, 0))
        assert not rep.ok
        assert not rep.condition_1[0].ok  # 0 - 0 != -1 mod 16

    def test_all_zero_data_zero_type(self):
        rep = criterion_decide(K1155, 17, 19, self.trivial, (0, 0))
        assert rep.ok
        assert rep.certificate.local_chars == ()

    def test_parity_condition_can_fail_alone(self):
        # k - a = 0 = xi mod 16 holds, but k - xi = 1 makes the unit-value
        # parity odd against an even infinity type
        local = QuadLocalData(
            (PlaceLocal(1, 1), PlaceLocal(0, 0)),
            (PlaceLocal(0, 0), PlaceLocal(0, 0)),
        )
        rep = criterion_decide(K1155, 17, 19, local, (0, 0))
        assert all(c.ok for c in rep.condition_1)
        assert all(c.ok for c in rep.condition_1_prime)
        assert not rep.condition_2[2]
        assert not rep.ok

    def test_nontrivial_certificate_chars(self):
        local = QuadLocalData(
            (PlaceLocal(8, 8), PlaceLocal(8, 8)),
            (PlaceLocal(0, 0), PlaceLocal(0, 0)),
        )
        rep = criterion_decide(K1155, 17, 19, local, (0, 0))
        assert rep.ok
        assert len(rep.certificate.local_chars) == 2
        assert rep.certificate.conductor == 17 * 17

    def test_symmetry_under_pq_swap(self):
        local = QuadLocalData(
            (PlaceLocal(3, 1), PlaceLocal(0, 0)),
            (PlaceLocal(5, 2), PlaceLocal(1, 1)),
        )
        mirrored = QuadLocalData(local.above_q, local.above_p)
        for inf in [(0, 0), (2, 2), (self.C, 0), (1, 3)]:
            a = criterion_decide(K1155, 17, 19, local, inf)
            b = criterion_decide(K1155, 19, 17, mirrored, inf)
            assert a.ok == b.ok

    @pytest.mark.parametrize(
        "p, q, entry, conductor",
        [
            # wild order 17^2 at a split place: exponent 1 + v_17(17^2)
            (17, 19, PlaceLocal(0, 0, _wild(17**2)), 17**3),
            # tame only at the inert place above 13: its residue size 13^2
            (13, 17, PlaceLocal(2, 2), 169),
            # wild at the inert place: the order does not fix the conductor
            (13, 17, PlaceLocal(0, 0, _wild(13)), None),
        ],
    )
    def test_certificate_conductor(self, p, q, entry, conductor):
        data_p, _ = splitting_data(K1155, p, q)
        rest = (PlaceLocal(0, 0),) * (len(data_p.places) - 1)
        local = QuadLocalData((entry, *rest), (PlaceLocal(0, 0),) * 2)
        rep = criterion_decide(K1155, p, q, local, (0, 0))
        assert rep.ok
        assert [name for name, _ in rep.certificate.local_chars] == [f"v1@{p}"]
        assert rep.certificate.conductor == conductor

    def test_split_condition_matches_rational_congruence_shape(self):
        # At a split place, condition (1) reads k - a = -n_sigma mod A.
        # Setting k0 := -n_sigma gives exactly the rational congruence shape
        # k0 = k_p - a_p mod A_p, for every k0 in a full period.
        for k_p, a_p in [(5, 2), (0, 0), (7, 11)]:
            local = QuadLocalData(
                (PlaceLocal(k_p, a_p), PlaceLocal(k_p, a_p)),
                (PlaceLocal(0, 0), PlaceLocal(0, 0)),
            )
            for k0 in range(16):
                rep = criterion_decide(K1155, 17, 19, local, (-k0, -k0))
                check = rep.condition_1[0]
                assert check.modulus == 16
                assert check.ok == ((k0 - (k_p - a_p)) % 16 == 0)

    # Three accepted cases written out by hand: the conditions, the
    # condition-(2) triple (parity sum mod 2, n_sigma + n_sigmabar mod 2, ok)
    # and the certificate.  Each sets k = xi + a, so conditions (1) and (1')
    # hold, the parity sum is the sum of the a, and the tame power at a place
    # is its a.

    def test_odd_infinity_type_with_one_tame_power(self):
        # type (1, 0): xi = -1 at v1@17 and v1@19 and 0 at v2; a = 1 at v1@17
        local = QuadLocalData(
            (PlaceLocal(0, 1), PlaceLocal(0, 0)),
            (PlaceLocal(-1, 0), PlaceLocal(0, 0)),
        )
        rep = criterion_decide(K1155, 17, 19, local, (1, 0))
        assert [(c.lhs, c.rhs, c.ok) for c in rep.condition_1 + rep.condition_1_prime] == [
            (-1, -1, True), (0, 0, True), (-1, -1, True), (0, 0, True)
        ]
        assert rep.condition_2 == (1, 1, True)
        tame = FinAbGroup((16,), ("k(v1@17)^* tame",))
        assert rep.certificate == HeckeCertificate(
            infinity_type=((SIGMA, 1), (SIGMA_BAR, 0)),
            local_chars=(("v1@17", GroupCharacter(tame, (QmodZ(1, 16),))),),
            conductor=17,
        )

    def test_even_infinity_type_with_a_tame_power_of_two(self):
        # type (1, 1): xi = -1 at all four places; a = 2 at v1@17, so the
        # parity sum 2 and n_sigma + n_sigmabar = 2 are both even
        local = QuadLocalData(
            (PlaceLocal(1, 2), PlaceLocal(-1, 0)),
            (PlaceLocal(-1, 0), PlaceLocal(-1, 0)),
        )
        rep = criterion_decide(K1155, 17, 19, local, (1, 1))
        assert all(c.ok for c in rep.condition_1 + rep.condition_1_prime)
        assert rep.condition_2 == (0, 0, True)
        tame = FinAbGroup((16,), ("k(v1@17)^* tame",))
        assert rep.certificate == HeckeCertificate(
            infinity_type=((SIGMA, 1), (SIGMA_BAR, 1)),
            local_chars=(("v1@17", GroupCharacter(tame, (QmodZ(1, 8),))),),
            conductor=17,
        )

    def test_unequal_infinity_type_with_inert_tame_and_split_wild_parts(self):
        # 13 is inert and 17 split in Q(sqrt(-1155)); type (2, 0) gives
        # xi = -(2 + 0*13) = -2 at v1@13 (modulus 168) and (-2, 0) above 17
        # (modulus 16); a = 5 at v1@13 and 3 at v2@17, which also carries a
        # wild part of order 17: parity sum 8, n_sigma + n_sigmabar = 2
        local = QuadLocalData(
            (PlaceLocal(3, 5),),
            (PlaceLocal(-2, 0), PlaceLocal(3, 3, _wild(17))),
        )
        rep = criterion_decide(K1155, 13, 17, local, (2, 0))
        assert [(c.place, c.lhs, c.rhs, c.modulus) for c in rep.condition_1] == [
            ("v1@13", -2, -2, 168)
        ]
        assert [(c.place, c.lhs, c.rhs, c.modulus) for c in rep.condition_1_prime] == [
            ("v1@17", -2, -2, 16), ("v2@17", 0, 0, 16)
        ]
        assert rep.condition_2 == (0, 0, True)
        inert = FinAbGroup((168,), ("k(v1@13)^* tame",))
        split = FinAbGroup((16, 17), ("k(v2@17)^* tame", "v2@17 wild 0"))
        assert rep.certificate == HeckeCertificate(
            infinity_type=((SIGMA, 2), (SIGMA_BAR, 0)),
            local_chars=(
                ("v1@13", GroupCharacter(inert, (QmodZ(5, 168),))),
                ("v2@17", GroupCharacter(split, (QmodZ(3, 16), QmodZ(1, 17)))),
            ),
            # residue size 13^2 at the inert place, 17^(1 + 1) at the wild one
            conductor=13**2 * 17**2,
        )

    def test_wild_data_validation(self):
        local = QuadLocalData(
            (PlaceLocal(0, 0, _wild(19)), PlaceLocal(0, 0)),
            (PlaceLocal(0, 0), PlaceLocal(0, 0)),
        )
        with pytest.raises(ValueError):
            criterion_decide(K1155, 17, 19, local, (0, 0))

    def test_unramified_twist_invariance(self):
        # the verdict is a function of the stated local data only: re-running
        # with identical data always gives identical reports
        local = QuadLocalData(
            (PlaceLocal(4, 2), PlaceLocal(1, 1)),
            (PlaceLocal(0, 0), PlaceLocal(3, 3)),
        )
        a = criterion_decide(K1155, 17, 19, local, (2, 2))
        b = criterion_decide(K1155, 17, 19, local, (2, 2))
        assert a == b


class TestClassGroup:
    def test_minus_7(self):
        grp = class_group(-7)
        assert grp.h == 1
        assert grp.forms == ((1, 1, 2),)
        assert grp.invariant_factors == ()
        assert grp.exponent == 1

    def test_minus_20(self):
        grp = class_group(-20)
        assert grp.h == 2
        assert set(grp.forms) == {(1, 0, 5), (2, 2, 3)}
        assert grp.invariant_factors == (2,)

    def test_minus_1155(self):
        grp = class_group(-1155)
        assert grp.h == 8
        assert grp.invariant_factors == (2, 2, 2)
        assert grp.exponent == 2

    def test_cyclic_example(self):
        # h(-23) = 3, cyclic
        grp = class_group(-23)
        assert grp.h == 3
        assert grp.invariant_factors == (3,)
        assert grp.exponent == 3

    def test_mixed_structure(self):
        # D = -84: genus theory gives (2, 2); D = -39: h = 4 cyclic
        assert class_group(-84).invariant_factors == (2, 2)
        assert class_group(-39).invariant_factors == (4,)

    def test_composition_group_axioms(self):
        for D in (-1155, -84, -23, -47):
            grp = class_group(D)
            forms = grp.forms
            identity = _principal_form(D)
            assert identity in forms
            table = {
                (f, g): _compose(f, g, D) for f in forms for g in forms
            }
            for f in forms:
                assert table[(f, identity)] == f
            for f in forms:
                for g in forms:
                    assert table[(f, g)] == table[(g, f)]
                    assert table[(f, g)] in forms
            # associativity on a sample
            for f in forms[:3]:
                for g in forms[:3]:
                    for k in forms[:3]:
                        assert _compose(table[(f, g)], k, D) == _compose(
                            f, table[(g, k)], D
                        )
            # every square is in the principal genus: for exponent-2 groups
            # all squares are the identity
            if grp.exponent == 2:
                for f in forms:
                    assert table[(f, f)] == identity

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            class_group(-12)
        with pytest.raises(ValueError):
            class_group(20)
        with pytest.raises(ValueError, match="class-group bound"):
            class_group(-10000019)

    def test_large_cyclic(self):
        grp = class_group(-999983)
        assert grp.h == 1171
        assert grp.invariant_factors == (1171,)
        assert grp.exponent == 1171

    def test_orders_match_step_by_step_composition(self):
        for D in _fundamental_discriminants(3000):
            grp = class_group(D)
            ref = _orders_step_by_step(grp.forms, D)
            assert _orders(grp.forms, D) == ref, D
            assert grp.exponent == math.lcm(*ref.values()), D
            # an abelian group is fixed by its number of solutions of x^m = 1
            # for each m | h, which is prod gcd(m, d) over invariant factors d
            for m in range(1, grp.h + 1):
                if grp.h % m == 0:
                    solutions = sum(1 for e in ref.values() if m % e == 0)
                    expected = math.prod(
                        math.gcd(m, d) for d in grp.invariant_factors
                    )
                    assert solutions == expected, (D, m)

    def test_orders_match_full_walks(self):
        # every fundamental -20000 < D < -4, and a band near -10^6
        fields = _fundamental_discriminants(19999) + [
            D for D in range(-1000000, -1000200, -1) if oracles.is_fundamental(D)
        ]
        for D in fields:
            forms = _reduced_forms(D)
            assert _orders(forms, D) == _orders_full_walk(forms, D), D

    def test_walk_stops_halfway(self, compositions):
        # a walk for an element of order n makes floor((n - 1)/2)
        # compositions, none for an element of order 2, and a field's walks
        # start at the forms no earlier walk reached
        for D in (-1155, -3299, -4027, -255255, -999983):
            forms = class_group(D).forms
            ref = _orders_step_by_step(forms, D) if -D < 3000 else _orders_full_walk(forms, D)
            reached, expected = set(), 0
            for f in forms:
                if f in reached:
                    continue
                compositions.clear()
                reached |= _orders([f], D).keys()
                assert len(compositions) == (ref[f] - 1) // 2, (D, f)
                expected += (ref[f] - 1) // 2
            compositions.clear()
            _orders(forms, D)
            assert len(compositions) == expected, D

    def test_largest_class_number_below_the_bound(self):
        D = -9559679
        grp = class_group(D)
        assert grp.h == 6216 == len(grp.forms) == math.prod(grp.invariant_factors)
        two_rank = sum(1 for d in grp.invariant_factors if d % 2 == 0)
        assert two_rank == len(oracles.prime_factors(-D)) - 1

    def test_invariant_factors_against_torsion_counts(self):
        # the number of f with f^m = 1, found by binary powering without the
        # walks of _orders, is prod gcd(m, d) over the invariant factors d
        for D in _fundamental_discriminants(1999):
            grp = class_group(D)
            identity = _principal_form(D)
            for m in range(1, grp.h + 1):
                if grp.h % m == 0:
                    solutions = sum(1 for f in grp.forms if _power(f, m, D) == identity)
                    expected = math.prod(math.gcd(m, d) for d in grp.invariant_factors)
                    assert solutions == expected, (D, m)

    def test_class_number_formula_and_genus_theory(self):
        # independent of forms: Dirichlet's class number formula, and the
        # 2-rank omega(D) - 1 of genus theory
        primes = oracles.small_primes(5001)
        fields = _fundamental_discriminants(10**4)
        assert len(fields) == 3041
        for D in fields:
            grp = class_group(D)
            assert grp.h == _class_number_formula(D, primes), D
            two_rank = sum(1 for d in grp.invariant_factors if d % 2 == 0)
            assert two_rank == len(oracles.prime_factors(-D)) - 1, D

    def test_high_two_rank(self):
        # D = -3*5*7*11*13*17: six ramified primes give 2-rank 5, where the
        # cyclic subgroups overlap most
        D = -255255
        grp = class_group(D)
        assert grp.h == 256
        assert grp.invariant_factors == (2, 2, 2, 2, 16)
        assert grp.exponent == 16
        assert grp.h == _class_number_formula(D, oracles.small_primes(-D // 2 + 1))
        two_rank = sum(1 for d in grp.invariant_factors if d % 2 == 0)
        assert two_rank == len(oracles.prime_factors(-D)) - 1

    @pytest.mark.parametrize(
        "D",
        [
            -84, -260, -4620, -3896,  # 0 mod 4
            -199, -255255, -95471, -39999,  # 1 mod 8
            -1155, -3299, -4027, -40003,  # 5 mod 8
        ],
    )
    def test_compose_matches_dirichlet_on_every_pair(self, D):
        forms = _scanned_forms(D)
        for f1 in forms:
            for f2 in forms:
                assert _compose(f1, f2, D) == _dirichlet_compose(f1, f2, D), (f1, f2)

    def test_reduced_forms_match_the_scan(self):
        # every discriminant -20000 < D <= -5, fundamental or not, from
        # _reduced_forms, which scans them all, and from the enumeration by
        # the first coefficient
        for D in range(-5, -20000, -1):
            if D % 4 in (0, 1):
                forms = _scanned_forms(D)
                assert _reduced_forms(D) == forms, D
                assert _forms_by_first_coefficient(D) == forms, D

    def test_forms_by_first_coefficient_match_the_scan_on_large_fields(self):
        # 200 consecutive discriminants from -10^5 and from -10^6 down,
        # fundamental or not, and the largest class number below the bound;
        # test_reduced_forms_match_the_scan covers -20000 < D <= -5
        fields = [D for n in (10**5, 10**6) for D in range(-n, -n - 400, -1) if D % 4 in (0, 1)]
        assert len(fields) == 400
        for D in fields + [-9559679]:
            assert _forms_by_first_coefficient(D) == _scanned_forms(D), D

    def test_reduced_forms_take_the_new_path_from_the_crossover(self, monkeypatch):
        crossover = heckequad._BY_FIRST_COEFFICIENT
        below = next(D for D in range(1 - crossover, 0) if D % 4 in (0, 1))
        at = next(D for D in range(-crossover, -crossover - 4, -1) if D % 4 in (0, 1))
        calls = []
        real = heckequad._forms_by_first_coefficient
        monkeypatch.setattr(
            heckequad, "_forms_by_first_coefficient", lambda D: calls.append(D) or real(D)
        )
        assert _reduced_forms(below) == _scanned_forms(below)
        assert calls == []
        assert _reduced_forms(at) == _scanned_forms(at)
        assert calls == [at]

    def test_form_tables_are_built_on_first_use(self):
        # a fresh process: importing heckequad and a field below the
        # crossover build no table, a field past it does
        script = (
            "from heckelift import heckequad as h\n"
            "sizes = [h._form_tables.cache_info().currsize]\n"
            "h.class_group(-1155)\n"
            "sizes.append(h._form_tables.cache_info().currsize)\n"
            "h.class_group(-270363)\n"
            "sizes.append(h._form_tables.cache_info().currsize)\n"
            "print(sizes)\n"
        )
        done = run_python("-c", script)
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "[0, 0, 1]"

    def test_reduction_is_canonical(self):
        # disc(12, 11, 3) = -23: composing with the identity reduces in place
        assert _compose((12, 11, 3), _principal_form(-23), -23) == _reduce_form(
            12, 11, 3
        )


class TestSylowParts:
    """class_group takes the class group one Sylow subgroup at a time: a part
    of prime order needs no composition, a 2-part that genus theory and
    Redei's 4-rank force none either, any other cyclic part one image of
    full order, the whole group too when h is a prime power, and only a
    non-cyclic part left open is walked by _orders."""

    def test_matches_the_histogram_path_on_small_fields(self):
        for D in _fundamental_discriminants(4999):
            assert class_group(D) == _class_group_by_histogram(D), D

    def test_matches_the_histogram_path_on_a_seeded_sample(self):
        rng = random.Random(37)
        fields = []
        while len(fields) < 200:
            D = -rng.randrange(5, 10**6 + 1)
            if oracles.is_fundamental(D):
                fields.append(D)
        for D in fields:
            assert class_group(D) == _class_group_by_histogram(D), D

    def test_trivial_group(self, compositions, walks):
        assert class_group(-7) == _class_group_by_histogram(-7)
        assert compositions == [] and walks == []

    def test_prime_order_parts_need_no_composition(self, compositions, walks):
        # h = 533 = 13 * 41: two parts of prime order
        grp = class_group(-95471)
        assert grp.invariant_factors == (533,) and grp.exponent == 533
        assert compositions == [] and walks == []
        assert grp == _class_group_by_histogram(-95471)

    def test_cyclic_parts_from_one_element_each(self, walks):
        # h = 225 = 9 * 25: the first image other than the identity has full
        # order in both the 3-part and the 5-part
        grp = class_group(-51839)
        assert grp.invariant_factors == (225,)
        assert walks == []
        assert grp == _class_group_by_histogram(-51839)

    def test_cyclic_part_generated_from_an_image_of_lower_order(self, walks):
        # h = 36 = 4 * 9: the first image in the 3-part has order 3; an image
        # outside the subgroup it generates has order 9, and nothing is walked
        grp = class_group(-1055)
        assert grp.invariant_factors == (36,)
        assert walks == []
        assert grp == _class_group_by_histogram(-1055)

    def test_cyclic_part_past_an_image_of_lower_order_costs_no_walk(self, compositions, walks):
        # h = 578 = 2 * 17^2: the first image in the 17-part has order 17;
        # walking all 578 forms takes 296 compositions
        grp = class_group(-267239)
        assert grp.invariant_factors == (578,)
        assert walks == [] and len(compositions) <= 297
        assert grp == _class_group_by_histogram(-267239)

    def test_cyclic_whole_group_tested_not_walked(self, walks):
        # h = 9: the forms are the 3-part, and the first has order 9
        grp = class_group(-199)
        assert grp.invariant_factors == (9,)
        assert walks == []
        assert grp == _class_group_by_histogram(-199)

    def test_cyclic_whole_group_past_forms_of_lower_order_not_walked(self, compositions, walks):
        # h = 625 = 5^4: the first form has order 125, and further forms are
        # tested outside the subgroups built so far until one has order 625;
        # walking the whole group took 385 compositions
        grp = class_group(-234599)
        assert grp.invariant_factors == (625,)
        assert walks == [] and len(compositions) <= 84
        assert grp == _class_group_by_histogram(-234599)

    def test_non_cyclic_whole_group_walked_once_shown_not_cyclic(self, compositions, walks):
        # h = 243 = 3^5: the forms are the 3-part, the first form f other
        # than the identity has f^81 = 1, and so has the first form g
        # outside <f>; g^3 is the first power of g in <f> but does not
        # generate it, so the group is not cyclic, and the forms are walked
        # without generating them
        grp = class_group(-29399)
        assert grp.invariant_factors == (3, 81) and grp.exponent == 81
        assert walks == [243]
        total = len(compositions)
        compositions.clear()
        _orders(grp.forms, -29399)
        # f^81 and g^81 by binary powering, six squarings and two
        # multiplications each; the walk of f, of order 81, 40; g^2 and g^3,
        # 2; and (g^3)^27, four squarings and three multiplications
        assert total == len(compositions) + 8 + 40 + 8 + 2 + 7

    def test_non_cyclic_part_walked_alone(self, walks):
        # h = 36 = 4 * 9: the 3-part is (3, 3), and only its 9 forms are
        # walked; genus theory makes the 2-part cyclic
        grp = class_group(-3896)
        assert grp.invariant_factors == (3, 12) and grp.exponent == 12
        assert walks == [9]
        assert grp == _class_group_by_histogram(-3896)

    def test_two_group_walked_whole(self, walks):
        # 4895 = 5 * 11 * 89: 2-rank 2 and h = 2^6 leave an excess of 4,
        # but the 4-rank is 2, so (4, 16) and (8, 8) stay open
        grp = class_group(-4895)
        assert grp.invariant_factors == (4, 16) and grp.exponent == 16
        assert walks == [grp.h] == [64]
        assert grp == _class_group_by_histogram(-4895)

    @pytest.mark.parametrize(
        "D, two_part, factors",
        [
            # 2-rank 1: the 2-part is cyclic (h = 1868 = 4 * 467)
            pytest.param(-960671, [4], (1868,), id="r2=1"),
            # e = 2-rank: the 2-part is elementary (h = 448 = 2^6 * 7)
            pytest.param(-2042040, [2] * 6, (2, 2, 2, 2, 2, 14), id="e=r2"),
            # 4-rank 1: one factor takes the excess e - r2 = 3 (h = 64)
            pytest.param(-27924, [16, 2, 2], (2, 2, 16), id="r4=1"),
            # 4-rank 2 = e - r2: each factor past 2 is 4 (h = 16)
            pytest.param(-2379, [4, 4], (4, 4), id="r4=e-r2"),
            # 4-rank 2 = e - r2 - 1: one factor past 4, which is 8 (h = 32)
            pytest.param(-5795, [8, 4], (4, 8), id="r4=e-r2-1"),
            # 4-rank 2 = e - r2 - 2: (16, 4) or (8, 8), here (8, 8) (h = 64)
            pytest.param(-25988, None, (8, 8), id="open"),
        ],
    )
    def test_two_part_from_genus_theory_and_redei(self, D, two_part, factors, compositions):
        e = valuation(len(_reduced_forms(D)), 2)
        assert _forced_two_part(D, tuple(oracles.prime_factors(-D)), e) == two_part
        grp = class_group(D)
        assert grp.invariant_factors == factors
        # every odd part here has prime order
        assert (compositions == []) == (two_part is not None)
        assert grp == _class_group_by_histogram(D)

    def test_redei_4_rank_matches_the_walked_two_part(self):
        for D in _fundamental_discriminants(4999):
            factors = _class_group_by_histogram(D).invariant_factors
            r4 = sum(1 for d in factors if d % 4 == 0)
            assert _redei_4_rank(D, oracles.prime_factors(-D)) == r4, D

    def test_compositions_over_small_fields_stay_at_the_measured_count(self, compositions):
        # every fundamental D with 10^3 <= |D| < 5000: 734 compositions, where
        # walking each 2-part instead of taking it from genus theory and the
        # 4-rank made 9,718; the count is exact, whatever the host
        for D in _fundamental_discriminants(4999):
            if D <= -1000:
                class_group(D)
        assert len(compositions) <= 734


@pytest.mark.usefixtures("fresh_memo")
class TestClassGroupMemo:
    def test_repeated_call_returns_the_same_group(self):
        grp = class_group(-1155)
        assert class_group(-1155) is grp
        assert _class_group.cache_info().hits == 1

    def test_counting_bound_after_class_group_enumerates_no_forms(self, monkeypatch):
        calls = []
        real = heckequad._reduced_forms
        monkeypatch.setattr(heckequad, "_reduced_forms", lambda D: calls.append(D) or real(D))
        class_group(-1155)
        assert calls == [-1155]
        counting_bound(K1155, 17, 19)
        assert calls == [-1155]

    def test_class_group_factorises_the_discriminant_once(self, monkeypatch):
        # the primes that prove -1155 fundamental are the ones genus theory
        # reads; the other factorisation is of h = 8
        calls = []
        monkeypatch.setattr(heckequad, "factorize", lambda n: calls.append(n) or factorize(n))
        class_group(-1155)
        assert calls == [1155, 8]

    def test_counting_bound_of_a_new_field_factorises_the_discriminant_once(self, monkeypatch):
        # the primes that ImagQuadField finds are the ones genus theory
        # reads; the other factorisation is of h = 8
        calls = []
        monkeypatch.setattr(heckequad, "factorize", lambda n: calls.append(n) or factorize(n))
        counting_bound(ImagQuadField(-1155), 17, 19)
        assert calls == [1155, 8]

    def test_counting_bound_after_class_group_factorises_nothing(self, monkeypatch):
        # the field was validated when it was built, and the group is memoised
        class_group(-1155)
        calls = []
        monkeypatch.setattr(heckequad, "factorize", lambda n: calls.append(n) or factorize(n))
        counting_bound(K1155, 17, 19)
        assert calls == []

    @pytest.mark.parametrize(
        "D, error, match",
        [
            (-1155.0, TypeError, r"discriminant -1155\.0 is not an integer"),
            (True, ValueError, "must be negative"),
            (-12, ValueError, "not a fundamental discriminant"),
            (-10000019, ValueError, "class-group bound"),
        ],
    )
    def test_bad_input_raises_after_a_valid_field(self, D, error, match):
        class_group(-1155)
        with pytest.raises(error, match=match):
            class_group(D)

    def test_memo_stays_bounded(self):
        fields = _fundamental_discriminants(400)[:100]
        assert len(fields) == 100
        for D in fields:
            class_group(D)
            assert _class_group.cache_info().currsize <= 8
        assert _class_group.cache_info().currsize == 8


class TestCompositionProperties:
    @settings(max_examples=200, deadline=None)
    @given(_form_triples())
    def test_group_law_on_reduced_forms(self, case):
        D, forms, f1, f2, f3 = case
        f12 = _compose(f1, f2, D)
        a, b, c = f12
        assert b * b - 4 * a * c == D
        assert _is_reduced(f12) and f12 in forms
        assert f12 == _compose(f2, f1, D)
        assert _compose(f12, f3, D) == _compose(f1, _compose(f2, f3, D), D)
        # (a, -b, c) is the inverse class: here gcd(a1, a2, s) = a1
        assert _compose(f1, (f1[0], -f1[1], f1[2]), D) == _principal_form(D)
        assert _power(f1, len(forms), D) == _principal_form(D)


class TestCountingBound:
    def test_paper_numbers(self):
        rep = counting_bound(K1155, 17, 19)
        assert rep.alpha == 2 and rep.h == 8
        assert rep.lift_bound == 32 and rep.pair_count == 64
        assert rep.gap_exists
        assert rep.verdict == "non-liftable pair exists"

    def test_trivial_class_group(self):
        # need split primes in Q(sqrt(-7)): kronecker(-7, ell) = 1
        K = ImagQuadField(-7)
        rep = counting_bound(K, 11, 23)
        assert rep.h == 1 and rep.alpha == 1
        assert rep.lift_bound == 1 and rep.pair_count == 1
        assert not rep.gap_exists

    def test_guards(self):
        with pytest.raises(ValueError, match="not split"):
            counting_bound(K1155, 13, 17)
        # h(-1155) = 8: p = 2 is even, pick a field with odd h divisible case:
        # h(-23) = 3 and 3 splits? kronecker(-23, 3) = 1 since -23 = 1 mod 3
        K23 = ImagQuadField(-23)
        with pytest.raises(ValueError, match="divides the class number"):
            counting_bound(K23, 3, 13)
        # the same two refusals on the q side
        with pytest.raises(ValueError, match=r"13 is not split in Q\(sqrt\(-1155\)\)"):
            counting_bound(K1155, 17, 13)
        with pytest.raises(ValueError, match="3 divides the class number 3"):
            counting_bound(K23, 13, 3)
