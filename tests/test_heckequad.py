import math

import pytest
from hypothesis import given, settings, strategies as st

from heckelift import heckequad
from heckelift.abchar import FinAbGroup, GroupCharacter
from heckelift.exactnum import QmodZ, factorize
from heckelift.heckequad import (
    SIGMA,
    SIGMA_BAR,
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
    _orders,
    _principal_form,
    _reduce_form,
    _reduced_forms,
)

from conftest import primes_below, xgcd


K1155 = ImagQuadField(-1155)


def _is_fundamental(D):
    try:
        ImagQuadField(D)
    except ValueError:
        return False
    return True


def _fundamental_discriminants(bound):
    """Every fundamental D with -bound <= D < -4."""
    return [D for D in range(-5, -bound - 1, -1) if _is_fundamental(D)]


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


@pytest.fixture
def fresh_memo():
    """An empty class-group memo, emptied again afterwards, so that no group
    kept by another test hides a computation and none computed under a
    monkeypatch outlives it."""
    _class_group.cache_clear()
    yield
    _class_group.cache_clear()


@pytest.fixture
def compositions(monkeypatch, fresh_memo):
    """The list of discriminants of heckequad._compose calls, one per call."""
    calls = []
    real = heckequad._compose
    monkeypatch.setattr(heckequad, "_compose", lambda f1, f2, D: calls.append(D) or real(f1, f2, D))
    return calls


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


def _kronecker_prime(D, p):
    """(D|p) for a prime p: Euler's criterion, and D mod 8 at p = 2."""
    if D % p == 0:
        return 0
    if p == 2:
        return 1 if D % 8 in (1, 7) else -1
    return 1 if pow(D, (p - 1) // 2, p) == 1 else -1


_SWAP_SIGN = bytes.maketrans(b"\x01\x02", b"\x02\x01")


def _class_number_formula(D, primes):
    """h(D) = (2 - (D|2))^-1 * sum of (D|a) over 0 < a < |D|/2, for a
    fundamental D < -4.

    (D|a) is completely multiplicative in a, so it is built on [0, n] from
    its values at the primes, held as bytes (1 for +1, 2 for -1): a prime
    with (D|p) = -1 swaps the sign on the multiples of each power of p, one
    with (D|p) = 0 zeroes its multiples.  The slices run in C, where a
    symbol per a would be a Python loop over every a."""
    n = (-D - 1) // 2
    chi = bytearray([0]) + bytearray([1]) * n
    for p in primes:
        if p > n:
            break
        s = _kronecker_prime(D, p)
        if s == 0:
            chi[p::p] = bytes(len(range(p, n + 1, p)))
        elif s == -1:
            pk = p
            while pk <= n:
                chi[pk::pk] = chi[pk::pk].translate(_SWAP_SIGN)
                pk *= p
    total, denominator = chi.count(1) - chi.count(2), 2 - _kronecker_prime(D, 2)
    assert total % denominator == 0
    return total // denominator


@st.composite
def _form_triples(draw):
    """A fundamental D with -D <= 10^5 and three of its reduced forms; half
    the time the second's leading coefficient shares a factor with the
    first's, so that pairs with gcd(a1, a2) > 1 are drawn often."""
    D = -draw(st.integers(5, 10**5))
    while not _is_fundamental(D):
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
            D for D in range(-1000000, -1000200, -1) if _is_fundamental(D)
        ]
        for D in fields:
            forms = _reduced_forms(D)
            assert _orders(forms, D) == _orders_full_walk(forms, D), D

    def test_walk_stops_halfway(self, compositions):
        # a walk for an element of order n makes ceil((n - 1)/2) compositions,
        # and a field's walks start at the forms no earlier walk reached
        for D in (-1155, -3299, -4027, -255255, -999983):
            forms = class_group(D).forms
            ref = _orders_step_by_step(forms, D) if -D < 3000 else _orders_full_walk(forms, D)
            reached, expected = set(), 0
            for f in forms:
                if f in reached:
                    continue
                compositions.clear()
                reached |= _orders([f], D).keys()
                assert len(compositions) == ref[f] // 2, (D, f)
                expected += ref[f] // 2
            compositions.clear()
            _orders(forms, D)
            assert len(compositions) == expected, D

    def test_largest_class_number_below_the_bound(self):
        D = -9559679
        grp = class_group(D)
        assert grp.h == 6216 == len(grp.forms) == math.prod(grp.invariant_factors)
        two_rank = sum(1 for d in grp.invariant_factors if d % 2 == 0)
        assert two_rank == len(factorize(-D)) - 1

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
        primes = primes_below(5001)
        fields = _fundamental_discriminants(10**4)
        assert len(fields) == 3041
        for D in fields:
            grp = class_group(D)
            assert grp.h == _class_number_formula(D, primes), D
            two_rank = sum(1 for d in grp.invariant_factors if d % 2 == 0)
            assert two_rank == len(factorize(-D)) - 1, D

    def test_high_two_rank(self):
        # D = -3*5*7*11*13*17: six ramified primes give 2-rank 5, where the
        # cyclic subgroups overlap most
        D = -255255
        grp = class_group(D)
        assert grp.h == 256
        assert grp.invariant_factors == (2, 2, 2, 2, 16)
        assert grp.exponent == 16
        assert grp.h == _class_number_formula(D, primes_below(-D // 2 + 1))
        two_rank = sum(1 for d in grp.invariant_factors if d % 2 == 0)
        assert two_rank == len(factorize(-D)) - 1

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
        # every discriminant -20000 < D <= -5, fundamental or not
        for D in range(-5, -20000, -1):
            if D % 4 in (0, 1):
                assert _reduced_forms(D) == _scanned_forms(D), D

    def test_reduction_is_canonical(self):
        # disc(12, 11, 3) = -23: composing with the identity reduces in place
        assert _compose((12, 11, 3), _principal_form(-23), -23) == _reduce_form(
            12, 11, 3
        )


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
