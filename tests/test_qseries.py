import ast
import hashlib
import math
import operator
import random
import re
import time
from fractions import Fraction
from functools import reduce
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heckelift import qseries
from heckelift.qseries import (
    PRECISION_BOUND,
    QExpansion,
    QuadElem,
    SplitPrimeIdeal,
    delta,
    eisenstein,
    hasse_invariant_check,
    reduce_series,
    split_roots,
    sturm_congruence,
    _divisor_power_sums,
    _eta_cubed,
    _kron,
    _pack,
    _slot_width,
    _unpack,
    weight24_example,
)
from conftest import oracles


def naive_delta(precision):
    """Independent oracle: multiply the factors (1 - q^n) one at a time and
    then take the 24th power by repeated multiplication."""
    P = [Fraction(1)] + [Fraction(0)] * (precision - 1)
    for n in range(1, precision):
        new = list(P)
        for i in range(precision - n):
            new[i + n] -= P[i]
        P = new
    out = [Fraction(1)] + [Fraction(0)] * (precision - 1)
    for _ in range(24):
        acc = [Fraction(0)] * precision
        for i in range(precision):
            if out[i] == 0:
                continue
            for j in range(precision - i):
                acc[i + j] += out[i] * P[j]
        out = acc
    return [Fraction(0)] + out[: precision - 1]


def pentagonal_delta(precision):
    """Reference construction: eta by Euler's pentagonal number series,
    its 24th power by QExpansion, then the shift by q."""
    eta = [0] * precision
    j = 0
    while True:
        done = True
        for jj in (j, -j) if j else (0,):
            e = jj * (3 * jj - 1) // 2
            if e < precision:
                eta[e] += -1 if jj % 2 else 1
                done = False
        if done:
            break
        j += 1
    eta24 = QExpansion(eta) ** 24
    return QExpansion([0] + list(eta24.coeffs[: precision - 1]), weight=12)


def count_products(monkeypatch):
    """Count every QExpansion product from here on; returns the counter."""
    calls = [0]
    mul = QExpansion.__mul__

    def counted(self, other):
        calls[0] += 1
        return mul(self, other)

    monkeypatch.setattr(QExpansion, "__mul__", counted)
    return calls


def schoolbook(x, y):
    """Independent oracle: the truncated product of two coefficient lists,
    term by term."""
    n = min(len(x), len(y))
    out = [x[0] * 0] * n
    for i in range(n):
        for j in range(n - i):
            out[i + j] = out[i + j] + x[i] * y[j]
    return tuple(out)


# integers from tiny to a few hundred bits, so slot widths vary
ints = st.one_of(
    st.just(0), st.integers(-3, 3), st.integers(-(2**200), 2**200)
)
rationals = st.builds(Fraction, ints, st.integers(1, 60))
rational_lists = st.one_of(
    st.lists(rationals, min_size=1, max_size=24),
    st.lists(ints, min_size=1, max_size=24),
    st.integers(1, 24).map(lambda n: [0] * n),
)


@st.composite
def kron_operands(draw):
    """Two integer lists of one length in 1..70 with mixed signs, whose
    product bound n*max|x|*max|y| lies near 2^7, 2^15, 2^31 or 2^63, where
    the slot width steps, or with entries up to 2^100 in slots far wider."""
    n = draw(st.integers(1, 70))
    top = draw(st.sampled_from([7, 15, 31, 63, None]))
    if top is None:
        mx, my = draw(st.integers(1, 2**100)), draw(st.integers(1, 2**100))
    else:
        mx = draw(st.integers(1, max(1, 2 ** (top // 2) // n)))
        my = max(1, 2**top // (n * mx) + draw(st.integers(-1, 2)))

    def side(m):
        # one coefficient at the extreme, so that max|x| is m
        xs = draw(st.lists(st.integers(-m, m), min_size=n, max_size=n))
        xs[draw(st.integers(0, n - 1))] = draw(st.sampled_from([m, -m]))
        return xs

    return side(mx), side(my)


@st.composite
def low_energy_operands(draw):
    """Two integer lists of one length in 1..150 whose energy sum x_i^2 lies
    far below n*max|x|^2, so that the Cauchy-Schwarz slot is narrower than
    one sized from n*max|x|*max|y|: one huge coefficient among +-1s,
    coefficients growing like a power of the index as a series' do, or the
    sparse eta^3 of Jacobi's identity."""
    n = draw(st.integers(1, 150))

    def side():
        kind = draw(st.sampled_from(["spike", "growth", "eta3"]))
        if kind == "eta3":
            return _eta_cubed(n)
        signs = draw(st.lists(st.sampled_from([-1, 1]), min_size=n, max_size=n))
        if kind == "spike":
            signs[draw(st.integers(0, n - 1))] = draw(st.integers(-(2**70), 2**70))
            return signs
        e, c = draw(st.integers(1, 11)), draw(st.integers(1, 2**20))
        return [s * c * (i + 1) ** e for i, s in enumerate(signs)]

    return side(), side()


@st.composite
def gate_operands(draw):
    """Two integer lists of one length n in 1..600 sized for a slot of 1 to
    24 bytes, so that the packed size n * width falls on either side of
    _kron's two-point gate; or n = 1 or 2 with a coefficient of 9000 bits."""
    kind = draw(st.sampled_from(["below", "above", "huge"]))
    if kind != "huge":
        # one-byte slots reach the gate only past n = 600
        width = draw(st.integers(1 if kind == "below" else 2, 24))
        top = 1 << (8 * width - 2)
        gate = qseries._KS2_BYTES // _slot_width(top)
        low, high = (1, min(gate - 1, 600)) if kind == "below" else (gate, max(gate, 600))
        n = draw(st.integers(low, high))
        m = max(1, math.isqrt(top // n))
    else:
        n, m = draw(st.integers(1, 2)), 1 << 9000

    def side():
        xs = draw(st.lists(st.integers(-m, m), min_size=n, max_size=n))
        xs[draw(st.integers(0, n - 1))] = draw(st.sampled_from([m, -m]))
        return xs

    return side(), side()


class TestKroneckerSubstitution:
    """_kron against the schoolbook product, and the slot codecs alone."""

    @settings(max_examples=300, deadline=None)
    @given(kron_operands())
    def test_against_schoolbook(self, xy):
        x, y = xy
        assert _kron(x, y) == schoolbook(x, y)

    @settings(max_examples=100, deadline=None)
    @given(kron_operands())
    def test_squares(self, xy):
        x = xy[0]
        assert _kron(x, x) == schoolbook(x, list(x))

    @settings(max_examples=150, deadline=None)
    @given(low_energy_operands())
    def test_low_energy_against_schoolbook(self, xy):
        x, y = xy
        assert _kron(x, y) == schoolbook(x, y)
        assert _kron(x, x) == schoolbook(x, list(x))

    @settings(max_examples=150, deadline=None)
    @given(st.one_of(kron_operands(), low_energy_operands(), gate_operands()))
    def test_slot_is_sized_by_cauchy_schwarz(self, xy):
        # sqrt(sum x^2 * sum y^2) for a product, sum x^2 for a square: never
        # wider than the slot n*max|x|*max|y| would give.  Every pack of one
        # product is at that width: one per operand below the two-point
        # gate, and from it on two, its even- and odd-indexed halves
        x, y = xy
        n = len(x)
        ex, ey = sum(a * a for a in x), sum(b * b for b in y)
        with mock.patch.object(qseries, "_pack", wraps=_pack) as pack:
            _kron(x, y)
            _kron(x, x)

        def per_operand(width):
            return [width] * (1 if n * width < qseries._KS2_BYTES else 2)

        wanted = []
        if ex * ey:
            width = _slot_width(math.isqrt(ex * ey))
            wanted += per_operand(width) * 2
            mx, my = max(map(abs, x)), max(map(abs, y))
            assert width <= _slot_width(n * mx * my)
        if ex:
            wanted += per_operand(_slot_width(ex))
        assert [call.args[1] for call in pack.call_args_list] == wanted

    @settings(max_examples=60, deadline=None)
    @given(gate_operands())
    def test_both_sides_of_the_two_point_gate(self, xy):
        # products, squares, and equal lists that are distinct objects, with
        # n * width on either side of the gate; n = 1 or 2 with one huge
        # coefficient leaves the odd half empty or alone
        x, y = xy
        assert _kron(x, y) == schoolbook(x, y)
        assert _kron(x, x) == schoolbook(x, list(x))
        assert _kron(x, list(x)) == schoolbook(x, list(x))

    @pytest.mark.parametrize("n", [1, 2, 70])
    def test_zero_operands(self, n):
        zeros = [0] * n
        assert _kron(zeros, zeros) == (0,) * n
        assert _kron(zeros, [-5] * n) == (0,) * n
        assert _kron([2**70] * n, zeros) == (0,) * n

    def test_slot_widths(self):
        # one bit more than the bound, rounded up to 1, 2, 4 or 8 bytes, and
        # wider slots byte by byte
        for bound, width in [(1, 1), (127, 1), (128, 2), (2**15 - 1, 2), (2**15, 4),
                             (2**31 - 1, 4), (2**31, 8), (2**63 - 1, 8), (2**63, 9),
                             (2**71 - 1, 9), (2**71, 10), (2**127 - 1, 16)]:  # fmt: skip
            assert _slot_width(bound) == width, bound

    @pytest.mark.parametrize("width", range(1, 17))
    def test_pack_unpack_round_trip(self, width):
        half = 1 << (8 * width - 1)
        rng = random.Random(width)
        for n in (1, 2, 3, 70):
            xs = [rng.choice([-half, half - 1, 0, -1, rng.randrange(-half, half)])
                  for _ in range(n)]  # fmt: skip
            packed = _pack(xs, width)
            assert packed == sum(x << (8 * width * i) for i, x in enumerate(xs))
            assert _unpack(packed, n, width) == tuple(xs)
            # slots above the n kept ones, as a full product has, are ignored
            for above in (1, -1, rng.randrange(-(2**200), 2**200)):
                high = above << (8 * width * n)
                assert _unpack(packed + high, n, width) == tuple(xs)


class TestKroneckerProduct:
    @settings(max_examples=200, deadline=None)
    @given(rational_lists, rational_lists)
    def test_rational_against_schoolbook(self, x, y):
        prod = QExpansion(x) * QExpansion(y)
        expect = schoolbook([Fraction(c) for c in x], [Fraction(c) for c in y])
        assert prod.coeffs == expect
        assert prod == QExpansion(expect)

    @settings(max_examples=100, deadline=None)
    @given(rational_lists, st.integers(0, 6))
    def test_power_against_repeated_product(self, x, e):
        series = QExpansion(x, weight=2)
        one = QExpansion([1] + [0] * (len(x) - 1), weight=0)
        expect = reduce(lambda acc, _: acc * series, range(e), one)
        assert series**e == expect
        assert (series**e).coeffs == reduce(
            lambda acc, _: schoolbook(acc, [Fraction(c) for c in x]), range(e), one.coeffs
        )

    def test_slot_width_at_the_bound(self):
        # all terms of one sign make the last coefficient n * m^2 exactly,
        # the Cauchy-Schwarz bound the slot width is sized from
        for m in (1, 127, 128, 255, 256, 2**63 - 1, 2**63):
            for n in (1, 2, 7, 8, 9):
                for sx, sy in ((1, 1), (1, -1), (-1, -1)):
                    x, y = [Fraction(sx * m)] * n, [Fraction(sy * m)] * n
                    prod = QExpansion(x) * QExpansion(y)
                    assert prod.coeffs == schoolbook(x, y)

    def test_square_of_self(self):
        x = QExpansion([3, -1, Fraction(1, 7), 0, -(2**90)])
        assert (x * x).coeffs == schoolbook(x.coeffs, x.coeffs)

    def test_lowest_terms(self):
        series = QExpansion([Fraction(1, 3), Fraction(2, 3)]) * 3
        assert series == QExpansion([1, 2])
        half = QExpansion([Fraction(1, 2), Fraction(3, 3)])
        assert QExpansion([Fraction(2, 4), 1]) == half
        assert QExpansion([0, 0]).scale(Fraction(1, 7)) == QExpansion([0, 0])

    def test_rejects_unsupported_coefficients(self):
        with pytest.raises(TypeError):
            QExpansion([1, 0.5])
        with pytest.raises(ValueError):
            QExpansion([])


class TestQExpansionArithmetic:
    def test_product_truncates(self):
        one_plus = QExpansion([1, 1, 0])
        one_minus = QExpansion([1, -1, 0])
        prod = one_plus * one_minus
        assert prod.coeffs == (Fraction(1), Fraction(0), Fraction(-1))

    def test_identity(self):
        d = delta(16)
        one = QExpansion([1] + [0] * 15, weight=0)
        assert (d * one).coeffs == d.coeffs

    def test_weight_tags_add(self):
        e4 = eisenstein(4, 8)
        assert (e4 * e4).weight == 8
        assert (e4**3).weight == 12
        assert (e4**3)[1] == 720

    def test_sum_undoes_difference(self):
        e4, e6 = eisenstein(4, 12), eisenstein(6, 12)
        assert (e4**3 - e6**2) + e6**2 == e4**3
        # over the lcm of the denominators, to the shorter precision
        halves = QExpansion([Fraction(1, 2), Fraction(1, 3)]) + QExpansion([Fraction(1, 2), 1, 5])
        assert halves.coeffs == (1, Fraction(4, 3))

    def test_sum_and_difference_weight_tags(self):
        # equal weights are kept, a missing one defers to the other and a
        # mismatch leaves the result untagged
        tagged, untagged = QExpansion([1, 2], weight=4), QExpansion([3, 4])
        for op in (operator.add, operator.sub):
            assert op(tagged, QExpansion([0, 1], weight=4)).weight == 4
            assert op(tagged, untagged).weight == 4
            assert op(untagged, tagged).weight == 4
            assert op(untagged, untagged).weight is None
            assert op(tagged, QExpansion([0, 1], weight=6)).weight is None

    def test_slice(self):
        d = delta(8)
        assert d[1:4] == (1, -24, 252)
        assert d[1:4] == d.coeffs[1:4]
        assert all(isinstance(c, Fraction) for c in d[1:4])

    def test_domain_mismatch_rejected(self):
        # coefficients and scalars are rational; quadratic numbers are only
        # ever reduced through a prime
        with pytest.raises(TypeError):
            QExpansion([QuadElem(1, 1, 5), QuadElem(0, 0, 5)])
        with pytest.raises(TypeError):
            QExpansion([Fraction(1), QuadElem(0, 0, 5)])
        rational = QExpansion([1, 2])
        with pytest.raises(TypeError):
            rational.scale(QuadElem(0, 1, 5))
        with pytest.raises(TypeError):
            rational * QuadElem(0, 1, 5)
        with pytest.raises(TypeError):
            0.5 * rational

    def test_power_matches_repeated_product(self):
        e6 = eisenstein(6, 10)
        assert (e6**3).coeffs == (e6 * e6 * e6).coeffs

    def test_first_power_is_the_series(self):
        for series in (
            eisenstein(4, 12),
            QExpansion([Fraction(1, 3), 2, -5]),
            QExpansion([Fraction(-1, 2), 0, Fraction(3, 7)], weight=7),
        ):
            assert series**1 == series
            assert (series**1).weight == series.weight


class TestProductCounts:
    """Binary powering from the leading bit: a square per bit below it and a
    product by the base per set one, never a product by the series 1."""

    def test_delta_takes_three_squarings(self, monkeypatch):
        calls = count_products(monkeypatch)
        for n in (1, 2, 64, 512):
            before = calls[0]
            delta(n)
            assert calls[0] - before == 3

    def test_e4_cubed_takes_two_products(self, monkeypatch):
        e4 = eisenstein(4, 64)
        calls = count_products(monkeypatch)
        assert (e4**3).weight == 12
        assert calls[0] == 2

    def test_power_count(self, monkeypatch):
        series = QExpansion([1, 2, 3])
        calls = count_products(monkeypatch)
        for e in range(40):
            before = calls[0]
            series**e
            want = e.bit_length() + bin(e).count("1") - 2 if e else 0
            assert calls[0] - before == want, e


class TestEisenstein:
    def test_first_coefficients(self):
        assert eisenstein(4, 4)[1] == 240
        assert eisenstein(6, 4)[1] == -504
        assert eisenstein(12, 4)[1] == Fraction(65520, 691)

    def test_constant_term(self):
        for k in (2, 4, 6, 8, 10, 12, 14):
            assert eisenstein(k, 3)[0] == 1

    def test_rejects_odd_weight(self):
        with pytest.raises(ValueError):
            eisenstein(3, 10)

    @pytest.mark.parametrize("precision", [-3, 0])
    def test_rejects_empty_precision(self, precision):
        with pytest.raises(ValueError):
            eisenstein(4, precision)

    def test_every_coefficient_is_a1_times_sigma(self):
        for k in range(2, 101, 2):
            series = eisenstein(k, 200)
            a1 = oracles.eisenstein_a1(k)
            assert series[0] == 1
            for n in range(1, 200):
                assert series[n] == a1 * oracles.sigma(k - 1, n), (k, n)

    def test_denominators_clear_uniformly(self):
        for k in (2, 4, 6, 8, 10, 12, 14, 16):
            series = eisenstein(k, 40)
            factor = oracles.eisenstein_a1(k)
            for n in range(1, 40):
                assert factor.denominator % series[n].denominator == 0


class TestDivisorPowerSums:
    @pytest.mark.parametrize("k", [1, 3, 5, 11, 23, 99])
    def test_against_brute_force(self, k):
        assert _divisor_power_sums(k, 400) == [0] + [oracles.sigma(k, m) for m in range(1, 400)]
        assert _divisor_power_sums(k, 1) == [0]
        assert _divisor_power_sums(k, 2) == [0, 1]


class TestDelta:
    def test_leading_terms(self):
        d = delta(8)
        assert d[0] == 0 and d[1] == 1
        assert d[2] == -24 and d[3] == 252

    def test_against_naive_product_oracle(self):
        got = delta(40)
        expect = naive_delta(40)
        assert list(got.coeffs) == expect

    def test_weight(self):
        assert delta(4).weight == 12

    @pytest.mark.parametrize("precision", [*range(1, 65), 512, 1024, PRECISION_BOUND])
    def test_equals_pentagonal_construction(self, precision):
        # n = 1, 2, 3 hold the first Jacobi terms 1, -3q, 5q^3 of eta^3
        assert delta(precision) == pentagonal_delta(precision)

    @pytest.mark.parametrize("precision", [-3, 0])
    def test_rejects_empty_precision(self, precision):
        with pytest.raises(ValueError):
            delta(precision)

    def test_tau_multiplicative_to_1024(self):
        tau = delta(1024).coeffs
        n = len(tau)
        assert tau[1] == 1 and all(c.denominator == 1 for c in tau)
        for m in range(2, n):
            for k in range(m + 1, (n - 1) // m + 1):
                if math.gcd(m, k) == 1:
                    assert tau[m * k] == tau[m] * tau[k]
        for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31):
            assert tau[p * p] == tau[p] ** 2 - p**11

    def test_numerators_match_their_digests(self):
        # sha256 of the comma-joined numerators, recorded from the one-point
        # Kronecker product: delta on both sides of the two-point gate, and
        # E4^2*E4 and E6*E6 in slots wider than a machine word
        def series(name, n):
            if name == "delta":
                return delta(n)
            e4, e6 = eisenstein(4, n), eisenstein(6, n)
            return e4 * e4 * e4 if name == "E4^2*E4" else e6 * e6

        lines = (Path(__file__).parent / "golden" / "delta_digests.sha256").read_text()
        for line in lines.splitlines():
            name, n, digest = line.split()
            got = series(name, int(n))
            assert got._den == 1
            text = ",".join(map(str, got._a)).encode()
            assert hashlib.sha256(text).hexdigest() == digest, (name, n)


@pytest.mark.parametrize(
    "build",
    [
        lambda n: eisenstein(12, n),
        delta,
        lambda n: hasse_invariant_check(5, 7, n),
        weight24_example,
    ],
    ids=["eisenstein", "delta", "hasse_invariant_check", "weight24_example"],
)
def test_precision_bound(build):
    with pytest.raises(ValueError, match=f"precision bound {PRECISION_BOUND}"):
        build(PRECISION_BOUND + 1)


class TestDiscriminantIdentity:
    def test_e4_cubed_minus_e6_squared(self):
        for prec in (60, 1001):
            e4, e6, d = eisenstein(4, prec), eisenstein(6, prec), delta(prec)
            lhs = e4**3 - e6**2
            rhs = d.scale(1728)
            assert lhs.coeffs == rhs.coeffs
            assert lhs.precision == prec and lhs.weight == 12 and lhs[1] == 1728


class TestSplitPrimeIdeal:
    def test_roots(self):
        assert split_roots(144169, 5) == (2, 3)
        assert split_roots(144169, 7) == (2, 5)
        with pytest.raises(ValueError):
            split_roots(5, 7)  # 5 is not a square mod 7

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from(oracles.small_primes(3000)[1:]), st.integers(-(10**6), 10**6))
    def test_roots_against_the_scan(self, ell, disc):
        # Euler's criterion and Tonelli-Shanks against the scan of every
        # residue that split_roots once made
        roots = sorted(r for r in range(ell) if (r * r - disc) % ell == 0)
        if len(roots) == 2:
            assert split_roots(disc, ell) == tuple(roots)
        else:
            with pytest.raises(ValueError, match=re.escape(f"{ell} is not split in Q(sqrt({disc}))")):
                split_roots(disc, ell)

    @pytest.mark.parametrize("ell, roots", [(1000003, (247387, 752616)), (10000019, None)])
    def test_roots_at_a_large_prime_answer_fast(self, ell, roots):
        # the scan over range(ell) took 1.27 s to refuse the inert 10000019
        start = time.perf_counter()
        if roots is None:
            with pytest.raises(ValueError, match=f"{ell} is not split"):
                split_roots(144169, ell)
        else:
            assert split_roots(144169, ell) == roots
            assert all((r * r - 144169) % ell == 0 for r in roots)
        assert time.perf_counter() - start < 0.1

    def test_reduction_map(self):
        ideal = SplitPrimeIdeal(5, 2, 144169)
        x = QuadElem(Fraction(1, 2), Fraction(3), 144169)
        assert ideal.reduce(x) == (Fraction(1, 2) + 6).numerator * pow(2, -1, 5) % 5

    def test_conjugation_consistency(self):
        rng = random.Random(99)
        ideal = SplitPrimeIdeal(7, 2, 144169)
        conj = ideal.conjugate()
        for _ in range(50):
            a = Fraction(rng.randrange(-50, 50), rng.choice([1, 2, 3, 4]))
            b = Fraction(rng.randrange(-50, 50), rng.choice([1, 2, 3]))
            x, x_conj = QuadElem(a, b, 144169), QuadElem(a, -b, 144169)
            assert ideal.reduce(x) == conj.reduce(x_conj)
            # on rational numbers both primes are reduction mod 7
            residue = a.numerator * pow(a.denominator, -1, 7) % 7
            assert ideal.reduce(a) == conj.reduce(a) == residue

    def test_denominator_guard(self):
        ideal = SplitPrimeIdeal(5, 2, 144169)
        with pytest.raises(ValueError):
            ideal.reduce(QuadElem(Fraction(1, 5), 0, 144169))

    def test_rejects_other_types(self):
        # only int, Fraction and QuadElem: a float or a string is not an
        # exact number of the field
        ideal = SplitPrimeIdeal(7, 2, 144169)
        for value in (0.5, 1.0, "1/2", None):
            with pytest.raises(TypeError):
                ideal.reduce(value)
        assert ideal.reduce(Fraction(1, 2)) == 4
        assert ideal.reduce(-3) == 4


class TestReduceSeries:
    def test_matches_coefficientwise_reduction(self):
        rng = random.Random(7)
        ideal = SplitPrimeIdeal(7, 2, 144169)
        for _ in range(20):
            series = QExpansion(
                [
                    Fraction(rng.randrange(-99, 99), rng.choice([1, 2, 3, 9, 20]))
                    for _ in range(12)
                ]
            )
            expect = tuple(ideal.reduce(series[n]) for n in range(12))
            assert reduce_series(series, ideal, 11) == expect
            assert reduce_series(series, ideal.conjugate(), 11) == expect
            assert reduce_series(series, 7, 11) == expect

    @pytest.mark.parametrize("modulus", [5.7, 4, -7, 0, True])
    def test_refuses_a_modulus_that_is_not_a_prime(self, modulus):
        # a float was truncated, 4 used as a prime, -7 gave negative
        # residues and 0 raised ZeroDivisionError
        with pytest.raises(ValueError, match=re.escape(f"modulus {modulus!r} is neither")):
            reduce_series(delta(12), modulus, 10)

    def test_ell_divides_the_shared_denominator(self):
        # only the coefficients up to the bound need invertible denominators
        series = QExpansion([1, Fraction(1, 5)])
        ideal = SplitPrimeIdeal(5, 2, 144169)
        assert reduce_series(series, 5, 0) == (1,)
        assert reduce_series(series, ideal, 0) == (1,)
        with pytest.raises(ValueError):
            reduce_series(series, 5, 1)
        with pytest.raises(ValueError):
            reduce_series(series, ideal, 1)


# reduce_series and SplitPrimeIdeal.reduce as they were before one residue
# primitive took num and den as ints: the references the new paths must
# agree with, refusals included


def reference_residue(x: Fraction, ell: int) -> int:
    """x modulo ell, for x with denominator prime to ell."""
    if x.denominator % ell == 0:
        raise ValueError(f"denominator not invertible modulo {ell}")
    return x.numerator * pow(x.denominator, -1, ell) % ell


def reference_reduce_series(series, ideal, bound):
    """Coefficients 0..bound modulo ell: by one inverse of the shared
    denominator when ell does not divide it, else coefficient by coefficient
    in Fractions."""
    ell = qseries._ell(ideal)
    nums = series._a[: bound + 1]
    den = series._den
    if den % ell:
        inv = pow(den, -1, ell)
        return tuple(x * inv % ell for x in nums)
    # ell divides the shared denominator, not necessarily each coefficient's
    return tuple(reference_residue(Fraction(x, den), ell) for x in nums)


def reference_reduce(ideal, value):
    """An int, Fraction or QuadElem through ideal, in two cases: part by part
    when a and b are both ell-integral, else as the Fraction a + b*root."""
    if isinstance(value, QuadElem):
        if value.disc != ideal.disc:
            raise ValueError("element from a different field")
        a, b, ell = value.a, value.b, ideal.ell
        if a.denominator % ell and b.denominator % ell:
            return (reference_residue(a, ell) + reference_residue(b, ell) * ideal.root) % ell
        value = a + b * ideal.root
    elif not isinstance(value, (int, Fraction)):
        raise TypeError(f"unsupported value type {type(value)!r}")
    return reference_residue(Fraction(value), ideal.ell)


def outcome(call, *args):
    """What call(*args) returns, or the message of the ValueError it raises."""
    try:
        return call(*args)
    except ValueError as refused:
        return f"ValueError: {refused}"


@st.composite
def ell_rationals(draw, ell: int, top: int):
    """A Fraction over ell^k * u for k in 0..top and u prime to ell, whose
    numerator is a multiple of 1, ell or ell^2: ell-integral or not."""
    num = draw(st.integers(-60, 60)) * draw(st.sampled_from([1, ell, ell * ell]))
    return Fraction(num, ell ** draw(st.integers(0, top)) * draw(st.sampled_from([1, 2, 4, 11])))


class TestOneResiduePrimitive:
    """reduce_series and SplitPrimeIdeal.reduce against the references they
    replaced, at the primes above 3, 5 and 7 in Q(sqrt(144169))."""

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_reduce_series_matches_the_fraction_reference(self, data):
        ell = data.draw(st.sampled_from([3, 5, 7]))
        top = data.draw(st.integers(0, 2))
        series = QExpansion(data.draw(st.lists(ell_rationals(ell, top), min_size=1, max_size=12)))
        disc = qseries.WEIGHT24_DISC
        ideals = [SplitPrimeIdeal(ell, r, disc) for r in split_roots(disc, ell)]
        modulus = data.draw(st.sampled_from([ell, *ideals]))
        # every bound, so both sides of the first coefficient that is not
        # ell-integral
        for bound in range(series.precision):
            got = outcome(reduce_series, series, modulus, bound)
            assert got == outcome(reference_reduce_series, series, modulus, bound)

    @settings(max_examples=400, deadline=None)
    @given(st.data())
    def test_reduce_matches_the_two_case_reference(self, data):
        ell = data.draw(st.sampled_from([3, 5, 7]))
        disc = qseries.WEIGHT24_DISC
        ideal = SplitPrimeIdeal(ell, data.draw(st.sampled_from(split_roots(disc, ell))), disc)
        a, b = data.draw(ell_rationals(ell, 2)), data.draw(ell_rationals(ell, 2))
        for value in (QuadElem(a, b, disc), a, a.numerator):
            assert outcome(ideal.reduce, value) == outcome(reference_reduce, ideal, value)


class TestSturmCongruence:
    def test_reflexive(self):
        d = delta(12)
        rep = sturm_congruence(d, d, 691, 10)
        assert rep.congruent and rep.theoretical_bound == 1

    def test_negative_control(self):
        e4 = eisenstein(4, 12)
        one = QExpansion([1] + [0] * 11, weight=4)
        rep = sturm_congruence(e4, one, 7, 10)
        assert not rep.congruent and rep.first_mismatch == 1

    def test_weight_compatibility_enforced(self):
        d = delta(12)
        e4 = eisenstein(4, 12)
        with pytest.raises(ValueError):
            sturm_congruence(d, e4, 7, 10)  # 12 - 4 = 8 not divisible by 6

    def test_cross_weight_allowed_when_compatible(self):
        # weights 12 and 24 are congruent mod 4 and mod 6
        d = delta(12)
        f = delta(12) * delta(12)
        rep = sturm_congruence(d, f, SplitPrimeIdeal(5, 2, 144169), 10)
        assert rep.theoretical_bound == 2

    def test_precision_guard(self):
        d = delta(8)
        with pytest.raises(ValueError):
            sturm_congruence(d, d, 5, 20)

    def test_refuses_a_negative_bound(self):
        # reduce_series read no coefficient below bound 0, so the two empty
        # reductions agreed and the report said "congruence mod 5 to q^-3: pass"
        with pytest.raises(ValueError, match="bound -3 is negative"):
            sturm_congruence(delta(12), eisenstein(12, 12), 5, -3)
        with pytest.raises(ValueError, match="bound -1 is negative"):
            reduce_series(delta(12), 5, -1)
        assert reduce_series(delta(12), 5, 0) == (0,)

    def test_refuses_a_bound_that_is_not_an_int(self):
        # True was read as 1 and reported "congruence mod 5 to q^True: pass",
        # False was read as 0, and 2.0 raised TypeError from the slice
        with pytest.raises(ValueError, match="bound True is not an int"):
            sturm_congruence(delta(12), delta(12), 5, True)
        for bound in (False, 2.0):
            with pytest.raises(ValueError, match=f"bound {bound} is not an int"):
                reduce_series(delta(12), 5, bound)

    def test_refuses_a_fractional_modulus(self):
        # read as 2, the weights 12 and 4 agreed modulo 1 and the report said
        # "congruence mod 2.5"
        with pytest.raises(ValueError, match=r"modulus 2\.5 is neither"):
            sturm_congruence(delta(12), eisenstein(4, 12), 2.5, 5)


class TestHasseInvariant:
    def test_5_7(self):
        rep = hasse_invariant_check(5, 7, 50)
        assert rep.ok and rep.weight == 12

    def test_3_5(self):
        rep = hasse_invariant_check(3, 5, 50)
        assert rep.ok and rep.weight == 4

    def test_wrong_weight_fails(self):
        rep = hasse_invariant_check(5, 7, 50, weight=14)
        assert not rep.ok and rep.first_offending == 1

    def test_denominator_shares_a_prime(self):
        # E_12 has denominator 691, so it is not 1 mod 5 * 691
        rep = hasse_invariant_check(5, 691, 20, weight=12)
        assert not rep.ok and rep.first_offending == 1

    def test_guards(self):
        with pytest.raises(ValueError):
            hasse_invariant_check(2, 7)
        with pytest.raises(ValueError):
            hasse_invariant_check(5, 5)
        for weight in (0, 13):
            with pytest.raises(ValueError, match="the weight must be even and at least 2"):
                hasse_invariant_check(5, 7, weight=weight)

    def test_rule_agrees_with_series(self):
        # the verdict from divisibility against the coefficients of E_k to q^63
        primes = [ell for ell in range(3, 60) if all(ell % d for d in range(2, ell))]
        for k in range(2, 101, 2):
            coeffs = eisenstein(k, 64).coeffs
            for i, p in enumerate(primes):
                for q in primes[i + 1:]:
                    pq = p * q
                    offending = next(
                        (n for n in range(1, 64)
                         if coeffs[n].numerator % pq or math.gcd(coeffs[n].denominator, pq) > 1),
                        None,
                    )
                    rep = hasse_invariant_check(p, q, 64, weight=k)
                    assert (rep.ok, rep.first_offending) == (offending is None, offending)

    @pytest.mark.parametrize("precision", [-3, 0, 1])
    def test_rejects_vacuous_precision(self, precision):
        with pytest.raises(ValueError):
            hasse_invariant_check(5, 7, precision)


# Q(sqrt(144169)) by hand, for a reference the weight-24 example is checked
# against: a + b*sqrt(D) is the pair (a, b) of Fractions
W24_DISC = 144169


def quad_mul(x, y):
    (a, b), (c, d) = x, y
    return (a * c + b * d * W24_DISC, a * d + b * c)


def quad_residue(x, ell, root):
    """a + b*sqrt(D) modulo ell through the prime where sqrt(D) is root."""
    v = x[0] + x[1] * root
    return v.numerator * pow(v.denominator, -1, ell) % ell


def reference_forms(precision):
    """f = 24*alpha*Delta^2 + E4^3*Delta for alpha = (-13 + sign*sqrt(D))/2,
    coefficientwise over Q(sqrt D), keyed by sign."""
    d = delta(precision)
    d2, base = (d * d).coeffs, (eisenstein(4, precision) ** 3 * d).coeffs
    forms = {}
    for sign in (1, -1):
        alpha = (Fraction(-13, 2), Fraction(sign, 2))
        terms = (quad_mul(alpha, (24 * x, 0)) for x in d2)
        forms[sign] = [(a + y, b) for (a, b), y in zip(terms, base)]
    return forms


def reference_report(forms, precision):
    """What weight24_example must find at this precision, from the reference
    forms: the roots of p7 and p5, the sign alpha carries, the residue rows
    and, per congruence, the first mismatch (None where it holds)."""
    roots = {ell: [r for r in range(ell) if (r * r - W24_DISC) % ell == 0] for ell in (5, 7)}
    dlt = {
        ell: [quad_residue((c, 0), ell, roots[ell][0]) for c in delta(precision).coeffs]
        for ell in (5, 7)
    }

    def row(sign, ell, root):
        return [quad_residue(c, ell, root) for c in forms[sign][:precision]]

    r7 = roots[7][0]
    (sign,) = [s for s in (1, -1) if row(s, 7, r7) == dlt[7]]
    (r5,) = [r for r in roots[5] if row(sign, 5, r) == dlt[5]]
    rows = {
        "Delta mod p5": dlt[5],
        "f mod p5": row(sign, 5, r5),
        "f' mod p5'": row(-sign, 5, 5 - r5),
        "Delta mod p7": dlt[7],
        "f mod p7": row(sign, 7, r7),
        "f' mod p7'": row(-sign, 7, 7 - r7),
    }

    def mismatch(x, y):
        return next((n for n, (u, v) in enumerate(zip(x, y)) if u != v), None)

    congruences = {
        "Delta = f mod p5": mismatch(dlt[5], rows["f mod p5"]),
        "Delta = f mod p7": mismatch(dlt[7], rows["f mod p7"]),
        "Delta = f' mod p5'": mismatch(dlt[5], rows["f' mod p5'"]),
        "Delta = f' mod p7'": mismatch(dlt[7], rows["f' mod p7'"]),
        "f mod p5 = f' mod p5'": mismatch(rows["f mod p5"], rows["f' mod p5'"]),
    }
    return r7, r5, sign, rows, congruences


@pytest.fixture(scope="module")
def report():
    return weight24_example(24)


class TestWeight24Example:

    def test_all_congruences_pass(self, report):
        assert report.ok
        assert len(report.congruences) == 5
        assert all(r.congruent for _, r in report.congruences)

    def test_alpha_product(self, report):
        assert report.alpha_product == Fraction(-36000)
        assert report.alpha_product % 5 == 0
        assert report.alpha_product % 7 != 0

    def test_roots_and_conventions(self, report):
        assert report.p7.root == 2  # smaller root fixed at 7
        assert report.p5.root in (2, 3)
        assert report.q_is_one_mod_5

    def test_labelling_is_determined(self, report):
        # the labelling convention pins alpha: with p7 = (7, root 2) the
        # matching form carries the positive square root
        assert report.alpha.b == Fraction(1, 2)
        assert "+" in report.labelling

    def test_eigenform_multiplicativity(self):
        # independent structural check that the closed formulas give Hecke
        # eigenforms: a(2)a(3) = a(6) and a(4) = a(2)^2 - 2^23 for both forms
        for f in reference_forms(12).values():
            assert f[1] == (1, 0)
            assert quad_mul(f[2], f[3]) == f[6]
            square = quad_mul(f[2], f[2])
            assert f[4] == (square[0] - 2**23, square[1])

    def test_delta_vs_conjugate_form_fails_at_p7(self, report):
        # negative control: Delta matches f, not f', at the chosen prime
        # above 7
        prec = 14
        f_prime = reference_forms(prec)[1 if report.alpha_prime.b > 0 else -1]
        ell, root = report.p7.ell, report.p7.root
        d = [quad_residue((c, 0), ell, root) for c in delta(prec).coeffs]
        assert [quad_residue(c, ell, root) for c in f_prime] != d

    def test_matches_the_quadratic_reference(self):
        # every residue row, verdict, prime and the labelling, against the
        # forms built coefficientwise over Q(sqrt D) and reduced a + b*root
        forms = reference_forms(512)
        for precision in [*range(10, 41), 512]:
            got = weight24_example(precision)
            r7, r5, sign, rows, congruences = reference_report(forms, precision)
            assert (got.p7.root, got.p5.root) == (r7, r5)
            assert got.alpha == QuadElem(Fraction(-13, 2), Fraction(sign, 2), W24_DISC)
            assert got.alpha_prime == QuadElem(Fraction(-13, 2), Fraction(-sign, 2), W24_DISC)
            mark = "+" if sign > 0 else "-"
            assert got.labelling == f"f carries alpha = (-13 {mark} sqrt(144169))/2"
            assert got.residues == tuple((label, tuple(r[:10])) for label, r in rows.items())
            assert [label for label, _ in got.congruences] == list(congruences)
            for label, check in got.congruences:
                assert check.congruent == (congruences[label] is None), label
                assert check.first_mismatch == congruences[label], label
                assert check.bound == precision - 1

    def test_stability_under_precision_increase(self, report):
        for prec in (10, 61):
            again = weight24_example(prec)
            assert again.ok
            assert again.p5.root == report.p5.root
            assert again.labelling == report.labelling

    def test_precision_guard(self):
        with pytest.raises(ValueError):
            weight24_example(8)

    def test_takes_its_products_mod_35_in_narrow_slots(self, monkeypatch):
        products = count_products(monkeypatch)
        widths = []
        pack, kron = qseries._pack, qseries._kron

        def recorded_pack(xs, width):
            widths[-1].append(width)
            return pack(xs, width)

        def recorded_kron(x, y):
            widths.append([])
            return kron(x, y)

        monkeypatch.setattr(qseries, "_pack", recorded_pack)
        monkeypatch.setattr(qseries, "_kron", recorded_kron)
        for precision in (10, 64, PRECISION_BOUND):
            widths.clear()
            weight24_example(precision)
            assert products[0] == 0
            # three squarings to eta^24, then Delta^2, E4^2, E4^3, E4^3*Delta
            assert len(widths) == 7
            assert all(w and max(w) <= 4 for w in widths), (precision, widths)

    def test_reduces_alpha_six_times(self):
        # the p7 labelling and the p5 search give the rows of f; f' is
        # reduced once through each conjugate prime
        reduce = SplitPrimeIdeal.reduce
        with mock.patch.object(SplitPrimeIdeal, "reduce", autospec=True, side_effect=reduce) as calls:
            weight24_example(48)
        assert calls.call_count == 6

    def test_reports_match_their_digests(self):
        # sha256 of repr(weight24_example(n)) as built from the series over Z
        lines = (Path(__file__).parent / "golden" / "weight24_repr.sha256").read_text()
        for line in lines.splitlines():
            _, precision, digest = line.split()
            got = repr(weight24_example(int(precision))).encode()
            assert hashlib.sha256(got).hexdigest() == digest, precision


def owners_of_calls(source: str, wanted) -> list:
    """The innermost function around each call in source that wanted
    accepts, in source order; None for a call outside every function."""
    owners = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call) and wanted(child):
                owners.append(owner)
            visit(child, child.name if isinstance(child, ast.FunctionDef) else owner)

    visit(ast.parse(source), None)
    return owners


def test_qseries_has_one_residue_one_bias_and_one_report_builder():
    # _residue alone inverts modulo ell, pack and unpack share one bias, and
    # _sturm_report alone builds a SturmReport
    source = Path(qseries.__file__).read_text()

    def calls_to(name):
        return owners_of_calls(source, lambda call: ast.unparse(call.func) == name)

    def modular_inverse(call):
        named = ast.unparse(call.func) == "pow" and len(call.args) == 3
        return named and ast.unparse(call.args[1]) == "-1"

    assert owners_of_calls(source, modular_inverse) == ["_residue"]
    assert calls_to("SturmReport") == ["_sturm_report"]
    assert calls_to("_bias") == ["_pack", "_unpack"]
    nodes = list(ast.walk(ast.parse(source)))
    assert "_SIGN" not in {node.id for node in nodes if isinstance(node, ast.Name)}
    assert "_SIGN" not in {node.attr for node in nodes if isinstance(node, ast.Attribute)}
