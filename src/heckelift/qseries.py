"""Exact truncated q-expansions over Q.

A series stores its Fraction coefficients as integer numerators over one
shared denominator and multiplies by Kronecker substitution: the numerator
tuple is packed into one Python int, so a single bigint product does the
O(n^2) work.  The slot is sized by Cauchy-Schwarz: no product coefficient
exceeds sqrt(sum x_i^2 * sum y_j^2).  A slot of up to 8 bytes is rounded
up to a machine word and packed and unpacked by one array conversion, with
no Python work per coefficient; wider slots take the byte path,
int.to_bytes and int.from_bytes per coefficient.  Pack and unpack share one
bias that makes every signed slot nonnegative.  From 1 KB of packed
operand the product is two-point (Harvey, J. Symb. Comp. 44, 2009): two
multiplies on integers half as long, at 2^b and -2^b; below that, a second
pack and unpack cost more than they save.  Ring operations truncate
to the shorter precision and weight tags add under multiplication.  Delta
is q times the eighth power of eta^3, which Jacobi's identity writes as a
sparse series (Hardy & Wright, Thm. 357).

The congruence layer reduces series modulo a rational prime ell and checks
coefficientwise agreement up to a stated bound, recording the theoretical
bound (weight/12 at level one) that would make the truncated check a proof.
One primitive, _residue, reduces every rational modulo ell and refuses one
that is not ell-integral.  Quadratic numbers a + b*sqrt(D) (QuadElem, with
a fixed positive nonsquare D) appear only as scalars: a chosen prime P
above a split odd ell (the root r with r^2 = D picks it) maps one to the
fraction a + b*r mod ell, and on rational series reduction through P is
reduction mod ell.  So the weight-24 eigenforms over Q(sqrt(144169)) are
reduced from series taken mod 35 = 5*7 and their coefficient alpha mod P.
"""

from __future__ import annotations

import math
import operator
import sys
from array import array
from dataclasses import dataclass
from fractions import Fraction

from .exactnum import (
    Record,
    _sqrt_mod,
    bernoulli,
    is_prime,
    kronecker_symbol,
    prime_to_part,
    require_odd_primes,
)

__all__ = [
    "QuadElem",
    "QExpansion",
    "SplitPrimeIdeal",
    "eisenstein",
    "delta",
    "reduce_series",
    "sturm_congruence",
    "hasse_invariant_check",
    "weight24_example",
    "SturmReport",
    "HasseReport",
    "Weight24Report",
    "PRECISION_BOUND",
]

DEFAULT_PRECISION = 64

# largest precision the series constructors and checks accept: at the bound
# weight24_example takes 0.014 s and delta 0.012 s, and weight24_example
# 0.037 s at 8192 and 0.10 s at 16384 (Intel Xeon, Python 3.11.7)
PRECISION_BOUND = 4096


def _check_precision(precision: int, least: int) -> None:
    if type(precision) is not int:
        raise ValueError(f"precision {precision!r} is not an int")
    if precision < least:
        raise ValueError(f"precision must be at least {least}")
    if precision > PRECISION_BOUND:
        raise ValueError(
            f"precision {precision} exceeds the precision bound {PRECISION_BOUND}"
        )


def _check_disc(disc: int) -> None:
    if type(disc) is not int or disc <= 0 or math.isqrt(disc) ** 2 == disc:
        raise ValueError("disc must be a positive nonsquare integer")


def _check_coefficient(c) -> None:
    if isinstance(c, bool):
        raise ValueError(f"coefficient {c!r} is a bool, not an int")
    if not isinstance(c, (int, Fraction)):
        raise TypeError(f"unsupported coefficient type {type(c)!r}")


class QuadElem(Record):
    """a + b*sqrt(disc) with exact rational a, b and fixed positive nonsquare
    disc: a value that a SplitPrimeIdeal reduces, with no arithmetic."""

    __slots__ = ("a", "b", "disc")

    def __init__(self, a: Fraction, b: Fraction, disc: int):
        _check_disc(disc)
        _check_coefficient(a)
        _check_coefficient(b)
        self._store(Fraction(a), Fraction(b), disc)

    def __str__(self) -> str:
        return f"{self.a} + {self.b}*sqrt({self.disc})"


# signed array typecodes by item size: the machine slots, 1, 2, 4 and 8
# bytes; and the machine slot _slot_width gives each bit length below 64
_MACHINE = {array(code).itemsize: code for code in "bhilq"}
_MACHINE_WIDTH = tuple(min(m for m in _MACHINE if m >= (b + 8) // 8) for b in range(64))
# array items are in native byte order; slots are little-endian
_SWAP = sys.byteorder == "big"
_KS2_BYTES = 1024  # packed bytes n * width from which _kron is two-point


def _slot_width(bound: int) -> int:
    """Bytes per slot for coefficients of absolute value at most bound: one
    bit more than its bit length, rounded up to a machine slot if one holds it."""
    bits = bound.bit_length()
    return _MACHINE_WIDTH[bits] if bits < 64 else (bits + 8) // 8


def _bias(n: int, width: int) -> int:
    """h = 2^(8*width - 1) in each of n slots, which _pack and _unpack share."""
    return int.from_bytes((bytes(width - 1) + b"\x80") * n, "little")


def _pack(xs, width: int) -> int:
    """sum xs[i] * 2^(8*width*i) for signed ints xs, in linear time.

    Each slot is written in two's complement: in a machine slot by one array
    conversion, in a wider one by int.to_bytes per coefficient (the byte
    path).  XOR with the bias h flips each top bit, which makes slot i read
    as xs[i] + h >= 0, and one subtraction takes every h back.
    """
    code = _MACHINE.get(width)
    if code is None:
        raw = b"".join(x.to_bytes(width, "little", signed=True) for x in xs)
    else:
        slots = array(code, xs)
        if _SWAP:
            slots.byteswap()
        raw = slots.tobytes()
    bias = _bias(len(raw) // width, width)
    return (int.from_bytes(raw, "little") ^ bias) - bias


def _unpack(value: int, n: int, width: int) -> tuple[int, ...]:
    """The low n slots of value, each known to lie in [-h, h) with
    h = 2^(8*width - 1).

    Adding h to every slot makes them all nonnegative, so the slots
    separate without carries; XOR with h then leaves each slot in two's
    complement, read by one array conversion from machine slots and by
    int.from_bytes per coefficient from wider ones (the byte path).
    """
    size = n * width
    bias = _bias(n, width)
    raw = (((value + bias) & ((1 << 8 * size) - 1)) ^ bias).to_bytes(size, "little")
    code = _MACHINE.get(width)
    if code is None:
        return tuple(
            int.from_bytes(raw[i : i + width], "little", signed=True)
            for i in range(0, size, width)
        )
    slots = array(code, raw)
    if _SWAP:
        slots.byteswap()
    return tuple(slots)


def _kron(x, y) -> tuple[int, ...]:
    """The first n coefficients of the product of two length-n integer
    polynomials, by Kronecker substitution: pack each into one int, do one
    bigint multiply, unpack.  By Cauchy-Schwarz a product coefficient is at
    most sqrt(sum x_i^2 * sum y_j^2) in absolute value, and sum x_i^2 in a
    square; that bound is tight when all terms are equal and never above
    n*max|x|*max|y|.  A slot one bit wider than its bit length holds every
    coefficient with its sign; up to 8 bytes the slot is a machine word, so
    packing and unpacking do no Python work per coefficient.  From
    _KS2_BYTES packed bytes on, the operands are evaluated at 2^b and -2^b,
    b = 4*width bits, from their even- and odd-indexed halves packed apart,
    and the products A and B give the even coefficients in (A + B)/2 and the
    odd ones in (A - B)/2^(b+1) (Harvey, J. Symb. Comp. 44, 2009); below
    that, the second pack and unpack cost more than the halved lengths save."""
    n = len(x)
    # sum(map(mul)) rather than math.sumprod, which needs Python 3.12
    energy = sum(map(operator.mul, x, x))
    bound = energy if y is x else math.isqrt(energy * sum(map(operator.mul, y, y)))
    if not bound:
        return (0,) * n
    width = _slot_width(bound)
    if n * width < _KS2_BYTES:
        px = _pack(x, width)
        py = px if y is x else _pack(y, width)
        return _unpack(px * py, n, width)
    b = 4 * width

    def at_two_points(z):
        even, odd = _pack(z[::2], width), _pack(z[1::2], width) << b
        return even + odd, even - odd

    x_plus, x_minus = at_two_points(x)
    # the same objects for a square, which CPython multiplies faster
    y_plus, y_minus = (x_plus, x_minus) if y is x else at_two_points(y)
    plus, minus = x_plus * y_plus, x_minus * y_minus
    out = [0] * n
    out[::2] = _unpack((plus + minus) >> 1, (n + 1) // 2, width)
    out[1::2] = _unpack((plus - minus) >> b + 1, n // 2, width)
    return tuple(out)


class QExpansion(Record):
    """Truncated power series in q with exact rational coefficients and a
    weight tag.

    The q^n coefficient is _a[n] / _den: integer numerators over one
    positive denominator, in lowest terms (the gcd of _den and every
    numerator is 1), so equal series are stored alike and compare as
    records.  coeffs and series[n] give the coefficients as Fraction
    objects; precision is the number of known coefficients.  The
    operations build through _lowest, which brings numerators over a
    positive denominator to lowest terms.
    """

    __slots__ = ("_a", "_den", "weight")

    def __init__(self, coeffs, weight: int | None = None):
        if weight is not None and type(weight) is not int:
            raise ValueError(f"the weight {weight!r} is neither None nor an int")
        coeffs = tuple(coeffs)
        if not coeffs:
            raise ValueError("a series needs at least one coefficient")
        for c in coeffs:
            _check_coefficient(c)
        den = math.lcm(*(x.denominator for x in coeffs))
        series = self._lowest([x.numerator * (den // x.denominator) for x in coeffs], den, weight)
        self._store(series._a, series._den, weight)

    @classmethod
    def _lowest(cls, a, den: int, weight: int | None) -> "QExpansion":
        """The series with numerators a over den > 0, in lowest terms."""
        if den != 1:
            g = math.gcd(den, *a)
            if g != 1:
                den //= g
                a = [x // g for x in a]
        return cls._make(tuple(a), den, weight)

    @property
    def precision(self) -> int:
        return len(self._a)

    @property
    def coeffs(self) -> tuple:
        """The coefficients as Fraction objects, built on access."""
        den = self._den
        if den == 1:
            return tuple(map(Fraction, self._a))
        return tuple(Fraction(x, den) for x in self._a)

    def __getitem__(self, n):
        if isinstance(n, slice):
            return self.coeffs[n]
        return Fraction(self._a[n], self._den)

    @staticmethod
    def _merge_add_weight(w1, w2):
        if w1 is None:
            return w2
        if w2 is None or w1 == w2:
            return w1
        return None

    def _combine(self, other: "QExpansion", op) -> "QExpansion":
        """self op other for op in (add, sub), over the lcm of the denominators,
        to the shorter precision."""
        den = math.lcm(self._den, other._den)
        s, t = den // self._den, den // other._den
        return self._lowest(
            [op(u * s, v * t) for u, v in zip(self._a, other._a)],
            den,
            self._merge_add_weight(self.weight, other.weight),
        )

    def __add__(self, other: "QExpansion") -> "QExpansion":
        return self._combine(other, operator.add)

    def __sub__(self, other: "QExpansion") -> "QExpansion":
        return self._combine(other, operator.sub)

    def __mul__(self, other):
        if not isinstance(other, QExpansion):
            return self.scale(other)
        n = min(self.precision, other.precision)
        w = None if None in (self.weight, other.weight) else self.weight + other.weight
        a1 = self._a[:n]
        a2 = a1 if other is self else other._a[:n]
        return self._lowest(_kron(a1, a2), self._den * other._den, w)

    def scale(self, c) -> "QExpansion":
        if isinstance(c, bool):
            raise ValueError(f"scalar {c!r} is a bool, not an int")
        if not isinstance(c, (int, Fraction)):
            raise TypeError(f"unsupported scalar type {type(c)!r}")
        c = Fraction(c)
        num = c.numerator
        return self._lowest([num * x for x in self._a], self._den * c.denominator, self.weight)

    __rmul__ = __mul__

    def __pow__(self, e: int) -> "QExpansion":
        if type(e) is not int:
            raise ValueError(f"exponent {e!r} is not an int")
        if e < 0:
            raise ValueError("negative powers are not supported")
        if e == 0:
            n, w = self.precision, None if self.weight is None else 0
            return self._lowest((1,) + (0,) * (n - 1), 1, w)
        # from the leading bit down, so that the series 1 is never a factor
        out = self
        for bit in bin(e)[3:]:
            out = out * out
            if bit == "1":
                out = out * self
        return out

    def __repr__(self) -> str:
        head = ", ".join(str(self[n]) for n in range(min(4, self.precision)))
        return f"QExpansion([{head}, ...], precision={self.precision}, weight={self.weight})"


def _divisor_power_sums(k: int, precision: int) -> list[int]:
    """sigma_k(n) for 0 <= n < precision (0 at 0) by a least-prime-factor sieve:
    n = p*m, p least, has sigma_k(n) = (1 + p^k) sigma_k(m) - [p | m] p^k sigma_k(m/p)."""
    least = list(range(precision))
    # downwards, so that the least prime dividing n writes least[n] last
    for p in range(math.isqrt(precision - 1), 1, -1):
        least[p * p :: p] = [p] * len(range(p * p, precision, p))
    sums, pk = [0, 1], [0] * precision
    for n in range(2, precision):
        p, m = least[n], n // least[n]
        if p == n:
            pk[p] = p**k
        below = pk[p] * sums[m // p] if least[m] == p else 0
        sums.append((1 + pk[p]) * sums[m] - below)
    return sums[:precision]


def eisenstein(k: int, precision: int = DEFAULT_PRECISION) -> QExpansion:
    """The normalised weight-k Eisenstein series
    1 - (2k/B_k) * sum sigma_{k-1}(n) q^n, with exact rational coefficients."""
    if k % 2 or k < 2:
        raise ValueError("the weight must be even and at least 2")
    _check_precision(precision, 1)
    factor = Fraction(-2 * k) / bernoulli(k)
    num, den = factor.numerator, factor.denominator
    sums = _divisor_power_sums(k - 1, precision)
    return QExpansion._lowest([den] + [num * s for s in sums[1:]], den, k)


def _eta_cubed(precision: int) -> list[int]:
    """prod (1 - q^n)^3 to the precision by Jacobi's identity,
    sum_k (-1)^k (2k+1) q^(k(k+1)/2) (Hardy & Wright, Thm. 357)."""
    eta3 = [0] * precision
    for k in range(math.isqrt(2 * precision) + 1):
        if k * (k + 1) // 2 < precision:
            eta3[k * (k + 1) // 2] = (-1) ** k * (2 * k + 1)
    return eta3


def delta(precision: int = DEFAULT_PRECISION) -> QExpansion:
    """The discriminant cusp form q * prod (1 - q^n)^24 (weight 12): q times
    eta^3 to the eighth power, three squarings."""
    _check_precision(precision, 1)
    eta24 = QExpansion._lowest(_eta_cubed(precision), 1, None) ** 8
    return QExpansion._lowest((0,) + eta24._a[: precision - 1], eta24._den, 12)


class SplitPrimeIdeal(Record):
    """One of the two primes above an odd ell split in Q(sqrt(disc)): the
    root r with r^2 = disc mod ell selects the reduction sqrt(disc) -> r.
    A root that is not an int, a disc that is not a positive nonsquare int,
    ell = 2 and an ell dividing disc raise ValueError."""

    __slots__ = ("ell", "root", "disc")

    def __init__(self, ell: int, root: int, disc: int):
        if not is_prime(ell):
            raise ValueError(f"{ell} is not prime")
        if type(root) is not int:
            raise ValueError(f"root {root!r} is not an int")
        if not 0 <= root < ell:
            raise ValueError("root must be reduced modulo ell")
        _check_disc(disc)
        if (root * root - disc) % ell:
            raise ValueError(f"{root}^2 is not {disc} modulo {ell}")
        if ell == 2:
            raise ValueError("ell must be an odd prime")
        if disc % ell == 0:
            raise ValueError(f"{ell} is ramified in Q(sqrt({disc}))")
        self._store(ell, root, disc)

    def conjugate(self) -> "SplitPrimeIdeal":
        return SplitPrimeIdeal(self.ell, (-self.root) % self.ell, self.disc)

    def reduce(self, value) -> int:
        """An int, Fraction or QuadElem through this prime: a + b*sqrt(disc)
        goes to a + b*root modulo ell, taken as one fraction of ints."""
        if isinstance(value, QuadElem):
            if value.disc != self.disc:
                raise ValueError("element from a different field")
            a, b = value.a, value.b
        elif isinstance(value, (int, Fraction)):
            a, b = value, 0
        else:
            raise TypeError(f"unsupported value type {type(value)!r}")
        num = a.numerator * b.denominator + b.numerator * self.root * a.denominator
        return _residue(num, a.denominator * b.denominator, self.ell)

    def __str__(self) -> str:
        return f"({self.ell}, sqrt({self.disc}) - {self.root})"


def split_roots(disc: int, ell: int) -> tuple[int, int]:
    """The two square roots of disc modulo a split odd prime ell, ascending:
    ell splits when disc is a nonzero square mod ell (Euler's criterion), and
    a root is found by Tonelli-Shanks.  An ell that is not an odd prime
    raises ValueError."""
    if kronecker_symbol(disc, ell) != 1:
        raise ValueError(f"{ell} is not split in Q(sqrt({disc}))")
    root = _sqrt_mod(disc, ell)
    return min(root, ell - root), max(root, ell - root)


def _residue(num: int, den: int, ell: int) -> int:
    """num/den modulo the prime ell, for ints num and den > 0: the ell-part
    q of den must divide num, and (num/q) / (den/q) is reduced."""
    q = den // prime_to_part(den, ell)
    if num % q:
        raise ValueError(f"denominator not invertible modulo {ell}")
    return num // q * pow(den // q, -1, ell) % ell


def _ell(modulus) -> int:
    """The rational prime of a SplitPrimeIdeal, or a prime int given as is;
    a float, a bool, a composite or a negative modulus raises ValueError."""
    if isinstance(modulus, SplitPrimeIdeal):
        return modulus.ell
    if not (isinstance(modulus, int) and is_prime(modulus)):
        raise ValueError(f"modulus {modulus!r} is neither a prime nor a SplitPrimeIdeal")
    return modulus


def reduce_series(series: QExpansion, ideal, bound: int) -> tuple[int, ...]:
    """Coefficients 0..bound reduced modulo a rational prime ell, or through
    a SplitPrimeIdeal above ell, which on rational coefficients is the same.
    A bound that is not an int, a bool among them, raises ValueError."""
    if type(bound) is not int:
        raise ValueError(f"bound {bound!r} is not an int")
    if bound < 0:
        raise ValueError(f"bound {bound} is negative")
    if bound >= series.precision:
        raise ValueError(f"series precision {series.precision} is below the bound {bound}")
    ell = _ell(ideal)
    nums = series._a[: bound + 1]
    den = series._den
    # g/den is ell-integral exactly when every x/den is, and x/den = (x/g) * (g/den)
    g = math.gcd(den, *nums)
    unit = _residue(g, den, ell)
    return tuple(x // g * unit % ell for x in nums)


class SturmReport(Record):
    """Whether two series agree through a modulus up to q^bound, the first
    index where they do not (None if none), the level-one proof bound if
    the weights give one, and the modulus as text."""

    __slots__ = ("congruent", "first_mismatch", "bound", "theoretical_bound", "modulus")

    def __str__(self) -> str:
        status = "pass" if self.congruent else f"fail at q^{self.first_mismatch}"
        proof = self.theoretical_bound
        extra = "" if proof is None else f"; level-1 proof bound {proof}"
        return f"congruence mod {self.modulus} to q^{self.bound}: {status}{extra}"


def sturm_congruence(f: QExpansion, g: QExpansion, ideal, bound: int) -> SturmReport:
    """Coefficientwise congruence of two series up to the bound, modulo a
    rational prime or a chosen split prime.

    Weight tags, when both are present, must agree modulo ell - 1 (the
    congruence-compatible weights); the recorded theoretical bound is
    max(weight)/12, the level-one index beyond which agreement of the
    truncations proves congruence of the forms.
    """
    theoretical = _theoretical_bound(f.weight, g.weight, ideal)
    rf, rg = reduce_series(f, ideal, bound), reduce_series(g, ideal, bound)
    return _sturm_report(rf, rg, ideal, bound, theoretical)


def _theoretical_bound(wf: int | None, wg: int | None, ideal) -> int | None:
    """max(wf, wg)/12 when both weights are given, after checking that they
    agree modulo ell - 1; None otherwise."""
    if wf is None or wg is None:
        return None
    ell = _ell(ideal)
    if (wf - wg) % (ell - 1):
        raise ValueError(f"weights {wf}, {wg} are incompatible modulo {ell - 1}")
    return max(wf, wg) // 12


def _sturm_report(rf, rg, modulus, bound: int, theoretical: int | None) -> SturmReport:
    """The report on two series whose reductions through a modulus, an ideal
    or its text, to q^bound are rf and rg."""
    mismatch = None if rf == rg else next(n for n, (x, y) in enumerate(zip(rf, rg)) if x != y)
    return SturmReport(
        congruent=mismatch is None,
        first_mismatch=mismatch,
        bound=bound,
        theoretical_bound=theoretical,
        modulus=str(modulus),
    )


@dataclass(frozen=True)
class HasseReport:
    p: int
    q: int
    weight: int
    precision: int
    ok: bool
    first_offending: int | None

    def __str__(self) -> str:
        if self.ok:
            return (
                f"E_{self.weight} = 1 mod {self.p * self.q} "
                f"to q^{self.precision - 1}: pass"
            )
        return (
            f"E_{self.weight} = 1 mod {self.p * self.q}: "
            f"fails at q^{self.first_offending}"
        )


def hasse_invariant_check(
    p: int, q: int, precision: int = DEFAULT_PRECISION, weight: int | None = None
) -> HasseReport:
    """Decide whether the Eisenstein series of weight lcm(p-1, q-1) is 1
    modulo p*q to the given precision: every higher coefficient has
    numerator divisible by p*q and denominator prime to p*q.

    A different weight may be supplied as a negative control.  The verdict
    is a theorem: for an odd prime ell and even k >= 2, E_k = 1 mod ell
    exactly when (ell-1) | k (Serre and Swinnerton-Dyer, LNM 350).  If so,
    von Staudt-Clausen puts ell in the denominator of B_k, so ell divides
    a_1 = -2k/B_k and every a_n = a_1 * sigma_{k-1}(n); if not, B_k/k is
    ell-integral (Kummer), so a_1 is not 0 mod ell.  So the check passes
    exactly when lcm(p-1, q-1) divides the weight, and else fails at q^1.
    """
    require_odd_primes(p, q)
    lcm = math.lcm(p - 1, q - 1)
    if weight is None:
        weight = lcm
    _check_precision(precision, 2)
    if type(weight) is not int:
        raise ValueError(f"the weight {weight!r} is not an int")
    if weight % 2 or weight < 2:
        raise ValueError("the weight must be even and at least 2")
    ok = weight % lcm == 0
    return HasseReport(p, q, weight, precision, ok, None if ok else 1)


class Weight24Report(Record):
    """What weight24_example found: the eigenvalue alpha of f and alpha' of
    f', the primes p5 and p7 fixing the labelling, the named congruences
    and residue rows, whether E4 = 1 mod 5 to the precision, and
    alpha * alpha'."""

    __slots__ = (
        "disc", "precision", "alpha", "alpha_prime", "p5", "p7", "labelling",
        "congruences", "q_is_one_mod_5", "alpha_product", "residues",
    )

    @property
    def ok(self) -> bool:
        return self.q_is_one_mod_5 and all(r.congruent for _, r in self.congruences)


WEIGHT24_DISC = 144169
_RESIDUE = {ell: bytes(b % ell for b in range(256)) for ell in (5, 7)}  # bytes mod ell


def weight24_example(precision: int = DEFAULT_PRECISION) -> Weight24Report:
    """The two level-one weight-24 eigenforms against the discriminant form.

    f = 24*alpha*Delta^2 + E4^3*Delta and its conjugate f' have coefficients
    in Q(sqrt(144169)), but through a prime P above ell = 5 or 7, f reduces
    to 24*(alpha mod P)*(Delta^2 mod ell) + (E4^3*Delta mod ell).  So Delta,
    Delta^2 and E4^3*Delta are made mod 35 = 5*7, each product reduced as it
    is taken, and cut into byte rows mod 5 and 7; only alpha is reduced
    through P.  Fixes the prime above 7 with the smaller root, labels f by
    the congruence Delta = f at that prime, and verifies the congruence
    suite at both primes above 5 and 7.  The prime above 5 written p5 is the
    one compatible with the labelling (the choice is forced by requiring
    Delta = f mod p5); f and f' are congruent mod 5 through the matched pair
    of conjugate primes.  Raises if any asserted congruence breaks.
    """
    _check_precision(precision, 10)
    D = WEIGHT24_DISC
    bound = precision - 1

    def mul(x, y):
        # residues in [0, 35) keep each slot within 4 bytes to PRECISION_BOUND
        return tuple(c % 35 for c in _kron(x, y))

    eta = _eta_cubed(precision)
    for _ in range(3):
        eta = mul(eta, eta)
    dlt = (0,) + eta[:bound]
    # E4 = 1 + 240 * sum sigma_3(n) q^n has integer coefficients, over 1
    e4 = tuple(x % 35 for x in eisenstein(4, precision)._a)
    d2, base = mul(dlt, dlt), mul(mul(mul(e4, e4), e4), dlt)
    # rows mod 5 and mod 7 as bytes, one residue per byte
    dlt_mod, d2_mod, base_mod, e4_mod = (
        {ell: bytes(series).translate(_RESIDUE[ell]) for ell in (5, 7)}
        for series in (dlt, d2, base, e4)
    )

    def reduced(alpha: QuadElem, ideal: SplitPrimeIdeal) -> bytes:
        """24*alpha*Delta^2 + E4^3*Delta reduced through ideal to q^bound: one
        multiply-add over byte slots, each at most 6*6 + 6, so none carries."""
        ell = ideal.ell
        c = 24 * ideal.reduce(alpha) % ell
        row = c * int.from_bytes(d2_mod[ell], "little") + int.from_bytes(base_mod[ell], "little")
        return row.to_bytes(precision, "little").translate(_RESIDUE[ell])

    half = Fraction(1, 2)
    alpha_plus = QuadElem(-13 * half, half, D)
    alpha_minus = QuadElem(-13 * half, -half, D)
    p7 = SplitPrimeIdeal(7, split_roots(D, 7)[0], D)

    plus_row, minus_row = reduced(alpha_plus, p7), reduced(alpha_minus, p7)
    plus_matches, minus_matches = plus_row == dlt_mod[7], minus_row == dlt_mod[7]
    if plus_matches == minus_matches:
        raise AssertionError("exactly one weight-24 form must match Delta mod p7")
    if plus_matches:
        alpha, alpha_prime, f7 = alpha_plus, alpha_minus, plus_row
        labelling = "f carries alpha = (-13 + sqrt(144169))/2"
    else:
        alpha, alpha_prime, f7 = alpha_minus, alpha_plus, minus_row
        labelling = "f carries alpha = (-13 - sqrt(144169))/2"
    p7_conj = p7.conjugate()

    candidates = [SplitPrimeIdeal(5, r, D) for r in split_roots(D, 5)]
    f5_rows = [(ideal, reduced(alpha, ideal)) for ideal in candidates]
    matching = [(ideal, row) for ideal, row in f5_rows if row == dlt_mod[5]]
    if len(matching) != 1:
        raise AssertionError("exactly one prime above 5 must satisfy Delta = f")
    ((p5, f5),) = matching
    p5_conj = p5.conjugate()

    # Delta's row is the same through both primes above ell
    rows = {
        "Delta mod p5": dlt_mod[5],
        "f mod p5": f5,
        "f' mod p5'": reduced(alpha_prime, p5_conj),
        "Delta mod p7": dlt_mod[7],
        "f mod p7": f7,
        "f' mod p7'": reduced(alpha_prime, p7_conj),
    }

    def delta_congruence(row: str, ideal: SplitPrimeIdeal) -> SturmReport:
        # Delta has weight 12; f and f', like Delta^2 and E4^3*Delta, 24
        theoretical = _theoretical_bound(12, 24, ideal)
        return _sturm_report(dlt_mod[ideal.ell], rows[row], ideal, bound, theoretical)

    congruences = (
        ("Delta = f mod p5", delta_congruence("f mod p5", p5)),
        ("Delta = f mod p7", delta_congruence("f mod p7", p7)),
        ("Delta = f' mod p5'", delta_congruence("f' mod p5'", p5_conj)),
        ("Delta = f' mod p7'", delta_congruence("f' mod p7'", p7_conj)),
        (
            # f and f' are congruent mod 5 through the matched conjugate pair
            # of primes: both reduce to Delta
            "f mod p5 = f' mod p5'",
            _sturm_report(f5, rows["f' mod p5'"], f"{p5} paired with {p5_conj}", bound, 2),
        ),
    )

    q_is_one = e4_mod[5] == b"\x01" + bytes(bound)

    alpha_product = alpha.a * alpha.a - alpha.b * alpha.b * D

    report = Weight24Report(
        disc=D,
        precision=precision,
        alpha=alpha,
        alpha_prime=alpha_prime,
        p5=p5,
        p7=p7,
        labelling=labelling,
        congruences=congruences,
        q_is_one_mod_5=q_is_one,
        alpha_product=alpha_product,
        # precision >= 10, so each row is the first ten residues
        residues=tuple((label, tuple(row[:10])) for label, row in rows.items()),
    )
    if not report.ok:
        broken = [name for name, r in congruences if not r.congruent]
        raise AssertionError(f"asserted congruences failed: {broken}")
    if alpha_product != Fraction(-36000):
        raise AssertionError(f"alpha * alpha' = {alpha_product}, expected -36000")
    return report
