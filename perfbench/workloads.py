"""The three in-process workloads: seeded inputs, the timed call, and an
independent check of every answer.

A workload is a sequence of rounds.  Every round has the same fixed mix of
operation kinds and input sizes; the seed chooses the concrete inputs
inside each slot.  Runs stop only at round boundaries, so each run does
the same kind of work whatever the seed, and throughput compares across
seeds and commits.

Inputs are built with heckelift itself (reducing a known lift is the
easiest way to get a liftable pair), outside the timed call.  Answers are
checked against the known lift, against a theorem, or against the
arithmetic in oracles.py, never against the code that produced them.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction

from heckelift import abchar, heckeq, heckequad, qseries, serrepq
from heckelift.exactnum import QmodZ

import oracles


@dataclass
class Op:
    kind: str      # which call the op makes
    tag: str       # size class, for the per-size means of the traced run
    args: tuple    # inputs to the call
    expected: object  # what the check compares against


def _fr(x: QmodZ) -> Fraction:
    return Fraction(x.num, x.den)


def _rng(name: str, seed: int, r) -> random.Random:
    return random.Random(f"{name}:{seed}:{r}")


# ---------------------------------------------------------------------------
# characters: the decision pipeline over Q, Artin lifting, local parameters

PRIMES = oracles.small_primes(10010)[1:]  # odd primes 3 .. 10009
# prime sizes of the pipeline slots; the tags name the smallest and largest
PRIME_BUCKETS = ((3, 30, "small"), (30, 300, "mid"), (300, 3000, "mid"), (3000, 10010, "large"))
OUTSIDE_PRIMES = oracles.small_primes(50)[1:]
LOCAL_PRIMES = oracles.small_primes(110)[1:]


def _log_prime(rng: random.Random, lo: int, hi: int, avoid=()) -> int:
    while True:
        x = int(math.exp(rng.uniform(math.log(lo), math.log(hi))))
        cands = [p for p in PRIMES if x <= p < hi and p not in avoid]
        if cands:
            return cands[0]


def _unit_char(rng: random.Random, ell: int, a: int, nontrivial=False):
    grp = abchar.unit_group(ell, a)
    n = grp.orders[0]
    k = rng.randrange(1 if nontrivial else 0, n)
    return abchar.GroupCharacter(grp, (QmodZ(k, n),))


def _pipeline_op(rng: random.Random, bucket, liftable: bool) -> Op:
    lo, hi, tag = bucket
    p = _log_prime(rng, lo, hi)
    q = _log_prime(rng, lo, hi, avoid=(p,))
    alpha = rng.choice((1, 2)) if p < 30 else 1
    beta = rng.choice((1, 2)) if q < 30 else 1
    eps = _unit_char(rng, p, alpha)
    eps_q = _unit_char(rng, q, beta)
    k = rng.randrange(math.lcm(p - 1, q - 1))
    rho, rho_q = heckeq.hecke_reductions(eps, eps_q, k, p, q)
    img = {p: dict(rho.images), q: dict(rho_q.images)}
    mod = {p: rho.modulus, q: rho_q.modulus}
    twist = {}
    outside = [ell for ell in OUTSIDE_PRIMES if ell not in (p, q)]
    for ell in rng.sample(outside, rng.randrange(3)):
        a = rng.choice((1, 2))
        chi = _unit_char(rng, ell, a, nontrivial=True).images[0]
        twist[ell] = (a, chi)
        for r in (p, q):
            img[r][ell] = chi.part_prime_to(r)
            mod[r] *= ell**a
    if liftable:
        expected = (k, _fr(eps.images[0]), _fr(eps_q.images[0]),
                    {ell: _fr(chi) for ell, (_, chi) in twist.items()})
    else:
        # move the part prime to pq: an outside component, or the tame part
        # at p or q by 1/2 where that breaks the 2-part of the congruence
        half = QmodZ(1, 2)
        if twist and rng.random() < 0.5:
            r, ell = p, rng.choice(sorted(twist))
        elif oracles.v2(q - 1) <= oracles.v2(p - 1):
            r, ell = p, q
        else:
            r, ell = q, p
        img[r][ell] = img[r].get(ell, QmodZ(0, 1)) + half
        expected = None
    rho = heckeq.GlobalCharQ.from_images(p, mod[p], img[p])
    rho_q = heckeq.GlobalCharQ.from_images(q, mod[q], img[q])
    return Op("lift_q", tag, (rho, rho_q), expected)


def _random_group(rng: random.Random) -> tuple[int, ...]:
    while True:
        orders = tuple(rng.randrange(2, 61) for _ in range(rng.randrange(1, 4)))
        if math.prod(orders) <= 200:
            return orders


def _artin_op(rng: random.Random, liftable: bool) -> Op:
    orders = _random_group(rng)
    grp = abchar.FinAbGroup(orders)
    divs = sorted({ell for d in orders for ell in oracles.prime_factors(d)})
    p, q = rng.sample(sorted(set(divs) | {2, 3, 5, 7}), 2)
    ks = [rng.randrange(d) for d in orders]
    eps = abchar.GroupCharacter(grp, tuple(QmodZ(k, d) for k, d in zip(ks, orders)))
    other = eps
    expected = tuple(Fraction(k, d) for k, d in zip(ks, orders))
    if not liftable:
        # an element of order r prime to pq on one generator
        spots = [(i, r) for i, d in enumerate(orders)
                 for r in oracles.prime_factors(d) if r not in (p, q)]
        if spots:
            i, r = rng.choice(spots)
            moved = list(eps.images)
            moved[i] = moved[i] + QmodZ(1, r)
            other = abchar.GroupCharacter(grp, tuple(moved))
            expected = None
    return Op("artin", "all", (eps, other, p, q), expected)


def _frob(rng: random.Random) -> serrepq.AlgebraicFrobValue:
    den = rng.choice((1, 2, 3, 4, 6))
    return serrepq.AlgebraicFrobValue(QmodZ(rng.randrange(den), den), rng.randrange(-3, 4))


def _quasi(rng: random.Random, ell: int, ramified: bool) -> serrepq.QuasiChar:
    grp = abchar.unit_group(ell, 1)
    chi = _unit_char(rng, ell, 1) if ramified else abchar.GroupCharacter.trivial(grp)
    return serrepq.QuasiChar(chi, _frob(rng))


def _local_op(rng: random.Random, shape: str, pair=None) -> Op:
    if shape == "obstructed":
        # Remark 2: unipotent mod p against ratio -ell mod q has no common
        # parameter when ell is not +-1 modulo p or q.  Monodromy forces the
        # ratio set {ell, 1/ell}, which meets {-ell, -1/ell} exactly when
        # ell^2 = -1 mod q, so that case is excluded as well.
        while True:
            ell, p, q = rng.sample(LOCAL_PRIMES, 3)
            if (ell % p not in (1, p - 1) and ell % q not in (1, q - 1)
                    and (ell * ell + 1) % q):
                break
        trivial = abchar.ModCharacter(
            abchar.GroupCharacter.trivial(abchar.unit_group(ell, 1)), p)
        zero = serrepq.AlgebraicFrobValue(QmodZ(0, 1), 0)
        datum_p = serrepq.UnipotentRamified(ell, p, trivial, zero)
        datum_q = serrepq.UnramifiedSemisimple(
            ell, q, serrepq.AlgebraicFrobValue(QmodZ(1, 2), 1))
        return Op("local_given", "all", (datum_p, datum_q), None)
    p, q = pair
    ell = rng.choice([ell for ell in LOCAL_PRIMES if ell not in pair])
    if shape == "steinberg":
        param = serrepq.Steinberg(_quasi(rng, ell, True))
    else:
        ramified = shape == "tame"
        param = serrepq.Reducible(_quasi(rng, ell, ramified), _quasi(rng, ell, ramified))
    kind = "steinberg" if shape == "steinberg" else "principal-series"
    return Op("local_reduce", "all", (param, ell, p, q), kind)


class Characters:
    name = "characters"
    period = 1
    # rounds a second at the seed commit (see worker.py): sets the work of a run
    rounds_per_s = 30
    # (kind, size slot, liftable): 16 operations per round
    SLOTS = (
        [("lift_q", b, lift) for b in PRIME_BUCKETS for lift in (True, False)]
        + [("artin", None, lift) for lift in (True, True, False, False)]
        + [("local", None, None)] * 3 + [("obstructed", None, None)]
    )
    LOCAL_SHAPES = ("unramified", "tame", "steinberg")

    def __init__(self, seed: int):
        self.seed = seed
        # local_compat tries up to lcm(p-1, q-1) Frobenius weights, so its
        # cost, which makes the tail of this workload, varies a hundredfold
        # with the inputs.  Drawing them per seed moved p99 by a fifth from
        # seed to seed, so they come from a fixed population of cases, each
        # with its own input stream, which the seed only puts in order
        self.cases = [(s, p, q) for s in self.LOCAL_SHAPES
                      for p in LOCAL_PRIMES for q in LOCAL_PRIMES if p != q]
        _rng(self.name + "-cases", seed, 0).shuffle(self.cases)

    def _op(self, rng, slot, case=None) -> Op:
        kind, arg, lift = slot
        if kind == "lift_q":
            return _pipeline_op(rng, arg, lift)
        if kind == "artin":
            return _artin_op(rng, lift)
        if kind == "obstructed":
            return _local_op(rng, kind, None)
        return _local_op(random.Random(f"local:{case}"), case[0], case[1:])

    def round(self, r: int) -> list[Op]:
        rng = _rng(self.name, self.seed, r)
        cases = iter(self.cases[(3 * r + i) % len(self.cases)] for i in range(3))
        ops = [self._op(rng, slot, next(cases) if slot[0] == "local" else None)
               for slot in self.SLOTS]
        rng.shuffle(ops)
        return ops

    def warmup(self) -> list[Op]:
        rng = _rng(self.name + "-warmup", self.seed, 0)
        ops = [self._op(rng, slot) for slot in self.SLOTS if slot[0] != "local"][::3]
        return ops + [_local_op(rng, s, (3, 5)) for s in self.LOCAL_SHAPES]

    @staticmethod
    def run(op: Op):
        if op.kind == "lift_q":
            rho, rho_q = op.args
            if not heckeq.check_necessary(rho, rho_q).ok:
                return None
            tw = heckeq.twist_to_unramified(rho, rho_q)
            return tw, heckeq.decide_prop_q(tw.twisted, tw.twisted_prime)
        if op.kind == "artin":
            eps, other, p, q = op.args
            return abchar.simultaneous_artin_lift(
                abchar.reduce_mod(eps, p), abchar.reduce_mod(other, q))
        if op.kind == "local_reduce":
            param, ell, p, q = op.args
            return serrepq.local_compat(
                serrepq.wd_reduce(param, ell, p), serrepq.wd_reduce(param, ell, q))
        return serrepq.local_compat(*op.args)

    @staticmethod
    def check(op: Op, got) -> bool:
        if op.kind == "lift_q":
            return _check_lift_q(op, got)
        if op.kind == "artin":
            if op.expected is None:
                return got is None
            return got is not None and tuple(_fr(x) for x in got.images) == op.expected
        if op.kind == "local_reduce":
            return got.compatible and got.witness_kind == op.expected
        return not got.compatible and got.witness is None


def _check_lift_q(op: Op, got) -> bool:
    rho, rho_q = op.args
    p, q = rho.residue_char, rho_q.residue_char
    if op.expected is None:
        return got is None or got[1] is None
    if got is None or got[1] is None:
        return False
    tw, res = got
    k, e_p, e_q, twist = op.expected
    # the finite-order twist is unique, so it is the known one
    if {ell: _fr(chi.images[0]) for ell, chi in tw.eps} != twist:
        return False
    # k is fixed modulo lcm(A_p, B_q) and the known k lies in the class
    modulus = math.lcm(oracles.prime_to(p - 1, q), oracles.prime_to(q - 1, p))
    k0 = res.k_class.residue
    if res.k_class.modulus != modulus or (k - k0) % modulus:
        return False
    # at k0 the local characters are the known ones times theta^(k - k0)
    local = dict(res.certificate.local_chars)
    for ell, e in ((p, e_p), (q, e_q)):
        chi = local.get(str(ell))
        have = _fr(chi.images[0]) if chi is not None else Fraction(0)
        if oracles.frac_mod1(have - e - Fraction(k - k0, ell - 1)):
            return False
    return True


# ---------------------------------------------------------------------------
# class-groups: class groups, the counting bound and the quadratic criterion

CG_CELLS = 8
CG_LO, CG_HI = 1e3, 3e5
GOLDEN = (math.sqrt(5) - 1) / 2


def field_sequence(r: int) -> list[int]:
    """The discriminants of round r, one per log-|D| cell.

    The same for every seed: class_group costs about h^2 compositions and h
    varies by a factor of ten between neighbouring fields, so a seeded
    draw of a few hundred fields changes throughput by a quarter from seed
    to seed.  Fixed fields let runs compare; the seed varies the rest.
    """
    shift = (r * GOLDEN) % 1.0
    out = []
    for c in range(CG_CELLS):
        x = (c + shift) / CG_CELLS
        n = int(CG_LO * (CG_HI / CG_LO) ** x)
        while not oracles.is_fundamental(-n):
            n += 1
        out.append(-n)
    return out


def _split_primes_above(D: int, bound: int, count: int) -> list[int]:
    return [p for p in PRIMES if p > bound and oracles.kronecker(D, p) == 1][:count]


def _quad_local(rng, D: int, p: int, q: int, liftable: bool):
    inf = (rng.randrange(0, 50), rng.randrange(0, 50))
    entries = {}
    for ell, other in ((p, q), (q, p)):
        A = oracles.prime_to(ell - 1, other)
        # split places: xi = -n_sigma at the first place, -n_sigmabar at the second
        entries[ell] = [[rng.randrange(A), -n, A] for n in inf]
    # condition (2): the sum of (k - xi) = sum of a has the parity of n1 + n2
    total = sum(a for ell in (p, q) for a, _, _ in entries[ell])
    if (total - sum(inf)) % 2:
        e = entries[p][0]
        e[0] = (e[0] + 1) % e[2]
    local = {}
    for ell in (p, q):
        local[ell] = [heckequad.PlaceLocal(a + xi, a) for a, xi, _ in entries[ell]]
    if not liftable:
        i = rng.randrange(2)
        local[q][i] = heckequad.PlaceLocal(local[q][i].k + 1, local[q][i].a)
    return heckequad.QuadLocalData(tuple(local[p]), tuple(local[q])), inf


class ClassGroups:
    name = "class-groups"
    # rounds repeat their fields with this period and a run is whole
    # periods: rounds differ in cost, so every run must see the same fields
    period = 8
    rounds_per_s = 1.6

    def __init__(self, seed: int):
        self.seed = seed
        # D -> (h, exponent) from the class_group op, for the later ops on D
        self.group = {}
        self.analytic = {}  # D -> h by the class number formula

    def _field_ops(self, rng, D: int, analytic: bool) -> list[Op]:
        K = heckequad.ImagQuadField(D)
        # primes above the class number bound cannot divide h
        hmax = int(math.sqrt(-D) * (math.log(-D) + 2) / math.pi) + 1
        p, q = rng.sample(_split_primes_above(D, hmax, 6), 2)
        liftable = rng.random() < 0.5
        local, inf = _quad_local(rng, D, p, q, liftable)
        tag = "D1e3" if -D < 1e4 else "D1e4" if -D < 1e5 else "D1e5"
        return [
            Op("class_group", tag, (D,), analytic),
            Op("counting_bound", tag, (K, p, q), None),
            Op("criterion", tag, (K, p, q, local, inf), liftable),
        ]

    def round(self, r: int) -> list[Op]:
        rng = _rng(self.name, self.seed, r)
        fields = field_sequence(r % self.period)
        order = list(range(CG_CELLS))
        rng.shuffle(order)
        # the class number formula is O(|D|): check it on one field a round
        return [op for c in order for op in self._field_ops(rng, fields[c], c == r % CG_CELLS)]

    def warmup(self) -> list[Op]:
        rng = _rng(self.name + "-warmup", self.seed, 0)
        fields = [-n for n in range(100, 1000) if oracles.is_fundamental(-n)]
        return [op for D in rng.sample(fields, 3) for op in self._field_ops(rng, D, True)]

    @staticmethod
    def run(op: Op):
        if op.kind == "class_group":
            return heckequad.class_group(*op.args)
        if op.kind == "counting_bound":
            return heckequad.counting_bound(*op.args)
        K, p, q, local, inf = op.args
        return heckequad.criterion_decide(K, p, q, local, inf)

    def check(self, op: Op, got) -> bool:
        if op.kind == "class_group":
            return self._check_class_group(op, got)
        if op.kind == "counting_bound":
            K, p, q = op.args
            return (self.group.get(K.D) == (got.h, got.alpha)
                    and got.gap_exists == (got.h > got.alpha**2))
        return got.ok == op.expected and (got.certificate is not None) == op.expected

    def _check_class_group(self, op: Op, got) -> bool:
        (D,) = op.args
        f = got.invariant_factors
        ok = (
            math.prod(f) == got.h == len(got.forms)
            and all(b % a == 0 for a, b in zip(f, f[1:]))
            # genus theory: the 2-rank is omega(D) - 1
            and sum(1 for d in f if d % 2 == 0) == len(oracles.prime_factors(-D)) - 1
            and got.exponent == (f[-1] if f else 1)
        )
        if ok and op.expected:
            if D not in self.analytic:
                self.analytic[D] = oracles.analytic_class_number(D)
            ok = got.h == self.analytic[D]
        if ok:
            self.group[D] = (got.h, got.exponent)
        return ok


# ---------------------------------------------------------------------------
# qseries: series multiplication and Bernoulli numbers at precision 32 .. 512

# (op kind, precision): 19 operations per round.  Nine cost under 9 ms
# (eisenstein and hasse, whose cost moves with the seeded weight, and
# delta and the identity at 32), nine over 17 ms, and weight24_example at
# 32 in between: so the median is one op whose input the seed does not
# change, and p90 falls inside delta at 256.
Q_SLOTS = (
    [("delta", n) for n in (32, 64, 96, 128, 256, 512)]
    + [("eisenstein", n) for n in (64, 128, 256, 512)]
    + [("identity", n) for n in (32, 64, 128)]
    + [("hasse", n) for n in (64, 256, 512)]
    + [("weight24", n) for n in (32, 48, 64)]
)
HASSE_PAIRS = [
    (p, q) for p in oracles.small_primes(100)[1:] for q in oracles.small_primes(100)[1:]
    if p < q and math.lcm(p - 1, q - 1) <= 100
]


class QSeries:
    name = "qseries"
    period = 1
    rounds_per_s = 0.5

    def __init__(self, seed: int):
        self.seed = seed

    @staticmethod
    def _op(rng, kind: str, n: int) -> Op:
        if kind == "eisenstein":
            args = (2 * rng.randrange(2, 51), n)
        elif kind == "hasse":
            args = rng.choice(HASSE_PAIRS) + (n,)
        else:
            args = (n,)
        return Op(kind, f"n{n}", args, None)

    def round(self, r: int) -> list[Op]:
        rng = _rng(self.name, self.seed, r)
        ops = [self._op(rng, kind, n) for kind, n in Q_SLOTS]
        rng.shuffle(ops)
        return ops

    def warmup(self) -> list[Op]:
        rng = _rng(self.name + "-warmup", self.seed, 0)
        warm = (("delta", 16), ("eisenstein", 16), ("identity", 16), ("hasse", 16),
                ("weight24", 12))
        return [self._op(rng, kind, n) for kind, n in warm]

    @staticmethod
    def run(op: Op):
        if op.kind == "delta":
            return qseries.delta(*op.args)
        if op.kind == "eisenstein":
            return qseries.eisenstein(*op.args)
        if op.kind == "identity":
            (n,) = op.args
            e4, e6 = qseries.eisenstein(4, n), qseries.eisenstein(6, n)
            return e4 * e4 * e4 - e6 * e6, qseries.delta(n) * 1728
        if op.kind == "hasse":
            return qseries.hasse_invariant_check(*op.args)
        return qseries.weight24_example(*op.args)

    @staticmethod
    def check(op: Op, got) -> bool:
        if op.kind == "delta":
            return _tau_multiplicative(got.coeffs)
        if op.kind == "eisenstein":
            k, n = op.args
            a1 = oracles.eisenstein_a1(k)
            return got[0] == 1 and all(
                got[m] == a1 * oracles.sigma(k - 1, m) for m in (1, 2, 6, n - 1))
        if op.kind == "identity":
            lhs, rhs = got
            return lhs.coeffs == rhs.coeffs and rhs[1] == 1728
        if op.kind == "hasse":
            p, q, _ = op.args
            # every coefficient is a_1 * sigma(n), so the verdict is the test on a_1
            a1 = oracles.eisenstein_a1(math.lcm(p - 1, q - 1))
            ok = a1.numerator % (p * q) == 0 and math.gcd(a1.denominator, p * q) == 1
            return got.ok == ok and got.first_offending == (None if ok else 1)
        alpha = got.alpha
        return got.ok and alpha.a * alpha.a - alpha.b * alpha.b * alpha.disc == -36000


def _tau_multiplicative(tau) -> bool:
    """Ramanujan tau: tau(1) = 1, tau(mn) = tau(m) tau(n) for coprime m, n,
    and tau(p^2) = tau(p)^2 - p^11 for primes p."""
    n = len(tau)
    if tau[0] != 0 or tau[1] != 1 or any(c.denominator != 1 for c in tau):
        return False
    for m in range(2, n):
        for k in range(m + 1, (n - 1) // m + 1):
            if math.gcd(m, k) == 1 and tau[m * k] != tau[m] * tau[k]:
                return False
    return all(tau[p * p] == tau[p] ** 2 - p**11
               for p in oracles.small_primes(math.isqrt(n - 1) + 1))


WORKLOADS = {w.name: w for w in (Characters, ClassGroups, QSeries)}
