"""Every refusal the library states, called in process.

Each case feeds one public function or constructor an input that its code
refuses, and checks the exception type and a fragment of the message.  The
CLI's schema keeps these inputs from the library, so only direct callers,
such as the demos and the benchmark, can meet them.  A refusal whose
input once sent the code into an endless loop runs in a fresh process
under a timeout.
"""

import re
import subprocess
from fractions import Fraction

import pytest

from heckelift.abchar import (
    FinAbGroup,
    GroupCharacter,
    ModCharacter,
    reduce_mod,
    simultaneous_artin_lift,
    unit_group,
)
from heckelift.exactnum import (
    Congruence,
    QmodZ,
    factorize,
    kronecker_symbol,
    prime_to_part,
    primitive_root,
    valuation,
    weight_crt,
)
from heckelift.heckeq import (
    GlobalCharQ,
    LocalInvariantsQ,
    brute_force_oracle_q,
    extract_invariants,
    theta_power,
)
from heckelift.heckequad import ImagQuadField, PlaceLocal, QuadLocalData, criterion_decide
from heckelift.qseries import (
    QExpansion,
    QuadElem,
    SplitPrimeIdeal,
    delta,
    eisenstein,
    hasse_invariant_check,
    split_roots,
    sturm_congruence,
    weight24_example,
)
from heckelift.serrepq import (
    AlgebraicFrobValue,
    QuasiChar,
    Steinberg,
    UnramifiedSemisimple,
    local_compat,
    remark2_check,
    wd_reduce,
)
from conftest import run_python


def order_five_mod_five():
    return ModCharacter(GroupCharacter(FinAbGroup((5,)), (QmodZ(1, 5),)), 5)


def one_residue_characteristic():
    trivial = GroupCharacter.trivial(FinAbGroup((6,)))
    return simultaneous_artin_lift(ModCharacter(trivial, 5), ModCharacter(trivial, 5))


def invariants(**wrong):
    """The invariants of (theta mod 5, theta mod 7) with fields replaced."""
    inv = extract_invariants(theta_power(5, 1), theta_power(7, 1))
    return LocalInvariantsQ(**{**{f: getattr(inv, f) for f in inv.__slots__}, **wrong})


def tame_exponent_out_of_range():
    # the places above 17 in Q(sqrt(-1155)) split, with tame moduli 16
    above_p = (PlaceLocal(0, 16), PlaceLocal(0, 0))
    local = QuadLocalData(above_p, (PlaceLocal(0, 0),) * 2)
    return criterion_decide(ImagQuadField(-1155), 17, 19, local, (0, 0))


def steinberg_at_3():
    trivial = GroupCharacter.trivial(unit_group(3, 1))
    return Steinberg(QuasiChar(trivial, AlgebraicFrobValue(QmodZ(0, 1), 0)))


ONE = AlgebraicFrobValue(QmodZ(0, 1), 0)


def unramified_pair(ell, ratio=ONE):
    """local_compat of unramified data at ell, mod 5 with this ratio and mod 7 with 1."""
    return local_compat(UnramifiedSemisimple(ell, 5, ratio), UnramifiedSemisimple(ell, 7, ONE))


REFUSALS = [
    # abchar
    (lambda: FinAbGroup((1,)), ValueError, "cyclic factor orders must be ints >= 2"),
    (lambda: FinAbGroup((2,), ("a", "b")), ValueError, "one label per generator"),
    (lambda: GroupCharacter(FinAbGroup((2,)), ()), ValueError, "one image per generator"),
    # an int image raised AttributeError: 'int' object has no attribute 'den'
    (lambda: GroupCharacter(FinAbGroup((4,)), (1,)), TypeError, "image 1 has type int, not QmodZ"),
    (
        lambda: GroupCharacter.trivial(FinAbGroup((2,))) * GroupCharacter.trivial(FinAbGroup((3,))),
        ValueError,
        "characters live on different groups",
    ),
    (lambda: ModCharacter(GroupCharacter.trivial(FinAbGroup((2,))), 4), ValueError, "4 is not prime"),
    # an int or a Q/Z value as the base raised AttributeError: 'int' object
    # has no attribute 'order'
    (lambda: ModCharacter(5, 7), TypeError, "base 5 has type int, not GroupCharacter"),
    (lambda: ModCharacter(QmodZ(1, 2), 7), TypeError, "has type QmodZ, not GroupCharacter"),
    (order_five_mod_five, ValueError, "must have order prime to 5"),
    # an ell-part beside a prime-to-ell part, which reduce_mod would strip
    (
        lambda: ModCharacter(GroupCharacter(FinAbGroup((15,)), (QmodZ(1, 15),)), 5),
        ValueError,
        "must have order prime to 5",
    ),
    (lambda: reduce_mod(GroupCharacter.trivial(FinAbGroup((2,))), 4), ValueError, "4 is not prime"),
    (one_residue_characteristic, ValueError, "the two residue characteristics must differ"),
    (lambda: unit_group(5, -1), ValueError, "exponent -1 must be an int >= 0"),
    # exactnum
    (lambda: factorize(0), ValueError, "can only factor positive integers"),
    # isinstance(n, int) took a bool: factorize(True) was {}
    (lambda: factorize(True), TypeError, "True is not an integer"),
    (lambda: valuation(0, 3), ValueError, "valuation of 0 is undefined"),
    (lambda: prime_to_part(0, 3), ValueError, "n must be a positive integer"),
    (lambda: Congruence(1, 0), ValueError, "modulus must be positive"),
    # isinstance(k, int) took a bool: QmodZ(1, 4) * True was 1/4
    (lambda: QmodZ(1, 4) * True, TypeError, "for *: 'QmodZ' and 'bool'"),
    (lambda: True * QmodZ(1, 4), TypeError, "for *: 'bool' and 'QmodZ'"),
    # heckeq
    (lambda: GlobalCharQ.trivial(5, 0), ValueError, "modulus must be positive"),
    # an int image raised AttributeError: 'int' object has no attribute 'den'
    (lambda: GlobalCharQ.from_images(5, 5, {5: 3}), TypeError, "image 3 at 5 has type int, not QmodZ"),
    (
        lambda: GlobalCharQ.from_images(5, 7, {7: "1/2"}),
        TypeError,
        "image '1/2' at 7 has type str, not QmodZ",
    ),
    (
        lambda: GlobalCharQ.from_images(5, 7, {7: QmodZ(1, 4)}),
        ValueError,
        "image at 7 is not killed by the unit group order",
    ),
    (
        lambda: GlobalCharQ.trivial(5) * GlobalCharQ.trivial(7),
        ValueError,
        "mismatched residue characteristics",
    ),
    (
        lambda: brute_force_oracle_q(theta_power(5, 1), theta_power(7, 1), 0, 1, range(1)),
        ValueError,
        "search exponents must be >= 1",
    ),
    (lambda: invariants(A_p=2), AssertionError, "A_p = 2 is not the prime-to-q part of p - 1"),
    (lambda: invariants(B_q=3), AssertionError, "B_q = 3 is not the prime-to-p part of q - 1"),
    (lambda: invariants(a_p=Congruence(0, 2)), AssertionError, "a_p is taken modulo 2, not A_p"),
    (
        lambda: invariants(psi_q=GroupCharacter(unit_group(7, 1), (QmodZ(1, 2),))),
        AssertionError,
        "wild part at 7 has order 2",
    ),
    # heckequad
    (tame_exponent_out_of_range, ValueError, "tame exponent 16 out of range mod 16 at v1@17"),
    # qseries
    (lambda: QuadElem(1, 1, 4), ValueError, "disc must be a positive nonsquare integer"),
    (lambda: delta(8) ** -1, ValueError, "negative powers are not supported"),
    # True gave the series itself, False the series 1, and 2.0 a bare
    # TypeError from bin
    (lambda: delta(12) ** True, ValueError, "exponent True is not an int"),
    (lambda: delta(12) ** False, ValueError, "exponent False is not an int"),
    (lambda: delta(12) ** 2.0, ValueError, "exponent 2.0 is not an int"),
    # True scaled by 1
    (lambda: QExpansion([1, 2]).scale(True), ValueError, "scalar True is a bool"),
    (lambda: QExpansion([1, 2]) * False, ValueError, "scalar False is a bool"),
    (lambda: SplitPrimeIdeal(4, 1, 5), ValueError, "4 is not prime"),
    (lambda: SplitPrimeIdeal(5, 7, 1), ValueError, "root must be reduced modulo ell"),
    (lambda: SplitPrimeIdeal(5, 1, 3), ValueError, "1^2 is not 3 modulo 5"),
    (
        lambda: SplitPrimeIdeal(5, 1, 6).reduce(QuadElem(1, 1, 11)),
        ValueError,
        "element from a different field",
    ),
    # a float root reduced alpha to 5.0 and was printed in a passing report
    (lambda: SplitPrimeIdeal(7, 2.0, 144169), ValueError, "root 2.0 is not an int"),
    (lambda: SplitPrimeIdeal(5, True, 6), ValueError, "root True is not an int"),
    (lambda: SplitPrimeIdeal(5, 1, 6.0), ValueError, "disc must be a positive nonsquare integer"),
    (lambda: SplitPrimeIdeal(5, 1, 1), ValueError, "disc must be a positive nonsquare integer"),
    # a str disc raised TypeError: unsupported operand, from the congruence
    (lambda: SplitPrimeIdeal(7, 2, "x"), ValueError, "disc must be a positive nonsquare integer"),
    (lambda: SplitPrimeIdeal(2, 1, 5), ValueError, "ell must be an odd prime"),
    # conjugate() returned the ideal itself
    (lambda: SplitPrimeIdeal(3, 0, 3), ValueError, "3 is ramified in Q(sqrt(3))"),
    # 1.5 was stored as 3/2
    (lambda: QuadElem(1.5, 1, 5), TypeError, "unsupported coefficient type <class 'float'>"),
    (lambda: QuadElem(1, 0.5, 5), TypeError, "unsupported coefficient type <class 'float'>"),
    # the scan returned (4, 5) for the composite 9
    (lambda: split_roots(144169, 9), ValueError, "9 must be an odd prime"),
    # serrepq
    (lambda: wd_reduce(steinberg_at_3(), 4, 5), ValueError, "both arguments must be prime"),
    # an int zeta raised AttributeError: 'int' object has no attribute 'den'
    (
        lambda: unramified_pair(3, AlgebraicFrobValue(1, 0)),
        ValueError,
        "AlgebraicFrobValue(zeta=1, weight=0): zeta must be a QmodZ and the weight an int",
    ),
    # without the guard: "0 is not a power of 2 modulo 5", from the residue address of 5 mod 5
    (lambda: unramified_pair(5), ValueError, "compatibility is checked away from p and q"),
]


@pytest.mark.parametrize("call, error, fragment", REFUSALS)
def test_every_stated_refusal(call, error, fragment):
    with pytest.raises(error, match=re.escape(fragment)):
        call()


def test_sturm_congruence_without_weight_tags_has_no_proof_bound():
    series = QExpansion([1, 2, 3])
    report = sturm_congruence(series, series, 5, 2)
    assert report.congruent and report.theoretical_bound is None
    assert str(report) == "congruence mod 5 to q^2: pass"


@pytest.mark.parametrize(
    "call, fragment",
    [
        (lambda: hasse_invariant_check(5, 7, 10.0), "precision 10.0 is not an int"),
        (lambda: hasse_invariant_check(5, 7, 10, 12.0), "the weight 12.0 is not an int"),
        (lambda: hasse_invariant_check(5, 7, 10, True), "the weight True is not an int"),
        (lambda: eisenstein(4, True), "precision True is not an int"),
        (lambda: delta(8.0), "precision 8.0 is not an int"),
        (lambda: weight24_example(12.0), "precision 12.0 is not an int"),
        (lambda: FinAbGroup((2.0,)), "cyclic factor orders must be ints >= 2"),
        (lambda: FinAbGroup((True, 2)), "cyclic factor orders must be ints >= 2"),
        # True was stored as the coefficient 1
        (lambda: QExpansion([True, 2]), "coefficient True is a bool, not an int"),
        (lambda: QExpansion([1, Fraction(1, 2), False]), "coefficient False is a bool"),
        (lambda: QuadElem(True, 0, 5), "coefficient True is a bool, not an int"),
        (lambda: QuadElem(1, False, 5), "coefficient False is a bool, not an int"),
        # True was read as 1, and a float raised a bare TypeError from math.gcd
        (lambda: QmodZ(True, 2), "numerator True, denominator 2: not ints"),
        (lambda: QmodZ(1, True), "numerator 1, denominator True: not ints"),
        (lambda: QmodZ(1.5, 2), "numerator 1.5, denominator 2: not ints"),
        (lambda: QmodZ(1, 2.0), "numerator 1, denominator 2.0: not ints"),
        # 1.5 was refused only by QmodZ ("numerator 4.5, denominator 4: not
        # ints"), which the matcher no longer builds; True was taken as 1
        (
            lambda: unramified_pair(3, AlgebraicFrobValue(QmodZ(0, 1), 1.5)),
            "weight=1.5): zeta must be a QmodZ and the weight an int",
        ),
        (
            lambda: unramified_pair(3, AlgebraicFrobValue(QmodZ(1, 2), True)),
            "weight=True): zeta must be a QmodZ and the weight an int",
        ),
        # wd_reduce carried the weight 1.5 into the records it built
        (
            lambda: AlgebraicFrobValue(QmodZ(1, 2), 1.5),
            "AlgebraicFrobValue(zeta=QmodZ(1, 2), weight=1.5): zeta must be a QmodZ",
        ),
        # a float reached is_prime's typed memo, which raised a bare TypeError
        (lambda: wd_reduce(steinberg_at_3(), 3, 7.0), "target = 7.0 must be ints"),
        (lambda: wd_reduce(steinberg_at_3(), 3.0, 7), "ell = 3.0 and target = 7"),
        (lambda: wd_reduce(steinberg_at_3(), 3, True), "target = True must be ints"),
        # a float reached is_prime's typed memo, which raised a bare TypeError,
        # or, as a place of local_compat, pow
        (lambda: remark2_check(3, 5, 7.0), "7.0 must be an odd prime"),
        (lambda: kronecker_symbol(5, 7.0), "7.0 must be an odd prime"),
        (
            lambda: local_compat(UnramifiedSemisimple(7.0, 3, ONE), UnramifiedSemisimple(7.0, 5, ONE)),
            "7.0 must be an odd prime",
        ),
        (
            lambda: local_compat(UnramifiedSemisimple(3, 5, ONE), UnramifiedSemisimple(3, 7.0, ONE)),
            "7.0 must be an odd prime",
        ),
        # True was the modulus 1, and a float key raised a bare TypeError from factorize
        (lambda: GlobalCharQ.from_images(5, True, {}), "modulus True is not an int"),
        (lambda: GlobalCharQ.trivial(5, 7.0), "modulus 7.0 is not an int"),
        (lambda: GlobalCharQ.trivial(5).with_modulus(True), "modulus True is not an int"),
        (lambda: GlobalCharQ.from_images(5, 7, {7.0: QmodZ(1, 2)}), "image key 7.0 is not an int"),
        (
            lambda: GlobalCharQ.from_images(5, 7, {True: QmodZ(1, 2)}),
            "image key True is not an int",
        ),
    ],
)
def test_a_bool_or_float_where_an_int_is_meant(call, fragment):
    with pytest.raises(ValueError, match=re.escape(fragment)) as refused:
        call()
    assert len(str(refused.value)) < 200


@pytest.mark.parametrize("int_first", [True, False])
@pytest.mark.parametrize(
    "memo, ell, exponent, bad",
    [
        (unit_group, 7, 1, True),
        (unit_group, 11, 2, 2.0),
        (primitive_root, 7, 1, True),
        (primitive_root, 11, 2, 2.0),
    ],
)
def test_a_bool_or_float_never_shares_an_int_memo_entry(memo, ell, exponent, bad, int_first):
    # an untyped memo served unit_group(7, 1) the entry of unit_group(7, True),
    # labelled "(Z/7^True)* gen 3", and refused nothing once the int was in
    memo.cache_clear()
    expected = memo.__wrapped__(ell, exponent)
    if int_first:
        assert memo(ell, exponent) == expected
    with pytest.raises(ValueError, match=re.escape(f"{bad}")) as refused:
        memo(ell, bad)
    assert "an int" in str(refused.value) and len(str(refused.value)) < 200
    got = memo(ell, exponent)
    assert got == expected and str(got) == str(expected)


@pytest.mark.parametrize("p", [1, -1])
def test_valuation_refuses_a_unit_base_without_hanging(p):
    # n % p == 0 always holds for p = 1 or -1, and the loop dividing it out
    # never ended
    script = (
        "from heckelift.exactnum import valuation\n"
        f"try:\n    valuation(12, {p})\nexcept ValueError as e:\n    print(e)"
    )
    try:
        done = run_python("-c", script, timeout=10)
    except subprocess.TimeoutExpired:
        pytest.fail(f"valuation(12, {p}) did not return")
    assert done.returncode == 0, done.stderr
    assert f"p={p}" in done.stdout


@pytest.mark.parametrize("n, p", [(12, 0), (12, -3), (12, True), (12, 2.0), (12.0, 3), (True, 2)])
def test_valuation_refuses_a_base_below_two_or_a_non_int(n, p):
    with pytest.raises(ValueError, match=re.escape(f"p={p!r}")):
        valuation(n, p)


@pytest.mark.parametrize(
    "call, fragment",
    [
        (lambda: Congruence(1, 2.5), "modulus 2.5"),
        (lambda: Congruence(1.0, 4), "residue 1.0"),
        (lambda: Congruence(True, 4), "residue True"),
        (lambda: Congruence(1, True), "modulus True"),
        (lambda: weight_crt(Congruence(1.5, 4), Congruence(1, 6)), "residue 1.5"),
        (lambda: prime_to_part(12.0, 3), "n=12.0"),
        (lambda: prime_to_part(True, 3), "n=True"),
        (lambda: prime_to_part(12, 3.0), "ell=3.0"),
    ],
)
def test_congruence_and_prime_to_part_refuse_a_bool_or_non_int(call, fragment):
    # a float residue printed as "1.0 (mod 2.5)", and one in weight_crt read
    # as a clash of weight classes
    with pytest.raises(ValueError, match=re.escape(fragment)):
        call()


@pytest.mark.parametrize("weight", [12.0, True, "12", Fraction(12)])
def test_qexpansion_refuses_a_weight_that_is_not_none_or_an_int(weight):
    # a float tag made sturm_congruence report the proof bound 1.0
    with pytest.raises(ValueError, match=re.escape(f"the weight {weight!r}")):
        QExpansion([1, 2, 3], weight)
    assert QExpansion([1, 2, 3], 12).weight == 12
    assert QExpansion([1, 2, 3]).weight is None
