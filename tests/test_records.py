"""The package's records.  The five result types that perfbench/selftest.py
hands to dataclasses.replace stay dataclasses.  Every other record is a
cheaper class that keeps what the frozen dataclass it replaced had: the
constructor's order, keywords and defaults, the field names, the repr,
equality only with a record of its own class, the hash of the tuple of its
fields, and refusal of assignment."""

import dataclasses
import inspect
import pydoc
from fractions import Fraction

import pytest

from heckelift import abchar, exactnum, heckeq, heckequad, qseries, serrepq
from heckelift.exactnum import Congruence, QmodZ, Record

KEPT_DATACLASSES = (
    exactnum.Congruence,
    heckeq.PropQResult,
    heckequad.IdealClassGroup,
    heckequad.CountingReport,
    qseries.HasseReport,
)

unit5 = abchar.unit_group(5, 1)
chi5 = abchar.GroupCharacter(unit5, (QmodZ(1, 4),))
triv3 = abchar.GroupCharacter.trivial(abchar.unit_group(3, 1))
zero = serrepq.AlgebraicFrobValue(QmodZ(0, 1), 0)
minus_ell = serrepq.AlgebraicFrobValue(QmodZ(1, 2), 1)
quasi = serrepq.QuasiChar(triv3, minus_ell)
mod7 = abchar.ModCharacter(triv3, 7)
elem = qseries.QuadElem(Fraction(-13, 2), Fraction(1, 2), 144169)
p7 = qseries.SplitPrimeIdeal(7, 2, 144169)
sturm = qseries.SturmReport(True, None, 9, 2, "(7, sqrt(144169) - 2)")
place = heckequad.Place("v1@17", 17, 1, (("sigma", 0),))
local = heckequad.PlaceLocal(1, 0)
check = heckequad.ConditionCheck("v1@17", 1, 0, 1, True)
rho = heckeq.GlobalCharQ.from_images(5, 5, {5: QmodZ(3, 4)})
rho_prime = heckeq.GlobalCharQ.from_images(7, 7, {7: QmodZ(3, 6)})
invariants = heckeq.extract_invariants(rho, rho_prime)

# each converted record: its class, its fields as the dataclass listed them
# (the constructor's order and keywords), and the arguments of a sample
RECORDS = [
    (exactnum.WeightCrtResult, ("k_class", "representative"), (Congruence(2, 12), 2)),
    (abchar.UnitLabel, ("prime", "exponent", "generator"), (5, 1, 2)),
    (abchar.FinAbGroup, ("orders", "labels"), ((2, 6),)),
    # the one record whose constructor takes other values than its fields
    (abchar.GroupCharacter, ("group", "exps"), (unit5, (QmodZ(1, 4),))),
    (abchar.ModCharacter, ("base", "residue_char"), (chi5, 7)),
    (
        abchar.HeckeCertificate,
        ("infinity_type", "local_chars", "conductor"),
        ((("id", 3),), (("5", chi5),), 5),
    ),
    (
        heckeq.LocalInvariantsQ,
        ("p", "q", "k_p", "a_p", "A_p", "psi_prime_p", "k_q", "b_q", "B_q", "psi_q"),
        tuple(getattr(invariants, name) for name in invariants.__slots__),
    ),
    (heckeq.NecessityReport, ("per_prime", "ok"), (((11, True),), True)),
    (heckeq.TwistResult, ("eps", "twisted", "twisted_prime"), ((), rho, rho_prime)),
    (heckequad.ImagQuadField, ("D",), (-15,)),
    (
        heckequad.Place,
        ("name", "residue_size", "modulus", "kappa"),
        ("v1@17", 17, 1, (("sigma", 0),)),
    ),
    (heckequad.PlaceData, ("prime", "kind", "places"), (17, "split", (place,))),
    (heckequad.PlaceLocal, ("k", "a", "psi"), (1, 0)),
    (heckequad.QuadLocalData, ("above_p", "above_q"), ((local,), (local,))),
    (heckequad.ConditionCheck, ("place", "lhs", "rhs", "modulus", "ok"), ("v1@17", 1, 0, 1, True)),
    (
        heckequad.CriterionReport,
        ("condition_1", "condition_1_prime", "condition_2", "certificate", "data_p", "data_q"),
        ((check,), (), (0, 0, True), None, None, None),
    ),
    (qseries.QuadElem, ("a", "b", "disc"), (Fraction(-13, 2), Fraction(1, 2), 144169)),
    (qseries.SplitPrimeIdeal, ("ell", "root", "disc"), (7, 2, 144169)),
    (
        qseries.SturmReport,
        ("congruent", "first_mismatch", "bound", "theoretical_bound", "modulus"),
        (True, None, 9, 2, "(7, sqrt(144169) - 2)"),
    ),
    (
        qseries.Weight24Report,
        (
            "disc", "precision", "alpha", "alpha_prime", "p5", "p7", "labelling",
            "congruences", "q_is_one_mod_5", "alpha_product", "residues",
        ),
        (
            144169, 10, elem, elem, p7, p7, "f", (("Delta = f mod p7", sturm),), True,
            Fraction(-36000), (("Delta mod p7", (0, 1)),),
        ),
    ),
    (serrepq.AlgebraicFrobValue, ("zeta", "weight"), (QmodZ(1, 2), 1)),
    (serrepq.QuasiChar, ("inertial", "frob"), (triv3, minus_ell)),
    (serrepq.Reducible, ("eps1", "eps2"), (quasi, quasi)),
    (serrepq.Steinberg, ("eps",), (quasi,)),
    (serrepq.UnramifiedSemisimple, ("ell", "residue_char", "ratio"), (3, 7, minus_ell)),
    (
        serrepq.TamePrincipal,
        ("ell", "residue_char", "inertials", "frobs"),
        (3, 7, (mod7, mod7), (zero, zero)),
    ),
    (
        serrepq.UnipotentRamified,
        ("ell", "residue_char", "frob_char_inertial", "frob_char_value"),
        (3, 5, mod7, zero),
    ),
    (
        serrepq.CompatReport,
        ("compatible", "witness", "witness_kind", "reason", "alternatives"),
        (False, None, None, "no common value"),
    ),
    (
        serrepq.Remark2Report,
        (
            "ell", "p", "q", "hypotheses_hold", "hypothesis_detail", "compat",
            "base_change_compatible",
        ),
        (
            3, 5, 7, True, (("3 mod 5 not +-1", True),),
            serrepq.CompatReport(True, quasi, "x", None), True,
        ),
    ),
]
IDS = [cls.__name__ for cls, _, _ in RECORDS]

# the records whose own __init__ checks or defaults its input; Record writes
# the constructor of every other one
OWN_CONSTRUCTORS = {
    "FinAbGroup", "GroupCharacter", "ModCharacter", "LocalInvariantsQ", "ImagQuadField",
    "QuadElem", "SplitPrimeIdeal", "PlaceLocal", "CompatReport",
}
GENERATED = [record for record in RECORDS if record[0].__name__ not in OWN_CONSTRUCTORS]

# reprs as the frozen dataclasses printed them
PARENT_REPRS = {
    "UnitLabel": "UnitLabel(prime=5, exponent=1, generator=2)",
    "FinAbGroup": "FinAbGroup(orders=(2, 6), labels=(None, None))",
    "GroupCharacter": (
        "GroupCharacter(group=FinAbGroup(orders=(4,), labels=(UnitLabel(prime=5, "
        "exponent=1, generator=2),)), exps=(1,))"
    ),
    "ImagQuadField": "ImagQuadField(D=-15)",
    "PlaceLocal": "PlaceLocal(k=1, a=0, psi=None)",
    "QuadElem": "QuadElem(a=Fraction(-13, 2), b=Fraction(1, 2), disc=144169)",
    "AlgebraicFrobValue": "AlgebraicFrobValue(zeta=QmodZ(1, 2), weight=1)",
    "CompatReport": (
        "CompatReport(compatible=False, witness=None, witness_kind=None, "
        "reason='no common value', alternatives=())"
    ),
}


def test_the_records_perfbench_replaces_stay_dataclasses():
    assert all(dataclasses.is_dataclass(cls) for cls in KEPT_DATACLASSES)
    assert not any(dataclasses.is_dataclass(cls) for cls, _, _ in RECORDS)


@pytest.mark.parametrize("cls, fields, args", RECORDS, ids=IDS)
def test_record_keeps_its_dataclass_repr(cls, fields, args):
    record = cls(*args)
    shown = ", ".join(f"{name}={getattr(record, name)!r}" for name in fields)
    if "__str__" not in vars(cls):
        assert str(record) == repr(record)
    assert repr(record) == f"{cls.__name__}({shown})"
    if cls.__name__ in PARENT_REPRS:
        assert repr(record) == PARENT_REPRS[cls.__name__]


@pytest.mark.parametrize("cls, fields, args", RECORDS, ids=IDS)
def test_record_keeps_its_constructor_equality_and_hash(cls, fields, args):
    record = cls(*args)
    values = tuple(getattr(record, name) for name in fields)
    assert cls.__slots__ == fields
    assert record == cls(*args) and not record != cls(*args)
    assert hash(record) == hash(cls(*args)) == hash(values)
    if cls is not abchar.GroupCharacter:
        assert cls(**dict(zip(fields, values))) == record
    # unequal to a record of another class with the same fields and values,
    # and to the tuple of those values, as a dataclass is
    twin = type("Twin", (Record,), {"__slots__": fields})._make(*values)
    assert record != twin and not record == twin
    assert record != values


@pytest.mark.parametrize("cls, fields, args", RECORDS, ids=IDS)
def test_record_refuses_assignment(cls, fields, args):
    record = cls(*args)
    with pytest.raises(AttributeError):
        setattr(record, fields[0], None)
    with pytest.raises(AttributeError):
        delattr(record, fields[-1])
    with pytest.raises(AttributeError):
        record.extra = 1


def test_global_char_keeps_its_repr_equality_and_hash():
    assert repr(rho) == (
        "GlobalCharQ(residue_char=5, modulus=5, inertia={5: GroupCharacter(group="
        "FinAbGroup(orders=(4,), labels=(UnitLabel(prime=5, exponent=1, generator=2),)), "
        "exps=(3,))})"
    )
    # equal, with the same hash, on another level
    higher = rho.with_modulus(25)
    assert higher.modulus == 25 and higher == rho and hash(higher) == hash(rho)
    assert rho != rho_prime and rho != (rho.residue_char, rho.modulus, rho.inertia)
    with pytest.raises(AttributeError):
        rho.modulus = 7
    with pytest.raises(TypeError):
        heckeq.GlobalCharQ(5, 5, {}, {})


@pytest.mark.parametrize(
    "record",
    [rho, qseries.delta(12), qseries.QExpansion([1, 2])],
    ids=["GlobalCharQ", "delta", "series"],
)
def test_global_char_and_series_refuse_assignment(record):
    # a series once took series.weight = 5 and series._a = (9,)
    for name in record.__slots__:
        before = getattr(record, name)
        with pytest.raises(AttributeError):
            setattr(record, name, before)
        with pytest.raises(AttributeError):
            delattr(record, name)
        assert getattr(record, name) is before
    with pytest.raises(AttributeError):
        record.extra = 1


def test_a_series_is_a_record_of_its_lowest_terms():
    series = qseries.QExpansion([Fraction(1, 2), 1, Fraction(3, 2)], 4)
    assert (series._a, series._den, series.weight) == ((1, 2, 3), 2, 4)
    assert series == qseries.QExpansion._lowest([2, 4, 6], 4, 4)
    assert hash(series) == hash(((1, 2, 3), 2, 4))
    assert series != qseries.QExpansion._make((2, 4, 6), 4, 4)
    assert series != qseries.QExpansion([Fraction(1, 2), 1, Fraction(3, 2)])


# every record with the fields its _make takes; the checked ones first
MADE = [(cls, fields) for cls, fields, _ in RECORDS] + [
    (exactnum.QmodZ, ("num", "den")),
    (heckeq.GlobalCharQ, ("residue_char", "modulus", "factors", "exps")),
    (qseries.QExpansion, ("_a", "_den", "weight")),
]


@pytest.mark.parametrize("cls, fields", MADE, ids=[cls.__name__ for cls, _ in MADE])
def test_make_stores_the_fields_as_given(cls, fields):
    # _make checks and normalises nothing: each field is the object passed
    values = [object() for _ in fields]
    record = cls._make(*values)
    assert type(record) is cls
    assert all(getattr(record, name) is value for name, value in zip(fields, values))
    assert list(inspect.signature(cls._make).parameters) == list(fields)
    assert list(inspect.signature(cls._store).parameters) == ["self", *fields]
    assert cls._make.__qualname__ == f"{cls.__name__}._make"
    with pytest.raises(TypeError):
        cls._make(*values[:-1])


def test_checked_constructors_keep_their_signatures():
    signatures = {
        exactnum.QmodZ: "(num: 'int', den: 'int' = 1)",
        abchar.FinAbGroup: "(orders: 'tuple[int, ...]', labels: 'tuple[object, ...]' = ())",
        abchar.GroupCharacter: "(group: 'FinAbGroup', images: 'tuple[QmodZ, ...]')",
        heckequad.PlaceLocal: "(k: 'int', a: 'int', psi: 'GroupCharacter | None' = None)",
        qseries.QExpansion: "(coeffs, weight: 'int | None' = None)",
    }
    for cls, signature in signatures.items():
        assert str(inspect.signature(cls)) == signature, cls.__name__
    for cls, _, _ in RECORDS:
        if cls.__name__ in OWN_CONSTRUCTORS:
            assert cls.__init__ is not cls._store
            assert cls.__init__.__qualname__ == f"{cls.__name__}.__init__"
        else:
            assert cls.__init__ is cls._store


def test_a_group_stores_its_orders_and_labels_as_tuples():
    # a list was kept as given: the record was mutable through it, unhashable
    # with every character on it, and unequal to the tuple form
    listed = abchar.FinAbGroup([2, 6], ["a", "b"])
    assert listed == abchar.FinAbGroup((2, 6), ("a", "b"))
    assert hash(listed) == hash(abchar.FinAbGroup((2, 6), ("a", "b")))
    assert listed.orders == (2, 6) and listed.labels == ("a", "b")
    chi = abchar.GroupCharacter(listed, (QmodZ(1, 2), QmodZ(1, 3)))
    tupled = abchar.FinAbGroup((2, 6), ("a", "b"))
    assert hash(chi) == hash(abchar.GroupCharacter(tupled, chi.images))


def test_record_writes_every_constructor_that_only_stores():
    assert len(GENERATED) == 20 and len(RECORDS) == 20 + len(OWN_CONSTRUCTORS)
    assert all("__init__" in vars(cls) for cls, _, _ in RECORDS)


@pytest.mark.parametrize("cls, fields, args", GENERATED, ids=[r[0].__name__ for r in GENERATED])
def test_generated_constructor_takes_the_fields(cls, fields, args):
    parameters = inspect.signature(cls).parameters.values()
    assert tuple(parameter.name for parameter in parameters) == fields
    assert all(
        parameter.kind is inspect.Parameter.POSITIONAL_OR_KEYWORD
        and parameter.default is inspect.Parameter.empty
        for parameter in parameters
    )
    assert f"{cls.__name__}({', '.join(fields)})" in pydoc.render_doc(cls, renderer=pydoc.plaintext)
    assert cls.__init__.__qualname__ == f"{cls.__name__}.__init__"
    assert cls.__init__.__module__ == cls.__module__
    record = cls(*args[:-1], **{fields[-1]: args[-1]})
    assert tuple(getattr(record, name) for name in fields) == args
    with pytest.raises(TypeError):
        cls(*args[:-1])
    with pytest.raises(TypeError):
        cls(*args, args[-1])
    with pytest.raises(TypeError):
        cls(*args, extra=None)
    with pytest.raises(TypeError):
        cls(*args, **{fields[0]: args[0]})


def test_a_record_that_defines_its_constructor_keeps_it():
    class Checked(Record):
        __slots__ = ("n", "label")

        def __init__(self, n, label="none"):
            if n < 0:
                raise ValueError("n must be nonnegative")
            self._store(n, label)

    assert (Checked(2).n, Checked(2).label) == (2, "none")
    with pytest.raises(ValueError):
        Checked(-1)
    assert list(inspect.signature(Checked).parameters) == ["n", "label"]

    # a subclass that stores only gets a constructor of its own fields
    class Stored(Record):
        __slots__ = ("n",)

    assert Stored(3) == Stored(n=3) and Stored(3) != Checked(3)
