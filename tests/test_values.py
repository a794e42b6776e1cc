"""Value semantics of the immutable record classes: construction, equality,
hashing, immutability, validation, ordering and repr."""

import copy
import pickle

import pytest

from strongreal import classify
from strongreal.classdata import (
    EMPTY_SIGNED,
    ClassDatum,
    Partition,
    SignedPartition,
    SymplecticClassDatum,
    partitions_of,
    signed_partition,
    symplectic_datum,
    t_minus_one,
    unipotent_datum,
)
from strongreal.counting import CountCrossCheck, CountRow, Series
from strongreal.errors import DatumError
from strongreal.fields import PrimePower, make_context
from strongreal.oracle import (
    Budgets,
    ClassRecord,
    GroupEnumeration,
    HermitianForm,
    OracleReport,
    enumerate_group,
    reconcile,
)
from strongreal.upoly import MonicPoly, UIrreducible

Q3 = PrimePower(3)


def _fields():
    """Per value class, field values in __slots__ order."""
    f = t_minus_one(Q3)
    datum = unipotent_datum(Q3, Partition((2, 1)))
    verdict = classify.Verdict(classify.NOT_STRONGLY_REAL, "MainThm")
    record = ClassRecord(datum, True, False, verdict)
    row = CountRow(1, 4, 2, 2)
    signed = SignedPartition(Partition((2, 1, 1)), ((2, -1),))
    return {
        PrimePower: (3, 2),
        MonicPoly: (make_context(Q3, 2), (1, 2)),
        UIrreducible: (f.poly, f.orbit_rep),
        Partition: ((3, 1, 1),),
        ClassDatum: (Q3, datum.blocks),
        SignedPartition: (signed.base, signed.signs),
        SymplecticClassDatum: (
            ClassDatum(Q3, ()), signed, SignedPartition(Partition((2, 2)), ((2, 1),))
        ),
        classify.Verdict: (classify.STRONGLY_REAL, "MainThm", (("even_part", 2),)),
        Series: (2, (1, 4, 16)),
        CountRow: (1, 4, 2, 2),
        CountCrossCheck: (Q3, (row,), ("note",)),
        Budgets: (1, 2, 3, 4),
        HermitianForm: (Q3, ((0, 1), (1, 0))),
        ClassRecord: (datum, True, False, verdict),
        OracleReport: (2, Q3, "closure", 96, (record,), Budgets()),
    }


VALUE_CLASSES = list(_fields())


@pytest.mark.parametrize("cls", VALUE_CLASSES, ids=lambda cls: cls.__name__)
def test_value_semantics(cls):
    fields = _fields()
    values = fields[cls]
    names = cls.__slots__
    assert len(names) == len(values)
    a = cls(*values)
    b = cls(**dict(zip(names, values)))
    assert [getattr(a, name) for name in names] == list(values)
    assert a == b and not a != b
    assert a is not b
    assert repr(a) == repr(b)
    assert copy.copy(a) == a
    assert hash(a) == hash(b) == hash(tuple(values))
    assert {a: 1}[b] == 1
    # another class never compares equal, even with the same fields
    other_cls = VALUE_CLASSES[(VALUE_CLASSES.index(cls) + 1) % len(VALUE_CLASSES)]
    other = other_cls(*fields[other_cls])
    assert a != other and a.__eq__(other) is NotImplemented
    assert a != tuple(values)
    for name in names:
        with pytest.raises(AttributeError):
            setattr(a, name, values[0])
        with pytest.raises(AttributeError):
            delattr(a, name)
    with pytest.raises(AttributeError):
        a.extra = 1
    assert [getattr(a, name) for name in names] == list(values)


@pytest.mark.parametrize("cls", VALUE_CLASSES, ids=lambda cls: cls.__name__)
def test_construction_takes_exactly_the_fields(cls):
    values = _fields()[cls]
    named = dict(zip(cls.__slots__, values))
    # the fields without a default, which come first
    required = cls.__slots__[: len(cls.__slots__) - len(cls.__init__.__defaults__ or ())]
    for name in required:
        with pytest.raises(TypeError):
            cls(**{k: v for k, v in named.items() if k != name})
        with pytest.raises(TypeError):
            cls(*values[: required.index(name)])
    with pytest.raises(TypeError):
        cls(*values, values[-1])
    with pytest.raises(TypeError):
        cls(*values, extra=1)
    with pytest.raises(TypeError):
        cls(**named, extra=1)
    for k, name in enumerate(cls.__slots__):
        with pytest.raises(TypeError):
            cls(*values[: k + 1], **{name: values[k]})


def test_verdicts_with_a_witness_hash_and_reports_compare_by_value():
    q2 = PrimePower(2)
    verdicts = [
        classify.strongly_real(unipotent_datum(Q3, (2,))),
        classify.strongly_real(unipotent_datum(q2, (1,))),
        classify.strongly_real(unipotent_datum(q2, (3, 1))),
        classify.strongly_real(unipotent_datum(q2, (3,))),
        classify.strongly_real(unipotent_datum(q2, (3, 2))),
        classify.sp_strongly_real(symplectic_datum(Q3, signed_plus=signed_partition([2], {2: 1}))),
    ]
    assert [v.rule for v in verdicts] == [
        "MainThm", "Real2", "Real2", "notstrong2-1", "notstrong2-2", "SpCor"
    ]
    for v in verdicts:
        twin = classify.Verdict(v.status, v.rule, v.witness_hint)
        assert v.witness_hint and v.to_json()["witness"] == v.witness_hint
        assert twin == v and hash(twin) == hash(v) and {v: 1}[twin] == 1
        assert pickle.loads(pickle.dumps(v)) == v
    assert verdicts[2].witness_hint == {"branch": 2}
    # two runs give one value: the report keeps no clock
    first, second = reconcile(2, Q3), reconcile(2, Q3)
    assert sum(r.verdict.witness is not None for r in first.records) == 2
    assert first == second and hash(first) == hash(second)


def test_defaults():
    assert Budgets() == Budgets(10**8, 2 * 10**6, 10**7, 200_000)
    assert Budgets(group_order=5) == Budgets(10**8, 5, 10**7, 200_000)
    assert Budgets.uniform(9) == Budgets(9, 9, 9, 9)
    assert PrimePower(3) == PrimePower(3, 1) == PrimePower(p=3)
    assert Partition() == Partition(()) and Partition().parts == ()
    assert SignedPartition(Partition()) == SignedPartition(Partition(), ())
    assert classify.Verdict(classify.UNKNOWN) == classify.Verdict(classify.UNKNOWN, None, None)


@pytest.mark.parametrize(
    "build, error",
    [
        (lambda: PrimePower(4), ValueError),
        (lambda: PrimePower(1 << 16), ValueError),
        (lambda: PrimePower(3, 0), ValueError),
        (lambda: Partition((1, 2)), ValueError),
        (lambda: Partition((2, 0)), ValueError),
        (lambda: SignedPartition(Partition((1,))), DatumError),
        (lambda: SignedPartition(Partition((2,))), DatumError),
        (lambda: SignedPartition(Partition((2,)), ((2, 0),)), DatumError),
        (lambda: SymplecticClassDatum(ClassDatum(PrimePower(2), ()), *[EMPTY_SIGNED] * 2), DatumError),
        (lambda: SymplecticClassDatum(unipotent_datum(Q3, (1,)), *[EMPTY_SIGNED] * 2), DatumError),
        (lambda: classify.Verdict("Maybe"), ValueError),
        (lambda: classify.Verdict(classify.STRONGLY_REAL), ValueError),
        (lambda: Series(2, (1, 0)), ValueError),
        (lambda: HermitianForm(Q3, ((0, 0), (0, 0))), ValueError),
        (lambda: HermitianForm(Q3, ((0, 1), (2, 0))), ValueError),
    ],
)
def test_validation_errors(build, error):
    with pytest.raises(error):
        build()


@pytest.mark.parametrize(
    "gram, message",
    [
        (((9,),), "field elements"),
        (((-1,),), "field elements"),
        (((1.0,),), "field elements"),
        ((("1",),), "field elements"),
        (((1, 0),), "not 1 x 1"),
        (((1,), (0, 1)), "not 2 x 2"),
    ],
)
def test_hermitian_form_rejects_malformed_grams(gram, message):
    # checked before the Hermitian test, which would index the tables with them
    with pytest.raises(ValueError, match=message):
        HermitianForm(Q3, gram)


def test_partition_order_and_repr():
    parts = list(partitions_of(6))
    shuffled = parts[1::2] + parts[::-2]
    assert sorted(shuffled) == sorted(shuffled, key=lambda mu: mu.parts)
    assert sorted(shuffled, reverse=True) == list(parts)
    assert Partition((2, 1)) < Partition((3,)) <= Partition((3,)) < Partition((3, 1))
    assert Partition((3, 1)) > Partition((3,)) >= Partition((3,))
    assert Partition((1,)).__lt__((1,)) is NotImplemented
    with pytest.raises(TypeError):
        Partition((1,)) < (2,)
    assert repr(Partition((2, 1))) == "Partition(2, 1)"
    assert repr(Partition()) == "Partition()"
    assert repr(PrimePower(3)) == "PrimePower(p=3, e=1)"
    assert repr(Budgets()) == (
        "Budgets(entry_scan=100000000, group_order=2000000, "
        "reversing_scan=10000000, realize_scan=200000)"
    )
    assert repr(CountRow(1, 4, 2, None)) == (
        "CountRow(n=1, direct_all=4, direct_real=2, direct_strongly_real=None)"
    )


def test_group_enumeration_is_a_plain_mutable_class():
    group = enumerate_group(1, Q3)
    assert isinstance(group, GroupEnumeration)
    assert group.order == len(group.elements) == 4
    assert group == group and group != enumerate_group(1, Q3)
    group.strategy = "relabelled"
    assert group.strategy == "relabelled"


def test_deep_copies_and_pickles_keep_the_cached_field_context():
    # contexts compare by identity: a copied or unpickled value must be
    # built over the one context make_context caches, or it is unequal
    ctx = make_context(Q3, 2)
    f = t_minus_one(Q3)
    values = [MonicPoly(ctx, (1, 2)), f, unipotent_datum(Q3, Partition((2, 1)))]
    for value in values:
        for twin in (copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
            assert twin == value and hash(twin) == hash(value)
    assert copy.deepcopy(ctx) is ctx
    assert pickle.loads(pickle.dumps(ctx)) is ctx
    assert copy.deepcopy(f).poly.ctx is f.poly.ctx
