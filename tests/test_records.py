"""The result records keep the value semantics of frozen dataclasses, and
`import raag.cli` loads neither `dataclasses` nor `inspect`."""

import copy
import os
import pathlib
import pickle
import subprocess
import sys
from dataclasses import make_dataclass

import pytest

from raag import Graph, parse
from raag._record import Record
from raag.conjugacy import Conjugate, Inconclusive, NotConjugate
from raag.cosets import INCONCLUSIVE, CosetFactors, NotMember
from raag.hnn import HnnWord
from raag.nilpotent import (
    NOT_FOUND,
    NotSeparatedAtThisLevel,
    Separated,
    TruncatedAlgebraElement,
    magnus_image,
)
from raag.pgroup import PGroupElement, WitnessParams

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"
P3 = Graph(["a", "b", "c"], [("a", "b"), ("b", "c")])

RECORDS = [
    (Conjugate, (parse(P3, "a^-1"),)),
    (NotConjugate, ("abelianization",)),
    (Inconclusive, ("budget",)),
    (CosetFactors, (parse(P3, "a"), parse(P3, "b c"))),
    (NotMember, ("representative",)),
    (HnnWord, (parse(P3, "a"), ((2, parse(P3, "b")),))),
    (Separated, (3, 2, 1)),
    (NotSeparatedAtThisLevel, (magnus_image(parse(P3, "a b"), 3, 2, 1),)),
    (WitnessParams, (2, 3, 1, 2)),
    (PGroupElement, ((1, 0, 3), 1)),
]


@pytest.mark.parametrize("cls, values", RECORDS, ids=[c.__name__ for c, _ in RECORDS])
def test_record_semantics(cls, values):
    record = cls(*values)
    names = cls.__match_args__
    assert tuple(getattr(record, name) for name in names) == values

    twin = cls(*values)
    assert twin == record and hash(twin) == hash(record)
    assert record != values and record != object()

    for name in names:
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)
    with pytest.raises(AttributeError):
        record.extra = None

    # the repr a frozen dataclass with these fields prints, as
    # Conjugate(conjugator=<a^-1>)
    dataclass_twin = make_dataclass(cls.__name__, names, frozen=True)(*values)
    assert repr(record) == repr(dataclass_twin)

    with pytest.raises(TypeError):
        cls(*values[:-1])
    with pytest.raises(TypeError):
        cls(*values, None)

    match len(values), record:
        case 1, cls(a):
            matched = (a,)
        case 2, cls(a, b):
            matched = (a, b)
        case 3, cls(a, b, c):
            matched = (a, b, c)
        case 4, cls(a, b, c, d):
            matched = (a, b, c, d)
    assert matched == values

    for clone in (pickle.loads(pickle.dumps(record)), copy.copy(record), copy.deepcopy(record)):
        assert type(clone) is cls and clone == record


def test_truncated_algebra_element_is_a_record():
    # the one record with its own repr, the algebra form, so it is kept out
    # of test_record_semantics' dataclass-repr case
    unit = magnus_image(parse(P3, "a b"), 3, 2, 2)
    values = (P3, 3, 4, {(): 1, (0,): 1, (1,): 1, (0, 1): 1})
    assert issubclass(TruncatedAlgebraElement, Record)
    assert "__eq__" not in vars(TruncatedAlgebraElement)
    assert tuple(getattr(unit, name) for name in TruncatedAlgebraElement.__match_args__) == values
    twin = TruncatedAlgebraElement(*values)
    assert twin == unit and hash(twin) == hash(unit)
    assert unit != values and unit != magnus_image(parse(P3, "a b"), 3, 2, 1)
    assert repr(unit) == "<1 + 1*a + 1*b + 1*a.b | deg<=3 over Z/4>"

    for name in ("graph", "cap", "modulus", "coeffs"):
        with pytest.raises(AttributeError):
            setattr(unit, name, None)
        with pytest.raises(AttributeError):
            delattr(unit, name)
    # nor can a coefficient, so the hash cannot move and u stays in {u}
    before = hash(unit)
    with pytest.raises(TypeError):
        unit.coeffs[(2,)] = 1
    with pytest.raises(TypeError):
        del unit.coeffs[()]
    assert hash(unit) == before and unit in {unit}

    match unit:
        case TruncatedAlgebraElement(graph, cap, modulus, coeffs):
            assert (graph, cap, modulus, coeffs) == values

    for clone in (pickle.loads(pickle.dumps(unit)), copy.copy(unit), copy.deepcopy(unit)):
        assert type(clone) is TruncatedAlgebraElement
        assert clone == unit and hash(clone) == hash(unit) and repr(clone) == repr(unit)
        with pytest.raises(TypeError):
            clone.coeffs[()] = 2


def test_records_with_one_reason_differ_by_type():
    answers = [NotConjugate("x"), NotMember("x"), Inconclusive("x")]
    for i, a in enumerate(answers):
        for j, b in enumerate(answers):
            assert (a == b) == (i == j)
    assert len(set(answers)) == 3


def test_cli_import_loads_no_dataclasses():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    code = "import sys, raag.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    ).stdout
    assert out.strip() == "[]"


@pytest.mark.parametrize("sentinel", [NOT_FOUND, INCONCLUSIVE], ids=repr)
def test_sentinels_keep_identity(sentinel):
    # a sentinel is compared with `is`, so every pickle protocol and both
    # copies must hand back the module-level object
    for proto in range(pickle.HIGHEST_PROTOCOL + 1):
        assert pickle.loads(pickle.dumps(sentinel, proto)) is sentinel
    assert copy.copy(sentinel) is sentinel and copy.deepcopy(sentinel) is sentinel
