"""The immutable record base of the eight result types: the contract of a
frozen dataclass, checked against one built by `dataclasses` itself."""
import copy
import dataclasses
import pickle
from fractions import Fraction

import pytest

from mahler.cli import EquationSpec, elaborate, parse_spec
from mahler.errors import Record
from mahler.factorize import Factorization, FirstOrderFactor
from mahler.frobenius import ExponentBlock, FrobeniusOutput, SolutionObject, frobenius_basis
from mahler.newton import FrobeniusPlan, NewtonData
from test_cli import EXAMPLE

RECORD_TYPES = (NewtonData, FrobeniusPlan, FirstOrderFactor, Factorization, SolutionObject,
                ExponentBlock, FrobeniusOutput, EquationSpec)


def _records():
    """One record of each of the eight types, from the README example."""
    spec = parse_spec(EXAMPLE)
    out = frobenius_basis(elaborate(spec, 8), Fraction(8), 6, verify=True)
    block = out.blocks[0]
    fact = out.factorization
    found = [out.newton, out.plan, fact.layers[0][0], fact, block.solutions[0], block, out, spec]
    assert [type(r) for r in found] == list(RECORD_TYPES)
    return found


RECORDS = _records()


def _fields(record):
    return {name: getattr(record, name) for name in type(record).__slots__}


def _twin(record):
    """A frozen dataclass with the record's name, fields and values."""
    cls = dataclasses.make_dataclass(type(record).__name__, type(record).__slots__, frozen=True)
    return cls(**_fields(record))


def test_every_result_type_is_a_record():
    for cls in RECORD_TYPES:
        assert issubclass(cls, Record) and not dataclasses.is_dataclass(cls)
        assert "__dict__" not in dir(cls)


@pytest.mark.parametrize("record", RECORDS, ids=lambda r: type(r).__name__)
def test_record_keeps_the_frozen_dataclass_contract(record):
    cls, fields = type(record), _fields(record)
    twin = _twin(record)
    assert repr(record) == repr(twin)
    assert repr(record).startswith(cls.__name__ + "(" + cls.__slots__[0] + "=")
    values = tuple(fields.values())
    for same in (cls(*values), cls(**fields), cls(*values[:1], **dict(list(fields.items())[1:]))):
        assert same == record and not same != record and same is not record
        assert _fields(same) == fields
    if cls is FrobeniusOutput:  # its verification is a dict, as in the dataclass
        with pytest.raises(TypeError):
            hash(record)
        with pytest.raises(TypeError):
            hash(twin)
    else:
        assert hash(cls(*values)) == hash(record) == hash(values)
    # equality within one class only: never a tuple, the dataclass twin or
    # another record type with the same values
    assert record != values and values != record
    assert record != twin and twin != record
    assert record.__eq__(values) is NotImplemented
    other = next(t for t in RECORD_TYPES if t is not cls)
    assert record.__eq__(object.__new__(other)) is NotImplemented
    # a field changed makes an unequal record
    first = cls.__slots__[0]
    assert cls(**dict(fields, **{first: "changed"})) != record
    # copies and pickles are equal records of the same class
    for same in (copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
        assert type(same) is cls and same == record


@pytest.mark.parametrize("record", RECORDS, ids=lambda r: type(r).__name__)
def test_record_refuses_assignment_and_deletion(record):
    first = type(record).__slots__[0]
    before = getattr(record, first)
    for name in (first, "not_a_field"):
        with pytest.raises(AttributeError):
            setattr(record, name, 1)
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert getattr(record, first) is before


@pytest.mark.parametrize("cls", RECORD_TYPES, ids=lambda c: c.__name__)
def test_record_constructor_checks_its_fields(cls):
    names = cls.__slots__
    values = tuple(range(len(names)))
    assert _fields(cls(*values)) == dict(zip(names, values))
    with pytest.raises(TypeError, match="takes %d field" % len(names)):
        cls(*values, "extra")
    with pytest.raises(TypeError, match="missing field"):
        cls(*values[:-1])
    with pytest.raises(TypeError, match="missing field"):
        cls()
    with pytest.raises(TypeError, match="unexpected field 'bogus'"):
        cls(*values, bogus=1)
    with pytest.raises(TypeError, match="field %r twice" % names[0]):
        cls(*values, **{names[0]: 0})
