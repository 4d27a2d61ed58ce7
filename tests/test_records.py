"""Value semantics of every public record type: construction by position
and by keyword, unchanged validation messages, immutability, equality and
hash by value, and the operations that stay TypeErrors."""

import pickle
import re
from datetime import date, datetime, time
from fractions import Fraction
from functools import cache

import pytest

from conftest import ticks_from_deltas, zigzag_levels
from mpslab import distribution, ingest, magma, mps, oracle, ote, vectors, verify
from mpslab.model import ContractSpec, CostModel, PositionSeries, Record, Strategy, Tick
from mpslab.pl import PlBreakdown, PriceIncrementStats

F = Fraction
P = distribution.UniverseParams
S = Strategy((1, -1))
T = Tick(datetime(2017, 4, 10, 9, 0), F(9001, 4), 3)
ES = ContractSpec("ES", F(50), F(1, 4), time(17, 0), time(15, 15))
COLS = ingest.TickColumns.of([T], ES)
OTE_COLS = ingest.TickColumns.of(ticks_from_deltas(zigzag_levels([0, 8, 0, 8]), ES), ES)


def _ote_record(birth_shift=0):
    record = ote.extract_otes(OTE_COLS, F(4999, 100), F(117, 25), ES)[0]
    return tuple(record._replace(birth=record.birth + birth_shift))


@cache
def _sums():
    """The same arrays each call, which compare only by identity."""
    return tuple(oracle.sweep(P(1, 3)))


# type -> (fields, fields of a different value, [(bad fields, message)], hashable);
# fields may be a function that builds them
CASES = {
    ContractSpec: (("ES", F(50), F(1, 4), time(17, 0), time(15, 15)),
                   ("ES", F(50), F(1, 2), None, None),
                   [(("ES", 0, 1), "k must be positive"),
                    (("ES", 50, F(-1, 4)), "delta must be positive")], True),
    Tick: ((datetime(2017, 4, 10, 9, 0), F(9001, 4), 3, None),
           (datetime(2017, 4, 10, 9, 0), F(9001, 4), 0, "I"),
           [((datetime(2017, 4, 10), 0, 1), "tick price must be positive"),
            ((datetime(2017, 4, 10), 1, -1), "tick size must be non-negative")], True),
    Strategy: (((1, -1),), ((-1, 1),), [(((),), "a strategy needs at least one action")], True),
    PositionSeries: (((1, 0), 0), ((1, 0), 1),
                     [(((),), "a position series needs at least one entry")], True),
    CostModel: (((F(5), F(5)),), ((F(5),),),
                [(((F(-1),),), "transaction costs must be non-negative")], True),
    distribution.UniverseParams: ((1, 3), (2, 3),
                                  [((0, 3), "position limit must be >= 1"),
                                   ((1, 1), "formulas need n >= 2 (n=1 leaves only the "
                                            "do-nothing strategy)")], True),
    distribution.UniverseCounts: ((9, 27, 9, 18), (9, 27, 9, 17), [], True),
    distribution.IndustryGain: ((F(3), F(-1, 3)), (F(3), F(-1, 2)), [], True),
    distribution.ExtremeGain: ((4, 2, (S, -S), 0, 1), (4, 2, (S, -S), 0, 2), [], True),
    distribution.SliceSums: ((0, 6, 6), (0, 6, 7), [], True),
    distribution.PlVariance: ((F(1), F(2), F(3)), (F(1), F(2), F(4)), [], True),
    PlBreakdown: ((F(3), F(5), F(-2)), (F(4), F(5), F(-1)),
                  [((F(3), F(5), F(-1)), "breakdown legs must sum to the total")], True),
    PriceIncrementStats: ((F(1), F(0), F(2), F(3), F(0)), (F(1), F(0), F(2), F(3), F(1)),
                          [], True),
    mps.MpsTrade: ((0, 2, 1), (0, 2, -1), [], True),
    mps.MpsResult: ((S, F(5), (mps.MpsTrade(0, 1, 1),)), (S, F(6), ()), [], True),
    verify.CheckResult: ((1, 3, "counts", True), (1, 3, "counts", False), [], True),
    magma.CappedInt: ((1, 3), (-1, 3), [((1, 0), "limit must be >= 1"),
                                        ((5, 3), "|5| exceeds limit 3")], True),
    magma.CayleyStats: ((9, 2, 7, 2), (9, 2, 7, 3), [], True),
    oracle.EmpiricalPlVariance: ((F(1), F(2), F(3), 0), (F(1), F(2), F(3), 1), [], True),
    oracle.MpsSweepResult: ((F(5), (S,)), (F(5), ()), [], True),
    oracle.MlsSweepResult: ((F(-5), (S,)), (F(-5), ()), [], True),
    ingest.Session: ((date(2017, 4, 10), COLS), (date(2017, 4, 11), COLS), [], True),
    ingest.SessionizeResult: (((ingest.Session(date(2017, 4, 10), COLS),), 0), ((), 0), [],
                              True),
    vectors.OrthFamily: (("eta", 2, (S,)), ("eta", 3, (S,)), [], True),
    vectors.MaxOrthResult: ((1, (S,)), (2, (S,)), [], True),
    ote.OteStats: ((2, F(1), F(0), 1, F(2), 1, F(2), 1.4, None, None, ((0.0, 2.0, 2),),
                    ((F(0), F(1, 2)), (F(2), F(1))), ((F(0), 1), (F(2), 1))),
                   (3, F(1), F(0), 1, F(2), 1, F(2), 1.4, None, None, ((0.0, 2.0, 2),),
                    ((F(0), F(1, 2)), (F(2), F(1))), ((F(0), 1), (F(2), 1))), [], True),
    ote.Tolerances: ((0, 1), (1, 0), [], True),
    ote.OteRecord: (_ote_record, lambda: _ote_record(birth_shift=1), [], True),
    oracle.UniverseSums: (_sums, lambda: (P(1, 4),) + _sums()[1:], [], False),
}

# operations that raise TypeError on these records, as they did before
TYPE_ERRORS = {
    Strategy: [lambda a, b: a < b, lambda a, b: list(a), lambda a, b: a + b],
    PositionSeries: [lambda a, b: a < b, lambda a, b: list(a)],
    CostModel: [lambda a, b: a < b, lambda a, b: list(a)],
    magma.CappedInt: [lambda a, b: a + b, lambda a, b: a * 2, lambda a, b: a < b,
                      lambda a, b: list(a)],
}


def _names(cls):
    return cls._fields if issubclass(cls, tuple) else cls.__slots__


def _build(fields):
    return fields() if callable(fields) else fields


@pytest.mark.parametrize("cls", list(CASES), ids=lambda cls: cls.__name__)
def test_record_value_semantics(cls):
    make_fields, other_fields, invalid, hashable = CASES[cls]
    fields = _build(make_fields)
    names = _names(cls)
    record = cls(*fields)
    # positional and keyword construction, and the fields read back
    assert cls(**dict(zip(names, fields))) == record
    assert tuple(getattr(record, name) for name in names) == fields
    # the record kinds: a NamedTuple, or a slotted Record that is no tuple
    assert isinstance(record, tuple) != isinstance(record, Record)
    # validation messages, also through _replace
    for bad, message in invalid:
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            cls(*bad)
        if isinstance(record, tuple):
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                record._replace(**dict(zip(names, bad)))
    if isinstance(record, Record):               # its own __reduce__
        assert pickle.loads(pickle.dumps(record)) == record
    # immutability
    with pytest.raises(AttributeError):
        setattr(record, names[0], fields[0])
    with pytest.raises(AttributeError):
        record.not_a_field = 1
    # equality and hash by value; != agrees with ==
    same, other = cls(*_build(make_fields)), cls(*_build(other_fields))
    assert same == record and not same != record
    assert other != record and not other == record
    assert record != object() and not record == object()
    if hashable:
        assert hash(same) == hash(record)
    else:
        with pytest.raises(TypeError):
            hash(record)
    for op in TYPE_ERRORS.get(cls, []):
        with pytest.raises(TypeError):
            op(record, same)
