"""Strategy/position bijection and membership checks."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from mpslab import (ContractSpec, CostModel, GridError, PositionSeries,
                    Strategy, Tick, positions_to_strategy,
                    strategy_to_positions, validate_membership)
from mpslab.numeric import as_fraction


def test_positions_to_strategy_known_pairs():
    assert positions_to_strategy(PositionSeries((1, 0, 0))).actions == (1, -1, 0)
    assert positions_to_strategy(PositionSeries((0, 0, 0))).actions == (0, 0, 0)
    assert positions_to_strategy(PositionSeries((1, -1, 0))).actions == (1, -2, 1)


def test_strategy_to_positions_known_pairs():
    assert strategy_to_positions(Strategy((1, 0, -1))).positions == (1, 1, 0)
    assert strategy_to_positions(Strategy((0, 0, 0))).positions == (0, 0, 0)
    assert strategy_to_positions(Strategy((-1, 2, -1))).positions == (-1, 1, 0)


def test_nonzero_w0_offsets_positions():
    assert strategy_to_positions(Strategy((1, -1)), w0=2).positions == (3, 2)


def test_membership():
    assert validate_membership(Strategy((1, -2, 1)), 1)
    assert not validate_membership(Strategy((2, -2)), 1)      # first position 2 > W
    assert not validate_membership(Strategy((1, 0, 0)), 1)    # W_n != 0


@given(st.lists(st.integers(-5, 5), min_size=1, max_size=30),
       st.integers(-3, 3))
def test_bijection_round_trip(actions, w0):
    s = Strategy(tuple(actions))
    assert positions_to_strategy(strategy_to_positions(s, w0)).actions == s.actions


@given(st.lists(st.integers(-4, 4), min_size=1, max_size=30))
def test_bijection_other_direction(positions):
    p = PositionSeries(tuple(positions))
    assert strategy_to_positions(positions_to_strategy(p)).positions == p.positions


def test_contract_grid():
    es = ContractSpec("ES", 50, "0.25")
    assert es.to_deltas("2369.50") == 9478
    assert not es.on_grid("2342.10")
    with pytest.raises(GridError):
        es.to_deltas("2342.10")


def _frozen_to_deltas(spec, price):
    """``ContractSpec.to_deltas`` as a Fraction quotient, before it became one
    integer divmod."""
    p = as_fraction(price)
    n = p / spec.delta
    if n.denominator != 1:
        raise GridError(f"price {p} is not a multiple of delta={spec.delta} ({spec.symbol})")
    return n.numerator


def _grid_outcome(to_deltas, spec, price):
    try:
        return to_deltas(spec, price)
    except GridError as exc:
        return str(exc)


_deltas = st.builds(Fraction, st.integers(1, 400), st.integers(1, 400))


@given(_deltas, st.one_of(
    st.integers(-10 ** 6, 10 ** 6).map(lambda n: ("on grid", n)),
    st.fractions(max_denominator=10 ** 4).map(lambda p: ("anywhere", p))),
    st.sampled_from([Fraction, str]))
def test_to_deltas_matches_the_fraction_quotient(delta, drawn, form):
    spec = ContractSpec("X", 50, delta)
    shape, value = drawn
    price = value * delta if shape == "on grid" else value
    expected = _grid_outcome(_frozen_to_deltas, spec, form(price))
    assert _grid_outcome(ContractSpec.to_deltas, spec, form(price)) == expected
    if shape == "on grid":
        assert expected == value


def test_contract_validation():
    with pytest.raises(ValueError):
        ContractSpec("X", 0, "0.25")
    with pytest.raises(ValueError):
        ContractSpec("X", 50, 0)


def test_tick_invariants():
    from datetime import datetime
    with pytest.raises(ValueError):
        Tick(datetime(2017, 1, 1), -1, 1)
    t = Tick(datetime(2017, 1, 1), "2342", 0)
    assert t.indicative


def test_cost_model():
    cm = CostModel.constant("4.68", 3)
    assert cm.per_contract == (Fraction(117, 25),) * 3
    assert cm.is_constant
    with pytest.raises(ValueError):
        CostModel([-1])
    es = ContractSpec("ES", 50, "0.25")
    eq = CostModel.equity("0.001", ["100", "200"], es)
    assert eq.per_contract == (Fraction(5), Fraction(10))


def test_strategy_negation_and_totals():
    s = Strategy((1, -2, 1))
    assert (-s).actions == (-1, 2, -1)
    assert s.net_action == 0
    assert s.traded_contracts == 4
    assert not s.is_do_nothing()
