"""P&L engine: the closed formula, its matrix and prefix forms, Eq-17 trades."""

from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mpslab import (PRESETS, ContractSpec, CostModel, GridError, Strategy, iter_strategies,
                    ote_pl, pl, pl_matrix, pl_prefix, price_increment_stats)
from mpslab.distribution import UniverseParams
from mpslab.numeric import as_fraction
from mpslab.pl import PlBreakdown

PRICES3 = ("2369.50", "2369.75", "2370.00")
ES = PRESETS["ES"]


def test_worked_es_example(es):
    out = pl(PRICES3, Strategy((1, 0, -1)), CostModel.constant(5, 3), es)
    assert out.pl_total == 15
    assert out.pl_price_leg == 25
    assert out.pl_cost_leg == -10


def test_do_nothing_is_zero(es):
    out = pl(PRICES3, Strategy((0, 0, 0)), CostModel.constant(5, 3), es)
    assert out.pl_total == 0


def test_two_tick_hand_case():
    from mpslab import ContractSpec
    unit = ContractSpec("U", 1, 1)
    out = pl(["100", "101"], Strategy((1, -1)), CostModel.constant(0, 2), unit)
    assert out.pl_total == 1


def test_marking_term_for_open_position(es):
    # buy one, never close: marked to market at P_n with closing cost C_n
    out = pl(PRICES3, Strategy((1, 0, 0)), CostModel.constant(5, 3), es)
    assert out.pl_total == Fraction(50) * Fraction(1, 2) - 5 - 5


def test_length_mismatch(es):
    with pytest.raises(ValueError):
        pl(PRICES3, Strategy((1, -1)), CostModel.constant(5, 2), es)


def test_off_grid_price(es):
    from mpslab import GridError
    with pytest.raises(GridError):
        pl(["2369.51", "2369.75", "2370.00"], Strategy((1, 0, -1)),
           CostModel.constant(5, 3), es)


def test_antisymmetry_over_universe(es):
    costs = CostModel.constant(5, 3)
    for s in iter_strategies(UniverseParams(1, 3)):
        a = pl(PRICES3, s, costs, es).pl_total
        b = pl(PRICES3, -s, costs, es).pl_total
        assert a + b == -2 * sum(costs.per_contract[i] * abs(u)
                                 for i, u in enumerate(s.actions))


def test_pl_matrix_flat_prices_zero_cost(es):
    strategies = [list(s.actions) for s in iter_strategies(UniverseParams(1, 3))]
    columns = list(zip(*strategies))  # n x S
    prices = [["2370.00"]] * 3
    costs = [[0]] * 3
    out = pl_matrix(prices, columns, costs, es)
    assert out == [[0] * 9]


def test_pl_matrix_reduces_to_pl(es):
    out = pl_matrix([[p] for p in PRICES3], [[1], [0], [-1]], [[5]] * 3, es)
    assert out == [[15]]


def test_pl_matrix_worked_column(es):
    strategies = [list(s.actions) for s in iter_strategies(UniverseParams(1, 3))]
    columns = [list(col) for col in zip(*strategies)]
    prices = [[p] for p in PRICES3]
    costs = [[5]] * 3
    out = pl_matrix(prices, columns, costs, es)
    j = strategies.index([1, 0, -1])
    assert out[0][j] == 15
    # matrix column equals pl() per strategy for zero-net strategies
    for j, s in enumerate(strategies):
        assert out[0][j] == pl(PRICES3, Strategy(tuple(s)), CostModel.constant(5, 3), es).pl_total


def test_pl_matrix_rejects_open_strategies(es):
    with pytest.raises(ValueError):
        pl_matrix([[p] for p in PRICES3], [[1], [0], [0]], [[5]] * 3, es)


def test_pl_prefix_single_tick_cost(es):
    out = pl_prefix(["2369.50"], Strategy((1,)), CostModel.constant(5, 1), es)
    assert out == [-10]  # -2 C |U_1|


def test_pl_prefix_all_zero(es):
    out = pl_prefix(PRICES3, Strategy((0, 0, 0)), CostModel.constant(5, 3), es)
    assert out == [0, 0, 0]


@given(st.lists(st.integers(-2, 2), min_size=2, max_size=8))
def test_pl_prefix_final_matches_pl_for_flat(actions):
    # force zero net action
    actions = actions + [-sum(actions)]
    s = Strategy(tuple(actions))
    n = len(s)
    prices = [Fraction(9000 + 2 * i, 4) for i in range(n)]
    costs = CostModel.constant("4.68", n)
    assert pl_prefix(prices, s, costs, ES)[-1] == pl(prices, s, costs, ES).pl_total


def test_ote_pl_examples(es):
    costs = CostModel.constant("4.68", 2)
    assert ote_pl(0, 1, 1, ["2350.00", "2352.00"], costs, es) == Fraction("90.64")
    assert ote_pl(0, 1, 1, ["2350.00", "2350.00"], costs, es) == Fraction("-9.36")
    assert ote_pl(0, 1, 1, ["2350.00", "2354.25"], costs, es) == Fraction("203.14")
    with pytest.raises(ValueError):
        ote_pl(1, 1, 1, ["2350.00", "2352.00"], costs, es)


def test_price_increment_stats_flat():
    out = price_increment_stats(["1", "1", "1"])
    assert out.var_price == 0
    assert out.relation_residual == 0


def test_price_increment_stats_line():
    out = price_increment_stats(["1", "2", "3"])
    assert out.mean_price == 2
    assert out.mean_increment == 1
    assert out.var_increment == 0
    assert out.relation_residual == 0


@given(st.lists(st.integers(1, 400), min_size=3, max_size=50))
def test_price_increment_identity_random(levels):
    prices = [Fraction(l, 4) for l in levels]
    assert price_increment_stats(prices).relation_residual == 0


def test_price_increment_needs_three():
    with pytest.raises(ValueError):
        price_increment_stats(["1", "2"])


def _frozen_pl(prices, strategy, costs, spec):
    """``pl`` as it was before it converted each distinct price once and
    skipped zero actions in the cost leg: the oracle for both."""
    n = len(strategy)
    if len(prices) != n or len(costs) != n:
        raise ValueError(
            f"length mismatch: {len(prices)} prices, {n} actions, {len(costs)} costs"
        )
    deltas = [spec.to_deltas(p) for p in prices]
    u = strategy.actions
    cs = costs.per_contract
    net = sum(u)
    price_leg = spec.delta_dollars * (deltas[-1] * net - sum(d * a for d, a in zip(deltas, u)))
    cost_leg = -sum(c * abs(a) for c, a in zip(cs, u)) - cs[-1] * abs(net)
    return PlBreakdown(price_leg + cost_leg, price_leg, cost_leg)


CENTS = ContractSpec("CENTS", 50, "0.01")
# a price in cents written as each number type pl takes; a float reads as
# its repr, and Fraction(c / 100) is the float's binary value, which equals
# that float but is off the cent grid unless c / 100 is dyadic; the last
# three kinds are refused, Decimal('sNaN') before it can be hashed
_PRICE_KINDS = (lambda c: f"{c // 100}.{c % 100:02d}", lambda c: Fraction(c, 100),
                lambda c: Decimal(c).scaleb(-2), lambda c: c / 100, lambda c: Fraction(c / 100),
                lambda c: c // 100, lambda c: Fraction(c, 300), lambda c: f"{c}.001",
                lambda c: Decimal("sNaN"))
_priced = st.builds(lambda c, kind: kind(c), st.integers(1, 12) | st.just(25),
                    st.sampled_from(_PRICE_KINDS[:6]) | st.sampled_from(_PRICE_KINDS))


def _outcome(f, *args):
    try:
        return f(*args)
    except (ValueError, ArithmeticError) as exc:
        return type(exc), str(exc)


@settings(max_examples=300, deadline=None)
@given(st.data(), st.sampled_from([ES, CENTS]), st.integers(1, 12))
def test_pl_matches_its_per_price_form(data, spec, n):
    prices = data.draw(st.lists(_priced, min_size=n, max_size=n) | st.lists(
        st.sampled_from([Fraction(2350), Fraction(9401, 4), Fraction(7, 100)]), min_size=n,
        max_size=n))
    strategy = Strategy(data.draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n)))
    costs = CostModel(data.draw(st.lists(st.sampled_from([0, Fraction(1, 3), 5]),
                                         min_size=n, max_size=n)))
    assert _outcome(pl, prices, strategy, costs, spec) \
        == _outcome(_frozen_pl, prices, strategy, costs, spec)


@pytest.mark.parametrize("prices", [
    # 0.07 reads as 7/100, on the cent grid; Fraction(0.07) is its binary
    # value, equal to it and off the grid
    [0.07, Fraction(0.07)], [Fraction(0.07), 0.07],
    # Decimal('sNaN') has no hash
    ["0.07", Decimal("sNaN"), "0.07"], ["0.071", Decimal("sNaN"), "0.07"]])
def test_prices_grid_counts_cannot_share_are_refused_like_their_per_price_form(prices):
    strategy = Strategy((1,) + (0,) * (len(prices) - 2) + (-1,))
    costs = CostModel.constant(0, len(prices))
    expected = _outcome(_frozen_pl, prices, strategy, costs, CENTS)
    assert expected[0] in (GridError, ValueError)
    assert _outcome(pl, prices, strategy, costs, CENTS) == expected


def _frozen_pl_matrix(price_scenarios, strategies, costs, spec):
    """``pl_matrix`` as it was before it shared ``pl``'s legs: the oracle."""
    n = len(price_scenarios)
    if n == 0 or len(strategies) != n or len(costs) != n:
        raise ValueError("price, strategy, and cost matrices must share n rows")
    q = len(price_scenarios[0])
    s_count = len(strategies[0])
    if any(len(row) != q for row in price_scenarios) or any(len(row) != q for row in costs):
        raise ValueError("ragged scenario matrix")
    if any(len(row) != s_count for row in strategies):
        raise ValueError("ragged strategy matrix")
    delta_cols = [[spec.to_deltas(price_scenarios[i][r]) for i in range(n)] for r in range(q)]
    c_cols = [[as_fraction(costs[i][r]) for i in range(n)] for r in range(q)]
    u_cols = [[int(strategies[i][j]) for i in range(n)] for j in range(s_count)]
    for j, col in enumerate(u_cols):
        if sum(col) != 0:
            raise ValueError(f"strategy column {j} has non-zero net action")
    kd = spec.delta_dollars
    return [[-kd * sum(d * a for d, a in zip(delta_cols[r], u))
             - sum(c * abs(a) for c, a in zip(c_cols[r], u)) for u in u_cols] for r in range(q)]


def _frozen_ote_pl(s, e, limit, prices, costs, spec):
    """``ote_pl`` as it was before it priced the trade with ``mps.trade_pl``."""
    if s >= e:
        raise ValueError("trade start must precede its end")
    if limit < 1:
        raise ValueError("position limit must be >= 1")
    ns = spec.to_deltas(prices[s])
    ne = spec.to_deltas(prices[e])
    cs = costs.per_contract
    return spec.delta_dollars * limit * abs(ne - ns) - limit * (cs[s] + cs[e])


def _matrix(data, rows, cols, cell, ragged):
    """A rows x cols matrix of drawn cells, one row a cell short if ragged."""
    m = [data.draw(st.lists(cell, min_size=cols, max_size=cols)) for _ in range(rows)]
    if ragged and m and cols:
        m[data.draw(st.integers(0, rows - 1))].pop()
    return m


# prices on both the ES and the cent grid, as each number type pl takes
_on_both_grids = st.sampled_from(["2350.00", "2350.25", 2350, Fraction(9401, 4),
                                  Decimal("2350.50"), 2350.75])


@settings(max_examples=300, deadline=None)
@given(st.data(), st.sampled_from([ES, CENTS]), st.integers(0, 5), st.integers(0, 3),
       st.integers(0, 3), st.sampled_from(["prices", "costs", "strategies"]) | st.none(),
       st.booleans())
def test_pl_matrix_matches_its_frozen_form(data, spec, n, q, s_count, ragged, on_grid):
    prices = _matrix(data, n, q, _on_both_grids if on_grid else _priced | _on_both_grids,
                     ragged == "prices")
    costs = _matrix(data, n, q, st.sampled_from([0, 5, Fraction(1, 3), -2, Fraction(-7, 4)]),
                    ragged == "costs")
    strategies = _matrix(data, n, s_count, st.integers(-2, 2), ragged == "strategies")
    if n and data.draw(st.booleans()):      # close every column on the last tick
        for j in range(len(strategies[-1])):
            strategies[-1][j] -= sum(row[j] for row in strategies if j < len(row))
    assert _outcome(pl_matrix, prices, strategies, costs, spec) \
        == _outcome(_frozen_pl_matrix, prices, strategies, costs, spec)


@settings(max_examples=300, deadline=None)
@given(st.data(), st.sampled_from([ES, CENTS]), st.integers(2, 5), st.integers(0, 3),
       st.booleans())
def test_ote_pl_matches_its_frozen_form(data, spec, n, limit, on_grid):
    prices = data.draw(st.lists(_on_both_grids if on_grid else _priced, min_size=n, max_size=n))
    costs = CostModel(data.draw(st.lists(st.sampled_from([0, Fraction(1, 3), 5, "4.68"]),
                                         min_size=n, max_size=n)))
    s = data.draw(st.integers(0, n - 2))
    e = data.draw(st.integers(s + 1, n - 1) | st.integers(0, s))    # the end before or at s
    assert _outcome(ote_pl, s, e, limit, prices, costs, spec) \
        == _outcome(_frozen_ote_pl, s, e, limit, prices, costs, spec)
