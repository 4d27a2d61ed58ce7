"""Exact profit-and-loss evaluation.

The marked-to-market P&L of a strategy over prices P_1..P_n with costs
C_1..C_n is

    PL = k * (P_n * sum(U_i) - sum(P_i * U_i)) - sum(C_i * |U_i|) - C_n * |sum(U_i)|

where k converts full price points to dollars.  Each price is converted
once to its grid count N_i = P_i / delta, refusing one off the grid, so the
price leg is k*delta times an integer sum; costs and results are exact
Fractions.  A three-tick ES example (buy 2369.50, sell 2370.00 at
$5/contract) comes out as exactly $15.00.
"""

from __future__ import annotations

from fractions import Fraction
from operator import mul
from typing import NamedTuple, Sequence

from . import mps
from .model import ContractSpec, CostModel, Strategy, _checked_make
from .numeric import Rational, as_fractions


class _PlFields(NamedTuple):
    pl_total: Fraction
    pl_price_leg: Fraction
    pl_cost_leg: Fraction


class PlBreakdown(_PlFields):
    """Total P&L split into its price leg and its cost leg."""

    __slots__ = ()
    _make = classmethod(_checked_make)

    def __new__(cls, pl_total: Fraction, pl_price_leg: Fraction, pl_cost_leg: Fraction):
        if pl_total != pl_price_leg + pl_cost_leg:
            raise ValueError("breakdown legs must sum to the total")
        return super().__new__(cls, pl_total, pl_price_leg, pl_cost_leg)


def _legs(deltas: Sequence[int], u: Sequence[int], cs: Sequence[Fraction],
          kd: Fraction) -> tuple[Fraction, Fraction]:
    """The price leg k*delta*(N_n*sum(U_i) - sum(N_i*U_i)) and the cost leg
    -sum(C_i*|U_i|) - C_n*|sum(U_i)| of one strategy on grid counts N_i."""
    net = sum(u)
    price_leg = kd * (deltas[-1] * net - sum(map(mul, deltas, u)))
    cost_leg = -sum(c * abs(a) for c, a in zip(cs, u) if a) - cs[-1] * abs(net)
    return price_leg, cost_leg


def pl(prices: Sequence[Rational], strategy: Strategy, costs: CostModel,
       spec: ContractSpec) -> PlBreakdown:
    """Evaluate the marked-to-market P&L of one strategy."""
    n = len(strategy)
    if len(prices) != n or len(costs) != n:
        raise ValueError(
            f"length mismatch: {len(prices)} prices, {n} actions, {len(costs)} costs"
        )
    price_leg, cost_leg = _legs(spec.grid_counts(prices), strategy.actions,
                                costs.per_contract, spec.delta_dollars)
    return PlBreakdown(price_leg + cost_leg, price_leg, cost_leg)


def pl_matrix(price_scenarios: Sequence[Sequence[Rational]],
              strategies: Sequence[Sequence[int]],
              costs: Sequence[Sequence[Rational]],
              spec: ContractSpec) -> list[list[Fraction]]:
    """P&L matrix -k P^T U - C^T abs(U) for q price scenarios x S strategies.

    ``price_scenarios`` and ``costs`` are n x q (column per scenario),
    ``strategies`` is n x S (column per strategy).  Strategies must have zero
    net action so the marking term vanishes; the result is q x S.
    """
    n = len(price_scenarios)
    if n == 0 or len(strategies) != n or len(costs) != n:
        raise ValueError("price, strategy, and cost matrices must share n rows")
    q = len(price_scenarios[0])
    s_count = len(strategies[0])
    if any(len(row) != q for row in price_scenarios) or any(len(row) != q for row in costs):
        raise ValueError("ragged scenario matrix")
    if any(len(row) != s_count for row in strategies):
        raise ValueError("ragged strategy matrix")
    delta_cols = [spec.grid_counts(col) for col in zip(*price_scenarios)]
    c_cols = [as_fractions(col) for col in zip(*costs)]
    u_cols = [[int(a) for a in col] for col in zip(*strategies)]
    for j, col in enumerate(u_cols):
        if sum(col) != 0:
            raise ValueError(f"strategy column {j} has non-zero net action")
    kd = spec.delta_dollars
    return [[sum(_legs(deltas, u, cs, kd)) for u in u_cols]
            for deltas, cs in zip(delta_cols, c_cols)]


def pl_prefix(prices: Sequence[Rational], strategy: Strategy, costs: CostModel,
              spec: ContractSpec) -> list[Fraction]:
    """Growing-prefix P&L, marking any open position at the prefix end.

    Element j equals
    k*delta*sum_{i<=j} U_i (N_j - N_i) - sum_{i<=j} C_i |U_i| - C_n |sum_{i<=j} U_i|.
    The final element equals pl() when the net action is zero.
    """
    n = len(strategy)
    if len(prices) != n or len(costs) != n:
        raise ValueError("length mismatch")
    deltas = spec.grid_counts(prices)
    u = strategy.actions
    cs = costs.per_contract
    kd = spec.delta_dollars
    out = []
    sum_u = 0
    sum_nu = 0          # sum N_i * U_i
    sum_cost = Fraction(0)
    for j in range(n):
        sum_u += u[j]
        sum_nu += deltas[j] * u[j]
        sum_cost += cs[j] * abs(u[j])
        mark = kd * (deltas[j] * sum_u - sum_nu)
        out.append(mark - sum_cost - cs[-1] * abs(sum_u))
    return out


def ote_pl(start_tick_index: int, end_tick_index: int, limit: int,
           prices: Sequence[Rational], costs: CostModel,
           spec: ContractSpec) -> Fraction:
    """P&L of one optimal trade: k*delta*W*|N_e - N_s| - W*(C_s + C_e)."""
    s, e = start_tick_index, end_tick_index
    if s >= e:
        raise ValueError("trade start must precede its end")
    if limit < 1:
        raise ValueError("position limit must be >= 1")
    move = abs(spec.to_deltas(prices[s]) - spec.to_deltas(prices[e]))
    cs = costs.per_contract
    return limit * mps.trade_pl(move, (cs[s] + cs[e]) / 2, spec)


class PriceIncrementStats(NamedTuple):
    """Sample statistics of a price chain and of its adjacent increments."""

    mean_price: Fraction
    mean_increment: Fraction
    var_price: Fraction
    var_increment: Fraction
    relation_residual: Fraction


def price_increment_stats(prices: Sequence[Rational]) -> PriceIncrementStats:
    """Sample means/variances of P_i and dP_i plus the identity residual.

    The two sample variances are interdependent; the residual of the exact
    identity linking them is returned and is zero for any input.
    """
    n = len(prices)
    if n < 3:
        raise ValueError("need at least 3 prices")
    ps = as_fractions(prices)
    dps = [ps[i] - ps[i - 1] for i in range(1, n)]
    mean_p = sum(ps) / n
    mean_dp = sum(dps) / (n - 1)
    var_p = sum((p - mean_p) ** 2 for p in ps) / (n - 1)
    var_dp = sum((d - mean_dp) ** 2 for d in dps) / (n - 2)
    rhs = (
        (n - 2) * var_dp
        + ps[-1] ** 2
        + sum(ps[i] ** 2 - 2 * ps[i] * dps[i - 1] for i in range(1, n))
        - n * mean_p ** 2
    ) / (n - 1) + mean_dp ** 2
    return PriceIncrementStats(mean_p, mean_dp, var_p, var_dp, var_p - rhs)
