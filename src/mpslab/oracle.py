"""Brute-force enumeration of the strategy universe.

Ground truth for every closed form: each integer in [0, (2W+1)^(n-1)) is
expanded in base 2W+1, the digits minus W give the positions W_1..W_{n-1}
(W_n = 0 appended), and adjacent differences give the actions.  The sweep
streams the universe in fixed-size index chunks instead of materialising it,
with all counting done on the chunk.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Sequence

import numpy as np

from .distribution import ActionDistribution, UniverseParams
from .model import PositionSeries, Strategy, positions_to_strategy
from .numeric import Rational, as_fraction, as_fractions, money_scale, scaled_ints

DEFAULT_BUDGET = 10 ** 7
_CHUNK_ROWS = 1 << 16


class BudgetExceeded(RuntimeError):
    """The universe is larger than the configured sweep budget."""


def _check_budget(p: UniverseParams, budget: int) -> None:
    if p.size > budget:
        raise BudgetExceeded(
            f"universe (2W+1)^(n-1) = {p.size} exceeds budget {budget}; "
            f"a budget of at least {p.size} is required"
        )


def decode(index: int, p: UniverseParams) -> PositionSeries:
    """Position series for one universe index."""
    if not 0 <= index < p.size:
        raise ValueError(f"index {index} out of [0, {p.size})")
    positions = []
    for _ in range(p.n - 1):
        index, digit = divmod(index, p.base)
        positions.append(digit - p.limit)
    positions.append(0)
    return PositionSeries(tuple(positions))


def iter_universe(p: UniverseParams, budget: int = DEFAULT_BUDGET) -> Iterator[PositionSeries]:
    """Each position series of the universe once, in index order."""
    _check_budget(p, budget)
    return (decode(index, p) for index in range(p.size))


def iter_strategies(p: UniverseParams, budget: int = DEFAULT_BUDGET) -> Iterator[Strategy]:
    """Each strategy of the universe once, in index order."""
    return map(positions_to_strategy, iter_universe(p, budget))


def position_chunks(p: UniverseParams, budget: int = DEFAULT_BUDGET,
                    chunk_rows: int = _CHUNK_ROWS) -> Iterator[np.ndarray]:
    """Stream the universe as int8 position arrays of shape (rows, n)."""
    _check_budget(p, budget)
    base, w, n = p.base, p.limit, p.n
    for lo in range(0, p.size, chunk_rows):
        hi = min(lo + chunk_rows, p.size)
        idx = np.arange(lo, hi, dtype=np.int64)
        block = np.zeros((hi - lo, n), dtype=np.int8)
        for col in range(n - 1):
            block[:, col] = (idx % base) - w
            idx //= base
        yield block


def _actions_of(positions: np.ndarray) -> np.ndarray:
    u = positions.astype(np.int16)
    u[:, 1:] -= positions[:, :-1]
    return u


@dataclass(frozen=True)
class UniverseSums:
    """All per-universe exact sums one sweep can deliver."""

    params: UniverseParams
    action_counts: dict[int, int]          # m -> count over all slices
    slice_abs: tuple[int, ...]             # per slice, sum |U_i|
    slice_sq: tuple[int, ...]              # per slice, sum U_i^2
    slice_row_abs: tuple[int, ...]         # per slice, sum_j U_ij T_j, T_j = sum_i |U_ij|
    gram_positions: np.ndarray             # n x n, sum W_i W_l
    gram_actions: np.ndarray               # n x n, sum U_i U_l
    gram_abs_actions: np.ndarray           # n x n, sum |U_i| |U_l|
    total_abs: int                         # sum over everything of |U|
    max_abs_row: int                       # max over strategies of sum |U_i|
    max_abs_row_count: int                 # how many strategies reach it

    def pl_variance(self, prices: Sequence[Rational], cost: Rational,
                    k: Rational) -> EmpiricalPlVariance:
        """Exact sample variance of PL, PL^I, PL^II over the swept universe.

        PL^I_j = -k*delta*D_j and PL^II_j = -C*T_j with integer D_j = sum_i
        U_ij r_i (r the prices relative to the first tick, scaled to ints)
        and T_j = sum_i |U_ij|.  The sums over j are read off the sweep in
        exact ints: sum D^2 = r' G_U r, sum T^2 = the sum of G_|U|, and
        sum D T = r . slice_row_abs.
        """
        p = self.params
        ps = as_fractions(prices)
        if len(ps) != p.n:
            raise ValueError(f"expected {p.n} prices")
        c = as_fraction(cost)
        kf = as_fraction(k)
        rel = [x - ps[0] for x in ps]
        scale = money_scale(rel)
        r = scaled_ints(rel, scale)  # P_i - P_1, scaled
        s = p.size
        sum_d2 = sum(ri * gi * rl for ri, row in zip(r, self.gram_actions.tolist())
                     for gi, rl in zip(row, r))
        sum_t = self.total_abs
        sum_t2 = sum(sum(row) for row in self.gram_abs_actions.tolist())
        sum_dt = sum(ri * x for ri, x in zip(r, self.slice_row_abs))
        unit = kf / scale  # dollars per scaled price unit
        var_i = unit * unit * Fraction(sum_d2, s - 1)  # mean of PL^I is exactly 0
        var_ii = c * c * Fraction(s * sum_t2 - sum_t * sum_t, s * (s - 1))
        var_total = var_i + var_ii + 2 * unit * c * Fraction(sum_dt, s - 1)
        return EmpiricalPlVariance(var_i, var_ii, var_total, sum_dt)


def sweep(p: UniverseParams, budget: int = DEFAULT_BUDGET) -> UniverseSums:
    """Full enumeration sweep accumulating every sum the tests compare."""
    n = p.n
    counts = np.zeros(4 * p.limit + 1, dtype=np.int64)
    slice_abs = np.zeros(n, dtype=np.int64)
    slice_row_abs = np.zeros(n, dtype=np.int64)
    gw = np.zeros((n, n), dtype=np.int64)
    gu = np.zeros((n, n), dtype=np.int64)
    ga = np.zeros((n, n), dtype=np.int64)
    max_row = -1
    max_row_count = 0
    for block in position_chunks(p, budget):
        u = _actions_of(block)
        counts += np.bincount((u + 2 * p.limit).ravel(), minlength=4 * p.limit + 1)
        w64 = block.astype(np.int64)
        u64 = u.astype(np.int64)
        a64 = np.abs(u).astype(np.int64)
        rows = a64.sum(axis=1)
        slice_abs += a64.sum(axis=0)
        slice_row_abs += u64.T @ rows
        gw += w64.T @ w64
        gu += u64.T @ u64
        ga += a64.T @ a64
        row_max = int(rows.max())
        if row_max > max_row:
            max_row, max_row_count = row_max, 0
        if row_max == max_row:
            max_row_count += int((rows == row_max).sum())
        # free this chunk's int64 copies before the next chunk's are built;
        # held across iterations they add about 5 MB to verify's peak RSS
        del w64, u64, a64, rows

    return UniverseSums(
        params=p,
        action_counts={m - 2 * p.limit: int(c) for m, c in enumerate(counts)},
        slice_abs=tuple(int(x) for x in slice_abs),
        slice_sq=tuple(int(x) for x in np.diagonal(gu)),
        slice_row_abs=tuple(int(x) for x in slice_row_abs),
        gram_positions=gw,
        gram_actions=gu,
        gram_abs_actions=ga,
        total_abs=int(slice_abs.sum()),
        max_abs_row=max_row,
        max_abs_row_count=max_row_count,
    )


def empirical_action_counts(p: UniverseParams, budget: int = DEFAULT_BUDGET) -> ActionDistribution:
    """Exact action-type counts by full sweep."""
    sums = sweep(p, budget)
    return ActionDistribution(sums.action_counts, p.n * p.size)


@dataclass(frozen=True)
class EmpiricalPlVariance:
    var_price_leg: Fraction
    var_cost_leg: Fraction
    var_total: Fraction
    cross_sum: int        # sum_j D_j T_j; zero by the mirror-pair argument


def empirical_pl_variance(prices: Sequence[Rational], cost: Rational,
                          p: UniverseParams, k: Rational,
                          budget: int = DEFAULT_BUDGET) -> EmpiricalPlVariance:
    """Exact sample variance of PL, PL^I, PL^II by full sweep; see
    ``UniverseSums.pl_variance``."""
    return sweep(p, budget).pl_variance(prices, cost, k)


@dataclass(frozen=True)
class MpsSweepResult:
    best_pl: Fraction
    witnesses: tuple[Strategy, ...]


@dataclass(frozen=True)
class MlsSweepResult:
    worst_pl: Fraction
    witnesses: tuple[Strategy, ...]


def _cost_vector(costs, n: int) -> tuple[Fraction, ...]:
    cs = as_fractions(costs.per_contract if hasattr(costs, "per_contract") else costs)
    if len(cs) != n:
        raise ValueError(f"expected {n} costs, got {len(cs)}")
    return cs


def _scan_extremum(prices, costs, p, k, budget, sign):
    ps = as_fractions(prices)
    if len(ps) != p.n:
        raise ValueError(f"expected {p.n} prices")
    cs = _cost_vector(costs, p.n)
    kf = as_fraction(k)
    dollar_prices = [kf * x for x in ps]
    scale = money_scale(list(dollar_prices) + list(cs))
    p_int = np.array(scaled_ints(dollar_prices, scale), dtype=np.int64)
    c_int = np.array(scaled_ints(cs, scale), dtype=np.int64)
    best = None
    witnesses: list[int] = []
    row_base = 0
    for block in position_chunks(p, budget):
        u = _actions_of(block).astype(np.int64)
        value = sign * (-(u @ p_int) - np.abs(u) @ c_int)
        top = int(value.max())
        if best is None or top > best:
            best = top
            witnesses = []
        if top == best:
            witnesses.extend(int(j) + row_base for j in np.flatnonzero(value == best))
        row_base += block.shape[0]
    strategies = tuple(positions_to_strategy(decode(j, p)) for j in sorted(witnesses))
    return Fraction(sign * best, scale), strategies


def brute_force_mps(prices: Sequence[Rational], costs, p: UniverseParams,
                    k: Rational = 1, budget: int = DEFAULT_BUDGET) -> MpsSweepResult:
    """Maximum-profit strategy by exhaustive sweep; never below zero."""
    best, witnesses = _scan_extremum(prices, costs, p, k, budget, sign=1)
    return MpsSweepResult(best, witnesses)


def brute_force_mls(prices: Sequence[Rational], costs, p: UniverseParams,
                    k: Rational = 1, budget: int = DEFAULT_BUDGET) -> MlsSweepResult:
    """Maximum-loss strategy by exhaustive sweep; never above zero."""
    worst, witnesses = _scan_extremum(prices, costs, p, k, budget, sign=-1)
    return MlsSweepResult(worst, witnesses)
