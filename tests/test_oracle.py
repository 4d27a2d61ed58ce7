"""Enumeration oracle: decode, sweeps, brute-force extrema, budget guard."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mpslab import (CostModel, Strategy, brute_force_mls, brute_force_mps,
                    decode, empirical_action_counts, iter_strategies,
                    iter_universe, oracle, validate_membership, verify)
from mpslab.distribution import UniverseParams, pl_variance
from mpslab.numeric import as_fraction, as_fractions, money_scale, scaled_ints
from mpslab.oracle import (BudgetExceeded, EmpiricalPlVariance, empirical_pl_variance,
                           position_chunks, sweep)


def test_decode_reference_rows():
    p = UniverseParams(1, 4)
    assert decode(0, p).positions == (-1, -1, -1, 0)
    assert decode(13, p).positions == (0, 0, 0, 0)
    assert decode(26, p).positions == (1, 1, 1, 0)


def test_decode_range_checks():
    p = UniverseParams(1, 3)
    with pytest.raises(ValueError):
        decode(-1, p)
    with pytest.raises(ValueError):
        decode(9, p)


def test_decode_injective_small_universes():
    for w, n in ((1, 4), (2, 3), (3, 2)):
        p = UniverseParams(w, n)
        seen = {tuple(decode(i, p).positions) for i in range(p.size)}
        assert len(seen) == p.size


def test_every_member_validates():
    for s in iter_strategies(UniverseParams(2, 4)):
        assert validate_membership(s, 2)


def test_empirical_counts_goldens():
    d = empirical_action_counts(UniverseParams(3, 5))
    assert d.counts[-3] == 1274
    d13 = empirical_action_counts(UniverseParams(1, 3))
    assert [d13.counts[m] for m in range(-2, 3)] == [1, 8, 9, 8, 1]
    assert sum(d13.counts.values()) == 27


def test_budget_guard():
    with pytest.raises(BudgetExceeded):
        empirical_action_counts(UniverseParams(1, 20), budget=10 ** 4)
    with pytest.raises(BudgetExceeded):
        list(iter_universe(UniverseParams(5, 12), budget=10 ** 6))


def test_brute_force_mps_flat(es):
    result = brute_force_mps(["2370.00"] * 4, CostModel.constant(5, 4),
                             UniverseParams(1, 4), k=50)
    assert result.best_pl == 0
    assert result.witnesses == (Strategy((0, 0, 0, 0)),)


def test_brute_force_mps_worked_example(es):
    result = brute_force_mps(["2369.50", "2369.75", "2370.00"],
                             CostModel.constant(5, 3), UniverseParams(1, 3), k=50)
    assert result.best_pl == 15
    assert result.witnesses == (Strategy((1, 0, -1)),)


def test_brute_force_mps_nonnegative(es):
    result = brute_force_mps(["2370.00", "2369.50", "2369.75"],
                             CostModel.constant(50, 3), UniverseParams(1, 3), k=50)
    assert result.best_pl >= 0


def test_brute_force_mls_flat_costs():
    prices = ["100.00"] * 4
    result = brute_force_mls(prices, CostModel.constant(1, 4),
                             UniverseParams(1, 4), k=1)
    assert result.worst_pl == -6
    assert Strategy((1, -2, 2, -1)) in result.witnesses
    assert Strategy((-1, 2, -2, 1)) in result.witnesses


def test_brute_force_mls_zero_cost():
    result = brute_force_mls(["100.00"] * 3, CostModel.constant(0, 3),
                             UniverseParams(1, 3), k=1)
    assert result.worst_pl == 0


def test_sweep_matches_direct_enumeration():
    p = UniverseParams(2, 4)
    sums = sweep(p)
    strategies = list(iter_strategies(p))
    # slice sums
    for i in range(p.n):
        assert sums.slice_abs[i] == sum(abs(s.actions[i]) for s in strategies)
        assert sums.slice_sq[i] == sum(s.actions[i] ** 2 for s in strategies)
    # gram entries
    for i in range(p.n):
        for l in range(p.n):
            assert sums.gram_actions[i][l] == sum(
                s.actions[i] * s.actions[l] for s in strategies)
    assert sums.max_abs_row == max(s.traded_contracts for s in strategies)


def test_empirical_pl_variance_cross_sum_zero():
    p = UniverseParams(1, 4)
    prices = ["2369.50", "2369.75", "2369.25", "2370.00"]
    out = empirical_pl_variance(prices, "4.68", p, 50)
    assert out.cross_sum == 0
    assert out.var_total == out.var_price_leg + out.var_cost_leg


def test_sweep_slice_row_abs_matches_direct_enumeration():
    for p in (UniverseParams(1, 5), UniverseParams(2, 4), UniverseParams(3, 3)):
        strategies = list(iter_strategies(p))
        assert sweep(p).slice_row_abs == tuple(
            sum(s.actions[i] * s.traded_contracts for s in strategies) for i in range(p.n))


def _reference_empirical_pl_variance(prices, cost, p, k):
    """empirical_pl_variance as it was: its own pass over the universe with
    per-row int64 products, exact only while no product or sum wraps."""
    ps = as_fractions(prices)
    c = as_fraction(cost)
    kf = as_fraction(k)
    rel = [x - ps[0] for x in ps]
    scale = money_scale(rel)
    n_rel = np.array(scaled_ints(rel, scale), dtype=np.int64)
    s = p.size
    sum_d2 = sum_t = sum_t2 = sum_dt = 0
    for block in position_chunks(p):
        u = block.astype(np.int64)
        u[:, 1:] -= block[:, :-1]
        d = u @ n_rel
        t = np.abs(u).sum(axis=1)
        sum_d2 += int((d * d).sum())
        sum_t += int(t.sum())
        sum_t2 += int((t * t).sum())
        sum_dt += int((d * t).sum())
    unit = kf / scale
    var_i = unit * unit * Fraction(sum_d2, s - 1)
    var_ii = c * c * Fraction(s * sum_t2 - sum_t * sum_t, s * (s - 1))
    var_total = var_i + var_ii + 2 * unit * c * Fraction(sum_dt, s - 1)
    return EmpiricalPlVariance(var_i, var_ii, var_total, sum_dt)


@settings(max_examples=8, deadline=None)
@given(st.data())
def test_pl_variance_from_sweep_matches_per_row_pass(data):
    # rational chains with moves of at most 5 ticks: no int64 wrap in the reference
    for p in verify.default_pairs(10 ** 4):
        denominator = data.draw(st.sampled_from([1, 3, 4, 8, 100]))
        level = data.draw(st.integers(1, 10 ** 6))
        moves = data.draw(st.lists(st.integers(-5, 5), min_size=p.n - 1, max_size=p.n - 1))
        prices = [Fraction(level + sum(moves[:i]), denominator) for i in range(p.n)]
        cost = data.draw(st.fractions(0, 50, max_denominator=100))
        k = data.draw(st.fractions(Fraction(1, 10), 100, max_denominator=10))
        assert empirical_pl_variance(prices, cost, p, k) == \
            _reference_empirical_pl_variance(prices, cost, p, k)


def test_empirical_pl_variance_exact_where_int64_wraps():
    # the per-row pass squared D_j = 2*10**9 in int64 and returned a negative variance
    p = UniverseParams(1, 3)
    prices = [1, 1 + 10 ** 9, 1]
    closed = pl_variance(prices, 1, p, 1)
    swept = empirical_pl_variance(prices, 1, p, 1)
    assert closed.var_price_leg == 15 * 10 ** 17
    assert (swept.var_price_leg, swept.var_cost_leg, swept.var_total) == \
        (closed.var_price_leg, closed.var_cost_leg, closed.var_total)


def test_verify_pair_walks_each_universe_once(monkeypatch):
    walked = []
    real = oracle.position_chunks

    def counting(p, *args, **kwargs):
        walked.append(p)
        return real(p, *args, **kwargs)

    monkeypatch.setattr(oracle, "position_chunks", counting)
    pairs = verify.default_pairs(2000)
    for p in pairs:
        assert all(r.ok for r in verify.verify_pair(p, budget=2000))
    assert walked == pairs
