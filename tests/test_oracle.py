"""Enumeration oracle: the reference walk, sweeps, brute-force extrema,
budget guard, and ``iter_strategies`` against the reference walk."""

import random
import tracemalloc
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import decode, iter_universe, reference_strategies
from mpslab import (CostModel, Strategy, brute_force_mls, brute_force_mps,
                    iter_strategies, oracle, pl, positions_to_strategy,
                    validate_membership, verify)
from mpslab.distribution import UniverseParams, pl_variance
from mpslab.numeric import as_fraction, as_fractions, money_scale, scaled_ints
from mpslab.oracle import (BudgetExceeded, EmpiricalPlVariance, UniverseSums,
                           empirical_pl_variance, sweep)


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


def _swept_chunks(p):
    """``sweep(p)`` and the lengths of the chunks that sweep walked."""
    lengths, real = [], oracle._chunks

    def spy(*args):
        for block in real(*args):
            lengths.append(len(block))
            yield block

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(oracle, "_chunks", spy)
        swept = sweep(p)
    return swept, lengths


def test_iter_strategies_matches_the_reference_walk():
    # the universes up to 10^4 each fit one chunk; W = 1, n = 10 spans three
    for p in [*verify.default_pairs(10 ** 4), UniverseParams(1, 10)]:
        assert list(iter_strategies(p)) == reference_strategies(p), p


def test_every_member_validates():
    for s in iter_strategies(UniverseParams(2, 4)):
        assert validate_membership(s, 2)


def _empirical_action_counts(p, budget=oracle.DEFAULT_BUDGET):
    """Exact action-type counts by full sweep, m -> count; they sum to n(2W+1)^(n-1)."""
    counts = sweep(p, budget).action_counts
    assert sum(counts.values()) == p.n * p.size
    return counts


def test_empirical_counts_goldens():
    d = _empirical_action_counts(UniverseParams(3, 5))
    assert d[-3] == 1274
    d13 = _empirical_action_counts(UniverseParams(1, 3))
    assert [d13[m] for m in range(-2, 3)] == [1, 8, 9, 8, 1]
    assert sum(d13.values()) == 27


def test_budget_guard():
    with pytest.raises(BudgetExceeded):
        _empirical_action_counts(UniverseParams(1, 20), budget=10 ** 4)
    with pytest.raises(BudgetExceeded):
        iter_strategies(UniverseParams(5, 12), budget=10 ** 6)


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


def test_brute_force_witnesses_span_chunks_in_index_order(es):
    # W = 1, n = 10: 19,683 strategies in three chunks of 6,561
    p = UniverseParams(1, 10)
    assert [len(c) for c in oracle._chunks(p, oracle.DEFAULT_BUDGET, oracle._CHUNK_ROWS)] \
        == [6561] * 3
    strategies = tuple(reference_strategies(p))
    # flat prices at zero cost: every strategy ties for best and for worst
    flat, free = ["2370.00"] * p.n, CostModel.constant(0, p.n)
    assert brute_force_mps(flat, free, p, k=50).witnesses == strategies
    assert brute_force_mls(flat, free, p, k=50).witnesses == strategies
    # one delta up and down at $6.25 a contract: a round trip costs one move
    prices = ["2370.00", "2370.25"] * (p.n // 2)
    costs = CostModel.constant("6.25", p.n)
    values = [pl(prices, s, costs, es).pl_total for s in strategies]
    best = brute_force_mps(prices, costs, p, k=50)
    assert best.best_pl == max(values)
    assert best.witnesses == tuple(s for s, v in zip(strategies, values) if v == best.best_pl)
    assert len(best.witnesses) == 1146
    worst = brute_force_mls(prices, costs, p, k=50)
    assert worst.worst_pl == min(values)
    assert worst.witnesses == tuple(s for s, v in zip(strategies, values) if v == worst.worst_pl)


def test_sweep_matches_direct_enumeration():
    p = UniverseParams(2, 4)
    sums = sweep(p)
    strategies = reference_strategies(p)
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
        strategies = reference_strategies(p)
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
    for block in oracle._chunks(p, oracle.DEFAULT_BUDGET, oracle._CHUNK_ROWS):
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
    real = oracle._chunks

    def counting(p, *args):
        walked.append(p)
        return real(p, *args)

    monkeypatch.setattr(oracle, "_chunks", counting)
    pairs = verify.default_pairs(2000)
    for p in pairs:
        assert all(r.ok for r in verify.verify_pair(p, budget=2000))
    assert walked == pairs


def _reference_sweep(p, chunk_rows=1 << 16):
    """sweep as it was: its own int8 walk and int64 matmuls, exact while
    W <= 63 (no int8 wrap) and no int64 sum wraps."""
    n = p.n
    counts = np.zeros(4 * p.limit + 1, dtype=np.int64)
    slice_abs = np.zeros(n, dtype=np.int64)
    slice_row_abs = np.zeros(n, dtype=np.int64)
    gw = np.zeros((n, n), dtype=np.int64)
    gu = np.zeros((n, n), dtype=np.int64)
    ga = np.zeros((n, n), dtype=np.int64)
    max_row = -1
    max_row_count = 0
    for lo in range(0, p.size, chunk_rows):
        hi = min(lo + chunk_rows, p.size)
        idx = np.arange(lo, hi, dtype=np.int64)
        block = np.zeros((hi - lo, n), dtype=np.int8)
        for col in range(n - 1):
            block[:, col] = (idx % p.base) - p.limit
            idx //= p.base
        u = block.astype(np.int16)
        u[:, 1:] -= block[:, :-1]
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


def _fields(sums):
    """Every UniverseSums field, arrays as nested lists of ints."""
    out = {}
    for name, value in sums._asdict().items():
        if isinstance(value, np.ndarray):
            assert value.dtype == np.int64
            value = value.tolist()
        out[name] = value
    return out


def _direct_fields(p):
    """The sweep's fields by plain Python sums over every strategy."""
    n, w = p.n, p.limit
    rows = [(ps.positions, positions_to_strategy(ps).actions) for ps in iter_universe(p)]
    counts = Counter(m for _, u in rows for m in u)
    slice_sq = tuple(sum(u[i] ** 2 for _, u in rows) for i in range(n))
    totals = [sum(map(abs, u)) for _, u in rows]
    max_row = max(totals)
    return {
        "params": p,
        "action_counts": {m: counts.get(m, 0) for m in range(-2 * w, 2 * w + 1)},
        "slice_abs": tuple(sum(abs(u[i]) for _, u in rows) for i in range(n)),
        "slice_sq": slice_sq,
        "slice_row_abs": tuple(sum(u[i] * t for (_, u), t in zip(rows, totals))
                               for i in range(n)),
        "gram_positions": [[sum(x[i] * x[l] for x, _ in rows) for l in range(n)]
                           for i in range(n)],
        "gram_actions": [[sum(u[i] * u[l] for _, u in rows) for l in range(n)]
                         for i in range(n)],
        "gram_abs_actions": [[sum(abs(u[i] * u[l]) for _, u in rows) for l in range(n)]
                             for i in range(n)],
        "total_abs": sum(totals),
        "max_abs_row": max_row,
        "max_abs_row_count": totals.count(max_row),
    }


def test_sweep_matches_frozen_int64_sweep_on_verify_universes():
    for p in verify.default_pairs(10 ** 4):
        assert _fields(sweep(p)) == _fields(_reference_sweep(p)), p


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_sweep_matches_frozen_int64_sweep_for_any_chunk_rows(data):
    w = data.draw(st.integers(1, 6))
    max_n = 2
    while (2 * w + 1) ** max_n <= 3000:
        max_n += 1
    p = UniverseParams(w, data.draw(st.integers(2, max_n)))
    rows = data.draw(st.integers(1, p.size + 10))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(oracle, "_CHUNK_ROWS", rows)
        swept, chunks = _swept_chunks(p)
    assert sum(chunks) == p.size and max(chunks) <= rows
    assert _fields(swept) == _fields(_reference_sweep(p, chunk_rows=rows))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_padded_sweep_is_exact_on_both_counting_paths_with_a_short_last_chunk(data):
    # actions counted in pairs from int8 (W <= 31, n in every residue mod 4,
    # so 0-3 pad columns) or int16 (32 <= W <= 63), or by np.unique (W >= 64);
    # chunks of 2(2W+1)^k rows never divide the odd universe size, so the
    # last chunk is short
    path = data.draw(st.sampled_from(["int8 pairs", "int16 pairs", "unique"]))
    if path == "int8 pairs":
        residue = data.draw(st.integers(0, 3))
        n = data.draw(st.sampled_from([m for m in range(2, 9) if m % 4 == residue]))
        top = 31
        while (2 * top + 1) ** (n - 1) > 3000:
            top -= 1
        w = data.draw(st.integers(1, top))
    else:
        n, w = 2, data.draw(st.integers(32, 63) if path == "int16 pairs" else st.integers(64, 200))
    p = UniverseParams(w, n)
    rows = data.draw(st.sampled_from(
        [2 * p.base ** k for k in range(n - 1) if p.size <= 512 * p.base ** k]))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(oracle, "_CHUNK_ROWS", rows)
        swept, chunks = _swept_chunks(p)
    assert sum(chunks) == p.size and 0 < chunks[-1] < chunks[0] == rows
    expected = _fields(_reference_sweep(p, chunk_rows=rows)) if w <= 63 else _direct_fields(p)
    assert _fields(swept) == expected


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_position_chunks_pad_to_width_with_zero_columns(data):
    w = data.draw(st.integers(1, 6))
    max_n = 2
    while (2 * w + 1) ** max_n <= 3000:
        max_n += 1
    p = UniverseParams(w, data.draw(st.integers(2, max_n)))
    rows = data.draw(st.integers(1, p.size + 10))
    width = data.draw(st.integers(p.n, p.n + 6))
    plain = list(oracle._chunks(p, oracle.DEFAULT_BUDGET, rows))
    padded = list(oracle._chunks(p, oracle.DEFAULT_BUDGET, rows, width))
    # without width the blocks stay (rows, n): the per-row references rely on it
    assert all(block.shape[1] == p.n for block in plain)
    assert [block.shape for block in padded] == [(len(block), width) for block in plain]
    for block, wide in zip(plain, padded):
        assert wide.dtype == block.dtype
        assert np.array_equal(wide[:, :p.n], block)
        assert not wide[:, p.n:].any()


def test_sweep_exact_past_int8_positions():
    # W = 200: int8 positions used to wrap, slice_sq read (2682328, 2682328)
    p = UniverseParams(200, 2)
    sums = sweep(p)
    assert sums.slice_sq == (5373400, 5373400)
    assert _fields(sums) == _direct_fields(p)
    assert _fields(sweep(UniverseParams(64, 3))) == _direct_fields(UniverseParams(64, 3))
    assert brute_force_mps([1, 2], [0, 0], p).best_pl == 200   # used to read 127


def _first_chunk(p):
    return next(oracle._chunks(p, oracle.DEFAULT_BUDGET, oracle._CHUNK_ROWS))


def test_chunk_dtypes_follow_the_limit():
    assert _first_chunk(UniverseParams(127, 2)).dtype == np.int8
    assert _first_chunk(UniverseParams(128, 2)).dtype == np.int16
    assert _first_chunk(UniverseParams(40000, 2)).dtype == np.int32
    assert oracle._actions_of(_first_chunk(UniverseParams(31, 2)), 31).dtype == np.int8
    assert oracle._actions_of(_first_chunk(UniverseParams(32, 2)), 32).dtype == np.int16


def test_chunks_keep_float64_sums_exact(monkeypatch):
    # a chunk of R rows sums at most R*4nW^2, which must stay below 2^53
    for p in (UniverseParams(10 ** 5, 2), UniverseParams(1000, 3)):
        rows = max(_swept_chunks(p)[1])
        assert 1 <= rows and rows * 4 * p.n * p.limit ** 2 < 2 ** 53
    # under a larger row cap that bound binds: at 8*10^10 a row, W = 10^5,
    # n = 2 sweeps its 200,001 rows in (2^53 - 1) // (8*10^10) = 112,589
    p = UniverseParams(10 ** 5, 2)
    monkeypatch.setattr(oracle, "_CHUNK_ROWS", 1 << 20)
    swept, chunks = _swept_chunks(p)
    assert chunks == [112589, 87412]
    assert swept.gram_positions[0][0] == 10 ** 5 * (10 ** 5 + 1) * (2 * 10 ** 5 + 1) // 3


def test_verify_universes_sum_in_float32():
    # a silent fallback to float64 would undo the float32 sweep's speed-up
    for p in verify.default_pairs(10 ** 6):
        assert oracle._sum_dtype(p) is np.float32, p
    assert oracle._sum_dtype(UniverseParams(10 ** 5, 2)) is np.float64


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_sweep_chunks_stay_below_their_dtype_bound(data):
    w = data.draw(st.integers(1, 400))
    max_n = 2
    while (2 * w + 1) ** max_n <= 5000:
        max_n += 1
    p = UniverseParams(w, data.draw(st.integers(2, max_n)))
    per_row = 4 * p.n * p.limit ** 2
    rows = data.draw(st.integers(1, 1 << 16))
    used, real = [], oracle._sum_dtype

    def spy(q):
        used.append(real(q))
        return used[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(oracle, "_CHUNK_ROWS", rows)
        mp.setattr(oracle, "_sum_dtype", spy)
        chunks = _swept_chunks(p)[1]
        dtype = used[-1]
    assert used == [dtype]
    assert (dtype is np.float32) == (rows * per_row < 2 ** 24)
    assert sum(chunks) == p.size
    assert all(r * per_row < 2 ** (np.finfo(dtype).nmant + 1) for r in chunks)


def test_sweep_matches_frozen_int64_sweep_in_either_dtype(monkeypatch):
    # _CHUNK_ROWS at the most rows that keep float32 exact, then one more
    rng = random.Random(15)
    for _ in range(8):
        p = UniverseParams(rng.randint(1, 40), rng.randint(2, 3))
        edge = (2 ** 24 - 1) // (4 * p.n * p.limit ** 2)
        for rows, dtype in ((edge, np.float32), (edge + 1, np.float64)):
            monkeypatch.setattr(oracle, "_CHUNK_ROWS", rows)
            assert oracle._sum_dtype(p) is dtype
            assert _fields(sweep(p)) == _fields(_reference_sweep(p, chunk_rows=rows)), (p, rows)


def test_sweep_fills_one_set_of_chunk_buffers_per_universe():
    # W = 1, n = 13: 6,561-row chunks 16 columns wide.  Fresh float, action
    # and row-sum arrays in every chunk peaked at about 2.5 MB traced
    p = UniverseParams(1, 13)
    sweep(p)                        # numpy's lazily built state, untraced
    tracemalloc.start()
    try:
        sums = sweep(p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 << 20
    assert _fields(sums) == _fields(_reference_sweep(p))


def test_large_limits_are_exact_or_refused():
    # W = 3*10**6, n = 2 is inside the default budget; its sums would pass
    # 2^63 (sum W_1^2 alone is about 1.8e19), so the sweep refuses it up front
    with pytest.raises(BudgetExceeded, match="overflow int64"):
        sweep(UniverseParams(3 * 10 ** 6, 2))
    p = UniverseParams(10 ** 5, 2)
    assert sweep(p).gram_positions[0][0] == 10 ** 5 * (10 ** 5 + 1) * (2 * 10 ** 5 + 1) // 3
    result = brute_force_mps([1, 2], [0, 0], UniverseParams(10 ** 6, 2))
    assert result.best_pl == 10 ** 6
    assert result.witnesses == (Strategy((10 ** 6, -10 ** 6)),)
    # universes whose row indices or actions leave int64
    with pytest.raises(BudgetExceeded, match="past int64"):
        next(oracle._chunks(UniverseParams(2 ** 62, 2), 2 ** 64, oracle._CHUNK_ROWS))
    with pytest.raises(BudgetExceeded, match="64-bit"):
        brute_force_mps([1, 2], [0, 0], UniverseParams(2 ** 61, 2), budget=2 ** 64)


def test_brute_force_extrema_exact_past_int64():
    p = UniverseParams(6, 2)
    # int64 values used to wrap to 8446744073709551621
    assert brute_force_mps([1, 2 * 10 ** 18], [0, 0], p).best_pl == 11999999999999999994
    # int64 prices used to raise OverflowError
    best = brute_force_mps([1, 10 ** 19], [0, 0], p)
    assert best.best_pl == 6 * (10 ** 19 - 1)
    assert best.witnesses == (Strategy((6, -6)),)
    worst = brute_force_mls([1, 10 ** 19], [0, 0], p)
    assert worst.worst_pl == -6 * (10 ** 19 - 1)
    assert worst.witnesses == (Strategy((-6, 6)),)
    assert brute_force_mps([1, 10 ** 19], CostModel.constant(10 ** 19, 2), p).best_pl == 0


def test_brute_force_chunks_are_not_sized_by_the_float_bound(monkeypatch):
    # brute force computes in int64 or Python ints, so only _CHUNK_ROWS caps
    # its chunks; under the float64 bound W = 3*10**6, n = 2 took 48,001
    # chunks of 125 rows
    calls = []
    real = oracle._actions_of

    def counting(positions, limit):
        calls.append(len(positions))
        return real(positions, limit)

    monkeypatch.setattr(oracle, "_actions_of", counting)
    p = UniverseParams(3 * 10 ** 6, 2)
    assert brute_force_mps([1, 2], [0, 0], p).best_pl == 3 * 10 ** 6
    assert len(calls) == -(-p.size // oracle._CHUNK_ROWS) == 733
    assert sum(calls) == p.size
    calls.clear()
    assert brute_force_mls([1, 2], [0, 0], UniverseParams(10 ** 6, 2)).worst_pl == -10 ** 6
    assert len(calls) == -(-UniverseParams(10 ** 6, 2).size // oracle._CHUNK_ROWS) == 245
