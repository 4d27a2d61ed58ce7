"""MPS0 against the brute-force sweep and the dynamic programs it replaced."""

import random
import tracemalloc
from collections import deque
from fractions import Fraction
from itertools import accumulate
from math import inf, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import _reference_scan_trades
from mpslab import (PRESETS, BudgetExceeded, ContractSpec, CostModel, MpsResult,
                    Strategy, brute_force_mps, mps0, pl, validate_membership)
from mpslab import mps as mps_module
from mpslab.distribution import UniverseParams
from mpslab.model import strategy_to_positions
from mpslab.mps import MpsTrade
from mpslab.numeric import as_fraction, as_fractions, scaled


def test_flat_prices_do_nothing(es):
    result = mps0(["2370.00"] * 5, 5, 1, es)
    assert result.pl == 0
    assert result.strategy.is_do_nothing()
    assert result.trades == ()


def test_worked_example(es):
    result = mps0(["2369.50", "2369.75", "2370.00"], 5, 1, es)
    assert result.pl == 15
    assert result.strategy == Strategy((1, 0, -1))
    assert len(result.trades) == 1
    assert (result.trades[0].start, result.trades[0].end, result.trades[0].direction) \
        == (0, 2, 1)


def test_empty_input(es):
    with pytest.raises(ValueError):
        mps0([], 5, 1, es)


def test_single_tick(es):
    result = mps0(["2370.00"], 5, 1, es)
    assert result.pl == 0 and result.strategy == Strategy((0,))


def test_w2_scales_positions(es):
    result = mps0(["2369.00", "2370.00"], 1, 2, es)
    assert result.strategy == Strategy((2, -2))
    assert result.pl == 2 * 50 - 4


def test_reversal_structure(es):
    # up, down, up: profitable swings force long/short/long reversals
    prices = ["2369.00", "2372.00", "2369.50", "2372.50"]
    result = mps0(prices, 1, 1, es)
    trades = result.trades
    assert [t.direction for t in trades] == [1, -1, 1]
    for prev, nxt in zip(trades, trades[1:]):
        assert prev.end == nxt.start    # adjacent trades share the reversal tick
    assert validate_membership(result.strategy, 1)


def test_costs_filter_small_moves(es):
    # one-delta wiggles are unprofitable at $50 cost, so stay out
    prices = ["2370.00", "2370.25", "2370.00", "2370.25"]
    assert mps0(prices, 50, 1, es).pl == 0


def test_matches_brute_force_on_random_grids(es):
    rng = random.Random(20170410)
    for trial in range(60):
        n = rng.randint(2, 8)
        limit = rng.randint(1, 2)
        level = 9000
        prices = []
        for _ in range(n):
            level += rng.randint(-4, 4)
            prices.append(Fraction(level, 4))
        cost = Fraction(rng.randint(0, 2000), 100)
        got = mps0(prices, cost, limit, es)
        expected = brute_force_mps(prices, CostModel.constant(cost, n),
                                   UniverseParams(limit, n), k=es.k)
        assert got.pl == expected.best_pl
        assert validate_membership(got.strategy, limit)
        assert got.strategy in expected.witnesses


def test_tie_break_prefers_fewer_transactions(es):
    # flat prices with zero cost: every strategy ties at 0; pick do-nothing
    result = mps0(["2370.00"] * 4, 0, 1, es)
    assert result.strategy.is_do_nothing()


def test_tie_break_prefers_earliest_entry(es):
    # double top: selling at either top is equal; first occurrence wins
    prices = ["2369.00", "2372.00", "2371.00", "2372.00", "2369.00"]
    result = mps0(prices, 1, 1, es)
    assert result.trades[0].end == 1


def trades_of(strategy):
    """Trades as maximal constant-sign position runs of a strategy, the
    oracle for the trades ``mps0`` reports."""
    positions = strategy_to_positions(strategy).positions
    trades = []
    start = None
    sign = 0
    for i, w in enumerate(positions):
        s = (w > 0) - (w < 0)
        if s != sign:
            if sign != 0:
                trades.append(MpsTrade(start, i, sign))
            start = i if s != 0 else None
            sign = s
    if sign != 0:
        # flat at the end is guaranteed for universe members
        trades.append(MpsTrade(start, len(positions) - 1, sign))
    return tuple(trades)


def test_trades_of_handles_open_end():
    # not flat at the end; the run is closed at the final tick
    trades = trades_of(Strategy((1, 0, 0)))
    assert [(t.start, t.end, t.direction) for t in trades] == [(0, 2, 1)]


def test_trades_of_reversals():
    trades = trades_of(Strategy((1, -2, 1)))
    assert [(t.start, t.end, t.direction) for t in trades] == [(0, 1, 1), (1, 2, -1)]


# --- the two-pass DP against the O(n(2W+1)^2) loop it replaced ---------------

def _reference_mps0(prices, cost_per_transaction, limit, spec):
    """The quadratic DP mps0 used before the two passes, kept as the oracle
    for strategies, P&L and tie-breaks."""
    n = len(prices)
    ps = as_fractions(prices)
    deltas = [spec.to_deltas(x) for x in ps]
    c = as_fraction(cost_per_transaction)
    kd = spec.delta_dollars
    (kd_i, c_i), scale = scaled([kd, c])

    width = 2 * limit + 1
    neg_inf = None
    # state value: (scaled pl, -traded contracts, -sum of i*|U_i|)
    values = [neg_inf] * width
    values[limit] = (0, 0, 0)
    parents: list[list[int]] = []
    for i in range(n):
        price_i = kd_i * deltas[i]
        nxt = [neg_inf] * width
        par = [0] * width
        last = i == n - 1
        for w_new in ((limit,) if last else range(width)):
            best = None
            best_from = 0
            for w_old in range(width):
                v = values[w_old]
                if v is None:
                    continue
                move = w_new - w_old
                moved = abs(move)
                cand = (v[0] - price_i * move - c_i * moved,
                        v[1] - moved,
                        v[2] - i * moved)
                if best is None or cand > best:
                    best = cand
                    best_from = w_old
            nxt[w_new] = best
            par[w_new] = best_from
        values = nxt
        parents.append(par)

    final = values[limit]
    actions = []
    w = limit
    for i in range(n - 1, -1, -1):
        prev = parents[i][w]
        actions.append(w - prev)
        w = prev
    actions.reverse()
    strategy = Strategy(tuple(actions))
    return MpsResult(strategy, Fraction(final[0], scale), trades_of(strategy))


def _chain(steps, base=9000):
    """Quarter-point ES prices along a walk of delta steps from ``base``."""
    level, out = base, []
    for step in steps:
        level += step
        out.append(Fraction(level, 4))
    return out


# walks with flat runs (0 steps), and two-level chains that repeat one
# extreme several times; prices stay positive
_walks = st.lists(st.sampled_from([0, 0, 0, 1, -1, 2, -2, 5, -5]), min_size=1, max_size=40)
_two_levels = st.lists(st.sampled_from([0, 3]), min_size=1, max_size=40).map(
    lambda levels: [b - a for a, b in zip([0] + levels, levels)])
_costs = st.one_of(
    st.just(Fraction(0)),
    st.integers(0, 3000).map(lambda c: Fraction(c, 100)),      # on the cent
    st.integers(0, 30000).map(lambda c: Fraction(c, 1000)),    # off the cent
    st.sampled_from([Fraction(1, 3), Fraction(25, 2), Fraction(2501, 200)]))


@settings(max_examples=300, deadline=None)
@given(st.one_of(_walks, _two_levels), _costs, st.integers(1, 6))
def test_two_pass_matches_quadratic_reference(steps, cost, limit):
    es = PRESETS["ES"]
    prices = _chain(steps)
    assert mps0(prices, cost, limit, es) == _reference_mps0(prices, cost, limit, es)


def test_two_pass_matches_quadratic_reference_seeded_w20(es):
    rng = random.Random(5)
    prices = _chain(rng.choice([0, 0, 1, -1, 2, -2, 4, -4]) for _ in range(300))
    for cost in (Fraction(0), Fraction(468, 100), Fraction(12501, 1000)):
        got = mps0(prices, cost, 20, es)
        assert got == _reference_mps0(prices, cost, 20, es)
        assert got.pl > 0 and len(got.trades) > 1


@settings(max_examples=150, deadline=None)
@given(st.data(), _costs, st.integers(1, 3))
def test_two_pass_matches_brute_force(data, cost, limit):
    es = PRESETS["ES"]
    n_max = {1: 8, 2: 7, 3: 6}[limit]
    steps = data.draw(st.one_of(_walks, _two_levels))
    prices = _chain([0] + steps[:n_max - 1])        # the universe needs n >= 2
    n = len(prices)
    got = mps0(prices, cost, limit, es)
    expected = brute_force_mps(prices, CostModel.constant(cost, n),
                               UniverseParams(limit, n), k=es.k)
    assert got.pl == expected.best_pl
    assert validate_membership(got.strategy, limit)
    assert got.strategy in expected.witnesses


def test_refuses_oversized_tables_before_building_them(es, monkeypatch):
    # only the number of prices counts: the limit scales one scan's actions
    two = ["2370", "2371"]
    assert mps0(two, 1, 10 ** 12, es).pl == 10 ** 12 * mps0(two, 1, 1, es).pl
    monkeypatch.setattr(mps_module, "MAX_PRICES", 5)
    assert mps0(["2370"] * 5, 1, 10 ** 12, es).pl == 0      # at the limit
    monkeypatch.setattr(type(es), "to_deltas", lambda self, x: pytest.fail("work was done"))
    with pytest.raises(BudgetExceeded, match="^6 prices, over the limit of 5$"):
        mps0(["2370"] * 6, 1, 1, es)


def test_converts_each_distinct_price_once(es, monkeypatch):
    calls = []
    real = type(es).to_deltas
    monkeypatch.setattr(type(es), "to_deltas", lambda self, x: calls.append(x) or real(self, x))
    prices = [Fraction(9000 + i % 3, 4) for i in range(30)]
    assert mps0(prices, 1, 2, es) == _reference_mps0(prices, 1, 2, es)
    assert len(calls) == 3 + 30     # 3 distinct prices here, 30 in the reference


# --- the trade scan against the two-pass DP and the slope runs ----------------

def _two_pass_mps0(prices, cost_per_transaction, limit, spec):
    """The O(n(2W+1)) two-pass DP mps0 used before the slope runs, kept as
    the oracle at limits where the quadratic loop is too slow."""
    n = len(prices)
    deltas = [spec.to_deltas(x) for x in as_fractions(prices)]
    c = as_fraction(cost_per_transaction)
    kd = spec.delta_dollars
    (kd_i, c_i), scale = scaled([kd, c])

    width = 2 * limit + 1
    values: list = [None] * width
    values[limit] = (0, 0, 0)
    parents = []
    for i, d in enumerate(deltas):
        price_i = kd_i * d
        up, down = price_i + c_i, price_i - c_i
        best = [None] * width
        par = [0] * width
        # ascending pass, w' <= w: strict > keeps the lowest w' among equal keys
        run = None
        src = 0
        for w in range(width):
            if run is not None:
                run = (run[0] - up, run[1] - 1, run[2] - i)
            v = values[w]
            if v is not None and (run is None or v > run):
                run = v
                src = w
            best[w] = run
            par[w] = src
        # descending pass, w' > w: a tie with the ascending pass stays there
        run = None
        for w in range(width - 1, -1, -1):
            if run is not None:
                run = (run[0] + down, run[1] - 1, run[2] - i)
                b = best[w]
                if b is None or run > b:
                    best[w] = run
                    par[w] = src
            v = values[w]
            if v is not None and (run is None or v >= run):
                run = v
                src = w
        values = best
        parents.append(par)

    final = values[limit]
    actions = []
    w = limit
    for i in range(n - 1, -1, -1):
        prev = parents[i][w]
        actions.append(w - prev)
        w = prev
    actions.reverse()
    strategy = Strategy(tuple(actions))
    return MpsResult(strategy, Fraction(final[0], scale), trades_of(strategy))


def _slope_runs_mps0(prices, cost_per_transaction, limit, spec):
    """The slope-trick DP mps0 used before the trade scan, kept as the
    oracle at any limit: the concave value function over positions carried
    as runs of equal P&L slopes, each tick clamping the slopes into its
    [buy, sell] range, in amortised O(n) time whatever W is."""
    deltas = [spec.to_deltas(x) for x in as_fractions(prices)]
    c = as_fraction(cost_per_transaction)
    kd = spec.delta_dollars
    (kd_i, c_i), scale = scaled([kd, c])

    # runs (P&L slope, count) of V over w = 0..2W, starting as the one
    # reachable state w = W; the infinite slopes are clamped at tick 0
    runs = deque(((inf, limit), (-inf, limit)))
    his, los = [], []
    for d in deltas:
        price_i = kd_i * d
        buy, sell = -price_i - c_i, c_i - price_i
        hi = 0
        while runs and runs[0][0] > sell:
            hi += runs.popleft()[1]
        if hi:
            runs.appendleft((sell, hi))
        popped = 0
        while runs and runs[-1][0] < buy:
            popped += runs.pop()[1]
        if popped:
            runs.append((buy, popped))
        # the best previous state of w is w clamped into [hi, lo]
        his.append(hi)
        los.append(2 * limit - popped)

    actions = []
    w = limit
    for hi, lo in zip(reversed(his), reversed(los)):
        prev = min(max(w, hi), lo)
        actions.append(w - prev)
        w = prev
    actions.reverse()
    strategy = Strategy(tuple(actions))
    pl = -sum(kd_i * d * u + c_i * abs(u) for d, u in zip(deltas, actions))
    return MpsResult(strategy, Fraction(pl, scale), trades_of(strategy))


@settings(max_examples=100, deadline=None)
@given(st.one_of(_walks, _two_levels).map(lambda steps: steps[:25]), _costs,
       st.integers(7, 12))
def test_scan_matches_quadratic_reference_at_wide_limits(steps, cost, limit):
    es = PRESETS["ES"]
    prices = _chain(steps)
    assert mps0(prices, cost, limit, es) == _reference_mps0(prices, cost, limit, es)


def test_scan_matches_two_pass_on_seeded_walks(es):
    rng = random.Random(10)
    costs = (Fraction(0), Fraction(1, 3), Fraction(1, 100), Fraction(468, 100), Fraction(25))
    for trial in range(60):
        n = rng.randint(1, 300)
        if trial % 3 == 2:                 # two-level chain: each extreme repeats
            levels = [rng.choice((0, 3)) for _ in range(n)]
            steps = [b - a for a, b in zip([0] + levels, levels)]
        else:                              # walk with flat runs
            steps = [rng.choice((0, 0, 0, 1, -1, 2, -2, 5, -5)) for _ in range(n)]
        prices = _chain(steps)
        cost, limit = costs[trial % len(costs)], (20, 50)[trial % 2]
        got = mps0(prices, cost, limit, es)
        assert got == _two_pass_mps0(prices, cost, limit, es)
        assert got == _slope_runs_mps0(prices, cost, limit, es)


def _assert_scans_agree(levels, threshold, split):
    """The scan and its reference give the same trades and state over all of
    ``levels``, and again when resumed at ``split`` from the state of the
    first ``split`` levels, as ``OteExtractor.push`` resumes it."""
    scan, start = mps_module.scan_trades, mps_module.SCAN_START
    whole = scan(levels, threshold, start, 0)
    assert whole == _reference_scan_trades(levels, threshold, start, 0)
    head = scan(levels[:split], threshold, start, 0)
    assert head == _reference_scan_trades(levels[:split], threshold, start, 0)
    tail = scan(levels, threshold, head[1], split)
    assert tail == _reference_scan_trades(levels, threshold, head[1], split)
    assert (head[0] + tail[0], tail[1]) == whole


# grid-count levels: walks of -6..6 steps with flat runs, and two-level
# chains whose gap is near the thresholds drawn
_scan_walks = st.lists(st.sampled_from([0, 0, 0, *range(-6, 7)]), min_size=1,
                       max_size=300).map(lambda steps: list(accumulate(steps)))
_scan_two_levels = st.integers(1, 21).flatmap(
    lambda gap: st.lists(st.sampled_from([0, gap]), min_size=1, max_size=300))


@settings(max_examples=300, deadline=None)
@given(st.data(), st.one_of(_scan_walks, _scan_two_levels), st.integers(1, 20))
def test_scan_matches_reference_scan(data, levels, threshold):
    split = data.draw(st.integers(0, len(levels)), label="split")
    _assert_scans_agree(levels, threshold, split)


@pytest.mark.parametrize("threshold", [1, 2, 17])
def test_scan_matches_reference_scan_on_a_long_walk(threshold):
    # the birth thresholds of the mps_w20, pattern_es and ote_es benchmarks
    rng = random.Random(32)
    levels = list(accumulate(rng.choice((0, 0, 1, -1, 2, -2, 3, -3)) for _ in range(10 ** 5)))
    for split in (0, 1, 4_999, 50_000, 10 ** 5):
        _assert_scans_agree(levels, threshold, split)


@settings(max_examples=200, deadline=None)
@given(st.one_of(_walks, _two_levels), _costs, st.sampled_from([2, 3, 7, 50]))
def test_limit_w_is_w_times_the_limit_one_trades(steps, cost, limit):
    es = PRESETS["ES"]
    prices = _chain(steps)
    one, got = mps0(prices, cost, 1, es), mps0(prices, cost, limit, es)
    assert got.strategy == Strategy([limit * a for a in one.strategy.actions])
    assert got.pl == limit * one.pl
    assert got.trades == one.trades == trades_of(got.strategy) == trades_of(one.strategy)
    assert got == _slope_runs_mps0(prices, cost, limit, es)
    assert one == _slope_runs_mps0(prices, cost, 1, es)
    if limit <= 3:
        short = prices[:{2: 7, 3: 6}[limit]]
        if len(short) >= 2:             # the universe needs n >= 2
            expected = brute_force_mps(short, CostModel.constant(cost, len(short)),
                                       UniverseParams(limit, len(short)), k=es.k)
            result = mps0(short, cost, limit, es)
            assert result.pl == expected.best_pl
            assert result.strategy in expected.witnesses


def _strategy_pl(prices, result, cost, spec):
    """The paper's P&L formula over every action of the reported strategy."""
    return pl(prices, result.strategy, CostModel.constant(cost, len(prices)), spec).pl_total


@settings(max_examples=100, deadline=None)
@given(st.lists(st.sampled_from([0, 0, 1, -1, 2, -2, 5, -5]), min_size=1, max_size=300),
       _costs, st.integers(1, 10 ** 6))
def test_reported_pl_is_the_pl_of_the_reported_strategy(steps, cost, limit):
    es = PRESETS["ES"]
    prices = _chain(steps)
    result = mps0(prices, cost, limit, es)
    assert result.pl == _strategy_pl(prices, result, cost, es)


def test_reported_pl_is_the_pl_of_the_reported_strategy_on_a_long_walk(es):
    rng = random.Random(23)
    prices = _chain((rng.choice((0, 0, 1, -1, 2, -2)) for _ in range(10 ** 5)), base=40000)
    cost = Fraction(1, 3)
    for limit in (1, 4, 10 ** 6):
        result = mps0(prices, cost, limit, es)
        assert len(result.trades) > 1000
        assert result.pl == _strategy_pl(prices, result, cost, es)


def _certify(prices, cost, limit, spec, result):
    """mps0's P&L checked by LP duality, in ints scaled to whole cost and
    delta units.  For prices P, cost c and any path q with |q_i - P_i| <= c,
    every strategy in the universe makes -sum(P_i U_i + c|U_i|) <= W TV(q).
    Here q = P + c at each trade-chain minimum and P - c at each maximum,
    constant before the first of these and clamped into the tube after it;
    W TV(q) must equal the reported P&L, which the reported strategy makes,
    and the strategy's actions must be its trades': +direction*W at each
    start and -direction*W at each end."""
    scale = lcm(cost.denominator, spec.delta_dollars.denominator)
    step, c = int(spec.delta_dollars * scale), int(cost * scale)
    p = [step * n for n in spec.grid_counts(prices)]
    actions = [0] * len(p)
    for t in result.trades:
        actions[t.start] += t.direction * limit
        actions[t.end] -= t.direction * limit
    assert tuple(actions) == result.strategy.actions
    anchors = {}
    for t in result.trades:
        for i, side in ((t.start, t.direction), (t.end, -t.direction)):
            assert anchors.setdefault(i, p[i] + side * c) == p[i] + side * c
    first = min(anchors, default=len(p))
    q = [anchors[first] if anchors else max(p) - c] * first
    for i in range(first, len(p)):
        q.append(anchors[i] if i in anchors else min(max(q[-1], p[i] - c), p[i] + c))
    assert all(abs(x - price) <= c for x, price in zip(q, p))
    pl = result.pl * scale
    assert limit * sum(abs(b - a) for a, b in zip(q, q[1:])) == pl
    assert -sum(price * u + c * abs(u) for price, u in zip(p, result.strategy.actions)) == pl


@settings(max_examples=200, deadline=None)
@given(st.lists(st.sampled_from([0, 0, 1, -1, 2, -2, 3, -3, 5, -5]), min_size=1, max_size=500),
       _costs, st.integers(1, 10 ** 6))
def test_mps0_pl_is_certified_by_a_tube_path(steps, cost, limit):
    es = PRESETS["ES"]
    prices = _chain(steps, base=40000)
    _certify(prices, cost, limit, es, mps0(prices, cost, limit, es))


def test_mps0_pl_is_certified_on_a_long_walk(es):
    # ES quoted in grid counts, as `mps` reads a tick file
    spec = ContractSpec("ES", es.delta_dollars, 1)
    rng = random.Random(29)
    prices = list(accumulate((rng.choice((0, 0, 1, -1, 2, -2, 3, -3)) for _ in range(10 ** 5)),
                             initial=9000))
    # birth thresholds of 1 and 3 deltas, 2c/(k delta) off the integers
    for cost, limit in ((Fraction(117, 25), 1), (Fraction(1251, 100), 10 ** 6)):
        result = mps0(prices, cost, limit, spec)
        assert len(result.trades) > 1000
        _certify(prices, cost, limit, spec, result)


@settings(max_examples=200, deadline=None)
@given(st.one_of(_walks, _two_levels), _costs, st.integers(1, 4), st.integers(-50, 50))
def test_mirror_negates_and_translation_keeps_the_strategy(steps, cost, limit, shift):
    # the walks stay within 200 deltas of 2250.00, the mirror's fixed price,
    # so mirrored and shifted prices stay positive
    es = PRESETS["ES"]
    prices = _chain(steps)
    got = mps0(prices, cost, limit, es)
    mirrored = mps0([2 * Fraction(2250) - p for p in prices], cost, limit, es)
    assert mirrored.strategy == -got.strategy
    assert mirrored.pl == got.pl
    assert mirrored.trades == tuple(t._replace(direction=-t.direction) for t in got.trades)
    assert mps0([p + shift * es.delta for p in prices], cost, limit, es) == got


# ES walks of up to 60 ticks in steps of up to 6 deltas, costs on the cent up to $15.00
_es_walks = st.lists(st.integers(-6, 6), min_size=1, max_size=60)
_cent_costs = st.integers(0, 1500).map(lambda c: Fraction(c, 100))


@settings(max_examples=200, deadline=None)
@given(_es_walks, _cent_costs, st.integers(1, 5))
def test_time_reversal_keeps_the_mps_value(steps, cost, limit):
    # the reversed actions make the same P&L on the reversed prices; their
    # positions are the old ones reversed and negated, so in the universe
    es = PRESETS["ES"]
    prices = _chain(steps)
    got = mps0(prices, cost, limit, es)
    backwards = prices[::-1]
    assert mps0(backwards, cost, limit, es).pl == got.pl
    reversed_actions = Strategy(got.strategy.actions[::-1])
    assert validate_membership(reversed_actions, limit)
    assert pl(backwards, reversed_actions, CostModel.constant(cost, len(prices)),
              es).pl_total == got.pl


@settings(max_examples=200, deadline=None)
@given(_es_walks, _cent_costs, st.integers(1, 5))
def test_doubling_k_and_the_cost_doubles_the_mps_value(steps, cost, limit):
    # every strategy's P&L doubles and the birth threshold stays, so the
    # strategy does too
    es = PRESETS["ES"]
    prices = _chain(steps)
    got = mps0(prices, cost, limit, es)
    doubled = mps0(prices, 2 * cost, limit, es._replace(k=2 * es.k))
    assert doubled.pl == 2 * got.pl
    assert doubled.strategy == got.strategy


@settings(max_examples=200, deadline=None)
@given(_es_walks, _cent_costs, st.integers(1, 5))
def test_a_finer_grid_keeps_the_mps_value_and_strategy(steps, cost, limit):
    # every grid count and the birth threshold change on a 1/16-point grid,
    # but every move is a multiple of 0.25 points, and on either grid the
    # threshold is the smallest move in points above 2c/k, so the strategy stays
    es = PRESETS["ES"]
    prices = _chain(steps)
    got = mps0(prices, cost, limit, es)
    fine = mps0(prices, cost, limit, es._replace(delta=Fraction(1, 16)))
    assert fine.pl == got.pl
    assert fine.strategy == got.strategy


def test_memory_does_not_grow_with_the_limit(es):
    tracemalloc.start()
    try:
        result = mps0(["2370.00", "2371.00"], 1, 500_000, es)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.strategy == Strategy((500_000, -500_000))
    assert peak < 1 << 20


@pytest.mark.parametrize("second, cost", [("2371.00", 1), ("2369.00", 1),
                                          ("2370.25", "6.25"), ("2370.25", 7)])
def test_two_ticks_at_the_largest_limit_under_budget(es, second, cost):
    # the largest limit the n(2W+1) budget let through for two ticks, the
    # next one, which it refused, and far past both: all are answered
    for limit in (2_499_999, 2_500_000, 10 ** 12):
        result = mps0(["2370.00", second], cost, limit, es)
        move = es.k * abs(as_fraction(second) - 2370)
        assert result.pl == limit * max(0, move - 2 * as_fraction(cost))
        if result.pl:
            sign = 1 if as_fraction(second) > 2370 else -1
            assert result.strategy == Strategy((sign * limit, -sign * limit))
        else:
            assert result.strategy.is_do_nothing()
