"""Optimal trading elements: extraction, scenarios, statistics, patterns."""

import math
import random
from bisect import bisect_left, bisect_right
from collections import Counter
from datetime import datetime, timedelta
from decimal import Decimal
from fractions import Fraction
from itertools import accumulate

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from conftest import (_reference_scan_trades, record_values, records_values, ticks_from_deltas,
                      zigzag_levels)
from test_mps import _slope_runs_mps0
from mpslab import (PRESETS, GridError, OteExtractor, OteType, Scenario, Tick, Tolerances,
                    birth_threshold, extract_otes, mps0, on_permitted_grid, ote_stats,
                    permitted_profit_grid, sample_stats, serialize_ticks)
from mpslab.ingest import TickColumns, parse_ticks
from mpslab import mps as mps_module
from mpslab import ote as ote_module
from mpslab.numeric import as_fraction
from mpslab.ote import HeadShouldersMonitor, OteStats, head_and_shoulders_hits

FC100 = "100"
FC4999 = "49.99"
C = "4.68"

SESSION_PROFITS = ["403.14", "453.14", "665.64", "778.14",
                 "615.64", "265.64", "278.14", "453.14"]
SESSION_DURATIONS = [10866, 32395, 16313, 5933, 4953, 1651, 3703, 3219]


def test_birth_threshold_goldens(es):
    assert birth_threshold(FC100, es) == 17          # 4.25 full points
    assert birth_threshold("74.99", es) == 12        # 3 full points
    assert birth_threshold(0, es) == 1


def test_permitted_grid_goldens(es):
    grid = permitted_profit_grid(FC4999, C, es, 4)
    assert [float(x) for x in grid] == [90.64, 103.14, 115.64, 128.14, 140.64]
    assert grid[1] - grid[0] == Fraction("12.50")
    assert permitted_profit_grid(FC100, C, es, 0)[0] == Fraction("203.14")
    with pytest.raises(ValueError):
        permitted_profit_grid("4.00", C, es, 3)


def test_on_permitted_grid(es):
    assert on_permitted_grid("90.64", FC4999, C, es)
    assert on_permitted_grid("103.14", FC4999, C, es)
    assert not on_permitted_grid("96.64", FC4999, C, es)
    assert not on_permitted_grid("78.14", FC4999, C, es)   # below the minimum
    # the same refusal as permitted_profit_grid: C at or above FC has no lattice
    for fc, c in ((C, FC4999), (C, C)):
        with pytest.raises(ValueError, match="actual cost C must be below the filtering cost FC"):
            on_permitted_grid("90.64", fc, c, es)


@pytest.mark.parametrize("cost", ["-5", "-0.01", Fraction(-1, 3)])
def test_the_ote_api_refuses_a_negative_cost(es, cost):
    # with C < 0 below FC, the extractor used to build and the grid read
    # (222.50, 235, 247.50) at FC = 100, C = -5; the text is the CLI's and mps0's
    message = "cost must be non-negative"
    with pytest.raises(ValueError, match=message):
        mps0(["2370.00", "2371.00"], cost, 1, es)
    for call in (lambda: OteExtractor(FC100, cost, es),
                 lambda: extract_otes(ticks_from_deltas([0, 20, 0], es), FC100, cost, es),
                 lambda: permitted_profit_grid(FC100, cost, es, 2),
                 lambda: on_permitted_grid("235", FC100, cost, es)):
        with pytest.raises(ValueError, match=f"^{message}$"):
            call()


def test_triangle_wave_all_profits_on_grid_start(es):
    # amplitude exactly equal to the 8-delta threshold of FC=49.99
    levels = zigzag_levels([0, 8, 0, 8, 0, 8, 0])
    ticks = ticks_from_deltas(levels, es)
    records = extract_otes(ticks, FC4999, C, es)
    assert len(records) == 6
    assert all(r.pl == Fraction("90.64") for r in records)
    assert [r.ote_type for r in records[:2]] == [OteType.BOTE, OteType.SOTE]
    closed = [r for r in records if r.closed]
    assert len(closed) == 5 and not records[-1].closed


def test_monotone_ramp_single_open_bote(es):
    ticks = ticks_from_deltas(list(range(0, 30)), es)
    records = extract_otes(ticks, FC4999, C, es)
    assert len(records) == 1
    r = records[0]
    assert r.ote_type is OteType.BOTE
    assert not r.closed
    assert r.scenario is Scenario.PROFIT_GREW     # extended well past its birth
    assert r.p_start == ticks[0].price
    assert r.p_end == ticks[-1].price


def test_sub_threshold_session_has_no_otes(es):
    ticks = ticks_from_deltas([0, 3, 1, 4, 2, 5], es)
    assert extract_otes(ticks, FC4999, C, es) == []


def test_alternation_and_boundary_chaining(es):
    levels = zigzag_levels([0, 15, 3, 20, 5, 17, 2])
    records = extract_otes(ticks_from_deltas(levels, es), FC4999, C, es)
    types = [r.ote_type for r in records]
    assert all(a != b for a, b in zip(types, types[1:]))
    for prev, nxt in zip(records, records[1:]):
        assert prev.p_end == nxt.p_start
        assert prev.t_end == nxt.t_start


def test_time_ordering_invariant(es):
    levels = zigzag_levels([0, 12, 2, 14, 4])
    records = extract_otes(ticks_from_deltas(levels, es), FC4999, C, es)
    for r in records:
        assert r.t_start < r.t_birth <= r.t_end


def test_birth_price_distance(es):
    levels = zigzag_levels([0, 12, 2, 14, 4])
    records = extract_otes(ticks_from_deltas(levels, es), FC4999, C, es)
    threshold = birth_threshold(FC4999, es)
    for r in records:
        assert abs(es.to_deltas(r.p_start) - es.to_deltas(r.p_birth)) >= threshold


def test_gap_birth_records_gapped_tick(es):
    # jump straight past the birth level: 0 -> 20 -> plunge to 4 in one tick
    levels = zigzag_levels([0, 20]) + [4, 3, 2]
    ticks = ticks_from_deltas(levels, es)
    records = extract_otes(ticks, FC4999, C, es)
    sote = records[1]
    gap_tick = ticks[len(zigzag_levels([0, 20]))]
    assert sote.ote_type is OteType.SOTE
    assert sote.p_birth == gap_tick.price           # the gapped price itself
    assert sote.t_birth == gap_tick.timestamp


def test_closed_profits_on_permitted_grid(es):
    rng = random.Random(7)
    level = 0
    levels = [0]
    for _ in range(4000):
        level += rng.choice([-3, -2, -1, 0, 1, 2, 3])
        levels.append(level)
    ticks = ticks_from_deltas(levels, es)
    records = extract_otes(ticks, FC4999, C, es)
    closed = [r for r in records if r.closed]
    assert closed, "random walk should produce closed trades"
    for r in closed:
        assert on_permitted_grid(r.pl, FC4999, C, es)
        assert r.pl >= Fraction("90.64")


def test_b_increment_sign_invariant(es):
    levels = zigzag_levels([0, 15, 3, 20, 5, 17, 2])
    records = extract_otes(ticks_from_deltas(levels, es), FC4999, C, es)
    for r in records:
        mean_b = sum(r.b_increments, Fraction(0)) / len(r.b_increments)
        if r.ote_type is OteType.BOTE:
            assert mean_b > 0
        else:
            assert mean_b < 0


def test_attached_samples_span(es):
    levels = zigzag_levels([0, 10, 1])
    sizes = list(range(1, len(levels) + 1))
    ticks = ticks_from_deltas(levels, es, sizes=sizes)
    records = extract_otes(ticks, FC4999, C, es)
    bote = records[0]
    assert bote.tick_count == len(bote.prices)
    assert bote.volume_total == sum(bote.volumes)
    assert all(a == 10.0 for a in bote.a_increments)


def test_closed_records_immutable_under_appended_ticks(es):
    rng = random.Random(99)
    level = 0
    levels = [0]
    for _ in range(2000):
        level += rng.choice([-2, -1, 0, 1, 2])
        levels.append(level)
    ticks = ticks_from_deltas(levels, es)
    prefix = ticks[:1200]
    full_records = extract_otes(ticks, FC4999, C, es)
    prefix_records = extract_otes(prefix, FC4999, C, es)
    closed_prefix = [r for r in prefix_records if r.closed]
    assert records_values(full_records[:len(closed_prefix)]) == records_values(closed_prefix)
    # records span different columns and share their values
    assert full_records[0].columns is not prefix_records[0].columns
    assert set(records_values(closed_prefix)) == \
        set(records_values(full_records[:len(closed_prefix)]))
    assert record_values(full_records[0]) != record_values(full_records[2])
    assert record_values(full_records[0]._replace(birth=full_records[0].birth + 1)) != \
        record_values(full_records[0])


def test_streaming_equals_batch(es):
    levels = zigzag_levels([0, 15, 3, 20, 5, 17, 2])
    ticks = ticks_from_deltas(levels, es)
    extractor = OteExtractor(FC4999, C, es)
    streamed = []
    for t in ticks:
        streamed.extend(extractor.push(t))
    streamed.extend(extractor.finish())
    assert records_values(streamed) == records_values(extract_otes(ticks, FC4999, C, es))


@pytest.mark.parametrize("first", [[0, 3, 0], zigzag_levels([0, 12, 2])])
@pytest.mark.parametrize("later", [[6, 10, 4], zigzag_levels([6, 20, 8])])
def test_finish_starts_a_new_chain_whether_or_not_a_trade_was_born(es, first, later):
    # the first session is finished with a trade born or not; no record of
    # the later one starts before that finish
    extractor = OteExtractor(FC4999, C, es)
    for tick in ticks_from_deltas(first, es):
        extractor.push(tick)
    extractor.finish()
    ticks = ticks_from_deltas(later, es, start=datetime(2017, 4, 10, 10, 0, 0))
    streamed = [record for tick in ticks for record in extractor.push(tick)]
    streamed += extractor.finish()
    assert all(r.t_start >= ticks[0].timestamp for r in streamed)
    assert records_values(streamed) == records_values(extract_otes(ticks, FC4999, C, es))


def test_live_snapshot_has_open_end(es):
    extractor = OteExtractor(FC4999, C, es)
    assert extractor.current() is None
    for t in ticks_from_deltas(zigzag_levels([0, 10]), es):
        extractor.push(t)
    live = extractor.current()
    assert live is not None and not live.closed
    assert live.ote_type is OteType.BOTE
    assert live.t_end is None and live.p_end is None and live.pl is None
    assert live.t_start < live.t_birth
    # the snapshot never contributes to statistics even with include_open
    records = [live]
    with pytest.raises(ValueError):
        ote_stats(records, "profit", include_open=True)


def test_indicative_ticks_excluded(es):
    levels = zigzag_levels([0, 12, 2])
    ticks = ticks_from_deltas(levels, es)
    spoiler = Tick(ticks[3].timestamp + timedelta(seconds=1), es.delta * 9100, 0)
    with_indicative = sorted(ticks + [spoiler], key=lambda t: t.timestamp)
    assert records_values(extract_otes(with_indicative, FC4999, C, es)) == \
        records_values(extract_otes(ticks, FC4999, C, es))


def test_off_grid_indicative_tick_refused(es):
    # a Tick list becomes columns before indicative ticks are dropped, so an
    # off-grid indicative tick is refused like an off-grid line in a file
    ticks = ticks_from_deltas(zigzag_levels([0, 12, 2]), es)
    off_grid = Tick(ticks[3].timestamp + timedelta(seconds=1), Fraction("2250.10"), 0)
    with_off_grid = sorted(ticks + [off_grid], key=lambda t: t.timestamp)
    with pytest.raises(GridError, match="not a multiple of delta"):
        extract_otes(with_off_grid, FC4999, C, es)
    extractor = OteExtractor(FC4999, C, es)
    with pytest.raises(GridError, match="not a multiple of delta"):
        for tick in with_off_grid:
            extractor.push(tick)


def test_unordered_ticks_rejected(es):
    ticks = ticks_from_deltas([0, 5, 10], es)
    with pytest.raises(ValueError):
        extract_otes([ticks[2], ticks[0], ticks[1]], FC4999, C, es)


@pytest.mark.parametrize("seed", range(4))
def test_push_refuses_a_tick_earlier_than_the_last_and_keeps_streaming(es, seed):
    # a seeded walk pushed in order, interrupted by a trade tick one second
    # earlier than the last one pushed and off the grid: it is refused for its
    # time, an in-order off-grid tick for its price, and the rest of the walk
    # still streams to the batch records
    rng = random.Random(seed)
    ticks = ticks_from_deltas(zigzag_levels([0] + [rng.randrange(-25, 26) for _ in range(6)]), es)
    cut = rng.randrange(1, len(ticks))
    extractor = OteExtractor(FC4999, C, es)
    streamed = [record for tick in ticks[:cut] for record in extractor.push(tick)]
    late = ticks[cut - 1]
    off_grid = late.price + Fraction("0.10")
    with pytest.raises(ValueError, match="^ticks must be time-ordered$"):
        extractor.push(Tick(late.timestamp - timedelta(seconds=1), off_grid, 1))
    with pytest.raises(GridError, match="not a multiple of delta"):
        extractor.push(Tick(late.timestamp, off_grid, 1))
    streamed += [record for tick in ticks[cut:] for record in extractor.push(tick)]
    assert records_values(streamed + extractor.finish()) == \
        records_values(extract_otes(ticks, FC4999, C, es))


def test_records_are_equal_over_the_same_columns_only(es):
    # records compare field by field, and columns by identity: over two
    # columns of the same ticks they differ but share their values
    ticks = ticks_from_deltas(zigzag_levels([0, 15, 3, 20, 5, 17]), es)
    one, two = TickColumns.of(ticks, es), TickColumns.of(ticks, es)
    records = extract_otes(one, FC4999, C, es)
    others = extract_otes(two, FC4999, C, es)
    assert len(records) == len(others) == 5
    assert all(a != b and not a == b for a, b in zip(records, others))
    assert records_values(records) == records_values(others)
    again = extract_otes(one, FC4999, C, es)
    assert again == records and all(a is not b for a, b in zip(again, records))
    assert [hash(r) for r in again] == [hash(r) for r in records]


def test_cost_must_be_below_filtering_cost(es):
    with pytest.raises(ValueError):
        OteExtractor("4.68", "4.68", es)


def _assert_boundaries_match_mps0(levels, fc, es, oracle=mps0):
    """Extraction gives the MPS's trades for W=1 and a constant cost, down
    to the tick indices; ``mps0`` runs the same scan, ``_slope_runs_mps0``
    the dynamic program it replaced."""
    ticks = ticks_from_deltas(levels, es)
    records = extract_otes(ticks, fc, Fraction("4.00"), es)
    trades = oracle([t.price for t in ticks], fc, 1, es).trades
    assert len(records) == len(trades)
    for record, trade in zip(records, trades):
        assert (record.start, record.stop - 1) == (trade.start, trade.end)
        assert record.p_start == ticks[trade.start].price
        assert record.p_end == ticks[trade.end].price
        assert record.t_start == ticks[trade.start].timestamp
        assert record.t_end == ticks[trade.end].timestamp
        assert (record.ote_type is OteType.BOTE) == (trade.direction > 0)


_MPS0_FCS = [Fraction("6.24"), Fraction("12.49"), Fraction("24.99")]


def _seeded_walks():
    rng = random.Random(2013)
    for _ in range(25):
        level = 0
        levels = [0]
        for _ in range(rng.randint(30, 120)):
            level += rng.choice([-3, -2, -1, 0, 1, 2, 3])
            levels.append(level)
        yield levels, rng.choice(_MPS0_FCS)


def test_extraction_boundaries_match_mps0_trades(es):
    for levels, fc in _seeded_walks():
        _assert_boundaries_match_mps0(levels, fc, es)


def test_extraction_boundaries_match_slope_runs_trades(es):
    for levels, fc in _seeded_walks():
        _assert_boundaries_match_mps0(levels, fc, es, _slope_runs_mps0)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(-3, 3), max_size=120), st.sampled_from(_MPS0_FCS))
def test_extraction_boundaries_match_mps0_under_hypothesis(steps, fc):
    _assert_boundaries_match_mps0(list(accumulate(steps, initial=0)), fc, PRESETS["ES"])


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(-3, 3), max_size=120), st.sampled_from(_MPS0_FCS))
def test_extraction_boundaries_match_slope_runs_under_hypothesis(steps, fc):
    _assert_boundaries_match_mps0(list(accumulate(steps, initial=0)), fc, PRESETS["ES"],
                                  _slope_runs_mps0)


def test_ote_and_mps_run_one_scan(es, monkeypatch):
    thresholds = []
    real = mps_module.scan_trades
    monkeypatch.setattr(mps_module, "scan_trades",
                        lambda deltas, threshold, state, i:
                        thresholds.append(threshold) or real(deltas, threshold, state, i))
    ticks = ticks_from_deltas(zigzag_levels([0, 15, 3, 20, 5]), es)
    threshold = birth_threshold(FC4999, es)
    records = extract_otes(ticks, FC4999, C, es)
    assert thresholds == [threshold]
    trades = mps0([t.price for t in ticks], FC4999, 1, es).trades
    assert thresholds == [threshold] * 2
    assert [(r.start, r.stop - 1) for r in records] == [(t.start, t.end) for t in trades]
    extractor = OteExtractor(FC4999, C, es)
    for tick in ticks[:5]:
        extractor.push(tick)
    assert thresholds == [threshold] * 7


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(-3, 3), max_size=120), st.sampled_from(_MPS0_FCS),
       st.integers(-50, 50))
def test_mirror_swaps_and_translation_keeps_the_records(steps, fc, shift):
    es = PRESETS["ES"]
    levels = list(accumulate(steps, initial=0))
    span = lambda r: (r.start, r.birth, r.stop, r.ended, r.pl, r.scenario, r.closed)
    records = extract_otes(ticks_from_deltas(levels, es), fc, C, es)
    mirrored = extract_otes(ticks_from_deltas([-n for n in levels], es), fc, C, es)
    swap = {OteType.BOTE: OteType.SOTE, OteType.SOTE: OteType.BOTE}
    assert [(swap[r.ote_type], span(r)) for r in mirrored] == \
        [(r.ote_type, span(r)) for r in records]
    shifted = extract_otes(ticks_from_deltas([n + shift for n in levels], es), fc, C, es)
    assert [(r.ote_type, span(r)) for r in shifted] == [(r.ote_type, span(r)) for r in records]



def _seeded_moves(seed, n=200):
    """(price step in deltas, size) pairs of a seeded walk; size 0 one time in twenty."""
    rng = random.Random(seed)
    return [(rng.randint(-3, 3), rng.randrange(20)) for _ in range(n)]


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.integers(-3, 3), st.integers(0, 19)), min_size=1, max_size=200),
       st.sampled_from(["4.99", "12.49", "24.99", "100"]))
@example(_seeded_moves("mirror"), "4.99")
def test_streamed_mirror_swaps_the_records_and_keeps_their_stats(moves, fc):
    """Prices N -> 2M - N, pushed tick by tick with the same times and
    sizes (size 0, one tick in twenty, is indicative): BOTE and SOTE swap,
    and every span, profit, scenario and statistic stays."""
    es = PRESETS["ES"]
    levels, sizes = list(accumulate(step for step, _ in moves)), [size for _, size in moves]

    def streamed(levels):
        extractor = OteExtractor(fc, C, es)
        found = [r for tick in ticks_from_deltas(levels, es, sizes=sizes)
                 for r in extractor.push(tick)]
        return found + extractor.finish()

    records, mirrored = streamed(levels), streamed([-n for n in levels])
    swap = {OteType.BOTE: OteType.SOTE, OteType.SOTE: OteType.BOTE}
    span = lambda r: (r.start, r.birth, r.stop, r.pl, r.scenario, r.closed)
    assert [(swap[r.ote_type], span(r)) for r in mirrored] == \
        [(r.ote_type, span(r)) for r in records]
    for include_open in (False, True):
        if sum(r.closed or include_open for r in records) >= 2:
            for metric in ("profit", "duration"):
                assert ote_stats(mirrored, metric, include_open) == \
                    ote_stats(records, metric, include_open)

def _classify_scenario(current, subsequent, spec):
    """First thing that happens to a born trade: growth, replacement, or end.

    Growth means a tick at least one delta beyond the trade's profit-side
    extreme; replacement means the opposite-type birth arrives first.
    """
    threshold = birth_threshold(current.filtering_cost, spec)
    direction = 1 if current.ote_type is OteType.BOTE else -1
    ext = spec.to_deltas(current.p_end if current.p_end is not None else current.p_birth)
    for tick in subsequent:
        n = spec.to_deltas(tick.price)
        if (n - ext) * direction > 0:
            return Scenario.PROFIT_GREW
        if (ext - n) * direction >= threshold:
            return Scenario.REPLACED
    return Scenario.SESSION_ENDED


def test_classify_scenarios(es):
    threshold = birth_threshold(FC4999, es)  # 8 deltas
    up = ticks_from_deltas(zigzag_levels([0, 10]), es)
    records = extract_otes(up, FC4999, C, es)
    bote = records[0]
    later = lambda levels: ticks_from_deltas(levels, es,
                                             start=up[-1].timestamp + timedelta(seconds=1))
    # price extends beyond the extreme by >= 1 delta before reversing
    assert _classify_scenario(bote, later([11, 12]), es) is Scenario.PROFIT_GREW
    # opposite birth (8 deltas down from the extreme) with no extension
    assert _classify_scenario(bote, later([5, 2]), es) is Scenario.REPLACED
    # nothing decisive before the feed ends
    assert _classify_scenario(bote, later([9, 9, 9]), es) is Scenario.SESSION_ENDED
    assert _classify_scenario(bote, [], es) is Scenario.SESSION_ENDED


def test_scenario_labels_from_extraction(es):
    # leg far beyond threshold -> grew; exact-threshold leg then reversal -> replaced
    levels = zigzag_levels([0, 16, 8, 16])
    records = extract_otes(ticks_from_deltas(levels, es), FC4999, C, es)
    assert records[0].scenario is Scenario.PROFIT_GREW
    assert records[1].scenario is Scenario.REPLACED
    assert records[-1].scenario in (Scenario.SESSION_ENDED, Scenario.REPLACED,
                                    Scenario.PROFIT_GREW)
    flatish = zigzag_levels([0, 8]) + [8] * 5
    ended = extract_otes(ticks_from_deltas(flatish, es), FC4999, C, es)
    assert ended[-1].scenario is Scenario.SESSION_ENDED


def test_published_stats_block_profits():
    stats = sample_stats([Fraction(x) for x in SESSION_PROFITS])
    assert stats.mean == Fraction("489.0775")
    assert stats.maximum == Fraction("778.14") and stats.max_count == 1
    assert stats.minimum == Fraction("265.64") and stats.min_count == 1
    assert abs(float(stats.variance) - 33590.9598) < 5e-3
    assert abs(stats.std_dev - 183.278367) < 1e-5
    assert abs(stats.skewness - 0.322282476) < 1e-8


def test_published_stats_block_durations():
    stats = sample_stats(SESSION_DURATIONS)
    assert stats.mean == Fraction("9879.125")
    assert abs(stats.std_dev - 10277.4075) < 1e-3
    assert abs(stats.skewness - 1.82711153) < 1e-7
    assert stats.maximum == 32395 and stats.minimum == 1651


def test_two_point_mean():
    stats = sample_stats([Fraction("403.14"), Fraction("453.14")])
    assert stats.mean == Fraction("428.14")
    assert stats.skewness is None and stats.excess_kurtosis is None


def test_sample_stats_errors_and_histogram():
    with pytest.raises(ValueError):
        sample_stats([1])
    stats = sample_stats([1, 1, 1, 1])
    assert stats.variance == 0
    assert stats.histogram == ((1.0, 1.0, 4),)
    spread = sample_stats(list(range(8)), bins=4)
    assert sum(c for _, _, c in spread.histogram) == 8


def test_ecdf_and_epmf():
    stats = sample_stats([2, 1, 2, 3])
    assert stats.epmf == ((1, 1), (2, 2), (3, 1))
    assert stats.ecdf[-1][1] == 1
    fracs = [f for _, f in stats.ecdf]
    assert fracs == sorted(fracs)


def _fraction_sample_stats(values, bins=None):
    """``sample_stats`` as it was in Fraction arithmetic, frozen as the oracle."""
    n = len(values)
    if n < 2:
        raise ValueError("need at least 2 samples")
    xs = sorted(as_fraction(v) for v in values)
    mean = sum(xs) / n
    m2 = sum((x - mean) ** 2 for x in xs) / n
    m3 = sum((x - mean) ** 3 for x in xs) / n
    m4 = sum((x - mean) ** 4 for x in xs) / n
    variance = n * m2 / (n - 1)
    counter = Counter(xs)
    lo, hi = xs[0], xs[-1]
    k = ote_module._bin_count(n, bins)
    try:
        std_dev = math.sqrt(variance)
        # where a power of float(m2) underflows to 0.0: the exact ratios
        # m3^2 / m2^3 and m4 / m2^2, rounded once
        skewness = None
        if n >= 3 and m2 > 0:
            m2_3 = float(m2) ** 1.5
            g1 = float(m3) / m2_3 if m2_3 else math.sqrt(m3 * m3 / m2 ** 3) * (-1 if m3 < 0 else 1)
            skewness = g1 * math.sqrt(n * (n - 1)) / (n - 2)
        excess_kurtosis = None
        if n >= 4 and m2 > 0:
            m2_4 = float(m2) ** 2
            g2 = (float(m4) / m2_4 if m2_4 else float(m4 / m2 ** 2)) - 3
            excess_kurtosis = ((n + 1) * g2 + 6) * (n - 1) / ((n - 2) * (n - 3))
        histogram = []
        if hi == lo:
            histogram.append((float(lo), float(hi), n))
        else:
            width = (hi - lo) / k
            edges = [lo + width * j for j in range(k + 1)]
            for j in range(k):
                left, right = edges[j], edges[j + 1]
                if j == 0:
                    count = sum(1 for x in xs if left <= x <= right)
                else:
                    count = sum(1 for x in xs if left < x <= right)
                histogram.append((float(left), float(right), count))
    except OverflowError:
        raise ValueError("samples too large for float statistics") from None
    ecdf = []
    cum = 0
    for value in sorted(counter):
        cum += counter[value]
        ecdf.append((value, Fraction(cum, n)))
    epmf = tuple((value, counter[value]) for value in sorted(counter))
    return OteStats(
        count=n, mean=mean, minimum=lo, min_count=counter[lo], maximum=hi,
        max_count=counter[hi], variance=variance, std_dev=std_dev, skewness=skewness,
        excess_kurtosis=excess_kurtosis, histogram=tuple(histogram), ecdf=tuple(ecdf),
        epmf=epmf,
    )


def _outcome(stats_fn, values, bins):
    """The repr of each field (so 1 and Fraction(1) differ), or the error."""
    try:
        stats = stats_fn(values, bins)
    except (ValueError, ArithmeticError) as exc:
        return type(exc).__name__, str(exc)
    return [(name, repr(getattr(stats, name))) for name in OteStats._fields]


_SAMPLE = st.one_of(
    st.integers(-10 ** 6, 10 ** 6),
    st.fractions(max_denominator=400, min_value=-1000, max_value=1000),
    st.decimals(allow_nan=False, allow_infinity=False, places=3,
                min_value=-10 ** 5, max_value=10 ** 5).map(str),
    st.fractions(max_denominator=12, min_value=-50, max_value=50).map(str),
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(-1000, 1000, allow_nan=False, width=32),
)


@settings(max_examples=150, deadline=None)
@given(st.one_of(st.lists(_SAMPLE, min_size=2, max_size=60),
                 st.tuples(_SAMPLE, st.integers(2, 60)).map(lambda vn: [vn[0]] * vn[1])),
       st.one_of(st.none(), st.integers(1, 12)))
def test_sample_stats_matches_the_fraction_oracle(values, bins):
    assert _outcome(sample_stats, values, bins) == _outcome(_fraction_sample_stats, values, bins)


def test_sample_stats_oracle_edges():
    cases = [
        ([1e300, -1e300], None),            # a variance past the float range
        ([1e300, 1e300, 1], 3),
        ([0, 0, 1e-300], None),             # m2 > 0 rounds to 0.0: the exact ratios
        ([0, 0, 0, -1e-90], 2),             # only m2^2 underflows
        ([0, 0, 2.456321145223924e+77], None),  # m2^2 overflows, and n = 3 needs none
        ([Fraction(1, 3), "2/3", 1.0, Decimal("0.5")], 12),
        ([0, 1, 1, 2, 2, 3], 3),            # samples on the inner edges 1 and 2
        (list(range(-5, 6)), 5),            # and on -3, -1, 1 and 3
    ]
    for values, bins in cases:
        assert _outcome(sample_stats, values, bins) == \
            _outcome(_fraction_sample_stats, values, bins), values
    assert _outcome(sample_stats, [1e300, -1e300], None) == \
        ("ValueError", "samples too large for float statistics")
    # the exact skewness and kurtosis: sqrt(3), and -2 and 4
    assert sample_stats([0, 0, 1e-300]).skewness == pytest.approx(math.sqrt(3), rel=1e-15)
    tiny = sample_stats([0, 0, 0, -1e-300])
    assert (tiny.skewness, tiny.excess_kurtosis) == pytest.approx((-2, 4), rel=1e-15)


def test_ote_stats_over_records(es):
    levels = zigzag_levels([0, 8, 0, 8, 0, 8, 0])
    records = extract_otes(ticks_from_deltas(levels, es), FC4999, C, es)
    stats = ote_stats(records, "profit")          # open record excluded
    assert stats.count == 5
    stats_all = ote_stats(records, "profit", include_open=True)
    assert stats_all.count == 6
    durations = ote_stats(records, "duration", include_open=True)
    assert durations.count == 6
    with pytest.raises(ValueError):
        ote_stats(records, "nope")


def test_ote_stats_accepts_raw_samples():
    stats = ote_stats([Fraction(x) for x in SESSION_PROFITS])
    assert stats.mean == Fraction("489.0775")


def _hs_chain(es, fifth_start=8):
    # B1 0->20, S2 20->8, B3 8->26, S4 26->fifth_start, B5 ->24, S6 24->14
    levels = zigzag_levels([0, 20, 8, 26, fifth_start, 24, 14])
    ticks = ticks_from_deltas(levels, es)
    records = extract_otes(ticks, FC4999, C, es)
    assert len(records) == 6
    return records


def _head_and_shoulders(chain, current_price, tolerances, spec):
    """One-shot evaluation of the pattern predicate at the current price."""
    return HeadShouldersMonitor(chain, tolerances, spec).check(current_price)


def test_head_and_shoulders_true_at_monitored_price(es):
    chain = _hs_chain(es)
    b5_birth = chain[4].p_birth
    assert _head_and_shoulders(chain, b5_birth, Tolerances(), es)


def test_head_and_shoulders_false_when_price_differs(es):
    chain = _hs_chain(es)
    price = chain[4].p_birth + es.delta
    assert not _head_and_shoulders(chain, price, Tolerances(), es)


def test_head_and_shoulders_false_on_broken_clause(es):
    chain = _hs_chain(es, fifth_start=10)   # P_s^B3 != P_s^B5 (8 vs 10)
    assert not _head_and_shoulders(chain, chain[4].p_birth, Tolerances(), es)
    # a 2-delta equality tolerance repairs it
    assert _head_and_shoulders(chain, chain[4].p_birth, Tolerances(eq_deltas=2), es)


def test_head_and_shoulders_monitor_caches_fixed_clauses(es):
    chain = _hs_chain(es)
    monitor = HeadShouldersMonitor(chain, Tolerances(), es)
    assert monitor.fixed_ok
    assert monitor.check(chain[4].p_birth)
    assert not monitor.check(chain[4].p_birth + 1)


def test_head_and_shoulders_check_is_exact_off_the_grid(es):
    chain = _hs_chain(es)
    born = chain[4].p_birth
    strict = HeadShouldersMonitor(chain, Tolerances(), es)
    loose = HeadShouldersMonitor(chain, Tolerances(eq_deltas=1), es)
    assert strict.monitored_deltas == es.to_deltas(born) == loose.monitored_deltas
    for off_grid in (born + es.delta / 2, born - Fraction(1, 5), float(born) + 0.1):
        assert not strict.check(off_grid)
        assert loose.check(off_grid)          # within one delta, as before
    assert not loose.check(born + Fraction(5, 4) * es.delta)
    assert loose.check(born - es.delta) and not strict.check(born - es.delta)


def test_head_and_shoulders_hits_scan_the_last_trade(es, monkeypatch):
    chain = _hs_chain(es)
    # S6 is born at B5's birth price
    assert list(head_and_shoulders_hits(chain, Tolerances(), es)) == [(6, chain[5].birth)]
    assert chain[5].p_birth == chain[4].p_birth
    # the scan builds its monitors from the module attribute, so a wrapper
    # swapped in there sees every window that passes the fixed comparisons,
    # and only those
    built = []

    class Counting(HeadShouldersMonitor):
        def __init__(self, *args):
            built.append(args[0])
            super().__init__(*args)

    monkeypatch.setattr(ote_module, "HeadShouldersMonitor", Counting)
    records = chain + chain
    hits = list(head_and_shoulders_hits(records, Tolerances(), es))
    assert hits == [(6, chain[5].birth), (12, chain[5].birth)]
    assert built == [records[0:6], records[6:12]]


def test_head_and_shoulders_chain_validation(es):
    chain = _hs_chain(es)
    with pytest.raises(ValueError):
        _head_and_shoulders(chain[:5], 1, Tolerances(), es)
    with pytest.raises(ValueError):
        _head_and_shoulders(chain[1:] + chain[:1], 1, Tolerances(), es)


def _reference_hs_hits(records, tolerances, spec):
    """head_and_shoulders_hits as it was: every six-trade window tried with
    the monitor's own type check and fixed comparisons, then its last
    trade's ticks scanned for B5's birth price."""
    expected = [OteType.BOTE, OteType.SOTE] * 3
    eq = lambda x, y: abs(x - y) <= tolerances.eq_deltas
    lt = lambda x, y: x < y - tolerances.lt_deltas
    first = lambda r: r.columns.deltas[r.start]
    last = lambda r: r.columns.deltas[r.stop - 1]
    hits = []
    for end in range(6, len(records) + 1):
        window = records[end - 6:end]
        if [r.ote_type for r in window] != expected:
            continue
        b1, _, b3, _, b5, s6 = window
        if not (lt(first(b1), first(b3)) and eq(first(b3), first(b5))
                and lt(last(b1), last(b3)) and lt(last(b5), last(b3))):
            continue
        monitored = b5.columns.deltas[b5.birth]
        times, deltas = s6.columns.times, s6.columns.deltas
        for i in range(bisect_left(times, times[s6.birth]),
                       bisect_right(times, times[s6.stop - 1])):
            if eq(deltas[i], monitored):
                hits.append((end, i))
                break
    return hits


def _crowded_session(levels, gaps, spec):
    """Ticks at the given delta levels, each ``gaps[j]`` seconds after the
    one before, so that a zero gap makes two ticks share a time."""
    start = datetime(2017, 4, 10, 9, 0, 0)
    times = accumulate(gaps[:len(levels)] + [1] * (len(levels) - len(gaps)), initial=0)
    return [Tick(start + timedelta(seconds=t), (9000 + n) * spec.delta, 1)
            for t, n in zip(times, levels)]


_HS_FCS = ["4.69", "12.49", "24.99"]
_HS_TOLS = st.builds(Tolerances, st.integers(0, 3), st.integers(0, 3))


def test_head_and_shoulders_hits_match_the_window_by_window_scan(es):
    rng = random.Random(18)
    total = 0
    for _ in range(40):
        walk = list(accumulate((rng.randint(-3, 3) for _ in range(400)), initial=0))
        gaps = [rng.choice((0, 0, 1, 5)) for _ in walk]
        ticks = _crowded_session(walk, gaps, es)
        for fc in _HS_FCS:
            records = extract_otes(ticks, fc, C, es)
            for tol in (Tolerances(), Tolerances(1, 0), Tolerances(2, 1), Tolerances(3, 3)):
                hits = list(head_and_shoulders_hits(records, tol, es))
                assert hits == _reference_hs_hits(records, tol, es)
                total += len(hits)
    assert total > 0
    # hand-built chains: B5 or B1 in place of S6, a doubled B1, B3 in place of B1
    chain = _hs_chain(es)
    for broken in (chain[:5] + chain[4:5], chain[:5] + chain[:1], chain[:1] + chain[:5],
                   chain[2:3] + chain[1:]):
        for tol in (Tolerances(), Tolerances(3, 0)):
            assert list(head_and_shoulders_hits(broken, tol, es)) == \
                _reference_hs_hits(broken, tol, es) == []


@settings(max_examples=150, deadline=None)
@given(st.one_of(st.lists(st.integers(-3, 3), max_size=250).map(
                     lambda steps: list(accumulate(steps, initial=0))),
                 st.lists(st.integers(-12, 12), min_size=2, max_size=30).map(zigzag_levels)),
       st.lists(st.sampled_from([0, 1, 7]), max_size=250),
       st.sampled_from(_HS_FCS), _HS_TOLS, st.data())
def test_head_and_shoulders_hits_match_under_hypothesis(levels, gaps, fc, tol, data):
    es = PRESETS["ES"]
    records = extract_otes(_crowded_session(levels, gaps, es), fc, C, es)
    assert list(head_and_shoulders_hits(records, tol, es)) == \
        _reference_hs_hits(records, tol, es)
    if records:
        # chains that need not alternate: records drawn at random, and a run
        # of the session's chain with a few records swapped for others
        index = st.integers(0, len(records) - 1)
        chain = [records[j] for j in data.draw(st.lists(index, max_size=40))]
        run = records[data.draw(index):][:12]
        for _ in range(data.draw(st.integers(0, 2))):
            run[data.draw(st.integers(0, len(run) - 1))] = records[data.draw(index)]
        for chain in (chain, run):
            assert list(head_and_shoulders_hits(chain, tol, es)) == \
                _reference_hs_hits(chain, tol, es)


def _old_samples(ticks, start, stop):
    """Samples as the extractor used to copy them out of Tick objects."""
    span = ticks[start:stop]
    return (tuple((b.timestamp - a.timestamp).total_seconds() for a, b in zip(span, span[1:])),
            tuple(b.price - a.price for a, b in zip(span, span[1:])),
            tuple(t.price for t in span), tuple(t.size for t in span))


def test_samples_view_matches_tick_copies(es):
    rng = random.Random(31)
    levels, level = [0], 0
    for _ in range(1500):
        level += rng.choice([-2, -1, 0, 1, 2])
        levels.append(level)
    start = datetime(2017, 4, 10, 9, 0, 0)
    ticks = [Tick(start + timedelta(microseconds=j * 1_000_000 + rng.randrange(999_999)),
                  (9000 + lv) * es.delta, rng.randint(1, 9)) for j, lv in enumerate(levels)]
    index = {t.timestamp: j for j, t in enumerate(ticks)}
    records = extract_otes(ticks, FC4999, C, es)
    assert len(records) > 10
    for r in records:
        s, e = index[r.t_start], index[r.t_end]
        assert (r.a_increments, r.b_increments, r.prices,
                r.volumes) == _old_samples(ticks, s, e + 1)
        assert r.duration == (r.t_end - r.t_start).total_seconds()
        assert r.volume_total == sum(t.size for t in ticks[s:e + 1])


def test_batch_on_columns_matches_batch_on_ticks(es):
    rng = random.Random(12)
    levels, level = [0], 0
    for _ in range(3000):
        level += rng.choice([-3, -1, 0, 1, 3])
        levels.append(level)
    ticks = ticks_from_deltas(levels, es, sizes=[rng.choice([0, 1, 2]) for _ in levels])
    columns = parse_ticks(serialize_ticks(ticks).splitlines(), es)
    for fc in (FC4999, "12.49"):
        assert records_values(extract_otes(columns, fc, C, es)) == \
            records_values(extract_otes(ticks, fc, C, es))


# walks born long that retrace exactly the birth threshold, 1 or 17 deltas
# (negated, they are born short)
_RETRACE_1 = [0, 1, 1, -1]
_RETRACE_17 = [0] + [3] * 7 + [-3] * 5 + [-2]


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(-3, 3), min_size=1, max_size=300),
       st.lists(st.integers(1, 40), min_size=1, max_size=20),
       st.sampled_from(["4.99", "12.49", "24.99", "100"]))
@example(_RETRACE_1, [1], "4.99")
@example([-s for s in _RETRACE_1], [1], "4.99")
@example(_RETRACE_17, [5], "100")
@example([-s for s in _RETRACE_17], [5], "100")
def test_streaming_matches_batch_under_random_chunking(steps, chunks, fc):
    # birth thresholds 1, 2, 4 and 17: short trades and long ones
    es = PRESETS["ES"]
    levels = list(accumulate(steps))
    ticks = ticks_from_deltas(levels, es, step_seconds=3)
    extractor = OteExtractor(fc, C, es)
    streamed, pos, j = [], 0, 0
    while pos < len(ticks):
        chunk = ticks[pos:pos + chunks[j % len(chunks)]]
        pos, j = pos + len(chunk), j + 1
        for tick in chunk:
            streamed.extend(extractor.push(tick))
        batch = extract_otes(ticks[:pos], fc, C, es)
        assert records_values(streamed) == records_values(r for r in batch if r.closed)
        live = extractor.current()
        if batch and not batch[-1].closed:
            assert live is not None
            assert (live.ote_type, live.t_start, live.p_start, live.t_birth, live.p_birth) == \
                (batch[-1].ote_type, batch[-1].t_start, batch[-1].p_start,
                 batch[-1].t_birth, batch[-1].p_birth)
            start = (live.t_start - ticks[0].timestamp) // timedelta(seconds=3)
            assert live.tick_count == len(live.prices) == pos - start
        else:
            assert live is None
    streamed.extend(extractor.finish())
    assert records_values(streamed) == records_values(extract_otes(ticks, fc, C, es))
    # and against the reference scan, whose live trade ends at its extreme
    trades, state = _reference_scan_trades(es.grid_counts([t.price for t in ticks]),
                                           birth_threshold(fc, es), mps_module.SCAN_START, 0)
    if state[0]:
        trades.append(state)
    assert [(1 if r.ote_type is OteType.BOTE else -1, r.start, r.birth, r.stop - 1)
            for r in streamed] == trades


class OteStreamMachine(RuleBasedStateMachine):
    """``push`` and ``finish`` in any order, with ``current`` after every
    step, checked against batch extraction of the same ticks.  ``finish``
    ends the session; the next push starts another on a fresh extractor."""

    def __init__(self):
        super().__init__()
        self.es = PRESETS["ES"]
        self.clock = datetime(2017, 4, 10, 9, 0, 0)
        self.level = 9000
        self._start_session()

    def _start_session(self):
        self.extractor = OteExtractor("24.99", C, self.es)
        self.ticks, self.streamed = [], []

    def _batch(self):
        return extract_otes(self.ticks, "24.99", C, self.es)

    @rule(step=st.integers(-3, 3), seconds=st.sampled_from([0, 1, 7]),
          size=st.sampled_from([0, 1, 1, 2]))
    def push(self, step, seconds, size):
        self.level += step
        self.clock += timedelta(seconds=seconds)
        tick = Tick(self.clock, self.level * self.es.delta, size)
        self.ticks.append(tick)
        self.streamed.extend(self.extractor.push(tick))

    @rule()
    def finish(self):
        self.streamed.extend(self.extractor.finish())
        assert records_values(self.streamed) == records_values(self._batch())
        self._start_session()

    @invariant()
    def records_and_live_trade_match_batch(self):
        live, batch = self.extractor.current(), self._batch()
        closed = [r for r in batch if r.closed]
        assert records_values(self.streamed) == records_values(closed)
        assert records_values(self.extractor.records) == records_values(closed)
        if len(closed) == len(batch):
            assert live is None
            return
        last = batch[-1]
        assert live is not None and not live.ended and live.pl is None
        assert (live.ote_type, live.start, live.birth) == (last.ote_type, last.start, last.birth)
        assert (live.t_start, live.p_start, live.t_birth, live.p_birth) == \
            (last.t_start, last.p_start, last.t_birth, last.p_birth)
        assert live.stop == sum(1 for t in self.ticks if not t.indicative)


TestOteStreamMachine = OteStreamMachine.TestCase
TestOteStreamMachine.settings = settings(max_examples=40, stateful_step_count=60, deadline=None)
