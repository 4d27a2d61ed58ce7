"""Shared fixtures, synthetic tick builders, action-law helpers, the
reference walk of the strategy universe, the reference trade scan and the
values of an OTE record."""

from __future__ import annotations

from datetime import datetime, timedelta

import pytest

from mpslab import (PRESETS, PositionSeries, Tick, action_count, char_fn,
                    positions_to_strategy)


@pytest.fixture
def es():
    return PRESETS["ES"]


def ticks_from_deltas(levels, spec, start=None, step_seconds=10, sizes=None):
    """Ticks at the given delta levels, base price 2250.00, 10 s apart."""
    start = start or datetime(2017, 4, 10, 9, 0, 0)
    base = 9000  # deltas, i.e. 2250.00 for ES
    out = []
    for j, level in enumerate(levels):
        price = (base + level) * spec.delta
        size = sizes[j] if sizes else 1
        out.append(Tick(start + timedelta(seconds=j * step_seconds), price, size))
    return out


def ramp(a, b):
    """Inclusive integer walk from a to b in unit steps."""
    step = 1 if b >= a else -1
    return list(range(a, b + step, step))


def zigzag_levels(swings):
    """Concatenate unit-step legs between the given turning points."""
    levels = [swings[0]]
    for target in swings[1:]:
        levels.extend(ramp(levels[-1], target)[1:])
    return levels


def action_distribution(p):
    """The closed-form action counts of a universe, m -> count."""
    return {m: action_count(m, p) for m in range(-2 * p.limit, 2 * p.limit + 1)}


def decode(index, p):
    """Position series of one universe index, one base-(2W+1) digit at a
    time, lowest first: each digit minus W is a position, and W_n = 0."""
    if not 0 <= index < p.size:
        raise ValueError(f"index {index} out of [0, {p.size})")
    positions = []
    for _ in range(p.n - 1):
        index, digit = divmod(index, p.base)
        positions.append(digit - p.limit)
    positions.append(0)
    return PositionSeries(tuple(positions))


def iter_universe(p):
    """Each position series of the universe once, in index order, by
    ``decode``.  The reference walk that every numpy walk of the universe
    (``sweep``, the brute-force extrema, ``iter_strategies``) is judged
    against."""
    return (decode(index, p) for index in range(p.size))


def reference_strategies(p):
    """The universe's strategies in index order, by the reference walk."""
    return [positions_to_strategy(ps) for ps in iter_universe(p)]


def record_values(r):
    """An OTE record by the values it spans, not by which columns: type,
    end, profit, FC, scenario, closed, delta, birth offset, and the span's
    times, grid counts and sizes.  Streaming and batch records of one trade,
    or prefix and full ones, span different columns but share these."""
    cols, s, stop = r.columns, r.start, r.stop
    return (r.ote_type, r.ended, r.pl, r.filtering_cost, r.scenario, r.closed,
            cols.spec.delta, r.birth - s, tuple(cols.times[s:stop]),
            tuple(cols.deltas[s:stop]), tuple(cols.sizes[s:stop]))


def records_values(records):
    """``record_values`` of each record, in order."""
    return [record_values(r) for r in records]


def char_fn_curvature(p, h=1e-3):
    """-f''(0) by a fourth-order central stencil; approximates moment(2)."""
    f = lambda t: char_fn(t, p)
    return -(-f(2 * h) + 16 * f(h) - 30.0 + 16 * f(-h) - f(-2 * h)) / (12 * h * h)


def _reference_scan_trades(deltas, threshold, state, i):
    """``mps.scan_trades`` as it was before its close bound: each tick of a
    born trade multiplies both tests by the direction.  The judge of the
    scan's differential tests and of streaming extraction."""
    direction, start, birth, ext_i = state
    stop = len(deltas)
    trades = []
    if direction == 0:
        lo_i, hi_i = start, ext_i
        for i in range(i, stop):
            n = deltas[i]
            if n < deltas[lo_i]:
                lo_i = i
            elif n > deltas[hi_i]:
                hi_i = i
            if n - deltas[lo_i] >= threshold:
                direction, start = 1, lo_i
                break
            if deltas[hi_i] - n >= threshold:
                direction, start = -1, hi_i
                break
        else:
            return trades, (0, lo_i, 0, hi_i)
        birth = ext_i = i
        i += 1
    ext = deltas[ext_i]
    for i in range(i, stop):
        n = deltas[i]
        if (n - ext) * direction > 0:
            ext, ext_i = n, i
        elif (ext - n) * direction >= threshold:
            trades.append((direction, start, birth, ext_i))
            direction, start, birth = -direction, ext_i, i
            ext, ext_i = n, i
    return trades, (direction, start, birth, ext_i)
