"""Shared fixtures, synthetic tick builders and action-law helpers."""

from __future__ import annotations

from datetime import datetime, timedelta

import pytest

from mpslab import PRESETS, Tick, action_count, char_fn
from mpslab.distribution import ActionDistribution


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
    """The closed-form action counts of a universe as an ActionDistribution."""
    counts = {m: action_count(m, p) for m in range(-2 * p.limit, 2 * p.limit + 1)}
    return ActionDistribution(counts, p.n * p.size)


def char_fn_curvature(p, h=1e-3):
    """-f''(0) by a fourth-order central stencil; approximates moment(2)."""
    f = lambda t: char_fn(t, p)
    return -(-f(2 * h) + 16 * f(h) - 30.0 + 16 * f(-h) - f(-2 * h)) / (12 * h * h)
