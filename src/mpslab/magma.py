"""The capped position algebra and the strategy composition it induces.

Coordinate addition that clamps into [-W, W] makes the set of position
series a commutative, non-associative magma with identity (the do-nothing
position) and unique inverses.  Subtraction is only partial: a - b exists
iff |a - b| <= W.  Solving a + x = c can have zero, one, or |a|+1 solutions;
the minimum-absolute-value one is the canonical result.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from .model import PositionSeries, Record, Strategy, validate_membership


class CappedInt(Record):
    """An integer confined to [-limit, limit]."""

    __slots__ = ("value", "limit")

    def __init__(self, value: int, limit: int):
        if limit < 1:
            raise ValueError("limit must be >= 1")
        if abs(value) > limit:
            raise ValueError(f"|{value}| exceeds limit {limit}")
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "limit", limit)

    def __neg__(self) -> "CappedInt":
        return CappedInt(-self.value, self.limit)


def clamp(x: int, limit: int) -> int:
    return max(-limit, min(limit, x))


def _difference(a: int, b: int, limit: int) -> Optional[int]:
    """a - b when it stays inside [-limit, limit], else None."""
    diff = a - b
    return diff if abs(diff) <= limit else None


def _same_limit(a: CappedInt, b: CappedInt) -> int:
    if a.limit != b.limit:
        raise ValueError(f"limit mismatch: {a.limit} vs {b.limit}")
    return a.limit


def oplus(a: CappedInt, b: CappedInt) -> CappedInt:
    """Clamped addition; commutative, identity 0, inverse -a."""
    w = _same_limit(a, b)
    return CappedInt(clamp(a.value + b.value, w), w)


def ominus(a: CappedInt, b: CappedInt) -> Optional[CappedInt]:
    """Partial subtraction: a - b when it stays inside the limit, else None.

    Where a (+) x = a has several solutions the returned difference is the
    one with minimum absolute value, which keeps it unique.
    """
    w = _same_limit(a, b)
    diff = _difference(a.value, b.value, w)
    return None if diff is None else CappedInt(diff, w)


def solution_set(b: CappedInt, c: CappedInt) -> tuple[CappedInt, ...]:
    """All x solving b (+) x = c.

    Empty iff |c - b| > W; the single c - b when |c| < W; an interval of
    |b| + 1 values when c sits on the boundary |c| = W.
    """
    w = _same_limit(b, c)
    diff = _difference(c.value, b.value, w)
    if diff is None:
        return ()
    if abs(c.value) < w:
        return (CappedInt(diff, w),)
    # on the boundary every x from the difference out to it clamps onto c
    lo, hi = (diff, w) if c.value == w else (-w, diff)
    return tuple(CappedInt(x, w) for x in range(lo, hi + 1))


class CayleyStats(NamedTuple):
    pairs: int
    clamped: int
    ordinary: int
    undefined_sub: int


def cayley_stats(limit: int) -> CayleyStats:
    """Closed-form table census: W(W+1) clamps, 3W^2+3W+1 ordinary sums."""
    if limit < 1:
        raise ValueError("limit must be >= 1")
    w = limit
    return CayleyStats(
        pairs=(2 * w + 1) ** 2,
        clamped=w * (w + 1),
        ordinary=3 * w * w + 3 * w + 1,
        undefined_sub=w * (w + 1),
    )


def cayley_table(limit: int, op: str = "plus") -> list[list[Optional[int]]]:
    """The full table, rows indexed by the left operand -W..W, each cell
    by the integer rule of ``oplus`` or ``ominus``."""
    if op not in ("plus", "minus"):
        raise ValueError("op must be 'plus' or 'minus'")
    if limit < 1:
        raise ValueError("limit must be >= 1")
    values = range(-limit, limit + 1)
    if op == "plus":
        return [[clamp(a + b, limit) for b in values] for a in values]
    return [[_difference(a, b, limit) for b in values] for a in values]


def _check_member(series: PositionSeries, limit: int, name: str) -> None:
    if series.w0 != 0 or series.positions[-1] != 0 or any(
            abs(w) > limit for w in series.positions):
        raise ValueError(f"{name} is not a member of the W={limit} position universe")


def positions_oplus(a: PositionSeries, b: PositionSeries, limit: int) -> PositionSeries:
    """Coordinate-wise clamped addition of two position series."""
    if len(a) != len(b):
        raise ValueError("position series must have equal length")
    _check_member(a, limit, "left operand")
    _check_member(b, limit, "right operand")
    return PositionSeries(tuple(clamp(x + y, limit)
                                for x, y in zip(a.positions, b.positions)))


def strategies_compose(a: Strategy, b: Strategy, limit: int) -> Strategy:
    """Composition of strategies induced by the position addition.

    Coordinate i of the result is
    ([W_{i-1,a} + U_{i,a}] (+) [W_{i-1,b} + U_{i,b}]) - (W_{i-1,a} (+) W_{i-1,b}),
    which is exactly the positions-route sum converted back to actions.
    """
    if len(a) != len(b):
        raise ValueError("strategies must have equal length")
    if not validate_membership(a, limit) or not validate_membership(b, limit):
        raise ValueError(f"both strategies must be members for W={limit}")
    wa = wb = 0
    actions = []
    for ua, ub in zip(a.actions, b.actions):
        before = clamp(wa + wb, limit)
        wa += ua
        wb += ub
        after = clamp(wa + wb, limit)
        actions.append(after - before)
    return Strategy(tuple(actions))
