"""Core domain types: ticks, contracts, strategies, positions, costs.

A strategy is the chain of integer actions U_1..U_n (buys positive, sells
negative, zeros do nothing); the running position W_i = W_0 + sum(U_1..U_i)
determines it and vice versa, so the two representations are carried by a
pair of small immutable records plus the conversion functions.

Records need no generated code: plain ones are ``NamedTuple``s, and one
that checks its fields adds a ``__new__`` on top of one.  A record that must
not behave as a tuple (its own ``len``, no tuple ``+`` or ordering) is a
``Record``: fields in ``__slots__``, set once, compared by value.
"""

from __future__ import annotations

from datetime import datetime, time
from fractions import Fraction
from itertools import accumulate
from typing import NamedTuple, Optional, Sequence

from .numeric import Rational, as_fraction, as_fractions


class GridError(ValueError):
    """A price is not an integer multiple of the contract's delta."""


class Record:
    """An immutable record that is not a tuple: a subclass lists its fields
    in ``__slots__`` and sets each once in ``__init__`` through
    ``object.__setattr__``; equality, hash, repr and pickling go by value."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"

    def __reduce__(self):
        return type(self), self._values()


def _checked_make(cls, fields):
    """``_make``, and so ``_replace``, of a checked NamedTuple: through its ``__new__``."""
    return cls(*fields)


class _ContractFields(NamedTuple):
    symbol: str
    k: Fraction                      # dollars per full price point
    delta: Fraction                  # minimum price fluctuation, points
    session_open: Optional[time]
    session_close: Optional[time]


class ContractSpec(_ContractFields):
    """Contract economics: dollars per full point and the price grid."""

    __slots__ = ()
    _make = classmethod(_checked_make)

    def __new__(cls, symbol: str, k: Rational, delta: Rational,
                session_open: Optional[time] = None, session_close: Optional[time] = None):
        k, delta = as_fraction(k), as_fraction(delta)
        if k <= 0:
            raise ValueError("k must be positive")
        if delta <= 0:
            raise ValueError("delta must be positive")
        return super().__new__(cls, symbol, k, delta, session_open, session_close)

    @property
    def delta_dollars(self) -> Fraction:
        """Dollar value of one delta (k * delta)."""
        return self.k * self.delta

    def to_deltas(self, price: Rational) -> int:
        """Price -> integer delta count N, failing off-grid."""
        p = as_fraction(price)
        n = p / self.delta
        if n.denominator != 1:
            raise GridError(
                f"price {p} is not a multiple of delta={self.delta} ({self.symbol})"
            )
        return n.numerator

    def grid_counts(self, prices: Sequence[Rational]) -> list[int]:
        """``to_deltas`` of each price, refusing the first one off the grid.
        Each distinct price is converted once; it is keyed on its type too,
        since a float reads as its repr and need not convert like an equal
        price of another type (0.07 is on a cent grid, Fraction(0.07) is not)."""
        keys = list(zip(map(type, prices), prices))
        try:
            distinct = dict.fromkeys(keys)
        except TypeError:       # a price with no hash, Decimal('sNaN'), is refused one by one
            return list(map(self.to_deltas, prices))
        grid = {key: self.to_deltas(key[1]) for key in distinct}
        return list(map(grid.__getitem__, keys))

    def on_grid(self, price: Rational) -> bool:
        try:
            self.to_deltas(price)
        except GridError:
            return False
        return True


class _TickFields(NamedTuple):
    timestamp: datetime
    price: Fraction
    size: int
    condition: Optional[str]


class Tick(_TickFields):
    """One Time & Sales record. size == 0 marks an indicative price."""

    __slots__ = ()
    _make = classmethod(_checked_make)

    def __new__(cls, timestamp: datetime, price: Rational, size: int,
                condition: Optional[str] = None):
        price = as_fraction(price)
        if price <= 0:
            raise ValueError("tick price must be positive")
        if size < 0:
            raise ValueError("tick size must be non-negative")
        return super().__new__(cls, timestamp, price, size, condition)

    @property
    def indicative(self) -> bool:
        return self.size == 0


class Strategy(Record):
    """Chain of integer actions; the trading strategy itself."""

    __slots__ = ("actions",)

    def __init__(self, actions: Sequence[int]):
        acts = tuple(int(a) for a in actions)
        if len(acts) < 1:
            raise ValueError("a strategy needs at least one action")
        object.__setattr__(self, "actions", acts)

    def __len__(self) -> int:
        return len(self.actions)

    def __neg__(self) -> "Strategy":
        return Strategy(tuple(-a for a in self.actions))

    @property
    def net_action(self) -> int:
        return sum(self.actions)

    @property
    def traded_contracts(self) -> int:
        """Total transacted volume sum(|U_i|)."""
        return sum(abs(a) for a in self.actions)

    def is_do_nothing(self) -> bool:
        return all(a == 0 for a in self.actions)


class PositionSeries(Record):
    """Chain of positions W_1..W_n reached after each tick's action."""

    __slots__ = ("positions", "w0")

    def __init__(self, positions: Sequence[int], w0: int = 0):
        pos = tuple(int(w) for w in positions)
        if len(pos) < 1:
            raise ValueError("a position series needs at least one entry")
        object.__setattr__(self, "positions", pos)
        object.__setattr__(self, "w0", w0)

    def __len__(self) -> int:
        return len(self.positions)

    def __neg__(self) -> "PositionSeries":
        return PositionSeries(tuple(-w for w in self.positions), -self.w0)


def positions_to_strategy(p: PositionSeries) -> Strategy:
    """Adjacent differences U_i = W_i - W_{i-1}."""
    prev = p.w0
    actions = []
    for w in p.positions:
        actions.append(w - prev)
        prev = w
    return Strategy(tuple(actions))


def strategy_to_positions(s: Strategy, w0: int = 0) -> PositionSeries:
    """Partial sums W_i = w0 + sum(U_1..U_i)."""
    return PositionSeries(tuple(accumulate(s.actions, initial=w0))[1:], w0)


def validate_membership(s: Strategy, limit: int) -> bool:
    """True iff every prefix position stays in [-limit, limit] and W_n = 0."""
    if limit < 1:
        raise ValueError("position limit must be >= 1")
    w = 0
    for a in s.actions:
        w += a
        if abs(w) > limit:
            return False
    return w == 0


class CostModel(Record):
    """Per-contract transaction costs C_1..C_n, non-negative dollars."""

    __slots__ = ("per_contract",)

    def __init__(self, per_contract: Sequence[Rational]):
        cs = as_fractions(per_contract)
        if any(c < 0 for c in cs):
            raise ValueError("transaction costs must be non-negative")
        object.__setattr__(self, "per_contract", cs)

    def __len__(self) -> int:
        return len(self.per_contract)

    @classmethod
    def constant(cls, c: Rational, n: int) -> "CostModel":
        """Futures case: one constant cost broadcast to length n."""
        return cls((as_fraction(c),) * n)

    @classmethod
    def of(cls, costs: Sequence[Rational]) -> "CostModel":
        return cls(as_fractions(costs))

    @classmethod
    def equity(cls, fraction: Rational, prices: Sequence[Rational],
               spec: ContractSpec) -> "CostModel":
        """Equity case: C_i = f * k * P_i, cost as a fixed fraction of price."""
        f = as_fraction(fraction)
        if f < 0:
            raise ValueError("cost fraction must be non-negative")
        return cls(tuple(f * spec.k * as_fraction(p) for p in prices))

    @property
    def is_constant(self) -> bool:
        return len(set(self.per_contract)) == 1
