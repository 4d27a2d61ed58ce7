"""Seeded ES Time & Sales generator for the benchmark.

The program under test only ever sees the file this writes.  Prices are a
random walk on the ES grid (0.25 points), kept here as integer delta counts
and times as integer seconds, so the benchmark can check the program's
output without reusing any of its code.

Each overnight session runs 17:00 on the previous day to 15:15.  About 2 %
of ticks are size-0 indicative prices, and a few trades fall in the
15:15-17:00 gap between sessions, so both of the parser's drop paths do
work on every seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from datetime import date, timedelta
from typing import NamedTuple

DAY = 86400
OPEN = 17 * 3600                  # session open, previous calendar day
SESSION_SECONDS = DAY - OPEN + 15 * 3600 + 15 * 60   # 17:00 -> 15:15
GAP_FIRST = 15 * 3600 + 16 * 60   # gap ticks land in 15:16 .. 16:56
GAP_SECONDS = 100 * 60
GAP_TICKS = 12                    # per gap between two sessions
INDICATIVE_SHARE = 0.02
START_DELTAS = 4 * 2350           # 2350.00 on the 0.25 grid
FIRST_DAY = date(2017, 4, 9)      # the first session closes the day after
_STEPS = (-2, -1, 0, 1, 2)
_STEP_WEIGHTS = (1, 10, 20, 10, 1)


class Tick(NamedTuple):
    """One generated line: seconds since FIRST_DAY 00:00, price in deltas, size."""

    t: int
    deltas: int
    size: int

    @property
    def in_gap(self) -> bool:
        return OPEN > self.t % DAY >= GAP_FIRST


def day_of(t: int) -> date:
    return FIRST_DAY + timedelta(days=t // DAY)


def clock(t: int) -> str:
    """'YYYY-MM-DD HH:MM:SS' of a tick time."""
    s = t % DAY
    return f"{day_of(t)} {s // 3600:02d}:{s // 60 % 60:02d}:{s % 60:02d}"


def price(deltas: int) -> str:
    cents = deltas * 25
    return f"{cents // 100}.{cents % 100:02d}"


@dataclass(frozen=True)
class TickFile:
    ticks: tuple[Tick, ...]
    sessions: int

    def text(self) -> str:
        days: dict[int, str] = {}
        lines = []
        for t, deltas, size in self.ticks:
            d, s = divmod(t, DAY)
            if d not in days:
                days[d] = day_of(t).strftime("%Y/%m/%d")
            lines.append(f"{days[d]} {s // 3600:02d}:{s // 60 % 60:02d}:{s % 60:02d} "
                         f"{price(deltas)} {size}\n")
        return "".join(lines)

    @property
    def indicative(self) -> int:
        return sum(1 for tk in self.ticks if tk.size == 0)

    @property
    def out_of_session(self) -> int:
        return sum(1 for tk in self.ticks if tk.size and tk.in_gap)

    def session_trades(self) -> list[list[Tick]]:
        """Trade ticks of each session in file order (gap and size 0 dropped)."""
        out: list[list[Tick]] = [[] for _ in range(self.sessions)]
        for tk in self.ticks:
            if tk.size and not tk.in_gap:
                out[(tk.t - OPEN) // DAY].append(tk)
        return out


def generate(seed: int, sessions: int, ticks_per_session: int) -> TickFile:
    """A time-ordered tick file of ``sessions`` consecutive overnight sessions.

    The same arguments always give the same ticks.  Gap ticks sit between
    sessions only, so a one-session file has none.
    """
    rng = random.Random(f"perfbench-ticks:{seed}")
    level = START_DELTAS
    ticks: list[Tick] = []
    for s in range(sessions):
        opened = s * DAY + OPEN
        offsets = sorted(rng.randrange(SESSION_SECONDS + 1)
                         for _ in range(ticks_per_session))
        steps = rng.choices(_STEPS, _STEP_WEIGHTS, k=ticks_per_session)
        for offset, step in zip(offsets, steps):
            if rng.random() < INDICATIVE_SHARE:
                ticks.append(Tick(opened + offset, level + rng.choice((-1, 1)), 0))
                continue
            level += step
            ticks.append(Tick(opened + offset, level, rng.randint(1, 25)))
        if s + 1 < sessions:
            gap = (s + 1) * DAY + GAP_FIRST
            for offset in sorted(rng.randrange(GAP_SECONDS) for _ in range(GAP_TICKS)):
                level += rng.choice(_STEPS)
                ticks.append(Tick(gap + offset, level, rng.randint(1, 5)))
    return TickFile(tuple(ticks), sessions)
