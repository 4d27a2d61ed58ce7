"""Independent checks of the CLI's stdout for every benchmark workload.

Each check rebuilds the expected output from the generated input with its
own small implementation (integer deltas and cents, no mpslab import), so a
faster but wrong program fails the benchmark on every seed, not only on the
seed whose stdout digest is stored in reference.json.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from datetime import timedelta
from decimal import Decimal
from fractions import Fraction
from typing import NamedTuple, Optional, Sequence

from ticks import FIRST_DAY, Tick, TickFile, clock, price

DOLLARS_PER_DELTA = Fraction(50) * Fraction("0.25")     # ES: $50/point, 0.25 grid
CENTS_PER_DELTA = int(DOLLARS_PER_DELTA * 100)
MAX_LIMIT = 6              # verify sweeps W = 1..6
CHECKS_PER_PAIR = 10


def birth_threshold(fc: str) -> int:
    """Deltas a retrace must cover to prove a new trade: floor(2FC/(k delta)) + 1."""
    return math.floor(2 * Fraction(fc) / DOLLARS_PER_DELTA) + 1


def cents(dollars: str) -> int:
    value = Decimal(dollars) * 100
    if value != value.to_integral_value():
        raise ValueError(f"{dollars} is not a whole number of cents")
    return int(value)


def dollars(c: int) -> str:
    sign = "-" if c < 0 else ""
    return f"{sign}{abs(c) // 100}.{abs(c) % 100:02d}"


class Trade(NamedTuple):
    start: int
    birth: int
    end: int
    direction: int       # +1 buying element, -1 selling element
    closed: bool         # ended by the next birth, not by the session end


def trades(ticks: Sequence[Tick], threshold: int) -> list[Trade]:
    """Optimal trades of one session by the trailing-extreme rule.

    Before the first birth the earliest minimum and maximum are tracked; a
    trade is born once the price retraces ``threshold`` deltas from one of
    them, and each later retrace from the trade's first extreme closes it
    at that extreme and starts the opposite trade there.
    """
    out: list[Trade] = []
    lo = hi = None
    direction = start = birth = ext = 0
    for i, tk in enumerate(ticks):
        n = tk.deltas
        if direction == 0:
            if lo is None:
                lo = hi = i
                continue
            if n < ticks[lo].deltas:
                lo = i
            if n > ticks[hi].deltas:
                hi = i
            if n - ticks[lo].deltas >= threshold:
                direction, start, birth, ext = 1, lo, i, i
            elif ticks[hi].deltas - n >= threshold:
                direction, start, birth, ext = -1, hi, i, i
            continue
        gain = (n - ticks[ext].deltas) * direction
        if gain > 0:
            ext = i
        elif -gain >= threshold:
            out.append(Trade(start, birth, ext, direction, True))
            direction, start, birth, ext = -direction, ext, i, i
    if direction:
        out.append(Trade(start, birth, ext, direction, False))
    return out


def check_ote(out: str, tf: TickFile, fc: str, cost: str) -> Optional[str]:
    """Trade table row by row, and the sample sizes of both stats blocks."""
    threshold, cost_c = birth_threshold(fc), cents(cost)
    expected = ["#\tt_start\tP_start\tt_end\tP_end\tdt_s\tPL\tType"]
    closed = 0
    for ticks in tf.session_trades():
        for tr in trades(ticks, threshold):
            a, b = ticks[tr.start], ticks[tr.end]
            pl = CENTS_PER_DELTA * abs(b.deltas - a.deltas) - 2 * cost_c
            expected.append("\t".join([
                str(len(expected)), clock(a.t), price(a.deltas), clock(b.t),
                price(b.deltas), str(b.t - a.t), dollars(pl),
                "BOTE" if tr.direction > 0 else "SOTE"]))
            closed += tr.closed
    lines = out.split("\n")
    for i, want in enumerate(expected):
        if i >= len(lines) or lines[i] != want:
            return f"ote: line {i + 1} of the trade table differs"
    sizes = [line for line in lines if line.startswith("Samples size")]
    want = [f"Samples size        = {closed}"] * 2 if closed >= 2 else []
    if sizes != want:
        return f"ote: stats sample sizes {sizes} != {want}"
    return None


def check_pattern(out: str, tf: TickFile, fc: str) -> Optional[str]:
    """Every head-and-shoulders match row, and at least one match."""
    threshold = birth_threshold(fc)
    rows = ["session\twindow_end\tmatched_at\tprice"]
    for s, ticks in enumerate(tf.session_trades()):
        day = FIRST_DAY + timedelta(days=s + 1)
        times = [tk.t for tk in ticks]
        p = lambda i: ticks[i].deltas
        recs = trades(ticks, threshold)
        for end in range(6, len(recs) + 1):
            w = recs[end - 6:end]
            if [r.direction for r in w] != [1, -1] * 3:
                continue
            b1, _, b3, _, b5, cur = w
            if not (p(b1.start) < p(b3.start) and p(b3.start) == p(b5.start)
                    and p(b1.end) < p(b3.end) and p(b5.end) < p(b3.end)):
                continue
            target = p(b5.birth)
            for j in range(bisect_left(times, times[cur.birth]),
                           bisect_right(times, times[cur.end])):
                if ticks[j].deltas == target:
                    rows.append(f"{day}\t{end}\t{clock(ticks[j].t)}\t{price(target)}")
                    break
    matches = len(rows) - 1
    rows.append(f"# {matches} matches")
    if matches < 1:
        return "pattern: the input yields no match, so the monitor check never runs"
    if out != "\n".join(rows) + "\n":
        return "pattern: match rows differ from the independent scan"
    return None


def best_pl_cents(deltas: Sequence[int], limit: int, cost_c: int) -> int:
    """Maximum P&L over flat-ending strategies with |position| <= limit.

    Moving from w' to w at price p costs p(w - w') + c|w - w'|, linear on
    each side of w' = w, so one prefix and one suffix maximum per tick
    replace the max over all w' (an L1 distance transform).
    """
    width = 2 * limit + 1
    floor_ = -(1 << 62)
    value = [floor_] * width
    value[limit] = 0
    for d in deltas:
        p = CENTS_PER_DELTA * d
        up, down = p + cost_c, p - cost_c
        nxt = [floor_] * width
        best = floor_
        for k in range(width):
            best = max(best, value[k] + up * k)
            nxt[k] = best - up * k
        best = floor_
        for k in range(width - 1, -1, -1):
            best = max(best, value[k] + down * k)
            nxt[k] = max(nxt[k], best - down * k)
        value = nxt
    return value[limit]


def check_mps(out: str, deltas: Sequence[int], limit: int, cost: str) -> Optional[str]:
    """The reported strategy is feasible, its P&L is the reported one, and
    that P&L equals the optimum of an independent DP."""
    cost_c = cents(cost)
    lines = out.rstrip("\n").split("\n")
    if not lines[0].startswith("pl="):
        return "mps: first line is not pl="
    reported = cents(lines[0][3:])
    actions = [0] * len(deltas)
    trade_lines = []
    for line in lines[1:]:
        fields = line.split("\t")
        if line.startswith("strategy="):
            actions = [int(a) for a in line[len("strategy="):].split(",")]
        elif fields[0] == "action":
            actions[int(fields[1])] = int(fields[2])
        elif fields[0] == "trade":
            trade_lines.append(line)
        elif not line.startswith("transactions="):
            return f"mps: unexpected line {line!r}"
    if len(actions) != len(deltas):
        return "mps: strategy length differs from the tick count"
    position, positions = 0, []
    for a in actions:
        position += a
        if abs(position) > limit:
            return "mps: position limit broken"
        positions.append(position)
    if position != 0:
        return "mps: strategy does not end flat"
    pl = -sum(a * CENTS_PER_DELTA * d + cost_c * abs(a) for a, d in zip(actions, deltas))
    if pl != reported:
        return f"mps: strategy P&L {dollars(pl)} != reported {dollars(reported)}"
    best = best_pl_cents(deltas, limit, cost_c)
    if reported != best:
        return f"mps: reported P&L {dollars(reported)} != optimum {dollars(best)}"
    runs, sign, start = [], 0, 0
    for i, w in enumerate(positions):
        s = (w > 0) - (w < 0)
        if s != sign:
            if sign:
                runs.append(f"trade\t{start}\t{i}\t{'long' if sign > 0 else 'short'}")
            start, sign = i, s
    if trade_lines != runs:
        return "mps: trade lines are not the position runs of the strategy"
    return None


def universe_pairs(max_universe: int) -> list[tuple[int, int]]:
    """(W, n) of every universe with (2W+1)^(n-1) <= max_universe, W <= 6."""
    pairs = []
    for w in range(1, MAX_LIMIT + 1):
        n = 2
        while (2 * w + 1) ** (n - 1) <= max_universe:
            pairs.append((w, n))
            n += 1
    return pairs


def universe_strategies(max_universe: int) -> int:
    return sum((2 * w + 1) ** (n - 1) for w, n in universe_pairs(max_universe))


def check_verify(out: str, max_universe: int) -> Optional[str]:
    """Every swept universe reports every check as passed."""
    pairs = universe_pairs(max_universe)
    total = CHECKS_PER_PAIR * len(pairs)
    lines = out.rstrip("\n").split("\n")
    if lines[0] != "W\tn\tcheck\tstatus":
        return "verify: bad header"
    if lines[-1] != f"# {total}/{total} checks passed":
        return f"verify: last line {lines[-1]!r}"
    seen: dict[tuple[int, int], int] = {}
    for line in lines[1:-1]:
        w, n, _, status = line.split("\t")
        if status != "pass":
            return f"verify: {line!r}"
        seen[int(w), int(n)] = seen.get((int(w), int(n)), 0) + 1
    if seen != {pair: CHECKS_PER_PAIR for pair in pairs}:
        return "verify: swept universes differ from the expected (W, n) pairs"
    return None
