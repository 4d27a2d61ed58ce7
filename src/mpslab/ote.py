"""Optimal trading elements: extraction, statistics, and the pattern test.

Running the maximum-profit strategy with an artificial filtering cost FC
turns a tick session into a chain of alternating optimal trades.  A new
trade is born when the price has retraced floor(2 FC / (delta k)) + 1 deltas
from the trailing extreme; the birth closes the previous trade at that
extreme.  Each closed trade is priced with the actual cost C < FC, which
pins its profit to the lattice PL_min + k*delta*i.  The trades are those
of ``mps.scan_trades``, the scan that also gives ``mps0`` its trades, so
they are the MPS's trades at W = 1 and cost FC by construction.
"""

from __future__ import annotations

import enum
import math
from bisect import bisect_left, bisect_right
from fractions import Fraction
from typing import Iterator, NamedTuple, Optional, Sequence

from . import mps
from .ingest import TickColumns, from_micros, time_ordered, to_micros, trade_ticks
from .model import ContractSpec, Tick
from .numeric import Rational, as_fraction, money_scale


class OteType(enum.Enum):
    BOTE = "BOTE"     # buying element: starts at a local minimum
    SOTE = "SOTE"     # selling element: starts at a local maximum


class Scenario(enum.Enum):
    PROFIT_GREW = "ProfitGrew"
    REPLACED = "Replaced"
    SESSION_ENDED = "SessionEnded"


# the members as plain globals: reading them off the class costs a lookup per record
_BOTE, _SOTE = OteType
_GREW, _REPLACED, _ENDED = Scenario


birth_threshold = mps.birth_threshold


def permitted_profit_grid(filtering_cost: Rational, cost: Rational,
                          spec: ContractSpec, i_max: int) -> tuple[Fraction, ...]:
    """The lattice of closed-trade profits PL_min + k*delta*i, i = 0..i_max."""
    fc = as_fraction(filtering_cost)
    c = as_fraction(cost)
    if c >= fc:
        raise ValueError("actual cost must be below the filtering cost")
    threshold = birth_threshold(fc, spec)
    return tuple(mps.trade_pl(threshold + i, c, spec) for i in range(i_max + 1))


def on_permitted_grid(pl_value: Rational, filtering_cost: Rational, cost: Rational,
                      spec: ContractSpec) -> bool:
    """True iff the profit sits exactly on the permitted lattice."""
    pl_min = mps.trade_pl(birth_threshold(filtering_cost, spec), as_fraction(cost), spec)
    steps = (as_fraction(pl_value) - pl_min) / spec.delta_dollars
    return steps.denominator == 1 and steps >= 0


class OteRecord(NamedTuple):
    """One optimal trade: a span of shared tick columns and its result.

    The trade runs from tick ``start`` to tick ``stop - 1`` of ``columns``
    and was born at tick ``birth``.  Times, prices, counts and the sample
    tuples are read off the columns when asked for, so a record copies no
    ticks.  A live (born but unfinished) snapshot has ``ended`` False: it
    spans every tick so far and its end-side values are None.  Records
    compare and hash by these values, not by which columns they span.
    """

    ote_type: OteType
    columns: TickColumns
    start: int
    birth: int
    stop: int
    ended: bool
    pl: Optional[Fraction]
    filtering_cost: Fraction
    scenario: Optional[Scenario]
    closed: bool                          # ended by replacement, not session end

    t_start = property(lambda r: from_micros(r.columns.times[r.start]))
    p_start = property(lambda r: r.columns.price(r.start))
    t_birth = property(lambda r: from_micros(r.columns.times[r.birth]))
    p_birth = property(lambda r: r.columns.price(r.birth))
    t_end = property(lambda r: from_micros(r.columns.times[r.stop - 1]) if r.ended else None)
    p_end = property(lambda r: r.columns.price(r.stop - 1) if r.ended else None)
    tick_count = property(lambda r: r.stop - r.start)
    volume_total = property(lambda r: sum(r.columns.sizes[r.start:r.stop]))
    prices = property(lambda r: tuple(map(r.columns.price, range(r.start, r.stop))))
    volumes = property(lambda r: tuple(r.columns.sizes[r.start:r.stop]))

    @property
    def duration(self) -> Optional[float]:
        """Seconds from start to end."""
        times = self.columns.times
        return (times[self.stop - 1] - times[self.start]) / 1_000_000 if self.ended else None

    @property
    def a_increments(self) -> tuple[float, ...]:
        """Waiting times between ticks, seconds."""
        t = self.columns.times[self.start:self.stop]
        return tuple((b - a) / 1_000_000 for a, b in zip(t, t[1:]))

    @property
    def b_increments(self) -> tuple[Fraction, ...]:
        """Price increments between ticks."""
        n, delta = self.columns.deltas[self.start:self.stop], self.columns.spec.delta
        return tuple(delta * (b - a) for a, b in zip(n, n[1:]))

    def _values(self) -> tuple:
        cols, s, stop = self.columns, self.start, self.stop
        return (self.ote_type, self.ended, self.pl, self.filtering_cost, self.scenario,
                self.closed, cols.spec.delta, self.birth - s, tuple(cols.times[s:stop]),
                tuple(cols.deltas[s:stop]), tuple(cols.sizes[s:stop]))

    def __eq__(self, other) -> bool:
        if not isinstance(other, OteRecord):
            return NotImplemented
        return self._values() == other._values()

    def __ne__(self, other) -> bool:
        equal = self.__eq__(other)
        return equal if equal is NotImplemented else not equal

    def __hash__(self) -> int:
        return hash(self._values())


class OteExtractor:
    """Streaming trade extraction; push ticks, collect finished records.

    Ticks are kept as integer columns and scanned on their grid counts.
    ``push`` appends one tick and batch extraction hands over whole
    columns; both then run the same scan, so streaming and batch modes
    produce identical records by construction.  Indicative ticks are
    checked for the grid and skipped.
    """

    def __init__(self, filtering_cost: Rational, cost: Rational, spec: ContractSpec):
        self.fc = as_fraction(filtering_cost)
        self.cost = as_fraction(cost)
        if self.cost >= self.fc:
            raise ValueError("actual cost C must be below the filtering cost FC")
        self.spec = spec
        self.threshold = birth_threshold(self.fc, spec)
        self._ticks = TickColumns(spec)
        self._seen = 0                    # ticks scanned so far
        self._state = mps.SCAN_START      # of ``mps.scan_trades``: the live trade, if born
        self._records: list[OteRecord] = []
        self._pl_of: dict[int, Fraction] = {}      # profit per price move

    @property
    def records(self) -> list[OteRecord]:
        """Records finished so far (closed by replacement)."""
        return list(self._records)

    def push(self, tick: Tick) -> list[OteRecord]:
        """Consume one tick; return any record it closes.  Off-grid ticks
        raise, indicative or not."""
        if tick.indicative:
            self.spec.to_deltas(tick.price)
            return []
        times = self._ticks.times
        if times and to_micros(tick.timestamp) < times[-1]:
            raise ValueError("ticks must be time-ordered")
        self._ticks.append(tick)
        return self._scan()

    def finish(self) -> list[OteRecord]:
        """Finalize the session-terminated trade, if one was born."""
        if self._state[0] == 0:
            return []
        records = self._close([self._state], replaced=False)
        self._state = (0, self._seen, 0, self._seen)     # a later push starts a new chain
        return records

    def current(self) -> Optional[OteRecord]:
        """Snapshot of the live trade: born, not ended, end fields None."""
        direction, start, birth, _ = self._state
        if direction == 0:
            return None
        return tuple.__new__(OteRecord, (_BOTE if direction > 0 else _SOTE, self._ticks, start,
                                         birth, len(self._ticks), False, None, self.fc, None,
                                         False))

    def _scan(self) -> list[OteRecord]:
        """Run the trade scan over the ticks not scanned yet."""
        deltas = self._ticks.deltas
        trades, self._state = mps.scan_trades(deltas, self.threshold, self._state, self._seen)
        self._seen = len(deltas)
        return self._close(trades, replaced=True)

    def _close(self, trades: list, replaced: bool) -> list[OteRecord]:
        """Records of trades (direction, start, birth, end) ended by a
        replacement or by the session end."""
        ticks, fc, pl_of = self._ticks, self.fc, self._pl_of
        deltas = ticks.deltas
        records = []
        for direction, s, b, end in trades:
            move = abs(deltas[end] - deltas[s])
            pl = pl_of.get(move)
            if pl is None:
                pl = pl_of[move] = mps.trade_pl(move, self.cost, self.spec)
            if (deltas[end] - deltas[b]) * direction > 0:
                scenario = _GREW
            else:
                scenario = _REPLACED if replaced else _ENDED
            records.append(tuple.__new__(OteRecord, (_BOTE if direction > 0 else _SOTE, ticks,
                                                     s, b, end + 1, True, pl, fc, scenario,
                                                     replaced)))
        self._records.extend(records)
        return records


def extract_otes(ticks: Sequence[Tick], filtering_cost: Rational, cost: Rational,
                 spec: ContractSpec) -> list[OteRecord]:
    """All optimal trades of one time-ordered tick session.

    ``TickColumns`` on ``spec`` are scanned in place and the records span
    them; other sequences become columns first, which refuses any tick off
    the grid.  Indicative ticks are dropped.
    """
    extractor = OteExtractor(filtering_cost, cost, spec)
    if not (isinstance(ticks, TickColumns) and ticks.spec == spec):
        ticks = TickColumns.of(ticks, spec)
    ticks = trade_ticks(ticks)
    if not time_ordered(ticks.times):
        raise ValueError("ticks must be time-ordered")
    extractor._ticks = ticks
    extractor._scan()
    extractor.finish()
    return extractor.records


class OteStats(NamedTuple):
    """Sample statistics block for one trade metric."""

    count: int
    mean: Fraction
    minimum: Fraction
    min_count: int
    maximum: Fraction
    max_count: int
    variance: Fraction
    std_dev: float
    skewness: Optional[float]
    excess_kurtosis: Optional[float]
    histogram: tuple[tuple[float, float, int], ...]
    ecdf: tuple[tuple[Fraction, Fraction], ...]
    epmf: tuple[tuple[Fraction, int], ...]


def _bin_count(n: int, bins: Optional[int]) -> int:
    if bins is not None:
        if bins < 1:
            raise ValueError("bin count must be >= 1")
        return bins
    return 7 if n <= 10 else math.ceil(math.log2(n)) + 1


def sample_stats(values: Sequence[Rational], bins: Optional[int] = None) -> OteStats:
    """Exact sample moments with bias-corrected skewness and excess kurtosis.

    Variance uses the n-1 divisor; skewness is the adjusted Fisher-Pearson
    estimate sqrt(n(n-1))/(n-2) * m3/m2^(3/2) (n >= 3) and excess kurtosis
    the matching bias-corrected estimate (n >= 4; None below).

    On the samples scaled to integers x by their common denominator D, with
    S their sum, m_k = sum((n x - S)^k) / (n^(k+1) D^k) exactly, and each
    float is rounded once from an exact rational.  The k histogram bins have
    edges (lo k + (hi - lo) j) / (k D); all are (left, right] but the first,
    which is closed, although it prints as (left, right] too.
    """
    n = len(values)
    if n < 2:
        raise ValueError("need at least 2 samples")
    fs = [as_fraction(v) for v in values]
    d = money_scale(fs)
    xs = sorted([f.numerator * (d // f.denominator) for f in fs])
    k = _bin_count(n, bins)
    s = sum(xs)
    p2 = p3 = p4 = 0
    for x in xs:
        e = n * x - s
        e2 = e * e
        p2 += e2
        p3 += e2 * e
        p4 += e2 * e2
    nd = n * d
    variance = Fraction(p2, nd ** 2 * (n - 1))
    lo, hi = xs[0], xs[-1]
    try:
        std_dev = math.sqrt(variance)
        skewness = excess_kurtosis = None
        if n >= 3 and p2 > 0:
            # where a power of the float m2 underflows to 0.0, the scale-free
            # exact ratios g1 = sqrt(n) p3 / p2^1.5 and g2 + 3 = n p4 / p2^2
            m2 = p2 / (nd ** 2 * n)
            m2_3 = m2 ** 1.5
            g1 = (p3 / (nd ** 3 * n)) / m2_3 if m2_3 else \
                math.sqrt(n * p3 * p3 / p2 ** 3) * (-1 if p3 < 0 else 1)
            skewness = g1 * math.sqrt(n * (n - 1)) / (n - 2)
            if n >= 4:
                m2_4 = m2 ** 2
                g2 = ((p4 / (nd ** 4 * n)) / m2_4 if m2_4 else n * p4 / (p2 * p2)) - 3
                excess_kurtosis = ((n + 1) * g2 + 6) * (n - 1) / ((n - 2) * (n - 3))
        if hi == lo:
            histogram = [(lo / d, hi / d, n)]
        else:
            histogram, left, below, kd = [], lo * k, 0, k * d
            for j in range(1, k + 1):
                right = lo * k + (hi - lo) * j
                upto = bisect_right(xs, right // k)     # x k <= right iff x <= floor(right / k)
                histogram.append((left / kd, right / kd, upto - below))
                left, below = right, upto
    except OverflowError:
        # once these floats fit, so do the mean, extremes and variance printed from them
        raise ValueError("samples too large for float statistics") from None

    ecdf, epmf, i = [], [], 0
    while i < n:
        x = xs[i]
        j = bisect_right(xs, x, i)
        value = Fraction(x, d)
        epmf.append((value, j - i))
        ecdf.append((value, Fraction(j, n)))
        i = j
    return OteStats(
        count=n, mean=Fraction(s, nd),
        minimum=epmf[0][0], min_count=epmf[0][1],
        maximum=epmf[-1][0], max_count=epmf[-1][1],
        variance=variance, std_dev=std_dev,
        skewness=skewness, excess_kurtosis=excess_kurtosis,
        histogram=tuple(histogram), ecdf=tuple(ecdf), epmf=tuple(epmf),
    )


_METRICS = {
    "profit": lambda r: r.pl,
    "duration": lambda r: r.duration,
    "ticks": lambda r: r.tick_count,
    "volume": lambda r: r.volume_total,
}


def ote_stats(records: Sequence, metric: str = "profit",
              include_open: bool = False, bins: Optional[int] = None) -> OteStats:
    """Statistics of one metric over trade records (or raw sample values).

    Session-terminated records are excluded unless ``include_open`` is set.
    """
    if records and isinstance(records[0], OteRecord):
        if metric not in _METRICS:
            raise ValueError(f"unknown metric {metric!r}; one of {sorted(_METRICS)}")
        pick = _METRICS[metric]
        values = [v for r in records if r.closed or include_open
                  if (v := pick(r)) is not None]
    else:
        values = list(records)
    return sample_stats(values, bins)


class Tolerances(NamedTuple):
    """Slack for the pattern comparisons, in delta units.

    Equality holds within eq_deltas; "less than" requires the right side to
    exceed the left by more than lt_deltas deltas.
    """

    eq_deltas: int = 0
    lt_deltas: int = 0


def _shoulders_ok(first1: int, first3: int, first5: int, last1: int, last3: int, last5: int,
                  eq_deltas: int, lt_deltas: int) -> bool:
    """The fixed comparisons of the pattern, on the grid counts at which B1,
    B3 and B5 start and end: B1 starts and ends below B3, and B5 starts level
    with B3 and ends below it."""
    return (first1 < first3 - lt_deltas and abs(first3 - first5) <= eq_deltas
            and last1 < last3 - lt_deltas and last5 < last3 - lt_deltas)


class HeadShouldersMonitor:
    """Head-and-shoulders test over a six-trade chain (B1,S2,B3,S4,B5,S6).

    The fixed comparisons are evaluated once at construction, on grid
    counts; per-tick monitoring only compares the arriving price with B5's
    birth price, ``monitored_deltas`` deltas.
    """

    def __init__(self, chain: Sequence[OteRecord], tolerances: Tolerances,
                 spec: ContractSpec):
        if len(chain) < 6:
            raise ValueError("need a chain of at least six trades")
        window = list(chain[-6:])
        expected = [OteType.BOTE, OteType.SOTE] * 3
        if [r.ote_type for r in window] != expected:
            raise ValueError("chain must alternate BOTE/SOTE starting with a BOTE")
        b1, _, b3, _, b5, _ = window
        first = lambda r: r.columns.deltas[r.start]
        last = lambda r: r.columns.deltas[r.stop - 1]
        self.fixed_ok = _shoulders_ok(first(b1), first(b3), first(b5), last(b1), last(b3),
                                      last(b5), tolerances.eq_deltas, tolerances.lt_deltas)
        self.eq_deltas = tolerances.eq_deltas
        self.monitored_deltas = b5.columns.deltas[b5.birth]
        self._delta = spec.delta

    def check(self, price: Rational) -> bool:
        """Exact for any price: one off the grid is compared as it is."""
        return self.fixed_ok and \
            abs(as_fraction(price) / self._delta - self.monitored_deltas) <= self.eq_deltas


def head_and_shoulders_hits(records: Sequence[OteRecord], tolerances: Tolerances,
                            spec: ContractSpec) -> Iterator[tuple[int, int]]:
    """First match of each six-trade window of one session's records: yields
    (window end, tick index), the window being ``records[end - 6:end]`` and the
    index one of its last trade's columns, tried from the first tick sharing
    that trade's birth time to the last sharing its end time.

    Trade types and end grid counts are read once; a monitor is built only
    for a window that alternates from a BOTE and passes the fixed comparisons.
    """
    kinds = "".join(["B" if r.ote_type is _BOTE else "S" for r in records])
    firsts = [r.columns.deltas[r.start] for r in records]
    lasts = [r.columns.deltas[r.stop - 1] for r in records]
    eq, lt = tolerances.eq_deltas, tolerances.lt_deltas
    s = kinds.find("BSBSBS")
    while s >= 0:
        if _shoulders_ok(firsts[s], firsts[s + 2], firsts[s + 4],
                         lasts[s], lasts[s + 2], lasts[s + 4], eq, lt):
            monitor = HeadShouldersMonitor(records[s:s + 6], tolerances, spec)
            last = records[s + 5]
            times, deltas = last.columns.times, last.columns.deltas
            for i in range(bisect_left(times, times[last.birth]),
                           bisect_right(times, times[last.stop - 1])):
                if abs(deltas[i] - monitor.monitored_deltas) <= monitor.eq_deltas:
                    yield s + 6, i
                    break
        s = kinds.find("BSBSBS", s + 1)
