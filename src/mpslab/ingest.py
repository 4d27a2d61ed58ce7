"""Time & Sales parsing, validation, and session windowing.

Input is delimited text, one tick per line: date, time, price, size, and an
optional condition symbol.  ``parse_ticks`` reads it into ``TickColumns``,
integer columns that hold each price as its grid count; a price off the
contract grid is refused.  Size 0 marks indicative prices, which stay in
the parse result and are dropped from analysis input by ``trade_ticks``.
Timestamps are naive exchange-local clock times throughout.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from datetime import date, datetime, time, timedelta
from fractions import Fraction
from itertools import compress, islice
from operator import add, itemgetter
from typing import Iterable, NamedTuple, Optional, Sequence, TextIO, Union

from .model import ContractSpec, GridError, Tick
from .numeric import as_fraction


PRESETS = {
    # E-mini S&P 500: $50 per point, 0.25 minimum fluctuation,
    # 17:00 previous day - 15:15 close.
    "ES": ContractSpec("ES", 50, "0.25", time(17, 0), time(15, 15)),
    # Corn: 5000 bushels, $50 per full cent, 1/4 cent fluctuation.
    "ZC": ContractSpec("ZC", 50, "0.25", time(19, 0), time(13, 20)),
}
PRESETS["CORN"] = PRESETS["ZC"]


def load_contract_config(path: str) -> dict[str, ContractSpec]:
    """Contract specs from an INI file, one [SYMBOL] section each.

    Keys: k, delta (both positive), session_open, session_close (H:M or
    H:M:S); bad input is a ValueError that names the contract and the key.
    """
    import configparser                 # only a --config needs it

    parser = configparser.ConfigParser(interpolation=None)
    with open(path) as fh:
        try:
            parser.read_file(fh)
        except configparser.Error as exc:
            raise ValueError(f"bad config: {' '.join(exc.message.split())}") from None
    specs = {}
    for symbol in parser.sections():
        section, fields = parser[symbol], {}
        for key, parse in (("k", as_fraction), ("delta", as_fraction),
                           ("session_open", _parse_time), ("session_close", _parse_time)):
            if key not in section and key in ("k", "delta"):
                raise ValueError(f"contract {symbol} has no {key}")
            try:
                fields[key] = parse(section[key]) if key in section else None
            except (ValueError, TypeError, ArithmeticError) as exc:
                raise ValueError(f"contract {symbol}: bad {key} {section[key]!r}: {exc}") from None
        try:
            specs[symbol] = ContractSpec(symbol, **fields)
        except ValueError as exc:                   # k or delta not positive
            raise ValueError(f"contract {symbol}: {exc}") from None
    return specs


def contract_for(name: str, config_path: Optional[str] = None) -> ContractSpec:
    """Resolve a preset name or a symbol defined in a config file."""
    if config_path:
        specs = load_contract_config(config_path)
        if name in specs:
            return specs[name]
    if name.upper() in PRESETS:
        return PRESETS[name.upper()]
    raise ValueError(f"unknown contract {name!r}; presets: {sorted(set(PRESETS))}")


def _parse_time(text: str) -> time:
    parts = text.strip().split(":")
    if len(parts) not in (2, 3):
        raise ValueError("a clock is H:M or H:M:S")
    return time(*map(int, parts))


_DAY_US = 86_400_000_000
_EPOCH = datetime(1, 1, 1)
_US = timedelta(microseconds=1)
_LAST_DAY = date.max.toordinal()        # days since _EPOCH of the day after date.max
_SECOND_US = {f":{s:02d}": s * 1_000_000 for s in range(60)}    # clock tails ':00'..':59'
_HEAD, _TAIL = itemgetter(slice(None, -3)), itemgetter(slice(-3, None))   # 'HH:MM', ':SS'
_BLOCK_LINES = 1000         # lines parsed per block by ``parse_ticks``


def to_micros(ts: datetime) -> int:
    """Timestamp -> integer microseconds since 0001-01-01 00:00."""
    return (ts - _EPOCH) // _US


def from_micros(t: int) -> datetime:
    """Inverse of ``to_micros``."""
    return _EPOCH + timedelta(microseconds=t)


class TickColumns(Sequence[Tick]):
    """Ticks of one contract held column-wise as integers.

    ``times`` are microseconds (see ``to_micros``), ``deltas`` the grid
    counts N of the prices (price = N * spec.delta), ``sizes`` the traded
    sizes.  A ``Tick`` is built only when one is indexed, and each distinct
    price Fraction once.
    """

    __slots__ = ("spec", "times", "deltas", "sizes", "conditions", "_prices")

    def __init__(self, spec: ContractSpec):
        self.spec = spec
        self.times: list[int] = []
        self.deltas: list[int] = []
        self.sizes: list[int] = []
        self.conditions: list[Optional[str]] = []
        self._prices: dict[int, Fraction] = {}

    @classmethod
    def of(cls, ticks: Iterable[Tick], spec: ContractSpec) -> "TickColumns":
        cols = cls(spec)
        for tick in ticks:
            cols.append(tick)
        return cols

    def append(self, tick: Tick) -> None:
        n = self.spec.to_deltas(tick.price)
        self.times.append(to_micros(tick.timestamp))
        self.deltas.append(n)
        self.sizes.append(tick.size)
        self.conditions.append(tick.condition)

    def take(self, indices: Iterable[int]) -> "TickColumns":
        """The ticks at the given positions, as new columns."""
        idx = list(indices)
        return self._columns(lambda column: list(map(column.__getitem__, idx)))

    def _columns(self, build) -> "TickColumns":
        """New columns on this spec, each built from its own column."""
        out = TickColumns(self.spec)
        for name in ("times", "deltas", "sizes", "conditions"):
            setattr(out, name, build(getattr(self, name)))
        return out

    def price(self, i: int) -> Fraction:
        n = self.deltas[i]
        price = self._prices.get(n)
        if price is None:
            price = self._prices[n] = self.spec.delta * n
        return price

    def __len__(self) -> int:
        return len(self.times)

    def __getitem__(self, i: int) -> Tick:
        return Tick(from_micros(self.times[i]), self.price(i), self.sizes[i], self.conditions[i])


class ParseError(ValueError):
    """Malformed tick line; the message carries the line number."""


def _day_micros(text: str) -> int:
    """Start of the day 'YYYY/MM/DD' or 'YYYY-MM-DD' in microseconds."""
    y, m, d = (int(p) for p in text.split("/" if "/" in text else "-"))
    return to_micros(datetime(y, m, d))


def _clock_micros(text: str) -> int:
    """Time of day 'HH:MM:SS' in microseconds."""
    h, m, s = map(int, text.split(":"))
    if not (0 <= h < 24 and 0 <= m < 60 and 0 <= s < 60):
        raise ValueError(text)
    return ((h * 60 + m) * 60 + s) * 1_000_000


def _grid_deltas(price_text: str, size_text: str, spec: ContractSpec, line_no: int) -> int:
    """Grid count of a line's price text, checked in the order ticks are:
    price and size syntax, the grid, then a positive price.  Exponent
    notation is refused before any Fraction is built: '1e300000' would
    cost time and memory growing with the exponent."""
    if "e" in price_text or "E" in price_text:
        raise ParseError(f"line {line_no}: exponent notation in price {price_text!r}")
    try:
        price = as_fraction(price_text)
        int(size_text)
    except (ValueError, TypeError, ZeroDivisionError) as exc:
        raise ParseError(f"line {line_no}: {exc}") from exc
    try:
        n = spec.to_deltas(price)
    except GridError as exc:
        raise GridError(f"line {line_no}: {exc}") from exc
    if n <= 0:
        raise ParseError(f"line {line_no}: tick price must be positive")
    return n


def _check_decoded(line: str, line_no: int) -> None:
    """Refuse a byte that was not UTF-8, which decoding with errors=
    'surrogateescape' (as the CLI reads) turned into a lone surrogate."""
    bad = next((c for c in line if "\udc80" <= c <= "\udcff"), None)
    if bad is not None:
        raise ParseError(f"line {line_no}: invalid UTF-8 byte 0x{ord(bad) - 0xdc00:02x}")


def parse_ticks(source: Union[TextIO, Iterable[str]], spec: ContractSpec) -> TickColumns:
    """Parse a tick stream in file order into columns, validating prices on
    the grid.  Timestamps are whole seconds: '09:00:00.250' is a bad
    timestamp.

    The source is read in blocks of up to ``_BLOCK_LINES`` lines.  A block
    of plain ASCII tick lines, all with 4 fields or all with 5, is split
    once and converted column by column (``_parse_block``); any other block
    (a comment or blank line, mixed field counts, a byte that is not ASCII,
    a value that does not convert) goes whole to the per-line loop
    (``_parse_lines``), which alone raises errors, with their line numbers.
    Both share one set of caches, so each distinct date, 'HH:MM' and price
    text is converted once.
    """
    cols = TickColumns(spec)
    caches = ({}, {}, {}, {}, {})      # days, minutes, grid, sizes, clocks
    lines = iter(source)
    line_no = 1
    while block := list(islice(lines, _BLOCK_LINES)):
        if not _parse_block(block, cols, caches):
            _parse_lines(block, line_no, cols, caches)
        line_no += len(block)
    return cols


def _parse_block(block: list[str], cols: TickColumns, caches: tuple) -> bool:
    """Append the ticks of ``block`` column by column, with no bytecode per
    line; False, with nothing appended, unless every line is a plain tick
    line and every value converts.  The lines are joined around a NUL
    sentinel and split once: a block of k-field lines is accepted only if
    the sentinel is every (k+1)-th token and nowhere else."""
    days, minutes, grid, size_of, _ = caches
    count = len(block)
    text = " \0 ".join(block)
    if not text.isascii() or text.count("\0") != count - 1:
        return False
    tokens = text.split()
    for stride in (5, 6):
        if len(tokens) == stride * count - 1 and \
                tokens[stride - 1::stride].count("\0") == count - 1:
            break
    else:
        return False
    dates, clocks, prices, sizes = (tokens[i::stride] for i in range(4))
    heads = list(map(_HEAD, clocks))
    try:
        # the conversions of the per-line loop, once per distinct text; a
        # failure of any sends the block to that loop, which reports it
        day_set, head_set = set(dates), set(heads)
        for key in day_set.difference(days):
            days[key] = _day_micros(key)
        for key in head_set.difference(minutes):
            minutes[key] = _clock_micros(key + ":00")
        for key in set(prices).difference(grid):
            grid[key] = _grid_deltas(key, "0", cols.spec, 0)    # size "0" always passes
        for key in set(sizes).difference(size_of):
            if (size := int(key)) < 0:
                return False
            size_of[key] = size
        seconds = list(map(_SECOND_US.__getitem__, map(_TAIL, clocks)))
    except (ValueError, ArithmeticError, KeyError):
        return False
    if len(day_set) == 1:
        day = days[dates[0]]
        starts = map({head: day + minutes[head] for head in head_set}.__getitem__, heads)
    else:
        starts = map(add, map(days.__getitem__, dates), map(minutes.__getitem__, heads))
    cols.times += map(add, starts, seconds)
    cols.deltas += map(grid.__getitem__, prices)
    cols.sizes += map(size_of.__getitem__, sizes)
    cols.conditions += tokens[4::6] if stride == 6 else [None] * count
    return True


def _parse_lines(lines: Iterable[str], line_no: int, cols: TickColumns, caches: tuple) -> None:
    """Append the ticks of ``lines``, numbered from ``line_no``, one line at
    a time, skipping blank and '#' lines; a bad line raises its error."""
    spec = cols.spec
    add_time, add_delta = cols.times.append, cols.deltas.append
    add_size, add_condition = cols.sizes.append, cols.conditions.append
    days, minutes, grid, _, clock = caches
    for line_no, raw in enumerate(lines, start=line_no):
        line = raw.strip()
        if not line.isascii():
            _check_decoded(line, line_no)
        if not line or line[0] == "#":
            continue
        fields = line.split()
        if len(fields) not in (4, 5):
            raise ParseError(f"line {line_no}: expected 4 or 5 fields, got {len(fields)}")
        try:
            day = days.get(fields[0])
            if day is None:
                day = days[fields[0]] = _day_micros(fields[0])
            tod = clock.get(fields[1])
            if tod is None:
                # 'HH:MM:SS' is its minute plus its seconds; a miss is checked whole
                head, sec_us = fields[1][:-3], _SECOND_US.get(fields[1][-3:])
                if sec_us is not None and head not in minutes:
                    minutes[head] = _clock_micros(head + ":00")
                tod = clock[fields[1]] = (_clock_micros(fields[1]) if sec_us is None
                                          else minutes[head] + sec_us)
        except (ValueError, OverflowError):
            raise ParseError(f"line {line_no}: bad timestamp {fields[0]!r} {fields[1]!r}") \
                from None
        n = grid.get(fields[2])
        if n is None:
            n = grid[fields[2]] = _grid_deltas(fields[2], fields[3], spec, line_no)
        try:
            size = int(fields[3])
        except ValueError as exc:
            raise ParseError(f"line {line_no}: {exc}") from exc
        if size < 0:
            raise ParseError(f"line {line_no}: tick size must be non-negative")
        add_time(day + tod)
        add_delta(n)
        add_size(size)
        add_condition(fields[4] if len(fields) == 5 else None)


def trade_ticks(ticks: TickColumns) -> TickColumns:
    """Drop indicative (size 0) ticks; the columns come back themselves
    when none is indicative."""
    return ticks if all(ticks.sizes) else ticks._columns(lambda c: list(compress(c, ticks.sizes)))


def time_ordered(times: list[int]) -> bool:
    """True iff no time is earlier than the one before it."""
    return times == sorted(times)


def in_time_order(ticks: TickColumns) -> TickColumns:
    """The ticks stably sorted by time, which keeps arrival order for equal
    times; time-ordered columns come back themselves."""
    times = ticks.times
    if time_ordered(times):
        return ticks
    return ticks.take(sorted(range(len(times)), key=times.__getitem__))


def _exact_text(x: Fraction) -> str:
    """Plain text of a positive ``x`` that parses back exactly: every decimal
    digit when the expansion ends ('2350.25', '2350'), else 'numerator/denominator'."""
    den = x.denominator
    places = next((k for k in range(den.bit_length()) if 10 ** k % den == 0), None)
    if places is None:
        return f"{x.numerator}/{den}"
    whole, part = divmod(x.numerator * 10 ** places // den, 10 ** places)
    return f"{whole}.{part:0{places}d}" if places else str(whole)


def serialize_ticks(ticks: Sequence[Tick]) -> str:
    """Canonical TSV tick format (date, time, price, size[, condition]).
    Prices are written exactly, so ``parse_ticks`` reads back the same ticks."""
    lines = []
    for t in ticks:
        fields = [t.timestamp.strftime("%Y/%m/%d"), t.timestamp.strftime("%H:%M:%S"),
                  _exact_text(t.price), str(t.size)]
        if t.condition is not None:
            fields.append(t.condition)
        lines.append("\t".join(fields))
    return "\n".join(lines) + ("\n" if lines else "")


class Session(NamedTuple):
    """Ticks of one trading session, labeled by the closing calendar day."""

    day: date
    ticks: TickColumns


class SessionizeResult(NamedTuple):
    sessions: tuple[Session, ...]
    dropped: int


def sessionize(ticks: TickColumns) -> SessionizeResult:
    """Partition ticks into their contract's [open, close] sessions, dropping
    the rest; a contract with neither ``session_open`` nor ``session_close``
    keeps every tick, in one session labeled by its first tick's date.

    The ticks are put ``in_time_order`` first, and each session is a slice
    of the ordered columns.
    """
    spec = ticks.spec
    opens, closes = spec.session_open, spec.session_close
    if (opens is None) != (closes is None):
        missing = "session_open" if opens is None else "session_close"
        raise ValueError(f"contract {spec.symbol} has no {missing} for its session window")
    if opens is not None and opens == closes:
        raise ValueError("session open and close must differ")
    ticks = in_time_order(ticks)
    times = ticks.times
    if opens is None:
        whole = [Session(date.fromordinal(times[0] // _DAY_US + 1), ticks)] if times else []
        return SessionizeResult(tuple(whole), 0)
    overnight = opens > closes
    open_us, close_us = (to_micros(datetime.combine(_EPOCH, clock))
                         for clock in (opens, closes))
    sessions = []
    p = 0
    # Session `day` runs from `first` to `last` and session days rise with
    # time, so each session, and each run of dropped ticks between two, is
    # one block of the ordered times: one bisection finds its end.
    while p < len(times):
        day, tod = divmod(times[p], _DAY_US)
        if overnight and tod >= open_us:
            day += 1
        first = (day - overnight) * _DAY_US + open_us
        last = day * _DAY_US + close_us
        if first <= times[p] <= last:
            q = bisect_right(times, last, p)
            if day >= _LAST_DAY:
                raise ValueError(f"tick at {from_micros(times[p]):%Y-%m-%d %H:%M:%S} is in "
                                 f"a session that closes after {date.max}, the last date")
            sessions.append(Session(date.fromordinal(day + 1), ticks._columns(lambda c: c[p:q])))
        else:
            q = bisect_left(times, first if times[p] < first else first + _DAY_US, p)
        p = q
    return SessionizeResult(tuple(sessions), len(times) - sum(len(s.ticks) for s in sessions))
