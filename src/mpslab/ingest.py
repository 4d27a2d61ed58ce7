"""Time & Sales parsing, validation, and session windowing.

Input is delimited text, one tick per line: date, time, price, size, and an
optional condition symbol.  ``parse_ticks`` reads it into ``TickColumns``,
integer columns that hold each price as its grid count; a price off the
contract grid is refused.  Size 0 marks indicative prices, which stay in
the parse result and are dropped from analysis input by ``trade_ticks``.
Timestamps are naive exchange-local clock times throughout.
"""

from __future__ import annotations

import struct
from bisect import bisect_left, bisect_right
from datetime import date, datetime, time, timedelta
from fractions import Fraction
from itertools import compress, islice
from operator import add
from typing import Iterable, NamedTuple, NoReturn, Optional, Sequence, TextIO, Union

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
# a clock 'HH:MM:SS' read as a little-endian 8-byte lane (see _clock_lanes)
_CLOCK_SHAPE = bytes(48) + b"0" * 10 + b":" + bytes(197)     # digits -> '0', ':' kept
_ZEROS = int.from_bytes(b"00:00:00", "little")
_FIELDS = 0xff << 48 | 0xff << 24 | 0xff                    # bytes 6, 3, 0: SS, MM, HH
_LIMITS = (128 - 60) << 48 | (128 - 60) << 24 | (128 - 24)  # field + limit reaches bit 7 ...
_HIGH = 0x80 << 48 | 0x80 << 24 | 0x80                      # ... at SS, MM >= 60 or HH >= 24
_BLOCK_LINES = 1000         # lines parsed per block by ``parse_ticks``
_UNDECODED = frozenset(map(chr, range(0xdc80, 0xdd00)))   # bytes 0x80-0xff left undecoded


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


def _clock_lanes(clocks: list[str], day: int) -> Optional[tuple[int, ...]]:
    """``day`` plus the time of each clock in microseconds, or None unless
    every clock is 'HH:MM:SS' or 'H:MM:SS' in ASCII digits and a time of
    day.  The clocks are read as one int of 8-byte lanes and converted by
    whole-int operations, digits to fields in every lane at once (SWAR
    parsing)."""
    count = len(clocks)
    if set(map(len, clocks)) != {8}:       # an unpadded hour: '9:05:07' reads as '09:05:07'
        clocks = [clock.zfill(8) for clock in clocks]
    if not (text := "".join(clocks)).isascii():
        return None
    # every clock is now 8 or longer, so the total length checks each one:
    # '12:34:561' '2:34:56' would join into two lanes
    raw = text.encode()
    if raw.translate(_CLOCK_SHAPE) != b"00:00:00" * count:
        return None
    ones = int.from_bytes(b"\1\0\0\0\0\0\0\0" * count, "little")
    x = int.from_bytes(raw, "little") - _ZEROS * ones       # every byte 0-9, ':' to 0
    x = (x * 10 + (x >> 8)) & _FIELDS * ones                # tens * 10 + units, no carries
    if (x + _LIMITS * ones) & _HIGH * ones:
        return None
    byte = 0xff * ones
    x = ((x & byte) * 3_600_000_000 + (x >> 24 & byte) * 60_000_000
         + (x >> 48 & byte) * 1_000_000 + day * ones)
    return struct.unpack(f"<{count}Q", x.to_bytes(8 * count, "little"))


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
    bad = next((c for c in line if c in _UNDECODED), None)
    if bad is not None:
        raise ParseError(f"line {line_no}: invalid UTF-8 byte 0x{ord(bad) - 0xdc00:02x}")


def parse_ticks(source: Union[TextIO, Iterable[str]], spec: ContractSpec) -> TickColumns:
    """Parse a tick stream in file order into columns, validating prices on
    the grid.  Timestamps are whole seconds: '09:00:00.250' is a bad
    timestamp.

    The source is read in blocks of up to ``_BLOCK_LINES`` lines, and each
    block is converted column by column (``_parse_block``): its clocks
    together (``_clock_lanes``), and each distinct date, price and size
    text once, in caches shared across blocks.  Only a block that holds a
    bad line reaches ``_raise_first_error``, which raises that line's error
    with its number.
    """
    cols = TickColumns(spec)
    caches = ({}, {}, {})      # days, grid, sizes
    lines = iter(source)
    line_no = 1
    while block := list(islice(lines, _BLOCK_LINES)):
        if not _parse_block(block, cols, caches):
            _raise_first_error(block, line_no, spec)
        line_no += len(block)
    return cols


def _parse_block(block: list[str], cols: TickColumns, caches: tuple) -> bool:
    """Append the ticks of ``block`` column by column; False, with nothing
    appended, if a line is bad.  A block of ASCII lines with no '#' is
    joined around a NUL sentinel and split once, and cut into columns this
    way if its lines all have k = 4 or all k = 5 fields: the sentinel is
    every (k+1)-th token and nowhere else.  Any other block is split line by
    line, skipping blank and '#' lines."""
    days, grid, size_of = caches
    count = len(block)
    text = " \0 ".join(block)
    plain = text.isascii() and "#" not in text and text.count("\0") == count - 1
    tokens = text.split() if plain else ()
    for stride in (5, 6):
        if len(tokens) == stride * count - 1 and \
                tokens[stride - 1::stride].count("\0") == count - 1:
            dates, clocks, prices, sizes = (tokens[i::stride] for i in range(4))
            conditions = tokens[4::6] if stride == 6 else [None] * count
            break
    else:
        if not text.isascii() and not _UNDECODED.isdisjoint(text):
            return False
        rows = [fields for fields in map(str.split, block) if fields and fields[0][0] != "#"]
        if not set(map(len, rows)) <= {4, 5}:
            return False
        dates, clocks, prices, sizes = ([fields[i] for fields in rows] for i in range(4))
        conditions = [fields[4] if len(fields) == 5 else None for fields in rows]
    try:
        # each distinct text converted once; a failure means a bad line
        day_set = set(dates)
        for key in day_set.difference(days):
            days[key] = _day_micros(key)
        day = days[dates[0]] if len(day_set) == 1 else 0
        times = _clock_lanes(clocks, day)
        if times is None:       # a clock of another shape, such as '9:0:5', converts whole
            times = map({clock: day + _clock_micros(clock) for clock in set(clocks)}.__getitem__,
                        clocks)
        for key in set(prices).difference(grid):
            grid[key] = _grid_deltas(key, "0", cols.spec, 0)    # size "0" always passes
        for key in set(sizes).difference(size_of):
            if (size := int(key)) < 0:
                return False
            size_of[key] = size
    except (ValueError, ArithmeticError):
        return False
    if len(day_set) > 1:
        times = map(add, map(days.__getitem__, dates), times)
    cols.times += times
    cols.deltas += map(grid.__getitem__, prices)
    cols.sizes += map(size_of.__getitem__, sizes)
    cols.conditions += conditions
    return True


def _raise_first_error(lines: Iterable[str], line_no: int, spec: ContractSpec) -> NoReturn:
    """Raise the error of the first bad line of ``lines``, numbered from
    ``line_no``: a byte that was not UTF-8, the field count, the timestamp,
    the price and size syntax, the grid, a price that is not positive, a
    negative size, in that order.  ``_parse_block`` refused the block, so
    one line is bad."""
    for line_no, raw in enumerate(lines, start=line_no):
        line = raw.strip()
        _check_decoded(line, line_no)
        if not line or line[0] == "#":
            continue
        fields = line.split()
        if len(fields) not in (4, 5):
            raise ParseError(f"line {line_no}: expected 4 or 5 fields, got {len(fields)}")
        try:
            _day_micros(fields[0])
            _clock_micros(fields[1])
        except (ValueError, OverflowError):
            raise ParseError(f"line {line_no}: bad timestamp {fields[0]!r} {fields[1]!r}") \
                from None
        _grid_deltas(fields[2], fields[3], spec, line_no)       # also the size's syntax
        if int(fields[3]) < 0:
            raise ParseError(f"line {line_no}: tick size must be non-negative")
    raise AssertionError("a refused block with no bad line")


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
