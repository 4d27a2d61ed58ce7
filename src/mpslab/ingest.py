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
from functools import lru_cache
from itertools import compress, islice
from operator import add, itemgetter
from typing import Iterable, NamedTuple, NoReturn, Optional, Sequence, TextIO, Union

from .model import ContractSpec, GridError, Tick
from .numeric import as_fraction, exact_text


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
    H:M:S, both or neither); symbols must differ in more than case.  Bad
    input is a ValueError that names the contract and the key.
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
        twins = ", ".join(repr(s) for s in parser.sections() if s.upper() == symbol.upper())
        if twins != repr(symbol):
            raise ValueError(f"bad config: sections {twins} differ only in case")
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
        except ValueError as exc:       # k or delta not positive, or a bad session window
            raise ValueError(f"contract {symbol}: {exc}") from None
    return specs


def contract_for(name: str, config_path: Optional[str] = None) -> ContractSpec:
    """Resolve a symbol in any case: one a config file defines, else a preset."""
    configured = load_contract_config(config_path) if config_path else {}
    for specs in ({symbol.upper(): spec for symbol, spec in configured.items()}, PRESETS):
        if name.upper() in specs:
            return specs[name.upper()]
    raise ValueError(f"unknown contract {name!r}; presets: {sorted(set(PRESETS))}")


def _parse_time(text: str) -> time:
    try:
        fields = [int(part) for part in text.strip().split(":")]
    except ValueError:
        fields = []
    if len(fields) not in (2, 3):
        raise ValueError("a clock is H:M or H:M:S")
    # clamped to -1..60 a field stays in or out of range and fits datetime's C long
    return time(*[min(max(field, -1), 60) for field in fields])


_DAY_US = 86_400_000_000
_EPOCH = datetime(1, 1, 1)
_US = timedelta(microseconds=1)
_LAST_DAY = date.max.toordinal()        # days since _EPOCH of the day after date.max
# a clock 'HH:MM:SS' and the space after it read as a little-endian 9-byte lane
_CLOCK_SHAPE = bytes(32) + b" " + bytes(15) + b"0" * 10 + b":" + bytes(197)  # ' ', ':' kept
_FIELDS = 0xff << 48 | 0xff << 24 | 0xff                    # bytes 6, 3, 0: SS, MM, HH
_LIMITS = (128 - 60) << 48 | (128 - 60) << 24 | (128 - 24)  # field + limit reaches bit 7 ...
_HIGH = 0x80 << 48 | 0x80 << 24 | 0x80                      # ... at SS, MM >= 60 or HH >= 24
_GATHER = 3600 << 48 | 60 << 24 | 1     # HH*3600 + MM*60 + SS lands at bit 48 of the lane
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

    def __getitem__(self, i):
        """The tick at ``i``, or for a slice the span's ticks as new columns."""
        if isinstance(i, slice):
            return self._columns(lambda column: column[i])
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


@lru_cache(maxsize=4)
def _lane_constants(count: int) -> tuple:
    """Shape, zeros, lane constants and struct of ``_clock_lanes`` on ``count`` clocks."""
    shape = (b"00:00:00 " * count)[:-1]
    ones = int.from_bytes((b"\1" + bytes(8)) * count, "little")
    return (shape, int.from_bytes(shape, "little"), ones, _FIELDS * ones, _LIMITS * ones,
            _HIGH * ones, 0xffffff * ones, struct.Struct("<" + "Qx" * (count - 1) + "Q"))


def _padded_clock(clock: str, padded: dict) -> str:
    """``clock`` with each one-character field zero-filled ('9:5:07' as
    '09:05:07'), stored in ``padded``.  Zeros are only inserted, so a clock
    that is not three fields of one or two ASCII digits keeps a character
    or a width that the lanes' shape refuses."""
    text = padded[clock] = ":".join([field and field.zfill(2) for field in clock.split(":")])
    return text


def _clock_lanes(clocks: list[str], day: int, padded: dict) -> Optional[tuple[int, ...]]:
    """``day`` plus the time of each clock in microseconds, or None unless
    every clock is 'H:M:S' with one or two ASCII digits a field and a time
    of day.  The clocks, which hold no space, are joined by spaces, and a
    shape that pins every space proves each 8 characters.  If it does not,
    the shape is checked once more with each other clock padded: 'H:MM:SS',
    the one 7-character clock padding can mend, by a leading zero, and any
    other field by field (``_padded_clock``, cached in ``padded``).  The text
    is read as one int of 9-byte lanes, converted in every lane at once (SWAR)."""
    shape, zeros, ones, fields, limits, high, seconds, lanes = _lane_constants(len(clocks))
    if not (text := " ".join(clocks)).isascii():
        return None
    if (raw := text.encode()).translate(_CLOCK_SHAPE) != shape:   # '9:5:7' as '09:05:07'
        get = padded.get
        raw = " ".join([clock if len(clock) == 8 else
                        "0" + clock if len(clock) == 7 and clock[1] == ":" else
                        get(clock) or _padded_clock(clock, padded) for clock in clocks]).encode()
        if raw.translate(_CLOCK_SHAPE) != shape:
            return None
    x = int.from_bytes(raw, "little") - zeros               # every byte 0-9, ':' and ' ' to 0
    x = (x * 10 + (x >> 8)) & fields                        # tens * 10 + units, no carries
    if (x + limits) & high:
        return None
    # what the product puts below bit 48 of this lane or the next stays there
    x = (x * _GATHER >> 48 & seconds) * 1_000_000 + day * ones
    return lanes.unpack(x.to_bytes(len(raw), "little"))


def _grid_deltas(price_text: str, size_text: str, spec: ContractSpec, line_no: int) -> int:
    """Grid count of a line's price text, checked in the order ticks are:
    price and size syntax, the grid, then a positive price.  Exponent
    notation is refused before any Fraction is built: '1e300000' would
    cost time and memory growing with the exponent."""
    if "e" in price_text or "E" in price_text:
        raise ParseError(f"line {line_no}: exponent notation in price {price_text!r}")
    try:
        price = as_fraction(price_text)
        _size(size_text, signed=True)        # the sign is checked last
    except ValueError as exc:
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
    together (``_clock_lanes``), and each distinct date, price, size and
    lane-refused clock text once, in caches shared across blocks.  Only a
    block that holds a bad line reaches ``_raise_first_error``, which raises
    that line's error with its number.
    """
    cols = TickColumns(spec)
    caches = ({}, {}, {}, {}, {})      # days, clocks, grid, sizes, padded clocks
    lines = iter(source)
    line_no = 1
    while block := list(islice(lines, _BLOCK_LINES)):
        if not _parse_block(block, cols, caches):
            _raise_first_error(block, line_no, spec)
        line_no += len(block)
    return cols


def _parse_block(block: list[str], cols: TickColumns, caches: tuple) -> bool:
    """Append the ticks of ``block`` column by column; False, with nothing
    appended, if a line is bad.  A block of ASCII lines with no '#' is joined
    around a NUL sentinel, split once and cut into columns if its lines all
    have k = 4 or all k = 5 fields: the sentinel is every (k+1)-th token and
    no condition, so a line's NUL token cannot shift the cut unseen (any other
    column refuses it).  Any other block is split line by line, skipping
    blank and '#' lines."""
    days, clock_of, grid, size_of, padded = caches
    count = len(block)
    text = " \0 ".join(block)
    tokens = text.split() if text.isascii() and "#" not in text else ()
    for stride in (5, 6):
        if len(tokens) == stride * count - 1 and \
                tokens[stride - 1::stride].count("\0") == count - 1 and \
                (stride == 5 or "\0" not in tokens[4::6]):
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
    if not dates:               # blank and '#' lines only
        return True
    try:
        # each distinct text converted once; a failure means a bad line
        one_day = dates.count(dates[0]) == len(dates)
        day = _cached(days, dates[:1], _day_micros)[0] if one_day else 0
        times = _clock_lanes(clocks, day, padded)
        if times is None:       # a clock of another shape, such as '17:005:07', converts whole
            times = map(day.__add__, _cached(clock_of, clocks, _clock_micros))
        if not one_day:
            times = map(add, _cached(days, dates, _day_micros), times)
        deltas = _cached(grid, prices, lambda key: _grid_deltas(key, "0", cols.spec, 0))
        sizes = _cached(size_of, sizes, _size)
    except (ValueError, ArithmeticError):
        return False
    cols.times += times
    cols.deltas += deltas
    cols.sizes += sizes
    cols.conditions += conditions
    return True


def _cached(cache: dict, texts: list[str], convert) -> tuple:
    """``texts`` mapped through ``cache`` (one text's itemgetter returns no
    tuple); on a miss each text not in it is converted, once, and all mapped again."""
    get = itemgetter(*texts) if len(texts) > 1 else lambda cache: (cache[texts[0]],)
    try:
        return get(cache)
    except KeyError:
        for key in set(texts).difference(cache):
            cache[key] = convert(key)
        return get(cache)


def _size(text: str, signed: bool = False) -> int:
    """A size's int: text that is not a whole number is refused by name, and
    a negative size unless ``signed``."""
    try:
        size = int(text)
    except ValueError:
        raise ValueError(f"not a whole number: {text!r}") from None
    if size < 0 and not signed:
        raise ValueError(f"negative size {text!r}")
    return size


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


def serialize_ticks(ticks: Sequence[Tick]) -> str:
    """Canonical TSV tick format (date, time, price, size[, condition]).
    Prices are written exactly, so ``parse_ticks`` reads back the same ticks;
    a tick with microseconds, or a condition not one word, is a ValueError."""
    lines = []
    for t in ticks:
        condition = [] if t.condition is None else [t.condition]
        if t.timestamp.microsecond or condition and t.condition.split() != condition:
            raise ValueError(f"{t!r} cannot be read back: a tick file holds whole "
                             "seconds and one-word conditions")
        lines.append("\t".join([t.timestamp.strftime("%Y/%m/%d\t%H:%M:%S"),
                                exact_text(t.price), str(t.size), *condition]))
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
    opens, closes = ticks.spec.session_open, ticks.spec.session_close
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
