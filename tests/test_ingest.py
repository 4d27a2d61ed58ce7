"""Tick parsing, serialization round-trip, and session windowing."""

import io
import random
import re
import tracemalloc
from datetime import date, datetime, time, timedelta
from fractions import Fraction
from itertools import groupby

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mpslab import (PRESETS, ContractSpec, GridError, Tick, ingest, parse_ticks,
                    serialize_ticks, sessionize, trade_ticks)
from mpslab.ingest import (ParseError, TickColumns, contract_for, in_time_order,
                           load_contract_config)


def _windowed(session_open, session_close):
    """ES economics with the given daily session window."""
    return PRESETS["ES"]._replace(session_open=session_open, session_close=session_close)


def test_parse_globex_line(es):
    ticks = parse_ticks(["2017/04/10 11:18:21 2342 1"], es)
    assert len(ticks) == 1
    t = ticks[0]
    assert t.timestamp == datetime(2017, 4, 10, 11, 18, 21)
    assert t.price == 2342
    assert t.size == 1
    assert not t.indicative


def test_parse_dash_dates_and_condition(es):
    ticks = parse_ticks(["2017-04-09 17:02:54\t2350.75\t3\tE"], es)
    assert ticks[0].condition == "E"
    assert ticks[0].price == Fraction("2350.75")


def test_indicative_ticks_flagged_and_filtered(es):
    ticks = parse_ticks(["2017/04/10 09:00:00 2350.00 0",
                         "2017/04/10 09:00:01 2350.25 2"], es)
    assert ticks[0].indicative
    assert [t.size for t in trade_ticks(ticks)] == [2]


def test_off_grid_price_names_delta(es):
    with pytest.raises(GridError) as err:
        parse_ticks(["2017/04/10 09:00:00 2342.10 1"], es)
    assert "0.25" in str(err.value) or "1/4" in str(err.value)
    assert "line 1" in str(err.value)


def test_malformed_line_number(es):
    good = "2017/04/10 09:00:00 2342 1"
    with pytest.raises(ParseError) as err:
        parse_ticks([good, "2017/04/10 09:00:01 oops"], es)
    assert "line 2" in str(err.value)


def test_blank_and_comment_lines_skipped(es):
    ticks = parse_ticks(["", "# header", "2017/04/10 09:00:00 2342 1"], es)
    assert len(ticks) == 1


def test_round_trip(es):
    lines = ["2017/04/10 11:18:21 2342 1", "2017/04/10 11:18:22 2342.25 3 E"]
    ticks = parse_ticks(lines, es)
    out = serialize_ticks(ticks)
    again = parse_ticks(io.StringIO(out), es)
    assert list(again) == list(ticks)
    assert serialize_ticks(again) == out


def test_serialized_prices_are_exact(es):
    def text(deltas):
        return serialize_ticks([Tick(datetime(2017, 4, 10, 9), es.delta * deltas, 1)]).split()[2]

    # past 2^53 a float cannot hold these, and 1e+20 is exponent notation
    for price in [es.delta * (2 ** 52 + 1), es.delta * (2 ** 55 + 1),
                  10 ** 20 + Fraction(1, 4)]:
        line = serialize_ticks([Tick(datetime(2017, 4, 10, 9), price, 1)])
        assert parse_ticks([line], es)[0].price == price
    assert text(2 ** 52 + 1) == "1125899906842624.25"
    assert text(4 * 10 ** 20 + 1) == "100000000000000000000.25"
    # the text a float repr already gave exactly stays as it was
    assert [text(n) for n in (9400, 9401, 9402, 9403)] == \
        ["2350", "2350.25", "2350.5", "2350.75"]
    third = ContractSpec("T", 1, Fraction(1, 3))
    line = serialize_ticks([Tick(datetime(2017, 4, 10, 9), Fraction(7, 3), 1)])
    assert line.split()[2] == "7/3" and parse_ticks([line], third)[0].price == Fraction(7, 3)


_GRIDS = [PRESETS["ES"], ContractSpec("B", 1000, Fraction(1, 64)),
          ContractSpec("T", 1, Fraction(1, 3)), ContractSpec("W", 1, 5)]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(_GRIDS),
       st.lists(st.tuples(st.datetimes().map(lambda t: t.replace(microsecond=0)),
                          st.integers(min_value=1), st.integers(min_value=0),
                          st.none() | st.text("ABEIS@", min_size=1, max_size=3)),
                max_size=20))
def test_serialize_read_round_trip(spec, rows):
    ticks = [Tick(t, spec.delta * n, size, condition) for t, n, size, condition in rows]
    text = serialize_ticks(ticks)
    assert list(parse_ticks(text.splitlines(), spec)) == ticks
    for tick, line in zip(ticks, text.splitlines()):
        try:
            old = repr(float(tick.price))
        except OverflowError:
            continue
        if tick.price.denominator > 1 and "e" not in old and Fraction(old) == tick.price:
            assert line.split("\t")[2] == old


def test_sessionize_overnight_window(es):
    assert es.session_open > es.session_close
    ticks = parse_ticks([
        "2017/04/09 17:02:54 2350.75 1",   # next day's session
        "2017/04/10 11:00:00 2351.00 1",
        "2017/04/10 15:15:00 2351.25 1",   # boundary, included
        "2017/04/10 15:15:01 2351.50 1",   # past close, dropped
        "2017/04/10 15:45:00 2352.00 1",   # maintenance range, dropped
        "2017/04/10 17:30:00 2352.25 1",   # 04-11 session
    ], es)
    result = sessionize(ticks)
    assert result.dropped == 2
    assert [s.day for s in result.sessions] == [date(2017, 4, 10), date(2017, 4, 11)]
    assert len(result.sessions[0].ticks) == 3
    assert result.sessions[0].ticks[0].timestamp.hour == 17


def test_sessionize_totality(es):
    ticks = parse_ticks([
        "2017/04/09 16:00:00 2350.00 1",
        "2017/04/09 18:00:00 2350.25 1",
        "2017/04/10 09:00:00 2350.50 1",
    ], es)
    result = sessionize(ticks)
    assert sum(len(s.ticks) for s in result.sessions) + result.dropped == len(ticks)


def test_sessionize_stable_for_equal_timestamps(es):
    a = Tick(datetime(2017, 4, 10, 9, 0, 0), "2350.00", 1, "first")
    b = Tick(datetime(2017, 4, 10, 9, 0, 0), "2350.25", 2, "second")
    later = Tick(datetime(2017, 4, 10, 9, 0, 1), "2350.50", 3, "later")
    result = sessionize(TickColumns.of([later, a, b], es))
    assert list(result.sessions[0].ticks) == [a, b, later]


def test_daytime_window():
    spec = _windowed(time(9, 0), time(16, 0))
    assert not spec.session_open > spec.session_close
    tick = Tick(datetime(2017, 4, 10, 10, 0, 0), "100", 1)
    out = Tick(datetime(2017, 4, 10, 8, 0, 0), "100", 1)
    result = sessionize(TickColumns.of([tick, out], spec))
    assert result.dropped == 1
    assert result.sessions[0].day == date(2017, 4, 10)


def test_window_validation():
    with pytest.raises(ValueError):
        sessionize(TickColumns(_windowed(time(9, 0), time(9, 0))))
    # a window with one end is refused, not taken as no window
    for key in ("session_open", "session_close"):
        half = _windowed(time(9, 0), time(16, 0))._replace(symbol="HALF", **{key: None})
        with pytest.raises(ValueError, match=f"contract HALF has no {key}"):
            sessionize(TickColumns(half))


def test_sessionize_without_window_keeps_every_tick_in_one_session():
    spec = _windowed(None, None)
    # equal times keep their arrival order; 16:00 lies outside the ES window
    a = Tick(datetime(2017, 4, 10, 16, 0, 0), "2350.00", 1, "first")
    b = Tick(datetime(2017, 4, 10, 16, 0, 0), "2350.25", 2, "second")
    earlier = Tick(datetime(2017, 4, 9, 23, 0, 0), "2350.50", 3, "earlier")
    result = sessionize(TickColumns.of([a, b, earlier], spec))
    assert result.dropped == 0
    # labeled by the first tick's own date, not a session's closing day
    assert [s.day for s in result.sessions] == [date(2017, 4, 9)]
    assert list(result.sessions[0].ticks) == [earlier, a, b]
    empty = sessionize(TickColumns(spec))
    assert (empty.sessions, empty.dropped) == ((), 0)


def test_presets():
    es = contract_for("ES")
    assert es.k == 50 and es.delta == Fraction(1, 4)
    corn = contract_for("corn")
    assert corn.k == 50
    with pytest.raises(ValueError):
        contract_for("XX")


def test_config_file(tmp_path):
    path = tmp_path / "contracts.ini"
    path.write_text(
        "[NQ]\nk = 20\ndelta = 0.25\nsession_open = 17:00\nsession_close = 15:15\n")
    specs = load_contract_config(str(path))
    assert specs["NQ"].k == 20
    assert specs["NQ"].session_open == time(17, 0)
    assert contract_for("NQ", str(path)).k == 20


# --- differential checks of the column parser ------------------------------

def _reference_parse_ticks(source, spec):
    """The Fraction-per-tick parser the column reader replaced, kept as the
    oracle for ticks, error types and messages.  One deliberate change: a
    zero denominator ('1/0') is a ParseError here too; it used to escape as
    a raw ZeroDivisionError."""
    def timestamp(date_text, time_text, line_no):
        for sep in ("/", "-"):
            if sep in date_text:
                try:
                    y, m, d = (int(p) for p in date_text.split(sep))
                    hh, mm, ss = (int(p) for p in time_text.split(":"))
                    return datetime(y, m, d, hh, mm, ss)
                except ValueError:
                    break
        raise ParseError(f"line {line_no}: bad timestamp {date_text!r} {time_text!r}")

    ticks = []
    for line_no, raw in enumerate(source, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        if len(fields) not in (4, 5):
            raise ParseError(f"line {line_no}: expected 4 or 5 fields, got {len(fields)}")
        ts = timestamp(fields[0], fields[1], line_no)
        try:
            price = Fraction(fields[2])
            size = int(fields[3])
        except (ValueError, TypeError, ZeroDivisionError) as exc:
            raise ParseError(f"line {line_no}: {exc}") from exc
        try:
            spec.to_deltas(price)
        except GridError as exc:
            raise GridError(f"line {line_no}: {exc}") from exc
        condition = fields[4] if len(fields) == 5 else None
        try:
            ticks.append(Tick(ts, price, size, condition))
        except ValueError as exc:
            raise ParseError(f"line {line_no}: {exc}") from exc
    return ticks


def _parsed(lines, spec):
    return list(parse_ticks(lines, spec))


def _outcome(parse, lines, spec):
    try:
        return parse(lines, spec)
    except (ValueError, ArithmeticError) as exc:
        return type(exc), str(exc)


# block sizes that put block boundaries next to every line of a short input,
# and the default
_BLOCK_SIZES = (1, 2, 3, ingest._BLOCK_LINES)


def _assert_parses_like_reference(lines, spec):
    """``parse_ticks`` at every block size gives the reference parser's
    ticks, or its error type, message and line number."""
    expected = _outcome(_reference_parse_ticks, lines, spec)
    for size in _BLOCK_SIZES:
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(ingest, "_BLOCK_LINES", size)
            assert _outcome(_parsed, lines, spec) == expected, size


# short junk: no exponent letters, so no token asks for a huge power of ten
_junk = st.text(alphabet="0123456789:/-.+_ax#", max_size=6)
_dates = st.builds(lambda d, sep: d.strftime(f"%Y{sep}%m{sep}%d"),
                   st.dates(date(1990, 1, 1), date(2030, 12, 31)), st.sampled_from("/-"))
_clocks = st.builds(lambda h, m, s: f"{h:02d}:{m:02d}:{s:02d}",
                    st.integers(0, 25), st.integers(0, 61), st.integers(0, 61))
_prices = st.one_of(
    st.builds(lambda n: f"{n // 4}.{n % 4 * 25:02d}", st.integers(9000, 9020)),
    st.builds(str, st.integers(-2, 2260)),
    st.sampled_from(["2342.5", "2342.10", "0.00", "-0.25", "1/4", "9401/4", "1/0", "0/0"]),
    _junk)
_sizes = st.one_of(st.builds(str, st.integers(-2, 30)), _junk)
_good_lines = st.builds(
    lambda d, t, n, size, cond: " ".join([d, t, f"{n // 4}.{n % 4 * 25:02d}", str(size), cond]),
    _dates, st.builds(lambda x: f"{x // 3600:02d}:{x // 60 % 60:02d}:{x % 60:02d}",
                      st.integers(0, 86399)),
    st.integers(1, 9020), st.integers(0, 30), st.sampled_from(["", "E"]))
_lines = st.one_of(
    st.builds(lambda *f: " ".join(f), _dates, _clocks, _prices, _sizes),
    st.builds(lambda *f: "\t".join(f), _dates, _clocks, _prices, _sizes,
              st.sampled_from(["E", "I", "x"])),
    st.builds(lambda *f: " ".join(f), st.one_of(_dates, _junk), st.one_of(_clocks, _junk),
              _prices, _sizes),
    st.lists(_junk, max_size=7).map(" ".join),
    st.sampled_from(["", "   ", "# comment", "#"]))


@settings(max_examples=400, deadline=None)
@given(st.one_of(st.lists(_good_lines, max_size=30), st.lists(_lines, max_size=12)))
def test_parse_matches_reference_parser(lines):
    _assert_parses_like_reference(lines, contract_for("ES"))


_ARABIC_INDIC = str.maketrans("0123456789", "".join(map(chr, range(0x660, 0x66A))))


@pytest.mark.parametrize("seed", range(4))
def test_clock_edge_cases_after_their_minute_is_cached(es, seed):
    # a clock that is not plain 'HH:MM:SS', among plain clocks of its
    # minute, must still get the checked outcome
    rng = random.Random(seed)
    head = f"{rng.randrange(24):02d}:{rng.randrange(60):02d}"
    fill = [f"2017/04/10 {clock}:{s:02d} 2350.00 1"
            for clock in (head, "09:00") for s in rng.sample(range(60), 2)]
    edges = [f"{head}:60", f"{head}:5", f"{head}:+5", f"{head}:-0", "9:00:05", "9:0:5",
             "24:00:00", head, f"{head}:05:00", f"{head}:{rng.randrange(60):02d}".translate(
                 _ARABIC_INDIC), f"{head}:" + "05".translate(_ARABIC_INDIC), f"{head}:05.0"]
    for edge in edges:
        lines = fill + [f"2017/04/10 {edge} 2350.25 1", f"2017/04/10 {head}:59 2350.50 1"]
        _assert_parses_like_reference(lines, es)


def _tick_lines(rng, count, start=datetime(2017, 4, 9, 23, 40)):
    """``count`` canonical 4-field tick lines in time order, crossing
    midnight after about 1,200 lines."""
    lines, t = [], start
    for _ in range(count):
        t += timedelta(seconds=rng.randrange(3))
        lines.append(f"{t:%Y/%m/%d\t%H:%M:%S}\t{2350 + rng.randrange(-40, 40) / 4:.2f}"
                     f"\t{rng.randrange(8)}")
    return lines


@pytest.mark.parametrize("hour", ["{:02d}", "{:d}"])
def test_lanes_convert_every_clock_of_a_day_in_one_block(es, monkeypatch, hour):
    # with hours zero-padded, and unpadded before 10:00 ('9:05:07')
    clocks = [f"{hour.format(x // 3600)}:{x // 60 % 60:02d}:{x % 60:02d}" for x in range(86400)]
    day = ingest._day_micros("2017/04/10")
    expected = [day + ingest._clock_micros(clock) for clock in clocks]
    assert list(ingest._clock_lanes(clocks, day)) == expected
    # a block of clocks before 10:00 only, all unpadded in the second case
    assert list(ingest._clock_lanes(clocks[:36000], day)) == expected[:36000]
    monkeypatch.setattr(ingest, "_BLOCK_LINES", len(clocks))
    assert parse_ticks([f"2017/04/10 {clock} 2350.25 1" for clock in clocks], es).times \
        == expected


_REFUSED_BY_LANES = (
    # a non-digit, or the bytes either side of '0'-'9', in each digit position
    [clock[:i] + c + clock[i + 1:] for clock in ("12:34:56", "00:00:00")
     for i in (0, 1, 3, 4, 6, 7) for c in "/;:a"]
    # no ':' at a colon position
    + ["12;34:56", "12:34956", "12/34:56"]
    # hours 24-99, tens of minutes or seconds 6-9
    + [f"{h}:00:00" for h in range(24, 100)]
    + [f"12:{t}{u}:00" for t in "6789" for u in "09"]
    + [f"12:00:{t}{u}" for t in "6789" for u in "09"]
    # clocks int() reads that are not ASCII 'DD:DD:DD'
    + ["+9:05:07", "12:34:56".translate(_ARABIC_INDIC), "12:34:" + "5".translate(_ARABIC_INDIC)
       + "6", "12:34:056", "09:5:07", "9:5:07", "0:00:00:0"])


@pytest.mark.parametrize("clock", _REFUSED_BY_LANES)
def test_clocks_the_lanes_refuse_parse_like_reference(es, clock):
    # each such clock leaves its block to the whole-clock path, which gives
    # the reference parser's ticks or error
    assert ingest._clock_lanes(["23:59:59", clock, "00:00:00"], 0) is None
    fill = [f"2017/04/10 09:00:{s:02d} 2350.00 1" for s in range(3)]
    _assert_parses_like_reference(fill + [f"2017/04/10 {clock} 2350.25 1"] + fill, es)
    _assert_parses_like_reference([f"2017/04/10 {clock} 2350.25 1"], es)


def test_misaligned_clocks_are_refused_by_their_lengths(es):
    # each pair joins into two well-shaped lanes; both clocks of the second
    # pair are valid, and the lanes would read its first one as 12:34:05
    for pair in (["12:34:561", "2:34:56"], ["12:34:051", "2:34:56"]):
        assert ingest._clock_lanes(pair, 0) is None
        _assert_parses_like_reference([f"2017/04/10 {clock} 2350.25 1" for clock in pair], es)


def test_lane_blocks_across_midnight_and_short_blocks_parse_like_reference(es):
    # blocks of one line, a block spanning two dates (its days are added
    # per tick) and a short last block, at every block size
    lines = _tick_lines(random.Random(24), 1203, start=datetime(2017, 4, 9, 23, 59, 10))
    assert len({line[:10] for line in lines[:1000]}) == 2
    _assert_parses_like_reference(lines, es)
    _assert_parses_like_reference(lines[:1], es)


@pytest.mark.parametrize("unpad", [False, True])
def test_canonical_clocks_never_reach_the_whole_clock_path(es, monkeypatch, unpad):
    lines = _tick_lines(random.Random(5), 5000)
    if unpad:       # '00:05:07' written '0:05:07'
        lines = [re.sub(r"\t0(\d):", r"\t\1:", line) for line in lines]
        assert sum(len(line.split()[1]) == 7 for line in lines) > 1000
    expected = _reference_parse_ticks(lines, es)

    def refuse(text):
        raise AssertionError(f"clock {text!r} converted alone")

    monkeypatch.setattr(ingest, "_clock_micros", refuse)
    assert _parsed(lines, es) == expected


def test_irregular_lines_in_later_blocks_parse_like_reference(es):
    # past the first default block: a comment, a blank line, a whole block
    # of 5-field lines with a 4/5 switch inside the blocks on either side,
    # and one bad line
    rng = random.Random(21)
    lines = _tick_lines(rng, 5600)
    size = ingest._BLOCK_LINES
    lines[size + size // 2] = "# a comment"
    lines[2 * size + 7] = ""
    run = slice(4 * size - 3, 5 * size + 3)
    lines[run] = [line + "\tE" for line in lines[run]]
    assert _parsed(lines, es) == _reference_parse_ticks(lines, es)
    bad = 5 * size + 300
    lines[bad] = lines[bad].replace(":", "", 1)
    date_text, clock_text = lines[bad].split()[:2]
    assert _outcome(_parsed, lines, es) == _outcome(_reference_parse_ticks, lines, es) \
        == (ParseError, f"line {bad + 1}: bad timestamp {date_text!r} {clock_text!r}")


def test_nul_and_undecodable_bytes_parse_like_reference(es):
    # the block path joins lines around a NUL: a NUL field must not pass
    # for that separator, and a byte decoding left as a surrogate is refused
    good, later = "2017/04/10 09:00:00 2350 1", "2017/04/10 09:00:01 2350.25 2"
    for lines in ([good, "\0 " + later + " E"], [good + " \0", later + " \0"],
                  [good, later + " E\0"], [good + " \0", later], ["\0", good]):
        _assert_parses_like_reference(lines, es)
    for size in _BLOCK_SIZES:
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(ingest, "_BLOCK_LINES", size)
            with pytest.raises(ParseError, match="^line 2: invalid UTF-8 byte 0xff$"):
                parse_ticks([good + " E", later + " E\udcff"], es)


def test_regular_blocks_skip_the_per_line_loop(es, monkeypatch):
    # every valid block is converted by columns: only a block holding a bad
    # line reaches the per-line error path, once, and the error names it
    real = ingest._raise_first_error
    calls = []

    def first_error(lines, line_no, spec):
        calls.append(line_no)
        real(lines, line_no, spec)

    monkeypatch.setattr(ingest, "_raise_first_error", first_error)
    rng = random.Random(3)
    size = ingest._BLOCK_LINES
    four = _tick_lines(rng, size)
    five = [line + "\tE" for line in _tick_lines(rng, size)]
    commented = _tick_lines(rng, size - 1)
    commented.insert(7, "# one two three")             # as many tokens as a tick line
    blank = _tick_lines(rng, size - 2)
    blank[7:7] = ["", "#"]
    mixed = [line + "\tE" * (i % 2) for i, line in enumerate(_tick_lines(rng, size))]
    non_ascii = [line + "\t\u00c9" for line in _tick_lines(rng, size)]
    nul = _tick_lines(rng, size)
    nul[9] += "\t\0"
    lines = four + five + commented + blank + mixed + non_ascii + nul
    assert _parsed(lines, es) == _reference_parse_ticks(lines, es)
    assert calls == []
    bad = 4 * size + 300                                # in the mixed block
    lines[bad] = lines[bad].replace(":", "", 1)
    with pytest.raises(ParseError, match=f"^line {bad + 1}: bad timestamp "):
        parse_ticks(lines, es)
    assert calls == [4 * size + 1]


@pytest.mark.parametrize("count", [2 * 10 ** 4, 2 * 10 ** 5])
def test_parse_memory_beyond_the_columns_is_bounded(tmp_path, count):
    # what parse_ticks holds besides its result is one block of lines and
    # the caches, whatever the length of the file
    path = tmp_path / "ticks.tsv"
    start = datetime(2017, 4, 10)
    with open(path, "w") as fh:
        fh.writelines(f"{start + timedelta(seconds=i):%Y/%m/%d\t%H:%M:%S}\t"
                      f"{2350 + i % 40 / 4:.2f}\t{1 + i % 7}\n" for i in range(count))
    tracemalloc.start()
    try:
        with open(path) as fh:
            tracemalloc.reset_peak()
            ticks = parse_ticks(fh, PRESETS["ES"])
            current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(ticks) == count
    assert peak - current < 2 << 20


def test_parse_rejects_overflow_and_zero_division_with_line_numbers(es):
    # both used to escape as a raw OverflowError / ZeroDivisionError
    for line in ["2017/04/10 99999999999999999999:00:00 2342 1",
                 "99999999999999999999/04/10 09:00:00 2342 1",
                 "2017/04/10 09:00:00 1/0 1"]:
        with pytest.raises(ParseError, match="line 2"):
            parse_ticks(["2017/04/10 09:00:00 2342 1", line], es)


def test_parse_rejects_exponent_prices_before_building_fractions(es, monkeypatch):
    # Fraction('1e300000') costs time and memory growing with the exponent
    real = ingest.as_fraction

    def no_exponent(text):
        assert "e" not in str(text).lower()
        return real(text)

    monkeypatch.setattr(ingest, "as_fraction", no_exponent)
    for price in ["1e300000", "2.3425E3"]:
        with pytest.raises(ParseError, match="line 2"):
            parse_ticks(["2017/04/10 09:00:00 2342 1", f"2017/04/10 09:00:01 {price} 1"], es)


def test_columns_round_trip_and_index(es):
    lines = ["2017/04/10 11:18:21 2342 1", "2017/04/10 11:18:22 2342.25 0 E"]
    cols = parse_ticks(lines, es)
    assert cols.deltas == [9368, 9369] and cols.sizes == [1, 0]
    assert list(cols) == _reference_parse_ticks(lines, es)
    assert cols[1] == Tick(datetime(2017, 4, 10, 11, 18, 22), Fraction("2342.25"), 0, "E")
    assert list(trade_ticks(cols)) == [t for t in _reference_parse_ticks(lines, es)
                                       if not t.indicative]
    assert list(TickColumns.of(list(cols), es)) == list(cols)
    # with no indicative tick to drop, the columns come back uncopied
    traded = parse_ticks(lines[:1], es)
    assert trade_ticks(traded) is traded


# ES economics with an overnight and a daytime session window
_WINDOWS = [_windowed(time(17, 0), time(15, 15)), _windowed(time(9, 30), time(16, 0))]


@pytest.mark.parametrize("window", _WINDOWS)
def test_sessionize_columns_match_tick_lists(window):
    rng = random.Random(5)
    start = datetime(2017, 4, 8, 0, 0, 0)
    ticks = [Tick(start + timedelta(seconds=rng.randrange(4 * 86400) // 900 * 900),
                  window.delta * rng.randint(9000, 9010), rng.randint(1, 3), str(j))
             for j in range(600)]
    # exact open and close instants, which both belong to the session
    opens, closes = window.session_open, window.session_close
    ticks += [Tick(datetime.combine(date(2017, 4, 9), opens), "2250", 1, "open"),
              Tick(datetime.combine(date(2017, 4, 9), closes), "2250", 1, "close")]
    result = sessionize(TickColumns.of(ticks, window))
    # the reference: stable sort, then each tick's own session day
    overnight = opens > closes
    expected = {}
    for tick in sorted(ticks, key=lambda t: t.timestamp):
        tod, day = tick.timestamp.time(), tick.timestamp.date()
        if overnight and tod >= opens:
            expected.setdefault(day + timedelta(days=1), []).append(tick)
        elif (tod <= closes) if overnight else (opens <= tod <= closes):
            expected.setdefault(day, []).append(tick)
    assert [s.day for s in result.sessions] == sorted(expected)
    assert {s.day: list(s.ticks) for s in result.sessions} == expected
    assert result.dropped == len(ticks) - sum(map(len, expected.values())) > 0


# seconds of the day at and next to both windows' open and close, in their
# gaps, and at the ends of the day
_EDGE_SECONDS = [h * 3600 + m * 60 + d for h, m in ((17, 0), (15, 15), (9, 30), (16, 0))
                 for d in (-1, 0, 1)] + [15 * 3600 + 45 * 60, 16 * 3600 + 30 * 60, 0, 86399]


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(_WINDOWS),
       st.lists(st.tuples(st.integers(0, 3),
                          st.one_of(st.sampled_from(_EDGE_SECONDS), st.integers(0, 86399)),
                          st.integers(1, 3)),
                max_size=40))
def test_sessionize_ordered_columns_match_sorted_path(window, runs):
    # time-ordered columns are cut into sessions without sorting; the same
    # ticks with their runs of equal times in reverse go through the stable
    # sort, which puts them back in order
    start = datetime(2017, 4, 8)
    stamps = sorted(start + timedelta(days=day, seconds=second)
                    for day, second, repeat in runs for _ in range(repeat))
    ticks = [Tick(ts, window.delta * (9000 + j % 7), 1 + j % 3, str(j))
             for j, ts in enumerate(stamps)]
    cols = TickColumns.of(ticks, window)
    runs_of_time = [list(run) for _, run in groupby(ticks, key=lambda t: t.timestamp)]
    unordered = TickColumns.of([t for run in reversed(runs_of_time) for t in run], window)
    assert in_time_order(cols) is cols
    assert (in_time_order(unordered) is unordered) == (len(runs_of_time) < 2)
    ordered, by_sort = sessionize(cols), sessionize(unordered)
    assert ordered.dropped == by_sort.dropped
    assert [s.day for s in ordered.sessions] == [s.day for s in by_sort.sessions]
    assert [list(s.ticks) for s in ordered.sessions] == [list(s.ticks) for s in by_sort.sessions]
    assert all(isinstance(s.ticks, TickColumns) for s in ordered.sessions + by_sort.sessions)


def test_sessionize_refuses_past_date_max_alike_ordered_and_sorted(es):
    cols = TickColumns.of([Tick(datetime(9999, 12, 30, 9, 0), "2350", 1),
                           Tick(datetime(9999, 12, 31, 18, 0), "2350.25", 1)], es)
    messages = []
    for ticks in (cols, TickColumns.of(reversed(cols), es)):
        with pytest.raises(ValueError, match="last date") as refused:
            sessionize(ticks)
        messages.append(str(refused.value))
    assert messages[0] == messages[1]


def test_take_cuts_ranges_like_index_lists(es):
    cols = parse_ticks([f"2017/04/10 09:00:{s:02d} {2350 + s / 4:.2f} {s % 3}" for s in range(6)],
                      es)
    for positions in (range(6), range(1, 4), range(0, 6, 2), range(5, 0, -2), range(4, 2),
                      range(-2, 6), range(-3, -1)):
        assert list(cols.take(positions)) == [cols[i] for i in positions]
    with pytest.raises(IndexError):
        cols.take(range(4, 7))
